//! Fabric-level behaviors: switch queue congestion, CSMA/CD dynamics,
//! routing across cascades, and CPU-cost accounting.

use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{topology, DropCause, FabricKind, HostId, Sim, SimConfig, UdpDest};
use rmwire::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;

const PORT: u16 = 7;

struct Blast {
    dest: UdpDest,
    sizes: Vec<usize>,
}
impl Process for Blast {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &s in &self.sizes {
            ctx.send(self.dest, Bytes::from(vec![9u8; s]));
        }
    }
}

struct Sink {
    log: Rc<RefCell<Vec<(Time, HostId, usize)>>>,
}
impl Process for Sink {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.log
            .borrow_mut()
            .push((ctx.now(), ctx.host(), dg.payload.len()));
    }
}

fn no_jitter() -> SimConfig {
    let mut c = SimConfig::default();
    c.host.cpu_jitter = 0.0;
    c
}

#[test]
fn switch_output_queue_tail_drops_under_incast() {
    // Many senders blast one receiver through a tiny switch queue: the
    // shared output port must tail-drop.
    let mut cfg = no_jitter();
    cfg.switch.queue_bytes = 4 * 1024;
    let mut sim = Sim::new(cfg, 3);
    let hosts = topology::single_switch(&mut sim, 9);
    let log = Rc::new(RefCell::new(Vec::new()));
    for &h in &hosts[1..] {
        sim.spawn(
            h,
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(hosts[0], PORT),
                sizes: vec![1_400; 50],
            }),
        );
    }
    sim.spawn(hosts[0], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    assert!(
        sim.trace().drops(DropCause::SwitchQueueFull) > 0,
        "8-to-1 incast through a 4 KB queue must drop"
    );
    // Conservation: every datagram is delivered or accounted lost.
    let delivered = log.borrow().len() as u64;
    assert!(delivered > 0);
    assert!(delivered < 400);
}

#[test]
fn incast_is_lossless_with_big_queues() {
    let mut cfg = no_jitter();
    cfg.switch.queue_bytes = 4 * 1024 * 1024;
    let mut sim = Sim::new(cfg, 3);
    let hosts = topology::single_switch(&mut sim, 9);
    let log = Rc::new(RefCell::new(Vec::new()));
    for &h in &hosts[1..] {
        sim.spawn(
            h,
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(hosts[0], PORT),
                sizes: vec![1_400; 50],
            }),
        );
    }
    sim.spawn(hosts[0], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert_eq!(log.borrow().len(), 400);
    assert!(sim.trace().clean());
}

#[test]
fn cascade_unicast_latency_adds_one_store_and_forward() {
    // The same transfer across one switch vs across the inter-switch link
    // differs by exactly one store-and-forward (frame time + latency +
    // propagation), when jitter is off.
    fn one_way(n_hosts: usize, to_far: bool) -> u64 {
        let mut sim = Sim::new(no_jitter(), 1);
        let hosts = topology::two_switch_cluster(&mut sim, n_hosts);
        let dst = if to_far {
            *hosts.last().unwrap()
        } else {
            hosts[1]
        };
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(dst, PORT),
                sizes: vec![1_000],
            }),
        );
        for &h in &hosts[1..] {
            if h == dst {
                sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
            }
        }
        sim.run();
        let t = log.borrow()[0].0.as_nanos();
        t
    }
    let near = one_way(18, false);
    let far = one_way(18, true);
    let cfg = no_jitter();
    // Frame: 1000 + 28 + 18 = 1046 bytes -> 1066 wire bytes at 100 Mbit/s.
    let frame_time = Duration::transmission(1_066, 100_000_000).as_nanos();
    let extra = frame_time + cfg.switch.latency.as_nanos() + cfg.link.prop_delay.as_nanos();
    assert_eq!(far - near, extra, "exactly one extra hop");
}

#[test]
fn csma_cd_backoff_resolves_heavy_contention() {
    // 10 stations, simultaneous bursts: everything must eventually get
    // through with a plausible collision count, and the medium must have
    // been serialized (total time >= total wire time).
    let cfg = SimConfig {
        fabric: FabricKind::SharedBus,
        ..no_jitter()
    };
    let mut sim = Sim::new(cfg, 77);
    let hosts = topology::shared_bus(&mut sim, 11);
    let log = Rc::new(RefCell::new(Vec::new()));
    for &h in &hosts[1..] {
        sim.spawn(
            h,
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(hosts[0], PORT),
                sizes: vec![1_000; 30],
            }),
        );
    }
    sim.spawn(hosts[0], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    // CSMA/CD may legitimately drop a frame after 16 failed attempts
    // under heavy contention; everything else must arrive.
    let delivered = log.borrow().len() as u64;
    assert_eq!(
        delivered + sim.trace().drops(DropCause::ExcessiveCollisions),
        300,
        "every frame is delivered or dropped after 16 collisions"
    );
    assert!(delivered >= 290, "excessive-collision drops must stay rare");
    assert!(sim.trace().collisions > 10, "contention must collide");
    let wire = Duration::transmission(1_066 * 300, 100_000_000);
    assert!(
        sim.now().as_nanos() > wire.as_nanos(),
        "shared medium serializes all traffic"
    );
}

#[test]
fn csma_cd_uncontended_station_transmits_immediately() {
    let cfg = SimConfig {
        fabric: FabricKind::SharedBus,
        ..no_jitter()
    };
    let mut sim = Sim::new(cfg, 1);
    let hosts = topology::shared_bus(&mut sim, 2);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![1_000; 5],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert_eq!(log.borrow().len(), 5);
    assert_eq!(sim.trace().collisions, 0, "no contention, no collisions");
}

#[test]
fn multicast_on_two_switch_cluster_costs_one_wire_per_segment() {
    // A multicast frame crosses each link once: total wire bytes must be
    // (number of links carrying it) x frame size, not receivers x frame.
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::two_switch_cluster(&mut sim, 31);
    let group = sim.create_group(&hosts[1..]);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::group(group, PORT),
            sizes: vec![1_000],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();
    assert_eq!(log.borrow().len(), 30);
    // Links carrying the frame: sender uplink + 15 receiver downlinks on
    // sw0 + inter-switch + 15 downlinks on sw1 = 32 serializations.
    let wire = sim.trace().wire_bytes_sent;
    assert_eq!(wire, 1_066 * 32, "multicast duplicates only at switches");
}

#[test]
fn unicast_conservation_under_random_loss() {
    // sent == delivered + wire-drops + reassembly-timeouts (eventually).
    let mut sim = Sim::new(no_jitter(), 9);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(netsim::FaultPlan::default().with_frame_loss(0.05));
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![4_000; 100],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    let t = sim.trace();
    let delivered = log.borrow().len() as u64;
    assert_eq!(
        delivered + t.drops(DropCause::ReassemblyTimeout),
        100,
        "every datagram is delivered or timed out in reassembly \
         (frame drops only ever kill whole datagrams through reassembly)"
    );
    assert!(t.drops(DropCause::WireFault) > 0);
}

#[test]
fn zero_length_datagrams_flow() {
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![0, 0, 0],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    let log = log.borrow();
    assert_eq!(log.len(), 3);
    assert!(log.iter().all(|&(_, _, len)| len == 0));
}

#[test]
fn max_size_datagram_fragments_and_reassembles() {
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = Rc::new(RefCell::new(Vec::new()));
    let max = netsim::frame::MAX_DATAGRAM;
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![max],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert_eq!(log.borrow()[0].2, max);
    assert_eq!(sim.trace().frames_sent, 45);
}

#[test]
fn heterogeneous_host_params_slow_one_receiver() {
    // Two identical transfers; in the second, the receiver's CPU is 10x
    // slower. Its delivery completes later, everything else equal.
    fn run(slow: bool) -> u64 {
        let mut sim = Sim::new(no_jitter(), 1);
        let hosts = topology::single_switch(&mut sim, 2);
        if slow {
            let mut p = sim.config().host;
            p.recv_syscall = p.recv_syscall * 10;
            p.recv_per_byte_ns *= 10;
            sim.set_host_params(hosts[1], p);
        }
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(hosts[1], PORT),
                sizes: vec![10_000; 5],
            }),
        );
        sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
        sim.run();
        assert_eq!(log.borrow().len(), 5);
        let t = log.borrow().last().unwrap().0.as_nanos();
        t
    }
    let fast = run(false);
    let slow = run(true);
    assert!(
        slow > fast + 1_000_000,
        "a 10x slower receiver CPU must be visibly slower: {fast} vs {slow}"
    );
}

#[test]
fn frame_duplication_produces_duplicate_datagrams() {
    // 100% duplication of single-fragment datagrams: the host reassembles
    // the first copy, then sees a fully-duplicate fragment train -- which
    // it treats as a fresh (complete) datagram with the same IP id and
    // delivers again. Protocols de-duplicate at the transfer layer; the
    // fabric's job is only to not lose anything.
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(netsim::FaultPlan::default().with_frame_dup(1.0));
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![500; 5],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert!(
        log.borrow().len() >= 5,
        "nothing may be lost under duplication"
    );
}

#[test]
fn jumbo_frames_reduce_framing_overhead() {
    fn wire_bytes(mtu: usize) -> u64 {
        let mut cfg = no_jitter();
        cfg.link.mtu = mtu;
        let mut sim = Sim::new(cfg, 1);
        let hosts = topology::single_switch(&mut sim, 2);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Blast {
                dest: UdpDest::host(hosts[1], PORT),
                sizes: vec![60_000; 5],
            }),
        );
        sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
        sim.run();
        assert_eq!(log.borrow().len(), 5, "mtu {mtu}");
        sim.trace().wire_bytes_sent
    }
    let standard = wire_bytes(1_500);
    let jumbo = wire_bytes(9_000);
    assert!(
        jumbo < standard,
        "jumbo frames must cut per-fragment overhead: {jumbo} vs {standard}"
    );
    // 60 kB at 1500: 41 fragments of ~66 B overhead each; at 9000: 7.
    assert!(standard - jumbo > 2 * 5 * (41 - 7) * 40);
}

#[test]
fn tiny_mtu_fragments_heavily_and_still_works() {
    let mut cfg = no_jitter();
    cfg.link.mtu = 576; // the classic minimum-reassembly MTU
    let mut sim = Sim::new(cfg, 1);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![65_507],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert_eq!(log.borrow().len(), 1);
    assert_eq!(log.borrow()[0].2, 65_507);
    // 65507 / 548 = 120 fragments.
    assert_eq!(sim.trace().frames_sent, 120);
}

#[test]
fn slow_uplink_paces_one_host() {
    // Host 1's uplink at 10 Mbit/s: the same blast takes ~10x longer to
    // reach host 0 from h1 than from h2 (100 Mbit/s).
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 3);
    let mut slow = *sim.config();
    slow.link.rate_bps = 10_000_000;
    sim.set_link_params(hosts[1], slow.link);

    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[1],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[0], PORT),
            sizes: vec![50_000],
        }),
    );
    sim.spawn(
        hosts[2],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[0], PORT),
            sizes: vec![50_000],
        }),
    );
    sim.spawn(hosts[0], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    let log = log.borrow();
    assert_eq!(log.len(), 2);
    // Deliveries carry (time, receiving host, len); identify by order:
    // the fast host's datagram lands far earlier.
    let mut times: Vec<u64> = log.iter().map(|&(t, _, _)| t.as_nanos()).collect();
    times.sort();
    assert!(
        times[1] > times[0] * 5,
        "slow uplink must dominate: {times:?}"
    );
}

#[test]
fn slow_trunk_bottlenecks_cross_switch_traffic() {
    // Degrade the inter-switch trunk to 10 Mbit/s: multicast to receivers
    // behind the trunk crawls while same-switch receivers are unaffected.
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::two_switch_cluster(&mut sim, 18);
    let mut trunk = sim.config().link;
    trunk.rate_bps = 10_000_000;
    sim.set_trunk_params(netsim::SwitchId(0), netsim::SwitchId(1), trunk);

    let group = sim.create_group(&hosts[1..]);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::group(group, PORT),
            sizes: vec![50_000],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    let log = log.borrow();
    assert_eq!(log.len(), 17);
    let near_max = log
        .iter()
        .filter(|&&(_, h, _)| h.0 < 16)
        .map(|&(t, _, _)| t.as_nanos())
        .max()
        .unwrap();
    let far_min = log
        .iter()
        .filter(|&&(_, h, _)| h.0 >= 16)
        .map(|&(t, _, _)| t.as_nanos())
        .min()
        .unwrap();
    assert!(
        far_min > near_max + 20_000_000,
        "10 Mbit/s trunk must delay the far side by tens of ms: near={near_max} far={far_min}"
    );
}

#[test]
#[should_panic(expected = "not directly cabled")]
fn trunk_override_requires_cable() {
    let mut sim = Sim::new(no_jitter(), 1);
    let _ = topology::single_switch(&mut sim, 2);
    let sw2 = sim.add_switch();
    sim.set_trunk_params(netsim::SwitchId(0), sw2, sim.config().link);
}

#[test]
fn three_switch_chain_routes_unicast_and_multicast() {
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::switch_chain(&mut sim, 9, 3);
    let group = sim.create_group(&hosts[1..]);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::group(group, PORT),
            sizes: vec![5_000; 3],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();
    assert_eq!(log.borrow().len(), 24, "3 datagrams x 8 receivers");
    assert!(sim.trace().clean());
}

#[test]
fn star_of_switches_routes_across_leaves() {
    let mut sim = Sim::new(no_jitter(), 2);
    let hosts = topology::star_of_switches(&mut sim, 12, 4);
    let log = Rc::new(RefCell::new(Vec::new()));
    // Unicast from a host on leaf 0 to one on leaf 3 crosses core.
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[3], PORT),
            sizes: vec![2_000; 5],
        }),
    );
    sim.spawn(hosts[3], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert_eq!(log.borrow().len(), 5);
}

// ---------------------------------------------------------------------
// Multicast fan-out (precomputed per switch and group) and the hosts'
// small tables.
// ---------------------------------------------------------------------

type HostLog = Rc<RefCell<Vec<HostId>>>;

/// Logs which host each datagram reached, in delivery order.
struct Member {
    log: HostLog,
}
impl Process for Member {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _dg: DatagramIn) {
        self.log.borrow_mut().push(ctx.host());
    }
}

/// A group member that also multicasts one 3-fragment datagram to `dest`
/// at start and at each instant in `later`, so the test can re-point it
/// between `run_until` calls.
struct Caster {
    dest: Rc<std::cell::Cell<UdpDest>>,
    later: Vec<Time>,
    log: HostLog,
}
impl Caster {
    fn cast(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.dest.get(), Bytes::from(vec![1u8; 3_000]));
        if !self.later.is_empty() {
            ctx.set_timer(self.later.remove(0));
        }
    }
}
impl Process for Caster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.cast(ctx);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        self.cast(ctx);
    }
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, _dg: DatagramIn) {
        self.log.borrow_mut().push(ctx.host());
    }
}

#[test]
fn multicast_leaves_each_switch_on_ascending_ports_and_never_turns_back() {
    for snooping in [false, true] {
        let mut cfg = no_jitter();
        cfg.switch.igmp_snooping = snooping;
        let mut sim = Sim::new(cfg, 1);
        // h0..h15 on ports 0..15 of sw0, the trunk on port 16, h16..h19 on
        // sw1 behind it.
        let mut hosts = topology::two_switch_cluster(&mut sim, 20);
        let log: HostLog = Rc::new(RefCell::new(Vec::new()));
        let ids = |v: &[usize]| v.iter().map(|&i| HostId(i)).collect::<Vec<_>>();
        // One datagram's deliveries and flooded-and-discarded frames.
        let phase = |sim: &mut Sim, until_ms: u64| {
            let before = sim.trace().frames_filtered;
            sim.run_until(Time::from_millis(until_ms));
            let reached = std::mem::take(&mut *log.borrow_mut());
            (reached, sim.trace().frames_filtered - before)
        };
        // Every cabled host but the sender and the receivers discards the
        // three flooded frames; a snooping switch sends them nothing.
        let discarded = |cabled: u64, receivers: u64| {
            if snooping {
                0
            } else {
                3 * (cabled - 1 - receivers)
            }
        };

        // Members listed out of port order, the sender among them: its own
        // frames must not come back out of the port they arrived on.
        let a = sim.create_group(&ids(&[17, 3, 0, 16, 1, 5]));
        let dest = Rc::new(std::cell::Cell::new(UdpDest::group(a, PORT)));
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Caster {
                dest: Rc::clone(&dest),
                later: vec![Time::from_millis(10), Time::from_millis(20)],
                log: Rc::clone(&log),
            }),
        );
        for &h in &hosts[1..] {
            sim.spawn(h, PORT, Box::new(Member { log: log.clone() }));
        }
        // Near switch in port order first, the far one a hop later.
        assert_eq!(
            phase(&mut sim, 5),
            (ids(&[1, 3, 5, 16, 17]), discarded(20, 5))
        );

        // A group created after the routes were finalized.
        let b = sim.create_group(&ids(&[18, 0, 4, 2]));
        dest.set(UdpDest::group(b, PORT));
        assert_eq!(phase(&mut sim, 15), (ids(&[2, 4, 18]), discarded(20, 3)));

        // A host cabled to the finished topology: port 17 of sw0, past the
        // trunk, so it hears in the same instant as its switch-mates and
        // after them.
        let late = sim.add_host();
        sim.connect_host(late, netsim::SwitchId(0));
        hosts.push(late);
        sim.spawn(late, PORT, Box::new(Member { log: log.clone() }));
        let c = sim.create_group(&ids(&[19, 20, 0, 7]));
        dest.set(UdpDest::group(c, PORT));
        assert_eq!(phase(&mut sim, 25), (ids(&[7, 20, 19]), discarded(21, 3)));
        assert!(sim.trace().clean(), "snooping={snooping}");
    }
}

/// Records who sent each datagram and its bytes.
struct ByteSink {
    log: Rc<RefCell<Vec<(HostId, Bytes)>>>,
}
impl Process for ByteSink {
    fn on_datagram(&mut self, _ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.log.borrow_mut().push((dg.src_host, dg.payload));
    }
}

struct Fill {
    dest: UdpDest,
    byte: u8,
    len: usize,
}
impl Process for Fill {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send(self.dest, Bytes::from(vec![self.byte; self.len]));
    }
}

#[test]
fn interleaved_reassemblies_from_two_sources_do_not_alias() {
    // Two 14- and 21-fragment datagrams leave at the same instant and
    // share the receiver's switch port frame by frame.
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 3);
    let log = Rc::new(RefCell::new(Vec::new()));
    for (i, (byte, len)) in [(0xa1, 20_000), (0xb2, 30_000)].into_iter().enumerate() {
        let dest = UdpDest::host(hosts[2], PORT);
        sim.spawn(hosts[i], PORT, Box::new(Fill { dest, byte, len }));
    }
    sim.spawn(hosts[2], PORT, Box::new(ByteSink { log: log.clone() }));
    sim.run();
    assert_eq!(
        *log.borrow(),
        [
            (hosts[0], Bytes::from(vec![0xa1; 20_000])),
            (hosts[1], Bytes::from(vec![0xb2; 30_000])),
        ]
    );
    assert!(sim.trace().clean());
}

#[test]
fn wide_datagram_missing_fragments_expires_when_it_always_did() {
    // 120 fragments (more than one bitmap word) at the minimum MTU, a few
    // of them lost while the receiver's link is down for 200 us.
    let mut cfg = no_jitter();
    cfg.link.mtu = 576;
    let mut sim = Sim::new(cfg, 1);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(netsim::FaultPlan::default().with_link_down(
        hosts[1],
        Time::from_micros(2_000),
        Time::from_micros(2_200),
    ));
    let sink = rmtrace::MemorySink::new();
    sim.set_trace_sink(Box::new(sink.clone()));
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![65_507],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();
    assert!(
        log.borrow().is_empty(),
        "an incomplete datagram is not delivered"
    );
    assert!(
        sim.trace().drops(DropCause::LinkDown) > 0 && sim.trace().drops(DropCause::LinkDown) < 10
    );
    assert_eq!(sim.trace().drops(DropCause::ReassemblyTimeout), 1);
    let expiries: Vec<u64> = sink
        .take()
        .iter()
        .filter(|r| {
            matches!(
                r.ev,
                rmtrace::TraceEvent::Drop {
                    cause: DropCause::ReassemblyTimeout
                }
            )
        })
        .map(|r| r.t_ns)
        .collect();
    // First fragment's arrival plus the reassembly timeout: the instant
    // recorded before the bitmap and the context table changed type.
    assert_eq!(expiries, [501_143_310]);
}

/// One multicast datagram of `mcast` bytes from host 0 to hosts 1–5 while
/// host 6 sends `ucast` bytes to host 3 alone, so host 3's downlink is
/// busy with the unicast when the multicast reaches the switch. Returns
/// every delivery callback as `(ns, host, bytes)`, in callback order.
fn fan_out_past_a_busy_downlink(
    cfg: SimConfig,
    plan: netsim::FaultPlan,
    (mcast, ucast): (usize, usize),
) -> Vec<(u64, usize, usize)> {
    let mut sim = Sim::new(cfg, 5);
    let hosts = topology::single_switch(&mut sim, 7);
    if !plan.is_empty() {
        sim.set_fault_plan(plan);
    }
    let group = sim.create_group(&hosts[1..6]);
    let log = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blast {
            dest: UdpDest::group(group, PORT),
            sizes: vec![mcast],
        }),
    );
    sim.spawn(
        hosts[6],
        PORT,
        Box::new(Blast {
            dest: UdpDest::host(hosts[3], PORT),
            sizes: vec![ucast],
        }),
    );
    for &h in &hosts[1..6] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();
    let log = log.borrow();
    log.iter()
        .map(|&(t, h, len)| (t.as_nanos(), h.0, len))
        .collect()
}

/// The queue folds a same-instant fan-out into one entry and must split
/// the run wherever a copy differs. These pin what a process can see of
/// that — when each host's callback runs and in which order — to values
/// recorded before the queue folded anything.
#[test]
fn fan_out_meeting_a_busy_downlink_is_late_at_exactly_that_host() {
    let log =
        fan_out_past_a_busy_downlink(no_jitter(), netsim::FaultPlan::default(), (3_100, 3_000));
    assert_eq!(
        log,
        [
            (536_880, 1, 3_100),
            (536_880, 2, 3_100),
            (536_880, 4, 3_100),
            (536_880, 5, 3_100),
            (772_960, 3, 3_000),
            (852_960, 3, 3_100),
        ]
    );
}

#[test]
fn duplicated_fan_out_copies_each_arrive_at_their_own_instant() {
    let plan = netsim::FaultPlan::default().with_frame_dup(1.0);
    // One fragment each, so every copy is a delivery of its own.
    let log = fan_out_past_a_busy_downlink(no_jitter(), plan, (1_100, 1_000));
    // Two copies per hop, two hops: four deliveries of each datagram per
    // host, a microsecond apart on the wire and a frame time apart once
    // the downlink has serialized them.
    let mut expect = Vec::new();
    for (at, at_3) in [
        (284_560, 266_560),
        (338_560, 319_560),
        (392_560, 372_560),
        (446_560, 425_560),
    ] {
        expect.push((at_3, 3, 1_000));
        expect.extend([1, 2, 4, 5].map(|h| (at, h, 1_100)));
    }
    expect.extend([479_560, 533_560, 587_560, 641_560].map(|at| (at, 3, 1_100)));
    assert_eq!(log, expect);
}

#[test]
fn reordered_fan_out_copies_each_arrive_at_their_own_instant() {
    // Half the copies are held back 40 us: the fan-out's run is broken
    // wherever the draw falls, on the uplinks as well as the downlinks.
    let plan = netsim::FaultPlan::default().with_reorder(0.5, Duration::from_micros(40));
    let log = fan_out_past_a_busy_downlink(no_jitter(), plan, (3_100, 3_000));
    assert_eq!(
        log,
        [
            (576_880, 2, 3_100),
            (599_120, 5, 3_100),
            (616_880, 1, 3_100),
            (616_880, 4, 3_100),
            (852_960, 3, 3_000),
            (932_960, 3, 3_100),
        ]
    );
}
