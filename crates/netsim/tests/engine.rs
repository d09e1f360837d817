//! End-to-end tests of the simulation engine: delivery, timing,
//! determinism, loss mechanisms and both fabrics.

use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{topology, DropCause, FabricKind, FaultPlan, HostId, Sim, SimConfig, UdpDest};
use rmwire::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;

const PORT: u16 = 7000;

/// Shared log of (time, host, payload-length) deliveries.
type Log = Rc<RefCell<Vec<(Time, HostId, usize)>>>;

/// Sends a fixed schedule of datagrams at start.
struct Blaster {
    dest: UdpDest,
    sizes: Vec<usize>,
}

impl Process for Blaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for &s in &self.sizes {
            ctx.send(self.dest, Bytes::from(vec![0xabu8; s]));
        }
    }
}

/// Records deliveries into a shared log.
struct Sink {
    log: Log,
}

impl Process for Sink {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.log
            .borrow_mut()
            .push((ctx.now(), ctx.host(), dg.payload.len()));
    }
}

fn new_log() -> Log {
    Rc::new(RefCell::new(Vec::new()))
}

fn no_jitter() -> SimConfig {
    let mut cfg = SimConfig::default();
    cfg.host.cpu_jitter = 0.0;
    cfg
}

#[test]
fn unicast_delivers_across_one_switch() {
    let mut sim = Sim::new(no_jitter(), 7);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![100, 2000, 50_000],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    let log = log.borrow();
    assert_eq!(log.len(), 3);
    assert_eq!(log[0].2, 100);
    assert_eq!(log[1].2, 2000);
    assert_eq!(log[2].2, 50_000);
    // In-order delivery on one path.
    assert!(log[0].0 < log[1].0 && log[1].0 < log[2].0);
    assert!(sim.trace().clean());
    assert_eq!(sim.trace().datagrams_sent, 3);
    assert_eq!(sim.trace().datagrams_delivered, 3);
}

#[test]
fn unicast_latency_matches_hand_computation() {
    // One 100-byte datagram, no jitter: the delivery timestamp must equal
    // send costs + serialization + propagation + switch latency +
    // store-and-forward + receive costs.
    let mut cfg = no_jitter();
    cfg.host.send_syscall = Duration::from_micros(10);
    cfg.host.send_per_fragment = Duration::from_micros(2);
    cfg.host.send_per_byte_ns = 10;
    cfg.host.recv_syscall = Duration::from_micros(8);
    cfg.host.recv_per_fragment = Duration::from_micros(2);
    cfg.host.recv_per_byte_ns = 10;

    let mut sim = Sim::new(cfg, 1);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![100],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    // Send CPU: 10us + 2us + 100*10ns = 13us.
    let send_cpu = 13_000u64;
    // Frame: 100 + 28 + 18 = 146 bytes queue size, 166 wire bytes
    // = 13.28us at 100 Mbit/s.
    let tx = 13_280u64;
    let prop = 1_000u64;
    let sw_latency = 10_000u64;
    // Receive CPU charged when the process reads it: 8us + 2us + 1us = 11us.
    let recv_cpu = 11_000u64;
    let expect = send_cpu + tx + prop + sw_latency + tx + prop + recv_cpu;

    let log = log.borrow();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].0.as_nanos(), expect);
}

#[test]
fn multicast_floods_and_charges_nonmembers() {
    // 5 hosts; group = {1, 2}; host 0 multicasts. Hosts 3 and 4 see the
    // flooded frame and pay the filter cost but deliver nothing.
    let mut sim = Sim::new(no_jitter(), 3);
    let hosts = topology::single_switch(&mut sim, 5);
    let group = sim.create_group(&[hosts[1], hosts[2]]);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::group(group, PORT),
            sizes: vec![500],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    let log = log.borrow();
    let mut got: Vec<_> = log.iter().map(|&(_, h, _)| h).collect();
    got.sort();
    assert_eq!(got, vec![hosts[1], hosts[2]]);
    // Two non-members filtered one frame each.
    assert_eq!(sim.trace().frames_filtered, 2);
    // Flooding delivered the frame to all 4 receivers' NICs.
    assert_eq!(sim.trace().frames_received, 4);
}

#[test]
fn igmp_snooping_suppresses_flooding() {
    let mut cfg = no_jitter();
    cfg.switch.igmp_snooping = true;
    let mut sim = Sim::new(cfg, 3);
    let hosts = topology::single_switch(&mut sim, 5);
    let group = sim.create_group(&[hosts[1], hosts[2]]);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::group(group, PORT),
            sizes: vec![500],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    assert_eq!(log.borrow().len(), 2);
    assert_eq!(sim.trace().frames_filtered, 0);
    assert_eq!(sim.trace().frames_received, 2);
}

#[test]
fn multicast_spans_cascaded_switches() {
    let mut sim = Sim::new(no_jitter(), 9);
    let hosts = topology::two_switch_cluster(&mut sim, 31);
    let group = sim.create_group(&hosts[1..]);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::group(group, PORT),
            sizes: vec![10_000],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    assert_eq!(log.borrow().len(), 30);
    assert!(sim.trace().clean());
    // Receivers behind the second switch hear it strictly later than the
    // first receiver on the sender's switch.
    let log = log.borrow();
    let t_near = log
        .iter()
        .filter(|&&(_, h, _)| h.0 < 16)
        .map(|&(t, _, _)| t)
        .min()
        .unwrap();
    let t_far = log
        .iter()
        .filter(|&&(_, h, _)| h.0 >= 16)
        .map(|&(t, _, _)| t)
        .min()
        .unwrap();
    assert!(t_near < t_far);
}

#[test]
fn frame_loss_kills_whole_datagram() {
    // With 100% frame loss nothing arrives; with loss of any fragment the
    // datagram never completes reassembly.
    let mut sim = Sim::new(no_jitter(), 5);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(FaultPlan::default().with_frame_loss(1.0));
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![10_000],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    assert!(log.borrow().is_empty());
    assert!(sim.trace().drops(DropCause::WireFault) > 0);
    assert_eq!(sim.trace().datagrams_delivered, 0);
}

#[test]
fn partial_fragment_loss_drops_datagram_via_reassembly_timeout() {
    let mut sim = Sim::new(no_jitter(), 11);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(FaultPlan::default().with_frame_loss(0.3));
    let log = new_log();
    // 40 datagrams of 10 KB = 7 fragments each; with 30% frame loss almost
    // every datagram loses at least one fragment.
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![10_000; 40],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    let delivered = log.borrow().len() as u64;
    assert_eq!(
        delivered + sim.trace().drops(DropCause::ReassemblyTimeout),
        40,
        "every datagram either completes or times out"
    );
    assert!(sim.trace().drops(DropCause::ReassemblyTimeout) > 0);
}

#[test]
fn socket_buffer_overflow_drops_datagrams() {
    // A slow receiver (huge per-datagram CPU cost) with a tiny socket
    // buffer must shed load.
    let mut cfg = no_jitter();
    cfg.host.recv_sockbuf = 4 * 1024;
    cfg.host.recv_syscall = Duration::from_millis(5);
    let mut sim = Sim::new(cfg, 2);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![1_000; 100],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    assert!(
        sim.trace().drops(DropCause::SockBufFull) > 0,
        "expected sockbuf drops"
    );
    assert_eq!(
        log.borrow().len() as u64 + sim.trace().drops(DropCause::SockBufFull),
        100,
        "each datagram is either delivered or dropped at the socket"
    );
}

#[test]
fn identical_seeds_are_bit_identical_and_different_seeds_diverge() {
    fn run(seed: u64) -> (u64, Vec<(Time, HostId, usize)>) {
        let mut sim = Sim::new(SimConfig::default(), seed);
        let hosts = topology::two_switch_cluster(&mut sim, 20);
        let group = sim.create_group(&hosts[1..]);
        let log = new_log();
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Blaster {
                dest: UdpDest::group(group, PORT),
                sizes: vec![3_000; 10],
            }),
        );
        for &h in &hosts[1..] {
            sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
        }
        sim.run();
        let out = log.borrow().clone();
        (sim.now().as_nanos(), out)
    }

    let a = run(1234);
    let b = run(1234);
    let c = run(9999);
    assert_eq!(a, b, "same seed must reproduce exactly");
    assert_ne!(
        a.1, c.1,
        "different seeds should change CPU jitter and thus timestamps"
    );
}

#[test]
fn timers_fire_and_rearm() {
    struct Ticker {
        interval: rmwire::Duration,
        fired: Rc<RefCell<Vec<Time>>>,
    }
    impl Process for Ticker {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let at = ctx.now() + self.interval;
            ctx.set_timer(at);
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
            self.fired.borrow_mut().push(ctx.now());
            if self.fired.borrow().len() < 3 {
                let at = ctx.now() + self.interval;
                ctx.set_timer(at);
            }
        }
    }

    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 1);
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Ticker {
            interval: Duration::from_millis(10),
            fired: fired.clone(),
        }),
    );
    sim.run();

    let fired = fired.borrow();
    assert_eq!(fired.len(), 3);
    assert_eq!(fired[0].as_nanos(), 10_000_000);
    assert_eq!(fired[1].as_nanos(), 20_000_000);
    assert_eq!(fired[2].as_nanos(), 30_000_000);
}

#[test]
fn cleared_timers_do_not_fire() {
    struct SetThenClear;
    impl Process for SetThenClear {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            let at = ctx.now() + Duration::from_millis(5);
            ctx.set_timer(at);
            ctx.clear_timer();
        }
        fn on_timer(&mut self, _ctx: &mut Ctx<'_>) {
            panic!("cleared timer fired");
        }
    }

    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 1);
    sim.spawn(hosts[0], PORT, Box::new(SetThenClear));
    sim.run();
}

#[test]
fn rearming_replaces_previous_deadline() {
    struct Rearm {
        fired: Rc<RefCell<Vec<Time>>>,
    }
    impl Process for Rearm {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(ctx.now() + Duration::from_millis(5));
            // Replace with a later deadline; only the later one may fire.
            ctx.set_timer(ctx.now() + Duration::from_millis(20));
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
            self.fired.borrow_mut().push(ctx.now());
        }
    }

    let fired = Rc::new(RefCell::new(Vec::new()));
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 1);
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Rearm {
            fired: fired.clone(),
        }),
    );
    sim.run();

    let fired = fired.borrow();
    assert_eq!(fired.len(), 1);
    assert_eq!(fired[0].as_nanos(), 20_000_000);
}

#[test]
fn shared_bus_delivers_and_collides() {
    let cfg = SimConfig {
        fabric: FabricKind::SharedBus,
        ..no_jitter()
    };
    let mut sim = Sim::new(cfg, 17);
    let hosts = topology::shared_bus(&mut sim, 4);
    let log = new_log();
    // Three hosts blast at host 0 simultaneously: contention guaranteed.
    for &h in &hosts[1..] {
        sim.spawn(
            h,
            PORT,
            Box::new(Blaster {
                dest: UdpDest::host(hosts[0], PORT),
                sizes: vec![1_000; 20],
            }),
        );
    }
    sim.spawn(hosts[0], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    assert_eq!(log.borrow().len(), 60, "CSMA/CD must remain reliable");
    assert!(
        sim.trace().collisions > 0,
        "contention must cause collisions"
    );
}

#[test]
fn shared_bus_multicast_reaches_all_members() {
    let cfg = SimConfig {
        fabric: FabricKind::SharedBus,
        ..no_jitter()
    };
    let mut sim = Sim::new(cfg, 21);
    let hosts = topology::shared_bus(&mut sim, 5);
    let group = sim.create_group(&hosts[1..]);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::group(group, PORT),
            sizes: vec![2_000; 3],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(h, PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    assert_eq!(log.borrow().len(), 12);
}

#[test]
fn blocking_send_paces_a_blast_at_wire_speed() {
    // 2 MB blasted as 1472-byte datagrams through a 128 KiB send buffer:
    // the sender must finish no earlier than the wire can carry it.
    let mut sim = Sim::new(no_jitter(), 4);
    let hosts = topology::single_switch(&mut sim, 2);
    let n = 1400usize;
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![1_472; n],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run();

    assert_eq!(log.borrow().len(), n);
    let wire_time = Duration::transmission(1538 * n, 100_000_000);
    assert!(
        sim.now().as_nanos() >= wire_time.as_nanos(),
        "finished faster than the wire allows: {} < {}",
        sim.now(),
        Time::ZERO + wire_time
    );
}

#[test]
fn run_until_respects_deadline() {
    let mut sim = Sim::new(no_jitter(), 1);
    let hosts = topology::single_switch(&mut sim, 2);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![100; 5],
        }),
    );
    sim.spawn(hosts[1], PORT, Box::new(Sink { log: log.clone() }));
    sim.run_until(Time::from_nanos(1));
    assert!(sim.now() <= Time::from_nanos(1));
    sim.run();
    assert_eq!(log.borrow().len(), 5);
}

#[test]
fn every_counted_drop_reaches_the_trace_sink() {
    // Two senders on sw0 multicast across the trunk to hosts on both
    // switches, under a plan that reaches every drop cause a switched
    // fabric has (CSMA/CD collisions need the bus).
    let mut cfg = no_jitter();
    cfg.switch.queue_bytes = 6_000;
    let mut sim = Sim::new(cfg, 21);
    let hosts = topology::switch_chain(&mut sim, 6, 2);
    let ms = Time::from_millis;
    sim.set_fault_plan(
        FaultPlan::default()
            .with_frame_loss(0.02)
            .with_datagram_loss(0.02)
            .with_burst(0.02, 3.0)
            .with_corrupt(0.01)
            .with_link_down(hosts[3], ms(2), ms(3))
            .with_trunk_down(ms(4), ms(5))
            .with_sockbuf_exhaust(hosts[4], ms(1), ms(6))
            .with_crash(hosts[5], ms(7)),
    );
    let sink = rmtrace::MemorySink::new();
    sim.set_trace_sink(Box::new(sink.clone()));
    let group = sim.create_group(&[hosts[1], hosts[3], hosts[4], hosts[5]]);
    for s in [0, 2] {
        let dest = UdpDest::group(group, PORT);
        let sizes = vec![4_000; 30];
        sim.spawn(hosts[s], PORT, Box::new(Blaster { dest, sizes }));
    }
    let log = new_log();
    for r in [1, 3, 4, 5] {
        sim.spawn(hosts[r], PORT, Box::new(Sink { log: log.clone() }));
    }
    sim.run();

    let records = sink.take();
    assert!(records.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    let drops: Vec<DropCause> = records
        .iter()
        .filter_map(|r| match r.ev {
            rmtrace::TraceEvent::Drop { cause } => Some(cause),
            _ => None,
        })
        .collect();
    let t = sim.trace();
    assert_eq!(drops.len() as u64, t.total_drops());
    for cause in [
        DropCause::WireFault,
        DropCause::SwitchQueueFull,
        DropCause::SockBufFull,
        DropCause::ReassemblyTimeout,
        DropCause::DatagramFault,
        DropCause::LinkDown,
        DropCause::BurstLoss,
        DropCause::Corrupt,
        DropCause::HostDown,
        DropCause::TrunkDown,
    ] {
        let bridged = drops.iter().filter(|&&c| c == cause).count() as u64;
        assert_eq!(bridged, t.drops(cause), "{cause:?}");
        assert!(bridged > 0, "the plan never reached {cause:?}");
    }
    assert_eq!(t.datagrams_sent, 60);
    assert_eq!(t.datagrams_delivered, log.borrow().len() as u64);
}
