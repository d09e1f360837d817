//! Fault-plan behaviors: link outages, burst loss, corruption,
//! reordering, host crash/pause — and the guarantee that an empty plan
//! changes nothing.

use bytes::Bytes;
use netsim::process::{Ctx, DatagramIn, Process};
use netsim::{topology, DropCause, FaultPlan, HostId, Sim, SimConfig, UdpDest};
use rmwire::{Duration, Time};
use std::cell::RefCell;
use std::rc::Rc;

const PORT: u16 = 7000;

type Log = Rc<RefCell<Vec<(Time, HostId, usize)>>>;

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

/// One blaster firing `n` 500-byte datagrams at a sink, with `plan`
/// installed. Returns (deliveries, sim) for inspection.
fn blast_run(plan: FaultPlan, cfg: SimConfig, n: usize, seed: u64) -> (Log, Sim) {
    let mut sim = Sim::new(cfg, seed);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(plan);
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![500; n],
        }),
    );
    sim.spawn(
        hosts[1],
        PORT,
        Box::new(Sink {
            log: Rc::clone(&log),
        }),
    );
    sim.run_until(Time::from_millis(5_000));
    (log, sim)
}

#[test]
fn empty_plan_changes_nothing() {
    // A seeded run whose CPU jitter draws randomness must be
    // bit-identical whether the (empty) fault plan was installed or not:
    // the plan may not draw randomness or perturb event ordering unless a
    // knob is enabled.
    let run = |install_plan: bool, seed: u64| {
        let mut sim = Sim::new(SimConfig::default(), seed);
        let hosts = topology::single_switch(&mut sim, 2);
        if install_plan {
            sim.set_fault_plan(FaultPlan::default());
        }
        let log = new_log();
        sim.spawn(
            hosts[0],
            PORT,
            Box::new(Blaster {
                dest: UdpDest::host(hosts[1], PORT),
                sizes: vec![900; 200],
            }),
        );
        sim.spawn(
            hosts[1],
            PORT,
            Box::new(Sink {
                log: Rc::clone(&log),
            }),
        );
        sim.run_until(Time::from_millis(5_000));
        let deliveries = log.borrow().clone();
        (deliveries, sim.trace().clone())
    };
    let (log_a, trace_a) = run(false, 99);
    let (log_b, trace_b) = run(true, 99);
    assert_eq!(log_a, log_b, "empty plan perturbed deliveries");
    assert_eq!(trace_a, trace_b, "empty plan perturbed counters");
    assert_ne!(run(true, 98).0, log_a, "the run draws no randomness");
}

#[test]
fn link_down_window_blackholes_the_edge() {
    // The outage covers the whole run: nothing gets through.
    let plan =
        FaultPlan::default().with_link_down(HostId(1), Time::ZERO, Time::from_millis(100_000));
    let (log, sim) = blast_run(plan, SimConfig::default(), 20, 1);
    assert_eq!(log.borrow().len(), 0);
    assert_eq!(sim.trace().drops(DropCause::LinkDown), 20);

    // The same outage scheduled after the run is a no-op.
    let plan = FaultPlan::default().with_link_down(
        HostId(1),
        Time::from_millis(100_000),
        Time::from_millis(200_000),
    );
    let (log, sim) = blast_run(plan, SimConfig::default(), 20, 1);
    assert_eq!(log.borrow().len(), 20);
    assert_eq!(sim.trace().drops(DropCause::LinkDown), 0);
}

#[test]
fn per_link_loss_targets_only_its_edge() {
    // Total loss on an uninvolved host's link must not affect this flow.
    let plan = FaultPlan::default().with_link_loss(HostId(0), 1.0);
    let (log, sim) = blast_run(plan, SimConfig::default(), 15, 2);
    assert_eq!(log.borrow().len(), 0, "sender edge loss kills everything");
    assert!(sim.trace().drops(DropCause::WireFault) >= 15);

    let plan = FaultPlan::default().with_link_loss(HostId(1), 0.0);
    let (log, _) = blast_run(plan, SimConfig::default(), 15, 2);
    assert_eq!(log.borrow().len(), 15, "zero-probability loss is a no-op");
}

#[test]
fn burst_loss_drops_frames_in_bursts() {
    let plan = FaultPlan::default().with_burst(0.3, 8.0);
    let (log, sim) = blast_run(plan, SimConfig::default(), 300, 3);
    let delivered = log.borrow().len();
    assert!(
        sim.trace().drops(DropCause::BurstLoss) > 0,
        "burst channel never went bad"
    );
    assert!(
        delivered < 300 && delivered > 0,
        "expected partial delivery, got {delivered}"
    );
}

#[test]
fn corrupt_frames_are_discarded_at_the_nic() {
    let plan = FaultPlan::default().with_corrupt(1.0);
    let (log, sim) = blast_run(plan, SimConfig::default(), 10, 4);
    assert_eq!(log.borrow().len(), 0);
    assert!(sim.trace().drops(DropCause::Corrupt) >= 10);
}

#[test]
fn reordering_delays_but_never_loses() {
    let plan = FaultPlan::default().with_reorder(1.0, Duration::from_millis(1));
    let (log, sim) = blast_run(plan, SimConfig::default(), 25, 5);
    assert_eq!(log.borrow().len(), 25, "reordering must not lose frames");
    assert!(sim.trace().frames_reordered >= 25);
    assert_eq!(sim.trace().total_drops(), 0);
}

#[test]
fn crashed_host_goes_silent() {
    let plan = FaultPlan::default().with_crash(HostId(1), Time::ZERO);
    let (log, sim) = blast_run(plan, SimConfig::default(), 12, 6);
    assert_eq!(log.borrow().len(), 0, "a crashed host delivers nothing");
    assert!(sim.trace().drops(DropCause::HostDown) > 0);
}

#[test]
fn paused_host_delivers_late_but_completely() {
    let pause_end = Time::from_millis(50);
    let plan = FaultPlan::default().with_pause(HostId(1), Time::ZERO, pause_end);
    let (log, sim) = blast_run(plan, SimConfig::default(), 5, 7);
    let log = log.borrow();
    assert_eq!(log.len(), 5, "a paused host catches up after resuming");
    assert!(
        log.iter().all(|&(t, _, _)| t >= pause_end),
        "deliveries during the pause: {log:?}"
    );
    assert_eq!(sim.trace().total_drops(), 0);
}

#[test]
fn chaos_runs_are_deterministic() {
    let plan = FaultPlan::default()
        .with_burst(0.2, 4.0)
        .with_reorder(0.1, Duration::from_millis(1))
        .with_corrupt(0.02)
        .with_link_loss(HostId(1), 0.05);
    let (log_a, sim_a) = blast_run(plan.clone(), SimConfig::default(), 200, 11);
    let (log_b, sim_b) = blast_run(plan, SimConfig::default(), 200, 11);
    assert_eq!(*log_a.borrow(), *log_b.borrow());
    assert_eq!(sim_a.trace(), sim_b.trace());
}

/// A blaster that sends one datagram per `interval` tick instead of all
/// at start, so faults scheduled mid-run see live traffic.
struct PacedBlaster {
    dest: UdpDest,
    interval: Duration,
    remaining: usize,
}

impl Process for PacedBlaster {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let at = ctx.now() + self.interval;
        ctx.set_timer(at);
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_>) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        ctx.send(self.dest, Bytes::from(vec![0xcdu8; 400]));
        let at = ctx.now() + self.interval;
        ctx.set_timer(at);
    }
}

/// A sink that also counts `on_restart` callbacks.
struct RebootingSink {
    log: Log,
    restarts: Rc<RefCell<usize>>,
}

impl Process for RebootingSink {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.log
            .borrow_mut()
            .push((ctx.now(), ctx.host(), dg.payload.len()));
    }
    fn on_restart(&mut self, _ctx: &mut Ctx<'_>) {
        *self.restarts.borrow_mut() += 1;
    }
}

#[test]
fn trunk_down_partitions_but_leaves_local_traffic() {
    // h0 and h1 on sw0, h2 on sw1; h0 multicasts to {h1, h2}. With the
    // trunk severed for the whole run, the local member keeps receiving
    // while the remote one is cut off.
    let mut sim = Sim::new(SimConfig::default(), 21);
    let sw0 = sim.add_switch();
    let sw1 = sim.add_switch();
    let hosts: Vec<HostId> = (0..3).map(|_| sim.add_host()).collect();
    sim.connect_host(hosts[0], sw0);
    sim.connect_host(hosts[1], sw0);
    sim.connect_host(hosts[2], sw1);
    sim.connect_switches(sw0, sw1);
    let group = sim.create_group(&[hosts[1], hosts[2]]);
    sim.set_fault_plan(
        FaultPlan::default().with_trunk_down(Time::ZERO, Time::from_millis(100_000)),
    );
    let log = new_log();
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::group(group, PORT),
            sizes: vec![500; 10],
        }),
    );
    for &h in &hosts[1..] {
        sim.spawn(
            h,
            PORT,
            Box::new(Sink {
                log: Rc::clone(&log),
            }),
        );
    }
    sim.run_until(Time::from_millis(5_000));
    let log = log.borrow();
    assert_eq!(log.len(), 10, "local member must keep receiving");
    assert!(log.iter().all(|&(_, h, _)| h == hosts[1]));
    assert_eq!(sim.trace().drops(DropCause::TrunkDown), 10);
}

#[test]
fn trunk_heals_after_the_window() {
    // Paced traffic across the trunk with an outage in the middle: the
    // frames sent inside the window vanish, the rest arrive.
    let mut sim = Sim::new(SimConfig::default(), 22);
    let sw0 = sim.add_switch();
    let sw1 = sim.add_switch();
    let a = sim.add_host();
    let b = sim.add_host();
    sim.connect_host(a, sw0);
    sim.connect_host(b, sw1);
    sim.connect_switches(sw0, sw1);
    let window = (Time::from_millis(45), Time::from_millis(105));
    sim.set_fault_plan(FaultPlan::default().with_trunk_down(window.0, window.1));
    let log = new_log();
    sim.spawn(
        a,
        PORT,
        Box::new(PacedBlaster {
            dest: UdpDest::host(b, PORT),
            interval: Duration::from_millis(10),
            remaining: 20,
        }),
    );
    sim.spawn(
        b,
        PORT,
        Box::new(Sink {
            log: Rc::clone(&log),
        }),
    );
    sim.run_until(Time::from_millis(5_000));
    let log = log.borrow();
    let dropped = sim.trace().drops(DropCause::TrunkDown);
    assert!(dropped > 0, "no frame hit the outage window");
    assert_eq!(log.len() as u64 + dropped, 20);
    assert!(
        log.iter().all(|&(t, _, _)| t < window.0 || t >= window.1),
        "a delivery landed inside the outage: {log:?}"
    );
}

#[test]
fn crash_restart_reboots_the_host() {
    // The sink crashes mid-run and reboots: frames during the outage are
    // dropped at the dead NIC, on_restart fires once, and deliveries
    // resume after the reboot instant.
    let crash = Time::from_millis(45);
    let reboot = Time::from_millis(105);
    let plan = FaultPlan::default().with_crash_restart(HostId(1), crash, reboot);
    let mut sim = Sim::new(SimConfig::default(), 23);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(plan);
    let log = new_log();
    let restarts = Rc::new(RefCell::new(0));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(PacedBlaster {
            dest: UdpDest::host(hosts[1], PORT),
            interval: Duration::from_millis(10),
            remaining: 20,
        }),
    );
    sim.spawn(
        hosts[1],
        PORT,
        Box::new(RebootingSink {
            log: Rc::clone(&log),
            restarts: Rc::clone(&restarts),
        }),
    );
    sim.run_until(Time::from_millis(5_000));
    let log = log.borrow();
    assert_eq!(*restarts.borrow(), 1, "on_restart must fire exactly once");
    assert!(
        sim.trace().drops(DropCause::HostDown) > 0,
        "no frame hit the outage"
    );
    assert!(
        log.iter().any(|&(t, _, _)| t < crash),
        "no delivery before the crash"
    );
    assert!(
        log.iter().any(|&(t, _, _)| t >= reboot),
        "host never delivered after rebooting"
    );
    assert!(
        log.iter().all(|&(t, _, _)| t < crash || t >= reboot),
        "a delivery landed inside the crash window: {log:?}"
    );
}

#[test]
#[should_panic(expected = "unknown h9")]
fn fault_plan_validates_hosts() {
    let mut sim = Sim::new(SimConfig::default(), 1);
    topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(FaultPlan::default().with_crash(HostId(9), Time::ZERO));
}

// ---------------------------------------------------------------------
// Byzantine modes: corrupt-and-deliver, duplicate, replay, forge.
// ---------------------------------------------------------------------

type ByteLog = Rc<RefCell<Vec<(HostId, Vec<u8>)>>>;

/// A sink that records full payload bytes and the spoofable source.
struct ByteSink {
    log: ByteLog,
    srcs: Rc<RefCell<Vec<HostId>>>,
}

impl Process for ByteSink {
    fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
        self.log
            .borrow_mut()
            .push((ctx.host(), dg.payload.to_vec()));
        self.srcs.borrow_mut().push(dg.src_host);
    }
}

fn byte_run(plan: FaultPlan, n: usize, seed: u64) -> (ByteLog, Rc<RefCell<Vec<HostId>>>, Sim) {
    let mut sim = Sim::new(SimConfig::default(), seed);
    let hosts = topology::single_switch(&mut sim, 2);
    sim.set_fault_plan(plan);
    let log: ByteLog = Rc::new(RefCell::new(Vec::new()));
    let srcs = Rc::new(RefCell::new(Vec::new()));
    sim.spawn(
        hosts[0],
        PORT,
        Box::new(Blaster {
            dest: UdpDest::host(hosts[1], PORT),
            sizes: vec![500; n],
        }),
    );
    sim.spawn(
        hosts[1],
        PORT,
        Box::new(ByteSink {
            log: Rc::clone(&log),
            srcs: Rc::clone(&srcs),
        }),
    );
    sim.run_until(Time::from_millis(5_000));
    (log, srcs, sim)
}

#[test]
fn corrupt_deliver_flips_bytes_but_still_delivers() {
    let plan = FaultPlan::default().with_corrupt_deliver(1.0);
    let (log, _, sim) = byte_run(plan, 10, 31);
    let log = log.borrow();
    assert_eq!(log.len(), 10, "byzantine corruption must not drop");
    assert_eq!(sim.trace().byz_corrupt_delivered, 10);
    for (_, payload) in log.iter() {
        assert_eq!(payload.len(), 500, "corruption must not change length");
        assert!(
            payload.iter().any(|&b| b != 0xab),
            "every delivery must carry at least one flipped byte"
        );
    }
}

#[test]
fn duplicate_delivers_twice() {
    let plan = FaultPlan::default().with_duplicate(1.0);
    let (log, _, sim) = byte_run(plan, 10, 32);
    assert_eq!(log.borrow().len(), 20, "every datagram doubled");
    assert_eq!(sim.trace().byz_duplicates, 10);
}

#[test]
fn replay_reinjects_stale_datagrams() {
    let plan = FaultPlan::default().with_replay(0.5);
    let (log, _, sim) = byte_run(plan, 40, 33);
    let replays = sim.trace().byz_replays;
    assert!(replays > 0, "replay fault never fired");
    assert_eq!(
        log.borrow().len() as u64,
        40 + replays,
        "each replay is one extra delivery"
    );
}

#[test]
fn forged_frames_reach_the_socket_with_spoofed_source() {
    let forged = vec![0x5a; 64];
    let plan = FaultPlan::default().with_forge(
        Time::from_millis(1),
        HostId(1),
        PORT,
        HostId(0),
        forged.clone(),
    );
    let (log, srcs, sim) = byte_run(plan, 0, 34);
    let log = log.borrow();
    assert_eq!(log.len(), 1);
    assert_eq!(log[0].1, forged, "forged bytes must arrive verbatim");
    assert_eq!(srcs.borrow()[0], HostId(0), "source is spoofed");
    assert_eq!(sim.trace().byz_forged, 1);
}

#[test]
fn forged_frames_to_unbound_ports_vanish() {
    let plan = FaultPlan::default().with_forge(
        Time::from_millis(1),
        HostId(1),
        PORT + 1,
        HostId(0),
        vec![1, 2, 3],
    );
    let (log, _, sim) = byte_run(plan, 0, 35);
    assert_eq!(log.borrow().len(), 0);
    assert_eq!(sim.trace().byz_forged, 1, "injection is still counted");
}

#[test]
fn byzantine_runs_are_deterministic() {
    let plan = FaultPlan::default()
        .with_corrupt_deliver(0.3)
        .with_duplicate(0.2)
        .with_replay(0.2)
        .with_forge(
            Time::from_millis(2),
            HostId(1),
            PORT,
            HostId(0),
            vec![9; 30],
        );
    let (log_a, _, sim_a) = byte_run(plan.clone(), 100, 36);
    let (log_b, _, sim_b) = byte_run(plan, 100, 36);
    assert_eq!(
        *log_a.borrow(),
        *log_b.borrow(),
        "same seed, same byzantine stream"
    );
    assert_eq!(sim_a.trace(), sim_b.trace());
}

// ---------------------------------------------------------------------
// Overload modes: feedback storms, CPU saturation, sockbuf exhaustion.
// ---------------------------------------------------------------------

#[test]
fn feedback_storm_amplifies_deliveries() {
    let plan = FaultPlan::default().with_feedback_storm(
        HostId(1),
        Time::ZERO,
        Time::from_millis(5_000),
        3,
    );
    let (log, sim) = blast_run(plan, SimConfig::default(), 10, 41);
    assert_eq!(
        log.borrow().len(),
        40,
        "each datagram delivered once plus three amplified copies"
    );
    assert_eq!(sim.trace().storm_amplified, 30);
}

#[test]
fn feedback_storm_respects_its_window() {
    // Window closed before the run starts: nothing is amplified.
    let plan = FaultPlan::default().with_feedback_storm(
        HostId(1),
        Time::from_millis(4_000),
        Time::from_millis(4_001),
        5,
    );
    let (log, sim) = blast_run(plan, SimConfig::default(), 10, 42);
    assert_eq!(log.borrow().len(), 10);
    assert_eq!(sim.trace().storm_amplified, 0);
}

#[test]
fn sockbuf_exhaustion_drops_every_arrival_in_window() {
    let plan =
        FaultPlan::default().with_sockbuf_exhaust(HostId(1), Time::ZERO, Time::from_millis(5_000));
    let (log, sim) = blast_run(plan, SimConfig::default(), 10, 43);
    assert_eq!(log.borrow().len(), 0, "window swallows everything");
    assert_eq!(sim.trace().drops(DropCause::SockBufFull), 10);
}

#[test]
fn cpu_load_slows_a_host_without_losing_data() {
    let finish = |plan: FaultPlan| {
        let (log, _) = blast_run(plan, SimConfig::default(), 10, 44);
        let log = log.borrow();
        assert_eq!(log.len(), 10, "saturation must not drop datagrams");
        log.iter().map(|&(t, _, _)| t).max().unwrap()
    };
    let plain = finish(FaultPlan::default());
    let loaded = finish(FaultPlan::default().with_slow_host(HostId(1), 50.0));
    assert!(
        loaded > plain,
        "a 50x CPU factor must delay delivery ({plain:?} vs {loaded:?})"
    );
}

#[test]
fn overload_knobs_make_the_plan_non_empty() {
    let t = Time::from_millis(1);
    assert!(!FaultPlan::default()
        .with_feedback_storm(HostId(0), Time::ZERO, t, 1)
        .is_empty());
    assert!(!FaultPlan::default()
        .with_cpu_load(HostId(0), Time::ZERO, t, 2.0)
        .is_empty());
    assert!(!FaultPlan::default()
        .with_sockbuf_exhaust(HostId(0), Time::ZERO, t)
        .is_empty());
}

#[test]
#[should_panic(expected = "cpu-load factor must be >= 1")]
fn cpu_load_factor_validated() {
    let _ = FaultPlan::default().with_cpu_load(HostId(0), Time::ZERO, Time::from_millis(1), 0.5);
}

/// Two blasters multicast multi-fragment datagrams to the other hosts
/// under `plan`; the run's counters and end instant, as one string.
fn uniform_fault_run(fabric: netsim::FabricKind, plan: FaultPlan, seed: u64) -> String {
    let cfg = SimConfig {
        fabric,
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg, seed);
    let hosts = match fabric {
        netsim::FabricKind::Switched => topology::two_switch_cluster(&mut sim, 8),
        netsim::FabricKind::SharedBus => topology::shared_bus(&mut sim, 5),
    };
    sim.set_fault_plan(plan);
    let group = sim.create_group(&hosts[2..]);
    for (i, &h) in hosts.iter().enumerate() {
        if i < 2 {
            let dest = UdpDest::group(group, PORT);
            let sizes = vec![2_000 + 1_000 * i; 40];
            sim.spawn(h, PORT, Box::new(Blaster { dest, sizes }));
        } else {
            sim.spawn(h, PORT, Box::new(Sink { log: new_log() }));
        }
    }
    sim.run();
    format!("{:?} {:?}", sim.trace(), sim.now())
}

const SWITCHED: &str = "TraceCounters { datagrams_sent: 80, datagrams_delivered: 426, \
    frames_sent: 200, frames_received: 1416, frames_filtered: 200, \
    payload_bytes_sent: 200000, wire_bytes_sent: 1722232, \
    drops_wire_fault: 39, drops_switch_queue: 0, drops_sockbuf: 0, \
    drops_reassembly: 80, drops_datagram_fault: 4, \
    drops_collisions: 0, collisions: 0, drops_link_down: 0, \
    drops_burst: 0, drops_corrupt: 0, drops_host_down: 0, \
    drops_trunk_down: 0, frames_reordered: 0, \
    byz_corrupt_delivered: 0, byz_duplicates: 0, byz_replays: 0, \
    byz_forged: 0, storm_amplified: 0 } Time(517416651)";
const BUS: &str = "TraceCounters { datagrams_sent: 80, datagrams_delivered: 222, \
    frames_sent: 200, frames_received: 776, frames_filtered: 194, \
    payload_bytes_sent: 200000, wire_bytes_sent: 213200, \
    drops_wire_fault: 6, drops_switch_queue: 0, drops_sockbuf: 0, \
    drops_reassembly: 18, drops_datagram_fault: 0, \
    drops_collisions: 0, collisions: 12, drops_link_down: 0, \
    drops_burst: 0, drops_corrupt: 0, drops_host_down: 0, \
    drops_trunk_down: 0, frames_reordered: 0, \
    byz_corrupt_delivered: 0, byz_duplicates: 0, byz_replays: 0, \
    byz_forged: 0, storm_amplified: 0 } Time(518269471)";

/// Every uniform draw keeps its site and its order: these strings were
/// recorded when the three rates were still a `SimConfig` field of their
/// own, before they moved into `FaultPlan`.
#[test]
fn uniform_faults_are_pinned_draw_for_draw() {
    let plan = FaultPlan::default()
        .with_frame_loss(0.02)
        .with_datagram_loss(0.01)
        .with_frame_dup(0.02);
    assert_eq!(
        uniform_fault_run(netsim::FabricKind::Switched, plan, 17),
        SWITCHED
    );
    let plan = FaultPlan::default().with_frame_loss(0.03);
    assert_eq!(
        uniform_fault_run(netsim::FabricKind::SharedBus, plan, 23),
        BUS
    );
}
