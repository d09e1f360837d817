//! One measurable run: protocol, workload, cluster, seeds.

use crate::adapter::{take_spares, AddrMap, DeliveryCheck, NodeRole, Nodes, Recorder};
use crate::calibration;
use crate::cost::CostModel;
use bytes::Bytes;
use netsim::{topology, FabricKind, FaultPlan, HostId, Sim, SimConfig, TraceCounters};
use rmcast::baseline::{RawUdpReceiver, RawUdpSender, SerialUnicastSender};
use rmcast::{
    Endpoint, Faults, FlightDump, GroupSpec, MemorySink, ProtocolConfig, Receiver, Sender,
    SessionError, Stats,
};
use rmtrace::TraceRecord;
use rmwire::{Duration, Rank, Time};
use std::cell::RefCell;
use std::rc::Rc;

/// UDP port all endpoints bind.
const PORT: u16 = 5000;

/// How long [`Scenario::with_faults`] holds a reordered frame past its
/// normal arrival: about two and a half full-size frame times on the
/// 100 Mbit/s testbed, so it lands behind frames sent after it.
const REORDER_DELAY: Duration = Duration::from_micros(300);

/// Which sender/receiver pair a scenario runs.
// `ProtocolConfig` is a plain-data knob bag that experiments build by
// value all over the tree; boxing it to please `large_enum_variant`
// would cost `Copy` on every one of those sites.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Protocol {
    /// One of the four reliable multicast protocol families.
    Rm(ProtocolConfig),
    /// The raw-UDP blast baseline (Figure 9).
    RawUdp {
        /// Data bytes per packet.
        packet_size: usize,
    },
    /// The serial reliable-unicast "TCP" baseline (Figure 8).
    SerialUnicast {
        /// TCP-like segment size.
        segment_size: usize,
        /// Window in segments.
        window: usize,
    },
}

impl Protocol {
    /// Short name for reports.
    pub fn name(&self) -> String {
        match self {
            Protocol::Rm(cfg) => cfg.kind.name().to_string(),
            Protocol::RawUdp { .. } => "raw-udp".into(),
            Protocol::SerialUnicast { .. } => "tcp-serial".into(),
        }
    }
}

/// Cluster wiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologyKind {
    /// The paper's Figure 7: two cascaded switches, 16 + 15 hosts.
    #[default]
    TwoSwitch,
    /// Everything on one switch.
    SingleSwitch,
    /// A single shared CSMA/CD bus.
    SharedBus,
}

/// A fully specified, repeatable experiment run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Number of receivers (the paper uses up to 30).
    pub n_receivers: u16,
    /// Message size in bytes.
    pub msg_size: usize,
    /// Messages sent back to back (the paper sends one).
    pub n_messages: usize,
    /// Cluster wiring.
    pub topology: TopologyKind,
    /// Physical/kernel simulation parameters.
    pub sim: SimConfig,
    /// User-level protocol cost model.
    pub cost: CostModel,
    /// Slow down receiver rank 1's CPU by this factor (1.0 = homogeneous,
    /// the paper's assumption). Tests the paper's §3 scoping claim that
    /// heterogeneous clusters need different techniques.
    pub slow_receiver_factor: f64,
    /// Extra hosts cabled to the fabric but outside the multicast group:
    /// they run nothing, but flooding makes them pay the kernel discard
    /// cost per data frame (paper §3, first bullet).
    pub bystanders: usize,
    /// Seeds averaged over (the paper averages three measurements).
    pub seeds: Vec<u64>,
    /// Abort if a run exceeds this much simulated time.
    pub time_cap: Duration,
    /// Every fault injected into the fabric, uniform loss included (empty =
    /// clean network, bit-identical to a plan-free simulation).
    pub fault_plan: FaultPlan,
}

impl Scenario {
    /// A scenario on the calibrated paper testbed with three seeds.
    pub fn new(protocol: Protocol, n_receivers: u16, msg_size: usize) -> Self {
        let (sim, cost) = calibration::paper_testbed();
        Scenario {
            protocol,
            n_receivers,
            msg_size,
            n_messages: 1,
            topology: TopologyKind::TwoSwitch,
            sim,
            cost,
            slow_receiver_factor: 1.0,
            bystanders: 0,
            seeds: vec![1, 2, 3],
            time_cap: Duration::from_secs(120),
            fault_plan: FaultPlan::default(),
        }
    }

    /// Run under `faults`, written into [`Scenario::fault_plan`]: `loss`
    /// is its `datagram_loss`, `dup` its `duplicate`, `corrupt` its
    /// `corrupt_deliver`, `reorder` its `reorder` with a 300 µs delay,
    /// and receiver `i` `down` crashes host `i + 1` at time zero, rebooting
    /// it at `back` if set. Panics on a plan [`Faults::validate`] refuses.
    pub fn with_faults(mut self, faults: &Faults) -> Self {
        if let Err(e) = faults.validate(usize::from(self.n_receivers)) {
            panic!("{e}");
        }
        let mut plan = std::mem::take(&mut self.fault_plan)
            .with_datagram_loss(faults.loss)
            .with_duplicate(faults.dup)
            .with_corrupt_deliver(faults.corrupt);
        if faults.reorder > 0.0 {
            plan = plan.with_reorder(faults.reorder, REORDER_DELAY);
        }
        for &(i, back) in &faults.down {
            let host = HostId(i + 1);
            plan = match back {
                None => plan.with_crash(host, Time::ZERO),
                Some(back) => plan.with_crash_restart(host, Time::ZERO, Time::ZERO + back),
            };
        }
        self.fault_plan = plan;
        self
    }

    /// The deterministic message payload used in runs.
    pub fn payload(&self) -> Bytes {
        Bytes::from(
            (0..self.msg_size)
                .map(|i| (i as u8).wrapping_mul(37).wrapping_add(11))
                .collect::<Vec<u8>>(),
        )
    }

    /// Shared simulation body: build the cluster, install the fault plan,
    /// spawn endpoints, run to the time cap, and hand back the recorder.
    /// With `trace` set, every protocol endpoint and the network fabric
    /// stream structured events into the shared sink (and endpoints keep a
    /// flight recorder when `flight_cap > 0`). With `crc_witness` set the
    /// record carries a CRC-32C per delivery and judges none; without it
    /// every delivery is compared with the message sent.
    fn execute(&self, seed: u64, trace: Option<&TraceSpec>, crc_witness: bool) -> Recorder {
        let mut sim_cfg = self.sim;
        if self.topology == TopologyKind::SharedBus {
            sim_cfg.fabric = FabricKind::SharedBus;
        }
        let mut sim = Sim::new(sim_cfg, seed);
        let n = self.n_receivers as usize;
        let total = n + 1 + self.bystanders;
        let hosts = match self.topology {
            TopologyKind::TwoSwitch => topology::two_switch_cluster(&mut sim, total),
            TopologyKind::SingleSwitch => topology::single_switch(&mut sim, total),
            TopologyKind::SharedBus => topology::shared_bus(&mut sim, total),
        };
        let sender_host = hosts[0];
        let receiver_hosts = hosts[1..=n].to_vec();
        if self.slow_receiver_factor != 1.0 {
            assert!(self.slow_receiver_factor >= 1.0, "factor must be >= 1");
            let f = self.slow_receiver_factor;
            let mut p = sim.config().host;
            p.recv_syscall =
                rmwire::Duration::from_nanos((p.recv_syscall.as_nanos() as f64 * f) as u64);
            p.recv_per_fragment =
                rmwire::Duration::from_nanos((p.recv_per_fragment.as_nanos() as f64 * f) as u64);
            p.recv_per_byte_ns = (p.recv_per_byte_ns as f64 * f) as u64;
            p.send_syscall =
                rmwire::Duration::from_nanos((p.send_syscall.as_nanos() as f64 * f) as u64);
            sim.set_host_params(receiver_hosts[0], p);
        }
        if !self.fault_plan.is_empty() {
            sim.set_fault_plan(self.fault_plan.clone());
        }
        if let Some(t) = trace {
            sim.set_trace_sink(Box::new(t.sink.clone()));
        }
        let group = sim.create_group(&receiver_hosts);
        let msgs: Vec<Bytes> = vec![self.payload(); self.n_messages];
        let nodes = Nodes {
            addr: Rc::new(AddrMap {
                sender_host,
                receiver_hosts,
                group,
                port: PORT,
            }),
            cost: self.cost,
            rec: Rc::new(RefCell::new(Recorder {
                expect_msgs: self.n_messages as u64,
                check: if crc_witness {
                    DeliveryCheck::Crc
                } else {
                    DeliveryCheck::Sent(msgs.clone())
                },
                ..Recorder::default()
            })),
        };
        let gspec = GroupSpec::new(self.n_receivers);
        // The previous run's assemblies; whatever is left over when the
        // receivers are built is dropped with this vector.
        let mut spares = take_spares();

        let receivers = (0..n).map(|index| NodeRole::Receiver { index });

        match self.protocol {
            Protocol::Rm(cfg) => {
                spawn_group(&mut sim, &nodes, cfg, &msgs, seed, trace, &mut spares)
            }
            Protocol::RawUdp { packet_size } => {
                let mut sender =
                    RawUdpSender::new(gspec, packet_size, rmwire::Duration::from_millis(40));
                for m in &msgs {
                    sender.send_message(Time::ZERO, m.clone());
                }
                nodes.spawn(&mut sim, NodeRole::Sender, sender, |_| None, None);
                for (i, role) in receivers.enumerate() {
                    let r = RawUdpReceiver::new(Rank::from_receiver_index(i));
                    nodes.spawn(&mut sim, role, r, |_| None, None);
                }
            }
            Protocol::SerialUnicast {
                segment_size,
                window,
            } => {
                let mut sender = SerialUnicastSender::new(gspec, segment_size, window);
                let [msg] = &msgs[..] else {
                    panic!("serial unicast carries one message");
                };
                sender.send_message(Time::ZERO, msg.clone());
                nodes.spawn(&mut sim, NodeRole::Sender, sender, |_| None, None);
                let mut cfg = ProtocolConfig::new(rmcast::ProtocolKind::Ack, segment_size, window);
                cfg.handshake = false;
                for role in receivers {
                    // Each receiver is rank 1 of its own 1-receiver group.
                    let r = Receiver::new(cfg, GroupSpec::new(1), Rank(1), seed);
                    nodes.spawn(&mut sim, role, r, Receiver::take_spare, None);
                }
            }
        }

        sim.run_until(Time::ZERO + self.time_cap);
        {
            let mut rec = nodes.rec.borrow_mut();
            rec.sender_cpu_busy = sim.cpu_busy(sender_host);
            rec.out.trace = sim.trace().clone();
        }
        // Dropping the simulator drops every process: each hands its
        // assembly buffer back, its counters to the recorder, and lets go
        // of its recorder handle.
        drop(sim);
        Rc::try_unwrap(nodes.rec)
            .expect("the processes held every other recorder handle")
            .into_inner()
    }

    /// Execute once with `seed`. Panics if the run does not complete
    /// within the time cap, or if any receiver delivers bytes that differ
    /// from the message sent — the right behavior for the paper's
    /// fault-free performance figures, where either is a bug.
    pub fn run(&self, seed: u64) -> RunResult {
        self.run_inner(seed, None)
    }

    /// Execute once with `seed` with `rmprof` span timing enabled,
    /// returning the run result alongside a registry snapshot of the
    /// run's hot-path stage histograms (wire encode/decode, CRC, window
    /// ops, assembly, FEC coding, event dispatch).
    ///
    /// The registry is process-global, so it is reset first and the
    /// snapshot reflects *this* run only — don't interleave with other
    /// profiled work in the same process. Profiling measures the engines
    /// without feeding anything back: the `RunResult` is bit-identical
    /// to [`Scenario::run`]'s for the same seed.
    pub fn run_profiled(&self, seed: u64) -> (RunResult, rmprof::Snapshot) {
        rmprof::reset();
        let prev = rmprof::enabled();
        rmprof::set_enabled(true);
        let result = self.run_inner(seed, None);
        rmprof::set_enabled(prev);
        rmprof::flush();
        (result, rmprof::snapshot())
    }

    /// Execute once with `seed` while streaming every protocol and
    /// network event into a shared in-memory trace. The record stream is
    /// in simulation-event order, so identical scenarios and seeds yield
    /// byte-identical traces. Tracing never perturbs the run: the result
    /// equals [`Scenario::run`]'s bit for bit.
    pub fn run_traced(&self, seed: u64) -> (RunResult, Vec<TraceRecord>) {
        let spec = TraceSpec {
            sink: MemorySink::new(),
            flight_cap: 0,
        };
        let result = self.run_inner(seed, Some(&spec));
        (result, spec.sink.take())
    }

    fn run_inner(&self, seed: u64, spec: Option<&TraceSpec>) -> RunResult {
        let Recorder {
            out,
            sender_cpu_busy,
            ..
        } = self.execute(seed, spec, false);
        let Some(comm_time) = out.comm_time else {
            panic!(
                "scenario did not complete within {}: protocol={} n={} msg={}B \
                 (sent={} delivered={} drops={})",
                self.time_cap,
                self.protocol.name(),
                self.n_receivers,
                self.msg_size,
                out.messages_sent,
                out.deliveries,
                out.trace.total_drops(),
            )
        };
        let delivery_times: Vec<(u16, f64)> = out
            .delivered_msgs
            .iter()
            .map(|&(rank, _, t, _)| (rank.0, t.saturating_since(Time::ZERO).as_secs_f64()))
            .collect();
        let total_bytes = (self.msg_size * self.n_messages) as f64;
        RunResult {
            comm_time,
            delivery_times,
            throughput_mbps: total_bytes * 8.0 / comm_time.as_secs_f64() / 1e6,
            sender_cpu_utilization: sender_cpu_busy.as_secs_f64()
                / comm_time.as_secs_f64().max(1e-12),
            sender_stats: out.sender_stats,
            receiver_stats: out.receiver_stats,
            deliveries: out.deliveries,
            trace: out.trace,
        }
    }

    /// Execute every seed and average the communication time (the paper's
    /// three-measurement methodology). Stats and trace come from the last
    /// seed.
    pub fn run_avg(&self) -> RunResult {
        assert!(!self.seeds.is_empty());
        let mut results: Vec<RunResult> = self.seeds.iter().map(|&s| self.run(s)).collect();
        let mean_ns =
            results.iter().map(|r| r.comm_time.as_nanos()).sum::<u64>() / results.len() as u64;
        let mut last = results.pop().expect("at least one result");
        last.comm_time = Duration::from_nanos(mean_ns);
        let total_bytes = (self.msg_size * self.n_messages) as f64;
        last.throughput_mbps = total_bytes * 8.0 / last.comm_time.as_secs_f64() / 1e6;
        last
    }

    /// Execute once with `seed` under the installed fault plan, and
    /// *never panic*: the liveness contract under chaos is "deliver to
    /// every live receiver or abort with a typed error within the time
    /// cap", and this entry point reports which of those happened. The
    /// time cap doubles as the virtual-time watchdog — a protocol that
    /// hangs shows up as `completed == false`, not as a wedged test.
    pub fn run_chaos(&self, seed: u64) -> ChaosOutcome {
        self.run_chaos_inner(seed, None)
    }

    /// [`Scenario::run_chaos`] with tracing: every endpoint and the fabric
    /// stream into a shared trace, and each endpoint keeps a
    /// `flight_cap`-event flight recorder that dumps (into
    /// [`ChaosOutcome::flight_dumps`]) when a liveness failure trips.
    pub fn run_chaos_traced(
        &self,
        seed: u64,
        flight_cap: usize,
    ) -> (ChaosOutcome, Vec<TraceRecord>) {
        let spec = TraceSpec {
            sink: MemorySink::new(),
            flight_cap,
        };
        let outcome = self.run_chaos_inner(seed, Some(&spec));
        (outcome, spec.sink.take())
    }

    fn run_chaos_inner(&self, seed: u64, spec: Option<&TraceSpec>) -> ChaosOutcome {
        self.execute(seed, spec, true).out
    }
}

/// Spawn one group of a reliable multicast protocol on `nodes`: the sender
/// with `msgs` queued, then a receiver on each receiver host, each seeded
/// with a buffer from `spares` while it has one. With membership on, a
/// crash-restarted receiver host reboots with no protocol state and must
/// rejoin through JOIN/SYNC.
pub(crate) fn spawn_group(
    sim: &mut Sim,
    nodes: &Nodes,
    cfg: ProtocolConfig,
    msgs: &[Bytes],
    seed: u64,
    trace: Option<&TraceSpec>,
    spares: &mut Vec<Bytes>,
) {
    let n = nodes.addr.receiver_hosts.len();
    let gspec = GroupSpec::new(n as u16);
    let mut sender = Sender::new(cfg, gspec);
    TraceSpec::attach(trace, &mut sender);
    for m in msgs {
        sender.send_message(Time::ZERO, m.clone());
    }
    nodes.spawn(sim, NodeRole::Sender, sender, |_| None, None);
    for index in 0..n {
        let rank = Rank::from_receiver_index(index);
        let mut r = Receiver::new(cfg, gspec, rank, seed);
        if let Some(buf) = spares.pop() {
            r.seed_spare(buf);
        }
        TraceSpec::attach(trace, &mut r);
        let rebuild = cfg.membership.then(|| {
            let respawn_trace = trace.cloned();
            Box::new(move |now| {
                let mut r = Receiver::new_joining(cfg, gspec, rank, seed, now);
                TraceSpec::attach(respawn_trace.as_ref(), &mut r);
                r
            }) as Box<dyn FnMut(Time) -> Receiver>
        });
        let role = NodeRole::Receiver { index };
        nodes.spawn(sim, role, r, Receiver::take_spare, rebuild);
    }
}

/// Observability wiring for one traced execution.
#[derive(Clone)]
pub(crate) struct TraceSpec {
    /// Shared sink: endpoints and the simulator interleave into it in
    /// deterministic simulation-event order.
    sink: MemorySink,
    /// Per-endpoint flight recorder capacity (0 = off).
    flight_cap: usize,
}

impl TraceSpec {
    /// When the run is traced, stream `ep`'s events into the shared sink
    /// and keep its flight recorder if one is asked for.
    fn attach(spec: Option<&TraceSpec>, ep: &mut dyn Endpoint) {
        if let Some(t) = spec {
            ep.set_trace_sink(Box::new(t.sink.clone()));
            if t.flight_cap > 0 {
                ep.enable_flight_recorder(t.flight_cap);
            }
        }
    }
}

/// Outcome of a chaos run: either the sender resolved every message
/// (delivered or typed-failed) inside the time cap, or it hung.
#[derive(Debug, Clone, Default)]
pub struct ChaosOutcome {
    /// The sender resolved all messages (success *or* typed abort)
    /// within the time cap.
    pub completed: bool,
    /// Virtual time at which the sender resolved, if it did.
    pub comm_time: Option<Duration>,
    /// Messages the sender reported successfully delivered.
    pub messages_sent: usize,
    /// Individual `(rank, msg_id, time)` message deliveries observed.
    pub deliveries: usize,
    /// Sender-side typed aborts: `(msg_id, error)`.
    pub failures: Vec<(u64, SessionError)>,
    /// Receiver-side typed aborts: `(rank, msg_id, error)`.
    pub receiver_failures: Vec<(Rank, u64, SessionError)>,
    /// `(rank, msg_id)` eviction notices observed at any endpoint.
    pub evictions: Vec<(Rank, u64)>,
    /// `(rank, epoch)` membership admissions announced by the sender.
    pub joins: Vec<(Rank, u32)>,
    /// Crash-restarted hosts that respawned their endpoint.
    pub restarts: usize,
    /// `(msg_id, congested)` sender backpressure edges, in order.
    pub backpressure: Vec<(u64, bool)>,
    /// Every `(rank, msg_id, time, bytes)` delivery, for per-receiver
    /// exactly-once checks.
    pub delivered_msgs: Vec<(Rank, u64, Time, usize)>,
    /// `(rank, msg_id, crc32c)` of each delivered payload, parallel to
    /// `delivered_msgs`: proves deliveries are bit-intact under byzantine
    /// corruption without retaining the payloads themselves.
    pub delivered_crcs: Vec<(Rank, u64, u32)>,
    /// Flight-recorder dumps captured at failures (only populated by
    /// [`Scenario::run_chaos_traced`] with a non-zero capacity).
    pub flight_dumps: Vec<FlightDump>,
    /// Final sender counters (epoch and membership activity included).
    pub sender_stats: Stats,
    /// Final per-receiver counters, by receiver index.
    pub receiver_stats: Vec<Stats>,
    /// Network-level counters, including chaos drop causes.
    pub trace: TraceCounters,
}

/// Outcome of a scenario run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Sender-side completion time (the paper's "communication time").
    pub comm_time: Duration,
    /// `(rank, seconds)` of each message delivery, in delivery order.
    pub delivery_times: Vec<(u16, f64)>,
    /// `msg_size * n_messages * 8 / comm_time`, in Mbit/s.
    pub throughput_mbps: f64,
    /// Fraction of the run the sender spent busy — CPU work plus time
    /// blocked in `sendto` (wire pacing). High for every protocol; what
    /// differs is how much of it is acknowledgment processing.
    pub sender_cpu_utilization: f64,
    /// Sender counters.
    pub sender_stats: Stats,
    /// Per-receiver counters.
    pub receiver_stats: Vec<Stats>,
    /// Number of message deliveries observed before the sender finished.
    pub deliveries: usize,
    /// Network-level counters.
    pub trace: TraceCounters,
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmcast::ProtocolKind;

    #[test]
    fn ack_scenario_completes_and_is_deterministic() {
        let sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 1000, 2)),
            4,
            10_000,
        );
        let a = sc.run(7);
        let b = sc.run(7);
        assert_eq!(a.comm_time, b.comm_time, "same seed, same time");
        assert!(a.comm_time > Duration::ZERO);
        assert_eq!(a.deliveries, 4);
        assert!(a.trace.clean(), "clean network must not drop");
        assert_eq!(a.sender_stats.retx_sent, 0);
    }

    #[test]
    fn a_plan_no_group_can_run_is_refused_when_the_run_is_built() {
        let sc = || {
            let cfg = ProtocolConfig::new(ProtocolKind::Ack, 1000, 2);
            Scenario::new(Protocol::Rm(cfg), 4, 10_000)
        };
        let refusal = |faults: Faults| {
            let built = std::panic::catch_unwind(|| sc().with_faults(&faults));
            let payload = built.expect_err("refused");
            payload
                .downcast_ref::<String>()
                .cloned()
                .expect("a message")
        };
        // A certain loss never converges: it would spin to the time cap.
        let certain = Faults {
            loss: 1.0,
            ..Faults::default()
        };
        assert!(refusal(certain).contains("loss probability out of range"));
        let nobody = Faults {
            down: vec![(9, None)],
            ..Faults::default()
        };
        assert!(refusal(nobody).contains("down receiver 9 is not one of 4"));
        let faults = Faults {
            loss: 0.05,
            down: vec![(2, Some(Duration::from_millis(3)))],
            ..Faults::default()
        };
        let plan = sc().with_faults(&faults).fault_plan;
        let expect = FaultPlan::default()
            .with_datagram_loss(0.05)
            .with_crash_restart(HostId(3), Time::ZERO, Time::from_millis(3));
        assert_eq!(plan, expect);
    }

    #[test]
    fn all_protocols_run_on_the_testbed() {
        for p in [
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 1000, 2)),
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::nak_polling(4), 1000, 6)),
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ring, 1000, 8)),
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::flat_tree(3), 1000, 6)),
            Protocol::RawUdp { packet_size: 1000 },
            Protocol::SerialUnicast {
                segment_size: 1448,
                window: 22,
            },
        ] {
            let sc = Scenario::new(p, 5, 20_000);
            let r = sc.run_avg();
            assert!(
                r.comm_time > Duration::ZERO,
                "{}: zero communication time",
                p.name()
            );
            assert_eq!(r.deliveries, 5, "{}", p.name());
        }
    }

    #[test]
    fn more_receivers_cost_more_for_serial_unicast() {
        let t = |n| {
            Scenario::new(
                Protocol::SerialUnicast {
                    segment_size: 1448,
                    window: 22,
                },
                n,
                50_000,
            )
            .run(1)
            .comm_time
        };
        let t2 = t(2);
        let t8 = t(8);
        assert!(
            t8.as_nanos() > 3 * t2.as_nanos(),
            "serial unicast must scale linearly: {t2} vs {t8}"
        );
    }
}
