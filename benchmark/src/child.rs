//! One child process: one workload, one round, a fresh heap.
//!
//! `rmbench` re-executes itself for every (round, workload) so that no
//! workload inherits allocator state from another, and the parent pools the
//! rounds. A child prints one JSON object on its last stdout line.
//!
//! The untraced child measures the end-to-end metrics. The traced child
//! measures every per-layer metric: the section of the workload it was
//! asked for gets the time budget (and alone feeds the `proc.*` metrics),
//! the other two backends run one fixed reference block each, so a traced
//! run always reports the whole layer picture.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::Stats;
use simrun::scenario::{Protocol, Scenario};
use udprun::cluster::run_cluster;

use crate::alloc;
use crate::json::{array, num, string, Obj};
use crate::probes;
use crate::procfs::{vm_hwm_kib, ProcSample};
use crate::stats::median;
use crate::traced::{same_work_as_loopback, SpanKind, SpanTable, TracedLoop};
use crate::workload::{
    by_name, families, nak_cfg, paper_scenarios, payloads, sim_op, udp_cfg, udp_failures, Kind,
    LoopSpec, Prepared, Samples, Workload, BULK, MAX_BLOCKS, SIM_LOCK_SEED, SIM_N, UDP_MSGS, UDP_N,
};

/// What the parent tells a child.
pub struct ChildArgs {
    /// The workload to run.
    pub workload: Workload,
    /// The run's `--seed`.
    pub seed: u64,
    /// Round number within the run.
    pub round: u64,
    /// Wall-clock budget for the timed blocks (at least one block runs).
    pub budget: Duration,
}

impl ChildArgs {
    /// Seed of this child: block `b` of round `r` uses `S + 1000·r + b`.
    fn child_seed(&self) -> u64 {
        self.seed.wrapping_add(1000 * self.round)
    }
}

/// Seed offset of the untimed warm-up block, outside any timed block's.
const WARMUP_BLOCK: u64 = 999;

/// The untraced child: set-up, then timed blocks until the budget is spent.
pub fn untraced(args: &ChildArgs, process_start: Instant) -> String {
    // All sample storage exists before the first endpoint does.
    let mut samples = Samples::new();
    let seed = args.child_seed();
    let prepared = Prepared::new(args.workload, seed);
    let warmup_failed = prepared.block(seed.wrapping_add(WARMUP_BLOCK), None);
    let setup_s = process_start.elapsed().as_secs_f64();

    let proc0 = ProcSample::now();
    let timed = Instant::now();
    let mut block = 0;
    loop {
        prepared.block(seed.wrapping_add(block), Some(&mut samples));
        block += 1;
        if timed.elapsed() >= args.budget || !samples.has_room() {
            break;
        }
    }
    let timed_wall_s = timed.elapsed().as_secs_f64();
    let used = ProcSample::now().since(&proc0);

    Obj::new()
        .field("pid", num(f64::from(std::process::id())))
        .field("setup_s", num(setup_s))
        .field("block_s", array(samples.block_s.iter().map(|&s| num(s))))
        .field(
            "latency",
            array(
                samples
                    .latency
                    .sparse()
                    .into_iter()
                    .map(|(i, c, sum)| array([num(i as f64), num(f64::from(c)), num(sum as f64)])),
            ),
        )
        .field("attempted", num(samples.attempted as f64))
        .field("failed", num((samples.failed + warmup_failed) as f64))
        .field("untouched", samples.check_untouched().to_string())
        .field("vm_hwm_kib", num(vm_hwm_kib() as f64))
        .field("timed_wall_s", num(timed_wall_s))
        .field("run_delay_s", num(used.run_delay_ns as f64 / 1e9))
        .finish()
}

/// What one block of an alternation reports.
#[derive(Default, Clone, Copy)]
struct BlockRun {
    /// Time inside the program under test.
    seconds: f64,
    ops: u64,
    failed: u64,
}

/// Allocation and OS counters over a metered stretch.
#[derive(Default, Clone, Copy)]
struct Cost {
    allocs: u64,
    alloc_bytes: u64,
    proc: ProcSample,
    wall_s: f64,
}

impl Cost {
    fn add(&mut self, other: &Cost) {
        self.allocs += other.allocs;
        self.alloc_bytes += other.alloc_bytes;
        self.proc = self.proc.plus(&other.proc);
        self.wall_s += other.wall_s;
    }
}

/// Counts allocations and reads `/proc/self` around a stretch of work.
struct Meter {
    allocs: (u64, u64),
    proc: ProcSample,
    started: Instant,
}

impl Meter {
    fn start() -> Meter {
        let m = Meter {
            allocs: alloc::counts(),
            proc: ProcSample::now(),
            started: Instant::now(),
        };
        alloc::set_counting(true);
        m
    }

    fn stop(self) -> Cost {
        alloc::set_counting(false);
        let wall_s = self.started.elapsed().as_secs_f64();
        let (allocs, bytes) = alloc::counts();
        Cost {
            allocs: allocs - self.allocs.0,
            alloc_bytes: bytes - self.allocs.1,
            proc: ProcSample::now().since(&self.proc),
            wall_s,
        }
    }
}

/// Plain and traced blocks, alternating so drift lands on both.
struct Alternation {
    /// Seconds per operation, one entry per plain block.
    plain_op_s: Vec<f64>,
    /// Seconds per operation, one entry per traced block.
    traced_op_s: Vec<f64>,
    /// Operations in traced blocks.
    traced_ops: u64,
    /// Operations in all blocks.
    attempted: u64,
    failed: u64,
    /// Counters over the traced blocks' metered stretches.
    cost: Cost,
}

/// Run `traced` (and, when this is the run's own section, `plain` before
/// it) once, then again while `budget` lasts.
fn alternate(
    budget: Duration,
    mut plain: Option<&mut dyn FnMut(u64) -> BlockRun>,
    traced: &mut dyn FnMut(u64) -> (BlockRun, Cost),
) -> Alternation {
    let mut a = Alternation {
        plain_op_s: Vec::with_capacity(MAX_BLOCKS),
        traced_op_s: Vec::with_capacity(MAX_BLOCKS),
        traced_ops: 0,
        attempted: 0,
        failed: 0,
        cost: Cost::default(),
    };
    let start = Instant::now();
    let mut block = 0;
    loop {
        if let Some(plain) = plain.as_deref_mut() {
            let run = plain(block);
            a.attempted += run.ops;
            a.failed += run.failed;
            if run.seconds > 0.0 {
                a.plain_op_s.push(run.seconds / run.ops as f64);
            }
        }
        let (run, cost) = traced(block);
        a.attempted += run.ops;
        a.failed += run.failed;
        a.traced_ops += run.ops;
        a.cost.add(&cost);
        if run.seconds > 0.0 {
            a.traced_op_s.push(run.seconds / run.ops as f64);
        }
        block += 1;
        if start.elapsed() >= budget || block as usize >= MAX_BLOCKS {
            return a;
        }
    }
}

/// Run `prepared`'s next plain block, reporting the block time `samples`
/// recorded for it.
fn plain_block(prepared: &Prepared, samples: &mut Samples, seed: u64) -> BlockRun {
    let before = samples.block_s.len();
    let attempted = samples.attempted;
    let failed = prepared.block(seed, Some(samples));
    BlockRun {
        seconds: samples.block_s[before..].iter().sum(),
        ops: samples.attempted - attempted,
        failed,
    }
}

/// Sender counters summed over the traced loop blocks.
#[derive(Default)]
struct LoopCounts {
    msgs: u64,
    datagrams: u64,
    data_sent: u64,
    retx_sent: u64,
    feedback: u64,
    repairs: u64,
}

impl LoopCounts {
    fn add(&mut self, msgs: u64, datagrams: u64, s: &Stats) {
        self.msgs += msgs;
        self.datagrams += datagrams;
        self.data_sent += s.data_sent;
        self.retx_sent += s.retx_sent;
        self.feedback += s.acks_received + s.naks_received;
        self.repairs += s.repairs_sent + s.parity_sent;
    }
}

/// One traced block: fresh group, untimed and unrecorded warm-up message,
/// then `ops` recorded ones. Block time is the sum of the message spans.
fn traced_loop_block(
    spec: &LoopSpec,
    ops: usize,
    seed: u64,
    payloads: &[Bytes; 2],
    spans: &mut SpanTable,
    counts: &mut LoopCounts,
) -> (BlockRun, Cost) {
    let mut net = TracedLoop::new(spec, seed);
    spans.set_recording(false);
    let id = net.message(payloads[0].clone(), spans);
    let mut failed = u64::from(!net.settle(id, &payloads[0]));
    spans.set_recording(true);
    let before_ns = spans.total_ns(SpanKind::Msg);
    let meter = Meter::start();
    for i in 1..=ops {
        let payload = &payloads[i % 2];
        let id = net.message(payload.clone(), spans);
        failed += u64::from(!net.settle(id, payload));
    }
    let cost = meter.stop();
    counts.add(ops as u64 + 1, net.datagrams, net.sender_stats());
    let run = BlockRun {
        seconds: (spans.total_ns(SpanKind::Msg) - before_ns) as f64 / 1e9,
        ops: ops as u64,
        failed,
    };
    (run, cost)
}

/// Metrics accumulated by the traced child, in any order; [`traced`]
/// sorts them into `BENCHMARK.json` order at the end.
type Metrics = Vec<(String, f64)>;

fn put(out: &mut Metrics, name: &str, value: f64) {
    out.push((name.to_string(), value));
}

fn metrics_json(metrics: &Metrics) -> String {
    metrics
        .iter()
        .fold(Obj::new(), |o, (name, v)| o.field(name, num(*v)))
        .finish()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The loopback section. `own` is the budget when the run was asked for a
/// loopback workload; otherwise one reference block of `loop_bulk` runs.
fn loop_section(
    workload: &Workload,
    seed: u64,
    own: Option<Duration>,
    spans: &mut SpanTable,
    samples: &mut Samples,
    out: &mut Metrics,
) -> (Alternation, bool) {
    let Kind::Loop(spec) = workload.kind else {
        unreachable!("loop_section takes a loopback workload")
    };
    let prepared = Prepared::new(*workload, seed);
    let pair = prepared.payloads().clone();
    let same_work = same_work_as_loopback(&spec, seed, &pair);
    let mut counts = LoopCounts::default();
    let ops = workload.ops_per_block;
    let mut plain = |b: u64| plain_block(&prepared, samples, seed.wrapping_add(b));
    let alternation = alternate(
        own.unwrap_or_default(),
        own.is_some().then_some(&mut plain),
        &mut |b| traced_loop_block(&spec, ops, seed.wrapping_add(b), &pair, spans, &mut counts),
    );

    // A clean network never calls `handle_timeout`; so that the metric is
    // measured in every traced run, a few messages of `loop_lossy` supply it.
    let mut timeout_ns = spans.p50_ns(SpanKind::SenderHandleTimeout);
    if spans.count(SpanKind::SenderHandleTimeout) == 0 {
        let lossy = by_name("loop_lossy").expect("loop_lossy is a workload");
        let Kind::Loop(lossy_spec) = lossy.kind else {
            unreachable!()
        };
        let lossy_payloads = payloads(seed, lossy_spec.msg_len);
        let mut reference = SpanTable::with_raw_capacity(0);
        for attempt in 0..8 {
            if reference.count(SpanKind::SenderHandleTimeout) > 0 {
                break;
            }
            traced_loop_block(
                &lossy_spec,
                4,
                seed.wrapping_add(attempt),
                &lossy_payloads,
                &mut reference,
                &mut LoopCounts::default(),
            );
        }
        timeout_ns = reference.p50_ns(SpanKind::SenderHandleTimeout);
    }

    for (name, kind) in [
        ("core.sender.send_message_ns", SpanKind::SenderSend),
        ("core.sender.poll_transmit_ns", SpanKind::SenderPollTransmit),
        (
            "core.sender.handle_datagram_ns",
            SpanKind::SenderHandleDatagram,
        ),
        (
            "core.receiver.handle_datagram_ns",
            SpanKind::ReceiverHandleDatagram,
        ),
        (
            "core.receiver.poll_transmit_ns",
            SpanKind::ReceiverPollTransmit,
        ),
        ("core.receiver.poll_event_ns", SpanKind::ReceiverPollEvent),
    ] {
        put(out, name, spans.p50_ns(kind));
    }
    put(out, "core.sender.handle_timeout_ns", timeout_ns);
    let (sender, receiver, driver) = spans.shares();
    put(out, "core.sender.share", sender);
    put(out, "core.receiver.share", receiver);
    put(out, "core.driver.self_share", driver);
    let msgs = counts.msgs as f64;
    let data = counts.data_sent as f64;
    put(
        out,
        "core.datagrams_per_msg",
        ratio(counts.datagrams as f64, msgs),
    );
    put(
        out,
        "core.feedback_per_data_pkt",
        ratio(counts.feedback as f64, data),
    );
    put(
        out,
        "core.retx_per_data_pkt",
        ratio(counts.retx_sent as f64, data),
    );
    put(
        out,
        "core.repairs_per_msg",
        ratio(counts.repairs as f64, msgs),
    );
    (alternation, same_work)
}

/// Wall seconds of each of `runs` runs of `sc`.
fn sim_walls(sc: &Scenario, runs: usize) -> Vec<f64> {
    (0..runs)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(sc.run(SIM_LOCK_SEED));
            t.elapsed().as_secs_f64()
        })
        .collect()
}

/// The simulator section: a span per `Scenario::run`, one `run_profiled`
/// snapshot, and the two cost ratios.
fn sim_section(
    seed: u64,
    own: Option<Duration>,
    samples: &mut Samples,
    out: &mut Metrics,
) -> Alternation {
    let workload = by_name("sim_paper").expect("sim_paper is a workload");
    let prepared = Prepared::new(workload, seed);
    let scenarios = paper_scenarios();
    let mut family_s: Vec<Vec<f64>> = scenarios
        .iter()
        .map(|_| Vec::with_capacity(MAX_BLOCKS))
        .collect();
    let mut plain = |b: u64| plain_block(&prepared, samples, seed.wrapping_add(b));
    let alternation = alternate(
        own.unwrap_or_default(),
        own.is_some().then_some(&mut plain),
        &mut |_| {
            let mut run = BlockRun::default();
            let meter = Meter::start();
            for ((sc, lock), walls) in scenarios.iter().zip(family_s.iter_mut()) {
                let (dt, ok) = sim_op(sc, lock);
                walls.push(dt.as_secs_f64());
                run.seconds += dt.as_secs_f64();
                run.ops += 1;
                run.failed += u64::from(!ok);
            }
            (run, meter.stop())
        },
    );
    for ((name, _, _), walls) in families().iter().zip(&family_s) {
        put(out, &format!("simrun.run_ms.{name}"), median(walls) * 1e3);
    }

    // The nak family stands for the simulator's own cost: its dispatch
    // count repeats exactly, and the same configuration runs on Loopback.
    let nak_wall_s = median(&family_s[1]);
    let nak = &scenarios[1].0;
    let (result, snapshot) = nak.run_profiled(SIM_LOCK_SEED);
    let dispatches = snapshot
        .stage(rmprof::Stage::NetsimDispatch.name())
        .map_or(0, |h| h.count());
    put(out, "netsim.dispatch_per_run", dispatches as f64);
    put(
        out,
        "netsim.ns_per_dispatch",
        ratio(nak_wall_s * 1e9, dispatches as f64),
    );
    put(
        out,
        "simrun.frames_per_run",
        result.trace.frames_sent as f64,
    );

    let payload = payloads(seed, BULK);
    let loopback_s: Vec<f64> = (0..5)
        .map(|i| {
            let mut net = Loopback::new(nak_cfg(), SIM_N, seed);
            let t = Instant::now();
            net.send_message(payload[i % 2].clone());
            std::hint::black_box(net.run());
            t.elapsed().as_secs_f64()
        })
        .collect();
    put(
        out,
        "simrun.sim_over_loopback_ratio",
        ratio(nak_wall_s, median(&loopback_s)),
    );

    let wide = Scenario::new(Protocol::Rm(nak_cfg()), 4 * SIM_N, BULK);
    let wide_s = sim_walls(&wide, if own.is_some() { 3 } else { 1 });
    put(
        out,
        "simrun.scale_n120_ratio",
        ratio(median(&wide_s), nak_wall_s),
    );
    alternation
}

/// What the profiled cluster calls add up to.
#[derive(Default)]
struct UdpCounts {
    msgs: u64,
    data_sent: u64,
    retx_sent: u64,
    timeouts: u64,
    overhead_ms: Vec<f64>,
}

/// The kernel-UDP section: a span per `run_cluster` with `profile = true`.
fn udp_section(
    seed: u64,
    own: Option<Duration>,
    samples: &mut Samples,
    out: &mut Metrics,
) -> Alternation {
    let workload = by_name("udp_bulk").expect("udp_bulk is a workload");
    let prepared = Prepared::new(workload, seed);
    let msgs: Vec<Bytes> = (0..UDP_MSGS)
        .map(|i| prepared.payloads()[i % 2].clone())
        .collect();
    let mut counts = UdpCounts {
        overhead_ms: Vec::with_capacity(MAX_BLOCKS),
        ..UdpCounts::default()
    };
    rmprof::reset();
    let mut plain_msgs = 0u64;
    let mut plain = |b: u64| {
        plain_msgs += UDP_MSGS as u64;
        plain_block(&prepared, samples, seed.wrapping_add(b))
    };
    let alternation = alternate(
        own.unwrap_or_default(),
        own.is_some().then_some(&mut plain),
        &mut |b| {
            let meter = Meter::start();
            let result = run_cluster(udp_cfg(seed.wrapping_add(b), true), msgs.clone());
            let cost = meter.stop();
            let mut run = BlockRun {
                ops: UDP_MSGS as u64,
                ..BlockRun::default()
            };
            match result {
                Ok(r) => {
                    run.seconds = r.elapsed.as_secs_f64();
                    run.failed = udp_failures(&r, &msgs, UDP_N as usize);
                    counts.msgs += UDP_MSGS as u64;
                    counts.data_sent += r.sender_stats.data_sent;
                    counts.retx_sent += r.sender_stats.retx_sent;
                    counts.timeouts += r.sender_stats.timeouts;
                    counts
                        .overhead_ms
                        .push((cost.wall_s - run.seconds).max(0.0) * 1e3);
                }
                Err(_) => run.failed = UDP_MSGS as u64,
            }
            (run, cost)
        },
    );
    // The datagram counters are always live, so they cover the plain calls
    // too; the tx/rx stage timers only run under `profile = true`.
    let snapshot = rmprof::snapshot();
    let all_msgs = (counts.msgs + plain_msgs) as f64;
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0) as f64;
    put(
        out,
        "udprun.datagrams_tx_per_msg",
        ratio(counter("udprun.datagrams_tx"), all_msgs),
    );
    put(
        out,
        "udprun.datagrams_rx_per_msg",
        ratio(counter("udprun.datagrams_rx"), all_msgs),
    );
    put(
        out,
        "udprun.retx_per_data_pkt",
        ratio(counts.retx_sent as f64, counts.data_sent as f64),
    );
    put(
        out,
        "udprun.timeouts_per_msg",
        ratio(counts.timeouts as f64, counts.msgs as f64),
    );
    put(
        out,
        "udprun.cpu_busy_share",
        ratio(alternation.cost.proc.cpu_s(), alternation.cost.wall_s),
    );
    let stage_mean = |stage: rmprof::Stage| snapshot.stage(stage.name()).map_or(0.0, |h| h.mean());
    put(
        out,
        "udprun.tx_span_mean_ns",
        stage_mean(rmprof::Stage::UdpTx),
    );
    put(
        out,
        "udprun.rx_span_mean_ns",
        stage_mean(rmprof::Stage::UdpRx),
    );
    put(
        out,
        "udprun.call_overhead_ms",
        if counts.overhead_ms.is_empty() {
            0.0
        } else {
            median(&counts.overhead_ms)
        },
    );

    // Sixteen 100 000-byte messages in one call: each fits one window, so
    // no socket buffer overflows and no RTO is sat through; what is left is
    // the drive loop's wake-up latency.
    let small = payloads(seed, 100_000);
    let burst: Vec<Bytes> = (0..16).map(|i| small[i % 2].clone()).collect();
    let per_msg_us = match run_cluster(udp_cfg(seed, false), burst.clone()) {
        Ok(r) if udp_failures(&r, &burst, UDP_N as usize) == 0 => {
            r.elapsed.as_secs_f64() * 1e6 / burst.len() as f64
        }
        _ => 0.0,
    };
    put(out, "udprun.onewindow_msg_us", per_msg_us);
    alternation
}

/// Wall time the traced child keeps back from its own section for the
/// probes and the two reference sections (measured on the sizing machine).
const TRACED_FIXED_COST: Duration = Duration::from_millis(3_500);

/// The traced child. Returns its result line and writes
/// `out/trace-<workload>.json`.
pub fn traced(args: &ChildArgs, out_dir: &std::path::Path) -> String {
    let mut spans = SpanTable::new();
    let mut samples = Samples::new();
    let seed = args.child_seed();
    let own_budget = args.budget.saturating_sub(TRACED_FIXED_COST);
    let mut metrics: Metrics = Vec::with_capacity(64);
    let bulk = by_name("loop_bulk").expect("loop_bulk is a workload");

    // The loopback section always runs first, on the heap a fresh process
    // has: the engines' cost depends on the allocator's state (README,
    // "quirks"), so its numbers must not depend on which workload was asked
    // for. The run's own section follows at once, then the rest.
    let own_idx = match args.workload.kind {
        Kind::Loop(_) => 0,
        Kind::Sim => 1,
        Kind::Udp => 2,
    };
    let mut same_work = true;
    let mut sections: [Option<Alternation>; 3] = [None, None, None];
    for idx in [0, own_idx, 1, 2] {
        if sections[idx].is_some() {
            continue;
        }
        let budget = (idx == own_idx).then_some(own_budget);
        sections[idx] = Some(match idx {
            0 => {
                let w = if own_idx == 0 { args.workload } else { bulk };
                let (a, same) =
                    loop_section(&w, seed, budget, &mut spans, &mut samples, &mut metrics);
                same_work = same;
                a
            }
            1 => sim_section(seed, budget, &mut samples, &mut metrics),
            _ => udp_section(seed, budget, &mut samples, &mut metrics),
        });
    }
    let failed: u64 = sections.iter().flatten().map(|a| a.failed).sum();
    metrics.extend(probes::run_all(seed));

    let own = sections[own_idx].as_ref().expect("every section ran");
    let ops = own.traced_ops as f64;
    let payload_bytes = ops * args.workload.bytes_per_op() as f64;
    put(
        &mut metrics,
        "proc.allocs_per_msg",
        ratio(own.cost.allocs as f64, ops),
    );
    put(
        &mut metrics,
        "proc.alloc_bytes_per_payload_byte",
        ratio(own.cost.alloc_bytes as f64, payload_bytes),
    );
    put(
        &mut metrics,
        "proc.minor_faults_per_msg",
        ratio(own.cost.proc.minor_faults as f64, ops),
    );
    put(
        &mut metrics,
        "proc.sys_cpu_share",
        ratio(own.cost.proc.sys_s, own.cost.proc.cpu_s()),
    );
    let overhead_pct = if own.plain_op_s.is_empty() || own.traced_op_s.is_empty() {
        0.0
    } else {
        (median(&own.traced_op_s) / median(&own.plain_op_s) - 1.0) * 100.0
    };
    put(&mut metrics, "proc.trace_overhead_pct", overhead_pct);

    let untouched = spans.check_untouched() && samples.check_untouched();
    write_trace_file(args, out_dir, &spans, &metrics);

    Obj::new()
        .field("pid", num(f64::from(std::process::id())))
        .field("metrics", metrics_json(&metrics))
        .field("attempted", num(own.attempted as f64))
        .field("failed", num(failed as f64))
        .field("untouched", untouched.to_string())
        .field("same_work", same_work.to_string())
        .finish()
}

/// `out/trace-<workload>.json`: the aggregates of every span name, the
/// per-layer metrics, and the raw spans of the first messages.
fn write_trace_file(
    args: &ChildArgs,
    out_dir: &std::path::Path,
    spans: &SpanTable,
    metrics: &Metrics,
) {
    let aggregates = SpanKind::ALL.iter().fold(Obj::new(), |o, &kind| {
        o.field(
            kind.name(),
            Obj::new()
                .field("count", num(spans.count(kind) as f64))
                .field("total_ns", num(spans.total_ns(kind) as f64))
                .field("p50_ns", num(spans.p50_ns(kind)))
                .finish(),
        )
    });
    let raw = array(spans.raw().iter().map(|s| {
        array([
            string(s.kind.name()),
            num(s.start_ns as f64),
            num(s.end_ns as f64),
            s.parent.map_or("null".to_string(), |p| num(f64::from(p))),
            num(s.msg_id as f64),
        ])
    }));
    let text = Obj::new()
        .field("workload", string(args.workload.name))
        .field("seed", num(args.seed as f64))
        .field(
            "note",
            string(
                "spans are taken by the benchmark around calls into the engines' public \
                 functions; all traffic stays in-process or on the host loopback interface",
            ),
        )
        .field("metrics", metrics_json(metrics))
        .field("spans", aggregates.finish())
        .field(
            "raw_span_fields",
            array(["name", "start_ns", "end_ns", "parent", "msg_id"].map(string)),
        )
        .field("raw_spans", raw)
        .finish();
    let path = out_dir.join(format!("trace-{}.json", args.workload.name));
    // The trace file is an aid for reading a run, not a result: a failure
    // to write it is reported and the run goes on.
    if let Err(e) = std::fs::create_dir_all(out_dir).and_then(|()| std::fs::write(&path, text)) {
        eprintln!("rmbench: cannot write {}: {e}", path.display());
    }
}
