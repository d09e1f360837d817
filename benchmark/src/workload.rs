//! The six workloads: what runs, why it exists, and the untraced block
//! runners with their correctness checks.
//!
//! An *operation* is one message (one `Scenario::run` on `sim_paper`). It
//! fails — counted, never panicked on — if any receiver does not deliver it
//! exactly once, bit-identical to the payload, if the sender does not report
//! it sent, if `run_cluster` errs, or if a simulated `comm_time` misses its
//! lock.

use std::time::{Duration, Instant};

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{ProtocolConfig, ProtocolKind};
use simrun::scenario::{Protocol, Scenario};
use udprun::cluster::{run_cluster, ClusterConfig, ClusterResult};

use crate::hist::LatencyHist;

/// Data bytes per packet on every workload (the paper's 8 000-byte packets).
pub const PACKET: usize = 8_000;
/// The paper's headline message size.
pub const BULK: usize = 500_000;
/// Receivers on the loopback workloads.
pub const LOOP_N: u16 = 8;
/// Receivers at the simulated paper point.
pub const SIM_N: u16 = 30;
/// Receivers on the kernel-UDP workload: sender, two receivers and the hub
/// are four threads that mostly sleep, close to the two cores of the
/// sizing machine.
pub const UDP_N: u16 = 2;
/// Messages per `run_cluster` call on `udp_bulk`.
pub const UDP_MSGS: usize = 2;

/// The five protocol families at the paper point, in the order `perf_record`
/// uses, each with its simulated communication time for 500 000 B to 30
/// receivers on the calibrated testbed — the behaviour lock carried from
/// BENCH_6 to BENCH_10.
pub fn families() -> [(&'static str, ProtocolConfig, &'static str); 5] {
    [
        (
            "ack",
            ProtocolConfig::new(ProtocolKind::Ack, PACKET, 20),
            "0.138752",
        ),
        ("nak", nak_cfg(), "0.046250"),
        (
            "ring",
            ProtocolConfig::new(ProtocolKind::Ring, PACKET, 35),
            "0.046246",
        ),
        (
            "tree",
            ProtocolConfig::new(ProtocolKind::flat_tree(2), PACKET, 20),
            "0.087274",
        ),
        (
            "fec",
            ProtocolConfig::new(ProtocolKind::fec(16), PACKET, 20),
            "0.050961",
        ),
    ]
}

/// NAK with polling every 16 packets, window 20: the configuration shared
/// by `loop_bulk`, `loop_small`, `loop_cksum` and `udp_bulk`.
pub fn nak_cfg() -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::nak_polling(16), PACKET, 20)
}

/// What a loopback workload runs.
#[derive(Debug, Clone, Copy)]
pub struct LoopSpec {
    /// Protocol configuration.
    pub cfg: ProtocolConfig,
    /// Message bytes.
    pub msg_len: usize,
    /// Per-copy datagram loss probability.
    pub loss: f64,
}

/// The backend a workload drives.
// `ProtocolConfig` is plain `Copy` data; boxing it to even out the variants
// would cost `Copy` on `Workload` (as for `simrun::scenario::Protocol`).
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// In-process `Loopback`: engines only.
    Loop(LoopSpec),
    /// The calibrated simulator at the paper point, five families.
    Sim,
    /// Kernel UDP sockets through `udprun::run_cluster`.
    Udp,
}

/// One workload of the benchmark.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Backend and configuration.
    pub kind: Kind,
    /// Operations per timed block.
    pub ops_per_block: usize,
    /// Percentile reported as `msg_latency_tail_us`: the highest one that
    /// keeps at least ten samples beyond it at the workload's sample count.
    pub tail_q: f64,
    /// Listed in `BENCHMARK.json`, i.e. part of the regression gate. A
    /// workload whose same-code spread exceeds the widest bound the gate
    /// allows still runs under `rmbench run`, for people to read.
    pub gated: bool,
}

/// Every workload, in the fixed order a round runs them.
pub fn all() -> [Workload; 6] {
    let bulk = LoopSpec {
        cfg: nak_cfg(),
        msg_len: BULK,
        loss: 0.0,
    };
    let mut cksum = bulk;
    cksum.cfg.integrity = true;
    [
        Workload {
            name: "loop_bulk",
            kind: Kind::Loop(bulk),
            ops_per_block: 40,
            tail_q: 0.90,
            gated: true,
        },
        Workload {
            name: "loop_small",
            kind: Kind::Loop(LoopSpec {
                msg_len: 512,
                ..bulk
            }),
            ops_per_block: 8_000,
            tail_q: 0.90,
            // High-IPC code: the sizing machine's slow regime costs it
            // 35-40 % (15 % on the others), past any bound up to 0.25.
            gated: false,
        },
        Workload {
            name: "loop_lossy",
            kind: Kind::Loop(LoopSpec {
                cfg: ProtocolConfig::new(ProtocolKind::fec(16), PACKET, 20),
                msg_len: BULK,
                loss: 0.02,
            }),
            ops_per_block: 40,
            tail_q: 0.90,
            gated: true,
        },
        Workload {
            name: "loop_cksum",
            kind: Kind::Loop(cksum),
            ops_per_block: 8,
            tail_q: 0.90,
            gated: true,
        },
        Workload {
            name: "sim_paper",
            kind: Kind::Sim,
            ops_per_block: 5,
            tail_q: 0.90,
            gated: true,
        },
        Workload {
            name: "udp_bulk",
            kind: Kind::Udp,
            ops_per_block: UDP_MSGS,
            tail_q: 0.75,
            gated: true,
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Application payload bytes one operation carries (message bytes, not
    /// multiplied by the receiver count).
    pub fn bytes_per_op(&self) -> usize {
        match self.kind {
            Kind::Loop(spec) => spec.msg_len,
            Kind::Sim | Kind::Udp => BULK,
        }
    }
}

/// SplitMix64: the benchmark's only source of generated input.
pub struct SplitMix(u64);

impl SplitMix {
    /// Generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Two distinct payloads of `len` bytes generated from `seed`. Consecutive
/// messages alternate between them, so a receiver handing back the previous
/// message's buffer is caught by the bit-identity check.
pub fn payloads(seed: u64, len: usize) -> [Bytes; 2] {
    let mut rng = SplitMix::new(seed);
    let mut make = || {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        v.truncate(len);
        Bytes::from(v)
    };
    [make(), make()]
}

/// The harness's sample storage for one child process. Allocated once,
/// before the first endpoint is built; [`Samples::check_untouched`] proves
/// at the end of the run that nothing in it was reallocated or freed.
pub struct Samples {
    /// Per-operation latencies, nanoseconds.
    pub latency: LatencyHist,
    /// Timed-block durations, seconds.
    pub block_s: Vec<f64>,
    /// Operations attempted in timed blocks.
    pub attempted: u64,
    /// Operations that failed a correctness check (warm-ups included).
    pub failed: u64,
    fingerprint: ((usize, usize), usize, usize),
}

/// Upper bound on timed blocks per child process.
pub const MAX_BLOCKS: usize = 4096;

impl Samples {
    /// Allocate the storage.
    pub fn new() -> Self {
        let latency = LatencyHist::new();
        let block_s = Vec::with_capacity(MAX_BLOCKS);
        let fingerprint = (
            latency.storage_addr(),
            block_s.as_ptr() as usize,
            block_s.capacity(),
        );
        Samples {
            latency,
            block_s,
            attempted: 0,
            failed: 0,
            fingerprint,
        }
    }

    /// `true` while another timed block fits the preallocated storage.
    pub fn has_room(&self) -> bool {
        self.block_s.len() < MAX_BLOCKS
    }

    /// `true` if no sample buffer grew, moved or was freed since `new`.
    pub fn check_untouched(&self) -> bool {
        self.fingerprint
            == (
                self.latency.storage_addr(),
                self.block_s.as_ptr() as usize,
                self.block_s.capacity(),
            )
    }

    /// Record one timed block: its duration, its operations' latencies
    /// (already in `latency`), and the failures seen while it ran.
    fn close_block(&mut self, block: Duration, ops: usize, failed: u64) {
        self.block_s.push(block.as_secs_f64());
        self.attempted += ops as u64;
        self.failed += failed;
    }
}

/// Did message `msg_id` reach each of `n` receivers exactly once,
/// bit-identical to `payload`, with nothing else delivered?
pub fn deliveries_ok<'a>(
    deliveries: impl Iterator<Item = (usize, u64, &'a [u8])>,
    n: usize,
    msg_id: u64,
    payload: &[u8],
) -> bool {
    assert!(n <= 64, "receiver set kept as a bit mask");
    let mut seen = 0u64; // no allocation: this runs inside metered blocks
    let mut count = 0;
    for (idx, id, data) in deliveries {
        count += 1;
        if idx >= n || seen & (1 << idx) != 0 || id != msg_id || data != payload {
            return false;
        }
        seen |= 1 << idx;
    }
    count == n
}

/// Check one loopback message and clear the harness-visible logs, which
/// otherwise grow without bound.
fn settle_loopback(net: &mut Loopback, msg_id: u64, payload: &Bytes) -> bool {
    let ok = net.sent == [msg_id]
        && deliveries_ok(
            net.deliveries.iter().map(|(i, id, d)| (*i, *id, &d[..])),
            LOOP_N as usize,
            msg_id,
            payload,
        );
    net.sent.clear();
    net.deliveries.clear();
    ok
}

/// One block on a fresh `Loopback`: an untimed warm-up message, then `ops`
/// timed ones. With `samples` the block is recorded; without, it is a
/// warm-up block and only its failures are returned.
fn loop_block(
    spec: &LoopSpec,
    ops: usize,
    seed: u64,
    payloads: &[Bytes; 2],
    mut samples: Option<&mut Samples>,
) -> u64 {
    let mut net = Loopback::new(spec.cfg, LOOP_N, seed);
    if spec.loss > 0.0 {
        net = net.with_loss(spec.loss);
    }
    let mut failed = 0;
    let mut block = Duration::ZERO;
    for i in 0..=ops {
        let payload = &payloads[i % 2];
        let t = Instant::now();
        let id = net.send_message(payload.clone());
        let out = net.run();
        let dt = t.elapsed();
        drop(out);
        failed += u64::from(!settle_loopback(&mut net, id, payload));
        if i > 0 {
            block += dt;
            if let Some(s) = samples.as_deref_mut() {
                s.latency.record(dt.as_nanos() as u64);
            }
        }
    }
    if let Some(s) = samples {
        s.close_block(block, ops, failed);
    }
    failed
}

/// The five scenarios of `sim_paper`, built once per child.
pub fn paper_scenarios() -> Vec<(Scenario, &'static str)> {
    families()
        .into_iter()
        .map(|(_, cfg, lock)| (Scenario::new(Protocol::Rm(cfg), SIM_N, BULK), lock))
        .collect()
}

/// The simulator seed the locks were recorded with. The paper point is
/// pinned by its locks, so `--seed` varies nothing on `sim_paper`.
pub const SIM_LOCK_SEED: u64 = 1;

/// Run one scenario; `(wall, ok)` where `ok` means every receiver delivered
/// and the simulated communication time equals its lock.
pub fn sim_op(sc: &Scenario, lock: &str) -> (Duration, bool) {
    let t = Instant::now();
    let r = sc.run(SIM_LOCK_SEED);
    let dt = t.elapsed();
    let ok = r.deliveries == SIM_N as usize && format!("{:.6}", r.comm_time.as_secs_f64()) == lock;
    (dt, ok)
}

fn sim_block(scenarios: &[(Scenario, &'static str)], mut samples: Option<&mut Samples>) -> u64 {
    let mut failed = 0;
    let mut block = Duration::ZERO;
    for (sc, lock) in scenarios {
        let (dt, ok) = sim_op(sc, lock);
        block += dt;
        failed += u64::from(!ok);
        if let Some(s) = samples.as_deref_mut() {
            s.latency.record(dt.as_nanos() as u64);
        }
    }
    if let Some(s) = samples {
        s.close_block(block, scenarios.len(), failed);
    }
    failed
}

/// The `udp_bulk` cluster configuration.
pub fn udp_cfg(seed: u64, profile: bool) -> ClusterConfig {
    let mut cfg = ClusterConfig::new(nak_cfg(), UDP_N);
    cfg.seed = seed;
    cfg.profile = profile;
    cfg
}

/// How many of a cluster call's `msgs` messages failed: all of them if the
/// run reported any failure, otherwise each one some receiver did not
/// deliver exactly once and intact.
pub fn udp_failures(result: &ClusterResult, msgs: &[Bytes], n: usize) -> u64 {
    if !result.failures.is_empty() {
        return msgs.len() as u64;
    }
    let mut failed = 0;
    for (id, payload) in msgs.iter().enumerate() {
        let of_msg = result
            .deliveries
            .iter()
            .filter(|(_, m, _)| *m == id as u64)
            .map(|(rank, m, d)| (rank.receiver_index(), *m, &d[..]));
        failed += u64::from(!deliveries_ok(of_msg, n, id as u64, payload));
    }
    let known = result
        .deliveries
        .iter()
        .all(|(_, m, _)| (*m as usize) < msgs.len());
    failed.max(u64::from(!known))
}

fn udp_block(seed: u64, payloads: &[Bytes; 2], samples: Option<&mut Samples>) -> u64 {
    let msgs: Vec<Bytes> = (0..UDP_MSGS).map(|i| payloads[i % 2].clone()).collect();
    let (elapsed, failed) = match run_cluster(udp_cfg(seed, false), msgs.clone()) {
        Ok(r) => (Some(r.elapsed), udp_failures(&r, &msgs, UDP_N as usize)),
        Err(_) => (None, UDP_MSGS as u64),
    };
    if let Some(s) = samples {
        match elapsed {
            Some(elapsed) => {
                let per_msg = (elapsed / UDP_MSGS as u32).as_nanos() as u64;
                for _ in 0..UDP_MSGS {
                    s.latency.record(per_msg);
                }
                s.close_block(elapsed, UDP_MSGS, failed);
            }
            // A call that erred has no elapsed time: its operations count
            // as failed and it contributes no timing sample.
            None => {
                s.attempted += UDP_MSGS as u64;
                s.failed += failed;
            }
        }
    }
    failed
}

/// Everything a child builds once, before its first timed block.
pub struct Prepared {
    workload: Workload,
    payloads: [Bytes; 2],
    scenarios: Vec<(Scenario, &'static str)>,
}

impl Prepared {
    /// Generate the inputs of `workload` from `seed`.
    pub fn new(workload: Workload, seed: u64) -> Self {
        Prepared {
            workload,
            payloads: payloads(seed, workload.bytes_per_op()),
            scenarios: match workload.kind {
                Kind::Sim => paper_scenarios(),
                _ => Vec::new(),
            },
        }
    }

    /// The generated payloads.
    pub fn payloads(&self) -> &[Bytes; 2] {
        &self.payloads
    }

    /// Run one block on a freshly built system with block seed `seed`.
    /// Recorded into `samples` when given; returns the operations that
    /// failed, warm-up message included.
    pub fn block(&self, seed: u64, samples: Option<&mut Samples>) -> u64 {
        match &self.workload.kind {
            Kind::Loop(spec) => loop_block(
                spec,
                self.workload.ops_per_block,
                seed,
                &self.payloads,
                samples,
            ),
            Kind::Sim => sim_block(&self.scenarios, samples),
            Kind::Udp => udp_block(seed, &self.payloads, samples),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_delivery_is_a_counted_failure_not_a_panic() {
        let payload = vec![7u8; 1000];
        let good: Vec<(usize, u64, &[u8])> = (0..3).map(|i| (i, 4, &payload[..])).collect();
        assert!(deliveries_ok(good.iter().copied(), 3, 4, &payload));

        let mut truncated = good.clone();
        truncated[1].2 = &payload[..999];
        assert!(!deliveries_ok(truncated.into_iter(), 3, 4, &payload));

        let mut flipped = payload.clone();
        flipped[500] ^= 1;
        let mut corrupt = good.clone();
        corrupt[2].2 = &flipped;
        assert!(!deliveries_ok(corrupt.into_iter(), 3, 4, &payload));

        // Twice to one receiver, missing receiver, wrong message id.
        let mut dup = good.clone();
        dup[2].0 = 0;
        assert!(!deliveries_ok(dup.into_iter(), 3, 4, &payload));
        assert!(!deliveries_ok(good[..2].iter().copied(), 3, 4, &payload));
        assert!(!deliveries_ok(good.iter().copied(), 3, 5, &payload));
    }

    #[test]
    fn block_records_into_preallocated_samples() {
        let w = Workload {
            ops_per_block: 4,
            ..by_name("loop_small").unwrap()
        };
        let p = Prepared::new(w, 1);
        let mut s = Samples::new();
        assert_eq!(p.block(1, Some(&mut s)), 0);
        assert_eq!(p.block(2, None), 0, "a warm-up block records nothing");
        assert_eq!((s.attempted, s.failed, s.block_s.len()), (4, 0, 1));
        assert_eq!(s.latency.count(), 4);
        assert!(s.check_untouched());
    }

    #[test]
    fn loopback_message_checked_against_other_bytes_fails_and_logs_are_cleared() {
        let mut net = Loopback::new(nak_cfg(), LOOP_N, 1);
        let [sent, other] = payloads(1, 512);
        let id = net.send_message(sent.clone());
        net.run();
        assert!(!settle_loopback(&mut net, id, &other));
        assert!(net.deliveries.is_empty() && net.sent.is_empty());
        let id = net.send_message(sent.clone());
        net.run();
        assert!(settle_loopback(&mut net, id, &sent));
    }

    #[test]
    fn payloads_are_seeded_and_distinct() {
        let a = payloads(9, 1001);
        let b = payloads(9, 1001);
        let c = payloads(10, 1001);
        assert_eq!(a[0], b[0]);
        assert_eq!(a[1], b[1]);
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], c[0]);
        assert_eq!(a[0].len(), 1001);
    }

    #[test]
    fn sample_storage_reports_growth() {
        let mut s = Samples::new();
        assert!(s.check_untouched());
        s.block_s.extend(std::iter::repeat_n(0.0, MAX_BLOCKS + 1));
        assert!(!s.check_untouched(), "a grown block table is detected");
    }
}
