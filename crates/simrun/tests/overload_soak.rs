//! The overload soak: the acceptance scenario for graceful degradation.
//! A 4x feedback storm at the sender plus one receiver on a saturated
//! CPU, at the paper's N=30, over a 500 KB transfer. Every family must
//! complete exactly-once in-order with no liveness abort, the AIMD
//! window must visibly shrink and recover, and the slow receiver must
//! pass through the quarantine lifecycle (enter, then rejoin or evict).

use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, OverloadConfig, ProtocolConfig};
use rmtrace::TraceEvent;
use rmwire::{Duration, Rank, Time};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, Scenario};

const N: u16 = 30;
const MSG: usize = 500_000;

fn families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = experiments::families(N);
    for (name, cfg) in &mut v {
        if *name == "ring" {
            // Double-size window: the sender keeps the AIMD floor above
            // the group size (the rotating release frees packet X on the
            // ACK for X+N), so a 2(N+1) window halves to N+1 under load
            // and has room to visibly grow back.
            cfg.window = 2 * (N as usize + 1);
        }
        cfg.liveness = LivenessConfig::evicting(40);
        cfg.overload = OverloadConfig::adaptive(cfg.window);
        // The saturated receiver needs a while to chew through 500 KB;
        // give the catch-up loop room before the eviction fallback.
        cfg.overload.quarantine_budget = 64;
        // Sub-ms simulated RTTs: the default 120ms RTO would stretch a
        // 3-timeout quarantine streak across the whole run.
        cfg.rto = Duration::from_millis(20);
    }
    v
}

/// Feedback storm at the sender for the bulk of the transfer, plus one
/// receiver (rank 1) on a 25x-saturated CPU for the whole run, whose
/// socket buffer is additionally exhausted over 10–80ms. The blackout
/// guarantees a sender timeout streak (AIMD shrink + quarantine entry)
/// even for families whose slow-but-steady feedback would otherwise
/// trickle in under the RTO.
fn overload_plan() -> FaultPlan {
    FaultPlan::default()
        .with_feedback_storm(HostId(0), Time::from_millis(2), Time::from_millis(5_000), 4)
        .with_slow_host(HostId(1), 25.0)
        .with_sockbuf_exhaust(HostId(1), Time::from_millis(10), Time::from_millis(250))
}

fn soak(cfg: ProtocolConfig, seed: u64) -> (ChaosOutcome, Vec<rmtrace::TraceRecord>) {
    let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
    sc.fault_plan = overload_plan();
    sc.time_cap = Duration::from_secs(120);
    sc.run_chaos_traced(seed, 0)
}

#[test]
fn every_family_degrades_gracefully_under_storm_and_slow_receiver() {
    for (name, cfg) in families() {
        let (out, trace) = soak(cfg, 1);

        // Bounded completion, no liveness abort.
        assert!(out.completed, "{name} hung under overload");
        assert_eq!(
            out.messages_sent, 1,
            "{name} aborted instead of degrading: {:?}",
            out.failures
        );
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);

        // Exactly-once delivery for every rank that delivered at all,
        // and every non-evicted rank must have delivered.
        let mut per_rank = vec![0usize; N as usize + 1];
        for &(r, msg, _, bytes) in &out.delivered_msgs {
            assert_eq!(msg, 0, "{name}: unexpected message id");
            assert_eq!(bytes, MSG, "{name}: truncated delivery at rank {r}");
            per_rank[r.0 as usize] += 1;
        }
        for rank in 1..=N {
            let evicted = out.evictions.iter().any(|&(r, _)| r == Rank(rank));
            let n = per_rank[rank as usize];
            assert!(n <= 1, "{name}: rank {rank} delivered {n} times");
            assert!(
                n == 1 || evicted,
                "{name}: rank {rank} neither delivered nor was evicted"
            );
        }

        // The storm actually hit the sender and the shedder responded.
        assert!(out.trace.storm_amplified > 0, "{name}: storm never fired");

        // AIMD shrink -> recover is visible in the sender's trace.
        let shrinks = count(&trace, |e| matches!(e, TraceEvent::WindowShrink { .. }));
        let grows = count(&trace, |e| matches!(e, TraceEvent::WindowGrow { .. }));
        assert!(shrinks > 0, "{name}: the window never shrank under load");
        assert!(grows > 0, "{name}: the window never recovered");
        assert_eq!(out.sender_stats.window_shrinks, shrinks as u64, "{name}");
        assert_eq!(out.sender_stats.window_grows, grows as u64, "{name}");

        // Quarantine lifecycle: the slow receiver enters, then either
        // rejoins at the boundary or is evicted on the liveness path.
        let entered = count(&trace, |e| matches!(e, TraceEvent::QuarantineEnter { .. }));
        let exited = count(&trace, |e| matches!(e, TraceEvent::QuarantineExit { .. }));
        assert!(entered > 0, "{name}: slow receiver never quarantined");
        assert!(exited > 0, "{name}: quarantine never resolved");
        assert_eq!(
            out.sender_stats.quarantine_entered, entered as u64,
            "{name}"
        );
        assert_eq!(
            out.sender_stats.quarantine_rejoined + out.sender_stats.quarantine_evicted,
            exited as u64,
            "{name}"
        );
    }
}

/// The same scenario is a pure function of its seed: overload machinery
/// (buckets, AIMD, quarantine clocks) must not break determinism.
#[test]
fn overload_runs_are_deterministic() {
    let (_, cfg) = families().remove(1);
    let (a, ta) = soak(cfg, 7);
    let (b, tb) = soak(cfg, 7);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(a.delivered_msgs, b.delivered_msgs);
    assert_eq!(a.sender_stats, b.sender_stats);
    assert_eq!(a.trace, b.trace);
    assert_eq!(ta, tb);
}

fn count(trace: &[rmtrace::TraceRecord], f: impl Fn(&TraceEvent) -> bool) -> usize {
    trace.iter().filter(|r| f(&r.ev)).count()
}
