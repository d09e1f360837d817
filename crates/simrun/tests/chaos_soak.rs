//! The chaos soak: every protocol family driven through every fault in
//! the campaign grid, asserting the bounded-time liveness contract —
//! deliver to all live receivers or abort with a typed error within the
//! virtual-time cap. A hang shows up as `completed == false` (the cap is
//! the watchdog), a panic fails the test outright.

use netsim::{DropCause, FaultPlan, HostId};
use rmcast::{LivenessConfig, ProtocolConfig, SessionError};
use rmwire::{Duration, Time};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, Scenario};

const N: u16 = 8;
const MSG: usize = 200_000;

fn families(liveness: LivenessConfig) -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = experiments::families(N);
    for (_, cfg) in &mut v {
        cfg.liveness = liveness;
    }
    v
}

fn soak(cfg: ProtocolConfig, plan: FaultPlan, seed: u64) -> ChaosOutcome {
    let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
    sc.fault_plan = plan;
    sc.time_cap = Duration::from_secs(60);
    sc.run_chaos(seed)
}

/// 5% bursty loss is recoverable: every family completes, delivering to
/// all 8 receivers, with retransmissions but no aborts.
#[test]
fn every_family_survives_burst_loss() {
    let plan = FaultPlan::default().with_burst(0.05, 8.0);
    for (name, cfg) in families(LivenessConfig::bounded(20)) {
        let out = soak(cfg, plan.clone(), 1);
        assert!(out.completed, "{name} hung under burst loss");
        assert_eq!(out.messages_sent, 1, "{name} failed a recoverable run");
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);
        assert_eq!(out.deliveries, N as usize, "{name} lost a receiver");
        assert!(
            out.trace.drops(DropCause::BurstLoss) > 0,
            "{name}: burst fault never fired"
        );
    }
}

/// Rank 1's host crashes mid-transfer. Rank 1 is the first ring token
/// site and a tree interior (aggregation) node, so this one fault
/// exercises receiver eviction, ring token-pass skip and tree ack-chain
/// rerouting. With eviction on, the sender completes to the 7 survivors.
#[test]
fn every_family_survives_receiver_crash_with_eviction() {
    let plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
    for (name, cfg) in families(LivenessConfig::evicting(6)) {
        let out = soak(cfg, plan.clone(), 1);
        assert!(out.completed, "{name} hung on a crashed receiver");
        assert_eq!(
            out.messages_sent, 1,
            "{name} must complete to survivors, got failures {:?}",
            out.failures
        );
        assert!(
            out.evictions.iter().any(|&(r, _)| r == rmwire::Rank(1)),
            "{name} never evicted the dead rank: {:?}",
            out.evictions
        );
        assert!(
            out.deliveries >= N as usize - 1,
            "{name}: survivors missed deliveries ({})",
            out.deliveries
        );
    }
}

/// The same crash under bounded-but-not-evicting liveness: the sender
/// must abort with the typed retry-limit error instead of hanging.
#[test]
fn crash_without_eviction_fails_typed_not_hangs() {
    let plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
    for (name, cfg) in families(LivenessConfig::bounded(5)) {
        let out = soak(cfg, plan.clone(), 1);
        assert!(out.completed, "{name} hung instead of aborting");
        assert_eq!(
            out.messages_sent, 0,
            "{name} claimed success with a dead member"
        );
        assert!(
            out.failures
                .iter()
                .any(|&(_, e)| matches!(e, SessionError::RetryLimitExceeded { .. })),
            "{name}: expected RetryLimitExceeded, got {:?}",
            out.failures
        );
    }
}

/// A 200ms link outage on one receiver's edge, paper-faithful liveness:
/// every family rides it out and still completes to everyone.
#[test]
fn every_family_rides_out_a_link_down_window() {
    let outage_end = Time::from_millis(203);
    let plan = FaultPlan::default().with_link_down(HostId(2), Time::from_millis(3), outage_end);
    for (name, cfg) in families(LivenessConfig::PAPER) {
        let out = soak(cfg, plan.clone(), 1);
        assert!(out.completed, "{name} hung across a transient outage");
        assert_eq!(out.messages_sent, 1, "{name}: {:?}", out.failures);
        assert_eq!(out.deliveries, N as usize, "{name} lost a receiver");
        assert!(
            out.evictions.is_empty(),
            "{name} evicted during a transient"
        );
        let t = out.comm_time.expect("completed");
        assert!(
            t >= outage_end.saturating_since(Time::ZERO),
            "{name} finished before the partitioned receiver returned: {t}"
        );
    }
}

/// A paused (GC-stalled) receiver delays completion but loses nothing.
#[test]
fn every_family_waits_out_a_paused_receiver() {
    let plan =
        FaultPlan::default().with_pause(HostId(3), Time::from_millis(2), Time::from_millis(152));
    for (name, cfg) in families(LivenessConfig::bounded(20)) {
        let out = soak(cfg, plan.clone(), 1);
        assert!(out.completed, "{name} hung on a paused receiver");
        assert_eq!(out.messages_sent, 1, "{name}: {:?}", out.failures);
        assert_eq!(out.deliveries, N as usize, "{name} lost a receiver");
    }
}

/// Chaos runs are a pure function of (scenario, seed): same inputs,
/// same outcome, fault schedule included.
#[test]
fn chaos_runs_are_deterministic() {
    let plan = FaultPlan::default().with_burst(0.05, 8.0).with_link_down(
        HostId(2),
        Time::from_millis(3),
        Time::from_millis(53),
    );
    let (_, cfg) = families(LivenessConfig::evicting(8)).remove(1);
    let a = soak(cfg, plan.clone(), 7);
    let b = soak(cfg, plan, 7);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(a.deliveries, b.deliveries);
    assert_eq!(a.trace, b.trace);
}
