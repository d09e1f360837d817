//! Trace-event coverage: every observability signal the engines emit is
//! pinned by at least one end-to-end assertion, so a refactor cannot
//! silently stop emitting it (`behaviour_lock.rs`'s layered rows hold the
//! same contract for the whole vocabulary: between them they must trace
//! every `TraceEvent::NAMES` entry).
//!
//! Three adversarial scenarios between them light up the loss-recovery,
//! eviction, and overload event families:
//!
//! 1. bursty loss over NAK polling — NAKs both ways, sender timeouts,
//!    duplicate discards, window stalls and releases;
//! 2. a receiver crash under evicting liveness — the eviction edge;
//! 3. a feedback storm at the sender — the storm-shedding edge.

use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, OverloadConfig, ProtocolConfig, ProtocolKind};
use rmtrace::{TraceEvent, TraceRecord};
use rmwire::{Duration, Time};
use simrun::scenario::{Protocol, Scenario};

fn count(trace: &[TraceRecord], pred: impl Fn(&TraceEvent) -> bool) -> usize {
    trace.iter().filter(|r| pred(&r.ev)).count()
}

/// Assert the event fired at least once, naming it on failure.
macro_rules! assert_fired {
    ($trace:expr, $variant:ident) => {
        assert!(
            count($trace, |e| matches!(e, TraceEvent::$variant { .. })) > 0,
            concat!("expected at least one ", stringify!($variant), " event")
        );
    };
}

/// Bursty loss over NAK polling: the recovery machinery (NAK round trip,
/// retransmission timeouts, duplicate suppression, window stall/release)
/// all leaves trace evidence.
#[test]
fn lossy_run_emits_every_recovery_event() {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(8), 8_000, 16);
    let mut sc = Scenario::new(Protocol::Rm(cfg), 8, 200_000);
    sc.fault_plan = FaultPlan::default().with_burst(0.05, 8.0);
    let (_, trace) = sc.run_traced(7);

    assert_fired!(&trace, NakSent);
    assert_fired!(&trace, NakReceived);
    assert_fired!(&trace, TimeoutFired);
    assert_fired!(&trace, DataDiscarded);
    assert_fired!(&trace, WindowStall);
    assert_fired!(&trace, WindowRelease);
    // Stalls are edges, releases resolve them: a stall without a later
    // release would mean the transfer wedged.
    let stalls = count(&trace, |e| matches!(e, TraceEvent::WindowStall { .. }));
    let releases = count(&trace, |e| matches!(e, TraceEvent::WindowRelease { .. }));
    assert!(
        releases >= stalls,
        "{stalls} stalls but only {releases} releases"
    );
}

/// A crashed receiver under evicting liveness: the sender's eviction
/// decision is traced, and matches the outcome's eviction list.
#[test]
fn receiver_crash_emits_evicted() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(8), 8_000, 16);
    cfg.liveness = LivenessConfig::evicting(6);
    let mut sc = Scenario::new(Protocol::Rm(cfg), 8, 200_000);
    sc.fault_plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
    sc.time_cap = Duration::from_secs(60);
    let (out, trace) = sc.run_chaos_traced(1, 0);

    assert!(out.completed, "hung on a crashed receiver");
    assert_fired!(&trace, Evicted);
    let traced = count(&trace, |e| matches!(e, TraceEvent::Evicted { .. }));
    assert_eq!(
        traced,
        out.evictions.len(),
        "trace and outcome disagree on evictions"
    );
}

/// A feedback storm at the sender with a tight pacing bucket (the
/// adaptive default of 20k control packets/s never overflows at this
/// scale, so the test provisions the bucket the way a sender sized for
/// its expected feedback load would): the shedder's entry edge is
/// traced.
#[test]
fn feedback_storm_emits_storm_suppressed() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 8_000, 16);
    cfg.liveness = LivenessConfig::evicting(40);
    cfg.overload = OverloadConfig::adaptive(cfg.window);
    cfg.overload.feedback_rate = 500;
    cfg.overload.feedback_burst = 4;
    cfg.rto = Duration::from_millis(20);
    let mut sc = Scenario::new(Protocol::Rm(cfg), 30, 500_000);
    sc.fault_plan = FaultPlan::default().with_feedback_storm(
        HostId(0),
        Time::from_millis(2),
        Time::from_millis(5_000),
        4,
    );
    sc.time_cap = Duration::from_secs(120);
    let (out, trace) = sc.run_chaos_traced(1, 0);

    assert!(out.completed, "hung under the feedback storm");
    assert_fired!(&trace, StormSuppressed);
}
