//! Contracts of the tracing layer, asserted end-to-end through the
//! simulator backend:
//!
//! 1. **Golden trace** — the same scenario and seed produce a
//!    byte-identical JSONL trace stream, run after run. The trace is part
//!    of the deterministic surface, so any nondeterminism in the engines,
//!    the simulator, or the hooks themselves shows up here first.
//! 2. **No perturbation** — attaching a trace sink changes nothing about
//!    the run itself: results with tracing on equal results with tracing
//!    off, bit for bit.
//! 3. **Flight recorder** — a forced liveness failure produces a
//!    non-empty post-mortem dump from the failing endpoint.

use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, ProtocolConfig, ProtocolKind};
use rmwire::Time;
use simrun::scenario::{Protocol, Scenario};

/// A scenario with enough adversity that every hook family fires:
/// retransmits, NAKs, fabric drops, window stalls.
fn lossy_scenario() -> Scenario {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(8), 8_000, 16);
    let mut sc = Scenario::new(Protocol::Rm(cfg), 8, 200_000);
    sc.fault_plan = FaultPlan::default().with_burst(0.05, 8.0);
    sc
}

#[test]
fn same_seed_yields_byte_identical_traces() {
    let sc = lossy_scenario();
    let (_, a) = sc.run_traced(7);
    let (_, b) = sc.run_traced(7);
    assert!(
        a.len() > 100,
        "trace suspiciously small: {} records",
        a.len()
    );
    assert_eq!(a, b, "trace streams diverged across identical runs");
    let jsonl_a: String = a.iter().map(|r| r.to_json() + "\n").collect();
    let jsonl_b: String = b.iter().map(|r| r.to_json() + "\n").collect();
    assert_eq!(jsonl_a, jsonl_b);
}

#[test]
fn different_seeds_yield_different_traces() {
    // Sanity check that the golden assertion above is not vacuous: the
    // trace actually depends on the run.
    let sc = lossy_scenario();
    let (_, a) = sc.run_traced(7);
    let (_, b) = sc.run_traced(8);
    assert_ne!(a, b);
}

#[test]
fn tracing_does_not_perturb_the_run() {
    let sc = lossy_scenario();
    let untraced = sc.run(7);
    let (traced, records) = sc.run_traced(7);
    assert!(!records.is_empty());
    assert_eq!(untraced.comm_time, traced.comm_time);
    assert_eq!(untraced.delivery_times, traced.delivery_times);
    assert_eq!(untraced.deliveries, traced.deliveries);
    assert_eq!(untraced.sender_stats, traced.sender_stats);
    assert_eq!(untraced.receiver_stats, traced.receiver_stats);
    assert_eq!(untraced.trace, traced.trace);
}

#[test]
fn forced_liveness_failure_dumps_the_flight_recorder() {
    // A receiver crashes and liveness is bounded-but-not-evicting: the
    // sender exhausts its retries and aborts the message, which must trip
    // its flight recorder.
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 8_000, 4);
    cfg.liveness = LivenessConfig::bounded(5);
    let mut sc = Scenario::new(Protocol::Rm(cfg), 8, 200_000);
    sc.fault_plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
    let (out, records) = sc.run_chaos_traced(1, 64);
    assert!(out.completed, "run hung instead of aborting");
    assert!(!out.failures.is_empty(), "crash should abort the message");
    assert!(
        !out.flight_dumps.is_empty(),
        "a liveness abort must dump the flight recorder"
    );
    let dump = &out.flight_dumps[0];
    assert!(!dump.events.is_empty(), "dump carries the last events");
    assert!(!dump.reason.is_empty(), "dump names what tripped it");
    assert!(
        dump.counters.iter().any(|(_, v)| *v > 0),
        "dump carries a counter snapshot"
    );
    assert!(!records.is_empty(), "chaos tracing also streams records");
}
