//! Overhead budget for `rmprof` instrumentation — the regression test
//! behind the numbers documented in `docs/OBSERVABILITY.md`.
//!
//! Two contracts:
//!
//! 1. **Disabled is free (≤ 2%).** With profiling off, a span is one
//!    relaxed atomic load and a `None` guard. We measure that cost
//!    directly, count how many spans one 500 KB loopback transfer
//!    actually fires (from an enabled run's snapshot), and assert the
//!    projected total stays within 2% of the measured transfer wall
//!    time. Projection (cost-per-span × spans-fired vs. measured wall)
//!    is deliberate: a direct A/B of two ~millisecond walls on a shared
//!    CI box measures scheduler jitter, not the instrumentation.
//!
//! 2. **Enabled is bounded.** An enabled span adds two `Instant::now`
//!    calls and a thread-local histogram write. We assert the per-span
//!    cost stays under a generous documented ceiling and that the
//!    enabled transfer completes within a loose multiple of the
//!    disabled one — catching "someone put a mutex in the hot path"
//!    regressions without flaking on timing noise.
//!
//! The registry and the enabled flag are process-global, so everything
//! runs inside one test serialized by a lock.
#![allow(
    clippy::disallowed_methods,
    reason = "an overhead budget is measured in wall time"
)]

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{ProtocolConfig, ProtocolKind};
use std::sync::Mutex;
use std::time::Instant;

/// Serializes rmprof-global state against any other test in this binary.
static PROF_LOCK: Mutex<()> = Mutex::new(());

const MSG: usize = 500_000;
const RECEIVERS: u16 = 8;

/// Disabled budget: 2% of transfer wall, the number the ISSUE fixes.
const DISABLED_BUDGET: f64 = 0.02;
/// Enabled ceiling per span (ns). Documented in docs/OBSERVABILITY.md;
/// a real span is two clock reads plus a thread-local bucket increment —
/// tens of ns in release, a few hundred in debug. 5 µs only trips on a
/// structural regression (locking, allocation, syscalls in the guard).
const ENABLED_SPAN_CEILING_NS: f64 = 5_000.0;
/// Enabled transfer may be at most this multiple of the disabled one.
const ENABLED_WALL_FACTOR: f64 = 2.0;

fn one_transfer() -> f64 {
    let t = Instant::now();
    let mut net = Loopback::new(
        ProtocolConfig::new(ProtocolKind::nak_polling(16), 8_000, 20),
        RECEIVERS,
        1,
    );
    net.send_message(Bytes::from(vec![1u8; MSG]));
    assert_eq!(net.run().len(), RECEIVERS as usize);
    t.elapsed().as_secs_f64()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    v[v.len() / 2]
}

/// Median wall time of a 500 KB loopback transfer at the given
/// profiling state (with one untimed warm-up).
fn transfer_wall(enabled: bool, reps: usize) -> f64 {
    rmprof::set_enabled(enabled);
    one_transfer();
    median((0..reps).map(|_| one_transfer()).collect())
}

/// Per-span cost (ns) at the given profiling state, median of reps.
fn span_cost_ns(enabled: bool, reps: usize) -> f64 {
    rmprof::set_enabled(enabled);
    const ITERS: u32 = 100_000;
    let samples = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..ITERS {
                let _span = rmprof::span!(rmprof::Stage::WireEncode);
            }
            t.elapsed().as_secs_f64() * 1e9 / f64::from(ITERS)
        })
        .collect();
    median(samples)
}

/// How many spans one transfer fires, from an enabled run's snapshot.
fn spans_per_transfer() -> u64 {
    rmprof::reset();
    rmprof::set_enabled(true);
    one_transfer();
    rmprof::set_enabled(false);
    rmprof::flush();
    let snap = rmprof::snapshot();
    rmprof::Stage::ALL
        .iter()
        .map(|s| snap.stage(s.name()).map_or(0, |h| h.count()))
        .sum()
}

#[test]
fn instrumentation_overhead_stays_in_budget() {
    let _guard = PROF_LOCK.lock().unwrap();
    let prev = rmprof::enabled();

    let spans = spans_per_transfer();
    assert!(
        spans > 100,
        "a 500 KB / {RECEIVERS}-receiver transfer should fire hundreds of \
         spans, saw {spans} — did the hot-path instrumentation disappear?"
    );

    let disabled_ns = span_cost_ns(false, 5);
    let wall_s = transfer_wall(false, 5);
    let projected = spans as f64 * disabled_ns * 1e-9;
    let share = projected / wall_s;
    eprintln!(
        "disabled: {disabled_ns:.1} ns/span x {spans} spans = \
         {:.0} us projected over a {:.1} ms transfer ({:.3}% of wall)",
        projected * 1e6,
        wall_s * 1e3,
        share * 100.0
    );
    assert!(
        share <= DISABLED_BUDGET,
        "disabled instrumentation projects to {:.2}% of transfer wall \
         (budget {:.0}%): {disabled_ns:.1} ns/span x {spans} spans vs \
         {:.2} ms wall",
        share * 100.0,
        DISABLED_BUDGET * 100.0,
        wall_s * 1e3
    );

    let enabled_ns = span_cost_ns(true, 5);
    eprintln!("enabled: {enabled_ns:.1} ns/span");
    assert!(
        enabled_ns <= ENABLED_SPAN_CEILING_NS,
        "enabled span costs {enabled_ns:.0} ns, over the {ENABLED_SPAN_CEILING_NS} ns \
         ceiling — a lock, allocation, or syscall crept into the span guard?"
    );

    let enabled_wall = transfer_wall(true, 5);
    eprintln!(
        "transfer wall: disabled {:.2} ms, enabled {:.2} ms",
        wall_s * 1e3,
        enabled_wall * 1e3
    );
    assert!(
        enabled_wall <= wall_s * ENABLED_WALL_FACTOR,
        "enabled transfer took {:.2} ms vs {:.2} ms disabled — more than \
         {ENABLED_WALL_FACTOR}x, far beyond the documented span cost",
        enabled_wall * 1e3,
        wall_s * 1e3
    );

    rmprof::set_enabled(prev);
    rmprof::reset();
}
