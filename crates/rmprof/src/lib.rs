//! Hot-path profiling and live metrics for the reliable-multicast stack.
//!
//! The source paper is an *empirical* study; this crate is the
//! instrument. It answers "where did the time go?" for every backend with
//! two cooperating pieces:
//!
//! * **A metrics registry** ([`registry`]): monotonic [`Counter`]s,
//!   [`Gauge`]s and log₂ histograms (bucket layout shared with
//!   [`rmtrace::Histogram`]) behind a process-wide handle. Updates are
//!   lock-free — plain relaxed atomics — and a mutex is taken only at
//!   name registration (cold). [`snapshot`] freezes everything into a
//!   plain-data [`Snapshot`] that merges, renders to a Prometheus-style
//!   text page or JSON ([`expo`]), and feeds `rmreport`'s hotspot table.
//! * **A span profiler** ([`span!`], [`Span`]): scoped monotonic-clock
//!   timers over the fixed [`Stage`] taxonomy of hot protocol stages
//!   (wire encode/decode, CRC, sender window ops, receiver assembly, FEC
//!   XOR batching/decode, netsim event dispatch, udprun socket tx/rx).
//!   Samples accumulate in plain thread-local tables and flush to the
//!   shared atomic registry every [`FLUSH_EVERY`] records and on thread
//!   exit, so the hot path never touches contended cache lines per
//!   sample.
//!
//! # Cost model
//!
//! Profiling is **off by default**. Disabled, a span site is one relaxed
//! atomic load and a branch — the overhead-budget regression test
//! (`crates/core/tests/prof_overhead.rs`) holds the whole instrumented
//! loopback workload to ≤ 2%.
//! Enabled, each span costs two `Instant::now` reads plus a thread-local
//! histogram record (tens of nanoseconds; bounded and measured by the
//! same test).
//!
//! # Determinism
//!
//! The engines this crate instruments are seed-deterministic and their
//! `clippy.toml` bans raw clock reads in them. Spans do read the
//! monotonic clock — *inside this crate* — but the measurements flow one
//! way, into the registry; nothing feeds back into protocol decisions,
//! timer schedules, or trace output, so golden traces and the model
//! checker are unaffected. The backends' `clippy.toml` keeps ad-hoc
//! `Instant::now()` timing out of them so every timer goes through this
//! registry.
//!
//! ```
//! use rmprof::{span, Stage};
//!
//! rmprof::set_enabled(true);
//! {
//!     let _span = span!(Stage::WireEncode);
//!     // ... encode a packet ...
//! } // span records its elapsed nanoseconds on drop
//! rmprof::counter("example.packets").inc();
//! rmprof::flush();
//! let snap = rmprof::snapshot();
//! assert_eq!(snap.counter("example.packets"), Some(1));
//! assert!(snap.stage("wire.encode").is_some_and(|h| h.count() >= 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod expo;
pub mod registry;
mod span;
mod stage;

pub use registry::{counter, flush, gauge, reset, snapshot, Counter, Gauge, Snapshot};
pub use span::Span;
pub use stage::Stage;

use std::sync::atomic::{AtomicBool, Ordering};

/// Records flushed from a thread's local tables to the shared registry in
/// one batch. Small enough that a poller watching the live endpoint sees
/// mid-transfer progress; large enough to amortize the atomic traffic.
pub const FLUSH_EVERY: u32 = 64;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn span timing on or off process-wide. Counters and gauges are
/// always live (one relaxed atomic op); only the clock-reading span
/// machinery is gated.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Is span timing currently enabled?
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Open a profiling span for a [`Stage`]; the returned guard records the
/// elapsed nanoseconds into the registry when dropped.
///
/// ```
/// # use rmprof::{span, Stage};
/// let _span = span!(Stage::NetsimDispatch);
/// ```
#[macro_export]
macro_rules! span {
    ($stage:expr) => {
        $crate::Span::enter($stage)
    };
}
