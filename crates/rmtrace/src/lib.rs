//! Structured observability for the reliable-multicast stack.
//!
//! This crate is the shared tracing substrate used by every backend
//! (`netsim`, `udprun`, the in-process loopback): typed protocol events,
//! pluggable sinks, fixed-bucket log-scale histograms, and a bounded
//! flight recorder that captures the last moments before a failure.
//!
//! It has **zero dependencies** (not even on the workspace's wire crate):
//! events carry raw nanosecond timestamps and integer ranks, and all
//! serialization is hand-rolled JSON Lines so traces can be written and
//! read back without any serde machinery.
//!
//! The design contract that matters most: tracing must never perturb the
//! protocol. A [`Tracer`] with no sink and no flight recorder reduces
//! every hook to a single branch on two `Option`s, draws no randomness,
//! allocates nothing, and leaves deterministic runs byte-identical.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod event;
pub mod flight;
pub mod hist;
pub mod json;
pub mod sink;

pub use event::{DropCause, TraceEvent, TraceRecord};
pub use flight::{FlightDump, FlightRecorder};
pub use hist::Histogram;
pub use json::{parse_jsonl, Json};
pub use sink::{JsonlSink, MemorySink, NullSink, TraceSink};

use std::fmt;

/// The per-endpoint tracing handle embedded in protocol engines.
///
/// Owns an optional [`TraceSink`] (live export) and an optional
/// [`FlightRecorder`] (bounded ring of recent events, dumped on failure).
/// With both absent — the default — [`Tracer::emit`] is a no-op behind a
/// single branch, so untraced runs pay nothing.
pub struct Tracer {
    rank: u16,
    sink: Option<Box<dyn TraceSink>>,
    flight: Option<FlightRecorder>,
}

impl Tracer {
    /// A disabled tracer for endpoint `rank` (0 = sender).
    pub fn off(rank: u16) -> Self {
        Tracer {
            rank,
            sink: None,
            flight: None,
        }
    }

    /// Attach a sink; every subsequent [`Tracer::emit`] forwards to it.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = Some(sink);
    }

    /// Keep the last `cap` events in a ring for post-mortem dumps.
    /// `cap == 0` disables the recorder.
    pub fn enable_flight_recorder(&mut self, cap: usize) {
        self.flight = if cap == 0 {
            None
        } else {
            Some(FlightRecorder::new(cap))
        };
    }

    /// `true` if any sink or flight recorder is attached.
    #[inline]
    pub fn active(&self) -> bool {
        self.sink.is_some() || self.flight.is_some()
    }

    /// The endpoint rank this tracer stamps on records.
    pub fn rank(&self) -> u16 {
        self.rank
    }

    /// Record `ev` at `t_ns` nanoseconds. No-op when inactive.
    #[inline]
    pub fn emit(&mut self, t_ns: u64, ev: TraceEvent) {
        if self.sink.is_none() && self.flight.is_none() {
            return;
        }
        self.emit_slow(t_ns, ev);
    }

    #[cold]
    fn emit_slow(&mut self, t_ns: u64, ev: TraceEvent) {
        let rank = self.rank;
        let rec = TraceRecord { t_ns, rank, ev };
        if let Some(f) = &mut self.flight {
            f.record(rec.clone());
        }
        if let Some(s) = &mut self.sink {
            s.emit(&rec);
        }
    }

    /// Snapshot the flight recorder into a [`FlightDump`], if one is
    /// enabled and non-empty. `counters` carries the endpoint's counter
    /// snapshot (name, value); `reason` says what tripped the dump.
    pub fn flight_dump(
        &self,
        t_ns: u64,
        reason: &str,
        counters: Vec<(String, u64)>,
    ) -> Option<FlightDump> {
        let f = self.flight.as_ref()?;
        if f.is_empty() {
            return None;
        }
        Some(f.dump(t_ns, self.rank, reason, counters))
    }

    /// Flush the attached sink, if any (JSONL writers buffer).
    pub fn flush(&mut self) {
        if let Some(s) = &mut self.sink {
            s.flush();
        }
    }
}

/// Cloning a [`Tracer`] produces a *detached* handle: the rank and any
/// flight-recorder ring carry over, but the sink does not (sinks are
/// exclusive streams — two endpoints writing interleaved records through
/// one handle would corrupt per-endpoint ordering). The model checker
/// relies on this to fork whole endpoints cheaply; forked endpoints that
/// want live export must call [`Tracer::set_sink`] again.
impl Clone for Tracer {
    fn clone(&self) -> Self {
        Tracer {
            rank: self.rank,
            sink: None,
            flight: self.flight.clone(),
        }
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer")
            .field("rank", &self.rank)
            .field("sink", &self.sink.as_ref().map(|_| "…"))
            .field("flight", &self.flight)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::off(3);
        assert!(!t.active());
        t.emit(5, TraceEvent::EpochChange { epoch: 1 });
        assert!(t.flight_dump(9, "x", Vec::new()).is_none());
    }

    #[test]
    fn sink_and_flight_both_see_events() {
        let mem = MemorySink::new();
        let mut t = Tracer::off(1);
        t.set_sink(Box::new(mem.clone()));
        t.enable_flight_recorder(2);
        for i in 0..4 {
            t.emit(i, TraceEvent::EpochChange { epoch: i as u32 });
        }
        assert_eq!(mem.records().len(), 4);
        let dump = t.flight_dump(10, "test", vec![("x".into(), 7)]).unwrap();
        // Ring kept only the last two.
        assert_eq!(dump.events.len(), 2);
        assert_eq!(dump.events[0].t_ns, 2);
        assert_eq!(dump.reason, "test");
        assert_eq!(dump.counters, vec![("x".to_string(), 7)]);
    }
}
