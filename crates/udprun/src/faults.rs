//! Overload fault injection for the real-socket backend: the udprun
//! counterpart of netsim's feedback-storm / CPU-saturation / socket-buffer
//! fault windows.
//!
//! Faults wrap an [`Endpoint`] at its datagram boundary, so the drive
//! loop, the hub and the protocol engines stay untouched — exactly as the
//! simulator injects its faults at the wire, never inside an engine:
//!
//! - **Feedback storm**: every inbound datagram is re-handled `amplify`
//!   extra times. Aimed at the sender this is ACK/NAK implosion — the
//!   duplicate-NAK filter and the token-bucket shedder must absorb it.
//! - **Saturated CPU**: a real `sleep` before each datagram is processed;
//!   the node stays correct but falls far behind the group.
//! - **Blackout**: every datagram arriving inside a wall-clock window is
//!   discarded unseen, like a kernel dropping on a full socket buffer —
//!   total inbound silence, the slow-receiver quarantine trigger.

use rmcast::{AppEvent, Endpoint, Stats, Transmit};
use rmwire::Time;
use std::time::Duration as StdDuration;

/// Overload faults applied to one node's endpoint. The default is a
/// transparent passthrough.
#[derive(Debug, Clone, Default)]
pub struct NodeFaults {
    /// Re-handle every inbound datagram this many *extra* times: a
    /// feedback storm (control implosion) at the wrapped node without
    /// putting extra traffic on the wire.
    pub storm_amplify: u32,
    /// Sleep this long before processing each inbound datagram — a
    /// saturated CPU. Applied after the blackout check: a dropped
    /// datagram costs nothing, it was never seen.
    pub per_datagram_delay: Option<StdDuration>,
    /// Discard every inbound datagram arriving in `[from, until)`
    /// (wall-clock since the run epoch): an exhausted socket buffer.
    pub blackout: Option<(StdDuration, StdDuration)>,
}

/// An endpoint with [`NodeFaults`] applied at its datagram boundary;
/// every other `Endpoint` operation delegates untouched.
pub struct FaultedEndpoint<E> {
    inner: E,
    faults: NodeFaults,
    dropped: u64,
}

impl<E: Endpoint> FaultedEndpoint<E> {
    /// Wrap `inner` with `faults`.
    pub fn new(inner: E, faults: NodeFaults) -> Self {
        FaultedEndpoint {
            inner,
            faults,
            dropped: 0,
        }
    }

    /// Inbound datagrams the blackout window discarded.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

impl<E: Endpoint> Endpoint for FaultedEndpoint<E> {
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]) {
        if let Some((from, until)) = self.faults.blackout {
            let from = Time::from_nanos(from.as_nanos() as u64);
            let until = Time::from_nanos(until.as_nanos() as u64);
            if now >= from && now < until {
                self.dropped += 1;
                return;
            }
        }
        if let Some(d) = self.faults.per_datagram_delay {
            std::thread::sleep(d);
        }
        self.inner.handle_datagram(now, datagram);
        for _ in 0..self.faults.storm_amplify {
            self.inner.handle_datagram(now, datagram);
        }
    }

    fn handle_timeout(&mut self, now: Time) {
        self.inner.handle_timeout(now);
    }

    fn poll_timeout(&self) -> Option<Time> {
        self.inner.poll_timeout()
    }

    fn poll_transmit(&mut self) -> Option<Transmit> {
        self.inner.poll_transmit()
    }

    fn poll_event(&mut self) -> Option<AppEvent> {
        self.inner.poll_event()
    }

    fn stats(&self) -> &Stats {
        self.inner.stats()
    }

    fn is_idle(&self) -> bool {
        self.inner.is_idle()
    }

    fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        self.inner.set_trace_sink(sink);
    }

    fn enable_flight_recorder(&mut self, cap: usize) {
        self.inner.enable_flight_recorder(cap);
    }
}
