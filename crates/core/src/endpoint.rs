//! The sans-io endpoint interface.
//!
//! A protocol engine is driven entirely from outside:
//!
//! ```text
//!            datagram in ─────► handle_datagram
//!            deadline hit ────► handle_timeout
//!
//!            poll_transmit ──► datagrams to put on the wire
//!            poll_timeout ───► next deadline to call handle_timeout at
//!            poll_event ─────► application-visible completions
//! ```
//!
//! The driver (simulator host adapter, UDP thread, or the in-process
//! loopback) owns sockets and clocks; the engine owns all protocol state.

use crate::error::SessionError;
use crate::stats::Stats;
use bytes::Bytes;
use rmtrace::Tracer;
use rmwire::{Rank, Time};
use std::collections::VecDeque;

/// Where a produced datagram should go. The driver maps these onto real
/// addresses (simulated host/port, UDP socket address, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dest {
    /// Unicast to the group's sender (rank 0).
    Sender,
    /// Unicast to one receiver.
    Rank(Rank),
    /// Multicast to the receiver group.
    Receivers,
}

/// One datagram the engine wants transmitted.
#[derive(Debug, Clone)]
pub struct Transmit {
    /// Destination.
    pub dest: Dest,
    /// Full wire payload (header + body).
    pub payload: Bytes,
    /// Bytes that were logically copied from the user buffer into the
    /// protocol buffer to build this packet; the driver charges the
    /// user-space copy cost for them (zero when the copy is disabled or
    /// for control packets).
    pub copied: usize,
}

/// Application-visible events.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AppEvent {
    /// The sender finished a message: every receiver provably holds it and
    /// all buffers are released.
    MessageSent {
        /// Message index (0-based, in submission order).
        msg_id: u64,
    },
    /// A receiver delivered a complete message.
    MessageDelivered {
        /// Message index.
        msg_id: u64,
        /// The reassembled payload.
        data: Bytes,
    },
    /// A message session was abandoned under the liveness bounds
    /// ([`crate::config::LivenessConfig`]) instead of completing.
    MessageFailed {
        /// Message index.
        msg_id: u64,
        /// Why the session was abandoned.
        error: SessionError,
    },
    /// Straggler eviction removed a peer from the proof obligation: the
    /// sender (or a tree aggregation node) stopped waiting for it.
    ReceiverEvicted {
        /// Message in transfer when the eviction happened.
        msg_id: u64,
        /// The evicted peer.
        rank: Rank,
    },
    /// Dynamic membership admitted a (re)joining receiver at a message
    /// boundary: it is part of the proof obligation from `epoch` on.
    ReceiverJoined {
        /// The admitted peer.
        rank: Rank,
        /// The membership epoch created by the admission.
        epoch: u32,
    },
    /// Sender→application backpressure (edge-triggered): `congested: true`
    /// when AIMD has shrunk the window below its configured size and the
    /// send path has stalled on it — publishers should slow down;
    /// `congested: false` once the window recovers and sending resumes.
    Backpressure {
        /// Message in transfer when the edge fired.
        msg_id: u64,
        /// The new congestion state.
        congested: bool,
    },
    /// The endpoint's flight recorder captured a post-mortem snapshot at
    /// the moment a failure was recorded (`messages_failed` increment /
    /// liveness bound trip). Emitted only when a flight recorder was
    /// enabled via [`Endpoint::enable_flight_recorder`].
    FlightRecorderDump {
        /// The last events, counter snapshot, and reason.
        dump: rmtrace::FlightDump,
    },
}

/// Whether an endpoint is the group's sender or one of its receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Rank 0.
    Sender,
    /// Ranks `1..=N`.
    Receiver(Rank),
}

/// The driver-facing face of every protocol engine.
pub trait Endpoint {
    /// Feed one received datagram (UDP payload) at local time `now`.
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]);

    /// Notify that `now >= poll_timeout()`.
    fn handle_timeout(&mut self, now: Time);

    /// The next instant [`Endpoint::handle_timeout`] must be called, if
    /// any. Re-query after every other call; deadlines move.
    fn poll_timeout(&self) -> Option<Time>;

    /// Take the next datagram to transmit, if any. Drivers drain this
    /// after every `handle_*` call.
    fn poll_transmit(&mut self) -> Option<Transmit>;

    /// Take the next application event, if any.
    fn poll_event(&mut self) -> Option<AppEvent>;

    /// Instrumentation counters.
    fn stats(&self) -> &Stats;

    /// `true` when the endpoint has nothing in flight and nothing queued:
    /// drivers may use this for quiescence detection.
    fn is_idle(&self) -> bool;

    /// Attach a trace sink receiving this endpoint's protocol events.
    /// Engines without tracing support ignore the sink (default).
    fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        let _ = sink;
    }

    /// Keep the last `cap` events in a flight recorder, dumped as an
    /// [`AppEvent::FlightRecorderDump`] when a failure is recorded.
    /// Ignored by engines without tracing support (default).
    fn enable_flight_recorder(&mut self, cap: usize) {
        let _ = cap;
    }
}

/// An endpoint's outputs, lent to one of its layers for one call: its
/// counters, its trace, and its datagram and application-event queues.
pub(crate) struct Io<'a> {
    pub(crate) stats: &'a mut Stats,
    pub(crate) tracer: &'a mut Tracer,
    pub(crate) out: &'a mut VecDeque<Transmit>,
    pub(crate) events: &'a mut VecDeque<AppEvent>,
}

/// Lend an endpoint's outputs to a layer call. The borrows are of single
/// fields, so the layer itself can be borrowed alongside.
macro_rules! io {
    ($s:ident) => {
        &mut $crate::endpoint::Io {
            stats: &mut $s.stats,
            tracer: &mut $s.tracer,
            out: &mut $s.out,
            events: &mut $s.events,
        }
    };
}
pub(crate) use io;
