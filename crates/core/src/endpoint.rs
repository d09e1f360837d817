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
//!
//! Each engine also owns its outputs in one [`Io`]: counters, trace, and
//! the datagrams and events not yet taken. Its layers are lent `&mut` to
//! that value, and the drain side of [`Endpoint`] (`poll_transmit`,
//! `poll_event`, `stats`, the trace hooks) is written once over it.

use crate::error::SessionError;
use crate::packet::{self, Packet};
use crate::stats::Stats;
use bytes::Bytes;
use rmtrace::{DropCause, TraceEvent, Tracer};
use rmwire::{Rank, Time, WireError};
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

/// The driver-facing face of every protocol engine. An engine writes its
/// inputs, its deadline and its idleness, and lends its [`Io`]; the drain
/// methods are provided over that.
pub trait Endpoint {
    /// Feed one received datagram (UDP payload) at local time `now`.
    fn handle_datagram(&mut self, now: Time, datagram: &[u8]);

    /// Notify that `now >= poll_timeout()`.
    fn handle_timeout(&mut self, now: Time);

    /// The next instant [`Endpoint::handle_timeout`] must be called, if
    /// any. Re-query after every other call; deadlines move.
    fn poll_timeout(&self) -> Option<Time>;

    /// `true` when the endpoint has nothing in flight and nothing queued:
    /// drivers may use this for quiescence detection.
    fn is_idle(&self) -> bool;

    /// The engine's outputs.
    fn io(&self) -> &Io;

    /// The engine's outputs, for the drain methods.
    fn io_mut(&mut self) -> &mut Io;

    /// Take the next datagram to transmit, if any, sealed when integrity
    /// is on. Drivers drain this after every `handle_*` call.
    fn poll_transmit(&mut self) -> Option<Transmit> {
        let io = self.io_mut();
        let mut tx = io.out.pop_front()?;
        if io.integrity {
            tx.payload = packet::seal_in_place(tx.payload);
        }
        Some(tx)
    }

    /// Take the next application event, if any.
    fn poll_event(&mut self) -> Option<AppEvent> {
        self.io_mut().events.pop_front()
    }

    /// Instrumentation counters.
    fn stats(&self) -> &Stats {
        &self.io().stats
    }

    /// Attach a trace sink receiving this endpoint's protocol events.
    fn set_trace_sink(&mut self, sink: Box<dyn rmtrace::TraceSink>) {
        self.io_mut().tracer.set_sink(sink);
    }

    /// Keep the last `cap` events in a flight recorder, dumped as an
    /// [`AppEvent::FlightRecorderDump`] when a failure is recorded.
    fn enable_flight_recorder(&mut self, cap: usize) {
        self.io_mut().tracer.enable_flight_recorder(cap);
    }
}

/// An engine's outputs: its counters, its trace, and the datagrams and
/// application events it has produced that the driver has not taken yet.
/// Every engine holds exactly one and lends it, `&mut`, to each of its
/// layers; [`Endpoint`]'s drain methods read from it.
#[derive(Clone)]
pub struct Io {
    pub(crate) stats: Stats,
    pub(crate) tracer: Tracer,
    pub(crate) out: VecDeque<Transmit>,
    pub(crate) events: VecDeque<AppEvent>,
    /// Check the CRC32C trailer of every datagram parsed and append one
    /// to every datagram taken.
    integrity: bool,
}

impl Io {
    /// Empty outputs for the engine at `rank`, with its tracer off.
    pub(crate) fn new(rank: Rank, integrity: bool) -> Self {
        Io {
            stats: Stats::default(),
            tracer: Tracer::off(rank.0),
            out: VecDeque::new(),
            events: VecDeque::new(),
            integrity,
        }
    }

    /// Parse a received datagram. One that does not parse is counted and
    /// traced as a drop at `now`, and yields `None`.
    pub(crate) fn parse<'d>(&mut self, now: Time, datagram: &'d [u8]) -> Option<Packet<'d>> {
        let e = match Packet::parse_checked(datagram, self.integrity) {
            Ok(p) => return Some(p),
            Err(e) => e,
        };
        self.stats.decode_errors += 1;
        let cause = match e {
            WireError::ChecksumMismatch { .. } | WireError::ChecksumMissing => {
                self.stats.integrity_fail += 1;
                DropCause::IntegrityFail
            }
            _ => {
                self.stats.malformed_rx += 1;
                DropCause::MalformedRx
            }
        };
        self.tracer.emit(now.as_nanos(), TraceEvent::Drop { cause });
        None
    }

    /// Queue a control datagram: one that copied no user bytes.
    pub(crate) fn send(&mut self, dest: Dest, payload: Bytes) {
        self.out.push_back(Transmit {
            dest,
            payload,
            copied: 0,
        });
    }

    /// Queue the flight recorder's post-mortem, if one is enabled, for a
    /// failure just counted.
    pub(crate) fn flight_dump(&mut self, now: Time, reason: &str) {
        let snapshot = self.stats.snapshot();
        if let Some(dump) = self.tracer.flight_dump(now.as_nanos(), reason, snapshot) {
            self.events.push_back(AppEvent::FlightRecorderDump { dump });
        }
    }
}
