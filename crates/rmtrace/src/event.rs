//! The event taxonomy: everything a protocol endpoint or the network can
//! tell the trace about one packet's journey.
//!
//! Events are deliberately small and integer-only (the one exception is
//! the network drop cause, a `&'static str` bridged from the simulator's
//! `DropCause` names) so emitting one never allocates.
//!
//! The variants are declared once through `define_events!`, which
//! derives the enum, [`TraceEvent::name`], [`TraceEvent::NAMES`] and the
//! JSON field writer from the same list — so a new event can never be
//! missing from the trace encoding or from the docs test that reads
//! `NAMES`.

use std::fmt::Write as _;

/// How one event field is written as a JSON value: integers bare, the
/// drop cause between quotes (cause names are identifiers, so there is
/// nothing to escape).
trait JsonValue: std::fmt::Display {
    const QUOTE: &'static str = "";
}

impl JsonValue for u16 {}
impl JsonValue for u32 {}
impl JsonValue for u64 {}
impl JsonValue for &'static str {
    const QUOTE: &'static str = "\"";
}

macro_rules! define_events {
    ($(
        $(#[$doc:meta])*
        $name:ident { $( $(#[$fdoc:meta])* $field:ident : $ty:ty, )* },
    )*) => {
        /// A typed protocol event. Sequence-carrying variants identify a
        /// packet by `(transfer, seq)`; `transfer` is the engine's transfer
        /// id (even = allocation handshake, odd = data phase; message id =
        /// `transfer / 2`).
        #[derive(Debug, Clone, PartialEq, Eq)]
        pub enum TraceEvent {
            $( $(#[$doc])* $name { $( $(#[$fdoc])* $field: $ty, )* }, )*
        }

        impl TraceEvent {
            /// Every event's name, in declaration order.
            pub const NAMES: &'static [&'static str] = &[$(stringify!($name)),*];

            /// Stable event-type name used as the JSON `ev` field.
            pub fn name(&self) -> &'static str {
                match self {
                    $( TraceEvent::$name { .. } => stringify!($name), )*
                }
            }

            /// Append `,"field":value` for every field, in declaration
            /// order.
            fn write_json_fields(&self, s: &mut String) {
                match self {
                    $( TraceEvent::$name { $($field),* } => {
                        $(
                            let q = <$ty as JsonValue>::QUOTE;
                            let _ = write!(s, concat!(",\"", stringify!($field), "\":{}{}{}"), q, $field, q);
                        )*
                    } )*
                }
            }
        }
    };
}

define_events! {
    /// Sender put a fresh data packet on the wire.
    DataSent {
        /// Transfer id.
        transfer: u32,
        /// Packet sequence number within the transfer.
        seq: u32,
    },
    /// Sender retransmitted a packet (timeout- or NAK-driven).
    Retransmit {
        /// Transfer id.
        transfer: u32,
        /// Packet sequence number within the transfer.
        seq: u32,
        /// How many times this packet has now been retransmitted.
        nth: u32,
    },
    /// Receiver accepted a data packet into its assembly buffer.
    DataRecv {
        /// Transfer id.
        transfer: u32,
        /// Packet sequence number within the transfer.
        seq: u32,
    },
    /// Receiver discarded a data packet (duplicate or out of window).
    DataDiscarded {
        /// Transfer id.
        transfer: u32,
        /// Packet sequence number within the transfer.
        seq: u32,
    },
    /// Receiver completed a transfer and handed the message to the app.
    Delivered {
        /// Transfer id.
        transfer: u32,
        /// Message id (`transfer / 2`).
        msg_id: u64,
    },
    /// Receiver emitted an acknowledgment.
    AckSent {
        /// Transfer id.
        transfer: u32,
        /// Cumulative next-expected sequence number.
        next: u32,
    },
    /// Sender (or tree parent) processed an acknowledgment.
    AckReceived {
        /// Acknowledging peer's rank.
        from: u16,
        /// Transfer id.
        transfer: u32,
        /// Cumulative next-expected sequence number acknowledged.
        next: u32,
    },
    /// Receiver emitted a negative acknowledgment for a gap.
    NakSent {
        /// Transfer id.
        transfer: u32,
        /// First missing sequence number.
        seq: u32,
    },
    /// Sender processed a negative acknowledgment.
    NakReceived {
        /// Complaining peer's rank.
        from: u16,
        /// Transfer id.
        transfer: u32,
        /// First missing sequence number.
        seq: u32,
    },
    /// A retransmission timer fired at the sender.
    TimeoutFired {
        /// Transfer id.
        transfer: u32,
        /// Consecutive timeouts on this transfer (backoff streak).
        streak: u32,
        /// The RTO in force when the timer fired, in nanoseconds.
        rto_ns: u64,
    },
    /// The send window filled while payload remained (flow-control stall).
    /// Emitted on the transition into the stalled state, not per attempt.
    WindowStall {
        /// Transfer id.
        transfer: u32,
        /// First unreleased sequence number at the stall.
        base: u32,
    },
    /// The release tracker advanced: every packet below `base` left the
    /// window and its buffer was freed.
    WindowRelease {
        /// Transfer id.
        transfer: u32,
        /// New first unreleased sequence number.
        base: u32,
    },
    /// A peer was evicted from its acknowledgment obligation.
    Evicted {
        /// The evicted peer's rank.
        peer: u16,
        /// Transfer id the eviction happened during.
        transfer: u32,
    },
    /// The membership epoch changed.
    EpochChange {
        /// The new epoch.
        epoch: u32,
    },
    /// AIMD multiplicatively shrank the sender's window cap on a
    /// congestion signal (timeout or loss-indicating NAK).
    WindowShrink {
        /// Transfer id.
        transfer: u32,
        /// The new window cap in packets.
        cap: u32,
    },
    /// AIMD additively grew the sender's window cap on acknowledged
    /// progress.
    WindowGrow {
        /// Transfer id.
        transfer: u32,
        /// The new window cap in packets.
        cap: u32,
    },
    /// Feedback-storm pacing began shedding control packets (emitted on
    /// the edge into the shedding state, not per shed packet).
    StormSuppressed {
        /// Transfer id the shed packet targeted.
        transfer: u32,
    },
    /// A lagging receiver was moved into slow-receiver quarantine: it no
    /// longer blocks the window and is served catch-up retransmissions at
    /// a bounded rate.
    QuarantineEnter {
        /// The quarantined peer's rank.
        peer: u16,
        /// Transfer id whose stall triggered the quarantine.
        transfer: u32,
    },
    /// A quarantined receiver left quarantine: caught up and rejoined at a
    /// message boundary (`caught_up == 1`) or was handed to the liveness
    /// path after exhausting its catch-up budget (`caught_up == 0`).
    QuarantineExit {
        /// The peer's rank.
        peer: u16,
        /// Transfer id at the exit.
        transfer: u32,
        /// `1` on rejoin, `0` on budget exhaustion.
        caught_up: u32,
    },
    /// The sender signalled backpressure to the application
    /// (`congested` is `1` on the stall edge, `0` on recovery).
    Backpressure {
        /// Transfer id.
        transfer: u32,
        /// New congestion state (1 = congested, 0 = cleared).
        congested: u32,
    },
    /// The fec sender multicast a reactive coded REPAIR block (the XOR of
    /// `coded` packets, batching disjoint per-receiver losses).
    RepairSent {
        /// Transfer id.
        transfer: u32,
        /// First (lowest) sequence number in the coded block.
        base: u32,
        /// How many packets the block codes together.
        coded: u32,
        /// The block's generation counter (replay gate on receivers).
        generation: u32,
    },
    /// The fec sender multicast a proactive PARITY block (unsolicited XOR
    /// over the last `parity_every` data packets).
    ParitySent {
        /// Transfer id.
        transfer: u32,
        /// First (lowest) sequence number in the coded block.
        base: u32,
        /// How many packets the block codes together.
        coded: u32,
    },
    /// A receiver reconstructed a missing data packet from a coded block
    /// plus its held packets.
    RepairDecoded {
        /// Transfer id.
        transfer: u32,
        /// The sequence number decoded back into existence.
        seq: u32,
    },
    /// The network dropped a datagram (bridged from the simulator's
    /// `DropCause`; rank is the host where the drop happened).
    Drop {
        /// Stable drop-cause name (e.g. `"BurstLoss"`).
        cause: &'static str,
    },
}

/// One trace record: an event stamped with time and endpoint rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// Nanoseconds since the run's origin (virtual time under the
    /// simulator, wall clock since a shared epoch over real sockets).
    pub t_ns: u64,
    /// Emitting endpoint's rank (0 = sender) or simulator host id.
    pub rank: u16,
    /// The event.
    pub ev: TraceEvent,
}

impl TraceRecord {
    /// Encode as one JSON object (no trailing newline). The field order
    /// is fixed so identical runs produce byte-identical traces.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"t\":{},\"rank\":{},\"ev\":\"{}\"",
            self.t_ns,
            self.rank,
            self.ev.name()
        );
        self.ev.write_json_fields(&mut s);
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_shape_is_stable() {
        let r = TraceRecord {
            t_ns: 1500,
            rank: 2,
            ev: TraceEvent::Retransmit {
                transfer: 3,
                seq: 7,
                nth: 1,
            },
        };
        assert_eq!(
            r.to_json(),
            "{\"t\":1500,\"rank\":2,\"ev\":\"Retransmit\",\"transfer\":3,\"seq\":7,\"nth\":1}"
        );
        let d = TraceRecord {
            t_ns: 0,
            rank: 5,
            ev: TraceEvent::Drop { cause: "BurstLoss" },
        };
        assert_eq!(
            d.to_json(),
            "{\"t\":0,\"rank\":5,\"ev\":\"Drop\",\"cause\":\"BurstLoss\"}"
        );
    }

    #[test]
    fn fec_event_json_shape_is_stable() {
        let r = TraceRecord {
            t_ns: 7,
            rank: 0,
            ev: TraceEvent::RepairSent {
                transfer: 1,
                base: 4,
                coded: 3,
                generation: 2,
            },
        };
        assert_eq!(
            r.to_json(),
            "{\"t\":7,\"rank\":0,\"ev\":\"RepairSent\",\"transfer\":1,\"base\":4,\"coded\":3,\"generation\":2}"
        );
        let p = TraceRecord {
            t_ns: 8,
            rank: 0,
            ev: TraceEvent::ParitySent {
                transfer: 1,
                base: 0,
                coded: 8,
            },
        };
        assert_eq!(
            p.to_json(),
            "{\"t\":8,\"rank\":0,\"ev\":\"ParitySent\",\"transfer\":1,\"base\":0,\"coded\":8}"
        );
        let d = TraceRecord {
            t_ns: 9,
            rank: 3,
            ev: TraceEvent::RepairDecoded {
                transfer: 1,
                seq: 5,
            },
        };
        assert_eq!(
            d.to_json(),
            "{\"t\":9,\"rank\":3,\"ev\":\"RepairDecoded\",\"transfer\":1,\"seq\":5}"
        );
    }

    #[test]
    fn overload_event_json_shape_is_stable() {
        let w = TraceRecord {
            t_ns: 9,
            rank: 0,
            ev: TraceEvent::WindowShrink {
                transfer: 1,
                cap: 4,
            },
        };
        assert_eq!(
            w.to_json(),
            "{\"t\":9,\"rank\":0,\"ev\":\"WindowShrink\",\"transfer\":1,\"cap\":4}"
        );
        let q = TraceRecord {
            t_ns: 10,
            rank: 0,
            ev: TraceEvent::QuarantineExit {
                peer: 3,
                transfer: 1,
                caught_up: 1,
            },
        };
        assert_eq!(
            q.to_json(),
            "{\"t\":10,\"rank\":0,\"ev\":\"QuarantineExit\",\"peer\":3,\"transfer\":1,\"caught_up\":1}"
        );
        let b = TraceRecord {
            t_ns: 11,
            rank: 0,
            ev: TraceEvent::Backpressure {
                transfer: 1,
                congested: 1,
            },
        };
        assert_eq!(
            b.to_json(),
            "{\"t\":11,\"rank\":0,\"ev\":\"Backpressure\",\"transfer\":1,\"congested\":1}"
        );
    }
}
