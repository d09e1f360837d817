//! Per-endpoint instrumentation.
//!
//! These counters feed the paper's Table 2 (control packets per data
//! packet) and Table 1 (memory requirement) reproductions, and every
//! experiment's sanity checks.
//!
//! The fields are declared once through `define_stats!`, which derives
//! the struct, [`Stats::merge`] and the `(name, value)` field enumeration
//! from the same list — so a newly added counter can never be silently
//! dropped from aggregation or from flight-recorder snapshots (a guard
//! test below asserts every field participates).

macro_rules! merge_field {
    (sum, $a:expr, $b:expr) => {
        $a += $b
    };
    (max, $a:expr, $b:expr) => {
        $a = $a.max($b)
    };
}

macro_rules! define_stats {
    ($( $(#[$doc:meta])* $name:ident : $kind:ident, )*) => {
        /// Counters maintained by every [`crate::Sender`] / [`crate::Receiver`].
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct Stats {
            $( $(#[$doc])* pub $name: u64, )*
        }

        impl Stats {
            /// Number of counter fields (kept in lockstep with the struct
            /// by construction).
            pub const FIELD_COUNT: usize = [$(stringify!($name)),*].len();

            /// Merge another endpoint's counters into this one (used to
            /// aggregate across receivers). Each field combines according
            /// to its declared kind: `sum` adds, `max` keeps the peak.
            pub fn merge(&mut self, other: &Stats) {
                $( merge_field!($kind, self.$name, other.$name); )*
            }

            /// Every counter as a `(name, value)` pair, in declaration
            /// order (flight-recorder snapshots, reports).
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![ $( (stringify!($name), self.$name), )* ]
            }

            /// Every counter's declared merge kind (`"sum"` or `"max"`),
            /// in declaration order.
            pub fn field_kinds() -> Vec<(&'static str, &'static str)> {
                vec![ $( (stringify!($name), stringify!($kind)), )* ]
            }
        }
    };
}

define_stats! {
    /// Original (non-retransmitted) data packets sent.
    data_sent: sum,
    /// Retransmitted data packets sent.
    retx_sent: sum,
    /// Data packets received (duplicates included).
    data_received: sum,
    /// Duplicate or out-of-window data packets discarded.
    data_discarded: sum,
    /// ACK packets sent.
    acks_sent: sum,
    /// ACK packets received (and processed).
    acks_received: sum,
    /// NAK packets sent.
    naks_sent: sum,
    /// NAK packets received.
    naks_received: sum,
    /// NAKs a receiver wanted to send but suppressed (rate limit or
    /// overheard multicast NAK).
    naks_suppressed: sum,
    /// Retransmissions suppressed by the sender-side scheme.
    retx_suppressed: sum,
    /// Bytes copied from the user buffer into protocol buffers (the cost
    /// Figure 9 isolates).
    user_copy_bytes: sum,
    /// Application payload bytes carried in data packets sent.
    payload_bytes_sent: sum,
    /// Messages fully sent (sender) or delivered (receiver).
    messages_completed: sum,
    /// High-water mark of bytes held in the protocol window / receive
    /// buffers (Table 1's "memory requirement").
    peak_buffer_bytes: max,
    /// Malformed datagrams ignored.
    decode_errors: sum,
    /// Retransmission timeouts that fired.
    timeouts: sum,
    /// Messages abandoned under the liveness bounds (sender giving up or a
    /// receiver declaring the sender dead).
    messages_failed: sum,
    /// Peers evicted from the proof obligation by straggler eviction.
    evictions: sum,
    /// Heartbeat packets sent (sender announces, receiver replies).
    heartbeats_sent: sum,
    /// Heartbeat packets received.
    heartbeats_received: sum,
    /// Members admitted into the group (sender) or SYNC handoffs processed
    /// (receiver).
    joins: sum,
    /// Members that crossed the failure detector's suspect threshold.
    suspects: sum,
    /// ACK/NAK packets discarded because they carried a stale membership
    /// epoch.
    stale_epoch_discarded: sum,
    /// Datagrams rejected by strict decode (truncation, unknown types or
    /// flags, trailing garbage, out-of-range fields). A subset of
    /// `decode_errors`, which remains the umbrella count.
    malformed_rx: sum,
    /// Datagrams rejected by the payload integrity check (CRC-32C trailer
    /// mismatch, or a missing trailer under an integrity-enforcing
    /// configuration). Also counted under `decode_errors`.
    integrity_fail: sum,
    /// AIMD window cap reductions (multiplicative decrease on a congestion
    /// signal).
    window_shrinks: sum,
    /// AIMD window cap increases (additive recovery on acknowledged
    /// progress).
    window_grows: sum,
    /// ACK packets shed unprocessed by feedback-storm pacing (their
    /// acknowledgment horizon was still noted for quarantined peers).
    acks_shed: sum,
    /// NAK packets shed unprocessed by feedback-storm pacing.
    naks_shed: sum,
    /// Duplicate NAKs collapsed by the aggregated-duplicate filter before
    /// reaching retransmission bookkeeping.
    naks_collapsed: sum,
    /// Receivers moved into slow-receiver quarantine (taken off the
    /// window's critical path).
    quarantine_entered: sum,
    /// Quarantined receivers that caught up and rejoined at a message
    /// boundary.
    quarantine_rejoined: sum,
    /// Quarantined receivers that exhausted their catch-up budget and were
    /// resolved through the liveness path (evicted or message failed).
    quarantine_evicted: sum,
    /// Backpressure edges signalled to the application (congested and
    /// cleared transitions both count).
    backpressure_signals: sum,
    /// Catch-up retransmissions unicast to quarantined receivers.
    catchup_retx_sent: sum,
    /// Coded REPAIR packets multicast by the fec sender (each heals a
    /// whole batch of disjoint per-receiver losses at once).
    repairs_sent: sum,
    /// Proactive PARITY packets multicast by the fec sender (unsolicited
    /// XOR over the last `parity_every` data packets).
    parity_sent: sum,
    /// NAKed packets that were folded into a coded repair block instead of
    /// being retransmitted individually (fec's saving over plain NAK).
    naks_coded: sum,
    /// REPAIR/PARITY packets received (before any decode decision).
    repairs_received: sum,
    /// Coded blocks that successfully reconstructed a missing packet.
    repairs_decoded: sum,
    /// Coded blocks naming no packet this receiver was missing.
    repairs_useless: sum,
    /// Coded blocks naming two or more missing packets (or otherwise
    /// undecodable: oversized payload, unknown geometry, seqs beyond the
    /// transfer).
    repairs_undecodable: sum,
    /// Coded blocks dropped by the replay gate (generation not strictly
    /// increasing for the transfer).
    repairs_replayed: sum,
}

impl Stats {
    /// Record a buffer occupancy sample, keeping the peak.
    pub fn sample_buffer(&mut self, bytes: usize) {
        self.peak_buffer_bytes = self.peak_buffer_bytes.max(bytes as u64);
    }

    /// Control packets sent (ACKs + NAKs).
    pub fn control_sent(&self) -> u64 {
        self.acks_sent + self.naks_sent
    }

    /// Control packets received.
    pub fn control_received(&self) -> u64 {
        self.acks_received + self.naks_received
    }

    /// Control packets received at this endpoint per data packet it sent —
    /// the sender-side column of the paper's Table 2.
    pub fn control_per_data_packet(&self) -> f64 {
        if self.data_sent == 0 {
            0.0
        } else {
            self.control_received() as f64 / self.data_sent as f64
        }
    }

    /// Counter snapshot as owned `(name, value)` pairs (flight recorder).
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        self.fields()
            .into_iter()
            .map(|(n, v)| (n.to_string(), v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `Stats` with every counter set to `v` (merge-guard helper). The
    /// literal below must name every field — the struct has no `..` rest
    /// here, so adding a counter to `define_stats!` fails this helper at
    /// compile time until it is added, and the `all == 1` assert catches
    /// a field accidentally initialized to something else.
    fn all_set(v: u64) -> Stats {
        let mut s = Stats::default();
        let ones = Stats {
            data_sent: 1,
            retx_sent: 1,
            data_received: 1,
            data_discarded: 1,
            acks_sent: 1,
            acks_received: 1,
            naks_sent: 1,
            naks_received: 1,
            naks_suppressed: 1,
            retx_suppressed: 1,
            user_copy_bytes: 1,
            payload_bytes_sent: 1,
            messages_completed: 1,
            peak_buffer_bytes: 1,
            decode_errors: 1,
            timeouts: 1,
            messages_failed: 1,
            evictions: 1,
            heartbeats_sent: 1,
            heartbeats_received: 1,
            joins: 1,
            suspects: 1,
            stale_epoch_discarded: 1,
            malformed_rx: 1,
            integrity_fail: 1,
            window_shrinks: 1,
            window_grows: 1,
            acks_shed: 1,
            naks_shed: 1,
            naks_collapsed: 1,
            quarantine_entered: 1,
            quarantine_rejoined: 1,
            quarantine_evicted: 1,
            backpressure_signals: 1,
            catchup_retx_sent: 1,
            repairs_sent: 1,
            parity_sent: 1,
            naks_coded: 1,
            repairs_received: 1,
            repairs_decoded: 1,
            repairs_useless: 1,
            repairs_undecodable: 1,
            repairs_replayed: 1,
        };
        assert!(
            ones.fields().iter().all(|&(_, x)| x == 1),
            "all_set() helper missed a field; update it"
        );
        for _ in 0..v {
            s.merge(&ones);
        }
        // Max-kind fields saturate at 1 under repeated merge; fix them up.
        for (name, kind) in Stats::field_kinds() {
            if kind == "max" {
                match name {
                    "peak_buffer_bytes" => s.peak_buffer_bytes = v,
                    other => panic!("new max field {other} needs a setter here"),
                }
            }
        }
        s
    }

    #[test]
    fn peak_tracking() {
        let mut s = Stats::default();
        s.sample_buffer(100);
        s.sample_buffer(50);
        assert_eq!(s.peak_buffer_bytes, 100);
        s.sample_buffer(200);
        assert_eq!(s.peak_buffer_bytes, 200);
    }

    #[test]
    fn ratios() {
        let mut s = Stats::default();
        assert_eq!(s.control_per_data_packet(), 0.0);
        s.data_sent = 10;
        s.acks_received = 25;
        s.naks_received = 5;
        assert_eq!(s.control_sent(), 0);
        assert_eq!(s.control_received(), 30);
        assert_eq!(s.control_per_data_packet(), 3.0);
    }

    #[test]
    fn merge_sums_and_maxes() {
        let mut a = Stats {
            data_sent: 1,
            peak_buffer_bytes: 10,
            ..Stats::default()
        };
        let b = Stats {
            data_sent: 2,
            peak_buffer_bytes: 5,
            ..Stats::default()
        };
        a.merge(&b);
        assert_eq!(a.data_sent, 3);
        assert_eq!(a.peak_buffer_bytes, 10);
    }

    /// The field-count guard: every declared counter is enumerated and
    /// participates in `merge` with its declared kind. Adding a field to
    /// `define_stats!` automatically extends both; adding one anywhere else
    /// is impossible (the macro owns the struct).
    #[test]
    fn every_field_merges() {
        let mut a = all_set(1);
        let b = all_set(2);
        assert_eq!(b.fields().len(), Stats::FIELD_COUNT);
        assert_eq!(Stats::field_kinds().len(), Stats::FIELD_COUNT);

        // Merge combines every field: sum fields become 1+2, max fields
        // become max(1, 2). A field merge forgot would still read 1.
        a.merge(&b);
        for ((name, v), (_, kind)) in a.fields().into_iter().zip(Stats::field_kinds()) {
            match kind {
                "sum" => assert_eq!(v, 3, "field {name} dropped from merge (sum)"),
                "max" => assert_eq!(v, 2, "field {name} dropped from merge (max)"),
                other => panic!("unknown merge kind {other} on {name}"),
            }
        }
    }
}
