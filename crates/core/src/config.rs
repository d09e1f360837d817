//! Protocol selection and tuning parameters.

use crate::overload::OverloadConfig;
use rmwire::Duration;

/// Which reliable multicast protocol family to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// Every receiver acknowledges every data packet.
    Ack,
    /// Receivers NAK gaps; every `poll_interval`-th packet (and the last)
    /// must be acknowledged.
    NakPolling {
        /// Packets between POLL flags (`1` degenerates to ACK-based).
        poll_interval: usize,
        /// When `true`, receivers delay NAKs randomly and multicast them so
        /// other receivers can suppress duplicates (the scheme of
        /// Pingali's thesis, cited as \[16\]); when `false`, NAKs go
        /// straight to the sender, which suppresses duplicate
        /// retransmissions (the paper's implementation).
        receiver_multicast_nak: bool,
    },
    /// Rotating token site: packet `p` is acknowledged by receiver
    /// `p mod N`; the last packet by everyone; NAKs go to the sender.
    Ring,
    /// Acknowledgments aggregate up a logical tree; the sender performs all
    /// retransmissions (the paper's LAN adaptation).
    Tree {
        /// Shape of the logical structure.
        shape: TreeShape,
    },
    /// FEC / network-coded repair on top of the NAK machinery: NAKs from
    /// different receivers are batched in a sender-side coding buffer and
    /// disjoint loss sets are XOR-combined into one multicast REPAIR
    /// packet; optionally a proactive PARITY packet (the XOR of the last
    /// `parity_every` data packets) rides along so single losses heal with
    /// no feedback round trip at all. Requires selective repeat and the
    /// allocation handshake (receivers must hold out-of-order packets to
    /// have decode material).
    Fec {
        /// Packets between POLL flags, exactly as in
        /// [`ProtocolKind::NakPolling`].
        poll_interval: usize,
        /// Emit one proactive parity packet after every `parity_every`
        /// fresh data packets (`0` disables proactive parity; otherwise
        /// `2..=64`).
        parity_every: usize,
        /// Most data packets ever XOR-combined into one repair block
        /// (`1..=64`; the wire bitmap is 64 bits wide).
        max_coded: usize,
    },
}

impl ProtocolKind {
    /// The paper's NAK-based protocol: sender-side suppression only.
    pub fn nak_polling(poll_interval: usize) -> ProtocolKind {
        ProtocolKind::NakPolling {
            poll_interval,
            receiver_multicast_nak: false,
        }
    }

    /// A flat tree of the given height.
    pub fn flat_tree(height: usize) -> ProtocolKind {
        ProtocolKind::Tree {
            shape: TreeShape::Flat { height },
        }
    }

    /// The coded-repair family with proactive parity every 8 packets and
    /// up to 16 packets per repair block.
    pub fn fec(poll_interval: usize) -> ProtocolKind {
        ProtocolKind::Fec {
            poll_interval,
            parity_every: 8,
            max_coded: 16,
        }
    }

    /// Short lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ProtocolKind::Ack => "ack",
            ProtocolKind::NakPolling { .. } => "nak",
            ProtocolKind::Ring => "ring",
            ProtocolKind::Tree {
                shape: TreeShape::Flat { .. },
            } => "tree-flat",
            ProtocolKind::Tree {
                shape: TreeShape::Binary,
            } => "tree-binary",
            ProtocolKind::Fec { .. } => "fec",
        }
    }
}

/// Logical structure imposed on the receiver set by the tree protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeShape {
    /// The paper's flat tree: `ceil(N/H)` chains of `H` receivers each;
    /// chain heads report to the sender, every other node to the node
    /// before it in the chain. `H = 1` is exactly the ACK protocol;
    /// `H = N` is a single chain.
    Flat {
        /// Chain length (tree height).
        height: usize,
    },
    /// A binary tree (Figure 4): receiver 1 is the root reporting to the
    /// sender; receiver `r` reports to receiver `r / 2`. Included as the
    /// structure the paper argues *against* for LANs.
    Binary,
}

/// Go-Back-N versus selective repeat (paper §4 *Flow control* argues they
/// tie on error-free LANs; `bench`'s ablation checks it).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WindowDiscipline {
    /// Retransmit everything from the lost packet onward; receivers drop
    /// out-of-order packets.
    #[default]
    GoBackN,
    /// Retransmit only what was lost; receivers buffer out-of-order
    /// packets inside the window.
    SelectiveRepeat,
}

/// Ceiling for a bounded sender's backed-off RTO (ignored when it is below
/// the base `rto`).
pub(crate) const RTO_MAX: Duration = Duration::from_secs(5);

/// Liveness bounds: what the engine does when a peer stops responding.
///
/// The paper's protocols (and the default here) retry forever at a fixed
/// RTO — correct on a LAN whose members stay up, but a single crashed
/// receiver then wedges the sender permanently. These knobs bound that
/// loop: a transfer that makes no window progress for `max_retx`
/// consecutive timeouts is resolved — either by evicting the stragglers
/// that gate the release rule and completing to the surviving set, or by
/// abandoning the message with a typed [`crate::error::SessionError`].
/// A bounded sender also backs off: its RTO doubles on each consecutive
/// timeout, up to 5 s, and window progress resets it to
/// `ProtocolConfig::rto`. Defaults are all-off so existing figures
/// reproduce byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LivenessConfig {
    /// Consecutive timeouts without window progress before the sender
    /// gives up on a transfer. `None` retries forever at a fixed RTO (the
    /// paper's behavior); `Some` also turns on exponential RTO backoff.
    pub max_retx: Option<u32>,
    /// On hitting `max_retx`, evict the receivers gating the release rule
    /// and complete to the survivors instead of abandoning the message.
    /// The sender only fails a message once every receiver is evicted.
    pub evict_stragglers: bool,
    /// A receiver that hears nothing for this long while transfers are
    /// incomplete declares the sender dead and abandons them
    /// ([`crate::error::SessionError::SenderStalled`]).
    pub receiver_giveup: Option<Duration>,
    /// Tree mode: an aggregation node whose child's acknowledgment has not
    /// advanced for this long (while behind this node's own progress)
    /// drops the child from its aggregate, rerouting the ack chain around
    /// the dead subtree.
    pub child_evict_timeout: Option<Duration>,
}

impl Default for LivenessConfig {
    fn default() -> Self {
        LivenessConfig::PAPER
    }
}

impl LivenessConfig {
    /// The paper's behavior: retry forever, never evict, never give up.
    pub const PAPER: LivenessConfig = LivenessConfig {
        max_retx: None,
        evict_stragglers: false,
        receiver_giveup: None,
        child_evict_timeout: None,
    };

    /// Bounded retries with exponential backoff: give up (typed error)
    /// after `max_retx` consecutive timeouts without progress.
    pub fn bounded(max_retx: u32) -> LivenessConfig {
        LivenessConfig {
            max_retx: Some(max_retx),
            ..LivenessConfig::PAPER
        }
    }

    /// [`LivenessConfig::bounded`] plus straggler eviction: complete every
    /// message to the surviving receiver set instead of failing it.
    pub fn evicting(max_retx: u32) -> LivenessConfig {
        LivenessConfig {
            evict_stragglers: true,
            ..LivenessConfig::bounded(max_retx)
        }
    }
}

/// Full configuration of one protocol run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProtocolConfig {
    /// Protocol family and its family-specific parameters.
    pub kind: ProtocolKind,
    /// Application data bytes per packet (the paper's "packet size").
    pub packet_size: usize,
    /// Sender window size in packets (the paper's "window size"; total
    /// protocol buffer = `packet_size * window`).
    pub window: usize,
    /// Retransmission timeout for the oldest unacknowledged packet.
    pub rto: Duration,
    /// Minimum spacing between retransmissions of the same packet (the
    /// paper's sender-side suppression: "a retransmission will happen only
    /// after a designated period of time has passed since the previous
    /// transmission").
    pub retx_suppress: Duration,
    /// Minimum spacing between NAKs sent by one receiver for one transfer.
    pub nak_suppress: Duration,
    /// Go-Back-N or selective repeat.
    pub discipline: WindowDiscipline,
    /// Perform the two-round-trip buffer-allocation handshake before data
    /// (paper §4 *Buffer management*). Baselines switch it off.
    pub handshake: bool,
    /// Model the user-space copy of payload into the protocol buffer.
    /// Figure 9's "ACK-based without copy" (an *incorrect* protocol kept
    /// for comparison) sets this to `false`.
    pub charge_copy: bool,
    /// Retransmissions triggered by a NAK go unicast to the NAKing
    /// receiver instead of multicast to the group (paper §3, first bullet:
    /// multicast retransmission "may introduce extra CPU overhead for
    /// unintended receivers"). Timeout-driven retransmissions stay
    /// multicast (the sender does not know who is missing what).
    pub unicast_retx_on_nak: bool,
    /// Rate-based flow control (paper §3: "flow control can either be
    /// rate-based or window-based"): when set, fresh data packets are
    /// paced to at most this many payload bytes per second, on top of the
    /// window.
    pub rate_limit_bytes_per_sec: Option<u64>,
    /// Receiver-driven retransmission timers (paper §3, ACK-based
    /// variations): when set, a receiver whose transfer stalls for this
    /// long re-sends a NAK for its next expected packet — covering the
    /// lost-LAST-packet case without waiting for the sender's RTO.
    pub receiver_nak_timer: Option<Duration>,
    /// Pipeline the allocation handshake: run the *next* queued message's
    /// allocation round trip concurrently with the current message's data
    /// transfer, hiding one of the paper's "at least two round trips"
    /// behind useful work. Off reproduces the paper exactly.
    pub pipeline_handshake: bool,
    /// Liveness bounds (bounded retries, RTO backoff, straggler eviction,
    /// receiver give-up). [`LivenessConfig::PAPER`] retries forever.
    pub liveness: LivenessConfig,
    /// Dynamic membership: heartbeat failure detection (50 ms heartbeats;
    /// a member is suspected after 3 misses and evicted after 6), late
    /// join/rejoin with SYNC handoff, and epoch-stamped acknowledgments.
    /// Off (the default) is the paper's fixed group, negotiated once: no
    /// membership packet is ever emitted and ACK/NAK stay byte-identical
    /// to the paper's wire format.
    pub membership: bool,
    /// Payload integrity: when `true`, every packet this endpoint sends is
    /// sealed with a CRC-32C trailer ([`rmwire::PacketFlags::CKSUM`]) and
    /// every received packet *must* carry a valid trailer — unsealed or
    /// corrupted packets are counted (`Stats::integrity_fail`) and
    /// dropped. When `false` (default) the wire format is byte-identical
    /// to the paper's, though trailers on incoming packets are still
    /// verified opportunistically. All endpoints of a group must agree.
    pub integrity: bool,
    /// Graceful degradation under overload: AIMD window adaptation,
    /// feedback-storm pacing, duplicate-NAK collapse, load-scaled
    /// suppression timers and slow-receiver quarantine.
    /// [`OverloadConfig::OFF`] (the default) reproduces the static-window
    /// engines byte-identically.
    pub overload: OverloadConfig,
}

impl ProtocolConfig {
    /// A configuration with the defaults the paper uses implicitly:
    /// Go-Back-N, handshake on, copy modelled, LAN-scale timers.
    pub fn new(kind: ProtocolKind, packet_size: usize, window: usize) -> Self {
        // The coded-repair family needs selective repeat: a Go-Back-N
        // receiver drops out-of-order packets and would hold no decode
        // material. The constructor picks the only valid discipline so
        // `new` always yields a config that passes `validate`.
        let discipline = match kind {
            ProtocolKind::Fec { .. } => WindowDiscipline::SelectiveRepeat,
            _ => WindowDiscipline::GoBackN,
        };
        ProtocolConfig {
            kind,
            packet_size,
            window,
            rto: Duration::from_millis(120),
            retx_suppress: Duration::from_millis(8),
            nak_suppress: Duration::from_millis(4),
            discipline,
            handshake: true,
            charge_copy: true,
            unicast_retx_on_nak: false,
            rate_limit_bytes_per_sec: None,
            receiver_nak_timer: None,
            pipeline_handshake: false,
            liveness: LivenessConfig::PAPER,
            membership: false,
            integrity: false,
            overload: OverloadConfig::OFF,
        }
    }

    /// Validate against a group of `n_receivers`, panicking with a precise
    /// message on any inconsistency. Call once before building endpoints.
    pub fn validate(&self, n_receivers: usize) {
        // Every field is named, with no `..`: a new field left out is
        // error E0027, and one bound but never checked is an unused
        // variable, which `clippy -D warnings` refuses.
        let ProtocolConfig {
            kind,
            packet_size,
            window,
            rto,
            retx_suppress,
            nak_suppress,
            discipline,
            handshake,
            rate_limit_bytes_per_sec,
            receiver_nak_timer,
            liveness,
            membership,
            overload: o,
            // Both settings of each of these switches are valid.
            charge_copy: _,
            unicast_retx_on_nak: _,
            pipeline_handshake: _,
            integrity: _,
        } = *self;
        assert!(n_receivers >= 1, "need at least one receiver");
        assert!(packet_size >= 1, "packet size must be >= 1 byte");
        assert!(
            packet_size <= 65_000,
            "packet size {} exceeds what a UDP datagram can carry",
            packet_size
        );
        assert!(window >= 1, "window must hold at least one packet");
        assert!(
            retx_suppress < rto,
            "retransmission suppression ({}) must be shorter than the RTO ({}): \
             otherwise every timeout is suppressed and the transfer stalls",
            retx_suppress,
            rto
        );
        if membership && matches!(kind, ProtocolKind::Tree { .. }) {
            assert!(
                liveness.child_evict_timeout.is_some(),
                "tree protocols with membership enabled need \
                 liveness.child_evict_timeout: a rejoined child re-parents \
                 to the sender, and its old parent must be able to drop it"
            );
        }
        if let Some(r) = rate_limit_bytes_per_sec {
            assert!(r > 0, "rate limit must be positive");
        }
        if let Some(t) = receiver_nak_timer {
            assert!(
                t > Duration::ZERO && t.as_nanos() >= nak_suppress.as_nanos(),
                "receiver NAK timer must be positive and no shorter than NAK suppression"
            );
        }
        if let Some(m) = liveness.max_retx {
            assert!(m >= 1, "max_retx must allow at least one retry");
        }
        if let Some(g) = liveness.receiver_giveup {
            assert!(g > Duration::ZERO, "receiver_giveup must be positive");
        }
        if let Some(c) = liveness.child_evict_timeout {
            assert!(c > Duration::ZERO, "child_evict_timeout must be positive");
        }
        if o.aimd {
            assert!(
                o.aimd_floor >= 1,
                "AIMD floor must hold at least one packet"
            );
            assert!(
                o.aimd_floor <= window && window <= o.aimd_ceiling,
                "AIMD bounds must bracket the initial window \
                 (floor {} <= window {} <= ceiling {}): the adaptive cap \
                 starts at the configured window and moves within them",
                o.aimd_floor,
                window,
                o.aimd_ceiling
            );
        }
        if o.feedback_rate > 0 {
            assert!(
                o.feedback_burst >= 1,
                "feedback pacing needs feedback_burst >= 1: \
                 a zero-capacity bucket sheds every control packet"
            );
        }
        if let Some(q) = o.quarantine_after {
            assert!(q >= 1, "quarantine_after must allow at least one timeout");
            if let Some(m) = liveness.max_retx {
                assert!(
                    q < m,
                    "quarantine_after ({q}) must be below liveness.max_retx ({m}): \
                     otherwise the liveness path evicts or fails the transfer \
                     before quarantine can take the straggler off the window"
                );
            }
            assert!(
                o.quarantine_budget >= 1,
                "quarantine_budget must allow at least one catch-up round"
            );
        }
        match kind {
            ProtocolKind::NakPolling { poll_interval, .. } => {
                assert!(poll_interval >= 1, "poll interval must be >= 1");
                assert!(
                    poll_interval <= window,
                    "poll interval {} beyond the window {} would deadlock: \
                     the window fills before any packet is polled",
                    poll_interval,
                    window
                );
            }
            ProtocolKind::Ring => {
                assert!(
                    window > n_receivers,
                    "ring protocol needs window > n_receivers ({} <= {}): an ACK \
                     for packet X only releases packet X - N",
                    window,
                    n_receivers
                );
            }
            ProtocolKind::Tree {
                shape: TreeShape::Flat { height },
            } => {
                assert!(height >= 1, "flat tree height must be >= 1");
                assert!(
                    height <= n_receivers,
                    "flat tree height {height} exceeds the {n_receivers} receivers"
                );
            }
            ProtocolKind::Tree {
                shape: TreeShape::Binary,
            }
            | ProtocolKind::Ack => {}
            ProtocolKind::Fec {
                poll_interval,
                parity_every,
                max_coded,
            } => {
                assert!(poll_interval >= 1, "poll interval must be >= 1");
                assert!(
                    poll_interval <= window,
                    "poll interval {} beyond the window {} would deadlock: \
                     the window fills before any packet is polled",
                    poll_interval,
                    window
                );
                assert!(
                    parity_every == 0 || (2..=64).contains(&parity_every),
                    "parity_every must be 0 (disabled) or 2..=64 (got {}): \
                     parity over one packet is just a duplicate, and the \
                     wire bitmap is 64 bits wide",
                    parity_every
                );
                assert!(
                    (1..=64).contains(&max_coded),
                    "max_coded must be 1..=64 (got {}): the repair bitmap \
                     is 64 bits wide",
                    max_coded
                );
                assert_eq!(
                    discipline,
                    WindowDiscipline::SelectiveRepeat,
                    "fec requires selective repeat: Go-Back-N receivers \
                     drop out-of-order packets, leaving nothing to decode \
                     a repair block against"
                );
                assert!(
                    handshake,
                    "fec requires the allocation handshake: the receiver \
                     must know packet_size and message length to XOR held \
                     chunks back out of its preallocated assembly"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors() {
        let k = ProtocolKind::nak_polling(10);
        assert_eq!(
            k,
            ProtocolKind::NakPolling {
                poll_interval: 10,
                receiver_multicast_nak: false
            }
        );
        assert_eq!(k.name(), "nak");
        assert_eq!(ProtocolKind::flat_tree(4).name(), "tree-flat");
        assert_eq!(ProtocolKind::Ring.name(), "ring");
        let f = ProtocolKind::fec(16);
        assert_eq!(
            f,
            ProtocolKind::Fec {
                poll_interval: 16,
                parity_every: 8,
                max_coded: 16
            }
        );
        assert_eq!(f.name(), "fec");
    }

    #[test]
    fn valid_configs_pass() {
        ProtocolConfig::new(ProtocolKind::Ack, 8000, 2).validate(30);
        ProtocolConfig::new(ProtocolKind::nak_polling(16), 8000, 20).validate(30);
        ProtocolConfig::new(ProtocolKind::Ring, 8000, 31).validate(30);
        ProtocolConfig::new(ProtocolKind::flat_tree(6), 8000, 20).validate(30);
        let f = ProtocolConfig::new(ProtocolKind::fec(16), 8000, 20);
        assert_eq!(f.discipline, WindowDiscipline::SelectiveRepeat);
        f.validate(30);
    }

    #[test]
    #[should_panic(expected = "fec requires selective repeat")]
    fn fec_gbn_rejected() {
        let mut c = ProtocolConfig::new(ProtocolKind::fec(16), 8000, 20);
        c.discipline = WindowDiscipline::GoBackN;
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "fec requires the allocation handshake")]
    fn fec_without_handshake_rejected() {
        let mut c = ProtocolConfig::new(ProtocolKind::fec(16), 8000, 20);
        c.handshake = false;
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "parity_every")]
    fn fec_parity_of_one_rejected() {
        let c = ProtocolConfig::new(
            ProtocolKind::Fec {
                poll_interval: 16,
                parity_every: 1,
                max_coded: 16,
            },
            8000,
            20,
        );
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "max_coded")]
    fn fec_oversized_block_rejected() {
        let c = ProtocolConfig::new(
            ProtocolKind::Fec {
                poll_interval: 16,
                parity_every: 8,
                max_coded: 65,
            },
            8000,
            20,
        );
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "window > n_receivers")]
    fn ring_window_too_small() {
        ProtocolConfig::new(ProtocolKind::Ring, 8000, 30).validate(30);
    }

    #[test]
    #[should_panic(expected = "would deadlock")]
    fn poll_interval_beyond_window() {
        ProtocolConfig::new(ProtocolKind::nak_polling(21), 8000, 20).validate(30);
    }

    #[test]
    #[should_panic(expected = "exceeds the")]
    fn tree_taller_than_group() {
        ProtocolConfig::new(ProtocolKind::flat_tree(31), 8000, 20).validate(30);
    }

    #[test]
    #[should_panic(expected = "packet size")]
    fn zero_packet_size() {
        ProtocolConfig::new(ProtocolKind::Ack, 0, 2).validate(30);
    }

    #[test]
    fn liveness_constructors() {
        let l = LivenessConfig::default();
        assert_eq!(l, LivenessConfig::PAPER);
        assert!(l.max_retx.is_none(), "paper behavior retries forever");
        let b = LivenessConfig::bounded(8);
        assert_eq!(b.max_retx, Some(8));
        assert!(!b.evict_stragglers);
        let e = LivenessConfig::evicting(8);
        assert!(e.evict_stragglers);
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 2);
        c.liveness = e;
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "max_retx")]
    fn zero_max_retx_rejected() {
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 2);
        c.liveness.max_retx = Some(0);
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "must be shorter than the RTO")]
    fn suppression_no_shorter_than_rto_rejected() {
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 2);
        c.retx_suppress = c.rto;
        c.validate(30);
    }

    #[test]
    fn membership_defaults_off_and_enabled_validates() {
        let c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 2);
        assert!(!c.membership);
        let mut m = c;
        m.membership = true;
        m.validate(30);
    }

    #[test]
    #[should_panic(expected = "child_evict_timeout")]
    fn tree_membership_needs_child_eviction() {
        let mut c = ProtocolConfig::new(ProtocolKind::flat_tree(4), 8000, 8);
        c.membership = true;
        c.validate(30);
    }

    #[test]
    fn overload_defaults_off_and_adaptive_validates() {
        let c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 8);
        assert_eq!(c.overload, OverloadConfig::OFF);
        let mut a = c;
        a.overload = OverloadConfig::adaptive(8);
        a.validate(30);
    }

    #[test]
    #[should_panic(expected = "must bracket the initial window")]
    fn aimd_bounds_must_bracket_window() {
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 8);
        c.overload = OverloadConfig::adaptive(8);
        c.overload.aimd_ceiling = 4;
        c.validate(30);
    }

    #[test]
    fn ring_takes_its_aimd_floor_from_the_group() {
        // `adaptive(10)` asks for a floor of 2; the ring's release rule
        // needs more than the 4 receivers. The sender raises the floor
        // itself, so the preset runs as written, under loss that shrinks
        // the window again and again.
        let mut c = ProtocolConfig::new(ProtocolKind::Ring, 1000, 10);
        c.overload = OverloadConfig::adaptive(10);
        c.validate(4);
        let msg = bytes::Bytes::from((0..100_000u32).map(|i| i as u8).collect::<Vec<_>>());
        let mut net = crate::loopback::Loopback::new(c, 4, 3).with_loss(0.05);
        net.send_message(msg.clone());
        let delivered = net.run();
        assert_eq!(delivered.len(), 4);
        assert!(delivered.iter().all(|d| *d == msg));
        assert!(net.sender_stats().window_shrinks > 1);
    }

    #[test]
    #[should_panic(expected = "must be below liveness.max_retx")]
    fn quarantine_after_liveness_limit_rejected() {
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 8);
        c.liveness = LivenessConfig::evicting(3);
        c.overload = OverloadConfig::adaptive(8);
        c.overload.quarantine_after = Some(3);
        c.validate(30);
    }

    #[test]
    #[should_panic(expected = "feedback_burst")]
    fn paced_feedback_needs_burst() {
        let mut c = ProtocolConfig::new(ProtocolKind::Ack, 8000, 8);
        c.overload.feedback_rate = 1_000;
        c.overload.feedback_burst = 0;
        c.validate(30);
    }
}
