//! Receiver-side NAK scheduling: when a receiver reports a gap.
//!
//! In the paper's NAK protocol a receiver sends each NAK straight to the
//! sender, which suppresses duplicate retransmissions; the receiver only
//! rate-limits its own NAKs. The variant of \[16\] delays each NAK by a
//! random time and multicasts it, so receivers that overhear a NAK for
//! the same gap drop theirs. With feedback pacing on, the suppression
//! interval stretches with the retransmission traffic the receiver
//! observes. An optional receiver-driven timer re-NAKs the oldest stalled
//! transfer.

use crate::config::{ProtocolConfig, ProtocolKind};
use crate::endpoint::{Dest, Io};
use crate::overload::LoadScaler;
use crate::receiver::{Feedback, Stamp};
use crate::stats::Stats;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmwire::{Rank, Time};
use std::hash::{Hash, Hasher};

/// A NAK waiting out its random delay (receiver-multicast suppression).
#[derive(Clone)]
struct PendingNak {
    transfer: u32,
    expected: u32,
    deadline: Time,
}

/// A receiver's NAK scheduling component.
#[derive(Clone)]
pub(crate) struct NakSchedule {
    /// Last NAK sent under sender-side suppression (the rate limit).
    last: Option<Time>,
    /// Receiver-multicast variant: the NAK waiting out its delay.
    pending: Option<PendingNak>,
    /// Load-aware suppression scaling (on with feedback pacing), fed by
    /// the retransmission traffic this receiver observes: heavy RETX flow
    /// means the sender is overloaded, so our own NAK timers stretch.
    load: Option<LoadScaler>,
    /// Receiver-driven retransmission timer: when the config enables it,
    /// this deadline fires a NAK for the oldest stalled transfer.
    stall_deadline: Option<Time>,
    /// Draws the random NAK delay, and nothing else.
    rng: SmallRng,
}

impl NakSchedule {
    /// The schedule of receiver `rank`; `seed` feeds the random NAK delay.
    pub(crate) fn new(cfg: &ProtocolConfig, rank: Rank, seed: u64) -> NakSchedule {
        NakSchedule {
            last: None,
            pending: None,
            load: (cfg.overload.feedback_rate > 0).then(|| LoadScaler::new(32)),
            stall_deadline: None,
            rng: SmallRng::seed_from_u64(seed ^ (rank.0 as u64) << 32),
        }
    }

    /// Retransmission traffic arrived: the load signal scaling our NAK
    /// timers.
    pub(crate) fn note_retx(&mut self, now: Time) {
        if let Some(l) = self.load.as_mut() {
            l.note(now);
        }
    }

    /// A gap in `transfer` at `expected`: NAK it now, schedule it, or
    /// suppress it.
    pub(crate) fn consider(
        &mut self,
        now: Time,
        transfer: u32,
        expected: u32,
        cfg: &ProtocolConfig,
        stamp: Stamp,
        io: &mut Io<'_>,
    ) {
        // Load-aware scaling: the static suppression interval stretches
        // with observed retransmission traffic (identity when disabled).
        let suppress = match self.load.as_mut() {
            Some(l) => l.scale(cfg.nak_suppress, now),
            None => cfg.nak_suppress,
        };
        let receiver_multicast = matches!(
            cfg.kind,
            ProtocolKind::NakPolling {
                receiver_multicast_nak: true,
                ..
            }
        );
        if receiver_multicast {
            if self.pending.is_none() {
                let delay_ns = self.rng.gen_range(0..=suppress.as_nanos());
                self.pending = Some(PendingNak {
                    transfer,
                    expected,
                    deadline: now + rmwire::Duration::from_nanos(delay_ns),
                });
            } else {
                io.stats.naks_suppressed += 1;
            }
            return;
        }
        // Sender-side suppression variant: rate-limit our own NAKs.
        let ok = self
            .last
            .is_none_or(|t| now.saturating_since(t).as_nanos() >= suppress.as_nanos());
        if ok {
            self.last = Some(now);
            stamp.send(io, Feedback::Nak, Dest::Sender, transfer, expected);
        } else {
            io.stats.naks_suppressed += 1;
        }
    }

    /// Another receiver's multicast NAK, overheard: suppress our own
    /// pending NAK for the same (or an earlier) gap.
    pub(crate) fn on_peer_nak(&mut self, transfer: u32, expected: u32, stats: &mut Stats) {
        stats.naks_received += 1;
        if let Some(p) = &self.pending {
            if p.transfer == transfer && expected <= p.expected {
                self.pending = None;
                stats.naks_suppressed += 1;
            }
        }
    }

    /// Drop the pending NAK if `done` says its transfer needs none any
    /// more (delivered or abandoned).
    pub(crate) fn forget(&mut self, done: impl Fn(u32) -> bool) {
        if self.pending.as_ref().is_some_and(|p| done(p.transfer)) {
            self.pending = None;
        }
    }

    /// Re-arm (or disarm) the receiver-driven retransmission timer: armed
    /// while some transfer is `stalled`. Costs one branch when the config
    /// has no such timer.
    pub(crate) fn rearm_stall_timer(
        &mut self,
        now: Time,
        cfg: &ProtocolConfig,
        stalled: impl FnOnce() -> bool,
    ) {
        let Some(d) = cfg.receiver_nak_timer else {
            return;
        };
        self.stall_deadline = stalled().then(|| now + d);
    }

    /// The pending-NAK and stall timers at `now`. `stalled` names the
    /// oldest transfer this receiver waits on, with the sequence number it
    /// needs next.
    pub(crate) fn on_timeout(
        &mut self,
        now: Time,
        cfg: &ProtocolConfig,
        stamp: Stamp,
        stalled: impl FnOnce() -> Option<(u32, u32)>,
        io: &mut Io<'_>,
    ) {
        if let Some(p) = self.pending.take() {
            if p.deadline <= now {
                // Multicast to the group and unicast to the sender (the
                // sender is not a group member).
                for dest in [Dest::Receivers, Dest::Sender] {
                    stamp.send(io, Feedback::Nak, dest, p.transfer, p.expected);
                }
            } else {
                self.pending = Some(p);
            }
        }
        if self.stall_deadline.is_some_and(|d| d <= now) {
            self.stall_deadline = None;
            if let Some((transfer, expected)) = stalled() {
                stamp.send(io, Feedback::Nak, Dest::Sender, transfer, expected);
                // Still stalled: nothing above changed what is missing.
                self.rearm_stall_timer(now, cfg, || true);
            }
        }
    }

    /// The earlier of the pending NAK's and the stall timer's deadlines.
    pub(crate) fn deadline(&self) -> Option<Time> {
        let pending = self.pending.as_ref().map(|p| p.deadline);
        pending.into_iter().chain(self.stall_deadline).min()
    }

    /// Fold the protocol-logical state into a digest: the pending NAK.
    pub(crate) fn hash_into(&self, mut h: &mut dyn Hasher) {
        let pending = self.pending.as_ref().map(|p| (p.transfer, p.expected));
        pending.hash(&mut h);
    }
}
