//! Graceful degradation under overload.
//!
//! The paper's headline failure mode is sender overload: ACK implosion and
//! buffer exhaustion at only 31 nodes (§5, Figure 7's knee). The engines in
//! this crate historically ran a *static* window and processed every piece
//! of feedback the instant it arrived — exactly the design SRM-at-30 warns
//! ages badly as group size and load grow. This module collects the small,
//! clock-free state machines that let a [`crate::Sender`] degrade
//! gracefully instead of collapsing:
//!
//! * [`AimdWindow`] — congestion-aware window adaptation: multiplicative
//!   shrink on loss/timeout signals, additive recovery on progress, bounded
//!   by a configured `[floor, ceiling]`.
//! * [`TokenBucket`] — deterministic pacing of ACK/NAK *processing* so a
//!   feedback storm costs the sender a bounded amount of work per second.
//! * [`DupNakFilter`] — collapses bursts of duplicate NAKs for the same
//!   packet before they each trigger retransmission bookkeeping.
//! * [`LoadScaler`] — epoch-bucketed feedback-rate estimate that scales the
//!   static `retx_suppress`/`nak_suppress` timers with observed load,
//!   replacing the fixed timers the paper inherited from its LAN testbed.
//!
//! Everything here is a pure function of the `Time`s fed through the
//! sans-io [`crate::Endpoint`] API: no wall clocks, no RNG, so the same
//! machinery runs unchanged under `netsim`, `udprun`, the fuzzer and the
//! `rmcheck` state-space explorer. [`OverloadConfig::OFF`] (the default)
//! disables every mechanism and reproduces the static-window engines
//! byte-identically.
//!
//! The sender composes them in one component, `Overload`: it admits
//! feedback (load note, shedding, duplicate-NAK collapse), holds the AIMD
//! cap, scales the suppression interval, and owns the two edge detectors
//! (the `StormSuppressed` trace and the `Backpressure` event). The sender
//! keeps the windows and applies the cap it is handed.

use crate::config::{ProtocolConfig, ProtocolKind};
use crate::endpoint::{AppEvent, Io};
use rmtrace::{TraceEvent, Tracer};
use rmwire::{Duration, Time};
use std::collections::VecDeque;

/// Overload-robustness knobs, carried by
/// [`crate::ProtocolConfig::overload`]. The default ([`OverloadConfig::OFF`])
/// switches every mechanism off.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverloadConfig {
    /// Master switch for AIMD window adaptation: shrink the effective send
    /// window multiplicatively on congestion signals (retransmission
    /// timeouts, loss-indicating NAKs), recover it additively as
    /// acknowledgments arrive.
    pub aimd: bool,
    /// Smallest window AIMD may shrink to. A ring sender raises it to one
    /// above the receiver count, below which the rotating release rule
    /// deadlocks.
    pub aimd_floor: usize,
    /// Largest window AIMD may grow to (additive probing beyond the
    /// configured window is allowed up to here).
    pub aimd_ceiling: usize,
    /// Token-bucket rate for ACK/NAK *processing*, in packets per second.
    /// `0` disables pacing (every control packet is processed on arrival,
    /// the paper's behavior). Control packets arriving with the bucket
    /// empty are shed after their acknowledgment horizon is noted, so
    /// correctness is unaffected — only retransmission bookkeeping is
    /// rate-limited. A positive rate also collapses duplicate NAKs for the
    /// same `(transfer, seq)` arriving within one `retx_suppress` interval
    /// and scales `retx_suppress` (sender) and `nak_suppress` (receiver)
    /// with observed feedback/retransmission load instead of keeping the
    /// paper's static timers.
    pub feedback_rate: u64,
    /// Burst capacity of the feedback bucket, in packets.
    pub feedback_burst: u32,
    /// Consecutive timeouts without window progress before the laggards
    /// holding the window are moved to quarantine (served catch-up
    /// retransmissions off the fast path instead of blocking it). `None`
    /// disables quarantine. Must stay below `liveness.max_retx` when both
    /// are set, or liveness eviction fires first.
    pub quarantine_after: Option<u32>,
    /// Catch-up rounds a quarantined receiver gets per transfer before the
    /// sender falls back to the liveness path (straggler eviction or typed
    /// failure).
    pub quarantine_budget: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig::OFF
    }
}

impl OverloadConfig {
    /// Every mechanism off: static window, unpaced feedback, no
    /// quarantine. Reproduces the paper-faithful engines byte-identically.
    pub const OFF: OverloadConfig = OverloadConfig {
        aimd: false,
        aimd_floor: 1,
        aimd_ceiling: usize::MAX,
        feedback_rate: 0,
        feedback_burst: 0,
        quarantine_after: None,
        quarantine_budget: 8,
    };

    /// Every mechanism on with defaults scaled to the configured `window`:
    /// AIMD in `[max(1, window/4), 2·window]`, feedback paced to 20k
    /// control packets/s with a 64-packet burst, duplicate-NAK collapse,
    /// load-scaled suppression, quarantine after 3 stalled timeouts with an
    /// 8-round catch-up budget.
    pub fn adaptive(window: usize) -> OverloadConfig {
        OverloadConfig {
            aimd: true,
            aimd_floor: (window / 4).max(1),
            aimd_ceiling: window.saturating_mul(2),
            feedback_rate: 20_000,
            feedback_burst: 64,
            quarantine_after: Some(3),
            quarantine_budget: 8,
        }
    }

    /// True when any mechanism that changes engine behavior is enabled.
    pub fn any_enabled(&self) -> bool {
        self.aimd || self.feedback_rate > 0 || self.quarantine_after.is_some()
    }
}

/// Additive-increase / multiplicative-decrease window cap.
///
/// Clock-free and event-driven: congestion signals halve the cap toward
/// the floor, acknowledged packets accumulate credit and grow it by one
/// packet per current-window's-worth of progress (the classic 1/cwnd
/// additive increase), up to the ceiling. The cap never leaves
/// `[floor, ceiling]` — `core/tests/properties.rs` proves it by proptest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AimdWindow {
    cur: usize,
    floor: usize,
    ceiling: usize,
    credit: usize,
}

impl AimdWindow {
    /// A cap starting at `initial`, confined to `[floor, ceiling]`.
    pub fn new(initial: usize, floor: usize, ceiling: usize) -> AimdWindow {
        assert!(
            1 <= floor && floor <= initial && initial <= ceiling,
            "AIMD bounds must satisfy 1 <= floor <= initial <= ceiling \
             (got floor {floor}, initial {initial}, ceiling {ceiling})"
        );
        AimdWindow {
            cur: initial,
            floor,
            ceiling,
            credit: 0,
        }
    }

    /// The current window cap, always in `[floor, ceiling]`.
    pub fn cap(&self) -> usize {
        self.cur
    }

    /// Multiplicative decrease: halve toward the floor and forfeit any
    /// accumulated growth credit. Returns `true` when the cap changed.
    pub fn on_congestion(&mut self) -> bool {
        self.credit = 0;
        let next = (self.cur / 2).max(self.floor);
        let changed = next != self.cur;
        self.cur = next;
        changed
    }

    /// Additive increase: `acked` packets of progress accumulate credit;
    /// each full current-window of credit grows the cap by one packet, up
    /// to the ceiling. Returns `true` when the cap changed.
    pub fn on_progress(&mut self, acked: usize) -> bool {
        if self.cur >= self.ceiling {
            return false;
        }
        self.credit = self.credit.saturating_add(acked);
        let before = self.cur;
        while self.credit >= self.cur && self.cur < self.ceiling {
            self.credit -= self.cur;
            self.cur += 1;
        }
        self.cur != before
    }

    /// Fold the adaptive state into a protocol-state digest (used by
    /// `rmcheck explore`).
    pub fn digest_into(&self, h: &mut dyn std::hash::Hasher) {
        h.write_usize(self.cur);
        h.write_usize(self.credit);
    }
}

/// Deterministic token bucket in integer nano-token arithmetic: one packet
/// costs `NANO_PER_PACKET` tokens, the bucket refills at `rate` packets
/// per second and holds at most `burst` packets. Starts full.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TokenBucket {
    rate: u64,
    cap_nano: u64,
    tokens_nano: u64,
    last: Time,
}

const NANO_PER_PACKET: u64 = 1_000_000_000;

impl TokenBucket {
    /// A bucket refilling at `rate` packets/s holding at most `burst`
    /// packets. `rate == 0` builds a bucket whose [`TokenBucket::take`]
    /// always succeeds (pacing off).
    pub fn new(rate: u64, burst: u32) -> TokenBucket {
        let cap_nano = (burst as u64).saturating_mul(NANO_PER_PACKET);
        TokenBucket {
            rate,
            cap_nano,
            tokens_nano: cap_nano,
            last: Time::ZERO,
        }
    }

    /// Refill for the elapsed time and try to spend one packet's worth of
    /// tokens. Returns `false` (caller should shed the packet) when the
    /// bucket is empty. With `rate == 0` always returns `true`.
    pub fn take(&mut self, now: Time) -> bool {
        if self.rate == 0 {
            return true;
        }
        let elapsed = now.saturating_since(self.last).as_nanos() as u128;
        self.last = now;
        // One packet = NANO_PER_PACKET tokens, so `rate` packets/s refill
        // exactly `rate` tokens per nanosecond of elapsed time.
        let refill = elapsed * self.rate as u128;
        self.tokens_nano = self
            .tokens_nano
            .saturating_add(refill.min(u64::MAX as u128) as u64)
            .min(self.cap_nano);
        if self.tokens_nano >= NANO_PER_PACKET {
            self.tokens_nano -= NANO_PER_PACKET;
            true
        } else {
            false
        }
    }
}

/// Bounded memory of recently seen NAKs, used to collapse duplicate-NAK
/// floods: a NAK for a `(transfer, seq)` already NAKed within `window` is
/// a duplicate and is dropped before it reaches retransmission
/// bookkeeping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DupNakFilter {
    window: Duration,
    seen: VecDeque<(u64, u64, Time)>,
}

/// Entries remembered by [`DupNakFilter`]; bounds memory under a storm of
/// NAKs for *distinct* packets.
const DUP_NAK_CAPACITY: usize = 64;

impl DupNakFilter {
    /// A filter collapsing duplicates within `window`.
    pub fn new(window: Duration) -> DupNakFilter {
        DupNakFilter {
            window,
            seen: VecDeque::new(),
        }
    }

    /// Record a NAK for `(transfer, seq)` at `now`; returns `true` when it
    /// duplicates one seen within the window (caller should collapse it).
    pub fn is_dup(&mut self, transfer: u64, seq: u64, now: Time) -> bool {
        while let Some(&(_, _, t)) = self.seen.front() {
            if now.saturating_since(t).as_nanos() > self.window.as_nanos() {
                self.seen.pop_front();
            } else {
                break;
            }
        }
        if self
            .seen
            .iter()
            .any(|&(tr, s, _)| tr == transfer && s == seq)
        {
            return true;
        }
        if self.seen.len() == DUP_NAK_CAPACITY {
            self.seen.pop_front();
        }
        self.seen.push_back((transfer, seq, now));
        false
    }
}

/// Epoch-bucketed feedback-rate estimate driving load-aware suppression
/// scaling. Counts events per fixed epoch; when an epoch closes, the load
/// level becomes `1 + count / threshold`, clamped to `[1, MAX_LEVEL]`. The
/// effective suppression interval is the configured one times the level,
/// so the static timers the paper hard-codes stretch smoothly as feedback
/// traffic grows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadScaler {
    epoch: Duration,
    threshold: u32,
    bucket_start: Time,
    count: u32,
    level: u32,
}

/// Largest multiplier [`LoadScaler::level`] reports.
pub const MAX_LOAD_LEVEL: u32 = 8;

impl LoadScaler {
    /// A scaler with a 20 ms epoch and the given per-epoch nominal event
    /// budget.
    pub fn new(threshold: u32) -> LoadScaler {
        LoadScaler {
            epoch: Duration::from_millis(20),
            threshold: threshold.max(1),
            bucket_start: Time::ZERO,
            count: 0,
            level: 1,
        }
    }

    /// Record one feedback event at `now`, rolling the epoch if it ended.
    pub fn note(&mut self, now: Time) {
        self.roll(now);
        self.count = self.count.saturating_add(1);
    }

    /// Current load level in `[1, MAX_LOAD_LEVEL]` as of `now`.
    pub fn level(&mut self, now: Time) -> u32 {
        self.roll(now);
        self.level
    }

    fn roll(&mut self, now: Time) {
        let elapsed = now.saturating_since(self.bucket_start);
        if elapsed.as_nanos() >= self.epoch.as_nanos() {
            self.level = (1 + self.count / self.threshold).clamp(1, MAX_LOAD_LEVEL);
            self.count = 0;
            self.bucket_start = now;
        }
    }

    /// Scale a configured suppression interval by the current load level.
    pub fn scale(&mut self, base: Duration, now: Time) -> Duration {
        base.saturating_mul(self.level(now) as u64)
    }
}

/// Feedback-storm hardening, present exactly when
/// `overload.feedback_rate > 0`.
#[derive(Debug, Clone)]
struct FeedbackGuard {
    /// Token-bucket pacing of ACK/NAK processing.
    bucket: TokenBucket,
    /// Duplicate-NAK collapse within one `retx_suppress`.
    dup_naks: DupNakFilter,
    /// Load-aware suppression scaling.
    load: LoadScaler,
}

/// The sender's overload control. With every mechanism off each call is
/// one branch on an empty `Option`.
#[derive(Debug, Clone)]
pub(crate) struct Overload {
    /// AIMD window adaptation (present when `overload.aimd`).
    aimd: Option<AimdWindow>,
    /// Feedback pacing, duplicate-NAK collapse and load scaling.
    feedback: Option<FeedbackGuard>,
    /// The configured window: a stall on an AIMD cap below it is
    /// backpressure.
    window: usize,
    /// Edge detector for [`AppEvent::Backpressure`].
    backpressured: bool,
    /// Edge detector for the `StormSuppressed` trace event.
    storm_shedding: bool,
}

impl Overload {
    /// The overload control `cfg` asks for, in a group of `n` receivers.
    pub(crate) fn new(cfg: &ProtocolConfig, n: usize) -> Overload {
        let o = &cfg.overload;
        // Below one more than the group, the ring's rotating release rule
        // (packet X is freed by the ACK for X + N) would deadlock.
        let floor = match cfg.kind {
            ProtocolKind::Ring => o.aimd_floor.max(n + 1),
            _ => o.aimd_floor,
        };
        Overload {
            aimd: o
                .aimd
                .then(|| AimdWindow::new(cfg.window, floor, o.aimd_ceiling)),
            feedback: (o.feedback_rate > 0).then(|| FeedbackGuard {
                bucket: TokenBucket::new(o.feedback_rate, o.feedback_burst),
                dup_naks: DupNakFilter::new(cfg.retx_suppress),
                load: LoadScaler::new(32),
            }),
            window: cfg.window,
            backpressured: false,
            storm_shedding: false,
        }
    }

    /// The AIMD cap a data window is held to, when AIMD is on. It survives
    /// across transfers: congestion memory is a property of the path, not
    /// of one message.
    pub(crate) fn cap(&self) -> Option<u32> {
        self.aimd.as_ref().map(|a| a.cap().max(1) as u32)
    }

    /// Count one piece of feedback toward the observed load.
    pub(crate) fn note_feedback(&mut self, now: Time) {
        if let Some(f) = self.feedback.as_mut() {
            f.load.note(now);
        }
    }

    /// Feedback-pacing admission: `false` means shed this control packet.
    /// Emits the `StormSuppressed` edge on entry into the shedding state.
    fn paced(&mut self, now: Time, transfer: u32, tracer: &mut Tracer) -> bool {
        let Some(f) = self.feedback.as_mut() else {
            return true;
        };
        if f.bucket.take(now) {
            self.storm_shedding = false;
            return true;
        }
        if !self.storm_shedding {
            self.storm_shedding = true;
            tracer.emit(now.as_nanos(), TraceEvent::StormSuppressed { transfer });
        }
        false
    }

    /// Admit an ACK that does not complete its transfer; `false` means it
    /// was shed.
    pub(crate) fn admit_ack(&mut self, now: Time, transfer: u32, io: &mut Io) -> bool {
        let admitted = self.paced(now, transfer, &mut io.tracer);
        if !admitted {
            io.stats.acks_shed += 1;
        }
        admitted
    }

    /// Admit a NAK for `(transfer, seq)`; `false` means it was shed, or
    /// collapsed into one seen within the suppression interval — a storm
    /// of NAKs for the same packet triggers one retransmission decision,
    /// not hundreds.
    pub(crate) fn admit_nak(&mut self, now: Time, transfer: u32, seq: u32, io: &mut Io) -> bool {
        if !self.paced(now, transfer, &mut io.tracer) {
            io.stats.naks_shed += 1;
            return false;
        }
        if let Some(f) = self.feedback.as_mut() {
            if f.dup_naks.is_dup(transfer as u64, seq as u64, now) {
                io.stats.naks_collapsed += 1;
                return false;
            }
        }
        true
    }

    /// `base` (the configured `retx_suppress`) scaled by observed feedback
    /// load; `base` itself when feedback pacing is off.
    pub(crate) fn suppress(&mut self, base: Duration, now: Time) -> Duration {
        match self.feedback.as_mut() {
            Some(f) => f.load.scale(base, now),
            None => base,
        }
    }

    /// Multiplicative decrease on a congestion signal (retransmission
    /// timeout or fresh NAK). Returns the cap to hold the data window to.
    pub(crate) fn on_congestion(&mut self, now: Time, transfer: u32, io: &mut Io) -> Option<u32> {
        let a = self.aimd.as_mut()?;
        if a.on_congestion() {
            io.stats.window_shrinks += 1;
            let cap = a.cap() as u32;
            io.tracer
                .emit(now.as_nanos(), TraceEvent::WindowShrink { transfer, cap });
        }
        self.cap()
    }

    /// Additive increase on `acked` packets of progress on data transfer
    /// `transfer` of message `msg_id`; clears the backpressure edge once
    /// the cap is back to the configured window. Returns the cap to hold
    /// the data window to.
    pub(crate) fn on_progress(
        &mut self,
        now: Time,
        (msg_id, transfer): (u64, u32),
        acked: u32,
        io: &mut Io,
    ) -> Option<u32> {
        let a = self.aimd.as_mut()?;
        let changed = a.on_progress(acked as usize);
        let cap = a.cap();
        if changed {
            io.stats.window_grows += 1;
            io.tracer.emit(
                now.as_nanos(),
                TraceEvent::WindowGrow {
                    transfer,
                    cap: cap as u32,
                },
            );
        }
        if cap >= self.window {
            // The window recovered its configured size: senders may resume.
            self.clear_backpressure(now, (msg_id, transfer), io);
        }
        self.cap()
    }

    /// The data window stalled full with payload left to send: on an
    /// AIMD-shrunk window that is backpressure the application should
    /// hear about (edge-triggered).
    pub(crate) fn on_stall(&mut self, now: Time, names: (u64, u32), io: &mut Io) {
        if !self.backpressured && self.aimd.as_ref().is_some_and(|a| a.cap() < self.window) {
            self.backpressure_edge(true, now, names, io);
        }
    }

    /// Clear the backpressure edge, if set. At a message boundary the
    /// message is named with transfer `0`: no transfer is in flight.
    pub(crate) fn clear_backpressure(&mut self, now: Time, names: (u64, u32), io: &mut Io) {
        if self.backpressured {
            self.backpressure_edge(false, now, names, io);
        }
    }

    fn backpressure_edge(
        &mut self,
        congested: bool,
        now: Time,
        (msg_id, transfer): (u64, u32),
        io: &mut Io,
    ) {
        self.backpressured = congested;
        io.stats.backpressure_signals += 1;
        io.events
            .push_back(AppEvent::Backpressure { msg_id, congested });
        let congested = u32::from(congested);
        io.tracer.emit(
            now.as_nanos(),
            TraceEvent::Backpressure {
                transfer,
                congested,
            },
        );
    }

    /// Fold the protocol-logical state (the AIMD cap) into a digest.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        match &self.aimd {
            None => h.write_u8(0),
            Some(a) => {
                h.write_u8(1);
                a.digest_into(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_inert_and_default() {
        let off = OverloadConfig::default();
        assert_eq!(off, OverloadConfig::OFF);
        assert!(!off.any_enabled());
        assert!(OverloadConfig::adaptive(16).any_enabled());
    }

    #[test]
    fn adaptive_brackets_the_window() {
        let o = OverloadConfig::adaptive(16);
        assert!(o.aimd_floor <= 16 && 16 <= o.aimd_ceiling);
        assert_eq!(o.aimd_floor, 4);
        assert_eq!(o.aimd_ceiling, 32);
        // Tiny windows still get a sane floor.
        assert_eq!(OverloadConfig::adaptive(1).aimd_floor, 1);
    }

    #[test]
    fn aimd_halves_toward_floor_and_recovers_additively() {
        let mut w = AimdWindow::new(16, 4, 32);
        assert!(w.on_congestion());
        assert_eq!(w.cap(), 8);
        assert!(w.on_congestion(), "8 -> 4 hits the floor");
        assert_eq!(w.cap(), 4);
        assert!(!w.on_congestion(), "pinned at the floor");
        // Additive recovery: one packet per window's worth of acks.
        assert!(!w.on_progress(3), "3 < cur 4: credit only");
        assert!(w.on_progress(1), "4th ack grows the cap");
        assert_eq!(w.cap(), 5);
        assert!(w.on_progress(100));
        assert!(w.cap() <= 32);
    }

    #[test]
    fn aimd_caps_at_ceiling() {
        let mut w = AimdWindow::new(4, 2, 6);
        assert!(w.on_progress(1000));
        assert_eq!(w.cap(), 6);
        assert!(!w.on_progress(1000), "pinned at the ceiling");
    }

    #[test]
    #[should_panic(expected = "floor <= initial <= ceiling")]
    fn aimd_rejects_inverted_bounds() {
        AimdWindow::new(4, 8, 16);
    }

    #[test]
    fn congestion_forfeits_credit() {
        let mut w = AimdWindow::new(8, 2, 16);
        w.on_progress(7); // almost a full window of credit
        w.on_congestion();
        assert_eq!(w.cap(), 4);
        assert!(!w.on_progress(3), "credit restarted from zero");
    }

    #[test]
    fn token_bucket_paces_deterministically() {
        let mut b = TokenBucket::new(1_000, 2); // 1k pkt/s, burst 2
        let t0 = Time::from_millis(1);
        assert!(b.take(t0), "bucket starts full");
        assert!(b.take(t0));
        assert!(!b.take(t0), "burst exhausted");
        // 1 ms at 1k pkt/s refills exactly one packet.
        assert!(b.take(Time::from_millis(2)));
        assert!(!b.take(Time::from_millis(2)));
    }

    #[test]
    fn token_bucket_rate_zero_never_sheds() {
        let mut b = TokenBucket::new(0, 0);
        for _ in 0..1000 {
            assert!(b.take(Time::ZERO));
        }
    }

    #[test]
    fn dup_nak_filter_collapses_within_window() {
        let mut f = DupNakFilter::new(Duration::from_millis(8));
        let t = Time::from_millis(100);
        assert!(!f.is_dup(1, 5, t), "first sighting passes");
        assert!(f.is_dup(1, 5, t + Duration::from_millis(2)));
        assert!(!f.is_dup(1, 6, t), "different seq passes");
        assert!(!f.is_dup(2, 5, t), "different transfer passes");
        // Outside the window the entry has aged out.
        assert!(!f.is_dup(1, 5, t + Duration::from_millis(20)));
    }

    #[test]
    fn dup_nak_filter_is_bounded() {
        let mut f = DupNakFilter::new(Duration::from_secs(10));
        for s in 0..10 * DUP_NAK_CAPACITY as u64 {
            f.is_dup(0, s, Time::from_millis(1));
        }
        assert!(f.seen.len() <= DUP_NAK_CAPACITY);
    }

    #[test]
    fn load_scaler_tracks_feedback_rate() {
        let mut s = LoadScaler::new(4);
        assert_eq!(s.level(Time::ZERO), 1);
        // 40 events in the first epoch -> level 11 clamped to 8.
        for _ in 0..40 {
            s.note(Time::from_millis(1));
        }
        let later = Time::from_millis(25);
        assert_eq!(s.level(later), 8);
        assert_eq!(
            s.scale(Duration::from_millis(4), later),
            Duration::from_millis(32)
        );
        // A quiet epoch relaxes back to 1.
        assert_eq!(s.level(Time::from_millis(50)), 1);
    }
}
