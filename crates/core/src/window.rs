//! The sender's sliding window.
//!
//! Every transfer numbers its packets `0..k`; the window tracks which
//! packets are in flight, when each was last (re)transmitted, and releases
//! a contiguous prefix as the protocol's release tracker advances
//! (paper §4 *Flow control*: Go-Back-N with sender-driven timers).

use rmwire::{Duration, Time};
use std::collections::VecDeque;

/// Per-packet bookkeeping inside the window.
#[derive(Debug, Clone, Copy)]
pub struct Slot {
    /// When this packet was last put on the wire.
    pub last_tx: Time,
    /// How many times it was retransmitted.
    pub retx: u32,
}

/// A fixed-capacity sliding send window over packets `0..k`.
///
/// ```
/// use rmcast::window::SendWindow;
/// use rmwire::Time;
///
/// let mut w = SendWindow::new(10, 3);          // 10 packets, window 3
/// while w.can_send() { w.mark_sent(Time::ZERO); }
/// assert_eq!(w.next(), 3);                     // window full
/// w.release(2);                                // coverage reached packet 2
/// assert!(w.can_send());                       // room for packet 3
/// ```
#[derive(Debug, Clone)]
pub struct SendWindow {
    base: u32,
    next: u32,
    k: u32,
    cap: u32,
    slots: VecDeque<Slot>,
}

impl SendWindow {
    /// Window of `cap` packets over a `k`-packet transfer.
    pub fn new(k: u32, cap: u32) -> Self {
        assert!(k >= 1, "a transfer has at least one packet");
        assert!(cap >= 1, "window capacity must be >= 1");
        SendWindow {
            base: 0,
            next: 0,
            k,
            cap,
            slots: VecDeque::with_capacity(cap as usize),
        }
    }

    /// First unreleased sequence number.
    pub fn base(&self) -> u32 {
        self.base
    }

    /// Next never-sent sequence number.
    pub fn next(&self) -> u32 {
        self.next
    }

    /// Total packets in the transfer.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// `true` when a fresh packet may enter the window.
    pub fn can_send(&self) -> bool {
        self.next < self.k && self.next - self.base < self.cap
    }

    /// Record the first transmission of `next()` at `now`; returns its
    /// sequence number.
    pub fn mark_sent(&mut self, now: Time) -> u32 {
        assert!(self.can_send(), "window full or transfer exhausted");
        let seq = self.next;
        self.next += 1;
        self.slots.push_back(Slot {
            last_tx: now,
            retx: 0,
        });
        seq
    }

    /// Packets currently outstanding (sent, unreleased).
    pub fn outstanding(&self) -> impl Iterator<Item = u32> + '_ {
        self.base..self.next
    }

    /// `true` when every packet of the transfer has been released.
    pub fn all_released(&self) -> bool {
        self.base == self.k
    }

    /// Mutable slot for an outstanding `seq`, or `None` if released /
    /// unsent.
    pub fn slot_mut(&mut self, seq: u32) -> Option<&mut Slot> {
        if seq < self.base || seq >= self.next {
            return None;
        }
        self.slots.get_mut((seq - self.base) as usize)
    }

    /// Read-only slot for an outstanding `seq` (tracing, coding).
    pub fn slot(&self, seq: u32) -> Option<&Slot> {
        if seq < self.base || seq >= self.next {
            return None;
        }
        self.slots.get((seq - self.base) as usize)
    }

    /// Release every packet below `upto` (idempotent; clamped to what has
    /// actually been sent).
    pub fn release(&mut self, upto: u32) {
        let upto = upto.min(self.next);
        while self.base < upto {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Earliest deadline across *all* outstanding packets. Under selective
    /// repeat each packet effectively has its own timer; retransmissions
    /// push individual `last_tx` values forward, so the front slot is not
    /// necessarily the next to expire.
    pub fn earliest_deadline(&self, rto: Duration) -> Option<Time> {
        self.slots.iter().map(|s| s.last_tx + rto).min()
    }

    /// Outstanding sequence numbers whose last transmission is at least
    /// `rto` before `now`.
    pub fn expired(&self, now: Time, rto: Duration) -> Vec<u32> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| now.saturating_since(s.last_tx).as_nanos() >= rto.as_nanos())
            .map(|(i, _)| self.base + i as u32)
            .collect()
    }

    /// Bytes of protocol buffer the window pins for `packet_size`-byte
    /// packets (the in-flight span).
    pub fn buffered_bytes(&self, packet_size: usize) -> usize {
        (self.next - self.base) as usize * packet_size
    }

    /// Window capacity in packets.
    pub fn capacity(&self) -> u32 {
        self.cap
    }

    /// Retarget the window capacity (AIMD adaptation). Shrinking below the
    /// current occupancy never discards in-flight packets: the effective
    /// capacity clamps to the occupancy and new sends stay blocked until
    /// releases drain the window down to the requested cap.
    pub fn set_cap(&mut self, cap: u32) {
        assert!(cap >= 1, "window capacity must be >= 1");
        self.cap = cap.max(self.next - self.base);
    }

    /// Structural self-check: the window-never-exceeded and
    /// base-within-transfer invariants, verified from first principles
    /// (`rmcheck` and the `debug_assertions` audit both call this).
    pub fn check(&self) -> Result<(), String> {
        if self.base > self.next {
            return Err(format!(
                "window base {} beyond next {}",
                self.base, self.next
            ));
        }
        if self.next > self.k {
            return Err(format!(
                "window sent {} packets of a {}-packet transfer",
                self.next, self.k
            ));
        }
        if self.next - self.base > self.cap {
            return Err(format!(
                "window occupancy {} exceeds capacity {}",
                self.next - self.base,
                self.cap
            ));
        }
        if self.slots.len() != (self.next - self.base) as usize {
            return Err(format!(
                "window tracks {} slots for {} outstanding packets",
                self.slots.len(),
                self.next - self.base
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    #[test]
    fn fills_to_capacity() {
        let mut w = SendWindow::new(10, 3);
        assert!(w.can_send());
        assert_eq!(w.mark_sent(t(0)), 0);
        assert_eq!(w.mark_sent(t(1)), 1);
        assert_eq!(w.mark_sent(t(2)), 2);
        assert!(!w.can_send(), "window of 3 is full");
        assert_eq!(w.outstanding().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn release_slides_window() {
        let mut w = SendWindow::new(10, 3);
        for _ in 0..3 {
            w.mark_sent(t(0));
        }
        w.release(2);
        assert_eq!(w.base(), 2);
        assert!(w.can_send());
        assert_eq!(w.mark_sent(t(5)), 3);
        // Releasing below base is a no-op.
        w.release(1);
        assert_eq!(w.base(), 2);
        // Releasing beyond what was sent clamps.
        w.release(100);
        assert_eq!(w.base(), 4);
        assert!(!w.all_released());
    }

    #[test]
    fn completes_when_all_released() {
        let mut w = SendWindow::new(2, 5);
        w.mark_sent(t(0));
        w.mark_sent(t(0));
        assert!(!w.can_send(), "transfer exhausted");
        w.release(2);
        assert!(w.all_released());
        assert_eq!(w.buffered_bytes(100), 0);
    }

    #[test]
    fn slots_and_deadlines() {
        let mut w = SendWindow::new(5, 5);
        w.mark_sent(t(10));
        w.mark_sent(t(20));
        assert!(w.slot_mut(4).is_none(), "unsent seq has no slot");
        w.release(1);
        assert!(w.slot_mut(0).is_none(), "released seq has no slot");
    }

    #[test]
    fn buffered_bytes_tracks_span() {
        let mut w = SendWindow::new(10, 4);
        assert_eq!(w.buffered_bytes(500), 0);
        w.mark_sent(t(0));
        w.mark_sent(t(0));
        assert_eq!(w.buffered_bytes(500), 1000);
        w.release(1);
        assert_eq!(w.buffered_bytes(500), 500);
    }

    #[test]
    fn set_cap_blocks_new_sends_without_dropping_flight() {
        let mut w = SendWindow::new(10, 4);
        for _ in 0..4 {
            w.mark_sent(t(0));
        }
        // Shrink below occupancy: nothing is discarded, check() still
        // holds, and sends stay blocked.
        w.set_cap(2);
        assert_eq!(w.capacity(), 4, "clamped to occupancy");
        w.check().unwrap();
        assert!(!w.can_send());
        // Once releases drain the window, a re-applied cap takes effect.
        w.release(3);
        w.set_cap(2);
        assert_eq!(w.capacity(), 2);
        w.mark_sent(t(1));
        assert!(!w.can_send(), "occupancy 2 fills the shrunken cap");
        // Growing reopens immediately.
        w.set_cap(5);
        assert!(w.can_send());
        w.check().unwrap();
    }

    #[test]
    #[should_panic(expected = "window full")]
    fn overfill_panics() {
        let mut w = SendWindow::new(10, 1);
        w.mark_sent(t(0));
        w.mark_sent(t(0));
    }
}
