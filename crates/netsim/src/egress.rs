//! The virtual egress clock: a deterministic model of a FIFO transmit
//! queue draining onto a dedicated full-duplex link.
//!
//! Because each transmitter (host NIC or switch output port) owns its link
//! direction exclusively, its drain schedule is a pure function of what was
//! enqueued: frame `k` finishes at `max(enqueue_k, done_{k-1}) + tx_k`.
//! This lets the simulator compute every frame's departure instant at
//! enqueue time — no per-frame "transmission complete" events are needed —
//! while still modelling queue occupancy exactly for tail-drop and
//! blocking-send decisions.

use rmwire::{Duration, Time};
use std::collections::VecDeque;

/// A FIFO transmit queue with a virtual drain clock.
///
/// ```
/// use netsim::egress::Egress;
/// use rmwire::{Duration, Time};
///
/// let mut e = Egress::new();
/// let d1 = e.enqueue(Time::ZERO, Duration::from_micros(120), 1518);
/// let d2 = e.enqueue(Time::ZERO, Duration::from_micros(120), 1518);
/// assert_eq!(d2 - d1, Duration::from_micros(120), "back-to-back frames");
/// ```
#[derive(Debug, Default)]
pub struct Egress {
    /// When the last enqueued frame finishes serializing.
    clock: Time,
    /// `(done_instant, frame_bytes)` of frames not yet known-drained.
    inflight: VecDeque<(Time, usize)>,
    /// Sum of `inflight`'s byte counts, kept by `enqueue` and `prune` so
    /// that no query walks the deque.
    inflight_bytes: usize,
}

impl Egress {
    /// An idle egress.
    pub fn new() -> Self {
        Egress::default()
    }

    /// Drop bookkeeping for frames that finished before `now`.
    fn prune(&mut self, now: Time) {
        while let Some(&(done, bytes)) = self.inflight.front() {
            if done <= now {
                self.inflight.pop_front();
                self.inflight_bytes -= bytes;
            } else {
                break;
            }
        }
    }

    /// Bytes occupying the queue at `now` (frames not yet fully
    /// serialized, the one on the wire included).
    pub fn queued_bytes(&mut self, now: Time) -> usize {
        self.prune(now);
        self.inflight_bytes
    }

    /// Unconditionally enqueue a frame at `now`; returns the instant its
    /// last bit leaves the transmitter.
    pub fn enqueue(&mut self, now: Time, tx_time: Duration, frame_bytes: usize) -> Time {
        self.prune(now);
        let start = self.clock.max(now);
        let done = start + tx_time;
        self.clock = done;
        self.inflight.push_back((done, frame_bytes));
        self.inflight_bytes += frame_bytes;
        done
    }

    /// The earliest instant `t >= now` at which enqueuing `need` more bytes
    /// would keep occupancy within `cap`. Returns `now` when there is room
    /// already. `None` if `need` alone exceeds `cap` (it can never fit).
    pub fn earliest_fit(&mut self, now: Time, need: usize, cap: usize) -> Option<Time> {
        if need > cap {
            return None;
        }
        self.prune(now);
        let mut occupied = self.inflight_bytes;
        if occupied + need <= cap {
            return Some(now);
        }
        for &(done, bytes) in self.inflight.iter() {
            occupied -= bytes;
            if occupied + need <= cap {
                return Some(done);
            }
        }
        unreachable!("draining everything always makes room (need <= cap)");
    }

    /// When the transmitter becomes idle given everything enqueued so far.
    pub fn idle_at(&self) -> Time {
        self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const US: u64 = 1_000;

    fn t(us: u64) -> Time {
        Time::from_nanos(us * US)
    }
    fn d(us: u64) -> Duration {
        Duration::from_nanos(us * US)
    }

    #[test]
    fn back_to_back_serialization() {
        let mut e = Egress::new();
        let d1 = e.enqueue(t(0), d(120), 1518);
        let d2 = e.enqueue(t(0), d(120), 1518);
        assert_eq!(d1, t(120));
        assert_eq!(d2, t(240));
        // A frame enqueued after the queue drained starts immediately.
        let d3 = e.enqueue(t(500), d(120), 1518);
        assert_eq!(d3, t(620));
    }

    #[test]
    fn occupancy_tracks_drain() {
        let mut e = Egress::new();
        e.enqueue(t(0), d(100), 1000);
        e.enqueue(t(0), d(100), 1000);
        assert_eq!(e.queued_bytes(t(0)), 2000);
        assert_eq!(e.queued_bytes(t(100)), 1000);
        assert_eq!(e.queued_bytes(t(150)), 1000);
        assert_eq!(e.queued_bytes(t(200)), 0);
    }

    #[test]
    fn earliest_fit_blocks_until_drain() {
        let mut e = Egress::new();
        e.enqueue(t(0), d(100), 1000);
        e.enqueue(t(0), d(100), 1000);
        // Capacity 2500: 2000 queued; a 1000-byte frame fits once the first
        // frame drains at t=100.
        assert_eq!(e.earliest_fit(t(0), 1000, 2500), Some(t(100)));
        // Already fits.
        assert_eq!(e.earliest_fit(t(0), 500, 2500), Some(t(0)));
        // Can never fit.
        assert_eq!(e.earliest_fit(t(0), 3000, 2500), None);
        // Needs a full drain.
        assert_eq!(e.earliest_fit(t(0), 2500, 2500), Some(t(200)));
    }

    proptest::proptest! {
        /// The running total answers every query as a walk over the
        /// frames still in flight would.
        #[test]
        fn running_total_equals_the_walking_sum(
            // (advance us, tx us, frame bytes, 0 = enqueue / else query only)
            steps in proptest::collection::vec((0u64..400, 1u64..300, 64usize..1_519, 0u8..3), 1..300),
            cap in 2_000usize..40_000,
        ) {
            let mut e = Egress::new();
            // Everything ever enqueued, never pruned.
            let mut sent: Vec<(Time, usize)> = Vec::new();
            let mut now = Time::ZERO;
            for (advance, tx, bytes, op) in steps {
                now += d(advance);
                if op == 0 {
                    sent.push((e.enqueue(now, d(tx), bytes), bytes));
                }
                let in_flight = || sent.iter().filter(|&&(done, _)| done > now);
                let walked: usize = in_flight().map(|&(_, b)| b).sum();
                proptest::prop_assert_eq!(e.queued_bytes(now), walked);
                let mut occupied = walked;
                let fit = if occupied + bytes <= cap {
                    now
                } else {
                    in_flight()
                        .find(|&&(_, b)| {
                            occupied -= b;
                            occupied + bytes <= cap
                        })
                        .expect("bytes <= 1518 < cap")
                        .0
                };
                proptest::prop_assert_eq!(e.earliest_fit(now, bytes, cap), Some(fit));
            }
        }
    }

    #[test]
    fn idle_at_advances() {
        let mut e = Egress::new();
        assert_eq!(e.idle_at(), Time::ZERO);
        e.enqueue(t(10), d(5), 64);
        assert_eq!(e.idle_at(), t(15));
    }
}
