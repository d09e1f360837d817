//! Dynamic membership support: the heartbeat failure detector.
//!
//! The paper's protocols fix the receiver set before each message; this
//! module supplies the pure state machine the sender layers on top so the
//! set can change at message boundaries.
//!
//! [`FailureDetector`] is per-receiver liveness scoring driven by the
//! sender's heartbeat schedule. A member that misses three consecutive
//! heartbeats is *suspected* (counted in stats, no action); at six it is
//! reported for eviction. Any current-epoch traffic from the member resets
//! its score. This replaces raw consecutive-retry counters as the eviction
//! trigger when membership is enabled.
//!
//! It is plain data: no clocks, no I/O, usable identically by the
//! simulator-driven and the real-socket backends.

/// Consecutive missed heartbeats before a member is *suspected* (counted,
/// not yet acted on).
const SUSPECT_MISSES: u32 = 3;

/// Consecutive missed heartbeats before a member is evicted from the group
/// (epoch bump + re-release of its window obligations).
const EVICT_MISSES: u32 = 6;

/// What the failure detector concluded about one member after a missed
/// heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessVerdict {
    /// Still within the suspect threshold.
    Alive,
    /// Crossed three misses (first time only; later misses inside the
    /// suspect band report `Alive` so stats count each suspicion once).
    NewlySuspected,
    /// Crossed six misses: the caller should evict the member.
    Evict,
}

/// Per-member heartbeat-miss scoring.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    misses: Vec<u32>,
    suspected: Vec<bool>,
}

impl FailureDetector {
    /// A detector over `n` members.
    pub fn new(n: usize) -> Self {
        FailureDetector {
            misses: vec![0; n],
            suspected: vec![false; n],
        }
    }

    /// Record proof of life for member `idx` (current-epoch ACK/NAK,
    /// heartbeat reply, or join).
    pub fn note_alive(&mut self, idx: usize) {
        self.misses[idx] = 0;
        self.suspected[idx] = false;
    }

    /// Record one missed heartbeat for member `idx` and report the
    /// resulting verdict.
    pub fn record_miss(&mut self, idx: usize) -> LivenessVerdict {
        self.misses[idx] = self.misses[idx].saturating_add(1);
        if self.misses[idx] >= EVICT_MISSES {
            LivenessVerdict::Evict
        } else if self.misses[idx] >= SUSPECT_MISSES && !self.suspected[idx] {
            self.suspected[idx] = true;
            LivenessVerdict::NewlySuspected
        } else {
            LivenessVerdict::Alive
        }
    }

    /// Is `idx` currently in the suspect band?
    pub fn is_suspected(&self, idx: usize) -> bool {
        self.suspected[idx]
    }

    /// Forget all state for `idx` (after eviction or readmission).
    pub fn reset(&mut self, idx: usize) {
        self.note_alive(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_suspects_then_evicts() {
        let mut d = FailureDetector::new(2);
        for _ in 1..SUSPECT_MISSES {
            assert_eq!(d.record_miss(0), LivenessVerdict::Alive);
        }
        assert_eq!(d.record_miss(0), LivenessVerdict::NewlySuspected);
        assert!(d.is_suspected(0));
        // Later misses inside the suspect band are not re-reported.
        for _ in SUSPECT_MISSES + 1..EVICT_MISSES {
            assert_eq!(d.record_miss(0), LivenessVerdict::Alive);
        }
        assert_eq!(d.record_miss(0), LivenessVerdict::Evict);
        // The other member is untouched.
        assert!(!d.is_suspected(1));
    }

    #[test]
    fn proof_of_life_resets_score() {
        let mut d = FailureDetector::new(1);
        for _ in 0..SUSPECT_MISSES {
            d.record_miss(0);
        }
        assert!(d.is_suspected(0));
        d.note_alive(0);
        assert!(!d.is_suspected(0));
        assert_eq!(d.record_miss(0), LivenessVerdict::Alive);
    }
}
