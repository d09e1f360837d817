//! Typed session failures.
//!
//! The paper's protocols assume every group member stays up; a crashed
//! receiver leaves the sender retransmitting forever. When the liveness
//! knobs ([`crate::config::LivenessConfig`]) bound that retry loop, the
//! engine reports *why* it stopped through one of these errors instead of
//! spinning — the bounded-time guarantee the chaos experiments assert.

use std::fmt;

/// Why a message session was abandoned instead of completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The sender hit `max_retx` consecutive timeouts on one transfer
    /// without the window advancing, and straggler eviction was off (or
    /// could not identify a culprit).
    RetryLimitExceeded {
        /// Transfer that stalled.
        transfer: u32,
        /// Consecutive timeouts when the sender gave up.
        timeouts: u32,
    },
    /// Straggler eviction removed every receiver: nobody is left to
    /// deliver to.
    AllReceiversEvicted {
        /// Transfer that stalled.
        transfer: u32,
    },
    /// A receiver stopped hearing the sender for `receiver_giveup` and
    /// abandoned its incomplete transfers.
    SenderStalled {
        /// Oldest transfer the receiver was still waiting on.
        transfer: u32,
    },
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::RetryLimitExceeded { transfer, timeouts } => write!(
                f,
                "transfer {transfer} abandoned after {timeouts} consecutive timeouts"
            ),
            SessionError::AllReceiversEvicted { transfer } => {
                write!(f, "transfer {transfer} abandoned: every receiver evicted")
            }
            SessionError::SenderStalled { transfer } => {
                write!(f, "transfer {transfer} abandoned: sender went silent")
            }
        }
    }
}

impl std::error::Error for SessionError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_transfer() {
        let e = SessionError::RetryLimitExceeded {
            transfer: 3,
            timeouts: 8,
        };
        assert!(e.to_string().contains("transfer 3"));
        assert!(e.to_string().contains("8 consecutive timeouts"));
        let e = SessionError::AllReceiversEvicted { transfer: 5 };
        assert!(e.to_string().contains("every receiver evicted"));
        let e = SessionError::SenderStalled { transfer: 7 };
        assert!(e.to_string().contains("sender went silent"));
    }
}
