//! The runtime invariant audit.
//!
//! Every protocol engine can be asked, at any driver-call boundary, to
//! prove from first principles that its state still satisfies the safety
//! rules the four protocol families are built on. [`crate::Sender::audit`]
//! and [`crate::Receiver::audit`] return every violated invariant as a
//! human-readable finding; under `debug_assertions` the engines call the
//! audit themselves after every `handle_datagram` / `handle_timeout` /
//! `send_message`, so the whole sim, chaos, and fuzz test suites double as
//! an invariant audit at zero release-build cost.
//!
//! The audited invariants, by identifier (the `rmcheck explore` model
//! checker asserts the same list across *all* interleavings of a
//! small-scope configuration; see `docs/CORRECTNESS.md`):
//!
//! | id | holder | invariant |
//! |------|----------|-----------|
//! | `S1` | sender | window structure: `base ≤ next ≤ k`, occupancy ≤ capacity, one slot per outstanding packet |
//! | `S2` | sender | buffers released only after ACK coverage: `win.base ≤ release.released()` |
//! | `S3` | sender | release-tracker consistency: the released prefix is the minimum over active sources (ACK/NAK/tree), or obeys the ring `X − N` rule with the all-acked fast path |
//! | `S4` | sender | at least one acknowledgment source stays in the proof obligation |
//! | `S5` | sender | tree topology: symmetric parent/child links, roots cover the group exactly once |
//! | `S6` | sender | transfer bookkeeping: an allocation transfer, current or staged, spans exactly one packet (transfer ids are derived from message and phase, even for allocation, odd for data) |
//! | `S7` | sender (`Quarantine`) | overload bookkeeping: a quarantined receiver is never sticky-evicted at the same time; every eviction takes the rank's quarantine entry |
//! | `S8` | sender | fec coding state: present iff the fec family is configured, bound only to (odd-id) data transfers, buffered losses always have a flush deadline armed |
//! | `R1` | receiver | per-transfer progress: `own_next ≤ k`, a delivered transfer is complete, the tracked prefix mirrors the assembly |
//! | `R2` | receiver | ack-aggregation monotonicity: nothing acknowledged up the tree beyond what this node and its live children can prove (`sent_up ≤ aggregate`) |
//! | `R3` | receiver | reassembly discipline: Go-Back-N buffers nothing out of order; selective repeat keeps a contiguous prefix and stays inside the receive window |
//! | `R4` | receiver (`tree::Aggregator`) | child bookkeeping: every tracked transfer keeps one coverage slot per child of the aggregation links (a child's slot is its position in the links, and its liveness entry lives in one per-child vector built from them, so neither can fall out of step) |
//!
//! The audit is deliberately *redundant*: it recomputes what the engines
//! maintain incrementally (release prefixes, ring token runs, aggregation
//! minima) and compares. A drifted incremental update is exactly the class
//! of bug probabilistic testing misses — SRM's loss-recovery corner cases
//! survived for decades that way.

/// One violated invariant: the identifier from the table above plus a
/// specific, state-bearing description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Invariant identifier (`S1`…`S8`, `R1`…`R4`).
    pub id: &'static str,
    /// What exactly was violated, with the offending values.
    pub detail: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.id, self.detail)
    }
}

/// Collects violations during one audit pass.
#[derive(Debug, Default)]
pub struct Audit {
    violations: Vec<Violation>,
}

impl Audit {
    /// An empty audit pass.
    pub fn new() -> Self {
        Audit::default()
    }

    /// Record the outcome of one structural check under invariant `id`.
    pub fn check(&mut self, id: &'static str, result: Result<(), String>) {
        if let Err(detail) = result {
            self.violations.push(Violation { id, detail });
        }
    }

    /// Record a boolean invariant under `id`; `detail` is evaluated only
    /// on failure.
    pub fn require(&mut self, id: &'static str, ok: bool, detail: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(Violation {
                id,
                detail: detail(),
            });
        }
    }

    /// Finish the pass: `Ok` when every invariant held.
    pub fn finish(self) -> Result<(), Vec<Violation>> {
        if self.violations.is_empty() {
            Ok(())
        } else {
            Err(self.violations)
        }
    }
}

/// Render a violation list the way the debug hooks and `rmcheck` report
/// it: one line per violated invariant.
pub fn render(violations: &[Violation]) -> String {
    violations
        .iter()
        .map(Violation::to_string)
        .collect::<Vec<_>>()
        .join("; ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_collects_and_renders() {
        let mut a = Audit::new();
        a.check("S1", Ok(()));
        a.require("S2", true, || unreachable!("not evaluated on success"));
        a.check("S3", Err("released 5 beyond coverage 3".into()));
        a.require("S4", false, || "zero active sources".into());
        let err = a.finish().expect_err("two violations recorded");
        assert_eq!(err.len(), 2);
        assert_eq!(err[0].id, "S3");
        let text = render(&err);
        assert!(text.contains("[S3] released 5"));
        assert!(text.contains("[S4] zero active sources"));
    }

    #[test]
    fn clean_audit_passes() {
        assert!(Audit::new().finish().is_ok());
    }
}
