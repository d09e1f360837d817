//! Slow-receiver quarantine.
//!
//! A receiver that holds a data transfer's window through
//! `quarantine_after` consecutive timeouts stops gating it. It leaves the
//! release obligation (it is still a member) and is served catch-up
//! retransmissions by unicast, [`CATCHUP_BATCH`] packets every
//! [`CATCHUP_INTERVAL`], from the horizon it has acknowledged. Completion
//! waits until it holds the whole transfer, and it rejoins the obligation
//! at the message boundary. When its `quarantine_budget` of rounds runs
//! out first, the sender resolves it on the liveness path: eviction, or
//! a typed failure.
//!
//! [`Quarantine`] owns that per-receiver state and the decisions over it;
//! the sender owns the windows and carries the decisions out. With
//! quarantine off it holds no entries, and every call is one branch.

use crate::endpoint::Io;
use crate::invariants::Audit;
use crate::membership::Members;
use crate::overload::OverloadConfig;
use rmtrace::TraceEvent;
use rmwire::{Duration, Rank, Time};
use std::ops::Range;

/// Packets unicast per catch-up round to one quarantined receiver.
const CATCHUP_BATCH: u32 = 4;

/// Spacing between catch-up rounds to one quarantined receiver.
const CATCHUP_INTERVAL: Duration = Duration::from_millis(10);

/// One quarantined receiver.
#[derive(Debug, Clone)]
struct Entry {
    /// The quarantined transfer.
    transfer: u32,
    /// Highest next-expected sequence the rank has acknowledged.
    horizon: u32,
    /// When the next catch-up batch may go out.
    next_catchup: Time,
    /// Catch-up rounds already spent (bounded by `quarantine_budget`).
    rounds: u32,
}

/// Per-receiver quarantine state and its schedule.
#[derive(Debug, Clone)]
pub(crate) struct Quarantine {
    /// Stall streak that moves a transfer's laggards here (`None`: off).
    after: Option<u32>,
    /// Catch-up rounds an entry gets before the liveness path takes over.
    budget: u32,
    /// By receiver index; empty while quarantine is off.
    slots: Vec<Option<Entry>>,
}

/// What a quarantined receiver's catch-up schedule asks for now.
pub(crate) enum Round {
    /// Retransmit these sequences to it by unicast.
    Serve(Range<u32>),
    /// Its budget is spent: resolve it on the liveness path.
    Spent,
}

impl Quarantine {
    /// The quarantine `cfg` asks for, over `n` receivers.
    pub(crate) fn new(cfg: &OverloadConfig, n: usize) -> Quarantine {
        Quarantine {
            after: cfg.quarantine_after,
            budget: cfg.quarantine_budget,
            slots: match cfg.quarantine_after {
                Some(_) => vec![None; n],
                None => Vec::new(),
            },
        }
    }

    /// Has a data transfer stalled through `streak` timeouts, long enough
    /// to quarantine the laggards holding it?
    pub(crate) fn is_due(&self, streak: u32) -> bool {
        self.after.is_some_and(|after| streak >= after)
    }

    /// Quarantine each of `laggards` not already held, on data transfer
    /// `transfer` whose released prefix is `horizon`. Keeps in `laggards`
    /// only the ranks that entered: the caller drops those from its proof
    /// obligations.
    pub(crate) fn enter(
        &mut self,
        now: Time,
        transfer: u32,
        horizon: u32,
        laggards: &mut Vec<Rank>,
        io: &mut Io,
    ) {
        laggards.retain(|&rank| {
            let slot = &mut self.slots[rank.receiver_index()];
            if slot.is_some() {
                return false;
            }
            *slot = Some(Entry {
                transfer,
                horizon,
                next_catchup: now + CATCHUP_INTERVAL,
                rounds: 0,
            });
            io.stats.quarantine_entered += 1;
            io.tracer.emit(
                now.as_nanos(),
                TraceEvent::QuarantineEnter {
                    peer: rank.0,
                    transfer,
                },
            );
            true
        });
    }

    /// Note a quarantined peer's acknowledgment horizon (both its ACK
    /// `next_expected` and its NAK `expected` mean "I hold everything
    /// below this"). Returns `true` when `rank` is quarantined: its
    /// feedback goes no further, since it gates no release.
    pub(crate) fn note_horizon(&mut self, rank: Rank, transfer: u32, below: u32) -> bool {
        let Some(Some(q)) = self.slots.get_mut(rank.receiver_index()) else {
            return false;
        };
        if q.transfer == transfer {
            q.horizon = q.horizon.max(below);
        }
        true
    }

    /// True while a quarantined receiver still lacks packets of the
    /// `k`-packet transfer `transfer`: its completion (and with it, buffer
    /// reuse) waits for the catch-up or the budget.
    pub(crate) fn blocks_completion(&self, transfer: u32, k: u32) -> bool {
        self.slots
            .iter()
            .flatten()
            .any(|q| q.transfer == transfer && q.horizon < k)
    }

    /// Earliest due catch-up round on `transfer`.
    pub(crate) fn deadline(&self, transfer: u32) -> Option<Time> {
        self.slots
            .iter()
            .flatten()
            .filter(|q| q.transfer == transfer)
            .map(|q| q.next_catchup)
            .min()
    }

    /// Receiver indices that can hold an entry (none while off).
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Receiver `idx`'s catch-up round on `transfer`, if one is due; the
    /// window has sent everything below `next`. Schedules the next round.
    pub(crate) fn round(
        &mut self,
        idx: usize,
        transfer: u32,
        next: u32,
        now: Time,
    ) -> Option<Round> {
        let q = self.slots[idx].as_mut()?;
        if q.transfer != transfer || q.next_catchup > now {
            return None;
        }
        if q.rounds >= self.budget {
            return Some(Round::Spent);
        }
        let from = q.horizon;
        let to = from.saturating_add(CATCHUP_BATCH).min(next);
        if to > from {
            q.rounds += 1;
        }
        q.next_catchup = now + CATCHUP_INTERVAL;
        Some(Round::Serve(from..to))
    }

    /// Take `rank` out of quarantine on the liveness path: its budget ran
    /// out, or it is being evicted. Every eviction comes through here, so
    /// no receiver is ever both quarantined and evicted (`S7`). Returns
    /// the entry's transfer and spent rounds, if `rank` was quarantined.
    pub(crate) fn resolve(&mut self, rank: Rank, now: Time, io: &mut Io) -> Option<(u32, u32)> {
        let q = self.slots.get_mut(rank.receiver_index())?.take()?;
        io.stats.quarantine_evicted += 1;
        io.tracer.emit(
            now.as_nanos(),
            TraceEvent::QuarantineExit {
                peer: rank.0,
                transfer: q.transfer,
                caught_up: 0,
            },
        );
        Some((q.transfer, q.rounds))
    }

    /// Drop `rank`'s entry unresolved: it restarted, so what its catch-up
    /// was aimed at is gone.
    pub(crate) fn forget(&mut self, rank: Rank) {
        if let Some(slot) = self.slots.get_mut(rank.receiver_index()) {
            *slot = None;
        }
    }

    /// Message boundary: every quarantined receiver has (by the completion
    /// gate) caught up, and rejoins the next message's proof obligation.
    pub(crate) fn rejoin_all(&mut self, now: Time, io: &mut Io) {
        for (idx, slot) in self.slots.iter_mut().enumerate() {
            let Some(q) = slot.take() else {
                continue;
            };
            io.stats.quarantine_rejoined += 1;
            io.tracer.emit(
                now.as_nanos(),
                TraceEvent::QuarantineExit {
                    peer: Rank::from_receiver_index(idx).0,
                    transfer: q.transfer,
                    caught_up: 1,
                },
            );
        }
    }

    /// `S7`: a quarantined receiver is never sticky-evicted.
    pub(crate) fn audit(&self, a: &mut Audit, members: &Members) {
        for (idx, q) in self.slots.iter().enumerate() {
            if q.is_some() {
                a.require("S7", !members.is_evicted(idx), || {
                    format!("receiver index {idx} both quarantined and sticky-evicted")
                });
            }
        }
    }

    /// Fold the protocol-logical state (everything but the catch-up
    /// clocks) into a digest.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        for q in &self.slots {
            match q {
                None => h.write_u8(0),
                Some(q) => {
                    h.write_u8(1);
                    h.write_u32(q.transfer);
                    h.write_u32(q.horizon);
                    h.write_u32(q.rounds);
                }
            }
        }
    }
}
