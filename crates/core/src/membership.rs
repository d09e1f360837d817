//! Group membership: who the sender delivers to, and how that changes.
//!
//! The paper's protocols fix the receiver set before each message; this
//! module lets the set change at message boundaries.
//!
//! `Members` is the sender's membership component. It holds the sticky
//! evictions (kept with membership off too: the liveness bound evicts
//! stragglers), the tree's detached rejoiners, the epoch, each member's
//! missed-heartbeat count and the heartbeat schedule, and the joins waiting
//! for a message boundary. It gates incoming feedback, moves the epoch, and
//! admits joiners; the sender removes an evicted rank from its windows.
//!
//! With membership on, liveness is scored by heartbeat: a member that
//! misses three consecutive heartbeats is *suspected* (counted in stats, no
//! action); at six it is reported for eviction. Any current-epoch traffic
//! from the member resets its count. This replaces raw consecutive-retry
//! counters as the eviction trigger.
//!
//! `Admission` is the receiver's side: its epoch, the first transfer it is
//! obligated for, and the JOIN retries of a receiver not yet admitted.
//!
//! It is plain data: no clocks, no I/O, usable identically by the
//! simulator-driven and the real-socket backends.

use crate::endpoint::{AppEvent, Dest, Io};
use crate::packet;
use crate::sender::Sender;
use crate::stats::Stats;
use crate::tree::TreeTopology;
use rmtrace::TraceEvent;
use rmwire::{Duration, PacketType, Rank, SyncBody, Time};
use std::iter;

/// Consecutive missed heartbeats before a member is *suspected* (counted,
/// not yet acted on).
const SUSPECT_MISSES: u32 = 3;

/// Consecutive missed heartbeats before a member is evicted from the group
/// (epoch bump + re-release of its window obligations).
const EVICT_MISSES: u32 = 6;

/// Interval between the sender's multicast heartbeat announces (and
/// missed-heartbeat counts). Heartbeats run only while messages are in
/// flight, so an idle group stays silent.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(50);

/// How long a joining receiver waits for a SYNC before re-sending its
/// JOIN.
pub(crate) const JOIN_RETRY: Duration = Duration::from_millis(100);

/// The sender's membership component.
#[derive(Debug, Clone)]
pub(crate) struct Members {
    /// By receiver index: out of every proof obligation. Set by eviction,
    /// and by a restart until the rank is readmitted. Sticky across
    /// transfers: a dead receiver never gates a later message.
    evicted: Vec<bool>,
    /// Tree mode, by receiver index: rejoined receivers acting as detached
    /// roots (they report straight to the sender instead of re-entering
    /// their original ack chain).
    detached: Vec<bool>,
    /// Membership epoch. `0` while membership is disabled; starts at `1`
    /// and bumps on every membership change (eviction, leave, admission)
    /// otherwise.
    epoch: u32,
    /// By receiver index: consecutive heartbeats missed. Present exactly
    /// when membership is enabled.
    misses: Option<Vec<u32>>,
    /// Next heartbeat announce and miss count. Armed only while the
    /// sender is busy, so an idle group stays silent.
    hb_deadline: Option<Time>,
    /// Ranks awaiting admission at the next message boundary.
    pending_joins: Vec<Rank>,
}

impl Members {
    /// All `n` receivers in, with membership `enabled` or not.
    pub(crate) fn new(n: usize, enabled: bool) -> Members {
        Members {
            evicted: vec![false; n],
            detached: vec![false; n],
            epoch: u32::from(enabled),
            misses: enabled.then(|| vec![0; n]),
            hb_deadline: None,
            pending_joins: Vec::new(),
        }
    }

    /// Is dynamic membership on?
    pub(crate) fn enabled(&self) -> bool {
        self.misses.is_some()
    }

    /// The current epoch (`0` when membership is disabled).
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Is receiver index `idx` out of the proof obligations?
    pub(crate) fn is_evicted(&self, idx: usize) -> bool {
        self.evicted[idx]
    }

    /// Does receiver index `idx` report as a detached tree root?
    pub(crate) fn is_detached(&self, idx: usize) -> bool {
        self.detached[idx]
    }

    /// Multicast a heartbeat announce carrying the current epoch.
    fn announce(&self, io: &mut Io) {
        io.stats.heartbeats_sent += 1;
        io.send(
            Dest::Receivers,
            packet::encode_membership(PacketType::Heartbeat, Rank::SENDER, self.epoch),
        );
    }

    /// Move to the next epoch.
    fn next_epoch(&mut self, now: Time, io: &mut Io) {
        self.epoch += 1;
        io.tracer.emit(
            now.as_nanos(),
            TraceEvent::EpochChange { epoch: self.epoch },
        );
    }

    /// After a batch of evictions: with membership on, move the epoch once
    /// and announce it.
    pub(crate) fn announce_change(&mut self, now: Time, io: &mut Io) {
        if self.enabled() {
            self.next_epoch(now, io);
            self.announce(io);
        }
    }

    /// Going busy: start the heartbeat schedule with an immediate announce
    /// so receivers can prove liveness before the first miss is counted.
    pub(crate) fn start_heartbeats(&mut self, now: Time, io: &mut Io) {
        if self.enabled() && self.hb_deadline.is_none() {
            self.announce(io);
            self.hb_deadline = Some(now + HEARTBEAT_INTERVAL);
        }
    }

    /// The next heartbeat tick, while armed.
    pub(crate) fn deadline(&self) -> Option<Time> {
        self.hb_deadline
    }

    /// One heartbeat period elapsed: announce, charge every member one
    /// miss, and return those past the eviction threshold. An idle sender
    /// (`busy == false`) disarms the schedule instead, so drivers reach
    /// quiescence.
    pub(crate) fn tick(&mut self, now: Time, busy: bool, io: &mut Io) -> Vec<Rank> {
        if !busy {
            self.hb_deadline = None;
            return Vec::new();
        }
        self.announce(io);
        let mut silent = Vec::new();
        if let Some(misses) = self.misses.as_mut() {
            for idx in (0..self.evicted.len()).filter(|&i| !self.evicted[i]) {
                misses[idx] = misses[idx].saturating_add(1);
                if misses[idx] >= EVICT_MISSES {
                    silent.push(Rank::from_receiver_index(idx));
                } else if misses[idx] == SUSPECT_MISSES {
                    io.stats.suspects += 1;
                }
            }
        }
        // Never evict the last live member: with nobody left there is no
        // one to deliver to, and the bounded-retry path reports that
        // failure with a typed error instead. With no live member at all
        // (every receiver left, or restarted and awaits readmission) there
        // is nobody to evict.
        let live = self.evicted.iter().filter(|&&e| !e).count();
        if silent.len() >= live {
            silent.truncate(live.saturating_sub(1));
        }
        self.hb_deadline = Some(now + HEARTBEAT_INTERVAL);
        silent
    }

    /// Membership gate for incoming ACK/NAK/heartbeat traffic. Returns
    /// `false` when the packet must not touch window state: it carried a
    /// stale epoch, or it came from an evicted member. Either way the
    /// member's reappearance is treated as an implicit rejoin request —
    /// the partition-heal path, where a member dropped by the failure
    /// detector never learned it was evicted and just keeps talking — and
    /// the caller should try to admit it.
    pub(crate) fn accept(&mut self, rank: Rank, epoch: Option<u32>, stats: &mut Stats) -> bool {
        let Some(misses) = self.misses.as_mut() else {
            return true;
        };
        let idx = rank.receiver_index();
        if epoch.is_some_and(|e| e != self.epoch) {
            stats.stale_epoch_discarded += 1;
        } else if !self.evicted[idx] {
            misses[idx] = 0;
            return true;
        }
        // Traffic from a non-member, stale or in the current epoch (it
        // adopted the epoch from a heartbeat announce), asks to rejoin.
        if self.evicted[idx] {
            self.queue_join(rank);
        }
        false
    }

    fn queue_join(&mut self, rank: Rank) {
        if !self.pending_joins.contains(&rank) {
            self.pending_joins.push(rank);
        }
    }

    /// Take receiver index `idx` out of the group: out of every proof
    /// obligation, no longer a detached root, miss count cleared.
    pub(crate) fn mark_out(&mut self, idx: usize) {
        self.evicted[idx] = true;
        self.detached[idx] = false;
        self.clear_misses(idx);
    }

    fn clear_misses(&mut self, idx: usize) {
        if let Some(misses) = self.misses.as_mut() {
            misses[idx] = 0;
        }
    }

    /// Admission request (first join, or rejoin after eviction/restart):
    /// answer with an immediate WELCOME so the joiner stops re-sending
    /// JOINs (the binding SYNC follows at the next message boundary) and
    /// queue it. Returns `true` when `rank` was a member believed active:
    /// it restarted, so its old acknowledgment state is gone and the caller
    /// must stop waiting for it. That is pending admission, not a failure:
    /// no `ReceiverEvicted` event, no epoch change yet.
    pub(crate) fn join(&mut self, rank: Rank, io: &mut Io) -> bool {
        io.send(
            Dest::Rank(rank),
            packet::encode_membership(PacketType::Welcome, Rank::SENDER, self.epoch),
        );
        let idx = rank.receiver_index();
        let restarted = !self.evicted[idx];
        self.mark_out(idx);
        self.queue_join(rank);
        restarted
    }

    /// Voluntary departure: forget any pending join. Returns `true` when
    /// `rank` is a member the caller must evict.
    pub(crate) fn leave(&mut self, rank: Rank) -> bool {
        self.pending_joins.retain(|&r| r != rank);
        !self.evicted[rank.receiver_index()]
    }

    /// At a message boundary: admit every pending joiner. Clear their
    /// evicted bits, move the epoch once for the batch, and hand each a
    /// SYNC naming `next_msg`, the first message it is responsible for.
    /// In a tree, a joiner that is not a root re-enters as a detached
    /// root: its old chain position is gone (its parent may have routed
    /// around it).
    pub(crate) fn admit(
        &mut self,
        now: Time,
        next_msg: u64,
        tree: Option<&TreeTopology>,
        io: &mut Io,
    ) {
        if self.pending_joins.is_empty() {
            return;
        }
        let joiners = std::mem::take(&mut self.pending_joins);
        let next_transfer = Sender::alloc_transfer_id(next_msg);
        self.next_epoch(now, io);
        for rank in joiners {
            let idx = rank.receiver_index();
            self.evicted[idx] = false;
            self.clear_misses(idx);
            let mut flags = 0;
            if let Some(tree) = tree {
                if !tree.roots().contains(&rank) {
                    self.detached[idx] = true;
                }
                if self.detached[idx] {
                    flags |= SyncBody::DETACHED_ROOT;
                }
            }
            io.stats.joins += 1;
            io.send(
                Dest::Rank(rank),
                packet::encode_sync(
                    Rank::SENDER,
                    SyncBody {
                        epoch: self.epoch,
                        next_msg,
                        next_transfer,
                        flags,
                    },
                ),
            );
            io.events.push_back(AppEvent::ReceiverJoined {
                rank,
                epoch: self.epoch,
            });
        }
        self.announce(io);
    }

    /// Fold the protocol-logical state into a digest (the heartbeat
    /// schedule only as armed or not).
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        for &e in &self.evicted {
            h.write_u8(e as u8);
        }
        for &d in &self.detached {
            h.write_u8(d as u8);
        }
        h.write_u32(self.epoch);
        h.write_usize(self.pending_joins.len());
        for r in &self.pending_joins {
            h.write_u16(r.0);
        }
        h.write_u8(self.hb_deadline.is_some() as u8);
    }
}

/// A receiver's admission component.
#[derive(Debug, Clone)]
pub(crate) struct Admission {
    /// Current membership epoch (0 with membership disabled).
    epoch: u32,
    /// Transfers below this id belong to messages that completed before
    /// this receiver was admitted; their multicast packets are discarded.
    /// `u32::MAX` while joining (everything is pre-admission until SYNC).
    min_transfer: u32,
    /// JOIN retry timer, armed exactly while joining: from
    /// [`crate::Receiver::new_joining`] until the sender's SYNC handoff
    /// admits this receiver at a message boundary.
    join_deadline: Option<Time>,
}

impl Admission {
    /// A member from the start, with membership `enabled` or not.
    pub(crate) fn new(enabled: bool) -> Admission {
        Admission {
            epoch: u32::from(enabled),
            min_transfer: 0,
            join_deadline: None,
        }
    }

    /// Not a member yet: discard everything until a SYNC, and ask the
    /// sender to admit `rank`.
    pub(crate) fn start_joining(&mut self, now: Time, rank: Rank, io: &mut Io) {
        self.epoch = 0;
        self.min_transfer = u32::MAX;
        self.send_join(now, rank, io);
    }

    fn send_join(&mut self, now: Time, rank: Rank, io: &mut Io) {
        io.send(
            Dest::Sender,
            packet::encode_membership(PacketType::Join, rank, self.epoch),
        );
        self.join_deadline = Some(now + JOIN_RETRY);
    }

    /// Announce `rank`'s voluntary departure.
    pub(crate) fn leave(&self, rank: Rank, io: &mut Io) {
        io.send(
            Dest::Sender,
            packet::encode_membership(PacketType::Leave, rank, self.epoch),
        );
    }

    /// The membership epoch this receiver stamps on its ACKs/NAKs.
    pub(crate) fn epoch(&self) -> u32 {
        self.epoch
    }

    /// Is this receiver obligated for `transfer`?
    pub(crate) fn admits(&self, transfer: u32) -> bool {
        transfer >= self.min_transfer
    }

    /// Adopt a (possibly newer) epoch announced by the sender (in a
    /// heartbeat, a WELCOME or a SYNC), tracing the transition.
    pub(crate) fn adopt_epoch(&mut self, now: Time, epoch: u32, io: &mut Io) {
        if epoch > self.epoch {
            self.epoch = epoch;
            io.tracer
                .emit(now.as_nanos(), TraceEvent::EpochChange { epoch });
        }
    }

    /// The sender's heartbeat announce, carrying the authoritative epoch.
    /// A member answers with a unicast reply, plus a copy to its tree
    /// `parent`, so ancestors can tell a *gated* child — alive but blocked
    /// on its own dead subtree — from a silent one.
    pub(crate) fn on_announce(
        &mut self,
        now: Time,
        epoch: u32,
        rank: Rank,
        parent: Option<Rank>,
        io: &mut Io,
    ) {
        self.adopt_epoch(now, epoch, io);
        if self.join_deadline.is_some() {
            // Not a member yet: the JOIN retry timer covers liveness.
            return;
        }
        for dest in iter::once(Dest::Sender).chain(parent.map(Dest::Rank)) {
            io.stats.heartbeats_sent += 1;
            io.send(
                dest,
                packet::encode_membership(PacketType::Heartbeat, rank, self.epoch),
            );
        }
    }

    /// The SYNC handoff: a member from `body.epoch` on, obligated for
    /// transfers from the returned cutoff. Anything older completes (or
    /// fails) without us; [`Admission::admitted`] follows once the caller
    /// has let it go.
    pub(crate) fn on_sync(&mut self, now: Time, body: &SyncBody, io: &mut Io) -> u32 {
        self.adopt_epoch(now, body.epoch, io);
        self.min_transfer = if self.join_deadline.is_some() {
            body.next_transfer
        } else {
            // Implicit rejoin after an eviction we never observed: the
            // handoff point only ever moves forward.
            self.min_transfer.max(body.next_transfer)
        };
        self.min_transfer
    }

    /// The SYNC handoff is carried out: a joining receiver is a member.
    pub(crate) fn admitted(&mut self, stats: &mut Stats) {
        if self.join_deadline.take().is_some() {
            stats.joins += 1;
        }
    }

    /// The JOIN retry timer, while joining.
    pub(crate) fn deadline(&self) -> Option<Time> {
        self.join_deadline
    }

    /// At `now`: re-send `rank`'s JOIN if the retry timer fired.
    pub(crate) fn on_timeout(&mut self, now: Time, rank: Rank, io: &mut Io) {
        if self.join_deadline.is_some_and(|d| d <= now) {
            self.send_join(now, rank, io); // re-arms the retry timer
        }
    }

    /// Fold the protocol-logical state into a digest.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u8(self.join_deadline.is_some() as u8);
        h.write_u32(self.epoch);
        h.write_u32(self.min_transfer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One heartbeat period, after which rank 1 proves it is alive.
    fn tick(m: &mut Members, o: &mut Io) -> Vec<Rank> {
        let silent = m.tick(Time::ZERO, true, o);
        assert!(m.accept(Rank(1), Some(m.epoch()), &mut o.stats));
        silent
    }

    #[test]
    fn silent_member_is_suspected_once_then_reported() {
        let mut m = Members::new(2, true);
        let mut o = Io::new(Rank::SENDER, false);
        // Rank 2 is silent: suspected at its third miss, counted once.
        for miss in 1..EVICT_MISSES {
            assert!(tick(&mut m, &mut o).is_empty(), "miss {miss}");
            let suspected = u64::from(miss >= SUSPECT_MISSES);
            assert_eq!(o.stats.suspects, suspected, "miss {miss}");
        }
        assert_eq!(tick(&mut m, &mut o), [Rank(2)]);
        // Proof of life clears its score: a second suspicion takes three
        // fresh misses.
        assert!(m.accept(Rank(2), Some(m.epoch()), &mut o.stats));
        for miss in 1..=SUSPECT_MISSES {
            assert!(tick(&mut m, &mut o).is_empty(), "miss {miss}");
            let suspected = 1 + u64::from(miss == SUSPECT_MISSES);
            assert_eq!(o.stats.suspects, suspected, "miss {miss}");
        }
    }
}
