//! Sender-side coding buffer for the `fec` protocol family.
//!
//! The fifth family batches NAKs instead of answering each with a
//! retransmission: losses reported by different receivers for *different*
//! packets are XOR-combined into one coded REPAIR multicast, which every
//! receiver missing exactly one of the coded packets can decode back into
//! the packet it lacks. One repair transmission thus heals disjoint losses
//! across the whole group — the bandwidth win over the plain NAK family at
//! non-trivial loss rates.
//!
//! The buffer collects `(seq, loser)` pairs for a short aggregation window
//! (the configured retransmission-suppression interval), then flushes:
//! [`greedy_blocks`] partitions the pending set into coded blocks such
//! that no block codes two packets lost by the *same* receiver (that
//! receiver could not decode either one). Proactive parity — the XOR of
//! every `parity_every` consecutive fresh packets — rides the same
//! machinery so single losses heal with no feedback round trip at all.
//!
//! Everything here is pure bookkeeping: each fec data transfer of the
//! [`crate::Sender`] owns one [`FecState`], and the sender does the packet
//! encoding, slot accounting and trace emission.

use crate::invariants::Audit;
use rmwire::{RepairBody, Time};
use std::collections::BTreeMap;

/// Per-receiver loss sets a coded block must keep disjoint. Receiver
/// indices ≥ 64 do not fit the bitmask; the sender falls back to plain
/// retransmission for their NAKs (correct, just uncoded).
pub const MAX_TRACKED_RECEIVERS: usize = 64;

/// Upper bound on buffered distinct sequence numbers. NAKs only enter the
/// buffer for currently-outstanding window slots, so this is belt and
/// braces against a hostile NAK storm racing window movement.
const MAX_PENDING: usize = 4096;

/// Partition `pending` — sequence number → bitmask of receiver indices
/// that reported it lost — into coded blocks, greedily in sequence order.
///
/// Each returned `(base_seq, bitmap)` pair describes one block in the
/// [`rmwire::RepairBody`] canonical form: bit `i` of `bitmap` set means
/// sequence `base_seq + i` is coded into the block, and bit 0 is always
/// set. The greedy rule adds a sequence to the open block iff
///
/// * no receiver lost both it and a sequence already in the block (their
///   loser masks are disjoint — the decodability requirement),
/// * it lies within the 64-sequence bitmap span of the block's base, and
/// * the block holds fewer than `max_coded` sequences.
///
/// Sequences that do not fit open a new block, so every pending sequence
/// appears in exactly one block.
pub fn greedy_blocks(pending: &BTreeMap<u32, u64>, max_coded: usize) -> Vec<(u32, u64)> {
    let max_coded = max_coded.clamp(1, 64);
    let mut blocks: Vec<(u32, u64, u64, u32)> = Vec::new(); // (base, bitmap, losers, count)
    for (&seq, &losers) in pending {
        let placed = blocks.iter_mut().any(|(base, bitmap, union, count)| {
            let offset = seq - *base; // BTreeMap iterates ascending: seq ≥ base
            if offset < 64 && (*count as usize) < max_coded && losers & *union == 0 {
                *bitmap |= 1u64 << offset;
                *union |= losers;
                *count += 1;
                true
            } else {
                false
            }
        });
        if !placed {
            blocks.push((seq, 1, losers, 1));
        }
    }
    blocks.into_iter().map(|(b, m, _, _)| (b, m)).collect()
}

/// XOR together the payload chunks of `seqs`, each chunk cut from `msg`
/// at `packet_size` granularity, shorter chunks zero-padded to the
/// longest. A block of entirely-empty chunks still yields one zero byte:
/// the wire format forbids an empty coded payload, and receivers
/// truncate to the decoded chunk's true length anyway.
pub fn xor_chunks(msg: &[u8], packet_size: usize, seqs: impl Iterator<Item = u32>) -> Vec<u8> {
    let mut acc: Vec<u8> = Vec::new();
    for seq in seqs {
        let start = (seq as usize).saturating_mul(packet_size);
        let chunk = if start < msg.len() {
            &msg[start..(start + packet_size).min(msg.len())]
        } else {
            &[][..]
        };
        if chunk.len() > acc.len() {
            acc.resize(chunk.len(), 0);
        }
        for (a, b) in acc.iter_mut().zip(chunk) {
            *a ^= b;
        }
    }
    if acc.is_empty() {
        acc.push(0);
    }
    acc
}

/// The coding state of one fec data transfer: the NAK aggregation buffer,
/// the proactive parity accumulator and the generation counter. The
/// transfer owns it, so it starts empty with the transfer and ends with it.
#[derive(Debug, Clone, Default)]
pub struct FecState {
    /// Pending losses: sequence number → bitmask of receiver indices.
    pending: BTreeMap<u32, u64>,
    /// Flush deadline, armed when the first loss lands in an empty buffer.
    deadline: Option<Time>,
    /// Generation counter shared by the transfer's REPAIR and PARITY
    /// blocks (receivers enforce strict increase as their replay gate).
    generation: u32,
    /// Proactive parity accumulator: first sequence of the current run of
    /// consecutive fresh packets, if one is open.
    parity_base: Option<u32>,
    /// Packets accumulated in the open parity run.
    parity_count: u32,
}

impl FecState {
    /// The armed flush deadline, if any (drives the sender's
    /// `poll_timeout`).
    pub fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    /// Buffer a NAK: receiver index `idx` reported sequence `seq` lost.
    /// Returns `false` — caller falls back to a plain retransmission —
    /// when the index does not fit the loser bitmask or the buffer is
    /// full. Arms the flush deadline at `deadline` on the first buffered
    /// loss.
    pub fn buffer_nak(&mut self, seq: u32, idx: usize, deadline: Time) -> bool {
        if idx >= MAX_TRACKED_RECEIVERS {
            return false;
        }
        if !self.pending.contains_key(&seq) && self.pending.len() >= MAX_PENDING {
            return false;
        }
        *self.pending.entry(seq).or_insert(0) |= 1u64 << idx;
        if self.deadline.is_none() {
            self.deadline = Some(deadline);
        }
        true
    }

    /// Flush the aggregation buffer, disarming the deadline: drop the
    /// losses that no longer satisfy `keep` (their window slots were
    /// released while the flush timer ran, so no receiver is still owed
    /// them) and return the rest as coded blocks with their generations.
    pub fn flush(
        &mut self,
        max_coded: usize,
        mut keep: impl FnMut(u32) -> bool,
    ) -> Vec<RepairBody> {
        self.deadline = None;
        let mut pending = std::mem::take(&mut self.pending);
        pending.retain(|&s, _| keep(s));
        greedy_blocks(&pending, max_coded)
            .into_iter()
            .map(|(base_seq, bitmap)| RepairBody {
                base_seq,
                generation: self.next_generation(),
                bitmap,
            })
            .collect()
    }

    fn next_generation(&mut self) -> u32 {
        self.generation = self.generation.saturating_add(1);
        self.generation
    }

    /// Note a fresh (first-transmission) data packet entering the wire.
    /// Returns the PARITY block owed when the packet completes a run of
    /// `parity_every` consecutive sequences.
    pub fn note_fresh(&mut self, seq: u32, parity_every: u32) -> Option<RepairBody> {
        if parity_every < 2 {
            return None;
        }
        match self.parity_base {
            Some(base) if seq == base + self.parity_count => self.parity_count += 1,
            _ => {
                self.parity_base = Some(seq);
                self.parity_count = 1;
            }
        }
        if self.parity_count < parity_every {
            return None;
        }
        self.parity_count = 0;
        Some(RepairBody {
            base_seq: self.parity_base.take().expect("open run"),
            generation: self.next_generation(),
            bitmap: u64::MAX >> (64 - parity_every.min(64)),
        })
    }

    /// `S8`: buffered losses always have a flush deadline armed.
    pub(crate) fn audit(&self, a: &mut Audit) {
        a.require(
            "S8",
            self.pending.is_empty() || self.deadline.is_some(),
            || {
                let n = self.pending.len();
                format!("{n} buffered losses with no flush deadline armed")
            },
        );
    }

    /// Fold the protocol-logical state (everything but the deadline's
    /// instant) into a digest.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        h.write_u32(self.generation);
        h.write_u8(self.deadline.is_some() as u8);
        h.write_usize(self.pending.len());
        for (&s, &losers) in &self.pending {
            h.write_u32(s);
            h.write_u64(losers);
        }
        match self.parity_base {
            None => h.write_u8(0),
            Some(base) => {
                h.write_u8(1);
                h.write_u32(base);
                h.write_u32(self.parity_count);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(pairs: &[(u32, u64)]) -> BTreeMap<u32, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn disjoint_losses_share_one_block() {
        // Three receivers, each missing a different packet: one repair.
        let p = pending(&[(0, 0b001), (1, 0b010), (2, 0b100)]);
        assert_eq!(greedy_blocks(&p, 16), vec![(0, 0b111)]);
    }

    #[test]
    fn same_receiver_splits_blocks() {
        // Receiver 0 lost both packets: they can never share a block.
        let p = pending(&[(0, 0b01), (1, 0b01), (2, 0b10)]);
        assert_eq!(greedy_blocks(&p, 16), vec![(0, 0b101), (1, 0b1)]);
    }

    #[test]
    fn span_and_size_bounds_respected() {
        // Sequence 70 is beyond seq 0's 64-bit bitmap span.
        let p = pending(&[(0, 0b01), (70, 0b10)]);
        assert_eq!(greedy_blocks(&p, 16), vec![(0, 1), (70, 1)]);
        // max_coded = 2 caps the block even though losses are disjoint.
        let p = pending(&[(0, 0b001), (1, 0b010), (2, 0b100)]);
        assert_eq!(greedy_blocks(&p, 2), vec![(0, 0b11), (2, 0b1)]);
    }

    fn block(base_seq: u32, bitmap: u64, generation: u32) -> RepairBody {
        RepairBody {
            base_seq,
            generation,
            bitmap,
        }
    }

    #[test]
    fn losses_flush_into_generations() {
        let mut f = FecState::default();
        assert!(f.buffer_nak(0, 0, Time::from_nanos(5)));
        assert!(f.buffer_nak(1, 1, Time::from_nanos(9)));
        assert!(f.buffer_nak(2, 1, Time::from_nanos(9)));
        assert_eq!(f.deadline(), Some(Time::from_nanos(5)), "first arm wins");
        assert!(!f.buffer_nak(2, 64, Time::ZERO), "index beyond bitmask");
        // Sequence 2's slot was released while the timer ran.
        let blocks = f.flush(16, |s| s != 2);
        assert_eq!(blocks, vec![block(0, 0b11, 1)]);
        assert_eq!(f.deadline(), None);
        assert!(f.pending.is_empty());
        // Generations keep rising across flushes of the same transfer.
        assert!(f.buffer_nak(5, 0, Time::from_nanos(20)));
        assert_eq!(f.flush(16, |_| true), vec![block(5, 1, 2)]);
        // The next transfer's state starts over.
        let mut g = FecState::default();
        assert!(g.buffer_nak(0, 0, Time::from_nanos(30)));
        assert_eq!(g.flush(16, |_| true), vec![block(0, 1, 1)]);
    }

    #[test]
    fn parity_runs_need_consecutive_sequences() {
        let mut f = FecState::default();
        assert_eq!(f.note_fresh(0, 4), None);
        assert_eq!(f.note_fresh(1, 4), None);
        assert_eq!(f.note_fresh(2, 4), None);
        assert_eq!(f.note_fresh(3, 4), Some(block(0, 0b1111, 1)));
        // A gap restarts the run.
        assert_eq!(f.note_fresh(5, 4), None);
        assert_eq!(f.note_fresh(6, 4), None);
        assert_eq!(f.note_fresh(7, 4), None);
        assert_eq!(f.note_fresh(8, 4), Some(block(5, 0b1111, 2)));
        // parity_every < 2 disables proactive parity.
        assert_eq!(f.note_fresh(9, 0), None);
        // Repair generations interleave with parity generations.
        assert!(f.buffer_nak(2, 0, Time::from_nanos(1)));
        assert_eq!(f.flush(16, |_| true), vec![block(2, 1, 3)]);
        // A 64-packet run codes the whole bitmap.
        let mut w = FecState::default();
        let runs: Vec<_> = (0..64).filter_map(|s| w.note_fresh(s, 64)).collect();
        assert_eq!(runs, vec![block(0, u64::MAX, 1)]);
    }
}
