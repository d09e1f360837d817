//! Release trackers: when may the sender free a packet's buffer?
//!
//! All four protocols free a packet only once it is *provably* held by
//! every receiver, but they prove it differently:
//!
//! * ACK / NAK-polling: per-receiver cumulative acknowledgments; packet
//!   `p` is released when every receiver's `next_expected` exceeds `p`.
//! * Tree: the same, but per aggregation *root* — a root's cumulative
//!   acknowledgment covers its whole subtree.
//! * Ring: packet `p` is acknowledged only by receiver `p mod N`, so an
//!   in-order prefix of `A` token acknowledgments releases packets below
//!   `A − N`; the final packet is acknowledged by everyone, which releases
//!   the rest (the paper's second LAN modification).
//!
//! `Release` picks the rule for a transfer and is all the sender sees of
//! it: it records acknowledgments, answers the releasable prefix and the
//! laggards, audits itself (`S2`–`S4`) and digests itself.

use crate::config::ProtocolKind;
use crate::invariants::Audit;
use crate::membership::Members;
use crate::tree::TreeTopology;
use rmwire::Rank;

/// One transfer's release rule.
#[derive(Clone)]
pub(crate) enum Release {
    /// Minimum over per-source cumulative acknowledgments (ACK, NAK, fec,
    /// tree). `src_of_rank[receiver_index]` maps an acknowledging rank to
    /// its source slot; `None` for ranks whose ACKs the sender never sees
    /// (non-root tree nodes).
    PerSource {
        cov: PerSourceCoverage,
        src_of_rank: Vec<Option<usize>>,
        /// Inverse of `src_of_rank`: the rank behind each source slot
        /// (needed to name evicted peers).
        rank_of_src: Vec<Rank>,
    },
    /// The ring rule.
    Ring(RingTracker),
}

impl Release {
    /// The rule for a `k`-packet transfer of a `kind` sender to `n`
    /// receivers; `tree` is the topology of the tree family.
    pub(crate) fn new(
        kind: ProtocolKind,
        k: u32,
        n: usize,
        tree: Option<&TreeTopology>,
        members: &Members,
    ) -> Release {
        let mut release = match (kind, tree) {
            (ProtocolKind::Ring, _) => Release::Ring(RingTracker::new(k, n as u32)),
            (_, Some(tree)) => {
                let mut src_of_rank = vec![None; n];
                let mut rank_of_src = Vec::with_capacity(tree.roots().len());
                for &root in tree.roots() {
                    src_of_rank[root.receiver_index()] = Some(rank_of_src.len());
                    rank_of_src.push(root);
                }
                // Rejoined receivers act as detached roots: the sender
                // hears their acknowledgments directly, since their old
                // chain may have routed around them while they were gone.
                for idx in (0..n).filter(|&i| members.is_detached(i)) {
                    if src_of_rank[idx].is_none() {
                        src_of_rank[idx] = Some(rank_of_src.len());
                        rank_of_src.push(Rank::from_receiver_index(idx));
                    }
                }
                Release::PerSource {
                    cov: PerSourceCoverage::new(rank_of_src.len()),
                    src_of_rank,
                    rank_of_src,
                }
            }
            (_, None) => Release::PerSource {
                cov: PerSourceCoverage::new(n),
                src_of_rank: (0..n).map(Some).collect(),
                rank_of_src: (0..n).map(Rank::from_receiver_index).collect(),
            },
        };
        // Previously evicted receivers stay out of the proof obligation:
        // a dead peer must not stall every subsequent message anew.
        for idx in (0..n).filter(|&i| members.is_evicted(i)) {
            release.evict_rank(Rank::from_receiver_index(idx));
        }
        release
    }

    /// Record `rank`'s cumulative acknowledgment; the new releasable
    /// prefix, or `None` when `rank` is no acknowledgment source.
    pub(crate) fn update(&mut self, rank: Rank, next_expected: u32) -> Option<u32> {
        match self {
            Release::PerSource {
                cov, src_of_rank, ..
            } => src_of_rank[rank.receiver_index()].map(|idx| cov.update(idx, next_expected)),
            Release::Ring(r) => Some(r.update(rank, next_expected)),
        }
    }

    /// Current releasable prefix without recording anything.
    pub(crate) fn released(&self) -> u32 {
        match self {
            Release::PerSource { cov, .. } => cov.released(),
            Release::Ring(r) => r.released(),
        }
    }

    /// Acknowledgment sources still part of the proof obligation.
    pub(crate) fn n_active(&self) -> usize {
        match self {
            Release::PerSource { cov, .. } => cov.n_active(),
            Release::Ring(r) => r.n_active(),
        }
    }

    /// The ranks currently gating the release — eviction candidates when
    /// the transfer stalls.
    pub(crate) fn laggard_ranks(&self) -> Vec<Rank> {
        match self {
            Release::PerSource {
                cov, rank_of_src, ..
            } => cov.laggards().into_iter().map(|i| rank_of_src[i]).collect(),
            Release::Ring(r) => r
                .laggards()
                .into_iter()
                .map(Rank::from_receiver_index)
                .collect(),
        }
    }

    /// Remove `rank` from the proof obligation (no-op for ranks that were
    /// never acknowledgment sources, e.g. non-root tree nodes).
    pub(crate) fn evict_rank(&mut self, rank: Rank) {
        match self {
            Release::PerSource {
                cov, src_of_rank, ..
            } => {
                if let Some(idx) = src_of_rank[rank.receiver_index()] {
                    cov.evict(idx);
                }
            }
            Release::Ring(r) => r.evict(rank.receiver_index()),
        }
    }

    /// `S2`–`S4` for the `label` transfer `id`, whose window base is
    /// `base`: nothing freed beyond coverage, the tracker consistent, and
    /// somebody left to prove it.
    pub(crate) fn audit(&self, a: &mut Audit, base: u32, label: &str, id: u32) {
        let released = self.released();
        a.require("S2", base <= released, || {
            format!(
                "{label} transfer {id}: window base {base} outruns acknowledgment \
                 coverage {released} — a buffer was freed before every receiver \
                 provably held it"
            )
        });
        let tracker = match self {
            Release::PerSource { cov, .. } => cov.check(),
            Release::Ring(r) => r.check(),
        };
        a.check(
            "S3",
            tracker.map_err(|e| format!("{label} transfer {id}: {e}")),
        );
        a.require("S4", self.n_active() >= 1, || {
            format!("{label} transfer {id}: every acknowledgment source evicted")
        });
    }

    /// Fold the acknowledgments recorded, the ring's token prefix and the
    /// evictions into a digest.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        let (tag, cov, prefix, evicted) = match self {
            Release::PerSource { cov, .. } => (1, &cov.cov, None, &cov.evicted),
            Release::Ring(r) => (2, &r.cov, Some(r.token_prefix), &r.evicted),
        };
        h.write_u8(tag);
        for &c in cov {
            h.write_u32(c);
        }
        if let Some(prefix) = prefix {
            h.write_u32(prefix);
        }
        for &e in evicted {
            h.write_u8(e as u8);
        }
    }
}

/// Minimum-of-cumulative-acknowledgments tracker (ACK, NAK, tree).
///
/// ```
/// use rmcast::coverage::PerSourceCoverage;
///
/// let mut cov = PerSourceCoverage::new(3);
/// cov.update(0, 5);
/// cov.update(1, 4);
/// assert_eq!(cov.update(2, 6), 4, "slowest source gates the release");
/// ```
#[derive(Debug, Clone)]
pub struct PerSourceCoverage {
    /// `next_expected` reported by each source (receiver or tree root).
    cov: Vec<u32>,
    /// Sources removed from the proof obligation (straggler eviction).
    evicted: Vec<bool>,
}

impl PerSourceCoverage {
    /// Tracker over `n_sources` acknowledgment sources.
    pub fn new(n_sources: usize) -> Self {
        assert!(n_sources >= 1);
        PerSourceCoverage {
            cov: vec![0; n_sources],
            evicted: vec![false; n_sources],
        }
    }

    /// Record a cumulative acknowledgment from source `idx`; stale (lower)
    /// values are ignored. Returns the new releasable prefix.
    pub fn update(&mut self, idx: usize, next_expected: u32) -> u32 {
        let c = &mut self.cov[idx];
        *c = (*c).max(next_expected);
        self.released()
    }

    /// Remove source `idx` from the proof obligation; its acknowledgment
    /// no longer gates the release. Callers must keep at least one source
    /// active (the session otherwise fails).
    pub fn evict(&mut self, idx: usize) {
        self.evicted[idx] = true;
    }

    /// Sources still part of the proof obligation.
    pub fn n_active(&self) -> usize {
        self.evicted.iter().filter(|&&e| !e).count()
    }

    /// The active sources currently gating the release (those at the
    /// minimum cumulative acknowledgment) — the eviction candidates when a
    /// transfer stalls.
    pub fn laggards(&self) -> Vec<usize> {
        let min = self.released();
        (0..self.cov.len())
            .filter(|&i| !self.evicted[i] && self.cov[i] == min)
            .collect()
    }

    /// Packets `0..released()` are held by every *active* source.
    pub fn released(&self) -> u32 {
        self.cov
            .iter()
            .zip(&self.evicted)
            .filter(|&(_, &e)| !e)
            .map(|(&c, _)| c)
            .min()
            .expect("at least one active source")
    }

    /// Structural self-check: the released prefix must be the minimum over
    /// active sources — no packet is ever released that some active source
    /// has not acknowledged.
    pub fn check(&self) -> Result<(), String> {
        if self.n_active() == 0 {
            return Err("coverage with zero active sources".into());
        }
        let min = self
            .cov
            .iter()
            .zip(&self.evicted)
            .filter(|&(_, &e)| !e)
            .map(|(&c, _)| c)
            .min()
            .unwrap_or(0);
        if self.released() != min {
            return Err(format!(
                "released() = {} but the slowest active source acknowledged {}",
                self.released(),
                min
            ));
        }
        Ok(())
    }
}

/// The ring protocol's release tracker.
///
/// ```
/// use rmcast::coverage::RingTracker;
/// use rmwire::Rank;
///
/// // 10 packets, 3 receivers: packet p is acked by receiver (p mod 3) + 1.
/// let mut ring = RingTracker::new(10, 3);
/// ring.update(Rank(1), 1);                 // token ack for packet 0
/// ring.update(Rank(2), 2);                 // packet 1
/// ring.update(Rank(3), 3);                 // packet 2
/// assert_eq!(ring.update(Rank(1), 4), 1);  // packet 3 -> releases packet 0
/// ```
#[derive(Debug, Clone)]
pub struct RingTracker {
    n_receivers: u32,
    k: u32,
    /// Per-receiver cumulative `next_expected` (from the ACKs each sent on
    /// its token turns or for the final packet).
    cov: Vec<u32>,
    /// Length of the contiguous prefix of packets whose token receiver has
    /// acknowledged them.
    token_prefix: u32,
    /// Receivers removed from the token rotation (straggler eviction): the
    /// prefix advances past their token packets as if acknowledged.
    evicted: Vec<bool>,
}

impl RingTracker {
    /// Tracker for a `k`-packet transfer to `n_receivers` receivers.
    pub fn new(k: u32, n_receivers: u32) -> Self {
        assert!(n_receivers >= 1);
        RingTracker {
            n_receivers,
            k,
            cov: vec![0; n_receivers as usize],
            token_prefix: 0,
            evicted: vec![false; n_receivers as usize],
        }
    }

    /// Remove receiver index `idx` from the token rotation: the prefix is
    /// advanced over its unacknowledged token packets (token-pass skip),
    /// and it no longer gates the end-of-transfer release. Callers must
    /// keep at least one receiver active.
    pub fn evict(&mut self, idx: usize) {
        self.evicted[idx] = true;
        self.advance_prefix();
    }

    /// Receivers still part of the token rotation.
    pub fn n_active(&self) -> usize {
        self.evicted.iter().filter(|&&e| !e).count()
    }

    /// The active receivers currently gating the release: the token site
    /// of the packet blocking the prefix, or — once the prefix has run
    /// through the whole transfer — everyone yet to acknowledge the end.
    pub fn laggards(&self) -> Vec<usize> {
        if self.token_prefix < self.k {
            vec![(self.token_prefix % self.n_receivers) as usize]
        } else {
            (0..self.cov.len())
                .filter(|&i| !self.evicted[i] && self.cov[i] < self.k)
                .collect()
        }
    }

    /// Record a cumulative acknowledgment from `rank`; returns the new
    /// releasable prefix.
    pub fn update(&mut self, rank: Rank, next_expected: u32) -> u32 {
        let i = rank.receiver_index();
        let c = &mut self.cov[i];
        *c = (*c).max(next_expected);
        self.advance_prefix();
        self.released()
    }

    /// Advance the token prefix: packet p is token-acknowledged when
    /// receiver (p mod N) reported next_expected > p — or was evicted.
    fn advance_prefix(&mut self) {
        while self.token_prefix < self.k {
            let p = self.token_prefix;
            let r = (p % self.n_receivers) as usize;
            if self.cov[r] > p || self.evicted[r] {
                self.token_prefix += 1;
            } else {
                break;
            }
        }
    }

    /// Packets `0..released()` are provably held by every receiver: an
    /// acknowledged token packet `X` proves everyone holds `X − N + 1`
    /// onward... i.e. the prefix minus one ring revolution — except that
    /// once every receiver acknowledges the end of the transfer,
    /// everything is released.
    pub fn released(&self) -> u32 {
        if self
            .cov
            .iter()
            .zip(&self.evicted)
            .all(|(&c, &e)| e || c >= self.k)
        {
            return self.k;
        }
        self.token_prefix.saturating_sub(self.n_receivers)
    }

    /// Structural self-check of the paper's ring release rule: the token
    /// prefix must be exactly the contiguous run of token-acknowledged
    /// packets implied by `cov`/`evicted`, and `released()` must trail it
    /// by one full ring revolution (`X − N`) except for the all-acked
    /// fast path at end of transfer.
    pub fn check(&self) -> Result<(), String> {
        if self.n_active() == 0 {
            return Err("ring tracker with zero active receivers".into());
        }
        // Recompute the prefix from scratch and compare.
        let mut prefix = 0u32;
        while prefix < self.k {
            let r = (prefix % self.n_receivers) as usize;
            if self.evicted[r] || self.cov[r] > prefix {
                prefix += 1;
            } else {
                break;
            }
        }
        if prefix != self.token_prefix {
            return Err(format!(
                "ring token prefix {} but coverage implies {}",
                self.token_prefix, prefix
            ));
        }
        let all_acked = self
            .cov
            .iter()
            .zip(&self.evicted)
            .all(|(&c, &e)| e || c >= self.k);
        let expect = if all_acked {
            self.k
        } else {
            self.token_prefix.saturating_sub(self.n_receivers)
        };
        if self.released() != expect {
            return Err(format!(
                "ring released() = {} violates the X - N rule (prefix {}, N {}, expected {})",
                self.released(),
                self.token_prefix,
                self.n_receivers,
                expect
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_source_min_rules() {
        let mut c = PerSourceCoverage::new(3);
        assert_eq!(c.released(), 0);
        assert_eq!(c.update(0, 5), 0);
        assert_eq!(c.update(1, 3), 0);
        assert_eq!(c.update(2, 4), 3);
        // Stale update ignored.
        assert_eq!(c.update(0, 1), 3);
        assert_eq!(c.update(1, 9), 4);
    }

    #[test]
    fn ring_releases_one_revolution_behind() {
        // 3 receivers, 10 packets.
        let mut r = RingTracker::new(10, 3);
        // Receiver 1 acks packet 0 (next_expected 1): prefix 1, releases 0.
        assert_eq!(r.update(Rank(1), 1), 0);
        assert_eq!(r.update(Rank(2), 2), 0);
        // Receiver 3 acks packet 2: prefix 3, release 3 - 3 = 0.
        assert_eq!(r.update(Rank(3), 3), 0);
        // Receiver 1 acks packet 3: prefix 4 -> release packet 0.
        assert_eq!(r.update(Rank(1), 4), 1);
        assert_eq!(r.update(Rank(2), 5), 2);
    }

    #[test]
    fn ring_out_of_order_acks_fill_prefix() {
        let mut r = RingTracker::new(10, 3);
        // Receiver 2's ack arrives before receiver 1's.
        assert_eq!(r.update(Rank(2), 2), 0);
        assert_eq!(r.token_prefix, 0, "prefix blocked on packet 0");
        assert_eq!(r.update(Rank(1), 1), 0);
        assert_eq!(r.token_prefix, 2, "prefix jumps over the buffered ack");
    }

    #[test]
    fn ring_final_ack_from_all_releases_everything() {
        let mut r = RingTracker::new(4, 3);
        assert_eq!(r.update(Rank(1), 4), 0);
        assert_eq!(r.update(Rank(2), 4), 0);
        // Everyone has acknowledged next_expected = k.
        assert_eq!(r.update(Rank(3), 4), 4);
    }

    #[test]
    fn per_source_eviction_unblocks_release() {
        let mut c = PerSourceCoverage::new(3);
        c.update(0, 5);
        c.update(2, 5);
        assert_eq!(c.released(), 0, "source 1 gates everything");
        assert_eq!(c.laggards(), vec![1]);
        c.evict(1);
        assert_eq!(c.released(), 5, "survivors define the release");
        assert_eq!(c.n_active(), 2);
        // Stale acks from the evicted source no longer matter.
        assert_eq!(c.update(1, 1), 5);
    }

    #[test]
    fn ring_eviction_skips_dead_token_site() {
        // 3 receivers, 6 packets; receiver 2 (index 1) is dead.
        let mut r = RingTracker::new(6, 3);
        assert_eq!(r.update(Rank(1), 6), 0);
        assert_eq!(r.update(Rank(3), 6), 0);
        assert_eq!(r.token_prefix, 1, "blocked on packet 1's dead token site");
        assert_eq!(r.laggards(), vec![1]);
        r.evict(1);
        // Token-pass skip: the prefix runs over the dead site's packets,
        // and the all-acked fast path ignores it.
        assert_eq!(r.released(), 6);
        assert_eq!(r.n_active(), 2);
    }

    #[test]
    fn ring_laggards_after_full_prefix() {
        // 2 receivers, 4 packets: receiver 1 token-acked everything it is
        // the site of, but never reached the end of the transfer.
        let mut r = RingTracker::new(4, 2);
        r.update(Rank(1), 3);
        r.update(Rank(2), 4);
        assert_eq!(r.token_prefix, 4, "every token packet acknowledged");
        assert_eq!(r.released(), 2, "still one revolution behind");
        assert_eq!(r.laggards(), vec![0], "receiver 1 gates the end");
        r.evict(0);
        assert_eq!(r.released(), 4);
    }

    #[test]
    fn ring_cumulative_ack_covers_multiple_tokens() {
        // 2 receivers; receiver 1 acks with next_expected 5, covering its
        // tokens 0, 2 and 4 at once.
        let mut r = RingTracker::new(10, 2);
        assert_eq!(r.update(Rank(1), 5), 0);
        assert_eq!(r.token_prefix, 1, "blocked on packet 1 (receiver 2)");
        // Receiver 2's ack covers its tokens 1 and 3; the prefix then runs
        // through packet 4 (receiver 1's token, already covered by ne=5).
        assert_eq!(r.update(Rank(2), 4), 3); // prefix 5 -> release 5 - 2
        assert_eq!(r.token_prefix, 5);
    }
}
