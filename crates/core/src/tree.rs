//! Logical acknowledgment-aggregation structures for the tree protocol.
//!
//! Data always travels by multicast directly from the sender; the tree
//! shapes only the *acknowledgment* flow. Each receiver reports the
//! minimum of its own progress and its children's reported progress to its
//! parent; roots report to the sender. A flat tree of height `H` is a set
//! of `ceil(N/H)` chains, so at most `N/H` acknowledgments travel
//! simultaneously (paper §3, Figure 5).
//!
//! [`TreeTopology`] is the structure both endpoints build from the shape.
//! `Aggregator` is one receiver's part in it: the minimum it reports, the
//! children it has dropped, and the timer that drops them.

use crate::config::TreeShape;
use crate::endpoint::{AppEvent, Dest, Io};
use crate::invariants::Audit;
use crate::receiver::{ensure_state, Feedback, Stamp, TransferState};
use rmtrace::TraceEvent;
use rmwire::{Duration, GroupSpec, Header, Rank, Time};
use std::collections::BTreeMap;

/// The aggregation links of one receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeLinks {
    /// Where this node sends its aggregated ACKs: `None` means directly to
    /// the sender (the node is a root).
    pub parent: Option<Rank>,
    /// Nodes whose ACKs this node aggregates.
    pub children: Vec<Rank>,
}

/// The full logical structure over a receiver group.
///
/// ```
/// use rmcast::tree::TreeTopology;
/// use rmcast::TreeShape;
/// use rmwire::{GroupSpec, Rank};
///
/// // 6 receivers in chains of 3: roots r1 and r4 report to the sender.
/// let t = TreeTopology::new(GroupSpec::new(6), TreeShape::Flat { height: 3 });
/// assert_eq!(t.roots(), &[Rank(1), Rank(4)]);
/// assert_eq!(t.links(Rank(2)).parent, Some(Rank(1)));
/// assert_eq!(t.subtree_size(Rank(1)), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TreeTopology {
    links: Vec<TreeLinks>, // indexed by receiver_index
    roots: Vec<Rank>,
}

impl TreeTopology {
    /// Build the structure for `group` with the given shape.
    pub fn new(group: GroupSpec, shape: TreeShape) -> Self {
        let n = group.n_receivers as usize;
        let mut links: Vec<TreeLinks> = (0..n)
            .map(|_| TreeLinks {
                parent: None,
                children: Vec::new(),
            })
            .collect();
        let mut roots = Vec::new();

        match shape {
            TreeShape::Flat { height } => {
                assert!(height >= 1 && height <= n, "invalid flat-tree height");
                // Chains of `height` consecutive ranks: the head of each
                // chain reports to the sender; node k reports to node k-1.
                let mut i = 0usize;
                while i < n {
                    let head = Rank::from_receiver_index(i);
                    roots.push(head);
                    let end = (i + height).min(n);
                    for k in i..end {
                        if k > i {
                            let parent = Rank::from_receiver_index(k - 1);
                            links[k].parent = Some(parent);
                            links[k - 1].children.push(Rank::from_receiver_index(k));
                        }
                    }
                    i = end;
                }
            }
            TreeShape::Binary => {
                // Receiver r's parent is receiver r/2; receiver 1 is the
                // single root.
                roots.push(Rank(1));
                for r in 2..=n as u16 {
                    let parent = Rank(r / 2);
                    links[(r - 1) as usize].parent = Some(parent);
                    links[(r / 2 - 1) as usize].children.push(Rank(r));
                }
            }
        }

        TreeTopology { links, roots }
    }

    /// Aggregation links of `rank`.
    pub fn links(&self, rank: Rank) -> &TreeLinks {
        &self.links[rank.receiver_index()]
    }

    /// The ranks that report directly to the sender.
    pub fn roots(&self) -> &[Rank] {
        &self.roots
    }

    /// Number of receivers covered by the subtree rooted at `rank`
    /// (itself included).
    pub fn subtree_size(&self, rank: Rank) -> usize {
        1 + self
            .links(rank)
            .children
            .iter()
            .map(|&c| self.subtree_size(c))
            .sum::<usize>()
    }

    /// Structural self-check: the aggregation links must form a forest
    /// whose roots cover every receiver exactly once, with symmetric
    /// parent/child links (`rmcheck` and the invariant audit call this).
    pub fn check(&self) -> Result<(), String> {
        let n = self.links.len();
        for (i, l) in self.links.iter().enumerate() {
            let me = Rank::from_receiver_index(i);
            match l.parent {
                None => {
                    if !self.roots.contains(&me) {
                        return Err(format!("{me} has no parent but is not a root"));
                    }
                }
                Some(p) => {
                    if !self.links[p.receiver_index()].children.contains(&me) {
                        return Err(format!("{me} reports to {p}, which does not list it"));
                    }
                }
            }
            for &c in &l.children {
                if self.links[c.receiver_index()].parent != Some(me) {
                    return Err(format!("{me} lists child {c}, which reports elsewhere"));
                }
            }
        }
        let covered: usize = self.roots.iter().map(|&r| self.subtree_size(r)).sum();
        if covered != n {
            return Err(format!("root subtrees cover {covered} of {n} receivers"));
        }
        Ok(())
    }

    /// Longest root-to-leaf path length in nodes (the effective height).
    pub fn max_depth(&self) -> usize {
        fn depth(t: &TreeTopology, r: Rank) -> usize {
            1 + t
                .links(r)
                .children
                .iter()
                .map(|&c| depth(t, c))
                .max()
                .unwrap_or(0)
        }
        self.roots
            .iter()
            .map(|&r| depth(self, r))
            .max()
            .unwrap_or(0)
    }
}

/// A receiver's part in acknowledgment aggregation: its links, which of
/// its children still gate its aggregate, and the child-evict timer that
/// drops a child both behind and silent. A child's slot is its index in
/// `links.children`, which holds at most two ranks. Holds invariant `R4`.
#[derive(Clone)]
pub(crate) struct Aggregator {
    links: TreeLinks,
    /// Per child slot: its last sign of life (acknowledgment progress, or
    /// with membership a heartbeat), or `None` once the child-evict timer
    /// dropped it from the aggregate. A child is only evicted when it is
    /// both *behind* and *silent* past the timeout — an alive child gated
    /// by its own dead subtree must not be cascade-evicted. Sticky: a dead
    /// subtree never gates a later transfer either.
    alive: Vec<Option<Time>>,
    /// `liveness.child_evict_timeout`.
    timeout: Option<Duration>,
    /// Child-evict timer: armed while a live child's acknowledgment trails
    /// this node's own progress; per-child signs of life push it out.
    deadline: Option<Time>,
}

impl Aggregator {
    /// The aggregation role of a receiver with `links`.
    pub(crate) fn new(links: TreeLinks, timeout: Option<Duration>) -> Aggregator {
        Aggregator {
            alive: vec![Some(Time::ZERO); links.children.len()],
            links,
            timeout,
            deadline: None,
        }
    }

    /// How many children report to this node.
    pub(crate) fn n_children(&self) -> usize {
        self.links.children.len()
    }

    /// Where this node's heartbeat replies go besides the sender.
    pub(crate) fn parent(&self) -> Option<Rank> {
        self.links.parent
    }

    /// Re-parented as a detached root by the SYNC handoff: the old parent
    /// chain no longer waits on us; aggregates go straight to the sender.
    pub(crate) fn detach(&mut self) {
        self.links.parent = None;
    }

    /// The child-evict timer, while armed.
    pub(crate) fn deadline(&self) -> Option<Time> {
        self.deadline
    }

    fn slot(&self, rank: Rank) -> Option<usize> {
        self.links.children.iter().position(|&c| c == rank)
    }

    /// What this node can vouch for on `st`: own progress limited by its
    /// *live* children (evicted children no longer gate the aggregate).
    fn aggregate(&self, st: &TransferState) -> u32 {
        st.child_cov
            .iter()
            .zip(&self.alive)
            .filter(|(_, alive)| alive.is_some())
            .map(|(&c, _)| c)
            .chain(std::iter::once(st.own_next))
            .min()
            .expect("iterator never empty")
    }

    /// Send the aggregated cumulative ACK upward when it advanced (or when
    /// `force`d by a retransmitted LAST packet).
    pub(crate) fn send_aggregate(
        &self,
        transfer: u32,
        st: &mut TransferState,
        force: bool,
        stamp: Stamp,
        io: &mut Io<'_>,
    ) {
        let agg = self.aggregate(st);
        let advanced = st.sent_up.is_none_or(|s| agg > s);
        if !(force || (advanced && agg > 0)) {
            return;
        }
        st.sent_up = Some(agg.max(st.sent_up.unwrap_or(0)));
        let dest = self.links.parent.map_or(Dest::Sender, Dest::Rank);
        stamp.send(io, Feedback::Ack, dest, transfer, agg);
    }

    /// Note a sign of life from child `slot` at `now` (a dead child stays
    /// dead).
    fn note_alive(&mut self, slot: usize, now: Time) {
        if let Some(t) = &mut self.alive[slot] {
            *t = (*t).max(now);
        }
    }

    /// A cumulative ACK reporting `next`, from one of our children or a
    /// stray.
    pub(crate) fn on_ack(
        &mut self,
        now: Time,
        header: &Header,
        next: u32,
        transfers: &mut BTreeMap<u32, TransferState>,
        stamp: Stamp,
        io: &mut Io<'_>,
    ) {
        let Some(slot) = self.slot(header.src_rank) else {
            return; // not one of our tree children; stray
        };
        let transfer = header.transfer;
        io.tracer.emit(
            now.as_nanos(),
            TraceEvent::AckReceived {
                from: header.src_rank.0,
                transfer,
                next,
            },
        );
        let st = ensure_state(transfers, self.n_children(), transfer, false);
        let advanced = next > st.child_cov[slot];
        st.child_cov[slot] = st.child_cov[slot].max(next);
        self.send_aggregate(transfer, st, false, stamp, io);
        if advanced {
            // Child progress: push that child's eviction out.
            self.note_alive(slot, now);
        }
        self.rearm(transfers);
    }

    /// A heartbeat from `src`: `true` when it is one of our children. The
    /// child is alive even if its aggregate is stuck: without this, a dead
    /// leaf cascade-evicts every live ancestor in its chain.
    pub(crate) fn on_heartbeat(
        &mut self,
        now: Time,
        src: Rank,
        transfers: &BTreeMap<u32, TransferState>,
    ) -> bool {
        let Some(slot) = self.slot(src) else {
            return false;
        };
        if self.alive[slot].is_some() {
            self.note_alive(slot, now);
            self.rearm(transfers);
        }
        true
    }

    /// Is slot's acknowledgment trailing this node's own progress on some
    /// tracked transfer? Returns the oldest such transfer.
    fn slot_behind(slot: usize, transfers: &BTreeMap<u32, TransferState>) -> Option<u32> {
        transfers
            .iter()
            .find(|(_, st)| st.child_cov[slot] < st.own_next)
            .map(|(&t, _)| t)
    }

    /// Arm the child-evict timer at the earliest per-child deadline (last
    /// sign of life + timeout, over live children that are behind); disarm
    /// it when no child gates anything.
    pub(crate) fn rearm(&mut self, transfers: &BTreeMap<u32, TransferState>) {
        let Some(d) = self.timeout else {
            return;
        };
        self.deadline = (0..self.alive.len())
            .filter_map(|s| self.alive[s].filter(|_| Self::slot_behind(s, transfers).is_some()))
            .map(|alive| alive + d)
            .min();
    }

    /// At `now`, if the child-evict timer fired: every live child that is
    /// behind *and* silent past the timeout is presumed dead. Drop it from
    /// the aggregate so the ack chain routes around the dead subtree, and
    /// re-report everything that unblocked.
    pub(crate) fn on_timeout(
        &mut self,
        now: Time,
        transfers: &mut BTreeMap<u32, TransferState>,
        stamp: Stamp,
        io: &mut Io<'_>,
    ) {
        if self.deadline.is_none_or(|d| d > now) {
            return;
        }
        self.deadline = None;
        let d = self.timeout.expect("timer only armed when configured");
        let mut any = false;
        for slot in 0..self.alive.len() {
            if self.alive[slot].is_none_or(|alive| alive + d > now) {
                continue;
            }
            let Some(transfer) = Self::slot_behind(slot, transfers) else {
                continue;
            };
            self.alive[slot] = None;
            any = true;
            let rank = self.links.children[slot];
            io.stats.evictions += 1;
            io.tracer.emit(
                now.as_nanos(),
                TraceEvent::Evicted {
                    peer: rank.0,
                    transfer,
                },
            );
            io.events.push_back(AppEvent::ReceiverEvicted {
                msg_id: (transfer / 2) as u64,
                rank,
            });
        }
        if any {
            // Aggregates may have jumped: re-report every tracked transfer
            // (send_aggregate only emits when the aggregate advanced).
            for (&t, st) in transfers.iter_mut() {
                self.send_aggregate(t, st, false, stamp, io);
            }
        }
        self.rearm(transfers);
    }

    /// Audit `R4` and `R2` over the tracked transfers. The liveness vector
    /// is built from the links and never resized, and a slot is a position
    /// in the links, so the per-transfer coverage length is the only child
    /// bookkeeping left that can fall out of step.
    pub(crate) fn audit(&self, transfers: &BTreeMap<u32, TransferState>, a: &mut Audit) {
        let n = self.n_children();
        for (&id, st) in transfers {
            a.require("R4", st.child_cov.len() == n, || {
                format!(
                    "transfer {id}: {} child coverage slots for {n} children",
                    st.child_cov.len()
                )
            });
            if let Some(sent) = st.sent_up {
                let agg = self.aggregate(st);
                a.require("R2", sent <= agg, || {
                    format!(
                        "transfer {id}: acknowledged {sent} up the tree but can \
                         only vouch for {agg} (own {} / children {:?})",
                        st.own_next, st.child_cov
                    )
                });
            }
        }
    }

    /// Fold the protocol-logical state into a digest: which children are
    /// out of the aggregate.
    pub(crate) fn hash_into(&self, h: &mut dyn std::hash::Hasher) {
        for alive in &self.alive {
            h.write_u8(alive.is_none() as u8);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(n: u16) -> GroupSpec {
        GroupSpec::new(n)
    }

    #[test]
    fn flat_height_one_is_ack_protocol() {
        let t = TreeTopology::new(group(5), TreeShape::Flat { height: 1 });
        assert_eq!(t.roots().len(), 5);
        for r in group(5).receivers() {
            assert_eq!(t.links(r).parent, None);
            assert!(t.links(r).children.is_empty());
        }
        assert_eq!(t.max_depth(), 1);
    }

    #[test]
    fn flat_height_n_is_single_chain() {
        let t = TreeTopology::new(group(4), TreeShape::Flat { height: 4 });
        assert_eq!(t.roots(), &[Rank(1)]);
        assert_eq!(t.links(Rank(1)).children, vec![Rank(2)]);
        assert_eq!(t.links(Rank(2)).parent, Some(Rank(1)));
        assert_eq!(t.links(Rank(4)).children, Vec::<Rank>::new());
        assert_eq!(t.max_depth(), 4);
        assert_eq!(t.subtree_size(Rank(1)), 4);
    }

    #[test]
    fn flat_chains_chunk_consecutively() {
        // N = 16, H = 3 -> chains {1,2,3},{4,5,6},...,{16}: 6 roots.
        let t = TreeTopology::new(group(16), TreeShape::Flat { height: 3 });
        assert_eq!(t.roots().len(), 6);
        assert_eq!(t.roots()[0], Rank(1));
        assert_eq!(t.roots()[5], Rank(16));
        assert_eq!(t.links(Rank(2)).parent, Some(Rank(1)));
        assert_eq!(t.links(Rank(3)).parent, Some(Rank(2)));
        assert_eq!(t.links(Rank(4)).parent, None);
        assert_eq!(t.subtree_size(Rank(1)), 3);
        assert_eq!(t.subtree_size(Rank(16)), 1);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn subtrees_cover_group_exactly() {
        for (n, h) in [(16, 3), (30, 6), (30, 15), (30, 30), (7, 2)] {
            let t = TreeTopology::new(group(n), TreeShape::Flat { height: h });
            let covered: usize = t.roots().iter().map(|&r| t.subtree_size(r)).sum();
            assert_eq!(covered, n as usize, "N={n} H={h}");
            assert_eq!(t.roots().len(), (n as usize).div_ceil(h));
        }
    }

    #[test]
    fn binary_tree_shape() {
        let t = TreeTopology::new(group(7), TreeShape::Binary);
        assert_eq!(t.roots(), &[Rank(1)]);
        assert_eq!(t.links(Rank(1)).children, vec![Rank(2), Rank(3)]);
        assert_eq!(t.links(Rank(2)).children, vec![Rank(4), Rank(5)]);
        assert_eq!(t.links(Rank(3)).children, vec![Rank(6), Rank(7)]);
        assert_eq!(t.links(Rank(7)).parent, Some(Rank(3)));
        assert_eq!(t.subtree_size(Rank(1)), 7);
        assert_eq!(t.max_depth(), 3);
    }

    #[test]
    fn binary_tree_single_node() {
        let t = TreeTopology::new(group(1), TreeShape::Binary);
        assert_eq!(t.roots(), &[Rank(1)]);
        assert!(t.links(Rank(1)).children.is_empty());
    }
}
