//! Participant identity within a static multicast group.
//!
//! The paper studies *static* groups (§3: "multicast groups are static ...
//! group members do not join and leave"), so membership is a compile-time
//! fact of each run: one sender with [`Rank`] 0 and `n` receivers with ranks
//! `1..=n`.

/// A participant index inside a group: `0` is the sender, `1..=n` are
/// receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Rank(pub u16);

impl Rank {
    /// The sender's rank.
    pub const SENDER: Rank = Rank(0);

    /// `true` for the sender.
    #[inline]
    pub fn is_sender(self) -> bool {
        self.0 == 0
    }

    /// The zero-based receiver index (`rank - 1`); panics on the sender.
    #[inline]
    pub fn receiver_index(self) -> usize {
        assert!(!self.is_sender(), "sender has no receiver index");
        (self.0 - 1) as usize
    }

    /// The rank of receiver index `i` (inverse of [`Rank::receiver_index`]).
    #[inline]
    pub fn from_receiver_index(i: usize) -> Rank {
        Rank(u16::try_from(i + 1).expect("receiver index out of range"))
    }
}

impl core::fmt::Display for Rank {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_sender() {
            write!(f, "sender")
        } else {
            write!(f, "recv{}", self.0)
        }
    }
}

/// The shape of a static multicast group: one sender plus `n_receivers`
/// receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupSpec {
    /// Number of receivers (excludes the sender).
    pub n_receivers: u16,
}

impl GroupSpec {
    /// A group with `n_receivers` receivers; panics on an empty group.
    pub fn new(n_receivers: u16) -> Self {
        assert!(n_receivers > 0, "a multicast group needs >= 1 receiver");
        GroupSpec { n_receivers }
    }

    /// Total participant count, sender included.
    #[inline]
    pub fn n_participants(self) -> usize {
        self.n_receivers as usize + 1
    }

    /// Iterate over all receiver ranks in ascending order.
    pub fn receivers(self) -> impl Iterator<Item = Rank> {
        (1..=self.n_receivers).map(Rank)
    }

    /// Iterate over every rank, sender first.
    pub fn all_ranks(self) -> impl Iterator<Item = Rank> {
        (0..=self.n_receivers).map(Rank)
    }

    /// `true` if `rank` belongs to this group.
    #[inline]
    pub fn contains(self, rank: Rank) -> bool {
        rank.0 <= self.n_receivers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sender_identity() {
        assert!(Rank::SENDER.is_sender());
        assert!(!Rank(3).is_sender());
        assert_eq!(Rank(3).receiver_index(), 2);
        assert_eq!(Rank::from_receiver_index(2), Rank(3));
    }

    #[test]
    #[should_panic(expected = "no receiver index")]
    fn sender_has_no_receiver_index() {
        let _ = Rank::SENDER.receiver_index();
    }

    #[test]
    fn group_iteration() {
        let g = GroupSpec::new(3);
        assert_eq!(g.n_participants(), 4);
        let rs: Vec<_> = g.receivers().collect();
        assert_eq!(rs, vec![Rank(1), Rank(2), Rank(3)]);
        let all: Vec<_> = g.all_ranks().collect();
        assert_eq!(all.len(), 4);
        assert!(g.contains(Rank(0)));
        assert!(g.contains(Rank(3)));
        assert!(!g.contains(Rank(4)));
    }

    #[test]
    #[should_panic(expected = ">= 1 receiver")]
    fn empty_group_rejected() {
        let _ = GroupSpec::new(0);
    }
}
