//! Wrapping 32-bit sequence numbers.
//!
//! Sliding-window protocols compare sequence numbers modulo 2³²: `a < b`
//! means "`a` precedes `b` within half the number space". This is the same
//! serial-number arithmetic TCP uses (RFC 1982 style), and it is what the
//! paper's four-byte sequence-number field requires once a long transfer
//! wraps.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// A wrapping 32-bit sequence number.
///
/// Ordering is *relative*: `a.precedes(b)` holds when the signed distance
/// from `a` to `b` is positive, which is a total order only within windows
/// smaller than 2³¹. All window logic in the suite keeps windows far below
/// that bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SeqNo(pub u32);

impl SeqNo {
    /// The first sequence number of every transfer.
    pub const ZERO: SeqNo = SeqNo(0);

    /// The next sequence number, wrapping at 2³².
    #[inline]
    pub fn next(self) -> SeqNo {
        SeqNo(self.0.wrapping_add(1))
    }

    /// This number advanced by `n`, wrapping.
    #[inline]
    #[allow(clippy::should_implement_trait)] // wrapping semantics, not ops::Add
    pub fn add(self, n: u32) -> SeqNo {
        SeqNo(self.0.wrapping_add(n))
    }

    /// This number moved back by `n`, wrapping.
    #[inline]
    #[allow(clippy::should_implement_trait)] // wrapping semantics, not ops::Sub
    pub fn sub(self, n: u32) -> SeqNo {
        SeqNo(self.0.wrapping_sub(n))
    }

    /// Signed distance from `self` to `other` (positive when `other` is
    /// ahead of `self` in the half-space order).
    #[inline]
    pub fn distance_to(self, other: SeqNo) -> i32 {
        other.0.wrapping_sub(self.0) as i32
    }

    /// `true` when `self` strictly precedes `other` in window order.
    #[inline]
    pub fn precedes(self, other: SeqNo) -> bool {
        self.distance_to(other) > 0
    }

    /// `true` when `self` precedes or equals `other` in window order.
    #[inline]
    pub fn precedes_eq(self, other: SeqNo) -> bool {
        self.distance_to(other) >= 0
    }

    /// `true` when `self` lies in the half-open window `[lo, lo + len)`.
    #[inline]
    pub fn in_window(self, lo: SeqNo, len: u32) -> bool {
        let off = self.0.wrapping_sub(lo.0);
        off < len
    }

    /// The larger of two sequence numbers in window order.
    #[inline]
    pub fn max_of(self, other: SeqNo) -> SeqNo {
        if self.precedes(other) {
            other
        } else {
            self
        }
    }
}

impl From<u32> for SeqNo {
    #[inline]
    fn from(v: u32) -> Self {
        SeqNo(v)
    }
}

impl core::fmt::Display for SeqNo {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_relative() {
        assert!(SeqNo(0).precedes(SeqNo(1)));
        assert!(SeqNo(u32::MAX).precedes(SeqNo(0)));
        assert!(!SeqNo(0).precedes(SeqNo(0)));
        assert!(SeqNo(0).precedes_eq(SeqNo(0)));
        assert!(SeqNo(0).precedes(SeqNo(1 << 30)));
        assert!(!SeqNo(0).precedes(SeqNo((1u32 << 31) + 1)));
    }

    #[test]
    fn distance_wraps() {
        assert_eq!(SeqNo(u32::MAX).distance_to(SeqNo(2)), 3);
        assert_eq!(SeqNo(2).distance_to(SeqNo(u32::MAX)), -3);
        assert_eq!(SeqNo(7).distance_to(SeqNo(7)), 0);
    }

    #[test]
    fn window_membership() {
        let lo = SeqNo(u32::MAX - 1);
        assert!(lo.in_window(lo, 1));
        assert!(SeqNo(u32::MAX).in_window(lo, 4));
        assert!(SeqNo(0).in_window(lo, 4));
        assert!(SeqNo(1).in_window(lo, 4));
        assert!(!SeqNo(2).in_window(lo, 4));
        assert!(!SeqNo(u32::MAX - 2).in_window(lo, 4));
        assert!(!SeqNo(5).in_window(lo, 0));
    }

    #[test]
    fn next_add_sub_round_trip() {
        let s = SeqNo(u32::MAX);
        assert_eq!(s.next(), SeqNo(0));
        assert_eq!(s.add(5), SeqNo(4));
        assert_eq!(s.add(5).sub(5), s);
    }

    #[test]
    fn max_of_picks_later() {
        assert_eq!(SeqNo(3).max_of(SeqNo(9)), SeqNo(9));
        assert_eq!(SeqNo(9).max_of(SeqNo(3)), SeqNo(9));
        assert_eq!(SeqNo(u32::MAX).max_of(SeqNo(1)), SeqNo(1));
    }
}
