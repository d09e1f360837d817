//! The reliable-multicast packet header.
//!
//! The paper (§4 *Packet Header*) uses a one-byte packet type and a
//! four-byte sequence number, relying on the UDP/IP headers for sender
//! identity. Our header carries that identity explicitly (`src_rank`) so the
//! same packets flow unchanged through the simulator and through real UDP
//! sockets, plus a `transfer` id distinguishing the buffer-allocation
//! round trip from the data transfer it precedes.
//!
//! Layout (big-endian, 12 bytes):
//!
//! ```text
//! 0        1        2            4            8           12
//! +--------+--------+------------+------------+------------+
//! | ptype  | flags  | src_rank   | transfer   | seq        |
//! +--------+--------+------------+------------+------------+
//! ```
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use crate::{Rank, SeqNo, WireError};
use bytes::{Buf, BufMut};

/// Encoded size of [`Header`] in bytes.
pub const HEADER_LEN: usize = 12;

/// The packet types of the protocols. The paper (§4) defines the first
/// three ("the data packet, the ACK packet and the NAK packet"); the
/// remaining five are membership-control packets added by the dynamic
/// membership layer. Data packets keep the paper's header exactly; the
/// membership types only ever appear when membership is enabled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum PacketType {
    /// Application or allocation-request payload.
    Data = 1,
    /// Positive (cumulative) acknowledgment.
    Ack = 2,
    /// Negative acknowledgment requesting retransmission.
    Nak = 3,
    /// A (re)joining receiver asks the sender for admission.
    Join = 4,
    /// The sender's immediate response to a `Join`: the request is
    /// registered and admission will follow at a message boundary.
    Welcome = 5,
    /// A receiver announces its voluntary departure from the group.
    Leave = 6,
    /// Liveness beacon: the sender announces the current epoch; receivers
    /// reply so the failure detector sees them.
    Heartbeat = 7,
    /// Admission handoff: the sender tells a joiner the epoch and the first
    /// message/transfer it is responsible for.
    Sync = 8,
    /// Reactive coded repair: the XOR of the packets named by a
    /// [`crate::RepairBody`] seq-set bitmap, healing different losses at
    /// different receivers with one multicast (the `fec` family).
    Repair = 9,
    /// Proactive parity: the XOR of the last *k* data packets, emitted
    /// unsolicited so single losses heal with no feedback round trip.
    /// Same body layout as `Repair`.
    Parity = 10,
}

impl PacketType {
    fn from_byte(b: u8) -> Result<Self, WireError> {
        match b {
            1 => Ok(PacketType::Data),
            2 => Ok(PacketType::Ack),
            3 => Ok(PacketType::Nak),
            4 => Ok(PacketType::Join),
            5 => Ok(PacketType::Welcome),
            6 => Ok(PacketType::Leave),
            7 => Ok(PacketType::Heartbeat),
            8 => Ok(PacketType::Sync),
            9 => Ok(PacketType::Repair),
            10 => Ok(PacketType::Parity),
            other => Err(WireError::BadPacketType(other)),
        }
    }
}

/// A tiny local stand-in for the `bitflags` crate (kept dependency-free).
macro_rules! bitflags_lite {
    (
        $(#[$meta:meta])*
        pub struct $name:ident: $ty:ty {
            $($(#[$fmeta:meta])* const $flag:ident = $val:expr;)*
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
        pub struct $name($ty);

        impl $name {
            $($(#[$fmeta])* pub const $flag: $name = $name($val);)*

            /// The empty flag set.
            pub const EMPTY: $name = $name(0);
            const ALL_BITS: $ty = 0 $(| $val)*;

            /// Raw bit representation.
            #[inline]
            pub const fn bits(self) -> $ty { self.0 }

            /// Reconstruct from raw bits, rejecting unknown bits.
            pub fn from_bits(bits: $ty) -> Result<Self, WireError> {
                if bits & !Self::ALL_BITS != 0 {
                    Err(WireError::BadFlags(bits))
                } else {
                    Ok($name(bits))
                }
            }

            /// `true` if every bit of `other` is set in `self`.
            #[inline]
            pub const fn contains(self, other: $name) -> bool {
                self.0 & other.0 == other.0
            }

            /// `true` if no bits are set.
            #[inline]
            pub const fn is_empty(self) -> bool { self.0 == 0 }
        }

        impl core::ops::BitOr for $name {
            type Output = $name;
            #[inline]
            fn bitor(self, rhs: $name) -> $name { $name(self.0 | rhs.0) }
        }

        impl core::ops::BitOrAssign for $name {
            #[inline]
            fn bitor_assign(&mut self, rhs: $name) { self.0 |= rhs.0; }
        }
    };
}

bitflags_lite! {
    /// Per-packet flag bits.
    pub struct PacketFlags: u8 {
        /// Receiver must acknowledge this data packet (the NAK protocol's
        /// "polling" flag; always set in ACK/ring/tree protocols' ACK-worthy
        /// packets).
        const POLL = 0x01;
        /// Final packet of the transfer.
        const LAST = 0x02;
        /// This data packet is a retransmission.
        const RETX = 0x04;
        /// This data packet is a buffer-allocation request whose body is an
        /// [`crate::AllocBody`].
        const ALLOC = 0x08;
        /// The packet ends with a big-endian CRC-32C trailer
        /// ([`crate::checksum::crc32c`]) computed over every preceding
        /// byte. Previously a reserved bit: legacy packets (bit clear)
        /// decode unchanged, legacy decoders reject the bit (fail closed).
        const CKSUM = 0x10;
    }
}

/// The fixed packet header carried at the front of every protocol datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Packet type discriminant.
    pub ptype: PacketType,
    /// Flag bits.
    pub flags: PacketFlags,
    /// Rank of the participant that sent this packet.
    pub src_rank: Rank,
    /// Transfer id; every message occupies two transfers (allocation
    /// round trip, then data).
    pub transfer: u32,
    /// Sequence number within the transfer (data) or the acknowledged /
    /// requested sequence (ACK / NAK bodies repeat the precise semantics).
    pub seq: SeqNo,
}

impl Header {
    /// Encode into `buf` (appends exactly [`HEADER_LEN`] bytes).
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u8(self.ptype as u8);
        buf.put_u8(self.flags.bits());
        buf.put_u16(self.src_rank.0);
        buf.put_u32(self.transfer);
        buf.put_u32(self.seq.0);
    }

    /// Decode from the front of `buf`, advancing it past the header.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < HEADER_LEN {
            return Err(WireError::Truncated {
                need: HEADER_LEN,
                have: buf.remaining(),
            });
        }
        let ptype = PacketType::from_byte(buf.get_u8())?;
        let flags = PacketFlags::from_bits(buf.get_u8())?;
        let src_rank = Rank(buf.get_u16());
        let transfer = buf.get_u32();
        let seq = SeqNo(buf.get_u32());
        Ok(Header {
            ptype,
            flags,
            src_rank,
            transfer,
            seq,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    fn round_trip(h: Header) -> Header {
        let mut buf = BytesMut::new();
        h.encode(&mut buf);
        assert_eq!(buf.len(), HEADER_LEN);
        let mut b = buf.freeze();
        let out = Header::decode(&mut b).unwrap();
        assert_eq!(b.remaining(), 0);
        out
    }

    #[test]
    fn encode_decode_round_trip() {
        let h = Header {
            ptype: PacketType::Data,
            flags: PacketFlags::POLL | PacketFlags::LAST,
            src_rank: Rank(17),
            transfer: 0xdead_beef,
            seq: SeqNo(42),
        };
        assert_eq!(round_trip(h), h);
    }

    #[test]
    fn all_types_round_trip() {
        for ptype in [
            PacketType::Data,
            PacketType::Ack,
            PacketType::Nak,
            PacketType::Join,
            PacketType::Welcome,
            PacketType::Leave,
            PacketType::Heartbeat,
            PacketType::Sync,
            PacketType::Repair,
            PacketType::Parity,
        ] {
            let h = Header {
                ptype,
                flags: PacketFlags::EMPTY,
                src_rank: Rank(0),
                transfer: 0,
                seq: SeqNo::ZERO,
            };
            assert_eq!(round_trip(h).ptype, ptype);
        }
    }

    #[test]
    fn truncated_rejected() {
        let mut short: &[u8] = &[1, 0, 0];
        assert!(matches!(
            Header::decode(&mut short),
            Err(WireError::Truncated { need: 12, have: 3 })
        ));
    }

    #[test]
    fn bad_type_rejected() {
        let bytes = [11u8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut b: &[u8] = &bytes;
        assert_eq!(
            Header::decode(&mut b).unwrap_err(),
            WireError::BadPacketType(11)
        );
    }

    #[test]
    fn bad_flags_rejected() {
        let bytes = [1u8, 0x80, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];
        let mut b: &[u8] = &bytes;
        assert_eq!(
            Header::decode(&mut b).unwrap_err(),
            WireError::BadFlags(0x80)
        );
    }

    #[test]
    fn flag_ops() {
        let mut f = PacketFlags::EMPTY;
        assert!(f.is_empty());
        f |= PacketFlags::RETX;
        assert!(f.contains(PacketFlags::RETX));
        assert!(!f.contains(PacketFlags::POLL));
        assert!(!f.contains(PacketFlags::RETX | PacketFlags::POLL));
        assert!(PacketFlags::from_bits(0x0f).is_ok());
        assert!(PacketFlags::from_bits(0x1f).is_ok());
        assert!(PacketFlags::from_bits(0x20).is_err());
        assert!(PacketFlags::from_bits(0x80).is_err());
    }
}
