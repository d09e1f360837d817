//! Typed bodies of the packets whose fields the decoder validates.
//!
//! Data packets carry raw application bytes after the header, and the
//! one-word packets (ACK, NAK and the four membership packets) a single
//! big-endian `u32` that `rmcast::packet` reads itself; the three bodies
//! below carry fields with values no legitimate sender produces, and
//! their decoders refuse them.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::WireError;
use bytes::{Buf, BufMut};

/// Body of a buffer-allocation request (a `Data` packet with the `ALLOC`
/// flag; paper §4 *Buffer management*: "sending the size of the message to
/// the receivers first before the actual message is transmitted").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocBody {
    /// Total length in bytes of the message about to be transferred.
    pub msg_len: u64,
    /// Transfer id the data packets will use.
    pub data_transfer: u32,
    /// Packet (UDP payload) size the sender will use for the data transfer,
    /// letting receivers size their reassembly window.
    pub packet_size: u32,
}

impl AllocBody {
    /// Encoded size in bytes.
    pub const LEN: usize = 16;

    /// Append the encoded body to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u64(self.msg_len);
        buf.put_u32(self.data_transfer);
        buf.put_u32(self.packet_size);
    }

    /// Decode from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated {
                need: Self::LEN,
                have: buf.remaining(),
            });
        }
        let body = AllocBody {
            msg_len: buf.get_u64(),
            data_transfer: buf.get_u32(),
            packet_size: buf.get_u32(),
        };
        // A zero packet size would divide-by-zero receiver window sizing;
        // no legitimate sender can produce it.
        if body.packet_size == 0 {
            return Err(WireError::FieldRange {
                field: "AllocBody.packet_size",
                value: 0,
            });
        }
        Ok(body)
    }
}

/// Body of a `Sync` packet: the admission handoff. The sender tells a
/// joiner which epoch it is entering and the first message/transfer it is
/// responsible for, so it starts clean at a message boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncBody {
    /// The epoch the joiner is admitted into.
    pub epoch: u32,
    /// First message id the joiner is responsible for.
    pub next_msg: u64,
    /// Transfer id of that message's allocation round; anything earlier must
    /// be ignored by the joiner.
    pub next_transfer: u32,
    /// Flag bits; see [`SyncBody::DETACHED_ROOT`].
    pub flags: u32,
}

impl SyncBody {
    /// Encoded size in bytes.
    pub const LEN: usize = 20;

    /// Flag bit: the joiner re-enters a tree protocol as a *detached root*
    /// reporting straight to the sender (its old parent may have evicted
    /// it), rather than rejoining its original ack chain.
    pub const DETACHED_ROOT: u32 = 0x1;

    /// `true` if the joiner must act as a detached tree root.
    pub fn detached_root(&self) -> bool {
        self.flags & Self::DETACHED_ROOT != 0
    }

    /// Append the encoded body to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.epoch);
        buf.put_u64(self.next_msg);
        buf.put_u32(self.next_transfer);
        buf.put_u32(self.flags);
    }

    /// Decode from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated {
                need: Self::LEN,
                have: buf.remaining(),
            });
        }
        let body = SyncBody {
            epoch: buf.get_u32(),
            next_msg: buf.get_u64(),
            next_transfer: buf.get_u32(),
            flags: buf.get_u32(),
        };
        // Reject unknown flag bits the way the header does: a forged or
        // corrupted SYNC must not smuggle undefined semantics through.
        if body.flags & !Self::DETACHED_ROOT != 0 {
            return Err(WireError::FieldRange {
                field: "SyncBody.flags",
                value: body.flags as u64,
            });
        }
        Ok(body)
    }
}

/// Body of a `Repair` or `Parity` packet: the coded-block header naming
/// which data packets were XOR-combined into the payload that follows.
///
/// The seq set is a base sequence plus a 64-bit bitmap: bit `i` set means
/// packet `base_seq + i` participates in the XOR. The bitmap is canonical
/// (bit 0 always set, never empty) so every seq set has exactly one wire
/// encoding. The generation counter increases monotonically per transfer
/// at the sender; receivers drop non-increasing generations, so a replayed
/// coded block can never be decoded twice (the CRC-32C trailer already
/// rejects forged or corrupted ones).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairBody {
    /// Lowest sequence number in the coded set (bit 0 of `bitmap`).
    pub base_seq: u32,
    /// Monotonic coded-block counter per (sender, transfer).
    pub generation: u32,
    /// Seq-set bitmap relative to `base_seq`; bit `i` ⇒ `base_seq + i`.
    pub bitmap: u64,
}

impl RepairBody {
    /// Encoded size in bytes.
    pub const LEN: usize = 16;

    /// The sequence numbers named by the bitmap, ascending.
    pub fn seqs(&self) -> impl Iterator<Item = u32> + '_ {
        (0..64u32).filter_map(|i| {
            if self.bitmap & (1u64 << i) != 0 {
                self.base_seq.checked_add(i)
            } else {
                None
            }
        })
    }

    /// Number of packets XOR-combined into this block.
    pub fn coded_count(&self) -> u32 {
        self.bitmap.count_ones()
    }

    /// Append the encoded body to `buf`.
    pub fn encode<B: BufMut>(&self, buf: &mut B) {
        buf.put_u32(self.base_seq);
        buf.put_u32(self.generation);
        buf.put_u64(self.bitmap);
    }

    /// Decode from the front of `buf`.
    pub fn decode<B: Buf>(buf: &mut B) -> Result<Self, WireError> {
        if buf.remaining() < Self::LEN {
            return Err(WireError::Truncated {
                need: Self::LEN,
                have: buf.remaining(),
            });
        }
        let body = RepairBody {
            base_seq: buf.get_u32(),
            generation: buf.get_u32(),
            bitmap: buf.get_u64(),
        };
        // Canonical bitmap: non-empty and anchored at base_seq (bit 0
        // set). An empty or unanchored bitmap has no legitimate encoder,
        // so it is rejected as forged/corrupt rather than normalized.
        if body.bitmap & 1 == 0 {
            return Err(WireError::FieldRange {
                field: "RepairBody.bitmap",
                value: body.bitmap,
            });
        }
        // The whole set must fit in sequence-number space.
        let span = 63 - body.bitmap.leading_zeros();
        if body.base_seq.checked_add(span).is_none() {
            return Err(WireError::FieldRange {
                field: "RepairBody.base_seq",
                value: body.base_seq as u64,
            });
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn alloc_round_trip() {
        let a = AllocBody {
            msg_len: 500 * 1024,
            data_transfer: 7,
            packet_size: 8000,
        };
        let mut buf = BytesMut::new();
        a.encode(&mut buf);
        assert_eq!(buf.len(), AllocBody::LEN);
        let mut b = buf.freeze();
        assert_eq!(AllocBody::decode(&mut b).unwrap(), a);
    }

    #[test]
    fn truncated_bodies_rejected() {
        let mut b: &[u8] = &[0, 1, 2];
        assert!(AllocBody::decode(&mut b).is_err());
        let mut b: &[u8] = &[0, 1, 2];
        assert!(SyncBody::decode(&mut b).is_err());
    }

    #[test]
    fn out_of_range_fields_rejected() {
        // AllocBody with packet_size == 0.
        let a = AllocBody {
            msg_len: 100,
            data_transfer: 3,
            packet_size: 1,
        };
        let mut buf = BytesMut::new();
        a.encode(&mut buf);
        let mut raw = buf.to_vec();
        raw[12..16].copy_from_slice(&0u32.to_be_bytes());
        let mut b: &[u8] = &raw;
        assert!(matches!(
            AllocBody::decode(&mut b),
            Err(WireError::FieldRange {
                field: "AllocBody.packet_size",
                ..
            })
        ));

        // SyncBody with undefined flag bits.
        let s = SyncBody {
            epoch: 1,
            next_msg: 2,
            next_transfer: 3,
            flags: 0x8000_0002,
        };
        let mut buf = BytesMut::new();
        s.encode(&mut buf);
        let mut b = buf.freeze();
        assert!(matches!(
            SyncBody::decode(&mut b),
            Err(WireError::FieldRange {
                field: "SyncBody.flags",
                ..
            })
        ));
    }

    #[test]
    fn repair_round_trip_and_seq_iter() {
        let r = RepairBody {
            base_seq: 10,
            generation: 3,
            bitmap: 0b1001_0001,
        };
        let mut buf = BytesMut::new();
        r.encode(&mut buf);
        assert_eq!(buf.len(), RepairBody::LEN);
        let out = RepairBody::decode(&mut buf.freeze()).unwrap();
        assert_eq!(out, r);
        assert_eq!(out.seqs().collect::<Vec<_>>(), vec![10, 14, 17]);
        assert_eq!(out.coded_count(), 3);
    }

    #[test]
    fn repair_noncanonical_bitmaps_rejected() {
        // Empty bitmap and a bitmap whose lowest bit is clear (the set is
        // not anchored at base_seq) are both unencodable by a legitimate
        // sender.
        for bitmap in [0u64, 0b10, 0xff00] {
            let r = RepairBody {
                base_seq: 0,
                generation: 0,
                bitmap,
            };
            let mut buf = BytesMut::new();
            r.encode(&mut buf);
            assert!(matches!(
                RepairBody::decode(&mut buf.freeze()),
                Err(WireError::FieldRange {
                    field: "RepairBody.bitmap",
                    ..
                })
            ));
        }
        // Seq-space overflow: base near u32::MAX with a high bit set.
        let r = RepairBody {
            base_seq: u32::MAX - 3,
            generation: 0,
            bitmap: 0b1_0001,
        };
        let mut buf = BytesMut::new();
        r.encode(&mut buf);
        assert!(matches!(
            RepairBody::decode(&mut buf.freeze()),
            Err(WireError::FieldRange {
                field: "RepairBody.base_seq",
                ..
            })
        ));
        let mut b: &[u8] = &[0, 1, 2];
        assert!(RepairBody::decode(&mut b).is_err());
    }

    #[test]
    fn sync_round_trip_and_flags() {
        let s = SyncBody {
            epoch: 5,
            next_msg: 12,
            next_transfer: 24,
            flags: SyncBody::DETACHED_ROOT,
        };
        let mut buf = BytesMut::new();
        s.encode(&mut buf);
        assert_eq!(buf.len(), SyncBody::LEN);
        let out = SyncBody::decode(&mut buf.freeze()).unwrap();
        assert_eq!(out, s);
        assert!(out.detached_root());
        assert!(!SyncBody { flags: 0, ..s }.detached_root());
    }
}
