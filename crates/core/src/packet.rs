//! Building and parsing complete protocol datagrams (header + body).
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

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rmwire::{
    AllocBody, Header, PacketFlags, PacketType, Rank, RepairBody, SeqNo, SyncBody, WireError,
    HEADER_LEN,
};

/// A fully parsed incoming packet: the header every packet starts with,
/// then the body its type selects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet<'a> {
    /// Parsed header.
    pub header: Header,
    /// Parsed body.
    pub body: Body<'a>,
}

/// The body of a [`Packet`]. Variable-length bytes (`Data`, `Coded`'s
/// payload) are views into the datagram it was parsed from, not copies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Body<'a> {
    /// Application data chunk, borrowed from the receive buffer: whoever
    /// keeps it past the datagram's lifetime copies it (the receiver's
    /// assembly does, once, into the message buffer).
    Data(&'a [u8]),
    /// Buffer-allocation request (a `Data` packet flagged `ALLOC`).
    Alloc(AllocBody),
    /// Cumulative acknowledgment. The ring protocol sends these from the
    /// rotating token site; the ACK protocol from every receiver; the NAK
    /// protocol only in response to polled packets.
    Ack {
        /// "I (and, in the tree protocol, every receiver in my subtree)
        /// have received every data packet with `seq < next_expected`."
        next_expected: SeqNo,
        /// Membership epoch the acknowledging receiver believed in, present
        /// only when the group runs with membership enabled.
        epoch: Option<u32>,
    },
    /// Negative acknowledgment. Under Go-Back-N the sender rewinds to
    /// `expected`.
    Nak {
        /// The receiver's next expected sequence number: the first packet
        /// of the detected gap.
        expected: SeqNo,
        /// Membership epoch, as for [`Body::Ack`].
        epoch: Option<u32>,
    },
    /// Admission request from a first-time or previously evicted receiver.
    Join {
        /// The last epoch the joiner observed, or 0 if it has never been a
        /// member. Lets the sender tell a fresh join from a rejoin after a
        /// partition whose epoch may still be current.
        last_epoch: u32,
    },
    /// The sender's immediate response to a `Join`, confirming the request
    /// is registered; the admission itself (a `Sync`) follows at the next
    /// message boundary.
    Welcome {
        /// The group's current membership epoch.
        epoch: u32,
    },
    /// A receiver announces its voluntary departure.
    Leave {
        /// The epoch in which the receiver is leaving.
        epoch: u32,
    },
    /// Liveness beacon. The sender multicasts them (`src_rank == 0`);
    /// receivers echo them back unicast, so the failure detector observes
    /// liveness even between data transfers.
    Heartbeat {
        /// The group's current membership epoch.
        epoch: u32,
    },
    /// Admission handoff to a joiner.
    Sync(SyncBody),
    /// A coded block: the XOR of the packets `block` names. The header's
    /// type tells a reactive REPAIR from a proactive PARITY over the last
    /// *k* data packets; the layout is the same.
    Coded {
        /// Coded-block header (seq set + generation).
        block: RepairBody,
        /// The XOR of the named chunks, each zero-padded to the transfer's
        /// packet size.
        payload: &'a [u8],
    },
}

impl<'a> Packet<'a> {
    /// Parse a received datagram without requiring an integrity trailer
    /// (checksummed packets are still verified when the flag is present).
    pub fn parse(datagram: &'a [u8]) -> Result<Packet<'a>, WireError> {
        Packet::parse_checked(datagram, false)
    }

    /// Parse a received datagram, verifying the CRC-32C trailer of any
    /// packet flagged [`PacketFlags::CKSUM`]. With `require_integrity`
    /// the decoder *fails closed*: a packet without the flag is rejected
    /// ([`WireError::ChecksumMissing`]), so a corrupting flip that clears
    /// the flag bit itself cannot smuggle bytes past verification.
    pub fn parse_checked(
        datagram: &'a [u8],
        require_integrity: bool,
    ) -> Result<Packet<'a>, WireError> {
        let _span = rmprof::span!(rmprof::Stage::WireDecode);
        // The flag byte sits at a fixed offset; peek it before the full
        // header decode so the checksum covers exactly the sealed bytes.
        let sealed = datagram.len() >= HEADER_LEN
            && datagram
                .get(1)
                .is_some_and(|&b| b & PacketFlags::CKSUM.bits() != 0);
        let datagram = if sealed {
            let Some(body_len) = datagram.len().checked_sub(4).filter(|&n| n >= HEADER_LEN) else {
                return Err(WireError::Truncated {
                    need: HEADER_LEN + 4,
                    have: datagram.len(),
                });
            };
            let (body, trailer) = datagram.split_at(body_len);
            let expected = match <[u8; 4]>::try_from(trailer) {
                Ok(raw) => u32::from_be_bytes(raw),
                // split_at gave exactly 4 trailer bytes; a mismatch here
                // means the arithmetic above drifted — fail closed.
                Err(_) => return Err(WireError::ChecksumMissing),
            };
            let crc_span = rmprof::span!(rmprof::Stage::WireCrc);
            let actual = rmwire::crc32c(body);
            drop(crc_span);
            if expected != actual {
                return Err(WireError::ChecksumMismatch { expected, actual });
            }
            body
        } else if require_integrity {
            // Still surface the more precise error for runts.
            if datagram.len() < HEADER_LEN {
                return Err(WireError::Truncated {
                    need: HEADER_LEN,
                    have: datagram.len(),
                });
            }
            return Err(WireError::ChecksumMissing);
        } else {
            datagram
        };

        let mut buf = datagram;
        let header = Header::decode(&mut buf)?;
        let body = match header.ptype {
            PacketType::Data if header.flags.contains(PacketFlags::ALLOC) => {
                Body::Alloc(AllocBody::decode(&mut buf)?)
            }
            // Arbitrary application bytes: consume everything.
            PacketType::Data => Body::Data(std::mem::take(&mut buf)),
            PacketType::Ack => Body::Ack {
                next_expected: SeqNo(word(&mut buf)?),
                epoch: epoch_tail(&mut buf)?,
            },
            PacketType::Nak => Body::Nak {
                expected: SeqNo(word(&mut buf)?),
                epoch: epoch_tail(&mut buf)?,
            },
            PacketType::Join => Body::Join {
                last_epoch: word(&mut buf)?,
            },
            PacketType::Welcome => Body::Welcome {
                epoch: word(&mut buf)?,
            },
            PacketType::Leave => Body::Leave {
                epoch: word(&mut buf)?,
            },
            PacketType::Heartbeat => Body::Heartbeat {
                epoch: word(&mut buf)?,
            },
            PacketType::Sync => Body::Sync(SyncBody::decode(&mut buf)?),
            PacketType::Repair | PacketType::Parity => {
                let block = RepairBody::decode(&mut buf)?;
                // An XOR block with no coded bytes is unencodable: even a
                // zero-length tail chunk pads to the packet size.
                if buf.is_empty() {
                    return Err(WireError::Truncated { need: 1, have: 0 });
                }
                let payload = std::mem::take(&mut buf);
                Body::Coded { block, payload }
            }
        };
        // Strict decode: a well-formed body leaves nothing behind. (Data
        // bodies consume the whole buffer above.)
        if !buf.is_empty() {
            return Err(WireError::TrailingGarbage { extra: buf.len() });
        }
        Ok(Packet { header, body })
    }
}

/// Read one big-endian `u32` body word, refusing a buffer too short for it.
fn word(buf: &mut &[u8]) -> Result<u32, WireError> {
    if buf.len() < 4 {
        return Err(WireError::Truncated {
            need: 4,
            have: buf.len(),
        });
    }
    Ok(buf.get_u32())
}

/// Decode the optional 4-byte epoch trailer on ACK/NAK packets. A group
/// running without membership emits no trailer, so the disabled wire format
/// is byte-identical to the paper's.
fn epoch_tail(buf: &mut &[u8]) -> Result<Option<u32>, WireError> {
    if buf.is_empty() {
        Ok(None)
    } else {
        word(buf).map(Some)
    }
}

/// Length of the integrity trailer, and the spare capacity [`encode`]
/// leaves past every packet so that [`seal_in_place`] can append it.
const TRAILER_LEN: usize = 4;

/// Seal an encoded packet with the integrity trailer: set
/// [`PacketFlags::CKSUM`] in the header's flag byte and append the
/// big-endian CRC-32C of every preceding byte. The inverse lives in
/// [`Packet::parse_checked`]. Copies `packet`; the engines seal what they
/// own with [`seal_in_place`].
pub fn seal(packet: &[u8]) -> Bytes {
    seal_owned(with_trailer_room(packet))
}

/// [`seal`] without the copy: when `packet` is the only handle to its
/// storage and the storage has room for the trailer — true of every
/// `encode_*` output nobody cloned — the flag is set and the trailer
/// appended where the packet already lies. Otherwise the bytes are copied
/// first, exactly as `seal` does: storage another handle can read is never
/// written through.
pub fn seal_in_place(packet: Bytes) -> Bytes {
    seal_owned(match packet.try_into_mut() {
        Ok(buf) if buf.capacity() - buf.len() >= TRAILER_LEN => buf,
        Ok(exact) => with_trailer_room(&exact),
        Err(shared) => with_trailer_room(&shared),
    })
}

/// A private copy of `packet` with capacity for the trailer.
fn with_trailer_room(packet: &[u8]) -> BytesMut {
    let mut buf = BytesMut::with_capacity(packet.len() + TRAILER_LEN);
    buf.extend_from_slice(packet);
    buf
}

fn seal_owned(mut buf: BytesMut) -> Bytes {
    let _span = rmprof::span!(rmprof::Stage::WireEncode);
    debug_assert!(buf.len() >= HEADER_LEN, "cannot seal a runt");
    if let Some(flags) = buf.get_mut(1) {
        *flags |= PacketFlags::CKSUM.bits();
    }
    let crc_span = rmprof::span!(rmprof::Stage::WireCrc);
    let crc = rmwire::crc32c(&buf);
    drop(crc_span);
    buf.put_u32(crc);
    buf.freeze()
}

/// Encode one packet: `header`, then the `body_len` bytes `body` writes,
/// then the membership epoch trailer where one is stamped. Every
/// `encode_*` below is this with its own header and body, so the encode
/// side has one allocation and one `WireEncode` span. The allocation
/// reserves [`TRAILER_LEN`] bytes past the packet (capacity, not length):
/// the room [`seal_in_place`] needs.
fn encode(
    header: Header,
    body_len: usize,
    epoch: Option<u32>,
    body: impl FnOnce(&mut BytesMut),
) -> Bytes {
    let _span = rmprof::span!(rmprof::Stage::WireEncode);
    let len = HEADER_LEN + body_len + epoch.map_or(0, |_| 4);
    // Reusing this buffer would need it back from the transport.
    // rmlint: allow(hot-alloc): one buffer per packet, handed off by value
    let mut buf = BytesMut::with_capacity(len + TRAILER_LEN);
    header.encode(&mut buf);
    body(&mut buf);
    if let Some(epoch) = epoch {
        buf.put_u32(epoch);
    }
    buf.freeze()
}

/// The header of a packet that belongs to no transfer (membership
/// control traffic).
fn control(ptype: PacketType, src_rank: Rank) -> Header {
    Header {
        ptype,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer: 0,
        seq: SeqNo::ZERO,
    }
}

/// Encode a data packet.
pub fn encode_data(
    src_rank: Rank,
    transfer: u32,
    seq: SeqNo,
    flags: PacketFlags,
    chunk: &[u8],
) -> Bytes {
    let header = Header {
        ptype: PacketType::Data,
        flags,
        src_rank,
        transfer,
        seq,
    };
    encode(header, chunk.len(), None, |buf| {
        buf.extend_from_slice(chunk)
    })
}

/// Encode a buffer-allocation request packet.
pub fn encode_alloc(src_rank: Rank, transfer: u32, flags: PacketFlags, body: AllocBody) -> Bytes {
    let header = Header {
        ptype: PacketType::Data,
        flags: flags | PacketFlags::ALLOC,
        src_rank,
        transfer,
        seq: SeqNo::ZERO,
    };
    encode(header, AllocBody::LEN, None, |buf| body.encode(buf))
}

/// Encode a cumulative ACK without the epoch trailer.
pub fn encode_ack(src_rank: Rank, transfer: u32, next_expected: SeqNo) -> Bytes {
    ack(src_rank, transfer, next_expected, None)
}

/// Encode a cumulative ACK, epoch-stamped when `epoch` is given (only when
/// membership is enabled: the trailer makes stale-epoch ACKs detectable).
/// The header's sequence number repeats `next_expected`.
pub fn ack(src_rank: Rank, transfer: u32, next_expected: SeqNo, epoch: Option<u32>) -> Bytes {
    let header = Header {
        ptype: PacketType::Ack,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: next_expected,
    };
    encode(header, 4, epoch, |buf| buf.put_u32(next_expected.0))
}

/// Encode a NAK for the first missing sequence number, epoch-stamped when
/// `epoch` is given (as for [`ack`]).
pub fn nak(src_rank: Rank, transfer: u32, expected: SeqNo, epoch: Option<u32>) -> Bytes {
    let header = Header {
        ptype: PacketType::Nak,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: expected,
    };
    encode(header, 4, epoch, |buf| buf.put_u32(expected.0))
}

/// Encode one of the four membership packets: JOIN carries the epoch the
/// joiner last belonged to (zero for a fresh join); WELCOME, LEAVE and
/// HEARTBEAT the epoch the sender believes in. The sender's multicast
/// heartbeat carries `Rank::SENDER`; receiver replies carry their own rank.
pub fn encode_membership(ptype: PacketType, src_rank: Rank, epoch: u32) -> Bytes {
    debug_assert!(
        matches!(
            ptype,
            PacketType::Join | PacketType::Welcome | PacketType::Leave | PacketType::Heartbeat
        ),
        "{ptype:?} is not a membership packet"
    );
    encode(control(ptype, src_rank), 4, None, |buf| buf.put_u32(epoch))
}

/// Encode a coded block, REPAIR or PARITY: `payload` is the XOR of the
/// chunks named by `block`, each zero-padded to the transfer's packet size.
pub fn encode_coded(
    ptype: PacketType,
    src_rank: Rank,
    transfer: u32,
    block: RepairBody,
    payload: &[u8],
) -> Bytes {
    debug_assert!(
        matches!(ptype, PacketType::Repair | PacketType::Parity),
        "{ptype:?} is not a coded block"
    );
    debug_assert!(block.bitmap & 1 == 1, "coded bitmap must be canonical");
    debug_assert!(!payload.is_empty(), "coded payload cannot be empty");
    let header = Header {
        ptype,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: SeqNo(block.base_seq),
    };
    encode(header, RepairBody::LEN + payload.len(), None, |buf| {
        block.encode(buf);
        buf.extend_from_slice(payload);
    })
}

/// Encode the admission handoff for one joiner.
pub fn encode_sync(src_rank: Rank, body: SyncBody) -> Bytes {
    let header = Header {
        transfer: body.next_transfer,
        ..control(PacketType::Sync, src_rank)
    };
    encode(header, SyncBody::LEN, None, |buf| body.encode(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Every fixed-layout packet's round trip and truncation is a property
    // in `tests/packet_props.rs`; these pin the rest.

    #[test]
    fn data_round_trip() {
        let b = encode_data(
            Rank(0),
            5,
            SeqNo(9),
            PacketFlags::POLL | PacketFlags::LAST,
            b"hello",
        );
        let Packet { header, body } = Packet::parse(&b).unwrap();
        assert_eq!(header.transfer, 5);
        assert_eq!(header.seq, SeqNo(9));
        assert!(header.flags.contains(PacketFlags::POLL));
        assert!(header.flags.contains(PacketFlags::LAST));
        assert_eq!(body, Body::Data(b"hello"));
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::parse(&[]).is_err());
        assert!(Packet::parse(&[0xff; 20]).is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut a = encode_ack(Rank(1), 1, SeqNo(1)).to_vec();
        a.extend_from_slice(&[0xaa; 4]); // looks like an epoch trailer
        a.push(0xbb); // ...plus one stray byte
        assert!(matches!(
            Packet::parse(&a),
            Err(WireError::TrailingGarbage { extra: 1 })
        ));
        let mut j = encode_membership(PacketType::Join, Rank(5), 3).to_vec();
        j.extend_from_slice(b"xx");
        assert!(matches!(
            Packet::parse(&j),
            Err(WireError::TrailingGarbage { extra: 2 })
        ));
    }

    #[test]
    fn sealed_round_trip_and_flip_detection() {
        let encode = || encode_data(Rank(0), 5, SeqNo(9), PacketFlags::POLL, b"payload");
        let plain = encode();
        // The copying seal, then the same packet sealed where it lies.
        for sealed in [seal(&plain), seal_in_place(encode())] {
            assert_eq!(sealed.len(), plain.len() + 4);
            // Verifies in both lenient and strict modes.
            for strict in [false, true] {
                let Packet { header, body } = Packet::parse_checked(&sealed, strict).unwrap();
                assert!(header.flags.contains(PacketFlags::CKSUM));
                assert_eq!(body, Body::Data(b"payload"));
            }
            // Every single-bit flip anywhere in the sealed packet is caught
            // in strict mode (flips in the CKSUM bit itself downgrade to
            // ChecksumMissing; flips elsewhere to mismatch or header errors).
            for byte in 0..sealed.len() {
                for bit in 0..8 {
                    let mut bad = sealed.to_vec();
                    bad[byte] ^= 1 << bit;
                    assert!(
                        Packet::parse_checked(&bad, true).is_err(),
                        "flip at {byte}.{bit} went undetected"
                    );
                }
            }
            // A sealed runt (trailer would eat into the header) is rejected.
            assert!(Packet::parse_checked(&sealed[..HEADER_LEN + 2], true).is_err());
        }
        // Unsealed packets fail closed under strict mode.
        assert!(matches!(
            Packet::parse_checked(&plain, true),
            Err(WireError::ChecksumMissing)
        ));
    }

    #[test]
    fn sealed_control_packets_round_trip() {
        for pkt in [
            ack(Rank(3), 7, SeqNo(100), Some(9)),
            nak(Rank(4), 7, SeqNo(55), None),
            encode_membership(PacketType::Heartbeat, Rank(0), 7),
            // The CRC covers the coded payload too.
            encode_coded(
                PacketType::Parity,
                Rank(0),
                3,
                RepairBody {
                    base_seq: 4,
                    generation: 2,
                    bitmap: 0b101,
                },
                b"\x12\x34",
            ),
            encode_sync(
                Rank(0),
                SyncBody {
                    epoch: 8,
                    next_msg: 12,
                    next_transfer: 24,
                    flags: 0,
                },
            ),
        ] {
            let sealed = seal(&pkt);
            assert_eq!(
                Packet::parse_checked(&sealed, true).map(|p| p.body),
                Packet::parse(&pkt).map(|p| p.body)
            );
            // Corrupt the trailer itself: mismatch.
            let mut bad = sealed.to_vec();
            let n = bad.len();
            bad[n - 1] ^= 0xff;
            assert!(matches!(
                Packet::parse_checked(&bad, true),
                Err(WireError::ChecksumMismatch { .. })
            ));
        }
    }

    #[test]
    fn empty_data_packet_allowed() {
        let b = encode_data(Rank(0), 0, SeqNo(0), PacketFlags::LAST, b"");
        assert_eq!(Packet::parse(&b).unwrap().body, Body::Data(b""));
    }
}
