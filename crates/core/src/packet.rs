//! Building and parsing complete protocol datagrams (header + body).

use bytes::{Buf, Bytes, BytesMut};
use rmwire::{
    AckBody, AllocBody, Header, HeartbeatBody, JoinBody, LeaveBody, NakBody, PacketFlags,
    PacketType, Rank, RepairBody, SeqNo, SyncBody, WelcomeBody, WireError, HEADER_LEN,
};

/// A fully parsed incoming packet. Variable-length bytes (`Data.body`,
/// `Repair`/`Parity.payload`) are views into the datagram it was parsed
/// from, not copies.
#[derive(Debug, Clone)]
pub enum Packet<'a> {
    /// Application data chunk.
    Data {
        /// Parsed header.
        header: Header,
        /// The data bytes, borrowed from the receive buffer: whoever keeps
        /// them past the datagram's lifetime copies them (the receiver's
        /// assembly does, once, into the message buffer).
        body: &'a [u8],
    },
    /// Buffer-allocation request (a `Data` packet flagged `ALLOC`).
    Alloc {
        /// Parsed header.
        header: Header,
        /// Allocation body.
        body: AllocBody,
    },
    /// Cumulative acknowledgment.
    Ack {
        /// Parsed header.
        header: Header,
        /// Acknowledgment body.
        body: AckBody,
        /// Membership epoch the acknowledging receiver believed in, present
        /// only when the group runs with membership enabled.
        epoch: Option<u32>,
    },
    /// Negative acknowledgment.
    Nak {
        /// Parsed header.
        header: Header,
        /// NAK body.
        body: NakBody,
        /// Membership epoch, as for [`Packet::Ack`].
        epoch: Option<u32>,
    },
    /// Admission request from a (re)joining receiver.
    Join {
        /// Parsed header.
        header: Header,
        /// Join body.
        body: JoinBody,
    },
    /// The sender's immediate acknowledgment of a `Join`.
    Welcome {
        /// Parsed header.
        header: Header,
        /// Welcome body.
        body: WelcomeBody,
    },
    /// Voluntary departure announcement.
    Leave {
        /// Parsed header.
        header: Header,
        /// Leave body.
        body: LeaveBody,
    },
    /// Liveness beacon (sender announce when `src_rank == 0`, receiver
    /// reply otherwise).
    Heartbeat {
        /// Parsed header.
        header: Header,
        /// Heartbeat body.
        body: HeartbeatBody,
    },
    /// Admission handoff to a joiner.
    Sync {
        /// Parsed header.
        header: Header,
        /// Sync body.
        body: SyncBody,
    },
    /// Reactive coded repair: XOR of the packets named by `body`.
    Repair {
        /// Parsed header.
        header: Header,
        /// Coded-block header (seq set + generation).
        body: RepairBody,
        /// The XOR of the named chunks, each zero-padded to the
        /// transfer's packet size.
        payload: &'a [u8],
    },
    /// Proactive parity over the last *k* data packets (same layout as
    /// [`Packet::Repair`], different emission policy).
    Parity {
        /// Parsed header.
        header: Header,
        /// Coded-block header (seq set + generation).
        body: RepairBody,
        /// The XOR of the named chunks, zero-padded to packet size.
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
        let packet = match header.ptype {
            PacketType::Data => {
                if header.flags.contains(PacketFlags::ALLOC) {
                    let body = AllocBody::decode(&mut buf)?;
                    Packet::Alloc { header, body }
                } else {
                    // Arbitrary application bytes: consume everything.
                    let body = std::mem::take(&mut buf);
                    Packet::Data { header, body }
                }
            }
            PacketType::Ack => {
                let body = AckBody::decode(&mut buf)?;
                let epoch = decode_epoch_tail(&mut buf)?;
                Packet::Ack {
                    header,
                    body,
                    epoch,
                }
            }
            PacketType::Nak => {
                let body = NakBody::decode(&mut buf)?;
                let epoch = decode_epoch_tail(&mut buf)?;
                Packet::Nak {
                    header,
                    body,
                    epoch,
                }
            }
            PacketType::Join => {
                let body = JoinBody::decode(&mut buf)?;
                Packet::Join { header, body }
            }
            PacketType::Welcome => {
                let body = WelcomeBody::decode(&mut buf)?;
                Packet::Welcome { header, body }
            }
            PacketType::Leave => {
                let body = LeaveBody::decode(&mut buf)?;
                Packet::Leave { header, body }
            }
            PacketType::Heartbeat => {
                let body = HeartbeatBody::decode(&mut buf)?;
                Packet::Heartbeat { header, body }
            }
            PacketType::Sync => {
                let body = SyncBody::decode(&mut buf)?;
                Packet::Sync { header, body }
            }
            PacketType::Repair | PacketType::Parity => {
                let body = RepairBody::decode(&mut buf)?;
                // An XOR block with no coded bytes is unencodable: even a
                // zero-length tail chunk pads to the packet size.
                if buf.is_empty() {
                    return Err(WireError::Truncated { need: 1, have: 0 });
                }
                let payload = std::mem::take(&mut buf);
                if header.ptype == PacketType::Repair {
                    Packet::Repair {
                        header,
                        body,
                        payload,
                    }
                } else {
                    Packet::Parity {
                        header,
                        body,
                        payload,
                    }
                }
            }
        };
        // Strict decode: a well-formed body leaves nothing behind. (Data
        // bodies consume the whole buffer above.)
        if !buf.is_empty() {
            return Err(WireError::TrailingGarbage { extra: buf.len() });
        }
        Ok(packet)
    }

    /// The parsed header, whichever variant.
    pub fn header(&self) -> &Header {
        match self {
            Packet::Data { header, .. }
            | Packet::Alloc { header, .. }
            | Packet::Ack { header, .. }
            | Packet::Nak { header, .. }
            | Packet::Join { header, .. }
            | Packet::Welcome { header, .. }
            | Packet::Leave { header, .. }
            | Packet::Heartbeat { header, .. }
            | Packet::Sync { header, .. }
            | Packet::Repair { header, .. }
            | Packet::Parity { header, .. } => header,
        }
    }
}

/// Decode the optional 4-byte epoch trailer on ACK/NAK packets. A group
/// running without membership emits no trailer, so the disabled wire format
/// is byte-identical to the paper's.
fn decode_epoch_tail<B: Buf>(buf: &mut B) -> Result<Option<u32>, WireError> {
    match buf.remaining() {
        0 => Ok(None),
        n if n >= 4 => Ok(Some(buf.get_u32())),
        have => Err(WireError::Truncated { need: 4, have }),
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
    bytes::BufMut::put_u32(&mut buf, crc);
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
        bytes::BufMut::put_u32(&mut buf, epoch);
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

/// Encode a cumulative ACK.
pub fn encode_ack(src_rank: Rank, transfer: u32, next_expected: SeqNo) -> Bytes {
    ack(src_rank, transfer, next_expected, None)
}

/// Encode a NAK for the first missing sequence number.
pub fn encode_nak(src_rank: Rank, transfer: u32, expected: SeqNo) -> Bytes {
    nak(src_rank, transfer, expected, None)
}

/// Encode a cumulative ACK stamped with the membership epoch (used only
/// when membership is enabled; the trailer makes stale-epoch ACKs
/// detectable).
pub fn encode_ack_epoch(src_rank: Rank, transfer: u32, next_expected: SeqNo, epoch: u32) -> Bytes {
    ack(src_rank, transfer, next_expected, Some(epoch))
}

/// Encode an epoch-stamped NAK (membership-enabled counterpart of
/// [`encode_nak`]).
pub fn encode_nak_epoch(src_rank: Rank, transfer: u32, expected: SeqNo, epoch: u32) -> Bytes {
    nak(src_rank, transfer, expected, Some(epoch))
}

/// Encode a cumulative ACK, epoch-stamped when `epoch` is given.
pub(crate) fn ack(
    src_rank: Rank,
    transfer: u32,
    next_expected: SeqNo,
    epoch: Option<u32>,
) -> Bytes {
    let header = Header {
        ptype: PacketType::Ack,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: next_expected,
    };
    encode(header, AckBody::LEN, epoch, |buf| {
        AckBody { next_expected }.encode(buf)
    })
}

/// Encode a NAK, epoch-stamped when `epoch` is given.
pub(crate) fn nak(src_rank: Rank, transfer: u32, expected: SeqNo, epoch: Option<u32>) -> Bytes {
    let header = Header {
        ptype: PacketType::Nak,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: expected,
    };
    encode(header, NakBody::LEN, epoch, |buf| {
        NakBody { expected }.encode(buf)
    })
}

/// Encode an admission request. `last_epoch` is the epoch the joiner last
/// belonged to (zero for a fresh join).
pub fn encode_join(src_rank: Rank, last_epoch: u32) -> Bytes {
    let header = control(PacketType::Join, src_rank);
    encode(header, JoinBody::LEN, None, |buf| {
        JoinBody { last_epoch }.encode(buf)
    })
}

/// Encode the sender's immediate response to a join request.
pub fn encode_welcome(src_rank: Rank, epoch: u32) -> Bytes {
    let header = control(PacketType::Welcome, src_rank);
    encode(header, WelcomeBody::LEN, None, |buf| {
        WelcomeBody { epoch }.encode(buf)
    })
}

/// Encode a voluntary departure announcement.
pub fn encode_leave(src_rank: Rank, epoch: u32) -> Bytes {
    let header = control(PacketType::Leave, src_rank);
    encode(header, LeaveBody::LEN, None, |buf| {
        LeaveBody { epoch }.encode(buf)
    })
}

/// Encode a liveness beacon. The sender's multicast announce carries
/// `Rank::SENDER`; receiver replies carry their own rank.
pub fn encode_heartbeat(src_rank: Rank, epoch: u32) -> Bytes {
    let header = control(PacketType::Heartbeat, src_rank);
    encode(header, HeartbeatBody::LEN, None, |buf| {
        HeartbeatBody { epoch }.encode(buf)
    })
}

/// Encode a reactive coded-repair packet: `payload` is the XOR of the
/// chunks named by `body`, each zero-padded to the transfer's packet size.
pub fn encode_repair(src_rank: Rank, transfer: u32, body: RepairBody, payload: &[u8]) -> Bytes {
    encode_coded(PacketType::Repair, src_rank, transfer, body, payload)
}

/// Encode a proactive parity packet (same body layout as a repair).
pub fn encode_parity(src_rank: Rank, transfer: u32, body: RepairBody, payload: &[u8]) -> Bytes {
    encode_coded(PacketType::Parity, src_rank, transfer, body, payload)
}

fn encode_coded(
    ptype: PacketType,
    src_rank: Rank,
    transfer: u32,
    body: RepairBody,
    payload: &[u8],
) -> Bytes {
    debug_assert!(body.bitmap & 1 == 1, "coded bitmap must be canonical");
    debug_assert!(!payload.is_empty(), "coded payload cannot be empty");
    let header = Header {
        ptype,
        flags: PacketFlags::EMPTY,
        src_rank,
        transfer,
        seq: SeqNo(body.base_seq),
    };
    encode(header, RepairBody::LEN + payload.len(), None, |buf| {
        body.encode(buf);
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

    #[test]
    fn data_round_trip() {
        let b = encode_data(
            Rank(0),
            5,
            SeqNo(9),
            PacketFlags::POLL | PacketFlags::LAST,
            b"hello",
        );
        match Packet::parse(&b).unwrap() {
            Packet::Data { header, body } => {
                assert_eq!(header.transfer, 5);
                assert_eq!(header.seq, SeqNo(9));
                assert!(header.flags.contains(PacketFlags::POLL));
                assert!(header.flags.contains(PacketFlags::LAST));
                assert_eq!(body, b"hello");
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn alloc_round_trip() {
        let body = AllocBody {
            msg_len: 123,
            data_transfer: 6,
            packet_size: 500,
        };
        let b = encode_alloc(Rank(0), 5, PacketFlags::LAST, body);
        match Packet::parse(&b).unwrap() {
            Packet::Alloc { header, body } => {
                assert!(header.flags.contains(PacketFlags::ALLOC));
                assert!(header.flags.contains(PacketFlags::LAST));
                assert_eq!(body.msg_len, 123);
                assert_eq!(body.data_transfer, 6);
                assert_eq!(body.packet_size, 500);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn ack_and_nak_round_trip() {
        let a = encode_ack(Rank(3), 7, SeqNo(100));
        match Packet::parse(&a).unwrap() {
            Packet::Ack {
                header,
                body,
                epoch,
            } => {
                assert_eq!(header.src_rank, Rank(3));
                assert_eq!(body.next_expected, SeqNo(100));
                assert_eq!(epoch, None, "plain ACKs carry no epoch trailer");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let n = encode_nak(Rank(4), 7, SeqNo(55));
        match Packet::parse(&n).unwrap() {
            Packet::Nak {
                header,
                body,
                epoch,
            } => {
                assert_eq!(header.src_rank, Rank(4));
                assert_eq!(body.expected, SeqNo(55));
                assert_eq!(epoch, None);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn epoch_stamped_ack_and_nak_round_trip() {
        let a = encode_ack_epoch(Rank(3), 7, SeqNo(100), 9);
        assert_eq!(
            a.len(),
            encode_ack(Rank(3), 7, SeqNo(100)).len() + 4,
            "epoch trailer adds exactly four bytes"
        );
        match Packet::parse(&a).unwrap() {
            Packet::Ack { body, epoch, .. } => {
                assert_eq!(body.next_expected, SeqNo(100));
                assert_eq!(epoch, Some(9));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let n = encode_nak_epoch(Rank(4), 7, SeqNo(55), 2);
        match Packet::parse(&n).unwrap() {
            Packet::Nak { body, epoch, .. } => {
                assert_eq!(body.expected, SeqNo(55));
                assert_eq!(epoch, Some(2));
            }
            other => panic!("wrong variant: {other:?}"),
        }
        // A ragged trailer (neither absent nor 4 bytes) is rejected.
        let ragged = &a[..a.len() - 2];
        assert!(Packet::parse(ragged).is_err());
    }

    #[test]
    fn membership_packets_round_trip() {
        match Packet::parse(&encode_join(Rank(5), 3)).unwrap() {
            Packet::Join { header, body } => {
                assert_eq!(header.src_rank, Rank(5));
                assert_eq!(body.last_epoch, 3);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match Packet::parse(&encode_welcome(Rank(0), 4)).unwrap() {
            Packet::Welcome { body, .. } => assert_eq!(body.epoch, 4),
            other => panic!("wrong variant: {other:?}"),
        }
        match Packet::parse(&encode_leave(Rank(2), 4)).unwrap() {
            Packet::Leave { header, body } => {
                assert_eq!(header.src_rank, Rank(2));
                assert_eq!(body.epoch, 4);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        match Packet::parse(&encode_heartbeat(Rank(0), 7)).unwrap() {
            Packet::Heartbeat { header, body } => {
                assert_eq!(header.src_rank, Rank::SENDER);
                assert_eq!(body.epoch, 7);
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let sync = SyncBody {
            epoch: 8,
            next_msg: 12,
            next_transfer: 24,
            flags: SyncBody::DETACHED_ROOT,
        };
        match Packet::parse(&encode_sync(Rank(0), sync)).unwrap() {
            Packet::Sync { header, body } => {
                assert_eq!(header.transfer, 24);
                assert_eq!(body.next_msg, 12);
                assert!(body.detached_root());
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn repair_and_parity_round_trip() {
        let body = RepairBody {
            base_seq: 4,
            generation: 2,
            bitmap: 0b101,
        };
        let r = encode_repair(Rank(0), 3, body, b"\x12\x34");
        match Packet::parse(&r).unwrap() {
            Packet::Repair {
                header,
                body: b,
                payload,
            } => {
                assert_eq!(header.transfer, 3);
                assert_eq!(header.seq, SeqNo(4));
                assert_eq!(b, body);
                assert_eq!(payload, b"\x12\x34");
            }
            other => panic!("wrong variant: {other:?}"),
        }
        let p = encode_parity(Rank(0), 3, body, b"\x56");
        match Packet::parse(&p).unwrap() {
            Packet::Parity { payload, .. } => assert_eq!(payload, b"\x56"),
            other => panic!("wrong variant: {other:?}"),
        }
        // Sealed round trip too: the CRC covers the coded payload.
        assert!(Packet::parse_checked(&seal(&r), true).is_ok());
        // Empty coded payload is rejected, not delivered.
        assert!(Packet::parse(&r[..HEADER_LEN + RepairBody::LEN]).is_err());
    }

    #[test]
    fn garbage_rejected() {
        assert!(Packet::parse(&[]).is_err());
        assert!(Packet::parse(&[0xff; 20]).is_err());
        // Valid header but truncated ACK body.
        let full = encode_ack(Rank(1), 1, SeqNo(1));
        assert!(Packet::parse(&full[..HEADER_LEN + 1]).is_err());
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
        let mut j = encode_join(Rank(5), 3).to_vec();
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
                match Packet::parse_checked(&sealed, strict).unwrap() {
                    Packet::Data { header, body } => {
                        assert!(header.flags.contains(PacketFlags::CKSUM));
                        assert_eq!(body, b"payload");
                    }
                    other => panic!("wrong variant: {other:?}"),
                }
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
            encode_ack_epoch(Rank(3), 7, SeqNo(100), 9),
            encode_nak(Rank(4), 7, SeqNo(55)),
            encode_heartbeat(Rank(0), 7),
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
            assert!(Packet::parse_checked(&sealed, true).is_ok());
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
        match Packet::parse(&b).unwrap() {
            Packet::Data { body, .. } => assert!(body.is_empty()),
            other => panic!("wrong variant: {other:?}"),
        }
    }
}
