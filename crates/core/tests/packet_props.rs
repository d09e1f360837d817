//! Property tests over every fixed-layout packet type: arbitrary field
//! values round-trip through the encoder and [`Packet::parse`], and every
//! strict prefix of the encoding is refused with a typed
//! [`WireError::Truncated`] — except the prefix that drops an ACK/NAK's
//! whole epoch trailer, which is the same packet unstamped.

use proptest::prelude::*;
use proptest::TestCaseError;
use rmcast::packet::{self, Body, Packet};
use rmwire::{
    AllocBody, Header, PacketFlags, PacketType, Rank, RepairBody, SeqNo, SyncBody, WireError,
    HEADER_LEN,
};

/// `wire` parses as `expected`, and each prefix shorter than `fixed` bytes
/// (the whole packet when `fixed` is `None`) is refused as truncated — but
/// for the one that drops an epoch trailer, which parses as `unstamped`.
fn check(
    wire: &[u8],
    expected: Packet<'_>,
    fixed: Option<usize>,
    unstamped: Option<Packet<'_>>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(Packet::parse(wire), Ok(expected));
    for cut in 0..fixed.unwrap_or(wire.len()) {
        let got = Packet::parse(&wire[..cut]);
        match &unstamped {
            Some(p) if cut == wire.len() - 4 => prop_assert_eq!(got, Ok(p.clone())),
            _ => prop_assert!(
                matches!(got, Err(WireError::Truncated { .. })),
                "prefix of {} bytes gave {:?}",
                cut,
                got
            ),
        }
    }
    Ok(())
}

fn header(ptype: PacketType, flags: PacketFlags, src: u16, transfer: u32, seq: u32) -> Header {
    Header {
        ptype,
        flags,
        src_rank: Rank(src),
        transfer,
        seq: SeqNo(seq),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn alloc_round_trips_and_refuses_prefixes(
        src in any::<u16>(),
        transfer in any::<u32>(),
        flags in 0u8..8,
        msg_len in any::<u64>(),
        data_transfer in any::<u32>(),
        packet_size in 1u32..u32::MAX,
    ) {
        let flags = PacketFlags::from_bits(flags).unwrap();
        let alloc = AllocBody { msg_len, data_transfer, packet_size };
        let wire = packet::encode_alloc(Rank(src), transfer, flags, alloc);
        let header = header(PacketType::Data, flags | PacketFlags::ALLOC, src, transfer, 0);
        check(&wire, Packet { header, body: Body::Alloc(alloc) }, None, None)?;
    }

    #[test]
    fn ack_and_nak_round_trip_and_refuse_prefixes(
        src in any::<u16>(),
        transfer in any::<u32>(),
        seq in any::<u32>(),
        epoch in any::<u32>(),
    ) {
        let (rank, next) = (Rank(src), SeqNo(seq));
        let ack = |epoch| Packet {
            header: header(PacketType::Ack, PacketFlags::EMPTY, src, transfer, seq),
            body: Body::Ack { next_expected: next, epoch },
        };
        let nak = |epoch| Packet {
            header: header(PacketType::Nak, PacketFlags::EMPTY, src, transfer, seq),
            body: Body::Nak { expected: next, epoch },
        };
        check(&packet::ack(rank, transfer, next, None), ack(None), None, None)?;
        check(&packet::nak(rank, transfer, next, None), nak(None), None, None)?;
        let wire = packet::ack(rank, transfer, next, Some(epoch));
        check(&wire, ack(Some(epoch)), None, Some(ack(None)))?;
        let wire = packet::nak(rank, transfer, next, Some(epoch));
        check(&wire, nak(Some(epoch)), None, Some(nak(None)))?;
    }

    #[test]
    fn membership_packets_round_trip_and_refuse_prefixes(
        src in any::<u16>(),
        epoch in any::<u32>(),
    ) {
        for (ptype, body) in [
            (PacketType::Join, Body::Join { last_epoch: epoch }),
            (PacketType::Welcome, Body::Welcome { epoch }),
            (PacketType::Leave, Body::Leave { epoch }),
            (PacketType::Heartbeat, Body::Heartbeat { epoch }),
        ] {
            let wire = packet::encode_membership(ptype, Rank(src), epoch);
            let header = header(ptype, PacketFlags::EMPTY, src, 0, 0);
            check(&wire, Packet { header, body }, None, None)?;
        }
    }

    #[test]
    fn sync_round_trips_and_refuses_prefixes(
        src in any::<u16>(),
        epoch in any::<u32>(),
        next_msg in any::<u64>(),
        next_transfer in any::<u32>(),
        detached in any::<bool>(),
    ) {
        let flags = if detached { SyncBody::DETACHED_ROOT } else { 0 };
        let sync = SyncBody { epoch, next_msg, next_transfer, flags };
        let wire = packet::encode_sync(Rank(src), sync);
        let header = header(PacketType::Sync, PacketFlags::EMPTY, src, next_transfer, 0);
        check(&wire, Packet { header, body: Body::Sync(sync) }, None, None)?;
    }

    /// The coded header is fixed; the XOR payload after it is not, so only
    /// the prefixes that cut into the header or leave no payload are
    /// refused.
    #[test]
    fn coded_blocks_round_trip_and_refuse_prefixes(
        src in any::<u16>(),
        transfer in any::<u32>(),
        parity in any::<bool>(),
        base_seq in any::<u32>(),
        generation in any::<u32>(),
        bitmap in any::<u64>(),
        payload in proptest::collection::vec(any::<u8>(), 1..40),
    ) {
        // Canonical: bit 0 set, and the whole set inside sequence space.
        let bitmap = bitmap | 1;
        let base_seq = base_seq.min(u32::MAX - (63 - bitmap.leading_zeros()));
        let block = RepairBody { base_seq, generation, bitmap };
        let ptype = if parity { PacketType::Parity } else { PacketType::Repair };
        let wire = packet::encode_coded(ptype, Rank(src), transfer, block, &payload);
        let header = header(ptype, PacketFlags::EMPTY, src, transfer, base_seq);
        let body = Body::Coded { block, payload: &payload };
        check(&wire, Packet { header, body }, Some(HEADER_LEN + RepairBody::LEN + 1), None)?;
    }
}
