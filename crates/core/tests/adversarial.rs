//! Hardening: endpoints must never panic or corrupt state when fed
//! arbitrary, hostile, or nonsensical (but well-formed) packets.

use bytes::Bytes;
use proptest::prelude::*;
use rmcast::packet;
use rmcast::{
    Endpoint, GroupSpec, ProtocolConfig, ProtocolKind, Rank, Receiver, Sender, SeqNo, Time,
};
use rmwire::PacketFlags;

fn drain<E: Endpoint>(e: &mut E) {
    while e.poll_transmit().is_some() {}
    while e.poll_event().is_some() {}
}

/// A structured-but-arbitrary packet generator: valid encodings with
/// arbitrary field values.
fn arb_packet() -> impl Strategy<Value = Bytes> {
    let flags = 0u8..16;
    prop_oneof![
        // Data with arbitrary transfer/seq/flags/payload.
        (
            any::<u16>(),
            any::<u32>(),
            any::<u32>(),
            flags.clone(),
            proptest::collection::vec(any::<u8>(), 0..200)
        )
            .prop_map(|(rank, transfer, seq, fl, body)| {
                packet::encode_data(
                    Rank(rank),
                    transfer,
                    SeqNo(seq),
                    PacketFlags::from_bits(fl & 0x07).unwrap(), // not ALLOC
                    &body,
                )
            }),
        // Alloc with arbitrary size claims.
        (
            any::<u16>(),
            any::<u32>(),
            any::<u64>(),
            any::<u32>(),
            1u32..65_000
        )
            .prop_map(|(rank, transfer, msg_len, data_transfer, ps)| {
                packet::encode_alloc(
                    Rank(rank),
                    transfer,
                    PacketFlags::LAST,
                    rmwire::AllocBody {
                        // Stay under the receiver's hostile-allocation cap
                        // so these packets exercise the *accept* path; the
                        // over-cap rejection has its own test (integrity.rs).
                        msg_len: msg_len % 1_000_000,
                        data_transfer,
                        packet_size: ps,
                    },
                )
            }),
        // Acks and naks with arbitrary values.
        (any::<u16>(), any::<u32>(), any::<u32>()).prop_map(|(r, t, ne)| packet::encode_ack(
            Rank(r),
            t,
            SeqNo(ne)
        )),
        (any::<u16>(), any::<u32>(), any::<u32>()).prop_map(|(r, t, e)| packet::nak(
            Rank(r),
            t,
            SeqNo(e),
            None
        )),
        // Raw garbage.
        proptest::collection::vec(any::<u8>(), 0..64).prop_map(Bytes::from),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sender survives any packet stream.
    #[test]
    fn sender_never_panics(
        packets in proptest::collection::vec(arb_packet(), 1..40),
        kind in 0usize..4,
    ) {
        let kind = [
            ProtocolKind::Ack,
            ProtocolKind::nak_polling(3),
            ProtocolKind::Ring,
            ProtocolKind::flat_tree(2),
        ][kind];
        let mut cfg = ProtocolConfig::new(kind, 500, 8);
        if matches!(kind, ProtocolKind::Ring) {
            cfg.window = 6;
        }
        let mut s = Sender::new(cfg, GroupSpec::new(4));
        s.send_message(Time::ZERO, Bytes::from(vec![1u8; 2_000]));
        drain(&mut s);
        for (i, p) in packets.iter().enumerate() {
            s.handle_datagram(Time::from_micros(i as u64), p);
            drain(&mut s);
        }
        // Timers still sane.
        if let Some(d) = s.poll_timeout() {
            s.handle_timeout(d);
        }
        drain(&mut s);
    }

    /// The receiver survives any packet stream.
    #[test]
    fn receiver_never_panics(
        packets in proptest::collection::vec(arb_packet(), 1..40),
        kind in 0usize..4,
        rank in 1u16..=4,
    ) {
        let kind = [
            ProtocolKind::Ack,
            ProtocolKind::nak_polling(3),
            ProtocolKind::Ring,
            ProtocolKind::flat_tree(2),
        ][kind];
        let mut cfg = ProtocolConfig::new(kind, 500, 8);
        if matches!(kind, ProtocolKind::Ring) {
            cfg.window = 6;
        }
        let mut r = Receiver::new(cfg, GroupSpec::new(4), Rank(rank), 7);
        for (i, p) in packets.iter().enumerate() {
            r.handle_datagram(Time::from_micros(i as u64), p);
            drain(&mut r);
        }
        if let Some(d) = r.poll_timeout() {
            r.handle_timeout(d);
        }
        drain(&mut r);
    }

    /// Hostile interference does not break a legitimate transfer: inject
    /// arbitrary packets into every endpoint mid-transfer and the message
    /// still arrives intact everywhere.
    ///
    /// One caveat is inherent to the paper's protocol (no authentication):
    /// a forged ACK claiming receipt can complete the sender spuriously,
    /// and forged data with the right transfer id can corrupt a payload.
    /// We therefore restrict injected data/acks to *foreign* transfer ids,
    /// which the protocol must ignore — trust-boundary enforcement beyond
    /// that is out of scope for a LAN protocol of this era.
    #[test]
    fn interference_does_not_corrupt_delivery(
        noise in proptest::collection::vec(arb_packet(), 0..30),
        targets in proptest::collection::vec(0usize..3, 0..30),
        seed in any::<u64>(),
    ) {
        use rmcast::loopback::Loopback;
        let cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 8);
        let mut net = Loopback::new(cfg, 2, seed);
        let msg = Bytes::from((0..3_000u32).map(|i| i as u8).collect::<Vec<_>>());
        net.send_message(msg.clone());
        for (p, t) in noise.iter().zip(targets.iter()) {
            // Steer clear of the live transfer ids 0 and 1 (see above).
            if let Ok(pkt) = rmcast::packet::Packet::parse(p) {
                if pkt.header.transfer < 100 {
                    continue;
                }
            }
            let target = match t {
                0 => None,
                i => Some(i - 1),
            };
            net.inject(target, p);
        }
        let out = net.run();
        prop_assert_eq!(out.len(), 2);
        for d in out {
            prop_assert_eq!(&d, &msg);
        }
    }
}
