//! Payload-integrity end-to-end: with `ProtocolConfig::integrity` every
//! packet carries a CRC-32C trailer, and corrupted bytes reaching the
//! decode path (the loopback's byzantine corruption fault, unlike loss
//! which models FCS drops) are detected, counted and dropped — delivery
//! stays exactly-once and bit-intact for every protocol family.

use bytes::Bytes;
use proptest::prelude::*;
use rmcast::loopback::Loopback;
use rmcast::packet::{self, Packet};
use rmcast::{Faults, ProtocolConfig, ProtocolKind};
use rmwire::{AllocBody, PacketFlags, PacketType, Rank, RepairBody, SeqNo, SyncBody};

fn payload(len: usize, tag: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(37).wrapping_add(tag))
            .collect::<Vec<u8>>(),
    )
}

fn families(n: u16) -> Vec<ProtocolKind> {
    vec![
        ProtocolKind::Ack,
        ProtocolKind::nak_polling(4),
        ProtocolKind::Ring,
        ProtocolKind::flat_tree((n as usize).div_ceil(2)),
    ]
}

fn integrity_cfg(kind: ProtocolKind, n: u16) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(kind, 700, 6);
    if matches!(kind, ProtocolKind::Ring) {
        cfg.window = n as usize + 2;
    }
    cfg.integrity = true;
    cfg
}

#[test]
fn all_families_bit_intact_under_corruption() {
    let n = 4u16;
    for kind in families(n) {
        let cfg = integrity_cfg(kind, n);
        let mut net = Loopback::new(cfg, n, 0xC0FFEE).with_faults(Faults {
            loss: 0.05,
            corrupt: 0.10,
            ..Faults::default()
        });
        let msg = payload(20_000, 7);
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), n as usize, "{kind:?}: wrong delivery count");
        for d in &out {
            assert_eq!(d, &msg, "{kind:?}: delivered bytes not bit-intact");
        }
        // The corruption fault fired on a 20 kB message split into ~30
        // packets with p=0.10 per copy: the integrity check must have
        // caught flips somewhere in the group. (Flips hitting the header
        // can surface as malformed instead — count both.)
        let caught: u64 = (0..n as usize)
            .map(|i| {
                let s = net.receiver_stats(i);
                s.integrity_fail + s.malformed_rx
            })
            .sum::<u64>()
            + net.sender_stats().integrity_fail
            + net.sender_stats().malformed_rx;
        assert!(caught > 0, "{kind:?}: no corrupted packet was ever caught");
    }
}

#[test]
fn unsealed_packets_rejected_under_integrity() {
    // An attacker replaying legacy (unsealed) encodings into an
    // integrity-enforcing group gets counted and dropped.
    let cfg = integrity_cfg(ProtocolKind::Ack, 2);
    let mut net = Loopback::new(cfg, 2, 42);
    let forged = packet::encode_data(Rank(0), 0, SeqNo(0), PacketFlags::LAST, b"evil");
    net.inject(Some(0), &forged);
    assert_eq!(net.receiver_stats(0).integrity_fail, 1);
    assert_eq!(net.receiver_stats(0).decode_errors, 1);
    // A forged unsealed ACK at the sender likewise.
    let ack = packet::encode_ack(Rank(1), 0, SeqNo(5));
    net.inject(None, &ack);
    assert_eq!(net.sender_stats().integrity_fail, 1);
    // The group still works afterwards.
    let msg = payload(3_000, 1);
    net.send_message(msg.clone());
    let out = net.run();
    assert_eq!(out.len(), 2);
    assert!(out.iter().all(|d| d == &msg));
}

#[test]
fn garbage_counted_as_malformed() {
    // Without integrity enforcement, structural garbage lands in
    // malformed_rx (the strict-decode audits).
    let cfg = ProtocolConfig::new(ProtocolKind::Ack, 700, 6);
    let mut net = Loopback::new(cfg, 1, 7);
    net.inject(Some(0), &[0x0bu8; 40]); // bad packet type, no CKSUM bit
    net.inject(Some(0), &[1u8, 2, 3]); // runt
    let mut trailing = packet::encode_membership(PacketType::Join, Rank(1), 0).to_vec();
    trailing.push(0xee); // trailing garbage
    net.inject(Some(0), &trailing);
    assert_eq!(net.receiver_stats(0).malformed_rx, 3);
    assert_eq!(net.receiver_stats(0).decode_errors, 3);
    assert_eq!(net.receiver_stats(0).integrity_fail, 0);

    // With enforcement, garbage that happens to carry the CKSUM bit is an
    // integrity failure (its trailer cannot match); a runt stays malformed.
    let cfg = integrity_cfg(ProtocolKind::Ack, 1);
    let mut net = Loopback::new(cfg, 1, 7);
    net.inject(Some(0), &[0xffu8; 40]); // flag byte carries CKSUM
    net.inject(Some(0), &[1u8, 2, 3]);
    assert_eq!(net.receiver_stats(0).integrity_fail, 1);
    assert_eq!(net.receiver_stats(0).malformed_rx, 1);
    assert_eq!(net.receiver_stats(0).decode_errors, 2);
}

#[test]
fn hostile_alloc_claims_are_capped() {
    // A forged ALLOC claiming a multi-exabyte message must never size a
    // buffer: the claim is counted as malformed and the announced data
    // transfer stays unsized (so its data is discarded, not allocated).
    let cfg = ProtocolConfig::new(ProtocolKind::Ack, 700, 6);
    let mut net = Loopback::new(cfg, 1, 3);
    let evil = packet::encode_alloc(
        Rank(0),
        2,
        PacketFlags::EMPTY,
        AllocBody {
            msg_len: u64::MAX,
            data_transfer: 3,
            packet_size: 700,
        },
    );
    net.inject(Some(0), &evil);
    assert_eq!(net.receiver_stats(0).malformed_rx, 1);

    // A modest msg_len hiding an absurd packet count (tiny packet_size)
    // is equally rejected — it would inflate the receive bitmap instead.
    let sly = packet::encode_alloc(
        Rank(0),
        4,
        PacketFlags::EMPTY,
        AllocBody {
            msg_len: 1 << 27,
            data_transfer: 5,
            packet_size: 1,
        },
    );
    net.inject(Some(0), &sly);
    assert_eq!(net.receiver_stats(0).malformed_rx, 2);

    // Data for the poisoned transfers cannot be sized: discarded without
    // ever allocating (buffer gauge stays at zero).
    for transfer in [3u32, 5] {
        let chunk = packet::encode_data(Rank(0), transfer, SeqNo(0), PacketFlags::EMPTY, b"x");
        net.inject(Some(0), &chunk);
    }
    assert_eq!(net.receiver_stats(0).peak_buffer_bytes, 0);
}

#[test]
fn membership_with_integrity_survives_corruption() {
    let mut cfg = integrity_cfg(ProtocolKind::Ack, 3);
    cfg.membership = true;
    let mut net = Loopback::new(cfg, 3, 99).with_faults(Faults {
        corrupt: 0.05,
        ..Faults::default()
    });
    for round in 0u8..3 {
        let msg = payload(5_000, round);
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), 3, "round {round}");
        assert!(out.iter().all(|d| d == &msg), "round {round}: bytes differ");
    }
}

/// One output of each of the thirteen `packet::encode_*`, freshly encoded
/// so that each is the only handle to its storage.
fn one_of_each_encoder() -> Vec<Bytes> {
    let coded = RepairBody {
        base_seq: 4,
        generation: 2,
        bitmap: 0b101,
    };
    let alloc = AllocBody {
        msg_len: 123,
        data_transfer: 6,
        packet_size: 500,
    };
    let sync = SyncBody {
        epoch: 8,
        next_msg: 12,
        next_transfer: 24,
        flags: SyncBody::DETACHED_ROOT,
    };
    vec![
        packet::encode_data(Rank(0), 5, SeqNo(9), PacketFlags::POLL, &payload(700, 3)),
        packet::encode_alloc(Rank(0), 5, PacketFlags::LAST, alloc),
        packet::encode_ack(Rank(3), 7, SeqNo(100)),
        packet::nak(Rank(4), 7, SeqNo(55), None),
        packet::ack(Rank(3), 7, SeqNo(100), Some(9)),
        packet::nak(Rank(4), 7, SeqNo(55), Some(2)),
        packet::encode_membership(PacketType::Join, Rank(5), 3),
        packet::encode_membership(PacketType::Welcome, Rank(0), 4),
        packet::encode_membership(PacketType::Leave, Rank(2), 4),
        packet::encode_membership(PacketType::Heartbeat, Rank(0), 7),
        packet::encode_coded(PacketType::Repair, Rank(0), 3, coded, &payload(700, 5)),
        packet::encode_coded(PacketType::Parity, Rank(0), 3, coded, &payload(700, 6)),
        packet::encode_sync(Rank(0), sync),
    ]
}

/// `seal_in_place` on a sole handle: the bytes `seal` produces, at the
/// address the packet was encoded at.
fn assert_sealed_where_it_lay(p: Bytes) {
    let reference = packet::seal(&p);
    let ptr = p.as_ptr();
    let sealed = packet::seal_in_place(p);
    assert_eq!(sealed, reference);
    assert_eq!(sealed.as_ptr(), ptr, "the sole-handle path copied");
    assert!(Packet::parse_checked(&sealed, true).is_ok());
}

#[test]
fn every_encoder_seals_in_place_to_the_bytes_seal_makes() {
    let packets = one_of_each_encoder();
    assert_eq!(packets.len(), 13);
    for p in packets {
        assert_sealed_where_it_lay(p);
    }
}

proptest! {
    #[test]
    fn data_bodies_seal_in_place_to_the_bytes_seal_makes(
        body in proptest::collection::vec(any::<u8>(), 0..=9_000),
    ) {
        assert_sealed_where_it_lay(packet::encode_data(
            Rank(0),
            1,
            SeqNo(2),
            PacketFlags::EMPTY,
            &body,
        ));
    }
}

/// Storage somebody else can read, or with no room for the trailer, is
/// copied, never written: the result is still `seal`'s, at a new address,
/// and the other handle reads what it read before — flag byte included.
#[test]
fn seal_in_place_copies_rather_than_write_through_shared_or_full_storage() {
    for p in one_of_each_encoder() {
        let reference = packet::seal(&p);
        let before = p.to_vec();
        assert_eq!(before[1] & PacketFlags::CKSUM.bits(), 0);

        let other = p.clone();
        let sealed = packet::seal_in_place(p);
        assert_eq!(sealed, reference);
        assert_ne!(sealed.as_ptr(), other.as_ptr());
        assert_eq!(other, before, "a shared packet was written through");

        // The only handle, but to a buffer exactly as long as the packet.
        let exact = Bytes::from(before.clone());
        let ptr = exact.as_ptr();
        let sealed = packet::seal_in_place(exact);
        assert_eq!(sealed, reference);
        assert_ne!(sealed.as_ptr(), ptr);
        assert!(Packet::parse_checked(&sealed, true).is_ok());
    }
}
