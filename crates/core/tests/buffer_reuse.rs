//! The receiver's recycled assembly buffer: a delivered message's storage
//! (or one a driver seeded from an earlier run) backs the next transfer
//! only once nobody else holds it, and nothing it held before is ever
//! readable.

use bytes::Bytes;
use proptest::prelude::*;
use rmcast::loopback::Loopback;
use rmcast::packet;
use rmcast::{AppEvent, Endpoint, GroupSpec, ProtocolConfig, ProtocolKind, Receiver, SeqNo, Time};
use rmwire::{AllocBody, PacketFlags, Rank, RepairBody};

/// A payload no two messages share a byte run of.
fn payload(len: usize, salt: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31) ^ salt)
            .collect::<Vec<_>>(),
    )
}

/// Send one message and return its deliveries indexed by receiver.
fn round(net: &mut Loopback, msg: &Bytes) -> Vec<Bytes> {
    net.deliveries.clear();
    net.send_message(msg.clone());
    let out = net.run();
    assert!(out.iter().all(|d| d == msg), "bit-identical delivery");
    let mut by_receiver = std::mem::take(&mut net.deliveries);
    by_receiver.sort_by_key(|(i, _, _)| *i);
    by_receiver.into_iter().map(|(_, _, d)| d).collect()
}

fn ptrs(deliveries: &[Bytes]) -> Vec<*const u8> {
    deliveries.iter().map(|d| d.as_ptr()).collect()
}

#[test]
fn held_message_survives_the_next_assembly() {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(4), 500, 8);
    let mut net = Loopback::new(cfg, 3, 7);
    let (m0, m1) = (payload(10_000, 0x11), payload(10_000, 0xee));
    let held = round(&mut net, &m0);
    let next = round(&mut net, &m1);
    assert_eq!(held.len(), 3);
    for (old, new) in held.iter().zip(&next) {
        assert_eq!(old, &m0, "the application's copy of message 0 is untouched");
        assert_ne!(old.as_ptr(), new.as_ptr(), "a held buffer is never reused");
    }
}

#[test]
fn dropped_message_backs_the_next_assembly() {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(4), 500, 8);
    let mut net = Loopback::new(cfg, 3, 7);
    let first = ptrs(&round(&mut net, &payload(10_000, 1)));
    // Equal, smaller, then larger again (within the first buffer's
    // capacity): every receiver keeps assembling in the same storage.
    for (len, salt) in [(10_000, 2), (4_000, 3), (9_000, 4), (0, 5), (10_000, 6)] {
        let again = ptrs(&round(&mut net, &payload(len, salt)));
        assert_eq!(again, first, "{len}-byte message reuses the dropped buffer");
    }
    // Beyond the capacity a fresh buffer is taken — and recycled in turn.
    let grown = ptrs(&round(&mut net, &payload(50_000, 7)));
    assert_eq!(ptrs(&round(&mut net, &payload(50_000, 8))), grown);
}

/// Drive one receiver through message `msg_id`'s allocation handshake.
fn announce(r: &mut Receiver, msg_id: u32, msg_len: usize, packet_size: usize) {
    let body = AllocBody {
        msg_len: msg_len as u64,
        data_transfer: 2 * msg_id + 1,
        packet_size: packet_size as u32,
    };
    let alloc = packet::encode_alloc(Rank::SENDER, 2 * msg_id, PacketFlags::LAST, body);
    r.handle_datagram(Time::ZERO, &alloc);
}

fn feed(r: &mut Receiver, msg_id: u32, seq: u32, k: u32, chunk: &[u8]) {
    let flags = if seq + 1 == k {
        PacketFlags::LAST
    } else {
        PacketFlags::EMPTY
    };
    let pkt = packet::encode_data(Rank::SENDER, 2 * msg_id + 1, SeqNo(seq), flags, chunk);
    r.handle_datagram(Time::ZERO, &pkt);
}

fn delivered(r: &mut Receiver) -> Bytes {
    match r.poll_event() {
        Some(AppEvent::MessageDelivered { data, .. }) => data,
        other => panic!("expected a delivery, got {other:?}"),
    }
}

#[test]
fn repair_in_a_reused_buffer_ignores_stale_bytes() {
    let cfg = ProtocolConfig::new(ProtocolKind::fec(4), 100, 8);
    let mut r = Receiver::new(cfg, GroupSpec::new(1), Rank(1), 1);
    // Message 0 fills the buffer with 0xff, then the application drops it.
    announce(&mut r, 0, 300, 100);
    for seq in 0..3 {
        feed(&mut r, 0, seq, 3, &[0xff; 100]);
    }
    let stale = delivered(&mut r);
    let storage = stale.as_ptr();
    drop(stale);
    // Message 1 loses packet 1; a repair over {0, 1, 2} restores it. Were
    // the unheld slot's old 0xff bytes readable, the XOR would be wrong.
    let msg = payload(300, 0x42);
    announce(&mut r, 1, 300, 100);
    feed(&mut r, 1, 0, 3, &msg[..100]);
    feed(&mut r, 1, 2, 3, &msg[200..]);
    let xor: Vec<u8> = (0..100)
        .map(|i| msg[i] ^ msg[100 + i] ^ msg[200 + i])
        .collect();
    let body = RepairBody {
        base_seq: 0,
        generation: 1,
        bitmap: 0b111,
    };
    let repair = packet::encode_repair(Rank::SENDER, 3, body, &xor);
    r.handle_datagram(Time::ZERO, &repair);
    assert_eq!(r.stats().repairs_decoded, 1);
    let out = delivered(&mut r);
    assert_eq!(out.as_ptr(), storage, "assembled in the reused buffer");
    assert_eq!(out, msg);
}

#[test]
fn forked_receiver_never_shares_a_reclaimed_buffer() {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(4), 100, 8);
    let mut origin = Receiver::new(cfg, GroupSpec::new(1), Rank(1), 1);
    announce(&mut origin, 0, 200, 100);
    feed(&mut origin, 0, 0, 2, &[1; 100]);
    feed(&mut origin, 0, 1, 2, &[1; 100]);
    drop(delivered(&mut origin));
    // Fork with the spare buffer up for grabs, then run the next message
    // through both worlds with different bytes.
    let mut fork = origin.clone();
    let (a, b) = (payload(200, 0xa0), payload(200, 0x0b));
    for (r, msg) in [(&mut origin, &a), (&mut fork, &b)] {
        announce(r, 1, 200, 100);
        feed(r, 1, 0, 2, &msg[..100]);
        feed(r, 1, 1, 2, &msg[100..]);
    }
    let (out_a, out_b) = (delivered(&mut origin), delivered(&mut fork));
    assert_ne!(out_a.as_ptr(), out_b.as_ptr());
    assert_eq!((out_a, out_b), (a, b));
}

/// A buffer as a previous run's receiver hands it back: `len` bytes of
/// `0xff`, which no payload here contains a run of.
fn handed_back(len: usize) -> Bytes {
    Bytes::from(vec![0xff; len])
}

/// Announce `msg` as message `msg_id` in 100-byte packets and feed it whole.
fn transfer(r: &mut Receiver, msg_id: u32, msg: &[u8]) {
    announce(r, msg_id, msg.len(), 100);
    let k = msg.len().div_ceil(100) as u32;
    for (seq, chunk) in msg.chunks(100).enumerate() {
        feed(r, msg_id, seq as u32, k, chunk);
    }
}

fn nak_receiver() -> Receiver {
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(4), 100, 8);
    Receiver::new(cfg, GroupSpec::new(1), Rank(1), 1)
}

#[test]
fn seeded_spare_backs_the_first_message_and_comes_back() {
    let mut r = nak_receiver();
    let seed = handed_back(300);
    let storage = seed.as_ptr();
    r.seed_spare(seed);
    // Shorter than the seed and not a packet multiple: neither the stale
    // tail nor the short last slot may show.
    let msg = payload(250, 0x5a);
    transfer(&mut r, 0, &msg);
    let out = delivered(&mut r);
    assert_eq!(out.as_ptr(), storage, "assembled in the seeded buffer");
    assert_eq!(out, msg);
    drop(out);
    let back = r.take_spare().expect("the delivered buffer");
    assert_eq!(back.as_ptr(), storage);
    assert_eq!(back, msg);
    assert!(r.take_spare().is_none(), "taken once");
    // With the handle taken, the next message allocates; nothing dangles.
    let next = payload(300, 0x21);
    transfer(&mut r, 1, &next);
    let out = delivered(&mut r);
    assert_ne!(out.as_ptr(), storage, "`back` still owns that storage");
    assert_eq!((out, back), (next, msg));
}

#[test]
fn unused_seed_is_taken_back_untouched() {
    let mut r = nak_receiver();
    let seed = handed_back(64);
    let storage = seed.as_ptr();
    r.seed_spare(seed);
    let back = r.take_spare().expect("the seed");
    assert_eq!(back.as_ptr(), storage);
    assert_eq!(back, handed_back(64));
}

#[test]
fn too_small_seed_is_dropped_for_a_fresh_allocation() {
    let mut r = nak_receiver();
    let seed = handed_back(100);
    let small = seed.as_ptr();
    r.seed_spare(seed);
    let msg = payload(300, 0x33);
    transfer(&mut r, 0, &msg);
    let out = delivered(&mut r);
    // The seed is alive until the new buffer exists, so the two differ.
    assert_ne!(out.as_ptr(), small);
    assert_eq!(out, msg);
    assert_eq!(r.take_spare().expect("the delivered buffer").len(), 300);
}

#[test]
fn seed_held_elsewhere_is_not_reused() {
    let mut r = nak_receiver();
    let held = handed_back(300);
    r.seed_spare(held.clone());
    let msg = payload(300, 0x44);
    transfer(&mut r, 0, &msg);
    let out = delivered(&mut r);
    assert_ne!(
        out.as_ptr(),
        held.as_ptr(),
        "a shared buffer is never reused"
    );
    assert_eq!(out, msg);
    assert_eq!(held, handed_back(300), "the holder's bytes are untouched");
}

#[test]
fn forked_receiver_never_shares_a_seeded_buffer() {
    let mut origin = nak_receiver();
    let seed = handed_back(200);
    let storage = seed.as_ptr();
    origin.seed_spare(seed);
    // Both worlds hold the seed.
    let mut fork = origin.clone();
    let (a, b) = (payload(200, 0xa0), payload(200, 0x0b));
    transfer(&mut origin, 0, &a);
    transfer(&mut fork, 0, &b);
    let (out_a, out_b) = (delivered(&mut origin), delivered(&mut fork));
    // The first world to need it found it shared and let go; the other was
    // by then the only holder and may write into it.
    assert_ne!(out_a.as_ptr(), storage, "shared at the time");
    assert_ne!(out_a.as_ptr(), out_b.as_ptr());
    assert_eq!((out_a, out_b), (a, b));
}

#[test]
fn repair_first_materializes_the_assembly_in_the_seed() {
    let cfg = ProtocolConfig::new(ProtocolKind::fec(4), 100, 8);
    let mut r = Receiver::new(cfg, GroupSpec::new(1), Rank(1), 1);
    let seed = handed_back(300);
    let storage = seed.as_ptr();
    r.seed_spare(seed);
    let msg = payload(300, 0x42);
    let xor: Vec<u8> = (0..100)
        .map(|i| msg[i] ^ msg[100 + i] ^ msg[200 + i])
        .collect();
    let repair = |generation| {
        let body = RepairBody {
            base_seq: 0,
            generation,
            bitmap: 0b111,
        };
        packet::encode_repair(Rank::SENDER, 1, body, &xor)
    };
    announce(&mut r, 0, 300, 100);
    // A block before any data: the repair path builds the assembly (over
    // the seed) and decodes nothing, all three packets being missing.
    r.handle_datagram(Time::ZERO, &repair(1));
    assert_eq!(r.stats().repairs_decoded, 0);
    feed(&mut r, 0, 0, 3, &msg[..100]);
    feed(&mut r, 0, 2, 3, &msg[200..]);
    // Were the unheld slot's 0xff seed bytes readable, the XOR would be
    // wrong.
    r.handle_datagram(Time::ZERO, &repair(2));
    assert_eq!(r.stats().repairs_decoded, 1);
    let out = delivered(&mut r);
    assert_eq!(out.as_ptr(), storage, "assembled in the seeded buffer");
    assert_eq!(out, msg);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Back-to-back messages of arbitrary sizes through recycled buffers,
    /// out-of-order assembly and XOR repair under loss: every delivery is
    /// the payload that was sent, whatever the buffer held before.
    #[test]
    fn fec_deliveries_match_payloads_across_reuse(
        sizes in proptest::collection::vec(0usize..6_000, 2..7),
        loss in 0.0f64..0.10,
        seed in any::<u64>(),
    ) {
        let cfg = ProtocolConfig::new(ProtocolKind::fec(4), 256, 8);
        let mut net = Loopback::new(cfg, 3, seed).with_loss(loss);
        for (i, &len) in sizes.iter().enumerate() {
            let msg = payload(len, i as u8 ^ 0xc3);
            net.deliveries.clear();
            net.send_message(msg.clone());
            let out = net.run();
            prop_assert_eq!(out.len(), 3);
            for d in &out {
                prop_assert_eq!(d, &msg);
            }
        }
    }
}
