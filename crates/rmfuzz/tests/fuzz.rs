//! The never-panic / never-hang / bounded-state fuzz suites.
//!
//! Everything here is deterministic: fixed seeds, fixed iteration counts,
//! so a failure reproduces byte-for-byte with `cargo test -p rmfuzz`.

use bytes::Bytes;
use rmcast::{
    packet, Endpoint, OverloadConfig, ProtocolConfig, ProtocolKind, Receiver, Sender, Stats,
};
use rmfuzz::{
    build_corpus, fuzz_decode, CodedAbuseGen, CodedAbuseKind, MutationKind, Mutator, StormGen,
    StormKind,
};
use rmwire::{Duration, GroupSpec, Header, PacketFlags, Rank, SeqNo, Time, HEADER_LEN};
use std::collections::HashSet;

/// The decode-layer workhorse: over a million mutated packets through both
/// parse modes, zero panics, every packet accounted for.
#[test]
fn million_mutated_packets_never_panic_decode() {
    let tally = fuzz_decode(0xD15EA5E, 1_100_000);
    assert_eq!(tally.total(), 1_100_000);
    for &(kind, ok, rejected) in &tally.per_kind {
        // Every kind must actually have been exercised.
        assert!(ok + rejected > 0, "{} never generated", kind.name());
        match kind {
            // Untouched corpus entries decode in plain mode; in strict
            // mode the unsealed half is rejected — so both buckets fill.
            MutationKind::Passthrough => {
                assert!(ok > 0 && rejected > 0, "passthrough split wrong")
            }
            // Random bytes essentially never form a valid packet (a
            // handful in a hundred thousand can — a body-less control
            // packet is just a lucky 12-byte header).
            MutationKind::Garbage => {
                assert!(ok * 1000 < rejected, "garbage decode rate too high: {ok}")
            }
            // Trailing bytes on fixed-size bodies are trailing garbage
            // (rejected); on unsealed data packets they just lengthen the
            // chunk (accepted) — both outcomes must appear.
            MutationKind::Extend => {
                assert!(
                    ok > 0 && rejected > 0,
                    "extend split wrong: {ok}/{rejected}"
                )
            }
            _ => {}
        }
    }
}

/// Every packet type the decoder accepts is in the seed corpus. The set
/// comes from `Header::decode` itself — every type byte it takes — so a
/// new wire type fails here until the corpus encodes one.
#[test]
fn corpus_covers_every_decodable_packet_type() {
    let decodable: Vec<u8> = (0..=u8::MAX)
        .filter(|&ptype| {
            let mut header = [0u8; HEADER_LEN];
            header[0] = ptype;
            Header::decode(&mut &header[..]).is_ok()
        })
        .collect();
    assert!(!decodable.is_empty(), "the decoder accepts no type byte");
    let in_corpus: HashSet<u8> = build_corpus()
        .iter()
        .filter_map(|p| Header::decode(&mut &p[..]).ok())
        .map(|h| h.ptype as u8)
        .collect();
    let missing: Vec<u8> = decodable
        .into_iter()
        .filter(|t| !in_corpus.contains(t))
        .collect();
    assert!(
        missing.is_empty(),
        "packet types {missing:?} are not in the corpus"
    );
}

/// The same seed reproduces the identical mutation stream, byte for byte,
/// across independently constructed mutators — the reproducibility claim
/// CI relies on.
#[test]
fn same_seed_reproduces_stream_byte_for_byte() {
    let mut a = Mutator::new(0xABAD1DEA);
    let mut b = Mutator::new(0xABAD1DEA);
    for i in 0..200_000u32 {
        let (ka, pa) = a.next_packet();
        let (kb, pb) = b.next_packet();
        assert_eq!(ka, kb, "kind diverged at {i}");
        assert_eq!(pa, pb, "bytes diverged at {i}");
    }
    // And the tallies over a full decode run agree too.
    let t1 = fuzz_decode(7, 50_000);
    let t2 = fuzz_decode(7, 50_000);
    assert_eq!(t1.per_kind, t2.per_kind);
}

/// Drive one endpoint with `iters` mutated packets, draining transmits and
/// events and firing due timers, exactly as a host loop would. Returns the
/// final counters. Panics and hangs here are the failures under test.
fn pummel<E: Endpoint>(ep: &mut E, seed: u64, iters: u64) -> Stats {
    let mut m = Mutator::new(seed);
    for i in 0..iters {
        let now = Time::from_micros(i * 50);
        let (_, bytes) = m.next_packet();
        ep.handle_datagram(now, &bytes);
        if ep.poll_timeout().is_some_and(|t| t <= now) {
            ep.handle_timeout(now);
        }
        while ep.poll_transmit().is_some() {}
        while ep.poll_event().is_some() {}
    }
    ep.stats().clone()
}

fn fuzz_cfg(integrity: bool) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 700, 6);
    cfg.integrity = integrity;
    cfg
}

/// Bound on what the receiver may pin while being fuzzed: the mutated
/// ALLOC stream claims large messages, but nothing near the hostile cap
/// should ever materialize from corpus-derived claims (corpus allocations
/// are 200 kB).
const STATE_BOUND: u64 = 1 << 22; // 4 MiB

#[test]
fn live_receiver_survives_mutated_stream() {
    for integrity in [false, true] {
        let mut rx = Receiver::new(fuzz_cfg(integrity), GroupSpec::new(2), Rank(1), 0xF00D);
        let stats = pummel(&mut rx, 0xF00D, 150_000);
        // The stream is mostly invalid: the counters must show the
        // rejections rather than silence.
        assert!(
            stats.decode_errors > 10_000,
            "integrity={integrity}: only {} decode errors",
            stats.decode_errors
        );
        assert!(stats.malformed_rx > 0);
        if integrity {
            assert!(stats.integrity_fail > 0, "no checksum rejections counted");
        }
        // Bounded state: valid-looking fragments must not pin unbounded
        // buffer memory or track unbounded transfers.
        assert!(
            stats.peak_buffer_bytes < STATE_BOUND,
            "integrity={integrity}: receiver pinned {} bytes",
            stats.peak_buffer_bytes
        );
    }
}

#[test]
fn live_sender_survives_mutated_stream() {
    for integrity in [false, true] {
        let mut tx = Sender::new(fuzz_cfg(integrity), GroupSpec::new(2));
        // Give it real work so the fuzz stream lands on live protocol
        // state (in-flight transfer, ACK bookkeeping), not an idle shell.
        tx.send_message(Time::ZERO, Bytes::from(vec![0xAB; 10_000]));
        let stats = pummel(&mut tx, 0xBEEF, 150_000);
        assert!(
            stats.decode_errors > 10_000,
            "integrity={integrity}: only {} decode errors",
            stats.decode_errors
        );
        assert!(
            stats.peak_buffer_bytes < STATE_BOUND,
            "integrity={integrity}: sender pinned {} bytes",
            stats.peak_buffer_bytes
        );
    }
}

/// Blast `iters` well-formed storm packets at `ep`, 10 µs apart (a
/// 100k pkt/s control-plane flood), draining transmits/events and firing
/// due timers. Returns the final counters plus how many of the packets
/// were duplicate-NAK-flood members.
fn storm<E: Endpoint>(ep: &mut E, seed: u64, iters: u64) -> (Stats, u64) {
    let mut g = StormGen::new(seed);
    let mut dup_naks = 0u64;
    for i in 0..iters {
        let now = Time::from_micros(i * 10);
        let (kind, bytes) = g.next_packet();
        if kind == StormKind::DupNak {
            dup_naks += 1;
        }
        ep.handle_datagram(now, &bytes);
        if ep.poll_timeout().is_some_and(|t| t <= now) {
            ep.handle_timeout(now);
        }
        while ep.poll_transmit().is_some() {}
        while ep.poll_event().is_some() {}
    }
    (ep.stats().clone(), dup_naks)
}

/// The storm corpus against a live, overload-hardened sender: a 100k/s
/// flood of duplicate NAKs and stale-epoch ACK/NAK bursts must never
/// panic, must be visibly collapsed and shed rather than processed
/// one-for-one, and must not translate into a retransmission per NAK.
#[test]
fn overloaded_sender_collapses_duplicate_nak_flood() {
    let mut cfg = fuzz_cfg(false);
    cfg.overload = OverloadConfig::adaptive(cfg.window);
    let mut tx = Sender::new(cfg, GroupSpec::new(2));
    tx.send_message(Time::ZERO, Bytes::from(vec![0xAB; 10_000]));
    let (stats, dup_naks) = storm(&mut tx, 0x0057_0124, 200_000);

    assert_eq!(stats.decode_errors, 0, "storm packets are well-formed");
    assert!(
        stats.naks_collapsed > 0,
        "the duplicate-NAK filter never engaged"
    );
    assert!(
        stats.acks_shed + stats.naks_shed > 0,
        "a 100k/s control flood must overrun the 20k/s feedback bucket"
    );
    // The flood must not amplify: far fewer retransmissions than NAKs.
    assert!(
        stats.retx_sent * 20 < dup_naks,
        "{} retransmissions for {dup_naks} flooded NAKs",
        stats.retx_sent
    );
    assert!(stats.peak_buffer_bytes < STATE_BOUND);
}

/// The same storm against the paper-faithful engine (overload OFF): the
/// static retransmission-suppression timer is the only defense, but the
/// never-panic / bounded-state contract must hold all the same.
#[test]
fn paper_faithful_sender_survives_the_same_storm() {
    let mut tx = Sender::new(fuzz_cfg(false), GroupSpec::new(2));
    tx.send_message(Time::ZERO, Bytes::from(vec![0xAB; 10_000]));
    let (stats, _) = storm(&mut tx, 0x0057_0124, 200_000);
    assert_eq!(stats.decode_errors, 0);
    assert_eq!(stats.naks_collapsed + stats.acks_shed + stats.naks_shed, 0);
    assert!(stats.peak_buffer_bytes < STATE_BOUND);
}

/// Receivers hear the same storm (multicast NAKs, stray epoch feedback):
/// never a panic, never a forged delivery, bounded state.
#[test]
fn receiver_survives_feedback_storm() {
    for integrity in [false, true] {
        let mut cfg = fuzz_cfg(integrity);
        cfg.overload = OverloadConfig::adaptive(cfg.window);
        let mut rx = Receiver::new(cfg, GroupSpec::new(2), Rank(1), 0x570);
        let mut g = StormGen::new(0x570);
        for i in 0..150_000u64 {
            let now = Time::from_micros(i * 10);
            let (_, bytes) = g.next_packet();
            rx.handle_datagram(now, &bytes);
            while rx.poll_transmit().is_some() {}
            while let Some(ev) = rx.poll_event() {
                assert!(
                    !matches!(ev, rmcast::AppEvent::MessageDelivered { .. }),
                    "a feedback storm forged a delivery at iteration {i}"
                );
            }
        }
        assert!(rx.stats().peak_buffer_bytes < STATE_BOUND);
    }
}

/// The storm stream is deterministic: CI reproducibility for the suites
/// above.
#[test]
fn storm_stream_is_deterministic() {
    let mut a = StormGen::new(42);
    let mut b = StormGen::new(42);
    for i in 0..100_000u32 {
        assert_eq!(a.next_packet(), b.next_packet(), "diverged at {i}");
    }
    let mut c = StormGen::new(43);
    assert!((0..100).any(|_| a.next_packet() != c.next_packet()));
}

// ----------------------------------------------------------------------
// The fec family: coded REPAIR/PARITY abuse
// ----------------------------------------------------------------------

fn fec_fuzz_cfg(integrity: bool) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(ProtocolKind::fec(4), 64, 8);
    cfg.integrity = integrity;
    cfg
}

/// A fec receiver under the general mutation stream (the corpus now
/// contains coded blocks, so truncated/bit-flipped/spliced REPAIR and
/// PARITY packets land on the live decode path): never a panic, never a
/// forged delivery, bounded state.
#[test]
fn live_fec_receiver_survives_mutated_stream() {
    for integrity in [false, true] {
        let mut rx = Receiver::new(fec_fuzz_cfg(integrity), GroupSpec::new(2), Rank(1), 0xFEC);
        let mut m = Mutator::new(0xFEC);
        for i in 0..150_000u64 {
            let now = Time::from_micros(i * 50);
            let (_, bytes) = m.next_packet();
            rx.handle_datagram(now, &bytes);
            if rx.poll_timeout().is_some_and(|t| t <= now) {
                rx.handle_timeout(now);
            }
            while rx.poll_transmit().is_some() {}
            while let Some(ev) = rx.poll_event() {
                assert!(
                    !matches!(ev, rmcast::AppEvent::MessageDelivered { .. }),
                    "integrity={integrity}: a mutated stream forged a delivery at {i}"
                );
            }
        }
        let stats = rx.stats().clone();
        assert!(stats.decode_errors > 10_000);
        assert!(
            stats.peak_buffer_bytes < STATE_BOUND,
            "integrity={integrity}: fec receiver pinned {} bytes",
            stats.peak_buffer_bytes
        );
    }
}

/// The 1 250-byte message every [`drive_fec_under_abuse`] run transfers.
fn fec_abuse_message() -> Bytes {
    Bytes::from(
        (0..1250u32)
            .map(|i| (i.wrapping_mul(37) >> 3) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Drive one complete fec transfer (sender ↔ one receiver, every third
/// fresh data packet dropped) while `inject` lobs adversarial packets at
/// the receiver each round. Returns `(message, deliveries, sender stats,
/// receiver stats)`; the caller asserts exactly-once, byte-exact delivery
/// — the never-wrong-bytes contract — plus whatever counters the abuse
/// must have tripped.
fn drive_fec_under_abuse(
    integrity: bool,
    mut inject: impl FnMut(&mut Receiver, Time, bool, u64),
) -> (Bytes, Vec<Bytes>, Stats, Stats) {
    let cfg = fec_fuzz_cfg(integrity);
    let spec = GroupSpec::new(1);
    let mut tx = Sender::new(cfg, spec);
    let mut rx = Receiver::new(cfg, spec, Rank(1), 0xC0DE);
    let msg = fec_abuse_message();
    let mut now = Time::ZERO;
    tx.send_message(now, msg.clone());
    let mut delivered = Vec::new();
    let mut saw_seq0 = false;
    for round in 0..50_000u64 {
        while let Some(t) = tx.poll_transmit() {
            let mut drop = false;
            if let Ok(packet::Packet {
                header,
                body: packet::Body::Data(_),
            }) = packet::Packet::parse(&t.payload)
            {
                if header.transfer % 2 == 1 {
                    if header.seq.0 == 0 {
                        saw_seq0 = true;
                    }
                    drop = !header.flags.contains(PacketFlags::RETX) && header.seq.0 % 3 == 2;
                }
            }
            if !drop {
                rx.handle_datagram(now, &t.payload);
            }
        }
        // The data-phase transfer of message 0 has id 1 (odd); chunks are
        // 64 bytes — the abuse stream aims there.
        inject(&mut rx, now, saw_seq0, round);
        while let Some(t) = rx.poll_transmit() {
            tx.handle_datagram(now, &t.payload);
        }
        while let Some(ev) = rx.poll_event() {
            if let rmcast::AppEvent::MessageDelivered { data, .. } = ev {
                delivered.push(data);
            }
        }
        while tx.poll_event().is_some() {}
        if delivered.len() == 1 && tx.stats().messages_completed >= 1 && tx.is_idle() {
            break;
        }
        let next = [tx.poll_timeout(), rx.poll_timeout()]
            .into_iter()
            .flatten()
            .min();
        now = match next {
            Some(t) if t > now => t,
            _ => now + Duration::from_micros(200),
        };
        if tx.poll_timeout().is_some_and(|t| t <= now) {
            tx.handle_timeout(now);
        }
        if rx.poll_timeout().is_some_and(|t| t <= now) {
            rx.handle_timeout(now);
        }
    }
    (msg, delivered, tx.stats().clone(), rx.stats().clone())
}

/// Lying coded blocks against a live lossy transfer: bitmaps claiming
/// held packets with garbage payloads, all-64-bit lies, replays, and the
/// malformed shapes the strict decoder must reject. The delivered bytes
/// must be the sender's exact message — one garbage chunk accepted into
/// the assembly would surface here as a byte mismatch.
#[test]
fn lying_coded_blocks_never_decode_wrong_bytes() {
    for integrity in [false, true] {
        let mut abuse = CodedAbuseGen::new(0xBADC_0DED);
        let (msg, delivered, _tx, rx) = drive_fec_under_abuse(integrity, |rx, now, saw_seq0, _| {
            for _ in 0..3 {
                let (kind, mut bytes) = abuse.next_packet(1, 64);
                // A held-only lie before sequence 0 exists at the receiver
                // would be an honest single-loss decode of garbage — the
                // generator documents this; the harness respects it. The
                // griefing kind gets its own test below.
                if (kind == CodedAbuseKind::HeldOnly && !saw_seq0)
                    || kind == CodedAbuseKind::FutureGeneration
                {
                    continue;
                }
                if integrity {
                    // The attacker can compute CRC-32C; sealing the abuse
                    // gets it past the fail-closed check and onto the
                    // decode path proper.
                    bytes = packet::seal(&bytes).to_vec();
                }
                rx.handle_datagram(now, &bytes);
            }
        });
        assert_eq!(
            delivered.len(),
            1,
            "integrity={integrity}: expected exactly one delivery"
        );
        assert_eq!(
            delivered[0], msg,
            "integrity={integrity}: delivered bytes differ from the message"
        );
        // The abuse stream must actually have been classified, not
        // silently swallowed: lies about held packets are useless, wide
        // and oversized lies undecodable, malformed shapes rejected.
        assert!(rx.repairs_useless > 0, "integrity={integrity}");
        assert!(rx.repairs_undecodable > 0, "integrity={integrity}");
        assert!(rx.repairs_replayed > 0, "integrity={integrity}");
        assert!(rx.malformed_rx > 0, "integrity={integrity}");
        assert!(rx.peak_buffer_bytes < STATE_BOUND);
    }
}

/// Generation griefing: one `u32::MAX` block slams the replay gate shut,
/// so every genuine repair the sender codes afterwards arrives "replayed".
/// The transfer must still complete byte-exact (plain retransmission is
/// the unkillable fallback) — a wedge or a corruption here is the bug.
#[test]
fn generation_griefing_cannot_corrupt_or_wedge() {
    let mut abuse = CodedAbuseGen::new(0x6121);
    let (msg, delivered, tx, rx) = drive_fec_under_abuse(false, |rx, now, _, _| loop {
        let (kind, bytes) = abuse.next_packet(1, 64);
        if kind == CodedAbuseKind::FutureGeneration {
            rx.handle_datagram(now, &bytes);
            break;
        }
    });
    assert_eq!(delivered.len(), 1, "griefed transfer never completed");
    assert_eq!(delivered[0], msg, "griefed transfer delivered wrong bytes");
    // The gate did its job on the attacker's replays; whether the honest
    // sender's repairs also landed behind the slammed gate depends on
    // timing, but none of them may have decoded into the assembly.
    assert!(rx.repairs_replayed > 0);
    assert_eq!(rx.repairs_decoded, 0, "a post-grief block decoded");
    assert!(
        tx.retx_sent > 0,
        "recovery had to ride plain retransmission"
    );
}

/// A copy of a packet the receiver already holds, replayed with LAST set
/// on it: once the transfer's size is known, an inconsistent LAST is
/// ignored — never a panic, never a short delivery. A CRC is not
/// authentication, so the sealed copy reaches the assembly too.
#[test]
fn forged_last_flag_on_a_held_packet_is_ignored() {
    for integrity in [false, true] {
        let chunk = fec_abuse_message().slice(..64);
        let (msg, delivered, _tx, _rx) =
            drive_fec_under_abuse(integrity, |rx, now, saw_seq0, _| {
                if saw_seq0 {
                    let mut forged =
                        packet::encode_data(Rank::SENDER, 1, SeqNo(0), PacketFlags::LAST, &chunk);
                    if integrity {
                        forged = packet::seal(&forged);
                    }
                    rx.handle_datagram(now, &forged);
                }
            });
        assert_eq!(delivered.len(), 1, "integrity={integrity}");
        assert_eq!(delivered[0], msg, "integrity={integrity}");
    }
}

/// Mutated packets must not fool a receiver into delivering: a delivery
/// event from a fuzz stream would be an integrity escape. (The corpus
/// contains no complete message transfer, so any delivery means forged
/// state was trusted.)
#[test]
fn fuzz_stream_never_forges_a_delivery() {
    let mut rx = Receiver::new(fuzz_cfg(true), GroupSpec::new(2), Rank(1), 9);
    let mut m = Mutator::new(0xDEAD);
    for i in 0..100_000u64 {
        let now = Time::from_micros(i * 50);
        let (_, bytes) = m.next_packet();
        rx.handle_datagram(now, &bytes);
        while rx.poll_transmit().is_some() {}
        while let Some(ev) = rx.poll_event() {
            assert!(
                !matches!(ev, rmcast::AppEvent::MessageDelivered { .. }),
                "fuzz stream forged a delivery at iteration {i}"
            );
        }
    }
}
