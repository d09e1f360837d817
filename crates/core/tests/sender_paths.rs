//! Focused sender-side paths: pacing deadlines, selective-repeat
//! retransmission, destination selection, and timer interactions.

use bytes::Bytes;
use rmcast::packet::{self, Body, Packet};
use rmcast::{
    Dest, Endpoint, GroupSpec, ProtocolConfig, ProtocolKind, Sender, SeqNo, Time, WindowDiscipline,
};
use rmwire::{PacketFlags, Rank};

fn no_handshake(kind: ProtocolKind) -> ProtocolConfig {
    let mut c = ProtocolConfig::new(kind, 100, 4);
    c.handshake = false;
    c
}

fn drain(s: &mut Sender) -> Vec<rmcast::Transmit> {
    std::iter::from_fn(|| s.poll_transmit()).collect()
}

fn ack(s: &mut Sender, now: Time, rank: u16, transfer: u32, ne: u32) {
    s.handle_datagram(now, &packet::encode_ack(Rank(rank), transfer, SeqNo(ne)));
}

#[test]
fn pacing_gates_fresh_packets_and_sets_timer() {
    let mut c = no_handshake(ProtocolKind::nak_polling(4));
    c.window = 10;
    // 100-byte packets at 100 kB/s: one packet per millisecond.
    c.rate_limit_bytes_per_sec = Some(100_000);
    let mut s = Sender::new(c, GroupSpec::new(1));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 1_000]));
    assert_eq!(drain(&mut s).len(), 1, "pacer admits one packet at t=0");
    let deadline = s.poll_timeout().expect("pacing deadline armed");
    assert_eq!(deadline.as_nanos(), 1_000_000, "next packet at +1 ms");
    // Firing the timer releases exactly the next packet.
    s.handle_timeout(deadline);
    assert_eq!(drain(&mut s).len(), 1);
    // And the gate moved again.
    assert_eq!(s.poll_timeout().unwrap().as_nanos(), 2_000_000);
}

#[test]
fn pacing_does_not_interfere_once_window_is_full() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.window = 2;
    c.rate_limit_bytes_per_sec = Some(100_000_000); // 1 us per 100-byte packet
    let mut s = Sender::new(c, GroupSpec::new(1));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 1_000]));
    // Even a fast pacer admits only one packet at t=0.
    assert_eq!(drain(&mut s).len(), 1);
    let gate = s.poll_timeout().unwrap();
    assert_eq!(gate.as_nanos(), 1_000, "pacing wake-up at +1 us");
    s.handle_timeout(gate);
    assert_eq!(drain(&mut s).len(), 1, "second packet fills the window");
    // Window is now the limiter: the armed timer is the retransmission
    // deadline, not a pacing wake-up.
    let t = s.poll_timeout().unwrap();
    assert_eq!(t, Time::ZERO + c.rto);
}

#[test]
fn sr_nak_retransmits_exactly_one_packet() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.discipline = WindowDiscipline::SelectiveRepeat;
    c.window = 4;
    let mut s = Sender::new(c, GroupSpec::new(1));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 400]));
    assert_eq!(drain(&mut s).len(), 4);
    let nak = packet::nak(Rank(1), 1, SeqNo(2), None);
    s.handle_datagram(Time::from_millis(20), &nak);
    let retx = drain(&mut s);
    assert_eq!(retx.len(), 1, "selective repeat resends only the NAKed seq");
    match Packet::parse(&retx[0].payload).unwrap() {
        Packet {
            header,
            body: Body::Data(_),
        } => {
            assert_eq!(header.seq, SeqNo(2));
            assert!(header.flags.contains(PacketFlags::RETX));
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn sr_timeout_retransmits_every_expired_packet() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.discipline = WindowDiscipline::SelectiveRepeat;
    c.window = 4;
    let mut s = Sender::new(c, GroupSpec::new(1));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 400]));
    let _ = drain(&mut s);
    // Partial coverage: packets 0-1 acked, 2-3 outstanding.
    ack(&mut s, Time::ZERO, 1, 1, 2);
    let deadline = s.poll_timeout().unwrap();
    s.handle_timeout(deadline);
    let retx = drain(&mut s);
    let seqs: Vec<u32> = retx
        .iter()
        .map(|t| Packet::parse(&t.payload).unwrap().header.seq.0)
        .collect();
    assert_eq!(seqs, vec![2, 3], "all expired outstanding packets resent");
}

#[test]
fn unicast_retx_goes_to_the_naker_only() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.unicast_retx_on_nak = true;
    let mut s = Sender::new(c, GroupSpec::new(3));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 200]));
    let fresh = drain(&mut s);
    assert!(fresh.iter().all(|t| t.dest == Dest::Receivers));
    let nak = packet::nak(Rank(2), 1, SeqNo(0), None);
    s.handle_datagram(Time::from_millis(20), &nak);
    let retx = drain(&mut s);
    assert!(!retx.is_empty());
    assert!(
        retx.iter().all(|t| t.dest == Dest::Rank(Rank(2))),
        "retransmissions go to the NAKing rank"
    );
}

#[test]
fn timeout_retx_stays_multicast_even_with_unicast_option() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.unicast_retx_on_nak = true;
    let mut s = Sender::new(c, GroupSpec::new(3));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 200]));
    let _ = drain(&mut s);
    let deadline = s.poll_timeout().unwrap();
    s.handle_timeout(deadline);
    let retx = drain(&mut s);
    assert!(!retx.is_empty());
    assert!(
        retx.iter().all(|t| t.dest == Dest::Receivers),
        "the sender cannot know who timed out; timeouts multicast"
    );
}

#[test]
fn ring_sender_ignores_acks_from_outside_and_releases_by_revolution() {
    let mut c = ProtocolConfig::new(ProtocolKind::Ring, 100, 6);
    c.handshake = false;
    let mut s = Sender::new(c, GroupSpec::new(4));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 1_200])); // 12 packets
    assert_eq!(drain(&mut s).len(), 6);
    // Token acks 0..4 from the right receivers: prefix 5, release 1.
    for (rank, ne) in [(1u16, 1u32), (2, 2), (3, 3), (4, 4), (1, 5)] {
        ack(&mut s, Time::ZERO, rank, 1, ne);
    }
    assert_eq!(drain(&mut s).len(), 1, "released 5 - 4 = 1 packet");
    assert_eq!(s.stats().acks_received, 5);
}

#[test]
fn sender_survives_ack_flood_from_unknown_ranks() {
    let mut s = Sender::new(no_handshake(ProtocolKind::Ack), GroupSpec::new(2));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 100]));
    let _ = drain(&mut s);
    for r in 3..100u16 {
        ack(&mut s, Time::ZERO, r, 1, 1);
    }
    assert!(
        s.poll_event().is_none(),
        "out-of-group acks must not complete"
    );
    ack(&mut s, Time::ZERO, 1, 1, 1);
    ack(&mut s, Time::ZERO, 2, 1, 1);
    assert!(s.poll_event().is_some());
}

#[test]
fn sender_idles_between_queued_messages_never() {
    // Submitting three messages yields continuous transfers with strictly
    // increasing transfer ids and no idle gaps.
    let mut s = Sender::new(no_handshake(ProtocolKind::Ack), GroupSpec::new(1));
    for i in 0..3 {
        s.send_message(Time::ZERO, Bytes::from(vec![i as u8; 100]));
    }
    let mut transfers_seen = Vec::new();
    for _ in 0..3 {
        let out = drain(&mut s);
        assert_eq!(out.len(), 1);
        let t = Packet::parse(&out[0].payload).unwrap().header.transfer;
        transfers_seen.push(t);
        ack(&mut s, Time::ZERO, 1, t, 1);
    }
    assert_eq!(transfers_seen, vec![1, 3, 5]);
    assert!(s.is_idle());
}

#[test]
fn stats_copy_accounting_excludes_retransmissions() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.window = 2;
    let mut s = Sender::new(c, GroupSpec::new(1));
    s.send_message(Time::ZERO, Bytes::from(vec![1u8; 200]));
    let _ = drain(&mut s);
    let d = s.poll_timeout().unwrap();
    s.handle_timeout(d);
    let retx = drain(&mut s);
    assert_eq!(retx.len(), 2);
    assert!(retx.iter().all(|t| t.copied == 0), "no fresh copy on retx");
    assert_eq!(s.stats().user_copy_bytes, 200, "copied once, on first send");
}
