//! Focused receiver-side paths: selective repeat, deep binary-tree
//! aggregation, ring transfers shorter than the group, and accounting.

use bytes::Bytes;
use rmcast::packet::{self, Packet};
use rmcast::{
    Dest, Endpoint, GroupSpec, ProtocolConfig, ProtocolKind, Receiver, SeqNo, Time, TreeShape,
    WindowDiscipline,
};
use rmwire::{PacketFlags, Rank};

fn data(transfer: u32, seq: u32, flags: PacketFlags, chunk: &[u8]) -> Bytes {
    packet::encode_data(Rank::SENDER, transfer, SeqNo(seq), flags, chunk)
}

fn drain_acks(r: &mut Receiver) -> Vec<(Dest, u32, u32)> {
    std::iter::from_fn(|| r.poll_transmit())
        .filter_map(|t| match Packet::parse(&t.payload).unwrap() {
            Packet::Ack { header, body, .. } => {
                Some((t.dest, header.transfer, body.next_expected.0))
            }
            _ => None,
        })
        .collect()
}

fn drain_naks(r: &mut Receiver) -> Vec<u32> {
    std::iter::from_fn(|| r.poll_transmit())
        .filter_map(|t| match Packet::parse(&t.payload).unwrap() {
            Packet::Nak { body, .. } => Some(body.expected.0),
            _ => None,
        })
        .collect()
}

fn no_handshake(kind: ProtocolKind) -> ProtocolConfig {
    let mut c = ProtocolConfig::new(kind, 100, 8);
    c.handshake = false;
    c
}

#[test]
fn sr_receiver_buffers_and_jumps() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.discipline = WindowDiscipline::SelectiveRepeat;
    // SR needs the handshake for pre-allocation.
    c.handshake = true;
    let mut r = Receiver::new(c, GroupSpec::new(1), Rank(1), 1);
    let alloc = packet::encode_alloc(
        Rank::SENDER,
        0,
        PacketFlags::LAST,
        rmwire::AllocBody {
            msg_len: 300,
            data_transfer: 1,
            packet_size: 100,
        },
    );
    r.handle_datagram(Time::ZERO, &alloc);
    let _ = drain_acks(&mut r);

    // Out of order: 2 arrives first, buffered; cumulative ack stays at 0.
    r.handle_datagram(Time::ZERO, &data(1, 2, PacketFlags::LAST, &[2u8; 100]));
    let acks = drain_acks(&mut r);
    assert_eq!(acks, vec![(Dest::Sender, 1, 0)], "cumulative ack unmoved");
    // 0 arrives: prefix advances to 1.
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, &[0u8; 100]));
    assert_eq!(drain_acks(&mut r), vec![(Dest::Sender, 1, 1)]);
    // 1 arrives: prefix jumps over the buffered packet 2 to 3.
    r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::EMPTY, &[1u8; 100]));
    assert_eq!(drain_acks(&mut r), vec![(Dest::Sender, 1, 3)]);
    match r.poll_event().unwrap() {
        rmcast::AppEvent::MessageDelivered { data, .. } => {
            assert_eq!(&data[..100], &[0u8; 100][..]);
            assert_eq!(&data[100..200], &[1u8; 100][..]);
            assert_eq!(&data[200..], &[2u8; 100][..]);
        }
        other => panic!("{other:?}"),
    }
}

#[test]
fn binary_tree_three_levels_aggregate() {
    // 7 receivers: 1 <- {2,3}, 2 <- {4,5}, 3 <- {6,7}.
    let kind = ProtocolKind::Tree {
        shape: TreeShape::Binary,
    };
    let g = GroupSpec::new(7);
    let mk = |rank: u16| Receiver::new(no_handshake(kind), g, Rank(rank), 5);
    let mut root = mk(1);
    let mut mid = mk(2);
    let mut leaf = mk(4);

    let pkt = data(1, 0, PacketFlags::LAST, b"zz");
    // Leaf 4 gets the data and immediately reports to its parent 2.
    leaf.handle_datagram(Time::ZERO, &pkt);
    let a = drain_acks(&mut leaf);
    assert_eq!(a, vec![(Dest::Rank(Rank(2)), 1, 1)]);

    // Node 2 has the data but only one child's report: stays quiet.
    mid.handle_datagram(Time::ZERO, &pkt);
    mid.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(4), 1, SeqNo(1)));
    assert!(
        drain_acks(&mut mid).is_empty(),
        "child 5 has not reported yet"
    );
    // Child 5 reports: node 2 forwards the aggregate to the root.
    mid.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(5), 1, SeqNo(1)));
    assert_eq!(drain_acks(&mut mid), vec![(Dest::Rank(Rank(1)), 1, 1)]);

    // Root needs its own copy plus both subtrees.
    root.handle_datagram(Time::ZERO, &pkt);
    root.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(2), 1, SeqNo(1)));
    assert!(drain_acks(&mut root).is_empty(), "subtree 3 missing");
    root.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(3), 1, SeqNo(1)));
    assert_eq!(
        drain_acks(&mut root),
        vec![(Dest::Sender, 1, 1)],
        "root reports to the sender only when the whole tree has it"
    );
}

#[test]
fn tree_aggregate_is_monotone_and_deduplicated() {
    let kind = ProtocolKind::flat_tree(2);
    let g = GroupSpec::new(2); // chain 1 <- 2
    let mut head = Receiver::new(no_handshake(kind), g, Rank(1), 3);

    // Child reports 2, then (stale) 1: only one upward ack, at 2... but
    // the head's own progress limits the aggregate first.
    head.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
    head.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(2), 1, SeqNo(2)));
    assert_eq!(drain_acks(&mut head), vec![(Dest::Sender, 1, 1)]);
    // Stale child ack: no new upward traffic.
    head.handle_datagram(Time::ZERO, &packet::encode_ack(Rank(2), 1, SeqNo(1)));
    assert!(drain_acks(&mut head).is_empty());
    // Own progress catches up: aggregate becomes 2.
    head.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, b"bb"));
    assert_eq!(drain_acks(&mut head), vec![(Dest::Sender, 1, 2)]);
}

#[test]
fn ring_transfer_shorter_than_group() {
    // 5 receivers, 2 packets: ranks 1 and 2 ack their tokens; everyone
    // acks the LAST packet.
    let mut c = no_handshake(ProtocolKind::Ring);
    c.window = 7;
    let g = GroupSpec::new(5);
    for rank in 1..=5u16 {
        let mut r = Receiver::new(c, g, Rank(rank), 9);
        r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
        r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, b"bb"));
        let acks = drain_acks(&mut r);
        let expected: Vec<(Dest, u32, u32)> = match rank {
            1 => vec![(Dest::Sender, 1, 1), (Dest::Sender, 1, 2)], // token 0 + LAST
            2 => vec![(Dest::Sender, 1, 2)],                       // token 1 == LAST
            _ => vec![(Dest::Sender, 1, 2)],                       // LAST only
        };
        assert_eq!(acks, expected, "rank {rank}");
    }
}

#[test]
fn nak_mode_acks_retransmissions() {
    let mut r = Receiver::new(
        no_handshake(ProtocolKind::nak_polling(4)),
        GroupSpec::new(1),
        Rank(1),
        1,
    );
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
    assert!(drain_acks(&mut r).is_empty(), "not polled");
    // A retransmission of the same packet is acknowledged (stall
    // recovery).
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::RETX, b"aa"));
    assert_eq!(drain_acks(&mut r), vec![(Dest::Sender, 1, 1)]);
}

#[test]
fn gap_then_recovery_naks_once_per_suppression_window() {
    let mut c = no_handshake(ProtocolKind::Ack);
    c.nak_suppress = rmcast::Duration::from_millis(4);
    let mut r = Receiver::new(c, GroupSpec::new(1), Rank(1), 1);
    // Lost packet 0; packets 1..5 arrive over 2 ms: exactly one NAK.
    for (i, t_us) in [(1u32, 0u64), (2, 500), (3, 1_000), (4, 1_500), (5, 2_000)] {
        r.handle_datagram(
            Time::from_micros(t_us),
            &data(1, i, PacketFlags::EMPTY, b"xx"),
        );
    }
    assert_eq!(drain_naks(&mut r), vec![0]);
    assert_eq!(r.stats().naks_suppressed, 4);
    // After the suppression window, another gap packet re-naks.
    r.handle_datagram(
        Time::from_micros(5_000),
        &data(1, 6, PacketFlags::EMPTY, b"xx"),
    );
    assert_eq!(drain_naks(&mut r), vec![0]);
}

#[test]
fn stats_account_for_everything() {
    let mut r = Receiver::new(
        no_handshake(ProtocolKind::Ack),
        GroupSpec::new(1),
        Rank(1),
        1,
    );
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa")); // dup
    r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, b"bb"));
    r.handle_datagram(Time::ZERO, &[0xff, 0xff]); // garbage
    let s = r.stats();
    assert_eq!(s.data_received, 3);
    assert_eq!(s.data_discarded, 1);
    assert_eq!(s.decode_errors, 1);
    assert_eq!(s.acks_sent, 3);
    assert_eq!(s.messages_completed, 1);
}

#[test]
fn foreign_transfer_ids_do_not_confuse_state() {
    // Two interleaved transfers (which the sender never does, but the
    // receiver must tolerate): both complete independently.
    let mut r = Receiver::new(
        no_handshake(ProtocolKind::Ack),
        GroupSpec::new(1),
        Rank(1),
        1,
    );
    r.handle_datagram(Time::ZERO, &data(1, 0, PacketFlags::EMPTY, b"aa"));
    r.handle_datagram(Time::ZERO, &data(3, 0, PacketFlags::EMPTY, b"cc"));
    r.handle_datagram(Time::ZERO, &data(1, 1, PacketFlags::LAST, b"bb"));
    r.handle_datagram(Time::ZERO, &data(3, 1, PacketFlags::LAST, b"dd"));
    let mut got = Vec::new();
    while let Some(e) = r.poll_event() {
        if let rmcast::AppEvent::MessageDelivered { msg_id, data } = e {
            got.push((msg_id, data));
        }
    }
    assert_eq!(got.len(), 2);
    assert_eq!(&got[0].1[..], b"aabb");
    assert_eq!(&got[1].1[..], b"ccdd");
}

/// One decode case: a message announced by ALLOC, the datagrams that
/// reach the receiver after it, and what the coded blocks among them must
/// count and deliver.
struct DecodeRow {
    name: &'static str,
    msg: &'static [u8],
    datagrams: Vec<Bytes>,
    /// `(useless, undecodable, decoded, replayed)`.
    counts: (u64, u64, u64, u64),
    delivered: Option<&'static [u8]>,
}

fn repair(base_seq: u32, bitmap: u64, generation: u32, payload: &[u8]) -> Bytes {
    let body = rmwire::RepairBody {
        base_seq,
        generation,
        bitmap,
    };
    packet::encode_repair(Rank::SENDER, 1, body, payload)
}

fn xor(chunks: &[&[u8]]) -> Vec<u8> {
    let mut acc = vec![0u8; chunks.iter().map(|c| c.len()).max().unwrap_or(0)];
    for c in chunks {
        for (a, b) in acc.iter_mut().zip(*c) {
            *a ^= b;
        }
    }
    acc
}

/// Every outcome of a coded block at a fec receiver, through
/// `handle_datagram`: the counters it bumps and the bytes that come out.
#[test]
fn coded_block_outcomes() {
    let d = |seq: u32, chunk: &[u8]| data(1, seq, PacketFlags::EMPTY, chunk);
    let rows = vec![
        DecodeRow {
            name: "nothing missing is useless",
            msg: b"aaaabbbbcc",
            datagrams: vec![
                d(0, b"aaaa"),
                d(1, b"bbbb"),
                repair(0, 0b11, 1, &xor(&[b"aaaa", b"bbbb"])),
            ],
            counts: (1, 0, 0, 0),
            delivered: None,
        },
        DecodeRow {
            name: "a payload longer than packet_size is undecodable",
            msg: b"aaaabbbbcc",
            datagrams: vec![d(0, b"aaaa"), repair(0, 0b11, 1, b"xxxxx")],
            counts: (0, 1, 0, 0),
            delivered: None,
        },
        DecodeRow {
            name: "two packets missing is undecodable",
            msg: b"aaaabbbbcc",
            datagrams: vec![
                d(0, b"aaaa"),
                repair(0, 0b111, 1, &xor(&[b"aaaa", b"bbbb", b"cc"])),
            ],
            counts: (0, 1, 0, 0),
            delivered: None,
        },
        DecodeRow {
            name: "a bitmap naming a packet beyond k is undecodable",
            msg: b"aaaabbbbcc",
            datagrams: vec![d(0, b"aaaa"), d(1, b"bbbb"), repair(1, 0b101, 1, b"bbbb")],
            counts: (0, 1, 0, 0),
            delivered: None,
        },
        DecodeRow {
            name: "forged empty data past the transfer leaves the block undecodable",
            msg: b"aaaabbbbcccc",
            datagrams: vec![d(3, b""), repair(1, 0b101, 1, b"bbbb")],
            counts: (0, 1, 0, 0),
            delivered: None,
        },
        DecodeRow {
            name: "the short tail decodes, zero-padded",
            msg: b"aaaabbbbcc",
            datagrams: vec![
                d(0, b"aaaa"),
                d(1, b"bbbb"),
                repair(1, 0b11, 1, &xor(&[b"bbbb", b"cc"])),
            ],
            counts: (0, 0, 1, 0),
            delivered: Some(b"aaaabbbbcc"),
        },
        DecodeRow {
            name: "a full packet decodes against the short tail",
            msg: b"aaaabbbbcc",
            datagrams: vec![
                d(0, b"aaaa"),
                d(2, b"cc"),
                repair(1, 0b11, 1, &xor(&[b"bbbb", b"cc"])),
            ],
            counts: (0, 0, 1, 0),
            delivered: Some(b"aaaabbbbcc"),
        },
        DecodeRow {
            name: "generations must rise: equal and older ones are replays",
            msg: b"aaaabbbbcc",
            datagrams: vec![
                d(0, b"aaaa"),
                repair(0, 0b1, 5, b"aaaa"),
                repair(0, 0b11, 5, &xor(&[b"aaaa", b"bbbb"])),
                repair(0, 0b11, 4, &xor(&[b"aaaa", b"bbbb"])),
                repair(0, 0b11, 6, &xor(&[b"aaaa", b"bbbb"])),
                d(2, b"cc"),
            ],
            counts: (1, 0, 1, 2),
            delivered: Some(b"aaaabbbbcc"),
        },
    ];
    for row in rows {
        let cfg = ProtocolConfig::new(ProtocolKind::fec(4), 4, 8);
        let mut r = Receiver::new(cfg, GroupSpec::new(1), Rank(1), 1);
        let alloc = rmwire::AllocBody {
            msg_len: row.msg.len() as u64,
            data_transfer: 1,
            packet_size: 4,
        };
        r.handle_datagram(
            Time::ZERO,
            &packet::encode_alloc(Rank::SENDER, 0, PacketFlags::LAST, alloc),
        );
        for dg in &row.datagrams {
            r.handle_datagram(Time::ZERO, dg);
        }
        let s = r.stats();
        let counts = (
            s.repairs_useless,
            s.repairs_undecodable,
            s.repairs_decoded,
            s.repairs_replayed,
        );
        assert_eq!(counts, row.counts, "{}", row.name);
        let delivered: Vec<Bytes> = std::iter::from_fn(|| r.poll_event())
            .filter_map(|e| match e {
                rmcast::AppEvent::MessageDelivered { data, .. } => Some(data),
                _ => None,
            })
            .collect();
        assert_eq!(
            delivered.first().map(|b| &b[..]),
            row.delivered,
            "{}",
            row.name
        );
        assert!(delivered.len() <= 1, "{}", row.name);
    }
}
