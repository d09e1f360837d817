//! Cross-protocol correctness: every protocol family must deliver every
//! message, byte-identical and in order, to every receiver — on a clean
//! network and under heavy loss — across a grid of packet sizes, window
//! sizes and group sizes.

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{Faults, ProtocolConfig, ProtocolKind, TreeShape, WindowDiscipline};

/// A deterministic, content-checkable payload.
fn payload(len: usize, tag: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
            .collect::<Vec<u8>>(),
    )
}

fn protocols_for(n: u16) -> Vec<ProtocolKind> {
    let mut v = vec![
        ProtocolKind::Ack,
        ProtocolKind::nak_polling(4),
        ProtocolKind::NakPolling {
            poll_interval: 4,
            receiver_multicast_nak: true,
        },
        ProtocolKind::Ring,
        ProtocolKind::Tree {
            shape: TreeShape::Binary,
        },
        ProtocolKind::fec(4),
    ];
    for h in [1usize, 2, n as usize] {
        if h <= n as usize {
            v.push(ProtocolKind::flat_tree(h));
        }
    }
    v
}

fn config_for(kind: ProtocolKind, n: u16, packet_size: usize, window: usize) -> ProtocolConfig {
    let mut cfg = ProtocolConfig::new(kind, packet_size, window);
    // The ring protocol needs window > N; poll interval must fit.
    if matches!(kind, ProtocolKind::Ring) {
        cfg.window = cfg.window.max(n as usize + 2);
    }
    if let ProtocolKind::NakPolling { poll_interval, .. } = kind {
        cfg.window = cfg.window.max(poll_interval);
    }
    cfg
}

fn check_delivery(kind: ProtocolKind, n: u16, msg_len: usize, loss: f64, seed: u64) {
    let cfg = config_for(kind, n, 700, 6);
    let mut net = Loopback::new(cfg, n, seed);
    if loss > 0.0 {
        net = net.with_loss(loss);
    }
    let msg = payload(msg_len, seed as u8);
    net.send_message(msg.clone());
    let out = net.run();
    assert_eq!(
        out.len(),
        n as usize,
        "{kind:?} n={n} len={msg_len} loss={loss}: wrong delivery count"
    );
    for d in &out {
        assert_eq!(d, &msg, "{kind:?}: corrupted delivery");
    }
    assert_eq!(net.sent, vec![0], "{kind:?}: sender must report completion");
}

#[test]
fn all_protocols_deliver_on_clean_network() {
    for n in [1u16, 3, 8] {
        for kind in protocols_for(n) {
            for msg_len in [0usize, 1, 699, 700, 701, 10_000] {
                check_delivery(kind, n, msg_len, 0.0, 11);
            }
        }
    }
}

#[test]
fn all_protocols_survive_10pct_loss() {
    for n in [2u16, 5] {
        for kind in protocols_for(n) {
            check_delivery(kind, n, 20_000, 0.10, 1234);
        }
    }
}

#[test]
fn all_protocols_survive_30pct_loss() {
    for kind in protocols_for(3) {
        check_delivery(kind, 3, 8_000, 0.30, 77);
    }
}

#[test]
fn clean_runs_send_exactly_k_data_packets() {
    // With no loss there must be no retransmissions in any protocol.
    for kind in protocols_for(6) {
        let cfg = config_for(kind, 6, 500, 8);
        let mut net = Loopback::new(cfg, 6, 5);
        net.send_message(payload(5_000, 1));
        let _ = net.run();
        let s = net.sender_stats();
        // 10 data packets + 1 alloc packet.
        assert_eq!(s.data_sent, 11, "{kind:?}");
        assert_eq!(s.retx_sent, 0, "{kind:?}: clean run retransmitted");
        assert_eq!(s.timeouts, 0, "{kind:?}: clean run timed out");
        assert_eq!(s.naks_received, 0, "{kind:?}");
    }
}

#[test]
fn table2_control_packet_counts_on_clean_network() {
    // Paper Table 2: ACKs the sender processes per data packet.
    let n = 6u16;
    let k = 20u64; // data packets
    let msg = payload(20 * 500, 2);

    // ACK-based: N acks per data packet (alloc included: (k+1) * N).
    let mut net = Loopback::new(config_for(ProtocolKind::Ack, n, 500, 4), n, 3);
    net.send_message(msg.clone());
    net.run();
    assert_eq!(net.sender_stats().acks_received, (k + 1) * n as u64);

    // NAK with polling i=5: k/i polls (+ last +- rounding) each acked by N;
    // alloc acked by N.
    let mut net = Loopback::new(config_for(ProtocolKind::nak_polling(5), n, 500, 10), n, 3);
    net.send_message(msg.clone());
    net.run();
    let polls = k.div_ceil(5); // seqs 4, 9, 14, 19 (19 is also LAST)
    assert_eq!(net.sender_stats().acks_received, (polls + 1) * n as u64);

    // Ring: one ack per data packet, except the last which everyone acks;
    // the alloc is a 1-packet transfer acked by everyone.
    let mut net = Loopback::new(config_for(ProtocolKind::Ring, n, 500, 10), n, 3);
    net.send_message(msg.clone());
    net.run();
    assert_eq!(
        net.sender_stats().acks_received,
        (k - 1) + n as u64 + n as u64
    );

    // Flat tree H=3 over 6 receivers: 2 roots -> 2 acks per data packet at
    // the sender.
    let mut net = Loopback::new(config_for(ProtocolKind::flat_tree(3), n, 500, 4), n, 3);
    net.send_message(msg);
    net.run();
    let roots = 2u64;
    assert_eq!(net.sender_stats().acks_received, (k + 1) * roots);
}

#[test]
fn multiple_messages_in_order() {
    for kind in [
        ProtocolKind::Ack,
        ProtocolKind::nak_polling(3),
        ProtocolKind::Ring,
        ProtocolKind::flat_tree(2),
    ] {
        let cfg = config_for(kind, 4, 300, 6);
        let mut net = Loopback::new(cfg, 4, 9);
        let msgs: Vec<Bytes> = (0..5).map(|i| payload(1000 + i * 137, i as u8)).collect();
        for m in &msgs {
            net.send_message(m.clone());
        }
        net.run();
        assert_eq!(net.sent, vec![0, 1, 2, 3, 4], "{kind:?}");
        // Each receiver got all messages, in order.
        for r in 0..4usize {
            let got: Vec<_> = net
                .deliveries
                .iter()
                .filter(|(i, _, _)| *i == r)
                .map(|(_, id, d)| (*id, d.clone()))
                .collect();
            assert_eq!(got.len(), 5, "{kind:?} receiver {r}");
            for (i, (id, d)) in got.iter().enumerate() {
                assert_eq!(*id as usize, i, "{kind:?}: out-of-order delivery");
                assert_eq!(d, &msgs[i], "{kind:?}: wrong payload");
            }
        }
    }
}

#[test]
fn multiple_messages_under_loss() {
    let cfg = config_for(ProtocolKind::nak_polling(4), 3, 400, 8);
    let mut net = Loopback::new(cfg, 3, 21).with_loss(0.15);
    let msgs: Vec<Bytes> = (0..3).map(|i| payload(3_000, i as u8)).collect();
    for m in &msgs {
        net.send_message(m.clone());
    }
    net.run();
    assert_eq!(net.sent.len(), 3);
    assert_eq!(net.deliveries.len(), 9);
}

#[test]
fn selective_repeat_delivers_under_loss() {
    for kind in [ProtocolKind::Ack, ProtocolKind::nak_polling(4)] {
        let mut cfg = config_for(kind, 3, 700, 8);
        cfg.discipline = WindowDiscipline::SelectiveRepeat;
        let mut net = Loopback::new(cfg, 3, 55).with_loss(0.2);
        let msg = payload(15_000, 4);
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), 3, "{kind:?}");
        assert!(out.iter().all(|d| d == &msg), "{kind:?}");
    }
}

#[test]
fn selective_repeat_retransmits_less_than_gbn_under_loss() {
    fn retx(discipline: WindowDiscipline) -> u64 {
        let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 500, 16);
        cfg.discipline = discipline;
        let mut net = Loopback::new(cfg, 2, 42).with_loss(0.15);
        net.send_message(payload(60_000, 5));
        net.run();
        net.sender_stats().retx_sent
    }
    let gbn = retx(WindowDiscipline::GoBackN);
    let sr = retx(WindowDiscipline::SelectiveRepeat);
    assert!(
        sr < gbn,
        "selective repeat ({sr}) should retransmit less than Go-Back-N ({gbn})"
    );
}

#[test]
fn ack_protocol_equals_flat_tree_height_one() {
    // The paper: "the ACK-based protocol is a special case of the
    // tree-based protocols, a flat tree with H = 1". Identical control
    // traffic in identical scenarios.
    let run = |kind: ProtocolKind| {
        let cfg = config_for(kind, 5, 600, 4);
        let mut net = Loopback::new(cfg, 5, 13);
        net.send_message(payload(9_000, 6));
        net.run();
        (
            net.sender_stats().acks_received,
            net.sender_stats().data_sent,
        )
    };
    assert_eq!(run(ProtocolKind::Ack), run(ProtocolKind::flat_tree(1)));
}

#[test]
fn tree_chain_sequentializes_acks() {
    // In a single chain (H = N), the sender sees exactly one aggregated
    // ack source.
    let n = 6u16;
    let cfg = config_for(ProtocolKind::flat_tree(6), n, 500, 4);
    let mut net = Loopback::new(cfg, n, 17);
    net.send_message(payload(4_000, 7));
    net.run();
    // 8 data + 1 alloc packets, one root: sender processes exactly 9 acks
    // ... but intermediate progress acks can add a few; at most one per
    // packet per hop is an upper bound. The *lower* bound is k+1.
    let acks = net.sender_stats().acks_received;
    assert!(
        acks >= 9,
        "aggregation must still confirm everything: {acks}"
    );
    // Each receiver sent acks only to its parent; total receiver acks is
    // bounded by hops * packets.
    let total_recv_acks: u64 = (0..6).map(|i| net.receiver_stats(i).acks_sent).sum();
    assert!(total_recv_acks >= acks);
}

#[test]
fn ring_token_rotation_spreads_acks_evenly() {
    let n = 4u16;
    let cfg = config_for(ProtocolKind::Ring, n, 250, 8);
    let mut net = Loopback::new(cfg, n, 19);
    // 16 data packets: each receiver tokens 4 of them.
    net.send_message(payload(4_000, 8));
    net.run();
    for i in 0..4usize {
        let acks = net.receiver_stats(i).acks_sent;
        // 4 token acks (one of which may be the LAST) + alloc ack
        // + possibly the all-ack of LAST.
        assert!(
            (5..=7).contains(&acks),
            "receiver {i} sent {acks} acks; rotation should spread them"
        );
    }
}

#[test]
fn zero_and_tiny_messages() {
    for kind in protocols_for(4) {
        let cfg = config_for(kind, 4, 500, 6);
        let mut net = Loopback::new(cfg, 4, 23);
        net.send_message(Bytes::new());
        net.send_message(payload(1, 1));
        net.run();
        assert_eq!(net.sent, vec![0, 1], "{kind:?}");
        let empties = net.deliveries.iter().filter(|(_, id, _)| *id == 0).count();
        let ones = net.deliveries.iter().filter(|(_, id, _)| *id == 1).count();
        assert_eq!((empties, ones), (4, 4), "{kind:?}");
    }
}

#[test]
fn handshake_costs_one_extra_transfer() {
    // With the handshake, a 1-packet message takes 2 transfers (2 packets);
    // without, 1 packet.
    let mut with = ProtocolConfig::new(ProtocolKind::Ack, 500, 4);
    with.handshake = true;
    let mut without = with;
    without.handshake = false;

    let mut a = Loopback::new(with, 2, 1);
    a.send_message(payload(100, 1));
    a.run();
    assert_eq!(a.sender_stats().data_sent, 2);

    let mut b = Loopback::new(without, 2, 1);
    b.send_message(payload(100, 1));
    b.run();
    assert_eq!(b.sender_stats().data_sent, 1);
}

#[test]
fn peak_buffer_accounting_tracks_window() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 1_000, 4);
    cfg.handshake = false;
    let mut net = Loopback::new(cfg, 1, 1);
    net.send_message(payload(20_000, 9));
    net.run();
    let peak = net.sender_stats().peak_buffer_bytes;
    assert_eq!(peak, 4_000, "window of 4 x 1000-byte packets");
    // Receiver pins the whole message only when preallocated; dynamic
    // assembly grows to the message size.
    let mut cfg2 = cfg;
    cfg2.handshake = true;
    let mut net2 = Loopback::new(cfg2, 1, 1);
    net2.send_message(payload(20_000, 9));
    net2.run();
    assert_eq!(net2.receiver_stats(0).peak_buffer_bytes, 20_000);
}

#[test]
fn fec_repairs_fewer_transmissions_than_nak_under_loss() {
    // The tentpole claim at unit scale: with disjoint losses across the
    // group, one coded repair heals what plain NAK answers with several
    // retransmissions. Same seed, same loss process, same window.
    fn recovery_tx(kind: ProtocolKind) -> (u64, u64, Vec<Bytes>) {
        let cfg = config_for(kind, 8, 700, 8);
        let mut net = Loopback::new(cfg, 8, 4242).with_loss(0.08);
        let msg = payload(120_000, 5);
        net.send_message(msg.clone());
        let out = net.run();
        let s = net.sender_stats();
        (s.retx_sent, s.repairs_sent, out)
    }
    let (nak_retx, nak_repairs, nak_out) = recovery_tx(ProtocolKind::nak_polling(4));
    let (fec_retx, fec_repairs, fec_out) = recovery_tx(ProtocolKind::fec(4));
    assert_eq!(nak_out.len(), 8);
    assert_eq!(fec_out.len(), 8);
    assert_eq!(nak_repairs, 0, "the nak family never codes");
    assert!(fec_repairs > 0, "losses at 8% must exercise coded repair");
    assert!(
        fec_retx + fec_repairs < nak_retx,
        "fec recovery transmissions ({fec_retx} retx + {fec_repairs} repairs) \
         must undercut nak ({nak_retx} retx)"
    );
}

#[test]
fn fec_proactive_parity_heals_without_feedback() {
    // Proactive parity rides along every `parity_every` packets and lets a
    // receiver heal a single loss before any NAK round trip happens.
    let cfg = config_for(ProtocolKind::fec(4), 4, 700, 8);
    let mut net = Loopback::new(cfg, 4, 7).with_loss(0.05);
    let msg = payload(60_000, 6);
    net.send_message(msg.clone());
    let out = net.run();
    assert_eq!(out.len(), 4);
    assert!(out.iter().all(|d| d == &msg));
    let s = net.sender_stats();
    assert!(s.parity_sent > 0, "parity must flow on a lossy run");
    let decoded: u64 = (0..4).map(|i| net.receiver_stats(i).repairs_decoded).sum();
    assert!(decoded > 0, "at least one loss must heal by decoding");
}

#[test]
fn fec_exactly_once_when_repair_races_native_delivery() {
    // A decoded packet and its late native copy must not double-deliver:
    // duplicates collapse in the assembler, deliveries stay exactly N.
    let cfg = config_for(ProtocolKind::fec(4), 6, 700, 8);
    let mut net = Loopback::new(cfg, 6, 31).with_faults(Faults {
        loss: 0.15,
        reorder: 0.2,
        ..Faults::default()
    });
    let msg = payload(40_000, 7);
    net.send_message(msg.clone());
    let out = net.run();
    assert_eq!(out.len(), 6, "exactly one delivery per receiver");
    assert!(out.iter().all(|d| d == &msg), "byte-identical under races");
}

#[test]
fn all_protocols_survive_reordering() {
    for kind in protocols_for(4) {
        let cfg = config_for(kind, 4, 700, 8);
        let msg = payload(15_000, 3);
        let mut net = Loopback::new(cfg, 4, 321).with_faults(Faults {
            reorder: 0.15,
            ..Faults::default()
        });
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), 4, "{kind:?} under reordering");
        assert!(out.iter().all(|d| d == &msg), "{kind:?}");
    }
}

#[test]
fn all_protocols_survive_loss_plus_reordering() {
    for kind in protocols_for(3) {
        let cfg = config_for(kind, 3, 700, 8);
        let msg = payload(10_000, 4);
        let mut net = Loopback::new(cfg, 3, 99).with_faults(Faults {
            loss: 0.1,
            reorder: 0.1,
            ..Faults::default()
        });
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), 3, "{kind:?} under loss + reordering");
        assert!(out.iter().all(|d| d == &msg), "{kind:?}");
    }
}
