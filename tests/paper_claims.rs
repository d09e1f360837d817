//! End-to-end checks of the paper's headline claims, at reduced scale so
//! they run quickly in debug builds. The full-scale reproductions live in
//! `simrun`'s `experiments` binary and the bench harness.

use rmcast::{ProtocolConfig, ProtocolKind};
use simrun::scenario::{Protocol, Scenario};

fn one_seed(p: Protocol, n: u16, msg: usize) -> simrun::RunResult {
    let mut sc = Scenario::new(p, n, msg);
    sc.seeds = vec![1];
    sc.run_avg()
}

/// Figure 8's claim: TCP grows linearly with receivers, multicast stays
/// nearly flat.
#[test]
fn tcp_linear_multicast_flat() {
    let msg = 100_000;
    let tcp = |n| {
        one_seed(
            Protocol::SerialUnicast {
                segment_size: 1448,
                window: 22,
            },
            n,
            msg,
        )
        .comm_time
        .as_secs_f64()
    };
    let ack = |n| {
        one_seed(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 50_000, 2)),
            n,
            msg,
        )
        .comm_time
        .as_secs_f64()
    };

    let (t1, t8) = (tcp(1), tcp(8));
    assert!(
        t8 / t1 > 5.0,
        "TCP should scale ~linearly: x1={t1:.4}s x8={t8:.4}s"
    );
    let (a1, a8) = (ack(1), ack(8));
    assert!(
        a8 / a1 < 1.6,
        "multicast should stay nearly flat: x1={a1:.4}s x8={a8:.4}s"
    );
    assert!(a8 < t8, "multicast must beat TCP at 8 receivers");
}

/// Figure 10's claim: window = 2 suffices for the ACK protocol; larger
/// windows add nothing.
#[test]
fn ack_window_two_is_enough() {
    let t = |w| {
        one_seed(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 6_250, w)),
            12,
            200_000,
        )
        .comm_time
        .as_secs_f64()
    };
    let (w1, w2, w5) = (t(1), t(2), t(5));
    assert!(
        w2 < w1,
        "window 2 must beat stop-and-wait: {w2:.4} vs {w1:.4}"
    );
    assert!(
        (w5 - w2).abs() / w2 < 0.10,
        "windows beyond 2 must not help much: w2={w2:.4} w5={w5:.4}"
    );
}

/// Figure 12's claim: the best poll interval sits near (but below) the
/// window size.
#[test]
fn nak_poll_interval_optimum_near_window() {
    let t = |poll| {
        one_seed(
            Protocol::Rm(ProtocolConfig::new(
                ProtocolKind::nak_polling(poll),
                5_000,
                20,
            )),
            12,
            200_000,
        )
        .comm_time
        .as_secs_f64()
    };
    let (p1, p16, p20) = (t(1), t(16), t(20));
    assert!(p16 < p1, "poll=16 must beat per-packet polling");
    assert!(
        p16 <= p20 * 1.02,
        "poll at ~80% must not lose to poll=window"
    );
}

/// Table 3's claim: for large messages,
/// NAK >= ring >= tree >= ACK.
#[test]
fn large_message_protocol_ordering() {
    let msg = 400_000;
    let n = 20;
    let nak = one_seed(
        Protocol::Rm(ProtocolConfig::new(
            ProtocolKind::nak_polling(34),
            8_000,
            40,
        )),
        n,
        msg,
    );
    let ring = one_seed(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ring, 8_000, 40)),
        n,
        msg,
    );
    let tree = one_seed(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::flat_tree(4), 8_000, 20)),
        n,
        msg,
    );
    let ack = one_seed(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 50_000, 5)),
        n,
        msg,
    );
    let (tn, tr, tt, ta) = (
        nak.throughput_mbps,
        ring.throughput_mbps,
        tree.throughput_mbps,
        ack.throughput_mbps,
    );
    // Allow ties within 3% (the paper writes ">=", not ">").
    assert!(
        tn * 1.03 >= tr,
        "NAK ({tn:.1}) must not lose to ring ({tr:.1})"
    );
    assert!(
        tr * 1.03 >= tt,
        "ring ({tr:.1}) must not lose to tree ({tt:.1})"
    );
    assert!(
        tt * 1.03 >= ta,
        "tree ({tt:.1}) must not lose to ACK ({ta:.1})"
    );
    assert!(
        tn > ta * 1.2,
        "NAK must clearly beat ACK: {tn:.1} vs {ta:.1}"
    );
}

/// Figure 20's claim: small messages suffer under tall trees (user-level
/// ack relaying), and the simpler protocols behave identically.
#[test]
fn small_messages_punish_tall_trees() {
    let t = |h| {
        one_seed(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::flat_tree(h), 8_000, 20)),
            16,
            256,
        )
        .comm_time
        .as_secs_f64()
    };
    let (h1, h16) = (t(1), t(16));
    assert!(
        h16 > h1 * 1.5,
        "a 16-deep chain must add clear latency: H1={h1:.6} H16={h16:.6}"
    );

    // ACK / NAK / ring behave the same for one-packet messages.
    let small = |kind, w| {
        one_seed(Protocol::Rm(ProtocolConfig::new(kind, 8_000, w)), 16, 256)
            .comm_time
            .as_secs_f64()
    };
    let a = small(ProtocolKind::Ack, 2);
    let k = small(ProtocolKind::nak_polling(2), 2);
    let r = small(ProtocolKind::Ring, 17);
    let spread = (a.max(k).max(r) - a.min(k).min(r)) / a;
    assert!(
        spread < 0.15,
        "one-packet messages: ACK/NAK/ring should match (ack={a:.6} nak={k:.6} ring={r:.6})"
    );
}

/// The whole pipeline is deterministic: same seed, same nanosecond.
#[test]
fn full_stack_determinism() {
    let sc = Scenario::new(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ring, 4_000, 12)),
        8,
        150_000,
    );
    let a = sc.run(99);
    let b = sc.run(99);
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(a.sender_stats, b.sender_stats);
    let c = sc.run(100);
    assert_ne!(
        a.comm_time, c.comm_time,
        "different seeds should jitter timings"
    );
}

/// Reliability across the full simulated stack under loss, all protocols.
#[test]
fn reliable_under_loss_full_stack() {
    for kind in [
        ProtocolKind::Ack,
        ProtocolKind::nak_polling(8),
        ProtocolKind::Ring,
        ProtocolKind::flat_tree(3),
    ] {
        let window = if matches!(kind, ProtocolKind::Ring) {
            12
        } else {
            10
        };
        let mut sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(kind, 4_000, window)),
            6,
            200_000,
        );
        sc.seeds = vec![5];
        sc.fault_plan.frame_loss = 0.03;
        let r = sc.run_avg();
        assert_eq!(r.deliveries, 6, "{kind:?} under loss");
        assert!(
            r.sender_stats.retx_sent > 0,
            "{kind:?}: loss at this rate should force retransmission"
        );
    }
}

/// The allocation handshake claim: "at least two round trips of messaging
/// are necessary for each data transmission" — visible as two transfers'
/// worth of packets for a tiny message.
#[test]
fn handshake_two_round_trips() {
    let r = one_seed(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 8_000, 2)),
        4,
        100,
    );
    assert_eq!(
        r.sender_stats.data_sent, 2,
        "tiny message = 1 alloc packet + 1 data packet"
    );
    assert_eq!(
        r.sender_stats.acks_received, 8,
        "both packets acked by all 4"
    );
}
