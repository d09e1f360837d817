//! The protocol engines over real kernel UDP sockets on localhost.

use bytes::Bytes;
use rmcast::{Faults, ProtocolConfig, ProtocolKind, Rank};
use rmtrace::{DropCause, TraceEvent};
use udprun::cluster::{run_cluster, ClusterConfig};

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

fn check(kind: ProtocolKind, n: u16, window: usize, len: usize) {
    let mut cfg = ProtocolConfig::new(kind, 4_000, window);
    // Real wall-clock timers: keep the RTO snappy so lost datagrams (rare
    // on loopback but possible under load) recover quickly.
    cfg.rto = rmcast::Duration::from_millis(50);
    let msg = payload(len);
    let out = run_cluster(ClusterConfig::new(cfg, n), vec![msg.clone()])
        .unwrap_or_else(|e| panic!("{kind:?}: {e}"));

    assert_eq!(out.deliveries.len(), n as usize, "{kind:?}");
    let mut seen: Vec<Rank> = out.deliveries.iter().map(|(r, _, _)| *r).collect();
    seen.sort();
    seen.dedup();
    assert_eq!(seen.len(), n as usize, "{kind:?}: duplicate deliveries");
    for (_, _, data) in &out.deliveries {
        assert_eq!(data, &msg, "{kind:?}: corrupted payload over real UDP");
    }
    assert!(out.elapsed.as_nanos() > 0);
}

#[test]
fn ack_protocol_over_real_udp() {
    check(ProtocolKind::Ack, 4, 8, 100_000);
}

#[test]
fn nak_protocol_over_real_udp() {
    check(ProtocolKind::nak_polling(6), 4, 12, 100_000);
}

#[test]
fn ring_protocol_over_real_udp() {
    check(ProtocolKind::Ring, 4, 8, 100_000);
}

#[test]
fn tree_protocol_over_real_udp() {
    check(ProtocolKind::flat_tree(2), 4, 8, 100_000);
}

#[test]
fn fec_protocol_over_real_udp() {
    check(ProtocolKind::fec(6), 4, 12, 100_000);
}

#[test]
fn fec_loss_sweep_over_real_udp() {
    // The CI fec-soak's real-socket leg: all five families at 1%, 5% and
    // 20% seeded loss (each copy a node receives dropped with probability
    // 1/100, 1/20, 1/5), exactly-once byte-identical delivery at every
    // rank. At the two heavier rates the fec family must actually be
    // coding: repair or parity blocks on the wire and at least one
    // receiver-side decode.
    let kinds: [(&str, ProtocolKind); 5] = [
        ("ack", ProtocolKind::Ack),
        ("nak", ProtocolKind::nak_polling(6)),
        ("ring", ProtocolKind::Ring),
        ("tree", ProtocolKind::flat_tree(2)),
        ("fec", ProtocolKind::fec(6)),
    ];
    for &drop_every in &[100u32, 20, 5] {
        for (name, kind) in kinds {
            let window = if kind == ProtocolKind::Ring { 6 } else { 12 };
            let mut cfg = ProtocolConfig::new(kind, 4_000, window);
            cfg.rto = rmcast::Duration::from_millis(40);
            // 20% forced loss takes many RTO rounds; keep retries ample.
            cfg.liveness = rmcast::LivenessConfig::bounded(200);
            let msg = payload(150_000);
            let mut cc = ClusterConfig::new(cfg, 4);
            cc.faults.loss = 1.0 / f64::from(drop_every);
            cc.timeout = std::time::Duration::from_secs(30);
            let out = run_cluster(cc, vec![msg.clone()])
                .unwrap_or_else(|e| panic!("{name} @ 1/{drop_every} loss: {e}"));

            assert!(
                out.failures.is_empty(),
                "{name} @ 1/{drop_every}: {:?}",
                out.failures
            );
            let mut seen: Vec<Rank> = out.deliveries.iter().map(|(r, _, _)| *r).collect();
            seen.sort();
            seen.dedup();
            assert_eq!(
                out.deliveries.len(),
                4,
                "{name} @ 1/{drop_every}: wrong delivery count"
            );
            assert_eq!(seen.len(), 4, "{name} @ 1/{drop_every}: duplicate delivery");
            for (r, _, data) in &out.deliveries {
                assert_eq!(
                    data, &msg,
                    "{name} @ 1/{drop_every}: corrupt bytes at {r:?}"
                );
            }
            if name == "fec" && drop_every <= 20 {
                let s = &out.sender_stats;
                assert!(
                    s.repairs_sent + s.parity_sent > 0,
                    "fec @ 1/{drop_every}: no coded block ever hit the wire"
                );
                let decoded: u64 = out.receiver_stats.values().map(|r| r.repairs_decoded).sum();
                assert!(
                    decoded > 0,
                    "fec @ 1/{drop_every}: no receiver reconstructed from a block"
                );
            }
        }
    }
}

#[test]
fn multiple_messages_over_real_udp() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(50);
    let msgs: Vec<Bytes> = (0..3).map(|i| payload(20_000 + i * 1000)).collect();
    let out = run_cluster(ClusterConfig::new(cfg, 3), msgs.clone()).expect("cluster");
    assert_eq!(out.deliveries.len(), 9);
    for (_, msg_id, data) in &out.deliveries {
        assert_eq!(data, &msgs[*msg_id as usize]);
    }
}

#[test]
fn larger_group_over_real_udp() {
    check(ProtocolKind::nak_polling(6), 10, 12, 50_000);
}

#[test]
fn recovery_over_real_udp_with_injected_loss() {
    // Drop each copy a node receives with probability 1/20: the protocol
    // must still deliver byte-identical payloads to everyone.
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(40);
    let msg = payload(200_000);
    let mut cc = ClusterConfig::new(cfg, 4);
    cc.faults.loss = 1.0 / 20.0;
    let out = run_cluster(cc, vec![msg.clone()]).expect("cluster");
    assert_eq!(out.deliveries.len(), 4);
    for (_, _, data) in &out.deliveries {
        assert_eq!(data, &msg);
    }
    assert!(
        out.sender_stats.retx_sent > 0,
        "5% multicast loss must force retransmissions over real sockets"
    );
}

#[test]
fn killed_receiver_does_not_wedge_the_cluster() {
    // Receiver index 1's socket is bound but never driven — it looks like
    // a node that crashed before the run. With eviction enabled the sender
    // must evict it and complete to the survivors in bounded time.
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(40);
    cfg.liveness = rmcast::LivenessConfig::evicting(6);
    let msg = payload(60_000);
    let mut cc = ClusterConfig::new(cfg, 4);
    cc.faults.down = vec![(1, None)];
    cc.timeout = std::time::Duration::from_secs(20);
    let out = run_cluster(cc, vec![msg.clone()]).expect("cluster");

    let live: Vec<Rank> = out.deliveries.iter().map(|(r, _, _)| *r).collect();
    assert_eq!(live.len(), 3, "three survivors deliver");
    assert!(!live.contains(&Rank(2)), "the dead node cannot deliver");
    for (_, _, data) in &out.deliveries {
        assert_eq!(data, &msg);
    }
    assert!(
        out.evictions.iter().any(|&(_, peer, _)| peer == Rank(2)),
        "the dead node must be evicted: {:?}",
        out.evictions
    );
    assert!(
        out.failures.is_empty(),
        "survivors complete: {:?}",
        out.failures
    );
}

#[test]
fn killed_receiver_without_eviction_fails_with_typed_error() {
    // Same dead node, but eviction off and retries bounded: the sender
    // must abandon the message with a typed error instead of hanging.
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8);
    cfg.rto = rmcast::Duration::from_millis(30);
    cfg.liveness = rmcast::LivenessConfig::bounded(4);
    let mut cc = ClusterConfig::new(cfg, 3);
    cc.faults.down = vec![(0, None)];
    cc.timeout = std::time::Duration::from_secs(20);
    let out = run_cluster(cc, vec![payload(20_000)]).expect("cluster resolves");
    assert!(
        out.failures.iter().any(|&(rank, _, e)| rank == Rank::SENDER
            && matches!(e, rmcast::SessionError::RetryLimitExceeded { .. })),
        "sender must give up with RetryLimitExceeded: {:?}",
        out.failures
    );
}

#[test]
fn heartbeat_detector_evicts_dead_receiver_over_real_sockets() {
    // The membership failure detector replaces bounded retries: with
    // retries unbounded (and socket errors never fatal to a node), only
    // missed heartbeats can unstick the group from a dead receiver.
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(40);
    cfg.liveness = rmcast::LivenessConfig::PAPER; // retry forever
    cfg.membership = true;
    let msg = payload(60_000);
    let mut cc = ClusterConfig::new(cfg, 4);
    cc.faults.down = vec![(1, None)];
    cc.timeout = std::time::Duration::from_secs(20);
    let out = run_cluster(cc, vec![msg.clone()]).expect("cluster");

    let live: Vec<Rank> = out.deliveries.iter().map(|(r, _, _)| *r).collect();
    assert_eq!(live.len(), 3, "three survivors deliver");
    assert!(!live.contains(&Rank(2)), "the dead node cannot deliver");
    for (_, _, data) in &out.deliveries {
        assert_eq!(data, &msg);
    }
    assert!(
        out.evictions.iter().any(|&(_, peer, _)| peer == Rank(2)),
        "the detector must evict the dead node: {:?}",
        out.evictions
    );
    assert!(
        out.sender_stats.suspects >= 1,
        "eviction must come from the heartbeat detector (suspect first)"
    );
    assert!(
        out.failures.is_empty(),
        "no message may be abandoned: {:?}",
        out.failures
    );
}

#[test]
fn restarted_receiver_rejoins_over_real_sockets() {
    // Receiver index 1 is down from the start; 600ms in — after six
    // missed 50ms heartbeats have evicted it — a fresh endpoint reboots on
    // the same socket and must rejoin through JOIN/WELCOME/SYNC and catch
    // the tail of the stream. Injected loss plus a 40ms RTO paces the
    // stream so it is still flowing when the reboot lands.
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8);
    cfg.rto = rmcast::Duration::from_millis(40);
    cfg.liveness = rmcast::LivenessConfig::evicting(6);
    cfg.membership = true;
    let msgs: Vec<Bytes> = (0..40).map(|i| payload(24_000 + i * 100)).collect();
    let mut cc = ClusterConfig::new(cfg, 4);
    cc.faults = Faults {
        loss: 1.0 / 20.0,
        down: vec![(1, Some(rmcast::Duration::from_millis(600)))],
        ..Faults::default()
    };
    cc.timeout = std::time::Duration::from_secs(30);
    let out = run_cluster(cc, msgs.clone()).expect("cluster");

    assert!(
        out.evictions.iter().any(|&(_, peer, _)| peer == Rank(2)),
        "the down node must be evicted first: {:?}",
        out.evictions
    );
    assert!(
        out.joins.iter().any(|&(peer, _)| peer == Rank(2)),
        "the rebooted node must be re-admitted: {:?}",
        out.joins
    );
    // Exactly-once in-order at every rank, correct bytes everywhere.
    let mut per_rank: std::collections::HashMap<Rank, Vec<u64>> = std::collections::HashMap::new();
    for (rank, msg_id, data) in &out.deliveries {
        assert_eq!(data, &msgs[*msg_id as usize], "corrupt payload at {rank:?}");
        per_rank.entry(*rank).or_default().push(*msg_id);
    }
    for (rank, ids) in &per_rank {
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "{rank:?}: duplicate or out-of-order delivery {ids:?}"
        );
    }
    let all: Vec<u64> = (0..msgs.len() as u64).collect();
    for r in [Rank(1), Rank(3), Rank(4)] {
        assert_eq!(per_rank.get(&r), Some(&all), "{r:?} missed messages");
    }
    let victim = per_rank.get(&Rank(2)).cloned().unwrap_or_default();
    assert!(
        victim.contains(&(msgs.len() as u64 - 1)),
        "rejoined node missed the final message, got {victim:?}"
    );
}

#[test]
fn trace_sink_captures_the_run_over_real_udp() {
    // Every endpoint and the hub stream into one shared JSONL sink; after
    // the run the file must reconstruct the message's journey: sent by
    // rank 0, some copies lost on their way in, accepted and delivered at
    // every receiver.
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8);
    cfg.rto = rmcast::Duration::from_millis(50);
    let path = std::env::temp_dir().join(format!("rmtrace_udp_{}.jsonl", std::process::id()));
    let mut cc = ClusterConfig::new(cfg, 3);
    cc.trace_sink = Some(rmcast::JsonlSink::create(&path).expect("trace file"));
    cc.faults.loss = 1.0 / 10.0;
    let msg = payload(50_000);
    let out = run_cluster(cc, vec![msg.clone()]).expect("cluster");
    assert_eq!(out.deliveries.len(), 3);

    let text = std::fs::read_to_string(&path).expect("trace written");
    let _ = std::fs::remove_file(&path);
    let records = rmtrace::parse_jsonl(&text).unwrap_or_else(|(l, e)| panic!("line {l}: {e}"));
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::DataSent { .. }) && r.rank == 0),
        "sender must trace its sends"
    );
    for rank in 1..=3u16 {
        assert!(
            records
                .iter()
                .any(|r| matches!(r.ev, TraceEvent::Delivered { .. }) && r.rank == rank),
            "rank {rank} must trace its delivery"
        );
    }
    assert!(
        records
            .iter()
            .any(|r| matches!(r.ev, TraceEvent::AckSent { .. })),
        "the ACK protocol must trace acknowledgments"
    );
    let losses: Vec<u16> = records
        .iter()
        .filter(|r| {
            matches!(
                r.ev,
                TraceEvent::Drop {
                    cause: DropCause::DatagramFault
                }
            )
        })
        .map(|r| r.rank)
        .collect();
    assert!(!losses.is_empty(), "the injected loss left no record");
    assert!(
        losses.iter().all(|r| (0..=3).contains(r)),
        "a loss is stamped with the node that lost the copy: {losses:?}"
    );
}

#[test]
fn liveness_abort_dumps_the_flight_recorder_over_real_udp() {
    // Same shape as killed_receiver_without_eviction_fails_with_typed_error,
    // with the flight recorder armed: the abort must come with a
    // post-mortem dump of the sender's final protocol events.
    let mut cfg = ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8);
    cfg.rto = rmcast::Duration::from_millis(30);
    cfg.liveness = rmcast::LivenessConfig::bounded(4);
    let mut cc = ClusterConfig::new(cfg, 3);
    cc.faults.down = vec![(0, None)];
    cc.flight_recorder = 64;
    cc.timeout = std::time::Duration::from_secs(20);
    let out = run_cluster(cc, vec![payload(20_000)]).expect("cluster resolves");
    assert!(
        !out.failures.is_empty(),
        "the dead receiver must force an abort"
    );
    assert!(
        out.flight_dumps
            .iter()
            .any(|(rank, dump)| *rank == Rank::SENDER && !dump.events.is_empty()),
        "the aborting sender must dump its flight recorder: {:?}",
        out.flight_dumps
    );
}

#[test]
fn pipelined_handshake_over_real_udp() {
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(50);
    cfg.pipeline_handshake = true;
    let msgs: Vec<Bytes> = (0..4).map(|i| payload(30_000 + i * 500)).collect();
    let out = run_cluster(ClusterConfig::new(cfg, 3), msgs.clone()).expect("cluster");
    assert_eq!(out.deliveries.len(), 12);
    for (_, msg_id, data) in &out.deliveries {
        assert_eq!(
            data, &msgs[*msg_id as usize],
            "pipelined stream intact over real UDP"
        );
    }
}

#[test]
fn clean_bulk_transfer_sits_through_no_rto_over_real_udp() {
    // The benchmark's `udp_bulk` shape. A window of 20 8 000 B packets is
    // more than a default socket buffer holds (12), so a driver that
    // writes the window in one go overruns the hub's and the receivers'
    // buffers and every message sits through several 120 ms RTOs. With a
    // gauge on every socket nothing is sent into a buffer that has no room
    // for it: every attempt must be correct *and* clean.
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(16), 8_000, 20);
    let rto = std::time::Duration::from_nanos(cfg.rto.as_nanos());
    assert_eq!(rto.as_millis(), 120, "the default RTO this test is about");
    let msgs = vec![payload(500_000), payload(500_000)];
    for attempt in 0..20 {
        let out = run_cluster(ClusterConfig::new(cfg, 2), msgs.clone()).expect("cluster");
        assert!(out.failures.is_empty(), "#{attempt}: {:?}", out.failures);
        assert_eq!(out.deliveries.len(), 4, "#{attempt}: exactly once");
        for rank in [Rank(1), Rank(2)] {
            for (id, msg) in msgs.iter().enumerate() {
                let got = out
                    .deliveries
                    .iter()
                    .find(|(r, m, _)| *r == rank && *m == id as u64)
                    .unwrap_or_else(|| panic!("#{attempt}: {rank:?} missed message {id}"));
                assert_eq!(&got.2, msg, "#{attempt}: corrupt bytes at {rank:?}");
            }
        }
        assert_eq!(
            (out.sender_stats.timeouts, out.elapsed < rto),
            (0, true),
            "#{attempt} sat through an RTO: {:?}, {} retransmissions",
            out.elapsed,
            out.sender_stats.retx_sent
        );
    }
}

#[test]
fn slow_receiver_blocks_the_head_of_the_line_for_a_bounded_time_only() {
    // Receiver index 0 sleeps 25 ms per datagram, longer than any producer
    // waits for room: its socket's gauge sits at the depth and stays
    // there. The hub waits for it once (10 ms), gives up,
    // and from then on forwards at the healthy receiver's pace, letting
    // the kernel overrun the slow one — which the protocol then repairs at
    // its leisure. The healthy receiver's copy is intact and the run ends.
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(40);
    let msg = payload(120_000);
    let mut cc = ClusterConfig::new(cfg, 2);
    let slow = udprun::node::NodeFaults {
        per_datagram_delay: Some(std::time::Duration::from_millis(25)),
        ..Default::default()
    };
    cc.overload = vec![(Rank::from_receiver_index(0), slow)];
    cc.timeout = std::time::Duration::from_secs(30);
    let giveups = || {
        rmprof::snapshot()
            .counter("udprun.flow_giveups")
            .unwrap_or(0)
    };
    let before = giveups();
    let out = run_cluster(cc, vec![msg.clone()]).expect("cluster");
    assert!(out.failures.is_empty(), "{:?}", out.failures);
    for rank in [Rank(1), Rank(2)] {
        let got: Vec<_> = out.deliveries.iter().filter(|(r, ..)| *r == rank).collect();
        assert_eq!(got.len(), 1, "{rank:?} delivers exactly once");
        assert_eq!(got[0].2, msg, "corrupt bytes at {rank:?}");
    }
    assert!(
        giveups() > before,
        "30 datagrams at 25 ms each never outlasted one 10 ms wait"
    );
}

#[test]
fn a_run_that_cannot_go_as_asked_is_refused_before_a_socket_is_bound() {
    let cfg = ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8);
    let refusal = |faults: Faults, overload| {
        let mut cc = ClusterConfig::new(cfg, 4);
        cc.faults = faults;
        cc.overload = overload;
        let e = run_cluster(cc, vec![payload(1_000)]).expect_err("refused");
        (e.kind(), e.to_string())
    };
    let down = |down| Faults {
        down,
        ..Faults::default()
    };
    let later = Some(rmcast::Duration::from_millis(10));
    let slow = udprun::node::NodeFaults {
        storm_amplify: 1,
        ..Default::default()
    };
    // Entries that name no node of four receivers, a certain loss, and a
    // receiver that comes back to a group without membership.
    let invalid = [
        (down(vec![(9, later)]), vec![], "down receiver 9"),
        (down(vec![(2, later)]), vec![], "needs protocol.membership"),
        (down(vec![(9, None)]), vec![], "down receiver 9"),
        (
            Faults::default(),
            vec![(Rank(5), slow.clone())],
            "overload rank 5",
        ),
        (
            Faults::default(),
            vec![(Rank(1), slow.clone()), (Rank(1), slow)],
            "overload rank 1 is no node of the group, or is listed twice",
        ),
        (
            Faults {
                loss: 1.0,
                ..Faults::default()
            },
            vec![],
            "loss probability",
        ),
    ];
    for (faults, overload, what) in invalid {
        let (kind, e) = refusal(faults, overload);
        assert_eq!(kind, std::io::ErrorKind::InvalidInput, "{e}");
        assert!(e.contains(what), "{e}");
    }
    // Faults kernel sockets on one host do not inject.
    let p = 0.01;
    let unsupported = [
        (
            "dup",
            Faults {
                dup: p,
                ..Faults::default()
            },
        ),
        (
            "reorder",
            Faults {
                reorder: p,
                ..Faults::default()
            },
        ),
        (
            "corrupt",
            Faults {
                corrupt: p,
                ..Faults::default()
            },
        ),
    ];
    for (name, faults) in unsupported {
        let (kind, e) = refusal(faults, vec![]);
        assert_eq!(kind, std::io::ErrorKind::Unsupported, "{e}");
        assert!(e.contains(&format!("`{name}`")), "{e}");
    }
}

#[test]
fn a_receiver_still_down_when_the_run_ends_does_not_hold_it_up() {
    // The receiver would come back 10 s in; the other two finish the
    // message long before. `run_cluster` returns with them, instead of
    // joining a thread that sleeps out the rest of the delay.
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12);
    cfg.rto = rmcast::Duration::from_millis(40);
    cfg.membership = true;
    let mut cc = ClusterConfig::new(cfg, 3);
    cc.faults.down = vec![(1, Some(rmcast::Duration::from_millis(10_000)))];
    #[allow(clippy::disallowed_methods, reason = "the wall time is what is tested")]
    let called = std::time::Instant::now();
    let out = run_cluster(cc, vec![payload(20_000)]).expect("cluster");
    assert_eq!(out.deliveries.len(), 2, "the two live receivers deliver");
    assert!(called.elapsed() < std::time::Duration::from_secs(5));
}
