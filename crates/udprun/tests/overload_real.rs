//! The overload soak over real kernel UDP sockets: the same
//! graceful-degradation scenario the simulator soak runs
//! (`simrun/tests/overload_soak.rs`), on real wall clocks and real
//! socket buffers. A 3x feedback storm amplifies every control datagram
//! the sender handles, while receiver index 0 chews 2ms of CPU per
//! datagram and goes completely dark for a 250ms blackout mid-transfer.
//! Every family must still deliver exactly-once with byte-identical
//! payloads (or evict), with the AIMD window visibly shrinking and the
//! storm shedder visibly engaged.

use bytes::Bytes;
use rmcast::{LivenessConfig, OverloadConfig, ProtocolConfig, ProtocolKind, Rank};
use std::time::Duration as StdDuration;
use udprun::cluster::{run_cluster, ClusterConfig};
use udprun::node::NodeFaults;

const N: u16 = 4;
const MSG: usize = 400_000;

fn payload(len: usize) -> Bytes {
    Bytes::from((0..len).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
}

fn families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = vec![
        ("ack", ProtocolConfig::new(ProtocolKind::Ack, 4_000, 8)),
        (
            "nak",
            ProtocolConfig::new(ProtocolKind::nak_polling(6), 4_000, 12),
        ),
        (
            "ring",
            // Double-size window: the sender keeps the AIMD floor above
            // the group size (the rotating release frees packet X on the
            // ACK for X+N), so the window can halve once and still grow
            // back.
            ProtocolConfig::new(ProtocolKind::Ring, 4_000, 2 * (N as usize + 1)),
        ),
        (
            "tree",
            ProtocolConfig::new(ProtocolKind::flat_tree(2), 4_000, 8),
        ),
        ("fec", ProtocolConfig::new(ProtocolKind::fec(6), 4_000, 12)),
    ];
    for (_, cfg) in &mut v {
        // Real wall clocks: a short RTO keeps the blackout-induced
        // timeout streak (AIMD shrink + quarantine trigger) inside the
        // 250ms blackout window even with exponential backoff.
        cfg.rto = rmcast::Duration::from_millis(20);
        cfg.liveness = LivenessConfig::evicting(40);
        cfg.overload = OverloadConfig::adaptive(cfg.window);
        cfg.overload.quarantine_budget = 64;
        // A feedback cap the 3x-amplified storm overruns even at this
        // small scale, so shedding is observable in every family.
        cfg.overload.feedback_rate = 150;
        cfg.overload.feedback_burst = 8;
    }
    v
}

fn overload_cluster(cfg: ProtocolConfig) -> ClusterConfig {
    let mut cc = ClusterConfig::new(cfg, N);
    cc.timeout = StdDuration::from_secs(60);
    let storm = NodeFaults {
        storm_amplify: 3,
        ..NodeFaults::default()
    };
    let slow = NodeFaults {
        per_datagram_delay: Some(StdDuration::from_millis(2)),
        blackout: Some((StdDuration::from_millis(40), StdDuration::from_millis(290))),
        ..NodeFaults::default()
    };
    cc.overload = vec![(Rank::SENDER, storm), (Rank::from_receiver_index(0), slow)];
    cc
}

#[test]
fn every_family_degrades_gracefully_over_real_sockets() {
    let msg = payload(MSG);
    for (name, cfg) in families() {
        let out = run_cluster(overload_cluster(cfg), vec![msg.clone()])
            .unwrap_or_else(|e| panic!("{name} hung under overload: {e}"));

        // No liveness abort: overload is load, not loss of liveness.
        assert!(
            out.failures.is_empty(),
            "{name} aborted instead of degrading: {:?}",
            out.failures
        );

        // Exactly-once, byte-identical delivery at every rank that was
        // not evicted; no rank delivers twice.
        let mut per_rank = vec![0usize; N as usize + 1];
        for (r, msg_id, data) in &out.deliveries {
            assert_eq!(*msg_id, 0, "{name}: unexpected message id");
            assert_eq!(data, &msg, "{name}: corrupted payload at {r:?}");
            per_rank[r.0 as usize] += 1;
        }
        for rank in 1..=N {
            let evicted = out.evictions.iter().any(|&(_, peer, _)| peer == Rank(rank));
            let n = per_rank[rank as usize];
            assert!(n <= 1, "{name}: rank {rank} delivered {n} times");
            assert!(
                n == 1 || evicted,
                "{name}: rank {rank} neither delivered nor was evicted"
            );
        }

        // The blackout forced a timeout streak: AIMD visibly backed off.
        let s = &out.sender_stats;
        assert!(s.window_shrinks > 0, "{name}: the window never shrank");

        // The amplified feedback overran the shedder.
        assert!(
            s.acks_shed + s.naks_shed + s.naks_collapsed > 0,
            "{name}: the storm was never shed (acks_shed={} naks_shed={} naks_collapsed={})",
            s.acks_shed,
            s.naks_shed,
            s.naks_collapsed
        );

        // Quarantine, where entered, resolved by completion: every entry
        // is matched by a rejoin or an eviction — never a stuck laggard.
        assert_eq!(
            s.quarantine_entered,
            s.quarantine_rejoined + s.quarantine_evicted,
            "{name}: quarantine left unresolved at completion"
        );
    }
}

#[test]
fn blackout_receiver_quarantines_and_run_signals_backpressure() {
    // The nak family with the full fault set: the blacked-out receiver
    // must pass through the quarantine lifecycle, and the AIMD stall must
    // surface as paired backpressure edges at the application boundary.
    let (_, cfg) = families().remove(1);
    let msg = payload(MSG);
    let out = run_cluster(overload_cluster(cfg), vec![msg.clone()]).expect("cluster");

    assert!(out.failures.is_empty(), "{:?}", out.failures);
    let s = &out.sender_stats;
    assert!(
        s.quarantine_entered > 0,
        "the blacked-out receiver never quarantined (shrinks={})",
        s.window_shrinks
    );
    assert_eq!(
        s.quarantine_entered,
        s.quarantine_rejoined + s.quarantine_evicted
    );

    assert!(
        !out.backpressure.is_empty(),
        "the shrunken-window stall never reached the application"
    );
    assert!(
        out.backpressure.first().is_some_and(|&(_, c)| c),
        "first backpressure edge must assert congestion: {:?}",
        out.backpressure
    );
    assert!(
        out.backpressure.last().is_some_and(|&(_, c)| !c),
        "backpressure must clear by completion: {:?}",
        out.backpressure
    );
    assert_eq!(s.backpressure_signals, out.backpressure.len() as u64);
}
