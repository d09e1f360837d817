//! The membership acceptance scenario from this PR: a receiver
//! crash-restarts mid-message while the inter-switch trunk partitions
//! and heals. Every family must evict the silent members, finish to the
//! survivors, re-admit the rejoiners through JOIN/SYNC (explicit for the
//! rebooted host, implicit for the healed island), and refuse every
//! stale-epoch feedback packet — all with exactly-once in-order delivery
//! at every receiver that is live at the end.

use netsim::{DropCause, FaultPlan, HostId};
use rmcast::{LivenessConfig, ProtocolConfig};
use rmwire::{Duration, Rank, Time};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, Scenario};
use std::collections::BTreeMap;

/// 18 receivers force the two-switch split (hosts 0..=15 on sw0, 16..=18
/// behind the trunk), so a trunk outage isolates ranks 16..=18.
const N: u16 = 18;
const MSG: usize = 200_000;
const MSGS: usize = 8;

/// Rank 2's host: crashed mid-message 0 and rebooted after the heal.
const VICTIM: Rank = Rank(2);
/// Receiver ranks stranded behind the partitioned trunk.
const ISLAND: [u16; 3] = [16, 17, 18];

fn families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = experiments::families(N);
    v.truncate(4);
    for (_, cfg) in &mut v {
        cfg.liveness = LivenessConfig::evicting(6);
        // Tree parents need their own deadline for silent children; keep
        // it past the RTO so lossy-but-alive children are never culled.
        cfg.liveness.child_evict_timeout = Some(Duration::from_millis(400));
        cfg.membership = true;
    }
    v
}

fn acceptance_plan() -> FaultPlan {
    FaultPlan::default()
        .with_crash_restart(HostId(2), Time::from_millis(5), Time::from_millis(350))
        .with_trunk_down(Time::from_millis(20), Time::from_millis(320))
}

fn run(cfg: ProtocolConfig, plan: FaultPlan, seed: u64) -> ChaosOutcome {
    let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
    sc.n_messages = MSGS;
    sc.fault_plan = plan;
    sc.time_cap = Duration::from_secs(120);
    sc.run_chaos(seed)
}

/// Per-rank delivered message ids, in delivery order.
fn ledger(out: &ChaosOutcome) -> BTreeMap<u16, Vec<u64>> {
    let mut m: BTreeMap<u16, Vec<u64>> = BTreeMap::new();
    for &(rank, msg_id, _, _) in &out.delivered_msgs {
        m.entry(rank.0).or_default().push(msg_id);
    }
    m
}

#[test]
fn crash_partition_heal_rejoin_is_exactly_once_for_all_families() {
    for (name, cfg) in families() {
        let out = run(cfg, acceptance_plan(), 1);
        assert!(out.completed, "{name} hung under crash + partition");
        assert_eq!(
            out.messages_sent, MSGS,
            "{name} failed messages: {:?}",
            out.failures
        );
        assert_eq!(out.restarts, 1, "{name}: the victim host never rebooted");

        // The silent members were evicted, and the rebooted victim
        // re-entered through the membership handshake.
        assert!(
            out.evictions.iter().any(|&(r, _)| r == VICTIM),
            "{name} never evicted the crashed rank: {:?}",
            out.evictions
        );
        assert!(
            out.joins.iter().any(|&(r, _)| r == VICTIM),
            "{name}: the rebooted victim never rejoined: {:?}",
            out.joins
        );

        // The healed island's pre-partition feedback carries a dead
        // epoch; the sender must count-and-drop it, never act on it.
        assert!(
            out.sender_stats.stale_epoch_discarded >= 1,
            "{name}: no stale-epoch feedback was refused",
        );

        // Exactly-once, in-order at every receiver: no rank ever sees a
        // message twice or out of order, across eviction and rejoin.
        let ledger = ledger(&out);
        for (rank, ids) in &ledger {
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "{name} rank {rank}: duplicate or out-of-order delivery {ids:?}"
            );
        }
        // Members that were never evicted observed the whole stream.
        let evicted: Vec<u16> = out.evictions.iter().map(|&(r, _)| r.0).collect();
        let all_ids: Vec<u64> = (0..MSGS as u64).collect();
        for r in 1..=N {
            if evicted.contains(&r) {
                continue;
            }
            assert_eq!(
                ledger.get(&r),
                Some(&all_ids),
                "{name} rank {r} (never evicted) missed messages"
            );
        }
        // The rejoined victim observed the tail of the stream: at least
        // one message completed after its re-admission.
        let victim_ids = ledger.get(&VICTIM.0).cloned().unwrap_or_default();
        assert!(
            victim_ids.contains(&(MSGS as u64 - 1)),
            "{name}: rejoined victim missed the final message, got {victim_ids:?}"
        );

        // The fault plan actually fired both faults.
        assert!(
            out.trace.drops(DropCause::TrunkDown) > 0,
            "{name}: the partition never dropped a frame"
        );
        assert!(
            out.trace.drops(DropCause::HostDown) > 0,
            "{name}: the crash never dropped a frame"
        );
        // The island went silent together; the detector noticed.
        assert!(
            ISLAND
                .iter()
                .any(|&r| out.evictions.iter().any(|&(e, _)| e.0 == r)),
            "{name}: no island rank was evicted: {:?}",
            out.evictions
        );
    }
}

/// Satellite: the seeded partition scenario is a pure function of its
/// inputs — two runs produce byte-identical network counters and the
/// same delivery record.
#[test]
fn partition_scenario_is_deterministic() {
    let (_, cfg) = families().remove(1); // nak: timers + polling + chaos
    let a = run(cfg, acceptance_plan(), 9);
    let b = run(cfg, acceptance_plan(), 9);
    assert_eq!(a.trace, b.trace, "trace counters diverged across reruns");
    assert_eq!(a.delivered_msgs, b.delivered_msgs);
    assert_eq!(a.joins, b.joins);
    assert_eq!(a.evictions, b.evictions);
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(
        a.sender_stats.stale_epoch_discarded,
        b.sender_stats.stale_epoch_discarded
    );
}
