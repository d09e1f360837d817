//! The byzantine soak: every protocol family under a *combined* hostile
//! plan — bursty loss, reordering, corrupted-but-delivered frames,
//! duplicates and replays all at once — with the CRC-32C integrity
//! trailer on. The contract is stronger than the chaos soak's liveness:
//! every delivery must be exactly-once AND bit-identical to what the
//! sender queued, with the corruption catches visible in the counters.

use netsim::FaultPlan;
use rmcast::{LivenessConfig, ProtocolConfig};
use rmwire::{Duration, Rank};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, Scenario};

const N: u16 = 8;
const MSG: usize = 200_000;

fn hardened_families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = experiments::families(N);
    for (_, cfg) in &mut v {
        cfg.integrity = true;
        cfg.liveness = LivenessConfig::bounded(40);
    }
    v
}

/// Loss + reorder + every byzantine delivery fault at once.
fn storm_plan() -> FaultPlan {
    FaultPlan::default()
        .with_burst(0.03, 6.0)
        .with_reorder(0.05, rmwire::Duration::from_micros(400))
        .with_corrupt_deliver(0.05)
        .with_duplicate(0.05)
        .with_replay(0.10)
}

fn storm(cfg: ProtocolConfig, seed: u64) -> (ChaosOutcome, u32) {
    let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
    sc.fault_plan = storm_plan();
    sc.time_cap = Duration::from_secs(60);
    let expect_crc = rmwire::crc32c(&sc.payload());
    (sc.run_chaos(seed), expect_crc)
}

/// The headline contract: under the full storm every family still
/// delivers to all 8 receivers, exactly once each, and every delivered
/// payload is bit-identical to the sent message.
#[test]
fn exactly_once_bit_intact_under_combined_storm() {
    for (name, cfg) in hardened_families() {
        let (out, expect_crc) = storm(cfg, 1);
        assert!(out.bounded(), "{name} hung under the byzantine storm");
        assert_eq!(out.messages_sent, 1, "{name}: message did not complete");
        assert!(out.failures.is_empty(), "{name}: {:?}", out.failures);

        // Exactly once: one delivery per receiver rank, no duplicates
        // smuggled through by the duplicate/replay faults.
        let mut ranks: Vec<Rank> = out.delivered_crcs.iter().map(|&(r, _, _)| r).collect();
        ranks.sort_by_key(|r| r.0);
        ranks.dedup();
        assert_eq!(
            out.delivered_crcs.len(),
            N as usize,
            "{name}: wrong delivery count (duplicate or missing delivery)"
        );
        assert_eq!(ranks.len(), N as usize, "{name}: a rank delivered twice");

        // Bit-intact: every payload CRC matches the sent message exactly.
        for &(rank, msg_id, crc) in &out.delivered_crcs {
            assert_eq!(
                crc, expect_crc,
                "{name}: {rank} delivered corrupted bytes for msg {msg_id}"
            );
        }

        // The storm actually fired, and the integrity layer caught flips.
        assert!(
            out.trace.byz_corrupt_delivered > 0,
            "{name}: corrupt_deliver never fired"
        );
        assert!(out.trace.byz_replays > 0, "{name}: replay never fired");
        let caught: u64 = out.sender_stats.integrity_fail
            + out.sender_stats.malformed_rx
            + out
                .receiver_stats
                .iter()
                .map(|s| s.integrity_fail + s.malformed_rx)
                .sum::<u64>();
        assert!(caught > 0, "{name}: no corrupted packet was ever caught");
    }
}

/// The same storm with a different seed: determinism within a seed and
/// robustness across seeds (the contract is not one lucky roll).
#[test]
fn storm_holds_across_seeds_and_is_deterministic() {
    let (cfg_name, cfg) = hardened_families()[1]; // nak-polling: chattiest
    for seed in [2u64, 3] {
        let (out, expect_crc) = storm(cfg, seed);
        assert!(out.bounded(), "{cfg_name} seed {seed} hung");
        assert_eq!(out.delivered_crcs.len(), N as usize, "seed {seed}");
        assert!(out.delivered_crcs.iter().all(|&(_, _, c)| c == expect_crc));
    }
    // Same seed twice: identical outcome counters (the byzantine faults
    // draw from the same deterministic rng stream).
    let (a, _) = storm(cfg, 5);
    let (b, _) = storm(cfg, 5);
    assert_eq!(a.delivered_crcs, b.delivered_crcs);
    assert_eq!(a.trace.byz_corrupt_delivered, b.trace.byz_corrupt_delivered);
    assert_eq!(a.trace.byz_replays, b.trace.byz_replays);
    assert_eq!(a.trace.byz_duplicates, b.trace.byz_duplicates);
}

/// Without the integrity trailer the same storm *must* corrupt at least
/// one delivery for at least one family/seed — proving the soak's
/// corruption pressure is real and the CRC is what defends it, not luck.
#[test]
fn storm_corrupts_deliveries_without_integrity() {
    let mut saw_corruption = false;
    for (_, mut cfg) in hardened_families() {
        cfg.integrity = false;
        for seed in 1u64..=2 {
            let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
            sc.fault_plan = storm_plan();
            sc.time_cap = Duration::from_secs(60);
            let expect_crc = rmwire::crc32c(&sc.payload());
            let out = sc.run_chaos(seed);
            if out
                .delivered_crcs
                .iter()
                .any(|&(_, _, crc)| crc != expect_crc)
            {
                saw_corruption = true;
            }
        }
        if saw_corruption {
            break;
        }
    }
    assert!(
        saw_corruption,
        "storm never corrupted an unprotected delivery: corruption pressure too weak for the soak to mean anything"
    );
}
