//! Byzantine campaign: the protocol families under *hostile* faults —
//! corrupted-but-delivered frames, duplicates, replays of stale datagrams
//! — with the CRC-32C integrity trailer on, plus the deterministic
//! decode-fuzz table.
//!
//! Where the chaos campaign (chaos.rs) asks "does the group stay live
//! when the network loses things?", this one asks "does it stay *correct*
//! when the network actively lies?" — the threat model of
//! docs/THREAT_MODEL.md.

use super::{families, rm_scenario, Effort};
use crate::table::Table;
use netsim::FaultPlan;
use rmcast::{LivenessConfig, ProtocolConfig};
use rmwire::Duration;

/// Same scale as the chaos runs so numbers are comparable.
const N: u16 = 8;
const MSG: usize = 200_000;

/// The four families with integrity sealing and bounded liveness on:
/// byzantine traffic must neither corrupt a delivery nor hang a retry
/// loop.
fn hardened_families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = families(N);
    v.truncate(4);
    for (_, cfg) in &mut v {
        cfg.integrity = true;
        cfg.liveness = LivenessConfig::bounded(40);
    }
    v
}

/// Protocol families under a combined byzantine storm: 5% of datagrams
/// corrupted *and delivered*, 5% duplicated, 10% replayed from a stale
/// ring. Every row must deliver bit-intact (`intact == deliveries`) with
/// the integrity counters showing the catches.
pub fn byzantine_storm(effort: Effort) -> Table {
    let mut t = Table::new(
        "byzantine_storm",
        "Byzantine storm: corrupt-deliver 5% + duplicate 5% + replay 10%, integrity on",
        &[
            "protocol",
            "bounded",
            "comm_s",
            "deliveries",
            "intact",
            "corrupted",
            "replayed",
            "integrity_fail",
            "malformed",
        ],
    );
    let plan = FaultPlan::default()
        .with_corrupt_deliver(0.05)
        .with_duplicate(0.05)
        .with_replay(0.10);
    for (name, cfg) in hardened_families() {
        let mut sc = rm_scenario(effort, cfg, N, MSG);
        sc.fault_plan = plan.clone();
        sc.time_cap = Duration::from_secs(60);
        let expect_crc = rmwire::crc32c(&sc.payload());
        let out = sc.run_chaos(1);
        let intact = out
            .delivered_crcs
            .iter()
            .filter(|&&(_, _, crc)| crc == expect_crc)
            .count();
        let integrity_fail: u64 = out.sender_stats.integrity_fail
            + out
                .receiver_stats
                .iter()
                .map(|s| s.integrity_fail)
                .sum::<u64>();
        let malformed: u64 = out.sender_stats.malformed_rx
            + out
                .receiver_stats
                .iter()
                .map(|s| s.malformed_rx)
                .sum::<u64>();
        t.push_row(vec![
            name.to_string(),
            out.completed.to_string(),
            out.comm_time
                .map(|d| format!("{:.4}", d.as_secs_f64()))
                .unwrap_or_else(|| "-".into()),
            out.deliveries.to_string(),
            intact.to_string(),
            out.trace.byz_corrupt_delivered.to_string(),
            out.trace.byz_replays.to_string(),
            integrity_fail.to_string(),
            malformed.to_string(),
        ]);
    }
    t.note("intact must equal deliveries: the CRC-32C trailer turns corrupted deliveries into counted drops, never into delivered garbage");
    t.note("replays and duplicates surface as duplicate discards, not double deliveries: exactly-once holds");
    t
}

/// The deterministic decode fuzz, tabulated per mutation kind. The same
/// seed always produces the same table — CI runs a thinner iteration
/// count of the identical stream.
pub fn fuzz_decode(effort: Effort) -> Table {
    let mut t = Table::new(
        "fuzz_decode",
        "Structure-aware decode fuzz: outcome per mutation kind (seed 0xD15EA5E)",
        &["mutation", "decoded_ok", "rejected", "total"],
    );
    // FULL sweeps a million-plus packets; QUICK thins by the stride.
    let iters = 1_200_000 / effort.stride as u64;
    let tally = rmfuzz::fuzz_decode(0xD15EA5E, iters);
    for &(kind, ok, rejected) in &tally.per_kind {
        t.push_row(vec![
            kind.name().to_string(),
            ok.to_string(),
            rejected.to_string(),
            (ok + rejected).to_string(),
        ]);
    }
    t.note(format!(
        "{} mutated packets through both decode modes, zero panics; the stream is reproducible byte-for-byte from the seed",
        tally.total()
    ));
    t.note("passthrough decodes split by mode (unsealed packets fail strict decode); garbage and truncations are rejected structurally");
    t
}
