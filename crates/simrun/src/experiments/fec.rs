//! The fec family's evaluation: loss sweeps across all five protocol
//! families and the repair-economy comparison against plain NAK
//! retransmission.
//!
//! The paper's four families all repair loss by retransmitting the lost
//! packet itself — one transmission per (lost packet, eventually). The
//! coded family multicasts one XOR block that simultaneously heals
//! different losses at different receivers, plus proactive parity that
//! heals single losses with no feedback round trip at all. These tables
//! make that trade visible: repair transmissions and completion time as
//! loss climbs.

use super::{families, fec_cfg, nak_cfg, rm_scenario, Effort, N_RECEIVERS};
use crate::scenario::ChaosOutcome;
use crate::table::Table;
use netsim::FaultPlan;
use rmcast::{LivenessConfig, ProtocolConfig};
use rmwire::Duration;

/// Receivers in the sweep rows (the economy table uses the paper's 30).
const N: u16 = 8;

/// Message size: ~25 data packets per protocol at 8 kB.
const MSG: usize = 200_000;

/// All five families, liveness bounded so lossy runs abort typed rather
/// than hang. Mid-range windows, untuned — the sweep measures loss
/// resilience, not peak throughput.
fn bounded_families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = families(N);
    for (_, cfg) in &mut v {
        cfg.liveness = LivenessConfig::bounded(40);
    }
    v
}

const COLS: [&str; 9] = [
    "protocol", "loss", "bounded", "comm_s", "retx", "repairs", "parity", "decoded", "drops",
];

fn push_outcome(t: &mut Table, name: &str, loss: f64, out: &ChaosOutcome) {
    let s = &out.sender_stats;
    let decoded: u64 = out.receiver_stats.iter().map(|r| r.repairs_decoded).sum();
    t.push_row(vec![
        name.to_string(),
        format!("{:.0}%", loss * 100.0),
        out.completed.to_string(),
        out.comm_time
            .map(|d| format!("{:.4}", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into()),
        s.retx_sent.to_string(),
        s.repairs_sent.to_string(),
        s.parity_sent.to_string(),
        decoded.to_string(),
        out.trace.total_drops().to_string(),
    ]);
}

/// Loss sweep, all five families: 1% / 5% / 10% / 20% lightly bursty
/// random loss. The coded family's recovery shifts from plain
/// retransmissions into coded repairs and proactive parity as loss
/// climbs; the other four pay one retransmission per loss event.
pub fn fec_loss_sweep(effort: Effort) -> Table {
    let mut t = Table::new(
        "fec_loss_sweep",
        "Loss sweep, five families: repair traffic and completion time vs loss rate",
        &COLS,
    );
    let rates = effort.thin(&[0.01, 0.05, 0.10, 0.20]);
    for &loss in &rates {
        let plan = FaultPlan::default().with_burst(loss, 2.0);
        for (name, cfg) in bounded_families() {
            let mut sc = rm_scenario(effort, cfg, N, MSG);
            sc.fault_plan = plan.clone();
            sc.time_cap = Duration::from_secs(60);
            let out = sc.run_chaos(1);
            push_outcome(&mut t, name, loss, &out);
        }
    }
    t.note(
        "repairs/parity are fec-only columns; the other families repair by retransmission alone",
    );
    t.note("one coded repair can heal different losses at different receivers simultaneously");
    t
}

/// The repair-economy headline at paper scale: 500 kB to 30 receivers at
/// 5% loss, NAK-polling vs fec. The coded family must finish with fewer
/// repair transmissions (retransmissions + coded blocks) than NAK's
/// retransmission count — the claim the fec soak asserts.
pub fn fec_repair_economy(effort: Effort) -> Table {
    let mut t = Table::new(
        "fec_repair_economy",
        "Repair economy at N=30, 500 kB, 5% loss: plain retransmission vs coded repair",
        &COLS,
    );
    let pairs: Vec<(&str, ProtocolConfig)> = vec![
        ("nak", nak_cfg(8_000, 16, 8)),
        ("fec", fec_cfg(8_000, 16, 8)),
    ];
    for &loss in &[0.05, 0.10] {
        let plan = FaultPlan::default().with_burst(loss, 2.0);
        for (name, mut cfg) in pairs.clone() {
            cfg.liveness = LivenessConfig::bounded(40);
            let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
            sc.fault_plan = plan.clone();
            sc.time_cap = Duration::from_secs(120);
            let out = sc.run_chaos(1);
            push_outcome(&mut t, name, loss, &out);
        }
    }
    t.note("fec's retx+repairs must undercut nak's retx: one multicast block heals many receivers");
    t.note("decoded counts receiver-side reconstructions; useless/replayed blocks are not in it");
    t
}
