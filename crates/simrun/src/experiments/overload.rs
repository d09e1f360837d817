//! Overload campaign: feedback storms at the sender, saturated receiver
//! CPUs and exhausted socket buffers — the graceful-degradation
//! scenarios behind the AIMD window, storm shedding and slow-receiver
//! quarantine machinery ([`rmcast::OverloadConfig`]).
//!
//! The paper measured fault-free throughput; these runs answer "what
//! does each acknowledgment topology do when feedback itself becomes
//! the load?" Every row reports the sender's overload counters next to
//! the liveness outcome, so shrink/recover and quarantine activity are
//! visible in the table, not just in traces.

use super::{families, rm_scenario, Effort};
use crate::scenario::{ChaosOutcome, Scenario};
use crate::table::Table;
use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, OverloadConfig, ProtocolConfig};
use rmwire::{Duration, Time};

/// Receivers in the overload runs (the soak test scales to the paper's
/// 30; the tables stay small for quick regeneration).
const N: u16 = 8;

/// Message size: ~25 data packets, several windows of work.
const MSG: usize = 200_000;

/// The five families with the adaptive overload profile on. The ring
/// sender keeps its AIMD floor above the group size itself, so the token
/// rotation always has a full circuit of outstanding packets to ride on.
fn adaptive_families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = families(N);
    for (_, cfg) in &mut v {
        cfg.liveness = LivenessConfig::evicting(30);
        cfg.overload = OverloadConfig::adaptive(cfg.window);
        // Sub-ms simulated RTTs: a short RTO keeps timeout streaks (the
        // quarantine trigger) within the run instead of past it.
        cfg.rto = rmwire::Duration::from_millis(20);
    }
    v
}

fn overload_scenario(effort: Effort, cfg: ProtocolConfig, plan: FaultPlan) -> Scenario {
    let mut sc = rm_scenario(effort, cfg, N, MSG);
    sc.fault_plan = plan;
    sc.time_cap = Duration::from_secs(60);
    sc
}

const COLS: [&str; 11] = [
    "protocol", "fault", "bounded", "comm_s", "sent", "shrinks", "grows", "shed", "quar_in",
    "quar_out", "drops",
];

fn push_outcome(t: &mut Table, name: &str, fault: &str, out: &ChaosOutcome) {
    let s = &out.sender_stats;
    t.push_row(vec![
        name.to_string(),
        fault.to_string(),
        out.bounded().to_string(),
        out.comm_time
            .map(|d| format!("{:.4}", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into()),
        out.messages_sent.to_string(),
        s.window_shrinks.to_string(),
        s.window_grows.to_string(),
        (s.acks_shed + s.naks_shed + s.naks_collapsed).to_string(),
        s.quarantine_entered.to_string(),
        (s.quarantine_rejoined + s.quarantine_evicted).to_string(),
        out.trace.total_drops().to_string(),
    ]);
}

/// A feedback storm at the sender: every control datagram it receives is
/// amplified 4x for the bulk of the transfer. The token-bucket shedder
/// and duplicate-NAK collapse keep the sender responsive; AIMD backs the
/// window off under the induced timeouts and recovers afterwards.
pub fn overload_nak_storm(effort: Effort) -> Table {
    let mut t = Table::new(
        "overload_nak_storm",
        "Overload: 4x feedback amplification at the sender (ACK/NAK implosion)",
        &COLS,
    );
    let plan = storm_plan();
    for (name, cfg) in adaptive_families() {
        let out = overload_scenario(effort, cfg, plan.clone()).run_chaos(1);
        push_outcome(&mut t, name, "storm-4x", &out);
    }
    t.note("shed counts the feedback the token bucket refused plus collapsed duplicate NAKs");
    t.note("every family must stay bounded: a feedback storm is load, not loss");
    t
}

/// One receiver runs on a 25x-saturated CPU and goes fully dark for a
/// 240ms blackout: it stays correct but lags far behind the group. The
/// sender quarantines it — the window stops gating on it, bounded
/// unicast catch-up batches serve it — and it either rejoins at the
/// message boundary or is evicted on the liveness path when its
/// catch-up budget runs dry.
pub fn overload_slow_receiver(effort: Effort) -> Table {
    let mut t = Table::new(
        "overload_slow_receiver",
        "Overload: one receiver on a 25x-saturated CPU with a 240ms blackout (quarantine path)",
        &COLS,
    );
    let plan = slow_plan();
    for (name, cfg) in adaptive_families() {
        let out = overload_scenario(effort, cfg, plan.clone()).run_chaos(1);
        push_outcome(&mut t, name, "cpu-25x", &out);
    }
    t.note("quar_in / quar_out show the quarantine lifecycle: enter, then rejoin or evict");
    t.note("the fast majority's completion no longer waits on the saturated host");
    t
}

/// One receiver's socket buffer is exhausted for a window mid-transfer:
/// everything addressed to it drops as SockBufFull (the paper's dominant
/// loss mode, here forced). Recovery must not collapse the group.
pub fn overload_sockbuf(effort: Effort) -> Table {
    let mut t = Table::new(
        "overload_sockbuf",
        "Overload: 40ms socket-buffer exhaustion on one receiver",
        &COLS,
    );
    let plan = sockbuf_plan();
    for (name, cfg) in adaptive_families() {
        let out = overload_scenario(effort, cfg, plan.clone()).run_chaos(1);
        push_outcome(&mut t, name, "sockbuf-40ms", &out);
    }
    t.note("forced SockBufFull drops surface in the drops column; families must recover or evict");
    t
}

/// One row per (family, fault) across the overload grid — the summary
/// the overload soak replays with assertions.
pub fn overload_campaign(effort: Effort) -> Table {
    let mut t = Table::new(
        "overload_campaign",
        "Overload campaign summary: protocol x overload-fault grid, adaptive profile on",
        &COLS,
    );
    let grid: Vec<(&str, FaultPlan)> = vec![
        ("storm-4x", storm_plan()),
        ("cpu-25x", slow_plan()),
        ("sockbuf-40ms", sockbuf_plan()),
    ];
    for (fault, plan) in &grid {
        for (name, cfg) in adaptive_families() {
            let out = overload_scenario(effort, cfg, plan.clone()).run_chaos(1);
            push_outcome(&mut t, name, fault, &out);
        }
    }
    t.note("every row must show bounded=true: graceful degradation, never a hang");
    t
}

fn storm_plan() -> FaultPlan {
    FaultPlan::default().with_feedback_storm(
        HostId(0),
        Time::from_millis(2),
        Time::from_millis(2_000),
        4,
    )
}

fn slow_plan() -> FaultPlan {
    FaultPlan::default()
        .with_slow_host(HostId(1), 25.0)
        .with_sockbuf_exhaust(HostId(1), Time::from_millis(10), Time::from_millis(250))
}

fn sockbuf_plan() -> FaultPlan {
    FaultPlan::default().with_sockbuf_exhaust(
        HostId(1),
        Time::from_millis(2),
        Time::from_millis(42),
    )
}
