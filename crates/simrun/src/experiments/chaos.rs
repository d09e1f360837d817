//! Chaos campaign: every protocol family under injected faults, with the
//! liveness knobs on, asserting the bounded-time contract — deliver to
//! every live receiver or abort with a typed error, never hang.
//!
//! These experiments go beyond the paper (which measured fault-free
//! runs): they answer "what happens to each acknowledgment topology when
//! the network or a member actually misbehaves?" The scenarios reuse the
//! calibrated testbed, so the numbers are comparable with fig08–fig21.

use super::{families, rm_scenario, Effort};
use crate::scenario::ChaosOutcome;
use crate::table::Table;
use netsim::{FaultPlan, HostId};
use rmcast::LivenessConfig;
use rmwire::{Duration, Time};

/// Receivers in the chaos runs: small enough to keep soak tests quick,
/// large enough that ring and tree have real structure.
const N: u16 = 8;

/// Message size: ~25 data packets per protocol, several RTTs of work.
const MSG: usize = 200_000;

/// One fault of the campaign grid: its label, its plan, and the liveness
/// settings every family runs it with.
type Fault = (&'static str, FaultPlan, LivenessConfig);

/// The campaign's faults. Window/packet settings stay the campaign-scale
/// [`families`]: chaos measures robustness, not peak throughput.
fn grid() -> [Fault; 4] {
    [
        (
            "burst-5%",
            FaultPlan::default().with_burst(0.05, 8.0),
            LivenessConfig::bounded(20),
        ),
        (
            "crash@4ms",
            FaultPlan::default().with_crash(HostId(1), Time::from_millis(4)),
            LivenessConfig::evicting(6),
        ),
        (
            "down-200ms",
            FaultPlan::default().with_link_down(
                HostId(2),
                Time::from_millis(3),
                Time::from_millis(203),
            ),
            LivenessConfig::PAPER,
        ),
        (
            "pause-150ms",
            FaultPlan::default().with_pause(
                HostId(3),
                Time::from_millis(2),
                Time::from_millis(152),
            ),
            LivenessConfig::bounded(20),
        ),
    ]
}

/// One row per family under `fault`, each run capped at `time_cap` where
/// one is given (the scenario's default otherwise).
fn push_fault(t: &mut Table, effort: Effort, fault: Fault, time_cap: Option<Duration>) {
    let (label, plan, liveness) = fault;
    for (name, mut cfg) in families(N) {
        cfg.liveness = liveness;
        let mut sc = rm_scenario(effort, cfg, N, MSG);
        sc.fault_plan = plan.clone();
        if let Some(cap) = time_cap {
            sc.time_cap = cap;
        }
        push_outcome(t, name, label, &sc.run_chaos(1));
    }
}

fn push_outcome(t: &mut Table, name: &str, fault: &str, out: &ChaosOutcome) {
    t.push_row(vec![
        name.to_string(),
        fault.to_string(),
        out.completed.to_string(),
        out.comm_time
            .map(|d| format!("{:.4}", d.as_secs_f64()))
            .unwrap_or_else(|| "-".into()),
        out.messages_sent.to_string(),
        out.failures.len().to_string(),
        out.evictions.len().to_string(),
        out.trace.total_drops().to_string(),
    ]);
}

const COLS: [&str; 8] = [
    "protocol",
    "fault",
    "bounded",
    "comm_s",
    "sent",
    "failures",
    "evictions",
    "drops",
];

/// Gilbert–Elliott burst loss at 5% average: every family must still
/// complete (retransmission absorbs correlated loss), just slower.
pub fn chaos_burst_loss(effort: Effort) -> Table {
    let mut t = Table::new(
        "chaos_burst_loss",
        "Chaos: 5% bursty loss (Gilbert-Elliott, mean burst 8 frames)",
        &COLS,
    );
    let [burst, ..] = grid();
    push_fault(&mut t, effort, burst, None);
    t.note("bursty loss stresses go-back-n hardest: one bad burst loses a whole window");
    t.note("all families must report bounded=true: loss is recoverable, so runs complete");
    t
}

/// A receiver host crashes mid-transfer. The crashed host is rank 1's —
/// which is simultaneously the first ring token site and a tree interior
/// (aggregation) node, so one plan exercises the eviction, token-skip and
/// ack-rerouting paths of the respective families.
pub fn chaos_crash(effort: Effort) -> Table {
    let mut t = Table::new(
        "chaos_crash",
        "Chaos: receiver crash mid-transfer (rank 1 = token site / interior node)",
        &COLS,
    );
    let [_, crash, ..] = grid();
    push_fault(&mut t, effort, crash, None);
    t.note("with eviction on, the sender completes to the 7 survivors and reports the eviction");
    t.note("ring must skip the dead token site; tree must reroute the ack chain around the dead interior node");
    t
}

/// A receiver's access link goes dark for a window, then comes back.
/// With paper-faithful liveness (retry forever) every family must ride
/// out the outage and still complete — no eviction, just delay.
pub fn chaos_link_down(effort: Effort) -> Table {
    let mut t = Table::new(
        "chaos_link_down",
        "Chaos: 200ms link outage on one receiver edge, paper-faithful retries",
        &COLS,
    );
    let [_, _, down, _] = grid();
    push_fault(&mut t, effort, down, None);
    t.note("paper-faithful retries ride out a transient outage: bounded=true with zero evictions");
    t.note(
        "comm_s lower-bounds at ~0.2s: nothing completes before the partitioned receiver returns",
    );
    t
}

/// One row per (family, fault) over the whole grid — the campaign
/// summary the soak test replays with assertions.
pub fn chaos_campaign(effort: Effort) -> Table {
    let mut t = Table::new(
        "chaos_campaign",
        "Chaos campaign summary: protocol x fault grid, liveness knobs on",
        &COLS,
    );
    for fault in grid() {
        // Faulted runs can legitimately need longer than a clean run, but
        // the cap is the watchdog: a hang surfaces as bounded=false.
        push_fault(&mut t, effort, fault, Some(Duration::from_secs(60)));
    }
    t.note("every row must show bounded=true: the liveness contract holds across the grid");
    t
}
