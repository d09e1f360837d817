//! Churn and partition experiments: dynamic membership under receiver
//! crash-restart and inter-switch trunk outages.
//!
//! The paper fixes the group before the transfer starts; these runs turn
//! the PR's membership layer on (heartbeat failure detector, JOIN/SYNC
//! late-join, epoch-stamped feedback) and measure what each
//! acknowledgment topology pays when the group actually changes under
//! it. `churn_*` crash-restarts a receiver mid-transfer so it is
//! evicted and rejoins; `partition_*` severs the trunk between the two
//! cascaded switches and lets it heal.

use super::{families, rm_scenario, Effort};
use crate::scenario::{ChaosOutcome, Scenario};
use crate::table::Table;
use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, ProtocolConfig};
use rmwire::{Duration, Time};

/// Receivers in the churn runs (the sender is host 0, receivers are
/// hosts 1..=N).
const N: u16 = 8;

/// Several windows of work so the fault lands mid-transfer and there is
/// still traffic left when the victim rejoins.
const MSG: usize = 200_000;

/// Messages per run: the victim misses part of the stream while dead,
/// then observes later messages after rejoining.
const MSGS: usize = 6;

/// The four families with membership and bounded-retry liveness on.
fn member_families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = families(N);
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

fn churn_scenario(effort: Effort, cfg: ProtocolConfig, plan: FaultPlan) -> Scenario {
    let mut sc = rm_scenario(effort, cfg, N, MSG);
    sc.n_messages = MSGS;
    sc.fault_plan = plan;
    sc.time_cap = Duration::from_secs(60);
    sc
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
        out.evictions.len().to_string(),
        out.joins.len().to_string(),
        out.sender_stats.stale_epoch_discarded.to_string(),
        out.trace.total_drops().to_string(),
    ]);
}

const COLS: [&str; 9] = [
    "protocol",
    "fault",
    "bounded",
    "comm_s",
    "sent",
    "evictions",
    "joins",
    "stale_discarded",
    "drops",
];

/// A receiver crash-restarts mid-transfer: the detector evicts it, the
/// reboot rejoins through JOIN/SYNC, and the sender admits it at the
/// next message boundary.
pub fn churn_crash_rejoin(effort: Effort) -> Table {
    let mut t = Table::new(
        "churn_crash_rejoin",
        "Churn: receiver crash-restart mid-transfer, eviction then rejoin",
        &COLS,
    );
    // Host 2 = receiver rank 2: a ring token site and a tree leaf. The
    // reboot lands just after the ~300ms heartbeat eviction, while the
    // stream is still flowing, so the JOIN is admitted mid-run.
    let plan = FaultPlan::default().with_crash_restart(
        HostId(2),
        Time::from_millis(5),
        Time::from_millis(330),
    );
    for (name, cfg) in member_families() {
        let out = churn_scenario(effort, cfg, plan.clone()).run_chaos(1);
        push_outcome(&mut t, name, "crash@5ms,reboot@330ms", &out);
    }
    t.note("every family must evict the dead receiver, finish to the survivors, then re-admit it");
    t.note("stale_discarded counts pre-crash-epoch feedback the sender refused after the bump");
    t
}

/// The trunk between the two cascaded switches goes dark and heals:
/// every receiver behind the far switch is unreachable for the window.
pub fn partition_heal(effort: Effort) -> Table {
    let mut t = Table::new(
        "partition_heal",
        "Partition: inter-switch trunk outage and heal, membership on",
        &COLS,
    );
    let plan = FaultPlan::default().with_trunk_down(Time::from_millis(5), Time::from_millis(305));
    for (name, cfg) in member_families() {
        let mut sc = churn_scenario(effort, cfg, plan.clone());
        // > 16 hosts forces the two-switch split so the trunk matters.
        sc.n_receivers = 18;
        if let crate::scenario::Protocol::Rm(c) = &mut sc.protocol {
            if matches!(c.kind, rmcast::ProtocolKind::Ring) {
                c.window = 20; // ring needs window > receiver count
            }
        }
        let out = sc.run_chaos(1);
        push_outcome(&mut t, name, "trunk-down-300ms", &out);
    }
    t.note("receivers behind the far switch go silent together; the detector may evict the island");
    t.note("after the heal, evicted receivers are treated as rejoining on their next feedback");
    t
}
