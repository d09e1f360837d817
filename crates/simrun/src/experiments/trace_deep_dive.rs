//! A single heavily-instrumented run: full packet-lifecycle trace under
//! bursty loss, digested into a report and written out as a JSONL
//! artifact that `rmreport` (and any external tooling) can consume.
//!
//! Unlike the figure experiments — which sweep a parameter and average
//! seeds — this one goes deep on one execution: every send, arrival,
//! retransmission, ack/nak, timer firing and fabric drop of a NAK-polling
//! transfer over the calibrated testbed, with 5% Gilbert–Elliott burst
//! loss to make the recovery machinery actually fire.

use super::{nak_cfg, rm_scenario, Effort};
use crate::report::{lifecycle, lifecycle_complete, pick_packet, Report};
use crate::table::Table;
use netsim::FaultPlan;

/// Receivers: matches the chaos campaign scale.
const N: u16 = 8;

/// Message size: ~25 data packets, several RTTs of work.
const MSG: usize = 200_000;

/// Where the JSONL trace artifact lands (relative to the working
/// directory; the experiments binary runs from the repo root).
pub const TRACE_ARTIFACT: &str = "results/trace_deep_dive.jsonl";

/// One traced NAK-polling run under burst loss: per-receiver delivery
/// latency percentiles as rows, trace digest and one complete packet
/// lifecycle in the notes, raw trace written to [`TRACE_ARTIFACT`].
pub fn trace_deep_dive(effort: Effort) -> Table {
    let mut t = Table::new(
        "trace_deep_dive",
        "Packet-lifecycle trace: NAK-polling, 8 receivers, 200KB, 5% burst loss",
        &[
            "rank",
            "deliveries",
            "lat_p50",
            "lat_p90",
            "lat_p99",
            "lat_max",
        ],
    );
    let mut sc = rm_scenario(effort, nak_cfg(8_000, 16, 8), N, MSG);
    sc.fault_plan = FaultPlan::default().with_burst(0.05, 8.0);
    let (result, records) = sc.run_traced(1);

    // Persist the raw trace for rmreport (best effort: the experiment
    // still reports even when the working directory is read-only).
    let jsonl: String = records.iter().map(|r| r.to_json() + "\n").collect();
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(TRACE_ARTIFACT, &jsonl))
        .is_ok();

    let report = Report::digest(&records);
    for (rank, hist) in &report.latency_by_rank {
        t.push_row(vec![
            rank.to_string(),
            hist.count().to_string(),
            rmtrace::hist::fmt_ns(hist.p50()),
            rmtrace::hist::fmt_ns(hist.p90()),
            rmtrace::hist::fmt_ns(hist.p99()),
            rmtrace::hist::fmt_ns(hist.max()),
        ]);
    }

    t.note(format!(
        "trace: {} records over {:.3}s of virtual time; comm_time {:.4}s",
        report.records,
        (report.span_ns.1 - report.span_ns.0) as f64 / 1e9,
        result.comm_time.as_secs_f64(),
    ));
    t.note(format!(
        "recovery: {} retransmissions; drops by cause: {}",
        report.retransmits.len(),
        if report.drops_by_cause.is_empty() {
            "none".to_string()
        } else {
            report
                .drops_by_cause
                .iter()
                .map(|(c, n)| format!("{c}={n}"))
                .collect::<Vec<_>>()
                .join(" ")
        },
    ));
    t.note(format!(
        "control overhead: handshake {:.3} ctrl/data ({} acks, {} naks), data phase {:.3} ctrl/data ({} acks, {} naks)",
        report.handshake.control_per_data(),
        report.handshake.acks,
        report.handshake.naks,
        report.data_phase.control_per_data(),
        report.data_phase.acks,
        report.data_phase.naks,
    ));
    if let Some((transfer, seq)) = pick_packet(&records) {
        let events = lifecycle(&records, transfer, seq);
        t.note(format!(
            "lifecycle of transfer {transfer} seq {seq} ({}): {}",
            if lifecycle_complete(&events) {
                "complete: sent, received, delivered"
            } else {
                "incomplete"
            },
            events
                .iter()
                .map(|r| format!("{}@rank{}@{}ns", r.ev.name(), r.rank, r.t_ns))
                .collect::<Vec<_>>()
                .join(" -> "),
        ));
    }
    if written {
        t.note(format!(
            "raw trace written to {TRACE_ARTIFACT}; inspect with: cargo run --bin rmreport -- {TRACE_ARTIFACT}"
        ));
    }
    t
}
