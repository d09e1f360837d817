//! Trace analysis: digest a packet-lifecycle trace into a run report.
//!
//! Consumed two ways: the `rmreport` binary reads a JSONL trace file back
//! into [`TraceRecord`]s with [`rmtrace::parse_jsonl`], and the
//! `trace_deep_dive` experiment hands over the records of a traced
//! scenario run as they are. Both paths match on [`TraceEvent`] variants,
//! so the report is written once, against the types that wrote the trace.

use rmtrace::hist::fmt_ns;
use rmtrace::{Histogram, TraceEvent, TraceRecord};
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Packet counts for one protocol phase (allocation handshake vs data).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PhaseCounts {
    /// Fresh data packets sent.
    pub data_sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Acknowledgments sent.
    pub acks: u64,
    /// Negative acknowledgments sent.
    pub naks: u64,
}

impl PhaseCounts {
    /// Control packets (acks + naks) per data packet on the wire.
    pub fn control_per_data(&self) -> f64 {
        let data = self.data_sent + self.retransmits;
        if data == 0 {
            0.0
        } else {
            (self.acks + self.naks) as f64 / data as f64
        }
    }
}

/// A digested trace: everything the report renders, exposed as data so
/// tests can assert on the numbers rather than scrape text.
#[derive(Debug, Default)]
pub struct Report {
    /// Total records digested.
    pub records: usize,
    /// First and last timestamp in the trace, nanoseconds.
    pub span_ns: (u64, u64),
    /// Event counts by type name.
    pub event_counts: BTreeMap<&'static str, u64>,
    /// Drops by cause name.
    pub drops_by_cause: BTreeMap<&'static str, u64>,
    /// Retransmissions in trace order: `(t_ns, rank, transfer, seq, nth)`.
    pub retransmits: Vec<(u64, u16, u32, u32, u32)>,
    /// Per-receiver delivery latency (first wire send of a transfer to
    /// that receiver's `Delivered`), keyed by rank.
    pub latency_by_rank: BTreeMap<u16, Histogram>,
    /// Wire activity during the allocation handshake (even transfer ids).
    pub handshake: PhaseCounts,
    /// Wire activity during the data phase (odd transfer ids).
    pub data_phase: PhaseCounts,
}

impl Report {
    /// Digest a trace.
    pub fn digest(records: &[TraceRecord]) -> Report {
        let mut r = Report {
            records: records.len(),
            ..Report::default()
        };
        if let (Some(first), Some(last)) = (records.first(), records.last()) {
            r.span_ns = (first.t_ns, last.t_ns);
        }
        // First time each transfer hit the wire, for latency matching.
        let mut first_sent: HashMap<u32, u64> = HashMap::new();
        for rec in records {
            *r.event_counts.entry(rec.ev.name()).or_insert(0) += 1;
            match rec.ev {
                TraceEvent::DataSent { transfer, .. } => {
                    r.phase(transfer).data_sent += 1;
                    first_sent.entry(transfer).or_insert(rec.t_ns);
                }
                TraceEvent::Retransmit { transfer, seq, nth } => {
                    r.phase(transfer).retransmits += 1;
                    r.retransmits.push((rec.t_ns, rec.rank, transfer, seq, nth));
                }
                TraceEvent::AckSent { transfer, .. } => r.phase(transfer).acks += 1,
                TraceEvent::NakSent { transfer, .. } => r.phase(transfer).naks += 1,
                TraceEvent::Delivered { transfer, .. } => {
                    if let Some(&t0) = first_sent.get(&transfer) {
                        r.latency_by_rank
                            .entry(rec.rank)
                            .or_default()
                            .record(rec.t_ns.saturating_sub(t0));
                    }
                }
                TraceEvent::Drop { cause } => {
                    *r.drops_by_cause.entry(cause.name()).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        r
    }

    /// The counts of `transfer`'s phase: even ids are allocation
    /// handshakes, odd ones data.
    fn phase(&mut self, transfer: u32) -> &mut PhaseCounts {
        if transfer.is_multiple_of(2) {
            &mut self.handshake
        } else {
            &mut self.data_phase
        }
    }

    /// Render the report as aligned text.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "== Trace summary ==");
        let _ = writeln!(
            s,
            "records: {}   span: {} .. {} ({})",
            self.records,
            fmt_ns(self.span_ns.0),
            fmt_ns(self.span_ns.1),
            fmt_ns(self.span_ns.1.saturating_sub(self.span_ns.0)),
        );
        for (ev, n) in &self.event_counts {
            let _ = writeln!(s, "  {ev:<14} {n}");
        }

        let _ = writeln!(s, "\n== Network drops by cause ==");
        if self.drops_by_cause.is_empty() {
            let _ = writeln!(s, "  (none)");
        }
        for (cause, n) in &self.drops_by_cause {
            let _ = writeln!(s, "  {cause:<20} {n}");
        }

        let _ = writeln!(s, "\n== Retransmission timeline ==");
        if self.retransmits.is_empty() {
            let _ = writeln!(s, "  (none)");
        }
        const MAX_LINES: usize = 40;
        for &(t, rank, transfer, seq, nth) in self.retransmits.iter().take(MAX_LINES) {
            let _ = writeln!(
                s,
                "  {:>12}  rank {rank:<3} transfer {transfer:<4} seq {seq:<5} nth {nth}",
                fmt_ns(t)
            );
        }
        if self.retransmits.len() > MAX_LINES {
            let _ = writeln!(s, "  ... {} more", self.retransmits.len() - MAX_LINES);
        }

        let _ = writeln!(s, "\n== Delivery latency per receiver ==");
        if self.latency_by_rank.is_empty() {
            let _ = writeln!(s, "  (no deliveries traced)");
        }
        for (rank, hist) in &self.latency_by_rank {
            let _ = writeln!(s, "  rank {rank:<3} {}", hist.summary_ns());
        }

        let _ = writeln!(s, "\n== Control overhead per phase ==");
        let _ = writeln!(
            s,
            "  {:<10} {:>6} {:>6} {:>6} {:>6} {:>10}",
            "phase", "data", "retx", "acks", "naks", "ctrl/data"
        );
        for (name, c) in [("handshake", &self.handshake), ("data", &self.data_phase)] {
            let _ = writeln!(
                s,
                "  {:<10} {:>6} {:>6} {:>6} {:>6} {:>10.3}",
                name,
                c.data_sent,
                c.retransmits,
                c.acks,
                c.naks,
                c.control_per_data()
            );
        }
        s
    }
}

/// Pick the most interesting data packet in the trace to narrate: the
/// `(transfer, seq)` with the most retransmissions, falling back to the
/// first packet sent. `None` on an empty trace.
pub fn pick_packet(records: &[TraceRecord]) -> Option<(u32, u32)> {
    let mut retx: HashMap<(u32, u32), u32> = HashMap::new();
    let mut first: Option<(u32, u32)> = None;
    for rec in records {
        match rec.ev {
            TraceEvent::Retransmit { transfer, seq, .. } => {
                *retx.entry((transfer, seq)).or_insert(0) += 1;
            }
            TraceEvent::DataSent { transfer, seq } if first.is_none() => {
                first = Some((transfer, seq));
            }
            _ => {}
        }
    }
    retx.into_iter()
        // Deterministic tie-break: lowest (transfer, seq) among the most
        // retransmitted.
        .max_by_key(|&(key, n)| (n, std::cmp::Reverse(key)))
        .map(|(key, _)| key)
        .or(first)
}

/// Every trace record touching packet `(transfer, seq)`: its sends,
/// retransmissions, per-receiver arrivals and discards, plus the
/// `Delivered` events that closed its transfer. Trace order (which is
/// time order within an endpoint) is preserved.
pub fn lifecycle(records: &[TraceRecord], transfer: u32, seq: u32) -> Vec<&TraceRecord> {
    records
        .iter()
        .filter(|rec| match rec.ev {
            TraceEvent::DataSent {
                transfer: t,
                seq: s,
            }
            | TraceEvent::Retransmit {
                transfer: t,
                seq: s,
                ..
            }
            | TraceEvent::DataRecv {
                transfer: t,
                seq: s,
            }
            | TraceEvent::DataDiscarded {
                transfer: t,
                seq: s,
            } => t == transfer && s == seq,
            TraceEvent::Delivered { transfer: t, .. } => t == transfer,
            _ => false,
        })
        .collect()
}

/// `true` when `events` (as returned by [`lifecycle`]) tells the whole
/// story: the packet was sent, accepted by at least one receiver, and its
/// transfer was delivered.
pub fn lifecycle_complete(events: &[&TraceRecord]) -> bool {
    let has = |f: fn(&TraceEvent) -> bool| events.iter().any(|r| f(&r.ev));
    has(|e| matches!(e, TraceEvent::DataSent { .. }))
        && has(|e| matches!(e, TraceEvent::DataRecv { .. }))
        && has(|e| matches!(e, TraceEvent::Delivered { .. }))
}

/// Render a lifecycle as aligned text lines.
pub fn render_lifecycle(transfer: u32, seq: u32, events: &[&TraceRecord]) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Packet lifecycle: transfer {transfer}, seq {seq} ==");
    if events.is_empty() {
        let _ = writeln!(s, "  (no matching records)");
        return s;
    }
    for rec in events {
        let detail = match rec.ev {
            TraceEvent::Retransmit { nth, .. } => format!("  nth={nth}"),
            TraceEvent::Delivered { msg_id, .. } => format!("  msg_id={msg_id}"),
            _ => String::new(),
        };
        let _ = writeln!(
            s,
            "  {:>12}  rank {:<3} {}{}",
            fmt_ns(rec.t_ns),
            rec.rank,
            rec.ev.name(),
            detail
        );
    }
    s
}

/// Render a hot-path profile (`rmprof-v1` document, as served by the
/// udprun stats endpoint or saved from a profiled run) as two aligned
/// tables: the full per-stage latency breakdown, then the top hotspots
/// ranked by total time.
///
/// "share" is each stage's fraction of the *total instrumented time*
/// (the sum over stage sums), not of wall time — the document does not
/// know the wall clock, and spans may nest (`wire.crc` runs inside
/// `wire.encode`/`wire.decode`), so shares are a ranking aid, not an
/// exact decomposition.
pub fn render_profile(doc: &rmprof::expo::ProfileDoc) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== Hot-path stage latency ==");
    let live: Vec<_> = doc.stages.iter().filter(|r| r.count > 0).collect();
    if live.is_empty() {
        let _ = writeln!(
            s,
            "  (no samples — was profiling enabled? set ClusterConfig::profile \
             or use Scenario::run_profiled)"
        );
        return s;
    }
    let total_ns: u64 = live.iter().map(|r| r.sum_ns).sum();
    let _ = writeln!(
        s,
        "  {:<16} {:>9} {:>9} {:>9} {:>9} {:>10} {:>7}",
        "stage", "count", "p50", "p99", "max", "total", "share"
    );
    for r in &live {
        let _ = writeln!(
            s,
            "  {:<16} {:>9} {:>9} {:>9} {:>9} {:>10} {:>6.1}%",
            r.stage,
            r.count,
            fmt_ns(r.p50_ns),
            fmt_ns(r.p99_ns),
            fmt_ns(r.max_ns),
            fmt_ns(r.sum_ns),
            100.0 * r.sum_ns as f64 / total_ns as f64,
        );
    }

    let _ = writeln!(s, "\n== Top hotspots ==");
    let mut ranked = live.clone();
    ranked.sort_by(|a, b| b.sum_ns.cmp(&a.sum_ns).then(a.stage.cmp(&b.stage)));
    for (i, r) in ranked.iter().take(3).enumerate() {
        let _ = writeln!(
            s,
            "  {}. {:<16} {} total ({:.1}% of instrumented time, {} samples, p99 {})",
            i + 1,
            r.stage,
            fmt_ns(r.sum_ns),
            100.0 * r.sum_ns as f64 / total_ns as f64,
            r.count,
            fmt_ns(r.p99_ns),
        );
    }

    if !doc.counters.is_empty() || !doc.gauges.is_empty() {
        let _ = writeln!(s, "\n== Counters ==");
        for (name, v) in &doc.counters {
            let _ = writeln!(s, "  {name:<24} {v}");
        }
        for (name, v) in &doc.gauges {
            let _ = writeln!(s, "  {name:<24} {v} (gauge)");
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rmtrace::DropCause;

    fn rec(t_ns: u64, rank: u16, ev: TraceEvent) -> TraceRecord {
        TraceRecord { t_ns, rank, ev }
    }

    fn sample_trace() -> Vec<TraceRecord> {
        vec![
            rec(
                10,
                0,
                TraceEvent::DataSent {
                    transfer: 1,
                    seq: 0,
                },
            ),
            rec(
                15,
                0,
                TraceEvent::DataSent {
                    transfer: 1,
                    seq: 1,
                },
            ),
            rec(
                20,
                5,
                TraceEvent::Drop {
                    cause: DropCause::BurstLoss,
                },
            ),
            rec(
                30,
                1,
                TraceEvent::DataRecv {
                    transfer: 1,
                    seq: 0,
                },
            ),
            rec(
                40,
                0,
                TraceEvent::Retransmit {
                    transfer: 1,
                    seq: 1,
                    nth: 1,
                },
            ),
            rec(
                50,
                1,
                TraceEvent::DataRecv {
                    transfer: 1,
                    seq: 1,
                },
            ),
            rec(
                55,
                1,
                TraceEvent::AckSent {
                    transfer: 1,
                    next: 2,
                },
            ),
            rec(
                60,
                1,
                TraceEvent::Delivered {
                    transfer: 1,
                    msg_id: 0,
                },
            ),
        ]
    }

    #[test]
    fn digest_counts_phases_drops_and_latency() {
        let r = Report::digest(&sample_trace());
        assert_eq!(r.records, 8);
        assert_eq!(r.span_ns, (10, 60));
        assert_eq!(r.data_phase.data_sent, 2);
        assert_eq!(r.data_phase.retransmits, 1);
        assert_eq!(r.data_phase.acks, 1);
        assert_eq!(r.handshake, PhaseCounts::default());
        assert_eq!(r.drops_by_cause.get("BurstLoss"), Some(&1));
        let lat = r.latency_by_rank.get(&1).expect("rank 1 delivered");
        assert_eq!(lat.count(), 1);
        // Delivered at t=60, transfer first sent at t=10.
        assert_eq!(lat.max(), 50);
        assert_eq!(r.retransmits, vec![(40, 0, 1, 1, 1)]);
    }

    #[test]
    fn lifecycle_reconstructs_the_retransmitted_packet() {
        let trace = sample_trace();
        let (transfer, seq) = pick_packet(&trace).unwrap();
        assert_eq!((transfer, seq), (1, 1));
        let events = lifecycle(&trace, transfer, seq);
        let names: Vec<&str> = events.iter().map(|r| r.ev.name()).collect();
        assert_eq!(
            names,
            vec!["DataSent", "Retransmit", "DataRecv", "Delivered"]
        );
        assert!(lifecycle_complete(&events));
    }

    #[test]
    fn render_mentions_every_section() {
        let trace = sample_trace();
        let text = Report::digest(&trace).render();
        for section in [
            "Trace summary",
            "Network drops by cause",
            "Retransmission timeline",
            "Delivery latency per receiver",
            "Control overhead per phase",
        ] {
            assert!(text.contains(section), "missing section {section:?}");
        }
        assert!(text.contains("BurstLoss"));
        let lc = render_lifecycle(1, 1, &lifecycle(&trace, 1, 1));
        assert!(lc.contains("Retransmit"));
    }

    #[test]
    fn empty_trace_reports_gracefully() {
        let r = Report::digest(&[]);
        assert_eq!(r.records, 0);
        assert!(r.render().contains("(none)"));
        assert_eq!(pick_packet(&[]), None);
    }

    #[test]
    fn profile_render_breaks_down_stages_and_ranks_hotspots() {
        let doc = rmprof::expo::parse_snapshot(
            r#"{"schema": "rmprof-v1",
                "stages": [
                  {"stage": "wire.encode", "count": 100, "sum_ns": 5000, "min_ns": 10,
                   "max_ns": 200, "p50_ns": 31, "p99_ns": 127},
                  {"stage": "wire.crc", "count": 0, "sum_ns": 0, "min_ns": 0,
                   "max_ns": 0, "p50_ns": 0, "p99_ns": 0},
                  {"stage": "netsim.dispatch", "count": 400, "sum_ns": 15000, "min_ns": 5,
                   "max_ns": 900, "p50_ns": 31, "p99_ns": 511}
                ],
                "counters": [{"name": "udprun.datagrams_rx", "value": 12}],
                "gauges": []}"#,
        )
        .unwrap();
        let text = render_profile(&doc);
        assert!(text.contains("== Hot-path stage latency =="));
        assert!(text.contains("wire.encode"));
        // Empty stages stay out of the table.
        assert!(!text.contains("wire.crc"));
        // Hotspot #1 is the biggest total: dispatch at 15000/20000 = 75%.
        let hotspots = text.split("== Top hotspots ==").nth(1).unwrap();
        assert!(hotspots.trim_start().starts_with("1. netsim.dispatch"));
        assert!(hotspots.contains("75.0%"));
        assert!(text.contains("udprun.datagrams_rx"));
    }

    #[test]
    fn profile_render_says_when_profiling_was_off() {
        let text = render_profile(&rmprof::expo::ProfileDoc::default());
        assert!(text.contains("no samples"));
        assert!(text.contains("ClusterConfig::profile"));
    }
}
