//! Exposition: rendering a [`Snapshot`] for machines and humans.
//!
//! Two text formats, both deterministic (stages in [`Stage::ALL`] order,
//! counters/gauges sorted by name — covered by a golden-snapshot test):
//!
//! * [`prometheus`] — the classic pull-scrape text page: each stage as a
//!   `summary` (p50/p99 quantiles plus `_sum`/`_count`), counters and
//!   gauges as flat samples with names sanitized to metric-name rules.
//! * [`json`] — the same data as one JSON object (`rmprof-v1`), the
//!   format the udprun stats endpoint serves at `/stats.json` and
//!   `rmreport --profile` reads back.
//!
//! The reading side: [`parse_snapshot`] lifts a `rmprof-v1` document into
//! typed [`ProfileDoc`] rows through [`Json`], the workspace's one JSON
//! reader (it lives in `rmtrace`; re-exported here for this crate's users).

use crate::registry::Snapshot;
use std::fmt::Write as _;

pub use rmtrace::Json;

/// Render the Prometheus-style text page. Quantiles are the histogram's
/// bucket-resolved p50/p99 in nanoseconds.
pub fn prometheus(s: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# HELP rmprof_stage_ns hot-path stage latency (nanoseconds, log2-bucket quantiles)"
    );
    let _ = writeln!(out, "# TYPE rmprof_stage_ns summary");
    for (name, h) in &s.stages {
        let _ = writeln!(
            out,
            "rmprof_stage_ns{{stage=\"{name}\",quantile=\"0.5\"}} {}",
            h.p50()
        );
        let _ = writeln!(
            out,
            "rmprof_stage_ns{{stage=\"{name}\",quantile=\"0.99\"}} {}",
            h.p99()
        );
        let _ = writeln!(out, "rmprof_stage_ns_sum{{stage=\"{name}\"}} {}", h.sum());
        let _ = writeln!(
            out,
            "rmprof_stage_ns_count{{stage=\"{name}\"}} {}",
            h.count()
        );
    }
    for (name, v) in &s.counters {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {v}");
    }
    for (name, v) in &s.gauges {
        let m = metric_name(name);
        let _ = writeln!(out, "# TYPE {m} gauge");
        let _ = writeln!(out, "{m} {v}");
    }
    out
}

/// `udprun.datagrams_tx` → `udprun_datagrams_tx`: Prometheus metric names
/// allow `[a-zA-Z0-9_:]`; everything else becomes `_`.
fn metric_name(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Render the `rmprof-v1` JSON document.
pub fn json(s: &Snapshot) -> String {
    let mut out = String::from("{\n  \"schema\": \"rmprof-v1\",\n  \"stages\": [");
    for (i, (name, h)) in s.stages.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"stage\": \"{name}\", \"count\": {}, \"sum_ns\": {}, \"min_ns\": {}, \
             \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}}}",
            if i == 0 { "" } else { "," },
            h.count(),
            h.sum(),
            h.min(),
            h.max(),
            h.p50(),
            h.p99()
        );
    }
    out.push_str("\n  ],\n  \"counters\": [");
    for (i, (name, v)) in s.counters.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{name}\", \"value\": {v}}}",
            if i == 0 { "" } else { "," }
        );
    }
    out.push_str("\n  ],\n  \"gauges\": [");
    for (i, (name, v)) in s.gauges.iter().enumerate() {
        let _ = write!(
            out,
            "{}\n    {{\"name\": \"{name}\", \"value\": {v}}}",
            if i == 0 { "" } else { "," }
        );
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------
// Reading side
// ---------------------------------------------------------------------

/// One parsed stage row of a `rmprof-v1` document (bucket detail is not
/// serialized, so the reader gets summary figures, not a mergeable
/// histogram).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Stage wire name (`"wire.decode"` ...).
    pub stage: String,
    /// Sample count.
    pub count: u64,
    /// Total nanoseconds across samples.
    pub sum_ns: u64,
    /// Exact minimum sample.
    pub min_ns: u64,
    /// Exact maximum sample.
    pub max_ns: u64,
    /// Bucket-resolved median.
    pub p50_ns: u64,
    /// Bucket-resolved 99th percentile.
    pub p99_ns: u64,
}

/// A parsed `rmprof-v1` document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProfileDoc {
    /// Per-stage summary rows, document order.
    pub stages: Vec<StageRow>,
    /// Counters by name.
    pub counters: Vec<(String, u64)>,
    /// Gauges by name.
    pub gauges: Vec<(String, i64)>,
}

impl ProfileDoc {
    /// The row for a stage wire name, if present.
    pub fn stage(&self, name: &str) -> Option<&StageRow> {
        self.stages.iter().find(|r| r.stage == name)
    }

    /// A counter's value by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// A gauge's value by name.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }
}

/// Parse a `rmprof-v1` JSON document (as produced by [`json`] or served
/// by the udprun stats endpoint).
pub fn parse_snapshot(text: &str) -> Result<ProfileDoc, String> {
    let v = Json::parse(text)?;
    if v.get("schema").and_then(Json::as_str) != Some("rmprof-v1") {
        return Err("not a rmprof-v1 document (missing/wrong \"schema\")".to_string());
    }
    let mut doc = ProfileDoc::default();
    for row in v.get("stages").and_then(Json::as_arr).unwrap_or(&[]) {
        let field = |k: &str| -> Result<u64, String> {
            row.get(k)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("stage row missing numeric {k:?}"))
        };
        doc.stages.push(StageRow {
            stage: row
                .get("stage")
                .and_then(Json::as_str)
                .ok_or("stage row missing \"stage\"")?
                .to_string(),
            count: field("count")?,
            sum_ns: field("sum_ns")?,
            min_ns: field("min_ns")?,
            max_ns: field("max_ns")?,
            p50_ns: field("p50_ns")?,
            p99_ns: field("p99_ns")?,
        });
    }
    for row in v.get("counters").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("counter row missing \"name\"")?;
        let value = row
            .get("value")
            .and_then(Json::as_u64)
            .ok_or("counter row missing numeric \"value\"")?;
        doc.counters.push((name.to_string(), value));
    }
    for row in v.get("gauges").and_then(Json::as_arr).unwrap_or(&[]) {
        let name = row
            .get("name")
            .and_then(Json::as_str)
            .ok_or("gauge row missing \"name\"")?;
        let value = row
            .get("value")
            .and_then(Json::as_i64)
            .ok_or("gauge row missing numeric \"value\"")?;
        doc.gauges.push((name.to_string(), value));
    }
    Ok(doc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::Stage;
    use rmtrace::Histogram;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        for s in Stage::ALL {
            let mut h = Histogram::new();
            if s == Stage::WireDecode {
                h.record(100);
                h.record(200);
            }
            snap.stages.push((s.name().to_string(), h));
        }
        snap.counters.push(("udprun.datagrams_rx".into(), 41));
        snap.gauges.push(("udprun.nodes".into(), 3));
        snap
    }

    #[test]
    fn json_round_trips_through_parse_snapshot() {
        let snap = sample_snapshot();
        let doc = parse_snapshot(&json(&snap)).expect("parse own emission");
        assert_eq!(doc.stages.len(), Stage::COUNT);
        let wd = doc
            .stages
            .iter()
            .find(|r| r.stage == "wire.decode")
            .unwrap();
        assert_eq!(wd.count, 2);
        assert_eq!(wd.sum_ns, 300);
        assert_eq!(wd.min_ns, 100);
        assert_eq!(wd.max_ns, 200);
        assert_eq!(doc.counters, vec![("udprun.datagrams_rx".to_string(), 41)]);
        assert_eq!(doc.gauges, vec![("udprun.nodes".to_string(), 3)]);
    }

    #[test]
    fn prometheus_names_and_series_are_well_formed() {
        let text = prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE rmprof_stage_ns summary"));
        assert!(text.contains("rmprof_stage_ns{stage=\"wire.decode\",quantile=\"0.5\"}"));
        assert!(text.contains("rmprof_stage_ns_count{stage=\"wire.decode\"} 2"));
        assert!(text.contains("# TYPE udprun_datagrams_rx counter"));
        assert!(text.contains("udprun_datagrams_rx 41"));
        assert!(text.contains("# TYPE udprun_nodes gauge"));
        // Dots never leak into metric names.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let name = line.split([' ', '{']).next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
        }
    }
}
