//! `rmbench compare A.json… -- B.json…`: two sets of run files side by side.
//!
//! For every (workload, end-to-end metric) pair: the median of each set,
//! the gap from A to B in the direction that counts as worse, the metric's
//! bound, and each set's run-to-run spread (interquartile range over the
//! median, as the acceptance check computes it). Per workload it also
//! shows how noisy the machine was *inside* the runs: the spread of the
//! block times and the share of time the measuring thread sat on the run
//! queue. With the same commit on both sides this is the A/A table.

use rmprof::expo::Json;

use crate::metrics::END_TO_END;
use crate::stats::{iqr_share, median};

/// One workload's numbers from one run file.
struct Entry {
    metrics: Vec<(String, f64)>,
    block_iqr_share: f64,
    run_delay_share: f64,
    failed: f64,
}

/// The workloads of one run file, in file order.
fn parse_run(text: &str) -> Result<Vec<(String, Entry)>, String> {
    let v = Json::parse(text)?;
    let workloads = v
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or("run file lacks \"workloads\"")?;
    workloads
        .iter()
        .map(|w| {
            let name = w
                .get("name")
                .and_then(Json::as_str)
                .ok_or("workload lacks \"name\"")?;
            let Some(Json::Obj(pairs)) = w.get("metrics") else {
                return Err(format!("{name}: lacks \"metrics\""));
            };
            let metrics = pairs
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect();
            let number = |key: &str| w.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            Ok((
                name.to_string(),
                Entry {
                    metrics,
                    block_iqr_share: number("block_iqr_share"),
                    run_delay_share: number("run_delay_share"),
                    failed: number("failed"),
                },
            ))
        })
        .collect()
}

/// Workload `name`'s entry in each run that has one.
fn entries_of<'a>(runs: &'a [Vec<(String, Entry)>], name: &str) -> Vec<&'a Entry> {
    runs.iter()
        .filter_map(|r| r.iter().find(|(n, _)| n == name).map(|(_, e)| e))
        .collect()
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worse_by(a: f64, b: f64, better: &str) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// The comparison of two sets of run files as a Markdown report.
pub fn report(a_files: &[String], b_files: &[String]) -> Result<String, String> {
    let load = |files: &[String]| -> Result<Vec<Vec<(String, Entry)>>, String> {
        files
            .iter()
            .map(|f| {
                let text = std::fs::read_to_string(f).map_err(|e| format!("{f}: {e}"))?;
                parse_run(&text).map_err(|e| format!("{f}: {e}"))
            })
            .collect()
    };
    render(&load(a_files)?, &load(b_files)?)
}

fn render(
    a_runs: &[Vec<(String, Entry)>],
    b_runs: &[Vec<(String, Entry)>],
) -> Result<String, String> {
    let first = a_runs.first().ok_or("set A is empty")?;
    if b_runs.is_empty() {
        return Err("set B is empty".into());
    }

    let mut out = format!(
        "A: {} runs, B: {} runs. gap = how much worse B's median is than A's; \
         spread = (Q3 - Q1) / median over a set's runs.\n\n\
         | workload | metric | median A | median B | gap | bound | spread A | spread B | verdict |\n\
         |---|---|---|---|---|---|---|---|---|\n",
        a_runs.len(),
        b_runs.len()
    );
    let mut noise = String::from(
        "\n| workload | block-time IQR / median (median over runs) | run-queue delay share | failed ops |\n\
         |---|---|---|---|\n",
    );
    for (name, _) in first {
        let (a, b) = (entries_of(a_runs, name), entries_of(b_runs, name));
        if b.is_empty() {
            return Err(format!("workload {name} is missing from set B"));
        }
        for (metric, _, better, bound) in END_TO_END {
            let values = |set: &[&Entry]| -> Vec<f64> {
                set.iter()
                    .filter_map(|e| e.metrics.iter().find(|(n, _)| n == metric).map(|m| m.1))
                    .collect()
            };
            let (va, vb) = (values(&a), values(&b));
            if va.is_empty() || vb.is_empty() {
                continue; // a traced run file carries no end-to-end metrics
            }
            let (ma, mb) = (median(&va), median(&vb));
            let gap = worse_by(ma, mb, better);
            let verdict = if gap.abs() > bound {
                "OUTSIDE BOUND"
            } else if gap.abs() > bound / 2.0 {
                "over half the bound"
            } else {
                "ok"
            };
            out.push_str(&format!(
                "| {name} | {metric} | {ma:.4} | {mb:.4} | {:+.1} % | {:.0} % | {:.1} % | {:.1} % | {verdict} |\n",
                gap * 100.0,
                bound * 100.0,
                iqr_share(&va) * 100.0,
                iqr_share(&vb) * 100.0,
            ));
        }
        let all: Vec<&Entry> = a.iter().chain(b.iter()).copied().collect();
        let med =
            |pick: fn(&Entry) -> f64| median(&all.iter().map(|e| pick(e)).collect::<Vec<_>>());
        noise.push_str(&format!(
            "| {name} | {:.1} % | {:.2} % | {} |\n",
            med(|e| e.block_iqr_share) * 100.0,
            med(|e| e.run_delay_share) * 100.0,
            all.iter().map(|e| e.failed).sum::<f64>(),
        ));
    }
    out.push_str(&noise);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_file(goodput: f64, p50: f64) -> String {
        format!(
            "{{\"workloads\":[{{\"name\":\"loop_bulk\",\"failed\":0,\"block_iqr_share\":0.04,\
             \"run_delay_share\":0.01,\"metrics\":{{\
             \"goodput_mb_s\":{{\"value\":{goodput},\"unit\":\"MB/s\"}},\
             \"msg_latency_p50_us\":{{\"value\":{p50},\"unit\":\"us\"}}}}}}]}}"
        )
    }

    #[test]
    fn gap_is_signed_towards_worse_and_judged_against_the_bound() {
        assert!((worse_by(100.0, 90.0, "higher") - 0.10).abs() < 1e-12);
        assert!((worse_by(100.0, 90.0, "lower") + 0.10).abs() < 1e-12);

        let runs = |pairs: &[(f64, f64)]| -> Vec<Vec<(String, Entry)>> {
            pairs
                .iter()
                .map(|&(g, p)| parse_run(&run_file(g, p)).unwrap())
                .collect()
        };
        let a = runs(&[(200.0, 2000.0), (210.0, 2100.0), (190.0, 1900.0)]);
        let b = runs(&[(140.0, 2010.0), (140.0, 2010.0)]);
        let text = render(&a, &b).unwrap();
        let goodput = text.lines().find(|l| l.contains("goodput_mb_s")).unwrap();
        assert!(
            goodput.contains("+30.0 %") && goodput.contains("OUTSIDE BOUND"),
            "{goodput}"
        );
        let p50 = text
            .lines()
            .find(|l| l.contains("msg_latency_p50_us"))
            .unwrap();
        assert!(p50.contains("+0.5 %") && p50.ends_with("| ok |"), "{p50}");
        assert!(
            text.contains("| loop_bulk | 4.0 % | 1.00 % | 0 |"),
            "{text}"
        );
        assert!(render(&a, &[]).is_err());
    }
}
