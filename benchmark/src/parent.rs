//! The parent: runs every (round, workload) of a run in a fresh child
//! process, pools the rounds, and computes the metrics.
//!
//! Rounds are the outer loop and workloads the inner one, in fixed order, so
//! slow machine drift is spread over every workload instead of landing on
//! whichever ran in the bad minute, and a workload's statistic pools the
//! blocks of all its rounds.

use std::path::Path;
use std::process::{Command, Stdio};

use rmprof::expo::Json;

use crate::hist::LatencyHist;
use crate::json::{array, metrics_object, num, string, Obj};
use crate::metrics::{unit_of, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workload::Workload;

/// Rounds of an untraced run.
pub const ROUNDS: u64 = 4;

/// What to run.
pub struct Plan {
    /// Workloads, in the order a round runs them.
    pub workloads: Vec<Workload>,
    /// The run's seed.
    pub seed: u64,
    /// Seconds of timed blocks per workload, over all its rounds.
    pub seconds: f64,
    /// The traced pass (one round, per-layer metrics) instead of the
    /// untraced one (end-to-end metrics).
    pub trace: bool,
    /// Rounds of the untraced pass.
    pub rounds: u64,
}

impl Plan {
    /// Every child process of the run, in execution order.
    pub fn invocations(&self) -> Vec<(u64, Workload)> {
        let rounds = if self.trace { 1 } else { self.rounds };
        (0..rounds)
            .flat_map(|r| self.workloads.iter().map(move |w| (r, *w)))
            .collect()
    }

    fn budget_ms(&self) -> u64 {
        let rounds = if self.trace { 1 } else { self.rounds };
        (self.seconds * 1e3 / rounds as f64) as u64
    }
}

/// One workload's pooled result.
pub struct WorkloadResult {
    /// The workload.
    pub workload: Workload,
    /// No failed operation, no harness buffer touched, same work traced.
    pub correct: bool,
    /// Operations in timed blocks.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// `(name, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Timed blocks pooled.
    pub blocks: usize,
    /// Latency samples pooled.
    pub latency_samples: u64,
    /// Interquartile range of the block times over their median: how noisy
    /// the machine was inside this run.
    pub block_iqr_share: f64,
    /// Share of the timed wall the children's main threads spent runnable
    /// but waiting for a CPU.
    pub run_delay_share: f64,
    /// The child processes that ran this workload.
    pub pids: Vec<u32>,
}

/// Rounds of one workload being pooled.
struct Pool {
    workload: Workload,
    block_s: Vec<f64>,
    latency: LatencyHist,
    setup_s: Vec<f64>,
    attempted: u64,
    failed: u64,
    flags_ok: bool,
    vm_hwm_kib: Vec<f64>,
    timed_wall_s: f64,
    run_delay_s: f64,
    layer: Vec<(String, f64)>,
    pids: Vec<u32>,
}

fn field_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("child result lacks number {key:?}"))
}

fn flag(v: &Json, key: &str) -> bool {
    matches!(v.get(key), Some(Json::Bool(true)))
}

impl Pool {
    fn new(workload: Workload) -> Self {
        Pool {
            workload,
            block_s: Vec::new(),
            latency: LatencyHist::new(),
            setup_s: Vec::new(),
            attempted: 0,
            failed: 0,
            flags_ok: true,
            vm_hwm_kib: Vec::new(),
            timed_wall_s: 0.0,
            run_delay_s: 0.0,
            layer: Vec::new(),
            pids: Vec::new(),
        }
    }

    /// Fold one child's result line in.
    fn absorb(&mut self, v: &Json, trace: bool) -> Result<(), String> {
        self.pids.push(field_f64(v, "pid")? as u32);
        self.attempted += field_f64(v, "attempted")? as u64;
        self.failed += field_f64(v, "failed")? as u64;
        self.flags_ok &= flag(v, "untouched");
        if trace {
            self.flags_ok &= flag(v, "same_work");
            let Some(Json::Obj(pairs)) = v.get("metrics") else {
                return Err("traced child result lacks \"metrics\"".into());
            };
            for (name, value) in pairs {
                let value = value
                    .as_f64()
                    .ok_or_else(|| format!("metric {name:?} is not a number"))?;
                self.layer.push((name.clone(), value));
            }
            return Ok(());
        }
        self.setup_s.push(field_f64(v, "setup_s")?);
        self.vm_hwm_kib.push(field_f64(v, "vm_hwm_kib")?);
        self.timed_wall_s += field_f64(v, "timed_wall_s")?;
        self.run_delay_s += field_f64(v, "run_delay_s")?;
        let blocks = v
            .get("block_s")
            .and_then(Json::as_arr)
            .ok_or("child result lacks \"block_s\"")?;
        for b in blocks {
            self.block_s
                .push(b.as_f64().ok_or("block time is not a number")?);
        }
        let buckets = v
            .get("latency")
            .and_then(Json::as_arr)
            .ok_or("child result lacks \"latency\"")?;
        for pair in buckets {
            let Some([Some(idx), Some(count), Some(sum)]) = pair
                .as_arr()
                .and_then(|p| <&[Json; 3]>::try_from(p).ok())
                .map(|p| [p[0].as_u64(), p[1].as_u64(), p[2].as_u64()])
            else {
                return Err("malformed latency bucket".into());
            };
            if !self.latency.add_bucket(idx as usize, count as u32, sum) {
                return Err(format!("latency bucket {idx} out of range"));
            }
        }
        Ok(())
    }

    fn finish(self, trace: bool) -> Result<WorkloadResult, String> {
        let w = self.workload;
        let metrics = if trace {
            PER_LAYER
                .iter()
                .map(|(name, _, _)| {
                    self.layer
                        .iter()
                        .find(|(n, _)| n == name)
                        .map(|(_, v)| (*name, *v))
                        .ok_or_else(|| format!("traced child did not report {name}"))
                })
                .collect::<Result<Vec<_>, _>>()?
        } else {
            if self.block_s.is_empty() || self.latency.count() == 0 {
                return Err(format!("{}: no timed block completed", w.name));
            }
            let block_bytes = (w.bytes_per_op() * w.ops_per_block) as f64;
            let values = [
                block_bytes / median(&self.block_s) / 1e6,
                self.latency.quantile(0.5) / 1e3,
                self.latency.quantile(w.tail_q) / 1e3,
                median(&self.vm_hwm_kib) / 1024.0,
                median(&self.setup_s),
            ];
            END_TO_END.iter().map(|m| m.0).zip(values).collect()
        };
        Ok(WorkloadResult {
            workload: w,
            correct: self.failed == 0 && self.flags_ok,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            blocks: self.block_s.len(),
            latency_samples: self.latency.count(),
            block_iqr_share: iqr_share(&self.block_s),
            run_delay_share: if self.timed_wall_s > 0.0 {
                self.run_delay_s / self.timed_wall_s
            } else {
                0.0
            },
            pids: self.pids,
        })
    }
}

/// Run one child to completion and parse the last line of its stdout.
fn run_child(exe: &Path, plan: &Plan, round: u64, w: &Workload) -> Result<Json, String> {
    let output = Command::new(exe)
        .args(["child", "--workload", w.name])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--round", &round.to_string()])
        .args(["--budget-ms", &plan.budget_ms().to_string()])
        .args(["--trace", if plan.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start child {}: {e}", exe.display()))?;
    if !output.status.success() {
        return Err(format!(
            "child {} round {round} ended with {}",
            w.name, output.status
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("child {} round {round} printed nothing", w.name))?;
    Json::parse(line).map_err(|e| format!("child {} round {round}: {e}", w.name))
}

/// Execute `plan` with `exe` as the child binary; one result per workload.
pub fn run(plan: &Plan, exe: &Path) -> Result<Vec<WorkloadResult>, String> {
    let mut pools: Vec<Pool> = plan.workloads.iter().map(|w| Pool::new(*w)).collect();
    for (round, w) in plan.invocations() {
        let v = run_child(exe, plan, round, &w)?;
        let pool = pools
            .iter_mut()
            .find(|p| p.workload.name == w.name)
            .expect("a pool per planned workload");
        pool.absorb(&v, plan.trace)?;
        eprintln!(
            "rmbench: child pid {} ran {} round {round}",
            pool.pids.last().expect("absorb recorded the pid"),
            w.name
        );
    }
    pools.into_iter().map(|p| p.finish(plan.trace)).collect()
}

impl WorkloadResult {
    fn metrics_json(&self) -> String {
        metrics_object(
            self.metrics
                .iter()
                .map(|&(name, v)| (name, v, unit_of(name).unwrap_or(""))),
        )
    }

    /// The result line the benchmark contract prescribes.
    pub fn contract_line(&self) -> String {
        Obj::new()
            .field("correct", self.correct.to_string())
            .field("attempted", num(self.attempted as f64))
            .field("failed", num(self.failed as f64))
            .field("metrics", self.metrics_json())
            .finish()
    }

    /// The workload's entry in a run file (what `compare` reads).
    pub fn run_file_entry(&self) -> String {
        Obj::new()
            .field("name", string(self.workload.name))
            .field("gated", self.workload.gated.to_string())
            .field("correct", self.correct.to_string())
            .field("attempted", num(self.attempted as f64))
            .field("failed", num(self.failed as f64))
            .field("blocks", num(self.blocks as f64))
            .field("latency_samples", num(self.latency_samples as f64))
            .field("tail_percentile", num(self.workload.tail_q * 100.0))
            .field("block_iqr_share", num(self.block_iqr_share))
            .field("run_delay_share", num(self.run_delay_share))
            .field("pids", array(self.pids.iter().map(|&p| num(f64::from(p)))))
            .field("metrics", self.metrics_json())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn plan(trace: bool) -> Plan {
        Plan {
            workloads: workload::all().to_vec(),
            seed: 1,
            seconds: 12.0,
            trace,
            rounds: ROUNDS,
        }
    }

    #[test]
    fn every_round_runs_every_workload_in_its_own_invocation() {
        let inv = plan(false).invocations();
        assert_eq!(inv.len(), 4 * 6);
        for (i, (round, w)) in inv.iter().enumerate() {
            assert_eq!(*round, (i / 6) as u64);
            assert_eq!(w.name, workload::all()[i % 6].name);
        }
        assert_eq!(plan(false).budget_ms(), 3_000);
        assert_eq!(
            plan(true).invocations().len(),
            6,
            "the traced pass is one round"
        );
        assert_eq!(plan(true).budget_ms(), 12_000);
    }

    fn child_line(pid: u32, blocks: &[f64], latencies: &[u64], setup: f64) -> Json {
        let mut h = LatencyHist::new();
        for &l in latencies {
            h.record(l);
        }
        let text =
            Obj::new()
                .field("pid", num(f64::from(pid)))
                .field("setup_s", num(setup))
                .field("block_s", array(blocks.iter().map(|&b| num(b))))
                .field(
                    "latency",
                    array(h.sparse().into_iter().map(|(i, c, sum)| {
                        array([num(i as f64), num(f64::from(c)), num(sum as f64)])
                    })),
                )
                .field("attempted", num(latencies.len() as f64))
                .field("failed", "0")
                .field("untouched", "true")
                .field("vm_hwm_kib", num(2048.0 * f64::from(pid)))
                .field("timed_wall_s", "1")
                .field("run_delay_s", "0.25")
                .finish();
        Json::parse(&text).unwrap()
    }

    #[test]
    fn rounds_pool_blocks_and_latencies_before_the_median() {
        let w = workload::by_name("loop_small").unwrap();
        let mut pool = Pool::new(w);
        // Three quiet rounds of one block and a slow round of four: a median
        // of round medians would read 1.0, the pooled median reads 2.0.
        for (pid, blocks) in [(1, vec![1.0]), (2, vec![1.0]), (3, vec![1.0])] {
            pool.absorb(&child_line(pid, &blocks, &[1_000], 0.5), false)
                .unwrap();
        }
        pool.absorb(
            &child_line(4, &[2.0, 4.0, 4.0, 4.0], &[9_000, 9_000, 9_000, 9_000], 0.7),
            false,
        )
        .unwrap();
        let r = pool.finish(false).unwrap();
        let get = |name: &str| r.metrics.iter().find(|m| m.0 == name).unwrap().1;
        let block_bytes = (512 * w.ops_per_block) as f64;
        assert_eq!(get("goodput_mb_s"), block_bytes / 2.0 / 1e6);
        assert!((get("msg_latency_p50_us") - 9.0).abs() < 0.09);
        assert_eq!(
            get("peak_rss_mb"),
            5.0,
            "median of the children's high-water marks"
        );
        assert_eq!(get("setup_s"), 0.5);
        assert_eq!((r.blocks, r.latency_samples, r.attempted), (7, 7, 7));
        assert_eq!(r.pids, vec![1, 2, 3, 4]);
        assert_eq!(r.run_delay_share, 0.25);
        assert!(r.correct);
    }

    #[test]
    fn a_touched_buffer_or_a_failure_makes_the_run_incorrect() {
        let w = workload::by_name("loop_small").unwrap();
        let good = child_line(1, &[1.0], &[1_000], 0.5);
        let Json::Obj(mut pairs) = good.clone() else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "untouched" {
                *v = Json::Bool(false);
            }
        }
        let mut pool = Pool::new(w);
        pool.absorb(&Json::Obj(pairs), false).unwrap();
        assert!(!pool.finish(false).unwrap().correct);

        let Json::Obj(mut pairs) = good else {
            unreachable!()
        };
        for (k, v) in &mut pairs {
            if k == "failed" {
                *v = Json::Num(1.0);
            }
        }
        let mut pool = Pool::new(w);
        pool.absorb(&Json::Obj(pairs), false).unwrap();
        let r = pool.finish(false).unwrap();
        assert!(!r.correct);
        assert_eq!(r.failed, 1);
    }
}
