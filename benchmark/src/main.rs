//! `rmbench` — the repo's benchmark (see `README.md` beside `Cargo.toml`).
//!
//! ```text
//! rmbench --workload W --seed N --seconds T --trace 0|1    one workload, one result line
//! rmbench run [--seed N] [--seconds T] [--traced] [--smoke] [--out FILE]
//! rmbench compare A.json… -- B.json…
//! ```
//!
//! Every workload runs in child processes of its own (`rmbench child …`,
//! internal). All traffic stays in-process (`loop_*`, `sim_paper`) or on the
//! host's loopback interface (`udp_bulk`); no real link is ever crossed.

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

mod alloc;
mod child;
mod compare;
mod hist;
mod json;
mod metrics;
mod parent;
mod probes;
mod procfs;
mod stats;
mod traced;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Seconds of timed blocks per workload when `run` is not told otherwise
/// (`run_seconds` in `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Where trace and run files go: `out/` beside this crate's `Cargo.toml`,
/// inside the checkout whatever the working directory is.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// `--key value` pairs and bare flags after the subcommand.
struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(args: &[String], flags: &[&str]) -> Result<Args, String> {
        let mut out = Args {
            values: HashMap::new(),
            flags: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            if flags.contains(&key) {
                out.flags.push(key.to_string());
            } else {
                let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                out.values.insert(key.to_string(), v.clone());
            }
        }
        Ok(out)
    }

    fn get<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.values
            .get(key)
            .map(|v| v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")))
            .transpose()
    }

    fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?.ok_or_else(|| format!("--{key} is required"))
    }

    fn workload(&self) -> Result<workload::Workload, String> {
        let name: String = self.require("workload")?;
        workload::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn trace(&self) -> Result<bool, String> {
        match self.require::<u8>("trace")? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("--trace takes 0 or 1, not {other}")),
        }
    }

    fn seconds(&self) -> Result<Option<f64>, String> {
        match self.get::<f64>("seconds")? {
            Some(s) if !(0.0..=3600.0).contains(&s) => Err(format!("--seconds {s} out of range")),
            other => Ok(other),
        }
    }
}

fn current_exe() -> Result<PathBuf, String> {
    std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))
}

/// The driver's entry: one workload, one line of JSON.
fn single(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &[])?;
    let plan = parent::Plan {
        workloads: vec![a.workload()?],
        seed: a.require("seed")?,
        seconds: a.seconds()?.ok_or("--seconds is required")?,
        trace: a.trace()?,
        rounds: parent::ROUNDS,
    };
    let results = parent::run(&plan, &current_exe()?)?;
    println!("{}", results[0].contract_line());
    Ok(())
}

/// Every workload, rounds interleaved; result lines plus a run file.
fn run_all(args: &[String]) -> Result<(), String> {
    let a = Args::parse(args, &["traced", "smoke"])?;
    let smoke = a.flags.iter().any(|f| f == "smoke");
    let plan = parent::Plan {
        workloads: workload::all().to_vec(),
        seed: a.get("seed")?.unwrap_or(1),
        // A smoke run has no time budget: every child runs its one block.
        seconds: if smoke {
            0.0
        } else {
            a.seconds()?.unwrap_or(DEFAULT_SECONDS)
        },
        trace: a.flags.iter().any(|f| f == "traced"),
        rounds: if smoke { 1 } else { parent::ROUNDS },
    };
    eprintln!(
        "rmbench: {} pass, seed {}, {} s per workload, {} round(s), {} core(s); \
         traffic never leaves this host",
        if plan.trace { "traced" } else { "untraced" },
        plan.seed,
        plan.seconds,
        if plan.trace { 1 } else { plan.rounds },
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let results = parent::run(&plan, &current_exe()?)?;
    for r in &results {
        println!("{} {}", r.workload.name, r.contract_line());
    }
    let file = json::Obj::new()
        .field("schema", json::string("rmbench-run-v1"))
        .field("seed", json::num(plan.seed as f64))
        .field("seconds", json::num(plan.seconds))
        .field("rounds", json::num(plan.rounds as f64))
        .field("traced", plan.trace.to_string())
        .field("parent_pid", json::num(f64::from(std::process::id())))
        .field(
            "cores",
            json::num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        )
        .field(
            "workloads",
            json::array(results.iter().map(|r| r.run_file_entry())),
        )
        .finish();
    let path = match a.get::<PathBuf>("out")? {
        Some(p) => p,
        None => out_dir().join(format!(
            "run-{}seed{}.json",
            if plan.trace { "traced-" } else { "" },
            plan.seed
        )),
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, file).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("rmbench: wrote {}", path.display());
    if results.iter().all(|r| r.correct) {
        Ok(())
    } else {
        Err("a workload reported failed operations or a touched harness buffer".into())
    }
}

fn compare(args: &[String]) -> Result<(), String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: rmbench compare A.json… -- B.json…")?;
    print!("{}", compare::report(&args[..split], &args[split + 1..])?);
    Ok(())
}

fn child(args: &[String], process_start: Instant) -> Result<(), String> {
    let a = Args::parse(args, &[])?;
    let child_args = child::ChildArgs {
        workload: a.workload()?,
        seed: a.require("seed")?,
        round: a.require("round")?,
        budget: Duration::from_millis(a.require("budget-ms")?),
    };
    let line = if a.trace()? {
        child::traced(&child_args, &out_dir())
    } else {
        child::untraced(&child_args, process_start)
    };
    println!("{line}");
    Ok(())
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run_all(&args[1..]),
        Some("compare") => compare(&args[1..]),
        Some("child") => child(&args[1..], process_start),
        Some(a) if a.starts_with("--") => single(&args),
        _ => Err(
            "usage: rmbench --workload W --seed N --seconds T --trace 0|1 \
                  | run [--seed N] [--seconds T] [--traced] [--smoke] [--out FILE] \
                  | compare A.json… -- B.json…"
                .into(),
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rmbench: {e}");
            ExitCode::from(2)
        }
    }
}
