//! End-to-end check of the `rmbench` binary: a smoke run executes every
//! workload in a child process of its own, checks every output, and writes
//! a run file `compare` can read.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use rmprof::expo::Json;

const WORKLOADS: [&str; 6] = [
    "loop_bulk",
    "loop_small",
    "loop_lossy",
    "loop_cksum",
    "sim_paper",
    "udp_bulk",
];

const END_TO_END: [&str; 5] = [
    "goodput_mb_s",
    "msg_latency_p50_us",
    "msg_latency_tail_us",
    "peak_rss_mb",
    "setup_s",
];

#[test]
fn smoke_run_gives_each_workload_a_fresh_process_and_checks_its_outputs() {
    let exe = env!("CARGO_BIN_EXE_rmbench");
    let run_file = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke-run.json");
    let out = Command::new(exe)
        .args(["run", "--smoke", "--seed", "3", "--out"])
        .arg(&run_file)
        .output()
        .expect("rmbench starts");
    assert!(
        out.status.success(),
        "smoke run failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // One result line per workload, in the contract's shape.
    let stdout = String::from_utf8(out.stdout).unwrap();
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), WORKLOADS.len());
    for (line, name) in lines.iter().zip(WORKLOADS) {
        let (label, json) = line.split_once(' ').unwrap();
        assert_eq!(label, name);
        let v = Json::parse(json).unwrap();
        let Json::Obj(pairs) = &v else {
            panic!("result line is not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)), "{name}");
        assert_eq!(v.get("failed").and_then(Json::as_u64), Some(0), "{name}");
        assert!(v.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
        for metric in END_TO_END {
            let value = v
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{name} lacks {metric}"));
            assert!(value > 0.0, "{name} {metric} = {value}");
        }
    }

    // Never two workloads in one process, and never the parent itself.
    let file = Json::parse(&std::fs::read_to_string(&run_file).unwrap()).unwrap();
    let parent = file.get("parent_pid").and_then(Json::as_u64).unwrap();
    let mut pids = BTreeSet::new();
    for w in file.get("workloads").and_then(Json::as_arr).unwrap() {
        let own = w.get("pids").and_then(Json::as_arr).unwrap();
        assert_eq!(own.len(), 1, "a smoke run is one round");
        let pid = own[0].as_u64().unwrap();
        assert_ne!(pid, parent);
        assert!(pids.insert(pid), "pid {pid} ran two workloads");
    }
    assert_eq!(pids.len(), WORKLOADS.len());

    // The run file is what `compare` reads: A/A of one file is all-zero gaps.
    let cmp = Command::new(exe)
        .arg("compare")
        .arg(&run_file)
        .arg("--")
        .arg(&run_file)
        .output()
        .unwrap();
    assert!(cmp.status.success());
    let table = String::from_utf8(cmp.stdout).unwrap();
    assert_eq!(
        table.matches("| +0.0 % |").count(),
        WORKLOADS.len() * END_TO_END.len(),
        "{table}"
    );
}

#[test]
fn a_full_run_spawns_one_child_per_round_and_workload() {
    // `--seconds 0` keeps every child to its single block; the four rounds
    // of the contract's entry point still each get a process of their own.
    let out = Command::new(env!("CARGO_BIN_EXE_rmbench"))
        .args(["--workload", "loop_small", "--seed", "5", "--seconds", "0"])
        .args(["--trace", "0"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    // The parent logs one line per child: "rmbench: child pid N ran W round R".
    let pids: BTreeSet<&str> = stderr
        .lines()
        .filter_map(|l| l.strip_prefix("rmbench: child pid "))
        .filter_map(|l| l.split(' ').next())
        .collect();
    assert_eq!(pids.len(), 4, "four rounds, four processes: {stderr}");
    let last = String::from_utf8(out.stdout).unwrap();
    let v = Json::parse(last.lines().last().unwrap()).unwrap();
    assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &[
            "--workload",
            "no_such",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &["--workload", "loop_small", "--seed", "1", "--seconds", "1"][..],
        &["frobnicate"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_rmbench"))
            .args(args)
            .output()
            .unwrap();
        assert!(!out.status.success(), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
