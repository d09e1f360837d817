//! `rmreport` CLI contract: graceful degradation on bad input (clear
//! message on stderr, nonzero exit — never a silent empty report) and
//! the `--profile` rendering path.

use std::process::Command;

fn rmreport(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_rmreport"))
        .args(args)
        .output()
        .expect("run rmreport")
}

fn write_tmp(name: &str, content: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("rmreport-cli-{}-{name}", std::process::id()));
    std::fs::write(&path, content).expect("write temp input");
    path
}

#[test]
fn empty_trace_is_a_clear_error() {
    let path = write_tmp("empty.jsonl", "");
    let out = rmreport(&[path.to_str().unwrap()]);
    assert!(!out.status.success(), "empty input must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("no trace records"), "stderr: {err}");
    assert!(
        err.contains("trace sink"),
        "stderr should hint at the cause: {err}"
    );
    assert!(out.stdout.is_empty(), "no partial report on stdout");
}

#[test]
fn truncated_trace_names_the_line_and_exits_nonzero() {
    let path = write_tmp(
        "trunc.jsonl",
        "{\"t\": 5, \"rank\": 0, \"ev\": \"DataSent\", \"transfer\": 1, \"seq\": 0}\n{\"t\": 9, \"rank\": 1, \"ev\": \"DataRe",
    );
    let out = rmreport(&[path.to_str().unwrap()]);
    assert!(!out.status.success(), "truncated input must exit nonzero");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(":2:"), "stderr names the bad line: {err}");
    assert!(err.contains("truncated or corrupt"), "stderr: {err}");
}

#[test]
fn missing_file_and_missing_args_fail_with_usage() {
    let out = rmreport(&[]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));

    let out = rmreport(&["/nonexistent/definitely-not-here.jsonl"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));
}

#[test]
fn valid_trace_still_reports() {
    let path = write_tmp(
        "ok.jsonl",
        "{\"t\": 5, \"rank\": 0, \"ev\": \"DataSent\", \"transfer\": 1, \"seq\": 0}\n",
    );
    let out = rmreport(&[path.to_str().unwrap()]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Trace summary"));
}

#[test]
fn closed_stdout_ends_the_output_without_a_panic() {
    // `rmreport trace.jsonl | head`: the reader leaves before the report
    // is written. Enough records that the report outgrows any buffer.
    let line = "{\"t\": 5, \"rank\": 0, \"ev\": \"Retransmit\", \"transfer\": 1, \"seq\": 0, \"nth\": 1}\n";
    let path = write_tmp("closed.jsonl", &line.repeat(200));
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = Command::new(env!("CARGO_BIN_EXE_rmreport"))
        .arg(&path)
        .stdout(writer)
        .output()
        .expect("run rmreport");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "stderr: {err}");
    assert!(out.status.success(), "stderr: {err}");
}

#[test]
fn profile_mode_renders_breakdown_and_hotspots() {
    let path = write_tmp(
        "stats.json",
        r#"{"schema": "rmprof-v1",
            "stages": [
              {"stage": "wire.decode", "count": 50, "sum_ns": 4000, "min_ns": 20,
               "max_ns": 300, "p50_ns": 63, "p99_ns": 255},
              {"stage": "udprun.rx", "count": 50, "sum_ns": 16000, "min_ns": 100,
               "max_ns": 2000, "p50_ns": 255, "p99_ns": 1023}
            ],
            "counters": [{"name": "udprun.datagrams_rx", "value": 50}],
            "gauges": [{"name": "udprun.nodes", "value": 4}]}"#,
    );
    let out = rmreport(&["--profile", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Hot-path stage latency"));
    assert!(text.contains("Top hotspots"));
    let hotspots = text.split("== Top hotspots ==").nth(1).unwrap();
    assert!(
        hotspots.trim_start().starts_with("1. udprun.rx"),
        "hotspots: {hotspots}"
    );
    assert!(text.contains("udprun.nodes"));
}

#[test]
fn profile_mode_rejects_non_rmprof_documents() {
    let path = write_tmp("bad-stats.json", "{\"schema\": \"something-else\"}");
    let out = rmreport(&["--profile", path.to_str().unwrap()]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("rmprof-v1"));
}
