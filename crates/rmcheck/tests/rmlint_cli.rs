//! End-to-end tests for the `rmlint` binary: output modes (`--json`,
//! `--github`) and the stable exit-code contract (0 clean / 1 findings /
//! 2 config error) that CI scripts depend on.

mod fake_ws;

use std::path::Path;
use std::process::{Command, Output};

fn rmlint(root: &Path, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_rmlint"))
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("spawn rmlint")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn clean_workspace_exits_zero() {
    let root = fake_ws::create("cli-clean");
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("rmlint: clean"));
}

#[test]
fn findings_exit_one_with_text_report() {
    let root = fake_ws::create("cli-findings");
    fake_ws::write(
        &root,
        "crates/netsim/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 1);
    assert!(
        stdout(&out).contains("crates/netsim/src/lib.rs:1: [wall-clock]"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn unannotated_hot_path_clone_exits_one() {
    // One unannotated `.clone()` inside a span-instrumented function
    // fails the run.
    let root = fake_ws::create("cli-hot-alloc");
    fake_ws::write(
        &root,
        "crates/core/src/hot.rs",
        "pub fn encode(buf: &mut Vec<u8>, src: &Vec<u8>) {\n\
         \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
         \x20   let staged = src.clone();\n\
         \x20   buf.push(staged.len() as u8);\n\
         }\n",
    );
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("crates/core/src/hot.rs:3: [hot-alloc]"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn json_mode_emits_machine_readable_findings() {
    let root = fake_ws::create("cli-json");
    fake_ws::write(
        &root,
        "crates/netsim/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let out = rmlint(&root, &["--json"]);
    assert_eq!(code(&out), 1);
    let s = stdout(&out);
    let s = s.trim();
    assert!(
        s.starts_with('[') && s.ends_with(']'),
        "not a JSON array: {s}"
    );
    assert!(s.contains("\"rule\":\"wall-clock\""), "{s}");
    assert!(s.contains("\"file\":\"crates/netsim/src/lib.rs\""), "{s}");
    assert!(s.contains("\"line\":1"), "{s}");

    // A clean tree serializes to an empty array.
    let clean = fake_ws::create("cli-json-clean");
    let out = rmlint(&clean, &["--json"]);
    assert_eq!(code(&out), 0);
    assert_eq!(stdout(&out).trim(), "[]");
}

#[test]
fn github_mode_emits_error_annotations() {
    let root = fake_ws::create("cli-github");
    fake_ws::write(
        &root,
        "crates/netsim/src/lib.rs",
        "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
    );
    let out = rmlint(&root, &["--github"]);
    assert_eq!(code(&out), 1);
    let s = stdout(&out);
    assert!(
        s.lines().any(|l| l
            .starts_with("::error file=crates/netsim/src/lib.rs,line=1,title=rmlint wall-clock::")),
        "no annotation line in: {s}"
    );
}

#[test]
fn missing_scope_files_exit_two() {
    // A bare [workspace] with none of the linted tree is a configuration
    // error, not "clean": the lint must never silently scan nothing.
    let root = fake_ws::create("cli-bare");
    for dir in ["crates", "docs"] {
        std::fs::remove_dir_all(root.join(dir)).expect("strip fixture");
    }
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("[lint-config]"));
}

#[test]
fn bad_arguments_exit_two() {
    let root = fake_ws::create("cli-args");
    let out = rmlint(&root, &["--frobnicate"]);
    assert_eq!(code(&out), 2);
    let out = Command::new(env!("CARGO_BIN_EXE_rmlint"))
        .args(["--root"]) // missing operand
        .output()
        .expect("spawn rmlint");
    assert_eq!(code(&out), 2);
}

#[test]
fn help_exits_zero() {
    let out = Command::new(env!("CARGO_BIN_EXE_rmlint"))
        .arg("--help")
        .output()
        .expect("spawn rmlint");
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("--json"));
}
