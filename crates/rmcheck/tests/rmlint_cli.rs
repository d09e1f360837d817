//! End-to-end tests for the `rmlint` binary: the `--github` output mode,
//! workspace-root discovery and the stable exit-code contract (0 clean /
//! 1 findings / 2 config error) that CI scripts depend on.

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

/// One unannotated `.clone()` inside a span-instrumented function.
const HOT_CLONE: &str = "pub fn encode(buf: &mut Vec<u8>, src: &Vec<u8>) {\n\
                         \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
                         \x20   let staged = src.clone();\n\
                         \x20   buf.push(staged.len() as u8);\n\
                         }\n";

#[test]
fn findings_exit_one_with_text_report() {
    let root = fake_ws::create("cli-findings");
    fake_ws::write(&root, "crates/core/src/hot.rs", HOT_CLONE);
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 1, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("crates/core/src/hot.rs:3: [hot-alloc]"),
        "stdout: {}",
        stdout(&out)
    );
}

#[test]
fn github_mode_emits_error_annotations() {
    let root = fake_ws::create("cli-github");
    fake_ws::write(&root, "crates/core/src/hot.rs", HOT_CLONE);
    let out = rmlint(&root, &["--github"]);
    assert_eq!(code(&out), 1);
    let s = stdout(&out);
    assert!(
        s.lines().any(|l| l
            .starts_with("::error file=crates/core/src/hot.rs,line=3,title=rmlint hot-alloc::")),
        "no annotation line in: {s}"
    );
}

#[test]
fn missing_scope_files_exit_two() {
    // A bare [workspace] with none of the linted tree is a configuration
    // error, not "clean": the lint must never silently scan nothing.
    let root = fake_ws::create("cli-bare");
    std::fs::remove_dir_all(root.join("crates")).expect("strip fixture");
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("[lint-config]"));

    // One hot-path dir gone is enough.
    let root = fake_ws::create("cli-one-missing");
    std::fs::remove_dir_all(root.join("crates/netsim")).expect("strip fixture");
    let out = rmlint(&root, &[]);
    assert_eq!(code(&out), 2, "stdout: {}", stdout(&out));
    assert!(
        stdout(&out).contains("crates/netsim/src:0: [lint-config]"),
        "stdout: {}",
        stdout(&out)
    );
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
    assert!(stdout(&out).contains("--github"));
}

#[test]
fn nested_memberless_workspace_is_not_the_root() {
    // A nested package may declare an empty `[workspace]` to stand outside
    // the enclosing one; run from inside it, rmlint must keep walking up
    // to the manifest that lists `members`.
    let root = fake_ws::create("cli-nested");
    fake_ws::write(
        &root,
        "bench/Cargo.toml",
        "[package]\nname = \"bench\"\n\n[workspace]\n",
    );
    let out = Command::new(env!("CARGO_BIN_EXE_rmlint"))
        .current_dir(root.join("bench"))
        .output()
        .expect("spawn rmlint");
    assert_eq!(code(&out), 0, "stdout: {}", stdout(&out));
    assert!(stdout(&out).contains("rmlint: clean"));
}
