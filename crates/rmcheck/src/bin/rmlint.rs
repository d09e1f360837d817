//! Workspace lint runner for the `hot-alloc` rule: prints every finding
//! and exits nonzero if any fired (CI gates on it).
//!
//! ```text
//! rmlint [--root <dir>] [--github]
//! ```
//!
//! Exit codes are stable for CI:
//! - `0` — clean (no findings),
//! - `1` — findings,
//! - `2` — configuration error (bad arguments, a missing hot-path dir).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rmcheck::lint::Finding;

const USAGE: &str = "\
rmlint [--root <dir>] [--github]
Source-level lint for the reliable multicast workspace: no unannotated
allocation in a span-instrumented hot function (`hot-alloc`); its scope
and every other source rule are documented in docs/CORRECTNESS.md.

  --root <dir>        workspace root (default: walk up from cwd)
  --github            emit findings as GitHub Actions annotations
  -h, --help          show this help

exit codes: 0 clean, 1 findings, 2 config error
";

fn emit(findings: &[Finding], github: bool) {
    if github {
        for f in findings {
            // Annotation lines are 1-based; file-level findings use 1.
            println!(
                "::error file={},line={},title=rmlint {}::{}",
                f.file,
                f.line.max(1),
                f.rule,
                f.message
            );
        }
        return;
    }
    for f in findings {
        println!("{f}");
    }
    if findings.is_empty() {
        println!("rmlint: clean");
    } else {
        eprintln!("rmlint: {} finding(s)", findings.len());
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut github = false;
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("rmlint: --root requires a directory (try --help)");
                    return ExitCode::from(2);
                }
            },
            "--github" => github = true,
            "--help" | "-h" => {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("rmlint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }
    let root = match root.or_else(rmcheck::lint::find_workspace_root) {
        Some(r) => r,
        None => {
            eprintln!("rmlint: no workspace root found (pass --root)");
            return ExitCode::from(2);
        }
    };

    let findings = rmcheck::lint::run_workspace(&root);
    emit(&findings, github);
    if findings.iter().any(|f| f.rule == "lint-config") {
        ExitCode::from(2)
    } else if findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
