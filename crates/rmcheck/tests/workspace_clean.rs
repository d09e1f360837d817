//! Regression gate: the real workspace must stay rmlint-clean. Any new
//! unannotated allocation in a span-instrumented hot function fails this
//! test — the same signal CI's dedicated `rmlint` step gives, but local.

use std::path::PathBuf;

fn workspace_root() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/rmcheck; the workspace root is two up.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(|p| p.parent())
        .expect("crates/rmcheck has a workspace root two levels up")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let findings = rmcheck::lint::run_workspace(&workspace_root());
    assert!(
        findings.is_empty(),
        "rmlint found {} issue(s):\n{}",
        findings.len(),
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
