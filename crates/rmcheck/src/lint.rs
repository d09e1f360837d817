//! `rmlint`: a zero-dependency source-level lint pass.
//!
//! It keeps the one repo-specific rule that rustc, clippy and the tests
//! cannot express:
//!
//! | rule | scope | what it forbids |
//! |------|-------|-----------------|
//! | `hot-alloc` | hot-path crates (`core`, `rmwire`, `netsim`, `udprun`) | allocation/copy tokens (`Vec::new`, `vec!`, `.clone()`, `format!`, `.collect`, map inserts, ...) inside functions that open an `rmprof::span!` |
//!
//! `docs/CORRECTNESS.md` §1 says where every other source rule is
//! enforced: clippy and rustc hold the clock, decode-path, packet-match
//! and config-validation rules, and tests that read the declarations hold
//! the counter, trace-event and docs rules.
//!
//! A finding is suppressed with a justification comment on the same line
//! or the line above: `// rmlint: allow(hot-alloc): <reason>`.
//!
//! Scanning runs on the token stream from [`crate::lex`]: comments and
//! string literals are distinct token kinds (a rule name inside a doc
//! comment never fires), rule patterns are token *sequences* rather than
//! substrings, and `#[cfg(test)]` / `#[test]` items are excluded
//! **brace-aware** — code after a test module is still scanned, unlike the
//! v1 behavior of skipping from the first `#[cfg(test)]` to end of file.

use std::collections::BTreeSet;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (e.g. `hot-alloc`).
    pub rule: &'static str,
    /// File the finding is in, relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Crates holding the hot paths the paper measures (wire encode/decode/CRC,
/// sender window, receiver assembly, FEC XOR, netsim dispatch, udprun
/// tx/rx): the `hot-alloc` rule scans every span-instrumented function in
/// their sources.
pub const HOT_PATH_DIRS: &[&str] = &[
    "crates/core/src",
    "crates/rmwire/src",
    "crates/netsim/src",
    "crates/udprun/src",
];

/// Is a finding of `rule` on 0-based line `idx` suppressed by an
/// `rmlint: allow(<rule>)` comment on the same or the previous line of
/// the *raw* source?
fn allowed(raw_lines: &[&str], idx: usize, rule: &str) -> bool {
    let marker = format!("rmlint: allow({rule})");
    raw_lines.get(idx).is_some_and(|l| l.contains(&marker))
        || idx > 0 && raw_lines.get(idx - 1).is_some_and(|l| l.contains(&marker))
}

/// Allocation/copy token sequences the `hot-alloc` rule flags inside
/// span-instrumented functions.
pub const HOT_ALLOC_PATTERNS: &[&[&str]] = &[
    &["Vec", "::", "new"],
    &["Vec", "::", "with_capacity"],
    &["vec", "!"],
    &[".", "to_vec", "("],
    &[".", "clone", "("],
    &["Box", "::", "new"],
    &["format", "!"],
    &[".", "collect"],
    &["BTreeMap", "::", "new"],
    &["HashMap", "::", "new"],
    &[".", "insert", "("],
    &["Bytes", "::", "copy_from_slice"],
    &["BytesMut", "::", "with_capacity"],
];

/// `hot-alloc`: inside any function whose body opens an `rmprof::span!`
/// (the marker that this is one of the hot stages the paper measures),
/// flag allocation and copy tokens. A justified site carries an allow
/// comment; anything else fails the run.
pub fn lint_hot_alloc(file: &str, src: &str, findings: &mut Vec<Finding>) {
    let rule = "hot-alloc";
    let raw_lines: Vec<&str> = src.lines().collect();
    let tokens = lex::lex(src);
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    for f in lex::fn_bodies(&tokens) {
        if tokens[f.body_open].in_test {
            continue;
        }
        let body = f.body_open..=f.body_close;
        let has_span = body
            .clone()
            .any(|i| lex::seq_at(&tokens, i, &["span", "!"]) && !tokens[i].in_test);
        if !has_span {
            continue;
        }
        for i in body {
            if tokens[i].in_test || flagged.contains(&i) {
                continue;
            }
            for pat in HOT_ALLOC_PATTERNS {
                if lex::seq_at(&tokens, i, pat) && !allowed(&raw_lines, tokens[i].line - 1, rule) {
                    flagged.insert(i);
                    findings.push(Finding {
                        rule,
                        file: file.to_string(),
                        line: tokens[i].line,
                        message: format!(
                            "allocation/copy `{}` inside span-instrumented hot fn `{}`",
                            pat.concat(),
                            f.name
                        ),
                    });
                    break;
                }
            }
        }
    }
}

fn rs_files_under(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return out;
    };
    for entry in entries.flatten() {
        let p = entry.path();
        if p.is_dir() {
            out.extend(rs_files_under(&p));
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
    out.sort();
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Run `hot-alloc` over the workspace rooted at `root`, returning all
/// findings sorted by file and line. A missing hot-path dir is itself a
/// finding: a moved scope must move the lint config with it, or the lint
/// would scan nothing and call it clean.
pub fn run_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    for dir in HOT_PATH_DIRS {
        if !root.join(dir).is_dir() {
            findings.push(Finding {
                rule: "lint-config",
                file: dir.to_string(),
                line: 0,
                message: "hot-path dir not found; HOT_PATH_DIRS is stale".to_string(),
            });
        }
        for f in rs_files_under(&root.join(dir)) {
            if let Ok(src) = std::fs::read_to_string(&f) {
                lint_hot_alloc(&rel(root, &f), &src, &mut findings);
            }
        }
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    findings
}

/// Locate the workspace root from the current directory: walk up to the
/// first `Cargo.toml` whose `[workspace]` table lists `members`. A nested
/// package may declare an empty `[workspace]` to stand outside the
/// enclosing one (`benchmark/` does); that is not the root.
pub fn find_workspace_root() -> Option<PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap_or_default();
        let has_members = manifest
            .lines()
            .map(str::trim)
            .skip_while(|l| *l != "[workspace]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .any(|l| l.split('=').next().is_some_and(|k| k.trim() == "members"));
        if has_members {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}
