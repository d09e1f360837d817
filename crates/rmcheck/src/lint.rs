//! `rmlint`: a zero-dependency source-level lint pass.
//!
//! It keeps only the repo-specific rules that rustc and clippy cannot
//! express: each one ties a span, a counter, a trace event or a config
//! field to other code or to the docs.
//!
//! | rule | scope | what it forbids / requires |
//! |------|-------|----------------------------|
//! | `hot-alloc` | hot-path crates (`core`, `rmwire`, `netsim`, `udprun`) | allocation/copy tokens (`Vec::new`, `vec!`, `.clone()`, `format!`, `.collect`, map inserts, ...) inside functions that open an `rmprof::span!` |
//! | `counter-drift` | `Stats` counters + `TraceEvent` variants vs the whole tree | every counter must be updated in non-test source and asserted in at least one test; every trace event must be emitted outside `rmtrace` and asserted in at least one test |
//! | `stats-doc` | `crates/core/src/stats.rs` vs `docs/OBSERVABILITY.md` | every `Stats` counter must appear in the observability docs |
//! | `trace-doc` | `crates/rmtrace/src/event.rs` vs `docs/OBSERVABILITY.md` | every `TraceEvent` variant must appear in the observability docs |
//! | `config-validate` | `crates/core/src/config.rs` | every `ProtocolConfig` field must be referenced by `validate()` (or carry an allow comment stating why it is unconstrained) |
//!
//! The clock, decode-path and packet-match rules are clippy's and rustc's
//! (per-crate `clippy.toml`, file-level `#![deny(clippy::…)]`);
//! `docs/CORRECTNESS.md` §1 says where every rule is enforced.
//!
//! Any finding can be suppressed with a justification comment on the same
//! line or the line above: `// rmlint: allow(<rule>): <reason>`.
//!
//! Scanning runs on the token stream from [`crate::lex`]: comments and
//! string literals are distinct token kinds (a rule name inside a doc
//! comment never fires), rule patterns are token *sequences* rather than
//! substrings, and `#[cfg(test)]` / `#[test]` items are excluded
//! **brace-aware** — code after a test module is still scanned, unlike the
//! v1 behavior of skipping from the first `#[cfg(test)]` to end of file.

use std::collections::{BTreeSet, HashSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::lex::{self, TokKind, Token};

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

/// Counter names and 1-based declaration lines from the `define_stats!`
/// invocation: entries of the form `name: sum,` / `name: max,`.
fn stats_counters(tokens: &[Token]) -> Vec<(String, usize)> {
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if !lex::seq_at(tokens, i, &["define_stats", "!"]) {
            continue;
        }
        let mut k = i + 2;
        while k < tokens.len() && tokens[k].text != "{" {
            k += 1;
        }
        if k >= tokens.len() {
            break;
        }
        let close = lex::brace_end(tokens, k).unwrap_or(tokens.len() - 1);
        for j in k + 1..close.saturating_sub(2) {
            let name = &tokens[j];
            if name.kind == TokKind::Ident
                && tokens[j + 1].text == ":"
                && matches!(tokens[j + 2].text.as_str(), "sum" | "max")
                && tokens
                    .get(j + 3)
                    .is_some_and(|t| t.text == "," || t.text == "}")
            {
                out.push((name.text.clone(), name.line));
            }
        }
        break;
    }
    out
}

/// `counter-drift`: every `Stats` counter must be updated somewhere in
/// non-test source *and* asserted in at least one test; every
/// `TraceEvent` variant must be emitted in non-test source outside
/// `rmtrace` itself *and* asserted in at least one test. A counter
/// nobody bumps is dead weight; a counter no test reads can silently rot.
///
/// `sources` is every workspace `.rs` file as `(relative path, text)`;
/// files under a `tests/` directory count as test code in full.
pub fn lint_counter_drift(
    stats_src: &str,
    event_src: &str,
    sources: &[(String, String)],
    findings: &mut Vec<Finding>,
) {
    let rule = "counter-drift";
    let counters = stats_counters(&lex::lex(stats_src));
    let events = lex::enum_variants_with_lines(&lex::lex(event_src), "TraceEvent");
    if counters.is_empty() {
        findings.push(Finding {
            rule: "lint-config",
            file: "crates/core/src/stats.rs".to_string(),
            line: 0,
            message: "no define_stats! counters found; counter-drift scope is stale".to_string(),
        });
    }
    if events.is_empty() {
        findings.push(Finding {
            rule: "lint-config",
            file: "crates/rmtrace/src/event.rs".to_string(),
            line: 0,
            message: "enum TraceEvent not found; counter-drift scope is stale".to_string(),
        });
    }

    // One pass over every source file, harvesting the facts the checks
    // consume: which idents are assigned in non-test code, which
    // TraceEvent variants are constructed outside rmtrace, and which
    // idents / string contents appear in test code.
    let mut updated: HashSet<String> = HashSet::new();
    let mut emitted: HashSet<String> = HashSet::new();
    let mut test_idents: HashSet<String> = HashSet::new();
    let mut test_strs: Vec<String> = Vec::new();
    for (file, src) in sources {
        let test_file = file.starts_with("tests/") || file.contains("/tests/");
        let tokens = lex::lex(src);
        for i in 0..tokens.len() {
            let t = &tokens[i];
            let in_test = test_file || t.in_test;
            match t.kind {
                TokKind::Ident if in_test => {
                    test_idents.insert(t.text.clone());
                }
                TokKind::Ident => {
                    if tokens
                        .get(i + 1)
                        .is_some_and(|n| n.text == "+=" || n.text == "=")
                    {
                        updated.insert(t.text.clone());
                    }
                    if t.text == "TraceEvent"
                        && !file.starts_with("crates/rmtrace/")
                        && tokens.get(i + 1).is_some_and(|n| n.text == "::")
                    {
                        if let Some(v) = tokens.get(i + 2) {
                            if v.kind == TokKind::Ident {
                                emitted.insert(v.text.clone());
                            }
                        }
                    }
                }
                TokKind::Str if in_test => test_strs.push(t.text.clone()),
                _ => {}
            }
        }
    }
    let asserted =
        |name: &str| test_idents.contains(name) || test_strs.iter().any(|s| s.contains(name));

    let stats_lines: Vec<&str> = stats_src.lines().collect();
    for (name, line) in &counters {
        if allowed(&stats_lines, line - 1, rule) {
            continue;
        }
        if !updated.contains(name) {
            findings.push(Finding {
                rule,
                file: "crates/core/src/stats.rs".to_string(),
                line: *line,
                message: format!("counter `{name}` is never updated in non-test source"),
            });
        }
        if !asserted(name) {
            findings.push(Finding {
                rule,
                file: "crates/core/src/stats.rs".to_string(),
                line: *line,
                message: format!("counter `{name}` is never asserted in any test"),
            });
        }
    }
    let event_lines: Vec<&str> = event_src.lines().collect();
    for (name, line) in &events {
        if allowed(&event_lines, line - 1, rule) {
            continue;
        }
        if !emitted.contains(name) {
            findings.push(Finding {
                rule,
                file: "crates/rmtrace/src/event.rs".to_string(),
                line: *line,
                message: format!(
                    "trace event `{name}` is never emitted in non-test source outside rmtrace"
                ),
            });
        }
        if !asserted(name) {
            findings.push(Finding {
                rule,
                file: "crates/rmtrace/src/event.rs".to_string(),
                line: *line,
                message: format!("trace event `{name}` is never asserted in any test"),
            });
        }
    }
}

/// Names declared via `define_stats!` (doc-coverage view).
fn stats_counter_names(stats_src: &str) -> Vec<String> {
    stats_counters(&lex::lex(stats_src))
        .into_iter()
        .map(|(n, _)| n)
        .collect()
}

/// Variant names of `pub enum TraceEvent` (doc-coverage view).
fn trace_event_names(event_src: &str) -> Vec<String> {
    lex::enum_variants(&lex::lex(event_src), "TraceEvent")
}

/// `stats-doc` + `trace-doc`: every counter and trace event must appear
/// by name in `docs/OBSERVABILITY.md` — an undocumented signal is one
/// nobody watches.
pub fn lint_doc_coverage(
    stats_src: &str,
    event_src: &str,
    observability_md: &str,
    findings: &mut Vec<Finding>,
) {
    for name in stats_counter_names(stats_src) {
        if !observability_md.contains(&name) {
            findings.push(Finding {
                rule: "stats-doc",
                file: "crates/core/src/stats.rs".to_string(),
                line: 1,
                message: format!("counter `{name}` is not documented in docs/OBSERVABILITY.md"),
            });
        }
    }
    for name in trace_event_names(event_src) {
        if !observability_md.contains(&name) {
            findings.push(Finding {
                rule: "trace-doc",
                file: "crates/rmtrace/src/event.rs".to_string(),
                line: 1,
                message: format!("trace event `{name}` is not documented in docs/OBSERVABILITY.md"),
            });
        }
    }
}

/// `config-validate`: every `ProtocolConfig` field must be referenced in
/// the body of `validate()` (as `.field`), or carry an allow comment on
/// its declaration stating why no constraint applies. A tuning knob that
/// validation never looks at is a knob whose nonsense values reach the
/// engines.
pub fn lint_config_validate(config_src: &str, findings: &mut Vec<Finding>) {
    let raw_lines: Vec<&str> = config_src.lines().collect();
    let tokens = lex::lex(config_src);
    let ident = |k: usize, text: &str| {
        tokens
            .get(k)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == text)
    };

    // Field declarations of `struct ProtocolConfig`: `pub <name>:` at the
    // top level of its body.
    let mut fields: Vec<(String, usize)> = Vec::new();
    let decl = (0..tokens.len()).find(|&i| lex::seq_at(&tokens, i, &["struct", "ProtocolConfig"]));
    if let Some(open) = decl.and_then(|i| (i..tokens.len()).find(|&k| tokens[k].text == "{")) {
        let close = lex::brace_end(&tokens, open).unwrap_or(tokens.len());
        for k in open + 1..close.saturating_sub(2) {
            let name = &tokens[k + 1];
            if tokens[k].depth == tokens[open].depth + 1
                && ident(k, "pub")
                && name.kind == TokKind::Ident
                && tokens[k + 2].text == ":"
            {
                fields.push((name.text.clone(), name.line));
            }
        }
    }

    // `.<field>` code tokens in the body of the first `fn validate`.
    let body = lex::fn_bodies(&tokens)
        .into_iter()
        .find(|f| f.name == "validate")
        .map_or(0..0, |f| f.body_open..f.body_close);
    for (name, line) in fields {
        let referenced = body
            .clone()
            .any(|k| tokens[k].text == "." && ident(k + 1, &name));
        if !referenced && !allowed(&raw_lines, line - 1, "config-validate") {
            findings.push(Finding {
                rule: "config-validate",
                file: "crates/core/src/config.rs".to_string(),
                line,
                message: format!(
                    "field `{name}` is never referenced by ProtocolConfig::validate; \
                     constrain it or justify with an allow comment"
                ),
            });
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

/// Every workspace `.rs` file the `counter-drift` rule scans: all crate
/// sources and integration tests plus the root umbrella crate — except
/// `rmcheck` itself, whose lint fixtures would otherwise count as "a test
/// asserting the counter".
fn counter_drift_sources(root: &Path) -> Vec<(String, String)> {
    let mut files: Vec<PathBuf> = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let p = entry.path();
            if !p.is_dir() || p.file_name().is_some_and(|n| n == "rmcheck") {
                continue;
            }
            for sub in ["src", "tests"] {
                files.extend(rs_files_under(&p.join(sub)));
            }
        }
    }
    for sub in ["src", "tests"] {
        files.extend(rs_files_under(&root.join(sub)));
    }
    files.sort();
    files
        .into_iter()
        .filter_map(|p| {
            std::fs::read_to_string(&p)
                .ok()
                .map(|src| (rel(root, &p), src))
        })
        .collect()
}

/// Run every rule against the workspace rooted at `root`, returning all
/// findings sorted by file and line. Missing files are themselves findings
/// (a moved scope must move the lint config with it).
pub fn run_workspace(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let read = |rel_path: &str, findings: &mut Vec<Finding>| -> Option<String> {
        match std::fs::read_to_string(root.join(rel_path)) {
            Ok(s) => Some(s),
            Err(e) => {
                findings.push(Finding {
                    rule: "lint-config",
                    file: rel_path.to_string(),
                    line: 0,
                    message: format!("cannot read a linted file: {e}"),
                });
                None
            }
        }
    };

    for dir in HOT_PATH_DIRS {
        for f in rs_files_under(&root.join(dir)) {
            if let Ok(src) = std::fs::read_to_string(&f) {
                lint_hot_alloc(&rel(root, &f), &src, &mut findings);
            }
        }
    }

    let stats = read("crates/core/src/stats.rs", &mut findings);
    let event = read("crates/rmtrace/src/event.rs", &mut findings);
    let obs = read("docs/OBSERVABILITY.md", &mut findings);
    if let (Some(stats), Some(event), Some(obs)) = (&stats, &event, &obs) {
        lint_doc_coverage(stats, event, obs, &mut findings);
    }
    if let (Some(stats), Some(event)) = (&stats, &event) {
        let sources = counter_drift_sources(root);
        lint_counter_drift(stats, event, &sources, &mut findings);
    }

    if let Some(cfg) = read("crates/core/src/config.rs", &mut findings) {
        lint_config_validate(&cfg, &mut findings);
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
