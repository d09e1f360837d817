//! Positive and negative fixtures for every `rmlint` rule: each rule
//! must fire on a minimal violating snippet and stay quiet on the
//! compliant rewrite (including `rmlint: allow(...)` suppression).

use rmcheck::lint::{
    lint_config_validate, lint_counter_drift, lint_doc_coverage, lint_hot_alloc, Finding,
};

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn hot_alloc(src: &str) -> Vec<Finding> {
    let mut f = Vec::new();
    lint_hot_alloc("x.rs", src, &mut f);
    f
}

const FIXTURE_STATS: &str = "define_stats! {\n    data_sent: sum,\n    peak_buffer: max,\n}\n";
const FIXTURE_EVENTS: &str =
    "pub enum TraceEvent {\n    DataSent { seq: u32 },\n    Delivered { msg: u64 },\n}\n";

#[test]
fn doc_coverage_reports_each_missing_name() {
    let docs = "`data_sent` counts packets. `DataSent` marks a send.\n";
    let mut f = Vec::new();
    lint_doc_coverage(FIXTURE_STATS, FIXTURE_EVENTS, docs, &mut f);
    let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert_eq!(rules(&f), vec!["stats-doc", "trace-doc"], "{f:?}");
    assert!(msgs[0].contains("peak_buffer"), "{msgs:?}");
    assert!(msgs[1].contains("Delivered"), "{msgs:?}");
}

#[test]
fn doc_coverage_clean_when_all_names_present() {
    let docs = "| data_sent | ... | peak_buffer | ... DataSent ... Delivered\n";
    let mut f = Vec::new();
    lint_doc_coverage(FIXTURE_STATS, FIXTURE_EVENTS, docs, &mut f);
    assert!(f.is_empty(), "{f:?}");
}

/// A field `validate` names only in a comment or a string is unvalidated.
#[test]
fn config_validate_fires_on_unvalidated_field() {
    let src = "pub struct ProtocolConfig {\n\
               \x20   pub window: usize,\n\
               \x20   pub mystery_knob: u32,\n\
               }\n\
               impl ProtocolConfig {\n\
               \x20   pub fn validate(&self) -> Result<(), Error> {\n\
               \x20       // self.mystery_knob needs no check\n\
               \x20       if self.window == 0 { return Err(Error::Msg(\"self.mystery_knob\")); }\n\
               \x20       Ok(())\n\
               \x20   }\n\
               }\n";
    let mut f = Vec::new();
    lint_config_validate(src, &mut f);
    assert_eq!(rules(&f), vec!["config-validate"], "{f:?}");
    assert!(
        f[0].message.contains("mystery_knob") && f[0].line == 3,
        "{f:?}"
    );
}

#[test]
fn config_validate_accepts_allow_comment() {
    let src = "pub struct ProtocolConfig {\n\
               \x20   pub window: usize,\n\
               \x20   // rmlint: allow(config-validate): free-form label, any value is legal\n\
               \x20   pub mystery_knob: u32,\n\
               }\n\
               impl ProtocolConfig {\n\
               \x20   pub fn validate(&self) -> Result<(), Error> {\n\
               \x20       if self.window == 0 { return Err(Error::Window); }\n\
               \x20       Ok(())\n\
               \x20   }\n\
               }\n";
    let mut f = Vec::new();
    lint_config_validate(src, &mut f);
    assert!(f.is_empty(), "{f:?}");
}

/// The v1 linter skipped from the first `#[cfg(test)]` to end-of-file,
/// so any non-test code *after* a test module was invisible to every
/// rule. The lexer's brace-aware test marking closes that hole.
#[test]
fn code_after_a_test_module_is_still_linted() {
    let src = "fn f() {}\n\
               #[cfg(test)]\n\
               mod tests {\n\
               \x20   #[test]\n\
               \x20   fn t() { let _span = rmprof::span!(rmprof::Stage::UdpTx); V.clone(); }\n\
               }\n\
               pub fn g(v: &Vec<u8>) -> Vec<u8> {\n\
               \x20   let _span = rmprof::span!(rmprof::Stage::UdpTx);\n\
               \x20   v.clone()\n\
               }\n";
    let f = hot_alloc(src);
    assert!(rules(&f).contains(&"hot-alloc"), "{f:?}");
    assert!(
        f.iter().all(|x| x.line == 9),
        "must flag the post-test-module line, not the test body: {f:?}"
    );
}

#[test]
fn hot_alloc_fires_only_inside_span_instrumented_fns() {
    let bad = "fn encode(buf: &[u8]) -> Vec<u8> {\n\
               \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
               \x20   buf.to_vec()\n\
               }\n";
    let f = hot_alloc(bad);
    assert!(rules(&f).contains(&"hot-alloc"), "{f:?}");
    assert!(
        f.iter().any(|x| x.rule == "hot-alloc" && x.line == 3),
        "{f:?}"
    );

    // Same allocation, no span: the function is not on a measured hot
    // path, so the rule stays quiet.
    let unspanned = "fn encode(buf: &[u8]) -> Vec<u8> { buf.to_vec() }\n";
    assert!(!rules(&hot_alloc(unspanned)).contains(&"hot-alloc"));

    // Allocations in a sibling fn of a span-instrumented one are fine.
    let sibling = "fn hot() { let _span = rmprof::span!(rmprof::Stage::UdpTx); }\n\
                   fn cold() -> Vec<u8> { vec![0; 16] }\n";
    assert!(!rules(&hot_alloc(sibling)).contains(&"hot-alloc"));

    let allowed = "fn encode(buf: &[u8]) -> Vec<u8> {\n\
                   \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
                   \x20   // rmlint: allow(hot-alloc): single staging copy per transfer\n\
                   \x20   buf.to_vec()\n\
                   }\n";
    assert!(!rules(&hot_alloc(allowed)).contains(&"hot-alloc"));
}

#[test]
fn hot_alloc_catches_the_common_allocators() {
    for alloc in [
        "Vec::new()",
        "vec![0; 16]",
        "Box::new(x)",
        "format!(\"{x}\")",
        "xs.iter().collect::<Vec<_>>()",
        "HashMap::new()",
    ] {
        let src = format!(
            "fn hot(x: u8, xs: &[u8]) {{\n\
             \x20   let _span = rmprof::span!(rmprof::Stage::UdpTx);\n\
             \x20   let _ = {alloc};\n\
             }}\n"
        );
        assert!(
            rules(&hot_alloc(&src)).contains(&"hot-alloc"),
            "expected hot-alloc on {alloc:?}"
        );
    }
}

const CD_STATS: &str = "define_stats! {\n    data_sent: sum,\n    naks_sent: sum,\n}\n";
const CD_EVENTS: &str = "pub enum TraceEvent {\n    DataSent { seq: u32 },\n}\n";

fn cd_sources(src: &str, test: &str) -> Vec<(String, String)> {
    vec![
        ("crates/core/src/sender.rs".to_string(), src.to_string()),
        ("crates/simrun/tests/t.rs".to_string(), test.to_string()),
    ]
}

#[test]
fn counter_drift_clean_when_updated_and_asserted() {
    let src = "fn f(s: &mut Stats) {\n\
               \x20   s.data_sent += 1;\n\
               \x20   s.naks_sent += 1;\n\
               \x20   emit(TraceEvent::DataSent { seq: 0 });\n\
               }\n";
    let test = "#[test]\nfn t() {\n\
                \x20   assert!(s.data_sent > 0 && s.naks_sent > 0);\n\
                \x20   assert!(matches!(e, TraceEvent::DataSent { .. }));\n\
                }\n";
    let mut f = Vec::new();
    lint_counter_drift(CD_STATS, CD_EVENTS, &cd_sources(src, test), &mut f);
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn counter_drift_reports_unincremented_and_unasserted_names() {
    // `naks_sent` is declared but never bumped; the test never looks at
    // it; `DataSent` is emitted but no test pins it.
    let src = "fn f(s: &mut Stats) {\n\
               \x20   s.data_sent += 1;\n\
               \x20   emit(TraceEvent::DataSent { seq: 0 });\n\
               }\n";
    let test = "#[test]\nfn t() { assert!(s.data_sent > 0); }\n";
    let mut f = Vec::new();
    lint_counter_drift(CD_STATS, CD_EVENTS, &cd_sources(src, test), &mut f);
    let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert_eq!(rules(&f), vec!["counter-drift"; 3], "{f:?}");
    assert!(
        msgs.iter()
            .any(|m| m.contains("`naks_sent` is never updated")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`naks_sent` is never asserted")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`DataSent` is never asserted")),
        "{msgs:?}"
    );
}

#[test]
fn counter_drift_accepts_string_assertions_and_allow_comments() {
    // Tests that match on the event's *name string* (e.g. golden-trace
    // comparisons) count as assertions.
    let src = "fn f(s: &mut Stats) {\n\
               \x20   s.data_sent += 1;\n\
               \x20   s.naks_sent += 1;\n\
               \x20   emit(TraceEvent::DataSent { seq: 0 });\n\
               }\n";
    let test = "#[test]\nfn t() {\n\
                \x20   assert!(golden.contains(\"DataSent seq=0\"));\n\
                \x20   assert!(s.data_sent > 0 && s.naks_sent > 0);\n\
                }\n";
    let mut f = Vec::new();
    lint_counter_drift(CD_STATS, CD_EVENTS, &cd_sources(src, test), &mut f);
    assert!(f.is_empty(), "{f:?}");

    // An allow comment on the declaration waives both checks for it.
    let stats = "define_stats! {\n\
                 \x20   data_sent: sum,\n\
                 \x20   // rmlint: allow(counter-drift): reserved for the next wire rev\n\
                 \x20   naks_sent: sum,\n\
                 }\n";
    let test = "#[test]\nfn t() {\n\
                \x20   assert!(s.data_sent > 0);\n\
                \x20   assert!(matches!(e, TraceEvent::DataSent { .. }));\n\
                }\n";
    let mut f = Vec::new();
    lint_counter_drift(stats, CD_EVENTS, &cd_sources(src, test), &mut f);
    assert!(f.is_empty(), "{f:?}");
}
