//! Positive and negative fixtures for `rmlint`'s `hot-alloc` rule: it
//! must fire on a minimal violating snippet and stay quiet on the
//! compliant rewrite (including `rmlint: allow(...)` suppression).

use rmcheck::lint::{lint_hot_alloc, Finding};

fn rules(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

fn hot_alloc(src: &str) -> Vec<Finding> {
    let mut f = Vec::new();
    lint_hot_alloc("x.rs", src, &mut f);
    f
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
