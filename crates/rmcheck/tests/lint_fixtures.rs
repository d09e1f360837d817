//! Positive and negative fixtures for every `rmlint` rule: each rule
//! must fire on a minimal violating snippet and stay quiet on the
//! compliant rewrite (including `rmlint: allow(...)` suppression).

use rmcheck::lint::{
    lint_config_validate, lint_counter_drift, lint_doc_coverage, lint_packet_exhaustive,
    lint_source,
};

fn rules(findings: &[rmcheck::lint::Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn wall_clock_fires_and_is_suppressible() {
    let bad = "fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    let f = lint_source("x.rs", bad);
    assert!(rules(&f).contains(&"wall-clock"), "{f:?}");

    let allowed = "// rmlint: allow(wall-clock): fixture justification\n\
                   fn t() -> std::time::Instant { std::time::Instant::now() }\n";
    assert!(
        !rules(&lint_source("x.rs", allowed)).contains(&"wall-clock"),
        "allow comment on the previous line must suppress"
    );

    let clean = "fn t(now: rmwire::Time) -> rmwire::Time { now }\n";
    assert!(!rules(&lint_source("x.rs", clean)).contains(&"wall-clock"));
}

#[test]
fn wall_clock_catches_os_randomness() {
    for bad in [
        "let mut rng = thread_rng();\n",
        "let rng = SmallRng::from_entropy();\n",
        "let mut rng = OsRng;\n",
        "let t = SystemTime::now();\n",
    ] {
        assert!(
            rules(&lint_source("x.rs", bad)).contains(&"wall-clock"),
            "expected wall-clock on {bad:?}"
        );
    }
}

#[test]
fn wall_clock_ignores_comments_strings_and_test_modules() {
    let commented = "// Instant::now is forbidden here\nfn f() {}\n";
    assert!(rules(&lint_source("x.rs", commented)).is_empty());

    let in_string = "const MSG: &str = \"Instant::now\";\n";
    assert!(rules(&lint_source("x.rs", in_string)).is_empty());

    let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = \
                    std::time::Instant::now(); }\n}\n";
    assert!(rules(&lint_source("x.rs", in_tests)).is_empty());
}

#[test]
fn raw_instant_fires_and_is_suppressible() {
    let bad = "let t = std::time::Instant::now();\nwork();\nlet wall = t.elapsed();\n";
    let f = lint_source("x.rs", bad);
    assert!(rules(&f).contains(&"raw-instant"), "{f:?}");

    let allowed = "// rmlint: allow(raw-instant): cluster epoch, not a measurement\n\
                   let epoch = Instant::now();\n";
    assert!(
        !rules(&lint_source("x.rs", allowed)).contains(&"raw-instant"),
        "allow comment must suppress"
    );

    // The sanctioned pattern: a span, not a stopwatch.
    let clean = "let _span = rmprof::span!(rmprof::Stage::UdpTx);\nwork();\n";
    assert!(!rules(&lint_source("x.rs", clean)).contains(&"raw-instant"));

    // Comments, strings, and test modules stay quiet.
    let in_tests = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let _ = \
                    std::time::Instant::now(); }\n}\n";
    assert!(rules(&lint_source("x.rs", in_tests)).is_empty());
}

#[test]
fn panic_path_fires_and_is_suppressible() {
    for bad in [
        "let v = map.get(&k).unwrap();\n",
        "let v = map.get(&k).expect(\"present\");\n",
        "panic!(\"bad packet\");\n",
        "unreachable!();\n",
        "todo!()\n",
        "unimplemented!()\n",
    ] {
        assert!(
            rules(&lint_source("x.rs", bad)).contains(&"panic-path"),
            "expected panic-path on {bad:?}"
        );
    }

    let allowed =
        "let v = map.get(&k).unwrap(); // rmlint: allow(panic-path): key inserted above\n";
    assert!(!rules(&lint_source("x.rs", allowed)).contains(&"panic-path"));

    let clean = "let Some(v) = map.get(&k) else { return Err(WireError::Truncated) };\n";
    assert!(!rules(&lint_source("x.rs", clean)).contains(&"panic-path"));
}

#[test]
fn index_unguarded_fires_and_skips_non_index_brackets() {
    let bad = "let b = buf[0];\n";
    assert!(rules(&lint_source("x.rs", bad)).contains(&"index-unguarded"));

    let slicing = "let head = buf[..4].to_vec();\n";
    assert!(rules(&lint_source("x.rs", slicing)).contains(&"index-unguarded"));

    let chained = "let b = words()[i];\n";
    assert!(rules(&lint_source("x.rs", chained)).contains(&"index-unguarded"));

    // Attributes, array types/literals, and vec! are not index expressions.
    for clean in [
        "#[derive(Debug)]\nstruct S;\n",
        "let a: [u8; 4] = [0; 4];\n",
        "let v = vec![1, 2, 3];\n",
        "let b = buf.get(0);\n",
    ] {
        assert!(
            !rules(&lint_source("x.rs", clean)).contains(&"index-unguarded"),
            "false positive on {clean:?}"
        );
    }

    let allowed = "// rmlint: allow(index-unguarded): i < LEN by loop bound\nlet b = buf[i];\n";
    assert!(!rules(&lint_source("x.rs", allowed)).contains(&"index-unguarded"));
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
               \x20   fn t() { let _ = std::time::Instant::now(); }\n\
               }\n\
               pub fn g() -> std::time::Instant { std::time::Instant::now() }\n";
    let f = lint_source("x.rs", src);
    assert!(rules(&f).contains(&"wall-clock"), "{f:?}");
    assert!(
        f.iter().all(|x| x.line == 7),
        "must flag the post-test-module line, not the test body: {f:?}"
    );
}

#[test]
fn hot_alloc_fires_only_inside_span_instrumented_fns() {
    let bad = "fn encode(buf: &[u8]) -> Vec<u8> {\n\
               \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
               \x20   buf.to_vec()\n\
               }\n";
    let f = lint_source("x.rs", bad);
    assert!(rules(&f).contains(&"hot-alloc"), "{f:?}");
    assert!(
        f.iter().any(|x| x.rule == "hot-alloc" && x.line == 3),
        "{f:?}"
    );

    // Same allocation, no span: the function is not on a measured hot
    // path, so the rule stays quiet.
    let unspanned = "fn encode(buf: &[u8]) -> Vec<u8> { buf.to_vec() }\n";
    assert!(!rules(&lint_source("x.rs", unspanned)).contains(&"hot-alloc"));

    // Allocations in a sibling fn of a span-instrumented one are fine.
    let sibling = "fn hot() { let _span = rmprof::span!(rmprof::Stage::UdpTx); }\n\
                   fn cold() -> Vec<u8> { vec![0; 16] }\n";
    assert!(!rules(&lint_source("x.rs", sibling)).contains(&"hot-alloc"));

    let allowed = "fn encode(buf: &[u8]) -> Vec<u8> {\n\
                   \x20   let _span = rmprof::span!(rmprof::Stage::WireEncode);\n\
                   \x20   // rmlint: allow(hot-alloc): single staging copy per transfer\n\
                   \x20   buf.to_vec()\n\
                   }\n";
    assert!(!rules(&lint_source("x.rs", allowed)).contains(&"hot-alloc"));
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
            rules(&lint_source("x.rs", &src)).contains(&"hot-alloc"),
            "expected hot-alloc on {alloc:?}"
        );
    }
}

/// Wildcard arms in packet matches report under the `packet-exhaustive`
/// rule — same contract as the cross-crate variant-coverage half.
#[test]
fn wildcard_arm_fires_in_packet_matches_only() {
    let bad = "fn dispatch(p: Packet) {\n\
               \x20   match p {\n\
               \x20       Packet::Data(d) => on_data(d),\n\
               \x20       _ => {}\n\
               \x20   }\n\
               }\n";
    let f = lint_source("x.rs", bad);
    assert!(
        f.iter().any(|x| x.rule == "packet-exhaustive"
            && x.line == 4
            && x.message.contains("wildcard arm")),
        "{f:?}"
    );

    // Exhaustive packet match: quiet.
    let exhaustive = "fn dispatch(p: Packet) {\n\
                      \x20   match p {\n\
                      \x20       Packet::Data(d) => on_data(d),\n\
                      \x20       Packet::Ack(a) => on_ack(a),\n\
                      \x20   }\n\
                      }\n";
    assert!(!rules(&lint_source("x.rs", exhaustive)).contains(&"packet-exhaustive"));

    // Wildcards over non-packet enums are legitimate.
    let other = "fn f(s: State) {\n\
                 \x20   match s {\n\
                 \x20       State::Idle => go(),\n\
                 \x20       _ => {}\n\
                 \x20   }\n\
                 }\n";
    assert!(!rules(&lint_source("x.rs", other)).contains(&"packet-exhaustive"));

    // Binding patterns like `other => ...` are not wildcards; they at
    // least force the author to name what they are swallowing.
    let bound = "fn dispatch(p: Packet) {\n\
                 \x20   match p {\n\
                 \x20       Packet::Data(d) => on_data(d),\n\
                 \x20       other => log(other),\n\
                 \x20   }\n\
                 }\n";
    assert!(!rules(&lint_source("x.rs", bound)).contains(&"packet-exhaustive"));

    let allowed = "fn dispatch(p: Packet) {\n\
                   \x20   match p {\n\
                   \x20       Packet::Data(d) => on_data(d),\n\
                   \x20       // rmlint: allow(packet-exhaustive): decoder rejects the rest\n\
                   \x20       _ => {}\n\
                   \x20   }\n\
                   }\n";
    assert!(!rules(&lint_source("x.rs", allowed)).contains(&"packet-exhaustive"));
}

const PX_HEADER: &str = "pub enum PacketType {\n    Data,\n    Nak,\n}\n";
const PX_PACKET: &str = "pub enum Packet {\n    Data,\n    Nak,\n}\n\
                         fn parse(t: PacketType) -> Packet {\n\
                         \x20   match t {\n\
                         \x20       PacketType::Data => Packet::Data,\n\
                         \x20       PacketType::Nak => Packet::Nak,\n\
                         \x20   }\n\
                         }\n";
const PX_DISPATCH: &str = "fn dispatch(p: Packet) {\n\
                           \x20   match p {\n\
                           \x20       Packet::Data => {}\n\
                           \x20       Packet::Nak => {}\n\
                           \x20   }\n\
                           }\n";
const PX_FUZZ: &str = "fn corpus() { encode_data(); encode_nak(); }\n";

#[test]
fn packet_exhaustive_clean_when_every_variant_is_covered() {
    let mut f = Vec::new();
    lint_packet_exhaustive(
        PX_HEADER,
        PX_PACKET,
        PX_DISPATCH,
        PX_DISPATCH,
        PX_FUZZ,
        &mut f,
    );
    assert!(f.is_empty(), "{f:?}");
}

#[test]
fn packet_exhaustive_reports_each_uncovered_variant() {
    // Grow the wire enum without teaching the dispatches or the fuzzer:
    // every gap is reported individually.
    let header = "pub enum PacketType {\n    Data,\n    Nak,\n    Heartbeat,\n}\n";
    let mut f = Vec::new();
    lint_packet_exhaustive(header, PX_PACKET, PX_DISPATCH, PX_DISPATCH, PX_FUZZ, &mut f);
    let msgs: Vec<&str> = f.iter().map(|x| x.message.as_str()).collect();
    assert_eq!(
        rules(&f),
        vec!["packet-exhaustive", "packet-exhaustive"],
        "{f:?}"
    );
    assert!(
        msgs[0].contains("PacketType::Heartbeat") && msgs[0].contains("dispatch"),
        "{msgs:?}"
    );
    assert!(msgs[1].contains("fuzzer"), "{msgs:?}");

    // A Packet variant one engine forgot: named with the file at fault.
    let packet = "pub enum Packet {\n    Data,\n    Nak,\n    Repair,\n}\n\
                  fn parse(t: PacketType) -> Packet {\n\
                  \x20   match t {\n\
                  \x20       PacketType::Data => Packet::Data,\n\
                  \x20       PacketType::Nak => Packet::Nak,\n\
                  \x20   }\n\
                  }\n";
    let receiver = "fn dispatch(p: Packet) {\n\
                    \x20   match p {\n\
                    \x20       Packet::Data => {}\n\
                    \x20       Packet::Nak => {}\n\
                    \x20       Packet::Repair => {}\n\
                    \x20   }\n\
                    }\n";
    let mut f = Vec::new();
    lint_packet_exhaustive(PX_HEADER, packet, receiver, PX_DISPATCH, PX_FUZZ, &mut f);
    assert_eq!(rules(&f), vec!["packet-exhaustive"], "{f:?}");
    assert_eq!(f[0].file, "crates/core/src/sender.rs");
    assert!(f[0].message.contains("Packet::Repair"), "{f:?}");
}

#[test]
fn packet_exhaustive_missing_enum_is_a_config_error() {
    let mut f = Vec::new();
    lint_packet_exhaustive("", PX_PACKET, PX_DISPATCH, PX_DISPATCH, PX_FUZZ, &mut f);
    assert!(rules(&f).contains(&"lint-config"), "{f:?}");
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
