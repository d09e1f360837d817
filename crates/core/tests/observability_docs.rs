//! `docs/OBSERVABILITY.md` checked against the declarations it documents.
//!
//! The docs tables keep their hand-written meanings; this test keeps their
//! names in step with the code. Every `Stats` counter has a row naming its
//! merge kind, every `TraceEvent` is in the event table, every `DropCause`
//! in the cause table, and every `rmprof::Stage` is in the stage taxonomy.
//! Each list comes from its one declaration (`define_stats!`,
//! `define_events!`, `define_causes!`, `Stage::ALL`), so a signal added to
//! the code without a docs row fails here.

use rmcast::{Stats, TraceEvent};
use rmprof::Stage;
use rmtrace::DropCause;

const DOC: &str = include_str!("../../../docs/OBSERVABILITY.md");

/// The table rows (lines starting `|`) between `heading` and the next
/// heading.
fn table_under(heading: &str) -> Vec<&'static str> {
    let start = DOC
        .find(heading)
        .unwrap_or_else(|| panic!("no `{heading}` in docs/OBSERVABILITY.md"));
    let rest = &DOC[start + heading.len()..];
    let end = rest.find("\n#").unwrap_or(rest.len());
    rest[..end].lines().filter(|l| l.starts_with('|')).collect()
}

/// The name of each `(name, text)` whose `text` is in no row of `rows`.
fn undocumented<'a>(
    names: impl IntoIterator<Item = (&'a str, String)>,
    rows: &[&str],
) -> Vec<&'a str> {
    names
        .into_iter()
        .filter(|(_, text)| !rows.iter().any(|r| r.contains(text.as_str())))
        .map(|(name, _)| name)
        .collect()
}

#[test]
fn every_counter_has_a_row_with_its_kind() {
    let rows = table_under("## Counters reference");
    let missing = undocumented(
        Stats::field_kinds()
            .into_iter()
            .map(|(name, kind)| (name, format!("| `{name}` | {kind} |"))),
        &rows,
    );
    assert!(
        missing.is_empty(),
        "counters with no `| `name` | kind |` row in the counters reference: {missing:?}"
    );
}

#[test]
fn every_trace_event_is_in_the_event_table() {
    let rows = table_under("## The event taxonomy");
    let missing = undocumented(
        TraceEvent::NAMES
            .iter()
            .map(|&name| (name, format!("`{name}`"))),
        &rows,
    );
    assert!(
        missing.is_empty(),
        "trace events missing from the event table: {missing:?}"
    );
}

#[test]
fn every_drop_cause_is_in_the_cause_table() {
    let rows = table_under("## Drop causes");
    let missing = undocumented(
        DropCause::NAMES
            .iter()
            .map(|&name| (name, format!("| `{name}` |"))),
        &rows,
    );
    assert!(
        missing.is_empty(),
        "drop causes missing from the cause table: {missing:?}"
    );
}

#[test]
fn every_stage_is_in_the_stage_taxonomy() {
    let rows = table_under("### The stage taxonomy");
    let missing = undocumented(
        Stage::ALL
            .iter()
            .map(|s| (s.name(), format!("| `{}` |", s.name()))),
        &rows,
    );
    assert!(
        missing.is_empty(),
        "stages missing from the stage taxonomy table: {missing:?}"
    );
}
