//! Render a run report from a JSONL packet-lifecycle trace, or a
//! hot-path profile from an `rmprof-v1` stats document.
//!
//! Traces are written by the `trace_deep_dive` experiment (simulator
//! backend) or a `udprun` cluster configured with a `JsonlSink`. Profile
//! documents come from the udprun stats endpoint (`GET /stats.json`) or
//! any saved `rmprof` snapshot. Usage:
//!
//! ```text
//! rmreport <trace.jsonl> [transfer seq]
//! rmreport --profile <stats.json>
//! ```
//!
//! Without the optional `transfer seq` pair the tool narrates the most
//! retransmitted packet in the trace. Empty or truncated input is an
//! error (clear message, nonzero exit), never a silent empty report.

use simrun::report::{lifecycle, pick_packet, render_lifecycle, render_profile, Report};
use std::io::{self, Write};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "--profile") {
        return profile_main(args.get(1).map(String::as_str));
    }
    let path = match args.first() {
        Some(p) => p,
        None => {
            eprintln!("usage: rmreport <trace.jsonl> [transfer seq]");
            eprintln!("       rmreport --profile <stats.json>");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rmreport: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let records = match rmtrace::parse_jsonl(&text) {
        Ok(r) => r,
        Err((line, msg)) => {
            eprintln!(
                "rmreport: {path}:{line}: {msg} \
                 (truncated or corrupt trace? each line must be one complete JSON record)"
            );
            return ExitCode::FAILURE;
        }
    };
    if records.is_empty() {
        eprintln!(
            "rmreport: {path}: no trace records — the file is empty. \
             Was the run configured with a trace sink (JsonlSink / --trace)?"
        );
        return ExitCode::FAILURE;
    }

    let packet = match (args.get(1), args.get(2)) {
        (Some(t), Some(s)) => match (t.parse(), s.parse()) {
            (Ok(t), Ok(s)) => Some((t, s)),
            _ => {
                eprintln!("rmreport: transfer and seq must be integers");
                return ExitCode::FAILURE;
            }
        },
        _ => pick_packet(&records),
    };
    let mut text = Report::digest(&records).render();
    if let Some((transfer, seq)) = packet {
        text.push('\n');
        text += &render_lifecycle(transfer, seq, &lifecycle(&records, transfer, seq));
    }
    emit(&text)
}

/// Write `text` to stdout. A reader that went away (`rmreport … | head`)
/// ends the output, not the program.
fn emit(text: &str) -> ExitCode {
    let mut out = io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rmreport: cannot write the report: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `rmreport --profile <stats.json>`: the per-stage latency breakdown
/// and top-hotspots tables.
fn profile_main(path: Option<&str>) -> ExitCode {
    let Some(path) = path else {
        eprintln!("usage: rmreport --profile <stats.json>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rmreport: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match rmprof::expo::parse_snapshot(&text) {
        Ok(doc) => emit(&render_profile(&doc)),
        Err(e) => {
            eprintln!("rmreport: {path}: {e}");
            ExitCode::FAILURE
        }
    }
}
