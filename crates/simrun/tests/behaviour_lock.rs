//! Behaviour pinned *across commits*.
//!
//! The golden-trace suite compares a run with itself, so it catches
//! nondeterminism but not a change that makes every run differently
//! wrong. This file pins digests recorded from a known-good commit: a
//! refactor of the simulator or the engines that is meant to keep
//! behaviour must leave every row as it is.
//!
//! One row per (family, cluster, seed). Each row carries two CRC-32C
//! digests:
//!
//! * **clean** — `format!("{:?}", RunResult)` followed by the JSONL of the
//!   trace, both from one `run_traced`;
//! * **chaos** — `format!("{:?}", ChaosOutcome)` from `run_chaos` under a
//!   plan that turns on every knob whose effect depends on event order:
//!   frame loss, datagram loss and frame duplication (`FaultParams`),
//!   reordering, Gilbert–Elliott bursts, byzantine duplicate delivery and
//!   a link-down window on one receiver.
//!
//! To re-record after an *intended* behaviour change, run the test: it
//! prints the whole table as it should read, ready to paste over `ROWS`.

use netsim::{FaultParams, FaultPlan, HostId};
use rmcast::{ProtocolConfig, ProtocolKind};
use rmwire::{crc32c, Duration, Time};
use simrun::scenario::{Protocol, Scenario, TopologyKind};

const PACKET: usize = 8_000;

/// `(name, wiring, receivers, message bytes)` of the three clusters.
const CLUSTERS: [(&str, TopologyKind, u16, usize); 3] = [
    ("two-switch", TopologyKind::TwoSwitch, 30, 100_000),
    ("single-switch", TopologyKind::SingleSwitch, 7, 100_000),
    ("shared-bus", TopologyKind::SharedBus, 7, 50_000),
];

/// The paper point's five configurations (`rmbench`'s `sim_paper`).
fn family(name: &str) -> ProtocolConfig {
    let (kind, window) = match name {
        "ack" => (ProtocolKind::Ack, 20),
        "nak" => (ProtocolKind::nak_polling(16), 20),
        "ring" => (ProtocolKind::Ring, 35),
        "tree" => (ProtocolKind::flat_tree(2), 20),
        "fec" => (ProtocolKind::fec(16), 20),
        other => panic!("unknown family {other}"),
    };
    ProtocolConfig::new(kind, PACKET, window)
}

fn scenario(fam: &str, cluster: &str) -> Scenario {
    let &(_, topology, n, msg) = CLUSTERS
        .iter()
        .find(|(name, ..)| *name == cluster)
        .unwrap_or_else(|| panic!("unknown cluster {cluster}"));
    let mut sc = Scenario::new(Protocol::Rm(family(fam)), n, msg);
    sc.topology = topology;
    sc
}

/// Every ordering-sensitive fault at once, at rates a transfer survives.
fn chaotic(mut sc: Scenario) -> Scenario {
    sc.sim.faults = FaultParams::new(0.01, 0.005, 0.01);
    sc.fault_plan = FaultPlan::default()
        .with_reorder(0.02, Duration::from_micros(300))
        .with_burst(0.01, 3.0)
        .with_duplicate(0.01)
        .with_link_down(HostId(2), Time::from_millis(2), Time::from_millis(4));
    sc
}

fn clean_digest(sc: &Scenario, seed: u64) -> u32 {
    let (result, records) = sc.run_traced(seed);
    let mut text = format!("{result:?}\n");
    for r in &records {
        text.push_str(&r.to_json());
        text.push('\n');
    }
    crc32c(text.as_bytes())
}

fn chaos_digest(sc: &Scenario, seed: u64) -> u32 {
    let outcome = chaotic(sc.clone()).run_chaos(seed);
    assert!(outcome.bounded(), "chaos run hung");
    crc32c(format!("{outcome:?}").as_bytes())
}

/// `(family, cluster, seed, clean digest, chaos digest)`.
type Row = (&'static str, &'static str, u64, u32, u32);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("ack", "two-switch", 1, 0x1407e6d1, 0x501d6155),
    ("ack", "two-switch", 2, 0xf071436c, 0xd50f6770),
    ("ack", "single-switch", 1, 0x623f2482, 0x1a93afa0),
    ("ack", "single-switch", 2, 0xc12847eb, 0x64872fdd),
    ("ack", "shared-bus", 1, 0x62728a8c, 0xf2aa9a12),
    ("ack", "shared-bus", 2, 0x8aa136a9, 0x874f2ce2),
    ("nak", "two-switch", 1, 0xe2a97871, 0x18bf61e2),
    ("nak", "two-switch", 2, 0x2a351828, 0x9b90643a),
    ("nak", "single-switch", 1, 0xf6b7342d, 0x4147da36),
    ("nak", "single-switch", 2, 0xbf0dc58c, 0xabce03ac),
    ("nak", "shared-bus", 1, 0x1e0e90ce, 0x826ee670),
    ("nak", "shared-bus", 2, 0x158b4540, 0xbe8b2644),
    ("ring", "two-switch", 1, 0xbacf707e, 0x7c587edf),
    ("ring", "two-switch", 2, 0x01232ab2, 0x343dc914),
    ("ring", "single-switch", 1, 0x60cabc4e, 0x5a4c5647),
    ("ring", "single-switch", 2, 0xb35f215a, 0xeadf249b),
    ("ring", "shared-bus", 1, 0xf1ce927b, 0xd4b515da),
    ("ring", "shared-bus", 2, 0xe100ba95, 0x6a037aef),
    ("tree", "two-switch", 1, 0xf2a0f9fa, 0x67f791ff),
    ("tree", "two-switch", 2, 0xc348f44b, 0x763131ec),
    ("tree", "single-switch", 1, 0x4d4c24b8, 0x9e1f07bb),
    ("tree", "single-switch", 2, 0x5a8a673b, 0x8d1a4946),
    ("tree", "shared-bus", 1, 0xe40aad1c, 0x6fa2ba89),
    ("tree", "shared-bus", 2, 0x453a237f, 0xc3ff51b3),
    ("fec", "two-switch", 1, 0xc311f695, 0x8b427588),
    ("fec", "two-switch", 2, 0xa06f28f5, 0x5e1e6ab0),
    ("fec", "single-switch", 1, 0xe475bdb7, 0xb99b5b0c),
    ("fec", "single-switch", 2, 0xef5619e4, 0xb4c1e5c9),
    ("fec", "shared-bus", 1, 0x1e0e90ce, 0x7457683f),
    ("fec", "shared-bus", 2, 0x158b4540, 0x245e73d0),
];

#[test]
fn every_row_matches_its_recorded_digest() {
    let actual: Vec<Row> = ROWS
        .iter()
        .map(|&(fam, cluster, seed, _, _)| {
            let sc = scenario(fam, cluster);
            (
                fam,
                cluster,
                seed,
                clean_digest(&sc, seed),
                chaos_digest(&sc, seed),
            )
        })
        .collect();
    if actual != ROWS {
        let table: String = actual
            .iter()
            .map(|(fam, cluster, seed, clean, chaos)| {
                format!("    ({fam:?}, {cluster:?}, {seed}, 0x{clean:08x}, 0x{chaos:08x}),\n")
            })
            .collect();
        let moved = actual.iter().zip(ROWS).filter(|(a, b)| a != b).count();
        panic!(
            "{moved} of {} rows moved; the table as this build computes it:\n{table}",
            ROWS.len()
        );
    }
}

#[test]
fn the_table_covers_every_family_on_every_cluster_at_two_seeds() {
    let mut expect = Vec::new();
    for fam in ["ack", "nak", "ring", "tree", "fec"] {
        for (cluster, ..) in CLUSTERS {
            for seed in [1, 2] {
                expect.push((fam, cluster, seed));
            }
        }
    }
    let have: Vec<_> = ROWS.iter().map(|&(f, c, s, _, _)| (f, c, s)).collect();
    assert_eq!(have, expect);
}
