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
//!   frame loss, datagram loss and frame duplication, reordering,
//!   Gilbert–Elliott bursts, byzantine duplicate delivery and a link-down
//!   window on one receiver.
//!
//! To re-record after an *intended* behaviour change, run the test: it
//! prints the whole table as it should read, ready to paste over `ROWS`.

use netsim::{FaultPlan, HostId};
use std::collections::BTreeSet;

use rmcast::{LivenessConfig, OverloadConfig, ProtocolConfig, ProtocolKind, Stats, TraceEvent};
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
    sc.fault_plan = FaultPlan::default()
        .with_frame_loss(0.01)
        .with_datagram_loss(0.005)
        .with_frame_dup(0.01)
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
    assert!(outcome.completed, "chaos run hung");
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

// ---------------------------------------------------------------------
// The sender's layers: membership, quarantine, overload control, and the
// liveness bound that evicts or fails.
// ---------------------------------------------------------------------
//
// The clean and chaos rows above run every layer off. These rows turn
// each one on under a plan modelled on the experiment that exercises it,
// so a refactor that moves a layer must leave its events, counters and
// trace exactly where they were. Each digest is the CRC-32C of
// `format!("{:?}", ChaosOutcome)` followed by the JSONL trace, both from
// one `run_chaos_traced(seed, 64)`.

/// Receivers in the layered runs. More than 16 forces the two-switch
/// split, so the `churn` plan's trunk outage isolates ranks 16..=18.
const LAYER_N: u16 = 18;
const LAYER_MSG: usize = 100_000;

/// The five families with plan `plan`'s layers switched on.
fn layered(fam: &str, plan: &str) -> Scenario {
    let mut cfg = family(fam);
    if cfg.kind == ProtocolKind::Ring {
        cfg.window = LAYER_N as usize + 2;
    }
    let mut sc = Scenario::new(Protocol::Rm(cfg), LAYER_N, LAYER_MSG);
    sc.time_cap = Duration::from_secs(60);
    let Protocol::Rm(cfg) = &mut sc.protocol else {
        unreachable!()
    };
    match plan {
        // `churn_crash_rejoin` and `partition_heal` at once: heartbeat
        // eviction, JOIN/SYNC readmission of the rebooted host, implicit
        // rejoin and stale-epoch refusals from the healed island.
        "churn" => {
            cfg.liveness = LivenessConfig::evicting(6);
            cfg.liveness.child_evict_timeout = Some(Duration::from_millis(400));
            cfg.membership = true;
            sc.n_messages = 4;
            sc.fault_plan = FaultPlan::default()
                .with_crash_restart(HostId(2), Time::from_millis(5), Time::from_millis(330))
                .with_trunk_down(Time::from_millis(20), Time::from_millis(320));
        }
        // `overload_nak_storm` plus `overload_slow_receiver`: shedding,
        // duplicate-NAK collapse, AIMD shrink and regrowth, backpressure
        // edges and the quarantine lifecycle.
        "overload" => {
            cfg.liveness = LivenessConfig::evicting(30);
            cfg.overload = OverloadConfig::adaptive(cfg.window);
            cfg.rto = Duration::from_millis(20);
            // Room for the saturated receiver to catch up and rejoin.
            cfg.overload.quarantine_budget = 64;
            // The default 20 000 packets/s is more than a simulated storm
            // at this scale delivers; pace low enough that it is shed.
            cfg.overload.feedback_rate = 2_000;
            cfg.overload.feedback_burst = 16;
            sc.msg_size = 500_000;
            sc.fault_plan = FaultPlan::default()
                .with_feedback_storm(HostId(0), Time::from_millis(2), Time::from_millis(2_000), 4)
                .with_slow_host(HostId(1), 25.0)
                .with_sockbuf_exhaust(HostId(1), Time::from_millis(10), Time::from_millis(250));
        }
        // `chaos_crash`: the liveness bound evicts the dead receiver and
        // the survivors complete, with membership off.
        "evict" => {
            cfg.liveness = LivenessConfig::evicting(6);
            sc.n_messages = 2;
            sc.fault_plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
        }
        // The same crash under a bounded sender that may not evict: every
        // message fails with a typed error.
        "bounded" => {
            cfg.liveness = LivenessConfig::bounded(6);
            sc.n_messages = 2;
            sc.fault_plan = FaultPlan::default().with_crash(HostId(1), Time::from_millis(4));
        }
        // `ablate_nak_variants` and `ablate_recv_driven_timer` at once,
        // under frame loss: the receiver stall timer on every family, and
        // on the nak family the random-delay multicast NAK that receivers
        // suppress each other with.
        "naks" => {
            cfg.receiver_nak_timer = Some(Duration::from_millis(15));
            if let ProtocolKind::NakPolling {
                receiver_multicast_nak,
                ..
            } = &mut cfg.kind
            {
                *receiver_multicast_nak = true;
            }
            sc.n_messages = 4;
            sc.fault_plan = FaultPlan::default().with_frame_loss(0.01);
        }
        other => panic!("unknown plan {other}"),
    }
    sc
}

/// One layered run: its digest, the sender's counters, the sum of the
/// receivers' counters and the names of the events it traced. Its trace
/// must read back as the records that wrote it.
fn layered_run(fam: &str, plan: &str, seed: u64) -> (u32, Stats, Stats, BTreeSet<&'static str>) {
    let (outcome, records) = layered(fam, plan).run_chaos_traced(seed, 64);
    assert!(outcome.completed, "{fam}/{plan} seed {seed} hung");
    let jsonl: String = records.iter().map(|r| r.to_json() + "\n").collect();
    let back = rmtrace::parse_jsonl(&jsonl)
        .unwrap_or_else(|(l, e)| panic!("{fam}/{plan} seed {seed}: trace line {l}: {e}"));
    assert!(
        back == records,
        "{fam}/{plan} seed {seed}: the trace reads back as other records"
    );
    let text = format!("{outcome:?}\n{jsonl}");
    let mut receivers = Stats::default();
    for s in &outcome.receiver_stats {
        receivers.merge(s);
    }
    let names = records.iter().map(|r| r.ev.name()).collect();
    (
        crc32c(text.as_bytes()),
        outcome.sender_stats,
        receivers,
        names,
    )
}

/// `(family, plan, seed, digest)`.
type LayerRow = (&'static str, &'static str, u64, u32);

#[rustfmt::skip]
const LAYER_ROWS: &[LayerRow] = &[
    ("ack", "churn", 1, 0xef0a4dd1),
    ("ack", "churn", 2, 0xad4de3b5),
    ("ack", "overload", 1, 0xf627b404),
    ("ack", "overload", 2, 0xef8ff400),
    ("ack", "evict", 1, 0x2143b09c),
    ("ack", "evict", 2, 0x1d943617),
    ("ack", "bounded", 1, 0x37df8e56),
    ("ack", "bounded", 2, 0x95b7be85),
    ("ack", "naks", 1, 0x30ac7e1a),
    ("ack", "naks", 2, 0x44dcb3b2),
    ("nak", "churn", 1, 0xe40bbe2c),
    ("nak", "churn", 2, 0xc0394f56),
    ("nak", "overload", 1, 0x3161a6cc),
    ("nak", "overload", 2, 0x7923c6d6),
    ("nak", "evict", 1, 0xecf22c95),
    ("nak", "evict", 2, 0xa0c8fd30),
    ("nak", "bounded", 1, 0x86c11bc5),
    ("nak", "bounded", 2, 0xc188d93c),
    ("nak", "naks", 1, 0x19ca565a),
    ("nak", "naks", 2, 0x87217100),
    ("ring", "churn", 1, 0xcd00685e),
    ("ring", "churn", 2, 0x1997dffd),
    ("ring", "overload", 1, 0x0a7cfe0f),
    ("ring", "overload", 2, 0x0b9bc8d4),
    ("ring", "evict", 1, 0xefa45596),
    ("ring", "evict", 2, 0x65131f13),
    ("ring", "bounded", 1, 0x8ca782a2),
    ("ring", "bounded", 2, 0xcaa3b424),
    ("ring", "naks", 1, 0x9fec3365),
    ("ring", "naks", 2, 0xd598f5c5),
    ("tree", "churn", 1, 0x02e8d72d),
    ("tree", "churn", 2, 0xd737d928),
    ("tree", "overload", 1, 0xd1aa9471),
    ("tree", "overload", 2, 0x2631fcd1),
    ("tree", "evict", 1, 0xac18decc),
    ("tree", "evict", 2, 0x370cf54f),
    ("tree", "bounded", 1, 0x30ade46d),
    ("tree", "bounded", 2, 0x6b75e03b),
    ("tree", "naks", 1, 0x794e8560),
    ("tree", "naks", 2, 0x2ec454e8),
    ("fec", "churn", 1, 0x7e908151),
    ("fec", "churn", 2, 0x34129f73),
    ("fec", "overload", 1, 0x93cf3fe0),
    ("fec", "overload", 2, 0xfd5e001b),
    ("fec", "evict", 1, 0xd2001eb3),
    ("fec", "evict", 2, 0x2d8742c2),
    ("fec", "bounded", 1, 0x892b173b),
    ("fec", "bounded", 2, 0x50ca1f5a),
    ("fec", "naks", 1, 0x19bf9091),
    ("fec", "naks", 2, 0xb84cd5f1),
];

#[test]
fn every_layered_row_matches_its_recorded_digest_and_reaches_every_layer() {
    let mut total = Stats::default();
    let mut rx = Stats::default();
    let mut traced = BTreeSet::new();
    let actual: Vec<LayerRow> = LAYER_ROWS
        .iter()
        .map(|&(fam, plan, seed, _)| {
            let (digest, sender, receivers, names) = layered_run(fam, plan, seed);
            total.merge(&sender);
            rx.merge(&receivers);
            traced.extend(names);
            (fam, plan, seed, digest)
        })
        .collect();
    // Every sender-side layer counter fired somewhere in the table, so a
    // digest that holds is a statement about that layer's behaviour.
    let reached = [
        ("evictions", total.evictions),
        ("joins", total.joins),
        ("suspects", total.suspects),
        ("stale_epoch_discarded", total.stale_epoch_discarded),
        ("quarantine_entered", total.quarantine_entered),
        ("quarantine_rejoined", total.quarantine_rejoined),
        ("window_shrinks", total.window_shrinks),
        ("window_grows", total.window_grows),
        ("acks_shed + naks_shed", total.acks_shed + total.naks_shed),
        ("naks_collapsed", total.naks_collapsed),
        ("backpressure_signals", total.backpressure_signals),
        ("messages_failed", total.messages_failed),
        // The receivers' layers: NAK scheduling, tree child eviction,
        // admission, heartbeat replies, and coded repair. The receiver's
        // `messages_failed` is not here: `run_chaos` cannot reach it. Its
        // give-up needs a sender that never resolves, and the simulated
        // sender always evicts or fails first; a SYNC that abandons
        // pre-admission transfers needs a joiner that heard part of one.
        // The receiver unit tests `receiver_gives_up_on_silent_sender`,
        // `giveup_covers_announced_but_unstarted_transfers` and
        // `sync_abandons_preadmission_transfers` pin both instead.
        ("receiver naks_sent", rx.naks_sent),
        ("receiver naks_suppressed", rx.naks_suppressed),
        ("receiver evictions", rx.evictions),
        ("receiver joins", rx.joins),
        ("receiver heartbeats_sent", rx.heartbeats_sent),
        ("receiver repairs_decoded", rx.repairs_decoded),
    ];
    let unreached: Vec<&str> = reached
        .iter()
        .filter(|&&(_, n)| n == 0)
        .map(|&(name, _)| name)
        .collect();
    assert!(unreached.is_empty(), "no layered row reached {unreached:?}");

    // Every trace event and every counter is emitted or moved by some
    // row, so each one is pinned by a digest. An event or counter that
    // nothing produces any more fails here by name.
    let untraced: Vec<&str> = TraceEvent::NAMES
        .iter()
        .copied()
        .filter(|name| !traced.contains(name))
        .collect();
    assert!(untraced.is_empty(), "no layered row traced {untraced:?}");
    let mut all = total;
    all.merge(&rx);
    let exempt = |name: &str| UNREACHED_COUNTERS.iter().any(|&(n, _)| n == name);
    let still: Vec<&str> = all
        .fields()
        .into_iter()
        .filter(|&(name, value)| (value == 0) != exempt(name))
        .map(|(name, _)| name)
        .collect();
    assert!(
        still.is_empty(),
        "counters no layered row moved, or exemptions a row now moves: {still:?}"
    );

    // Checked last: a new counter or event moves every digest too, and
    // the name of what no row reaches is the more useful message.
    if actual != LAYER_ROWS {
        let table: String = actual
            .iter()
            .map(|(fam, plan, seed, d)| format!("    ({fam:?}, {plan:?}, {seed}, 0x{d:08x}),\n"))
            .collect();
        let moved = actual
            .iter()
            .zip(LAYER_ROWS)
            .filter(|(a, b)| a != b)
            .count();
        panic!(
            "{moved} of {} layered rows moved; the table as this build computes it:\n{table}",
            LAYER_ROWS.len()
        );
    }
}

/// Counters no layered row moves, each with the tests that pin it
/// instead: they count corrupted datagrams and replayed coded blocks,
/// and no layered plan corrupts a datagram or replays a block.
#[rustfmt::skip]
const UNREACHED_COUNTERS: &[(&str, &str)] = &[
    ("decode_errors", "core/tests/integrity.rs, rmfuzz/tests/fuzz.rs"),
    ("malformed_rx", "core/tests/integrity.rs, rmfuzz/tests/fuzz.rs"),
    ("integrity_fail", "core/tests/integrity.rs, rmfuzz/tests/fuzz.rs"),
    ("repairs_replayed", "rmfuzz/tests/fuzz.rs, core/tests/receiver_paths.rs"),
];

#[test]
fn the_layered_table_covers_every_family_under_every_plan_at_two_seeds() {
    let mut expect = Vec::new();
    for fam in ["ack", "nak", "ring", "tree", "fec"] {
        for plan in ["churn", "overload", "evict", "bounded", "naks"] {
            for seed in [1, 2] {
                expect.push((fam, plan, seed));
            }
        }
    }
    let have: Vec<_> = LAYER_ROWS.iter().map(|&(f, p, s, _)| (f, p, s)).collect();
    assert_eq!(have, expect);
}
