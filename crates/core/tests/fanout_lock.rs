//! A checksummed `Loopback` lands the upper half of its receivers on a
//! helper thread in rounds with enough bytes for them. This file pins what
//! that must not change, against digests recorded from the serial loop
//! that came before it, and the helper's lifecycle.
//!
//! One row per (family, fault plan, seed): a group of eight receivers with
//! `integrity` on and 8 000 B packets is sent 500 000, 123 457 and 8 000 B
//! messages. Its digest is the CRC-32C of `now()`, every endpoint's
//! `Stats` and `(receiver, msg_id, crc32c(bytes))` per delivery. Every
//! row must also have taken the two-thread path
//! (`core.loopback.fanout_rounds` grew), or the lock would not cover it.
//!
//! To re-record after an *intended* behaviour change, run the test: it
//! prints the whole table as it should read, ready to paste over `ROWS`.

use bytes::Bytes;
use rmcast::loopback::Loopback;
use rmcast::{Faults, ProtocolConfig, ProtocolKind};
use rmwire::crc32c;
use std::sync::{Mutex, MutexGuard};

const PACKET: usize = 8_000;
const N: u16 = 8;
const MESSAGES: [usize; 3] = [500_000, 123_457, 8_000];

/// Every test here reads process-wide `rmprof` state, so they take turns.
fn serial() -> MutexGuard<'static, ()> {
    static TURN: Mutex<()> = Mutex::new(());
    TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn fanout_rounds() -> u64 {
    rmprof::counter("core.loopback.fanout_rounds").get()
}

/// The paper point's five configurations, checksummed.
fn family(name: &str) -> ProtocolConfig {
    let (kind, window) = match name {
        "ack" => (ProtocolKind::Ack, 20),
        "nak" => (ProtocolKind::nak_polling(16), 20),
        "ring" => (ProtocolKind::Ring, 35),
        "tree" => (ProtocolKind::flat_tree(2), 20),
        "fec" => (ProtocolKind::fec(16), 20),
        other => panic!("unknown family {other}"),
    };
    let mut cfg = ProtocolConfig::new(kind, PACKET, window);
    cfg.integrity = true;
    cfg
}

fn group(fam: &str, plan: &str, seed: u64) -> Loopback {
    let net = Loopback::new(family(fam), N, seed);
    match plan {
        "clean" => net,
        "faulted" => net.with_faults(Faults {
            loss: 0.02,
            reorder: 0.05,
            dup: 0.02,
            corrupt: 0.01,
            down: Vec::new(),
        }),
        other => panic!("unknown fault plan {other}"),
    }
}

fn payload(len: usize, tag: u8) -> Bytes {
    Bytes::from(
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(tag))
            .collect::<Vec<u8>>(),
    )
}

fn digest(net: &mut Loopback) -> u32 {
    for (tag, len) in MESSAGES.into_iter().enumerate() {
        let msg = payload(len, tag as u8);
        net.send_message(msg.clone());
        let out = net.run();
        assert_eq!(out.len(), N as usize);
        assert!(out.iter().all(|d| d == &msg), "delivered bytes differ");
    }
    let mut text = format!("{:?}\n{:?}\n", net.now(), net.sender_stats());
    for i in 0..N as usize {
        text.push_str(&format!("{:?}\n", net.receiver_stats(i)));
    }
    for (i, msg_id, data) in &net.deliveries {
        text.push_str(&format!("{i} {msg_id} {:08x}\n", crc32c(data)));
    }
    crc32c(text.as_bytes())
}

/// `(family, fault plan, seed, digest)`.
type Row = (&'static str, &'static str, u64, u32);

#[rustfmt::skip]
const ROWS: &[Row] = &[
    ("ack", "clean", 1, 0x4aeea109),
    ("ack", "clean", 2, 0x4aeea109),
    ("ack", "faulted", 1, 0xa09a4bb7),
    ("ack", "faulted", 2, 0x9bf4e028),
    ("nak", "clean", 1, 0x52168541),
    ("nak", "clean", 2, 0x52168541),
    ("nak", "faulted", 1, 0x1adf6331),
    ("nak", "faulted", 2, 0xb77492db),
    ("ring", "clean", 1, 0xf4553566),
    ("ring", "clean", 2, 0xf4553566),
    ("ring", "faulted", 1, 0x918c7a8f),
    ("ring", "faulted", 2, 0x142c1314),
    ("tree", "clean", 1, 0x6df6ccd3),
    ("tree", "clean", 2, 0x6df6ccd3),
    ("tree", "faulted", 1, 0x62e968bf),
    ("tree", "faulted", 2, 0x8245c2c9),
    ("fec", "clean", 1, 0x7f79e75b),
    ("fec", "clean", 2, 0x7f79e75b),
    ("fec", "faulted", 1, 0x872b195b),
    ("fec", "faulted", 2, 0xca1b7d8a),
];

#[test]
fn every_row_matches_its_recorded_digest_and_fans_out() {
    let _turn = serial();
    let mut actual = Vec::new();
    let mut serial_rows = Vec::new();
    for &(fam, plan, seed, _) in ROWS {
        let before = fanout_rounds();
        actual.push((fam, plan, seed, digest(&mut group(fam, plan, seed))));
        if fanout_rounds() == before {
            serial_rows.push((fam, plan, seed));
        }
    }
    if actual != ROWS {
        let table: String = actual
            .iter()
            .map(|(fam, plan, seed, d)| format!("    ({fam:?}, {plan:?}, {seed}, 0x{d:08x}),\n"))
            .collect();
        let moved = actual.iter().zip(ROWS).filter(|(a, b)| a != b).count();
        panic!(
            "{moved} of {} rows moved; the table as this build computes it:\n{table}",
            ROWS.len()
        );
    }
    assert!(serial_rows.is_empty(), "never fanned out: {serial_rows:?}");
}

#[test]
fn the_table_covers_every_family_and_plan_at_two_seeds() {
    let mut expect = Vec::new();
    for fam in ["ack", "nak", "ring", "tree", "fec"] {
        for plan in ["clean", "faulted"] {
            for seed in [1, 2] {
                expect.push((fam, plan, seed));
            }
        }
    }
    let have: Vec<_> = ROWS.iter().map(|&(f, p, s, _)| (f, p, s)).collect();
    assert_eq!(have, expect);
}

/// `rmbench`'s loopback workloads: NAK polling every 16 packets, window
/// 20, 500 000 B to eight receivers.
fn bench_shape(kind: ProtocolKind, integrity: bool, loss: f64) -> Loopback {
    let mut cfg = ProtocolConfig::new(kind, PACKET, 20);
    cfg.integrity = integrity;
    Loopback::new(cfg, N, 1).with_loss(loss)
}

fn rounds_per_message(mut net: Loopback) -> Vec<u64> {
    let msg = payload(500_000, 9);
    (0..3)
        .map(|_| {
            let before = fanout_rounds();
            net.send_message(msg.clone());
            assert_eq!(net.run().len(), N as usize);
            fanout_rounds() - before
        })
        .collect()
}

/// A 500 000 B message in windows of 20 is four rounds with data for the
/// upper half (20, 16, 16 and 11 packets: 332–628 KiB for four
/// receivers) and six with at most an ALLOC or a poll (< 4 KiB).
#[test]
fn fanout_rounds_per_message_on_the_benchmark_shapes() {
    let _turn = serial();
    let nak = ProtocolKind::nak_polling(16);
    let loop_cksum = rounds_per_message(bench_shape(nak, true, 0.0));
    let loop_bulk = rounds_per_message(bench_shape(nak, false, 0.0));
    let loop_lossy = rounds_per_message(bench_shape(ProtocolKind::fec(16), false, 0.02));
    assert_eq!(loop_cksum, [4, 4, 4]);
    assert_eq!(loop_bulk, [0, 0, 0]);
    assert_eq!(loop_lossy, [0, 0, 0]);
}

/// The helper's span samples reach the registry by the time `run`
/// returns, and still count once `Drop` has joined the helper, so a
/// profile of a checksummed transfer counts every CRC the serial loop
/// counted.
#[test]
fn the_helpers_crc_spans_are_flushed_by_run_and_drop() {
    let _turn = serial();
    rmprof::set_enabled(true);
    let crcs = || {
        rmprof::snapshot()
            .stage("wire.crc")
            .map_or(0, |h| h.count())
    };
    let before = crcs();
    let mut net = bench_shape(ProtocolKind::nak_polling(16), true, 0.0);
    net.send_message(payload(500_000, 3));
    assert_eq!(net.run().len(), N as usize);
    let after_run = crcs() - before;
    drop(net);
    let after_drop = crcs() - before;
    rmprof::set_enabled(false);
    assert_eq!(
        (after_run, after_drop),
        (656, 656),
        "the serial loop's count"
    );
}

/// `Drop` joins the helper: a group dropped between messages leaves no
/// thread behind.
#[cfg(target_os = "linux")]
#[test]
fn a_group_dropped_between_messages_joins_its_helper() {
    let _turn = serial();
    let helpers = || {
        std::fs::read_dir("/proc/self/task")
            .expect("list this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .filter(|comm| comm.starts_with("loopback-fan"))
            .count()
    };
    let mut net = bench_shape(ProtocolKind::nak_polling(16), true, 0.0);
    net.send_message(payload(500_000, 4));
    assert_eq!(net.run().len(), N as usize);
    assert_eq!(helpers(), 1);
    drop(net);
    assert_eq!(helpers(), 0);
}
