//! The fec soak: the acceptance scenario for the coded-repair family.
//!
//! Two contracts. First, the loss sweep: all five families deliver
//! exactly-once, bit-intact, at 1% / 5% / 20% loss on the simulated
//! testbed. Second, the repair economy at the paper's scale: fec delivers
//! 500 kB to N=30 receivers at ≥5% loss with *fewer* repair
//! transmissions than NAK-polling — the coded multicast block heals
//! different losses at different receivers simultaneously, where NAK
//! pays one retransmission per loss pattern.

use netsim::FaultPlan;
use rmcast::{LivenessConfig, ProtocolConfig, ProtocolKind, Stats};
use rmwire::{Duration, Rank};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, Scenario};

const N: u16 = 8;
const MSG: usize = 200_000;

fn families() -> Vec<(&'static str, ProtocolConfig)> {
    let mut v = experiments::families(N);
    for (_, cfg) in &mut v {
        // 20% bursty loss eats repair traffic too: recovery legitimately
        // takes many RTO rounds, so the retry budget is generous.
        cfg.liveness = LivenessConfig::bounded(200);
        // Sub-ms simulated RTTs: the default 120ms RTO would stretch the
        // 20%-loss rows' recovery far past the time cap.
        cfg.rto = Duration::from_millis(20);
    }
    v
}

fn lossy(cfg: ProtocolConfig, n: u16, msg: usize, loss: f64, seed: u64) -> ChaosOutcome {
    let mut sc = Scenario::new(Protocol::Rm(cfg), n, msg);
    sc.fault_plan = FaultPlan::default().with_burst(loss, 2.0);
    // Virtual time is cheap; the 20% rows legitimately take minutes of
    // simulated time once RTO backoff engages (ack needs ~220 s).
    sc.time_cap = Duration::from_secs(600);
    sc.run_chaos(seed)
}

fn assert_exactly_once(name: &str, loss: f64, out: &ChaosOutcome, n: u16, expect_crc: u32) {
    assert!(out.completed, "{name}@{loss}: hung");
    assert_eq!(
        out.messages_sent, 1,
        "{name}@{loss}: aborted a recoverable run: {:?}",
        out.failures
    );
    let mut ranks: Vec<Rank> = out.delivered_crcs.iter().map(|&(r, _, _)| r).collect();
    ranks.sort_by_key(|r| r.0);
    ranks.dedup();
    assert_eq!(
        out.delivered_crcs.len(),
        n as usize,
        "{name}@{loss}: wrong delivery count (duplicate or missing)"
    );
    assert_eq!(
        ranks.len(),
        n as usize,
        "{name}@{loss}: a rank delivered twice"
    );
    for &(rank, _, crc) in &out.delivered_crcs {
        assert_eq!(
            crc, expect_crc,
            "{name}@{loss}: {rank} delivered wrong bytes"
        );
    }
}

/// The loss sweep: every family, including fec, delivers exactly-once
/// bit-intact at 1%, 5% and 20% loss.
#[test]
fn five_families_exactly_once_across_loss_sweep() {
    for &loss in &[0.01, 0.05, 0.20] {
        for (name, cfg) in families() {
            let sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
            let expect_crc = rmwire::crc32c(&sc.payload());
            let out = lossy(cfg, N, MSG, loss, 1);
            assert_exactly_once(name, loss, &out, N, expect_crc);
            assert!(
                out.trace.total_drops() > 0,
                "{name}@{loss}: the loss plan never fired"
            );
        }
    }
}

/// The fec decode path carries real weight under loss: coded blocks are
/// sent and receivers reconstruct missing packets from them (not just
/// plain retransmissions riding along).
#[test]
fn fec_codes_and_decodes_under_loss() {
    let (_, cfg) = families().pop().expect("fec is last");
    let out = lossy(cfg, N, MSG, 0.10, 1);
    assert!(out.completed, "fec hung at 10% loss");
    let s = &out.sender_stats;
    assert!(
        s.repairs_sent + s.parity_sent > 0,
        "no coded blocks were ever multicast"
    );
    let decoded: u64 = out.receiver_stats.iter().map(|r| r.repairs_decoded).sum();
    assert!(decoded > 0, "no receiver ever reconstructed from a block");
}

/// The acceptance headline: 500 kB to the paper's N=30 at 5% loss — the
/// fec family's repair transmissions (plain retransmissions + coded
/// blocks) undercut NAK-polling's retransmission count, and both
/// families deliver to all 30 receivers.
#[test]
fn fec_repairs_fewer_transmissions_than_nak_at_paper_scale() {
    let n: u16 = 30;
    let msg = 500_000;
    let loss = 0.05;

    let run = |kind: ProtocolKind| -> (ChaosOutcome, Stats) {
        let mut cfg = ProtocolConfig::new(kind, 8_000, 16);
        cfg.liveness = LivenessConfig::bounded(60);
        let sc = Scenario::new(Protocol::Rm(cfg), n, msg);
        let expect_crc = rmwire::crc32c(&sc.payload());
        let out = lossy(cfg, n, msg, loss, 1);
        assert_exactly_once(kind.name(), loss, &out, n, expect_crc);
        let s = out.sender_stats.clone();
        (out, s)
    };

    let (_, nak) = run(ProtocolKind::nak_polling(8));
    let (fec_out, fec) = run(ProtocolKind::fec(8));

    assert_eq!(nak.repairs_sent, 0, "nak must not send coded blocks");
    assert!(fec.repairs_sent > 0, "fec never coded a repair at 5% loss");
    let nak_repair_tx = nak.retx_sent;
    let fec_repair_tx = fec.retx_sent + fec.repairs_sent + fec.parity_sent;
    assert!(
        fec_repair_tx < nak_repair_tx,
        "fec repair traffic ({} retx + {} repairs + {} parity = {fec_repair_tx}) \
         must undercut nak's {nak_repair_tx} retransmissions",
        fec.retx_sent,
        fec.repairs_sent,
        fec.parity_sent,
    );
    let decoded: u64 = fec_out
        .receiver_stats
        .iter()
        .map(|r| r.repairs_decoded)
        .sum();
    assert!(decoded > 0, "the coded blocks never actually healed anyone");
}

/// Lossy fec runs are a pure function of the seed: the coding buffer,
/// flush deadlines and generation counters must not break determinism.
#[test]
fn fec_lossy_runs_are_deterministic() {
    let (_, cfg) = families().pop().expect("fec is last");
    let a = lossy(cfg, N, MSG, 0.05, 7);
    let b = lossy(cfg, N, MSG, 0.05, 7);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.comm_time, b.comm_time);
    assert_eq!(a.delivered_crcs, b.delivered_crcs);
    assert_eq!(a.sender_stats, b.sender_stats);
    assert_eq!(a.trace, b.trace);
}
