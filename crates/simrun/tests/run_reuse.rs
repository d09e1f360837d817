//! Assembly buffers outlive a `Scenario` run (each thread hands the last
//! run's to the next) and deliveries are compared with the message sent.
//! Neither may show in a result: a run's numbers depend on the scenario
//! and the seed, never on what ran before it on the thread.

use netsim::{FaultPlan, HostId};
use rmcast::{LivenessConfig, ProtocolConfig, ProtocolKind};
use rmwire::{Rank, Time};
use simrun::experiments;
use simrun::scenario::{ChaosOutcome, Protocol, RunResult, Scenario};

const N: u16 = 8;
const MSG: usize = 200_000;

/// Run `f` on a thread that has never run a simulation.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f).join().expect("run panicked")
}

fn assert_same_run(what: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.comm_time, b.comm_time, "{what}: comm_time");
    assert_eq!(a.delivery_times, b.delivery_times, "{what}: delivery_times");
    assert_eq!(a.sender_stats, b.sender_stats, "{what}: sender_stats");
    assert_eq!(a.receiver_stats, b.receiver_stats, "{what}: receiver_stats");
    assert_eq!(a.trace, b.trace, "{what}: trace");
}

fn assert_same_outcome(what: &str, a: &ChaosOutcome, b: &ChaosOutcome) {
    assert_eq!(a.comm_time, b.comm_time, "{what}: comm_time");
    assert_eq!(a.messages_sent, b.messages_sent, "{what}: messages_sent");
    assert_eq!(a.failures, b.failures, "{what}: failures");
    assert_eq!(a.evictions, b.evictions, "{what}: evictions");
    assert_eq!(a.joins, b.joins, "{what}: joins");
    assert_eq!(a.restarts, b.restarts, "{what}: restarts");
    assert_eq!(a.delivered_msgs, b.delivered_msgs, "{what}: delivered_msgs");
    assert_eq!(a.delivered_crcs, b.delivered_crcs, "{what}: delivered_crcs");
    assert_eq!(a.sender_stats, b.sender_stats, "{what}: sender_stats");
    assert_eq!(a.receiver_stats, b.receiver_stats, "{what}: receiver_stats");
    assert_eq!(a.trace, b.trace, "{what}: trace");
}

#[test]
fn a_run_does_not_depend_on_the_runs_before_it() {
    for (name, cfg) in experiments::families(N) {
        let sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
        // The first allocates, the second and third assemble in the
        // buffers the one before handed back.
        let here: Vec<RunResult> = (0..3).map(|_| sc.run(1)).collect();
        let fresh = on_fresh_thread(move || sc.run(1));
        assert_eq!(fresh.deliveries, N as usize, "{name}");
        for (i, r) in here.iter().enumerate() {
            assert_same_run(&format!("{name}, run {i} on a used thread"), r, &fresh);
        }
    }
}

/// `run` and `run_chaos` read one record of the run: on a clean network
/// they report the same run, delivery for delivery.
#[test]
fn run_and_run_chaos_report_the_same_run() {
    const SIZE: usize = 500_000;
    for (name, cfg) in experiments::families(30) {
        let sc = Scenario::new(Protocol::Rm(cfg), 30, SIZE);
        let (r, c) = (sc.run(1), sc.run_chaos(1));
        assert!(c.completed, "{name}");
        assert_eq!(Some(r.comm_time), c.comm_time, "{name}: comm_time");
        assert_eq!(r.deliveries, c.deliveries, "{name}: deliveries");
        // `RunResult` carries no message id: one message, so each is 0.
        let plain: Vec<(u16, u64, f64)> = r
            .delivery_times
            .iter()
            .map(|&(rank, t)| (rank, 0, t))
            .collect();
        let chaos: Vec<(u16, u64, f64)> = c
            .delivered_msgs
            .iter()
            .map(|&(rank, id, t, _)| (rank.0, id, t.saturating_since(Time::ZERO).as_secs_f64()))
            .collect();
        assert_eq!(plain, chaos, "{name}: deliveries");
        assert_eq!(r.sender_stats, c.sender_stats, "{name}: sender_stats");
        assert_eq!(r.receiver_stats, c.receiver_stats, "{name}: receiver_stats");
        assert_eq!(r.trace, c.trace, "{name}: trace");
    }
}

/// Crash-restart of rank 2's host with dynamic membership: the reborn
/// endpoint comes from `Nodes::spawn`'s `rebuild`, with no buffer.
fn churn_scenario() -> Scenario {
    let mut cfg = ProtocolConfig::new(ProtocolKind::nak_polling(8), 8_000, 16);
    cfg.liveness = LivenessConfig::evicting(6);
    cfg.membership = true;
    let mut sc = Scenario::new(Protocol::Rm(cfg), N, MSG);
    sc.n_messages = 4;
    sc.fault_plan = FaultPlan::default().with_crash_restart(
        HostId(2),
        Time::from_millis(5),
        Time::from_millis(350),
    );
    sc
}

#[test]
fn churn_run_and_clean_run_do_not_disturb_each_other() {
    let clean = Scenario::new(Protocol::Rm(experiments::families(N)[1].1), N, MSG);
    let (clean_alone, churn_alone) = {
        let clean = clean.clone();
        (
            on_fresh_thread(move || clean.run(1)),
            on_fresh_thread(|| churn_scenario().run_chaos(1)),
        )
    };
    assert_eq!(churn_alone.restarts, 1, "the victim host never rebooted");
    assert_eq!(churn_alone.messages_sent, 4, "{:?}", churn_alone.failures);

    let churn = churn_scenario();
    let before = churn.run_chaos(1);
    let between = clean.run(1);
    let after = churn.run_chaos(1);
    assert_same_outcome("churn before the clean run", &before, &churn_alone);
    assert_same_run("clean run between two churn runs", &between, &clean_alone);
    assert_same_outcome("churn after the clean run", &after, &churn_alone);
}

const CORRUPT_SEED: u64 = 3;

/// Bit flips delivered past the NIC with no integrity trailer to catch
/// them: with this seed exactly one receiver's payload arrives changed.
fn corrupting_scenario() -> Scenario {
    let mut sc = Scenario::new(Protocol::Rm(experiments::families(N)[1].1), N, MSG);
    sc.fault_plan = FaultPlan::default().with_corrupt_deliver(0.01);
    sc
}

#[test]
fn chaos_run_reports_the_corrupted_delivery_by_its_crc() {
    let sc = corrupting_scenario();
    let sent = rmwire::crc32c(&sc.payload());
    let out = sc.run_chaos(CORRUPT_SEED);
    assert_eq!(out.delivered_msgs.len(), N as usize);
    let wrong: Vec<(Rank, u64, u32)> = out
        .delivered_crcs
        .iter()
        .copied()
        .filter(|&(_, _, crc)| crc != sent)
        .collect();
    // Value for value what the commit before the comparison check
    // reported for this plan and seed.
    assert_eq!(wrong, [(Rank(8), 0, 2_004_404_366)]);
    assert_eq!(out.delivered_crcs.len(), N as usize);
}

#[test]
#[should_panic(expected = "recv8 delivered message 0 with bytes that differ")]
fn plain_run_panics_on_a_delivery_that_differs_from_what_was_sent() {
    corrupting_scenario().run(CORRUPT_SEED);
}
