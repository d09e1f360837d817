//! Harness-level tests: address mapping, recorder bookkeeping, scenario
//! options and a quick-effort experiments smoke pass.

use rmcast::{Dest, ProtocolConfig, ProtocolKind};
use rmwire::Rank;
use simrun::adapter::AddrMap;
use simrun::experiments::{run_experiment, Effort};
use simrun::scenario::{Protocol, Scenario, TopologyKind};
use std::rc::Rc;

#[test]
fn addr_map_resolution() {
    use netsim::{GroupId, HostId, UdpDest};
    let m = Rc::new(AddrMap {
        sender_host: HostId(0),
        receiver_hosts: vec![HostId(1), HostId(2)],
        group: GroupId(0),
        port: 9,
    });
    assert_eq!(m.resolve(Dest::Sender), UdpDest::host(HostId(0), 9));
    assert_eq!(m.resolve(Dest::Rank(Rank(2))), UdpDest::host(HostId(2), 9));
    assert_eq!(m.resolve(Dest::Receivers), UdpDest::group(GroupId(0), 9));
}

#[test]
fn scenario_topologies_all_run() {
    for topo in [
        TopologyKind::TwoSwitch,
        TopologyKind::SingleSwitch,
        TopologyKind::SharedBus,
    ] {
        let mut sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 1_000, 2)),
            3,
            10_000,
        );
        sc.topology = topo;
        sc.seeds = vec![1];
        let r = sc.run_avg();
        assert_eq!(r.deliveries, 3, "{topo:?}");
    }
}

#[test]
fn multiple_messages_accumulate_time() {
    let mk = |n_messages| {
        let mut sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::nak_polling(4), 1_000, 6)),
            3,
            20_000,
        );
        sc.n_messages = n_messages;
        sc.seeds = vec![1];
        sc.run_avg()
    };
    let one = mk(1);
    let three = mk(3);
    assert_eq!(three.deliveries, 9);
    assert!(three.comm_time.as_nanos() > 2 * one.comm_time.as_nanos());
}

#[test]
fn bystanders_do_not_change_results_under_snooping() {
    let mk = |bystanders, snooping| {
        let mut sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 1_000, 2)),
            3,
            20_000,
        );
        sc.topology = TopologyKind::SingleSwitch;
        sc.bystanders = bystanders;
        sc.sim.switch.igmp_snooping = snooping;
        sc.seeds = vec![1];
        sc.run_avg()
    };
    let without = mk(0, true);
    let with = mk(10, true);
    assert_eq!(
        without.comm_time, with.comm_time,
        "snooping isolates bystanders"
    );
    // Under flooding the bystanders at least see filtered frames.
    let flooded = mk(10, false);
    assert!(flooded.trace.frames_filtered > 0);
}

#[test]
fn slow_receiver_factor_slows_completion() {
    let mk = |factor| {
        let mut sc = Scenario::new(
            Protocol::Rm(ProtocolConfig::new(ProtocolKind::nak_polling(4), 2_000, 6)),
            4,
            100_000,
        );
        sc.slow_receiver_factor = factor;
        sc.seeds = vec![1];
        sc.run_avg().comm_time
    };
    assert!(mk(8.0) > mk(1.0));
}

#[test]
fn quick_effort_smoke_for_cheap_experiments() {
    // A thin sweep through the cheapest artifacts keeps the full
    // experiment registry exercised under `cargo test`.
    for id in ["fig09", "fig11a", "fig20", "table2", "chaos_campaign"] {
        let t = run_experiment(id, Effort::QUICK);
        assert!(!t.rows.is_empty(), "{id} produced no rows");
        assert_eq!(t.id, id);
        // Every cell row matches the header width (Table::push_row
        // guarantees it; this asserts nothing went around it).
        for row in &t.rows {
            assert_eq!(row.len(), t.columns.len());
        }
    }
}

/// Two groups on one switch, each spawned as a scenario spawns its one:
/// flooding carries both groups' data on every downlink, IGMP snooping
/// keeps each group's to its own.
#[test]
fn two_groups_halve_each_other_only_under_flooding() {
    let t = run_experiment("ablate_two_groups", Effort::QUICK);
    let time = |label: &str| -> f64 {
        let row = t.rows.iter().find(|r| r[0] == label).expect(label);
        row[1].parse().expect("a time in seconds")
    };
    let alone = time("one group alone");
    for group in ["A", "B"] {
        let flooded = time(&format!("concurrent, flooding (group {group})"));
        assert!(
            flooded >= 1.9 * alone,
            "flooding {group}: {flooded} vs {alone}"
        );
        let snooped = time(&format!("concurrent, IGMP snooping (group {group})"));
        let off = (snooped - alone).abs() / alone;
        assert!(off <= 0.01, "snooping {group}: {snooped} vs {alone}");
    }
}

#[test]
#[should_panic(expected = "unknown experiment id")]
fn unknown_experiment_rejected() {
    let _ = run_experiment("fig99", Effort::QUICK);
}

#[test]
fn delivery_times_and_busy_fraction_populate() {
    let mut sc = Scenario::new(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 1_000, 2)),
        4,
        20_000,
    );
    sc.seeds = vec![1];
    let r = sc.run_avg();
    assert_eq!(r.delivery_times.len(), 4);
    let mut ranks: Vec<u16> = r.delivery_times.iter().map(|&(rk, _)| rk).collect();
    ranks.sort();
    assert_eq!(ranks, vec![1, 2, 3, 4]);
    for &(_, t) in &r.delivery_times {
        assert!(t > 0.0 && t <= r.comm_time.as_secs_f64());
    }
    assert!(
        r.sender_cpu_utilization > 0.1 && r.sender_cpu_utilization <= 1.0,
        "busy fraction in range: {}",
        r.sender_cpu_utilization
    );
}

#[test]
fn fig07_signature_near_before_far() {
    // The two-switch topology: every far receiver strictly later.
    let mut sc = Scenario::new(
        Protocol::Rm(ProtocolConfig::new(ProtocolKind::Ack, 8_000, 2)),
        30,
        1_000,
    );
    sc.seeds = vec![1];
    let r = sc.run_avg();
    let near_max = r
        .delivery_times
        .iter()
        .filter(|&&(rk, _)| rk <= 15)
        .map(|&(_, t)| t)
        .fold(0.0f64, f64::max);
    let far_min = r
        .delivery_times
        .iter()
        .filter(|&&(rk, _)| rk > 15)
        .map(|&(_, t)| t)
        .fold(f64::INFINITY, f64::min);
    assert!(
        far_min > near_max,
        "figure 7 signature: near {near_max} < far {far_min}"
    );
}
