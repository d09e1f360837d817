//! Ablations beyond the paper's tables: design-choice checks DESIGN.md
//! calls out.

use super::{ack_cfg, nak_cfg, ring_cfg, rm_scenario, tree_cfg, Effort, N_RECEIVERS};
use crate::scenario::TopologyKind;
use crate::table::{secs, Table};
use rmcast::WindowDiscipline;

/// Go-Back-N vs selective repeat across frame-loss rates (paper §4 claims
/// they tie on error-free LANs).
pub fn ablate_gbn_vs_sr(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_gbn_vs_sr",
        "Ablation: Go-Back-N vs selective repeat (500 KB, 8 receivers, ACK protocol)",
        &["frame_loss", "gbn_s", "gbn_retx", "sr_s", "sr_retx"],
    );
    for loss in [0.0, 1e-4, 1e-3] {
        let mut row = vec![format!("{loss:e}")];
        for d in [WindowDiscipline::GoBackN, WindowDiscipline::SelectiveRepeat] {
            let mut cfg = ack_cfg(8_000, 16);
            cfg.discipline = d;
            let mut sc = rm_scenario(effort, cfg, 8, 500_000);
            sc.fault_plan.frame_loss = loss;
            let r = sc.run_avg();
            row.push(secs(r.comm_time));
            row.push(r.sender_stats.retx_sent.to_string());
        }
        t.push_row(row);
    }
    t.note("paper claim: on error-free wires GBN == SR; under loss SR retransmits less");
    t
}

/// Shared CSMA/CD bus vs switched fabric: does limiting simultaneous
/// transmissions (the tree protocol) help on shared media? (paper §3,
/// second bullet).
pub fn ablate_shared_vs_switched(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_shared_vs_switched",
        "Ablation: shared CSMA/CD bus vs switched fabric (500 KB, 30 receivers)",
        &["protocol", "switched_s", "shared_bus_s"],
    );
    let cases = [
        ("ack (30 simultaneous ackers)", ack_cfg(8_000, 4)),
        ("tree H=6 (5 simultaneous)", tree_cfg(8_000, 20, 6)),
        ("nak poll=16 (sparse acks)", nak_cfg(8_000, 20, 16)),
    ];
    for (name, cfg) in cases {
        let mut sw = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        sw.topology = TopologyKind::SingleSwitch;
        let sw_r = sw.run_avg();
        let mut bus = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        bus.topology = TopologyKind::SharedBus;
        let bus_r = bus.run_avg();
        t.push_row(vec![
            name.to_string(),
            secs(sw_r.comm_time),
            secs(bus_r.comm_time),
        ]);
    }
    t.note("fewer simultaneous transmitters should matter on the bus, not on the switch");
    t
}

/// Retransmission suppression on/off under loss: how many redundant
/// retransmissions does the paper's suppression scheme save?
pub fn ablate_suppression(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_suppression",
        "Ablation: sender-side retransmission suppression (500 KB, 30 receivers, loss 1e-3)",
        &["suppression", "time_s", "retx_sent", "retx_suppressed"],
    );
    for (name, suppress) in [
        ("off (1us)", rmwire::Duration::from_micros(1)),
        ("paper (8ms)", rmwire::Duration::from_millis(8)),
    ] {
        let mut cfg = ack_cfg(8_000, 4);
        cfg.retx_suppress = suppress;
        let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        sc.fault_plan.frame_loss = 1e-3;
        let r = sc.run_avg();
        t.push_row(vec![
            name.to_string(),
            secs(r.comm_time),
            r.sender_stats.retx_sent.to_string(),
            r.sender_stats.retx_suppressed.to_string(),
        ]);
    }
    t.note("with 30 receivers NAK/ACK duplication makes unsuppressed senders retransmit far more");
    t
}

/// IGMP snooping vs flooding: the kernel cost flooded multicast imposes on
/// hosts outside the group (paper §3, first bullet).
pub fn ablate_snooping(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_snooping",
        "Ablation: multicast flooding vs IGMP snooping (500 KB, 15 receivers + 15 bystanders)",
        &["switch_mode", "time_s", "frames_filtered_by_bystanders"],
    );
    for (name, snooping) in [("flooding", false), ("igmp_snooping", true)] {
        let mut sc = rm_scenario(effort, nak_cfg(8_000, 20, 16), 15, 500_000);
        sc.topology = TopologyKind::SingleSwitch;
        sc.bystanders = 15;
        sc.sim.switch.igmp_snooping = snooping;
        let r = sc.run_avg();
        t.push_row(vec![
            name.to_string(),
            secs(r.comm_time),
            r.trace.frames_filtered.to_string(),
        ]);
    }
    t.note("flooding makes every non-member host pay a kernel discard per data frame");
    t
}

/// The two NAK-suppression schemes under loss: the paper's sender-side
/// suppression vs the receiver-multicast random-delay scheme of \[16\].
pub fn ablate_nak_variants(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_nak_variants",
        "Ablation: NAK suppression schemes (500 KB, 30 receivers, frame loss 1e-3)",
        &["variant", "time_s", "naks_at_sender", "naks_suppressed"],
    );
    for (name, receiver_multicast) in [
        ("sender-side (paper)", false),
        ("receiver-multicast [16]", true),
    ] {
        let mut cfg = nak_cfg(8_000, 20, 16);
        if let rmcast::ProtocolKind::NakPolling {
            receiver_multicast_nak,
            ..
        } = &mut cfg.kind
        {
            *receiver_multicast_nak = receiver_multicast;
        }
        let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        sc.fault_plan.frame_loss = 1e-3;
        let r = sc.run_avg();
        let naks_suppressed: u64 = r.receiver_stats.iter().map(|s| s.naks_suppressed).sum();
        t.push_row(vec![
            name.to_string(),
            secs(r.comm_time),
            r.sender_stats.naks_received.to_string(),
            naks_suppressed.to_string(),
        ]);
    }
    t.note("multicast NAKs let receivers suppress each other; unicast NAKs rely on the sender");
    t
}

/// Multicast vs unicast retransmission (paper §3, first bullet): unicast
/// spares unintended receivers the CPU of processing retransmissions they
/// do not need, at the cost of repeated sends when many receivers miss the
/// same packet.
pub fn ablate_unicast_retx(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_unicast_retx",
        "Ablation: multicast vs unicast retransmission (500 KB, 30 receivers, loss 1e-3)",
        &["retx_mode", "time_s", "retx_sent", "dup_data_discarded"],
    );
    for (name, unicast) in [("multicast (paper)", false), ("unicast-on-NAK", true)] {
        let mut cfg = ack_cfg(8_000, 4);
        cfg.unicast_retx_on_nak = unicast;
        let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        sc.fault_plan.frame_loss = 1e-3;
        let r = sc.run_avg();
        let dups: u64 = r.receiver_stats.iter().map(|s| s.data_discarded).sum();
        t.push_row(vec![
            name.to_string(),
            secs(r.comm_time),
            r.sender_stats.retx_sent.to_string(),
            dups.to_string(),
        ]);
    }
    t.note("multicast retransmissions reach everyone once but arrive as duplicates at receivers that already had the packet");
    t
}

/// Rate-based vs window-based flow control (paper §3: "The flow control
/// can either be rate-based or window-based").
pub fn ablate_rate_vs_window(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_rate_vs_window",
        "Ablation: rate-based vs window-based flow control (NAK, 500 KB, 30 receivers)",
        &["flow_control", "time_s", "throughput_note"],
    );
    let cases: [(&str, Option<u64>); 4] = [
        ("window only", None),
        ("paced 12.5 MB/s (wire speed)", Some(12_500_000)),
        ("paced 8 MB/s", Some(8_000_000)),
        ("paced 4 MB/s", Some(4_000_000)),
    ];
    for (name, rate) in cases {
        let mut cfg = nak_cfg(8_000, 20, 16);
        cfg.rate_limit_bytes_per_sec = rate;
        let r = rm_scenario(effort, cfg, N_RECEIVERS, 500_000).run_avg();
        let note = format!("{:.1} Mbit/s", r.throughput_mbps);
        t.push_row(vec![name.to_string(), secs(r.comm_time), note]);
    }
    t.note("on a clean switched LAN the window alone already paces at wire speed; sub-wire rates simply cap throughput");
    t
}

/// Sender-driven vs receiver-driven retransmission timers (paper §3, the
/// ACK-based protocol's design axis).
pub fn ablate_recv_driven_timer(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_recv_driven_timer",
        "Ablation: receiver-driven retransmission timers (NAK, 500 KB, 30 receivers, loss 1e-3)",
        &["timer", "time_s", "receiver_naks", "sender_timeouts"],
    );
    for (name, timer) in [
        ("sender-driven only (paper)", None),
        (
            "receiver timer 15ms",
            Some(rmwire::Duration::from_millis(15)),
        ),
    ] {
        let mut cfg = nak_cfg(8_000, 20, 16);
        cfg.receiver_nak_timer = timer;
        let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        sc.fault_plan.frame_loss = 1e-3;
        let r = sc.run_avg();
        let rnaks: u64 = r.receiver_stats.iter().map(|s| s.naks_sent).sum();
        t.push_row(vec![
            name.to_string(),
            secs(r.comm_time),
            rnaks.to_string(),
            r.sender_stats.timeouts.to_string(),
        ]);
    }
    t.note("finding: with 30 receivers, aggressive receiver-driven timers NAK-storm the sender during recovery (each NAK triggers a Go-Back-N rewind) — evidence for the paper's choice of sender-driven error control");
    t
}

/// One heterogeneously slow receiver (the paper assumes homogeneity, §3):
/// how hard does each protocol's flow control couple everyone to the
/// slowest member?
pub fn ablate_slow_receiver(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_slow_receiver",
        "Ablation: one receiver with a 8x slower CPU (500 KB, 30 receivers)",
        &["protocol", "homogeneous_s", "one_slow_s", "slowdown"],
    );
    let cases = [
        ("ack", ack_cfg(8_000, 2)),
        ("nak poll=16", nak_cfg(8_000, 20, 16)),
        ("ring", ring_cfg(8_000, 50)),
        ("tree H=6", tree_cfg(8_000, 20, 6)),
    ];
    for (name, cfg) in cases {
        let homo = rm_scenario(effort, cfg, N_RECEIVERS, 500_000).run_avg();
        let mut hetero = rm_scenario(effort, cfg, N_RECEIVERS, 500_000);
        hetero.slow_receiver_factor = 8.0;
        let het = hetero.run_avg();
        let slowdown = het.comm_time.as_secs_f64() / homo.comm_time.as_secs_f64();
        t.push_row(vec![
            name.to_string(),
            secs(homo.comm_time),
            secs(het.comm_time),
            format!("{slowdown:.2}x"),
        ]);
    }
    t.note("reliable multicast couples the group to its slowest member; the paper's homogeneity assumption is load-bearing");
    t
}

/// Standard vs jumbo MTU (a modern extension the paper's 2001 hardware
/// could not try): fewer fragments mean less framing overhead and less
/// per-fragment kernel work.
pub fn ablate_mtu(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_mtu",
        "Ablation: standard (1500) vs jumbo (9000) MTU (NAK, 2 MB, 30 receivers)",
        &["mtu", "time_s", "throughput_mbps"],
    );
    for mtu in [1_500usize, 4_500, 9_000] {
        let mut sc = rm_scenario(effort, nak_cfg(8_000, 50, 43), N_RECEIVERS, 2_000_000);
        sc.sim.link.mtu = mtu;
        let r = sc.run_avg();
        t.push_row(vec![
            mtu.to_string(),
            secs(r.comm_time),
            format!("{:.1}", r.throughput_mbps),
        ]);
    }
    t.note("jumbo frames trim the ~4% Ethernet framing tax and the per-fragment CPU work");
    t
}

/// Two independent multicast groups sharing one switch: how much do
/// concurrent transfers interfere? (The paper runs one group at a time;
/// real clusters run many.)
pub fn ablate_two_groups(effort: Effort) -> Table {
    use crate::adapter::{take_spares, AddrMap, DeliveryCheck, Nodes, Recorder};
    use crate::calibration;
    use crate::scenario::spawn_group;
    use netsim::{topology, Sim};
    use rmwire::Time;
    use std::cell::RefCell;
    use std::rc::Rc;

    const PORT: u16 = 5000;
    const N: usize = 8; // receivers per group
    const MSG: usize = 500_000;

    let (mut sim_cfg, cost) = calibration::paper_testbed();
    let cfg = nak_cfg(8_000, 20, 16);

    // Baseline: one group alone.
    let mut alone = rm_scenario(effort, cfg, N as u16, MSG);
    alone.topology = TopologyKind::SingleSwitch;
    let alone_r = alone.run_avg();

    // Two groups, same switch, started simultaneously.
    let mut run_pair = |snooping: bool, seed: u64| -> (f64, f64) {
        sim_cfg.switch.igmp_snooping = snooping;
        let mut sim = Sim::new(sim_cfg, seed);
        let hosts = topology::single_switch(&mut sim, 2 * (N + 1));
        let mut spares = take_spares();
        let mut groups = Vec::new();
        for g in 0..2usize {
            let base = g * (N + 1);
            let sender_host = hosts[base];
            let receiver_hosts: Vec<_> = hosts[base + 1..base + 1 + N].to_vec();
            let group = sim.create_group(&receiver_hosts);
            let msgs = [bytes::Bytes::from(vec![0x42u8; MSG])];
            let nodes = Nodes {
                addr: Rc::new(AddrMap {
                    sender_host,
                    receiver_hosts,
                    group,
                    port: PORT,
                }),
                cost,
                rec: Rc::new(RefCell::new(Recorder {
                    expect_msgs: u64::MAX, // never stop the sim from one group
                    check: DeliveryCheck::Sent(msgs.to_vec()),
                    ..Recorder::default()
                })),
            };
            spawn_group(&mut sim, &nodes, cfg, &msgs, seed, None, &mut spares);
            groups.push(nodes.rec);
        }
        sim.run_until(Time::from_millis(30_000));
        let done = |g: usize| {
            let sent = groups[g].borrow().first_sent;
            sent.expect("group did not complete").as_secs_f64()
        };
        (done(0), done(1))
    };
    let (a, b) = run_pair(false, 1);
    let (sa, sb) = run_pair(true, 1);

    let mut t = Table::new(
        "ablate_two_groups",
        "Beyond the paper: two concurrent 8-receiver NAK groups on one switch (500 KB each)",
        &["configuration", "time_s"],
    );
    t.push_row(vec!["one group alone".into(), secs(alone_r.comm_time)]);
    t.push_row(vec![
        "concurrent, flooding (group A)".into(),
        format!("{a:.6}"),
    ]);
    t.push_row(vec![
        "concurrent, flooding (group B)".into(),
        format!("{b:.6}"),
    ]);
    t.push_row(vec![
        "concurrent, IGMP snooping (group A)".into(),
        format!("{sa:.6}"),
    ]);
    t.push_row(vec![
        "concurrent, IGMP snooping (group B)".into(),
        format!("{sb:.6}"),
    ]);
    t.note("with flooding, every downlink carries BOTH groups' data (2x slowdown); IGMP snooping isolates the groups almost completely");
    t
}

/// Handshake pipelining (extension): overlap the next message's
/// allocation round trip with the current data transfer. The paper notes
/// "at least two round trips of messaging are necessary for each data
/// transmission"; pipelining hides one of them across a message stream.
pub fn ablate_pipeline_handshake(effort: Effort) -> Table {
    let mut t = Table::new(
        "ablate_pipeline_handshake",
        "Extension: pipelined allocation handshake (10-message streams, 30 receivers, NAK)",
        &["configuration", "time_s", "per_message_ms"],
    );
    for (msg_size, label) in [(8_192usize, "8KB"), (65_536, "64KB")] {
        for (name, pipeline) in [("serial (paper)", false), ("pipelined", true)] {
            let mut cfg = nak_cfg(8_000, 20, 16);
            cfg.pipeline_handshake = pipeline;
            let mut sc = rm_scenario(effort, cfg, N_RECEIVERS, msg_size);
            sc.n_messages = 10;
            let r = sc.run_avg();
            t.push_row(vec![
                format!("{label} x10, {name}"),
                secs(r.comm_time),
                format!("{:.3}", r.comm_time.as_secs_f64() * 100.0),
            ]);
        }
    }
    t.note("finding: only ~1-3% — the hidden round trip's 30 ACK receipts still serialize on the sender CPU, so pipelining hides latency but not the implosion cost");
    t
}
