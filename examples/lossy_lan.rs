//! Fault injection: how each protocol recovers when the LAN misbehaves.
//!
//! The paper's Ethernet almost never loses frames; this example dials
//! frame loss up to stress the error-control machinery (sender-driven
//! timers, Go-Back-N, NAKs, retransmission suppression) and shows that
//! reliability holds while performance degrades gracefully.
//!
//! ```text
//! cargo run --release --example lossy_lan
//! ```

use rmcast::{ProtocolConfig, ProtocolKind};
use simrun::scenario::{Protocol, Scenario};

fn main() {
    const RECEIVERS: u16 = 10;
    const MSG: usize = 500_000;

    println!("500 KB to {RECEIVERS} receivers under injected frame loss\n");
    println!(
        "{:<10}{:<24}{:>12}{:>8}{:>8}{:>8}{:>10}",
        "loss", "protocol", "time", "retx", "naks", "t/outs", "delivered"
    );

    for loss in [0.0, 1e-4, 1e-3, 1e-2] {
        for (name, kind, window) in [
            ("ack", ProtocolKind::Ack, 4),
            ("nak(i=16)", ProtocolKind::nak_polling(16), 20),
            ("ring", ProtocolKind::Ring, 16),
            ("tree(H=5)", ProtocolKind::flat_tree(5), 20),
        ] {
            let cfg = ProtocolConfig::new(kind, 8_000, window);
            let mut sc = Scenario::new(Protocol::Rm(cfg), RECEIVERS, MSG);
            sc.fault_plan.frame_loss = loss;
            let r = sc.run_avg();
            println!(
                "{:<10}{:<24}{:>12}{:>8}{:>8}{:>8}{:>10}",
                format!("{loss:.0e}"),
                name,
                format!("{}", r.comm_time),
                r.sender_stats.retx_sent,
                r.sender_stats.naks_received,
                r.sender_stats.timeouts,
                format!("{}/{}", r.deliveries, RECEIVERS),
            );
            assert_eq!(
                r.deliveries, RECEIVERS as usize,
                "{name}: reliability must hold under loss"
            );
        }
        println!();
    }
    println!("every run delivered to every receiver: reliability is loss-independent");
}
