//! Quick diagnostic: run each protocol's Table-3 configuration once and
//! print the counters that explain its behaviour (retransmissions,
//! timeouts, ACK/NAK traffic, drops).
//!
//! ```text
//! cargo run --release -p simrun --example diag
//! ```

use netsim::DropCause;
use rmcast::{ProtocolConfig, ProtocolKind};
use simrun::scenario::{Protocol, Scenario};

fn main() {
    for (name, cfg) in [
        (
            "nak",
            ProtocolConfig::new(ProtocolKind::nak_polling(43), 8000, 50),
        ),
        ("ring", ProtocolConfig::new(ProtocolKind::Ring, 8000, 50)),
        ("ack", ProtocolConfig::new(ProtocolKind::Ack, 50000, 5)),
        (
            "tree6",
            ProtocolConfig::new(ProtocolKind::flat_tree(6), 8000, 20),
        ),
    ] {
        let mut sc = Scenario::new(Protocol::Rm(cfg), 30, 2_000_000);
        sc.seeds = vec![1];
        let r = sc.run(1);
        println!("{name}: t={} thr={:.1} retx={} timeouts={} naks_rx={} acks_rx={} drops_sockbuf={} drops_switch={} retx_supp={}",
            r.comm_time, r.throughput_mbps,
            r.sender_stats.retx_sent, r.sender_stats.timeouts,
            r.sender_stats.naks_received, r.sender_stats.acks_received,
            r.trace.drops(DropCause::SockBufFull), r.trace.drops(DropCause::SwitchQueueFull), r.sender_stats.retx_suppressed);
    }
}
