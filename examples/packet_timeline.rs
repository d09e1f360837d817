//! Packet-level timeline of one reliable multicast transfer, read from
//! the trace stream of `Scenario::run_traced`: the allocation handshake,
//! the windowed data flow and, under loss, the network's drops and the
//! NAK/retransmission machinery that repairs them.
//!
//! ```text
//! cargo run --release --example packet_timeline
//! ```

use netsim::FaultPlan;
use rmcast::{ProtocolConfig, ProtocolKind, TraceEvent};
use simrun::scenario::{Protocol, Scenario};

fn main() {
    let n: u16 = 3;
    let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(4), 2_000, 8);
    let mut sc = Scenario::new(Protocol::Rm(cfg), n, 20_000);
    sc.fault_plan = FaultPlan::default().with_frame_loss(0.02); // make recovery visible
    let (result, records) = sc.run_traced(7);

    println!("timeline of a 20 KB NAK-with-polling transfer to {n} receivers");
    println!("(2% injected frame loss; 2 KB packets, window 8, poll every 4th)\n");
    for r in &records {
        let who = match r.ev {
            TraceEvent::Drop { .. } if r.rank == u16::MAX => "network".to_string(),
            TraceEvent::Drop { .. } => format!("net @ h{}", r.rank),
            _ => format!("rank {}", r.rank),
        };
        println!("{:10.3} ms  {who:<9} {:?}", r.t_ns as f64 / 1e6, r.ev);
    }
    let count = |f: fn(&TraceEvent) -> bool| records.iter().filter(|r| f(&r.ev)).count();
    let drops = count(|e| matches!(e, TraceEvent::Drop { .. }));
    let retransmits = count(|e| matches!(e, TraceEvent::Retransmit { .. }));
    println!(
        "\ntotal: {} records ({drops} drops, {retransmits} retransmissions), finished at {}",
        records.len(),
        result.comm_time
    );
    assert!(drops > 0, "the injected loss dropped nothing");
    assert!(retransmits > 0, "nothing was repaired");
}
