//! Packet-level timeline of one reliable multicast transfer, read from
//! the trace stream of `Scenario::run_traced`: the allocation handshake,
//! the windowed data flow and, under loss, the network's drops and the
//! NAK/retransmission machinery that repairs them.
//!
//! ```text
//! cargo run --release --example packet_timeline
//! ```

use netsim::FaultPlan;
use rmcast::{ProtocolConfig, ProtocolKind};
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
        let who = match r.ev.name() {
            "Drop" if r.rank == u16::MAX => "network".to_string(),
            "Drop" => format!("net @ h{}", r.rank),
            _ => format!("rank {}", r.rank),
        };
        println!("{:10.3} ms  {who:<9} {:?}", r.t_ns as f64 / 1e6, r.ev);
    }
    let count = |name: &str| records.iter().filter(|r| r.ev.name() == name).count();
    println!(
        "\ntotal: {} records ({} drops, {} retransmissions), finished at {}",
        records.len(),
        count("Drop"),
        count("Retransmit"),
        result.comm_time
    );
    assert!(count("Drop") > 0, "the injected loss dropped nothing");
    assert!(count("Retransmit") > 0, "nothing was repaired");
}
