//! The same protocol engines over **real kernel UDP sockets** on
//! localhost: proof that the implementation is network code, not a
//! simulator artifact.
//!
//! ```text
//! cargo run --release --example real_udp
//! ```
//!
//! Every window here (8–16 packets of 8 000 B) is close to or over the 12
//! datagrams a default socket buffer holds. The `udprun` loops drain their
//! sockets first and hand the CPU over every four datagrams, so the `retx`
//! column should read 0; a non-zero value means a socket buffer overflowed
//! after all (a busy machine can still do that) and an RTO, 50 ms here,
//! was sat through. See DESIGN.md, "The `udprun` driver".

use bytes::Bytes;
use rmcast::{ProtocolConfig, ProtocolKind};
use udprun::cluster::{run_cluster, ClusterConfig};
use udprun::multicast::real_multicast_roundtrip;

fn main() {
    match real_multicast_roundtrip() {
        Ok(true) => println!("kernel IP multicast on loopback: available"),
        Ok(false) => println!(
            "kernel IP multicast on loopback: not available here; \
             group traffic flows through the software hub"
        ),
        Err(e) => println!("multicast probe error: {e}"),
    }
    println!();

    const RECEIVERS: u16 = 8;
    const MSG: usize = 1_000_000;
    let payload = Bytes::from(vec![0xC5u8; MSG]);

    println!(
        "{:<26}{:>14}{:>16}{:>10}",
        "protocol", "wall time", "throughput", "retx"
    );
    for (name, kind, window) in [
        ("ACK-based", ProtocolKind::Ack, 8),
        ("NAK w/ polling (i=12)", ProtocolKind::nak_polling(12), 16),
        ("ring-based", ProtocolKind::Ring, 12),
        ("tree-based (H=3)", ProtocolKind::flat_tree(3), 8),
    ] {
        let mut cfg = ProtocolConfig::new(kind, 8_000, window);
        cfg.rto = rmcast::Duration::from_millis(50);
        let out = run_cluster(ClusterConfig::new(cfg, RECEIVERS), vec![payload.clone()])
            .expect("cluster run failed");
        assert_eq!(out.deliveries.len(), RECEIVERS as usize);
        assert!(out.deliveries.iter().all(|(_, _, d)| d == &payload));
        let mbps = MSG as f64 * 8.0 / out.elapsed.as_secs_f64() / 1e6;
        println!(
            "{:<26}{:>14}{:>16}{:>10}",
            name,
            format!("{:.1?}", out.elapsed),
            format!("{mbps:.0} Mbit/s"),
            out.sender_stats.retx_sent
        );
    }
    println!("\nall {RECEIVERS} receivers delivered byte-identical payloads over real UDP");
}
