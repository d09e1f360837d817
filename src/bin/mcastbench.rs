//! `mcastbench` — measure a reliable multicast configuration, on the
//! calibrated Ethernet simulator or over real UDP sockets.
//!
//! ```text
//! mcastbench --protocol nak --receivers 30 --size 2000000 \
//!            --packet 8000 --window 50 --poll 43
//! mcastbench --protocol ring --backend udp --receivers 8 --size 1000000
//! mcastbench --protocol tree --height 6 --loss 0.001 --seeds 5
//! ```

use bytes::Bytes;
use rmcast::{ProtocolConfig, ProtocolKind, TreeShape};
use simrun::scenario::{Protocol, Scenario, TopologyKind};

#[derive(Debug)]
struct Args {
    protocol: String,
    backend: String,
    receivers: u16,
    size: usize,
    packet: usize,
    window: Option<usize>,
    poll: Option<usize>,
    height: usize,
    /// The three simulator-only options, `None` where not given.
    loss: Option<f64>,
    seeds: Option<usize>,
    topology: Option<String>,
    quiet: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            protocol: "nak".into(),
            backend: "sim".into(),
            receivers: 30,
            size: 2_000_000,
            packet: 8_000,
            window: None,
            poll: None,
            height: 6,
            loss: None,
            seeds: None,
            topology: None,
            quiet: false,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: mcastbench [options]\n\
         \n\
         --protocol ack|nak|fec|ring|tree|tree-binary|raw-udp|tcp   (default nak)\n\
         --backend sim|udp                                      (default sim)\n\
         --receivers N          group size               (default 30)\n\
         --size BYTES           message size             (default 2000000)\n\
         --packet BYTES         packet size              (default 8000)\n\
         --window N             window size              (default: per protocol)\n\
         --poll N               NAK poll interval        (default: 85% of window)\n\
         --height H             tree height              (default 6)\n\
         --loss P               injected frame loss      (default 0, sim only)\n\
         --seeds N              runs to average          (default 3, sim only)\n\
         --topology two-switch|single-switch|bus   (default two-switch, sim only)\n\
         --quiet                print only the one-line summary"
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut a = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--protocol" => a.protocol = val("--protocol"),
            "--backend" => a.backend = val("--backend"),
            "--receivers" => a.receivers = val("--receivers").parse().unwrap_or_else(|_| usage()),
            "--size" => a.size = val("--size").parse().unwrap_or_else(|_| usage()),
            "--packet" => a.packet = val("--packet").parse().unwrap_or_else(|_| usage()),
            "--window" => a.window = Some(val("--window").parse().unwrap_or_else(|_| usage())),
            "--poll" => a.poll = Some(val("--poll").parse().unwrap_or_else(|_| usage())),
            "--height" => a.height = val("--height").parse().unwrap_or_else(|_| usage()),
            "--loss" => a.loss = Some(val("--loss").parse().unwrap_or_else(|_| usage())),
            "--seeds" => a.seeds = Some(val("--seeds").parse().unwrap_or_else(|_| usage())),
            "--topology" => a.topology = Some(val("--topology")),
            "--quiet" => a.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    // Out of range, each of these would panic deep in a run, or (`--loss
    // 1`) spin the simulator to its time cap: refuse them before anything
    // runs. An unknown backend would otherwise run the simulator.
    let in_range = [
        (
            "--backend",
            matches!(a.backend.as_str(), "sim" | "udp"),
            "sim or udp",
        ),
        ("--receivers", a.receivers >= 1, "at least 1"),
        (
            "--packet",
            (1..=65_000).contains(&a.packet),
            "1 to 65000 bytes",
        ),
        ("--window", a.window != Some(0), "at least 1"),
        (
            "--window",
            a.protocol != "ring" || a.window.is_none_or(|w| w > a.receivers as usize),
            "more than --receivers for ring",
        ),
        ("--poll", a.poll != Some(0), "at least 1"),
        ("--height", a.height >= 1, "at least 1"),
        ("--seeds", a.seeds != Some(0), "at least 1"),
        (
            "--loss",
            a.loss.is_none_or(|p| (0.0..1.0).contains(&p)),
            "in [0, 1)",
        ),
    ];
    if let Some((flag, _, want)) = in_range.iter().find(|(_, ok, _)| !ok) {
        eprintln!("{flag} must be {want}");
        std::process::exit(2)
    }
    a
}

fn build_config(a: &Args) -> ProtocolConfig {
    let window = a.window.unwrap_or(match a.protocol.as_str() {
        "ack" => 2,
        "ring" => (a.receivers as usize + 1).max(50),
        "tree" | "tree-binary" => 20,
        _ => 50,
    });
    let kind = match a.protocol.as_str() {
        "ack" => ProtocolKind::Ack,
        "nak" => {
            let poll = a.poll.unwrap_or(((window * 85) / 100).max(1));
            ProtocolKind::nak_polling(poll.min(window))
        }
        "fec" => {
            let poll = a.poll.unwrap_or(((window * 85) / 100).max(1));
            ProtocolKind::fec(poll.min(window))
        }
        "ring" => ProtocolKind::Ring,
        "tree" => ProtocolKind::flat_tree(a.height.min(a.receivers as usize)),
        "tree-binary" => ProtocolKind::Tree {
            shape: TreeShape::Binary,
        },
        other => {
            eprintln!("unknown protocol {other}");
            usage()
        }
    };
    ProtocolConfig::new(kind, a.packet, window)
}

fn main() {
    let a = parse_args();

    if a.backend == "udp" {
        run_udp(&a);
        return;
    }

    let protocol = match a.protocol.as_str() {
        "raw-udp" => Protocol::RawUdp {
            packet_size: a.packet,
        },
        "tcp" => Protocol::SerialUnicast {
            segment_size: 1448,
            window: 22,
        },
        _ => Protocol::Rm(build_config(&a)),
    };

    let topology = a.topology.as_deref().unwrap_or("two-switch");
    let mut sc = Scenario::new(protocol, a.receivers, a.size);
    sc.seeds = (1..=a.seeds.unwrap_or(3) as u64).collect();
    sc.topology = match topology {
        "two-switch" => TopologyKind::TwoSwitch,
        "single-switch" => TopologyKind::SingleSwitch,
        "bus" => TopologyKind::SharedBus,
        other => {
            eprintln!("unknown topology {other}");
            usage()
        }
    };
    // `parse_args` has kept the rate in [0, 1): the constructor accepts a
    // certain loss, which never converges and spins to the time cap.
    sc.fault_plan = netsim::FaultPlan::default().with_frame_loss(a.loss.unwrap_or(0.0));

    let r = sc.run_avg();
    if a.quiet {
        println!(
            "{} n={} size={} time={:.6}s throughput={:.1}Mbps",
            a.protocol,
            a.receivers,
            a.size,
            r.comm_time.as_secs_f64(),
            r.throughput_mbps
        );
        return;
    }
    println!("backend          : calibrated simulator ({topology})");
    println!("protocol         : {}", a.protocol);
    println!("receivers        : {}", a.receivers);
    println!("message          : {} bytes", a.size);
    println!("communication    : {}", r.comm_time);
    println!("throughput       : {:.1} Mbit/s", r.throughput_mbps);
    println!("data packets     : {}", r.sender_stats.data_sent);
    println!("retransmissions  : {}", r.sender_stats.retx_sent);
    println!("coded repairs    : {}", r.sender_stats.repairs_sent);
    println!("parity blocks    : {}", r.sender_stats.parity_sent);
    println!("acks at sender   : {}", r.sender_stats.acks_received);
    println!("naks at sender   : {}", r.sender_stats.naks_received);
    println!(
        "sender peak buf  : {} bytes",
        r.sender_stats.peak_buffer_bytes
    );
    println!("network drops    : {}", r.trace.total_drops());
    println!("deliveries       : {}/{}", r.deliveries, a.receivers);
}

fn run_udp(a: &Args) {
    use udprun::cluster::{run_cluster, ClusterConfig};
    if matches!(a.protocol.as_str(), "raw-udp" | "tcp") {
        eprintln!("the udp backend runs the reliable multicast protocols only");
        usage()
    }
    let sim_only = [
        ("--loss", a.loss.is_some()),
        ("--seeds", a.seeds.is_some()),
        ("--topology", a.topology.is_some()),
    ];
    if let Some((flag, _)) = sim_only.iter().find(|(_, set)| *set) {
        eprintln!("{flag} is sim only: the udp backend cannot honour it");
        std::process::exit(2)
    }
    let mut cfg = build_config(a);
    cfg.rto = rmcast::Duration::from_millis(50);
    let payload = Bytes::from(vec![0x5au8; a.size]);
    let out = run_cluster(ClusterConfig::new(cfg, a.receivers), vec![payload])
        .expect("udp cluster run failed");
    let mbps = a.size as f64 * 8.0 / out.elapsed.as_secs_f64() / 1e6;
    if a.quiet {
        println!(
            "{} n={} size={} wall={:.6}s throughput={:.1}Mbps",
            a.protocol,
            a.receivers,
            a.size,
            out.elapsed.as_secs_f64(),
            mbps
        );
        return;
    }
    println!("backend          : real UDP sockets (localhost, software hub)");
    println!("protocol         : {}", a.protocol);
    println!("receivers        : {}", a.receivers);
    println!("message          : {} bytes", a.size);
    println!("wall time        : {:.2?}", out.elapsed);
    println!("throughput       : {mbps:.1} Mbit/s");
    println!("retransmissions  : {}", out.sender_stats.retx_sent);
    println!("coded repairs    : {}", out.sender_stats.repairs_sent);
    println!("parity blocks    : {}", out.sender_stats.parity_sent);
    println!(
        "deliveries       : {}/{}",
        out.deliveries.len(),
        a.receivers
    );
}
