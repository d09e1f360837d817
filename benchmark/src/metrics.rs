//! The metric vocabulary: every name, unit and direction, in the order
//! `BENCHMARK.json` lists them. A unit test holds the two in lockstep.

/// An end-to-end metric: `(name, unit, better, regression bound)`.
pub type EndToEnd = (&'static str, &'static str, &'static str, f64);

/// The same five on every workload. The timing bounds are the widest the
/// contract allows: the sizing machine shifts between speed regimes 10–35 %
/// apart that last minutes (README, "A/A"), and a bound inside that band
/// would reject unchanged code.
pub const END_TO_END: [EndToEnd; 5] = [
    ("goodput_mb_s", "MB/s", "higher", 0.25),
    ("msg_latency_p50_us", "us", "lower", 0.25),
    ("msg_latency_tail_us", "us", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.2),
    ("setup_s", "s", "lower", 0.25),
];

/// A per-layer metric: `(name, unit, better)`.
pub type PerLayer = (&'static str, &'static str, &'static str);

/// Single-layer metrics of the traced pass.
pub const PER_LAYER: [PerLayer; 55] = [
    // rmwire
    ("rmwire.crc32c_mb_s", "MB/s", "higher"),
    ("rmwire.header_roundtrip_ns", "ns", "lower"),
    // core::packet
    ("core.packet.encode_data_ns", "ns", "lower"),
    ("core.packet.seal_ns", "ns", "lower"),
    ("core.packet.parse_data_ns", "ns", "lower"),
    ("core.packet.parse_checked_ns", "ns", "lower"),
    ("core.packet.ack_roundtrip_ns", "ns", "lower"),
    // core::assembler / window / fec
    ("core.assembler.offer_ns", "ns", "lower"),
    ("core.assembler.offer_ooo_ns", "ns", "lower"),
    ("core.window.cycle_ns", "ns", "lower"),
    ("core.fec.xor_mb_s", "MB/s", "higher"),
    // core engines, per call (p50) from the traced loop
    ("core.sender.send_message_ns", "ns", "lower"),
    ("core.sender.poll_transmit_ns", "ns", "lower"),
    ("core.sender.handle_datagram_ns", "ns", "lower"),
    ("core.sender.handle_timeout_ns", "ns", "lower"),
    ("core.receiver.handle_datagram_ns", "ns", "lower"),
    ("core.receiver.poll_transmit_ns", "ns", "lower"),
    ("core.receiver.poll_event_ns", "ns", "lower"),
    ("core.sender.share", "ratio", "lower"),
    ("core.receiver.share", "ratio", "lower"),
    ("core.driver.self_share", "ratio", "lower"),
    ("core.datagrams_per_msg", "count", "lower"),
    ("core.feedback_per_data_pkt", "count", "lower"),
    ("core.retx_per_data_pkt", "count", "lower"),
    ("core.repairs_per_msg", "count", "lower"),
    ("core.small_msg_us.ack", "us", "lower"),
    ("core.small_msg_us.nak", "us", "lower"),
    ("core.small_msg_us.ring", "us", "lower"),
    ("core.small_msg_us.tree", "us", "lower"),
    ("core.small_msg_us.fec", "us", "lower"),
    // netsim
    ("netsim.pingpong_events_per_s", "1/s", "higher"),
    ("netsim.dispatch_per_run", "count", "lower"),
    ("netsim.ns_per_dispatch", "ns", "lower"),
    // simrun
    ("simrun.run_ms.ack", "ms", "lower"),
    ("simrun.run_ms.nak", "ms", "lower"),
    ("simrun.run_ms.ring", "ms", "lower"),
    ("simrun.run_ms.tree", "ms", "lower"),
    ("simrun.run_ms.fec", "ms", "lower"),
    ("simrun.sim_over_loopback_ratio", "ratio", "lower"),
    ("simrun.scale_n120_ratio", "ratio", "lower"),
    ("simrun.frames_per_run", "count", "lower"),
    // udprun
    ("udprun.datagrams_tx_per_msg", "count", "lower"),
    ("udprun.datagrams_rx_per_msg", "count", "lower"),
    ("udprun.retx_per_data_pkt", "count", "lower"),
    ("udprun.timeouts_per_msg", "count", "lower"),
    ("udprun.cpu_busy_share", "ratio", "lower"),
    ("udprun.tx_span_mean_ns", "ns", "lower"),
    ("udprun.rx_span_mean_ns", "ns", "lower"),
    ("udprun.onewindow_msg_us", "us", "lower"),
    ("udprun.call_overhead_ms", "ms", "lower"),
    // the OS boundary, for the workload the traced run was asked for
    ("proc.allocs_per_msg", "count", "lower"),
    ("proc.alloc_bytes_per_payload_byte", "ratio", "lower"),
    ("proc.minor_faults_per_msg", "count", "lower"),
    ("proc.sys_cpu_share", "ratio", "lower"),
    ("proc.trace_overhead_pct", "%", "lower"),
];

/// Unit of a metric by name, either table.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .map(|(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;
    use rmprof::expo::Json;

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn str_at<'a>(row: &'a Json, key: &str) -> &'a str {
        row.get(key).and_then(Json::as_str).unwrap_or_default()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics_and_workloads() {
        let m = manifest();
        let e2e: Vec<_> = m
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| {
                (
                    str_at(r, "name").to_string(),
                    str_at(r, "unit").to_string(),
                    str_at(r, "better").to_string(),
                    r.get("bound").and_then(Json::as_f64).unwrap(),
                )
            })
            .collect();
        let want: Vec<_> = END_TO_END
            .iter()
            .map(|m| (m.0.to_string(), m.1.to_string(), m.2.to_string(), m.3))
            .collect();
        assert_eq!(e2e, want);

        let layers: Vec<_> = m
            .get("per_layer")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| (str_at(r, "name"), str_at(r, "unit"), str_at(r, "better")))
            .collect();
        assert_eq!(layers, PER_LAYER.to_vec());

        let names: Vec<_> = m
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|r| str_at(r, "name"))
            .collect();
        let have: Vec<_> = workload::all()
            .iter()
            .filter(|w| w.gated)
            .map(|w| w.name)
            .collect();
        assert_eq!(names, have);
        assert_eq!(
            m.get("paths").and_then(Json::as_arr).map(|p| p.len()),
            Some(1)
        );
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            !s.is_empty()
                && s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END
            .iter()
            .map(|m| (m.0, m.1))
            .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        {
            assert!(ok_name(name), "{name}");
            assert!(ok_unit(unit), "{name}: {unit}");
            assert!(seen.insert(name), "{name} used twice");
        }
        assert!(END_TO_END.iter().all(|m| m.3 <= 0.25));
        assert!(END_TO_END.iter().any(|m| m.0 == "setup_s" && m.1 == "s"));
    }
}
