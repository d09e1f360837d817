//! The experiment library: one function per table/figure of the paper's
//! evaluation (§5), plus the ablations DESIGN.md calls out.
//!
//! Every function builds [`crate::Scenario`]s on the calibrated testbed,
//! runs them with the paper's three-seed averaging, and returns a
//! [`Table`] whose rows mirror the figure's series. `notes` record the
//! paper's expected shape next to what was measured, so EXPERIMENTS.md can
//! be regenerated mechanically.

use crate::scenario::{Protocol, Scenario};
use crate::table::Table;
use rmcast::{ProtocolConfig, ProtocolKind};

pub mod ablations;
pub mod byzantine;
pub mod calibration_report;
pub mod chaos;
pub mod churn;
pub mod crossover;
pub mod fec;
pub mod fig07;
pub mod figures_ack;
pub mod figures_nak;
pub mod figures_ring;
pub mod figures_tree;
pub mod overload;
pub mod tables;
pub mod trace_deep_dive;

pub use ablations::*;
pub use byzantine::*;
pub use calibration_report::*;
pub use chaos::*;
pub use churn::*;
pub use crossover::*;
pub use fec::*;
pub use fig07::*;
pub use figures_ack::*;
pub use figures_nak::*;
pub use figures_ring::*;
pub use figures_tree::*;
pub use overload::*;
pub use tables::*;
pub use trace_deep_dive::*;

/// The paper's receiver count.
pub const N_RECEIVERS: u16 = 30;

/// Scale factor for sweeps: 1.0 reproduces the full paper grid; smaller
/// values thin the sweep for quick runs (benches use this).
#[derive(Debug, Clone, Copy)]
pub struct Effort {
    /// Keep every `stride`-th point of dense sweeps.
    pub stride: usize,
    /// Seeds to average.
    pub seeds: usize,
}

impl Effort {
    /// The paper's full grid, three seeds.
    pub const FULL: Effort = Effort {
        stride: 1,
        seeds: 3,
    };
    /// Thinned sweeps, single seed: for smoke tests and benches.
    pub const QUICK: Effort = Effort {
        stride: 4,
        seeds: 1,
    };

    /// Thin a sweep vector.
    pub fn thin<T: Copy>(&self, v: &[T]) -> Vec<T> {
        if self.stride <= 1 || v.len() <= 2 {
            return v.to_vec();
        }
        let mut out: Vec<T> = v.iter().copied().step_by(self.stride).collect();
        if let Some(&last) = v.last() {
            // Always keep the endpoint so shapes stay comparable.
            let keep_last = !(v.len() - 1).is_multiple_of(self.stride);
            if keep_last {
                out.push(last);
            }
        }
        out
    }

    /// Apply the seed count to a scenario.
    pub fn seeds_vec(&self) -> Vec<u64> {
        (1..=self.seeds as u64).collect()
    }
}

/// An `Rm` scenario on the paper testbed with this effort's seeds.
pub(crate) fn rm_scenario(effort: Effort, cfg: ProtocolConfig, n: u16, msg: usize) -> Scenario {
    let mut sc = Scenario::new(Protocol::Rm(cfg), n, msg);
    sc.seeds = effort.seeds_vec();
    sc
}

/// The ACK protocol with the paper's "best" large-message settings.
pub(crate) fn ack_cfg(packet_size: usize, window: usize) -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::Ack, packet_size, window)
}

/// NAK-with-polling configuration.
pub(crate) fn nak_cfg(packet_size: usize, window: usize, poll: usize) -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::nak_polling(poll), packet_size, window)
}

/// Ring configuration (window must exceed the receiver count).
pub(crate) fn ring_cfg(packet_size: usize, window: usize) -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::Ring, packet_size, window)
}

/// Flat-tree configuration.
pub(crate) fn tree_cfg(packet_size: usize, window: usize, height: usize) -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::flat_tree(height), packet_size, window)
}

/// Coded-repair (fec) configuration: NAK machinery plus XOR repair
/// blocks and proactive parity (the constructor forces the allocation
/// handshake the decode geometry needs).
pub(crate) fn fec_cfg(packet_size: usize, window: usize, poll: usize) -> ProtocolConfig {
    ProtocolConfig::new(ProtocolKind::fec(poll), packet_size, window)
}

/// The five families at campaign scale, for a group of `n` receivers:
/// mid-range windows and packet sizes, not tuned per family, because the
/// chaos, overload, byzantine, churn and fec campaigns (and their soak
/// tests) measure robustness, not peak throughput. Each caller adds its
/// own liveness, overload or membership settings; those that leave fec
/// out take the first four.
pub fn families(n: u16) -> Vec<(&'static str, ProtocolConfig)> {
    vec![
        ("ack", ack_cfg(8_000, 4)),
        ("nak", nak_cfg(8_000, 16, 8)),
        ("ring", ring_cfg(8_000, n as usize + 2)),
        ("tree", tree_cfg(8_000, 8, 3)),
        ("fec", fec_cfg(8_000, 16, 8)),
    ]
}

/// What builds one experiment's table.
type Experiment = fn(Effort) -> Table;

/// Every experiment by id with the function that runs it, in paper order.
const EXPERIMENTS: &[(&str, Experiment)] = &[
    ("fig07", fig07),
    ("fig08", fig08),
    ("fig09", fig09),
    ("fig10", fig10),
    ("fig11a", fig11a),
    ("fig11b", fig11b),
    ("fig12", fig12),
    ("fig13", fig13),
    ("fig14", fig14),
    ("fig15", fig15),
    ("fig16", fig16),
    ("fig17", fig17),
    ("fig18", fig18),
    ("fig19", fig19),
    ("fig20", fig20),
    ("fig21", fig21),
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("ablate_gbn_vs_sr", ablate_gbn_vs_sr),
    ("ablate_shared_vs_switched", ablate_shared_vs_switched),
    ("ablate_suppression", ablate_suppression),
    ("ablate_snooping", ablate_snooping),
    ("ablate_nak_variants", ablate_nak_variants),
    ("ablate_unicast_retx", ablate_unicast_retx),
    ("ablate_rate_vs_window", ablate_rate_vs_window),
    ("ablate_recv_driven_timer", ablate_recv_driven_timer),
    ("ablate_slow_receiver", ablate_slow_receiver),
    ("ablate_mtu", ablate_mtu),
    ("ablate_two_groups", ablate_two_groups),
    ("ablate_pipeline_handshake", ablate_pipeline_handshake),
    ("crossover", crossover),
    ("calibration_report", calibration_report),
    ("chaos_burst_loss", chaos_burst_loss),
    ("chaos_crash", chaos_crash),
    ("chaos_link_down", chaos_link_down),
    ("chaos_campaign", chaos_campaign),
    ("overload_nak_storm", overload_nak_storm),
    ("overload_slow_receiver", overload_slow_receiver),
    ("overload_sockbuf", overload_sockbuf),
    ("overload_campaign", overload_campaign),
    ("byzantine_storm", byzantine_storm),
    ("fuzz_decode", byzantine::fuzz_decode),
    ("fec_loss_sweep", fec_loss_sweep),
    ("fec_repair_economy", fec_repair_economy),
    ("churn_crash_rejoin", churn_crash_rejoin),
    ("partition_heal", partition_heal),
    ("trace_deep_dive", trace_deep_dive),
];

/// Every experiment by id, in paper order.
pub fn all_experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|&(id, _)| id).collect()
}

/// Run one experiment by id.
pub fn run_experiment(id: &str, effort: Effort) -> Table {
    match EXPERIMENTS.iter().find(|&&(known, _)| known == id) {
        Some((_, run)) => run(effort),
        None => panic!("unknown experiment id {id:?}; see all_experiment_ids()"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thinning_keeps_endpoints() {
        let e = Effort {
            stride: 4,
            seeds: 1,
        };
        let v: Vec<u32> = (1..=10).collect();
        let t = e.thin(&v);
        assert_eq!(t, vec![1, 5, 9, 10]);
        assert_eq!(e.thin(&[1, 2]), vec![1, 2]);
        assert_eq!(Effort::FULL.thin(&v), v);
    }

    #[test]
    fn registry_is_complete() {
        // Every id resolves (cheaply check the panic branch only), and no
        // id shadows another.
        let ids = all_experiment_ids();
        assert_eq!(ids.len(), 48);
        assert!(ids.contains(&"table3"));
        let mut unique = ids.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), ids.len());
    }
}
