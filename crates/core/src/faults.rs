//! One fault plan for every backend: [`crate::loopback::Loopback`], the
//! simulator (`simrun::Scenario::with_faults`, into netsim's richer
//! `FaultPlan`) and kernel sockets (`udprun::run_cluster`). A backend
//! refuses, when the run is built, a fault it cannot inject; DESIGN.md §4
//! tables what each backend does with each field.

use rmwire::Duration;

/// The backend-neutral fault plan. The default injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Faults {
    /// Probability that a datagram copy is lost on its way to an endpoint,
    /// drawn per copy on every path (per receiver, as on IP multicast).
    pub loss: f64,
    /// Probability that a copy arrives twice.
    pub dup: f64,
    /// Probability that a copy is held back and arrives after copies sent
    /// behind it.
    pub reorder: f64,
    /// Probability that a copy reaches its endpoint with bits flipped
    /// (unlike `loss`, which models frames the NIC's FCS check drops).
    pub corrupt: f64,
    /// `(receiver index, back)`: the receiver starts dead. With
    /// `back = Some(d)` it boots again `d` into the run as a fresh joining
    /// endpoint, which needs `ProtocolConfig::membership` to get back in.
    pub down: Vec<(usize, Option<Duration>)>,
}

impl Faults {
    /// The four per-copy probabilities by name, `loss` first.
    pub fn rates(&self) -> [(&'static str, f64); 4] {
        [
            ("loss", self.loss),
            ("dup", self.dup),
            ("reorder", self.reorder),
            ("corrupt", self.corrupt),
        ]
    }

    /// `Err` naming the first entry a group of `n` receivers cannot run: a
    /// probability outside `[0, 1)` (a certain loss never converges), or a
    /// `down` entry that names no receiver, names one twice or is back at
    /// time zero.
    pub fn validate(&self, n: usize) -> Result<(), String> {
        for (name, p) in self.rates() {
            if !(0.0..1.0).contains(&p) {
                return Err(format!("{name} probability out of range [0, 1): {p}"));
            }
        }
        for (k, &(i, back)) in self.down.iter().enumerate() {
            if i >= n {
                return Err(format!("down receiver {i} is not one of {n} receivers"));
            }
            if self.down[..k].iter().any(|&(j, _)| j == i) {
                return Err(format!("down receiver {i} is listed twice"));
            }
            if back == Some(Duration::ZERO) {
                return Err(format!("down receiver {i} is back at time zero"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_refuses_what_no_group_can_run() {
        let ok = Faults {
            loss: 0.5,
            down: vec![(0, None), (3, Some(Duration::from_millis(5)))],
            ..Faults::default()
        };
        assert_eq!(ok.validate(4), Ok(()));
        assert_eq!(Faults::default().validate(1), Ok(()));
        let refused = |f: Faults, what: &str| {
            let e = f.validate(4).expect_err(what);
            assert!(e.contains(what), "{e}");
        };
        let down = |down| Faults {
            down,
            ..Faults::default()
        };
        for p in [1.0, -0.1, f64::NAN] {
            let dup = Faults {
                dup: p,
                ..Faults::default()
            };
            refused(dup, "dup probability");
        }
        refused(down(vec![(4, None)]), "receiver 4 is not one of 4");
        refused(down(vec![(1, None), (1, None)]), "listed twice");
        refused(down(vec![(2, Some(Duration::ZERO))]), "back at time zero");
    }
}
