//! The user-level CPU cost model.
//!
//! `netsim`'s [`netsim::HostParams`] charges *kernel* costs (system calls,
//! per-fragment work, kernel copies). This model adds what the paper's
//! **user-space** protocol implementation costs on top: per-datagram
//! protocol processing, the user-to-protocol-buffer copy that Figure 9
//! isolates, and `gettimeofday` reads (§4 *Timer management*: one per
//! event handled and per packet sent, the paper's approximate-time
//! scheme). See [`crate::calibration`] for how the constants were chosen.

use rmwire::Duration;

/// User-level protocol costs charged by the [`crate::adapter`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Protocol state-machine work per received datagram (header decode,
    /// window bookkeeping, ACK aggregation).
    pub per_datagram_handle: Duration,
    /// Protocol work per datagram sent (header encode, slot setup).
    pub per_datagram_send: Duration,
    /// The user-space copy of payload into the protocol buffer,
    /// per byte (charged on `Transmit::copied` bytes).
    pub copy_ns_per_byte: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            per_datagram_handle: Duration::from_micros(10),
            per_datagram_send: Duration::from_micros(2),
            copy_ns_per_byte: 55,
        }
    }
}

impl CostModel {
    /// The copy charge for `bytes` copied user -> protocol buffer.
    pub fn copy_cost(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.copy_ns_per_byte * bytes as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales() {
        let c = CostModel::default();
        assert_eq!(c.copy_cost(0), Duration::ZERO);
        assert_eq!(c.copy_cost(1000).as_nanos(), 55_000);
    }
}
