//! Run-wide instrumentation counters.

pub use rmtrace::DropCause;
use std::fmt;

/// Aggregate counters maintained by the simulator; read them after a run
/// through [`crate::Sim::trace`].
#[derive(Clone, Default, PartialEq)]
pub struct TraceCounters {
    /// UDP datagrams handed to the network by processes.
    pub datagrams_sent: u64,
    /// UDP datagrams delivered into a process (`on_datagram` calls).
    pub datagrams_delivered: u64,
    /// Ethernet frames that began serialization.
    pub frames_sent: u64,
    /// Frames that arrived intact at a host NIC (including frames the NIC
    /// then filtered out as not-subscribed multicast).
    pub frames_received: u64,
    /// Flooded multicast frames discarded by hosts outside the group.
    pub frames_filtered: u64,
    /// Payload bytes handed to the network by processes.
    pub payload_bytes_sent: u64,
    /// Total wire bytes serialized (framing and padding included).
    pub wire_bytes_sent: u64,
    /// Frames and datagrams lost, by [`DropCause`]; read with
    /// [`TraceCounters::drops`].
    drops: [u64; DropCause::ALL.len()],
    /// CSMA/CD collision events.
    pub collisions: u64,
    /// Frames delayed by the reordering fault (delivered, but late).
    pub frames_reordered: u64,
    /// Datagrams delivered with byzantine byte flips (corrupt_deliver).
    pub byz_corrupt_delivered: u64,
    /// Datagrams delivered twice by the byzantine duplicate fault.
    pub byz_duplicates: u64,
    /// Stale datagrams re-injected by the byzantine replay fault.
    pub byz_replays: u64,
    /// Forged datagrams injected from the fault plan's forge schedule.
    pub byz_forged: u64,
    /// Extra socket deliveries injected by scheduled feedback storms.
    pub storm_amplified: u64,
}

impl TraceCounters {
    /// Record one drop of the given cause.
    pub fn record_drop(&mut self, cause: DropCause) {
        self.drops[cause as usize] += 1;
    }

    /// Drops of one cause.
    pub fn drops(&self, cause: DropCause) -> u64 {
        self.drops[cause as usize]
    }

    /// Total drops across every cause.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().sum()
    }

    /// `true` when no loss of any kind occurred.
    pub fn clean(&self) -> bool {
        self.total_drops() == 0
    }
}

/// The names the simulator's causes have always had in the counters'
/// `Debug` text, which run digests are recorded from (`behaviour_lock`,
/// `chaos.rs`); `collisions` follows `ExcessiveCollisions`. A new counter
/// field needs its line in `Debug` too.
const DEBUG_DROPS: [(DropCause, &str); 11] = [
    (DropCause::WireFault, "drops_wire_fault"),
    (DropCause::SwitchQueueFull, "drops_switch_queue"),
    (DropCause::SockBufFull, "drops_sockbuf"),
    (DropCause::ReassemblyTimeout, "drops_reassembly"),
    (DropCause::DatagramFault, "drops_datagram_fault"),
    (DropCause::ExcessiveCollisions, "drops_collisions"),
    (DropCause::LinkDown, "drops_link_down"),
    (DropCause::BurstLoss, "drops_burst"),
    (DropCause::Corrupt, "drops_corrupt"),
    (DropCause::HostDown, "drops_host_down"),
    (DropCause::TrunkDown, "drops_trunk_down"),
];

impl fmt::Debug for TraceCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("TraceCounters");
        d.field("datagrams_sent", &self.datagrams_sent)
            .field("datagrams_delivered", &self.datagrams_delivered)
            .field("frames_sent", &self.frames_sent)
            .field("frames_received", &self.frames_received)
            .field("frames_filtered", &self.frames_filtered)
            .field("payload_bytes_sent", &self.payload_bytes_sent)
            .field("wire_bytes_sent", &self.wire_bytes_sent);
        for (cause, name) in DEBUG_DROPS {
            d.field(name, &self.drops(cause));
            if cause == DropCause::ExcessiveCollisions {
                d.field("collisions", &self.collisions);
            }
        }
        d.field("frames_reordered", &self.frames_reordered)
            .field("byz_corrupt_delivered", &self.byz_corrupt_delivered)
            .field("byz_duplicates", &self.byz_duplicates)
            .field("byz_replays", &self.byz_replays)
            .field("byz_forged", &self.byz_forged)
            .field("storm_amplified", &self.storm_amplified)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_recording() {
        let mut t = TraceCounters::default();
        assert!(t.clean());
        t.record_drop(DropCause::SockBufFull);
        t.record_drop(DropCause::SockBufFull);
        t.record_drop(DropCause::WireFault);
        assert_eq!(t.drops(DropCause::SockBufFull), 2);
        assert_eq!(t.drops(DropCause::WireFault), 1);
        assert_eq!(t.total_drops(), 3);
        assert!(!t.clean());
    }
}
