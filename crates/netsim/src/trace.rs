//! Run-wide instrumentation counters.

/// Why a frame or datagram was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropCause {
    /// Injected wire fault lost a frame.
    WireFault,
    /// A switch output queue overflowed (tail drop).
    SwitchQueueFull,
    /// The receiving socket buffer had no room for the reassembled
    /// datagram (the paper's dominant loss mode).
    SockBufFull,
    /// An IP reassembly never completed and timed out.
    ReassemblyTimeout,
    /// Injected datagram fault at the receiving host.
    DatagramFault,
    /// CSMA/CD gave up after 16 collisions on one frame.
    ExcessiveCollisions,
    /// The frame traversed an access link inside a scheduled outage
    /// window.
    LinkDown,
    /// The Gilbert–Elliott burst-loss channel was in its bad state.
    BurstLoss,
    /// The frame was corrupted in flight and failed the NIC's FCS check.
    Corrupt,
    /// The destination host had crashed.
    HostDown,
    /// The frame needed an inter-switch trunk inside a scheduled
    /// partition window.
    TrunkDown,
}

impl DropCause {
    /// Stable name, used as the `cause` field of bridged trace records.
    pub fn name(self) -> &'static str {
        match self {
            DropCause::WireFault => "WireFault",
            DropCause::SwitchQueueFull => "SwitchQueueFull",
            DropCause::SockBufFull => "SockBufFull",
            DropCause::ReassemblyTimeout => "ReassemblyTimeout",
            DropCause::DatagramFault => "DatagramFault",
            DropCause::ExcessiveCollisions => "ExcessiveCollisions",
            DropCause::LinkDown => "LinkDown",
            DropCause::BurstLoss => "BurstLoss",
            DropCause::Corrupt => "Corrupt",
            DropCause::HostDown => "HostDown",
            DropCause::TrunkDown => "TrunkDown",
        }
    }
}

/// Aggregate counters maintained by the simulator; read them after a run
/// through [`crate::Sim::trace`].
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// Frames lost to injected wire faults.
    pub drops_wire_fault: u64,
    /// Frames tail-dropped at switch output queues.
    pub drops_switch_queue: u64,
    /// Datagrams dropped at full receive socket buffers.
    pub drops_sockbuf: u64,
    /// Datagrams abandoned by reassembly timeout.
    pub drops_reassembly: u64,
    /// Datagrams lost to injected datagram faults.
    pub drops_datagram_fault: u64,
    /// Frames abandoned after 16 CSMA/CD collisions.
    pub drops_collisions: u64,
    /// CSMA/CD collision events.
    pub collisions: u64,
    /// Frames lost inside scheduled link-down windows.
    pub drops_link_down: u64,
    /// Frames lost to the Gilbert–Elliott burst channel.
    pub drops_burst: u64,
    /// Frames corrupted in flight and discarded by the NIC.
    pub drops_corrupt: u64,
    /// Frames addressed to a crashed host.
    pub drops_host_down: u64,
    /// Frames lost crossing a partitioned inter-switch trunk.
    pub drops_trunk_down: u64,
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
        match cause {
            DropCause::WireFault => self.drops_wire_fault += 1,
            DropCause::SwitchQueueFull => self.drops_switch_queue += 1,
            DropCause::SockBufFull => self.drops_sockbuf += 1,
            DropCause::ReassemblyTimeout => self.drops_reassembly += 1,
            DropCause::DatagramFault => self.drops_datagram_fault += 1,
            DropCause::ExcessiveCollisions => self.drops_collisions += 1,
            DropCause::LinkDown => self.drops_link_down += 1,
            DropCause::BurstLoss => self.drops_burst += 1,
            DropCause::Corrupt => self.drops_corrupt += 1,
            DropCause::HostDown => self.drops_host_down += 1,
            DropCause::TrunkDown => self.drops_trunk_down += 1,
        }
    }

    /// Total drops across every cause.
    pub fn total_drops(&self) -> u64 {
        self.drops_wire_fault
            + self.drops_switch_queue
            + self.drops_sockbuf
            + self.drops_reassembly
            + self.drops_datagram_fault
            + self.drops_collisions
            + self.drops_link_down
            + self.drops_burst
            + self.drops_corrupt
            + self.drops_host_down
            + self.drops_trunk_down
    }

    /// `true` when no loss of any kind occurred.
    pub fn clean(&self) -> bool {
        self.total_drops() == 0
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
        assert_eq!(t.drops_sockbuf, 2);
        assert_eq!(t.drops_wire_fault, 1);
        assert_eq!(t.total_drops(), 3);
        assert!(!t.clean());
    }
}
