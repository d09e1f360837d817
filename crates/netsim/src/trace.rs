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

/// One entry of the optional packet-level event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogEvent {
    /// A process handed a datagram to the network.
    DatagramSent {
        /// Sending host index.
        src: usize,
        /// `None` for multicast, `Some(host)` for unicast.
        dst: Option<usize>,
        /// Payload length.
        len: usize,
    },
    /// A datagram reached a process.
    DatagramDelivered {
        /// Receiving host index.
        host: usize,
        /// Payload length.
        len: usize,
    },
    /// Something was dropped.
    Drop {
        /// Why.
        cause: DropCause,
    },
}

/// A bounded in-order log of network events with their timestamps, off by
/// default (zero capacity). Enable with [`crate::Sim::set_log_capacity`]
/// (keeps the *first* `capacity` events) or
/// [`crate::Sim::set_log_keep_last`] (ring mode: keeps the *last*
/// `capacity` events, so the end of a long run survives).
#[derive(Debug, Clone, Default)]
pub struct EventLog {
    capacity: usize,
    /// Ring mode: evict the oldest entry instead of dropping new ones.
    keep_last: bool,
    /// `(nanoseconds, event)` in occurrence order; recording stops at
    /// capacity (the `truncated` flag is then set) unless `keep_last`
    /// evicts from the front instead.
    pub entries: Vec<(u64, LogEvent)>,
    /// `true` when events were discarded after hitting capacity (either
    /// new events in first-N mode, or old events in ring mode).
    pub truncated: bool,
}

impl EventLog {
    /// Create with a maximum entry count, keeping the first `capacity`
    /// events.
    pub fn with_capacity(capacity: usize) -> Self {
        EventLog {
            capacity,
            keep_last: false,
            entries: Vec::new(),
            truncated: false,
        }
    }

    /// Create in ring mode: at most `capacity` entries, evicting the
    /// oldest so the log always holds the *last* events of the run.
    pub fn with_ring_capacity(capacity: usize) -> Self {
        EventLog {
            capacity,
            keep_last: true,
            entries: Vec::new(),
            truncated: false,
        }
    }

    /// Record one event at `now_ns`. At capacity, first-N mode drops the
    /// new event; ring mode evicts the oldest (an `O(capacity)` shift —
    /// this is a debugging facility, not a hot path).
    pub fn record(&mut self, now_ns: u64, ev: LogEvent) {
        if self.entries.len() < self.capacity {
            self.entries.push((now_ns, ev));
        } else if self.capacity > 0 {
            self.truncated = true;
            if self.keep_last {
                self.entries.remove(0);
                self.entries.push((now_ns, ev));
            }
        }
    }

    /// `true` when logging is enabled.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// `true` when the log evicts oldest entries instead of dropping new
    /// ones.
    pub fn is_ring(&self) -> bool {
        self.keep_last
    }
}

#[cfg(test)]
mod log_tests {
    use super::*;

    #[test]
    fn log_respects_capacity() {
        let mut l = EventLog::with_capacity(2);
        assert!(l.enabled());
        l.record(
            1,
            LogEvent::Drop {
                cause: DropCause::WireFault,
            },
        );
        l.record(
            2,
            LogEvent::Drop {
                cause: DropCause::WireFault,
            },
        );
        l.record(
            3,
            LogEvent::Drop {
                cause: DropCause::WireFault,
            },
        );
        assert_eq!(l.entries.len(), 2);
        assert!(l.truncated);
    }

    #[test]
    fn ring_mode_keeps_the_last_entries() {
        let mut l = EventLog::with_ring_capacity(2);
        assert!(l.enabled());
        assert!(l.is_ring());
        for t in 1..=5 {
            l.record(
                t,
                LogEvent::Drop {
                    cause: DropCause::WireFault,
                },
            );
        }
        assert!(l.truncated);
        let times: Vec<u64> = l.entries.iter().map(|&(t, _)| t).collect();
        assert_eq!(times, vec![4, 5], "ring retains the end of the run");
    }

    #[test]
    fn zero_capacity_is_disabled() {
        let mut l = EventLog::default();
        assert!(!l.enabled());
        l.record(
            1,
            LogEvent::Drop {
                cause: DropCause::WireFault,
            },
        );
        assert!(l.entries.is_empty());
        assert!(!l.truncated);
    }
}
