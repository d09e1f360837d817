//! Per-host simulation state: NIC, sockets, IP reassembly, serial CPU.

use crate::config::LinkParams;
use crate::egress::Egress;
use crate::frame::Datagram;
use crate::ids::{GroupId, HostId, PortRef};
use rmwire::Time;
use std::collections::VecDeque;
use std::rc::Rc;

/// Work queued for a host's serial CPU.
#[derive(Debug)]
pub(crate) enum WorkItem {
    /// Run the process's `on_start`.
    Start,
    /// Run the process's `on_restart` after a crash-restart reboot.
    Restart,
    /// Deliver a reassembled datagram (kernel receive costs charged when
    /// the item runs — that is when `recvfrom` happens).
    Deliver(Rc<Datagram>),
    /// Run the process's `on_timer`.
    Timer,
    /// Discard a flooded multicast frame the host does not subscribe to;
    /// charges `mcast_filter_cost` and invokes nothing.
    McastFilter,
}

/// Bitmap of received fragment indices: 64 KiB datagrams need 45 bits at
/// the standard MTU, so one inline word serves every datagram there and
/// only small-MTU configurations pay for a heap bitmap.
#[derive(Debug)]
enum Have {
    Word(u64),
    Words(Vec<u64>),
}

/// In-progress IP reassembly of one datagram.
#[derive(Debug)]
pub(crate) struct Reassembly {
    have: Have,
    /// Number of distinct fragments received.
    pub count: u32,
    /// Total fragments expected.
    pub total: u32,
}

impl Reassembly {
    pub(crate) fn new(total: u32) -> Self {
        assert!(total >= 1, "a datagram has at least one fragment");
        Reassembly {
            have: if total <= 64 {
                Have::Word(0)
            } else {
                Have::Words(vec![0; (total as usize).div_ceil(64)])
            },
            count: 0,
            total,
        }
    }

    /// Record fragment `index`; returns `true` when the datagram is now
    /// complete.
    pub(crate) fn add(&mut self, index: usize) -> bool {
        assert!(index < self.total as usize, "fragment index out of range");
        let word = match &mut self.have {
            Have::Word(w) => w,
            Have::Words(ws) => &mut ws[index / 64],
        };
        let bit = 1u64 << (index % 64);
        if *word & bit == 0 {
            *word |= bit;
            self.count += 1;
        }
        self.count == self.total
    }
}

/// All state of one simulated host.
pub(crate) struct HostState {
    /// NIC transmit queue onto the host's uplink.
    pub egress: Egress,
    /// Physical parameters of the uplink (host -> switch direction).
    pub link: LinkParams,
    /// The far end of the uplink (switched fabric only).
    pub peer: Option<PortRef>,
    // The three tables below hold one to three entries and are probed
    // several times per fragment: a linear scan of a small vector beats
    // hashing the key. None is ever iterated into a result, so entry order
    // is not observable.
    /// Multicast groups this host has joined.
    pub memberships: Vec<GroupId>,
    /// `(port, receive-buffer occupancy)` per bound UDP port.
    pub sockets: Vec<(u16, usize)>,
    /// IP reassembly contexts keyed by (source host, IP id); a key appears
    /// at most once.
    pub reassembly: Vec<((HostId, u64), Reassembly)>,
    /// Serial-CPU work queue.
    pub cpu_queue: VecDeque<WorkItem>,
    /// `true` while a `CpuDone` event is pending for this host.
    pub cpu_active: bool,
    /// Timer arming generation; a fire event with a stale generation is
    /// ignored.
    pub timer_gen: u64,
    /// Whether the current generation is armed.
    pub timer_armed: bool,
    /// When the host's CPU most recently became (or will become) idle;
    /// used only for reporting.
    pub cpu_busy_until: Time,
    /// Total CPU time consumed by work items (for utilization reports).
    pub cpu_busy_accum: rmwire::Duration,
}

impl HostState {
    pub(crate) fn new(link: LinkParams) -> Self {
        HostState {
            egress: Egress::new(),
            link,
            peer: None,
            memberships: Vec::new(),
            sockets: Vec::new(),
            reassembly: Vec::new(),
            cpu_queue: VecDeque::new(),
            cpu_active: false,
            timer_gen: 0,
            timer_armed: false,
            cpu_busy_until: Time::ZERO,
            cpu_busy_accum: rmwire::Duration::ZERO,
        }
    }

    /// Receive-buffer occupancy of the socket bound to `port`, if any.
    pub(crate) fn socket_mut(&mut self, port: u16) -> Option<&mut usize> {
        self.sockets
            .iter_mut()
            .find(|(p, _)| *p == port)
            .map(|(_, buffered)| buffered)
    }

    /// Remove and return the reassembly context for `key`, if one is open.
    pub(crate) fn take_reassembly(&mut self, key: (HostId, u64)) -> Option<Reassembly> {
        let at = self.reassembly.iter().position(|(k, _)| *k == key)?;
        Some(self.reassembly.swap_remove(at).1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassembly_completes_once_all_fragments_seen() {
        let mut r = Reassembly::new(3);
        assert!(!r.add(0));
        assert!(!r.add(2));
        // Duplicate fragment does not complete it.
        assert!(!r.add(2));
        assert!(r.add(1));
        assert_eq!(r.count, 3);
    }

    #[test]
    fn reassembly_handles_many_fragments() {
        let mut r = Reassembly::new(120);
        for i in 0..119 {
            assert!(!r.add(i));
        }
        assert!(r.add(119));
    }

    #[test]
    fn socket_bookkeeping() {
        let mut h = HostState::new(LinkParams::default());
        assert!(h.socket_mut(9).is_none());
        h.sockets.push((9, 0));
        assert!(h.socket_mut(9).is_some());
    }
}
