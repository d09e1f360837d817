//! Store-and-forward Ethernet switch state.

use crate::config::LinkParams;
use crate::egress::Egress;
use crate::ids::PortRef;

/// One switch port: its egress queue, the device at the far end, and the
/// physical parameters of the attached cable (switch -> peer direction).
pub(crate) struct Port {
    pub peer: Option<PortRef>,
    pub egress: Egress,
    pub link: LinkParams,
}

/// All state of one simulated switch.
pub(crate) struct SwitchState {
    /// Ports in creation order.
    pub ports: Vec<Port>,
    /// `route[host.0]` = output port index toward that host (filled in by
    /// `Sim::finalize_routes`).
    pub route: Vec<usize>,
    /// `mcast_ports[group.0]` = the ascending output ports a frame for that
    /// group leaves on (forwarding skips the one it arrived on): with IGMP
    /// snooping the ports toward members, without it every cabled port.
    /// Derived with `route`, since groups and cabling are fixed while the
    /// simulation runs; stale whenever `Sim::routes_dirty` is set.
    pub mcast_ports: Vec<Vec<usize>>,
}

impl SwitchState {
    pub(crate) fn new() -> Self {
        SwitchState {
            ports: Vec::new(),
            route: Vec::new(),
            mcast_ports: Vec::new(),
        }
    }

    /// Allocate a new (unconnected) port and return its index.
    pub(crate) fn add_port(&mut self, link: LinkParams) -> usize {
        assert!(self.ports.len() < u32::MAX as usize, "too many ports");
        self.ports.push(Port {
            peer: None,
            egress: Egress::new(),
            link,
        });
        self.ports.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_number_sequentially() {
        let mut s = SwitchState::new();
        assert_eq!(s.add_port(LinkParams::default()), 0);
        assert_eq!(s.add_port(LinkParams::default()), 1);
        assert!(s.ports[0].peer.is_none());
    }
}
