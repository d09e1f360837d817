//! Typed identifiers for simulated entities.

/// Index of a simulated host (workstation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub usize);

/// Index of a simulated Ethernet switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SwitchId(pub usize);

/// Index of a static IP-multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GroupId(pub usize);

/// One attachment point of a link: either a host NIC or a numbered switch
/// port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PortRef {
    /// A host's (single) network interface.
    Host(HostId),
    /// Port `1` of switch `0`, etc.
    Switch(SwitchId, usize),
}

impl core::fmt::Display for HostId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "h{}", self.0)
    }
}

impl core::fmt::Display for SwitchId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "sw{}", self.0)
    }
}

impl core::fmt::Display for GroupId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "g{}", self.0)
    }
}
