//! Datagrams, fragments and Ethernet framing arithmetic.
//!
//! A UDP datagram of up to [`MAX_DATAGRAM`] bytes is carried as a train of
//! IP fragments, each at most [`MTU`] bytes of IP payload. The simulator
//! never copies payload bytes per fragment: a fragment is an `Rc` to the
//! owning datagram plus an index, so multicast fan-out and switch queuing
//! are O(1) per frame. (`Rc`, not `Arc`: a `Sim` owns `Box<dyn Process>`
//! and never crosses threads, so the count need not be atomic.)

use crate::ids::{GroupId, HostId};
use bytes::Bytes;
use rmwire::Duration;
use std::rc::Rc;

/// Ethernet MTU: maximum IP packet size per frame, in bytes.
pub const MTU: usize = 1500;
/// IPv4 header bytes per fragment.
pub const IP_HEADER: usize = 20;
/// UDP header bytes (first fragment only in real IP; we charge it on every
/// fragment's *first* slot via [`fragment_wire_bytes`]).
pub const UDP_HEADER: usize = 8;
/// Usable datagram payload per fragment at the default MTU.
pub const FRAG_DATA: usize = MTU - IP_HEADER - UDP_HEADER;

/// Usable datagram payload per fragment at a given MTU.
pub fn frag_data_for_mtu(mtu: usize) -> usize {
    assert!(mtu > IP_HEADER + UDP_HEADER, "MTU too small: {mtu}");
    mtu - IP_HEADER - UDP_HEADER
}
/// Largest UDP payload we accept (the familiar 65 507).
pub const MAX_DATAGRAM: usize = 65_535 - IP_HEADER - UDP_HEADER;

/// Ethernet MAC header + FCS bytes.
pub const ETH_HEADER_FCS: usize = 18;
/// Minimum Ethernet frame (header + payload + FCS).
pub const ETH_MIN_FRAME: usize = 64;
/// Preamble + start-frame delimiter + inter-frame gap, charged as wire time
/// but not as queue occupancy.
pub const ETH_PREAMBLE_IFG: usize = 20;

/// Destination of a UDP send: one host or one multicast group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdpDest {
    /// Unicast to `(host, port)`.
    Host(HostId, u16),
    /// Multicast to `(group, port)`; delivered to every member that has a
    /// socket bound to `port`.
    Group(GroupId, u16),
}

impl UdpDest {
    /// Unicast constructor.
    pub fn host(h: HostId, port: u16) -> Self {
        UdpDest::Host(h, port)
    }

    /// Multicast constructor.
    pub fn group(g: GroupId, port: u16) -> Self {
        UdpDest::Group(g, port)
    }

    /// The destination port.
    pub fn port(self) -> u16 {
        match self {
            UdpDest::Host(_, p) | UdpDest::Group(_, p) => p,
        }
    }

    /// `true` for multicast destinations.
    pub fn is_multicast(self) -> bool {
        matches!(self, UdpDest::Group(..))
    }
}

/// A UDP datagram in flight.
#[derive(Debug)]
pub struct Datagram {
    /// Sending host.
    pub src_host: HostId,
    /// Sending port.
    pub src_port: u16,
    /// Destination (host or group) and port.
    pub dest: UdpDest,
    /// Application payload.
    pub payload: Bytes,
    /// Unique IP identification for reassembly.
    pub ip_id: u64,
    /// Usable payload bytes per fragment (derived from the link MTU).
    pub frag_data: usize,
}

impl Datagram {
    /// Number of fragments this datagram occupies on the wire.
    pub fn n_fragments(&self) -> usize {
        n_fragments_with(self.payload.len(), self.frag_data)
    }
}

/// Number of MTU-sized fragments needed for a `len`-byte UDP payload at
/// the default MTU. A zero-length datagram still occupies one fragment.
pub fn n_fragments(len: usize) -> usize {
    n_fragments_with(len, FRAG_DATA)
}

/// [`n_fragments`] at an explicit per-fragment payload capacity.
pub fn n_fragments_with(len: usize, frag_data: usize) -> usize {
    assert!(len <= MAX_DATAGRAM, "datagram too large: {len}");
    len.div_ceil(frag_data).max(1)
}

/// Datagram payload bytes carried by fragment `index` (default MTU).
pub fn fragment_payload_len(total: usize, index: usize) -> usize {
    fragment_payload_len_with(total, index, FRAG_DATA)
}

/// [`fragment_payload_len`] at an explicit fragment capacity.
pub fn fragment_payload_len_with(total: usize, index: usize, frag_data: usize) -> usize {
    let n = n_fragments_with(total, frag_data);
    assert!(index < n, "fragment index {index} out of {n}");
    if index + 1 < n {
        frag_data
    } else {
        total - index * frag_data
    }
}

/// Bytes of this fragment as an Ethernet frame occupying a queue
/// (header + IP + UDP + data + FCS, padded to the Ethernet minimum).
pub fn fragment_frame_bytes(total: usize, index: usize) -> usize {
    fragment_frame_bytes_with(total, index, FRAG_DATA)
}

/// [`fragment_frame_bytes`] at an explicit fragment capacity.
pub fn fragment_frame_bytes_with(total: usize, index: usize, frag_data: usize) -> usize {
    let ip_payload = IP_HEADER + UDP_HEADER + fragment_payload_len_with(total, index, frag_data);
    (ip_payload + ETH_HEADER_FCS).max(ETH_MIN_FRAME)
}

/// Bytes of this fragment as they consume wire time (adds preamble + IFG).
pub fn fragment_wire_bytes(total: usize, index: usize) -> usize {
    fragment_frame_bytes(total, index) + ETH_PREAMBLE_IFG
}

/// Wall time to serialize fragment `index` of a `total`-byte datagram at
/// `rate_bps` (default MTU).
pub fn fragment_tx_time(total: usize, index: usize, rate_bps: u64) -> Duration {
    Duration::transmission(fragment_wire_bytes(total, index), rate_bps)
}

/// One Ethernet frame: fragment `index` of the shared datagram.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The datagram this frame is a fragment of.
    pub dg: Rc<Datagram>,
    /// Fragment index within the datagram (at most 65 506: a datagram is
    /// under 64 KiB and a fragment carries at least one byte of it).
    pub index: u32,
}

impl Frame {
    /// Queue-occupancy size of this frame in bytes.
    pub fn frame_bytes(&self) -> usize {
        fragment_frame_bytes_with(
            self.dg.payload.len(),
            self.index as usize,
            self.dg.frag_data,
        )
    }

    /// Wire-time size of this frame in bytes (preamble + IFG included).
    pub fn wire_bytes(&self) -> usize {
        self.frame_bytes() + ETH_PREAMBLE_IFG
    }

    /// Serialization time at `rate_bps`.
    pub fn tx_time(&self, rate_bps: u64) -> Duration {
        Duration::transmission(self.wire_bytes(), rate_bps)
    }

    /// `true` if this is the last fragment of its datagram.
    pub fn is_last(&self) -> bool {
        self.index as usize + 1 == self.dg.n_fragments()
    }
}

/// Split a datagram into its fragment frames.
pub fn fragment(dg: Rc<Datagram>) -> impl Iterator<Item = Frame> {
    let n = u32::try_from(dg.n_fragments()).expect("a datagram is under 64 KiB");
    (0..n).map(move |index| Frame {
        dg: Rc::clone(&dg),
        index,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fragment_counts() {
        assert_eq!(n_fragments(0), 1);
        assert_eq!(n_fragments(1), 1);
        assert_eq!(n_fragments(FRAG_DATA), 1);
        assert_eq!(n_fragments(FRAG_DATA + 1), 2);
        assert_eq!(n_fragments(50_000), 50_000_usize.div_ceil(FRAG_DATA));
        assert_eq!(n_fragments(MAX_DATAGRAM), 45);
    }

    #[test]
    #[should_panic(expected = "datagram too large")]
    fn oversized_rejected() {
        let _ = n_fragments(MAX_DATAGRAM + 1);
    }

    #[test]
    fn payload_split_covers_everything() {
        for total in [0usize, 1, 100, FRAG_DATA, FRAG_DATA + 1, 8000, 50_000] {
            let n = n_fragments(total);
            let sum: usize = (0..n).map(|i| fragment_payload_len(total, i)).sum();
            assert_eq!(sum, total, "total {total}");
        }
    }

    #[test]
    fn frame_sizes() {
        // Empty datagram: 18 + 28 = 46 < 64, padded.
        assert_eq!(fragment_frame_bytes(0, 0), ETH_MIN_FRAME);
        // Full fragment: 1472 + 28 + 18 = 1518.
        assert_eq!(fragment_frame_bytes(3000, 0), 1518);
        assert_eq!(fragment_wire_bytes(3000, 0), 1538);
        // 1538 bytes at 100 Mbit/s = 123.04 us.
        assert_eq!(
            fragment_tx_time(3000, 0, 100_000_000),
            Duration::from_nanos(123_040)
        );
    }

    #[test]
    fn fragment_iter_is_complete_and_cheap() {
        let dg = Rc::new(Datagram {
            src_host: HostId(0),
            src_port: 1,
            dest: UdpDest::group(GroupId(0), 2),
            payload: Bytes::from(vec![0u8; 4000]),
            ip_id: 9,
            frag_data: FRAG_DATA,
        });
        let frames: Vec<_> = fragment(Rc::clone(&dg)).collect();
        assert_eq!(frames.len(), 3);
        assert!(frames[2].is_last());
        assert!(!frames[0].is_last());
        // All share the same allocation.
        assert!(Rc::ptr_eq(&frames[0].dg, &dg));
    }

    #[test]
    fn dest_helpers() {
        let u = UdpDest::host(HostId(3), 7);
        let m = UdpDest::group(GroupId(1), 8);
        assert!(!u.is_multicast());
        assert!(m.is_multicast());
        assert_eq!(u.port(), 7);
        assert_eq!(m.port(), 8);
    }
}
