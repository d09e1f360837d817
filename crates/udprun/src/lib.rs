//! Real-socket backend: the *same* sans-io protocol engines that run under
//! the `netsim` simulator, driven over kernel UDP sockets on localhost.
//!
//! This backend exists to demonstrate that the protocol implementations
//! are real network code, not simulator artifacts. Each endpoint owns a
//! real `UdpSocket`; every protocol datagram crosses the kernel.
//!
//! # Multicast
//!
//! True IP-multicast fan-out to many sockets on one port needs
//! `SO_REUSEADDR`, which `std::net` cannot set before binding; rather than
//! pull in another dependency, the group medium is a **software hub**
//! ([`hub`]): a relay socket standing in for the LAN's broadcast fabric.
//! A sender transmits one datagram to the hub; the hub forwards a copy to
//! every group member except the originator (identified by the protocol
//! header's source rank, exactly as a NIC filters by MAC). Unicast
//! traffic goes host-to-host directly.
//!
//! Where the host allows it, [`multicast::real_multicast_roundtrip`]
//! additionally exercises genuine `IP_ADD_MEMBERSHIP` delivery
//! (one receiver, no port sharing needed).
//!
//! ```no_run
//! use udprun::cluster::{run_cluster, ClusterConfig};
//! use rmcast::{ProtocolConfig, ProtocolKind};
//! use bytes::Bytes;
//!
//! let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(8), 4000, 10);
//! let out = run_cluster(ClusterConfig::new(cfg, 4), vec![Bytes::from(vec![7u8; 100_000])])
//!     .expect("cluster run");
//! assert_eq!(out.deliveries.len(), 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cluster;
mod flow;
pub mod hub;
pub mod multicast;
pub mod node;
pub mod stats;
