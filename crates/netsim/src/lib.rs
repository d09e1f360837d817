//! A deterministic discrete-event simulator of Ethernet-connected clusters.
//!
//! `netsim` reproduces the testbed of *An Empirical Study of Reliable
//! Multicast Protocols over Ethernet-Connected Networks* (ICPP 2001): a
//! cluster of workstations joined by store-and-forward Ethernet switches
//! (or, for the shared-media study, a single CSMA/CD bus), running
//! user-space processes that exchange UDP datagrams over IP multicast.
//!
//! The simulator models exactly the quantities the paper identifies as
//! performance-relevant, and nothing more:
//!
//! * **Wire serialization** at a configurable link rate (default 100 Mbit/s)
//!   including Ethernet framing overhead (preamble, header, FCS, IFG,
//!   minimum frame size).
//! * **IP fragmentation**: UDP datagrams up to 64 KiB are carried as trains
//!   of MTU-sized fragments; losing any fragment loses the datagram.
//! * **Store-and-forward switches** with finite output queues (tail drop)
//!   and MAC-table forwarding; multicast frames are flooded (the behaviour
//!   of the paper's unmanaged 3Com switches) or group-forwarded when
//!   IGMP-snooping is enabled.
//! * **A shared CSMA/CD bus** with 1-persistent carrier sense, collision
//!   detection and truncated binary exponential backoff, for studying media
//!   access contention (paper §3, second bullet).
//! * **Finite UDP socket buffers** at the receivers — the paper's dominant
//!   loss mechanism ("packets are lost mainly due to the overflow of
//!   buffers at end hosts").
//! * **A serial per-host CPU** with configurable per-syscall, per-fragment
//!   and per-byte costs: ACK-implosion, user-level ACK relaying and the
//!   user-to-protocol-buffer copy all emerge from this one mechanism.
//!
//! Determinism: all randomness flows from one seeded generator, and the
//! event queue breaks time ties by insertion order, so a run is a pure
//! function of (topology, processes, seed).
//!
//! # Example
//!
//! ```
//! use netsim::{Sim, SimConfig, topology, process::{Process, Ctx, DatagramIn}, UdpDest, HostId};
//! use bytes::Bytes;
//! use rmwire::Time;
//!
//! struct Ping;
//! struct Pong;
//! impl Process for Ping {
//!     fn on_start(&mut self, ctx: &mut Ctx<'_>) {
//!         ctx.send(UdpDest::host(HostId(1), 9), Bytes::from_static(b"ping"));
//!     }
//!     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
//!         assert_eq!(&dg.payload[..], b"pong");
//!         ctx.stop_sim();
//!     }
//! }
//! impl Process for Pong {
//!     fn on_datagram(&mut self, ctx: &mut Ctx<'_>, dg: DatagramIn) {
//!         ctx.send(UdpDest::host(dg.src_host, 9), Bytes::from_static(b"pong"));
//!     }
//! }
//!
//! let mut sim = Sim::new(SimConfig::default(), 42);
//! let hosts = topology::single_switch(&mut sim, 2);
//! sim.spawn(hosts[0], 9, Box::new(Ping));
//! sim.spawn(hosts[1], 9, Box::new(Pong));
//! sim.run_until(Time::from_millis(100));
//! assert!(sim.now() > Time::ZERO);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bus;
pub mod config;
pub mod egress;
pub mod frame;
pub mod host;
pub mod ids;
pub mod process;
mod queue;
pub mod sim;
pub mod switch;
pub mod topology;
pub mod trace;

pub use config::{
    CpuLoadWindow, FabricKind, FaultPlan, ForgeFrame, GilbertElliott, HostFault, HostFaultKind,
    HostParams, LinkDownWindow, LinkParams, SimConfig, StormWindow, SwitchParams,
};
pub use frame::{Datagram, UdpDest, MTU};
pub use ids::{GroupId, HostId, SwitchId};
pub use sim::Sim;
pub use trace::{DropCause, TraceCounters};
