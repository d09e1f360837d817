//! Reliable multicast protocol engines over unreliable datagram multicast.
//!
//! This crate implements the four families of reliable multicast protocols
//! studied in *An Empirical Study of Reliable Multicast Protocols over
//! Ethernet-Connected Networks* (Lane, Daniels, Yuan — ICPP 2001):
//!
//! * **ACK-based** ([`ProtocolKind::Ack`]): every receiver positively
//!   acknowledges every data packet; simple and low-memory but the sender
//!   must process `N` ACKs per packet (ACK implosion).
//! * **NAK-based with polling** ([`ProtocolKind::NakPolling`]): receivers
//!   send NAKs on sequence gaps; every `i`-th packet carries a POLL flag
//!   that receivers must acknowledge, letting the sender release buffers
//!   with `N/i` control packets per data packet.
//! * **Ring-based** ([`ProtocolKind::Ring`]): receivers take turns (packet
//!   `p` is acknowledged by receiver `p mod N`); an ACK for packet `p`
//!   releases packet `p − N`; the last packet is acknowledged by everyone.
//! * **Tree-based** ([`ProtocolKind::Tree`]): receivers form a logical
//!   flat tree (or binary tree) and aggregate acknowledgments up chains so
//!   the sender processes only `N/H` control packets, bounding simultaneous
//!   transmissions at the protocol level.
//!
//! All protocols share the paper's machinery: a two-round-trip
//! buffer-allocation handshake before each message, window-based flow
//! control with **Go-Back-N** (selective repeat available as an ablation),
//! sender-driven retransmission timers with retransmission suppression, and
//! multicast retransmission.
//!
//! The engines are **sans-io**: a [`Sender`] or [`Receiver`] never touches
//! sockets or clocks. You feed it datagrams and timeouts
//! ([`Endpoint::handle_datagram`], [`Endpoint::handle_timeout`]) and drain
//! what it wants to do ([`Endpoint::poll_transmit`],
//! [`Endpoint::poll_event`], [`Endpoint::poll_timeout`]). The same engine
//! instance therefore runs unmodified under the `netsim` discrete-event
//! simulator, over real UDP sockets (`udprun`), or inside the in-process
//! [`loopback`] test harness.
//!
//! # Quickstart
//!
//! ```
//! use rmcast::{loopback::Loopback, ProtocolConfig, ProtocolKind};
//! use bytes::Bytes;
//!
//! // One sender, four receivers, NAK-with-polling, 8 KB packets.
//! let cfg = ProtocolConfig::new(ProtocolKind::nak_polling(16), 8000, 20);
//! let mut net = Loopback::new(cfg, 4, 7);
//! net.send_message(Bytes::from(vec![42u8; 100_000]));
//! let delivered = net.run();
//! assert_eq!(delivered.len(), 4);
//! assert!(delivered.iter().all(|d| d.len() == 100_000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod assembler;
pub mod baseline;
pub mod config;
pub mod coverage;
pub mod endpoint;
pub mod error;
pub mod faults;
pub mod fec;
pub mod invariants;
pub mod loopback;
pub mod membership;
mod nak;
pub mod overload;
pub mod packet;
mod quarantine;
pub mod receiver;
pub mod sender;
pub mod stats;
pub mod tree;
pub mod window;

pub use config::{LivenessConfig, ProtocolConfig, ProtocolKind, TreeShape, WindowDiscipline};
pub use endpoint::{AppEvent, Dest, Endpoint, Transmit};
pub use error::SessionError;
pub use faults::Faults;
pub use overload::{AimdWindow, DupNakFilter, LoadScaler, OverloadConfig, TokenBucket};
pub use receiver::Receiver;
pub use sender::Sender;
pub use stats::Stats;

pub use rmtrace::{FlightDump, JsonlSink, MemorySink, NullSink, TraceEvent, TraceSink};
pub use rmwire::{Duration, GroupSpec, Rank, SeqNo, Time};
