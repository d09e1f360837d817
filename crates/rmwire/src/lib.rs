//! Wire formats and shared vocabulary for the `ethermulticast` suite.
//!
//! This crate is the bottom of the dependency stack: it defines the types
//! that the protocol engines ([`rmcast`]), the Ethernet simulator
//! ([`netsim`]), the simulation harness and the real-socket backend all
//! agree on:
//!
//! * [`time`] — a nanosecond-resolution virtual [`time::Time`] instant and
//!   [`time::Duration`], used both by the discrete-event simulator and (via
//!   a monotonic-clock adapter) by the real-UDP backend.
//! * [`seq`] — wrapping 32-bit sequence numbers with a total "window" order,
//!   exactly the arithmetic a sliding-window protocol needs.
//! * [`header`] — the reliable-multicast packet header from the paper
//!   (§4 *Packet Header*): a one-byte packet type plus a four-byte sequence
//!   number, extended with the transfer id and sender rank that the paper
//!   carries implicitly in the UDP/IP headers.
//! * [`payload`] — typed encodings for the bodies whose fields are
//!   validated (buffer-allocation requests, admission handoffs, coded
//!   blocks).
//! * [`rank`] — participant identity within a static multicast group.
//!
//! All encodings are explicit big-endian byte layouts over [`bytes`]
//! buffers; no `serde` in the packet path (the hot path never allocates for
//! a header).
//!
//! [`rmcast`]: https://docs.rs/rmcast
//! [`netsim`]: https://docs.rs/netsim

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod checksum;
pub mod header;
pub mod payload;
pub mod rank;
pub mod seq;
pub mod time;

pub use checksum::crc32c;
pub use header::{Header, PacketFlags, PacketType, HEADER_LEN};
pub use payload::{AllocBody, RepairBody, SyncBody};
pub use rank::{GroupSpec, Rank};
pub use seq::SeqNo;
pub use time::{Duration, Time};

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer is shorter than the fixed part of the structure.
    Truncated {
        /// How many bytes were required.
        need: usize,
        /// How many bytes were available.
        have: usize,
    },
    /// The packet-type byte is not a known discriminant.
    BadPacketType(u8),
    /// A flags byte carries bits outside the defined set.
    BadFlags(u8),
    /// A length field is inconsistent with the buffer.
    BadLength {
        /// Declared length.
        declared: usize,
        /// Actual remaining bytes.
        actual: usize,
    },
    /// The packet carried [`PacketFlags::CKSUM`] but its CRC-32C trailer
    /// did not match the recomputed digest.
    ChecksumMismatch {
        /// Digest carried in the trailer.
        expected: u32,
        /// Digest recomputed over the received bytes.
        actual: u32,
    },
    /// The decoder required an integrity trailer but the packet carried
    /// none (integrity-enforcing configurations fail closed, so a flip
    /// that clears the CKSUM flag bit itself is still caught).
    ChecksumMissing,
    /// The body decoded cleanly but unconsumed bytes followed it.
    TrailingGarbage {
        /// How many bytes were left over.
        extra: usize,
    },
    /// A field decoded to a structurally impossible value.
    FieldRange {
        /// Which field.
        field: &'static str,
        /// The offending value (widened).
        value: u64,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { need, have } => {
                write!(f, "truncated wire data: need {need} bytes, have {have}")
            }
            WireError::BadPacketType(b) => write!(f, "unknown packet type byte {b:#04x}"),
            WireError::BadFlags(b) => write!(f, "unknown flag bits in {b:#04x}"),
            WireError::BadLength { declared, actual } => {
                write!(f, "bad length field: declared {declared}, actual {actual}")
            }
            WireError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "integrity checksum mismatch: trailer {expected:#010x}, computed {actual:#010x}"
                )
            }
            WireError::ChecksumMissing => {
                write!(f, "integrity checksum required but packet carries none")
            }
            WireError::TrailingGarbage { extra } => {
                write!(f, "trailing garbage: {extra} bytes after the body")
            }
            WireError::FieldRange { field, value } => {
                write!(f, "field {field} out of range: {value}")
            }
        }
    }
}

impl std::error::Error for WireError {}
