//! The fixed taxonomy of profiled hot-path stages.
//!
//! A closed enum instead of interned strings keeps the per-sample path a
//! plain array index — no hashing, no registration race — and gives the
//! exposition formats a stable, documented ordering. Adding a stage is a
//! one-line change here plus a `span!` at the site; the snapshot,
//! exposition and report layers pick it up by name automatically.

/// One profiled hot-path stage. The wire name (`Stage::name`) is what
/// appears in exposition output and the `rmreport` hotspot table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Building outgoing datagrams (header + body encode, buffer fill).
    WireEncode,
    /// Parsing incoming datagrams into typed packets.
    WireDecode,
    /// CRC-32C integrity trailer: compute on seal, verify on parse.
    WireCrc,
    /// Sender window bookkeeping: ACK/NAK processing, slot release,
    /// retransmit scheduling.
    SenderWindow,
    /// Receiver-side data handling: duplicate filtering, chunk copy-in,
    /// in-order assembly and delivery.
    RecvAssembly,
    /// FEC sender coding: NAK aggregation, greedy XOR batching, parity
    /// runs.
    FecEncode,
    /// FEC receiver decode: coded-block geometry checks and XOR recovery.
    FecDecode,
    /// The netsim discrete-event core: one dequeued event dispatched.
    NetsimDispatch,
    /// udprun kernel socket transmit (`send_to`).
    UdpTx,
    /// udprun kernel socket receive (`recv_from`), successful reads only.
    UdpRx,
}

impl Stage {
    /// Number of stages (the registry's fixed table width).
    pub const COUNT: usize = 10;

    /// Every stage, in registry/exposition order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::WireEncode,
        Stage::WireDecode,
        Stage::WireCrc,
        Stage::SenderWindow,
        Stage::RecvAssembly,
        Stage::FecEncode,
        Stage::FecDecode,
        Stage::NetsimDispatch,
        Stage::UdpTx,
        Stage::UdpRx,
    ];

    /// The registry table index of this stage: its declaration
    /// position, which is also its position in [`Stage::ALL`].
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The stable wire name (`"wire.encode"`, `"udprun.rx"`, ...).
    pub fn name(self) -> &'static str {
        match self {
            Stage::WireEncode => "wire.encode",
            Stage::WireDecode => "wire.decode",
            Stage::WireCrc => "wire.crc",
            Stage::SenderWindow => "sender.window",
            Stage::RecvAssembly => "recv.assembly",
            Stage::FecEncode => "fec.encode",
            Stage::FecDecode => "fec.decode",
            Stage::NetsimDispatch => "netsim.dispatch",
            Stage::UdpTx => "udprun.tx",
            Stage::UdpRx => "udprun.rx",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_match_all_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        let total = names.len();
        assert_eq!(total, Stage::COUNT);
        names.dedup();
        assert_eq!(names.len(), total, "stage names must be unique");
    }
}
