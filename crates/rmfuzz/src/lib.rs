//! Deterministic, structure-aware fuzzing of the multicast wire format.
//!
//! The threat model (docs/THREAT_MODEL.md) requires that arbitrary bytes
//! arriving on the wire never panic a decoder, never stall an endpoint's
//! liveness, and never inflate its state unboundedly. This crate supplies
//! the attacker half of that contract: a seeded [`Mutator`] that turns a
//! corpus of *valid* packet encodings into an endless stream of adversarial
//! ones — truncations, bit flips, splices of two packets, header field
//! swaps and pure garbage — reproducibly, byte for byte, from one `u64`
//! seed.
//!
//! Structure-aware beats purely random: a random 40-byte string almost
//! never has a valid packet type, so it only exercises the first bounds
//! check. Mutations of valid encodings keep most of the structure intact
//! and push the decoder deep into body parsing, checksum verification and
//! protocol state handling before the corruption bites.
//!
//! Consumers: `cargo test -p rmfuzz` (the million-packet never-panic
//! suites) and the `fuzz_decode` simrun experiment (the same stream,
//! reported as a table for EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::wildcard_enum_match_arm))]

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rmcast::packet;
use rmwire::{AllocBody, PacketFlags, Rank, RepairBody, SeqNo, SyncBody};

/// What one mutation did to its corpus input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MutationKind {
    /// The valid encoding, untouched (decoders must accept these).
    Passthrough,
    /// Cut the packet at a random byte boundary.
    Truncate,
    /// Flip 1–8 random bits anywhere in the packet.
    BitFlip,
    /// Head of one corpus packet glued to the tail of another.
    Splice,
    /// Overwrite one header field (type, flags, rank, transfer, seq) with
    /// a random value, leaving the rest intact.
    FieldSwap,
    /// Uniformly random bytes of random length (0–255).
    Garbage,
    /// Append 1–16 random trailing bytes to a valid encoding.
    Extend,
}

impl MutationKind {
    /// All kinds, for tabulating outcome distributions.
    pub const ALL: [MutationKind; 7] = [
        MutationKind::Passthrough,
        MutationKind::Truncate,
        MutationKind::BitFlip,
        MutationKind::Splice,
        MutationKind::FieldSwap,
        MutationKind::Garbage,
        MutationKind::Extend,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            MutationKind::Passthrough => "passthrough",
            MutationKind::Truncate => "truncate",
            MutationKind::BitFlip => "bitflip",
            MutationKind::Splice => "splice",
            MutationKind::FieldSwap => "fieldswap",
            MutationKind::Garbage => "garbage",
            MutationKind::Extend => "extend",
        }
    }
}

/// Build the corpus of valid packet encodings every mutation starts from:
/// at least one of every packet type and body shape, with and without the
/// CRC-32C integrity seal, spanning short control packets and multi-hundred
/// byte data payloads.
pub fn build_corpus() -> Vec<Vec<u8>> {
    let data_short: Vec<u8> = (0u8..32).collect();
    let data_long: Vec<u8> = (0..700).map(|i| (i as u8).wrapping_mul(31)).collect();
    let mut corpus: Vec<Vec<u8>> = vec![
        packet::encode_data(Rank(0), 3, SeqNo(7), PacketFlags::EMPTY, &data_short).to_vec(),
        packet::encode_data(Rank(0), 4, SeqNo(0), PacketFlags::LAST, &data_long).to_vec(),
        packet::encode_data(
            Rank(0),
            4,
            SeqNo(2),
            PacketFlags::RETX | PacketFlags::POLL,
            b"x",
        )
        .to_vec(),
        packet::encode_data(Rank(0), 9, SeqNo(1), PacketFlags::EMPTY, b"").to_vec(),
        packet::encode_alloc(
            Rank(0),
            5,
            PacketFlags::EMPTY,
            AllocBody {
                msg_len: 200_000,
                data_transfer: 6,
                packet_size: 1400,
            },
        )
        .to_vec(),
        packet::encode_ack(Rank(3), 5, SeqNo(17)).to_vec(),
        packet::encode_ack_epoch(Rank(3), 5, SeqNo(17), 2).to_vec(),
        packet::encode_nak(Rank(2), 5, SeqNo(9)).to_vec(),
        packet::encode_nak_epoch(Rank(2), 5, SeqNo(9), 2).to_vec(),
        packet::encode_join(Rank(4), 1).to_vec(),
        packet::encode_welcome(Rank(0), 2).to_vec(),
        packet::encode_leave(Rank(4), 2).to_vec(),
        packet::encode_heartbeat(Rank(1), 2).to_vec(),
        packet::encode_sync(
            Rank(0),
            SyncBody {
                epoch: 2,
                next_msg: 11,
                next_transfer: 40,
                flags: SyncBody::DETACHED_ROOT,
            },
        )
        .to_vec(),
        // Coded blocks (the fec family): a reactive repair over a sparse
        // seq set and a proactive parity over a dense run, so truncation
        // lands inside the 16-byte coded header and bit flips land on the
        // bitmap, the generation and the XOR payload alike.
        packet::encode_repair(
            Rank(0),
            7,
            RepairBody {
                base_seq: 3,
                generation: 5,
                bitmap: 0b1001_0001,
            },
            &data_short,
        )
        .to_vec(),
        packet::encode_parity(
            Rank(0),
            7,
            RepairBody {
                base_seq: 40,
                generation: 6,
                bitmap: 0b1111,
            },
            &data_long[..64],
        )
        .to_vec(),
    ];
    // Sealed twins: the integrity trailer must survive the same abuse.
    let sealed: Vec<Vec<u8>> = corpus.iter().map(|p| packet::seal(p).to_vec()).collect();
    corpus.extend(sealed);
    corpus
}

/// A deterministic stream of adversarial packets. Two mutators built with
/// the same seed emit identical `(kind, bytes)` sequences forever.
pub struct Mutator {
    rng: SmallRng,
    corpus: Vec<Vec<u8>>,
}

impl Mutator {
    /// A mutator over the standard [`build_corpus`] with this seed.
    pub fn new(seed: u64) -> Self {
        Mutator {
            rng: SmallRng::seed_from_u64(seed),
            corpus: build_corpus(),
        }
    }

    fn pick(&mut self) -> Vec<u8> {
        let i = self.rng.gen_range(0..self.corpus.len());
        self.corpus[i].clone()
    }

    /// The next adversarial packet in the stream.
    pub fn next_packet(&mut self) -> (MutationKind, Vec<u8>) {
        // Weights: bit flips dominate (they reach deepest), garbage and
        // passthrough anchor the two extremes.
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=7 => (MutationKind::Passthrough, self.pick()),
            8..=24 => {
                let mut p = self.pick();
                let cut = self.rng.gen_range(0..=p.len());
                p.truncate(cut);
                (MutationKind::Truncate, p)
            }
            25..=54 => {
                let mut p = self.pick();
                if !p.is_empty() {
                    let flips = self.rng.gen_range(1..=8usize);
                    for _ in 0..flips {
                        let at = self.rng.gen_range(0..p.len());
                        let bit = self.rng.gen_range(0u8..8);
                        p[at] ^= 1 << bit;
                    }
                }
                (MutationKind::BitFlip, p)
            }
            55..=66 => {
                let a = self.pick();
                let b = self.pick();
                let cut_a = self.rng.gen_range(0..=a.len());
                let cut_b = self.rng.gen_range(0..=b.len());
                let mut p = a[..cut_a].to_vec();
                p.extend_from_slice(&b[cut_b..]);
                (MutationKind::Splice, p)
            }
            67..=78 => {
                let mut p = self.pick();
                // Header layout: ptype u8, flags u8, src_rank u16,
                // transfer u32, seq u32 — overwrite one field wholesale.
                let field = self.rng.gen_range(0..5u32);
                let (at, len) = match field {
                    0 => (0usize, 1usize),
                    1 => (1, 1),
                    2 => (2, 2),
                    3 => (4, 4),
                    _ => (8, 4),
                };
                for i in at..(at + len).min(p.len()) {
                    p[i] = self.rng.gen_range(0..=255u32) as u8;
                }
                (MutationKind::FieldSwap, p)
            }
            79..=90 => {
                let len = self.rng.gen_range(0..256usize);
                let p = (0..len)
                    .map(|_| self.rng.gen_range(0..=255u32) as u8)
                    .collect();
                (MutationKind::Garbage, p)
            }
            _ => {
                let mut p = self.pick();
                let extra = self.rng.gen_range(1..=16usize);
                for _ in 0..extra {
                    p.push(self.rng.gen_range(0..=255u32) as u8);
                }
                (MutationKind::Extend, p)
            }
        }
    }
}

/// Which storm shape a [`StormGen`] packet came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StormKind {
    /// A NAK for one of a handful of hot `(transfer, seq)` keys — repeated
    /// endlessly, the duplicate-NAK flood of an ACK/NAK implosion.
    DupNak,
    /// An ACK stamped with a stale membership epoch.
    StaleEpochAck,
    /// A NAK stamped with a stale membership epoch.
    StaleEpochNak,
}

/// A deterministic feedback *storm*: endless floods of **well-formed**
/// control packets — the adversarial complement of [`Mutator`]'s malformed
/// stream. Where the mutator attacks the decoders, the storm attacks the
/// overload path behind them: duplicate NAKs for a few hot keys must be
/// collapsed rather than each triggering retransmission bookkeeping, and
/// bursts of stale-epoch feedback must be shed or ignored, never trusted.
/// Same-seed streams are identical byte for byte.
pub struct StormGen {
    rng: SmallRng,
}

impl StormGen {
    /// A storm stream with this seed.
    pub fn new(seed: u64) -> Self {
        StormGen {
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The next storm packet. The key space is deliberately tiny (a few
    /// transfers, a few sequence numbers, two ranks) so the stream is
    /// overwhelmingly duplicates of earlier feedback — the worst case for
    /// retransmission bookkeeping.
    pub fn next_packet(&mut self) -> (StormKind, Vec<u8>) {
        let rank = Rank(self.rng.gen_range(1..=2u16));
        let transfer = self.rng.gen_range(0..3u32);
        let seq = SeqNo(self.rng.gen_range(0..6u32));
        let stale_epoch = self.rng.gen_range(0..2u32);
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            0..=59 => (
                StormKind::DupNak,
                packet::encode_nak(rank, transfer, seq).to_vec(),
            ),
            60..=79 => (
                StormKind::StaleEpochAck,
                packet::encode_ack_epoch(rank, transfer, seq, stale_epoch).to_vec(),
            ),
            _ => (
                StormKind::StaleEpochNak,
                packet::encode_nak_epoch(rank, transfer, seq, stale_epoch).to_vec(),
            ),
        }
    }
}

/// Which lie a [`CodedAbuseGen`] packet tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodedAbuseKind {
    /// A repair whose bitmap names only sequence 0 of the live transfer —
    /// a packet the receiver already holds, so the block is useless. The
    /// payload is garbage: accepting it into the assembly would be a
    /// wrong-bytes escape.
    HeldOnly,
    /// A repair claiming all 64 bitmap positions with a garbage payload.
    /// Any transfer shorter than 63 packets makes ≥ 2 of the named
    /// sequences unavailable, so the only sound verdict is undecodable.
    WideLie,
    /// A replay: generation 0, which every live gate has already passed.
    ReplayedGeneration,
    /// Generation griefing: `u32::MAX` slams the replay gate shut, so the
    /// sender's genuine repairs all arrive "replayed" and recovery must
    /// survive on plain retransmission.
    FutureGeneration,
    /// Bitmap with bit 0 clear — no legitimate encoder emits one, so the
    /// strict decoder must reject it before protocol state is touched.
    NonCanonicalBitmap,
    /// A coded header with zero payload bytes: unencodable, reject.
    EmptyPayload,
    /// `base_seq + span` overflows sequence space: reject at decode.
    BaseOverflow,
    /// XOR payload longer than any chunk can be: undecodable.
    OversizedPayload,
    /// A structurally perfect parity block for a transfer that was never
    /// announced: unattributable, discard.
    UnknownTransfer,
}

impl CodedAbuseKind {
    /// All kinds, for coverage assertions.
    pub const ALL: [CodedAbuseKind; 9] = [
        CodedAbuseKind::HeldOnly,
        CodedAbuseKind::WideLie,
        CodedAbuseKind::ReplayedGeneration,
        CodedAbuseKind::FutureGeneration,
        CodedAbuseKind::NonCanonicalBitmap,
        CodedAbuseKind::EmptyPayload,
        CodedAbuseKind::BaseOverflow,
        CodedAbuseKind::OversizedPayload,
        CodedAbuseKind::UnknownTransfer,
    ];
}

/// A deterministic stream of adversarial REPAIR/PARITY blocks aimed at one
/// live transfer: lying bitmaps, replayed and griefed generations, and
/// malformed coded headers. The complement of [`Mutator`] for the fec
/// family — every packet is either rejected by the strict decoder or
/// reaches the decode path carrying a lie the receiver must classify as
/// useless/undecodable/replayed, never decode into the assembly.
///
/// Several kinds bypass `packet::encode_repair` (its debug assertions
/// enforce exactly the invariants being attacked) and hand-roll the bytes.
pub struct CodedAbuseGen {
    rng: SmallRng,
    next_gen: u32,
}

impl CodedAbuseGen {
    /// An abuse stream with this seed.
    pub fn new(seed: u64) -> Self {
        CodedAbuseGen {
            rng: SmallRng::seed_from_u64(seed),
            // Far above any honest sender's generation counter, strictly
            // increasing so each lie passes the replay gate and must be
            // classified on its merits (rather than self-replaying).
            next_gen: 1_000_000,
        }
    }

    /// Hand-rolled coded packet: 12-byte header (big-endian), 16-byte
    /// coded body, raw payload — no encoder-side invariants enforced.
    fn raw_coded(
        ptype: u8,
        transfer: u32,
        base: u32,
        generation: u32,
        bitmap: u64,
        payload: &[u8],
    ) -> Vec<u8> {
        let mut p = Vec::with_capacity(28 + payload.len());
        p.push(ptype);
        p.push(0); // flags
        p.extend_from_slice(&0u16.to_be_bytes()); // src_rank: the sender
        p.extend_from_slice(&transfer.to_be_bytes());
        p.extend_from_slice(&base.to_be_bytes()); // header seq mirrors base
        p.extend_from_slice(&base.to_be_bytes());
        p.extend_from_slice(&generation.to_be_bytes());
        p.extend_from_slice(&bitmap.to_be_bytes());
        p.extend_from_slice(payload);
        p
    }

    fn garbage(&mut self, len: usize) -> Vec<u8> {
        (0..len)
            .map(|_| self.rng.gen_range(0..=255u32) as u8)
            .collect()
    }

    /// The next abuse packet against `transfer` (chunks of `packet_size`
    /// bytes). `HeldOnly` blocks name sequence 0: only inject them once
    /// the receiver demonstrably holds it, or the garbage payload would
    /// "decode" — which is precisely the escape the suite must rule out.
    pub fn next_packet(&mut self, transfer: u32, packet_size: usize) -> (CodedAbuseKind, Vec<u8>) {
        let kind = CodedAbuseKind::ALL[self.rng.gen_range(0..CodedAbuseKind::ALL.len())];
        let gen_live = self.next_gen;
        self.next_gen += 1;
        let repair = 9u8;
        let parity = 10u8;
        let bytes = match kind {
            CodedAbuseKind::HeldOnly => {
                let g = self.garbage(packet_size);
                Self::raw_coded(repair, transfer, 0, gen_live, 1, &g)
            }
            CodedAbuseKind::WideLie => {
                let g = self.garbage(packet_size);
                Self::raw_coded(repair, transfer, 0, gen_live, u64::MAX, &g)
            }
            CodedAbuseKind::ReplayedGeneration => {
                let g = self.garbage(packet_size);
                Self::raw_coded(repair, transfer, 0, 0, u64::MAX, &g)
            }
            CodedAbuseKind::FutureGeneration => {
                let g = self.garbage(packet_size);
                Self::raw_coded(parity, transfer, 0, u32::MAX, u64::MAX, &g)
            }
            CodedAbuseKind::NonCanonicalBitmap => {
                let g = self.garbage(packet_size);
                Self::raw_coded(repair, transfer, 0, gen_live, 0b10, &g)
            }
            CodedAbuseKind::EmptyPayload => Self::raw_coded(repair, transfer, 0, gen_live, 1, &[]),
            CodedAbuseKind::BaseOverflow => {
                let g = self.garbage(packet_size);
                Self::raw_coded(repair, transfer, u32::MAX, gen_live, 0b11, &g)
            }
            CodedAbuseKind::OversizedPayload => {
                let g = self.garbage(packet_size * 2 + 1);
                Self::raw_coded(repair, transfer, 0, gen_live, 1, &g)
            }
            CodedAbuseKind::UnknownTransfer => {
                let g = self.garbage(packet_size);
                Self::raw_coded(parity, 0xDEAD_0001, 0, gen_live, 0b111, &g)
            }
        };
        (kind, bytes)
    }
}

/// Outcome tally of a fuzz run, per mutation kind.
#[derive(Debug, Default, Clone)]
pub struct FuzzTally {
    /// `(kind, decoded_ok, rejected)` in [`MutationKind::ALL`] order.
    pub per_kind: Vec<(MutationKind, u64, u64)>,
}

impl FuzzTally {
    /// An empty tally with one row per mutation kind.
    pub fn new() -> Self {
        FuzzTally {
            per_kind: MutationKind::ALL.iter().map(|&k| (k, 0, 0)).collect(),
        }
    }

    /// Count one packet of `kind` that decoded (`ok`) or was rejected.
    pub fn count(&mut self, kind: MutationKind, ok: bool) {
        let row = self
            .per_kind
            .iter_mut()
            .find(|(k, _, _)| *k == kind)
            .expect("kind registered");
        if ok {
            row.1 += 1;
        } else {
            row.2 += 1;
        }
    }

    /// Total packets tallied.
    pub fn total(&self) -> u64 {
        self.per_kind.iter().map(|&(_, a, b)| a + b).sum()
    }
}

/// Run `iters` mutated packets through both decode modes (plain and
/// integrity-enforcing). Returns the tally; panics only if a decoder does.
pub fn fuzz_decode(seed: u64, iters: u64) -> FuzzTally {
    let mut m = Mutator::new(seed);
    let mut tally = FuzzTally::new();
    for i in 0..iters {
        let (kind, bytes) = m.next_packet();
        let strict = i % 2 == 1;
        let ok = packet::Packet::parse_checked(&bytes, strict).is_ok();
        tally.count(kind, ok);
    }
    tally
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_valid_and_diverse() {
        let corpus = build_corpus();
        assert!(corpus.len() >= 20, "need sealed and unsealed of each type");
        for (i, p) in corpus.iter().enumerate() {
            assert!(
                packet::Packet::parse_checked(p, false).is_ok(),
                "corpus entry {i} must decode cleanly"
            );
        }
        // The sealed half must also pass strict (integrity-required) mode.
        let sealed_ok = corpus
            .iter()
            .filter(|p| packet::Packet::parse_checked(p, true).is_ok())
            .count();
        assert!(sealed_ok >= corpus.len() / 2);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Mutator::new(0xFEED);
        let mut b = Mutator::new(0xFEED);
        for _ in 0..10_000 {
            assert_eq!(a.next_packet(), b.next_packet());
        }
        let mut c = Mutator::new(0xFEED + 1);
        let diverged = (0..100).any(|_| a.next_packet() != c.next_packet());
        assert!(diverged, "different seeds must diverge");
    }

    #[test]
    fn every_mutation_kind_appears() {
        let mut m = Mutator::new(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2_000 {
            seen.insert(m.next_packet().0);
        }
        for k in MutationKind::ALL {
            assert!(seen.contains(&k), "{} never generated", k.name());
        }
    }

    #[test]
    fn tally_accumulates() {
        let mut t = FuzzTally::new();
        t.count(MutationKind::Garbage, false);
        t.count(MutationKind::Passthrough, true);
        assert_eq!(t.total(), 2);
    }
}
