//! Self-contained payload integrity checksum.
//!
//! CRC-32C (Castagnoli, polynomial `0x1EDC6F41`, reflected form
//! `0x82F63B78`) — the same polynomial used by iSCSI, SCTP and ext4 — over
//! tables generated at compile time. No external dependencies, no hardware
//! intrinsics: the simulator and the real-socket backend compute identical
//! digests on every platform.
//!
//! One slicing-by-8 loop is a single dependency chain (xor, eight table
//! loads, xor tree, next word) and waits on load latency, not on load
//! bandwidth. So an input is cut into blocks of `LANES` contiguous
//! *lanes* whose slicing-by-8 states advance in one loop body, their table
//! loads overlapping, and the lanes are joined with
//! `crc(A‖B) = shift(crc(A)) ^ crc(B)`, where `shift` advances a raw state
//! over `|B|` zero bytes: a linear map over GF(2), applied as four table
//! reads. A ladder of lane lengths (1 024, 256, 64, 16 B — each block four
//! times the next) takes an input apart like a base-4 number; what the
//! last rung leaves, and any input shorter than its 64 B block, runs the
//! one-lane loop.
//!
//! The wire integration lives one layer up: a packet whose header carries
//! [`crate::PacketFlags::CKSUM`] is followed by a big-endian `u32` CRC-32C
//! trailer computed over every preceding byte (header *and* body). The
//! flag bit was reserved in the original layout, so checksummed and
//! legacy packets coexist: an old decoder rejects the unknown bit (fails
//! closed), a new decoder accepts legacy packets unchanged.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table, one byte of input per step.
#[allow(clippy::indexing_slicing, reason = "i < 256 by the loop bound")]
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `SLICES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight table reads advance the state by eight input
/// bytes. `SLICES[0]` is [`TABLE`].
#[allow(
    clippy::indexing_slicing,
    reason = "1 <= k < 8 and i < 256 by the loop bounds; the & 0xff mask keeps the TABLE index below 256"
)]
static SLICES: [[u32; 256]; 8] = {
    let mut t = [TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Lanes advanced side by side in one block, picked by measurement
/// (CHANGES.md, PR 18). On 8 012 B, MB/s on a quiet core: one lane 1 650,
/// two 3 130, three 4 260, four 5 050, five 5 210, six 4 590 — and five
/// loses to four below 2 KB, where its wider blocks leave more to the
/// one-lane remainder.
const LANES: usize = 4;

/// The shortest input that fills a block of the narrowest rung; anything
/// shorter skips the ladder after this one compare.
const NARROWEST_BLOCK: usize = LANES * 16;

/// A linear map on raw CRC states over GF(2): entry `j` is the image of
/// state bit `j`.
type Matrix = [u32; 32];

#[allow(clippy::indexing_slicing, reason = "j < 32 by the loop bound")]
const fn apply(m: &Matrix, state: u32) -> u32 {
    let mut out = 0;
    let mut j = 0;
    while j < 32 {
        if (state >> j) & 1 != 0 {
            out ^= m[j];
        }
        j += 1;
    }
    out
}

/// Entry `[k][b]` is the raw state `b << 8k` advanced over a lane's length
/// of zero bytes; any state's image is the xor of its four bytes' entries.
type Shift = [[u32; 256]; 4];

/// The shift table for lanes of `lane` bytes (a power of two): the
/// one-zero-byte map squared `log2(lane)` times, each squaring doubling
/// the distance.
#[allow(
    clippy::indexing_slicing,
    reason = "j < 32, k < 4 and b < 256 by the loop bounds; the & 0xff mask keeps the TABLE index below 256"
)]
const fn shift_table(lane: usize) -> Shift {
    assert!(lane.is_power_of_two());
    let mut m: Matrix = [0; 32];
    let mut j = 0;
    while j < 32 {
        // What `bytewise` does to state bit `j` when the input byte is 0.
        let s = 1u32 << j;
        m[j] = (s >> 8) ^ TABLE[(s & 0xff) as usize];
        j += 1;
    }
    let mut covered = 1;
    while covered < lane {
        let half = m;
        let mut j = 0;
        while j < 32 {
            m[j] = apply(&half, half[j]);
            j += 1;
        }
        covered *= 2;
    }
    let mut table = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            table[k][b] = apply(&m, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    table
}

static SHIFT_1024: Shift = shift_table(1024);
static SHIFT_256: Shift = shift_table(256);
static SHIFT_64: Shift = shift_table(64);
static SHIFT_16: Shift = shift_table(16);

/// One table read: every lookup below goes through here.
#[allow(clippy::indexing_slicing, reason = "a `u8` index into 256 entries")]
fn lookup(table: &[u32; 256], byte: u8) -> u32 {
    table[usize::from(byte)]
}

/// One byte of input per step: the tail of [`crc32c`], and the reference
/// its tests hold the faster loops to.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc = (crc >> 8) ^ lookup(&TABLE, crc as u8 ^ b);
    }
    crc
}

/// Eight bytes of input through one lane (slicing-by-8).
fn step(crc: u32, word: &[u8; 8]) -> u32 {
    let w = u64::from_le_bytes(*word) ^ u64::from(crc);
    // The first byte in has seven more to pass over, the last none.
    let mut out = 0;
    for (k, slice) in SLICES.iter().rev().enumerate() {
        out ^= lookup(slice, (w >> (8 * k)) as u8);
    }
    out
}

/// `state` advanced over the zero bytes `table` was built for.
fn shift(table: &Shift, state: u32) -> u32 {
    let mut out = 0;
    for (t, byte) in table.iter().zip(state.to_le_bytes()) {
        out ^= lookup(t, byte);
    }
    out
}

/// One dependency chain, whole words then the bytewise tail: the path for
/// inputs below [`NARROWEST_BLOCK`] and for what the ladder leaves.
fn one_lane(mut crc: u32, data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    for word in words {
        crc = step(crc, word);
    }
    bytewise(crc, tail)
}

/// A lane as the words [`step`] takes.
fn words<const LANE: usize>(lane: &[u8; LANE]) -> &[[u8; 8]] {
    lane.as_chunks::<8>().0
}

/// One rung of the ladder: while `data` holds a block of [`LANES`] lanes
/// of `LANE` bytes each, advance the four lanes in one loop body and join
/// them into `crc`. `table` is the shift over `LANE` bytes.
fn rung<const LANE: usize>(crc: &mut u32, data: &mut &[u8], table: &Shift) {
    while let Some((block, rest)) = data.split_at_checked(LANES * LANE) {
        let ([a, b, c, d], []) = block.as_chunks::<LANE>() else {
            return;
        };
        // The incoming state rides lane `a`; the others start from zero,
        // which is what makes the join below linear.
        let (mut sa, mut sb, mut sc, mut sd) = (*crc, 0, 0, 0);
        for (((wa, wb), wc), wd) in words(a).iter().zip(words(b)).zip(words(c)).zip(words(d)) {
            sa = step(sa, wa);
            sb = step(sb, wb);
            sc = step(sc, wc);
            sd = step(sd, wd);
        }
        *crc = shift(table, shift(table, shift(table, sa) ^ sb) ^ sc) ^ sd;
        *data = rest;
    }
}

/// The ladder, widest rung first, then the one-lane remainder. Out of
/// line so that [`crc32c`]'s short-input path stays a leaf: ACK/NAK-sized
/// packets pay one compare, not this function's register spills.
#[inline(never)]
fn laddered(mut data: &[u8]) -> u32 {
    let mut crc = !0u32;
    rung::<1024>(&mut crc, &mut data, &SHIFT_1024);
    rung::<256>(&mut crc, &mut data, &SHIFT_256);
    rung::<64>(&mut crc, &mut data, &SHIFT_64);
    rung::<16>(&mut crc, &mut data, &SHIFT_16);
    one_lane(crc, data)
}

/// CRC-32C digest of `data` (init `!0`, final xor `!0` — the standard
/// Castagnoli parameterisation).
pub fn crc32c(data: &[u8]) -> u32 {
    if data.len() < NARROWEST_BLOCK {
        !one_lane(!0, data)
    } else {
        !laddered(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Lane length in bytes and its shift table, for every rung of the
    /// ladder [`laddered`] walks.
    const RUNGS: [(usize, &Shift); 4] = [
        (1024, &SHIFT_1024),
        (256, &SHIFT_256),
        (64, &SHIFT_64),
        (16, &SHIFT_16),
    ];

    /// SplitMix64 output as bytes: input the known answers below were
    /// recorded over.
    fn splitmix_bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut state = seed;
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            out.extend_from_slice(&(z ^ (z >> 31)).to_le_bytes());
        }
        out.truncate(len);
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The laddered and one-lane loops against the one-byte-per-step
        /// reference: lengths from nothing to seventeen of the widest
        /// blocks, so every rung runs, at every start alignment of the
        /// slice within a word.
        #[test]
        fn sliced_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..=70_007),
            align in 0usize..8,
        ) {
            let d = data.get(align..).unwrap_or(&[]);
            prop_assert_eq!(crc32c(d), !bytewise(!0, d));
        }

        /// `crc(A‖B) = shift(crc(A)) ^ crc(B)` on raw states, for `B` of
        /// each lane length and `A` of any length: the identity `rung`
        /// joins its lanes with.
        #[test]
        fn combine_identity(
            data in proptest::collection::vec(any::<u8>(), 1024..=4096),
            init in any::<u32>(),
        ) {
            for (lane, table) in RUNGS {
                let (a, b) = data.split_at(data.len() - lane);
                prop_assert_eq!(
                    bytewise(init, &data),
                    shift(table, bytewise(init, a)) ^ bytewise(0, b),
                    "lane {}", lane
                );
            }
        }
    }

    /// Each shift table proved exactly: it agrees with feeding the
    /// reference `lane` zero bytes on the 32 single-bit states, and both
    /// sides are linear over GF(2), so on all 2^32. A thousand random
    /// states ride along in case the linearity argument is what is wrong.
    #[test]
    fn shift_tables_match_zero_bytes() {
        let random = splitmix_bytes(11, 4 * 1000);
        let random = random
            .as_chunks::<4>()
            .0
            .iter()
            .map(|b| u32::from_le_bytes(*b));
        let states: Vec<u32> = (0..32).map(|bit| 1 << bit).chain(random).collect();
        for (lane, table) in RUNGS {
            let zeros = vec![0; lane];
            for &state in &states {
                assert_eq!(
                    shift(table, state),
                    bytewise(state, &zeros),
                    "lane {lane}, state {state:#010x}"
                );
            }
        }
    }

    /// Every length within 16 of one, two and three blocks of every rung:
    /// where a rung takes its last block and hands over to the next.
    #[test]
    fn laddered_matches_bytewise_around_block_boundaries() {
        let data = splitmix_bytes(7, 3 * LANES * 1024 + 16 + 7);
        for (lane, _) in RUNGS {
            for blocks in 1..=3 {
                let edge = blocks * LANES * lane;
                for len in edge - 16..=edge + 16 {
                    for start in 0..8 {
                        let d = &data[start..start + len];
                        assert_eq!(crc32c(d), !bytewise(!0, d), "bytes {start}..+{len}");
                    }
                }
            }
        }
    }

    /// Every length around the word boundary, where the sliced loop hands
    /// over to the bytewise tail.
    #[test]
    fn sliced_matches_bytewise_at_short_lengths() {
        let data: Vec<u8> = (0u8..40).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for start in 0..8 {
            for end in start..=data.len() {
                let d = &data[start..end];
                assert_eq!(crc32c(d), !bytewise(!0, d), "bytes {start}..{end}");
            }
        }
    }

    /// Known-answer tests from RFC 3720 appendix B.4 and the common
    /// CRC-32C check value.
    #[test]
    fn known_answers() {
        // The canonical CRC-32C check: crc("123456789").
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        // RFC 3720 B.4: 32 bytes of zeros.
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        // RFC 3720 B.4: 32 bytes of 0xFF.
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        // RFC 3720 B.4: bytes 0..=31 ascending.
        let asc: Vec<u8> = (0u8..32).collect();
        assert_eq!(crc32c(&asc), 0x46DD_794E);
        // Recorded from the one-lane `crc32c` this kernel replaced (commit
        // 2345b67), over SplitMix64 bytes seeded with the length: what is
        // sealed of an 8 000 B data packet, a word less, and a message.
        for (len, digest) in [
            (8_004, 0xA4E4_4468),
            (8_012, 0x89C0_5DA7),
            (500_000, 0x1DC6_2F20),
        ] {
            assert_eq!(crc32c(&splitmix_bytes(len as u64, len)), digest, "{len} B");
        }
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn single_bit_sensitivity() {
        // Every single-bit flip of a sample buffer changes the digest.
        let base = b"reliable multicast over ethernet".to_vec();
        let orig = crc32c(&base);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut mutated = base.clone();
                mutated[byte] ^= 1 << bit;
                assert_ne!(crc32c(&mutated), orig, "flip at {byte}.{bit} undetected");
            }
        }
    }
}
