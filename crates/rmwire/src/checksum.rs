//! Self-contained payload integrity checksum.
//!
//! CRC-32C (Castagnoli, polynomial `0x1EDC6F41`, reflected form
//! `0x82F63B78`) — the same polynomial used by iSCSI, SCTP and ext4 — over
//! tables generated at compile time, eight input bytes per step
//! (slicing-by-8). No external dependencies, no hardware intrinsics: the
//! simulator and the real-socket backend compute identical digests on
//! every platform.
//!
//! The wire integration lives one layer up: a packet whose header carries
//! [`crate::PacketFlags::CKSUM`] is followed by a big-endian `u32` CRC-32C
//! trailer computed over every preceding byte (header *and* body). The
//! flag bit was reserved in the original layout, so checksummed and
//! legacy packets coexist: an old decoder rejects the unknown bit (fails
//! closed), a new decoder accepts legacy packets unchanged.

/// The reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// 256-entry lookup table, one byte of input per step.
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
        table[i] = crc; // rmlint: allow(index-unguarded): i < 256 by the loop bound
        i += 1;
    }
    table
};

/// Slicing-by-8 tables: `SLICES[k][b]` is the CRC of byte `b` followed by
/// `k` zero bytes, so eight table reads advance the state by eight input
/// bytes. `SLICES[0]` is [`TABLE`].
const SLICES: [[u32; 256]; 8] = {
    let mut t = [TABLE; 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i]; // rmlint: allow(index-unguarded): 1 <= k < 8 and i < 256 by the loop bounds
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize]; // rmlint: allow(index-unguarded): same bounds; the & 0xff mask keeps the TABLE index below 256
            i += 1;
        }
        k += 1;
    }
    t
};

/// One byte of input per step: the tail of [`crc32c`], and the reference
/// its tests hold the sliced loop to.
fn bytewise(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        // rmlint: allow(index-unguarded): the & 0xff mask keeps the index below 256
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xff) as usize];
    }
    crc
}

/// CRC-32C digest of `data` (init `!0`, final xor `!0` — the standard
/// Castagnoli parameterisation).
pub fn crc32c(data: &[u8]) -> u32 {
    let (words, tail) = data.as_chunks::<8>();
    let mut crc = !0u32;
    for word in words {
        let w = u64::from_le_bytes(*word) ^ u64::from(crc);
        // The first byte in has seven more to pass over, the last none.
        crc = 0;
        for (k, slice) in SLICES.iter().rev().enumerate() {
            // rmlint: allow(index-unguarded): a `u8` index into 256 entries
            crc ^= slice[(w >> (8 * k)) as u8 as usize];
        }
    }
    !bytewise(crc, tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The sliced loop against the one-byte-per-step reference, for
        /// every length a datagram can have and every start alignment of
        /// the slice within a word.
        #[test]
        fn sliced_matches_bytewise(
            data in proptest::collection::vec(any::<u8>(), 0..=9_007),
            align in 0usize..8,
        ) {
            let d = data.get(align..).unwrap_or(&[]);
            prop_assert_eq!(crc32c(d), !bytewise(!0, d));
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
