//! Receiver-side reassembly of a message from data packets.
//!
//! Under Go-Back-N only the in-order packet is accepted; under selective
//! repeat, packets within the receive window are buffered out of order.
//! When the buffer-allocation handshake ran, the message length is known
//! up front and the buffer is pre-allocated (the paper's §4 *Buffer
//! management*) — or taken over from an earlier delivery the application
//! has finished with ([`Assembly::recycling`]); baselines without the
//! handshake grow the buffer as in-order data arrives.

use crate::config::WindowDiscipline;
use bytes::Bytes;
use rmwire::RepairBody;

/// What [`Assembly::decode`] makes of a coded block: useless, decoded into
/// one packet's chunk, or undecodable.
pub(crate) type DecodeResult = Result<Option<(u32, Vec<u8>)>, ()>;

/// Result of offering one data packet to the assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// Accepted and the contiguous prefix advanced.
    InOrder,
    /// Accepted out of order and buffered (selective repeat only).
    Buffered,
    /// Already had it.
    Duplicate,
    /// Rejected: a gap under Go-Back-N, or outside the selective-repeat
    /// window.
    Rejected,
}

/// Reassembles one transfer's payload.
#[derive(Debug, Clone)]
pub struct Assembly {
    discipline: WindowDiscipline,
    packet_size: usize,
    /// Total packet count, known from the allocation handshake or learned
    /// from the LAST flag.
    k: Option<u32>,
    /// Pre-allocated when the message length is known.
    preallocated: bool,
    buf: Vec<u8>,
    /// Received bitmap (selective repeat).
    have: Vec<u64>,
    /// Contiguous prefix: every packet below this has been accepted.
    next: u32,
    /// Selective-repeat acceptance window in packets.
    window: u32,
}

impl Assembly {
    /// An assembly that knows the message size up front (handshake ran).
    pub fn preallocated(
        msg_len: usize,
        packet_size: usize,
        discipline: WindowDiscipline,
        window: u32,
    ) -> Self {
        Assembly::recycling(Vec::new(), msg_len, packet_size, discipline, window)
    }

    /// [`Assembly::preallocated`] over storage the caller already owns:
    /// `spare` becomes the message buffer when its capacity covers
    /// `msg_len`, and is dropped for a fresh zeroed allocation otherwise.
    ///
    /// A reused buffer is *not* cleared, and need not be: its old bytes are
    /// never readable. [`Assembly::chunk`] answers only for packets the
    /// bitmap/prefix marks as held, [`Assembly::into_bytes`] only once all
    /// `k` are, and accepting a packet overwrites its whole slot (`store`
    /// zero-pads a short chunk) — and the `k` slots tile `0..msg_len`.
    pub fn recycling(
        mut spare: Vec<u8>,
        msg_len: usize,
        packet_size: usize,
        discipline: WindowDiscipline,
        window: u32,
    ) -> Self {
        assert!(packet_size >= 1);
        let k = (msg_len.div_ceil(packet_size)).max(1) as u32;
        let buf = if spare.capacity() >= msg_len {
            // Within capacity: truncates, or zero-extends past the old length.
            spare.resize(msg_len, 0);
            spare
        } else {
            vec![0; msg_len]
        };
        Assembly {
            discipline,
            packet_size,
            k: Some(k),
            preallocated: true,
            buf,
            have: vec![0; (k as usize).div_ceil(64)],
            next: 0,
            window,
        }
    }

    /// An assembly that learns its size from the LAST flag (no handshake);
    /// Go-Back-N only.
    pub fn dynamic(packet_size: usize, discipline: WindowDiscipline) -> Self {
        assert_eq!(
            discipline,
            WindowDiscipline::GoBackN,
            "selective repeat requires the allocation handshake"
        );
        Assembly {
            discipline,
            packet_size,
            k: None,
            preallocated: false,
            buf: Vec::new(),
            have: Vec::new(),
            next: 0,
            window: 0,
        }
    }

    /// Expected packet count, if known yet.
    pub fn k(&self) -> Option<u32> {
        self.k
    }

    /// The contiguous prefix (receiver's `next_expected`).
    pub fn next_expected(&self) -> u32 {
        self.next
    }

    /// `true` once every packet has been accepted.
    pub fn complete(&self) -> bool {
        matches!(self.k, Some(k) if self.next == k)
    }

    /// Bytes currently pinned by this assembly (Table 1 accounting).
    pub fn buffered_bytes(&self) -> usize {
        self.buf.len()
    }

    /// The received bitmap words, for state digesting (`rmcheck explore`;
    /// only selective repeat ever sets bits beyond the prefix).
    pub fn have_words(&self) -> &[u64] {
        &self.have
    }

    /// Structural self-check of the reassembly discipline: Go-Back-N
    /// accepts only the in-order packet (the bitmap stays empty), while
    /// selective repeat keeps a contiguous set prefix below
    /// `next_expected` and buffers nothing at or beyond `next + window`.
    pub fn check(&self) -> Result<(), String> {
        if let Some(k) = self.k {
            if self.next > k {
                return Err(format!(
                    "assembly prefix {} beyond the {k}-packet transfer",
                    self.next
                ));
            }
        }
        match self.discipline {
            WindowDiscipline::GoBackN => {
                if self.have.iter().any(|&w| w != 0) {
                    return Err("Go-Back-N assembly buffered out of order".into());
                }
            }
            WindowDiscipline::SelectiveRepeat => {
                for s in 0..self.next {
                    if !self.bit(s) {
                        return Err(format!(
                            "selective-repeat prefix {} skips unreceived packet {s}",
                            self.next
                        ));
                    }
                }
                let hi = (self.have.len() as u32) * 64;
                for s in self.next.saturating_add(self.window)..hi {
                    if self.bit(s) {
                        return Err(format!(
                            "packet {s} buffered beyond the receive window ({} + {})",
                            self.next, self.window
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn bit(&self, seq: u32) -> bool {
        self.have
            .get((seq / 64) as usize)
            .is_some_and(|w| w & (1 << (seq % 64)) != 0)
    }

    fn set_bit(&mut self, seq: u32) {
        let idx = (seq / 64) as usize;
        if idx >= self.have.len() {
            self.have.resize(idx + 1, 0);
        }
        self.have[idx] |= 1 << (seq % 64);
    }

    /// `true` if packet `seq` has been accepted and its bytes are still
    /// readable from the buffer (coded-repair decoding peeks at held
    /// packets to XOR a missing one back out).
    pub fn holds(&self, seq: u32) -> bool {
        match self.discipline {
            WindowDiscipline::GoBackN => seq < self.next,
            WindowDiscipline::SelectiveRepeat => self.bit(seq),
        }
    }

    /// The chunk geometry: how many payload bytes packet `seq` carries in
    /// this transfer (`None` when `seq` is outside it, or when the
    /// geometry is unknown because no allocation handshake sized the
    /// buffer). The tail packet may be short or even empty.
    pub fn chunk_len(&self, seq: u32) -> Option<usize> {
        if !self.preallocated {
            return None;
        }
        let k = self.k?;
        if seq >= k {
            return None;
        }
        let off = (seq as usize).checked_mul(self.packet_size)?;
        Some(self.buf.len().saturating_sub(off).min(self.packet_size))
    }

    /// Read back the bytes of held packet `seq` (coded-repair decoding).
    /// `None` unless the packet is held in a preallocated buffer.
    pub fn chunk(&self, seq: u32) -> Option<&[u8]> {
        if !self.preallocated || !self.holds(seq) {
            return None;
        }
        let len = self.chunk_len(seq)?;
        let off = seq as usize * self.packet_size;
        Some(&self.buf[off..off + len])
    }

    /// Decode a coded block, `payload` being the XOR of the packets `body`
    /// names, against the packets held here. `Ok(None)`: none of them is
    /// missing, so the block is useless. `Ok(Some((seq, chunk)))`: exactly
    /// `seq` is, and `chunk` is its payload. `Err(())`: the block cannot
    /// be decoded. Shorter chunks count as zero-padded to `packet_size`.
    pub(crate) fn decode(&self, body: &RepairBody, payload: &[u8]) -> DecodeResult {
        // The XOR of chunks no longer than packet_size cannot be longer
        // than packet_size: hostile or corrupt.
        if payload.len() > self.packet_size {
            return Err(());
        }
        let mut missing = body.seqs().filter(|&s| !self.holds(s));
        let seq = match (missing.next(), missing.next()) {
            (None, _) => return Ok(None),
            (Some(seq), None) => seq,
            (Some(_), Some(_)) => return Err(()),
        };
        // A bitmap naming a packet beyond the transfer: hostile or corrupt.
        let want = self.chunk_len(seq).ok_or(())?;
        // rmlint: allow(hot-alloc): once per decoded repair
        let mut acc = vec![0u8; self.packet_size];
        acc[..payload.len()].copy_from_slice(payload);
        for s in body.seqs().filter(|&s| s != seq) {
            // A packet named but not readable (beyond the transfer, which
            // `fits` keeps from ever being held) fails the decode, never
            // the process.
            let held = self.chunk(s).ok_or(())?;
            for (a, &b) in acc.iter_mut().zip(held) {
                *a ^= b;
            }
        }
        acc.truncate(want);
        Ok(Some((seq, acc)))
    }

    /// Offer packet `seq` with payload `chunk`; `last` is the LAST flag.
    /// Once `k` is known a LAST flag that contradicts it is ignored: it is
    /// network input, and a replayed or forged copy can carry one.
    pub fn offer(&mut self, seq: u32, chunk: &[u8], last: bool) -> Offer {
        if last && self.k.is_none() {
            self.k = Some(seq + 1);
        }
        if seq < self.next {
            return Offer::Duplicate;
        }
        match self.discipline {
            WindowDiscipline::GoBackN => {
                if seq != self.next || !self.fits(seq, chunk) {
                    return Offer::Rejected;
                }
                self.store(seq, chunk);
                self.next += 1;
                Offer::InOrder
            }
            WindowDiscipline::SelectiveRepeat => {
                if seq >= self.next + self.window || !self.fits(seq, chunk) {
                    return Offer::Rejected;
                }
                if self.bit(seq) {
                    return Offer::Duplicate;
                }
                self.store(seq, chunk);
                self.set_bit(seq);
                if seq == self.next {
                    while self.bit(self.next) {
                        self.next += 1;
                    }
                    Offer::InOrder
                } else {
                    Offer::Buffered
                }
            }
        }
    }

    /// Does packet `seq` with this payload fit its slot of the allocation?
    /// A mismatch means a corrupt or forged packet (or allocation
    /// announcement): network input, so it must be rejectable, never a
    /// panic. A packet at or beyond `k` has no slot, even an empty one
    /// that would fit the buffer: held, it would carry the prefix past `k`.
    fn fits(&self, seq: u32, chunk: &[u8]) -> bool {
        if !self.preallocated {
            return true; // dynamic assembly grows
        }
        self.chunk_len(seq).is_some_and(|len| chunk.len() <= len)
    }

    fn store(&mut self, seq: u32, chunk: &[u8]) {
        if self.preallocated {
            let off = seq as usize * self.packet_size;
            let end = off + chunk.len();
            debug_assert!(end <= self.buf.len(), "offer() checked fits()");
            self.buf[off..end].copy_from_slice(chunk);
            // A chunk shorter than its slot (no honest sender emits one)
            // reads as zero-padded, whatever a recycled buffer held there.
            let slot_end = self.buf.len().min(off + self.packet_size);
            if let Some(pad) = self.buf.get_mut(end..slot_end) {
                pad.fill(0);
            }
        } else {
            debug_assert_eq!(seq, self.next, "dynamic assembly is in-order only");
            self.buf.extend_from_slice(chunk);
        }
    }

    /// Consume the assembly, yielding the message payload. Panics if
    /// incomplete.
    pub fn into_bytes(self) -> Bytes {
        assert!(self.complete(), "assembly incomplete");
        Bytes::from(self.buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gbn_in_order_only() {
        let mut a = Assembly::preallocated(10, 4, WindowDiscipline::GoBackN, 8);
        assert_eq!(a.k(), Some(3));
        assert_eq!(a.offer(1, b"xxxx", false), Offer::Rejected);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::Duplicate);
        assert_eq!(a.offer(1, b"bbbb", false), Offer::InOrder);
        assert!(!a.complete());
        assert_eq!(a.offer(2, b"cc", true), Offer::InOrder);
        assert!(a.complete());
        assert_eq!(&a.into_bytes()[..], b"aaaabbbbcc");
    }

    #[test]
    fn sr_buffers_out_of_order() {
        let mut a = Assembly::preallocated(12, 4, WindowDiscipline::SelectiveRepeat, 8);
        assert_eq!(a.offer(2, b"cccc", true), Offer::Buffered);
        assert_eq!(a.offer(2, b"cccc", true), Offer::Duplicate);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert_eq!(a.next_expected(), 1);
        assert_eq!(a.offer(1, b"bbbb", false), Offer::InOrder);
        assert_eq!(a.next_expected(), 3, "prefix jumps over buffered packet");
        assert!(a.complete());
        assert_eq!(&a.into_bytes()[..], b"aaaabbbbcccc");
    }

    #[test]
    fn sr_window_bound() {
        let mut a = Assembly::preallocated(400, 4, WindowDiscipline::SelectiveRepeat, 2);
        assert_eq!(a.offer(2, b"xxxx", false), Offer::Rejected);
        assert_eq!(a.offer(1, b"bbbb", false), Offer::Buffered);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert_eq!(a.next_expected(), 2);
        assert_eq!(a.offer(3, b"dddd", false), Offer::Buffered);
    }

    #[test]
    fn dynamic_learns_k_from_last() {
        let mut a = Assembly::dynamic(4, WindowDiscipline::GoBackN);
        assert_eq!(a.k(), None);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert!(!a.complete());
        assert_eq!(a.offer(1, b"bb", true), Offer::InOrder);
        assert_eq!(a.k(), Some(2));
        assert!(a.complete());
        assert_eq!(&a.into_bytes()[..], b"aaaabb");
    }

    #[test]
    fn empty_message_is_one_packet() {
        let mut a = Assembly::preallocated(0, 500, WindowDiscipline::GoBackN, 4);
        assert_eq!(a.k(), Some(1));
        assert_eq!(a.offer(0, b"", true), Offer::InOrder);
        assert!(a.complete());
        assert_eq!(a.into_bytes().len(), 0);
    }

    #[test]
    #[should_panic(expected = "selective repeat requires")]
    fn dynamic_sr_rejected() {
        let _ = Assembly::dynamic(4, WindowDiscipline::SelectiveRepeat);
    }

    #[test]
    fn held_chunk_read_back() {
        let mut a = Assembly::preallocated(10, 4, WindowDiscipline::SelectiveRepeat, 8);
        assert!(!a.holds(0));
        assert_eq!(a.offer(1, b"bbbb", false), Offer::Buffered);
        assert_eq!(a.offer(2, b"cc", true), Offer::Buffered);
        assert!(a.holds(1) && a.holds(2) && !a.holds(0));
        assert_eq!(a.chunk(1).unwrap(), b"bbbb");
        assert_eq!(a.chunk(2).unwrap(), b"cc");
        assert_eq!(a.chunk(0), None, "unheld packet is not readable");
        assert_eq!(a.chunk_len(0), Some(4));
        assert_eq!(a.chunk_len(2), Some(2), "tail packet is short");
        assert_eq!(a.chunk_len(3), None, "beyond the transfer");
        // GBN: the contiguous prefix is held.
        let mut g = Assembly::preallocated(8, 4, WindowDiscipline::GoBackN, 8);
        assert_eq!(g.offer(0, b"aaaa", false), Offer::InOrder);
        assert!(g.holds(0) && !g.holds(1));
        assert_eq!(g.chunk(0).unwrap(), b"aaaa");
    }

    #[test]
    fn recycled_buffer_never_exposes_its_old_bytes() {
        let stale = vec![0xee; 16];
        let ptr = stale.as_ptr();
        let mut a = Assembly::recycling(stale, 10, 4, WindowDiscipline::SelectiveRepeat, 8);
        assert_eq!(a.buffered_bytes(), 10);
        assert_eq!(a.chunk(0), None, "unheld slots are unreadable, not stale");
        assert_eq!(a.offer(2, b"cc", true), Offer::Buffered);
        assert_eq!((a.chunk(1), a.chunk(2)), (None, Some(&b"cc"[..])));
        // A short chunk claims its whole slot: the remainder reads as the
        // zero padding a fresh buffer would have had.
        assert_eq!(a.offer(1, b"b", false), Offer::Buffered);
        assert_eq!(a.chunk(1).unwrap(), b"b\0\0\0");
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        let out = a.into_bytes();
        assert_eq!(&out[..], b"aaaab\0\0\0cc");
        assert_eq!(out.as_ptr(), ptr, "assembled in the storage handed in");

        // Too small for the message: dropped for a fresh allocation.
        let a = Assembly::recycling(vec![0xee; 4], 10, 4, WindowDiscipline::GoBackN, 8);
        assert_eq!(a.buffered_bytes(), 10);
        assert_eq!(a.chunk(0), None);
    }

    #[test]
    fn packets_outside_their_slot_rejected() {
        let mut a = Assembly::preallocated(12, 4, WindowDiscipline::SelectiveRepeat, 8);
        // Empty, it would fit the buffer at offset 12, but there is no
        // packet 3: held, it would carry the prefix to 4 and the transfer
        // could never complete.
        assert_eq!(a.offer(3, b"", false), Offer::Rejected);
        // A chunk longer than its slot would spill into the next one.
        assert_eq!(a.offer(1, b"bbbb", false), Offer::Buffered);
        assert_eq!(a.offer(0, b"aaaaXXXX", false), Offer::Rejected);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert_eq!(a.offer(2, b"cccc", false), Offer::InOrder);
        assert_eq!(a.next_expected(), 3);
        assert_eq!(&a.into_bytes()[..], b"aaaabbbbcccc");
    }

    #[test]
    fn oversized_chunk_rejected_not_panicking() {
        let mut a = Assembly::preallocated(10, 4, WindowDiscipline::GoBackN, 8);
        assert_eq!(a.offer(0, b"aaaa", false), Offer::InOrder);
        assert_eq!(a.offer(1, b"aaaa", false), Offer::InOrder);
        // Tail packet may carry at most 2 bytes (10 - 8): an oversized
        // chunk is hostile/corrupt network input and must be rejected.
        assert_eq!(a.offer(2, b"aaaa", true), Offer::Rejected);
        assert_eq!(a.offer(2, b"aa", true), Offer::InOrder);
        assert!(a.complete());
    }
}
