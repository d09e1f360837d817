//! Fixed-size log-linear latency histogram.
//!
//! Latency samples must not live in a growing `Vec`: a harness buffer that
//! is reallocated or freed mid-run changes glibc's trim/mmap thresholds and
//! with them the measured program's page-fault rate (README, "quirks"). The
//! histogram is allocated once, before the first endpoint is built, and
//! never changes size: 128 linear sub-buckets per power of two, each with
//! a count and the sum of its samples. A percentile is reported as the mean
//! of the samples in the bucket that holds it — within the bucket's width,
//! 1/128 (< 1 %), of the exact one, and a number with all its digits rather
//! than one of a few hundred bucket bounds.

/// Sub-buckets per octave, as a power of two.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above `2^MAX_BITS` ns (~18 min) land in the last bucket.
const MAX_BITS: u32 = 40;
/// Bucket count: one exact bucket per value below `2·SUB`, then `SUB` per octave.
pub const BUCKETS: usize = ((MAX_BITS - SUB_BITS) as usize + 1) * SUB as usize;

/// Histogram of nanosecond samples.
pub struct LatencyHist {
    counts: Box<[u32; BUCKETS]>,
    sums: Box<[u64; BUCKETS]>,
    total: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < 2 * SUB {
        return v as usize;
    }
    let exp = 63 - v.leading_zeros(); // v in [2^exp, 2^(exp+1)), exp > SUB_BITS
    let sub = (v >> (exp - SUB_BITS)) - SUB;
    let idx = ((exp - SUB_BITS) as u64 * SUB + SUB + sub) as usize;
    idx.min(BUCKETS - 1)
}

/// `(lowest value, width)` of bucket `idx`.
#[cfg(test)]
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let octave = idx / SUB - 1; // exp - SUB_BITS
    let sub = idx % SUB;
    ((SUB + sub) << octave, 1 << octave)
}

impl LatencyHist {
    /// An empty histogram (the only allocations this type ever makes).
    pub fn new() -> Self {
        LatencyHist {
            counts: Box::new([0; BUCKETS]),
            sums: Box::new([0; BUCKETS]),
            total: 0,
        }
    }

    /// Record one sample in nanoseconds.
    #[inline]
    pub fn record(&mut self, ns: u64) {
        let idx = bucket_of(ns);
        self.add_bucket(idx, 1, ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile in nanoseconds (mean of the bucket that holds the
    /// sample of rank `ceil(q·n)`); 0.0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut cum = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            cum += u64::from(c);
            if cum >= rank {
                return self.sums[idx] as f64 / f64::from(c);
            }
        }
        unreachable!("rank is at most the total count")
    }

    /// The non-empty buckets as `(index, count, sum)`, for the child →
    /// parent pipe.
    pub fn sparse(&self) -> Vec<(usize, u32, u64)> {
        (0..BUCKETS)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| (i, self.counts[i], self.sums[i]))
            .collect()
    }

    /// Add `count` samples summing to `sum` to bucket `idx` (inverse of
    /// [`LatencyHist::sparse`]). Returns `false` when `idx` is out of range.
    pub fn add_bucket(&mut self, idx: usize, count: u32, sum: u64) -> bool {
        if idx >= BUCKETS {
            return false;
        }
        self.counts[idx] = self.counts[idx].saturating_add(count);
        self.sums[idx] = self.sums[idx].saturating_add(sum);
        self.total += u64::from(count);
        true
    }

    /// Addresses of the two tables: the end-of-run hygiene check compares
    /// them with the addresses taken before the first timed block.
    pub fn storage_addr(&self) -> (usize, usize) {
        (self.counts.as_ptr() as usize, self.sums.as_ptr() as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::SplitMix;

    #[test]
    fn buckets_tile_the_range() {
        let mut expect = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, expect, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            expect = lo + width;
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn percentiles_within_one_percent_of_exact_sort() {
        // 10^5 samples spread log-uniformly over 100 ns .. 100 ms, the range
        // the workloads' latencies cover.
        let mut rng = SplitMix::new(7);
        let mut exact: Vec<u64> = (0..100_000)
            .map(|_| {
                let u = rng.next_u64() as f64 / u64::MAX as f64;
                (100.0 * 10f64.powf(6.0 * u)) as u64
            })
            .collect();
        let mut h = LatencyHist::new();
        for &v in &exact {
            h.record(v);
        }
        exact.sort_unstable();
        for q in [0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).max(1);
            let want = exact[rank - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q}: histogram {got} vs exact {want}"
            );
        }
    }

    #[test]
    fn sparse_buckets_pool_samples_across_histograms() {
        let (mut a, mut b) = (LatencyHist::new(), LatencyHist::new());
        for v in [10, 10, 5_000, 123_456] {
            a.record(v);
        }
        for v in [7, 999_999_999] {
            b.record(v);
        }
        let mut pooled = LatencyHist::new();
        for (idx, c, sum) in a.sparse().into_iter().chain(b.sparse()) {
            assert!(pooled.add_bucket(idx, c, sum));
        }
        assert_eq!(pooled.count(), 6);
        assert_eq!(pooled.quantile(0.0), 7.0);
        assert_eq!(pooled.quantile(0.5), 10.0);
        assert_eq!(
            pooled.quantile(1.0),
            999_999_999.0,
            "a lone sample reads exactly"
        );
        assert_eq!(
            pooled.sparse().len(),
            5,
            "the two 10 ns samples share a bucket"
        );
        assert!(!pooled.add_bucket(BUCKETS, 1, 1));
    }
}
