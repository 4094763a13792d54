//! Log2-bucketed histogram: u64 buckets, no floats, O(1) observe.
//!
//! Bucket 0 holds zeros; bucket `k` (1 ≤ k < 47) holds values in
//! `[2^(k-1), 2^k - 1]`; the top bucket (47) saturates, holding everything
//! ≥ 2^46. `observe` is a `leading_zeros` + two integer adds, so it is safe
//! inside the zero-allocation dispatch loop.

/// Number of buckets in a [`Log2Histogram`].
pub const HIST_BUCKETS: usize = 48;

/// A fixed-size log2 histogram of `u64` samples.
///
/// Tracks per-bucket counts plus a total count and a saturating sum (the
/// sum backs the `mtotal` line's `hs` pairs; counts are exact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Histogram {
    /// An empty histogram.
    pub const fn new() -> Self {
        Self {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }

    /// The bucket a value lands in: 0 for 0, else `min(64 - lz(v), 47)`.
    #[inline]
    pub fn bucket_index(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
        }
    }

    /// Records one sample. Hot path: no floats, no allocation.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Folds `other` into `self`. Merging is associative and commutative
    /// (bucket-wise addition; the sum saturates identically regardless of
    /// grouping because `saturating_add` chains monotonically).
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Per-bucket counts, index 0..48.
    pub fn buckets(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Total number of observed samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of observed samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Resets all buckets and totals to zero.
    pub fn clear(&mut self) {
        *self = Self::new();
    }

    /// Inclusive value range covered by bucket `k`: `(lower, upper)`,
    /// with `upper = None` for the saturating top bucket.
    pub fn bucket_bounds(k: usize) -> (u64, Option<u64>) {
        assert!(k < HIST_BUCKETS);
        if k == 0 {
            (0, Some(0))
        } else if k == HIST_BUCKETS - 1 {
            (1u64 << (k - 1), None)
        } else {
            (1u64 << (k - 1), Some((1u64 << k) - 1))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        // Every power of two opens a new bucket; its predecessor closes one.
        for k in 1..46usize {
            let lo = 1u64 << (k - 1);
            let hi = (1u64 << k) - 1;
            assert_eq!(Log2Histogram::bucket_index(lo), k, "lower edge of {k}");
            assert_eq!(Log2Histogram::bucket_index(hi), k, "upper edge of {k}");
        }
    }

    #[test]
    fn top_bucket_saturates() {
        assert_eq!(Log2Histogram::bucket_index(1 << 46), HIST_BUCKETS - 1);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), HIST_BUCKETS - 1);
        let mut h = Log2Histogram::new();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        assert_eq!(h.buckets()[HIST_BUCKETS - 1], 2);
        assert_eq!(h.sum(), u64::MAX); // saturated, not wrapped
    }

    #[test]
    fn bounds_partition_the_domain() {
        let mut next = 0u64;
        for k in 0..HIST_BUCKETS {
            let (lo, hi) = Log2Histogram::bucket_bounds(k);
            assert_eq!(lo, next, "bucket {k} starts where {} ended", k.max(1) - 1);
            match hi {
                Some(h) => next = h + 1,
                None => assert_eq!(k, HIST_BUCKETS - 1),
            }
        }
    }

    #[test]
    fn merge_matches_combined_observation() {
        let vals_a = [0u64, 1, 5, 1000, 1 << 40];
        let vals_b = [2u64, 3, 900, u64::MAX];
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut both = Log2Histogram::new();
        for v in vals_a {
            a.observe(v);
            both.observe(v);
        }
        for v in vals_b {
            b.observe(v);
            both.observe(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }
}
