//! Collection strategies: `vec` and `btree_set`.

use std::collections::BTreeSet;
use std::ops::{Range, RangeInclusive};

use crate::strategy::Strategy;
use crate::test_runner::TestRng;

/// An inclusive size band for generated collections.
#[derive(Debug, Clone, Copy)]
pub struct SizeRange {
    /// Smallest allowed length.
    pub min: usize,
    /// Largest allowed length.
    pub max: usize,
}

impl From<usize> for SizeRange {
    fn from(n: usize) -> Self {
        SizeRange { min: n, max: n }
    }
}

impl From<Range<usize>> for SizeRange {
    fn from(r: Range<usize>) -> Self {
        assert!(r.start < r.end, "empty size range");
        SizeRange {
            min: r.start,
            max: r.end - 1,
        }
    }
}

impl From<RangeInclusive<usize>> for SizeRange {
    fn from(r: RangeInclusive<usize>) -> Self {
        SizeRange {
            min: *r.start(),
            max: *r.end(),
        }
    }
}

impl SizeRange {
    fn pick(self, rng: &mut TestRng) -> usize {
        self.min + rng.below((self.max - self.min + 1) as u64) as usize
    }
}

/// The strategy returned by [`vec`](fn@vec).
#[derive(Debug, Clone)]
pub struct VecStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let n = self.size.pick(rng);
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}

/// Generates a `Vec` whose length lies in `size` and whose elements come
/// from `element`.
pub fn vec<S: Strategy>(element: S, size: impl Into<SizeRange>) -> VecStrategy<S> {
    VecStrategy {
        element,
        size: size.into(),
    }
}

/// The strategy returned by [`btree_set`].
#[derive(Debug, Clone)]
pub struct BTreeSetStrategy<S> {
    element: S,
    size: SizeRange,
}

impl<S: Strategy> Strategy for BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    type Value = BTreeSet<S::Value>;
    fn generate(&self, rng: &mut TestRng) -> BTreeSet<S::Value> {
        let target = self.size.pick(rng);
        let mut set = BTreeSet::new();
        // Duplicates shrink the yield; a bounded number of extra attempts
        // keeps generation total even when the element domain is smaller
        // than the requested size.
        let mut attempts = 0;
        while set.len() < target && attempts < 16 * (target + 1) {
            set.insert(self.element.generate(rng));
            attempts += 1;
        }
        set
    }
}

/// Generates a `BTreeSet` with (up to) a size in `size`, elements from
/// `element`.
pub fn btree_set<S: Strategy>(element: S, size: impl Into<SizeRange>) -> BTreeSetStrategy<S>
where
    S::Value: Ord,
{
    BTreeSetStrategy {
        element,
        size: size.into(),
    }
}
