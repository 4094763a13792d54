//! The fixed, fast hasher behind every protocol map and set.
//!
//! Every diffusion reception probes a handful of per-node tables keyed by
//! [`NodeId`](wsn_net::NodeId), [`MsgId`](crate::MsgId) or `(NodeId, u32)`.
//! The std default, SipHash keyed from `RandomState`, resists hash flooding
//! by untrusted input at several times the cost of a multiply. These keys
//! are small integers the simulator generates itself, never outside input,
//! so a fixed multiplicative hash (the rustc "Fx" family) is enough.
//! Iteration order follows the hash; every consumer whose output depends
//! on order sorts or takes a total-order minimum first.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` with the fixed fast hasher.
pub(crate) type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A `HashSet` with the fixed fast hasher.
pub(crate) type FastSet<T> = HashSet<T, BuildHasherDefault<FxHasher>>;

/// Odd multiplier with well-spread bits (from rustc-hash 2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Fx-style hasher: add each word, multiply by [`K`]. `finish` rotates the
/// well-mixed high bits down, since the table indexes with the low bits.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = self.hash.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for FxHasher {
    /// Byte input (unused by this crate's keys) goes one byte per word.
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    /// The hot path: every key is built from `u32`s.
    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of(v: impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(v)
    }

    #[test]
    fn hashing_is_fixed_across_builders() {
        assert_eq!(hash_of((7u32, 9u32)), hash_of((7u32, 9u32)));
        assert_ne!(hash_of((7u32, 9u32)), hash_of((9u32, 7u32)));
    }

    #[test]
    fn small_keys_spread_over_low_bits() {
        // A table of 64 buckets indexes with the low 6 bits: 64 consecutive
        // node ids must not pile into a handful of buckets.
        let buckets: HashSet<u64> = (0u32..64).map(|n| hash_of(n) & 63).collect();
        assert!(buckets.len() >= 32, "only {} of 64 buckets", buckets.len());
    }
}
