//! Compact flag storage for the struct-of-arrays engine state.
//!
//! The hot dispatch path tests `up` for the sender and every hearer of each
//! frame, and sets or clears one reception flag per link it crosses;
//! packing the flags 64 to a word keeps them resident in a few cache lines
//! even at 100k nodes (100k nodes = ~1.5 KiB of bits vs 100 KiB of padded
//! `bool`s inside an array-of-structs). See `DESIGN.md` §16 and §19.

/// A fixed-length bitset indexed by node id or by link address.
#[derive(Debug, Clone)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// A bitset of `len` bits, all set (every node starts powered).
    pub(crate) fn new_all_set(len: usize) -> Self {
        let mut words = vec![u64::MAX; len.div_ceil(64)];
        // Keep the tail word clean so whole-word operations stay exact.
        if !len.is_multiple_of(64) {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << (len % 64)) - 1;
            }
        }
        Bits { words, len }
    }

    /// A bitset of `len` bits, all clear (no link starts receiving).
    pub(crate) fn new_all_clear(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The number of bits.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Reads bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Writes bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, value: bool) {
        assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        if value {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Clears bit `i`, returning whether it was set.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[inline]
    pub(crate) fn take(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} out of bounds ({})", self.len);
        let mask = 1u64 << (i % 64);
        let word = &mut self.words[i / 64];
        let was = *word & mask != 0;
        *word &= !mask;
        was
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_all_set_and_toggles() {
        let mut bits = Bits::new_all_set(70);
        assert_eq!(bits.len(), 70);
        for i in 0..70 {
            assert!(bits.get(i));
        }
        bits.set(0, false);
        bits.set(63, false);
        bits.set(64, false);
        assert!(!bits.get(0));
        assert!(!bits.get(63));
        assert!(!bits.get(64));
        assert!(bits.get(1));
        assert!(bits.get(65));
        bits.set(63, true);
        assert!(bits.get(63));
    }

    #[test]
    fn tail_word_is_masked() {
        let bits = Bits::new_all_set(3);
        assert_eq!(bits.words, vec![0b111]);
        let exact = Bits::new_all_set(64);
        assert_eq!(exact.words, vec![u64::MAX]);
    }

    #[test]
    fn take_clears_and_reports() {
        let mut bits = Bits::new_all_clear(130);
        assert!(!bits.take(129));
        bits.set(129, true);
        bits.set(5, true);
        assert!(bits.take(129));
        assert!(!bits.get(129));
        assert!(!bits.take(129));
        assert!(bits.get(5), "neighbouring bits are untouched");
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        let bits = Bits::new_all_set(10);
        let _ = bits.get(10);
    }
}
