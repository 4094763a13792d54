//! Compact flag storage for the PHY's per-link reception state.
//!
//! The hot dispatch path sets or clears one reception flag per link a
//! frame crosses; a sender's links are consecutive addresses, so packing
//! the flags 64 to a word puts a whole span's flags in one or two words.
//! Per-node flags live in the PHY's `Radio` records instead, beside the
//! counters a hearer visit reads anyway. See `DESIGN.md` §14.4 and §15.2.

/// A fixed-length bitset indexed by link address.
#[derive(Debug, Clone)]
pub(crate) struct Bits {
    words: Vec<u64>,
    len: usize,
}

impl Bits {
    /// A bitset of `len` bits, all clear (no link starts receiving).
    pub(crate) fn new_all_clear(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
            len,
        }
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
    fn starts_all_clear_and_toggles() {
        let mut bits = Bits::new_all_clear(70);
        for i in 0..70 {
            assert!(!bits.get(i));
        }
        bits.set(0, true);
        bits.set(63, true);
        bits.set(64, true);
        assert!(bits.get(0));
        assert!(bits.get(63));
        assert!(bits.get(64));
        assert!(!bits.get(1));
        assert!(!bits.get(65));
        bits.set(63, false);
        assert!(!bits.get(63));
    }

    #[test]
    fn tail_word_is_masked() {
        // Setting every bit leaves the tail word's unused bits clear.
        let mut bits = Bits::new_all_clear(3);
        let mut exact = Bits::new_all_clear(64);
        for i in 0..3 {
            bits.set(i, true);
        }
        for i in 0..64 {
            exact.set(i, true);
        }
        assert_eq!(bits.words, vec![0b111]);
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
        let bits = Bits::new_all_clear(10);
        let _ = bits.get(10);
    }
}
