//! Exact-size lists for per-node protocol state.
//!
//! Every per-node table is a plain vector whose capacity equals its length
//! after every change: an insert grows it by exactly one slot, and entries
//! that expire or a node failure give their slots back. The tables are
//! short (a few origins, a few tree neighbors, a few cached rounds), so a
//! linear scan replaces the hash probe, and a table holds no more memory
//! than its entries need. [`HeapBytes`] counts both quantities, so
//! a test can check that they agree.
//!
//! A change moves the list into a new buffer of its new length and frees
//! the old one whole. Resizing buffers in place splits heap chunks, and
//! over a long run the remnants fragment the heap; `DESIGN.md` §23.1
//! gives the measurements.

use std::iter::Sum;
use std::mem::size_of;
use std::ops::Add;

/// Appends `x`, growing `list` by exactly one slot.
pub(crate) fn push<T>(list: &mut Vec<T>, x: T) {
    insert(list, list.len(), x);
}

/// Appends `n` copies of `x`, growing `list` by exactly `n` slots.
pub(crate) fn extend<T: Clone>(list: &mut Vec<T>, n: usize, x: T) {
    refit(list, n);
    list.resize(list.len() + n, x);
}

/// Inserts `x` at `index`, growing `list` by exactly one slot.
pub(crate) fn insert<T>(list: &mut Vec<T>, index: usize, x: T) {
    refit(list, 1);
    list.insert(index, x);
}

/// Sets `key`'s value in a list of pairs, appending the pair when the key
/// is absent.
pub(crate) fn set<K: PartialEq, V>(list: &mut Vec<(K, V)>, key: K, value: V) {
    match list.iter_mut().find(|(k, _)| *k == key) {
        Some((_, v)) => *v = value,
        None => push(list, (key, value)),
    }
}

/// Removes the element at `index` and frees its slot.
pub(crate) fn remove<T>(list: &mut Vec<T>, index: usize) {
    list.remove(index);
    refit(list, 0);
}

/// Keeps the elements `keep` accepts, in order, visiting each once, and
/// frees the slots of the others.
pub(crate) fn retain<T>(list: &mut Vec<T>, keep: impl FnMut(&T) -> bool) {
    let len = list.len();
    list.retain(keep);
    if list.len() < len {
        refit(list, 0);
    }
}

/// Moves `list` into a new buffer of exactly `extra` more slots than its
/// length, freeing the old buffer whole.
fn refit<T>(list: &mut Vec<T>, extra: usize) {
    let mut fresh = Vec::with_capacity(list.len() + extra);
    fresh.append(list);
    *list = fresh;
}

/// Removes every element and frees the buffer.
pub(crate) fn clear<T>(list: &mut Vec<T>) {
    *list = Vec::new();
}

/// Heap bytes of a table: what it holds, counted from capacities, and what
/// its live entries need, counted from lengths.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct HeapBytes {
    /// Bytes the table's buffers hold.
    pub(crate) held: usize,
    /// Bytes its live entries need.
    pub(crate) live: usize,
}

impl HeapBytes {
    /// The buffer of `list`.
    pub(crate) fn of<T>(list: &Vec<T>) -> Self {
        HeapBytes {
            held: list.capacity() * size_of::<T>(),
            live: list.len() * size_of::<T>(),
        }
    }

    /// A buffer that holds exactly what it needs: a boxed slice, or a box.
    pub(crate) fn exact(bytes: usize) -> Self {
        HeapBytes {
            held: bytes,
            live: bytes,
        }
    }
}

impl Add for HeapBytes {
    type Output = HeapBytes;

    fn add(self, other: HeapBytes) -> HeapBytes {
        HeapBytes {
            held: self.held + other.held,
            live: self.live + other.live,
        }
    }
}

impl Sum for HeapBytes {
    fn sum<I: Iterator<Item = HeapBytes>>(iter: I) -> HeapBytes {
        iter.fold(HeapBytes::default(), Add::add)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_change_leaves_the_capacity_at_the_length() {
        let mut list: Vec<u64> = Vec::new();
        for x in 0..5 {
            push(&mut list, x);
            assert_eq!(list.capacity(), list.len());
        }
        insert(&mut list, 0, 9);
        assert_eq!(list, [9, 0, 1, 2, 3, 4]);
        extend(&mut list, 2, 7);
        assert_eq!(list, [9, 0, 1, 2, 3, 4, 7, 7]);
        assert_eq!(list.capacity(), list.len());
        retain(&mut list, |&x| x != 7);
        let mut pairs = Vec::new();
        set(&mut pairs, 'a', 1);
        set(&mut pairs, 'b', 2);
        set(&mut pairs, 'a', 3);
        assert_eq!(pairs, [('a', 3), ('b', 2)]);
        assert_eq!(pairs.capacity(), 2);
        retain(&mut list, |&x| x % 2 == 0);
        assert_eq!(list, [0, 2, 4]);
        assert_eq!(list.capacity(), 3);
        remove(&mut list, 1);
        assert_eq!(list, [0, 4]);
        assert_eq!(list.capacity(), 2);
        assert_eq!(HeapBytes::of(&list), HeapBytes::exact(16));
        clear(&mut list);
        assert_eq!(HeapBytes::of(&list), HeapBytes::default());
    }

    #[test]
    fn spare_capacity_is_held_but_not_live() {
        let list: Vec<u32> = Vec::with_capacity(4);
        assert_eq!(HeapBytes::of(&list), HeapBytes { held: 16, live: 0 });
    }
}
