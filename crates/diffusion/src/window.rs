//! Duplicate suppression by per-origin sliding windows.
//!
//! Interests are keyed by `(sink, seq)` and data items by `(source, round)`.
//! Origins are few (the sinks and sources of a task), and each origin's
//! sequence numbers only grow, so a node keeps one window per origin instead
//! of a set of every key it ever saw: the highest sequence number seen and a
//! bitmap of the [`DEDUP_WINDOW`] numbers at and below it. This is the
//! anti-replay window of IPsec (RFC 4303 §3.4.3). Memory is bounded by the
//! number of origins, not by simulated time.
//!
//! Inside its width a window answers exactly as the set did: a number above
//! the highest is new, and a number within the bitmap is new unless its bit
//! is set. The one difference is an arrival older than the window, which a
//! window can no longer tell apart from a duplicate: it answers "seen" and
//! counts the arrival as *stale*. A run that counts no stale arrival made
//! every dedup decision exactly as the set would have.
//!
//! The windows are one exact-size list: a node holds one 16-byte window per
//! origin it heard from, and nothing more. Diffusion keeps one set of
//! windows for interests and one for data items; the flooding baseline one
//! for the events it floods.

use wsn_net::NodeId;

use crate::exact::{self, HeapBytes};

/// The width of each dedup window, in sequence numbers: one bit of a `u64`
/// bitmap per number.
pub const DEDUP_WINDOW: u32 = u64::BITS;

/// One origin's window: bit `d` of `bits` is set when `top - d` was seen.
#[derive(Debug, Clone, Copy)]
struct Window {
    origin: NodeId,
    top: u32,
    bits: u64,
}

/// The dedup state for one key space: one window per origin heard from,
/// plus the count of stale arrivals.
///
/// # Examples
///
/// ```
/// use wsn_diffusion::{DedupWindows, DEDUP_WINDOW};
/// use wsn_net::NodeId;
///
/// let mut seen = DedupWindows::default();
/// assert!(seen.insert((NodeId(3), 100)));
/// assert!(!seen.insert((NodeId(3), 100)));
/// assert!(seen.insert((NodeId(3), 99)));
/// // Older than the window: answered "seen" and counted.
/// assert!(!seen.insert((NodeId(3), 100 - DEDUP_WINDOW)));
/// assert_eq!(seen.stale(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DedupWindows {
    windows: Vec<Window>,
    stale: u64,
}

impl DedupWindows {
    /// Records `(origin, seq)`; `true` the first time it is seen, like
    /// `HashSet::insert`. An arrival more than [`DEDUP_WINDOW`] − 1 below
    /// the origin's highest number answers `false` and counts as stale.
    pub fn insert(&mut self, (origin, seq): (NodeId, u32)) -> bool {
        let Some(w) = self.windows.iter_mut().find(|w| w.origin == origin) else {
            let w = Window {
                origin,
                top: seq,
                bits: 1,
            };
            exact::push(&mut self.windows, w);
            return true;
        };
        if seq > w.top {
            let shift = seq - w.top;
            w.bits = w.bits.checked_shl(shift).unwrap_or(0) | 1;
            w.top = seq;
            return true;
        }
        let age = w.top - seq;
        if age >= DEDUP_WINDOW {
            self.stale += 1;
            return false;
        }
        let bit = 1u64 << age;
        let new = w.bits & bit == 0;
        w.bits |= bit;
        new
    }

    /// The number of windows held: one per origin heard from.
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether no origin has been heard from.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Arrivals answered "seen" only because they were older than their
    /// window. Survives [`clear`](Self::clear): it measures the run, not
    /// the node's state.
    pub fn stale(&self) -> u64 {
        self.stale
    }

    /// Forgets every window (node failure).
    pub fn clear(&mut self) {
        exact::clear(&mut self.windows);
    }

    /// The heap bytes the windows hold and need.
    pub(crate) fn heap_bytes(&self) -> HeapBytes {
        HeapBytes::of(&self.windows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origins_are_independent() {
        let mut w = DedupWindows::default();
        assert!(w.insert((NodeId(1), 5)));
        assert!(w.insert((NodeId(2), 5)));
        assert!(!w.insert((NodeId(1), 5)));
        assert_eq!(w.len(), 2);
        assert_eq!(w.heap_bytes(), HeapBytes::exact(2 * 16));
    }

    #[test]
    fn a_jump_past_the_width_forgets_the_old_bits() {
        let mut w = DedupWindows::default();
        assert!(w.insert((NodeId(1), 0)));
        assert!(w.insert((NodeId(1), 1000)));
        // 999 is inside the new window and was never seen.
        assert!(w.insert((NodeId(1), 999)));
        assert!(!w.insert((NodeId(1), 0)));
        assert_eq!(w.stale(), 1);
    }

    #[test]
    fn the_window_edge_is_exact() {
        let mut w = DedupWindows::default();
        let top = 500;
        assert!(w.insert((NodeId(7), top)));
        // The oldest number still inside the window is new, then seen.
        let oldest = top - (DEDUP_WINDOW - 1);
        assert!(w.insert((NodeId(7), oldest)));
        assert!(!w.insert((NodeId(7), oldest)));
        assert_eq!(w.stale(), 0);
        // One below it is stale.
        assert!(!w.insert((NodeId(7), oldest - 1)));
        assert_eq!(w.stale(), 1);
    }

    #[test]
    fn clear_forgets_windows_but_keeps_the_stale_count() {
        let mut w = DedupWindows::default();
        w.insert((NodeId(1), 100));
        w.insert((NodeId(1), 1));
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.heap_bytes(), HeapBytes::default());
        assert_eq!(w.stale(), 1);
        assert!(w.insert((NodeId(1), 100)));
    }
}
