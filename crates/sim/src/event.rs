//! The pending-event queue.
//!
//! A binary heap of `u128` keys over a slab. Each key packs an event's
//! `(time, sequence, slot)` as `time << 64 | seq << 24 | slot`; sequence
//! numbers are unique, so the integer order is exactly `(time, sequence)`:
//! events at one instant pop in insertion order, which makes the
//! simulation fully deterministic. Two runs that schedule the same events
//! in the same order dequeue them in the same order.
//!
//! The slab is what makes the steady-state hot path allocation- and
//! hash-free: payloads live in slot storage reused through a free list,
//! heap entries are plain integers, and liveness is one tag compare (the
//! slot holds the low 32 bits of its occupant's sequence number) — no
//! `HashSet`, no hashing, no per-event allocation once the queue has
//! reached its steady-state capacity. See `DESIGN.md` §14.3 for the
//! invariants and the packing bounds.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Sequence numbers occupy 40 bits of a heap key.
const SEQ_LIMIT: u64 = 1 << 40;
/// Slot indices occupy the low 24 bits of a heap key.
const SLOT_LIMIT: u32 = 1 << 24;

/// Packs an event's heap key, `time << 64 | seq << 24 | slot`.
///
/// # Panics
///
/// Panics if `seq` reaches 2^40 or `slot` reaches 2^24, the widths the key
/// gives them.
fn pack(time: SimTime, seq: u64, slot: u32) -> u128 {
    assert!(seq < SEQ_LIMIT, "event sequence number {seq} reached 2^40");
    assert!(
        slot < SLOT_LIMIT,
        "event slot {slot} reached 2^24 pending events"
    );
    (u128::from(time.as_nanos()) << 64) | (u128::from(seq) << 24) | u128::from(slot)
}

/// The time of a packed key.
fn key_time(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

/// The id a packed key was pushed under: its slot and its sequence tag.
fn key_id(key: u128) -> EventId {
    EventId {
        slot: (key as u32) & (SLOT_LIMIT - 1),
        tag: (key >> 24) as u32,
    }
}

/// Identifier of a scheduled event, usable to cancel it before it fires.
///
/// A `(slot, tag)` pair into the queue's slab: the slot is reused after the
/// event fires or is cancelled, and the tag, the low 32 bits of the event's
/// sequence number, is what makes a stale id held across that reuse inert
/// (the slot's next occupant carries another tag). See `DESIGN.md` §14.3
/// for the aliasing bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    slot: u32,
    tag: u32,
}

impl EventId {
    /// The id packed into one integer (mostly useful in logs).
    pub fn as_u64(self) -> u64 {
        (u64::from(self.tag) << 32) | u64::from(self.slot)
    }

    /// A fabricated id for tests that need one the queue never issued.
    #[cfg(test)]
    fn fake(slot: u32, tag: u32) -> Self {
        EventId { slot, tag }
    }
}

/// One slab slot: the payload of the live event occupying it (if any) and
/// the low 32 bits of that event's sequence number. Sequence numbers are
/// unique, so exactly one `EventId` matches an occupied slot.
#[derive(Debug)]
struct Slot<E> {
    tag: u32,
    payload: Option<E>,
}

/// A deterministic pending-event queue.
///
/// Events are popped in `(time, insertion order)` order. Cancellation
/// empties the slot; the heap key becomes a tombstone that pop discards by
/// a tag compare. The heap top is kept live at all times (tombstones
/// reaching the top are drained eagerly by the `&mut` methods), so
/// [`EventQueue::peek_time`] is a true `&self` read.
///
/// # Examples
///
/// ```
/// use wsn_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// let late = q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.cancel(late);
/// assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
/// assert_eq!(q.pop().map(|(_, _, e)| e), Some("early"));
/// assert!(q.pop().is_none());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<u128>>,
    slots: Vec<Slot<E>>,
    /// Vacant slot indices, reused LIFO.
    free: Vec<u32>,
    next_seq: u64,
    /// The number of live (pending, non-cancelled) events.
    live: usize,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            live: 0,
        }
    }

    /// Schedules `payload` at `time`, returning a handle for cancellation.
    ///
    /// # Panics
    ///
    /// Panics on the 2^40th push, or with 2^24 events pending (the widths
    /// of a heap key's fields).
    pub fn push(&mut self, time: SimTime, payload: E) -> EventId {
        let seq = self.next_seq;
        self.next_seq += 1;
        // The low 32 bits: what the slot and the id keep of `seq`.
        let tag = seq as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Slot {
                    tag,
                    payload: Some(payload),
                };
                slot
            }
            None => {
                // Exact: `pack` stops the slab growing past 2^24 slots.
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    tag,
                    payload: Some(payload),
                });
                slot
            }
        };
        self.heap.push(Reverse(pack(time, seq, slot)));
        self.live += 1;
        EventId { slot, tag }
    }

    /// Whether `id` currently names the live occupant of its slot.
    fn is_live(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot as usize)
            .is_some_and(|s| s.tag == id.tag && s.payload.is_some())
    }

    /// Vacates `id`'s slot, returning the payload. The empty slot is what
    /// retires every outstanding handle and heap tombstone for it; the
    /// next occupant brings its own tag.
    fn vacate(&mut self, id: EventId) -> E {
        let payload = self.slots[id.slot as usize]
            .payload
            .take()
            .expect("vacate of an empty slot");
        self.free.push(id.slot);
        self.live -= 1;
        payload
    }

    /// Discards tombstones from the heap top, restoring the invariant that
    /// the top (if any) is live.
    fn drain_dead_top(&mut self) {
        while let Some(&Reverse(key)) = self.heap.peek() {
            if self.is_live(key_id(key)) {
                return;
            }
            self.heap.pop();
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. Cancellation is O(1) (amortized: a
    /// cancelled entry reaching the heap top is discarded by the next `&mut`
    /// operation); the heap entry becomes a tombstone skipped on pop.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if !self.is_live(id) {
            return false;
        }
        drop(self.vacate(id));
        self.drain_dead_top();
        true
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, EventId, E)> {
        // The top is live by invariant, but an empty queue still has to
        // answer; drain defensively to keep the invariant local.
        self.drain_dead_top();
        let Reverse(key) = self.heap.pop()?;
        let id = key_id(key);
        let payload = self.vacate(id);
        self.drain_dead_top();
        Some((key_time(key), id, payload))
    }

    /// The time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        // The heap top is always live (tombstones are drained by the `&mut`
        // methods that create or expose them), so this is a plain read.
        self.heap.peek().map(|&Reverse(key)| key_time(key))
    }

    /// The number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether there are no pending events.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(3), 'c');
        q.push(t(1), 'a');
        q.push(t(2), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_break_in_insertion_order_across_slot_reuse() {
        // Slot indices recycle LIFO while seq keeps counting; the tie-break
        // must follow seq (insertion order), never the recycled slot index.
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..50).map(|i| q.push(t(1), i)).collect();
        for id in ids.iter().rev() {
            assert!(q.cancel(*id));
        }
        for i in 100..150 {
            q.push(t(1), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, _, e)| e)).collect();
        assert_eq!(order, (100..150).collect::<Vec<_>>());
    }

    #[test]
    fn cancel_prevents_delivery() {
        let mut q = EventQueue::new();
        let id = q.push(t(1), 'x');
        assert!(q.cancel(id));
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_of_fired_event_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(t(1), 'x');
        assert!(q.pop().is_some());
        assert!(!q.cancel(id));
    }

    #[test]
    fn double_cancel_is_false() {
        let mut q = EventQueue::new();
        let id = q.push(t(1), 'x');
        assert!(q.cancel(id));
        assert!(!q.cancel(id));
    }

    #[test]
    fn cancel_of_unknown_id_is_false() {
        let mut q: EventQueue<char> = EventQueue::new();
        assert!(!q.cancel(EventId::fake(42, 0)));
    }

    #[test]
    fn stale_id_does_not_cancel_a_reused_slot() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        assert!(q.cancel(a));
        // 'b' reuses a's slot under its own sequence tag.
        let b = q.push(t(2), 'b');
        assert!(!q.cancel(a), "stale id must be inert after slot reuse");
        assert!(q.cancel(b));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        q.push(t(2), 'b');
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn peek_time_on_empty_is_none() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn peek_time_is_a_shared_reference_read() {
        let mut q = EventQueue::new();
        q.push(t(3), 'c');
        let shared: &EventQueue<char> = &q;
        assert_eq!(shared.peek_time(), Some(t(3)));
    }

    #[test]
    fn slots_are_reused_not_grown() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            let id = q.push(t(round + 1), round);
            if round % 2 == 0 {
                q.cancel(id);
            } else {
                q.pop();
            }
        }
        assert!(
            q.slots.len() <= 2,
            "steady-state churn must recycle slots, got {} slots",
            q.slots.len()
        );
    }

    #[test]
    fn keys_hold_the_largest_seq_and_slot() {
        let (seq, slot) = (SEQ_LIMIT - 1, SLOT_LIMIT - 1);
        let key = pack(SimTime::MAX, seq, slot);
        assert_eq!(key_time(key), SimTime::MAX);
        assert_eq!(
            key_id(key),
            EventId {
                slot,
                tag: seq as u32
            }
        );
        // Neither field carries into the next: the largest slot sorts
        // before the next sequence number, the largest sequence number
        // before the next nanosecond.
        let at = SimTime::from_nanos(7);
        assert!(pack(at, 5, slot) < pack(at, 6, 0));
        assert!(pack(at, seq, slot) < pack(SimTime::from_nanos(8), 0, 0));
        assert_eq!(key_time(pack(at, seq, slot)), at);
    }

    #[test]
    #[should_panic(expected = "reached 2^40")]
    fn sequence_bound_is_asserted() {
        pack(t(1), SEQ_LIMIT, 0);
    }

    #[test]
    #[should_panic(expected = "reached 2^24")]
    fn slot_bound_is_asserted() {
        pack(t(1), 0, SLOT_LIMIT);
    }

    #[test]
    fn event_ids_pack_into_u64_for_logs() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 'a');
        let b = q.push(t(1), 'b');
        assert_ne!(a.as_u64(), b.as_u64());
        q.cancel(a);
        let c = q.push(t(1), 'c');
        // Same slot as a, different tag: still a distinct packed id.
        assert_ne!(a.as_u64(), c.as_u64());
    }
}
