//! The in-network aggregation buffer (paper §4.2).
//!
//! An aggregation point holds received data for up to `T_a` before flushing
//! one combined aggregate downstream. The outgoing aggregate's energy cost is
//! the minimum-weight set cover of its items by the incoming aggregates, plus
//! one (for the outgoing transmission itself) — computed with the greedy
//! weighted set-cover heuristic.

use std::collections::BTreeMap;

use wsn_net::NodeId;
use wsn_setcover::{greedy_cover, CoverInstance};
use wsn_sim::SimTime;

use crate::msg::EventItem;

/// One incoming aggregate buffered for the current aggregation cycle.
#[derive(Debug, Clone)]
pub struct IncomingAgg {
    /// Sending neighbor, or `None` for this node's own locally generated
    /// events (which cost nothing to "deliver" to itself).
    pub from: Option<NodeId>,
    /// The items the aggregate carried.
    pub items: Vec<EventItem>,
    /// The aggregate's advertised energy cost `w`.
    pub cost: f64,
    /// Arrival time.
    pub arrived: SimTime,
}

/// The outgoing aggregate produced by a flush.
#[derive(Debug, Clone, PartialEq)]
pub struct OutgoingAgg {
    /// Distinct items, ordered by `(source, round)`.
    pub items: Vec<EventItem>,
    /// Energy cost `w` = minimum cover weight + 1.
    pub cost: f64,
}

/// Buffers incoming data between flushes and computes outgoing aggregates.
///
/// The buffer tracks *pending* items (received but not yet forwarded — the
/// caller filters out items it has already forwarded before offering) and the
/// full set of incoming aggregates of the cycle (needed for the cost cover:
/// an aggregate that brought no new items can still be the cheapest cover of
/// items another neighbor also delivered).
#[derive(Debug, Clone, Default)]
pub struct AggregationBuffer {
    pending: BTreeMap<(NodeId, u32), EventItem>,
    cycle: Vec<IncomingAgg>,
}

impl AggregationBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        AggregationBuffer::default()
    }

    /// Offers an incoming aggregate to the buffer. `new_items` are the items
    /// the caller determined to be previously unseen (these become pending);
    /// the full aggregate is kept for cost computation regardless.
    pub fn offer(&mut self, agg: IncomingAgg, new_items: &[EventItem]) {
        for item in new_items {
            self.pending.insert(item.key(), *item);
        }
        self.cycle.push(agg);
    }

    /// Whether any items await forwarding.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The distinct sources among pending items, sorted (the map's
    /// `(source, round)` key order already groups them).
    pub fn pending_sources(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.pending.keys().map(|&(s, _)| s).collect();
        v.dedup();
        v
    }

    /// Number of pending items.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Number of incoming aggregates buffered in the current cycle (the
    /// inputs a flush would merge). Read this *before* [`flush`] — flushing
    /// clears the cycle.
    ///
    /// [`flush`]: AggregationBuffer::flush
    pub fn cycle_len(&self) -> usize {
        self.cycle.len()
    }

    /// Flushes the buffer: returns the outgoing aggregate (items plus
    /// set-cover cost), or `None` when nothing is pending. Clears the cycle
    /// either way.
    ///
    /// Cost rule (paper §4.2): map each incoming aggregate to a subset
    /// weighted by its cost `w_i`; the outgoing cost is the greedy cover's
    /// weight plus one. Items in incoming aggregates that are not pending
    /// (already forwarded earlier) are ignored — the cover targets exactly
    /// the outgoing items.
    pub fn flush(&mut self) -> Option<OutgoingAgg> {
        if self.pending.is_empty() {
            self.cycle.clear();
            return None;
        }
        // Dense element ids: position in the pending map (sorted by key).
        let index_of: BTreeMap<(NodeId, u32), u32> = self
            .pending
            .keys()
            .enumerate()
            .map(|(i, &k)| (k, i as u32))
            .collect();
        let mut inst = CoverInstance::new();
        let mut subset_cost = Vec::new();
        for agg in &self.cycle {
            let elems: Vec<u32> = agg
                .items
                .iter()
                .filter_map(|it| index_of.get(&it.key()).copied())
                .collect();
            if elems.is_empty() {
                continue;
            }
            inst.add_subset(elems, agg.cost);
            subset_cost.push(agg.cost);
        }
        debug_assert!(
            inst.universe_len() == self.pending.len(),
            "every pending item must come from some cycle aggregate"
        );
        let cover = greedy_cover(&inst);
        let items: Vec<EventItem> = self.pending.values().copied().collect();
        self.pending.clear();
        self.cycle.clear();
        Some(OutgoingAgg {
            items,
            cost: cover.weight + 1.0,
        })
    }

    /// Discards all buffered state (node failure).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.cycle.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(src: u32, round: u32) -> EventItem {
        EventItem {
            source: NodeId(src),
            round,
            generated: SimTime::ZERO,
        }
    }

    fn agg(from: Option<u32>, items: Vec<EventItem>, cost: f64) -> IncomingAgg {
        IncomingAgg {
            from: from.map(NodeId),
            items,
            cost,
            arrived: SimTime::ZERO,
        }
    }

    #[test]
    fn empty_flush_is_none() {
        let mut buf = AggregationBuffer::new();
        assert_eq!(buf.flush(), None);
    }

    #[test]
    fn single_local_event_costs_one_transmission() {
        let mut buf = AggregationBuffer::new();
        let it = item(0, 1);
        // A source's own event arrives at itself for free (w = 0).
        buf.offer(agg(None, vec![it], 0.0), &[it]);
        let out = buf.flush().expect("one pending item");
        assert_eq!(out.items, vec![it]);
        assert_eq!(out.cost, 1.0);
        assert!(!buf.has_pending());
    }

    #[test]
    fn figure4a_cost_is_twelve() {
        // Node L receives S1 = {a1, a2, b1} w=5, S2 = {b1, b2} w=6,
        // S3 = {a2, b2} w=7 and sends S4 = union at w4 = 5 + 6 + 1 = 12.
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(10), vec![a1, a2, b1], 5.0), &[a1, a2, b1]);
        buf.offer(agg(Some(11), vec![b1, b2], 6.0), &[b2]);
        buf.offer(agg(Some(12), vec![a2, b2], 7.0), &[]);
        let out = buf.flush().expect("items pending");
        assert_eq!(out.items.len(), 4);
        assert_eq!(out.cost, 12.0);
    }

    #[test]
    fn duplicate_only_aggregate_can_still_win_the_cover() {
        // Neighbor A delivers {x} at cost 9; neighbor B then delivers {x}
        // at cost 2. B brought nothing new, but the cover should use B.
        let x = item(0, 1);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(1), vec![x], 9.0), &[x]);
        buf.offer(agg(Some(2), vec![x], 2.0), &[]);
        let out = buf.flush().expect("x pending");
        assert_eq!(out.cost, 3.0);
    }

    #[test]
    fn items_outside_pending_are_ignored_by_the_cover() {
        // y was forwarded in an earlier cycle (not offered as new); only x
        // is pending. The aggregate carrying {x, y} covers x.
        let x = item(0, 1);
        let y = item(1, 1);
        let mut buf = AggregationBuffer::new();
        buf.offer(agg(Some(1), vec![x, y], 4.0), &[x]);
        let out = buf.flush().expect("x pending");
        assert_eq!(out.items, vec![x]);
        assert_eq!(out.cost, 5.0);
    }

    #[test]
    fn pending_sources_are_distinct_and_sorted() {
        let mut buf = AggregationBuffer::new();
        let items = [item(3, 1), item(1, 1), item(3, 2)];
        buf.offer(agg(Some(1), items.to_vec(), 1.0), &items);
        assert_eq!(buf.pending_sources(), vec![NodeId(1), NodeId(3)]);
        assert_eq!(buf.pending_len(), 3);
    }

    #[test]
    fn flush_clears_cycle_even_when_empty() {
        let mut buf = AggregationBuffer::new();
        let x = item(0, 1);
        buf.offer(agg(Some(1), vec![x], 1.0), &[]); // nothing new
        assert_eq!(buf.flush(), None);
        // A later cycle must not see the stale aggregate.
        buf.offer(agg(None, vec![x], 0.0), &[x]);
        let out = buf.flush().expect("pending");
        assert_eq!(out.cost, 1.0);
    }

    #[test]
    fn items_are_ordered_by_source_then_round() {
        let mut buf = AggregationBuffer::new();
        let items = [item(2, 5), item(1, 9), item(1, 2)];
        buf.offer(agg(Some(1), items.to_vec(), 1.0), &items);
        let out = buf.flush().expect("pending");
        let keys: Vec<_> = out.items.iter().map(EventItem::key).collect();
        assert_eq!(keys, vec![(NodeId(1), 2), (NodeId(1), 9), (NodeId(2), 5)]);
    }

    #[test]
    fn clear_discards_everything() {
        let mut buf = AggregationBuffer::new();
        let x = item(0, 1);
        buf.offer(agg(Some(1), vec![x], 1.0), &[x]);
        buf.clear();
        assert!(!buf.has_pending());
        assert_eq!(buf.flush(), None);
    }
}
