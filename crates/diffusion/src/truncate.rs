//! Negative reinforcement — the truncation rules (paper §4.3).
//!
//! Both schemes periodically examine the data received from each upstream
//! neighbor within a window `T_n` and negatively reinforce neighbors that are
//! not pulling their weight:
//!
//! * **Opportunistic** (the prior diffusion rule): truncate a neighbor whose
//!   window contains no previously unseen events — it only delivers
//!   duplicates.
//! * **Greedy** (the paper's rule): compute the minimum-weight set cover of
//!   *sources* (after the event→source transformation) over the window's
//!   aggregates; truncate neighbors none of whose aggregates are selected.

use std::collections::{BTreeSet, VecDeque};

use wsn_net::NodeId;
use wsn_setcover::{greedy_cover, to_source_instance};
use wsn_sim::{SimDuration, SimTime};

use crate::config::Scheme;
use crate::msg::EventItem;

/// One received data message, as remembered for truncation decisions.
#[derive(Debug, Clone)]
pub struct WindowEntry {
    /// The sending neighbor.
    pub from: NodeId,
    /// The items the aggregate carried.
    pub items: Vec<EventItem>,
    /// The aggregate's advertised cost `w`.
    pub cost: f64,
    /// Arrival time.
    pub arrived: SimTime,
    /// Whether the aggregate contained at least one previously unseen item.
    pub had_new: bool,
}

/// Sliding-window log of incoming data, per node.
#[derive(Debug, Clone)]
pub struct TruncationLog {
    window: SimDuration,
    entries: VecDeque<WindowEntry>,
}

impl TruncationLog {
    /// Creates a log with the given window `T_n`.
    pub fn new(window: SimDuration) -> Self {
        TruncationLog {
            window,
            entries: VecDeque::new(),
        }
    }

    /// Records an incoming data message.
    pub fn record(&mut self, entry: WindowEntry) {
        self.entries.push_back(entry);
    }

    /// Evicts entries older than the window.
    pub fn evict(&mut self, now: SimTime) {
        while let Some(front) = self.entries.front() {
            if now.saturating_duration_since(front.arrived) > self.window {
                self.entries.pop_front();
            } else {
                break;
            }
        }
    }

    /// Distinct neighbors that sent data within the window, sorted.
    pub fn senders(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self.entries.iter().map(|e| e.from).collect();
        set.into_iter().collect()
    }

    /// Distinct neighbors that delivered at least one previously unseen item
    /// within the window, sorted — the node's *active* upstream providers,
    /// whose data gradients deserve re-reinforcement.
    pub fn senders_with_new(&self) -> Vec<NodeId> {
        let set: BTreeSet<NodeId> = self
            .entries
            .iter()
            .filter(|e| e.had_new)
            .map(|e| e.from)
            .collect();
        set.into_iter().collect()
    }

    /// Number of entries currently in the window.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The neighbors to negatively reinforce under `scheme`, evaluated at
    /// `now` (entries outside the window are evicted first).
    ///
    /// Returns a sorted list. With fewer than two senders nothing is ever
    /// truncated — there is no alternative path to prefer.
    pub fn decide(&mut self, scheme: Scheme, now: SimTime) -> Vec<NodeId> {
        self.evict(now);
        let senders = self.senders();
        if senders.len() < 2 {
            return Vec::new();
        }
        match scheme {
            Scheme::Opportunistic => senders
                .into_iter()
                .filter(|&s| {
                    self.entries
                        .iter()
                        .filter(|e| e.from == s)
                        .all(|e| !e.had_new)
                })
                .collect(),
            Scheme::Greedy => {
                // Transform each aggregate's events to its sources, weight
                // w* = w·|S*|/|S|, and cover the sources at minimum weight.
                let subsets: Vec<(Vec<(u32, u64)>, f64)> = self
                    .entries
                    .iter()
                    .map(|e| {
                        (
                            e.items
                                .iter()
                                .map(|it| (it.source.0, u64::from(it.round)))
                                .collect(),
                            e.cost,
                        )
                    })
                    .collect();
                let inst = to_source_instance(&subsets);
                let cover = greedy_cover(&inst);
                let efficient: BTreeSet<NodeId> = cover
                    .selected
                    .iter()
                    .map(|&i| self.entries[i].from)
                    .collect();
                senders
                    .into_iter()
                    .filter(|s| !efficient.contains(s))
                    .collect()
            }
        }
    }

    /// Discards all state (node failure).
    pub fn clear(&mut self) {
        self.entries.clear();
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

    fn entry(
        from: u32,
        items: Vec<EventItem>,
        cost: f64,
        at_ms: u64,
        had_new: bool,
    ) -> WindowEntry {
        WindowEntry {
            from: NodeId(from),
            items,
            cost,
            arrived: SimTime::from_nanos(at_ms * 1_000_000),
            had_new,
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::from_nanos(ms * 1_000_000)
    }

    fn log() -> TruncationLog {
        TruncationLog::new(SimDuration::from_secs(2))
    }

    #[test]
    fn single_sender_is_never_truncated() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, false));
        assert!(l.decide(Scheme::Opportunistic, t(200)).is_empty());
        assert!(l.decide(Scheme::Greedy, t(200)).is_empty());
    }

    #[test]
    fn opportunistic_truncates_duplicate_only_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 3.0, 150, false));
        assert_eq!(l.decide(Scheme::Opportunistic, t(200)), vec![NodeId(2)]);
    }

    #[test]
    fn opportunistic_spares_senders_with_any_new_item() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 3.0, 150, false));
        l.record(entry(2, vec![item(0, 2)], 3.0, 160, true));
        assert!(l.decide(Scheme::Opportunistic, t(200)).is_empty());
    }

    #[test]
    fn greedy_truncates_by_source_cover() {
        // Figure 4(b): G sends {a1,a2,b1} w=5, H sends {b1,b2} w=6,
        // K sends {a2,b2} w=7. Source cover selects only G's aggregate, so
        // H and K are negatively reinforced.
        let mut l = log();
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        l.record(entry(10, vec![a1, a2, b1], 5.0, 100, true)); // G
        l.record(entry(11, vec![b1, b2], 6.0, 110, true)); // H
        l.record(entry(12, vec![a2, b2], 7.0, 120, false)); // K
        assert_eq!(
            l.decide(Scheme::Greedy, t(200)),
            vec![NodeId(11), NodeId(12)]
        );
    }

    #[test]
    fn greedy_event_cover_would_be_more_conservative() {
        // Same scenario under the *event* cover keeps H (S2 covers b2) —
        // that's exactly the paper's argument for covering sources instead.
        // Verify that the greedy rule prunes H while the raw event cover
        // includes it.
        let a1 = item(0, 1);
        let a2 = item(0, 2);
        let b1 = item(1, 1);
        let b2 = item(1, 2);
        let mut inst = wsn_setcover::CoverInstance::new();
        inst.add_subset(vec![0, 1, 2], 5.0); // a1 a2 b1
        inst.add_subset(vec![2, 3], 6.0); // b1 b2
        inst.add_subset(vec![1, 3], 7.0); // a2 b2
        let event_cover = wsn_setcover::greedy_cover(&inst);
        assert!(event_cover.contains(1), "event cover keeps H's aggregate");

        let mut l = log();
        l.record(entry(10, vec![a1, a2, b1], 5.0, 100, true));
        l.record(entry(11, vec![b1, b2], 6.0, 110, true));
        l.record(entry(12, vec![a2, b2], 7.0, 120, false));
        let truncated = l.decide(Scheme::Greedy, t(200));
        assert!(truncated.contains(&NodeId(11)), "source cover prunes H");
    }

    #[test]
    fn greedy_keeps_disjoint_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 2.0, 100, true));
        l.record(entry(2, vec![item(1, 1)], 2.0, 110, true));
        assert!(l.decide(Scheme::Greedy, t(200)).is_empty());
    }

    #[test]
    fn eviction_respects_window() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 0, true));
        l.record(entry(2, vec![item(0, 1)], 5.0, 2500, false));
        // At t = 3 s, the first entry (t = 0) is outside the 2 s window, so
        // only sender 2 remains: a single sender, never truncated.
        assert!(l.decide(Scheme::Opportunistic, t(3000)).is_empty());
        assert_eq!(l.senders(), vec![NodeId(2)]);
    }

    #[test]
    fn senders_are_deduplicated_and_sorted() {
        let mut l = log();
        l.record(entry(5, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(3, vec![item(0, 2)], 1.0, 110, true));
        l.record(entry(5, vec![item(0, 3)], 1.0, 120, true));
        assert_eq!(l.senders(), vec![NodeId(3), NodeId(5)]);
        assert_eq!(l.len(), 3);
    }

    #[test]
    fn senders_with_new_filters_duplicate_only_senders() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.record(entry(2, vec![item(0, 1)], 1.0, 110, false));
        l.record(entry(2, vec![item(0, 2)], 1.0, 120, true));
        l.record(entry(3, vec![item(0, 2)], 1.0, 130, false));
        assert_eq!(l.senders_with_new(), vec![NodeId(1), NodeId(2)]);
    }

    #[test]
    fn clear_empties_log() {
        let mut l = log();
        l.record(entry(1, vec![item(0, 1)], 1.0, 100, true));
        l.clear();
        assert!(l.is_empty());
    }

    #[test]
    fn greedy_prefers_cheap_covering_sender() {
        // Two senders deliver the same sources; the cheaper one stays.
        let mut l = log();
        l.record(entry(1, vec![item(0, 1), item(1, 1)], 10.0, 100, true));
        l.record(entry(2, vec![item(0, 1), item(1, 1)], 2.0, 150, false));
        assert_eq!(l.decide(Scheme::Greedy, t(200)), vec![NodeId(1)]);
    }
}
