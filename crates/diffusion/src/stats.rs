//! Per-node protocol statistics: sink delivery records and message counters.

use std::collections::BTreeMap;

use wsn_net::NodeId;
use wsn_sim::SimTime;

use crate::msg::{EventItem, MsgKind};

impl MsgKind {
    /// Dense index for counter arrays.
    pub fn index(self) -> usize {
        match self {
            MsgKind::Interest => 0,
            MsgKind::Exploratory => 1,
            MsgKind::Data => 2,
            MsgKind::IncrementalCost => 3,
            MsgKind::Reinforce => 4,
            MsgKind::NegativeReinforce => 5,
        }
    }
}

/// Message counters for one node, by kind.
#[derive(Debug, Clone, Default)]
pub struct ProtoCounters {
    sent: [u64; 6],
    received: [u64; 6],
}

impl ProtoCounters {
    /// Records a sent message of the given kind.
    pub fn count_sent(&mut self, kind: MsgKind) {
        self.sent[kind.index()] += 1;
    }

    /// Records a received message of the given kind.
    pub fn count_received(&mut self, kind: MsgKind) {
        self.received[kind.index()] += 1;
    }

    /// Messages sent of `kind`.
    pub fn sent(&self, kind: MsgKind) -> u64 {
        self.sent[kind.index()]
    }

    /// Messages received of `kind`.
    pub fn received(&self, kind: MsgKind) -> u64 {
        self.received[kind.index()]
    }

    /// Total messages sent.
    pub fn total_sent(&self) -> u64 {
        self.sent.iter().sum()
    }
}

/// Delivery bookkeeping at a sink.
///
/// `distinct` counts distinct `(source, round)` events — the numerator of the
/// paper's *distinct-event delivery ratio* and the denominator of its
/// *average dissipated energy* metric. `delay_sum_s` accumulates one-way
/// latency for the *average delay* metric.
#[derive(Debug, Clone, Default)]
pub struct SinkStats {
    /// Distinct events received.
    pub distinct: u64,
    /// Duplicate item receptions (same event via another path or message).
    pub duplicates: u64,
    /// Sum of one-way delays of distinct events, seconds.
    pub delay_sum_s: f64,
    /// Every distinct event's one-way delay, seconds (for tail analysis).
    pub delays_s: Vec<f64>,
    /// Distinct events received per source.
    pub per_source: BTreeMap<NodeId, u64>,
}

impl SinkStats {
    /// Records the first reception of a distinct event.
    pub fn record_distinct(&mut self, item: &EventItem, now: SimTime) {
        self.distinct += 1;
        let delay = now.saturating_duration_since(item.generated).as_secs_f64();
        self.delay_sum_s += delay;
        self.delays_s.push(delay);
        *self.per_source.entry(item.source).or_insert(0) += 1;
    }

    /// Records a duplicate reception.
    pub fn record_duplicate(&mut self) {
        self.duplicates += 1;
    }

    /// Mean one-way delay over distinct events, seconds (0 if none).
    pub fn average_delay_s(&self) -> f64 {
        if self.distinct == 0 {
            0.0
        } else {
            self.delay_sum_s / self.distinct as f64
        }
    }

    /// The `p`-th percentile of one-way delay (nearest-rank), seconds.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn delay_percentile_s(&self, p: f64) -> f64 {
        assert!(
            (0.0..=100.0).contains(&p),
            "percentile {p} outside [0, 100]"
        );
        if self.delays_s.is_empty() {
            return 0.0;
        }
        let mut sorted = self.delays_s.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite delays"));
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_by_kind() {
        let mut c = ProtoCounters::default();
        c.count_sent(MsgKind::Data);
        c.count_sent(MsgKind::Data);
        c.count_sent(MsgKind::Interest);
        c.count_received(MsgKind::Reinforce);
        assert_eq!(c.sent(MsgKind::Data), 2);
        assert_eq!(c.sent(MsgKind::Interest), 1);
        assert_eq!(c.sent(MsgKind::Reinforce), 0);
        assert_eq!(c.received(MsgKind::Reinforce), 1);
        assert_eq!(c.total_sent(), 3);
    }

    #[test]
    fn kind_indices_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for k in MsgKind::ALL {
            assert!(seen.insert(k.index()));
            assert!(k.index() < 6);
        }
    }

    #[test]
    fn sink_stats_average_delay() {
        let mut s = SinkStats::default();
        assert_eq!(s.average_delay_s(), 0.0);
        let item = EventItem {
            source: NodeId(1),
            round: 0,
            generated: SimTime::from_secs(10),
        };
        s.record_distinct(&item, SimTime::from_secs(12));
        let item2 = EventItem {
            source: NodeId(2),
            round: 0,
            generated: SimTime::from_secs(10),
        };
        s.record_distinct(&item2, SimTime::from_secs(14));
        s.record_duplicate();
        assert_eq!(s.distinct, 2);
        assert_eq!(s.duplicates, 1);
        assert!((s.average_delay_s() - 3.0).abs() < 1e-12);
        assert_eq!(s.per_source[&NodeId(1)], 1);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = SinkStats::default();
        for d in [1u64, 2, 3, 4, 5, 6, 7, 8, 9, 10] {
            let item = EventItem {
                source: NodeId(0),
                round: d as u32,
                generated: SimTime::ZERO,
            };
            s.record_distinct(&item, SimTime::from_secs(d));
        }
        assert_eq!(s.delay_percentile_s(50.0), 5.0);
        assert_eq!(s.delay_percentile_s(90.0), 9.0);
        assert_eq!(s.delay_percentile_s(100.0), 10.0);
        assert_eq!(s.delay_percentile_s(0.0), 1.0);
    }

    #[test]
    fn percentile_of_empty_is_zero() {
        assert_eq!(SinkStats::default().delay_percentile_s(95.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "percentile")]
    fn out_of_range_percentile_panics() {
        SinkStats::default().delay_percentile_s(101.0);
    }
}
