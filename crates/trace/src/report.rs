//! Reducing a trace into per-node summaries and figure-style tables.
//!
//! [`TraceSummary`] is the one reduction of a trace: `trace_report`
//! renders it, the [`crate::Auditor`] takes every count it reports from it,
//! and the registry audit (`wsn_core::registry_mismatches`) reconciles the
//! metrics registry against it. It folds typed records only
//! ([`TraceSummary::add_record`]); text goes through
//! [`TraceRecord::from_json`] first. [`TraceSummary::render`] prints the
//! per-node energy histogram, the top-N hottest nodes, and a totals table.

use std::collections::BTreeMap;

use crate::record::{joules_to_nj, TraceRecord, ENERGY_STATES, FRAME_KINDS};

/// One dispatch-profiler row reduced from `profile` records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileRow {
    /// The profiled event-type label.
    pub label: String,
    /// Dispatches of this event type.
    pub count: u64,
    /// Total wall-clock nanoseconds spent.
    pub total_ns: u64,
    /// The single slowest dispatch, nanoseconds.
    pub max_ns: u64,
}

/// The metrics a run reported on its `metrics` record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportedMetrics {
    /// Events generated across all sources.
    pub generated: u64,
    /// Distinct events delivered, summed over sinks.
    pub distinct: u64,
    /// Sum of per-event delivery delays over all sinks, seconds.
    pub delay_sum_s: f64,
    /// Number of sinks in the scenario.
    pub sinks: u32,
    /// Total energy as harvested into the run record, joules.
    pub total_energy_j: f64,
}

/// Per-node counters reduced from one trace.
#[derive(Debug, Clone, Default)]
pub struct NodeTally {
    /// Energy debits grouped per radio state, in [`ENERGY_STATES`] order.
    /// Kept grouped so the total reproduces the energy meter's bucketed
    /// floating-point summation exactly.
    pub energy_by_state: [f64; 4],
    /// Frames transmitted.
    pub tx: u64,
    /// Payload frames received.
    pub rx: u64,
    /// Frames lost (any reason).
    pub drops: u64,
    /// Receptions corrupted at this node.
    pub collisions: u64,
    /// Last snapshot's cumulative energy, if any snapshot was taken.
    pub last_snapshot_energy_j: Option<f64>,
}

impl NodeTally {
    /// Total energy across states, summed in the meter's state order.
    pub fn energy_j(&self) -> f64 {
        self.energy_by_state.iter().sum()
    }
}

/// The reduction of one trace stream.
#[derive(Debug, Clone, Default)]
pub struct TraceSummary {
    /// Per-node tallies, indexed by node id.
    pub nodes: Vec<NodeTally>,
    /// Records folded in.
    pub records: u64,
    /// Non-blank lines that did not decode as trace records.
    pub skipped_lines: u64,
    /// Transmissions per frame kind, in [`FRAME_KINDS`] order.
    pub tx_by_kind: [u64; 4],
    /// Gradient reinforcements seen.
    pub reinforcements: u64,
    /// Tree edges added.
    pub tree_edges: u64,
    /// Aggregation merges seen.
    pub merges: u64,
    /// Buffered aggregates absorbed, summed over merges (`inputs` fields).
    pub merge_inputs: u64,
    /// Snapshot records seen.
    pub snapshots: u64,
    /// MAC enqueue records seen.
    pub enqueues: u64,
    /// Distinct events born (`event_gen` records).
    pub events_generated: u64,
    /// Sink deliveries (`deliver` records).
    pub delivered: u64,
    /// Energy debits per radio state in [`ENERGY_STATES`] order, each
    /// debit quantized with [`joules_to_nj`] before summing — the unit and
    /// rounding the metrics registry uses.
    pub energy_nj: [u64; 4],
    /// Frame drops per reason label (sorted by reason for stable tables).
    pub drop_reasons: BTreeMap<&'static str, u64>,
    /// Item drops/suppressions per reason label.
    pub item_drop_reasons: BTreeMap<&'static str, u64>,
    /// Dispatch-profiler rows, as recorded.
    pub profile: Vec<ProfileRow>,
    /// The `run_start` seed, if the trace carried one.
    pub seed: Option<u64>,
    /// The `run_start` schema version, if present.
    pub schema_version: Option<u64>,
    /// The reported `metrics` record, if the trace carried one.
    pub metrics: Option<ReportedMetrics>,
    /// The `run_end` totals, if the trace carried them.
    pub run_end: Option<(u64, f64)>,
}

impl TraceSummary {
    /// An empty summary.
    pub fn new() -> Self {
        TraceSummary::default()
    }

    fn node_mut(&mut self, node: u32) -> &mut NodeTally {
        let i = node as usize;
        if self.nodes.len() <= i {
            self.nodes.resize_with(i + 1, NodeTally::default);
        }
        &mut self.nodes[i]
    }

    /// Folds one record into the summary.
    pub fn add_record(&mut self, rec: &TraceRecord) {
        self.records += 1;
        match rec {
            TraceRecord::RunStart { seed, nodes } => {
                self.seed = Some(*seed);
                self.schema_version = Some(u64::from(crate::SCHEMA_VERSION));
                if *nodes > 0 {
                    self.node_mut(*nodes - 1);
                }
            }
            TraceRecord::MacEnqueue { .. } => self.enqueues += 1,
            TraceRecord::PacketTx { node, kind, .. } => {
                self.node_mut(*node).tx += 1;
                if let Some(k) = FRAME_KINDS.iter().position(|k| k == kind) {
                    self.tx_by_kind[k] += 1;
                }
            }
            TraceRecord::PacketRx { node, .. } => self.node_mut(*node).rx += 1,
            TraceRecord::PacketDrop { node, reason, .. } => {
                self.node_mut(*node).drops += 1;
                *self.drop_reasons.entry(reason.name()).or_insert(0) += 1;
            }
            TraceRecord::Collision { node, .. } => self.node_mut(*node).collisions += 1,
            TraceRecord::EnergyDebit {
                node,
                state,
                joules,
                ..
            } => {
                if let Some(si) = ENERGY_STATES.iter().position(|s| s == state) {
                    self.node_mut(*node).energy_by_state[si] += joules;
                    self.energy_nj[si] += joules_to_nj(*joules);
                }
            }
            TraceRecord::GradientReinforce { .. } => self.reinforcements += 1,
            TraceRecord::TreeEdge { .. } => self.tree_edges += 1,
            TraceRecord::AggMerge { inputs, .. } => {
                self.merges += 1;
                self.merge_inputs += u64::from(*inputs);
            }
            TraceRecord::EventGen { .. } => self.events_generated += 1,
            TraceRecord::EventDeliver { .. } => self.delivered += 1,
            TraceRecord::ItemDrop { reason, .. } => {
                *self.item_drop_reasons.entry(reason.name()).or_insert(0) += 1;
            }
            TraceRecord::RunMetrics {
                generated,
                distinct,
                delay_sum_s,
                sinks,
                total_energy_j,
                ..
            } => {
                self.metrics = Some(ReportedMetrics {
                    generated: *generated,
                    distinct: *distinct,
                    delay_sum_s: *delay_sum_s,
                    sinks: *sinks,
                    total_energy_j: *total_energy_j,
                })
            }
            TraceRecord::Profile {
                label,
                count,
                total_ns,
                max_ns,
            } => self.profile.push(ProfileRow {
                label: label.clone(),
                count: *count,
                total_ns: *total_ns,
                max_ns: *max_ns,
            }),
            TraceRecord::Snapshot { node, energy_j, .. } => {
                self.snapshots += 1;
                self.node_mut(*node).last_snapshot_energy_j = Some(*energy_j);
            }
            TraceRecord::RunEnd {
                events,
                total_energy_j,
                ..
            } => self.run_end = Some((*events, *total_energy_j)),
        }
    }

    /// Reduces a whole NDJSON text: each non-blank line is decoded with
    /// [`TraceRecord::from_json`] and folded in, and lines that do not
    /// decode are counted in [`TraceSummary::skipped_lines`].
    pub fn from_text(text: &str) -> Self {
        let mut s = TraceSummary::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match TraceRecord::from_json(line) {
                Ok(rec) => s.add_record(&rec),
                Err(_) => s.skipped_lines += 1,
            }
        }
        s
    }

    /// A per-node count summed over all nodes (e.g. `|t| t.rx`).
    pub fn node_total(&self, count: impl Fn(&NodeTally) -> u64) -> u64 {
        self.nodes.iter().map(count).sum()
    }

    /// Total debited energy across nodes, summed in node order (mirrors the
    /// run's `total_energy_j` summation).
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(NodeTally::energy_j).sum()
    }

    /// The `n` nodes with the highest debited energy, hottest first (ties
    /// break toward the lower node id, deterministically).
    pub fn hottest(&self, n: usize) -> Vec<(u32, f64)> {
        let mut v: Vec<(u32, f64)> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, t)| (i as u32, t.energy_j()))
            .collect();
        v.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .expect("finite energies")
                .then(a.0.cmp(&b.0))
        });
        v.truncate(n);
        v
    }

    /// A fixed-width histogram of per-node energy: `buckets` equal-width
    /// bins spanning `[min, max]` of the per-node totals. Returns
    /// `(lower_bound, upper_bound, count)` per bin.
    pub fn energy_histogram(&self, buckets: usize) -> Vec<(f64, f64, usize)> {
        assert!(buckets > 0, "histogram needs at least one bucket");
        if self.nodes.is_empty() {
            return Vec::new();
        }
        let energies: Vec<f64> = self.nodes.iter().map(NodeTally::energy_j).collect();
        let min = energies.iter().copied().fold(f64::INFINITY, f64::min);
        let max = energies.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let width = ((max - min) / buckets as f64).max(f64::MIN_POSITIVE);
        let mut bins = vec![0usize; buckets];
        for &e in &energies {
            let b = (((e - min) / width) as usize).min(buckets - 1);
            bins[b] += 1;
        }
        bins.iter()
            .enumerate()
            .map(|(i, &c)| (min + width * i as f64, min + width * (i + 1) as f64, c))
            .collect()
    }

    /// The dispatch-profiler rows, hottest first. Ties break toward the
    /// lexicographically smaller label, so the table is deterministic even
    /// when two event types cost the same.
    pub fn profile_rows(&self) -> Vec<ProfileRow> {
        let mut rows = self.profile.clone();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.label.cmp(&b.label)));
        rows
    }

    /// Renders the `--profile` section: per-event-type dispatch cost.
    /// Empty when the trace carries no profiler rows.
    pub fn render_profile(&self) -> String {
        use std::fmt::Write as _;
        if self.profile.is_empty() {
            return String::new();
        }
        let mut out = String::new();
        let _ = writeln!(out, "## dispatch profile (wall clock)");
        let _ = writeln!(
            out,
            "{:<14} {:>10} {:>12} {:>10} {:>10}",
            "event", "count", "total_us", "avg_ns", "max_ns"
        );
        for row in self.profile_rows() {
            let avg = row.total_ns / row.count.max(1);
            let _ = writeln!(
                out,
                "{:<14} {:>10} {:>12.1} {:>10} {:>10}",
                row.label,
                row.count,
                row.total_ns as f64 / 1e3,
                avg,
                row.max_ns
            );
        }
        out
    }

    /// Renders the figure-style report: totals, per-node energy histogram,
    /// and the top-`top` hottest nodes.
    pub fn render(&self, top: usize, buckets: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "# trace summary");
        if let Some(v) = self.schema_version {
            let _ = writeln!(out, "schema_version {v}");
        }
        if let Some(seed) = self.seed {
            let _ = writeln!(out, "seed           {seed}");
        }
        let _ = writeln!(out, "records        {}", self.records);
        if self.skipped_lines > 0 {
            let _ = writeln!(out, "skipped_lines  {}", self.skipped_lines);
        }
        let _ = writeln!(out, "nodes          {}", self.nodes.len());
        let _ = writeln!(
            out,
            "tx/rx/drops    {}/{}/{}",
            self.node_total(|t| t.tx),
            self.node_total(|t| t.rx),
            self.node_total(|t| t.drops)
        );
        let _ = writeln!(out, "collisions     {}", self.node_total(|t| t.collisions));
        let _ = writeln!(out, "reinforcements {}", self.reinforcements);
        let _ = writeln!(out, "tree_edges     {}", self.tree_edges);
        let _ = writeln!(out, "agg_merges     {}", self.merges);
        let _ = writeln!(out, "enqueues       {}", self.enqueues);
        let _ = writeln!(out, "snapshots      {}", self.snapshots);
        let _ = writeln!(
            out,
            "events         generated={} delivered={}",
            self.events_generated, self.delivered
        );
        if let Some(m) = &self.metrics {
            let _ = writeln!(
                out,
                "metrics        generated={} distinct={} delay_sum_s={} sinks={}",
                m.generated, m.distinct, m.delay_sum_s, m.sinks
            );
        }
        if !self.drop_reasons.is_empty() || !self.item_drop_reasons.is_empty() {
            let _ = writeln!(out, "\n## loss attribution");
            let _ = writeln!(out, "{:<18} {:>10} {:>10}", "reason", "frames", "items");
            // BTreeMap iteration is sorted by reason label, so the table is
            // byte-stable across runs and platforms.
            let mut reasons: Vec<&str> = self
                .drop_reasons
                .keys()
                .chain(self.item_drop_reasons.keys())
                .copied()
                .collect();
            reasons.sort();
            reasons.dedup();
            for reason in reasons {
                let f = self.drop_reasons.get(reason).copied().unwrap_or(0);
                let i = self.item_drop_reasons.get(reason).copied().unwrap_or(0);
                let _ = writeln!(out, "{reason:<18} {f:>10} {i:>10}");
            }
        }
        let _ = writeln!(out, "energy_total_j {:.9}", self.total_energy_j());
        if let Some((events, j)) = self.run_end {
            let drift = (self.total_energy_j() - j).abs();
            let _ = writeln!(out, "run_end        events={events} total_energy_j={j:.9}");
            let _ = writeln!(out, "debit_drift_j  {drift:.3e}");
        }
        if !self.nodes.is_empty() {
            let _ = writeln!(out, "\n## per-node energy histogram (J/node)");
            let hist = self.energy_histogram(buckets);
            let peak = hist.iter().map(|&(_, _, c)| c).max().unwrap_or(1).max(1);
            for (lo, hi, count) in hist {
                let bar = "#".repeat(count * 40 / peak);
                let _ = writeln!(out, "[{lo:>12.6}, {hi:>12.6})  {count:>5}  {bar}");
            }
            let _ = writeln!(out, "\n## top {top} hottest nodes");
            let _ = writeln!(
                out,
                "{:>6} {:>14} {:>8} {:>8} {:>8} {:>8}",
                "node", "energy_j", "tx", "rx", "drops", "colls"
            );
            for (id, e) in self.hottest(top) {
                let t = &self.nodes[id as usize];
                let _ = writeln!(
                    out,
                    "{:>6} {:>14.6} {:>8} {:>8} {:>8} {:>8}",
                    format!("n{id}"),
                    e,
                    t.tx,
                    t.rx,
                    t.drops,
                    t.collisions
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn debit(node: u32, state: &'static str, joules: f64) -> TraceRecord {
        TraceRecord::EnergyDebit {
            t_ns: 0,
            node,
            state,
            joules,
        }
    }

    #[test]
    fn record_and_line_reductions_agree() {
        let recs = vec![
            TraceRecord::RunStart { seed: 9, nodes: 3 },
            debit(0, "idle", 1.0),
            debit(1, "tx", 2.0),
            debit(1, "rx", 0.5),
            TraceRecord::PacketTx {
                t_ns: 1,
                node: 1,
                tx: 1,
                kind: "data",
                bytes: 64,
                dst: None,
                lineage: Some("0#1".into()),
            },
            TraceRecord::PacketDrop {
                t_ns: 2,
                node: 2,
                reason: crate::record::DropReason::Collision,
                tx: Some(1),
            },
            TraceRecord::ItemDrop {
                t_ns: 2,
                node: 2,
                src: 0,
                seq: 1,
                reason: crate::record::DropReason::NoRoute,
            },
            TraceRecord::Collision { t_ns: 2, node: 2 },
            TraceRecord::AggMerge {
                t_ns: 2,
                node: 1,
                inputs: 3,
                items: 2,
                cost: 4.5,
                lineage: "0#1,2#1".into(),
            },
            TraceRecord::RunEnd {
                t_ns: 3,
                events: 5,
                total_energy_j: 3.5,
            },
        ];
        let mut from_records = TraceSummary::new();
        let mut text = String::new();
        for r in &recs {
            from_records.add_record(r);
            text.push_str(&r.to_json());
            text.push('\n');
        }
        let from_lines = TraceSummary::from_text(&text);
        assert_eq!(from_records.records, from_lines.records);
        assert_eq!(from_lines.skipped_lines, 0);
        assert_eq!(from_records.total_energy_j(), from_lines.total_energy_j());
        assert_eq!(from_lines.total_energy_j(), 3.5);
        assert_eq!(from_lines.nodes.len(), 3);
        assert_eq!(from_lines.nodes[1].tx, 1);
        assert_eq!(from_lines.nodes[2].collisions, 1);
        assert_eq!(from_lines.nodes[2].drops, 1);
        assert_eq!(from_lines.drop_reasons.get("collision"), Some(&1));
        assert_eq!(from_lines.item_drop_reasons.get("no_route"), Some(&1));
        assert_eq!(from_records.drop_reasons, from_lines.drop_reasons);
        assert_eq!(from_records.item_drop_reasons, from_lines.item_drop_reasons);
        assert_eq!(from_lines.run_end, Some((5, 3.5)));
        assert_eq!(from_lines.seed, Some(9));
        assert_eq!(from_lines.tx_by_kind, [1, 0, 0, 0]);
        assert_eq!(
            from_lines.energy_nj,
            [0, 1_000_000_000, 500_000_000, 2_000_000_000]
        );
        assert_eq!((from_lines.merges, from_lines.merge_inputs), (1, 3));
    }

    #[test]
    fn profile_rows_sort_hottest_first_with_label_ties() {
        let mut s = TraceSummary::new();
        for (label, total) in [("b_ev", 10), ("a_ev", 10), ("c_ev", 99)] {
            s.add_record(&TraceRecord::Profile {
                label: label.into(),
                count: 1,
                total_ns: total,
                max_ns: total,
            });
        }
        let rows = s.profile_rows();
        let labels: Vec<&str> = rows.iter().map(|r| r.label.as_str()).collect();
        assert_eq!(labels, vec!["c_ev", "a_ev", "b_ev"]);
        assert!(s.render_profile().contains("dispatch profile"));
    }

    #[test]
    fn hottest_sorts_descending_with_stable_ties() {
        let mut s = TraceSummary::new();
        s.add_record(&debit(0, "tx", 1.0));
        s.add_record(&debit(1, "tx", 3.0));
        s.add_record(&debit(2, "tx", 1.0));
        assert_eq!(s.hottest(2), vec![(1, 3.0), (0, 1.0)]);
    }

    #[test]
    fn histogram_covers_extremes() {
        let mut s = TraceSummary::new();
        for (n, j) in [(0, 0.0), (1, 5.0), (2, 10.0)] {
            s.add_record(&debit(n, "idle", j));
        }
        let h = s.energy_histogram(2);
        assert_eq!(h.len(), 2);
        // Bins are half-open, so the 5.0 edge value lands in the upper bin
        // and the max value clamps into the last bin.
        assert_eq!(h[0].2, 1);
        assert_eq!(h[1].2, 2);
        assert_eq!(h.iter().map(|&(_, _, c)| c).sum::<usize>(), 3);
    }

    #[test]
    fn render_mentions_key_sections() {
        let mut s = TraceSummary::new();
        s.add_record(&TraceRecord::RunStart { seed: 1, nodes: 2 });
        s.add_record(&debit(0, "tx", 2.0));
        let text = s.render(5, 4);
        assert!(text.contains("per-node energy histogram"));
        assert!(text.contains("hottest nodes"));
        assert!(text.contains("energy_total_j"));
    }

    #[test]
    fn unparsable_lines_are_counted_not_fatal() {
        let s = TraceSummary::from_text(
            "garbage\n{\"ev\":\"enq\",\"t_ns\":1,\"node\":0,\"bytes\":64}\n",
        );
        assert_eq!(s.skipped_lines, 1);
        assert_eq!(s.enqueues, 1);
    }
}
