//! Replaying a trace and checking its conservation invariants.
//!
//! A schema-v2 trace is a *self-verifying artifact*: it carries both the
//! raw causal record (transmissions, receptions, losses, lineage births
//! and deaths, energy debits) and the metrics the run reported (`metrics`
//! and `run_end` lines). The [`Auditor`] decodes each line into a typed
//! [`TraceRecord`], replays it, and checks that the two agree. Every count
//! it reports comes from the trace's one reduction, a [`TraceSummary`] it
//! folds alongside; the auditor itself keeps only invariant state.
//!
//! 1. **Framing** — exactly one `run_start` (first), exactly one `run_end`
//!    (last), every record line decodes (a line tagged as a record that
//!    breaks the schema — a missing field, an unknown label, a `run_start`
//!    of another [`crate::SCHEMA_VERSION`] — is a violation, while foreign
//!    lines are skipped).
//! 2. **Rx ⇔ tx pairing** — every reception (and every collision /
//!    retry-limit drop that names a transmission) refers to a transmission
//!    already on the air, from the sender the record claims, with the same
//!    byte count, strictly after the transmission started.
//! 3. **Energy conservation** — per-node debits, summed per state in
//!    [`crate::ENERGY_STATES`] order and then across nodes in node order,
//!    must equal the `run_end` total *bit for bit* (the emission path
//!    mirrors the meter's bucket arithmetic exactly), and reconcile with
//!    the harvested `metrics` total to 1 nJ (the harvest happens before the
//!    final partial intervals fold into their buckets, which can perturb
//!    the association order of the sum by an ulp).
//! 4. **Lineage conservation** — every `deliver` names a lineage id that
//!    was born in an `event_gen` line (with the matching generation time),
//!    no `(sink, id)` pair delivers twice, and the lineage-recomputed
//!    generated count, distinct count, delay sum, delivery ratio, and
//!    average delay *exactly* equal the reported metrics.
//!
//! The checks recompute floating-point quantities in the same association
//! order the simulator used (see `DESIGN.md` §13), which is what makes
//! exact — not approximate — comparison possible.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;

use crate::record::{DecodeError, DropReason, TraceRecord};
use crate::report::TraceSummary;

/// How far apart the debit sum and the harvested `metrics` energy total may
/// drift (the harvest precedes the final interval close-out; see module
/// docs). One nanojoule is ~9 orders of magnitude above the observed ulp.
pub const ENERGY_DRIFT_TOLERANCE_J: f64 = 1e-9;

/// One broken invariant found while replaying a trace.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// The trace's run framing is broken (missing/duplicated/misplaced
    /// `run_start`/`run_end`, wrong schema version).
    Framing(String),
    /// A reception or drop does not pair with the transmission it names.
    TxPairing {
        /// Simulated time of the offending record, nanoseconds.
        t_ns: u64,
        /// The node the offending record belongs to.
        node: u32,
        /// The transmission id the record names.
        tx: u64,
        /// What about the pairing is broken.
        detail: String,
    },
    /// Summed energy debits disagree with a reported total.
    Energy {
        /// Which total the debits were compared against.
        against: &'static str,
        /// The per-state, per-node debit sum, joules.
        debited: f64,
        /// The total the trace reported, joules.
        reported: f64,
    },
    /// A lineage id is used before birth, twice, or inconsistently.
    Lineage(String),
    /// A lineage-recomputed count disagrees with the reported metrics.
    Count {
        /// Which counter disagrees.
        what: &'static str,
        /// The value recomputed from the causal record.
        recomputed: u64,
        /// The value the `metrics`/`run_end` line reported.
        reported: u64,
    },
    /// A lineage-recomputed metric disagrees with the reported metrics
    /// (comparison is exact: same inputs, same association order).
    Metric {
        /// Which metric disagrees.
        what: &'static str,
        /// The value recomputed from the causal record.
        recomputed: f64,
        /// The value derived from the `metrics` line.
        reported: f64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Framing(msg) => write!(f, "framing: {msg}"),
            Violation::TxPairing {
                t_ns,
                node,
                tx,
                detail,
            } => write!(f, "tx-pairing: t_ns={t_ns} node={node} tx={tx}: {detail}"),
            Violation::Energy {
                against,
                debited,
                reported,
            } => write!(
                f,
                "energy: debit sum {debited} vs {against} {reported} (diff {:e})",
                debited - reported
            ),
            Violation::Lineage(msg) => write!(f, "lineage: {msg}"),
            Violation::Count {
                what,
                recomputed,
                reported,
            } => write!(
                f,
                "count: {what} recomputed {recomputed} vs reported {reported}"
            ),
            Violation::Metric {
                what,
                recomputed,
                reported,
            } => write!(
                f,
                "metric: {what} recomputed {recomputed} vs reported {reported}"
            ),
        }
    }
}

/// A transmission seen on the air, kept for rx/drop pairing.
#[derive(Debug, Clone, Copy)]
struct TxInfo {
    node: u32,
    bytes: u32,
    t_ns: u64,
}

/// The outcome of auditing one trace.
#[derive(Debug, Clone, Default)]
pub struct AuditReport {
    /// Non-blank lines consumed, records or not.
    pub lines: u64,
    /// The trace's reduction: every count the audit reports.
    pub summary: TraceSummary,
    /// Every broken invariant, in replay order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// Whether the trace upheld every invariant.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Renders the audit verdict as a short human-readable block.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let s = &self.summary;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "lines {} (skipped {}), tx {}, rx {}, generated {}, delivered {}",
            self.lines,
            s.skipped_lines,
            s.node_total(|t| t.tx),
            s.node_total(|t| t.rx),
            s.events_generated,
            s.delivered
        );
        let frame: u64 = s.drop_reasons.values().sum();
        let item: u64 = s.item_drop_reasons.values().sum();
        let _ = writeln!(out, "frame drops {frame}, item drops {item}:");
        for reason in DropReason::ALL {
            let f = s.drop_reasons.get(reason.name()).copied().unwrap_or(0);
            let i = s.item_drop_reasons.get(reason.name()).copied().unwrap_or(0);
            if f > 0 || i > 0 {
                let _ = writeln!(out, "  {:<18} frames {f:>8}  items {i:>8}", reason.name());
            }
        }
        let _ = writeln!(out, "debited energy {:.9} J", s.total_energy_j());
        if self.ok() {
            let _ = writeln!(out, "verdict: OK (0 violations)");
        } else {
            let _ = writeln!(out, "verdict: {} violation(s)", self.violations.len());
            for v in &self.violations {
                let _ = writeln!(out, "  VIOLATION {v}");
            }
        }
        out
    }
}

/// Streaming trace auditor: feed lines, then [`Auditor::finish`].
#[derive(Debug, Default)]
pub struct Auditor {
    report: AuditReport,
    records_after_end: u64,
    /// Transmissions on the air, by tx id.
    txs: HashMap<u64, TxInfo>,
    /// Birth time of each lineage id, keyed `(src, seq)`.
    births: HashMap<(u32, u32), u64>,
    /// Delivered `(sink, src, seq)` triples (for duplicate detection).
    deliveries: HashSet<(u32, u32, u32)>,
    /// Per-sink delay sums, accumulated in arrival order (the same
    /// association order `SinkStats` used), keyed by sink node id.
    sink_delay_s: BTreeMap<u32, f64>,
}

impl Auditor {
    /// A fresh auditor.
    pub fn new() -> Self {
        Auditor::default()
    }

    /// Decodes and replays one NDJSON line. A foreign line is skipped; a
    /// record line that fails to decode is a [`Violation::Framing`].
    pub fn add_line(&mut self, line: &str) {
        if line.trim().is_empty() {
            return;
        }
        self.report.lines += 1;
        match TraceRecord::from_json(line) {
            Ok(rec) => self.replay(&rec),
            Err(err) => {
                self.report.summary.skipped_lines += 1;
                if let DecodeError::Invalid(msg) = err {
                    let at = self.report.lines;
                    self.violation(Violation::Framing(format!("line {at}: {msg}")));
                }
            }
        }
    }

    /// Checks one record's invariants, then folds it into the summary.
    fn replay(&mut self, rec: &TraceRecord) {
        let tag = rec.tag();
        if self.report.summary.records == 0 && tag != "run_start" {
            self.violation(Violation::Framing(format!(
                "first record is {tag:?}, expected run_start"
            )));
        }
        if self.report.summary.run_end.is_some() {
            self.records_after_end += 1;
        }
        match *rec {
            TraceRecord::RunStart { .. } if self.report.summary.seed.is_some() => {
                self.violation(Violation::Framing("duplicate run_start".into()))
            }
            TraceRecord::PacketTx {
                t_ns,
                node,
                tx,
                bytes,
                ..
            } => {
                self.txs.insert(tx, TxInfo { node, bytes, t_ns });
            }
            TraceRecord::PacketRx {
                t_ns,
                node,
                from,
                tx,
                bytes,
            } => {
                let pairing = |detail: String| Violation::TxPairing {
                    t_ns,
                    node,
                    tx,
                    detail,
                };
                match self.txs.get(&tx).copied() {
                    None => self.violation(pairing(
                        "rx names a transmission never put on the air".into(),
                    )),
                    Some(info) => {
                        if from != info.node {
                            self.violation(pairing(format!(
                                "rx claims sender {from}, transmission came from {}",
                                info.node
                            )));
                        }
                        if bytes != info.bytes {
                            self.violation(pairing(format!(
                                "rx bytes {bytes} != tx bytes {}",
                                info.bytes
                            )));
                        }
                        if t_ns <= info.t_ns {
                            self.violation(pairing(format!(
                                "rx at {t_ns} not after tx start {}",
                                info.t_ns
                            )));
                        }
                    }
                }
            }
            TraceRecord::PacketDrop {
                t_ns,
                node,
                tx: Some(tx),
                ..
            } if !self.txs.contains_key(&tx) => self.violation(Violation::TxPairing {
                t_ns,
                node,
                tx,
                detail: "drop names a transmission never put on the air".into(),
            }),
            TraceRecord::ItemDrop { node, src, seq, .. }
                if !self.births.contains_key(&(src, seq)) =>
            {
                self.violation(Violation::Lineage(format!(
                    "item_drop at node {node} names unborn lineage {src}#{seq}"
                )))
            }
            TraceRecord::EventGen { t_ns, node, seq } => {
                let reborn = self.births.insert((node, seq), t_ns).is_some();
                if reborn {
                    self.violation(Violation::Lineage(format!(
                        "lineage {node}#{seq} generated twice"
                    )));
                }
            }
            TraceRecord::EventDeliver {
                t_ns,
                node,
                src,
                seq,
                gen_ns,
            } => {
                match self.births.get(&(src, seq)) {
                    None => self.violation(Violation::Lineage(format!(
                        "sink {node} delivered unborn lineage {src}#{seq}"
                    ))),
                    Some(&born) if born != gen_ns => self.violation(Violation::Lineage(format!(
                        "deliver of {src}#{seq} carries gen_ns {gen_ns}, born at {born}"
                    ))),
                    Some(_) => {}
                }
                if !self.deliveries.insert((node, src, seq)) {
                    self.violation(Violation::Lineage(format!(
                        "sink {node} delivered lineage {src}#{seq} twice"
                    )));
                }
                // Recompute the delay exactly as SinkStats did: u64
                // saturating subtraction, then nanos / 1e9, accumulated
                // per sink in arrival order.
                let delay_s = t_ns.saturating_sub(gen_ns) as f64 / 1e9;
                *self.sink_delay_s.entry(node).or_insert(0.0) += delay_s;
            }
            TraceRecord::RunEnd { .. } => {
                if self.report.summary.run_end.is_some() {
                    self.violation(Violation::Framing("duplicate run_end".into()));
                }
                self.records_after_end = 0;
            }
            // The summary alone reduces the rest: structural records with
            // no conservation invariant of their own, and the reported
            // totals that `finish` checks.
            _ => {}
        }
        self.report.summary.add_record(rec);
    }

    fn violation(&mut self, v: Violation) {
        self.report.violations.push(v);
    }

    /// Runs the end-of-trace checks and returns the report.
    pub fn finish(mut self) -> AuditReport {
        let end = self.end_violations();
        self.report.violations.extend(end);
        self.report
    }

    /// The framing, energy and lineage checks over the whole replay.
    fn end_violations(&self) -> Vec<Violation> {
        let s = &self.report.summary;
        let mut out = Vec::new();
        if s.seed.is_none() {
            out.push(Violation::Framing("no run_start".into()));
        }
        let Some((_, reported_total)) = s.run_end else {
            out.push(Violation::Framing("missing run_end".into()));
            return out;
        };
        if self.records_after_end > 0 {
            out.push(Violation::Framing(format!(
                "{} record(s) after run_end",
                self.records_after_end
            )));
        }
        // Energy conservation: per node, states summed in ENERGY_STATES
        // order; nodes summed in node order — the meter's own association
        // order, so the comparison against run_end is exact.
        let debited = s.total_energy_j();
        if debited != reported_total {
            out.push(Violation::Energy {
                against: "run_end total",
                debited,
                reported: reported_total,
            });
        }
        // Lineage conservation against the harvested metrics.
        let Some(m) = s.metrics else {
            if s.events_generated > 0 || s.delivered > 0 {
                out.push(Violation::Framing(
                    "trace has lineage records but no metrics record".into(),
                ));
            }
            return out;
        };
        if (debited - m.total_energy_j).abs() > ENERGY_DRIFT_TOLERANCE_J {
            out.push(Violation::Energy {
                against: "harvested metrics total",
                debited,
                reported: m.total_energy_j,
            });
        }
        if s.events_generated != m.generated {
            out.push(Violation::Count {
                what: "generated events",
                recomputed: s.events_generated,
                reported: m.generated,
            });
        }
        if s.delivered != m.distinct {
            out.push(Violation::Count {
                what: "distinct deliveries",
                recomputed: s.delivered,
                reported: m.distinct,
            });
        }
        // Cross-sink sum in node-id order — Experiment's harvest order.
        let delay_sum: f64 = self.sink_delay_s.values().sum();
        if delay_sum != m.delay_sum_s {
            out.push(Violation::Metric {
                what: "delay sum (s)",
                recomputed: delay_sum,
                reported: m.delay_sum_s,
            });
        }
        // The paper's derived metrics, by the RunRecord::metrics formulas,
        // from recomputed vs reported inputs.
        let recomputed_ratio = ratio(s.delivered, s.events_generated, m.sinks);
        let reported_ratio = ratio(m.distinct, m.generated, m.sinks);
        if recomputed_ratio != reported_ratio {
            out.push(Violation::Metric {
                what: "delivery ratio",
                recomputed: recomputed_ratio,
                reported: reported_ratio,
            });
        }
        let recomputed_delay = avg_delay(delay_sum, s.delivered);
        let reported_delay = avg_delay(m.delay_sum_s, m.distinct);
        if recomputed_delay != reported_delay {
            out.push(Violation::Metric {
                what: "average delay (s)",
                recomputed: recomputed_delay,
                reported: reported_delay,
            });
        }
        out
    }
}

/// The distinct-event delivery ratio, exactly as `RunRecord::metrics`
/// computes it.
fn ratio(distinct: u64, generated: u64, sinks: u32) -> f64 {
    let expected = generated.saturating_mul(u64::from(sinks));
    if expected == 0 {
        0.0
    } else {
        distinct as f64 / expected as f64
    }
}

/// The average delay, exactly as `RunRecord::metrics` computes it.
fn avg_delay(delay_sum_s: f64, distinct: u64) -> f64 {
    if distinct == 0 {
        0.0
    } else {
        delay_sum_s / distinct as f64
    }
}

/// Audits a whole NDJSON text.
pub fn audit_text(text: &str) -> AuditReport {
    let mut a = Auditor::new();
    for line in text.lines() {
        a.add_line(line);
    }
    a.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn to_text(recs: &[TraceRecord]) -> String {
        let mut text = String::new();
        for r in recs {
            text.push_str(&r.to_json());
            text.push('\n');
        }
        text
    }

    fn minimal_consistent() -> Vec<TraceRecord> {
        vec![
            TraceRecord::RunStart { seed: 1, nodes: 3 },
            TraceRecord::EventGen {
                t_ns: 100,
                node: 1,
                seq: 0,
            },
            TraceRecord::PacketTx {
                t_ns: 150,
                node: 1,
                tx: 1,
                kind: "data",
                bytes: 64,
                dst: Some(0),
                lineage: Some("1#0".into()),
            },
            TraceRecord::PacketRx {
                t_ns: 200,
                node: 0,
                from: 1,
                tx: 1,
                bytes: 64,
            },
            TraceRecord::EventDeliver {
                t_ns: 200,
                node: 0,
                src: 1,
                seq: 0,
                gen_ns: 100,
            },
            TraceRecord::EnergyDebit {
                t_ns: 200,
                node: 1,
                state: "tx",
                joules: 0.5,
            },
            TraceRecord::EnergyDebit {
                t_ns: 200,
                node: 0,
                state: "rx",
                joules: 0.25,
            },
            TraceRecord::RunMetrics {
                t_ns: 300,
                generated: 1,
                distinct: 1,
                delay_sum_s: 100e-9,
                sinks: 1,
                total_energy_j: 0.75,
            },
            TraceRecord::RunEnd {
                t_ns: 300,
                events: 0,
                total_energy_j: 0.75,
            },
        ]
    }

    #[test]
    fn consistent_trace_audits_clean() {
        let report = audit_text(&to_text(&minimal_consistent()));
        assert!(report.ok(), "violations: {:?}", report.violations);
        let s = &report.summary;
        assert_eq!(s.node_total(|t| t.tx), 1);
        assert_eq!(s.node_total(|t| t.rx), 1);
        assert_eq!(s.events_generated, 1);
        assert_eq!(s.delivered, 1);
        assert_eq!(s.total_energy_j(), 0.75);
    }

    /// Audits the consistent trace with `from` replaced by `to` on the
    /// first line containing `from`.
    fn audit_edited(from: &str, to: &str) -> AuditReport {
        let text = to_text(&minimal_consistent());
        assert!(text.contains(from), "{from} in {text}");
        audit_text(&text.replacen(from, to, 1))
    }

    #[test]
    fn undecodable_record_lines_are_framing_violations() {
        for (from, to) in [
            // A transmission without its id.
            ("\"tx\":1,", ""),
            // A lineage birth without its seq (0 here, so a reader that
            // defaulted the missing field would see nothing wrong).
            (",\"seq\":0}", "}"),
            // An energy debit in a radio state the schema does not know.
            ("\"state\":\"tx\"", "\"state\":\"sleep\""),
            // A run_start of another schema generation.
            ("\"v\":2", "\"v\":1"),
        ] {
            let report = audit_edited(from, to);
            assert!(
                report
                    .violations
                    .iter()
                    .any(|v| matches!(v, Violation::Framing(_))),
                "{from:?} -> {to:?}: {:?}",
                report.violations
            );
            assert_eq!(report.summary.skipped_lines, 1, "{from:?} -> {to:?}");
        }
    }

    #[test]
    fn foreign_lines_are_skipped_not_violations() {
        let mut text = to_text(&minimal_consistent());
        text.insert_str(text.find('\n').unwrap() + 1, "garbage line\n{\"note\":1}\n");
        let report = audit_text(&text);
        assert!(report.ok(), "violations: {:?}", report.violations);
        assert_eq!(report.summary.skipped_lines, 2);
        assert_eq!(report.lines, 11);
    }

    #[test]
    fn orphan_rx_is_flagged() {
        let mut recs = minimal_consistent();
        recs.insert(
            2,
            TraceRecord::PacketRx {
                t_ns: 120,
                node: 2,
                from: 1,
                tx: 99,
                bytes: 64,
            },
        );
        let report = audit_text(&to_text(&recs));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::TxPairing { tx: 99, .. })));
    }

    #[test]
    fn energy_shortfall_is_flagged() {
        let mut recs = minimal_consistent();
        recs.retain(|r| !matches!(r, TraceRecord::EnergyDebit { node: 0, .. }));
        let report = audit_text(&to_text(&recs));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Energy { .. })));
    }

    #[test]
    fn unborn_and_duplicate_deliveries_are_flagged() {
        let mut recs = minimal_consistent();
        let dup = TraceRecord::EventDeliver {
            t_ns: 250,
            node: 0,
            src: 1,
            seq: 0,
            gen_ns: 100,
        };
        let unborn = TraceRecord::EventDeliver {
            t_ns: 250,
            node: 0,
            src: 2,
            seq: 7,
            gen_ns: 10,
        };
        recs.insert(5, dup);
        recs.insert(6, unborn);
        let report = audit_text(&to_text(&recs));
        let lineage_violations = report
            .violations
            .iter()
            .filter(|v| matches!(v, Violation::Lineage(_)))
            .count();
        assert!(lineage_violations >= 2, "{:?}", report.violations);
    }

    #[test]
    fn metric_mismatch_is_flagged_exactly() {
        let mut recs = minimal_consistent();
        for r in &mut recs {
            if let TraceRecord::RunMetrics { delay_sum_s, .. } = r {
                *delay_sum_s += 1e-15; // one ulp of drift is a violation
            }
        }
        let report = audit_text(&to_text(&recs));
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Metric { .. })));
    }

    #[test]
    fn missing_framing_is_flagged() {
        let report = audit_text("");
        assert!(!report.ok());
        let report = audit_text("{\"ev\":\"enq\",\"t_ns\":1,\"node\":0,\"bytes\":64}\n");
        assert!(report
            .violations
            .iter()
            .any(|v| matches!(v, Violation::Framing(_))));
    }
}
