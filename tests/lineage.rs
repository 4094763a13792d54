//! The lineage contract, end to end: every distinct event's birth
//! (`event_gen`) and first sink arrival (`deliver`) land in the trace, and
//! recomputing the paper's delivery-ratio and average-delay metrics from
//! those records alone reproduces the run's reported metrics *exactly* —
//! bit-for-bit, not approximately. The audit module checks the same
//! invariants (plus tx/rx pairing and energy conservation) from the NDJSON
//! text, so a full-run trace must audit clean.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use wsn::core::{Experiment, RunOutcome};
use wsn::diffusion::Scheme;
use wsn::net::TraceOptions;
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimDuration;
use wsn::trace::{audit_text, parse_line, split_lineage, JsonlSink, SharedSink};

fn experiment(nodes: usize, scheme: Scheme, seed: u64) -> Experiment {
    let mut spec = ScenarioSpec::paper(nodes, seed);
    spec.duration = SimDuration::from_secs(30);
    Experiment::new(spec, scheme)
}

/// Runs `exp` traced into NDJSON text.
fn traced_text(exp: &Experiment) -> (String, RunOutcome) {
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    let (outcome, _) = exp
        .run_on_observed(
            &exp.scenario.instantiate(),
            u64::MAX,
            Some((handle, TraceOptions::default())),
            None,
            None,
        )
        .expect("u64::MAX budget cannot trip");
    let bytes = Rc::try_unwrap(sink)
        .expect("the engine must release its sink handle at run end")
        .into_inner()
        .into_inner()
        .expect("Vec writer cannot fail");
    (
        String::from_utf8(bytes).expect("traces are ASCII JSON"),
        outcome,
    )
}

/// Recomputes `(generated, distinct, delay_sum_s)` from the lineage records
/// alone, replicating the measurement pipeline's association order: per-sink
/// delays accumulate in arrival order (`SinkStats`), sinks fold in node-id
/// order (the harvest loop).
fn recompute(text: &str) -> (u64, u64, f64) {
    let mut generated = 0u64;
    let mut distinct = 0u64;
    let mut sink_delay: BTreeMap<u32, f64> = BTreeMap::new();
    for line in text.lines() {
        let Some(p) = parse_line(line) else { continue };
        match p.tag() {
            Some("event_gen") => generated += 1,
            Some("deliver") => {
                let t_ns = p.u64_field("t_ns").expect("deliver carries t_ns");
                let gen_ns = p.u64_field("gen_ns").expect("deliver carries gen_ns");
                let node = p.u32_field("node").expect("deliver carries node");
                distinct += 1;
                *sink_delay.entry(node).or_insert(0.0) += t_ns.saturating_sub(gen_ns) as f64 / 1e9;
            }
            _ => {}
        }
    }
    (generated, distinct, sink_delay.values().sum())
}

/// The exactness contract for one configuration. Asserted with `==` on
/// `f64` deliberately: the lineage stream must reproduce the run's metrics
/// to the last bit, which is what makes the trace auditor's equality checks
/// (rather than tolerances) possible.
fn assert_lineage_reproduces_metrics(nodes: usize, scheme: Scheme) {
    let exp = experiment(nodes, scheme, 77);
    let (text, outcome) = traced_text(&exp);
    let (generated, distinct, delay_sum_s) = recompute(&text);

    assert_eq!(
        generated, outcome.record.events_generated,
        "{scheme:?}/{nodes}"
    );
    assert_eq!(
        distinct, outcome.record.distinct_events,
        "{scheme:?}/{nodes}"
    );
    assert!(distinct > 0, "a 30 s run must deliver events");
    assert_eq!(
        delay_sum_s, outcome.record.delay_sum_s,
        "{scheme:?}/{nodes}: lineage delay sum must be bit-identical"
    );

    // The paper's derived metrics, recomputed with the RunRecord formulas.
    let expected_deliveries = generated.saturating_mul(outcome.record.sink_count as u64);
    let ratio = if expected_deliveries > 0 {
        distinct as f64 / expected_deliveries as f64
    } else {
        0.0
    };
    let avg_delay = if distinct > 0 {
        delay_sum_s / distinct as f64
    } else {
        0.0
    };
    let m = outcome.record.metrics();
    assert_eq!(ratio, m.delivery_ratio, "{scheme:?}/{nodes}");
    assert_eq!(avg_delay, m.avg_delay_s, "{scheme:?}/{nodes}");

    // And the auditor agrees, from the NDJSON text alone.
    let report = audit_text(&text);
    assert!(
        report.ok(),
        "{scheme:?}/{nodes}: audit found violations:\n{}",
        report.render()
    );
}

#[test]
fn greedy_lineage_reproduces_metrics_sparse() {
    assert_lineage_reproduces_metrics(50, Scheme::Greedy);
}

#[test]
fn greedy_lineage_reproduces_metrics_dense() {
    assert_lineage_reproduces_metrics(100, Scheme::Greedy);
}

#[test]
fn opportunistic_lineage_reproduces_metrics_sparse() {
    assert_lineage_reproduces_metrics(50, Scheme::Opportunistic);
}

#[test]
fn opportunistic_lineage_reproduces_metrics_dense() {
    assert_lineage_reproduces_metrics(100, Scheme::Opportunistic);
}

#[test]
fn payload_frames_carry_lineage_and_merges_list_absorbed_ids() {
    let exp = experiment(60, Scheme::Greedy, 5);
    let (text, _) = traced_text(&exp);
    let mut stamped_tx = 0u64;
    let mut merged_ids = 0usize;
    for line in text.lines() {
        let Some(p) = parse_line(line) else { continue };
        match p.tag() {
            Some("tx") => {
                if let Some(l) = p.str_field("lineage") {
                    stamped_tx += 1;
                    assert!(!split_lineage(l).is_empty(), "tx lineage must parse: {l:?}");
                }
            }
            Some("agg_merge") => {
                let l = p.str_field("lineage").expect("merges list lineage");
                let items = p.u32_field("items").expect("merges count items");
                let ids = split_lineage(l);
                assert_eq!(
                    ids.len() as u32,
                    items,
                    "merge must list exactly its absorbed lineage ids"
                );
                merged_ids += ids.len();
            }
            _ => {}
        }
    }
    assert!(stamped_tx > 0, "payload transmissions must carry lineage");
    assert!(merged_ids > 0, "aggregation merges must absorb lineage ids");
}
