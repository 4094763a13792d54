//! The telemetry contract, end to end: traces are a pure function of
//! `(scenario, seed)` — byte-identical across repeated runs — their energy
//! debits reconcile with the run's metrics, and tracing never perturbs the
//! simulation it observes.

use std::cell::RefCell;
use std::rc::Rc;

use wsn::core::{Experiment, RunOutcome};
use wsn::diffusion::Scheme;
use wsn::net::TraceOptions;
use wsn::scenario::ScenarioSpec;
use wsn::sim::{SharedProfile, SimDuration};
use wsn::trace::{JsonlSink, MemSink, SharedSink, TraceSummary};

fn experiment(nodes: usize, seed: u64) -> Experiment {
    let mut spec = ScenarioSpec::paper(nodes, seed);
    spec.duration = SimDuration::from_secs(30);
    Experiment::new(spec, Scheme::Greedy)
}

fn full_options() -> TraceOptions {
    TraceOptions {
        snapshot_every: Some(SimDuration::from_secs(10)),
    }
}

/// Runs `exp` unbudgeted with `trace` and `profile` attached.
fn observed(
    exp: &Experiment,
    trace: Option<(SharedSink, TraceOptions)>,
    profile: Option<SharedProfile>,
) -> RunOutcome {
    let instance = exp.scenario.instantiate();
    exp.run_on_observed(&instance, u64::MAX, trace, profile, None)
        .expect("u64::MAX budget cannot trip")
        .0
}

/// Runs `exp` with a JSONL sink over an in-memory buffer and returns the
/// trace bytes alongside the outcome.
fn traced_bytes(exp: &Experiment, opts: TraceOptions) -> (Vec<u8>, RunOutcome) {
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    let outcome = observed(exp, Some((handle, opts)), None);
    // finish_trace drops the engine's handle, so ours is the last one.
    let sink = Rc::try_unwrap(sink)
        .expect("the engine must release its sink handle at run end")
        .into_inner();
    (sink.into_inner().expect("Vec writer cannot fail"), outcome)
}

#[test]
fn same_seed_traces_are_byte_identical() {
    let exp = experiment(50, 42);
    let (a, _) = traced_bytes(&exp, full_options());
    let (b, _) = traced_bytes(&exp, full_options());
    assert!(!a.is_empty(), "a 30 s run must produce trace records");
    assert_eq!(a, b, "same (scenario, seed) must trace identical bytes");
}

#[test]
fn trace_lines_all_parse_and_carry_run_framing() {
    let exp = experiment(50, 42);
    let (bytes, outcome) = traced_bytes(&exp, full_options());
    let text = String::from_utf8(bytes).expect("traces are ASCII JSON");
    let summary = TraceSummary::from_text(&text);
    assert_eq!(summary.skipped_lines, 0, "every line must parse");
    assert_eq!(summary.seed, Some(42));
    assert_eq!(
        summary.schema_version,
        Some(u64::from(wsn::trace::SCHEMA_VERSION))
    );
    assert_eq!(summary.nodes.len(), 50);
    let (events, total) = summary.run_end.expect("run_end record");
    assert_eq!(events, outcome.accounting.events_processed);
    assert_eq!(total, outcome.record.total_energy_j);
    // 30 s at a 10 s cadence: snapshots at 10/20/30 s plus the final
    // snapshot_all at close-out — at least 3 per node.
    assert!(
        summary.snapshots >= 3 * 50,
        "expected >= 150 snapshots, got {}",
        summary.snapshots
    );
    assert!(summary.nodes[0].last_snapshot_energy_j.is_some());
}

#[test]
fn energy_debits_reconcile_with_the_run_record() {
    let exp = experiment(60, 7);
    let sink = Rc::new(RefCell::new(MemSink::new()));
    let handle: SharedSink = sink.clone();
    let outcome = observed(&exp, Some((handle, TraceOptions::default())), None);
    let events = Rc::try_unwrap(sink)
        .expect("engine released its handle")
        .into_inner()
        .events;
    let mut summary = TraceSummary::new();
    for rec in &events {
        summary.add_record(rec);
    }
    let debited = summary.total_energy_j();
    let recorded = outcome.record.total_energy_j;
    assert!(
        (debited - recorded).abs() < 1e-9,
        "debit sum {debited} vs RunRecord total {recorded}"
    );
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let exp = experiment(50, 13);
    let untraced = exp.run();
    // Snapshots off: the traced run dispatches the same event sequence.
    let (_, traced) = traced_bytes(&exp, TraceOptions::default());
    assert_eq!(
        untraced.record, traced.record,
        "metrics must be bit-identical"
    );
    assert_eq!(untraced.accounting, traced.accounting);
    assert_eq!(untraced.hotspot, traced.hotspot);
    // Snapshots on: the extra read-only snapshot events are accounted, but
    // the physics is unchanged.
    let (_, snapshotted) = traced_bytes(&exp, full_options());
    assert_eq!(untraced.record, snapshotted.record);
    assert_eq!(untraced.hotspot, snapshotted.hotspot);
}

#[test]
fn profiling_does_not_perturb_metrics() {
    let exp = experiment(50, 21);
    let untraced = exp.run();
    // Profiler only (no trace): bit-identical metrics, every dispatched
    // event profiled.
    let profile = wsn::sim::shared_profile(wsn::sim::ProfileSink::new());
    let profiled = observed(&exp, None, Some(profile.clone()));
    assert_eq!(untraced.record, profiled.record);
    assert_eq!(untraced.accounting, profiled.accounting);
    assert_eq!(
        profile.borrow().total_count(),
        profiled.accounting.events_processed,
        "the profiler must see every dispatched event"
    );
    // Traced + profiled: still bit-identical, and the profile lands in the
    // trace as `profile` records with matching totals.
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    let profile = wsn::sim::shared_profile(wsn::sim::ProfileSink::new());
    let both = observed(
        &exp,
        Some((handle, TraceOptions::default())),
        Some(profile.clone()),
    );
    assert_eq!(untraced.record, both.record);
    let bytes = Rc::try_unwrap(sink)
        .expect("engine released its handle")
        .into_inner()
        .into_inner()
        .expect("Vec writer cannot fail");
    let summary = TraceSummary::from_text(&String::from_utf8(bytes).expect("ASCII JSON"));
    assert!(!summary.profile.is_empty(), "profile records in the trace");
    assert_eq!(
        summary.profile.iter().map(|r| r.count).sum::<u64>(),
        profile.borrow().total_count()
    );
}

#[test]
fn profile_records_stay_out_of_unprofiled_traces() {
    // Wall-clock numbers are nondeterministic; letting them leak into a
    // default trace would break the byte-identical contract above.
    let exp = experiment(50, 21);
    let (bytes, _) = traced_bytes(&exp, full_options());
    let text = String::from_utf8(bytes).expect("ASCII JSON");
    let summary = TraceSummary::from_text(&text);
    assert!(summary.profile.is_empty());
    assert!(!text.contains("\"ev\":\"profile\""));
}

#[test]
fn protocol_records_appear_in_a_real_run() {
    let exp = experiment(70, 3);
    let (bytes, _) = traced_bytes(&exp, TraceOptions::default());
    let text = String::from_utf8(bytes).expect("ASCII JSON");
    let summary = TraceSummary::from_text(&text);
    assert!(summary.reinforcements > 0, "sinks must reinforce gradients");
    assert!(summary.tree_edges > 0, "reinforcement must grow a tree");
    assert!(
        summary.merges > 0,
        "greedy aggregation must merge upstream data"
    );
    let tx: u64 = summary.nodes.iter().map(|t| t.tx).sum();
    let rx: u64 = summary.nodes.iter().map(|t| t.rx).sum();
    assert!(tx > 0 && rx > 0);
}
