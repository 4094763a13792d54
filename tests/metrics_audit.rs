//! The exact-reconciliation contract between the in-sim metrics registry
//! and the telemetry trace: every registry total is incremented beside the
//! matching trace-emission site (unconditionally, not gated on the sink),
//! so on a run with both attached the registry totals must equal the
//! trace-derived totals with **zero tolerance** — frames by kind, drops by
//! reason, collisions, item drops, reinforcements, aggregation fan-in, and
//! per-state energy in quantized nanojoules.
//!
//! The same runs pin the run's one harvest, [`RunOutcome`], against the
//! registry and the scenario: counts incremented side by side must agree
//! exactly, and the harvested tree and down set must be consistent with the
//! field and its failure schedule.
//!
//! Also pins the flight recorder's post-mortem: a run killed by the event
//! budget watchdog dumps its last-N snapshot ring into the metrics sink.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use wsn::core::{Experiment, MetricsSetup, RunOutcome};
use wsn::diffusion::{MsgKind, Scheme};
use wsn::metrics::{joules_to_nj, MetricsRegistry};
use wsn::net::{NodeId, TraceOptions};
use wsn::scenario::{FailureConfig, FailureEvent, ScenarioInstance, ScenarioSpec};
use wsn::sim::{SimDuration, SimTime};
use wsn::trace::{DropReason, JsonlSink, SharedSink, ENERGY_STATES};

/// Frame-kind labels in `phy.frames_tx{kind=..}` registration order.
const FRAME_KINDS: [&str; 4] = ["data", "ack", "rts", "cts"];

/// Totals recomputed from a trace, in the units the registry counts them.
#[derive(Default)]
struct TraceTotals {
    tx_by_kind: [u64; 4],
    rx: u64,
    collisions: u64,
    drops: [u64; 6],
    item_drops: [u64; 6],
    energy_nj: [u64; 4],
    reinforcements: u64,
    tree_edges: u64,
    agg_count: u64,
    agg_inputs_sum: u64,
}

fn reason_slot(name: &str) -> usize {
    let reason = DropReason::parse(name).expect("known drop reason");
    DropReason::ALL
        .iter()
        .position(|&r| r == reason)
        .expect("reason in ALL")
}

fn trace_totals(text: &str) -> TraceTotals {
    let mut t = TraceTotals::default();
    for line in text.lines() {
        let p = wsn::trace::parse_line(line).expect("trace lines parse");
        match p.tag().unwrap_or("") {
            "tx" => {
                let kind = p.str_field("kind").expect("tx has a kind");
                let slot = FRAME_KINDS
                    .iter()
                    .position(|&k| k == kind)
                    .expect("known frame kind");
                t.tx_by_kind[slot] += 1;
            }
            "rx" => t.rx += 1,
            "collision" => t.collisions += 1,
            "drop" => t.drops[reason_slot(p.str_field("reason").expect("reason"))] += 1,
            "item_drop" => {
                t.item_drops[reason_slot(p.str_field("reason").expect("reason"))] += 1;
            }
            "energy" => {
                let state = p.str_field("state").expect("energy has a state");
                let slot = ENERGY_STATES
                    .iter()
                    .position(|&s| s == state)
                    .expect("known radio state");
                // Quantize per debit, exactly as the registry records it —
                // summing the floats first would drift.
                t.energy_nj[slot] += joules_to_nj(p.f64_field("joules").expect("joules"));
            }
            "reinforce" => t.reinforcements += 1,
            "tree_edge" => t.tree_edges += 1,
            "agg_merge" => {
                t.agg_count += 1;
                t.agg_inputs_sum += p.u64_field("inputs").expect("inputs");
            }
            _ => {}
        }
    }
    t
}

/// Runs `spec` (instantiated as `instance`) with both a trace and metrics
/// attached; returns the outcome, the final registry and the trace text.
fn observed_run(
    spec: ScenarioSpec,
    instance: &ScenarioInstance,
    scheme: Scheme,
) -> (RunOutcome, MetricsRegistry, String) {
    let exp = Experiment::new(spec, scheme);
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    let (outcome, reg) = exp
        .run_on_observed(
            instance,
            u64::MAX,
            Some((handle, TraceOptions::default())),
            None,
            Some(MetricsSetup::in_memory()),
        )
        .expect("u64::MAX budget cannot trip");
    let reg = reg.expect("metrics were requested");
    let sink = Rc::try_unwrap(sink)
        .expect("the engine must release its sink handle at run end")
        .into_inner();
    let bytes = sink.into_inner().expect("Vec writer cannot fail");
    (
        outcome,
        reg,
        String::from_utf8(bytes).expect("traces are ASCII JSON"),
    )
}

fn counter(reg: &MetricsRegistry, name: &str) -> u64 {
    reg.counter_by_name(name)
        .unwrap_or_else(|| panic!("registered counter {name}"))
}

/// Asserts every reconcilable registry total equals the trace total.
fn assert_reconciles(reg: &MetricsRegistry, t: &TraceTotals) {
    let counter = |name: &str| counter(reg, name);
    for (slot, kind) in FRAME_KINDS.iter().enumerate() {
        assert_eq!(
            counter(&format!("phy.frames_tx{{kind={kind}}}")),
            t.tx_by_kind[slot],
            "frames_tx{{kind={kind}}}"
        );
    }
    assert_eq!(counter("phy.frames_rx"), t.rx, "frames_rx");
    assert_eq!(counter("phy.collisions"), t.collisions, "collisions");
    for (slot, reason) in DropReason::ALL.iter().enumerate() {
        assert_eq!(
            counter(&format!("phy.drops{{reason={}}}", reason.name())),
            t.drops[slot],
            "drops{{{}}}",
            reason.name()
        );
        assert_eq!(
            counter(&format!("diffusion.item_drops{{reason={}}}", reason.name())),
            t.item_drops[slot],
            "item_drops{{{}}}",
            reason.name()
        );
    }
    for (slot, state) in ENERGY_STATES.iter().enumerate() {
        assert_eq!(
            counter(&format!("phy.energy_nj{{state={state}}}")),
            t.energy_nj[slot],
            "energy_nj{{state={state}}}"
        );
    }
    assert_eq!(
        counter("diffusion.reinforcements"),
        t.reinforcements,
        "reinforcements"
    );
    assert_eq!(
        counter("diffusion.tree_edges_added"),
        t.tree_edges,
        "tree_edges_added"
    );
    let fanin = reg
        .hist_by_name("diffusion.agg_fanin")
        .expect("registered histogram");
    assert_eq!(fanin.count(), t.agg_count, "agg_fanin count");
    assert_eq!(fanin.sum(), t.agg_inputs_sum, "agg_fanin sum");
}

/// Asserts the outcome's harvest agrees exactly with the registry and with
/// the scenario the run was instantiated from.
fn assert_harvest_agrees(instance: &ScenarioInstance, outcome: &RunOutcome, reg: &MetricsRegistry) {
    // Both incremented side by side in the protocol's `send_now`.
    assert_eq!(
        outcome.sent[MsgKind::Interest.index()],
        counter(reg, "diffusion.interests_sent"),
        "interests sent"
    );
    // Both incremented together when the MAC gives up at its retry limit.
    assert_eq!(
        outcome.failed_unicasts,
        counter(
            reg,
            &format!("phy.drops{{reason={}}}", DropReason::RetryLimit.name())
        ),
        "failed unicasts"
    );
    assert_eq!(
        outcome.delays_s.len() as u64,
        outcome.record.distinct_events,
        "one delay per distinct event"
    );
    let topology = &instance.field.topology;
    for &(node, hop) in &outcome.tree_edges {
        assert!(
            topology.neighbors(node).contains(&hop),
            "tree edge {node} -> {hop} is not a link of the field"
        );
    }
    for node in &outcome.down {
        assert!(
            instance
                .failure_events
                .iter()
                .any(|e| e.down && e.node == *node),
            "{node} is down at the end without a scheduled failure"
        );
    }
}

#[test]
fn registry_totals_reconcile_exactly_with_the_trace_greedy() {
    let mut spec = ScenarioSpec::paper(60, 7);
    spec.duration = SimDuration::from_secs(60);
    let instance = spec.instantiate();
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Greedy);
    let t = trace_totals(&text);
    assert!(t.tx_by_kind[0] > 0, "a 60 s run transmits data frames");
    assert!(t.energy_nj[1] > 0, "idle energy is always debited");
    assert_reconciles(&reg, &t);
    assert!(!outcome.tree_edges.is_empty(), "a 60 s run grows a tree");
    assert_harvest_agrees(&instance, &outcome, &reg);
}

#[test]
fn registry_totals_reconcile_exactly_with_the_trace_opportunistic() {
    let mut spec = ScenarioSpec::paper(60, 7);
    spec.duration = SimDuration::from_secs(60);
    let instance = spec.instantiate();
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Opportunistic);
    let t = trace_totals(&text);
    assert!(t.agg_count > 0, "opportunistic runs merge at junctions");
    assert_reconciles(&reg, &t);
    assert_harvest_agrees(&instance, &outcome, &reg);
}

#[test]
fn reconciliation_holds_under_node_failures() {
    // Failures exercise the NodeDown drop path and off-state meters.
    let mut spec = ScenarioSpec::paper(50, 11);
    spec.duration = SimDuration::from_secs(60);
    spec.failures = Some(FailureConfig::default());
    let instance = spec.instantiate();
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Greedy);
    let t = trace_totals(&text);
    assert_reconciles(&reg, &t);
    assert_harvest_agrees(&instance, &outcome, &reg);
}

#[test]
fn a_node_left_down_is_harvested_as_down() {
    // The rolling schedule always ends with a recovery, so give one node a
    // failure that never recovers.
    let mut spec = ScenarioSpec::paper(50, 11);
    spec.duration = SimDuration::from_secs(30);
    let mut instance = spec.instantiate();
    let victim = NodeId(0);
    instance.failure_events.push(FailureEvent {
        at: SimTime::from_secs(20),
        node: victim,
        down: true,
    });
    let (outcome, reg, _) = observed_run(spec, &instance, Scheme::Greedy);
    assert_eq!(outcome.down, vec![victim]);
    assert_harvest_agrees(&instance, &outcome, &reg);
}

/// A `Box<dyn Write>` sink the test can read back after the run.
struct SharedBuf(Rc<RefCell<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
        self.0.borrow_mut().extend_from_slice(b);
        Ok(b.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn flight_recorder_dumps_the_ring_on_budget_exhaustion() {
    let mut spec = ScenarioSpec::paper(50, 3);
    spec.duration = SimDuration::from_secs(120);
    let exp = Experiment::new(spec, Scheme::Greedy);
    let buf = Rc::new(RefCell::new(Vec::new()));
    let setup = MetricsSetup {
        // A 1 s cadence guarantees several ring entries before the trip.
        opts: wsn::net::MetricsOptions {
            snapshot_every: Some(SimDuration::from_secs(1)),
            flight_slots: 8,
        },
        out: Some(Box::new(SharedBuf(Rc::clone(&buf)))),
    };
    let err = exp
        .run_on_observed(&exp.scenario.instantiate(), 10_000, None, None, Some(setup))
        .expect_err("10k events cannot cover a 120 s, 50-node run");
    assert!(err.to_string().contains("budget"), "err: {err}");
    let text = String::from_utf8(buf.borrow().clone()).expect("metrics are ASCII JSON");
    assert!(
        text.starts_with("{\"ev\":\"mreg\""),
        "stream begins with the header: {}",
        &text[..text.len().min(120)]
    );
    let dump_at = text
        .find("\"ev\":\"mflight\"")
        .expect("watchdog trip dumps the flight ring");
    assert_eq!(
        text.matches("\"ev\":\"mflight\"").count(),
        1,
        "the dump happens exactly once"
    );
    // The dump replays recent mdelta lines *after* the marker, and the
    // stream still closes with the absolute totals for post-mortem reading.
    assert!(
        text[dump_at..].contains("\"ev\":\"mdelta\""),
        "the dump replays ring entries"
    );
    assert!(
        text[dump_at..].contains("\"ev\":\"mtotal\""),
        "the error path still writes final totals"
    );
}
