//! The exact-reconciliation contract between the in-sim metrics registry
//! and the telemetry trace: every registry total is incremented beside the
//! matching trace-emission site (unconditionally, not gated on the sink),
//! so on a run with both attached the registry totals must equal the
//! trace's reduction with **zero tolerance** — frames by kind, drops by
//! reason, collisions, item drops, reinforcements, aggregation fan-in, and
//! per-state energy in quantized nanojoules ([`registry_mismatches`], the
//! same check `metrics_report --audit` runs).
//!
//! The same runs pin the run's one harvest, [`RunOutcome`], against the
//! registry, the trace and the scenario: counts read from one source must
//! agree exactly, and the harvested tree and down set must be consistent
//! with the field and its failure schedule.
//!
//! The registry samples the PHY's frame, collision and drop counts and the
//! MAC queues instead of counting those events itself, so one run per MAC
//! also pins every sample of its stream against the trace's records up to
//! the same instant.
//!
//! Also pins the watchdog post-mortem: a run killed by the event budget
//! leaves a metrics stream that parses line by line, each delta once, and
//! closes with its totals.

use std::cell::RefCell;
use std::io::Write;
use std::rc::Rc;

use wsn::core::{registry_mismatches, Experiment, MetricsSetup, RunOutcome};
use wsn::diffusion::{MsgKind, Scheme};
use wsn::metrics::{MetricType, MetricsLine, MetricsRegistry};
use wsn::net::{MacKind, MetricsOptions, NodeId, TraceOptions};
use wsn::scenario::{FailureConfig, FailureEvent, ScenarioInstance, ScenarioSpec};
use wsn::sim::{SimDuration, SimTime};
use wsn::trace::{
    DropReason, JsonlSink, SharedSink, TraceRecord, TraceSink, TraceSummary, FRAME_KINDS,
};

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

/// Reduces the trace text, every line of which must decode.
fn summary(text: &str) -> TraceSummary {
    let summary = TraceSummary::from_text(text);
    assert_eq!(summary.skipped_lines, 0, "every trace line decodes");
    summary
}

/// Asserts every reconcilable registry total equals the trace total.
fn assert_reconciles(reg: &MetricsRegistry, trace: &TraceSummary) {
    let mismatches = registry_mismatches(
        trace,
        |name| reg.counter_by_name(name),
        |name| reg.hist_by_name(name).map(|h| (h.count(), h.sum())),
    );
    assert!(mismatches.is_empty(), "{mismatches:#?}");
}

/// The summed bytes of the trace's data `tx` records.
fn data_bytes(text: &str) -> u64 {
    text.lines()
        .map(|l| match TraceRecord::from_json(l) {
            Ok(TraceRecord::PacketTx {
                kind: "data",
                bytes,
                ..
            }) => u64::from(bytes),
            _ => 0,
        })
        .sum()
}

/// Asserts the outcome's harvest agrees exactly with the registry, with the
/// trace `text` and with the scenario the run was instantiated from.
fn assert_harvest_agrees(
    instance: &ScenarioInstance,
    outcome: &RunOutcome,
    reg: &MetricsRegistry,
    text: &str,
) {
    // Both incremented side by side in the protocol's `send_now`.
    assert_eq!(
        outcome.sent[MsgKind::Interest.index()],
        counter(reg, "diffusion.interests_sent"),
        "interests sent"
    );
    // The harvest and the registry both read the PHY's count block.
    assert_eq!(
        outcome.record.tx_frames,
        counter(reg, "phy.frames_tx{kind=data}"),
        "payload frames"
    );
    assert_eq!(
        outcome.record.collisions,
        counter(reg, "phy.collisions"),
        "collisions"
    );
    assert_eq!(outcome.record.tx_bytes, data_bytes(text), "payload bytes");
    // Both read the retry-limit losses in the count block.
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
    // Every dedup decision equals an unbounded set's.
    assert_eq!(outcome.stale_arrivals, 0, "stale dedup arrivals");
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
    let t = summary(&text);
    assert!(t.tx_by_kind[0] > 0, "a 60 s run transmits data frames");
    assert!(t.energy_nj[1] > 0, "idle energy is always debited");
    assert_reconciles(&reg, &t);
    assert!(!outcome.tree_edges.is_empty(), "a 60 s run grows a tree");
    assert_harvest_agrees(&instance, &outcome, &reg, &text);
}

#[test]
fn registry_totals_reconcile_exactly_with_the_trace_opportunistic() {
    let mut spec = ScenarioSpec::paper(60, 7);
    spec.duration = SimDuration::from_secs(60);
    let instance = spec.instantiate();
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Opportunistic);
    let t = summary(&text);
    assert!(t.merges > 0, "opportunistic runs merge at junctions");
    assert_reconciles(&reg, &t);
    assert_harvest_agrees(&instance, &outcome, &reg, &text);
}

#[test]
fn reconciliation_holds_under_node_failures() {
    // Failures exercise the NodeDown drop path and off-state meters.
    let mut spec = ScenarioSpec::paper(50, 11);
    spec.duration = SimDuration::from_secs(60);
    spec.failures = Some(FailureConfig::default());
    let instance = spec.instantiate();
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Greedy);
    assert_reconciles(&reg, &summary(&text));
    assert_harvest_agrees(&instance, &outcome, &reg, &text);
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
    let (outcome, reg, text) = observed_run(spec, &instance, Scheme::Greedy);
    assert_eq!(outcome.down, vec![victim]);
    assert_harvest_agrees(&instance, &outcome, &reg, &text);
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
fn budget_exhaustion_leaves_one_parsable_stream() {
    let mut spec = ScenarioSpec::paper(50, 3);
    spec.duration = SimDuration::from_secs(120);
    let exp = Experiment::new(spec, Scheme::Greedy);
    let buf = Rc::new(RefCell::new(Vec::new()));
    let setup = MetricsSetup {
        // A 1 s cadence guarantees several deltas before the trip.
        opts: MetricsOptions {
            snapshot_every: Some(SimDuration::from_secs(1)),
        },
        out: Some(Box::new(SharedBuf(Rc::clone(&buf)))),
    };
    let err = exp
        .run_on_observed(&exp.scenario.instantiate(), 10_000, None, None, Some(setup))
        .expect_err("10k events cannot cover a 120 s, 50-node run");
    assert!(err.to_string().contains("budget"), "err: {err}");
    let text = String::from_utf8(buf.borrow().clone()).expect("metrics are ASCII JSON");
    let lines: Vec<MetricsLine> = text
        .lines()
        .enumerate()
        .map(|(i, l)| MetricsLine::parse(l).unwrap_or_else(|e| panic!("line {}: {e}", i + 1)))
        .collect();
    assert!(
        matches!(lines.first(), Some(MetricsLine::Header { .. })),
        "the stream begins with its header"
    );
    let Some(MetricsLine::Total {
        counters: totals, ..
    }) = lines.last()
    else {
        panic!("the stream ends with its totals");
    };
    let mut last_t = 0;
    let mut summed = vec![0; totals.len()];
    for line in &lines[1..lines.len() - 1] {
        let MetricsLine::Delta { t_ns, counters, .. } = line else {
            panic!("only deltas sit between header and totals: {line:?}");
        };
        assert!(*t_ns >= last_t, "deltas run in time order");
        last_t = *t_ns;
        for &(i, d) in counters {
            summed[i as usize] += d;
        }
    }
    assert!(lines.len() > 4, "several deltas precede the trip");
    // Each delta appears once, so the deltas add up to the totals exactly.
    let totals: Vec<u64> = totals.iter().map(|&(_, v)| v).collect();
    assert_eq!(summed, totals);
}

/// The PHY's counts and the MAC queues' total at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counts {
    t_ns: u64,
    /// By kind, in [`FRAME_KINDS`] order.
    frames_tx: [u64; 4],
    collisions: u64,
    /// By reason, in [`DropReason::ALL`] order.
    drops: [u64; 6],
    queued: u64,
}

/// A trace sink that folds records as they arrive: running counts of
/// `tx`, `collision` and `drop` records and, at each snapshot instant,
/// those counts as they stood before the instant's first snapshot record,
/// with the summed `queue` of its snapshot records.
#[derive(Debug, Default)]
struct SnapshotCounts {
    running: Counts,
    instants: Vec<Counts>,
}

impl TraceSink for SnapshotCounts {
    fn record(&mut self, rec: &TraceRecord) {
        let running = &mut self.running;
        match *rec {
            TraceRecord::PacketTx { kind, .. } => {
                let k = FRAME_KINDS.iter().position(|&known| known == kind);
                running.frames_tx[k.expect("a known frame kind")] += 1;
            }
            TraceRecord::Collision { .. } => running.collisions += 1,
            TraceRecord::PacketDrop { reason, .. } => running.drops[reason.index()] += 1,
            TraceRecord::Snapshot { t_ns, queue, .. } => {
                if self.instants.last().map(|c| c.t_ns) != Some(t_ns) {
                    self.instants.push(Counts {
                        t_ns,
                        queued: 0,
                        ..*running
                    });
                }
                let instant = self.instants.last_mut().expect("pushed above");
                instant.queued += u64::from(queue);
            }
            _ => {}
        }
    }
}

/// The same counts at every sample of a metrics stream: counter deltas
/// summed up to the sample, and the `mac.queue_depth` gauge's level.
fn sampled_counts(stream: &str, mac: MacKind) -> Vec<Counts> {
    let mut lines = stream
        .lines()
        .map(|l| MetricsLine::parse(l).unwrap_or_else(|e| panic!("{e}: {l}")));
    let Some(MetricsLine::Header { metrics, .. }) = lines.next() else {
        panic!("the stream begins with its header");
    };
    // A metric's wire index is its position among the metrics of its type.
    let slot = |name: &str, kind: MetricType| {
        metrics
            .iter()
            .filter(|(_, k)| *k == kind)
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| panic!("{name} is registered"))
    };
    let frames =
        FRAME_KINDS.map(|k| slot(&format!("phy.frames_tx{{kind={k}}}"), MetricType::Counter));
    let collisions = slot("phy.collisions", MetricType::Counter);
    let drops = DropReason::ALL.map(|r| {
        slot(
            &format!("phy.drops{{reason={}}}", r.name()),
            MetricType::Counter,
        )
    });
    let queue_depth = slot(&format!("mac.queue_depth{{mac={mac}}}"), MetricType::Gauge);
    let mut totals = vec![0; metrics.len()];
    let mut queued = 0;
    let mut samples = Vec::new();
    for line in lines {
        let MetricsLine::Delta {
            t_ns,
            counters,
            gauges,
            ..
        } = line
        else {
            continue; // the closing totals
        };
        for (i, d) in counters {
            totals[i as usize] += d;
        }
        for (i, level) in gauges {
            if i as usize == queue_depth {
                queued = level;
            }
        }
        samples.push(Counts {
            t_ns,
            frames_tx: frames.map(|i| totals[i]),
            collisions: totals[collisions],
            drops: drops.map(|i| totals[i]),
            queued,
        });
    }
    samples
}

#[test]
fn every_sample_equals_the_traced_counts_at_its_instant() {
    let every = Some(SimDuration::from_millis(13));
    for mac in [MacKind::Csma, MacKind::RtsCts, MacKind::Ideal] {
        let mut spec = ScenarioSpec::paper(150, 11);
        spec.duration = SimDuration::from_secs(60);
        spec.failures = Some(FailureConfig::default());
        spec.mac = mac;
        let exp = Experiment::new(spec, Scheme::Greedy);
        let sink = Rc::new(RefCell::new(SnapshotCounts::default()));
        let handle: SharedSink = sink.clone();
        let trace = TraceOptions {
            snapshot_every: every,
        };
        let stream = Rc::new(RefCell::new(Vec::new()));
        let metrics = MetricsSetup {
            opts: MetricsOptions {
                snapshot_every: every,
            },
            out: Some(Box::new(SharedBuf(Rc::clone(&stream)))),
        };
        exp.run_on_observed(
            &exp.scenario.instantiate(),
            u64::MAX,
            Some((handle, trace)),
            None,
            Some(metrics),
        )
        .expect("u64::MAX budget cannot trip");
        let text = String::from_utf8(stream.borrow().clone()).expect("metrics are ASCII JSON");
        let sampled = sampled_counts(&text, mac);
        let traced = &sink.borrow().instants;
        assert_eq!(sampled.len(), traced.len(), "{mac}: one sample per instant");
        assert!(sampled.len() > 4_000, "{mac}: {} samples", sampled.len());
        for (s, t) in sampled.iter().zip(traced) {
            assert_eq!(s, t, "{mac}: registry sample vs trace");
        }
        let busy = sampled.iter().filter(|c| c.queued > 0).count();
        if mac != MacKind::Ideal {
            assert!(busy > 0, "{mac}: no sample holds a queued frame");
        }
    }
}
