//! End-to-end integration tests: full paper scenarios through the public API.

use wsn::core::{compare_point, field_seed, Experiment, MetricKind};
use wsn::diffusion::{AggregationFn, Scheme};
use wsn::scenario::{FailureConfig, ScenarioSpec, SourcePlacement};
use wsn::sim::SimDuration;

fn short_spec(nodes: usize, seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::paper(nodes, seed);
    spec.duration = SimDuration::from_secs(60);
    spec
}

#[test]
fn both_schemes_deliver_on_the_paper_scenario() {
    let spec = short_spec(100, 1);
    let instance = spec.instantiate();
    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let outcome = Experiment::new(spec.clone(), scheme).run_on(&instance);
        let m = outcome.record.metrics();
        assert!(
            m.delivery_ratio > 0.6,
            "{scheme} delivered only {:.3}",
            m.delivery_ratio
        );
        assert!(
            m.avg_delay_s > 0.0 && m.avg_delay_s < 5.0,
            "{scheme} delay {}",
            m.avg_delay_s
        );
        assert!(m.avg_dissipated_energy.is_finite());
        assert!(m.avg_activity_energy < m.avg_dissipated_energy);
    }
}

#[test]
fn runs_are_deterministic() {
    let spec = short_spec(80, 2);
    let a = Experiment::new(spec.clone(), Scheme::Greedy).run();
    let b = Experiment::new(spec, Scheme::Greedy).run();
    assert_eq!(
        a.record, b.record,
        "identical seeds must give identical runs"
    );
    assert_eq!(a.per_sink_distinct, b.per_sink_distinct);
}

#[test]
fn runs_are_deterministic_under_failures() {
    // Failures exercise the repair machinery, which once carried a
    // HashMap-iteration nondeterminism; keep this pinned.
    let spec = ScenarioSpec {
        failures: Some(FailureConfig::default()),
        ..short_spec(100, 21)
    };
    let a = Experiment::new(spec.clone(), Scheme::Opportunistic).run();
    let b = Experiment::new(spec, Scheme::Opportunistic).run();
    assert_eq!(a.record, b.record);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = Experiment::new(short_spec(80, 3), Scheme::Greedy).run();
    let b = Experiment::new(short_spec(80, 4), Scheme::Greedy).run();
    assert_ne!(a.record, b.record);
}

#[test]
fn greedy_saves_communication_energy_on_dense_fields() {
    // The headline result, at one dense point, averaged over 2 fields with
    // runs long enough for the tree to settle (two exploratory rounds).
    let point = compare_point(250.0, 2, AggregationFn::Perfect, |f| {
        let mut spec = ScenarioSpec::paper(250, field_seed(5, 0, f as u64));
        spec.duration = SimDuration::from_secs(120);
        spec
    });
    let ratio = point.energy_ratio();
    assert!(
        ratio < 0.85,
        "greedy/opportunistic activity-energy ratio {ratio:.3} shows no savings"
    );
    // And delivery must not be sacrificed for it.
    let g = point.summary(Scheme::Greedy, MetricKind::Delivery).mean;
    let o = point
        .summary(Scheme::Opportunistic, MetricKind::Delivery)
        .mean;
    assert!(g > 0.7, "greedy delivery {g:.3}");
    assert!(o > 0.7, "opportunistic delivery {o:.3}");
}

#[test]
fn node_failures_reduce_but_do_not_destroy_delivery() {
    let healthy = Experiment::new(short_spec(120, 6), Scheme::Greedy).run();
    let spec = ScenarioSpec {
        failures: Some(FailureConfig::default()),
        ..short_spec(120, 6)
    };
    let failing = Experiment::new(spec, Scheme::Greedy).run();
    let h = healthy.record.metrics().delivery_ratio;
    let f = failing.record.metrics().delivery_ratio;
    assert!(f > 0.2, "failures wiped out delivery entirely: {f:.3}");
    assert!(
        f <= h + 0.05,
        "failures should not improve delivery: {f:.3} vs {h:.3}"
    );
}

#[test]
fn multiple_sinks_all_receive() {
    let spec = ScenarioSpec {
        num_sinks: 3,
        ..short_spec(150, 7)
    };
    let outcome = Experiment::new(spec, Scheme::Greedy).run();
    assert_eq!(outcome.per_sink_distinct.len(), 3);
    for (sink, distinct) in &outcome.per_sink_distinct {
        assert!(*distinct > 0, "sink {sink} received nothing");
    }
    let m = outcome.record.metrics();
    assert!(
        m.delivery_ratio > 0.4,
        "multi-sink delivery {:.3}",
        m.delivery_ratio
    );
}

#[test]
fn random_source_placement_works() {
    let spec = ScenarioSpec {
        source_placement: SourcePlacement::Uniform,
        ..short_spec(120, 8)
    };
    let outcome = Experiment::new(spec, Scheme::Greedy).run();
    assert!(outcome.record.metrics().delivery_ratio > 0.5);
}

#[test]
fn linear_aggregation_sends_more_bytes_than_perfect() {
    let spec = short_spec(150, 9);
    let instance = spec.instantiate();
    let mut per_fn = Vec::new();
    for aggregation in [AggregationFn::Perfect, AggregationFn::Linear] {
        let mut exp = Experiment::new(spec.clone(), Scheme::Greedy);
        exp.diffusion.aggregation = aggregation;
        per_fn.push(exp.run_on(&instance).record);
    }
    assert!(
        per_fn[1].tx_bytes > per_fn[0].tx_bytes,
        "linear ({}) should out-byte perfect ({})",
        per_fn[1].tx_bytes,
        per_fn[0].tx_bytes
    );
}

#[test]
fn more_sources_cost_more_energy_in_total() {
    let mut totals = Vec::new();
    for sources in [2usize, 8] {
        let spec = ScenarioSpec {
            num_sources: sources,
            ..short_spec(150, 10)
        };
        let outcome = Experiment::new(spec, Scheme::Greedy).run();
        totals.push(outcome.record.activity_energy_j);
    }
    assert!(
        totals[1] > totals[0],
        "8 sources ({}) should dissipate more than 2 ({})",
        totals[1],
        totals[0]
    );
}

#[test]
fn record_counters_are_consistent() {
    let outcome = Experiment::new(short_spec(100, 11), Scheme::Opportunistic).run();
    let r = &outcome.record;
    assert_eq!(r.node_count, 100);
    assert_eq!(r.sink_count, 1);
    assert!(r.tx_frames > 0);
    // Every frame is at least a 36-byte control message.
    assert!(r.tx_bytes >= r.tx_frames * 36);
    assert!(r.total_energy_j > 0.0);
    assert!(r.activity_energy_j > 0.0);
    assert!(r.activity_energy_j < r.total_energy_j);
    assert!(r.distinct_events <= r.events_generated);
    // 60 s run, events start at 5 s, 2/s × 5 sources = 550 expected.
    assert!(
        (500..=560).contains(&r.events_generated),
        "{}",
        r.events_generated
    );
}
