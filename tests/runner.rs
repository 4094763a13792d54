//! The deterministic parallel run-execution layer, end to end: parallel
//! sweeps must be bit-identical to serial ones at any worker count, and the
//! per-job watchdog must name the offending run without poisoning siblings.

use wsn::core::field_seed;
use wsn::core::{collect_points, run_sweep, sweep_jobs, JobFailure, MetricKind, Runner};
use wsn::diffusion::{DiffusionConfig, Scheme};
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimDuration;

/// A small two-point, two-field sweep (cheap enough for CI, real enough to
/// exercise the full protocol stack).
fn small_sweep(runner: &Runner) -> Vec<wsn::core::ComparisonPoint> {
    run_sweep(
        runner,
        &[50.0, 70.0],
        2,
        |pi, f| {
            let nodes = [50, 70][pi];
            let mut spec = ScenarioSpec::paper(nodes, field_seed(99, pi as u64, f as u64));
            spec.duration = SimDuration::from_secs(30);
            spec
        },
        |_, scheme| DiffusionConfig::for_scheme(scheme),
    )
    .expect("no watchdog budget, cannot fail")
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = small_sweep(&Runner::serial());
    // Worker counts above, below, and not dividing the job count (8 jobs).
    for workers in [2, 3, 4, 16] {
        let parallel = small_sweep(&Runner::new(workers));
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.x, p.x);
            // PaperMetrics is PartialEq on raw f64s: this is bit-identity,
            // not approximate agreement.
            assert_eq!(
                s.greedy, p.greedy,
                "greedy metrics diverged at {workers} workers"
            );
            assert_eq!(
                s.opportunistic, p.opportunistic,
                "opportunistic metrics diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn sweep_summaries_are_worker_count_independent() {
    let serial = small_sweep(&Runner::serial());
    let parallel = small_sweep(&Runner::new(4));
    for (s, p) in serial.iter().zip(&parallel) {
        for metric in MetricKind::ALL {
            let a = s.summary(Scheme::Greedy, metric);
            let b = p.summary(Scheme::Greedy, metric);
            assert_eq!(a.mean.to_bits(), b.mean.to_bits());
            assert_eq!(a.std_dev.to_bits(), b.std_dev.to_bits());
        }
    }
}

#[test]
fn watchdog_names_the_offending_job_without_poisoning_siblings() {
    let xs = [50.0, 70.0];
    let mut jobs = sweep_jobs(
        &xs,
        2,
        |pi, f| {
            let nodes = [50, 70][pi];
            let mut spec = ScenarioSpec::paper(nodes, field_seed(7, pi as u64, f as u64));
            spec.duration = SimDuration::from_secs(30);
            spec
        },
        |_, scheme| DiffusionConfig::for_scheme(scheme),
    );
    assert_eq!(jobs.len(), 8);
    // Strangle exactly one job: point 1, field 0, opportunistic (index 5 in
    // point-major, field-next, greedy-first order).
    let victim = 5;
    assert_eq!(jobs[victim].point_index, 1);
    assert_eq!(jobs[victim].field_index, 0);
    assert_eq!(jobs[victim].scheme, Scheme::Opportunistic);
    jobs[victim].max_events = Some(50);

    let runner = Runner::new(4);
    let results = runner.run(&jobs);
    for (i, result) in results.iter().enumerate() {
        if i == victim {
            let err = result.as_ref().expect_err("budgeted job must trip");
            assert_eq!(err.point_index, 1);
            assert_eq!(err.point_x, 70.0);
            assert_eq!(err.field_index, 0);
            assert_eq!(err.scheme, Scheme::Opportunistic);
            assert!(
                matches!(&err.cause, JobFailure::Budget(b) if b.events_processed >= 50),
                "{err}"
            );
            let msg = err.to_string();
            assert!(
                msg.contains("field 0") && msg.contains("opportunistic"),
                "{msg}"
            );
        } else {
            assert!(result.is_ok(), "sibling job {i} was poisoned");
        }
    }

    // The siblings' results match a run where no watchdog fired at all.
    jobs[victim].max_events = None;
    let clean = runner.run(&jobs);
    for (i, (dirty, clean)) in results.iter().zip(&clean).enumerate() {
        if i == victim {
            continue;
        }
        let (d, c) = (dirty.as_ref().unwrap(), clean.as_ref().unwrap());
        assert_eq!(d.metrics, c.metrics, "sibling job {i} changed");
        assert_eq!(d.accounting, c.accounting);
    }
}

#[test]
fn collect_points_surfaces_the_first_error_in_job_order() {
    let xs = [50.0];
    let jobs = sweep_jobs(
        &xs,
        1,
        |_, f| {
            let mut spec = ScenarioSpec::paper(50, field_seed(3, 0, f as u64));
            spec.duration = SimDuration::from_secs(30);
            spec
        },
        |_, scheme| DiffusionConfig::for_scheme(scheme),
    );
    // A runner-wide budget this small trips every job; the reported error
    // must be the first job (greedy, field 0).
    let runner = Runner {
        workers: 2,
        max_events: Some(10),
        progress: false,
        trace: None,
        profile: false,
        metrics: None,
    };
    let err = collect_points(&runner, &xs, &jobs).expect_err("budget of 10 must trip");
    assert_eq!(err.point_index, 0);
    assert_eq!(err.field_index, 0);
    assert_eq!(err.scheme, Scheme::Greedy);
}

#[test]
fn compare_point_is_unchanged_by_wsn_jobs_workers() {
    use wsn::core::compare_point;
    use wsn::diffusion::AggregationFn;
    // compare_point reads WSN_JOBS itself; emulate both settings explicitly
    // through run_sweep to avoid mutating the test process environment.
    let make = |f: usize| {
        let mut spec = ScenarioSpec::paper(60, field_seed(11, 0, f as u64));
        spec.duration = SimDuration::from_secs(30);
        spec
    };
    let direct = compare_point(60.0, 2, AggregationFn::Perfect, make);
    let explicit = run_sweep(
        &Runner::new(3),
        &[60.0],
        2,
        |_, f| make(f),
        |_, scheme| DiffusionConfig {
            aggregation: AggregationFn::Perfect,
            ..DiffusionConfig::for_scheme(scheme)
        },
    )
    .unwrap()
    .pop()
    .unwrap();
    assert_eq!(direct.greedy, explicit.greedy);
    assert_eq!(direct.opportunistic, explicit.opportunistic);
}
