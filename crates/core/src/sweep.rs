//! Paired scheme comparisons over generated fields.
//!
//! Each sweep point runs greedy and opportunistic aggregation on *identical*
//! scenario instances (same field, roles, failure schedule) across several
//! independently generated fields, exactly as the paper averages each data
//! point "over ten different generated fields".

use wsn_diffusion::{AggregationFn, DiffusionConfig, Scheme};
use wsn_metrics::{PaperMetrics, Summary};
use wsn_net::NetConfig;
use wsn_scenario::ScenarioSpec;
use wsn_sim::splitmix64;

use crate::runner::{JobError, RunJob, Runner};

/// The paired results of one sweep point.
#[derive(Debug, Clone)]
pub struct ComparisonPoint {
    /// The sweep value (node count, sink count, ...).
    pub x: f64,
    /// One metrics triple per field, greedy scheme.
    pub greedy: Vec<PaperMetrics>,
    /// One metrics triple per field, opportunistic scheme.
    pub opportunistic: Vec<PaperMetrics>,
}

impl ComparisonPoint {
    /// Cross-field summary of a metric for one scheme.
    pub fn summary(&self, scheme: Scheme, metric: MetricKind) -> Summary {
        let src = match scheme {
            Scheme::Greedy => &self.greedy,
            Scheme::Opportunistic => &self.opportunistic,
        };
        Summary::of(src.iter().map(|m| metric.of(m)))
    }

    /// Mean greedy communication energy over mean opportunistic
    /// communication energy (the paper's headline comparison; < 1 means
    /// greedy saves energy).
    pub fn energy_ratio(&self) -> f64 {
        let g = self
            .summary(Scheme::Greedy, MetricKind::ActivityEnergy)
            .mean;
        let o = self
            .summary(Scheme::Opportunistic, MetricKind::ActivityEnergy)
            .mean;
        if o == 0.0 {
            1.0
        } else {
            g / o
        }
    }
}

/// Which of the paper's three metrics to extract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Average dissipated energy, total (J/node/distinct event).
    Energy,
    /// The communication (tx + rx) component of the dissipated energy —
    /// where scheme differences concentrate (the idle floor is constant).
    ActivityEnergy,
    /// Average delay (s).
    Delay,
    /// Distinct-event delivery ratio.
    Delivery,
}

impl MetricKind {
    /// Extracts the metric value.
    pub fn of(self, m: &PaperMetrics) -> f64 {
        match self {
            MetricKind::Energy => m.avg_dissipated_energy,
            MetricKind::ActivityEnergy => m.avg_activity_energy,
            MetricKind::Delay => m.avg_delay_s,
            MetricKind::Delivery => m.delivery_ratio,
        }
    }

    /// The figure panels in paper order (a), (b), (c): the energy panel uses
    /// the communication component (see `DESIGN.md` §3 on energy
    /// accounting); the total is also tabulated by the harness.
    pub const ALL: [MetricKind; 3] = [
        MetricKind::ActivityEnergy,
        MetricKind::Delay,
        MetricKind::Delivery,
    ];

    /// The paper's axis label for this metric.
    pub fn label(self) -> &'static str {
        match self {
            MetricKind::Energy => "Average Dissipated Energy, total incl. idle (J/node/event)",
            MetricKind::ActivityEnergy => "Average Dissipated Energy (J/node/event)",
            MetricKind::Delay => "Average Delay (s/event)",
            MetricKind::Delivery => "Distinct-Event Delivery Ratio",
        }
    }
}

/// Materializes the full job list for a sweep: for every point in `xs`,
/// `fields` paired greedy/opportunistic runs on identical scenarios.
///
/// `make_spec(point_index, field_index)` must set a distinct seed per
/// `(point, field)` (use [`field_seed`]); both schemes of a pair receive
/// the *same* spec, which is what makes the comparison paired.
/// `configure(point_index, scheme)` supplies the protocol parameters (the
/// scheme field is overwritten to match the job).
///
/// Job order is the serial execution order: points outermost, then fields,
/// then greedy before opportunistic. [`collect_points`] relies on this to
/// reassemble [`ComparisonPoint`]s whose per-field vectors match what a
/// serial loop would have produced.
pub fn sweep_jobs(
    xs: &[f64],
    fields: usize,
    make_spec: impl Fn(usize, usize) -> ScenarioSpec,
    configure: impl Fn(usize, Scheme) -> DiffusionConfig,
) -> Vec<RunJob> {
    let mut jobs = Vec::with_capacity(xs.len() * fields * 2);
    for (pi, &x) in xs.iter().enumerate() {
        for f in 0..fields {
            let spec = make_spec(pi, f);
            // The spec's MAC choice rides into the run's radio config, so
            // MAC ablations are plain scenario sweeps.
            let net = NetConfig { mac: spec.mac };
            for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
                let mut config = configure(pi, scheme);
                config.scheme = scheme;
                jobs.push(RunJob {
                    point_index: pi,
                    point_x: x,
                    field_index: f,
                    scheme,
                    spec: spec.clone(),
                    config,
                    net: net.clone(),
                    max_events: None,
                });
            }
        }
    }
    jobs
}

/// Executes `jobs` on `runner` and reassembles them into one
/// [`ComparisonPoint`] per entry of `xs`, keyed by each job's
/// [`point_index`](RunJob::point_index).
///
/// Results are gathered in job order (the runner's output is keyed by job
/// index), so the assembled points are identical to a serial sweep no
/// matter how many workers ran or in what order jobs finished.
///
/// # Errors
///
/// Returns the first [`JobError`] in job order if any job tripped the
/// watchdog. All sibling jobs still ran to completion; callers needing
/// partial results should use [`Runner::run`] directly.
pub fn collect_points(
    runner: &Runner,
    xs: &[f64],
    jobs: &[RunJob],
) -> Result<Vec<ComparisonPoint>, JobError> {
    let reports = runner.run(jobs);
    let mut points: Vec<ComparisonPoint> = xs
        .iter()
        .map(|&x| ComparisonPoint {
            x,
            greedy: Vec::new(),
            opportunistic: Vec::new(),
        })
        .collect();
    for (job, report) in jobs.iter().zip(reports) {
        let report = report?;
        let point = &mut points[job.point_index];
        match job.scheme {
            Scheme::Greedy => point.greedy.push(report.metrics),
            Scheme::Opportunistic => point.opportunistic.push(report.metrics),
        }
    }
    Ok(points)
}

/// Materializes and executes a whole sweep: [`sweep_jobs`] followed by
/// [`collect_points`].
///
/// # Errors
///
/// Returns the first [`JobError`] in job order if the runner's watchdog
/// budget was exceeded (impossible when the runner has no budget).
pub fn run_sweep(
    runner: &Runner,
    xs: &[f64],
    fields: usize,
    make_spec: impl Fn(usize, usize) -> ScenarioSpec,
    configure: impl Fn(usize, Scheme) -> DiffusionConfig,
) -> Result<Vec<ComparisonPoint>, JobError> {
    let jobs = sweep_jobs(xs, fields, make_spec, configure);
    collect_points(runner, xs, &jobs)
}

/// Runs one sweep point: `fields` paired runs of both schemes on scenarios
/// derived from `make_spec(field_index)`.
///
/// `make_spec` receives the field index and must set a distinct seed per
/// field (use [`field_seed`]).
///
/// Executes on [`Runner::from_env`], so `WSN_JOBS` parallelizes existing
/// callers transparently; results are identical at any worker count.
pub fn compare_point(
    x: f64,
    fields: usize,
    aggregation: AggregationFn,
    make_spec: impl Fn(usize) -> ScenarioSpec,
) -> ComparisonPoint {
    let runner = Runner::from_env();
    run_sweep(
        &runner,
        &[x],
        fields,
        |_, f| make_spec(f),
        |_, scheme| DiffusionConfig {
            aggregation,
            ..DiffusionConfig::for_scheme(scheme)
        },
    )
    .expect("a runner without a watchdog budget cannot fail")
    .pop()
    .expect("one point in, one point out")
}

/// Derives the scenario seed for `(experiment seed, sweep point, field)` —
/// distinct fields per point, identical across schemes.
pub fn field_seed(base: u64, point: u64, field: u64) -> u64 {
    splitmix64(base ^ splitmix64(point.wrapping_mul(0x9E37) ^ field.wrapping_mul(0x85EB_CA6B)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_sim::SimDuration;

    #[test]
    fn field_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for p in 0..8u64 {
            for f in 0..10u64 {
                assert!(seen.insert(field_seed(42, p, f)));
            }
        }
    }

    #[test]
    fn metric_kind_extracts() {
        let m = PaperMetrics {
            avg_dissipated_energy: 1.0,
            avg_activity_energy: 0.5,
            avg_delay_s: 2.0,
            delivery_ratio: 3.0,
        };
        assert_eq!(MetricKind::Energy.of(&m), 1.0);
        assert_eq!(MetricKind::ActivityEnergy.of(&m), 0.5);
        assert_eq!(MetricKind::Delay.of(&m), 2.0);
        assert_eq!(MetricKind::Delivery.of(&m), 3.0);
    }

    #[test]
    fn compare_point_runs_paired_fields() {
        let point = compare_point(50.0, 2, AggregationFn::Perfect, |f| {
            let mut spec = ScenarioSpec::paper(50, field_seed(7, 0, f as u64));
            spec.duration = SimDuration::from_secs(20);
            spec
        });
        assert_eq!(point.greedy.len(), 2);
        assert_eq!(point.opportunistic.len(), 2);
        let s = point.summary(Scheme::Greedy, MetricKind::Delivery);
        assert!(s.mean >= 0.0 && s.mean <= 1.2);
    }
}
