//! # wsn-core — the experiment driver
//!
//! The user-facing crate of the reproduction of *Impact of Network Density
//! on Data Aggregation in Wireless Sensor Networks* (ICDCS 2002). It ties
//! the substrates together:
//!
//! * [`Experiment`] — one scenario + one scheme + one seed → a
//!   [`RunOutcome`], the run's one harvest (its [`wsn_metrics::RunRecord`]
//!   plus message counts, delays and the tree that formed);
//! * [`RunJob`] / [`Runner`] — the deterministic parallel run-execution
//!   layer: a sweep materializes as a job list and executes across
//!   `std::thread::scope` workers with bit-identical results at any worker
//!   count (see the [`runner`](crate::Runner) module docs);
//! * [`compare_point`] — paired greedy/opportunistic runs on identical
//!   fields;
//! * [`run_figure`] — regenerates any of the paper's Figures 5–10 as three
//!   metric tables ([`run_figure_with`] for an explicit runner);
//! * [`registry_mismatches`] — the registry↔trace audit of a run observed
//!   with both a metrics registry and a trace.
//!
//! # Examples
//!
//! Measure the greedy scheme's energy metric on a small dense field:
//!
//! ```
//! use wsn_core::Experiment;
//! use wsn_diffusion::Scheme;
//! use wsn_scenario::ScenarioSpec;
//! use wsn_sim::SimDuration;
//!
//! let mut spec = ScenarioSpec::paper(60, 3);
//! spec.duration = SimDuration::from_secs(30);
//! let outcome = Experiment::new(spec, Scheme::Greedy).run();
//! let metrics = outcome.record.metrics();
//! assert!(metrics.delivery_ratio > 0.0);
//! assert!(metrics.avg_dissipated_energy.is_finite());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiment;
mod figures;
mod reconcile;
mod runner;
mod sweep;

pub use experiment::{Experiment, MetricsSetup, RunOutcome};
pub use figures::{run_figure, run_figure_with, Figure, FigureData, FigureParams};
pub use reconcile::registry_mismatches;
pub use runner::{
    check_artifact, peak_rss_kb, JobError, JobFailure, JobReport, MetricsSpec, RunJob, Runner,
    TraceSpec,
};
pub use sweep::{
    collect_points, compare_point, field_seed, run_sweep, sweep_jobs, ComparisonPoint, MetricKind,
};
