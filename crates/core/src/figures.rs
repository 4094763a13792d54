//! Regenerating the paper's figures.
//!
//! Every figure of the evaluation section (Figures 5–10) is a family of
//! three panels — (a) average dissipated energy, (b) average delay,
//! (c) distinct-event delivery ratio — over a sweep variable. [`run_figure`]
//! reproduces one figure as three [`FigureTable`]s.

use wsn_diffusion::{AggregationFn, Scheme};
use wsn_metrics::FigureTable;
use wsn_scenario::{Connectivity, FailureConfig, ScenarioSpec, SourcePlacement};
use wsn_sim::SimDuration;

use wsn_diffusion::DiffusionConfig;

use crate::runner::{JobError, Runner};
use crate::sweep::{field_seed, run_sweep, ComparisonPoint, MetricKind};

/// The figures of the paper's evaluation section.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Figure {
    /// Figure 5: greedy vs opportunistic over network density (50–350
    /// nodes), perfect aggregation, 5 corner sources, 1 corner sink.
    Fig5Comparative,
    /// Figure 6: the same sweep under rolling node failures (20% down for
    /// 30 s, repeatedly).
    Fig6NodeFailures,
    /// Figure 7: the same sweep with sources placed uniformly at random.
    Fig7RandomSources,
    /// Figure 8: 1–5 sinks at 350 nodes.
    Fig8NumberOfSinks,
    /// Figure 9: 2–14 sources at 350 nodes.
    Fig9NumberOfSources,
    /// Figure 10: 2–14 sources at 350 nodes under linear aggregation.
    Fig10LinearAggregation,
}

impl Figure {
    /// All figures in paper order.
    pub const ALL: [Figure; 6] = [
        Figure::Fig5Comparative,
        Figure::Fig6NodeFailures,
        Figure::Fig7RandomSources,
        Figure::Fig8NumberOfSinks,
        Figure::Fig9NumberOfSources,
        Figure::Fig10LinearAggregation,
    ];

    /// The paper's caption for the figure.
    pub fn title(self) -> &'static str {
        match self {
            Figure::Fig5Comparative => {
                "Figure 5: The greedy aggregation compared to the opportunistic aggregation"
            }
            Figure::Fig6NodeFailures => "Figure 6: Impact of node failures",
            Figure::Fig7RandomSources => "Figure 7: Impact of the random source placement",
            Figure::Fig8NumberOfSinks => "Figure 8: Impact of the number of sinks",
            Figure::Fig9NumberOfSources => "Figure 9: Impact of the number of sources",
            Figure::Fig10LinearAggregation => "Figure 10: Impact of the linear aggregation",
        }
    }

    /// The sweep-axis label.
    pub fn x_label(self) -> &'static str {
        match self {
            Figure::Fig8NumberOfSinks => "sinks",
            Figure::Fig9NumberOfSources | Figure::Fig10LinearAggregation => "sources",
            _ => "nodes",
        }
    }

    fn stream(self) -> u64 {
        match self {
            Figure::Fig5Comparative => 5,
            Figure::Fig6NodeFailures => 6,
            Figure::Fig7RandomSources => 7,
            Figure::Fig8NumberOfSinks => 8,
            Figure::Fig9NumberOfSources => 9,
            Figure::Fig10LinearAggregation => 10,
        }
    }
}

/// Scale and budget knobs for figure regeneration.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureParams {
    /// Fields (independent topologies) per sweep point. Paper: 10.
    pub fields_per_point: usize,
    /// Simulated duration per run. Longer runs amortize the diffusion
    /// control overhead over more exploratory rounds.
    pub duration: SimDuration,
    /// Master seed.
    pub seed: u64,
    /// Node counts for the density sweeps (Figures 5–7). Paper:
    /// 50–350 step 50.
    pub node_counts: Vec<usize>,
    /// Field size for the sink/source sweeps (Figures 8–10). Paper: 350.
    pub dense_field_nodes: usize,
    /// Sink counts for Figure 8. Paper: 1–5.
    pub sink_counts: Vec<usize>,
    /// Source counts for Figures 9–10. Paper: 2, 5, 8, 11, 14.
    pub source_counts: Vec<usize>,
    /// Density-preserving scale factor (default 1.0 — the paper's exact
    /// geometry). Node counts are multiplied by `scale` and the field side
    /// by `√scale`, so node density — the paper's x-axis — is unchanged
    /// while the field holds `scale`× more nodes. `scale = 100` turns the
    /// 50-node point into ≈5,000 nodes in a 2 km square at the same 40 m
    /// radio density. Role counts (sources, sinks) stay at the paper's
    /// values.
    pub scale: f64,
}

impl FigureParams {
    /// The paper's full methodology (10 fields per point, 200 s runs,
    /// 50–350 nodes). Regenerating a full figure at these settings takes
    /// minutes of wall time; see [`FigureParams::quick`] for smoke tests.
    pub fn paper(seed: u64) -> Self {
        FigureParams {
            fields_per_point: 10,
            duration: SimDuration::from_secs(200),
            seed,
            node_counts: vec![50, 100, 150, 200, 250, 300, 350],
            dense_field_nodes: 350,
            sink_counts: vec![1, 2, 3, 4, 5],
            source_counts: vec![2, 5, 8, 11, 14],
            scale: 1.0,
        }
    }

    /// A reduced configuration for tests and demos: fewer fields, shorter
    /// runs, a coarser sweep.
    pub fn quick(seed: u64) -> Self {
        FigureParams {
            fields_per_point: 2,
            duration: SimDuration::from_secs(60),
            seed,
            node_counts: vec![50, 150, 250],
            dense_field_nodes: 150,
            sink_counts: vec![1, 3],
            source_counts: vec![2, 5],
            scale: 1.0,
        }
    }

    /// Checks that every sweep point of `figure` has at least as many
    /// nodes as sources plus sinks. A small [`scale`](Self::scale) can
    /// leave a point with fewer, which [`ScenarioSpec::instantiate`]
    /// rejects, so a harness checks before it runs anything.
    ///
    /// # Errors
    ///
    /// Returns a one-line message naming the first point that is too
    /// small.
    pub fn check_roles(&self, figure: Figure) -> Result<(), String> {
        for (pi, &x) in sweep_values(figure, self).iter().enumerate() {
            let spec = figure_spec(figure, self, x, pi, 0);
            if spec.num_sources + spec.num_sinks > spec.node_count {
                return Err(format!(
                    "{} sources + {} sinks exceed {} nodes at the {} = {x} point",
                    spec.num_sources,
                    spec.num_sinks,
                    spec.node_count,
                    figure.x_label(),
                ));
            }
        }
        Ok(())
    }
}

/// The three panels of a regenerated figure.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// Which figure this is.
    pub figure: Figure,
    /// Panel (a): average dissipated energy (communication component).
    pub energy: FigureTable,
    /// Panel (a), total accounting: includes the idle-listening floor.
    pub energy_total: FigureTable,
    /// Panel (b): average delay.
    pub delay: FigureTable,
    /// Panel (c): distinct-event delivery ratio.
    pub delivery: FigureTable,
    /// The raw per-point comparisons (for further analysis).
    pub points: Vec<ComparisonPoint>,
}

impl FigureData {
    /// Renders all panels as text.
    pub fn render_text(&self) -> String {
        format!(
            "{}\n\n{}\n{}\n{}\n{}",
            self.figure.title(),
            self.energy.render_text(),
            self.delay.render_text(),
            self.delivery.render_text(),
            self.energy_total.render_text()
        )
    }
}

/// The sweep variable's values for `figure`: node, sink or source counts.
fn sweep_values(figure: Figure, params: &FigureParams) -> &[usize] {
    match figure {
        Figure::Fig8NumberOfSinks => &params.sink_counts,
        Figure::Fig9NumberOfSources | Figure::Fig10LinearAggregation => &params.source_counts,
        _ => &params.node_counts,
    }
}

/// The scenario for one `(figure, point, field)` cell of a figure sweep.
fn figure_spec(
    figure: Figure,
    params: &FigureParams,
    x: usize,
    pi: usize,
    f: usize,
) -> ScenarioSpec {
    let seed = field_seed(
        params.seed ^ figure.stream().wrapping_mul(0x0000_0100_0000_01b3),
        pi as u64,
        f as u64,
    );
    let mut spec = match figure {
        Figure::Fig5Comparative => ScenarioSpec::paper(x, seed),
        Figure::Fig6NodeFailures => ScenarioSpec {
            failures: Some(FailureConfig::default()),
            ..ScenarioSpec::paper(x, seed)
        },
        Figure::Fig7RandomSources => ScenarioSpec {
            source_placement: SourcePlacement::Uniform,
            ..ScenarioSpec::paper(x, seed)
        },
        Figure::Fig8NumberOfSinks => ScenarioSpec {
            num_sinks: x,
            ..ScenarioSpec::paper(params.dense_field_nodes, seed)
        },
        Figure::Fig9NumberOfSources | Figure::Fig10LinearAggregation => ScenarioSpec {
            num_sources: x,
            ..ScenarioSpec::paper(params.dense_field_nodes, seed)
        },
    };
    spec.duration = params.duration;
    // Density-preserving scale: `scale`× the nodes in a `√scale`× wider
    // square keeps nodes-per-m² (and thus the paper's density axis) fixed.
    // Gated on exactly 1.0 so unscaled sweeps stay bit-identical — the
    // branch, not rounding luck, is what guarantees identity.
    if params.scale != 1.0 {
        spec.node_count = ((spec.node_count as f64) * params.scale).round().max(1.0) as usize;
        spec.field_side_m *= params.scale.sqrt();
        // Full connectivity of a constant-density random field vanishes as
        // n grows (isolated nodes appear at a constant per-node rate), so
        // scaled runs accept a 90% giant component and place roles inside
        // it. See `wsn_scenario::Connectivity`.
        spec.connectivity = Connectivity::GiantComponent { min_fraction: 0.9 };
    }
    spec
}

/// Regenerates one figure on [`Runner::from_env`] (serial unless `WSN_JOBS`
/// says otherwise, no watchdog).
pub fn run_figure(figure: Figure, params: &FigureParams) -> FigureData {
    run_figure_with(figure, params, &Runner::from_env())
        .expect("a runner without a watchdog budget cannot fail")
}

/// Regenerates one figure, executing the full `(point, field, scheme)` job
/// list on `runner` — every run of the figure is exposed to the worker
/// pool at once, so parallelism is not limited to within one sweep point.
///
/// # Errors
///
/// Returns the first [`JobError`] in job order if the runner's watchdog
/// budget was exceeded.
pub fn run_figure_with(
    figure: Figure,
    params: &FigureParams,
    runner: &Runner,
) -> Result<FigureData, JobError> {
    let aggregation = match figure {
        Figure::Fig10LinearAggregation => AggregationFn::Linear,
        _ => AggregationFn::Perfect,
    };
    let xs = sweep_values(figure, params);
    let xs_f64: Vec<f64> = xs.iter().map(|&x| x as f64).collect();
    let points = run_sweep(
        runner,
        &xs_f64,
        params.fields_per_point,
        |pi, f| figure_spec(figure, params, xs[pi], pi, f),
        |_, scheme| DiffusionConfig {
            aggregation,
            ..DiffusionConfig::for_scheme(scheme)
        },
    )?;

    let columns = vec!["greedy".to_string(), "opportunistic".to_string()];
    let panel_metrics = [
        MetricKind::ActivityEnergy,
        MetricKind::Delay,
        MetricKind::Delivery,
        MetricKind::Energy,
    ];
    let mut tables: Vec<FigureTable> = panel_metrics
        .iter()
        .map(|m| {
            FigureTable::new(
                format!("{} — {}", figure.title(), m.label()),
                figure.x_label(),
                columns.clone(),
            )
        })
        .collect();
    for point in &points {
        for (ti, metric) in panel_metrics.iter().enumerate() {
            tables[ti].push_row(
                point.x,
                vec![
                    point.summary(Scheme::Greedy, *metric),
                    point.summary(Scheme::Opportunistic, *metric),
                ],
            );
        }
    }
    let energy_total = tables.pop().expect("four tables");
    let delivery = tables.pop().expect("three tables");
    let delay = tables.pop().expect("two tables");
    let energy = tables.pop().expect("one table");
    Ok(FigureData {
        figure,
        energy,
        energy_total,
        delay,
        delivery,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_metadata_is_consistent() {
        for f in Figure::ALL {
            assert!(f.title().starts_with("Figure"));
            assert!(!f.x_label().is_empty());
        }
        assert_eq!(Figure::Fig8NumberOfSinks.x_label(), "sinks");
        assert_eq!(Figure::Fig5Comparative.x_label(), "nodes");
    }

    #[test]
    fn quick_params_are_smaller_than_paper() {
        let q = FigureParams::quick(0);
        let p = FigureParams::paper(0);
        assert!(q.fields_per_point < p.fields_per_point);
        assert!(q.duration < p.duration);
        assert!(q.node_counts.len() < p.node_counts.len());
        assert_eq!(p.node_counts, vec![50, 100, 150, 200, 250, 300, 350]);
        assert_eq!(p.source_counts, vec![2, 5, 8, 11, 14]);
        assert_eq!(p.sink_counts, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn roles_must_fit_every_scaled_point() {
        let mut params = FigureParams::quick(1);
        for figure in Figure::ALL {
            assert_eq!(params.check_roles(figure), Ok(()), "{figure:?}");
        }
        // 150 × 0.04 = 6 nodes hold fig8's 5 sources + 1 sink, but not its
        // 3-sink point; fig5's 50-node point rounds to 2 nodes.
        params.scale = 0.04;
        assert_eq!(
            params.check_roles(Figure::Fig8NumberOfSinks),
            Err("5 sources + 3 sinks exceed 6 nodes at the sinks = 3 point".to_string())
        );
        assert_eq!(
            params.check_roles(Figure::Fig5Comparative),
            Err("5 sources + 1 sinks exceed 2 nodes at the nodes = 50 point".to_string())
        );
    }

    #[test]
    fn scale_preserves_density_and_identity() {
        let params = FigureParams::quick(0);
        let base = figure_spec(Figure::Fig5Comparative, &params, 50, 0, 0);
        // scale = 1.0 is exactly the unscaled spec (bit-identical sweeps).
        let mut scaled_params = params.clone();
        scaled_params.scale = 1.0;
        assert_eq!(
            figure_spec(Figure::Fig5Comparative, &scaled_params, 50, 0, 0),
            base
        );
        // scale = 100: 100× the nodes, 10× the side, same density, same
        // seed and roles.
        scaled_params.scale = 100.0;
        let scaled = figure_spec(Figure::Fig5Comparative, &scaled_params, 50, 0, 0);
        assert_eq!(scaled.node_count, 5000);
        assert!((scaled.field_side_m - 2000.0).abs() < 1e-9);
        assert_eq!(scaled.seed, base.seed);
        assert_eq!(scaled.num_sources, base.num_sources);
        assert_eq!(scaled.num_sinks, base.num_sinks);
        let density = |s: &ScenarioSpec| s.node_count as f64 / (s.field_side_m * s.field_side_m);
        assert!((density(&scaled) - density(&base)).abs() < density(&base) * 1e-6);
        // Scaled specs relax connectivity to a 90% giant component (full
        // connectivity is not drawable at constant density and large n);
        // unscaled specs keep the paper's full-connectivity rule.
        assert_eq!(base.connectivity, Connectivity::Full);
        assert_eq!(
            scaled.connectivity,
            Connectivity::GiantComponent { min_fraction: 0.9 }
        );
    }

    #[test]
    fn streams_are_distinct() {
        let set: std::collections::HashSet<u64> = Figure::ALL.iter().map(|f| f.stream()).collect();
        assert_eq!(set.len(), Figure::ALL.len());
    }
}
