//! The diffusion lineage's evaluation brackets, applied to the ICDCS
//! scenario: **flooding** (maximally robust, maximally expensive) above,
//! **omniscient multicast** (an oracle delivering one transmission per
//! greedy-incremental-tree edge per round, zero control overhead) below,
//! with the two diffusion instantiations in between.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin baselines [-- --fields N --duration SECS]
//! ```
//!
//! The field size is fixed at 250 nodes, and the networks are run here by
//! hand rather than through the job runner, so `--scale`, `--max-events`,
//! `--progress`, `--metrics` and `--profile` are usage errors.

use wsn_bench::{outln, sweep_or_exit, HarnessOptions};
use wsn_core::{check_artifact, field_seed, Experiment, JobError, JobFailure};
use wsn_diffusion::{FloodingNode, Role, Scheme};
use wsn_metrics::{FigureTable, Summary};
use wsn_net::{tx_duration, EnergyModel, NetConfig, Network};
use wsn_scenario::ScenarioSpec;
use wsn_trace::JsonlSink;
use wsn_trees::{greedy_incremental_tree, Graph};

/// The harness flags this binary would not honour.
const IGNORED: [&str; 5] = [
    "--scale",
    "--max-events",
    "--progress",
    "--metrics",
    "--profile",
];

fn main() {
    let opts = HarnessOptions::from_env_except(&IGNORED);
    let fields = opts.params.fields_per_point;
    let duration = opts.params.duration;
    let nodes = 250usize;

    let mut energy = FigureTable::new(
        format!("Baselines at {nodes} nodes — Average Dissipated Energy (J/node/event)"),
        "field",
        vec![
            "flooding".into(),
            "opportunistic".into(),
            "greedy".into(),
            "omniscient (bound)".into(),
        ],
    );
    let mut delivery = FigureTable::new(
        format!("Baselines at {nodes} nodes — Distinct-Event Delivery Ratio"),
        "field",
        vec![
            "flooding".into(),
            "opportunistic".into(),
            "greedy".into(),
            "omniscient (bound)".into(),
        ],
    );

    // The diffusion runs go through the hand-rolled instance (shared with
    // the flooding bracket) rather than a `RunJob`, so `--trace` is
    // honoured here directly: one file per (field, scheme) under the
    // runner's naming scheme, point 0. Every file is checked, in run
    // order, before any network runs.
    let schemes = [Scheme::Opportunistic, Scheme::Greedy];
    let job_error = |field_index, scheme, cause| JobError {
        point_index: 0,
        point_x: 0.0,
        field_index,
        scheme,
        cause,
    };
    if let Some(spec) = &opts.runner.trace {
        for f in 0..fields {
            for scheme in schemes {
                let path = spec.job_path(0.0, f, scheme);
                sweep_or_exit(check_artifact(&path).map_err(|c| job_error(f, scheme, c)));
            }
        }
    }

    // One job per field; each worker builds (and drops) its own networks.
    // Results come back keyed by field index, so the tables are identical
    // to a serial run at any worker count.
    let field_indices: Vec<u64> = (0..fields as u64).collect();
    let rows = opts.runner.parallel_map(&field_indices, |_, &f| {
        let mut spec = ScenarioSpec::paper(nodes, field_seed(opts.params.seed ^ 0xBA5E, 0, f));
        spec.duration = duration;
        let instance = spec.instantiate();

        // Flooding.
        let mut flood_net = Network::new(
            instance.field.topology.clone(),
            NetConfig::default(),
            spec.seed,
            |id| {
                let (is_source, is_sink) = instance.role_of(id);
                FloodingNode::new(id, Role { is_source, is_sink })
            },
        );
        flood_net.run_until(instance.end);
        let flood_distinct: u64 = flood_net
            .protocols()
            .filter(|(_, p)| p.role().is_sink)
            .map(|(_, p)| p.sink.distinct)
            .sum();
        let flood_generated: u64 = flood_net
            .protocols()
            .filter(|(_, p)| p.role().is_source)
            .map(|(_, p)| p.events_generated)
            .sum();
        let flood_energy = if flood_distinct == 0 {
            f64::INFINITY
        } else {
            flood_net.total_activity_energy() / nodes as f64 / flood_distinct as f64
        };
        let flood_delivery = flood_distinct as f64 / flood_generated.max(1) as f64;

        // The two diffusion schemes.
        let mut scheme_energy = Vec::new();
        let mut scheme_delivery = Vec::new();
        for scheme in schemes {
            let trace = match &opts.runner.trace {
                Some(spec) => {
                    let path = spec.job_path(0.0, f as usize, scheme);
                    let sink = JsonlSink::create(&path).map_err(|e| {
                        job_error(f as usize, scheme, JobFailure::artifact(&path, &e))
                    })?;
                    Some((wsn_trace::shared(sink), spec.options()))
                }
                None => None,
            };
            let m = Experiment::new(spec.clone(), scheme)
                .run_on_observed(&instance, u64::MAX, trace, None, None)
                .expect("an unbounded event budget cannot trip")
                .0
                .record
                .metrics();
            scheme_energy.push(m.avg_activity_energy);
            scheme_delivery.push(m.delivery_ratio);
        }

        // Omniscient multicast: one transmission per GIT edge per round,
        // perfect delivery, zero control traffic. Energy per frame: the
        // transmitter plus every in-range hearer.
        let g = Graph::from_topology(&instance.field.topology);
        let sink = instance.sinks[0].index();
        let sources: Vec<usize> = instance.sources.iter().map(|s| s.index()).collect();
        let git = greedy_incremental_tree(&g, sink, &sources);
        let power = EnergyModel::PAPER;
        let frame_s = tx_duration(64).as_secs_f64();
        let avg_degree = instance.field.topology.average_degree();
        let per_frame_j = frame_s * (power.tx_w + avg_degree * power.rx_w);
        // Per round, `git.cost` frames deliver all 5 sources' events; the
        // sink counts 5 distinct events per round.
        let omniscient_energy = git.cost * per_frame_j / nodes as f64 / sources.len() as f64;

        Ok((
            [
                flood_energy,
                scheme_energy[0],
                scheme_energy[1],
                omniscient_energy,
            ],
            [flood_delivery, scheme_delivery[0], scheme_delivery[1], 1.0],
        ))
    });
    let rows = sweep_or_exit(rows.into_iter().collect::<Result<Vec<_>, _>>());

    for (f, (energy_row, delivery_row)) in rows.into_iter().enumerate() {
        energy.push_row(
            f as f64,
            energy_row.into_iter().map(|v| Summary::of([v])).collect(),
        );
        delivery.push_row(
            f as f64,
            delivery_row.into_iter().map(|v| Summary::of([v])).collect(),
        );
    }

    outln!("{}", energy.render_text());
    outln!("{}", delivery.render_text());
    outln!(
        "# Expected ordering per field: omniscient ≤ greedy ≤ opportunistic ≤ flooding\n\
         # (energy); flooding matches or beats the rest on delivery."
    );
}
