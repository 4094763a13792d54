//! Ablation studies of greedy aggregation's design knobs.
//!
//! The paper fixes `T_p = 1 s`, `T_a = 0.5 s`, and one exploratory event per
//! 50 s, and motivates each choice qualitatively. This harness measures what
//! each knob actually buys on a dense field (250 nodes, the regime where the
//! schemes separate):
//!
//! 1. **`T_p` (reinforcement timer)** — too short and the sink reinforces
//!    before incremental cost messages arrive (the tree degenerates toward
//!    opportunistic's); longer buys nothing once offers are in.
//! 2. **`T_a` (aggregation delay)** — the delay/energy trade: short `T_a`
//!    flushes partial aggregates (more transmissions), long `T_a` adds
//!    latency for no extra sharing once all sources are covered.
//! 3. **Exploratory interval** — more frequent rounds react faster to
//!    dynamics but pay flood overhead on every round.
//!
//! Usage: `cargo run --release -p wsn-bench --bin ablations [-- --fields N]`.
//! The field size is fixed, so `--scale` is a usage error.

use wsn_bench::{sweep_or_exit, HarnessOptions};
use wsn_core::{field_seed, run_sweep, MetricKind, Runner};
use wsn_diffusion::{DiffusionConfig, Scheme};
use wsn_metrics::FigureTable;
use wsn_scenario::ScenarioSpec;
use wsn_sim::SimDuration;

const NODES: usize = 250;

#[allow(clippy::too_many_arguments)]
fn sweep(
    runner: &Runner,
    title: &str,
    x_label: &str,
    values: &[f64],
    fields: usize,
    duration: SimDuration,
    seed: u64,
    configure: impl Fn(Scheme, f64) -> DiffusionConfig,
) {
    let mut energy = FigureTable::new(
        format!("{title} — Average Dissipated Energy (J/node/event)"),
        x_label,
        vec!["greedy".into(), "opportunistic".into()],
    );
    let mut delay = FigureTable::new(
        format!("{title} — Average Delay (s/event)"),
        x_label,
        vec!["greedy".into(), "opportunistic".into()],
    );
    let mut delivery = FigureTable::new(
        format!("{title} — Distinct-Event Delivery Ratio"),
        x_label,
        vec!["greedy".into(), "opportunistic".into()],
    );
    // The whole ablation sweep is one job list: every (value, field,
    // scheme) run is exposed to the worker pool at once.
    let points = sweep_or_exit(run_sweep(
        runner,
        values,
        fields,
        |pi, f| {
            let mut spec = ScenarioSpec::paper(NODES, field_seed(seed, pi as u64, f as u64));
            spec.duration = duration;
            spec
        },
        |pi, scheme| configure(scheme, values[pi]),
    ));
    for point in &points {
        let v = point.x;
        for (table, metric) in [
            (&mut energy, MetricKind::ActivityEnergy),
            (&mut delay, MetricKind::Delay),
            (&mut delivery, MetricKind::Delivery),
        ] {
            table.push_row(
                v,
                vec![
                    point.summary(Scheme::Greedy, metric),
                    point.summary(Scheme::Opportunistic, metric),
                ],
            );
        }
    }
    println!("{}", energy.render_text());
    println!("{}", delay.render_text());
    println!("{}", delivery.render_text());
}

fn main() {
    let opts = HarnessOptions::from_env_except(&["--scale"]);
    let fields = opts.params.fields_per_point.min(5);
    let duration = opts.params.duration;
    let seed = opts.params.seed;
    let runner = &opts.runner;

    println!(
        "# Ablations at {NODES} nodes, {fields} fields/point, {} workers\n",
        runner.effective_workers()
    );

    // 1. The sink's reinforcement timer T_p (seconds). T_p = 0 makes greedy
    //    reinforce immediately, before incremental cost offers arrive.
    sweep(
        runner,
        "Ablation 1: reinforcement timer T_p",
        "T_p (s)",
        &[0.0, 0.25, 0.5, 1.0, 2.0, 5.0],
        fields,
        duration,
        seed ^ 0xA1,
        |scheme, v| DiffusionConfig {
            reinforce_delay: SimDuration::from_secs_f64(v),
            ..DiffusionConfig::for_scheme(scheme)
        },
    );

    // 2. The aggregation delay T_a (seconds). The truncation window scales
    //    with it as in the paper (T_n = 4·T_a, floor 1 s).
    sweep(
        runner,
        "Ablation 2: aggregation delay T_a",
        "T_a (s)",
        &[0.05, 0.125, 0.25, 0.5, 1.0, 2.0],
        fields,
        duration,
        seed ^ 0xA2,
        |scheme, v| DiffusionConfig {
            aggregation_delay: SimDuration::from_secs_f64(v),
            truncation_window: SimDuration::from_secs_f64((4.0 * v).max(1.0)),
            ..DiffusionConfig::for_scheme(scheme)
        },
    );

    // 3. The exploratory interval (seconds between exploratory events).
    sweep(
        runner,
        "Ablation 3: exploratory interval",
        "interval (s)",
        &[10.0, 25.0, 50.0, 100.0],
        fields,
        duration,
        seed ^ 0xA3,
        |scheme, v| DiffusionConfig {
            exploratory_interval: SimDuration::from_secs_f64(v),
            data_gradient_timeout: SimDuration::from_secs_f64(2.2 * v),
            ..DiffusionConfig::for_scheme(scheme)
        },
    );
}
