//! Ablation: how MAC-level unicast overhead changes the aggregation story.
//!
//! The paper's ns-2 802.11 model exchanged RTS/CTS before unicast data
//! (ns-2's default), so every data transmission carried two extra control
//! frames. Our reproduction defaults to plain CSMA/CA + ACK; this harness
//! measures both contention MACs *and* the ideal contention-free MAC on
//! identical fields. The CSMA-vs-RTS/CTS spread quantifies how
//! per-transmission overhead amplifies greedy aggregation's savings (the
//! suspected cause of our Figure 10 gap being smaller than the paper's —
//! see `EXPERIMENTS.md`), and the ideal column is the lower bound: whatever
//! greedy/opportunistic gap survives without any contention or control
//! frames is pure transmission-count savings.
//!
//! ```sh
//! cargo run --release -p wsn-bench --bin mac_overhead [-- --fields N --duration SECS]
//! ```
//!
//! The field size is fixed at 250 nodes, so `--scale` is a usage error.

use wsn_bench::{outln, sweep_or_exit, HarnessOptions};
use wsn_core::{collect_points, field_seed, sweep_jobs, MetricKind};
use wsn_diffusion::{DiffusionConfig, Scheme};
use wsn_metrics::{FigureTable, Summary};
use wsn_net::MacKind;
use wsn_scenario::ScenarioSpec;

fn main() {
    let opts = HarnessOptions::from_env_except(&["--scale"]);
    let fields = opts.params.fields_per_point;
    let duration = opts.params.duration;

    // The three MACs are the sweep points; identical fields under all of
    // them (the seed ignores the point index). Each spec's MAC choice rides
    // into its jobs' NetConfig through the normal sweep plumbing.
    let macs = [
        ("csma+ack", MacKind::Csma),
        ("rts/cts", MacKind::RtsCts),
        ("ideal", MacKind::Ideal),
    ];
    let xs = [0.0, 1.0, 2.0];
    let jobs = sweep_jobs(
        &xs,
        fields,
        |pi, f| {
            let mut spec =
                ScenarioSpec::paper(250, field_seed(opts.params.seed ^ 0xACC, 0, f as u64));
            spec.duration = duration;
            spec.mac = macs[pi].1;
            spec
        },
        |_, scheme| DiffusionConfig::for_scheme(scheme),
    );
    let points = sweep_or_exit(collect_points(&opts.runner, &xs, &jobs));

    let mut per_mac: Vec<(Summary, Summary, f64)> = Vec::new();
    for (mi, point) in points.iter().enumerate() {
        let g = point.summary(Scheme::Greedy, MetricKind::ActivityEnergy);
        let o = point.summary(Scheme::Opportunistic, MetricKind::ActivityEnergy);
        let ratio = if o.mean > 0.0 { g.mean / o.mean } else { 1.0 };
        outln!(
            "# {}: greedy {:.6}, opportunistic {:.6}, ratio {:.3}",
            macs[mi].0,
            g.mean,
            o.mean,
            ratio
        );
        per_mac.push((g, o, ratio));
    }

    // One column per MAC; rows are the metric (greedy energy, opportunistic
    // energy, and their ratio).
    let mut table = FigureTable::new(
        "MAC-overhead ablation at 250 nodes — Average Dissipated Energy (J/node/event)",
        "metric",
        macs.iter().map(|(name, _)| (*name).to_string()).collect(),
    );
    table.push_row(0.0, per_mac.iter().map(|(g, _, _)| *g).collect());
    table.push_row(1.0, per_mac.iter().map(|(_, o, _)| *o).collect());
    table.push_row(
        2.0,
        per_mac.iter().map(|(_, _, r)| Summary::of([*r])).collect(),
    );
    outln!("\n{}", table.render_text());
    outln!("# columns: csma+ack (this repo's default), rts/cts (ns-2 default), ideal (contention-free lower bound)");
    outln!("# rows: metric 0 = greedy energy, 1 = opportunistic energy, 2 = ratio g/o");

    // How much of the greedy-vs-opportunistic savings is MAC amplification?
    let (_, _, csma_ratio) = per_mac[0];
    let (_, _, ideal_ratio) = per_mac[2];
    let csma_savings = 1.0 - csma_ratio;
    let ideal_savings = 1.0 - ideal_ratio;
    if csma_savings.abs() > f64::EPSILON {
        outln!(
            "# contention-free fraction: {:.1}% of greedy's csma+ack savings survive under the \
             ideal MAC (savings {:.3} -> {:.3})",
            100.0 * ideal_savings / csma_savings,
            csma_savings,
            ideal_savings,
        );
    }
}
