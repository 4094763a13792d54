//! The abstract GIT-vs-SPT contrast (paper §1 and §6).
//!
//! "Recent work has compared the greedy incremental tree with the shortest
//! path tree (SPT) using abstract simulations. Based on the event-radius
//! model and the random sources model, their results indicate that the
//! transmission savings by the GIT over the SPT do not exceed 20%. However,
//! the energy savings of our greedy aggregation can definitely be much
//! higher than 20%, given our source placement schemes and high-density
//! networks."
//!
//! This harness reproduces both sides of that contrast on abstract graphs:
//! GIT-vs-SPT savings under (a) the event-radius model, (b) the random
//! sources model, and (c) the ICDCS paper's corner placement, as a function
//! of network density.
//!
//! `--help` prints the usage and exits 0. A malformed command line prints
//! one `error:` line and the usage on stderr and exits with status 2.

use wsn_bench::{args_or_help, exit_usage_error, outln, parse_value};
use wsn_core::Runner;
use wsn_metrics::{FigureTable, Summary};
use wsn_net::{Position, Rect};
use wsn_sim::SimRng;
use wsn_trees::{
    compare_trees, event_radius_sources, random_geometric, random_sources, region_sources,
};

const USAGE: &str = "\
usage: krishnamachari [options]

  --jobs N           worker threads (default WSN_JOBS, else one per CPU)
  --help             print this help
";

/// The runner the command line asks for.
fn parse_args(argv: Vec<String>) -> Result<Runner, String> {
    let mut runner = Runner::from_env();
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        if flag != "--jobs" {
            return Err(format!("unknown argument {flag:?}"));
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        runner.workers = parse_value(&flag, &value)?;
    }
    Ok(runner)
}

fn main() {
    let runner = parse_args(args_or_help(USAGE)).unwrap_or_else(|e| exit_usage_error(&e, USAGE));
    let fields_per_point = 10;
    let node_counts = [50usize, 100, 150, 200, 250, 300, 350];
    let mut table = FigureTable::new(
        "GIT savings over SPT (fraction of transmissions), by source model",
        "nodes",
        vec![
            "event-radius".into(),
            "random-sources".into(),
            "corner (paper)".into(),
        ],
    );
    // One job per density point; savings come back keyed by point index.
    let per_point = runner.parallel_map(&node_counts, |pi, &n| {
        let mut savings = [Vec::new(), Vec::new(), Vec::new()];
        for f in 0..fields_per_point {
            let mut rng = SimRng::from_seed_stream(2002 + pi as u64, f);
            let (g, positions) = random_geometric(n, 200.0, 40.0, &mut rng);
            let sink = 0;

            // (a) Event-radius: an event in the bottom-left quadrant; all
            // nodes within a 40 m sensing radius are sources.
            let event = Position::new(50.0, 50.0);
            let er: Vec<usize> = event_radius_sources(&positions, event, 40.0)
                .into_iter()
                .filter(|&s| s != sink)
                .collect();
            if !er.is_empty() {
                savings[0].push(compare_trees(&g, sink, &er).git_savings_over_spt());
            }

            // (b) Random sources: 5 uniform sources.
            let rs = random_sources(n, 5.min(n - 1), sink, &mut rng);
            savings[1].push(compare_trees(&g, sink, &rs).git_savings_over_spt());

            // (c) The paper's corner placement: 5 sources in the bottom-left
            // 80 m square (sink stays node 0, wherever it landed).
            let field = Rect::square(200.0);
            let corner = region_sources(&positions, field.bottom_left(80.0, 80.0), 5, &mut rng);
            let corner: Vec<usize> = corner.into_iter().filter(|&s| s != sink).collect();
            if !corner.is_empty() {
                savings[2].push(compare_trees(&g, sink, &corner).git_savings_over_spt());
            }
        }
        savings
    });
    for (&n, savings) in node_counts.iter().zip(per_point) {
        table.push_row(n as f64, savings.into_iter().map(Summary::of).collect());
    }
    outln!("{}", table.render_text());
    outln!("## CSV\n{}", table.render_csv());
    outln!(
        "# Expectation: event-radius and random-sources savings stay modest\n\
         # (≲20%, the Krishnamachari result); the corner placement's savings\n\
         # grow with density (the ICDCS paper's argument)."
    );
}
