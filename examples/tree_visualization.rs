//! Renders the aggregation trees both schemes build on the *same* field as
//! side-by-side SVG files — the fastest way to *see* the paper's claim: the
//! greedy tree merges the corner sources early into one trunk, while the
//! opportunistic paths fan out across the field.
//!
//! ```sh
//! cargo run --release --example tree_visualization
//! # then open greedy_tree.svg and opportunistic_tree.svg
//! ```

use wsn::core::Experiment;
use wsn::diffusion::Scheme;
use wsn::scenario::{render_svg, RenderOverlay, ScenarioSpec};
use wsn::sim::SimDuration;

fn main() {
    let mut spec = ScenarioSpec::paper(250, 2002);
    spec.duration = SimDuration::from_secs(120);
    let instance = spec.instantiate();
    println!(
        "field: 250 nodes (degree {:.1}), sources {:?}, sink {:?}",
        instance.field.topology.average_degree(),
        instance.sources,
        instance.sinks
    );

    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let outcome = Experiment::new(spec.clone(), scheme).run_on(&instance);
        println!(
            "{scheme}: {} tree edges, {} distinct events delivered",
            outcome.tree_edges.len(),
            outcome.record.distinct_events
        );
        let overlay = RenderOverlay {
            sources: instance.sources.clone(),
            sinks: instance.sinks.clone(),
            tree_edges: outcome.tree_edges,
            down: outcome.down,
        };
        let path = format!("{scheme}_tree.svg");
        std::fs::write(&path, render_svg(&instance.field, &overlay))
            .expect("write SVG next to the manifest");
        println!("wrote {path}");
    }
    println!("\nCompare the two SVGs: the greedy tree shares one trunk from the\ncorner; the opportunistic paths spread over the field's width.");
}
