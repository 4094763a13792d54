//! Source and sink placement schemes (paper §5.1 and §5.4).

use std::collections::HashSet;

use wsn_net::{NodeId, Position, Rect};
use wsn_sim::SimRng;

use crate::field::Field;

/// Side of the bottom-left square the corner sources are drawn from, meters
/// (DESIGN §3 "Source square": 80 m).
const SOURCE_SQUARE_M: f64 = 80.0;

/// Side of the top-right square the first sink is drawn from, meters
/// (DESIGN §3 "Sink square": 36 m).
const SINK_SQUARE_M: f64 = 36.0;

/// How sources are chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourcePlacement {
    /// "All sources are randomly selected from nodes in a 80 m by 80 m
    /// square at the bottom left corner of the sensor field." (§5.1)
    Corner,
    /// "We randomly placed 5 sources in the sensor field" (§5.4, Figure 7).
    Uniform,
}

/// Picks `count` distinct nodes inside `region`, excluding `exclude`.
/// When the region holds too few eligible nodes, falls back to the nodes
/// nearest the region's center (keeps degenerate sparse fields usable).
pub fn pick_nodes_in_region(
    positions: &[Position],
    region: Rect,
    count: usize,
    exclude: &HashSet<NodeId>,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let eligible: Vec<NodeId> = positions
        .iter()
        .enumerate()
        .map(|(i, _)| NodeId::from_index(i))
        .filter(|id| !exclude.contains(id))
        .collect();
    let inside: Vec<NodeId> = eligible
        .iter()
        .copied()
        .filter(|id| region.contains(positions[id.index()]))
        .collect();
    if inside.len() >= count {
        return rng
            .sample_indices(inside.len(), count)
            .into_iter()
            .map(|i| inside[i])
            .collect();
    }
    // Fallback: everyone inside, then nearest-to-center outsiders.
    let center = Position::new((region.x0 + region.x1) / 2.0, (region.y0 + region.y1) / 2.0);
    let mut outsiders: Vec<NodeId> = eligible
        .iter()
        .copied()
        .filter(|id| !region.contains(positions[id.index()]))
        .collect();
    outsiders.sort_by(|a, b| {
        positions[a.index()]
            .distance(center)
            .partial_cmp(&positions[b.index()].distance(center))
            .expect("finite distances")
            .then(a.cmp(b))
    });
    let mut chosen = inside;
    chosen.extend(outsiders.into_iter().take(count - chosen.len()));
    chosen
}

/// Picks `count` distinct nodes uniformly from the whole field, excluding
/// `exclude`.
///
/// # Panics
///
/// Panics if fewer than `count` eligible nodes exist.
pub fn pick_nodes_uniform(
    positions: &[Position],
    count: usize,
    exclude: &HashSet<NodeId>,
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let eligible: Vec<NodeId> = positions
        .iter()
        .enumerate()
        .map(|(i, _)| NodeId::from_index(i))
        .filter(|id| !exclude.contains(id))
        .collect();
    assert!(
        eligible.len() >= count,
        "cannot pick {count} nodes from {} eligible",
        eligible.len()
    );
    rng.sample_indices(eligible.len(), count)
        .into_iter()
        .map(|i| eligible[i])
        .collect()
}

/// Node ids outside the field's connected core (empty for fully connected
/// fields). Roles must live inside the core: a source or sink in a
/// stray fragment could never exchange a packet with the rest of the
/// field.
fn off_core(field: &Field) -> impl Iterator<Item = NodeId> + '_ {
    (0..field.positions.len())
        .map(NodeId::from_index)
        .filter(|&id| !field.in_core(id))
}

/// Selects the sinks for a field: "The sink is randomly selected from nodes
/// in a 36 m by 36 m square at the top right corner of the field." (§5.1)
/// For multi-sink runs (Figure 8): "The first sink is placed at the top
/// right corner whereas the other sinks are uniformly scattered across the
/// sensor field."
pub fn place_sinks(field: &Field, count: usize, rng: &mut SimRng) -> Vec<NodeId> {
    let mut exclude: HashSet<NodeId> = off_core(field).collect();
    let mut sinks = Vec::with_capacity(count);
    if count == 0 {
        return sinks;
    }
    let corner = field.area.top_right(SINK_SQUARE_M, SINK_SQUARE_M);
    let first = pick_nodes_in_region(&field.positions, corner, 1, &exclude, rng);
    sinks.extend(first.iter().copied());
    exclude.extend(first);
    if count > 1 {
        sinks.extend(pick_nodes_uniform(
            &field.positions,
            count - 1,
            &exclude,
            rng,
        ));
    }
    sinks
}

/// Selects the sources for a field per the placement scheme, never reusing a
/// sink node.
pub fn place_sources(
    field: &Field,
    placement: SourcePlacement,
    count: usize,
    sinks: &[NodeId],
    rng: &mut SimRng,
) -> Vec<NodeId> {
    let mut exclude: HashSet<NodeId> = sinks.iter().copied().collect();
    exclude.extend(off_core(field));
    match placement {
        SourcePlacement::Corner => {
            let region = field.area.bottom_left(SOURCE_SQUARE_M, SOURCE_SQUARE_M);
            pick_nodes_in_region(&field.positions, region, count, &exclude, rng)
        }
        SourcePlacement::Uniform => pick_nodes_uniform(&field.positions, count, &exclude, rng),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::generate_field;

    fn field(n: usize, seed: u64) -> Field {
        let mut rng = SimRng::from_seed_stream(seed, 0);
        generate_field(n, 200.0, 40.0, &mut rng)
    }

    #[test]
    fn corner_sources_live_in_the_corner() {
        let f = field(200, 1);
        let mut rng = SimRng::from_seed_stream(1, 1);
        let sinks = place_sinks(&f, 1, &mut rng);
        let sources = place_sources(&f, SourcePlacement::Corner, 5, &sinks, &mut rng);
        assert_eq!(sources.len(), 5);
        let region = f.area.bottom_left(80.0, 80.0);
        for s in &sources {
            assert!(region.contains(f.positions[s.index()]));
        }
    }

    #[test]
    fn first_sink_is_top_right() {
        let f = field(200, 2);
        let mut rng = SimRng::from_seed_stream(2, 1);
        let sinks = place_sinks(&f, 1, &mut rng);
        assert_eq!(sinks.len(), 1);
        let region = f.area.top_right(36.0, 36.0);
        assert!(region.contains(f.positions[sinks[0].index()]));
    }

    #[test]
    fn multi_sink_yields_distinct_nodes() {
        let f = field(350, 3);
        let mut rng = SimRng::from_seed_stream(3, 1);
        let sinks = place_sinks(&f, 5, &mut rng);
        assert_eq!(sinks.len(), 5);
        let set: HashSet<_> = sinks.iter().collect();
        assert_eq!(set.len(), 5);
    }

    #[test]
    fn sources_never_collide_with_sinks() {
        let f = field(100, 4);
        for round in 0..10 {
            let mut rng = SimRng::from_seed_stream(4, round);
            let sinks = place_sinks(&f, 3, &mut rng);
            let sources = place_sources(&f, SourcePlacement::Uniform, 14, &sinks, &mut rng);
            let sink_set: HashSet<_> = sinks.iter().collect();
            assert!(sources.iter().all(|s| !sink_set.contains(s)));
            let distinct: HashSet<_> = sources.iter().collect();
            assert_eq!(distinct.len(), sources.len());
        }
    }

    #[test]
    fn sparse_corner_falls_back_to_nearest() {
        // A tiny region with probably no nodes: the fallback must still
        // return the requested count, preferring nodes near the region.
        let f = field(50, 5);
        let mut rng = SimRng::from_seed_stream(5, 1);
        let region = Rect::new(0.0, 0.0, 1.0, 1.0);
        let picked = pick_nodes_in_region(&f.positions, region, 5, &HashSet::new(), &mut rng);
        assert_eq!(picked.len(), 5);
        let distinct: HashSet<_> = picked.iter().collect();
        assert_eq!(distinct.len(), 5);
    }

    #[test]
    fn zero_sinks_is_empty() {
        let f = field(50, 6);
        let mut rng = SimRng::from_seed_stream(6, 1);
        assert!(place_sinks(&f, 0, &mut rng).is_empty());
    }

    #[test]
    #[should_panic(expected = "cannot pick")]
    fn oversubscribed_uniform_panics() {
        let f = field(50, 7);
        let mut rng = SimRng::from_seed_stream(7, 1);
        pick_nodes_uniform(&f.positions, 51, &HashSet::new(), &mut rng);
    }
}
