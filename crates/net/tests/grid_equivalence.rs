//! Property-based equivalence of the spatial-grid topology construction
//! against the brute-force all-pairs definition: for every node, the grid
//! must produce exactly the set `{ j ≠ i : |pᵢ − pⱼ|² ≤ range² }`, in
//! ascending id order, regardless of field size, range, or node placement —
//! including the degenerate regimes the grid special-cases (range wider than
//! the whole field, nodes sitting exactly on cell boundaries). Every
//! topology built here also checks its reverse-link index.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use wsn_net::{NodeId, Position, SpatialGrid, Topology};

/// The O(n²) reference: sorted neighbor lists straight from the definition.
fn all_pairs(positions: &[Position], range_m: f64) -> Vec<Vec<NodeId>> {
    let n = positions.len();
    let range_sq = range_m * range_m;
    let mut neighbors = vec![Vec::new(); n];
    for i in 0..n {
        for j in (i + 1)..n {
            if positions[i].distance_squared(positions[j]) <= range_sq {
                neighbors[i].push(NodeId(j as u32));
                neighbors[j].push(NodeId(i as u32));
            }
        }
    }
    neighbors
}

/// Every link round-trips through the reverse index: for
/// `v = neighbors(u)[k]`, `neighbors(v)[reverse(u)[k]] == u`.
fn assert_reverse_round_trips(topo: &Topology) -> Result<(), TestCaseError> {
    for i in 0..topo.len() {
        let u = NodeId(i as u32);
        let (neighbors, reverse) = (topo.neighbors(u), topo.reverse(u));
        prop_assert_eq!(neighbors.len(), reverse.len());
        for (k, (&v, &back)) in neighbors.iter().zip(reverse).enumerate() {
            prop_assert_eq!(
                topo.neighbors(v).get(back as usize).copied(),
                Some(u),
                "link {} -> {} at position {} does not round-trip",
                u,
                v,
                k
            );
        }
    }
    Ok(())
}

fn assert_equivalent(positions: Vec<(f64, f64)>, range_m: f64) -> Result<(), TestCaseError> {
    let positions: Vec<Position> = positions
        .into_iter()
        .map(|(x, y)| Position::new(x, y))
        .collect();
    let reference = all_pairs(&positions, range_m);
    let topo = Topology::new(positions, range_m);
    for (i, expected) in reference.iter().enumerate() {
        prop_assert_eq!(
            topo.neighbors(NodeId(i as u32)),
            expected.as_slice(),
            "neighbor list of node {} diverges from all-pairs",
            i
        );
    }
    // Connectivity must agree with a BFS over the materialized lists.
    let grid = SpatialGrid::new(topo.positions().to_vec(), range_m);
    prop_assert_eq!(grid.is_connected(), topo.is_connected());
    assert_reverse_round_trips(&topo)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random fields across three orders of magnitude of side length and a
    /// wide band of ranges (sparse through fully connected).
    #[test]
    fn grid_equals_all_pairs_on_random_fields(
        side in 10.0f64..1000.0,
        range in 5.0f64..120.0,
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..80),
    ) {
        let positions = raw.iter().map(|&(x, y)| (x * side, y * side)).collect();
        assert_equivalent(positions, range)?;
    }

    /// Radio range wider than the whole field: every pair is in range, the
    /// grid degenerates to few (possibly one) cells, and the neighbor lists
    /// must still be complete.
    #[test]
    fn grid_handles_range_exceeding_the_field(
        side in 1.0f64..30.0,
        range in 50.0f64..500.0,
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 1..40),
    ) {
        let positions: Vec<(f64, f64)> =
            raw.iter().map(|&(x, y)| (x * side, y * side)).collect();
        let n = positions.len();
        let topo = Topology::new(
            positions.iter().map(|&(x, y)| Position::new(x, y)).collect(),
            range,
        );
        for i in 0..n {
            prop_assert_eq!(topo.neighbors(NodeId(i as u32)).len(), n - 1);
        }
        assert_equivalent(positions, range)?;
    }

    /// Nodes placed exactly on cell boundaries (integer multiples of half
    /// the range): floor-based bucketing must not lose or duplicate edges
    /// for points on the seams, including several nodes on the same seam.
    #[test]
    fn grid_handles_nodes_on_cell_boundaries(
        range in 10.0f64..60.0,
        cells in prop::collection::vec((0u32..9, 0u32..9), 1..50),
    ) {
        let half = range / 2.0;
        let positions = cells
            .iter()
            .map(|&(cx, cy)| (f64::from(cx) * half, f64::from(cy) * half))
            .collect();
        assert_equivalent(positions, range)?;
    }

    /// Pathologically clustered fields: all nodes inside one grid cell, so
    /// the 3×3 scan degenerates to a dense local neighborhood.
    #[test]
    fn grid_handles_single_cell_clusters(
        range in 20.0f64..80.0,
        raw in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
    ) {
        // Cluster diameter strictly under the cell size.
        let span = range * 0.9;
        let positions = raw.iter().map(|&(x, y)| (x * span, y * span)).collect();
        assert_equivalent(positions, range)?;
    }
}
