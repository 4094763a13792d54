//! Random sensor-field generation.
//!
//! "We generate a variety of sensor fields in a 200 m by 200 m square [...]
//! Each sensor field generated by randomly placing the nodes in the square.
//! Each node has a radio range of 40 m." Disconnected fields cannot deliver
//! events at all, so generation retries until the field is one connected
//! component (a standard scenario-generation practice; documented in
//! `DESIGN.md`).
//!
//! That full-connectivity rule is the paper's regime, 50–350 nodes. At
//! constant density full connectivity of a random geometric graph vanishes
//! as n grows — isolated nodes appear at a roughly constant per-node rate,
//! so a 5,000-node field at the sparse end of the paper's density axis is
//! essentially never one component. Scaled extrapolation runs therefore use
//! [`Connectivity::GiantComponent`]: accept the placement once the largest
//! component spans a required fraction of nodes, record the membership mask,
//! and let role placement avoid the stragglers.

use wsn_net::{NodeId, Position, Rect, SpatialGrid, Topology};
use wsn_sim::SimRng;

/// How many random placements [`generate_field`] tries before giving up.
const MAX_PLACEMENT_TRIES: u32 = 1000;

/// The connectivity a generated placement must satisfy before it is
/// accepted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Connectivity {
    /// The paper's rule: every node in one connected component. The right
    /// requirement at 50–350 nodes, and the default everywhere.
    Full,
    /// Accept when the largest connected component spans at least this
    /// fraction of the nodes; the accepted field records the component's
    /// membership mask ([`Field::core`]) so roles are placed inside it.
    /// The scaled-extrapolation rule (`--scale`, `DESIGN.md` §15.4).
    GiantComponent {
        /// Minimum fraction of nodes the giant component must span
        /// (e.g. 0.95).
        min_fraction: f64,
    },
}

/// A generated sensor field: node positions plus derived connectivity.
#[derive(Debug, Clone)]
pub struct Field {
    /// The square field region.
    pub area: Rect,
    /// Node positions, indexed by `NodeId`.
    pub positions: Vec<Position>,
    /// Disc-model connectivity.
    pub topology: Topology,
    /// Rejected placements before this field satisfied its connectivity
    /// requirement. Rides into run reports so sparse specs that burn
    /// generation time are visible instead of silent.
    pub retries: u32,
    /// Membership mask of the accepted giant component under
    /// [`Connectivity::GiantComponent`]; `None` under
    /// [`Connectivity::Full`], where every node qualifies.
    pub core: Option<Vec<bool>>,
}

impl Field {
    /// Whether `node` belongs to the field's connected core (always true
    /// for fully connected fields).
    pub fn in_core(&self, node: NodeId) -> bool {
        self.core.as_ref().is_none_or(|m| m[node.index()])
    }
}

/// Generates a connected random field of `n` nodes in a `side × side` square
/// with the given radio range.
///
/// Retries placement (up to 1000 times) until the field is connected. Each
/// candidate placement is screened by a [`SpatialGrid`] connectivity
/// pre-check — BFS straight over the grid cells — so a rejected placement
/// never materializes neighbor lists; the full [`Topology`] is built once,
/// for the accepted placement only.
///
/// # Panics
///
/// Panics if `n == 0` or if no connected placement is found within the retry
/// budget (practically impossible at the paper's densities); the panic
/// message carries the rejected-placement count.
///
/// # Examples
///
/// ```
/// use wsn_scenario::generate_field;
/// use wsn_sim::SimRng;
///
/// let mut rng = SimRng::from_seed_stream(1, 0);
/// let field = generate_field(50, 200.0, 40.0, &mut rng);
/// assert_eq!(field.positions.len(), 50);
/// assert!(field.topology.is_connected());
/// ```
pub fn generate_field(n: usize, side: f64, range: f64, rng: &mut SimRng) -> Field {
    generate_field_with(n, side, range, Connectivity::Full, rng)
}

/// [`generate_field`] under an explicit [`Connectivity`] requirement.
///
/// The RNG draw sequence per attempt (n position samples) is identical
/// across policies, so `Connectivity::Full` reproduces [`generate_field`]
/// bit for bit.
///
/// # Panics
///
/// Panics if `n == 0`, if a `GiantComponent` fraction is not within
/// `0.0..=1.0`, or if no acceptable placement is found within the retry
/// budget; the panic message carries the rejected-placement count.
pub fn generate_field_with(
    n: usize,
    side: f64,
    range: f64,
    connectivity: Connectivity,
    rng: &mut SimRng,
) -> Field {
    assert!(n > 0, "a field needs at least one node");
    if let Connectivity::GiantComponent { min_fraction } = connectivity {
        assert!(
            (0.0..=1.0).contains(&min_fraction),
            "giant-component fraction must be in 0..=1, got {min_fraction}"
        );
    }
    let area = Rect::square(side);
    for attempt in 0..MAX_PLACEMENT_TRIES {
        let positions: Vec<Position> = (0..n).map(|_| area.sample(rng)).collect();
        let grid = SpatialGrid::new(positions, range);
        match connectivity {
            Connectivity::Full => {
                if grid.is_connected() {
                    let topology = grid.into_topology();
                    return Field {
                        area,
                        positions: topology.positions().to_vec(),
                        topology,
                        retries: attempt,
                        core: None,
                    };
                }
            }
            Connectivity::GiantComponent { min_fraction } => {
                let (size, mask) = grid.largest_component();
                if size as f64 >= min_fraction * n as f64 {
                    let topology = grid.into_topology();
                    return Field {
                        area,
                        positions: topology.positions().to_vec(),
                        topology,
                        retries: attempt,
                        core: Some(mask),
                    };
                }
            }
        }
    }
    let what = match connectivity {
        Connectivity::Full => "connected".to_string(),
        Connectivity::GiantComponent { min_fraction } => {
            format!("{:.0}%-giant-component", min_fraction * 100.0)
        }
    };
    panic!(
        "no {what} placement of {n} nodes in {side}x{side} at range {range}: \
         all {MAX_PLACEMENT_TRIES} tries rejected as disconnected"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_connected_at_all_paper_sizes() {
        for (i, n) in [50usize, 100, 200, 350].iter().enumerate() {
            let mut rng = SimRng::from_seed_stream(10 + i as u64, 0);
            let field = generate_field(*n, 200.0, 40.0, &mut rng);
            assert!(field.topology.is_connected());
            assert_eq!(field.positions.len(), *n);
            assert!(field.core.is_none());
            assert!(field.in_core(NodeId(0)));
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let mut a = SimRng::from_seed_stream(7, 0);
        let mut b = SimRng::from_seed_stream(7, 0);
        let fa = generate_field(60, 200.0, 40.0, &mut a);
        let fb = generate_field(60, 200.0, 40.0, &mut b);
        assert_eq!(fa.positions, fb.positions);
    }

    #[test]
    fn full_policy_matches_generate_field_bitwise() {
        let mut a = SimRng::from_seed_stream(11, 0);
        let mut b = SimRng::from_seed_stream(11, 0);
        let fa = generate_field(80, 200.0, 40.0, &mut a);
        let fb = generate_field_with(80, 200.0, 40.0, Connectivity::Full, &mut b);
        assert_eq!(fa.positions, fb.positions);
        assert_eq!(fa.retries, fb.retries);
        assert_eq!(fb.core, None);
    }

    #[test]
    fn giant_component_accepts_sparse_large_fields() {
        // 2,000 nodes at the paper's near-disconnection density (~6.3
        // neighbors): full connectivity is essentially never drawn, the
        // 90% giant component on the first few tries.
        let side = 200.0 * 10f64.sqrt();
        let mut rng = SimRng::from_seed_stream(42, 0);
        let field = generate_field_with(
            2000,
            side,
            40.0,
            Connectivity::GiantComponent { min_fraction: 0.9 },
            &mut rng,
        );
        let mask = field.core.as_ref().expect("giant policy records a mask");
        let core_n = mask.iter().filter(|&&m| m).count();
        assert!(core_n >= 1800, "core spans {core_n} of 2000");
        // The mask matches membership queries.
        let inside = (0..2000).find(|&i| mask[i]).unwrap();
        assert!(field.in_core(NodeId(inside as u32)));
    }

    #[test]
    fn density_tracks_paper_range() {
        // Paper: 50 → ~6 neighbors, 350 → ~43 neighbors on average.
        let mut rng = SimRng::from_seed_stream(3, 0);
        let low = generate_field(50, 200.0, 40.0, &mut rng);
        let high = generate_field(350, 200.0, 40.0, &mut rng);
        let d_low = low.topology.average_degree();
        let d_high = high.topology.average_degree();
        assert!((3.0..10.0).contains(&d_low), "low density {d_low}");
        assert!((35.0..52.0).contains(&d_high), "high density {d_high}");
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        let mut rng = SimRng::from_seed_stream(1, 0);
        generate_field(0, 200.0, 40.0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "giant-component fraction")]
    fn out_of_range_fraction_panics() {
        let mut rng = SimRng::from_seed_stream(1, 0);
        generate_field_with(
            10,
            200.0,
            40.0,
            Connectivity::GiantComponent { min_fraction: 1.5 },
            &mut rng,
        );
    }
}
