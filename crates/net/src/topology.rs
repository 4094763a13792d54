//! Static connectivity derived from node positions and radio range.
//!
//! The paper's radios have a fixed 40 m range in a 200 m × 200 m field; two
//! nodes are neighbors iff they are within range (the unit-disc model, as in
//! the ns-2 two-ray model with a fixed threshold). The [`Topology`] computes
//! and caches the neighbor lists once per field.
//!
//! Construction goes through a [`SpatialGrid`]: positions are bucketed into
//! uniform square cells of side `range_m`, so any node's neighbors lie in its
//! own cell or the 8 surrounding ones (a disc of radius `r` centered anywhere
//! in a cell of side `r` cannot leave the 3×3 block around it). That bounds
//! neighbor search to ≤ 9 cells and makes topology construction and the
//! connectivity check O(n + edges) instead of the all-pairs O(n²) scan —
//! the difference between ~seconds and ~tens of milliseconds at 10k nodes.
//!
//! Neighbor lists are stored flattened: one shared arena `Vec<NodeId>` plus a
//! per-node `(offset, len)` span, rather than `Vec<Vec<NodeId>>`. One
//! allocation instead of n, and the broadcast hot path walks contiguous
//! memory. See `DESIGN.md` §16.
//!
//! Every arena entry is a *link* `u → v` with a fixed address: its position
//! in the arena. A parallel reverse index gives, for the entry `v` at
//! position `k` of `u`'s span, `u`'s position in `v`'s span, so per-link
//! state (the PHY's reception flags, a protocol's per-neighbor gradients)
//! lives in flat arrays that both endpoints can address. See `DESIGN.md`
//! §19.

use crate::node::NodeId;
use crate::position::Position;

/// A uniform spatial hash over node positions with cell side ≥ the radio
/// range.
///
/// The grid answers "which nodes could be within range of `p`?" by scanning
/// at most the 3×3 block of cells around `p`'s cell. It is the construction
/// vehicle for [`Topology`] and the fast path for scenario generation's
/// connectivity pre-check: a rejected placement costs one grid build and one
/// BFS, never a full neighbor-list materialization.
///
/// Cells are stored CSR-style: `cell_start[c]..cell_start[c + 1]` indexes
/// `cell_nodes`, which lists the node ids in cell `c` in ascending order.
///
/// # Examples
///
/// ```
/// use wsn_net::{Position, SpatialGrid};
///
/// let grid = SpatialGrid::new(
///     vec![
///         Position::new(0.0, 0.0),
///         Position::new(30.0, 0.0),
///         Position::new(100.0, 0.0),
///     ],
///     40.0,
/// );
/// assert!(!grid.is_connected());
/// let topo = grid.into_topology();
/// assert_eq!(topo.neighbors(wsn_net::NodeId(0)).len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SpatialGrid {
    positions: Vec<Position>,
    range_m: f64,
    range_sq: f64,
    /// Cell side in meters; ≥ `range_m` (enlarged on sparse far-flung
    /// fields to keep the cell count O(n)).
    cell_m: f64,
    /// Grid origin (minimum coordinates over all positions).
    min_x: f64,
    min_y: f64,
    cols: usize,
    rows: usize,
    /// CSR cell index: nodes of cell `c` are
    /// `cell_nodes[cell_start[c]..cell_start[c + 1]]`, ascending.
    cell_start: Vec<u32>,
    cell_nodes: Vec<u32>,
}

impl SpatialGrid {
    /// Buckets `positions` into cells of side `range_m`.
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive and finite.
    pub fn new(positions: Vec<Position>, range_m: f64) -> Self {
        assert!(
            range_m.is_finite() && range_m > 0.0,
            "radio range must be positive, got {range_m}"
        );
        let n = positions.len();
        let range_sq = range_m * range_m;
        if n == 0 {
            return SpatialGrid {
                positions,
                range_m,
                range_sq,
                cell_m: range_m,
                min_x: 0.0,
                min_y: 0.0,
                cols: 0,
                rows: 0,
                cell_start: vec![0],
                cell_nodes: Vec::new(),
            };
        }
        let mut min_x = f64::INFINITY;
        let mut min_y = f64::INFINITY;
        let mut max_x = f64::NEG_INFINITY;
        let mut max_y = f64::NEG_INFINITY;
        for p in &positions {
            min_x = min_x.min(p.x);
            min_y = min_y.min(p.y);
            max_x = max_x.max(p.x);
            max_y = max_y.max(p.y);
        }
        // Keep the cell count O(n) even when the field is much wider than
        // the radio range: enlarging cells never misses a neighbor (the 3×3
        // block still covers a disc of radius `range_m`), it only admits
        // more candidates to the exact distance test.
        let axis_cap = ((n as f64).sqrt().ceil() as usize).max(1);
        let cell_m = range_m
            .max((max_x - min_x) / axis_cap as f64)
            .max((max_y - min_y) / axis_cap as f64);
        let cols = ((max_x - min_x) / cell_m) as usize + 1;
        let rows = ((max_y - min_y) / cell_m) as usize + 1;
        let cells = cols * rows;

        // Counting sort into the CSR layout: one pass to size each cell, a
        // prefix sum, one pass to place ids. Iterating ids in ascending
        // order keeps each cell's node list ascending, which (after the
        // per-node sort in `into_topology`) reproduces the all-pairs
        // reference's neighbor order exactly.
        let mut cell_start = vec![0u32; cells + 1];
        for p in &positions {
            let c = cell_index(p, min_x, min_y, cell_m, cols, rows);
            cell_start[c + 1] += 1;
        }
        for c in 0..cells {
            cell_start[c + 1] += cell_start[c];
        }
        let mut cursor: Vec<u32> = cell_start[..cells].to_vec();
        let mut cell_nodes = vec![0u32; n];
        for (i, p) in positions.iter().enumerate() {
            let c = cell_index(p, min_x, min_y, cell_m, cols, rows);
            cell_nodes[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        SpatialGrid {
            positions,
            range_m,
            range_sq,
            cell_m,
            min_x,
            min_y,
            cols,
            rows,
            cell_start,
            cell_nodes,
        }
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the grid holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// All node positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Calls `f` for every node within radio range of node `i` (excluding
    /// `i` itself), scanning at most the 3×3 cell block around `i`.
    ///
    /// Visit order is by cell (row-major through the block), ascending
    /// within each cell — **not** globally ascending; callers that need
    /// sorted neighbor lists sort afterwards.
    fn for_each_in_range(&self, i: usize, mut f: impl FnMut(u32)) {
        let p = self.positions[i];
        let (cx, cy) = self.cell_of(&p);
        let x0 = cx.saturating_sub(1);
        let y0 = cy.saturating_sub(1);
        let x1 = (cx + 1).min(self.cols - 1);
        let y1 = (cy + 1).min(self.rows - 1);
        for gy in y0..=y1 {
            for gx in x0..=x1 {
                let c = gy * self.cols + gx;
                let lo = self.cell_start[c] as usize;
                let hi = self.cell_start[c + 1] as usize;
                for &j in &self.cell_nodes[lo..hi] {
                    if j as usize != i
                        && p.distance_squared(self.positions[j as usize]) <= self.range_sq
                    {
                        f(j);
                    }
                }
            }
        }
    }

    /// The (column, row) cell of a position.
    fn cell_of(&self, p: &Position) -> (usize, usize) {
        let cx = (((p.x - self.min_x) / self.cell_m) as usize).min(self.cols - 1);
        let cy = (((p.y - self.min_y) / self.cell_m) as usize).min(self.rows - 1);
        (cx, cy)
    }

    /// Whether all nodes form a single connected component, checked by BFS
    /// directly over the grid — no neighbor lists are materialized, so a
    /// rejected random placement costs O(n · cell occupancy), not O(edges)
    /// of allocation.
    pub fn is_connected(&self) -> bool {
        let n = self.positions.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut stack = vec![0usize];
        seen[0] = true;
        let mut reached = 1usize;
        while let Some(u) = stack.pop() {
            self.for_each_in_range(u, |v| {
                let v = v as usize;
                if !seen[v] {
                    seen[v] = true;
                    reached += 1;
                    stack.push(v);
                }
            });
            if reached == n {
                return true;
            }
        }
        reached == n
    }

    /// The largest connected component: its size and a per-node membership
    /// mask. BFS over every component straight off the grid, like
    /// [`is_connected`](SpatialGrid::is_connected) — no neighbor lists are
    /// materialized.
    ///
    /// At the paper's 50–350 nodes a connected placement is easy to draw,
    /// but at constant density full connectivity of a random geometric
    /// graph vanishes as n grows (isolated nodes appear at a roughly
    /// constant per-node rate). Scaled scenarios therefore accept a
    /// placement when the giant component is large enough; this is the
    /// query behind that policy.
    pub fn largest_component(&self) -> (usize, Vec<bool>) {
        let n = self.positions.len();
        let mut comp = vec![u32::MAX; n];
        let mut best = (0usize, u32::MAX);
        let mut stack = Vec::new();
        let mut next = 0u32;
        for start in 0..n {
            if comp[start] != u32::MAX {
                continue;
            }
            let label = next;
            next += 1;
            comp[start] = label;
            stack.push(start);
            let mut size = 1usize;
            while let Some(u) = stack.pop() {
                self.for_each_in_range(u, |v| {
                    let v = v as usize;
                    if comp[v] == u32::MAX {
                        comp[v] = label;
                        size += 1;
                        stack.push(v);
                    }
                });
            }
            if size > best.0 {
                best = (size, label);
            }
        }
        let mask = comp.into_iter().map(|c| c == best.1).collect();
        (best.0, mask)
    }

    /// Materializes the full [`Topology`]: per-node neighbor spans over one
    /// shared arena, each span sorted ascending (identical, element for
    /// element, to the all-pairs reference).
    pub fn into_topology(self) -> Topology {
        let n = self.positions.len();
        let mut arena: Vec<NodeId> = Vec::new();
        let mut spans: Vec<(u32, u32)> = Vec::with_capacity(n);
        for i in 0..n {
            let off = arena.len();
            self.for_each_in_range(i, |j| arena.push(NodeId(j)));
            arena[off..].sort_unstable();
            spans.push((off as u32, (arena.len() - off) as u32));
        }
        // The cell index has served its purpose; its `n` slots become the
        // reverse pass's per-node counters instead of a fresh allocation.
        let mut next = self.cell_nodes;
        next.fill(0);
        let reverse = reverse_index(&arena, &mut next);
        Topology {
            positions: self.positions,
            range_m: self.range_m,
            range_sq: self.range_sq,
            arena,
            spans,
            reverse,
        }
    }
}

/// The reverse-link index of sorted, symmetric neighbor spans laid out in
/// ascending node order: for the entry `v` at position `k` of `u`'s span,
/// `u`'s position in `v`'s span.
///
/// One linear pass over the arena, i.e. in ascending `u`. Since `v`'s span
/// lists exactly the nodes that list `v`, in ascending order, the pass
/// meets `v`'s neighbors in the order `v`'s span holds them, and a running
/// count per node (`next`, one zeroed slot per node) hands out the
/// positions.
fn reverse_index(arena: &[NodeId], next: &mut [u32]) -> Vec<u32> {
    arena
        .iter()
        .map(|v| {
            let pos = &mut next[v.index()];
            *pos += 1;
            *pos - 1
        })
        .collect()
}

/// The flat cell index of a position (free function twin of
/// [`SpatialGrid::cell_of`] for use during construction).
fn cell_index(
    p: &Position,
    min_x: f64,
    min_y: f64,
    cell_m: f64,
    cols: usize,
    rows: usize,
) -> usize {
    let cx = (((p.x - min_x) / cell_m) as usize).min(cols - 1);
    let cy = (((p.y - min_y) / cell_m) as usize).min(rows - 1);
    cy * cols + cx
}

/// Immutable connectivity of a sensor field.
///
/// Neighbor lists live in one flattened arena with per-node `(offset, len)`
/// spans; [`Topology::neighbors`] returns the span as a slice. Lists are
/// sorted ascending by [`NodeId`].
///
/// # Examples
///
/// ```
/// use wsn_net::{NodeId, Position, Topology};
///
/// let topo = Topology::new(
///     vec![
///         Position::new(0.0, 0.0),
///         Position::new(30.0, 0.0),
///         Position::new(100.0, 0.0),
///     ],
///     40.0,
/// );
/// assert!(topo.are_neighbors(NodeId(0), NodeId(1)));
/// assert!(!topo.are_neighbors(NodeId(0), NodeId(2)));
/// assert_eq!(topo.neighbors(NodeId(0)), &[NodeId(1)]);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Position>,
    range_m: f64,
    /// `range_m * range_m`, cached once so range tests never recompute it.
    range_sq: f64,
    /// All neighbor lists, back to back. Position `i` is link `i`.
    arena: Vec<NodeId>,
    /// Per-node `(offset, len)` into `arena`.
    spans: Vec<(u32, u32)>,
    /// Parallel to `arena`: for link `u → v`, `u`'s position in `v`'s span.
    reverse: Vec<u32>,
}

impl Topology {
    /// Computes the disc-model topology for `positions` with the given radio
    /// range in meters, via a [`SpatialGrid`].
    ///
    /// # Panics
    ///
    /// Panics if `range_m` is not positive and finite.
    pub fn new(positions: Vec<Position>, range_m: f64) -> Self {
        SpatialGrid::new(positions, range_m).into_topology()
    }

    /// The number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The radio range, meters.
    pub fn range_m(&self) -> f64 {
        self.range_m
    }

    /// The position of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// All node positions, indexed by [`NodeId`].
    pub fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// The in-range neighbors of a node (excluding the node itself), in
    /// ascending id order.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        &self.arena[self.links(node)]
    }

    /// The reverse index of a node's span: for `v = neighbors(u)[k]`,
    /// `reverse(u)[k]` is `u`'s position in `neighbors(v)`, so that
    /// `neighbors(v)[reverse(u)[k]] == u`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn reverse(&self, node: NodeId) -> &[u32] {
        &self.reverse[self.links(node)]
    }

    /// The addresses of a node's outgoing links: the positions of its span
    /// in the flat neighbor arena, in neighbor order.
    pub(crate) fn links(&self, node: NodeId) -> std::ops::Range<usize> {
        let (off, len) = self.spans[node.index()];
        off as usize..off as usize + len as usize
    }

    /// The total number of links (twice the number of neighbor pairs).
    pub(crate) fn link_count(&self) -> usize {
        self.arena.len()
    }

    /// Whether two distinct nodes are within radio range.
    pub fn are_neighbors(&self, a: NodeId, b: NodeId) -> bool {
        a != b
            && self.positions[a.index()].distance_squared(self.positions[b.index()])
                <= self.range_sq
    }

    /// The mean number of neighbors per node — the paper's "radio density"
    /// (6 to 43 neighbors across its seven field sizes).
    pub fn average_degree(&self) -> f64 {
        if self.positions.is_empty() {
            return 0.0;
        }
        self.arena.len() as f64 / self.positions.len() as f64
    }

    /// Whether the field is a single connected component (over all nodes).
    pub fn is_connected(&self) -> bool {
        self.is_connected_over(|_| true)
    }

    /// Whether the nodes selected by `alive` form a single connected
    /// component. Nodes for which `alive` returns `false` are ignored
    /// entirely (they neither need to be reached nor relay).
    pub fn is_connected_over(&self, alive: impl Fn(NodeId) -> bool) -> bool {
        let n = self.positions.len();
        let Some(start) = (0..n).map(|i| NodeId(i as u32)).find(|&id| alive(id)) else {
            return true; // vacuously connected
        };
        let mut seen = vec![false; n];
        let mut stack = vec![start];
        seen[start.index()] = true;
        let mut reached = 1;
        while let Some(u) = stack.pop() {
            for &v in self.neighbors(u) {
                if alive(v) && !seen[v.index()] {
                    seen[v.index()] = true;
                    reached += 1;
                    stack.push(v);
                }
            }
        }
        let alive_total = (0..n).filter(|&i| alive(NodeId(i as u32))).count();
        reached == alive_total
    }

    /// Minimum hop count from `from` to `to` over all nodes (BFS), or `None`
    /// if unreachable. Useful for scenario sanity checks and tree baselines.
    pub fn hop_distance(&self, from: NodeId, to: NodeId) -> Option<u32> {
        if from == to {
            return Some(0);
        }
        let n = self.positions.len();
        let mut dist = vec![u32::MAX; n];
        dist[from.index()] = 0;
        let mut queue = std::collections::VecDeque::from([from]);
        while let Some(u) = queue.pop_front() {
            for &v in self.neighbors(u) {
                if dist[v.index()] == u32::MAX {
                    dist[v.index()] = dist[u.index()] + 1;
                    if v == to {
                        return Some(dist[v.index()]);
                    }
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<Position> {
        (0..n)
            .map(|i| Position::new(i as f64 * spacing, 0.0))
            .collect()
    }

    /// The pre-grid O(n²) reference, kept as the oracle for equivalence
    /// tests (the proptest in `tests/grid_equivalence.rs` uses the same
    /// construction).
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

    #[test]
    fn neighbors_are_symmetric_and_irreflexive() {
        let topo = Topology::new(line(5, 30.0), 40.0);
        for i in 0..5 {
            let id = NodeId(i);
            assert!(!topo.neighbors(id).contains(&id));
            for &nb in topo.neighbors(id) {
                assert!(topo.neighbors(nb).contains(&id));
            }
        }
    }

    #[test]
    fn line_topology_has_expected_degree() {
        let topo = Topology::new(line(5, 30.0), 40.0);
        // 30 m spacing, 40 m range: each interior node hears both neighbors.
        assert_eq!(topo.neighbors(NodeId(0)).len(), 1);
        assert_eq!(topo.neighbors(NodeId(2)).len(), 2);
        assert!((topo.average_degree() - 8.0 / 5.0).abs() < 1e-12);
    }

    #[test]
    fn range_is_inclusive() {
        let topo = Topology::new(
            vec![Position::new(0.0, 0.0), Position::new(40.0, 0.0)],
            40.0,
        );
        assert!(topo.are_neighbors(NodeId(0), NodeId(1)));
    }

    #[test]
    fn connectivity_detects_partition() {
        let connected = Topology::new(line(4, 30.0), 40.0);
        assert!(connected.is_connected());
        let split = Topology::new(
            vec![
                Position::new(0.0, 0.0),
                Position::new(30.0, 0.0),
                Position::new(150.0, 0.0),
            ],
            40.0,
        );
        assert!(!split.is_connected());
    }

    #[test]
    fn grid_connectivity_matches_topology() {
        let cases: Vec<Vec<Position>> = vec![
            line(4, 30.0),
            vec![
                Position::new(0.0, 0.0),
                Position::new(30.0, 0.0),
                Position::new(150.0, 0.0),
            ],
            vec![Position::new(5.0, 5.0)],
            Vec::new(),
        ];
        for positions in cases {
            let grid = SpatialGrid::new(positions.clone(), 40.0);
            let by_grid = grid.is_connected();
            let by_topo = Topology::new(positions, 40.0).is_connected();
            assert_eq!(by_grid, by_topo);
        }
    }

    #[test]
    fn connectivity_over_alive_subset() {
        let topo = Topology::new(line(3, 30.0), 40.0);
        // Killing the middle node disconnects the ends.
        assert!(!topo.is_connected_over(|id| id != NodeId(1)));
        // Killing an end leaves the rest connected.
        assert!(topo.is_connected_over(|id| id != NodeId(0)));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(Topology::new(vec![], 40.0).is_connected());
        assert!(Topology::new(vec![Position::new(0.0, 0.0)], 40.0).is_connected());
        assert!(Topology::new(line(3, 30.0), 40.0).is_connected_over(|_| false));
    }

    #[test]
    fn hop_distance_counts_hops() {
        let topo = Topology::new(line(5, 30.0), 40.0);
        assert_eq!(topo.hop_distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(topo.hop_distance(NodeId(2), NodeId(2)), Some(0));
    }

    #[test]
    fn hop_distance_unreachable_is_none() {
        let topo = Topology::new(
            vec![Position::new(0.0, 0.0), Position::new(100.0, 0.0)],
            40.0,
        );
        assert_eq!(topo.hop_distance(NodeId(0), NodeId(1)), None);
    }

    #[test]
    fn paper_density_formula_holds_approximately() {
        // Uniform random field: expected degree ≈ (N-1)·π r² / A. With
        // N = 200 in a 200 m square and r = 40 m the paper's interpolation
        // gives ≈ 25 neighbors; allow a wide tolerance for edge effects.
        let mut rng = wsn_sim::SimRng::from_seed_stream(7, 0);
        let field = crate::position::Rect::square(200.0);
        let positions: Vec<Position> = (0..200).map(|_| field.sample(&mut rng)).collect();
        let topo = Topology::new(positions, 40.0);
        let expected = 199.0 * std::f64::consts::PI * 40.0 * 40.0 / (200.0 * 200.0);
        let measured = topo.average_degree();
        assert!(
            (measured - expected).abs() < expected * 0.35,
            "degree {measured} too far from {expected}"
        );
    }

    #[test]
    fn grid_matches_all_pairs_on_random_field() {
        let mut rng = wsn_sim::SimRng::from_seed_stream(11, 0);
        let field = crate::position::Rect::square(200.0);
        let positions: Vec<Position> = (0..300).map(|_| field.sample(&mut rng)).collect();
        let reference = all_pairs(&positions, 40.0);
        let topo = Topology::new(positions, 40.0);
        for (i, expected) in reference.iter().enumerate() {
            assert_eq!(topo.neighbors(NodeId(i as u32)), expected.as_slice());
        }
    }

    #[test]
    fn grid_handles_range_larger_than_field() {
        // One cell covers everything: every pair is in range.
        let mut rng = wsn_sim::SimRng::from_seed_stream(13, 0);
        let field = crate::position::Rect::square(30.0);
        let positions: Vec<Position> = (0..20).map(|_| field.sample(&mut rng)).collect();
        let topo = Topology::new(positions, 500.0);
        for i in 0..20 {
            assert_eq!(topo.neighbors(NodeId(i)).len(), 19);
        }
    }

    #[test]
    fn grid_handles_nodes_on_cell_boundaries() {
        // Nodes at exact multiples of the 40 m cell size, including the far
        // field corner (whose cell index must clamp, not overflow).
        let mut positions = Vec::new();
        for gx in 0..=5 {
            for gy in 0..=5 {
                positions.push(Position::new(gx as f64 * 40.0, gy as f64 * 40.0));
            }
        }
        let reference = all_pairs(&positions, 40.0);
        let topo = Topology::new(positions, 40.0);
        for (i, expected) in reference.iter().enumerate() {
            assert_eq!(topo.neighbors(NodeId(i as u32)), expected.as_slice());
        }
        // Axis-aligned 40 m separations are exactly in range (inclusive).
        assert!(topo.are_neighbors(NodeId(0), NodeId(1)));
    }

    #[test]
    #[should_panic(expected = "radio range")]
    fn zero_range_panics() {
        let _ = Topology::new(vec![], 0.0);
    }
}
