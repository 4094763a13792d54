//! A lower bound on the cost of any aggregation tree.
//!
//! [`steiner_lower_bound`] bounds from below the cost of every tree that
//! connects the sources to the sink, so it bounds the optimal (Steiner)
//! tree too. It is cheap at any terminal count, where
//! [`steiner_cost`](crate::steiner_cost) is exact but limited to
//! [`MAX_STEINER_TERMINALS`](crate::MAX_STEINER_TERMINALS).

use crate::dijkstra::dijkstra;
use crate::graph::Graph;

/// A lower bound on the cost of *any* tree connecting `sources` to `sink`:
/// the maximum of (a) the longest shortest-path distance from the sink to a
/// source and (b) half the weight of a minimum spanning tree of the metric
/// closure over `{sink} ∪ sources` (the classic Steiner bound: the terminal
/// MST is at most twice the Steiner optimum).
///
/// Unreachable sources are ignored.
pub fn steiner_lower_bound(g: &Graph, sink: usize, sources: &[usize]) -> f64 {
    let mut terminals: Vec<usize> = std::iter::once(sink)
        .chain(sources.iter().copied())
        .collect();
    terminals.sort_unstable();
    terminals.dedup();
    // Keep only terminals reachable from the sink.
    let from_sink = dijkstra(g, sink);
    terminals.retain(|&t| from_sink.dist[t].is_finite());
    if terminals.len() < 2 {
        return 0.0;
    }
    let longest = terminals
        .iter()
        .map(|&t| from_sink.dist[t])
        .fold(0.0, f64::max);

    // Metric closure distances between terminals, then Prim's MST.
    let dists: Vec<Vec<f64>> = terminals
        .iter()
        .map(|&t| {
            let sp = dijkstra(g, t);
            terminals.iter().map(|&u| sp.dist[u]).collect()
        })
        .collect();
    let k = terminals.len();
    let mut in_tree = vec![false; k];
    let mut best = vec![f64::INFINITY; k];
    best[0] = 0.0;
    let mut mst_weight = 0.0;
    for _ in 0..k {
        let u = (0..k)
            .filter(|&i| !in_tree[i])
            .min_by(|&a, &b| best[a].partial_cmp(&best[b]).expect("finite"))
            .expect("terminals remain");
        in_tree[u] = true;
        mst_weight += best[u];
        for v in 0..k {
            if !in_tree[v] && dists[u][v] < best[v] {
                best[v] = dists[u][v];
            }
        }
    }
    longest.max(mst_weight / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trees::{greedy_incremental_tree, shortest_path_tree};

    /// Ladder: sink 0 — 1 — 2 — s1(3); 1 — 4 — s2(5); s1 — s2.
    fn ladder() -> Graph {
        let mut g = Graph::new(6);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 1.0);
        g.add_edge(2, 3, 1.0);
        g.add_edge(1, 4, 1.0);
        g.add_edge(4, 5, 1.0);
        g.add_edge(3, 5, 1.0);
        g
    }

    #[test]
    fn lower_bound_is_below_actual_trees() {
        let g = ladder();
        let lb = steiner_lower_bound(&g, 0, &[3, 5]);
        let git = greedy_incremental_tree(&g, 0, &[3, 5]);
        let spt = shortest_path_tree(&g, 0, &[3, 5]);
        assert!(lb > 0.0);
        assert!(git.cost + 1e-9 >= lb, "GIT {} below bound {lb}", git.cost);
        assert!(spt.cost + 1e-9 >= lb);
    }

    #[test]
    fn lower_bound_includes_longest_path() {
        // A line: the bound must be at least the far source's distance.
        let mut g = Graph::new(5);
        for i in 0..4 {
            g.add_edge(i, i + 1, 1.0);
        }
        let lb = steiner_lower_bound(&g, 0, &[4]);
        assert_eq!(lb, 4.0);
    }

    #[test]
    fn degenerate_cases() {
        let g = ladder();
        assert_eq!(steiner_lower_bound(&g, 0, &[]), 0.0);
        assert_eq!(steiner_lower_bound(&g, 0, &[0]), 0.0);
    }

    #[test]
    fn unreachable_sources_are_ignored() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        // 2, 3 disconnected.
        let lb = steiner_lower_bound(&g, 0, &[1, 3]);
        assert_eq!(lb, 1.0);
    }
}
