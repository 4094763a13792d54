//! # wsn-trees — abstract aggregation-tree baselines
//!
//! Graph-level models of the structures the two diffusion instantiations
//! approximate: the shortest-path tree (SPT — opportunistic aggregation's
//! idealized limit) and the greedy incremental tree (GIT — the
//! Takahashi–Matsuyama Steiner 2-approximation that greedy aggregation
//! chases), plus the event-radius and random-sources placement models from
//! the abstract analysis the ICDCS paper contrasts itself against.
//!
//! # Examples
//!
//! ```
//! use wsn_sim::SimRng;
//! use wsn_trees::{compare_trees, random_geometric, random_sources};
//!
//! let mut rng = SimRng::from_seed_stream(42, 0);
//! let (g, _positions) = random_geometric(100, 200.0, 40.0, &mut rng);
//! let sources = random_sources(100, 5, 0, &mut rng);
//! let cmp = compare_trees(&g, 0, &sources);
//! assert!(cmp.git_cost <= cmp.spt_cost);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod dijkstra;
mod graph;
mod models;
mod steiner;
mod stretch;
mod trees;

pub use analysis::{compare_trees, TreeComparison};
pub use dijkstra::{dijkstra, multi_source_dijkstra, ShortestPaths};
pub use graph::Graph;
pub use models::{event_radius_sources, random_geometric, random_sources, region_sources};
pub use steiner::{steiner_cost, MAX_STEINER_TERMINALS};
pub use stretch::steiner_lower_bound;
pub use trees::{greedy_incremental_tree, path_sum_cost, shortest_path_tree, Tree};
