//! # wsn-diffusion — directed diffusion with greedy and opportunistic aggregation
//!
//! A full implementation of directed diffusion (Intanagonwiwat, Govindan,
//! Estrin — Mobicom 2000) in the two instantiations compared by *Impact of
//! Network Density on Data Aggregation in Wireless Sensor Networks* (ICDCS
//! 2002):
//!
//! * **Opportunistic aggregation** — the original low-latency instantiation:
//!   sinks reinforce the neighbor that delivered the first copy of each
//!   exploratory event, and data from different sources is aggregated only
//!   where the resulting paths happen to overlap.
//! * **Greedy aggregation** — the paper's contribution: exploratory events
//!   carry an energy cost `E`; on-tree sources answer with *incremental cost
//!   messages* `C`; the sink waits `T_p` and reinforces the cheapest offer.
//!   The result approximates a greedy incremental tree (GIT), so paths from
//!   different sources merge *early* and data is aggregated near the sources.
//!   Inefficient branches are truncated with a weighted set cover of sources.
//!
//! The protocol runs on the `wsn-net` packet-level substrate; each node is a
//! [`DiffusionNode`] created with a [`Role`] (source, sink, or relay) and a
//! [`DiffusionConfig`] (the scheme, the aggregation function and the timers
//! the ablations sweep, defaulting to the paper's §5.1 methodology; every
//! other timer, size and jitter is a constant).
//!
//! # Examples
//!
//! Build a 3-node line (source — relay — sink) and run greedy aggregation:
//!
//! ```
//! use wsn_diffusion::{DiffusionConfig, DiffusionNode, Role, Scheme};
//! use wsn_net::{NetConfig, Network, NodeId, Position, Topology};
//! use wsn_sim::SimTime;
//!
//! let topo = Topology::new(
//!     vec![
//!         Position::new(0.0, 0.0),   // source
//!         Position::new(30.0, 0.0),  // relay
//!         Position::new(60.0, 0.0),  // sink
//!     ],
//!     40.0,
//! );
//! let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
//! let mut net = Network::new(topo, NetConfig::default(), 7, |id| {
//!     let role = match id {
//!         NodeId(0) => Role::SOURCE,
//!         NodeId(2) => Role::SINK,
//!         _ => Role::RELAY,
//!     };
//!     DiffusionNode::new(cfg.clone(), id, role)
//! });
//! net.run_until(SimTime::from_secs(30));
//! let sink = net.protocol(NodeId(2));
//! assert!(sink.sink.distinct > 0, "the sink received events");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod aggregate;
mod cache;
mod config;
mod exact;
mod flooding;
mod gradient;
mod metrics;
mod msg;
mod node;
mod stats;
mod truncate;
mod window;

pub use aggregate::{AggregationBuffer, IncomingAgg, OutgoingAgg};
pub use cache::{ExplCache, ExplEntry, UpstreamKind};
pub use config::{AggregationFn, DiffusionConfig, Scheme};
pub use flooding::{FloodTimer, FloodingNode};
pub use gradient::GradientTable;
pub use metrics::DiffusionMetricIds;
pub use msg::{DiffMsg, EventItem, MsgId, MsgKind, ReinforceKind};
pub use node::{DiffTimer, DiffusionNode, Role, StateSizes};
pub use stats::{ProtoCounters, SinkStats};
pub use truncate::{TruncationLog, WindowEntry};
pub use window::{DedupWindows, DEDUP_WINDOW};
