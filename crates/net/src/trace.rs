//! Engine-side tracing configuration.
//!
//! Installing a sink (via [`Network::set_trace`](crate::Network::set_trace))
//! turns on record emission; [`TraceOptions`] selects whether the engine
//! also emits the optional, high-volume snapshot family.

use wsn_sim::SimDuration;

/// What the engine records when a trace sink is installed.
///
/// The always-on families (packet tx/rx/drop, collisions, energy debits,
/// run start/end) are cheap — a few fields per MAC event. The one option
/// here gates the family whose volume scales with node count:
///
/// # Examples
///
/// ```
/// use wsn_net::TraceOptions;
/// use wsn_sim::SimDuration;
///
/// let opts = TraceOptions {
///     snapshot_every: Some(SimDuration::from_secs(10)),
/// };
/// assert_eq!(TraceOptions::default().snapshot_every, None); // off by default
/// assert_ne!(opts, TraceOptions::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceOptions {
    /// Cadence of per-node snapshot records (energy, queue depth, cache
    /// size). `None` disables snapshots. Each firing costs one engine event
    /// plus one record per node, so the cadence multiplies by node count.
    pub snapshot_every: Option<SimDuration>,
}
