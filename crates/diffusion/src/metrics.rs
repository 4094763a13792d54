//! Diffusion's metric block: protocol-layer series registered on the shared
//! run registry before engine construction.
//!
//! Same discipline as the engine's [`NetMetricIds`](wsn_net::NetMetricIds):
//! every id is registered once, recording is an array index plus an integer
//! add, and increments sit beside the matching unconditional state change
//! (never inside a `trace_enabled` gate) so the `metrics_audit` test can
//! reconcile registry totals against trace-derived totals exactly.

use wsn_metrics::{CounterId, HistId, MetricsRegistry};
use wsn_trace::DropReason;

/// Dense ids for every diffusion-layer metric, registered once per run.
///
/// Registration order is export order; call
/// [`register`](DiffusionMetricIds::register) after
/// [`NetMetricIds::register`](wsn_net::NetMetricIds::register) so the wire
/// layout reads `phy.*`, `mac.*`, `engine.*`, `diffusion.*`.
#[derive(Debug, Clone, Copy)]
pub struct DiffusionMetricIds {
    /// `diffusion.interests_sent` — interest frames handed to the MAC
    /// (originations and flood rebroadcasts).
    pub(crate) interests_sent: CounterId,
    /// `diffusion.reinforcements` — positive reinforcements received and
    /// applied to the gradient table.
    pub(crate) reinforcements: CounterId,
    /// `diffusion.tree_edges_added` — gradient-table data edges created by a
    /// reinforcement that wasn't already on the tree.
    pub(crate) tree_edges_added: CounterId,
    /// `diffusion.tree_edges_dropped` — data edges removed by negative
    /// reinforcement or link-failure degradation.
    pub(crate) tree_edges_dropped: CounterId,
    /// `diffusion.agg_fanin` — distinct sources merged per aggregation-buffer
    /// flush (the paper's aggregation fan-in).
    pub(crate) agg_fanin: HistId,
    /// `diffusion.item_drops{reason=..}` — data items lost at the protocol
    /// layer, indexed by [`DropReason::index`].
    pub(crate) item_drops: [CounterId; 6],
}

impl DiffusionMetricIds {
    /// Registers the diffusion metric set on `reg`.
    pub fn register(reg: &mut MetricsRegistry) -> DiffusionMetricIds {
        DiffusionMetricIds {
            interests_sent: reg.counter("diffusion.interests_sent"),
            reinforcements: reg.counter("diffusion.reinforcements"),
            tree_edges_added: reg.counter("diffusion.tree_edges_added"),
            tree_edges_dropped: reg.counter("diffusion.tree_edges_dropped"),
            agg_fanin: reg.histogram("diffusion.agg_fanin"),
            item_drops: DropReason::ALL
                .map(|r| reg.counter(&format!("diffusion.item_drops{{reason={}}}", r.name()))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_matches_drop_reason_order() {
        let mut reg = MetricsRegistry::new();
        let ids = DiffusionMetricIds::register(&mut reg);
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
            let name = format!("diffusion.item_drops{{reason={}}}", r.name());
            reg.inc(ids.item_drops[i]);
            assert_eq!(reg.counter_by_name(&name), Some(1));
        }
        assert!(reg.find("diffusion.agg_fanin").is_some());
    }
}
