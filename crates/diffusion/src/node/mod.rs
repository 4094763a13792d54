//! The per-node directed-diffusion state machine.
//!
//! One [`DiffusionNode`] runs on every node of the simulated network and
//! implements both instantiations (selected by
//! [`DiffusionConfig::scheme`]):
//!
//! * interest flooding and gradient maintenance (§2),
//! * exploratory events with the energy attribute `E`, incremental cost
//!   messages `C`, and positive reinforcement (§4.1),
//! * the aggregation buffer with delay `T_a` and set-cover aggregate costs
//!   (§4.2),
//! * negative reinforcement / path truncation (§4.3).
//!
//! The state machine is one `impl DiffusionNode`, split across submodules
//! by plane (all state lives here; the submodules hold behavior only):
//!
//! * [`control`] — interest origination/flooding, exploratory events,
//!   incremental cost messages;
//! * [`data`] — sending helpers, event generation, the aggregation buffer,
//!   and data forwarding;
//! * [`reinforce`] — positive/negative reinforcement, path truncation, and
//!   local repair;
//! * [`proto`] — the [`Protocol`](wsn_net::Protocol) impl that dispatches
//!   packets and timers into the above.
//!
//! Every table holds exactly what the node knows: the per-origin and
//! per-neighbor state are exact-size lists scanned linearly, since a node
//! hears from a few sources and sinks and has trouble with few neighbors
//! (`DESIGN.md` §23).

use std::sync::Arc;

use wsn_net::{Ctx, NodeId, TimerHandle};
use wsn_sim::SimTime;

use crate::aggregate::AggregationBuffer;
use crate::cache::ExplCache;
use crate::config::DiffusionConfig;
use crate::exact::HeapBytes;
use crate::gradient::GradientTable;
use crate::metrics::DiffusionMetricIds;
use crate::msg::{DiffMsg, MsgId};
use crate::stats::{ProtoCounters, SinkStats};
use crate::truncate::TruncationLog;
use crate::window::DedupWindows;

mod control;
mod data;
mod proto;
mod reinforce;

/// Timers used by the diffusion state machine.
#[derive(Debug, Clone)]
pub enum DiffTimer {
    /// Periodic interest refresh (sinks).
    Interest,
    /// Periodic event generation (sources).
    Generate,
    /// A message waiting out its de-synchronization jitter.
    SendJittered {
        /// The message to transmit.
        msg: DiffMsg,
        /// Logical destination (`None` = broadcast).
        dst: Option<NodeId>,
    },
    /// Aggregation-delay (`T_a`) flush.
    Flush,
    /// Periodic truncation check (`T_n`) and state housekeeping.
    Truncate,
    /// The sink's positive-reinforcement timer (`T_p`, greedy scheme).
    ReinforceTimeout {
        /// The exploratory event awaiting reinforcement.
        id: MsgId,
    },
}

/// The role a node plays in the sensing task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Role {
    /// Generates events (detects the phenomenon).
    pub is_source: bool,
    /// Originates interests and consumes events.
    pub is_sink: bool,
}

impl Role {
    /// A plain forwarding node.
    pub const RELAY: Role = Role {
        is_source: false,
        is_sink: false,
    };
    /// A source node.
    pub const SOURCE: Role = Role {
        is_source: true,
        is_sink: false,
    };
    /// A sink node.
    pub const SINK: Role = Role {
        is_source: false,
        is_sink: true,
    };
}

/// Freshness bookkeeping for one source, for local path repair.
#[derive(Debug, Clone, Copy)]
struct SourceTrack {
    /// The source tracked.
    source: NodeId,
    /// Last time a data item from this source arrived here.
    last_item: SimTime,
    /// The most recent exploratory id seen from this source.
    last_id: MsgId,
}

/// A neighbor the MAC failed to reach: consecutive unicast failures since
/// anything was last heard from it. One exhausted ARQ can be collision bad
/// luck; from the second one in a row the neighbor is a suspect (a dead
/// link) until `suspect_until`.
#[derive(Debug, Clone, Copy)]
struct FailingLink {
    neighbor: NodeId,
    failures: u32,
    /// Meaningful once `failures` reaches 2.
    suspect_until: SimTime,
}

impl FailingLink {
    /// Whether the neighbor is a suspect at `now`.
    fn suspect(&self, now: SimTime) -> bool {
        self.failures >= 2 && self.suspect_until >= now
    }
}

/// The sizes of one node's bounded protocol tables, from
/// [`DiffusionNode::state_sizes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateSizes {
    /// Dedup windows held, interests' and items' together: one per origin.
    pub dedup_windows: usize,
    /// Cached exploratory entries ([`ExplCache::len`]).
    pub cached_entries: usize,
    /// Offers those entries hold ([`ExplCache::offer_slots`]).
    pub offer_slots: usize,
    /// Heap bytes the node's protocol tables hold, counted from
    /// capacities: the dedup windows, the gradient table, the exploratory
    /// cache, and the per-origin and per-neighbor lists. The aggregation
    /// buffer and the truncation log, which hold the last `T_a` and `T_n`
    /// of traffic, are not counted.
    pub held_bytes: usize,
    /// Heap bytes the live entries of those tables need, counted from
    /// lengths. Equal to `held_bytes` while every table is at exact size.
    pub live_bytes: usize,
    /// Exploratory offer rows converted to the wide form since the run
    /// started, node failures included ([`ExplCache::wide_rows`]). Zero
    /// means every row kept its 2-byte slots.
    pub wide_offer_rows: u64,
}

/// The diffusion protocol instance for one node.
#[derive(Debug)]
pub struct DiffusionNode {
    /// The run's protocol parameters, shared by all of its nodes.
    cfg: Arc<DiffusionConfig>,
    role: Role,
    me: NodeId,
    // Control plane.
    interest_seq: u32,
    /// Interests seen, as one dedup window per sink.
    seen_interests: DedupWindows,
    /// Per-neighbor gradients and exploratory offers, both addressed by the
    /// neighbor's position in the topology's neighbor list (sized to it in
    /// `on_start`). Neither copies the list: queries by `NodeId` take
    /// [`Ctx::neighbors`].
    gradients: GradientTable,
    expl: ExplCache,
    // Data plane.
    /// Event items seen, as one dedup window per source.
    seen_items: DedupWindows,
    buffer: AggregationBuffer,
    window: TruncationLog,
    flush_timer: Option<TimerHandle>,
    /// Most recent time each source's data was seen here (drives the
    /// aggregation-point and early-flush decisions), one per source.
    last_seen_source: Vec<(NodeId, SimTime)>,
    /// The most recent exploratory event seen, used to label data-driven
    /// gradient refreshes (re-reinforcement of active upstream providers).
    last_expl: Option<MsgId>,
    /// Per-source freshness for local repair: last data-item arrival and the
    /// most recent exploratory id from that source, one per source.
    source_tracks: Vec<SourceTrack>,
    /// Rate limiter: last repair reinforcement sent, one per source.
    last_repair: Vec<(NodeId, SimTime)>,
    /// Neighbors the MAC failed to reach since last heard from, one each.
    failing_links: Vec<FailingLink>,
    // Measurement.
    /// Delivery records (meaningful for sinks).
    pub sink: SinkStats,
    /// Events generated so far (meaningful for sources) — the denominator of
    /// the distinct-event delivery ratio.
    pub events_generated: u64,
    /// Per-kind message counters.
    pub counters: ProtoCounters,
    /// Registry ids for the diffusion metric block, when the run has metrics
    /// installed (see [`DiffusionMetricIds::register`]). Recording goes
    /// through [`Ctx::metrics`](wsn_net::Ctx::metrics); without this the
    /// node never touches the registry.
    metrics: Option<DiffusionMetricIds>,
}

impl DiffusionNode {
    /// Creates the protocol instance for node `me` with the given role.
    ///
    /// `cfg` is a [`DiffusionConfig`] or an `Arc` of one. Pass clones of
    /// one `Arc` to share a single config among a run's nodes, as
    /// `wsn_core::Experiment` does; a plain config is moved into an `Arc`
    /// of this node's own.
    pub fn new(cfg: impl Into<Arc<DiffusionConfig>>, me: NodeId, role: Role) -> Self {
        let cfg = cfg.into();
        let window = TruncationLog::new(cfg.truncation_window);
        DiffusionNode {
            cfg,
            role,
            me,
            interest_seq: 0,
            seen_interests: DedupWindows::default(),
            gradients: GradientTable::default(),
            expl: ExplCache::new(me, 0),
            seen_items: DedupWindows::default(),
            buffer: AggregationBuffer::new(),
            window,
            flush_timer: None,
            last_seen_source: Vec::new(),
            last_expl: None,
            source_tracks: Vec::new(),
            last_repair: Vec::new(),
            failing_links: Vec::new(),
            sink: SinkStats::default(),
            events_generated: 0,
            counters: ProtoCounters::default(),
            metrics: None,
        }
    }

    /// Attaches the diffusion metric ids so this node records against the
    /// run's registry. The ids must come from the same registry later passed
    /// to [`Network::install_metrics`](wsn_net::Network::install_metrics).
    #[must_use]
    pub fn with_metrics(mut self, ids: DiffusionMetricIds) -> Self {
        self.metrics = Some(ids);
        self
    }

    /// This node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DiffusionConfig {
        &self.cfg
    }

    /// The gradient table (inspection/testing). Its queries by `NodeId`
    /// take this node's neighbor list,
    /// [`Topology::neighbors`](wsn_net::Topology::neighbors).
    pub fn gradients(&self) -> &GradientTable {
        &self.gradients
    }

    /// The sizes of the node's protocol tables that could grow with
    /// simulated time (inspection/testing).
    pub fn state_sizes(&self) -> StateSizes {
        let bytes = self.seen_interests.heap_bytes()
            + self.seen_items.heap_bytes()
            + self.gradients.heap_bytes()
            + self.expl.heap_bytes()
            + HeapBytes::of(&self.last_seen_source)
            + HeapBytes::of(&self.source_tracks)
            + HeapBytes::of(&self.last_repair)
            + HeapBytes::of(&self.failing_links);
        StateSizes {
            dedup_windows: self.seen_interests.len() + self.seen_items.len(),
            cached_entries: self.expl.len(),
            offer_slots: self.expl.offer_slots(),
            held_bytes: bytes.held,
            live_bytes: bytes.live,
            wide_offer_rows: self.expl.wide_rows(),
        }
    }

    /// The freshness track of `source`, if the node holds one.
    fn track(&self, source: NodeId) -> Option<&SourceTrack> {
        self.source_tracks.iter().find(|t| t.source == source)
    }

    /// Interest and item arrivals answered "seen" only because they were
    /// older than their dedup window (see [`DedupWindows`]). Zero means
    /// every dedup decision equals an unbounded set's.
    pub fn stale_arrivals(&self) -> u64 {
        self.seen_interests.stale() + self.seen_items.stale()
    }

    /// Runs `f` against the run's registry — a no-op unless this node holds
    /// ids *and* the engine has metrics installed. Call sites sit beside the
    /// unconditional state change they measure, never inside a
    /// `trace_enabled` gate, so registry totals reconcile exactly with
    /// trace-derived totals (the `metrics_audit` invariant).
    #[inline]
    pub(super) fn metric(
        &self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        f: impl FnOnce(&DiffusionMetricIds, &mut wsn_metrics::MetricsRegistry),
    ) {
        if let Some(ids) = self.metrics {
            if let Some(reg) = ctx.metrics() {
                f(&ids, reg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_compose() {
        let roles = [Role::SOURCE, Role::SINK, Role::RELAY];
        let flags: Vec<(bool, bool)> = roles.iter().map(|r| (r.is_source, r.is_sink)).collect();
        assert_eq!(flags, vec![(true, false), (false, true), (false, false)]);
    }
}
