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

use wsn_net::{Ctx, NodeId, TimerHandle};
use wsn_sim::SimTime;

use crate::aggregate::AggregationBuffer;
use crate::cache::ExplCache;
use crate::config::DiffusionConfig;
use crate::gradient::GradientTable;
use crate::hash::{FastMap, FastSet};
use crate::metrics::DiffusionMetricIds;
use crate::msg::{DiffMsg, MsgId};
use crate::stats::{ProtoCounters, SinkStats};
use crate::truncate::TruncationLog;

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
    /// Last time a data item from this source arrived here.
    last_item: SimTime,
    /// The most recent exploratory id seen from this source.
    last_id: MsgId,
}

/// The diffusion protocol instance for one node.
#[derive(Debug)]
pub struct DiffusionNode {
    cfg: DiffusionConfig,
    role: Role,
    me: NodeId,
    // Control plane.
    interest_seq: u32,
    seen_interests: FastSet<(NodeId, u32)>,
    gradients: GradientTable,
    expl: ExplCache,
    // Data plane.
    seen_items: FastSet<(NodeId, u32)>,
    buffer: AggregationBuffer,
    window: TruncationLog,
    flush_timer: Option<TimerHandle>,
    /// Most recent time each source's data was seen here (drives the
    /// aggregation-point and early-flush decisions).
    last_seen_source: FastMap<NodeId, SimTime>,
    /// The most recent exploratory event seen, used to label data-driven
    /// gradient refreshes (re-reinforcement of active upstream providers).
    last_expl: Option<MsgId>,
    /// Per-source freshness for local repair: last data-item arrival and the
    /// most recent exploratory id from that source.
    source_tracks: FastMap<NodeId, SourceTrack>,
    /// Neighbors the MAC reported unreachable, with suspicion expiry.
    suspects: FastMap<NodeId, SimTime>,
    /// Rate limiter: last repair reinforcement sent per source.
    last_repair: FastMap<NodeId, SimTime>,
    /// Consecutive MAC-level unicast failures per neighbor (reset by any
    /// reception from that neighbor). One exhausted ARQ can be collision
    /// bad luck; two in a row without hearing anything means a dead link.
    link_failures: FastMap<NodeId, u32>,
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
    pub fn new(cfg: DiffusionConfig, me: NodeId, role: Role) -> Self {
        let window = TruncationLog::new(cfg.truncation_window);
        DiffusionNode {
            cfg,
            role,
            me,
            interest_seq: 0,
            seen_interests: FastSet::default(),
            gradients: GradientTable::new(),
            expl: ExplCache::new(),
            seen_items: FastSet::default(),
            buffer: AggregationBuffer::new(),
            window,
            flush_timer: None,
            last_seen_source: FastMap::default(),
            last_expl: None,
            source_tracks: FastMap::default(),
            suspects: FastMap::default(),
            last_repair: FastMap::default(),
            link_failures: FastMap::default(),
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

    /// The gradient table (inspection/testing).
    pub fn gradients(&self) -> &GradientTable {
        &self.gradients
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
