//! The flooding baseline.
//!
//! The directed-diffusion lineage (Mobicom'00) brackets its evaluation with
//! *flooding* — every source floods every event through the whole network,
//! sinks deduplicate — as the maximally robust, maximally expensive
//! dissemination scheme. No gradients, no reinforcement, no aggregation.
//! Useful here as the upper bracket against both aggregation schemes.

use wsn_net::{Ctx, NodeId, Packet, Protocol};
use wsn_sim::{SimDuration, SimTime};

use crate::hash::FastSet;
use crate::msg::EventItem;
use crate::node::Role;
use crate::stats::SinkStats;

/// Configuration for the flooding baseline (a subset of the diffusion
/// parameters so comparisons stay apples-to-apples).
#[derive(Debug, Clone, PartialEq)]
pub struct FloodingConfig {
    /// Interval between events at each source (paper: 0.5 s).
    pub event_period: SimDuration,
    /// When sources begin (paper methodology: 5 s).
    pub source_start: SimDuration,
    /// Event packet size (64 B).
    pub event_bytes: u32,
    /// Maximum rebroadcast jitter.
    pub forward_jitter: SimDuration,
}

impl Default for FloodingConfig {
    fn default() -> Self {
        FloodingConfig {
            event_period: SimDuration::from_millis(500),
            source_start: SimDuration::from_secs(5),
            event_bytes: 64,
            forward_jitter: SimDuration::from_millis(300),
        }
    }
}

/// Timers of the flooding protocol.
#[derive(Debug, Clone)]
pub enum FloodTimer {
    /// Periodic event generation (sources).
    Generate,
    /// A rebroadcast waiting out its jitter.
    Forward {
        /// The event to rebroadcast.
        item: EventItem,
    },
}

/// One node of the flooding baseline.
#[derive(Debug)]
pub struct FloodingNode {
    cfg: FloodingConfig,
    role: Role,
    me: NodeId,
    seen: FastSet<(NodeId, u32)>,
    /// Delivery records (meaningful for sinks).
    pub sink: SinkStats,
    /// Events generated (meaningful for sources).
    pub events_generated: u64,
    /// Events rebroadcast by this node.
    pub forwards: u64,
}

impl FloodingNode {
    /// Creates the flooding instance for node `me`.
    pub fn new(cfg: FloodingConfig, me: NodeId, role: Role) -> Self {
        FloodingNode {
            cfg,
            role,
            me,
            seen: FastSet::default(),
            sink: SinkStats::default(),
            events_generated: 0,
            forwards: 0,
        }
    }

    /// This node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    fn next_generate_delay(&self, now: SimTime) -> SimDuration {
        let period = self.cfg.event_period.as_nanos().max(1);
        let start = self.cfg.source_start.as_nanos();
        let now_ns = now.as_nanos();
        let next = if now_ns < start {
            start
        } else {
            start + ((now_ns - start) / period + 1) * period
        };
        SimDuration::from_nanos(next - now_ns)
    }

    fn round_at(&self, now: SimTime) -> u32 {
        let elapsed = now.saturating_duration_since(SimTime::ZERO + self.cfg.source_start);
        u32::try_from(elapsed.as_nanos() / self.cfg.event_period.as_nanos().max(1))
            .expect("round exceeds u32")
    }
}

impl Protocol for FloodingNode {
    type Msg = EventItem;
    type Timer = FloodTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        if self.role.is_source {
            ctx.set_timer(self.next_generate_delay(ctx.now()), FloodTimer::Generate);
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>, packet: &Packet<EventItem>) {
        let item = packet.payload;
        if !self.seen.insert(item.key()) {
            if self.role.is_sink {
                self.sink.record_duplicate();
            }
            return;
        }
        if self.role.is_sink {
            self.sink.record_distinct(&item, ctx.now());
        }
        let jitter = ctx.jitter(self.cfg.forward_jitter);
        ctx.set_timer(jitter, FloodTimer::Forward { item });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>, timer: FloodTimer) {
        match timer {
            FloodTimer::Generate => {
                let now = ctx.now();
                let item = EventItem {
                    source: self.me,
                    round: self.round_at(now),
                    generated: now,
                };
                self.events_generated += 1;
                self.seen.insert(item.key());
                ctx.broadcast(self.cfg.event_bytes, item);
                ctx.set_timer(self.next_generate_delay(now), FloodTimer::Generate);
            }
            FloodTimer::Forward { item } => {
                self.forwards += 1;
                ctx.broadcast(self.cfg.event_bytes, item);
            }
        }
    }

    fn on_down(&mut self, _ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        self.seen.clear();
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        if self.role.is_source {
            ctx.set_timer(self.next_generate_delay(ctx.now()), FloodTimer::Generate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{NetConfig, Network, Position, Topology};

    fn line(n: usize) -> Topology {
        Topology::new(
            (0..n)
                .map(|i| Position::new(i as f64 * 30.0, 0.0))
                .collect(),
            40.0,
        )
    }

    fn network(n: usize, seed: u64) -> Network<FloodingNode> {
        let last = NodeId::from_index(n - 1);
        Network::new(line(n), NetConfig::default(), seed, move |id| {
            let role = if id == NodeId(0) {
                Role::SOURCE
            } else if id == last {
                Role::SINK
            } else {
                Role::RELAY
            };
            FloodingNode::new(FloodingConfig::default(), id, role)
        })
    }

    #[test]
    fn flooding_delivers_without_any_routing_state() {
        let mut net = network(6, 1);
        net.run_until(SimTime::from_secs(30));
        let sink = net.protocol(NodeId(5));
        // 25 s of events at 2/s = 50.
        assert!(sink.sink.distinct >= 45, "{}", sink.sink.distinct);
    }

    #[test]
    fn every_node_forwards_each_event_once() {
        let mut net = network(4, 2);
        net.run_until(SimTime::from_secs(10));
        let generated = net.protocol(NodeId(0)).events_generated;
        // Relays forward every event exactly once; the sink also forwards
        // (floods are undirected). Allow the tail in flight.
        for relay in 1..4u32 {
            let f = net.protocol(NodeId(relay)).forwards;
            assert!(
                f <= generated && f + 2 >= generated,
                "relay {relay} forwarded {f} of {generated}"
            );
        }
    }

    #[test]
    fn flooding_survives_mid_path_failures_via_redundancy() {
        // A 2-wide ladder: killing one rail never partitions the flood.
        let positions: Vec<Position> = (0..8)
            .map(|i| Position::new((i / 2) as f64 * 30.0, (i % 2) as f64 * 30.0))
            .collect();
        let topo = Topology::new(positions, 45.0);
        let mut net = Network::new(topo, NetConfig::default(), 3, |id| {
            let role = match id.index() {
                0 => Role::SOURCE,
                7 => Role::SINK,
                _ => Role::RELAY,
            };
            FloodingNode::new(FloodingConfig::default(), id, role)
        });
        net.schedule_down(SimTime::from_secs(8), NodeId(2));
        net.run_until(SimTime::from_secs(30));
        let sink = net.protocol(NodeId(7));
        assert!(sink.sink.distinct >= 45, "{}", sink.sink.distinct);
    }

    #[test]
    fn flooding_is_deterministic() {
        let run = |seed| {
            let mut net = network(5, seed);
            net.run_until(SimTime::from_secs(20));
            (
                net.protocol(NodeId(4)).sink.distinct,
                net.total_energy().to_bits(),
            )
        };
        assert_eq!(run(9), run(9));
    }
}
