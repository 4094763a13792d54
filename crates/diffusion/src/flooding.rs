//! The flooding baseline.
//!
//! The directed-diffusion lineage (Mobicom'00) brackets its evaluation with
//! *flooding* — every source floods every event through the whole network,
//! sinks deduplicate — as the maximally robust, maximally expensive
//! dissemination scheme. No gradients, no reinforcement, no aggregation.
//! Useful here as the upper bracket against both aggregation schemes. It
//! runs on diffusion's own event schedule, event size and flood jitter, so
//! the comparison stays apples-to-apples. It suppresses duplicates with
//! diffusion's per-source dedup windows, so its memory is bounded by the
//! number of sources, not by simulated time.

use wsn_net::{Ctx, NodeId, Packet, Protocol};

use crate::config::{next_generate_delay, round_at, EVENT_BYTES, FLOOD_JITTER};
use crate::msg::EventItem;
use crate::node::Role;
use crate::stats::SinkStats;
use crate::window::DedupWindows;

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
    role: Role,
    me: NodeId,
    /// Events seen, as one dedup window per source.
    seen: DedupWindows,
    /// Delivery records (meaningful for sinks).
    pub sink: SinkStats,
    /// Events generated (meaningful for sources).
    pub events_generated: u64,
    /// Events rebroadcast by this node.
    pub forwards: u64,
}

impl FloodingNode {
    /// Creates the flooding instance for node `me`.
    pub fn new(me: NodeId, role: Role) -> Self {
        FloodingNode {
            role,
            me,
            seen: DedupWindows::default(),
            sink: SinkStats::default(),
            events_generated: 0,
            forwards: 0,
        }
    }

    /// This node's role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// Event arrivals answered "seen" only because they were older than
    /// their dedup window (see [`DedupWindows`]). Zero means every dedup
    /// decision equals an unbounded set's.
    pub fn stale_arrivals(&self) -> u64 {
        self.seen.stale()
    }
}

impl Protocol for FloodingNode {
    type Msg = EventItem;
    type Timer = FloodTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        if self.role.is_source {
            ctx.set_timer(next_generate_delay(ctx.now()), FloodTimer::Generate);
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
        let jitter = ctx.jitter(FLOOD_JITTER);
        ctx.set_timer(jitter, FloodTimer::Forward { item });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>, timer: FloodTimer) {
        match timer {
            FloodTimer::Generate => {
                let now = ctx.now();
                let item = EventItem {
                    source: self.me,
                    round: round_at(now),
                    generated: now,
                };
                self.events_generated += 1;
                self.seen.insert(item.key());
                ctx.broadcast(EVENT_BYTES, item);
                ctx.set_timer(next_generate_delay(now), FloodTimer::Generate);
            }
            FloodTimer::Forward { item } => {
                self.forwards += 1;
                ctx.broadcast(EVENT_BYTES, item);
            }
        }
    }

    fn on_down(&mut self, _ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        self.seen.clear();
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, EventItem, FloodTimer>) {
        if self.role.is_source {
            ctx.set_timer(next_generate_delay(ctx.now()), FloodTimer::Generate);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsn_net::{NetConfig, Network, Position, Topology};
    use wsn_sim::SimTime;

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
            FloodingNode::new(id, role)
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
            FloodingNode::new(id, role)
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
