//! Integration tests of protocol mechanics, observed through the protocol
//! state the `Network` exposes after a run.

use wsn::diffusion::{DiffMsg, DiffTimer, DiffusionConfig, DiffusionNode, MsgKind, Role, Scheme};
use wsn::net::{Ctx, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology};
use wsn::scenario::ScenarioSpec;
use wsn::sim::SimTime;

/// Builds a line topology: source — relays… — sink, 30 m spacing.
fn line_network(hops: usize, scheme: Scheme) -> Network<DiffusionNode> {
    let positions: Vec<Position> = (0..=hops)
        .map(|i| Position::new(i as f64 * 30.0, 0.0))
        .collect();
    let topo = Topology::new(positions, 40.0);
    let cfg = DiffusionConfig::for_scheme(scheme);
    let sink = NodeId::from_index(hops);
    Network::new(topo, NetConfig::default(), 11, move |id| {
        let role = if id == NodeId(0) {
            Role::SOURCE
        } else if id == sink {
            Role::SINK
        } else {
            Role::RELAY
        };
        DiffusionNode::new(cfg.clone(), id, role)
    })
}

#[test]
fn line_delivers_under_both_schemes() {
    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let mut net = line_network(5, scheme);
        net.run_until(SimTime::from_secs(60));
        let sink = net.protocol(NodeId(5));
        // 60 s run, source starts at 5 s: 110 events.
        assert!(
            sink.sink.distinct > 90,
            "{scheme}: only {} events arrived",
            sink.sink.distinct
        );
    }
}

#[test]
fn reinforcement_builds_data_gradients_toward_the_sink() {
    let mut net = line_network(4, Scheme::Greedy);
    net.run_until(SimTime::from_secs(30));
    let now = net.now();
    // Every node between source and sink must be on the tree, each with a
    // data gradient pointing at its downstream neighbor.
    for i in 0..4u32 {
        let p = net.protocol(NodeId(i));
        assert!(
            p.gradients()
                .has_data(net.topology().neighbors(NodeId(i)), NodeId(i + 1), now),
            "node {i} lacks a data gradient toward {}",
            i + 1
        );
    }
    // The sink needs no data gradient of its own.
    assert!(!net.protocol(NodeId(4)).gradients().on_tree(now));
}

#[test]
fn incremental_cost_messages_flow_only_in_greedy() {
    // Two sources near each other, multi-hop from the sink — the second
    // source should advertise the tree with incremental cost messages.
    let positions = vec![
        Position::new(0.0, 0.0),  // source A
        Position::new(0.0, 25.0), // source B
        Position::new(30.0, 0.0), // relay
        Position::new(60.0, 0.0), // relay
        Position::new(90.0, 0.0), // sink
    ];
    for (scheme, expect_incremental) in [(Scheme::Greedy, true), (Scheme::Opportunistic, false)] {
        let topo = Topology::new(positions.clone(), 40.0);
        let cfg = DiffusionConfig::for_scheme(scheme);
        let mut net = Network::new(topo, NetConfig::default(), 13, |id| {
            let role = match id.index() {
                0 | 1 => Role::SOURCE,
                4 => Role::SINK,
                _ => Role::RELAY,
            };
            DiffusionNode::new(cfg.clone(), id, role)
        });
        net.run_until(SimTime::from_secs(120));
        let incremental: u64 = net
            .protocols()
            .map(|(_, p)| p.counters.sent(MsgKind::IncrementalCost))
            .sum();
        assert_eq!(
            incremental > 0,
            expect_incremental,
            "{scheme}: {incremental} incremental cost messages"
        );
        // Both schemes must deliver from both sources.
        let sink = net.protocol(NodeId(4));
        assert_eq!(sink.sink.per_source.len(), 2, "{scheme} lost a source");
    }
}

#[test]
fn exploratory_events_flood_the_network() {
    let spec = ScenarioSpec::paper(60, 17);
    let instance = spec.instantiate();
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(
        instance.field.topology.clone(),
        NetConfig::default(),
        17,
        |id| {
            let (s, k) = instance.role_of(id);
            DiffusionNode::new(
                cfg.clone(),
                id,
                Role {
                    is_source: s,
                    is_sink: k,
                },
            )
        },
    );
    net.run_until(SimTime::from_secs(20));
    // After the first exploratory round nearly every node has re-flooded:
    // the per-node exploratory send counter is 1 per (source, round) seen.
    let forwarders = net
        .protocols()
        .filter(|(_, p)| p.counters.sent(MsgKind::Exploratory) > 0)
        .count();
    assert!(
        forwarders > 50,
        "only {forwarders}/60 nodes participated in the exploratory flood"
    );
}

#[test]
fn negative_reinforcement_prunes_duplicate_paths() {
    // A diamond: source — {upper, lower} — sink. Both middle nodes may get
    // reinforced across rounds; truncation must eventually keep data flowing
    // on a single path.
    let positions = vec![
        Position::new(0.0, 0.0),    // source
        Position::new(30.0, 15.0),  // upper
        Position::new(30.0, -15.0), // lower
        Position::new(60.0, 0.0),   // sink
    ];
    let topo = Topology::new(positions, 40.0);
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(topo, NetConfig::default(), 19, |id| {
        let role = match id.index() {
            0 => Role::SOURCE,
            3 => Role::SINK,
            _ => Role::RELAY,
        };
        DiffusionNode::new(cfg.clone(), id, role)
    });
    net.run_until(SimTime::from_secs(120));
    let now = net.now();
    let upper_on_tree = net.protocol(NodeId(1)).gradients().on_tree(now);
    let lower_on_tree = net.protocol(NodeId(2)).gradients().on_tree(now);
    assert!(
        !(upper_on_tree && lower_on_tree),
        "both diamond paths still active after 120 s — truncation failed"
    );
    assert!(
        upper_on_tree || lower_on_tree,
        "no diamond path active — the tree collapsed"
    );
    let sink = net.protocol(NodeId(3));
    assert!(sink.sink.distinct > 180, "sink got {}", sink.sink.distinct);
}

#[test]
fn failed_nodes_drop_state_and_recover() {
    let mut net = line_network(3, Scheme::Greedy);
    // Let the tree form, kill the middle relay, then recover it.
    net.schedule_down(SimTime::from_secs(20), NodeId(1));
    net.schedule_up(SimTime::from_secs(30), NodeId(1));
    net.run_until(SimTime::from_secs(25));
    assert!(!net.is_up(NodeId(1)));
    // While the only relay is down, its gradients are gone.
    assert!(net.protocol(NodeId(1)).gradients().is_empty());
    net.run_until(SimTime::from_secs(90));
    assert!(net.is_up(NodeId(1)));
    // After recovery the path re-forms and delivery resumes: events from
    // the post-recovery period arrive.
    let sink = net.protocol(NodeId(3));
    assert!(
        sink.sink.distinct > 85,
        "delivery did not resume after recovery: {}",
        sink.sink.distinct
    );
}

/// A diffusion node that also counts the data messages delivered to it.
struct CountingDataIn {
    node: DiffusionNode,
    data_in: u64,
}

impl Protocol for CountingDataIn {
    type Msg = DiffMsg;
    type Timer = DiffTimer;

    fn on_start(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        self.node.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>, packet: &Packet<DiffMsg>) {
        if packet.payload.kind() == MsgKind::Data {
            self.data_in += 1;
        }
        self.node.on_packet(ctx, packet);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>, timer: DiffTimer) {
        self.node.on_timer(ctx, timer);
    }

    fn on_down(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        self.node.on_down(ctx);
    }

    fn on_up(&mut self, ctx: &mut Ctx<'_, DiffMsg, DiffTimer>) {
        self.node.on_up(ctx);
    }

    fn on_unicast_failed(
        &mut self,
        ctx: &mut Ctx<'_, DiffMsg, DiffTimer>,
        to: NodeId,
        msg: &DiffMsg,
    ) {
        self.node.on_unicast_failed(ctx, to, msg);
    }
}

#[test]
fn aggregation_points_merge_items_into_one_aggregate() {
    // Y topology: two sources joined at a merge relay, then to the sink.
    let positions = vec![
        Position::new(0.0, 20.0),  // source A
        Position::new(0.0, -20.0), // source B
        Position::new(25.0, 0.0),  // merge relay (in range of both)
        Position::new(55.0, 0.0),  // relay
        Position::new(85.0, 0.0),  // sink
    ];
    let topo = Topology::new(positions, 40.0);
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(topo, NetConfig::default(), 23, |id| {
        let role = match id.index() {
            0 | 1 => Role::SOURCE,
            4 => Role::SINK,
            _ => Role::RELAY,
        };
        CountingDataIn {
            node: DiffusionNode::new(cfg.clone(), id, role),
            data_in: 0,
        }
    });
    net.run_until(SimTime::from_secs(60));
    // The merge relay receives one data message per source per round but
    // sends roughly one aggregate per round: its data-out must be well below
    // its data-in.
    let merge = net.protocol(NodeId(2));
    let sent = merge.node.counters.sent(MsgKind::Data);
    let received = merge.data_in;
    assert!(
        sent * 3 < received * 2,
        "merge node sent {sent} data messages for {received} received — no aggregation"
    );
    // And perfect aggregation keeps both sources' events flowing.
    let sink = &net.protocol(NodeId(4)).node;
    assert_eq!(sink.sink.per_source.len(), 2);
    assert!(sink.sink.distinct > 150);
}

#[test]
fn source_events_stay_synchronized_across_failures() {
    // Sources derive rounds from time, so a failed-and-recovered source
    // resumes on the same round schedule.
    let mut net = line_network(2, Scheme::Greedy);
    net.run_until(SimTime::from_secs(62));
    let generated = net.protocol(NodeId(0)).events_generated;
    // 57 s of generation at 2/s = 114 rounds (start 5 s), ±1 boundary.
    assert!((112..=115).contains(&generated), "{generated}");
}

#[test]
fn a_sink_can_relay_for_another_sink() {
    // source(0) — sinkA(1) — relay(2) — sinkB(3): everything sinkB receives
    // must pass through sinkA, which consumes *and* forwards.
    let positions: Vec<Position> = (0..4)
        .map(|i| Position::new(i as f64 * 30.0, 0.0))
        .collect();
    let topo = Topology::new(positions, 40.0);
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(topo, NetConfig::default(), 37, |id| {
        let role = match id.index() {
            0 => Role::SOURCE,
            1 | 3 => Role::SINK,
            _ => Role::RELAY,
        };
        DiffusionNode::new(cfg.clone(), id, role)
    });
    net.run_until(SimTime::from_secs(60));
    let near = net.protocol(NodeId(1));
    let far = net.protocol(NodeId(3));
    // 110 events generated; the near sink hears essentially all of them.
    assert!(
        near.sink.distinct > 95,
        "near sink got {}",
        near.sink.distinct
    );
    // The far sink can only be fed through the near sink's relaying.
    assert!(far.sink.distinct > 80, "far sink got {}", far.sink.distinct);
    let now = net.now();
    assert!(
        net.protocol(NodeId(1)).gradients().on_tree(now),
        "the near sink must hold a data gradient to relay for the far sink"
    );
}
