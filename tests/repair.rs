//! Integration tests of failure handling: MAC link-failure detection and
//! sink-initiated local path repair.

use std::cell::RefCell;
use std::rc::Rc;

use wsn::diffusion::{DiffusionConfig, DiffusionNode, Role, Scheme};
use wsn::net::{NetConfig, Network, NodeId, Position, Topology, TraceOptions};
use wsn::sim::SimTime;
use wsn::trace::{DropReason, MemSink, SharedSink, TraceRecord};

/// A diamond with a long exploratory interval, so any recovery inside the
/// run must come from *local repair*, not from the next exploratory round.
///
/// ```text
///   source(0) — upper(1) —\
///            \— lower(2) — sink(3)
/// ```
fn diamond(scheme: Scheme) -> Network<DiffusionNode> {
    let positions = vec![
        Position::new(0.0, 0.0),
        Position::new(30.0, 18.0),
        Position::new(30.0, -18.0),
        Position::new(60.0, 0.0),
    ];
    let topo = Topology::new(positions, 40.0);
    let mut cfg = DiffusionConfig::for_scheme(scheme);
    // One exploratory round only (at 5 s): no round-based re-establishment.
    cfg.exploratory_interval = wsn::sim::SimDuration::from_secs(1000);
    cfg.data_gradient_timeout = wsn::sim::SimDuration::from_secs(2000);
    Network::new(topo, NetConfig::default(), 31, move |id| {
        let role = match id.index() {
            0 => Role::SOURCE,
            3 => Role::SINK,
            _ => Role::RELAY,
        };
        DiffusionNode::new(cfg.clone(), id, role)
    })
}

/// Which middle node currently relays (holds a data gradient toward the
/// sink).
fn active_relay(net: &Network<DiffusionNode>) -> Option<NodeId> {
    let now = net.now();
    [NodeId(1), NodeId(2)].into_iter().find(|&n| {
        let neighbors = net.topology().neighbors(n);
        net.protocol(n)
            .gradients()
            .has_data(neighbors, NodeId(3), now)
    })
}

#[test]
fn local_repair_reroutes_around_a_dead_relay() {
    for scheme in [Scheme::Greedy, Scheme::Opportunistic] {
        let mut net = diamond(scheme);
        net.run_until(SimTime::from_secs(20));
        let relay = active_relay(&net).expect("a path formed");
        let before = net.protocol(NodeId(3)).sink.distinct;
        assert!(before > 20, "{scheme}: no data before failure");

        // Kill the active relay. The only repair signal available is the
        // MAC link-failure detection + the sink's local repair (the next
        // exploratory round is ~1000 s away).
        net.schedule_down(SimTime::from_secs(20), relay);
        net.run_until(SimTime::from_secs(60));
        let after = net.protocol(NodeId(3)).sink.distinct;
        // 40 s of events at 2/s = 80; repair within ~10 s keeps most.
        assert!(
            after - before > 40,
            "{scheme}: only {} events in 40 s after killing {relay} — repair failed",
            after - before
        );
        // And the traffic now flows through the other relay.
        let other = if relay == NodeId(1) {
            NodeId(2)
        } else {
            NodeId(1)
        };
        assert_eq!(active_relay(&net), Some(other), "{scheme}");
    }
}

#[test]
fn sender_stops_burning_retries_into_a_dead_link() {
    let mut net = diamond(Scheme::Greedy);
    let sink = Rc::new(RefCell::new(MemSink::new()));
    let handle: SharedSink = sink.clone();
    net.set_trace(handle, TraceOptions::default());
    net.run_until(SimTime::from_secs(20));
    let relay = active_relay(&net).expect("a path formed");
    net.schedule_down(SimTime::from_secs(20), relay);
    net.run_until(SimTime::from_secs(60));
    // The source must have degraded its gradient toward the dead relay:
    // failed unicasts stay bounded (a few ARQ exhaustions, not 40 s worth
    // of 2/s events each retried 8 times).
    let failed = sink
        .borrow()
        .events
        .iter()
        .filter(|r| {
            matches!(
                r,
                TraceRecord::PacketDrop {
                    node: 0,
                    reason: DropReason::RetryLimit,
                    ..
                }
            )
        })
        .count();
    assert!(
        (1..20).contains(&failed),
        "expected a handful of failed unicasts at the source, got {failed}"
    );
    let now = net.now();
    assert!(
        !net.protocol(NodeId(0)).gradients().has_data(
            net.topology().neighbors(NodeId(0)),
            relay,
            now
        ),
        "source still holds a data gradient toward the dead relay"
    );
}

#[test]
fn repaired_path_survives_the_original_relay_recovering() {
    let mut net = diamond(Scheme::Greedy);
    net.run_until(SimTime::from_secs(20));
    let relay = active_relay(&net).expect("a path formed");
    net.schedule_down(SimTime::from_secs(20), relay);
    net.schedule_up(SimTime::from_secs(40), relay);
    net.run_until(SimTime::from_secs(100));
    let sink = net.protocol(NodeId(3));
    // 5 s start, ~190 events generated by t=100; allow the repair gap.
    assert!(
        sink.sink.distinct > 150,
        "delivery did not stabilize after recovery: {}",
        sink.sink.distinct
    );
    // Exactly one middle relay carries data (no duplicate diamond).
    let now = net.now();
    let active: Vec<NodeId> = [NodeId(1), NodeId(2)]
        .into_iter()
        .filter(|&n| {
            let neighbors = net.topology().neighbors(n);
            net.protocol(n)
                .gradients()
                .has_data(neighbors, NodeId(3), now)
        })
        .collect();
    assert_eq!(active.len(), 1, "active relays: {active:?}");
}

#[test]
fn single_exhausted_arq_does_not_break_a_healthy_link() {
    // A clean 2-node link: one unicast failure cannot occur, but we verify
    // the accounting end-to-end — no failures, no suspicion, full delivery.
    let topo = Topology::new(
        vec![Position::new(0.0, 0.0), Position::new(30.0, 0.0)],
        40.0,
    );
    let cfg = DiffusionConfig::for_scheme(Scheme::Greedy);
    let mut net = Network::new(topo, NetConfig::default(), 33, |id| {
        let role = if id == NodeId(0) {
            Role::SOURCE
        } else {
            Role::SINK
        };
        DiffusionNode::new(cfg.clone(), id, role)
    });
    net.run_until(SimTime::from_secs(30));
    assert_eq!(net.stats().total_failed(), 0);
    let sink = net.protocol(NodeId(1));
    assert!(sink.sink.distinct >= 48, "{}", sink.sink.distinct);
}
