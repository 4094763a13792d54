//! Integration tests of the wireless substrate through a purpose-built test
//! protocol: ARQ behavior, collisions, energy accounting, and determinism.

use wsn::net::{
    Ctx, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology, RETRY_LIMIT,
};
use wsn::sim::{SimDuration, SimTime};
use wsn::trace::DropReason;

/// Index of ACK frames in the count block's `frames_tx` (data, ack, rts,
/// cts).
const ACK: usize = 1;

/// A protocol that sends a fixed script of messages and records receptions.
#[derive(Debug)]
struct Scripted {
    /// (delay, dst, payload) triples to send at start.
    script: Vec<(SimDuration, Option<NodeId>, u32)>,
    received: Vec<(NodeId, u32)>,
    /// Attempt a (doomed) broadcast from the failure callback — exercises
    /// the engine's drop-while-down accounting.
    send_on_down: bool,
}

impl Scripted {
    fn silent() -> Self {
        Scripted {
            script: Vec::new(),
            received: Vec::new(),
            send_on_down: false,
        }
    }
}

#[derive(Debug, Clone)]
struct Send {
    dst: Option<NodeId>,
    payload: u32,
}

impl Protocol for Scripted {
    type Msg = u32;
    type Timer = Send;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, Send>) {
        for (delay, dst, payload) in self.script.clone() {
            ctx.set_timer(delay, Send { dst, payload });
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, u32, Send>, packet: &Packet<u32>) {
        self.received.push((packet.from, packet.payload));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, Send>, t: Send) {
        match t.dst {
            None => ctx.broadcast(64, t.payload),
            Some(d) => ctx.unicast(d, 64, t.payload),
        }
    }

    fn on_down(&mut self, ctx: &mut Ctx<'_, u32, Send>) {
        if self.send_on_down {
            ctx.broadcast(64, 999);
        }
    }
}

fn line(n: usize) -> Topology {
    Topology::new(
        (0..n)
            .map(|i| Position::new(i as f64 * 30.0, 0.0))
            .collect(),
        40.0,
    )
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

#[test]
fn unicast_is_invisible_to_non_destinations() {
    // 0 — 1 — 2: node 1 unicasts to node 0; node 2 hears it physically but
    // its protocol must not see it.
    let mut net = Network::new(line(3), NetConfig::default(), 1, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(1) {
            p.script.push((ms(10), Some(NodeId(0)), 7));
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    assert_eq!(net.protocol(NodeId(0)).received, vec![(NodeId(1), 7)]);
    assert!(net.protocol(NodeId(2)).received.is_empty());
    // …but node 2 still paid receive energy for it: more than a pure-idle
    // node (the unicast and its ACK are both audible).
    let idle_only = 0.035 * 1.0;
    assert!(net.energy(NodeId(2)) > idle_only);
}

#[test]
fn acks_confirm_unicast_and_stop_retries() {
    let mut net = Network::new(line(2), NetConfig::default(), 2, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(0) {
            p.script.push((ms(10), Some(NodeId(1)), 1));
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    // Two nodes: node 0 sends the data frame, node 1 the ACK.
    let stats = net.stats();
    assert_eq!(stats.total_tx_frames(), 1);
    assert_eq!(stats.total_retries(), 0);
    assert_eq!(stats.total_failed(), 0);
    assert_eq!(stats.frames_tx[ACK], 1);
    assert_eq!(net.protocol(NodeId(1)).received.len(), 1);
}

#[test]
fn unicast_to_failed_node_exhausts_retries() {
    let mut net = Network::new(line(2), NetConfig::default(), 3, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(0) {
            p.script.push((ms(100), Some(NodeId(1)), 1));
        }
        p
    });
    net.schedule_down(SimTime::from_nanos(1), NodeId(1));
    net.run_until(SimTime::from_secs(2));
    // Node 1 is down, so every retry and loss is node 0's.
    let s = net.stats();
    assert_eq!(s.total_retries(), u64::from(RETRY_LIMIT));
    assert_eq!(s.total_failed(), 1);
    assert!(net.protocol(NodeId(1)).received.is_empty());
}

#[test]
fn hidden_terminals_collide_but_arq_recovers() {
    // 0 and 2 cannot hear each other; both unicast to 1 at the same instant.
    // The first attempts collide at node 1; ARQ must deliver both copies.
    let mut net = Network::new(line(3), NetConfig::default(), 4, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(0) {
            p.script.push((ms(50), Some(NodeId(1)), 10));
        }
        if id == NodeId(2) {
            p.script.push((ms(50), Some(NodeId(1)), 20));
        }
        p
    });
    net.run_until(SimTime::from_secs(2));
    let mut payloads: Vec<u32> = net
        .protocol(NodeId(1))
        .received
        .iter()
        .map(|&(_, p)| p)
        .collect();
    payloads.sort_unstable();
    payloads.dedup();
    assert_eq!(
        payloads,
        vec![10, 20],
        "ARQ failed to recover from the collision"
    );
    assert!(
        net.stats().collisions > 0,
        "no collision was even attempted"
    );
}

#[test]
fn broadcasts_get_no_retries() {
    // Same hidden-terminal setup, but with broadcasts: the collision is
    // final.
    let mut net = Network::new(line(3), NetConfig::default(), 5, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(0) {
            p.script.push((ms(50), None, 10));
        }
        if id == NodeId(2) {
            p.script.push((ms(50), None, 20));
        }
        p
    });
    net.run_until(SimTime::from_secs(2));
    // Exactly simultaneous backoffs may or may not collide depending on the
    // draw, but no retransmission machinery may engage either way.
    assert_eq!(net.stats().total_retries(), 0);
    assert_eq!(net.stats().frames_tx[ACK], 0, "no node sent an ACK");
}

#[test]
fn csma_serializes_neighbors() {
    // Three mutually audible nodes each broadcast at the same instant;
    // carrier sense + backoff should let all three frames through
    // undamaged most of the time. Use a clique (spacing 10 m).
    let topo = Topology::new(
        vec![
            Position::new(0.0, 0.0),
            Position::new(10.0, 0.0),
            Position::new(5.0, 8.0),
        ],
        40.0,
    );
    let mut net = Network::new(topo, NetConfig::default(), 6, |id| {
        let mut p = Scripted::silent();
        p.script.push((ms(50), None, id.0));
        p
    });
    net.run_until(SimTime::from_secs(1));
    let total_received: usize = net.protocols().map(|(_, p)| p.received.len()).sum();
    // 3 broadcasts × 2 hearers each = 6 receptions when fully serialized.
    assert!(
        total_received >= 4,
        "only {total_received}/6 receptions survived a 3-node clique burst"
    );
}

#[test]
fn energy_metering_matches_hand_computation_for_a_quiet_network() {
    // Nobody transmits: every node sits in idle for the whole run.
    let mut net = Network::new(line(4), NetConfig::default(), 7, |_| Scripted::silent());
    net.run_until(SimTime::from_secs(10));
    let expected = 4.0 * 0.035 * 10.0;
    assert!((net.total_energy() - expected).abs() < 1e-9);
    assert!(net.total_activity_energy().abs() < 1e-12);
}

#[test]
fn failed_nodes_dissipate_nothing_while_down() {
    let mut net = Network::new(line(1), NetConfig::default(), 8, |_| Scripted::silent());
    net.schedule_down(SimTime::from_secs(2), NodeId(0));
    net.schedule_up(SimTime::from_secs(7), NodeId(0));
    net.run_until(SimTime::from_secs(10));
    // 5 s idle at 35 mW (2 s before + 3 s after), 5 s off.
    let expected = 5.0 * 0.035;
    assert!((net.energy(NodeId(0)) - expected).abs() < 1e-9);
}

#[test]
fn substrate_is_deterministic() {
    let run = || {
        let mut net = Network::new(line(5), NetConfig::default(), 9, |id| {
            let mut p = Scripted::silent();
            p.script.push((ms(10 + u64::from(id.0)), None, id.0));
            p.script
                .push((ms(500), Some(NodeId((id.0 + 1) % 5)), 100 + id.0));
            p
        });
        net.run_until(SimTime::from_secs(2));
        let receptions: Vec<Vec<(NodeId, u32)>> =
            net.protocols().map(|(_, p)| p.received.clone()).collect();
        (net.total_energy(), receptions)
    };
    let (e1, r1) = run();
    let (e2, r2) = run();
    assert_eq!(e1.to_bits(), e2.to_bits(), "energy must be bit-identical");
    assert_eq!(r1, r2);
}

#[test]
fn frames_queued_while_down_are_dropped() {
    let mut net = Network::new(line(2), NetConfig::default(), 10, |id| {
        let mut p = Scripted::silent();
        if id == NodeId(0) {
            p.send_on_down = true;
        }
        p
    });
    net.schedule_down(SimTime::from_nanos(100_000_000), NodeId(0));
    net.run_until(SimTime::from_secs(1));
    // Node 1 is silent, so the drop and the (absent) frames are node 0's.
    let s = net.stats();
    assert_eq!(s.drops[DropReason::NodeDown.index()], 1);
    assert_eq!(s.total_tx_frames(), 0);
    assert!(net.protocol(NodeId(1)).received.is_empty());
}
