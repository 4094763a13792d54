//! Property-based tests of the network engine: random topologies and traffic
//! scripts must preserve the engine's global invariants.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use wsn_net::{
    Ctx, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology, TraceOptions,
};
use wsn_sim::{SimDuration, SimTime};
use wsn_trace::{DropReason, MemSink, SharedSink, TraceRecord};

/// A protocol that follows a per-node script of timed sends and counts
/// receptions.
#[derive(Debug)]
struct Script {
    sends: Vec<(u64, Option<u32>, u32)>, // (delay µs, dst, payload)
    received: Vec<u32>,
}

#[derive(Debug, Clone)]
struct SendCmd {
    dst: Option<NodeId>,
    payload: u32,
    bytes: u32,
}

impl Protocol for Script {
    type Msg = u32;
    type Timer = SendCmd;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, SendCmd>) {
        for &(delay_us, dst, payload) in &self.sends {
            ctx.set_timer(
                SimDuration::from_micros(delay_us),
                SendCmd {
                    dst: dst.map(NodeId),
                    payload,
                    bytes: 36 + payload % 64,
                },
            );
        }
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, u32, SendCmd>, packet: &Packet<u32>) {
        self.received.push(packet.payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, SendCmd>, t: SendCmd) {
        match t.dst {
            None => ctx.broadcast(t.bytes, t.payload),
            Some(d) => ctx.unicast(d, t.bytes, t.payload),
        }
    }
}

/// Strategy: positions in a 120 m square (3-hop diameter at 40 m range).
fn topologies() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((0.0f64..120.0, 0.0f64..120.0), 2..12)
}

/// Strategy: up to 6 sends per node.
fn scripts(nodes: usize) -> impl Strategy<Value = Vec<Vec<(u64, Option<u32>, u32)>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0u64..500_000,
                prop::option::of(0u32..nodes as u32),
                0u32..1000,
            ),
            0..6,
        ),
        nodes..=nodes,
    )
}

fn build(
    positions: &[(f64, f64)],
    sends: &[Vec<(u64, Option<u32>, u32)>],
    seed: u64,
) -> Network<Script> {
    let topo = Topology::new(
        positions
            .iter()
            .map(|&(x, y)| Position::new(x, y))
            .collect(),
        40.0,
    );
    Network::new(topo, NetConfig::default(), seed, |id| Script {
        sends: sends[id.index()].clone(),
        received: Vec::new(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two runs with the same inputs are bit-identical.
    #[test]
    fn engine_is_deterministic(
        positions in topologies(),
        seed in any::<u64>(),
        sends in (2usize..12).prop_flat_map(scripts),
    ) {
        let sends = normalize(&positions, sends);
        let run = |s: u64| {
            let mut net = build(&positions, &sends, s);
            net.run_until(SimTime::from_secs(2));
            let energy = net.total_energy();
            let rx: Vec<Vec<u32>> = net.protocols().map(|(_, p)| p.received.clone()).collect();
            let frames = net.stats().total_tx_frames();
            (energy.to_bits(), rx, frames)
        };
        prop_assert_eq!(run(seed), run(seed));
    }

    /// Energy invariants: total = Σ per-state, activity ≤ total, and every
    /// node's dissipation is bounded by worst-case (tx power × duration).
    #[test]
    fn energy_is_conserved_and_bounded(
        positions in topologies(),
        sends in (2usize..12).prop_flat_map(scripts),
    ) {
        let sends = normalize(&positions, sends);
        let mut net = build(&positions, &sends, 7);
        let horizon = SimTime::from_secs(2);
        net.run_until(horizon);
        let total = net.total_energy();
        let activity = net.total_activity_energy();
        prop_assert!(activity >= 0.0);
        prop_assert!(activity <= total + 1e-9);
        let n = positions.len() as f64;
        // Upper bound: every node transmitting for the whole run.
        prop_assert!(total <= n * 0.660 * 2.0 + 1e-9);
        // Lower bound: nothing cheaper than full idle (nodes never fail here).
        prop_assert!(total >= n * 0.035 * 2.0 - 1e-9);
    }

    /// Stats consistency: every delivered reception corresponds to a frame
    /// some neighbor transmitted, and unicast accounting balances.
    #[test]
    fn stats_are_consistent(
        positions in topologies(),
        sends in (2usize..12).prop_flat_map(scripts),
    ) {
        let sends = normalize(&positions, sends);
        let mut net = build(&positions, &sends, 11);
        let sink = Rc::new(RefCell::new(MemSink::new()));
        let handle: SharedSink = sink.clone();
        net.set_trace(handle, TraceOptions::default());
        net.run_until(SimTime::from_secs(2));
        let stats = net.stats();
        let queued: u64 = sends.iter().flatten().count() as u64;
        let retries = stats.total_retries();
        // Each queued frame is transmitted at most 1 + retries times in
        // total; ACKs are separate.
        prop_assert!(stats.total_tx_frames() <= queued + retries);
        // Per node, from the trace: payload frames and ACKs sent, and
        // receptions decoded or lost to a collision.
        let mut sent = vec![0u64; positions.len()];
        let mut heard = vec![0u64; positions.len()];
        for r in &sink.borrow().events {
            match *r {
                TraceRecord::PacketTx { node, kind: "data" | "ack", .. } => {
                    sent[node as usize] += 1;
                }
                TraceRecord::PacketRx { node, .. }
                | TraceRecord::PacketDrop { node, reason: DropReason::Collision, .. } => {
                    heard[node as usize] += 1;
                }
                _ => {}
            }
        }
        for (i, &h) in heard.iter().enumerate() {
            let id = NodeId::from_index(i);
            // A node cannot decode more frames than its neighbors sent
            // (payload frames + their ACKs).
            let neighbor_tx: u64 = net
                .topology()
                .neighbors(id)
                .iter()
                .map(|v| sent[v.index()])
                .sum();
            prop_assert!(h <= neighbor_tx, "node {id} over-received");
        }
    }

    /// After the script drains and the air clears, every radio is idle.
    #[test]
    fn network_quiesces(
        positions in topologies(),
        sends in (2usize..12).prop_flat_map(scripts),
    ) {
        let sends = normalize(&positions, sends);
        let mut net = build(&positions, &sends, 13);
        // Scripts finish within 0.5 s plus retries; 5 s is ample.
        net.run_until(SimTime::from_secs(5));
        let before = net.total_energy();
        let idle_rate = positions.len() as f64 * 0.035;
        net.run_until(SimTime::from_secs(6));
        let after = net.total_energy();
        // One more second must cost exactly the idle floor: nothing is still
        // transmitting or receiving.
        prop_assert!(((after - before) - idle_rate).abs() < 1e-6,
            "network did not quiesce: {} J in the final second vs idle {}",
            after - before, idle_rate);
    }
}

/// Drops self-addressed unicasts (meaningless) from generated scripts.
fn normalize(
    positions: &[(f64, f64)],
    mut sends: Vec<Vec<(u64, Option<u32>, u32)>>,
) -> Vec<Vec<(u64, Option<u32>, u32)>> {
    sends.truncate(positions.len());
    while sends.len() < positions.len() {
        sends.push(Vec::new());
    }
    for (i, list) in sends.iter_mut().enumerate() {
        list.retain(|&(_, dst, _)| {
            dst.is_none_or(|d| (d as usize) < positions.len() && d as usize != i)
        });
    }
    sends
}
