//! MAC-layer isolation tests: retry-exhaustion drop attribution in the
//! trace, and the ideal MAC's contention-free guarantees.
//!
//! (The backoff-window doubling/cap law is unit-tested next to
//! `contention_window` in `src/mac/csma.rs`.)

use std::cell::RefCell;
use std::rc::Rc;

use wsn_net::{
    Ctx, MacKind, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology, TraceOptions,
};
use wsn_sim::{SimDuration, SimTime};
use wsn_trace::{DropReason, JsonlSink, SharedSink, TraceRecord};

/// Minimal scripted protocol: sends on timers, records receptions.
#[derive(Debug, Default)]
struct Probe {
    sends: Vec<(SimDuration, Option<NodeId>, u32)>,
    received: Vec<(NodeId, u32)>,
    failed_unicasts: Vec<(NodeId, u32)>,
}

#[derive(Debug, Clone)]
struct Cmd(Option<NodeId>, u32);

impl Protocol for Probe {
    type Msg = u32;
    type Timer = Cmd;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, Cmd>) {
        for &(d, dst, p) in &self.sends {
            ctx.set_timer(d, Cmd(dst, p));
        }
    }
    fn on_packet(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>, packet: &Packet<u32>) {
        self.received.push((packet.from, packet.payload));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, Cmd>, t: Cmd) {
        match t.0 {
            None => ctx.broadcast(64, t.1),
            Some(d) => ctx.unicast(d, 64, t.1),
        }
    }
    fn on_unicast_failed(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>, to: NodeId, msg: &u32) {
        self.failed_unicasts.push((to, *msg));
    }
}

fn pair() -> Topology {
    Topology::new(
        vec![Position::new(0.0, 0.0), Position::new(30.0, 0.0)],
        40.0,
    )
}

fn ms(v: u64) -> SimDuration {
    SimDuration::from_millis(v)
}

/// Runs `net` to `end` with a trace attached and returns the NDJSON text.
fn run_traced(net: &mut Network<Probe>, end: SimTime) -> String {
    let sink = Rc::new(RefCell::new(JsonlSink::new(Vec::new())));
    let handle: SharedSink = sink.clone();
    net.set_trace(handle, TraceOptions::default());
    net.run_until(end);
    net.finish_trace().expect("Vec writer cannot fail");
    let bytes = Rc::try_unwrap(sink)
        .expect("the engine must release its sink handle at run end")
        .into_inner()
        .into_inner()
        .expect("Vec writer cannot fail");
    String::from_utf8(bytes).expect("traces are ASCII JSON")
}

/// The nodes of the trace's `drop` records blaming `reason`.
fn drops(text: &str, reason: DropReason) -> Vec<u32> {
    let decode = |l: &str| TraceRecord::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}"));
    text.lines()
        .filter_map(|l| match decode(l) {
            TraceRecord::PacketDrop {
                node, reason: r, ..
            } if r == reason => Some(node),
            _ => None,
        })
        .collect()
}

/// How many data frames the trace shows `node` putting on the air.
fn data_frames_from(text: &str, node: u32) -> u32 {
    let decode = |l: &str| TraceRecord::from_json(l).unwrap_or_else(|e| panic!("{e}: {l}"));
    text.lines()
        .filter(|l| {
            matches!(decode(l), TraceRecord::PacketTx { node: n, kind: "data", .. } if n == node)
        })
        .count() as u32
}

#[test]
fn retry_exhaustion_drop_is_attributed_in_the_trace() {
    // Unicast into a dead (but in-range) node: the ARQ exhausts its retries
    // and the MAC must leave a `drop` record blaming the retry limit.
    let mut net = Network::new(pair(), NetConfig::default(), 31, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(100), Some(NodeId(1)), 5));
        }
        p
    });
    net.schedule_down(SimTime::from_nanos(1), NodeId(1));
    let text = run_traced(&mut net, SimTime::from_secs(3));

    assert_eq!(
        drops(&text, DropReason::RetryLimit),
        vec![0],
        "exactly one exhausted ARQ, at node 0:\n{text}"
    );
    assert_eq!(
        net.protocol(NodeId(0)).failed_unicasts,
        vec![(NodeId(1), 5)]
    );
    // Node 1 is down, so every data frame is node 0's.
    assert_eq!(
        net.stats().total_tx_frames(),
        1 + u64::from(NetConfig::default().retry_limit)
    );
}

fn ideal_config() -> NetConfig {
    NetConfig {
        mac: MacKind::Ideal,
        ..NetConfig::default()
    }
}

#[test]
fn ideal_mac_is_collision_free_and_lossless_on_an_uncontended_link() {
    // Two nodes, both firing bursts at the same instant — under CSMA this
    // is exactly the contention the backoff exists for; the ideal MAC must
    // deliver every frame with zero collisions and zero control overhead.
    let n = 10u32;
    let mut net = Network::new(pair(), ideal_config(), 32, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            for i in 0..n {
                p.sends.push((ms(10), Some(NodeId(1)), i));
            }
        }
        if id == NodeId(1) {
            for i in 0..n {
                p.sends.push((ms(10), Some(NodeId(0)), 100 + i));
            }
        }
        p
    });
    let text = run_traced(&mut net, SimTime::from_secs(2));

    // Delivery ratio 1.0: every frame arrived, in FIFO order.
    let got0: Vec<u32> = net
        .protocol(NodeId(0))
        .received
        .iter()
        .map(|r| r.1)
        .collect();
    let got1: Vec<u32> = net
        .protocol(NodeId(1))
        .received
        .iter()
        .map(|r| r.1)
        .collect();
    assert_eq!(got1, (0..n).collect::<Vec<u32>>());
    assert_eq!(got0, (100..100 + n).collect::<Vec<u32>>());

    // Never a collision — neither in the stats nor in the trace.
    assert_eq!(net.stats().collisions, 0);
    assert!(
        drops(&text, DropReason::Collision).is_empty(),
        "ideal MAC traced a collision:\n{text}"
    );

    // Zero contention machinery: no retries, no failures, no control frames
    // from either node.
    let s = net.stats();
    assert_eq!(s.total_retries(), 0);
    assert_eq!(s.total_failed(), 0);
    assert_eq!(s.frames_tx[1..], [0, 0, 0], "no ACK, RTS or CTS");
    for node in [0, 1] {
        assert_eq!(data_frames_from(&text, node), n, "payload frames only");
    }
}

#[test]
fn ideal_mac_still_debits_transmit_and_receive_energy() {
    // Contention-free is not energy-free: the radio still pays for the
    // payload bits, so a transmitting pair must out-spend an idle bystander.
    let topo = Topology::new(
        vec![
            Position::new(0.0, 0.0),   // sender
            Position::new(30.0, 0.0),  // receiver
            Position::new(500.0, 0.0), // out of range: pure idle
        ],
        40.0,
    );
    let mut net = Network::new(topo, ideal_config(), 33, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            for i in 0..20 {
                p.sends.push((ms(10), Some(NodeId(1)), i));
            }
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    assert!(net.activity_energy(NodeId(0)) > 0.0, "tx energy debited");
    assert!(net.activity_energy(NodeId(1)) > 0.0, "rx energy debited");
    assert_eq!(
        net.activity_energy(NodeId(2)),
        0.0,
        "bystander spends idle only"
    );
    assert!(net.energy(NodeId(0)) > net.energy(NodeId(2)));
}
