//! Edge-case tests of the network engine's MAC/ARQ/failure machinery and
//! of the PHY's reception bookkeeping.

use std::cell::RefCell;
use std::rc::Rc;

use wsn_net::{
    tx_duration, Ctx, MacKind, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology,
    TraceOptions, RETRY_LIMIT,
};
use wsn_sim::{SimDuration, SimTime};
use wsn_trace::{DropReason, MemSink, SharedSink, TraceRecord};

/// Indices into the count block's `frames_tx` (data, ack, rts, cts).
const ACK: usize = 1;
const RTS: usize = 2;
const CTS: usize = 3;

/// Minimal scripted protocol (see `engine_properties.rs` for the generic
/// one); here each instance also records failure callbacks, and payload `p`
/// carries the lineage `"p#7"`.
#[derive(Debug, Default)]
struct Probe {
    sends: Vec<(SimDuration, Option<NodeId>, u32)>,
    received: Vec<(NodeId, u32)>,
    failed_unicasts: Vec<(NodeId, u32)>,
    downs: u32,
    ups: u32,
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
    fn on_down(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>) {
        self.downs += 1;
    }
    fn on_up(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>) {
        self.ups += 1;
    }
    fn on_unicast_failed(&mut self, _ctx: &mut Ctx<'_, u32, Cmd>, to: NodeId, msg: &u32) {
        self.failed_unicasts.push((to, *msg));
    }
    fn lineage(msg: &u32) -> Option<String> {
        Some(format!("{msg}#7"))
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

#[test]
fn failure_callback_reports_destination_and_payload() {
    let mut net = Network::new(pair(), NetConfig::default(), 1, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(100), Some(NodeId(1)), 77));
        }
        p
    });
    net.schedule_down(SimTime::from_nanos(1), NodeId(1));
    net.run_until(SimTime::from_secs(2));
    assert_eq!(
        net.protocol(NodeId(0)).failed_unicasts,
        vec![(NodeId(1), 77)]
    );
}

#[test]
fn down_up_callbacks_fire_once_per_transition() {
    let mut net = Network::new(pair(), NetConfig::default(), 2, |_| Probe::default());
    net.schedule_down(SimTime::from_secs(1), NodeId(0));
    net.schedule_down(SimTime::from_secs(2), NodeId(0)); // redundant
    net.schedule_up(SimTime::from_secs(3), NodeId(0));
    net.schedule_up(SimTime::from_secs(4), NodeId(0)); // redundant
    net.schedule_down(SimTime::from_secs(5), NodeId(0));
    net.schedule_up(SimTime::from_secs(6), NodeId(0));
    net.run_until(SimTime::from_secs(10));
    let p = net.protocol(NodeId(0));
    assert_eq!(p.downs, 2);
    assert_eq!(p.ups, 2);
}

#[test]
fn node_down_mid_transmission_still_clears_the_air() {
    // Node 0 starts a long broadcast and dies before TxEnd; node 1 must not
    // deliver it, and the medium bookkeeping must recover (node 1 can
    // transmit afterwards).
    let mut net = Network::new(pair(), NetConfig::default(), 3, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), None, 1));
        }
        if id == NodeId(1) {
            p.sends.push((ms(500), None, 2));
        }
        p
    });
    // The frame occupies the air somewhere in [10.05 ms, 11.2 ms]
    // (DIFS + 0..31 slots + 512 µs); killing the sender at 10.3 ms either
    // aborts the in-flight frame or clears it from the queue unsent —
    // in no case may it be delivered.
    net.schedule_down(SimTime::from_nanos(10_300_000), NodeId(0));
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    // Node 1 heard nothing decodable from node 0...
    assert!(net.protocol(NodeId(1)).received.is_empty());
    // ...but node 0 (down) also heard nothing from node 1's later broadcast.
    assert!(net.protocol(NodeId(0)).received.is_empty());
    // Node 1 did transmit (the medium was not stuck busy).
    assert_eq!(data_frames_from(&recs, 1), 1);
}

#[test]
fn timers_do_not_survive_failure() {
    // Node 0 schedules a send for t = 2 s but dies at t = 1 s and recovers
    // at t = 3 s: the send must never happen.
    let mut net = Network::new(pair(), NetConfig::default(), 4, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((SimDuration::from_secs(2), None, 9));
        }
        p
    });
    net.schedule_down(SimTime::from_secs(1), NodeId(0));
    net.schedule_up(SimTime::from_secs(3), NodeId(0));
    net.run_until(SimTime::from_secs(5));
    // Node 1 is silent, so any data frame would be node 0's.
    assert_eq!(net.stats().total_tx_frames(), 0);
    assert!(net.protocol(NodeId(1)).received.is_empty());
}

#[test]
fn back_to_back_unicasts_all_deliver_in_order() {
    let n = 20u32;
    let mut net = Network::new(pair(), NetConfig::default(), 5, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            for i in 0..n {
                p.sends.push((ms(10), Some(NodeId(1)), i));
            }
        }
        p
    });
    net.run_until(SimTime::from_secs(2));
    let received: Vec<u32> = net
        .protocol(NodeId(1))
        .received
        .iter()
        .map(|&(_, p)| p)
        .collect();
    // A clean channel: every frame ACKed first try, FIFO order preserved.
    assert_eq!(received, (0..n).collect::<Vec<u32>>());
    // Node 0 sends every data frame, node 1 every ACK.
    assert_eq!(net.stats().total_retries(), 0);
    assert_eq!(net.stats().frames_tx[ACK], u64::from(n));
}

#[test]
fn energy_accounts_for_ack_frames() {
    // One unicast: the receiver transmits an ACK, so its energy exceeds a
    // node that only received.
    let topo = Topology::new(
        vec![
            Position::new(0.0, 0.0),  // sender
            Position::new(30.0, 0.0), // destination (ACKs)
            Position::new(0.0, 30.0), // bystander (hears everything, sends nothing)
        ],
        40.0,
    );
    let mut net = Network::new(topo, NetConfig::default(), 6, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), Some(NodeId(1)), 1));
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    let dest = net.energy(NodeId(1));
    let bystander = net.energy(NodeId(2));
    assert!(
        dest > bystander,
        "destination ({dest}) should out-spend the bystander ({bystander}) by the ACK"
    );
}

#[test]
fn zero_neighbor_node_sends_into_the_void() {
    let topo = Topology::new(
        vec![Position::new(0.0, 0.0), Position::new(500.0, 0.0)],
        40.0,
    );
    let mut net = Network::new(topo, NetConfig::default(), 7, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), None, 1)); // broadcast: fire and forget
            p.sends.push((ms(20), Some(NodeId(1)), 2)); // unicast: retries then fails
        }
        p
    });
    net.run_until(SimTime::from_secs(3));
    // Node 1 is silent and out of range: every frame and loss is node 0's.
    let s = net.stats();
    assert_eq!(s.total_tx_frames(), 2 + u64::from(RETRY_LIMIT));
    assert_eq!(s.total_failed(), 1);
    assert_eq!(net.protocol(NodeId(0)).failed_unicasts.len(), 1);
    assert!(net.protocol(NodeId(1)).received.is_empty());
}

fn rts_config() -> NetConfig {
    NetConfig {
        mac: MacKind::RtsCts,
    }
}

#[test]
fn rts_cts_handshake_delivers_unicast() {
    let mut net = Network::new(pair(), rts_config(), 8, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), Some(NodeId(1)), 42));
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    assert_eq!(net.protocol(NodeId(1)).received, vec![(NodeId(0), 42)]);
    // Node 0 sends the RTS and the data frame, node 1 the CTS and the ACK.
    let s = net.stats();
    assert_eq!(s.frames_tx[RTS], 1);
    assert_eq!(s.frames_tx[CTS], 1);
    assert_eq!(s.total_tx_frames(), 1, "one data frame");
    assert_eq!(s.frames_tx[ACK], 1);
    assert_eq!(s.total_retries(), 0);
}

#[test]
fn rts_cts_broadcasts_skip_the_handshake() {
    let mut net = Network::new(pair(), rts_config(), 9, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), None, 7));
        }
        p
    });
    net.run_until(SimTime::from_secs(1));
    assert_eq!(net.protocol(NodeId(1)).received.len(), 1);
    assert_eq!(net.stats().frames_tx[RTS], 0);
    assert_eq!(net.stats().frames_tx[CTS], 0);
}

#[test]
fn rts_to_dead_node_retries_and_reports_failure() {
    let mut net = Network::new(pair(), rts_config(), 10, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(100), Some(NodeId(1)), 5));
        }
        p
    });
    net.schedule_down(SimTime::from_nanos(1), NodeId(1));
    net.run_until(SimTime::from_secs(3));
    // Node 1 is down, so every frame and loss is node 0's. Every attempt is
    // an RTS that goes unanswered; no data frame ever flies.
    let s = net.stats();
    assert_eq!(s.frames_tx[RTS], 1 + u64::from(RETRY_LIMIT));
    assert_eq!(s.total_tx_frames(), 0);
    assert_eq!(s.total_failed(), 1);
    assert_eq!(
        net.protocol(NodeId(0)).failed_unicasts,
        vec![(NodeId(1), 5)]
    );
}

#[test]
fn rts_cts_handles_hidden_terminals() {
    // The scenario RTS/CTS exists for: 0 and 2 both unicast to 1.
    let mut net = Network::new(line(3), rts_config(), 11, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(50), Some(NodeId(1)), 10));
        }
        if id == NodeId(2) {
            p.sends.push((ms(50), Some(NodeId(1)), 20));
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
    assert_eq!(payloads, vec![10, 20]);
}

/// The lineage of every `enq` record and of every `tx` record (tagged with
/// its frame kind), in order.
fn lineages(recs: &[TraceRecord]) -> Vec<(&'static str, Option<String>)> {
    recs.iter()
        .filter_map(|r| match r {
            TraceRecord::MacEnqueue { lineage, .. } => Some(("enq", lineage.clone())),
            TraceRecord::PacketTx { kind, lineage, .. } => Some((*kind, lineage.clone())),
            _ => None,
        })
        .collect()
}

#[test]
fn enq_and_payload_tx_records_carry_the_protocols_lineage() {
    // Node 0 unicasts payload 5 (RTS, CTS, data, ACK), then broadcasts 6.
    let mut net = Network::new(pair(), rts_config(), 9, |id| {
        let mut p = Probe::default();
        if id == NodeId(0) {
            p.sends.push((ms(10), Some(NodeId(1)), 5));
            p.sends.push((ms(100), None, 6));
        }
        p
    });
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    let (five, six) = (Some("5#7".to_string()), Some("6#7".to_string()));
    assert_eq!(
        lineages(&recs),
        vec![
            ("enq", five.clone()),
            ("rts", None),
            ("cts", None),
            ("data", five),
            ("ack", None),
            ("enq", six.clone()),
            ("data", six),
        ]
    );
    // `Air` keeps the default hook: no record carries lineage.
    let mut net = Network::new(pair(), NetConfig::default(), 9, |id| Air {
        at_start: vec![(ms(10 * u64::from(id.0 + 1)), 64, 5)],
        ..Air::default()
    });
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    let none = vec![("enq", None), ("data", None), ("enq", None), ("data", None)];
    assert_eq!(lineages(&recs), none);
}

fn line(n: usize) -> Topology {
    Topology::new(
        (0..n)
            .map(|i| Position::new(i as f64 * 30.0, 0.0))
            .collect(),
        40.0,
    )
}

/// Broadcasts `(delay, bytes, payload)` frames armed at start and again
/// after every recovery, and records what it decodes.
#[derive(Debug, Default)]
struct Air {
    at_start: Vec<(SimDuration, u32, u32)>,
    at_up: Vec<(SimDuration, u32, u32)>,
    received: Vec<(NodeId, u32)>,
}

impl Protocol for Air {
    type Msg = u32;
    type Timer = (u32, u32);

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32, (u32, u32)>) {
        for &(d, bytes, p) in &self.at_start {
            ctx.set_timer(d, (bytes, p));
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx<'_, u32, (u32, u32)>, packet: &Packet<u32>) {
        let k = ctx.sender_index().expect("a delivery names its sender");
        assert_eq!(ctx.neighbors()[k], packet.from, "sender index is wrong");
        self.received.push((packet.from, packet.payload));
    }
    fn on_timer(&mut self, ctx: &mut Ctx<'_, u32, (u32, u32)>, (bytes, p): (u32, u32)) {
        assert_eq!(ctx.sender_index(), None, "timers are not deliveries");
        ctx.broadcast(bytes, p);
    }
    fn on_up(&mut self, ctx: &mut Ctx<'_, u32, (u32, u32)>) {
        for &(d, bytes, p) in &self.at_up {
            ctx.set_timer(d, (bytes, p));
        }
    }
}

/// Runs `net` to `end` with an in-memory trace and returns the records.
fn run_recorded<P: Protocol>(net: &mut Network<P>, end: SimTime) -> Vec<TraceRecord> {
    let sink = Rc::new(RefCell::new(MemSink::new()));
    let handle: SharedSink = sink.clone();
    net.set_trace(handle, TraceOptions::default());
    net.run_until(end);
    net.finish_trace().expect("a memory sink cannot fail");
    let events = std::mem::take(&mut sink.borrow_mut().events);
    events
}

/// Node `node`'s `nth` frame on the air: `(start ns, tx id, end ns)`.
fn frame_on_air(recs: &[TraceRecord], node: u32, nth: usize) -> (u64, u64, u64) {
    recs.iter()
        .filter_map(|r| match *r {
            TraceRecord::PacketTx {
                t_ns,
                node: n,
                tx,
                bytes,
                ..
            } if n == node => Some((t_ns, tx, t_ns + tx_duration(bytes).as_nanos())),
            _ => None,
        })
        .nth(nth)
        .expect("the frame was sent")
}

/// How many data frames `node` put on the air.
fn data_frames_from(recs: &[TraceRecord], node: u32) -> usize {
    recs.iter()
        .filter(|r| matches!(r, TraceRecord::PacketTx { node: n, kind: "data", .. } if *n == node))
        .count()
}

fn collisions_at(recs: &[TraceRecord], node: u32) -> Vec<u64> {
    recs.iter()
        .filter_map(|r| match *r {
            TraceRecord::Collision { t_ns, node: n } if n == node => Some(t_ns),
            _ => None,
        })
        .collect()
}

/// `(t_ns, tx)` of every collision drop at `node`.
fn collision_drops_at(recs: &[TraceRecord], node: u32) -> Vec<(u64, Option<u64>)> {
    recs.iter()
        .filter_map(|r| match *r {
            TraceRecord::PacketDrop {
                t_ns,
                node: n,
                reason: DropReason::Collision,
                tx,
            } if n == node => Some((t_ns, tx)),
            _ => None,
        })
        .collect()
}

/// Builds a network of `Air` nodes whose frame plans come from `plan`.
fn air_network(
    topo: Topology,
    cfg: NetConfig,
    seed: u64,
    plan: impl Fn(NodeId, &mut Air),
) -> Network<Air> {
    Network::new(topo, cfg, seed, |id| {
        let mut p = Air::default();
        plan(id, &mut p);
        p
    })
}

#[test]
fn hearer_down_and_up_mid_frame_gets_nothing_and_carrier_releases_at_tx_end() {
    let build = || {
        air_network(pair(), NetConfig::default(), 41, |id, p| {
            if id == NodeId(0) {
                p.at_start.push((ms(10), 1000, 7));
                p.at_start.push((ms(200), 64, 8));
            }
            if id == NodeId(1) {
                // Queued right after recovery, while node 0's frame is
                // still on the air: carrier sense must hold it back.
                p.at_up.push((SimDuration::from_micros(10), 64, 9));
            }
        })
    };
    let dry = run_recorded(&mut build(), SimTime::from_secs(1));
    let (start, tx, end) = frame_on_air(&dry, 0, 0);

    let mut net = build();
    let third = (end - start) / 3;
    net.schedule_down(SimTime::from_nanos(start + third), NodeId(1));
    net.schedule_up(SimTime::from_nanos(start + 2 * third), NodeId(1));
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    assert_eq!(frame_on_air(&recs, 0, 0), (start, tx, end));

    // Neither a delivery nor a drop record for the interrupted reception;
    // node 0's next frame then arrives clean.
    assert_eq!(net.protocol(NodeId(1)).received, vec![(NodeId(0), 8)]);
    assert!(!recs.iter().any(|r| matches!(
        *r,
        TraceRecord::PacketRx { node: 1, tx: t, .. } | TraceRecord::PacketDrop { node: 1, tx: Some(t), .. }
            if t == tx
    )));
    assert!(!recs
        .iter()
        .any(|r| matches!(r, TraceRecord::PacketDrop { node: 1, .. })));
    // Node 1 decoded exactly one frame and lost none to a collision.
    let rx_at_1 = recs
        .iter()
        .filter(|r| matches!(r, TraceRecord::PacketRx { node: 1, .. }))
        .count();
    assert_eq!((rx_at_1, collision_drops_at(&recs, 1).len()), (1, 0));
    assert_eq!(net.stats().collisions, 0);
    // Back up, node 1 senses the frame until its TxEnd (it receives, in
    // energy terms) and then idles...
    assert!(recs.iter().any(|r| matches!(
        *r,
        TraceRecord::EnergyDebit { t_ns, node: 1, state: "rx", .. } if t_ns == end
    )));
    // ...and its own frame, queued before that TxEnd, waits for it and then
    // goes out and delivers.
    let (tx1_start, _, _) = frame_on_air(&recs, 1, 0);
    assert!(
        tx1_start > end,
        "node 1 sent at {tx1_start} before TxEnd {end}"
    );
    assert_eq!(net.protocol(NodeId(0)).received, vec![(NodeId(1), 9)]);
}

/// A sender between two hearers that cannot hear each other.
fn sender_between_two_hearers() -> Topology {
    Topology::new(
        vec![
            Position::new(0.0, 0.0),
            Position::new(30.0, 0.0),
            Position::new(-30.0, 0.0),
        ],
        40.0,
    )
}

/// Node 0 dies a third into its first frame and recovers after that
/// frame's TxEnd, then sends a second frame. Returns the run's records,
/// the first frame's `(tx, end)` and the network.
fn transmitter_death(mac: MacKind) -> (Vec<TraceRecord>, (u64, u64), Network<Air>) {
    let build = || {
        air_network(
            sender_between_two_hearers(),
            NetConfig { mac },
            43,
            |id, p| {
                if id == NodeId(0) {
                    p.at_start.push((ms(10), 1000, 1));
                    p.at_up.push((ms(1), 1000, 2));
                }
            },
        )
    };
    let dry = run_recorded(&mut build(), SimTime::from_secs(1));
    let (start, tx, end) = frame_on_air(&dry, 0, 0);
    let mut net = build();
    net.schedule_down(SimTime::from_nanos(start + (end - start) / 3), NodeId(0));
    net.schedule_up(SimTime::from_nanos(end + 1_000_000), NodeId(0));
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    assert_eq!(frame_on_air(&recs, 0, 0), (start, tx, end));
    (recs, (tx, end), net)
}

#[test]
fn transmitter_death_mid_frame_costs_one_collision_per_clean_hearer_under_csma() {
    let (recs, (tx, end), net) = transmitter_death(MacKind::Csma);
    assert_eq!(net.stats().collisions, 2);
    for hearer in [1, 2] {
        assert_eq!(collisions_at(&recs, hearer).len(), 1);
        // The cut frame fails its checksum at its scheduled TxEnd.
        assert_eq!(collision_drops_at(&recs, hearer), vec![(end, Some(tx))]);
        // The next frame delivers normally.
        assert_eq!(net.protocol(NodeId(hearer)).received, vec![(NodeId(0), 2)]);
    }
}

#[test]
fn transmitter_death_mid_frame_costs_no_collision_under_ideal() {
    let (recs, _, net) = transmitter_death(MacKind::Ideal);
    assert_eq!(net.stats().collisions, 0);
    for hearer in [1, 2] {
        assert!(collisions_at(&recs, hearer).is_empty());
        assert!(collision_drops_at(&recs, hearer).is_empty());
        // The cut frame is never decoded; the next one is.
        assert_eq!(net.protocol(NodeId(hearer)).received, vec![(NodeId(0), 2)]);
    }
}

#[test]
fn third_frame_onto_a_corrupted_reception_adds_exactly_one_collision() {
    // Hearer 0 with three senders hidden from each other (35 m from the
    // hearer, 49.5–70 m apart), each sending one long frame 1 ms after the
    // last: all three overlap at the hearer.
    let topo = Topology::new(
        vec![
            Position::new(0.0, 0.0),
            Position::new(35.0, 0.0),
            Position::new(-35.0, 0.0),
            Position::new(0.0, 35.0),
        ],
        40.0,
    );
    let mut net = air_network(topo, NetConfig::default(), 47, |id, p| {
        if id != NodeId(0) {
            p.at_start.push((ms(9 + u64::from(id.0)), 1000, id.0));
        }
    });
    let recs = run_recorded(&mut net, SimTime::from_secs(1));
    let (a, ta, a_end) = frame_on_air(&recs, 1, 0);
    let (b, tb, _) = frame_on_air(&recs, 2, 0);
    let (c, tc, _) = frame_on_air(&recs, 3, 0);
    assert!(a < b && b < c && c < a_end, "frames do not overlap");
    // The second frame corrupts the first and itself; the third adds only
    // its own.
    assert_eq!(collisions_at(&recs, 0), vec![b, b, c]);
    assert_eq!(net.stats().collisions, 3);
    let mut dropped: Vec<Option<u64>> = collision_drops_at(&recs, 0)
        .into_iter()
        .map(|(_, tx)| tx)
        .collect();
    dropped.sort_unstable();
    assert_eq!(dropped, vec![Some(ta), Some(tb), Some(tc)]);
    assert!(net.protocol(NodeId(0)).received.is_empty());
}
