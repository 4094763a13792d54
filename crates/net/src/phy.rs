//! The physical layer: propagation, medium sensing, and collision
//! bookkeeping.
//!
//! [`Phy`] owns everything below the MAC — the topology (disc propagation),
//! the per-node radio state (power, energy meter, the frame on the air,
//! carrier sense and reception state), one reception flag per link, and the
//! run's one count block, [`NetStats`]. Its contract with the MAC layer is
//! two calls:
//!
//! * [`Phy::start_frame`] puts a frame on the air: it charges carrier sense
//!   at every hearer, corrupts overlapping receptions (receiver-side
//!   collision model, including the half-duplex loss of anything the sender
//!   was itself receiving), and schedules the `TxEnd`.
//! * [`Phy::finish_frame`] takes a frame off the air at its `TxEnd`: it
//!   releases carrier sense, finalizes every reception, and reports the
//!   result into a caller-recycled [`TxOutcome`] — successful payload
//!   deliveries plus any control frames (ACK/RTS/CTS) decoded at their
//!   addressee — for the MAC to act on. The PHY never inspects MAC state;
//!   deferred interpretation of the outcome is what keeps the layers
//!   independent.
//!
//! Per-node state is struct-of-arrays, split by how often the broadcast
//! loops touch it: for *every* hearer of *every* frame they read one 12-byte
//! [`Radio`] record (power, whether it transmits, carrier sense, reception
//! state) and update its [`EnergyMeter`], two parallel arrays; the cold
//! `in_flight` frames live in a separate array the hot scan never walks.
//! The meter update is inlined into the loops with the meter's own f64
//! arithmetic, so every debit is bit-identical to a `set_state` call. See
//! `DESIGN.md` §15.2.
//!
//! Receptions are addressed by link, not stored per hearer: a reception of
//! `u`'s frame at `v` is one set bit in `receiving` at the address of the
//! link `u → v` (its position in the topology's neighbor arena), and the
//! frame itself stays in `u`'s `in_flight` slot. Whether that reception is
//! still decodable lives in `v`'s [`Radio`] record, which is exact because
//! any overlap corrupts *every* reception at a hearer: at most one
//! reception per hearer is ever clean. See `DESIGN.md` §14.4.
//!
//! The broadcast loops iterate the topology's neighbor slices through split
//! borrows (`topo` is a field disjoint from the per-node arrays and
//! `stats`), so the steady state clones no neighbor lists and allocates
//! nothing — see `DESIGN.md` §14.4 for the ownership rules.
//!
//! With [`Phy::capture`] set (the ideal contention-free MAC), the collision
//! machinery is disabled: receivers decode every overlapping frame
//! (perfect capture, full duplex), so no reception is ever corrupted and no
//! collision is ever recorded — while carrier-sense counts still drive the
//! receive-energy model.

use std::rc::Rc;

use wsn_sim::{SimTime, Simulator};
use wsn_trace::{DropReason, SharedSink, TraceRecord};

use crate::config::tx_duration;
use crate::energy::{state_index, EnergyMeter, RadioState};
use crate::engine::Ev;
use crate::metrics::MetricsState;
use crate::node::NodeId;
use crate::packet::{Packet, TxId};
use crate::soa::Bits;
use crate::topology::Topology;

/// What a transmission carries.
#[derive(Debug)]
pub(crate) enum Frame<M> {
    /// A protocol frame.
    Payload(Rc<Packet<M>>),
    /// A MAC-level acknowledgement for transmission `acked`, addressed to
    /// `to` (the original sender).
    Ack { acked: TxId, to: NodeId },
    /// Request to send, addressed to `to`.
    Rts { to: NodeId },
    /// Clear to send, addressed to `to` (the RTS sender).
    Cts { to: NodeId },
}

impl<M> Frame<M> {
    /// The frame kind tag used in trace records.
    fn kind(&self) -> &'static str {
        wsn_trace::FRAME_KINDS[self.kind_index()]
    }

    /// Index into [`wsn_trace::FRAME_KINDS`] and the `phy.frames_tx{kind=..}`
    /// counter array registered from it in [`NetMetricIds`](crate::NetMetricIds).
    fn kind_index(&self) -> usize {
        match self {
            Frame::Payload(_) => 0,
            Frame::Ack { .. } => 1,
            Frame::Rts { .. } => 2,
            Frame::Cts { .. } => 3,
        }
    }

    /// The logical destination reported in trace records (`None` for
    /// broadcast payloads).
    fn trace_dst(&self) -> Option<u32> {
        match self {
            Frame::Payload(p) => p.dst.map(|d| d.0),
            Frame::Ack { to, .. } | Frame::Rts { to } | Frame::Cts { to } => Some(to.0),
        }
    }

    /// The lineage a trace record reports: the protocol's answer for a
    /// payload (see [`Protocol::lineage`](crate::Protocol::lineage)), none
    /// for a MAC control frame.
    fn trace_lineage(&self, lineage_of: fn(&M) -> Option<String>) -> Option<String> {
        match self {
            Frame::Payload(p) => lineage_of(&p.payload),
            _ => None,
        }
    }
}

/// Emits through a borrowed sink handle. Emission sites inside the split
/// borrows of the broadcast loops reach the sink through the disjoint
/// `trace` field and emit through this instead of [`Phy::emit`].
/// `#[inline]`, so an untraced call site can skip building the record.
#[inline]
fn emit_to(trace: &Option<SharedSink>, rec: TraceRecord) {
    if let Some(t) = trace {
        t.borrow_mut().record(&rec);
    }
}

/// Moves node `i`'s meter to the state its radio record implies, debiting
/// the closed interval to the metrics registry and the trace if installed.
///
/// A free function over one node's record and meter (rather than a `Phy`
/// method) so the broadcast loops can call it while holding split borrows
/// of the sibling arrays. Inlined: the loops call it for the sender and
/// every hearer of every frame.
#[inline(always)]
fn update_meter_at(
    meter: &mut EnergyMeter,
    radio: &Radio,
    trace: &Option<SharedSink>,
    metrics: &mut Option<Box<MetricsState>>,
    i: usize,
    now: SimTime,
) {
    let (prev, joules) = meter.set_state(radio.state(), now);
    // Zero-length and zero-power intervals produce no record, so the
    // trace stream stays proportional to real state *changes*. The metrics
    // debit mirrors the trace gate exactly — the zero-tolerance audit
    // depends on both sides counting the same set of intervals.
    if joules > 0.0 {
        if let Some(m) = metrics {
            m.reg.add(
                m.ids.energy_nj[state_index(prev)],
                wsn_trace::joules_to_nj(joules),
            );
        }
        if let Some(sink) = trace {
            sink.borrow_mut().record(&TraceRecord::EnergyDebit {
                t_ns: now.as_nanos(),
                node: i as u32,
                state: prev.name(),
                joules,
            });
        }
    }
}

/// Counts one corrupted reception at `node`: the count block's total and
/// the trace record.
fn record_collision(stats: &mut NetStats, trace: &Option<SharedSink>, t_ns: u64, node: u32) {
    stats.collisions += 1;
    emit_to(trace, TraceRecord::Collision { t_ns, node });
}

/// One node's radio: power, the frame on the air, carrier sense and
/// reception state. The one record a hearer visit reads besides the
/// node's meter.
#[derive(Debug, Clone, Copy)]
struct Radio {
    /// In-range transmissions on the air (carrier sense).
    busy: u32,
    /// Receptions in progress: the set `receiving` flags among the links
    /// into this node.
    rx: u32,
    /// Whether the reception in progress is still decodable. A second
    /// reception corrupts every reception at the hearer, so `clean`
    /// implies `rx == 1`. Never set under perfect capture, where nothing
    /// is corrupted.
    clean: bool,
    /// Whether the node is powered.
    up: bool,
    /// Whether the node has a frame on the air (its `in_flight` slot is
    /// full).
    transmitting: bool,
}

const _: () = assert!(std::mem::size_of::<Radio>() == 12);

impl Radio {
    /// A powered radio with nothing on the air: every node's start.
    const IDLE: Radio = Radio {
        busy: 0,
        rx: 0,
        clean: false,
        up: true,
        transmitting: false,
    };

    /// The state the node's energy meter should be in.
    #[inline]
    fn state(&self) -> RadioState {
        if !self.up {
            RadioState::Off
        } else if self.transmitting {
            RadioState::Transmitting
        } else if self.busy > 0 {
            RadioState::Receiving
        } else {
            RadioState::Idle
        }
    }
}

/// The run's count block: every frame, payload byte, collision, retry and
/// frame drop, each counted once, at one increment site.
///
/// Always on and per run, not per node. The metrics registry samples it
/// (`phy.frames_tx{kind}`, `phy.collisions`, `phy.drops{reason}`) instead of
/// counting the same events again, and the run's harvest reads it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Frames put on the air, by kind in [`wsn_trace::FRAME_KINDS`] order
    /// (data, ack, rts, cts). Counted in `Phy::start_frame`.
    pub frames_tx: [u64; 4],
    /// Payload bytes put on the air: the bytes of the data frames, without
    /// MAC ACK/RTS/CTS frames. Counted in `Phy::start_frame`.
    pub bytes_tx: u64,
    /// Corrupted receptions (a collision at k hearers counts k times, plus
    /// one for the incoming frame). Counted in `record_collision`.
    pub collisions: u64,
    /// Unicast retransmissions. Counted in `CsmaCa::requeue_or_fail`.
    pub retries: u64,
    /// Frames lost, by reason in [`DropReason::ALL`] order (index with
    /// [`DropReason::index`]): `collision` in `Phy::finish_frame`,
    /// `retry_limit` in `CsmaCa::requeue_or_fail`, `node_down` in
    /// `EngineCore::enqueue`. The other reasons drop protocol items, not
    /// frames, and stay zero here.
    pub drops: [u64; 6],
}

impl NetStats {
    /// Payload frames transmitted (excludes ACK/RTS/CTS).
    pub fn total_tx_frames(&self) -> u64 {
        self.frames_tx[0]
    }

    /// Payload bytes transmitted.
    pub fn total_tx_bytes(&self) -> u64 {
        self.bytes_tx
    }

    /// Unicast retransmissions.
    pub fn total_retries(&self) -> u64 {
        self.retries
    }

    /// Unicast frames abandoned after the retry limit.
    pub fn total_failed(&self) -> u64 {
        self.drops[DropReason::RetryLimit.index()]
    }
}

/// A successfully decoded control frame, reported to the MAC at `TxEnd`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Control {
    /// A MAC acknowledgement for the sender's transmission `acked`.
    Ack {
        /// The transmission being acknowledged.
        acked: TxId,
    },
    /// A request-to-send; the receiver owes a CTS.
    Rts,
    /// A clear-to-send; the receiver may transmit its data frame.
    Cts,
}

/// Everything the PHY observed when a transmission left the air.
///
/// The engine owns one instance and recycles it across `TxEnd` dispatches
/// ([`TxOutcome::clear`] between uses), so the steady state never allocates
/// delivery vectors — they keep their high-water capacity.
#[derive(Debug)]
pub(crate) struct TxOutcome<M> {
    /// The payload that left the air, if the frame carried one.
    pub(crate) packet: Option<Rc<Packet<M>>>,
    /// The hearers that decoded [`packet`](TxOutcome::packet) and passed
    /// the logical destination filter, in neighbor order, each with the
    /// sender's position in the hearer's neighbor list — dispatched to
    /// protocols by the engine.
    pub(crate) deliveries: Vec<(NodeId, u32)>,
    /// The addressed receiver that cleanly decoded a unicast payload; under
    /// an acknowledged MAC it owes the sender an ACK.
    pub(crate) unicast_decoded: Option<NodeId>,
    /// Control frames decoded at their addressee, in neighbor order. A
    /// frame has exactly one addressee, so at most one entry per outcome.
    pub(crate) control: Vec<(NodeId, Control)>,
}

impl<M> Default for TxOutcome<M> {
    fn default() -> Self {
        TxOutcome {
            packet: None,
            deliveries: Vec::new(),
            unicast_decoded: None,
            control: Vec::new(),
        }
    }
}

impl<M> TxOutcome<M> {
    /// Resets for reuse, keeping the vectors' capacity.
    pub(crate) fn clear(&mut self) {
        self.packet = None;
        self.deliveries.clear();
        self.unicast_decoded = None;
        self.control.clear();
    }
}

/// The physical layer: topology, per-node radio state, and the receiver-side
/// collision model. See the module docs for the `start_frame`/`finish_frame`
/// contract with the MAC and for the struct-of-arrays layout of the per-node
/// state.
pub(crate) struct Phy<M> {
    pub(crate) topo: Topology,
    // ---- hot per-node arrays: touched for every hearer of every frame ----
    /// Power, transmission, carrier sense and reception state.
    radio: Vec<Radio>,
    /// Energy meters, advanced on every radio-state change.
    meters: Vec<EnergyMeter>,
    // ---- hot per-link flags: touched for every link a frame crosses ----
    /// Bit `l` is set while the far end of link `l = u → v` is receiving
    /// `u`'s frame on the air.
    receiving: Bits,
    // ---- cold per-node array: only touched at the sender ----
    /// The frame each node has on the air and its transmission id (present
    /// iff the node's `Radio::transmitting` is set).
    in_flight: Vec<Option<(TxId, Frame<M>)>>,
    pub(crate) stats: NetStats,
    next_tx: u64,
    /// The installed trace sink, if any. `None` keeps every emission site
    /// down to a single branch.
    pub(crate) trace: Option<SharedSink>,
    /// The protocol's [`Protocol::lineage`](crate::Protocol::lineage),
    /// asked for a payload's lineage when a trace record is written.
    pub(crate) lineage_of: fn(&M) -> Option<String>,
    /// The metrics registry and its wiring, if installed. Lives on the PHY
    /// (like the trace sink) so the broadcast loops' split borrows reach it
    /// as a disjoint field; `None` keeps every recording site to one branch.
    pub(crate) metrics: Option<Box<MetricsState>>,
    /// Perfect-capture mode (the ideal MAC): receivers decode every
    /// overlapping frame, so nothing is ever corrupted and no collision is
    /// ever recorded. Carrier sense still counts hearers for the energy
    /// model.
    capture: bool,
}

impl<M: std::fmt::Debug> std::fmt::Debug for Phy<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Manual impl: the sink handle is a trait object with no Debug.
        f.debug_struct("Phy")
            .field("topo", &self.topo)
            .field("radio", &self.radio)
            .field("meters", &self.meters)
            .field("stats", &self.stats)
            .field("next_tx", &self.next_tx)
            .field("trace", &self.trace.is_some())
            .field("metrics", &self.metrics.is_some())
            .field("capture", &self.capture)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + std::fmt::Debug> Phy<M> {
    pub(crate) fn new(topo: Topology, capture: bool, lineage_of: fn(&M) -> Option<String>) -> Self {
        let n = topo.len();
        Phy {
            radio: vec![Radio::IDLE; n],
            meters: vec![EnergyMeter::new(SimTime::ZERO); n],
            receiving: Bits::new_all_clear(topo.link_count()),
            in_flight: (0..n).map(|_| None).collect(),
            topo,
            stats: NetStats::default(),
            next_tx: 0,
            trace: None,
            lineage_of,
            metrics: None,
            capture,
        }
    }

    /// The number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.radio.len()
    }

    /// Whether node `i` is powered.
    #[inline]
    pub(crate) fn is_up(&self, i: usize) -> bool {
        self.radio[i].up
    }

    /// Sets node `i`'s power state (the failure layer's entry point).
    pub(crate) fn set_up(&mut self, i: usize, value: bool) {
        self.radio[i].up = value;
    }

    /// Whether node `i` has a frame on the air.
    #[inline]
    pub(crate) fn is_transmitting(&self, i: usize) -> bool {
        self.radio[i].transmitting
    }

    /// Whether node `i` senses the medium busy (any in-range transmission on
    /// the air).
    #[inline]
    pub(crate) fn is_busy(&self, i: usize) -> bool {
        self.radio[i].busy > 0
    }

    /// Node `i`'s energy meter.
    pub(crate) fn meter(&self, i: usize) -> &EnergyMeter {
        &self.meters[i]
    }

    /// All energy meters, indexed by node.
    pub(crate) fn meters(&self) -> &[EnergyMeter] {
        &self.meters
    }

    /// Whether a trace sink is installed (callers gate expensive record
    /// assembly on this).
    pub(crate) fn trace_enabled(&self) -> bool {
        self.trace.is_some()
    }

    /// Emits one trace record if a sink is installed.
    pub(crate) fn emit(&self, rec: TraceRecord) {
        if let Some(t) = &self.trace {
            t.borrow_mut().record(&rec);
        }
    }

    /// Puts `frame` on the air from node `i`: updates carrier sense and
    /// reception state at every hearer and schedules the `TxEnd`.
    pub(crate) fn start_frame<T: Clone + std::fmt::Debug>(
        &mut self,
        sim: &mut Simulator<Ev<T>>,
        i: usize,
        frame: Frame<M>,
        bytes: u32,
    ) -> TxId {
        let now = sim.now();
        let t_ns = now.as_nanos();
        let tx = TxId(self.next_tx);
        self.next_tx += 1;
        // Split borrows: the neighbor slice lives in `topo`, disjoint from
        // the per-node arrays and the counters in `stats`, so the loops
        // below iterate it directly — no neighbor-list clone. Each SoA
        // field is its own borrow, so mutating `radio` never conflicts
        // with updating `meters`.
        let Phy {
            topo,
            radio,
            meters,
            receiving,
            in_flight,
            stats,
            trace,
            lineage_of,
            metrics,
            capture,
            ..
        } = self;
        let capture = *capture;
        stats.frames_tx[frame.kind_index()] += 1;
        if let Frame::Payload(_) = frame {
            stats.bytes_tx += u64::from(bytes);
        }
        if trace.is_some() {
            emit_to(
                trace,
                TraceRecord::PacketTx {
                    t_ns,
                    node: i as u32,
                    tx: tx.0,
                    kind: frame.kind(),
                    bytes,
                    dst: frame.trace_dst(),
                    lineage: frame.trace_lineage(*lineage_of),
                },
            );
        }
        let me = &mut radio[i];
        debug_assert!(!me.transmitting, "radio already busy");
        me.transmitting = true;
        in_flight[i] = Some((tx, frame));
        // Half-duplex: the reception we were decoding, if any, is lost.
        if me.clean {
            me.clean = false;
            record_collision(stats, trace, t_ns, i as u32);
        }
        update_meter_at(&mut meters[i], me, trace, metrics, i, now);

        let sender = NodeId::from_index(i);
        let links = topo.links(sender);
        for (link, &v) in links.zip(topo.neighbors(sender)) {
            let vi = v.index();
            let r = &mut radio[vi];
            r.busy += 1;
            if capture {
                // Perfect capture: every powered hearer decodes the frame,
                // overlap or not, even while transmitting itself.
                if r.up {
                    r.rx += 1;
                    receiving.set(link, true);
                }
            } else if r.up && !r.transmitting {
                // Overlap with any ongoing reception corrupts everything:
                // the one clean reception, if any, and this one.
                if r.rx > 0 {
                    if r.clean {
                        r.clean = false;
                        record_collision(stats, trace, t_ns, v.0);
                    }
                    record_collision(stats, trace, t_ns, v.0);
                } else {
                    r.clean = true;
                }
                r.rx += 1;
                receiving.set(link, true);
            }
            update_meter_at(&mut meters[vi], r, trace, metrics, vi, now);
        }
        let duration = tx_duration(bytes);
        sim.schedule_after(duration, Ev::TxEnd { node: sender, tx });
        tx
    }

    /// Takes transmission `tx` off the air at its `TxEnd`: releases carrier
    /// sense and finalizes every reception. Fills `out` (cleared first) with
    /// what the MAC needs to act on — payload deliveries and
    /// addressee-decoded control frames.
    pub(crate) fn finish_frame(
        &mut self,
        now: SimTime,
        i: usize,
        tx: TxId,
        out: &mut TxOutcome<M>,
    ) {
        out.clear();
        let t_ns = now.as_nanos();
        let Phy {
            topo,
            radio,
            meters,
            receiving,
            in_flight,
            stats,
            trace,
            metrics,
            capture,
            ..
        } = self;
        let (sent, frame) = in_flight[i].take().expect("frame in flight");
        debug_assert_eq!(sent, tx, "TxEnd out of order");
        radio[i].transmitting = false;
        update_meter_at(&mut meters[i], &radio[i], trace, metrics, i, now);

        let sender = NodeId::from_index(i);
        let hearers = topo.links(sender).zip(topo.neighbors(sender));
        for ((link, &v), &back) in hearers.zip(topo.reverse(sender)) {
            let vi = v.index();
            let r = &mut radio[vi];
            debug_assert!(r.busy > 0, "busy count underflow at {v}");
            r.busy -= 1;
            if receiving.take(link) {
                // Under capture nothing is corrupted; otherwise a clean
                // hearer's one reception is this one.
                let corrupted = !*capture && !r.clean;
                r.rx -= 1;
                r.clean = false;
                if corrupted {
                    stats.drops[DropReason::Collision.index()] += 1;
                    emit_to(
                        trace,
                        TraceRecord::PacketDrop {
                            t_ns,
                            node: v.0,
                            reason: DropReason::Collision,
                            tx: Some(tx.0),
                        },
                    );
                } else if r.up {
                    match &frame {
                        Frame::Payload(pkt) => {
                            // Addressed unicasts and broadcasts deliver;
                            // an addressed unicast may owe an ACK, which
                            // the MAC decides.
                            let addressed = pkt.dst == Some(v);
                            if addressed || pkt.dst.is_none() {
                                if let Some(m) = metrics {
                                    m.reg.inc(m.ids.frames_rx);
                                }
                                emit_to(
                                    trace,
                                    TraceRecord::PacketRx {
                                        t_ns,
                                        node: v.0,
                                        from: sender.0,
                                        tx: tx.0,
                                        bytes: pkt.bytes,
                                    },
                                );
                                out.deliveries.push((v, back));
                                if addressed {
                                    out.unicast_decoded = Some(v);
                                }
                            }
                        }
                        Frame::Ack { acked, to } => {
                            if *to == v {
                                out.control.push((v, Control::Ack { acked: *acked }));
                            }
                        }
                        Frame::Rts { to } => {
                            if *to == v {
                                out.control.push((v, Control::Rts));
                            }
                        }
                        Frame::Cts { to } => {
                            if *to == v {
                                out.control.push((v, Control::Cts));
                            }
                        }
                    }
                }
            }
            update_meter_at(&mut meters[vi], r, trace, metrics, vi, now);
        }
        if let Frame::Payload(pkt) = frame {
            out.packet = Some(pkt);
        }
    }

    /// A radio dying mid-transmission cuts the signal: every in-progress
    /// reception of that frame fails its checksum. (The carrier-sense
    /// bookkeeping still releases at the scheduled `TxEnd` — a slight
    /// overestimate of busy time, never of delivery.) Under perfect capture
    /// the truncated frame is simply never decoded — no collision is
    /// recorded.
    pub(crate) fn fail_transmission(&mut self, now: SimTime, i: usize) {
        if !self.radio[i].transmitting {
            return;
        }
        let me = NodeId::from_index(i);
        let Phy {
            topo,
            radio,
            receiving,
            stats,
            trace,
            capture,
            ..
        } = self;
        for (link, &v) in topo.links(me).zip(topo.neighbors(me)) {
            let r = &mut radio[v.index()];
            if *capture {
                if receiving.take(link) {
                    r.rx -= 1;
                }
            } else if r.clean && receiving.get(link) {
                // A clean hearer's one reception is this frame.
                r.clean = false;
                record_collision(stats, trace, now.as_nanos(), v.0);
            }
        }
    }

    /// Clears a failed node's reception state (its own transmission, if any,
    /// is handled by [`Phy::fail_transmission`] first): the flags of every
    /// link into it, found through the reverse index.
    pub(crate) fn clear_receptions(&mut self, i: usize) {
        let me = NodeId::from_index(i);
        let Phy {
            topo,
            radio,
            receiving,
            ..
        } = self;
        for (&u, &back) in topo.neighbors(me).iter().zip(topo.reverse(me)) {
            receiving.set(topo.links(u).start + back as usize, false);
        }
        radio[i].rx = 0;
        radio[i].clean = false;
    }

    /// Checks every node's radio record against the frames on the air and
    /// the link flags: `busy` counts the neighbors with a frame in flight,
    /// `rx` the set `receiving` flags on the links into the node, `clean`
    /// implies `rx == 1`, and `transmitting` is set iff the node's
    /// `in_flight` slot is full. O(nodes + links); the engine runs it at
    /// every run-loop exit in debug builds (DESIGN §14.6).
    ///
    /// # Panics
    ///
    /// Panics at the first node whose record disagrees, naming it.
    #[cfg(debug_assertions)]
    pub(crate) fn check_bookkeeping(&self) {
        for (i, r) in self.radio.iter().enumerate() {
            let me = NodeId::from_index(i);
            let (mut busy, mut rx) = (0, 0);
            for (&u, &back) in self.topo.neighbors(me).iter().zip(self.topo.reverse(me)) {
                busy += u32::from(self.in_flight[u.index()].is_some());
                let link = self.topo.links(u).start + back as usize;
                rx += u32::from(self.receiving.get(link));
            }
            assert_eq!(r.busy, busy, "{me}: busy count vs neighbors on the air");
            assert_eq!(r.rx, rx, "{me}: rx count vs receiving flags into it");
            assert!(
                !r.clean || r.rx == 1,
                "{me}: clean with {} receptions",
                r.rx
            );
            assert_eq!(
                r.transmitting,
                self.in_flight[i].is_some(),
                "{me}: transmitting flag vs frame in flight"
            );
        }
    }

    /// Recomputes the radio state after any bookkeeping change, debiting the
    /// closed interval to the trace if one is installed.
    pub(crate) fn update_meter(&mut self, i: usize, now: SimTime) {
        let Phy {
            radio,
            meters,
            trace,
            metrics,
            ..
        } = self;
        update_meter_at(&mut meters[i], &radio[i], trace, metrics, i, now);
    }
}
