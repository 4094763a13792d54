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
//! Per-node state is struct-of-arrays: the fields the broadcast loops touch
//! for *every* hearer of *every* frame — `up` (a packed bitset), `meters`,
//! `transmitting`, `radio` — are parallel arrays, and the cold `in_flight`
//! frames live in a separate array the hot scan never walks. See
//! `DESIGN.md` §16.
//!
//! Receptions are addressed by link, not stored per hearer: a reception of
//! `u`'s frame at `v` is one set bit in `receiving` at the address of the
//! link `u → v` (its position in the topology's neighbor arena), and the
//! frame itself stays in `u`'s `in_flight` slot. Whether that reception is
//! still decodable lives in `v`'s [`Radio`] record, which is exact because
//! any overlap corrupts *every* reception at a hearer: at most one
//! reception per hearer is ever clean. See `DESIGN.md` §19.
//!
//! The broadcast loops iterate the topology's neighbor slices through split
//! borrows (`topo` is a field disjoint from the per-node arrays and
//! `stats`), so the steady state clones no neighbor lists and allocates
//! nothing — see `DESIGN.md` §15 for the ownership rules.
//!
//! With [`Phy::capture`] set (the ideal contention-free MAC), the collision
//! machinery is disabled: receivers decode every overlapping frame
//! (perfect capture, full duplex), so no reception is ever corrupted and no
//! collision is ever recorded — while carrier-sense counts still drive the
//! receive-energy model.

use std::rc::Rc;

use wsn_sim::{SimTime, Simulator};
use wsn_trace::{DropReason, LineageTable, SharedSink, TraceRecord};

use crate::config::NetConfig;
use crate::energy::{state_index, EnergyMeter, RadioState};
use crate::engine::Ev;
use crate::metrics::{drop_reason_index, MetricsState};
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

    /// The payload's lineage stamp, resolved through the run's intern table
    /// and re-encoded for a trace record. Only payloads of traced runs carry
    /// a handle, so this allocates nothing on untraced paths.
    fn trace_lineage(&self, lineage: &LineageTable) -> Option<String> {
        match self {
            Frame::Payload(p) => p.lineage.map(|h| lineage.resolve(h).to_string()),
            _ => None,
        }
    }
}

/// Emits through a borrowed sink handle. Emission sites inside the split
/// borrows of the broadcast loops reach the sink through the disjoint
/// `trace` field and emit through this instead of [`Phy::emit`].
fn emit_to(trace: &Option<SharedSink>, rec: TraceRecord) {
    if let Some(t) = trace {
        t.borrow_mut().record(&rec);
    }
}

/// Recomputes node `i`'s radio state after any bookkeeping change, debiting
/// the closed interval to the trace if one is installed.
///
/// A free function over the individual hot arrays (rather than a `Phy`
/// method) so the broadcast loops can call it while holding split borrows of
/// the sibling arrays — each array is its own argument by design.
#[allow(clippy::too_many_arguments)]
fn update_meter_at(
    meters: &mut [EnergyMeter],
    up: &Bits,
    transmitting: &[Option<TxId>],
    radio: &[Radio],
    trace: &Option<SharedSink>,
    metrics: &mut Option<Box<MetricsState>>,
    i: usize,
    now: SimTime,
) {
    let state = if !up.get(i) {
        RadioState::Off
    } else if transmitting[i].is_some() {
        RadioState::Transmitting
    } else if radio[i].busy > 0 {
        RadioState::Receiving
    } else {
        RadioState::Idle
    };
    let (prev, joules) = meters[i].set_state(state, now);
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
        emit_to(
            trace,
            TraceRecord::EnergyDebit {
                t_ns: now.as_nanos(),
                node: i as u32,
                state: prev.name(),
                joules,
            },
        );
    }
}

/// Counts one corrupted reception at `node`: the count block's total and
/// the trace record.
fn record_collision(stats: &mut NetStats, trace: &Option<SharedSink>, t_ns: u64, node: u32) {
    stats.collisions += 1;
    emit_to(trace, TraceRecord::Collision { t_ns, node });
}

/// One node's carrier-sense and reception state.
#[derive(Debug, Clone, Copy, Default)]
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
    /// [`drop_reason_index`]): `collision` in `Phy::finish_frame`,
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
        self.drops[drop_reason_index(DropReason::RetryLimit)]
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
    /// Power state, packed 64 nodes to a word.
    up: Bits,
    /// Energy meters, advanced on every radio-state change.
    meters: Vec<EnergyMeter>,
    /// The transmission each node has on the air, if any.
    transmitting: Vec<Option<TxId>>,
    /// Carrier sense and reception state.
    radio: Vec<Radio>,
    // ---- hot per-link flags: touched for every link a frame crosses ----
    /// Bit `l` is set while the far end of link `l = u → v` is receiving
    /// `u`'s frame on the air.
    receiving: Bits,
    // ---- cold per-node array: only touched at the sender ----
    /// The frame each node has on the air (present iff `transmitting` is).
    in_flight: Vec<Option<Frame<M>>>,
    pub(crate) stats: NetStats,
    next_tx: u64,
    /// The installed trace sink, if any. `None` keeps every emission site
    /// down to a single branch.
    pub(crate) trace: Option<SharedSink>,
    /// The run's lineage intern table: packets carry `Copy` handles into it,
    /// and trace emission resolves them back to wire strings. Empty (and
    /// untouched) on untraced runs.
    pub(crate) lineage: LineageTable,
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
            .field("up", &self.up)
            .field("meters", &self.meters)
            .field("transmitting", &self.transmitting)
            .field("radio", &self.radio)
            .field("stats", &self.stats)
            .field("next_tx", &self.next_tx)
            .field("trace", &self.trace.is_some())
            .field("lineage", &self.lineage)
            .field("metrics", &self.metrics.is_some())
            .field("capture", &self.capture)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + std::fmt::Debug> Phy<M> {
    pub(crate) fn new(topo: Topology, cfg: &NetConfig, capture: bool) -> Self {
        let n = topo.len();
        let now = SimTime::ZERO;
        Phy {
            up: Bits::new_all_set(n),
            meters: (0..n).map(|_| EnergyMeter::new(cfg.energy, now)).collect(),
            transmitting: vec![None; n],
            radio: vec![Radio::default(); n],
            receiving: Bits::new_all_clear(topo.link_count()),
            in_flight: (0..n).map(|_| None).collect(),
            topo,
            stats: NetStats::default(),
            next_tx: 0,
            trace: None,
            lineage: LineageTable::new(),
            metrics: None,
            capture,
        }
    }

    /// The number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.up.len()
    }

    /// Whether node `i` is powered.
    #[inline]
    pub(crate) fn is_up(&self, i: usize) -> bool {
        self.up.get(i)
    }

    /// Sets node `i`'s power state (the failure layer's entry point).
    pub(crate) fn set_up(&mut self, i: usize, value: bool) {
        self.up.set(i, value);
    }

    /// Whether node `i` has a frame on the air.
    #[inline]
    pub(crate) fn is_transmitting(&self, i: usize) -> bool {
        self.transmitting[i].is_some()
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
        cfg: &NetConfig,
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
        // with reading `up` or `transmitting`.
        let Phy {
            topo,
            up,
            meters,
            transmitting,
            radio,
            receiving,
            in_flight,
            stats,
            trace,
            lineage,
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
                    lineage: frame.trace_lineage(lineage),
                },
            );
        }
        debug_assert!(transmitting[i].is_none(), "radio already busy");
        transmitting[i] = Some(tx);
        in_flight[i] = Some(frame);
        // Half-duplex: the reception we were decoding, if any, is lost.
        if radio[i].clean {
            radio[i].clean = false;
            record_collision(stats, trace, t_ns, i as u32);
        }
        update_meter_at(meters, up, transmitting, radio, trace, metrics, i, now);

        let sender = NodeId::from_index(i);
        let links = topo.links(sender);
        for (link, &v) in links.zip(topo.neighbors(sender)) {
            let vi = v.index();
            let r = &mut radio[vi];
            r.busy += 1;
            if capture {
                // Perfect capture: every powered hearer decodes the frame,
                // overlap or not, even while transmitting itself.
                if up.get(vi) {
                    r.rx += 1;
                    receiving.set(link, true);
                }
            } else if up.get(vi) && transmitting[vi].is_none() {
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
            update_meter_at(meters, up, transmitting, radio, trace, metrics, vi, now);
        }
        let duration = cfg.tx_duration(bytes);
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
            up,
            meters,
            transmitting,
            radio,
            receiving,
            in_flight,
            stats,
            trace,
            metrics,
            capture,
            ..
        } = self;
        debug_assert_eq!(transmitting[i], Some(tx), "TxEnd out of order");
        transmitting[i] = None;
        let frame = in_flight[i].take().expect("frame in flight");
        update_meter_at(meters, up, transmitting, radio, trace, metrics, i, now);

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
                    stats.drops[drop_reason_index(DropReason::Collision)] += 1;
                    emit_to(
                        trace,
                        TraceRecord::PacketDrop {
                            t_ns,
                            node: v.0,
                            reason: DropReason::Collision,
                            tx: Some(tx.0),
                        },
                    );
                } else if up.get(vi) {
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
            update_meter_at(meters, up, transmitting, radio, trace, metrics, vi, now);
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
        if self.transmitting[i].is_none() {
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

    /// Recomputes the radio state after any bookkeeping change, debiting the
    /// closed interval to the trace if one is installed.
    pub(crate) fn update_meter(&mut self, i: usize, now: SimTime) {
        let Phy {
            up,
            meters,
            transmitting,
            radio,
            trace,
            metrics,
            ..
        } = self;
        update_meter_at(meters, up, transmitting, radio, trace, metrics, i, now);
    }
}
