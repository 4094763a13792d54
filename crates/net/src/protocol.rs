//! The interface between the network engine and a protocol implementation.
//!
//! Protocols are per-node state machines. They never hold references into the
//! engine; every callback receives a [`Ctx`] through which the protocol can
//! send packets, arm and cancel timers, read the clock, and draw
//! deterministic per-node randomness. This command-pattern split keeps
//! protocols unit-testable (drive them with a scripted `Ctx`-free harness)
//! and keeps the engine free of interior mutability.

use wsn_sim::{EventId, SimDuration, SimRng, SimTime};

use crate::engine::EngineCore;
use crate::node::NodeId;
use crate::packet::Packet;

/// Handle to a pending protocol timer, used for cancellation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerHandle(pub(crate) EventId);

/// A per-node protocol state machine.
///
/// Implementations receive callbacks from the [`Network`](crate::Network)
/// engine:
///
/// * [`on_start`](Protocol::on_start) once at time zero,
/// * [`on_packet`](Protocol::on_packet) for every successfully decoded frame
///   addressed to this node (or broadcast),
/// * [`on_timer`](Protocol::on_timer) when a timer set through the context
///   fires,
/// * [`on_down`](Protocol::on_down) / [`on_up`](Protocol::on_up) around node
///   failures. While a node is down the engine delivers nothing and drops all
///   of its pending timers; protocols typically re-arm from scratch in
///   `on_up`.
pub trait Protocol: Sized {
    /// The message type carried in packets.
    type Msg: Clone + std::fmt::Debug;
    /// The timer label type.
    type Timer: Clone + std::fmt::Debug;

    /// Called once when the simulation starts (time zero).
    fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>);

    /// Called when a frame is received and decoded.
    fn on_packet(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, packet: &Packet<Self::Msg>);

    /// Called when a timer previously set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, timer: Self::Timer);

    /// Called when the node fails. Default: no-op.
    fn on_down(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Called when the node recovers. Default: no-op.
    fn on_up(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
        let _ = ctx;
    }

    /// Called when a unicast frame to `to` was abandoned after the MAC's
    /// retry limit — the 802.11-style link-breakage signal routing layers
    /// use to detect dead next hops. Default: no-op.
    fn on_unicast_failed(
        &mut self,
        ctx: &mut Ctx<'_, Self::Msg, Self::Timer>,
        to: NodeId,
        msg: &Self::Msg,
    ) {
        let _ = (ctx, to, msg);
    }

    /// Number of entries in this protocol's principal cache (whatever that
    /// means for the protocol — directed diffusion reports its exploratory
    /// cache), read by the engine's periodic telemetry snapshots. Default: 0.
    fn cache_size(&self) -> usize {
        0
    }

    /// The lineage ids `msg` carries, as the comma-joined `src#seq` wire
    /// string of the trace's `enq` and payload `tx` records (see
    /// [`wsn_trace::join_lineage`]). The engine asks only on traced runs,
    /// when it writes such a record, so untraced runs never pay for the
    /// encoding. Default: `None` (the payload carries no event).
    fn lineage(msg: &Self::Msg) -> Option<String> {
        let _ = msg;
        None
    }
}

/// The protocol's window into the engine during a callback.
#[derive(Debug)]
pub struct Ctx<'a, M, T> {
    pub(crate) core: &'a mut EngineCore<M, T>,
    pub(crate) node: NodeId,
    /// During a delivery, the sender's position in `node`'s neighbor list.
    sender_index: Option<u32>,
}

impl<'a, M: Clone + std::fmt::Debug, T: Clone + std::fmt::Debug> Ctx<'a, M, T> {
    /// A context for a callback on `node` that is not a delivery.
    pub(crate) fn new(core: &'a mut EngineCore<M, T>, node: NodeId) -> Self {
        Ctx {
            core,
            node,
            sender_index: None,
        }
    }

    /// A context for delivering a frame to `node` from its neighbor at
    /// position `sender_index` of its neighbor list.
    pub(crate) fn delivery(
        core: &'a mut EngineCore<M, T>,
        node: NodeId,
        sender_index: u32,
    ) -> Self {
        Ctx {
            core,
            node,
            sender_index: Some(sender_index),
        }
    }

    /// The node this callback runs on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This node's in-range neighbors, in ascending id order — the
    /// topology's neighbor list, whose positions address per-link state
    /// (see [`Ctx::sender_index`]).
    pub fn neighbors(&self) -> &[NodeId] {
        self.core.phy.topo.neighbors(self.node)
    }

    /// Inside [`Protocol::on_packet`], the position of the packet's sender
    /// in [`Ctx::neighbors`], so per-neighbor state indexed by that
    /// position is one array access: `ctx.neighbors()[i] == packet.from`.
    /// `None` in every other callback.
    pub fn sender_index(&self) -> Option<usize> {
        self.sender_index.map(|i| i as usize)
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// Queues a broadcast frame of `bytes` bytes for transmission.
    ///
    /// The frame goes through CSMA/CA; delivery to each in-range, powered
    /// neighbor happens after the air time unless a collision corrupts it.
    pub fn broadcast(&mut self, bytes: u32, msg: M) {
        let pkt = Packet::broadcast(self.node, bytes, msg);
        self.core.enqueue(self.node, pkt);
    }

    /// Queues a logically unicast frame to `to`.
    ///
    /// Physically still a broadcast: every in-range node pays receive energy,
    /// but only `to`'s protocol sees the packet.
    pub fn unicast(&mut self, to: NodeId, bytes: u32, msg: M) {
        let pkt = Packet::unicast(self.node, to, bytes, msg);
        self.core.enqueue(self.node, pkt);
    }

    /// Arms a timer that fires `delay` from now with the given label.
    pub fn set_timer(&mut self, delay: SimDuration, timer: T) -> TimerHandle {
        self.core.set_timer(self.node, delay, timer)
    }

    /// Cancels a pending timer. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel_timer(&mut self, handle: TimerHandle) -> bool {
        self.core.cancel_timer(self.node, handle)
    }

    /// This node's deterministic protocol RNG stream.
    pub fn rng(&mut self) -> &mut SimRng {
        self.core.protocol_rng(self.node)
    }

    /// A uniformly random jitter in `[0, max)` — the standard trick for
    /// de-synchronizing flood rebroadcasts.
    pub fn jitter(&mut self, max: SimDuration) -> SimDuration {
        if max.is_zero() {
            return SimDuration::ZERO;
        }
        let ns = self.core.protocol_rng(self.node).below(max.as_nanos());
        SimDuration::from_nanos(ns)
    }

    /// Whether a trace sink is installed on this run. Protocols emitting
    /// records with non-trivial assembly cost should gate on this.
    pub fn trace_enabled(&self) -> bool {
        self.core.trace_enabled()
    }

    /// The run's metrics registry, if one is installed — protocols record
    /// against ids they registered before engine construction (see
    /// [`Network::install_metrics`](crate::Network::install_metrics)).
    /// Recording is an array index plus an integer add; the `None` case is
    /// a single branch.
    pub fn metrics(&mut self) -> Option<&mut wsn_metrics::MetricsRegistry> {
        self.core.phy.metrics.as_deref_mut().map(|m| &mut m.reg)
    }

    /// Emits one protocol-level trace record (a no-op without a sink).
    pub fn trace(&mut self, rec: wsn_trace::TraceRecord) {
        self.core.emit(rec);
    }
}
