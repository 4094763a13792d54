//! [`EngineCore`]: the engine's owned state, minus the protocol instances.
//!
//! Everything below the protocol layer lives here — the simulator, the
//! [`Phy`], the installed MAC, the per-node protocol RNGs and live timer
//! sets — together with the small operations the dispatcher and the
//! protocol [`Ctx`](crate::Ctx) window need: timer arm/cancel/consume,
//! MAC enqueue, and the [`mac_split`](EngineCore::mac_split) split borrow
//! that hands the MAC a [`MacCtx`] over the other layers.

use wsn_sim::{EventId, RunAccounting, SimDuration, SimRng, SimTime, Simulator};
use wsn_trace::{DropReason, TraceRecord};

use crate::mac::{Mac, MacCtx, MacImpl, MacKind};
use crate::node::NodeId;
use crate::packet::Packet;
use crate::phy::Phy;
use crate::protocol::TimerHandle;
use crate::topology::Topology;
use crate::trace::TraceOptions;

use super::events::Ev;

/// RNG stream label (see [`SimRng::from_seed_stream`]).
const STREAM_PROTO: u64 = 0x0050_524F_544F;

/// Everything the engine owns except the protocol instances: the simulator,
/// the `Phy`, the installed MAC, the protocol RNGs and timers.
///
/// Splitting the protocols (`Vec<P>`) from this core is what lets a protocol
/// callback receive `&mut EngineCore` (via [`Ctx`](crate::Ctx)) while the
/// engine holds `&mut P` — a plain split borrow, no `RefCell`. The same
/// pattern repeats one layer down: MAC callbacks take `&mut self` alongside
/// a `MacCtx` split-borrowed from the core's other fields.
pub struct EngineCore<M, T> {
    pub(crate) sim: Simulator<Ev<T>>,
    pub(crate) phy: Phy<M>,
    pub(super) mac: MacImpl<M>,
    proto_rngs: Vec<SimRng>,
    /// Live protocol-timer event ids per node, dropped wholesale when the
    /// node fails. A plain vector (arm pushes, cancel/fire swap-removes):
    /// per-node timer counts are small, so a linear scan beats hashing on
    /// the dispatch hot path — and the slab queue's generation stamps
    /// already make stale ids inert.
    pub(crate) timers: Vec<Vec<EventId>>,
    /// The seed the run was built from (reported in the trace header).
    pub(super) seed: u64,
    pub(super) trace_opts: TraceOptions,
}

impl<M: std::fmt::Debug, T: std::fmt::Debug> std::fmt::Debug for EngineCore<M, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineCore")
            .field("sim", &self.sim)
            .field("phy", &self.phy)
            .field("mac", &self.mac)
            .field("seed", &self.seed)
            .field("trace_opts", &self.trace_opts)
            .finish_non_exhaustive()
    }
}

impl<M: Clone + std::fmt::Debug, T: Clone + std::fmt::Debug> EngineCore<M, T> {
    pub(super) fn new(
        topo: Topology,
        mac: MacKind,
        seed: u64,
        lineage_of: fn(&M) -> Option<String>,
    ) -> Self {
        let n = topo.len();
        let phy = Phy::new(topo, mac == MacKind::Ideal, lineage_of);
        let mac = MacImpl::new(mac, n, seed);
        let proto_rngs = (0..n)
            .map(|i| SimRng::derive(seed, STREAM_PROTO, i as u64))
            .collect();
        EngineCore {
            sim: Simulator::new(),
            phy,
            mac,
            proto_rngs,
            timers: vec![Vec::new(); n],
            seed,
            trace_opts: TraceOptions::default(),
        }
    }

    pub(crate) fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Whether a trace sink is installed (callers gate expensive record
    /// assembly on this).
    pub(crate) fn trace_enabled(&self) -> bool {
        self.phy.trace_enabled()
    }

    /// Emits one trace record if a sink is installed.
    pub(crate) fn emit(&self, rec: TraceRecord) {
        self.phy.emit(rec);
    }

    /// Run accounting so far: events dispatched, clock, backlog.
    pub fn accounting(&self) -> RunAccounting {
        self.sim.accounting()
    }

    pub(crate) fn protocol_rng(&mut self, node: NodeId) -> &mut SimRng {
        &mut self.proto_rngs[node.index()]
    }

    pub(crate) fn set_timer(&mut self, node: NodeId, delay: SimDuration, timer: T) -> TimerHandle {
        let id = self.sim.schedule_after(delay, Ev::Timer { node, timer });
        self.timers[node.index()].push(id);
        TimerHandle(id)
    }

    /// Removes `id` from `node`'s live-timer set, returning whether it was
    /// present.
    fn untrack_timer(&mut self, node: NodeId, id: EventId) -> bool {
        let set = &mut self.timers[node.index()];
        match set.iter().position(|&t| t == id) {
            Some(pos) => {
                set.swap_remove(pos);
                true
            }
            None => false,
        }
    }

    pub(crate) fn cancel_timer(&mut self, node: NodeId, handle: TimerHandle) -> bool {
        self.untrack_timer(node, handle.0) && self.sim.cancel(handle.0)
    }

    /// Splits the core into the installed MAC and the [`MacCtx`] window it
    /// drives the other layers through.
    pub(crate) fn mac_split(&mut self) -> (&mut MacImpl<M>, MacCtx<'_, M, T>) {
        let EngineCore { sim, phy, mac, .. } = self;
        (mac, MacCtx { sim, phy })
    }

    /// Queues a frame at `node`'s MAC.
    pub(crate) fn enqueue(&mut self, node: NodeId, packet: Packet<M>) {
        let i = node.index();
        if !self.phy.is_up(i) {
            self.phy.stats.drops[DropReason::NodeDown.index()] += 1;
            self.emit(TraceRecord::PacketDrop {
                t_ns: self.sim.now().as_nanos(),
                node: node.0,
                reason: DropReason::NodeDown,
                tx: None,
            });
            return;
        }
        if self.trace_enabled() {
            self.emit(TraceRecord::MacEnqueue {
                t_ns: self.sim.now().as_nanos(),
                node: node.0,
                bytes: packet.bytes,
                dst: packet.dst.map(|d| d.0),
                lineage: (self.phy.lineage_of)(&packet.payload),
            });
        }
        let (mac, mut ctx) = self.mac_split();
        mac.enqueue(&mut ctx, i, packet);
    }

    /// Removes a fired timer from the node's live set; `false` means the
    /// timer belongs to a node that failed since it was armed (drop it).
    pub(super) fn take_timer(&mut self, node: NodeId, id: EventId) -> bool {
        self.untrack_timer(node, id) && self.phy.is_up(node.index())
    }
}
