//! The engine: a thin event dispatcher over the layered network stack.
//!
//! The substrate is split into layers, each in its own module:
//!
//! * [`phy`](crate::phy) — propagation, medium sensing, receiver-side
//!   collisions, and the energy meters ([`Phy`](crate::phy::Phy));
//! * [`mac`](crate::mac) — medium access behind the
//!   [`Mac`](crate::mac::Mac) trait: [`CsmaCa`](crate::mac::CsmaCa) (the
//!   802.11-style default, selected by [`MacKind`](crate::mac::MacKind)) or
//!   [`IdealMac`](crate::mac::IdealMac) (the contention-free lower bound);
//! * [`failures`](crate::failures) — scheduled node down/up semantics;
//! * protocols — per-node state machines behind the
//!   [`Protocol`](crate::Protocol) trait, driven through [`Ctx`].
//!
//! The engine module itself is split the same way: [`events`] defines the
//! event vocabulary ([`Ev`]) and the watchdog error, [`state`] holds
//! [`EngineCore`] (everything the engine owns except the protocols), and
//! [`observe`] carries the trace/snapshot/profiler plumbing. What remains
//! here is [`Network`] — the protocol instances (a split borrow: protocol
//! callbacks take `&mut EngineCore` while the engine holds `&mut P`), the
//! run loop with its event-budget watchdog, and `dispatch_inner`, the
//! routing table from each event to the layer that handles it.

mod events;
mod observe;
mod state;

pub(crate) use events::Ev;
pub use events::EventBudgetExceeded;
pub use state::EngineCore;

use wsn_sim::{EventId, ProfileEntry, RunAccounting, SharedProfile, SimTime};

use events::EV_LABELS;

use crate::mac::Mac;
use crate::node::NodeId;
use crate::protocol::{Ctx, Protocol};
use crate::topology::Topology;

/// A simulated wireless sensor network running protocol `P` on every node.
///
/// # Examples
///
/// A two-node network where node 0 floods a greeting once:
///
/// ```
/// use wsn_net::{Ctx, NetConfig, Network, NodeId, Packet, Position, Protocol, Topology};
/// use wsn_sim::{SimDuration, SimTime};
///
/// struct Hello {
///     is_origin: bool,
///     heard: usize,
/// }
///
/// impl Protocol for Hello {
///     type Msg = &'static str;
///     type Timer = ();
///
///     fn on_start(&mut self, ctx: &mut Ctx<'_, Self::Msg, Self::Timer>) {
///         if self.is_origin {
///             ctx.broadcast(36, "hello");
///         }
///     }
///     fn on_packet(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, p: &Packet<Self::Msg>) {
///         assert_eq!(p.payload, "hello");
///         self.heard += 1;
///     }
///     fn on_timer(&mut self, _ctx: &mut Ctx<'_, Self::Msg, Self::Timer>, _t: ()) {}
/// }
///
/// let topo = Topology::new(vec![Position::new(0.0, 0.0), Position::new(10.0, 0.0)], 40.0);
/// let mut net = Network::new(topo, NetConfig::default(), 42, |id| Hello {
///     is_origin: id == NodeId(0),
///     heard: 0,
/// });
/// net.run_until(SimTime::from_secs(1));
/// assert_eq!(net.protocol(NodeId(1)).heard, 1);
/// ```
#[derive(Debug)]
pub struct Network<P: Protocol> {
    core: EngineCore<P::Msg, P::Timer>,
    protocols: Vec<P>,
    started: bool,
    /// The installed dispatch profiler, if any. `None` keeps the dispatch
    /// loop free of `Instant` reads.
    profile: Option<SharedProfile>,
    /// The label index and start instant of the currently open *sampled*
    /// span (one dispatch in `PROFILE_SAMPLE` opens one) — closed by the
    /// next dispatch or by `profile_close` at run-loop exit.
    profile_pending: Option<(usize, std::time::Instant)>,
    /// Dispatches seen while profiling, for the sampling decision.
    profile_tick: u32,
    /// Hot-path profile accumulator, indexed by `Ev::label_ix`: exact
    /// counts and sampled span times land here with one array index, no
    /// shared-handle traffic, and `profile_close` drains it (scaling the
    /// sampled times) into `profile` at every run-loop exit.
    profile_cells: [ProfileEntry; EV_LABELS.len()],
    /// How many of each cell's spans were actually clocked — the
    /// scale-back-up denominator at merge time.
    profile_sampled: [u64; EV_LABELS.len()],
    /// The recycled [`TxOutcome`](crate::phy::TxOutcome) every `TxEnd`
    /// dispatch fills and drains — its vectors keep their high-water
    /// capacity, so steady-state transmissions allocate nothing.
    outcome_scratch: crate::phy::TxOutcome<P::Msg>,
    /// The run's event budget (from the last `run_until_capped`), for the
    /// `engine.watchdog_headroom` gauge. `None` for uncapped runs.
    budget: Option<u64>,
    /// Whether an `Ev::Snapshot` is currently in flight. The trace and
    /// metrics layers share one snapshot event stream (the trace cadence
    /// wins while a traced cadence is armed), and this guard keeps a second
    /// installer from arming a duplicate stream.
    snapshot_armed: bool,
}

impl<P: Protocol> Network<P> {
    /// Builds a network over `topo`, constructing one protocol instance per
    /// node with `make`. Protocols' `on_start` runs at the first
    /// [`run_until`](Network::run_until) call, at time zero.
    pub fn new(
        topo: Topology,
        cfg: crate::config::NetConfig,
        seed: u64,
        mut make: impl FnMut(NodeId) -> P,
    ) -> Self {
        let n = topo.len();
        let core = EngineCore::new(topo, cfg.mac, seed, P::lineage);
        let protocols = (0..n).map(|i| make(NodeId::from_index(i))).collect();
        Network {
            core,
            protocols,
            started: false,
            profile: None,
            profile_pending: None,
            profile_tick: 0,
            profile_cells: [ProfileEntry::default(); EV_LABELS.len()],
            profile_sampled: [0; EV_LABELS.len()],
            outcome_scratch: crate::phy::TxOutcome::default(),
            budget: None,
            snapshot_armed: false,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now()
    }

    /// The network topology.
    pub fn topology(&self) -> &Topology {
        &self.core.phy.topo
    }

    /// The run's count block so far: frames by kind, payload bytes,
    /// collisions, retries and frame drops by reason.
    pub fn stats(&self) -> &crate::NetStats {
        &self.core.phy.stats
    }

    /// Energy dissipated by `node` up to the current time, joules.
    pub fn energy(&self, node: NodeId) -> f64 {
        self.core
            .phy
            .meter(node.index())
            .dissipated_at(self.core.now())
    }

    /// Communication (transmit + receive) energy dissipated by `node`,
    /// joules.
    pub fn activity_energy(&self, node: NodeId) -> f64 {
        self.core
            .phy
            .meter(node.index())
            .activity_at(self.core.now())
    }

    /// Total energy dissipated by all nodes, joules.
    pub fn total_energy(&self) -> f64 {
        let now = self.core.now();
        self.core
            .phy
            .meters()
            .iter()
            .map(|m| m.dissipated_at(now))
            .sum()
    }

    /// Total communication (transmit + receive) energy across all nodes,
    /// joules — excludes the scheme-independent idle floor.
    pub fn total_activity_energy(&self) -> f64 {
        let now = self.core.now();
        self.core
            .phy
            .meters()
            .iter()
            .map(|m| m.activity_at(now))
            .sum()
    }

    /// Whether `node` is currently powered.
    pub fn is_up(&self, node: NodeId) -> bool {
        self.core.phy.is_up(node.index())
    }

    /// Read access to a node's protocol instance.
    pub fn protocol(&self, node: NodeId) -> &P {
        &self.protocols[node.index()]
    }

    /// Iterates over all `(node, protocol)` pairs.
    pub fn protocols(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.protocols
            .iter()
            .enumerate()
            .map(|(i, p)| (NodeId::from_index(i), p))
    }

    /// Schedules `node` to fail at time `at`. Idempotent if already down.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_down(&mut self, at: SimTime, node: NodeId) {
        self.core
            .sim
            .schedule_at(at, Ev::NodeDown { node })
            .expect("schedule_down in the past");
    }

    /// Schedules `node` to recover at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn schedule_up(&mut self, at: SimTime, node: NodeId) {
        self.core
            .sim
            .schedule_at(at, Ev::NodeUp { node })
            .expect("schedule_up in the past");
    }

    /// Runs the simulation until simulated time `deadline`.
    ///
    /// Events scheduled exactly at the deadline fire; the clock ends at
    /// `deadline` even if the event queue drains early.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.run_until_capped(deadline, u64::MAX)
            .expect("u64::MAX event budget cannot be exhausted");
    }

    /// Like [`run_until`](Network::run_until), but dispatches at most
    /// `max_events` events over the network's lifetime (the budget counts
    /// cumulatively across calls).
    ///
    /// # Errors
    ///
    /// Returns [`EventBudgetExceeded`] when the budget runs out while events
    /// are still pending at or before `deadline`; the network is left at the
    /// simulated time it reached. If the budget runs out after the pending
    /// work drains, the clock still advances to `deadline` and the run
    /// succeeds.
    pub fn run_until_capped(
        &mut self,
        deadline: SimTime,
        max_events: u64,
    ) -> Result<(), EventBudgetExceeded> {
        self.budget = (max_events != u64::MAX).then_some(max_events);
        if !self.started {
            self.started = true;
            for i in 0..self.protocols.len() {
                let node = NodeId::from_index(i);
                let mut ctx = Ctx::new(&mut self.core, node);
                self.protocols[i].on_start(&mut ctx);
            }
        }
        let result = self.run_loop(deadline, max_events);
        self.profile_close();
        #[cfg(debug_assertions)]
        self.core.phy.check_bookkeeping();
        result
    }

    fn run_loop(&mut self, deadline: SimTime, max_events: u64) -> Result<(), EventBudgetExceeded> {
        loop {
            if self.core.sim.events_processed() >= max_events {
                match self.core.sim.peek_time() {
                    Some(t) if t <= deadline => {
                        return Err(EventBudgetExceeded {
                            budget: max_events,
                            events_processed: self.core.sim.events_processed(),
                            sim_time: self.core.sim.now(),
                            deadline,
                        });
                    }
                    _ => {
                        // Queue drained (for this horizon): advance the clock.
                        let drained = self.core.sim.step_until(deadline);
                        debug_assert!(drained.is_none());
                        return Ok(());
                    }
                }
            }
            let Some((id, ev)) = self.core.sim.step_until(deadline) else {
                return Ok(());
            };
            self.dispatch(id, ev);
        }
    }

    /// Events dispatched by the underlying simulator so far.
    pub fn events_processed(&self) -> u64 {
        self.core.sim.events_processed()
    }

    /// Run accounting so far: events dispatched, clock, backlog.
    pub fn accounting(&self) -> RunAccounting {
        self.core.accounting()
    }

    /// Routes one event to the layer that handles it, then dispatches any
    /// resulting protocol callbacks.
    fn dispatch_inner(&mut self, id: EventId, ev: Ev<P::Timer>) {
        match ev {
            Ev::BackoffDone { node } => {
                let (mac, mut ctx) = self.core.mac_split();
                mac.on_backoff_done(&mut ctx, node.index());
            }
            Ev::TxEnd { node, tx } => {
                let i = node.index();
                let now = self.core.sim.now();
                // Recycle the scratch outcome: take it out of `self` for the
                // duration of the dispatch (protocol callbacks borrow all of
                // `self.core`), put it back — with its capacity — at the end.
                let mut outcome = std::mem::take(&mut self.outcome_scratch);
                self.core.phy.finish_frame(now, i, tx, &mut outcome);
                {
                    let (mac, mut ctx) = self.core.mac_split();
                    mac.on_tx_end(&mut ctx, i, tx, &outcome);
                }
                if let Some(packet) = outcome.packet.take() {
                    for &(v, sender_index) in &outcome.deliveries {
                        let mut ctx = Ctx::delivery(&mut self.core, v, sender_index);
                        self.protocols[v.index()].on_packet(&mut ctx, &packet);
                    }
                }
                self.outcome_scratch = outcome;
            }
            Ev::AckDue { node, acked, to } => {
                let (mac, mut ctx) = self.core.mac_split();
                mac.on_ack_due(&mut ctx, node.index(), acked, to);
            }
            Ev::CtsDue { node, to } => {
                let (mac, mut ctx) = self.core.mac_split();
                mac.on_cts_due(&mut ctx, node.index(), to);
            }
            Ev::DataDue { node } => {
                let failed = {
                    let (mac, mut ctx) = self.core.mac_split();
                    mac.on_data_due(&mut ctx, node.index())
                };
                if let Some(packet) = failed {
                    let to = packet.dst.expect("only unicasts use the handshake");
                    let mut ctx = Ctx::new(&mut self.core, node);
                    self.protocols[node.index()].on_unicast_failed(&mut ctx, to, &packet.payload);
                }
            }
            Ev::AckTimeout { node, tx } => {
                let failed = {
                    let (mac, mut ctx) = self.core.mac_split();
                    mac.on_ack_timeout(&mut ctx, node.index(), tx)
                };
                if let Some(packet) = failed {
                    let to = packet.dst.expect("only unicasts await ACKs");
                    let mut ctx = Ctx::new(&mut self.core, node);
                    self.protocols[node.index()].on_unicast_failed(&mut ctx, to, &packet.payload);
                }
            }
            Ev::Timer { node, timer } => {
                if self.core.take_timer(node, id) {
                    let mut ctx = Ctx::new(&mut self.core, node);
                    self.protocols[node.index()].on_timer(&mut ctx, timer);
                }
            }
            Ev::NodeDown { node } => {
                if self.core.apply_down(node.index()) {
                    let mut ctx = Ctx::new(&mut self.core, node);
                    self.protocols[node.index()].on_down(&mut ctx);
                }
            }
            Ev::NodeUp { node } => {
                if self.core.apply_up(node.index()) {
                    let mut ctx = Ctx::new(&mut self.core, node);
                    self.protocols[node.index()].on_up(&mut ctx);
                }
            }
            Ev::Snapshot => {
                let now = self.core.sim.now();
                // Trace and metrics share one snapshot stream. Per-node
                // trace records fire only when the *trace* asked for a
                // cadence — a metrics-armed firing must not add records to
                // the trace (metrics-on runs stay byte-identical).
                let trace_cadence =
                    self.core.trace_enabled() && self.core.trace_opts.snapshot_every.is_some();
                if trace_cadence {
                    self.snapshot_all(now);
                }
                self.metrics_sample(now);
                // Re-arm while either consumer is still installed (the
                // trace cadence wins while armed); finish_trace /
                // finish_metrics let any residual event drain as a no-op.
                let next = if trace_cadence {
                    self.core.trace_opts.snapshot_every
                } else {
                    self.core.phy.metrics.as_ref().and_then(|m| m.every)
                };
                match next {
                    Some(every) => {
                        self.core.sim.schedule_after(every, Ev::Snapshot);
                    }
                    None => self.snapshot_armed = false,
                }
            }
        }
    }
}
