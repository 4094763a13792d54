//! Observability for [`Network`]: trace installation and teardown, periodic
//! snapshots, and the sampled dispatch profiler.
//!
//! Everything here is observational — none of it can change the event
//! sequence. Traces are byte-deterministic (they record simulated time
//! only); the profiler reads the wall clock and must therefore stay out of
//! byte-stable artifacts (see [`wsn_sim::ProfileSink`]).

use wsn_metrics::{CounterId, MetricsRegistry};
use wsn_sim::{EventId, ProfileEntry, SharedProfile, SimTime};
use wsn_trace::{SharedSink, TraceRecord};

use crate::metrics::MetricsState;
use crate::protocol::Protocol;
use crate::trace::TraceOptions;

use super::events::{Ev, EV_LABELS, PROFILE_SAMPLE};
use super::Network;

/// Raises counter `id` to `total`, a count the engine keeps itself.
fn sync(reg: &mut MetricsRegistry, id: CounterId, total: u64) {
    reg.add(id, total.saturating_sub(reg.counter_value(id)));
}

impl<P: Protocol> Network<P> {
    /// Installs a dispatch profiler: every subsequent event dispatch is
    /// counted exactly, and one in `PROFILE_SAMPLE` is timed (wall
    /// clock), bucketed by event type in `sink` with the sampled time
    /// scaled back up to an estimate of the label's total.
    ///
    /// Profiling is observational only — it cannot change the event
    /// sequence — but its measurements are wall-clock and therefore not
    /// deterministic, so callers must keep profile data out of byte-stable
    /// artifacts (see [`wsn_sim::ProfileSink`]).
    pub fn set_profile(&mut self, sink: SharedProfile) {
        self.profile = Some(sink);
    }

    /// Installs a trace sink: emits the `run_start` header and arms the
    /// periodic per-node snapshot if a cadence is configured.
    ///
    /// Call before the first [`run_until`](Network::run_until) so the trace
    /// covers the whole run. With [`TraceOptions::snapshot_every`] set, the
    /// snapshot events count toward [`Network::events_processed`] (and thus
    /// the event budget) but cannot perturb the simulation outcome — they
    /// read state and re-arm themselves, nothing else.
    pub fn set_trace(&mut self, sink: SharedSink, opts: TraceOptions) {
        self.core.phy.trace = Some(sink);
        self.core.trace_opts = opts;
        self.core.emit(TraceRecord::RunStart {
            seed: self.core.seed,
            nodes: self.core.phy.len() as u32,
        });
        if let Some(every) = opts.snapshot_every {
            // Metrics may already have a snapshot stream in flight; the
            // shared `Ev::Snapshot` re-arms at the trace cadence from its
            // next firing, so no second stream is started.
            if !self.snapshot_armed {
                self.snapshot_armed = true;
                self.core.sim.schedule_after(every, Ev::Snapshot);
            }
        }
    }

    /// Installs an in-sim metrics registry: the engine samples a delta
    /// snapshot at the shared `Ev::Snapshot` cadence (the trace cadence
    /// wins while a traced cadence is armed, so enabling metrics adds no
    /// simulator events to a traced run) and streams it as JSONL to `out`
    /// if given.
    ///
    /// The registry must already hold every layer's registrations —
    /// [`NetMetricIds::register`](crate::NetMetricIds::register) for the
    /// engine's own series, plus any protocol blocks — because the encoder
    /// sizes its baselines here and recording never grows the registry.
    ///
    /// Call before the first [`run_until`](Network::run_until) so totals
    /// cover the whole run.
    pub fn install_metrics(
        &mut self,
        reg: wsn_metrics::MetricsRegistry,
        ids: crate::NetMetricIds,
        opts: crate::MetricsOptions,
        out: Option<Box<dyn std::io::Write>>,
    ) {
        let state = MetricsState::new(reg, ids, opts, out);
        let every = state.every;
        self.core.phy.metrics = Some(Box::new(state));
        if let Some(every) = every {
            if !self.snapshot_armed {
                self.snapshot_armed = true;
                self.core.sim.schedule_after(every, Ev::Snapshot);
            }
        }
    }

    /// Closes out installed metrics: debits every node's partial energy
    /// interval (idempotent alongside [`finish_trace`](Network::finish_trace)
    /// — a redundant same-instant transition debits zero joules), takes a
    /// final delta sample, writes the absolute `mtotal` line, flushes the
    /// sink, and uninstalls the state. Returns the final registry for
    /// in-process inspection (reports, audits); `None` when no metrics were
    /// installed.
    pub fn finish_metrics(&mut self) -> Option<wsn_metrics::MetricsRegistry> {
        self.core.phy.metrics.as_ref()?;
        let now = self.core.sim.now();
        for i in 0..self.core.phy.len() {
            self.core.phy.update_meter(i, now);
        }
        self.metrics_sample(now);
        let mut state = self.core.phy.metrics.take()?;
        state.finish(now.as_nanos());
        Some(std::mem::take(&mut state.reg))
    }

    /// Fills the registry from the engine's own counts and encodes one
    /// metrics delta snapshot to the sink, if one is installed. A no-op
    /// without installed metrics.
    ///
    /// The registry counts none of these events itself: dispatches come
    /// from the simulator, frames, collisions and frame drops from the
    /// PHY's count block, queue depths from the MAC's queues and the event
    /// heap. Nothing reads the registry between samples, and
    /// [`finish_metrics`](Network::finish_metrics) samples before it hands
    /// the registry out.
    pub(super) fn metrics_sample(&mut self, now: SimTime) {
        let core = &mut self.core;
        let Some(m) = core.phy.metrics.as_deref_mut() else {
            return;
        };
        let (reg, ids, stats) = (&mut m.reg, &m.ids, &core.phy.stats);
        let processed = core.sim.events_processed();
        sync(reg, ids.events_dispatched, processed);
        for (&id, n) in ids.frames_tx.iter().zip(stats.frames_tx) {
            sync(reg, id, n);
        }
        sync(reg, ids.collisions, stats.collisions);
        for (&id, n) in ids.drops.iter().zip(stats.drops) {
            sync(reg, id, n);
        }
        let queued = (0..self.protocols.len()).map(|i| core.mac.queue_len(i) as u64);
        reg.set_gauge(ids.queue_depth, queued.sum());
        reg.set_gauge(ids.queue_depth_engine, core.sim.pending() as u64);
        if let Some(b) = self.budget {
            reg.set_gauge(ids.watchdog_headroom, b.saturating_sub(processed));
        }
        m.sample(now.as_nanos());
    }

    /// Closes out an installed trace: debits every node's partial energy
    /// interval (so the per-node debit sums equal the meter totals exactly),
    /// takes a final snapshot of every node, writes the `run_end` record,
    /// flushes the sink, and uninstalls it. A no-op without a sink.
    ///
    /// # Errors
    ///
    /// Propagates the sink's flush error (e.g. a full disk under a
    /// [`wsn_trace::JsonlSink`]).
    pub fn finish_trace(&mut self) -> std::io::Result<()> {
        let Some(sink) = self.core.phy.trace.clone() else {
            return Ok(());
        };
        let now = self.core.sim.now();
        for i in 0..self.core.phy.len() {
            // A redundant transition closes the partially elapsed interval.
            self.core.phy.update_meter(i, now);
        }
        self.snapshot_all(now);
        self.core.emit(TraceRecord::RunEnd {
            t_ns: now.as_nanos(),
            events: self.core.sim.events_processed(),
            total_energy_j: self.total_energy(),
        });
        self.core.phy.trace = None;
        let flushed = sink.borrow_mut().flush();
        flushed
    }

    /// Emits one snapshot record per node (energy, MAC queue depth, protocol
    /// cache size).
    pub(super) fn snapshot_all(&mut self, now: SimTime) {
        if !self.core.trace_enabled() {
            return;
        }
        let t_ns = now.as_nanos();
        for i in 0..self.protocols.len() {
            let cache = self.protocols[i].cache_size() as u32;
            self.core.emit(TraceRecord::Snapshot {
                t_ns,
                node: i as u32,
                energy_j: self.core.phy.meter(i).dissipated_at(now),
                queue: self.core.mac.queue_len(i) as u32,
                cache,
            });
        }
    }

    pub(super) fn dispatch(&mut self, id: EventId, ev: Ev<P::Timer>) {
        // `engine.events_dispatched` is NOT bumped here: the simulator
        // already counts dispatches, so the counter is synced from
        // `events_processed()` at each snapshot (`metrics_sample`) instead
        // of paying a branch + pointer chase on every event. The PHY's
        // frame counts reach the registry the same way.
        // One branch and zero clock reads when profiling is off. When it is
        // on, every dispatch pays one array add for its exact per-label
        // count, but only one in PROFILE_SAMPLE opens a wall-clock span.
        // The span closes at the start of the following dispatch (or at
        // run-loop exit, see `profile_close`), so scheduler pop time
        // between the pair is attributed to the sampled event, and the
        // steady-state cost is two `Instant` reads per PROFILE_SAMPLE
        // dispatches.
        if self.profile.is_some() {
            let ix = ev.label_ix();
            self.profile_cells[ix].count += 1;
            if let Some((prev, t0)) = self.profile_pending.take() {
                let ns = t0.elapsed().as_nanos() as u64;
                // The profiler's sampled spans double as the
                // `engine.dispatch_ns` histogram — populated only while
                // profiling is armed, so unprofiled metrics stay
                // byte-stable (span times are wall-clock).
                if let Some(m) = self.core.phy.metrics.as_deref_mut() {
                    m.reg.observe(m.ids.dispatch_ns, ns);
                }
                self.profile_sampled[prev] += 1;
                let e = &mut self.profile_cells[prev];
                e.total_ns += ns;
                e.max_ns = e.max_ns.max(ns);
            }
            self.profile_tick = self.profile_tick.wrapping_add(1);
            if self.profile_tick % PROFILE_SAMPLE == 1 {
                self.profile_pending = Some((ix, std::time::Instant::now()));
            }
        }
        self.dispatch_inner(id, ev);
    }

    /// Closes any still-open sampled span and merges the hot-path
    /// accumulator into the shared sink, scaling each label's sampled span
    /// time up by its exact/sampled dispatch-count ratio. Called at every
    /// run-loop exit so each `run_until` call leaves the shared profile
    /// complete. A label dispatched only a handful of times may have no
    /// clocked span at all; it merges with its exact count and zero time
    /// (below the sampler's resolution).
    pub(super) fn profile_close(&mut self) {
        if let Some((ix, t0)) = self.profile_pending.take() {
            let ns = t0.elapsed().as_nanos() as u64;
            if let Some(m) = self.core.phy.metrics.as_deref_mut() {
                m.reg.observe(m.ids.dispatch_ns, ns);
            }
            self.profile_sampled[ix] += 1;
            let e = &mut self.profile_cells[ix];
            e.total_ns += ns;
            e.max_ns = e.max_ns.max(ns);
        }
        if let Some(profile) = &self.profile {
            let mut sink = profile.borrow_mut();
            for (ix, e) in self.profile_cells.iter().enumerate() {
                if e.count > 0 {
                    let mut scaled = *e;
                    let sampled = self.profile_sampled[ix];
                    if sampled > 0 {
                        scaled.total_ns = ((u128::from(e.total_ns) * u128::from(e.count))
                            / u128::from(sampled)) as u64;
                    }
                    sink.merge(EV_LABELS[ix], scaled);
                }
            }
            self.profile_cells = [ProfileEntry::default(); EV_LABELS.len()];
            self.profile_sampled = [0; EV_LABELS.len()];
        }
    }
}
