//! Engine-side metrics wiring: the fixed-slot registry ids every layer
//! records against, the snapshot state, and the options block.
//!
//! The registry itself lives in `wsn-metrics` (std-only, float-free); this
//! module owns the *engine's* metric set — [`NetMetricIds`] registers every
//! PHY/MAC/engine series once, at construction, so recording anywhere in
//! the hot path is an array index plus an integer add.
//!
//! A series whose count the engine keeps anyway is sampled from that count
//! at each snapshot and at close-out, not recorded per event:
//! `engine.events_dispatched` from the simulator, `phy.frames_tx{kind}`,
//! `phy.collisions` and `phy.drops{reason}` from the PHY's count block
//! ([`NetStats`](crate::NetStats)), and `engine.queue_depth` and
//! `mac.queue_depth{mac}` from the event heap and the MAC queues. The other
//! series are recorded where they happen, beside the matching
//! trace-emission site and not gated on a trace sink. Either way, the
//! `metrics_audit` test reconciles registry totals against trace-derived
//! totals with zero tolerance.
//!
//! [`MetricsState`] is boxed behind an `Option` on the PHY (one pointer in
//! the struct, one branch per emission site when disabled), joining the
//! split-borrow destructuring of the broadcast loops the same way the trace
//! sink does. See DESIGN.md §16.

use std::io::Write;

use wsn_metrics::{CounterId, GaugeId, HistId, MetricsRegistry, SnapshotEncoder};
use wsn_sim::SimDuration;
use wsn_trace::{DropReason, ENERGY_STATES, FRAME_KINDS};

use crate::mac::MacKind;

/// What the engine records when metrics are installed.
///
/// # Examples
///
/// ```
/// use wsn_net::MetricsOptions;
/// use wsn_sim::SimDuration;
///
/// let opts = MetricsOptions::default();
/// assert_eq!(opts.snapshot_every, Some(SimDuration::from_secs(10)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsOptions {
    /// Cadence of time-series delta snapshots. When a trace sink with its
    /// own snapshot cadence is installed, the trace cadence wins and metrics
    /// deltas ride the same `Ev::Snapshot` firings — so enabling metrics
    /// adds no simulator events to a traced run. `None` records totals only.
    pub snapshot_every: Option<SimDuration>,
}

impl Default for MetricsOptions {
    fn default() -> Self {
        MetricsOptions {
            snapshot_every: Some(SimDuration::from_secs(10)),
        }
    }
}

/// Dense ids for every PHY/MAC/engine metric, registered once per run.
///
/// Registration order is export order (JSONL header, `mtotal` line), so
/// the layout here is the wire layout: `phy.*`, then `mac.*`, then
/// `engine.*`. Protocol layers (diffusion) register their own block after
/// this one, before the registry is installed.
#[derive(Debug, Clone, Copy)]
pub struct NetMetricIds {
    /// `phy.frames_tx{kind=..}` — indexed by [`Frame::kind_index`]
    /// (data, ack, rts, cts); sampled from the count block.
    pub(crate) frames_tx: [CounterId; 4],
    /// `phy.frames_rx` — payload frames decoded and passed the logical
    /// destination filter (one per `PacketRx` trace record).
    pub(crate) frames_rx: CounterId,
    /// `phy.collisions` — one per `Collision` trace record (a collision at
    /// k hearers counts k times, plus one for the incoming frame); sampled
    /// from the count block.
    pub(crate) collisions: CounterId,
    /// `phy.busy_samples` — MAC carrier-sense polls that found the medium
    /// busy.
    pub(crate) busy_samples: CounterId,
    /// `phy.drops{reason=..}` — indexed by [`DropReason::index`]; sampled
    /// from the count block.
    pub(crate) drops: [CounterId; 6],
    /// `phy.energy_nj{state=..}` — integer nanojoules debited per radio
    /// state, indexed like the meter's buckets (off, idle, rx, tx).
    pub(crate) energy_nj: [CounterId; 4],
    /// `mac.backoff_draws` — contention-window draws.
    pub(crate) backoff_draws: CounterId,
    /// `mac.contention_stalls` — backoff expiries that found the medium
    /// busy and had to re-contend.
    pub(crate) contention_stalls: CounterId,
    /// `mac.retry_hist` — retries consumed per unicast attempt, observed at
    /// ACK success and at retry-limit abandonment.
    pub(crate) retry_hist: HistId,
    /// `mac.queue_depth{mac=..}` — frames queued across all nodes, sampled
    /// from the MAC queues.
    pub(crate) queue_depth: GaugeId,
    /// `engine.events_dispatched` — kernel dispatches.
    pub(crate) events_dispatched: CounterId,
    /// `engine.queue_depth` — pending simulator events, sampled at
    /// snapshots.
    pub(crate) queue_depth_engine: GaugeId,
    /// `engine.dispatch_ns` — per-dispatch wall nanoseconds, populated only
    /// while the profiler is armed (keeps unprofiled runs byte-stable).
    pub(crate) dispatch_ns: HistId,
    /// `engine.watchdog_headroom` — events left before the budget watchdog
    /// trips, sampled at snapshots.
    pub(crate) watchdog_headroom: GaugeId,
}

impl NetMetricIds {
    /// Registers the full PHY/MAC/engine metric set on `reg`. `mac` labels
    /// the queue-depth gauge with the run's MAC kind.
    pub fn register(reg: &mut MetricsRegistry, mac: MacKind) -> NetMetricIds {
        let frames_tx =
            FRAME_KINDS.map(|kind| reg.counter(&format!("phy.frames_tx{{kind={kind}}}")));
        let frames_rx = reg.counter("phy.frames_rx");
        let collisions = reg.counter("phy.collisions");
        let busy_samples = reg.counter("phy.busy_samples");
        let drops =
            DropReason::ALL.map(|r| reg.counter(&format!("phy.drops{{reason={}}}", r.name())));
        let energy_nj =
            ENERGY_STATES.map(|state| reg.counter(&format!("phy.energy_nj{{state={state}}}")));
        NetMetricIds {
            frames_tx,
            frames_rx,
            collisions,
            busy_samples,
            drops,
            energy_nj,
            backoff_draws: reg.counter("mac.backoff_draws"),
            contention_stalls: reg.counter("mac.contention_stalls"),
            retry_hist: reg.histogram("mac.retry_hist"),
            queue_depth: reg.gauge(&format!("mac.queue_depth{{mac={}}}", mac.name())),
            events_dispatched: reg.counter("engine.events_dispatched"),
            queue_depth_engine: reg.gauge("engine.queue_depth"),
            dispatch_ns: reg.histogram("engine.dispatch_ns"),
            watchdog_headroom: reg.gauge("engine.watchdog_headroom"),
        }
    }
}

/// Everything metrics-related the engine owns: the live registry, the layer
/// ids, the delta encoder, and the (optional) JSONL sink.
///
/// Boxed behind `Option` on the PHY so the disabled case costs one pointer
/// and one branch. The `line` scratch is reused across snapshots — after it
/// reaches its high-water capacity, sampling allocates nothing.
pub(crate) struct MetricsState {
    pub(crate) reg: MetricsRegistry,
    pub(crate) ids: NetMetricIds,
    enc: SnapshotEncoder,
    line: String,
    out: Option<Box<dyn Write>>,
    /// Metrics' own snapshot cadence (the trace cadence wins when armed).
    pub(crate) every: Option<SimDuration>,
}

impl std::fmt::Debug for MetricsState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsState")
            .field("metrics", &self.reg.descs().len())
            .field("out", &self.out.is_some())
            .field("every", &self.every)
            .finish_non_exhaustive()
    }
}

impl MetricsState {
    /// Builds the state around a fully registered registry and writes the
    /// `mreg` header if a sink is given.
    pub(crate) fn new(
        reg: MetricsRegistry,
        ids: NetMetricIds,
        opts: MetricsOptions,
        mut out: Option<Box<dyn Write>>,
    ) -> Self {
        let enc = SnapshotEncoder::new(&reg);
        let mut line = String::new();
        if let Some(sink) = out.as_mut() {
            SnapshotEncoder::write_header(&reg, &mut line);
            let _ = sink.write_all(line.as_bytes());
        }
        MetricsState {
            enc,
            line,
            out,
            reg,
            ids,
            every: opts.snapshot_every,
        }
    }

    /// Encodes one delta snapshot to the sink; a no-op without one.
    /// Steady-state allocation-free once the scratch line hits its
    /// high-water capacity.
    pub(crate) fn sample(&mut self, t_ns: u64) {
        if let Some(out) = &mut self.out {
            self.line.clear();
            self.enc.encode_delta(&self.reg, t_ns, &mut self.line);
            let _ = out.write_all(self.line.as_bytes());
        }
    }

    /// Writes the absolute `mtotal` line and flushes the sink.
    pub(crate) fn finish(&mut self, t_ns: u64) {
        if let Some(out) = &mut self.out {
            self.line.clear();
            SnapshotEncoder::write_totals(&self.reg, t_ns, &mut self.line);
            let _ = out.write_all(self.line.as_bytes());
            let _ = out.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_stable_and_labeled() {
        let mut reg = MetricsRegistry::new();
        let ids = NetMetricIds::register(&mut reg, MacKind::RtsCts);
        assert!(reg.find("phy.frames_tx{kind=data}").is_some());
        assert!(reg.find("phy.drops{reason=retry_limit}").is_some());
        assert!(reg.find("mac.queue_depth{mac=rtscts}").is_some());
        assert!(reg.find("engine.dispatch_ns").is_some());
        reg.inc(ids.frames_tx[0]);
        reg.inc(ids.collisions);
        assert_eq!(reg.counter_by_name("phy.frames_tx{kind=data}"), Some(1));
    }
}
