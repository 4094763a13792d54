//! Fixed-slot metrics registry: counters, gauges, and log2 histograms.
//!
//! All metrics are registered once, at engine construction, and the
//! registry never grows afterwards — recording is an array index plus an
//! integer add, with no hashing, no floats, and no allocation, so it is
//! safe inside the zero-allocation dispatch loop. Metric names follow the
//! `layer.name{label=value}` convention (`phy.frames_tx{kind=data}`); the
//! JSONL export iterates metrics in registration order, which makes it
//! byte-stable across identical runs.

use crate::hist::Log2Histogram;

/// What a registered metric is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// Monotonically increasing `u64`.
    Counter,
    /// A point-in-time `u64` level (queue depth, headroom).
    Gauge,
    /// A [`Log2Histogram`] of `u64` samples.
    Histogram,
}

impl MetricType {
    /// One-letter wire tag used by the snapshot JSONL header.
    pub fn tag(self) -> &'static str {
        match self {
            MetricType::Counter => "c",
            MetricType::Gauge => "g",
            MetricType::Histogram => "h",
        }
    }

    /// Inverse of [`MetricType::tag`].
    pub fn from_tag(s: &str) -> Option<Self> {
        match s {
            "c" => Some(MetricType::Counter),
            "g" => Some(MetricType::Gauge),
            "h" => Some(MetricType::Histogram),
            _ => None,
        }
    }
}

/// A registered metric: its full name and type, in registration order.
#[derive(Debug, Clone)]
pub struct MetricDesc {
    /// Full name, `layer.name{label=value}`.
    pub name: String,
    /// Counter, gauge, or histogram.
    pub kind: MetricType,
    /// Slot in the per-type array (equals the id handed out at
    /// registration).
    pub slot: usize,
}

/// Handle to a registered counter. `Copy`, cheap to store per layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(pub(crate) u32);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(pub(crate) u32);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(pub(crate) u32);

/// The fixed-slot registry. See the module docs for the contract.
#[derive(Debug, Default, Clone)]
pub struct MetricsRegistry {
    descs: Vec<MetricDesc>,
    counters: Vec<u64>,
    gauges: Vec<u64>,
    hists: Vec<Log2Histogram>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn check_name(&self, name: &str) {
        assert!(
            !self.descs.iter().any(|d| d.name == name),
            "metric {name:?} registered twice"
        );
    }

    /// Registers a counter. Panics on a duplicate name (registration is a
    /// construction-time, programmer-facing step).
    pub fn counter(&mut self, name: &str) -> CounterId {
        self.check_name(name);
        let slot = self.counters.len();
        self.counters.push(0);
        self.descs.push(MetricDesc {
            name: name.to_string(),
            kind: MetricType::Counter,
            slot,
        });
        CounterId(slot as u32)
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        self.check_name(name);
        let slot = self.gauges.len();
        self.gauges.push(0);
        self.descs.push(MetricDesc {
            name: name.to_string(),
            kind: MetricType::Gauge,
            slot,
        });
        GaugeId(slot as u32)
    }

    /// Registers a log2 histogram.
    pub fn histogram(&mut self, name: &str) -> HistId {
        self.check_name(name);
        let slot = self.hists.len();
        self.hists.push(Log2Histogram::new());
        self.descs.push(MetricDesc {
            name: name.to_string(),
            kind: MetricType::Histogram,
            slot,
        });
        HistId(slot as u32)
    }

    // --- hot path -------------------------------------------------------

    /// Adds 1 to a counter.
    #[inline]
    pub fn inc(&mut self, id: CounterId) {
        self.counters[id.0 as usize] += 1;
    }

    /// Adds `by` to a counter.
    #[inline]
    pub fn add(&mut self, id: CounterId, by: u64) {
        self.counters[id.0 as usize] += by;
    }

    /// Sets a gauge to an absolute level.
    #[inline]
    pub fn set_gauge(&mut self, id: GaugeId, v: u64) {
        self.gauges[id.0 as usize] = v;
    }

    /// Records one histogram sample.
    #[inline]
    pub fn observe(&mut self, id: HistId, v: u64) {
        self.hists[id.0 as usize].observe(v);
    }

    // --- inspection -----------------------------------------------------

    /// Metric descriptors in registration order.
    pub fn descs(&self) -> &[MetricDesc] {
        &self.descs
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0 as usize]
    }

    /// Current gauge level.
    pub fn gauge_value(&self, id: GaugeId) -> u64 {
        self.gauges[id.0 as usize]
    }

    /// A registered histogram.
    pub fn hist(&self, id: HistId) -> &Log2Histogram {
        &self.hists[id.0 as usize]
    }

    /// Looks a metric up by full name; returns its descriptor.
    pub fn find(&self, name: &str) -> Option<&MetricDesc> {
        self.descs.iter().find(|d| d.name == name)
    }

    /// Counter value by full name (reporting/audit convenience).
    pub fn counter_by_name(&self, name: &str) -> Option<u64> {
        let d = self.find(name)?;
        (d.kind == MetricType::Counter).then(|| self.counters[d.slot])
    }

    /// Gauge level by full name (reporting/audit convenience).
    pub fn gauge_by_name(&self, name: &str) -> Option<u64> {
        let d = self.find(name)?;
        (d.kind == MetricType::Gauge).then(|| self.gauges[d.slot])
    }

    /// Histogram by full name (reporting/audit convenience).
    pub fn hist_by_name(&self, name: &str) -> Option<&Log2Histogram> {
        let d = self.find(name)?;
        (d.kind == MetricType::Histogram).then(|| &self.hists[d.slot])
    }

    pub(crate) fn counters(&self) -> &[u64] {
        &self.counters
    }

    pub(crate) fn gauges(&self) -> &[u64] {
        &self.gauges
    }

    pub(crate) fn hists(&self) -> &[Log2Histogram] {
        &self.hists
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_hands_out_dense_slots() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("phy.frames_tx{kind=data}");
        let b = r.counter("phy.frames_rx");
        let g = r.gauge("mac.queue_depth{mac=csma}");
        let h = r.histogram("mac.retry_hist");
        r.inc(a);
        r.add(b, 5);
        r.set_gauge(g, 2);
        r.observe(h, 2);
        assert_eq!(r.counter_value(a), 1);
        assert_eq!(r.counter_value(b), 5);
        assert_eq!(r.gauge_value(g), 2);
        assert_eq!(r.hist(h).count(), 1);
        assert_eq!(r.descs().len(), 4);
        assert_eq!(r.counter_by_name("phy.frames_rx"), Some(5));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_panic() {
        let mut r = MetricsRegistry::new();
        r.counter("a.b");
        r.gauge("a.b");
    }
}
