//! Raw measurements of one simulation run and the paper's derived metrics.

/// Raw counters harvested from one run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// Number of nodes in the field.
    pub node_count: usize,
    /// Number of sinks.
    pub sink_count: usize,
    /// Simulated duration, seconds.
    pub duration_s: f64,
    /// Total energy dissipated by all nodes, joules.
    pub total_energy_j: f64,
    /// Communication (transmit + receive) energy, joules — the total minus
    /// the scheme-independent idle-listening floor.
    pub activity_energy_j: f64,
    /// Distinct events received, summed over sinks.
    pub distinct_events: u64,
    /// Sum of one-way delays of those distinct events, seconds.
    pub delay_sum_s: f64,
    /// Events generated, summed over sources.
    pub events_generated: u64,
    /// Payload frames put on the air (all nodes, all message kinds),
    /// without MAC ACK/RTS/CTS frames.
    pub tx_frames: u64,
    /// Bytes of those payload frames, without MAC ACK/RTS/CTS frames.
    pub tx_bytes: u64,
    /// Receptions lost to collisions.
    pub collisions: u64,
}

/// The paper's three evaluation metrics (§5.1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PaperMetrics {
    /// *Average dissipated energy*: "the ratio of total dissipated energy
    /// per node in the network to the number of distinct events received by
    /// sinks" — joules / node / distinct event.
    pub avg_dissipated_energy: f64,
    /// The communication component of the same ratio (transmit + receive
    /// energy only). The idle-listening floor is identical for both schemes
    /// at a given density, so scheme differences concentrate here; see
    /// `DESIGN.md` §3 on energy accounting.
    pub avg_activity_energy: f64,
    /// *Average delay*: mean one-way latency between transmitting an event
    /// and receiving it at each sink, seconds.
    pub avg_delay_s: f64,
    /// *Distinct-event delivery ratio*: distinct events received over the
    /// number originally sent. With `k` sinks each event can be received
    /// `k` times, so the denominator scales by the sink count.
    pub delivery_ratio: f64,
}

impl RunRecord {
    /// Derives the paper's metrics from the raw counters.
    ///
    /// Runs that delivered nothing report infinite energy per event (the
    /// metric's denominator is zero) and zero delay — callers filter or
    /// surface these explicitly rather than silently averaging them.
    pub fn metrics(&self) -> PaperMetrics {
        let mean_energy = self.total_energy_j / self.node_count.max(1) as f64;
        let mean_activity = self.activity_energy_j / self.node_count.max(1) as f64;
        let (avg_dissipated_energy, avg_activity_energy) = if self.distinct_events == 0 {
            (f64::INFINITY, f64::INFINITY)
        } else {
            (
                mean_energy / self.distinct_events as f64,
                mean_activity / self.distinct_events as f64,
            )
        };
        let avg_delay_s = if self.distinct_events == 0 {
            0.0
        } else {
            self.delay_sum_s / self.distinct_events as f64
        };
        let expected = self.events_generated.saturating_mul(self.sink_count as u64);
        let delivery_ratio = if expected == 0 {
            0.0
        } else {
            self.distinct_events as f64 / expected as f64
        };
        PaperMetrics {
            avg_dissipated_energy,
            avg_activity_energy,
            avg_delay_s,
            delivery_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record() -> RunRecord {
        RunRecord {
            node_count: 100,
            sink_count: 1,
            duration_s: 200.0,
            total_energy_j: 800.0,
            activity_energy_j: 100.0,
            distinct_events: 400,
            delay_sum_s: 100.0,
            events_generated: 500,
            tx_frames: 10_000,
            tx_bytes: 500_000,
            collisions: 42,
        }
    }

    #[test]
    fn metrics_formulas() {
        let m = record().metrics();
        // (800 J / 100 nodes) / 400 events = 0.02 J/node/event.
        assert!((m.avg_dissipated_energy - 0.02).abs() < 1e-12);
        // (100 J / 100 nodes) / 400 events.
        assert!((m.avg_activity_energy - 0.0025).abs() < 1e-12);
        assert!((m.avg_delay_s - 0.25).abs() < 1e-12);
        assert!((m.delivery_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn multi_sink_scales_expected_deliveries() {
        let mut r = record();
        r.sink_count = 2;
        r.distinct_events = 800; // both sinks got everything received before
        let m = r.metrics();
        assert!((m.delivery_ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn zero_deliveries_are_explicit() {
        let mut r = record();
        r.distinct_events = 0;
        r.delay_sum_s = 0.0;
        let m = r.metrics();
        assert!(m.avg_dissipated_energy.is_infinite());
        assert!(m.avg_activity_energy.is_infinite());
        assert_eq!(m.avg_delay_s, 0.0);
        assert_eq!(m.delivery_ratio, 0.0);
    }

    #[test]
    fn zero_generated_gives_zero_ratio() {
        let mut r = record();
        r.events_generated = 0;
        r.distinct_events = 0;
        assert_eq!(r.metrics().delivery_ratio, 0.0);
    }
}
