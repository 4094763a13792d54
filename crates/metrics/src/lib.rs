//! # wsn-metrics — the paper's evaluation metrics and reporting
//!
//! Raw run counters ([`RunRecord`]) reduce to the ICDCS paper's three
//! metrics ([`PaperMetrics`]): *average dissipated energy* (J/node/distinct
//! event), *average delay* (s), and the *distinct-event delivery ratio*.
//! Cross-field averaging uses [`Summary`]; figures render through
//! [`FigureTable`].
//!
//! The crate also hosts the in-sim observability substrate: a fixed-slot,
//! zero-allocation-in-steady-state [`MetricsRegistry`] of counters, gauges
//! and [`Log2Histogram`]s, and the [`SnapshotEncoder`] JSONL time-series
//! codec ([`MetricsLine`] parses it back).
//! Everything is std-only and float-free on the hot path; see DESIGN.md
//! §17 for the layout and naming convention.
//!
//! # Examples
//!
//! ```
//! use wsn_metrics::{RunRecord, Summary};
//!
//! let record = RunRecord {
//!     node_count: 100,
//!     sink_count: 1,
//!     duration_s: 200.0,
//!     total_energy_j: 800.0,
//!     activity_energy_j: 100.0,
//!     distinct_events: 400,
//!     delay_sum_s: 100.0,
//!     events_generated: 500,
//!     tx_frames: 10_000,
//!     tx_bytes: 500_000,
//!     collisions: 42,
//! };
//! let m = record.metrics();
//! assert!((m.delivery_ratio - 0.8).abs() < 1e-12);
//!
//! let s = Summary::of([1.0, 2.0, 3.0]);
//! assert_eq!(s.mean, 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod hist;
mod record;
mod registry;
mod snapshot;
mod stats;
mod table;

pub use hist::{Log2Histogram, HIST_BUCKETS};
pub use record::{PaperMetrics, RunRecord};
pub use registry::{CounterId, GaugeId, HistId, MetricDesc, MetricType, MetricsRegistry};
pub use snapshot::{MetricsLine, SnapshotEncoder, METRICS_WIRE_VERSION};
pub use stats::Summary;
pub use table::{FigureRow, FigureTable};
