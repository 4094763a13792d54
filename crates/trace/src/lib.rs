//! Structured run telemetry for the wsn workspace.
//!
//! This crate is the observability substrate the rest of the workspace
//! threads through: simulations emit schema-versioned [`TraceRecord`]s
//! through a [`TraceSink`], sinks serialise them as NDJSON (one flat JSON
//! object per line), [`TraceRecord::from_json`] decodes a line back into a
//! typed record, and [`TraceSummary`] reduces typed records into per-node
//! energy/traffic tallies and figure-style tables. Every reader — the
//! report, the [`Auditor`], the registry audit — decodes once and folds
//! into that one summary.
//!
//! Design constraints, in order:
//!
//! 1. **Zero cost when disabled.** Instrumented layers hold an
//!    `Option<SharedSink>`; with `None` the hot paths do no record
//!    construction at all. [`NullSink`] exists for call sites that want a
//!    sink unconditionally.
//! 2. **Deterministic bytes.** A run is a pure function of (scenario,
//!    seed), and so is its trace: same seed ⇒ byte-identical `.jsonl`.
//!    Records carry sim-time (`t_ns`), never wall-clock; floats are written
//!    with Rust's shortest-round-trip `Display`, which is deterministic.
//! 3. **No dependencies.** The workspace builds offline; records are
//!    hand-serialised flat JSON and the decoder's scanner is a single pass
//!    over exactly that shape.
//!
//! # Examples
//!
//! ```
//! use wsn_trace::{shared, MemSink, TraceRecord, TraceSummary};
//!
//! let sink = shared(MemSink::new());
//! sink.borrow_mut().record(&TraceRecord::EnergyDebit {
//!     t_ns: 1_000,
//!     node: 0,
//!     state: "tx",
//!     joules: 0.25,
//! });
//!
//! // Reduce the captured records (normally read back from a .jsonl file).
//! let mut summary = TraceSummary::new();
//! // (Downcasting is test-only; engines keep their own typed handle.)
//! # let sink = wsn_trace::MemSink {
//! #     events: vec![TraceRecord::EnergyDebit { t_ns: 1_000, node: 0, state: "tx", joules: 0.25 }],
//! # };
//! for rec in &sink.events {
//!     summary.add_record(rec);
//! }
//! assert_eq!(summary.total_energy_j(), 0.25);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod lineage;
mod parse;
pub mod record;
pub mod report;
pub mod sink;

pub use audit::{audit_text, AuditReport, Auditor, Violation};
pub use lineage::{join_lineage, split_lineage, LineageId};
pub use record::{
    joules_to_nj, DecodeError, DropReason, TraceRecord, ENERGY_STATES, FRAME_KINDS,
    REINFORCE_KINDS, SCHEMA_VERSION,
};
pub use report::{NodeTally, ProfileRow, ReportedMetrics, TraceSummary};
pub use sink::{shared, JsonlSink, MemSink, NullSink, SharedSink, TraceSink};
