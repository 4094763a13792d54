//! # wsn-scenario — reproducible experiment scenarios
//!
//! Generates everything around the protocol: connected random sensor fields
//! ([`generate_field`]), the paper's source and sink placement
//! ([`SourcePlacement`], [`place_sinks`]), the rolling 20%-down failure
//! model ([`rolling_failures`]), and the [`ScenarioSpec`] that ties a full
//! run to a single seed.
//!
//! # Examples
//!
//! ```
//! use wsn_scenario::ScenarioSpec;
//!
//! let inst = ScenarioSpec::paper(150, 42).instantiate();
//! assert_eq!(inst.sources.len(), 5);
//! assert_eq!(inst.sinks.len(), 1);
//! assert!(inst.field.topology.is_connected());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod failures;
mod field;
mod placement;
mod render;
mod spec;

pub use failures::{downtime_fraction, rolling_failures, FailureConfig, FailureEvent};
pub use field::{generate_field, generate_field_with, Connectivity, Field};
pub use placement::{
    pick_nodes_in_region, pick_nodes_uniform, place_sinks, place_sources, SourcePlacement,
};
pub use render::{render_svg, RenderOverlay};
pub use spec::{ScenarioInstance, ScenarioSpec};
