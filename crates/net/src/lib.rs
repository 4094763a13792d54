//! # wsn-net — packet-level wireless sensor network substrate
//!
//! The network layer under the directed-diffusion protocols, as a layered
//! stack: node placement ([`Position`], [`Rect`]) and disc-model
//! connectivity ([`Topology`]); a physical layer (`phy`) with receiver-side
//! collisions and a three-state radio energy meter matching the paper's
//! WINS-NG-style power figures ([`EnergyModel::PAPER`]: idle 35 mW /
//! rx 395 mW / tx 660 mW at 1.6 Mbps); a pluggable MAC layer (`mac`,
//! selected per run by [`MacKind`]: CSMA/CA+ACK, CSMA/CA with RTS/CTS, or
//! an ideal contention-free genie); scheduled node failures (`failures`);
//! and a thin event-dispatching engine tying the layers together.
//!
//! Protocols implement the [`Protocol`] trait and run one instance per node
//! inside a [`Network`]; see the `wsn-diffusion` crate for the directed
//! diffusion implementation this substrate exists to host.
//!
//! # Examples
//!
//! ```
//! use wsn_net::{tx_duration, Position, Topology};
//!
//! // The paper's physical layer: 40 m radios in a 200 m field.
//! let topo = Topology::new(
//!     vec![Position::new(0.0, 0.0), Position::new(35.0, 0.0)],
//!     40.0,
//! );
//! assert!(topo.is_connected());
//!
//! // A 64-byte event occupies the channel for 512 µs (320 µs payload at
//! // 1.6 Mbps plus the 192 µs PHY preamble).
//! assert_eq!(tx_duration(64).as_nanos(), 512_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod energy;
mod engine;
mod failures;
mod mac;
mod metrics;
mod node;
mod packet;
mod phy;
mod position;
mod protocol;
mod soa;
mod topology;
mod trace;

pub use config::{tx_duration, NetConfig, RETRY_LIMIT};
pub use energy::{EnergyMeter, EnergyModel, RadioState};
pub use engine::{EngineCore, EventBudgetExceeded, Network};
pub use mac::MacKind;
pub use metrics::{MetricsOptions, NetMetricIds};
pub use node::NodeId;
pub use packet::{Packet, TxId};
pub use phy::NetStats;
pub use position::{Position, Rect};
pub use protocol::{Ctx, Protocol, TimerHandle};
pub use topology::{SpatialGrid, Topology};
pub use trace::TraceOptions;
