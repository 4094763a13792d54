//! The trace record vocabulary and its NDJSON encoding.
//!
//! One [`TraceRecord`] is one line of a run's `.jsonl` artifact, and
//! [`TraceRecord::from_json`] is the one way back: every reader decodes a
//! line into a typed record before it counts anything. Records are *flat*
//! JSON objects (no nesting) so the dependency-free scanner behind the
//! decoder stays trivial, and every numeric field is written with Rust's
//! shortest-round-trip `Display` formatting, which is deterministic — the
//! same run produces byte-identical lines, and floats decode bit-exact.
//!
//! Schema v2 adds event lineage: application payloads carry `(source, seq)`
//! lineage ids (see [`crate::lineage`]), physical transmissions carry a
//! per-run `tx` id so receptions and drops pair with the transmission that
//! caused them, and losses carry a structured [`DropReason`]. Lineage *sets*
//! (on `tx`, `enq`, and `agg_merge` lines) are encoded as one quoted string
//! of comma-joined `src#seq` ids, which keeps the lines flat.

use std::fmt;
use std::io::{self, Write};
use std::str::FromStr;

use crate::parse::{parse_line, ParsedLine};

/// Version stamp of the record schema, written on the `run_start` line.
///
/// Bump this whenever a record variant or field changes meaning; readers can
/// then refuse (or adapt to) traces from other schema generations.
pub const SCHEMA_VERSION: u32 = 2;

/// Radio-state labels used by [`TraceRecord::EnergyDebit`], in the order the
/// energy meter sums its per-state buckets (off, idle, rx, tx). Reductions
/// that re-sum debits in this same per-state order reproduce the meter's
/// floating-point total bit-for-bit.
pub const ENERGY_STATES: [&str; 4] = ["off", "idle", "rx", "tx"];

/// Frame-kind labels used by [`TraceRecord::PacketTx`], in the order the
/// PHY registers its `phy.frames_tx{kind=..}` counters.
pub const FRAME_KINDS: [&str; 4] = ["data", "ack", "rts", "cts"];

/// Reinforcement-kind labels used by [`TraceRecord::GradientReinforce`].
pub const REINFORCE_KINDS: [&str; 3] = ["establish", "refresh", "repair"];

/// Joules → integer nanojoules, the unit the metrics registry counts
/// energy in.
///
/// Used at the meter-debit site *and* when reducing a trace's `energy`
/// records ([`crate::TraceSummary::energy_nj`]): debits are written with
/// shortest-round-trip formatting, so a decoded debit is the exact debited
/// value and the per-debit rounding here reproduces the registry's integer
/// sum bit-for-bit — which is what makes the zero-tolerance registry audit
/// possible.
#[inline]
pub fn joules_to_nj(joules: f64) -> u64 {
    (joules * 1e9).round() as u64
}

/// Builds `TraceRecord::$variant` from the line fields of the same names,
/// each decoded as its record field's type ([`FieldValue`]); fields after
/// `;` are labels checked against their vocabulary.
macro_rules! decode {
    ($f:ident => $variant:ident { $($field:ident),* $(; $label:ident in $labels:ident)? }) => {
        TraceRecord::$variant {
            $($field: $f.get(stringify!($field))?,)*
            $($label: $f.label(stringify!($label), &$labels)?,)?
        }
    };
}

/// Why a frame or a buffered event item was lost.
///
/// Frame-level reasons come from the MAC/engine (`Collision`, `RetryLimit`,
/// `NodeDown`); item-level reasons come from the diffusion layer (`NoRoute`,
/// `CacheSuppressed`); `Budget` marks losses caused by the run's event
/// budget truncating the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// Reception was corrupted by an overlapping transmission.
    Collision,
    /// A unicast was abandoned after the MAC exhausted its ARQ retries.
    RetryLimit,
    /// The frame was queued at (or addressed to) a failed node.
    NodeDown,
    /// A buffered item had no downstream gradient to flow along.
    NoRoute,
    /// A duplicate copy was suppressed by the seen-items cache.
    CacheSuppressed,
    /// The run's event budget expired before the item could be serviced.
    Budget,
}

impl DropReason {
    /// Every reason, in a fixed order (for deterministic tables).
    pub const ALL: [DropReason; 6] = [
        DropReason::Collision,
        DropReason::RetryLimit,
        DropReason::NodeDown,
        DropReason::NoRoute,
        DropReason::CacheSuppressed,
        DropReason::Budget,
    ];

    /// The reason's slot in a `{reason=..}`-labeled counter array: its
    /// position in [`DropReason::ALL`], which lists the reasons in
    /// declaration order. The PHY's `phy.drops` and diffusion's
    /// `diffusion.item_drops` index the same way, so audits can line
    /// reasons up.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// The reason's wire label.
    pub fn name(self) -> &'static str {
        match self {
            DropReason::Collision => "collision",
            DropReason::RetryLimit => "retry_limit",
            DropReason::NodeDown => "node_down",
            DropReason::NoRoute => "no_route",
            DropReason::CacheSuppressed => "cache_suppressed",
            DropReason::Budget => "budget",
        }
    }

    /// Parses a wire label back into the reason.
    pub fn parse(s: &str) -> Option<DropReason> {
        DropReason::ALL.into_iter().find(|r| r.name() == s)
    }
}

impl std::fmt::Display for DropReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One telemetry event of a simulation run.
///
/// Node identities are plain `u32` indices and times are simulated
/// nanoseconds, so this crate depends on nothing else in the workspace and
/// every layer (sim, net, diffusion, runner) can construct records directly.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceRecord {
    /// First line of every trace: schema version, scenario seed, node count.
    RunStart {
        /// The scenario seed the run is a pure function of.
        seed: u64,
        /// Number of nodes in the field.
        nodes: u32,
    },
    /// A payload frame entered a node's MAC queue. Together with the `tx`
    /// line that later carries the same lineage from the same node, this
    /// bounds the frame's queue-plus-backoff wait.
    MacEnqueue {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The queueing node.
        node: u32,
        /// Frame size in bytes.
        bytes: u32,
        /// Logical destination (`None` = broadcast).
        dst: Option<u32>,
        /// Lineage ids carried by the payload, if it carries any.
        lineage: Option<String>,
    },
    /// A frame was put on the air. `tx` is the per-run transmission id that
    /// `rx` and `drop` lines refer back to.
    PacketTx {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The transmitting node.
        node: u32,
        /// Per-run transmission id.
        tx: u64,
        /// Frame kind, one of [`FRAME_KINDS`].
        kind: &'static str,
        /// Frame size in bytes.
        bytes: u32,
        /// Logical destination (`None` = broadcast).
        dst: Option<u32>,
        /// Lineage ids carried by the payload, if it carries any.
        lineage: Option<String>,
    },
    /// A payload frame was successfully decoded at a hearer.
    PacketRx {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The receiving node.
        node: u32,
        /// The transmitting neighbor.
        from: u32,
        /// The transmission being received (pairs with a `tx` line).
        tx: u64,
        /// Frame size in bytes.
        bytes: u32,
    },
    /// A frame was lost.
    PacketDrop {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The node that lost the frame.
        node: u32,
        /// Why the frame was lost.
        reason: DropReason,
        /// The transmission the loss belongs to, when one was on the air
        /// (`None` for losses before any transmission, e.g. `node_down`).
        tx: Option<u64>,
    },
    /// A reception was corrupted by an overlapping transmission at `node`.
    Collision {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The hearer whose reception was corrupted.
        node: u32,
    },
    /// A closed radio-state interval's energy, debited when the state
    /// changes. The per-node sum over all debits (grouped per state, states
    /// added in [`ENERGY_STATES`] order) equals the node's total dissipated
    /// energy once the run closes its final intervals.
    EnergyDebit {
        /// Simulated time the interval closed, nanoseconds.
        t_ns: u64,
        /// The node being debited.
        node: u32,
        /// The radio state of the closed interval (see [`ENERGY_STATES`]).
        state: &'static str,
        /// Joules dissipated over the interval.
        joules: f64,
    },
    /// A gradient toward `from` was positively reinforced at `node`.
    GradientReinforce {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The node whose gradient table changed.
        node: u32,
        /// The downstream neighbor that sent the reinforcement.
        from: u32,
        /// Reinforcement kind, one of [`REINFORCE_KINDS`].
        kind: &'static str,
    },
    /// A new data gradient (aggregation-tree edge `node → parent`) appeared.
    TreeEdge {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The upstream end of the new edge.
        node: u32,
        /// The downstream neighbor data will now flow toward.
        parent: u32,
    },
    /// An aggregation flush merged buffered aggregates into one outgoing one.
    AggMerge {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The aggregation point.
        node: u32,
        /// Incoming aggregates buffered this cycle.
        inputs: u32,
        /// Distinct items forwarded.
        items: u32,
        /// The outgoing aggregate's set-cover energy cost.
        cost: f64,
        /// Lineage ids absorbed into the outgoing aggregate.
        lineage: String,
    },
    /// A new distinct event was sensed at its source (lineage id birth).
    EventGen {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The source node (the lineage id's `src` half).
        node: u32,
        /// The source-local event sequence number (the `seq` half).
        seq: u32,
    },
    /// A sink received its first copy of a distinct event.
    EventDeliver {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The sink that delivered the event.
        node: u32,
        /// The event's source node.
        src: u32,
        /// The event's source-local sequence number.
        seq: u32,
        /// When the event was generated (the matching `event_gen`'s `t_ns`).
        gen_ns: u64,
    },
    /// A buffered event item was discarded (or suppressed) at `node`.
    ItemDrop {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The node that lost or suppressed the item.
        node: u32,
        /// The item's source node.
        src: u32,
        /// The item's source-local sequence number.
        seq: u32,
        /// Why the item went no further here.
        reason: DropReason,
    },
    /// The metrics the run reported, emitted at harvest time so the trace
    /// is a self-verifying artifact (see [`crate::audit`]).
    RunMetrics {
        /// Simulated time the metrics were harvested, nanoseconds.
        t_ns: u64,
        /// Events generated across all sources.
        generated: u64,
        /// Distinct events delivered, summed over sinks.
        distinct: u64,
        /// Sum of per-event delivery delays over all sinks, seconds.
        delay_sum_s: f64,
        /// Number of sinks in the scenario.
        sinks: u32,
        /// Total energy dissipated as harvested into the run record.
        total_energy_j: f64,
    },
    /// One dispatch-profiler row (only present when profiling is enabled —
    /// values are wall-clock and therefore *not* deterministic).
    Profile {
        /// The profiled event-type label.
        label: String,
        /// Dispatches of this event type.
        count: u64,
        /// Total wall-clock nanoseconds spent in this event type.
        total_ns: u64,
        /// The single slowest dispatch, wall-clock nanoseconds.
        max_ns: u64,
    },
    /// Periodic per-node state snapshot (configurable sim-time cadence).
    Snapshot {
        /// Simulated time, nanoseconds.
        t_ns: u64,
        /// The node being sampled.
        node: u32,
        /// Cumulative energy dissipated so far, joules.
        energy_j: f64,
        /// MAC queue depth (frames waiting for the channel).
        queue: u32,
        /// Protocol cache size (exploratory-cache entries).
        cache: u32,
    },
    /// Last line of every trace: final accounting.
    RunEnd {
        /// Simulated time the run ended, nanoseconds.
        t_ns: u64,
        /// Simulator events dispatched.
        events: u64,
        /// Total energy dissipated by all nodes, joules.
        total_energy_j: f64,
    },
}

impl TraceRecord {
    /// The record's `ev` tag as written on its JSON line.
    pub fn tag(&self) -> &'static str {
        match self {
            TraceRecord::RunStart { .. } => "run_start",
            TraceRecord::MacEnqueue { .. } => "enq",
            TraceRecord::PacketTx { .. } => "tx",
            TraceRecord::PacketRx { .. } => "rx",
            TraceRecord::PacketDrop { .. } => "drop",
            TraceRecord::Collision { .. } => "collision",
            TraceRecord::EnergyDebit { .. } => "energy",
            TraceRecord::GradientReinforce { .. } => "reinforce",
            TraceRecord::TreeEdge { .. } => "tree_edge",
            TraceRecord::AggMerge { .. } => "agg_merge",
            TraceRecord::EventGen { .. } => "event_gen",
            TraceRecord::EventDeliver { .. } => "deliver",
            TraceRecord::ItemDrop { .. } => "item_drop",
            TraceRecord::RunMetrics { .. } => "metrics",
            TraceRecord::Profile { .. } => "profile",
            TraceRecord::Snapshot { .. } => "snapshot",
            TraceRecord::RunEnd { .. } => "run_end",
        }
    }

    /// Writes the record as one NDJSON line (including the trailing `\n`).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `out`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        match self {
            TraceRecord::RunStart { seed, nodes } => writeln!(
                out,
                "{{\"ev\":\"run_start\",\"v\":{SCHEMA_VERSION},\"seed\":{seed},\"nodes\":{nodes}}}"
            ),
            TraceRecord::MacEnqueue {
                t_ns,
                node,
                bytes,
                dst,
                lineage,
            } => {
                write!(out, "{{\"ev\":\"enq\",\"t_ns\":{t_ns},\"node\":{node},\"bytes\":{bytes}")?;
                if let Some(d) = dst {
                    write!(out, ",\"dst\":{d}")?;
                }
                if let Some(l) = lineage {
                    write!(out, ",\"lineage\":\"{l}\"")?;
                }
                writeln!(out, "}}")
            }
            TraceRecord::PacketTx {
                t_ns,
                node,
                tx,
                kind,
                bytes,
                dst,
                lineage,
            } => {
                write!(
                    out,
                    "{{\"ev\":\"tx\",\"t_ns\":{t_ns},\"node\":{node},\"tx\":{tx},\"kind\":\"{kind}\",\"bytes\":{bytes}"
                )?;
                if let Some(d) = dst {
                    write!(out, ",\"dst\":{d}")?;
                }
                if let Some(l) = lineage {
                    write!(out, ",\"lineage\":\"{l}\"")?;
                }
                writeln!(out, "}}")
            }
            TraceRecord::PacketRx {
                t_ns,
                node,
                from,
                tx,
                bytes,
            } => writeln!(
                out,
                "{{\"ev\":\"rx\",\"t_ns\":{t_ns},\"node\":{node},\"from\":{from},\"tx\":{tx},\"bytes\":{bytes}}}"
            ),
            TraceRecord::PacketDrop {
                t_ns,
                node,
                reason,
                tx,
            } => {
                write!(
                    out,
                    "{{\"ev\":\"drop\",\"t_ns\":{t_ns},\"node\":{node},\"reason\":\"{}\"",
                    reason.name()
                )?;
                if let Some(tx) = tx {
                    write!(out, ",\"tx\":{tx}")?;
                }
                writeln!(out, "}}")
            }
            TraceRecord::Collision { t_ns, node } => writeln!(
                out,
                "{{\"ev\":\"collision\",\"t_ns\":{t_ns},\"node\":{node}}}"
            ),
            TraceRecord::EnergyDebit {
                t_ns,
                node,
                state,
                joules,
            } => writeln!(
                out,
                "{{\"ev\":\"energy\",\"t_ns\":{t_ns},\"node\":{node},\"state\":\"{state}\",\"joules\":{joules}}}"
            ),
            TraceRecord::GradientReinforce {
                t_ns,
                node,
                from,
                kind,
            } => writeln!(
                out,
                "{{\"ev\":\"reinforce\",\"t_ns\":{t_ns},\"node\":{node},\"from\":{from},\"kind\":\"{kind}\"}}"
            ),
            TraceRecord::TreeEdge { t_ns, node, parent } => writeln!(
                out,
                "{{\"ev\":\"tree_edge\",\"t_ns\":{t_ns},\"node\":{node},\"parent\":{parent}}}"
            ),
            TraceRecord::AggMerge {
                t_ns,
                node,
                inputs,
                items,
                cost,
                lineage,
            } => writeln!(
                out,
                "{{\"ev\":\"agg_merge\",\"t_ns\":{t_ns},\"node\":{node},\"inputs\":{inputs},\"items\":{items},\"cost\":{cost},\"lineage\":\"{lineage}\"}}"
            ),
            TraceRecord::EventGen { t_ns, node, seq } => writeln!(
                out,
                "{{\"ev\":\"event_gen\",\"t_ns\":{t_ns},\"node\":{node},\"seq\":{seq}}}"
            ),
            TraceRecord::EventDeliver {
                t_ns,
                node,
                src,
                seq,
                gen_ns,
            } => writeln!(
                out,
                "{{\"ev\":\"deliver\",\"t_ns\":{t_ns},\"node\":{node},\"src\":{src},\"seq\":{seq},\"gen_ns\":{gen_ns}}}"
            ),
            TraceRecord::ItemDrop {
                t_ns,
                node,
                src,
                seq,
                reason,
            } => writeln!(
                out,
                "{{\"ev\":\"item_drop\",\"t_ns\":{t_ns},\"node\":{node},\"src\":{src},\"seq\":{seq},\"reason\":\"{}\"}}",
                reason.name()
            ),
            TraceRecord::RunMetrics {
                t_ns,
                generated,
                distinct,
                delay_sum_s,
                sinks,
                total_energy_j,
            } => writeln!(
                out,
                "{{\"ev\":\"metrics\",\"t_ns\":{t_ns},\"generated\":{generated},\"distinct\":{distinct},\"delay_sum_s\":{delay_sum_s},\"sinks\":{sinks},\"total_energy_j\":{total_energy_j}}}"
            ),
            TraceRecord::Profile {
                label,
                count,
                total_ns,
                max_ns,
            } => writeln!(
                out,
                "{{\"ev\":\"profile\",\"label\":\"{label}\",\"count\":{count},\"total_ns\":{total_ns},\"max_ns\":{max_ns}}}"
            ),
            TraceRecord::Snapshot {
                t_ns,
                node,
                energy_j,
                queue,
                cache,
            } => writeln!(
                out,
                "{{\"ev\":\"snapshot\",\"t_ns\":{t_ns},\"node\":{node},\"energy_j\":{energy_j},\"queue\":{queue},\"cache\":{cache}}}"
            ),
            TraceRecord::RunEnd {
                t_ns,
                events,
                total_energy_j,
            } => writeln!(
                out,
                "{{\"ev\":\"run_end\",\"t_ns\":{t_ns},\"events\":{events},\"total_energy_j\":{total_energy_j}}}"
            ),
        }
    }

    /// The record rendered as its JSON line, without the trailing newline.
    pub fn to_json(&self) -> String {
        let mut buf = Vec::new();
        self.write_jsonl(&mut buf)
            .expect("writing to a Vec cannot fail");
        buf.pop(); // trailing '\n'
        String::from_utf8(buf).expect("records are ASCII")
    }

    /// Decodes one NDJSON line: the exact inverse of
    /// [`TraceRecord::to_json`] (`from_json(&r.to_json()) == Ok(r)`).
    ///
    /// # Errors
    ///
    /// [`DecodeError::NotARecord`] when the line is not a flat JSON object
    /// carrying an `ev` tag (a foreign line); [`DecodeError::Invalid`] when
    /// it is tagged but breaks the schema: an unknown tag, a missing or
    /// unparsable field, a label outside [`FRAME_KINDS`], [`ENERGY_STATES`],
    /// [`REINFORCE_KINDS`] or [`DropReason::ALL`], or a `run_start` of
    /// another [`SCHEMA_VERSION`].
    pub fn from_json(line: &str) -> Result<TraceRecord, DecodeError> {
        let parsed = parse_line(line).ok_or(DecodeError::NotARecord)?;
        let tag = parsed.tag().ok_or(DecodeError::NotARecord)?;
        let f = Fields { line: &parsed, tag };
        Ok(match tag {
            "run_start" => match f.get::<u32>("v")? {
                SCHEMA_VERSION => decode!(f => RunStart { seed, nodes }),
                v => {
                    return Err(f.invalid(format_args!(
                        "schema version {v}, expected {SCHEMA_VERSION}"
                    )))
                }
            },
            "enq" => decode!(f => MacEnqueue { t_ns, node, bytes, dst, lineage }),
            "tx" => {
                decode!(f => PacketTx { t_ns, node, tx, bytes, dst, lineage; kind in FRAME_KINDS })
            }
            "rx" => decode!(f => PacketRx { t_ns, node, from, tx, bytes }),
            "drop" => decode!(f => PacketDrop { t_ns, node, reason, tx }),
            "collision" => decode!(f => Collision { t_ns, node }),
            "energy" => decode!(f => EnergyDebit { t_ns, node, joules; state in ENERGY_STATES }),
            "reinforce" => {
                decode!(f => GradientReinforce { t_ns, node, from; kind in REINFORCE_KINDS })
            }
            "tree_edge" => decode!(f => TreeEdge { t_ns, node, parent }),
            "agg_merge" => decode!(f => AggMerge { t_ns, node, inputs, items, cost, lineage }),
            "event_gen" => decode!(f => EventGen { t_ns, node, seq }),
            "deliver" => decode!(f => EventDeliver { t_ns, node, src, seq, gen_ns }),
            "item_drop" => decode!(f => ItemDrop { t_ns, node, src, seq, reason }),
            "metrics" => {
                decode!(f => RunMetrics { t_ns, generated, distinct, delay_sum_s, sinks, total_energy_j })
            }
            "profile" => decode!(f => Profile { label, count, total_ns, max_ns }),
            "snapshot" => decode!(f => Snapshot { t_ns, node, energy_j, queue, cache }),
            "run_end" => decode!(f => RunEnd { t_ns, events, total_energy_j }),
            other => {
                return Err(DecodeError::Invalid(format!(
                    "unknown record tag {other:?}"
                )))
            }
        })
    }
}

/// Why a line did not decode into a [`TraceRecord`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Not a flat JSON object with an `ev` tag: a foreign line, which
    /// reductions count as skipped.
    NotARecord,
    /// A tagged line that breaks the record schema; the message names the
    /// tag and the offending field.
    Invalid(String),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::NotARecord => f.write_str("not a trace record"),
            DecodeError::Invalid(msg) => f.write_str(msg),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The fields of one tagged line, decoded by the type each record field
/// has; every error names the tag.
struct Fields<'a> {
    line: &'a ParsedLine<'a>,
    tag: &'a str,
}

impl Fields<'_> {
    fn invalid(&self, msg: impl fmt::Display) -> DecodeError {
        DecodeError::Invalid(format!("{} record: {msg}", self.tag))
    }

    fn get<T: FieldValue>(&self, key: &str) -> Result<T, DecodeError> {
        let raw = self.line.str_field(key);
        T::decode(raw).ok_or_else(|| match raw {
            None => self.invalid(format_args!("missing field {key:?}")),
            Some(raw) => self.invalid(format_args!("field {key:?} cannot parse {raw:?}")),
        })
    }

    /// The field's value as one of `labels` (records carry `'static` labels).
    fn label(&self, key: &str, labels: &[&'static str]) -> Result<&'static str, DecodeError> {
        let raw = self.line.str_field(key);
        let known = labels.iter().find(|&&l| Some(l) == raw);
        known.copied().ok_or_else(|| match raw {
            None => self.invalid(format_args!("missing field {key:?}")),
            Some(raw) => self.invalid(format_args!("unknown {key} {raw:?}")),
        })
    }
}

/// A record field's type, decoded from the field's raw text (`None` when
/// the line lacks the field); `None` out means the field is invalid.
trait FieldValue: Sized {
    fn decode(raw: Option<&str>) -> Option<Self>;
}

/// An optional field: absent decodes to `None`, present must parse.
impl<T: FromStr> FieldValue for Option<T> {
    fn decode(raw: Option<&str>) -> Option<Self> {
        raw.map_or(Some(None), |r| r.parse().ok().map(Some))
    }
}

macro_rules! required_fields {
    ($($t:ty),*) => {$(
        impl FieldValue for $t {
            fn decode(raw: Option<&str>) -> Option<Self> {
                raw?.parse().ok()
            }
        }
    )*};
}
required_fields!(u32, u64, f64, String);

impl FieldValue for DropReason {
    fn decode(raw: Option<&str>) -> Option<Self> {
        DropReason::parse(raw?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_flat_json_objects() {
        let recs = [
            TraceRecord::RunStart { seed: 7, nodes: 3 },
            TraceRecord::MacEnqueue {
                t_ns: 10,
                node: 0,
                bytes: 64,
                dst: Some(2),
                lineage: Some("0#1,1#1".into()),
            },
            TraceRecord::PacketTx {
                t_ns: 10,
                node: 0,
                tx: 1,
                kind: "data",
                bytes: 64,
                dst: Some(2),
                lineage: Some("0#1".into()),
            },
            TraceRecord::PacketTx {
                t_ns: 11,
                node: 0,
                tx: 2,
                kind: "data",
                bytes: 64,
                dst: None,
                lineage: None,
            },
            TraceRecord::PacketRx {
                t_ns: 12,
                node: 2,
                from: 0,
                tx: 2,
                bytes: 64,
            },
            TraceRecord::PacketDrop {
                t_ns: 13,
                node: 2,
                reason: DropReason::Collision,
                tx: Some(2),
            },
            TraceRecord::Collision { t_ns: 13, node: 2 },
            TraceRecord::EnergyDebit {
                t_ns: 14,
                node: 1,
                state: "tx",
                joules: 0.5,
            },
            TraceRecord::GradientReinforce {
                t_ns: 15,
                node: 1,
                from: 2,
                kind: "establish",
            },
            TraceRecord::TreeEdge {
                t_ns: 15,
                node: 1,
                parent: 2,
            },
            TraceRecord::AggMerge {
                t_ns: 16,
                node: 1,
                inputs: 3,
                items: 4,
                cost: 12.0,
                lineage: "0#1,2#1".into(),
            },
            TraceRecord::EventGen {
                t_ns: 16,
                node: 4,
                seq: 2,
            },
            TraceRecord::EventDeliver {
                t_ns: 17,
                node: 0,
                src: 4,
                seq: 2,
                gen_ns: 16,
            },
            TraceRecord::ItemDrop {
                t_ns: 17,
                node: 3,
                src: 4,
                seq: 2,
                reason: DropReason::NoRoute,
            },
            TraceRecord::RunMetrics {
                t_ns: 18,
                generated: 10,
                distinct: 9,
                delay_sum_s: 1.25,
                sinks: 1,
                total_energy_j: 3.5,
            },
            TraceRecord::Profile {
                label: "tx_end".into(),
                count: 4,
                total_ns: 1000,
                max_ns: 400,
            },
            TraceRecord::Snapshot {
                t_ns: 17,
                node: 1,
                energy_j: 1.25,
                queue: 2,
                cache: 9,
            },
            TraceRecord::RunEnd {
                t_ns: 18,
                events: 99,
                total_energy_j: 3.5,
            },
        ];
        for r in &recs {
            let line = r.to_json();
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(&format!("\"ev\":\"{}\"", r.tag())), "{line}");
            assert!(!line.contains('\n'));
            assert_eq!(TraceRecord::from_json(&line).as_ref(), Ok(r), "{line}");
        }
    }

    #[test]
    fn decode_separates_foreign_lines_from_schema_breaks() {
        for foreign in ["", "garbage", "{\"a\":{\"b\":1}}", "{\"node\":1}"] {
            assert_eq!(
                TraceRecord::from_json(foreign),
                Err(DecodeError::NotARecord),
                "{foreign}"
            );
        }
        let invalid = |line: &str, needle: &str| match TraceRecord::from_json(line) {
            Err(DecodeError::Invalid(msg)) => assert!(msg.contains(needle), "{line}: {msg}"),
            other => panic!("{line}: expected Invalid, got {other:?}"),
        };
        invalid("{\"ev\":\"warp\",\"t_ns\":1}", "unknown record tag");
        invalid(
            "{\"ev\":\"tx\",\"t_ns\":1,\"node\":0,\"kind\":\"data\",\"bytes\":9}",
            "\"tx\"",
        );
        invalid(
            "{\"ev\":\"event_gen\",\"t_ns\":1,\"node\":0,\"seq\":-1}",
            "\"seq\"",
        );
        invalid(
            "{\"ev\":\"tx\",\"t_ns\":1,\"node\":0,\"tx\":1,\"kind\":\"beacon\",\"bytes\":9}",
            "beacon",
        );
        invalid(
            "{\"ev\":\"energy\",\"t_ns\":1,\"node\":0,\"state\":\"sleep\",\"joules\":1}",
            "sleep",
        );
        invalid(
            "{\"ev\":\"reinforce\",\"t_ns\":1,\"node\":0,\"from\":1,\"kind\":\"boost\"}",
            "boost",
        );
        invalid(
            "{\"ev\":\"drop\",\"t_ns\":1,\"node\":0,\"reason\":\"gremlins\"}",
            "gremlins",
        );
        invalid(
            "{\"ev\":\"run_start\",\"v\":1,\"seed\":1,\"nodes\":2}",
            "schema version 1",
        );
    }

    #[test]
    fn schema_version_is_stamped_on_run_start() {
        let line = TraceRecord::RunStart { seed: 1, nodes: 2 }.to_json();
        assert!(line.contains("\"v\":2"), "{line}");
    }

    #[test]
    fn float_formatting_is_shortest_roundtrip() {
        let line = TraceRecord::EnergyDebit {
            t_ns: 0,
            node: 0,
            state: "idle",
            joules: 0.1,
        }
        .to_json();
        assert!(line.contains("\"joules\":0.1"), "{line}");
    }

    #[test]
    fn optional_fields_are_omitted_not_null() {
        let line = TraceRecord::PacketDrop {
            t_ns: 1,
            node: 2,
            reason: DropReason::NodeDown,
            tx: None,
        }
        .to_json();
        assert!(!line.contains("tx"), "{line}");
        assert!(line.contains("\"reason\":\"node_down\""), "{line}");
    }

    #[test]
    fn drop_reason_slots_follow_all_order() {
        for (i, r) in DropReason::ALL.iter().enumerate() {
            assert_eq!(r.index(), i);
        }
    }

    #[test]
    fn drop_reason_labels_roundtrip() {
        for r in DropReason::ALL {
            assert_eq!(DropReason::parse(r.name()), Some(r));
        }
        assert_eq!(DropReason::parse("gremlins"), None);
    }
}
