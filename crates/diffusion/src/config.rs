//! Protocol configuration: the two aggregation schemes, the aggregation
//! functions, and every timer/rate from the paper's §5.1 methodology. The
//! values no run varies are constants, named after their `DESIGN.md` §3
//! row; [`DiffusionConfig`] holds the ones a figure or ablation sweeps.

use wsn_sim::{SimDuration, SimTime};

/// Interval between data events at each source (DESIGN §3 "Event rate":
/// 2 events/s, so 0.5 s).
pub(crate) const EVENT_PERIOD: SimDuration = SimDuration::from_millis(500);

/// Period of the sink's interest refresh flood (DESIGN §3 "Interest
/// period / gradient timeout": 5 s).
pub(crate) const INTEREST_PERIOD: SimDuration = SimDuration::from_secs(5);

/// Expiry of exploratory gradients set up by interests (DESIGN §3
/// "Interest period / gradient timeout": 15 s).
pub(crate) const GRADIENT_TIMEOUT: SimDuration = SimDuration::from_secs(15);

/// Event (and exploratory-event) packet size (DESIGN §3 "Packet sizes":
/// 64 B).
pub(crate) const EVENT_BYTES: u32 = 64;

/// Size of every other message (DESIGN §3 "Packet sizes": 36 B).
pub(crate) const CONTROL_BYTES: u32 = 36;

/// Bytes per data item of a linear aggregate (DESIGN §3 "Linear
/// aggregation": 28 B).
pub(crate) const LINEAR_ITEM_BYTES: u32 = 28;

/// Fixed header bytes of a linear aggregate (DESIGN §3 "Linear
/// aggregation": 36 B, so a single-item aggregate is one 64-byte event).
pub(crate) const LINEAR_HEADER_BYTES: u32 = 36;

/// When sources begin detecting the phenomenon (DESIGN §3 "Source start":
/// 5 s, so that a few interest floods come first).
pub(crate) const SOURCE_START: SimDuration = SimDuration::from_secs(5);

/// Maximum random delay before unicasting data and control messages, and
/// before a node first sends its own interest or exploratory event (DESIGN
/// §3 "Send jitter": 10 ms).
pub(crate) const SEND_JITTER: SimDuration = SimDuration::from_millis(10);

/// Maximum random delay before re-flooding an interest or an exploratory
/// event, and before the flooding baseline's rebroadcast (DESIGN §9.3:
/// 300 ms). It de-synchronizes the floods; smaller values make first-copy
/// arrival order track path latency more closely (the signal the
/// opportunistic scheme reinforces on) at the price of a denser, more
/// collision-prone flood.
pub(crate) const FLOOD_JITTER: SimDuration = SimDuration::from_millis(300);

/// The event round at time `now` — derived from time, not a counter, so
/// that sources stay synchronized across failures ("sources can be
/// synchronized if they are triggered by the same phenomena").
pub(crate) fn round_at(now: SimTime) -> u32 {
    let elapsed = now.saturating_duration_since(SimTime::ZERO + SOURCE_START);
    u32::try_from(elapsed.as_nanos() / EVENT_PERIOD.as_nanos()).expect("round exceeds u32")
}

/// Delay from `now` until a source's next event: the next round boundary
/// (exact, so rounds stay aligned).
pub(crate) fn next_generate_delay(now: SimTime) -> SimDuration {
    let period = EVENT_PERIOD.as_nanos();
    let start = SOURCE_START.as_nanos();
    let now_ns = now.as_nanos();
    let next = if now_ns < start {
        start
    } else {
        start + ((now_ns - start) / period + 1) * period
    };
    SimDuration::from_nanos(next - now_ns)
}

/// Which directed-diffusion instantiation a run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// The prior instantiation: reinforce the empirically lowest-delay path
    /// (the neighbor that delivered the first copy of a previously unseen
    /// exploratory event); aggregation happens only where such paths happen
    /// to overlap.
    Opportunistic,
    /// The paper's contribution: construct a greedy incremental tree. The
    /// sink delays reinforcement by `T_p`, compares exploratory energy costs
    /// `E` against incremental costs `C` advertised along the existing tree,
    /// and truncates inefficient branches with a weighted set cover of
    /// sources.
    Greedy,
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Scheme::Opportunistic => write!(f, "opportunistic"),
            Scheme::Greedy => write!(f, "greedy"),
        }
    }
}

/// How aggregates are sized (paper §5.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AggregationFn {
    /// Perfect aggregation: an aggregate is the size of a single event
    /// regardless of how many data items it carries.
    Perfect,
    /// Linear aggregation: `z(S) = 28·d + 36` bytes for `d` data items —
    /// lossless packing where only per-transmission overhead is saved (the
    /// paper's 28-byte items and 36-byte header).
    Linear,
}

impl AggregationFn {
    /// The size in bytes of an aggregate carrying `items` data items.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero — empty aggregates are never transmitted.
    pub fn aggregate_bytes(&self, items: usize) -> u32 {
        assert!(items > 0, "aggregates carry at least one item");
        match self {
            AggregationFn::Perfect => EVENT_BYTES,
            AggregationFn::Linear => {
                u32::try_from(items).expect("item count") * LINEAR_ITEM_BYTES + LINEAR_HEADER_BYTES
            }
        }
    }
}

/// The protocol parameters that runs vary: the scheme, the aggregation
/// function (Figure 10) and the five timings the `ablations` harness
/// sweeps. Defaults reproduce the paper's §5.1 methodology (see
/// `DESIGN.md` §3 for the OCR restoration table); every other parameter is
/// a constant of this crate.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffusionConfig {
    /// Aggregation scheme under test.
    pub scheme: Scheme,
    /// Aggregate sizing function.
    pub aggregation: AggregationFn,
    /// Interval between exploratory events (one in 50 s).
    pub exploratory_interval: SimDuration,
    /// Expiry of data gradients set up by reinforcement. Must exceed two
    /// exploratory intervals so the tree survives between rounds (110 s).
    pub data_gradient_timeout: SimDuration,
    /// The aggregation delay `T_a`: how long an aggregation point holds data
    /// before flushing (0.5 s).
    pub aggregation_delay: SimDuration,
    /// The positive-reinforcement timer `T_p` at the sink (greedy only, 1 s).
    pub reinforce_delay: SimDuration,
    /// The negative-reinforcement window `T_n` (2 s = 4·T_a).
    pub truncation_window: SimDuration,
}

impl Default for DiffusionConfig {
    fn default() -> Self {
        DiffusionConfig {
            scheme: Scheme::Greedy,
            aggregation: AggregationFn::Perfect,
            exploratory_interval: SimDuration::from_secs(50),
            data_gradient_timeout: SimDuration::from_secs(110),
            aggregation_delay: SimDuration::from_millis(500),
            reinforce_delay: SimDuration::from_secs(1),
            truncation_window: SimDuration::from_secs(2),
        }
    }
}

impl DiffusionConfig {
    /// A configuration for the given scheme with all other parameters at the
    /// paper's defaults.
    pub fn for_scheme(scheme: Scheme) -> Self {
        DiffusionConfig {
            scheme,
            ..DiffusionConfig::default()
        }
    }

    /// Events per exploratory interval (the paper: one exploratory event per
    /// 100 generated events).
    pub fn rounds_per_exploratory(&self) -> u32 {
        u32::try_from((self.exploratory_interval.as_nanos() / EVENT_PERIOD.as_nanos()).max(1))
            .expect("exploratory interval too long")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DiffusionConfig::default();
        assert_eq!(EVENT_PERIOD, SimDuration::from_millis(500));
        assert_eq!(c.exploratory_interval, SimDuration::from_secs(50));
        assert_eq!(c.aggregation_delay, SimDuration::from_millis(500));
        assert_eq!(c.reinforce_delay, SimDuration::from_secs(1));
        // T_n = 4 · T_a, as stated in §4.3.
        assert_eq!(c.truncation_window, c.aggregation_delay.saturating_mul(4));
        assert_eq!(EVENT_BYTES, 64);
        assert_eq!(CONTROL_BYTES, 36);
    }

    #[test]
    fn perfect_aggregation_is_constant_size() {
        let f = AggregationFn::Perfect;
        assert_eq!(f.aggregate_bytes(1), 64);
        assert_eq!(f.aggregate_bytes(10), 64);
    }

    #[test]
    fn linear_aggregation_matches_paper_formula() {
        let f = AggregationFn::Linear;
        // A single item is exactly one event packet.
        assert_eq!(f.aggregate_bytes(1), 64);
        // d items: 28·d + 36.
        assert_eq!(f.aggregate_bytes(5), 28 * 5 + 36);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn empty_aggregate_size_panics() {
        AggregationFn::Perfect.aggregate_bytes(0);
    }

    #[test]
    fn rounds_per_exploratory_default_is_100() {
        assert_eq!(DiffusionConfig::default().rounds_per_exploratory(), 100);
    }

    #[test]
    fn scheme_display() {
        assert_eq!(Scheme::Greedy.to_string(), "greedy");
        assert_eq!(Scheme::Opportunistic.to_string(), "opportunistic");
    }
}
