//! Radio energy accounting.
//!
//! The paper modified ns-2's radio energy model to mimic realistic sensor
//! radios (Sensoria WINS NG): idle power ≈ 10% of receive power and ≈ 5% of
//! transmit power. [`EnergyModel::PAPER`] carries those constants; the
//! [`EnergyMeter`] integrates power over the time each node spends in each
//! radio state.

use wsn_sim::SimTime;

/// The radio's operating state at an instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Node failed / switched off: consumes nothing.
    Off,
    /// Powered, listening to an idle channel.
    Idle,
    /// At least one in-range transmission is audible.
    Receiving,
    /// Actively transmitting.
    Transmitting,
}

impl RadioState {
    /// The state's short name as it appears in trace records, from
    /// [`wsn_trace::ENERGY_STATES`] ("off", "idle", "rx", "tx").
    pub fn name(self) -> &'static str {
        wsn_trace::ENERGY_STATES[state_index(self)]
    }
}

/// Power draw of each radio state, in watts.
///
/// # Examples
///
/// ```
/// use wsn_net::EnergyModel;
///
/// let m = EnergyModel::PAPER;
/// assert!(m.idle_w < m.rx_w && m.rx_w < m.tx_w);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyModel {
    /// Idle-listening power, watts.
    pub idle_w: f64,
    /// Receive power, watts.
    pub rx_w: f64,
    /// Transmit power, watts.
    pub tx_w: f64,
}

impl EnergyModel {
    /// The paper's model (DESIGN §3 "Energy"): idle 35 mW, receive
    /// 395 mW, transmit 660 mW. Every [`EnergyMeter`] runs on it.
    pub const PAPER: EnergyModel = EnergyModel {
        idle_w: 0.035,
        rx_w: 0.395,
        tx_w: 0.660,
    };

    /// Power drawn in `state`, watts.
    pub fn power(&self, state: RadioState) -> f64 {
        match state {
            RadioState::Off => 0.0,
            RadioState::Idle => self.idle_w,
            RadioState::Receiving => self.rx_w,
            RadioState::Transmitting => self.tx_w,
        }
    }
}

/// Integrates a node's dissipated energy over its radio-state timeline,
/// at the power of [`EnergyModel::PAPER`].
///
/// Call [`EnergyMeter::set_state`] at every state transition; the meter
/// accumulates `power(previous state) × elapsed`. Call
/// [`EnergyMeter::dissipated_at`] to read the total including the partially
/// elapsed current state.
///
/// # Examples
///
/// ```
/// use wsn_net::{EnergyMeter, RadioState};
/// use wsn_sim::SimTime;
///
/// let mut meter = EnergyMeter::new(SimTime::ZERO);
/// meter.set_state(RadioState::Transmitting, SimTime::from_secs(10));
/// // 10 s idle, then 1 s transmitting:
/// let j = meter.dissipated_at(SimTime::from_secs(11));
/// assert!((j - (10.0 * 0.035 + 1.0 * 0.660)).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EnergyMeter {
    state: RadioState,
    since: SimTime,
    /// Joules accumulated per state: [off, idle, rx, tx].
    joules: [f64; 4],
}

pub(crate) fn state_index(state: RadioState) -> usize {
    match state {
        RadioState::Off => 0,
        RadioState::Idle => 1,
        RadioState::Receiving => 2,
        RadioState::Transmitting => 3,
    }
}

impl EnergyMeter {
    /// Creates a meter starting in [`RadioState::Idle`] at `now`.
    pub fn new(now: SimTime) -> Self {
        EnergyMeter {
            state: RadioState::Idle,
            since: now,
            joules: [0.0; 4],
        }
    }

    /// The current radio state.
    pub fn state(&self) -> RadioState {
        self.state
    }

    /// Transitions to `state` at time `now`, accumulating energy for the
    /// interval spent in the previous state.
    ///
    /// Returns the closed interval as `(previous state, joules dissipated in
    /// it)` so instrumentation can mirror the meter debit-by-debit: summing
    /// the returned joules grouped per state reproduces the meter's internal
    /// buckets bit-for-bit.
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the previous transition (time runs forward).
    pub fn set_state(&mut self, state: RadioState, now: SimTime) -> (RadioState, f64) {
        let prev = self.state;
        let joules = self.accumulate(now);
        self.state = state;
        (prev, joules)
    }

    /// Total energy dissipated up to `now`, in joules, including the
    /// partially elapsed current state. Does not change the meter's state.
    pub fn dissipated_at(&self, now: SimTime) -> f64 {
        let pending =
            now.duration_since(self.since).as_secs_f64() * EnergyModel::PAPER.power(self.state);
        self.joules.iter().sum::<f64>() + pending
    }

    /// Energy dissipated in one radio state up to `now`, joules.
    pub fn dissipated_in_state_at(&self, state: RadioState, now: SimTime) -> f64 {
        let mut j = self.joules[state_index(state)];
        if state == self.state {
            j += now.duration_since(self.since).as_secs_f64() * EnergyModel::PAPER.power(state);
        }
        j
    }

    /// Communication (transmit + receive) energy up to `now`, joules — the
    /// component that actually differs between aggregation schemes; the idle
    /// floor is a scheme-independent constant.
    pub fn activity_at(&self, now: SimTime) -> f64 {
        self.dissipated_in_state_at(RadioState::Transmitting, now)
            + self.dissipated_in_state_at(RadioState::Receiving, now)
    }

    fn accumulate(&mut self, now: SimTime) -> f64 {
        let dt = now.duration_since(self.since).as_secs_f64();
        let joules = dt * EnergyModel::PAPER.power(self.state);
        self.joules[state_index(self.state)] += joules;
        self.since = now;
        joules
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn paper_model_ratios_hold() {
        let m = EnergyModel::PAPER;
        // "idle time power dissipation was about 35mW, or nearly 10% of its
        // receive power dissipation (395mW), and about 5% of its transmit
        // power dissipation (660mW)".
        assert!((m.idle_w / m.rx_w - 0.0886).abs() < 0.01);
        assert!((m.idle_w / m.tx_w - 0.053).abs() < 0.01);
    }

    #[test]
    fn off_draws_nothing() {
        let mut meter = EnergyMeter::new(t(0));
        meter.set_state(RadioState::Off, t(0));
        assert_eq!(meter.dissipated_at(t(100)), 0.0);
    }

    #[test]
    fn integrates_each_state() {
        let mut meter = EnergyMeter::new(t(0));
        meter.set_state(RadioState::Receiving, t(2)); // 2 s idle
        meter.set_state(RadioState::Transmitting, t(5)); // 3 s rx
        meter.set_state(RadioState::Idle, t(6)); // 1 s tx
        let expected = 2.0 * 0.035 + 3.0 * 0.395 + 1.0 * 0.660;
        assert!((meter.dissipated_at(t(6)) - expected).abs() < 1e-9);
    }

    #[test]
    fn dissipated_at_includes_partial_interval() {
        let meter = EnergyMeter::new(t(0));
        let j = meter.dissipated_at(t(10));
        assert!((j - 0.35).abs() < 1e-9);
    }

    #[test]
    fn redundant_transitions_are_harmless() {
        let mut meter = EnergyMeter::new(t(0));
        for s in 1..=10 {
            meter.set_state(RadioState::Idle, t(s));
        }
        assert!((meter.dissipated_at(t(10)) - 0.35).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn time_reversal_panics() {
        let mut meter = EnergyMeter::new(t(5));
        meter.set_state(RadioState::Idle, t(1));
    }

    #[test]
    fn per_state_breakdown_sums_to_total() {
        let mut meter = EnergyMeter::new(t(0));
        meter.set_state(RadioState::Receiving, t(2));
        meter.set_state(RadioState::Transmitting, t(5));
        meter.set_state(RadioState::Idle, t(6));
        let now = t(10);
        let total: f64 = [
            RadioState::Off,
            RadioState::Idle,
            RadioState::Receiving,
            RadioState::Transmitting,
        ]
        .iter()
        .map(|&s| meter.dissipated_in_state_at(s, now))
        .sum();
        assert!((total - meter.dissipated_at(now)).abs() < 1e-9);
        // Activity = rx + tx only.
        let expected_activity = 3.0 * 0.395 + 1.0 * 0.660;
        assert!((meter.activity_at(now) - expected_activity).abs() < 1e-9);
    }

    #[test]
    fn set_state_reports_the_closed_interval() {
        let mut meter = EnergyMeter::new(t(0));
        let (prev, j) = meter.set_state(RadioState::Transmitting, t(10));
        assert_eq!(prev, RadioState::Idle);
        assert!((j - 0.35).abs() < 1e-12);
        let (prev, j) = meter.set_state(RadioState::Idle, t(11));
        assert_eq!(prev, RadioState::Transmitting);
        assert!((j - 0.660).abs() < 1e-12);
        // Mirroring the returned debits reproduces the meter totals.
        assert!((meter.dissipated_at(t(11)) - (0.35 + 0.660)).abs() < 1e-12);
    }

    #[test]
    fn state_names_match_trace_schema() {
        assert_eq!(
            [
                RadioState::Off.name(),
                RadioState::Idle.name(),
                RadioState::Receiving.name(),
                RadioState::Transmitting.name(),
            ],
            wsn_trace::ENERGY_STATES
        );
    }
}
