//! The simulator: simulated clock plus pending-event queue.
//!
//! [`Simulator`] is deliberately a *pull*-style kernel: the owner (the network
//! engine in `wsn-net`) calls [`Simulator::step`] in a loop and interprets
//! each event itself. That keeps the kernel free of callbacks and trait
//! objects, and keeps the borrow checker happy when event handling needs
//! mutable access to large engine state.

use crate::event::{EventId, EventQueue};
use crate::time::{SimDuration, SimTime};

/// Error returned when scheduling an event in the past.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The current simulated time.
    pub now: SimTime,
    /// The requested (earlier) time.
    pub requested: SimTime,
}

impl std::fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "cannot schedule at {} which is before the current time {}",
            self.requested, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

/// Cheap run accounting: how much work a simulation did and where its clock
/// ended. The parallel run-execution layer (`wsn-core`'s runner) reports
/// this per job, and its watchdog budgets the `events_processed` count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunAccounting {
    /// Events dispatched so far.
    pub events_processed: u64,
    /// The simulated clock at sampling time.
    pub final_time: SimTime,
    /// Events still pending in the queue.
    pub pending: usize,
}

/// A discrete-event simulator over events of type `E`.
///
/// # Examples
///
/// ```
/// use wsn_sim::{SimDuration, Simulator};
///
/// let mut sim: Simulator<&str> = Simulator::new();
/// sim.schedule_after(SimDuration::from_secs(1), "tick");
/// sim.schedule_after(SimDuration::from_secs(2), "tock");
/// let mut seen = Vec::new();
/// while let Some((_, event)) = sim.step() {
///     seen.push(event);
/// }
/// assert_eq!(seen, ["tick", "tock"]);
/// assert_eq!(sim.now().as_secs_f64(), 2.0);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with no pending events.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    /// A snapshot of the run accounting (events dispatched, clock, backlog).
    pub fn accounting(&self) -> RunAccounting {
        RunAccounting {
            events_processed: self.processed,
            final_time: self.now,
            pending: self.queue.len(),
        }
    }

    /// Schedules an event at an absolute time.
    ///
    /// # Errors
    ///
    /// Returns [`SchedulePastError`] if `at` is earlier than the current time.
    /// Scheduling at exactly the current time is allowed; the event fires
    /// after all events already queued for this instant.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> Result<EventId, SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError {
                now: self.now,
                requested: at,
            });
        }
        Ok(self.queue.push(at, event))
    }

    /// Schedules an event `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) -> EventId {
        self.queue.push(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `false` if it already fired or was
    /// already cancelled.
    pub fn cancel(&mut self, id: EventId) -> bool {
        self.queue.cancel(id)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    ///
    /// Returns `None` when no events remain.
    pub fn step(&mut self) -> Option<(EventId, E)> {
        let (time, id, event) = self.queue.pop()?;
        debug_assert!(time >= self.now, "event queue went backwards");
        self.now = time;
        self.processed += 1;
        Some((id, event))
    }

    /// Pops the next event only if it fires at or before `deadline`.
    ///
    /// When the next event is later than `deadline` (or the queue is empty)
    /// the clock advances to `deadline` and `None` is returned — useful for
    /// running a simulation for a fixed horizon.
    pub fn step_until(&mut self, deadline: SimTime) -> Option<(EventId, E)> {
        match self.queue.peek_time() {
            Some(t) if t <= deadline => self.step(),
            _ => {
                if deadline > self.now {
                    self.now = deadline;
                }
                None
            }
        }
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Simulator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances_with_events() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(5), ());
        assert_eq!(sim.now(), SimTime::ZERO);
        sim.step();
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn scheduling_in_past_errors() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(2), "later");
        sim.step();
        let err = sim.schedule_at(SimTime::from_secs(1), "past").unwrap_err();
        assert_eq!(err.now, SimTime::from_secs(2));
        assert_eq!(err.requested, SimTime::from_secs(1));
        assert!(err.to_string().contains("before the current time"));
    }

    #[test]
    fn scheduling_at_now_is_fifo_after_current() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::ZERO, 1).unwrap();
        sim.schedule_at(SimTime::ZERO, 2).unwrap();
        assert_eq!(sim.step().map(|(_, e)| e), Some(1));
        assert_eq!(sim.step().map(|(_, e)| e), Some(2));
    }

    #[test]
    fn step_until_stops_at_deadline() {
        let mut sim = Simulator::new();
        sim.schedule_after(SimDuration::from_secs(10), "far");
        assert!(sim.step_until(SimTime::from_secs(3)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(3));
        // The far event is still pending.
        assert_eq!(sim.pending(), 1);
        assert_eq!(
            sim.step_until(SimTime::from_secs(20)).map(|(_, e)| e),
            Some("far")
        );
        assert_eq!(sim.now(), SimTime::from_secs(10));
    }

    #[test]
    fn step_until_on_empty_advances_clock() {
        let mut sim: Simulator<()> = Simulator::new();
        assert!(sim.step_until(SimTime::from_secs(7)).is_none());
        assert_eq!(sim.now(), SimTime::from_secs(7));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut sim = Simulator::new();
        let id = sim.schedule_after(SimDuration::from_secs(1), "a");
        sim.schedule_after(SimDuration::from_secs(2), "b");
        assert!(sim.cancel(id));
        assert_eq!(sim.step().map(|(_, e)| e), Some("b"));
        assert_eq!(sim.events_processed(), 1);
    }

    #[test]
    fn processed_counter_counts_only_fired() {
        let mut sim = Simulator::new();
        for i in 0..10 {
            sim.schedule_after(SimDuration::from_secs(i), i);
        }
        let mut n = 0;
        while sim.step().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
        assert_eq!(sim.events_processed(), 10);
    }
}
