//! Property-based tests for the simulation kernel.

use proptest::prelude::*;
use wsn_sim::{EventQueue, SimDuration, SimRng, SimTime, Simulator};

proptest! {
    /// Events pop in non-decreasing time order regardless of push order.
    #[test]
    fn queue_pops_in_time_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        let mut count = 0;
        while let Some((t, _, _)) = q.pop() {
            prop_assert!(t >= last, "queue went backwards");
            last = t;
            count += 1;
        }
        prop_assert_eq!(count, times.len());
    }

    /// Equal-time events preserve insertion order (stable tie-breaking).
    #[test]
    fn queue_ties_are_fifo(groups in prop::collection::vec((0u64..100, 1usize..5), 1..50)) {
        let mut q = EventQueue::new();
        let mut expected: Vec<(u64, usize)> = Vec::new();
        let mut seq = 0usize;
        for &(t, n) in &groups {
            for _ in 0..n {
                q.push(SimTime::from_nanos(t), seq);
                expected.push((t, seq));
                seq += 1;
            }
        }
        expected.sort_by_key(|&(t, s)| (t, s));
        let mut popped = Vec::new();
        while let Some((t, _, v)) = q.pop() {
            popped.push((t.as_nanos(), v));
        }
        prop_assert_eq!(popped, expected);
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn cancellation_is_exact(
        times in prop::collection::vec(0u64..1000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                kept.push(i);
            }
        }
        prop_assert_eq!(q.len(), kept.len());
        let mut popped: Vec<usize> = Vec::new();
        while let Some((_, _, v)) = q.pop() {
            popped.push(v);
        }
        popped.sort_unstable();
        prop_assert_eq!(popped, kept);
    }

    /// Random interleavings of push, cancel and pop agree with a plain list
    /// ordered by `(time, push order)`: every pop, every cancel's answer
    /// (for live, fired and cancelled ids, across slot reuse), and
    /// `peek_time` and `len` after each step. Times come from a handful of
    /// instants, so most pushes tie with another pending event.
    #[test]
    fn queue_matches_a_reference_list(
        ops in prop::collection::vec((0u8..10, 0u64..6, any::<usize>()), 1..300),
    ) {
        let mut q = EventQueue::new();
        // Pending events as (time, push order); the value popped is the
        // push order.
        let mut model: Vec<(u64, usize)> = Vec::new();
        // Every id issued, by push order.
        let mut ids = Vec::new();
        for (kind, time, pick) in ops {
            match kind {
                0..=4 => {
                    model.push((time, ids.len()));
                    ids.push(q.push(SimTime::from_nanos(time), ids.len()));
                }
                5..=6 if !ids.is_empty() => {
                    let order = pick % ids.len();
                    let pending = model.iter().position(|&(_, o)| o == order);
                    prop_assert_eq!(q.cancel(ids[order]), pending.is_some());
                    if let Some(at) = pending {
                        model.remove(at);
                    }
                }
                _ => {
                    let first = model.iter().enumerate().min_by_key(|&(_, &e)| e).map(|(at, _)| at);
                    let want = first.map(|at| model.remove(at));
                    let got = q.pop().map(|(t, id, v)| {
                        assert_eq!(id, ids[v], "pop returns the id push issued");
                        (t.as_nanos(), v)
                    });
                    prop_assert_eq!(got, want);
                }
            }
            let earliest = model.iter().map(|&(t, _)| t).min();
            prop_assert_eq!(q.peek_time().map(SimTime::as_nanos), earliest);
            prop_assert_eq!(q.len(), model.len());
            prop_assert_eq!(q.is_empty(), model.is_empty());
        }
    }

    /// The simulator clock never runs backwards and visits every event.
    #[test]
    fn simulator_clock_is_monotone(delays in prop::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_after(SimDuration::from_nanos(d), d);
        }
        let mut last = SimTime::ZERO;
        let mut n = 0;
        while sim.step().is_some() {
            prop_assert!(sim.now() >= last);
            last = sim.now();
            n += 1;
        }
        prop_assert_eq!(n, delays.len());
        prop_assert_eq!(sim.events_processed(), delays.len() as u64);
    }

    /// Same seed and stream produce the same sequence; different streams
    /// produce different sequences (overwhelmingly).
    #[test]
    fn rng_streams_are_reproducible_and_independent(seed in any::<u64>(), stream in any::<u64>()) {
        let mut a = SimRng::from_seed_stream(seed, stream);
        let mut b = SimRng::from_seed_stream(seed, stream);
        let seq_a: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let seq_b: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        prop_assert_eq!(&seq_a, &seq_b);
        let mut c = SimRng::from_seed_stream(seed, stream.wrapping_add(1));
        let seq_c: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        prop_assert_ne!(&seq_a, &seq_c);
    }

    /// Bounded draws respect their bound and hit both halves of the range.
    #[test]
    fn rng_below_is_bounded(seed in any::<u64>(), n in 2u64..1000) {
        let mut rng = SimRng::from_seed_stream(seed, 0);
        let draws: Vec<u64> = (0..200).map(|_| rng.below(n)).collect();
        prop_assert!(draws.iter().all(|&x| x < n));
        if n >= 4 {
            prop_assert!(draws.iter().any(|&x| x < n / 2));
            prop_assert!(draws.iter().any(|&x| x >= n / 2));
        }
    }

    /// `step_until` never overshoots the deadline and drains exactly the
    /// events at or before it.
    #[test]
    fn step_until_respects_deadline(
        delays in prop::collection::vec(1u64..10_000, 1..50),
        deadline in 1u64..10_000,
    ) {
        let mut sim = Simulator::new();
        for &d in &delays {
            sim.schedule_after(SimDuration::from_nanos(d), ());
        }
        let deadline_t = SimTime::from_nanos(deadline);
        let mut fired = 0;
        while sim.step_until(deadline_t).is_some() {
            prop_assert!(sim.now() <= deadline_t);
            fired += 1;
        }
        prop_assert_eq!(sim.now(), deadline_t);
        let expected = delays.iter().filter(|&&d| d <= deadline).count();
        prop_assert_eq!(fired, expected);
    }

    /// Time arithmetic: (t + d) - t == d for all representable values.
    #[test]
    fn time_addition_round_trips(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 2) {
        let base = SimTime::from_nanos(t);
        let dur = SimDuration::from_nanos(d);
        prop_assert_eq!((base + dur) - base, dur);
    }
}
