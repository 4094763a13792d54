//! The zero-allocation tripwire for the dispatch hot path.
//!
//! PR 5 made the steady-state event loop allocation-free: the slab
//! [`EventQueue`](wsn::sim::EventQueue) reuses vacated slots, the PHY
//! iterates neighbors through split borrows, the engine recycles one
//! `TxOutcome` scratch across `TxEnd` dispatches, and MAC queues hold
//! `Rc`-wrapped packets. This test pins that property with a counting
//! [`GlobalAlloc`] so a future PR that reintroduces a per-event `clone()`
//! or hash insert fails loudly instead of silently costing 15% throughput.
//!
//! The binary is harness-free (`harness = false` in `Cargo.toml`): the
//! allocation counter is process-global, and libtest's harness threads
//! allocate concurrently with a running test, so the measurements run in a
//! plain `main` on the only live thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use wsn::metrics::MetricsRegistry;
use wsn::net::{
    Ctx, MetricsOptions, NetConfig, NetMetricIds, Network, Packet, Position, Protocol, Topology,
};
use wsn::sim::{EventQueue, SimDuration, SimTime};

/// The system allocator with an allocation counter bolted on. Frees are not
/// counted — the tripwire is about allocation pressure, and a steady state
/// that allocates nothing has nothing to free.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A protocol that keeps one timer in flight per node forever — pure kernel
/// churn (schedule → dispatch → reschedule), no packets.
struct TimerChurn;

impl Protocol for TimerChurn {
    type Msg = ();
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        // Spread phases so the queue sees interleaved orders, not lockstep.
        let phase = ctx.jitter(SimDuration::from_millis(100));
        ctx.set_timer(SimDuration::from_millis(50) + phase, ());
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, (), ()>, _p: &Packet<()>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, (), ()>, _t: ()) {
        ctx.set_timer(SimDuration::from_millis(50), ());
    }
}

/// A protocol that broadcasts a fixed-size frame on every timer tick —
/// drives the full PHY/MAC path (carrier sense, backoff, receptions) under
/// contention. Counts its own sends so the test can relate allocations to
/// packets.
struct BroadcastStorm {
    sent: u64,
}

impl Protocol for BroadcastStorm {
    type Msg = ();
    type Timer = ();

    fn on_start(&mut self, ctx: &mut Ctx<'_, (), ()>) {
        let phase = ctx.jitter(SimDuration::from_millis(200));
        ctx.set_timer(SimDuration::from_millis(100) + phase, ());
    }

    fn on_packet(&mut self, _ctx: &mut Ctx<'_, (), ()>, _p: &Packet<()>) {}

    fn on_timer(&mut self, ctx: &mut Ctx<'_, (), ()>, _t: ()) {
        ctx.broadcast(36, ());
        self.sent += 1;
        ctx.set_timer(SimDuration::from_millis(100), ());
    }
}

/// A 5×5 grid with 30 m spacing and 40 m radio range — every interior node
/// has 4 neighbors, enough for real contention without partitioning.
fn grid_topology() -> Topology {
    let mut positions = Vec::new();
    for row in 0..5 {
        for col in 0..5 {
            positions.push(Position::new(col as f64 * 30.0, row as f64 * 30.0));
        }
    }
    Topology::new(positions, 40.0)
}

fn total_sent(net: &Network<BroadcastStorm>) -> u64 {
    net.protocols().map(|(_, p)| p.sent).sum()
}

fn main() {
    // ---- Phase 1: the raw event queue allocates nothing once warm. ----
    let mut queue: EventQueue<u64> = EventQueue::new();
    // Warmup: reach the high-water mark of concurrent events (the slab and
    // the heap both grow to capacity here, never again). The churn loop's
    // cancel tombstones transiently enlarge the heap past the live count,
    // so warm well past the steady population of 64.
    let mut ids = Vec::with_capacity(64);
    for i in 0..512u64 {
        queue.push(SimTime::from_nanos(i), i);
    }
    while !queue.is_empty() {
        queue.pop();
    }
    for i in 0..64u64 {
        ids.push(queue.push(SimTime::from_nanos(512 + i), 512 + i));
    }
    let baseline = allocs();
    let mut t = 576u64;
    for round in 0..10_000u64 {
        // Cancel one, pop one, push two back: constant churn through the
        // free list with an occasional tombstone on the heap.
        let victim = ids[(round % 64) as usize];
        queue.cancel(victim);
        let popped = queue.pop().expect("queue is never empty here");
        let _ = popped;
        ids[(round % 64) as usize] = queue.push(SimTime::from_nanos(t), t);
        t += 1;
        queue.push(SimTime::from_nanos(t), t);
        t += 1;
        // Keep the population bounded: drain the extra event.
        queue.pop();
    }
    assert_eq!(
        allocs() - baseline,
        0,
        "EventQueue push/pop/cancel allocated in steady state"
    );

    // ---- Phase 2: a timer-churn network run allocates nothing. ----
    let mut net = Network::new(grid_topology(), NetConfig::default(), 7, |_| TimerChurn);
    net.run_until(SimTime::from_secs(10));
    let warm_events = net.events_processed();
    let baseline = allocs();
    net.run_until(SimTime::from_secs(60));
    let dispatched = net.events_processed() - warm_events;
    assert!(dispatched > 20_000, "churn run too small: {dispatched}");
    assert_eq!(
        allocs() - baseline,
        0,
        "timer dispatch allocated in steady state ({dispatched} events)"
    );

    // ---- Phase 3: the broadcast path allocates exactly once per packet
    // (the `Rc::new` at MAC enqueue), independent of neighbor count. ----
    let mut net = Network::new(grid_topology(), NetConfig::default(), 11, |_| {
        BroadcastStorm { sent: 0 }
    });
    net.run_until(SimTime::from_secs(10));
    let warm_sent = total_sent(&net);
    let warm_events = net.events_processed();
    let baseline = allocs();
    net.run_until(SimTime::from_secs(60));
    let sent = total_sent(&net) - warm_sent;
    let dispatched = net.events_processed() - warm_events;
    let allocated = allocs() - baseline;
    assert!(sent > 5_000, "storm run too small: {sent} packets");
    assert!(
        dispatched > sent,
        "broadcasts must fan out into more events"
    );
    assert_eq!(
        allocated, sent,
        "broadcast path must allocate exactly the one packet Rc per send \
         ({sent} sends, {dispatched} events)"
    );

    // ---- Phase 4: the broadcast path with the metrics registry installed
    // still allocates exactly once per packet. Recording is an array index
    // plus an integer add, and snapshot encoding reuses one scratch line.
    // The `mreg` header written at install sizes that line (about 1 KB),
    // and no delta line here comes near it (under 200 bytes, even after
    // `t_ns` gains a digit at t=100 s), so sampling never grows it. The
    // window is measured well past that digit change. ----
    let mut net = Network::new(grid_topology(), NetConfig::default(), 11, |_| {
        BroadcastStorm { sent: 0 }
    });
    let mut reg = MetricsRegistry::new();
    let ids = NetMetricIds::register(&mut reg, NetConfig::default().mac);
    net.install_metrics(
        reg,
        ids,
        MetricsOptions::default(),
        Some(Box::new(std::io::sink())),
    );
    net.run_until(SimTime::from_secs(660));
    let warm_sent = total_sent(&net);
    let baseline = allocs();
    net.run_until(SimTime::from_secs(720));
    let sent = total_sent(&net) - warm_sent;
    let allocated = allocs() - baseline;
    assert!(sent > 5_000, "metrics storm run too small: {sent} packets");
    assert_eq!(
        allocated, sent,
        "metrics recording/snapshots must not allocate in steady state \
         ({sent} sends)"
    );

    println!("zero_alloc: all steady-state allocation invariants hold");
}
