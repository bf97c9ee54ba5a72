//! Total-order conformance of the calendar-queue [`EventQueue`] against
//! the `BinaryHeap` min-queue it replaced.
//!
//! The queue's contract is a *total* order: ascending `(time, scheduling
//! order)`. The reference model here is exactly what the old
//! implementation was — a binary heap of `(time, seq)` keys with `seq`
//! assigned from a monotone counter at scheduling time — so any
//! divergence in pop sequence is a regression in the replay-identity
//! foundation. Workloads are seeded and mix the shapes that stress a
//! calendar queue: same-tick bursts (the synchronizers schedule a whole
//! round's messages at one tick), short link latencies, far-future timers
//! (the `Retransmitter` backoff caps and beyond, past the wheel horizon),
//! and interleaved schedule/pop with a monotone `now`.

use dynspread_runtime::event::{EventQueue, VirtualTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The pre-calendar-queue implementation, reduced to its essentials.
struct HeapQueue {
    heap: BinaryHeap<Reverse<(VirtualTime, u64, u32)>>,
    next_seq: u64,
}

impl HeapQueue {
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    fn schedule(&mut self, at: VirtualTime, payload: u32) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn pop_due(&mut self, now: VirtualTime) -> Option<(VirtualTime, u32)> {
        if self
            .heap
            .peek()
            .is_some_and(|Reverse((at, _, _))| *at <= now)
        {
            let Reverse((at, _, payload)) = self.heap.pop().expect("peeked");
            Some((at, payload))
        } else {
            None
        }
    }

    fn pop(&mut self) -> Option<(VirtualTime, u32)> {
        self.heap.pop().map(|Reverse((at, _, p))| (at, p))
    }

    fn next_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Drives both queues through an identical seeded workload, asserting
/// after every operation that they agree.
fn conformance_run(seed: u64, ops: usize, burst_bias: bool) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut now: VirtualTime = 0;
    let mut next_payload = 0u32;
    for _ in 0..ops {
        match rng.gen_range(0..10u32) {
            // Same-tick burst: a round's worth of messages at one time.
            0..=2 => {
                let at = now + rng.gen_range(0..4u64);
                let burst = if burst_bias {
                    rng.gen_range(1..40)
                } else {
                    rng.gen_range(1..6)
                };
                for _ in 0..burst {
                    wheel.schedule(at, next_payload);
                    heap.schedule(at, next_payload);
                    next_payload += 1;
                }
            }
            // Short-latency sends (the link-model range).
            3..=4 => {
                let at = now + rng.gen_range(0..8u64);
                wheel.schedule(at, next_payload);
                heap.schedule(at, next_payload);
                next_payload += 1;
            }
            // Far-future timers: backoff caps and beyond the wheel
            // horizon (1024 ticks), forcing the overflow path.
            5 => {
                let at = now + rng.gen_range(30..5_000u64);
                wheel.schedule(at, next_payload);
                heap.schedule(at, next_payload);
                next_payload += 1;
            }
            // Drain everything due, like a synchronizer's delivery phase.
            6..=7 => loop {
                let (a, b) = (wheel.pop_due(now), heap.pop_due(now));
                assert_eq!(a, b, "pop_due({now}) diverged");
                if a.is_none() {
                    break;
                }
            },
            // Event-engine step: jump the clock to the next entry, pop it.
            8 => {
                assert_eq!(wheel.next_time(), heap.next_time());
                if let Some(at) = heap.next_time() {
                    now = now.max(at);
                    assert_eq!(wheel.pop(), heap.pop());
                }
            }
            // Let virtual time pass.
            _ => now += rng.gen_range(1..20u64),
        }
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel.is_empty(), heap.len() == 0);
    }
    // Full drain must agree to the last entry.
    loop {
        assert_eq!(wheel.next_time(), heap.next_time());
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b, "final drain diverged");
        if a.is_none() {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn calendar_queue_conforms_to_heap_order(seed in 0u64..1_000_000) {
        conformance_run(seed, 300, false);
    }

    #[test]
    fn calendar_queue_conforms_under_heavy_bursts(seed in 0u64..1_000_000) {
        conformance_run(seed, 150, true);
    }
}

#[test]
fn long_horizon_workload_with_repeated_overflow_migrations() {
    // Deterministic torture: clusters separated by gaps larger than the
    // wheel (1024 ticks), each cluster a burst plus stragglers, so every
    // cluster crosses the overflow → wheel migration.
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut payload = 0u32;
    let mut t = 0u64;
    for cluster in 0..30u64 {
        t += 1_100 + cluster * 13;
        for j in 0..12 {
            let at = t + (j % 4) as u64;
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
        }
    }
    loop {
        assert_eq!(wheel.next_time(), heap.next_time());
        let (a, b) = (wheel.pop(), heap.pop());
        assert_eq!(a, b);
        if a.is_none() {
            break;
        }
    }
}

#[test]
fn interleaved_schedule_pop_matches_heap_at_tick_granularity() {
    // The synchronizer pattern: schedule a round's sends at `round +
    // delay`, then drain due arrivals, round by round.
    let mut wheel: EventQueue<u32> = EventQueue::new();
    let mut heap = HeapQueue::new();
    let mut rng = StdRng::seed_from_u64(99);
    let mut payload = 0u32;
    for round in 1..400u64 {
        for _ in 0..rng.gen_range(0..6) {
            let at = round + rng.gen_range(0..3u64);
            wheel.schedule(at, payload);
            heap.schedule(at, payload);
            payload += 1;
        }
        loop {
            let (a, b) = (wheel.pop_due(round), heap.pop_due(round));
            assert_eq!(a, b, "round {round} diverged");
            if a.is_none() {
                break;
            }
        }
    }
    assert_eq!(wheel.len(), heap.len());
}

/// Both queues under one schedule, compared at every pop.
struct Lockstep {
    wheel: EventQueue<u32>,
    heap: HeapQueue,
    next_payload: u32,
}

impl Lockstep {
    fn new() -> Self {
        Lockstep {
            wheel: EventQueue::new(),
            heap: HeapQueue::new(),
            next_payload: 0,
        }
    }

    fn schedule(&mut self, at: VirtualTime, count: usize) {
        for _ in 0..count {
            self.wheel.schedule(at, self.next_payload);
            self.heap.schedule(at, self.next_payload);
            self.next_payload += 1;
        }
    }

    /// Pops everything due at `now` from both; returns how many.
    fn drain_due(&mut self, now: VirtualTime) -> usize {
        let mut popped = 0;
        loop {
            let (a, b) = (self.wheel.pop_due(now), self.heap.pop_due(now));
            assert_eq!(a, b, "pop_due({now}) diverged");
            if a.is_none() {
                assert_eq!(self.wheel.len(), self.heap.len());
                return popped;
            }
            popped += 1;
        }
    }

    /// Pops the earliest entry from both; returns its time.
    fn pop(&mut self) -> Option<VirtualTime> {
        assert_eq!(self.wheel.next_time(), self.heap.next_time());
        let (a, b) = (self.wheel.pop(), self.heap.pop());
        assert_eq!(a, b, "pop diverged");
        a.map(|(at, _)| at)
    }
}

// The three places a bucket's buffer changes hands. A drained bucket gives
// its buffer to the spare pool and the next bucket to fill takes it, so a
// buffer outlives the tick it was grown for; none of that may show in the
// pop order.

#[test]
fn a_bucket_drained_and_refilled_within_its_tick_stays_fifo() {
    let mut q = Lockstep::new();
    for tick in 1..200u64 {
        q.schedule(tick, 30);
        assert_eq!(q.drain_due(tick), 30);
        // The bucket just gave its buffer up; handlers of the drained
        // entries now schedule into the same tick and the next one, in
        // alternation, so two buckets draw on the pool at once.
        for _ in 0..10 {
            q.schedule(tick, 1);
            q.schedule(tick + 1, 2);
        }
        assert_eq!(q.drain_due(tick), 10);
        // Drained a second time within the tick, refilled a third.
        q.schedule(tick, 3);
        assert_eq!(q.drain_due(tick), 3);
        assert_eq!(q.drain_due(tick + 1), 20);
    }
    assert_eq!(q.pop(), None);
}

#[test]
fn buffers_spared_before_an_overflow_migration_serve_the_migrated_entries() {
    let mut q = Lockstep::new();
    let mut base = 0u64;
    for round in 0..12u64 {
        // Near ticks of uneven size fill the pool as they drain...
        for tick in 1..=20u64 {
            q.schedule(base + tick, 1 + ((tick * 7 + round) % 40) as usize);
        }
        // ...while entries beyond the horizon wait in the overflow, in an
        // order that is not their time order, two of them sharing a tick.
        for far in [2_500u64, 1_100, 2_500, 1_101, 3_900, 1_100] {
            q.schedule(base + far, 3);
        }
        // Draining the wheel makes the next pop migrate: `base + 1_100`
        // and `base + 1_101` land in buckets that take spare buffers, the
        // rest stay behind for the next jumps.
        q.drain_due(base + 20);
        for expect in [1_100u64, 1_101, 2_500, 3_900] {
            assert_eq!(q.pop(), Some(base + expect));
            q.drain_due(base + expect);
        }
        assert_eq!(q.pop(), None);
        base += 3_900;
    }
}

#[test]
fn far_timers_interleaved_with_dense_near_ticks_keep_the_total_order() {
    // The event engine's shape: every tick delivers a dense burst that
    // schedules the next tick's burst (latency 1), heartbeat timers at
    // every backoff step, and now and then a timer past the horizon.
    let mut q = Lockstep::new();
    let mut rng = StdRng::seed_from_u64(4);
    q.schedule(1, 200);
    for tick in 1..600u64 {
        let due = q.drain_due(tick);
        assert!(due >= 100, "tick {tick} delivered {due}");
        for i in 0..due.min(300) {
            q.schedule(tick + 1, 1);
            if i % 4 == 0 {
                q.schedule(tick + (2 << rng.gen_range(0..5u32)), 1);
            }
            if i % 97 == 0 {
                q.schedule(tick + rng.gen_range(1_000..3_000u64), 1);
            }
        }
    }
    while q.pop().is_some() {}
}
