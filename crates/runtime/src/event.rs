//! The virtual clock and the deterministic event queue.
//!
//! Everything in the runtime is driven by one queue of scheduled entries
//! ordered by `(time, scheduling order)`: entries pop in ascending virtual
//! time, FIFO within a tick. Because the tiebreak is the order in which
//! entries were scheduled, the ordering is *total* and independent of any
//! container internals — two runs that schedule the same entries in the
//! same order pop them in the same order, which is the foundation of the
//! runtime's replay-identical determinism guarantee.
//!
//! The implementation is a **calendar queue** (a timing wheel): a
//! power-of-two array of buckets, one virtual-time tick per bucket, each
//! bucket a plain FIFO. Scheduling appends to the target tick's bucket in
//! O(1); popping sweeps an occupancy bitmap to the next non-empty bucket
//! (lazy sweep, amortized O(1) at simulation message volumes). Entries
//! beyond the wheel's horizon — far-future retransmission timers at their
//! backoff caps, mostly — wait in an overflow list and migrate into the
//! wheel when a pop reaches them. The former `BinaryHeap` implementation
//! paid O(log E) per operation with `E` in the hundreds of thousands at
//! `n ≥ 4096`; the wheel's buckets make both ends of the queue
//! constant-time, and the FIFO-per-tick structure makes the `(time,
//! scheduling order)` total order a property of the layout instead of a
//! comparator invariant.
//!
//! **Memory contract.** A bucket that drains hands its buffer to a spare
//! pool and the next bucket to fill takes one from it, so retained storage
//! follows the high-water mark of what was *simultaneously* pending — one
//! buffer per bucket occupied at the same time — not the ticks elapsed.
//! (Left in place, every bucket keeps the capacity of its fullest tick
//! until the wheel wraps: 1024 buffers for a backlog spanning thirty.)

/// A point on the runtime's virtual clock, in abstract ticks.
///
/// The synchronizer adapters equate one tick with one synchronous round;
/// the event engine treats ticks as an opaque discrete time base and maps
/// them onto adversary rounds via its epoch length.
pub type VirtualTime = u64;

/// Wheel size: buckets per revolution. Covers this many ticks of
/// look-ahead before entries spill into the overflow list.
const SLOTS: usize = 1024;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Occupancy bitmap words (one bit per bucket).
const OCC_WORDS: usize = SLOTS / 64;

/// A deterministic min-queue of scheduled payloads: ascending virtual
/// time, FIFO within a tick.
///
/// One contract difference from a general priority queue: entries cannot
/// be scheduled *into the past*. Once an entry at time `t` has been
/// popped, scheduling at a time `< t` panics — the engines only ever
/// schedule at `now + delay`, so a violation indicates a corrupted clock.
///
/// # Examples
///
/// ```
/// use dynspread_runtime::event::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.schedule(5, "late");
/// q.schedule(2, "early");
/// q.schedule(2, "early-second");
/// assert_eq!(q.pop_due(2), Some((2, "early")));
/// assert_eq!(q.pop_due(2), Some((2, "early-second")));
/// assert_eq!(q.pop_due(2), None); // "late" is not due yet
/// assert_eq!(q.next_time(), Some(5));
/// ```
pub struct EventQueue<T> {
    /// One FIFO bucket per tick of the current wheel window.
    slots: Vec<std::collections::VecDeque<T>>,
    /// Bit `i` set ⇔ `slots[i]` is non-empty.
    occupancy: [u64; OCC_WORDS],
    /// First tick of the wheel window; the window is `[base, base+SLOTS)`.
    /// Invariant: `base ≤ floor`, so every schedulable time inside the
    /// horizon maps to exactly one bucket.
    base: VirtualTime,
    /// Sweep hint: no bucket before `cursor` is occupied
    /// (`base ≤ cursor`). Advances over empty buckets during sweeps and
    /// rewinds when something is scheduled behind it.
    cursor: VirtualTime,
    /// Largest time popped so far — the "no scheduling into the past"
    /// watermark.
    floor: VirtualTime,
    /// Entries at or beyond the wheel horizon, in scheduling order.
    overflow: Vec<(VirtualTime, T)>,
    /// Earliest overflow time (`u64::MAX` when `overflow` is empty).
    overflow_min: VirtualTime,
    /// Scratch for overflow migration (retained to avoid reallocation).
    overflow_scratch: Vec<(VirtualTime, T)>,
    /// The empty buffers of drained buckets, for the next ones to fill:
    /// a bucket in `slots` holds capacity only while it is occupied.
    spare: Vec<std::collections::VecDeque<T>>,
    wheel_len: usize,
    len: usize,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: (0..SLOTS)
                .map(|_| std::collections::VecDeque::new())
                .collect(),
            occupancy: [0; OCC_WORDS],
            base: 0,
            cursor: 0,
            floor: 0,
            overflow: Vec::new(),
            overflow_min: VirtualTime::MAX,
            overflow_scratch: Vec::new(),
            spare: Vec::new(),
            wheel_len: 0,
            len: 0,
        }
    }

    /// Schedules `payload` at virtual time `at`. Entries scheduled at the
    /// same time pop in scheduling order (FIFO within a tick).
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than an already-popped entry's time (see
    /// the type-level contract).
    pub fn schedule(&mut self, at: VirtualTime, payload: T) {
        assert!(
            at >= self.floor,
            "scheduled into the past: t={at} but the queue has popped t={}",
            self.floor
        );
        self.len += 1;
        if at < self.base + SLOTS as u64 {
            self.push_into_wheel(at, payload);
            if at < self.cursor {
                self.cursor = at;
            }
        } else {
            self.overflow.push((at, payload));
            self.overflow_min = self.overflow_min.min(at);
        }
    }

    /// Appends to the bucket of `at`, which lies inside the wheel window;
    /// an unoccupied bucket takes a spare buffer first.
    fn push_into_wheel(&mut self, at: VirtualTime, payload: T) {
        let slot = (at & SLOT_MASK) as usize;
        let bucket = &mut self.slots[slot];
        if bucket.capacity() == 0 {
            if let Some(buffer) = self.spare.pop() {
                *bucket = buffer;
            }
        }
        bucket.push_back(payload);
        self.occupancy[slot / 64] |= 1 << (slot % 64);
        self.wheel_len += 1;
    }

    /// The earliest pending time: sweeps the wheel's occupancy bitmap from
    /// the cursor, or falls back to the overflow minimum when the wheel is
    /// empty. Does not move the window.
    fn peek_time(&mut self) -> Option<VirtualTime> {
        if self.len == 0 {
            return None;
        }
        if self.wheel_len == 0 {
            return Some(self.overflow_min);
        }
        let horizon = self.base + SLOTS as u64;
        while self.cursor < horizon {
            let slot = self.cursor & SLOT_MASK;
            let word = (slot / 64) as usize;
            // Bits at or after `slot` within its word.
            let masked = self.occupancy[word] & (!0u64 << (slot % 64));
            if masked != 0 {
                let advance = masked.trailing_zeros() as u64 - (slot % 64);
                // Every set bit maps to a pending time in
                // `[cursor, horizon)`: passed buckets are empty and
                // beyond-horizon entries live in the overflow.
                debug_assert!(self.cursor + advance < horizon);
                self.cursor += advance;
                return Some(self.cursor);
            }
            // Jump to the next word boundary.
            self.cursor += 64 - (slot % 64);
        }
        unreachable!("wheel_len > 0 but no occupied bucket inside the window")
    }

    /// Pops the front entry of the bucket at time `at`, jumping the wheel
    /// window there first when `at` still lives in the overflow.
    fn take_at(&mut self, at: VirtualTime) -> (VirtualTime, T) {
        if self.wheel_len == 0 {
            // The wheel drained: the pop target is the overflow minimum.
            // Jump the window and migrate what fits. After this,
            // `base = floor = at`, so the base ≤ floor invariant holds.
            self.base = at;
            self.cursor = at;
            let horizon = at + SLOTS as u64;
            self.overflow_min = VirtualTime::MAX;
            let mut waiting = std::mem::take(&mut self.overflow);
            let mut keep = std::mem::take(&mut self.overflow_scratch);
            for (t, payload) in waiting.drain(..) {
                if t < horizon {
                    self.push_into_wheel(t, payload);
                } else {
                    self.overflow_min = self.overflow_min.min(t);
                    keep.push((t, payload));
                }
            }
            self.overflow = keep;
            self.overflow_scratch = waiting;
        }
        let slot = (at & SLOT_MASK) as usize;
        let payload = self.slots[slot]
            .pop_front()
            .expect("peeked bucket is occupied");
        if self.slots[slot].is_empty() {
            self.occupancy[slot / 64] &= !(1 << (slot % 64));
            self.spare.push(std::mem::take(&mut self.slots[slot]));
        }
        self.wheel_len -= 1;
        self.len -= 1;
        self.floor = at;
        (at, payload)
    }

    /// Pops the earliest entry if it is due at or before `now`.
    pub fn pop_due(&mut self, now: VirtualTime) -> Option<(VirtualTime, T)> {
        match self.peek_time() {
            Some(at) if at <= now => Some(self.take_at(at)),
            _ => None,
        }
    }

    /// Pops the earliest entry unconditionally.
    pub fn pop(&mut self) -> Option<(VirtualTime, T)> {
        let at = self.peek_time()?;
        Some(self.take_at(at))
    }

    /// The virtual time of the earliest pending entry.
    ///
    /// Takes `&mut self` because locating the minimum advances the wheel's
    /// internal sweep cursor (the answer itself is unaffected).
    pub fn next_time(&mut self) -> Option<VirtualTime> {
        self.peek_time()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entries are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(3, 'c');
        q.schedule(1, 'a');
        q.schedule(2, 'b');
        assert_eq!(q.pop(), Some((1, 'a')));
        assert_eq!(q.pop(), Some((2, 'b')));
        assert_eq!(q.pop(), Some((3, 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_tick_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(7, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_due(7), Some((7, i)));
        }
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        assert_eq!(q.pop_due(10), Some((10, ())));
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_scheduling_keeps_total_order() {
        let mut q = EventQueue::new();
        q.schedule(2, "r2-first");
        q.schedule(1, "r1");
        q.schedule(2, "r2-second");
        assert_eq!(q.pop(), Some((1, "r1")));
        assert_eq!(q.pop(), Some((2, "r2-first")));
        assert_eq!(q.pop(), Some((2, "r2-second")));
    }

    #[test]
    fn scheduling_behind_the_sweep_cursor_rewinds_it() {
        // pop_due peeks ahead (advancing the sweep cursor to t=9), then a
        // later-but-not-yet-due tick is scheduled behind the cursor; it
        // must still pop first.
        let mut q = EventQueue::new();
        q.schedule(9, "late");
        assert_eq!(q.pop_due(3), None);
        q.schedule(5, "early");
        assert_eq!(q.pop(), Some((5, "early")));
        assert_eq!(q.pop(), Some((9, "late")));
    }

    #[test]
    fn far_future_entries_ride_the_overflow() {
        let mut q = EventQueue::new();
        // Far beyond the wheel horizon, out of order, plus a near entry.
        q.schedule(5_000_000, "far-a");
        q.schedule(3, "near");
        q.schedule(9_000_000, "very-far");
        q.schedule(5_000_000, "far-b");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((3, "near")));
        assert_eq!(q.next_time(), Some(5_000_000));
        assert_eq!(q.pop(), Some((5_000_000, "far-a")));
        assert_eq!(q.pop(), Some((5_000_000, "far-b")), "overflow keeps FIFO");
        assert_eq!(q.pop(), Some((9_000_000, "very-far")));
        assert!(q.is_empty());
    }

    #[test]
    fn near_schedules_after_a_far_peek_still_pop_first() {
        // The wheel is empty and the overflow holds a far entry; peeking
        // must NOT jump the window, or the subsequent near schedule would
        // be mis-bucketed.
        let mut q = EventQueue::new();
        q.schedule(4, 'a');
        assert_eq!(q.pop(), Some((4, 'a')));
        q.schedule(7_000, 'z');
        assert_eq!(q.pop_due(10), None); // peeks the far entry
        q.schedule(6, 'b'); // behind the far entry, ahead of the floor
        assert_eq!(q.pop_due(10), Some((6, 'b')));
        assert_eq!(q.next_time(), Some(7_000));
        assert_eq!(q.pop(), Some((7_000, 'z')));
    }

    #[test]
    fn window_jumps_across_sparse_gaps() {
        let mut q = EventQueue::new();
        let mut t = 0u64;
        // Repeated gaps a bit larger than the wheel, interleaved with
        // pops, force repeated overflow migrations.
        for i in 0..50u64 {
            t += SLOTS as u64 + 7;
            q.schedule(t, i);
        }
        for i in 0..50u64 {
            let (at, v) = q.pop().expect("entry pending");
            assert_eq!(v, i);
            assert_eq!(at, (i + 1) * (SLOTS as u64 + 7));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn schedule_into_current_tick_while_draining() {
        let mut q = EventQueue::new();
        q.schedule(4, 0u32);
        assert_eq!(q.pop(), Some((4, 0)));
        // Same tick as the last pop: allowed, pops immediately.
        q.schedule(4, 1);
        q.schedule(5, 2);
        assert_eq!(q.pop_due(4), Some((4, 1)));
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some((5, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        let _ = q.pop();
        q.schedule(9, ());
    }

    #[test]
    fn wheel_boundary_times_are_exact() {
        // Entries straddling a window boundary (base + SLOTS ± 1).
        let mut q = EventQueue::new();
        let edge = SLOTS as u64;
        q.schedule(edge - 1, "in-wheel");
        q.schedule(edge, "first-overflow");
        q.schedule(edge + 1, "second-overflow");
        assert_eq!(q.pop(), Some((edge - 1, "in-wheel")));
        assert_eq!(q.pop(), Some((edge, "first-overflow")));
        assert_eq!(q.pop(), Some((edge + 1, "second-overflow")));
    }
}
