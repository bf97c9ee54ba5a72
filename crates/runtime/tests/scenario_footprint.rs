//! Memory footprint of the [`Scenario`] builder and of one full run,
//! measured by a counting global allocator rather than by RSS or wall
//! time, so the gate is exact and noise-free.
//!
//! What it guards: a `Scenario` must cost what the run uses. The builder's
//! default topology is the complete graph — `n(n−1)/2` edges, 134 MB at
//! `n = 4096` — and every caller of that size replaces it through
//! [`Scenario::topology`] before running, so building it eagerly was pure
//! waste that no per-layer metric saw.
//!
//! It also guards what a run *retains*: the event queue's storage must
//! follow what is pending at once, not the ticks that have elapsed, and the
//! multi-source port's completeness state the peers a node heard from, not
//! `n·s` — the two owners of 180 of the 212 MB `oblivious_pipeline` used to
//! peak at. And an audited run's transcripts must cost a few bytes per
//! recorded message, the lever on `service_mix`'s Byzantine cell.
//!
//! The counters are process-wide, so the tests here take [`SERIAL`] first:
//! a second test thread would otherwise allocate into the measurement.

use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_runtime::byzantine::Transcript;
use dynspread_runtime::event::EventQueue;
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::{AsyncConfig, AsyncMultiSource, EventSim, Scenario, StopReason};
use dynspread_sim::TokenAssignment;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Bytes ever requested, bytes currently live, and the live high-water
/// mark since the last [`measure`] began.
static TOTAL: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are atomic
// statistics that touch no allocator state. `realloc` and `alloc_zeroed`
// keep their default implementations, which go through these two.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // Statistics that publish no other data.
        TOTAL.fetch_add(layout.size(), Ordering::Relaxed);
        let live = LIVE.fetch_add(layout.size(), Ordering::Relaxed) + layout.size();
        PEAK.fetch_max(live, Ordering::Relaxed);
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with `(bytes requested, peak live bytes
/// above the starting level)` over the call.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (total, live) = (TOTAL.load(Ordering::Relaxed), LIVE.load(Ordering::Relaxed));
    PEAK.store(live, Ordering::Relaxed);
    let out = f();
    (
        out,
        TOTAL.load(Ordering::Relaxed) - total,
        PEAK.load(Ordering::Relaxed) - live,
    )
}

const MIB: usize = 1 << 20;

/// Held by each test for its whole body (see the module doc).
static SERIAL: Mutex<()> = Mutex::new(());

/// Peak live bytes of a whole `run_multi_source` to completion, builder
/// included, over trees rewired every 3 rounds with latency-1 perfect
/// links: the shape of `oblivious_pipeline`'s phase 2.
fn multi_source_peak(n: usize, k: usize, s: usize) -> usize {
    let (out, _, peak) = measure(|| {
        Scenario::from_assignment(TokenAssignment::round_robin_sources(n, k, s))
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 11))
            .link(PerfectLink.with_latency(1))
            .seed(5)
            .run_multi_source()
    });
    assert!(out.completed, "{}", out.report);
    peak
}

#[test]
fn a_scenario_allocates_what_its_run_uses() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // The builder, at the benchmark's async size: token placement in, a
    // replaced topology out. With the eager default this requested 201 MB
    // (K_4096: edge list, sort, adjacency); now it is a few hundred bytes.
    let (scenario, requested, _) = measure(|| {
        Scenario::from_assignment(TokenAssignment::single_source(4096, 4, NodeId::new(0)))
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 11))
    });
    assert!(
        requested < MIB,
        "building a Scenario requested {requested} bytes"
    );
    drop(scenario);

    // The event queue alone: a window of 10 000 pending entries slid over
    // 5 000 ticks, each popped entry scheduling one into the next tick.
    // Two buckets are ever occupied at once, so two buffers exist, plus
    // the overflow list and its scratch, which carry one tick's entries
    // each time the window passes the wheel's horizon: 2.03 MiB, 8.9
    // windows, with every capacity rounded up to a power of two. When
    // drained buckets kept their buffers it was one 10 000-entry buffer
    // per wheel slot, 400 MB.
    type Entry = [u64; 3];
    const WINDOW: usize = 10_000;
    let ((), _, peak) = measure(|| {
        let mut queue: EventQueue<Entry> = EventQueue::new();
        for i in 0..WINDOW {
            queue.schedule(1, [i as u64; 3]);
        }
        for tick in 1..=5_000 {
            while let Some((_, entry)) = queue.pop_due(tick) {
                queue.schedule(tick + 1, entry);
            }
        }
        assert_eq!(queue.len(), WINDOW);
    });
    assert!(
        peak < 10 * WINDOW * std::mem::size_of::<Entry>(),
        "a {WINDOW}-entry window peaked at {peak} live bytes"
    );

    // A full run at n = 1024: 4.12 MiB when this bound was recorded —
    // nodes, tracker and the event queue's backlog (13.35 MiB with dense
    // per-source ledgers and one retained buffer per tick elapsed).
    let peak = multi_source_peak(1024, 8, 4);
    assert!(
        peak < 5 * MIB,
        "an n = 1024 multi-source run peaked at {peak} live bytes"
    );

    // The size `oblivious_pipeline` pays for in phase 2: 24.7 MiB
    // recorded, where the dense ledgers alone were 64 MiB.
    let peak = multi_source_peak(4096, 16, 16);
    assert!(
        peak < 32 * MIB,
        "an n = 4096, s = 16 multi-source run peaked at {peak} live bytes"
    );
}

/// Peak live bytes of one `EventSim` multi-source run at n = 512, and the
/// transcript entries it recorded (none unless `audited`).
fn multi_source_run(audited: bool) -> (usize, usize) {
    let assignment = TokenAssignment::round_robin_sources(512, 8, 4);
    let ((completed, entries), _, peak) = measure(|| {
        let (nodes, _) = AsyncMultiSource::nodes(&assignment, AsyncConfig::default());
        let mut sim = EventSim::with_tracking(
            nodes,
            PeriodicRewiring::new(Topology::RandomTree, 3, 11),
            PerfectLink.with_latency(1),
            2,
            5,
            &assignment,
        );
        if audited {
            sim.record_transcripts();
        }
        let report = sim.run(2_000_000);
        let entries: usize = sim.transcripts().iter().map(Transcript::len).sum();
        (report.stopped == StopReason::Complete, entries)
    });
    assert!(completed);
    (peak, entries)
}

#[test]
fn an_audited_message_costs_a_few_bytes() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (plain, none) = multi_source_run(false);
    let (audited, entries) = multi_source_run(true);
    assert_eq!(none, 0);
    assert!(entries > 10_000, "only {entries} transcript entries");
    // What recording adds is the transcripts' byte logs, `Vec` slack
    // included: 6.83 B an entry over 231 522 entries when this bound was
    // recorded (81.4 B when each entry was a 56 B `TranscriptEntry`).
    let per_entry = audited.saturating_sub(plain) as f64 / entries as f64;
    assert!(
        per_entry <= 8.0,
        "{per_entry:.1} bytes per transcript entry ({entries} entries)"
    );
}

#[test]
#[ignore = "seconds in release, minutes in debug; CI runs it in the release job"]
fn the_footprint_holds_at_n_16384() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let peak = multi_source_peak(16_384, 16, 16);
    // 104.2 MiB recorded; 1.6 GB before, 1 GiB of it ledgers.
    assert!(
        peak < 128 * MIB,
        "an n = 16 384, s = 16 multi-source run peaked at {peak} live bytes"
    );
}
