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
//! One `#[test]` only: the counters are process-wide, and a second test
//! thread would allocate into the measurement.

use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::Scenario;
use dynspread_sim::TokenAssignment;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

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

#[test]
fn a_scenario_allocates_what_its_run_uses() {
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

    // A full run, builder included: peak live bytes of `run_multi_source`
    // at n = 1024 over rewired trees. 13.35 MiB when this bound was
    // recorded — nodes, ledgers, tracker and the event queue's backlog.
    let (out, _, peak) = measure(|| {
        Scenario::from_assignment(TokenAssignment::round_robin_sources(1024, 8, 4))
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 11))
            .link(PerfectLink.with_latency(1))
            .seed(5)
            .run_multi_source()
    });
    assert!(out.completed, "{}", out.report);
    assert!(
        peak < 16 * MIB,
        "an n = 1024 multi-source run peaked at {peak} live bytes"
    );
}
