//! `exp_profile` — wall-clock phase attribution of the engines.
//!
//! Channel 2 of the observability layer, applied: runs the four
//! non-pipelined protocol arms of the scale grid (the same
//! `dynspread_bench::arms::run_arm` definitions `exp_scale` times), plus
//! Algorithm 1 on the round engine's link transport (a lossy, jittery
//! synchronizer) and the asynchronous multi-source port at
//! `oblivious_pipeline`'s phase-2 token placement (`k = s = 16`, whatever
//! the grid's `k`), with the engines' self-profiler enabled
//! (`enable_profiling`) and records where each run's wall time actually
//! goes, per [`Phase`].
//! The first deliverable is evidence for the scale roadmap item: the
//! `n = 4096` single-source cell names the dominant phase behind the
//! sync engines' superlinear ns/event growth (the suspected O(n)
//! per-event work), so the next perf PR starts from a measurement, not
//! a guess.
//!
//! Cells run **serially** — unlike `exp_scale`, which only records total
//! wall time per cell, the profiler's per-phase laps are wall-clock
//! readings that core contention between parallel cells would distort.
//!
//! Each cell asserts `attributed_fraction() ≥ 0.90`: the lap boundaries
//! must tile the engine loop, so un-instrumented glue beyond 10% means a
//! hook is missing.
//!
//! The nanoseconds are printed, not recorded. `BENCH_profile.json` holds
//! per cell what the seeds determine — `completed` and each phase's lap
//! count in [`Phase::ALL`] order, the per-layer work proxy with no noise in
//! it — so re-running the bin reproduces the file byte for byte, which
//! `tests/committed_baselines.rs` demands. `crates/runtime/README.md`
//! § "Tracing & profiling" explains how to read both outputs.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_profile [OUT.json]`

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::{arm_seed, run_arm};
use dynspread_bench::gate_args;
use dynspread_bench::row::{render_table, write_gate_json, Row};
use dynspread_sim::{Phase, ProfileReport};

const PROTOCOLS: [&str; 6] = [
    "flooding",
    "single-source",
    "multi-source",
    "async-single-source",
    "sync-lossy-single-source",
    "async-multi-source",
];

/// Arms the grid started with, and so its seed stride (see [`arm_seed`]).
const SEED_STRIDE: usize = 4;

/// Token (and source) count of the async-multi-source arm:
/// `oblivious_pipeline`'s phase-2 placement, whatever the grid's `k`.
const PIPELINE_K: usize = 16;

/// The lap count of every phase that ran, as a JSON array in
/// [`Phase::ALL`] order (the report's own order is by the clock).
fn laps_json(profile: &ProfileReport) -> String {
    let laps: Vec<String> = Phase::ALL
        .iter()
        .filter_map(|phase| profile.phases.iter().find(|p| p.phase == phase.label()))
        .map(|p| format!("{{\"phase\": \"{}\", \"laps\": {}}}", p.phase, p.laps))
        .collect();
    format!("[{}]", laps.join(", "))
}

fn run_cell(protocol: &'static str, n: usize, k: usize, seed: u64) -> (Row, Box<ProfileReport>) {
    let k = if protocol == "async-multi-source" {
        PIPELINE_K
    } else {
        k
    };
    let run = run_arm(protocol, n, k, seed, true);
    assert!(
        run.completed,
        "{protocol} did not complete at n = {n} within the cap"
    );
    let profile = run.profile.expect("profiling was enabled for every cell");
    let attributed = profile.attributed_fraction();
    assert!(
        attributed >= 0.90,
        "{protocol} at n = {n}: only {:.1}% of wall time attributed — a phase hook is missing",
        attributed * 100.0
    );
    let dominant = profile.dominant().expect("at least one phase ran");
    let share = dominant.ns as f64 / profile.total_ns.max(1) as f64;
    let row = Row::default()
        .text("protocol", "protocol", protocol)
        .col("n", "n", n)
        .json("completed", run.completed)
        .table("wall ms", fmt_f64(profile.total_ns as f64 / 1e6))
        .table("attributed", format!("{:.1}%", attributed * 100.0))
        .table("dominant phase", dominant.phase)
        .table("dominant share", format!("{:.1}%", share * 100.0))
        .json("phases", laps_json(&profile));
    (row, profile)
}

fn main() {
    let out_path = gate_args("BENCH_profile.json");
    let sizes = [1024, 4096];
    let k = 4;
    println!(
        "Profile grid: n ∈ {sizes:?} × {PROTOCOLS:?}, k = {k} — serial (wall-clock attribution)"
    );

    // Serial on purpose: see the module docs.
    let mut rows = Vec::new();
    // The roadmap deliverable: the largest sync single-source cell (the
    // superlinear ns/event suspect), whose dominant phase is named below.
    let mut suspect = None;
    for (si, &n) in sizes.iter().enumerate() {
        for (pi, &p) in PROTOCOLS.iter().enumerate() {
            let (row, profile) = run_cell(p, n, k, arm_seed(SEED_STRIDE, si, pi));
            rows.push(row);
            if p == "single-source" {
                suspect = Some((n, profile));
            }
        }
    }
    println!("{}", render_table(&rows));

    if let Some((n, profile)) = suspect {
        println!(
            "single-source at n = {n}: dominant phase is {}",
            profile.dominant().map_or("none", |p| p.phase)
        );
        print!("{profile}");
    }

    write_gate_json(&out_path, &[("k", k.to_string())], &rows);
}
