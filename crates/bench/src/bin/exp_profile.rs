//! `exp_profile` — wall-clock phase attribution of the engines.
//!
//! Channel 2 of the observability layer, applied: runs the four
//! non-pipelined protocol arms of the scale grid, plus Algorithm 1 on the
//! round engine's link transport (a lossy, jittery synchronizer) and the
//! asynchronous multi-source port at `oblivious_pipeline`'s phase-2 token
//! placement (`k = s = 16`, whatever the grid's `k`), with the
//! engines' self-profiler enabled (`enable_profiling`) and records where
//! each run's wall time actually goes, per [`Phase`](dynspread_sim::Phase).
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
//! Results go to `BENCH_profile.json` (per-phase ns/laps/sparse log2
//! histogram, attributed fraction, dominant phase per cell).
//! `crates/runtime/README.md` § "Tracing & profiling" explains how to
//! read it. The file is **not** gated by `bench_check` — phase shares
//! are diagnostics, not regression metrics; the gated wall times live in
//! `BENCH_runtime.json`.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_profile [--smoke] [OUT.json]`
//!
//! `--smoke` runs only `n = 1024` — the CI guard that keeps the profile
//! path exercised on every PR. The full run adds `n = 4096`, including
//! the single-source cell the roadmap item is about.

use dynspread_analysis::table::{fmt_f64, Table};
use dynspread_bench::{
    default_adversary, derive_seed, gate_args, run_multi_source_profiled,
    run_phased_flooding_profiled, run_single_source_profiled, write_gate_json,
};
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::NodeId;
use dynspread_runtime::engine::{EventProtocol, EventSim};
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::{AsyncConfig, AsyncMultiSource, AsyncSingleSource};
use dynspread_runtime::sync::UnicastSynchronizer;
use dynspread_sim::sim::SimConfig;
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::{ProfileReport, RunReport};

const PROTOCOLS: [&str; 6] = [
    "flooding",
    "single-source",
    "multi-source",
    "async-single-source",
    "sync-lossy-single-source",
    "async-multi-source",
];

/// Same deterministic meter-sampling factor as the `exp_scale` flooding
/// arm, so the profiled cell measures the same code path the scale grid
/// times.
const FLOOD_METER_SAMPLING: u64 = 64;

struct Cell {
    protocol: &'static str,
    n: usize,
    report: RunReport,
}

/// The event-engine arms: `nodes` over latency-1 perfect links, two ticks
/// to the adversary's round, profiled.
fn run_async<P: EventProtocol>(
    nodes: Vec<P>,
    assignment: &TokenAssignment,
    seed: u64,
    max_time: u64,
    name: &str,
) -> RunReport {
    let mut sim = EventSim::with_tracking(
        nodes,
        default_adversary(seed),
        PerfectLink.with_latency(1),
        2,
        derive_seed(seed, 0x5CA1E),
        assignment,
    );
    sim.enable_profiling();
    let _ = sim.run(max_time);
    sim.run_report(name)
}

fn run_cell(protocol: &'static str, n: usize, k: usize, seed: u64) -> Cell {
    let max_rounds = 500_000;
    let report = match protocol {
        "flooding" => {
            let a = TokenAssignment::single_source(n, k, NodeId::new(0));
            let cfg = SimConfig {
                max_rounds,
                meter_sampling: FLOOD_METER_SAMPLING,
                ..SimConfig::default()
            };
            run_phased_flooding_profiled(&a, default_adversary(seed), cfg)
        }
        "single-source" => run_single_source_profiled(n, k, default_adversary(seed), max_rounds),
        "multi-source" => {
            let a = TokenAssignment::round_robin_sources(n, k, k.min(4));
            run_multi_source_profiled(&a, default_adversary(seed), max_rounds)
        }
        "async-single-source" => {
            let a = TokenAssignment::single_source(n, k, NodeId::new(0));
            let nodes = AsyncSingleSource::nodes(&a, AsyncConfig::default());
            run_async(nodes, &a, seed, 8 * max_rounds, protocol)
        }
        "async-multi-source" => {
            let a = TokenAssignment::round_robin_sources(n, 16, 16);
            let (nodes, _) = AsyncMultiSource::nodes(&a, AsyncConfig::default());
            run_async(nodes, &a, seed, 8 * max_rounds, protocol)
        }
        "sync-lossy-single-source" => {
            let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
            let mut sim = UnicastSynchronizer::new(
                "single-source-unicast",
                SingleSourceNode::nodes(&assignment),
                default_adversary(seed),
                &assignment,
                SimConfig::with_max_rounds(max_rounds),
                PerfectLink.lossy(0.1).with_jitter(1),
                derive_seed(seed, 0x5CA1E),
            );
            sim.enable_profiling();
            sim.run_to_completion()
        }
        other => unreachable!("unknown protocol arm {other}"),
    };
    Cell {
        protocol,
        n,
        report,
    }
}

/// Renders one cell's profile as a hand-formatted JSON object (the
/// workspace has no serde; same idiom as `exp_scale`).
fn cell_json(c: &Cell, profile: &ProfileReport) -> String {
    let phases: Vec<String> = profile
        .phases
        .iter()
        .map(|p| {
            let hist: Vec<String> = p
                .hist
                .iter()
                .map(|&(bucket, count)| format!("[{bucket}, {count}]"))
                .collect();
            format!(
                "      {{\"phase\": \"{}\", \"ns\": {}, \"laps\": {}, \"mean_ns\": {:.0}, \"hist\": [{}]}}",
                p.phase,
                p.ns,
                p.laps,
                p.mean_ns(),
                hist.join(", ")
            )
        })
        .collect();
    format!
        (
        "    {{\"protocol\": \"{}\", \"n\": {}, \"completed\": {}, \"total_ns\": {}, \"attributed_fraction\": {:.4}, \"dominant\": \"{}\", \"phases\": [\n{}\n    ]}}",
        c.protocol,
        c.n,
        c.report.completed,
        profile.total_ns,
        profile.attributed_fraction(),
        profile.dominant().map_or("none", |p| p.phase),
        phases.join(",\n")
    )
}

fn main() {
    let (smoke, out_path) = gate_args("BENCH_profile.json");
    let sizes: &[usize] = if smoke { &[1024] } else { &[1024, 4096] };
    let k = 4;
    let base_seed = 20_260_729u64;
    println!(
        "Profile grid: n ∈ {sizes:?} × {PROTOCOLS:?}, k = {k}{} — serial (wall-clock attribution)",
        if smoke { " (smoke)" } else { "" }
    );

    // Serial on purpose: see the module docs.
    let mut cells = Vec::new();
    for (si, &n) in sizes.iter().enumerate() {
        for (pi, &p) in PROTOCOLS.iter().enumerate() {
            // Stride 4 is the arm count the grid started with: a later arm
            // must not reseed the recorded cells (it shares its seed with an
            // arm of the next size — another protocol, nothing to correlate).
            let seed = derive_seed(base_seed, (si * 4 + pi) as u64);
            cells.push(run_cell(p, n, k, seed));
        }
    }

    let mut table = Table::new(&[
        "protocol",
        "n",
        "wall ms",
        "attributed",
        "dominant phase",
        "dominant share",
    ]);
    let mut json_cells = Vec::new();
    for c in &cells {
        assert!(
            c.report.completed,
            "{} did not complete at n = {} within the cap",
            c.protocol, c.n
        );
        let profile = c
            .report
            .profile
            .as_deref()
            .expect("profiling was enabled for every cell");
        assert!(
            profile.attributed_fraction() >= 0.90,
            "{} at n = {}: only {:.1}% of wall time attributed — a phase hook is missing",
            c.protocol,
            c.n,
            profile.attributed_fraction() * 100.0
        );
        let dominant = profile.dominant().expect("at least one phase ran");
        table.row_owned(vec![
            c.protocol.to_string(),
            c.n.to_string(),
            fmt_f64(profile.total_ns as f64 / 1e6),
            format!("{:.1}%", profile.attributed_fraction() * 100.0),
            dominant.phase.to_string(),
            format!(
                "{:.1}%",
                dominant.ns as f64 / profile.total_ns.max(1) as f64 * 100.0
            ),
        ]);
        json_cells.push(cell_json(c, profile));
    }
    println!("{}", table.render());

    // The roadmap deliverable: name the dominant phase of the largest
    // sync single-source cell (the superlinear ns/event suspect).
    if let Some(c) = cells.iter().rev().find(|c| c.protocol == "single-source") {
        let profile = c.report.profile.as_deref().expect("profiled");
        println!(
            "single-source at n = {}: dominant phase is {}",
            c.n,
            profile.dominant().map_or("none", |p| p.phase)
        );
        print!("{profile}");
    }

    write_gate_json(&out_path, &[("k", k.to_string())], smoke, &json_cells);
}
