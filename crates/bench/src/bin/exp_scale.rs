//! `exp_scale` — the data plane at `n` in the thousands.
//!
//! The paper's bounds (`O(d·k)`, `O(n·k)` rounds) only become interesting
//! to validate empirically well beyond the `n ≤ 512` the older grids run.
//! This binary sweeps `n ∈ {1024, 2048, 4096, 8192}` over five protocol
//! arms and records the per-unit costs the scale work optimizes:
//!
//! * **flooding** — phased flooding under `BroadcastSim` (the paper's
//!   synchronous local-broadcast model), metered with the deterministic
//!   ×64 sampling factor (`SimConfig::meter_sampling`) so the cell
//!   measures the data plane rather than 200 M meter updates;
//! * **single-source** — Algorithm 1 under `UnicastSim` (synchronous
//!   unicast);
//! * **multi-source** — Section 3.2.1 under `UnicastSim`, `s = 4`
//!   sources;
//! * **async-single-source** — the `AsyncSingleSource` event port under
//!   `EventSim` with a latency-1 perfect link (the event engine's
//!   calendar queue and zero-clone fan-out are on this path);
//! * **async-oblivious** — the full two-phase `Scenario::run_oblivious`
//!   pipeline (random-walk center reduction, then `AsyncMultiSource`)
//!   with `k = 16` tokens, ~4 expected centers, and a denser
//!   `SparseConnected(8)` phase-1 topology so center hand-offs happen at
//!   tree-sparse `n`; the deadline fallback guarantees the cell
//!   terminates even when some walks don't converge.
//!
//! Every cell is one seeded end-to-end run through `par_map`. Results go
//! to `BENCH_runtime.json`: per cell the counts (`completed`, `rounds`,
//! `events` — pure functions of the seeds, identical whatever
//! `DYNSPREAD_THREADS` says), so re-running the bin reproduces the file
//! byte for byte, which `tests/committed_baselines.rs` demands. The three
//! timing columns (`wall ms`, `ns/round`, `ns/event`) are printed for
//! orientation and recorded nowhere. Each times one cell while `par_map`
//! runs other cells on the other workers, so a reading swings with its
//! neighbours: the header prints the worker count, and the columns are
//! comparable between runs only under `DYNSPREAD_THREADS=1`. Speed claims
//! go through `benchmark/` parent/change pairs instead.
//! `crates/runtime/README.md` explains how to read the file.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_scale [OUT.json]`

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::{arm_seed, run_arm};
use dynspread_bench::row::{render_table, write_gate_json, Row};
use dynspread_bench::{gate_args, par_map, worker_count};
use std::time::Instant;

const PROTOCOLS: [&str; 5] = [
    "flooding",
    "single-source",
    "multi-source",
    "async-single-source",
    "async-oblivious",
];

/// Token count of the async-oblivious arm (needs enough tokens/sources
/// for the two-phase pipeline to be meaningful; recorded per cell).
const OBLIVIOUS_K: usize = 16;

fn run_cell(protocol: &'static str, n: usize, k: usize, seed: u64) -> Row {
    // The async-oblivious arm overrides k; every cell records the k it
    // actually ran with.
    let k = if protocol == "async-oblivious" {
        OBLIVIOUS_K
    } else {
        k
    };
    let start = Instant::now();
    let run = run_arm(protocol, n, k, seed, false);
    let wall_ns = start.elapsed().as_nanos() as f64;
    assert!(
        run.completed,
        "{protocol} did not complete at n = {n} within the cap"
    );
    Row::default()
        .text("protocol", "protocol", protocol)
        .col("n", "n", n)
        .json("k", k)
        .col("completed", "done", run.completed)
        .col("rounds", "rounds", run.rounds)
        .col("events", "events", run.events)
        .table("wall ms", fmt_f64(wall_ns / 1e6))
        .table("ns/round", fmt_f64(wall_ns / run.rounds.max(1) as f64))
        .table("ns/event", fmt_f64(wall_ns / run.events.max(1) as f64))
}

fn main() {
    let out_path = gate_args("BENCH_runtime.json");
    let sizes = [1024, 2048, 4096, 8192];
    let k = 4;
    let jobs: Vec<(usize, &'static str, u64)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, &n)| {
            PROTOCOLS
                .iter()
                .enumerate()
                .map(move |(pi, &p)| (n, p, arm_seed(PROTOCOLS.len(), si, pi)))
        })
        .collect();
    println!(
        "Scale grid: n ∈ {sizes:?} × {PROTOCOLS:?}, k = {k} (async-oblivious: k = {OBLIVIOUS_K}), workers = {}",
        worker_count().min(jobs.len())
    );
    let rows = par_map(jobs, |(n, p, seed)| run_cell(p, n, k, seed));

    println!("{}", render_table(&rows));
    println!("rounds = topology epochs for the async arm; events = metered");
    println!("messages (sync) or processed engine events (async).");

    // Top-level k is the grid default; each cell records the k it
    // actually ran with (the async-oblivious arm overrides it).
    write_gate_json(&out_path, &[("k", k.to_string())], &rows);
}
