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
//! `DYNSPREAD_THREADS` says) and three timing fields (`wall_ms`,
//! `ns_per_round`, `ns_per_event`) that are printed and recorded for
//! orientation and never compared; the file's `recorded` header says which
//! commit and how many cores produced them. Speed claims go through
//! `benchmark/` parent/change pairs instead. `crates/runtime/README.md`
//! explains how to read the file.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_scale [--smoke] [OUT.json]`
//!
//! `--smoke` runs only the smallest grid column (`n = 1024`) — the CI
//! guard that keeps the scale path building and running on every PR, and
//! the fresh side of `bench_check --runtime`, which demands that its
//! counts equal the committed file's.

use dynspread_analysis::table::{fmt_f64, Table};
use dynspread_bench::{
    default_adversary, derive_seed, gate_args, par_map, run_multi_source, run_phased_flooding_cfg,
    run_single_source, worker_count, write_gate_json,
};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_runtime::engine::EventSim;
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::{AsyncConfig, AsyncObliviousConfig, AsyncSingleSource};
use dynspread_runtime::scenario::Scenario;
use dynspread_sim::sim::SimConfig;
use dynspread_sim::token::TokenAssignment;
use std::time::Instant;

const PROTOCOLS: [&str; 5] = [
    "flooding",
    "single-source",
    "multi-source",
    "async-single-source",
    "async-oblivious",
];

/// Deterministic meter-attribution sampling for the flooding arm.
const FLOOD_METER_SAMPLING: u64 = 64;

/// Token count of the async-oblivious arm (needs enough tokens/sources
/// for the two-phase pipeline to be meaningful; recorded per cell).
const OBLIVIOUS_K: usize = 16;

struct Cell {
    protocol: &'static str,
    n: usize,
    /// Tokens the cell actually ran with (the async-oblivious arm
    /// overrides the grid default).
    k: usize,
    completed: bool,
    /// Rounds for the synchronous arms, topology epochs for the async arm.
    rounds: u64,
    /// Unit of scheduler work: metered messages for the synchronous arms,
    /// processed events (starts + deliveries + timers) for the async arm.
    events: u64,
    wall_ns: u64,
}

fn run_cell(protocol: &'static str, n: usize, k: usize, seed: u64) -> Cell {
    let max_rounds = 500_000;
    let start = Instant::now();
    // The async-oblivious arm overrides k; every cell records the k it
    // actually ran with.
    let k = if protocol == "async-oblivious" {
        OBLIVIOUS_K
    } else {
        k
    };
    let (completed, rounds, events) = match protocol {
        "flooding" => {
            let a = TokenAssignment::single_source(n, k, NodeId::new(0));
            let cfg = SimConfig {
                max_rounds,
                meter_sampling: FLOOD_METER_SAMPLING,
                ..SimConfig::default()
            };
            let r = run_phased_flooding_cfg(&a, default_adversary(seed), cfg);
            (r.completed, r.rounds, r.total_messages)
        }
        "single-source" => {
            let r = run_single_source(n, k, default_adversary(seed), max_rounds);
            (r.completed, r.rounds, r.total_messages)
        }
        "multi-source" => {
            let a = TokenAssignment::round_robin_sources(n, k, k.min(4));
            let r = run_multi_source(&a, default_adversary(seed), max_rounds);
            (r.completed, r.rounds, r.total_messages)
        }
        "async-oblivious" => {
            // Two-phase pipeline: k tokens spread over k sources, ~4
            // expected centers regardless of n, everyone high-degree
            // (γ = 1) so tokens hand off to discovered centers. The
            // deadline fallback (stranded owners become phase-2 sources)
            // bounds phase 1 even if some walks don't converge.
            let a = TokenAssignment::round_robin_sources(n, k, k);
            let cfg = AsyncObliviousConfig {
                seed: derive_seed(seed, 0x0B1),
                source_threshold: Some(1.0),
                center_probability: Some(4.0 / n as f64),
                degree_threshold: Some(1.0),
                ticks_per_round: 2,
                phase1_deadline: 2_048,
                phase1_max_time: 4_096,
                phase2_max_time: 8 * max_rounds,
                ..AsyncObliviousConfig::default()
            };
            let out = Scenario::from_assignment(a)
                .topology(PeriodicRewiring::new(
                    Topology::SparseConnected(8.0),
                    3,
                    seed,
                ))
                .link(PerfectLink.with_latency(1))
                .run_oblivious(
                    default_adversary(derive_seed(seed, 0x0B2)),
                    PerfectLink.with_latency(1),
                    &cfg,
                    None,
                );
            (out.completed, out.total_epochs(), out.total_events())
        }
        "async-single-source" => {
            let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
            let mut sim = EventSim::with_tracking(
                AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
                default_adversary(seed),
                PerfectLink.with_latency(1),
                2,
                derive_seed(seed, 0x5CA1E),
                &assignment,
            );
            let report = sim.run(8 * max_rounds);
            (
                sim.tracker().expect("tracking enabled").all_complete(),
                report.epochs,
                report.events,
            )
        }
        other => unreachable!("unknown protocol arm {other}"),
    };
    Cell {
        protocol,
        n,
        k,
        completed,
        rounds,
        events,
        wall_ns: start.elapsed().as_nanos() as u64,
    }
}

/// Where the timing fields come from, as a JSON object: the checked-out
/// commit (`-dirty` when the tree has uncommitted changes on top of it,
/// `unknown` outside a git checkout) and the cores the grid ran across.
fn recorded_on() -> String {
    let commit = std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    format!(
        "{{\"commit\": \"{commit}\", \"cores\": {}}}",
        worker_count()
    )
}

fn main() {
    let (smoke, out_path) = gate_args("BENCH_runtime.json");
    let sizes: &[usize] = if smoke {
        &[1024]
    } else {
        &[1024, 2048, 4096, 8192]
    };
    let k = 4;
    let base_seed = 20_260_729u64;
    println!(
        "Scale grid: n ∈ {sizes:?} × {PROTOCOLS:?}, k = {k} (async-oblivious: k = {OBLIVIOUS_K}){}",
        if smoke { " (smoke)" } else { "" }
    );

    let jobs: Vec<(usize, &'static str, u64)> = sizes
        .iter()
        .enumerate()
        .flat_map(|(si, &n)| {
            PROTOCOLS.iter().enumerate().map(move |(pi, &p)| {
                (
                    n,
                    p,
                    derive_seed(base_seed, (si * PROTOCOLS.len() + pi) as u64),
                )
            })
        })
        .collect();
    let cells = par_map(jobs, |(n, p, seed)| run_cell(p, n, k, seed));

    let mut table = Table::new(&[
        "protocol", "n", "done", "rounds", "events", "wall ms", "ns/round", "ns/event",
    ]);
    let mut json_cells = Vec::new();
    for c in &cells {
        assert!(
            c.completed,
            "{} did not complete at n = {} within the cap",
            c.protocol, c.n
        );
        let ns_per_round = c.wall_ns as f64 / c.rounds.max(1) as f64;
        let ns_per_event = c.wall_ns as f64 / c.events.max(1) as f64;
        table.row_owned(vec![
            c.protocol.to_string(),
            c.n.to_string(),
            c.completed.to_string(),
            c.rounds.to_string(),
            c.events.to_string(),
            fmt_f64(c.wall_ns as f64 / 1e6),
            fmt_f64(ns_per_round),
            fmt_f64(ns_per_event),
        ]);
        json_cells.push(format!(
            "    {{\"protocol\": \"{}\", \"n\": {}, \"k\": {}, \"completed\": {}, \"rounds\": {}, \"events\": {}, \"wall_ms\": {:.1}, \"ns_per_round\": {:.0}, \"ns_per_event\": {:.0}}}",
            c.protocol,
            c.n,
            c.k,
            c.completed,
            c.rounds,
            c.events,
            c.wall_ns as f64 / 1e6,
            ns_per_round,
            ns_per_event,
        ));
    }
    println!("{}", table.render());
    println!("rounds = topology epochs for the async arm; events = metered");
    println!("messages (sync) or processed engine events (async).");

    // Top-level k is the grid default; each cell records the k it
    // actually ran with (the async-oblivious arm overrides it).
    let header = [("k", k.to_string()), ("recorded", recorded_on())];
    write_gate_json(&out_path, &header, smoke, &json_cells);
}
