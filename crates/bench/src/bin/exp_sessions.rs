//! `exp_sessions` — multi-session service throughput of the session mux.
//!
//! Sweeps arrival-trace shape (session count × job size × inter-arrival
//! spacing) over one shared 24-node network, each cell one seeded
//! [`SessionWorkload::uniform`] trace replayed through
//! `Scenario::run_sessions`: every session is a private single-source
//! dissemination job multiplexed over the same long-lived engine, links,
//! and virtual clock. Tabulated per cell:
//!
//! * **done** — sessions that reached full dissemination (every cell
//!   asserts all of them do);
//! * **p50 / p95 / max** — per-session completion latency percentiles on
//!   the shared virtual clock (`completed_at − arrival`);
//! * **overlap** — sessions that arrived before an earlier session had
//!   finished, i.e. how concurrent the trace actually was (asserted
//!   positive on every multi-session cell);
//! * **msgs** — aggregate envelope load staged by all sessions.
//!
//! The binary asserts zero envelope decode errors and zero foreign
//! drops on every cell — a wire-format soundness sweep of the session
//! layer. Every column is a pure function of the seeds: no wall time is
//! recorded, so re-running the bin reproduces `BENCH_sessions.json` byte
//! for byte.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_sessions [OUT.json]`
//!
//! Results go to `BENCH_sessions.json` (default), which
//! `tests/committed_baselines.rs` compares with a fresh run's byte for
//! byte.

use dynspread_bench::row::{render_table, write_gate_json, Row};
use dynspread_bench::{derive_seed, gate_args, par_map};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::{Scenario, SessionWorkload};

/// Nodes on the shared network — every session's job spans all of them.
const N: usize = 24;

/// `(sessions, k, spacing)` — the swept arrival traces. Spacing is the
/// upper bound on the uniform inter-arrival gap, so lower spacing at a
/// fixed count means a more concurrent service.
const SCENARIOS: [(usize, usize, u64); 5] = [
    (5, 4, 400),
    (10, 4, 200),
    (20, 4, 100),
    (20, 8, 100),
    (40, 4, 50),
];

fn run_cell(sessions: usize, k: usize, spacing: u64) -> Row {
    // Seeds derive from the scenario's *values*, not its grid index, so
    // a scenario added to the grid reseeds no recorded cell.
    let base_seed = 20_260_807u64;
    let seed = derive_seed(base_seed, sessions as u64 * 1009 + k as u64 * 31 + spacing);
    let workload = SessionWorkload::uniform(N, sessions, k, spacing, derive_seed(seed, 0x5E5));
    let out = Scenario::new(N, k)
        .topology(PeriodicRewiring::new(
            Topology::RandomTree,
            3,
            derive_seed(seed, 0x70B),
        ))
        .link(DropLink::new(0.1).with_jitter(1))
        .seed(seed)
        .name("exp-sessions")
        .workload(&workload)
        .run_sessions();

    assert_eq!(
        out.completed_sessions(),
        sessions,
        "{sessions}x{k}/{spacing}: not every session completed"
    );
    assert_eq!(out.decode_errors, 0, "envelope decode errors");
    assert_eq!(out.foreign_drops, 0, "foreign-session drops");

    // How concurrent the trace actually was: a session overlaps if it
    // arrived before some earlier session finished.
    let overlapped = out
        .sessions
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            out.sessions[..*i]
                .iter()
                .any(|earlier| earlier.completed_at.is_some_and(|done| s.arrival < done))
        })
        .count();
    if sessions >= 10 {
        assert!(
            overlapped > 0,
            "{sessions}x{k}/{spacing}: trace never overlapped"
        );
    }

    let latency = |q| out.latency_percentile(q).expect("completed sessions");
    Row::default()
        .col("sessions", "sessions", sessions)
        .col("k", "k", k)
        .col("spacing", "spacing", spacing)
        .col("completed", "done", out.completed_sessions())
        .col("overlapped", "overlap", overlapped)
        .col("p50_latency", "p50", latency(0.50))
        .col("p95_latency", "p95", latency(0.95))
        .col("max_latency", "max", latency(1.0))
        .col("messages", "msgs", out.total_session_messages())
        .json("events", out.event.events)
}

fn main() {
    let out_path = gate_args("BENCH_sessions.json");
    println!("Session grid: n = {N}, (sessions, k, spacing) {SCENARIOS:?}");

    let rows = par_map(SCENARIOS.to_vec(), |(s, k, sp)| run_cell(s, k, sp));

    println!("{}", render_table(&rows));
    println!("p50/p95/max = per-session completion latency on the shared virtual clock;");
    println!("overlap = sessions that arrived before an earlier one finished;");
    println!("msgs = envelopes staged by all sessions (completion asserted per cell).");

    write_gate_json(&out_path, &[("n", N.to_string())], &rows);
}
