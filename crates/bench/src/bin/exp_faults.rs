//! `exp_faults` — crash-recovery and partition degradation of the async
//! protocol ports.
//!
//! Sweeps crash fraction × recovery delay × partition episodes over all
//! three async protocols, each cell one seeded `Scenario::faults` run:
//! a pure-data [`FaultPlan`], the engine's crash/recovery/partition
//! machinery, and the protocols' self-healing hooks. Tabulated per cell:
//!
//! * **done** — whether the run still reached full dissemination (it
//!   must: every planted fault is crash-*recovery*, so the protocols
//!   are expected to heal);
//! * **coverage** — mean fraction of the token universe known by the
//!   nodes still up at the end (the degradation metric);
//! * **crash / recov / part** — fault events that actually fired, so
//!   degradation can be read against injected adversity.
//!
//! The binary asserts completion on every cell and exact zeros on the
//! fault-free column — a liveness sweep of the self-healing paths. Every
//! column is a pure function of the seeds: no wall time is recorded, so
//! re-running the bin reproduces `BENCH_faults.json` byte for byte.
//!
//! Usage:
//!   `cargo run --release -p dynspread-bench --bin exp_faults [OUT.json]`
//!
//! Results go to `BENCH_faults.json` (default), which
//! `tests/committed_baselines.rs` compares with a fresh run's byte for
//! byte.

use dynspread_bench::arms::{run_port, PORTS as PROTOCOLS, PORT_N as N};
use dynspread_bench::row::{render_table, write_gate_json, Row};
use dynspread_bench::{derive_seed, gate_args, par_map};
use dynspread_runtime::faults::{FaultPlan, RecoveryMode};

/// `(crash %, recovery delay, partition episodes)` — the swept
/// scenarios. Crashes land in the first 10 ticks — before any node can
/// have collected a full token set even on the fastest (single-source,
/// complete-graph) cell — so the down, incomplete nodes hold every run
/// open until the planned recoveries fire and the counters reflect the
/// whole plan.
const SCENARIOS: [(u32, u64, u32); 5] = [
    (0, 0, 0),
    (10, 200, 0),
    (10, 200, 1),
    (20, 1000, 0),
    (20, 1000, 1),
];

fn plan_for(crash_pct: u32, recovery_delay: u64, episodes: u32, seed: u64) -> FaultPlan {
    let mut plan = if crash_pct == 0 {
        FaultPlan::none(N)
    } else {
        FaultPlan::crash_recovery(
            N,
            f64::from(crash_pct) / 100.0,
            10,
            recovery_delay,
            RecoveryMode::Amnesia,
            seed,
        )
    };
    if episodes == 1 {
        plan = plan.with_random_partition(5, 150);
    }
    plan
}

fn run_cell(protocol: &'static str, crash_pct: u32, recovery_delay: u64, episodes: u32) -> Row {
    // Seeds derive from the scenario's *values*, not its grid index, so
    // a scenario added to the grid reseeds no recorded cell.
    let base_seed = 20_260_807u64;
    let pi = PROTOCOLS.iter().position(|&p| p == protocol).unwrap() as u64;
    let seed = derive_seed(
        base_seed,
        pi * 1009 + u64::from(crash_pct) * 17 + recovery_delay + u64::from(episodes),
    );
    let plan = plan_for(
        crash_pct,
        recovery_delay,
        episodes,
        derive_seed(seed, 0xF17),
    );
    let out = run_port(protocol, seed, (500_000, 500_000), 0xF18, Some(plan), None);
    let (crashes, partitions) = (out.report.crashes, out.report.partition_episodes);
    assert!(
        out.completed,
        "{protocol} at {crash_pct}%/{recovery_delay}/{episodes}ep did not self-heal"
    );
    if crash_pct == 0 && episodes == 0 {
        assert_eq!(crashes, 0, "{protocol}: fault-free run recorded crashes");
        assert_eq!(partitions, 0, "{protocol}: fault-free run saw a partition");
    }
    Row::default()
        .text("protocol", "protocol", protocol)
        .col("crash_pct", "crash %", crash_pct)
        .col("recovery_delay", "delay", recovery_delay)
        .col("episodes", "part", episodes)
        .col("completed", "done", out.completed)
        .fixed("coverage", "coverage", out.live_coverage, 4)
        .col("crashes", "crash", crashes)
        .col("recoveries", "recov", out.report.recoveries)
        .col("partitions", "part", partitions)
}

fn main() {
    let out_path = gate_args("BENCH_faults.json");
    println!("Fault grid: n = {N}, scenarios {SCENARIOS:?} × {PROTOCOLS:?}");

    let mut jobs: Vec<(&'static str, u32, u64, u32)> = Vec::new();
    for &p in &PROTOCOLS {
        for &(pct, delay, eps) in &SCENARIOS {
            jobs.push((p, pct, delay, eps));
        }
    }
    let rows = par_map(jobs, |(p, pct, delay, eps)| run_cell(p, pct, delay, eps));

    println!("{}", render_table(&rows));
    println!("coverage = mean live-node fraction of the token universe;");
    println!("crash/recov/part = fault events fired (completion asserted per cell).");

    write_gate_json(&out_path, &[("n", N.to_string())], &rows);
}
