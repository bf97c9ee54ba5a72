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
//!   `cargo run --release -p dynspread-bench --bin exp_faults [--smoke] [OUT.json]`
//!
//! `--smoke` runs the crash fraction ∈ {0, 20%} scenarios only — the CI
//! guard. Results go to `BENCH_faults.json` (default); `bench_check
//! --faults` demands that a fresh run equal the committed file on every
//! column of every cell it shares with it.

use dynspread_analysis::table::{fmt_f64, Table};
use dynspread_bench::{derive_seed, gate_args, par_map, write_gate_json};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
use dynspread_graph::{Graph, NodeId};
use dynspread_runtime::faults::{FaultPlan, RecoveryMode};
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::scenario::Scenario;
use dynspread_sim::token::TokenAssignment;

const PROTOCOLS: [&str; 3] = [
    "async-single-source",
    "async-multi-source",
    "async-oblivious",
];

/// Nodes per cell — large enough that 10% rounds to ≥ 2 crashed nodes.
const N: usize = 24;

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

struct Cell {
    protocol: &'static str,
    crash_pct: u32,
    recovery_delay: u64,
    episodes: u32,
    completed: bool,
    coverage: f64,
    crashes: u64,
    recoveries: u64,
    partitions: u64,
}

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

fn run_cell(protocol: &'static str, crash_pct: u32, recovery_delay: u64, episodes: u32) -> Cell {
    // Seeds derive from the scenario's *values*, not its grid index, so
    // a smoke cell is byte-identical to the same cell in the full grid,
    // which is what bench_check compares it against.
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
    let link = || DropLink::new(0.1).with_jitter(1);
    let scenario = |a: TokenAssignment| {
        Scenario::from_assignment(a)
            .topology(StaticAdversary::new(Graph::complete(N)))
            .link(link())
            .seed(seed)
            .max_time(500_000)
    };
    let (completed, coverage, report) = match protocol {
        "async-single-source" => {
            let out = scenario(TokenAssignment::single_source(N, 8, NodeId::new(0)))
                .faults(plan)
                .run_single_source();
            (out.completed, out.live_coverage, out.report)
        }
        "async-multi-source" => {
            let out = scenario(TokenAssignment::round_robin_sources(N, 12, 4))
                .faults(plan)
                .run_multi_source();
            (out.completed, out.live_coverage, out.report)
        }
        "async-oblivious" => {
            let cfg = AsyncObliviousConfig {
                seed,
                source_threshold: Some(1.0),
                center_probability: Some(0.2),
                phase1_deadline: 20_000,
                phase1_max_time: 50_000,
                phase2_max_time: 500_000,
                ..AsyncObliviousConfig::default()
            };
            // The walk phase runs fault-free; the plan hits the spread
            // phase, where recovery resyncs pull the rejoiners back up.
            let out = scenario(TokenAssignment::n_gossip(N)).run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, derive_seed(seed, 0xF18)),
                link(),
                &cfg,
                Some(&plan),
            );
            (out.completed, out.live_coverage, out.report)
        }
        other => unreachable!("unknown protocol arm {other}"),
    };
    let (crashes, recoveries, partitions) =
        (report.crashes, report.recoveries, report.partition_episodes);
    assert!(
        completed,
        "{protocol} at {crash_pct}%/{recovery_delay}/{episodes}ep did not self-heal"
    );
    if crash_pct == 0 && episodes == 0 {
        assert_eq!(crashes, 0, "{protocol}: fault-free run recorded crashes");
        assert_eq!(partitions, 0, "{protocol}: fault-free run saw a partition");
    }
    Cell {
        protocol,
        crash_pct,
        recovery_delay,
        episodes,
        completed,
        coverage,
        crashes,
        recoveries,
        partitions,
    }
}

fn main() {
    let (smoke, out_path) = gate_args("BENCH_faults.json");
    let scenarios: Vec<(u32, u64, u32)> = SCENARIOS
        .iter()
        .copied()
        .filter(|&(pct, _, _)| !smoke || pct == 0 || pct == 20)
        .collect();
    println!(
        "Fault grid: n = {N}, scenarios {scenarios:?} × {PROTOCOLS:?}{}",
        if smoke { " (smoke)" } else { "" }
    );

    let mut jobs: Vec<(&'static str, u32, u64, u32)> = Vec::new();
    for &p in &PROTOCOLS {
        for &(pct, delay, eps) in &scenarios {
            jobs.push((p, pct, delay, eps));
        }
    }
    let cells = par_map(jobs, |(p, pct, delay, eps)| run_cell(p, pct, delay, eps));

    let mut table = Table::new(&[
        "protocol", "crash %", "delay", "part", "done", "coverage", "crash", "recov", "part",
    ]);
    let mut json_cells = Vec::new();
    for c in &cells {
        table.row_owned(vec![
            c.protocol.to_string(),
            c.crash_pct.to_string(),
            c.recovery_delay.to_string(),
            c.episodes.to_string(),
            c.completed.to_string(),
            fmt_f64(c.coverage),
            c.crashes.to_string(),
            c.recoveries.to_string(),
            c.partitions.to_string(),
        ]);
        json_cells.push(format!(
            "    {{\"protocol\": \"{}\", \"crash_pct\": {}, \"recovery_delay\": {}, \"episodes\": {}, \"completed\": {}, \"coverage\": {:.4}, \"crashes\": {}, \"recoveries\": {}, \"partitions\": {}}}",
            c.protocol,
            c.crash_pct,
            c.recovery_delay,
            c.episodes,
            c.completed,
            c.coverage,
            c.crashes,
            c.recoveries,
            c.partitions,
        ));
    }
    println!("{}", table.render());
    println!("coverage = mean live-node fraction of the token universe;");
    println!("crash/recov/part = fault events fired (completion asserted per cell).");

    write_gate_json(&out_path, &[("n", N.to_string())], smoke, &json_cells);
}
