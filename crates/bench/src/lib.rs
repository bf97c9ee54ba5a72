//! # dynspread-bench — benchmark and experiment harness
//!
//! Shared runners used by the experiment binaries (`src/bin/*.rs`), and
//! the exact behaviour gate over the committed `BENCH_*.json` baselines
//! ([`check`]). Every binary regenerates one of the paper's quantitative
//! artifacts — the tables below are the index, and each binary's module
//! doc states the claim it checks and the shape to expect.
//!
//! | binary | paper artifact |
//! |---|---|
//! | `table1` | Table 1 (amortized cost of the oblivious algorithm vs k) |
//! | `fig1_free_edges` | Figure 1 / Lemma 2.2 (free-edge graph structure) |
//! | `exp_local_broadcast_lb` | Theorem 2.3 (local-broadcast lower bound) |
//! | `exp_single_source` | Theorems 3.1 and 3.4 |
//! | `exp_multi_source` | Theorems 3.5 and 3.6 |
//! | `exp_oblivious` | Theorem 3.8 |
//! | `exp_random_walk` | Lemma 3.7 |
//! | `exp_stability_ablation` | σ-stability ablation (design choice of §3.1) |
//! | `exp_priority_ablation` | request-priority ablation (Algorithm 1) |
//!
//! Two binaries step *outside* the paper's lossless synchronous model via
//! the `dynspread-runtime` synchronizer (the round-based protocols run
//! unchanged; every send is routed through a seeded link model):
//!
//! | binary | scenario |
//! |---|---|
//! | `exp_lossy_links` | message-drop sweep: handshake degradation vs drop probability |
//! | `exp_latency_sweep` | delivery-delay sweep: round stretch vs fixed latency + jitter |
//! | `exp_async_vs_sync` | retransmission premium of the async ports vs the lossless sync reference |
//! | `exp_scale` | n ∈ {1k, 2k, 4k, 8k} grid over flooding / single-source / multi-source / async single-source / async oblivious; writes `BENCH_runtime.json` (counts, plus wall time for orientation) |
//! | `exp_oblivious_async` | drop × jitter sweep of the asynchronous two-phase oblivious pipeline |
//! | `exp_profile` | wall-clock phase attribution of the engines (self-profiler); writes `BENCH_profile.json` |
//! | `exp_faults` | crash-recovery × partition sweep of the async ports, self-healing asserted per cell; writes `BENCH_faults.json` |
//! | `exp_byzantine` | malicious fraction × misbehavior kind sweep, auditor soundness asserted per cell; writes `BENCH_byzantine.json` |
//! | `exp_sessions` | multi-session service sweep: arrival traces replayed through `Scenario::run_sessions`, per-session latency percentiles + aggregate envelope load; writes `BENCH_sessions.json` |
//! | `bench_check` | CI behaviour gate: fresh `exp_{scale,byzantine,faults,sessions} --smoke` cells must equal the committed baselines on every deterministic column (see [`check`]) |
//!
//! Wall time is not gated here. Speed is claimed through alternating
//! parent/change pairs of the standalone `benchmark/` package; behaviour is
//! gated exactly by `bench_check`; a baseline is refreshed by re-running
//! its `exp_*` bin.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod parallel;

pub use parallel::{derive_seed, par_map, par_runs, worker_count};

use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::single_source::{RequestPolicy, SingleSourceNode, SsMsg};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::adversary::{BroadcastAdversary, UnicastAdversary};
use dynspread_sim::sim::{BroadcastSim, SimConfig, UnicastSim};
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;

/// The default 3-edge-stable oblivious adversary used across experiments:
/// a fresh random tree every 3 rounds.
pub fn default_adversary(seed: u64) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, 3, seed)
}

/// Parses the gate binaries' command line, `[--smoke] [OUT.json]`:
/// whether to run the reduced CI grid, and where the cells go
/// (`default_out` when no path is given).
pub fn gate_args(default_out: &str) -> (bool, String) {
    let mut smoke = false;
    let mut out_path = default_out.to_string();
    for arg in std::env::args().skip(1) {
        if arg == "--smoke" {
            smoke = true;
        } else {
            out_path = arg;
        }
    }
    (smoke, out_path)
}

/// Writes a gate binary's baseline file —
/// `{"<name>": <value>, …, "smoke": …, "cells": [ … ]}` with one
/// pre-rendered JSON value per header entry and one pre-rendered cell
/// object per cell, the shape [`check`] parses — and reports the path on
/// stderr.
///
/// # Panics
///
/// Panics if the file cannot be written.
pub fn write_gate_json(out_path: &str, header: &[(&str, String)], smoke: bool, cells: &[String]) {
    let header: String = header
        .iter()
        .map(|(name, value)| format!("  \"{name}\": {value},\n"))
        .collect();
    let json = format!(
        "{{\n{header}  \"smoke\": {smoke},\n  \"cells\": [\n{}\n  ]\n}}\n",
        cells.join(",\n")
    );
    std::fs::write(out_path, json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}

/// Runs Single-Source-Unicast (Algorithm 1) to completion.
pub fn run_single_source<A: UnicastAdversary<SsMsg>>(
    n: usize,
    k: usize,
    adversary: A,
    max_rounds: Round,
) -> RunReport {
    run_single_source_with_policy(n, k, adversary, max_rounds, RequestPolicy::Prioritized)
}

/// Runs Single-Source-Unicast with an explicit request policy.
pub fn run_single_source_with_policy<A: UnicastAdversary<SsMsg>>(
    n: usize,
    k: usize,
    adversary: A,
    max_rounds: Round,
    policy: RequestPolicy,
) -> RunReport {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let nodes = NodeId::all(n)
        .map(|v| SingleSourceNode::with_policy(v, &assignment, policy))
        .collect();
    let mut sim = UnicastSim::new(
        match policy {
            RequestPolicy::Prioritized => "single-source-unicast",
            RequestPolicy::Unprioritized => "single-source-unicast(unprioritized)",
        },
        nodes,
        adversary,
        &assignment,
        SimConfig::with_max_rounds(max_rounds),
    );
    sim.run_to_completion()
}

/// Runs Single-Source-Unicast with wall-clock self-profiling enabled —
/// the report carries [`RunReport::profile`] phase attribution. Used by
/// `exp_profile`.
pub fn run_single_source_profiled<A: UnicastAdversary<SsMsg>>(
    n: usize,
    k: usize,
    adversary: A,
    max_rounds: Round,
) -> RunReport {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let nodes = NodeId::all(n)
        .map(|v| SingleSourceNode::with_policy(v, &assignment, RequestPolicy::Prioritized))
        .collect();
    let mut sim = UnicastSim::new(
        "single-source-unicast",
        nodes,
        adversary,
        &assignment,
        SimConfig::with_max_rounds(max_rounds),
    );
    sim.enable_profiling();
    sim.run_to_completion()
}

/// Runs Multi-Source-Unicast with wall-clock self-profiling enabled
/// (see [`run_single_source_profiled`]).
pub fn run_multi_source_profiled<A>(
    assignment: &TokenAssignment,
    adversary: A,
    max_rounds: Round,
) -> RunReport
where
    A: UnicastAdversary<dynspread_core::multi_source::MsMsg>,
{
    let (nodes, _map) = MultiSourceNode::nodes(assignment);
    let mut sim = UnicastSim::new(
        "multi-source-unicast",
        nodes,
        adversary,
        assignment,
        SimConfig::with_max_rounds(max_rounds),
    );
    sim.enable_profiling();
    sim.run_to_completion()
}

/// Runs phased flooding with wall-clock self-profiling enabled
/// (see [`run_single_source_profiled`]).
pub fn run_phased_flooding_profiled<A>(
    assignment: &TokenAssignment,
    adversary: A,
    cfg: SimConfig,
) -> RunReport
where
    A: BroadcastAdversary<dynspread_core::flooding::BcastMsg>,
{
    let nodes = PhasedFlooding::nodes(assignment);
    let mut sim = BroadcastSim::new("phased-flooding", nodes, adversary, assignment, cfg);
    sim.enable_profiling();
    sim.run_to_completion()
}

/// Runs Multi-Source-Unicast to completion on an arbitrary single-holder
/// assignment.
pub fn run_multi_source<A>(
    assignment: &TokenAssignment,
    adversary: A,
    max_rounds: Round,
) -> RunReport
where
    A: UnicastAdversary<dynspread_core::multi_source::MsMsg>,
{
    let (nodes, _map) = MultiSourceNode::nodes(assignment);
    let mut sim = UnicastSim::new(
        "multi-source-unicast",
        nodes,
        adversary,
        assignment,
        SimConfig::with_max_rounds(max_rounds),
    );
    sim.run_to_completion()
}

/// Runs phased flooding (the naive local-broadcast algorithm) to
/// completion.
pub fn run_phased_flooding<A>(
    assignment: &TokenAssignment,
    adversary: A,
    max_rounds: Round,
) -> RunReport
where
    A: BroadcastAdversary<dynspread_core::flooding::BcastMsg>,
{
    run_phased_flooding_cfg(
        assignment,
        adversary,
        SimConfig::with_max_rounds(max_rounds),
    )
}

/// Runs phased flooding with an explicit engine configuration — the scale
/// grid uses this to enable sampled metering
/// (`SimConfig::meter_sampling`), which keeps the `n = 8192` flooding
/// cell from being dominated by ~200 M per-message meter updates.
pub fn run_phased_flooding_cfg<A>(
    assignment: &TokenAssignment,
    adversary: A,
    cfg: SimConfig,
) -> RunReport
where
    A: BroadcastAdversary<dynspread_core::flooding::BcastMsg>,
{
    let nodes = PhasedFlooding::nodes(assignment);
    let mut sim = BroadcastSim::new("phased-flooding", nodes, adversary, assignment, cfg);
    sim.run_to_completion()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_source_runner_completes() {
        let report = run_single_source(8, 4, default_adversary(1), 100_000);
        assert!(report.completed);
        assert_eq!(report.n, 8);
        assert_eq!(report.k, 4);
    }

    #[test]
    fn multi_source_runner_completes() {
        let a = TokenAssignment::round_robin_sources(8, 8, 4);
        let report = run_multi_source(&a, default_adversary(2), 200_000);
        assert!(report.completed);
    }

    #[test]
    fn phased_flooding_runner_completes() {
        let a = TokenAssignment::round_robin_sources(8, 4, 4);
        let report = run_phased_flooding(&a, default_adversary(3), 1_000);
        assert!(report.completed);
    }

    #[test]
    fn unprioritized_policy_also_completes_under_benign_dynamics() {
        let report = run_single_source_with_policy(
            8,
            4,
            default_adversary(4),
            200_000,
            RequestPolicy::Unprioritized,
        );
        assert!(report.completed);
    }
}
