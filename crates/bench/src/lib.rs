//! # dynspread-bench — benchmark and experiment harness
//!
//! Shared runners used by the experiment binaries (`src/bin/*.rs`), and
//! the exact behaviour gate over the committed `BENCH_*.json` baselines
//! ([`check`]). Every binary regenerates one of the paper's quantitative
//! artifacts — the tables below are the index (the root `README.md` carries
//! a copy), and each binary's module doc states the claim it checks and the
//! shape to expect.
//!
//! What two binaries share is written once, here: a grid cell is a
//! [`row::Row`] of `(JSON name, table label, value)` columns from which
//! both the printed table and the gate file are rendered, and the protocol
//! arms of the scale/profile grids, the three async ports of the
//! fault/Byzantine grids, the link sweeps' grid and the Section 2
//! lower-bound setup are the functions of [`arms`].
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
//! | `exp_adaptivity_gap` | footnote 4 (strongly vs weakly adaptive adversary) |
//! | `exp_time_vs_messages` | Section 1.2 (time vs messages tradeoff) |
//! | `exp_network_coding` | Section 1.2 (token forwarding vs network coding) |
//!
//! The rest step *outside* the paper's lossless synchronous model via
//! `dynspread-runtime` (the synchronizer runs the round-based protocols
//! unchanged, every send routed through a seeded link model; the event
//! engine runs their asynchronous ports):
//!
//! | binary | scenario |
//! |---|---|
//! | `exp_lossy_links` | message-drop sweep: handshake degradation vs drop probability |
//! | `exp_latency_sweep` | delivery-delay sweep: round stretch vs fixed latency + jitter |
//! | `exp_async_vs_sync` | retransmission premium of the async ports vs the lossless sync reference |
//! | `exp_scale` | n ∈ {1k, 2k, 4k, 8k} grid over flooding / single-source / multi-source / async single-source / async oblivious; writes `BENCH_runtime.json` (counts, plus wall time for orientation) |
//! | `exp_oblivious_async` | drop × jitter sweep of the asynchronous two-phase oblivious pipeline |
//! | `exp_profile` | wall-clock phase attribution of the engines (self-profiler) on `exp_scale`'s arm definitions; writes `BENCH_profile.json` |
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

pub mod arms;
pub mod check;
pub mod parallel;
pub mod row;

pub use parallel::{derive_seed, par_map, worker_count};

use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::oblivious::{run_oblivious_multi_source, ObliviousConfig, ObliviousOutcome};
use dynspread_core::single_source::{RequestPolicy, SingleSourceNode, SsMsg};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::adversary::UnicastAdversary;
use dynspread_sim::sim::{SimConfig, UnicastSim};
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;

/// The default 3-edge-stable oblivious adversary used across experiments:
/// a fresh random tree every 3 rounds.
pub fn default_adversary(seed: u64) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, 3, seed)
}

/// Parses the gate binaries' command line, `[--smoke] [OUT.json]`:
/// whether to run the reduced CI grid, and where the cells go
/// (`default_out` when no path is given). Any other `--flag` or a second
/// path prints `error: …` and the usage to stderr and exits with status 2.
pub fn gate_args(default_out: &str) -> (bool, String) {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse_gate_args(args, default_out).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} [--smoke] [OUT.json]");
        std::process::exit(2);
    })
}

fn parse_gate_args(
    args: impl Iterator<Item = String>,
    default_out: &str,
) -> Result<(bool, String), String> {
    let mut smoke = false;
    let mut out_path = None;
    for arg in args {
        if arg == "--smoke" {
            smoke = true;
        } else if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else if let Some(first) = &out_path {
            return Err(format!("two output paths, `{first}` and `{arg}`"));
        } else {
            out_path = Some(arg);
        }
    }
    Ok((smoke, out_path.unwrap_or_else(|| default_out.to_string())))
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

/// One cell of the Table 1 / Theorem 3.8 experiment, the run behind both
/// `table1` and `exp_oblivious`: `k` tokens spread round-robin over
/// `s = min(k, n)` sources, disseminated by the oblivious two-phase
/// algorithm (phase 1 on `G(n, 0.15)`, phase 2 on random trees, both
/// rewired every 3 rounds) and by plain Multi-Source-Unicast (random
/// trees). `i` is the cell's index in its bin's `k` grid and offsets every
/// seed. The config uses the paper's formulas with the log factors dropped
/// (`threshold = n^{2/3}`, `f = √n·k^{1/4}` capped at `n/2`; `table1.rs`'s
/// module doc says why).
pub fn run_oblivious_vs_multi_source(
    n: usize,
    k: usize,
    i: usize,
    seed: u64,
) -> (ObliviousOutcome, RunReport) {
    let nf = n as f64;
    let seed = seed + i as u64;
    let assignment = TokenAssignment::round_robin_sources(n, k, k.min(n));
    let f = (nf.sqrt() * (k as f64).powf(0.25)).min(nf / 2.0);
    let cfg = ObliviousConfig {
        seed,
        source_threshold: Some(nf.powf(2.0 / 3.0)),
        center_probability: Some((f / nf).min(0.5)),
        degree_threshold: Some(nf / f),
        phase1_max_rounds: 300_000,
        phase2_max_rounds: 4_000_000,
    };
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.15), 3, seed + 100),
        PeriodicRewiring::new(Topology::RandomTree, 3, seed + 200),
        &cfg,
    );
    let ms = run_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::RandomTree, 3, seed + 300),
        4_000_000,
    );
    (out, ms)
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
    fn gate_args_take_one_flag_and_one_path_and_reject_the_rest() {
        let parse = |args: &[&str]| parse_gate_args(args.iter().map(|s| s.to_string()), "D.json");
        assert_eq!(parse(&[]), Ok((false, "D.json".to_string())));
        assert_eq!(parse(&["--smoke"]), Ok((true, "D.json".to_string())));
        assert_eq!(
            parse(&["o.json", "--smoke"]),
            Ok((true, "o.json".to_string()))
        );
        assert!(parse(&["--somke"]).unwrap_err().contains("`--somke`"));
        assert!(parse(&["--smoke", "--out", "o.json"]).is_err());
        assert!(parse(&["a.json", "b.json"])
            .unwrap_err()
            .contains("`b.json`"));
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
