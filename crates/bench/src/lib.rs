//! # dynspread-bench — benchmark and experiment harness
//!
//! Shared runners used by the experiment binaries (`src/bin/*.rs`). Every
//! binary regenerates one of the paper's quantitative artifacts or steps
//! outside its lossless synchronous model via `dynspread-runtime`; the root
//! `README.md` § Experiment binaries is the index, and each binary's module
//! doc states the claim it checks and the shape to expect.
//!
//! What two binaries share is written once, here: every table a binary
//! prints is a list of [`row::Row`]s of `(JSON name, table label, value)`
//! columns, rendered by the one [`row::render_table`] (and, in the gate
//! binaries, into the committed file too), and the protocol arms of the
//! scale/profile grids, the three async ports of the fault/Byzantine grids,
//! the link sweeps' grid and the Section 2 lower-bound setup are the
//! functions of [`arms`].
//!
//! Five binaries (`exp_{scale,profile,faults,byzantine,sessions}`) write a
//! `BENCH_*.json` at the repo root. Such a file holds only what the seeds
//! determine, so the behaviour gate is a comparison of bytes:
//! `tests/committed_baselines.rs` runs each of the five and demands the
//! committed file back, and runs the other sixteen with no arguments and
//! demands their committed stdout (`stdout/<bin>.txt`) back. A baseline is
//! refreshed by re-running its bin with no arguments and committing the
//! result. Wall time is not gated here: speed is claimed through
//! alternating parent/change pairs of the standalone `benchmark/` package.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arms;
pub mod parallel;
pub mod row;

pub use parallel::{derive_seed, par_map, worker_count};

use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::oblivious::{laptop_scale, run_oblivious_multi_source};
use dynspread_core::oblivious::{ObliviousConfig, ObliviousOutcome};
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

/// Parses the gate binaries' command line, `[OUT.json]`: where the cells
/// go (`default_out` when no path is given). A `--flag` or a second path
/// prints `error: …` and the usage to stderr and exits with status 2.
pub fn gate_args(default_out: &str) -> String {
    parse_or_exit("[OUT.json]", |args| parse_gate_args(args, default_out))
}

/// Parses `table1`'s and `fig1_free_edges`'s command line, `[N]`: the
/// network size (`default_n` when none is given). A non-number, a second
/// argument or an `N` below `min_n`, the smallest size the bin runs to
/// completion, prints `error: …` and the usage to stderr and exits with
/// status 2.
pub fn size_arg(default_n: usize, min_n: usize) -> usize {
    let usage = format!("[N]  (N ≥ {min_n}, default {default_n})");
    parse_or_exit(&usage, |args| parse_size_arg(args, default_n, min_n))
}

/// Runs `parse` over the arguments after the binary's name; on an error,
/// prints it and `usage` to stderr and exits with status 2.
fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(std::env::Args) -> Result<T, String>) -> T {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    parse(args).unwrap_or_else(|e| {
        eprintln!("error: {e}\nusage: {bin} {usage}");
        std::process::exit(2);
    })
}

fn parse_size_arg(
    mut args: impl Iterator<Item = String>,
    default_n: usize,
    min_n: usize,
) -> Result<usize, String> {
    let Some(arg) = args.next() else {
        return Ok(default_n);
    };
    if let Some(extra) = args.next() {
        return Err(format!("unexpected second argument `{extra}`"));
    }
    match arg.parse() {
        Ok(n) if n >= min_n => Ok(n),
        Ok(n) => Err(format!("N = {n} is below {min_n}")),
        Err(_) => Err(format!("`{arg}` is not a size")),
    }
}

fn parse_gate_args(
    args: impl Iterator<Item = String>,
    default_out: &str,
) -> Result<String, String> {
    let mut out_path = None;
    for arg in args {
        if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        } else if let Some(first) = &out_path {
            return Err(format!("two output paths, `{first}` and `{arg}`"));
        } else {
            out_path = Some(arg);
        }
    }
    Ok(out_path.unwrap_or_else(|| default_out.to_string()))
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
/// seed. The config is [`laptop_scale`]'s (`table1.rs`'s module doc says
/// why).
pub fn run_oblivious_vs_multi_source(
    n: usize,
    k: usize,
    i: usize,
    seed: u64,
) -> (ObliviousOutcome, RunReport) {
    let seed = seed + i as u64;
    let assignment = TokenAssignment::round_robin_sources(n, k, k.min(n));
    let (threshold, p, gamma) = laptop_scale(n, k);
    let cfg = ObliviousConfig {
        seed,
        source_threshold: Some(threshold),
        center_probability: Some(p),
        degree_threshold: Some(gamma),
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
    fn gate_args_take_one_path_and_reject_the_rest() {
        let parse = |args: &[&str]| parse_gate_args(args.iter().map(|s| s.to_string()), "D.json");
        assert_eq!(parse(&[]), Ok("D.json".to_string()));
        assert_eq!(parse(&["o.json"]), Ok("o.json".to_string()));
        assert!(parse(&["--out", "o.json"]).unwrap_err().contains("`--out`"));
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
