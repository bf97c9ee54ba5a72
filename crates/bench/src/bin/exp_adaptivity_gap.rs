//! **Footnote 4** — strongly vs weakly adaptive adversaries.
//!
//! "The strongly adaptive adversary knows the algorithm's randomness of the
//! current round … a weakly adaptive adversary only knows the algorithm's
//! randomness up to the round before the current round."
//!
//! The Section 2 lower bound needs the *strong* variant: the adversary must
//! see the committed broadcast tokens before wiring the round. This binary
//! measures the gap: round-robin flooding (whose per-round token choice the
//! lagged adversary cannot predict) is stalled forever by the strong
//! adversary, but completes against the weak one.

use dynspread_analysis::progress::stall_fraction;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::run_section2;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::flooding::RoundRobinBroadcast;
use dynspread_core::lower_bound::{LaggedPotentialAdversary, PotentialAdversary};

fn main() {
    let seed = 71u64;
    println!("Adaptivity gap: the §2 adversary with and without the one-round lag");
    println!("algorithm: round-robin flooding (rotating token choice); k = n/2\n");

    // Both arms per n are independent seeded runs: fan across cores. Same
    // seed, so same K' sets and initial assignment for the two of them.
    let runs = dynspread_bench::par_map(
        [16usize, 24, 32].into_iter().enumerate().collect(),
        |(i, n)| {
            let nodes = RoundRobinBroadcast::nodes;
            let seed = seed + i as u64;
            let (strong, sim) =
                run_section2("round-robin", nodes, PotentialAdversary::new, n, seed, 30);
            let strong_stalls = stall_fraction(sim.tracker().learnings_per_round());
            let (weak, sim) = run_section2(
                "round-robin",
                nodes,
                LaggedPotentialAdversary::new,
                n,
                seed,
                30,
            );
            let weak_stalls = stall_fraction(sim.tracker().learnings_per_round());
            (n, strong, strong_stalls, weak, weak_stalls)
        },
    );
    let mut rows = Vec::new();
    for (n, strong, strong_stalls, weak, weak_stalls) in runs {
        for (adversary, report, stalls) in [
            ("strongly adaptive", strong, strong_stalls),
            ("weakly adaptive", weak, weak_stalls),
        ] {
            rows.push(
                Row::default()
                    .table("n", n)
                    .table("adversary", adversary)
                    .table("completed?", report.completed)
                    .table("rounds", report.rounds)
                    .table("messages", report.total_messages)
                    .table("stall fraction", fmt_f64(stalls)),
            );
        }
    }
    println!("{}", render_table(&rows));
    println!(
        "expected shape: identical K' sets and initial knowledge, yet the strong \
         adversary stalls round-robin indefinitely while the weak one cannot — \
         the one-round lag is exactly the power the Theorem 2.3 proof needs"
    );
}
