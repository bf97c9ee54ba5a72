//! **Section 1.2's time-vs-messages tradeoff** — "a message-efficient
//! algorithm can take a longer time but exchanging less total number of
//! messages, e.g., by sending messages only along a few edges and/or by
//! using silence."
//!
//! Runs naive unicast flooding (time-greedy: every node pushes tokens over
//! every edge every round) and Algorithm 1 (message-lean: silence except
//! for the request/response handshake) on identical dynamics and reports
//! the tradeoff: flooding finishes faster; Algorithm 1 sends far fewer
//! messages net of the adversary's budget.

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::par_map;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::baselines::UnicastFlooding;
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_sim::sim::{SimConfig, UnicastSim};
use dynspread_sim::token::TokenAssignment;

fn main() {
    let seed = 61u64;
    println!("Time vs messages (unicast): naive flooding vs Algorithm 1, k = 2n\n");

    // Both arms of every n are independent seeded runs: fan across cores.
    let jobs: Vec<(usize, usize, bool)> = [12usize, 16, 24, 32]
        .into_iter()
        .enumerate()
        .flat_map(|(i, n)| [(i, n, true), (i, n, false)])
        .collect();
    let runs = par_map(jobs, |(i, n, flood_arm)| {
        let k = 2 * n;
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        let adversary = PeriodicRewiring::new(Topology::Gnp(0.3), 3, seed + i as u64);
        let cfg = SimConfig::with_max_rounds(1_000_000);
        let report = if flood_arm {
            UnicastSim::new(
                "unicast-flooding",
                UnicastFlooding::nodes(&assignment),
                adversary,
                &assignment,
                cfg,
            )
            .run_to_completion()
        } else {
            UnicastSim::new(
                "single-source-unicast",
                SingleSourceNode::nodes(&assignment),
                adversary,
                &assignment,
                cfg,
            )
            .run_to_completion()
        };
        (n, report)
    });
    let mut rows = Vec::new();
    for (n, r) in &runs {
        assert!(r.completed, "n={n}: {r}");
        rows.push(
            Row::default()
                .table("n", n)
                .table("algorithm", &r.algorithm)
                .table("rounds", r.rounds)
                .table("messages", r.total_messages)
                .table("residual M−TC", fmt_f64(r.competitive_residual(1.0)))
                .table("amortized msgs/token", fmt_f64(r.amortized())),
        );
    }
    println!("{}", render_table(&rows));
    println!(
        "expected shape: flooding wins on rounds (pays Θ(n²) messages/token for it); \
         Algorithm 1 wins on messages — its residual stays O(n² + nk) while flooding's \
         grows with the edge density. This is the tradeoff that motivates studying \
         message complexity separately from time complexity."
    );
}
