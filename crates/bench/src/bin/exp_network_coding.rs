//! **Section 1.2 contrast** — token forwarding vs network coding.
//!
//! The paper: "the k-gossip problem on the adversarial model of \[32\] can be
//! solved using network coding in O(n + k) rounds assuming the token sizes
//! are sufficiently large", while token-forwarding needs `Ω(nk/log n)`
//! rounds (and phased flooding pays `O(nk)`).
//!
//! This binary runs n-gossip (k = n) with phased flooding and with RLNC
//! gossip over the same rewired-tree dynamics and compares rounds and
//! messages. Expected shape: RLNC rounds grow ~linearly in n (`O(n + k)`);
//! flooding rounds grow ~quadratically (`Θ(nk) = Θ(n²)`).

use dynspread_analysis::fit::power_law_fit;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::par_map;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::network_coding::RlncNode;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_sim::sim::{BroadcastSim, SimConfig};
use dynspread_sim::token::TokenAssignment;

fn main() {
    let seed = 53u64;
    println!("Token forwarding vs network coding (n-gossip, rewired random trees)\n");

    let ns = [8usize, 12, 16, 24, 32];
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut flood_rounds = Vec::new();
    let mut rlnc_rounds = Vec::new();
    // Both arms per n are independent seeded runs: fan across cores.
    let runs = par_map(ns.into_iter().enumerate().collect(), |(i, n)| {
        let assignment = TokenAssignment::n_gossip(n);
        let mut flood_sim = BroadcastSim::new(
            "phased-flooding",
            PhasedFlooding::nodes(&assignment),
            PeriodicRewiring::new(Topology::RandomTree, 1, seed + i as u64),
            &assignment,
            SimConfig::with_max_rounds((n * n) as u64),
        );
        let flood = flood_sim.run_to_completion();

        let mut rlnc_sim = BroadcastSim::new(
            "rlnc-gossip",
            RlncNode::nodes(&assignment, seed + 100 + i as u64),
            PeriodicRewiring::new(Topology::RandomTree, 1, seed + i as u64),
            &assignment,
            SimConfig::with_max_rounds((n * n) as u64),
        );
        (n, flood, rlnc_sim.run_to_completion())
    });
    for (n, flood, rlnc) in runs {
        assert!(flood.completed, "flooding n={n}");
        assert!(rlnc.completed, "rlnc n={n}");

        rows.push(
            Row::default()
                .table("n (=k)", n)
                .table("flooding rounds", flood.rounds)
                .table("RLNC rounds", rlnc.rounds)
                .table("flooding msgs", flood.total_messages)
                .table("RLNC msgs", rlnc.total_messages)
                .table(
                    "round speedup",
                    fmt_f64(flood.rounds as f64 / rlnc.rounds as f64),
                ),
        );
        xs.push(n as f64);
        flood_rounds.push(flood.rounds as f64);
        rlnc_rounds.push(rlnc.rounds as f64);
    }
    println!("{}", render_table(&rows));
    let ff = power_law_fit(&xs, &flood_rounds);
    let rf = power_law_fit(&xs, &rlnc_rounds);
    println!(
        "rounds scaling: flooding ~ n^{:.2} (R²={:.3}), RLNC ~ n^{:.2} (R²={:.3})",
        ff.slope, ff.r_squared, rf.slope, rf.r_squared
    );
    println!(
        "paper predicts: flooding Θ(nk)=Θ(n²) (exponent 2), RLNC O(n+k)=O(n) (exponent 1); \
         the coding advantage requires Ω(n log n)-bit tokens (each packet carries a k-bit header)"
    );
}
