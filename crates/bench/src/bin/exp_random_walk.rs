//! **Lemma 3.7** — visit-count bound for random walks on d-regular dynamic
//! graphs under an oblivious adversary.
//!
//! Simulates the lazy walk Algorithm 2 uses (move w.p. `d/n` on the
//! virtual n-regular multigraph) over rewired near-d-regular graphs, and
//! reports for each (d, rounds):
//!
//! * distinct nodes visited vs. the `√L/(d log n)` lower-bound shape,
//! * the maximum visits to any node vs. the `d √(t+1) log n` upper-bound
//!   shape.

use dynspread_analysis::stats::Summary;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::par_map;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::random_walk::{distinct_visit_bound, lazy_walk, visit_count_bound};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;

fn main() {
    let seed = 41u64;
    let n = 64usize;
    let trials = 5;
    println!("Lemma 3.7 reproduction: lazy walks on near-d-regular dynamic graphs, n = {n}, {trials} trials/row\n");

    // Every (d, rounds, trial) walk is independent: fan the whole grid
    // across cores, then aggregate trial means per cell.
    let cells: Vec<(usize, u64)> = [3usize, 4, 6]
        .into_iter()
        .flat_map(|d| [5_000u64, 20_000, 80_000].into_iter().map(move |r| (d, r)))
        .collect();
    let jobs: Vec<(usize, u64, usize)> = cells
        .iter()
        .flat_map(|&(d, r)| (0..trials).map(move |t| (d, r, t)))
        .collect();
    let walks = par_map(jobs, |(d, rounds, t)| {
        let mut adv = PeriodicRewiring::new(Topology::NearRegular(d), 5, seed + t as u64);
        let stats = lazy_walk(&mut adv, n, NodeId::new(0), rounds, seed + 100 + t as u64);
        (
            stats.distinct_visits as f64,
            stats.max_visits() as f64,
            stats.actual_steps as f64,
        )
    });
    let mut rows = Vec::new();
    for (ci, &(d, rounds)) in cells.iter().enumerate() {
        let cell = &walks[ci * trials..(ci + 1) * trials];
        let distinct: Vec<f64> = cell.iter().map(|w| w.0).collect();
        let maxv: Vec<f64> = cell.iter().map(|w| w.1).collect();
        let actual: Vec<f64> = cell.iter().map(|w| w.2).collect();
        let mean_actual = Summary::from_samples(&actual).mean;
        let lb = distinct_visit_bound(mean_actual as u64, d, n);
        rows.push(
            Row::default()
                .table("d", d)
                .table("rounds", rounds)
                .table("actual steps (mean)", fmt_f64(mean_actual))
                .table(
                    "distinct visits (mean)",
                    fmt_f64(Summary::from_samples(&distinct).mean),
                )
                .table("√L/(d·ln n) (LB shape)", fmt_f64(lb))
                .table(
                    "max visits (mean)",
                    fmt_f64(Summary::from_samples(&maxv).mean),
                )
                .table(
                    "d·√(t+1)·ln n (UB shape)",
                    fmt_f64(visit_count_bound(rounds, d, n)),
                ),
        );
    }
    println!("{}", render_table(&rows));
    println!(
        "expected shape: distinct visits ≥ the LB column (walks cover nodes at \
         least at the Lemma 3.7 rate); max visits ≤ the UB column up to the 2^(c+3) constant"
    );
}
