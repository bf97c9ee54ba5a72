//! **Theorems 3.1 & 3.4** — Single-Source-Unicast: 1-adversary-competitive
//! `O(n² + nk)` messages; `O(nk)` rounds under 3-edge stability.
//!
//! Sweeps `n` and `k` across adversary families and reports, per run:
//! total messages, `TC(E)`, the competitive residual `M − TC`, the bound
//! `n² + nk`, their ratio (the empirical hidden constant — Theorem 3.1
//! holds iff it stays O(1)), and `rounds/(nk)` (Theorem 3.4's constant).

use dynspread_analysis::competitive::{competitive_records, single_source_bound, worst_ratio};
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_bench::{par_map, run_single_source};
use dynspread_core::adaptive::RequestCuttingAdversary;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring, StaticAdversary};
use dynspread_graph::Graph;

fn main() {
    let seed = 23u64;
    println!("Theorems 3.1 & 3.4 reproduction: Single-Source-Unicast");
    println!("bound: M − TC(E) ≤ c(n² + nk); rounds ≤ c'·nk on 3-stable graphs\n");

    let cases: Vec<(usize, usize)> =
        vec![(16, 8), (16, 32), (24, 24), (32, 16), (32, 64), (48, 48)];
    // Every (case, adversary) cell is an independent seeded simulation:
    // fan the grid across cores (results come back in input order).
    let jobs: Vec<(usize, usize, usize, u8)> = cases
        .iter()
        .enumerate()
        .flat_map(|(i, &(n, k))| (0u8..3).map(move |arm| (i, n, k, arm)))
        .collect();
    let runs = par_map(jobs, |(i, n, k, arm)| match arm {
        0 => (
            "static-clique".to_string(),
            n,
            k,
            run_single_source(n, k, StaticAdversary::new(Graph::complete(n)), 4_000_000),
        ),
        1 => (
            "rewire(tree,ρ=3)".to_string(),
            n,
            k,
            run_single_source(
                n,
                k,
                PeriodicRewiring::new(Topology::RandomTree, 3, seed + i as u64),
                4_000_000,
            ),
        ),
        _ => (
            "churn(c=2,σ=3)".to_string(),
            n,
            k,
            run_single_source(
                n,
                k,
                ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, seed + 40 + i as u64),
                4_000_000,
            ),
        ),
    });
    let mut rows = Vec::new();
    let mut reports = Vec::new();
    for (name, n, k, report) in runs {
        assert!(report.completed, "{name} n={n} k={k}: {report}");
        let residual = report.competitive_residual(1.0);
        let bound = single_source_bound(&report);
        rows.push(
            Row::default()
                .table("adversary", name)
                .table("n", n)
                .table("k", k)
                .table("messages", report.total_messages)
                .table("TC(E)", report.tc())
                .table("residual", fmt_f64(residual))
                .table("n²+nk", fmt_f64(bound))
                .table("ratio", fmt_f64(residual / bound))
                .table("rounds/nk", fmt_f64(report.rounds as f64 / (n * k) as f64)),
        );
        reports.push(report);
    }
    println!("{}", render_table(&rows));
    let records = competitive_records(&reports, 1.0, single_source_bound);
    println!(
        "worst residual/(n²+nk) ratio across all runs: {:.3} — Theorem 3.1 holds with this constant\n",
        worst_ratio(&records)
    );

    // Adaptive arm: unbounded request cutting may prevent termination but
    // cannot break the competitive bound (run capped).
    println!("strongly adaptive arm: request-cutting adversary (capped at 3000 rounds)");
    let adaptive_runs = par_map(vec![(16usize, 8usize), (24, 12)], |(n, k)| {
        let adv = RequestCuttingAdversary::new(Topology::SparseConnected(2.0), usize::MAX, 2, seed);
        (n, k, run_single_source(n, k, adv, 3_000))
    });
    let adv_rows: Vec<Row> = adaptive_runs
        .into_iter()
        .map(|(n, k, report)| {
            let residual = report.competitive_residual(1.0);
            Row::default()
                .table("n", n)
                .table("k", k)
                .table("completed?", report.completed)
                .table("messages", report.total_messages)
                .table("TC(E)", report.tc())
                .table("residual", fmt_f64(residual))
                .table("ratio", fmt_f64(residual / single_source_bound(&report)))
        })
        .collect();
    println!("{}", render_table(&adv_rows));
    println!("expected: residual ratio stays O(1) even when the adversary stalls termination");
}
