//! **Theorems 3.5 & 3.6** — Multi-Source-Unicast: 1-adversary-competitive
//! `O(n²s + nk)` messages; `O(nk)` rounds under 3-edge stability.
//!
//! Sweeps the source count `s` at fixed `n, k` (showing the announcement
//! cost growing linearly in `s`) and checks the competitive residual
//! against `n²s + nk` plus the round bound.

use dynspread_analysis::competitive::{competitive_records, multi_source_bound, worst_ratio};
use dynspread_analysis::fit::linear_fit;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_bench::{default_adversary, par_map, run_multi_source};
use dynspread_sim::message::MessageClass;
use dynspread_sim::token::TokenAssignment;

fn main() {
    let seed = 31u64;
    let n = 24usize;
    let k = 48usize;
    println!("Theorems 3.5 & 3.6 reproduction: Multi-Source-Unicast, n = {n}, k = {k}");
    println!("bound: M − TC(E) ≤ c(n²s + nk); rounds ≤ c'·nk on 3-stable graphs\n");

    let mut rows = Vec::new();
    let ss = [1usize, 2, 4, 8, 16, 24];
    let mut announce = Vec::new();
    let mut svals = Vec::new();
    // Independent seeded runs per source count: fan across cores.
    let runs = par_map(ss.iter().copied().enumerate().collect(), |(i, s)| {
        let assignment = TokenAssignment::round_robin_sources(n, k, s);
        (
            s,
            run_multi_source(&assignment, default_adversary(seed + i as u64), 4_000_000),
        )
    });
    for (s, report) in runs {
        assert!(report.completed, "s={s}: {report}");
        let residual = report.competitive_residual(1.0);
        let bound = (n * n * s + n * k) as f64;
        rows.push(
            Row::default()
                .table("s", s)
                .table("messages", report.total_messages)
                .table(
                    "completeness msgs",
                    report.class(MessageClass::Completeness),
                )
                .table("TC(E)", report.tc())
                .table("residual", fmt_f64(residual))
                .table("n²s+nk", fmt_f64(bound))
                .table("ratio", fmt_f64(residual / bound))
                .table("rounds/nk", fmt_f64(report.rounds as f64 / (n * k) as f64)),
        );
        announce.push(report.class(MessageClass::Completeness) as f64);
        svals.push(s as f64);
        // Per-s competitive record for the worst-ratio summary.
        let records = competitive_records(&[report], 1.0, multi_source_bound(s));
        assert!(worst_ratio(&records) < 8.0, "ratio exploded for s={s}");
    }
    println!("{}", render_table(&rows));

    let fit = linear_fit(&svals, &announce);
    println!(
        "completeness messages ≈ {:.0} + {:.0}·s (R² = {:.3}) — the Theorem 3.5 \
         O(n²s) announcement term, linear in s as predicted",
        fit.intercept, fit.slope, fit.r_squared
    );
}
