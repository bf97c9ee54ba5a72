//! **Table 1** — amortized message complexity of the oblivious algorithm
//! for different numbers of tokens.
//!
//! Paper (Section 3.2.2, Table 1), for `s ≥ n^{2/3} log^{5/3} n` sources:
//!
//! | k                      | amortized message complexity    |
//! |------------------------|---------------------------------|
//! | O(n^{2/3} log^{5/3} n) | O(n²)                           |
//! | O(n)                   | O(n^{7/4} log^{5/4} n) = o(n²)  |
//! | O(n^{3/2})             | O(n^{11/8} log^{5/4} n)         |
//! | O(n²)                  | O(n log^{5/4} n)                |
//!
//! i.e. amortized = `O(n^{5/2} log^{5/4} n / k^{3/4})`: messages per token
//! *decrease* with exponent −3/4 in `k`. At laptop scale the polylog
//! factors and thresholds exceed `n` (the reproduction notes in
//! `dynspread_core::oblivious` say why its config has overrides), so the
//! harness uses the same formulas with the log factors dropped
//! (`threshold = n^{2/3}`, `f = √n·k^{1/4}` capped at `n/2`) and checks the
//! **shape**: the measured amortized-vs-k exponent and the crossover
//! against plain Multi-Source-Unicast.

use dynspread_analysis::fit::power_law_fit;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_bench::{par_map, run_oblivious_vs_multi_source, size_arg};

fn main() {
    let n = size_arg(48, 2);
    let seed = 42u64;
    println!("Table 1 reproduction: n = {n}, seed = {seed}");
    println!("(log factors dropped at laptop scale; see table1.rs's module doc)\n");

    let nf = n as f64;
    let rows: Vec<(&str, usize)> = vec![
        ("n^(2/3)", (nf.powf(2.0 / 3.0)).round() as usize),
        ("n", n),
        ("n^(3/2)", (nf.powf(1.5)).round() as usize),
        ("n^2/2", n * n / 2),
    ];

    let mut table = Vec::new();
    let mut ks = Vec::new();
    let mut amortized = Vec::new();
    // Each table row is an independent pair of seeded runs: fan across
    // cores; par_map returns rows in input order.
    let runs = par_map(rows.into_iter().enumerate().collect(), |(i, (label, k))| {
        let k = k.max(2);
        let (out, ms) = run_oblivious_vs_multi_source(n, k, i, seed);
        (label, k, k.min(n), out, ms)
    });
    for (label, k, s, out, ms) in runs {
        assert!(out.completed(), "oblivious run for k={k} did not complete");
        assert!(ms.completed, "multi-source run for k={k} did not complete");
        let predicted = nf.powf(2.5) / (k as f64).powf(0.75);
        table.push(
            Row::default()
                .table("k", k)
                .table("k (label)", label)
                .table("s", s)
                .table("oblivious total", out.total_messages())
                .table("oblivious amortized", fmt_f64(out.amortized()))
                .table("multi-source amortized", fmt_f64(ms.amortized()))
                .table("predicted n^(5/2)/k^(3/4)", fmt_f64(predicted)),
        );
        ks.push(k as f64);
        amortized.push(out.amortized());
    }
    println!("{}", render_table(&table));

    let fit = power_law_fit(&ks, &amortized);
    println!(
        "measured amortized ~ k^{:.3} (R² = {:.3}); paper predicts k^-0.75",
        fit.slope, fit.r_squared
    );
    println!(
        "shape check: amortized cost should fall with k and undercut plain \
         multi-source for large s (this binary's module doc has the paper's table)"
    );
}
