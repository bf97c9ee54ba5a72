//! **Theorem 2.3** — the `Ω(n²/log²n)` amortized lower bound for local
//! broadcast, measured.
//!
//! Runs the naive phased-flooding algorithm (the `O(n²)`-amortized upper
//! bound) against the executable Section 2 adversary and reports, per `n`:
//!
//! * amortized broadcasts per token vs. the `n²/log²n` lower-bound shape
//!   and the `n²` upper-bound shape;
//! * the maximum per-round potential increase (Lemma 2.1 caps it at
//!   `O(log n)`);
//! * the stall behavior of round-robin flooding (which, lacking the phase
//!   structure, the adversary blocks outright — the Lemma 2.2 mechanism).

use dynspread_analysis::fit::power_law_fit;
use dynspread_analysis::plot::column_chart;
use dynspread_analysis::progress::{cumulative, stall_fraction};
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::run_section2;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::flooding::{PhasedFlooding, RoundRobinBroadcast};
use dynspread_core::lower_bound::PotentialAdversary;

fn main() {
    let seed = 11u64;
    println!("Theorem 2.3 reproduction: phased flooding vs the §2 potential adversary");
    println!("initial knowledge density 1/4, K' density 1/4, k = n/2, seed = {seed}\n");

    let ns = [16usize, 24, 32, 48, 64];
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    let mut last_curve: Vec<f64> = Vec::new();
    // Every n is an independent seeded run: fan across cores; the closure
    // extracts everything the report rows need before the sim is dropped.
    let runs = dynspread_bench::par_map(ns.into_iter().enumerate().collect(), |(i, n)| {
        let (report, sim) = run_section2(
            "phased-flooding",
            PhasedFlooding::nodes,
            PotentialAdversary::new,
            n,
            seed + i as u64,
            2,
        );
        let max_phi = sim
            .adversary()
            .potential_increases()
            .into_iter()
            .max()
            .unwrap_or(0);
        let curve: Vec<f64> = cumulative(sim.tracker().learnings_per_round())
            .into_iter()
            .map(|v| v as f64)
            .collect();
        (n, n / 2, report, max_phi, curve)
    });
    for (n, k, report, max_phi, curve) in runs {
        assert!(report.completed, "phased flooding must complete: {report}");
        let ln = (n as f64).ln();
        rows.push(
            Row::default()
                .table("n", n)
                .table("k", k)
                .table("rounds", report.rounds)
                .table("amortized msgs/token", fmt_f64(report.amortized()))
                .table("n²/ln²n (LB shape)", fmt_f64((n * n) as f64 / (ln * ln)))
                .table("n² (UB shape)", fmt_f64((n * n) as f64))
                .table("max Φ-increase/round", max_phi)
                .table("ln n", fmt_f64(ln)),
        );
        xs.push(n as f64);
        ys.push(report.amortized());
        last_curve = curve;
    }
    println!("{}", render_table(&rows));
    println!(
        "cumulative token learnings over time (n = {}) — the adversary \
         flattens the curve to O(log n) per round:",
        ns.last().unwrap()
    );
    println!("{}", column_chart(&last_curve, 64, 8));
    let fit = power_law_fit(&xs, &ys);
    println!(
        "measured amortized ~ n^{:.2} (R² = {:.3}); Theorem 2.3 forces exponent ≥ 2 − o(1), \
         flooding's upper bound is exponent 2\n",
        fit.slope, fit.r_squared
    );

    // Round-robin arm: the adversary stalls it (Lemma 2.2 in action).
    println!("round-robin flooding arm (no phase structure):");
    let mut stall_rows = Vec::new();
    for (i, &n) in [16usize, 32].iter().enumerate() {
        let (report, sim) = run_section2(
            "round-robin",
            RoundRobinBroadcast::nodes,
            PotentialAdversary::new,
            n,
            seed + 50 + i as u64,
            4,
        );
        let stalls = stall_fraction(sim.tracker().learnings_per_round());
        stall_rows.push(
            Row::default()
                .table("n", n)
                .table("completed?", report.completed)
                .table("stall fraction (zero-learning rounds)", fmt_f64(stalls)),
        );
    }
    println!("{}", render_table(&stall_rows));
    println!("expected: round-robin does not complete; almost all rounds are stalls");
}
