//! **Beyond the paper's model** — message loss: how Algorithm 1's
//! request/response handshake degrades when the channel drops messages.
//!
//! The paper's synchronous model delivers every message; the
//! `dynspread_runtime` synchronizer keeps the round structure but routes
//! every send through a lossy link. A dropped token response stalls the
//! requester until the adversary happens to kill the edge (which clears
//! the in-flight request), so rounds stretch super-linearly in the drop
//! probability while the *competitive* message structure stays intact.
//! Completion is *not* guaranteed at high loss: Algorithm 1 announces
//! completeness to each neighbor once ever, so a dropped announcement is
//! never repeated — runs that hit the round cap are reported as such.
//!
//! Sweeps drop probability × adversary × seed; every cell is an
//! independent seeded run fanned through `par_map` (parallel output is
//! byte-identical to serial — set `DYNSPREAD_THREADS=1` to check).

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::arms::{link_sweep, link_sweep_adversary, LINK_SWEEP_ARMS};
use dynspread_bench::derive_seed;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::NodeId;
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::sync::UnicastSynchronizer;
use dynspread_sim::sim::SimConfig;
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;

fn run_lossy(n: usize, k: usize, drop_p: f64, arm: usize, seed: u64) -> RunReport {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    UnicastSynchronizer::new(
        "single-source-unicast",
        SingleSourceNode::nodes(&assignment),
        link_sweep_adversary(arm, seed),
        &assignment,
        SimConfig::with_max_rounds(2_000_000),
        PerfectLink.lossy(drop_p),
        derive_seed(seed, 0x11),
    )
    .run_to_completion()
}

fn main() {
    let (n, k) = (24, 16);
    println!("Lossy links: Single-Source-Unicast under message drop (n={n}, k={k})");
    println!("model: paper rounds + per-send Bernoulli drop; meter counts transmissions\n");

    let drops = [0.0, 0.1, 0.2, 0.35, 0.5];
    let runs = link_sweep(29, &drops, |p, arm, seed| run_lossy(n, k, p, arm, seed));

    // Baseline rounds per arm at p = 0 (seed 0) for the stretch summary.
    let mut baseline = [0u64; 2];
    let mut rows = Vec::new();
    for (p, arm, s, report) in &runs {
        let name = LINK_SWEEP_ARMS[*arm];
        if *p == 0.0 {
            assert!(report.completed, "lossless {name} seed#{s}: {report}");
        }
        if *p == 0.0 && *s == 0 {
            baseline[*arm] = report.rounds;
        }
        rows.push(
            Row::default()
                .table("adversary", name)
                .table("drop p", fmt_f64(*p))
                .table("seed#", s)
                .table("completed", report.completed)
                .table("rounds", report.rounds)
                .table("messages", report.total_messages)
                .table("dropped", report.link_drops)
                .table("TC(E)", report.tc())
                .table("residual", fmt_f64(report.competitive_residual(1.0))),
        );
    }
    println!("{}", render_table(&rows));

    println!("round stretch vs lossless (seed 0):");
    for (p, arm, s, report) in &runs {
        if *s == 0 && *p > 0.0 && report.completed {
            println!(
                "  {} p={p}: ×{:.2}",
                LINK_SWEEP_ARMS[*arm],
                report.rounds as f64 / baseline[*arm].max(1) as f64
            );
        }
    }
    println!("\nexpected: rounds grow with p — stalled *requests* recover when the");
    println!("adversary kills the carrying edge, but a dropped one-shot completeness");
    println!("announcement is lost for good, so very lossy runs may hit the cap.");
}
