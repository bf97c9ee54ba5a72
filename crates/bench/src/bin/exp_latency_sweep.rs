//! **Beyond the paper's model** — link latency: what happens to the
//! synchronous algorithms when messages take extra rounds to arrive.
//!
//! The runtime's synchronizer keeps the paper's round structure but
//! delays every delivery by a fixed latency plus optional seeded jitter
//! (jitter also *reorders*: two messages on one link can swap arrival
//! order). Algorithm 1's handshake is latency-tolerant — each leg of
//! announce/request/response just arrives later — so rounds stretch by
//! roughly the per-leg delay while message complexity stays put.
//!
//! Sweeps latency × jitter × seed through `par_map` (deterministic:
//! parallel output is byte-identical to `DYNSPREAD_THREADS=1`).

use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_bench::{derive_seed, par_map};
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::sync::UnicastSynchronizer;
use dynspread_sim::sim::SimConfig;
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;

fn run_latent(n: usize, k: usize, latency: u64, jitter: u64, seed: u64) -> RunReport {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let link = PerfectLink.with_latency(latency).with_jitter(jitter);
    let mut sim = UnicastSynchronizer::new(
        "single-source-unicast",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, seed),
        &assignment,
        SimConfig::with_max_rounds(4_000_000),
        link,
        derive_seed(seed, 0x17),
    );
    sim.run_to_completion()
}

fn main() {
    let base_seed = 31u64;
    let (n, k) = (24, 16);
    let seeds_per_cell = 3usize;
    println!("Latency sweep: Single-Source-Unicast under delayed delivery (n={n}, k={k})");
    println!("adversary: rewire(tree, ρ=3); link: fixed latency + uniform jitter\n");

    let grid: [(u64, u64); 6] = [(0, 0), (1, 0), (2, 0), (4, 0), (1, 2), (2, 4)];
    let jobs: Vec<(u64, u64, usize)> = grid
        .iter()
        .flat_map(|&(lat, jit)| (0..seeds_per_cell).map(move |s| (lat, jit, s)))
        .collect();
    let runs = par_map(jobs, |(lat, jit, s)| {
        let seed = derive_seed(base_seed, s as u64);
        (lat, jit, s, run_latent(n, k, lat, jit, seed))
    });

    // Per-seed lossless baselines: same adversary schedule, latency 0.
    let mut baseline = vec![0u64; seeds_per_cell];
    for (lat, jit, s, report) in &runs {
        if *lat == 0 && *jit == 0 {
            baseline[*s] = report.rounds;
        }
    }
    let mut rows = Vec::new();
    for (lat, jit, s, report) in &runs {
        assert!(report.completed, "lat={lat} jit={jit} seed#{s}: {report}");
        let stretch = report.rounds as f64 / baseline[*s].max(1) as f64;
        rows.push(
            Row::default()
                .table("latency", lat)
                .table("jitter", jit)
                .table("seed#", s)
                .table("completed", report.completed)
                .table("rounds", report.rounds)
                .table("stretch", fmt_f64(stretch))
                .table("messages", report.total_messages)
                .table("TC(E)", report.tc())
                .table("residual", fmt_f64(report.competitive_residual(1.0))),
        );
    }
    println!("{}", render_table(&rows));
    println!("expected: stretch ≈ 1 + latency per handshake leg; messages barely move");
    println!("(the handshake is latency-tolerant — only round counts pay for delay).");
}
