//! `exp_oblivious_async` — the asynchronous oblivious pipeline under
//! loss and latency.
//!
//! The round-based Algorithm 2 cannot run over a lossy link at all: a
//! dropped walk step silently destroys token ownership and phase 1 never
//! ends. The `Scenario::run_oblivious` port carries walk steps as acked,
//! retransmitted ownership transfers, so this binary can sweep what the
//! synchronous experiments never could — drop probability × jitter — and
//! tabulate the cost of reliability:
//!
//! * `p1 t` / `p2 t` — virtual completion times of the two phases;
//! * `strand` — tokens whose owner froze at the phase-1 deadline
//!   (conservative fallback sources);
//! * `sent` — total link-layer transmissions (retransmissions included),
//!   whose growth with the drop rate is the retransmission premium;
//! * `dup` — duplicate walk transfers absorbed by the receiver-side
//!   sequence dedup (0 without drops: nothing is ever retransmitted).
//!
//! Every cell is one seeded end-to-end run fanned through `par_map`
//! (parallel output byte-identical to serial). All cells must reach full
//! dissemination — completion under 30% drop is the point.
//!
//! Usage: `cargo run --release -p dynspread-bench --bin exp_oblivious_async`

use dynspread_bench::row::{render_table, Row};
use dynspread_bench::{derive_seed, par_map};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::scenario::Scenario;
use dynspread_sim::token::TokenAssignment;

const DROPS: [f64; 3] = [0.0, 0.15, 0.3];
const JITTERS: [u64; 2] = [0, 2];
const SEEDS: [u64; 2] = [1, 2];

struct Cell {
    drop: f64,
    jitter: u64,
    seed: u64,
    completed: bool,
    stranded: usize,
    sources: usize,
    p1_time: u64,
    p2_time: u64,
    transmissions: u64,
    events: u64,
}

fn run_cell(n: usize, drop: f64, jitter: u64, seed: u64) -> Cell {
    let cfg = AsyncObliviousConfig {
        seed: derive_seed(seed, 0xA51),
        // Force the two-phase path at this scale; ~15% centers and γ = 1
        // (everyone high-degree) keep phase 1 short.
        source_threshold: Some(1.0),
        center_probability: Some(0.15),
        degree_threshold: Some(1.0),
        phase1_deadline: 20_000,
        phase1_max_time: 50_000,
        ..AsyncObliviousConfig::default()
    };
    let out = Scenario::from_assignment(TokenAssignment::n_gossip(n))
        .topology(PeriodicRewiring::new(
            Topology::Gnp(0.15),
            3,
            derive_seed(seed, 1),
        ))
        .link(DropLink::new(drop).with_jitter(jitter))
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, derive_seed(seed, 2)),
            DropLink::new(drop).with_jitter(jitter),
            &cfg,
            None,
        );
    let p1 = out.phase1.as_ref().expect("two-phase path forced");
    Cell {
        drop,
        jitter,
        seed,
        completed: out.completed,
        stranded: out.stranded_tokens,
        sources: out.sources.len(),
        p1_time: p1.final_time,
        p2_time: out.phase2.final_time,
        transmissions: out.total_transmissions(),
        events: out.total_events(),
    }
}

fn main() {
    let n = 64;
    println!("Async oblivious pipeline: n = {n} (n-gossip), drop ∈ {DROPS:?} × jitter ∈ {JITTERS:?} × seeds {SEEDS:?}");

    let jobs: Vec<(f64, u64, u64)> = DROPS
        .iter()
        .flat_map(|&d| {
            JITTERS
                .iter()
                .flat_map(move |&j| SEEDS.iter().map(move |&s| (d, j, s)))
        })
        .collect();
    let cells = par_map(jobs, |(d, j, s)| run_cell(n, d, j, s));

    let mut rows = Vec::new();
    for c in &cells {
        assert!(
            c.completed,
            "drop {} jitter {} seed {}: did not complete",
            c.drop, c.jitter, c.seed
        );
        rows.push(
            Row::default()
                .table("drop", format!("{:.2}", c.drop))
                .table("jitter", c.jitter)
                .table("seed", c.seed)
                .table("done", c.completed)
                .table("sources", c.sources)
                .table("strand", c.stranded)
                .table("p1 t", c.p1_time)
                .table("p2 t", c.p2_time)
                .table("sent", c.transmissions)
                .table("events", c.events),
        );
    }
    println!("{}", render_table(&rows));
    println!("sent = link-layer transmissions incl. retransmissions; the");
    println!("drop-0 rows are the lossless reference for the premium.");
}
