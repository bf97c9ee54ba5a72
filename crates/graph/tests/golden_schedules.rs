//! Golden hashes over the seeded draw sequences of the adversaries and
//! generators the asynchronous benchmark workloads run on.
//!
//! An optimisation of `ChurnAdversary::evolve` or of the sparse generator
//! must keep consuming its RNG in the same order and emit the same edges;
//! these hashes are the `cargo test` form of that contract (the benchmark's
//! digests only see it through whole runs).

use dynspread_graph::adversary::Adversary;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, EdgeMarkovian};
use dynspread_graph::{DynamicGraph, Edge};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the endpoint pairs, in the order given.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u32) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// A length-prefixed edge list, so list boundaries are hashed too.
    fn edges(&mut self, edges: impl ExactSizeIterator<Item = Edge>) {
        self.word(edges.len() as u32);
        for e in edges {
            self.word(e.lo().value());
            self.word(e.hi().value());
        }
    }
}

/// Drives `adversary` for `rounds` rounds on `n` nodes, hashing every
/// update exactly as it is emitted (initial sample, then the inserted and
/// removed lists in draw order).
fn schedule_hash(mut adversary: impl Adversary, n: usize, rounds: u64) -> u64 {
    let mut dg = DynamicGraph::new(n);
    let mut h = Fnv::new();
    for round in 1..=rounds {
        let update = adversary.evolve(round, dg.current());
        match &update {
            GraphUpdate::Full(g) => {
                h.word(0);
                h.edges(g.edges().iter());
            }
            GraphUpdate::Delta(delta) => {
                h.word(1);
                h.edges(delta.inserted.iter().copied());
                h.edges(delta.removed.iter().copied());
            }
            GraphUpdate::Unchanged => h.word(2),
        }
        dg.apply(update);
    }
    assert!(
        dg.topological_changes() > rounds,
        "the schedule must actually churn"
    );
    h.0
}

/// The `async_lossy` churn adversary's schedule.
fn churn_schedule_hash(seed: u64, n: usize, rounds: u64) -> u64 {
    let adversary = ChurnAdversary::new(Topology::SparseConnected(3.0), 8, 3, seed);
    schedule_hash(adversary, n, rounds)
}

#[test]
fn churn_adversary_schedules_are_pinned() {
    let got: Vec<u64> = [7, 41, 20260930]
        .into_iter()
        .map(|seed| churn_schedule_hash(seed, 256, 200))
        .collect();
    assert_eq!(
        got,
        [
            0x959f_ca55_b2ea_30f2,
            0xd89c_af9b_b69e_0de4,
            0x8cad_293e_ceb5_541b
        ],
        "ChurnAdversary(SparseConnected(3.0), 8, 3) drew a different schedule: {got:#x?}"
    );
}

#[test]
fn churn_adversary_schedules_are_pinned_at_benchmark_size() {
    // The benchmark cell's own shape: DFS trees thousands deep, which
    // n = 256 never reaches, at the two seeds the claims are made on.
    let got: Vec<u64> = [7, 20260930]
        .into_iter()
        .map(|seed| churn_schedule_hash(seed, 4096, 60))
        .collect();
    assert_eq!(
        got,
        [0x10a0_57da_4f06_ffd6, 0xcb19_b9af_6f19_e802],
        "ChurnAdversary(SparseConnected(3.0), 8, 3) at n = 4096 drew a different schedule: {got:#x?}"
    );
}

#[test]
fn edge_markovian_schedule_is_pinned() {
    // Some 300 births a round stay pinned for two more and a fifth of the
    // present edges are hit by each death sweep: 7155 of the sweeps' hits
    // over these 60 rounds land on a pinned edge and must be passed over.
    let got = schedule_hash(EdgeMarkovian::new(0.01, 0.2, 3, 20260930), 256, 60);
    assert_eq!(
        got, 0x284f_d148_cb96_62f9,
        "EdgeMarkovian(0.01, 0.2, σ = 3) drew a different schedule: {got:#x}"
    );
}

#[test]
fn sparse_connected_samples_are_pinned() {
    // Five successive samples from one stream, as `PeriodicRewiring` draws
    // them for phase 1 of the oblivious pipeline.
    let mut rng = StdRng::seed_from_u64(20260930);
    let mut h = Fnv::new();
    for _ in 0..5 {
        let g = Topology::SparseConnected(8.0).sample(4096, &mut rng);
        assert_eq!(g.edge_count(), 8 * 4096);
        h.edges(g.edges().iter());
    }
    assert_eq!(
        h.0, 0x532b_0866_c0df_45e2,
        "SparseConnected(8.0) at n = 4096 drew different edges: {:#x}",
        h.0
    );
}
