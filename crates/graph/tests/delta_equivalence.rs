//! Equivalence of the delta-applied data plane with naive rebuilds.
//!
//! The overhaul's safety net: random update sequences driven through the
//! in-place [`GraphUpdate`] path must produce snapshots, adjacency, meters,
//! and connectivity verdicts identical to rebuilding every round's graph
//! from its edge list from scratch — and every oblivious adversary's
//! `graph_for_round` snapshots must be the graphs its `evolve` updates
//! install.

use dynspread_graph::adversary::{Adversary, FnAdversary};
use dynspread_graph::dynamic::{GraphUpdate, RoundDelta};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, ScriptedAdversary, StaticAdversary,
};
use dynspread_graph::{DynamicGraph, Edge, Graph, NodeId, UnionFind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference model: the set of edges as a plain sorted vector.
fn naive_graph(n: usize, edges: &[Edge]) -> Graph {
    let mut g = Graph::empty(n);
    for &e in edges {
        g.insert_edge(e);
    }
    g
}

fn assert_same_graph(a: &Graph, b: &Graph) {
    assert_eq!(a, b);
    assert_eq!(a.edge_count(), b.edge_count());
    for v in a.nodes() {
        assert_eq!(a.neighbors(v), b.neighbors(v), "adjacency differs at {v}");
        assert_eq!(a.degree(v), b.degree(v));
    }
    assert_eq!(a.is_connected(), b.is_connected());
}

/// Number of oblivious families [`oblivious_family`] builds.
const FAMILIES: u32 = 6;

/// One adversary of oblivious family `family` on `n` nodes, a function of
/// `seed` alone: two calls with the same arguments draw the same schedule.
fn oblivious_family(family: u32, n: usize, seed: u64) -> Box<dyn Adversary> {
    let mut rng = StdRng::seed_from_u64(seed);
    match family {
        0 if seed.is_multiple_of(2) => Box::new(StaticAdversary::complete(n)),
        0 => Box::new(StaticAdversary::from_topology(
            Topology::SparseConnected(1.5),
            n,
            seed,
        )),
        1 => Box::new(PeriodicRewiring::new(
            Topology::RandomTree,
            1 + seed % 4,
            seed,
        )),
        2 => Box::new(EdgeMarkovian::new(0.1, 0.3, 1 + seed % 3, seed)),
        3 => Box::new(ChurnAdversary::new(
            Topology::SparseConnected(2.0),
            1 + (seed % 4) as usize,
            1 + seed % 3,
            seed,
        )),
        // Shorter than the run, so the clamped tail is driven too.
        4 => Box::new(ScriptedAdversary::new(
            (0..1 + seed % 12)
                .map(|_| Topology::SparseConnected(1.5).sample(n, &mut rng))
                .collect(),
        )),
        _ => Box::new(FnAdversary::new("resample", move |_, prev: &Graph| {
            Topology::RandomTree.sample(prev.node_count(), &mut rng)
        })),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random per-round edge multisets: the delta-applied path must track a
    /// from-scratch rebuild exactly, round by round.
    #[test]
    fn delta_path_matches_naive_rebuild(
        n in 2usize..24,
        rounds in prop::collection::vec(
            prop::collection::vec((0u32..24, 0u32..24), 0..40),
            1..12,
        ),
        use_delta in prop::bool::ANY,
    ) {
        let mut dg = DynamicGraph::new(n);
        let mut prev_edges: Vec<Edge> = Vec::new();
        let mut naive_snapshots = Vec::new();
        let mut deltas: Vec<RoundDelta> = Vec::new();
        for raw in &rounds {
            let mut edges: Vec<Edge> = raw
                .iter()
                .filter(|(u, v)| u % n as u32 != v % n as u32)
                .map(|(u, v)| Edge::new(NodeId::new(u % n as u32), NodeId::new(v % n as u32)))
                .collect();
            edges.sort_unstable();
            edges.dedup();
            let next = naive_graph(n, &edges);
            if use_delta {
                // Exercise the in-place Delta path with an explicit diff.
                let inserted: Vec<Edge> =
                    edges.iter().filter(|e| !prev_edges.contains(e)).copied().collect();
                let removed: Vec<Edge> =
                    prev_edges.iter().filter(|e| !edges.contains(e)).copied().collect();
                if inserted.is_empty() && removed.is_empty() {
                    dg.apply(GraphUpdate::Unchanged);
                } else {
                    dg.apply(GraphUpdate::Delta(RoundDelta { inserted, removed }));
                }
            } else {
                dg.apply(GraphUpdate::Full(next.clone()));
            }
            assert_same_graph(dg.current(), &next);
            deltas.push(dg.last_delta().clone());
            naive_snapshots.push(next);
            prev_edges = edges;
        }
        // Replaying the reported deltas reconstructs every snapshot.
        let mut replayed = Graph::empty(n);
        for (delta, want) in deltas.iter().zip(&naive_snapshots) {
            for &e in &delta.removed {
                assert!(replayed.remove_edge(e), "replay removes absent {e}");
            }
            for &e in &delta.inserted {
                assert!(replayed.insert_edge(e), "replay inserts present {e}");
            }
            assert_same_graph(&replayed, want);
        }
    }

    /// `advance` (Full) and explicit deltas account the topology meter
    /// identically over generated topology schedules.
    #[test]
    fn full_and_delta_paths_agree_on_meter(
        n in 3usize..20,
        seed in 0u64..500,
        steps in 1usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let schedule: Vec<Graph> = (0..steps)
            .map(|_| {
                match rng.gen_range(0..3u32) {
                    0 => Topology::RandomTree.sample(n, &mut rng),
                    1 => Topology::SparseConnected(1.5).sample(n, &mut rng),
                    _ => Topology::Gnp(0.2).sample(n, &mut rng),
                }
            })
            .collect();
        let mut full = DynamicGraph::new(n);
        let mut delta = DynamicGraph::new(n);
        for g in &schedule {
            full.advance(g.clone());
            let inserted: Vec<Edge> =
                g.edges().difference(delta.current().edges()).collect();
            let removed: Vec<Edge> =
                delta.current().edges().difference(g.edges()).collect();
            delta.apply(GraphUpdate::Delta(RoundDelta { inserted, removed }));
            assert_same_graph(full.current(), delta.current());
            assert_eq!(full.meter(), delta.meter());
            assert_eq!(full.last_delta(), delta.last_delta());
        }
    }

    /// Every oblivious family, driven twice from one seed — once through
    /// `evolve` + `DynamicGraph::apply` as the engines drive it, once
    /// through `graph_for_round` fed its own previous output — commits the
    /// same graph every round.
    #[test]
    fn graph_for_round_is_evolve_applied_to_the_previous_round(
        n in 3usize..20,
        seed in 0u64..10_000,
        rounds in 30u64..45,
    ) {
        for family in 0..FAMILIES {
            let mut by_update = oblivious_family(family, n, seed);
            let mut by_snapshot = oblivious_family(family, n, seed);
            let mut dg = DynamicGraph::new(n);
            let mut prev = Graph::empty(n);
            for r in 1..=rounds {
                dg.apply(by_update.evolve(r, dg.current()));
                prev = by_snapshot.graph_for_round(r, &prev);
                assert_same_graph(dg.current(), &prev);
            }
        }
    }

    /// The reusable union–find connectivity check agrees with the
    /// allocating one across arbitrary graphs, including reuse across
    /// graphs of different node counts.
    #[test]
    fn reused_union_find_matches_fresh(
        sizes in prop::collection::vec(1usize..30, 1..8),
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut uf = UnionFind::new(0);
        for n in sizes {
            let g = if n >= 3 && rng.gen_bool(0.7) {
                Topology::SparseConnected(1.3).sample(n, &mut rng)
            } else {
                // Possibly disconnected: random edge subset.
                let mut g = Graph::empty(n);
                for _ in 0..n {
                    let u = rng.gen_range(0..n as u32);
                    let v = rng.gen_range(0..n as u32);
                    if u != v {
                        g.insert_edge(Edge::new(NodeId::new(u), NodeId::new(v)));
                    }
                }
                g
            };
            assert_eq!(g.is_connected_with(&mut uf), g.is_connected());
        }
    }
}
