//! Property-based tests of the dynamic-graph substrate.

use dynspread_graph::adversary::Adversary;
use dynspread_graph::connectivity::{bridges, connect_components, BridgeIndex};
use dynspread_graph::dynamic::{topological_changes, GraphUpdate, RoundDelta};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, EdgeMarkovian};
use dynspread_graph::stability::check_schedule;
use dynspread_graph::{DynamicGraph, Edge, Graph, NodeId, Round};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, RngCore, SeedableRng};
use std::collections::{BTreeSet, HashSet};

fn topology_strategy() -> impl Strategy<Value = Topology> {
    prop_oneof![
        Just(Topology::Path),
        Just(Topology::Cycle),
        Just(Topology::Star),
        Just(Topology::RandomTree),
        (0.05f64..0.5).prop_map(Topology::Gnp),
        (1.0f64..3.0).prop_map(Topology::SparseConnected),
        (2usize..5).prop_map(Topology::NearRegular),
    ]
}

/// The random-attachment tree the generators start from (their private
/// `random_tree_edges`, draw for draw).
fn reference_tree_edges(n: usize, rng: &mut StdRng) -> Vec<Edge> {
    if n <= 1 {
        return Vec::new();
    }
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    (1..n)
        .map(|i| {
            let parent = order[rng.gen_range(0..i)];
            Edge::new(NodeId::new(order[i]), NodeId::new(parent))
        })
        .collect()
}

/// `random_connected_with_edges` as it was before the cheap membership
/// probe and the bucketed `from_edges`: SipHash `HashSet` rejection, one
/// global sort.
fn reference_sparse(n: usize, target_edges: usize, rng: &mut StdRng) -> BTreeSet<Edge> {
    let mut edges = reference_tree_edges(n, rng);
    if n >= 2 {
        let mut seen: HashSet<Edge> = edges.iter().copied().collect();
        let max_edges = n * (n - 1) / 2;
        let want = target_edges.clamp(edges.len(), max_edges);
        let mut attempts = 0usize;
        while edges.len() < want && attempts < 20 * max_edges + 100 {
            attempts += 1;
            let u = rng.gen_range(0..n as u32);
            let v = rng.gen_range(0..n as u32);
            if u != v {
                let e = Edge::new(NodeId::new(u), NodeId::new(v));
                if seen.insert(e) {
                    edges.push(e);
                }
            }
        }
    }
    edges.into_iter().collect()
}

/// `near_regular` as it was, likewise.
fn reference_near_regular(n: usize, d: usize, rng: &mut StdRng) -> BTreeSet<Edge> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut edges: Vec<Edge> = (0..n)
        .map(|i| Edge::new(NodeId::new(order[i]), NodeId::new(order[(i + 1) % n])))
        .collect();
    if d > 2 {
        let mut deg = vec![2usize; n];
        let mut seen: HashSet<Edge> = edges.iter().copied().collect();
        let mut stall = 0usize;
        while stall < 50 {
            let deficient: Vec<NodeId> = NodeId::all(n).filter(|&v| deg[v.index()] < d).collect();
            if deficient.len() < 2 {
                break;
            }
            let a = *deficient.choose(rng).expect("nonempty");
            let b = *deficient.choose(rng).expect("nonempty");
            if a != b && seen.insert(Edge::new(a, b)) {
                edges.push(Edge::new(a, b));
                deg[a.index()] += 1;
                deg[b.index()] += 1;
                stall = 0;
            } else {
                stall += 1;
            }
        }
    }
    edges.into_iter().collect()
}

/// `g` holds exactly `model`: the sorted edge list, every CSR row, and
/// `has_edge` on every pair including `u == v`.
fn assert_graph_is(g: &Graph, model: &BTreeSet<Edge>) {
    assert_eq!(
        g.edges().as_slice(),
        model.iter().copied().collect::<Vec<_>>()
    );
    for u in g.nodes() {
        let row: Vec<NodeId> = model
            .iter()
            .filter(|e| e.touches(u))
            .map(|e| e.other(u))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        assert_eq!(g.neighbors(u), row.as_slice(), "row {u}");
        for v in g.nodes() {
            let expect = u != v && model.contains(&Edge::new(u, v));
            assert_eq!(g.has_edge(u, v), expect, "has_edge({u}, {v})");
            assert_eq!(u != v && g.edges().contains(Edge::new(u, v)), expect);
        }
    }
}

/// The sampled families are bit-identical to the old construction and leave
/// the RNG where it left it: same draws, same canonical graph.
#[test]
fn sampled_graphs_match_the_old_construction() {
    for seed in 0..12u64 {
        for n in [3usize, 4, 9, 33, 120] {
            for c in [1.0f64, 2.0, 8.0] {
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let g = Topology::SparseConnected(c).sample(n, &mut a);
                let model = reference_sparse(n, (c * n as f64) as usize, &mut b);
                assert_graph_is(&g, &model);
                assert_eq!(a.next_u64(), b.next_u64(), "sparse({c}) n={n} seed={seed}");
            }
            for d in [2usize, 3, 6] {
                let d = d.min(n - 1).max(2);
                let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
                let g = Topology::NearRegular(d).sample(n, &mut a);
                let model = reference_near_regular(n, d, &mut b);
                assert_graph_is(&g, &model);
                assert_eq!(a.next_u64(), b.next_u64(), "regular({d}) n={n} seed={seed}");
            }
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let g = Topology::RandomTree.sample(n, &mut a);
            let model: BTreeSet<Edge> = reference_tree_edges(n, &mut b).into_iter().collect();
            assert_graph_is(&g, &model);
            assert_eq!(a.next_u64(), b.next_u64(), "tree n={n} seed={seed}");
        }
    }
}

#[test]
fn has_edge_on_degenerate_graphs() {
    assert_graph_is(&Graph::empty(0), &BTreeSet::new());
    assert_graph_is(&Graph::empty(5), &BTreeSet::new());
    let g = Graph::empty(3);
    // Out-of-range nodes are not neighbors of anything.
    assert!(!g.has_edge(NodeId::new(7), NodeId::new(1)));
    assert!(!g.has_edge(NodeId::new(1), NodeId::new(7)));
    assert!(!Graph::path(3).has_edge(NodeId::new(2), NodeId::new(3)));
}

/// The bridges of `g` by definition: the edges whose removal splits a
/// component.
fn bridges_by_component_count(g: &Graph) -> Vec<Edge> {
    let components = g.component_count();
    g.edges()
        .iter()
        .filter(|&e| {
            let mut h = g.clone();
            h.remove_edge(e);
            h.component_count() > components
        })
        .collect()
}

/// Deletes seeded non-bridge edges from `g` until only bridges are left,
/// checking the index after every deletion against a fresh one and against
/// the definition. Returns how many deletions took the tree-edge arm
/// (rebuild) and how many the non-tree arm (walk).
fn delete_non_bridges_checking_the_index(mut g: Graph, rng: &mut StdRng) -> (usize, usize) {
    let mut index = BridgeIndex::new(&g);
    assert_eq!(index.bridges(), bridges_by_component_count(&g));
    let (mut rebuilds, mut walks) = (0, 0);
    loop {
        let deletable: Vec<Edge> = g
            .edges()
            .iter()
            .filter(|e| index.bridges().binary_search(e).is_err())
            .collect();
        let Some(&e) = deletable.choose(rng) else {
            break;
        };
        if index.is_tree_edge(e) {
            rebuilds += 1;
        } else {
            walks += 1;
        }
        g.remove_edge(e);
        index.delete(&g, e);
        assert_eq!(index.bridges(), BridgeIndex::new(&g).bridges(), "after {e}");
        assert_eq!(index.bridges(), bridges_by_component_count(&g), "after {e}");
    }
    // Only bridges are left: a spanning forest.
    assert_eq!(g.edge_count() + g.component_count(), g.node_count());
    (rebuilds, walks)
}

/// `BridgeIndex::delete` keeps the bridges exact under any sequence of
/// non-bridge deletions, through both of its arms.
#[test]
fn bridge_index_stays_exact_under_non_bridge_deletions() {
    let mut rng = StdRng::seed_from_u64(20260930);
    let mut graphs = vec![
        Graph::path(17),
        Graph::cycle(17),
        Graph::complete(9),
        // Two components: the second DFS root starts mid-pass.
        Graph::from_edges(
            14,
            Graph::complete(7).edges().iter().flat_map(|e| {
                let (lo, hi) = (e.lo().value() + 7, e.hi().value() + 7);
                [e, Edge::new(NodeId::new(lo), NodeId::new(hi))]
            }),
        ),
    ];
    let samples = (topology_strategy(), 3usize..40);
    for _ in 0..48 {
        let (topology, n) = samples.generate(&mut rng);
        graphs.push(topology.sample(n, &mut rng));
    }
    let (mut rebuilds, mut walks) = (0, 0);
    for g in graphs {
        let (r, w) = delete_non_bridges_checking_the_index(g, &mut rng);
        rebuilds += r;
        walks += w;
    }
    assert!(
        rebuilds > 0 && walks > 0,
        "{rebuilds} rebuilds, {walks} walks"
    );
}

/// The message of the panic `f` raises.
fn panic_message(f: impl FnOnce()) -> String {
    let payload =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).expect_err("expected a panic");
    match payload.downcast::<String>() {
        Ok(msg) => *msg,
        Err(payload) => payload.downcast_ref::<&str>().unwrap().to_string(),
    }
}

/// Random consistent deltas through `DynamicGraph::apply`, given as
/// shuffled slices with one present edge removed and put back in the same
/// delta. After every round the snapshot is the bulk build of a
/// `BTreeSet` model row for row, the meter charges the put-back edge once
/// as a deletion and once as an insertion, `last_delta` is the delta as
/// given, and a delta inserting an endpoint `>= n` panics.
#[test]
fn per_edge_delta_application_matches_a_btreeset_model() {
    for seed in 0..32u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(3..24usize);
        let mut dg = DynamicGraph::new(n);
        let mut model: BTreeSet<Edge> = BTreeSet::new();
        for round in 1..=12 {
            let present: Vec<Edge> = model.iter().copied().collect();
            let mut removed: Vec<Edge> = present
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.2))
                .collect();
            let mut inserted: Vec<Edge> = (0..rng.gen_range(0..2 * n))
                .filter_map(|_| {
                    let (u, v) = (rng.gen_range(0..n as u32), rng.gen_range(0..n as u32));
                    (u != v).then(|| Edge::new(NodeId::new(u), NodeId::new(v)))
                })
                .filter(|e| !model.contains(e))
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            let back = present.choose(&mut rng).copied();
            if let Some(e) = back {
                if !removed.contains(&e) {
                    removed.push(e);
                }
                inserted.push(e);
            }
            removed.shuffle(&mut rng);
            inserted.shuffle(&mut rng);
            for e in &removed {
                model.remove(e);
            }
            model.extend(inserted.iter().copied());

            let delta = RoundDelta { inserted, removed };
            let before = dg.meter();
            dg.apply(GraphUpdate::Delta(delta.clone()));
            let want = Graph::from_edges(n, model.iter().copied());
            assert_eq!(dg.current(), &want, "seed {seed} round {round}");
            for v in want.nodes() {
                assert_eq!(dg.current().neighbors(v), want.neighbors(v), "row {v}");
            }
            // `back` is in both slices once, so it is charged once each way.
            assert_eq!(
                dg.meter().insertions - before.insertions,
                delta.inserted.len() as u64
            );
            assert_eq!(
                dg.meter().deletions - before.deletions,
                delta.removed.len() as u64
            );
            assert_eq!(dg.last_delta(), &delta);

            let mut probe = dg.clone();
            let u = NodeId::new(rng.gen_range(0..n as u32));
            let far = NodeId::new(rng.gen_range(n as u32..2 * n as u32));
            let msg = panic_message(|| {
                probe.apply(GraphUpdate::Delta(RoundDelta {
                    inserted: vec![Edge::new(u, far)],
                    removed: Vec::new(),
                }));
            });
            assert!(msg.contains("out of range"), "{msg}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Bulk construction (counting passes, duplicates, any order) agrees
    /// with edge-by-edge insertion on the edge list, every row and
    /// `has_edge`: up to 300 buckets per pass, empty ones first and last
    /// included.
    #[test]
    fn bulk_build_matches_the_edge_set_model(
        n in 2usize..300,
        picks in prop::collection::vec((0u32..300, 0u32..300), 0..1000),
    ) {
        let list: Vec<Edge> = picks
            .into_iter()
            .map(|(u, v)| (u % n as u32, v % n as u32))
            .filter(|(u, v)| u != v)
            .map(|(u, v)| Edge::new(NodeId::new(u), NodeId::new(v)))
            .collect();
        let model: BTreeSet<Edge> = list.iter().copied().collect();
        assert_graph_is(&Graph::from_edges(n, list.iter().copied()), &model);
        let mut incremental = Graph::empty(n);
        for &e in &list {
            incremental.insert_edge(e);
        }
        assert_graph_is(&incremental, &model);
    }

    #[test]
    fn every_generator_yields_connected_graphs(
        topology in topology_strategy(),
        n in 3usize..40,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = topology.sample(n, &mut rng);
        prop_assert_eq!(g.node_count(), n);
        prop_assert!(g.is_connected());
    }

    #[test]
    fn adjacency_and_edge_set_agree(
        topology in topology_strategy(),
        n in 3usize..25,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = topology.sample(n, &mut rng);
        // Sum of degrees = 2·|E|, and neighbors mirror has_edge.
        let degree_sum: usize = g.nodes().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for v in g.nodes() {
            for &w in g.neighbors(v) {
                prop_assert!(g.has_edge(v, w));
                prop_assert!(g.neighbors(w).contains(&v));
            }
        }
    }

    #[test]
    fn union_find_components_match_bfs(
        topology in topology_strategy(),
        n in 3usize..25,
        seed in 0u64..1000,
        drop in 0usize..10,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = topology.sample(n, &mut rng);
        // Drop some edges so we exercise multi-component cases.
        let edges: Vec<Edge> = g.edges().iter().collect();
        for e in edges.iter().take(drop) {
            g.remove_edge(*e);
        }
        // BFS-derived component count.
        let mut seen = vec![false; n];
        let mut bfs_components = 0;
        for v in 0..n {
            if !seen[v] {
                bfs_components += 1;
                let dist = g.bfs_distances(NodeId::new(v as u32));
                for (i, d) in dist.iter().enumerate() {
                    if d.is_some() {
                        seen[i] = true;
                    }
                }
            }
        }
        prop_assert_eq!(g.component_count(), bfs_components);
    }

    #[test]
    fn connect_components_always_connects(
        n in 2usize..30,
        edges in prop::collection::vec((0u32..30, 0u32..30), 0..40),
        seed in 0u64..1000,
    ) {
        let mut g = Graph::empty(n);
        for (u, v) in edges {
            let (u, v) = (u % n as u32, v % n as u32);
            if u != v {
                g.insert_edge(Edge::new(NodeId::new(u), NodeId::new(v)));
            }
        }
        let before_components = g.component_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let added = connect_components(&mut g, &mut rng);
        prop_assert!(g.is_connected());
        prop_assert_eq!(added.len(), before_components.saturating_sub(1));
    }

    #[test]
    fn removing_a_non_bridge_preserves_component_count(
        topology in topology_strategy(),
        n in 4usize..20,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = topology.sample(n, &mut rng);
        prop_assert_eq!(bridges(&g), bridges_by_component_count(&g));
    }

    /// `check_schedule` reports exactly the oracle's first violation on
    /// schedules that keep, resample, thin out and re-insert edges.
    #[test]
    fn check_schedule_matches_the_run_oracle(
        sigma in 1u64..5,
        n in 3usize..8,
        steps in prop::collection::vec((0u8..4, 0u64..1000), 1..20),
    ) {
        let pairs: Vec<Edge> = complement(&Graph::empty(n)).edges().iter().collect();
        let mut schedule: Vec<Graph> = Vec::new();
        for (kind, seed) in steps {
            let mut rng = StdRng::seed_from_u64(seed);
            let prev = schedule.last().cloned().unwrap_or_else(|| Graph::empty(n));
            let g = match kind {
                0 => prev,
                1 => Graph::from_edges(n, pairs.iter().copied().filter(|_| rng.gen_bool(0.5))),
                2 => Graph::from_edges(n, prev.edges().iter().filter(|_| rng.gen_bool(0.5))),
                // Back in: the edges of two rounds ago.
                _ => {
                    let back = schedule.len().checked_sub(2).map(|i| &schedule[i]);
                    let old = back.into_iter().flat_map(|g| g.edges().iter());
                    Graph::from_edges(n, prev.edges().iter().chain(old))
                }
            };
            schedule.push(g);
        }
        prop_assert_eq!(checked(sigma, &schedule), first_violation_by_runs(sigma, &schedule));
    }

    /// The σ-aware adversaries' schedules are σ-stable by the oracle, and
    /// `check_schedule` agrees.
    #[test]
    fn check_schedule_and_the_run_oracle_pass_sigma_aware_adversaries(
        sigma in 1u64..5,
        n in 4usize..14,
        seed in 0u64..1000,
    ) {
        let adversaries: [Box<dyn Adversary>; 2] = [
            Box::new(EdgeMarkovian::new(0.1, 0.4, sigma, seed)),
            Box::new(ChurnAdversary::new(Topology::SparseConnected(2.0), 3, sigma, seed)),
        ];
        for mut adv in adversaries {
            let mut schedule = vec![Graph::empty(n)];
            for r in 1..=30 {
                let g = adv.graph_for_round(r, &schedule[r as usize - 1]);
                schedule.push(g);
            }
            let schedule = &schedule[1..];
            prop_assert_eq!(first_violation_by_runs(sigma, schedule), None);
            prop_assert_eq!(checked(sigma, schedule), None);
        }
    }

    /// CSR equivalence: random delta sequences applied to the CSR-backed
    /// `DynamicGraph` must agree with a naive `BTreeSet`-of-edges model on
    /// `neighbors`, `degree`, `has_edge`, and connectivity at every round.
    #[test]
    fn csr_delta_application_matches_btreeset_model(
        n in 4usize..28,
        steps in prop::collection::vec((0u64..10_000, 0usize..10, 0usize..6), 1..12),
    ) {
        let mut dg = DynamicGraph::new(n);
        let mut model: BTreeSet<Edge> = BTreeSet::new();
        for (seed, ins_draws, rm_draws) in steps {
            let mut rng = StdRng::seed_from_u64(seed);
            // Removals: sampled from the model's current edges.
            let current: Vec<Edge> = model.iter().copied().collect();
            let mut removed: BTreeSet<Edge> = BTreeSet::new();
            if !current.is_empty() {
                for _ in 0..rm_draws {
                    removed.insert(current[rng.gen_range(0..current.len())]);
                }
            }
            // Insertions: sampled from the complement (disjoint from
            // `removed` by construction, as the delta contract requires).
            let mut inserted: BTreeSet<Edge> = BTreeSet::new();
            for _ in 0..ins_draws {
                let u = rng.gen_range(0..n as u32);
                let v = rng.gen_range(0..n as u32);
                if u != v {
                    let e = Edge::new(NodeId::new(u), NodeId::new(v));
                    if !model.contains(&e) {
                        inserted.insert(e);
                    }
                }
            }
            for &e in &removed {
                model.remove(&e);
            }
            for &e in &inserted {
                model.insert(e);
            }
            dg.apply(GraphUpdate::Delta(RoundDelta {
                inserted: inserted.into_iter().collect(),
                removed: removed.into_iter().collect(),
            }));

            let g = dg.current();
            prop_assert_eq!(g.edge_count(), model.len());
            for u in 0..n as u32 {
                let uid = NodeId::new(u);
                let mut expect: Vec<NodeId> = model
                    .iter()
                    .filter(|e| e.touches(uid))
                    .map(|e| e.other(uid))
                    .collect();
                expect.sort_unstable();
                prop_assert_eq!(g.neighbors(uid), expect.as_slice(), "row {}", uid);
                prop_assert_eq!(g.degree(uid), expect.len());
                for v in (u + 1)..n as u32 {
                    let vid = NodeId::new(v);
                    prop_assert_eq!(
                        g.has_edge(uid, vid),
                        model.contains(&Edge::new(uid, vid))
                    );
                }
            }
            // Connectivity vs a BFS over the model's adjacency.
            let mut seen = vec![false; n];
            let mut stack = vec![NodeId::new(0)];
            seen[0] = true;
            let mut reached = 1;
            while let Some(u) = stack.pop() {
                for e in model.iter().filter(|e| e.touches(u)) {
                    let w = e.other(u);
                    if !seen[w.index()] {
                        seen[w.index()] = true;
                        reached += 1;
                        stack.push(w);
                    }
                }
            }
            prop_assert_eq!(g.is_connected(), reached == n || n <= 1);
        }
    }

    /// Each round's delta is the two set differences in edge order, and the
    /// online meter agrees with the offline `TC(E)`. The steps reach both
    /// tails of `advance`'s merge: from the empty `G_0` and back to it, the
    /// same graph twice, and a graph edge-disjoint from the last.
    #[test]
    fn online_and_offline_tc_agree(
        n in 2usize..40,
        steps in prop::collection::vec((0u8..5, 0u64..1000), 1..15),
    ) {
        let mut dg = DynamicGraph::new(n);
        let mut schedule = Vec::new();
        for (kind, seed) in steps {
            let mut rng = StdRng::seed_from_u64(seed);
            let prev = dg.current().clone();
            let g = match kind {
                0 => Topology::RandomTree.sample(n, &mut rng),
                1 => Topology::SparseConnected(2.0).sample(n, &mut rng),
                2 => prev.clone(),
                3 => Graph::empty(n),
                _ => complement(&prev),
            };
            dg.advance(g.clone());
            let old: BTreeSet<Edge> = prev.edges().iter().collect();
            let new: BTreeSet<Edge> = g.edges().iter().collect();
            prop_assert_eq!(
                &dg.last_delta().inserted,
                &new.difference(&old).copied().collect::<Vec<_>>()
            );
            prop_assert_eq!(
                &dg.last_delta().removed,
                &old.difference(&new).copied().collect::<Vec<_>>()
            );
            schedule.push(g);
        }
        prop_assert_eq!(dg.topological_changes(), topological_changes(n, &schedule));
        prop_assert!(dg.meter().deletions <= dg.meter().insertions);
    }
}

/// The first σ-edge-stability violation of `schedule` (`G_1` first), found
/// by brute force: every edge's maximal presence runs, a run ended by a
/// removal shorter than σ rounds being a violation. Of the violations the
/// earliest removal is reported, ties going to the smallest edge, as
/// `(edge, inserted_at, removed_at)`.
fn first_violation_by_runs(sigma: u64, schedule: &[Graph]) -> Option<(Edge, Round, Round)> {
    let edges: BTreeSet<Edge> = schedule.iter().flat_map(|g| g.edges().iter()).collect();
    let mut violations = Vec::new();
    for e in edges {
        let mut run_start = None;
        for (i, g) in schedule.iter().enumerate() {
            let r = i as Round + 1;
            match (g.edges().contains(e), run_start) {
                (true, None) => run_start = Some(r),
                (false, Some(ins)) => {
                    if r - ins < sigma {
                        violations.push((r, e, ins));
                    }
                    run_start = None;
                }
                _ => {}
            }
        }
    }
    let (removed_at, e, inserted_at) = violations.into_iter().min()?;
    Some((e, inserted_at, removed_at))
}

/// `check_schedule`'s verdict in the oracle's terms, its fields checked.
fn checked(sigma: u64, schedule: &[Graph]) -> Option<(Edge, Round, Round)> {
    let v = check_schedule(sigma, schedule).err()?;
    assert_eq!(
        (v.sigma, v.run_length),
        (sigma, v.removed_at - v.inserted_at)
    );
    Some((v.edge, v.inserted_at, v.removed_at))
}

/// Every edge `g` lacks: a graph on the same nodes, edge-disjoint from `g`.
fn complement(g: &Graph) -> Graph {
    let n = g.node_count() as u32;
    let all =
        (0..n).flat_map(|u| (u + 1..n).map(move |v| Edge::new(NodeId::new(u), NodeId::new(v))));
    Graph::from_edges(g.node_count(), all.filter(|&e| !g.edges().contains(e)))
}
