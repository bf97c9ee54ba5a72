//! Random connected graph generators.
//!
//! Adversaries need a supply of connected topologies: spanning trees,
//! sparse/dense random graphs, near-regular graphs (the oblivious algorithm
//! analysis talks about `n`-regular virtual multigraphs built on arbitrary
//! actual graphs), and the deterministic shapes from [`crate::graph::Graph`].
//!
//! Every generator takes an explicit RNG and returns a *connected* graph.

use crate::connectivity::connect_components;
use crate::edge::Edge;
use crate::graph::Graph;
use crate::node::{IdHasher, NodeId};
use rand::seq::SliceRandom;
use rand::Rng;

/// A uniformly random labelled spanning tree on `n` nodes, via a random
/// permutation attachment process (each node attaches to a uniformly random
/// earlier node in a random order).
///
/// Not exactly uniform over all trees (that would need Wilson's algorithm),
/// but produces well-varied trees, which is what the adversaries need.
pub fn random_tree<R: Rng>(n: usize, rng: &mut R) -> Graph {
    // Collect the edge list first and build in bulk: one CSR fill instead
    // of n-1 incremental adjacency shifts — the difference between
    // milliseconds and tens of milliseconds per rewiring epoch at n ≥ 4k.
    Graph::from_edges(n, random_tree_edges(n, rng))
}

/// The edge list of [`random_tree`], for callers that keep accumulating
/// edges before building the graph.
fn random_tree_edges<R: Rng>(n: usize, rng: &mut R) -> Vec<Edge> {
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

/// The edges a generator has already picked, probed once per candidate.
///
/// A `HashSet` with [`IdHasher`] in place of SipHash: the keys are node
/// pairs this module drew from its own RNG, so nothing can craft collisions,
/// and hashing was a third of a sparse sample's cost. The set is never
/// iterated, so the generators stay deterministic.
type SeenEdges = std::collections::HashSet<Edge, std::hash::BuildHasherDefault<IdHasher>>;

/// `edges` as a set with room for `capacity` edges in all: the caller's
/// bound on its final edge count, so filling up to it never rehashes.
fn seen_edges(edges: &[Edge], capacity: usize) -> SeenEdges {
    let mut seen = SeenEdges::with_capacity_and_hasher(capacity, Default::default());
    seen.extend(edges.iter().copied());
    seen
}

/// An Erdős–Rényi `G(n, p)` sample, made connected by adding a minimal set
/// of repair edges between components.
pub fn gnp_connected<R: Rng>(n: usize, p: f64, rng: &mut R) -> Graph {
    assert!((0.0..=1.0).contains(&p), "p must be a probability, got {p}");
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in (u + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push(Edge::new(NodeId::new(u), NodeId::new(v)));
            }
        }
    }
    let mut g = Graph::from_edges(n, edges);
    connect_components(&mut g, rng);
    g
}

/// A connected graph with approximately `target_edges` edges: a random
/// spanning tree plus uniformly random extra edges.
///
/// The result has `max(n-1, min(target_edges, n(n-1)/2))` edges up to
/// collision slack (duplicate picks are retried a bounded number of times).
pub fn random_connected_with_edges<R: Rng>(n: usize, target_edges: usize, rng: &mut R) -> Graph {
    if n < 2 {
        return random_tree(n, rng);
    }
    // Accumulate into an edge list with a hash-set membership check, then
    // build once — the set is only ever probed, never iterated, so the
    // unordered container cannot leak nondeterminism into the result.
    let mut edges = random_tree_edges(n, rng);
    let max_edges = n * (n - 1) / 2;
    let want = target_edges.clamp(edges.len(), max_edges);
    let mut seen = seen_edges(&edges, want);
    let mut attempts = 0usize;
    let attempt_cap = 20 * max_edges + 100;
    while edges.len() < want && attempts < attempt_cap {
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
    Graph::from_edges(n, edges)
}

/// A connected near-`d`-regular graph: starts from a random cycle (so the
/// graph is connected and every degree is ≥ 2), then repeatedly pairs
/// low-degree nodes until no progress can be made.
///
/// For `d = 2` the cycle itself is returned. All degrees end up in
/// `[2, d + 1]` with the vast majority exactly `d` for even `n·d`.
///
/// # Panics
///
/// Panics if `n < 3` or `d < 2` or `d >= n`.
pub fn near_regular<R: Rng>(n: usize, d: usize, rng: &mut R) -> Graph {
    assert!(n >= 3, "near_regular needs n ≥ 3, got {n}");
    assert!((2..n).contains(&d), "degree must be in [2, n), got {d}");
    // Random cycle.
    let mut order: Vec<u32> = (0..n as u32).collect();
    order.shuffle(rng);
    let mut edges: Vec<Edge> = (0..n)
        .map(|i| Edge::new(NodeId::new(order[i]), NodeId::new(order[(i + 1) % n])))
        .collect();
    if d == 2 {
        return Graph::from_edges(n, edges);
    }
    // Greedy pairing of deficient nodes, against local degree/membership
    // state so the graph is built once in bulk at the end (a per-pair
    // `insert_edge` would shift the flat CSR arrays O(n + m) per edge).
    let mut deg = vec![2usize; n];
    // Only nodes below degree `d` are ever paired: at most n·d/2 edges.
    let mut seen = seen_edges(&edges, n * d / 2);
    // The nodes below degree `d`, ascending. Degrees only grow, so a node
    // leaves the list once, when it reaches `d`; a stalled attempt changes
    // nothing and draws from the same list.
    let mut deficient: Vec<NodeId> = NodeId::all(n).collect();
    let mut stall = 0usize;
    while stall < 50 && deficient.len() >= 2 {
        let a = *deficient.choose(rng).expect("nonempty");
        let b = *deficient.choose(rng).expect("nonempty");
        if a != b && seen.insert(Edge::new(a, b)) {
            edges.push(Edge::new(a, b));
            for v in [a, b] {
                deg[v.index()] += 1;
                if deg[v.index()] == d {
                    let at = deficient.binary_search(&v).expect("deficient until now");
                    deficient.remove(at);
                }
            }
            stall = 0;
        } else {
            stall += 1;
        }
    }
    Graph::from_edges(n, edges)
}

/// Deterministic and random topology families, as a configuration value.
///
/// Adversaries that periodically resample a topology are parameterized by a
/// `Topology` so experiments can sweep over families.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Topology {
    /// The path graph (diameter `n-1`; worst case for dissemination time).
    Path,
    /// The cycle graph.
    Cycle,
    /// The star graph (hub bottleneck).
    Star,
    /// The complete graph (`Θ(n²)` edges; worst case for flooding cost).
    Complete,
    /// A random spanning tree.
    RandomTree,
    /// Erdős–Rényi with edge probability `p`, repaired to be connected.
    Gnp(f64),
    /// A random connected graph with ~`c·n` edges (`c ≥ 1`).
    SparseConnected(f64),
    /// A connected near-`d`-regular graph.
    NearRegular(usize),
}

impl Topology {
    /// Samples a connected graph of this family on `n` nodes.
    pub fn sample<R: Rng>(self, n: usize, rng: &mut R) -> Graph {
        match self {
            Topology::Path => Graph::path(n),
            Topology::Cycle => Graph::cycle(n),
            Topology::Star => Graph::star(n),
            Topology::Complete => Graph::complete(n),
            Topology::RandomTree => random_tree(n, rng),
            Topology::Gnp(p) => gnp_connected(n, p, rng),
            Topology::SparseConnected(c) => {
                random_connected_with_edges(n, (c * n as f64) as usize, rng)
            }
            Topology::NearRegular(d) => near_regular(n, d.min(n.saturating_sub(1)).max(2), rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn random_tree_is_spanning_tree() {
        for seed in 0..10 {
            let g = random_tree(20, &mut rng(seed));
            assert_eq!(g.edge_count(), 19);
            assert!(g.is_connected());
        }
    }

    #[test]
    fn random_tree_trivial_sizes() {
        assert_eq!(random_tree(0, &mut rng(0)).edge_count(), 0);
        assert_eq!(random_tree(1, &mut rng(0)).edge_count(), 0);
        let g2 = random_tree(2, &mut rng(0));
        assert_eq!(g2.edge_count(), 1);
    }

    #[test]
    fn gnp_connected_is_connected_even_for_p_zero() {
        let g = gnp_connected(15, 0.0, &mut rng(5));
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 14); // repair tree only
    }

    #[test]
    fn gnp_dense_has_many_edges() {
        let g = gnp_connected(20, 0.5, &mut rng(6));
        assert!(g.is_connected());
        assert!(
            g.edge_count() > 50,
            "expected ~95 edges, got {}",
            g.edge_count()
        );
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn gnp_rejects_bad_p() {
        let _ = gnp_connected(5, 1.5, &mut rng(0));
    }

    #[test]
    fn random_connected_with_edges_hits_target() {
        let g = random_connected_with_edges(30, 60, &mut rng(7));
        assert!(g.is_connected());
        assert!(g.edge_count() >= 29);
        assert!(g.edge_count() <= 61, "got {}", g.edge_count());
    }

    #[test]
    fn random_connected_with_edges_clamps_to_clique() {
        let g = random_connected_with_edges(6, 1000, &mut rng(8));
        assert!(g.edge_count() <= 15);
        assert!(g.is_connected());
    }

    #[test]
    fn near_regular_degrees_bounded() {
        let d = 4;
        let g = near_regular(40, d, &mut rng(9));
        assert!(g.is_connected());
        for v in g.nodes() {
            assert!(g.degree(v) >= 2);
            assert!(g.degree(v) <= d + 1, "degree {} too high", g.degree(v));
        }
        let avg: f64 = g.nodes().map(|v| g.degree(v) as f64).sum::<f64>() / g.node_count() as f64;
        assert!(avg > (d - 1) as f64, "average degree {avg} too low");
    }

    #[test]
    fn near_regular_d2_is_cycle() {
        let g = near_regular(10, 2, &mut rng(10));
        assert_eq!(g.edge_count(), 10);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
    }

    #[test]
    fn all_topologies_sample_connected() {
        let topologies = [
            Topology::Path,
            Topology::Cycle,
            Topology::Star,
            Topology::Complete,
            Topology::RandomTree,
            Topology::Gnp(0.2),
            Topology::SparseConnected(2.0),
            Topology::NearRegular(4),
        ];
        for t in topologies {
            for seed in 0..3 {
                let g = t.sample(12, &mut rng(seed));
                assert!(g.is_connected(), "{t:?} produced a disconnected graph");
                assert_eq!(g.node_count(), 12);
            }
        }
    }
}
