//! Immutable-per-round graph snapshots.
//!
//! A [`Graph`] is the communication graph `G_r = (V, E_r)` of one round. The
//! vertex set is fixed for the lifetime of an execution (the paper's model
//! has no node churn); only the edge set varies between rounds.
//!
//! Adjacency is stored in **CSR form** (compressed sparse row): one
//! `offsets` array of `n + 1` cumulative degrees and one flat `targets`
//! array holding every node's sorted neighbor list back to back. Compared
//! to the former `Vec<Vec<NodeId>>` this is a single allocation instead of
//! `n`, clones are two `memcpy`s, and iterating a round's worth of
//! neighborhoods walks one contiguous array — the properties that let the
//! experiment grids run at `n` in the thousands.

use crate::edge::{Edge, EdgeSet};
use crate::node::NodeId;
use crate::union_find::UnionFind;

/// A snapshot of the communication graph of a single round.
///
/// Stores both a sorted edge list (for round-delta computation and ordered
/// iteration) and a CSR adjacency structure (for per-node iteration, and
/// for [`has_edge`](Graph::has_edge), a binary search of one row). The two
/// representations are kept consistent by construction, and neither holds
/// anything of size `n²`: a snapshot is `O(n + m)` to build, clone and drop.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{Graph, NodeId};
///
/// let g = Graph::path(4);
/// assert_eq!(g.node_count(), 4);
/// assert_eq!(g.edge_count(), 3);
/// assert!(g.is_connected());
/// assert_eq!(g.degree(NodeId::new(1)), 2);
/// ```
#[derive(Clone)]
pub struct Graph {
    n: usize,
    edges: EdgeSet,
    /// `offsets[v]..offsets[v + 1]` indexes `v`'s neighbors in `targets`.
    offsets: Vec<u32>,
    /// All neighbor lists, concatenated; each node's slice is sorted.
    targets: Vec<NodeId>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // The CSR arrays are derived from the edge set; comparing them
        // would be redundant work.
        self.n == other.n && self.edges == other.edges
    }
}

impl Eq for Graph {}

impl Graph {
    /// The empty graph `(V, ∅)` on `n` nodes — the paper's `G_0`.
    pub fn empty(n: usize) -> Self {
        Graph {
            n,
            edges: EdgeSet::new(),
            offsets: vec![0; n + 1],
            targets: Vec::new(),
        }
    }

    /// Builds a graph on `n` nodes from an edge iterator.
    ///
    /// Duplicate edges are deduplicated. This is the bulk path: an edge
    /// list not already in order is sorted by two counting passes (by
    /// larger, then smaller endpoint) and compacted, with no comparison
    /// between edges — a rewiring adversary hands over a freshly sampled,
    /// randomly ordered list every few rounds, on which each comparison
    /// would be a mispredicted branch half the time. Then one degree pass
    /// and a single contiguous fill of the CSR arrays — no per-node
    /// allocations and no per-edge shifting.
    ///
    /// # Panics
    ///
    /// Panics if an edge endpoint is `>= n`.
    pub fn from_edges<I: IntoIterator<Item = Edge>>(n: usize, edges: I) -> Self {
        let mut list: Vec<Edge> = edges.into_iter().collect();
        for e in &list {
            assert!(e.hi().index() < n, "edge {e} out of range for n = {n}");
        }
        if !list.windows(2).all(|w| w[0] < w[1]) {
            sort_dedup_by_rows(n, &mut list);
        }
        let mut offsets = vec![0u32; n + 1];
        for e in &list {
            offsets[e.lo().index() + 1] += 1;
            offsets[e.hi().index() + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u32> = offsets[..n].to_vec();
        let mut targets = vec![NodeId::new(0); list.len() * 2];
        // `list` is sorted by (lo, hi). For a node `u`, its sub-`u`
        // neighbors arrive while scanning edges with `hi = u` (increasing
        // `lo`) and its super-`u` neighbors while scanning edges with
        // `lo = u` (increasing `hi`) — and all `hi = u` edges sort before
        // all `lo = u` edges, so every row comes out sorted.
        for e in &list {
            let (lo, hi) = (e.lo(), e.hi());
            targets[cursor[lo.index()] as usize] = hi;
            cursor[lo.index()] += 1;
            targets[cursor[hi.index()] as usize] = lo;
            cursor[hi.index()] += 1;
        }
        Graph {
            n,
            edges: EdgeSet::from_sorted_vec(list),
            offsets,
            targets,
        }
    }

    /// The path `v0 – v1 – … – v(n-1)`.
    pub fn path(n: usize) -> Self {
        Graph::from_edges(
            n,
            (1..n).map(|i| Edge::new(NodeId::new(i as u32 - 1), NodeId::new(i as u32))),
        )
    }

    /// The cycle on `n ≥ 3` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3`.
    pub fn cycle(n: usize) -> Self {
        assert!(n >= 3, "a cycle needs at least 3 nodes, got {n}");
        let mut g = Graph::path(n);
        g.insert_edge(Edge::new(NodeId::new(0), NodeId::new(n as u32 - 1)));
        g
    }

    /// The star with center `v0`.
    pub fn star(n: usize) -> Self {
        Graph::from_edges(
            n,
            (1..n).map(|i| Edge::new(NodeId::new(0), NodeId::new(i as u32))),
        )
    }

    /// The complete graph `K_n`.
    pub fn complete(n: usize) -> Self {
        Graph::from_edges(
            n,
            (0..n as u32).flat_map(|u| {
                ((u + 1)..n as u32).map(move |v| Edge::new(NodeId::new(u), NodeId::new(v)))
            }),
        )
    }

    /// Number of nodes `n = |V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Number of edges `m_r = |E_r|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// The edge set `E_r`.
    #[inline]
    pub fn edges(&self) -> &EdgeSet {
        &self.edges
    }

    /// Whether `{u, v}` is an edge — a binary search of `u`'s sorted CSR
    /// row, O(log deg(u)). `false` for `u == v` and for nodes out of range.
    #[inline]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        u.index() < self.n && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The neighbors of `v`, sorted by node ID.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.targets[self.offsets[v.index()] as usize..self.offsets[v.index() + 1] as usize]
    }

    /// The degree of `v` in this round.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Iterates over all node IDs.
    pub fn nodes(&self) -> impl DoubleEndedIterator<Item = NodeId> + ExactSizeIterator {
        NodeId::all(self.n)
    }

    /// Inserts `b` into `a`'s sorted CSR row, shifting the tail of
    /// `targets` and bumping the offsets of all later rows.
    fn csr_insert(&mut self, a: NodeId, b: NodeId) {
        let (start, end) = (
            self.offsets[a.index()] as usize,
            self.offsets[a.index() + 1] as usize,
        );
        let pos = start + self.targets[start..end].partition_point(|&x| x < b);
        self.targets.insert(pos, b);
        for o in &mut self.offsets[a.index() + 1..] {
            *o += 1;
        }
    }

    /// Removes `b` from `a`'s sorted CSR row.
    fn csr_remove(&mut self, a: NodeId, b: NodeId) {
        let (start, end) = (
            self.offsets[a.index()] as usize,
            self.offsets[a.index() + 1] as usize,
        );
        let pos = start + self.targets[start..end].partition_point(|&x| x < b);
        debug_assert!(self.targets[pos] == b);
        self.targets.remove(pos);
        for o in &mut self.offsets[a.index() + 1..] {
            *o -= 1;
        }
    }

    /// Inserts an edge, keeping adjacency sorted. Returns `true` if new.
    ///
    /// Incremental inserts shift the flat `targets` array; adversaries use
    /// this for their few-edges-per-round churn, and the engine to apply
    /// their round deltas. Bulk construction should go through
    /// [`Graph::from_edges`].
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn insert_edge(&mut self, e: Edge) -> bool {
        assert!(
            e.hi().index() < self.n,
            "edge {e} out of range for n = {}",
            self.n
        );
        if !self.edges.insert(e) {
            return false;
        }
        let (u, v) = e.endpoints();
        self.csr_insert(u, v);
        self.csr_insert(v, u);
        true
    }

    /// Removes an edge. Returns `true` if it was present.
    pub fn remove_edge(&mut self, e: Edge) -> bool {
        if !self.edges.remove(e) {
            return false;
        }
        let (u, v) = e.endpoints();
        self.csr_remove(u, v);
        self.csr_remove(v, u);
        true
    }

    /// Whether the graph is connected (the model requires every `G_r`,
    /// `r ≥ 1`, to be connected).
    ///
    /// The empty-vertex-set graph and the single-node graph are connected.
    pub fn is_connected(&self) -> bool {
        self.component_structure().component_count() == 1 || self.n <= 1
    }

    /// Like [`Graph::is_connected`], but reuses the caller's union–find
    /// buffer instead of allocating — the per-round fast path.
    pub fn is_connected_with(&self, uf: &mut UnionFind) -> bool {
        self.component_structure_into(uf);
        uf.component_count() == 1 || self.n <= 1
    }

    /// Union–find over the graph's edges; exposes components.
    pub fn component_structure(&self) -> UnionFind {
        let mut uf = UnionFind::new(self.n);
        self.component_structure_into(&mut uf);
        uf
    }

    /// Rebuilds `uf` (resetting it) as the union–find over this graph's
    /// edges, reusing its buffers.
    pub fn component_structure_into(&self, uf: &mut UnionFind) {
        uf.reset(self.n);
        for &e in self.edges.as_slice() {
            uf.union(e.lo().index(), e.hi().index());
        }
    }

    /// Number of connected components.
    pub fn component_count(&self) -> usize {
        if self.n == 0 {
            return 0;
        }
        self.component_structure().component_count()
    }

    /// Breadth-first distances from `src`; `None` for unreachable nodes.
    pub fn bfs_distances(&self, src: NodeId) -> Vec<Option<u32>> {
        let mut dist = vec![None; self.n];
        dist[src.index()] = Some(0);
        let mut queue = std::collections::VecDeque::from([src]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u.index()].expect("queued nodes have distances");
            for &w in self.neighbors(u) {
                if dist[w.index()].is_none() {
                    dist[w.index()] = Some(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// The diameter (longest shortest path); `None` if disconnected.
    pub fn diameter(&self) -> Option<u32> {
        let mut best = 0;
        for v in self.nodes() {
            let dist = self.bfs_distances(v);
            for d in dist {
                best = best.max(d?);
            }
        }
        Some(best)
    }
}

/// Sorts and deduplicates an edge list on nodes `0..n` in place, without a
/// single comparison between edges: a stable counting pass by the larger
/// endpoint, then one by the smaller, leaves the list in `(lo, hi)` order
/// (an LSD radix sort with node-sized digits), and the compaction writes
/// every edge and advances its cursor only past a new one. A freshly
/// sampled edge list is in random order, so every comparison a comparison
/// sort (or a per-row sort) makes on it is a coin flip the branch predictor
/// loses half the time; here the only branches are loop bounds.
fn sort_dedup_by_rows(n: usize, list: &mut Vec<Edge>) {
    let mut by_hi = list.clone();
    counting_pass(n, list, &mut by_hi, Edge::hi);
    counting_pass(n, &by_hi, list, Edge::lo);
    let mut len = usize::from(!list.is_empty());
    for i in 1..list.len() {
        let (prev, e) = (list[len - 1], list[i]);
        list[len] = e;
        len += usize::from(e.packed() != prev.packed());
    }
    list.truncate(len);
}

/// Scatters `src` into `dst` in ascending `key` order, keeping the order of
/// equal keys (a stable counting sort on nodes `0..n`).
fn counting_pass(n: usize, src: &[Edge], dst: &mut [Edge], key: fn(Edge) -> NodeId) {
    let mut cursor = vec![0u32; n + 1];
    for &e in src {
        cursor[key(e).index() + 1] += 1;
    }
    for v in 0..n {
        cursor[v + 1] += cursor[v];
    }
    for &e in src {
        let slot = &mut cursor[key(e).index()];
        dst[*slot as usize] = e;
        *slot += 1;
    }
}

impl std::fmt::Debug for Graph {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.edges.len())
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn empty_graph_has_no_edges() {
        let g = Graph::empty(5);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_connected());
        assert_eq!(g.component_count(), 5);
    }

    #[test]
    fn single_node_graph_is_connected() {
        assert!(Graph::empty(1).is_connected());
        assert!(Graph::empty(0).is_connected());
    }

    #[test]
    fn path_shape() {
        let g = Graph::path(5);
        assert_eq!(g.edge_count(), 4);
        assert!(g.is_connected());
        assert_eq!(g.degree(nid(0)), 1);
        assert_eq!(g.degree(nid(2)), 2);
        assert_eq!(g.diameter(), Some(4));
    }

    #[test]
    fn cycle_shape() {
        let g = Graph::cycle(6);
        assert_eq!(g.edge_count(), 6);
        for v in g.nodes() {
            assert_eq!(g.degree(v), 2);
        }
        assert_eq!(g.diameter(), Some(3));
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_cycle_panics() {
        let _ = Graph::cycle(2);
    }

    #[test]
    fn star_shape() {
        let g = Graph::star(7);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(nid(0)), 6);
        assert_eq!(g.degree(nid(3)), 1);
        assert_eq!(g.diameter(), Some(2));
    }

    #[test]
    fn complete_shape() {
        let g = Graph::complete(5);
        assert_eq!(g.edge_count(), 10);
        assert_eq!(g.diameter(), Some(1));
        for v in g.nodes() {
            assert_eq!(g.degree(v), 4);
        }
    }

    #[test]
    fn insert_remove_keeps_adjacency_sorted_and_consistent() {
        let mut g = Graph::empty(4);
        assert!(g.insert_edge(Edge::new(nid(2), nid(0))));
        assert!(g.insert_edge(Edge::new(nid(0), nid(3))));
        assert!(!g.insert_edge(Edge::new(nid(3), nid(0))));
        assert_eq!(g.neighbors(nid(0)), &[nid(2), nid(3)]);
        assert!(g.has_edge(nid(0), nid(2)));
        assert!(g.remove_edge(Edge::new(nid(0), nid(2))));
        assert!(!g.remove_edge(Edge::new(nid(0), nid(2))));
        assert_eq!(g.neighbors(nid(0)), &[nid(3)]);
        assert_eq!(g.neighbors(nid(2)), &[] as &[NodeId]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        let mut g = Graph::empty(3);
        g.insert_edge(Edge::new(nid(1), nid(3)));
    }

    #[test]
    fn bfs_distances_on_path() {
        let g = Graph::path(4);
        let d = g.bfs_distances(nid(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3)]);
    }

    #[test]
    fn bfs_unreachable_is_none() {
        let g = Graph::from_edges(4, [Edge::new(nid(0), nid(1))]);
        let d = g.bfs_distances(nid(0));
        assert_eq!(d[2], None);
        assert_eq!(d[3], None);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn has_edge_rejects_self_pair() {
        let g = Graph::path(3);
        assert!(!g.has_edge(nid(1), nid(1)));
    }

    #[test]
    fn component_count_of_two_islands() {
        let g = Graph::from_edges(5, [Edge::new(nid(0), nid(1)), Edge::new(nid(2), nid(3))]);
        assert_eq!(g.component_count(), 3); // {0,1}, {2,3}, {4}
    }

    #[test]
    fn csr_rows_match_per_edge_construction() {
        // Bulk build and incremental build of the same edge set must agree
        // on every row.
        let edges = [
            Edge::new(nid(0), nid(3)),
            Edge::new(nid(1), nid(2)),
            Edge::new(nid(0), nid(1)),
            Edge::new(nid(2), nid(4)),
            Edge::new(nid(3), nid(4)),
        ];
        let bulk = Graph::from_edges(5, edges);
        let mut inc = Graph::empty(5);
        for e in edges {
            inc.insert_edge(e);
        }
        for v in bulk.nodes() {
            assert_eq!(bulk.neighbors(v), inc.neighbors(v), "row {v}");
            assert!(bulk.neighbors(v).windows(2).all(|w| w[0] < w[1]));
        }
        assert_eq!(bulk, inc);
    }
}
