//! Connectivity helpers.
//!
//! The model requires every round graph to be connected. Adversaries use
//! [`connect_components`] to repair a proposal with the minimum number of
//! extra edges (`ℓ - 1` edges for `ℓ` components — the same repair step the
//! Section 2 lower-bound adversary performs with non-free edges).

use crate::edge::Edge;
use crate::graph::Graph;
use crate::node::NodeId;
use rand::seq::SliceRandom;
use rand::Rng;

/// Connects `g` by adding exactly `ℓ - 1` edges between randomly chosen
/// representatives of its `ℓ` components. Returns the added edges.
///
/// The resulting graph is connected; if `g` was already connected, nothing
/// is added.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{connectivity::connect_components, Graph};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut g = Graph::empty(5);
/// let mut rng = StdRng::seed_from_u64(1);
/// let added = connect_components(&mut g, &mut rng);
/// assert_eq!(added.len(), 4);
/// assert!(g.is_connected());
/// ```
pub fn connect_components<R: Rng>(g: &mut Graph, rng: &mut R) -> Vec<Edge> {
    let n = g.node_count();
    if n <= 1 {
        return Vec::new();
    }
    let mut uf = g.component_structure();
    // Pick one random member per component.
    let labels = uf.labels();
    let mut members: std::collections::BTreeMap<usize, Vec<NodeId>> =
        std::collections::BTreeMap::new();
    for v in g.nodes() {
        members.entry(labels[v.index()]).or_default().push(v);
    }
    let mut reps: Vec<NodeId> = members
        .values()
        .map(|vs| *vs.choose(rng).expect("component is nonempty"))
        .collect();
    reps.shuffle(rng);
    let mut added = Vec::new();
    for w in reps.windows(2) {
        let e = Edge::new(w[0], w[1]);
        if g.insert_edge(e) {
            added.push(e);
        }
    }
    debug_assert!(g.is_connected());
    added
}

/// Returns the bridge edges of `g` (edges whose removal disconnects their
/// component), sorted: one [`BridgeIndex`] pass.
pub fn bridges(g: &Graph) -> Vec<Edge> {
    BridgeIndex::new(g).bridges
}

/// Parent of a DFS root.
const NO_PARENT: u32 = u32::MAX;

/// The bridges of a graph, kept current while edges are deleted from it.
///
/// [`BridgeIndex::rebuild`] runs one DFS over the CSR rows. It leaves a
/// spanning forest (parent pointers, discovery times) and, for every tree
/// edge, the number of non-tree edges whose tree path *covers* it; a tree
/// edge is a bridge iff nothing covers it, and a non-tree edge never is
/// (Tarjan, *A note on finding the bridges of a graph*, 1974). In a DFS
/// forest every non-tree edge joins a node to one of its ancestors, so the
/// path it covers is a walk up parent pointers — which is all
/// [`BridgeIndex::delete`] does for a non-tree edge, since a deletion can
/// only *add* bridges. Deleting a tree edge invalidates the forest and costs
/// a new pass.
///
/// Churn adversaries avoid deleting bridges so that connectivity is
/// maintained without re-inserting edges. All buffers are flat, sized `n`
/// and reused across rebuilds.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{connectivity::BridgeIndex, Edge, Graph, NodeId};
///
/// let mut g = Graph::cycle(4);
/// let mut index = BridgeIndex::new(&g);
/// assert!(index.bridges().is_empty());
/// let e = Edge::new(NodeId::new(0), NodeId::new(3));
/// g.remove_edge(e);
/// index.delete(&g, e);
/// assert_eq!(index.bridges(), Graph::path(4).edges().as_slice());
/// ```
#[derive(Clone, Debug, Default)]
pub struct BridgeIndex {
    /// Discovery time of every node, from 1; 0 = not visited yet.
    disc: Vec<u32>,
    /// DFS-tree parent, [`NO_PARENT`] for roots.
    parent: Vec<u32>,
    /// `cover[v]`: how many non-tree edges cover tree edge `{parent[v], v}`.
    cover: Vec<u32>,
    /// DFS stack: `(node, next position in its row)`.
    stack: Vec<(u32, u32)>,
    /// The uncovered tree edges, sorted.
    bridges: Vec<Edge>,
}

impl BridgeIndex {
    /// The index of `g`.
    pub fn new(g: &Graph) -> Self {
        let mut index = BridgeIndex::default();
        index.rebuild(g);
        index
    }

    /// The bridges of the indexed graph, sorted.
    pub fn bridges(&self) -> &[Edge] {
        &self.bridges
    }

    /// Whether `e` is an edge of the spanning forest — one whose deletion
    /// [`BridgeIndex::delete`] answers with a rebuild.
    pub fn is_tree_edge(&self, e: Edge) -> bool {
        self.parent[e.lo().index()] == e.hi().value()
            || self.parent[e.hi().index()] == e.lo().value()
    }

    /// Re-indexes `g` from scratch: O(n + m).
    ///
    /// A non-tree edge `{u, w}` (`w` the ancestor) adds 1 to `cover[u]` and
    /// takes 1 from `cover[w]`; summing `cover` up the tree as nodes finish
    /// leaves in `cover[v]` the edges that start in `v`'s subtree and end
    /// above `v` — the ones covering `{parent[v], v}`. The subtraction
    /// wraps while a node's own descendants are still to be added; the sum
    /// a node finishes with is never negative. Iterative, so a path graph
    /// thousands deep does not recurse.
    pub fn rebuild(&mut self, g: &Graph) {
        let n = g.node_count();
        let BridgeIndex {
            disc,
            parent,
            cover,
            stack,
            bridges,
        } = self;
        disc.clear();
        disc.resize(n, 0);
        parent.clear();
        parent.resize(n, NO_PARENT);
        cover.clear();
        cover.resize(n, 0);
        bridges.clear();
        let mut timer = 0u32;
        for root in 0..n {
            if disc[root] != 0 {
                continue;
            }
            timer += 1;
            disc[root] = timer;
            let (mut u, mut next) = (root, 0usize);
            'visit: loop {
                let (du, pu) = (disc[u], parent[u]);
                let row = g.neighbors(NodeId::new(u as u32));
                while next < row.len() {
                    let w = row[next].index();
                    next += 1;
                    let dw = disc[w];
                    if dw == 0 {
                        timer += 1;
                        disc[w] = timer;
                        parent[w] = u as u32;
                        stack.push((u as u32, next as u32));
                        (u, next) = (w, 0);
                        continue 'visit;
                    }
                    // A visited `w` is an ancestor (found earlier) or a
                    // finished descendant, which counted this edge itself.
                    // Added as 0 or 1 rather than branched on: ancestor or
                    // descendant is a coin flip the branch predictor loses,
                    // and branching made the pass a quarter slower at
                    // n = 4096, m = 3n.
                    let back = (dw < du && w as u32 != pu) as u32;
                    cover[u] += back;
                    cover[w] = cover[w].wrapping_sub(back);
                }
                // `u` is finished and `cover[u]` final: hand it up.
                let Some((p, resume)) = stack.pop() else {
                    break;
                };
                if cover[u] == 0 {
                    bridges.push(Edge::new(NodeId::new(p), NodeId::new(u as u32)));
                }
                let p = p as usize;
                cover[p] = cover[p].wrapping_add(cover[u]);
                (u, next) = (p, resume as usize);
            }
        }
        bridges.sort_unstable();
    }

    /// Brings the index up to date after `e` was removed from the graph it
    /// indexed; `g` is that graph without `e`.
    ///
    /// A non-tree edge stops covering the tree path between its endpoints:
    /// O(length of that path), and every tree edge left uncovered joins the
    /// bridges. A tree edge (bridge or not) costs a [`BridgeIndex::rebuild`].
    ///
    /// # Panics
    ///
    /// May panic if `e` was not an edge of the indexed graph.
    pub fn delete(&mut self, g: &Graph, e: Edge) {
        if self.is_tree_edge(e) {
            return self.rebuild(g);
        }
        let (a, b) = (e.lo().index(), e.hi().index());
        let (mut x, ancestor) = if self.disc[a] > self.disc[b] {
            (a, b)
        } else {
            (b, a)
        };
        let known = self.bridges.len();
        while x != ancestor {
            let p = self.parent[x];
            self.cover[x] -= 1;
            if self.cover[x] == 0 {
                self.bridges
                    .push(Edge::new(NodeId::new(p), NodeId::new(x as u32)));
            }
            x = p as usize;
        }
        if self.bridges.len() > known {
            self.bridges.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(NodeId::new(u), NodeId::new(v))
    }

    #[test]
    fn connecting_empty_graph_builds_spanning_tree() {
        let mut g = Graph::empty(8);
        let mut rng = StdRng::seed_from_u64(42);
        let added = connect_components(&mut g, &mut rng);
        assert_eq!(added.len(), 7);
        assert!(g.is_connected());
        assert_eq!(g.edge_count(), 7);
    }

    #[test]
    fn connecting_connected_graph_is_noop() {
        let mut g = Graph::cycle(6);
        let before = g.edge_count();
        let mut rng = StdRng::seed_from_u64(1);
        let added = connect_components(&mut g, &mut rng);
        assert!(added.is_empty());
        assert_eq!(g.edge_count(), before);
    }

    #[test]
    fn connecting_two_islands_adds_one_edge() {
        let mut g = Graph::from_edges(4, [e(0, 1), e(2, 3)]);
        let mut rng = StdRng::seed_from_u64(3);
        let added = connect_components(&mut g, &mut rng);
        assert_eq!(added.len(), 1);
        assert!(g.is_connected());
    }

    #[test]
    fn path_edges_are_all_bridges() {
        let g = Graph::path(5);
        assert_eq!(bridges(&g).len(), 4);
    }

    #[test]
    fn cycle_has_no_bridges() {
        let g = Graph::cycle(5);
        assert!(bridges(&g).is_empty());
    }

    #[test]
    fn lollipop_bridge() {
        // Triangle 0-1-2 plus pendant path 2-3-4: bridges are {2,3} and {3,4}.
        let g = Graph::from_edges(5, [e(0, 1), e(1, 2), e(0, 2), e(2, 3), e(3, 4)]);
        assert_eq!(bridges(&g), vec![e(2, 3), e(3, 4)]);
    }

    #[test]
    fn bridges_across_multiple_components() {
        let g = Graph::from_edges(6, [e(0, 1), e(2, 3), e(3, 4), e(2, 4), e(4, 5)]);
        // {0,1} bridges its tiny component; {4,5} is a pendant bridge.
        assert_eq!(bridges(&g), vec![e(0, 1), e(4, 5)]);
    }

    #[test]
    fn deleting_a_non_tree_edge_uncovers_its_tree_path() {
        // DFS from 0 runs 0-1-2-3-4; {0,2} and {1,4} are the non-tree edges.
        let mut g = Graph::from_edges(5, [e(0, 1), e(1, 2), e(2, 3), e(3, 4), e(0, 2), e(1, 4)]);
        let mut index = BridgeIndex::new(&g);
        assert!(index.bridges().is_empty());
        assert!(!index.is_tree_edge(e(1, 4)) && index.is_tree_edge(e(2, 3)));
        g.remove_edge(e(1, 4));
        index.delete(&g, e(1, 4));
        // {1,2} is still covered by {0,2}.
        assert_eq!(index.bridges(), [e(2, 3), e(3, 4)]);
        g.remove_edge(e(0, 2));
        index.delete(&g, e(0, 2));
        assert_eq!(index.bridges(), g.edges().as_slice());
    }

    #[test]
    fn a_cover_count_dips_below_zero_while_its_subtree_is_open() {
        // DFS 0-1-2-3: node 3 closes {1,3}, taking 1 from `cover[1]` before
        // the matching 1 has climbed from 3 through 2.
        let g = Graph::from_edges(4, [e(0, 1), e(1, 2), e(2, 3), e(1, 3)]);
        assert_eq!(bridges(&g), vec![e(0, 1)]);
    }

    #[test]
    fn deleting_a_tree_edge_rebuilds() {
        let mut g = Graph::cycle(6);
        let mut index = BridgeIndex::new(&g);
        assert!(index.is_tree_edge(e(2, 3)));
        g.remove_edge(e(2, 3));
        index.delete(&g, e(2, 3));
        assert_eq!(index.bridges(), g.edges().as_slice());
        // The buffers are reused for a graph of another size.
        index.rebuild(&Graph::complete(4));
        assert!(index.bridges().is_empty());
    }

    #[test]
    fn deep_paths_do_not_recurse() {
        let n = 16_384;
        assert_eq!(bridges(&Graph::path(n)).len(), n - 1);
        let mut g = Graph::cycle(n);
        let mut index = BridgeIndex::new(&g);
        assert!(index.bridges().is_empty());
        let closing = e(0, n as u32 - 1);
        g.remove_edge(closing);
        index.delete(&g, closing);
        assert_eq!(index.bridges(), g.edges().as_slice());
    }

    #[test]
    fn removing_non_bridge_keeps_component_connected() {
        let g = Graph::cycle(7);
        for edge in g.edges().iter().collect::<Vec<_>>() {
            let mut h = g.clone();
            h.remove_edge(edge);
            assert!(h.is_connected(), "cycle minus one edge stays connected");
        }
    }
}
