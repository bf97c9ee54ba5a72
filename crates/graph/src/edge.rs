//! Undirected edges and edge sets.
//!
//! All communication graphs in the paper are undirected; an edge `{u, v}` is
//! stored in normalized form with the smaller endpoint first so that equal
//! edges compare equal regardless of construction order.

use crate::node::NodeId;
use std::fmt;

/// An undirected edge `{u, v}` between two distinct nodes.
///
/// The constructor normalizes endpoint order, so `Edge::new(a, b) ==
/// Edge::new(b, a)`.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{Edge, NodeId};
///
/// let e = Edge::new(NodeId::new(4), NodeId::new(1));
/// assert_eq!(e.lo(), NodeId::new(1));
/// assert_eq!(e.hi(), NodeId::new(4));
/// assert_eq!(e, Edge::new(NodeId::new(1), NodeId::new(4)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    lo: NodeId,
    hi: NodeId,
}

impl Edge {
    /// Creates the undirected edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v`: the model has no self-loops on *actual* edges
    /// (the virtual self-loops of Algorithm 2 never materialize as edges).
    #[inline]
    pub fn new(u: NodeId, v: NodeId) -> Self {
        assert!(u != v, "self-loop edge {u} is not allowed");
        if u < v {
            Edge { lo: u, hi: v }
        } else {
            Edge { lo: v, hi: u }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub const fn lo(self) -> NodeId {
        self.lo
    }

    /// The larger endpoint.
    #[inline]
    pub const fn hi(self) -> NodeId {
        self.hi
    }

    /// The edge as one integer, `(lo << 32) | hi`, ordered as `Ord` orders
    /// edges: one comparison where the derived order may branch on the
    /// first field before comparing the second.
    #[inline]
    pub(crate) const fn packed(self) -> u64 {
        ((self.lo.value() as u64) << 32) | self.hi.value() as u64
    }

    /// Both endpoints, smaller first.
    #[inline]
    pub const fn endpoints(self) -> (NodeId, NodeId) {
        (self.lo, self.hi)
    }

    /// Returns the endpoint opposite to `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not an endpoint of this edge.
    #[inline]
    pub fn other(self, v: NodeId) -> NodeId {
        if v == self.lo {
            self.hi
        } else if v == self.hi {
            self.lo
        } else {
            panic!("{v} is not an endpoint of {self:?}")
        }
    }

    /// Whether `v` is an endpoint of this edge.
    #[inline]
    pub fn touches(self, v: NodeId) -> bool {
        v == self.lo || v == self.hi
    }
}

impl fmt::Debug for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.lo, self.hi)
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.lo, self.hi)
    }
}

/// An ordered set of undirected edges.
///
/// One representation: a `Vec<Edge>` kept sorted in normalized
/// lexicographic order. Iteration is deterministic (adversaries and
/// algorithms iterate edge sets while holding seeded RNGs, and runs must be
/// reproducible), membership is a binary search, set difference is a linear
/// merge, and a clone is one `memcpy` of `8·m` bytes — nothing whose size
/// depends on `n` is allocated, which is what lets a topology sample or a
/// snapshot clone at `n` in the thousands cost what its edges cost.
///
/// Single-edge insert/remove keeps the vector sorted via binary search
/// (an `memmove` of `Copy` pairs — cheap at simulator scales), with an O(1)
/// append fast path for edges arriving in sorted order; bulk construction
/// (`FromIterator` / `Extend`) sorts once.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{Edge, EdgeSet, NodeId};
///
/// let mut es = EdgeSet::new();
/// es.insert(Edge::new(NodeId::new(0), NodeId::new(1)));
/// es.insert(Edge::new(NodeId::new(1), NodeId::new(0)));
/// assert_eq!(es.len(), 1);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct EdgeSet {
    /// Strictly sorted in (lo, hi) order.
    edges: Vec<Edge>,
}

impl EdgeSet {
    /// Creates an empty edge set.
    pub fn new() -> Self {
        EdgeSet::default()
    }

    /// Wraps an already sorted, deduplicated edge vector — the bulk path
    /// behind `FromIterator` and `Graph::from_edges`.
    pub(crate) fn from_sorted_vec(edges: Vec<Edge>) -> Self {
        debug_assert!(edges.windows(2).all(|w| w[0] < w[1]), "not sorted/deduped");
        EdgeSet { edges }
    }

    /// Inserts an edge; returns `true` if it was not already present.
    pub fn insert(&mut self, e: Edge) -> bool {
        match self.edges.last() {
            Some(&last) if last >= e => match self.edges.binary_search(&e) {
                Ok(_) => false,
                Err(pos) => {
                    self.edges.insert(pos, e);
                    true
                }
            },
            _ => {
                self.edges.push(e);
                true
            }
        }
    }

    /// Removes an edge; returns `true` if it was present.
    pub fn remove(&mut self, e: Edge) -> bool {
        match self.edges.binary_search(&e) {
            Ok(pos) => {
                self.edges.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Whether the edge is present — a binary search, O(log m).
    #[inline]
    pub fn contains(&self, e: Edge) -> bool {
        self.edges.binary_search(&e).is_ok()
    }

    /// A membership test for queries made in **ascending** edge order: the
    /// returned closure walks the sorted vector once over all its calls, so
    /// `q` ordered queries cost O(m + q) in total instead of O(q log m).
    pub(crate) fn ascending_probe(&self) -> impl FnMut(Edge) -> bool + '_ {
        let mut rest = self.edges.as_slice();
        move |e| {
            let passed = rest.iter().take_while(|&&x| x < e).count();
            rest = &rest[passed..];
            rest.first() == Some(&e)
        }
    }

    /// Number of edges.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// Iterates edges in normalized (lexicographic) order.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = Edge> + ExactSizeIterator + '_ {
        self.edges.iter().copied()
    }

    /// The edges as a sorted slice (normalized lexicographic order).
    #[inline]
    pub fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Edges in `self` that are not in `other` (set difference).
    ///
    /// This is the primitive behind the paper's `E_r^+ = E_r \ E_{r-1}`
    /// (inserted edges) and `E_r^- = E_{r-1} \ E_r` (removed edges).
    /// One linear merge of the two sorted vectors: O(|self| + |other|).
    pub fn difference<'a>(&'a self, other: &'a EdgeSet) -> impl Iterator<Item = Edge> + 'a {
        let mut in_other = other.ascending_probe();
        self.edges.iter().copied().filter(move |&e| !in_other(e))
    }
}

impl FromIterator<Edge> for EdgeSet {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        let mut edges: Vec<Edge> = iter.into_iter().collect();
        edges.sort_unstable();
        edges.dedup();
        EdgeSet::from_sorted_vec(edges)
    }
}

impl Extend<Edge> for EdgeSet {
    fn extend<T: IntoIterator<Item = Edge>>(&mut self, iter: T) {
        self.edges.extend(iter);
        self.edges.sort_unstable();
        self.edges.dedup();
    }
}

impl fmt::Debug for EdgeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.edges.iter()).finish()
    }
}

impl<'a> IntoIterator for &'a EdgeSet {
    type Item = Edge;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Edge>>;

    fn into_iter(self) -> Self::IntoIter {
        self.edges.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(NodeId::new(u), NodeId::new(v))
    }

    #[test]
    fn edge_is_normalized() {
        assert_eq!(e(3, 1), e(1, 3));
        assert_eq!(e(3, 1).lo(), NodeId::new(1));
        assert_eq!(e(3, 1).hi(), NodeId::new(3));
        assert_eq!(e(3, 1).endpoints(), (NodeId::new(1), NodeId::new(3)));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = e(2, 2);
    }

    #[test]
    fn other_endpoint() {
        assert_eq!(e(1, 3).other(NodeId::new(1)), NodeId::new(3));
        assert_eq!(e(1, 3).other(NodeId::new(3)), NodeId::new(1));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_panics_for_non_endpoint() {
        let _ = e(1, 3).other(NodeId::new(2));
    }

    #[test]
    fn touches() {
        assert!(e(1, 3).touches(NodeId::new(1)));
        assert!(e(1, 3).touches(NodeId::new(3)));
        assert!(!e(1, 3).touches(NodeId::new(2)));
    }

    #[test]
    fn edge_set_dedupes_normalized_edges() {
        let mut es = EdgeSet::new();
        assert!(es.insert(e(0, 1)));
        assert!(!es.insert(e(1, 0)));
        assert_eq!(es.len(), 1);
        assert!(es.contains(e(0, 1)));
        assert!(es.remove(e(1, 0)));
        assert!(es.is_empty());
    }

    #[test]
    fn edge_set_difference_models_insertions_and_removals() {
        let prev: EdgeSet = [e(0, 1), e(1, 2)].into_iter().collect();
        let cur: EdgeSet = [e(1, 2), e(2, 3)].into_iter().collect();
        let inserted: Vec<_> = cur.difference(&prev).collect();
        let removed: Vec<_> = prev.difference(&cur).collect();
        assert_eq!(inserted, vec![e(2, 3)]);
        assert_eq!(removed, vec![e(0, 1)]);
    }

    #[test]
    fn edge_set_iterates_in_deterministic_order() {
        let es: EdgeSet = [e(2, 3), e(0, 5), e(0, 1)].into_iter().collect();
        let order: Vec<_> = es.iter().collect();
        assert_eq!(order, vec![e(0, 1), e(0, 5), e(2, 3)]);
    }

    #[test]
    fn bulk_build_dedupes_and_sorts() {
        let es: EdgeSet = [e(4, 5), e(1, 0), e(0, 1), e(5, 4), e(2, 7)]
            .into_iter()
            .collect();
        assert_eq!(es.len(), 3);
        assert_eq!(es.as_slice(), &[e(0, 1), e(2, 7), e(4, 5)]);
        assert!(es.contains(e(7, 2)));
        assert!(!es.contains(e(0, 7)));
    }

    #[test]
    fn extend_merges_into_sorted_order() {
        let mut es: EdgeSet = [e(0, 1)].into_iter().collect();
        es.extend([e(5, 6), e(0, 1), e(2, 3)]);
        assert_eq!(es.as_slice(), &[e(0, 1), e(2, 3), e(5, 6)]);
        assert!(es.contains(e(5, 6)));
    }

    #[test]
    fn insert_remove_interleaved_keeps_vector_sorted() {
        let mut es = EdgeSet::new();
        for i in 0..20u32 {
            assert!(es.insert(e(i, i + 1)));
        }
        for i in (0..20u32).step_by(2) {
            assert!(es.remove(e(i, i + 1)));
            assert!(!es.remove(e(i, i + 1)));
            assert!(!es.contains(e(i, i + 1)));
            assert!(es.contains(e(i + 1, i + 2)));
        }
        assert_eq!(es.len(), 10);
        // Reinsert in reverse order (exercises the non-append path).
        for i in (0..20u32).step_by(2).rev() {
            assert!(es.insert(e(i, i + 1)));
            assert!(!es.insert(e(i, i + 1)));
            assert!(es.as_slice().windows(2).all(|w| w[0] < w[1]));
        }
        let expect: Vec<Edge> = (0..20u32).map(|i| e(i, i + 1)).collect();
        assert_eq!(es.iter().collect::<Vec<_>>(), expect);
    }

    #[test]
    fn equality_is_by_contents_whatever_the_mutation_path() {
        // Same final contents, built along different mutation paths.
        let mut a = EdgeSet::new();
        a.insert(e(30, 31));
        a.remove(e(30, 31));
        a.insert(e(2, 3));
        a.insert(e(0, 1));
        let b: EdgeSet = [e(0, 1), e(2, 3)].into_iter().collect();
        let mut c = EdgeSet::new();
        c.extend([e(2, 3), e(0, 1), e(3, 2)]);
        assert_eq!(a, b);
        assert_eq!(b, c);
        assert_ne!(a, [e(0, 1)].into_iter().collect());
    }

    /// Every mutating and querying operation of the sorted-vector set
    /// against a `BTreeSet<Edge>` driven by the same seeded op sequence.
    #[test]
    fn edge_set_matches_a_btreeset_model() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        use std::collections::BTreeSet;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n = rng.gen_range(2..14u32);
            let draw = |rng: &mut StdRng| loop {
                let (u, v) = (rng.gen_range(0..n), rng.gen_range(0..n));
                if u != v {
                    return e(u, v);
                }
            };
            let mut set = EdgeSet::new();
            let mut model: BTreeSet<Edge> = BTreeSet::new();
            for _ in 0..120 {
                match rng.gen_range(0..5u32) {
                    0 => {
                        let x = draw(&mut rng);
                        assert_eq!(set.insert(x), model.insert(x), "insert {x}");
                    }
                    1 => {
                        let x = draw(&mut rng);
                        assert_eq!(set.remove(x), model.remove(&x), "remove {x}");
                    }
                    2 => {
                        let batch: Vec<Edge> =
                            (0..rng.gen_range(0..6)).map(|_| draw(&mut rng)).collect();
                        set.extend(batch.iter().copied());
                        model.extend(batch);
                    }
                    3 => {
                        // A consistent delta: remove present edges, insert
                        // absent ones, plus one edge removed and put back.
                        let present: Vec<Edge> = model.iter().copied().collect();
                        let mut removed: BTreeSet<Edge> = (0..rng.gen_range(0..4))
                            .filter_map(|_| present.get(rng.gen_range(0..present.len().max(1))))
                            .copied()
                            .collect();
                        let mut inserted: BTreeSet<Edge> = (0..rng.gen_range(0..4))
                            .map(|_| draw(&mut rng))
                            .filter(|x| !model.contains(x))
                            .collect();
                        let both = present.first().copied();
                        removed.extend(both);
                        inserted.extend(both);
                        // Applied as the engine applies a round delta:
                        // every removal, then every insertion.
                        for x in removed {
                            assert!(set.remove(x), "delta removes present {x}");
                            model.remove(&x);
                        }
                        for x in inserted {
                            assert!(set.insert(x), "delta inserts absent {x}");
                            model.insert(x);
                        }
                    }
                    _ => {
                        let other: BTreeSet<Edge> =
                            (0..rng.gen_range(0..10)).map(|_| draw(&mut rng)).collect();
                        let other_set: EdgeSet = other.iter().copied().collect();
                        assert_eq!(
                            set.difference(&other_set).collect::<Vec<_>>(),
                            model.difference(&other).copied().collect::<Vec<_>>()
                        );
                        assert_eq!(
                            other_set.difference(&set).collect::<Vec<_>>(),
                            other.difference(&model).copied().collect::<Vec<_>>()
                        );
                    }
                }
                assert_eq!(set.as_slice(), model.iter().copied().collect::<Vec<_>>());
                assert_eq!(set.len(), model.len());
                assert_eq!(set.is_empty(), model.is_empty());
                for u in 0..n {
                    for v in (u + 1)..n {
                        assert_eq!(set.contains(e(u, v)), model.contains(&e(u, v)));
                    }
                }
            }
        }
    }

    #[test]
    fn ascending_probe_answers_ordered_queries_in_one_walk() {
        let es: EdgeSet = [e(0, 2), e(1, 3), e(4, 5)].into_iter().collect();
        let mut probe = es.ascending_probe();
        let asked = [e(0, 1), e(0, 2), e(0, 2), e(1, 2), e(4, 5), e(6, 7)];
        let got: Vec<bool> = asked.iter().map(|&q| probe(q)).collect();
        assert_eq!(got, [false, true, true, false, true, false]);
        assert!(!EdgeSet::new().ascending_probe()(e(0, 1)));
    }
}
