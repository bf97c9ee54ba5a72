//! Dynamic-graph round sequences and topological-change accounting.
//!
//! The paper (Section 1.3) models an execution as a sequence of snapshots
//! `G_0 = (V, ∅), G_1, G_2, …` and defines the *number of topological
//! changes* of an execution as the total number of edge insertions:
//! `TC(E) = Σ_r |E_r^+|`. Since `G_0` is empty, deletions are always bounded
//! by insertions, so only insertions are charged (footnote 5).
//!
//! [`DynamicGraph`] tracks the current snapshot, the latest round's delta,
//! and the running [`TopologyMeter`].

use crate::edge::{Edge, EdgeSet};
use crate::graph::Graph;
use crate::node::Round;

/// Running counts of topological changes.
///
/// `insertions` is exactly the paper's `TC(E)`.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{DynamicGraph, Graph};
///
/// let mut dg = DynamicGraph::new(3);
/// dg.advance(Graph::path(3));
/// dg.advance(Graph::star(3));
/// // path 0-1-2 → star 0-1, 0-2: {0,2} inserted, {1,2} removed.
/// assert_eq!(dg.meter().insertions, 2 + 1);
/// assert_eq!(dg.meter().deletions, 1);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TopologyMeter {
    /// Total edge insertions so far: the paper's `TC(E)`.
    pub insertions: u64,
    /// Total edge deletions so far (always `≤ insertions`).
    pub deletions: u64,
}

impl TopologyMeter {
    /// The adversary-competitive budget `α · TC(E)` for a given `α`
    /// (Definition 1.3).
    pub fn budget(&self, alpha: f64) -> f64 {
        alpha * self.insertions as f64
    }
}

/// The per-round delta `(E_r^+, E_r^-)`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundDelta {
    /// Edges inserted at the beginning of this round (`E_r \ E_{r-1}`).
    pub inserted: Vec<Edge>,
    /// Edges removed at the beginning of this round (`E_{r-1} \ E_r`).
    pub removed: Vec<Edge>,
}

impl RoundDelta {
    /// Whether the round changed nothing.
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.removed.is_empty()
    }

    /// Applies the delta to `g` in place: every removal, then every
    /// insertion, one sorted-row shift each. A delta is a handful of edges
    /// its adversary already applied the same way to its own snapshot, so
    /// this at most doubles that round's work; a rebuild would touch every
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the delta is inconsistent with `g` (removes an absent
    /// edge or inserts a present one), or if an inserted endpoint is
    /// `>= n`.
    pub(crate) fn apply_to(&self, g: &mut Graph) {
        for &e in &self.removed {
            assert!(
                g.remove_edge(e),
                "delta inconsistent with the current snapshot: {e} is absent"
            );
        }
        for &e in &self.inserted {
            assert!(
                g.insert_edge(e),
                "delta inconsistent with the current snapshot: {e} is present"
            );
        }
    }
}

/// How an adversary describes the next round's graph to the engine.
///
/// Adversaries that rewire wholesale return [`GraphUpdate::Full`];
/// incremental adversaries (e.g. bounded churn) return
/// [`GraphUpdate::Delta`], which the [`DynamicGraph`] applies **in place**
/// against the live adjacency, skipping the full-snapshot diff; adversaries
/// that keep the topology return [`GraphUpdate::Unchanged`], which costs
/// nothing at all.
#[derive(Clone, Debug)]
pub enum GraphUpdate {
    /// A complete snapshot of the next round's graph.
    Full(Graph),
    /// Exact edge changes relative to the current snapshot.
    Delta(RoundDelta),
    /// The topology does not change this round.
    Unchanged,
}

/// A dynamic graph: the evolving snapshot plus change accounting.
///
/// Starts at round 0 with the empty graph `G_0 = (V, ∅)`; each call to
/// [`DynamicGraph::advance`] installs the next round's snapshot and returns
/// the delta.
#[derive(Clone, Debug)]
pub struct DynamicGraph {
    current: Graph,
    round: Round,
    meter: TopologyMeter,
    last_delta: RoundDelta,
}

impl DynamicGraph {
    /// Creates a dynamic graph on `n` nodes at round 0 (empty snapshot).
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            current: Graph::empty(n),
            round: 0,
            meter: TopologyMeter::default(),
            last_delta: RoundDelta::default(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.current.node_count()
    }

    /// The current round number (0 before the first [`advance`]).
    ///
    /// [`advance`]: DynamicGraph::advance
    pub fn round(&self) -> Round {
        self.round
    }

    /// The current snapshot `G_r`.
    pub fn current(&self) -> &Graph {
        &self.current
    }

    /// The running topology meter.
    pub fn meter(&self) -> TopologyMeter {
        self.meter
    }

    /// The paper's `TC(E)` so far: total edge insertions.
    pub fn topological_changes(&self) -> u64 {
        self.meter.insertions
    }

    /// The delta produced by the most recent [`advance`].
    ///
    /// [`advance`]: DynamicGraph::advance
    pub fn last_delta(&self) -> &RoundDelta {
        &self.last_delta
    }

    /// Installs the snapshot of round `r+1` and updates the meter.
    ///
    /// The delta comes from one pass over the two sorted edge slices, then
    /// `next` is moved in wholesale. The pass is a branch-free merge on
    /// packed `(lo, hi)` keys: after a full resample the two slices
    /// interleave at random, and a merge that branched on each comparison
    /// would mispredict about half of them.
    ///
    /// Returns the delta `(E_{r+1}^+, E_{r+1}^-)`.
    ///
    /// # Panics
    ///
    /// Panics if `next` has a different node count.
    pub fn advance(&mut self, next: Graph) -> &RoundDelta {
        assert_eq!(
            next.node_count(),
            self.current.node_count(),
            "the vertex set is fixed; node counts must match"
        );
        // Branch-free merge into the reused delta buffers. They start as
        // copies of the two slices, so they are pre-sized and, since no
        // write overtakes its read cursor, each unmerged tail is already in
        // place. Each step writes both candidates; the comparison alone
        // decides which cursors move.
        let mut delta = std::mem::take(&mut self.last_delta);
        let (old, new) = (self.current.edges().as_slice(), next.edges().as_slice());
        let (removed, inserted) = (&mut delta.removed, &mut delta.inserted);
        removed.clear();
        removed.extend_from_slice(old);
        inserted.clear();
        inserted.extend_from_slice(new);
        let (mut i, mut j, mut r, mut s) = (0, 0, 0, 0);
        while i < old.len() && j < new.len() {
            let (a, b) = (old[i], new[j]);
            removed[r] = a;
            inserted[s] = b;
            let (ka, kb) = (a.packed(), b.packed());
            r += usize::from(ka < kb);
            s += usize::from(ka > kb);
            i += usize::from(ka <= kb);
            j += usize::from(ka >= kb);
        }
        removed.copy_within(i.., r);
        removed.truncate(r + old.len() - i);
        inserted.copy_within(j.., s);
        inserted.truncate(s + new.len() - j);
        self.current = next;
        self.finish_round(delta)
    }

    /// Applies an adversary's [`GraphUpdate`] for the next round.
    ///
    /// * `Full` behaves exactly like [`DynamicGraph::advance`].
    /// * `Delta` mutates the live snapshot in place, one `remove_edge` per
    ///   removed edge and then one `insert_edge` per inserted edge — no
    ///   full-graph construction or diff at all.
    /// * `Unchanged` only bumps the round counter.
    ///
    /// # Panics
    ///
    /// Panics if a full snapshot has the wrong node count, if a delta is
    /// inconsistent with the current snapshot (inserts a present edge or
    /// removes an absent one), or if it inserts an endpoint `>= n`.
    pub fn apply(&mut self, update: GraphUpdate) -> &RoundDelta {
        match update {
            GraphUpdate::Full(next) => self.advance(next),
            GraphUpdate::Unchanged => {
                let mut delta = std::mem::take(&mut self.last_delta);
                delta.inserted.clear();
                delta.removed.clear();
                self.finish_round(delta)
            }
            GraphUpdate::Delta(delta) => {
                delta.apply_to(&mut self.current);
                self.finish_round(delta)
            }
        }
    }

    fn finish_round(&mut self, delta: RoundDelta) -> &RoundDelta {
        self.meter.insertions += delta.inserted.len() as u64;
        self.meter.deletions += delta.removed.len() as u64;
        self.last_delta = delta;
        self.round += 1;
        &self.last_delta
    }
}

/// Computes the total topological changes `TC(E) = Σ_r |E_r^+|` of a
/// complete schedule given as snapshots `G_1, …, G_x` (with implicit empty
/// `G_0`).
///
/// # Examples
///
/// ```
/// use dynspread_graph::{dynamic::topological_changes, Graph};
///
/// let schedule = [Graph::path(3), Graph::path(3), Graph::star(3)];
/// // Round 1 inserts 2 path edges; round 3 inserts {0,2}.
/// assert_eq!(topological_changes(3, &schedule), 3);
/// ```
pub fn topological_changes(n: usize, schedule: &[Graph]) -> u64 {
    let mut prev = EdgeSet::new();
    let mut tc = 0u64;
    for g in schedule {
        assert_eq!(g.node_count(), n, "schedule node count mismatch");
        tc += g.edges().difference(&prev).count() as u64;
        prev = g.edges().clone();
    }
    tc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    #[test]
    fn starts_empty_at_round_zero() {
        let dg = DynamicGraph::new(4);
        assert_eq!(dg.round(), 0);
        assert_eq!(dg.current().edge_count(), 0);
        assert_eq!(dg.topological_changes(), 0);
    }

    #[test]
    fn first_advance_charges_all_edges_as_insertions() {
        let mut dg = DynamicGraph::new(4);
        dg.advance(Graph::path(4));
        assert_eq!(dg.round(), 1);
        assert_eq!(dg.topological_changes(), 3);
        assert_eq!(dg.meter().deletions, 0);
        assert_eq!(dg.last_delta().inserted.len(), 3);
    }

    #[test]
    fn unchanged_round_charges_nothing() {
        let mut dg = DynamicGraph::new(4);
        dg.advance(Graph::path(4));
        dg.advance(Graph::path(4));
        assert_eq!(dg.topological_changes(), 3);
        assert!(dg.last_delta().inserted.is_empty());
        assert!(dg.last_delta().removed.is_empty());
    }

    #[test]
    fn rewiring_charges_only_new_edges() {
        let mut dg = DynamicGraph::new(3);
        dg.advance(Graph::path(3)); // edges {0,1},{1,2}
        dg.advance(Graph::star(3)); // edges {0,1},{0,2}
        assert_eq!(dg.topological_changes(), 3);
        assert_eq!(dg.meter().deletions, 1);
        assert_eq!(
            dg.last_delta().inserted,
            vec![Edge::new(NodeId::new(0), NodeId::new(2))]
        );
        assert_eq!(
            dg.last_delta().removed,
            vec![Edge::new(NodeId::new(1), NodeId::new(2))]
        );
    }

    #[test]
    fn deletions_never_exceed_insertions() {
        let mut dg = DynamicGraph::new(5);
        for g in [
            Graph::complete(5),
            Graph::path(5),
            Graph::star(5),
            Graph::path(5),
        ] {
            dg.advance(g);
            assert!(dg.meter().deletions <= dg.meter().insertions);
        }
    }

    #[test]
    #[should_panic(expected = "node counts must match")]
    fn node_count_change_panics() {
        let mut dg = DynamicGraph::new(3);
        dg.advance(Graph::path(4));
    }

    #[test]
    fn delta_and_unchanged_updates_match_full_advance() {
        let mut a = DynamicGraph::new(4);
        let mut b = DynamicGraph::new(4);
        // Round 1: same full snapshot.
        a.advance(Graph::path(4));
        b.apply(GraphUpdate::Full(Graph::path(4)));
        // Round 2: no change.
        a.advance(Graph::path(4));
        b.apply(GraphUpdate::Unchanged);
        // Round 3: rewire path → star via an explicit delta.
        let star = Graph::star(4);
        a.advance(star.clone());
        let inserted: Vec<Edge> = star.edges().difference(Graph::path(4).edges()).collect();
        let removed: Vec<Edge> = Graph::path(4).edges().difference(star.edges()).collect();
        b.apply(GraphUpdate::Delta(RoundDelta { inserted, removed }));
        assert_eq!(a.current(), b.current());
        assert_eq!(a.meter(), b.meter());
        assert_eq!(a.round(), b.round());
        assert_eq!(a.last_delta(), b.last_delta());
    }

    #[test]
    #[should_panic(expected = "inconsistent")]
    fn inconsistent_delta_panics() {
        let mut dg = DynamicGraph::new(3);
        dg.advance(Graph::path(3));
        // {0,1} is already present; inserting it again is a corrupted delta.
        dg.apply(GraphUpdate::Delta(RoundDelta {
            inserted: vec![Edge::new(NodeId::new(0), NodeId::new(1))],
            removed: vec![],
        }));
    }

    #[test]
    fn offline_tc_matches_online_meter() {
        let schedule = vec![
            Graph::path(4),
            Graph::star(4),
            Graph::star(4),
            Graph::complete(4),
        ];
        let mut dg = DynamicGraph::new(4);
        for g in &schedule {
            dg.advance(g.clone());
        }
        assert_eq!(dg.topological_changes(), topological_changes(4, &schedule));
    }

    #[test]
    fn budget_scales_with_alpha() {
        let meter = TopologyMeter {
            insertions: 10,
            deletions: 4,
        };
        assert_eq!(meter.budget(1.0), 10.0);
        assert_eq!(meter.budget(2.5), 25.0);
        assert_eq!(meter.budget(0.0), 0.0);
    }
}
