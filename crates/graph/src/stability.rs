//! σ-edge stability (Section 1.3).
//!
//! A dynamic graph is *σ-edge stable* if every edge, once inserted, remains
//! present for at least σ consecutive rounds. Every dynamic graph is 1-edge
//! stable; Algorithm 1's `O(nk)` running-time bound (Theorem 3.4) requires
//! 3-edge stability.
//!
//! This module provides an online [`StabilityChecker`] (verifies a schedule
//! as it unfolds) and [`StabilityEnforcer`] (clamps an adversary's proposed
//! deletions so the produced schedule is σ-stable by construction).

use crate::edge::Edge;
use crate::graph::Graph;
use crate::node::Round;
use std::collections::BTreeMap;

/// Online verifier of σ-edge stability.
///
/// Feed it the snapshot of every round in order; it reports the first
/// violation, i.e. an edge that was deleted before being present for σ
/// consecutive rounds.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{Graph, stability::StabilityChecker};
///
/// let mut checker = StabilityChecker::new(3);
/// checker.observe(&Graph::path(3)).unwrap();
/// checker.observe(&Graph::path(3)).unwrap();
/// checker.observe(&Graph::path(3)).unwrap();
/// // After 3 rounds of presence the path edges may be dropped.
/// checker.observe(&Graph::star(3)).unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct StabilityChecker {
    sigma: u64,
    round: Round,
    /// For each currently present edge: the round it was (last) inserted.
    inserted_at: BTreeMap<Edge, Round>,
}

/// A violation of σ-edge stability.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StabilityViolation {
    /// The offending edge.
    pub edge: Edge,
    /// Round the edge was inserted.
    pub inserted_at: Round,
    /// Round at whose beginning the edge was removed.
    pub removed_at: Round,
    /// Length of the presence run (`removed_at - inserted_at`).
    pub run_length: u64,
    /// Required minimum run length (σ).
    pub sigma: u64,
}

impl std::fmt::Display for StabilityViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "edge {} inserted in round {} was removed in round {}: present {} < σ = {} rounds",
            self.edge, self.inserted_at, self.removed_at, self.run_length, self.sigma
        )
    }
}

impl std::error::Error for StabilityViolation {}

impl StabilityChecker {
    /// Creates a checker for σ-edge stability.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0` (σ ≥ 1 by definition).
    pub fn new(sigma: u64) -> Self {
        assert!(sigma >= 1, "σ must be at least 1");
        StabilityChecker {
            sigma,
            round: 0,
            inserted_at: BTreeMap::new(),
        }
    }

    /// The σ parameter.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Observes the snapshot of the next round.
    ///
    /// # Errors
    ///
    /// Returns the first [`StabilityViolation`] if an edge was removed
    /// before completing σ consecutive rounds of presence.
    pub fn observe(&mut self, g: &Graph) -> Result<(), StabilityViolation> {
        self.round += 1;
        let r = self.round;
        // Check removals: edges tracked but no longer present (both sides
        // are in edge order, so this is one merge walk).
        let mut present = g.edges().ascending_probe();
        let removed: Vec<(Edge, Round)> = self
            .inserted_at
            .iter()
            .filter(|(e, _)| !present(**e))
            .map(|(e, ins)| (*e, *ins))
            .collect();
        for (e, ins) in removed {
            self.inserted_at.remove(&e);
            let run = r - ins; // present during rounds ins .. r-1 inclusive
            if run < self.sigma {
                return Err(StabilityViolation {
                    edge: e,
                    inserted_at: ins,
                    removed_at: r,
                    run_length: run,
                    sigma: self.sigma,
                });
            }
        }
        // Record insertions.
        for e in g.edges().iter() {
            self.inserted_at.entry(e).or_insert(r);
        }
        Ok(())
    }
}

/// Verifies that a complete schedule `G_1, …, G_x` is σ-edge stable.
///
/// # Errors
///
/// Returns the first violation found.
pub fn check_schedule(sigma: u64, schedule: &[Graph]) -> Result<(), StabilityViolation> {
    let mut checker = StabilityChecker::new(sigma);
    for g in schedule {
        checker.observe(g)?;
    }
    Ok(())
}

/// Makes adversary proposals σ-stable by construction.
///
/// The enforcer tracks edge ages. Given a *proposed* next snapshot, it adds
/// back every edge that is too young to be deleted. Adversaries route their
/// proposals through [`StabilityEnforcer::clamp`] before publishing.
#[derive(Clone, Debug)]
pub struct StabilityEnforcer {
    sigma: u64,
    round: Round,
    inserted_at: BTreeMap<Edge, Round>,
}

impl StabilityEnforcer {
    /// Creates an enforcer for σ-edge stability.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0`.
    pub fn new(sigma: u64) -> Self {
        assert!(sigma >= 1, "σ must be at least 1");
        StabilityEnforcer {
            sigma,
            round: 0,
            inserted_at: BTreeMap::new(),
        }
    }

    /// The σ parameter.
    pub fn sigma(&self) -> u64 {
        self.sigma
    }

    /// Returns the edges that may *not* be deleted in the upcoming round
    /// (present, but for fewer than σ rounds so far).
    pub fn pinned_edges(&self) -> Vec<Edge> {
        let next_round = self.round + 1;
        self.inserted_at
            .iter()
            .filter(|(_, &ins)| next_round - ins < self.sigma)
            .map(|(e, _)| *e)
            .collect()
    }

    /// Clamps a proposed snapshot for the next round: re-inserts every
    /// pinned edge, then records the result as the next round's graph.
    ///
    /// Returns the clamped graph.
    pub fn clamp(&mut self, mut proposal: Graph) -> Graph {
        for e in self.pinned_edges() {
            proposal.insert_edge(e);
        }
        self.round += 1;
        let r = self.round;
        {
            // `retain` visits keys in ascending order: one merge walk.
            let mut present = proposal.edges().ascending_probe();
            self.inserted_at.retain(|e, _| present(*e));
        }
        for e in proposal.edges().iter() {
            self.inserted_at.entry(e).or_insert(r);
        }
        proposal
    }

    /// Records an already-σ-legal delta as the next round's change — the
    /// incremental counterpart of [`StabilityEnforcer::clamp`], costing
    /// O(|delta| log m) instead of a full edge-set sweep.
    ///
    /// # Panics
    ///
    /// Panics if a removed edge is still pinned (callers must filter their
    /// deletions through [`StabilityEnforcer::pinned_edges`] first).
    pub fn commit_delta(&mut self, inserted: &[Edge], removed: &[Edge]) {
        self.round += 1;
        let r = self.round;
        for e in removed {
            let ins = self
                .inserted_at
                .remove(e)
                .expect("removed edge was never recorded");
            assert!(
                r - ins >= self.sigma,
                "delta deletes pinned edge {e} (present {} < σ = {} rounds)",
                r - ins,
                self.sigma
            );
        }
        for e in inserted {
            self.inserted_at.entry(*e).or_insert(r);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;

    fn e(u: u32, v: u32) -> Edge {
        Edge::new(NodeId::new(u), NodeId::new(v))
    }

    #[test]
    fn every_schedule_is_one_stable() {
        let schedule = vec![Graph::path(4), Graph::star(4), Graph::cycle(4)];
        assert!(check_schedule(1, &schedule).is_ok());
    }

    #[test]
    fn detects_immediate_deletion_under_sigma_two() {
        let schedule = vec![Graph::path(3), Graph::star(3)];
        let err = check_schedule(2, &schedule).unwrap_err();
        assert_eq!(err.edge, e(1, 2));
        assert_eq!(err.inserted_at, 1);
        assert_eq!(err.removed_at, 2);
        assert_eq!(err.run_length, 1);
    }

    #[test]
    fn accepts_deletion_after_sigma_rounds() {
        let schedule = vec![
            Graph::path(3),
            Graph::path(3),
            Graph::path(3),
            Graph::star(3),
        ];
        assert!(check_schedule(3, &schedule).is_ok());
    }

    #[test]
    fn rejects_deletion_one_round_early() {
        let schedule = vec![Graph::path(3), Graph::path(3), Graph::star(3)];
        let err = check_schedule(3, &schedule).unwrap_err();
        assert_eq!(err.run_length, 2);
        assert_eq!(err.sigma, 3);
        // Error message is human-readable.
        assert!(err.to_string().contains("σ = 3"));
    }

    #[test]
    fn reinsertion_restarts_the_clock() {
        // Edge {1,2}: present rounds 1-3, absent 4, present 5, absent 6.
        // The second run has length 1 < 3 → violation at round 6.
        let path = Graph::path(3);
        let star = Graph::star(3);
        let schedule = vec![
            path.clone(),
            path.clone(),
            path.clone(),
            star.clone(),
            path.clone(),
            star.clone(),
        ];
        // Note {0,2} (star-only edge) also cycles; it is inserted at round 4,
        // removed at round 5 → that violation fires first.
        let err = check_schedule(3, &schedule).unwrap_err();
        assert_eq!(err.removed_at, 5);
        assert_eq!(err.edge, e(0, 2));
    }

    #[test]
    fn enforcer_pins_young_edges() {
        let mut enf = StabilityEnforcer::new(3);
        let g1 = enf.clamp(Graph::path(3));
        assert_eq!(g1, Graph::path(3));
        // Proposal drops {1,2} immediately; enforcer must re-add it.
        let g2 = enf.clamp(Graph::from_edges(3, [e(0, 1), e(0, 2)]));
        assert!(g2.edges().contains(e(1, 2)));
        assert!(g2.edges().contains(e(0, 2)));
    }

    #[test]
    fn enforcer_allows_deletion_after_sigma() {
        let mut enf = StabilityEnforcer::new(2);
        enf.clamp(Graph::path(3));
        enf.clamp(Graph::path(3));
        // Path edges have now been present 2 rounds; deletion is allowed.
        let g3 = enf.clamp(Graph::from_edges(3, [e(0, 1), e(0, 2)]));
        assert!(!g3.edges().contains(e(1, 2)));
    }

    #[test]
    fn enforcer_output_is_always_sigma_stable() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let sigma = 3;
        let mut enf = StabilityEnforcer::new(sigma);
        let mut checker = StabilityChecker::new(sigma);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            // Random proposal: each of the 6 possible edges on 4 nodes w.p. 1/2.
            let mut g = Graph::empty(4);
            for u in 0..4u32 {
                for v in (u + 1)..4 {
                    if rng.gen_bool(0.5) {
                        g.insert_edge(e(u, v));
                    }
                }
            }
            let clamped = enf.clamp(g);
            checker
                .observe(&clamped)
                .expect("enforcer must be σ-stable");
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sigma_checker_panics() {
        let _ = StabilityChecker::new(0);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sigma_enforcer_panics() {
        let _ = StabilityEnforcer::new(0);
    }
}
