//! σ-edge stability (Section 1.3).
//!
//! A dynamic graph is *σ-edge stable* if every edge, once inserted, remains
//! present for at least σ consecutive rounds. Every dynamic graph is 1-edge
//! stable; Algorithm 1's `O(nk)` running-time bound (Theorem 3.4) requires
//! 3-edge stability.
//!
//! [`StabilityEnforcer`] is the one record of edge ages. Its owner commits
//! each round's change to it, and what counts as a change is what the
//! owner's delta says: an edge on both sides is removed and born again.
//! [`check_schedule`] and the round engine's stability check commit the
//! delta [`DynamicGraph`] read off the schedule; a σ-aware adversary
//! commits its own, after leaving [`StabilityEnforcer::pinned_edges`] alone.

use crate::dynamic::DynamicGraph;
use crate::edge::Edge;
use crate::graph::Graph;
use crate::node::Round;
use std::collections::BTreeMap;

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

/// Verifies that a complete schedule `G_1, …, G_x` is σ-edge stable.
///
/// # Errors
///
/// Returns the first violation found: the earliest round with one, and
/// within it the smallest removed edge.
///
/// # Panics
///
/// Panics if `sigma == 0` or the snapshots' node counts differ.
pub fn check_schedule(sigma: u64, schedule: &[Graph]) -> Result<(), StabilityViolation> {
    let mut ledger = StabilityEnforcer::new(sigma);
    let mut dg = DynamicGraph::new(schedule.first().map_or(0, Graph::node_count));
    for g in schedule {
        let delta = dg.advance(g.clone());
        ledger.commit_delta(&delta.inserted, &delta.removed)?;
    }
    Ok(())
}

/// The age of every present edge, kept for σ-edge stability.
///
/// Each round its owner records the round's change with
/// [`StabilityEnforcer::commit_delta`], which reports a removal younger
/// than σ; an adversary that must stay σ-stable removes nothing in
/// [`StabilityEnforcer::pinned_edges`].
#[derive(Clone, Debug)]
pub struct StabilityEnforcer {
    sigma: u64,
    round: Round,
    /// For each present edge: the round it was (last) inserted.
    inserted_at: BTreeMap<Edge, Round>,
}

impl StabilityEnforcer {
    /// Creates an empty ledger for σ-edge stability, before round 1.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0` (σ ≥ 1 by definition).
    pub fn new(sigma: u64) -> Self {
        assert!(sigma >= 1, "σ must be at least 1");
        StabilityEnforcer {
            sigma,
            round: 0,
            inserted_at: BTreeMap::new(),
        }
    }

    /// Returns the edges that may *not* be deleted in the upcoming round
    /// (present, but for fewer than σ rounds so far), in edge order.
    pub fn pinned_edges(&self) -> Vec<Edge> {
        let next_round = self.round + 1;
        self.inserted_at
            .iter()
            .filter(|(_, &ins)| next_round - ins < self.sigma)
            .map(|(e, _)| *e)
            .collect()
    }

    /// Records the next round's change in O(|delta| log m): the `removed`
    /// edges leave first, then the `inserted` edges are born, so an edge
    /// on both sides is born again.
    ///
    /// # Errors
    ///
    /// Returns the first edge of `removed` that was present for fewer than
    /// σ rounds. The ledger is then left mid-round.
    ///
    /// # Panics
    ///
    /// Panics if a removed edge is not present.
    pub fn commit_delta(
        &mut self,
        inserted: &[Edge],
        removed: &[Edge],
    ) -> Result<(), StabilityViolation> {
        self.round += 1;
        let r = self.round;
        for &edge in removed {
            let ins = self
                .inserted_at
                .remove(&edge)
                .expect("removed edge was never recorded");
            let run_length = r - ins; // present during rounds ins .. r-1 inclusive
            if run_length < self.sigma {
                return Err(StabilityViolation {
                    edge,
                    inserted_at: ins,
                    removed_at: r,
                    run_length,
                    sigma: self.sigma,
                });
            }
        }
        for &e in inserted {
            self.inserted_at.insert(e, r);
        }
        Ok(())
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
    fn ledger_pins_young_edges_and_rebirth_restarts_the_clock() {
        let mut ledger = StabilityEnforcer::new(3);
        let path = [e(0, 1), e(1, 2)];
        // Born in round 1: pinned until σ rounds have passed, then free.
        ledger.commit_delta(&path, &[]).unwrap();
        for _ in 0..2 {
            assert_eq!(ledger.pinned_edges(), path);
            ledger.commit_delta(&[], &[]).unwrap();
        }
        assert!(ledger.pinned_edges().is_empty());
        // Round 4 commits {1,2} on both sides: it is born again and pinned
        // for σ more rounds.
        ledger.commit_delta(&[e(1, 2)], &[e(1, 2)]).unwrap();
        let reborn = ledger.clone();
        for _ in 0..2 {
            assert_eq!(ledger.pinned_edges(), [e(1, 2)]);
            ledger.commit_delta(&[], &[]).unwrap();
        }
        assert!(ledger.pinned_edges().is_empty());
        ledger.commit_delta(&[], &[e(1, 2)]).unwrap();
        // Removing it early is an error dated from the rebirth.
        let mut early = reborn;
        let err = early.commit_delta(&[], &[e(0, 1), e(1, 2)]).unwrap_err();
        assert_eq!(
            (err.edge, err.inserted_at, err.removed_at, err.run_length),
            (e(1, 2), 4, 5, 1)
        );
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_sigma_enforcer_panics() {
        let _ = StabilityEnforcer::new(0);
    }
}
