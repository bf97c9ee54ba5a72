//! Lazy random walks on dynamic graphs (Lemma 3.7 substrate).
//!
//! Algorithm 2's analysis rests on a visit-count bound for random walks on
//! `d`-regular dynamic graphs controlled by an oblivious adversary
//! (Lemma 3.7, from Das Sarma–Molla–Pandurangan): the number of visits of a
//! `t`-step walk to any fixed vertex is `O(d √t log n)` w.h.p., hence a
//! walk of length `L` visits `Ω(√L/(d log n))` **distinct** nodes.
//!
//! This module simulates the same lazy walk the algorithm uses — on the
//! virtual `n`-regular multigraph, a node of degree `d` forwards the walker
//! with probability `d/n` — and reports visit statistics so the experiment
//! harness can check the bound's shape empirically.

use dynspread_graph::adversary::Adversary;
use dynspread_graph::{DynamicGraph, NodeId, Round};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Statistics of one simulated walk.
#[derive(Clone, Debug)]
pub struct WalkStats {
    /// Rounds simulated (virtual steps, including lazy self-loops).
    pub rounds: u64,
    /// Actual edge traversals (the message-costing steps).
    pub actual_steps: u64,
    /// Number of distinct nodes visited (including the start).
    pub distinct_visits: usize,
    /// Visit count per node (for the `N_t^x(y)` bound).
    pub visit_counts: Vec<u64>,
    /// Final position of the walker.
    pub end: NodeId,
}

impl WalkStats {
    /// The maximum number of visits to any single node.
    pub fn max_visits(&self) -> u64 {
        self.visit_counts.iter().copied().max().unwrap_or(0)
    }
}

/// Simulates a lazy random walk for `rounds` rounds on the dynamic graph
/// produced by `adversary`, starting at `start`.
///
/// Each round the adversary commits the next (connected) graph; the walker
/// at a node of degree `d` moves to a uniformly random neighbor with
/// probability `d/n` and stays put otherwise — exactly the walk on the
/// virtual `n`-regular multigraph of Section 3.2.2.
///
/// # Examples
///
/// ```
/// use dynspread_core::random_walk::lazy_walk;
/// use dynspread_graph::{oblivious::StaticAdversary, Graph, NodeId};
///
/// let mut adversary = StaticAdversary::new(Graph::cycle(8));
/// let stats = lazy_walk(&mut adversary, 8, NodeId::new(0), 500, 42);
/// assert_eq!(stats.visit_counts.iter().sum::<u64>(), stats.actual_steps + 1);
/// assert!(stats.distinct_visits >= 1);
/// ```
pub fn lazy_walk<A: Adversary>(
    adversary: &mut A,
    n: usize,
    start: NodeId,
    rounds: u64,
    seed: u64,
) -> WalkStats {
    assert!(start.index() < n, "start out of range");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dg = DynamicGraph::new(n);
    let mut pos = start;
    let mut visit_counts = vec![0u64; n];
    visit_counts[pos.index()] += 1;
    let mut actual_steps = 0u64;
    for r in 1..=rounds {
        let update = adversary.evolve(r as Round, dg.current());
        dg.apply(update);
        let g = dg.current();
        debug_assert!(g.is_connected(), "adversary must keep the graph connected");
        let d = g.degree(pos);
        if d > 0 && rng.gen_bool((d as f64 / n as f64).min(1.0)) {
            let next = *g
                .neighbors(pos)
                .choose(&mut rng)
                .expect("degree checked positive");
            pos = next;
            actual_steps += 1;
            visit_counts[pos.index()] += 1;
        }
    }
    WalkStats {
        rounds,
        actual_steps,
        distinct_visits: visit_counts.iter().filter(|&&c| c > 0).count(),
        visit_counts,
        end: pos,
    }
}

/// The Lemma 3.7 distinct-visit lower-bound shape `√L / (d log n)` for a
/// walk of `actual` steps on (near-)`d`-regular graphs.
pub fn distinct_visit_bound(actual_steps: u64, d: usize, n: usize) -> f64 {
    let ln = (n as f64).ln().max(1.0);
    (actual_steps as f64).sqrt() / (d as f64 * ln)
}

/// The Lemma 3.7 visit-count upper-bound shape `d √(t+1) log n`.
pub fn visit_count_bound(rounds: u64, d: usize, n: usize) -> f64 {
    let ln = (n as f64).ln().max(1.0);
    d as f64 * ((rounds + 1) as f64).sqrt() * ln
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
    use dynspread_graph::Graph;

    #[test]
    fn walk_on_static_cycle_moves() {
        let n = 16;
        let mut adv = StaticAdversary::new(Graph::cycle(n));
        let stats = lazy_walk(&mut adv, n, NodeId::new(0), 4000, 1);
        assert!(stats.actual_steps > 0);
        assert!(stats.distinct_visits > 1);
        // Lazy factor: degree 2 of n=16 → move probability 1/8; expect
        // ~500 actual steps out of 4000 rounds.
        assert!(
            (200..1000).contains(&(stats.actual_steps as usize)),
            "unexpected actual step count {}",
            stats.actual_steps
        );
    }

    #[test]
    fn visit_counts_sum_to_steps_plus_one() {
        let n = 12;
        let mut adv = StaticAdversary::new(Graph::cycle(n));
        let stats = lazy_walk(&mut adv, n, NodeId::new(3), 500, 7);
        let total: u64 = stats.visit_counts.iter().sum();
        assert_eq!(total, stats.actual_steps + 1);
        assert!(stats.visit_counts[stats.end.index()] > 0);
    }

    #[test]
    fn distinct_visits_exceed_lemma_bound_on_regular_dynamics() {
        // The Lemma 3.7 bound is asymptotic; at this scale the walk should
        // clear it comfortably on near-regular dynamic graphs.
        let n = 32;
        let d = 4;
        let mut adv = PeriodicRewiring::new(Topology::NearRegular(d), 5, 3);
        let stats = lazy_walk(&mut adv, n, NodeId::new(0), 20_000, 9);
        let bound = distinct_visit_bound(stats.actual_steps, d, n);
        assert!(
            stats.distinct_visits as f64 >= bound,
            "distinct visits {} below bound {bound}",
            stats.distinct_visits
        );
    }

    #[test]
    fn max_visits_within_lemma_shape() {
        let n = 32;
        let d = 4;
        let mut adv = PeriodicRewiring::new(Topology::NearRegular(d), 5, 11);
        let stats = lazy_walk(&mut adv, n, NodeId::new(0), 20_000, 13);
        // Lemma 3.7 with the 2^{c+3} constant: allow a factor 8.
        let bound = 8.0 * visit_count_bound(stats.rounds, d, n);
        assert!(
            (stats.max_visits() as f64) <= bound,
            "max visits {} above 8·d√t·log n = {bound}",
            stats.max_visits()
        );
    }

    #[test]
    fn walk_is_deterministic_per_seed() {
        let n = 10;
        let run = |seed| {
            let mut adv = StaticAdversary::new(Graph::cycle(n));
            lazy_walk(&mut adv, n, NodeId::new(0), 300, seed).visit_counts
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn start_out_of_range_panics() {
        let mut adv = StaticAdversary::new(Graph::cycle(4));
        let _ = lazy_walk(&mut adv, 4, NodeId::new(9), 10, 0);
    }
}
