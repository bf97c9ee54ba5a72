//! The network adversary interface.
//!
//! The dynamic topology "is provided by a worst-case adversary"
//! (Section 1.3). This module defines the *oblivious* adversary interface:
//! an adversary that commits to `G_r` knowing only the round number and the
//! previous topology — never the algorithm's state or randomness.
//!
//! Strongly adaptive adversaries additionally observe algorithm state; their
//! interfaces live in `dynspread-sim` (they are parameterized by the
//! protocol's message type), with blanket implementations lifting every
//! [`Adversary`] into the adaptive interfaces. This keeps this crate
//! message-agnostic while letting the simulator drive both kinds uniformly.

use crate::dynamic::GraphUpdate;
use crate::graph::Graph;
use crate::node::Round;

/// An oblivious network adversary: commits the communication graph of each
/// round from the round number and previous snapshot only.
///
/// # Contract
///
/// * One move per round: `evolve(r, prev)` is called once per round with
///   `r = 1, 2, 3, …` in order and `prev = G_{r−1}`.
/// * The committed graph must have the same node count as `prev` and must
///   be **connected** (the model's only constraint). The round engines
///   assert connectivity.
/// * Implementations own their RNG so runs are reproducible from a seed.
pub trait Adversary {
    /// Commits `G_r` given the round number `r ≥ 1` and `G_{r−1}`, as a
    /// [`GraphUpdate`] against `prev`: wholesale rewiring returns `Full`,
    /// incremental adversaries `Delta`/`Unchanged`, so the engine skips
    /// snapshot construction and diffing.
    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate;

    /// `G_r` as a snapshot: [`Adversary::evolve`] applied to `prev`, which
    /// must be `G_{r−1}` (a `Delta` is applied to it, `Unchanged` returns
    /// it). It makes the round's move: call it instead of `evolve`.
    fn graph_for_round(&mut self, round: Round, prev: &Graph) -> Graph {
        match self.evolve(round, prev) {
            GraphUpdate::Full(g) => g,
            GraphUpdate::Unchanged => prev.clone(),
            GraphUpdate::Delta(d) => {
                let mut g = prev.clone();
                d.apply_to(&mut g);
                g
            }
        }
    }

    /// A short human-readable name for reports.
    fn name(&self) -> &str {
        "adversary"
    }
}

impl<A: Adversary + ?Sized> Adversary for Box<A> {
    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
        (**self).evolve(round, prev)
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// An adversary defined by a closure; convenient in tests.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{adversary::{Adversary, FnAdversary}, Graph};
///
/// let mut adv = FnAdversary::new("always-path", |_, prev: &Graph| {
///     Graph::path(prev.node_count())
/// });
/// let g1 = adv.graph_for_round(1, &Graph::empty(4));
/// assert_eq!(g1.edge_count(), 3);
/// ```
pub struct FnAdversary<F> {
    name: String,
    f: F,
}

impl<F: FnMut(Round, &Graph) -> Graph> FnAdversary<F> {
    /// Wraps a closure as an adversary.
    pub fn new(name: impl Into<String>, f: F) -> Self {
        FnAdversary {
            name: name.into(),
            f,
        }
    }
}

impl<F: FnMut(Round, &Graph) -> Graph> Adversary for FnAdversary<F> {
    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
        GraphUpdate::Full((self.f)(round, prev))
    }

    fn name(&self) -> &str {
        &self.name
    }
}

impl<F> std::fmt::Debug for FnAdversary<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnAdversary")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_adversary_delegates() {
        let mut adv = FnAdversary::new("star", |_, prev: &Graph| Graph::star(prev.node_count()));
        assert_eq!(adv.name(), "star");
        let g = adv.graph_for_round(1, &Graph::empty(5));
        assert_eq!(g.edge_count(), 4);
    }

    #[test]
    fn boxed_adversary_delegates() {
        let adv = FnAdversary::new("path", |_, prev: &Graph| Graph::path(prev.node_count()));
        let mut boxed: Box<dyn Adversary> = Box::new(adv);
        assert_eq!(boxed.name(), "path");
        let g = boxed.graph_for_round(1, &Graph::empty(3));
        assert!(g.is_connected());
    }

    #[test]
    fn closure_sees_round_numbers_in_order() {
        let mut seen = Vec::new();
        {
            let mut adv = FnAdversary::new("rec", |r, prev: &Graph| {
                seen_push(r);
                Graph::path(prev.node_count())
            });
            // Rust closures can't easily share `seen` mutably with the outer
            // scope and call the adversary; use a thread_local shim.
            thread_local! {
                static SEEN: std::cell::RefCell<Vec<u64>> = const { std::cell::RefCell::new(Vec::new()) };
            }
            fn seen_push(r: u64) {
                SEEN.with(|s| s.borrow_mut().push(r));
            }
            let mut g = Graph::empty(3);
            for r in 1..=3 {
                g = adv.graph_for_round(r, &g);
            }
            SEEN.with(|s| seen = s.borrow().clone());
        }
        assert_eq!(seen, vec![1, 2, 3]);
    }
}
