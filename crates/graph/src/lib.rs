//! # dynspread-graph — dynamic-network substrate
//!
//! The dynamic-graph model of *The Communication Cost of Information
//! Spreading in Dynamic Networks* (Ahmadi, Kuhn, Kutten, Molla, Pandurangan;
//! ICDCS 2019), Section 1.3:
//!
//! * a fixed vertex set `V` with `n = |V|` nodes ([`NodeId`]),
//! * a synchronous round structure where round `r` has communication graph
//!   `G_r = (V, E_r)` ([`Graph`], [`DynamicGraph`]), with `G_0 = (V, ∅)`,
//! * every `G_r` (`r ≥ 1`) connected,
//! * σ-edge stability ([`stability`]),
//! * topological-change accounting `TC(E) = Σ_r |E_r^+|`
//!   ([`dynamic::TopologyMeter`]), the basis of the paper's
//!   *adversary-competitive message complexity* (Definition 1.3),
//! * network adversaries ([`adversary::Adversary`]) with a library of
//!   oblivious implementations ([`oblivious`]) and generators
//!   ([`generators`]).
//!
//! Strongly adaptive adversaries — which observe algorithm state before
//! committing a topology — are defined in `dynspread-sim` (they need the
//! protocol's message type) and in `dynspread-core` (the Section 2
//! lower-bound adversary, which needs token semantics).
//!
//! # Examples
//!
//! ```
//! use dynspread_graph::{adversary::Adversary, generators::Topology,
//!                       oblivious::PeriodicRewiring, DynamicGraph};
//!
//! let mut adv = PeriodicRewiring::new(Topology::RandomTree, 3, 42);
//! let mut dg = DynamicGraph::new(16);
//! for r in 1..=9 {
//!     dg.apply(adv.evolve(r, dg.current()));
//!     assert!(dg.current().is_connected());
//! }
//! // The adversary pays one unit per inserted edge:
//! assert!(dg.topological_changes() >= 15);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod connectivity;
pub mod dynamic;
pub mod edge;
pub mod generators;
pub mod graph;
pub mod node;
pub mod oblivious;
pub mod stability;
pub mod union_find;

pub use dynamic::{DynamicGraph, TopologyMeter};
pub use edge::{Edge, EdgeSet};
pub use graph::Graph;
pub use node::{NodeId, Round};
pub use union_find::UnionFind;
