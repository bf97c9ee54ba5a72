//! The Oblivious-Multi-Source-Unicast algorithm (Algorithm 2,
//! Section 3.2.2).
//!
//! For instances with many sources (`s > n^{2/3} log^{5/3} n`) and few
//! tokens (`k = o(n²)`), the Multi-Source algorithm's `O(n²s)` announcement
//! cost dominates. Against an **oblivious** adversary, Algorithm 2 first
//! *reduces the number of sources*:
//!
//! * **Phase 1** — each node marks itself a *center* with probability
//!   `f/n`, where `f = n^{1/2} k^{1/4} log^{5/4} n`. Every token performs a
//!   lazy random walk on the virtual `n`-regular multigraph (a node of
//!   degree `d` forwards a token with probability `d/n`, staying put
//!   otherwise; at most one walk step per edge per round — congested tokens
//!   are *passive*). Nodes whose degree is at least `γ = (n log n)/f` are
//!   *high-degree*: w.h.p. they have a neighboring center, and they hand
//!   one owned token per neighboring center per round. A token that
//!   reaches a center stays there.
//! * **Phase 2** — run Multi-Source-Unicast with the centers as sources.
//!
//! Theorem 3.8: total message complexity `O(n^{5/2} k^{1/4} log^{5/4} n)`,
//! i.e. amortized `O(n^{5/2} log^{5/4} n / k^{3/4})` — Table 1.
//!
//! ## Reproduction notes
//!
//! * Centers announce themselves once per inserted adjacent edge (class
//!   [`MessageClass::CenterAnnounce`]); this cost is bounded by `TC(E)` and
//!   reported separately. The paper assumes neighboring centers are
//!   recognizable but does not charge for it.
//! * The paper runs phase 1 for a fixed `ℓ = k^{1/4} n^{5/2} log^{9/4} n`
//!   rounds, chosen so every walk hits a center w.h.p. We stop phase 1 as
//!   soon as every token is owned by a center (global observation), with
//!   `ℓ` as a configurable hard cap; any token still in transit at the cap
//!   makes its current owner a phase-2 source (a conservative fallback).
//! * At laptop scale the paper's asymptotic constants make `f/n ≥ 1`;
//!   [`ObliviousConfig::center_probability`] optionally overrides the
//!   center-election probability so experiments can sweep it.

use crate::multi_source::{MultiSourceNode, SourceMap};
use crate::walk::{elect_centers, WalkCore};
use dynspread_graph::adversary::Adversary;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::message::{MessageClass, MessagePayload};
use dynspread_sim::protocol::{Outbox, UnicastProtocol};
use dynspread_sim::sim::{SimConfig, UnicastSim};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_sim::RunReport;
use std::sync::Arc;

/// The paper's source-count threshold `n^{2/3} log^{5/3} n` below which
/// plain Multi-Source-Unicast is used (natural logarithm).
pub fn source_threshold(n: usize) -> f64 {
    let n = n as f64;
    n.powf(2.0 / 3.0) * n.ln().max(1.0).powf(5.0 / 3.0)
}

/// The paper's center count `f = n^{1/2} k^{1/4} log^{5/4} n`.
pub fn center_count(n: usize, k: usize) -> f64 {
    let nf = n as f64;
    nf.sqrt() * (k as f64).powf(0.25) * nf.ln().max(1.0).powf(1.25)
}

/// The paper's degree threshold `γ = (n log n)/f` separating low- from
/// high-degree nodes in phase 1.
pub fn degree_threshold(n: usize, f: f64) -> f64 {
    let nf = n as f64;
    nf * nf.ln().max(1.0) / f.max(1.0)
}

/// The three formulas above with their log factors dropped, for runs at
/// laptop scale, where the paper's `f` exceeds `n` and every node would be
/// a center: `(threshold, p, γ)` with threshold `n^{2/3}`, `f = √n·k^{1/4}`
/// capped at `n/2`, center probability `p = f/n` and `γ = n/f`.
pub fn laptop_scale(n: usize, k: usize) -> (f64, f64, f64) {
    let nf = n as f64;
    let f = (nf.sqrt() * (k as f64).powf(0.25)).min(nf / 2.0);
    (nf.powf(2.0 / 3.0), f / nf, nf / f)
}

/// Messages of phase 1 (the random-walk phase).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WalkMsg {
    /// "I am a center" — sent once per inserted adjacent edge.
    CenterAnnounce,
    /// One random-walk step of a token (ownership moves with it).
    Walk(TokenId),
}

impl MessagePayload for WalkMsg {
    fn token_count(&self) -> usize {
        match self {
            WalkMsg::Walk(_) => 1,
            WalkMsg::CenterAnnounce => 0,
        }
    }

    fn class(&self) -> MessageClass {
        match self {
            WalkMsg::Walk(_) => MessageClass::Walk,
            WalkMsg::CenterAnnounce => MessageClass::CenterAnnounce,
        }
    }
}

/// Per-node protocol of phase 1.
///
/// Non-center nodes forward their owned tokens as lazy random-walk steps;
/// centers collect every token they receive and never forward. The
/// decisions live in the transport-agnostic [`WalkCore`] (shared with the
/// asynchronous `AsyncOblivious` port in `dynspread-runtime`); this type
/// adds the round-model carriage: steps are sent and delivered within the
/// round, so every planned transfer detaches ownership immediately.
#[derive(Clone, Debug)]
pub struct WalkNode {
    core: WalkCore,
    prev_neighbors: Vec<NodeId>,
}

impl WalkNode {
    /// Creates node `v`. `gamma` is the high-degree threshold; `seed` is
    /// the shared seed the node's private walk randomness is split from.
    pub fn new(
        v: NodeId,
        assignment: &TokenAssignment,
        is_center: bool,
        gamma: f64,
        seed: u64,
    ) -> Self {
        WalkNode {
            core: WalkCore::new(
                v,
                assignment.initial_knowledge(v),
                is_center,
                assignment.node_count(),
                gamma,
                seed,
            ),
            prev_neighbors: Vec::new(),
        }
    }

    /// Whether this node is a center.
    pub fn is_center(&self) -> bool {
        self.core.is_center()
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.core.id()
    }

    /// Number of tokens owned and still *in transit* (0 for centers, whose
    /// holdings are final).
    pub fn tokens_in_transit(&self) -> usize {
        self.core.tokens_in_transit()
    }

    /// The tokens this node currently owns.
    pub fn owned_tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        self.core.responsible_tokens()
    }
}

impl UnicastProtocol for WalkNode {
    type Msg = WalkMsg;

    fn send(&mut self, _round: Round, neighbors: &[NodeId], out: &mut Outbox<WalkMsg>) {
        // Center self-announcement, once per inserted adjacent edge.
        if self.core.is_center() {
            for &u in neighbors {
                if self.prev_neighbors.binary_search(&u).is_err() {
                    out.send(u, WalkMsg::CenterAnnounce);
                }
            }
        }
        self.prev_neighbors = neighbors.to_vec();
        // Round model: delivery is certain, so every planned step is sent
        // and ownership detaches with it.
        self.core.plan(neighbors, true, |u, t| {
            out.send(u, WalkMsg::Walk(t));
            true
        });
    }

    fn receive(&mut self, _round: Round, from: NodeId, msg: &WalkMsg) {
        match msg {
            WalkMsg::CenterAnnounce => {
                self.core.note_center(from);
            }
            WalkMsg::Walk(t) => {
                self.core.accept(*t);
            }
        }
    }

    fn known_tokens(&self) -> &TokenSet {
        self.core.known_tokens()
    }
}

/// Configuration of the two-phase oblivious algorithm.
#[derive(Clone, Debug)]
pub struct ObliviousConfig {
    /// Seed for center election and walk randomness.
    pub seed: u64,
    /// Hard cap on phase-1 rounds (the paper's `ℓ`); phase 1 also stops as
    /// soon as every token is center-owned.
    pub phase1_max_rounds: Round,
    /// Hard cap on phase-2 rounds.
    pub phase2_max_rounds: Round,
    /// Override for the center-election probability (default `f/n` with
    /// the paper's `f`, clamped to `[0, 1]`).
    pub center_probability: Option<f64>,
    /// Override for the high-degree threshold γ (default `(n log n)/f`).
    pub degree_threshold: Option<f64>,
    /// Override for the source-count threshold deciding whether phase 1
    /// runs at all (default `n^{2/3} log^{5/3} n`).
    pub source_threshold: Option<f64>,
}

impl Default for ObliviousConfig {
    fn default() -> Self {
        ObliviousConfig {
            seed: 0,
            phase1_max_rounds: 200_000,
            phase2_max_rounds: 1_000_000,
            center_probability: None,
            degree_threshold: None,
            source_threshold: None,
        }
    }
}

/// Result of a full two-phase run.
#[derive(Clone, Debug)]
pub struct ObliviousOutcome {
    /// Phase-1 report (absent when the source count was below threshold
    /// and the algorithm went straight to Multi-Source).
    pub phase1: Option<RunReport>,
    /// Phase-2 (Multi-Source) report.
    pub phase2: RunReport,
    /// The elected centers (or the original sources if phase 1 was
    /// skipped).
    pub centers: Vec<NodeId>,
    /// Tokens still in transit when phase 1 hit its round cap (their
    /// owners became fallback phase-2 sources).
    pub stranded_tokens: usize,
}

impl ObliviousOutcome {
    /// Total messages across both phases.
    pub fn total_messages(&self) -> u64 {
        self.phase2.total_messages + self.phase1.as_ref().map_or(0, |r| r.total_messages)
    }

    /// Total rounds across both phases.
    pub fn total_rounds(&self) -> Round {
        self.phase2.rounds + self.phase1.as_ref().map_or(0, |r| r.rounds)
    }

    /// Total `TC(E)` across both phases.
    pub fn total_tc(&self) -> u64 {
        self.phase2.tc() + self.phase1.as_ref().map_or(0, |r| r.tc())
    }

    /// Amortized messages per token.
    pub fn amortized(&self) -> f64 {
        self.total_messages() as f64 / self.phase2.k.max(1) as f64
    }

    /// Whether dissemination completed.
    pub fn completed(&self) -> bool {
        self.phase2.completed
    }
}

/// Runs the full Oblivious-Multi-Source-Unicast algorithm.
///
/// `adversary1` drives phase 1 and `adversary2` phase 2; both must be
/// oblivious (they implement the state-blind [`Adversary`] trait, which is
/// exactly the obliviousness guarantee).
///
/// # Examples
///
/// ```
/// use dynspread_core::oblivious::{run_oblivious_multi_source, ObliviousConfig};
/// use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring};
/// use dynspread_sim::TokenAssignment;
///
/// // n-gossip with every node a source; force the two-phase path at this
/// // small scale and elect ~25% of nodes as centers.
/// let assignment = TokenAssignment::n_gossip(12);
/// let cfg = ObliviousConfig {
///     seed: 7,
///     source_threshold: Some(1.0),
///     center_probability: Some(0.25),
///     ..ObliviousConfig::default()
/// };
/// let out = run_oblivious_multi_source(
///     &assignment,
///     PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1),
///     PeriodicRewiring::new(Topology::RandomTree, 3, 2),
///     &cfg,
/// );
/// assert!(out.completed());
/// assert!(!out.centers.is_empty());
/// ```
///
/// # Panics
///
/// Panics if the assignment gives any token more than one initial holder.
pub fn run_oblivious_multi_source<A1, A2>(
    assignment: &TokenAssignment,
    adversary1: A1,
    adversary2: A2,
    cfg: &ObliviousConfig,
) -> ObliviousOutcome
where
    A1: Adversary,
    A2: Adversary,
{
    let n = assignment.node_count();
    let k = assignment.token_count();
    let s = assignment.sources().len();
    let threshold = cfg.source_threshold.unwrap_or_else(|| source_threshold(n));

    // Phase 2 starts from a placement of knowledge and an owner per token:
    // with few sources (the paper's lines 1-2) the initial holders, else
    // the result of phase 1.
    let (phase1, centers, knowledge, map, stranded) = if (s as f64) <= threshold {
        let map = SourceMap::from_assignment(assignment);
        (None, assignment.sources(), assignment.clone(), map, 0)
    } else {
        // ---- Phase 1: reduce the number of sources to the centers. ----
        let f = center_count(n, k);
        let p_center = cfg
            .center_probability
            .unwrap_or_else(|| (f / n as f64).min(1.0));
        let gamma = cfg
            .degree_threshold
            .unwrap_or_else(|| degree_threshold(n, f));
        let is_center = elect_centers(n, p_center, cfg.seed);
        let nodes: Vec<WalkNode> = NodeId::all(n)
            .map(|v| WalkNode::new(v, assignment, is_center[v.index()], gamma, cfg.seed))
            .collect();
        let mut sim1 = UnicastSim::new(
            "oblivious-multi-source(phase1)",
            nodes,
            adversary1,
            assignment,
            SimConfig::with_max_rounds(cfg.phase1_max_rounds),
        );
        let phase1 = sim1.run_until(|s| s.nodes().iter().all(|node| node.tokens_in_transit() == 0));

        // ---- Hand-off: ownership + knowledge snapshot. ----
        let mut ownership = TokenAssignment::empty(n, k);
        let mut knowledge = TokenAssignment::empty(n, k);
        let mut stranded = 0usize;
        for node in sim1.nodes() {
            for t in node.owned_tokens() {
                ownership.add_holder(t, node.id());
                if !node.is_center() {
                    stranded += 1;
                }
            }
            for t in node.known_tokens().iter() {
                knowledge.add_holder(t, node.id());
            }
        }
        debug_assert!(ownership.is_valid(), "every token must have an owner");
        let centers = NodeId::all(n).filter(|v| is_center[v.index()]).collect();
        let map = SourceMap::from_assignment(&ownership);
        (Some(phase1), centers, knowledge, map, stranded)
    };

    // ---- Phase 2: Multi-Source-Unicast from the owners. ----
    let map = Arc::new(map);
    let nodes = NodeId::all(n)
        .map(|v| MultiSourceNode::new(v, &knowledge, Arc::clone(&map)))
        .collect();
    let mut sim2 = UnicastSim::new(
        if phase1.is_some() {
            "oblivious-multi-source(phase2)"
        } else {
            "oblivious-multi-source(direct)"
        },
        nodes,
        adversary2,
        &knowledge,
        SimConfig::with_max_rounds(cfg.phase2_max_rounds),
    );
    let phase2 = sim2.run_to_completion();

    ObliviousOutcome {
        phase1,
        phase2,
        centers,
        stranded_tokens: stranded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
    use dynspread_graph::Graph;

    #[test]
    fn parameter_formulas_match_paper() {
        let n = 1024usize;
        // s-threshold = n^{2/3} (ln n)^{5/3}.
        let thr = source_threshold(n);
        let expect = (1024f64).powf(2.0 / 3.0) * (1024f64).ln().powf(5.0 / 3.0);
        assert!((thr - expect).abs() < 1e-6);
        // f = √n k^{1/4} (ln n)^{5/4}, γ = n ln n / f.
        let f = center_count(n, 256);
        let expect_f = 32.0 * 4.0 * (1024f64).ln().powf(1.25);
        assert!((f - expect_f).abs() < 1e-6);
        let g = degree_threshold(n, f);
        assert!((g - 1024.0 * (1024f64).ln() / f).abs() < 1e-6);
    }

    #[test]
    fn walk_msg_payloads() {
        assert_eq!(WalkMsg::Walk(TokenId::new(0)).token_count(), 1);
        assert_eq!(WalkMsg::CenterAnnounce.token_count(), 0);
        assert_eq!(WalkMsg::Walk(TokenId::new(0)).class(), MessageClass::Walk);
        assert_eq!(
            WalkMsg::CenterAnnounce.class(),
            MessageClass::CenterAnnounce
        );
    }

    fn many_source_assignment(n: usize, k: usize) -> TokenAssignment {
        // Every node a source: k tokens round-robin over all n nodes.
        TokenAssignment::round_robin_sources(n, k, n.min(k))
    }

    #[test]
    fn below_threshold_skips_phase_one() {
        // s = 2 sources is far below n^{2/3} log^{5/3} n for n = 10.
        let a = TokenAssignment::round_robin_sources(10, 8, 2);
        let out = run_oblivious_multi_source(
            &a,
            StaticAdversary::new(Graph::path(10)),
            PeriodicRewiring::new(Topology::RandomTree, 3, 5),
            &ObliviousConfig::default(),
        );
        assert!(out.phase1.is_none());
        assert!(out.completed(), "{}", out.phase2);
        assert_eq!(out.centers, a.sources());
    }

    #[test]
    fn full_two_phase_run_completes() {
        let n = 16;
        let k = 16;
        let a = many_source_assignment(n, k);
        let cfg = ObliviousConfig {
            seed: 11,
            // Force phase 1 at this small scale.
            source_threshold: Some(1.0),
            center_probability: Some(0.25),
            ..ObliviousConfig::default()
        };
        let out = run_oblivious_multi_source(
            &a,
            PeriodicRewiring::new(Topology::Gnp(0.3), 3, 7),
            PeriodicRewiring::new(Topology::RandomTree, 3, 9),
            &cfg,
        );
        assert!(out.phase1.is_some());
        assert!(out.completed(), "{}", out.phase2);
        let p1 = out.phase1.as_ref().unwrap();
        // Phase 1 sends only walk steps and center announcements.
        assert_eq!(
            p1.total_messages,
            p1.class(MessageClass::Walk) + p1.class(MessageClass::CenterAnnounce)
        );
        assert_eq!(out.stranded_tokens, 0);
    }

    #[test]
    fn phase1_reduces_sources_to_centers() {
        let n = 20;
        let k = 20;
        let a = many_source_assignment(n, k);
        let cfg = ObliviousConfig {
            seed: 3,
            source_threshold: Some(1.0),
            center_probability: Some(0.2),
            ..ObliviousConfig::default()
        };
        let out = run_oblivious_multi_source(
            &a,
            PeriodicRewiring::new(Topology::Gnp(0.4), 2, 13),
            PeriodicRewiring::new(Topology::RandomTree, 3, 15),
            &cfg,
        );
        assert!(out.completed());
        assert!(
            out.centers.len() < n,
            "expected fewer centers than nodes, got {}",
            out.centers.len()
        );
        assert!(!out.centers.is_empty());
    }

    #[test]
    fn center_announcements_bounded_by_tc() {
        let n = 16;
        let k = 8;
        let a = many_source_assignment(n, k);
        let cfg = ObliviousConfig {
            seed: 29,
            source_threshold: Some(1.0),
            center_probability: Some(0.3),
            ..ObliviousConfig::default()
        };
        let out = run_oblivious_multi_source(
            &a,
            PeriodicRewiring::new(Topology::Gnp(0.3), 3, 17),
            PeriodicRewiring::new(Topology::RandomTree, 3, 19),
            &cfg,
        );
        assert!(out.completed());
        let p1 = out.phase1.as_ref().unwrap();
        // One announcement per (center, inserted adjacent edge): at most
        // 2·TC(E) endpoints, so announcements ≤ 2·TC.
        assert!(
            p1.class(MessageClass::CenterAnnounce) <= 2 * p1.tc(),
            "announcements {} > 2·TC {}",
            p1.class(MessageClass::CenterAnnounce),
            2 * p1.tc()
        );
    }

    #[test]
    fn walk_node_congestion_allows_one_token_per_edge() {
        // A node owning many tokens with a single neighbor can move at most
        // one token per round.
        let n = 4;
        let a = TokenAssignment::single_source(n, 6, NodeId::new(0));
        let mut node = WalkNode::new(NodeId::new(0), &a, false, f64::INFINITY, 5);
        let neighbors = [NodeId::new(1)];
        let mut total_moved = 0usize;
        for r in 1..=200 {
            let mut out = Outbox::new();
            node.send(r, &neighbors, &mut out);
            assert!(
                out.len() <= 1,
                "round {r}: more than one walk step on one edge"
            );
            total_moved += out.len();
        }
        assert!(total_moved > 0, "lazy walk should eventually move tokens");
    }

    #[test]
    fn center_collects_and_never_forwards() {
        let n = 4;
        let a = TokenAssignment::single_source(n, 2, NodeId::new(1));
        let mut center = WalkNode::new(NodeId::new(0), &a, true, 1.0, 5);
        center.receive(1, NodeId::new(1), &WalkMsg::Walk(TokenId::new(0)));
        center.receive(1, NodeId::new(1), &WalkMsg::Walk(TokenId::new(1)));
        assert_eq!(center.tokens_in_transit(), 0);
        assert_eq!(center.owned_tokens().count(), 2);
        let mut out = Outbox::new();
        center.send(2, &[NodeId::new(1), NodeId::new(2)], &mut out);
        // Only center announcements, never walk steps.
        assert!(out
            .into_messages()
            .iter()
            .all(|(_, m)| matches!(m, WalkMsg::CenterAnnounce)));
    }

    #[test]
    fn high_degree_node_hands_tokens_to_known_centers() {
        let n = 8;
        let a = TokenAssignment::single_source(n, 3, NodeId::new(0));
        // γ = 2: degree ≥ 2 counts as high-degree.
        let mut node = WalkNode::new(NodeId::new(0), &a, false, 2.0, 5);
        node.receive(1, NodeId::new(3), &WalkMsg::CenterAnnounce);
        let neighbors = [NodeId::new(2), NodeId::new(3), NodeId::new(4)];
        let mut out = Outbox::new();
        node.send(2, &neighbors, &mut out);
        let msgs = out.into_messages();
        let walks: Vec<_> = msgs
            .iter()
            .filter(|(_, m)| matches!(m, WalkMsg::Walk(_)))
            .collect();
        assert_eq!(walks.len(), 1, "one token per neighboring center");
        assert_eq!(walks[0].0, NodeId::new(3));
        assert_eq!(node.tokens_in_transit(), 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let n = 12;
        let k = 12;
        let a = many_source_assignment(n, k);
        let run = |seed: u64| {
            let cfg = ObliviousConfig {
                seed,
                source_threshold: Some(1.0),
                center_probability: Some(0.25),
                ..ObliviousConfig::default()
            };
            let out = run_oblivious_multi_source(
                &a,
                PeriodicRewiring::new(Topology::Gnp(0.3), 3, 100),
                PeriodicRewiring::new(Topology::RandomTree, 3, 101),
                &cfg,
            );
            (
                out.total_messages(),
                out.total_rounds(),
                out.centers.clone(),
            )
        };
        assert_eq!(run(42), run(42));
    }
}
