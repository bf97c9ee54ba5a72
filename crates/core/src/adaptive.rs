//! Additional strongly adaptive unicast adversaries.
//!
//! The strongly adaptive adversary in the unicast model commits the round
//! graph knowing the full execution history — in particular, which edges
//! carried token requests in the previous round. [`RequestCuttingAdversary`]
//! weaponizes this: it deletes exactly those edges, preventing the
//! requested tokens from being delivered.
//!
//! This is the worst case for the type-3 (request) messages in the proof
//! of Theorem 3.1: every killed request forces a re-request, but also costs
//! the adversary one deletion (and a matching insertion somewhere else to
//! restore connectivity/density) — so the 1-adversary-competitive residual
//! `M − TC(E)` stays bounded even when the adversary delays termination
//! indefinitely. The ablation experiments (`exp_priority_ablation`) use it
//! to show why the algorithm's new > idle > contributive request priority
//! matters.

use dynspread_graph::connectivity::connect_components;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::generators::Topology;
use dynspread_graph::stability::StabilityEnforcer;
use dynspread_graph::{Edge, Graph, NodeId, Round};
use dynspread_sim::adversary::{SentRecord, UnicastAdversary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// View of a protocol message as a potential token request.
pub trait RequestView {
    /// Whether this message is a token request.
    fn is_request(&self) -> bool;
}

impl RequestView for crate::single_source::SsMsg {
    fn is_request(&self) -> bool {
        matches!(self, crate::single_source::SsMsg::Request(_))
    }
}

impl RequestView for crate::multi_source::MsMsg {
    fn is_request(&self) -> bool {
        matches!(self, crate::multi_source::MsMsg::Request(_))
    }
}

/// A strongly adaptive adversary that cuts the edges which carried token
/// requests in the previous round (up to a per-round budget), then repairs
/// connectivity and tops the graph back up with random edges.
///
/// With an unbounded budget it can stall the Single-Source algorithm
/// forever — while its own `TC(E)` grows at the same rate as the
/// algorithm's message count, which is exactly the regime Definition 1.3
/// prices correctly.
pub struct RequestCuttingAdversary {
    topology: Topology,
    /// Maximum request-carrying edges cut per round (`usize::MAX` = all).
    budget: usize,
    /// Random replacement edges added per round.
    replacement_edges: usize,
    rng: StdRng,
}

impl RequestCuttingAdversary {
    /// Creates the adversary starting from a sample of `topology`.
    pub fn new(topology: Topology, budget: usize, replacement_edges: usize, seed: u64) -> Self {
        RequestCuttingAdversary {
            topology,
            budget,
            replacement_edges,
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<M: RequestView> UnicastAdversary<M> for RequestCuttingAdversary {
    fn evolve(&mut self, round: Round, prev: &Graph, prev_sent: &[SentRecord<M>]) -> GraphUpdate {
        let n = prev.node_count();
        let mut g = if round == 1 {
            self.topology.sample(n, &mut self.rng)
        } else {
            prev.clone()
        };
        // Cut the edges that carried requests last round.
        let mut cut = 0usize;
        for rec in prev_sent {
            if cut >= self.budget {
                break;
            }
            if rec.msg.is_request() && g.remove_edge(Edge::new(rec.from, rec.to)) {
                cut += 1;
            }
        }
        // Top up with random fresh edges, then repair connectivity.
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < self.replacement_edges && attempts < 50 * self.replacement_edges + 50 {
            attempts += 1;
            let u = self.rng.gen_range(0..n as u32);
            let v = self.rng.gen_range(0..n as u32);
            if u != v && g.insert_edge(Edge::new(NodeId::new(u), NodeId::new(v))) {
                added += 1;
            }
        }
        connect_components(&mut g, &mut self.rng);
        GraphUpdate::Full(g)
    }

    fn name(&self) -> &str {
        "request-cutting"
    }
}

/// A σ-edge-stable strongly adaptive adversary: cuts edges that carried
/// requests in the previous round, **but only once they are σ rounds old**
/// (so the produced schedule is σ-edge-stable), and keeps the graph topped
/// up with fresh random edges.
///
/// This is the adversary implicit in Lemmas 3.2/3.3: requests assigned to
/// *new* edges are safe (the edge must survive ≥ σ = 3 rounds, long enough
/// for the request → token handshake), while requests on old idle or
/// contributive edges can be killed the moment they are sent. It therefore
/// separates Algorithm 1's new > idle > contributive priority from naive
/// edge choice — the `exp_priority_ablation` experiment.
///
/// Edge ages live in a [`StabilityEnforcer`], to which each round commits
/// the adversary's own `(born, cut)`: an edge cut and redrawn in the same
/// round is born again.
pub struct StableRequestCutter {
    target_edges: usize,
    rng: StdRng,
    ledger: StabilityEnforcer,
}

impl StableRequestCutter {
    /// Creates the adversary with stability parameter `sigma` and a target
    /// edge density.
    ///
    /// # Panics
    ///
    /// Panics if `sigma == 0`.
    pub fn new(sigma: u64, target_edges: usize, seed: u64) -> Self {
        StableRequestCutter {
            target_edges,
            rng: StdRng::seed_from_u64(seed),
            ledger: StabilityEnforcer::new(sigma),
        }
    }
}

impl<M: RequestView> UnicastAdversary<M> for StableRequestCutter {
    fn evolve(&mut self, _round: Round, prev: &Graph, prev_sent: &[SentRecord<M>]) -> GraphUpdate {
        let n = prev.node_count();
        let mut g = prev.clone();
        // Cut mature request-carrying edges (σ-stability permitting).
        let pinned = self.ledger.pinned_edges();
        let mut cut = Vec::new();
        for rec in prev_sent {
            let e = Edge::new(rec.from, rec.to);
            if rec.msg.is_request() && pinned.binary_search(&e).is_err() && g.remove_edge(e) {
                cut.push(e);
            }
        }
        // Top up with fresh random edges.
        let mut born = Vec::new();
        let mut attempts = 0usize;
        while g.edge_count() < self.target_edges && attempts < 100 * self.target_edges + 100 {
            attempts += 1;
            let u = self.rng.gen_range(0..n as u32);
            let v = self.rng.gen_range(0..n as u32);
            if u != v {
                let e = Edge::new(NodeId::new(u), NodeId::new(v));
                if g.insert_edge(e) {
                    born.push(e);
                }
            }
        }
        born.extend(connect_components(&mut g, &mut self.rng));
        self.ledger
            .commit_delta(&born, &cut)
            .expect("cuts only σ-mature edges");
        GraphUpdate::Full(g)
    }

    fn name(&self) -> &str {
        "stable-request-cutting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::single_source::{SingleSourceNode, SsMsg};
    use dynspread_sim::message::MessageClass;
    use dynspread_sim::sim::{SimConfig, UnicastSim};
    use dynspread_sim::token::TokenAssignment;

    #[test]
    fn request_view_classifies_messages() {
        use crate::multi_source::MsMsg;
        use dynspread_sim::token::TokenId;
        assert!(SsMsg::Request(TokenId::new(0)).is_request());
        assert!(!SsMsg::Completeness.is_request());
        assert!(!SsMsg::Token(TokenId::new(0)).is_request());
        assert!(MsMsg::Request(TokenId::new(1)).is_request());
        assert!(!MsMsg::Completeness(NodeId::new(0)).is_request());
    }

    #[test]
    fn unbounded_cutting_stalls_but_residual_stays_bounded() {
        // Theorem 3.1 in its sharpest form: the adversary may prevent
        // completion indefinitely, but M − TC(E) remains O(n² + nk).
        let (n, k) = (10, 6);
        let a = TokenAssignment::single_source(n, k, NodeId::new(0));
        let adv = RequestCuttingAdversary::new(Topology::SparseConnected(2.0), usize::MAX, 2, 7);
        let mut sim = UnicastSim::new(
            "single-source-unicast",
            SingleSourceNode::nodes(&a),
            adv,
            &a,
            SimConfig::with_max_rounds(2_000),
        );
        let report = sim.run_to_completion();
        // Whether or not it completed, the competitive bound must hold.
        let residual = report.competitive_residual(1.0);
        let bound = 6.0 * ((n * n) as f64 + (n * k) as f64);
        assert!(
            residual <= bound,
            "residual {residual} > 6(n²+nk) = {bound}: {report}"
        );
        // The adversary really does interfere: requests far exceed tokens.
        assert!(report.class(MessageClass::Request) > report.class(MessageClass::Token));
    }

    #[test]
    fn bounded_cutting_allows_completion() {
        let (n, k) = (8, 4);
        let a = TokenAssignment::single_source(n, k, NodeId::new(0));
        // Budget 1: at most one request killed per round; with several
        // parallel requests per round dissemination gets through.
        let adv = RequestCuttingAdversary::new(Topology::SparseConnected(2.5), 1, 1, 11);
        let mut sim = UnicastSim::new(
            "single-source-unicast",
            SingleSourceNode::nodes(&a),
            adv,
            &a,
            SimConfig::with_max_rounds(100_000),
        );
        let report = sim.run_to_completion();
        assert!(report.completed, "{report}");
    }

    #[test]
    fn stable_cutter_produces_sigma_stable_schedules() {
        use dynspread_graph::stability::check_schedule;
        let n = 12;
        let sigma = 3;
        let mut adv = StableRequestCutter::new(sigma, 3 * n, 9);
        let mut schedule = Vec::new();
        let mut dg = dynspread_graph::DynamicGraph::new(n);
        // Drive it with synthetic request traffic on every present edge.
        for r in 1..=40u64 {
            let sent: Vec<SentRecord<SsMsg>> = dg
                .current()
                .edges()
                .iter()
                .map(|e| SentRecord {
                    from: e.lo(),
                    to: e.hi(),
                    msg: SsMsg::Request(dynspread_sim::token::TokenId::new(0)),
                })
                .collect();
            dg.apply(UnicastAdversary::evolve(&mut adv, r, dg.current(), &sent));
            assert!(dg.current().is_connected(), "round {r} disconnected");
            schedule.push(dg.current().clone());
        }
        check_schedule(sigma, &schedule).expect("must be σ-stable");
    }

    #[test]
    #[should_panic(expected = "σ must be at least 1")]
    fn stable_cutter_rejects_zero_sigma() {
        let _ = StableRequestCutter::new(0, 8, 1);
    }

    #[test]
    fn single_source_completes_against_stable_cutter() {
        // With σ = 3, requests on new edges cannot be cut before they are
        // answered, so the prioritized algorithm always makes progress.
        let (n, k) = (12, 6);
        let a = TokenAssignment::single_source(n, k, NodeId::new(0));
        let adv = StableRequestCutter::new(3, 3 * n, 21);
        let mut sim = UnicastSim::new(
            "single-source-unicast",
            SingleSourceNode::nodes(&a),
            adv,
            &a,
            SimConfig::with_max_rounds(100_000),
        );
        let report = sim.run_to_completion();
        assert!(report.completed, "{report}");
    }

    #[test]
    fn cutting_is_deterministic_per_seed() {
        let (n, k) = (8, 4);
        let a = TokenAssignment::single_source(n, k, NodeId::new(0));
        let run = |seed: u64| {
            let adv =
                RequestCuttingAdversary::new(Topology::SparseConnected(2.0), usize::MAX, 1, seed);
            let mut sim = UnicastSim::new(
                "ss",
                SingleSourceNode::nodes(&a),
                adv,
                &a,
                SimConfig::with_max_rounds(500),
            );
            let r = sim.run_to_completion();
            (r.total_messages, r.tc(), r.completed)
        };
        assert_eq!(run(3), run(3));
    }
}
