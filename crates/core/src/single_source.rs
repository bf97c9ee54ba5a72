//! The Single-Source-Unicast algorithm (Algorithm 1, Section 3.1).
//!
//! All `k` tokens start at one source node. Only *complete* nodes (nodes
//! holding all `k` tokens, Definition 3.1) ever send tokens. The protocol is
//! a request/response handshake driven by the incomplete nodes:
//!
//! * every complete node announces its completeness to each neighbor at most
//!   once, ever (set `R_v` of already-informed nodes);
//! * every incomplete node remembers which nodes announced completeness to
//!   it (set `S_v`) and, each round, assigns at most one distinct
//!   missing-token request per adjacent edge leading to a known-complete
//!   neighbor — prioritizing **new** edges, then **idle** edges, then
//!   **contributive** edges (see [`EdgeCategory`]);
//! * a complete node receiving `Request(i)` in round `r − 1` sends back the
//!   `i`-th token in round `r`, if the edge still exists.
//!
//! Knowledge only grows, so a complete node never requests again: it
//! neither refreshes its edge history (the request side's `open`) nor
//! records `S_v` from then on, since only request assignment reads either.
//!
//! Theorem 3.1: the algorithm has 1-adversary-competitive message
//! complexity `O(n² + nk)` against a strongly adaptive adversary.
//! Theorem 3.4: on 3-edge-stable dynamic graphs it terminates in `O(nk)`
//! rounds.

use crate::dissemination::{CompletenessLedger, DisseminationCore, Requests};
use crate::edge_history::EdgeCategory;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::message::{MessageClass, MessagePayload};
use dynspread_sim::protocol::{Outbox, UnicastProtocol};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};

/// Messages of the Single-Source-Unicast algorithm.
///
/// Each variant carries at most one token plus O(log n) bits, respecting the
/// bandwidth constraint.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SsMsg {
    /// "I am complete" (type-2 message in Theorem 3.1).
    Completeness,
    /// "Please send me token `i`" (type-3 message).
    Request(TokenId),
    /// The requested token (type-1 message).
    Token(TokenId),
}

impl MessagePayload for SsMsg {
    fn token_count(&self) -> usize {
        match self {
            SsMsg::Token(_) => 1,
            _ => 0,
        }
    }

    fn class(&self) -> MessageClass {
        match self {
            SsMsg::Completeness => MessageClass::Completeness,
            SsMsg::Request(_) => MessageClass::Request,
            SsMsg::Token(_) => MessageClass::Token,
        }
    }
}

/// How an incomplete node assigns token requests to eligible edges.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RequestPolicy {
    /// The paper's careful strategy: new edges first, then idle, then
    /// contributive (Algorithm 1).
    #[default]
    Prioritized,
    /// Ablation: ignore edge categories and assign in neighbor-ID order.
    /// Loses the futile-round argument behind Theorem 3.4.
    Unprioritized,
}

impl RequestPolicy {
    /// [`Requests::assign`]'s category sweeps (`None` matches every edge).
    pub fn passes(self) -> &'static [Option<EdgeCategory>] {
        match self {
            RequestPolicy::Prioritized => &[
                Some(EdgeCategory::New),
                Some(EdgeCategory::Idle),
                Some(EdgeCategory::Contributive),
            ],
            RequestPolicy::Unprioritized => &[None],
        }
    }
}

/// Per-node state of the Single-Source-Unicast algorithm.
///
/// Construct one per node via [`SingleSourceNode::from_assignment`] and run
/// under [`dynspread_sim::UnicastSim`].
///
/// # Examples
///
/// ```
/// use dynspread_core::single_source::SingleSourceNode;
/// use dynspread_graph::{oblivious::StaticAdversary, Graph, NodeId};
/// use dynspread_sim::{SimConfig, TokenAssignment, UnicastSim};
///
/// let assignment = TokenAssignment::single_source(4, 2, NodeId::new(0));
/// let mut sim = UnicastSim::new(
///     "single-source-unicast",
///     SingleSourceNode::nodes(&assignment),
///     StaticAdversary::new(Graph::path(4)),
///     &assignment,
///     SimConfig::default(),
/// );
/// let report = sim.run_to_completion();
/// assert!(report.completed);
/// ```
#[derive(Clone, Debug)]
pub struct SingleSourceNode {
    policy: RequestPolicy,
    id: NodeId,
    /// `K_v`, the requests in flight and the requests to answer.
    requests: Requests,
    /// `R_v` / `S_v` completeness bookkeeping (one source, index 0).
    ledger: CompletenessLedger,
    /// Cumulative requests sent per edge category (indexed new/idle/
    /// contributive) — instrumentation for the futile-round analysis
    /// (Definition 3.3, Lemmas 3.2/3.3).
    requests_by_category: [u64; 3],
}

impl SingleSourceNode {
    /// Creates the node `v` with its initial knowledge from `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the assignment.
    pub fn from_assignment(v: NodeId, assignment: &TokenAssignment) -> Self {
        SingleSourceNode::with_policy(v, assignment, RequestPolicy::Prioritized)
    }

    /// Creates the node `v` with an explicit [`RequestPolicy`] (the
    /// priority-ablation experiments compare the two).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the assignment.
    pub fn with_policy(v: NodeId, assignment: &TokenAssignment, policy: RequestPolicy) -> Self {
        let n = assignment.node_count();
        assert!(v.index() < n, "node out of range");
        SingleSourceNode {
            policy,
            id: v,
            requests: Requests::new(DisseminationCore::from_assignment(v, assignment)),
            ledger: CompletenessLedger::new(n, 1),
            requests_by_category: [0; 3],
        }
    }

    /// Builds the full vector of per-node protocols for an assignment.
    pub fn nodes(assignment: &TokenAssignment) -> Vec<SingleSourceNode> {
        NodeId::all(assignment.node_count())
            .map(|v| SingleSourceNode::from_assignment(v, assignment))
            .collect()
    }

    /// Whether this node is complete (Definition 3.1).
    pub fn is_complete(&self) -> bool {
        self.requests.core().is_complete()
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Classifies the edge to current neighbor `u` in round `round`.
    ///
    /// Edge classification is the history of the incomplete phase: a
    /// complete node stops refreshing it, so from completion on it is
    /// frozen at the last incomplete round's view.
    pub fn classify_edge(&self, u: NodeId, round: Round) -> EdgeCategory {
        self.requests.classify(u, round)
    }

    /// Cumulative requests sent over new / idle / contributive edges —
    /// the inputs to the futile-round analysis (Definition 3.3: a round is
    /// futile if no request travels over a contributive edge and no token
    /// is learned in the following two rounds). Only an incomplete node
    /// requests, so the counts are frozen at completion.
    pub fn requests_sent_by_category(&self) -> [u64; 3] {
        self.requests_by_category
    }
}

impl UnicastProtocol for SingleSourceNode {
    type Msg = SsMsg;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<SsMsg>) {
        let queued = out.len();
        let complete = self.is_complete();
        if complete {
            // Announce to the uninformed, answer last round's requests (one
            // message per neighbor per round, announcement first —
            // Algorithm 1 lines 1–6).
            let ledger = &mut self.ledger;
            self.requests.answer(|asked, _| {
                for &u in neighbors {
                    if ledger.needs_inform(0, u) {
                        out.send(u, SsMsg::Completeness);
                        ledger.mark_informed(0, u);
                    } else if let Some(&(_, t)) = asked.iter().find(|(w, _)| *w == u) {
                        out.send(u, SsMsg::Token(t));
                    }
                }
            });
        } else {
            // Assign distinct missing-token requests to edges to known
            // complete neighbors, new first, then idle, then contributive
            // (Algorithm 1 lines 7–20).
            self.requests.open(round, neighbors);
            let (ledger, sent) = (&self.ledger, &mut self.requests_by_category);
            self.requests.assign(
                round,
                neighbors,
                None,
                self.policy.passes(),
                |u| ledger.peer_complete(0, u),
                |u, t, category| {
                    out.send(u, SsMsg::Request(t));
                    sent[category as usize] += 1;
                },
            );
        }
        // A complete node has nothing more to say until an edge or a request
        // arrives. A silent incomplete round leaves `K_v`, the in-flight set
        // and `S_v`, which alone decide what is sent (edge age only orders
        // it), as they were: it stays silent until something changes.
        self.requests.settle(complete || out.len() == queued, out);
    }

    fn receive(&mut self, _round: Round, from: NodeId, msg: &SsMsg) {
        match msg {
            SsMsg::Completeness => {
                // `S_v` only picks whom to request from.
                if !self.is_complete() {
                    self.ledger.note_peer_complete(0, from);
                }
            }
            SsMsg::Request(t) => self.requests.receive_request(from, *t),
            SsMsg::Token(t) => {
                self.requests.receive_token(from, *t);
            }
        }
    }

    fn end_round(&mut self, _round: Round) {
        self.requests.close();
    }

    fn known_tokens(&self) -> &TokenSet {
        self.requests.core().known_tokens()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::adversary::FnAdversary;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring, StaticAdversary};
    use dynspread_graph::Graph;
    use dynspread_sim::sim::{SimConfig, UnicastSim};

    fn run_single_source<A>(
        n: usize,
        k: usize,
        adversary: A,
        max_rounds: Round,
    ) -> dynspread_sim::RunReport
    where
        A: dynspread_sim::adversary::UnicastAdversary<SsMsg>,
    {
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        let nodes = SingleSourceNode::nodes(&assignment);
        let mut sim = UnicastSim::new(
            "single-source-unicast",
            nodes,
            adversary,
            &assignment,
            SimConfig::with_max_rounds(max_rounds),
        );
        sim.run_to_completion()
    }

    #[test]
    fn message_classes_and_sizes() {
        assert_eq!(SsMsg::Completeness.token_count(), 0);
        assert_eq!(SsMsg::Request(TokenId::new(0)).token_count(), 0);
        assert_eq!(SsMsg::Token(TokenId::new(0)).token_count(), 1);
        assert_eq!(SsMsg::Completeness.class(), MessageClass::Completeness);
        assert_eq!(
            SsMsg::Request(TokenId::new(0)).class(),
            MessageClass::Request
        );
        assert_eq!(SsMsg::Token(TokenId::new(0)).class(), MessageClass::Token);
    }

    #[test]
    fn completes_on_static_path() {
        let report = run_single_source(6, 4, StaticAdversary::new(Graph::path(6)), 100_000);
        assert!(report.completed, "did not complete: {report}");
        assert_eq!(report.learnings, 4 * 5);
    }

    #[test]
    fn completes_on_static_star() {
        let report = run_single_source(8, 5, StaticAdversary::new(Graph::star(8)), 100_000);
        assert!(report.completed);
    }

    #[test]
    fn completes_on_static_clique() {
        let report = run_single_source(7, 6, StaticAdversary::new(Graph::complete(7)), 100_000);
        assert!(report.completed);
    }

    #[test]
    fn completes_under_periodic_rewiring() {
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 99);
        let report = run_single_source(10, 8, adv, 200_000);
        assert!(report.completed, "did not complete: {report}");
    }

    #[test]
    fn completes_under_churn() {
        let adv = ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, 5);
        let report = run_single_source(12, 10, adv, 200_000);
        assert!(report.completed, "did not complete: {report}");
    }

    #[test]
    fn token_messages_bounded_by_nk() {
        let n = 9;
        let k = 7;
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 7);
        let report = run_single_source(n, k, adv, 200_000);
        assert!(report.completed);
        // Each node receives each token at most once → ≤ nk token messages.
        assert!(report.class(MessageClass::Token) <= (n * k) as u64);
        // Every received token is a learning; tokens are never re-sent.
        assert_eq!(report.class(MessageClass::Token), report.learnings);
    }

    #[test]
    fn completeness_messages_bounded_by_n_squared() {
        let n = 10;
        let adv = PeriodicRewiring::new(Topology::Gnp(0.3), 3, 21);
        let report = run_single_source(n, 5, adv, 200_000);
        assert!(report.completed);
        assert!(report.class(MessageClass::Completeness) <= (n * (n - 1)) as u64);
    }

    #[test]
    fn theorem_3_1_competitive_bound_holds() {
        // M_total ≤ c(n² + nk) + TC(E) with a generous constant c = 4.
        for (n, k, seed) in [(8, 6, 1u64), (12, 20, 2), (16, 4, 3)] {
            let adv = PeriodicRewiring::new(Topology::RandomTree, 3, seed);
            let report = run_single_source(n, k, adv, 400_000);
            assert!(report.completed);
            let residual = report.competitive_residual(1.0);
            let bound = 4.0 * ((n * n) as f64 + (n * k) as f64);
            assert!(
                residual <= bound,
                "residual {residual} exceeds 4(n²+nk) = {bound} for n={n}, k={k}"
            );
        }
    }

    #[test]
    fn terminates_fast_on_three_stable_graphs() {
        // Theorem 3.4: O(nk) rounds under 3-edge stability. Constant 8 is
        // generous for these sizes.
        let (n, k) = (10, 6);
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 17);
        let report = run_single_source(n, k, adv, 200_000);
        assert!(report.completed);
        assert!(
            report.rounds <= (8 * n * k) as Round,
            "took {} rounds > 8nk = {}",
            report.rounds,
            8 * n * k
        );
    }

    #[test]
    fn single_token_single_pair() {
        // Minimal instance: n = 2, k = 1 on a static edge.
        let report = run_single_source(2, 1, StaticAdversary::new(Graph::path(2)), 100);
        assert!(report.completed);
        // Round 1: source announces. Round 2: node 1 requests.
        // Round 3: source sends the token.
        assert_eq!(report.rounds, 3);
        assert_eq!(report.total_messages, 3);
    }

    #[test]
    fn request_dies_with_edge_and_token_is_rerequested() {
        // Adversary: path 0-1-2 normally, but in round 3 — exactly when the
        // first request would be answered — it swaps edge {0,1} for {0,2}.
        // The token must still arrive eventually.
        let n = 3;
        let adv = FnAdversary::new("cutter", move |r, _prev: &Graph| {
            let mut g = Graph::path(n);
            if r == 3 {
                g.remove_edge(dynspread_graph::Edge::new(NodeId::new(0), NodeId::new(1)));
                g.insert_edge(dynspread_graph::Edge::new(NodeId::new(0), NodeId::new(2)));
            }
            g
        });
        let report = run_single_source(n, 2, adv, 1000);
        assert!(report.completed);
    }

    #[test]
    fn no_token_sent_without_request() {
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 31);
        let report = run_single_source(9, 5, adv, 200_000);
        assert!(report.completed);
        assert!(report.class(MessageClass::Request) >= report.class(MessageClass::Token));
    }

    #[test]
    fn nodes_builder_covers_all_nodes() {
        let assignment = TokenAssignment::single_source(5, 3, NodeId::new(2));
        let nodes = SingleSourceNode::nodes(&assignment);
        assert_eq!(nodes.len(), 5);
        assert!(nodes[2].is_complete());
        assert!(!nodes[0].is_complete());
        assert_eq!(nodes[3].id(), NodeId::new(3));
    }

    #[test]
    fn edge_classification_lifecycle_through_protocol() {
        let assignment = TokenAssignment::single_source(3, 2, NodeId::new(0));
        let mut node = SingleSourceNode::from_assignment(NodeId::new(1), &assignment);
        let n0 = NodeId::new(0);
        let mut out = Outbox::new();
        node.send(1, &[n0], &mut out);
        assert_eq!(node.classify_edge(n0, 1), EdgeCategory::New);
        node.send(2, &[n0], &mut out);
        assert_eq!(node.classify_edge(n0, 2), EdgeCategory::New);
        node.send(3, &[n0], &mut out);
        assert_eq!(node.classify_edge(n0, 3), EdgeCategory::Idle);
        node.receive(3, n0, &SsMsg::Token(TokenId::new(0)));
        node.send(4, &[n0], &mut out);
        assert_eq!(node.classify_edge(n0, 4), EdgeCategory::Contributive);
    }
}
