//! The Multi-Source-Unicast algorithm (Section 3.2.1).
//!
//! Tokens start at `s` source nodes `a_1 < a_2 < … < a_s`; source `a_i`
//! initially holds `k_i` tokens (`k = Σ k_i`). The algorithm extends
//! Single-Source-Unicast with per-source completeness:
//!
//! * a node is *complete with respect to source `x`* when it holds every
//!   token originating at `x`;
//! * each node maintains, per source `x`: `R_v(x)` (whom it has informed of
//!   its `x`-completeness), `S_v(x)` (who informed it), and the set `I_v`
//!   of sources it is complete for;
//! * each round a node does three things **in parallel**: (1) per edge,
//!   announce completeness for the *minimum* source the neighbor doesn't
//!   know about; (2) answer last round's token requests; (3) pick the
//!   minimum source `x ∉ I_v` with `S_v(x) ≠ ∅` and run the single-source
//!   request logic for `x` alone.
//!
//! The strict minimum-source priority means the network effectively runs
//! Single-Source-Unicast for source `a_1` first, then `a_2`, etc., which is
//! how Theorem 3.6 inherits the `O(nk)` running time. Theorem 3.5: the
//! algorithm has 1-adversary-competitive message complexity `O(n²s + nk)`.
//!
//! A node complete for every source runs only tasks (1) and (2): knowledge
//! only grows, so it never requests again, and it neither refreshes its
//! edge history nor records `S_v(·)` from then on, since only task (3)
//! reads either.
//!
//! Token identities stay global (`0..k`); the map from token to source is
//! common knowledge, fixed by the initial placement (this stands in for the
//! paper's `⟨ID_x, i⟩` token labels, which every node can parse).

use crate::dissemination::{CompletenessLedger, DisseminationCore, Requests};
use crate::single_source::RequestPolicy;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::message::{MessageClass, MessagePayload};
use dynspread_sim::protocol::{Outbox, UnicastProtocol};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use std::sync::Arc;

/// The global token → source labelling, shared (as common knowledge) by all
/// nodes.
///
/// Built from a [`TokenAssignment`] in which every token has exactly one
/// initial holder — its source.
#[derive(Clone, Debug)]
pub struct SourceMap {
    /// The distinct sources, in increasing ID order (`a_1 < … < a_s`).
    sources: Vec<NodeId>,
    /// For each token, the index into `sources` of its origin.
    source_idx_of: Vec<u32>,
    /// For each source index, its tokens in increasing token order.
    tokens_of: Vec<Vec<TokenId>>,
    /// For each source index, the same tokens as a set over `0..k` — the
    /// scope of a request pass
    /// ([`DisseminationCore::refill_within`]).
    token_masks: Vec<TokenSet>,
}

impl SourceMap {
    /// Builds the map from an assignment.
    ///
    /// # Panics
    ///
    /// Panics if some token has no holder or more than one holder (the
    /// multi-source problem gives each token to exactly one source).
    pub fn from_assignment(assignment: &TokenAssignment) -> Self {
        let k = assignment.token_count();
        let mut origin: Vec<NodeId> = Vec::with_capacity(k);
        for t in TokenId::all(k) {
            let holders: Vec<NodeId> = assignment.holders(t).collect();
            assert_eq!(
                holders.len(),
                1,
                "token {t} must have exactly one initial holder, got {}",
                holders.len()
            );
            origin.push(holders[0]);
        }
        let sources: Vec<NodeId> = {
            let set: std::collections::BTreeSet<NodeId> = origin.iter().copied().collect();
            set.into_iter().collect()
        };
        let mut source_idx_of = Vec::with_capacity(k);
        let mut tokens_of = vec![Vec::new(); sources.len()];
        let mut token_masks = vec![TokenSet::new(k); sources.len()];
        for (i, &src) in origin.iter().enumerate() {
            let idx = sources.binary_search(&src).expect("source present");
            let t = TokenId::new(i as u32);
            source_idx_of.push(idx as u32);
            tokens_of[idx].push(t);
            token_masks[idx].insert(t);
        }
        SourceMap {
            sources,
            source_idx_of,
            tokens_of,
            token_masks,
        }
    }

    /// Number of sources `s`.
    pub fn source_count(&self) -> usize {
        self.sources.len()
    }

    /// Number of tokens `k`.
    pub fn token_count(&self) -> usize {
        self.source_idx_of.len()
    }

    /// The sources in increasing ID order.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// The index (rank) of node `x` among the sources, if it is one.
    pub fn index_of(&self, x: NodeId) -> Option<usize> {
        self.sources.binary_search(&x).ok()
    }

    /// The source index (rank) of token `t`.
    pub fn source_index_of(&self, t: TokenId) -> usize {
        self.source_idx_of[t.index()] as usize
    }

    /// The source node of token `t`.
    pub fn source_of(&self, t: TokenId) -> NodeId {
        self.sources[self.source_index_of(t)]
    }

    /// The tokens of the source with index `idx`.
    pub fn tokens_of(&self, idx: usize) -> &[TokenId] {
        &self.tokens_of[idx]
    }

    /// The tokens of the source with index `idx` as a set over `0..k`.
    pub fn token_mask(&self, idx: usize) -> &TokenSet {
        &self.token_masks[idx]
    }
}

/// A node's progress per source: how many of each source's tokens it
/// holds, and `I_v`, the sources it holds every token of, as a source mask
/// (bit `idx % 64` of word `idx / 64`) — the `mine` argument of the
/// ledgers' mask queries.
#[derive(Clone, Debug)]
pub struct SourceProgress {
    have_count: Vec<usize>,
    mine: Vec<u64>,
}

impl SourceProgress {
    /// The progress of a node that holds `know`.
    pub fn new(map: &SourceMap, know: &TokenSet) -> Self {
        let s = map.source_count();
        let mut progress = SourceProgress {
            have_count: vec![0; s],
            mine: vec![0; s.div_ceil(64)],
        };
        for t in know.iter() {
            progress.learn(map, t);
        }
        progress
    }

    /// Counts the newly learned token `t`; returns its source index if `t`
    /// was that source's last missing token.
    pub fn learn(&mut self, map: &SourceMap, t: TokenId) -> Option<usize> {
        let idx = map.source_index_of(t);
        self.have_count[idx] += 1;
        (self.have_count[idx] == map.tokens_of(idx).len()).then(|| {
            self.mine[idx / 64] |= 1 << (idx % 64);
            idx
        })
    }

    /// Whether the source with index `idx` is in `I_v`.
    pub fn complete_wrt(&self, idx: usize) -> bool {
        self.mine[idx / 64] >> (idx % 64) & 1 == 1
    }

    /// `I_v` as a source mask.
    pub fn mine(&self) -> &[u64] {
        &self.mine
    }
}

/// Messages of the Multi-Source-Unicast algorithm.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MsMsg {
    /// "I am complete with respect to source `x`" (type-2 message).
    Completeness(NodeId),
    /// "Please send me token `i`" (type-3 message).
    Request(TokenId),
    /// The requested token (type-1 message).
    Token(TokenId),
}

impl MessagePayload for MsMsg {
    fn token_count(&self) -> usize {
        match self {
            MsMsg::Token(_) => 1,
            _ => 0,
        }
    }

    fn class(&self) -> MessageClass {
        match self {
            MsMsg::Completeness(_) => MessageClass::Completeness,
            MsMsg::Request(_) => MessageClass::Request,
            MsMsg::Token(_) => MessageClass::Token,
        }
    }
}

/// Per-node state of the Multi-Source-Unicast algorithm.
///
/// # Examples
///
/// ```
/// use dynspread_core::multi_source::MultiSourceNode;
/// use dynspread_graph::{oblivious::StaticAdversary, Graph};
/// use dynspread_sim::{SimConfig, TokenAssignment, UnicastSim};
///
/// // Four tokens spread over two sources.
/// let assignment = TokenAssignment::round_robin_sources(5, 4, 2);
/// let (nodes, _map) = MultiSourceNode::nodes(&assignment);
/// let mut sim = UnicastSim::new(
///     "multi-source-unicast",
///     nodes,
///     StaticAdversary::new(Graph::cycle(5)),
///     &assignment,
///     SimConfig::default(),
/// );
/// assert!(sim.run_to_completion().completed);
/// ```
#[derive(Clone, Debug)]
pub struct MultiSourceNode {
    id: NodeId,
    map: Arc<SourceMap>,
    /// `K_v`, the requests in flight and the requests to answer.
    requests: Requests,
    /// Tokens held per source, and `I_v`.
    progress: SourceProgress,
    /// `R_v(x)` / `S_v(x)` of every source `x`, peer-major.
    ledger: CompletenessLedger,
}

impl MultiSourceNode {
    /// Creates node `v` with initial knowledge from `assignment` and the
    /// shared source map.
    ///
    /// The `map` describes token *ownership* (who answers requests as a
    /// source); `assignment` is what each node already holds. They differ
    /// in phase 2 of the oblivious algorithm, where nodes keep the tokens
    /// they saw pass through during the random-walk phase.
    pub fn new(v: NodeId, assignment: &TokenAssignment, map: Arc<SourceMap>) -> Self {
        let n = assignment.node_count();
        assert!(v.index() < n, "node out of range");
        let know = assignment.initial_knowledge(v);
        MultiSourceNode {
            id: v,
            progress: SourceProgress::new(&map, &know),
            requests: Requests::new(DisseminationCore::with_knowledge(know)),
            ledger: CompletenessLedger::new(n, map.source_count()),
            map,
        }
    }

    /// Builds all `n` node protocols plus the shared [`SourceMap`].
    pub fn nodes(assignment: &TokenAssignment) -> (Vec<MultiSourceNode>, Arc<SourceMap>) {
        let map = Arc::new(SourceMap::from_assignment(assignment));
        let nodes = NodeId::all(assignment.node_count())
            .map(|v| MultiSourceNode::new(v, assignment, Arc::clone(&map)))
            .collect();
        (nodes, map)
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is complete w.r.t. the source with index `idx`
    /// (i.e. the source is in `I_v`).
    pub fn complete_wrt(&self, idx: usize) -> bool {
        self.progress.complete_wrt(idx)
    }

    /// Whether the node holds all `k` tokens.
    pub fn is_complete(&self) -> bool {
        self.requests.core().is_complete()
    }
}

impl UnicastProtocol for MultiSourceNode {
    type Msg = MsMsg;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<MsMsg>) {
        let queued = out.len();
        // The three tasks run in parallel (Section 3.2.1); a node may send
        // an announcement, a token, and a request over the same edge in the
        // same round — they are separate messages and metered separately.
        // Task 1: per edge, announce the minimum source the neighbor lacks.
        for &u in neighbors {
            if let Some(idx) = self.ledger.lowest_owed(self.progress.mine(), u) {
                out.send(u, MsMsg::Completeness(self.map.sources()[idx]));
                self.ledger.mark_informed(idx, u);
            }
        }
        // Task 2: answer last round's requests (if still connected and we
        // hold the token).
        self.requests.answer(|asked, know| {
            for &(u, t) in asked {
                if neighbors.binary_search(&u).is_ok() && know.contains(t) {
                    out.send(u, MsMsg::Token(t));
                }
            }
        });
        // Task 3: Algorithm 1's requests for the minimum `x ∉ I_v`, `S_v(x) ≠ ∅`.
        if !self.is_complete() {
            self.requests.open(round, neighbors);
            if let Some(active) = self.ledger.active_source(self.progress.mine()) {
                let ledger = &self.ledger;
                self.requests.assign(
                    round,
                    neighbors,
                    Some(self.map.token_mask(active)),
                    RequestPolicy::Prioritized.passes(),
                    |u| ledger.peer_complete(active, u),
                    |u, t, _| out.send(u, MsMsg::Request(t)),
                );
            }
        }
        // A silent round changed no ledger, no knowledge and no in-flight
        // request, and left no request to answer; those (not edge age,
        // which only orders requests) decide what is sent, so silent stays
        // silent until a neighbor changes or a message arrives.
        self.requests.settle(out.len() == queued, out);
    }

    fn receive(&mut self, _round: Round, from: NodeId, msg: &MsMsg) {
        match msg {
            MsMsg::Completeness(x) => {
                let idx = self
                    .map
                    .index_of(*x)
                    .expect("announced source must be a source");
                // `S_v(·)` only steers task 3.
                if !self.is_complete() {
                    self.ledger.note_peer_complete(idx, from);
                }
            }
            MsMsg::Request(t) => self.requests.receive_request(from, *t),
            MsMsg::Token(t) => {
                if self.requests.receive_token(from, *t) {
                    self.progress.learn(&self.map, *t);
                }
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
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring, StaticAdversary};
    use dynspread_graph::Graph;
    use dynspread_sim::sim::{SimConfig, UnicastSim};

    fn run_multi_source<A>(
        assignment: &TokenAssignment,
        adversary: A,
        max_rounds: Round,
    ) -> dynspread_sim::RunReport
    where
        A: dynspread_sim::adversary::UnicastAdversary<MsMsg>,
    {
        let (nodes, _map) = MultiSourceNode::nodes(assignment);
        let mut sim = UnicastSim::new(
            "multi-source-unicast",
            nodes,
            adversary,
            assignment,
            SimConfig::with_max_rounds(max_rounds),
        );
        sim.run_to_completion()
    }

    #[test]
    fn source_map_partitions_tokens() {
        let a = TokenAssignment::round_robin_sources(8, 10, 3);
        let map = SourceMap::from_assignment(&a);
        assert_eq!(map.source_count(), 3);
        assert_eq!(map.token_count(), 10);
        let total: usize = (0..3).map(|i| map.tokens_of(i).len()).sum();
        assert_eq!(total, 10);
        for t in TokenId::all(10) {
            let idx = map.source_index_of(t);
            assert!(map.tokens_of(idx).contains(&t));
            assert_eq!(map.source_of(t), map.sources()[idx]);
        }
    }

    #[test]
    #[should_panic(expected = "exactly one initial holder")]
    fn source_map_rejects_multi_holder_tokens() {
        let mut a = TokenAssignment::round_robin_sources(4, 3, 2);
        a.add_holder(TokenId::new(0), NodeId::new(3));
        let _ = SourceMap::from_assignment(&a);
    }

    #[test]
    fn message_classes() {
        assert_eq!(
            MsMsg::Completeness(NodeId::new(1)).class(),
            MessageClass::Completeness
        );
        assert_eq!(
            MsMsg::Request(TokenId::new(0)).class(),
            MessageClass::Request
        );
        assert_eq!(MsMsg::Token(TokenId::new(0)).class(), MessageClass::Token);
        assert_eq!(MsMsg::Token(TokenId::new(0)).token_count(), 1);
        assert_eq!(MsMsg::Completeness(NodeId::new(0)).token_count(), 0);
    }

    #[test]
    fn completes_with_two_sources_static() {
        let a = TokenAssignment::round_robin_sources(6, 6, 2);
        let report = run_multi_source(&a, StaticAdversary::new(Graph::path(6)), 100_000);
        assert!(report.completed, "did not complete: {report}");
        // Every non-holder learns every token.
        assert_eq!(report.learnings, (6 * 6 - 6) as u64);
    }

    #[test]
    fn completes_n_gossip_static_clique() {
        let n = 6;
        let a = TokenAssignment::n_gossip(n);
        let report = run_multi_source(&a, StaticAdversary::new(Graph::complete(n)), 100_000);
        assert!(report.completed, "did not complete: {report}");
    }

    #[test]
    fn completes_under_periodic_rewiring() {
        let a = TokenAssignment::round_robin_sources(10, 12, 4);
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 13);
        let report = run_multi_source(&a, adv, 400_000);
        assert!(report.completed, "did not complete: {report}");
    }

    #[test]
    fn completes_under_churn() {
        let a = TokenAssignment::round_robin_sources(9, 9, 3);
        let adv = ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, 41);
        let report = run_multi_source(&a, adv, 400_000);
        assert!(report.completed, "did not complete: {report}");
    }

    #[test]
    fn single_source_special_case_matches_problem() {
        // With s = 1 the algorithm solves the same problem as Algorithm 1.
        let a = TokenAssignment::single_source(7, 5, NodeId::new(0));
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 3);
        let report = run_multi_source(&a, adv, 200_000);
        assert!(report.completed);
        assert_eq!(report.learnings, (5 * 6) as u64);
    }

    #[test]
    fn theorem_3_5_competitive_bound_holds() {
        // M_total ≤ c(n²s + nk) + TC(E), generous c = 4.
        for (n, k, s, seed) in [(8, 8, 2, 1u64), (10, 12, 3, 2), (12, 6, 6, 3)] {
            let a = TokenAssignment::round_robin_sources(n, k, s);
            let adv = PeriodicRewiring::new(Topology::RandomTree, 3, seed);
            let report = run_multi_source(&a, adv, 600_000);
            assert!(report.completed, "n={n} k={k} s={s}: {report}");
            let residual = report.competitive_residual(1.0);
            let bound = 4.0 * ((n * n * s) as f64 + (n * k) as f64);
            assert!(
                residual <= bound,
                "residual {residual} > 4(n²s+nk) = {bound} for n={n}, k={k}, s={s}"
            );
        }
    }

    #[test]
    fn theorem_3_6_round_bound_holds() {
        // O(nk) rounds on 3-edge-stable dynamics; generous constant 10
        // (the sequential per-source phases each pay their own overhead).
        let (n, k, s) = (8, 8, 4);
        let a = TokenAssignment::round_robin_sources(n, k, s);
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 7);
        let report = run_multi_source(&a, adv, 400_000);
        assert!(report.completed);
        assert!(
            report.rounds <= (10 * n * k) as Round,
            "took {} rounds > 10nk = {}",
            report.rounds,
            10 * n * k
        );
    }

    #[test]
    fn token_messages_bounded_by_nk() {
        let (n, k, s) = (9, 10, 3);
        let a = TokenAssignment::round_robin_sources(n, k, s);
        let adv = PeriodicRewiring::new(Topology::RandomTree, 3, 11);
        let report = run_multi_source(&a, adv, 400_000);
        assert!(report.completed);
        assert!(report.class(MessageClass::Token) <= (n * k) as u64);
    }

    #[test]
    fn completeness_messages_bounded_by_n_squared_s() {
        let (n, k, s) = (8, 8, 4);
        let a = TokenAssignment::round_robin_sources(n, k, s);
        let adv = PeriodicRewiring::new(Topology::Gnp(0.4), 3, 19);
        let report = run_multi_source(&a, adv, 400_000);
        assert!(report.completed);
        assert!(report.class(MessageClass::Completeness) <= (n * n * s) as u64);
    }

    #[test]
    fn minimum_source_disseminates_first() {
        // Theorem 3.6's mechanism: all nodes give priority to the minimum
        // incomplete source, so source a_1's tokens finish disseminating
        // (weakly) before a_s's do. We track the first round at which
        // every node is complete w.r.t. each source.
        let (n, k, s) = (10usize, 12usize, 3usize);
        let a = TokenAssignment::round_robin_sources(n, k, s);
        let (nodes, _map) = MultiSourceNode::nodes(&a);
        let mut sim = UnicastSim::new(
            "multi-source-unicast",
            nodes,
            PeriodicRewiring::new(Topology::RandomTree, 3, 23),
            &a,
            SimConfig::with_max_rounds(400_000),
        );
        let mut completion_round = vec![None::<u64>; s];
        while !sim.tracker().all_complete() {
            let round = sim.step();
            for (idx, slot) in completion_round.iter_mut().enumerate() {
                if slot.is_none() && sim.nodes().iter().all(|node| node.complete_wrt(idx)) {
                    *slot = Some(round);
                }
            }
            if round > 300_000 {
                panic!("did not complete");
            }
        }
        let rounds: Vec<u64> = completion_round
            .into_iter()
            .map(|r| r.expect("every source completes"))
            .collect();
        assert!(
            rounds.windows(2).all(|w| w[0] <= w[1]),
            "sources completed out of priority order: {rounds:?}"
        );
    }

    #[test]
    fn sources_complete_wrt_themselves_at_start() {
        let a = TokenAssignment::round_robin_sources(5, 6, 2);
        let (nodes, map) = MultiSourceNode::nodes(&a);
        // Node 0 (source a_1) complete w.r.t. itself, not w.r.t. a_2.
        assert!(nodes[0].complete_wrt(0));
        assert!(!nodes[0].complete_wrt(1));
        assert!(nodes[1].complete_wrt(1));
        assert!(!nodes[2].complete_wrt(0));
        assert_eq!(map.sources(), &[NodeId::new(0), NodeId::new(1)]);
    }
}
