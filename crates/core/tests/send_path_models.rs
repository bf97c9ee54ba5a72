//! Model-based tests of the unicast send path: the word-level request
//! assigner of `DisseminationCore` against the `Vec<TokenId>` queue it
//! replaced, the sorted-slot `EdgeTracker` against the `BTreeMap` it
//! replaced, and `Requests` against the glue the two round-based nodes
//! wrote around a core and a tracker before it. Each reference is the old
//! implementation reduced to what the public API observes; the two must
//! agree after every operation of a random sequence.

use dynspread_core::dissemination::{DisseminationCore, Requests};
use dynspread_core::edge_history::{EdgeCategory, EdgeTracker};
use dynspread_core::single_source::RequestPolicy;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::protocol::Outbox;
use dynspread_sim::token::{TokenId, TokenSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// The assigner as it was: a queue of requestable tokens rebuilt by every
/// refill and consumed front to back.
struct QueueAssigner {
    know: TokenSet,
    in_flight: TokenSet,
    queue: Vec<TokenId>,
    cursor: usize,
}

impl QueueAssigner {
    fn new(know: TokenSet) -> Self {
        QueueAssigner {
            in_flight: TokenSet::new(know.universe()),
            know,
            queue: Vec::new(),
            cursor: 0,
        }
    }

    fn requestable(&self, t: TokenId) -> bool {
        !self.know.contains(t) && !self.in_flight.contains(t)
    }

    fn refill_from(&mut self, candidates: impl Iterator<Item = TokenId>) {
        self.queue = candidates.filter(|&t| self.requestable(t)).collect();
        self.cursor = 0;
    }

    fn refill(&mut self) {
        self.refill_from(TokenId::all(self.know.universe()));
    }

    fn has_assignable(&self) -> bool {
        self.cursor < self.queue.len()
    }

    fn assign_next(&mut self) -> Option<TokenId> {
        let t = *self.queue.get(self.cursor)?;
        self.cursor += 1;
        self.in_flight.insert(t);
        Some(t)
    }
}

/// One step of an assigner sequence; token arguments are reduced modulo
/// the universe when the step is applied.
#[derive(Clone, Debug)]
enum AssignerOp {
    Accept(u32),
    Release(u32),
    Refill,
    RefillWithin(BTreeSet<u32>),
    Assign,
}

fn assigner_op() -> impl Strategy<Value = AssignerOp> {
    let scope = || prop::collection::btree_set(0u32..192, 0..40);
    prop_oneof![
        (0u32..192).prop_map(AssignerOp::Accept),
        (0u32..192).prop_map(AssignerOp::Release),
        Just(AssignerOp::Refill),
        scope().prop_map(AssignerOp::RefillWithin),
        // Assignments dominate, as they do in a send sweep.
        Just(AssignerOp::Assign),
        Just(AssignerOp::Assign),
        Just(AssignerOp::Assign),
    ]
}

/// The distinct tokens `raw % k`, in increasing order (empty when `k = 0`).
fn tokens_in_universe(raw: &BTreeSet<u32>, k: usize) -> Vec<TokenId> {
    if k == 0 {
        return Vec::new();
    }
    let reduced: BTreeSet<u32> = raw.iter().map(|t| t % k as u32).collect();
    reduced.into_iter().map(TokenId::new).collect()
}

/// The reference `EdgeTracker`: an ordered map of per-edge slots, walked
/// per neighbor on every refresh.
#[derive(Default)]
struct MapTracker {
    slots: BTreeMap<NodeId, MapSlot>,
    prev_neighbors: Vec<NodeId>,
}

#[derive(Default)]
struct MapSlot {
    last_seen: Option<Round>,
    inserted_round: Round,
    contributive: bool,
    pending: VecDeque<TokenId>,
}

impl MapTracker {
    fn refresh(&mut self, round: Round, neighbors: &[NodeId], in_flight: &mut TokenSet) {
        for u in std::mem::take(&mut self.prev_neighbors) {
            if neighbors.binary_search(&u).is_err() {
                if let Some(slot) = self.slots.remove(&u) {
                    for t in slot.pending {
                        in_flight.remove(t);
                    }
                }
            }
        }
        for &u in neighbors {
            let slot = self.slots.entry(u).or_default();
            if slot.last_seen != Some(round.wrapping_sub(1)) {
                slot.inserted_round = round;
                slot.contributive = false;
                for t in slot.pending.drain(..) {
                    in_flight.remove(t);
                }
            }
            slot.last_seen = Some(round);
        }
        self.prev_neighbors = neighbors.to_vec();
    }

    fn classify(&self, u: NodeId, round: Round) -> EdgeCategory {
        let (inserted_round, contributive) = self
            .slots
            .get(&u)
            .map_or((0, false), |s| (s.inserted_round, s.contributive));
        if inserted_round + 1 >= round {
            EdgeCategory::New
        } else if contributive {
            EdgeCategory::Contributive
        } else {
            EdgeCategory::Idle
        }
    }

    fn note_token(&mut self, u: NodeId) {
        self.slots.entry(u).or_default().contributive = true;
    }

    fn push_pending(&mut self, u: NodeId, t: TokenId) {
        self.slots.entry(u).or_default().pending.push_back(t);
    }

    fn has_pending(&self, u: NodeId) -> bool {
        self.slots.get(&u).is_some_and(|s| !s.pending.is_empty())
    }

    fn retire_pending(&mut self, u: NodeId, t: TokenId) -> bool {
        let Some(slot) = self.slots.get_mut(&u) else {
            return false;
        };
        match slot.pending.iter().position(|p| *p == t) {
            Some(pos) => slot.pending.remove(pos).is_some(),
            None => false,
        }
    }

    fn clear_all_pending(&mut self, in_flight: &mut TokenSet) {
        for slot in self.slots.values_mut() {
            for t in slot.pending.drain(..) {
                in_flight.remove(t);
            }
        }
    }
}

/// Node IDs and tokens of the tracker sequences: small, so that edges
/// reappear and requests collide.
const TRACKER_NODES: u32 = 12;
const TRACKER_TOKENS: u32 = 70;

#[derive(Clone, Debug)]
enum TrackerOp {
    /// Advance the round by `1 + skip` and refresh with this neighbor set
    /// (`None`: the same list as the last refresh).
    Refresh {
        skip: u64,
        neighbors: Option<BTreeSet<u32>>,
    },
    /// A parked stretch: `gap` rounds pass with the neighbor list standing
    /// still and no refresh, then the tracker is resumed and refreshed
    /// with this neighbor set (`None`: still the same list). The reference
    /// is refreshed in every one of those rounds, as a node that never
    /// parks would be.
    ResumeAfter {
        gap: u64,
        neighbors: Option<BTreeSet<u32>>,
    },
    NoteToken(u32),
    PushPending(u32, u32),
    RetirePending(u32, u32),
    ClearAllPending,
}

fn tracker_op() -> impl Strategy<Value = TrackerOp> {
    let node = || 0u32..TRACKER_NODES;
    let token = || 0u32..TRACKER_TOKENS;
    let neighbors = || prop::collection::btree_set(node(), 0..8);
    // Mostly consecutive rounds; sometimes a gap (which, without a
    // `resume`, must reinsert every edge).
    let skip = || prop_oneof![Just(0u64), Just(0u64), Just(0u64), 0u64..3];
    prop_oneof![
        (skip(), neighbors()).prop_map(|(skip, n)| TrackerOp::Refresh {
            skip,
            neighbors: Some(n)
        }),
        skip().prop_map(|skip| TrackerOp::Refresh {
            skip,
            neighbors: None
        }),
        (0u64..5, neighbors()).prop_map(|(gap, n)| TrackerOp::ResumeAfter {
            gap,
            neighbors: Some(n)
        }),
        (0u64..5).prop_map(|gap| TrackerOp::ResumeAfter {
            gap,
            neighbors: None
        }),
        node().prop_map(TrackerOp::NoteToken),
        (node(), token()).prop_map(|(u, t)| TrackerOp::PushPending(u, t)),
        (node(), token()).prop_map(|(u, t)| TrackerOp::PushPending(u, t)),
        (node(), token()).prop_map(|(u, t)| TrackerOp::RetirePending(u, t)),
        Just(TrackerOp::ClearAllPending),
    ]
}

/// The round-model request side as `SingleSourceNode` and
/// `MultiSourceNode` each wrote it before `Requests`: a core, a tracker,
/// the two answer buffers and the parked flag, driven in the nodes' order.
struct NodeGlue {
    core: DisseminationCore,
    edges: EdgeTracker,
    requests_arriving: Vec<(NodeId, TokenId)>,
    requests_to_answer: Vec<(NodeId, TokenId)>,
    parked: bool,
}

impl NodeGlue {
    fn new(core: DisseminationCore) -> Self {
        NodeGlue {
            core,
            edges: EdgeTracker::new(),
            requests_arriving: Vec::new(),
            requests_to_answer: Vec::new(),
            parked: false,
        }
    }

    /// The head of `send`.
    fn open(&mut self, round: Round, neighbors: &[NodeId]) {
        if std::mem::take(&mut self.parked) {
            self.edges.resume(round);
        }
        self.edges
            .refresh(round, neighbors, self.core.in_flight_mut());
    }

    /// The answering half of `send`: read the requests, then drop them.
    fn answer(&mut self) -> Vec<(NodeId, TokenId)> {
        let asked = self.requests_to_answer.clone();
        self.requests_to_answer.clear();
        asked
    }

    /// `send_incomplete` / `send_requests`, returning what they sent and
    /// the category each request was counted under.
    fn assign(
        &mut self,
        round: Round,
        neighbors: &[NodeId],
        scope: Option<&TokenSet>,
        passes: &[Option<EdgeCategory>],
        eligible: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, TokenId, EdgeCategory)> {
        match scope {
            Some(scope) => self.core.refill_within(scope),
            None => self.core.refill(),
        }
        let mut sent = Vec::new();
        if self.core.has_assignable() {
            'outer: for &category in passes {
                for &u in neighbors {
                    if !self.core.has_assignable() {
                        break 'outer;
                    }
                    if !eligible(u) {
                        continue;
                    }
                    if let Some(c) = category {
                        if self.edges.classify(u, round) != c {
                            continue;
                        }
                    }
                    let t = self.core.assign_next().expect("has_assignable");
                    self.edges.push_pending(u, t);
                    sent.push((u, t, self.edges.classify(u, round)));
                }
            }
        }
        sent
    }

    /// The tail of `send`.
    fn settle(&mut self, silent: bool) -> bool {
        self.parked = silent && self.requests_to_answer.is_empty();
        self.parked
    }

    fn receive_token(&mut self, from: NodeId, t: TokenId) -> bool {
        let new = self.core.accept_token(t);
        self.edges.note_token(from);
        if self.edges.retire_pending(from, t) {
            self.core.release(t);
        }
        new
    }

    /// `end_round`.
    fn close(&mut self) {
        std::mem::swap(&mut self.requests_to_answer, &mut self.requests_arriving);
        self.requests_arriving.clear();
        if self.core.is_complete() {
            self.edges.clear_all_pending(self.core.in_flight_mut());
        }
    }
}

/// A delivery after `send`; token arguments are reduced modulo `k`.
#[derive(Clone, Debug)]
enum Delivery {
    Request(u32, u32),
    Token(u32, u32),
    /// The token of this round's `i`-th request (modulo their number)
    /// arrives over its edge.
    Answer(usize),
}

/// One round of a node: `send` (open, maybe answer, assign, settle), the
/// deliveries, and `end_round` unless the node parked and heard nothing.
#[derive(Clone, Debug)]
struct NodeRound {
    /// Rounds skipped while parked (ignored unless the node parked).
    gap: u64,
    /// The neighbor set (`None`: unchanged).
    neighbors: Option<BTreeSet<u32>>,
    /// The assignment pass's scope (`None`: every token).
    scope: Option<BTreeSet<u32>>,
    prioritized: bool,
    /// Neighbors known complete.
    eligible: BTreeSet<u32>,
    answers: bool,
    /// Whether `send` parks even if it sent (a complete node does).
    quiet: bool,
    deliveries: Vec<Delivery>,
}

fn node_round() -> impl Strategy<Value = NodeRound> {
    let node = || 0u32..TRACKER_NODES;
    let token = || 0u32..192;
    let delivery = prop_oneof![
        (node(), token()).prop_map(|(u, t)| Delivery::Request(u, t)),
        (node(), token()).prop_map(|(u, t)| Delivery::Token(u, t)),
        (0usize..8).prop_map(Delivery::Answer),
        (0usize..8).prop_map(Delivery::Answer),
    ];
    (
        (
            0u64..4,
            prop::option::of(prop::collection::btree_set(node(), 0..8)),
        ),
        (
            prop::option::of(prop::collection::btree_set(token(), 0..60)),
            prop::bool::ANY,
            prop::collection::btree_set(node(), 0..TRACKER_NODES as usize),
        ),
        (prop::bool::ANY, prop::bool::ANY),
        prop::collection::vec(delivery, 0..6),
    )
        .prop_map(
            |((gap, neighbors), (scope, prioritized, eligible), (answers, quiet), deliveries)| {
                NodeRound {
                    gap,
                    neighbors,
                    scope,
                    prioritized,
                    eligible,
                    answers,
                    quiet,
                    deliveries,
                }
            },
        )
}

/// `Requests` and the glue agree on `K_v`, the in-flight set and every
/// edge's category now and in the next two rounds.
fn same_state(requests: &Requests, glue: &NodeGlue, k: usize, round: Round) {
    assert_eq!(requests.core().known_tokens(), glue.core.known_tokens());
    for t in TokenId::all(k) {
        assert_eq!(requests.core().in_flight(t), glue.core.in_flight(t), "{t}");
    }
    for u in NodeId::all(TRACKER_NODES as usize) {
        for r in [round, round + 1, round + 2] {
            assert_eq!(
                requests.classify(u, r),
                glue.edges.classify(u, r),
                "{u} in {r}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn word_assigner_matches_the_queue_it_replaced(
        k in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), Just(192)],
        initial in prop::collection::btree_set(0u32..192, 0..100),
        ops in prop::collection::vec(assigner_op(), 0..120),
    ) {
        let mut know = TokenSet::new(k);
        for t in tokens_in_universe(&initial, k) {
            know.insert(t);
        }
        let mut core = DisseminationCore::with_knowledge(know.clone());
        let mut model = QueueAssigner::new(know);
        for op in ops {
            match op {
                AssignerOp::Accept(_) | AssignerOp::Release(_) if k == 0 => {}
                AssignerOp::Accept(t) => {
                    let t = TokenId::new(t % k as u32);
                    prop_assert_eq!(core.accept_token(t), model.know.insert(t));
                }
                AssignerOp::Release(t) => {
                    let t = TokenId::new(t % k as u32);
                    core.release(t);
                    model.in_flight.remove(t);
                }
                AssignerOp::Refill => {
                    core.refill();
                    model.refill();
                }
                AssignerOp::RefillWithin(raw) => {
                    let scope = tokens_in_universe(&raw, k);
                    let mut mask = TokenSet::new(k);
                    for &t in &scope {
                        mask.insert(t);
                    }
                    core.refill_within(&mask);
                    model.refill_from(scope.into_iter());
                }
                AssignerOp::Assign => {
                    prop_assert_eq!(core.assign_next(), model.assign_next());
                }
            }
            prop_assert_eq!(core.has_assignable(), model.has_assignable());
            prop_assert_eq!(core.known_tokens(), &model.know);
            prop_assert_eq!(core.is_complete(), model.know.is_full());
            for t in TokenId::all(k) {
                prop_assert_eq!(core.in_flight(t), model.in_flight.contains(t), "{}", t);
            }
        }
    }

    #[test]
    fn sorted_slot_tracker_matches_the_map_it_replaced(
        ops in prop::collection::vec(tracker_op(), 0..150),
    ) {
        let mut tracker = EdgeTracker::new();
        let mut model = MapTracker::default();
        let mut in_flight = TokenSet::new(TRACKER_TOKENS as usize);
        let mut model_in_flight = in_flight.clone();
        let mut round: Round = 0;
        let mut last_neighbors: Vec<NodeId> = Vec::new();
        for op in ops {
            match op {
                TrackerOp::Refresh { skip, neighbors } => {
                    round += 1 + skip;
                    if let Some(set) = neighbors {
                        last_neighbors = set.into_iter().map(NodeId::new).collect();
                    }
                    tracker.refresh(round, &last_neighbors, &mut in_flight);
                    model.refresh(round, &last_neighbors, &mut model_in_flight);
                }
                TrackerOp::ResumeAfter { gap, neighbors } => {
                    for _ in 0..gap {
                        round += 1;
                        model.refresh(round, &last_neighbors, &mut model_in_flight);
                    }
                    round += 1;
                    if let Some(set) = neighbors {
                        last_neighbors = set.into_iter().map(NodeId::new).collect();
                    }
                    tracker.resume(round);
                    tracker.refresh(round, &last_neighbors, &mut in_flight);
                    model.refresh(round, &last_neighbors, &mut model_in_flight);
                }
                TrackerOp::NoteToken(u) => {
                    tracker.note_token(NodeId::new(u));
                    model.note_token(NodeId::new(u));
                }
                TrackerOp::PushPending(u, t) => {
                    // As the nodes do: the request's token goes in flight.
                    let (u, t) = (NodeId::new(u), TokenId::new(t));
                    in_flight.insert(t);
                    model_in_flight.insert(t);
                    tracker.push_pending(u, t);
                    model.push_pending(u, t);
                }
                TrackerOp::RetirePending(u, t) => {
                    let (u, t) = (NodeId::new(u), TokenId::new(t));
                    prop_assert_eq!(tracker.retire_pending(u, t), model.retire_pending(u, t));
                }
                TrackerOp::ClearAllPending => {
                    tracker.clear_all_pending(&mut in_flight);
                    model.clear_all_pending(&mut model_in_flight);
                }
            }
            prop_assert_eq!(&in_flight, &model_in_flight);
            for u in NodeId::all(TRACKER_NODES as usize) {
                prop_assert_eq!(tracker.has_pending(u), model.has_pending(u), "{}", u);
                for r in [round, round + 1, round + 2] {
                    prop_assert_eq!(tracker.classify(u, r), model.classify(u, r), "{} in {}", u, r);
                }
            }
        }
    }

    #[test]
    fn requests_match_the_node_glue_they_replaced(
        k in prop_oneof![Just(1usize), Just(5), Just(70)],
        initial in prop::collection::btree_set(0u32..192, 0..60),
        rounds in prop::collection::vec(node_round(), 0..60),
    ) {
        let mut know = TokenSet::new(k);
        for t in tokens_in_universe(&initial, k) {
            know.insert(t);
        }
        let mut requests = Requests::new(DisseminationCore::with_knowledge(know.clone()));
        let mut glue = NodeGlue::new(DisseminationCore::with_knowledge(know));
        let tid = |t: u32| TokenId::new(t % k as u32);
        let (mut round, mut skip): (Round, u64) = (0, 0);
        let mut neighbors: Vec<NodeId> = Vec::new();
        for step in rounds {
            round += 1 + skip;
            if let Some(set) = step.neighbors {
                neighbors = set.into_iter().map(NodeId::new).collect();
            }
            requests.open(round, &neighbors);
            glue.open(round, &neighbors);
            same_state(&requests, &glue, k, round);
            if step.answers {
                let mut seen = None;
                requests.answer(|asked, know| seen = Some((asked.to_vec(), know.clone())));
                let (asked, know) = seen.expect("answer calls back");
                prop_assert_eq!(asked, glue.answer());
                prop_assert_eq!(&know, glue.core.known_tokens());
            }
            let scope = step.scope.map(|raw| {
                let mut mask = TokenSet::new(k);
                for t in tokens_in_universe(&raw, k) {
                    mask.insert(t);
                }
                mask
            });
            let policy = if step.prioritized {
                RequestPolicy::Prioritized
            } else {
                RequestPolicy::Unprioritized
            };
            let eligible = |u: NodeId| step.eligible.contains(&u.value());
            let mut sent = Vec::new();
            requests.assign(round, &neighbors, scope.as_ref(), policy.passes(), eligible, |u, t, c| {
                sent.push((u, t, c))
            });
            let glue_sent = glue.assign(round, &neighbors, scope.as_ref(), policy.passes(), eligible);
            prop_assert_eq!(&sent, &glue_sent);
            same_state(&requests, &glue, k, round);
            let silent = step.quiet || sent.is_empty();
            let mut out = Outbox::<()>::new();
            requests.settle(silent, &mut out);
            let parked = out.take_parked();
            prop_assert_eq!(parked, glue.settle(silent));
            for delivery in &step.deliveries {
                let (from, t) = match *delivery {
                    Delivery::Request(u, t) => {
                        requests.receive_request(NodeId::new(u), tid(t));
                        glue.requests_arriving.push((NodeId::new(u), tid(t)));
                        continue;
                    }
                    Delivery::Token(u, t) => (NodeId::new(u), tid(t)),
                    Delivery::Answer(_) if sent.is_empty() => continue,
                    Delivery::Answer(i) => (sent[i % sent.len()].0, sent[i % sent.len()].1),
                };
                prop_assert_eq!(requests.receive_token(from, t), glue.receive_token(from, t));
                same_state(&requests, &glue, k, round);
            }
            // A node that parked runs `end_round` only if a delivery woke
            // it; otherwise it sleeps through `gap` rounds.
            let woken = !parked || !step.deliveries.is_empty();
            if woken {
                requests.close();
                glue.close();
                same_state(&requests, &glue, k, round);
            }
            skip = if woken { 0 } else { step.gap };
        }
    }
}
