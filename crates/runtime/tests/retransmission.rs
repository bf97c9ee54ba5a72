//! Property tests of the async ports' retransmission invariants:
//!
//! * **No token is ever un-received** — a node's knowledge is monotone:
//!   random operation sequences on the shared `DisseminationCore` never
//!   shrink it, and full executions never record a duplicate or
//!   out-of-order learning.
//! * **Dedup means at-most-once application** — under arbitrary loss,
//!   duplication, and jitter the tracker observes *exactly* `k(n−1)`
//!   learnings: every duplicate delivery (link-level or
//!   retransmission-level) is absorbed.
//! * **Ack state is monotone** — `R_v` (the acked-announcement set) and
//!   `S_v` only ever grow, and the backoff pacer's delays stay within
//!   `[base, max]`, doubling without progress and resetting with it.
//! * **The request side is the glue it replaced** — `protocol::Requests`
//!   against the bookkeeping `AsyncSingleSource` and `AsyncMultiSource`
//!   each wrote around a `DisseminationCore` and a per-neighbor window
//!   before it (written out below over a plain map), driven through the
//!   same random requests, heartbeats (sweep, retransmit or retire,
//!   assign), token arrivals and forgets, agreeing after every step.

use dynspread_core::dissemination::{CompletenessLedger, DisseminationCore};
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_runtime::engine::{EventSim, StopReason};
use dynspread_runtime::link::{LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::{AsyncConfig, AsyncSingleSource, Requests, Retransmitter};
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// End-to-end at-most-once application: a lossy + duplicating +
    /// jittery link delivers arbitrary copy multisets, yet the learning
    /// log holds exactly one ⟨node, token⟩ entry per required learning,
    /// in nondecreasing epoch order (knowledge never regresses).
    #[test]
    fn lossy_duplicating_runs_apply_each_token_at_most_once(
        n in 3usize..12,
        k in 1usize..8,
        drop_centi in 0u64..50,
        dup_centi in 0u64..40,
        jitter in 0u64..3,
        seed in 0u64..500,
    ) {
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        let link = PerfectLink
            .duplicating(dup_centi as f64 / 100.0)
            .lossy(drop_centi as f64 / 100.0)
            .with_jitter(jitter);
        let mut sim = EventSim::with_tracking(
            AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
            PeriodicRewiring::new(Topology::RandomTree, 3, seed),
            link,
            2,
            seed ^ 0xFACE,
            &assignment,
        );
        let report = sim.run(1_000_000);
        prop_assert_eq!(report.stopped, StopReason::Complete, "{}", report);
        prop_assert_eq!(report.learnings, (k * (n - 1)) as u64);
        let tracker = sim.tracker().expect("tracking enabled");
        let mut seen = BTreeSet::new();
        let mut last_round = 0;
        for l in tracker.log() {
            prop_assert!(seen.insert((l.node, l.token)), "duplicate learning {:?}", l);
            prop_assert!(l.round >= last_round, "learning log went backwards");
            last_round = l.round;
        }
        // Dedup bookkeeping is consistent: every duplicate token delivery
        // was counted, none was applied.
        for v in NodeId::all(n) {
            prop_assert!(tracker.knowledge(v).is_full());
        }
    }

    /// Knowledge monotonicity of the shared decision core under random
    /// accept/release/assign interleavings: the known set only grows, a
    /// second application of the same token always reports `false`, and
    /// one assignment pass never hands out the same token twice.
    #[test]
    fn core_knowledge_is_monotone_and_assignment_distinct(
        k in 1usize..40,
        ops in prop::collection::vec((0u8..4, 0u32..40), 1..120),
    ) {
        let assignment = TokenAssignment::single_source(2, k, NodeId::new(0));
        let mut core = DisseminationCore::from_assignment(NodeId::new(1), &assignment);
        let mut applied = BTreeSet::new();
        let mut last_count = 0usize;
        for (op, raw) in ops {
            let t = TokenId::new(raw % k as u32);
            match op {
                0 => {
                    let newly = core.accept_token(t);
                    prop_assert_eq!(newly, applied.insert(t), "at-most-once violated");
                }
                1 => core.release(t),
                2 => {
                    core.refill();
                    let mut pass = BTreeSet::new();
                    while let Some(t) = core.assign_next() {
                        prop_assert!(pass.insert(t), "pass assigned {} twice", t);
                        prop_assert!(!applied.contains(&t), "requested a held token");
                    }
                }
                _ => {
                    // A lone assignment (async port's per-neighbor path).
                    core.refill();
                    if let Some(t) = core.assign_next() {
                        prop_assert!(!applied.contains(&t));
                    }
                }
            }
            let count = core.known_tokens().count();
            prop_assert!(count >= last_count, "knowledge shrank");
            last_count = count;
            prop_assert_eq!(count, applied.len());
        }
    }

    /// Ack-state monotonicity: arbitrary interleavings of announcements
    /// and acks only ever grow `S_v` and `R_v`; repeats are never news.
    #[test]
    fn ledger_ack_state_is_monotone(
        n in 1usize..20,
        ops in prop::collection::vec((prop::bool::ANY, 0u32..20), 1..100),
    ) {
        let mut ledger = CompletenessLedger::new(n, 1);
        let mut complete = BTreeSet::new();
        let mut informed = BTreeSet::new();
        for (is_ack, raw) in ops {
            let u = NodeId::new(raw % n as u32);
            if is_ack {
                prop_assert_eq!(ledger.mark_informed(0, u), informed.insert(u));
            } else {
                prop_assert_eq!(ledger.note_peer_complete(0, u), complete.insert(u));
            }
            // Monotone: everything ever recorded is still recorded.
            for &v in &complete {
                prop_assert!(ledger.peer_complete(0, v));
            }
            prop_assert_eq!(ledger.informed_count(), informed.len());
        }
    }

    /// Backoff pacing: delays stay within `[base, max]`, are nondecreasing
    /// while no progress is noted, and snap back to `base` on progress.
    #[test]
    fn backoff_delays_are_bounded_and_reset_on_progress(
        base in 1u64..8,
        span in 0u64..6,
        progress_at in prop::collection::vec(prop::bool::ANY, 1..40),
    ) {
        let max = base << span;
        let mut pacer = Retransmitter::new(AsyncConfig {
            base_interval: base,
            max_interval: max,
        });
        let mut prev = base;
        for made_progress in progress_at {
            if made_progress {
                pacer.note_progress();
            }
            let d = pacer.next_delay();
            prop_assert!((base..=max).contains(&d), "delay {} outside [{}, {}]", d, base, max);
            if made_progress {
                prop_assert_eq!(d, base, "progress must reset the interval");
            } else {
                prop_assert!(d >= prev.min(max), "interval shrank without progress");
            }
            prev = d;
        }
    }
}

/// Deterministic end-to-end check of the ack-monotonicity claim: under a
/// perfect link every node's acked-peer count only grows, and the run's
/// retransmission counters stay zero (nothing to retransmit when nothing
/// is lost and the cascade outruns every heartbeat).
#[test]
fn perfect_zero_latency_run_needs_no_retransmission() {
    let (n, k) = (10, 6);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let mut sim = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        PerfectLink,
        1,
        4,
        &assignment,
    );
    let report = sim.run(100_000);
    assert_eq!(report.stopped, StopReason::Complete, "{report}");
    assert_eq!(report.learnings, (k * (n - 1)) as u64);
    for v in NodeId::all(n) {
        let node = sim.node(v);
        assert_eq!(
            node.retransmitted_requests(),
            0,
            "{v}: zero-latency cascade completes before any heartbeat"
        );
        assert_eq!(node.duplicate_tokens(), 0, "{v}: nothing duplicates");
        assert!(node.acked_peers() < n);
        assert!(node.is_complete());
    }
}

/// Node IDs of the request-side model: few, so requests collide.
const NODES: u32 = 10;

/// The ports' request glue: a core beside a window map, in their order.
struct PortGlue {
    core: DisseminationCore,
    window: BTreeMap<NodeId, TokenId>,
}

impl PortGlue {
    fn refill(&mut self, scope: Option<&TokenSet>) {
        match scope {
            Some(scope) => self.core.refill_within(scope),
            None => self.core.refill(),
        }
    }

    /// `assign_to`: from the current pass, if the window is free.
    fn assign_to(&mut self, u: NodeId) -> Option<TokenId> {
        if self.window.contains_key(&u) {
            return None;
        }
        let t = self.core.assign_next()?;
        self.window.insert(u, t);
        Some(t)
    }

    /// `try_request`: a fresh pass, then `assign_to`.
    fn try_request(&mut self, u: NodeId, scope: Option<&TokenSet>) -> Option<TokenId> {
        if self.window.contains_key(&u) {
            return None;
        }
        self.refill(scope);
        self.assign_to(u)
    }

    fn close(&mut self, u: NodeId, t: TokenId) {
        if self.window.get(&u) == Some(&t) {
            self.window.remove(&u);
        }
    }

    /// The `Token` handler's bookkeeping: close, release, accept.
    fn token(&mut self, from: NodeId, t: TokenId) -> bool {
        self.close(from, t);
        self.core.release(t);
        self.core.accept_token(t)
    }

    /// Completion and amnesia: `window.clear_all(|t| core.release(t))`.
    fn clear_all(&mut self) {
        for (_, t) in std::mem::take(&mut self.window) {
            self.core.release(t);
        }
    }

    /// The heartbeat: sweep stale windows, refill (unless `refill` is
    /// `None`: a multi-source node without an active source), then per
    /// neighbor retire or retransmit its open request, else assign if
    /// `eligible`. Returns `(neighbor, token, retransmitted)` per send.
    fn heartbeat(
        &mut self,
        neighbors: &[NodeId],
        refill: Option<Option<&TokenSet>>,
        eligible: impl Fn(NodeId) -> bool,
    ) -> Vec<(NodeId, TokenId, bool)> {
        let core = &mut self.core;
        self.window.retain(|u, t| {
            let live = neighbors.binary_search(u).is_ok();
            if !live {
                core.release(*t);
            }
            live
        });
        if let Some(scope) = refill {
            self.refill(scope);
        }
        let mut sent = Vec::new();
        for &u in neighbors {
            if let Some(&t) = self.window.get(&u) {
                if self.core.known_tokens().contains(t) {
                    self.close(u, t);
                    self.core.release(t);
                } else {
                    sent.push((u, t, true));
                    continue;
                }
            }
            if refill.is_some() && eligible(u) {
                if let Some(t) = self.assign_to(u) {
                    sent.push((u, t, false));
                }
            }
        }
        sent
    }
}

/// The same heartbeat through `Requests`, as the ports now run it.
fn heartbeat(
    requests: &mut Requests,
    neighbors: &[NodeId],
    refill: Option<Option<&TokenSet>>,
    eligible: impl Fn(NodeId) -> bool,
) -> Vec<(NodeId, TokenId, bool)> {
    requests.sweep(neighbors);
    if let Some(scope) = refill {
        requests.refill(scope);
    }
    let mut sent = Vec::new();
    for &u in neighbors {
        if let Some(t) = requests.resend(u) {
            sent.push((u, t, true));
            continue;
        }
        if refill.is_some() && eligible(u) {
            if let Some(t) = requests.assign(u) {
                sent.push((u, t, false));
            }
        }
    }
    sent
}

/// Token `t` arrives from `from` on both sides, as a port's `Token`
/// handler takes it: a port that just completed drops its requests.
fn deliver(requests: &mut Requests, glue: &mut PortGlue, from: NodeId, t: TokenId) {
    assert_eq!(requests.receive_token(from, t), glue.token(from, t));
    if glue.core.is_complete() {
        requests.forget();
        glue.clear_all();
    }
}

/// One step; token arguments are reduced modulo `k`.
#[derive(Clone, Debug)]
enum PortOp {
    /// A message-triggered request to a neighbor, over `scope` (`None`:
    /// every token).
    Request(u32, Option<BTreeSet<u32>>),
    Heartbeat {
        neighbors: BTreeSet<u32>,
        refill: Option<Option<BTreeSet<u32>>>,
        eligible: BTreeSet<u32>,
    },
    Token(u32, u32),
    /// The token of the `i`-th open request (modulo their number) arrives
    /// from the neighbor it was asked of.
    Answer(usize),
    Forget,
}

fn port_op() -> impl Strategy<Value = PortOp> {
    let node = || 0u32..NODES;
    let scope = || prop::option::of(prop::collection::btree_set(0u32..192, 0..60));
    let nodes = || prop::collection::btree_set(node(), 0..NODES as usize);
    prop_oneof![
        (node(), scope()).prop_map(|(u, scope)| PortOp::Request(u, scope)),
        (node(), scope()).prop_map(|(u, scope)| PortOp::Request(u, scope)),
        (nodes(), prop::option::of(scope()), nodes()).prop_map(|(neighbors, refill, eligible)| {
            PortOp::Heartbeat {
                neighbors,
                refill,
                eligible,
            }
        }),
        (node(), 0u32..192).prop_map(|(u, t)| PortOp::Token(u, t)),
        (0usize..8).prop_map(PortOp::Answer),
        (0usize..8).prop_map(PortOp::Answer),
        Just(PortOp::Forget),
    ]
}

/// The token set `raw % k` over `0..k`.
fn mask(raw: &BTreeSet<u32>, k: usize) -> TokenSet {
    let mut set = TokenSet::new(k);
    for &t in raw {
        set.insert(TokenId::new(t % k as u32));
    }
    set
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn requests_match_the_port_glue_they_replaced(
        k in prop_oneof![Just(1usize), Just(5), Just(70)],
        initial in prop::collection::btree_set(0u32..192, 0..60),
        ops in prop::collection::vec(port_op(), 0..120),
    ) {
        let know = mask(&initial, k);
        let mut requests = Requests::new(DisseminationCore::with_knowledge(know.clone()));
        let mut glue = PortGlue {
            core: DisseminationCore::with_knowledge(know),
            window: BTreeMap::new(),
        };
        for op in ops {
            match op {
                PortOp::Request(u, scope) => {
                    let (u, scope) = (NodeId::new(u), scope.map(|raw| mask(&raw, k)));
                    prop_assert_eq!(
                        requests.request(u, scope.as_ref()),
                        glue.try_request(u, scope.as_ref())
                    );
                }
                PortOp::Heartbeat { neighbors, refill, eligible } => {
                    let neighbors: Vec<NodeId> = neighbors.into_iter().map(NodeId::new).collect();
                    let refill = refill.map(|scope| scope.map(|raw| mask(&raw, k)));
                    let refill = refill.as_ref().map(Option::as_ref);
                    let eligible = |u: NodeId| eligible.contains(&u.value());
                    prop_assert_eq!(
                        heartbeat(&mut requests, &neighbors, refill, eligible),
                        glue.heartbeat(&neighbors, refill, eligible)
                    );
                }
                PortOp::Token(u, t) => {
                    deliver(&mut requests, &mut glue, NodeId::new(u), TokenId::new(t % k as u32));
                }
                PortOp::Answer(i) => {
                    let open = glue.window.len().max(1);
                    let asked = glue.window.iter().nth(i % open).map(|(&u, &t)| (u, t));
                    if let Some((u, t)) = asked {
                        deliver(&mut requests, &mut glue, u, t);
                    }
                }
                PortOp::Forget => {
                    requests.forget();
                    glue.clear_all();
                }
            }
            prop_assert_eq!(requests.core().known_tokens(), glue.core.known_tokens());
            for t in TokenId::all(k) {
                prop_assert_eq!(requests.core().in_flight(t), glue.core.in_flight(t), "{}", t);
            }
            for u in NodeId::all(NODES as usize) {
                prop_assert_eq!(requests.is_open(u), glue.window.contains_key(&u), "{}", u);
            }
        }
    }
}
