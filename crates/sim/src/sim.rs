//! The synchronous round engine.
//!
//! Two engines, one per communication mode:
//!
//! * [`UnicastSim`] — rewire-then-send rounds: the adversary commits `G_r`
//!   (seeing last round's traffic if adaptive), nodes learn their neighbor
//!   IDs, send per-neighbor messages, and receive.
//! * [`BroadcastSim`] — choose-then-rewire rounds: nodes commit their local
//!   broadcast first, the (strongly adaptive) adversary picks `G_r` knowing
//!   the choices, then delivery happens.
//!
//! Both engines assert the model invariants every round: the graph is
//! connected, has the right node count, messages respect the bandwidth
//! constraint, and unicast destinations are actual neighbors. Both engines
//! sync the [`TokenTracker`] after every round, which is how termination is
//! detected (the tracker is a global observer; protocols never see it).
//!
//! A round costs what it touches. [`UnicastSim`] calls `send` and
//! `end_round` only on its **active set** — nodes that have not
//! [parked](crate::protocol::Outbox::park), woken again by an adjacent edge
//! change or a delivery — and both engines diff only the round's receivers
//! against the tracker; see [`crate::round`] for the bookkeeping and why the
//! execution is the one a whole-network sweep produces.

use crate::adversary::{BroadcastAdversary, SentRecord, UnicastAdversary};
use crate::message::{MessageClass, MessagePayload, MAX_TOKENS_PER_MESSAGE};
use crate::meter::MessageMeter;
use crate::profile::{self, Phase, Profiler};
use crate::protocol::{BroadcastProtocol, Outbox, UnicastProtocol};
use crate::round::RoundScratch;
use crate::run::RunReport;
use crate::token::TokenAssignment;
use crate::trace::{emit, TraceRecord, Tracer};
use crate::tracker::TokenTracker;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::stability::StabilityChecker;
use dynspread_graph::{DynamicGraph, NodeId, Round};
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard cap on rounds for `run_to_completion`.
    pub max_rounds: Round,
    /// Verify σ-edge stability of the adversary's schedule online.
    pub check_stability: Option<u64>,
    /// Assert per-round connectivity (always cheap: one union–find pass).
    pub check_connectivity: bool,
    /// Charge KT0-style neighbor discovery (unicast engine only): two
    /// control messages per inserted edge, modelling the "hello" exchange
    /// the paper notes makes unknown and known neighborhood information
    /// equivalent on 2-edge-stable graphs (Section 1.3). The extra cost is
    /// exactly `2 · TC(E)`, so a 1-competitive algorithm becomes
    /// 3-competitive with the same residual bound.
    pub charge_neighbor_discovery: bool,
    /// Deterministic metering sample factor for the **broadcast** engine
    /// (≥ 1; 1 = exact, the default). With factor `s`, only every `s`-th
    /// broadcast message per round has its class inspected and its
    /// bandwidth constraint asserted; message *totals* stay exact and
    /// per-class attribution is scaled back deterministically (see
    /// [`MessageMeter::record_broadcast_batch`]). This is the perf lever
    /// for flooding at `n` in the thousands, where per-message meter
    /// updates dominate the round loop. The factor is recorded in
    /// [`RunReport::meter_sampling`] so reports remain self-describing.
    /// The unicast engine always meters exactly (its traffic is sparse).
    pub meter_sampling: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 1_000_000,
            check_stability: None,
            check_connectivity: true,
            charge_neighbor_discovery: false,
            meter_sampling: 1,
        }
    }
}

impl SimConfig {
    /// Default configuration with a custom round cap.
    pub fn with_max_rounds(max_rounds: Round) -> Self {
        SimConfig {
            max_rounds,
            ..SimConfig::default()
        }
    }
}

/// Synchronous engine for the **unicast** communication model.
pub struct UnicastSim<P: UnicastProtocol, A: UnicastAdversary<P::Msg>> {
    nodes: Vec<P>,
    adversary: A,
    dg: DynamicGraph,
    meter: MessageMeter,
    tracker: TokenTracker,
    cfg: SimConfig,
    stability: Option<StabilityChecker>,
    /// Everything sent in the last round (the adaptive adversary's view).
    /// The adversary is done with it before the send sweep starts, so the
    /// same buffer collects the next round's records.
    last_sent: Vec<SentRecord<P::Msg>>,
    /// The one outbox every node's `send` fills and the engine drains.
    outbox: Outbox<P::Msg>,
    scratch: RoundScratch,
    algorithm_name: Arc<str>,
    adversary_name: Arc<str>,
    tracer: Option<Box<dyn Tracer>>,
    prof: Option<Profiler>,
    link_sends: u64,
}

impl<P: UnicastProtocol, A: UnicastAdversary<P::Msg>> UnicastSim<P, A> {
    /// Creates an engine over one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if the node count or token universes are inconsistent with
    /// the assignment, or if a protocol's initial knowledge differs from
    /// the assignment.
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(nodes.len(), assignment.node_count(), "node count mismatch");
        let tracker = TokenTracker::new(assignment);
        for (i, node) in nodes.iter().enumerate() {
            let v = NodeId::new(i as u32);
            assert_eq!(
                node.known_tokens().universe(),
                assignment.token_count(),
                "{v}: token universe mismatch"
            );
            assert!(
                node.known_tokens() == tracker.knowledge(v),
                "{v}: initial knowledge differs from assignment"
            );
        }
        let stability = cfg.check_stability.map(StabilityChecker::new);
        let adversary_name: Arc<str> = Arc::from(<A as UnicastAdversary<P::Msg>>::name(&adversary));
        UnicastSim {
            dg: DynamicGraph::new(nodes.len()),
            scratch: RoundScratch::new(nodes.len()),
            nodes,
            adversary,
            meter: MessageMeter::new(),
            tracker,
            cfg,
            stability,
            last_sent: Vec::new(),
            outbox: Outbox::new(),
            algorithm_name: Arc::from(algorithm_name.into()),
            adversary_name,
            tracer: None,
            prof: None,
            link_sends: 0,
        }
    }

    /// Installs a [`Tracer`] receiving this engine's deterministic trace
    /// stream (round boundaries, sends, deliveries, coverage deltas).
    /// Tracing is off by default; when off, every hook point is one
    /// predictable branch.
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Enables wall-clock self-profiling: phase attribution is collected
    /// from here on and attached to reports as
    /// [`RunReport::profile`].
    pub fn enable_profiling(&mut self) {
        let mut prof = Profiler::new();
        prof.begin();
        self.prof = Some(prof);
    }

    /// The tracker (read-only global observer).
    pub fn tracker(&self) -> &TokenTracker {
        &self.tracker
    }

    /// The message meter.
    pub fn meter(&self) -> &MessageMeter {
        &self.meter
    }

    /// The dynamic graph (current snapshot + TC accounting).
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Immutable access to all node protocols.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Immutable access to the adversary (e.g. to read analysis records
    /// kept by adaptive adversaries after a run).
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Executes one round. Returns the round number just executed.
    pub fn step(&mut self) -> Round {
        let round = self.dg.round() + 1;
        // 1. Adversary commits G_r (sees last round's traffic if adaptive);
        //    deltas and unchanged rounds are applied to the live snapshot.
        let update = self
            .adversary
            .evolve(round, self.dg.current(), &self.last_sent);
        if let GraphUpdate::Full(g) = &update {
            assert_eq!(
                g.node_count(),
                self.nodes.len(),
                "adversary changed the node count in round {round}"
            );
        }
        self.dg.apply(update);
        profile::lap(&mut self.prof, Phase::AdversaryEvolve);
        if self.cfg.check_connectivity {
            let removed = self.dg.last_delta().removed.len();
            assert!(
                self.scratch.check_connected(self.dg.current(), removed),
                "adversary produced a disconnected graph in round {round}"
            );
        }
        if let Some(chk) = self.stability.as_mut() {
            chk.observe(self.dg.current())
                .expect("adversary violated σ-edge stability");
        }
        profile::lap(&mut self.prof, Phase::Connectivity);
        if self.tracer.is_some() {
            let delta = self.dg.last_delta();
            let (inserted, removed) = (delta.inserted.len() as u64, delta.removed.len() as u64);
            emit(
                &mut self.tracer,
                TraceRecord::Round {
                    r: round,
                    inserted,
                    removed,
                },
            );
        }
        self.meter.begin_round(round);
        let delta = self.dg.last_delta();
        if self.cfg.charge_neighbor_discovery {
            // KT0: both endpoints of every freshly inserted edge exchange
            // a hello message before the round's payload traffic.
            self.meter
                .record_unicasts(MessageClass::Control, 2 * delta.inserted.len() as u64);
        }
        self.scratch.wake_endpoints(delta);
        // 2. Active nodes see neighbor IDs and queue messages (a parked
        //    node would queue nothing).
        let mut sent = std::mem::take(&mut self.last_sent);
        sent.clear();
        let mut from = 0;
        while let Some(v) = self.scratch.next_active(from) {
            from = v.index() + 1;
            let neighbors = self.dg.current().neighbors(v);
            self.nodes[v.index()].send(round, neighbors, &mut self.outbox);
            if self.outbox.take_parked() {
                self.scratch.park(v);
            }
            for (to, msg) in self.outbox.drain() {
                assert!(
                    self.dg.current().has_edge(v, to),
                    "round {round}: {v} sent to non-neighbor {to}"
                );
                assert!(
                    msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                    "round {round}: {v} exceeded the bandwidth constraint"
                );
                self.meter.record_unicast(msg.class());
                self.link_sends += 1;
                emit(
                    &mut self.tracer,
                    TraceRecord::Send {
                        t: round,
                        from: v.value(),
                        to: to.value(),
                    },
                );
                sent.push(SentRecord { from: v, to, msg });
            }
        }
        profile::lap(&mut self.prof, Phase::ProtocolSend);
        // 3. Delivery (synchronous: all sends happen before any receive).
        for rec in &sent {
            self.nodes[rec.to.index()].receive(round, rec.from, &rec.msg);
            self.scratch.mark_receiver(rec.to);
            emit(
                &mut self.tracer,
                TraceRecord::Delivered {
                    t: round,
                    from: rec.from.value(),
                    to: rec.to.value(),
                },
            );
        }
        profile::lap(&mut self.prof, Phase::Delivery);
        let mut from = 0;
        while let Some(v) = self.scratch.next_live(from) {
            from = v.index() + 1;
            self.nodes[v.index()].end_round(round);
        }
        profile::lap(&mut self.prof, Phase::EndRound);
        // 4. Global observation over this round's receivers.
        let nodes = &self.nodes;
        self.scratch
            .sync_tracker(round, &mut self.tracker, &mut self.tracer, |v| {
                nodes[v.index()].known_tokens()
            });
        profile::lap(&mut self.prof, Phase::TrackerSync);
        self.last_sent = sent;
        round
    }

    /// Runs until every node is complete or `max_rounds` is hit.
    pub fn run_to_completion(&mut self) -> RunReport {
        while !self.tracker.all_complete() && self.dg.round() < self.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Runs until `pred(self)` is true (checked after each round) or
    /// `max_rounds` is hit.
    pub fn run_until<F: FnMut(&Self) -> bool>(&mut self, mut pred: F) -> RunReport {
        while !pred(self) && self.dg.round() < self.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Builds the report for the execution so far.
    ///
    /// Names are shared `Arc<str>`s captured at construction, so building a
    /// report allocates no strings.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport::from_meters(
            self.algorithm_name.clone(),
            self.adversary_name.clone(),
            self.nodes.len(),
            self.tracker.token_count(),
            self.dg.round(),
            self.tracker.all_complete(),
            &self.meter,
            self.dg.meter(),
            self.tracker.total_learnings(),
        );
        report.link_sends = self.link_sends;
        report.profile = self.prof.as_ref().map(|p| Box::new(p.report()));
        report
    }
}

/// Synchronous engine for the **local broadcast** communication model.
pub struct BroadcastSim<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>> {
    nodes: Vec<P>,
    adversary: A,
    dg: DynamicGraph,
    meter: MessageMeter,
    tracker: TokenTracker,
    cfg: SimConfig,
    stability: Option<StabilityChecker>,
    /// Every node's broadcast choice of the current round, refilled in
    /// place each round.
    choices: Vec<Option<P::Msg>>,
    scratch: RoundScratch,
    algorithm_name: Arc<str>,
    adversary_name: Arc<str>,
    tracer: Option<Box<dyn Tracer>>,
    prof: Option<Profiler>,
    link_sends: u64,
}

impl<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>> BroadcastSim<P, A> {
    /// Creates an engine over one protocol instance per node.
    ///
    /// # Panics
    ///
    /// Same validation as [`UnicastSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
    ) -> Self {
        assert_eq!(nodes.len(), assignment.node_count(), "node count mismatch");
        let tracker = TokenTracker::new(assignment);
        for (i, node) in nodes.iter().enumerate() {
            let v = NodeId::new(i as u32);
            assert_eq!(
                node.known_tokens().universe(),
                assignment.token_count(),
                "{v}: token universe mismatch"
            );
            assert!(
                node.known_tokens() == tracker.knowledge(v),
                "{v}: initial knowledge differs from assignment"
            );
        }
        let stability = cfg.check_stability.map(StabilityChecker::new);
        let adversary_name: Arc<str> =
            Arc::from(<A as BroadcastAdversary<P::Msg>>::name(&adversary));
        BroadcastSim {
            dg: DynamicGraph::new(nodes.len()),
            scratch: RoundScratch::new(nodes.len()),
            choices: Vec::with_capacity(nodes.len()),
            nodes,
            adversary,
            meter: MessageMeter::with_sampling(cfg.meter_sampling),
            tracker,
            cfg,
            stability,
            algorithm_name: Arc::from(algorithm_name.into()),
            adversary_name,
            tracer: None,
            prof: None,
            link_sends: 0,
        }
    }

    /// Installs a tracer (channel 1 of the observability layer). See
    /// [`UnicastSim::set_tracer`] for the determinism contract.
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Enables wall-clock self-profiling (channel 2). See
    /// [`UnicastSim::enable_profiling`].
    pub fn enable_profiling(&mut self) {
        let mut prof = Profiler::new();
        prof.begin();
        self.prof = Some(prof);
    }

    /// The tracker (read-only global observer).
    pub fn tracker(&self) -> &TokenTracker {
        &self.tracker
    }

    /// The message meter.
    pub fn meter(&self) -> &MessageMeter {
        &self.meter
    }

    /// The dynamic graph (current snapshot + TC accounting).
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Immutable access to all node protocols.
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Immutable access to the adversary (e.g. to read the potential
    /// history recorded by the Section 2 adversary).
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Executes one round. Returns the round number just executed.
    pub fn step(&mut self) -> Round {
        let round = self.dg.round() + 1;
        // 1. Nodes commit their broadcast choices first…
        let mut choices = std::mem::take(&mut self.choices);
        choices.clear();
        choices.extend(self.nodes.iter_mut().map(|node| node.broadcast(round)));
        profile::lap(&mut self.prof, Phase::ProtocolSend);
        // 2. …then the (strongly adaptive) adversary picks the topology;
        //    deltas and unchanged rounds are applied to the live snapshot.
        let update = self.adversary.evolve(round, self.dg.current(), &choices);
        if let GraphUpdate::Full(g) = &update {
            assert_eq!(
                g.node_count(),
                self.nodes.len(),
                "adversary changed the node count in round {round}"
            );
        }
        self.dg.apply(update);
        profile::lap(&mut self.prof, Phase::AdversaryEvolve);
        if self.cfg.check_connectivity {
            let removed = self.dg.last_delta().removed.len();
            assert!(
                self.scratch.check_connected(self.dg.current(), removed),
                "adversary produced a disconnected graph in round {round}"
            );
        }
        if let Some(chk) = self.stability.as_mut() {
            chk.observe(self.dg.current())
                .expect("adversary violated σ-edge stability");
        }
        profile::lap(&mut self.prof, Phase::Connectivity);
        if self.tracer.is_some() {
            let delta = self.dg.last_delta();
            let (inserted, removed) = (delta.inserted.len() as u64, delta.removed.len() as u64);
            emit(
                &mut self.tracer,
                TraceRecord::Round {
                    r: round,
                    inserted,
                    removed,
                },
            );
        }
        self.meter.begin_round(round);
        // 3. Metering + delivery: one message per broadcasting node.
        // Metering is batched per round (class tallies flushed once), with
        // class inspection and the bandwidth assert sampled at the
        // configured deterministic factor — see `SimConfig::meter_sampling`.
        let sampling = self.meter.sampling();
        let mut class_counts = [0u64; MessageClass::ALL.len()];
        let mut total = 0u64;
        for (i, choice) in choices.iter().enumerate() {
            if let Some(msg) = choice {
                let v = NodeId::new(i as u32);
                if total.is_multiple_of(sampling) {
                    assert!(
                        msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                        "round {round}: broadcast exceeds the bandwidth constraint"
                    );
                    class_counts[msg.class().index()] += 1;
                }
                total += 1;
                emit(
                    &mut self.tracer,
                    TraceRecord::Broadcast {
                        t: round,
                        from: v.value(),
                    },
                );
                // Deliver to all round-r neighbors. Each delivery is one
                // per-link copy for `link_sends` (see `RunReport::link_sends`).
                let neighbors = self.dg.current().neighbors(v);
                self.link_sends += neighbors.len() as u64;
                for &w in neighbors {
                    self.nodes[w.index()].receive(round, v, msg);
                    self.scratch.mark_receiver(w);
                    emit(
                        &mut self.tracer,
                        TraceRecord::Delivered {
                            t: round,
                            from: v.value(),
                            to: w.value(),
                        },
                    );
                }
            }
        }
        self.meter.record_broadcast_batch(&class_counts, total);
        profile::lap(&mut self.prof, Phase::Delivery);
        for node in self.nodes.iter_mut() {
            node.end_round(round);
        }
        profile::lap(&mut self.prof, Phase::EndRound);
        // 4. Global observation over this round's receivers.
        let nodes = &self.nodes;
        self.scratch
            .sync_tracker(round, &mut self.tracker, &mut self.tracer, |v| {
                nodes[v.index()].known_tokens()
            });
        profile::lap(&mut self.prof, Phase::TrackerSync);
        self.choices = choices;
        round
    }

    /// Runs until every node is complete or `max_rounds` is hit.
    pub fn run_to_completion(&mut self) -> RunReport {
        while !self.tracker.all_complete() && self.dg.round() < self.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Runs until `pred(self)` is true (checked after each round) or
    /// `max_rounds` is hit.
    pub fn run_until<F: FnMut(&Self) -> bool>(&mut self, mut pred: F) -> RunReport {
        while !pred(self) && self.dg.round() < self.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Builds the report for the execution so far.
    ///
    /// Names are shared `Arc<str>`s captured at construction, so building a
    /// report allocates no strings.
    pub fn report(&self) -> RunReport {
        let mut report = RunReport::from_meters(
            self.algorithm_name.clone(),
            self.adversary_name.clone(),
            self.nodes.len(),
            self.tracker.token_count(),
            self.dg.round(),
            self.tracker.all_complete(),
            &self.meter,
            self.dg.meter(),
            self.tracker.total_learnings(),
        );
        report.link_sends = self.link_sends;
        report.profile = self.prof.as_ref().map(|p| Box::new(p.report()));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageClass;
    use crate::token::{TokenId, TokenSet};
    use dynspread_graph::adversary::FnAdversary;
    use dynspread_graph::Graph;

    /// A toy token message for engine tests.
    #[derive(Clone, Debug, PartialEq)]
    struct Tok(TokenId);

    impl MessagePayload for Tok {
        fn token_count(&self) -> usize {
            1
        }
        fn class(&self) -> MessageClass {
            MessageClass::Token
        }
    }

    /// Unicast test protocol: every node that knows token t sends it to all
    /// neighbors every round (naive unicast flooding of a 1-token universe).
    struct NaiveUni {
        know: TokenSet,
    }

    impl UnicastProtocol for NaiveUni {
        type Msg = Tok;

        fn send(&mut self, _round: Round, neighbors: &[NodeId], out: &mut Outbox<Tok>) {
            for t in self.know.iter().collect::<Vec<_>>() {
                for &w in neighbors {
                    out.send(w, Tok(t));
                }
            }
        }

        fn receive(&mut self, _round: Round, _from: NodeId, msg: &Tok) {
            self.know.insert(msg.0);
        }

        fn known_tokens(&self) -> &TokenSet {
            &self.know
        }
    }

    /// Broadcast test protocol: broadcast the first known token.
    struct NaiveBcast {
        know: TokenSet,
    }

    impl BroadcastProtocol for NaiveBcast {
        type Msg = Tok;

        fn broadcast(&mut self, _round: Round) -> Option<Tok> {
            self.know.iter().next().map(Tok)
        }

        fn receive(&mut self, _round: Round, _from: NodeId, msg: &Tok) {
            self.know.insert(msg.0);
        }

        fn known_tokens(&self) -> &TokenSet {
            &self.know
        }
    }

    fn path_adversary() -> FnAdversary<impl FnMut(Round, &Graph) -> Graph> {
        FnAdversary::new("path", |_, prev: &Graph| Graph::path(prev.node_count()))
    }

    fn one_token_assignment(n: usize) -> TokenAssignment {
        TokenAssignment::single_source(n, 1, NodeId::new(0))
    }

    fn uni_nodes(n: usize, assignment: &TokenAssignment) -> Vec<NaiveUni> {
        NodeId::all(n)
            .map(|v| NaiveUni {
                know: assignment.initial_knowledge(v),
            })
            .collect()
    }

    #[test]
    fn unicast_token_spreads_on_path() {
        let n = 5;
        let a = one_token_assignment(n);
        let mut sim = UnicastSim::new(
            "naive-uni",
            uni_nodes(n, &a),
            path_adversary(),
            &a,
            SimConfig::default(),
        );
        let report = sim.run_to_completion();
        assert!(report.completed);
        // On a static path the token needs exactly n-1 rounds.
        assert_eq!(report.rounds, (n - 1) as Round);
        assert_eq!(report.learnings, (n - 1) as u64);
        assert_eq!(report.class(MessageClass::Token), report.total_messages);
    }

    #[test]
    fn unicast_meter_counts_per_neighbor() {
        let n = 3;
        let a = one_token_assignment(n);
        let mut sim = UnicastSim::new(
            "naive-uni",
            uni_nodes(n, &a),
            FnAdversary::new("star", |_, prev: &Graph| Graph::star(prev.node_count())),
            &a,
            SimConfig::default(),
        );
        sim.step();
        // Only node 0 knows the token; it is the hub with 2 neighbors.
        assert_eq!(sim.meter().total(), 2);
    }

    #[test]
    fn broadcast_counts_one_message_per_broadcaster() {
        let n = 4;
        let a = one_token_assignment(n);
        let nodes: Vec<NaiveBcast> = NodeId::all(n)
            .map(|v| NaiveBcast {
                know: a.initial_knowledge(v),
            })
            .collect();
        let mut sim = BroadcastSim::new(
            "naive-bcast",
            nodes,
            FnAdversary::new("star", |_, prev: &Graph| Graph::star(prev.node_count())),
            &a,
            SimConfig::default(),
        );
        sim.step();
        // Only node 0 had a token to broadcast: exactly 1 message even
        // though it has 3 neighbors.
        assert_eq!(sim.meter().total(), 1);
        assert_eq!(sim.tracker().total_learnings(), 3);
    }

    #[test]
    fn broadcast_completes_on_dynamic_graphs() {
        let n = 6;
        let a = one_token_assignment(n);
        let nodes: Vec<NaiveBcast> = NodeId::all(n)
            .map(|v| NaiveBcast {
                know: a.initial_knowledge(v),
            })
            .collect();
        // Alternate star and path: still always connected.
        let adv = FnAdversary::new("alt", |r, prev: &Graph| {
            if r % 2 == 0 {
                Graph::star(prev.node_count())
            } else {
                Graph::path(prev.node_count())
            }
        });
        let mut sim = BroadcastSim::new("naive-bcast", nodes, adv, &a, SimConfig::default());
        let report = sim.run_to_completion();
        assert!(report.completed);
        assert_eq!(report.learnings, (n - 1) as u64);
    }

    #[test]
    fn run_until_predicate_stops_early() {
        let n = 8;
        let a = one_token_assignment(n);
        let mut sim = UnicastSim::new(
            "naive-uni",
            uni_nodes(n, &a),
            path_adversary(),
            &a,
            SimConfig::default(),
        );
        let report = sim.run_until(|s| s.tracker().complete_count() >= 3);
        assert!(!report.completed);
        assert!(report.rounds < (n - 1) as Round);
    }

    #[test]
    fn max_rounds_caps_execution() {
        let n = 10;
        let a = one_token_assignment(n);
        let mut sim = UnicastSim::new(
            "naive-uni",
            uni_nodes(n, &a),
            path_adversary(),
            &a,
            SimConfig::with_max_rounds(3),
        );
        let report = sim.run_to_completion();
        assert!(!report.completed);
        assert_eq!(report.rounds, 3);
    }

    #[test]
    fn stability_checking_accepts_static_schedule() {
        let n = 4;
        let a = one_token_assignment(n);
        let cfg = SimConfig {
            check_stability: Some(3),
            ..SimConfig::default()
        };
        let mut sim = UnicastSim::new("naive-uni", uni_nodes(n, &a), path_adversary(), &a, cfg);
        let report = sim.run_to_completion();
        assert!(report.completed);
    }

    #[test]
    #[should_panic(expected = "σ-edge stability")]
    fn stability_checking_rejects_flappy_schedule() {
        let n = 4;
        let a = one_token_assignment(n);
        let adv = FnAdversary::new("flap", |r, prev: &Graph| {
            if r % 2 == 0 {
                Graph::star(prev.node_count())
            } else {
                Graph::path(prev.node_count())
            }
        });
        let cfg = SimConfig {
            check_stability: Some(3),
            ..SimConfig::default()
        };
        let mut sim = UnicastSim::new("naive-uni", uni_nodes(n, &a), adv, &a, cfg);
        sim.step();
        sim.step();
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn disconnected_adversary_panics() {
        let n = 4;
        let a = one_token_assignment(n);
        let adv = FnAdversary::new("bad", |_, prev: &Graph| Graph::empty(prev.node_count()));
        let mut sim = UnicastSim::new("naive-uni", uni_nodes(n, &a), adv, &a, SimConfig::default());
        sim.step();
    }

    #[test]
    #[should_panic(expected = "non-neighbor")]
    fn sending_to_non_neighbor_panics() {
        struct Rogue {
            know: TokenSet,
        }
        impl UnicastProtocol for Rogue {
            type Msg = Tok;
            fn send(&mut self, _r: Round, _nbrs: &[NodeId], out: &mut Outbox<Tok>) {
                out.send(NodeId::new(3), Tok(TokenId::new(0)));
            }
            fn receive(&mut self, _r: Round, _f: NodeId, _m: &Tok) {}
            fn known_tokens(&self) -> &TokenSet {
                &self.know
            }
        }
        let a = one_token_assignment(4);
        let nodes: Vec<Rogue> = NodeId::all(4)
            .map(|v| Rogue {
                know: a.initial_knowledge(v),
            })
            .collect();
        // Path 0-1-2-3: node 0 sending to 3 is invalid.
        let mut sim = UnicastSim::new("rogue", nodes, path_adversary(), &a, SimConfig::default());
        sim.step();
    }

    #[test]
    fn neighbor_discovery_charges_two_per_insertion() {
        let n = 5;
        let a = one_token_assignment(n);
        let cfg = SimConfig {
            charge_neighbor_discovery: true,
            ..SimConfig::default()
        };
        let mut sim = UnicastSim::new("naive-uni", uni_nodes(n, &a), path_adversary(), &a, cfg);
        let report = sim.run_to_completion();
        assert!(report.completed);
        // Static path: TC = n − 1 insertions in round 1 → 2(n − 1) hellos.
        assert_eq!(report.class(MessageClass::Control), 2 * (n as u64 - 1));
        assert_eq!(
            report.total_messages,
            report.class(MessageClass::Token) + report.class(MessageClass::Control)
        );
    }

    #[test]
    fn report_names_algorithm_and_adversary() {
        let n = 3;
        let a = one_token_assignment(n);
        let mut sim = UnicastSim::new(
            "naive-uni",
            uni_nodes(n, &a),
            path_adversary(),
            &a,
            SimConfig::default(),
        );
        let report = sim.run_to_completion();
        assert_eq!(&*report.algorithm, "naive-uni");
        assert_eq!(&*report.adversary, "path");
        assert_eq!(report.n, 3);
        assert_eq!(report.k, 1);
    }
}
