//! The round engine: one shell, two step bodies, over a transport.
//!
//! The paper's model has two round shapes. [`RoundSim`] is the one engine
//! for both — construction, accessors, the run loops and the report are
//! written once — and its [`RoundMode`] is the round itself, with the
//! buffers that round reuses:
//!
//! * [`UnicastRound`] ([`UnicastSim`]) — rewire-then-send rounds: the
//!   adversary commits `G_r` (seeing last round's traffic if adaptive),
//!   nodes learn their neighbor IDs, send per-neighbor messages, and
//!   receive.
//! * [`BroadcastRound`] ([`BroadcastSim`]) — choose-then-rewire rounds:
//!   nodes commit their local broadcast first, the (strongly adaptive)
//!   adversary picks `G_r` knowing the choices, then delivery happens.
//!
//! How a round's messages get from `send`/`broadcast` to `receive` is the
//! engine's [`Transport`]. [`Direct`] — the default, and what `new` builds —
//! is the paper's model: every message arrives in the round it was sent,
//! exactly once. `dynspread-runtime`'s synchronizer is this same engine
//! over a link transport (a link model and an event queue), so a message
//! may also arrive late, twice, or never. Everything that is not
//! carrying messages belongs to the engine and is therefore the same under
//! every transport: the adversary interaction, the model invariants
//! asserted every round (the graph is connected and has the right node
//! count, messages respect the bandwidth constraint, unicast destinations
//! are actual neighbors), metering at send time, the [`TokenTracker`] sync
//! that ends a round and detects termination (the tracker is a global
//! observer; protocols never see it), the trace and the profiler.
//!
//! A round costs what it touches. A unicast round calls `send` and
//! `end_round` only on its **active set** — nodes that have not
//! [parked](crate::protocol::Outbox::park), woken again by an adjacent edge
//! change or a delivery — and both modes diff only the round's receivers
//! against the tracker; see [`crate::round`] for the bookkeeping and why the
//! execution is the one a whole-network sweep produces.

use crate::adversary::{BroadcastAdversary, SentRecord, UnicastAdversary};
use crate::message::{MessageClass, MessagePayload, MAX_TOKENS_PER_MESSAGE};
use crate::meter::MessageMeter;
use crate::profile::{self, Phase, Profiler};
use crate::protocol::{BroadcastProtocol, Outbox, UnicastProtocol};
use crate::round::RoundScratch;
use crate::run::RunReport;
use crate::token::{TokenAssignment, TokenSet};
use crate::trace::{emit, emit_round, TraceRecord, Tracer};
use crate::tracker::TokenTracker;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::stability::StabilityEnforcer;
use dynspread_graph::{DynamicGraph, NodeId, Round};
use std::marker::PhantomData;
use std::sync::Arc;

/// Engine configuration.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Hard cap on rounds for `run_to_completion`.
    pub max_rounds: Round,
    /// Verify σ-edge stability of the adversary's schedule online: each
    /// round's delta is committed to a [`StabilityEnforcer`], and a removal
    /// younger than σ rounds panics. The delta is read literally, as
    /// `DynamicGraph`'s `TC(E)` meter reads it, so an edge on both sides of
    /// a [`GraphUpdate::Delta`] counts as removed and re-inserted.
    pub check_stability: Option<u64>,
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

/// The part of an engine's state its [`Transport`] works on while it
/// carries a round's messages.
pub struct RoundIo {
    /// Receiver marks (see [`RoundIo::delivered`]).
    pub(crate) scratch: RoundScratch,
    /// The engine's trace stream, for link-fate records.
    pub tracer: Option<Box<dyn Tracer>>,
    /// The engine's profiler, for transports with phases of their own.
    pub prof: Option<Profiler>,
}

impl RoundIo {
    /// Records that `to` was handed a message from `from` in `round`: marks
    /// it a receiver and emits [`TraceRecord::Delivered`].
    #[inline]
    pub fn delivered(&mut self, round: Round, from: NodeId, to: NodeId) {
        self.scratch.mark_receiver(to);
        let (from, to) = (from.value(), to.value());
        emit(
            &mut self.tracer,
            TraceRecord::Delivered { t: round, from, to },
        );
    }
}

/// How the messages sent in a round reach `receive`.
///
/// The engine has already checked, metered and traced (`Send` /
/// `Broadcast`) a message when it hands it over. The transport decides
/// when, how often and whether it arrives; for every copy that does, it
/// calls `receive(to, from, msg)` and then [`RoundIo::delivered`].
pub trait Transport<M> {
    /// Takes one unicast message, called during the send sweep in send
    /// order. The engine keeps the message for the adversary and passes the
    /// whole round's worth to [`deliver`](Transport::deliver) as `sent`.
    fn unicast(&mut self, round: Round, from: NodeId, to: NodeId, msg: &M, io: &mut RoundIo);

    /// Takes one local broadcast, addressed to `from`'s round-`round`
    /// neighbors. Called after the topology is installed, in ascending
    /// broadcaster order.
    fn broadcast<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        from: NodeId,
        neighbors: &[NodeId],
        msg: M,
        io: &mut RoundIo,
        receive: F,
    );

    /// The delivery phase, after every send of the round: hands over
    /// whatever is due now and was not handed over already. `sent` is the
    /// round's unicast traffic in send order (empty in a broadcast round).
    fn deliver<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        sent: &[SentRecord<M>],
        io: &mut RoundIo,
        receive: F,
    );

    /// Adds the transport's own counters to a report the engine built.
    fn stamp(&self, report: &mut RunReport);
}

/// The paper's transport: synchronous and lossless. A unicast message is
/// received in the delivery phase of its round, in send order (all sends
/// happen before any receive); a local broadcast reaches every round-`r`
/// neighbor as it is handed over.
#[derive(Clone, Copy, Debug, Default)]
pub struct Direct;

impl<M> Transport<M> for Direct {
    fn unicast(&mut self, _: Round, _: NodeId, _: NodeId, _: &M, _: &mut RoundIo) {}

    fn broadcast<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        from: NodeId,
        neighbors: &[NodeId],
        msg: M,
        io: &mut RoundIo,
        mut receive: F,
    ) {
        for &to in neighbors {
            receive(to, from, &msg);
            io.delivered(round, from, to);
        }
    }

    fn deliver<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        sent: &[SentRecord<M>],
        io: &mut RoundIo,
        mut receive: F,
    ) {
        for rec in sent {
            receive(rec.to, rec.from, &rec.msg);
            io.delivered(round, rec.from, rec.to);
        }
    }

    fn stamp(&self, _: &mut RunReport) {}
}

/// What the engine keeps besides its nodes, adversary, transport and mode.
struct Core {
    dg: DynamicGraph,
    meter: MessageMeter,
    tracker: TokenTracker,
    cfg: SimConfig,
    stability: Option<StabilityEnforcer>,
    io: RoundIo,
    algorithm_name: Arc<str>,
    adversary_name: Arc<str>,
    /// Per-link copies handed to the transport (see `RunReport::link_sends`).
    link_sends: u64,
}

impl Core {
    /// Validates every node's initial knowledge (`known`, in node order)
    /// against the assignment and builds the round state.
    fn new<'a>(
        algorithm_name: String,
        adversary_name: &str,
        known: impl ExactSizeIterator<Item = &'a TokenSet>,
        assignment: &TokenAssignment,
        meter: MessageMeter,
        cfg: SimConfig,
    ) -> Self {
        let n = known.len();
        assert_eq!(n, assignment.node_count(), "node count mismatch");
        let tracker = TokenTracker::new(assignment);
        for (v, know) in NodeId::all(n).zip(known) {
            assert_eq!(
                know.universe(),
                assignment.token_count(),
                "{v}: token universe mismatch"
            );
            assert!(
                know == tracker.knowledge(v),
                "{v}: initial knowledge differs from assignment"
            );
        }
        Core {
            dg: DynamicGraph::new(n),
            meter,
            tracker,
            stability: cfg.check_stability.map(StabilityEnforcer::new),
            cfg,
            io: RoundIo {
                scratch: RoundScratch::new(n),
                tracer: None,
                prof: None,
            },
            algorithm_name: Arc::from(algorithm_name),
            adversary_name: Arc::from(adversary_name),
            link_sends: 0,
        }
    }

    /// Installs the adversary's `G_r` (deltas and unchanged rounds are
    /// applied to the live snapshot), asserts the model invariants on it,
    /// and opens the round on the trace and the meter.
    fn install_round(&mut self, round: Round, update: GraphUpdate) {
        if let GraphUpdate::Full(g) = &update {
            assert_eq!(
                g.node_count(),
                self.tracker.node_count(),
                "adversary changed the node count in round {round}"
            );
        }
        self.dg.apply(update);
        profile::lap(&mut self.io.prof, Phase::AdversaryEvolve);
        let removed = self.dg.last_delta().removed.len();
        assert!(
            self.io.scratch.check_connected(self.dg.current(), removed),
            "adversary produced a disconnected graph in round {round}"
        );
        if let Some(ledger) = self.stability.as_mut() {
            let delta = self.dg.last_delta();
            ledger
                .commit_delta(&delta.inserted, &delta.removed)
                .expect("adversary violated σ-edge stability");
        }
        profile::lap(&mut self.io.prof, Phase::Connectivity);
        emit_round(&mut self.io.tracer, round, self.dg.last_delta());
        self.meter.begin_round(round);
    }

    /// The global observation that ends a round, over its receivers.
    fn observe<'a>(&mut self, round: Round, known: impl Fn(NodeId) -> &'a TokenSet) {
        let io = &mut self.io;
        io.scratch
            .sync_tracker(round, &mut self.tracker, &mut io.tracer, known);
        profile::lap(&mut io.prof, Phase::TrackerSync);
    }

    fn capped(&self) -> bool {
        self.dg.round() >= self.cfg.max_rounds
    }

    /// The report so far, before the transport's stamp. Names are shared
    /// `Arc<str>`s captured at construction, so this allocates no strings.
    fn report(&self) -> RunReport {
        let mut report = RunReport::from_meters(
            self.algorithm_name.clone(),
            self.adversary_name.clone(),
            self.tracker.node_count(),
            self.tracker.token_count(),
            self.dg.round(),
            self.tracker.all_complete(),
            &self.meter,
            self.dg.meter(),
            self.tracker.total_learnings(),
        );
        report.link_sends = self.link_sends;
        report.profile = self.io.prof.as_ref().map(|p| Box::new(p.report()));
        report
    }
}

/// One communication mode of [`RoundSim`]: its node, message and adversary
/// types, the buffers its rounds reuse, and the round itself. The two
/// modes are [`UnicastRound`] and [`BroadcastRound`].
pub trait RoundMode: Sized {
    /// The per-node protocol.
    type Node;
    /// What the nodes send.
    type Msg;
    /// The adversary that picks each round's graph.
    type Adversary;

    /// Empty round buffers for `n` nodes.
    fn buffers(n: usize) -> Self;

    /// The adversary's name, for reports.
    fn adversary_name(adversary: &Self::Adversary) -> &str;

    /// The meter this mode's sends are charged to.
    fn meter(cfg: &SimConfig) -> MessageMeter;

    /// The tokens `node` knows.
    fn known(node: &Self::Node) -> &TokenSet;

    /// Executes one round of `sim`: the body of [`RoundSim::step`].
    fn step<T: Transport<Self::Msg>>(sim: &mut RoundSim<Self, T>) -> Round;
}

/// The round engine: one protocol instance per node of mode `R`, played
/// against `R`'s adversary, messages carried by `T`.
pub struct RoundSim<R: RoundMode, T = Direct> {
    nodes: Vec<R::Node>,
    adversary: R::Adversary,
    transport: T,
    core: Core,
    mode: R,
}

/// Round engine for the **unicast** communication model.
pub type UnicastSim<P, A, T = Direct> = RoundSim<UnicastRound<P, A>, T>;

/// Round engine for the **local broadcast** communication model.
///
/// Each local broadcast is metered once (Definition 1.1); what happens per
/// neighbor is the transport's business, so over a lossy link different
/// neighbors of one broadcaster can independently miss the same broadcast.
pub type BroadcastSim<P, A, T = Direct> = RoundSim<BroadcastRound<P, A>, T>;

impl<R: RoundMode> RoundSim<R> {
    /// Creates the synchronous engine (the [`Direct`] transport) over one
    /// protocol instance per node.
    ///
    /// # Panics
    ///
    /// Panics if the node count or token universes are inconsistent with
    /// the assignment, or if a protocol's initial knowledge differs from
    /// the assignment.
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<R::Node>,
        adversary: R::Adversary,
        assignment: &TokenAssignment,
        cfg: SimConfig,
    ) -> Self {
        Self::with_transport(algorithm_name, nodes, adversary, assignment, cfg, Direct)
    }
}

impl<R: RoundMode, T: Transport<R::Msg>> RoundSim<R, T> {
    /// Creates an engine whose messages travel over `transport`.
    ///
    /// # Panics
    ///
    /// Same validation as [`RoundSim::new`].
    pub fn with_transport(
        algorithm_name: impl Into<String>,
        nodes: Vec<R::Node>,
        adversary: R::Adversary,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        transport: T,
    ) -> Self {
        let core = Core::new(
            algorithm_name.into(),
            R::adversary_name(&adversary),
            nodes.iter().map(R::known),
            assignment,
            R::meter(&cfg),
            cfg,
        );
        RoundSim {
            mode: R::buffers(nodes.len()),
            nodes,
            adversary,
            transport,
            core,
        }
    }

    /// Installs a [`Tracer`] receiving this engine's deterministic trace
    /// stream (round boundaries, sends, the transport's link fates,
    /// deliveries, coverage deltas). Tracing is off by default; when off,
    /// every hook point is one predictable branch.
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.core.io.tracer = Some(Box::new(tracer));
    }

    /// Enables wall-clock self-profiling: phase attribution is collected
    /// from here on and attached to reports as
    /// [`RunReport::profile`].
    pub fn enable_profiling(&mut self) {
        self.core.io.prof = Some(Profiler::new());
    }

    /// The tracker (read-only global observer).
    pub fn tracker(&self) -> &TokenTracker {
        &self.core.tracker
    }

    /// The message meter (counts sends, whatever the transport does next).
    pub fn meter(&self) -> &MessageMeter {
        &self.core.meter
    }

    /// The dynamic graph (current snapshot + TC accounting).
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.core.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &R::Node {
        &self.nodes[v.index()]
    }

    /// Immutable access to all node protocols.
    pub fn nodes(&self) -> &[R::Node] {
        &self.nodes
    }

    /// Immutable access to the adversary (e.g. to read analysis records
    /// kept by adaptive adversaries after a run).
    pub fn adversary(&self) -> &R::Adversary {
        &self.adversary
    }

    /// The transport (e.g. to read a link transport's counters).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Executes one round. Returns the round number just executed.
    pub fn step(&mut self) -> Round {
        R::step(self)
    }

    /// Runs until every node is complete or `max_rounds` is hit.
    pub fn run_to_completion(&mut self) -> RunReport {
        self.run_until(|sim| sim.core.tracker.all_complete())
    }

    /// Runs until `pred(self)` is true (checked after each round) or
    /// `max_rounds` is hit.
    pub fn run_until<F: FnMut(&Self) -> bool>(&mut self, mut pred: F) -> RunReport {
        while !pred(self) && !self.core.capped() {
            self.step();
        }
        self.report()
    }

    /// Builds the report for the execution so far.
    pub fn report(&self) -> RunReport {
        let mut report = self.core.report();
        self.transport.stamp(&mut report);
        report
    }
}

/// The **unicast** mode: its round and the buffers that round reuses.
pub struct UnicastRound<P: UnicastProtocol, A> {
    /// Everything sent in the last round (the adaptive adversary's view).
    /// The adversary is done with it before the send sweep starts, so the
    /// same buffer collects the next round's records.
    last_sent: Vec<SentRecord<P::Msg>>,
    /// The one outbox every node's `send` fills and the engine drains.
    outbox: Outbox<P::Msg>,
    adversary: PhantomData<A>,
}

impl<P: UnicastProtocol, A: UnicastAdversary<P::Msg>> RoundMode for UnicastRound<P, A> {
    type Node = P;
    type Msg = P::Msg;
    type Adversary = A;

    fn buffers(_: usize) -> Self {
        UnicastRound {
            last_sent: Vec::new(),
            outbox: Outbox::new(),
            adversary: PhantomData,
        }
    }

    fn adversary_name(adversary: &A) -> &str {
        <A as UnicastAdversary<P::Msg>>::name(adversary)
    }

    /// Exact: unicast traffic is sparse.
    fn meter(_: &SimConfig) -> MessageMeter {
        MessageMeter::new()
    }

    fn known(node: &P) -> &TokenSet {
        node.known_tokens()
    }

    fn step<T: Transport<P::Msg>>(sim: &mut RoundSim<Self, T>) -> Round {
        let core = &mut sim.core;
        let round = core.dg.round() + 1;
        // 1. Adversary commits G_r (sees last round's traffic if adaptive).
        let update = sim
            .adversary
            .evolve(round, core.dg.current(), &sim.mode.last_sent);
        core.install_round(round, update);
        let delta = core.dg.last_delta();
        if core.cfg.charge_neighbor_discovery {
            // KT0: both endpoints of every freshly inserted edge exchange
            // a hello message before the round's payload traffic.
            core.meter
                .record_unicasts(MessageClass::Control, 2 * delta.inserted.len() as u64);
        }
        let io = &mut core.io;
        io.scratch.wake_endpoints(delta);
        // 2. Active nodes see neighbor IDs and queue messages (a parked
        //    node would queue nothing); each message is metered at send
        //    time and handed to the transport.
        let mut sent = std::mem::take(&mut sim.mode.last_sent);
        sent.clear();
        let mut from = 0;
        while let Some(v) = io.scratch.next_active(from) {
            from = v.index() + 1;
            let neighbors = core.dg.current().neighbors(v);
            sim.nodes[v.index()].send(round, neighbors, &mut sim.mode.outbox);
            if sim.mode.outbox.take_parked() {
                io.scratch.park(v);
            }
            for (to, msg) in sim.mode.outbox.drain() {
                assert!(
                    core.dg.current().has_edge(v, to),
                    "round {round}: {v} sent to non-neighbor {to}"
                );
                assert!(
                    msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                    "round {round}: {v} exceeded the bandwidth constraint"
                );
                core.meter.record_unicast(msg.class());
                core.link_sends += 1;
                emit(
                    &mut io.tracer,
                    TraceRecord::Send {
                        t: round,
                        from: v.value(),
                        to: to.value(),
                    },
                );
                sim.transport.unicast(round, v, to, &msg, io);
                sent.push(SentRecord { from: v, to, msg });
            }
        }
        profile::lap(&mut io.prof, Phase::ProtocolSend);
        // 3. Delivery: whatever the transport has for this round.
        let nodes = &mut sim.nodes;
        sim.transport.deliver(round, &sent, io, |to, sender, msg| {
            nodes[to.index()].receive(round, sender, msg)
        });
        profile::lap(&mut io.prof, Phase::Delivery);
        let mut from = 0;
        while let Some(v) = io.scratch.next_live(from) {
            from = v.index() + 1;
            sim.nodes[v.index()].end_round(round);
        }
        profile::lap(&mut io.prof, Phase::EndRound);
        // 4. Global observation over this round's receivers.
        let nodes = &sim.nodes;
        core.observe(round, |v| nodes[v.index()].known_tokens());
        sim.mode.last_sent = sent;
        round
    }
}

/// The **local broadcast** mode: its round and the buffer that round
/// reuses.
pub struct BroadcastRound<P: BroadcastProtocol, A> {
    /// Every node's broadcast choice of the current round, refilled in
    /// place each round.
    choices: Vec<Option<P::Msg>>,
    adversary: PhantomData<A>,
}

impl<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>> RoundMode for BroadcastRound<P, A> {
    type Node = P;
    type Msg = P::Msg;
    type Adversary = A;

    fn buffers(n: usize) -> Self {
        BroadcastRound {
            choices: Vec::with_capacity(n),
            adversary: PhantomData,
        }
    }

    fn adversary_name(adversary: &A) -> &str {
        <A as BroadcastAdversary<P::Msg>>::name(adversary)
    }

    /// Sampled at `cfg.meter_sampling` (see [`SimConfig::meter_sampling`]).
    fn meter(cfg: &SimConfig) -> MessageMeter {
        MessageMeter::with_sampling(cfg.meter_sampling)
    }

    fn known(node: &P) -> &TokenSet {
        node.known_tokens()
    }

    fn step<T: Transport<P::Msg>>(sim: &mut RoundSim<Self, T>) -> Round {
        let core = &mut sim.core;
        let round = core.dg.round() + 1;
        // 1. Nodes commit their broadcast choices first…
        sim.mode.choices.clear();
        sim.mode
            .choices
            .extend(sim.nodes.iter_mut().map(|node| node.broadcast(round)));
        profile::lap(&mut core.io.prof, Phase::ProtocolSend);
        // 2. …then the (strongly adaptive) adversary picks the topology.
        let update = sim
            .adversary
            .evolve(round, core.dg.current(), &sim.mode.choices);
        core.install_round(round, update);
        let io = &mut core.io;
        // 3. Metering + hand-over: one message per broadcasting node, to
        // all its round-r neighbors. Metering is batched per round (class
        // tallies flushed once), with class inspection and the bandwidth
        // assert sampled at the configured deterministic factor — see
        // `SimConfig::meter_sampling`.
        let sampling = core.meter.sampling();
        let mut class_counts = [0u64; MessageClass::ALL.len()];
        let mut total = 0u64;
        let nodes = &mut sim.nodes;
        for (v, choice) in NodeId::all(nodes.len()).zip(sim.mode.choices.drain(..)) {
            if let Some(msg) = choice {
                if total.is_multiple_of(sampling) {
                    assert!(
                        msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                        "round {round}: broadcast exceeds the bandwidth constraint"
                    );
                    class_counts[msg.class().index()] += 1;
                }
                total += 1;
                emit(
                    &mut io.tracer,
                    TraceRecord::Broadcast {
                        t: round,
                        from: v.value(),
                    },
                );
                // Each neighbor is one per-link copy for `link_sends`.
                let neighbors = core.dg.current().neighbors(v);
                core.link_sends += neighbors.len() as u64;
                sim.transport
                    .broadcast(round, v, neighbors, msg, io, |to, sender, msg| {
                        nodes[to.index()].receive(round, sender, msg)
                    });
            }
        }
        core.meter.record_broadcast_batch(&class_counts, total);
        sim.transport.deliver(round, &[], io, |to, sender, msg| {
            nodes[to.index()].receive(round, sender, msg)
        });
        profile::lap(&mut io.prof, Phase::Delivery);
        for node in nodes.iter_mut() {
            node.end_round(round);
        }
        profile::lap(&mut io.prof, Phase::EndRound);
        // 4. Global observation over this round's receivers.
        let nodes = &sim.nodes;
        core.observe(round, |v| nodes[v.index()].known_tokens());
        round
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
    #[should_panic(expected = "σ-edge stability")]
    fn stability_checking_reads_deltas() {
        use dynspread_graph::adversary::Adversary;
        use dynspread_graph::dynamic::RoundDelta;
        use dynspread_graph::Edge;
        /// The path in round 1; round 2's delta reroutes it around {1,2},
        /// an edge one round old.
        struct Reroute;
        impl Adversary for Reroute {
            fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
                let e = |u, v| Edge::new(NodeId::new(u), NodeId::new(v));
                match round {
                    1 => GraphUpdate::Full(Graph::path(prev.node_count())),
                    _ => GraphUpdate::Delta(RoundDelta {
                        inserted: vec![e(0, 2)],
                        removed: vec![e(1, 2)],
                    }),
                }
            }
        }
        let n = 4;
        let a = one_token_assignment(n);
        let cfg = SimConfig {
            check_stability: Some(3),
            ..SimConfig::default()
        };
        let mut sim = UnicastSim::new("naive-uni", uni_nodes(n, &a), Reroute, &a, cfg);
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
