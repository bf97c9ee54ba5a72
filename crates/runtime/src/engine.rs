//! The asynchronous event engine: protocols driven by deliveries and
//! timers instead of rounds.
//!
//! An [`EventProtocol`] node never sees a round barrier. It reacts to
//! three stimuli — [`on_start`](EventProtocol::on_start) at time 0, one
//! [`on_message`](EventProtocol::on_message) per delivered message copy,
//! and [`on_timer`](EventProtocol::on_timer) for timers it armed itself —
//! and may send messages or arm new timers from any of them through the
//! [`EventCtx`]. The engine pops events from the seeded calendar queue in
//! `(time, scheduling order)` order, routes sends through the configured
//! [`LinkModel`], and evolves the adversarial
//! topology every `ticks_per_round` ticks, so the paper's dynamic-graph
//! adversaries keep working unchanged underneath a fully asynchronous
//! execution.
//!
//! Execution is deterministic: with the same protocols, adversary seed,
//! link model, and engine seed, two runs produce identical event sequences
//! and identical reports (property-tested in the crate's test suite).
//!
//! Two deliberate departures from the synchronous engines' policing:
//! sending to a non-neighbor is a *drop at the source*
//! ([`EventReport::unroutable`]), not a panic — see [`EventCtx::send`] —
//! and the paper's bandwidth constraint is not enforced here
//! (`EventProtocol::Msg` is an arbitrary `Clone` type; Definition 1.1
//! metering belongs to the round-based surfaces).

use crate::byzantine::transcript::{AuditMsg, Direction, MsgSummary, Transcript};
use crate::event::{EventQueue, VirtualTime};
use crate::faults::{FaultPlan, RecoveryMode};
use crate::link::{LinkModel, LinkPlanner};
use dynspread_graph::adversary::Adversary;
use dynspread_graph::{DynamicGraph, NodeId, Round};
use dynspread_sim::message::MessageClass;
use dynspread_sim::profile::{self, Phase, Profiler};
use dynspread_sim::token::{TokenAssignment, TokenSet};
use dynspread_sim::trace::{emit, emit_round, TraceRecord, Tracer};
use dynspread_sim::tracker::TokenTracker;
use dynspread_sim::RunReport;
use std::sync::Arc;

/// One queued send: a payload plus a range of destinations in the
/// context's flat destination buffer. Storing the payload **once** per
/// logical send — not once per destination — is what makes the fan-out
/// path zero-clone: the engine clones it only per *surviving delivery
/// copy*, moving the original into the last one.
pub(crate) struct SendOp<M> {
    pub(crate) msg: M,
    pub(crate) first: u32,
    pub(crate) count: u32,
}

/// What a node may do while handling an event.
pub struct EventCtx<'a, M> {
    now: VirtualTime,
    me: NodeId,
    neighbors: &'a [NodeId],
    ops: &'a mut Vec<SendOp<M>>,
    dests: &'a mut Vec<NodeId>,
    timers: &'a mut Vec<(VirtualTime, u64)>,
    retrans: &'a mut u64,
    tracer: &'a mut Option<Box<dyn Tracer>>,
}

impl<'a, M: Clone> EventCtx<'a, M> {
    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// This node's ID.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The node's neighbors in the *current* topology epoch, sorted by ID.
    /// The slice outlives this borrow of the context, so a handler can
    /// send while it walks the list.
    pub fn neighbors(&self) -> &'a [NodeId] {
        self.neighbors
    }

    /// Queues a message to `to` (routed through the link model; it may be
    /// dropped, delayed, or duplicated before reaching `to`).
    ///
    /// The edge is the channel: if `{me, to}` is not an edge of the
    /// current topology epoch when the send is made, there is no medium
    /// and the message is dropped at the source (counted in
    /// [`EventReport::unroutable`]). Unlike the synchronous engines this
    /// is not a panic — replying to a sender whose edge has since churned
    /// away is a normal hazard of the asynchronous model, not a protocol
    /// bug.
    ///
    /// The payload is moved, not cloned: when the link schedules exactly
    /// one delivery copy (the perfect-link common case), it is the
    /// original that arrives.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.dests.push(to);
        self.ops.push(SendOp {
            msg,
            first: self.dests.len() as u32 - 1,
            count: 1,
        });
    }

    /// Queues one copy of `msg` to every current neighbor. Each link plans
    /// its fate independently.
    ///
    /// The payload is stored once and cloned only per surviving delivery
    /// copy, minus one for the move of the original — at most
    /// `fanout - 1` clones under a non-duplicating link, and none at all
    /// in allocation terms for `Copy` payloads (their `clone` is a
    /// bitwise copy).
    pub fn broadcast(&mut self, msg: M) {
        self.send_each(self.neighbors, msg);
    }

    /// Queues one copy of `msg` to each of `to`, in order, as one staged
    /// op. The engine plans an op's destinations in order and schedules
    /// the surviving copies in plan order, so this draws the link RNG and
    /// fills the queue exactly as `to.len()` single sends would — while
    /// storing the payload once.
    pub(crate) fn send_each(&mut self, to: &[NodeId], msg: M) {
        let first = self.dests.len() as u32;
        self.dests.extend_from_slice(to);
        self.ops.push(SendOp {
            msg,
            first,
            count: to.len() as u32,
        });
    }

    /// Arms a timer to fire at `now + delay` with the given caller-chosen
    /// id (delivered to [`EventProtocol::on_timer`]).
    pub fn set_timer(&mut self, delay: VirtualTime, id: u64) {
        self.timers.push((delay, id));
    }

    /// Reports a retransmission (a heartbeat re-send of an unanswered
    /// request or announcement). Counted in
    /// [`EventReport::retransmissions`] and traced as a `retransmit`
    /// record; call it at the site that re-stages the send.
    pub fn note_retransmission(&mut self) {
        *self.retrans += 1;
        emit(
            self.tracer,
            TraceRecord::Retransmission {
                t: self.now,
                node: self.me.value(),
            },
        );
    }

    /// Reports a backoff reset (progress observed, heartbeat interval
    /// snapped back to its base). Traced as a `backoff_reset` record; no
    /// counter — resets are interesting for trace analysis, not totals.
    pub fn note_backoff_reset(&mut self) {
        emit(
            self.tracer,
            TraceRecord::BackoffReset {
                t: self.now,
                node: self.me.value(),
            },
        );
    }

    /// Number of send ops staged so far in this dispatch — the bookmark a
    /// wrapping protocol takes before delegating to its inner handler, so
    /// it can tamper with exactly the ops the handler staged.
    pub(crate) fn staged_ops(&self) -> usize {
        self.ops.len()
    }

    /// Visits the ops staged since `start`, letting the Byzantine
    /// misbehavior layer mutate each payload in place or drop the op
    /// entirely (return `false`). The closure also sees the op's
    /// destination slice. Honest code never calls this; it exists so
    /// `Misbehaving<P>` can corrupt *outgoing* traffic without the inner
    /// protocol's cooperation.
    pub(crate) fn tamper_staged(
        &mut self,
        start: usize,
        mut f: impl FnMut(&mut M, &[NodeId]) -> bool,
    ) {
        let mut i = start;
        while i < self.ops.len() {
            let op = &mut self.ops[i];
            let dests = &self.dests[op.first as usize..(op.first + op.count) as usize];
            if f(&mut op.msg, dests) {
                i += 1;
            } else {
                // Dropping the op leaves its destination range allocated
                // but unreferenced; other ops' (first, count) ranges are
                // untouched.
                self.ops.remove(i);
            }
        }
    }

    /// Runs `f` against a sub-context of a *different* message type that
    /// stages into the caller-provided buffers, sharing this context's
    /// clock, identity, neighbor view, retransmission counter, and tracer.
    ///
    /// This is the session-multiplexing hook: `SessionMux` dispatches an
    /// inner per-session protocol through a sub-context, then re-stages
    /// the captured sends through the outer context as wire envelopes —
    /// one outer op per inner op over the same destinations, in staging
    /// order ([`EventCtx::send_each`]), so the engine's per-copy link
    /// planning consumes the RNG stream in exactly the order the inner
    /// protocol produced sends.
    pub(crate) fn with_inner<N: Clone, R>(
        &mut self,
        ops: &mut Vec<SendOp<N>>,
        dests: &mut Vec<NodeId>,
        timers: &mut Vec<(VirtualTime, u64)>,
        f: impl FnOnce(&mut EventCtx<'_, N>) -> R,
    ) -> R {
        let mut sub = EventCtx {
            now: self.now,
            me: self.me,
            neighbors: self.neighbors,
            ops,
            dests,
            timers,
            retrans: self.retrans,
            tracer: self.tracer,
        };
        f(&mut sub)
    }
}

/// A per-node asynchronous protocol state machine.
pub trait EventProtocol {
    /// The message payload type.
    type Msg: Clone;

    /// Called once per node at virtual time 0, in ascending node order.
    fn on_start(&mut self, ctx: &mut EventCtx<'_, Self::Msg>);

    /// Called for each message copy delivered to this node.
    fn on_message(&mut self, from: NodeId, msg: &Self::Msg, ctx: &mut EventCtx<'_, Self::Msg>);

    /// Called when a timer armed via [`EventCtx::set_timer`] fires.
    fn on_timer(&mut self, id: u64, ctx: &mut EventCtx<'_, Self::Msg>) {
        let _ = (id, ctx);
    }

    /// Called when this node rejoins after a crash scheduled by a
    /// [`FaultPlan`]. Timers from before the crash never fire (the engine
    /// invalidates them), so the node must re-arm everything it needs
    /// here. The default simply re-runs [`on_start`](EventProtocol::on_start)
    /// — correct for stateless protocols; stateful ones override it to
    /// reconcile what `mode` says survived the outage.
    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, Self::Msg>) {
        let _ = mode;
        self.on_start(ctx);
    }

    /// Called on every live node when a partition episode heals. The
    /// default does nothing; protocols with retransmission backoff
    /// override it to snap their pacing back to base, so resynchronization
    /// across the healed cut is not delayed by an interval that backed
    /// off against the partition.
    fn on_heal(&mut self, ctx: &mut EventCtx<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Exposes token knowledge for global observation, if this protocol
    /// solves a dissemination problem. Returning `Some` enables the
    /// engine's [`TokenTracker`] and completion-based termination.
    fn known_tokens(&self) -> Option<&TokenSet> {
        None
    }
}

/// What stopped an [`EventSim`] run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// Every node became complete (requires token tracking).
    Complete,
    /// The event queue drained with work left undone.
    Quiescent,
    /// The virtual-time cap was reached.
    TimeLimit,
}

/// Summary of one event-driven execution.
#[derive(Clone, Debug)]
pub struct EventReport {
    /// Why the run stopped.
    pub stopped: StopReason,
    /// Virtual time of the last processed event.
    pub final_time: VirtualTime,
    /// Topology epochs (adversary rounds) that elapsed.
    pub epochs: Round,
    /// Events processed (starts + deliveries + timers).
    pub events: u64,
    /// Messages passed to the link layer.
    pub transmissions: u64,
    /// Sends dropped at the source because no edge to the target existed
    /// in the topology epoch of the send (see [`EventCtx::send`]).
    pub unroutable: u64,
    /// Copies that survived the link and were scheduled.
    pub copies_scheduled: u64,
    /// Copies handed to a live receiver's handler.
    pub copies_delivered: u64,
    /// Protocol-reported retransmissions (see
    /// [`EventCtx::note_retransmission`]).
    pub retransmissions: u64,
    /// Token learnings observed (0 when tracking is disabled).
    pub learnings: u64,
}

impl std::fmt::Display for EventReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{:?} at t={} ({} epochs): {} events, {} sent ({} unroutable, {} retransmits) → {} scheduled → {} delivered, {} learnings",
            self.stopped,
            self.final_time,
            self.epochs,
            self.events,
            self.transmissions,
            self.unroutable,
            self.retransmissions,
            self.copies_scheduled,
            self.copies_delivered,
            self.learnings
        )
    }
}

/// The internal event alphabet.
///
/// `Timer` carries the arming node's incarnation: a timer armed before a
/// crash is dead on arrival in any later incarnation, which is what lets
/// `on_recover` re-arm from scratch without racing ghosts of the previous
/// life. Fault-free runs keep every generation at 0, so the field changes
/// nothing there. The fault variants (`Crash`, `Recover`,
/// `PartitionStart`, `PartitionHeal`) are scheduled up-front by
/// [`EventSim::set_fault_plan`] — FIFO-within-tick then guarantees they
/// pop *before* any same-tick delivery, which is scheduled later; `Heal`
/// is a dispatch-only pseudo-event fanned out to live nodes when a
/// `PartitionHeal` pops, never queued itself.
enum Event<M> {
    Start(NodeId),
    Deliver { to: NodeId, from: NodeId, msg: M },
    Timer { node: NodeId, id: u64, gen: u32 },
    Crash(NodeId),
    Recover { node: NodeId, mode: RecoveryMode },
    PartitionStart(u32),
    PartitionHeal(u32),
    Heal,
}

/// The asynchronous discrete-event engine.
///
/// One engine instance owns the nodes, the virtual clock, the event queue,
/// the link model, and the evolving topology. An arriving copy is handed to
/// its receiver's handler by the event that delivers it.
pub struct EventSim<P: EventProtocol, A: Adversary, L: LinkModel> {
    nodes: Vec<P>,
    adversary: A,
    planner: LinkPlanner<L>,
    dg: DynamicGraph,
    ticks_per_round: VirtualTime,
    queue: EventQueue<Event<P::Msg>>,
    clock: VirtualTime,
    /// Whether [`EventSim::run`] has scheduled the nodes' `Start` events.
    started: bool,
    tracker: Option<TokenTracker>,
    // Fault injection, driven by the events `set_fault_plan` queues (a
    // fault-free run keeps `down` all-false and `incarnation` all-zero, so
    // every path below behaves identically to an engine without these
    // fields).
    down: Vec<bool>,
    incarnation: Vec<u32>,
    crashes: u64,
    recoveries: u64,
    partition_episodes: u64,
    // Transcript auditing (None = disabled, the default: honest runs pay
    // one pointer check per dispatch and nothing else).
    summarize: Option<fn(&P::Msg) -> MsgSummary>,
    transcripts: Vec<Transcript>,
    // Scratch reused across dispatches.
    ops: Vec<SendOp<P::Msg>>,
    dests: Vec<NodeId>,
    timers: Vec<(VirtualTime, u64)>,
    plan: Vec<(NodeId, VirtualTime)>,
    events: u64,
    transmissions: u64,
    unroutable: u64,
    copies_delivered: u64,
    retransmissions: u64,
    tracer: Option<Box<dyn Tracer>>,
    prof: Option<Profiler>,
}

impl<P, A, L> EventSim<P, A, L>
where
    P: EventProtocol,
    A: Adversary,
    L: LinkModel,
{
    /// Creates an engine without token tracking: the run ends at
    /// quiescence or the time cap.
    ///
    /// `ticks_per_round` maps the virtual clock onto adversary rounds: the
    /// topology of round `e` governs ticks `[(e−1)·tpr, e·tpr)`.
    ///
    /// # Panics
    ///
    /// Panics if `ticks_per_round == 0` or `nodes` is empty.
    pub fn new(
        nodes: Vec<P>,
        adversary: A,
        link: L,
        ticks_per_round: VirtualTime,
        seed: u64,
    ) -> Self {
        assert!(ticks_per_round >= 1, "ticks_per_round must be ≥ 1");
        assert!(!nodes.is_empty(), "need at least one node");
        let n = nodes.len();
        EventSim {
            nodes,
            adversary,
            planner: LinkPlanner::new(link, seed),
            dg: DynamicGraph::new(n),
            ticks_per_round,
            queue: EventQueue::new(),
            clock: 0,
            started: false,
            tracker: None,
            down: vec![false; n],
            incarnation: vec![0; n],
            crashes: 0,
            recoveries: 0,
            partition_episodes: 0,
            summarize: None,
            transcripts: Vec::new(),
            ops: Vec::new(),
            dests: Vec::new(),
            timers: Vec::new(),
            plan: Vec::new(),
            events: 0,
            transmissions: 0,
            unroutable: 0,
            copies_delivered: 0,
            retransmissions: 0,
            tracer: None,
            prof: None,
        }
    }

    /// Installs a [`Tracer`] receiving the deterministic trace stream
    /// (epoch boundaries, sends, per-copy link fates, deliveries, timers,
    /// retransmissions, coverage deltas). Off by default; when off every
    /// hook point is one predictable branch. Call before [`EventSim::run`].
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.tracer = Some(Box::new(tracer));
    }

    /// Enables wall-clock self-profiling: phase attribution is collected
    /// from here on and surfaced via [`EventSim::run_report`] as
    /// [`RunReport::profile`]. Call before [`EventSim::run`].
    pub fn enable_profiling(&mut self) {
        let mut prof = Profiler::new();
        prof.begin();
        self.prof = Some(prof);
    }

    /// Like [`EventSim::new`], but with a [`TokenTracker`] observing each
    /// node's [`EventProtocol::known_tokens`], enabling completion-based
    /// termination.
    ///
    /// # Panics
    ///
    /// Panics if any node returns `None` from `known_tokens`, or if the
    /// initial knowledge differs from the assignment.
    pub fn with_tracking(
        nodes: Vec<P>,
        adversary: A,
        link: L,
        ticks_per_round: VirtualTime,
        seed: u64,
        assignment: &TokenAssignment,
    ) -> Self {
        let mut sim = EventSim::new(nodes, adversary, link, ticks_per_round, seed);
        let tracker = TokenTracker::new(assignment);
        for (i, node) in sim.nodes.iter().enumerate() {
            let v = NodeId::new(i as u32);
            let know = node
                .known_tokens()
                .expect("tracking requires known_tokens() = Some");
            assert!(
                know == tracker.knowledge(v),
                "{v}: initial knowledge differs from assignment"
            );
        }
        sim.tracker = Some(tracker);
        sim
    }

    /// The tracker, when tracking is enabled.
    pub fn tracker(&self) -> Option<&TokenTracker> {
        self.tracker.as_ref()
    }

    /// Installs a [`FaultPlan`], scheduling its crash, recovery, and
    /// partition-boundary events into the queue. Call before
    /// [`EventSim::run`].
    ///
    /// The engine enforces the *node* semantics (down nodes consume no
    /// deliveries, fire no timers, send nothing; recoveries dispatch
    /// [`EventProtocol::on_recover`]; heals dispatch
    /// [`EventProtocol::on_heal`] to live nodes) and counts episodes —
    /// the *link* semantics of a partition (cross-cut copies dropped) are
    /// enforced by wrapping the link model in
    /// [`PartitionLink`](crate::faults::PartitionLink) over the same
    /// plan, which [`Scenario`](crate::scenario::Scenario) does for you.
    ///
    /// An empty plan ([`FaultPlan::none`]) schedules nothing and leaves
    /// the run byte-identical to one without a plan.
    ///
    /// # Panics
    ///
    /// Panics if the plan's node count differs from the engine's, or if
    /// the run already started.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert_eq!(
            plan.node_count(),
            self.nodes.len(),
            "fault plan sized for a different network"
        );
        assert!(!self.started, "set_fault_plan must precede run()");
        for v in plan.crashed_nodes() {
            let f = plan.fault_of(v).expect("listed as crashed");
            self.queue.schedule(f.crash_at, Event::Crash(v));
            if let Some(at) = f.recover_at {
                self.queue.schedule(
                    at,
                    Event::Recover {
                        node: v,
                        mode: f.mode,
                    },
                );
            }
        }
        for (i, ep) in plan.episodes().iter().enumerate() {
            self.queue
                .schedule(ep.start, Event::PartitionStart(i as u32));
            self.queue.schedule(ep.end, Event::PartitionHeal(i as u32));
        }
    }

    /// Whether node `v` is currently crashed.
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down[v.index()]
    }

    /// Number of nodes currently crashed.
    pub fn down_count(&self) -> usize {
        self.down.iter().filter(|&&d| d).count()
    }

    /// Fault counters so far: `(crashes, recoveries, partition episodes)`.
    pub fn fault_counters(&self) -> (u64, u64, u64) {
        (self.crashes, self.recoveries, self.partition_episodes)
    }

    /// Enables per-node transcript recording (the accountability layer's
    /// signed-log stand-in): from here on every send is logged at the
    /// sender — one entry per destination, **before** link planning, so
    /// dropped and unroutable sends are still on the record — and every
    /// consumed delivery is logged at the receiver, each folded into a
    /// deterministic chain hash. Requires the protocol's message type to
    /// opt in via [`AuditMsg`]. Call before [`EventSim::run`].
    pub fn record_transcripts(&mut self)
    where
        P::Msg: AuditMsg,
    {
        self.summarize = Some(<P::Msg as AuditMsg>::summarize);
        self.transcripts = (0..self.nodes.len()).map(|_| Transcript::new()).collect();
    }

    /// The recorded transcripts, indexed by node (empty slice when
    /// recording was never enabled).
    pub fn transcripts(&self) -> &[Transcript] {
        &self.transcripts
    }

    /// The current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.clock
    }

    /// The evolving topology.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Largest mailbox backlog observed on any node. An arriving copy is
    /// consumed by the same event that delivers it, so no node ever holds
    /// more than one: 0 until the first delivery, 1 from then on.
    pub fn max_mailbox_high_water(&self) -> usize {
        usize::from(self.copies_delivered > 0)
    }

    /// Summarizes the execution so far as a [`RunReport`], the common
    /// currency of the experiment tables — so async grids tabulate next
    /// to synchronous ones. Mapping: `rounds` = topology epochs,
    /// `total_messages` = transmissions (Definition 1.1 charges sends;
    /// dropped copies still cost), per-class counts are unavailable in
    /// the payload-agnostic engine and stay 0, and
    /// [`unroutable`](RunReport::unroutable) carries the sends dropped at
    /// the source for lack of an edge — the counter the synchronous
    /// engines can never set (they panic instead).
    pub fn run_report(&self, algorithm: impl Into<Arc<str>>) -> RunReport {
        RunReport {
            algorithm: algorithm.into(),
            adversary: Arc::from(self.adversary.name()),
            n: self.nodes.len(),
            k: self.tracker.as_ref().map_or(0, TokenTracker::token_count),
            rounds: self.dg.round(),
            completed: self
                .tracker
                .as_ref()
                .is_some_and(TokenTracker::all_complete),
            total_messages: self.transmissions,
            unicast_messages: self.transmissions,
            broadcast_messages: 0,
            by_class: [0; MessageClass::ALL.len()],
            topology: self.dg.meter(),
            learnings: self
                .tracker
                .as_ref()
                .map_or(0, TokenTracker::total_learnings),
            unroutable: self.unroutable,
            byzantine_nodes: 0,
            violations_detected: 0,
            evidence_verdicts: 0,
            meter_sampling: 1,
            link_sends: self.transmissions,
            link_drops: self.planner.drops,
            link_duplicates: self.planner.dups,
            retransmissions: self.retransmissions,
            crashes: self.crashes,
            recoveries: self.recoveries,
            partition_episodes: self.partition_episodes,
            profile: self.prof.as_ref().map(|p| Box::new(p.report())),
        }
    }

    /// Evolves the topology until it covers virtual time `t`.
    fn advance_epochs_to(&mut self, t: VirtualTime) {
        let target_round = t / self.ticks_per_round + 1;
        while self.dg.round() < target_round {
            let round = self.dg.round() + 1;
            let update = self.adversary.evolve(round, self.dg.current());
            self.dg.apply(update);
            emit_round(&mut self.tracer, round, self.dg.last_delta());
        }
    }

    /// Dispatches one event to node `v` and flushes the context's effects
    /// (link-planned sends, armed timers) back into the queue.
    fn dispatch(&mut self, v: NodeId, event: Event<P::Msg>) {
        self.ops.clear();
        self.dests.clear();
        self.timers.clear();
        {
            let mut ctx = EventCtx {
                now: self.clock,
                me: v,
                neighbors: self.dg.current().neighbors(v),
                ops: &mut self.ops,
                dests: &mut self.dests,
                timers: &mut self.timers,
                retrans: &mut self.retransmissions,
                tracer: &mut self.tracer,
            };
            let node = &mut self.nodes[v.index()];
            match event {
                Event::Start(_) => node.on_start(&mut ctx),
                Event::Deliver { from, msg, .. } => node.on_message(from, &msg, &mut ctx),
                Event::Timer { id, .. } => node.on_timer(id, &mut ctx),
                Event::Recover { mode, .. } => node.on_recover(mode, &mut ctx),
                Event::Heal => node.on_heal(&mut ctx),
                Event::Crash(_) | Event::PartitionStart(_) | Event::PartitionHeal(_) => {
                    unreachable!("handled in the run loop, never dispatched")
                }
            }
        }
        profile::lap(&mut self.prof, Phase::Handler);
        let mut ops = std::mem::take(&mut self.ops);
        let dests = std::mem::take(&mut self.dests);
        if let Some(summarize) = self.summarize {
            // The sender's signed statements: recorded before the link
            // (or routability) decides each copy's fate. Appended for all
            // ops up front — same per-op, per-destination order as the
            // planning pass below, and no RNG involved, so splitting the
            // loops leaves the recorded transcripts (and the execution)
            // unchanged while isolating transcript cost as its own phase.
            for op in &ops {
                for &to in &dests[op.first as usize..(op.first + op.count) as usize] {
                    self.transcripts[v.index()].append(
                        Direction::Sent,
                        to,
                        self.clock,
                        summarize(&op.msg),
                    );
                }
            }
            profile::lap(&mut self.prof, Phase::Transcript);
        }
        for op in ops.drain(..) {
            // Plan every destination's fate first, then materialize the
            // copies: all but the last clone the payload, the last takes
            // the original (`fanout - 1` clones; zero when everything is
            // dropped or the op is a single perfect-link send).
            self.plan.clear();
            for &to in &dests[op.first as usize..(op.first + op.count) as usize] {
                assert!(
                    to.index() < self.nodes.len(),
                    "{v} sent to out-of-range node {to}"
                );
                self.transmissions += 1;
                emit(
                    &mut self.tracer,
                    TraceRecord::Send {
                        t: self.clock,
                        from: v.value(),
                        to: to.value(),
                    },
                );
                if !self.dg.current().has_edge(v, to) {
                    // No edge, no channel: dropped at the source (see
                    // `EventCtx::send`).
                    self.unroutable += 1;
                    emit(
                        &mut self.tracer,
                        TraceRecord::Unroutable {
                            t: self.clock,
                            from: v.value(),
                            to: to.value(),
                        },
                    );
                    continue;
                }
                for &delay in self.planner.plan(self.clock, v, to, &mut self.tracer) {
                    self.plan.push((to, self.clock + delay));
                }
            }
            let mut payload = Some(op.msg);
            let last = self.plan.len().wrapping_sub(1);
            for (i, &(to, at)) in self.plan.iter().enumerate() {
                let msg = if i == last {
                    payload.take().expect("moved only once, at the end")
                } else {
                    payload.as_ref().expect("present until the end").clone()
                };
                self.queue.schedule(at, Event::Deliver { to, from: v, msg });
            }
        }
        self.ops = ops;
        self.dests = dests;
        profile::lap(&mut self.prof, Phase::LinkPlanning);
        let gen = self.incarnation[v.index()];
        for &(delay, id) in &self.timers {
            self.queue
                .schedule(self.clock + delay, Event::Timer { node: v, id, gen });
            emit(
                &mut self.tracer,
                TraceRecord::TimerArmed {
                    t: self.clock,
                    node: v.value(),
                    id,
                    at: self.clock + delay,
                },
            );
        }
        profile::lap(&mut self.prof, Phase::Timers);
        if let Some(tracker) = &mut self.tracker {
            let know = self.nodes[v.index()]
                .known_tokens()
                .expect("tracking requires known_tokens() = Some");
            let gained = tracker.sync_node(v, know, self.dg.round());
            if gained > 0 {
                emit(
                    &mut self.tracer,
                    TraceRecord::Coverage {
                        t: self.clock,
                        node: v.value(),
                        gained: gained as u32,
                        known: know.count() as u32,
                    },
                );
            }
        }
        profile::lap(&mut self.prof, Phase::TrackerSync);
    }

    /// Runs the execution until completion (with tracking), quiescence, or
    /// the virtual-time cap. After a [`StopReason::TimeLimit`] stop it may be
    /// called again with a larger cap: the execution resumes where it
    /// stopped, and the split run is the one-shot run.
    pub fn run(&mut self, max_time: VirtualTime) -> EventReport {
        if !self.started {
            self.started = true;
            for v in NodeId::all(self.nodes.len()) {
                self.queue.schedule(0, Event::Start(v));
            }
        }
        let stopped = loop {
            if self
                .tracker
                .as_ref()
                .is_some_and(TokenTracker::all_complete)
            {
                break StopReason::Complete;
            }
            let Some(at) = self.queue.next_time() else {
                break StopReason::Quiescent;
            };
            if at > max_time {
                break StopReason::TimeLimit;
            }
            self.clock = at;
            self.advance_epochs_to(at);
            profile::lap(&mut self.prof, Phase::AdversaryEvolve);
            let (_, event) = self.queue.pop().expect("peeked");
            self.events += 1;
            profile::lap(&mut self.prof, Phase::QueuePop);
            match event {
                Event::Start(v) => self.dispatch(v, Event::Start(v)),
                Event::Deliver { to, .. } if self.down[to.index()] => {
                    // The receiver is crashed: the copy evaporates — not
                    // delivered, not traced, not in the transcript. (The
                    // copy was still *scheduled*, so link counters saw
                    // it; crash loss is a receiver property, not a link
                    // property.)
                }
                Event::Deliver { to, from, msg } => {
                    self.copies_delivered += 1;
                    if let Some(summarize) = self.summarize {
                        // Logged at consumption, before any sends the
                        // handler stages — so a receive always precedes
                        // its own acknowledgment in transcript order.
                        self.transcripts[to.index()].append(
                            Direction::Received,
                            from,
                            self.clock,
                            summarize(&msg),
                        );
                    }
                    emit(
                        &mut self.tracer,
                        TraceRecord::Delivered {
                            t: self.clock,
                            from: from.value(),
                            to: to.value(),
                        },
                    );
                    profile::lap(&mut self.prof, Phase::Delivery);
                    self.dispatch(to, Event::Deliver { to, from, msg });
                }
                Event::Timer { node, id, gen } => {
                    if self.down[node.index()] || gen != self.incarnation[node.index()] {
                        // Down node, or a timer armed in a previous
                        // incarnation: discarded silently. This is what
                        // makes `on_recover`'s re-arming safe — the old
                        // life's heartbeat chain can never interleave
                        // with the new one.
                    } else {
                        emit(
                            &mut self.tracer,
                            TraceRecord::TimerFired {
                                t: self.clock,
                                node: node.value(),
                                id,
                            },
                        );
                        self.dispatch(node, Event::Timer { node, id, gen });
                    }
                }
                Event::Crash(v) => {
                    debug_assert!(!self.down[v.index()], "{v} crashed twice");
                    self.down[v.index()] = true;
                    // Bumping the incarnation orphans every timer the
                    // node has in flight, even ones that would fire
                    // after its recovery.
                    self.incarnation[v.index()] += 1;
                    self.crashes += 1;
                    emit(
                        &mut self.tracer,
                        TraceRecord::NodeCrashed {
                            t: self.clock,
                            node: v.value(),
                        },
                    );
                }
                Event::Recover { node, mode } => {
                    debug_assert!(self.down[node.index()], "{node} recovered while up");
                    self.down[node.index()] = false;
                    self.recoveries += 1;
                    emit(
                        &mut self.tracer,
                        TraceRecord::NodeRecovered {
                            t: self.clock,
                            node: node.value(),
                        },
                    );
                    self.dispatch(node, Event::Recover { node, mode });
                }
                Event::PartitionStart(episode) => {
                    self.partition_episodes += 1;
                    emit(
                        &mut self.tracer,
                        TraceRecord::PartitionStarted {
                            t: self.clock,
                            episode,
                        },
                    );
                }
                Event::PartitionHeal(episode) => {
                    emit(
                        &mut self.tracer,
                        TraceRecord::PartitionHealed {
                            t: self.clock,
                            episode,
                        },
                    );
                    // Every live node gets the heal hook, in ascending
                    // ID order (crashed nodes re-pace via `on_recover`
                    // instead when their time comes).
                    for v in NodeId::all(self.nodes.len()) {
                        if !self.down[v.index()] {
                            self.dispatch(v, Event::Heal);
                        }
                    }
                }
                Event::Heal => unreachable!("Heal is dispatch-only, never queued"),
            }
        };
        EventReport {
            stopped,
            final_time: self.clock,
            epochs: self.dg.round(),
            events: self.events,
            transmissions: self.transmissions,
            unroutable: self.unroutable,
            copies_scheduled: self.planner.copies_scheduled,
            copies_delivered: self.copies_delivered,
            retransmissions: self.retransmissions,
            learnings: self
                .tracker
                .as_ref()
                .map_or(0, TokenTracker::total_learnings),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LinkModelExt, PerfectLink};
    use dynspread_graph::oblivious::StaticAdversary;
    use dynspread_graph::Graph;

    /// Sends to a fixed target at start, regardless of adjacency.
    struct BlindSender {
        target: NodeId,
        received: u64,
    }

    impl EventProtocol for BlindSender {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut EventCtx<'_, ()>) {
            ctx.send(self.target, ());
        }

        fn on_message(&mut self, _from: NodeId, _msg: &(), _ctx: &mut EventCtx<'_, ()>) {
            self.received += 1;
        }
    }

    #[test]
    fn send_without_an_edge_is_dropped_at_the_source() {
        // Path 0-1-2-3: node 0 targets non-neighbor 3, the rest target a
        // real neighbor.
        let nodes = vec![
            BlindSender {
                target: NodeId::new(3),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(0),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(1),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(2),
                received: 0,
            },
        ];
        let adversary = StaticAdversary::new(Graph::path(4));
        let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 3);
        let report = sim.run(100);
        assert_eq!(report.stopped, StopReason::Quiescent);
        assert_eq!(report.transmissions, 4);
        assert_eq!(report.unroutable, 1);
        assert_eq!(report.copies_scheduled, 3);
        assert_eq!(report.copies_delivered, 3);
        assert_eq!(sim.node(NodeId::new(3)).received, 0, "no edge, no delivery");
        assert_eq!(sim.node(NodeId::new(0)).received, 1);
    }

    #[test]
    fn run_report_carries_the_unroutable_counter() {
        let nodes = vec![
            BlindSender {
                target: NodeId::new(2),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(0),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(1),
                received: 0,
            },
        ];
        let adversary = StaticAdversary::new(Graph::path(3));
        let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 3);
        let event_report = sim.run(100);
        let report = sim.run_report("blind");
        assert_eq!(report.unroutable, 1, "0→2 has no edge on the path");
        assert_eq!(report.unroutable, event_report.unroutable);
        assert_eq!(report.total_messages, event_report.transmissions);
        assert_eq!(&*report.algorithm, "blind");
        assert!(!report.completed, "no tracking ⇒ never reported complete");
        assert!(report.to_string().contains("1 unroutable"));
    }

    #[test]
    fn mailbox_high_water_is_zero_until_a_delivery_is_consumed() {
        let blind = |target| BlindSender {
            target: NodeId::new(target),
            received: 0,
        };
        // Everyone targets node 2, which crashes while the copies are in
        // flight: 0 → 2 and 2 → 2 have no edge on the path, and 1 → 2 is
        // scheduled but evaporates at the down receiver.
        let mut sim = EventSim::new(
            vec![blind(2), blind(2), blind(2)],
            StaticAdversary::new(Graph::path(3)),
            PerfectLink.with_latency(2),
            1,
            3,
        );
        sim.set_fault_plan(crate::faults::FaultPlan::none(3).plant(
            NodeId::new(2),
            crate::faults::NodeFault {
                crash_at: 1,
                recover_at: None,
                mode: RecoveryMode::Amnesia,
            },
        ));
        assert_eq!(sim.max_mailbox_high_water(), 0, "before run");
        let report = sim.run(100);
        assert_eq!(
            (report.copies_scheduled, report.copies_delivered),
            (1, 0),
            "{report}"
        );
        assert_eq!(sim.max_mailbox_high_water(), 0, "nothing consumed");

        // Every node floods node 0 in one tick: each copy is consumed as it
        // arrives, so the backlog never exceeds one.
        let mut sim = EventSim::new(
            vec![blind(1), blind(0), blind(0), blind(0)],
            StaticAdversary::new(Graph::star(4)),
            PerfectLink,
            1,
            3,
        );
        assert_eq!(sim.max_mailbox_high_water(), 0, "before run");
        let report = sim.run(100);
        assert_eq!(report.copies_delivered, 4, "{report}");
        assert_eq!(sim.max_mailbox_high_water(), 1);
    }

    /// Re-arms a 1-tick heartbeat forever, broadcasting on every beat.
    struct Ticker {
        ticks: u64,
        received: u64,
        recoveries: u64,
        heals: u64,
    }

    impl Ticker {
        fn new() -> Self {
            Ticker {
                ticks: 0,
                received: 0,
                recoveries: 0,
                heals: 0,
            }
        }
    }

    impl EventProtocol for Ticker {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut EventCtx<'_, ()>) {
            ctx.set_timer(1, 0);
        }

        fn on_message(&mut self, _from: NodeId, _msg: &(), _ctx: &mut EventCtx<'_, ()>) {
            self.received += 1;
        }

        fn on_timer(&mut self, _id: u64, ctx: &mut EventCtx<'_, ()>) {
            self.ticks += 1;
            ctx.broadcast(());
            ctx.set_timer(1, 0);
        }

        fn on_recover(&mut self, _mode: RecoveryMode, ctx: &mut EventCtx<'_, ()>) {
            self.recoveries += 1;
            self.on_start(ctx);
        }

        fn on_heal(&mut self, _ctx: &mut EventCtx<'_, ()>) {
            self.heals += 1;
        }
    }

    #[test]
    fn crashed_nodes_are_silent_and_recover_with_fresh_timers() {
        use crate::faults::{FaultPlan, NodeFault};
        let nodes = vec![Ticker::new(), Ticker::new()];
        let adversary = StaticAdversary::new(Graph::complete(2));
        let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 5);
        let plan = FaultPlan::none(2).plant(
            NodeId::new(1),
            NodeFault {
                crash_at: 5,
                recover_at: Some(10),
                mode: RecoveryMode::Amnesia,
            },
        );
        sim.set_fault_plan(plan);
        let report = sim.run(20);
        assert_eq!(report.stopped, StopReason::TimeLimit);
        assert_eq!(sim.fault_counters(), (1, 1, 0));
        assert!(!sim.is_down(NodeId::new(1)), "recovered by t=10");
        let up = sim.node(NodeId::new(0));
        let faulted = sim.node(NodeId::new(1));
        assert_eq!(up.recoveries, 0);
        assert_eq!(faulted.recoveries, 1);
        // Node 1 beats at t=1..4 (4 beats), is dark over [5, 10), then its
        // post-recovery chain beats at t=11.. — the pre-crash timer chain
        // is dead, so exactly one chain runs.
        assert_eq!(faulted.ticks, 4 + (20 - 11 + 1));
        // Node 0 never stops: one beat per tick from t=1.
        assert_eq!(up.ticks, 20);
        // Deliveries into the outage window evaporated: node 1 misses
        // node 0's beats sent at t=5..9 (delivered same tick under a
        // perfect link, while node 1 was down) and the t=10 beat arrives
        // after recovery.
        assert_eq!(faulted.received, up.ticks - 5);
        // Node 0 heard nothing while node 1 was dark.
        assert_eq!(up.received, faulted.ticks);
        let rr = sim.run_report("ticker");
        assert_eq!(
            (rr.crashes, rr.recoveries, rr.partition_episodes),
            (1, 1, 0)
        );
        assert!(rr.to_string().contains("faults: 1 crashes, 1 recoveries"));
    }

    #[test]
    fn partition_heal_dispatches_on_heal_to_live_nodes_only() {
        use crate::faults::{FaultPlan, NodeFault};
        let nodes = vec![Ticker::new(), Ticker::new(), Ticker::new()];
        let adversary = StaticAdversary::new(Graph::complete(3));
        let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 5);
        let plan = FaultPlan::none(3)
            .with_partition(3, 8, vec![false, true, true])
            .plant(
                NodeId::new(2),
                NodeFault {
                    crash_at: 4,
                    recover_at: None,
                    mode: RecoveryMode::Amnesia,
                },
            );
        sim.set_fault_plan(plan);
        let report = sim.run(15);
        assert_eq!(report.stopped, StopReason::TimeLimit);
        assert_eq!(sim.fault_counters(), (1, 0, 1));
        assert_eq!(sim.down_count(), 1);
        assert_eq!(sim.node(NodeId::new(0)).heals, 1);
        assert_eq!(sim.node(NodeId::new(1)).heals, 1);
        assert_eq!(
            sim.node(NodeId::new(2)).heals,
            0,
            "crash-stopped node never hears the heal"
        );
        // Note: without a PartitionLink wrap the cut does not affect the
        // link — this test only exercises the boundary events.
    }

    #[test]
    fn empty_fault_plan_is_byte_identical_to_no_plan() {
        use crate::faults::FaultPlan;
        let run = |with_plan: bool| {
            let nodes = vec![Ticker::new(), Ticker::new()];
            let adversary = StaticAdversary::new(Graph::complete(2));
            let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 5);
            if with_plan {
                sim.set_fault_plan(FaultPlan::none(2));
            }
            let report = sim.run(50);
            (
                format!("{report:?}"),
                sim.node(NodeId::new(0)).received,
                sim.fault_counters(),
            )
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn send_to_out_of_range_node_panics_clearly() {
        let nodes = vec![
            BlindSender {
                target: NodeId::new(9),
                received: 0,
            },
            BlindSender {
                target: NodeId::new(0),
                received: 0,
            },
        ];
        let adversary = StaticAdversary::new(Graph::path(2));
        let mut sim = EventSim::new(nodes, adversary, PerfectLink, 1, 3);
        sim.run(100);
    }
}
