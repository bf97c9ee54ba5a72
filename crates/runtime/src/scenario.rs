//! The unified `Scenario` front door: one builder for every async run.
//!
//! Every axis of the runtime — dynamic topology, link model, crash and
//! partition faults, Byzantine misbehavior, tracing, concurrent sessions
//! — is one builder call, and any subset composes in a single
//! execution:
//!
//! ```
//! use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring};
//! use dynspread_runtime::link::{DropLink, LinkModelExt};
//! use dynspread_runtime::scenario::Scenario;
//!
//! let out = Scenario::new(8, 4)
//!     .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 7))
//!     .link(DropLink::new(0.2).with_jitter(2))
//!     .seed(41)
//!     .run_single_source();
//! assert!(out.completed, "{}", out.report);
//! ```
//!
//! Every optional axis is a builder call: [`Scenario::faults`] injects a
//! [`FaultPlan`], [`Scenario::byzantine`] a [`MisbehaviorPlan`] (both at
//! once compose), [`Scenario::trace`] attaches a deterministic JSONL
//! tracer, and [`Scenario::session`] queues dissemination sessions for
//! the multi-session service layer ([`Scenario::run_sessions`]).
//!
//! # Composition rules
//!
//! The execution core *always* arms every axis — absent plans are
//! replaced by their proven-identity neutral elements
//! ([`FaultPlan::none`], [`MisbehaviorPlan::honest`]) — so composed and
//! single-axis runs go through literally the same code path, one
//! private phase runner shared by the three protocol entry points:
//!
//! * the link is wrapped in [`PartitionLink`] over the fault plan (an
//!   empty plan is byte-identical to the raw link);
//! * the nodes are wrapped in [`Misbehaving`] (an honest plan is
//!   byte-identical to unwrapped nodes);
//! * transcripts are recorded, and evidence audited, only when a real
//!   Byzantine plan is present (recording is observation-only either
//!   way).
//!
//! `tests/scenario_identity.rs` at the workspace root holds hand-built
//! raw-engine twins of these runs — unwrapped nodes, raw links, a
//! hand-rolled hand-off — and compares the builder to them `Debug` byte
//! for byte: they are the builder's reference implementation.

use crate::byzantine::{
    check_evidence, AuditMsg, AuditSetup, Evidence, Misbehaving, MisbehaviorPlan, Tamper,
};
use crate::engine::{EventProtocol, EventReport, EventSim, StopReason};
use crate::event::VirtualTime;
use crate::faults::{coverage_over, FaultPlan, PartitionLink};
use crate::link::{LinkModel, PerfectLink};
use crate::protocol::{
    AsyncConfig, AsyncMultiSource, AsyncOblivious, AsyncObliviousConfig, AsyncSingleSource,
};
use crate::session::{SessionBoard, SessionMux, SessionSpec, SessionWorkload};
use crate::trace::{JsonlTracer, TraceRecord};
use bincodec::{Decode, Encode};
use dynspread_core::multi_source::SourceMap;
use dynspread_core::oblivious::{center_count, degree_threshold, source_threshold};
use dynspread_graph::adversary::Adversary;
use dynspread_graph::oblivious::StaticAdversary;
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_sim::RunReport;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Builder for one fully-configured asynchronous execution.
///
/// See the [module docs](self) for the composition rules. The adversary
/// and link default to a static complete graph over perfect links; the
/// graph is built on the first topology epoch, so replacing it through
/// [`Scenario::topology`] never pays for `K_n`.
#[derive(Clone, Debug)]
pub struct Scenario<A = StaticAdversary, L = PerfectLink> {
    adversary: A,
    link: L,
    settings: Settings,
}

/// Everything a [`Scenario`] holds besides its adversary and link: the
/// part that keeps its type when either is replaced, and what one engine
/// run (a *phase*) is armed from.
#[derive(Clone, Debug)]
struct Settings {
    assignment: TokenAssignment,
    ticks_per_round: VirtualTime,
    seed: u64,
    retransmit: AsyncConfig,
    max_time: VirtualTime,
    faults: Option<FaultPlan>,
    byzantine: Option<MisbehaviorPlan>,
    tracer: Option<JsonlTracer>,
    name: Option<String>,
    sessions: Vec<SessionSpec>,
}

impl Scenario {
    /// A single-source scenario: `k` tokens at node 0, `n` nodes, static
    /// complete graph, perfect links. Override any part with the builder
    /// methods.
    pub fn new(n: usize, k: usize) -> Self {
        Scenario::from_assignment(TokenAssignment::single_source(n, k, NodeId::new(0)))
    }

    /// A scenario over an explicit token placement.
    pub fn from_assignment(assignment: TokenAssignment) -> Self {
        let n = assignment.node_count();
        Scenario {
            adversary: StaticAdversary::complete(n),
            link: PerfectLink,
            settings: Settings {
                assignment,
                ticks_per_round: 2,
                seed: 0,
                retransmit: AsyncConfig::default(),
                max_time: 2_000_000,
                faults: None,
                byzantine: None,
                tracer: None,
                name: None,
                sessions: Vec::new(),
            },
        }
    }
}

impl<A, L> Scenario<A, L> {
    /// Replaces the dynamic-topology adversary.
    pub fn topology<A2: Adversary>(self, adversary: A2) -> Scenario<A2, L> {
        Scenario {
            adversary,
            link: self.link,
            settings: self.settings,
        }
    }

    /// Replaces the link model.
    pub fn link<L2: LinkModel>(self, link: L2) -> Scenario<A, L2> {
        Scenario {
            adversary: self.adversary,
            link,
            settings: self.settings,
        }
    }

    /// Replaces the token placement.
    ///
    /// # Panics
    ///
    /// Panics if session specs over a different node count were already
    /// queued.
    pub fn assignment(mut self, assignment: TokenAssignment) -> Self {
        if let Some(spec) = self.settings.sessions.first() {
            assert_eq!(
                spec.assignment.node_count(),
                assignment.node_count(),
                "session assignment node count"
            );
        }
        self.settings.assignment = assignment;
        self
    }

    /// Virtual ticks per topology epoch (default 2).
    pub fn ticks_per_round(mut self, ticks: VirtualTime) -> Self {
        self.settings.ticks_per_round = ticks;
        self
    }

    /// Engine seed (links, scheduling; default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.settings.seed = seed;
        self
    }

    /// Retransmission tuning for the async ports (default
    /// [`AsyncConfig::default`]).
    pub fn retransmit(mut self, cfg: AsyncConfig) -> Self {
        self.settings.retransmit = cfg;
        self
    }

    /// Hard cap on virtual time (default 2 000 000).
    pub fn max_time(mut self, max_time: VirtualTime) -> Self {
        self.settings.max_time = max_time;
        self
    }

    /// Names the [`RunReport`] (defaults to a `scenario-*` name per
    /// entry point).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.settings.name = Some(name.into());
        self
    }

    /// Injects a crash/recovery/partition plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.settings.faults = Some(plan);
        self
    }

    /// Injects a Byzantine misbehavior plan; transcripts are recorded
    /// and audited, and the report's Byzantine counters stamped.
    pub fn byzantine(mut self, plan: MisbehaviorPlan) -> Self {
        self.settings.byzantine = Some(plan);
        self
    }

    /// Attaches a deterministic JSONL tracer; the caller keeps a clone
    /// and reads the trace after the run.
    pub fn trace(mut self, tracer: JsonlTracer) -> Self {
        self.settings.tracer = Some(tracer);
        self
    }

    /// Queues one dissemination session for [`Scenario::run_sessions`].
    ///
    /// # Panics
    ///
    /// Panics if the spec's node count differs from the scenario's.
    pub fn session(mut self, spec: SessionSpec) -> Self {
        assert_eq!(
            spec.assignment.node_count(),
            self.settings.assignment.node_count(),
            "session assignment node count"
        );
        self.settings.sessions.push(spec);
        self
    }

    /// Queues a whole arrival trace of sessions.
    ///
    /// # Panics
    ///
    /// Panics if the workload's node count differs from the scenario's.
    pub fn workload(mut self, workload: &SessionWorkload) -> Self {
        assert_eq!(
            workload.node_count(),
            self.settings.assignment.node_count(),
            "session assignment node count"
        );
        for spec in workload.specs() {
            self.settings.sessions.push(spec.clone());
        }
        self
    }
}

/// Outcome of a single-phase [`Scenario`] run.
///
/// Every field is always computed, with the unused axes' fields at their
/// neutral values (empty evidence, coverage 1.0, zero injections).
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// The engine-level report.
    pub event: EventReport,
    /// The workspace-level report, with fault and Byzantine counters
    /// filled.
    pub report: RunReport,
    /// Every proven violation (empty without a Byzantine plan).
    pub evidence: Vec<Evidence>,
    /// Final per-node token knowledge.
    pub final_knowledge: Vec<TokenSet>,
    /// Mean coverage over the nodes up at the end of the run: under
    /// crash-stop plans the dead nodes can never learn anything, so
    /// this measures what the survivors salvaged.
    pub live_coverage: f64,
    /// Mean coverage over the honest nodes.
    pub honest_coverage: f64,
    /// Misbehaving actions actually injected by the wrappers.
    pub injected: u64,
    /// Whether the run reached full dissemination (all nodes, including
    /// malicious ones and any that never recovered).
    pub completed: bool,
}

/// Outcome of a two-phase oblivious [`Scenario`] run.
#[derive(Clone, Debug)]
pub struct ScenarioObliviousOutcome {
    /// Phase-1 report (absent on the few-sources fast path).
    pub phase1: Option<EventReport>,
    /// Phase-2 report.
    pub phase2: EventReport,
    /// The workspace-level report (phase-2 engine), fault counters
    /// summed over both phases, Byzantine counters from both audits.
    pub report: RunReport,
    /// Violations proven across both phases (empty without a plan).
    pub evidence: Vec<Evidence>,
    /// The elected centers (or the original sources on the fast path).
    pub centers: Vec<NodeId>,
    /// The phase-2 sources: deduplicated token owners after phase 1.
    pub sources: Vec<NodeId>,
    /// Tokens re-homed because their resolved claimant was down at the
    /// hand-off.
    pub crash_reclaimed: usize,
    /// Tokens recovered from their original holder because every
    /// claimant was destroyed by forged acks.
    pub stolen_recovered: usize,
    /// Tokens resolved to a non-center owner at the hand-off.
    pub stranded_tokens: usize,
    /// Final per-node token knowledge after phase 2.
    pub final_knowledge: Vec<TokenSet>,
    /// Mean coverage over the nodes up at the end of phase 2.
    pub live_coverage: f64,
    /// Mean coverage over the honest nodes.
    pub honest_coverage: f64,
    /// Number of malicious nodes in the plan (0 without one).
    pub byzantine_nodes: usize,
    /// Misbehaving actions injected across both phases.
    pub injected: u64,
    /// Whether phase 2 reached full dissemination.
    pub completed: bool,
}

impl ScenarioObliviousOutcome {
    /// Total link-layer transmissions across both phases.
    pub fn total_transmissions(&self) -> u64 {
        self.phase2.transmissions + self.phase1.as_ref().map_or(0, |r| r.transmissions)
    }

    /// Total engine events across both phases.
    pub fn total_events(&self) -> u64 {
        self.phase2.events + self.phase1.as_ref().map_or(0, |r| r.events)
    }

    /// Total topology epochs across both phases.
    pub fn total_epochs(&self) -> u64 {
        self.phase2.epochs + self.phase1.as_ref().map_or(0, |r| r.epochs)
    }
}

/// Per-session result of a [`Scenario::run_sessions`] execution.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The spec's label.
    pub label: String,
    /// When the session joined the shared network.
    pub arrival: VirtualTime,
    /// When its last node reached a full token set (None = never).
    pub completed_at: Option<VirtualTime>,
    /// `completed_at − arrival` on the shared virtual clock.
    pub latency: Option<VirtualTime>,
    /// Envelopes this session staged on the shared links.
    pub messages: u64,
    /// Envelopes delivered to this session's instances.
    pub delivered: u64,
    /// Nodes whose instance reached a full token set (`n` once the
    /// session completed).
    pub complete_nodes: usize,
    /// Order-sensitive chain hash over the session's envelope headers —
    /// equal across byte-identical replays.
    pub digest: u64,
    /// A session-scoped [`RunReport`]: message and completion fields are
    /// this session's own, engine-wide context (topology, faults) is
    /// carried from the aggregate run.
    pub report: RunReport,
}

/// Outcome of a multi-session service run.
#[derive(Clone, Debug)]
pub struct ServiceOutcome {
    /// The engine-level report of the shared execution.
    pub event: EventReport,
    /// The aggregate workspace-level report.
    pub report: RunReport,
    /// One report per session, in workload order.
    pub sessions: Vec<SessionReport>,
    /// Envelopes whose payload failed to decode.
    pub decode_errors: u64,
    /// Envelopes addressed to sessions not live at the receiver.
    pub foreign_drops: u64,
}

impl ServiceOutcome {
    /// Number of sessions that reached full dissemination.
    pub fn completed_sessions(&self) -> usize {
        self.sessions
            .iter()
            .filter(|s| s.completed_at.is_some())
            .count()
    }

    /// Sorted latencies of the completed sessions.
    pub fn latencies(&self) -> Vec<VirtualTime> {
        let mut out: Vec<VirtualTime> = self.sessions.iter().filter_map(|s| s.latency).collect();
        out.sort_unstable();
        out
    }

    /// Nearest-rank latency percentile over completed sessions
    /// (`q` in `[0, 1]`); `None` when none completed.
    pub fn latency_percentile(&self, q: f64) -> Option<VirtualTime> {
        let lats = self.latencies();
        if lats.is_empty() {
            return None;
        }
        let rank = ((q * lats.len() as f64).ceil() as usize).clamp(1, lats.len());
        Some(lats[rank - 1])
    }

    /// Total envelopes staged across all sessions.
    pub fn total_session_messages(&self) -> u64 {
        self.sessions.iter().map(|s| s.messages).sum()
    }
}

/// The engine of one phase: misbehavior-wrapped nodes over a
/// partition-wrapped link.
type PhaseSim<P, A, L> = EventSim<Misbehaving<P>, A, PartitionLink<L>>;

/// One finished engine run: the engine (kept for post-run inspection),
/// its report, what the audit proved, and how many misbehaving actions
/// the wrappers injected.
struct PhaseRun<P: Tamper, A: Adversary, L: LinkModel> {
    sim: PhaseSim<P, A, L>,
    event: EventReport,
    evidence: Vec<Evidence>,
    injected: u64,
}

impl Settings {
    /// The checks every protocol entry point starts with.
    fn assert_runnable(&self) {
        assert!(
            self.sessions.is_empty(),
            "queued sessions run through run_sessions, not the protocol drivers"
        );
        let n = self.assignment.node_count();
        if let Some(plan) = &self.faults {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        if let Some(plan) = &self.byzantine {
            assert_eq!(plan.node_count(), n, "plan size");
        }
    }

    /// Stitches the two engines' traces of the oblivious pipeline with a
    /// phase-boundary record.
    fn mark_phase(&self, p: u32) {
        if let Some(tr) = &self.tracer {
            tr.append(&TraceRecord::Phase { p });
        }
    }

    /// Builds the event engine for one run, with the fault axis (no faults
    /// when none were given) and the tracer armed. `tracked` is the initial
    /// knowledge completion is tracked against; `None` runs untracked.
    fn arm<P: EventProtocol, A: Adversary, L: LinkModel>(
        &self,
        nodes: Vec<P>,
        adversary: A,
        link: L,
        tracked: Option<&TokenAssignment>,
    ) -> EventSim<P, A, PartitionLink<L>> {
        let n = self.assignment.node_count();
        let fplan = self.faults.clone().unwrap_or_else(|| FaultPlan::none(n));
        let link = PartitionLink::new(link, Arc::new(fplan.clone()));
        let (ticks, seed) = (self.ticks_per_round, self.seed);
        let mut sim = match tracked {
            Some(initial) => EventSim::with_tracking(nodes, adversary, link, ticks, seed, initial),
            None => EventSim::new(nodes, adversary, link, ticks, seed),
        };
        sim.set_fault_plan(fplan);
        if let Some(tr) = &self.tracer {
            sim.set_tracer(tr.clone());
        }
        sim
    }

    /// The one execution core behind every protocol entry point: arm
    /// every axis over `nodes` (neutral elements when absent), run to
    /// `max_time`, and audit the transcripts when a Byzantine plan is
    /// present. `tracked` is the initial knowledge completion is tracked
    /// against; an untracked run ends at quiescence. `setup` is only
    /// called for an audit, after the run, so it can read the nodes'
    /// final state.
    fn run_phase<P, A, L>(
        &self,
        nodes: Vec<P>,
        adversary: A,
        link: L,
        tracked: Option<&TokenAssignment>,
        setup: impl FnOnce(&PhaseSim<P, A, L>) -> AuditSetup,
    ) -> PhaseRun<P, A, L>
    where
        P: Tamper,
        P::Msg: AuditMsg,
        A: Adversary,
        L: LinkModel,
    {
        let n = self.assignment.node_count();
        let nodes = match &self.byzantine {
            Some(plan) => plan.wrap(nodes),
            None => MisbehaviorPlan::honest(n).wrap(nodes),
        };
        let mut sim = self.arm(nodes, adversary, link, tracked);
        if self.byzantine.is_some() {
            sim.record_transcripts();
        }
        let event = sim.run(self.max_time);
        let evidence = if self.byzantine.is_some() {
            check_evidence(&setup(&sim), sim.transcripts())
        } else {
            Vec::new()
        };
        let injected = NodeId::all(n).map(|v| sim.node(v).injected()).sum();
        PhaseRun {
            sim,
            event,
            evidence,
            injected,
        }
    }
}

impl<P: Tamper, A: Adversary, L: LinkModel> PhaseRun<P, A, L> {
    /// Measures a tracked run into the single-phase outcome: the named
    /// and stamped report, the final knowledge, and coverage over the
    /// live and over the honest nodes.
    fn into_outcome(self, settings: &Settings, name: &str) -> ScenarioOutcome {
        let PhaseRun {
            sim,
            event,
            evidence,
            injected,
        } = self;
        let n = settings.assignment.node_count();
        let k = settings.assignment.token_count();
        let mut report = sim.run_report(name);
        let byzantine = settings.byzantine.as_ref();
        if let Some(plan) = byzantine {
            stamp_report(&mut report, plan, &evidence);
        }
        let tracker = sim.tracker().expect("tracking enabled");
        let final_knowledge: Vec<TokenSet> = NodeId::all(n)
            .map(|v| tracker.knowledge(v).clone())
            .collect();
        let live_coverage = coverage_over(k, final_knowledge.iter(), |v| !sim.is_down(v));
        let honest_coverage = coverage_over(k, final_knowledge.iter(), |v| {
            !byzantine.is_some_and(|plan| plan.is_malicious(v))
        });
        let completed = event.stopped == StopReason::Complete;
        ScenarioOutcome {
            event,
            report,
            evidence,
            final_knowledge,
            live_coverage,
            honest_coverage,
            injected,
            completed,
        }
    }
}

/// Fills the Byzantine counters of a [`RunReport`]: plan size, proven
/// violations, and distinct indicted nodes.
fn stamp_report(report: &mut RunReport, plan: &MisbehaviorPlan, evidence: &[Evidence]) {
    report.byzantine_nodes = plan.byzantine_nodes();
    report.violations_detected = evidence.len() as u64;
    report.evidence_verdicts = evidence
        .iter()
        .map(|e| e.culprit)
        .collect::<BTreeSet<_>>()
        .len() as u64;
}

/// What phase 2 of the oblivious pipeline starts from.
struct HandOff {
    /// Every node's phase-1 knowledge: phase 2's initial placement.
    knowledge: TokenAssignment,
    /// Each token's resolved owner: phase 2's sources.
    map: Arc<SourceMap>,
    crash_reclaimed: usize,
    stolen_recovered: usize,
    stranded: usize,
}

/// The crash- and Byzantine-tolerant phase-1 → phase-2 hand-off; see
/// [`Scenario::run_oblivious`] for the resolution rules.
fn resolve_hand_off<A: Adversary, L: LinkModel>(
    sim1: &PhaseSim<AsyncOblivious, A, L>,
    assignment: &TokenAssignment,
    is_center: &[bool],
) -> HandOff {
    let n = assignment.node_count();
    let k = assignment.token_count();
    // Claimant preference: up beats down, then center beats walker,
    // then (scanning ascending, replacing only on strict improvement)
    // the lowest ID.
    let rank =
        |v: NodeId| -> u8 { u8::from(!sim1.is_down(v)) * 2 + u8::from(is_center[v.index()]) };
    let mut owner_of: Vec<Option<NodeId>> = vec![None; k];
    for v in NodeId::all(n) {
        for t in sim1.node(v).inner().responsible_tokens() {
            let slot = &mut owner_of[t.index()];
            match *slot {
                None => *slot = Some(v),
                Some(prev) => {
                    if rank(v) > rank(prev) {
                        *slot = Some(v);
                    }
                }
            }
        }
    }
    let original_holder = |t: TokenId| {
        assignment
            .holders(t)
            .next()
            .expect("every token has an initial holder")
    };
    let mut ownership = TokenAssignment::empty(n, k);
    let mut knowledge = TokenAssignment::empty(n, k);
    let mut stranded = 0usize;
    let mut crash_reclaimed = 0usize;
    let mut stolen_recovered = 0usize;
    for (ti, owner) in owner_of.iter().enumerate() {
        let t = TokenId::new(ti as u32);
        let mut v = owner.unwrap_or_else(|| {
            // Every claimant was destroyed (forged-ack theft): recover
            // from the token's original holder, which still knows it
            // (knowledge is monotone).
            stolen_recovered += 1;
            original_holder(t)
        });
        if sim1.is_down(v) {
            // Every claimant crash-stopped mid-walk. Re-home the token
            // to a live node that knows it (knowledge is durable, so the
            // crashed owner's upstream senders still do), preferring a
            // center; the original assignment holder is the last resort.
            crash_reclaimed += 1;
            let knows = |u: NodeId| {
                !sim1.is_down(u) && sim1.node(u).known_tokens().is_some_and(|kn| kn.contains(t))
            };
            v = NodeId::all(n)
                .find(|&u| knows(u) && is_center[u.index()])
                .or_else(|| NodeId::all(n).find(|&u| knows(u)))
                .unwrap_or_else(|| original_holder(t));
        }
        ownership.add_holder(t, v);
        if !is_center[v.index()] {
            stranded += 1;
        }
    }
    for v in NodeId::all(n) {
        let know = sim1
            .node(v)
            .known_tokens()
            .expect("walk nodes expose knowledge");
        for t in know.iter() {
            knowledge.add_holder(t, v);
        }
    }
    HandOff {
        knowledge,
        map: Arc::new(SourceMap::from_assignment(&ownership)),
        crash_reclaimed,
        stolen_recovered,
        stranded,
    }
}

impl<A: Adversary, L: LinkModel> Scenario<A, L> {
    /// Runs [`AsyncSingleSource`] under every configured axis.
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued (use [`Scenario::run_sessions`]).
    pub fn run_single_source(self) -> ScenarioOutcome {
        let s = &self.settings;
        let nodes = AsyncSingleSource::nodes(&s.assignment, s.retransmit);
        let setup = AuditSetup::single_source(&s.assignment);
        self.execute(nodes, setup, "scenario-async-single-source")
    }

    /// Runs [`AsyncMultiSource`] under every configured axis.
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued (use [`Scenario::run_sessions`]).
    pub fn run_multi_source(self) -> ScenarioOutcome {
        let s = &self.settings;
        let (nodes, map) = AsyncMultiSource::nodes(&s.assignment, s.retransmit);
        let setup = AuditSetup::multi_source(&s.assignment, &map);
        self.execute(nodes, setup, "scenario-async-multi-source")
    }

    /// A single-phase run: one tracked phase over the scenario's own
    /// assignment.
    fn execute<P>(self, nodes: Vec<P>, setup: AuditSetup, fallback: &str) -> ScenarioOutcome
    where
        P: Tamper,
        P::Msg: AuditMsg,
    {
        let s = &self.settings;
        s.assert_runnable();
        s.run_phase(
            nodes,
            self.adversary,
            self.link,
            Some(&s.assignment),
            |_| setup,
        )
        .into_outcome(s, s.name.as_deref().unwrap_or(fallback))
    }

    /// Runs the full two-phase oblivious pipeline under every configured
    /// axis. The scenario's adversary/link/faults drive phase 1;
    /// `adversary2`/`link2`/`faults2` drive phase 2 (each phase's engine
    /// restarts the virtual clock, so the plans' times are phase-local).
    /// `cfg` supplies the pipeline's seed, ticks per round, retransmit
    /// tuning and per-phase time caps; the builder's own
    /// `seed`/`ticks_per_round`/`retransmit`/`max_time` are unused. A
    /// Byzantine plan applies to both phases, with both transcripts
    /// audited, and a tracer receives both engines' traces stitched by
    /// `phase` boundary records (`p:1` for the walk, `p:2` for the
    /// spread).
    ///
    /// With at most `cfg.source_threshold` sources (default
    /// `n^{2/3} log^{5/3} n`) the pipeline is a single multi-source run: phase 1 is skipped,
    /// only the phase-2 axes apply, only `p:2` is traced, and a report
    /// name ending in `oblivious` ends in `multi-source` instead.
    ///
    /// Phase 1 ends by *distributed* quiescence — every node locally
    /// sheds or (at the deadline) freezes its tokens and stops its
    /// heartbeat, draining the event queue — after which the hand-off
    /// harvests ownership and knowledge and makes the owners phase 2's
    /// sources. A token can end phase 1 with two claimants (the
    /// adversary or a crash severed the transfer's edge after delivery
    /// but before the ack) or, under forged acks, with none. The
    /// hand-off resolves each token's claimants by preferring live over
    /// down, then center over walker, then the lowest ID; a token whose
    /// every claimant was destroyed by forged acks is recovered from its
    /// original holder (`stolen_recovered`), and one whose resolved
    /// claimant is down at the hand-off is re-homed to a live knower,
    /// preferring a center (`crash_reclaimed`).
    ///
    /// # Examples
    ///
    /// ```
    /// use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring};
    /// use dynspread_runtime::link::{DropLink, LinkModelExt};
    /// use dynspread_runtime::protocol::AsyncObliviousConfig;
    /// use dynspread_runtime::scenario::Scenario;
    /// use dynspread_sim::token::TokenAssignment;
    ///
    /// // Every node a source, over links the round-based pipeline cannot
    /// // run on at all: 30% drop plus jitter.
    /// let cfg = AsyncObliviousConfig {
    ///     seed: 7,
    ///     source_threshold: Some(1.0), // force the two-phase path at this scale
    ///     center_probability: Some(0.25),
    ///     ..AsyncObliviousConfig::default()
    /// };
    /// let out = Scenario::from_assignment(TokenAssignment::n_gossip(12))
    ///     .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1))
    ///     .link(DropLink::new(0.3).with_jitter(2))
    ///     .run_oblivious(
    ///         PeriodicRewiring::new(Topology::RandomTree, 3, 2),
    ///         DropLink::new(0.3).with_jitter(2),
    ///         &cfg,
    ///         None,
    ///     );
    /// assert!(out.completed);
    /// assert!(!out.centers.is_empty());
    /// assert!(out.final_knowledge.iter().all(|k| k.is_full()));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if a plan's node count differs from the assignment's, or
    /// sessions were queued.
    pub fn run_oblivious<A2, L2>(
        self,
        adversary2: A2,
        link2: L2,
        cfg: &AsyncObliviousConfig,
        faults2: Option<&FaultPlan>,
    ) -> ScenarioObliviousOutcome
    where
        A2: Adversary,
        L2: LinkModel,
    {
        let Scenario {
            adversary,
            link,
            settings,
        } = self;
        let phase1 = Settings {
            ticks_per_round: cfg.ticks_per_round,
            seed: cfg.seed ^ 0x5EED_0B71_0001u64,
            retransmit: cfg.retransmit,
            max_time: cfg.phase1_max_time,
            ..settings
        };
        let phase2 = Settings {
            seed: cfg.seed ^ 0x5EED_0B71_0002u64,
            max_time: cfg.phase2_max_time,
            faults: faults2.cloned(),
            ..phase1.clone()
        };
        // A bad plan for either phase fails before any engine runs.
        phase1.assert_runnable();
        phase2.assert_runnable();
        let assignment = &phase1.assignment;
        let n = assignment.node_count();
        let k = assignment.token_count();
        let name = phase2.name.as_deref().unwrap_or("scenario-async-oblivious");
        let byzantine_nodes = phase2.byzantine.as_ref().map_or(0, |p| p.byzantine_nodes());

        // Phase 2 starts from a hand-off. With few sources it is the
        // initial placement (the paper's lines 1-2) and the report is
        // named for a multi-source run; otherwise phase 1 walks the tokens
        // to the centers.
        let threshold = cfg.source_threshold.unwrap_or_else(|| source_threshold(n));
        let (walk, centers, hand_off, name) = if (assignment.sources().len() as f64) <= threshold {
            let hand_off = HandOff {
                knowledge: assignment.clone(),
                map: Arc::new(SourceMap::from_assignment(assignment)),
                crash_reclaimed: 0,
                stolen_recovered: 0,
                stranded: 0,
            };
            let name = match name.strip_suffix("oblivious") {
                Some(prefix) => format!("{prefix}multi-source"),
                None => name.to_string(),
            };
            // No walk: no phase-1 report, evidence, injections or faults.
            (Default::default(), assignment.sources(), hand_off, name)
        } else {
            // ---- Phase 1: the walk, audited against the *inner*
            // (honest-state) final claims. ----
            let f = center_count(n, k);
            let p_center = cfg
                .center_probability
                .unwrap_or_else(|| (f / n as f64).min(1.0));
            let gamma = cfg
                .degree_threshold
                .unwrap_or_else(|| degree_threshold(n, f));
            let walkers = AsyncOblivious::nodes(
                assignment,
                p_center,
                gamma,
                cfg.seed,
                cfg.retransmit,
                cfg.phase1_deadline,
            );
            let is_center: Vec<bool> = walkers.iter().map(AsyncOblivious::is_center).collect();
            let centers = NodeId::all(n).filter(|v| is_center[v.index()]).collect();
            phase1.mark_phase(1);
            let walk = phase1.run_phase(walkers, adversary, link, None, |sim| {
                let final_claims: Vec<Vec<TokenId>> = NodeId::all(n)
                    .map(|v| sim.node(v).inner().responsible_tokens().collect())
                    .collect();
                AuditSetup::oblivious(assignment, is_center.clone(), final_claims)
            });

            // ---- Hand-off: resolved owners become phase 2's sources. ----
            // Phase 1's engine (nodes, queue, transcripts) is dropped at
            // the end of this block, before phase 2's is built: all that
            // outlives the hand-off is its report, evidence and counters.
            let hand_off = resolve_hand_off(&walk.sim, assignment, &is_center);
            let faults = walk.sim.fault_counters();
            let walk = (Some(walk.event), walk.evidence, walk.injected, faults);
            (walk, centers, hand_off, name.to_string())
        };
        let (knowledge, map) = (&hand_off.knowledge, &hand_off.map);

        // ---- Phase 2: multi-source spread from the owners. ----
        let spreaders = NodeId::all(n)
            .map(|v| AsyncMultiSource::new(v, knowledge, Arc::clone(map), cfg.retransmit))
            .collect();
        phase2.mark_phase(2);
        let mut spread = phase2.run_phase(spreaders, adversary2, link2, Some(knowledge), |_| {
            AuditSetup::multi_source(knowledge, map)
        });

        // The outcome spans both phases: phase 1's evidence first,
        // injections and fault counters summed.
        let (phase1_report, evidence, injected, (crashes, recoveries, partition_episodes)) = walk;
        spread.evidence.splice(0..0, evidence);
        spread.injected += injected;
        let mut out = spread.into_outcome(&phase2, &name);
        out.report.crashes += crashes;
        out.report.recoveries += recoveries;
        out.report.partition_episodes += partition_episodes;
        ScenarioObliviousOutcome {
            phase1: phase1_report,
            phase2: out.event,
            report: out.report,
            evidence: out.evidence,
            centers,
            sources: map.sources().to_vec(),
            crash_reclaimed: hand_off.crash_reclaimed,
            stolen_recovered: hand_off.stolen_recovered,
            stranded_tokens: hand_off.stranded,
            final_knowledge: out.final_knowledge,
            live_coverage: out.live_coverage,
            honest_coverage: out.honest_coverage,
            byzantine_nodes,
            injected: out.injected,
            completed: out.completed,
        }
    }

    /// Runs the queued sessions as [`AsyncSingleSource`] instances
    /// multiplexed over one shared engine and evolving topology.
    ///
    /// # Panics
    ///
    /// Panics if no sessions were queued, a fault plan's node count
    /// differs from the scenario's, or a Byzantine plan is present
    /// (misbehavior does not yet compose with the session mux).
    pub fn run_sessions(self) -> ServiceOutcome {
        let retransmit = self.settings.retransmit;
        self.run_sessions_with(move |v, _idx, spec| {
            AsyncSingleSource::new(v, &spec.assignment, retransmit)
        })
    }

    /// Like [`Scenario::run_sessions`] but with a caller-supplied
    /// per-session protocol factory (`(node, session index, spec) →
    /// instance`); any [`EventProtocol`] whose messages implement the
    /// wire codec traits can be multiplexed.
    ///
    /// # Panics
    ///
    /// See [`Scenario::run_sessions`].
    pub fn run_sessions_with<P, F>(self, factory: F) -> ServiceOutcome
    where
        P: EventProtocol,
        P::Msg: Encode + Decode,
        F: Fn(NodeId, usize, &SessionSpec) -> P,
    {
        let Scenario {
            adversary,
            link,
            settings: mut s,
        } = self;
        let n = s.assignment.node_count();
        assert!(
            !s.sessions.is_empty(),
            "no sessions queued: add .session(spec) before run_sessions"
        );
        assert!(
            s.byzantine.is_none(),
            "Byzantine plans do not yet compose with sessions; run them through the protocol drivers"
        );
        if let Some(plan) = &s.faults {
            assert_eq!(plan.node_count(), n, "plan size");
        }
        let mut workload = SessionWorkload::new(n);
        for spec in s.sessions.drain(..) {
            workload.push(spec);
        }
        let (nodes, board) = SessionMux::nodes(&workload, factory);
        let mut sim = s.arm(nodes, adversary, link, None);
        let event = sim.run(s.max_time);
        let report = sim.run_report(s.name.as_deref().unwrap_or("session-service"));
        let (decode_errors, foreign_drops) = NodeId::all(n)
            .map(|v| (sim.node(v).decode_errors(), sim.node(v).foreign_drops()))
            .fold((0, 0), |(d, f), (dd, ff)| (d + dd, f + ff));
        let sessions = build_session_reports(&workload, &board, &report, &sim, s.ticks_per_round);
        ServiceOutcome {
            event,
            report,
            sessions,
            decode_errors,
            foreign_drops,
        }
    }
}

/// Synthesizes the per-session [`RunReport`] views from the shared
/// scoreboard: session-scoped message/completion/learning fields, with
/// the engine-wide context (topology meter, fault counters) carried from
/// the aggregate report.
fn build_session_reports<P, A, L>(
    workload: &SessionWorkload,
    board: &SessionBoard,
    aggregate: &RunReport,
    sim: &EventSim<SessionMux<P>, A, L>,
    ticks_per_round: VirtualTime,
) -> Vec<SessionReport>
where
    P: EventProtocol,
    P::Msg: Encode + Decode,
    A: Adversary,
    L: LinkModel,
{
    let n = workload.node_count();
    workload
        .specs()
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let stats = board.stats(i);
            let learnings: u64 = NodeId::all(n).map(|v| sim.node(v).learned(i)).sum();
            let mut report = aggregate.clone();
            report.algorithm = format!("session:{}", spec.label).into();
            report.k = spec.assignment.token_count();
            report.completed = stats.completed_at.is_some();
            report.total_messages = stats.sent;
            report.unicast_messages = stats.sent;
            report.broadcast_messages = 0;
            report.learnings = learnings;
            for class in report.by_class.iter_mut() {
                *class = 0;
            }
            if let Some(done) = stats.completed_at {
                report.rounds = done / ticks_per_round.max(1) + 1;
            }
            SessionReport {
                label: spec.label.clone(),
                arrival: spec.arrival,
                completed_at: stats.completed_at,
                latency: stats.completed_at.map(|t| t.saturating_sub(spec.arrival)),
                messages: stats.sent,
                delivered: stats.delivered,
                complete_nodes: stats.complete_nodes,
                digest: stats.digest,
                report,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::byzantine::MisbehaviorKind;
    use crate::faults::{NodeFault, RecoveryMode};
    use crate::link::{DropLink, LinkModelExt};
    use dynspread_core::walk::elect_centers;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::PeriodicRewiring;
    use dynspread_graph::Graph;

    #[test]
    fn builder_defaults_run_to_completion() {
        let out = Scenario::new(6, 3).run_single_source();
        assert!(out.completed, "{}", out.report);
        assert!(out.evidence.is_empty());
        assert_eq!(out.injected, 0);
        assert!((out.live_coverage - 1.0).abs() < 1e-12);
        assert!((out.honest_coverage - 1.0).abs() < 1e-12);
        assert_eq!(
            out.report.algorithm.as_ref(),
            "scenario-async-single-source"
        );
    }

    #[test]
    fn composed_fault_and_byzantine_axes_both_fire() {
        let n = 12;
        let fplan = FaultPlan::crash_recovery(n, 0.2, 150, 250, RecoveryMode::Amnesia, 9)
            .with_random_partition(100, 300);
        let bplan = MisbehaviorPlan::uniform(n, 0.15, MisbehaviorKind::FalseClaims, 21);
        let out = Scenario::new(n, 5)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 11))
            .link(DropLink::new(0.2).with_jitter(2))
            .seed(17)
            .faults(fplan)
            .byzantine(bplan.clone())
            .max_time(500_000)
            .run_single_source();
        assert!(out.report.crashes > 0, "{}", out.report);
        assert_eq!(out.report.byzantine_nodes, bplan.byzantine_nodes());
        // Evidence soundness survives composition: only malicious nodes
        // are ever indicted.
        for e in &out.evidence {
            assert!(bplan.is_malicious(e.culprit), "honest node indicted");
        }
    }

    #[test]
    fn scenario_runs_are_replay_identical() {
        let run = || {
            Scenario::new(10, 4)
                .topology(PeriodicRewiring::new(Topology::Gnp(0.4), 3, 5))
                .link(DropLink::new(0.25).with_jitter(2))
                .seed(23)
                .faults(FaultPlan::crash_recovery(
                    10,
                    0.2,
                    100,
                    200,
                    RecoveryMode::DurableSnapshot,
                    3,
                ))
                .byzantine(MisbehaviorPlan::uniform(
                    10,
                    0.2,
                    MisbehaviorKind::DropAcks,
                    4,
                ))
                .max_time(500_000)
                .run_multi_source()
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{:?}", a.event), format!("{:?}", b.event));
        assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
        assert_eq!(format!("{:?}", a.evidence), format!("{:?}", b.evidence));
    }

    #[test]
    fn crash_recovery_plan_still_completes_and_counts() {
        let n = 10;
        let plan = FaultPlan::crash_recovery(n, 0.2, 200, 300, RecoveryMode::Amnesia, 5)
            .with_random_partition(100, 400);
        let out = Scenario::new(n, 6)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 9))
            .link(DropLink::new(0.2).with_jitter(2))
            .seed(43)
            .faults(plan)
            .max_time(500_000)
            .run_multi_source();
        assert!(out.completed, "{}", out.report);
        assert_eq!(out.report.crashes, 2);
        assert_eq!(out.report.recoveries, 2);
        assert_eq!(out.report.partition_episodes, 1);
        assert!((out.live_coverage - 1.0).abs() < 1e-12);
    }

    #[test]
    fn crashed_owner_tokens_are_rehomed_at_the_handoff() {
        let n = 8;
        // Exactly one center (probability 0 still forces one), everyone
        // high-degree on the complete graph: every walker hands its token
        // to the center on the first heartbeat (t=2, confirmed same tick
        // under PerfectLink). Crashing the center at t=10 therefore
        // leaves every token with a down sole claimant.
        let seed = 29;
        let is_center = elect_centers(n, 0.0, seed);
        let center = NodeId::new(
            is_center
                .iter()
                .position(|&c| c)
                .expect("one center forced") as u32,
        );
        let plan1 = FaultPlan::none(n).plant(
            center,
            NodeFault {
                crash_at: 10,
                recover_at: None,
                mode: RecoveryMode::Amnesia,
            },
        );
        let cfg = AsyncObliviousConfig {
            seed,
            source_threshold: Some(1.0),
            center_probability: Some(0.0),
            degree_threshold: Some(1.0),
            phase1_deadline: 2_000,
            phase1_max_time: 4_000,
            ..AsyncObliviousConfig::default()
        };
        let out = Scenario::from_assignment(TokenAssignment::n_gossip(n))
            .faults(plan1)
            .run_oblivious(
                StaticAdversary::new(Graph::complete(n)),
                PerfectLink,
                &cfg,
                None,
            );
        assert_eq!(
            out.crash_reclaimed, n,
            "every token was claimed by the crashed center"
        );
        // The walkers' own tokens re-home to their live original holders
        // (knowledge is durable); the center's own token falls back to
        // the center itself, which is back up in the fault-free phase 2.
        assert!(out.completed, "{}", out.report);
        assert_eq!(out.report.crashes, 1);
        assert_eq!(out.report.recoveries, 0);
    }

    #[test]
    fn faulty_oblivious_is_replay_identical() {
        let n = 12;
        let plan1 = FaultPlan::crash_recovery(n, 0.25, 100, 150, RecoveryMode::Amnesia, 3);
        let plan2 = FaultPlan::crash_recovery(n, 0.25, 200, 300, RecoveryMode::DurableSnapshot, 4)
            .with_random_partition(50, 250);
        let cfg = AsyncObliviousConfig {
            seed: 31,
            source_threshold: Some(1.0),
            center_probability: Some(0.3),
            phase1_deadline: 5_000,
            phase1_max_time: 12_000,
            ..AsyncObliviousConfig::default()
        };
        let run = || {
            Scenario::from_assignment(TokenAssignment::n_gossip(n))
                .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 61))
                .link(DropLink::new(0.3).with_jitter(2))
                .faults(plan1.clone())
                .run_oblivious(
                    PeriodicRewiring::new(Topology::RandomTree, 3, 62),
                    DropLink::new(0.3).with_jitter(2),
                    &cfg,
                    Some(&plan2),
                )
        };
        let (a, b) = (run(), run());
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert!(a.completed, "{}", a.report);
    }

    #[test]
    #[should_panic(expected = "plan size")]
    fn mismatched_fault_plan_is_rejected() {
        let _ = Scenario::new(6, 3)
            .faults(FaultPlan::none(5))
            .run_single_source();
    }

    #[test]
    #[should_panic(expected = "run_sessions")]
    fn queued_sessions_cannot_run_through_protocol_drivers() {
        let _ = Scenario::new(6, 3)
            .session(SessionSpec::single_source("s0", 0, 6, 2, NodeId::new(1)))
            .run_single_source();
    }

    #[test]
    fn session_service_reports_per_session_latency() {
        let out = Scenario::new(8, 2)
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 13))
            .link(DropLink::new(0.1).with_jitter(1))
            .seed(31)
            .session(SessionSpec::single_source("a", 0, 8, 2, NodeId::new(0)))
            .session(SessionSpec::single_source("b", 60, 8, 3, NodeId::new(5)))
            .max_time(200_000)
            .run_sessions();
        assert_eq!(out.sessions.len(), 2);
        assert_eq!(out.completed_sessions(), 2, "{}", out.report);
        let b = &out.sessions[1];
        assert_eq!(b.arrival, 60);
        assert!(b.completed_at.unwrap() > 60);
        assert_eq!(b.latency.unwrap(), b.completed_at.unwrap() - 60);
        assert_eq!(b.report.k, 3);
        assert!(b.report.completed);
        assert_eq!(b.report.total_messages, b.messages);
        assert!(out.latency_percentile(0.5).is_some());
        assert!(out.total_session_messages() > 0);
        assert_eq!(out.decode_errors, 0);
    }
}
