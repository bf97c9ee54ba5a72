//! Cell definitions: one *cell* is one seeded execution of the program
//! through a public entry point, with its output checks and digest.
//!
//! Every cell has two ways to run. The **plain** run calls the entry
//! point a user calls with nothing wrapped — that is what the end-to-end
//! metrics time. The **traced twin** runs the same inputs with
//! [`Timed`] wrappers around the public traits and, where the entry
//! point hides the engine (`Scenario::run_single_source`/`run_multi_source`,
//! whose body is the private `Scenario::execute`), rebuilds the engine
//! from public pieces exactly as that body does. Both produce an
//! [`Outcome`] whose `digest` must agree: the harness is invisible to the
//! program.

use crate::probe::{Calibration, Counters, Slot, Spans, Tally, Timed};
use crate::seeds::{self, Seed};
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::multi_source::MultiSourceNode;
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{ChurnAdversary, PeriodicRewiring};
use dynspread_graph::NodeId;
use dynspread_runtime::byzantine::{
    check_evidence, AuditMsg, AuditSetup, Evidence, MisbehaviorKind, MisbehaviorPlan, Tamper,
};
use dynspread_runtime::engine::{EventProtocol, EventReport, EventSim, StopReason};
use dynspread_runtime::event::VirtualTime;
use dynspread_runtime::faults::{coverage_over, FaultPlan, PartitionLink, RecoveryMode};
use dynspread_runtime::link::{DropLink, LinkModel, LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::{
    AsyncConfig, AsyncMultiSource, AsyncObliviousConfig, AsyncSingleSource,
};
use dynspread_runtime::scenario::{
    Scenario, ScenarioObliviousOutcome, ScenarioOutcome, ServiceOutcome,
};
use dynspread_runtime::session::SessionWorkload;
use dynspread_runtime::sync::UnicastSynchronizer;
use dynspread_runtime::trace::JsonlTracer;
use dynspread_sim::adversary::{BroadcastAdversary, UnicastAdversary};
use dynspread_sim::protocol::{BroadcastProtocol, UnicastProtocol};
use dynspread_sim::sim::{BroadcastSim, SimConfig, UnicastSim};
use dynspread_sim::token::{TokenAssignment, TokenSet};
use dynspread_sim::RunReport;
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Round cap of the synchronous cells and tick cap of the async ones:
/// far above any completing run, so hitting it is a failed check.
const MAX_ROUNDS: u64 = 500_000;
const MAX_TIME: VirtualTime = 4_000_000;
/// `Scenario`'s own default cap, which the plain `Scenario` cells run under.
const SCENARIO_MAX_TIME: VirtualTime = 2_000_000;

/// What a cell runs. Sizes are part of a workload's definition (see
/// [`crate::workloads`]); the `n = 16` test workloads use the same
/// variants with small parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// `BroadcastSim` + `PhasedFlooding`, single source.
    Flood {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
        /// `SimConfig::meter_sampling` (1 = exact).
        meter_sampling: u64,
    },
    /// `UnicastSim` + Algorithm 1 (`SingleSourceNode`).
    UnicastSingle {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
    },
    /// `UnicastSim` + `MultiSourceNode`, `s` round-robin sources.
    UnicastMulti {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
        /// Sources.
        s: usize,
    },
    /// `UnicastSynchronizer` + Algorithm 1 under
    /// `PerfectLink.lossy(0.1).with_jitter(1)`.
    SyncLossy {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
    },
    /// `EventSim::with_tracking` + `AsyncSingleSource`, latency-1 perfect
    /// links, 2 ticks per round.
    EngineSingle {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
    },
    /// `Scenario::run_multi_source`; `lossy` picks
    /// `DropLink(0.2).with_jitter(3)` at 4 ticks per round over latency-1
    /// perfect links at 2.
    AsyncMulti {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
        /// Sources.
        s: usize,
        /// Link choice, see above.
        lossy: bool,
    },
    /// `Scenario::run_single_source` on
    /// `ChurnAdversary(SparseConnected(3.0), 8, 3)` under
    /// `DropLink(0.2).with_jitter(3)`, 4 ticks per round.
    AsyncSingleChurn {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
    },
    /// `Scenario::run_oblivious`: `k` sources, ~4 expected centers,
    /// thresholds 1.0, phase 1 on `SparseConnected(8.0)`, latency-1 links.
    Oblivious {
        /// Nodes.
        n: usize,
        /// Tokens (= sources).
        k: usize,
    },
    /// `Scenario::run_sessions`: a uniform arrival trace under 10 %
    /// crash-recovery (amnesia) + one random partition,
    /// `DropLink(0.1).with_jitter(1)`. With `jsonl`, a `JsonlTracer` is
    /// attached and the trace analysed afterwards.
    Sessions {
        /// Nodes.
        n: usize,
        /// Sessions in the trace.
        sessions: usize,
        /// Tokens per session.
        k: usize,
        /// Upper bound of the uniform inter-arrival gap.
        spacing: VirtualTime,
        /// Attach the JSONL tracer and run `analysis::trace` over it.
        jsonl: bool,
    },
    /// `Scenario::run_multi_source` under the sessions cell's fault shape
    /// plus a 10 % `DropAcks` misbehavior plan and the evidence audit.
    FaultedByz {
        /// Nodes.
        n: usize,
        /// Tokens.
        k: usize,
        /// Sources.
        s: usize,
    },
}

/// One cell of a workload.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cell {
    /// Name within the workload.
    pub name: &'static str,
    /// What runs.
    pub kind: Kind,
    /// Reference amount of simulated work (rounds for the synchronous
    /// cells, engine events for the async ones): `wall_s` scales each
    /// cell's measured host time per unit to this many units, so a seed
    /// whose run happens to need more rounds does not read as slower.
    pub reference_units: u64,
}

/// What one cell execution produced, reduced to what the metrics need.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// Tokens disseminated (summed over sessions for a sessions cell).
    pub k: u64,
    /// Messages per Definition 1.1 (sync) / transmissions (async, both
    /// phases of the oblivious pipeline).
    pub messages: u64,
    /// `TC(E)`: edge insertions (phase 2 only for the oblivious pipeline;
    /// its outcome does not expose phase 1's meter).
    pub tc: u64,
    /// Rounds (sync) or final virtual time (async, phases summed).
    pub sim_time: u64,
    /// Rounds (sync) or engine events (async): the `wall_s` normaliser.
    pub units: u64,
    /// Operations checked: 1 per cell execution plus 1 per session.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Hash over the report fields and final knowledge.
    pub digest: u64,
}

/// One timed cell execution.
#[derive(Clone, Debug)]
pub struct CellRun {
    /// The reduced outcome.
    pub outcome: Outcome,
    /// Nanoseconds inside the program's entry point(s).
    pub run_ns: u64,
}

/// State of a traced pass: the span tree and the raw per-layer sums the
/// final metrics are computed from (see `measure::per_layer`).
#[derive(Debug)]
pub struct Trace {
    /// Spans: workload → iteration → cell → setup / run / verify → layer
    /// aggregates.
    pub spans: Spans,
    /// Raw additive quantities keyed by `layer.quantity`.
    pub raw: BTreeMap<&'static str, f64>,
    /// Duration of every synchronous `step()` driven, in ns, less the
    /// calibrated cost of the wrapped calls made inside it.
    pub step_ns: Vec<u64>,
    /// Calibrated cost of one wrapped call.
    pub calibration: Calibration,
}

impl Trace {
    /// A fresh trace with a calibrated clock.
    pub fn new() -> Self {
        Trace {
            spans: Spans::new(),
            raw: BTreeMap::new(),
            step_ns: Vec::new(),
            calibration: Calibration::measure(),
        }
    }

    /// Adds `v` to raw quantity `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.raw.entry(key).or_insert(0.0) += v;
    }

    /// Raises raw quantity `key` to at least `v`.
    pub fn max(&mut self, key: &'static str, v: f64) {
        let e = self.raw.entry(key).or_insert(0.0);
        *e = e.max(v);
    }

    /// Raw quantity `key` (0 when never recorded).
    pub fn get(&self, key: &str) -> f64 {
        self.raw.get(key).copied().unwrap_or(0.0)
    }

    /// Runs `f` inside span `span_name` and adds the span's duration to
    /// raw quantity `ns_key`.
    fn timed<R>(&mut self, span_name: &str, ns_key: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.spans.enter(span_name);
        let r = f();
        self.spans.exit(span);
        self.add(ns_key, self.spans.duration_ns(span) as f64);
        r
    }

    /// Books everything `acc`'s wrappers saw as children of span
    /// `parent`: per slot an aggregate span, the callee's calibrated time
    /// and the call count, plus the link's copy and drop counts. Returns
    /// the nanoseconds all of it took out of the parent — the callees'
    /// time plus the wrappers' own cost — which is what to subtract from
    /// the parent's duration to get its self time.
    fn book(&mut self, parent: usize, acc: &Counters) -> f64 {
        let mut children = 0.0;
        for slot in Slot::ALL {
            let t = acc.tally(slot);
            let (span_name, ns_key, calls_key) = slot.keys();
            self.spans.aggregate(parent, span_name, t);
            let callee = self.calibration.callee_ns(t);
            self.add(ns_key, callee);
            self.add(calls_key, t.calls as f64);
            children += callee + self.calibration.overhead_ns(t.calls);
        }
        self.add("runtime.link.copies", acc.link_copies() as f64);
        self.add("runtime.link.drops", acc.link_drops() as f64);
        children
    }
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

// ---------------------------------------------------------------------
// Digest and shared checks
// ---------------------------------------------------------------------

/// FNV-1a, the digest's hash.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest over a report's every field (its `Debug` form, which lists
/// them all), any engine reports, and the final knowledge words.
fn digest(report: &RunReport, events: &[&EventReport], knowledge: &[TokenSet], extra: &str) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, format!("{report:?}").as_bytes());
    for e in events {
        h = fnv1a(h, format!("{e:?}").as_bytes());
    }
    for set in knowledge {
        for w in set.as_words() {
            h = fnv1a(h, &w.to_le_bytes());
        }
    }
    fnv1a(h, extra.as_bytes())
}

/// Checks shared by every dissemination run: it completed and every node
/// ended with the whole token universe.
fn check_dissemination(
    failures: &mut Vec<String>,
    completed: bool,
    knowledge: &[TokenSet],
    what: &str,
) {
    if !completed {
        failures.push(format!("{what}: did not complete"));
    }
    let short = knowledge.iter().filter(|s| !s.is_full()).count();
    if short > 0 {
        failures.push(format!("{what}: {short} nodes miss tokens"));
    }
}

// ---------------------------------------------------------------------
// Synchronous cells
// ---------------------------------------------------------------------

struct SyncOut {
    report: RunReport,
    knowledge: Vec<TokenSet>,
}

/// The three round engines share `step`/`tracker`/`report` by convention,
/// not by trait; this is the view the stepped driver needs.
trait RoundEngine {
    fn complete(&mut self) -> RunReport;
    fn step_once(&mut self);
    fn finished(&self) -> bool;
    fn learnings(&self) -> u64;
    fn knowledge(&self) -> Vec<TokenSet>;
    fn report_now(&self) -> RunReport;
}

macro_rules! round_engine {
    ($ty:ident, [$($gen:tt)*], [$($bounds:tt)*]) => {
        impl<$($gen)*> RoundEngine for $ty<$($gen)*> where $($bounds)* {
            fn complete(&mut self) -> RunReport {
                self.run_to_completion()
            }
            fn step_once(&mut self) {
                self.step();
            }
            // The exact loop condition of `run_to_completion`.
            fn finished(&self) -> bool {
                self.tracker().all_complete() || self.dynamic_graph().round() >= MAX_ROUNDS
            }
            fn learnings(&self) -> u64 {
                self.tracker().total_learnings()
            }
            fn knowledge(&self) -> Vec<TokenSet> {
                NodeId::all(self.tracker().node_count())
                    .map(|v| self.tracker().knowledge(v).clone())
                    .collect()
            }
            fn report_now(&self) -> RunReport {
                self.report()
            }
        }
    };
}

round_engine!(BroadcastSim, [P, A], [P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>]);
round_engine!(UnicastSim, [P, A], [P: UnicastProtocol, A: UnicastAdversary<P::Msg>]);
round_engine!(
    UnicastSynchronizer,
    [P, A, L],
    [P: UnicastProtocol, P::Msg: Clone, A: UnicastAdversary<P::Msg>, L: LinkModel]
);

/// The plain run: the engine's own `run_to_completion`.
fn run_plain(mut engine: impl RoundEngine) -> SyncOut {
    let report = engine.complete();
    SyncOut {
        knowledge: engine.knowledge(),
        report,
    }
}

/// Drives `engine.step()` from outside, recording every step's duration.
/// `layer` is `"sim"` or `"runtime.sync"`.
fn drive_stepped(
    engine: &mut impl RoundEngine,
    acc: &Counters,
    trace: &mut Trace,
    run_span: usize,
    layer: &'static str,
) -> SyncOut {
    let first_step = trace.step_ns.len();
    let mut useful = 0u64;
    let mut learned = engine.learnings();
    let mut calls = acc.total_calls();
    let mut raw_total = 0u64;
    while !engine.finished() {
        let t = Instant::now();
        engine.step_once();
        let raw = t.elapsed().as_nanos() as u64;
        raw_total += raw;
        let calls_now = acc.total_calls();
        let wrappers = trace.calibration.overhead_ns(calls_now - calls) as u64;
        calls = calls_now;
        trace.step_ns.push(raw.saturating_sub(wrappers));
        let now = engine.learnings();
        useful += u64::from(now > learned);
        learned = now;
    }
    let steps = (trace.step_ns.len() - first_step) as u64;
    let out = SyncOut {
        report: engine.report_now(),
        knowledge: engine.knowledge(),
    };

    // One aggregate span for the steps, the wrapped layers under it.
    trace.spans.aggregate(
        run_span,
        format!("{layer}.step"),
        Tally {
            calls: steps,
            ns: raw_total,
        },
    );
    let steps_span = trace.spans.all().len() - 1;
    let children = trace.book(steps_span, acc);
    // What is left of the steps after the wrapped layers and the
    // wrappers themselves is the engine's own time; the step total is
    // that plus the layers' calibrated times.
    let own = (raw_total as f64 - children).max(0.0);
    let step_corrected = raw_total as f64 - trace.calibration.overhead_ns(acc.total_calls());
    if layer == "sim" {
        trace.add("sim.step_ns", step_corrected.max(own));
        trace.add("sim.steps", steps as f64);
        trace.add("sim.self_ns", own);
    } else {
        trace.add("runtime.sync.step_ns", step_corrected.max(own));
        trace.add("runtime.sync.steps", steps as f64);
    }
    trace.add("sim.useful_rounds", useful as f64);
    trace.add("sim.rounds", steps as f64);
    trace.add("sim.messages", out.report.total_messages as f64);
    trace.add("sim.learnings", out.report.learnings as f64);
    out
}

fn verify_sync(out: SyncOut, what: &str) -> Outcome {
    let mut failures = Vec::new();
    check_dissemination(&mut failures, out.report.completed, &out.knowledge, what);
    Outcome {
        k: out.report.k as u64,
        messages: out.report.total_messages,
        tc: out.report.tc(),
        sim_time: out.report.rounds,
        units: out.report.rounds,
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        digest: digest(&out.report, &[], &out.knowledge, ""),
    }
}

fn rewiring(seed: Seed) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, 3, seed.child(seeds::ADVERSARY).0)
}

fn source_of(n: usize, seed: Seed) -> NodeId {
    NodeId::new((seed.child(seeds::SOURCE).0 % n as u64) as u32)
}

// ---------------------------------------------------------------------
// Asynchronous single-phase cells
// ---------------------------------------------------------------------

/// The facts of a single-phase async run, from either the plain
/// `ScenarioOutcome` or the hand-built twin.
struct AsyncOut {
    event: EventReport,
    report: RunReport,
    knowledge: Vec<TokenSet>,
    live_coverage: f64,
    honest_coverage: f64,
    evidence: Vec<Evidence>,
    injected: u64,
}

impl From<ScenarioOutcome> for AsyncOut {
    fn from(o: ScenarioOutcome) -> Self {
        AsyncOut {
            event: o.event,
            report: o.report,
            knowledge: o.final_knowledge,
            live_coverage: o.live_coverage,
            honest_coverage: o.honest_coverage,
            evidence: o.evidence,
            injected: o.injected,
        }
    }
}

/// Books what the wrappers saw during an `EventSim::run` as children of
/// `engine_span`, and the engine's own time as what is left of it.
fn book_engine(trace: &mut Trace, acc: &Counters, engine_span: usize, event: &EventReport) {
    let children = trace.book(engine_span, acc);
    let raw_ns = trace.spans.duration_ns(engine_span) as f64;
    let own = (raw_ns - children).max(0.0);
    let run_ns = raw_ns - trace.calibration.overhead_ns(acc.total_calls());
    trace.add("runtime.engine.run_ns", run_ns.max(own));
    trace.add("runtime.engine.self_ns", own);
    book_event_report(trace, event);
}

fn book_event_report(trace: &mut Trace, event: &EventReport) {
    trace.add("runtime.engine.events", event.events as f64);
    trace.add("runtime.engine.epochs", event.epochs as f64);
    trace.add(
        "runtime.protocol.retransmissions",
        event.retransmissions as f64,
    );
    trace.add("runtime.protocol.transmissions", event.transmissions as f64);
    trace.add("runtime.protocol.learnings", event.learnings as f64);
    trace.add(
        "runtime.protocol.copies_delivered",
        event.copies_delivered as f64,
    );
    trace.add("runtime.protocol.unroutable", event.unroutable as f64);
}

fn book_faults(trace: &mut Trace, report: &RunReport) {
    trace.add("runtime.faults.crashes", report.crashes as f64);
    trace.add("runtime.faults.recoveries", report.recoveries as f64);
    trace.add(
        "runtime.faults.partition_episodes",
        report.partition_episodes as f64,
    );
}

/// The traced twin of `Scenario::run_single_source`/`run_multi_source`:
/// the body of the private `Scenario::execute`, rebuilt from public
/// pieces with the adversary, link and handlers wrapped and the audit as
/// its own span.
#[allow(clippy::too_many_arguments)] // mirrors the builder's axes one to one
fn scenario_twin<P, A, L>(
    nodes: Vec<P>,
    setup: AuditSetup,
    assignment: &TokenAssignment,
    adversary: A,
    link: L,
    ticks_per_round: VirtualTime,
    seed: u64,
    faults: Option<FaultPlan>,
    byzantine: Option<MisbehaviorPlan>,
    name: &str,
    trace: &mut Trace,
) -> AsyncOut
where
    P: Tamper,
    P::Msg: AuditMsg,
    A: Adversary,
    L: LinkModel,
{
    let acc = Counters::new();
    let n = assignment.node_count();
    let k = assignment.token_count();
    let fplan = faults.unwrap_or_else(|| FaultPlan::none(n));
    let bplan = byzantine
        .clone()
        .unwrap_or_else(|| MisbehaviorPlan::honest(n));
    let mut sim = trace.timed(
        "runtime.scenario.build",
        "runtime.scenario.build_ns",
        || {
            let mut sim = EventSim::with_tracking(
                Timed::all(bplan.wrap(nodes), &acc),
                Timed::new(adversary, &acc),
                Timed::new(PartitionLink::new(link, Arc::new(fplan.clone())), &acc),
                ticks_per_round,
                seed,
                assignment,
            );
            sim.set_fault_plan(fplan);
            if byzantine.is_some() {
                sim.record_transcripts();
            }
            sim
        },
    );

    let engine = trace.spans.enter("runtime.engine.run");
    let event = sim.run(SCENARIO_MAX_TIME);
    trace.spans.exit(engine);
    book_engine(trace, &acc, engine, &event);
    trace.max(
        "runtime.engine.mailbox_high_water",
        sim.max_mailbox_high_water() as f64,
    );

    let evidence = if byzantine.is_some() {
        let entries: usize = sim.transcripts().iter().map(|t| t.len()).sum();
        trace.add("runtime.byzantine.transcript_entries", entries as f64);
        trace.timed(
            "runtime.byzantine.audit",
            "runtime.byzantine.audit_ns",
            || check_evidence(&setup, sim.transcripts()),
        )
    } else {
        Vec::new()
    };

    trace.timed(
        "runtime.scenario.finish",
        "runtime.scenario.run_ns",
        move || {
            let mut report = sim.run_report(name);
            if let Some(plan) = &byzantine {
                // What the crate-private `stamp_report` does.
                report.byzantine_nodes = plan.byzantine_nodes();
                report.violations_detected = evidence.len() as u64;
                report.evidence_verdicts = distinct_culprits(&evidence);
            }
            let tracker = sim.tracker().expect("tracking enabled");
            let knowledge: Vec<TokenSet> = NodeId::all(n)
                .map(|v| tracker.knowledge(v).clone())
                .collect();
            AsyncOut {
                live_coverage: coverage_over(k, knowledge.iter(), |v| !sim.is_down(v)),
                honest_coverage: coverage_over(k, knowledge.iter(), |v| !bplan.is_malicious(v)),
                injected: NodeId::all(n).map(|v| sim.node(v).inner().injected()).sum(),
                event,
                report,
                knowledge,
                evidence,
            }
        },
    )
}

fn distinct_culprits(evidence: &[Evidence]) -> u64 {
    evidence
        .iter()
        .map(|e| e.culprit)
        .collect::<BTreeSet<_>>()
        .len() as u64
}

fn verify_async(out: AsyncOut, plan: Option<&MisbehaviorPlan>, what: &str) -> Outcome {
    let mut failures = Vec::new();
    let completed = out.event.stopped == StopReason::Complete;
    check_dissemination(&mut failures, completed, &out.knowledge, what);
    if out.live_coverage != 1.0 {
        failures.push(format!("{what}: live coverage {}", out.live_coverage));
    }
    if out.honest_coverage != 1.0 {
        failures.push(format!("{what}: honest coverage {}", out.honest_coverage));
    }
    match plan {
        Some(plan) => {
            let framed = out
                .evidence
                .iter()
                .filter(|e| !plan.is_malicious(e.culprit))
                .count();
            if framed > 0 {
                failures.push(format!("{what}: {framed} verdicts against honest nodes"));
            }
        }
        None => {
            if !out.evidence.is_empty() {
                failures.push(format!("{what}: evidence without a misbehavior plan"));
            }
        }
    }
    let extra = format!("{} {}", out.evidence.len(), out.injected);
    Outcome {
        k: out.report.k as u64,
        messages: out.report.total_messages,
        tc: out.report.tc(),
        sim_time: out.event.final_time,
        units: out.event.events,
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        digest: digest(&out.report, &[&out.event], &out.knowledge, &extra),
    }
}

// ---------------------------------------------------------------------
// Sessions and oblivious cells
// ---------------------------------------------------------------------

/// 10 % crash-recovery (amnesia) plus one random partition; with a
/// trace, what building the plan took is booked to `runtime.faults`.
fn fault_shape(n: usize, seed: Seed, trace: Option<&mut Trace>) -> FaultPlan {
    let start = Instant::now();
    let plan = FaultPlan::crash_recovery(
        n,
        0.10,
        400,
        300,
        RecoveryMode::Amnesia,
        seed.child(seeds::FAULTS).0,
    )
    .with_random_partition(100, 400);
    if let Some(t) = trace {
        t.add(
            "runtime.faults.plan_build_ns",
            start.elapsed().as_nanos() as f64,
        );
    }
    plan
}

/// Sessions that arrived before some earlier session had finished.
fn overlapped_sessions(out: &ServiceOutcome) -> usize {
    out.sessions
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            out.sessions[..*i]
                .iter()
                .any(|earlier| earlier.completed_at.is_some_and(|done| s.arrival < done))
        })
        .count()
}

struct TraceCheck {
    lines: u64,
    counted: u64,
    curve_points: usize,
}

fn verify_sessions(out: &ServiceOutcome, trace_check: Option<&TraceCheck>, what: &str) -> Outcome {
    // One operation per session plus one for the cell itself.
    let mut failures = Vec::new();
    for s in &out.sessions {
        if s.completed_at.is_none() {
            failures.push(format!("{what}: session {} never completed", s.label));
        }
    }
    let stuck = failures.len();
    let mut cell_failed = false;
    if out.decode_errors != 0 {
        cell_failed = true;
        failures.push(format!("{what}: {} decode errors", out.decode_errors));
    }
    if let Some(tc) = trace_check {
        if tc.lines == 0 || tc.lines != tc.counted {
            cell_failed = true;
            failures.push(format!(
                "{what}: kind_counts sums to {} over {} trace lines",
                tc.counted, tc.lines
            ));
        }
    }
    let session_digests: String = out
        .sessions
        .iter()
        .map(|s| format!("{:?}/{:x};", s.completed_at, s.digest))
        .collect();
    let extra = format!(
        "{session_digests}{} {} {}",
        out.decode_errors,
        out.foreign_drops,
        trace_check.map_or(0, |t| t.lines + t.curve_points as u64),
    );
    Outcome {
        k: out.sessions.iter().map(|s| s.report.k as u64).sum::<u64>(),
        messages: out.report.total_messages,
        tc: out.report.tc(),
        sim_time: out.event.final_time,
        units: out.event.events,
        attempted: out.sessions.len() as u64 + 1,
        failed: stuck as u64 + u64::from(cell_failed),
        failures,
        digest: digest(&out.report, &[&out.event], &[], &extra),
    }
}

fn verify_oblivious(out: &ScenarioObliviousOutcome, what: &str) -> Outcome {
    let mut failures = Vec::new();
    check_dissemination(&mut failures, out.completed, &out.final_knowledge, what);
    if out.phase1.is_none() {
        failures.push(format!("{what}: phase 1 was skipped"));
    }
    let p1 = out.phase1.as_ref();
    let events: Vec<&EventReport> = p1.into_iter().chain([&out.phase2]).collect();
    let extra = format!(
        "{:?} {:?} {}",
        out.centers, out.sources, out.stranded_tokens
    );
    Outcome {
        k: out.report.k as u64,
        messages: out.phase2.transmissions + p1.map_or(0, |r| r.transmissions),
        tc: out.report.tc(),
        sim_time: out.phase2.final_time + p1.map_or(0, |r| r.final_time),
        units: out.phase2.events + p1.map_or(0, |r| r.events),
        attempted: 1,
        failed: u64::from(!failures.is_empty()),
        failures,
        digest: digest(&out.report, &events, &out.final_knowledge, &extra),
    }
}

// ---------------------------------------------------------------------
// The cells
// ---------------------------------------------------------------------

/// Everything a cell's caller builds before the entry point is called:
/// assignments, plans, session traces, adversaries, and — where the
/// engine takes them from the caller — the nodes. Building these is what
/// `setup_s` times.
#[allow(clippy::large_enum_variant)] // one short-lived value per cell run
pub enum Inputs {
    /// [`Kind::Flood`].
    Flood {
        /// Token placement.
        a: TokenAssignment,
        /// Engine configuration.
        cfg: SimConfig,
        /// One protocol instance per node.
        nodes: Vec<PhasedFlooding>,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::UnicastSingle`] and [`Kind::SyncLossy`].
    UnicastSingle {
        /// Token placement.
        a: TokenAssignment,
        /// One protocol instance per node.
        nodes: Vec<SingleSourceNode>,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::UnicastMulti`].
    UnicastMulti {
        /// Token placement.
        a: TokenAssignment,
        /// One protocol instance per node.
        nodes: Vec<MultiSourceNode>,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::EngineSingle`].
    EngineSingle {
        /// Token placement.
        a: TokenAssignment,
        /// One protocol instance per node.
        nodes: Vec<AsyncSingleSource>,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::AsyncMulti`] (the builder makes the nodes).
    AsyncMulti {
        /// Token placement.
        a: TokenAssignment,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::AsyncSingleChurn`].
    AsyncSingleChurn {
        /// Token placement.
        a: TokenAssignment,
        /// The churn adversary.
        adv: ChurnAdversary,
    },
    /// [`Kind::Oblivious`].
    Oblivious {
        /// Token placement: `k` sources.
        a: TokenAssignment,
        /// Pipeline seeds, thresholds and deadlines.
        cfg: AsyncObliviousConfig,
        /// Phase-1 adversary.
        adv1: PeriodicRewiring,
        /// Phase-2 adversary.
        adv2: PeriodicRewiring,
    },
    /// [`Kind::Sessions`].
    Sessions {
        /// The arrival trace.
        workload: SessionWorkload,
        /// Crash-recovery + partition plan.
        faults: FaultPlan,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
    /// [`Kind::FaultedByz`].
    FaultedByz {
        /// Token placement.
        a: TokenAssignment,
        /// Crash-recovery + partition plan.
        faults: FaultPlan,
        /// Who misbehaves, and how.
        plan: MisbehaviorPlan,
        /// The topology adversary.
        adv: PeriodicRewiring,
    },
}

/// What an entry point returned, before it is checked and reduced.
enum Raw {
    Sync(SyncOut),
    Async(AsyncOut, Option<MisbehaviorPlan>),
    Oblivious(Box<ScenarioObliviousOutcome>),
    Sessions(Box<ServiceOutcome>, Option<TraceCheck>),
}

/// Runs round-based unicast nodes under `UnicastSim`: plain through
/// `run_to_completion`, traced through wrapped nodes and a stepped loop.
fn run_unicast<P: UnicastProtocol>(
    label: &str,
    nodes: Vec<P>,
    adv: PeriodicRewiring,
    a: &TokenAssignment,
    trace: Option<&mut Trace>,
    run_span: usize,
) -> SyncOut {
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    match trace {
        None => run_plain(UnicastSim::new(label, nodes, adv, a, cfg)),
        Some(t) => {
            let acc = Counters::new();
            let mut sim = UnicastSim::new(
                label,
                Timed::all(nodes, &acc),
                Timed::new(adv, &acc),
                a,
                cfg,
            );
            drive_stepped(&mut sim, &acc, t, run_span, "sim")
        }
    }
}

impl Cell {
    /// Builds the cell's inputs from `seed`.
    pub fn build(&self, seed: Seed, trace: Option<&mut Trace>) -> Inputs {
        let adversary_seed = seed.child(seeds::ADVERSARY).0;
        match self.kind {
            Kind::Flood {
                n,
                k,
                meter_sampling,
            } => {
                let a = TokenAssignment::single_source(n, k, source_of(n, seed));
                Inputs::Flood {
                    cfg: SimConfig {
                        max_rounds: MAX_ROUNDS,
                        meter_sampling,
                        ..SimConfig::default()
                    },
                    nodes: PhasedFlooding::nodes(&a),
                    adv: rewiring(seed),
                    a,
                }
            }
            Kind::UnicastSingle { n, k } | Kind::SyncLossy { n, k } => {
                let a = TokenAssignment::single_source(n, k, source_of(n, seed));
                Inputs::UnicastSingle {
                    nodes: SingleSourceNode::nodes(&a),
                    adv: rewiring(seed),
                    a,
                }
            }
            Kind::UnicastMulti { n, k, s } => {
                let a = TokenAssignment::round_robin_sources(n, k, s);
                let (nodes, _map) = MultiSourceNode::nodes(&a);
                Inputs::UnicastMulti {
                    nodes,
                    adv: rewiring(seed),
                    a,
                }
            }
            Kind::EngineSingle { n, k } => {
                let a = TokenAssignment::single_source(n, k, source_of(n, seed));
                Inputs::EngineSingle {
                    nodes: AsyncSingleSource::nodes(&a, AsyncConfig::default()),
                    adv: rewiring(seed),
                    a,
                }
            }
            Kind::AsyncMulti { n, k, s, .. } => Inputs::AsyncMulti {
                a: TokenAssignment::round_robin_sources(n, k, s),
                adv: rewiring(seed),
            },
            Kind::AsyncSingleChurn { n, k } => Inputs::AsyncSingleChurn {
                a: TokenAssignment::single_source(n, k, source_of(n, seed)),
                adv: ChurnAdversary::new(Topology::SparseConnected(3.0), 8, 3, adversary_seed),
            },
            Kind::Oblivious { n, k } => Inputs::Oblivious {
                a: TokenAssignment::round_robin_sources(n, k, k),
                // ~4 expected centers whatever n is, everyone a source
                // and high-degree, and the deadline fallback bounding
                // phase 1 — the `exp_scale` async-oblivious cell.
                cfg: AsyncObliviousConfig {
                    seed: seed.child(seeds::WALK).0,
                    source_threshold: Some(1.0),
                    center_probability: Some(4.0 / n as f64),
                    degree_threshold: Some(1.0),
                    ticks_per_round: 2,
                    phase1_deadline: 2_048,
                    phase1_max_time: 4_096,
                    phase2_max_time: MAX_TIME,
                    ..AsyncObliviousConfig::default()
                },
                adv1: PeriodicRewiring::new(Topology::SparseConnected(8.0), 3, adversary_seed),
                adv2: PeriodicRewiring::new(
                    Topology::RandomTree,
                    3,
                    seed.child(seeds::ADVERSARY2).0,
                ),
            },
            Kind::Sessions {
                n,
                sessions,
                k,
                spacing,
                ..
            } => Inputs::Sessions {
                workload: SessionWorkload::uniform(
                    n,
                    sessions,
                    k,
                    spacing,
                    seed.child(seeds::SESSIONS).0,
                ),
                faults: fault_shape(n, seed, trace),
                adv: rewiring(seed),
            },
            Kind::FaultedByz { n, k, s } => Inputs::FaultedByz {
                a: TokenAssignment::round_robin_sources(n, k, s),
                faults: fault_shape(n, seed, trace),
                plan: MisbehaviorPlan::uniform(
                    n,
                    0.10,
                    MisbehaviorKind::DropAcks,
                    seed.child(seeds::BYZANTINE).0,
                ),
                adv: rewiring(seed),
            },
        }
    }

    /// Runs the cell on the inputs `seed` generates: plain when `trace`
    /// is `None`, the traced twin otherwise (each stage then also a span
    /// under the cell's).
    pub fn run(&self, seed: Seed, mut trace: Option<&mut Trace>) -> CellRun {
        let enter = |trace: &mut Option<&mut Trace>, name: &str| {
            trace.as_mut().map(|t| t.spans.enter(name))
        };
        let exit = |trace: &mut Option<&mut Trace>, id: Option<usize>| {
            if let (Some(t), Some(id)) = (trace.as_mut(), id) {
                t.spans.exit(id);
            }
        };
        let cell_span = enter(&mut trace, self.name);

        let span = enter(&mut trace, "setup");
        let inputs = self.build(seed, trace.as_deref_mut());
        exit(&mut trace, span);

        let span = enter(&mut trace, "run");
        let start = Instant::now();
        let raw = self.exec(inputs, seed, trace.as_deref_mut(), span.unwrap_or(0));
        let run_ns = start.elapsed().as_nanos() as u64;
        exit(&mut trace, span);

        let span = enter(&mut trace, "verify");
        let outcome = match raw {
            Raw::Sync(out) => verify_sync(out, self.name),
            Raw::Async(out, plan) => verify_async(out, plan.as_ref(), self.name),
            Raw::Oblivious(out) => verify_oblivious(&out, self.name),
            Raw::Sessions(out, check) => verify_sessions(&out, check.as_ref(), self.name),
        };
        exit(&mut trace, span);

        exit(&mut trace, cell_span);
        if let Some(t) = trace {
            t.add("graph.topology_changes", outcome.tc as f64);
            t.add("sim.residual", outcome.messages as f64 - outcome.tc as f64);
            t.add("sim.tokens", outcome.k as f64);
        }
        CellRun { outcome, run_ns }
    }

    /// Calls the entry point (plain) or its traced twin.
    fn exec(&self, inputs: Inputs, seed: Seed, trace: Option<&mut Trace>, run_span: usize) -> Raw {
        let engine_seed = seed.child(seeds::LINK).0;
        match (self.kind, inputs) {
            (Kind::Flood { .. }, Inputs::Flood { a, cfg, nodes, adv }) => Raw::Sync(match trace {
                None => run_plain(BroadcastSim::new("phased-flooding", nodes, adv, &a, cfg)),
                Some(t) => {
                    let acc = Counters::new();
                    let mut sim = BroadcastSim::new(
                        "phased-flooding",
                        Timed::all(nodes, &acc),
                        Timed::new(adv, &acc),
                        &a,
                        cfg,
                    );
                    drive_stepped(&mut sim, &acc, t, run_span, "sim")
                }
            }),
            (Kind::UnicastSingle { .. }, Inputs::UnicastSingle { a, nodes, adv }) => Raw::Sync(
                run_unicast("single-source-unicast", nodes, adv, &a, trace, run_span),
            ),
            (Kind::UnicastMulti { .. }, Inputs::UnicastMulti { a, nodes, adv }) => Raw::Sync(
                run_unicast("multi-source-unicast", nodes, adv, &a, trace, run_span),
            ),
            (Kind::SyncLossy { .. }, Inputs::UnicastSingle { a, nodes, adv }) => {
                let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
                let link = PerfectLink.lossy(0.1).with_jitter(1);
                let label = "single-source-unicast";
                Raw::Sync(match trace {
                    None => run_plain(UnicastSynchronizer::new(
                        label,
                        nodes,
                        adv,
                        &a,
                        cfg,
                        link,
                        engine_seed,
                    )),
                    Some(t) => {
                        let acc = Counters::new();
                        let mut sim = UnicastSynchronizer::new(
                            label,
                            Timed::all(nodes, &acc),
                            Timed::new(adv, &acc),
                            &a,
                            cfg,
                            Timed::new(link, &acc),
                            engine_seed,
                        );
                        let out = drive_stepped(&mut sim, &acc, t, run_span, "runtime.sync");
                        t.add("runtime.sync.link_drops", out.report.link_drops as f64);
                        t.add("runtime.sync.link_sends", out.report.link_sends as f64);
                        out
                    }
                })
            }
            (Kind::EngineSingle { n, .. }, Inputs::EngineSingle { a, nodes, adv }) => {
                let link = PerfectLink.with_latency(1);
                fn finish<P: EventProtocol, A: Adversary, L: LinkModel>(
                    sim: &EventSim<P, A, L>,
                    event: EventReport,
                    n: usize,
                ) -> AsyncOut {
                    let tracker = sim.tracker().expect("tracking enabled");
                    AsyncOut {
                        event,
                        report: sim.run_report("async-single-source"),
                        knowledge: NodeId::all(n)
                            .map(|v| tracker.knowledge(v).clone())
                            .collect(),
                        live_coverage: 1.0,
                        honest_coverage: 1.0,
                        evidence: Vec::new(),
                        injected: 0,
                    }
                }
                let out = match trace {
                    None => {
                        let mut sim = EventSim::with_tracking(nodes, adv, link, 2, engine_seed, &a);
                        let event = sim.run(MAX_TIME);
                        finish(&sim, event, n)
                    }
                    Some(t) => {
                        let acc = Counters::new();
                        let mut sim = EventSim::with_tracking(
                            Timed::all(nodes, &acc),
                            Timed::new(adv, &acc),
                            Timed::new(link, &acc),
                            2,
                            engine_seed,
                            &a,
                        );
                        let engine = t.spans.enter("runtime.engine.run");
                        let event = sim.run(MAX_TIME);
                        t.spans.exit(engine);
                        book_engine(t, &acc, engine, &event);
                        t.max(
                            "runtime.engine.mailbox_high_water",
                            sim.max_mailbox_high_water() as f64,
                        );
                        finish(&sim, event, n)
                    }
                };
                Raw::Async(out, None)
            }
            (Kind::AsyncMulti { lossy, .. }, Inputs::AsyncMulti { a, adv }) => {
                let out = if lossy {
                    async_multi(
                        a,
                        adv,
                        DropLink::new(0.2).with_jitter(3),
                        4,
                        engine_seed,
                        trace,
                    )
                } else {
                    async_multi(a, adv, PerfectLink.with_latency(1), 2, engine_seed, trace)
                };
                Raw::Async(out, None)
            }
            (Kind::AsyncSingleChurn { .. }, Inputs::AsyncSingleChurn { a, adv }) => {
                let link = DropLink::new(0.2).with_jitter(3);
                let out = match trace {
                    None => Scenario::from_assignment(a)
                        .topology(adv)
                        .link(link)
                        .ticks_per_round(4)
                        .seed(engine_seed)
                        .run_single_source()
                        .into(),
                    Some(t) => scenario_twin(
                        AsyncSingleSource::nodes(&a, AsyncConfig::default()),
                        AuditSetup::single_source(&a),
                        &a,
                        adv,
                        link,
                        4,
                        engine_seed,
                        None,
                        None,
                        "scenario-async-single-source",
                        t,
                    ),
                };
                Raw::Async(out, None)
            }
            (Kind::Oblivious { .. }, Inputs::Oblivious { a, cfg, adv1, adv2 }) => {
                let link = PerfectLink.with_latency(1);
                let out = match trace {
                    None => Scenario::from_assignment(a)
                        .topology(adv1)
                        .link(link)
                        .run_oblivious(adv2, link, &cfg, None),
                    Some(t) => {
                        // The nodes are built inside `run_oblivious`, so
                        // only the adversaries and links can be wrapped;
                        // everything else (both engines, the walk and
                        // multi-source handlers, the hand-off) is the
                        // scenario span's self time.
                        let acc = Counters::new();
                        let pipeline = t.spans.enter("runtime.scenario.run_oblivious");
                        let out = Scenario::from_assignment(a)
                            .topology(Timed::new(adv1, &acc))
                            .link(Timed::new(link, &acc))
                            .run_oblivious(
                                Timed::new(adv2, &acc),
                                Timed::new(link, &acc),
                                &cfg,
                                None,
                            );
                        t.spans.exit(pipeline);
                        let children = t.book(pipeline, &acc);
                        let run_ns = t.spans.duration_ns(pipeline) as f64;
                        t.add("runtime.scenario.run_ns", (run_ns - children).max(0.0));
                        if let Some(p1) = &out.phase1 {
                            t.add("runtime.protocol.oblivious.phase1_events", p1.events as f64);
                            book_event_report(t, p1);
                        }
                        t.add(
                            "runtime.protocol.oblivious.phase2_events",
                            out.phase2.events as f64,
                        );
                        book_event_report(t, &out.phase2);
                        t.add(
                            "runtime.protocol.oblivious.centers",
                            out.centers.len() as f64,
                        );
                        t.add(
                            "runtime.protocol.oblivious.stranded_tokens",
                            out.stranded_tokens as f64,
                        );
                        out
                    }
                };
                Raw::Oblivious(Box::new(out))
            }
            (
                Kind::Sessions { n, k, jsonl, .. },
                Inputs::Sessions {
                    workload,
                    faults,
                    adv,
                },
            ) => {
                let link = DropLink::new(0.1).with_jitter(1);
                let tracer = jsonl.then(JsonlTracer::new);
                let mut trace = trace;
                let out = match trace.as_deref_mut() {
                    None => {
                        let mut sc = Scenario::new(n, k)
                            .topology(adv)
                            .link(link)
                            .seed(engine_seed)
                            .faults(faults)
                            .workload(&workload);
                        if let Some(tr) = &tracer {
                            sc = sc.trace(tr.clone());
                        }
                        sc.run_sessions()
                    }
                    Some(t) => {
                        let acc = Counters::new();
                        let mut sc = Scenario::new(n, k)
                            .topology(Timed::new(adv, &acc))
                            .link(Timed::new(link, &acc))
                            .seed(engine_seed)
                            .faults(faults)
                            .workload(&workload);
                        if let Some(tr) = &tracer {
                            sc = sc.trace(tr.clone());
                        }
                        let retransmit = AsyncConfig::default();
                        let session = t.spans.enter("runtime.session.run");
                        let inner = Rc::clone(&acc);
                        let out = sc.run_sessions_with(move |v, _idx, spec| {
                            Timed::new(
                                AsyncSingleSource::new(v, &spec.assignment, retransmit),
                                &inner,
                            )
                        });
                        t.spans.exit(session);
                        // Under the mux the wrapped handlers are the
                        // *inner* per-session instances; what is left of
                        // the span after graph, link and handlers is
                        // engine + mux + wire codec together.
                        let before = t.get("runtime.engine.self_ns");
                        book_engine(t, &acc, session, &out.event);
                        let mux_and_engine = t.get("runtime.engine.self_ns") - before;
                        t.add("runtime.session.run_ns", mux_and_engine);
                        t.add(
                            "runtime.session.envelopes",
                            out.total_session_messages() as f64,
                        );
                        t.add("runtime.session.decode_errors", out.decode_errors as f64);
                        t.add("runtime.session.foreign_drops", out.foreign_drops as f64);
                        t.add(
                            "runtime.session.overlapped_sessions",
                            overlapped_sessions(&out) as f64,
                        );
                        if !jsonl {
                            for (key, q) in [
                                ("runtime.session.latency_p50", 0.5),
                                ("runtime.session.latency_p90", 0.9),
                            ] {
                                t.max(key, out.latency_percentile(q).unwrap_or(0) as f64);
                            }
                        }
                        book_faults(t, &out.report);
                        out
                    }
                };
                // What the JSONL cell does with its trace is part of what
                // it times: a census and a progress curve over the text.
                let check = tracer.map(|tr| {
                    let text = tr.take_jsonl();
                    let start = Instant::now();
                    let counts = dynspread_analysis::trace::kind_counts(&text);
                    let census_ns = start.elapsed().as_nanos() as f64;
                    let start = Instant::now();
                    let curve = dynspread_analysis::trace::coverage_curve(&text);
                    let curve_ns = start.elapsed().as_nanos() as f64;
                    let lines = text.lines().count() as u64;
                    if let Some(t) = trace {
                        t.add("analysis.kind_counts_ns", census_ns);
                        t.add("analysis.coverage_curve_ns", curve_ns);
                        t.add("analysis.bytes", text.len() as f64);
                        t.add("runtime.trace.bytes", text.len() as f64);
                        t.add("runtime.trace.records", lines as f64);
                        t.add("runtime.trace.events", out.event.events as f64);
                        replay_trace_records(t, &text);
                    }
                    TraceCheck {
                        lines,
                        counted: counts.values().sum(),
                        curve_points: curve.len(),
                    }
                });
                Raw::Sessions(Box::new(out), check)
            }
            (
                Kind::FaultedByz { .. },
                Inputs::FaultedByz {
                    a,
                    faults,
                    plan,
                    adv,
                },
            ) => {
                let link = DropLink::new(0.1).with_jitter(1);
                let out = match trace {
                    None => Scenario::from_assignment(a)
                        .topology(adv)
                        .link(link)
                        .seed(engine_seed)
                        .faults(faults)
                        .byzantine(plan.clone())
                        .run_multi_source()
                        .into(),
                    Some(t) => {
                        let (nodes, map) = AsyncMultiSource::nodes(&a, AsyncConfig::default());
                        let out = scenario_twin(
                            nodes,
                            AuditSetup::multi_source(&a, &map),
                            &a,
                            adv,
                            link,
                            2,
                            engine_seed,
                            Some(faults),
                            Some(plan.clone()),
                            "scenario-async-multi-source",
                            t,
                        );
                        t.add("runtime.byzantine.evidence", out.evidence.len() as f64);
                        t.add(
                            "runtime.byzantine.verdicts",
                            out.report.evidence_verdicts as f64,
                        );
                        t.add("runtime.byzantine.injected", out.injected as f64);
                        book_faults(t, &out.report);
                        out
                    }
                };
                Raw::Async(out, Some(plan))
            }
            (kind, _) => unreachable!("inputs built for a different cell than {kind:?}"),
        }
    }
}

/// `Scenario::run_multi_source` over `link`, or its traced twin.
fn async_multi<L: LinkModel>(
    a: TokenAssignment,
    adv: PeriodicRewiring,
    link: L,
    ticks_per_round: VirtualTime,
    engine_seed: u64,
    trace: Option<&mut Trace>,
) -> AsyncOut {
    match trace {
        None => Scenario::from_assignment(a)
            .topology(adv)
            .link(link)
            .ticks_per_round(ticks_per_round)
            .seed(engine_seed)
            .run_multi_source()
            .into(),
        Some(t) => {
            let (nodes, map) = AsyncMultiSource::nodes(&a, AsyncConfig::default());
            scenario_twin(
                nodes,
                AuditSetup::multi_source(&a, &map),
                &a,
                adv,
                link,
                ticks_per_round,
                engine_seed,
                None,
                None,
                "scenario-async-multi-source",
                t,
            )
        }
    }
}

/// `runtime.trace` is only reachable through the engine's hooks, and
/// `Scenario::trace` takes a concrete `JsonlTracer`, so the recorder's
/// own cost is measured by replay: parse the trace back into records and
/// time recording them into a fresh tracer.
fn replay_trace_records(trace: &mut Trace, jsonl: &str) {
    use dynspread_runtime::trace::{TraceRecord, Tracer};
    let records: Vec<TraceRecord> = jsonl.lines().filter_map(TraceRecord::parse_line).collect();
    let mut sink = JsonlTracer::new();
    let start = Instant::now();
    for rec in &records {
        sink.record(rec);
    }
    trace.add("runtime.trace.record_ns", start.elapsed().as_nanos() as f64);
    std::hint::black_box(sink.take_jsonl());
}
