//! Acceptance tests for the [`Scenario`] builder: the fault and
//! Byzantine axes must compose in one run, with tracing stacked on top,
//! and the whole composition must stay a pure function of its seeds.

use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
use dynspread_graph::{Graph, NodeId};
use dynspread_runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};
use dynspread_runtime::faults::{FaultPlan, RecoveryMode};
use dynspread_runtime::link::{DropLink, LinkModel, LinkModelExt};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::session::SessionSpec;
use dynspread_runtime::trace::JsonlTracer;
use dynspread_runtime::Scenario;
use dynspread_sim::TokenAssignment;

/// The ISSUE's composition acceptance scenario: crash-recovery faults,
/// a partition/heal episode, and 15% malicious nodes in a single run.
/// Honest live coverage must be reported, and the audit must stay sound
/// (no honest node indicted) even though crashes now interleave with
/// misbehavior in the transcripts.
#[test]
fn faults_byzantine_and_tracing_compose_in_one_scenario_run() {
    let n = 20usize;
    let k = 8usize;
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let faults = FaultPlan::crash_recovery(n, 0.2, 40, 160, RecoveryMode::DurableSnapshot, 5)
        .with_random_partition(60, 420);
    let byz = MisbehaviorPlan::uniform(n, 0.15, MisbehaviorKind::FalseClaims, 21);
    let tracer = JsonlTracer::new();

    let run = |tr: Option<JsonlTracer>| {
        let mut s = Scenario::from_assignment(assignment.clone())
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 12))
            .link(DropLink::new(0.25).with_jitter(2))
            .seed(17)
            .faults(faults.clone())
            .byzantine(byz.clone())
            .name("composed-acceptance");
        if let Some(tr) = tr {
            s = s.trace(tr);
        }
        s.run_single_source()
    };
    let out = run(Some(tracer.clone()));

    // Both axes actually fired.
    assert!(out.report.crashes > 0, "{}", out.report);
    assert!(out.report.recoveries > 0, "{}", out.report);
    assert_eq!(out.report.partition_episodes, 1, "{}", out.report);
    assert_eq!(out.report.byzantine_nodes, byz.byzantine_nodes());
    assert_eq!(out.report.byzantine_nodes, 3, "15% of 20");

    // Honest live coverage is reported on both axes' terms: the nodes
    // that are up AND honest at the end of the run.
    assert!((0.0..=1.0).contains(&out.live_coverage));
    assert!((0.0..=1.0).contains(&out.honest_coverage));

    // Soundness under composition: crashes and heals in the transcript
    // stream never get an honest node indicted.
    assert!(out.evidence.iter().all(|e| byz.is_malicious(e.culprit)));
    assert_eq!(out.report.violations_detected, out.evidence.len() as u64);

    // The trace captured the composed run.
    let trace = tracer.take_jsonl();
    assert!(!trace.is_empty());

    // The whole composition replays byte-identically (trace included).
    let tracer2 = JsonlTracer::new();
    let again = run(Some(tracer2.clone()));
    assert_eq!(format!("{out:?}"), format!("{again:?}"));
    assert_eq!(trace, tracer2.take_jsonl());
}

/// Composing an *empty* fault plan and an *honest* Byzantine plan must
/// be invisible: same engine report as the bare Scenario run, except
/// for the audit bookkeeping counters an honest audit legitimately
/// stamps (all zero violations).
#[test]
fn neutral_plans_compose_invisibly() {
    let n = 10usize;
    let assignment = TokenAssignment::single_source(n, 5, NodeId::new(0));
    let base = || {
        Scenario::from_assignment(assignment.clone())
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 4))
            .link(DropLink::new(0.2))
            .seed(23)
    };
    let bare = base().run_single_source();
    let neutral = base()
        .faults(FaultPlan::none(n))
        .byzantine(MisbehaviorPlan::honest(n))
        .run_single_source();

    assert_eq!(format!("{:?}", bare.event), format!("{:?}", neutral.event));
    assert_eq!(neutral.report.violations_detected, 0);
    assert_eq!(neutral.report.byzantine_nodes, 0);
    assert!(neutral.evidence.is_empty());
    assert_eq!(bare.completed, neutral.completed);
}

/// The same for the two-phase pipeline, where the neutral pair arms
/// *both* engines and the hand-off between them: the whole outcome —
/// both engine reports, the workspace report, centers, sources,
/// hand-off counters, final knowledge — and the stitched two-phase
/// trace are byte-identical to the plan-free run.
#[test]
fn neutral_plans_leave_the_two_phase_pipeline_byte_identical() {
    let n = 12usize;
    let cfg = AsyncObliviousConfig {
        seed: 19,
        source_threshold: Some(1.0), // n sources ⇒ two-phase path
        center_probability: Some(0.25),
        phase1_deadline: 5_000,
        phase1_max_time: 12_000,
        ..AsyncObliviousConfig::default()
    };
    let run = |neutral: bool| {
        let tracer = JsonlTracer::new();
        let mut s = Scenario::from_assignment(TokenAssignment::n_gossip(n))
            .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 6))
            .link(DropLink::new(0.25).with_jitter(2))
            .trace(tracer.clone());
        let none = FaultPlan::none(n);
        if neutral {
            s = s.faults(none.clone()).byzantine(MisbehaviorPlan::honest(n));
        }
        let out = s.run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 7),
            DropLink::new(0.25).with_jitter(2),
            &cfg,
            neutral.then_some(&none),
        );
        (out, tracer.take_jsonl())
    };
    let (bare, bare_trace) = run(false);
    let (neutral, neutral_trace) = run(true);

    assert!(bare.phase1.is_some(), "two-phase path must run phase 1");
    assert!(bare.completed, "{}", bare.report);
    assert_eq!(format!("{bare:?}"), format!("{neutral:?}"));
    assert!(bare_trace.contains("\"phase\""), "phase boundary records");
    assert_eq!(bare_trace, neutral_trace);
}

/// Runs `scenario()` once on its default topology and once with the
/// complete graph built up front and passed in: outcome `Debug` and JSONL
/// trace must match byte for byte.
fn assert_default_topology_is_the_complete_graph<L: LinkModel, O: std::fmt::Debug>(
    n: usize,
    scenario: impl Fn() -> Scenario<StaticAdversary, L>,
    run: impl Fn(Scenario<StaticAdversary, L>) -> O,
) {
    let traced = |explicit: bool| {
        let tracer = JsonlTracer::new();
        let mut s = scenario().trace(tracer.clone());
        if explicit {
            s = s.topology(StaticAdversary::new(Graph::complete(n)));
        }
        (format!("{:?}", run(s)), tracer.take_jsonl())
    };
    let (default, default_trace) = traced(false);
    let (explicit, explicit_trace) = traced(true);
    assert!(default_trace.contains("\"deliver\""), "the run ran");
    assert_eq!(default, explicit);
    assert_eq!(default_trace, explicit_trace);
}

/// The default topology is built on its first epoch, not by the builder;
/// a run over it is still the run over an explicit `K_n`, through every
/// entry point that can keep the default.
#[test]
fn default_topology_equals_an_explicit_complete_graph() {
    let n = 9usize;
    let link = || DropLink::new(0.2).with_jitter(2);
    assert_default_topology_is_the_complete_graph(
        n,
        || {
            Scenario::from_assignment(TokenAssignment::single_source(n, 5, NodeId::new(2)))
                .link(link())
                .seed(3)
        },
        |s| {
            let out = s.run_single_source();
            assert!(out.completed, "{}", out.report);
            out
        },
    );
    assert_default_topology_is_the_complete_graph(
        n,
        || {
            Scenario::from_assignment(TokenAssignment::round_robin_sources(n, 6, 3))
                .link(link())
                .seed(5)
        },
        |s| {
            let out = s.run_multi_source();
            assert!(out.completed, "{}", out.report);
            out
        },
    );
    assert_default_topology_is_the_complete_graph(
        n,
        || {
            Scenario::new(n, 2)
                .link(link())
                .seed(7)
                .session(SessionSpec::single_source("a", 0, n, 2, NodeId::new(0)))
                .session(SessionSpec::single_source("b", 6, n, 3, NodeId::new(4)))
        },
        |s| {
            let out = s.run_sessions();
            assert_eq!(out.completed_sessions(), 2, "{}", out.report);
            out
        },
    );
}
