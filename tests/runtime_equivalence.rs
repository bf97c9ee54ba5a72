//! The synchronizer adapters' equivalence contract: under a perfect link
//! (zero latency, no loss, no duplication) the event-driven runtime must
//! reproduce the synchronous engines **byte-for-byte** — same `RunReport`
//! (every field, via `Debug`) and same learning log — for the same seed,
//! across every adversary family, in both communication modes.

use dynspread::core::flooding::PhasedFlooding;
use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, StaticAdversary,
};
use dynspread::graph::{Graph, NodeId};
use dynspread::runtime::link::{LinkModelExt, PerfectLink};
use dynspread::runtime::sync::{BroadcastSynchronizer, UnicastSynchronizer};
use dynspread::sim::{BroadcastSim, SimConfig, TokenAssignment, UnicastSim};

const MAX_ROUNDS: u64 = 2_000_000;

/// One fingerprint per execution: the full Debug report + learning log.
fn fingerprint(report: &dynspread::sim::RunReport, log: String) -> (String, String) {
    (format!("{report:?}"), log)
}

fn unicast_sync(n: usize, k: usize, kind: u8, seed: u64) -> (String, String) {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let nodes = SingleSourceNode::nodes(&assignment);
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    macro_rules! run {
        ($adv:expr) => {{
            let mut sim = UnicastSim::new("ss", nodes, $adv, &assignment, cfg);
            let report = sim.run_to_completion();
            fingerprint(&report, format!("{:?}", sim.tracker().log()))
        }};
    }
    match kind {
        0 => run!(StaticAdversary::new(Graph::cycle(n))),
        1 => run!(PeriodicRewiring::new(Topology::RandomTree, 3, seed)),
        2 => run!(ChurnAdversary::new(
            Topology::SparseConnected(2.0),
            2,
            3,
            seed
        )),
        _ => run!(EdgeMarkovian::new(0.08, 0.2, 2, seed)),
    }
}

fn unicast_runtime(n: usize, k: usize, kind: u8, seed: u64) -> (String, String) {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let nodes = SingleSourceNode::nodes(&assignment);
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    macro_rules! run {
        ($adv:expr) => {{
            let mut sim =
                UnicastSynchronizer::new("ss", nodes, $adv, &assignment, cfg, PerfectLink, 999);
            let report = sim.run_to_completion();
            fingerprint(&report, format!("{:?}", sim.tracker().log()))
        }};
    }
    match kind {
        0 => run!(StaticAdversary::new(Graph::cycle(n))),
        1 => run!(PeriodicRewiring::new(Topology::RandomTree, 3, seed)),
        2 => run!(ChurnAdversary::new(
            Topology::SparseConnected(2.0),
            2,
            3,
            seed
        )),
        _ => run!(EdgeMarkovian::new(0.08, 0.2, 2, seed)),
    }
}

#[test]
fn perfect_link_unicast_matches_sync_engine_byte_for_byte() {
    for kind in 0u8..4 {
        for seed in [7, 97] {
            let (rs, ls) = unicast_sync(16, 12, kind, seed);
            let (rr, lr) = unicast_runtime(16, 12, kind, seed);
            assert_eq!(
                rs, rr,
                "report differs for adversary kind {kind}, seed {seed}"
            );
            assert_eq!(ls, lr, "log differs for adversary kind {kind}, seed {seed}");
        }
    }
}

#[test]
fn perfect_link_broadcast_matches_sync_engine_byte_for_byte() {
    for (kind, seed) in [(0u8, 5u64), (1, 5), (2, 11), (3, 11)] {
        let n = 12;
        let assignment = TokenAssignment::round_robin_sources(n, 8, 4);
        let cfg = SimConfig::with_max_rounds(100_000);
        macro_rules! both {
            ($adv:expr) => {{
                let mut sync_sim = BroadcastSim::new(
                    "flood",
                    PhasedFlooding::nodes(&assignment),
                    $adv,
                    &assignment,
                    cfg.clone(),
                );
                let rs = sync_sim.run_to_completion();
                let ls = format!("{:?}", sync_sim.tracker().log());
                let mut rt_sim = BroadcastSynchronizer::new(
                    "flood",
                    PhasedFlooding::nodes(&assignment),
                    $adv,
                    &assignment,
                    cfg.clone(),
                    PerfectLink,
                    1234,
                );
                let rr = rt_sim.run_to_completion();
                let lr = format!("{:?}", rt_sim.tracker().log());
                assert_eq!(format!("{rs:?}"), format!("{rr:?}"), "kind {kind}");
                assert_eq!(ls, lr, "kind {kind}");
            }};
        }
        match kind {
            0 => both!(StaticAdversary::new(Graph::cycle(n))),
            1 => both!(PeriodicRewiring::new(Topology::RandomTree, 3, seed)),
            2 => both!(ChurnAdversary::new(
                Topology::SparseConnected(2.0),
                2,
                3,
                seed
            )),
            _ => both!(EdgeMarkovian::new(0.08, 0.2, 2, seed)),
        }
    }
}

#[test]
fn perfect_link_multi_source_matches_sync_engine() {
    let (n, k, s) = (14, 10, 4);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    let (nodes_a, _) = MultiSourceNode::nodes(&assignment);
    let mut sync_sim = UnicastSim::new(
        "ms",
        nodes_a,
        ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, 5),
        &assignment,
        cfg.clone(),
    );
    let rs = sync_sim.run_to_completion();
    let (nodes_b, _) = MultiSourceNode::nodes(&assignment);
    let mut rt_sim = UnicastSynchronizer::new(
        "ms",
        nodes_b,
        ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, 5),
        &assignment,
        cfg,
        PerfectLink,
        77,
    );
    let rr = rt_sim.run_to_completion();
    assert!(rs.completed);
    assert_eq!(format!("{rs:?}"), format!("{rr:?}"));
    assert_eq!(
        format!("{:?}", sync_sim.tracker().log()),
        format!("{:?}", rt_sim.tracker().log())
    );
}

/// The Byzantine counters are part of the equivalence contract: sync
/// engines and honest async runs report zeros, and wrapping every node
/// with an honest [`MisbehaviorPlan`] is an identity — the wrapped run
/// reproduces the unwrapped one byte for byte (transcript recording is
/// pure observation).
#[test]
fn honest_byzantine_wrap_is_an_identity_and_counters_default_to_zero() {
    use dynspread::runtime::byzantine::MisbehaviorPlan;
    use dynspread::runtime::engine::EventSim;
    use dynspread::runtime::link::DropLink;
    use dynspread::runtime::protocol::{AsyncConfig, AsyncSingleSource};
    use dynspread::runtime::Scenario;

    let (n, k) = (10, 6);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));

    // Sync engine: the counters exist but are always zero.
    let mut sync_sim = UnicastSim::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        StaticAdversary::new(Graph::cycle(n)),
        &assignment,
        SimConfig::with_max_rounds(MAX_ROUNDS),
    );
    let rs = sync_sim.run_to_completion();
    assert!(rs.completed);
    assert_eq!(rs.byzantine_nodes, 0);
    assert_eq!(rs.violations_detected, 0);
    assert_eq!(rs.evidence_verdicts, 0);
    assert!(!format!("{rs}").contains("byzantine"));

    // Honest async run, unwrapped.
    let mut honest = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        DropLink::new(0.2).with_jitter(1),
        2,
        33,
        &assignment,
    );
    let honest_event = honest.run(200_000);
    let honest_report = honest.run_report("scenario-async-single-source");
    assert_eq!(honest_report.byzantine_nodes, 0);
    assert_eq!(honest_report.violations_detected, 0);
    assert_eq!(honest_report.evidence_verdicts, 0);

    // Same run through the builder with an all-honest plan.
    let out = Scenario::from_assignment(assignment)
        .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 9))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(33)
        .byzantine(MisbehaviorPlan::honest(n))
        .max_time(200_000)
        .run_single_source();
    assert_eq!(format!("{:?}", out.event), format!("{honest_event:?}"));
    assert_eq!(format!("{:?}", out.report), format!("{honest_report:?}"));
    assert!(out.evidence.is_empty());
    assert_eq!(out.injected, 0);
    assert_eq!(out.honest_coverage, 1.0);
}

/// The crash/recovery/partition counters are part of the equivalence
/// contract too: sync engines and fault-free event runs report zeros
/// (with the Display line hidden), and routing a run through the builder
/// with an empty [`FaultPlan`] is an identity — same engine
/// report, same workspace report, byte for byte.
#[test]
fn fault_counters_default_to_zero_and_empty_plan_is_identity() {
    use dynspread::runtime::engine::EventSim;
    use dynspread::runtime::faults::FaultPlan;
    use dynspread::runtime::link::DropLink;
    use dynspread::runtime::protocol::{AsyncConfig, AsyncSingleSource};
    use dynspread::runtime::Scenario;

    let (n, k) = (10, 6);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));

    // Sync engine: the counters exist but are always zero and invisible.
    let mut sync_sim = UnicastSim::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        StaticAdversary::new(Graph::cycle(n)),
        &assignment,
        SimConfig::with_max_rounds(MAX_ROUNDS),
    );
    let rs = sync_sim.run_to_completion();
    assert!(rs.completed);
    assert_eq!(rs.crashes, 0);
    assert_eq!(rs.recoveries, 0);
    assert_eq!(rs.partition_episodes, 0);
    assert!(!format!("{rs}").contains("faults:"));

    // Fault-free event run, no plan installed.
    let mut honest = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        DropLink::new(0.2).with_jitter(1),
        2,
        33,
        &assignment,
    );
    let honest_event = honest.run(200_000);
    let honest_report = honest.run_report("scenario-async-single-source");
    assert_eq!(honest_report.crashes, 0);
    assert_eq!(honest_report.recoveries, 0);
    assert_eq!(honest_report.partition_episodes, 0);
    assert!(!format!("{honest_report}").contains("faults:"));

    // Same run through the builder with an empty plan.
    let out = Scenario::from_assignment(assignment)
        .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 9))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(33)
        .faults(FaultPlan::none(n))
        .max_time(200_000)
        .run_single_source();
    assert_eq!(format!("{:?}", out.event), format!("{honest_event:?}"));
    assert_eq!(format!("{:?}", out.report), format!("{honest_report:?}"));
    assert!(out.completed);
    assert_eq!(out.live_coverage, 1.0);
}

/// Sanity: the equivalence is *not* vacuous — a lossy link produces a
/// different execution (more rounds or different message counts) but the
/// run still completes under a dynamic adversary.
#[test]
fn lossy_link_changes_the_execution_but_still_completes() {
    let (n, k) = (12, 8);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    let mut perfect = UnicastSynchronizer::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 3),
        &assignment,
        cfg.clone(),
        PerfectLink,
        50,
    );
    let rp = perfect.run_to_completion();
    let mut lossy = UnicastSynchronizer::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 3),
        &assignment,
        cfg,
        PerfectLink.lossy(0.25),
        50,
    );
    let rl = lossy.run_to_completion();
    assert!(rp.completed && rl.completed, "{rp}\n{rl}");
    assert_ne!(format!("{rp:?}"), format!("{rl:?}"));
    let (tx, scheduled, delivered) = lossy.link_stats();
    assert!(
        scheduled < tx,
        "lossy link dropped nothing: {tx} vs {scheduled}"
    );
    assert_eq!(delivered, scheduled, "zero-latency copies all arrive");
}

/// The static counterpart of the test above, pinning a known gap: on a
/// static path, Algorithm 1 through a 1 %-lossy synchronizer never
/// completes. Completeness is announced once per neighbour and a request
/// on a live edge is never re-sent, so one lost message stalls its edge
/// for good; above, the rewiring adversary eventually kills that edge.
/// A loss-tolerant Algorithm 1 that re-sends unanswered requests and
/// re-announces completeness (`ROADMAP.md` item 3(b)) flips the lossy
/// half of this test.
#[test]
fn lossy_link_on_a_static_path_stalls_algorithm_one() {
    fn run(link: impl dynspread::runtime::link::LinkModel, seed: u64) -> dynspread::sim::RunReport {
        let (n, k) = (24, 16);
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        UnicastSynchronizer::new(
            "ss",
            SingleSourceNode::nodes(&assignment),
            StaticAdversary::new(Graph::path(n)),
            &assignment,
            SimConfig::with_max_rounds(20_000),
            link,
            seed,
        )
        .run_to_completion()
    }
    for seed in 0..10 {
        let perfect = run(PerfectLink, seed);
        assert!(perfect.completed, "seed {seed}: {perfect}");
        let lossy = run(PerfectLink.lossy(0.01), seed);
        assert!(!lossy.completed, "seed {seed}: {lossy}");
    }
}

/// Tracing is a pure observer: a run with a [`NoopTracer`] installed (and
/// one with a recording [`JsonlTracer`]) yields a `RunReport` and
/// learning log byte-identical to the untraced run — and under a perfect
/// link, the per-kind link counters introduced with the observability
/// layer are sends-only (zero drops, duplicates, and retransmissions) on
/// both engine families.
#[test]
fn tracing_is_invisible_to_the_run_and_perfect_links_count_zero_faults() {
    use dynspread::runtime::trace::{JsonlTracer, NoopTracer};

    let (n, k) = (16, 12);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    let run = |tracer: u8| {
        let mut sim = UnicastSynchronizer::new(
            "ss",
            SingleSourceNode::nodes(&assignment),
            PeriodicRewiring::new(Topology::RandomTree, 3, 13),
            &assignment,
            cfg.clone(),
            PerfectLink,
            999,
        );
        let jsonl = JsonlTracer::new();
        match tracer {
            0 => {}
            1 => sim.set_tracer(NoopTracer),
            _ => sim.set_tracer(jsonl.clone()),
        }
        let report = sim.run_to_completion();
        let log = format!("{:?}", sim.tracker().log());
        (format!("{report:?}"), log, jsonl.take_jsonl(), report)
    };

    let (untraced, log_untraced, _, report) = run(0);
    let (noop, log_noop, _, _) = run(1);
    let (recorded, log_recorded, jsonl, _) = run(2);
    assert_eq!(untraced, noop, "NoopTracer perturbed the run");
    assert_eq!(untraced, recorded, "JsonlTracer perturbed the run");
    assert_eq!(log_untraced, log_noop);
    assert_eq!(log_untraced, log_recorded);
    assert!(!jsonl.is_empty(), "recording tracer captured nothing");

    // Perfect link: every send is scheduled exactly once and the sync
    // protocols never retransmit.
    assert!(report.completed, "{report}");
    assert!(report.link_sends > 0, "sends counter never populated");
    assert_eq!(report.link_drops, 0);
    assert_eq!(report.link_duplicates, 0);
    assert_eq!(report.retransmissions, 0);

    // Same zeros on the synchronous engine itself.
    let mut sync_sim = UnicastSim::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 13),
        &assignment,
        cfg,
    );
    let rs = sync_sim.run_to_completion();
    assert!(rs.completed);
    assert!(rs.link_sends > 0);
    assert_eq!(rs.link_drops, 0);
    assert_eq!(rs.link_duplicates, 0);
    assert_eq!(rs.retransmissions, 0);
}
