//! Cross-model conformance: the asynchronous `EventProtocol` ports of the
//! dissemination algorithms against their round-based references.
//!
//! The contract (documented in `crates/runtime/README.md`):
//!
//! * **(a) Agreement where the models coincide.** Under `PerfectLink`
//!   with zero latency, an `AsyncSingleSource` / `AsyncMultiSource`
//!   execution reaches the same per-node final token sets as
//!   `UnicastSim` running the round-based nodes (and as the
//!   `BroadcastSim` flooding reference), with the same `k(n−1)` learning
//!   count — across static, rewiring, churn, and edge-Markovian
//!   adversaries.
//! * **(b) Liveness where they don't.** Under 30% drop (plus jitter ⇒
//!   reordering), where the round algorithms would deadlock on a lost
//!   one-shot announcement, the async ports still reach full
//!   dissemination, within a bounded virtual-time overhead over their
//!   own lossless run, and the execution is replay-identical from its
//!   seeds.

use dynspread::core::flooding::PhasedFlooding;
use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::oblivious::{run_oblivious_multi_source, ObliviousConfig};
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::adversary::Adversary;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, StaticAdversary,
};
use dynspread::graph::{Graph, NodeId};
use dynspread::runtime::engine::{EventReport, EventSim, StopReason};
use dynspread::runtime::link::{DropLink, LinkModel, LinkModelExt, PerfectLink};
use dynspread::runtime::protocol::{
    AsyncConfig, AsyncMultiSource, AsyncObliviousConfig, AsyncSingleSource,
};
use dynspread::runtime::Scenario;
use dynspread::sim::token::TokenSet;
use dynspread::sim::{BroadcastSim, SimConfig, TokenAssignment, UnicastSim};

const ADVERSARIES: [&str; 4] = ["static", "rewire", "churn", "markovian"];

/// Fresh adversary instance per run (they are consumed by the engines).
fn adversary(kind: &str, n: usize, seed: u64) -> Box<dyn Adversary> {
    match kind {
        "static" => Box::new(StaticAdversary::new(Graph::cycle(n))),
        "rewire" => Box::new(PeriodicRewiring::new(Topology::RandomTree, 3, seed)),
        "churn" => Box::new(ChurnAdversary::new(
            Topology::SparseConnected(2.0),
            2,
            3,
            seed,
        )),
        "markovian" => Box::new(EdgeMarkovian::new(0.08, 0.2, 2, seed)),
        other => panic!("unknown adversary kind {other}"),
    }
}

/// Final per-node token sets of a completed run, via the global tracker.
fn knowledge_of<F: Fn(NodeId) -> TokenSet>(n: usize, get: F) -> Vec<TokenSet> {
    NodeId::all(n).map(get).collect()
}

fn sync_single_source(assignment: &TokenAssignment, kind: &str, seed: u64) -> (Vec<TokenSet>, u64) {
    let mut sim = UnicastSim::new(
        "ss",
        SingleSourceNode::nodes(assignment),
        adversary(kind, assignment.node_count(), seed),
        assignment,
        SimConfig::with_max_rounds(2_000_000),
    );
    let report = sim.run_to_completion();
    assert!(report.completed, "sync {kind}: {report}");
    let tracker = sim.tracker();
    (
        knowledge_of(assignment.node_count(), |v| tracker.knowledge(v).clone()),
        report.learnings,
    )
}

fn async_single_source(
    assignment: &TokenAssignment,
    kind: &str,
    seed: u64,
    link: impl LinkModel,
    ticks_per_round: u64,
) -> (Vec<TokenSet>, EventReport) {
    let nodes = AsyncSingleSource::nodes(assignment, AsyncConfig::default());
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary(kind, assignment.node_count(), seed),
        link,
        ticks_per_round,
        seed ^ 0x5EED,
        assignment,
    );
    let report = sim.run(2_000_000);
    let tracker = sim.tracker().expect("tracking enabled");
    (
        knowledge_of(assignment.node_count(), |v| tracker.knowledge(v).clone()),
        report,
    )
}

/// (a) Perfect link, zero latency: the async port of Algorithm 1 ends
/// with exactly the final token sets of the synchronous reference, per
/// node, across every adversary family.
#[test]
fn perfect_link_async_single_source_matches_sync_across_adversaries() {
    let (n, k) = (14, 10);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    for kind in ADVERSARIES {
        for seed in [7u64, 41] {
            let (sync_know, sync_learnings) = sync_single_source(&assignment, kind, seed);
            let (async_know, report) = async_single_source(&assignment, kind, seed, PerfectLink, 1);
            // The per-node comparison is the primary assertion. Be honest
            // about its power: full dissemination is the unique fixed
            // point of the problem, so once BOTH runs complete the sets
            // are necessarily equal — what this matrix really pins down
            // is that the async port reaches that fixed point at all (it
            // must not stall, livelock, or over-apply under any adversary
            // the reference handles), with the per-node check localizing
            // a failure to the node that diverged. The discriminating
            // checks on *how* it gets there are the known-answer timing
            // tests and the retransmission property suite.
            for v in NodeId::all(n) {
                assert!(
                    async_know[v.index()] == sync_know[v.index()],
                    "{kind}/{seed}: final token set of {v} differs from the sync reference ({report})"
                );
            }
            assert_eq!(report.stopped, StopReason::Complete, "{kind}/{seed}");
            assert_eq!(sync_learnings, (k * (n - 1)) as u64);
            assert_eq!(report.learnings, sync_learnings, "{kind}/{seed}");
            assert_eq!(report.unroutable, 0, "zero latency never outlives an edge");
        }
    }
}

/// (a) Same agreement for the multi-source port, with the local-broadcast
/// flooding engine as a second reference on the same assignment.
#[test]
fn perfect_link_async_multi_source_matches_sync_and_broadcast_reference() {
    let (n, k, s) = (12, 9, 3);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    for kind in ADVERSARIES {
        let seed = 13u64;
        // Round-based unicast reference.
        let (nodes, _map) = MultiSourceNode::nodes(&assignment);
        let mut sync_sim = UnicastSim::new(
            "ms",
            nodes,
            adversary(kind, n, seed),
            &assignment,
            SimConfig::with_max_rounds(2_000_000),
        );
        let sync_report = sync_sim.run_to_completion();
        assert!(sync_report.completed, "sync {kind}: {sync_report}");
        // Local-broadcast flooding reference.
        let mut bcast_sim = BroadcastSim::new(
            "flood",
            PhasedFlooding::nodes(&assignment),
            adversary(kind, n, seed),
            &assignment,
            SimConfig::with_max_rounds(2_000_000),
        );
        let bcast_report = bcast_sim.run_to_completion();
        assert!(bcast_report.completed, "flood {kind}: {bcast_report}");
        // Async port.
        let (nodes, _map) = AsyncMultiSource::nodes(&assignment, AsyncConfig::default());
        let mut async_sim = EventSim::with_tracking(
            nodes,
            adversary(kind, n, seed),
            PerfectLink,
            1,
            99,
            &assignment,
        );
        let report = async_sim.run(2_000_000);
        // Set comparison first (see the single-source test for why it is
        // the agreement claim and completeness its corollary).
        let tracker = async_sim.tracker().expect("tracking enabled");
        for v in NodeId::all(n) {
            assert!(
                tracker.knowledge(v) == sync_sim.tracker().knowledge(v),
                "{kind}: async vs unicast reference differ at {v} ({report})"
            );
            assert!(
                tracker.knowledge(v) == bcast_sim.tracker().knowledge(v),
                "{kind}: async vs broadcast reference differ at {v}"
            );
        }
        assert_eq!(report.stopped, StopReason::Complete, "{kind}: {report}");
        assert_eq!(report.learnings, (k * (n - 1)) as u64, "{kind}");
    }
}

/// (b) 30% drop (+ jitter ⇒ reordering): the async ports still reach full
/// dissemination, in bounded virtual time relative to their own lossless
/// run, and the execution replays identically from its seeds.
#[test]
fn lossy_async_reaches_full_dissemination_with_bounded_overhead() {
    let (n, k) = (14, 10);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    for kind in ADVERSARIES {
        let seed = 23u64;
        // Lossless async baseline for the overhead bound (same jitter so
        // only the drops differ).
        let (_, lossless) =
            async_single_source(&assignment, kind, seed, PerfectLink.with_jitter(2), 2);
        assert_eq!(lossless.stopped, StopReason::Complete, "{kind}: {lossless}");
        let run = || {
            async_single_source(
                &assignment,
                kind,
                seed,
                DropLink::new(0.3).with_jitter(2),
                2,
            )
        };
        let (know, report) = run();
        assert_eq!(report.stopped, StopReason::Complete, "{kind}: {report}");
        assert_eq!(report.learnings, (k * (n - 1)) as u64, "{kind}");
        for (v, set) in know.iter().enumerate() {
            assert!(set.is_full(), "{kind}: node {v} incomplete at 30% drop");
        }
        // Retransmission was actually needed and the link actually lossy.
        assert!(report.copies_scheduled < report.transmissions, "{kind}");
        // Bounded virtual-time overhead: backoff caps the retransmission
        // interval at 32 ticks, so a 30% drop costs at most a couple of
        // orders of magnitude over the lossless event cascade.
        let bound = 200 * lossless.final_time.max(1) + 2_000;
        assert!(
            report.final_time <= bound,
            "{kind}: lossy run took t={} > bound {bound} (lossless t={})",
            report.final_time,
            lossless.final_time
        );
        // Seeded replay-identity: the whole execution reproduces.
        let (know2, report2) = run();
        assert_eq!(format!("{report:?}"), format!("{report2:?}"), "{kind}");
        assert!(know == know2, "{kind}: replay changed final token sets");
    }
}

/// (b) for the multi-source port: full dissemination at 30% drop under
/// churn, replay-identical.
#[test]
fn lossy_async_multi_source_completes_and_replays() {
    let (n, k, s) = (12, 9, 3);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    let run = |seed: u64| {
        let (nodes, _map) = AsyncMultiSource::nodes(&assignment, AsyncConfig::default());
        let mut sim = EventSim::with_tracking(
            nodes,
            adversary("churn", n, 31),
            DropLink::new(0.3).with_jitter(2),
            2,
            seed,
            &assignment,
        );
        let report = sim.run(2_000_000);
        let tracker = sim.tracker().expect("tracking enabled");
        let know = knowledge_of(n, |v| tracker.knowledge(v).clone());
        (report, know)
    };
    let (report, know) = run(5);
    assert_eq!(report.stopped, StopReason::Complete, "{report}");
    assert_eq!(report.learnings, (k * (n - 1)) as u64);
    assert!(know.iter().all(TokenSet::is_full));
    let (report2, know2) = run(5);
    assert_eq!(format!("{report:?}"), format!("{report2:?}"));
    assert!(know == know2);
    // A different engine seed genuinely changes the lossy execution.
    let (report3, _) = run(6);
    assert_ne!(format!("{report:?}"), format!("{report3:?}"));
}

/// (a) for Algorithm 2: under `PerfectLink` with zero latency the
/// asynchronous two-phase oblivious pipeline reaches the same final
/// per-node token sets as the synchronous `run_oblivious_multi_source`
/// (both complete ⇒ every set is full, checked set-for-set), elects the
/// *identical* center set from the shared seed, and strands nothing —
/// across static, rewiring, and churn adversaries.
#[test]
fn perfect_link_async_oblivious_matches_sync_across_adversaries() {
    let n = 16;
    let assignment = TokenAssignment::n_gossip(n);
    for kind in ["static", "rewire", "churn"] {
        let seed = 5u64;
        let sync_out = run_oblivious_multi_source(
            &assignment,
            adversary(kind, n, seed),
            adversary(kind, n, seed ^ 1),
            &ObliviousConfig {
                seed,
                source_threshold: Some(1.0), // force the two-phase path
                center_probability: Some(0.25),
                ..ObliviousConfig::default()
            },
        );
        assert!(sync_out.completed(), "{kind}: sync {}", sync_out.phase2);
        let async_out = Scenario::from_assignment(assignment.clone())
            .topology(adversary(kind, n, seed))
            .link(PerfectLink)
            .run_oblivious(
                adversary(kind, n, seed ^ 1),
                PerfectLink,
                &AsyncObliviousConfig {
                    seed,
                    source_threshold: Some(1.0),
                    center_probability: Some(0.25),
                    phase1_deadline: 20_000,
                    phase1_max_time: 50_000,
                    ..AsyncObliviousConfig::default()
                },
                None,
            );
        assert!(async_out.completed, "{kind}: async phase 2 incomplete");
        assert!(async_out.phase1.is_some(), "{kind}: phase 1 must run");
        // Same shared seed ⇒ the same center election as the sync run.
        assert_eq!(async_out.centers, sync_out.centers, "{kind}");
        // Full dissemination is the unique fixed point: the sync
        // reference completing means every per-node set is full, so the
        // set-for-set comparison is "async is full everywhere too".
        for (v, know) in async_out.final_knowledge.iter().enumerate() {
            assert!(
                know.is_full(),
                "{kind}: node {v} differs from the sync reference's full set"
            );
        }
        // Stranding is a topology property, not a loss artifact: on the
        // static cycle a high-degree owner with no center neighbor can
        // never shed its token (the sync pipeline strands it identically
        // at its round cap), so nonzero stranding is legal here — what
        // perfect links must guarantee is that the fallback still
        // disseminates everything, asserted above.
        assert!(async_out.stranded_tokens <= n, "{kind}");
    }
}

/// (b) for Algorithm 2: the pipeline the round model cannot run at all —
/// phase-1 walk transfers over 30% drop plus jitter — still reaches full
/// dissemination, and the whole two-phase execution replays identically
/// from its seeds.
#[test]
fn lossy_async_oblivious_completes_and_replays() {
    let n = 14;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        seed: 41,
        source_threshold: Some(1.0),
        center_probability: Some(0.25),
        phase1_deadline: 20_000,
        phase1_max_time: 50_000,
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(adversary("churn", n, 19))
            .link(DropLink::new(0.3).with_jitter(2))
            .run_oblivious(
                adversary("rewire", n, 20),
                DropLink::new(0.3).with_jitter(2),
                &cfg,
                None,
            )
    };
    let out = run();
    assert!(out.completed, "30% drop: {:?}", out.phase2);
    assert!(out.final_knowledge.iter().all(TokenSet::is_full));
    let p1 = out.phase1.as_ref().expect("two-phase path forced");
    // The link was actually lossy on the walk phase.
    assert!(p1.copies_scheduled < p1.transmissions, "{p1}");
    // Seeded replay identity across both phases and the hand-off.
    let out2 = run();
    assert_eq!(format!("{:?}", out.phase1), format!("{:?}", out2.phase1));
    assert_eq!(format!("{:?}", out.phase2), format!("{:?}", out2.phase2));
    assert_eq!(out.centers, out2.centers);
    assert_eq!(out.sources, out2.sources);
    assert_eq!(out.stranded_tokens, out2.stranded_tokens);
    assert!(out.final_knowledge == out2.final_knowledge);
}

/// Release-only stress matrix (run in CI via `cargo test --release -- --ignored`):
/// larger networks, heavier loss, duplication, and latency on top of the
/// conformance matrix — too slow for debug builds.
#[test]
#[ignore = "stress matrix: run with cargo test --release -- --ignored"]
fn stress_async_conformance_matrix_release_only() {
    // Agreement sweep at scale.
    let (n, k) = (40, 24);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    for kind in ADVERSARIES {
        for seed in [3u64, 17, 29] {
            let (sync_know, _) = sync_single_source(&assignment, kind, seed);
            let (async_know, report) = async_single_source(&assignment, kind, seed, PerfectLink, 1);
            assert_eq!(report.stopped, StopReason::Complete, "{kind}/{seed}");
            assert!(async_know == sync_know, "{kind}/{seed}: final sets differ");
        }
    }
    // Liveness sweep: 50% drop + duplication + jitter + latency.
    for kind in ADVERSARIES {
        for seed in [11u64, 43] {
            let link = DropLink::new(0.5)
                .duplicating(0.2)
                .with_latency(1)
                .with_jitter(3);
            let (know, report) = async_single_source(&assignment, kind, seed, link, 3);
            assert_eq!(
                report.stopped,
                StopReason::Complete,
                "{kind}/{seed}: {report}"
            );
            assert_eq!(report.learnings, (k * (n - 1)) as u64, "{kind}/{seed}");
            assert!(know.iter().all(TokenSet::is_full), "{kind}/{seed}");
        }
    }
    // Multi-source at scale under markovian dynamics and loss.
    let (n, k, s) = (32, 16, 4);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    let (nodes, _map) = AsyncMultiSource::nodes(&assignment, AsyncConfig::default());
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary("markovian", n, 61),
        DropLink::new(0.4).with_jitter(2),
        2,
        77,
        &assignment,
    );
    let report = sim.run(4_000_000);
    assert_eq!(report.stopped, StopReason::Complete, "{report}");
    assert_eq!(report.learnings, (k * (n - 1)) as u64);
    // Two-phase oblivious pipeline at scale: heavy loss + duplication on
    // the walk phase, loss + jitter on the dissemination phase.
    let n = 40;
    let assignment = TokenAssignment::n_gossip(n);
    for seed in [9u64, 27] {
        let out = Scenario::from_assignment(assignment.clone())
            .topology(adversary("rewire", n, seed))
            .link(DropLink::new(0.4).duplicating(0.2).with_jitter(2))
            .run_oblivious(
                adversary("churn", n, seed ^ 3),
                DropLink::new(0.3).with_jitter(2),
                &AsyncObliviousConfig {
                    seed,
                    source_threshold: Some(1.0),
                    center_probability: Some(0.2),
                    phase1_deadline: 40_000,
                    phase1_max_time: 100_000,
                    phase2_max_time: 4_000_000,
                    ..AsyncObliviousConfig::default()
                },
                None,
            );
        assert!(out.completed, "oblivious stress seed {seed}");
        assert!(out.final_knowledge.iter().all(TokenSet::is_full));
    }
}
