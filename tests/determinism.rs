//! Determinism of full executions across the overhauled data plane.
//!
//! The perf overhaul (delta-applied graphs, incremental tracking,
//! receiver-only tracker syncing, reused connectivity buffers) must not
//! perturb observable behavior: same-seed runs yield **byte-identical**
//! `RunReport`s — including through the delta-producing churn adversary
//! and the `Unchanged` fast path of periodic rewiring — and learning logs
//! match a whole-network reference sweep.

use dynspread::core::flooding::PhasedFlooding;
use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{ChurnAdversary, EdgeMarkovian, PeriodicRewiring};
use dynspread::graph::NodeId;
use dynspread::runtime::engine::{EventProtocol, EventSim, StopReason};
use dynspread::runtime::faults::{FaultPlan, PartitionLink, RecoveryMode};
use dynspread::runtime::link::{DropLink, LinkModelExt};
use dynspread::runtime::protocol::{AsyncConfig, AsyncObliviousConfig, AsyncSingleSource};
use dynspread::runtime::sync::{BroadcastSynchronizer, UnicastSynchronizer};
use dynspread::runtime::trace::JsonlTracer;
use dynspread::runtime::{Scenario, SessionSpec, SessionWorkload};
use dynspread::sim::{RunReport, SimConfig, TokenAssignment, UnicastSim};
use dynspread_bench::{derive_seed, par_map};

fn run_with<A>(seed: u64, adversary: impl FnOnce(u64) -> A) -> (RunReport, String)
where
    A: dynspread::sim::adversary::UnicastAdversary<dynspread::core::single_source::SsMsg>,
{
    let (n, k) = (16, 12);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let mut sim = UnicastSim::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        adversary(seed),
        &assignment,
        SimConfig::with_max_rounds(2_000_000),
    );
    let report = sim.run_to_completion();
    let log = format!("{:?}", sim.tracker().log());
    (report, log)
}

fn single_source_run(seed: u64, adversary_kind: u8) -> (RunReport, String) {
    match adversary_kind {
        0 => run_with(seed, |s| PeriodicRewiring::new(Topology::RandomTree, 3, s)),
        1 => run_with(seed, |s| {
            ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, s)
        }),
        _ => run_with(seed, |s| EdgeMarkovian::new(0.08, 0.2, 2, s)),
    }
}

#[test]
fn same_seed_runs_are_byte_identical_across_adversaries() {
    for kind in 0u8..3 {
        let (r1, log1) = single_source_run(97, kind);
        let (r2, log2) = single_source_run(97, kind);
        assert!(r1.completed, "adversary kind {kind}: {r1}");
        // Byte-identical reports: Debug covers every field.
        assert_eq!(
            format!("{r1:?}"),
            format!("{r2:?}"),
            "adversary kind {kind} is nondeterministic"
        );
        // The full learning log (every ⟨v, τ, r⟩ event, in order) matches too.
        assert_eq!(log1, log2, "learning log differs for adversary kind {kind}");
        // Different seeds genuinely change the execution.
        let (r3, _) = single_source_run(98, kind);
        assert_ne!(
            format!("{r1:?}"),
            format!("{r3:?}"),
            "adversary kind {kind} ignores its seed"
        );
    }
}

/// The incremental (receiver-only, word-XOR) tracker sync must record the
/// exact learning events a whole-network per-round sweep would: replaying
/// the log reproduces `k(n−1)` learnings with rounds nondecreasing per
/// node-token pair and every node ending complete.
#[test]
fn incremental_tracker_log_is_exact() {
    let (n, k, s) = (14, 10, 4);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    let (nodes, _map) = MultiSourceNode::nodes(&assignment);
    let mut sim = UnicastSim::new(
        "ms",
        nodes,
        ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, 5),
        &assignment,
        SimConfig::with_max_rounds(2_000_000),
    );
    let report = sim.run_to_completion();
    assert!(report.completed, "{report}");
    assert_eq!(report.learnings, (k * (n - 1)) as u64);
    let log = sim.tracker().log();
    assert_eq!(log.len(), k * (n - 1));
    // No duplicate ⟨node, token⟩ learnings; initial holders never learn.
    let mut seen = std::collections::BTreeSet::new();
    for l in log {
        assert!(seen.insert((l.node, l.token)), "duplicate learning {l:?}");
        assert!(
            !assignment.initial_knowledge(l.node).contains(l.token),
            "initial holder recorded as learning {l:?}"
        );
        assert!(l.round >= 1 && l.round <= report.rounds);
    }
    // Rounds are nondecreasing in log order (the engine syncs rounds in
    // order, receivers in ascending ID order within a round).
    assert!(log.windows(2).all(|w| w[0].round <= w[1].round));
    // Per-round totals agree with the log.
    let per_round = sim.tracker().learnings_per_round();
    let from_log: u64 = per_round.iter().sum();
    assert_eq!(from_log, report.learnings);
}

/// One async lossy run, fingerprinted: full `EventReport` + the complete
/// learning log (every ⟨v, τ, epoch⟩ event in order).
fn async_fingerprint(n: usize, k: usize, drop_centi: u64, seed: u64) -> String {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let mut sim = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        EdgeMarkovian::new(0.08, 0.2, 2, seed),
        DropLink::new(drop_centi as f64 / 100.0).with_jitter(2),
        2,
        derive_seed(seed, 0xA51C),
        &assignment,
    );
    let report = sim.run(2_000_000);
    assert_eq!(report.stopped, StopReason::Complete, "{report}");
    format!(
        "{report:?} / {:?}",
        sim.tracker().expect("tracking enabled").log()
    )
}

/// The new async runs inherit the workspace determinism contract: a
/// `par_map`-fanned seed grid produces byte-identical fingerprints to the
/// same grid run serially, and same-seed cells agree across repetitions.
#[test]
fn async_par_map_grid_is_byte_identical_to_serial() {
    let (n, k) = (10, 6);
    let jobs: Vec<(u64, u64)> = [0u64, 20, 35]
        .iter()
        .flat_map(|&drop| (0..3u64).map(move |s| (drop, derive_seed(91, s))))
        .collect();
    let serial: Vec<String> = jobs
        .iter()
        .map(|&(drop, seed)| async_fingerprint(n, k, drop, seed))
        .collect();
    let parallel = par_map(jobs.clone(), |(drop, seed)| {
        async_fingerprint(n, k, drop, seed)
    });
    assert_eq!(parallel, serial, "parallel grid diverged from serial");
    // Replay: rerunning the grid reproduces it byte for byte.
    let replay = par_map(jobs, |(drop, seed)| async_fingerprint(n, k, drop, seed));
    assert_eq!(replay, serial);
    // The grid is not degenerate: different seeds change the execution.
    assert_ne!(serial[1], serial[2]);
}

// ---------------------------------------------------------------------------
// Session-service determinism: a sharded-arrival workload multiplexed
// over one engine is a pure function of its seeds, serially and under
// par_map fan-out; and a single-session service run reproduces the
// standalone engine's schedule exactly (the mux adds only the n join
// timer events).
// ---------------------------------------------------------------------------

/// One session-service run over a seeded arrival workload, fully
/// fingerprinted: engine report, per-session reports (latency, message
/// counts, chained digests), and the mux's error counters.
fn session_service_fingerprint(seed: u64) -> String {
    let n = 10;
    let workload = SessionWorkload::uniform(n, 6, 4, 50, derive_seed(seed, 0x5E5));
    let out = Scenario::new(n, 4)
        .topology(PeriodicRewiring::new(
            Topology::RandomTree,
            3,
            derive_seed(seed, 1),
        ))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(derive_seed(seed, 2))
        .workload(&workload)
        .run_sessions();
    format!(
        "{:?} | {:?} | {} | {}",
        out.event, out.sessions, out.decode_errors, out.foreign_drops
    )
}

#[test]
fn session_workload_replays_byte_identically_across_par_map() {
    let seeds: Vec<u64> = (0..4).map(|i| derive_seed(53, i)).collect();
    let serial: Vec<String> = seeds
        .iter()
        .map(|&s| session_service_fingerprint(s))
        .collect();
    let parallel = par_map(seeds.clone(), session_service_fingerprint);
    assert_eq!(parallel, serial, "parallel session grid diverged");
    let replay = par_map(seeds, session_service_fingerprint);
    assert_eq!(replay, serial);
    assert_ne!(serial[0], serial[1], "workload ignores its seed");
}

/// A single-session service run must reproduce the standalone engine's
/// execution: same transmissions, same delivered copies, same final
/// virtual time — the wire envelopes and scoreboard are pure overlay.
/// The only event-count difference is the n join timers the mux arms.
#[test]
fn single_session_service_matches_the_standalone_engine() {
    let (n, k) = (8usize, 5usize);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let adversary = || PeriodicRewiring::new(Topology::RandomTree, 3, 7);
    let link = || DropLink::new(0.2).with_jitter(1);

    // Standalone, untracked: runs to quiescence like the service does.
    let mut standalone = EventSim::new(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        adversary(),
        link(),
        2,
        13,
    );
    let base = standalone.run(200_000);
    assert_eq!(base.stopped, StopReason::Quiescent, "{base:?}");
    assert!(
        (0..n).all(|v| standalone
            .node(NodeId::new(v as u32))
            .known_tokens()
            .expect("async port exposes knowledge")
            .is_full()),
        "standalone run must disseminate fully"
    );

    let out = Scenario::from_assignment(assignment.clone())
        .topology(adversary())
        .link(link())
        .seed(13)
        .session(SessionSpec::single_source("solo", 0, n, k, NodeId::new(0)))
        .run_sessions();

    assert_eq!(out.event.transmissions, base.transmissions);
    assert_eq!(out.event.final_time, base.final_time);
    assert_eq!(out.event.epochs, base.epochs);
    assert_eq!(out.event.events, base.events + n as u64, "n join timers");
    let solo = &out.sessions[0];
    assert!(solo.report.completed, "{:?}", solo);
    assert_eq!(
        solo.latency.expect("completed"),
        solo.completed_at.expect("completed")
    );
    assert_eq!(out.decode_errors, 0);
    assert_eq!(out.foreign_drops, 0);
}

// ---------------------------------------------------------------------------
// Channel-1 trace determinism: the serialized JSONL stream is a pure
// function of the seed. One traced run per protocol arm, over lossy and
// jittery links wherever the arm supports them; each arm's trace must be
// byte-identical under replay.
// ---------------------------------------------------------------------------

/// Traced bounded run of one protocol arm; returns the JSONL stream.
/// Rounds are capped so the lossy sync arms terminate regardless of
/// whether loss lets them finish — trace identity does not require
/// completion.
fn trace_arm(arm: &str, seed: u64) -> String {
    let tracer = JsonlTracer::default();
    match arm {
        "flooding" => {
            let assignment = TokenAssignment::round_robin_sources(12, 8, 4);
            let mut sim = BroadcastSynchronizer::new(
                "flood",
                PhasedFlooding::nodes(&assignment),
                PeriodicRewiring::new(Topology::RandomTree, 3, seed),
                &assignment,
                SimConfig::with_max_rounds(300),
                DropLink::new(0.15),
                derive_seed(seed, 0x71),
            );
            sim.set_tracer(tracer.clone());
            let _ = sim.run_to_completion();
        }
        "single-source" => {
            let assignment = TokenAssignment::single_source(14, 8, NodeId::new(0));
            let mut sim = UnicastSynchronizer::new(
                "ss",
                SingleSourceNode::nodes(&assignment),
                EdgeMarkovian::new(0.08, 0.2, 2, seed),
                &assignment,
                SimConfig::with_max_rounds(300),
                DropLink::new(0.15),
                derive_seed(seed, 0x72),
            );
            sim.set_tracer(tracer.clone());
            let _ = sim.run_to_completion();
        }
        "multi-source" => {
            let assignment = TokenAssignment::round_robin_sources(14, 10, 4);
            let (nodes, _map) = MultiSourceNode::nodes(&assignment);
            let mut sim = UnicastSynchronizer::new(
                "ms",
                nodes,
                ChurnAdversary::new(Topology::SparseConnected(2.0), 2, 3, seed),
                &assignment,
                SimConfig::with_max_rounds(300),
                DropLink::new(0.1),
                derive_seed(seed, 0x73),
            );
            sim.set_tracer(tracer.clone());
            let _ = sim.run_to_completion();
        }
        "async-single-source" => {
            let assignment = TokenAssignment::single_source(10, 6, NodeId::new(0));
            let mut sim = EventSim::with_tracking(
                AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
                EdgeMarkovian::new(0.08, 0.2, 2, seed),
                DropLink::new(0.2).with_jitter(2),
                2,
                derive_seed(seed, 0x74),
                &assignment,
            );
            sim.set_tracer(tracer.clone());
            let _ = sim.run(50_000);
        }
        "faulted-async-single-source" => {
            // The async-single-source arm plus a fault plan: crashes,
            // recoveries, and a partition/heal cycle all land inside the
            // traced window, so the four fault record kinds are on the
            // stream.
            let assignment = TokenAssignment::single_source(10, 6, NodeId::new(0));
            let plan = FaultPlan::crash_recovery(
                10,
                0.2,
                60,
                60,
                RecoveryMode::Amnesia,
                derive_seed(seed, 3),
            )
            .with_random_partition(30, 200);
            let mut sim = EventSim::with_tracking(
                AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
                EdgeMarkovian::new(0.08, 0.2, 2, seed),
                PartitionLink::new(
                    DropLink::new(0.2).with_jitter(2),
                    std::sync::Arc::new(plan.clone()),
                ),
                2,
                derive_seed(seed, 0x76),
                &assignment,
            );
            sim.set_fault_plan(plan);
            sim.set_tracer(tracer.clone());
            let _ = sim.run(50_000);
        }
        "async-oblivious" => {
            let assignment = TokenAssignment::n_gossip(12);
            let cfg = AsyncObliviousConfig {
                seed: derive_seed(seed, 0x75),
                source_threshold: Some(1.0),
                center_probability: Some(0.25),
                phase1_deadline: 20_000,
                phase1_max_time: 50_000,
                ..AsyncObliviousConfig::default()
            };
            let _ = Scenario::from_assignment(assignment)
                .topology(PeriodicRewiring::new(
                    Topology::Gnp(0.25),
                    3,
                    derive_seed(seed, 1),
                ))
                .link(DropLink::new(0.3).with_jitter(2))
                .trace(tracer.clone())
                .run_oblivious(
                    PeriodicRewiring::new(Topology::RandomTree, 3, derive_seed(seed, 2)),
                    DropLink::new(0.3).with_jitter(2),
                    &cfg,
                    None,
                );
        }
        other => unreachable!("unknown arm {other}"),
    }
    tracer.take_jsonl()
}

const TRACE_ARMS: [&str; 6] = [
    "flooding",
    "single-source",
    "multi-source",
    "async-single-source",
    "faulted-async-single-source",
    "async-oblivious",
];

#[test]
fn trace_jsonl_is_byte_identical_under_replay_for_every_arm() {
    for arm in TRACE_ARMS {
        let first = trace_arm(arm, 41);
        let replay = trace_arm(arm, 41);
        assert!(!first.is_empty(), "{arm}: traced run emitted nothing");
        assert!(first.ends_with('\n'), "{arm}: trace is not line-terminated");
        if let Some(div) = dynspread::analysis::first_divergence(&first, &replay) {
            panic!("{arm}: same-seed traces diverged\n{div}");
        }
        // Every line round-trips through the record parser.
        let counts = dynspread::analysis::kind_counts(&first);
        assert!(
            !counts.contains_key("invalid"),
            "{arm}: unparseable trace lines: {counts:?}"
        );
        if arm == "faulted-async-single-source" {
            // The fault plan's whole repertoire made it onto the stream.
            for kind in ["crash", "recover", "part", "heal"] {
                assert!(
                    counts.contains_key(kind),
                    "{arm}: no {kind} records: {counts:?}"
                );
            }
        }
        // The trace is seed-sensitive, not constant.
        let other = trace_arm(arm, 42);
        assert_ne!(first, other, "{arm}: trace ignores its seed");
    }
}

/// Byte length and FNV-1a hash of each arm's JSONL trace at seed 41. The
/// replay test above compares a run with itself; these pin the bytes, so
/// a change to the writer (field order, digit formatting, a tag) or to
/// the engines' event order fails here even when it is deterministic.
const TRACE_PINS: [(&str, usize, u64); 6] = [
    ("flooding", 150_006, 0xbca5_b259_b8bb_50ac),
    ("single-source", 59_215, 0xa041_d67c_fdb5_8946),
    ("multi-source", 117_811, 0x1f9c_55b1_4eb3_036f),
    ("async-single-source", 81_059, 0x2d93_1aba_553d_22eb),
    (
        "faulted-async-single-source",
        107_593,
        0xe1ac_c9ec_308f_239f,
    ),
    ("async-oblivious", 489_718, 0x6e2f_8f01_eb95_7d9f),
];

#[test]
fn trace_jsonl_bytes_are_pinned_for_every_arm() {
    use dynspread::runtime::byzantine::transcript::fnv1a;
    assert_eq!(TRACE_PINS.map(|(arm, ..)| arm), TRACE_ARMS);
    let got: Vec<(&str, usize, u64)> = TRACE_PINS
        .iter()
        .map(|&(arm, ..)| {
            let jsonl = trace_arm(arm, 41);
            (arm, jsonl.len(), fnv1a(jsonl.as_bytes()))
        })
        .collect();
    assert_eq!(got, TRACE_PINS, "trace bytes moved");
}
