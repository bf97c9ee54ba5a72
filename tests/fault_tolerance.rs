//! Fault-tolerance acceptance tests for the crash/recovery/partition
//! subsystem (`runtime::faults`).
//!
//! The headline contract: every async protocol reaches full
//! dissemination under 20% crash-recovery faults, one partition/heal
//! cycle, and a 30% lossy link — and the whole faulted execution is a
//! pure function of its seeds (byte-identical replay). Conversely, a
//! fault-free [`FaultPlan`] must be invisible: report, learning log,
//! and JSONL trace all match the unfaulted run byte for byte.

use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{EdgeMarkovian, PeriodicRewiring, StaticAdversary};
use dynspread::graph::{Graph, NodeId};
use dynspread::runtime::engine::EventSim;
use dynspread::runtime::faults::{FaultPlan, PartitionLink, RecoveryMode};
use dynspread::runtime::link::{DropLink, LinkModelExt};
use dynspread::runtime::protocol::{AsyncConfig, AsyncObliviousConfig, AsyncSingleSource};
use dynspread::runtime::trace::JsonlTracer;
use dynspread::runtime::Scenario;
use dynspread::sim::TokenAssignment;
use dynspread_bench::derive_seed;
use std::sync::Arc;

/// 20% crash-recovery + one partition/heal episode. All crashes land in
/// the first 30 ticks — well before any node can have collected a full
/// token set under 30% loss — so the down (and therefore incomplete)
/// nodes are guaranteed to hold the run open until every planned
/// recovery has fired and the counters read exactly what was planted.
fn acceptance_plan(n: usize, mode: RecoveryMode, seed: u64) -> FaultPlan {
    FaultPlan::crash_recovery(n, 0.2, 30, 100, mode, seed).with_random_partition(20, 400)
}

#[test]
fn single_source_self_heals_under_the_acceptance_faults() {
    let n = 16usize;
    let assignment = TokenAssignment::single_source(n, 10, NodeId::new(0));
    let plan = acceptance_plan(n, RecoveryMode::Amnesia, 11);
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 12))
            .link(DropLink::new(0.3).with_jitter(2))
            .seed(13)
            .faults(plan.clone())
            .max_time(2_000_000)
            .run_single_source()
    };
    let out = run();
    assert!(out.completed, "{}", out.report);
    assert_eq!(out.report.crashes, 3, "20% of 16 nodes");
    assert_eq!(out.report.recoveries, 3);
    assert_eq!(out.report.partition_episodes, 1);
    assert_eq!(out.live_coverage, 1.0);
    // Nonzero counters surface in the human-readable report.
    assert!(format!("{}", out.report).contains("faults:"));
    // Seeded replay is byte-identical, faults and all.
    let again = run();
    assert_eq!(format!("{:?}", out.event), format!("{:?}", again.event));
    assert_eq!(format!("{:?}", out.report), format!("{:?}", again.report));
}

#[test]
fn multi_source_self_heals_under_the_acceptance_faults() {
    let n = 16usize;
    let assignment = TokenAssignment::round_robin_sources(n, 12, 4);
    // Durable snapshots: recovered nodes keep their ledgers and window.
    let plan = acceptance_plan(n, RecoveryMode::DurableSnapshot, 21);
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(EdgeMarkovian::new(0.08, 0.2, 2, 22))
            .link(DropLink::new(0.3).with_jitter(2))
            .seed(23)
            .faults(plan.clone())
            .max_time(2_000_000)
            .run_multi_source()
    };
    let out = run();
    assert!(out.completed, "{}", out.report);
    assert_eq!(out.report.crashes, 3);
    assert_eq!(out.report.recoveries, 3);
    assert_eq!(out.report.partition_episodes, 1);
    assert_eq!(out.live_coverage, 1.0);
    let again = run();
    assert_eq!(format!("{:?}", out.event), format!("{:?}", again.event));
    assert_eq!(format!("{:?}", out.report), format!("{:?}", again.report));
}

#[test]
fn oblivious_self_heals_with_both_phases_faulted() {
    let n = 12usize;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        seed: 31,
        source_threshold: Some(1.0),
        center_probability: Some(0.25),
        phase1_deadline: 20_000,
        phase1_max_time: 50_000,
        ..AsyncObliviousConfig::default()
    };
    let plan1 = acceptance_plan(n, RecoveryMode::Amnesia, 32);
    let plan2 = acceptance_plan(n, RecoveryMode::DurableSnapshot, 33);
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(DropLink::new(0.3).with_jitter(2))
            .faults(plan1.clone())
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, 34),
                DropLink::new(0.3).with_jitter(2),
                &cfg,
                Some(&plan2),
            )
    };
    let out = run();
    assert!(out.completed, "{}", out.report);
    // Both phase clocks see their own plan: 2×2 crashes, 2 episodes.
    assert_eq!(out.report.crashes, 4);
    assert_eq!(out.report.recoveries, 4);
    assert_eq!(out.report.partition_episodes, 2);
    assert_eq!(out.live_coverage, 1.0);
    let again = run();
    assert_eq!(format!("{:?}", out.report), format!("{:?}", again.report));
    assert_eq!(format!("{:?}", out.phase2), format!("{:?}", again.phase2));
    assert_eq!(out.crash_reclaimed, again.crash_reclaimed);
    assert_eq!(out.stranded_tokens, again.stranded_tokens);
}

/// A fault-free plan must be a perfect no-op: wiring the engine and the
/// link through the fault machinery with zero faults leaves the event
/// report, the workspace report, the learning log, and the JSONL trace
/// byte-identical to a run that never heard of faults.
#[test]
fn a_fault_free_plan_is_invisible_end_to_end() {
    let n = 12usize;
    let assignment = TokenAssignment::single_source(n, 8, NodeId::new(0));
    // The two sims differ only in their link/plan wiring, so the
    // shared tail (run + fingerprint) is generic over the link model.
    fn finish<L: dynspread::runtime::link::LinkModel>(
        mut sim: EventSim<AsyncSingleSource, EdgeMarkovian, L>,
        tracer: JsonlTracer,
    ) -> String {
        sim.set_tracer(tracer.clone());
        let event = sim.run(2_000_000);
        let report = sim.run_report("fault-free-twin");
        assert_eq!(report.crashes, 0);
        assert_eq!(report.recoveries, 0);
        assert_eq!(report.partition_episodes, 0);
        assert!(!format!("{report}").contains("faults:"));
        let log = format!("{:?}", sim.tracker().expect("tracking enabled").log());
        format!("{event:?}\n{report:?}\n{log}\n{}", tracer.take_jsonl())
    }
    let faulted = {
        let plan = FaultPlan::none(n);
        let mut sim = EventSim::with_tracking(
            AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
            EdgeMarkovian::new(0.08, 0.2, 2, 41),
            PartitionLink::new(DropLink::new(0.25).with_jitter(2), Arc::new(plan.clone())),
            2,
            derive_seed(41, 0x42),
            &assignment,
        );
        sim.set_fault_plan(plan);
        finish(sim, JsonlTracer::default())
    };
    let plain = finish(
        EventSim::with_tracking(
            AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
            EdgeMarkovian::new(0.08, 0.2, 2, 41),
            DropLink::new(0.25).with_jitter(2),
            2,
            derive_seed(41, 0x42),
            &assignment,
        ),
        JsonlTracer::default(),
    );
    assert_eq!(faulted, plain);
}
