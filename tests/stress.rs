//! Large-scale stress runs (ignored by default — run with
//! `cargo test --release -- --ignored`).

use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::graph::NodeId;
use dynspread::sim::{SimConfig, TokenAssignment, UnicastSim};

#[test]
#[ignore = "large-scale run; use --release"]
fn single_source_at_scale() {
    let (n, k) = (96usize, 192usize);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let mut sim = UnicastSim::new(
        "ss-scale",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 1),
        &assignment,
        SimConfig::with_max_rounds(10_000_000),
    );
    let report = sim.run_to_completion();
    assert!(report.completed, "{report}");
    assert!(report.competitive_residual(1.0) <= 4.0 * ((n * n + n * k) as f64));
    assert!(report.rounds <= (8 * n * k) as u64);
}

#[test]
#[ignore = "large-scale run; use --release"]
fn multi_source_at_scale() {
    let (n, k, s) = (64usize, 128usize, 16usize);
    let assignment = TokenAssignment::round_robin_sources(n, k, s);
    let (nodes, _map) = MultiSourceNode::nodes(&assignment);
    let mut sim = UnicastSim::new(
        "ms-scale",
        nodes,
        PeriodicRewiring::new(Topology::RandomTree, 3, 2),
        &assignment,
        SimConfig::with_max_rounds(10_000_000),
    );
    let report = sim.run_to_completion();
    assert!(report.completed, "{report}");
    assert!(report.competitive_residual(1.0) <= 4.0 * ((n * n * s + n * k) as f64));
}

#[test]
#[ignore = "large-scale run; use --release"]
fn n_gossip_at_scale_with_the_oblivious_algorithm() {
    use dynspread::core::oblivious::{run_oblivious_multi_source, ObliviousConfig};
    let n = 64usize;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = ObliviousConfig {
        seed: 3,
        source_threshold: Some((n as f64).powf(2.0 / 3.0)),
        center_probability: Some(0.25),
        ..ObliviousConfig::default()
    };
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.15), 3, 4),
        PeriodicRewiring::new(Topology::RandomTree, 3, 5),
        &cfg,
    );
    assert!(out.completed());
    assert!(out.centers.len() < n);
}

#[test]
#[ignore = "large-scale run; use --release"]
fn fault_stress_self_healing_at_scale() {
    // 40-node runs of all three async protocols under a hostile link
    // (30% drop + duplication + jitter) with 15% of the nodes going
    // through crash-recovery (amnesia) and one partition/heal episode.
    // Every protocol must still reach full dissemination — the recovery
    // and heal hooks resynchronize the rejoining nodes — ownership must
    // be conserved through the oblivious hand-off (the driver panics if
    // a token loses its last claimant), and the most complex pipeline
    // must replay byte-identically from its seeds.
    use dynspread::graph::oblivious::StaticAdversary;
    use dynspread::graph::Graph;
    use dynspread::runtime::faults::{FaultPlan, RecoveryMode};
    use dynspread::runtime::link::{DropLink, LinkModelExt};
    use dynspread::runtime::protocol::AsyncObliviousConfig;
    use dynspread::runtime::Scenario;

    let n = 40usize;
    let link = || DropLink::new(0.3).duplicating(0.3).with_jitter(2);
    let plan = || {
        FaultPlan::crash_recovery(n, 0.15, 2_000, 3_000, RecoveryMode::Amnesia, 81)
            .with_random_partition(1_000, 5_000)
    };
    assert_eq!(plan().crashed_nodes().count(), 6, "15% of 40 nodes");

    let ss_assignment = TokenAssignment::single_source(n, 40, NodeId::new(0));
    let ss = Scenario::from_assignment(ss_assignment)
        .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 82))
        .link(link())
        .seed(83)
        .faults(plan())
        .max_time(10_000_000)
        .run_single_source();
    assert!(ss.completed, "single-source: {}", ss.report);
    assert_eq!(ss.report.crashes, 6);
    assert_eq!(ss.report.recoveries, 6);
    assert_eq!(ss.report.partition_episodes, 1);

    let ms_assignment = TokenAssignment::round_robin_sources(n, 40, 8);
    let ms = Scenario::from_assignment(ms_assignment)
        .topology(PeriodicRewiring::new(Topology::RandomTree, 3, 84))
        .link(link())
        .seed(85)
        .faults(plan())
        .max_time(10_000_000)
        .run_multi_source();
    assert!(ms.completed, "multi-source: {}", ms.report);
    assert_eq!(ms.report.crashes, 6);

    let obl_assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        seed: 86,
        source_threshold: Some(1.0),
        center_probability: Some(0.2),
        phase1_deadline: 30_000,
        phase1_max_time: 80_000,
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        Scenario::from_assignment(obl_assignment.clone())
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .faults(plan())
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, 87),
                link(),
                &cfg,
                Some(&plan()),
            )
    };
    let obl = run();
    assert!(obl.completed, "oblivious: {}", obl.report);
    assert_eq!(obl.report.crashes, 12, "six per phase");
    assert_eq!(obl.report.partition_episodes, 2);
    let again = run();
    assert_eq!(format!("{:?}", obl.report), format!("{:?}", again.report));
    assert_eq!(obl.crash_reclaimed, again.crash_reclaimed);
    assert_eq!(obl.stranded_tokens, again.stranded_tokens);
}

#[test]
#[ignore = "large-scale run; use --release"]
fn byzantine_stress_soundness_at_scale() {
    // 40-node gossip under a hostile link (30% drop + duplication +
    // jitter) with 15% of the nodes malicious, cycling through every
    // misbehavior kind. The auditor must stay sound at scale (only
    // planted nodes indicted), every token must end phase 1 with an
    // owner (theft recovered, not destroyed), and the whole run —
    // verdicts included — must be byte-identical under seeded replay.
    use dynspread::graph::oblivious::StaticAdversary;
    use dynspread::graph::Graph;
    use dynspread::runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan};
    use dynspread::runtime::link::{DropLink, LinkModelExt};
    use dynspread::runtime::protocol::AsyncObliviousConfig;
    use dynspread::runtime::Scenario;

    let n = 40usize;
    let assignment = TokenAssignment::n_gossip(n);
    let plan = MisbehaviorPlan::with_kinds(n, 0.15, &MisbehaviorKind::ALL, 77);
    assert!(plan.byzantine_nodes() == 6);
    let cfg = AsyncObliviousConfig {
        seed: 77,
        source_threshold: Some(1.0),
        center_probability: Some(0.2),
        phase1_deadline: 30_000,
        phase1_max_time: 80_000,
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(DropLink::new(0.3).duplicating(0.3).with_jitter(2))
            .byzantine(plan.clone())
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, 78),
                DropLink::new(0.3).duplicating(0.3).with_jitter(2),
                &cfg,
                None,
            )
    };
    let out = run();
    assert!(out.injected > 0, "six malicious nodes never misbehaved");
    assert!(
        !out.evidence.is_empty(),
        "misbehavior at this scale must leave evidence"
    );
    for e in &out.evidence {
        assert!(
            plan.is_malicious(e.culprit),
            "honest {} indicted: {e:?}",
            e.culprit
        );
    }
    // Degradation is measured, not fatal: honest nodes keep most of the
    // token universe even under 15% malicious + 30% loss.
    assert!(
        out.honest_coverage > 0.5,
        "honest coverage collapsed: {}",
        out.honest_coverage
    );
    // Byte-identical replay, verdicts and all.
    let again = run();
    assert_eq!(
        format!("{:?}", out.evidence),
        format!("{:?}", again.evidence)
    );
    assert_eq!(format!("{:?}", out.report), format!("{:?}", again.report));
}
