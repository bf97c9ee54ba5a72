//! Property tests of the accountability auditor's two contracts:
//!
//! * **Soundness** — an honest node is never indicted: honest runs
//!   produce zero evidence, and in mixed runs every culprit is one of
//!   the plan's malicious nodes, across all three async protocols and
//!   arbitrary drop/duplication/jitter.
//! * **Completeness** — planted misbehavior that actually injects is
//!   always pinned to the planted culprit (every injected false claim or
//!   replayed transfer is on the culprit's own transcript, which is all
//!   the auditor needs).
//! * **Determinism** — verdicts are byte-identical under seeded replay.

use dynspread_core::walk::elect_centers;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
use dynspread_graph::{Graph, NodeId};
use dynspread_runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan, Violation};
use dynspread_runtime::link::{DropLink, LinkModelExt};
use dynspread_runtime::protocol::AsyncObliviousConfig;
use dynspread_runtime::scenario::Scenario;
use dynspread_sim::token::TokenAssignment;
use proptest::prelude::*;

/// Two-phase config forcing the walk phase at test scales.
fn two_phase_config(seed: u64) -> AsyncObliviousConfig {
    AsyncObliviousConfig {
        seed,
        source_threshold: Some(1.0),
        center_probability: Some(0.25),
        phase1_deadline: 20_000,
        phase1_max_time: 50_000,
        ..AsyncObliviousConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Honest runs of all three protocols yield zero evidence, whatever
    /// the link does.
    #[test]
    fn auditor_is_sound_on_honest_runs(
        n in 6usize..11,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let link = || DropLink::new(drop).duplicating(dup).with_jitter(2);
        let plan = MisbehaviorPlan::honest(n);

        let ss = TokenAssignment::single_source(n, 4, NodeId::new(0));
        let out = Scenario::from_assignment(ss)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .seed(seed)
            .byzantine(plan.clone())
            .max_time(200_000)
            .run_single_source();
        prop_assert!(out.evidence.is_empty(), "ss honest indicted: {:?}", out.evidence);
        prop_assert_eq!(out.report.byzantine_nodes, 0);
        prop_assert_eq!(out.report.violations_detected, 0);

        let ms = TokenAssignment::round_robin_sources(n, 6, 3);
        let out = Scenario::from_assignment(ms)
            .topology(PeriodicRewiring::new(Topology::Gnp(0.5), 3, seed ^ 1))
            .link(link())
            .seed(seed)
            .byzantine(plan.clone())
            .max_time(200_000)
            .run_multi_source();
        prop_assert!(out.evidence.is_empty(), "ms honest indicted: {:?}", out.evidence);

        let obl = TokenAssignment::n_gossip(n);
        let out = Scenario::from_assignment(obl)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .byzantine(plan)
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, seed ^ 2),
                link(),
                &two_phase_config(seed),
                None,
            );
        prop_assert!(out.evidence.is_empty(), "obl honest indicted: {:?}", out.evidence);
        prop_assert_eq!(out.stolen_recovered, 0, "honest runs never take the fallback");
    }

    /// In mixed runs — every misbehavior kind present — the auditor only
    /// ever indicts nodes the plan marked malicious.
    #[test]
    fn auditor_never_indicts_an_honest_node(
        n in 8usize..12,
        fraction in 0.2f64..0.45,
        drop in 0.0f64..0.3,
        seed in 0u64..1_000,
    ) {
        let link = || DropLink::new(drop).duplicating(0.2).with_jitter(2);
        let plan = MisbehaviorPlan::with_kinds(n, fraction, &MisbehaviorKind::ALL, seed);
        prop_assert!(plan.byzantine_nodes() >= 1);

        let ss = TokenAssignment::single_source(n, 5, NodeId::new(0));
        let out = Scenario::from_assignment(ss)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .seed(seed)
            .byzantine(plan.clone())
            .max_time(200_000)
            .run_single_source();
        for e in &out.evidence {
            prop_assert!(plan.is_malicious(e.culprit), "honest {} indicted: {:?}", e.culprit, e);
        }

        let ms = TokenAssignment::round_robin_sources(n, 6, 3);
        let out = Scenario::from_assignment(ms)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .seed(seed)
            .byzantine(plan.clone())
            .max_time(200_000)
            .run_multi_source();
        for e in &out.evidence {
            prop_assert!(plan.is_malicious(e.culprit), "honest {} indicted: {:?}", e.culprit, e);
        }

        let obl = TokenAssignment::n_gossip(n);
        let out = Scenario::from_assignment(obl)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(link())
            .byzantine(plan.clone())
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, seed ^ 2),
                link(),
                &two_phase_config(seed),
                None,
            );
        for e in &out.evidence {
            prop_assert!(plan.is_malicious(e.culprit), "honest {} indicted: {:?}", e.culprit, e);
        }
    }

    /// Every *injected* false completeness claim is on the culprit's own
    /// transcript, so injection implies indictment of exactly that node.
    #[test]
    fn planted_false_claims_are_always_pinned(
        seed in 0u64..1_000,
        drop in 0.0f64..0.3,
    ) {
        let n = 8;
        let culprit = NodeId::new(3); // not the source: starts incomplete
        let assignment = TokenAssignment::single_source(n, 6, NodeId::new(0));
        let plan = MisbehaviorPlan::plant(n, culprit, MisbehaviorKind::FalseClaims, seed);
        let out = Scenario::from_assignment(assignment)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(DropLink::new(drop).with_jitter(1))
            .seed(seed)
            .byzantine(plan)
            .max_time(200_000)
            .run_single_source();
        if out.injected > 0 {
            prop_assert!(
                out.evidence.iter().any(|e| e.culprit == culprit
                    && matches!(e.violation, Violation::FalseCompleteness { .. })),
                "{} injected claims, no indictment: {:?}",
                out.injected,
                out.evidence
            );
        }
        for e in &out.evidence {
            prop_assert_eq!(e.culprit, culprit);
        }
    }

    /// Same for planted transfer replay/equivocation in the walk phase.
    #[test]
    fn planted_replay_is_always_pinned(seed in 0u64..1_000) {
        let n = 10;
        let assignment = TokenAssignment::n_gossip(n);
        let cfg = two_phase_config(seed);
        // Plant on a non-center so the node actually walks (centers hold).
        let centers = elect_centers(n, 0.25, seed);
        let culprit = NodeId::all(n)
            .find(|v| !centers[v.index()])
            .expect("p=0.25 never elects everyone at n=10");
        let plan = MisbehaviorPlan::plant(n, culprit, MisbehaviorKind::SeqReplay, seed);
        let out = Scenario::from_assignment(assignment)
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(DropLink::new(0.2).with_jitter(1))
            .byzantine(plan)
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, seed ^ 2),
                DropLink::new(0.2).with_jitter(1),
                &cfg,
                None,
            );
        if out.injected > 0 {
            prop_assert!(
                out.evidence.iter().any(|e| e.culprit == culprit
                    && matches!(
                        e.violation,
                        Violation::Equivocation { .. } | Violation::SeqReplay { .. }
                    )),
                "{} injected replays, no indictment: {:?}",
                out.injected,
                out.evidence
            );
        }
        for e in &out.evidence {
            prop_assert_eq!(e.culprit, culprit);
        }
    }
}

/// Fixed-seed smoke: the planted attacks actually fire (the conditional
/// proptests above are vacuous if injection never happens).
#[test]
fn planted_attacks_inject_and_convict() {
    let n = 8;
    let assignment = TokenAssignment::single_source(n, 6, NodeId::new(0));
    let culprit = NodeId::new(3);
    let plan = MisbehaviorPlan::plant(n, culprit, MisbehaviorKind::FalseClaims, 11);
    let out = Scenario::from_assignment(assignment)
        .topology(StaticAdversary::new(Graph::complete(n)))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(11)
        .byzantine(plan)
        .max_time(200_000)
        .run_single_source();
    assert!(out.injected > 0, "planted false-claimer never fired");
    assert!(
        out.evidence
            .iter()
            .any(|e| e.culprit == culprit
                && matches!(e.violation, Violation::FalseCompleteness { .. })),
        "no conviction: {:?}",
        out.evidence
    );
    assert_eq!(out.report.byzantine_nodes, 1);
    assert!(out.report.violations_detected >= 1);
    assert_eq!(out.report.evidence_verdicts, 1);
}

/// A false center claim is convicted from the election flags alone.
#[test]
fn false_center_claim_is_convicted() {
    let n = 10;
    let assignment = TokenAssignment::n_gossip(n);
    let mut cfg = two_phase_config(5);
    cfg.center_probability = Some(0.0); // nobody is a real center
    let culprit = NodeId::new(4);
    let plan = MisbehaviorPlan::plant(n, culprit, MisbehaviorKind::FalseClaims, 5);
    let out = Scenario::from_assignment(assignment)
        .topology(StaticAdversary::new(Graph::complete(n)))
        .link(DropLink::new(0.1).with_jitter(1))
        .byzantine(plan)
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 7),
            DropLink::new(0.1).with_jitter(1),
            &cfg,
            None,
        );
    assert!(out.injected > 0, "planted false center never announced");
    assert!(
        out.evidence
            .iter()
            .any(|e| e.culprit == culprit && e.violation == Violation::FalseCenterClaim),
        "no conviction: {:?}",
        out.evidence
    );
    for e in &out.evidence {
        assert_eq!(e.culprit, culprit, "honest node indicted: {e:?}");
    }
}

/// Verdicts are byte-identical under seeded replay, misbehavior and all.
#[test]
fn verdicts_are_replay_identical() {
    let n = 10;
    let assignment = TokenAssignment::n_gossip(n);
    let plan = MisbehaviorPlan::with_kinds(n, 0.3, &MisbehaviorKind::ALL, 29);
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(StaticAdversary::new(Graph::complete(n)))
            .link(DropLink::new(0.25).duplicating(0.2).with_jitter(2))
            .byzantine(plan.clone())
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, 31),
                DropLink::new(0.25).duplicating(0.2).with_jitter(2),
                &two_phase_config(29),
                None,
            )
    };
    let (a, b) = (run(), run());
    assert_eq!(
        format!("{:?}", a.evidence),
        format!("{:?}", b.evidence),
        "verdicts must be byte-identical"
    );
    assert_eq!(format!("{:?}", a.report), format!("{:?}", b.report));
    assert_eq!(a.injected, b.injected);
    assert_eq!(a.stolen_recovered, b.stolen_recovered);
}
