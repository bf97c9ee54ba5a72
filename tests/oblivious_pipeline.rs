//! Integration tests of the full Oblivious-Multi-Source pipeline
//! (Algorithm 2): phase hand-off invariants, accounting conservation,
//! and end-to-end correctness — for both the round-based pipeline and
//! the asynchronous `Scenario::run_oblivious` port.

use dynspread::core::oblivious::{laptop_scale, run_oblivious_multi_source, ObliviousConfig};
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{EdgeMarkovian, PeriodicRewiring, StaticAdversary};
use dynspread::graph::Graph;
use dynspread::runtime::link::{DropLink, LinkModelExt, PerfectLink};
use dynspread::runtime::protocol::AsyncObliviousConfig;
use dynspread::runtime::Scenario;
use dynspread::sim::message::MessageClass;
use dynspread::sim::token::TokenSet;
use dynspread::sim::TokenAssignment;

fn two_phase_config(seed: u64) -> ObliviousConfig {
    ObliviousConfig {
        seed,
        source_threshold: Some(1.0), // force phase 1 at small scale
        center_probability: Some(0.25),
        ..ObliviousConfig::default()
    }
}

#[test]
fn pipeline_completes_on_n_gossip() {
    let n = 18;
    let assignment = TokenAssignment::n_gossip(n);
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.25), 3, 1),
        PeriodicRewiring::new(Topology::RandomTree, 3, 2),
        &two_phase_config(3),
    );
    assert!(out.completed(), "{}", out.phase2);
    assert!(out.phase1.is_some());
    assert_eq!(out.stranded_tokens, 0);
    // All centers are actual nodes; at least one exists.
    assert!(!out.centers.is_empty());
    assert!(out.centers.len() <= n);
}

#[test]
fn totals_are_sums_of_phases() {
    let n = 16;
    let assignment = TokenAssignment::round_robin_sources(n, 2 * n, n);
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.3), 3, 4),
        PeriodicRewiring::new(Topology::RandomTree, 3, 5),
        &two_phase_config(6),
    );
    assert!(out.completed());
    let p1 = out.phase1.as_ref().unwrap();
    assert_eq!(
        out.total_messages(),
        p1.total_messages + out.phase2.total_messages
    );
    assert_eq!(out.total_rounds(), p1.rounds + out.phase2.rounds);
    assert_eq!(out.total_tc(), p1.tc() + out.phase2.tc());
}

#[test]
fn phase_one_only_walks_and_announces() {
    let n = 16;
    let assignment = TokenAssignment::n_gossip(n);
    let out = run_oblivious_multi_source(
        &assignment,
        EdgeMarkovian::new(0.1, 0.2, 2, 7),
        PeriodicRewiring::new(Topology::RandomTree, 3, 8),
        &two_phase_config(9),
    );
    assert!(out.completed());
    let p1 = out.phase1.as_ref().unwrap();
    assert_eq!(p1.class(MessageClass::Request), 0);
    assert_eq!(p1.class(MessageClass::Completeness), 0);
    assert_eq!(
        p1.total_messages,
        p1.class(MessageClass::Walk) + p1.class(MessageClass::CenterAnnounce)
    );
    // Phase 2 never sends walk messages.
    assert_eq!(out.phase2.class(MessageClass::Walk), 0);
}

#[test]
fn direct_path_taken_for_few_sources() {
    let n = 16;
    let assignment = TokenAssignment::round_robin_sources(n, 8, 2);
    let out = run_oblivious_multi_source(
        &assignment,
        StaticAdversary::new(Graph::path(n)),
        PeriodicRewiring::new(Topology::RandomTree, 3, 10),
        &ObliviousConfig::default(), // paper threshold ≫ 2 sources
    );
    assert!(out.phase1.is_none());
    assert!(out.completed());
    assert_eq!(out.centers, assignment.sources());
}

/// Algorithm 2 at laptop scale, with `laptop_scale`'s three overrides
/// and every node a source: both engines run phase 1, elect the same
/// centers, a proper subset of at least two, and complete.
#[test]
fn laptop_scale_walks_to_the_same_centers_in_both_engines() {
    for n in [16, 64] {
        let assignment = TokenAssignment::n_gossip(n);
        let (threshold, p, gamma) = laptop_scale(n, n);
        for seed in 1..=3 {
            let tree = |s| PeriodicRewiring::new(Topology::RandomTree, 3, s);
            let cfg = ObliviousConfig {
                seed,
                source_threshold: Some(threshold),
                center_probability: Some(p),
                degree_threshold: Some(gamma),
                ..ObliviousConfig::default()
            };
            let sync = run_oblivious_multi_source(&assignment, tree(seed), tree(seed + 1), &cfg);
            let cfg = AsyncObliviousConfig {
                seed,
                source_threshold: Some(threshold),
                center_probability: Some(p),
                degree_threshold: Some(gamma),
                ..AsyncObliviousConfig::default()
            };
            let run = Scenario::from_assignment(assignment.clone())
                .topology(tree(seed))
                .run_oblivious(tree(seed + 1), PerfectLink, &cfg, None);
            let at = format!("n = {n}, seed {seed}");
            assert!(sync.phase1.is_some(), "{at}: sync phase 1 skipped");
            assert!(run.phase1.is_some(), "{at}: async phase 1 skipped");
            assert!(
                1 < sync.centers.len() && sync.centers.len() < n,
                "{at}: {} centers",
                sync.centers.len()
            );
            assert_eq!(run.centers, sync.centers, "{at}");
            assert!(sync.completed(), "{at}: {}", sync.phase2);
            assert!(run.completed, "{at}: {:?}", run.phase2);
        }
    }
}

#[test]
fn stranded_tokens_become_fallback_sources() {
    // Phase 1 capped at 1 round: almost every token is still in transit;
    // the pipeline must still complete via fallback sources.
    let n = 14;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = ObliviousConfig {
        seed: 11,
        source_threshold: Some(1.0),
        center_probability: Some(0.2),
        phase1_max_rounds: 1,
        ..ObliviousConfig::default()
    };
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.3), 3, 12),
        PeriodicRewiring::new(Topology::RandomTree, 3, 13),
        &cfg,
    );
    assert!(out.completed(), "{}", out.phase2);
    assert!(
        out.stranded_tokens > 0,
        "with a 1-round phase 1 some tokens must be stranded"
    );
}

fn async_two_phase_config(seed: u64) -> AsyncObliviousConfig {
    AsyncObliviousConfig {
        seed,
        source_threshold: Some(1.0), // force phase 1 at small scale
        center_probability: Some(0.25),
        phase1_deadline: 20_000,
        phase1_max_time: 50_000,
        ..AsyncObliviousConfig::default()
    }
}

#[test]
fn async_pipeline_completes_on_n_gossip_over_lossy_links() {
    let n = 18;
    let assignment = TokenAssignment::n_gossip(n);
    let out = Scenario::from_assignment(assignment)
        .topology(PeriodicRewiring::new(Topology::Gnp(0.25), 3, 1))
        .link(DropLink::new(0.3).with_jitter(2))
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 2),
            DropLink::new(0.3).with_jitter(2),
            &async_two_phase_config(3),
            None,
        );
    assert!(out.completed, "{:?}", out.phase2);
    assert!(out.phase1.is_some());
    assert!(!out.centers.is_empty());
    assert!(out.centers.len() <= n);
    assert!(out.final_knowledge.iter().all(TokenSet::is_full));
}

#[test]
fn async_hand_off_conserves_ownership() {
    // Every token has exactly one phase-2 source, every source is a
    // claimant from phase 1, and the stranded count is the non-center
    // owners — the hand-off invariants behind the SourceMap construction.
    let n = 16;
    let assignment = TokenAssignment::n_gossip(n);
    let out = Scenario::from_assignment(assignment)
        .topology(EdgeMarkovian::new(0.1, 0.2, 2, 7))
        .link(DropLink::new(0.2))
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 8),
            PerfectLink,
            &async_two_phase_config(9),
            None,
        );
    assert!(out.completed);
    assert!(!out.sources.is_empty());
    assert!(out.sources.len() <= n, "at most one source per node");
    assert!(out.stranded_tokens <= n, "stranded bounded by k");
    let centers: std::collections::BTreeSet<_> = out.centers.iter().collect();
    if out.stranded_tokens == 0 {
        assert!(
            out.sources.iter().all(|s| centers.contains(s)),
            "no stranding ⇒ every source is a center"
        );
    }
}

#[test]
fn async_deadline_fallback_still_completes() {
    // A 2-tick phase-1 deadline freezes nearly every walk mid-flight;
    // the frozen owners must become fallback sources and phase 2 must
    // still reach full dissemination — the async analogue of the sync
    // `stranded_tokens_become_fallback_sources` test.
    let n = 14;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        phase1_deadline: 2,
        phase1_max_time: 1_000,
        ..async_two_phase_config(11)
    };
    let out = Scenario::from_assignment(assignment)
        .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 12))
        .link(PerfectLink)
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 13),
            PerfectLink,
            &cfg,
            None,
        );
    assert!(out.completed, "{:?}", out.phase2);
    assert!(
        out.stranded_tokens > 0,
        "with a 2-tick phase 1 some tokens must be stranded"
    );
    assert!(out.final_knowledge.iter().all(TokenSet::is_full));
}

#[test]
fn async_direct_path_taken_for_few_sources() {
    let n = 16;
    let assignment = TokenAssignment::round_robin_sources(n, 8, 2);
    let out = Scenario::from_assignment(assignment.clone())
        .topology(StaticAdversary::new(Graph::path(n)))
        .link(PerfectLink)
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 10),
            PerfectLink,
            &AsyncObliviousConfig::default(),
            None,
        );
    assert!(out.phase1.is_none());
    assert!(out.completed);
    assert_eq!(out.centers, assignment.sources());
    assert_eq!(out.sources, assignment.sources());
}

#[test]
fn every_node_knows_every_token_at_the_end() {
    let n = 15;
    let k = 15;
    let assignment = TokenAssignment::n_gossip(n);
    let _ = k;
    let out = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.3), 3, 14),
        PeriodicRewiring::new(Topology::RandomTree, 3, 15),
        &two_phase_config(16),
    );
    assert!(out.completed());
    // learnings in phase1 + phase2 = nk − k (initial holders know theirs).
    let p1 = out.phase1.as_ref().unwrap();
    assert_eq!(p1.learnings + out.phase2.learnings, (n * n - n) as u64);
}

#[test]
fn forged_transfer_acks_cannot_destroy_honest_ownership() {
    // Regression for the Byzantine hand-off: a `ForgeTransfers` node
    // acks walk transfers it never applies, convincing honest senders
    // that ownership moved and destroying the token's last claimant.
    // The Byzantine driver's hand-off must recover every such token
    // from its original holder (never panic), end with all k tokens
    // owned by someone, and the auditor must pin each destroyed token
    // on the thief.
    use dynspread::runtime::byzantine::{MisbehaviorKind, MisbehaviorPlan, Violation};
    let n = 14;
    let assignment = TokenAssignment::n_gossip(n);
    let plan = MisbehaviorPlan::with_kinds(n, 0.25, &[MisbehaviorKind::ForgeTransfers], 21);
    assert!(plan.byzantine_nodes() >= 2);
    let out = Scenario::from_assignment(assignment)
        .topology(StaticAdversary::new(Graph::complete(n)))
        .link(DropLink::new(0.1).with_jitter(1))
        .byzantine(plan.clone())
        .run_oblivious(
            PeriodicRewiring::new(Topology::RandomTree, 3, 22),
            DropLink::new(0.1).with_jitter(1),
            &async_two_phase_config(21),
            None,
        );
    // The honest runner would panic on a destroyed claimant; the
    // Byzantine driver recovers instead, and the thefts are convicted.
    assert!(out.injected > 0, "planted thieves never stole anything");
    assert!(
        out.stolen_recovered > 0,
        "forged acks should have destroyed at least one claimant"
    );
    let thefts: Vec<_> = out
        .evidence
        .iter()
        .filter(|e| matches!(e.violation, Violation::TransferTheft { .. }))
        .collect();
    assert!(
        thefts.len() >= out.stolen_recovered,
        "every recovered token needs a convicted thief: {} recovered, {:?}",
        out.stolen_recovered,
        out.evidence
    );
    for e in &out.evidence {
        assert!(
            plan.is_malicious(e.culprit),
            "honest {} indicted",
            e.culprit
        );
    }
    // Conservation restored: phase 2 disseminates everything.
    assert!(out.completed, "{:?}", out.phase2);
    assert_eq!(out.honest_coverage, 1.0);
}
