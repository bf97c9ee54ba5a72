//! The [`Scenario`] builder against hand-built raw-engine twins.
//!
//! Each *twin* below spells one run out by hand — a raw `EventSim`, the
//! raw link (wrapped in `PartitionLink` only where a fault plan is in
//! play), nodes wrapped only where a Byzantine plan is, a hand-rolled
//! hand-off — and the builder's outcome must match it `Debug` byte for
//! byte: reports, event reports, evidence, coverage bits, hand-off
//! counters, trace text. The twins are the builder's reference
//! implementation: any drift in its always-arm-every-axis strategy
//! (empty `FaultPlan` / honest `MisbehaviorPlan` as pass-throughs), in
//! its engine seeds, or in where it stitches the phase records breaks
//! these first.
//!
//! The twins started life as the bodies of the per-axis `run_*` drivers
//! the builder replaced.

use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::graph::NodeId;
use dynspread::runtime::byzantine::{
    check_evidence, AuditSetup, Evidence, MisbehaviorKind, MisbehaviorPlan,
};
use dynspread::runtime::engine::{EventSim, StopReason};
use dynspread::runtime::faults::{FaultPlan, PartitionLink, RecoveryMode};
use dynspread::runtime::link::{DropLink, LinkModelExt};
use dynspread::runtime::protocol::{
    AsyncConfig, AsyncMultiSource, AsyncObliviousConfig, AsyncSingleSource,
};
use dynspread::runtime::trace::JsonlTracer;
use dynspread::runtime::Scenario;
use dynspread::sim::token::{TokenAssignment, TokenSet};
use dynspread::sim::RunReport;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The twins' own coverage measure, independent of `faults::coverage_over`.
fn coverage<'a>(
    k: usize,
    knowledge: impl Iterator<Item = &'a TokenSet>,
    mut include: impl FnMut(NodeId) -> bool,
) -> f64 {
    let mut sum = 0.0;
    let mut picked = 0usize;
    for (i, know) in knowledge.enumerate() {
        if include(NodeId::new(i as u32)) {
            sum += know.count() as f64 / k.max(1) as f64;
            picked += 1;
        }
    }
    if picked == 0 {
        1.0
    } else {
        sum / picked as f64
    }
}

/// The twins' own Byzantine report stamping.
fn stamp(report: &mut RunReport, plan: &MisbehaviorPlan, evidence: &[Evidence]) {
    report.byzantine_nodes = plan.byzantine_nodes();
    report.violations_detected = evidence.len() as u64;
    report.evidence_verdicts = evidence
        .iter()
        .map(|e| e.culprit)
        .collect::<BTreeSet<_>>()
        .len() as u64;
}

fn adversary(epoch: u64, seed: u64) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, epoch, seed)
}

#[test]
fn faulty_single_source_matches_the_raw_engine_twin_byte_for_byte() {
    let n = 14usize;
    let assignment = TokenAssignment::single_source(n, 8, NodeId::new(0));
    let plan = FaultPlan::crash_recovery(n, 0.2, 30, 120, RecoveryMode::Amnesia, 5)
        .with_random_partition(40, 300);
    let cfg = AsyncConfig::default();

    let new = Scenario::from_assignment(assignment.clone())
        .topology(adversary(3, 7))
        .link(DropLink::new(0.3).with_jitter(2))
        .seed(11)
        .retransmit(cfg)
        .faults(plan.clone())
        .max_time(2_000_000)
        .name("faulty-async-single-source")
        .run_single_source();

    // The twin: raw tracking engine + PartitionLink + plan.
    let nodes = AsyncSingleSource::nodes(&assignment, cfg);
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary(3, 7),
        PartitionLink::new(DropLink::new(0.3).with_jitter(2), Arc::new(plan.clone())),
        2,
        11,
        &assignment,
    );
    sim.set_fault_plan(plan.clone());
    let event = sim.run(2_000_000);
    let report = sim.run_report("faulty-async-single-source");
    let tracker = sim.tracker().expect("tracking enabled");
    let live_coverage = coverage(
        assignment.token_count(),
        NodeId::all(n).map(|v| tracker.knowledge(v)),
        |v| !sim.is_down(v),
    );
    let completed = event.stopped == StopReason::Complete;

    assert_eq!(format!("{:?}", new.event), format!("{event:?}"));
    assert_eq!(format!("{:?}", new.report), format!("{report:?}"));
    assert_eq!(new.live_coverage.to_bits(), live_coverage.to_bits());
    assert_eq!(new.completed, completed);
}

#[test]
fn faulty_multi_source_matches_the_raw_engine_twin_byte_for_byte() {
    let n = 12usize;
    let assignment = TokenAssignment::round_robin_sources(n, 9, 3);
    let plan = FaultPlan::crash_stop(n, 0.2, 40, 17);
    let cfg = AsyncConfig::default();

    let new = Scenario::from_assignment(assignment.clone())
        .topology(adversary(3, 9))
        .link(DropLink::new(0.2))
        .seed(21)
        .retransmit(cfg)
        .faults(plan.clone())
        .max_time(500_000)
        .name("faulty-async-multi-source")
        .run_multi_source();

    let (nodes, _map) = AsyncMultiSource::nodes(&assignment, cfg);
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary(3, 9),
        PartitionLink::new(DropLink::new(0.2), Arc::new(plan.clone())),
        2,
        21,
        &assignment,
    );
    sim.set_fault_plan(plan.clone());
    let event = sim.run(500_000);
    let report = sim.run_report("faulty-async-multi-source");
    let tracker = sim.tracker().expect("tracking enabled");
    let live_coverage = coverage(
        assignment.token_count(),
        NodeId::all(n).map(|v| tracker.knowledge(v)),
        |v| !sim.is_down(v),
    );

    assert_eq!(format!("{:?}", new.event), format!("{event:?}"));
    assert_eq!(format!("{:?}", new.report), format!("{report:?}"));
    assert_eq!(new.live_coverage.to_bits(), live_coverage.to_bits());
    assert_eq!(new.completed, event.stopped == StopReason::Complete);
}

#[test]
fn byzantine_single_source_matches_the_raw_engine_twin_byte_for_byte() {
    let n = 12usize;
    let assignment = TokenAssignment::single_source(n, 6, NodeId::new(0));
    let plan = MisbehaviorPlan::uniform(n, 0.25, MisbehaviorKind::FalseClaims, 3);
    let cfg = AsyncConfig::default();

    let new = Scenario::from_assignment(assignment.clone())
        .topology(adversary(3, 5))
        .link(DropLink::new(0.2).with_jitter(1))
        .seed(13)
        .retransmit(cfg)
        .byzantine(plan.clone())
        .max_time(1_000_000)
        .name("byz-async-single-source")
        .run_single_source();

    // The twin: wrapped nodes, RAW link (no PartitionLink), transcripts
    // on, audit, manual stamp.
    let nodes = plan.wrap(AsyncSingleSource::nodes(&assignment, cfg));
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary(3, 5),
        DropLink::new(0.2).with_jitter(1),
        2,
        13,
        &assignment,
    );
    sim.record_transcripts();
    let event = sim.run(1_000_000);
    let setup = AuditSetup::single_source(&assignment);
    let evidence = check_evidence(&setup, sim.transcripts());
    let mut report = sim.run_report("byz-async-single-source");
    stamp(&mut report, &plan, &evidence);
    let tracker = sim.tracker().expect("tracking enabled");
    let honest_coverage = coverage(
        assignment.token_count(),
        NodeId::all(n).map(|v| tracker.knowledge(v)),
        |v| !plan.is_malicious(v),
    );
    let injected: u64 = NodeId::all(n).map(|v| sim.node(v).injected()).sum();

    assert_eq!(format!("{:?}", new.event), format!("{event:?}"));
    assert_eq!(format!("{:?}", new.report), format!("{report:?}"));
    assert_eq!(format!("{:?}", new.evidence), format!("{evidence:?}"));
    assert_eq!(new.honest_coverage.to_bits(), honest_coverage.to_bits());
    assert_eq!(new.injected, injected);
    assert_eq!(new.completed, event.stopped == StopReason::Complete);
}

#[test]
fn byzantine_multi_source_matches_the_raw_engine_twin_byte_for_byte() {
    let n = 12usize;
    let assignment = TokenAssignment::round_robin_sources(n, 8, 2);
    let plan = MisbehaviorPlan::uniform(n, 0.25, MisbehaviorKind::DropAcks, 8);
    let cfg = AsyncConfig::default();

    let new = Scenario::from_assignment(assignment.clone())
        .topology(adversary(3, 6))
        .link(DropLink::new(0.2))
        .seed(19)
        .retransmit(cfg)
        .byzantine(plan.clone())
        .max_time(1_000_000)
        .name("byz-async-multi-source")
        .run_multi_source();

    let (nodes, map) = AsyncMultiSource::nodes(&assignment, cfg);
    let nodes = plan.wrap(nodes);
    let mut sim = EventSim::with_tracking(
        nodes,
        adversary(3, 6),
        DropLink::new(0.2),
        2,
        19,
        &assignment,
    );
    sim.record_transcripts();
    let event = sim.run(1_000_000);
    let setup = AuditSetup::multi_source(&assignment, &map);
    let evidence = check_evidence(&setup, sim.transcripts());
    let mut report = sim.run_report("byz-async-multi-source");
    stamp(&mut report, &plan, &evidence);
    let tracker = sim.tracker().expect("tracking enabled");
    let honest_coverage = coverage(
        assignment.token_count(),
        NodeId::all(n).map(|v| tracker.knowledge(v)),
        |v| !plan.is_malicious(v),
    );
    let injected: u64 = NodeId::all(n).map(|v| sim.node(v).injected()).sum();

    assert_eq!(format!("{:?}", new.event), format!("{event:?}"));
    assert_eq!(format!("{:?}", new.report), format!("{report:?}"));
    assert_eq!(format!("{:?}", new.evidence), format!("{evidence:?}"));
    assert_eq!(new.honest_coverage.to_bits(), honest_coverage.to_bits());
    assert_eq!(new.injected, injected);
    assert_eq!(new.completed, event.stopped == StopReason::Complete);
}

/// The two-phase Byzantine oblivious pipeline has no twin (its hand-off
/// alone is 70 lines); it is pinned replay-style against itself, against
/// its structural invariants, and — on the fast path — against the
/// single-phase entry point.
#[test]
fn byzantine_oblivious_is_replay_identical_and_structurally_sound() {
    let n = 14usize;
    let assignment = TokenAssignment::n_gossip(n);
    let plan = MisbehaviorPlan::uniform(n, 0.2, MisbehaviorKind::ForgeTransfers, 4);
    let cfg = AsyncObliviousConfig {
        seed: 9,
        source_threshold: Some(1.0), // force the two-phase path
        center_probability: Some(0.3),
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        Scenario::from_assignment(assignment.clone())
            .topology(adversary(3, 2))
            .link(DropLink::new(0.2).with_jitter(1))
            .byzantine(plan.clone())
            .name("byz-async-oblivious")
            .run_oblivious(
                adversary(3, 4),
                DropLink::new(0.2).with_jitter(1),
                &cfg,
                None,
            )
    };
    let a = run();
    let b = run();
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
    assert!(a.phase1.is_some(), "two-phase path must run phase 1");
    assert_eq!(a.report.algorithm.as_ref(), "byz-async-oblivious");
    assert_eq!(a.byzantine_nodes, plan.byzantine_nodes());
    assert_eq!(a.report.violations_detected, a.evidence.len() as u64);
    // Soundness: only malicious nodes are ever indicted.
    assert!(a.evidence.iter().all(|e| plan.is_malicious(e.culprit)));

    // Fast path (source threshold not overridden ⇒ one source is below
    // it): must reduce to `run_multi_source` under the phase-2 salt and
    // timing, with the report renamed `…oblivious` → `…multi-source`.
    let single = TokenAssignment::single_source(n, 6, NodeId::new(0));
    let fast_cfg = AsyncObliviousConfig {
        seed: 9,
        ..AsyncObliviousConfig::default()
    };
    let fast = Scenario::from_assignment(single.clone())
        .topology(adversary(3, 2))
        .link(DropLink::new(0.2))
        .byzantine(plan.clone())
        .name("byz-async-oblivious")
        .run_oblivious(adversary(3, 4), DropLink::new(0.2), &fast_cfg, None);
    let direct = Scenario::from_assignment(single)
        .topology(adversary(3, 4))
        .link(DropLink::new(0.2))
        .ticks_per_round(fast_cfg.ticks_per_round)
        .seed(fast_cfg.seed ^ 0x5EED_0B71_0002u64)
        .retransmit(fast_cfg.retransmit)
        .byzantine(plan.clone())
        .max_time(fast_cfg.phase2_max_time)
        .name("byz-async-multi-source")
        .run_multi_source();
    assert!(fast.phase1.is_none());
    assert_eq!(format!("{:?}", fast.phase2), format!("{:?}", direct.event));
    assert_eq!(format!("{:?}", fast.report), format!("{:?}", direct.report));
    assert_eq!(
        format!("{:?}", fast.evidence),
        format!("{:?}", direct.evidence)
    );
    assert_eq!(
        fast.honest_coverage.to_bits(),
        direct.honest_coverage.to_bits()
    );
}

/// The honest two-phase pipeline: raw engines, the center-preferring
/// claimant resolution, and the stitched `Phase` trace records.
#[test]
fn honest_oblivious_matches_the_raw_engine_twin_byte_for_byte() {
    use dynspread::core::multi_source::SourceMap;
    use dynspread::core::oblivious::{center_count, degree_threshold};
    use dynspread::runtime::engine::EventProtocol;
    use dynspread::runtime::protocol::AsyncOblivious;
    use dynspread::sim::token::TokenId;
    use dynspread::sim::trace::TraceRecord;

    let n = 12usize;
    let k = n;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        seed: 7,
        source_threshold: Some(1.0), // n sources ⇒ two-phase path
        center_probability: Some(0.25),
        ..AsyncObliviousConfig::default()
    };
    let adversary1 = || PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1);
    let adversary2 = || adversary(3, 2);
    let link = || DropLink::new(0.3).with_jitter(2);

    let new_tracer = JsonlTracer::new();
    let new = Scenario::from_assignment(assignment.clone())
        .topology(adversary1())
        .link(link())
        .trace(new_tracer.clone())
        .run_oblivious(adversary2(), link(), &cfg, None);

    // ---- Twin phase 1. ----
    let tracer = JsonlTracer::new();
    let f = center_count(n, k);
    let p_center = cfg.center_probability.unwrap_or((f / n as f64).min(1.0));
    let gamma = cfg
        .degree_threshold
        .unwrap_or_else(|| degree_threshold(n, f));
    let nodes = AsyncOblivious::nodes(
        &assignment,
        p_center,
        gamma,
        cfg.seed,
        cfg.retransmit,
        cfg.phase1_deadline,
    );
    let centers: Vec<NodeId> = nodes
        .iter()
        .filter(|p| p.is_center())
        .map(|p| p.id())
        .collect();
    let mut sim1 = EventSim::new(
        nodes,
        adversary1(),
        link(),
        cfg.ticks_per_round,
        cfg.seed ^ 0x5EED_0B71_0001u64,
    );
    tracer.append(&TraceRecord::Phase { p: 1 });
    sim1.set_tracer(tracer.clone());
    let phase1 = sim1.run(cfg.phase1_max_time);

    // ---- Twin hand-off: prefer a center among double claimants. ----
    let mut owner_of: Vec<Option<NodeId>> = vec![None; k];
    for v in NodeId::all(n) {
        let node = sim1.node(v);
        for t in node.responsible_tokens() {
            let slot = &mut owner_of[t.index()];
            match *slot {
                None => *slot = Some(v),
                Some(prev) => {
                    if node.is_center() && !sim1.node(prev).is_center() {
                        *slot = Some(v);
                    }
                }
            }
        }
    }
    let mut ownership = TokenAssignment::empty(n, k);
    let mut knowledge = TokenAssignment::empty(n, k);
    let mut stranded = 0usize;
    for (ti, owner) in owner_of.iter().enumerate() {
        let v = owner.expect("responsibility is never destroyed");
        ownership.add_holder(TokenId::new(ti as u32), v);
        if !sim1.node(v).is_center() {
            stranded += 1;
        }
    }
    for v in NodeId::all(n) {
        let know = sim1.node(v).known_tokens().expect("walk knowledge");
        for t in know.iter() {
            knowledge.add_holder(t, v);
        }
    }
    let map = Arc::new(SourceMap::from_assignment(&ownership));
    let sources = map.sources().to_vec();

    // ---- Twin phase 2. ----
    let nodes2: Vec<AsyncMultiSource> = NodeId::all(n)
        .map(|v| AsyncMultiSource::new(v, &knowledge, Arc::clone(&map), cfg.retransmit))
        .collect();
    let mut sim2 = EventSim::with_tracking(
        nodes2,
        adversary2(),
        link(),
        cfg.ticks_per_round,
        cfg.seed ^ 0x5EED_0B71_0002u64,
        &knowledge,
    );
    tracer.append(&TraceRecord::Phase { p: 2 });
    sim2.set_tracer(tracer.clone());
    let phase2 = sim2.run(cfg.phase2_max_time);
    let tracker = sim2.tracker().expect("tracking enabled");
    let final_knowledge: Vec<TokenSet> = NodeId::all(n)
        .map(|v| tracker.knowledge(v).clone())
        .collect();

    assert_eq!(format!("{:?}", new.phase1), format!("{:?}", Some(phase1)));
    assert_eq!(format!("{:?}", new.phase2), format!("{phase2:?}"));
    assert_eq!(new.centers, centers);
    assert_eq!(new.sources, sources);
    assert_eq!(new.stranded_tokens, stranded);
    assert_eq!(
        format!("{:?}", new.final_knowledge),
        format!("{final_knowledge:?}")
    );
    assert_eq!(new.completed, phase2.stopped == StopReason::Complete);
    assert_eq!(new_tracer.take_jsonl(), tracer.take_jsonl());
}

/// The honest oblivious pipeline's stitched two-phase JSONL trace and
/// outcome must also be reproducible run-to-run.
#[test]
fn honest_oblivious_trace_is_replay_identical_through_the_builder() {
    let n = 12usize;
    let assignment = TokenAssignment::n_gossip(n);
    let cfg = AsyncObliviousConfig {
        seed: 7,
        source_threshold: Some(1.0),
        center_probability: Some(0.25),
        ..AsyncObliviousConfig::default()
    };
    let run = || {
        let tracer = JsonlTracer::new();
        let out = Scenario::from_assignment(assignment.clone())
            .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 1))
            .link(DropLink::new(0.3).with_jitter(2))
            .trace(tracer.clone())
            .run_oblivious(
                adversary(3, 2),
                DropLink::new(0.3).with_jitter(2),
                &cfg,
                None,
            );
        (format!("{out:?}"), tracer.take_jsonl())
    };
    let (out_a, trace_a) = run();
    let (out_b, trace_b) = run();
    assert_eq!(out_a, out_b);
    assert_eq!(trace_a, trace_b);
    assert!(trace_a.contains("\"phase\""), "phase boundary records");
}
