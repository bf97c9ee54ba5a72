//! Property tests of the runtime's delivery and determinism guarantees:
//!
//! * with drop probability 0 and duplication 0, every transmission is
//!   delivered **exactly once**;
//! * seeded lossy/jittery/duplicating runs are **replay-identical**: the
//!   same seed reproduces the same execution byte-for-byte, in both the
//!   synchronizer adapters and the asynchronous event engine;
//! * the round engines' two transports agree: over `PerfectLink` the link
//!   transport reproduces `Direct` byte-for-byte — reports, learning logs
//!   and the order of deliveries — in both communication modes, whatever
//!   the adversary family and `SimConfig` flags;
//! * an event-engine run split at arbitrary time caps is the one-shot run.

use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::single_source::SingleSourceNode;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, StaticAdversary,
};
use dynspread_graph::{Graph, NodeId};
use dynspread_runtime::engine::{EventCtx, EventProtocol, EventSim, StopReason};
use dynspread_runtime::link::{DropLink, LinkModelExt, PerfectLink};
use dynspread_runtime::protocol::{AsyncConfig, AsyncSingleSource};
use dynspread_runtime::sync::{BroadcastSynchronizer, UnicastSynchronizer};
use dynspread_runtime::trace::JsonlTracer;
use dynspread_sim::sim::{BroadcastSim, SimConfig, UnicastSim};
use dynspread_sim::token::TokenAssignment;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Event-protocol test node: announces its ID to all neighbors at start,
/// counts the copies it receives per sender, and optionally re-broadcasts
/// a few times on a timer (to generate nontrivial event streams).
#[derive(Default)]
struct Announcer {
    seen: BTreeMap<u32, u64>,
    retries: u32,
    max_retries: u32,
}

impl Announcer {
    fn with_retries(max_retries: u32) -> Self {
        Announcer {
            max_retries,
            ..Announcer::default()
        }
    }
}

impl EventProtocol for Announcer {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, u32>) {
        let me = ctx.me().value();
        ctx.broadcast(me);
        if self.max_retries > 0 {
            ctx.set_timer(2, 0);
        }
    }

    fn on_message(&mut self, _from: NodeId, msg: &u32, _ctx: &mut EventCtx<'_, u32>) {
        *self.seen.entry(*msg).or_insert(0) += 1;
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut EventCtx<'_, u32>) {
        if self.retries < self.max_retries {
            self.retries += 1;
            let me = ctx.me().value();
            ctx.broadcast(me);
            ctx.set_timer(2, 0);
        }
    }
}

/// Runs one seeded execution on `Direct` and on the link transport over
/// `PerfectLink`, in the given communication mode, and returns each side's
/// `(RunReport Debug, learning log Debug, comparable trace)`. The
/// comparable trace is what the two transports must agree on: in a unicast
/// run the whole JSONL trace less the link transport's own `sched` records;
/// in a broadcast run — where `Direct` hands a broadcast over as it is
/// made and the link transport after the round's last one — the `deliver`
/// records, in order. `family` picks the adversary; `stable` turns on the
/// online check of the σ that family guarantees.
fn both_transports(
    broadcast: bool,
    (n, k, seed): (usize, usize, u64),
    family: u8,
    charge_neighbor_discovery: bool,
    stable: bool,
) -> [(String, String, String); 2] {
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let sigma = if family == 3 { 2 } else { 3 };
    let cfg = SimConfig {
        max_rounds: 200_000,
        check_stability: stable.then_some(sigma),
        charge_neighbor_discovery,
        ..SimConfig::default()
    };
    macro_rules! fingerprint {
        ($sim:expr) => {{
            let mut sim = $sim;
            let tracer = JsonlTracer::new();
            sim.set_tracer(tracer.clone());
            let report = sim.run_to_completion();
            assert!(report.completed, "{report}");
            let trace: String = tracer
                .take_jsonl()
                .split_inclusive('\n')
                .filter(|line| {
                    if broadcast {
                        line.starts_with("{\"k\":\"deliver\"")
                    } else {
                        !line.starts_with("{\"k\":\"sched\"")
                    }
                })
                .collect();
            assert!(trace.contains("\"deliver\""), "nothing to compare");
            (
                format!("{report:?}"),
                format!("{:?}", sim.tracker().log()),
                trace,
            )
        }};
    }
    macro_rules! run {
        ($adv:expr) => {
            if broadcast {
                let nodes = || PhasedFlooding::nodes(&assignment);
                [
                    fingerprint!(BroadcastSim::new(
                        "alg",
                        nodes(),
                        $adv,
                        &assignment,
                        cfg.clone()
                    )),
                    fingerprint!(BroadcastSynchronizer::new(
                        "alg",
                        nodes(),
                        $adv,
                        &assignment,
                        cfg.clone(),
                        PerfectLink,
                        seed ^ 0x5EED,
                    )),
                ]
            } else {
                let nodes = || SingleSourceNode::nodes(&assignment);
                [
                    fingerprint!(UnicastSim::new(
                        "alg",
                        nodes(),
                        $adv,
                        &assignment,
                        cfg.clone()
                    )),
                    fingerprint!(UnicastSynchronizer::new(
                        "alg",
                        nodes(),
                        $adv,
                        &assignment,
                        cfg.clone(),
                        PerfectLink,
                        seed ^ 0x5EED,
                    )),
                ]
            }
        };
    }
    match family {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Drop 0 / duplication 0 ⇒ exactly-once delivery: engine counters
    /// agree, and every node receives each neighbor's announcement exactly
    /// once (static topology, arbitrary fixed latency).
    #[test]
    fn perfect_links_deliver_exactly_once(
        n in 2usize..24,
        latency in 0u64..5,
        seed in 0u64..1_000,
    ) {
        let nodes: Vec<Announcer> = (0..n).map(|_| Announcer::default()).collect();
        let adversary = StaticAdversary::from_topology(Topology::RandomTree, n, seed);
        let link = PerfectLink.lossy(0.0).duplicating(0.0).with_latency(latency);
        let mut sim = EventSim::new(nodes, adversary, link, 4, seed ^ 0xA5A5);
        let report = sim.run(100_000);
        prop_assert_eq!(report.stopped, StopReason::Quiescent);
        // A random tree has n−1 edges; each endpoint announces once.
        prop_assert_eq!(report.transmissions, 2 * (n as u64 - 1));
        prop_assert_eq!(report.copies_scheduled, report.transmissions);
        prop_assert_eq!(report.copies_delivered, report.transmissions);
        let g = sim.dynamic_graph().current().clone();
        for v in NodeId::all(n) {
            let seen = &sim.node(v).seen;
            prop_assert_eq!(seen.len(), g.degree(v), "{} sender set != neighbors", v);
            for (&from, &count) in seen {
                prop_assert_eq!(count, 1, "{} copies from v{} at {}", count, from, v);
                prop_assert!(g.has_edge(v, NodeId::new(from)));
            }
        }
    }

    /// The synchronizer adapter under an arbitrary lossy/jittery/
    /// duplicating link is replay-identical: same seeds ⇒ same `RunReport`
    /// bytes, same learning log, same link statistics.
    #[test]
    fn seeded_lossy_sync_runs_are_replay_identical(
        adv_seed in 0u64..500,
        link_seed in 0u64..500,
        drop_centi in 0u64..50,
        dup_centi in 0u64..30,
        jitter in 0u64..4,
    ) {
        let run = || {
            let (n, k) = (10, 6);
            let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
            let link = PerfectLink
                .duplicating(dup_centi as f64 / 100.0)
                .lossy(drop_centi as f64 / 100.0)
                .with_jitter(jitter);
            let mut sim = UnicastSynchronizer::new(
                "ss",
                SingleSourceNode::nodes(&assignment),
                PeriodicRewiring::new(Topology::RandomTree, 3, adv_seed),
                &assignment,
                SimConfig::with_max_rounds(30_000),
                link,
                link_seed,
            );
            let report = sim.run_to_completion();
            (
                format!("{report:?}"),
                format!("{:?}", sim.tracker().log()),
                sim.link_stats(),
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// The equivalence contract, searched: the link transport over
    /// `PerfectLink` reproduces `Direct` byte-for-byte — report, learning
    /// log and the same deliveries in the same order — in both modes, for
    /// every adversary family and with either `SimConfig` flag on.
    #[test]
    fn perfect_link_transport_reproduces_direct(
        broadcast in prop::bool::ANY,
        n in 4usize..20,
        k in 1usize..12,
        seed in 0u64..10_000,
        family in 0u8..4,
        charge_neighbor_discovery in prop::bool::ANY,
        stable in prop::bool::ANY,
    ) {
        let [direct, link] =
            both_transports(broadcast, (n, k, seed), family, charge_neighbor_discovery, stable);
        prop_assert_eq!(direct, link);
    }

    /// `EventSim::run` is resumable: stopping at each of an ascending
    /// sequence of time caps and running on is the one-shot run to the last
    /// cap — same `EventReport`, same `RunReport`, same trace, byte for byte
    /// — with retransmission timers racing lossy, jittery deliveries over a
    /// rewiring topology.
    #[test]
    fn a_run_split_at_time_caps_is_the_one_shot_run(
        n in 4usize..12,
        k in 1usize..6,
        seed in 0u64..10_000,
        drop_centi in 0u64..40,
        jitter in 0u64..4,
        caps in prop::collection::vec(0u64..600, 1..7),
    ) {
        let mut caps = caps;
        caps.sort_unstable();
        let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
        let run = |caps: &[u64]| {
            let mut sim = EventSim::with_tracking(
                AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
                PeriodicRewiring::new(Topology::RandomTree, 3, seed),
                DropLink::new(drop_centi as f64 / 100.0).with_jitter(jitter),
                2,
                seed ^ 0xC0FFEE,
                &assignment,
            );
            let tracer = JsonlTracer::new();
            sim.set_tracer(tracer.clone());
            let mut last = None;
            for &cap in caps {
                last = Some(sim.run(cap));
            }
            (
                format!("{:?}", last.expect("at least one cap")),
                format!("{:?}", sim.run_report("async-ss")),
                tracer.take_jsonl(),
            )
        };
        prop_assert_eq!(run(&caps), run(&caps[caps.len() - 1..]));
    }

    /// The asynchronous event engine is replay-identical too, including
    /// timer-driven retransmissions racing lossy deliveries.
    #[test]
    fn seeded_lossy_event_runs_are_replay_identical(
        n in 3usize..16,
        adv_seed in 0u64..300,
        engine_seed in 0u64..300,
        drop_centi in 0u64..60,
    ) {
        let run = || {
            let nodes: Vec<Announcer> = (0..n).map(|_| Announcer::with_retries(4)).collect();
            let adversary = StaticAdversary::from_topology(Topology::RandomTree, n, adv_seed);
            let link = PerfectLink.lossy(drop_centi as f64 / 100.0).with_jitter(3);
            let mut sim = EventSim::new(nodes, adversary, link, 4, engine_seed);
            let report = sim.run(100_000);
            let seen: Vec<(u32, Vec<(u32, u64)>)> = NodeId::all(n)
                .map(|v| {
                    (
                        v.value(),
                        sim.node(v).seen.iter().map(|(&f, &c)| (f, c)).collect(),
                    )
                })
                .collect();
            (format!("{report:?}"), seen)
        };
        prop_assert_eq!(run(), run());
    }
}

/// Deterministic non-property check: a duplicating link inflates copies,
/// a lossy link sheds them, and the counters stay consistent — in the
/// synchronizer's two modes and in the event engine, all of which plan
/// through the shared link planner.
#[test]
fn link_stat_invariants_hold_under_loss_and_duplication() {
    let (n, k) = (12, 8);
    let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
    let link = || PerfectLink.duplicating(0.3).lossy(0.2);
    let mut sim = UnicastSynchronizer::new(
        "ss",
        SingleSourceNode::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        &assignment,
        SimConfig::with_max_rounds(200_000),
        link(),
        13,
    );
    let report = sim.run_to_completion();
    assert!(report.completed, "{report}");
    let (tx, scheduled, delivered) = sim.link_stats();
    assert!(tx > 0);
    // Zero latency: every scheduled copy arrives within its round.
    assert_eq!(delivered, scheduled);
    assert_eq!(sim.in_flight(), 0);
    // A drop sheds one transmission, a duplicate adds one copy.
    assert!(report.link_drops > 0 && report.link_duplicates > 0);
    assert_eq!(scheduled, tx - report.link_drops + report.link_duplicates);
    assert_eq!(tx, report.link_sends);

    // Local broadcast: one transmission per neighbor of a broadcaster, and
    // with latency the copies wait in flight across rounds.
    let mut sim = BroadcastSynchronizer::new(
        "flood",
        PhasedFlooding::nodes(&assignment),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        &assignment,
        SimConfig::with_max_rounds(2_000),
        PerfectLink.with_latency(2).duplicating(0.3).lossy(0.2),
        13,
    );
    for _ in 0..3 {
        sim.step();
    }
    assert!(sim.in_flight() > 0);
    let report = sim.run_to_completion();
    assert!(report.completed, "{report}");
    let (tx, scheduled, delivered) = sim.link_stats();
    assert_eq!(tx, report.link_sends);
    assert!(report.link_drops > 0 && report.link_duplicates > 0);
    assert_eq!(scheduled, tx - report.link_drops + report.link_duplicates);
    assert_eq!(scheduled, delivered + sim.in_flight() as u64);

    // The event engine: the same identity, less the sends that never
    // reached the link for lack of an edge.
    let mut sim = EventSim::with_tracking(
        AsyncSingleSource::nodes(&assignment, AsyncConfig::default()),
        PeriodicRewiring::new(Topology::RandomTree, 3, 9),
        link(),
        2,
        13,
        &assignment,
    );
    let event = sim.run(200_000);
    assert_eq!(event.stopped, StopReason::Complete, "{event}");
    let report = sim.run_report("async-ss");
    assert!(report.link_drops > 0 && report.link_duplicates > 0);
    assert_eq!(
        event.copies_scheduled,
        event.transmissions - event.unroutable - report.link_drops + report.link_duplicates
    );
}

/// `SimConfig::meter_sampling` reaches the broadcast engine whatever its
/// transport: a sampled run over a link says so in its report and keeps the
/// exact run's totals.
#[test]
fn broadcast_over_a_link_honours_meter_sampling() {
    let n = 40;
    let assignment = TokenAssignment::round_robin_sources(n, 12, 4);
    let run = |meter_sampling| {
        let cfg = SimConfig {
            max_rounds: 100_000,
            meter_sampling,
            ..SimConfig::default()
        };
        BroadcastSynchronizer::new(
            "flood",
            PhasedFlooding::nodes(&assignment),
            PeriodicRewiring::new(Topology::RandomTree, 3, 21),
            &assignment,
            cfg,
            PerfectLink.lossy(0.1),
            5,
        )
        .run_to_completion()
    };
    let (exact, sampled) = (run(1), run(64));
    assert!(exact.completed, "{exact}");
    assert_eq!(exact.meter_sampling, 1);
    assert_eq!(sampled.meter_sampling, 64);
    assert_eq!(sampled.total_messages, exact.total_messages);
    assert_eq!(sampled.rounds, exact.rounds);
    assert_eq!(sampled.learnings, exact.learnings);
}
