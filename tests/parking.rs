//! The parking contract of `Outbox::park`, from both sides.
//!
//! * **Parked == never parked.** `SingleSourceNode` and `MultiSourceNode`
//!   park; a wrapper that drops the request makes the engines sweep every
//!   node every round, as they did before the active set existed. The two
//!   executions must be the same execution — `Debug` of the `RunReport`,
//!   the learning log and the JSONL trace byte for byte — on both sync
//!   unicast engines, over every adversary family, with and without loss
//!   and jitter.
//! * **The engine's half.** A hand-written protocol that parks every round
//!   records when it was called: an inserted edge, a removed edge and a
//!   delivery that arrives after its edge died each wake exactly the nodes
//!   they concern, exactly once.

use dynspread::core::multi_source::MultiSourceNode;
use dynspread::core::single_source::SingleSourceNode;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::{
    ChurnAdversary, EdgeMarkovian, PeriodicRewiring, ScriptedAdversary, StaticAdversary,
};
use dynspread::graph::{Edge, Graph, NodeId, Round};
use dynspread::runtime::link::{LinkModel, LinkModelExt, PerfectLink};
use dynspread::runtime::sync::UnicastSynchronizer;
use dynspread::sim::adversary::UnicastAdversary;
use dynspread::sim::message::{MessageClass, MessagePayload};
use dynspread::sim::protocol::{Outbox, UnicastProtocol};
use dynspread::sim::trace::JsonlTracer;
use dynspread::sim::{SimConfig, TokenAssignment, TokenSet, UnicastSim};
use std::cell::Cell;
use std::rc::Rc;

/// Counts the `send` / `end_round` calls an engine makes, forwarding the
/// engine's outbox — and with it a park request — untouched.
struct Counted<P> {
    inner: P,
    calls: Rc<Cell<(u64, u64)>>,
}

impl<P: UnicastProtocol> UnicastProtocol for Counted<P> {
    type Msg = P::Msg;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<P::Msg>) {
        let (sends, ends) = self.calls.get();
        self.calls.set((sends + 1, ends));
        self.inner.send(round, neighbors, out);
    }

    fn receive(&mut self, round: Round, from: NodeId, msg: &P::Msg) {
        self.inner.receive(round, from, msg);
    }

    fn end_round(&mut self, round: Round) {
        let (sends, ends) = self.calls.get();
        self.calls.set((sends, ends + 1));
        self.inner.end_round(round);
    }

    fn known_tokens(&self) -> &TokenSet {
        self.inner.known_tokens()
    }
}

/// Hands the inner node a private outbox, forwards its messages and drops
/// its park request: the engine sees a protocol that never parks.
struct NeverPark<P: UnicastProtocol> {
    inner: P,
    private: Outbox<P::Msg>,
}

impl<P: UnicastProtocol> UnicastProtocol for NeverPark<P> {
    type Msg = P::Msg;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<P::Msg>) {
        self.inner.send(round, neighbors, &mut self.private);
        self.private.take_parked();
        for (to, msg) in self.private.drain() {
            out.send(to, msg);
        }
    }

    fn receive(&mut self, round: Round, from: NodeId, msg: &P::Msg) {
        self.inner.receive(round, from, msg);
    }

    fn end_round(&mut self, round: Round) {
        self.inner.end_round(round);
    }

    fn known_tokens(&self) -> &TokenSet {
        self.inner.known_tokens()
    }
}

/// Everything an execution leaves behind.
struct Execution {
    report: String,
    learning_log: String,
    trace: String,
}

#[derive(Clone, Copy, Debug)]
enum Engine {
    Sim,
    SyncPerfect,
    SyncLossy,
}

const MAX_ROUNDS: Round = 400;

/// Runs `nodes` on `engine`, traced, and returns the execution with its
/// `(send, end_round)` call counts and the number of rounds.
fn execute<P, A>(
    engine: Engine,
    nodes: Vec<P>,
    adversary: A,
    assignment: &TokenAssignment,
) -> (Execution, (u64, u64), Round)
where
    P: UnicastProtocol,
    P::Msg: Clone,
    A: UnicastAdversary<P::Msg>,
{
    let calls = Rc::new(Cell::new((0, 0)));
    let nodes: Vec<Counted<P>> = nodes
        .into_iter()
        .map(|inner| Counted {
            inner,
            calls: Rc::clone(&calls),
        })
        .collect();
    let cfg = SimConfig::with_max_rounds(MAX_ROUNDS);
    let tracer = JsonlTracer::default();
    fn on_link<P, A, L>(
        nodes: Vec<Counted<P>>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        tracer: &JsonlTracer,
        link: L,
    ) -> (String, String, Round)
    where
        P: UnicastProtocol,
        P::Msg: Clone,
        A: UnicastAdversary<P::Msg>,
        L: LinkModel,
    {
        let mut sim = UnicastSynchronizer::new("alg", nodes, adversary, assignment, cfg, link, 41);
        sim.set_tracer(tracer.clone());
        let report = sim.run_to_completion();
        (
            format!("{report:?}"),
            format!("{:?}", sim.tracker().log()),
            report.rounds,
        )
    }
    let (report, learning_log, rounds) = match engine {
        Engine::Sim => {
            let mut sim = UnicastSim::new("alg", nodes, adversary, assignment, cfg);
            sim.set_tracer(tracer.clone());
            let report = sim.run_to_completion();
            (
                format!("{report:?}"),
                format!("{:?}", sim.tracker().log()),
                report.rounds,
            )
        }
        Engine::SyncPerfect => on_link(nodes, adversary, assignment, cfg, &tracer, PerfectLink),
        Engine::SyncLossy => on_link(
            nodes,
            adversary,
            assignment,
            cfg,
            &tracer,
            PerfectLink.lossy(0.1).with_jitter(1),
        ),
    };
    let execution = Execution {
        report,
        learning_log,
        trace: tracer.take_jsonl(),
    };
    (execution, calls.get(), rounds)
}

/// Runs one protocol both ways on every engine and adversary family and
/// compares. `build` makes a fresh node vector.
fn assert_parked_equals_never_parked<P>(
    label: &str,
    assignment: &TokenAssignment,
    build: impl Fn() -> Vec<P>,
) where
    P: UnicastProtocol,
    P::Msg: Clone,
{
    let n = assignment.node_count();
    let never = || -> Vec<NeverPark<P>> {
        build()
            .into_iter()
            .map(|inner| NeverPark {
                inner,
                private: Outbox::new(),
            })
            .collect()
    };
    let mut saved_calls = false;
    for engine in [Engine::Sim, Engine::SyncPerfect, Engine::SyncLossy] {
        for family in 0..4u8 {
            for seed in [3u64, 58] {
                macro_rules! both {
                    ($adv:expr) => {{
                        let (parked, parked_calls, rounds) =
                            execute(engine, build(), $adv, assignment);
                        let (swept, swept_calls, _) = execute(engine, never(), $adv, assignment);
                        let what = format!("{label} on {engine:?}, family {family}, seed {seed}");
                        assert_eq!(parked.report, swept.report, "report: {what}");
                        assert_eq!(parked.learning_log, swept.learning_log, "log: {what}");
                        assert_eq!(parked.trace, swept.trace, "trace: {what}");
                        assert!(!parked.trace.is_empty(), "{what}: nothing traced");
                        // The reference really is the whole-network sweep…
                        assert_eq!(
                            swept_calls,
                            (n as u64 * rounds, n as u64 * rounds),
                            "{what}"
                        );
                        // …and parking never adds calls.
                        assert!(
                            parked_calls.0 <= swept_calls.0 && parked_calls.1 <= swept_calls.1,
                            "{what}"
                        );
                        saved_calls |= parked_calls.0 < swept_calls.0;
                    }};
                }
                match family {
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
    }
    assert!(
        saved_calls,
        "{label}: no node ever parked — the test is vacuous"
    );
}

#[test]
fn single_source_parked_run_is_the_never_parked_run() {
    let assignment = TokenAssignment::single_source(18, 5, NodeId::new(2));
    assert_parked_equals_never_parked("single-source", &assignment, || {
        SingleSourceNode::nodes(&assignment)
    });
}

#[test]
fn multi_source_parked_run_is_the_never_parked_run() {
    let assignment = TokenAssignment::round_robin_sources(16, 9, 3);
    assert_parked_equals_never_parked("multi-source", &assignment, || {
        MultiSourceNode::nodes(&assignment).0
    });
}

/// A contentless message.
#[derive(Clone, Debug, PartialEq)]
struct Ping;

impl MessagePayload for Ping {
    fn token_count(&self) -> usize {
        0
    }
    fn class(&self) -> MessageClass {
        MessageClass::Control
    }
}

/// Parks in every `send`; sends one `Ping` to its first neighbor in the
/// rounds listed in `ping_in`. Records every call it gets.
struct Sleeper {
    know: TokenSet,
    ping_in: Vec<Round>,
    sends: Vec<Round>,
    end_rounds: Vec<Round>,
    received: Vec<(Round, NodeId)>,
}

impl Sleeper {
    fn nodes(assignment: &TokenAssignment) -> Vec<Sleeper> {
        NodeId::all(assignment.node_count())
            .map(|v| Sleeper {
                know: assignment.initial_knowledge(v),
                ping_in: Vec::new(),
                sends: Vec::new(),
                end_rounds: Vec::new(),
                received: Vec::new(),
            })
            .collect()
    }
}

impl UnicastProtocol for Sleeper {
    type Msg = Ping;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<Ping>) {
        self.sends.push(round);
        if self.ping_in.contains(&round) {
            out.send(neighbors[0], Ping);
        }
        out.park();
    }

    fn receive(&mut self, round: Round, from: NodeId, _msg: &Ping) {
        self.received.push((round, from));
    }

    fn end_round(&mut self, round: Round) {
        self.end_rounds.push(round);
    }

    fn known_tokens(&self) -> &TokenSet {
        &self.know
    }
}

fn nid(i: u32) -> NodeId {
    NodeId::new(i)
}

fn path_plus(n: usize, extra: &[(u32, u32)]) -> Graph {
    let mut g = Graph::path(n);
    for &(u, v) in extra {
        g.insert_edge(Edge::new(nid(u), nid(v)));
    }
    g
}

#[test]
fn an_inserted_and_a_removed_edge_wake_exactly_their_endpoints() {
    let n = 5;
    let assignment = TokenAssignment::single_source(n, 1, nid(0));
    // Rounds 1–2: the path. Round 3: {0, 2} appears. Round 5: it goes.
    let schedule = vec![
        path_plus(n, &[]),
        path_plus(n, &[]),
        path_plus(n, &[(0, 2)]),
        path_plus(n, &[(0, 2)]),
        path_plus(n, &[]),
        path_plus(n, &[]),
    ];
    let mut sim = UnicastSim::new(
        "sleepers",
        Sleeper::nodes(&assignment),
        ScriptedAdversary::new(schedule),
        &assignment,
        SimConfig::default(),
    );
    for _ in 0..7 {
        sim.step();
    }
    for v in [0u32, 2] {
        assert_eq!(sim.node(nid(v)).sends, [1, 3, 5], "node {v}");
    }
    for v in [1u32, 3, 4] {
        assert_eq!(sim.node(nid(v)).sends, [1], "node {v}");
    }
    // Nobody was delivered anything, and everybody parked in the `send` of
    // the round it was woken in: no `end_round` was owed to anyone.
    for v in NodeId::all(n) {
        assert!(sim.node(v).end_rounds.is_empty(), "node {v}");
        assert!(sim.node(v).received.is_empty(), "node {v}");
    }
    assert_eq!(sim.report().total_messages, 0);
}

#[test]
fn a_delivery_wakes_its_receiver_for_that_end_round_and_the_next_send() {
    let n = 4;
    let assignment = TokenAssignment::single_source(n, 1, nid(0));
    let mut nodes = Sleeper::nodes(&assignment);
    // Node 1's first neighbor on a path is node 0.
    nodes[1].ping_in = vec![1];
    let mut sim = UnicastSim::new(
        "sleepers",
        nodes,
        StaticAdversary::new(Graph::path(n)),
        &assignment,
        SimConfig::default(),
    );
    for _ in 0..6 {
        sim.step();
    }
    assert_eq!(sim.node(nid(1)).sends, [1]);
    assert_eq!(sim.node(nid(0)).received, [(1, nid(1))]);
    assert_eq!(sim.node(nid(0)).end_rounds, [1]);
    assert_eq!(sim.node(nid(0)).sends, [1, 2]);
    for v in [2u32, 3] {
        assert_eq!(sim.node(nid(v)).sends, [1], "node {v}");
        assert!(sim.node(nid(v)).end_rounds.is_empty(), "node {v}");
    }
    assert_eq!(sim.report().total_messages, 1);
}

#[test]
fn a_late_arrival_over_a_dead_edge_still_wakes_its_receiver() {
    let n = 3;
    let assignment = TokenAssignment::single_source(n, 1, nid(0));
    let mut nodes = Sleeper::nodes(&assignment);
    // Node 0 pings its only neighbor, node 1, in round 1; the copy spends
    // two more rounds in the air.
    nodes[0].ping_in = vec![1];
    // Round 2 swaps {0, 1} for {0, 2}: every node's list changes once.
    let rewired = Graph::from_edges(n, [Edge::new(nid(0), nid(2)), Edge::new(nid(1), nid(2))]);
    let schedule = vec![Graph::path(n), rewired];
    let mut sim = UnicastSynchronizer::new(
        "sleepers",
        nodes,
        ScriptedAdversary::new(schedule),
        &assignment,
        SimConfig::default(),
        PerfectLink.with_latency(2),
        7,
    );
    for _ in 0..6 {
        sim.step();
    }
    assert_eq!(sim.node(nid(1)).received, [(3, nid(0))]);
    assert!(!sim.dynamic_graph().current().has_edge(nid(0), nid(1)));
    assert_eq!(sim.node(nid(1)).sends, [1, 2, 4]);
    assert_eq!(sim.node(nid(1)).end_rounds, [3]);
    for v in [0u32, 2] {
        assert_eq!(sim.node(nid(v)).sends, [1, 2], "node {v}");
        assert!(sim.node(nid(v)).end_rounds.is_empty(), "node {v}");
        assert!(sim.node(nid(v)).received.is_empty(), "node {v}");
    }
    assert_eq!(sim.link_stats(), (1, 1, 1));
}
