//! Synchronizer adapters: the paper's round-based protocols on the
//! event-driven substrate.
//!
//! [`UnicastSynchronizer`] and [`BroadcastSynchronizer`] drive the
//! *unchanged* [`UnicastProtocol`]/[`BroadcastProtocol`] state machines,
//! but route every transmitted message through a [`LinkModel`] and the
//! runtime's event queue: each copy that survives the link arrives in the
//! destination's [`Mailbox`] at `send round + delay` and is consumed in
//! that round's delivery phase. One virtual-clock tick equals one round.
//!
//! **Equivalence contract**: under [`PerfectLink`](crate::link::PerfectLink)
//! (zero latency, no loss, no duplication) the adapters execute the exact
//! round structure of [`dynspread_sim::UnicastSim`] /
//! [`dynspread_sim::BroadcastSim`] — same adversary interaction, same
//! model-invariant assertions, same metering, same tracker sync order — so
//! the produced [`RunReport`] and learning log are byte-for-byte identical
//! to the synchronous engines' for the same seed. This is tested in
//! `tests/runtime_equivalence.rs` at the workspace root.
//!
//! Two semantic choices for the lossy/latent case, both deliberate:
//!
//! * **Metering counts transmissions**, not deliveries — a dropped message
//!   still cost its send (Definition 1.1 charges sends).
//! * **In-flight messages are not tied to the edge** that carried them:
//!   once the link model schedules a copy, it arrives at its time even if
//!   the adversary has since removed the edge (the copy is "in the air").
//!   Within a node, arrivals are consumed in `(time, scheduling order)` FIFO order.

use crate::event::{EventQueue, VirtualTime};
use crate::link::LinkModel;
use crate::mailbox::Mailbox;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::stability::StabilityChecker;
use dynspread_graph::{DynamicGraph, NodeId, Round};
use dynspread_sim::adversary::{BroadcastAdversary, SentRecord, UnicastAdversary};
use dynspread_sim::message::{MessageClass, MessagePayload, MAX_TOKENS_PER_MESSAGE};
use dynspread_sim::meter::MessageMeter;
use dynspread_sim::protocol::{BroadcastProtocol, Outbox, UnicastProtocol};
use dynspread_sim::round::RoundScratch;
use dynspread_sim::sim::SimConfig;
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::trace::{emit, TraceRecord, Tracer};
use dynspread_sim::tracker::TokenTracker;
use dynspread_sim::RunReport;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A copy in flight: who it is for, who sent it, and the payload.
struct Flight<M> {
    to: NodeId,
    from: NodeId,
    msg: M,
}

/// Shared round plumbing of both adapters: graph, metering, tracking,
/// link planning, and the same [`RoundScratch`] (active set, receiver
/// marks, connectivity) the sync engines drive their rounds with.
struct RoundCore<M> {
    dg: DynamicGraph,
    meter: MessageMeter,
    tracker: TokenTracker,
    cfg: SimConfig,
    stability: Option<StabilityChecker>,
    queue: EventQueue<Flight<M>>,
    mailboxes: Vec<Mailbox<M>>,
    rng: StdRng,
    fates: Vec<VirtualTime>,
    /// Per-broadcast fan-out plan `(destination, arrival time)`, reused
    /// across broadcasters so the payload can be cloned per surviving
    /// copy (move-last) instead of per neighbor.
    plan: Vec<(NodeId, VirtualTime)>,
    transmissions: u64,
    copies_scheduled: u64,
    copies_delivered: u64,
    /// Transmissions whose every copy the link dropped.
    link_drops: u64,
    /// Extra copies beyond one per surviving transmission.
    link_dups: u64,
    tracer: Option<Box<dyn Tracer>>,
    scratch: RoundScratch,
    algorithm_name: Arc<str>,
    adversary_name: Arc<str>,
}

impl<M> RoundCore<M> {
    fn new(
        algorithm_name: Arc<str>,
        adversary_name: Arc<str>,
        n: usize,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link_seed: u64,
    ) -> Self {
        let stability = cfg.check_stability.map(StabilityChecker::new);
        RoundCore {
            dg: DynamicGraph::new(n),
            meter: MessageMeter::new(),
            tracker: TokenTracker::new(assignment),
            cfg,
            stability,
            queue: EventQueue::new(),
            mailboxes: (0..n).map(|_| Mailbox::with_capacity(4)).collect(),
            rng: StdRng::seed_from_u64(link_seed),
            fates: Vec::new(),
            plan: Vec::new(),
            transmissions: 0,
            copies_scheduled: 0,
            copies_delivered: 0,
            link_drops: 0,
            link_dups: 0,
            tracer: None,
            scratch: RoundScratch::new(n),
            algorithm_name,
            adversary_name,
        }
    }

    /// Applies the adversary's update and runs the per-round model checks
    /// (connectivity, σ-stability), exactly like the sync engines.
    fn install_round(&mut self, round: Round, update: GraphUpdate, n: usize) {
        if let GraphUpdate::Full(g) = &update {
            assert_eq!(
                g.node_count(),
                n,
                "adversary changed the node count in round {round}"
            );
        }
        self.dg.apply(update);
        if self.cfg.check_connectivity {
            let removed = self.dg.last_delta().removed.len();
            assert!(
                self.scratch.check_connected(self.dg.current(), removed),
                "adversary produced a disconnected graph in round {round}"
            );
        }
        if let Some(chk) = self.stability.as_mut() {
            chk.observe(self.dg.current())
                .expect("adversary violated σ-edge stability");
        }
        if self.tracer.is_some() {
            let delta = self.dg.last_delta();
            let (inserted, removed) = (delta.inserted.len() as u64, delta.removed.len() as u64);
            emit(
                &mut self.tracer,
                TraceRecord::Round {
                    r: round,
                    inserted,
                    removed,
                },
            );
        }
        self.meter.begin_round(round);
    }

    /// Routes one transmission through the link model, scheduling each
    /// surviving copy on the event queue. Emits `Send` plus the per-copy
    /// link fate (`Scheduled`/`Dropped`/`Duplicated`) on the trace.
    fn transmit(&mut self, link: &impl LinkModel, round: Round, from: NodeId, to: NodeId, msg: &M)
    where
        M: Clone,
    {
        self.transmissions += 1;
        emit(
            &mut self.tracer,
            TraceRecord::Send {
                t: round,
                from: from.value(),
                to: to.value(),
            },
        );
        self.fates.clear();
        link.plan(from, to, round, &mut self.rng, &mut self.fates);
        self.copies_scheduled += self.fates.len() as u64;
        self.note_fates(round, from, to);
        for &delay in &self.fates {
            self.queue.schedule(
                round + delay,
                Flight {
                    to,
                    from,
                    msg: msg.clone(),
                },
            );
        }
    }

    /// Counts and traces the link fate of one transmission whose plan is
    /// currently in `self.fates`.
    fn note_fates(&mut self, round: Round, from: NodeId, to: NodeId) {
        match self.fates.len() {
            0 => {
                self.link_drops += 1;
                emit(
                    &mut self.tracer,
                    TraceRecord::Dropped {
                        t: round,
                        from: from.value(),
                        to: to.value(),
                    },
                );
            }
            1 => {
                if self.tracer.is_some() {
                    let at = round + self.fates[0];
                    emit(
                        &mut self.tracer,
                        TraceRecord::Scheduled {
                            t: round,
                            from: from.value(),
                            to: to.value(),
                            at,
                        },
                    );
                }
            }
            k => {
                self.link_dups += (k - 1) as u64;
                if self.tracer.is_some() {
                    for i in 0..k {
                        let at = round + self.fates[i];
                        emit(
                            &mut self.tracer,
                            TraceRecord::Scheduled {
                                t: round,
                                from: from.value(),
                                to: to.value(),
                                at,
                            },
                        );
                    }
                    emit(
                        &mut self.tracer,
                        TraceRecord::Duplicated {
                            t: round,
                            from: from.value(),
                            to: to.value(),
                            extra: (k - 1) as u32,
                        },
                    );
                }
            }
        }
    }

    /// Delivers this round's arrivals. Every copy due now moves into its
    /// destination's mailbox and marks the destination a receiver, so the
    /// sweep visits only mailboxes that hold something: receivers in
    /// ascending ID order, each consuming its mailbox in FIFO order.
    fn deliver_arrivals(&mut self, round: Round, mut receive: impl FnMut(NodeId, NodeId, &M)) {
        while let Some((at, flight)) = self.queue.pop_due(round) {
            self.scratch.mark_receiver(flight.to);
            self.mailboxes[flight.to.index()].deliver(at, flight.from, flight.msg);
        }
        let mut from = 0;
        while let Some(v) = self.scratch.next_receiver(from) {
            from = v.index() + 1;
            while let Some(env) = self.mailboxes[v.index()].pop() {
                self.copies_delivered += 1;
                receive(v, env.from, &env.msg);
                emit(
                    &mut self.tracer,
                    TraceRecord::Delivered {
                        t: round,
                        from: env.from.value(),
                        to: v.value(),
                    },
                );
            }
        }
    }

    fn report(&self, n: usize) -> RunReport {
        let mut report = RunReport::from_meters(
            self.algorithm_name.clone(),
            self.adversary_name.clone(),
            n,
            self.tracker.token_count(),
            self.dg.round(),
            self.tracker.all_complete(),
            &self.meter,
            self.dg.meter(),
            self.tracker.total_learnings(),
        );
        report.link_sends = self.transmissions;
        report.link_drops = self.link_drops;
        report.link_duplicates = self.link_dups;
        report
    }
}

/// Validates initial protocol knowledge against the assignment (same
/// checks as the sync engines' constructors).
fn validate_nodes<'a>(
    know: impl Iterator<Item = &'a dynspread_sim::token::TokenSet>,
    assignment: &TokenAssignment,
    tracker: &TokenTracker,
    n: usize,
) {
    assert_eq!(n, assignment.node_count(), "node count mismatch");
    for (i, k) in know.enumerate() {
        let v = NodeId::new(i as u32);
        assert_eq!(
            k.universe(),
            assignment.token_count(),
            "{v}: token universe mismatch"
        );
        assert!(
            k == tracker.knowledge(v),
            "{v}: initial knowledge differs from assignment"
        );
    }
}

/// Runs round-based **unicast** protocols over a [`LinkModel`].
pub struct UnicastSynchronizer<P: UnicastProtocol, A: UnicastAdversary<P::Msg>, L: LinkModel> {
    nodes: Vec<P>,
    adversary: A,
    link: L,
    core: RoundCore<P::Msg>,
    /// Last round's transmissions; reused as the next round's buffer once
    /// the adversary has seen it.
    last_sent: Vec<SentRecord<P::Msg>>,
    /// The one outbox every node's `send` fills and the engine drains.
    outbox: Outbox<P::Msg>,
}

impl<P, A, L> UnicastSynchronizer<P, A, L>
where
    P: UnicastProtocol,
    P::Msg: Clone,
    A: UnicastAdversary<P::Msg>,
    L: LinkModel,
{
    /// Creates the adapter. `link_seed` seeds the link model's RNG stream
    /// (independent of the adversary's seed).
    ///
    /// # Panics
    ///
    /// Same validation as [`dynspread_sim::UnicastSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link: L,
        link_seed: u64,
    ) -> Self {
        let adversary_name: Arc<str> = Arc::from(<A as UnicastAdversary<P::Msg>>::name(&adversary));
        let core = RoundCore::new(
            Arc::from(algorithm_name.into()),
            adversary_name,
            nodes.len(),
            assignment,
            cfg,
            link_seed,
        );
        validate_nodes(
            nodes.iter().map(|p| p.known_tokens()),
            assignment,
            &core.tracker,
            nodes.len(),
        );
        UnicastSynchronizer {
            nodes,
            adversary,
            link,
            core,
            last_sent: Vec::new(),
            outbox: Outbox::new(),
        }
    }

    /// Installs a [`Tracer`] receiving the deterministic trace stream
    /// (round boundaries, sends, per-copy link fates, deliveries,
    /// coverage deltas). Off by default and free when off.
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.core.tracer = Some(Box::new(tracer));
    }

    /// The tracker (read-only global observer).
    pub fn tracker(&self) -> &TokenTracker {
        &self.core.tracker
    }

    /// The message meter (counts transmissions, not deliveries).
    pub fn meter(&self) -> &MessageMeter {
        &self.core.meter
    }

    /// The dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.core.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Copies still in flight (scheduled but not yet arrived).
    pub fn in_flight(&self) -> usize {
        self.core.queue.len()
    }

    /// `(transmissions, copies scheduled, copies delivered)` so far; the
    /// difference between the first two is the number of dropped sends
    /// (minus duplicates).
    pub fn link_stats(&self) -> (u64, u64, u64) {
        (
            self.core.transmissions,
            self.core.copies_scheduled,
            self.core.copies_delivered,
        )
    }

    /// Executes one round. Returns the round number just executed.
    pub fn step(&mut self) -> Round {
        let round = self.core.dg.round() + 1;
        let n = self.nodes.len();
        // 1. Adversary commits G_r (sees last round's *transmissions*).
        let update = self
            .adversary
            .evolve(round, self.core.dg.current(), &self.last_sent);
        self.core.install_round(round, update, n);
        let delta = self.core.dg.last_delta();
        if self.core.cfg.charge_neighbor_discovery {
            self.core
                .meter
                .record_unicasts(MessageClass::Control, 2 * delta.inserted.len() as u64);
        }
        self.core.scratch.wake_endpoints(delta);
        // 2. Active nodes see neighbor IDs and queue messages; each message
        //    is metered at send time and routed through the link model.
        let mut sent = std::mem::take(&mut self.last_sent);
        sent.clear();
        let mut from = 0;
        while let Some(v) = self.core.scratch.next_active(from) {
            from = v.index() + 1;
            let neighbors = self.core.dg.current().neighbors(v);
            self.nodes[v.index()].send(round, neighbors, &mut self.outbox);
            if self.outbox.take_parked() {
                self.core.scratch.park(v);
            }
            for (to, msg) in self.outbox.drain() {
                assert!(
                    self.core.dg.current().has_edge(v, to),
                    "round {round}: {v} sent to non-neighbor {to}"
                );
                assert!(
                    msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                    "round {round}: {v} exceeded the bandwidth constraint"
                );
                self.core.meter.record_unicast(msg.class());
                self.core.transmit(&self.link, round, v, to, &msg);
                sent.push(SentRecord { from: v, to, msg });
            }
        }
        // 3. Delivery: everything due this round lands in mailboxes, then
        //    each receiver consumes its arrivals in FIFO order.
        let nodes = &mut self.nodes;
        self.core.deliver_arrivals(round, |to, sender, msg| {
            nodes[to.index()].receive(round, sender, msg)
        });
        let mut from = 0;
        while let Some(v) = self.core.scratch.next_live(from) {
            from = v.index() + 1;
            self.nodes[v.index()].end_round(round);
        }
        // 4. Global observation over this round's receivers.
        let (core, nodes) = (&mut self.core, &self.nodes);
        core.scratch
            .sync_tracker(round, &mut core.tracker, &mut core.tracer, |v| {
                nodes[v.index()].known_tokens()
            });
        self.last_sent = sent;
        round
    }

    /// Runs until every node is complete or `max_rounds` is hit.
    pub fn run_to_completion(&mut self) -> RunReport {
        while !self.core.tracker.all_complete() && self.core.dg.round() < self.core.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Runs until `pred(self)` is true (checked after each round) or
    /// `max_rounds` is hit.
    pub fn run_until<F: FnMut(&Self) -> bool>(&mut self, mut pred: F) -> RunReport {
        while !pred(self) && self.core.dg.round() < self.core.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Builds the report for the execution so far.
    pub fn report(&self) -> RunReport {
        self.core.report(self.nodes.len())
    }
}

/// Runs round-based **local-broadcast** protocols over a [`LinkModel`].
///
/// Each local broadcast is metered once (Definition 1.1) but its fate is
/// planned *per link*: with a lossy model, different neighbors of the same
/// broadcaster can independently miss the same broadcast.
pub struct BroadcastSynchronizer<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>, L: LinkModel>
{
    nodes: Vec<P>,
    adversary: A,
    link: L,
    core: RoundCore<P::Msg>,
}

impl<P, A, L> BroadcastSynchronizer<P, A, L>
where
    P: BroadcastProtocol,
    P::Msg: Clone,
    A: BroadcastAdversary<P::Msg>,
    L: LinkModel,
{
    /// Creates the adapter (see [`UnicastSynchronizer::new`]).
    ///
    /// # Panics
    ///
    /// Same validation as [`dynspread_sim::BroadcastSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link: L,
        link_seed: u64,
    ) -> Self {
        let adversary_name: Arc<str> =
            Arc::from(<A as BroadcastAdversary<P::Msg>>::name(&adversary));
        let core = RoundCore::new(
            Arc::from(algorithm_name.into()),
            adversary_name,
            nodes.len(),
            assignment,
            cfg,
            link_seed,
        );
        validate_nodes(
            nodes.iter().map(|p| p.known_tokens()),
            assignment,
            &core.tracker,
            nodes.len(),
        );
        BroadcastSynchronizer {
            nodes,
            adversary,
            link,
            core,
        }
    }

    /// Installs a [`Tracer`] receiving the deterministic trace stream
    /// (see [`UnicastSynchronizer::set_tracer`]).
    pub fn set_tracer(&mut self, tracer: impl Tracer + 'static) {
        self.core.tracer = Some(Box::new(tracer));
    }

    /// The tracker (read-only global observer).
    pub fn tracker(&self) -> &TokenTracker {
        &self.core.tracker
    }

    /// The message meter (counts transmissions, not deliveries).
    pub fn meter(&self) -> &MessageMeter {
        &self.core.meter
    }

    /// The dynamic graph.
    pub fn dynamic_graph(&self) -> &DynamicGraph {
        &self.core.dg
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, v: NodeId) -> &P {
        &self.nodes[v.index()]
    }

    /// Copies still in flight.
    pub fn in_flight(&self) -> usize {
        self.core.queue.len()
    }

    /// `(transmissions, copies scheduled, copies delivered)` — for
    /// broadcast, "transmissions" counts per-link plans, not broadcasts.
    pub fn link_stats(&self) -> (u64, u64, u64) {
        (
            self.core.transmissions,
            self.core.copies_scheduled,
            self.core.copies_delivered,
        )
    }

    /// Executes one round. Returns the round number just executed.
    pub fn step(&mut self) -> Round {
        let round = self.core.dg.round() + 1;
        let n = self.nodes.len();
        // 1. Nodes commit their broadcast choices first…
        let choices: Vec<Option<P::Msg>> = self
            .nodes
            .iter_mut()
            .map(|node| {
                let choice = node.broadcast(round);
                if let Some(msg) = &choice {
                    assert!(
                        msg.token_count() <= MAX_TOKENS_PER_MESSAGE,
                        "round {round}: broadcast exceeds the bandwidth constraint"
                    );
                }
                choice
            })
            .collect();
        // 2. …then the (strongly adaptive) adversary picks the topology.
        let update = self
            .adversary
            .evolve(round, self.core.dg.current(), &choices);
        self.core.install_round(round, update, n);
        // 3. Metering + link planning: one metered message per
        //    broadcaster, one link plan per current neighbor. The link
        //    state is split from the graph borrow so the neighbor slice
        //    is borrowed once per broadcaster, and the owned payload is
        //    cloned only per surviving copy (the last copy moves it).
        for (i, choice) in choices.into_iter().enumerate() {
            if let Some(msg) = choice {
                let v = NodeId::new(i as u32);
                let RoundCore {
                    dg,
                    meter,
                    queue,
                    rng,
                    fates,
                    plan,
                    transmissions,
                    copies_scheduled,
                    link_drops,
                    link_dups,
                    tracer,
                    ..
                } = &mut self.core;
                meter.record_broadcast(msg.class());
                emit(
                    tracer,
                    TraceRecord::Broadcast {
                        t: round,
                        from: v.value(),
                    },
                );
                let neighbors = dg.current().neighbors(v);
                plan.clear();
                for &w in neighbors {
                    *transmissions += 1;
                    fates.clear();
                    self.link.plan(v, w, round, rng, fates);
                    match fates.len() {
                        0 => {
                            *link_drops += 1;
                            emit(
                                tracer,
                                TraceRecord::Dropped {
                                    t: round,
                                    from: v.value(),
                                    to: w.value(),
                                },
                            );
                        }
                        1 => {}
                        k => *link_dups += (k - 1) as u64,
                    }
                    for &delay in fates.iter() {
                        plan.push((w, round + delay));
                        emit(
                            tracer,
                            TraceRecord::Scheduled {
                                t: round,
                                from: v.value(),
                                to: w.value(),
                                at: round + delay,
                            },
                        );
                    }
                    if fates.len() > 1 {
                        emit(
                            tracer,
                            TraceRecord::Duplicated {
                                t: round,
                                from: v.value(),
                                to: w.value(),
                                extra: (fates.len() - 1) as u32,
                            },
                        );
                    }
                }
                *copies_scheduled += plan.len() as u64;
                let mut payload = Some(msg);
                let last = plan.len().wrapping_sub(1);
                for (pi, &(to, at)) in plan.iter().enumerate() {
                    let m = if pi == last {
                        payload.take().expect("moved only once, at the end")
                    } else {
                        payload.as_ref().expect("present until the end").clone()
                    };
                    queue.schedule(
                        at,
                        Flight {
                            to,
                            from: v,
                            msg: m,
                        },
                    );
                }
            }
        }
        // 4. Delivery via mailboxes, FIFO per receiver.
        let nodes = &mut self.nodes;
        self.core.deliver_arrivals(round, |to, sender, msg| {
            nodes[to.index()].receive(round, sender, msg)
        });
        for node in self.nodes.iter_mut() {
            node.end_round(round);
        }
        // 5. Global observation over this round's receivers.
        let (core, nodes) = (&mut self.core, &self.nodes);
        core.scratch
            .sync_tracker(round, &mut core.tracker, &mut core.tracer, |v| {
                nodes[v.index()].known_tokens()
            });
        round
    }

    /// Runs until every node is complete or `max_rounds` is hit.
    pub fn run_to_completion(&mut self) -> RunReport {
        while !self.core.tracker.all_complete() && self.core.dg.round() < self.core.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Runs until `pred(self)` is true (checked after each round) or
    /// `max_rounds` is hit.
    pub fn run_until<F: FnMut(&Self) -> bool>(&mut self, mut pred: F) -> RunReport {
        while !pred(self) && self.core.dg.round() < self.core.cfg.max_rounds {
            self.step();
        }
        self.report()
    }

    /// Builds the report for the execution so far.
    pub fn report(&self) -> RunReport {
        self.core.report(self.nodes.len())
    }
}
