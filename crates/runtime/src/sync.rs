//! Synchronizers: the paper's round engines over a link transport.
//!
//! `dynspread-sim` has one round loop per communication mode, generic over
//! a [`Transport`]. This module supplies the transport that is about links
//! — [`LinkTransport`] routes every transmitted message through a
//! [`LinkModel`] and the runtime's event queue: each copy that survives the
//! link waits on the queue until round `send round + delay` and is handed
//! to its receiver in that round's delivery phase, straight from the queue.
//! One virtual-clock tick equals one round. [`UnicastSynchronizer`] and
//! [`BroadcastSynchronizer`] are [`UnicastSim`] and [`BroadcastSim`] built
//! with it, driving the *unchanged* `UnicastProtocol`/`BroadcastProtocol`
//! state machines.
//!
//! **Equivalence contract**: under [`PerfectLink`](crate::link::PerfectLink)
//! (zero latency, no loss, no duplication) every copy arrives in the round
//! it was sent, and the queue's `(time, scheduling order)` order is then
//! send order — the order [`Direct`](dynspread_sim::sim::Direct) hands
//! over in. The rest of the round — adversary interaction, model-invariant
//! assertions, metering, tracker sync order — is the same engine code, so
//! the two transports make the same `receive` calls in the same order: the
//! [`RunReport`], the learning log and the trace (less the link
//! transport's own `sched` records; in a broadcast round the `deliver`
//! records follow the round's `bcast` records instead of interleaving with
//! them) are byte-for-byte identical for the same seed. This is tested in
//! `tests/runtime_equivalence.rs` at the workspace root and searched by a
//! proptest in `crates/runtime/tests/properties.rs`.
//!
//! Two semantic choices for the lossy/latent case, both deliberate:
//!
//! * **Metering counts transmissions**, not deliveries — a dropped message
//!   still cost its send (Definition 1.1 charges sends).
//! * **In-flight messages are not tied to the edge** that carried them:
//!   once the link model schedules a copy, it arrives at its time even if
//!   the adversary has since removed the edge (the copy is "in the air").
//!   Copies due in the same round are received in scheduling order.

use crate::event::{EventQueue, VirtualTime};
use crate::link::{LinkModel, LinkPlanner};
use dynspread_graph::{NodeId, Round};
use dynspread_sim::adversary::{BroadcastAdversary, SentRecord, UnicastAdversary};
use dynspread_sim::profile::{self, Phase};
use dynspread_sim::protocol::{BroadcastProtocol, UnicastProtocol};
use dynspread_sim::sim::{BroadcastSim, RoundIo, SimConfig, Transport, UnicastSim};
use dynspread_sim::token::TokenAssignment;
use dynspread_sim::RunReport;
use std::ops::{Deref, DerefMut};

/// A copy in flight: who it is for, who sent it, and the payload.
struct Flight<M> {
    to: NodeId,
    from: NodeId,
    msg: M,
}

/// The [`Transport`] that plans every transmission through a [`LinkModel`]:
/// surviving copies wait on an event queue until the delivery phase of
/// their arrival round.
pub struct LinkTransport<M, L> {
    planner: LinkPlanner<L>,
    queue: EventQueue<Flight<M>>,
    /// Per-broadcast fan-out plan `(destination, arrival time)`, reused
    /// across broadcasters so the payload can be cloned per surviving
    /// copy (move-last) instead of per neighbor.
    plan: Vec<(NodeId, VirtualTime)>,
    transmissions: u64,
    copies_delivered: u64,
}

impl<M, L: LinkModel> LinkTransport<M, L> {
    fn new(link: L, link_seed: u64) -> Self {
        LinkTransport {
            planner: LinkPlanner::new(link, link_seed),
            queue: EventQueue::new(),
            plan: Vec::new(),
            transmissions: 0,
            copies_delivered: 0,
        }
    }

    fn link_stats(&self) -> (u64, u64, u64) {
        (
            self.transmissions,
            self.planner.copies_scheduled,
            self.copies_delivered,
        )
    }
}

impl<M: Clone, L: LinkModel> Transport<M> for LinkTransport<M, L> {
    fn unicast(&mut self, round: Round, from: NodeId, to: NodeId, msg: &M, io: &mut RoundIo) {
        profile::lap(&mut io.prof, Phase::ProtocolSend);
        self.transmissions += 1;
        for &delay in self.planner.plan(round, from, to, &mut io.tracer) {
            let msg = msg.clone();
            self.queue.schedule(round + delay, Flight { to, from, msg });
        }
        profile::lap(&mut io.prof, Phase::LinkPlanning);
    }

    /// One link plan per neighbor: different neighbors of the same
    /// broadcaster fare independently. The owned payload is cloned only per
    /// surviving copy (the last copy moves it).
    fn broadcast<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        from: NodeId,
        neighbors: &[NodeId],
        msg: M,
        io: &mut RoundIo,
        _receive: F,
    ) {
        self.plan.clear();
        self.transmissions += neighbors.len() as u64;
        for &to in neighbors {
            let fates = self.planner.plan(round, from, to, &mut io.tracer);
            self.plan
                .extend(fates.iter().map(|&delay| (to, round + delay)));
        }
        if let Some((&(last_to, last_at), rest)) = self.plan.split_last() {
            for &(to, at) in rest {
                let msg = msg.clone();
                self.queue.schedule(at, Flight { to, from, msg });
            }
            let to = last_to;
            self.queue.schedule(last_at, Flight { to, from, msg });
        }
        profile::lap(&mut io.prof, Phase::LinkPlanning);
    }

    /// Hands over every copy due now, in the queue's `(time, scheduling
    /// order)` order.
    fn deliver<F: FnMut(NodeId, NodeId, &M)>(
        &mut self,
        round: Round,
        _sent: &[SentRecord<M>],
        io: &mut RoundIo,
        mut receive: F,
    ) {
        while let Some((_, flight)) = self.queue.pop_due(round) {
            self.copies_delivered += 1;
            receive(flight.to, flight.from, &flight.msg);
            io.delivered(round, flight.from, flight.to);
        }
    }

    fn stamp(&self, report: &mut RunReport) {
        report.link_drops = self.planner.drops;
        report.link_duplicates = self.planner.dups;
    }
}

/// Runs round-based **unicast** protocols over a [`LinkModel`]:
/// [`UnicastSim`] on a [`LinkTransport`], which it derefs to.
pub struct UnicastSynchronizer<P: UnicastProtocol, A: UnicastAdversary<P::Msg>, L>(
    UnicastSim<P, A, LinkTransport<P::Msg, L>>,
);

impl<P, A, L> UnicastSynchronizer<P, A, L>
where
    P: UnicastProtocol,
    P::Msg: Clone,
    A: UnicastAdversary<P::Msg>,
    L: LinkModel,
{
    /// Creates the engine. `link_seed` seeds the link model's RNG stream
    /// (independent of the adversary's seed).
    ///
    /// # Panics
    ///
    /// Same validation as [`UnicastSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link: L,
        link_seed: u64,
    ) -> Self {
        let transport = LinkTransport::new(link, link_seed);
        UnicastSynchronizer(UnicastSim::with_transport(
            algorithm_name,
            nodes,
            adversary,
            assignment,
            cfg,
            transport,
        ))
    }

    /// Copies still in flight (scheduled but not yet arrived).
    pub fn in_flight(&self) -> usize {
        self.0.transport().queue.len()
    }

    /// `(transmissions, copies scheduled, copies delivered)` so far; a
    /// transmission is one per-link plan.
    pub fn link_stats(&self) -> (u64, u64, u64) {
        self.0.transport().link_stats()
    }
}

impl<P: UnicastProtocol, A: UnicastAdversary<P::Msg>, L> Deref for UnicastSynchronizer<P, A, L> {
    type Target = UnicastSim<P, A, LinkTransport<P::Msg, L>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<P: UnicastProtocol, A: UnicastAdversary<P::Msg>, L> DerefMut for UnicastSynchronizer<P, A, L> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}

/// Runs round-based **local-broadcast** protocols over a [`LinkModel`]:
/// [`BroadcastSim`] on a [`LinkTransport`], which it derefs to.
pub struct BroadcastSynchronizer<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>, L>(
    BroadcastSim<P, A, LinkTransport<P::Msg, L>>,
);

impl<P, A, L> BroadcastSynchronizer<P, A, L>
where
    P: BroadcastProtocol,
    P::Msg: Clone,
    A: BroadcastAdversary<P::Msg>,
    L: LinkModel,
{
    /// Creates the engine (see [`UnicastSynchronizer::new`]).
    ///
    /// # Panics
    ///
    /// Same validation as [`BroadcastSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<P>,
        adversary: A,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link: L,
        link_seed: u64,
    ) -> Self {
        let transport = LinkTransport::new(link, link_seed);
        BroadcastSynchronizer(BroadcastSim::with_transport(
            algorithm_name,
            nodes,
            adversary,
            assignment,
            cfg,
            transport,
        ))
    }

    /// Copies still in flight.
    pub fn in_flight(&self) -> usize {
        self.0.transport().queue.len()
    }

    /// `(transmissions, copies scheduled, copies delivered)` — for
    /// broadcast, "transmissions" counts per-link plans, not broadcasts.
    pub fn link_stats(&self) -> (u64, u64, u64) {
        self.0.transport().link_stats()
    }
}

impl<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>, L> Deref
    for BroadcastSynchronizer<P, A, L>
{
    type Target = BroadcastSim<P, A, LinkTransport<P::Msg, L>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<P: BroadcastProtocol, A: BroadcastAdversary<P::Msg>, L> DerefMut
    for BroadcastSynchronizer<P, A, L>
{
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
