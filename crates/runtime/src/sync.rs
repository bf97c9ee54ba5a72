//! The synchronizer: the paper's round engine over a link transport.
//!
//! `dynspread-sim` has one round engine, [`RoundSim`], with one step body
//! per communication mode, generic over a [`Transport`]. This module
//! supplies the transport that is about links — [`LinkTransport`] routes
//! every transmitted message through a [`LinkModel`] and the runtime's
//! event queue: each copy that survives the link waits on the queue until
//! round `send round + delay` and is handed to its receiver in that round's
//! delivery phase, straight from the queue. One virtual-clock tick equals
//! one round. [`Synchronizer`] is [`RoundSim`] built with it, driving the
//! *unchanged* `UnicastProtocol`/`BroadcastProtocol` state machines;
//! [`UnicastSynchronizer`] and [`BroadcastSynchronizer`] name its two
//! modes.
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
use dynspread_sim::adversary::SentRecord;
use dynspread_sim::profile::{self, Phase};
use dynspread_sim::sim::{
    BroadcastRound, RoundIo, RoundMode, RoundSim, SimConfig, Transport, UnicastRound,
};
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
    copies_delivered: u64,
}

impl<M, L: LinkModel> LinkTransport<M, L> {
    fn new(link: L, link_seed: u64) -> Self {
        LinkTransport {
            planner: LinkPlanner::new(link, link_seed),
            queue: EventQueue::new(),
            plan: Vec::new(),
            copies_delivered: 0,
        }
    }
}

impl<M: Clone, L: LinkModel> Transport<M> for LinkTransport<M, L> {
    fn unicast(&mut self, round: Round, from: NodeId, to: NodeId, msg: &M, io: &mut RoundIo) {
        profile::lap(&mut io.prof, Phase::ProtocolSend);
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

/// Runs round-based protocols over a [`LinkModel`]: [`RoundSim`] on a
/// [`LinkTransport`], which it derefs to.
pub struct Synchronizer<R: RoundMode, L>(RoundSim<R, LinkTransport<R::Msg, L>>);

/// Round-based **unicast** protocols over a [`LinkModel`].
pub type UnicastSynchronizer<P, A, L> = Synchronizer<UnicastRound<P, A>, L>;

/// Round-based **local-broadcast** protocols over a [`LinkModel`].
pub type BroadcastSynchronizer<P, A, L> = Synchronizer<BroadcastRound<P, A>, L>;

impl<R: RoundMode, L: LinkModel> Synchronizer<R, L>
where
    R::Msg: Clone,
{
    /// Creates the engine. `link_seed` seeds the link model's RNG stream
    /// (independent of the adversary's seed).
    ///
    /// # Panics
    ///
    /// Same validation as [`RoundSim::new`].
    pub fn new(
        algorithm_name: impl Into<String>,
        nodes: Vec<R::Node>,
        adversary: R::Adversary,
        assignment: &TokenAssignment,
        cfg: SimConfig,
        link: L,
        link_seed: u64,
    ) -> Self {
        let transport = LinkTransport::new(link, link_seed);
        Synchronizer(RoundSim::with_transport(
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

    /// `(transmissions, copies scheduled, copies delivered)` so far. A
    /// transmission is one per-link plan — one per unicast, one per
    /// neighbor of a local broadcast — so it is the report's `link_sends`.
    pub fn link_stats(&self) -> (u64, u64, u64) {
        let link = self.0.transport();
        let scheduled = link.planner.copies_scheduled;
        (self.0.report().link_sends, scheduled, link.copies_delivered)
    }
}

impl<R: RoundMode, L> Deref for Synchronizer<R, L> {
    type Target = RoundSim<R, LinkTransport<R::Msg, L>>;

    fn deref(&self) -> &Self::Target {
        &self.0
    }
}

impl<R: RoundMode, L> DerefMut for Synchronizer<R, L> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.0
    }
}
