//! The asynchronous port of Oblivious-Multi-Source-Unicast (Algorithm 2).
//!
//! Same decisions as the round-based pipeline in
//! `dynspread_core::oblivious` — seeded center self-election, lazy
//! random-walk token steps with high-degree center hand-offs (phase 1),
//! then Multi-Source-Unicast from the token owners (phase 2) — carried by
//! the event runtime's reliability machinery instead of the synchronous
//! model's:
//!
//! * **Walk steps are ownership transfers, not fire-and-forget sends.**
//!   A planned step opens a per-neighbor transfer window (the request
//!   ports' discipline: one outstanding transfer per edge, kept in an
//!   [`Outstanding`] record and re-sent on an adaptive-backoff heartbeat)
//!   tagged with a per-sender sequence number. The sender stays *responsible*
//!   for the token until the matching [`AsyncOblMsg::WalkAck`] arrives;
//!   the receiver applies a transfer at most once (sequence dedup on top
//!   of the idempotent
//!   [`WalkCore::accept`](dynspread_core::walk::WalkCore::accept)) and
//!   re-acks duplicates. Under drops and duplication, ownership of each
//!   step therefore moves **exactly once**: a lost `Walk` is
//!   retransmitted, a lost `WalkAck` is re-elicited by the
//!   retransmission, and duplicated copies are absorbed. If the adversary
//!   removes the edge mid-transfer the sender reclaims the token
//!   (conservative: the sender stays responsible), so a token can
//!   transiently gain a second claimant, and the phase hand-off resolves
//!   claimants deterministically. Only on lossless FIFO links does a token
//!   never lose its last: over drops or two ticks of jitter it can walk
//!   back to a node whose own transfer of it is still open, and the late
//!   `WalkAck` then releases it for good (the hand-off counts the orphan
//!   as `stolen_recovered`).
//! * **The phase-1 → phase-2 transition is distributed.** The synchronous
//!   pipeline stops phase 1 by *global observation* (the harness checks
//!   every node's transit count each round). Here each node detects its
//!   own quiescence — no queued tokens and no open transfers means no
//!   re-armed heartbeat — so the phase ends when the event queue drains,
//!   an emergent property of local decisions. The conservative fallback
//!   is a per-node deadline on the virtual clock
//!   ([`AsyncObliviousConfig::phase1_deadline`]): a node still holding
//!   tokens at its deadline freezes (keeps ownership, stops walking) and
//!   becomes a fallback phase-2 source, exactly like the sync version's
//!   round-cap stranding.
//! * **Center discovery is pull-based.** Centers answer
//!   [`AsyncOblMsg::Probe`]s from token owners instead of relying on
//!   one-shot announcements, so discovery survives drops and topology
//!   churn without centers having to keep timers alive.
//!
//! Phase 2 is the existing [`AsyncMultiSource`] core, fed with the
//! harvested ownership map (owners = sources) and knowledge snapshot by
//! [`Scenario::run_oblivious`](crate::scenario::Scenario::run_oblivious)
//! — the same hand-off the synchronous `run_oblivious_multi_source`
//! performs, against the asynchronous engine.

use super::{AsyncConfig, Retransmitter};
use crate::engine::{EventCtx, EventProtocol};
use crate::event::VirtualTime;
use crate::faults::RecoveryMode;
use dynspread_core::edge_history::Outstanding;
use dynspread_core::walk::{elect_centers, WalkCore};
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use std::collections::BTreeMap;

/// Messages of the asynchronous random-walk phase.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncOblMsg {
    /// "Are you a center?" — pull-based discovery from token owners.
    Probe,
    /// "I am a center" — answers probes (and one best-effort broadcast at
    /// start); idempotent, so it needs no acknowledgment.
    CenterAnnounce,
    /// One random-walk ownership transfer, retransmitted until
    /// acknowledged. `seq` is unique per sender and strictly increasing,
    /// which is what lets the receiver tell a retransmission from a new
    /// transfer of the same token.
    Walk {
        /// The token whose ownership is being transferred.
        token: TokenId,
        /// The sender's transfer sequence number.
        seq: u64,
    },
    /// Acknowledges a `Walk` transfer (sent on every receipt, including
    /// duplicates, so a lost ack is re-elicited by the retransmission).
    WalkAck {
        /// The transferred token.
        token: TokenId,
        /// The acknowledged transfer's sequence number.
        seq: u64,
    },
}

/// Timer id of the walk heartbeat (the only timer this protocol arms).
const HEARTBEAT: u64 = 0;

/// Per-node state of the asynchronous random-walk phase (phase 1 of the
/// oblivious algorithm).
///
/// Drive it with
/// [`Scenario::run_oblivious`](crate::scenario::Scenario::run_oblivious)
/// for the full two-phase pipeline, or directly under an [`EventSim`](crate::engine::EventSim) (no tracking: the phase's goal is
/// center ownership, not dissemination — the run ends at quiescence):
///
/// ```
/// use dynspread_graph::{oblivious::StaticAdversary, Graph};
/// use dynspread_runtime::engine::{EventSim, StopReason};
/// use dynspread_runtime::link::DropLink;
/// use dynspread_runtime::protocol::{AsyncConfig, AsyncOblivious};
/// use dynspread_sim::token::TokenAssignment;
///
/// let assignment = TokenAssignment::n_gossip(8);
/// let nodes = AsyncOblivious::nodes(&assignment, 0.25, 1.0, 7, AsyncConfig::default(), 5_000);
/// let mut sim = EventSim::new(
///     nodes,
///     StaticAdversary::new(Graph::complete(8)),
///     DropLink::new(0.3),
///     2,
///     11,
/// );
/// // Local quiescence: every node sheds or freezes its tokens, the queue
/// // drains, and the run stops on its own.
/// assert_eq!(sim.run(20_000).stopped, StopReason::Quiescent);
/// let claimants: usize = (0..8)
///     .map(|v| sim.node(dynspread_graph::NodeId::new(v)).responsible_tokens().count())
///     .sum();
/// assert!(claimants >= 8, "no claim lost on this run");
/// ```
#[derive(Clone, Debug)]
pub struct AsyncOblivious {
    /// Shared transport-agnostic decision state (same type the
    /// round-based node uses).
    walk: WalkCore,
    /// One open ownership transfer per neighbor, tagged with its `seq`.
    transfers: Outstanding<u64>,
    /// Next transfer sequence number (unique per sender, starts at 1).
    next_seq: u64,
    /// Per-sender highest applied transfer sequence — the receiver half
    /// of exactly-once: a transfer at or below it is a duplicate.
    seen: BTreeMap<NodeId, u64>,
    /// Heartbeat pacing with adaptive backoff.
    pacer: Retransmitter,
    /// Virtual time at which this node freezes (conservative fallback).
    deadline: VirtualTime,
    /// Frozen: past the deadline; keeps ownership, stops walking.
    frozen: bool,
    /// Whether a heartbeat is currently armed (avoid double-arming).
    timer_armed: bool,
    /// Duplicate transfer deliveries absorbed (observability).
    duplicate_transfers: u64,
}

impl AsyncOblivious {
    /// Creates node `v`. `gamma` is the high-degree threshold γ; `seed`
    /// is the shared phase seed; `deadline` is the virtual time at which
    /// the node freezes.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the retransmission configuration
    /// is invalid.
    pub fn new(
        v: NodeId,
        assignment: &TokenAssignment,
        is_center: bool,
        gamma: f64,
        seed: u64,
        cfg: AsyncConfig,
        deadline: VirtualTime,
    ) -> Self {
        let n = assignment.node_count();
        assert!(v.index() < n, "node out of range");
        AsyncOblivious {
            walk: WalkCore::new(
                v,
                assignment.initial_knowledge(v),
                is_center,
                n,
                gamma,
                seed,
            ),
            transfers: Outstanding::default(),
            next_seq: 1,
            seen: BTreeMap::new(),
            pacer: Retransmitter::new(cfg),
            deadline,
            frozen: false,
            timer_armed: false,
            duplicate_transfers: 0,
        }
    }

    /// Builds all `n` node protocols, electing centers with probability
    /// `p_center` from the shared `seed` (same election as the
    /// synchronous pipeline under the same seed).
    pub fn nodes(
        assignment: &TokenAssignment,
        p_center: f64,
        gamma: f64,
        seed: u64,
        cfg: AsyncConfig,
        deadline: VirtualTime,
    ) -> Vec<AsyncOblivious> {
        let is_center = elect_centers(assignment.node_count(), p_center, seed);
        NodeId::all(assignment.node_count())
            .map(|v| {
                AsyncOblivious::new(
                    v,
                    assignment,
                    is_center[v.index()],
                    gamma,
                    seed,
                    cfg,
                    deadline,
                )
            })
            .collect()
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.walk.id()
    }

    /// Whether this node elected itself a center.
    pub fn is_center(&self) -> bool {
        self.walk.is_center()
    }

    /// Tokens this node is still responsible for (queued, in an open
    /// transfer, or collected if a center), in increasing token order.
    pub fn responsible_tokens(&self) -> impl Iterator<Item = TokenId> + '_ {
        self.walk.responsible_tokens()
    }

    /// Tokens owned and still in transit (0 for centers).
    pub fn tokens_in_transit(&self) -> usize {
        self.walk.tokens_in_transit()
    }

    /// Duplicate transfer deliveries absorbed by the sequence dedup.
    pub fn duplicate_transfers(&self) -> u64 {
        self.duplicate_transfers
    }

    /// Whether any walk work remains: queued tokens or open transfers.
    /// Centers never have walk work (their holdings are final).
    fn has_walk_work(&self) -> bool {
        !self.walk.is_center() && (self.walk.has_queued() || !self.transfers.is_empty())
    }

    /// Arms the heartbeat if there is work and none is armed.
    fn ensure_heartbeat(&mut self, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        if !self.frozen && !self.timer_armed && self.has_walk_work() {
            ctx.set_timer(self.pacer.current(), HEARTBEAT);
            self.timer_armed = true;
        }
    }
}

impl EventProtocol for AsyncOblivious {
    type Msg = AsyncOblMsg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        if self.walk.is_center() {
            // Best-effort hello; probes carry discovery from here on.
            ctx.broadcast(AsyncOblMsg::CenterAnnounce);
        }
        self.ensure_heartbeat(ctx);
    }

    fn on_message(&mut self, from: NodeId, msg: &AsyncOblMsg, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        match msg {
            AsyncOblMsg::Probe => {
                if self.walk.is_center() {
                    ctx.send(from, AsyncOblMsg::CenterAnnounce);
                }
            }
            AsyncOblMsg::CenterAnnounce => {
                if self.walk.note_center(from) {
                    self.pacer.progress(ctx);
                }
            }
            AsyncOblMsg::Walk { token, seq } => {
                let last = self.seen.get(&from).copied().unwrap_or(0);
                if *seq > last {
                    // New transfer: take ownership (idempotent — if a
                    // reclaimed transfer already made us responsible,
                    // accept() absorbs it and the ack below heals the
                    // double claim at the sender).
                    self.seen.insert(from, *seq);
                    if self.walk.accept(*token) {
                        self.pacer.progress(ctx);
                    }
                } else {
                    // Retransmission of an applied transfer: ownership
                    // moved already; just re-ack.
                    self.duplicate_transfers += 1;
                }
                ctx.send(
                    from,
                    AsyncOblMsg::WalkAck {
                        token: *token,
                        seq: *seq,
                    },
                );
                self.ensure_heartbeat(ctx);
            }
            AsyncOblMsg::WalkAck { token, seq } => {
                if self.transfers.close(from, *token, *seq) {
                    // The receiver applied this exact transfer: ownership
                    // has moved, release our responsibility.
                    self.walk.confirm_transfer(*token);
                    self.pacer.progress(ctx);
                }
                // Stale acks (an earlier, since-reclaimed transfer) are
                // ignored; the hand-off dedups any resulting double claim.
            }
        }
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        if mode == RecoveryMode::Amnesia {
            // Open transfers are volatile: responsibility was never
            // released (the ack did not arrive before the crash), so the
            // tokens go back on the walk queue, and the per-edge sequence
            // bindings and receiver-side dedup map are forgotten. A stale
            // retransmission can then be re-applied, transiently giving a
            // token a second claimant — the hand-off already resolves
            // that, and conservation holds either way. `next_seq` is the
            // one piece of send state modeled as durably persisted:
            // restarting at 1 would make every post-recovery transfer
            // look like a stale replay to peers whose `seen` entries for
            // us survived.
            self.transfers.clear(|t| self.walk.reclaim(t));
            self.seen.clear();
        }
        // The engine invalidated the pre-crash heartbeat.
        self.timer_armed = false;
        self.pacer.reset();
        if self.walk.is_center() {
            ctx.broadcast(AsyncOblMsg::CenterAnnounce);
        }
        self.ensure_heartbeat(ctx);
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        // Snap a partition-capped backoff back to base; re-arm in case
        // the node still owes walk work (a frozen or quiescent node
        // stays quiet).
        self.pacer.progress(ctx);
        self.ensure_heartbeat(ctx);
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut EventCtx<'_, AsyncOblMsg>) {
        self.timer_armed = false;
        if self.frozen {
            return;
        }
        if ctx.now() >= self.deadline {
            // Conservative fallback: keep everything still owned (queued
            // or mid-transfer) and become a phase-2 source for it.
            self.frozen = true;
            return;
        }
        if !self.has_walk_work() {
            // Local quiescence: nothing queued, nothing in flight. No
            // re-arm — an arriving transfer re-awakens us.
            return;
        }
        let nbrs = ctx.neighbors();
        // 1. Transfers to churned-away neighbors are reclaimed: the token
        //    goes back on the queue (responsibility was never released).
        self.transfers
            .retain(|u| nbrs.binary_search(&u).is_ok(), |t| self.walk.reclaim(t));
        // 2. Retransmit still-open transfers.
        for (u, token, seq) in self.transfers.iter() {
            ctx.send(u, AsyncOblMsg::Walk { token, seq });
            ctx.note_retransmission();
        }
        // 3. Plan fresh steps into free transfer windows (ownership stays
        //    here until the ack: detach = false).
        self.walk.plan(nbrs, false, |u, t| {
            if self.transfers.outstanding(u).is_some() {
                return false; // one outstanding transfer per edge
            }
            let seq = self.next_seq;
            self.next_seq += 1;
            self.transfers.open(u, t, seq);
            ctx.send(u, AsyncOblMsg::Walk { token: t, seq });
            true
        });
        // 4. High-degree discovery: probe neighbors not yet known to be
        //    centers (low-degree nodes walk blindly, as in the paper).
        if self.walk.high_degree(nbrs.len()) {
            for &u in nbrs {
                if !self.walk.knows_center(u) {
                    ctx.send(u, AsyncOblMsg::Probe);
                }
            }
        }
        // 5. Re-arm with backoff (reset on progress).
        ctx.set_timer(self.pacer.next_delay(), HEARTBEAT);
        self.timer_armed = true;
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        Some(self.walk.known_tokens())
    }
}

/// Configuration of the asynchronous two-phase oblivious pipeline.
#[derive(Clone, Copy, Debug)]
pub struct AsyncObliviousConfig {
    /// Shared seed: center election, walk randomness, and (xored with
    /// fixed salts) the two engines' link/scheduling seeds.
    pub seed: u64,
    /// Retransmission tuning for both phases' protocols.
    pub retransmit: AsyncConfig,
    /// Virtual ticks per topology epoch (both phases).
    pub ticks_per_round: VirtualTime,
    /// Virtual time at which phase-1 nodes freeze and keep their tokens
    /// (the conservative fallback replacing the sync round cap `ℓ`).
    pub phase1_deadline: VirtualTime,
    /// Hard cap on the phase-1 run — only drain slack past the deadline;
    /// the run normally ends at quiescence well before it.
    pub phase1_max_time: VirtualTime,
    /// Hard cap on the phase-2 run.
    pub phase2_max_time: VirtualTime,
    /// Override for the center-election probability (default `f/n` with
    /// the paper's `f`, clamped to `[0, 1]`).
    pub center_probability: Option<f64>,
    /// Override for the high-degree threshold γ (default `(n log n)/f`).
    pub degree_threshold: Option<f64>,
    /// Override for the source-count threshold deciding whether phase 1
    /// runs at all (default `n^{2/3} log^{5/3} n`).
    pub source_threshold: Option<f64>,
}

impl Default for AsyncObliviousConfig {
    fn default() -> Self {
        AsyncObliviousConfig {
            seed: 0,
            retransmit: AsyncConfig::default(),
            ticks_per_round: 2,
            phase1_deadline: 50_000,
            phase1_max_time: 100_000,
            phase2_max_time: 2_000_000,
            center_probability: None,
            degree_threshold: None,
            source_threshold: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EventReport, EventSim, StopReason};
    use crate::link::{DropLink, LinkModel, LinkModelExt, PerfectLink};
    use crate::scenario::Scenario;
    use dynspread_graph::adversary::Adversary;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::{PeriodicRewiring, StaticAdversary};
    use dynspread_graph::Graph;

    /// Runs phase 1 alone and returns (sim, report).
    fn run_phase1<A: Adversary, L: LinkModel>(
        assignment: &TokenAssignment,
        adversary: A,
        link: L,
        seed: u64,
        deadline: VirtualTime,
    ) -> (EventSim<AsyncOblivious, A, L>, EventReport) {
        let nodes = AsyncOblivious::nodes(
            assignment,
            0.25,
            1.0,
            seed,
            AsyncConfig::default(),
            deadline,
        );
        let mut sim = EventSim::new(nodes, adversary, link, 2, seed ^ 0xA5);
        let report = sim.run(2 * deadline + 1_000);
        (sim, report)
    }

    /// How many nodes are responsible for each token.
    fn claimants<A: Adversary, L: LinkModel>(
        sim: &EventSim<AsyncOblivious, A, L>,
        n: usize,
    ) -> Vec<usize> {
        let mut claimants = vec![0usize; n];
        for v in NodeId::all(n) {
            for t in sim.node(v).responsible_tokens() {
                claimants[t.index()] += 1;
            }
        }
        claimants
    }

    /// Exactly-once under drops and duplication: on a *static* topology
    /// no transfer is ever reclaimed, so every token must end with
    /// exactly one responsible claimant even though the link drops and
    /// duplicates transfers freely.
    #[test]
    fn ownership_moves_exactly_once_under_drop_and_duplication() {
        let n = 10;
        let assignment = TokenAssignment::n_gossip(n);
        let link = DropLink::new(0.4).duplicating(0.3).with_jitter(2);
        let (sim, report) = run_phase1(
            &assignment,
            StaticAdversary::new(Graph::complete(n)),
            link,
            13,
            50_000,
        );
        assert_eq!(report.stopped, StopReason::Quiescent, "{report}");
        assert_eq!(
            claimants(&sim, n),
            vec![1; n],
            "static topology: exactly one claimant per token"
        );
        // The duplicating link actually exercised the dedup path.
        let dups: u64 = NodeId::all(n)
            .map(|v| sim.node(v).duplicate_transfers())
            .sum();
        assert!(dups > 0, "expected duplicate transfers to be absorbed");
        // All tokens ended at centers (complete graph: every owner is
        // adjacent to every center, γ = 1 makes everyone high-degree).
        for v in NodeId::all(n) {
            let node = sim.node(v);
            if !node.is_center() {
                assert_eq!(node.tokens_in_transit(), 0, "{v} still owns tokens");
            }
        }
    }

    /// Under churn a token may transiently gain a second claimant. This
    /// seed also loses none, though over drops a token can lose its last
    /// (see the module doc).
    #[test]
    fn responsibility_is_never_destroyed_under_churn_and_loss() {
        let n = 12;
        let assignment = TokenAssignment::n_gossip(n);
        let (sim, _report) = run_phase1(
            &assignment,
            PeriodicRewiring::new(Topology::Gnp(0.3), 3, 5),
            DropLink::new(0.3).with_jitter(2),
            17,
            3_000,
        );
        for (t, &c) in claimants(&sim, n).iter().enumerate() {
            assert!(c >= 1, "token t{t} lost its last claimant");
        }
    }

    /// Local quiescence: with every node a center, nothing ever walks
    /// and the run drains immediately.
    #[test]
    fn all_centers_quiesce_immediately() {
        let n = 6;
        let assignment = TokenAssignment::n_gossip(n);
        let nodes = AsyncOblivious::nodes(&assignment, 1.0, 1.0, 3, AsyncConfig::default(), 1_000);
        assert!(nodes.iter().all(AsyncOblivious::is_center));
        let mut sim = EventSim::new(
            nodes,
            StaticAdversary::new(Graph::cycle(n)),
            PerfectLink,
            2,
            9,
        );
        let report = sim.run(10_000);
        assert_eq!(report.stopped, StopReason::Quiescent);
        // Only the start-time hello broadcasts happened; no timers fired.
        assert!(report.final_time <= 1, "{report}");
    }

    /// Phase 1 on a static path whose one center the far-end owners rarely
    /// reach before the deadline at tick 40; returns each token's
    /// claimant count.
    fn frozen_path<L: LinkModel>(link: L, seed: u64) -> Vec<usize> {
        let n = 6;
        let assignment = TokenAssignment::n_gossip(n);
        // Probability 0 forces exactly one center.
        let nodes = AsyncOblivious::nodes(
            &assignment,
            0.0,
            f64::INFINITY, // everyone low-degree: lazy walk only
            11,
            AsyncConfig::default(),
            40,
        );
        let mut sim = EventSim::new(nodes, StaticAdversary::new(Graph::path(n)), link, 2, seed);
        let report = sim.run(10_000);
        assert_eq!(report.stopped, StopReason::Quiescent, "{report}");
        claimants(&sim, n)
    }

    /// The deadline freeze is the conservative fallback: a node that
    /// cannot shed its tokens keeps them and stops.
    #[test]
    fn deadline_freezes_owners_with_their_tokens() {
        let claimants = frozen_path(PerfectLink, 21);
        assert!(!claimants.contains(&0), "an orphan: {claimants:?}");
    }

    /// On a perfect link, bare or with one tick of jitter, no token loses
    /// its last claimant. (Over drops or wider jitter a late `WalkAck` can
    /// orphan a token: see the module doc.)
    #[test]
    fn every_token_keeps_a_claimant_on_fifo_links() {
        for seed in 0..64 {
            for claimants in [
                frozen_path(PerfectLink, seed),
                frozen_path(PerfectLink.with_jitter(1), seed),
            ] {
                assert!(!claimants.contains(&0), "seed {seed}: {claimants:?}");
            }
        }
    }

    /// Seeded replay identity of the full two-phase pipeline.
    #[test]
    fn pipeline_is_replay_identical() {
        let assignment = TokenAssignment::n_gossip(10);
        let cfg = AsyncObliviousConfig {
            seed: 23,
            source_threshold: Some(1.0),
            center_probability: Some(0.3),
            phase1_deadline: 5_000,
            phase1_max_time: 12_000,
            ..AsyncObliviousConfig::default()
        };
        let run = || {
            Scenario::from_assignment(assignment.clone())
                .topology(PeriodicRewiring::new(Topology::Gnp(0.3), 3, 31))
                .link(DropLink::new(0.3).with_jitter(2))
                .run_oblivious(
                    PeriodicRewiring::new(Topology::RandomTree, 3, 32),
                    DropLink::new(0.3).with_jitter(2),
                    &cfg,
                    None,
                )
        };
        let (a, b) = (run(), run());
        assert!(a.completed);
        assert_eq!(format!("{:?}", a.phase1), format!("{:?}", b.phase1));
        assert_eq!(format!("{:?}", a.phase2), format!("{:?}", b.phase2));
        assert_eq!(a.centers, b.centers);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.stranded_tokens, b.stranded_tokens);
        assert!(a.final_knowledge == b.final_knowledge);
    }

    /// The direct path (few sources) skips phase 1 entirely.
    #[test]
    fn direct_path_taken_for_few_sources() {
        let assignment = TokenAssignment::round_robin_sources(10, 8, 2);
        let out = Scenario::from_assignment(assignment.clone())
            .topology(StaticAdversary::new(Graph::path(10)))
            .run_oblivious(
                PeriodicRewiring::new(Topology::RandomTree, 3, 5),
                PerfectLink,
                &AsyncObliviousConfig::default(), // paper threshold ≫ 2 sources
                None,
            );
        assert!(out.phase1.is_none());
        assert!(out.completed);
        assert_eq!(out.centers, assignment.sources());
        assert_eq!(out.sources, assignment.sources());
        assert_eq!(out.stranded_tokens, 0);
    }
}
