//! The asynchronous port of Multi-Source-Unicast (Section 3.2.1).
//!
//! Same decisions as [`MultiSourceNode`](dynspread_core::multi_source::MultiSourceNode)
//! — per-source completeness announcements (minimum source first), token
//! service for any held token, and request traffic focused on the minimum
//! incomplete source with a known-complete peer — carried by the same
//! retransmission machinery as [`AsyncSingleSource`](super::AsyncSingleSource):
//! per-source acked announcements, per-neighbor request windows, probes,
//! and an adaptive-backoff heartbeat.

use super::{AsyncConfig, Requests, Retransmitter};
use crate::engine::{EventCtx, EventProtocol};
use crate::faults::RecoveryMode;
use dynspread_core::dissemination::{DisseminationCore, PeerLedger};
use dynspread_core::multi_source::{SourceMap, SourceProgress};
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use std::sync::Arc;

/// Messages of the asynchronous multi-source port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncMsMsg {
    /// "What are you complete with respect to?" — discovery pull.
    Probe,
    /// "I am complete w.r.t. source `x`" — retransmitted until
    /// acknowledged per source.
    Completeness(NodeId),
    /// Acknowledges a `Completeness(x)` announcement.
    Ack(NodeId),
    /// "Please send me token `t`".
    Request(TokenId),
    /// The requested token.
    Token(TokenId),
}

/// Per-node state of the asynchronous Multi-Source-Unicast port.
///
/// Nothing here is sized by `n`: completeness state is a [`PeerLedger`]
/// (rows per peer heard from) where the round-based `MultiSourceNode` keeps
/// one dense, peer-major `CompletenessLedger` of `2ns` bits, because an
/// asynchronous run is over once each node has met a few dozen peers —
/// dense ledgers were 64 MB of `oblivious_pipeline`'s 212 MB peak at
/// `n = 4096`, `s = 16`. The two ledgers answer the same `(source, peer)`
/// questions with the same mask operations (`lowest_owed`,
/// `active_source`), so the two nodes' decisions read alike.
///
/// ```
/// use dynspread_graph::{oblivious::StaticAdversary, Graph};
/// use dynspread_runtime::engine::{EventSim, StopReason};
/// use dynspread_runtime::link::{LinkModelExt, PerfectLink};
/// use dynspread_runtime::protocol::{AsyncConfig, AsyncMultiSource};
/// use dynspread_sim::token::TokenAssignment;
///
/// let assignment = TokenAssignment::round_robin_sources(5, 4, 2);
/// let (nodes, _map) = AsyncMultiSource::nodes(&assignment, AsyncConfig::default());
/// let mut sim = EventSim::with_tracking(
///     nodes,
///     StaticAdversary::new(Graph::cycle(5)),
///     PerfectLink.lossy(0.2),
///     4,
///     11,
///     &assignment,
/// );
/// assert_eq!(sim.run(100_000).stopped, StopReason::Complete);
/// ```
#[derive(Clone, Debug)]
pub struct AsyncMultiSource {
    id: NodeId,
    map: Arc<SourceMap>,
    /// `K_v` and one outstanding request per neighbor.
    requests: Requests,
    /// Tokens held per source, and `I_v`.
    progress: SourceProgress,
    /// `R_v(x)` (ack state) / `S_v(x)` of every source `x`, by peer.
    ledger: PeerLedger,
    /// Heartbeat pacing with adaptive backoff.
    pacer: Retransmitter,
}

impl AsyncMultiSource {
    /// Creates node `v` with initial knowledge from `assignment` and the
    /// shared source map.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the configuration is invalid.
    pub fn new(
        v: NodeId,
        assignment: &TokenAssignment,
        map: Arc<SourceMap>,
        cfg: AsyncConfig,
    ) -> Self {
        let n = assignment.node_count();
        assert!(v.index() < n, "node out of range");
        let core = DisseminationCore::from_assignment(v, assignment);
        AsyncMultiSource {
            id: v,
            progress: SourceProgress::new(&map, core.known_tokens()),
            requests: Requests::new(core),
            ledger: PeerLedger::new(map.source_count()),
            pacer: Retransmitter::new(cfg),
            map,
        }
    }

    /// Builds all `n` node protocols plus the shared [`SourceMap`].
    pub fn nodes(
        assignment: &TokenAssignment,
        cfg: AsyncConfig,
    ) -> (Vec<AsyncMultiSource>, Arc<SourceMap>) {
        let map = Arc::new(SourceMap::from_assignment(assignment));
        let nodes = NodeId::all(assignment.node_count())
            .map(|v| AsyncMultiSource::new(v, assignment, Arc::clone(&map), cfg))
            .collect();
        (nodes, map)
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether the node is complete w.r.t. the source with index `idx`.
    pub fn complete_wrt(&self, idx: usize) -> bool {
        self.progress.complete_wrt(idx)
    }

    /// Whether the node holds all `k` tokens.
    pub fn is_complete(&self) -> bool {
        self.requests.core().is_complete()
    }

    /// The shared source map (read-only).
    pub fn source_map(&self) -> &SourceMap {
        &self.map
    }

    /// Message-triggered request toward `u`, if it serves the active
    /// source ("the minimum `x ∉ I_v` with `S_v(x) ≠ ∅`").
    fn try_request(&mut self, u: NodeId, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        let active = self.ledger.active_source(self.progress.mine());
        if let Some(active) = active.filter(|&a| self.ledger.peer_complete(a, u)) {
            if let Some(t) = self.requests.request(u, Some(self.map.token_mask(active))) {
                ctx.send(u, AsyncMsMsg::Request(t));
            }
        }
    }

    /// Announces per-source completeness to `u`: the minimum unacked
    /// complete-w.r.t. source, mirroring the round algorithm's
    /// one-announcement-per-edge-per-round rule per heartbeat.
    fn announce_to(&mut self, u: NodeId, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        if let Some(idx) = self.ledger.lowest_owed(self.progress.mine(), u) {
            ctx.send(u, AsyncMsMsg::Completeness(self.map.sources()[idx]));
        }
    }
}

impl EventProtocol for AsyncMultiSource {
    type Msg = AsyncMsMsg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        for &u in ctx.neighbors() {
            self.announce_to(u, ctx);
            if !self.is_complete() {
                ctx.send(u, AsyncMsMsg::Probe);
            }
        }
        ctx.set_timer(self.pacer.current(), 0);
    }

    fn on_message(&mut self, from: NodeId, msg: &AsyncMsMsg, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        match msg {
            AsyncMsMsg::Probe => {
                // Tell the prober everything we are complete about — one
                // message per source, each O(log n) bits.
                for idx in 0..self.map.source_count() {
                    if self.complete_wrt(idx) {
                        ctx.send(from, AsyncMsMsg::Completeness(self.map.sources()[idx]));
                    }
                }
            }
            AsyncMsMsg::Completeness(x) => {
                let idx = self
                    .map
                    .index_of(*x)
                    .expect("announced source must be a source");
                if self.ledger.note_peer_complete(idx, from) {
                    self.pacer.progress(ctx);
                }
                ctx.send(from, AsyncMsMsg::Ack(*x));
                if !self.is_complete() {
                    self.try_request(from, ctx);
                }
            }
            AsyncMsMsg::Ack(x) => {
                let idx = self
                    .map
                    .index_of(*x)
                    .expect("acked source must be a source");
                if self.ledger.mark_informed(idx, from) {
                    self.pacer.progress(ctx);
                }
            }
            AsyncMsMsg::Request(t) => {
                // Serve any held token (the round algorithm answers from
                // `K_v`, not from completeness).
                if self.requests.core().known_tokens().contains(*t) {
                    ctx.send(from, AsyncMsMsg::Token(*t));
                }
            }
            AsyncMsMsg::Token(t) => {
                if self.requests.receive_token(from, *t) {
                    self.pacer.progress(ctx);
                    if let Some(idx) = self.progress.learn(&self.map, *t) {
                        // Newly complete w.r.t. this source: announce it.
                        for &u in ctx.neighbors() {
                            if self.ledger.needs_inform(idx, u) {
                                ctx.send(u, AsyncMsMsg::Completeness(self.map.sources()[idx]));
                            }
                        }
                    }
                    if self.is_complete() {
                        self.requests.forget();
                    } else {
                        self.try_request(from, ctx);
                    }
                }
            }
        }
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        if mode == RecoveryMode::Amnesia {
            // Volatile state is gone: open request windows (tokens become
            // assignable again) and the ledger — both who we believe
            // complete and who acked us. Token knowledge (`K_v`, and
            // with it `progress`) is durable.
            self.requests.forget();
            self.ledger.reset();
        }
        // Rejoin like a fresh start: re-announce what we are complete
        // for, probe if incomplete, arm a prompt heartbeat.
        self.pacer.reset();
        self.on_start(ctx);
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        // Snap a partition-capped backoff back to base so the reunited
        // side is re-probed promptly; no timer armed here (incomplete
        // nodes always have one pending, quiet complete nodes answer
        // probes).
        self.pacer.progress(ctx);
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut EventCtx<'_, AsyncMsMsg>) {
        // Announcement work runs regardless of overall completeness: a
        // node can be complete w.r.t. its own source from the start.
        for &u in ctx.neighbors() {
            self.announce_to(u, ctx);
        }
        if !self.is_complete() {
            self.requests.sweep(ctx.neighbors());
            // One active source for the whole heartbeat, like its one pass.
            let active = self.ledger.active_source(self.progress.mine());
            if let Some(active) = active {
                self.requests.refill(Some(self.map.token_mask(active)));
            }
            for &u in ctx.neighbors() {
                if let Some(t) = self.requests.resend(u) {
                    ctx.send(u, AsyncMsMsg::Request(t));
                    ctx.note_retransmission();
                    continue;
                }
                if active.is_some_and(|active| self.ledger.peer_complete(active, u)) {
                    if let Some(t) = self.requests.assign(u) {
                        ctx.send(u, AsyncMsMsg::Request(t));
                    }
                }
                if !self.requests.is_open(u) && self.ledger.worth_probing(self.progress.mine(), u) {
                    ctx.send(u, AsyncMsMsg::Probe);
                }
            }
            ctx.set_timer(self.pacer.next_delay(), 0);
        } else {
            let owed = |&u: &NodeId| self.ledger.lowest_owed(self.progress.mine(), u).is_some();
            if ctx.neighbors().iter().any(owed) {
                ctx.set_timer(self.pacer.next_delay(), 0);
            }
        }
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        Some(self.requests.core().known_tokens())
    }
}
