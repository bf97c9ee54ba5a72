//! The asynchronous port of Algorithm 1 (Single-Source-Unicast).
//!
//! Same decisions as [`SingleSourceNode`](dynspread_core::single_source::SingleSourceNode)
//! — only complete nodes serve tokens, incomplete nodes request distinct
//! missing tokens from peers that announced completeness — but the round
//! structure is replaced by event-driven reactions plus a retransmission
//! heartbeat, so the protocol stays live when the link drops, delays,
//! duplicates, or reorders messages:
//!
//! * receiving a (new) completeness announcement immediately opens a
//!   request toward the announcer; receiving a requested token
//!   immediately requests the next missing one from the same peer
//!   (request pipelining, window 1 per neighbor);
//! * every heartbeat re-sends the still-open request windows, assigns
//!   fresh requests to idle known-complete neighbors, probes unknown
//!   neighbors, and (once complete) re-announces to unacked neighbors;
//! * all state is monotone or idempotent — duplicate deliveries are
//!   absorbed, never double-applied.

use super::{AsyncConfig, Requests, Retransmitter};
use crate::engine::{EventCtx, EventProtocol};
use crate::faults::RecoveryMode;
use dynspread_core::dissemination::{CompletenessLedger, DisseminationCore};
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};

/// Messages of the asynchronous single-source port.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AsyncSsMsg {
    /// "Are you complete?" — pull-based discovery from incomplete nodes.
    Probe,
    /// "I am complete" — retransmitted until acknowledged.
    Completeness,
    /// Acknowledges a completeness announcement.
    Ack,
    /// "Please send me token `t`" — retransmitted until the token lands.
    Request(TokenId),
    /// The requested token.
    Token(TokenId),
}

/// Per-node state of the asynchronous Single-Source-Unicast port.
///
/// Run under [`EventSim`](crate::engine::EventSim), typically with
/// tracking so the run stops at full dissemination:
///
/// ```
/// use dynspread_graph::{oblivious::StaticAdversary, Graph, NodeId};
/// use dynspread_runtime::engine::{EventSim, StopReason};
/// use dynspread_runtime::link::{LinkModelExt, PerfectLink};
/// use dynspread_runtime::protocol::{AsyncConfig, AsyncSingleSource};
/// use dynspread_sim::token::TokenAssignment;
///
/// let assignment = TokenAssignment::single_source(4, 3, NodeId::new(0));
/// let nodes = AsyncSingleSource::nodes(&assignment, AsyncConfig::default());
/// let link = PerfectLink.lossy(0.3).with_jitter(2); // would stall Algorithm 1
/// let mut sim = EventSim::with_tracking(
///     nodes,
///     StaticAdversary::new(Graph::path(4)),
///     link,
///     4,
///     7,
///     &assignment,
/// );
/// let report = sim.run(100_000);
/// assert_eq!(report.stopped, StopReason::Complete);
/// ```
#[derive(Clone, Debug)]
pub struct AsyncSingleSource {
    id: NodeId,
    /// `K_v` and one outstanding request per neighbor, re-sent until answered.
    requests: Requests,
    /// `R_v` (ack state) / `S_v` bookkeeping (one source, index 0).
    ledger: CompletenessLedger,
    /// Heartbeat pacing with adaptive backoff.
    pacer: Retransmitter,
    /// Timer-driven re-sends of still-open request windows.
    retransmitted_requests: u64,
    /// Token deliveries that were already known (loss-free runs keep this
    /// at 0 only when nothing is duplicated or re-requested).
    duplicate_tokens: u64,
}

impl AsyncSingleSource {
    /// Creates the node `v` with its initial knowledge from `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the configuration is invalid.
    pub fn new(v: NodeId, assignment: &TokenAssignment, cfg: AsyncConfig) -> Self {
        let n = assignment.node_count();
        assert!(v.index() < n, "node out of range");
        AsyncSingleSource {
            id: v,
            requests: Requests::new(DisseminationCore::from_assignment(v, assignment)),
            ledger: CompletenessLedger::new(n, 1),
            pacer: Retransmitter::new(cfg),
            retransmitted_requests: 0,
            duplicate_tokens: 0,
        }
    }

    /// Builds the full vector of per-node protocols for an assignment.
    pub fn nodes(assignment: &TokenAssignment, cfg: AsyncConfig) -> Vec<AsyncSingleSource> {
        NodeId::all(assignment.node_count())
            .map(|v| AsyncSingleSource::new(v, assignment, cfg))
            .collect()
    }

    /// This node's ID.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Whether this node is complete (Definition 3.1).
    pub fn is_complete(&self) -> bool {
        self.requests.core().is_complete()
    }

    /// Peers that acknowledged our completeness announcement — monotone
    /// over the execution.
    pub fn acked_peers(&self) -> usize {
        self.ledger.informed_count()
    }

    /// Timer-driven request re-sends so far.
    pub fn retransmitted_requests(&self) -> u64 {
        self.retransmitted_requests
    }

    /// Token deliveries that were duplicates (already applied).
    pub fn duplicate_tokens(&self) -> u64 {
        self.duplicate_tokens
    }

    /// Message-triggered request toward `u` over a fresh assignment pass.
    fn try_request(&mut self, u: NodeId, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        if let Some(t) = self.requests.request(u, None) {
            ctx.send(u, AsyncSsMsg::Request(t));
        }
    }

    /// Announces completeness to every current neighbor (on becoming
    /// complete; re-sends happen on the heartbeat until acked).
    fn announce_everywhere(&mut self, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        for &u in ctx.neighbors() {
            if self.ledger.needs_inform(0, u) {
                ctx.send(u, AsyncSsMsg::Completeness);
            }
        }
    }
}

impl EventProtocol for AsyncSingleSource {
    type Msg = AsyncSsMsg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        if self.is_complete() {
            self.announce_everywhere(ctx);
        } else {
            ctx.broadcast(AsyncSsMsg::Probe);
        }
        ctx.set_timer(self.pacer.current(), 0);
    }

    fn on_message(&mut self, from: NodeId, msg: &AsyncSsMsg, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        match msg {
            AsyncSsMsg::Probe => {
                if self.is_complete() {
                    ctx.send(from, AsyncSsMsg::Completeness);
                }
            }
            AsyncSsMsg::Completeness => {
                if self.ledger.note_peer_complete(0, from) {
                    self.pacer.progress(ctx);
                }
                ctx.send(from, AsyncSsMsg::Ack);
                if !self.is_complete() {
                    self.try_request(from, ctx);
                }
            }
            AsyncSsMsg::Ack => {
                if self.ledger.mark_informed(0, from) {
                    self.pacer.progress(ctx);
                }
            }
            AsyncSsMsg::Request(t) => {
                // Only complete nodes are ever asked (announcing is how a
                // node becomes a target), and completeness is monotone —
                // but a reordered probe answer can race, so check.
                if self.requests.core().known_tokens().contains(*t) {
                    ctx.send(from, AsyncSsMsg::Token(*t));
                }
            }
            AsyncSsMsg::Token(t) => {
                if self.requests.receive_token(from, *t) {
                    self.pacer.progress(ctx);
                    if self.is_complete() {
                        // Incomplete-phase bookkeeping is over; announce.
                        self.requests.forget();
                        self.announce_everywhere(ctx);
                    } else {
                        // Pipeline: keep this channel busy with the next token.
                        self.try_request(from, ctx);
                    }
                } else {
                    self.duplicate_tokens += 1;
                }
            }
        }
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        if mode == RecoveryMode::Amnesia {
            // Volatile state is gone: open request windows (their tokens
            // become assignable again) and everything learned about the
            // peers — who is complete, who acked us. Token knowledge is
            // durable, so `K_v` survives and completeness is kept.
            self.requests.forget();
            self.ledger.reset();
        }
        // Either way the pre-crash heartbeat is invalidated by the
        // engine, so rejoin exactly like a fresh start — probe or
        // announce, and arm a prompt (base-interval) heartbeat.
        self.pacer.reset();
        self.on_start(ctx);
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        // A backoff capped out during the partition would delay
        // resynchronization by up to `max_interval`; snap it back so the
        // next heartbeat re-probes the reunited side promptly. No timer
        // is armed here: an incomplete node always has one pending, and
        // a complete quiet node is re-awakened by probes.
        self.pacer.progress(ctx);
    }

    fn on_timer(&mut self, _id: u64, ctx: &mut EventCtx<'_, AsyncSsMsg>) {
        if !self.is_complete() {
            self.requests.sweep(ctx.neighbors());
            self.requests.refill(None);
            for &u in ctx.neighbors() {
                if let Some(t) = self.requests.resend(u) {
                    ctx.send(u, AsyncSsMsg::Request(t));
                    self.retransmitted_requests += 1;
                    ctx.note_retransmission();
                } else if !self.ledger.peer_complete(0, u) {
                    ctx.send(u, AsyncSsMsg::Probe);
                } else if let Some(t) = self.requests.assign(u) {
                    ctx.send(u, AsyncSsMsg::Request(t));
                }
            }
            ctx.set_timer(self.pacer.next_delay(), 0);
        } else {
            self.announce_everywhere(ctx);
            if ctx
                .neighbors()
                .iter()
                .any(|&u| self.ledger.needs_inform(0, u))
            {
                // Keep pushing until every current neighbor acked; once
                // they all have, go quiet — probes re-awaken us if the
                // adversary brings new incomplete neighbors.
                ctx.set_timer(self.pacer.next_delay(), 0);
            }
        }
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        Some(self.requests.core().known_tokens())
    }
}
