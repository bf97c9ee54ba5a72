//! Protocol interfaces for the two communication modes (Section 1.3).
//!
//! * **Local broadcast**: each round, a node either locally broadcasts one
//!   message (received by all current neighbors) or stays silent. The node
//!   does *not* know its neighbors when choosing; it "learns the set of
//!   neighbors in round r when receiving the round r messages from them".
//! * **Unicast**: at the beginning of each round the node is informed of the
//!   IDs of its current neighbors (KT1-style), and may send a different
//!   message to each neighbor.
//!
//! Protocols are per-node state machines. The simulator owns one protocol
//! value per node and drives them round by round; all global observation
//! (termination, metrics) happens outside the protocol.

use crate::message::MessagePayload;
use crate::token::TokenSet;
use dynspread_graph::{NodeId, Round};

/// Outgoing unicast messages of one node in one round, plus the node's
/// request to be [parked](Outbox::park).
///
/// The simulator validates that each destination is a current neighbor and
/// that each message respects the bandwidth constraint.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    messages: Vec<(NodeId, M)>,
    parked: bool,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            messages: Vec::new(),
            parked: false,
        }
    }

    /// Queues a message to neighbor `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.messages.push((to, msg));
    }

    /// Asks the engine to stop calling this node until something can
    /// change what it does. Called from inside
    /// [`send(r)`](UnicastProtocol::send), after queueing whatever round `r`
    /// sends (parking and sending in the same call is fine).
    ///
    /// **What the node promises.** From here until its neighbor list
    /// differs from the one `send(r)` was given, or a message is delivered
    /// to it — whichever comes first — every `send` it would be given
    /// queues nothing, every `end_round` (round `r`'s included) is a no-op,
    /// and nothing an observer can read from it (`known_tokens`, its public
    /// accessors) changes. Time alone must not matter: a node that will act
    /// in round `r + 5` "because five rounds passed" must not park.
    ///
    /// **What the engine promises back.** The skipped calls are exactly
    /// those: `send` is called again in the first round whose neighbor list
    /// differs from round `r`'s, and a delivery in round `q` is followed by
    /// `end_round(q)` and `send(q + 1)` — the calls a never-parked node
    /// would have seen next. The nodes that do run are called in ascending
    /// ID order, so the run (messages, delivery order, learning log, trace)
    /// is the one the whole-network sweep produces. An engine may also
    /// ignore the request and keep calling; a parked node must tolerate
    /// that.
    ///
    /// The request lives in the outbox rather than in the trait so that a
    /// wrapper protocol that forwards `out` to an inner node forwards the
    /// request with it. A wrapper that hands the inner node a *private*
    /// outbox drops it, which is always safe: the node is merely swept
    /// every round again.
    ///
    /// **Driving a node by hand** (tests, custom loops): either call `send`
    /// every round and ignore the flag, or honour it — after
    /// [`take_parked`](Outbox::take_parked) returns `true`, skip the node's
    /// `send`/`end_round` until its neighbor list changes or you deliver to
    /// it. Skipping rounds *without* the node having parked is a different
    /// thing: the unicast algorithms read a gap in the rounds they are
    /// shown as every adjacent edge having been removed and reinserted.
    pub fn park(&mut self) {
        self.parked = true;
    }

    /// Whether the node asked to be parked since the last call; clears the
    /// request. Engines call this once after each `send`.
    pub fn take_parked(&mut self) -> bool {
        std::mem::take(&mut self.parked)
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.messages.len()
    }

    /// Whether no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty()
    }

    /// Consumes the outbox.
    pub fn into_messages(self) -> Vec<(NodeId, M)> {
        self.messages
    }

    /// Removes and yields the queued messages in send order, keeping the
    /// outbox (and its buffer) for the next node — how the engines reuse
    /// one outbox across a whole run.
    pub fn drain(&mut self) -> impl Iterator<Item = (NodeId, M)> + '_ {
        self.messages.drain(..)
    }
}

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

/// A per-node protocol communicating by **unicast**.
///
/// Round structure (driven by the simulator, in this order):
/// 1. [`send`](UnicastProtocol::send) — the node sees its current neighbor
///    IDs and queues at most one message per neighbor.
/// 2. [`receive`](UnicastProtocol::receive) — once per message addressed to
///    this node this round.
/// 3. [`end_round`](UnicastProtocol::end_round) — all deliveries done.
///
/// A node with nothing to do until the network does something to it may
/// [park](Outbox::park) during `send`; the engines then skip steps 1 and 3
/// for it until an adjacent edge changes or a message arrives. A protocol
/// that never parks is called every round.
pub trait UnicastProtocol {
    /// The message payload type.
    type Msg: MessagePayload;

    /// Queue this round's messages given the current neighbor set (sorted
    /// by ID). Sending to a non-neighbor is a protocol bug and panics in
    /// the simulator. May end with [`out.park()`](Outbox::park) — read the
    /// contract there first.
    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<Self::Msg>);

    /// Deliver one message sent to this node this round.
    fn receive(&mut self, round: Round, from: NodeId, msg: &Self::Msg);

    /// Called after all of this round's deliveries.
    fn end_round(&mut self, round: Round) {
        let _ = round;
    }

    /// The node's current token knowledge `K_v(t)`, observed by the
    /// simulator's tracker after every round.
    fn known_tokens(&self) -> &TokenSet;
}

/// A per-node protocol communicating by **local broadcast**.
///
/// Round structure (driven by the simulator, in this order):
/// 1. [`broadcast`](BroadcastProtocol::broadcast) — choose one message or
///    silence, *without* knowing the round's topology (the strongly
///    adaptive adversary commits the graph after seeing the choices).
/// 2. [`receive`](BroadcastProtocol::receive) — once per broadcasting
///    neighbor; this is also how the node discovers neighbors.
/// 3. [`end_round`](BroadcastProtocol::end_round).
pub trait BroadcastProtocol {
    /// The message payload type.
    type Msg: MessagePayload;

    /// Choose this round's local broadcast (`None` = stay silent).
    fn broadcast(&mut self, round: Round) -> Option<Self::Msg>;

    /// Deliver the broadcast of neighbor `from`.
    fn receive(&mut self, round: Round, from: NodeId, msg: &Self::Msg);

    /// Called after all of this round's deliveries.
    fn end_round(&mut self, round: Round) {
        let _ = round;
    }

    /// The node's current token knowledge `K_v(t)`.
    fn known_tokens(&self) -> &TokenSet;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::MessageClass;

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

    #[test]
    fn outbox_queues_in_order() {
        let mut out = Outbox::new();
        assert!(out.is_empty());
        out.send(NodeId::new(1), Ping);
        out.send(NodeId::new(2), Ping);
        assert_eq!(out.len(), 2);
        let msgs = out.into_messages();
        assert_eq!(msgs[0].0, NodeId::new(1));
        assert_eq!(msgs[1].0, NodeId::new(2));
    }

    #[test]
    fn drained_outbox_is_reusable() {
        let mut out = Outbox::new();
        out.send(NodeId::new(1), Ping);
        out.send(NodeId::new(2), Ping);
        let to: Vec<NodeId> = out.drain().map(|(to, _)| to).collect();
        assert_eq!(to, vec![NodeId::new(1), NodeId::new(2)]);
        assert!(out.is_empty());
        out.send(NodeId::new(3), Ping);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn park_request_is_taken_once_and_survives_a_drain() {
        let mut out = Outbox::new();
        assert!(!out.take_parked());
        out.send(NodeId::new(1), Ping);
        out.park();
        assert_eq!(out.drain().count(), 1);
        assert!(out.take_parked());
        assert!(!out.take_parked());
    }

    #[test]
    fn default_outbox_is_empty() {
        let out: Outbox<Ping> = Outbox::default();
        assert!(out.is_empty());
    }
}
