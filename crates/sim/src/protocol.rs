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

/// Outgoing unicast messages of one node in one round.
///
/// The simulator validates that each destination is a current neighbor and
/// that each message respects the bandwidth constraint.
#[derive(Clone, Debug)]
pub struct Outbox<M> {
    messages: Vec<(NodeId, M)>,
}

impl<M> Outbox<M> {
    /// Creates an empty outbox.
    pub fn new() -> Self {
        Outbox {
            messages: Vec::new(),
        }
    }

    /// Queues a message to neighbor `to`.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.messages.push((to, msg));
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
pub trait UnicastProtocol {
    /// The message payload type.
    type Msg: MessagePayload;

    /// Queue this round's messages given the current neighbor set (sorted
    /// by ID). Sending to a non-neighbor is a protocol bug and panics in
    /// the simulator.
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
    fn default_outbox_is_empty() {
        let out: Outbox<Ping> = Outbox::default();
        assert!(out.is_empty());
    }
}
