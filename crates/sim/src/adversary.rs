//! Strongly adaptive adversary interfaces.
//!
//! The strongly adaptive adversary (Section 1.3) "knows the algorithm's
//! randomness of the current round in order to determine the dynamic
//! topology for that round". Concretely:
//!
//! * In the **local broadcast** model the adversary fixes `G_r` *after*
//!   every node has committed its round-`r` broadcast choice — this is the
//!   power the Section 2 lower bound exploits ("a strongly adaptive
//!   adversary can determine the dynamic graph topology of round r after
//!   each node has chosen the token `i_v(r)`").
//! * In the **unicast** model nodes must know their neighbors before
//!   sending, so the adversary commits `G_r` first, but it does so with full
//!   knowledge of the execution history — in particular everything sent in
//!   round `r-1` (e.g. which edges carry pending token requests).
//!
//! Either way the adversary makes one move per round, `evolve`, which
//! commits `G_r` as a [`GraphUpdate`] against `G_{r−1}`. Both interfaces
//! are generic over the protocol's message type `M`. Every oblivious
//! [`Adversary`] lifts into both via blanket implementations, so simulators
//! are always driven through the adaptive interface.

use dynspread_graph::adversary::Adversary;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::{Graph, NodeId, Round};

/// A record of one unicast message sent in a round: `from → to`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SentRecord<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
}

/// Adversary for the local-broadcast model: commits the round-`r` graph
/// after observing every node's round-`r` broadcast choice.
pub trait BroadcastAdversary<M> {
    /// Commits `G_r` against `prev = G_{r−1}`. `choices[v]` is node `v`'s
    /// committed broadcast for this round (`None` = silent). The graph must
    /// be connected, on the same node set.
    fn evolve(&mut self, round: Round, prev: &Graph, choices: &[Option<M>]) -> GraphUpdate;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "broadcast-adversary"
    }
}

/// Adversary for the unicast model: commits the round-`r` graph before
/// messages are sent, knowing the full history — summarized here as the
/// complete list of messages sent in round `r-1`.
pub trait UnicastAdversary<M> {
    /// Commits `G_r` against `prev = G_{r−1}`, knowing everything sent in
    /// the previous round. The graph must be connected, on the same node
    /// set.
    fn evolve(&mut self, round: Round, prev: &Graph, prev_sent: &[SentRecord<M>]) -> GraphUpdate;

    /// Human-readable name for reports.
    fn name(&self) -> &str {
        "unicast-adversary"
    }
}

impl<M, A: Adversary> BroadcastAdversary<M> for A {
    fn evolve(&mut self, round: Round, prev: &Graph, _choices: &[Option<M>]) -> GraphUpdate {
        Adversary::evolve(self, round, prev)
    }

    fn name(&self) -> &str {
        Adversary::name(self)
    }
}

impl<M, A: Adversary> UnicastAdversary<M> for A {
    fn evolve(&mut self, round: Round, prev: &Graph, _prev_sent: &[SentRecord<M>]) -> GraphUpdate {
        Adversary::evolve(self, round, prev)
    }

    fn name(&self) -> &str {
        Adversary::name(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::adversary::FnAdversary;

    fn full(update: GraphUpdate) -> Graph {
        match update {
            GraphUpdate::Full(g) => g,
            other => panic!("expected a full snapshot, got {other:?}"),
        }
    }

    #[test]
    fn oblivious_adversary_lifts_to_broadcast_interface() {
        let mut adv = FnAdversary::new("p", |_, prev: &Graph| Graph::path(prev.node_count()));
        let choices: Vec<Option<u8>> = vec![None; 4];
        let g = full(BroadcastAdversary::evolve(
            &mut adv,
            1,
            &Graph::empty(4),
            &choices,
        ));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(BroadcastAdversary::<u8>::name(&adv), "p");
    }

    #[test]
    fn oblivious_adversary_lifts_to_unicast_interface() {
        let mut adv = FnAdversary::new("s", |_, prev: &Graph| Graph::star(prev.node_count()));
        let sent: Vec<SentRecord<u8>> = Vec::new();
        let g = full(UnicastAdversary::evolve(
            &mut adv,
            1,
            &Graph::empty(4),
            &sent,
        ));
        assert_eq!(g.edge_count(), 3);
        assert_eq!(UnicastAdversary::<u8>::name(&adv), "s");
    }
}
