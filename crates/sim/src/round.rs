//! Per-round scratch of the round engines.
//!
//! [`RoundScratch`] is the state a round engine keeps *between* its phases
//! and that is not part of the model: which nodes are worth calling this
//! round (the **active set**), which nodes a message reached this round
//! (the **receiver marks**), and the buffers of the incremental
//! connectivity check. Each engine in [`crate::sim`] holds one and drives
//! it; the engine's [`Transport`](crate::sim::Transport) only marks the
//! receivers it hands messages to (through
//! [`RoundIo::delivered`](crate::sim::RoundIo::delivered)), so parking and
//! waking work the same whether a message arrives in its round or three
//! rounds late.
//!
//! # The active set
//!
//! Both node sets are bitsets and are always walked in ascending node-ID
//! order, the order of a whole-network `for v in 0..n` sweep — so skipping
//! the nodes outside a set changes which calls are made and nothing about
//! the order of the ones that are.
//!
//! A node leaves the active set when it [parks](crate::protocol::Outbox::park)
//! during `send`, and re-enters it when
//!
//! * an edge at it is inserted or removed ([`RoundScratch::wake_endpoints`],
//!   called with the round's delta right after the topology is installed), or
//! * a message is delivered to it ([`RoundScratch::mark_receiver`]; the
//!   marks are folded into the active set by [`RoundScratch::sync_tracker`]
//!   at the end of the round, so the node sends again from the next round).
//!
//! Per round the unicast engine then calls `send` over [`next_active`]
//! (parking the nodes that asked to), its transport calls `receive` for
//! each delivery, and the engine calls `end_round` over [`next_live`] — the
//! still-active nodes plus this round's receivers. Protocols that never park are always active, and every sweep
//! visits all of them, as the whole-network loops did.
//!
//! [`next_active`]: RoundScratch::next_active
//! [`next_live`]: RoundScratch::next_live

use crate::token::TokenSet;
use crate::trace::{emit, TraceRecord, Tracer};
use crate::tracker::TokenTracker;
use dynspread_graph::dynamic::RoundDelta;
use dynspread_graph::{Graph, NodeId, Round, UnionFind};

/// Active set, receiver marks and connectivity buffers of one engine —
/// allocated once per engine, not once per round. See the [module
/// docs](self).
pub struct RoundScratch {
    uf: UnionFind,
    /// Whether last round's graph was verified connected — lets rounds whose
    /// delta removed no edges skip the union–find pass entirely (a connected
    /// graph stays connected under pure insertions).
    was_connected: bool,
    /// Bit `v`: node `v` has not parked since it was last woken.
    active: Vec<u64>,
    /// Bit `v`: a message was delivered to node `v` this round.
    received: Vec<u64>,
}

impl RoundScratch {
    /// Scratch for an `n`-node engine; every node starts active.
    pub fn new(n: usize) -> Self {
        let mut active = vec![!0u64; n / 64];
        if !n.is_multiple_of(64) {
            active.push((1u64 << (n % 64)) - 1);
        }
        RoundScratch {
            uf: UnionFind::new(n),
            was_connected: false,
            received: vec![0; active.len()],
            active,
        }
    }

    /// Incremental per-round connectivity verdict for `g`, given that this
    /// round's delta removed `removed_edges` edges.
    pub fn check_connected(&mut self, g: &Graph, removed_edges: usize) -> bool {
        if !(self.was_connected && removed_edges == 0) {
            self.was_connected = g.is_connected_with(&mut self.uf);
        }
        self.was_connected
    }

    /// Wakes both endpoints of every edge the round's delta inserted or
    /// removed: exactly the nodes whose neighbor list differs from last
    /// round's.
    pub fn wake_endpoints(&mut self, delta: &RoundDelta) {
        for e in delta.inserted.iter().chain(&delta.removed) {
            set(&mut self.active, e.lo());
            set(&mut self.active, e.hi());
        }
    }

    /// The first active node with index `>= from`.
    #[inline]
    pub fn next_active(&self, from: usize) -> Option<NodeId> {
        next_set(from, self.active.len(), |wi| self.active[wi])
    }

    /// Takes `v` out of the active set (it parked during `send`).
    #[inline]
    pub fn park(&mut self, v: NodeId) {
        self.active[v.index() / 64] &= !(1u64 << (v.index() % 64));
    }

    /// Marks `v` as having been delivered a message this round.
    #[inline]
    pub fn mark_receiver(&mut self, v: NodeId) {
        set(&mut self.received, v);
    }

    /// The first of this round's receivers with index `>= from`.
    #[inline]
    fn next_receiver(&self, from: usize) -> Option<NodeId> {
        next_set(from, self.received.len(), |wi| self.received[wi])
    }

    /// The first node with index `>= from` that is active or received a
    /// message this round — the nodes whose `end_round` must run.
    #[inline]
    pub fn next_live(&self, from: usize) -> Option<NodeId> {
        next_set(from, self.active.len(), |wi| {
            self.active[wi] | self.received[wi]
        })
    }

    /// The global observation that ends a round. Only nodes that received a
    /// message can have learned tokens, so only they are diffed against the
    /// tracker, in ascending ID order (the learning-log order of a
    /// whole-network sweep), emitting a `Coverage` record per node that
    /// gained. The receivers are then woken and their marks cleared.
    pub fn sync_tracker<'a>(
        &mut self,
        round: Round,
        tracker: &mut TokenTracker,
        tracer: &mut Option<Box<dyn Tracer>>,
        known: impl Fn(NodeId) -> &'a TokenSet,
    ) {
        let mut from = 0;
        while let Some(v) = self.next_receiver(from) {
            from = v.index() + 1;
            let gained = tracker.sync_node(v, known(v), round);
            if gained > 0 {
                emit(
                    tracer,
                    TraceRecord::Coverage {
                        t: round,
                        node: v.value(),
                        gained: gained as u32,
                        known: known(v).count() as u32,
                    },
                );
            }
        }
        for (active, received) in self.active.iter_mut().zip(&mut self.received) {
            *active |= std::mem::take(received);
        }
    }
}

#[inline]
fn set(words: &mut [u64], v: NodeId) {
    words[v.index() / 64] |= 1u64 << (v.index() % 64);
}

/// The lowest set bit at or after position `from` of the `words`-word bitset
/// read through `word_at`.
#[inline]
fn next_set(from: usize, words: usize, word_at: impl Fn(usize) -> u64) -> Option<NodeId> {
    let mut wi = from / 64;
    if wi >= words {
        return None;
    }
    let mut word = word_at(wi) & (!0u64 << (from % 64));
    while word == 0 {
        wi += 1;
        if wi == words {
            return None;
        }
        word = word_at(wi);
    }
    Some(NodeId::new((wi * 64) as u32 + word.trailing_zeros()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::Edge;

    fn nid(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn walk(next: impl Fn(usize) -> Option<NodeId>) -> Vec<u32> {
        let mut seen = Vec::new();
        let mut from = 0;
        while let Some(v) = next(from) {
            seen.push(v.value());
            from = v.index() + 1;
        }
        seen
    }

    #[test]
    fn every_node_starts_active_and_nothing_beyond_n() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let s = RoundScratch::new(n);
            assert_eq!(
                walk(|f| s.next_active(f)),
                (0..n as u32).collect::<Vec<_>>()
            );
            assert_eq!(walk(|f| s.next_receiver(f)), Vec::<u32>::new());
        }
    }

    #[test]
    fn parked_nodes_are_skipped_until_an_edge_or_a_delivery_wakes_them() {
        let mut s = RoundScratch::new(130);
        for v in 0..130 {
            s.park(nid(v));
        }
        assert_eq!(s.next_active(0), None);
        s.wake_endpoints(&RoundDelta {
            inserted: vec![Edge::new(nid(3), nid(128))],
            removed: vec![Edge::new(nid(64), nid(3))],
        });
        assert_eq!(walk(|f| s.next_active(f)), [3, 64, 128]);
        s.mark_receiver(nid(70));
        s.mark_receiver(nid(3));
        assert_eq!(walk(|f| s.next_receiver(f)), [3, 70]);
        assert_eq!(walk(|f| s.next_live(f)), [3, 64, 70, 128]);
        // Still only a receiver: it sends again from the next round.
        assert_eq!(walk(|f| s.next_active(f)), [3, 64, 128]);
    }

    #[test]
    fn sync_tracker_visits_receivers_in_order_then_wakes_them() {
        use crate::token::{TokenAssignment, TokenId};
        let a = TokenAssignment::single_source(70, 2, nid(0));
        let mut tracker = TokenTracker::new(&a);
        let mut know: Vec<TokenSet> = NodeId::all(70).map(|v| a.initial_knowledge(v)).collect();
        know[69].insert(TokenId::new(1));
        know[5].insert(TokenId::new(0));
        let mut s = RoundScratch::new(70);
        for v in 0..70 {
            s.park(nid(v));
        }
        for v in [69, 5, 20] {
            s.mark_receiver(nid(v));
        }
        s.sync_tracker(4, &mut tracker, &mut None, |v| &know[v.index()]);
        let log: Vec<(u32, u32)> = tracker
            .log()
            .iter()
            .map(|l| (l.node.value(), l.token.index() as u32))
            .collect();
        assert_eq!(log, [(5, 0), (69, 1)]);
        assert_eq!(walk(|f| s.next_receiver(f)), Vec::<u32>::new());
        assert_eq!(walk(|f| s.next_active(f)), [5, 20, 69]);
    }
}
