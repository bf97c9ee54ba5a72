//! Token-learning tracking (Definition 1.4).
//!
//! A *token learning* is an event `⟨v, τ, r⟩`: node `v` receives token `τ`
//! for the first time in round `r`. If each token starts at one node,
//! `k(n-1)` learnings must occur for dissemination to complete.
//!
//! The tracker is the simulator's global observer: after each round it diffs
//! every node's knowledge set against its previous snapshot, records the
//! learnings, and detects completeness. Algorithms never read it.

use crate::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_graph::{NodeId, Round};

/// A single token-learning event `⟨v, τ, r⟩`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Learning {
    /// The learning node.
    pub node: NodeId,
    /// The learned token.
    pub token: TokenId,
    /// The round in which it was first received.
    pub round: Round,
}

/// Global observer of per-node token knowledge.
///
/// # Examples
///
/// ```
/// use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
/// use dynspread_sim::tracker::TokenTracker;
/// use dynspread_graph::NodeId;
///
/// let assign = TokenAssignment::single_source(3, 2, NodeId::new(0));
/// let mut tr = TokenTracker::new(&assign);
/// assert!(!tr.all_complete());
///
/// // Node 1 learns token 0 in round 4.
/// let mut know = assign.initial_knowledge(NodeId::new(1));
/// know.insert(TokenId::new(0));
/// tr.sync_node(NodeId::new(1), &know, 4);
/// assert_eq!(tr.total_learnings(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct TokenTracker {
    k: usize,
    knowledge: Vec<TokenSet>,
    log: Vec<Learning>,
    complete_nodes: usize,
    /// learnings_per_round[r-1] = number of learnings in round r.
    learnings_per_round: Vec<u64>,
}

impl TokenTracker {
    /// Initializes from the initial token assignment; initial knowledge is
    /// not counted as learning.
    pub fn new(assignment: &TokenAssignment) -> Self {
        let n = assignment.node_count();
        let k = assignment.token_count();
        let knowledge: Vec<TokenSet> = NodeId::all(n)
            .map(|v| assignment.initial_knowledge(v))
            .collect();
        let complete_nodes = knowledge.iter().filter(|s| s.is_full()).count();
        TokenTracker {
            k,
            knowledge,
            log: Vec::new(),
            complete_nodes,
            learnings_per_round: Vec::new(),
        }
    }

    /// Number of tokens `k`.
    pub fn token_count(&self) -> usize {
        self.k
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.knowledge.len()
    }

    /// The tracked knowledge set of `v`.
    pub fn knowledge(&self, v: NodeId) -> &TokenSet {
        &self.knowledge[v.index()]
    }

    /// Whether `v` is complete (knows all `k` tokens, Definition 3.1).
    pub fn is_complete(&self, v: NodeId) -> bool {
        self.knowledge[v.index()].is_full()
    }

    /// Number of complete nodes.
    pub fn complete_count(&self) -> usize {
        self.complete_nodes
    }

    /// Whether dissemination is complete.
    pub fn all_complete(&self) -> bool {
        self.complete_nodes == self.knowledge.len()
    }

    /// Total learnings so far.
    pub fn total_learnings(&self) -> u64 {
        self.log.len() as u64
    }

    /// The full learning log.
    pub fn log(&self) -> &[Learning] {
        &self.log
    }

    /// Learnings per round (index 0 = round 1). Rounds the tracker never
    /// synced simply have no entry.
    pub fn learnings_per_round(&self) -> &[u64] {
        &self.learnings_per_round
    }

    /// Syncs node `v`'s knowledge after round `round`, recording every newly
    /// learned token. Returns the number of new learnings.
    ///
    /// Knowledge only grows, so a set whose count equals the tracked
    /// count is the tracked set: such a sync — most of them, since most
    /// events and most receivers of a round teach a node nothing — returns
    /// 0 after comparing two cached counts, without reading either bitset.
    /// Otherwise the diff is a word-level XOR over the two bitsets, and
    /// learned tokens are extracted bit by bit only from the words that
    /// changed; neither path allocates.
    ///
    /// # Panics
    ///
    /// Panics if a token disappears from `v`'s knowledge (token-forwarding
    /// algorithms never forget; checked in debug builds, including a
    /// same-count swap of one token for another) or if the universe size
    /// changed.
    pub fn sync_node(&mut self, v: NodeId, current: &TokenSet, round: Round) -> usize {
        assert_eq!(current.universe(), self.k, "token universe changed");
        let prev = &self.knowledge[v.index()];
        if current.count() == prev.count() {
            debug_assert!(
                current.as_words() == prev.as_words(),
                "{v} forgot a token — token-forwarding algorithms never forget"
            );
            return 0;
        }
        let mut learned = 0usize;
        let was_complete = prev.is_full();
        for (wi, (&cw, &pw)) in current
            .as_words()
            .iter()
            .zip(prev.as_words().iter())
            .enumerate()
        {
            if cw == pw {
                continue;
            }
            debug_assert!(
                pw & !cw == 0,
                "{v} forgot a token — token-forwarding algorithms never forget"
            );
            let mut new_bits = cw & !pw;
            while new_bits != 0 {
                let t = TokenId::new((wi * 64) as u32 + new_bits.trailing_zeros());
                new_bits &= new_bits - 1;
                self.log.push(Learning {
                    node: v,
                    token: t,
                    round,
                });
                learned += 1;
            }
        }
        if learned == 0 {
            return 0;
        }
        while self.learnings_per_round.len() < round as usize {
            self.learnings_per_round.push(0);
        }
        self.learnings_per_round[round as usize - 1] += learned as u64;
        self.knowledge[v.index()].union_with(current);
        if !was_complete && self.knowledge[v.index()].is_full() {
            self.complete_nodes += 1;
        }
        learned
    }

    /// The round by which `v` first became complete, if it has.
    pub fn completion_round(&self, v: NodeId) -> Option<Round> {
        if !self.is_complete(v) {
            return None;
        }
        // A node with full initial knowledge completed at round 0.
        let learned_count = self.log.iter().filter(|l| l.node == v).count();
        if learned_count == 0 {
            return Some(0);
        }
        self.log
            .iter()
            .filter(|l| l.node == v)
            .map(|l| l.round)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(i: u32) -> NodeId {
        NodeId::new(i)
    }

    fn tid(i: u32) -> TokenId {
        TokenId::new(i)
    }

    #[test]
    fn initial_knowledge_is_not_learning() {
        let a = TokenAssignment::single_source(4, 3, nid(1));
        let tr = TokenTracker::new(&a);
        assert_eq!(tr.total_learnings(), 0);
        assert_eq!(tr.complete_count(), 1);
        assert!(tr.is_complete(nid(1)));
        assert!(!tr.all_complete());
    }

    #[test]
    fn sync_records_learnings_and_completion() {
        let a = TokenAssignment::single_source(2, 2, nid(0));
        let mut tr = TokenTracker::new(&a);
        let mut know = TokenSet::new(2);
        know.insert(tid(0));
        assert_eq!(tr.sync_node(nid(1), &know, 3), 1);
        assert!(!tr.is_complete(nid(1)));
        know.insert(tid(1));
        assert_eq!(tr.sync_node(nid(1), &know, 5), 1);
        assert!(tr.all_complete());
        assert_eq!(tr.total_learnings(), 2);
        assert_eq!(tr.completion_round(nid(1)), Some(5));
        assert_eq!(tr.completion_round(nid(0)), Some(0));
        assert_eq!(
            tr.log(),
            &[
                Learning {
                    node: nid(1),
                    token: tid(0),
                    round: 3
                },
                Learning {
                    node: nid(1),
                    token: tid(1),
                    round: 5
                },
            ]
        );
    }

    #[test]
    fn sync_is_idempotent() {
        let a = TokenAssignment::single_source(2, 2, nid(0));
        let mut tr = TokenTracker::new(&a);
        let mut know = TokenSet::new(2);
        know.insert(tid(0));
        assert_eq!(tr.sync_node(nid(1), &know, 1), 1);
        assert_eq!(tr.sync_node(nid(1), &know, 2), 0);
        assert_eq!(tr.total_learnings(), 1);
    }

    #[test]
    fn an_unchanged_set_returns_zero_and_logs_nothing() {
        let a = TokenAssignment::single_source(3, 70, nid(0));
        let mut tr = TokenTracker::new(&a);
        let mut know = TokenSet::new(70);
        know.insert(tid(3));
        know.insert(tid(66));
        assert_eq!(tr.sync_node(nid(1), &know, 1), 2);
        for round in 2..5 {
            assert_eq!(tr.sync_node(nid(1), &know, round), 0);
        }
        assert_eq!(tr.sync_node(nid(2), &TokenSet::new(70), 2), 0);
        assert_eq!(tr.total_learnings(), 2);
        assert_eq!(tr.learnings_per_round(), &[2]);
        assert_eq!(tr.knowledge(nid(1)), &know);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "forgot a token")]
    fn a_same_count_swap_is_a_forgotten_token() {
        let a = TokenAssignment::single_source(2, 70, nid(0));
        let mut tr = TokenTracker::new(&a);
        let mut know = TokenSet::new(70);
        know.insert(tid(1));
        tr.sync_node(nid(1), &know, 1);
        // Same count, different set: token 1 dropped, token 65 gained.
        let mut swapped = TokenSet::new(70);
        swapped.insert(tid(65));
        tr.sync_node(nid(1), &swapped, 2);
    }

    #[test]
    fn learnings_per_round_counts() {
        let a = TokenAssignment::single_source(3, 2, nid(0));
        let mut tr = TokenTracker::new(&a);
        let mut k1 = TokenSet::new(2);
        k1.insert(tid(0));
        tr.sync_node(nid(1), &k1, 2);
        tr.sync_node(nid(2), &k1, 2);
        let full = TokenSet::full(2);
        tr.sync_node(nid(1), &full, 4);
        assert_eq!(tr.learnings_per_round(), &[0, 2, 0, 1]);
    }

    #[test]
    fn required_learnings_for_dissemination() {
        // k tokens each at one node: k(n-1) learnings needed in total.
        let (n, k) = (5, 3);
        let a = TokenAssignment::round_robin_sources(n, k, 3);
        let mut tr = TokenTracker::new(&a);
        let full = TokenSet::full(k);
        for v in NodeId::all(n) {
            tr.sync_node(v, &full, 1);
        }
        assert!(tr.all_complete());
        assert_eq!(tr.total_learnings(), (k * (n - 1)) as u64);
    }
}
