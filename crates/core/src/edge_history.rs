//! Local per-edge history tracking for the unicast algorithms.
//!
//! Both the Single-Source and Multi-Source unicast algorithms classify
//! adjacent edges as **new**, **idle**, or **contributive** (Section 3.1)
//! and track outstanding token requests per edge. This state is purely
//! local: in the KT1 unicast model a node is informed of its neighbor IDs
//! at the beginning of each round, so it can detect insertions and removals
//! of its adjacent edges by diffing consecutive neighbor lists. The nodes
//! reach their tracker through [`Requests`](crate::dissemination::Requests).

use dynspread_graph::{NodeId, Round};
use dynspread_sim::token::{TokenId, TokenSet};

/// The per-round category of an adjacent edge (Section 3.1).
///
/// For an edge `{v, w}` (with `v` incomplete and `w` complete) in round `r`:
/// *new* if inserted at the beginning of round `r` or `r − 1`;
/// *contributive* if not new but a token was received over it since its
/// last insertion; *idle* otherwise. Requests are assigned new-first, then
/// idle, then contributive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EdgeCategory {
    /// Inserted at the beginning of round `r` or `r − 1`.
    New,
    /// Neither new nor contributive.
    Idle,
    /// A token arrived over this edge since its last insertion.
    Contributive,
}

/// One tracked adjacent edge.
#[derive(Clone, Debug, Default)]
struct EdgeSlot {
    /// Whether the edge was present at the last `refresh`. A slot created
    /// by `note_token`/`push_pending` for a node that is not a neighbor
    /// stays unobserved — and untouched by `refresh` — until that node
    /// shows up in a neighbor list.
    observed: bool,
    /// Round of the most recent insertion.
    inserted_round: Round,
    /// Whether a token arrived over this edge since its last insertion.
    contributive: bool,
}

impl EdgeSlot {
    /// The slot of an edge (re)inserted in `round`.
    fn inserted(round: Round) -> Self {
        EdgeSlot {
            observed: true,
            inserted_round: round,
            contributive: false,
        }
    }
}

/// Tracks the local view of all adjacent edges of one node: insertion
/// rounds, contributiveness, and outstanding requests.
///
/// The companion `in_flight` [`TokenSet`] (owned by the caller) mirrors the
/// union of all pending requests; the tracker keeps it in sync by removing
/// a request's token whenever it kills the request.
///
/// Storage is **sparse and flat**: one `(neighbor, slot)` pair of 24
/// bytes per edge the node currently has, in a `Vec` sorted by neighbor
/// ID — O(degree) memory per node (a dense per-node table would be O(n²)
/// across the network) — and one list of the node's outstanding
/// `(neighbor, token)` requests, whatever their edge. Nothing is allocated
/// or freed per edge. A dead edge's slot is dropped outright: its
/// requests are killed on removal and its `new`/`contributive` state is
/// unconditionally reset on reinsertion, so absence and a default slot
/// are indistinguishable.
///
/// Costs, for a node of degree `d` with `p` outstanding requests (at most
/// about two per edge: a request is answered the round after it is
/// sent): [`refresh`](EdgeTracker::refresh) is one `d`-element slice
/// comparison when the neighbor list equals the previous round's, and
/// otherwise one linear merge of the old slots with the new list, into a
/// second buffer the tracker keeps (steady state allocates nothing),
/// followed — only if `p > 0` — by one O(p log d) pass that kills the
/// requests of removed and reinserted edges; every per-edge query is a
/// binary search, O(log d), and a request lookup is a scan of the `p`.
#[derive(Clone, Debug, Default)]
pub struct EdgeTracker {
    /// Slots sorted by neighbor ID.
    slots: Vec<(NodeId, EdgeSlot)>,
    /// The merge target of the next topology change (always empty between
    /// calls; kept for its capacity).
    spare: Vec<(NodeId, EdgeSlot)>,
    /// Requests sent and not yet answered, as `(edge, token)`, in no
    /// particular order. Every entry's node has a slot.
    pending: Vec<(NodeId, TokenId)>,
    /// The neighbor list and round of the last `refresh`.
    prev_neighbors: Vec<NodeId>,
    prev_round: Option<Round>,
}

impl EdgeTracker {
    /// Creates a tracker that has seen no edge yet.
    pub fn new() -> Self {
        EdgeTracker::default()
    }

    /// Refreshes history at the start of round `round` given the current
    /// (sorted) neighbor list. Outstanding requests on removed or freshly
    /// reinserted edges die; each dead request's token is removed from
    /// `in_flight` (it becomes requestable again). An edge counts as
    /// present throughout only if it was also in the list of round
    /// `round − 1`: a skipped round reinserts every edge — unless the
    /// caller vouches for the gap with [`resume`](EdgeTracker::resume).
    pub fn refresh(&mut self, round: Round, neighbors: &[NodeId], in_flight: &mut TokenSet) {
        let consecutive = self.prev_round == Some(round.wrapping_sub(1));
        self.prev_round = Some(round);
        if consecutive && neighbors == self.prev_neighbors {
            // Every edge was present last round and still is: nothing to
            // reset, nothing to kill.
            return;
        }
        let mut old = std::mem::take(&mut self.slots);
        let mut merged = std::mem::take(&mut self.spare);
        let mut incoming = neighbors.iter().copied().peekable();
        for (u, mut slot) in old.drain(..) {
            while let Some(w) = incoming.next_if(|&w| w < u) {
                merged.push((w, EdgeSlot::inserted(round)));
            }
            if incoming.next_if_eq(&u).is_some() {
                if !(consecutive && slot.observed) {
                    // Reinserted (or first observed): history starts over.
                    slot = EdgeSlot::inserted(round);
                }
                merged.push((u, slot));
            } else if !slot.observed {
                merged.push((u, slot));
            }
        }
        merged.extend(incoming.map(|w| (w, EdgeSlot::inserted(round))));
        self.slots = merged;
        self.spare = old;
        self.prev_neighbors.clear();
        self.prev_neighbors.extend_from_slice(neighbors);
        if !self.pending.is_empty() {
            // A request dies with its edge: the slot is gone (removed) or
            // was (re)inserted by this refresh. Surviving slots were
            // inserted in an earlier round, unobserved ones never.
            let slots = &self.slots;
            self.pending.retain(|&(u, t)| {
                let alive = slots
                    .binary_search_by_key(&u, |&(w, _)| w)
                    .is_ok_and(|i| !(slots[i].1.observed && slots[i].1.inserted_round == round));
                if !alive {
                    in_flight.remove(t);
                }
                alive
            });
        }
    }

    /// Declares that in every round since the last
    /// [`refresh`](EdgeTracker::refresh) and before `round` the neighbor
    /// list was the one that refresh saw, so the refreshes that were skipped
    /// would all have taken the nothing-changed path. The `refresh(round, …)`
    /// that follows then reads the gap as continuous presence instead of as
    /// every edge having been reinserted. This is what a node that
    /// [parked](dynspread_sim::protocol::Outbox::park) calls when it is
    /// woken: the engine only skips it while its neighbor list stands still.
    /// A no-op on a tracker that was never refreshed.
    pub fn resume(&mut self, round: Round) {
        if self.prev_round.is_some() {
            self.prev_round = Some(round.wrapping_sub(1));
        }
    }

    /// Where `u`'s slot is (`Ok`) or would be inserted (`Err`).
    fn position(&self, u: NodeId) -> Result<usize, usize> {
        self.slots.binary_search_by_key(&u, |&(w, _)| w)
    }

    /// The slot of `u`, created (unobserved) if the tracker has none.
    fn slot_mut(&mut self, u: NodeId) -> &mut EdgeSlot {
        let i = self.position(u).unwrap_or_else(|i| {
            self.slots.insert(i, (u, EdgeSlot::default()));
            i
        });
        &mut self.slots[i].1
    }

    /// Classifies the edge to current neighbor `u` in round `round`.
    pub fn classify(&self, u: NodeId, round: Round) -> EdgeCategory {
        let (inserted_round, contributive) = self.position(u).map_or((0, false), |i| {
            (self.slots[i].1.inserted_round, self.slots[i].1.contributive)
        });
        if inserted_round + 1 >= round {
            EdgeCategory::New
        } else if contributive {
            EdgeCategory::Contributive
        } else {
            EdgeCategory::Idle
        }
    }

    /// Marks the edge to `u` contributive (a token arrived over it).
    pub fn note_token(&mut self, u: NodeId) {
        self.slot_mut(u).contributive = true;
    }

    /// Records a request for `t` sent over the edge to `u`.
    pub fn push_pending(&mut self, u: NodeId, t: TokenId) {
        self.slot_mut(u);
        self.pending.push((u, t));
    }

    /// Whether the edge to `u` has any outstanding request.
    pub fn has_pending(&self, u: NodeId) -> bool {
        self.pending.iter().any(|&(w, _)| w == u)
    }

    /// Retires an outstanding request for `t` on the edge to `u` (the
    /// requested token arrived). Returns `true` if one was found.
    pub fn retire_pending(&mut self, u: NodeId, t: TokenId) -> bool {
        match self.pending.iter().position(|&p| p == (u, t)) {
            Some(i) => {
                self.pending.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Drops every outstanding request (used when the node becomes
    /// complete), clearing the matching `in_flight` entries.
    pub fn clear_all_pending(&mut self, in_flight: &mut TokenSet) {
        for (_, t) in self.pending.drain(..) {
            in_flight.remove(t);
        }
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
    fn fresh_edge_is_new_for_two_rounds_then_idle() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(5, &[nid(1)], &mut fl);
        assert_eq!(tr.classify(nid(1), 5), EdgeCategory::New);
        tr.refresh(6, &[nid(1)], &mut fl);
        assert_eq!(tr.classify(nid(1), 6), EdgeCategory::New);
        tr.refresh(7, &[nid(1)], &mut fl);
        assert_eq!(tr.classify(nid(1), 7), EdgeCategory::Idle);
    }

    #[test]
    fn token_arrival_makes_edge_contributive_until_reinsertion() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(2)], &mut fl);
        tr.note_token(nid(2));
        tr.refresh(2, &[nid(2)], &mut fl);
        // Still new (inserted round 1 ≥ round − 1 = 1)…
        assert_eq!(tr.classify(nid(2), 2), EdgeCategory::New);
        tr.refresh(3, &[nid(2)], &mut fl);
        assert_eq!(tr.classify(nid(2), 3), EdgeCategory::Contributive);
        // Removal + reinsertion resets contributiveness.
        tr.refresh(4, &[], &mut fl);
        tr.refresh(5, &[nid(2)], &mut fl);
        assert_eq!(tr.classify(nid(2), 5), EdgeCategory::New);
        tr.refresh(6, &[nid(2)], &mut fl);
        tr.refresh(7, &[nid(2)], &mut fl);
        assert_eq!(tr.classify(nid(2), 7), EdgeCategory::Idle);
    }

    #[test]
    fn pending_requests_die_with_the_edge() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(1)], &mut fl);
        fl.insert(tid(2));
        tr.push_pending(nid(1), tid(2));
        assert!(tr.has_pending(nid(1)));
        // Edge disappears: pending dies, token requestable again.
        tr.refresh(2, &[], &mut fl);
        assert!(!fl.contains(tid(2)));
        tr.refresh(3, &[nid(1)], &mut fl);
        assert!(!tr.has_pending(nid(1)));
    }

    #[test]
    fn retire_pending_matches_token() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(1)], &mut fl);
        tr.push_pending(nid(1), tid(0));
        tr.push_pending(nid(1), tid(3));
        assert!(tr.retire_pending(nid(1), tid(3)));
        assert!(!tr.retire_pending(nid(1), tid(3)));
        assert!(tr.retire_pending(nid(1), tid(0)));
        assert!(!tr.has_pending(nid(1)));
    }

    #[test]
    fn a_removed_edge_releases_only_its_own_requests() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(8);
        tr.refresh(1, &[nid(1), nid(2), nid(3)], &mut fl);
        for (u, t) in [
            (nid(1), tid(0)),
            (nid(2), tid(1)),
            (nid(2), tid(2)),
            (nid(3), tid(3)),
        ] {
            fl.insert(t);
            tr.push_pending(u, t);
        }
        tr.refresh(2, &[nid(1), nid(3)], &mut fl);
        assert!(!tr.has_pending(nid(2)));
        assert!(!fl.contains(tid(1)) && !fl.contains(tid(2)));
        for (u, t) in [(nid(1), tid(0)), (nid(3), tid(3))] {
            assert!(tr.has_pending(u) && fl.contains(t));
        }
        // The survivors are still retired by their own edge only.
        assert!(!tr.retire_pending(nid(1), tid(3)));
        assert!(tr.retire_pending(nid(3), tid(3)));
        assert!(tr.retire_pending(nid(1), tid(0)));
    }

    #[test]
    fn the_later_of_two_requests_on_one_edge_retires_first() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(1)], &mut fl);
        tr.push_pending(nid(1), tid(2));
        tr.push_pending(nid(1), tid(1));
        // The later request's token arrives first: the earlier one stays.
        assert!(tr.retire_pending(nid(1), tid(1)));
        assert!(tr.has_pending(nid(1)));
        assert!(!tr.retire_pending(nid(1), tid(1)));
        assert!(tr.retire_pending(nid(1), tid(2)));
        assert!(!tr.has_pending(nid(1)));
    }

    #[test]
    fn a_request_on_an_unobserved_slot_survives_until_its_node_is_listed() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(1)], &mut fl);
        // Node 4 is no neighbor: its slot exists but is unobserved.
        fl.insert(tid(3));
        tr.push_pending(nid(4), tid(3));
        // A refresh that changes the list without node 4 keeps it.
        tr.refresh(2, &[nid(2)], &mut fl);
        assert!(tr.has_pending(nid(4)));
        assert!(fl.contains(tid(3)));
        // First observed: history starts over and the request dies.
        tr.refresh(3, &[nid(2), nid(4)], &mut fl);
        assert!(!tr.has_pending(nid(4)));
        assert!(!fl.contains(tid(3)));
    }

    #[test]
    fn clear_all_pending_resets_in_flight() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        tr.refresh(1, &[nid(1), nid(2)], &mut fl);
        for (u, t) in [(nid(1), tid(0)), (nid(2), tid(1))] {
            fl.insert(t);
            tr.push_pending(u, t);
        }
        tr.clear_all_pending(&mut fl);
        assert!(fl.is_empty());
        assert!(!tr.has_pending(nid(1)));
        assert!(!tr.has_pending(nid(2)));
    }

    #[test]
    fn unchanged_neighbor_list_ages_edges_and_keeps_requests() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        let nbrs = [nid(1), nid(3)];
        tr.refresh(5, &nbrs, &mut fl);
        fl.insert(tid(2));
        tr.push_pending(nid(3), tid(2));
        tr.note_token(nid(1));
        assert_eq!(tr.classify(nid(1), 5), EdgeCategory::New);
        // Two more rounds on the identical list: New → New → not new,
        // with the request and the contributive mark carried along.
        tr.refresh(6, &nbrs, &mut fl);
        assert_eq!(tr.classify(nid(1), 6), EdgeCategory::New);
        assert_eq!(tr.classify(nid(3), 6), EdgeCategory::New);
        tr.refresh(7, &nbrs, &mut fl);
        assert_eq!(tr.classify(nid(1), 7), EdgeCategory::Contributive);
        assert_eq!(tr.classify(nid(3), 7), EdgeCategory::Idle);
        assert!(tr.has_pending(nid(3)));
        assert!(fl.contains(tid(2)));
    }

    #[test]
    fn skipped_round_reinserts_even_an_unchanged_list() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        let nbrs = [nid(1), nid(3)];
        for round in 1..=3 {
            tr.refresh(round, &nbrs, &mut fl);
        }
        tr.note_token(nid(1));
        fl.insert(tid(0));
        tr.push_pending(nid(3), tid(0));
        assert_eq!(tr.classify(nid(1), 3), EdgeCategory::Contributive);
        // Round 4 never refreshed: in round 5 both edges are fresh
        // insertions, so history resets and the request dies.
        tr.refresh(5, &nbrs, &mut fl);
        assert_eq!(tr.classify(nid(1), 5), EdgeCategory::New);
        assert_eq!(tr.classify(nid(3), 5), EdgeCategory::New);
        assert!(!tr.has_pending(nid(3)));
        assert!(!fl.contains(tid(0)));
        tr.refresh(6, &nbrs, &mut fl);
        tr.refresh(7, &nbrs, &mut fl);
        assert_eq!(tr.classify(nid(1), 7), EdgeCategory::Idle);
    }

    #[test]
    fn resumed_gap_is_continuous_presence() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(4);
        let nbrs = [nid(1), nid(3)];
        for round in 1..=3 {
            tr.refresh(round, &nbrs, &mut fl);
        }
        tr.note_token(nid(1));
        fl.insert(tid(0));
        tr.push_pending(nid(3), tid(0));
        // Rounds 4..=8 skipped with the list standing still; in round 9
        // node 3 leaves and node 2 arrives.
        tr.resume(9);
        tr.refresh(9, &[nid(1), nid(2)], &mut fl);
        assert_eq!(tr.classify(nid(1), 9), EdgeCategory::Contributive);
        assert_eq!(tr.classify(nid(2), 9), EdgeCategory::New);
        assert!(!fl.contains(tid(0)), "the request died with its edge");
        // Resuming a tracker that never refreshed invents no history.
        let mut fresh = EdgeTracker::new();
        fresh.resume(5);
        fresh.refresh(5, &nbrs, &mut fl);
        assert_eq!(fresh.classify(nid(1), 5), EdgeCategory::New);
    }

    #[test]
    fn merge_keeps_survivors_and_drops_the_rest() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(8);
        tr.refresh(1, &[nid(2), nid(4), nid(6)], &mut fl);
        for (u, t) in [(nid(2), tid(0)), (nid(4), tid(1)), (nid(6), tid(2))] {
            fl.insert(t);
            tr.push_pending(u, t);
        }
        // 4 survives between two arrivals; 2 and 6 leave.
        tr.refresh(2, &[nid(1), nid(4), nid(5), nid(7)], &mut fl);
        assert!(tr.has_pending(nid(4)));
        assert!(fl.contains(tid(1)));
        for gone in [nid(2), nid(6)] {
            assert!(!tr.has_pending(gone));
        }
        assert!(!fl.contains(tid(0)) && !fl.contains(tid(2)));
        tr.refresh(3, &[nid(1), nid(4), nid(5), nid(7)], &mut fl);
        tr.refresh(4, &[nid(1), nid(4), nid(5), nid(7)], &mut fl);
        // 4 has been around since round 1, the arrivals since round 2.
        for u in [nid(1), nid(4), nid(5), nid(7)] {
            assert_eq!(tr.classify(u, 4), EdgeCategory::Idle);
        }
        assert_eq!(tr.classify(nid(4), 3), EdgeCategory::Idle);
        assert_eq!(tr.classify(nid(5), 3), EdgeCategory::New);
    }

    #[test]
    fn gap_in_presence_is_reinsertion() {
        let mut tr = EdgeTracker::new();
        let mut fl = TokenSet::new(1);
        tr.refresh(1, &[nid(1)], &mut fl);
        tr.refresh(2, &[nid(1)], &mut fl);
        tr.refresh(3, &[nid(1)], &mut fl);
        assert_eq!(tr.classify(nid(1), 3), EdgeCategory::Idle);
        // Absent in 4, back in 5 → new again.
        tr.refresh(4, &[], &mut fl);
        tr.refresh(5, &[nid(1)], &mut fl);
        assert_eq!(tr.classify(nid(1), 5), EdgeCategory::New);
        assert_eq!(tr.classify(nid(1), 6), EdgeCategory::New);
    }
}
