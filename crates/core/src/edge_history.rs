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

/// The requests a node has sent and not yet seen answered, as
/// `(neighbor, token, tag)`, in both execution models: the round nodes'
/// pending requests, the event ports' request windows (one per neighbor,
/// checked before they open) and the walk port's transfers (tagged with
/// their sequence numbers). One `Vec` sorted by neighbor, one neighbor's
/// entries in open order: `iter`, `retain` and `clear` visit and release
/// in that order, the order the walk port re-sends and re-queues in.
#[derive(Clone, Debug, Default)]
pub struct Outstanding<S = ()> {
    entries: Vec<(NodeId, TokenId, S)>,
}

impl<S: Copy + PartialEq> Outstanding<S> {
    /// Whether no request is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The outstanding requests in ascending neighbor order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, TokenId, S)> + '_ {
        self.entries.iter().copied()
    }

    /// Records a request for `t` sent to `u`, after `u`'s earlier ones.
    pub fn open(&mut self, u: NodeId, t: TokenId, tag: S) {
        let i = self.entries.partition_point(|e| e.0 <= u);
        self.entries.insert(i, (u, t, tag));
    }

    /// The token of the oldest request outstanding at `u`, if any.
    pub fn outstanding(&self, u: NodeId) -> Option<TokenId> {
        let i = self.entries.partition_point(|e| e.0 < u);
        let &(w, t, _) = self.entries.get(i)?;
        (w == u).then_some(t)
    }

    /// Closes the first request that is exactly `(u, t, tag)` (its token
    /// arrived); returns whether there was one.
    pub fn close(&mut self, u: NodeId, t: TokenId, tag: S) -> bool {
        let start = self.entries.partition_point(|e| e.0 < u);
        let mut run = self.entries[start..].iter().take_while(|e| e.0 == u);
        let found = run.position(|&e| e == (u, t, tag));
        found.map(|i| self.entries.remove(start + i)).is_some()
    }

    /// Keeps the requests whose neighbor passes `keep` and hands every
    /// other one's token to `release` (their edges died).
    pub fn retain(
        &mut self,
        mut keep: impl FnMut(NodeId) -> bool,
        mut release: impl FnMut(TokenId),
    ) {
        // Round nodes call this on most topology changes, nearly always on
        // an empty record, where even `Vec::retain` measurably costs them.
        if !self.entries.is_empty() {
            self.entries.retain(|&(u, t, _)| {
                keep(u) || {
                    release(t);
                    false
                }
            });
        }
    }

    /// Drops every request (the node completed), handing each token to `release`.
    pub fn clear(&mut self, mut release: impl FnMut(TokenId)) {
        for (_, t, _) in self.entries.drain(..) {
            release(t);
        }
    }
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
/// rounds, contributiveness, and outstanding requests. The caller's
/// `in_flight` [`TokenSet`] mirrors the pending requests' tokens; the
/// tracker removes a request's token whenever it kills the request.
///
/// Storage is **sparse and flat**: one 24-byte `(neighbor, slot)` pair per
/// edge the node currently has, sorted by neighbor ID (O(degree) per node,
/// where a dense table would be O(n²) across the network), and one
/// [`Outstanding`] record of its requests. A dead edge's slot is dropped
/// outright: its requests die on removal and its state resets on
/// reinsertion, so absence and a default slot are indistinguishable.
///
/// Costs, for degree `d` and `p` outstanding requests (about two per edge
/// at most: a request is answered the round after it is sent):
/// [`refresh`](EdgeTracker::refresh) is one slice comparison when the
/// neighbor list is last round's, and otherwise one linear merge into a
/// second buffer it keeps (steady state allocates nothing) and one
/// O(p log d) pass that kills the requests of removed and reinserted
/// edges. Every edge query and every request lookup is a binary search.
#[derive(Clone, Debug, Default)]
pub struct EdgeTracker {
    /// Slots sorted by neighbor ID.
    slots: Vec<(NodeId, EdgeSlot)>,
    /// The merge target of the next topology change (always empty between
    /// calls; kept for its capacity).
    spare: Vec<(NodeId, EdgeSlot)>,
    /// Requests sent and not yet answered. Every entry's node has a slot.
    pending: Outstanding,
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
        // A request dies with its edge: the slot is gone (removed) or was
        // (re)inserted by this refresh (unobserved slots never were).
        let slots = &self.slots;
        self.pending.retain(
            |u| match slots.binary_search_by_key(&u, |&(w, _)| w) {
                Ok(i) => !(slots[i].1.observed && slots[i].1.inserted_round == round),
                Err(_) => false,
            },
            |t| {
                in_flight.remove(t);
            },
        );
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
        self.pending.open(u, t, ());
    }

    /// Whether the edge to `u` has any outstanding request.
    pub fn has_pending(&self, u: NodeId) -> bool {
        self.pending.outstanding(u).is_some()
    }

    /// Retires an outstanding request for `t` on the edge to `u` (the
    /// requested token arrived). Returns `true` if one was found.
    pub fn retire_pending(&mut self, u: NodeId, t: TokenId) -> bool {
        self.pending.close(u, t, ())
    }

    /// Drops every outstanding request (used when the node becomes
    /// complete), clearing the matching `in_flight` entries.
    pub fn clear_all_pending(&mut self, in_flight: &mut TokenSet) {
        self.pending.clear(|t| {
            in_flight.remove(t);
        });
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

    /// A record opened out of neighbor order, as the round nodes' new,
    /// idle and contributive passes open it, with two entries on node 2.
    fn scattered() -> Outstanding<u8> {
        let mut o = Outstanding::default();
        for (u, t, tag) in [(3, 0, 0), (1, 1, 0), (2, 2, 7), (0, 3, 0), (2, 4, 8)] {
            o.open(nid(u), tid(t), tag);
        }
        o
    }

    fn listed(o: &Outstanding<u8>) -> Vec<(usize, usize, u8)> {
        o.iter()
            .map(|(u, t, tag)| (u.index(), t.index(), tag))
            .collect()
    }

    #[test]
    fn outstanding_visits_and_releases_by_neighbor_then_open_order() {
        let mut o = scattered();
        assert_eq!(
            listed(&o),
            [(0, 3, 0), (1, 1, 0), (2, 2, 7), (2, 4, 8), (3, 0, 0)]
        );
        assert_eq!(o.outstanding(nid(2)), Some(tid(2)), "the older of two");
        assert_eq!(o.outstanding(nid(4)), None);
        let mut released = Vec::new();
        o.retain(|u| u == nid(1), |t| released.push(t.index()));
        assert_eq!(released, [3, 2, 4, 0]);
        assert_eq!(listed(&o), [(1, 1, 0)]);
        let mut o = scattered();
        released.clear();
        o.clear(|t| released.push(t.index()));
        assert_eq!(released, [3, 1, 2, 4, 0]);
        assert!(o.is_empty());
    }

    #[test]
    fn outstanding_closes_only_an_exact_first_match() {
        let mut o = scattered();
        assert!(!o.close(nid(2), tid(2), 8), "right token, wrong tag");
        assert!(!o.close(nid(3), tid(2), 7), "right pair, wrong neighbor");
        assert!(o.close(nid(2), tid(4), 8), "the later entry closes alone");
        assert!(!o.close(nid(2), tid(4), 8));
        o.open(nid(1), tid(1), 0); // two identical entries: a close takes one
        assert!(o.close(nid(1), tid(1), 0));
        assert_eq!(listed(&o), [(0, 3, 0), (1, 1, 0), (2, 2, 7), (3, 0, 0)]);
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
        // The survivors are still retired by their own edge only, and the
        // dead requests stay dead when their edge returns.
        assert!(!tr.retire_pending(nid(1), tid(3)));
        assert!(tr.retire_pending(nid(3), tid(3)));
        assert!(tr.retire_pending(nid(1), tid(0)));
        tr.refresh(3, &[nid(1), nid(2), nid(3)], &mut fl);
        assert!(!tr.has_pending(nid(2)));
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
        // Completion drops the survivor and its in-flight token.
        tr.clear_all_pending(&mut fl);
        assert!(fl.is_empty() && !tr.has_pending(nid(4)));
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
