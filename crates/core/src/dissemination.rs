//! Transport-agnostic decision state of the token-dissemination algorithms.
//!
//! Algorithm 1 and its multi-source extension are specified over
//! synchronous rounds, but their *decisions* — which tokens are still
//! worth requesting, which peers are known complete, who has been informed
//! of our own completeness — do not depend on the round structure at all.
//! This module extracts that state so the same logic drives both
//! execution models:
//!
//! * the round-based [`UnicastProtocol`](dynspread_sim::protocol::UnicastProtocol)
//!   nodes ([`SingleSourceNode`](crate::single_source::SingleSourceNode),
//!   [`MultiSourceNode`](crate::multi_source::MultiSourceNode)), where one
//!   request is assigned per eligible edge per round and reliability is
//!   the model's (every sent message arrives);
//! * the asynchronous `EventProtocol` ports in `dynspread-runtime`
//!   (`AsyncSingleSource`, `AsyncMultiSource`), where the same assignment
//!   engine feeds per-neighbor retransmission windows and reliability is
//!   the protocol's (explicit retransmission + receiver-side dedup).
//!
//! Four pieces:
//!
//! * [`DisseminationCore`] — token knowledge `K_v`, the in-flight request
//!   set, and the distinct-missing-token assigner ("assign each eligible
//!   channel a *different* missing token, lowest first" — Algorithm 1
//!   lines 13–19). All three are bit words: starting a pass costs
//!   O(k/64) and each assignment O(1), so a node with `k` missing tokens
//!   and `d` eligible channels pays O(d + k/64) per pass, not O(k).
//! * [`Requests`] — the round model's request side: that core plus the
//!   edge tracker whose pending requests its in-flight set mirrors.
//! * [`CompletenessLedger`] — the paper's `R_v(x)` (whom we have informed
//!   of our completeness w.r.t. source `x`) and `S_v(x)` (who announced
//!   completeness to us), for all `s` sources, both *monotone*: bits are
//!   only ever set. Dense over the network and peer-major: the round-based
//!   nodes' ledger, and the async single-source port's. In the async ports
//!   `R_v` doubles as acknowledgment state (set on `Ack`, not on send),
//!   which is what makes announcement retransmission idempotent.
//! * [`PeerLedger`] — the same `R_v(x)` / `S_v(x)`, stored per peer *heard
//!   from* instead of per node of the network: the asynchronous
//!   multi-source port's ledger.

use crate::edge_history::{EdgeCategory, EdgeTracker};
use dynspread_graph::node::IdHasher;
use dynspread_graph::{NodeId, Round};
use dynspread_sim::protocol::Outbox;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Token knowledge plus the distinct-missing-token request assigner shared
/// by every dissemination protocol, round-based or asynchronous.
///
/// # Examples
///
/// ```
/// use dynspread_core::dissemination::DisseminationCore;
/// use dynspread_graph::NodeId;
/// use dynspread_sim::token::{TokenAssignment, TokenId};
///
/// let a = TokenAssignment::single_source(3, 2, NodeId::new(0));
/// let mut core = DisseminationCore::from_assignment(NodeId::new(1), &a);
/// assert!(!core.is_complete());
///
/// // Assign distinct missing tokens to two channels.
/// core.refill();
/// let first = core.assign_next().unwrap();
/// let second = core.assign_next().unwrap();
/// assert_ne!(first, second);
/// assert!(core.assign_next().is_none());
///
/// // The answered token leaves the in-flight set; the other stays.
/// assert!(core.accept_token(first));
/// core.release(first);
/// core.refill();
/// assert!(core.assign_next().is_none(), "t1 is still in flight");
/// ```
#[derive(Clone, Debug)]
pub struct DisseminationCore {
    /// `K_v`: the tokens this node holds. Monotone — tokens are never
    /// forgotten.
    know: TokenSet,
    /// Tokens with an outstanding (live) request on some channel.
    in_flight: TokenSet,
    /// The current assignment pass: a bit-word *snapshot* of the
    /// requestable tokens taken by the last `refill*`, in the layout of
    /// [`TokenSet::as_words`]. A bit is cleared when its token is
    /// assigned; nothing else touches it until the next refill, so tokens
    /// released or learned mid-pass do not change what the pass offers.
    /// Reused across passes (no per-pass allocation).
    pass: Vec<u64>,
    /// Index of the first non-zero word of `pass`, or `pass.len()` when
    /// the pass is exhausted.
    cursor: usize,
}

impl DisseminationCore {
    /// Creates the core for node `v` with its initial knowledge from
    /// `assignment`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for the assignment.
    pub fn from_assignment(v: NodeId, assignment: &TokenAssignment) -> Self {
        assert!(v.index() < assignment.node_count(), "node out of range");
        DisseminationCore::with_knowledge(assignment.initial_knowledge(v))
    }

    /// Creates the core with an explicit knowledge set (phase handoffs and
    /// tests).
    pub fn with_knowledge(know: TokenSet) -> Self {
        DisseminationCore {
            in_flight: TokenSet::new(know.universe()),
            know,
            pass: Vec::new(),
            cursor: 0,
        }
    }

    /// The node's current token knowledge `K_v`.
    pub fn known_tokens(&self) -> &TokenSet {
        &self.know
    }

    /// Whether the node is complete (Definition 3.1).
    pub fn is_complete(&self) -> bool {
        self.know.is_full()
    }

    /// Applies a received token: inserts it into `K_v`, returning whether
    /// it was new. Duplicate deliveries (retransmissions, duplicating
    /// links) return `false` — application is at-most-once by
    /// construction.
    pub fn accept_token(&mut self, t: TokenId) -> bool {
        self.know.insert(t)
    }

    /// Whether `t` currently has an outstanding request on some channel.
    pub fn in_flight(&self, t: TokenId) -> bool {
        self.in_flight.contains(t)
    }

    /// Retires an outstanding request for `t`: the token arrived (or its
    /// channel died), so it becomes assignable again — from the next
    /// `refill*` on; the current pass is a snapshot and does not see it.
    pub fn release(&mut self, t: TokenId) {
        self.in_flight.remove(t);
    }

    /// Mutable access to the in-flight set, for callers that keep it in
    /// sync with their own channel bookkeeping ([`Requests`] lets its
    /// [`EdgeTracker`] release dead edges' pending requests directly into
    /// it).
    pub fn in_flight_mut(&mut self) -> &mut TokenSet {
        &mut self.in_flight
    }

    /// Starts an assignment pass over **all** missing tokens without an
    /// outstanding request, in increasing token order. O(k/64): the pass
    /// is `!(know | in_flight)` word by word.
    pub fn refill(&mut self) {
        self.pass.clear();
        self.pass.extend(requestable(&self.know, &self.in_flight));
        self.seek(0);
    }

    /// Starts an assignment pass over the requestable tokens of `scope`
    /// (missing and not in flight), in increasing token order — the
    /// multi-source algorithms restrict each pass to the active source's
    /// tokens. O(k/64).
    ///
    /// # Panics
    ///
    /// Panics if `scope` is over a different universe.
    pub fn refill_within(&mut self, scope: &TokenSet) {
        assert_eq!(scope.universe(), self.know.universe(), "universe mismatch");
        self.pass.clear();
        self.pass.extend(
            requestable(&self.know, &self.in_flight)
                .zip(scope.as_words())
                .map(|(requestable, &scope)| requestable & scope),
        );
        self.seek(0);
    }

    /// Moves the cursor to the first non-zero pass word at or after `from`.
    fn seek(&mut self, from: usize) {
        self.cursor = self.pass[from..]
            .iter()
            .position(|&w| w != 0)
            .map_or(self.pass.len(), |i| from + i);
    }

    /// Whether the current pass has tokens left to assign.
    pub fn has_assignable(&self) -> bool {
        self.cursor < self.pass.len()
    }

    /// Assigns the next token of the current pass to a channel: marks it
    /// in flight and returns it, or `None` when the pass is exhausted.
    /// Successive calls within one pass always return *distinct* tokens,
    /// in increasing order. O(1) amortized over the pass.
    pub fn assign_next(&mut self) -> Option<TokenId> {
        let word = *self.pass.get(self.cursor)?;
        let t = TokenId::new((self.cursor * 64) as u32 + word.trailing_zeros());
        // `word & (word - 1)` clears the lowest set bit.
        let rest = word & (word - 1);
        self.pass[self.cursor] = rest;
        if rest == 0 {
            self.seek(self.cursor + 1);
        }
        self.in_flight.insert(t);
        Some(t)
    }
}

/// `!(know | in_flight)` word by word, clipped to the universe: the tokens
/// a pass may offer.
fn requestable<'a>(know: &'a TokenSet, in_flight: &'a TokenSet) -> impl Iterator<Item = u64> + 'a {
    know.missing_words()
        .zip(in_flight.as_words())
        .map(|(missing, &flying)| missing & !flying)
}

/// The round model's request side, written once for
/// [`SingleSourceNode`](crate::single_source::SingleSourceNode) and
/// [`MultiSourceNode`](crate::multi_source::MultiSourceNode): the core, the
/// node's [`EdgeTracker`] and the requests waiting for their answer. A
/// request is in flight from its assignment until its token arrives over
/// its edge, the edge dies or the node completes; keeping the in-flight set
/// equal to the tracker's pending requests is this type's job alone.
///
/// Both nodes call [`open`](Self::open) only while incomplete: a complete
/// node assigns nothing, and [`close`](Self::close) dropped its last
/// pending request, so the edge history `open` refreshes has no reader
/// left. [`answer`](Self::answer), [`settle`](Self::settle) and `close`
/// still run every round.
#[derive(Clone, Debug)]
pub struct Requests {
    core: DisseminationCore,
    edges: EdgeTracker,
    /// Requests received this round (answered next round).
    arriving: Vec<(NodeId, TokenId)>,
    /// Requests received last round (answered this round).
    to_answer: Vec<(NodeId, TokenId)>,
    /// Whether the last `send` parked (see [`Outbox::park`]): the next
    /// `open` reads the rounds it slept through as continuous presence.
    parked: bool,
}

impl Requests {
    /// The request side of `core`, before any round.
    pub fn new(core: DisseminationCore) -> Self {
        Requests {
            core,
            edges: EdgeTracker::new(),
            arriving: Vec::new(),
            to_answer: Vec::new(),
            parked: false,
        }
    }

    /// The decision state: `K_v` and the in-flight set.
    pub fn core(&self) -> &DisseminationCore {
        &self.core
    }

    /// Classifies the edge to current neighbor `u` in round `round`.
    pub fn classify(&self, u: NodeId, round: Round) -> EdgeCategory {
        self.edges.classify(u, round)
    }

    /// Starts an incomplete node's requests: requests on edges that left or
    /// were reinserted die.
    pub fn open(&mut self, round: Round, neighbors: &[NodeId]) {
        if std::mem::take(&mut self.parked) {
            self.edges.resume(round);
        }
        self.edges
            .refresh(round, neighbors, self.core.in_flight_mut());
    }

    /// Hands last round's requests and `K_v` to `f`; unanswered ones die.
    pub fn answer(&mut self, f: impl FnOnce(&[(NodeId, TokenId)], &TokenSet)) {
        f(&self.to_answer, self.core.known_tokens());
        self.to_answer.clear();
    }

    /// One round's requests (Algorithm 1 lines 7–20): one pass over the
    /// requestable tokens (of `scope`, if given), then per entry of
    /// `passes` (`None` matches every category) a sweep that gives each
    /// `eligible` neighbor on an edge of that category the next token,
    /// pending on that edge, and calls `send(u, t, category)`.
    pub fn assign(
        &mut self,
        round: Round,
        neighbors: &[NodeId],
        scope: Option<&TokenSet>,
        passes: &[Option<EdgeCategory>],
        eligible: impl Fn(NodeId) -> bool,
        mut send: impl FnMut(NodeId, TokenId, EdgeCategory),
    ) {
        match scope {
            Some(scope) => self.core.refill_within(scope),
            None => self.core.refill(),
        }
        for &pass in passes {
            for &u in neighbors {
                if !self.core.has_assignable() {
                    return;
                }
                if !eligible(u) {
                    continue;
                }
                let category = self.edges.classify(u, round);
                if pass.is_none_or(|c| c == category) {
                    let t = self.core.assign_next().expect("has_assignable");
                    self.edges.push_pending(u, t);
                    send(u, t, category);
                }
            }
        }
    }

    /// Ends `send`: parks if it was `silent` and no request awaits an answer.
    pub fn settle<M>(&mut self, silent: bool, out: &mut Outbox<M>) {
        self.parked = silent && self.to_answer.is_empty();
        if self.parked {
            out.park();
        }
    }

    /// `from` asked for `t`; it is answered next round.
    pub fn receive_request(&mut self, from: NodeId, t: TokenId) {
        self.arriving.push((from, t));
    }

    /// Token `t` arrived over the edge from `from`: returns whether it is new.
    pub fn receive_token(&mut self, from: NodeId, t: TokenId) -> bool {
        let new = self.core.accept_token(t);
        self.edges.note_token(from);
        if self.edges.retire_pending(from, t) {
            self.core.release(t);
        }
        new
    }

    /// Ends the round; a complete node drops every pending request.
    pub fn close(&mut self) {
        // Swap (not take) so both buffers' capacity survives the round.
        std::mem::swap(&mut self.to_answer, &mut self.arriving);
        self.arriving.clear();
        if self.core.is_complete() {
            self.edges.clear_all_pending(self.core.in_flight_mut());
        }
    }
}

/// The paper's per-node completeness bookkeeping for all `s` sources at
/// once: `R_v(x)` (peers informed of our completeness w.r.t. source `x`)
/// and `S_v(x)` (peers that announced it to us), as monotone bits over
/// every node of the network. The single-source nodes, round-based and
/// asynchronous, keep one at `s = 1` and use source index 0;
/// `MultiSourceNode` keeps one at its `s`.
///
/// The layout is **peer-major**: peer `u` has one *lane* in each half,
/// holding its bits of every source — `s` bits rounded up to a power of
/// two when `s ≤ 64` (lanes never straddle a word), `⌈s/64⌉` whole words
/// above; at `s = 1` a lane is one bit. Why dense and peer-major: a
/// synchronous run lasts thousands of rounds and a node meets about half
/// the network, so [`PeerLedger`]'s hashed rows lost to dense bits there
/// (`unicast_sparse` 1.00–1.11 → 1.32–1.42 s, 31.5 → 70.9 MB); and one
/// bit vector per source spread a peer's bits over `s` heap blocks, so
/// each round's per-edge questions (the lowest source `u` is owed, whether
/// `u` is complete for the active source) cost up to `s` random reads and
/// each incoming announcement two dependent ones. In one lane each is one
/// word, read as a source mask as in [`PeerLedger`], at `lane/4` bytes
/// per node of the network.
///
/// The round-based nodes stop writing `S_v` once they are complete: it only
/// ever picks whom to request from (and, at `s > 1`, the active source),
/// and a complete node requests nothing again, so the announcements that
/// keep arriving from complete neighbours are read and dropped. The
/// asynchronous ports keep writing it at every node, because
/// [`note_peer_complete`](Self::note_peer_complete)'s return value — was
/// this news? — drives their heartbeat pacer.
///
/// The asynchronous ports reuse `R_v` as *acknowledgment* state: a peer is
/// marked informed only when its `Ack` arrives, so unacked announcements
/// keep being retransmitted and the at-most-once "announce ever" budget of
/// the synchronous algorithm becomes an at-most-once *acknowledged* budget.
///
/// Source masks (`mine` below) are `⌈s/64⌉` words, bit `idx % 64` of word
/// `idx / 64` for source index `idx`, bits at or above `s` clear.
///
/// # Panics
///
/// The writes ([`note_peer_complete`](Self::note_peer_complete),
/// [`mark_informed`](Self::mark_informed)) panic on a source index `idx ≥ s`
/// or a peer `u ≥ n`: with packed lanes either would land in another
/// peer's lane or the other half. The reads check the same in debug
/// builds only.
///
/// # Examples
///
/// ```
/// use dynspread_core::dissemination::CompletenessLedger;
/// use dynspread_graph::NodeId;
///
/// let mut ledger = CompletenessLedger::new(3, 1);
/// let u = NodeId::new(2);
/// assert!(ledger.note_peer_complete(0, u), "first announcement is news");
/// assert!(!ledger.note_peer_complete(0, u), "repeats are not");
/// assert!(ledger.peer_complete(0, u));
/// assert!(ledger.needs_inform(0, u));
/// assert!(ledger.mark_informed(0, u));
/// assert!(!ledger.needs_inform(0, u));
///
/// // Three sources: we are complete for sources 0 and 2.
/// let (mut ledger, mine) = (CompletenessLedger::new(3, 3), [0b101]);
/// assert_eq!(ledger.lowest_owed(&mine, u), Some(0));
/// assert!(ledger.mark_informed(0, u));
/// assert_eq!(ledger.lowest_owed(&mine, u), Some(2));
/// assert_eq!(ledger.active_source(&mine), None);
/// assert!(ledger.note_peer_complete(1, u));
/// assert_eq!(ledger.active_source(&mine), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct CompletenessLedger {
    /// Number of nodes the ledger covers.
    n: usize,
    /// `s`, the number of sources.
    sources: usize,
    /// Bits per lane: `s` rounded up to a power of two, or to whole words
    /// above 64. Peer `u`'s bit of source `idx` is bit `u · lane + idx` of
    /// a half.
    lane: usize,
    /// Bits per half: `n` lanes, rounded up to whole words.
    half: usize,
    /// One allocation, word-packed (bit `i % 64` of word `i / 64`): the
    /// `R_v(·)` half — peers informed of (async: that acknowledged) our
    /// completeness — from bit 0, the `S_v(·)` half — peers that announced
    /// completeness to us — from bit `half`, then from bit `2 · half` the
    /// source mask of `{x : S_v(x) ≠ ∅}` (`S_v(x)` only grows within an
    /// incarnation, so one bit per source stands in for `|S_v(x)|`).
    bits: Vec<u64>,
}

/// Sets bit `i`; returns `true` iff it was previously clear.
#[inline]
fn set_bit(words: &mut [u64], i: usize) -> bool {
    let mask = 1u64 << (i % 64);
    let was = words[i / 64] & mask != 0;
    words[i / 64] |= mask;
    !was
}

#[inline]
fn get_bit(words: &[u64], i: usize) -> bool {
    words[i / 64] >> (i % 64) & 1 == 1
}

impl CompletenessLedger {
    /// Creates an empty ledger over `sources` sources for an `n`-node
    /// network.
    ///
    /// Word-packed: a ledger costs about `2 ⌈n · lane / 64⌉` words instead
    /// of `2ns` bytes — at `s = 1`, the difference between 16 MB and 134 MB
    /// of ledger state across all nodes at `n = 8192`.
    pub fn new(n: usize, sources: usize) -> Self {
        let lane = match sources {
            0..=64 => sources.next_power_of_two(),
            _ => sources.next_multiple_of(64),
        };
        let half = (n * lane).next_multiple_of(64);
        CompletenessLedger {
            n,
            sources,
            lane,
            half,
            bits: vec![0; (2 * half + sources).div_ceil(64)],
        }
    }

    /// The bit of source `idx` in `u`'s lane of the `R_v(·)` half (add
    /// `half` for `S_v(·)`).
    #[inline]
    fn bit(&self, idx: usize, u: NodeId) -> usize {
        debug_assert!(idx < self.sources, "source index {idx} out of range");
        debug_assert!(u.index() < self.n, "{u} out of range");
        u.index() * self.lane + idx
    }

    /// [`Self::bit`] for a write, checked in every build.
    #[inline]
    fn bit_to_set(&self, idx: usize, u: NodeId) -> usize {
        assert!(idx < self.sources, "source index {idx} out of range");
        assert!(u.index() < self.n, "{u} out of range");
        self.bit(idx, u)
    }

    /// The source mask of `{x : S_v(x) ≠ ∅}`.
    fn heard(&self) -> &[u64] {
        &self.bits[2 * self.half / 64..]
    }

    /// Records that `u` announced its completeness w.r.t. source `idx`.
    /// Returns `true` iff this was news (monotone: never unset).
    pub fn note_peer_complete(&mut self, idx: usize, u: NodeId) -> bool {
        let i = self.half + self.bit_to_set(idx, u);
        set_bit(&mut self.bits, 2 * self.half + idx);
        set_bit(&mut self.bits, i)
    }

    /// Whether `u` is known complete w.r.t. source `idx` (`u ∈ S_v(x)`).
    pub fn peer_complete(&self, idx: usize, u: NodeId) -> bool {
        get_bit(&self.bits, self.half + self.bit(idx, u))
    }

    /// Whether any peer is known complete w.r.t. source `idx`
    /// (`S_v(x) ≠ ∅`).
    pub fn any_peer_complete(&self, idx: usize) -> bool {
        debug_assert!(idx < self.sources, "source index {idx} out of range");
        get_bit(self.heard(), idx)
    }

    /// Whether `u` still needs to be informed of our completeness w.r.t.
    /// source `idx` (`u ∉ R_v(x)`).
    pub fn needs_inform(&self, idx: usize, u: NodeId) -> bool {
        !get_bit(&self.bits, self.bit(idx, u))
    }

    /// Records that `u` has been informed (async: has acknowledged) of our
    /// completeness w.r.t. source `idx`. Returns `true` iff this was news
    /// (monotone: never unset).
    pub fn mark_informed(&mut self, idx: usize, u: NodeId) -> bool {
        let i = self.bit_to_set(idx, u);
        set_bit(&mut self.bits, i)
    }

    /// Number of `(source, peer)` pairs informed — monotone over any
    /// execution.
    pub fn informed_count(&self) -> usize {
        let informed = &self.bits[..self.half / 64];
        informed.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The minimum source in `mine` (the sources this node is complete
    /// for) that `u` has not been informed of: the announcement `u` is
    /// owed.
    pub fn lowest_owed(&self, mine: &[u64], u: NodeId) -> Option<usize> {
        debug_assert!(u.index() < self.n, "{u} out of range");
        lowest_bit((0..mine.len()).map(|w| {
            // Word `w` of `u`'s `R_v(·)` lane, sources `64w..64w + 63`; the
            // bits past the lane (another peer's) meet only clear bits of
            // `mine`.
            let i = u.index() * self.lane + w * 64;
            mine[w] & !(self.bits[i / 64] >> (i % 64))
        }))
    }

    /// The minimum source outside `mine` with a known-complete peer: the
    /// request focus ("the minimum `x ∉ I_v` with `S_v(x) ≠ ∅`").
    pub fn active_source(&self, mine: &[u64]) -> Option<usize> {
        lowest_outside(self.heard(), mine)
    }

    /// Forgets everything: clears both `R_v(·)` and `S_v(·)`.
    ///
    /// This models **crash-amnesia** in the fault harness — the ledgers
    /// are volatile state, so a node rejoining without a durable snapshot
    /// starts them blank and re-earns every bit through the announce/ack
    /// and probe paths (both idempotent, so peers tolerate the repeats).
    /// The monotonicity contract above holds *within one incarnation* of
    /// the node; `reset` is the incarnation boundary.
    pub fn reset(&mut self) {
        self.bits.fill(0);
    }
}

/// `R_v(x)` and `S_v(x)` of all `s` sources, keyed by peer: for each peer
/// `u` this node has *heard from*, a row of two source masks — the sources
/// `u` acknowledged (`u ∈ R_v(x)`) and those it announced itself complete
/// for (`u ∈ S_v(x)`). The asynchronous multi-source port's ledger.
///
/// The dense [`CompletenessLedger`] costs about `s/4` bytes per node *of
/// the network*, met or not — 64 MB of `oblivious_pipeline`'s 212 MB peak
/// at `n = 4096`, `s = 16` — while an asynchronous run is over within
/// 60–150 epochs, each node having met a few dozen peers. A row (≈ 25
/// bytes) is created by the first *write* about a peer, an absent one
/// reads as all-zero, and a heartbeat's per-neighbor questions are mask
/// operations on one row, as they are on one lane of the dense ledger.
/// Rows sit in a hash map over the fixed [`IdHasher`], keyed by `(peer,
/// mask word)` so that they are inline at any `s`; the protocol only ever
/// probes it.
///
/// Source masks (`mine` below) are `⌈s/64⌉` words, bit `idx % 64` of word
/// `idx / 64` for source index `idx`, bits at or above `s` clear.
///
/// ```
/// use dynspread_core::dissemination::PeerLedger;
/// use dynspread_graph::NodeId;
///
/// let (mut ledger, u) = (PeerLedger::new(3), NodeId::new(7));
/// let mine = [0b101]; // we are complete for sources 0 and 2
/// assert_eq!(ledger.lowest_owed(&mine, u), Some(0));
/// assert!(ledger.mark_informed(0, u));
/// assert_eq!(ledger.lowest_owed(&mine, u), Some(2));
/// // `u` may yet be complete for source 1, the one we lack — until it
/// // says so, which makes source 1 the request focus.
/// assert!(ledger.worth_probing(&mine, u));
/// assert!(ledger.note_peer_complete(1, u));
/// assert!(!ledger.worth_probing(&mine, u));
/// assert_eq!(ledger.active_source(&mine), Some(1));
/// ```
#[derive(Clone, Debug)]
pub struct PeerLedger {
    /// `s`, the number of sources.
    sources: usize,
    /// `(u, w) → [acked, complete]`: word `w` of `u`'s two source masks.
    rows: HashMap<(NodeId, u32), [u64; 2], BuildHasherDefault<IdHasher>>,
    /// Source mask of `{x : S_v(x) ≠ ∅}`. `S_v(x)` only grows within an
    /// incarnation, so one bit per source stands in for `|S_v(x)|`.
    heard: Vec<u64>,
}

/// Which half of a row: `R_v(·)[u]` or `S_v(·)[u]`.
const ACKED: usize = 0;
const COMPLETE: usize = 1;

impl PeerLedger {
    /// Creates an empty ledger over `sources` sources.
    pub fn new(sources: usize) -> Self {
        PeerLedger {
            sources,
            rows: HashMap::default(),
            heard: vec![0; sources.div_ceil(64)],
        }
    }

    /// Word `w` of one of `u`'s masks; zero for a peer never written.
    fn word(&self, u: NodeId, w: usize, half: usize) -> u64 {
        self.rows.get(&(u, w as u32)).map_or(0, |row| row[half])
    }

    /// Sets source `idx`'s bit in one of `u`'s masks, creating the row;
    /// returns `true` iff it was clear.
    fn set(&mut self, idx: usize, u: NodeId, half: usize) -> bool {
        debug_assert!(idx < self.sources, "source index {idx} out of range");
        let row = self.rows.entry((u, (idx / 64) as u32)).or_default();
        set_bit(std::slice::from_mut(&mut row[half]), idx % 64)
    }

    /// Records that `u` announced completeness w.r.t. source `idx`.
    /// Returns `true` iff this was news (monotone: never unset).
    pub fn note_peer_complete(&mut self, idx: usize, u: NodeId) -> bool {
        set_bit(&mut self.heard, idx);
        self.set(idx, u, COMPLETE)
    }

    /// Whether `u` is known complete w.r.t. source `idx` (`u ∈ S_v(x)`).
    pub fn peer_complete(&self, idx: usize, u: NodeId) -> bool {
        get_bit(&[self.word(u, idx / 64, COMPLETE)], idx % 64)
    }

    /// Whether any peer is known complete w.r.t. source `idx`
    /// (`S_v(x) ≠ ∅`).
    pub fn any_peer_complete(&self, idx: usize) -> bool {
        get_bit(&self.heard, idx)
    }

    /// Whether `u` has yet to acknowledge our completeness w.r.t. source
    /// `idx` (`u ∉ R_v(x)`).
    pub fn needs_inform(&self, idx: usize, u: NodeId) -> bool {
        !get_bit(&[self.word(u, idx / 64, ACKED)], idx % 64)
    }

    /// Records `u`'s acknowledgment for source `idx`. Returns `true` iff
    /// this was news (monotone: never unset).
    pub fn mark_informed(&mut self, idx: usize, u: NodeId) -> bool {
        self.set(idx, u, ACKED)
    }

    /// The minimum source in `mine` (the sources this node is complete
    /// for) that `u` has not acknowledged: the announcement `u` is owed.
    pub fn lowest_owed(&self, mine: &[u64], u: NodeId) -> Option<usize> {
        lowest_bit((0..mine.len()).map(|w| mine[w] & !self.word(u, w, ACKED)))
    }

    /// Whether probing `u` could still teach us something: some source
    /// outside `mine` that `u` is not yet known complete for.
    pub fn worth_probing(&self, mine: &[u64], u: NodeId) -> bool {
        (0..mine.len()).any(|w| {
            // The last word's bits at or above `s` name no source.
            let valid = match self.sources - w * 64 {
                rest if rest < 64 => (1u64 << rest) - 1,
                _ => !0,
            };
            valid & !mine[w] & !self.word(u, w, COMPLETE) != 0
        })
    }

    /// The minimum source outside `mine` with a known-complete peer: the
    /// request focus ("the minimum `x ∉ I_v` with `S_v(x) ≠ ∅`").
    pub fn active_source(&self, mine: &[u64]) -> Option<usize> {
        lowest_outside(&self.heard, mine)
    }

    /// Forgets everything, rows included: crash-amnesia, as
    /// [`CompletenessLedger::reset`].
    pub fn reset(&mut self) {
        self.rows.clear();
        self.heard.fill(0);
    }
}

/// The minimum source in `heard` and not in `mine`.
fn lowest_outside(heard: &[u64], mine: &[u64]) -> Option<usize> {
    lowest_bit(heard.iter().zip(mine).map(|(&heard, &mine)| heard & !mine))
}

/// Index of the lowest set bit of a mask given word by word.
fn lowest_bit(words: impl Iterator<Item = u64>) -> Option<usize> {
    words
        .enumerate()
        .find(|&(_, word)| word != 0)
        .map(|(w, word)| w * 64 + word.trailing_zeros() as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tid(i: u32) -> TokenId {
        TokenId::new(i)
    }

    #[test]
    fn assignment_pass_is_distinct_and_in_order() {
        let a = TokenAssignment::single_source(2, 5, NodeId::new(0));
        let mut core = DisseminationCore::from_assignment(NodeId::new(1), &a);
        core.refill();
        let pass: Vec<TokenId> = std::iter::from_fn(|| core.assign_next()).collect();
        assert_eq!(pass, (0..5).map(tid).collect::<Vec<_>>());
        // Everything is now in flight: a fresh pass assigns nothing.
        core.refill();
        assert!(!core.has_assignable());
        assert!(core.assign_next().is_none());
    }

    #[test]
    fn release_makes_tokens_assignable_again() {
        let a = TokenAssignment::single_source(2, 3, NodeId::new(0));
        let mut core = DisseminationCore::from_assignment(NodeId::new(1), &a);
        core.refill();
        while core.assign_next().is_some() {}
        core.release(tid(1));
        core.refill();
        assert_eq!(core.assign_next(), Some(tid(1)));
        assert_eq!(core.assign_next(), None);
    }

    #[test]
    fn a_pass_is_a_snapshot_taken_by_refill() {
        let a = TokenAssignment::single_source(2, 130, NodeId::new(0));
        let mut core = DisseminationCore::from_assignment(NodeId::new(1), &a);
        core.refill();
        assert_eq!(core.assign_next(), Some(tid(0)));
        assert_eq!(core.assign_next(), Some(tid(1)));
        // t0 comes back mid-pass (its channel died, or it arrived): the
        // pass in progress neither re-offers it nor loses its place.
        core.release(tid(0));
        assert_eq!(core.assign_next(), Some(tid(2)));
        // Nor does it drop a token learned after the snapshot.
        assert!(core.accept_token(tid(3)));
        assert_eq!(core.assign_next(), Some(tid(3)));
        // The next refill sees both changes.
        core.release(tid(3));
        core.refill();
        assert_eq!(core.assign_next(), Some(tid(0)));
        assert_eq!(core.assign_next(), Some(tid(4)));
    }

    #[test]
    fn passes_cross_word_boundaries_and_stop_at_the_universe() {
        let mut know = TokenSet::full(130);
        for t in [63, 64, 129] {
            know.remove(tid(t));
        }
        let mut core = DisseminationCore::with_knowledge(know);
        core.refill();
        let pass: Vec<TokenId> = std::iter::from_fn(|| core.assign_next()).collect();
        assert_eq!(pass, vec![tid(63), tid(64), tid(129)]);
        assert!(!core.has_assignable());
        // An empty universe has nothing to assign.
        let mut empty = DisseminationCore::with_knowledge(TokenSet::new(0));
        empty.refill();
        assert!(!empty.has_assignable());
        assert_eq!(empty.assign_next(), None);
    }

    #[test]
    fn accept_token_is_at_most_once() {
        let a = TokenAssignment::single_source(2, 2, NodeId::new(0));
        let mut core = DisseminationCore::from_assignment(NodeId::new(1), &a);
        assert!(core.accept_token(tid(0)));
        assert!(!core.accept_token(tid(0)), "duplicate application");
        assert!(!core.is_complete());
        assert!(core.accept_token(tid(1)));
        assert!(core.is_complete());
    }

    #[test]
    fn refill_within_respects_scope_and_flight() {
        let a = TokenAssignment::round_robin_sources(3, 4, 2);
        let mut core = DisseminationCore::from_assignment(NodeId::new(2), &a);
        // Scope: tokens {0, 2} (source 0's tokens under round-robin s=2).
        let mut scope = TokenSet::new(4);
        scope.insert(tid(0));
        scope.insert(tid(2));
        core.refill_within(&scope);
        assert_eq!(core.assign_next(), Some(tid(0)));
        assert_eq!(core.assign_next(), Some(tid(2)));
        assert_eq!(core.assign_next(), None);
        // Both in flight now; the full refill only offers {1, 3}.
        core.refill();
        assert_eq!(core.assign_next(), Some(tid(1)));
        assert_eq!(core.assign_next(), Some(tid(3)));
        // A wider scope: everything in it is in flight.
        scope.insert(tid(3));
        core.refill_within(&scope);
        assert!(!core.has_assignable());
        core.release(tid(2));
        core.release(tid(1));
        core.refill_within(&scope);
        assert_eq!(core.assign_next(), Some(tid(2)));
        assert_eq!(core.assign_next(), None, "t1 is outside the scope");
    }

    #[test]
    fn source_is_born_complete() {
        let a = TokenAssignment::single_source(2, 4, NodeId::new(0));
        let core = DisseminationCore::from_assignment(NodeId::new(0), &a);
        assert!(core.is_complete());
        assert_eq!(core.known_tokens().count(), 4);
    }

    #[test]
    fn ledger_bits_cross_word_boundaries() {
        let mut ledger = CompletenessLedger::new(200, 1);
        let peers = [0u32, 63, 64, 127, 128, 199];
        for &p in peers.iter().rev() {
            assert!(ledger.note_peer_complete(0, NodeId::new(p)));
        }
        for &p in &peers {
            assert!(ledger.peer_complete(0, NodeId::new(p)));
            assert!(!ledger.note_peer_complete(0, NodeId::new(p)));
        }
        assert!(!ledger.peer_complete(0, NodeId::new(65)));
        assert_eq!(ledger.informed_count(), 0);
        assert!(ledger.mark_informed(0, NodeId::new(64)));
        assert!(ledger.mark_informed(0, NodeId::new(130)));
        assert_eq!(ledger.informed_count(), 2);
        assert!(!ledger.needs_inform(0, NodeId::new(64)));
        assert!(ledger.needs_inform(0, NodeId::new(63)));
    }

    #[test]
    fn ledger_reset_clears_both_sides() {
        let mut ledger = CompletenessLedger::new(70, 1);
        assert!(ledger.note_peer_complete(0, NodeId::new(69)));
        assert!(ledger.mark_informed(0, NodeId::new(1)));
        ledger.reset();
        assert!(!ledger.any_peer_complete(0));
        assert_eq!(ledger.informed_count(), 0);
        assert!(ledger.needs_inform(0, NodeId::new(1)));
        // A fresh incarnation re-earns the bits normally.
        assert!(ledger.note_peer_complete(0, NodeId::new(69)));
        assert!(ledger.any_peer_complete(0));
    }

    #[test]
    fn ledger_is_monotone() {
        let mut ledger = CompletenessLedger::new(4, 1);
        assert!(!ledger.any_peer_complete(0));
        assert!(ledger.note_peer_complete(0, NodeId::new(3)));
        assert!(ledger.any_peer_complete(0));
        assert!(ledger.peer_complete(0, NodeId::new(3)));
        assert_eq!(ledger.informed_count(), 0);
        assert!(ledger.mark_informed(0, NodeId::new(1)));
        assert!(!ledger.mark_informed(0, NodeId::new(1)));
        assert_eq!(ledger.informed_count(), 1);
    }

    #[test]
    fn ledger_lanes_keep_peers_apart() {
        // s = 3 packs four-bit lanes, s = 100 two-word lanes: the last
        // source of one peer and the first of the next never alias.
        for s in [3, 100] {
            let mut ledger = CompletenessLedger::new(5, s);
            assert!(ledger.note_peer_complete(s - 1, NodeId::new(1)));
            assert!(!ledger.peer_complete(0, NodeId::new(2)));
            assert!(!ledger.peer_complete(s - 1, NodeId::new(0)));
            assert!(ledger.mark_informed(0, NodeId::new(2)));
            assert!(ledger.needs_inform(s - 1, NodeId::new(1)));
            let mut mine = vec![0u64; s.div_ceil(64)];
            mine[0] = 1;
            mine[(s - 1) / 64] |= 1 << ((s - 1) % 64);
            assert_eq!(ledger.lowest_owed(&mine, NodeId::new(1)), Some(0));
            assert_eq!(ledger.lowest_owed(&mine, NodeId::new(2)), Some(s - 1));
            assert_eq!(ledger.active_source(&mine), None);
            mine[(s - 1) / 64] = 0;
            assert_eq!(ledger.active_source(&mine), Some(s - 1));
        }
    }

    /// Out-of-range writes panic in every build: with packed lanes they
    /// would otherwise set a bit of another peer.
    #[test]
    #[should_panic(expected = "source index 3 out of range")]
    fn ledger_rejects_a_source_index_past_s() {
        CompletenessLedger::new(5, 3).note_peer_complete(3, NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "source index 64 out of range")]
    fn ledger_rejects_a_source_index_past_a_full_word() {
        CompletenessLedger::new(5, 64).mark_informed(64, NodeId::new(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ledger_rejects_a_peer_past_n() {
        CompletenessLedger::new(5, 3).note_peer_complete(0, NodeId::new(5));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn ledger_rejects_informing_a_peer_past_n() {
        CompletenessLedger::new(3, 1).mark_informed(0, NodeId::new(3));
    }
}
