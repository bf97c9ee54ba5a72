//! Tokens and token-knowledge sets.
//!
//! The k-token dissemination problem (Definition 1.2) starts with `k`
//! distinct tokens placed at some nodes; the goal is for every node to learn
//! every token. Token-forwarding algorithms never manipulate token contents,
//! so a token is just an identity: a dense index in `0..k` ([`TokenId`]).
//!
//! Per-node knowledge `K_v(t)` is a fixed-capacity bitset ([`TokenSet`]):
//! inserts, membership, and the completeness check (`|K_v| = k`) are all
//! O(1) or O(k/64).

use std::fmt;

/// A token identity: a dense index in `0..k`.
///
/// Multi-source experiments additionally label tokens with their origin via
/// [`TokenAssignment`]; the identity itself stays a dense index so that all
/// per-node tables are arrays.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TokenId(u32);

impl TokenId {
    /// Creates a token identity from a dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        TokenId(index)
    }

    /// Returns the dense index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw value.
    #[inline]
    pub const fn value(self) -> u32 {
        self.0
    }

    /// Iterates all `k` token identities in increasing order.
    pub fn all(k: usize) -> impl DoubleEndedIterator<Item = TokenId> + ExactSizeIterator {
        (0..k as u32).map(TokenId)
    }
}

impl fmt::Debug for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl fmt::Display for TokenId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A set of tokens out of a universe of `k`, as a bitset.
///
/// # Examples
///
/// ```
/// use dynspread_sim::token::{TokenId, TokenSet};
///
/// let mut s = TokenSet::new(5);
/// s.insert(TokenId::new(2));
/// s.insert(TokenId::new(4));
/// assert_eq!(s.count(), 2);
/// assert!(s.contains(TokenId::new(2)));
/// assert!(!s.is_full());
/// assert_eq!(s.missing().next(), Some(TokenId::new(0)));
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct TokenSet {
    words: Vec<u64>,
    universe: usize,
    count: usize,
}

impl TokenSet {
    /// Creates an empty set over a universe of `k` tokens.
    pub fn new(k: usize) -> Self {
        TokenSet {
            words: vec![0; k.div_ceil(64)],
            universe: k,
            count: 0,
        }
    }

    /// Creates the full set `{0, …, k-1}`.
    pub fn full(k: usize) -> Self {
        let mut words = vec![u64::MAX; k.div_ceil(64)];
        if let Some(last) = words.last_mut() {
            *last = tail_mask(k);
        }
        TokenSet {
            words,
            universe: k,
            count: k,
        }
    }

    /// The universe size `k`.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of tokens in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Whether the set contains all `k` tokens — the node is *complete*
    /// (Definition 3.1).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count == self.universe
    }

    /// Whether `t` is in the set.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the universe.
    #[inline]
    pub fn contains(&self, t: TokenId) -> bool {
        assert!(t.index() < self.universe, "token {t} outside universe");
        self.words[t.index() / 64] >> (t.index() % 64) & 1 == 1
    }

    /// Inserts `t`; returns `true` if it was absent.
    ///
    /// # Panics
    ///
    /// Panics if `t` is outside the universe.
    #[inline]
    pub fn insert(&mut self, t: TokenId) -> bool {
        assert!(t.index() < self.universe, "token {t} outside universe");
        let (w, b) = (t.index() / 64, t.index() % 64);
        if self.words[w] >> b & 1 == 1 {
            false
        } else {
            self.words[w] |= 1 << b;
            self.count += 1;
            true
        }
    }

    /// Removes `t`; returns `true` if it was present.
    #[inline]
    pub fn remove(&mut self, t: TokenId) -> bool {
        assert!(t.index() < self.universe, "token {t} outside universe");
        let (w, b) = (t.index() / 64, t.index() % 64);
        if self.words[w] >> b & 1 == 1 {
            self.words[w] &= !(1 << b);
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates the tokens in the set in increasing order.
    ///
    /// Walks the backing words and peels set bits with `trailing_zeros`:
    /// O(k/64 + |set|), not one branch per universe element.
    pub fn iter(&self) -> impl Iterator<Item = TokenId> + '_ {
        word_bits(self.words.iter().copied())
    }

    /// Iterates the *missing* tokens in increasing order — the token
    /// requests an incomplete node would generate. O(k/64 + |missing|).
    pub fn missing(&self) -> impl Iterator<Item = TokenId> + '_ {
        word_bits(self.missing_words())
    }

    /// The complement of the set as bit words, with the bits beyond the
    /// universe in the last word cleared — [`missing`](TokenSet::missing)
    /// in the layout of [`as_words`](TokenSet::as_words).
    pub fn missing_words(&self) -> impl Iterator<Item = u64> + '_ {
        let last = self.words.len().wrapping_sub(1);
        let tail = tail_mask(self.universe);
        self.words
            .iter()
            .enumerate()
            .map(move |(i, &w)| if i == last { !w & tail } else { !w })
    }

    /// In-place union; returns the number of newly added tokens.
    pub fn union_with(&mut self, other: &TokenSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        let before = self.count;
        for (w, &ow) in self.words.iter_mut().zip(other.words.iter()) {
            *w |= ow;
        }
        self.count = self.words.iter().map(|w| w.count_ones() as usize).sum();
        self.count - before
    }

    /// The backing bit words (little-endian token order, 64 tokens per
    /// word). Exposed so observers like the simulator's tracker can diff
    /// knowledge sets with word-level XOR instead of per-token scans.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Size of the union `|self ∪ other|` without modifying either set —
    /// the per-node term of the Section 2 potential `Φ(t) = Σ_v |K_v(t) ∪ K'_v|`.
    pub fn union_count(&self, other: &TokenSet) -> usize {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.words
            .iter()
            .zip(other.words.iter())
            .map(|(a, b)| (a | b).count_ones() as usize)
            .sum()
    }
}

/// The valid bits of the last word of a `k`-token set (all of them when
/// `k` is a multiple of 64).
#[inline]
fn tail_mask(k: usize) -> u64 {
    match k % 64 {
        0 => u64::MAX,
        r => (1u64 << r) - 1,
    }
}

/// The tokens whose bits are set in `words`, in increasing order.
fn word_bits(words: impl Iterator<Item = u64>) -> impl Iterator<Item = TokenId> {
    words.enumerate().flat_map(|(wi, word)| {
        // Peel set bits low-to-high: `w & (w - 1)` clears the lowest one.
        std::iter::successors((word != 0).then_some(word), |&w| {
            let rest = w & (w - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |w| TokenId::new((wi * 64) as u32 + w.trailing_zeros()))
    })
}

impl fmt::Debug for TokenSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TokenSet({}/{}; ", self.count, self.universe)?;
        f.debug_set().entries(self.iter()).finish()?;
        write!(f, ")")
    }
}

impl FromIterator<TokenId> for TokenSet {
    /// Collects into a set whose universe is `max index + 1`.
    ///
    /// Mostly for tests; prefer [`TokenSet::new`] with a known `k`.
    fn from_iter<T: IntoIterator<Item = TokenId>>(iter: T) -> Self {
        let ids: Vec<TokenId> = iter.into_iter().collect();
        let k = ids.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut s = TokenSet::new(k);
        for t in ids {
            s.insert(t);
        }
        s
    }
}

/// The initial placement of tokens on nodes: for each token, the set of
/// nodes that hold it at time 0.
///
/// Definition 1.2 allows arbitrary placement; the single-source case places
/// all `k` tokens on one node, `n`-gossip places one token per node.
#[derive(Clone, Debug)]
pub struct TokenAssignment {
    k: usize,
    n: usize,
    /// `holders[t]` = sorted node indices initially holding token `t`.
    holders: Vec<Vec<u32>>,
}

impl TokenAssignment {
    /// Creates an assignment with no initial holders (invalid until every
    /// token gets at least one holder).
    pub fn empty(n: usize, k: usize) -> Self {
        TokenAssignment {
            k,
            n,
            holders: vec![Vec::new(); k],
        }
    }

    /// All `k` tokens start at `source` (the Single Source Case, §3.1).
    pub fn single_source(n: usize, k: usize, source: crate::NodeId) -> Self {
        assert!(source.index() < n, "source out of range");
        let mut a = TokenAssignment::empty(n, k);
        for t in 0..k {
            a.holders[t].push(source.value());
        }
        a
    }

    /// Round-robin multi-source: token `t` starts at source `t % s`
    /// (sources are nodes `0..s`). With `s = k = n` this is `n`-gossip.
    pub fn round_robin_sources(n: usize, k: usize, s: usize) -> Self {
        assert!(s >= 1 && s <= n, "need 1 ≤ s ≤ n");
        let mut a = TokenAssignment::empty(n, k);
        for t in 0..k {
            a.holders[t].push((t % s) as u32);
        }
        a
    }

    /// Each node starts with exactly one token (`n`-gossip: `k = n`).
    pub fn n_gossip(n: usize) -> Self {
        TokenAssignment::round_robin_sources(n, n, n)
    }

    /// Adds `v` as an initial holder of `t`.
    pub fn add_holder(&mut self, t: TokenId, v: crate::NodeId) {
        assert!(t.index() < self.k && v.index() < self.n);
        let h = &mut self.holders[t.index()];
        if let Err(pos) = h.binary_search(&v.value()) {
            h.insert(pos, v.value());
        }
    }

    /// Number of tokens `k`.
    pub fn token_count(&self) -> usize {
        self.k
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The initial holders of token `t`.
    pub fn holders(&self, t: TokenId) -> impl Iterator<Item = crate::NodeId> + '_ {
        self.holders[t.index()]
            .iter()
            .map(|&i| crate::NodeId::new(i))
    }

    /// The initial knowledge set `K_v(0)` of node `v`.
    pub fn initial_knowledge(&self, v: crate::NodeId) -> TokenSet {
        let mut s = TokenSet::new(self.k);
        for t in TokenId::all(self.k) {
            if self.holders[t.index()].binary_search(&v.value()).is_ok() {
                s.insert(t);
            }
        }
        s
    }

    /// The distinct source nodes (nodes holding at least one token),
    /// in increasing ID order.
    pub fn sources(&self) -> Vec<crate::NodeId> {
        // The per-token holder lists are already sorted; merge them with a
        // flatten + sort + dedup instead of a tree-set round-trip.
        let mut all: Vec<u32> = self.holders.iter().flatten().copied().collect();
        all.sort_unstable();
        all.dedup();
        all.into_iter().map(crate::NodeId::new).collect()
    }

    /// Whether every token has at least one initial holder.
    pub fn is_valid(&self) -> bool {
        self.holders.iter().all(|h| !h.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    #[test]
    fn empty_and_full_sets() {
        let s = TokenSet::new(10);
        assert!(s.is_empty());
        assert!(!s.is_full());
        let f = TokenSet::full(10);
        assert!(f.is_full());
        assert_eq!(f.count(), 10);
        assert!(
            TokenSet::new(0).is_full(),
            "empty universe is trivially full"
        );
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = TokenSet::new(100);
        assert!(s.insert(TokenId::new(63)));
        assert!(s.insert(TokenId::new(64)));
        assert!(!s.insert(TokenId::new(64)));
        assert!(s.contains(TokenId::new(63)));
        assert!(s.contains(TokenId::new(64)));
        assert!(!s.contains(TokenId::new(65)));
        assert_eq!(s.count(), 2);
        assert!(s.remove(TokenId::new(63)));
        assert!(!s.remove(TokenId::new(63)));
        assert_eq!(s.count(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_panics() {
        let s = TokenSet::new(5);
        s.contains(TokenId::new(5));
    }

    #[test]
    fn iter_and_missing_partition_universe() {
        let mut s = TokenSet::new(7);
        s.insert(TokenId::new(1));
        s.insert(TokenId::new(4));
        let present: Vec<usize> = s.iter().map(|t| t.index()).collect();
        let absent: Vec<usize> = s.missing().map(|t| t.index()).collect();
        assert_eq!(present, vec![1, 4]);
        assert_eq!(absent, vec![0, 2, 3, 5, 6]);
    }

    #[test]
    fn union_with_counts_new_tokens() {
        let mut a = TokenSet::new(130);
        a.insert(TokenId::new(0));
        a.insert(TokenId::new(129));
        let mut b = TokenSet::new(130);
        b.insert(TokenId::new(129));
        b.insert(TokenId::new(70));
        let added = a.union_with(&b);
        assert_eq!(added, 1);
        assert_eq!(a.count(), 3);
    }

    #[test]
    fn union_count_matches_union_with() {
        let mut a = TokenSet::new(20);
        let mut b = TokenSet::new(20);
        for i in [0, 3, 9] {
            a.insert(TokenId::new(i));
        }
        for i in [3, 9, 15] {
            b.insert(TokenId::new(i));
        }
        assert_eq!(a.union_count(&b), 4);
        let mut c = a.clone();
        c.union_with(&b);
        assert_eq!(c.count(), 4);
    }

    #[test]
    fn single_source_assignment() {
        let a = TokenAssignment::single_source(5, 8, NodeId::new(2));
        assert!(a.is_valid());
        assert_eq!(a.sources(), vec![NodeId::new(2)]);
        assert_eq!(a.initial_knowledge(NodeId::new(2)).count(), 8);
        assert_eq!(a.initial_knowledge(NodeId::new(0)).count(), 0);
    }

    #[test]
    fn n_gossip_assignment() {
        let a = TokenAssignment::n_gossip(6);
        assert!(a.is_valid());
        assert_eq!(a.sources().len(), 6);
        for v in 0..6 {
            let know = a.initial_knowledge(NodeId::new(v));
            assert_eq!(know.count(), 1);
            assert!(know.contains(TokenId::new(v)));
        }
    }

    #[test]
    fn round_robin_sources_cover_all_tokens() {
        let a = TokenAssignment::round_robin_sources(10, 25, 4);
        assert!(a.is_valid());
        assert_eq!(a.sources().len(), 4);
        // Token 5 → source 1.
        assert_eq!(
            a.holders(TokenId::new(5)).collect::<Vec<_>>(),
            vec![NodeId::new(1)]
        );
    }

    #[test]
    fn add_holder_dedupes() {
        let mut a = TokenAssignment::empty(4, 2);
        a.add_holder(TokenId::new(0), NodeId::new(1));
        a.add_holder(TokenId::new(0), NodeId::new(1));
        a.add_holder(TokenId::new(1), NodeId::new(3));
        assert!(a.is_valid());
        assert_eq!(a.holders(TokenId::new(0)).count(), 1);
    }

    #[test]
    fn from_iterator_builds_compact_universe() {
        let s: TokenSet = [TokenId::new(2), TokenId::new(5)].into_iter().collect();
        assert_eq!(s.universe(), 6);
        assert_eq!(s.count(), 2);
    }
}
