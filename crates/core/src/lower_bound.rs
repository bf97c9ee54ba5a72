//! The Section 2 lower-bound machinery, executable.
//!
//! Theorem 2.3: against a strongly adaptive adversary, any token-forwarding
//! algorithm in the local broadcast model needs `Ω(n²/log²n)` amortized
//! messages per token. The proof constructs an adversary that:
//!
//! 1. samples, once, a set `K'_v` per node containing each token
//!    independently with probability 1/4 (so that `Φ(0) ≤ 0.8nk` w.h.p.);
//! 2. each round — *after* seeing every node's committed broadcast token
//!    `i_v(r)` — adds all **free** edges (edges over which no progress can
//!    happen) and then connects the remaining `ℓ` components with `ℓ − 1`
//!    non-free edges;
//! 3. thereby caps the growth of the potential
//!    `Φ(t) = Σ_v |K_v(t) ∪ K'_v|` at `2(ℓ − 1) = O(log n)` per round
//!    (Lemma 2.1), and at **zero** in any round with fewer than
//!    `n/(c log n)` broadcasters (Lemma 2.2).
//!
//! This module implements the adversary ([`PotentialAdversary`]), the
//! free-edge predicate, the potential function, the `K'` sampling, and the
//! standalone free-edge-structure sampler behind Figure 1.

use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::{Edge, Graph, NodeId, Round, UnionFind};
use dynspread_sim::adversary::BroadcastAdversary;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// View of a broadcast message as a token choice `i_v(r)`.
///
/// The Section 2 adversary is generic over any broadcast protocol whose
/// messages expose which token they carry.
pub trait BroadcastTokenView: Clone {
    /// The token this broadcast carries, if any.
    fn token_id(&self) -> Option<TokenId>;
}

impl BroadcastTokenView for crate::flooding::BcastMsg {
    fn token_id(&self) -> Option<TokenId> {
        Some(self.0)
    }
}

/// The sampled `K'_v` sets: for the analysis, tokens whose receipt by `v`
/// does not count as progress.
#[derive(Clone, Debug)]
pub struct KPrimeSets {
    sets: Vec<TokenSet>,
}

impl KPrimeSets {
    /// Samples each token into each `K'_v` independently with probability
    /// `prob` (the paper uses 1/4).
    pub fn sample(n: usize, k: usize, prob: f64, rng: &mut StdRng) -> Self {
        assert!((0.0..=1.0).contains(&prob), "prob must be a probability");
        let sets = (0..n)
            .map(|_| {
                let mut s = TokenSet::new(k);
                for t in TokenId::all(k) {
                    if rng.gen_bool(prob) {
                        s.insert(t);
                    }
                }
                s
            })
            .collect();
        KPrimeSets { sets }
    }

    /// `K'_v`.
    pub fn get(&self, v: NodeId) -> &TokenSet {
        &self.sets[v.index()]
    }

    /// `Σ_v |K'_v|` (the paper requires this ≤ 0.3nk w.h.p.).
    pub fn total_size(&self) -> usize {
        self.sets.iter().map(|s| s.count()).sum()
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.sets.len()
    }
}

/// Whether the (potential) edge `{u, v}` is **free** in a round where `u`
/// broadcasts `iu` and `v` broadcasts `iv` (`None` = silent):
/// `iu ∈ {⊥} ∪ K_v ∪ K'_v` **and** `iv ∈ {⊥} ∪ K_u ∪ K'_u`.
pub fn is_free_edge(
    iu: Option<TokenId>,
    iv: Option<TokenId>,
    ku: &TokenSet,
    kv: &TokenSet,
    kpu: &TokenSet,
    kpv: &TokenSet,
) -> bool {
    let harmless = |i: Option<TokenId>, k_recv: &TokenSet, kp_recv: &TokenSet| match i {
        None => true,
        Some(t) => k_recv.contains(t) || kp_recv.contains(t),
    };
    harmless(iu, kv, kpv) && harmless(iv, ku, kpu)
}

/// The potential `Φ(t) = Σ_v |K_v(t) ∪ K'_v|` (Section 2).
pub fn potential(know: &[TokenSet], kprime: &KPrimeSets) -> u64 {
    know.iter()
        .enumerate()
        .map(|(i, kv)| kv.union_count(kprime.get(NodeId::new(i as u32))) as u64)
        .sum()
}

/// Outcome of building the free-edge graph `F(r)` for one token assignment.
#[derive(Clone, Debug)]
pub struct FreeEdgeStructure {
    /// Number of free (potential) edges.
    pub free_edges: usize,
    /// Connected components of `F(r)` (isolated nodes count).
    pub components: usize,
    /// Whether `F(r)` spans all nodes in one component.
    pub connected: bool,
}

/// The free-edge graph `F(r)` for the broadcast choices `choices`
/// (`choices[v] = i_v(r)`): walks every pair once, hands each free edge to
/// `on_free`, and returns the union–find of `F(r)`'s components.
fn free_edge_graph(
    choices: &[Option<TokenId>],
    know: &[TokenSet],
    kprime: &KPrimeSets,
    mut on_free: impl FnMut(Edge),
) -> UnionFind {
    let n = know.len();
    let mut uf = UnionFind::new(n);
    for u in 0..n {
        let nu = NodeId::new(u as u32);
        for v in (u + 1)..n {
            let nv = NodeId::new(v as u32);
            let (kpu, kpv) = (kprime.get(nu), kprime.get(nv));
            if is_free_edge(choices[u], choices[v], &know[u], &know[v], kpu, kpv) {
                on_free(Edge::new(nu, nv));
                uf.union(u, v);
            }
        }
    }
    uf
}

/// Computes the component structure of the free-edge graph for a given
/// token assignment `choices` (`choices[v] = i_v(r)`).
pub fn free_edge_structure(
    choices: &[Option<TokenId>],
    know: &[TokenSet],
    kprime: &KPrimeSets,
) -> FreeEdgeStructure {
    let mut free_edges = 0usize;
    let uf = free_edge_graph(choices, know, kprime, |_| free_edges += 1);
    let components = uf.component_count();
    FreeEdgeStructure {
        free_edges,
        components,
        connected: components == 1,
    }
}

/// The strongly adaptive lower-bound adversary of Section 2.
///
/// It mirrors every node's knowledge `K_v(t)` (it is strongly adaptive: it
/// sees the initial assignment, every broadcast choice, and the graphs it
/// itself builds), adds all free edges each round, and repairs connectivity
/// with the minimum number of non-free edges. It records the potential and
/// the per-round component count for analysis.
///
/// # Examples
///
/// ```
/// use dynspread_core::flooding::PhasedFlooding;
/// use dynspread_core::lower_bound::{bernoulli_assignment, PotentialAdversary};
/// use dynspread_sim::{BroadcastSim, SimConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let assignment = bernoulli_assignment(12, 6, 0.25, &mut rng);
/// let adversary = PotentialAdversary::new(&assignment, 0.25, 2);
/// let mut sim = BroadcastSim::new(
///     "phased-flooding",
///     PhasedFlooding::nodes(&assignment),
///     adversary,
///     &assignment,
///     SimConfig::with_max_rounds(2 * 12 * 6),
/// );
/// let report = sim.run_to_completion();
/// assert!(report.completed);
/// // The adversary records Φ per round for analysis:
/// assert!(!sim.adversary().potential_history().is_empty());
/// ```
pub struct PotentialAdversary {
    kprime: KPrimeSets,
    know: Vec<TokenSet>,
    /// Φ after each round (index 0 = Φ(0), before round 1).
    potential_history: Vec<u64>,
    /// Components of F(r) per round (index 0 = round 1).
    component_history: Vec<usize>,
}

impl PotentialAdversary {
    /// Creates the adversary for a given initial assignment, sampling the
    /// `K'_v` sets with probability `kprime_prob` (paper: 1/4) from `seed`.
    pub fn new(assignment: &TokenAssignment, kprime_prob: f64, seed: u64) -> Self {
        let n = assignment.node_count();
        let k = assignment.token_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let kprime = KPrimeSets::sample(n, k, kprime_prob, &mut rng);
        let know: Vec<TokenSet> = NodeId::all(n)
            .map(|v| assignment.initial_knowledge(v))
            .collect();
        let phi0 = potential(&know, &kprime);
        PotentialAdversary {
            kprime,
            know,
            potential_history: vec![phi0],
            component_history: Vec::new(),
        }
    }

    /// The sampled `K'` sets.
    pub fn kprime(&self) -> &KPrimeSets {
        &self.kprime
    }

    /// `Φ(0), Φ(1), …` — one entry per completed round plus the initial
    /// value.
    pub fn potential_history(&self) -> &[u64] {
        &self.potential_history
    }

    /// Per-round component counts of the free-edge graph.
    pub fn component_history(&self) -> &[usize] {
        &self.component_history
    }

    /// Per-round potential increases `Φ(r) − Φ(r−1)`.
    pub fn potential_increases(&self) -> Vec<u64> {
        self.potential_history
            .windows(2)
            .map(|w| w[1] - w[0])
            .collect()
    }

    fn build_graph(&mut self, choices: &[Option<TokenId>]) -> Graph {
        let mut edges = Vec::new();
        let mut uf = free_edge_graph(choices, &self.know, &self.kprime, |e| edges.push(e));
        self.component_history.push(uf.component_count());
        // Repair connectivity with ℓ − 1 non-free edges between component
        // representatives (any inter-component edge is non-free because
        // F(r) contains *all* free edges).
        let reps = uf.representatives();
        edges.extend(
            reps.windows(2)
                .map(|w| Edge::new(NodeId::new(w[0] as u32), NodeId::new(w[1] as u32))),
        );
        Graph::from_edges(self.know.len(), edges)
    }

    /// Simulates delivery on the graph it just built to keep its knowledge
    /// mirror exact.
    fn mirror_delivery(&mut self, g: &Graph, choices: &[Option<TokenId>]) {
        for (u, choice) in choices.iter().enumerate() {
            if let Some(t) = choice {
                for &w in g.neighbors(NodeId::new(u as u32)) {
                    self.know[w.index()].insert(*t);
                }
            }
        }
        let phi = potential(&self.know, &self.kprime);
        self.potential_history.push(phi);
    }
}

impl<M: BroadcastTokenView> BroadcastAdversary<M> for PotentialAdversary {
    fn evolve(&mut self, _round: Round, _prev: &Graph, choices: &[Option<M>]) -> GraphUpdate {
        let tokens: Vec<Option<TokenId>> = choices
            .iter()
            .map(|c| c.as_ref().and_then(|m| m.token_id()))
            .collect();
        let g = self.build_graph(&tokens);
        self.mirror_delivery(&g, &tokens);
        GraphUpdate::Full(g)
    }

    fn name(&self) -> &str {
        "potential-adversary(§2)"
    }
}

/// The **weakly adaptive** variant of the potential adversary (footnote 4:
/// "a weakly adaptive adversary only knows the algorithm's randomness up to
/// the round before the current round").
///
/// It plays the same free-edge strategy, but against the broadcast choices
/// of the *previous* round — it must commit `G_r` before seeing round `r`'s
/// choices. A node that broadcasts a different token than the stale
/// prediction turns predicted-free edges into progress. The
/// `exp_adaptivity_gap` experiment shows round-robin flooding completing
/// against this adversary while the strongly adaptive
/// [`PotentialAdversary`] stalls it forever.
///
/// **Caveat:** footnote 4's weakly adaptive adversary knows all
/// *randomness* up to round `r − 1` and may simulate a deterministic
/// algorithm perfectly (for deterministic algorithms the two adversaries
/// coincide). This implementation does not simulate the algorithm — it
/// only replays stale observations — so it lower-bounds what a true weakly
/// adaptive adversary can do. The measured gap therefore isolates exactly
/// the value of *current-round choice information* to the free-edge
/// strategy, which is the ingredient the Theorem 2.3 proof relies on.
pub struct LaggedPotentialAdversary {
    inner: PotentialAdversary,
    prev_choices: Vec<Option<TokenId>>,
}

impl LaggedPotentialAdversary {
    /// Creates the weakly adaptive adversary (same parameters as
    /// [`PotentialAdversary::new`]).
    pub fn new(assignment: &TokenAssignment, kprime_prob: f64, seed: u64) -> Self {
        LaggedPotentialAdversary {
            prev_choices: vec![None; assignment.node_count()],
            inner: PotentialAdversary::new(assignment, kprime_prob, seed),
        }
    }

    /// The inner adversary's recorded analysis state.
    pub fn inner(&self) -> &PotentialAdversary {
        &self.inner
    }
}

impl<M: BroadcastTokenView> BroadcastAdversary<M> for LaggedPotentialAdversary {
    fn evolve(&mut self, _round: Round, _prev: &Graph, choices: &[Option<M>]) -> GraphUpdate {
        let current: Vec<Option<TokenId>> = choices
            .iter()
            .map(|c| c.as_ref().and_then(|m| m.token_id()))
            .collect();
        // Commit the graph against LAST round's choices (the lag), then
        // mirror delivery with the choices that actually happened.
        let lagged = std::mem::replace(&mut self.prev_choices, current.clone());
        let g = self.inner.build_graph(&lagged);
        self.inner.mirror_delivery(&g, &current);
        GraphUpdate::Full(g)
    }

    fn name(&self) -> &str {
        "lagged-potential-adversary(weakly adaptive)"
    }
}

/// Samples a random initial assignment in which every token is given to
/// every node independently with probability `prob` (the Section 2 setup),
/// forcing at least one holder per token so the assignment is valid.
pub fn bernoulli_assignment(n: usize, k: usize, prob: f64, rng: &mut StdRng) -> TokenAssignment {
    let mut a = TokenAssignment::empty(n, k);
    for t in TokenId::all(k) {
        let mut any = false;
        for v in NodeId::all(n) {
            if rng.gen_bool(prob) {
                a.add_holder(t, v);
                any = true;
            }
        }
        if !any {
            a.add_holder(t, NodeId::new(rng.gen_range(0..n as u32)));
        }
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flooding::RoundRobinBroadcast;
    use dynspread_sim::sim::{BroadcastSim, SimConfig};

    fn tid(i: u32) -> TokenId {
        TokenId::new(i)
    }

    #[test]
    fn kprime_sampling_respects_probability_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        let none = KPrimeSets::sample(5, 10, 0.0, &mut rng);
        assert_eq!(none.total_size(), 0);
        let all = KPrimeSets::sample(5, 10, 1.0, &mut rng);
        assert_eq!(all.total_size(), 50);
    }

    #[test]
    fn kprime_quarter_concentrates() {
        let mut rng = StdRng::seed_from_u64(2);
        let (n, k) = (40, 40);
        let kp = KPrimeSets::sample(n, k, 0.25, &mut rng);
        let frac = kp.total_size() as f64 / (n * k) as f64;
        assert!(
            (0.18..0.32).contains(&frac),
            "K' density {frac} far from 1/4"
        );
    }

    #[test]
    fn free_edge_predicate_cases() {
        let k = 3;
        let empty = TokenSet::new(k);
        let mut has0 = TokenSet::new(k);
        has0.insert(tid(0));
        // Both silent → free.
        assert!(is_free_edge(None, None, &empty, &empty, &empty, &empty));
        // u broadcasts t0, v doesn't know it and K'_v misses it → non-free.
        assert!(!is_free_edge(
            Some(tid(0)),
            None,
            &empty,
            &empty,
            &empty,
            &empty
        ));
        // v already knows t0 → free.
        assert!(is_free_edge(
            Some(tid(0)),
            None,
            &empty,
            &has0,
            &empty,
            &empty
        ));
        // t0 ∈ K'_v → free (progress doesn't count).
        assert!(is_free_edge(
            Some(tid(0)),
            None,
            &empty,
            &empty,
            &empty,
            &has0
        ));
        // Both broadcast: each direction must be harmless.
        assert!(!is_free_edge(
            Some(tid(0)),
            Some(tid(0)),
            &empty,
            &has0,
            &empty,
            &empty
        ));
    }

    #[test]
    fn potential_is_sum_of_unions() {
        let k = 4;
        let mut rng = StdRng::seed_from_u64(3);
        let kp = KPrimeSets::sample(2, k, 0.0, &mut rng);
        let mut k0 = TokenSet::new(k);
        k0.insert(tid(0));
        k0.insert(tid(1));
        let k1 = TokenSet::new(k);
        assert_eq!(potential(&[k0, k1], &kp), 2);
    }

    #[test]
    fn free_edge_structure_all_silent_is_connected() {
        let (n, k) = (10, 4);
        let mut rng = StdRng::seed_from_u64(4);
        let kp = KPrimeSets::sample(n, k, 0.25, &mut rng);
        let know = vec![TokenSet::new(k); n];
        let choices = vec![None; n];
        let st = free_edge_structure(&choices, &know, &kp);
        assert!(st.connected);
        assert_eq!(st.free_edges, n * (n - 1) / 2);
    }

    #[test]
    fn lemma_2_2_sparse_assignments_leave_free_graph_connected() {
        // With few broadcasters and K' density 1/4, the free-edge graph is
        // connected: the silent nodes form a clique and every broadcaster
        // needs only one silent node with its token in K' ∪ K.
        let (n, k) = (48, 24);
        let mut rng = StdRng::seed_from_u64(5);
        let mut connected_trials = 0;
        let trials = 20;
        for _ in 0..trials {
            let kp = KPrimeSets::sample(n, k, 0.25, &mut rng);
            let know = vec![TokenSet::new(k); n];
            let mut choices = vec![None; n];
            // β = 3 ≈ n/(c log n) broadcasters with random tokens.
            for _ in 0..3 {
                let v = rng.gen_range(0..n);
                choices[v] = Some(tid(rng.gen_range(0..k as u32)));
            }
            if free_edge_structure(&choices, &know, &kp).connected {
                connected_trials += 1;
            }
        }
        assert!(
            connected_trials >= trials - 2,
            "free graph connected in only {connected_trials}/{trials} sparse trials"
        );
    }

    #[test]
    fn adversary_initial_potential_below_bound() {
        // Φ(0) ≤ 0.8nk w.h.p. with initial knowledge density 1/4 and K'
        // density 1/4 (expected Φ(0) ≈ (1 − 0.75²)nk ≈ 0.44nk).
        let (n, k) = (32, 16);
        let mut rng = StdRng::seed_from_u64(6);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        let adv = PotentialAdversary::new(&assignment, 0.25, 7);
        let phi0 = adv.potential_history()[0];
        assert!(
            (phi0 as f64) < 0.8 * (n * k) as f64,
            "Φ(0) = {phi0} ≥ 0.8nk"
        );
    }

    #[test]
    fn phased_flooding_completes_against_the_adversary_in_nk_rounds() {
        // Phased flooding is immune to the adversary: every connected
        // round graph has a cut edge from the knower set, and in phase i
        // every knower broadcasts token i, so someone learns it.
        let (n, k) = (24, 12);
        let mut rng = StdRng::seed_from_u64(8);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        let nodes = crate::flooding::PhasedFlooding::nodes(&assignment);
        let adv = PotentialAdversary::new(&assignment, 0.25, 9);
        let mut sim = BroadcastSim::new(
            "phased-flooding",
            nodes,
            adv,
            &assignment,
            SimConfig::with_max_rounds((n * k) as Round + 1),
        );
        let report = sim.run_to_completion();
        assert!(report.completed, "{report}");
        assert!(report.rounds <= (n * k) as Round);
        // The adversary forces a super-linear amortized cost per token.
        assert!(report.amortized() > n as f64);
    }

    #[test]
    fn round_robin_completes_against_the_weakly_adaptive_variant() {
        // Footnote 4's gap: with a one-round lag, the randomized-looking
        // rotation of round-robin broadcasts defeats the free-edge
        // prediction and progress leaks through.
        let (n, k) = (16, 8);
        let mut rng = StdRng::seed_from_u64(8);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        let nodes = RoundRobinBroadcast::nodes(&assignment);
        let adv = LaggedPotentialAdversary::new(&assignment, 0.25, 9);
        let mut sim = BroadcastSim::new(
            "round-robin",
            nodes,
            adv,
            &assignment,
            SimConfig::with_max_rounds(20_000),
        );
        let report = sim.run_to_completion();
        assert!(
            report.completed,
            "weakly adaptive adversary should not stall round-robin: {report}"
        );
    }

    #[test]
    fn round_robin_stalls_against_the_adversary() {
        // Round-robin flooding broadcasts a *different* token per knower per
        // round, so the cut argument fails: the adversary's free-edge graph
        // stays connected and progress stops — exactly the mechanism of
        // Lemma 2.2. This is why the paper's naive algorithm is phased.
        let (n, k) = (24, 12);
        let mut rng = StdRng::seed_from_u64(8);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        let nodes = RoundRobinBroadcast::nodes(&assignment);
        let adv = PotentialAdversary::new(&assignment, 0.25, 9);
        let mut sim = BroadcastSim::new(
            "round-robin",
            nodes,
            adv,
            &assignment,
            SimConfig::with_max_rounds(3000),
        );
        let report = sim.run_to_completion();
        assert!(
            !report.completed,
            "round-robin should stall against the §2 adversary: {report}"
        );
    }

    #[test]
    fn adversary_potential_increase_bounded_by_components() {
        let (n, k) = (24, 12);
        let mut rng = StdRng::seed_from_u64(10);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        // Drive the adversary directly with synthetic full-broadcast rounds.
        let mut adv = PotentialAdversary::new(&assignment, 0.25, 11);
        let know0: Vec<TokenSet> = NodeId::all(n)
            .map(|v| assignment.initial_knowledge(v))
            .collect();
        let mut choices: Vec<Option<crate::flooding::BcastMsg>> = know0
            .iter()
            .map(|s| s.iter().next().map(crate::flooding::BcastMsg))
            .collect();
        let mut dg = dynspread_graph::DynamicGraph::new(n);
        for r in 1..=50 {
            let update = BroadcastAdversary::evolve(&mut adv, r, dg.current(), &choices);
            dg.apply(update);
            assert!(dg.current().is_connected());
            // Rotate choices a little for variety.
            choices.rotate_left(1);
        }
        let increases = adv.potential_increases();
        let comps = adv.component_history();
        assert_eq!(increases.len(), comps.len());
        for (inc, &c) in increases.iter().zip(comps.iter()) {
            assert!(
                *inc <= 2 * (c.saturating_sub(1)) as u64,
                "potential grew by {inc} with {c} components"
            );
        }
    }

    #[test]
    fn bernoulli_assignment_is_valid_and_dense() {
        let mut rng = StdRng::seed_from_u64(12);
        let a = bernoulli_assignment(20, 30, 0.25, &mut rng);
        assert!(a.is_valid());
        let total: usize = (0..30).map(|t| a.holders(tid(t as u32)).count()).sum();
        let density = total as f64 / 600.0;
        assert!((0.15..0.4).contains(&density), "density {density}");
    }
}
