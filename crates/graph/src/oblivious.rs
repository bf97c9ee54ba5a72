//! Oblivious adversary implementations.
//!
//! An oblivious adversary (Section 1.3) "has to commit to the sequence of
//! network topologies before the execution of a distributed algorithm
//! starts". Operationally, it may not read algorithm state; every adversary
//! here depends only on its own seeded RNG and the round number, so the
//! schedule it produces is a deterministic function of its seed — morally a
//! pre-committed sequence.
//!
//! Families provided:
//!
//! * [`StaticAdversary`] — a fixed connected graph every round.
//! * [`PeriodicRewiring`] — a fresh random topology every ρ rounds, hence
//!   ρ-edge-stable.
//! * [`EdgeMarkovian`] — independent per-edge birth/death chains that
//!   spare σ-young edges, with connectivity repair.
//! * [`ChurnAdversary`] — bounded churn per round: deletes up to `c`
//!   eligible non-bridge edges and inserts up to `c` random new edges.
//! * [`ScriptedAdversary`] — replays an explicit schedule.

use crate::adversary::Adversary;
use crate::connectivity::{connect_components, BridgeIndex};
use crate::dynamic::{GraphUpdate, RoundDelta};
use crate::edge::Edge;
use crate::generators::Topology;
use crate::graph::Graph;
use crate::node::{NodeId, Round};
use crate::stability::StabilityEnforcer;
use rand::distributions::{Distribution, Geometric};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The adversary that never changes the topology: a static network.
///
/// Useful as the baseline where token dissemination costs `O(n² + nk)`
/// messages total (Section 1).
#[derive(Clone, Debug)]
pub struct StaticAdversary {
    /// `None` until the first round of a [`StaticAdversary::complete`]
    /// adversary.
    graph: Option<Graph>,
    /// Node count of the complete graph built when `graph` is `None`.
    n: usize,
}

impl StaticAdversary {
    /// Uses `graph` for every round.
    ///
    /// # Panics
    ///
    /// Panics if `graph` is not connected.
    pub fn new(graph: Graph) -> Self {
        StaticAdversary {
            n: graph.node_count(),
            graph: Some(checked(graph)),
        }
    }

    /// The complete graph on `n` nodes for every round, built (and checked
    /// like [`StaticAdversary::new`] checks) on the first round rather than
    /// here: a default a caller replaces before running costs nothing, where
    /// `K_n` itself is `n(n−1)/2` edges.
    pub fn complete(n: usize) -> Self {
        StaticAdversary { graph: None, n }
    }

    /// Samples a static topology from a family.
    pub fn from_topology(topology: Topology, n: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        StaticAdversary::new(topology.sample(n, &mut rng))
    }

    fn graph(&mut self) -> &Graph {
        let n = self.n;
        self.graph
            .get_or_insert_with(|| checked(Graph::complete(n)))
    }
}

fn checked(graph: Graph) -> Graph {
    assert!(graph.is_connected(), "static topology must be connected");
    graph
}

impl Adversary for StaticAdversary {
    fn evolve(&mut self, round: Round, _prev: &Graph) -> GraphUpdate {
        if round == 1 {
            GraphUpdate::Full(self.graph().clone())
        } else {
            GraphUpdate::Unchanged
        }
    }

    fn name(&self) -> &str {
        "static"
    }
}

/// Rewires the whole topology to a fresh sample of `topology` every
/// `period` rounds, keeping it fixed in between.
///
/// The produced schedule is `period`-edge-stable by construction (edges
/// change only at period boundaries). With `period = 3` this is the natural
/// "worst-case but 3-stable" adversary for Theorem 3.4 experiments.
#[derive(Debug)]
pub struct PeriodicRewiring {
    topology: Topology,
    period: u64,
    rng: StdRng,
    name: String,
}

impl PeriodicRewiring {
    /// Creates a rewiring adversary with the given period (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(topology: Topology, period: u64, seed: u64) -> Self {
        assert!(period >= 1, "period must be ≥ 1");
        PeriodicRewiring {
            topology,
            period,
            rng: StdRng::seed_from_u64(seed),
            name: format!("rewire({topology:?}, ρ={period})"),
        }
    }
}

impl Adversary for PeriodicRewiring {
    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
        // Rounds start at 1, so the first call is always a rewire round and
        // the sampled graph can be handed over by value — the engine's
        // `DynamicGraph` takes ownership and no clone ever happens.
        if (round - 1).is_multiple_of(self.period) {
            GraphUpdate::Full(self.topology.sample(prev.node_count(), &mut self.rng))
        } else {
            // Mid-period rounds keep the committed topology: free.
            GraphUpdate::Unchanged
        }
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Edge-Markovian dynamics: every potential edge turns on with probability
/// `p_on` and turns off with probability `p_off`, independently per round,
/// sparing edges younger than σ rounds, and repaired to connectivity.
///
/// This is the classic smoothly-dynamic model (e.g. Clementi et al.); the
/// repair edges are charged to `TC(E)` like any other insertion.
///
/// Instead of flipping a coin per potential edge (`O(n²)` per round), the
/// per-edge Bernoulli processes are **skip-sampled**: one [`Geometric`]
/// draw jumps directly to the next event, so a round costs
/// `O(n + m + events)` — births walk the absent-pair index space, deaths
/// walk the sorted present-edge list. The adversary maintains its own
/// snapshot and hands the engine true [`GraphUpdate::Delta`]s.
#[derive(Debug)]
pub struct EdgeMarkovian {
    p_on: f64,
    p_off: f64,
    enforcer: StabilityEnforcer,
    rng: StdRng,
    current: Option<Graph>,
    name: String,
}

impl EdgeMarkovian {
    /// Creates σ-edge-stable edge-Markovian dynamics.
    ///
    /// # Panics
    ///
    /// Panics if the probabilities are not in `[0, 1]` or `sigma == 0`.
    pub fn new(p_on: f64, p_off: f64, sigma: u64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&p_on), "p_on must be a probability");
        assert!((0.0..=1.0).contains(&p_off), "p_off must be a probability");
        EdgeMarkovian {
            p_on,
            p_off,
            enforcer: StabilityEnforcer::new(sigma),
            rng: StdRng::seed_from_u64(seed),
            current: None,
            name: format!("edge-markovian(p↑={p_on}, p↓={p_off}, σ={sigma})"),
        }
    }

    /// Skip-samples the Bernoulli(`p_on`) birth process over the pairs
    /// absent from `g`, in (lo, hi) lexicographic order.
    ///
    /// Works in the linear index space of all `n(n−1)/2` pairs: the a-th
    /// absent pair has linear index `a + c` where `c` is the number of
    /// present edges at or below it — resolved by a monotone merge walk
    /// against the sorted present list, so the whole sweep is
    /// `O(m + births)`, never `O(n²)`.
    fn sample_births(&mut self, g: &Graph, births: &mut Vec<Edge>) {
        if self.p_on <= 0.0 {
            return;
        }
        let n = g.node_count() as u64;
        let total_pairs = n * (n - 1) / 2;
        let present = g.edges().as_slice();
        if total_pairs == 0 || present.len() as u64 == total_pairs {
            return;
        }
        let linear = |e: Edge| -> u64 {
            let (u, v) = (e.lo().value() as u64, e.hi().value() as u64);
            u * n - u * (u + 1) / 2 + (v - u - 1)
        };
        let geom = Geometric::new(self.p_on);
        let absent_total = total_pairs - present.len() as u64;
        // `a` enumerates absent-pair ranks; `pi` present edges passed so far.
        let mut a = geom.sample(&mut self.rng);
        let mut pi = 0usize;
        // Row pointer for linear-index → (u, v) conversion; `row_start` is
        // the linear index of pair (row, row+1).
        let (mut row, mut row_start, mut row_len) = (0u64, 0u64, n - 1);
        while a < absent_total {
            // Fixed point: idx = a + #present ≤ idx (both only increase).
            let mut idx = a + pi as u64;
            while pi < present.len() && linear(present[pi]) <= idx {
                pi += 1;
                idx = a + pi as u64;
            }
            while row_start + row_len <= idx {
                row_start += row_len;
                row += 1;
                row_len -= 1;
            }
            let v = row + 1 + (idx - row_start);
            births.push(Edge::new(NodeId::new(row as u32), NodeId::new(v as u32)));
            a += 1 + geom.sample(&mut self.rng);
        }
    }

    /// Skip-samples the Bernoulli(`p_off`) death process over the sorted
    /// present-edge list of `g`, leaving σ-pinned edges alone.
    fn sample_deaths(&mut self, g: &Graph, deaths: &mut Vec<Edge>) {
        if self.p_off <= 0.0 || g.edge_count() == 0 {
            return;
        }
        let pinned = self.enforcer.pinned_edges();
        let present = g.edges().as_slice();
        let geom = Geometric::new(self.p_off);
        let mut i = geom.sample(&mut self.rng);
        while (i as usize) < present.len() {
            let e = present[i as usize];
            if pinned.binary_search(&e).is_err() {
                deaths.push(e);
            }
            i += 1 + geom.sample(&mut self.rng);
        }
    }
}

impl Adversary for EdgeMarkovian {
    fn evolve(&mut self, _round: Round, prev: &Graph) -> GraphUpdate {
        let n = prev.node_count();
        let Some(mut g) = self.current.take() else {
            // First round: all pairs are absent in G_0, so the initial
            // snapshot is one birth sweep plus repair, all born at once.
            let mut births = Vec::new();
            self.sample_births(&Graph::empty(n), &mut births);
            let mut initial = Graph::from_edges(n, births);
            connect_components(&mut initial, &mut self.rng);
            self.enforcer
                .commit_delta(initial.edges().as_slice(), &[])
                .expect("round 1 removes nothing");
            self.current = Some(initial.clone());
            return GraphUpdate::Full(initial);
        };
        let mut removed = Vec::new();
        let mut inserted = Vec::new();
        self.sample_deaths(&g, &mut removed);
        self.sample_births(&g, &mut inserted);
        for &e in &removed {
            g.remove_edge(e);
        }
        for &e in &inserted {
            g.insert_edge(e);
        }
        // Deaths may disconnect the graph; repair edges join the delta and
        // are charged to TC(E) like any other insertion. Births are drawn
        // from absent pairs, so only a repair can re-insert an edge removed
        // this round — such an edge is unchanged in the snapshot and must
        // cancel out of the delta (neither metered nor σ-age-reset). The
        // intersection scan is over the handful of repairs, not the whole
        // delta.
        let repairs = connect_components(&mut g, &mut self.rng);
        let both: Vec<Edge> = repairs
            .iter()
            .filter(|e| removed.contains(e))
            .copied()
            .collect();
        if both.is_empty() {
            inserted.extend(repairs);
        } else {
            removed.retain(|e| !both.contains(e));
            inserted.extend(repairs.into_iter().filter(|e| !both.contains(e)));
        }
        self.enforcer
            .commit_delta(&inserted, &removed)
            .expect("deaths skip pinned edges");
        self.current = Some(g);
        GraphUpdate::Delta(RoundDelta { inserted, removed })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Bounded-churn dynamics: each round deletes up to `churn` eligible
/// (σ-mature, non-bridge) edges and inserts up to `churn` random absent
/// edges, starting from an initial sample of `topology`.
///
/// Connectivity is maintained *without* repair insertions by only deleting
/// non-bridges, so `TC(E)` grows by at most `churn` per round after the
/// initial topology — making the adversary-competitive budget directly
/// proportional to the churn-rate knob.
///
/// # Cost
///
/// Every deletion draws uniformly among the present edges that are neither
/// bridges nor σ-pinned, and removals create bridges, so the bridges are
/// kept current by a [`BridgeIndex`]: a round costs one O(n + m) pass, one
/// more per deleted spanning-tree edge (about (n − 1)/m of the draws),
/// and a walk up the tree — O(depth) — per other deletion. The draw itself
/// is rank arithmetic over the sorted edge list, with no candidate list:
/// of `m` present edges `m − |bridges ∪ pinned|` are eligible, and the
/// drawn rank is resolved by stepping over the excluded edges. That rests
/// on `bridges ⊆ E` and `pinned ⊆ E` holding throughout a round — they do
/// at its start (the enforcer tracks exactly the present edges), and an
/// edge removed mid-round was by construction neither.
#[derive(Debug)]
pub struct ChurnAdversary {
    topology: Topology,
    churn: usize,
    enforcer: StabilityEnforcer,
    rng: StdRng,
    current: Option<Graph>,
    bridges: BridgeIndex,
    /// `bridges ∪ pinned`, sorted: the edges a deletion may not draw.
    excluded: Vec<Edge>,
    name: String,
}

impl ChurnAdversary {
    /// Creates a churn adversary with the given per-round churn bound and
    /// σ-stability.
    pub fn new(topology: Topology, churn: usize, sigma: u64, seed: u64) -> Self {
        ChurnAdversary {
            topology,
            churn,
            enforcer: StabilityEnforcer::new(sigma),
            rng: StdRng::seed_from_u64(seed),
            current: None,
            bridges: BridgeIndex::default(),
            excluded: Vec::new(),
            name: format!("churn({topology:?}, c={churn}, σ={sigma})"),
        }
    }
}

impl Adversary for ChurnAdversary {
    fn evolve(&mut self, _round: Round, prev: &Graph) -> GraphUpdate {
        let n = prev.node_count();
        let Some(g) = self.current.as_mut() else {
            // First round: sample a full topology (one-time cost).
            let initial = self.topology.sample(n, &mut self.rng);
            self.enforcer
                .commit_delta(initial.edges().as_slice(), &[])
                .expect("round 1 removes nothing");
            self.current = Some(initial.clone());
            return GraphUpdate::Full(initial);
        };
        // Delete up to `churn` non-bridge edges that are mature enough,
        // each drawn uniformly among the eligible ones in edge order.
        let pinned = self.enforcer.pinned_edges();
        let mut removed = Vec::new();
        for _ in 0..self.churn {
            // Removals create bridges: bring the index up to the graph.
            match removed.last() {
                None => self.bridges.rebuild(g),
                Some(&e) => self.bridges.delete(g, e),
            }
            merge_sorted(self.bridges.bridges(), &pinned, &mut self.excluded);
            let present = g.edges().as_slice();
            debug_assert!(self.excluded.windows(2).all(|w| w[0] < w[1]));
            debug_assert!(self.excluded.iter().all(|&e| g.edges().contains(e)));
            let eligible = present.len() - self.excluded.len();
            if eligible == 0 {
                break;
            }
            // The `rank`-th eligible edge sits `skipped` places further on,
            // past the excluded edges at or before it.
            let rank = self.rng.gen_range(0..eligible);
            let skipped = self
                .excluded
                .iter()
                .enumerate()
                .take_while(|&(j, &x)| x <= present[rank + j])
                .count();
            let e = present[rank + skipped];
            g.remove_edge(e);
            removed.push(e);
        }
        // Insert up to `churn` random absent edges.
        let mut inserted = Vec::new();
        let mut attempts = 0usize;
        while inserted.len() < self.churn && attempts < 50 * self.churn + 50 {
            attempts += 1;
            let u = self.rng.gen_range(0..n as u32);
            let v = self.rng.gen_range(0..n as u32);
            if u != v {
                let e = Edge::new(NodeId::new(u), NodeId::new(v));
                if g.insert_edge(e) {
                    inserted.push(e);
                }
            }
        }
        // Cancel edges churned out and straight back in this round: the
        // snapshot is unchanged for them, so — matching the snapshot-diff
        // semantics — they must not reach the topology meter or have their
        // σ-age reset.
        if removed.iter().any(|e| inserted.contains(e)) {
            let both: Vec<Edge> = removed
                .iter()
                .filter(|e| inserted.contains(e))
                .copied()
                .collect();
            removed.retain(|e| !both.contains(e));
            inserted.retain(|e| !both.contains(e));
        }
        self.enforcer
            .commit_delta(&inserted, &removed)
            .expect("deletions skip pinned edges");
        GraphUpdate::Delta(RoundDelta { inserted, removed })
    }

    fn name(&self) -> &str {
        &self.name
    }
}

/// Writes the union of the sorted, duplicate-free `a` and `b` into `out`,
/// sorted and duplicate-free.
fn merge_sorted(a: &[Edge], b: &[Edge], out: &mut Vec<Edge>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let next = a[i].min(b[j]);
        i += (a[i] == next) as usize;
        j += (b[j] == next) as usize;
        out.push(next);
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
}

/// Replays an explicit schedule `G_1, …, G_x`, clamping to the last graph
/// after the script runs out.
///
/// # Examples
///
/// ```
/// use dynspread_graph::{oblivious::ScriptedAdversary, adversary::Adversary, Graph};
///
/// let mut adv = ScriptedAdversary::new(vec![Graph::path(3), Graph::star(3)]);
/// let mut g = adv.graph_for_round(1, &Graph::empty(3));
/// assert_eq!(g, Graph::path(3));
/// for r in 2..=5 {
///     g = adv.graph_for_round(r, &g);
/// }
/// assert_eq!(g, Graph::star(3));
/// ```
#[derive(Clone, Debug)]
pub struct ScriptedAdversary {
    schedule: Vec<Graph>,
}

impl ScriptedAdversary {
    /// Creates a scripted adversary.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or contains a disconnected graph.
    pub fn new(schedule: Vec<Graph>) -> Self {
        assert!(!schedule.is_empty(), "schedule must be nonempty");
        for (i, g) in schedule.iter().enumerate() {
            assert!(g.is_connected(), "scripted graph {} is disconnected", i + 1);
        }
        ScriptedAdversary { schedule }
    }
}

impl Adversary for ScriptedAdversary {
    fn evolve(&mut self, round: Round, _prev: &Graph) -> GraphUpdate {
        // Past the end of the script the topology is clamped: free.
        match self.schedule.get((round - 1) as usize) {
            Some(g) => GraphUpdate::Full(g.clone()),
            None => GraphUpdate::Unchanged,
        }
    }

    fn name(&self) -> &str {
        "scripted"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stability::{check_schedule, StabilityEnforcer};

    #[test]
    fn static_adversary_is_constant() {
        let mut adv = StaticAdversary::from_topology(Topology::RandomTree, 10, 3);
        let g0 = Graph::empty(10);
        let g1 = adv.graph_for_round(1, &g0);
        let g2 = adv.graph_for_round(2, &g1);
        assert_eq!(g1, g2);
        assert!(g1.is_connected());
    }

    #[test]
    #[should_panic(expected = "must be connected")]
    fn static_adversary_rejects_disconnected() {
        let _ = StaticAdversary::new(Graph::empty(3));
    }

    #[test]
    fn periodic_rewiring_changes_only_at_boundaries() {
        let mut adv = PeriodicRewiring::new(Topology::RandomTree, 3, 11);
        let g0 = Graph::empty(12);
        let mut graphs = Vec::new();
        let mut prev = g0;
        for r in 1..=9 {
            let g = adv.graph_for_round(r, &prev);
            graphs.push(g.clone());
            prev = g;
        }
        assert_eq!(graphs[0], graphs[1]);
        assert_eq!(graphs[1], graphs[2]);
        assert_eq!(graphs[3], graphs[4]);
        assert_ne!(
            graphs[2], graphs[3],
            "seeded trees on 12 nodes should differ"
        );
    }

    #[test]
    fn periodic_rewiring_is_period_stable() {
        let period = 3;
        let mut adv = PeriodicRewiring::new(Topology::RandomTree, period, 5);
        let mut schedule = vec![Graph::empty(10)];
        for r in 1..=30 {
            let g = adv.graph_for_round(r, &schedule[r as usize - 1]);
            assert!(g.is_connected());
            schedule.push(g);
        }
        check_schedule(period, &schedule[1..]).expect("period-stable by construction");
    }

    #[test]
    fn edge_markovian_stays_connected_and_stable() {
        let sigma = 2;
        let mut adv = EdgeMarkovian::new(0.1, 0.3, sigma, 17);
        let mut schedule = vec![Graph::empty(12)];
        for r in 1..=40 {
            let g = adv.graph_for_round(r, &schedule[r as usize - 1]);
            assert!(g.is_connected(), "round {r} disconnected");
            schedule.push(g);
        }
        check_schedule(sigma, &schedule[1..]).expect("σ-stable by construction");
    }

    #[test]
    fn edge_markovian_actually_churns() {
        let mut adv = EdgeMarkovian::new(0.05, 0.2, 1, 23);
        let mut prev = Graph::empty(10);
        let g1 = adv.graph_for_round(1, &prev);
        prev = g1.clone();
        let g2 = adv.graph_for_round(2, &prev);
        assert_ne!(g1, g2, "dynamics should change something");
    }

    #[test]
    fn edge_markovian_emits_consistent_deltas() {
        let sigma = 2;
        let mut adv = EdgeMarkovian::new(0.05, 0.25, sigma, 41);
        let mut dg = crate::dynamic::DynamicGraph::new(12);
        let mut ledger = StabilityEnforcer::new(sigma);
        let mut full_rounds = 0;
        let mut delta_rounds = 0;
        for r in 1..=200 {
            let update = adv.evolve(r, dg.current());
            match &update {
                GraphUpdate::Full(_) => full_rounds += 1,
                GraphUpdate::Delta(d) => {
                    delta_rounds += 1;
                    assert!(
                        d.inserted.iter().all(|e| !d.removed.contains(e)),
                        "round {r}: edge on both sides of the delta"
                    );
                }
                GraphUpdate::Unchanged => {}
            }
            dg.apply(update);
            assert!(dg.current().is_connected(), "round {r} disconnected");
            let d = dg.last_delta();
            ledger
                .commit_delta(&d.inserted, &d.removed)
                .expect("σ-stable by construction");
            // Meter stays consistent with the live snapshot.
            assert_eq!(
                dg.current().edge_count() as u64,
                dg.meter().insertions - dg.meter().deletions
            );
        }
        assert_eq!(full_rounds, 1, "only round 1 is a full snapshot");
        assert!(delta_rounds > 0, "dynamics should emit deltas");
    }

    #[test]
    fn edge_markovian_birth_sweep_covers_every_pair() {
        // p_on = 1 must fill the graph in round 1 (exercises the linear
        // index → (u, v) mapping over the whole pair space); with p_off = 0
        // every later round is an empty delta.
        let mut adv = EdgeMarkovian::new(1.0, 0.0, 1, 3);
        let g1 = adv.graph_for_round(1, &Graph::empty(9));
        assert_eq!(g1.edge_count(), 9 * 8 / 2);
        match adv.evolve(2, &g1) {
            GraphUpdate::Delta(d) => assert!(d.is_empty()),
            other => panic!("expected an empty delta, got {other:?}"),
        }
    }

    #[test]
    fn churn_adversary_bounded_insertions() {
        let churn = 2;
        let mut adv = ChurnAdversary::new(Topology::SparseConnected(2.0), churn, 1, 29);
        let mut dg = crate::dynamic::DynamicGraph::new(14);
        let g1 = adv.graph_for_round(1, dg.current());
        dg.advance(g1);
        let initial_tc = dg.topological_changes();
        for r in 2..=20 {
            let g = adv.graph_for_round(r, dg.current());
            assert!(g.is_connected(), "round {r} disconnected");
            dg.advance(g);
        }
        let later_tc = dg.topological_changes() - initial_tc;
        assert!(
            later_tc <= (churn as u64) * 19,
            "TC grew by {later_tc} > churn bound {}",
            churn * 19
        );
    }

    #[test]
    fn churn_adversary_respects_sigma() {
        let sigma = 3;
        let mut adv = ChurnAdversary::new(Topology::SparseConnected(1.5), 3, sigma, 31);
        let mut schedule = vec![Graph::empty(10)];
        for r in 1..=30 {
            let g = adv.graph_for_round(r, &schedule[r as usize - 1]);
            assert!(g.is_connected(), "round {r} disconnected");
            schedule.push(g);
        }
        check_schedule(sigma, &schedule[1..]).expect("σ-stable by construction");
    }

    #[test]
    fn scripted_adversary_replays_then_clamps() {
        let mut adv = ScriptedAdversary::new(vec![Graph::path(4), Graph::star(4)]);
        let g1 = adv.graph_for_round(1, &Graph::empty(4));
        assert_eq!(g1, Graph::path(4));
        let mut g = adv.graph_for_round(2, &g1);
        assert_eq!(g, Graph::star(4));
        for r in 3..=9 {
            g = adv.graph_for_round(r, &g);
            assert_eq!(g, Graph::star(4));
        }
    }

    #[test]
    #[should_panic(expected = "disconnected")]
    fn scripted_adversary_rejects_disconnected() {
        let _ = ScriptedAdversary::new(vec![Graph::empty(3)]);
    }

    #[test]
    fn edge_markovian_extreme_probabilities() {
        // p_off = 1 with σ = 1: every mature edge dies each round, yet the
        // graph stays connected through repairs.
        let mut adv = EdgeMarkovian::new(0.0, 1.0, 1, 3);
        let mut prev = Graph::empty(8);
        for r in 1..=10 {
            let g = adv.graph_for_round(r, &prev);
            assert!(g.is_connected(), "round {r}");
            // With p_on = 0, only repair edges exist: exactly a tree.
            assert_eq!(g.edge_count(), 7);
            prev = g;
        }
    }

    #[test]
    fn churn_delta_never_lists_an_edge_on_both_sides() {
        // Small n + high churn makes remove-then-reinsert collisions likely;
        // such edges must cancel out of the delta (they'd inflate TC(E) and
        // reset σ-ages relative to the snapshot-diff semantics).
        let mut adv = ChurnAdversary::new(Topology::SparseConnected(1.2), 4, 1, 11);
        let mut dg = crate::dynamic::DynamicGraph::new(8);
        for r in 1..=300 {
            let update = adv.evolve(r, dg.current());
            if let GraphUpdate::Delta(d) = &update {
                assert!(
                    d.inserted.iter().all(|e| !d.removed.contains(e)),
                    "round {r}: edge on both sides of the delta"
                );
            }
            dg.apply(update);
            // Meter stays consistent with the live snapshot.
            assert_eq!(
                dg.current().edge_count() as u64,
                dg.meter().insertions - dg.meter().deletions
            );
        }
    }

    #[test]
    fn churn_zero_is_static_after_round_one() {
        let mut adv = ChurnAdversary::new(Topology::RandomTree, 0, 1, 5);
        let g1 = adv.graph_for_round(1, &Graph::empty(9));
        let g2 = adv.graph_for_round(2, &g1);
        let g3 = adv.graph_for_round(3, &g2);
        assert_eq!(g1, g2);
        assert_eq!(g2, g3);
    }

    #[test]
    fn periodic_rewiring_long_period_never_rewires_in_short_run() {
        let mut adv = PeriodicRewiring::new(Topology::RandomTree, 1000, 7);
        let mut prev = Graph::empty(6);
        let first = adv.graph_for_round(1, &prev);
        prev = first.clone();
        for r in 2..=50 {
            let g = adv.graph_for_round(r, &prev);
            assert_eq!(g, first, "round {r} should not rewire");
            prev = g;
        }
    }

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed: u64| {
            let mut adv = EdgeMarkovian::new(0.1, 0.2, 1, seed);
            let mut prev = Graph::empty(9);
            let mut out = Vec::new();
            for r in 1..=10 {
                let g = adv.graph_for_round(r, &prev);
                out.push(g.edges().iter().collect::<Vec<_>>());
                prev = g;
            }
            out
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77), run(78));
    }
}
