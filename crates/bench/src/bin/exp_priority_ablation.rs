//! **Ablation A-prio** — the request priority (new > idle > contributive)
//! of Algorithm 1.
//!
//! The paper calls for "a careful strategy … to avoid redundant
//! communication": incomplete nodes try *new* edges first, then *idle*,
//! then *contributive*. The futile-round argument (Lemmas 3.2/3.3) hinges
//! on it. This ablation compares the prioritized policy against an
//! ID-order policy under adversaries that punish bad edge choices
//! (request cutting and fast rewiring).

use dynspread_analysis::stats::Summary;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_bench::run_single_source_with_policy;
use dynspread_core::adaptive::RequestCuttingAdversary;
use dynspread_core::single_source::RequestPolicy;
use dynspread_graph::adversary::Adversary;
use dynspread_graph::connectivity::connect_components;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::stability::StabilityEnforcer;
use dynspread_graph::{Edge, Graph, NodeId, Round};
use dynspread_sim::message::MessageClass;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Every edge lives exactly `lifetime` rounds, with staggered births: in
/// every round some edges are brand new (safe to request on) and some are
/// one round from death (a request there is wasted). This is the regime
/// where Algorithm 1's new > idle > contributive priority pays off.
///
/// Edge ages live in a σ = `lifetime` [`StabilityEnforcer`]: the pinned
/// edges survive, every other edge dies, and each round commits its own
/// `(born, dead)`, so an edge that dies and is redrawn is born again.
struct AgingAdversary {
    target_edges: usize,
    rng: StdRng,
    ledger: StabilityEnforcer,
}

impl AgingAdversary {
    fn new(lifetime: Round, target_edges: usize, seed: u64) -> Self {
        AgingAdversary {
            target_edges,
            rng: StdRng::seed_from_u64(seed),
            ledger: StabilityEnforcer::new(lifetime),
        }
    }
}

impl Adversary for AgingAdversary {
    fn evolve(&mut self, _round: Round, prev: &Graph) -> GraphUpdate {
        let n = prev.node_count();
        let pinned = self.ledger.pinned_edges();
        let dead: Vec<Edge> = prev
            .edges()
            .iter()
            .filter(|e| pinned.binary_search(e).is_err())
            .collect();
        let mut g = Graph::from_edges(n, pinned);
        let mut born = Vec::new();
        let mut attempts = 0;
        while g.edge_count() < self.target_edges && attempts < 100 * self.target_edges {
            attempts += 1;
            let u = self.rng.gen_range(0..n as u32);
            let v = self.rng.gen_range(0..n as u32);
            if u != v {
                let e = Edge::new(NodeId::new(u), NodeId::new(v));
                if g.insert_edge(e) {
                    born.push(e);
                }
            }
        }
        born.extend(connect_components(&mut g, &mut self.rng));
        self.ledger
            .commit_delta(&born, &dead)
            .expect("only σ-mature edges die");
        GraphUpdate::Full(g)
    }

    fn name(&self) -> &str {
        "aging(exact-lifetime)"
    }
}

fn main() {
    // Small k and dense graphs: the regime where an incomplete node has
    // more eligible edges than missing tokens, so *which* edge gets the
    // request is an actual choice.
    let (n, k) = (24usize, 4usize);
    let trials = 10u64;
    println!(
        "Request-priority ablation: Single-Source-Unicast, n = {n}, k = {k}, {trials} seeds/cell\n"
    );

    // The full (family × policy × trial) grid is embarrassingly parallel:
    // fan it across cores, then aggregate per-cell trial means in order.
    let families = [
        "rewire(tree,\u{3c1}=3)",
        "aging(lifetime=3)",
        "stable-cutter(\u{3c3}=3)",
        "request-cutting(b=1)",
    ];
    let policies = [RequestPolicy::Prioritized, RequestPolicy::Unprioritized];
    let jobs: Vec<(usize, usize, u64)> = (0..families.len())
        .flat_map(|f| (0..policies.len()).flat_map(move |p| (0..trials).map(move |t| (f, p, t))))
        .collect();
    let runs = dynspread_bench::par_map(jobs, |(f, p, t)| {
        let policy = policies[p];
        match f {
            // Oblivious rewiring: the benign control arm.
            0 => run_single_source_with_policy(
                n,
                k,
                PeriodicRewiring::new(Topology::RandomTree, 3, 1000 + t),
                2_000_000,
                policy,
            ),
            // Exact 3-round edge lifetimes with staggered births: only new
            // edges survive long enough to answer a request.
            1 => run_single_source_with_policy(
                n,
                k,
                AgingAdversary::new(3, 5 * n, 3000 + t),
                2_000_000,
                policy,
            ),
            // \u{3c3}-stable adaptive cutting (Lemma 3.2's regime): only requests
            // on *new* edges are guaranteed to be answered.
            2 => run_single_source_with_policy(
                n,
                k,
                dynspread_core::adaptive::StableRequestCutter::new(3, 3 * n, 4000 + t),
                20_000,
                policy,
            ),
            // Budget-1 cutting: one request edge killed per round.
            _ => run_single_source_with_policy(
                n,
                k,
                RequestCuttingAdversary::new(Topology::SparseConnected(2.5), 1, 1, 2000 + t),
                2_000_000,
                policy,
            ),
        }
    });
    let trials_us = trials as usize;
    let mut rows = Vec::new();
    for (f, family) in families.iter().enumerate() {
        for (p, policy) in policies.iter().enumerate() {
            let cell = &runs[(f * policies.len() + p) * trials_us..][..trials_us];
            let done = cell.iter().filter(|r| r.completed).count();
            let rounds: Vec<f64> = cell.iter().map(|r| r.rounds as f64).collect();
            let msgs: Vec<f64> = cell.iter().map(|r| r.total_messages as f64).collect();
            let wasted: Vec<f64> = cell
                .iter()
                .map(|r| (r.class(MessageClass::Request) - r.class(MessageClass::Token)) as f64)
                .collect();
            rows.push(
                Row::default()
                    .table("adversary", family)
                    .table("policy", format!("{policy:?}"))
                    .table("completed", format!("{done}/{trials}"))
                    .table(
                        "rounds (mean)",
                        fmt_f64(Summary::from_samples(&rounds).mean),
                    )
                    .table(
                        "messages (mean)",
                        fmt_f64(Summary::from_samples(&msgs).mean),
                    )
                    .table(
                        "wasted requests (mean)",
                        fmt_f64(Summary::from_samples(&wasted).mean),
                    ),
            );
        }
    }
    println!("{}", render_table(&rows));
    println!(
        "expected shape: under oblivious dynamics the policies coincide (every \
         eligible edge gets a request when tokens outnumber edges); under the σ-stable \
         adaptive cutter the prioritized policy wastes fewer requests and finishes \
         slightly sooner — the paper's priority is a worst-case (futile-round) \
         guarantee, not an average-case speedup"
    );
}
