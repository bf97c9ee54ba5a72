//! **Figure 1 / Lemma 2.2** — structure of the free-edge graph.
//!
//! Figure 1 depicts the free-edge graph in a round with few broadcasters:
//! the silent nodes `B̄` form a clique of free edges and every broadcaster
//! in `B` hangs off `B̄` by at least one free edge, so `F(r)` is a single
//! connected component (Lemma 2.2, for `β ≤ n/(c log n)`). Lemma 2.1 says
//! that even for arbitrary (worst-case) assignments, `F(r)` has `O(log n)`
//! components.
//!
//! Lemma 2.2 quantifies over **all** token assignments, so this binary
//! samples two arms per broadcaster count `β`:
//!
//! * *random* — each broadcaster broadcasts a uniformly random known
//!   token (what a typical algorithm round looks like);
//! * *adversarial* — each broadcaster picks a distinct token of minimum
//!   coverage (`|{v : t ∈ K_v ∪ K'_v}|`), the algorithm's best attempt at
//!   creating non-free edges.
//!
//! Expected shape: `F(r)` is connected with probability 1 for small `β` in
//! both arms (Lemma 2.2); under the adversarial arm with large `β`, a few
//! components appear — but always `O(log n)` many (Lemma 2.1), which is
//! exactly the `O(log n)`-per-round progress cap behind Theorem 2.3.

use dynspread_analysis::stats::Summary;
use dynspread_analysis::table::fmt_f64;
use dynspread_bench::row::{render_table, Row};
use dynspread_core::lower_bound::{free_edge_structure, FreeEdgeStructure, KPrimeSets};
use dynspread_sim::token::{TokenId, TokenSet};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn sample_knowledge(n: usize, k: usize, density: f64, rng: &mut StdRng) -> Vec<TokenSet> {
    (0..n)
        .map(|_| {
            let mut s = TokenSet::new(k);
            for t in TokenId::all(k) {
                if rng.gen_bool(density) {
                    s.insert(t);
                }
            }
            s
        })
        .collect()
}

/// Distinct minimum-coverage tokens for the first `beta` nodes; each
/// broadcaster is seeded with its chosen token so the choice is legal.
fn adversarial_choices(
    beta: usize,
    know: &mut [TokenSet],
    kprime: &KPrimeSets,
    k: usize,
) -> Vec<Option<TokenId>> {
    let n = know.len();
    let mut coverage: Vec<(usize, TokenId)> = TokenId::all(k)
        .map(|t| {
            let cov = (0..n)
                .filter(|&v| {
                    know[v].contains(t)
                        || kprime
                            .get(dynspread_graph::NodeId::new(v as u32))
                            .contains(t)
                })
                .count();
            (cov, t)
        })
        .collect();
    coverage.sort();
    let mut choices = vec![None; n];
    for b in 0..beta {
        let (_, t) = coverage[b % coverage.len()];
        know[b].insert(t);
        choices[b] = Some(t);
    }
    choices
}

#[allow(clippy::too_many_arguments)]
fn run_arm(
    n: usize,
    k: usize,
    beta: usize,
    trials: usize,
    adversarial: bool,
    density: f64,
    rng: &mut StdRng,
) -> (f64, Summary, f64) {
    let mut connected = 0usize;
    let mut comps = Vec::new();
    let mut free = 0f64;
    for _ in 0..trials {
        let kprime = KPrimeSets::sample(n, k, density, rng);
        let mut know = sample_knowledge(n, k, density, rng);
        let choices: Vec<Option<TokenId>> = if adversarial {
            adversarial_choices(beta, &mut know, &kprime, k)
        } else {
            let mut c = vec![None; n];
            for (b, slot) in c.iter_mut().take(beta).enumerate() {
                let t = TokenId::new(rng.gen_range(0..k as u32));
                know[b].insert(t);
                *slot = Some(t);
            }
            c
        };
        let FreeEdgeStructure {
            free_edges,
            components,
            connected: is_conn,
        } = free_edge_structure(&choices, &know, &kprime);
        if is_conn {
            connected += 1;
        }
        comps.push(components as f64);
        free += free_edges as f64;
    }
    (
        connected as f64 / trials as f64,
        Summary::from_samples(&comps),
        free / trials as f64,
    )
}

fn main() {
    let n = dynspread_bench::size_arg(96, 4);
    let k = n / 2;
    let trials = 40;
    let seed = 7u64;
    println!(
        "Figure 1 / Lemma 2.2 reproduction: n = {n}, k = {k}, K' density 1/4, {trials} trials/arm"
    );
    println!(
        "n/ln(n) = {:.1}, ln(n) = {:.1}\n",
        n as f64 / (n as f64).ln(),
        (n as f64).ln()
    );

    let mut betas = vec![];
    let mut beta = 1usize;
    while beta < n {
        betas.push(beta);
        beta *= 2;
    }
    betas.push(n);

    // Each (β, arm) cell is an independent seeded batch of trials: fan
    // across cores with a per-cell derived RNG stream.
    let jobs: Vec<(usize, bool)> = betas
        .iter()
        .flat_map(|&beta| [(beta, false), (beta, true)])
        .collect();
    let cells = dynspread_bench::par_map(jobs, |(beta, adversarial)| {
        let stream = dynspread_bench::derive_seed(seed, (beta as u64) << 1 | adversarial as u64);
        let mut rng = StdRng::seed_from_u64(stream);
        run_arm(n, k, beta, trials, adversarial, 0.25, &mut rng)
    });
    let mut table = Vec::new();
    for (bi, &beta) in betas.iter().enumerate() {
        let (p_rand, c_rand, _) = cells[2 * bi];
        let (p_adv, c_adv, _) = cells[2 * bi + 1];
        table.push(
            Row::default()
                .table("β", beta)
                .table("P(conn) random", fmt_f64(p_rand))
                .table("comps random", fmt_f64(c_rand.mean))
                .table("P(conn) adversarial", fmt_f64(p_adv))
                .table("comps adversarial (mean)", fmt_f64(c_adv.mean))
                .table("comps adversarial (max)", fmt_f64(c_adv.max)),
        );
    }
    println!("{}", render_table(&table));
    println!(
        "at the paper's density 1/4, F(r) is connected for every β at this scale — \
         the adversary concedes zero potential progress in (nearly) every round, which \
         is the Theorem 2.3 mechanism. Components never exceed O(log n) (Lemma 2.1).\n"
    );

    // Density sweep: the connectivity transition of the B–B̄ attachment.
    // A broadcaster attaches to the silent clique w.p. 1 − (1−q)^(n−β)
    // where q ≈ P(token harmless) — lowering the K/K' density exposes the
    // Figure 1 structure's failure point.
    println!("density sweep (adversarial token choices):");
    // Density × β sweep: independent cells, fanned across cores.
    let djobs: Vec<(f64, usize)> = [0.25, 0.05, 0.02]
        .iter()
        .flat_map(|&density| [4usize, n / 2, (9 * n) / 10].map(move |beta| (density, beta)))
        .collect();
    let dcells = dynspread_bench::par_map(djobs.clone(), |(density, beta)| {
        let stream = dynspread_bench::derive_seed(
            seed ^ 0xD5,
            (beta as u64) << 8 | (density * 100.0) as u64,
        );
        let mut rng = StdRng::seed_from_u64(stream);
        run_arm(n, k, beta, trials, true, density, &mut rng)
    });
    let dtable: Vec<Row> = djobs
        .into_iter()
        .zip(dcells)
        .map(|((density, beta), (p, c, _))| {
            Row::default()
                .table("K/K' density", fmt_f64(density))
                .table("β", beta)
                .table("P(F connected)", fmt_f64(p))
                .table("components (mean)", fmt_f64(c.mean))
                .table("components (max)", fmt_f64(c.max))
                .table("ln n", fmt_f64((n as f64).ln()))
        })
        .collect();
    println!("{}", render_table(&dtable));
    println!(
        "expected shape: sparse β stays connected even at low density (Lemma 2.2's \
         regime: every broadcaster finds a free edge into the silent clique); large β \
         with low density disconnects — and the adversary then pays ℓ−1 non-free \
         edges, i.e. O(components) = O(log n) potential per round"
    );
}
