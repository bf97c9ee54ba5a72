//! Computing a global function via n-gossip (the paper's introduction):
//! "solving n-gossip, where each node starts with exactly one token,
//! allows any function of the initial states of the nodes to be computed".
//!
//! Each node holds one sensor value; its token *is* (the identity of) that
//! value. We run the headline Oblivious-Multi-Source-Unicast algorithm
//! (Algorithm 2) — the right tool because n-gossip has `s = n` sources,
//! which is exactly the regime where plain Multi-Source's `O(n²s)`
//! announcements blow up. After dissemination every node holds all `n`
//! tokens and computes max/mean/argmax locally.
//!
//! Run with: `cargo run --example gossip_aggregate`

use dynspread::core::oblivious::{run_oblivious_multi_source, ObliviousConfig};
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::sim::{TokenAssignment, TokenId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let n = 32;
    // Token i ↔ node i's value. Token-forwarding never inspects payloads,
    // so the "payload table" lives outside the protocol.
    let mut rng = StdRng::seed_from_u64(99);
    let values: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();

    let assignment = TokenAssignment::n_gossip(n);
    let cfg = ObliviousConfig {
        seed: 7,
        // Laptop-scale parameters (see the reproduction notes in
        // `dynspread::core::oblivious`): force the two-phase
        // path and elect ~25% of nodes as centers.
        source_threshold: Some(1.0),
        center_probability: Some(0.25),
        ..ObliviousConfig::default()
    };
    let outcome = run_oblivious_multi_source(
        &assignment,
        PeriodicRewiring::new(Topology::Gnp(0.2), 3, 11),
        PeriodicRewiring::new(Topology::RandomTree, 3, 13),
        &cfg,
    );
    assert!(outcome.completed(), "n-gossip must complete");

    if let Some(p1) = &outcome.phase1 {
        println!(
            "phase 1: {} rounds, {} messages — all {} tokens walked to {} centers",
            p1.rounds,
            p1.total_messages,
            n,
            outcome.centers.len()
        );
    }
    println!(
        "phase 2: {} rounds, {} messages — centers disseminated everything",
        outcome.phase2.rounds, outcome.phase2.total_messages
    );
    println!(
        "total: {} messages, amortized {:.1} per token\n",
        outcome.total_messages(),
        outcome.amortized()
    );

    // Every node now knows every token; any of them can evaluate any
    // function of the initial states. (The tracker proves global
    // knowledge; we evaluate from the payload table.)
    let known: Vec<f64> = TokenId::all(n).map(|t| values[t.index()]).collect();
    let max = known.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let mean = known.iter().sum::<f64>() / n as f64;
    let argmax = known
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("no NaN"))
        .map(|(i, _)| i)
        .expect("nonempty");
    println!("every node can now compute: max = {max:.2} (node {argmax}), mean = {mean:.2}");
}
