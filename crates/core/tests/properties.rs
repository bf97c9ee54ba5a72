//! Property-based tests of the core algorithm machinery.

use dynspread_core::dissemination::{CompletenessLedger, PeerLedger};
use dynspread_core::flooding::PhasedFlooding;
use dynspread_core::gf2::{Gf2Basis, Gf2Vector};
use dynspread_core::leader_election::{run_election, ElectionMode};
use dynspread_core::lower_bound::{
    bernoulli_assignment, free_edge_structure, is_free_edge, KPrimeSets, PotentialAdversary,
};
use dynspread_core::network_coding::RlncNode;
use dynspread_graph::generators::Topology;
use dynspread_graph::oblivious::PeriodicRewiring;
use dynspread_graph::NodeId;
use dynspread_sim::sim::{BroadcastSim, SimConfig};
use dynspread_sim::token::{TokenId, TokenSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn free_edge_predicate_is_symmetric(
        k in 1usize..20,
        seed in 0u64..1000,
        iu in prop::option::of(0u32..20),
        iv in prop::option::of(0u32..20),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KPrimeSets::sample(2, k, 0.3, &mut rng);
        let mk = |s: u64| {
            let mut t = TokenSet::new(k);
            let mut r = StdRng::seed_from_u64(s);
            for i in TokenId::all(k) {
                if rand::Rng::gen_bool(&mut r, 0.3) {
                    t.insert(i);
                }
            }
            t
        };
        let ku = mk(seed + 1);
        let kv = mk(seed + 2);
        let iu = iu.map(|i| TokenId::new(i % k as u32));
        let iv = iv.map(|i| TokenId::new(i % k as u32));
        let a = is_free_edge(iu, iv, &ku, &kv, kp.get(NodeId::new(0)), kp.get(NodeId::new(1)));
        let b = is_free_edge(iv, iu, &kv, &ku, kp.get(NodeId::new(1)), kp.get(NodeId::new(0)));
        prop_assert_eq!(a, b, "free-edge predicate must be symmetric");
    }

    #[test]
    fn all_silent_rounds_are_fully_free(
        n in 2usize..20,
        k in 1usize..16,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let kp = KPrimeSets::sample(n, k, 0.25, &mut rng);
        let know = vec![TokenSet::new(k); n];
        let st = free_edge_structure(&vec![None; n], &know, &kp);
        prop_assert_eq!(st.free_edges, n * (n - 1) / 2);
        prop_assert!(st.connected);
    }

    #[test]
    fn potential_adversary_invariants_hold_on_random_instances(
        n in 6usize..20,
        seed in 0u64..500,
    ) {
        let k = n / 2;
        let mut rng = StdRng::seed_from_u64(seed);
        let assignment = bernoulli_assignment(n, k, 0.25, &mut rng);
        let adversary = PotentialAdversary::new(&assignment, 0.25, seed + 1);
        let mut sim = BroadcastSim::new(
            "phased-flooding",
            PhasedFlooding::nodes(&assignment),
            adversary,
            &assignment,
            SimConfig::with_max_rounds(2 * (n * k) as u64),
        );
        let report = sim.run_to_completion();
        prop_assert!(report.completed, "{}", report);
        // Potential is monotone and increases ≤ 2(components − 1) per round.
        let phis = sim.adversary().potential_history();
        prop_assert!(phis.windows(2).all(|w| w[1] >= w[0]));
        let incs = sim.adversary().potential_increases();
        let comps = sim.adversary().component_history();
        for (inc, &c) in incs.iter().zip(comps.iter()) {
            prop_assert!(*inc <= 2 * (c.saturating_sub(1)) as u64);
        }
        // Final potential is exactly nk (everyone knows everything).
        prop_assert_eq!(*phis.last().unwrap(), (n * k) as u64);
    }

    #[test]
    fn gf2_insert_preserves_span_membership(
        k in 1usize..24,
        vectors in prop::collection::vec(prop::collection::vec(prop::bool::ANY, 1..24), 1..12),
    ) {
        let mut basis = Gf2Basis::new(k);
        let mut inserted: Vec<Gf2Vector> = Vec::new();
        for bits in vectors {
            let mut v = Gf2Vector::zero(k);
            for (i, &b) in bits.iter().take(k).enumerate() {
                v.set(i, b);
            }
            let was_independent = basis.insert(v.clone());
            // Whatever was inserted is in the span afterwards.
            prop_assert!(basis.contains(&v));
            // Rank only grows on independent vectors.
            if !was_independent {
                prop_assert!(inserted.len() >= basis.rank());
            }
            inserted.push(v);
            prop_assert!(basis.rank() <= k);
        }
        // The span contains every pairwise XOR of inserted vectors.
        for i in 0..inserted.len() {
            for j in 0..inserted.len() {
                let mut x = inserted[i].clone();
                x.xor_assign(&inserted[j]);
                prop_assert!(basis.contains(&x));
            }
        }
    }

    #[test]
    fn rlnc_completes_and_ranks_are_monotone(
        n in 4usize..12,
        seed in 0u64..500,
    ) {
        let assignment = dynspread_sim::token::TokenAssignment::n_gossip(n);
        let adv = PeriodicRewiring::new(Topology::RandomTree, 1, seed);
        let mut sim = BroadcastSim::new(
            "rlnc",
            RlncNode::nodes(&assignment, seed + 7),
            adv,
            &assignment,
            SimConfig::with_max_rounds(40 * n as u64),
        );
        let mut last_ranks = vec![0usize; n];
        while !sim.tracker().all_complete() && sim.dynamic_graph().round() < 40 * n as u64 {
            sim.step();
            for v in NodeId::all(n) {
                let r = sim.node(v).rank();
                prop_assert!(r >= last_ranks[v.index()], "rank decreased at {v}");
                last_ranks[v.index()] = r;
            }
        }
        prop_assert!(sim.tracker().all_complete(), "RLNC did not complete");
        prop_assert!(last_ranks.iter().all(|&r| r == n));
    }

    #[test]
    fn election_always_selects_the_max_id(
        n in 2usize..20,
        seed in 0u64..500,
        eager in prop::bool::ANY,
        period in 1u64..5,
    ) {
        let mode = if eager { ElectionMode::Eager } else { ElectionMode::OnChange };
        let adv = PeriodicRewiring::new(Topology::RandomTree, period, seed);
        let (report, converged) = run_election(n, mode, adv, 50_000 + 100 * n as u64);
        prop_assert!(converged, "{:?} failed: {}", mode, report);
        // Eager converges within n − 1 rounds on any connected dynamics.
        if eager {
            prop_assert!(report.rounds <= n as u64);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    /// Both `(source, peer)` ledgers — the dense, peer-major
    /// [`CompletenessLedger`] of the round-based nodes and the sparse
    /// [`PeerLedger`] of the asynchronous multi-source port — against one
    /// naive model: two sets of `(source, peer)` pairs, `R_v(·)` and
    /// `S_v(·)`, and the mask queries written out as loops over them. The
    /// source counts cover every lane shape: one bit, sub-word powers of
    /// two and the counts they round up from, a full word, and two- and
    /// three-word lanes; `n` up to 300 puts many lanes in one word and
    /// lanes across word boundaries.
    #[test]
    fn both_ledgers_match_a_set_of_source_peer_pairs(
        which in 0usize..10,
        n in 1usize..=300,
        seed in 0u64..1_000_000,
    ) {
        let s = [1, 2, 3, 4, 5, 16, 33, 64, 65, 130][which];
        let mut rng = StdRng::seed_from_u64(seed);
        let mut dense = CompletenessLedger::new(n, s);
        let mut sparse = PeerLedger::new(s);
        let mut complete: BTreeSet<(usize, NodeId)> = BTreeSet::new();
        let mut informed: BTreeSet<(usize, NodeId)> = BTreeSet::new();
        // Most draws hit a few peers, so that lanes fill up.
        let hot = rng.gen_range(1..=n.min(6) as u32);
        for _ in 0..40 {
            let idx = rng.gen_range(0..s);
            let u = NodeId::new(match rng.gen_bool(0.8) {
                true => rng.gen_range(0..hot),
                false => rng.gen_range(0..n as u32),
            });
            match rng.gen_range(0..24u32) {
                0 => {
                    dense.reset();
                    sparse.reset();
                    complete.clear();
                    informed.clear();
                }
                // A peer saturates: the only way `worth_probing` turns
                // false or `lowest_owed` runs dry at s = 130.
                1 => for x in 0..s {
                    let news = complete.insert((x, u));
                    prop_assert_eq!(dense.note_peer_complete(x, u), news);
                    prop_assert_eq!(sparse.note_peer_complete(x, u), news);
                },
                2 => for x in 0..s {
                    let news = informed.insert((x, u));
                    prop_assert_eq!(dense.mark_informed(x, u), news);
                    prop_assert_eq!(sparse.mark_informed(x, u), news);
                },
                3..=12 => {
                    let news = complete.insert((idx, u));
                    prop_assert_eq!(dense.note_peer_complete(idx, u), news);
                    prop_assert_eq!(sparse.note_peer_complete(idx, u), news);
                }
                _ => {
                    let news = informed.insert((idx, u));
                    prop_assert_eq!(dense.mark_informed(idx, u), news);
                    prop_assert_eq!(sparse.mark_informed(idx, u), news);
                }
            }
            prop_assert_eq!(dense.informed_count(), informed.len());
            for x in 0..s {
                let heard = complete.iter().any(|&(y, _)| y == x);
                prop_assert_eq!(dense.any_peer_complete(x), heard);
                prop_assert_eq!(sparse.any_peer_complete(x), heard);
                for v in NodeId::all(n) {
                    let needs = !informed.contains(&(x, v));
                    let known = complete.contains(&(x, v));
                    prop_assert_eq!(dense.needs_inform(x, v), needs, "s={} {} {}", s, x, v);
                    prop_assert_eq!(sparse.needs_inform(x, v), needs);
                    prop_assert_eq!(dense.peer_complete(x, v), known, "s={} {} {}", s, x, v);
                    prop_assert_eq!(sparse.peer_complete(x, v), known);
                }
            }
            // A random own complete-for mask: sparse, even or nearly full.
            let density = [0.05, 0.5, 0.97][rng.gen_range(0..3usize)];
            let complete_wrt: Vec<bool> = (0..s).map(|_| rng.gen_bool(density)).collect();
            let mut mine = vec![0u64; s.div_ceil(64)];
            for x in (0..s).filter(|&x| complete_wrt[x]) {
                mine[x / 64] |= 1 << (x % 64);
            }
            for v in NodeId::all(n) {
                // Task 1's announcement, the async heartbeat's probe test.
                let owed = (0..s).find(|&x| complete_wrt[x] && !informed.contains(&(x, v)));
                let probe = (0..s).any(|x| !complete_wrt[x] && !complete.contains(&(x, v)));
                prop_assert_eq!(dense.lowest_owed(&mine, v), owed, "s={} {}", s, v);
                prop_assert_eq!(sparse.lowest_owed(&mine, v), owed);
                prop_assert_eq!(sparse.worth_probing(&mine, v), probe);
            }
            // Task 3's request focus.
            let active = (0..s).find(|&x| !complete_wrt[x] && complete.iter().any(|&(y, _)| y == x));
            prop_assert_eq!(dense.active_source(&mine), active);
            prop_assert_eq!(sparse.active_source(&mine), active);
        }
    }
}
