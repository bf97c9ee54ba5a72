//! Property-based tests of tokens, meters, and trackers.

use dynspread_graph::NodeId;
use dynspread_sim::message::MessageClass;
use dynspread_sim::meter::MessageMeter;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use dynspread_sim::tracker::TokenTracker;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn token_set_insert_remove_roundtrip(
        k in 1usize..300,
        ops in prop::collection::vec((0u32..300, prop::bool::ANY), 0..200),
    ) {
        let mut set = TokenSet::new(k);
        let mut model = std::collections::BTreeSet::new();
        for (t, insert) in ops {
            let t = t % k as u32;
            let tok = TokenId::new(t);
            if insert {
                prop_assert_eq!(set.insert(tok), model.insert(t));
            } else {
                prop_assert_eq!(set.remove(tok), model.remove(&t));
            }
        }
        prop_assert_eq!(set.count(), model.len());
        let as_vec: Vec<u32> = set.iter().map(|t| t.value()).collect();
        let model_vec: Vec<u32> = model.iter().copied().collect();
        prop_assert_eq!(as_vec, model_vec);
        prop_assert_eq!(set.is_full(), model.len() == k);
    }

    #[test]
    fn missing_is_complement(
        k in 1usize..200,
        members in prop::collection::btree_set(0u32..200, 0..100),
    ) {
        let mut set = TokenSet::new(k);
        for &t in &members {
            if (t as usize) < k {
                set.insert(TokenId::new(t));
            }
        }
        let present: std::collections::BTreeSet<usize> =
            set.iter().map(|t| t.index()).collect();
        let missing: std::collections::BTreeSet<usize> =
            set.missing().map(|t| t.index()).collect();
        prop_assert!(present.is_disjoint(&missing));
        prop_assert_eq!(present.len() + missing.len(), k);
    }

    #[test]
    fn word_walks_match_a_per_bit_scan(
        k in prop_oneof![Just(0usize), Just(1), Just(63), Just(64), Just(65), 0usize..300],
        members in prop::collection::btree_set(0u32..300, 0..200),
    ) {
        let mut set = TokenSet::new(k);
        for &t in &members {
            if (t as usize) < k {
                set.insert(TokenId::new(t));
            }
        }
        let scan = |present: bool| -> Vec<TokenId> {
            TokenId::all(k).filter(|&t| set.contains(t) == present).collect()
        };
        prop_assert_eq!(set.iter().collect::<Vec<_>>(), scan(true));
        prop_assert_eq!(set.missing().collect::<Vec<_>>(), scan(false));
        let full = TokenSet::full(k);
        prop_assert!(full.is_full());
        prop_assert_eq!(full.iter().collect::<Vec<_>>(), TokenId::all(k).collect::<Vec<_>>());
        prop_assert_eq!(full.missing().count(), 0);
        // `full` leaves no stray bits past the universe: it equals the
        // set built token by token.
        let mut built = TokenSet::new(k);
        for t in TokenId::all(k) {
            built.insert(t);
        }
        prop_assert_eq!(full, built);
    }

    #[test]
    fn union_count_is_commutative_and_bounded(
        k in 1usize..200,
        a in prop::collection::btree_set(0u32..200, 0..80),
        b in prop::collection::btree_set(0u32..200, 0..80),
    ) {
        let build = |members: &std::collections::BTreeSet<u32>| {
            let mut s = TokenSet::new(k);
            for &t in members {
                if (t as usize) < k {
                    s.insert(TokenId::new(t));
                }
            }
            s
        };
        let sa = build(&a);
        let sb = build(&b);
        let ab = sa.union_count(&sb);
        prop_assert_eq!(ab, sb.union_count(&sa));
        prop_assert!(ab >= sa.count().max(sb.count()));
        prop_assert!(ab <= sa.count() + sb.count());
        // union_with agrees with union_count.
        let mut sc = sa.clone();
        sc.union_with(&sb);
        prop_assert_eq!(sc.count(), ab);
    }

    #[test]
    fn meter_totals_equal_sum_of_classes(
        rounds in prop::collection::vec((0u32..20, 0u32..20), 1..30),
    ) {
        let mut meter = MessageMeter::new();
        let mut expect_uni = 0u64;
        let mut expect_bc = 0u64;
        for (r, &(uni, bc)) in rounds.iter().enumerate() {
            meter.begin_round(r as u64 + 1);
            for _ in 0..uni {
                meter.record_unicast(MessageClass::Token);
                expect_uni += 1;
            }
            for _ in 0..bc {
                meter.record_broadcast(MessageClass::Request);
                expect_bc += 1;
            }
        }
        prop_assert_eq!(meter.unicast_total(), expect_uni);
        prop_assert_eq!(meter.broadcast_total(), expect_bc);
        prop_assert_eq!(meter.total(), expect_uni + expect_bc);
        let class_total: u64 = MessageClass::ALL.iter().map(|&c| meter.by_class(c)).sum();
        prop_assert_eq!(class_total, meter.total());
    }

    #[test]
    fn tracker_learning_count_is_exact(
        n in 2usize..12,
        k in 1usize..12,
        learn_order in prop::collection::vec((0u32..12, 0u32..12), 0..60),
    ) {
        let assignment = TokenAssignment::round_robin_sources(n, k, n.min(k));
        let mut tracker = TokenTracker::new(&assignment);
        let mut knowledge: Vec<TokenSet> = (0..n)
            .map(|v| assignment.initial_knowledge(NodeId::new(v as u32)))
            .collect();
        let mut expected_learnings = 0u64;
        for (round, (v, t)) in learn_order.iter().enumerate() {
            let v = (*v as usize) % n;
            let t = TokenId::new(t % k as u32);
            if knowledge[v].insert(t) {
                expected_learnings += 1;
            }
            tracker.sync_node(NodeId::new(v as u32), &knowledge[v], round as u64 + 1);
        }
        prop_assert_eq!(tracker.total_learnings(), expected_learnings);
        let per_round_total: u64 = tracker.learnings_per_round().iter().sum();
        prop_assert_eq!(per_round_total, expected_learnings);
        // Completeness agrees with knowledge.
        for (v, know) in knowledge.iter().enumerate() {
            prop_assert_eq!(
                tracker.is_complete(NodeId::new(v as u32)),
                know.is_full()
            );
        }
    }

    #[test]
    fn assignments_are_valid_and_sources_sorted(
        n in 1usize..20,
        k in 1usize..40,
        s in 1usize..20,
    ) {
        let s = s.min(n);
        let a = TokenAssignment::round_robin_sources(n, k, s);
        prop_assert!(a.is_valid());
        let sources = a.sources();
        prop_assert_eq!(sources.len(), s.min(k));
        prop_assert!(sources.windows(2).all(|w| w[0] < w[1]));
        // Every token's initial holders appear in initial_knowledge.
        for t in TokenId::all(k) {
            for v in a.holders(t) {
                prop_assert!(a.initial_knowledge(v).contains(t));
            }
        }
    }
}
