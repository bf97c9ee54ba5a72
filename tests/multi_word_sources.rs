//! `MultiSourceNode` with more than 64 sources, pinned byte for byte.
//!
//! A node's completeness ledger keeps each peer's `R_v(·)` and `S_v(·)`
//! bits in one lane per peer; above 64 sources a lane spans several words.
//! The experiment binaries stop at `s ≤ 48`, so these rows are the only
//! committed runs whose lanes are multi-word. The expected texts are the
//! `Debug` of the `RunReport` that the per-source ledgers printed before
//! the lanes were packed: a change to the ledger layout must not move them.

use dynspread::core::multi_source::MultiSourceNode;
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::sim::{SimConfig, TokenAssignment, UnicastSim};

/// `n = k = 100` tokens spread round-robin over `s` sources, on a random
/// tree rewired every three rounds.
fn report(s: usize) -> String {
    let assignment = TokenAssignment::round_robin_sources(100, 100, s);
    let (nodes, _map) = MultiSourceNode::nodes(&assignment);
    let mut sim = UnicastSim::new(
        "multi-source-unicast",
        nodes,
        PeriodicRewiring::new(Topology::RandomTree, 3, 5),
        &assignment,
        SimConfig::with_max_rounds(400_000),
    );
    format!("{:?}", sim.run_to_completion())
}

#[test]
fn sixty_five_sources_span_two_words() {
    assert_eq!(
        report(65),
        "RunReport { algorithm: \"multi-source-unicast\", adversary: \"rewire(RandomTree, ρ=3)\", \
         n: 100, k: 100, rounds: 2961, completed: true, total_messages: 549706, \
         unicast_messages: 549706, broadcast_messages: 0, by_class: [9900, 523821, 15985, 0, 0, 0], \
         topology: TopologyMeter { insertions: 95787, deletions: 95688 }, learnings: 9900, \
         unroutable: 0, byzantine_nodes: 0, violations_detected: 0, evidence_verdicts: 0, \
         meter_sampling: 1, link_sends: 549706, link_drops: 0, link_duplicates: 0, \
         retransmissions: 0, crashes: 0, recoveries: 0, partition_episodes: 0, profile: None }"
    );
}

#[test]
fn a_hundred_sources_span_two_words() {
    assert_eq!(
        report(100),
        "RunReport { algorithm: \"multi-source-unicast\", adversary: \"rewire(RandomTree, ρ=3)\", \
         n: 100, k: 100, rounds: 4529, completed: true, total_messages: 876316, \
         unicast_messages: 876316, broadcast_messages: 0, by_class: [9900, 850524, 15892, 0, 0, 0], \
         topology: TopologyMeter { insertions: 146563, deletions: 146464 }, learnings: 9900, \
         unroutable: 0, byzantine_nodes: 0, violations_detected: 0, evidence_verdicts: 0, \
         meter_sampling: 1, link_sends: 876316, link_drops: 0, link_duplicates: 0, \
         retransmissions: 0, crashes: 0, recoveries: 0, partition_episodes: 0, profile: None }"
    );
}
