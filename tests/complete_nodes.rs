//! What a complete round-model unicast node still does, pinned and
//! premised.
//!
//! Once a node holds every token, Algorithm 1 (and its multi-source
//! extension) only announces to neighbours not yet in `R_v` and answers
//! last round's requests: no later decision reads the node's edge history
//! or its `S_v`, so `SingleSourceNode` and `MultiSourceNode` stop keeping
//! either at completion.
//!
//! * **Byte pins.** The benchmark's round-model cells at test scale —
//!   `SingleSourceNode` and `MultiSourceNode` on a random tree rewired
//!   every three rounds, and `SingleSourceNode` under the synchronizer
//!   over a lossy, jittery link — pinned by byte length and FNV-1a hash
//!   of the `RunReport`'s and the learning log's `Debug` text. A change
//!   to what a node does before or after completion moves them.
//! * **Premise.** Two copies of one complete node, driven through the
//!   same rounds, one of them told by every neighbour every round that
//!   the neighbour is complete: both queue the same messages and ask to
//!   park alike, over a skipped round and a removed-then-reinserted edge.

use dynspread::core::multi_source::{MsMsg, MultiSourceNode};
use dynspread::core::single_source::{SingleSourceNode, SsMsg};
use dynspread::graph::generators::Topology;
use dynspread::graph::oblivious::PeriodicRewiring;
use dynspread::graph::{NodeId, Round};
use dynspread::runtime::byzantine::transcript::fnv1a;
use dynspread::runtime::link::{LinkModelExt, PerfectLink};
use dynspread::runtime::sync::UnicastSynchronizer;
use dynspread::sim::protocol::{Outbox, UnicastProtocol};
use dynspread::sim::tracker::TokenTracker;
use dynspread::sim::{RunReport, SimConfig, TokenAssignment, TokenId, UnicastSim};

/// Byte length and FNV-1a hash of a `Debug` text.
fn digest(text: &str) -> (usize, u64) {
    (text.len(), fnv1a(text.as_bytes()))
}

/// One pinned run: its name, then the digests of the report's and the
/// learning log's `Debug` text.
type Pin = (&'static str, (usize, u64), (usize, u64));

fn pin(name: &'static str, report: RunReport, tracker: &TokenTracker) -> Pin {
    let (report, log) = (format!("{report:?}"), format!("{:?}", tracker.log()));
    assert!(report.contains("completed: true"), "{name}: {report}");
    (name, digest(&report), digest(&log))
}

/// Thirty times the longest pinned run (648 rounds), so that a run that
/// stalls fails in a second rather than a minute.
const MAX_ROUNDS: u64 = 20_000;

fn rewiring(seed: u64) -> PeriodicRewiring {
    PeriodicRewiring::new(Topology::RandomTree, 3, seed)
}

/// `SingleSourceNode`, `n = 512`, `k = 4`, source 0.
fn single_source(seed: u64) -> (RunReport, TokenTracker) {
    let assignment = TokenAssignment::single_source(512, 4, NodeId::new(0));
    let mut sim = UnicastSim::new(
        "single-source-unicast",
        SingleSourceNode::nodes(&assignment),
        rewiring(seed),
        &assignment,
        SimConfig::with_max_rounds(MAX_ROUNDS),
    );
    (sim.run_to_completion(), sim.tracker().clone())
}

/// `MultiSourceNode`, `n = 512`, `k = 4` over `s = 4` round-robin sources.
fn multi_source(seed: u64) -> (RunReport, TokenTracker) {
    let assignment = TokenAssignment::round_robin_sources(512, 4, 4);
    let (nodes, _map) = MultiSourceNode::nodes(&assignment);
    let mut sim = UnicastSim::new(
        "multi-source-unicast",
        nodes,
        rewiring(seed),
        &assignment,
        SimConfig::with_max_rounds(MAX_ROUNDS),
    );
    (sim.run_to_completion(), sim.tracker().clone())
}

/// `SingleSourceNode` under `UnicastSynchronizer`, `n = 256`, `k = 4`,
/// over `PerfectLink.lossy(0.1).with_jitter(1)`.
fn synchronized() -> (RunReport, TokenTracker) {
    let assignment = TokenAssignment::single_source(256, 4, NodeId::new(0));
    let mut sim = UnicastSynchronizer::new(
        "single-source-unicast",
        SingleSourceNode::nodes(&assignment),
        rewiring(1),
        &assignment,
        SimConfig::with_max_rounds(MAX_ROUNDS),
        PerfectLink.lossy(0.1).with_jitter(1),
        2,
    );
    (sim.run_to_completion(), sim.tracker().clone())
}

/// Captured before complete nodes stopped refreshing their edge history
/// and recording `S_v`: neither may move them.
const PINS: [Pin; 7] = [
    (
        "single-source seed 1",
        (562, 0x78a1_daae_7c4a_4cfa),
        (97_611, 0x1d5b_4a18_a1a0_086c),
    ),
    (
        "single-source seed 2",
        (562, 0xcb66_12d6_c67f_3a02),
        (97_591, 0x94c5_8de7_5ee6_89ec),
    ),
    (
        "single-source seed 3",
        (562, 0xa5bb_5616_43fa_c9a9),
        (97_524, 0xad0c_a2da_4475_dc03),
    ),
    (
        "multi-source seed 1",
        (566, 0x25f8_10ff_ad54_e1d1),
        (95_810, 0x9eca_66c6_9c38_666a),
    ),
    (
        "multi-source seed 2",
        (566, 0x0321_d4b1_2e33_39ca),
        (95_940, 0xcddb_cdd3_9422_120f),
    ),
    (
        "multi-source seed 3",
        (566, 0xbfae_26b7_1906_0450),
        (96_038, 0xa39a_fb2a_e3e3_bbbf),
    ),
    (
        "synchronizer lossy",
        (566, 0x0e1b_8824_3860_a459),
        (48_506, 0x79dc_9210_d16c_b96c),
    ),
];

#[test]
fn round_model_runs_are_pinned_byte_for_byte() {
    let runs = (1..=3)
        .map(single_source)
        .chain((1..=3).map(multi_source))
        .chain([synchronized()]);
    let got: Vec<Pin> = PINS
        .iter()
        .zip(runs)
        .map(|(&(name, ..), (report, tracker))| pin(name, report, &tracker))
        .collect();
    assert_eq!(got, PINS, "a round-model run moved");
}

/// The round the premise drive skips: no `send`, no `end_round`.
const SKIPPED: Round = 12;

/// The premise drive's network size and the node under test.
const N: u32 = 8;
const ME: u32 = 4;

/// The neighbours node [`ME`] is shown in `round` of the premise drive:
/// node 3's edge is removed in round 7 and reinserted in round 10, node
/// 6's comes and goes every round, nodes 5 and 7 join, node 0 leaves.
/// Rounds 1–2 are the warm-up in which the node completes.
fn neighbors(round: Round) -> Vec<NodeId> {
    let present = [
        round <= 14,
        true,
        false,
        !(7..=9).contains(&round),
        false,
        round >= 6,
        round.is_multiple_of(2),
        round >= 18,
    ];
    (0..N)
        .filter(|&u| present[u as usize])
        .map(NodeId::new)
        .collect()
}

/// Two rounds in which an incomplete `node` hears `hello` from node 0,
/// requests, and is then handed all `k` tokens, so it completes with an
/// edge history and `S_v` bits of its own.
fn warm_up<P: UnicastProtocol>(node: &mut P, hello: P::Msg, token: fn(TokenId) -> P::Msg, k: u32) {
    let mut out = Outbox::new();
    node.send(1, &neighbors(1), &mut out);
    node.receive(1, NodeId::new(0), &hello);
    node.end_round(1);
    node.send(2, &neighbors(2), &mut out);
    assert!(!out.is_empty(), "the warm-up sent no request");
    for t in 0..k {
        node.receive(2, NodeId::new(0), &token(TokenId::new(t)));
    }
    node.end_round(2);
}

/// Drives complete `node` and a clone of it through 20 rounds (3 to 23,
/// [`SKIPPED`] left out). Both are asked for one token by one neighbour
/// each round; only the first also hears `chatter(u)` from every other
/// node `u`, adjacent or not (a jittery link delivers copies after their
/// edge died, so a node can hear from a peer before it next meets it).
/// Asserts that both queue the same messages and ask to park alike every
/// round, and returns what they sent.
fn side_by_side<P>(
    node: P,
    request: fn(TokenId) -> P::Msg,
    chatter: impl Fn(NodeId) -> Vec<P::Msg>,
    k: u32,
) -> Vec<P::Msg>
where
    P: UnicastProtocol + Clone,
    P::Msg: PartialEq + std::fmt::Debug,
{
    let (mut told, mut untold) = (node.clone(), node);
    let mut sent = Vec::new();
    for round in (3..=23).filter(|&r| r != SKIPPED) {
        let nbrs = neighbors(round);
        let [a, b] = [&mut told, &mut untold].map(|node| {
            let mut out = Outbox::new();
            node.send(round, &nbrs, &mut out);
            let parked = out.take_parked();
            (out.into_messages(), parked)
        });
        assert_eq!(a, b, "round {round}: the told copy acted differently");
        sent.extend(a.0.into_iter().map(|(_, m)| m));
        let asker = nbrs[round as usize % nbrs.len()];
        let ask = request(TokenId::new(round as u32 % k));
        told.receive(round, asker, &ask);
        untold.receive(round, asker, &ask);
        for u in (0..N).filter(|&u| u != ME).map(NodeId::new) {
            for m in chatter(u) {
                told.receive(round, u, &m);
            }
        }
        told.end_round(round);
        untold.end_round(round);
    }
    sent
}

#[test]
fn a_complete_single_source_node_ignores_announcements_and_edge_history() {
    let k = 3;
    let assignment = TokenAssignment::single_source(N as usize, k as usize, NodeId::new(0));
    let mut node = SingleSourceNode::from_assignment(NodeId::new(ME), &assignment);
    warm_up(&mut node, SsMsg::Completeness, SsMsg::Token, k);
    assert!(node.is_complete());
    // Stray tokens make the told copy's edges contributive as well.
    let chatter = |u: NodeId| {
        vec![
            SsMsg::Completeness,
            SsMsg::Token(TokenId::new(u.value() % k)),
        ]
    };
    let sent = side_by_side(node, SsMsg::Request, chatter, k);
    assert!(sent.contains(&SsMsg::Completeness), "{sent:?}");
    assert!(
        sent.iter().any(|m| matches!(m, SsMsg::Token(_))),
        "{sent:?}"
    );
}

#[test]
fn a_complete_multi_source_node_ignores_announcements_and_edge_history() {
    let k = 6;
    let assignment = TokenAssignment::round_robin_sources(N as usize, k as usize, 3);
    let (mut nodes, _map) = MultiSourceNode::nodes(&assignment);
    let mut node = nodes.swap_remove(ME as usize);
    warm_up(
        &mut node,
        MsMsg::Completeness(NodeId::new(0)),
        MsMsg::Token,
        k,
    );
    assert!(node.is_complete());
    let chatter = |u: NodeId| {
        let mut msgs: Vec<MsMsg> = (0..3)
            .map(|x| MsMsg::Completeness(NodeId::new(x)))
            .collect();
        msgs.push(MsMsg::Token(TokenId::new(u.value() % k)));
        msgs
    };
    let sent = side_by_side(node, MsMsg::Request, chatter, k);
    for x in 0..3 {
        assert!(
            sent.contains(&MsMsg::Completeness(NodeId::new(x))),
            "{sent:?}"
        );
    }
    assert!(
        sent.iter().any(|m| matches!(m, MsMsg::Token(_))),
        "{sent:?}"
    );
}
