//! # dynspread-core — the paper's algorithms and adversaries
//!
//! Token-forwarding information-spreading algorithms from *The
//! Communication Cost of Information Spreading in Dynamic Networks*
//! (Ahmadi, Kuhn, Kutten, Molla, Pandurangan; ICDCS 2019), plus the
//! baselines they are compared against and the Section 2 lower-bound
//! adversary:
//!
//! * [`flooding`] — naive local-broadcast flooding, the `O(n²)`-amortized
//!   upper bound of Section 1/2.
//! * [`single_source`] — the Single-Source-Unicast algorithm
//!   (Algorithm 1, Section 3.1): 1-adversary-competitive `O(n² + nk)`
//!   messages (Theorem 3.1), `O(nk)` rounds under 3-edge stability
//!   (Theorem 3.4).
//! * [`multi_source`] — the Multi-Source-Unicast algorithm
//!   (Section 3.2.1): 1-adversary-competitive `O(n²s + nk)` messages
//!   (Theorem 3.5).
//! * [`oblivious`] — the Oblivious-Multi-Source-Unicast algorithm
//!   (Algorithm 2, Section 3.2.2): random-walk center election, then
//!   Multi-Source; `O(n^{5/2} k^{1/4} log^{5/4} n)` messages against an
//!   oblivious adversary (Theorem 3.8).
//! * [`baselines`] — naive unicast flooding and the static spanning-tree
//!   pipeline.
//! * [`lower_bound`] — the Section 2 machinery: `K'_v` sets, free edges,
//!   the potential `Φ`, and the strongly adaptive [`lower_bound::PotentialAdversary`]
//!   behind the `Ω(n²/log²n)` amortized lower bound (Theorem 2.3).
//! * [`adaptive`] — additional adaptive unicast adversaries (request
//!   cutting) used by the ablation experiments.
//! * [`random_walk`] — lazy random walks on dynamic graphs and the
//!   visit-count experiment for Lemma 3.7.
//! * [`dissemination`] — the transport-agnostic decision core
//!   ([`dissemination::DisseminationCore`],
//!   [`dissemination::CompletenessLedger`]) shared by the round-based
//!   nodes here and the asynchronous `EventProtocol` ports in
//!   `dynspread-runtime`, and the round model's request side around it
//!   ([`dissemination::Requests`]), written once for both unicast nodes.
//! * [`walk`] — the transport-agnostic random-walk phase core
//!   ([`walk::WalkCore`], [`walk::elect_centers`]) shared by the
//!   round-based [`oblivious::WalkNode`] and the asynchronous
//!   `AsyncOblivious` port in `dynspread-runtime`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod baselines;
pub mod dissemination;
pub mod edge_history;
pub mod flooding;
pub mod gf2;
pub mod leader_election;
pub mod lower_bound;
pub mod multi_source;
pub mod network_coding;
pub mod oblivious;
pub mod random_walk;
pub mod single_source;
pub mod walk;

pub use adaptive::{RequestCuttingAdversary, StableRequestCutter};
pub use baselines::{TreeBroadcastStatic, UnicastFlooding};
pub use dissemination::{CompletenessLedger, DisseminationCore, PeerLedger};
pub use edge_history::EdgeCategory;
pub use flooding::{BcastMsg, FloodingBroadcast, PhasedFlooding, RoundRobinBroadcast};
pub use leader_election::{ElectionMode, ElectionNode};
pub use lower_bound::{LaggedPotentialAdversary, PotentialAdversary};
pub use multi_source::{MsMsg, MultiSourceNode, SourceMap};
pub use network_coding::RlncNode;
pub use oblivious::{run_oblivious_multi_source, ObliviousConfig, ObliviousOutcome, WalkNode};
pub use single_source::{RequestPolicy, SingleSourceNode, SsMsg};
pub use walk::{elect_centers, WalkCore};
