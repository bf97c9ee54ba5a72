//! # dynspread-sim — synchronous network simulator
//!
//! The execution model of *The Communication Cost of Information Spreading
//! in Dynamic Networks* (Ahmadi et al., ICDCS 2019), as an executable
//! substrate:
//!
//! * **Tokens** ([`token`]): the k-token dissemination problem
//!   (Definition 1.2), per-node knowledge bitsets, initial assignments
//!   (single-source, multi-source, n-gossip).
//! * **Messages** ([`message`]): the bandwidth constraint (≤ 1 token +
//!   O(log n) control bits per message) and meter classification.
//! * **Metering** ([`meter`]): message complexity per Definition 1.1 — a
//!   local broadcast counts as one message; unicasts count per neighbor.
//! * **Tracking** ([`tracker`]): token-learning events ⟨v, τ, r⟩
//!   (Definition 1.4) observed globally, never by protocols.
//! * **Protocols** ([`protocol`]): per-node state machines for the unicast
//!   (KT1, rewire-then-send) and local-broadcast (choose-then-rewire)
//!   modes.
//! * **Adaptive adversaries** ([`adversary`]): the strongly adaptive
//!   interfaces; every oblivious `dynspread_graph` adversary lifts into
//!   them.
//! * **The engine** ([`sim`]): one shell, [`sim::RoundSim`], with two
//!   step bodies — its [`sim::RoundMode`]s, named [`UnicastSim`] and
//!   [`BroadcastSim`], the only round loops in the workspace — drives
//!   protocols against adversaries, asserting the model invariants
//!   (connectivity, bandwidth, neighbor-only delivery) every round and
//!   producing [`run::RunReport`]s. It is generic over a
//!   [`sim::Transport`] that carries the round's messages to `receive`:
//!   [`sim::Direct`], the default, is the paper's synchronous lossless
//!   model; `dynspread-runtime`'s one synchronizer is the same engine over
//!   a link transport. The unicast mode calls only its active set
//!   ([`round`]): a node that [parks](protocol::Outbox::park) is skipped
//!   until an adjacent edge changes or a message reaches it.
//! * **Observability** ([`trace`], [`profile`]): the two-channel layer —
//!   a deterministic structured trace (JSONL, a pure function of the
//!   seed) and an opt-in wall-clock self-profiler that charges laps to
//!   named phases. Both are off by default and free when disabled.
//!
//! # Examples
//!
//! A one-token unicast flood on a static path:
//!
//! ```
//! use dynspread_graph::{adversary::FnAdversary, Graph, NodeId, Round};
//! use dynspread_sim::{
//!     message::{MessageClass, MessagePayload},
//!     protocol::{Outbox, UnicastProtocol},
//!     sim::{SimConfig, UnicastSim},
//!     token::{TokenAssignment, TokenId, TokenSet},
//! };
//!
//! #[derive(Clone)]
//! struct Tok(TokenId);
//! impl MessagePayload for Tok {
//!     fn token_count(&self) -> usize { 1 }
//!     fn class(&self) -> MessageClass { MessageClass::Token }
//! }
//!
//! struct Flood { know: TokenSet }
//! impl UnicastProtocol for Flood {
//!     type Msg = Tok;
//!     fn send(&mut self, _r: Round, nbrs: &[NodeId], out: &mut Outbox<Tok>) {
//!         for t in self.know.iter().collect::<Vec<_>>() {
//!             for &w in nbrs { out.send(w, Tok(t)); }
//!         }
//!     }
//!     fn receive(&mut self, _r: Round, _from: NodeId, m: &Tok) {
//!         self.know.insert(m.0);
//!     }
//!     fn known_tokens(&self) -> &TokenSet { &self.know }
//! }
//!
//! let n = 4;
//! let assignment = TokenAssignment::single_source(n, 1, NodeId::new(0));
//! let nodes: Vec<Flood> = NodeId::all(n)
//!     .map(|v| Flood { know: assignment.initial_knowledge(v) })
//!     .collect();
//! let adversary = FnAdversary::new("path", |_, p: &Graph| Graph::path(p.node_count()));
//! let mut sim = UnicastSim::new("flood", nodes, adversary, &assignment, SimConfig::default());
//! let report = sim.run_to_completion();
//! assert!(report.completed);
//! assert_eq!(report.rounds, 3);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod message;
pub mod meter;
pub mod profile;
pub mod protocol;
pub mod round;
pub mod run;
pub mod sim;
pub mod token;
pub mod trace;
pub mod tracker;

pub use dynspread_graph::{Graph, NodeId, Round};
pub use message::{MessageClass, MessagePayload};
pub use meter::MessageMeter;
pub use profile::{Phase, ProfileReport, Profiler};
pub use run::RunReport;
pub use sim::{BroadcastSim, SimConfig, UnicastSim};
pub use token::{TokenAssignment, TokenId, TokenSet};
pub use trace::{JsonlTracer, NoopTracer, TraceRecord, Tracer};
pub use tracker::TokenTracker;
