//! # dynspread-runtime — deterministic event-driven execution
//!
//! The paper's model is **synchronous**: execution proceeds in lockstep
//! rounds, every message sent in round `r` arrives in round `r`, and no
//! message is ever lost. That is exactly what `dynspread_sim`'s engines
//! implement, and it is the right substrate for reproducing the paper's
//! theorems — but real networks drop, delay, duplicate, and reorder
//! messages. This crate supplies the missing execution model as a
//! **deterministic discrete-event runtime**:
//!
//! * a virtual clock and a seeded [`event::EventQueue`] — a calendar
//!   queue ordered by `(time, scheduling order)`, so ties break
//!   deterministically and executions are replay-identical from a seed
//!   (a copy is handed to its receiver as it is popped: by the event that
//!   delivers it in the event engine, by the delivery phase of its arrival
//!   round in the synchronizers);
//! * composable [`link::LinkModel`]s (fixed/seeded-random latency, drop
//!   probability, duplication; reordering falls out of jitter), all drawing
//!   from one seeded RNG stream.
//!
//! Two execution surfaces sit on top:
//!
//! * **The synchronizer** ([`sync::Synchronizer`], named
//!   [`sync::UnicastSynchronizer`] / [`sync::BroadcastSynchronizer`] in
//!   its two modes) runs the *existing* round-based
//!   [`UnicastProtocol`](dynspread_sim::protocol::UnicastProtocol) /
//!   [`BroadcastProtocol`](dynspread_sim::protocol::BroadcastProtocol)
//!   implementations unchanged, mapping one tick to one round. It is
//!   `dynspread_sim`'s round engine itself, built with
//!   [`sync::LinkTransport`] — a link model and the event queue — in
//!   place of the synchronous `Direct` transport. Under
//!   [`link::PerfectLink`] they make the synchronous engines' `receive`
//!   calls in the same order, so
//!   [`RunReport`](dynspread_sim::RunReport)s, learning logs and delivery
//!   traces match **byte-for-byte**; under lossy/latent links they answer questions the paper's model cannot
//!   pose, e.g. how Algorithm 1's request/response handshake degrades when
//!   responses can vanish.
//! * **The event engine** ([`engine::EventSim`]) drops the round barrier
//!   entirely: [`engine::EventProtocol`] nodes react to message deliveries
//!   and self-armed timers on the virtual clock, while the adversarial
//!   topology keeps evolving underneath every `ticks_per_round` ticks.
//!   This is the asynchronous counterpart of the paper's model — rounds
//!   become an emergent property of latency, not a primitive.
//! * **Asynchronous protocol ports** ([`protocol::AsyncSingleSource`],
//!   [`protocol::AsyncMultiSource`]) run the paper's dissemination
//!   algorithms *natively* on the event engine: the same transport-agnostic
//!   decision core as the round-based nodes, plus explicit per-neighbor
//!   retransmission, ack/dedup state, and adaptive backoff — so they reach
//!   full dissemination over lossy/jittery links where the round protocols
//!   would deadlock, and agree with the synchronous references wherever the
//!   models coincide (see `tests/async_conformance.rs` and
//!   `crates/runtime/README.md` for the conformance contract).
//! * **Crash faults & partitions** ([`faults`]): a seeded pure-data
//!   [`faults::FaultPlan`] schedules crash-stop and crash-recovery
//!   outages (amnesia or durable-snapshot semantics) plus partition/heal
//!   episodes; the engine silences down nodes, replays nothing stale, and
//!   drives the ports' [`engine::EventProtocol::on_recover`] /
//!   [`engine::EventProtocol::on_heal`] self-healing hooks, while
//!   [`faults::PartitionLink`] drops cross-cut copies without consuming
//!   randomness — so a fault-free plan is byte-identical to no plan at
//!   all.
//! * **Byzantine injection + accountability** ([`byzantine`]): a seeded
//!   [`byzantine::MisbehaviorPlan`] wraps any async port in
//!   [`byzantine::Misbehaving`] nodes that equivocate, forge transfers,
//!   drop acks, or mutate tokens; the engine records chain-hashed
//!   per-node transcripts, and the pure [`byzantine::check_evidence`]
//!   auditor pins every violation to its culprit with a minimal proof —
//!   sound (honest nodes are never indicted) and byte-identical under
//!   seeded replay.
//! * **The `Scenario` front door + multi-session service layer**
//!   ([`scenario`], [`session`]): a builder-style [`scenario::Scenario`]
//!   is the single entry point composing every axis above — faults,
//!   Byzantine plans, and tracing in one run. The session layer
//!   multiplexes many overlapping dissemination sessions (distinct token
//!   universes, sources, arrival times) over one long-lived engine via a
//!   typed [`session::WireEnvelope`], reporting per-session completion
//!   latency on the shared virtual clock.
//! * **A run as a value** ([`spec`]): [`spec::ScenarioSpec`] types
//!   everything `spread`'s flags describe — algorithm, adversary, sizes,
//!   seed, faults, Byzantine plan, sessions — parsed by the one module that
//!   knows the grammar, checked by one function, built into the values
//!   above, and run by one driver, [`spec::ScenarioSpec::run`].
//!
//! # How the event model relates to the paper's rounds
//!
//! A synchronous round bundles three things: a topology commit, a send
//! phase, and an atomic delivery phase. The runtime unbundles them. The
//! topology commit becomes an *epoch* on the virtual clock (the adversary
//! interfaces are reused unchanged); sends become events planned through a
//! link model; delivery becomes arrival at a scheduled tick. The
//! synchronous model is recovered exactly as the special case
//! `latency = 0, loss = 0, duplication = 0` with all nodes activating at
//! every tick — which is what the synchronizers run over a perfect link,
//! and why those runs are bit-identical to `UnicastSim`/`BroadcastSim` on
//! the `Direct` transport.
//!
//! # Example
//!
//! Algorithm 1 on a 30%-lossy channel with up to 2 ticks of jitter:
//!
//! ```
//! use dynspread_core::single_source::SingleSourceNode;
//! use dynspread_graph::{generators::Topology, oblivious::PeriodicRewiring, NodeId};
//! use dynspread_runtime::link::{LinkModelExt, PerfectLink};
//! use dynspread_runtime::sync::UnicastSynchronizer;
//! use dynspread_sim::{SimConfig, TokenAssignment};
//!
//! let (n, k) = (8, 4);
//! let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
//! let mut sim = UnicastSynchronizer::new(
//!     "single-source-unicast",
//!     SingleSourceNode::nodes(&assignment),
//!     PeriodicRewiring::new(Topology::RandomTree, 3, 7),
//!     &assignment,
//!     SimConfig::with_max_rounds(500_000),
//!     PerfectLink.lossy(0.3).with_jitter(2),
//!     42,
//! );
//! let report = sim.run_to_completion();
//! assert!(report.completed, "{report}");
//! let (tx, scheduled, delivered) = sim.link_stats();
//! assert!(scheduled < tx, "a 30%-lossy link must drop something");
//! assert!(delivered <= scheduled);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod byzantine;
pub mod engine;
pub mod event;
pub mod faults;
pub mod link;
pub mod protocol;
pub mod scenario;
pub mod session;
pub mod spec;
pub mod sync;
pub mod trace;

pub use byzantine::{check_evidence, Evidence, Misbehaving, MisbehaviorKind, MisbehaviorPlan};
pub use engine::{EventCtx, EventProtocol, EventReport, EventSim, StopReason};
pub use event::{EventQueue, VirtualTime};
pub use faults::{FaultPlan, PartitionLink, RecoveryMode};
pub use link::{DropLink, LinkModel, LinkModelExt, PerfectLink};
pub use protocol::{AsyncConfig, AsyncMultiSource, AsyncSingleSource};
pub use scenario::{Scenario, ScenarioObliviousOutcome, ScenarioOutcome, ServiceOutcome};
pub use session::{
    SessionBoard, SessionId, SessionMux, SessionSpec, SessionWorkload, WireEnvelope,
};
pub use sync::{BroadcastSynchronizer, Synchronizer, UnicastSynchronizer};
pub use trace::{JsonlTracer, NoopTracer, TraceRecord, Tracer};
