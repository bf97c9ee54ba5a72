//! Multi-session service layer: many dissemination jobs, one network.
//!
//! Production shape for this reproduction is not one process per run but
//! a persistent dynamic network serving a *stream* of overlapping
//! dissemination sessions — distinct token universes, sources, and
//! arrival times — multiplexed over shared links, one event queue, and
//! fault plans. This module provides that layer:
//!
//! * [`wire`] — the typed serialization boundary: [`SessionId`] stamps,
//!   the [`WireEnvelope`] byte format, and `bincodec` codecs for the
//!   async ports' message types;
//! * [`workload`] — pure-data arrival traces ([`SessionWorkload`],
//!   [`SessionSpec`]): seeded synthesis, plain-text parse/serialize;
//! * [`mux`] — [`SessionMux`], the `EventProtocol` that runs one inner
//!   protocol instance per session behind each node and routes by
//!   session stamp, plus the shared [`SessionBoard`] scoreboard
//!   (per-session completion times, message loads, chain-hash digests).
//!
//! The front door is [`Scenario`](crate::scenario::Scenario): add
//! sessions with `.session(spec)` (or a whole trace) and call
//! `run_sessions()`, which wraps `AsyncSingleSource` instances; the
//! generic `run_sessions_with` accepts any inner `EventProtocol` whose
//! messages implement the codec traits. Each session comes back as its
//! own [`SessionReport`](crate::scenario::SessionReport) with latency =
//! `completed_at − arrival` on the shared virtual clock.

pub mod mux;
pub mod wire;
pub mod workload;

pub use mux::{SessionBoard, SessionMux, SessionStats};
pub use wire::{SessionId, WireEnvelope, WirePayload, INLINE_PAYLOAD};
pub use workload::{SessionSpec, SessionWorkload};
