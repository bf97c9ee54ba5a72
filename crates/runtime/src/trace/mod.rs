//! The runtime's face of the two-channel observability layer.
//!
//! The core types live in `dynspread-sim` (the dependency arrow points
//! sim → runtime, and the synchronous engines need the same hooks), and
//! are re-exported here so runtime users have one import surface:
//!
//! * **Channel 1 — deterministic trace.** A [`Tracer`] installed via
//!   `set_tracer` on [`EventSim`](crate::EventSim), the synchronizer
//!   ([`Synchronizer`](crate::Synchronizer), in either mode), or the
//!   round engine ([`RoundSim`](dynspread_sim::sim::RoundSim)) receives
//!   structured [`TraceRecord`]s: round/epoch boundaries, sends, per-copy
//!   link fates (scheduled / dropped / duplicated / unroutable),
//!   deliveries, timers, protocol-reported retransmissions and backoff
//!   resets, and per-node coverage deltas.
//!   Every field is a pure function of the run's seeds, so the
//!   [`JsonlTracer`]'s serialized output is **byte-identical under
//!   replay** — two same-seed traces that differ expose a determinism
//!   violation, and `dynspread_analysis::trace::first_divergence` names
//!   the first divergent decision.
//! * **Channel 2 — wall-clock profiler.** `enable_profiling` on an
//!   engine attaches a [`Profiler`] that attributes wall time to
//!   [`Phase`]s with lap-style timing (total time and lap count per
//!   phase), surfaced as [`ProfileReport`] via `RunReport::profile` and the
//!   `exp_profile` bench bin (`BENCH_profile.json`). Wall times are not
//!   functions of the seed, so profiling output never feeds channel 1.
//!
//! Both channels are off by default; disabled hooks cost one predictable
//! branch (guarded by `Option`), which is what lets the committed
//! `BENCH_*.json` baselines hold with the tracer compiled in but off.
//!
//! For the multi-engine pipeline
//! [`Scenario::run_oblivious`](crate::scenario::Scenario::run_oblivious),
//! the [`JsonlTracer`]'s cheaply-cloneable shared-buffer handle is the
//! plumbing: install clones into each internal engine and read the
//! stitched JSONL (with `phase` boundary records) from the clone you
//! kept.

pub use dynspread_sim::profile::{Phase, PhaseReport, ProfileReport, Profiler};
pub use dynspread_sim::trace::{emit, JsonlTracer, NoopTracer, TraceRecord, Tracer};
