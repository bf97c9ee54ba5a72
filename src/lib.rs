//! # dynspread — information spreading in adversarial dynamic networks
//!
//! A from-scratch Rust reproduction of *The Communication Cost of
//! Information Spreading in Dynamic Networks* (Ahmadi, Kuhn, Kutten,
//! Molla, Pandurangan; ICDCS 2019): the synchronous adversarial
//! dynamic-network model, all four token-forwarding dissemination
//! algorithms, their baselines, the Section 2 lower-bound adversary, and
//! a benchmark harness regenerating every table and figure.
//!
//! This crate is a facade: it re-exports the workspace crates under one
//! name and hosts the cross-crate integration tests and runnable
//! examples.
//!
//! * [`graph`] — dynamic graphs, σ-edge stability, `TC(E)` accounting,
//!   generators, oblivious adversaries.
//! * [`sim`] — the synchronous round engines, message metering
//!   (Definition 1.1), token-learning tracking (Definition 1.4).
//! * [`core`] — Algorithms 1 & 2, Multi-Source-Unicast, flooding,
//!   baselines, the potential adversary of Theorem 2.3, random walks.
//! * [`runtime`] — the deterministic discrete-event runtime: virtual
//!   clock, seeded event queue, composable lossy / latent link models,
//!   synchronizer adapters that run the round-based protocols unchanged
//!   (the same `receive` calls in the same order as [`sim`] under a
//!   perfect link), the asynchronous `EventProtocol` engine, and native async
//!   ports of the dissemination algorithms with explicit retransmission
//!   (`runtime::protocol`; conformance contract in
//!   `crates/runtime/README.md`).
//! * [`analysis`] — statistics, power-law fits, adversary-competitive
//!   accounting (Definition 1.3), result tables.
//!
//! # Quickstart
//!
//! Disseminate 32 tokens from one source over a dynamic network that
//! rewires to a fresh random tree every 3 rounds:
//!
//! ```
//! use dynspread::core::single_source::SingleSourceNode;
//! use dynspread::graph::{generators::Topology, oblivious::PeriodicRewiring, NodeId};
//! use dynspread::sim::{SimConfig, TokenAssignment, UnicastSim};
//!
//! let (n, k) = (16, 32);
//! let assignment = TokenAssignment::single_source(n, k, NodeId::new(0));
//! let adversary = PeriodicRewiring::new(Topology::RandomTree, 3, 42);
//! let mut sim = UnicastSim::new(
//!     "single-source-unicast",
//!     SingleSourceNode::nodes(&assignment),
//!     adversary,
//!     &assignment,
//!     SimConfig::default(),
//! );
//! let report = sim.run_to_completion();
//! assert!(report.completed);
//! // Theorem 3.1: messages − TC(E) = O(n² + nk).
//! assert!(report.competitive_residual(1.0) <= 4.0 * ((n * n + n * k) as f64));
//! ```
//!
//! # Running the experiments
//!
//! The experiment binaries live in the `dynspread-bench` crate; each
//! regenerates one of the paper's quantitative artifacts:
//!
//! ```text
//! cargo run --release -p dynspread-bench --bin table1          # Table 1
//! cargo run --release -p dynspread-bench --bin fig1_free_edges # Figure 1 / Lemma 2.2
//! cargo run --release -p dynspread-bench --bin exp_single_source
//! cargo run --release -p dynspread-bench --bin exp_multi_source
//! # … see crates/bench/src/bin/ for the full exp_* index.
//! ```
//!
//! Every binary fans its independent `n × k × adversary × seed` grid
//! across all CPU cores via `dynspread_bench::par_map` with deterministic
//! per-job seeds — output is byte-identical regardless of core count. Set
//! `DYNSPREAD_THREADS=1` to force serial execution.
//!
//! Behaviour is gated exactly: a committed `BENCH_*.json` holds only what
//! the seeds determine, `crates/bench/tests/committed_baselines.rs` runs
//! `exp_{scale,profile,byzantine,faults,sessions}` and demands the
//! committed bytes back, and a baseline is refreshed by re-running its
//! `exp_*` bin with no arguments. Wall time is claimed through
//! alternating parent/change pairs of the standalone `benchmark/` package
//! (`benchmark/README.md`). The interactive CLI is `cargo run --release
//! --bin spread -- --help`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use dynspread_analysis as analysis;
pub use dynspread_core as core;
pub use dynspread_graph as graph;
pub use dynspread_runtime as runtime;
pub use dynspread_sim as sim;
