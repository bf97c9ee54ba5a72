//! # dynspread-benchmark — the repo's one seeded benchmark
//!
//! Seven workloads drive the simulator through the entry points a user
//! calls (`BroadcastSim`/`UnicastSim::run_to_completion`,
//! `UnicastSynchronizer::run_to_completion`, `EventSim::run`,
//! `Scenario::run_*`) on inputs generated from `--seed`, check every
//! output, and report the end-to-end metrics declared in the root
//! `BENCHMARK.json`. A separate traced pass re-runs one instance of each
//! cell with [`probe::Timed`] wrappers around the public traits and
//! reports the per-layer metrics; it contributes nothing to the
//! end-to-end numbers. `README.md` explains why each workload exists and
//! how to compare two commits.
//!
//! Module map: [`seeds`] derives every seed from `--seed`; [`cells`]
//! holds the cell definitions (inputs, plain run, traced twin, output
//! checks, digest); [`workloads`] groups cells into the seven workloads;
//! [`probe`] is the measuring kit of the traced pass; [`measure`] turns
//! cell results into metrics; [`manifest`] is the single source of truth
//! for metric and workload names (a test keeps `BENCHMARK.json` equal to
//! it); [`suite`] runs everything in child processes; [`json`] is the
//! dependency-free reader/writer both need.

// One foreign call (`malloc_trim`, in `measure`) is the only unsafe code.
#![deny(unsafe_code)]

pub mod cells;
pub mod json;
pub mod manifest;
pub mod measure;
pub mod probe;
pub mod seeds;
pub mod suite;
pub mod workloads;
