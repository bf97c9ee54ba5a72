//! # dynspread-analysis — metrics and reporting
//!
//! Analysis utilities consumed by the benchmark harness:
//!
//! * [`stats`] — summary statistics over repeated runs (mean, stddev,
//!   approximate 95% confidence intervals, median).
//! * [`fit`] — least-squares fits; [`fit::power_law_fit`] estimates the
//!   exponent of a measured cost curve on a log–log scale, which is how
//!   the experiments compare measured scaling against the paper's
//!   asymptotic bounds.
//! * [`competitive`] — Definition 1.3 accounting: residuals
//!   `M − α·TC(E)` against candidate bounds like `c(n² + nk)`
//!   (Theorem 3.1) and `c(n²s + nk)` (Theorem 3.5).
//! * [`progress`] — per-round token-learning curves (the quantity the
//!   Section 2 lower bound throttles).
//! * [`table`] — [`table::fmt_f64`], the compact float format of the
//!   experiment tables' cells (the bins lay the tables out with
//!   `dynspread_bench::row::render_table`).
//! * [`trace`] — deterministic-trace analysis: per-kind event census,
//!   coverage-vs-virtual-time progress curves, and a two-trace diff
//!   whose first divergent line localizes determinism violations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod competitive;
pub mod fit;
pub mod plot;
pub mod progress;
pub mod stats;
pub mod table;
pub mod trace;

pub use competitive::{competitive_records, worst_ratio, CompetitiveRecord};
pub use fit::{linear_fit, power_law_fit, LinearFit};
pub use stats::Summary;
pub use trace::{coverage_curve, first_divergence, kind_counts, TraceDivergence};
