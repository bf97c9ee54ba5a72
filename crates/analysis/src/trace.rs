//! Trace analysis: progress curves, event census, and the two-trace diff.
//!
//! Consumes the JSONL emitted by `dynspread_sim::trace::JsonlTracer`
//! (channel 1 of the observability layer). Because that stream is a pure
//! function of the run's seeds, these analyses are exactly reproducible —
//! and [`first_divergence`] turns a pair of traces into a determinism
//! debugger: the first differing line *names* the first divergent
//! scheduling decision.

use dynspread_sim::trace::TraceRecord;
use std::collections::BTreeMap;

/// Every line of a trace, decoded on its own: `None` where the line is
/// not a canonical record (see `TraceRecord::parse_line`).
fn records(jsonl: &str) -> impl Iterator<Item = Option<TraceRecord>> + '_ {
    jsonl.lines().map(TraceRecord::parse_line)
}

/// Per-kind record counts of one trace, keyed by kind tag (so ordered
/// alphabetically by tag). Kinds that do not occur are absent.
///
/// Unparseable lines are counted under the synthetic kind `"invalid"` so
/// a corrupted trace is visible rather than silently shrunk.
pub fn kind_counts(jsonl: &str) -> BTreeMap<&'static str, u64> {
    const INVALID: usize = TraceRecord::KINDS.len();
    let mut counts = [0u64; INVALID + 1];
    for rec in records(jsonl) {
        counts[rec.map_or(INVALID, |r| r.kind_index())] += 1;
    }
    TraceRecord::KINDS
        .iter()
        .copied()
        .chain(["invalid"])
        .zip(counts)
        .filter(|&(_, n)| n > 0)
        .collect()
}

/// One point of a coverage-vs-virtual-time progress curve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoveragePoint {
    /// Virtual time (round or tick) of the observation.
    pub t: u64,
    /// Cumulative token learnings up to and including `t`.
    pub learnings: u64,
}

/// The cumulative learning curve of a trace: one point per distinct
/// virtual time at which any node gained tokens (from `cov` records),
/// ascending in time. The final point's `learnings` equals the run's
/// total — the same quantity the Section 2 lower bound throttles, now
/// resolved over virtual time instead of summarized at the end.
pub fn coverage_curve(jsonl: &str) -> Vec<CoveragePoint> {
    let mut curve: Vec<CoveragePoint> = Vec::new();
    let mut total = 0u64;
    for rec in records(jsonl) {
        if let Some(TraceRecord::Coverage { t, gained, .. }) = rec {
            total += gained as u64;
            match curve.last_mut() {
                Some(last) if last.t == t => last.learnings = total,
                _ => curve.push(CoveragePoint {
                    t,
                    learnings: total,
                }),
            }
        }
    }
    curve
}

/// Where two traces first disagree (see [`first_divergence`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceDivergence {
    /// 1-based line number of the first differing line.
    pub line: usize,
    /// That line in the left trace (`None` = left ended first).
    pub left: Option<String>,
    /// That line in the right trace (`None` = right ended first).
    pub right: Option<String>,
}

impl std::fmt::Display for TraceDivergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "traces diverge at line {}:", self.line)?;
        writeln!(f, "  left:  {}", self.left.as_deref().unwrap_or("<end>"))?;
        write!(f, "  right: {}", self.right.as_deref().unwrap_or("<end>"))
    }
}

/// Compares two traces line by line and reports the first divergence, or
/// `None` when they are byte-identical. Two same-seed traces that
/// diverge expose a determinism violation; the returned line pinpoints
/// the first scheduling decision that differed, which is usually within
/// a few events of the root cause.
pub fn first_divergence(left: &str, right: &str) -> Option<TraceDivergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut line = 0usize;
    loop {
        line += 1;
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => {}
            (a, b) => {
                return Some(TraceDivergence {
                    line,
                    left: a.map(str::to_owned),
                    right: b.map(str::to_owned),
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;

    fn sample_trace() -> String {
        let records = [
            TraceRecord::Round {
                r: 1,
                inserted: 3,
                removed: 0,
            },
            TraceRecord::Send {
                t: 1,
                from: 0,
                to: 1,
            },
            TraceRecord::Delivered {
                t: 1,
                from: 0,
                to: 1,
            },
            TraceRecord::Coverage {
                t: 1,
                node: 1,
                gained: 1,
                known: 2,
            },
            TraceRecord::Round {
                r: 2,
                inserted: 0,
                removed: 0,
            },
            TraceRecord::Coverage {
                t: 2,
                node: 2,
                gained: 2,
                known: 2,
            },
            TraceRecord::Coverage {
                t: 2,
                node: 3,
                gained: 1,
                known: 1,
            },
        ];
        let mut out = String::new();
        for r in &records {
            r.write_jsonl(&mut out);
        }
        out
    }

    #[test]
    fn kind_counts_census_the_trace() {
        let counts = kind_counts(&sample_trace());
        assert_eq!(counts["round"], 2);
        assert_eq!(counts["send"], 1);
        assert_eq!(counts["deliver"], 1);
        assert_eq!(counts["cov"], 3);
        assert!(!counts.contains_key("invalid"));
    }

    #[test]
    fn kind_counts_flag_garbage_lines() {
        let mut trace = sample_trace();
        let _ = writeln!(trace, "not json at all");
        assert_eq!(kind_counts(&trace)["invalid"], 1);
        // A node ID past 32 bits is garbage too, not node 0's send.
        let _ = writeln!(trace, r#"{{"k":"send","t":1,"from":4294967296,"to":1}}"#);
        let counts = kind_counts(&trace);
        assert_eq!((counts["invalid"], counts["send"]), (2, 1));
        // Only the canonical form counts as a record: whitespace,
        // reordered keys, a repeated "k" and a signed value are garbage.
        for line in [
            r#"{"k":"send", "t":1,"from":0,"to":1}"#,
            r#"{"k":"send","from":0,"t":1,"to":1}"#,
            r#"{"k":"send","k":"send","t":1,"from":0,"to":1}"#,
            r#"{"k":"send","t":+7,"from":0,"to":1}"#,
        ] {
            let _ = writeln!(trace, "{line}");
        }
        let counts = kind_counts(&trace);
        assert_eq!((counts["invalid"], counts["send"]), (6, 1));
        assert_eq!(counts.values().sum::<u64>(), trace.lines().count() as u64);
    }

    #[test]
    fn coverage_curve_accumulates_and_merges_same_time_points() {
        let curve = coverage_curve(&sample_trace());
        assert_eq!(
            curve,
            vec![
                CoveragePoint { t: 1, learnings: 1 },
                CoveragePoint { t: 2, learnings: 4 },
            ]
        );
    }

    #[test]
    fn identical_traces_have_no_divergence() {
        let trace = sample_trace();
        assert_eq!(first_divergence(&trace, &trace), None);
    }

    #[test]
    fn divergence_reports_the_first_differing_line() {
        let left = sample_trace();
        let right = left.replacen("\"from\":0,\"to\":1", "\"from\":0,\"to\":2", 1);
        let div = first_divergence(&left, &right).expect("traces differ");
        assert_eq!(div.line, 2, "first line is the round record");
        assert!(div.left.as_deref().unwrap().contains("\"to\":1"));
        assert!(div.right.as_deref().unwrap().contains("\"to\":2"));
        assert!(div.to_string().contains("diverge at line 2"));
    }

    #[test]
    fn truncation_is_a_divergence() {
        let left = sample_trace();
        let shorter: String = left.lines().take(3).map(|l| format!("{l}\n")).collect();
        let div = first_divergence(&left, &shorter).expect("lengths differ");
        assert_eq!(div.line, 4);
        assert_eq!(div.right, None, "right trace ended first");
    }
}
