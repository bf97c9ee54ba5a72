//! Workload traces: which sessions arrive when, with what job.
//!
//! A [`SessionWorkload`] is the pure-data input to the service layer —
//! an ordered list of [`SessionSpec`]s, each naming a session's arrival
//! (and optional leave) virtual time plus its dissemination job (its own
//! token universe and source). Like `FaultPlan`, everything is decided
//! at construction from a seed, so a replayed workload is the same
//! workload, and the trace has a plain-text serialization
//! ([`SessionWorkload::to_trace`] / [`SessionWorkload::parse`]) for
//! driving runs from a file (`spread --sessions TRACE`).

use dynspread_graph::NodeId;
use dynspread_sim::TokenAssignment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::event::VirtualTime;

/// Sessions are identified by a dense index; the mux packs that index
/// into timer IDs next to a 32-bit inner-timer field and two flag bits,
/// so the index must stay below 2^30.
pub(crate) const MAX_SESSIONS: usize = 1 << 30;

/// One session's job: when it joins the shared network, when (if ever)
/// it voluntarily leaves, and what it disseminates.
#[derive(Clone, Debug)]
pub struct SessionSpec {
    /// Human-readable label carried into the per-session `RunReport`.
    pub label: String,
    /// Virtual time at which the session joins on every node.
    pub arrival: VirtualTime,
    /// Virtual time at which the session is torn down on every node
    /// (`None` = runs until the service stops).
    pub leave: Option<VirtualTime>,
    /// The session's private token universe and initial placement.
    /// Distinct sessions have distinct universes — token `t3` of one
    /// session has nothing to do with `t3` of another.
    pub assignment: TokenAssignment,
}

impl SessionSpec {
    /// A single-source dissemination job of `k` tokens starting at
    /// `source`, arriving at time `arrival`.
    pub fn single_source(
        label: impl Into<String>,
        arrival: VirtualTime,
        n: usize,
        k: usize,
        source: NodeId,
    ) -> Self {
        SessionSpec {
            label: label.into(),
            arrival,
            leave: None,
            assignment: TokenAssignment::single_source(n, k, source),
        }
    }

    /// Sets the voluntary leave time.
    ///
    /// # Panics
    ///
    /// Panics if `leave` is not after the arrival.
    pub fn leaving_at(mut self, leave: VirtualTime) -> Self {
        assert!(leave > self.arrival, "leave must be after arrival");
        self.leave = Some(leave);
        self
    }
}

/// An ordered trace of session arrivals over one shared `n`-node network.
#[derive(Clone, Debug)]
pub struct SessionWorkload {
    n: usize,
    specs: Vec<SessionSpec>,
}

impl SessionWorkload {
    /// An empty workload over `n` nodes.
    pub fn new(n: usize) -> Self {
        SessionWorkload {
            n,
            specs: Vec::new(),
        }
    }

    /// Appends a session.
    ///
    /// # Panics
    ///
    /// Panics if the spec's assignment is not over `n` nodes, or the
    /// workload would exceed the mux's session-index capacity.
    pub fn push(&mut self, spec: SessionSpec) {
        assert_eq!(
            spec.assignment.node_count(),
            self.n,
            "session assignment node count"
        );
        assert!(self.specs.len() < MAX_SESSIONS, "too many sessions");
        self.specs.push(spec);
    }

    /// Seeded synthetic arrival trace: `sessions` single-source jobs of
    /// `k` tokens each, sources drawn uniformly, inter-arrival gaps drawn
    /// uniformly from `[1, spacing]` (cumulative), first arrival at 0 so
    /// the service is busy from the start.
    pub fn uniform(n: usize, sessions: usize, k: usize, spacing: VirtualTime, seed: u64) -> Self {
        assert!(n > 0, "workload needs nodes");
        assert!(spacing > 0, "spacing must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut workload = SessionWorkload::new(n);
        let mut arrival: VirtualTime = 0;
        for i in 0..sessions {
            let source = NodeId::new(rng.gen_range(0..n as u32));
            workload.push(SessionSpec::single_source(
                format!("s{i}"),
                arrival,
                n,
                k,
                source,
            ));
            arrival += rng.gen_range(1..=spacing);
        }
        workload
    }

    /// Parses the plain-text trace format: one session per line as
    /// `ARRIVAL SOURCE K [LEAVE]` (whitespace-separated), `#` starting a
    /// comment, blank lines ignored. Labels are assigned in file order.
    pub fn parse(n: usize, text: &str) -> Result<Self, String> {
        let mut workload = SessionWorkload::new(n);
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let fields: Vec<&str> = line.split_whitespace().collect();
            if fields.len() != 3 && fields.len() != 4 {
                return Err(format!(
                    "line {}: expected `ARRIVAL SOURCE K [LEAVE]`, got {raw:?}",
                    lineno + 1
                ));
            }
            let field = |i: usize, name: &str| -> Result<u64, String> {
                fields[i]
                    .parse()
                    .map_err(|e| format!("line {}: {name}: {e}", lineno + 1))
            };
            let arrival = field(0, "arrival")?;
            let source = field(1, "source")?;
            let k = field(2, "k")?;
            if source as usize >= n {
                return Err(format!(
                    "line {}: source {source} out of 0..{n}",
                    lineno + 1
                ));
            }
            if k == 0 {
                return Err(format!("line {}: k must be positive", lineno + 1));
            }
            // Token ids are `u32`.
            if k > u64::from(u32::MAX) {
                return Err(format!(
                    "line {}: k must be at most {}",
                    lineno + 1,
                    u32::MAX
                ));
            }
            let mut spec = SessionSpec::single_source(
                format!("s{}", workload.specs.len()),
                arrival,
                n,
                k as usize,
                NodeId::new(source as u32),
            );
            if fields.len() == 4 {
                let leave = field(3, "leave")?;
                if leave <= arrival {
                    return Err(format!("line {}: leave must be after arrival", lineno + 1));
                }
                spec = spec.leaving_at(leave);
            }
            workload.push(spec);
        }
        Ok(workload)
    }

    /// Serializes to the trace format [`SessionWorkload::parse`] reads.
    /// Only single-source jobs round-trip exactly (the format names one
    /// source per line); multi-holder assignments serialize their first
    /// listed source.
    pub fn to_trace(&self) -> String {
        let mut out = String::from("# ARRIVAL SOURCE K [LEAVE]\n");
        for spec in &self.specs {
            let source = spec
                .assignment
                .sources()
                .first()
                .map(|v| v.value())
                .unwrap_or(0);
            out.push_str(&format!(
                "{} {} {}",
                spec.arrival,
                source,
                spec.assignment.token_count()
            ));
            if let Some(leave) = spec.leave {
                out.push_str(&format!(" {leave}"));
            }
            out.push('\n');
        }
        out
    }

    /// The node count every session runs over.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// The sessions in arrival-trace order.
    pub fn specs(&self) -> &[SessionSpec] {
        &self.specs
    }

    /// Number of sessions.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_seed_deterministic_and_well_formed() {
        let a = SessionWorkload::uniform(16, 10, 4, 50, 7);
        let b = SessionWorkload::uniform(16, 10, 4, 50, 7);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a.len(), 10);
        assert_eq!(a.specs()[0].arrival, 0);
        for w in a.specs().windows(2) {
            assert!(w[0].arrival < w[1].arrival, "arrivals strictly increase");
        }
        for spec in a.specs() {
            assert_eq!(spec.assignment.node_count(), 16);
            assert_eq!(spec.assignment.token_count(), 4);
        }
        let c = SessionWorkload::uniform(16, 10, 4, 50, 8);
        assert_ne!(format!("{a:?}"), format!("{c:?}"));
    }

    #[test]
    fn trace_format_roundtrips() {
        let w = SessionWorkload::uniform(8, 5, 3, 20, 3);
        let text = w.to_trace();
        let parsed = SessionWorkload::parse(8, &text).unwrap();
        assert_eq!(format!("{:?}", w.specs()), format!("{:?}", parsed.specs()));
    }

    #[test]
    fn parse_accepts_comments_and_leaves() {
        let text = "# a trace\n0 0 4\n10 2 2 500  # leaves at 500\n\n30 1 1\n";
        let w = SessionWorkload::parse(4, text).unwrap();
        assert_eq!(w.len(), 3);
        assert_eq!(w.specs()[1].leave, Some(500));
        assert_eq!(w.specs()[2].arrival, 30);
        assert_eq!(w.specs()[2].label, "s2");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(SessionWorkload::parse(4, "0 0").is_err());
        assert!(SessionWorkload::parse(4, "0 9 4").is_err());
        assert!(SessionWorkload::parse(4, "0 0 0").is_err());
        assert!(SessionWorkload::parse(4, "5 0 4 5").is_err());
        assert!(SessionWorkload::parse(4, "x 0 4").is_err());
        assert_eq!(
            SessionWorkload::parse(4, "0 0 4\n0 0 4294967296").unwrap_err(),
            "line 2: k must be at most 4294967295"
        );
    }

    #[test]
    #[should_panic(expected = "node count")]
    fn mismatched_assignment_size_panics() {
        let mut w = SessionWorkload::new(8);
        w.push(SessionSpec::single_source("s0", 0, 4, 2, NodeId::new(0)));
    }
}
