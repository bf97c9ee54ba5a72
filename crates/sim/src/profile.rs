//! Channel 2 of the observability layer: the **wall-clock self-profiler**.
//!
//! A [`Profiler`] attributes an engine's wall time to named [`Phase`]s
//! with lap-style timing: engines call [`Profiler::lap`] at each phase
//! boundary, and the elapsed time since the previous boundary is charged
//! to the phase that just *ended*. Because the laps tile the engine loop,
//! attribution approaches 100% by construction — the residual is only
//! loop glue outside the instrumented region — which is what lets
//! `exp_profile` assert that ≥ 90% of a run's wall time is accounted for
//! by named phases.
//!
//! Profiling is off by default (`Option<Profiler>` in the engines — one
//! predictable branch per boundary when disabled) and is **not** part of
//! the determinism contract: wall times differ run to run, so a
//! [`ProfileReport`] never feeds the trace channel and is attached to
//! `RunReport`s only when profiling was explicitly enabled.

use std::time::Instant;

/// A named engine phase that wall time can be attributed to.
///
/// One shared alphabet across all engines; each engine uses the subset
/// that exists on its path (the synchronous round engines have no queue
/// pop, the event engine has no per-round protocol-send sweep).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Event-queue peek + pop (event engine).
    QueuePop,
    /// Adversary `evolve` + applying the graph update.
    AdversaryEvolve,
    /// Per-round connectivity verification (+ σ-stability when enabled).
    Connectivity,
    /// The per-node protocol send/broadcast sweep of the synchronous
    /// round engines, including bandwidth asserts and metering.
    ProtocolSend,
    /// `on_start` / `on_message` / `on_timer` protocol handlers (event
    /// engine).
    Handler,
    /// Link-model fate planning and delivery-copy scheduling.
    LinkPlanning,
    /// Transcript recording (the Byzantine accountability channel).
    Transcript,
    /// Handing due copies to protocol `receive`.
    Delivery,
    /// The synchronous engines' `end_round` sweep.
    EndRound,
    /// Timer scheduling (event engine).
    Timers,
    /// Token-tracker sync (global observation).
    TrackerSync,
}

impl Phase {
    /// Every phase, in display order.
    pub const ALL: [Phase; 11] = [
        Phase::QueuePop,
        Phase::AdversaryEvolve,
        Phase::Connectivity,
        Phase::ProtocolSend,
        Phase::Handler,
        Phase::LinkPlanning,
        Phase::Transcript,
        Phase::Delivery,
        Phase::EndRound,
        Phase::Timers,
        Phase::TrackerSync,
    ];

    /// Stable label used in reports and `BENCH_profile.json`.
    pub fn label(self) -> &'static str {
        match self {
            Phase::QueuePop => "queue-pop",
            Phase::AdversaryEvolve => "adversary-evolve",
            Phase::Connectivity => "connectivity",
            Phase::ProtocolSend => "protocol-send",
            Phase::Handler => "protocol-handler",
            Phase::LinkPlanning => "link-planning",
            Phase::Transcript => "transcript",
            Phase::Delivery => "delivery",
            Phase::EndRound => "end-round",
            Phase::Timers => "timer-scheduling",
            Phase::TrackerSync => "tracker-sync",
        }
    }
}

#[derive(Clone, Default)]
struct PhaseStat {
    ns: u64,
    laps: u64,
}

/// Lap-style wall-clock profiler (see the module docs).
pub struct Profiler {
    started: Instant,
    mark: Instant,
    stats: Vec<PhaseStat>,
}

impl Default for Profiler {
    fn default() -> Self {
        Profiler::new()
    }
}

impl Profiler {
    /// Creates a profiler; the clock starts now.
    pub fn new() -> Self {
        let now = Instant::now();
        Profiler {
            started: now,
            mark: now,
            stats: vec![PhaseStat::default(); Phase::ALL.len()],
        }
    }

    /// Restarts the total-time clock and the lap mark without clearing
    /// accumulated stats. Engines call this when a run begins so setup
    /// time between construction and the run is not misattributed.
    pub fn begin(&mut self) {
        let now = Instant::now();
        if self.stats.iter().all(|s| s.laps == 0) {
            self.started = now;
        }
        self.mark = now;
    }

    /// Ends the current lap, charging the elapsed time to `phase`.
    #[inline]
    pub fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
        let stat = &mut self.stats[phase as usize];
        stat.ns += ns;
        stat.laps += 1;
    }

    /// Snapshots the profile so far.
    pub fn report(&self) -> ProfileReport {
        let total_ns = self.started.elapsed().as_nanos() as u64;
        let mut phases: Vec<PhaseReport> = Phase::ALL
            .iter()
            .zip(&self.stats)
            .filter(|(_, s)| s.laps > 0)
            .map(|(&p, s)| PhaseReport {
                phase: p.label(),
                ns: s.ns,
                laps: s.laps,
            })
            .collect();
        phases.sort_by_key(|p| std::cmp::Reverse(p.ns));
        ProfileReport { total_ns, phases }
    }
}

/// Ends the current lap if a profiler is installed — the one-branch hook
/// the engines place at phase boundaries.
#[inline]
pub fn lap(prof: &mut Option<Profiler>, phase: Phase) {
    if let Some(p) = prof.as_mut() {
        p.lap(phase);
    }
}

/// Per-phase slice of a [`ProfileReport`].
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// The phase's stable label (see [`Phase::label`]).
    pub phase: &'static str,
    /// Total wall time charged to this phase.
    pub ns: u64,
    /// Number of laps that ended in this phase.
    pub laps: u64,
}

impl PhaseReport {
    /// Mean lap duration in nanoseconds.
    pub fn mean_ns(&self) -> f64 {
        self.ns as f64 / self.laps.max(1) as f64
    }
}

/// A snapshot of attributed wall time, phases sorted by descending cost.
#[derive(Clone, Debug)]
pub struct ProfileReport {
    /// Wall time from the profiler's start to the snapshot.
    pub total_ns: u64,
    /// Per-phase attribution, descending by time; phases that never ran
    /// are omitted.
    pub phases: Vec<PhaseReport>,
}

impl ProfileReport {
    /// Wall time attributed to named phases.
    pub fn attributed_ns(&self) -> u64 {
        self.phases.iter().map(|p| p.ns).sum()
    }

    /// Fraction of total wall time attributed to named phases (can
    /// slightly exceed 1.0 when the snapshot is taken a moment before
    /// clock drift between `total` and the laps settles; callers gate on
    /// a lower bound).
    pub fn attributed_fraction(&self) -> f64 {
        self.attributed_ns() as f64 / self.total_ns.max(1) as f64
    }

    /// The most expensive phase, if any ran.
    pub fn dominant(&self) -> Option<&PhaseReport> {
        self.phases.first()
    }
}

impl std::fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "profile: {:.1} ms total, {:.1}% attributed",
            self.total_ns as f64 / 1e6,
            self.attributed_fraction() * 100.0
        )?;
        for p in &self.phases {
            writeln!(
                f,
                "  {:>16}: {:>10.2} ms  {:>5.1}%  ({} laps, mean {:.0} ns)",
                p.phase,
                p.ns as f64 / 1e6,
                p.ns as f64 / self.total_ns.max(1) as f64 * 100.0,
                p.laps,
                p.mean_ns()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn laps_accumulate_and_tile_the_total() {
        let mut prof = Profiler::new();
        for _ in 0..100 {
            std::hint::black_box((0..100u64).sum::<u64>());
            prof.lap(Phase::ProtocolSend);
            std::hint::black_box((0..100u64).sum::<u64>());
            prof.lap(Phase::TrackerSync);
        }
        let report = prof.report();
        assert_eq!(report.phases.len(), 2);
        assert!(report.phases.iter().all(|p| p.laps == 100));
        assert!(report.attributed_ns() > 0);
        // Laps tile the interval: attribution is near-total (generous
        // bound — this is a correctness test, not a benchmark).
        assert!(
            report.attributed_fraction() > 0.5,
            "attributed only {:.1}%",
            report.attributed_fraction() * 100.0
        );
        assert!(report.dominant().is_some());
    }

    #[test]
    fn report_omits_idle_phases_and_sorts_by_cost() {
        let mut prof = Profiler::new();
        prof.lap(Phase::Connectivity);
        std::thread::sleep(std::time::Duration::from_millis(2));
        prof.lap(Phase::AdversaryEvolve);
        let report = prof.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].phase, "adversary-evolve");
        let shown: Vec<&str> = report.phases.iter().map(|p| p.phase).collect();
        assert!(!shown.contains(&"queue-pop"));
        let text = report.to_string();
        assert!(text.contains("adversary-evolve"));
        assert!(text.contains("% attributed") || text.contains("attributed"));
    }

    #[test]
    fn begin_resets_the_mark() {
        let mut prof = Profiler::new();
        std::thread::sleep(std::time::Duration::from_millis(1));
        prof.begin();
        prof.lap(Phase::QueuePop);
        let report = prof.report();
        // The sleep before begin() must not be charged to the lap.
        assert!(
            report.phases[0].ns < 1_000_000,
            "setup time leaked into the first lap: {} ns",
            report.phases[0].ns
        );
    }
}
