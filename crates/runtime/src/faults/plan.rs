//! Seeded, pure-data crash and partition schedules.
//!
//! A [`FaultPlan`] is decided entirely at construction: which nodes crash,
//! when, whether and when they recover, what state survives the crash
//! ([`RecoveryMode`]), and which partition episodes cut the network in
//! half. Nothing here consults the engine's RNG or clock — every answer is
//! a pure function of `(seed, node, time)` — so a faulted run is
//! replay-identical from its seeds, and an *empty* plan is exactly the
//! unfaulted execution (no extra RNG draws, no extra events, no extra
//! trace records).
//!
//! The [`PartitionLink`] combinator applies the plan's partition schedule
//! to any [`LinkModel`]: copies crossing the cut during an episode are
//! dropped before the inner model ever sees them (and, crucially, without
//! consuming randomness from the engine stream).

use dynspread_graph::NodeId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

use crate::event::VirtualTime;
use crate::link::LinkModel;

/// What survives a crash when the node comes back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Volatile protocol state is lost: completeness ledgers, request and
    /// transfer windows, backoff pacing, and learned center identities are
    /// reset. *Durable* token knowledge survives — tokens model data the
    /// node has already persisted, and the workspace's conservation
    /// invariants (`TokenTracker` monotonicity, walk-ownership hand-off)
    /// require that knowledge is never destroyed.
    Amnesia,
    /// The node checkpointed everything: full protocol state survives and
    /// recovery only needs to re-arm timers and re-announce.
    DurableSnapshot,
}

/// One node's scheduled crash, and optionally its recovery.
#[derive(Clone, Copy, Debug)]
pub struct NodeFault {
    /// Virtual time at which the node stops: deliveries to it are
    /// discarded, its timers never fire, and it sends nothing.
    pub crash_at: VirtualTime,
    /// Virtual time at which it rejoins (`None` = crash-stop, the node is
    /// down for the rest of the run).
    pub recover_at: Option<VirtualTime>,
    /// What state survives the outage.
    pub mode: RecoveryMode,
}

/// One partition episode: during `[start, end)` the network is cut into
/// two sides and no copy crosses the cut.
#[derive(Clone, Debug)]
pub struct PartitionEpisode {
    /// First tick of the episode.
    pub start: VirtualTime,
    /// First tick *after* the episode (the heal instant).
    pub end: VirtualTime,
    /// `side[v]` assigns node `v` to one of the two halves.
    pub side: Vec<bool>,
}

impl PartitionEpisode {
    /// Whether `from → to` traffic crosses the cut at time `now`.
    #[inline]
    pub fn separates(&self, from: NodeId, to: NodeId, now: VirtualTime) -> bool {
        now >= self.start && now < self.end && self.side[from.index()] != self.side[to.index()]
    }
}

/// Salt for the crash-set shuffle and crash/recovery time draws.
const CRASH_SALT: u64 = 0xC4A5_4EED_0001;
/// Salt for partition side assignment (episode index is mixed in).
const PART_SALT: u64 = 0xC4A5_4EED_0002;

/// A deterministic schedule of crashes, recoveries, and partitions.
///
/// The plan is plain data: construction draws every crash time, recovery
/// time, and partition side from its own seeded RNG, and the engine merely
/// *reads* it. Two runs handed equal plans (same constructor arguments)
/// behave byte-identically; a plan built by [`FaultPlan::none`] leaves the
/// execution untouched.
///
/// # Examples
///
/// ```
/// use dynspread_runtime::faults::{FaultPlan, RecoveryMode};
///
/// let plan = FaultPlan::crash_recovery(10, 0.2, 500, 200, RecoveryMode::Amnesia, 7)
///     .with_random_partition(300, 900);
/// assert_eq!(plan.crashed_nodes().count(), 2);
/// assert_eq!(plan.episodes().len(), 1);
/// // Same arguments, same schedule.
/// let replay = FaultPlan::crash_recovery(10, 0.2, 500, 200, RecoveryMode::Amnesia, 7)
///     .with_random_partition(300, 900);
/// assert_eq!(format!("{plan:?}"), format!("{replay:?}"));
/// ```
#[derive(Clone, Debug)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Option<NodeFault>>,
    episodes: Vec<PartitionEpisode>,
}

impl FaultPlan {
    /// The empty plan: nobody crashes, nothing partitions. Running under
    /// this plan is byte-identical to running with no plan at all.
    pub fn none(n: usize) -> Self {
        FaultPlan {
            seed: 0,
            faults: vec![None; n],
            episodes: Vec::new(),
        }
    }

    /// Crash-stops `⌊fraction·n⌋` nodes, chosen by a seeded shuffle, at
    /// times drawn uniformly from `[1, crash_window]`. Crashed nodes never
    /// come back — a run can only degrade, which is what the crash-stop
    /// degradation sweeps measure.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or `crash_window` is 0.
    pub fn crash_stop(n: usize, fraction: f64, crash_window: VirtualTime, seed: u64) -> Self {
        Self::build(n, fraction, crash_window, None, RecoveryMode::Amnesia, seed)
    }

    /// Crash-recovery: like [`FaultPlan::crash_stop`], but each crashed
    /// node recovers after an outage drawn uniformly from
    /// `[1, recovery_delay]`, rejoining with `mode` semantics.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]` or either window is 0.
    pub fn crash_recovery(
        n: usize,
        fraction: f64,
        crash_window: VirtualTime,
        recovery_delay: VirtualTime,
        mode: RecoveryMode,
        seed: u64,
    ) -> Self {
        assert!(recovery_delay >= 1, "recovery delay must be at least 1");
        Self::build(n, fraction, crash_window, Some(recovery_delay), mode, seed)
    }

    fn build(
        n: usize,
        fraction: f64,
        crash_window: VirtualTime,
        recovery_delay: Option<VirtualTime>,
        mode: RecoveryMode,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        assert!(crash_window >= 1, "crash window must be at least 1");
        let mut rng = StdRng::seed_from_u64(seed ^ CRASH_SALT);
        let mut ids: Vec<usize> = (0..n).collect();
        ids.shuffle(&mut rng);
        let m = (fraction * n as f64).floor() as usize;
        let mut faults = vec![None; n];
        // One draw order — node set first, then (crash, recovery) per
        // victim in shuffle order — keeps the schedule a pure function of
        // the constructor arguments.
        for &v in ids.iter().take(m) {
            let crash_at = rng.gen_range(1..=crash_window);
            let recover_at = recovery_delay.map(|d| crash_at.saturating_add(rng.gen_range(1..=d)));
            faults[v] = Some(NodeFault {
                crash_at,
                recover_at,
                mode,
            });
        }
        FaultPlan {
            seed,
            faults,
            episodes: Vec::new(),
        }
    }

    /// Adds a partition episode over `[start, end)` with sides drawn by a
    /// seeded coin per node (re-flipping node 0's side if the draw left
    /// either half empty, so the cut is always real).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end`.
    pub fn with_random_partition(mut self, start: VirtualTime, end: VirtualTime) -> Self {
        assert!(start < end, "partition episode must have positive length");
        let n = self.faults.len();
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ PART_SALT ^ (self.episodes.len() as u64 + 1));
        let mut side: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
        if n >= 2 && side.iter().all(|&s| s == side[0]) {
            side[0] = !side[0];
        }
        self.episodes.push(PartitionEpisode { start, end, side });
        self
    }

    /// Adds an explicit partition episode (tests and hand-built scenarios).
    ///
    /// # Panics
    ///
    /// Panics if `start >= end` or the side vector's length is not `n`.
    pub fn with_partition(mut self, start: VirtualTime, end: VirtualTime, side: Vec<bool>) -> Self {
        assert!(start < end, "partition episode must have positive length");
        assert_eq!(side.len(), self.faults.len(), "side vector length != n");
        self.episodes.push(PartitionEpisode { start, end, side });
        self
    }

    /// Plants an explicit fault on node `v` (tests and hand-built
    /// scenarios).
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range, `crash_at` is 0, or `recover_at` is
    /// at or before `crash_at`.
    pub fn plant(mut self, v: NodeId, fault: NodeFault) -> Self {
        assert!(v.index() < self.faults.len(), "{v} out of range");
        assert!(fault.crash_at >= 1, "crash at t=0 would race the start");
        if let Some(r) = fault.recover_at {
            assert!(r > fault.crash_at, "recovery must follow the crash");
        }
        self.faults[v.index()] = Some(fault);
        self
    }

    /// The seed the plan was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of nodes the plan covers.
    pub fn node_count(&self) -> usize {
        self.faults.len()
    }

    /// Whether the plan faults nothing at all (the identity plan).
    pub fn is_empty(&self) -> bool {
        self.faults.iter().all(Option::is_none) && self.episodes.is_empty()
    }

    /// The fault scheduled for node `v`, if any.
    pub fn fault_of(&self, v: NodeId) -> Option<&NodeFault> {
        self.faults[v.index()].as_ref()
    }

    /// Nodes scheduled to crash, in increasing ID order.
    pub fn crashed_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.faults
            .iter()
            .enumerate()
            .filter(|(_, f)| f.is_some())
            .map(|(i, _)| NodeId::new(i as u32))
    }

    /// The partition episodes, in insertion order.
    pub fn episodes(&self) -> &[PartitionEpisode] {
        &self.episodes
    }

    /// Whether `from → to` traffic crosses an active cut at time `now`.
    pub fn separated(&self, from: NodeId, to: NodeId, now: VirtualTime) -> bool {
        self.episodes.iter().any(|e| e.separates(from, to, now))
    }
}

/// A [`LinkModel`] combinator that drops every copy crossing an active
/// partition cut, delegating everything else to the inner model.
///
/// When no episode is active (or the plan has none), `plan` is an exact
/// pass-through — same RNG draws, same fates — so wrapping a link with an
/// empty schedule preserves byte-identical replay with the unwrapped run.
/// Cross-cut drops consume **no** randomness, for the same reason.
#[derive(Clone, Debug)]
pub struct PartitionLink<L> {
    inner: L,
    schedule: Arc<FaultPlan>,
}

impl<L: LinkModel> PartitionLink<L> {
    /// Wraps `inner`, dropping copies across `schedule`'s active cuts.
    pub fn new(inner: L, schedule: Arc<FaultPlan>) -> Self {
        PartitionLink { inner, schedule }
    }
}

impl<L: LinkModel> LinkModel for PartitionLink<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        if self.schedule.separated(from, to, now) {
            return; // dropped at the cut: no copies, no RNG draws
        }
        self.inner.plan(from, to, now, rng, fates);
    }

    fn min_latency(&self) -> VirtualTime {
        self.inner.min_latency()
    }

    fn describe(&self) -> String {
        format!(
            "{}+part({} episodes)",
            self.inner.describe(),
            self.schedule.episodes().len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{DropLink, LinkModelExt, PerfectLink};

    #[test]
    fn construction_is_deterministic_and_seed_sensitive() {
        let a = FaultPlan::crash_recovery(20, 0.25, 400, 150, RecoveryMode::Amnesia, 9);
        let b = FaultPlan::crash_recovery(20, 0.25, 400, 150, RecoveryMode::Amnesia, 9);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        let c = FaultPlan::crash_recovery(20, 0.25, 400, 150, RecoveryMode::Amnesia, 10);
        assert_ne!(format!("{a:?}"), format!("{c:?}"), "plan ignores its seed");
        assert_eq!(a.crashed_nodes().count(), 5);
        for v in a.crashed_nodes() {
            let f = a.fault_of(v).unwrap();
            assert!(f.crash_at >= 1 && f.crash_at <= 400);
            let r = f.recover_at.expect("crash-recovery plan");
            assert!(r > f.crash_at && r <= f.crash_at + 150);
        }
    }

    #[test]
    fn crash_stop_never_recovers_and_none_is_empty() {
        let p = FaultPlan::crash_stop(10, 0.5, 100, 3);
        assert_eq!(p.crashed_nodes().count(), 5);
        assert!(p
            .crashed_nodes()
            .all(|v| p.fault_of(v).unwrap().recover_at.is_none()));
        assert!(!p.is_empty());
        assert!(FaultPlan::none(10).is_empty());
        assert!(FaultPlan::crash_stop(10, 0.0, 100, 3).is_empty());
    }

    #[test]
    fn partition_episode_separates_only_across_the_cut_and_inside_the_window() {
        let side = vec![false, false, true, true];
        let p = FaultPlan::none(4).with_partition(10, 20, side);
        let (a, b, c) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
        assert!(p.separated(a, c, 10), "cross-cut at the start tick");
        assert!(p.separated(c, a, 19), "cut is symmetric, last tick active");
        assert!(!p.separated(a, c, 20), "healed at end");
        assert!(!p.separated(a, c, 9), "not yet started");
        assert!(!p.separated(a, b, 15), "same side never separated");
    }

    #[test]
    fn random_partition_has_two_nonempty_sides() {
        for seed in 0..20u64 {
            let p = FaultPlan::crash_stop(8, 0.0, 1, seed).with_random_partition(5, 50);
            let side = &p.episodes()[0].side;
            assert!(side.iter().any(|&s| s), "seed {seed}: one side empty");
            assert!(side.iter().any(|&s| !s), "seed {seed}: one side empty");
        }
    }

    #[test]
    fn partition_link_is_a_pass_through_off_the_cut() {
        let plan =
            Arc::new(FaultPlan::none(4).with_partition(10, 20, vec![false, true, true, true]));
        let link = PartitionLink::new(DropLink::new(0.5).with_jitter(2), plan.clone());
        let plain = DropLink::new(0.5).with_jitter(2);
        let mut fates_a = Vec::new();
        let mut fates_b = Vec::new();
        // Same seed, same draw sequence: the wrapper must consume exactly
        // the inner model's randomness when the cut is inactive.
        let mut rng_a = StdRng::seed_from_u64(77);
        let mut rng_b = StdRng::seed_from_u64(77);
        for now in [0u64, 9, 20, 25] {
            fates_a.clear();
            fates_b.clear();
            link.plan(
                NodeId::new(0),
                NodeId::new(1),
                now,
                &mut rng_a,
                &mut fates_a,
            );
            plain.plan(
                NodeId::new(0),
                NodeId::new(1),
                now,
                &mut rng_b,
                &mut fates_b,
            );
            assert_eq!(fates_a, fates_b, "t={now}");
        }
        // On the cut: every copy dropped, no randomness consumed.
        fates_a.clear();
        link.plan(NodeId::new(0), NodeId::new(1), 15, &mut rng_a, &mut fates_a);
        assert!(fates_a.is_empty());
        fates_b.clear();
        plain.plan(NodeId::new(0), NodeId::new(1), 25, &mut rng_b, &mut fates_b);
        fates_a.clear();
        link.plan(NodeId::new(0), NodeId::new(1), 25, &mut rng_a, &mut fates_a);
        assert_eq!(fates_a, fates_b, "streams still aligned after the drop");
        // Same-side traffic flows during the episode.
        fates_a.clear();
        link.plan(NodeId::new(1), NodeId::new(2), 15, &mut rng_a, &mut fates_a);
        let _ = fates_a; // may or may not survive the lossy inner link
        assert_eq!(link.min_latency(), 0);
        assert!(link.describe().contains("part(1 episodes)"));
        let _ = PartitionLink::new(PerfectLink, plan);
    }
}
