//! Pluggable link models: how a transmitted message actually arrives.
//!
//! A [`LinkModel`] turns one transmission into zero or more *delivery
//! copies*, each with a virtual-time delay. Models compose as wrappers:
//! [`PerfectLink`] is the base (one copy, delay 0) and each combinator
//! transforms the copies its inner model produced — so
//!
//! ```
//! use dynspread_runtime::link::{LinkModel, LinkModelExt, PerfectLink};
//!
//! let link = PerfectLink
//!     .duplicating(0.05)
//!     .lossy(0.2)
//!     .with_latency(2)
//!     .with_jitter(3);
//! assert_eq!(link.describe(), "perfect+dup(0.05)+lossy(0.2)+lat(2)+jit(3)");
//! ```
//!
//! is a channel that duplicates 5% of copies, then drops 20% of them, then
//! delays survivors by 2 ticks plus 0–3 ticks of seeded jitter. Jitter is
//! also how *reordering* arises: two messages sent over the same link in
//! consecutive ticks can arrive in either order once their random delays
//! overlap. All randomness is drawn from the runtime's single seeded
//! [`StdRng`] in scheduling order, so every run is reproducible from its
//! seed.

use crate::event::VirtualTime;
use dynspread_graph::NodeId;
use dynspread_sim::trace::{TraceRecord, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Plans the delivery fate of transmissions on a point-to-point link.
///
/// `plan` appends one delay per copy to deliver onto `fates`; appending
/// nothing models a drop. The caller clears `fates` between transmissions,
/// so wrapping models may transform every entry currently in the buffer.
pub trait LinkModel {
    /// Plans one transmission `from → to` made at virtual time `now`.
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    );

    /// A conservative lower bound on the delay of any copy this model can
    /// ever schedule: every fate appended by `plan` is `>= min_latency()`.
    ///
    /// This is the lookahead bound a conservatively-synchronized sharded
    /// engine needs — a shard that has processed everything up to `t` can
    /// safely advance to `t + min_latency()` before looking at its peers.
    /// Combinators must keep the bound sound (never larger than a delay
    /// they can produce); `0` is always sound, and is the default.
    fn min_latency(&self) -> VirtualTime {
        0
    }

    /// Human-readable description, e.g. `perfect+lossy(0.3)`.
    fn describe(&self) -> String;
}

/// Combinator constructors, available on every link model.
pub trait LinkModelExt: LinkModel + Sized {
    /// Adds a fixed `delay` ticks to every copy.
    fn with_latency(self, delay: VirtualTime) -> FixedLatency<Self> {
        FixedLatency { delay, inner: self }
    }

    /// Adds a seeded-uniform `0..=max_extra` extra delay per copy
    /// (independent per copy — this is what makes links reorder).
    fn with_jitter(self, max_extra: VirtualTime) -> JitterLatency<Self> {
        JitterLatency {
            max_extra,
            inner: self,
        }
    }

    /// Drops each copy independently with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn lossy(self, p: f64) -> Lossy<Self> {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability {p} not in [0, 1]"
        );
        Lossy { p, inner: self }
    }

    /// Duplicates each copy independently with probability `p` (the extra
    /// copy shares its original's delay; add jitter *after* duplication to
    /// spread the copies out).
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    fn duplicating(self, p: f64) -> Duplicating<Self> {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability {p} not in [0, 1]"
        );
        Duplicating { p, inner: self }
    }
}

impl<L: LinkModel> LinkModelExt for L {}

/// A link model with everything one engine needs to consult it: the seeded
/// RNG stream the model draws from, the per-transmission fate buffer, and
/// the counters and trace records of each transmission's link fate. The
/// event engine and the synchronizers' link transport both plan through
/// this, so the two account and trace a transmission identically.
pub(crate) struct LinkPlanner<L> {
    link: L,
    rng: StdRng,
    /// The plan for the transmission at hand, one delay per copy.
    fates: Vec<VirtualTime>,
    /// Copies that survived the link.
    pub(crate) copies_scheduled: u64,
    /// Transmissions whose every copy the link dropped.
    pub(crate) drops: u64,
    /// Extra copies beyond one per surviving transmission.
    pub(crate) dups: u64,
}

impl<L: LinkModel> LinkPlanner<L> {
    pub(crate) fn new(link: L, seed: u64) -> Self {
        LinkPlanner {
            link,
            rng: StdRng::seed_from_u64(seed),
            fates: Vec::new(),
            copies_scheduled: 0,
            drops: 0,
            dups: 0,
        }
    }

    /// Plans one transmission `from → to` made at `now` and returns the
    /// delay of each copy to deliver, counting and tracing its link fate.
    #[inline]
    pub(crate) fn plan(
        &mut self,
        now: VirtualTime,
        from: NodeId,
        to: NodeId,
        tracer: &mut Option<Box<dyn Tracer>>,
    ) -> &[VirtualTime] {
        self.fates.clear();
        self.link
            .plan(from, to, now, &mut self.rng, &mut self.fates);
        let copies = self.fates.len();
        self.copies_scheduled += copies as u64;
        match copies {
            0 => self.drops += 1,
            k => self.dups += (k - 1) as u64,
        }
        if let Some(tracer) = tracer.as_deref_mut() {
            self.trace_fate(now, from.value(), to.value(), tracer);
        }
        &self.fates
    }

    /// The records of the transmission just planned: `Dropped`, or
    /// `Scheduled` per copy plus `Duplicated` if there is more than one.
    fn trace_fate(&self, t: VirtualTime, from: u32, to: u32, tracer: &mut dyn Tracer) {
        let copies = self.fates.len();
        if copies == 0 {
            tracer.record(&TraceRecord::Dropped { t, from, to });
        }
        for &delay in &self.fates {
            let at = t + delay;
            tracer.record(&TraceRecord::Scheduled { t, from, to, at });
        }
        if copies > 1 {
            let extra = (copies - 1) as u32;
            tracer.record(&TraceRecord::Duplicated { t, from, to, extra });
        }
    }
}

/// The identity channel: every transmission arrives exactly once with zero
/// delay. Under this model the synchronizer adapters reproduce the
/// synchronous engines byte-for-byte.
#[derive(Clone, Copy, Debug, Default)]
pub struct PerfectLink;

impl LinkModel for PerfectLink {
    fn plan(
        &self,
        _from: NodeId,
        _to: NodeId,
        _now: VirtualTime,
        _rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        fates.push(0);
    }

    fn min_latency(&self) -> VirtualTime {
        0
    }

    fn describe(&self) -> String {
        "perfect".to_string()
    }
}

/// A plain Bernoulli-drop channel with zero latency — the canonical lossy
/// link of the conformance/stress suites. Identical to
/// `PerfectLink.lossy(p)`, packaged as a named constructor so test
/// matrices read as `DropLink::new(0.3)`.
pub type DropLink = Lossy<PerfectLink>;

impl DropLink {
    /// Creates a link dropping each transmission independently with
    /// probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn new(p: f64) -> Self {
        PerfectLink.lossy(p)
    }
}

/// Adds a fixed delay to every copy of the inner model.
#[derive(Clone, Copy, Debug)]
pub struct FixedLatency<L> {
    delay: VirtualTime,
    inner: L,
}

impl<L: LinkModel> LinkModel for FixedLatency<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        let start = fates.len();
        self.inner.plan(from, to, now, rng, fates);
        for d in &mut fates[start..] {
            *d += self.delay;
        }
    }

    fn min_latency(&self) -> VirtualTime {
        // Every inner copy is shifted by exactly `delay`.
        self.inner.min_latency() + self.delay
    }

    fn describe(&self) -> String {
        format!("{}+lat({})", self.inner.describe(), self.delay)
    }
}

/// Adds independent seeded-uniform extra delay per copy.
#[derive(Clone, Copy, Debug)]
pub struct JitterLatency<L> {
    max_extra: VirtualTime,
    inner: L,
}

impl<L: LinkModel> LinkModel for JitterLatency<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        let start = fates.len();
        self.inner.plan(from, to, now, rng, fates);
        if self.max_extra > 0 {
            for d in &mut fates[start..] {
                *d += rng.gen_range(0..=self.max_extra);
            }
        }
    }

    fn min_latency(&self) -> VirtualTime {
        // Jitter only ever adds (the extra draw can be 0).
        self.inner.min_latency()
    }

    fn describe(&self) -> String {
        format!("{}+jit({})", self.inner.describe(), self.max_extra)
    }
}

/// Drops each copy of the inner model independently with probability `p`.
#[derive(Clone, Copy, Debug)]
pub struct Lossy<L> {
    p: f64,
    inner: L,
}

impl<L: LinkModel> LinkModel for Lossy<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        let start = fates.len();
        self.inner.plan(from, to, now, rng, fates);
        if self.p > 0.0 {
            // In-place compaction over this transmission's copies; one
            // `gen_bool` per copy keeps the draw order deterministic.
            let mut keep = start;
            for i in start..fates.len() {
                let dropped = rng.gen_bool(self.p);
                if !dropped {
                    fates[keep] = fates[i];
                    keep += 1;
                }
            }
            fates.truncate(keep);
        }
    }

    fn min_latency(&self) -> VirtualTime {
        // Dropping copies never changes a surviving copy's delay.
        self.inner.min_latency()
    }

    fn describe(&self) -> String {
        format!("{}+lossy({})", self.inner.describe(), self.p)
    }
}

/// Duplicates each copy of the inner model independently with probability
/// `p`; the duplicate inherits its original's delay.
#[derive(Clone, Copy, Debug)]
pub struct Duplicating<L> {
    p: f64,
    inner: L,
}

impl<L: LinkModel> LinkModel for Duplicating<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        let start = fates.len();
        self.inner.plan(from, to, now, rng, fates);
        if self.p > 0.0 {
            let end = fates.len();
            for i in start..end {
                if rng.gen_bool(self.p) {
                    let d = fates[i];
                    fates.push(d);
                }
            }
        }
    }

    fn min_latency(&self) -> VirtualTime {
        // Duplicates inherit their original's delay.
        self.inner.min_latency()
    }

    fn describe(&self) -> String {
        format!("{}+dup({})", self.inner.describe(), self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn plan_once(link: &impl LinkModel, rng: &mut StdRng) -> Vec<VirtualTime> {
        let mut fates = Vec::new();
        link.plan(NodeId::new(0), NodeId::new(1), 10, rng, &mut fates);
        fates
    }

    #[test]
    fn perfect_link_is_one_copy_zero_delay() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(plan_once(&PerfectLink, &mut rng), vec![0]);
    }

    #[test]
    fn fixed_latency_shifts_every_copy() {
        let mut rng = StdRng::seed_from_u64(1);
        let link = PerfectLink.with_latency(4);
        assert_eq!(plan_once(&link, &mut rng), vec![4]);
    }

    #[test]
    fn jitter_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(2);
        let link = PerfectLink.with_latency(1).with_jitter(3);
        for _ in 0..200 {
            for d in plan_once(&link, &mut rng) {
                assert!((1..=4).contains(&d), "delay {d} out of range");
            }
        }
    }

    #[test]
    fn lossy_zero_never_drops_and_one_always_drops() {
        let mut rng = StdRng::seed_from_u64(3);
        let never = PerfectLink.lossy(0.0);
        let always = PerfectLink.lossy(1.0);
        for _ in 0..100 {
            assert_eq!(plan_once(&never, &mut rng).len(), 1);
            assert!(plan_once(&always, &mut rng).is_empty());
        }
    }

    #[test]
    fn lossy_rate_is_roughly_p() {
        let mut rng = StdRng::seed_from_u64(4);
        let link = PerfectLink.lossy(0.3);
        let delivered: usize = (0..10_000).map(|_| plan_once(&link, &mut rng).len()).sum();
        assert!((6_500..7_500).contains(&delivered), "got {delivered}");
    }

    #[test]
    fn duplication_adds_copies() {
        let mut rng = StdRng::seed_from_u64(5);
        let link = PerfectLink.duplicating(1.0);
        assert_eq!(plan_once(&link, &mut rng), vec![0, 0]);
        let none = PerfectLink.duplicating(0.0);
        assert_eq!(plan_once(&none, &mut rng).len(), 1);
    }

    #[test]
    fn composition_order_is_reflected_in_description() {
        let link = PerfectLink.duplicating(0.1).lossy(0.2).with_latency(1);
        assert_eq!(link.describe(), "perfect+dup(0.1)+lossy(0.2)+lat(1)");
    }

    #[test]
    fn drop_link_is_named_lossy_perfect() {
        let mut rng = StdRng::seed_from_u64(6);
        let link = DropLink::new(0.0);
        assert_eq!(plan_once(&link, &mut rng), vec![0]);
        assert_eq!(link.describe(), PerfectLink.lossy(0.0).describe());
        assert!(plan_once(&DropLink::new(1.0), &mut rng).is_empty());
    }

    #[test]
    fn min_latency_bounds_every_planned_fate() {
        // Structural expectations per combinator.
        assert_eq!(PerfectLink.min_latency(), 0);
        assert_eq!(PerfectLink.with_latency(4).min_latency(), 4);
        assert_eq!(PerfectLink.with_latency(4).with_jitter(3).min_latency(), 4);
        assert_eq!(PerfectLink.with_latency(4).lossy(0.5).min_latency(), 4);
        assert_eq!(
            PerfectLink.with_latency(4).duplicating(0.5).min_latency(),
            4
        );
        // Soundness: no planned fate ever undercuts the bound.
        let link = PerfectLink
            .with_latency(3)
            .duplicating(0.4)
            .lossy(0.3)
            .with_jitter(5);
        let bound = link.min_latency();
        assert_eq!(bound, 3);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..500 {
            for d in plan_once(&link, &mut rng) {
                assert!(d >= bound, "fate {d} under the min_latency bound {bound}");
            }
        }
    }

    #[test]
    fn same_seed_same_fates() {
        let link = PerfectLink.duplicating(0.3).lossy(0.4).with_jitter(5);
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..100)
                .map(|_| plan_once(&link, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }
}
