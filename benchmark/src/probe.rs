//! The traced pass's measuring kit: timing wrappers around the public
//! traits, the calibrated clock cost, and the in-memory span tree.
//!
//! Everything here measures the program **from outside**: a [`Timed`]
//! value implements the same public trait as the value it wraps
//! (`Adversary`, `UnicastProtocol`, `BroadcastProtocol`, `EventProtocol`,
//! `LinkModel`) and forwards every call, adding one clock read before and
//! one after. The program's own `enable_profiling` stays off so these
//! numbers can later validate it. End-to-end runs never see this module.

use dynspread_graph::adversary::Adversary;
use dynspread_graph::dynamic::GraphUpdate;
use dynspread_graph::{Graph, NodeId, Round};
use dynspread_runtime::engine::{EventCtx, EventProtocol};
use dynspread_runtime::event::VirtualTime;
use dynspread_runtime::faults::RecoveryMode;
use dynspread_runtime::link::LinkModel;
use dynspread_sim::protocol::{BroadcastProtocol, Outbox, UnicastProtocol};
use dynspread_sim::token::TokenSet;
use rand::rngs::StdRng;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use crate::json::Value;

/// The call sites the wrappers distinguish.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Slot {
    /// `Adversary::evolve` / `graph_for_round` (layer `graph`).
    Evolve,
    /// `UnicastProtocol::send` / `BroadcastProtocol::broadcast` (`core`).
    Send,
    /// Round-protocol `receive` (`core`).
    Receive,
    /// Round-protocol `end_round` (`core`).
    EndRound,
    /// `LinkModel::plan` (`runtime.link`).
    Plan,
    /// `EventProtocol::on_message` (`runtime.protocol`).
    OnMessage,
    /// `EventProtocol::on_timer` (`runtime.protocol`).
    OnTimer,
    /// `on_start`, `on_recover`, `on_heal` (`runtime.protocol`).
    OnOther,
}

impl Slot {
    /// Every slot, in booking order.
    pub const ALL: [Slot; 8] = [
        Slot::Evolve,
        Slot::Send,
        Slot::Receive,
        Slot::EndRound,
        Slot::Plan,
        Slot::OnMessage,
        Slot::OnTimer,
        Slot::OnOther,
    ];

    /// Where a slot's tally is booked: the name of its aggregate span
    /// (`layer.call`) and the raw keys its time and call count add to.
    /// The three handler slots share one time key.
    pub const fn keys(self) -> (&'static str, &'static str, &'static str) {
        match self {
            Slot::Evolve => ("graph.evolve", "graph.evolve_ns", "graph.evolve_calls"),
            Slot::Send => ("core.send", "core.send_ns", "core.send_calls"),
            Slot::Receive => ("core.receive", "core.receive_ns", "core.receive_calls"),
            Slot::EndRound => (
                "core.end_round",
                "core.end_round_ns",
                "core.end_round_calls",
            ),
            Slot::Plan => (
                "runtime.link.plan",
                "runtime.link.plan_ns",
                "runtime.link.plan_calls",
            ),
            Slot::OnMessage => (
                "runtime.protocol.on_message",
                "runtime.protocol.handler_ns",
                "runtime.protocol.on_message_calls",
            ),
            Slot::OnTimer => (
                "runtime.protocol.on_timer",
                "runtime.protocol.handler_ns",
                "runtime.protocol.on_timer_calls",
            ),
            Slot::OnOther => (
                "runtime.protocol.on_other",
                "runtime.protocol.handler_ns",
                "runtime.protocol.on_other_calls",
            ),
        }
    }
}

const SLOTS: usize = Slot::ALL.len();

/// Call count and accumulated nanoseconds of one slot.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Calls observed.
    pub calls: u64,
    /// Raw nanoseconds between the two clock reads, summed.
    pub ns: u64,
}

/// Shared accumulators of one cell's wrappers. Single-threaded by
/// construction (the harness runs one engine at a time), hence `Cell`.
#[derive(Debug, Default)]
pub struct Counters {
    slots: [Cell<Tally>; SLOTS],
    link_copies: Cell<u64>,
    link_drops: Cell<u64>,
}

impl Counters {
    /// Fresh shared counters.
    pub fn new() -> Rc<Counters> {
        Rc::new(Counters::default())
    }

    /// What slot `s` has accumulated.
    pub fn tally(&self, s: Slot) -> Tally {
        self.slots[s as usize].get()
    }

    /// Delivery copies the wrapped link planned.
    pub fn link_copies(&self) -> u64 {
        self.link_copies.get()
    }

    /// Transmissions for which the wrapped link planned no copy.
    pub fn link_drops(&self) -> u64 {
        self.link_drops.get()
    }

    /// Wrapped calls observed so far, over all slots.
    pub fn total_calls(&self) -> u64 {
        self.slots.iter().map(|c| c.get().calls).sum()
    }

    #[inline]
    fn time<R>(&self, s: Slot, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        let ns = start.elapsed().as_nanos() as u64;
        let cell = &self.slots[s as usize];
        let t = cell.get();
        cell.set(Tally {
            calls: t.calls + 1,
            ns: t.ns + ns,
        });
        r
    }
}

/// A value of a public trait, timed per call. See the module docs.
#[derive(Debug)]
pub struct Timed<T> {
    inner: T,
    acc: Rc<Counters>,
}

impl<T> Timed<T> {
    /// Wraps `inner`, accumulating into `acc`.
    pub fn new(inner: T, acc: &Rc<Counters>) -> Self {
        Timed {
            inner,
            acc: Rc::clone(acc),
        }
    }

    /// Wraps every element of `items` over the same counters.
    pub fn all(items: Vec<T>, acc: &Rc<Counters>) -> Vec<Timed<T>> {
        items.into_iter().map(|x| Timed::new(x, acc)).collect()
    }

    /// The wrapped value.
    pub fn inner(&self) -> &T {
        &self.inner
    }
}

impl<A: Adversary> Adversary for Timed<A> {
    fn graph_for_round(&mut self, round: Round, prev: &Graph) -> Graph {
        let Timed { inner, acc } = self;
        acc.time(Slot::Evolve, || inner.graph_for_round(round, prev))
    }

    fn evolve(&mut self, round: Round, prev: &Graph) -> GraphUpdate {
        let Timed { inner, acc } = self;
        acc.time(Slot::Evolve, || inner.evolve(round, prev))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl<P: UnicastProtocol> UnicastProtocol for Timed<P> {
    type Msg = P::Msg;

    fn send(&mut self, round: Round, neighbors: &[NodeId], out: &mut Outbox<P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::Send, || inner.send(round, neighbors, out))
    }

    fn receive(&mut self, round: Round, from: NodeId, msg: &P::Msg) {
        let Timed { inner, acc } = self;
        acc.time(Slot::Receive, || inner.receive(round, from, msg))
    }

    fn end_round(&mut self, round: Round) {
        let Timed { inner, acc } = self;
        acc.time(Slot::EndRound, || inner.end_round(round))
    }

    fn known_tokens(&self) -> &TokenSet {
        self.inner.known_tokens()
    }
}

impl<P: BroadcastProtocol> BroadcastProtocol for Timed<P> {
    type Msg = P::Msg;

    fn broadcast(&mut self, round: Round) -> Option<P::Msg> {
        let Timed { inner, acc } = self;
        acc.time(Slot::Send, || inner.broadcast(round))
    }

    fn receive(&mut self, round: Round, from: NodeId, msg: &P::Msg) {
        let Timed { inner, acc } = self;
        acc.time(Slot::Receive, || inner.receive(round, from, msg))
    }

    fn end_round(&mut self, round: Round) {
        let Timed { inner, acc } = self;
        acc.time(Slot::EndRound, || inner.end_round(round))
    }

    fn known_tokens(&self) -> &TokenSet {
        self.inner.known_tokens()
    }
}

impl<P: EventProtocol> EventProtocol for Timed<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::OnOther, || inner.on_start(ctx))
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut EventCtx<'_, P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::OnMessage, || inner.on_message(from, msg, ctx))
    }

    fn on_timer(&mut self, id: u64, ctx: &mut EventCtx<'_, P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::OnTimer, || inner.on_timer(id, ctx))
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::OnOther, || inner.on_recover(mode, ctx))
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, P::Msg>) {
        let Timed { inner, acc } = self;
        acc.time(Slot::OnOther, || inner.on_heal(ctx))
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        self.inner.known_tokens()
    }
}

impl<L: LinkModel> LinkModel for Timed<L> {
    fn plan(
        &self,
        from: NodeId,
        to: NodeId,
        now: VirtualTime,
        rng: &mut StdRng,
        fates: &mut Vec<VirtualTime>,
    ) {
        // The engines clear `fates` between transmissions, but a wrapping
        // combinator may not: count what this call appended.
        let before = fates.len();
        self.acc
            .time(Slot::Plan, || self.inner.plan(from, to, now, rng, fates));
        let copies = (fates.len() - before) as u64;
        self.acc
            .link_copies
            .set(self.acc.link_copies.get() + copies);
        if copies == 0 {
            self.acc.link_drops.set(self.acc.link_drops.get() + 1);
        }
    }

    fn min_latency(&self) -> VirtualTime {
        self.inner.min_latency()
    }

    fn describe(&self) -> String {
        self.inner.describe()
    }
}

/// What one wrapped call costs, measured once per traced pass by timing
/// a million wrapped no-ops: `call_ns` is the whole cost of a wrapper
/// (two clock reads plus bookkeeping), `inside_ns` the part of it that
/// lands between the two reads and is therefore booked to the callee.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Calibration {
    /// Nanoseconds one wrapped call adds to its caller's span.
    pub call_ns: f64,
    /// Nanoseconds of that which the wrapper books to the callee.
    pub inside_ns: f64,
}

impl Calibration {
    /// Measures the wrapper on this machine, now.
    pub fn measure() -> Calibration {
        const CALLS: u32 = 1_000_000;
        let acc = Counters::default();
        let start = Instant::now();
        for i in 0..CALLS {
            acc.time(Slot::Evolve, || std::hint::black_box(i));
        }
        let total = start.elapsed().as_nanos() as f64;
        Calibration {
            call_ns: total / CALLS as f64,
            inside_ns: acc.tally(Slot::Evolve).ns as f64 / CALLS as f64,
        }
    }

    /// The callee's own time: the raw sum minus the wrapper's share of
    /// it, floored at zero.
    pub fn callee_ns(&self, t: Tally) -> f64 {
        (t.ns as f64 - t.calls as f64 * self.inside_ns).max(0.0)
    }

    /// What `calls` wrapped calls cost the span around them beyond the
    /// callee's own time.
    pub fn overhead_ns(&self, calls: u64) -> f64 {
        calls as f64 * self.call_ns
    }
}

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Dotted name: a workload, `iteration`, a cell, `setup`/`run`/
    /// `verify`, or a layer aggregate such as `core.send`.
    pub name: String,
    /// Start, in ns since the recorder was created.
    pub start_ns: u64,
    /// End, in ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Calls folded into this span (0 = a plain interval). An aggregate
    /// stands for many short intervals inside its parent: its duration is
    /// their raw sum and it is laid out from the parent's start.
    pub calls: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span tree of one traced pass, kept in memory until the end.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty tree whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            calls: 0,
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: usize) {
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id].end_ns = self.now_ns();
    }

    /// Adds a closed aggregate child of `parent` standing for `t.calls`
    /// intervals totalling `t.ns`. Skipped when nothing was observed.
    pub fn aggregate(&mut self, parent: usize, name: impl Into<String>, t: Tally) {
        if t.calls == 0 {
            return;
        }
        let start = self.spans[parent].start_ns;
        self.spans.push(Span {
            name: name.into(),
            start_ns: start,
            end_ns: start + t.ns,
            parent: Some(parent),
            calls: t.calls,
        });
    }

    /// All spans, parents before children.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Duration of span `id`.
    pub fn duration_ns(&self, id: usize) -> u64 {
        self.spans[id].duration_ns()
    }

    /// Self time of span `id`: its duration minus its children's.
    /// `None` if the children claim more than the span lasted, which
    /// would mean an interval was attributed to the wrong parent.
    pub fn self_ns(&self, id: usize) -> Option<u64> {
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::duration_ns)
            .sum();
        self.spans[id].duration_ns().checked_sub(children)
    }

    /// The tree as a JSON array of `{name, start_ns, end_ns, parent,
    /// calls}` objects.
    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(&s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("calls", Value::Num(s.calls as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::PeriodicRewiring;

    #[test]
    fn timed_adversary_counts_calls_and_forwards_the_name() {
        let acc = Counters::new();
        let mut adv = Timed::new(PeriodicRewiring::new(Topology::RandomTree, 3, 1), &acc);
        let mut plain = PeriodicRewiring::new(Topology::RandomTree, 3, 1);
        assert_eq!(adv.name(), plain.name());
        let prev = Graph::empty(8);
        for r in 1..=4 {
            let a = format!("{:?}", adv.evolve(r, &prev));
            let b = format!("{:?}", plain.evolve(r, &prev));
            assert_eq!(a, b, "the wrapper must not change what the adversary does");
        }
        assert_eq!(acc.tally(Slot::Evolve).calls, 4);
        assert_eq!(acc.tally(Slot::Send).calls, 0);
    }

    #[test]
    fn spans_nest_and_self_time_accounts_for_children() {
        let mut spans = Spans::new();
        let root = spans.enter("root");
        let child = spans.enter("child");
        std::hint::black_box((0..1000).sum::<u64>());
        spans.exit(child);
        spans.aggregate(root, "agg", Tally { calls: 3, ns: 0 });
        spans.exit(root);
        assert_eq!(spans.all()[child].parent, Some(root));
        assert_eq!(spans.all().len(), 3);
        let own = spans.self_ns(root).expect("children fit inside the parent");
        assert_eq!(
            own + spans.duration_ns(child),
            spans.duration_ns(root),
            "self time plus children is the span"
        );
    }

    #[test]
    fn calibration_is_positive_and_corrections_never_go_negative() {
        let c = Calibration::measure();
        assert!(c.call_ns > 0.0 && c.inside_ns >= 0.0 && c.inside_ns <= c.call_ns);
        let c = Calibration {
            call_ns: 10.0,
            inside_ns: 4.0,
        };
        assert_eq!(c.callee_ns(Tally { calls: 10, ns: 50 }), 10.0);
        assert_eq!(c.callee_ns(Tally { calls: 10, ns: 30 }), 0.0);
        assert_eq!(c.overhead_ns(10), 100.0);
    }
}
