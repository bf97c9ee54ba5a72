//! Session multiplexing: many protocol instances behind one node.
//!
//! A [`SessionMux`] is itself an [`EventProtocol`] whose message type is
//! the [`WireEnvelope`]. Each node of the shared network runs one mux;
//! the mux holds one instance of the inner per-session protocol per
//! workload entry and routes by the envelope's [`SessionId`] stamp:
//!
//! * **join** — at a session's arrival time a control timer fires on
//!   every node and the inner instance's `on_start` runs, so the session
//!   begins exactly like a standalone run, just offset on the shared
//!   clock;
//! * **leave** — at the (optional) leave time the instance is dropped;
//!   envelopes and timers addressed to a departed (or never-joined, or
//!   unknown) session are discarded and counted, never dispatched;
//! * **dispatch** — inner handlers run against a sub-context
//!   (`EventCtx::with_inner`) of the inner message type; each send they
//!   stage is encoded once, into a buffer the node reuses, and re-staged
//!   through the outer context as **one envelope op over the inner op's
//!   destinations, in staging order**. The engine plans an op's
//!   destinations in order and schedules the surviving copies in plan
//!   order, so one n-destination op draws the seeded link RNG and fills
//!   the queue exactly as n single sends would — the same stream a
//!   standalone run of that protocol draws. This is what makes a
//!   single-session mux run reproduce the standalone engine run (see
//!   `tests/determinism.rs`);
//! * **timers** — inner timer IDs are remapped into the session's slice
//!   of the 64-bit timer-ID space (`idx << 32 | id`, with two high flag
//!   bits reserved for the join/leave control timers), so sessions cannot
//!   observe each other's heartbeats;
//! * **faults** — on recovery the mux re-derives its control schedule
//!   from the workload (crash-orphaned joins re-fire immediately, leaves
//!   that elapsed during the outage are applied) and forwards
//!   `on_recover`/`on_heal` to every live session instance.
//!
//! Cross-session accounting lives in the shared [`SessionBoard`]: per
//! session, the staged envelope count, delivered envelope count, a
//! chain-hashed header digest (a lightweight per-session transcript,
//! byte-identical under replay), per-node completion, and the virtual
//! time at which the *last* node completed — the session's latency
//! numerator.

use std::sync::{Arc, Mutex, MutexGuard};

use bincodec::{Decode, Encode};
use dynspread_graph::NodeId;
use dynspread_sim::token::TokenSet;

use crate::byzantine::transcript::fnv1a;
use crate::engine::{EventCtx, EventProtocol, SendOp};
use crate::event::VirtualTime;
use crate::faults::RecoveryMode;

use super::wire::{SessionId, WireEnvelope};
use super::workload::{SessionSpec, SessionWorkload, MAX_SESSIONS};

/// Control-timer flag: this timer is a session join.
const JOIN_FLAG: u64 = 1 << 63;
/// Control-timer flag: this timer is a session leave.
const LEAVE_FLAG: u64 = 1 << 62;
/// Inner timer IDs must fit the low 32 bits of the packed timer ID.
const INNER_TIMER_LIMIT: u64 = 1 << 32;

/// Shared cross-node scoreboard: one row per session.
///
/// The engine is single-threaded, so updates arrive in deterministic
/// event order; the mutex exists only so whole-run outcomes can move
/// across threads (`par_map` fans independent runs out across cores).
/// A mux takes the lock once per event it handles for a session and
/// chains all of that event's notes under it: the receive first, then
/// the sends in staging order, then the node's completion.
#[derive(Debug)]
pub struct SessionBoard {
    n: usize,
    cells: Mutex<Vec<BoardCell>>,
}

#[derive(Clone, Debug)]
struct BoardCell {
    done: Vec<bool>,
    done_count: usize,
    completed_at: Option<VirtualTime>,
    sent: u64,
    delivered: u64,
    digest: u64,
}

/// One session's accounting snapshot, read back after the run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SessionStats {
    /// Envelopes staged onto links for this session (per destination,
    /// before link loss).
    pub sent: u64,
    /// Envelopes delivered and dispatched to this session's instances.
    pub delivered: u64,
    /// Nodes whose instance reached full knowledge of the session's
    /// token universe.
    pub complete_nodes: usize,
    /// Virtual time at which the last node completed, if all did.
    pub completed_at: Option<VirtualTime>,
    /// Chain-hashed digest over this session's send/receive headers —
    /// a lightweight transcript, byte-identical under seeded replay.
    pub digest: u64,
}

impl SessionBoard {
    /// A board for `sessions` sessions over `n` nodes.
    pub fn new(n: usize, sessions: usize) -> Self {
        SessionBoard {
            n,
            cells: Mutex::new(vec![
                BoardCell {
                    done: vec![false; n],
                    done_count: 0,
                    completed_at: None,
                    sent: 0,
                    delivered: 0,
                    digest: 0,
                };
                sessions
            ]),
        }
    }

    /// The node count sessions complete against.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// This session's accounting snapshot.
    pub fn stats(&self, session: usize) -> SessionStats {
        let cells = self.cells();
        let cell = &cells[session];
        SessionStats {
            sent: cell.sent,
            delivered: cell.delivered,
            complete_nodes: cell.done_count,
            completed_at: cell.completed_at,
            digest: cell.digest,
        }
    }

    fn cells(&self) -> MutexGuard<'_, Vec<BoardCell>> {
        self.cells.lock().expect("board poisoned")
    }
}

impl BoardCell {
    fn chain(&mut self, tag: u8, t: VirtualTime, from: NodeId, to: NodeId, len: usize) {
        let mut buf = [0u8; 29];
        buf[0..8].copy_from_slice(&self.digest.to_le_bytes());
        buf[8] = tag;
        buf[9..17].copy_from_slice(&t.to_le_bytes());
        buf[17..21].copy_from_slice(&from.value().to_le_bytes());
        buf[21..25].copy_from_slice(&to.value().to_le_bytes());
        buf[25..29].copy_from_slice(&(len as u32).to_le_bytes());
        self.digest = fnv1a(&buf);
    }

    fn note_send(&mut self, t: VirtualTime, from: NodeId, to: NodeId, len: usize) {
        self.sent += 1;
        self.chain(b'S', t, from, to, len);
    }

    fn note_recv(&mut self, t: VirtualTime, from: NodeId, to: NodeId, len: usize) {
        self.delivered += 1;
        self.chain(b'R', t, from, to, len);
    }

    fn node_complete(&mut self, v: NodeId, now: VirtualTime) {
        if !self.done[v.index()] {
            self.done[v.index()] = true;
            self.done_count += 1;
            if self.done_count == self.done.len() {
                self.completed_at = Some(now);
            }
        }
    }
}

struct Slot<P> {
    arrival: VirtualTime,
    leave: Option<VirtualTime>,
    joined: bool,
    state: Option<P>,
    done_reported: bool,
    initial_known: usize,
}

/// One node's view of every session: the session-multiplexing protocol.
///
/// See the [module docs](self) for semantics. Build the full network
/// with [`SessionMux::nodes`].
pub struct SessionMux<P: EventProtocol> {
    board: Arc<SessionBoard>,
    // Apart from the board so that a handler can hold the board's lock
    // while it dispatches.
    node: MuxNode<P>,
}

struct MuxNode<P: EventProtocol> {
    me: NodeId,
    slots: Vec<Slot<P>>,
    // Scratch buffers reused across dispatches (cleared after each).
    ops: Vec<SendOp<P::Msg>>,
    dests: Vec<NodeId>,
    timers: Vec<(VirtualTime, u64)>,
    wire: Vec<u8>,
    decode_errors: u64,
    foreign_drops: u64,
}

impl<P: EventProtocol> SessionMux<P> {
    /// Builds node `v`'s mux: one inner instance per workload session,
    /// created by `factory(v, session_index, spec)`.
    pub fn new(
        me: NodeId,
        workload: &SessionWorkload,
        board: Arc<SessionBoard>,
        factory: &mut impl FnMut(NodeId, usize, &SessionSpec) -> P,
    ) -> Self {
        assert_eq!(board.node_count(), workload.node_count(), "board size");
        assert!(workload.len() <= MAX_SESSIONS, "too many sessions");
        let slots = workload
            .specs()
            .iter()
            .enumerate()
            .map(|(i, spec)| {
                let state = factory(me, i, spec);
                let initial_known = state.known_tokens().map_or(0, TokenSet::count);
                Slot {
                    arrival: spec.arrival,
                    leave: spec.leave,
                    joined: false,
                    state: Some(state),
                    done_reported: false,
                    initial_known,
                }
            })
            .collect();
        SessionMux {
            board,
            node: MuxNode {
                me,
                slots,
                ops: Vec::new(),
                dests: Vec::new(),
                timers: Vec::new(),
                wire: Vec::new(),
                decode_errors: 0,
                foreign_drops: 0,
            },
        }
    }

    /// Builds the whole network's muxes plus their shared board.
    pub fn nodes(
        workload: &SessionWorkload,
        factory: impl Fn(NodeId, usize, &SessionSpec) -> P,
    ) -> (Vec<Self>, Arc<SessionBoard>) {
        let board = Arc::new(SessionBoard::new(workload.node_count(), workload.len()));
        let mut factory = |v, i, spec: &SessionSpec| factory(v, i, spec);
        let nodes = NodeId::all(workload.node_count())
            .map(|v| SessionMux::new(v, workload, Arc::clone(&board), &mut factory))
            .collect();
        (nodes, board)
    }

    /// This session's inner instance, if it joined and has not left.
    pub fn session_state(&self, session: usize) -> Option<&P> {
        let slot = self.node.slots.get(session)?;
        if slot.joined {
            slot.state.as_ref()
        } else {
            None
        }
    }

    /// Tokens this node learned for `session` beyond its initial
    /// knowledge (0 for untracked protocols or departed sessions).
    pub fn learned(&self, session: usize) -> u64 {
        let Some(slot) = self.node.slots.get(session) else {
            return 0;
        };
        let Some(state) = slot.state.as_ref().filter(|_| slot.joined) else {
            return 0;
        };
        state
            .known_tokens()
            .map_or(0, |kn| kn.count().saturating_sub(slot.initial_known) as u64)
    }

    /// Envelopes whose payload failed to decode (always 0 in honest
    /// runs; a nonzero count means payload corruption crossed the wire).
    pub fn decode_errors(&self) -> u64 {
        self.node.decode_errors
    }

    /// Envelopes addressed to unknown, not-yet-joined, or departed
    /// sessions — dropped at the boundary, never dispatched.
    pub fn foreign_drops(&self) -> u64 {
        self.node.foreign_drops
    }
}

impl<P: EventProtocol> MuxNode<P>
where
    P::Msg: Encode,
{
    /// Runs one inner handler for `session` through a sub-context, then
    /// re-stages its sends as envelopes and remaps its timers. Order is
    /// load-bearing: each inner op goes out as one envelope op over the
    /// same destinations, in staging order, which keeps the engine's
    /// link-planning RNG stream aligned with what a standalone run of the
    /// inner protocol draws. The board notes go to `cells`, which the
    /// caller locked once for the whole event.
    fn dispatch(
        &mut self,
        cells: &mut [BoardCell],
        session: usize,
        ctx: &mut EventCtx<'_, WireEnvelope>,
        f: impl FnOnce(&mut P, &mut EventCtx<'_, P::Msg>),
    ) {
        let MuxNode {
            me,
            slots,
            ops,
            dests,
            timers,
            wire,
            ..
        } = self;
        let slot = &mut slots[session];
        let Some(state) = slot.state.as_mut() else {
            return;
        };
        debug_assert!(ops.is_empty() && dests.is_empty() && timers.is_empty());
        ctx.with_inner(ops, dests, timers, |sub| f(state, sub));
        let sid = SessionId::new(session as u32);
        let cell = &mut cells[session];
        let now = ctx.now();
        for op in ops.drain(..) {
            let to = &dests[op.first as usize..(op.first + op.count) as usize];
            let env = WireEnvelope::encode_msg_with(sid, &op.msg, wire);
            for &v in to {
                cell.note_send(now, *me, v, env.payload.len());
            }
            ctx.send_each(to, env);
        }
        dests.clear();
        for &(delay, id) in timers.iter() {
            assert!(
                id < INNER_TIMER_LIMIT,
                "inner timer id {id} exceeds the mux's 32-bit field"
            );
            ctx.set_timer(delay, ((session as u64) << 32) | id);
        }
        timers.clear();
        if !slot.done_reported {
            let complete = slot
                .state
                .as_ref()
                .is_some_and(|s| s.known_tokens().is_some_and(TokenSet::is_full));
            if complete {
                slot.done_reported = true;
                cell.node_complete(*me, now);
            }
        }
    }

    fn join(
        &mut self,
        cells: &mut [BoardCell],
        session: usize,
        ctx: &mut EventCtx<'_, WireEnvelope>,
    ) {
        let Some(slot) = self.slots.get_mut(session) else {
            return;
        };
        if slot.joined || slot.state.is_none() {
            return;
        }
        slot.joined = true;
        self.dispatch(cells, session, ctx, |state, sub| state.on_start(sub));
    }
}

impl<P: EventProtocol> EventProtocol for SessionMux<P>
where
    P::Msg: Encode + Decode,
{
    type Msg = WireEnvelope;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, WireEnvelope>) {
        for (i, slot) in self.node.slots.iter().enumerate() {
            ctx.set_timer(slot.arrival, JOIN_FLAG | i as u64);
            if let Some(leave) = slot.leave {
                ctx.set_timer(leave, LEAVE_FLAG | i as u64);
            }
        }
    }

    fn on_message(
        &mut self,
        from: NodeId,
        env: &WireEnvelope,
        ctx: &mut EventCtx<'_, WireEnvelope>,
    ) {
        let node = &mut self.node;
        let session = env.session.index();
        let live = node
            .slots
            .get(session)
            .is_some_and(|s| s.joined && s.state.is_some());
        if !live {
            node.foreign_drops += 1;
            return;
        }
        let msg = match env.decode_msg::<P::Msg>() {
            Ok(msg) => msg,
            Err(_) => {
                node.decode_errors += 1;
                return;
            }
        };
        let mut cells = self.board.cells();
        cells[session].note_recv(ctx.now(), from, node.me, env.payload.len());
        node.dispatch(&mut cells, session, ctx, |state, sub| {
            state.on_message(from, &msg, sub)
        });
    }

    fn on_timer(&mut self, id: u64, ctx: &mut EventCtx<'_, WireEnvelope>) {
        let node = &mut self.node;
        if id & JOIN_FLAG != 0 {
            node.join(&mut self.board.cells(), (id & !JOIN_FLAG) as usize, ctx);
        } else if id & LEAVE_FLAG != 0 {
            if let Some(slot) = node.slots.get_mut((id & !LEAVE_FLAG) as usize) {
                slot.state = None;
            }
        } else {
            let session = (id >> 32) as usize;
            let inner = id & (INNER_TIMER_LIMIT - 1);
            if node.slots.get(session).is_some_and(|s| s.joined) {
                node.dispatch(&mut self.board.cells(), session, ctx, |state, sub| {
                    state.on_timer(inner, sub)
                });
            }
        }
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, WireEnvelope>) {
        // Every timer from before the crash — control and inner alike —
        // was orphaned by the engine. Re-derive the control schedule from
        // the workload relative to `now`, then let live sessions run
        // their own recovery.
        let now = ctx.now();
        let node = &mut self.node;
        let mut cells = self.board.cells();
        for i in 0..node.slots.len() {
            let (joined, arrival, leave, has_state) = {
                let s = &node.slots[i];
                (s.joined, s.arrival, s.leave, s.state.is_some())
            };
            if !joined {
                // Future join re-arms at its original time; a join that
                // was due during the outage fires immediately.
                ctx.set_timer(arrival.saturating_sub(now), JOIN_FLAG | i as u64);
                continue;
            }
            if !has_state {
                continue;
            }
            match leave {
                Some(l) if l <= now => {
                    // The leave elapsed while we were down.
                    node.slots[i].state = None;
                }
                other => {
                    if let Some(l) = other {
                        ctx.set_timer(l - now, LEAVE_FLAG | i as u64);
                    }
                    node.dispatch(&mut cells, i, ctx, |state, sub| state.on_recover(mode, sub));
                }
            }
        }
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, WireEnvelope>) {
        let node = &mut self.node;
        let mut cells = self.board.cells();
        for i in 0..node.slots.len() {
            if node.slots[i].joined && node.slots[i].state.is_some() {
                node.dispatch(&mut cells, i, ctx, |state, sub| state.on_heal(sub));
            }
        }
    }

    // Deliberately `None`: the engine-level token tracker models one
    // dissemination job, while the mux runs many. Completion lives on
    // the `SessionBoard`; service runs end at quiescence or `max_time`.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EventSim, StopReason};
    use crate::link::{LinkModelExt, PerfectLink};
    use crate::protocol::{AsyncConfig, AsyncSingleSource};
    use dynspread_graph::generators::Topology;
    use dynspread_graph::oblivious::PeriodicRewiring;

    fn workload(n: usize) -> SessionWorkload {
        let mut w = SessionWorkload::new(n);
        w.push(SessionSpec::single_source("a", 0, n, 3, NodeId::new(0)));
        w.push(SessionSpec::single_source("b", 40, n, 2, NodeId::new(1)));
        w
    }

    fn service(
        _n: usize,
        w: &SessionWorkload,
    ) -> (
        EventSim<SessionMux<AsyncSingleSource>, PeriodicRewiring, impl crate::link::LinkModel>,
        Arc<SessionBoard>,
    ) {
        let (nodes, board) = SessionMux::nodes(w, |v, _i, spec| {
            AsyncSingleSource::new(v, &spec.assignment, AsyncConfig::default())
        });
        let sim = EventSim::new(
            nodes,
            PeriodicRewiring::new(Topology::RandomTree, 3, 5),
            PerfectLink.lossy(0.2).with_jitter(1),
            2,
            9,
        );
        (sim, board)
    }

    #[test]
    fn overlapping_sessions_both_complete() {
        let n = 8;
        let w = workload(n);
        let (mut sim, board) = service(n, &w);
        let report = sim.run(200_000);
        assert_eq!(report.stopped, StopReason::Quiescent, "{report:?}");
        for s in 0..2 {
            let stats = board.stats(s);
            assert_eq!(stats.complete_nodes, n, "session {s}: {stats:?}");
            let done = stats.completed_at.expect("completed");
            assert!(done >= w.specs()[s].arrival);
            assert!(stats.sent > 0 && stats.delivered > 0);
        }
        // The later session cannot complete before it arrives.
        assert!(board.stats(1).completed_at.unwrap() > 40);
        for v in NodeId::all(n) {
            assert_eq!(sim.node(v).decode_errors(), 0);
            assert_eq!(sim.node(v).foreign_drops(), 0);
        }
    }

    #[test]
    fn session_replay_is_byte_identical() {
        let n = 8;
        let w = workload(n);
        let fingerprint = |(mut sim, board): (
            EventSim<SessionMux<AsyncSingleSource>, PeriodicRewiring, _>,
            Arc<SessionBoard>,
        )| {
            let report = sim.run(200_000);
            format!("{report:?} {:?} {:?}", board.stats(0), board.stats(1))
        };
        assert_eq!(fingerprint(service(n, &w)), fingerprint(service(n, &w)));
    }

    #[test]
    fn departed_sessions_drop_traffic_instead_of_dispatching() {
        let n = 6;
        let mut w = SessionWorkload::new(n);
        // Leaves long before the 3-token job can finish under 60% loss.
        w.push(SessionSpec::single_source("gone", 0, n, 3, NodeId::new(0)).leaving_at(4));
        let (nodes, board) = SessionMux::nodes(&w, |v, _i, spec| {
            AsyncSingleSource::new(v, &spec.assignment, AsyncConfig::default())
        });
        let mut sim = EventSim::new(
            nodes,
            PeriodicRewiring::new(Topology::RandomTree, 3, 5),
            PerfectLink.lossy(0.6).with_jitter(3),
            2,
            11,
        );
        let report = sim.run(50_000);
        assert_eq!(report.stopped, StopReason::Quiescent);
        assert_eq!(board.stats(0).completed_at, None);
        let drops: u64 = NodeId::all(n).map(|v| sim.node(v).foreign_drops()).sum();
        assert!(drops > 0, "in-flight envelopes outlive the session");
        for v in NodeId::all(n) {
            assert!(sim.node(v).session_state(0).is_none());
        }
    }
}
