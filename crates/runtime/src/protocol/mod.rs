//! Asynchronous ports of the paper's dissemination algorithms.
//!
//! The round-based algorithms in `dynspread-core` assume the synchronous
//! model's reliability: every message sent in round `r` arrives in round
//! `r`. Run over a lossy link they can deadlock — Algorithm 1 announces
//! completeness to each neighbor *once ever*, so a single dropped
//! announcement silences that edge forever. The protocols here are true
//! [`EventProtocol`](crate::engine::EventProtocol) ports that own their
//! reliability instead of inheriting it from the model:
//!
//! * **Explicit retransmission.** Unacknowledged completeness
//!   announcements, unanswered token requests, and discovery probes are
//!   re-sent on a per-node heartbeat timer with adaptive backoff
//!   ([`Retransmitter`]): the interval resets to
//!   [`AsyncConfig::base_interval`] whenever the node makes progress and
//!   doubles (capped at [`AsyncConfig::max_interval`]) while it does not.
//! * **Ack/dedup state.** Announcements are acknowledged; the ack bit is
//!   the monotone `R_v` of the shared
//!   [`CompletenessLedger`](dynspread_core::dissemination::CompletenessLedger)
//!   (single source, at source index 0) or
//!   [`PeerLedger`](dynspread_core::dissemination::PeerLedger) (multi-source).
//!   Token application is at-most-once by construction
//!   (`DisseminationCore::accept_token` is a set insert), so duplicated
//!   or retransmitted deliveries are harmless.
//! * **Pull-based discovery.** Incomplete nodes probe neighbors they know
//!   nothing about, so a complete node that went quiet is re-discovered
//!   after the adversary rewires the topology — the push path (announce
//!   until acked) and the pull path (probe until answered) together keep
//!   the protocol live under churn *and* loss.
//!
//! The decision logic — which tokens to request, from whom, the
//! distinct-missing-token assignment per channel — is **not** duplicated
//! here: it is the same [`DisseminationCore`] that drives the round-based
//! nodes, fed from per-neighbor retransmission windows (the crate-private
//! `RequestWindow`) instead of per-round edge sweeps. Nor is the channel
//! bookkeeping duplicated between the two unicast ports: [`Requests`]
//! keeps the core's in-flight set in step with the open windows for both,
//! as [`dissemination::Requests`](dynspread_core::dissemination::Requests)
//! does with the edge tracker for the round-based nodes.
//!
//! # Running the ports
//!
//! [`Scenario`](crate::scenario::Scenario) is the driver for all three:
//! `run_single_source` and `run_multi_source` run [`AsyncSingleSource`]
//! and [`AsyncMultiSource`] to full dissemination, and `run_oblivious`
//! runs [`AsyncOblivious`] as phase 1 of the two-phase pipeline, hands
//! the resolved token owners over as sources, and runs
//! [`AsyncMultiSource`] as phase 2 — each under any combination of link
//! model, fault plan, Byzantine plan and tracer. The node types can also
//! be put under a raw [`EventSim`](crate::engine::EventSim) directly.
//!
//! # Conformance contract
//!
//! Where the models coincide the ports must agree with the round-based
//! references: under [`PerfectLink`](crate::link::PerfectLink) with zero
//! latency, an [`AsyncSingleSource`] / [`AsyncMultiSource`] execution
//! reaches the same per-node final token sets (and the same `k(n−1)`
//! learning count) as `UnicastSim` running `SingleSourceNode` /
//! `MultiSourceNode` against the same adversary; under 30% drop it must
//! still reach full dissemination, with bounded virtual-time overhead and
//! seeded replay-identity. This is asserted by `tests/async_conformance.rs`
//! at the workspace root; `crates/runtime/README.md` documents the
//! contract.

mod multi_source;
mod oblivious;
mod single_source;

pub use multi_source::{AsyncMsMsg, AsyncMultiSource};
pub use oblivious::{AsyncOblMsg, AsyncOblivious, AsyncObliviousConfig};
pub use single_source::{AsyncSingleSource, AsyncSsMsg};

use crate::engine::EventCtx;
use crate::event::VirtualTime;
use dynspread_core::dissemination::DisseminationCore;
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenId, TokenSet};
use std::collections::BTreeMap;

/// Tuning knobs of the asynchronous ports' retransmission machinery.
#[derive(Clone, Copy, Debug)]
pub struct AsyncConfig {
    /// Heartbeat interval while the node is making progress, in virtual
    /// ticks (≥ 1).
    pub base_interval: VirtualTime,
    /// Backoff ceiling: the heartbeat interval doubles per fruitless
    /// cycle up to this value (≥ `base_interval`).
    pub max_interval: VirtualTime,
}

impl Default for AsyncConfig {
    fn default() -> Self {
        AsyncConfig {
            base_interval: 2,
            max_interval: 32,
        }
    }
}

/// Adaptive-backoff pacing for one node's heartbeat timer.
///
/// The delay sequence is `base, 2·base, 4·base, … , max` while no
/// progress is observed, snapping back to `base` on progress — the
/// classic retransmission backoff, on the virtual clock.
///
/// # Examples
///
/// ```
/// use dynspread_runtime::protocol::{AsyncConfig, Retransmitter};
///
/// let mut r = Retransmitter::new(AsyncConfig { base_interval: 2, max_interval: 16 });
/// assert_eq!(r.next_delay(), 4); // no progress: double
/// assert_eq!(r.next_delay(), 8);
/// r.note_progress();
/// assert_eq!(r.next_delay(), 2); // progress: reset to base
/// ```
#[derive(Clone, Debug)]
pub struct Retransmitter {
    base: VirtualTime,
    max: VirtualTime,
    current: VirtualTime,
    progress: bool,
}

impl Retransmitter {
    /// Creates the pacer; the first armed delay is `base_interval`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 ≤ base_interval ≤ max_interval`.
    pub fn new(cfg: AsyncConfig) -> Self {
        assert!(cfg.base_interval >= 1, "base_interval must be ≥ 1");
        assert!(
            cfg.max_interval >= cfg.base_interval,
            "max_interval must be ≥ base_interval"
        );
        Retransmitter {
            base: cfg.base_interval,
            max: cfg.max_interval,
            current: cfg.base_interval,
            progress: false,
        }
    }

    /// Records that the node made progress since the last heartbeat
    /// (learned a token, a new ack, a new complete peer).
    pub fn note_progress(&mut self) {
        self.progress = true;
    }

    /// [`note_progress`](Self::note_progress), traced as a backoff reset.
    pub fn progress<M: Clone>(&mut self, ctx: &mut EventCtx<'_, M>) {
        self.note_progress();
        ctx.note_backoff_reset();
    }

    /// The delay to arm for the next heartbeat: `base` after progress,
    /// doubled (up to `max`) without. Clears the progress flag.
    pub fn next_delay(&mut self) -> VirtualTime {
        self.current = if self.progress {
            self.base
        } else {
            self.current.saturating_mul(2).min(self.max)
        };
        self.progress = false;
        self.current
    }

    /// The most recently armed delay (the initial `base` before any
    /// heartbeat fired).
    pub fn current(&self) -> VirtualTime {
        self.current
    }

    /// Snaps the pacer back to its construction state: the next armed
    /// delay is `base` again and no progress is pending. Used when the
    /// network heals (a partition ends) or a node rejoins after a crash —
    /// a capped backoff from before the outage would otherwise delay
    /// resynchronization by up to `max_interval` ticks.
    pub fn reset(&mut self) {
        self.current = self.base;
        self.progress = false;
    }
}

/// Per-neighbor outstanding-request windows (window size 1): the round
/// model's one request per edge per round, kept per neighbor, each entry
/// doubling as the retransmission record until the token arrives or the
/// neighbor churns away. An entry's tag `S` is nothing for a request and
/// the sequence number for a walk transfer. Sparse, in ascending neighbor
/// ID order (the order of release).
#[derive(Clone, Debug, Default)]
pub(crate) struct RequestWindow<S = ()> {
    slots: BTreeMap<NodeId, (TokenId, S)>,
}

impl<S: Copy + PartialEq> RequestWindow<S> {
    /// The token currently requested from `u`, if any.
    pub(crate) fn outstanding(&self, u: NodeId) -> Option<TokenId> {
        self.slots.get(&u).map(|&(t, _)| t)
    }

    /// Whether no window is open.
    pub(crate) fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The open windows in ascending neighbor ID order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (NodeId, TokenId, S)> + '_ {
        self.slots.iter().map(|(&u, &(t, tag))| (u, t, tag))
    }

    /// Opens the window to `u` with a request for `t`.
    pub(crate) fn open(&mut self, u: NodeId, t: TokenId, tag: S) {
        let prev = self.slots.insert(u, (t, tag));
        debug_assert!(prev.is_none(), "window already open");
    }

    /// Closes the window to `u` if it holds exactly `(t, tag)`; returns
    /// whether it did.
    pub(crate) fn close(&mut self, u: NodeId, t: TokenId, tag: S) -> bool {
        if self.slots.get(&u) == Some(&(t, tag)) {
            self.slots.remove(&u);
            true
        } else {
            false
        }
    }

    /// Drops every window whose neighbor is not in the (sorted) current
    /// neighbor list, handing each abandoned token to `release` so it
    /// becomes assignable to live channels again. Releases in ascending
    /// neighbor ID order.
    pub(crate) fn sweep_stale(&mut self, neighbors: &[NodeId], mut release: impl FnMut(TokenId)) {
        self.slots.retain(|u, &mut (t, _)| {
            if neighbors.binary_search(u).is_ok() {
                true
            } else {
                release(t);
                false
            }
        });
    }

    /// Drops every window (the node completed), releasing the tokens in
    /// ascending neighbor ID order.
    pub(crate) fn clear_all(&mut self, mut release: impl FnMut(TokenId)) {
        for (_, (t, _)) in std::mem::take(&mut self.slots) {
            release(t);
        }
    }
}

/// The event model's request side, written once for [`AsyncSingleSource`]
/// and [`AsyncMultiSource`]: a [`DisseminationCore`] whose in-flight set
/// this type alone keeps in step with one request window per neighbor. The
/// ports choose whom to ask and send: a method that opens or re-sends a
/// request returns the token to ask for.
#[derive(Clone, Debug)]
pub struct Requests {
    core: DisseminationCore,
    window: RequestWindow,
}

impl Requests {
    /// The request side of `core`, with no request open.
    pub fn new(core: DisseminationCore) -> Self {
        Requests {
            core,
            window: RequestWindow::default(),
        }
    }

    /// The decision state: `K_v` and the in-flight set.
    pub fn core(&self) -> &DisseminationCore {
        &self.core
    }

    /// Whether a request to `u` is open.
    pub fn is_open(&self, u: NodeId) -> bool {
        self.window.outstanding(u).is_some()
    }

    /// Starts an assignment pass over `scope` (every token if `None`).
    pub fn refill(&mut self, scope: Option<&TokenSet>) {
        match scope {
            Some(scope) => self.core.refill_within(scope),
            None => self.core.refill(),
        }
    }

    /// Opens a request to `u` from the current pass if `u`'s window is free.
    pub fn assign(&mut self, u: NodeId) -> Option<TokenId> {
        if self.is_open(u) {
            return None;
        }
        let t = self.core.assign_next()?;
        self.window.open(u, t, ());
        Some(t)
    }

    /// [`assign`](Self::assign) from a fresh pass over `scope`.
    pub fn request(&mut self, u: NodeId, scope: Option<&TokenSet>) -> Option<TokenId> {
        if self.is_open(u) {
            return None;
        }
        self.refill(scope);
        self.assign(u)
    }

    /// Token `t` arrived from `from`: returns whether it is new to `K_v`.
    pub fn receive_token(&mut self, from: NodeId, t: TokenId) -> bool {
        self.window.close(from, t, ());
        self.core.release(t);
        self.core.accept_token(t)
    }

    /// Drops every open request (completion, crash-amnesia).
    pub fn forget(&mut self) {
        self.window.clear_all(|t| self.core.release(t));
    }

    /// A heartbeat's first step: drops the requests to churned-away
    /// neighbors. One [`refill`](Self::refill) then serves the heartbeat, as
    /// one pass serves a round in the round model.
    pub fn sweep(&mut self, neighbors: &[NodeId]) {
        self.window.sweep_stale(neighbors, |t| self.core.release(t));
    }

    /// The token to re-send to `u`, if any; retires a request since answered.
    pub fn resend(&mut self, u: NodeId) -> Option<TokenId> {
        let t = self.window.outstanding(u)?;
        if !self.core.known_tokens().contains(t) {
            return Some(t);
        }
        self.window.close(u, t, ());
        self.core.release(t);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_to_cap_and_resets_on_progress() {
        let mut r = Retransmitter::new(AsyncConfig {
            base_interval: 3,
            max_interval: 20,
        });
        assert_eq!(r.current(), 3);
        assert_eq!(r.next_delay(), 6);
        assert_eq!(r.next_delay(), 12);
        assert_eq!(r.next_delay(), 20, "capped at max");
        assert_eq!(r.next_delay(), 20);
        r.note_progress();
        assert_eq!(r.next_delay(), 3);
        assert_eq!(r.next_delay(), 6, "progress flag is consumed");
    }

    #[test]
    fn reset_restores_base_and_clears_progress() {
        let mut r = Retransmitter::new(AsyncConfig {
            base_interval: 2,
            max_interval: 32,
        });
        assert_eq!(r.next_delay(), 4);
        assert_eq!(r.next_delay(), 8);
        r.note_progress();
        r.reset();
        assert_eq!(r.current(), 2, "reset snaps to base immediately");
        assert_eq!(r.next_delay(), 4, "and the progress flag is gone");
    }

    #[test]
    #[should_panic(expected = "base_interval")]
    fn zero_base_interval_is_rejected() {
        let _ = Retransmitter::new(AsyncConfig {
            base_interval: 0,
            max_interval: 4,
        });
    }

    #[test]
    fn window_lifecycle() {
        let mut w = RequestWindow::default();
        let (u, v) = (NodeId::new(1), NodeId::new(3));
        let (a, b) = (TokenId::new(5), TokenId::new(7));
        assert_eq!(w.outstanding(u), None);
        w.open(u, a, ());
        w.open(v, b, ());
        assert_eq!(w.outstanding(u), Some(a));
        assert!(!w.close(u, b, ()), "wrong token leaves the window open");
        assert!(w.close(u, a, ()));
        assert_eq!(w.outstanding(u), None);
        // Sweep: v is no longer a neighbor → its token is released.
        let mut released = Vec::new();
        w.sweep_stale(&[u], |t| released.push(t));
        assert_eq!(released, vec![b]);
        assert_eq!(w.outstanding(v), None);
    }

    #[test]
    fn clear_all_releases_everything() {
        let mut w = RequestWindow::default();
        w.open(NodeId::new(0), TokenId::new(1), ());
        w.open(NodeId::new(2), TokenId::new(2), ());
        let mut released = Vec::new();
        w.clear_all(|t| released.push(t));
        assert_eq!(released.len(), 2);
        assert_eq!(w.outstanding(NodeId::new(0)), None);
    }
}
