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
//! nodes, fed from per-neighbor retransmission windows instead of
//! per-round edge sweeps. Nor is the channel bookkeeping duplicated:
//! [`Requests`] keeps the core's in-flight set in step with the open
//! requests for both unicast ports, as
//! [`dissemination::Requests`](dynspread_core::dissemination::Requests)
//! does with the edge tracker for the round-based nodes, and both — like
//! [`AsyncOblivious`]'s walk transfers — keep them in one
//! [`Outstanding`] record.
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
use dynspread_core::edge_history::Outstanding;
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenId, TokenSet};

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

/// The event model's request side, written once for [`AsyncSingleSource`]
/// and [`AsyncMultiSource`]: a [`DisseminationCore`] whose in-flight set
/// this type alone keeps in step with an [`Outstanding`] record of at most
/// one request per neighbor. The ports choose whom to ask and send: a
/// method that opens or re-sends a request returns the token to ask for.
#[derive(Clone, Debug)]
pub struct Requests {
    core: DisseminationCore,
    pending: Outstanding,
}

impl Requests {
    /// The request side of `core`, with no request open.
    pub fn new(core: DisseminationCore) -> Self {
        Requests {
            core,
            pending: Outstanding::default(),
        }
    }

    /// The decision state: `K_v` and the in-flight set.
    pub fn core(&self) -> &DisseminationCore {
        &self.core
    }

    /// Whether a request to `u` is open.
    pub fn is_open(&self, u: NodeId) -> bool {
        self.pending.outstanding(u).is_some()
    }

    /// Starts an assignment pass over `scope` (every token if `None`).
    pub fn refill(&mut self, scope: Option<&TokenSet>) {
        match scope {
            Some(scope) => self.core.refill_within(scope),
            None => self.core.refill(),
        }
    }

    /// Opens a request to `u` from the current pass if none is open to `u`.
    pub fn assign(&mut self, u: NodeId) -> Option<TokenId> {
        if self.is_open(u) {
            return None;
        }
        let t = self.core.assign_next()?;
        self.pending.open(u, t, ());
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
        self.pending.close(from, t, ());
        self.core.release(t);
        self.core.accept_token(t)
    }

    /// Drops every open request (completion, crash-amnesia).
    pub fn forget(&mut self) {
        self.pending.clear(|t| self.core.release(t));
    }

    /// A heartbeat's first step: drops the requests to churned-away
    /// neighbors. One [`refill`](Self::refill) then serves the heartbeat, as
    /// one pass serves a round in the round model.
    pub fn sweep(&mut self, neighbors: &[NodeId]) {
        self.pending.retain(
            |u| neighbors.binary_search(&u).is_ok(),
            |t| self.core.release(t),
        );
    }

    /// The token to re-send to `u`, if any; retires a request since answered.
    pub fn resend(&mut self, u: NodeId) -> Option<TokenId> {
        let t = self.pending.outstanding(u)?;
        if !self.core.known_tokens().contains(t) {
            return Some(t);
        }
        self.pending.close(u, t, ());
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
}
