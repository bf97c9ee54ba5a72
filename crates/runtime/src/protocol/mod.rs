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
//!   (single source) or
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
//! here: it is the same
//! [`DisseminationCore`](dynspread_core::dissemination::DisseminationCore)
//! that drives the round-based nodes, fed from per-neighbor
//! retransmission windows (the crate-private `RequestWindow`) instead of
//! per-round edge sweeps.
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

use crate::event::VirtualTime;
use dynspread_graph::NodeId;
use dynspread_sim::token::TokenId;

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

impl AsyncConfig {
    /// Validates the invariants (`base ≥ 1`, `max ≥ base`).
    ///
    /// # Panics
    ///
    /// Panics when they do not hold.
    pub(crate) fn validate(self) -> Self {
        assert!(self.base_interval >= 1, "base_interval must be ≥ 1");
        assert!(
            self.max_interval >= self.base_interval,
            "max_interval must be ≥ base_interval"
        );
        self
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
    /// Panics if the configuration is invalid (see [`AsyncConfig`]).
    pub fn new(cfg: AsyncConfig) -> Self {
        let cfg = cfg.validate();
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

/// Per-neighbor outstanding-request windows (window size 1).
///
/// The synchronous algorithms assign at most one distinct missing-token
/// request per adjacent edge per round; the asynchronous ports keep the
/// same discipline per neighbor, with the window entry doubling as the
/// retransmission record: an open window is re-sent on every heartbeat
/// until the token arrives or the neighbor churns away.
///
/// Stored sparsely (an ordered map keyed by neighbor): a node never holds
/// more open windows than it has neighbors, so the dense
/// `Vec<Option<TokenId>>` it replaced cost `O(n)` memory per node and
/// `O(n)` per heartbeat sweep — `O(n²)` across the network, which is what
/// capped the async grids below `n` in the thousands. Iteration order
/// (ascending neighbor ID) is identical to the dense layout's, so release
/// order — and with it replay identity — is unchanged.
#[derive(Clone, Debug)]
pub(crate) struct RequestWindow {
    slots: std::collections::BTreeMap<NodeId, TokenId>,
}

impl RequestWindow {
    pub(crate) fn new() -> Self {
        RequestWindow {
            slots: std::collections::BTreeMap::new(),
        }
    }

    /// The token currently requested from `u`, if any.
    pub(crate) fn outstanding(&self, u: NodeId) -> Option<TokenId> {
        self.slots.get(&u).copied()
    }

    /// Opens the window to `u` with a request for `t`.
    pub(crate) fn open(&mut self, u: NodeId, t: TokenId) {
        let prev = self.slots.insert(u, t);
        debug_assert!(prev.is_none(), "window already open");
    }

    /// Closes the window to `u` if it holds exactly `t`; returns whether
    /// it did.
    pub(crate) fn close(&mut self, u: NodeId, t: TokenId) -> bool {
        if self.slots.get(&u) == Some(&t) {
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
        self.slots.retain(|u, t| {
            if neighbors.binary_search(u).is_ok() {
                true
            } else {
                release(*t);
                false
            }
        });
    }

    /// Drops every window (the node completed), releasing the tokens in
    /// ascending neighbor ID order.
    pub(crate) fn clear_all(&mut self, mut release: impl FnMut(TokenId)) {
        for (_, t) in std::mem::take(&mut self.slots) {
            release(t);
        }
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
        let mut w = RequestWindow::new();
        let (u, v) = (NodeId::new(1), NodeId::new(3));
        let (a, b) = (TokenId::new(5), TokenId::new(7));
        assert_eq!(w.outstanding(u), None);
        w.open(u, a);
        w.open(v, b);
        assert_eq!(w.outstanding(u), Some(a));
        assert!(!w.close(u, b), "wrong token leaves the window open");
        assert!(w.close(u, a));
        assert_eq!(w.outstanding(u), None);
        // Sweep: v is no longer a neighbor → its token is released.
        let mut released = Vec::new();
        w.sweep_stale(&[u], |t| released.push(t));
        assert_eq!(released, vec![b]);
        assert_eq!(w.outstanding(v), None);
    }

    #[test]
    fn clear_all_releases_everything() {
        let mut w = RequestWindow::new();
        w.open(NodeId::new(0), TokenId::new(1));
        w.open(NodeId::new(2), TokenId::new(2));
        let mut released = Vec::new();
        w.clear_all(|t| released.push(t));
        assert_eq!(released.len(), 2);
        assert_eq!(w.outstanding(NodeId::new(0)), None);
    }
}
