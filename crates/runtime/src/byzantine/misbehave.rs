//! The Byzantine misbehavior combinator: a seeded plan selecting which
//! nodes lie, and a generic [`Misbehaving<P>`] wrapper that corrupts a
//! node's traffic *around* its honest protocol state machine.
//!
//! The wrapper composes over any protocol implementing [`Tamper`] — done
//! here for [`AsyncSingleSource`], [`AsyncMultiSource`], and
//! [`AsyncOblivious`] — without touching the honest handler code: it
//! bookmarks the staged send ops before delegating, then mutates, drops,
//! or forges ops per its assigned [`MisbehaviorKind`], drawing every
//! decision from a per-node seeded RNG so runs stay replay-identical.

use crate::engine::{EventCtx, EventProtocol};
use crate::faults::RecoveryMode;
use crate::protocol::{AsyncMsMsg, AsyncOblMsg, AsyncSsMsg};
use crate::protocol::{AsyncMultiSource, AsyncOblivious, AsyncSingleSource};
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenId, TokenSet};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// The misbehavior repertoire. Each kind targets one invariant the honest
/// machinery relies on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MisbehaviorKind {
    /// Announce completeness (or center-ship) the node does not have —
    /// equivocation on the announcement family.
    FalseClaims,
    /// Acknowledge incoming ownership transfers and silently discard the
    /// token — the theft attack on the walk's exactly-once transfer.
    ForgeTransfers,
    /// Re-send walk transfers under stale/duplicate sequence numbers and
    /// equivocate the token bound to a sequence number.
    SeqReplay,
    /// Selectively drop the acknowledgments the node owes its peers.
    DropAcks,
    /// Substitute token ids in outgoing token-bearing payloads.
    MutateTokens,
}

impl MisbehaviorKind {
    /// Every kind, in a fixed order (sweep axes, round-robin plans).
    pub const ALL: [MisbehaviorKind; 5] = [
        MisbehaviorKind::FalseClaims,
        MisbehaviorKind::ForgeTransfers,
        MisbehaviorKind::SeqReplay,
        MisbehaviorKind::DropAcks,
        MisbehaviorKind::MutateTokens,
    ];

    /// A short stable label (table axes, bench output).
    pub fn label(self) -> &'static str {
        match self {
            MisbehaviorKind::FalseClaims => "false-claims",
            MisbehaviorKind::ForgeTransfers => "forge-transfers",
            MisbehaviorKind::SeqReplay => "seq-replay",
            MisbehaviorKind::DropAcks => "drop-acks",
            MisbehaviorKind::MutateTokens => "mutate-tokens",
        }
    }
}

/// A seeded assignment of misbehavior kinds to nodes. The plan fully
/// determines who lies and how; together with the engine seed it makes
/// Byzantine executions replay-identical.
#[derive(Clone, Debug)]
pub struct MisbehaviorPlan {
    seed: u64,
    roles: Vec<Option<MisbehaviorKind>>,
}

impl MisbehaviorPlan {
    /// All `n` nodes honest (the wrapper becomes a pure pass-through).
    pub fn honest(n: usize) -> Self {
        MisbehaviorPlan {
            seed: 0,
            roles: vec![None; n],
        }
    }

    /// `⌊fraction · n⌋` nodes, chosen by a seeded shuffle, all running
    /// `kind`.
    pub fn uniform(n: usize, fraction: f64, kind: MisbehaviorKind, seed: u64) -> Self {
        Self::with_kinds(n, fraction, &[kind], seed)
    }

    /// `⌊fraction · n⌋` nodes, chosen by a seeded shuffle, cycling
    /// through `kinds` in order (empty `kinds` means everyone honest).
    pub fn with_kinds(n: usize, fraction: f64, kinds: &[MisbehaviorKind], seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        let mut roles = vec![None; n];
        let m = (fraction * n as f64).floor() as usize;
        if m > 0 && !kinds.is_empty() {
            let mut ids: Vec<usize> = (0..n).collect();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xBAD5_EED0_0001u64);
            ids.shuffle(&mut rng);
            for (i, &v) in ids.iter().take(m).enumerate() {
                roles[v] = Some(kinds[i % kinds.len()]);
            }
        }
        MisbehaviorPlan { seed, roles }
    }

    /// Exactly one malicious node `v` running `kind` (proptest plants).
    pub fn plant(n: usize, v: NodeId, kind: MisbehaviorKind, seed: u64) -> Self {
        let mut roles = vec![None; n];
        roles[v.index()] = Some(kind);
        MisbehaviorPlan { seed, roles }
    }

    /// The plan's seed (feeds each wrapper's per-node RNG).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of nodes covered by the plan.
    pub fn node_count(&self) -> usize {
        self.roles.len()
    }

    /// Number of malicious nodes.
    pub fn byzantine_nodes(&self) -> usize {
        self.roles.iter().filter(|r| r.is_some()).count()
    }

    /// Whether node `v` is malicious under this plan.
    pub fn is_malicious(&self, v: NodeId) -> bool {
        self.roles[v.index()].is_some()
    }

    /// The malicious nodes, in ascending ID order.
    pub fn malicious(&self) -> Vec<NodeId> {
        self.roles
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.map(|_| NodeId::new(i as u32)))
            .collect()
    }

    /// Wraps a vector of honest protocol nodes per this plan.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the plan's node count.
    pub fn wrap<P: Tamper>(&self, nodes: Vec<P>) -> Vec<Misbehaving<P>> {
        assert_eq!(nodes.len(), self.roles.len(), "plan/node count mismatch");
        nodes
            .into_iter()
            .enumerate()
            .map(|(i, p)| {
                Misbehaving::new(
                    p,
                    self.roles[i],
                    self.seed ^ (0x6D15_BE4A_u64 << 16) ^ (i as u64).wrapping_mul(0x9E37_79B9),
                )
            })
            .collect()
    }
}

/// Protocol-specific tampering hooks: how each message family of a
/// protocol can be lied about. Implementing this (plus
/// [`AuditMsg`](super::transcript::AuditMsg) on the message type) is all
/// it takes to make a protocol wrappable by [`Misbehaving`]; the honest
/// handlers stay untouched.
pub trait Tamper: EventProtocol {
    /// A claim the node's honest state does *not* entitle it to make
    /// (incomplete ⇒ `Completeness`, non-center ⇒ `CenterAnnounce`), or
    /// `None` when the claim would be true — lying is only lying when
    /// the statement is false.
    fn forge_false_claim(&self) -> Option<Self::Msg>;

    /// Whether `msg` is an acknowledgment (the `DropAcks` target).
    fn is_ack(msg: &Self::Msg) -> bool;

    /// Mutates a token-bearing payload in place (preferring a token the
    /// node provably does not hold); returns `false` if `msg` carries no
    /// token to corrupt.
    fn mutate_token(&self, msg: &mut Self::Msg) -> bool;

    /// Forged variants of a staged ownership transfer for the
    /// `SeqReplay` kind: `(destination, payload)` pairs reusing the
    /// original's sequence number against a different token or peer.
    /// Empty (the default) for protocols without sequenced transfers.
    fn replay_variants(
        &self,
        _to: NodeId,
        _msg: &Self::Msg,
        _neighbors: &[NodeId],
    ) -> Vec<(NodeId, Self::Msg)> {
        Vec::new()
    }

    /// The `ForgeTransfers` response to an incoming message: `Some(ack)`
    /// means "acknowledge the transfer and destroy the token" — the
    /// wrapper swallows the delivery (the honest state never sees it) and
    /// sends the forged ack. `None` (the default) for everything that is
    /// not an ownership transfer.
    fn theft_response(&self, _from: NodeId, _msg: &Self::Msg) -> Option<Self::Msg> {
        None
    }
}

/// Picks a token id different from `t` (mod the universe of `known`),
/// preferring one the node does not hold.
fn corrupt_token(known: &TokenSet, t: TokenId) -> Option<TokenId> {
    let k = known.universe();
    if k < 2 {
        return None;
    }
    known
        .missing()
        .find(|&m| m != t)
        .or_else(|| Some(TokenId::new(((t.index() + 1) % k) as u32)))
}

impl Tamper for AsyncSingleSource {
    fn forge_false_claim(&self) -> Option<AsyncSsMsg> {
        (!self.is_complete()).then_some(AsyncSsMsg::Completeness)
    }

    fn is_ack(msg: &AsyncSsMsg) -> bool {
        matches!(msg, AsyncSsMsg::Ack)
    }

    fn mutate_token(&self, msg: &mut AsyncSsMsg) -> bool {
        if let AsyncSsMsg::Token(t) = msg {
            if let Some(bad) = self.known_tokens().and_then(|k| corrupt_token(k, *t)) {
                *t = bad;
                return true;
            }
        }
        false
    }
}

impl Tamper for AsyncMultiSource {
    fn forge_false_claim(&self) -> Option<AsyncMsMsg> {
        // Lie about the first source we are *not* complete for — a valid
        // source id (anything else would be rejected as malformed on
        // receipt), but a false statement about our holdings.
        (0..self.source_map().source_count())
            .find(|&idx| !self.complete_wrt(idx))
            .map(|idx| AsyncMsMsg::Completeness(self.source_map().sources()[idx]))
    }

    fn is_ack(msg: &AsyncMsMsg) -> bool {
        matches!(msg, AsyncMsMsg::Ack(_))
    }

    fn mutate_token(&self, msg: &mut AsyncMsMsg) -> bool {
        if let AsyncMsMsg::Token(t) = msg {
            if let Some(bad) = self.known_tokens().and_then(|k| corrupt_token(k, *t)) {
                *t = bad;
                return true;
            }
        }
        false
    }
}

impl Tamper for AsyncOblivious {
    fn forge_false_claim(&self) -> Option<AsyncOblMsg> {
        (!self.is_center()).then_some(AsyncOblMsg::CenterAnnounce)
    }

    fn is_ack(msg: &AsyncOblMsg) -> bool {
        matches!(msg, AsyncOblMsg::WalkAck { .. })
    }

    fn mutate_token(&self, msg: &mut AsyncOblMsg) -> bool {
        if let AsyncOblMsg::Walk { token, .. } = msg {
            if let Some(bad) = self.known_tokens().and_then(|k| corrupt_token(k, *token)) {
                *token = bad;
                return true;
            }
        }
        false
    }

    fn replay_variants(
        &self,
        to: NodeId,
        msg: &AsyncOblMsg,
        neighbors: &[NodeId],
    ) -> Vec<(NodeId, AsyncOblMsg)> {
        let AsyncOblMsg::Walk { token, seq } = msg else {
            return Vec::new();
        };
        let mut out = Vec::new();
        // Equivocation: the same sequence number bound to a different
        // token, toward the same peer.
        if let Some(k) = self.known_tokens() {
            if k.universe() >= 2 {
                let other = TokenId::new(((token.index() + 1) % k.universe()) as u32);
                out.push((
                    to,
                    AsyncOblMsg::Walk {
                        token: other,
                        seq: *seq,
                    },
                ));
            }
        }
        // Replay: the same (token, seq) re-targeted at a different
        // neighbor.
        if let Some(&u) = neighbors.iter().find(|&&u| u != to) {
            out.push((
                u,
                AsyncOblMsg::Walk {
                    token: *token,
                    seq: *seq,
                },
            ));
        }
        out
    }

    fn theft_response(&self, _from: NodeId, msg: &AsyncOblMsg) -> Option<AsyncOblMsg> {
        let AsyncOblMsg::Walk { token, seq } = msg else {
            return None;
        };
        Some(AsyncOblMsg::WalkAck {
            token: *token,
            seq: *seq,
        })
    }
}

/// A node that runs its honest protocol but lies on the wire, per one
/// [`MisbehaviorKind`] from a [`MisbehaviorPlan`].
///
/// With `kind = None` the wrapper is a pure pass-through: it stages the
/// same ops, arms the same timers, and the wrapped execution is
/// byte-identical to the unwrapped one (asserted in
/// `tests/runtime_equivalence.rs`). With a kind assigned it corrupts
/// outgoing traffic after each honest handler runs (and, for
/// `ForgeTransfers`, intercepts incoming transfers before the handler
/// sees them), drawing every probabilistic choice from its own seeded
/// RNG stream.
#[derive(Clone, Debug)]
pub struct Misbehaving<P: Tamper> {
    inner: P,
    kind: Option<MisbehaviorKind>,
    rng: StdRng,
    injected: u64,
}

impl<P: Tamper> Misbehaving<P> {
    /// Wraps `inner`; `seed` feeds this node's private misbehavior RNG.
    pub fn new(inner: P, kind: Option<MisbehaviorKind>, seed: u64) -> Self {
        Misbehaving {
            inner,
            kind,
            rng: StdRng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// The wrapped honest protocol state.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Whether this node runs a misbehavior kind.
    pub fn is_malicious(&self) -> bool {
        self.kind.is_some()
    }

    /// Tampering actions performed so far (forged claims count one per
    /// recipient; drops, mutations, replays, and thefts one each).
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Post-handler tampering over the ops staged since `mark`.
    /// `claim_slot` gates the forged-claim kinds to start/timer events so
    /// the claim cadence mirrors honest announcement traffic.
    fn tamper_outgoing(&mut self, ctx: &mut EventCtx<'_, P::Msg>, mark: usize, claim_slot: bool) {
        let Some(kind) = self.kind else { return };
        let Misbehaving {
            inner,
            rng,
            injected,
            ..
        } = self;
        match kind {
            MisbehaviorKind::DropAcks => {
                ctx.tamper_staged(mark, |msg, _| {
                    if P::is_ack(msg) && rng.gen_bool(0.8) {
                        *injected += 1;
                        false // the peer waits for an ack that never left
                    } else {
                        true
                    }
                });
            }
            MisbehaviorKind::MutateTokens => {
                ctx.tamper_staged(mark, |msg, _| {
                    if rng.gen_bool(0.6) && inner.mutate_token(msg) {
                        *injected += 1;
                    }
                    true
                });
            }
            MisbehaviorKind::SeqReplay => {
                let nbrs: Vec<NodeId> = ctx.neighbors().to_vec();
                let mut forged: Vec<(NodeId, P::Msg)> = Vec::new();
                ctx.tamper_staged(mark, |msg, dests| {
                    for &to in dests {
                        forged.extend(inner.replay_variants(to, msg, &nbrs));
                    }
                    true
                });
                *injected += forged.len() as u64;
                for (to, msg) in forged {
                    ctx.send(to, msg);
                }
            }
            MisbehaviorKind::FalseClaims => {
                if claim_slot && rng.gen_bool(0.9) {
                    if let Some(claim) = inner.forge_false_claim() {
                        let nbrs: Vec<NodeId> = ctx.neighbors().to_vec();
                        *injected += nbrs.len() as u64;
                        for u in nbrs {
                            ctx.send(u, claim.clone());
                        }
                    }
                }
            }
            MisbehaviorKind::ForgeTransfers => {} // incoming side only
        }
    }
}

impl<P: Tamper> EventProtocol for Misbehaving<P> {
    type Msg = P::Msg;

    fn on_start(&mut self, ctx: &mut EventCtx<'_, P::Msg>) {
        let mark = ctx.staged_ops();
        self.inner.on_start(ctx);
        self.tamper_outgoing(ctx, mark, true);
    }

    fn on_message(&mut self, from: NodeId, msg: &P::Msg, ctx: &mut EventCtx<'_, P::Msg>) {
        if self.kind == Some(MisbehaviorKind::ForgeTransfers) {
            if let Some(ack) = self.inner.theft_response(from, msg) {
                if self.rng.gen_bool(0.75) {
                    // Acknowledge and destroy: the sender releases its
                    // responsibility, the honest state never accepts the
                    // token. The transcript still shows our ack — which
                    // is exactly what convicts us.
                    ctx.send(from, ack);
                    self.injected += 1;
                    return;
                }
            }
        }
        let mark = ctx.staged_ops();
        self.inner.on_message(from, msg, ctx);
        self.tamper_outgoing(ctx, mark, false);
    }

    fn on_timer(&mut self, id: u64, ctx: &mut EventCtx<'_, P::Msg>) {
        let mark = ctx.staged_ops();
        self.inner.on_timer(id, ctx);
        self.tamper_outgoing(ctx, mark, true);
    }

    fn on_recover(&mut self, mode: RecoveryMode, ctx: &mut EventCtx<'_, P::Msg>) {
        // A liar that crashes rejoins lying: forward the hook and tamper
        // the rejoin traffic like any other claim slot.
        let mark = ctx.staged_ops();
        self.inner.on_recover(mode, ctx);
        self.tamper_outgoing(ctx, mark, true);
    }

    fn on_heal(&mut self, ctx: &mut EventCtx<'_, P::Msg>) {
        let mark = ctx.staged_ops();
        self.inner.on_heal(ctx);
        self.tamper_outgoing(ctx, mark, false);
    }

    fn known_tokens(&self) -> Option<&TokenSet> {
        self.inner.known_tokens()
    }
}
