//! The post-run accountability auditor: cross-examines per-node
//! transcripts and pins every observed protocol violation to the exact
//! guilty node with a minimal proof.
//!
//! Every predicate is justified against the honest protocol code, which
//! is what makes the auditor **sound** (an honest node can never be
//! indicted — property-tested in `crates/runtime/tests/evidence.rs`):
//!
//! * **False completeness** — honest nodes announce `Completeness` only
//!   when complete (single-source) or complete w.r.t. the named source
//!   (multi-source), and knowledge grows only by receiving tokens. So a
//!   `Completeness` send whose sender's *reconstructed* knowledge
//!   (initial ∪ tokens received earlier in its own transcript) is
//!   incomplete is a lie, provable from the sender's log alone.
//! * **False center claim** — center election is a public seeded
//!   function; a `CenterAnnounce` from a non-center convicts by itself.
//! * **Equivocation / seq replay** — an honest walker's transfer
//!   sequence numbers are strictly increasing, first used at issue time,
//!   and each binds one `(destination, token)` pair. Two sends binding
//!   one seq to different tokens (equivocation) or different peers
//!   (replay), or a first use below an earlier first use, are lies.
//! * **Forged ack** — honest nodes send `WalkAck {t, s}` only from the
//!   handler of a received `Walk {t, s}`; an ack with no matching
//!   receive on record is forged.
//! * **Dropped ack** — all three protocols acknowledge announcements and
//!   transfers *unconditionally, in the same dispatch*, and the engine
//!   records sends before the link can drop them. A received
//!   announcement/transfer with no same-time ack in the sender's own
//!   log was suppressed deliberately.
//! * **Token fabrication** — honest nodes only serve or walk tokens they
//!   hold; a token-bearing send outside the reconstructed knowledge is
//!   fabricated.
//! * **Transfer theft** — acknowledging a fresh transfer takes
//!   responsibility; an honest taker either still claims the token at
//!   the end of the phase or passed it on via a later confirmed
//!   transfer. A node that acked, never passed on, and does not claim
//!   destroyed the token.
//!
//! The auditor is a pure function of `(setup, transcripts)`, so verdicts
//! are byte-identical under seeded replay.

use super::transcript::{Direction, MsgKind, Transcript, TranscriptEntry};
use crate::event::VirtualTime;
use dynspread_core::multi_source::SourceMap;
use dynspread_graph::NodeId;
use dynspread_sim::token::{TokenAssignment, TokenId, TokenSet};
use std::collections::{BTreeMap, BTreeSet};

/// One proven protocol violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Announced completeness without holding the claimed tokens.
    FalseCompleteness {
        /// The source lied about (multi-source), or `None` (single-source).
        claimed_source: Option<NodeId>,
    },
    /// Announced center-ship without having been elected.
    FalseCenterClaim,
    /// Bound one transfer sequence number to two different tokens.
    Equivocation {
        /// The equivocated sequence number.
        seq: u64,
        /// The two tokens bound to it (first seen, conflicting).
        tokens: (TokenId, TokenId),
    },
    /// Reused a transfer sequence number (same token toward another
    /// peer, or issued below an already-used number).
    SeqReplay {
        /// The replayed sequence number.
        seq: u64,
    },
    /// Acknowledged a transfer that was never received.
    ForgedAck {
        /// The acked token.
        token: TokenId,
        /// The acked sequence number.
        seq: u64,
    },
    /// Suppressed an acknowledgment owed in the same dispatch.
    DroppedAck {
        /// The peer whose message went unacknowledged.
        peer: NodeId,
    },
    /// Sent a token it provably does not hold.
    TokenFabrication {
        /// The fabricated token.
        token: TokenId,
    },
    /// Took walk ownership of a token and destroyed it (acked, never
    /// passed on, never claimed).
    TransferTheft {
        /// The destroyed token.
        token: TokenId,
    },
}

/// A verdict: one violation, pinned to one node, with a minimal proof
/// (one or two transcript entries from the culprit's own signed log).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Evidence {
    /// The guilty node.
    pub culprit: NodeId,
    /// What it did.
    pub violation: Violation,
    /// The convicting transcript entries (1–2, from the culprit's log).
    pub proof: Vec<TranscriptEntry>,
}

/// Public context the auditor judges transcripts against: the initial
/// token assignment plus whatever the protocol family makes public
/// (per-source token sets, the seeded center election, end-of-phase
/// ownership claims).
#[derive(Clone, Debug)]
pub struct AuditSetup {
    k: usize,
    initial: Vec<TokenSet>,
    source_tokens: Option<Vec<(NodeId, Vec<TokenId>)>>,
    centers: Option<Vec<bool>>,
    final_claims: Option<Vec<Vec<TokenId>>>,
}

impl AuditSetup {
    /// Setup for an [`AsyncSingleSource`](crate::protocol::AsyncSingleSource)
    /// run: a completeness claim asserts all `k` tokens.
    pub fn single_source(assignment: &TokenAssignment) -> Self {
        AuditSetup {
            k: assignment.token_count(),
            initial: Self::initial_of(assignment),
            source_tokens: None,
            centers: None,
            final_claims: None,
        }
    }

    /// Setup for an [`AsyncMultiSource`](crate::protocol::AsyncMultiSource)
    /// run: `Completeness(x)` asserts all of `x`'s tokens.
    pub fn multi_source(assignment: &TokenAssignment, map: &SourceMap) -> Self {
        AuditSetup {
            k: assignment.token_count(),
            initial: Self::initial_of(assignment),
            source_tokens: Some(
                (0..map.source_count())
                    .map(|idx| (map.sources()[idx], map.tokens_of(idx).to_vec()))
                    .collect(),
            ),
            centers: None,
            final_claims: None,
        }
    }

    /// Setup for an [`AsyncOblivious`](crate::protocol::AsyncOblivious)
    /// phase-1 run: `centers` is the public seeded election,
    /// `final_claims` each node's end-of-phase `responsible_tokens`
    /// snapshot (its ownership claim at the hand-off).
    pub fn oblivious(
        assignment: &TokenAssignment,
        centers: Vec<bool>,
        final_claims: Vec<Vec<TokenId>>,
    ) -> Self {
        AuditSetup {
            k: assignment.token_count(),
            initial: Self::initial_of(assignment),
            source_tokens: None,
            centers: Some(centers),
            final_claims: Some(final_claims),
        }
    }

    fn initial_of(assignment: &TokenAssignment) -> Vec<TokenSet> {
        NodeId::all(assignment.node_count())
            .map(|v| assignment.initial_knowledge(v))
            .collect()
    }
}

/// Key of an acknowledgment owed: (peer, time, announced source,
/// (token, seq)). All three protocols ack in the dispatch that consumed
/// the message, so the owed ack carries the same virtual time.
type OwedKey = (NodeId, VirtualTime, Option<NodeId>, Option<(TokenId, u64)>);

/// Cross-examines the transcripts and returns every proven violation,
/// in (culprit, occurrence) order. Pure and deterministic: the same
/// inputs produce byte-identical verdicts.
///
/// # Panics
///
/// Panics if `transcripts` and the setup disagree on the node count.
pub fn check_evidence(setup: &AuditSetup, transcripts: &[Transcript]) -> Vec<Evidence> {
    assert_eq!(
        transcripts.len(),
        setup.initial.len(),
        "setup/transcript node count mismatch"
    );
    let mut verdicts = Vec::new();
    // One node's log decoded at a time: the audit holds the largest single
    // transcript, not all of them.
    let mut entries = Vec::new();
    for (i, transcript) in transcripts.iter().enumerate() {
        entries.clear();
        entries.reserve(transcript.len());
        entries.extend(transcript.entries());
        audit_node(setup, NodeId::new(i as u32), &entries, &mut verdicts);
    }
    verdicts
}

fn audit_node(setup: &AuditSetup, v: NodeId, entries: &[TranscriptEntry], out: &mut Vec<Evidence>) {
    let mut known = setup.initial[v.index()].clone();
    // Receiver-side walk state: per-peer highest applied seq, every walk
    // receive seen, and the entry index of each fresh receive.
    let mut last_in: BTreeMap<NodeId, u64> = BTreeMap::new();
    let mut rx_walks: BTreeSet<(NodeId, u64, TokenId)> = BTreeSet::new();
    let mut fresh_rx: BTreeMap<(NodeId, u64), (TokenId, usize)> = BTreeMap::new();
    // Acks owed (same-dispatch discipline): key → (count, first entry).
    let mut owed: BTreeMap<OwedKey, (u64, usize)> = BTreeMap::new();
    // Sender-side walk state: seq → (first entry, dest, token), the
    // running max of first-used seqs, and seqs confirmed by acks.
    let mut walk_out: BTreeMap<u64, (usize, NodeId, TokenId)> = BTreeMap::new();
    let mut max_first_seq: Option<(u64, usize)> = None;
    let mut confirmed: BTreeMap<u64, usize> = BTreeMap::new();
    // Ownership takes: token → (fresh-receive entry, ack entry).
    let mut took: BTreeMap<TokenId, (usize, usize)> = BTreeMap::new();
    // Per-predicate dedup, keeping proofs minimal.
    let mut seen_false_completeness: BTreeSet<Option<NodeId>> = BTreeSet::new();
    let mut seen_center_claim = false;
    let mut seen_equivocation: BTreeSet<u64> = BTreeSet::new();
    let mut seen_replay: BTreeSet<u64> = BTreeSet::new();
    let mut seen_forged_ack: BTreeSet<(NodeId, u64)> = BTreeSet::new();
    let mut seen_fabrication: BTreeSet<TokenId> = BTreeSet::new();

    for (idx, e) in entries.iter().enumerate() {
        let s = e.summary;
        match e.dir {
            Direction::Received => match s.kind {
                MsgKind::Token => {
                    if let Some(tok) = s.token {
                        known.insert(tok);
                    }
                }
                MsgKind::Walk => {
                    let (tok, seq) = (s.token.expect("walk has token"), s.seq.expect("walk seq"));
                    if seq > last_in.get(&e.peer).copied().unwrap_or(0) {
                        last_in.insert(e.peer, seq);
                        fresh_rx.insert((e.peer, seq), (tok, idx));
                    }
                    rx_walks.insert((e.peer, seq, tok));
                    known.insert(tok);
                    let key = (e.peer, e.at, None, Some((tok, seq)));
                    let slot = owed.entry(key).or_insert((0, idx));
                    slot.0 += 1;
                }
                MsgKind::Completeness => {
                    let key = (e.peer, e.at, s.source, None);
                    let slot = owed.entry(key).or_insert((0, idx));
                    slot.0 += 1;
                }
                MsgKind::WalkAck => {
                    let (tok, seq) = (s.token.expect("ack token"), s.seq.expect("ack seq"));
                    if let Some(&(_, dest, bound)) = walk_out.get(&seq) {
                        if dest == e.peer && bound == tok {
                            confirmed.entry(seq).or_insert(idx);
                        }
                    }
                }
                _ => {}
            },
            Direction::Sent => match s.kind {
                MsgKind::Completeness => {
                    let lie = match (&setup.source_tokens, s.source) {
                        (Some(per_source), Some(x)) => per_source
                            .iter()
                            .find(|(src, _)| *src == x)
                            .is_some_and(|(_, toks)| toks.iter().any(|&t| !known.contains(t))),
                        (None, _) => known.count() < setup.k,
                        _ => false,
                    };
                    if lie && seen_false_completeness.insert(s.source) {
                        out.push(Evidence {
                            culprit: v,
                            violation: Violation::FalseCompleteness {
                                claimed_source: s.source,
                            },
                            proof: vec![*e],
                        });
                    }
                }
                MsgKind::CenterAnnounce => {
                    if let Some(centers) = &setup.centers {
                        if !centers[v.index()] && !seen_center_claim {
                            seen_center_claim = true;
                            out.push(Evidence {
                                culprit: v,
                                violation: Violation::FalseCenterClaim,
                                proof: vec![*e],
                            });
                        }
                    }
                }
                MsgKind::Token => {
                    let tok = s.token.expect("token payload");
                    if !known.contains(tok) && seen_fabrication.insert(tok) {
                        out.push(Evidence {
                            culprit: v,
                            violation: Violation::TokenFabrication { token: tok },
                            proof: vec![*e],
                        });
                    }
                }
                MsgKind::Walk => {
                    let (tok, seq) = (s.token.expect("walk token"), s.seq.expect("walk seq"));
                    if !known.contains(tok) && seen_fabrication.insert(tok) {
                        out.push(Evidence {
                            culprit: v,
                            violation: Violation::TokenFabrication { token: tok },
                            proof: vec![*e],
                        });
                    }
                    match walk_out.get(&seq).copied() {
                        None => {
                            if let Some((max, max_idx)) = max_first_seq {
                                if seq < max && seen_replay.insert(seq) {
                                    out.push(Evidence {
                                        culprit: v,
                                        violation: Violation::SeqReplay { seq },
                                        proof: vec![entries[max_idx], *e],
                                    });
                                }
                            }
                            if max_first_seq.is_none_or(|(max, _)| seq > max) {
                                max_first_seq = Some((seq, idx));
                            }
                            walk_out.insert(seq, (idx, e.peer, tok));
                        }
                        Some((first_idx, dest, bound)) => {
                            if bound != tok && seen_equivocation.insert(seq) {
                                out.push(Evidence {
                                    culprit: v,
                                    violation: Violation::Equivocation {
                                        seq,
                                        tokens: (bound, tok),
                                    },
                                    proof: vec![entries[first_idx], *e],
                                });
                            } else if bound == tok && dest != e.peer && seen_replay.insert(seq) {
                                out.push(Evidence {
                                    culprit: v,
                                    violation: Violation::SeqReplay { seq },
                                    proof: vec![entries[first_idx], *e],
                                });
                            }
                        }
                    }
                }
                MsgKind::WalkAck => {
                    let (tok, seq) = (s.token.expect("ack token"), s.seq.expect("ack seq"));
                    if !rx_walks.contains(&(e.peer, seq, tok)) {
                        if seen_forged_ack.insert((e.peer, seq)) {
                            out.push(Evidence {
                                culprit: v,
                                violation: Violation::ForgedAck { token: tok, seq },
                                proof: vec![*e],
                            });
                        }
                    } else {
                        if let Some(slot) = owed.get_mut(&(e.peer, e.at, None, Some((tok, seq)))) {
                            slot.0 = slot.0.saturating_sub(1);
                        }
                        if let Some(&(rx_tok, rx_idx)) = fresh_rx.get(&(e.peer, seq)) {
                            if rx_tok == tok {
                                took.entry(tok).or_insert((rx_idx, idx));
                                // Track the *last* take for the theft rule.
                                if let Some(slot) = took.get_mut(&tok) {
                                    if rx_idx > slot.0 {
                                        *slot = (rx_idx, idx);
                                    }
                                }
                            }
                        }
                    }
                }
                MsgKind::Ack => {
                    if let Some(slot) = owed.get_mut(&(e.peer, e.at, s.source, None)) {
                        slot.0 = slot.0.saturating_sub(1);
                    }
                }
                _ => {}
            },
        }
    }

    // Dropped acks: any announcement/transfer receipt left unsettled.
    let mut seen_dropped: BTreeSet<NodeId> = BTreeSet::new();
    for (&(peer, _, _, _), &(count, first_idx)) in owed.iter() {
        if count > 0 && seen_dropped.insert(peer) {
            out.push(Evidence {
                culprit: v,
                violation: Violation::DroppedAck { peer },
                proof: vec![entries[first_idx]],
            });
        }
    }

    // Transfer theft: took ownership, never claimed, never passed on
    // after the last take.
    if let Some(claims) = &setup.final_claims {
        let claimed: BTreeSet<TokenId> = claims[v.index()].iter().copied().collect();
        for (&tok, &(rx_idx, ack_idx)) in took.iter() {
            if claimed.contains(&tok) {
                continue;
            }
            let passed_on = confirmed.iter().any(|(&seq, &conf_idx)| {
                conf_idx > ack_idx && walk_out.get(&seq).is_some_and(|&(_, _, b)| b == tok)
            });
            if !passed_on {
                out.push(Evidence {
                    culprit: v,
                    violation: Violation::TransferTheft { token: tok },
                    proof: vec![entries[rx_idx], entries[ack_idx]],
                });
            }
        }
    }
}
