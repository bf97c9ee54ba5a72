//! Deterministic hashed transcripts — the offline stand-in for signed
//! message logs.
//!
//! Every node under audit appends one [`TranscriptEntry`] per message it
//! sends (one per destination, recorded **before** link planning, so even
//! dropped or unroutable sends are on the record — exactly what a signed
//! wire message would prove) and one per message copy it consumes. Each
//! entry folds into a running chain hash ([`Transcript::chain_hash`]), the
//! cheap deterministic analogue of a signature chain: two replays of the
//! same seeded execution produce byte-identical transcripts, and any
//! divergence shows up as a different chain digest.
//!
//! Transcripts store [`MsgSummary`]s, not payloads: the protocol-level
//! facts (message kind, token, sequence number, announced source) the
//! [`check_evidence`](super::check_evidence) auditor cross-examines. A
//! protocol opts in by implementing [`AuditMsg`] for its message type —
//! done here for all three async ports, without touching their honest
//! handler code.
//!
//! A transcript grows with every message copy, so it is stored as one
//! append-only byte log of compact records, one per entry:
//!
//! * a header byte — [`Direction`] in bit 0, [`MsgKind`] in bits 1–3, and
//!   one presence bit each for token (bit 4), seq (bit 5) and source
//!   (bit 6);
//! * then LEB128 varints: the peer, the `at` delta from the previous entry
//!   (wrapping, so any `u64` sequence is lossless; the engine's clock only
//!   rises, so it is mostly one byte), and whichever of token, seq and
//!   source are present.
//!
//! That is ≈ 5 B an entry on the benchmark's Byzantine shape.
//! [`Transcript::entries`] decodes the log on the fly; the chain hash is
//! taken over fixed-width bytes and does not depend on this layout.

use crate::event::VirtualTime;
use crate::protocol::{AsyncMsMsg, AsyncOblMsg, AsyncSsMsg};
use dynspread_graph::NodeId;
use dynspread_sim::token::TokenId;

/// 64-bit FNV-1a — the repo-local deterministic hash (no external deps,
/// stable across platforms and runs).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    fnv1a_from(OFFSET, bytes)
}

/// Continues an FNV-1a state over more bytes:
/// `fnv1a(a ‖ b) == fnv1a_from(fnv1a(a), b)`.
fn fnv1a_from(mut h: u64, bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// One link of the chain, `fnv1a(chain ‖ bytes)`, without building the
/// concatenation.
fn chain_link(chain: u64, bytes: &[u8]) -> u64 {
    fnv1a_from(fnv1a(&chain.to_le_bytes()), bytes)
}

/// The protocol-level message family of a transcript entry, shared across
/// all three async protocols.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum MsgKind {
    /// Discovery pull (`Probe` in every protocol).
    Probe,
    /// A completeness announcement (`Completeness` / `Completeness(x)`).
    Completeness,
    /// An announcement acknowledgment (`Ack` / `Ack(x)`).
    Ack,
    /// A token request.
    Request,
    /// A token payload.
    Token,
    /// A random-walk ownership transfer.
    Walk,
    /// A walk-transfer acknowledgment.
    WalkAck,
    /// A center self-identification.
    CenterAnnounce,
}

impl MsgKind {
    /// Every kind, in discriminant order: a record header's three kind bits
    /// index this table.
    const ALL: [MsgKind; 8] = [
        MsgKind::Probe,
        MsgKind::Completeness,
        MsgKind::Ack,
        MsgKind::Request,
        MsgKind::Token,
        MsgKind::Walk,
        MsgKind::WalkAck,
        MsgKind::CenterAnnounce,
    ];
}

/// What a transcript records about one message: the protocol facts the
/// auditor reasons over.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgSummary {
    /// The message family.
    pub kind: MsgKind,
    /// The token carried, for token-bearing messages.
    pub token: Option<TokenId>,
    /// The transfer sequence number, for walk messages.
    pub seq: Option<u64>,
    /// The announced source, for multi-source completeness traffic.
    pub source: Option<NodeId>,
}

impl MsgSummary {
    /// A summary carrying only a kind.
    pub fn bare(kind: MsgKind) -> Self {
        MsgSummary {
            kind,
            token: None,
            seq: None,
            source: None,
        }
    }

    /// Folds this summary into the FNV-1a chain state.
    fn digest_into(&self, h: u64) -> u64 {
        let mut bytes = [0u8; 1 + 1 + 4 + 1 + 8 + 1 + 4];
        bytes[0] = self.kind as u8;
        bytes[1] = self.token.is_some() as u8;
        bytes[2..6].copy_from_slice(&self.token.map_or(0, |t| t.index() as u32).to_le_bytes());
        bytes[6] = self.seq.is_some() as u8;
        bytes[7..15].copy_from_slice(&self.seq.unwrap_or(0).to_le_bytes());
        bytes[15] = self.source.is_some() as u8;
        bytes[16..20].copy_from_slice(&self.source.map_or(0, |s| s.index() as u32).to_le_bytes());
        chain_link(h, &bytes)
    }
}

/// Opt-in summarization of a protocol's messages for transcript auditing.
///
/// The summary must determine the payload (all three async ports' message
/// types are fully described by kind + token + seq + source), so equal
/// summaries mean equal wire messages — what lets the chain hash stand in
/// for a signature over the payload.
pub trait AuditMsg: Clone {
    /// The protocol facts of this message.
    fn summarize(&self) -> MsgSummary;
}

impl AuditMsg for AsyncSsMsg {
    fn summarize(&self) -> MsgSummary {
        match self {
            AsyncSsMsg::Probe => MsgSummary::bare(MsgKind::Probe),
            AsyncSsMsg::Completeness => MsgSummary::bare(MsgKind::Completeness),
            AsyncSsMsg::Ack => MsgSummary::bare(MsgKind::Ack),
            AsyncSsMsg::Request(t) => MsgSummary {
                token: Some(*t),
                ..MsgSummary::bare(MsgKind::Request)
            },
            AsyncSsMsg::Token(t) => MsgSummary {
                token: Some(*t),
                ..MsgSummary::bare(MsgKind::Token)
            },
        }
    }
}

impl AuditMsg for AsyncMsMsg {
    fn summarize(&self) -> MsgSummary {
        match self {
            AsyncMsMsg::Probe => MsgSummary::bare(MsgKind::Probe),
            AsyncMsMsg::Completeness(x) => MsgSummary {
                source: Some(*x),
                ..MsgSummary::bare(MsgKind::Completeness)
            },
            AsyncMsMsg::Ack(x) => MsgSummary {
                source: Some(*x),
                ..MsgSummary::bare(MsgKind::Ack)
            },
            AsyncMsMsg::Request(t) => MsgSummary {
                token: Some(*t),
                ..MsgSummary::bare(MsgKind::Request)
            },
            AsyncMsMsg::Token(t) => MsgSummary {
                token: Some(*t),
                ..MsgSummary::bare(MsgKind::Token)
            },
        }
    }
}

impl AuditMsg for AsyncOblMsg {
    fn summarize(&self) -> MsgSummary {
        match self {
            AsyncOblMsg::Probe => MsgSummary::bare(MsgKind::Probe),
            AsyncOblMsg::CenterAnnounce => MsgSummary::bare(MsgKind::CenterAnnounce),
            AsyncOblMsg::Walk { token, seq } => MsgSummary {
                token: Some(*token),
                seq: Some(*seq),
                ..MsgSummary::bare(MsgKind::Walk)
            },
            AsyncOblMsg::WalkAck { token, seq } => MsgSummary {
                token: Some(*token),
                seq: Some(*seq),
                ..MsgSummary::bare(MsgKind::WalkAck)
            },
        }
    }
}

/// Whether an entry records a send or a consumed delivery.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Direction {
    /// The node sent this message (recorded before link planning).
    Sent,
    /// The node was handed this message copy.
    Received,
}

/// One line of a node's transcript.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TranscriptEntry {
    /// Send or receive.
    pub dir: Direction,
    /// The other endpoint (destination of a send, sender of a receive).
    pub peer: NodeId,
    /// Virtual time of the event.
    pub at: VirtualTime,
    /// The recorded protocol facts.
    pub summary: MsgSummary,
}

/// Record header bit 0: the [`Direction`].
const DIR_BIT: u8 = 1;
/// Record header bits 1–3: the [`MsgKind`].
const KIND_SHIFT: u32 = 1;
const KIND_MASK: u8 = 0b111;
/// Record header bits 4–6: which optional fields follow the peer and time.
const HAS_TOKEN: u8 = 1 << 4;
const HAS_SEQ: u8 = 1 << 5;
const HAS_SOURCE: u8 = 1 << 6;

/// Appends `value` as an LEB128 varint: seven bits a byte, low first, the
/// high bit set on every byte but the last.
fn put_varint(log: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        log.push(value as u8 | 0x80);
        value >>= 7;
    }
    log.push(value as u8);
}

/// Reads one LEB128 varint off the front of `bytes`.
fn take_varint(bytes: &mut &[u8]) -> u64 {
    let mut value = 0;
    for shift in (0..64).step_by(7) {
        let (&b, rest) = bytes
            .split_first()
            .expect("transcript record ends inside a varint");
        *bytes = rest;
        value |= u64::from(b & 0x7f) << shift;
        if b < 0x80 {
            return value;
        }
    }
    unreachable!("transcript varint longer than a u64")
}

/// One node's append-only, chain-hashed message log, stored as the compact
/// records the module doc describes.
#[derive(Clone, Debug)]
pub struct Transcript {
    log: Vec<u8>,
    len: usize,
    /// `at` of the last entry: the base of the next record's time delta.
    last_at: VirtualTime,
    chain: u64,
}

impl Default for Transcript {
    fn default() -> Self {
        Self::new()
    }
}

impl Transcript {
    /// An empty transcript.
    pub fn new() -> Self {
        Transcript {
            log: Vec::new(),
            len: 0,
            last_at: 0,
            chain: fnv1a(b"dynspread-transcript-v1"),
        }
    }

    /// Appends an entry and folds it into the chain hash.
    pub(crate) fn append(
        &mut self,
        dir: Direction,
        peer: NodeId,
        at: VirtualTime,
        summary: MsgSummary,
    ) {
        let [p0, p1, p2, p3] = (peer.index() as u32).to_le_bytes();
        let h = chain_link(self.chain, &[dir as u8, p0, p1, p2, p3]);
        let h = chain_link(h, &at.to_le_bytes());
        self.chain = summary.digest_into(h);

        let MsgSummary {
            kind,
            token,
            seq,
            source,
        } = summary;
        let presence = |present: bool, bit: u8| if present { bit } else { 0 };
        self.log.push(
            dir as u8
                | (kind as u8) << KIND_SHIFT
                | presence(token.is_some(), HAS_TOKEN)
                | presence(seq.is_some(), HAS_SEQ)
                | presence(source.is_some(), HAS_SOURCE),
        );
        put_varint(&mut self.log, peer.index() as u64);
        put_varint(&mut self.log, at.wrapping_sub(self.last_at));
        if let Some(t) = token {
            put_varint(&mut self.log, t.index() as u64);
        }
        if let Some(s) = seq {
            put_varint(&mut self.log, s);
        }
        if let Some(x) = source {
            put_varint(&mut self.log, x.index() as u64);
        }
        self.last_at = at;
        self.len += 1;
    }

    /// The recorded entries, in execution order, decoded from the log.
    pub fn entries(&self) -> impl Iterator<Item = TranscriptEntry> + '_ {
        let mut rest = self.log.as_slice();
        let mut at: VirtualTime = 0;
        std::iter::from_fn(move || {
            let (&header, tail) = rest.split_first()?;
            rest = tail;
            let peer = NodeId::new(take_varint(&mut rest) as u32);
            at = at.wrapping_add(take_varint(&mut rest));
            // Struct fields evaluate in source order: token, seq, source,
            // the order `append` wrote them in.
            let mut field = |bit: u8| (header & bit != 0).then(|| take_varint(&mut rest));
            let summary = MsgSummary {
                kind: MsgKind::ALL[usize::from(header >> KIND_SHIFT & KIND_MASK)],
                token: field(HAS_TOKEN).map(|t| TokenId::new(t as u32)),
                seq: field(HAS_SEQ),
                source: field(HAS_SOURCE).map(|x| NodeId::new(x as u32)),
            };
            let dir = if header & DIR_BIT == 0 {
                Direction::Sent
            } else {
                Direction::Received
            };
            Some(TranscriptEntry {
                dir,
                peer,
                at,
                summary,
            })
        })
    }

    /// The running chain digest over every appended entry — the
    /// signature stand-in: byte-identical across seeded replays,
    /// different on any divergence.
    pub fn chain_hash(&self) -> u64 {
        self.chain
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_hash_is_order_sensitive_and_deterministic() {
        let a = MsgSummary::bare(MsgKind::Probe);
        let b = MsgSummary {
            token: Some(TokenId::new(3)),
            seq: Some(7),
            ..MsgSummary::bare(MsgKind::Walk)
        };
        let mut t1 = Transcript::new();
        t1.append(Direction::Sent, NodeId::new(1), 5, a);
        t1.append(Direction::Received, NodeId::new(2), 9, b);
        let mut t2 = Transcript::new();
        t2.append(Direction::Sent, NodeId::new(1), 5, a);
        t2.append(Direction::Received, NodeId::new(2), 9, b);
        assert_eq!(t1.chain_hash(), t2.chain_hash(), "replay-identical");
        let mut t3 = Transcript::new();
        t3.append(Direction::Received, NodeId::new(2), 9, b);
        t3.append(Direction::Sent, NodeId::new(1), 5, a);
        assert_ne!(t1.chain_hash(), t3.chain_hash(), "order matters");
        assert_eq!(t1.len(), 2);
        assert!(!t1.is_empty());
    }

    #[test]
    fn default_is_new() {
        let (d, n) = (Transcript::default(), Transcript::new());
        assert_eq!(d.chain_hash(), n.chain_hash());
        assert_eq!((d.len(), d.is_empty()), (n.len(), n.is_empty()));
    }

    #[test]
    fn msg_kind_fits_the_three_header_bits() {
        // Exhaustive on purpose: a ninth kind stops this compiling, and
        // needs a wider header before a transcript can record it.
        let code = |kind: MsgKind| match kind {
            MsgKind::Probe => 0,
            MsgKind::Completeness => 1,
            MsgKind::Ack => 2,
            MsgKind::Request => 3,
            MsgKind::Token => 4,
            MsgKind::Walk => 5,
            MsgKind::WalkAck => 6,
            MsgKind::CenterAnnounce => 7,
        };
        assert_eq!(MsgKind::ALL.len(), usize::from(KIND_MASK) + 1);
        for (i, &kind) in MsgKind::ALL.iter().enumerate() {
            assert_eq!((code(kind), kind as usize), (i, i));
        }
    }

    #[test]
    fn records_round_trip() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        // Mostly small values (the real shape), with the field type's
        // maximum and uniform draws over its range mixed in. `max` is an
        // all-ones mask: `u32::MAX` or `u64::MAX`.
        fn draw(rng: &mut StdRng, max: u64) -> u64 {
            match rng.gen_range(0..4) {
                0 => max,
                1 => rng.next_u64() & max,
                _ => rng.gen_range(0..300),
            }
        }
        let mut rng = StdRng::seed_from_u64(0x7a5c);
        for _ in 0..64 {
            let mut t = Transcript::new();
            let mut want = Vec::new();
            let mut at: VirtualTime = 0;
            for _ in 0..rng.gen_range(0..300) {
                // `at` mostly rises, sometimes stays or falls, sometimes
                // jumps to either end of the `u64` range.
                at = match rng.gen_range(0..8) {
                    0 => at.wrapping_sub(draw(&mut rng, u64::MAX)),
                    1 => [0, u64::MAX][rng.gen_range(0..2usize)],
                    2 => at,
                    _ => at.wrapping_add(draw(&mut rng, u64::MAX)),
                };
                let presence = rng.gen_range(0..8u8);
                let summary = MsgSummary {
                    kind: MsgKind::ALL[rng.gen_range(0..8usize)],
                    token: (presence & 1 != 0)
                        .then(|| TokenId::new(draw(&mut rng, u32::MAX.into()) as u32)),
                    seq: (presence & 2 != 0).then(|| draw(&mut rng, u64::MAX)),
                    source: (presence & 4 != 0)
                        .then(|| NodeId::new(draw(&mut rng, u32::MAX.into()) as u32)),
                };
                let entry = TranscriptEntry {
                    dir: [Direction::Sent, Direction::Received][rng.gen_range(0..2usize)],
                    peer: NodeId::new(draw(&mut rng, u32::MAX.into()) as u32),
                    at,
                    summary,
                };
                t.append(entry.dir, entry.peer, entry.at, entry.summary);
                want.push(entry);
            }
            assert_eq!(t.entries().collect::<Vec<_>>(), want);
            assert_eq!(t.len(), want.len());
            assert_eq!(t.is_empty(), want.is_empty());
        }
    }

    #[test]
    fn chain_hash_is_pinned() {
        // All three message families, both directions. The chain is a
        // format — two builds must agree on a replay's digest — so its
        // value is pinned, not only its determinism.
        let (token, seq) = (TokenId::new(4), 0x0102_0304_0506);
        let walk_ack = AsyncOblMsg::WalkAck { token, seq };
        let entries = [
            (1, 5, AsyncSsMsg::Request(TokenId::new(3)).summarize()),
            (1, 9, AsyncSsMsg::Token(TokenId::new(3)).summarize()),
            (2, 12, AsyncMsMsg::Completeness(NodeId::new(7)).summarize()),
            (2, 13, AsyncMsMsg::Ack(NodeId::new(7)).summarize()),
            (4000, 1 << 40, AsyncOblMsg::Walk { token, seq }.summarize()),
            (4000, 3 << 40, walk_ack.summarize()),
        ];
        let mut t = Transcript::new();
        for (i, (peer, at, summary)) in entries.into_iter().enumerate() {
            let dir = [Direction::Sent, Direction::Received][i % 2];
            t.append(dir, NodeId::new(peer), at, summary);
        }
        assert_eq!(t.chain_hash(), 0xfbda_fe13_5c3d_5fa9);
    }

    #[test]
    fn summaries_distinguish_the_wire_messages() {
        let msgs = [
            AsyncOblMsg::Probe,
            AsyncOblMsg::CenterAnnounce,
            AsyncOblMsg::Walk {
                token: TokenId::new(0),
                seq: 1,
            },
            AsyncOblMsg::Walk {
                token: TokenId::new(1),
                seq: 1,
            },
            AsyncOblMsg::WalkAck {
                token: TokenId::new(0),
                seq: 1,
            },
        ];
        for (i, a) in msgs.iter().enumerate() {
            for (j, b) in msgs.iter().enumerate() {
                assert_eq!(
                    a.summarize() == b.summarize(),
                    i == j,
                    "summary must determine the payload"
                );
            }
        }
    }
}
