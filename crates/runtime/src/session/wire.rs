//! The typed wire boundary: session IDs and the byte envelope.
//!
//! Everything a multiplexed node puts on a link is a [`WireEnvelope`]:
//! a [`SessionId`] stamp plus the inner protocol message serialized
//! through the vendored [`bincodec`] codec. The envelope is the *only*
//! message type the shared engine sees — per-session payload types are
//! erased at the boundary and re-typed on receipt, exactly the shape a
//! production service uses so that one transport can carry many
//! concurrently evolving protocols.
//!
//! Wire layout (all integers little-endian):
//!
//! ```text
//! [ session: u32 ][ payload_len: u32 ][ payload bytes … ]
//! ```
//!
//! The payload encodings for the three async ports are tag-byte enums
//! (tag, then fields): they are fixed here, tested for roundtrip
//! identity, and — because [`bincodec`] is deterministic — equal
//! messages always produce equal bytes, so seeded replays are
//! byte-identical through the serialization boundary.
//!
//! A payload of up to [`INLINE_PAYLOAD`] bytes lives inside the envelope
//! itself ([`WirePayload`]); every message of the three ports fits (the
//! largest, `AsyncOblMsg::Walk`, is 13 bytes). Building, cloning and
//! dropping such an envelope touches no allocator — it is a 24-byte
//! value the event queue copies like any other message — so a session
//! envelope costs what its bytes cost. Longer caller-built payloads
//! (fuzz inputs, [`WireEnvelope::from_bytes`] of arbitrary frames) go to
//! the heap; both cases read through the same `&[u8]` view.

use bincodec::{Decode, DecodeError, Encode, Reader};
use dynspread_graph::NodeId;
use dynspread_sim::token::TokenId;
use std::num::NonZeroU8;
use std::ops::Deref;

use crate::protocol::{AsyncMsMsg, AsyncOblMsg, AsyncSsMsg};

/// Identifies one dissemination session multiplexed over the shared
/// network: a dense index into the run's workload trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u32);

impl SessionId {
    /// Creates a session identity from its dense workload index.
    pub const fn new(index: u32) -> Self {
        SessionId(index)
    }

    /// The dense workload index.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// The raw value.
    pub const fn value(self) -> u32 {
        self.0
    }
}

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl Encode for SessionId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for SessionId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SessionId(u32::decode(r)?))
    }
}

/// Payloads up to this many bytes are stored inside the envelope.
pub const INLINE_PAYLOAD: usize = 15;

/// The bytes of one envelope's payload: inline up to [`INLINE_PAYLOAD`]
/// bytes, boxed beyond. Read it as a `&[u8]` (it derefs to one); equality
/// and `Debug` are those of the byte slice.
#[derive(Clone)]
pub struct WirePayload(Repr);

#[derive(Clone)]
enum Repr {
    /// `bytes[..len - 1]`. The length is stored plus one so that the byte
    /// is never 0: that value tags the heap case, which keeps the payload
    /// at 16 bytes and the envelope at 24.
    Inline {
        bytes: [u8; INLINE_PAYLOAD],
        len: NonZeroU8,
    },
    /// Longer payloads. Boxed twice for the same reason: a thin pointer
    /// fits beside the inline case's length byte, a slice pointer would
    /// not.
    Heap(Box<Box<[u8]>>),
}

impl WirePayload {
    /// Copies `bytes` into a payload: in place when they fit, boxed
    /// otherwise.
    fn from_slice(bytes: &[u8]) -> Self {
        if bytes.len() > INLINE_PAYLOAD {
            return WirePayload(Repr::Heap(Box::new(bytes.into())));
        }
        let mut inline = [0; INLINE_PAYLOAD];
        inline[..bytes.len()].copy_from_slice(bytes);
        WirePayload(Repr::Inline {
            bytes: inline,
            len: NonZeroU8::MIN.saturating_add(bytes.len() as u8),
        })
    }
}

impl Deref for WirePayload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { bytes, len } => &bytes[..usize::from(len.get()) - 1],
            Repr::Heap(bytes) => bytes,
        }
    }
}

impl PartialEq for WirePayload {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for WirePayload {}

impl std::fmt::Debug for WirePayload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        (**self).fmt(f)
    }
}

/// A session-stamped message: what actually travels over the shared
/// links when sessions are multiplexed.
///
/// The payload is a [`WirePayload`]: a message of the three async ports
/// is stored inline, so an envelope is a plain 24-byte value and the
/// engine's per-copy fan-out clones are copies of it, with no allocation
/// and no reference count. Only payloads longer than [`INLINE_PAYLOAD`]
/// bytes are boxed (and deep-copied on clone).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireEnvelope {
    /// Which session this message belongs to.
    pub session: SessionId,
    /// The inner protocol message, serialized via [`bincodec`].
    pub payload: WirePayload,
}

impl WireEnvelope {
    /// Stamps `session` onto an already-encoded payload.
    pub fn new(session: SessionId, payload: Vec<u8>) -> Self {
        WireEnvelope {
            session,
            payload: WirePayload::from_slice(&payload),
        }
    }

    /// Encodes a typed message into an envelope for `session`.
    pub fn encode_msg<M: Encode>(session: SessionId, msg: &M) -> Self {
        WireEnvelope::encode_msg_with(session, msg, &mut Vec::new())
    }

    /// Like [`WireEnvelope::encode_msg`], but encodes through `scratch`
    /// (cleared first), so a caller that keeps one buffer pays no
    /// allocation for a payload that fits inline.
    pub fn encode_msg_with<M: Encode>(session: SessionId, msg: &M, scratch: &mut Vec<u8>) -> Self {
        scratch.clear();
        msg.encode(scratch);
        WireEnvelope {
            session,
            payload: WirePayload::from_slice(scratch),
        }
    }

    /// Decodes the payload back into the typed message, rejecting
    /// truncated or oversized payloads.
    pub fn decode_msg<M: Decode>(&self) -> Result<M, DecodeError> {
        bincodec::from_bytes(&self.payload)
    }

    /// Serializes the full envelope (header + payload) to bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.payload.len());
        self.encode(&mut out);
        out
    }

    /// Parses a full envelope from bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        bincodec::from_bytes(bytes)
    }
}

impl Encode for WireEnvelope {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        encode_bytes(&self.payload, out);
    }
}

impl Decode for WireEnvelope {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let session = SessionId::decode(r)?;
        let len = u32::decode(r)? as usize;
        let payload = r.take(len)?;
        Ok(WireEnvelope {
            session,
            payload: WirePayload::from_slice(payload),
        })
    }
}

fn encode_bytes(bytes: &[u8], out: &mut Vec<u8>) {
    (u32::try_from(bytes.len()).expect("payload exceeds u32 wire limit")).encode(out);
    out.extend_from_slice(bytes);
}

fn encode_node(v: NodeId, out: &mut Vec<u8>) {
    v.value().encode(out);
}

fn decode_node(r: &mut Reader<'_>) -> Result<NodeId, DecodeError> {
    Ok(NodeId::new(u32::decode(r)?))
}

fn encode_token(t: TokenId, out: &mut Vec<u8>) {
    t.value().encode(out);
}

fn decode_token(r: &mut Reader<'_>) -> Result<TokenId, DecodeError> {
    Ok(TokenId::new(u32::decode(r)?))
}

impl Encode for AsyncSsMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AsyncSsMsg::Probe => out.push(0),
            AsyncSsMsg::Completeness => out.push(1),
            AsyncSsMsg::Ack => out.push(2),
            AsyncSsMsg::Request(t) => {
                out.push(3);
                encode_token(*t, out);
            }
            AsyncSsMsg::Token(t) => {
                out.push(4);
                encode_token(*t, out);
            }
        }
    }
}

impl Decode for AsyncSsMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => AsyncSsMsg::Probe,
            1 => AsyncSsMsg::Completeness,
            2 => AsyncSsMsg::Ack,
            3 => AsyncSsMsg::Request(decode_token(r)?),
            4 => AsyncSsMsg::Token(decode_token(r)?),
            tag => return Err(DecodeError::InvalidTag(tag)),
        })
    }
}

impl Encode for AsyncMsMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AsyncMsMsg::Probe => out.push(0),
            AsyncMsMsg::Completeness(x) => {
                out.push(1);
                encode_node(*x, out);
            }
            AsyncMsMsg::Ack(x) => {
                out.push(2);
                encode_node(*x, out);
            }
            AsyncMsMsg::Request(t) => {
                out.push(3);
                encode_token(*t, out);
            }
            AsyncMsMsg::Token(t) => {
                out.push(4);
                encode_token(*t, out);
            }
        }
    }
}

impl Decode for AsyncMsMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => AsyncMsMsg::Probe,
            1 => AsyncMsMsg::Completeness(decode_node(r)?),
            2 => AsyncMsMsg::Ack(decode_node(r)?),
            3 => AsyncMsMsg::Request(decode_token(r)?),
            4 => AsyncMsMsg::Token(decode_token(r)?),
            tag => return Err(DecodeError::InvalidTag(tag)),
        })
    }
}

impl Encode for AsyncOblMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AsyncOblMsg::Probe => out.push(0),
            AsyncOblMsg::CenterAnnounce => out.push(1),
            AsyncOblMsg::Walk { token, seq } => {
                out.push(2);
                encode_token(*token, out);
                seq.encode(out);
            }
            AsyncOblMsg::WalkAck { token, seq } => {
                out.push(3);
                encode_token(*token, out);
                seq.encode(out);
            }
        }
    }
}

impl Decode for AsyncOblMsg {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match r.byte()? {
            0 => AsyncOblMsg::Probe,
            1 => AsyncOblMsg::CenterAnnounce,
            2 => AsyncOblMsg::Walk {
                token: decode_token(r)?,
                seq: u64::decode(r)?,
            },
            3 => AsyncOblMsg::WalkAck {
                token: decode_token(r)?,
                seq: u64::decode(r)?,
            },
            tag => return Err(DecodeError::InvalidTag(tag)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<M: Encode + Decode + PartialEq + std::fmt::Debug>(msg: M) {
        let env = WireEnvelope::encode_msg(SessionId::new(3), &msg);
        assert_eq!(env.decode_msg::<M>().unwrap(), msg);
        let outer = WireEnvelope::from_bytes(&env.to_bytes()).unwrap();
        assert_eq!(outer, env);
        assert_eq!(outer.session, SessionId::new(3));
    }

    #[test]
    fn single_source_messages_roundtrip() {
        roundtrip(AsyncSsMsg::Probe);
        roundtrip(AsyncSsMsg::Completeness);
        roundtrip(AsyncSsMsg::Ack);
        roundtrip(AsyncSsMsg::Request(TokenId::new(7)));
        roundtrip(AsyncSsMsg::Token(TokenId::new(0)));
    }

    #[test]
    fn multi_source_messages_roundtrip() {
        roundtrip(AsyncMsMsg::Probe);
        roundtrip(AsyncMsMsg::Completeness(NodeId::new(5)));
        roundtrip(AsyncMsMsg::Ack(NodeId::new(0)));
        roundtrip(AsyncMsMsg::Request(TokenId::new(2)));
        roundtrip(AsyncMsMsg::Token(TokenId::new(9)));
    }

    #[test]
    fn oblivious_messages_roundtrip() {
        roundtrip(AsyncOblMsg::Probe);
        roundtrip(AsyncOblMsg::CenterAnnounce);
        roundtrip(AsyncOblMsg::Walk {
            token: TokenId::new(4),
            seq: 99,
        });
        roundtrip(AsyncOblMsg::WalkAck {
            token: TokenId::new(4),
            seq: u64::MAX,
        });
    }

    #[test]
    fn an_envelope_is_three_words() {
        assert_eq!(std::mem::size_of::<WirePayload>(), 16);
        assert_eq!(std::mem::size_of::<WireEnvelope>(), 24);
    }

    #[test]
    fn envelope_layout_is_the_documented_bytes() {
        let env = WireEnvelope::encode_msg(SessionId::new(1), &AsyncSsMsg::Ack);
        // [session 1 u32][len 1 u32][tag 2]
        assert_eq!(env.to_bytes(), vec![1, 0, 0, 0, 1, 0, 0, 0, 2]);
    }

    #[test]
    fn corrupted_payloads_are_rejected_not_panicked() {
        let env = WireEnvelope::new(SessionId::new(0), vec![250]);
        assert_eq!(
            env.decode_msg::<AsyncSsMsg>(),
            Err(DecodeError::InvalidTag(250))
        );
        let truncated = WireEnvelope::new(SessionId::new(0), vec![3]);
        assert_eq!(
            truncated.decode_msg::<AsyncSsMsg>(),
            Err(DecodeError::UnexpectedEof)
        );
        assert!(WireEnvelope::from_bytes(&[1, 0, 0, 0, 9, 0, 0, 0, 1]).is_err());
    }

    #[test]
    fn equal_messages_encode_to_equal_bytes() {
        let a = WireEnvelope::encode_msg(
            SessionId::new(2),
            &AsyncOblMsg::Walk {
                token: TokenId::new(1),
                seq: 3,
            },
        );
        let b = WireEnvelope::encode_msg(
            SessionId::new(2),
            &AsyncOblMsg::Walk {
                token: TokenId::new(1),
                seq: 3,
            },
        );
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
