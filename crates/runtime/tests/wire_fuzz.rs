//! Decode fuzzing of the wire boundary: [`WireEnvelope::from_bytes`] and
//! the payload decoders of the three async ports are fed arbitrary
//! bytes, and single-byte mutations and truncations of valid encodings.
//!
//! The contract under test is the one a network-facing decoder owes its
//! process: every input yields `Ok` or `Err` — never a panic — and no
//! allocation is sized by a length prefix the input cannot back. The
//! first half is checked by running at all (the vendored proptest turns
//! a panic into a failed case); the second by a counting global
//! allocator that records the largest single request each thread
//! makes, which for inputs of a few dozen bytes must stay tiny. The
//! record is per thread so that one failing test's panic report (a
//! captured backtrace allocates hundreds of kilobytes) does not fail
//! the tests running beside it.
//!
//! The same allocator counts each thread's allocations, which pins the
//! envelope's other contract: a message of the three ports is carried
//! inline, so encoding it through a warm buffer, cloning, decoding and
//! dropping the envelope allocate nothing at all.

use bincodec::{Decode, Encode};
use dynspread_graph::NodeId;
use dynspread_runtime::protocol::{AsyncMsMsg, AsyncOblMsg, AsyncSsMsg};
use dynspread_runtime::session::{SessionId, WireEnvelope, INLINE_PAYLOAD};
use dynspread_sim::token::TokenId;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations this thread has made, and the largest single one.
    /// Const-initialized and without a destructor, so the allocator may
    /// touch them at any point of a thread's life without allocating
    /// itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static LARGEST_ALLOC: Cell<usize> = const { Cell::new(0) };
}

/// No input here exceeds 80 bytes; a decoder that trusted a hostile
/// `u32` length prefix would ask for far more than this.
const ALLOC_LIMIT: usize = 64 * 1024;

struct CountingAlloc;

// SAFETY: both methods forward their arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the only additions are a
// thread-local count and maximum that touch no allocator state.
// `realloc` and `alloc_zeroed` keep their default implementations,
// which go through these two.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = LARGEST_ALLOC.try_with(|m| m.set(m.get().max(layout.size())));
        // SAFETY: the caller's layout, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Checks the largest allocation the calling thread has made.
fn assert_allocations_stayed_small() {
    let largest = LARGEST_ALLOC.with(Cell::get);
    assert!(
        largest < ALLOC_LIMIT,
        "a {largest}-byte allocation while decoding inputs under 80 bytes"
    );
}

/// Decodes `bytes` as a payload of type `M`. Whatever comes back, a
/// successful decode must be of the canonical encoding: re-encoding the
/// message reproduces the input exactly.
fn decode_payload<M: Encode + Decode>(bytes: &[u8]) -> bool {
    let env = WireEnvelope::new(SessionId::new(0), bytes.to_vec());
    match env.decode_msg::<M>() {
        Ok(msg) => {
            assert_eq!(bincodec::to_bytes(&msg), bytes, "non-canonical decode");
            true
        }
        Err(_) => false,
    }
}

/// Same for a whole envelope; a decoded payload is never longer than the
/// input that carried it.
fn decode_envelope(bytes: &[u8]) -> bool {
    match WireEnvelope::from_bytes(bytes) {
        Ok(env) => {
            assert_eq!(env.payload.len() + 8, bytes.len(), "payload/input length");
            assert_eq!(env.to_bytes(), bytes, "non-canonical decode");
            true
        }
        Err(_) => false,
    }
}

fn decode_everything(bytes: &[u8]) {
    decode_envelope(bytes);
    decode_payload::<AsyncSsMsg>(bytes);
    decode_payload::<AsyncMsMsg>(bytes);
    decode_payload::<AsyncOblMsg>(bytes);
}

fn token() -> impl Strategy<Value = TokenId> {
    (0u32..=u32::MAX).prop_map(TokenId::new)
}

fn node() -> impl Strategy<Value = NodeId> {
    (0u32..=u32::MAX).prop_map(NodeId::new)
}

fn ss_msg() -> impl Strategy<Value = AsyncSsMsg> {
    prop_oneof![
        Just(AsyncSsMsg::Probe),
        Just(AsyncSsMsg::Completeness),
        Just(AsyncSsMsg::Ack),
        token().prop_map(AsyncSsMsg::Request),
        token().prop_map(AsyncSsMsg::Token),
    ]
}

fn ms_msg() -> impl Strategy<Value = AsyncMsMsg> {
    prop_oneof![
        Just(AsyncMsMsg::Probe),
        node().prop_map(AsyncMsMsg::Completeness),
        node().prop_map(AsyncMsMsg::Ack),
        token().prop_map(AsyncMsMsg::Request),
        token().prop_map(AsyncMsMsg::Token),
    ]
}

fn obl_msg() -> impl Strategy<Value = AsyncOblMsg> {
    prop_oneof![
        Just(AsyncOblMsg::Probe),
        Just(AsyncOblMsg::CenterAnnounce),
        (token(), 0u64..=u64::MAX).prop_map(|(token, seq)| AsyncOblMsg::Walk { token, seq }),
        (token(), 0u64..=u64::MAX).prop_map(|(token, seq)| AsyncOblMsg::WalkAck { token, seq }),
    ]
}

/// A valid encoding of one of the four wire shapes: the three payload
/// types bare, or one of them inside an envelope.
fn valid_encoding() -> impl Strategy<Value = Vec<u8>> {
    let enveloped = |payload: Vec<u8>, session: u32| {
        WireEnvelope::new(SessionId::new(session), payload).to_bytes()
    };
    prop_oneof![
        ss_msg().prop_map(|m| bincodec::to_bytes(&m)),
        ms_msg().prop_map(|m| bincodec::to_bytes(&m)),
        obl_msg().prop_map(|m| bincodec::to_bytes(&m)),
        (ss_msg(), 0u32..=u32::MAX).prop_map(move |(m, s)| enveloped(bincodec::to_bytes(&m), s)),
        (obl_msg(), 0u32..=u32::MAX).prop_map(move |(m, s)| enveloped(bincodec::to_bytes(&m), s)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2_000))]

    /// Arbitrary byte strings decode to `Ok` or `Err`, never a panic.
    #[test]
    fn arbitrary_bytes_never_panic_a_decoder(
        bytes in prop::collection::vec(0u8..=255, 0..64),
    ) {
        decode_everything(&bytes);
        assert_allocations_stayed_small();
    }

    /// Flipping bits of one byte of a valid encoding: still `Ok` or
    /// `Err` under every decoder, and canonical when `Ok`.
    #[test]
    fn single_byte_mutations_never_panic_a_decoder(
        bytes in valid_encoding(),
        at in 0usize..64,
        mask in 1u8..=255,
    ) {
        let mut mutated = bytes;
        let at = at % mutated.len();
        mutated[at] ^= mask;
        decode_everything(&mutated);
        assert_allocations_stayed_small();
    }

    /// Every strict prefix of a valid encoding is rejected by the
    /// decoder it was valid for (the encodings are prefix-free: the tag
    /// fixes a payload's length, the header an envelope's), and panics
    /// none of the others.
    #[test]
    fn truncations_are_rejected(
        msg in obl_msg(),
        session in 0u32..=u32::MAX,
        keep in 0usize..64,
    ) {
        let payload = bincodec::to_bytes(&msg);
        let envelope = WireEnvelope::new(SessionId::new(session), payload.clone()).to_bytes();
        prop_assert!(decode_payload::<AsyncOblMsg>(&payload));
        prop_assert!(decode_envelope(&envelope));
        let cut = &payload[..keep % payload.len()];
        prop_assert!(!decode_payload::<AsyncOblMsg>(cut), "prefix {cut:?} decoded");
        decode_everything(cut);
        let cut = &envelope[..keep % envelope.len()];
        prop_assert!(!decode_envelope(cut), "prefix {cut:?} decoded");
        decode_everything(cut);
        assert_allocations_stayed_small();
    }
}

/// Length prefixes the input cannot back are an error before anything is
/// allocated for them.
#[test]
fn hostile_length_prefixes_allocate_nothing() {
    for claimed in [u32::MAX, 1 << 30, 1 << 20, 1 << 17, 10] {
        let mut bytes = 7u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&claimed.to_le_bytes());
        bytes.extend_from_slice(&[2, 0, 0]);
        assert!(
            WireEnvelope::from_bytes(&bytes).is_err(),
            "{claimed} payload bytes claimed, 3 present"
        );
        decode_everything(&bytes);
    }
    assert_allocations_stayed_small();
}

/// Allocations the calling thread makes while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

/// Encodes `msg` through the warm `scratch`, clones the envelope eight
/// times, decodes every clone and drops them all.
fn envelope_cycle<M: Encode + Decode + PartialEq + std::fmt::Debug>(
    msg: &M,
    scratch: &mut Vec<u8>,
) {
    let env = WireEnvelope::encode_msg_with(SessionId::new(u32::MAX), msg, scratch);
    let clones: [WireEnvelope; 8] = std::array::from_fn(|_| env.clone());
    for clone in &clones {
        assert_eq!(clone.decode_msg::<M>().as_ref(), Ok(msg));
    }
    assert_eq!(env.payload.len(), scratch.len());
}

#[test]
fn an_envelope_of_every_port_message_allocates_nothing() {
    let t = TokenId::new(u32::MAX);
    let x = NodeId::new(u32::MAX);
    let ss = [
        AsyncSsMsg::Probe,
        AsyncSsMsg::Completeness,
        AsyncSsMsg::Ack,
        AsyncSsMsg::Request(t),
        AsyncSsMsg::Token(t),
    ];
    let ms = [
        AsyncMsMsg::Probe,
        AsyncMsMsg::Completeness(x),
        AsyncMsMsg::Ack(x),
        AsyncMsMsg::Request(t),
        AsyncMsMsg::Token(t),
    ];
    let obl = [
        AsyncOblMsg::Probe,
        AsyncOblMsg::CenterAnnounce,
        AsyncOblMsg::Walk {
            token: t,
            seq: u64::MAX,
        },
        AsyncOblMsg::WalkAck {
            token: t,
            seq: u64::MAX,
        },
    ];
    let mut scratch = Vec::with_capacity(64);
    let allocs = allocations_in(|| {
        ss.iter().for_each(|m| envelope_cycle(m, &mut scratch));
        ms.iter().for_each(|m| envelope_cycle(m, &mut scratch));
        obl.iter().for_each(|m| envelope_cycle(m, &mut scratch));
    });
    assert_eq!(allocs, 0, "allocations while carrying port messages");
    // The largest message of the three ports still fits inline.
    let walk = bincodec::to_bytes(&obl[2]);
    assert!(walk.len() <= INLINE_PAYLOAD, "{} bytes", walk.len());
}

/// Payloads on both sides of the inline limit: the same bytes back
/// through `new`, `to_bytes` and `from_bytes`, slice equality whichever
/// way an envelope was built, and the byte-slice `Debug` text.
#[test]
fn payloads_round_trip_on_both_sides_of_the_inline_limit() {
    for len in [0, INLINE_PAYLOAD, INLINE_PAYLOAD + 1, 80] {
        let bytes: Vec<u8> = (0..len as u8).map(|b| b.wrapping_mul(37)).collect();
        let env = WireEnvelope::new(SessionId::new(9), bytes.clone());
        assert_eq!(&env.payload[..], &bytes[..]);
        let wire = env.to_bytes();
        assert_eq!(wire.len(), 8 + len);
        assert_eq!(&wire[8..], &bytes[..]);
        let back = WireEnvelope::from_bytes(&wire).expect("valid frame");
        assert_eq!(back, env);
        assert_eq!(back.to_bytes(), wire);
        assert_eq!(
            format!("{env:?}"),
            format!("WireEnvelope {{ session: SessionId(9), payload: {bytes:?} }}")
        );
        let mut other = bytes.clone();
        other.push(1);
        assert_ne!(env, WireEnvelope::new(SessionId::new(9), other));
        assert_ne!(env, WireEnvelope::new(SessionId::new(8), bytes));
        let clone_allocs = allocations_in(|| drop(env.clone()));
        assert_eq!(clone_allocs == 0, len <= INLINE_PAYLOAD, "{len} bytes");
    }
}
