//! Channel 1 of the observability layer: the **deterministic trace**.
//!
//! A [`Tracer`] is a sink for structured [`TraceRecord`]s emitted by the
//! engines at their hook points (sends, link fates, deliveries, timers,
//! coverage deltas, round boundaries). Every field of every record is a
//! pure function of the run's seeds — no wall-clock, no addresses — so
//! the serialized JSONL stream is **byte-identical under replay**. That
//! makes a trace diff a determinism-violation localizer: the first
//! differing line of two same-seed traces names the first divergent
//! scheduling decision (see `dynspread_analysis::trace::first_divergence`).
//!
//! Tracing is off by default and costs one predictable branch per hook
//! site when disabled. Enable it per engine with `set_tracer`:
//!
//! ```
//! use dynspread_graph::{adversary::FnAdversary, Graph, NodeId};
//! use dynspread_sim::trace::JsonlTracer;
//! use dynspread_sim::{SimConfig, TokenAssignment, UnicastSim};
//! use dynspread_sim::{MessageClass, MessagePayload};
//! use dynspread_sim::protocol::{Outbox, UnicastProtocol};
//! use dynspread_sim::token::{TokenId, TokenSet};
//!
//! # #[derive(Clone)]
//! # struct Tok(TokenId);
//! # impl MessagePayload for Tok {
//! #     fn token_count(&self) -> usize { 1 }
//! #     fn class(&self) -> MessageClass { MessageClass::Token }
//! # }
//! # struct Flood { know: TokenSet }
//! # impl UnicastProtocol for Flood {
//! #     type Msg = Tok;
//! #     fn send(&mut self, _r: u64, nbrs: &[NodeId], out: &mut Outbox<Tok>) {
//! #         for t in self.know.iter().collect::<Vec<_>>() {
//! #             for &w in nbrs { out.send(w, Tok(t)); }
//! #         }
//! #     }
//! #     fn receive(&mut self, _r: u64, _from: NodeId, m: &Tok) { self.know.insert(m.0); }
//! #     fn known_tokens(&self) -> &TokenSet { &self.know }
//! # }
//! let assignment = TokenAssignment::single_source(4, 1, NodeId::new(0));
//! let nodes: Vec<Flood> = NodeId::all(4)
//!     .map(|v| Flood { know: assignment.initial_knowledge(v) })
//!     .collect();
//! let adversary = FnAdversary::new("path", |_, p: &Graph| Graph::path(p.node_count()));
//! let mut sim = UnicastSim::new("flood", nodes, adversary, &assignment, SimConfig::default());
//! let tracer = JsonlTracer::new();
//! sim.set_tracer(tracer.clone());
//! sim.run_to_completion();
//! let jsonl = tracer.take_jsonl();
//! assert!(jsonl.lines().count() > 0);
//! assert!(jsonl.lines().all(|l| l.starts_with("{\"k\":\"")));
//! ```

use dynspread_graph::dynamic::RoundDelta;
use std::sync::{Arc, Mutex};

/// One structured trace event. All fields are deterministic functions of
/// the run's seeds; times are virtual (rounds for the synchronous
/// engines, virtual ticks for the event engine).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRecord {
    /// A round (synchronous engines) or topology epoch (event engine)
    /// boundary, with the sizes of the adversary's delta.
    Round {
        /// The round/epoch just installed.
        r: u64,
        /// Edges the delta inserted.
        inserted: u64,
        /// Edges the delta removed.
        removed: u64,
    },
    /// A protocol phase boundary (e.g. the oblivious pipeline's walk →
    /// multi-source hand-off).
    Phase {
        /// The phase now starting (1-based).
        p: u32,
    },
    /// One payload handed to the link layer (unicast).
    Send {
        /// Virtual time of the send.
        t: u64,
        /// Sender.
        from: u32,
        /// Destination.
        to: u32,
    },
    /// One local-broadcast choice committed (its per-neighbor link fates
    /// follow as separate records).
    Broadcast {
        /// Round of the broadcast.
        t: u64,
        /// The broadcasting node.
        from: u32,
    },
    /// A delivery copy scheduled by the link to arrive at `at`.
    Scheduled {
        /// Virtual time of the send.
        t: u64,
        /// Sender.
        from: u32,
        /// Destination.
        to: u32,
        /// Scheduled arrival time.
        at: u64,
    },
    /// The link dropped every copy of a transmission.
    Dropped {
        /// Virtual time of the send.
        t: u64,
        /// Sender.
        from: u32,
        /// Destination.
        to: u32,
    },
    /// The link scheduled more than one copy of a transmission.
    Duplicated {
        /// Virtual time of the send.
        t: u64,
        /// Sender.
        from: u32,
        /// Destination.
        to: u32,
        /// Copies beyond the first.
        extra: u32,
    },
    /// A send dropped at the source because no edge existed (event
    /// engine only; the synchronous engines panic instead).
    Unroutable {
        /// Virtual time of the send.
        t: u64,
        /// Sender.
        from: u32,
        /// Intended destination.
        to: u32,
    },
    /// A copy handed to its receiver.
    Delivered {
        /// Virtual time of the hand-over.
        t: u64,
        /// Original sender.
        from: u32,
        /// Receiver.
        to: u32,
    },
    /// A timer armed via `EventCtx::set_timer` (event engine only).
    TimerArmed {
        /// Virtual time the timer was armed.
        t: u64,
        /// The arming node.
        node: u32,
        /// Caller-chosen timer id.
        id: u64,
        /// Fire time.
        at: u64,
    },
    /// A timer firing (event engine only).
    TimerFired {
        /// Virtual time of the firing.
        t: u64,
        /// The node whose timer fired.
        node: u32,
        /// Caller-chosen timer id.
        id: u64,
    },
    /// A protocol-reported retransmission (a re-send of an unanswered
    /// request or announcement on the heartbeat path).
    Retransmission {
        /// Virtual time of the retransmission.
        t: u64,
        /// The retransmitting node.
        node: u32,
    },
    /// A protocol-reported backoff reset (progress was observed, so the
    /// heartbeat interval snapped back to its base).
    BackoffReset {
        /// Virtual time of the reset.
        t: u64,
        /// The node whose pacer reset.
        node: u32,
    },
    /// A node crashed per the fault plan: from here until recovery it
    /// consumes no deliveries, fires no timers, and sends nothing.
    NodeCrashed {
        /// Virtual time of the crash.
        t: u64,
        /// The crashed node.
        node: u32,
    },
    /// A crashed node rejoined per the fault plan (its `on_recover` hook
    /// runs at this instant).
    NodeRecovered {
        /// Virtual time of the recovery.
        t: u64,
        /// The recovering node.
        node: u32,
    },
    /// A partition episode began: cross-cut copies drop until it heals.
    PartitionStarted {
        /// Virtual time the cut appeared.
        t: u64,
        /// Episode index within the fault plan (0-based).
        episode: u32,
    },
    /// A partition episode healed (the `on_heal` hooks run at this
    /// instant).
    PartitionHealed {
        /// Virtual time the cut healed.
        t: u64,
        /// Episode index within the fault plan (0-based).
        episode: u32,
    },
    /// A per-node coverage delta observed at tracker sync: `node` learned
    /// `gained` new tokens and now knows `known`.
    Coverage {
        /// Virtual time of the observation.
        t: u64,
        /// The learning node.
        node: u32,
        /// Tokens newly learned at this sync.
        gained: u32,
        /// Total tokens the node now knows.
        known: u32,
    },
}

/// What every line starts with, before its kind tag.
const HEAD: &str = "{\"k\":\"";

/// The key of each field, as the line spells it before the digits:
/// `,"<name>":`. Kinds share fields, so each name is written here once.
mod key {
    macro_rules! keys {
        ($($id:ident = $name:literal),+) => {
            $(pub(super) const $id: &str = concat!(",\"", $name, "\":");)+
        };
    }
    keys!(
        R = "r",
        INS = "ins",
        DEL = "del",
        P = "p",
        T = "t",
        FROM = "from",
        TO = "to",
        AT = "at",
        EXTRA = "extra",
        NODE = "node",
        ID = "id",
        EP = "ep",
        GAINED = "gained",
        KNOWN = "known"
    );
}

/// Derives the whole JSONL codec from one table: per kind, its variant,
/// its tag, and its fields in line order with each field's key. A
/// field's width is its type in [`TraceRecord`] — a 32-bit field is
/// parsed through `u32::try_from`, so the table cannot disagree with
/// the enum.
macro_rules! grammar {
    ($($variant:ident $tag:literal { $($field:ident: $key:ident),+ }),+ $(,)?) => {
        /// The position of each kind in [`TraceRecord::KINDS`].
        enum Kind {
            $($variant),+
        }

        impl TraceRecord {
            /// Every kind tag, in the enum's declaration order.
            pub const KINDS: &'static [&'static str] = &[$($tag),+];

            /// The record's index into [`TraceRecord::KINDS`].
            pub fn kind_index(&self) -> usize {
                match self {
                    $(TraceRecord::$variant { .. } => Kind::$variant as usize),+
                }
            }

            /// The record's kind tag — the `"k"` field of its JSONL form.
            pub fn kind(&self) -> &'static str {
                Self::KINDS[self.kind_index()]
            }

            /// Appends the record's JSONL line (including the trailing
            /// newline) to `out`: the one canonical form
            /// [`parse_line`](TraceRecord::parse_line) accepts — fixed field
            /// order, no whitespace, plain decimal digits — so two equal
            /// records always produce equal bytes.
            pub fn write_jsonl(&self, out: &mut String) {
                out.push_str(HEAD);
                out.push_str(self.kind());
                out.push('"');
                match *self {
                    $(TraceRecord::$variant { $($field),+ } => {
                        $(
                            out.push_str(key::$key);
                            push_decimal(out, u64::from($field));
                        )+
                    })+
                }
                out.push_str("}\n");
            }

            /// Parses one JSONL line produced by
            /// [`TraceRecord::write_jsonl`], in one forward pass.
            ///
            /// Accepts exactly the canonical grammar, plus one optional
            /// trailing `\n`:
            ///
            /// ```text
            /// line  = '{"k":"' tag '"' field* '}'
            /// field = ',"' name '":' digits
            /// ```
            ///
            /// where `tag` is one of [`TraceRecord::KINDS`], the fields
            /// are that kind's, in the order `write_jsonl` writes them,
            /// and `digits` is `0` or a nonzero digit followed by digits,
            /// no larger than the field's type holds. Anything else —
            /// whitespace, reordered or repeated keys, a sign, a leading
            /// zero, bytes after `}`, a 32-bit field past `u32::MAX` —
            /// yields `None`, so `parse_line(l) == Some(r)` exactly when
            /// `l` is `r`'s line.
            pub fn parse_line(line: &str) -> Option<TraceRecord> {
                let line = line.strip_suffix('\n').unwrap_or(line);
                let (tag, mut rest) = line.strip_prefix(HEAD)?.split_once('"')?;
                let rec = match tag {
                    $($tag => TraceRecord::$variant {
                        $($field: field(&mut rest, key::$key)?),+
                    },)+
                    _ => return None,
                };
                (rest == "}").then_some(rec)
            }
        }
    };
}

grammar! {
    Round "round" { r: R, inserted: INS, removed: DEL },
    Phase "phase" { p: P },
    Send "send" { t: T, from: FROM, to: TO },
    Broadcast "bcast" { t: T, from: FROM },
    Scheduled "sched" { t: T, from: FROM, to: TO, at: AT },
    Dropped "drop" { t: T, from: FROM, to: TO },
    Duplicated "dup" { t: T, from: FROM, to: TO, extra: EXTRA },
    Unroutable "unroutable" { t: T, from: FROM, to: TO },
    Delivered "deliver" { t: T, from: FROM, to: TO },
    TimerArmed "timer_armed" { t: T, node: NODE, id: ID, at: AT },
    TimerFired "timer_fired" { t: T, node: NODE, id: ID },
    Retransmission "retransmit" { t: T, node: NODE },
    BackoffReset "backoff_reset" { t: T, node: NODE },
    NodeCrashed "crash" { t: T, node: NODE },
    NodeRecovered "recover" { t: T, node: NODE },
    PartitionStarted "part" { t: T, episode: EP },
    PartitionHealed "heal" { t: T, episode: EP },
    Coverage "cov" { t: T, node: NODE, gained: GAINED, known: KNOWN },
}

/// Appends `v` in decimal: the digits `write!` would print, without the
/// formatting machinery.
fn push_decimal(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("ASCII digits"));
}

/// Reads one `key` and its canonical digits off the front of `rest`:
/// at least one digit, no leading zero, no overflow of `u64` or of the
/// field's own type `T`. Inlined into each of `parse_line`'s call sites,
/// where `key` is a constant: left to the optimizer, it stays a call and
/// a trace parses ≈ 30 % slower.
#[inline(always)]
fn field<T: TryFrom<u64>>(rest: &mut &str, key: &str) -> Option<T> {
    let digits = rest.strip_prefix(key)?;
    let mut value = 0u64;
    let mut len = 0;
    for &b in digits.as_bytes() {
        if !b.is_ascii_digit() {
            break;
        }
        value = value.checked_mul(10)?.checked_add(u64::from(b - b'0'))?;
        len += 1;
    }
    if len == 0 || (len > 1 && digits.starts_with('0')) {
        return None;
    }
    *rest = &digits[len..];
    T::try_from(value).ok()
}

/// A sink for [`TraceRecord`]s.
///
/// Implementations must be `Send` so engines that carry a tracer remain
/// usable inside the parallel experiment driver's worker closures.
pub trait Tracer: Send {
    /// Consumes one record. Called synchronously at every hook point, in
    /// the engine's deterministic event order.
    fn record(&mut self, rec: &TraceRecord);
}

/// The do-nothing tracer: every record is discarded.
///
/// Installing it exercises every hook point without observable effect —
/// the determinism suite uses it to prove that *carrying* a tracer leaves
/// `RunReport`s byte-identical to an untraced run.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    fn record(&mut self, _rec: &TraceRecord) {}
}

/// A tracer that serializes every record to a shared JSONL buffer.
///
/// The handle is cheaply cloneable (an `Arc` internally): keep one clone,
/// install another into the engine — or into *several* engines, as the
/// two-phase oblivious pipeline does, in which case records land in the
/// buffer in cross-engine emission order. After the run,
/// [`take_jsonl`](JsonlTracer::take_jsonl) yields the byte-deterministic
/// transcript.
#[derive(Clone, Debug, Default)]
pub struct JsonlTracer {
    buf: Arc<Mutex<String>>,
}

impl JsonlTracer {
    /// Creates an empty shared buffer.
    pub fn new() -> Self {
        JsonlTracer::default()
    }

    /// Appends one record to the shared buffer (usable through a shared
    /// reference; [`Tracer::record`] delegates here).
    pub fn append(&self, rec: &TraceRecord) {
        let mut buf = self.buf.lock().expect("tracer buffer poisoned");
        rec.write_jsonl(&mut buf);
    }

    /// Takes the accumulated JSONL, leaving the buffer empty.
    pub fn take_jsonl(&self) -> String {
        std::mem::take(&mut *self.buf.lock().expect("tracer buffer poisoned"))
    }

    /// A copy of the accumulated JSONL without clearing the buffer.
    pub fn jsonl(&self) -> String {
        self.buf.lock().expect("tracer buffer poisoned").clone()
    }
}

impl Tracer for JsonlTracer {
    fn record(&mut self, rec: &TraceRecord) {
        self.append(rec);
    }
}

/// Emits `rec` into `tracer` if one is installed — the one-branch hook
/// the engines place on their paths.
#[inline]
pub fn emit(tracer: &mut Option<Box<dyn Tracer>>, rec: TraceRecord) {
    if let Some(tr) = tracer.as_deref_mut() {
        tr.record(&rec);
    }
}

/// Emits the [`TraceRecord::Round`] boundary of round (or epoch) `r`, sized
/// by the `delta` that installed it — the one place both engines open a
/// round on the trace.
#[inline]
pub fn emit_round(tracer: &mut Option<Box<dyn Tracer>>, r: u64, delta: &RoundDelta) {
    let (inserted, removed) = (delta.inserted.len() as u64, delta.removed.len() as u64);
    emit(
        tracer,
        TraceRecord::Round {
            r,
            inserted,
            removed,
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<TraceRecord> {
        vec![
            TraceRecord::Round {
                r: 3,
                inserted: 5,
                removed: 2,
            },
            TraceRecord::Phase { p: 2 },
            TraceRecord::Send {
                t: 7,
                from: 1,
                to: 2,
            },
            TraceRecord::Broadcast { t: 7, from: 4 },
            TraceRecord::Scheduled {
                t: 7,
                from: 1,
                to: 2,
                at: 9,
            },
            TraceRecord::Dropped {
                t: 7,
                from: 1,
                to: 2,
            },
            TraceRecord::Duplicated {
                t: 7,
                from: 1,
                to: 2,
                extra: 3,
            },
            TraceRecord::Unroutable {
                t: 7,
                from: 1,
                to: 2,
            },
            TraceRecord::Delivered {
                t: 9,
                from: 1,
                to: 2,
            },
            TraceRecord::TimerArmed {
                t: 0,
                node: 3,
                id: 1,
                at: 4,
            },
            TraceRecord::TimerFired {
                t: 4,
                node: 3,
                id: 1,
            },
            TraceRecord::Retransmission { t: 12, node: 3 },
            TraceRecord::BackoffReset { t: 12, node: 3 },
            TraceRecord::NodeCrashed { t: 15, node: 6 },
            TraceRecord::NodeRecovered { t: 40, node: 6 },
            TraceRecord::PartitionStarted { t: 20, episode: 0 },
            TraceRecord::PartitionHealed { t: 60, episode: 0 },
            TraceRecord::Coverage {
                t: 12,
                node: 5,
                gained: 2,
                known: 6,
            },
        ]
    }

    #[test]
    fn every_kind_round_trips_through_jsonl() {
        // Each kind as sampled, then with its fields — one at a time and
        // all at once — at 0, 1 and their width's max.
        let mut checked = 0;
        for base in samples() {
            let line = line_of(&base);
            assert_eq!(TraceRecord::parse_line(&line), Some(base), "{line}");
            let fields = field_count(base);
            let picks: [fn(u64) -> u64; 3] = [|_| 0, |_| 1, |max| max];
            for pick in picks {
                for only in (0..fields).map(Some).chain([None]) {
                    let mut rec = base;
                    for (i, slot) in slots(&mut rec).into_iter().enumerate() {
                        if only.is_none_or(|j| j == i) {
                            let v = pick(slot.max());
                            slot.set(v);
                        }
                    }
                    let line = line_of(&rec);
                    assert_eq!(TraceRecord::parse_line(&line), Some(rec), "{line}");
                    let bare = line.strip_suffix('\n').expect("line-terminated");
                    assert_eq!(TraceRecord::parse_line(bare), Some(rec), "{line}");
                    checked += 1;
                }
            }
        }
        // 18 kinds, 49 fields: (49 + 18) lines for each of 0, 1 and max.
        assert_eq!(checked, 3 * (49 + 18));
    }

    #[test]
    fn serialization_is_canonical() {
        let rec = TraceRecord::Send {
            t: 1,
            from: 2,
            to: 3,
        };
        let mut a = String::new();
        let mut b = String::new();
        rec.write_jsonl(&mut a);
        rec.write_jsonl(&mut b);
        assert_eq!(a, b);
        assert_eq!(a, "{\"k\":\"send\",\"t\":1,\"from\":2,\"to\":3}\n");
        let mut c = String::new();
        TraceRecord::NodeCrashed { t: 5, node: 2 }.write_jsonl(&mut c);
        assert_eq!(c, "{\"k\":\"crash\",\"t\":5,\"node\":2}\n");
        let mut d = String::new();
        TraceRecord::PartitionHealed { t: 9, episode: 1 }.write_jsonl(&mut d);
        assert_eq!(d, "{\"k\":\"heal\",\"t\":9,\"ep\":1}\n");
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(TraceRecord::parse_line(""), None);
        assert_eq!(TraceRecord::parse_line("not json"), None);
        assert_eq!(TraceRecord::parse_line("{\"k\":\"nope\"}"), None);
        assert_eq!(TraceRecord::parse_line("{\"k\":\"send\",\"t\":1}"), None);
        // Only the canonical form parses: one line per record, so a
        // record's line is the one line it can be read back from.
        let canonical = r#"{"k":"send","t":7,"from":1,"to":2}"#;
        assert!(TraceRecord::parse_line(canonical).is_some());
        for line in [
            r#"{"k":"send", "t":7,"from":1,"to":2}"#,
            r#" {"k":"send","t":7,"from":1,"to":2}"#,
            r#"{"k":"send","t":7,"from":1,"to":2} "#,
            r#"{"k":"send","from":1,"t":7,"to":2}"#,
            r#"{"t":7,"k":"send","from":1,"to":2}"#,
            r#"{"k":"send","k":"send","t":7,"from":1,"to":2}"#,
            r#"{"k":"send","t":7,"t":7,"from":1,"to":2}"#,
            r#"{"k":"send","t":+7,"from":1,"to":2}"#,
            r#"{"k":"send","t":07,"from":1,"to":2}"#,
            r#"{"k":"send","t":7,"from":1,"to":2,"at":3}"#,
            r#"{"k":"send","t":7,"from":1,"to":2}}"#,
            "{\"k\":\"send\",\"t\":7,\"from\":1,\"to\":2}\n\n",
            "{\"k\":\"send\",\"t\":7,\"from\":1,\"to\":2}\r\n",
        ] {
            assert_eq!(TraceRecord::parse_line(line), None, "{line:?}");
        }
    }

    #[test]
    fn parse_rejects_values_that_overflow_a_32_bit_field() {
        // Every 32-bit field of every kind: 2³² + v would narrow to v.
        let mut checked = 0;
        for rec in samples() {
            let mut line = String::new();
            rec.write_jsonl(&mut line);
            for key in ["p", "from", "to", "extra", "node", "ep", "gained", "known"] {
                let needle = format!("\"{key}\":");
                let Some(start) = line.find(&needle).map(|i| i + needle.len()) else {
                    continue;
                };
                let end = start + line[start..].find([',', '}']).expect("value ends");
                let v: u64 = line[start..end].parse().expect("numeric");
                let wide = format!("{}{}{}", &line[..start], (1u64 << 32) + v, &line[end..]);
                assert_eq!(TraceRecord::parse_line(&wide), None, "{wide}");
                checked += 1;
            }
        }
        assert_eq!(checked, 26, "every narrowed field of every kind");
        // The largest node ID fits, and 64-bit fields keep their range.
        let line = "{\"k\":\"send\",\"t\":4294967296,\"from\":4294967295,\"to\":1}";
        assert!(TraceRecord::parse_line(line).is_some());
    }

    /// One field of a record and its width. `slots` lists every kind's
    /// fields in line order, written out here independently of the
    /// codec's table.
    enum Slot<'a> {
        Narrow(&'a mut u32),
        Wide(&'a mut u64),
    }

    impl Slot<'_> {
        fn max(&self) -> u64 {
            match self {
                Slot::Narrow(_) => u32::MAX.into(),
                Slot::Wide(_) => u64::MAX,
            }
        }

        /// Stores `v`, which must fit the slot's width.
        fn set(self, v: u64) {
            match self {
                Slot::Narrow(f) => *f = u32::try_from(v).expect("fits 32 bits"),
                Slot::Wide(f) => *f = v,
            }
        }
    }

    fn slots(rec: &mut TraceRecord) -> Vec<Slot<'_>> {
        use Slot::{Narrow as N, Wide as W};
        use TraceRecord::*;
        match rec {
            Round {
                r,
                inserted,
                removed,
            } => vec![W(r), W(inserted), W(removed)],
            Phase { p } => vec![N(p)],
            Send { t, from, to }
            | Dropped { t, from, to }
            | Unroutable { t, from, to }
            | Delivered { t, from, to } => vec![W(t), N(from), N(to)],
            Broadcast { t, from } => vec![W(t), N(from)],
            Scheduled { t, from, to, at } => vec![W(t), N(from), N(to), W(at)],
            Duplicated { t, from, to, extra } => vec![W(t), N(from), N(to), N(extra)],
            TimerArmed { t, node, id, at } => vec![W(t), N(node), W(id), W(at)],
            TimerFired { t, node, id } => vec![W(t), N(node), W(id)],
            Retransmission { t, node }
            | BackoffReset { t, node }
            | NodeCrashed { t, node }
            | NodeRecovered { t, node } => vec![W(t), N(node)],
            PartitionStarted { t, episode } | PartitionHealed { t, episode } => {
                vec![W(t), N(episode)]
            }
            Coverage {
                t,
                node,
                gained,
                known,
            } => vec![W(t), N(node), N(gained), N(known)],
        }
    }

    fn field_count(mut rec: TraceRecord) -> usize {
        slots(&mut rec).len()
    }

    fn line_of(rec: &TraceRecord) -> String {
        let mut line = String::new();
        rec.write_jsonl(&mut line);
        line
    }

    #[test]
    fn samples_cover_every_kind_in_table_order() {
        let indices: Vec<usize> = samples().iter().map(TraceRecord::kind_index).collect();
        assert_eq!(indices, (0..TraceRecord::KINDS.len()).collect::<Vec<_>>());
        for rec in samples() {
            assert_eq!(rec.kind(), TraceRecord::KINDS[rec.kind_index()]);
        }
    }

    #[test]
    fn a_field_accepts_exactly_the_canonical_digits_its_width_holds() {
        // The oracle is `str::parse` plus "prints back the same", checked
        // against the slot's width: the canonical decimal form of a value
        // that fits, and nothing else.
        const MARK: u64 = 1_234_567;
        let tokens = [
            "0",
            "1",
            "9",
            "10",
            "99",
            "100",
            "4294967295",
            "4294967296",
            "18446744073709551614",
            "18446744073709551615",
            "18446744073709551616",
            "99999999999999999999",
            "00",
            "01",
            "007",
            "+7",
            "-1",
            " 7",
            "7 ",
            "",
            "1e3",
            "0x1",
            "\"7\"",
            "7.0",
        ];
        let mut accepted = 0;
        for base in samples() {
            let fields = field_count(base);
            for i in 0..fields {
                let mut rec = base;
                let mut max = 0;
                for (j, slot) in slots(&mut rec).into_iter().enumerate() {
                    if j == i {
                        max = slot.max();
                        slot.set(MARK);
                    } else {
                        slot.set(0);
                    }
                }
                let line = line_of(&rec);
                for token in tokens {
                    let edited = line.replacen(&format!(":{MARK}"), &format!(":{token}"), 1);
                    let want = token
                        .parse::<u64>()
                        .ok()
                        .filter(|v| v.to_string() == token && *v <= max);
                    let got = TraceRecord::parse_line(&edited);
                    match want {
                        None => assert_eq!(got, None, "{edited}"),
                        Some(v) => {
                            let mut expected = rec;
                            slots(&mut expected).remove(i).set(v);
                            assert_eq!(got, Some(expected), "{edited}");
                            assert_eq!(line_of(&expected), edited, "written back");
                            accepted += 1;
                        }
                    }
                }
            }
        }
        // 0, 1, 9, 10, 99, 100 and u32::MAX in every field; 2³², u64::MAX
        // and one below it in the 23 wide ones only (of 49). Each was
        // also written back digit for digit, as `to_string` prints it.
        assert_eq!(accepted, 7 * 49 + 3 * 23);
    }

    #[test]
    fn acceptance_is_a_bijection_onto_the_canonical_lines() {
        use rand::rngs::StdRng;
        use rand::{Rng, RngCore, SeedableRng};

        // Bytes the grammar is made of, so most edits land near a valid
        // line; any other ASCII byte otherwise.
        const ALPHABET: &[u8] = b"0123456789{}\":,+- \nkabcdefghilmnoprstuvw_";
        let kinds = samples();
        let mut rng = StdRng::seed_from_u64(0x7ace);
        let (mut accepted, mut rejected) = (0u32, 0u32);
        for _ in 0..40_000 {
            let mut rec = kinds[rng.gen_range(0..kinds.len())];
            for slot in slots(&mut rec) {
                let max = slot.max();
                let v = match rng.gen_range(0..4) {
                    0 => max,
                    1 => rng.next_u64() & max,
                    2 => 0,
                    _ => rng.gen_range(0..300),
                };
                slot.set(v);
            }
            let canonical = line_of(&rec);
            let mut bytes = canonical.into_bytes();
            if rng.gen_range(0..2) == 0 {
                bytes.pop();
            }
            for _ in 0..rng.gen_range(1..4) {
                let byte = if rng.gen_range(0..4) == 0 {
                    rng.gen_range(0..128u8)
                } else {
                    ALPHABET[rng.gen_range(0..ALPHABET.len())]
                };
                match rng.gen_range(0..3) {
                    0 if !bytes.is_empty() => {
                        bytes.remove(rng.gen_range(0..bytes.len()));
                    }
                    1 if !bytes.is_empty() => {
                        let at = rng.gen_range(0..bytes.len());
                        bytes[at] = byte;
                    }
                    _ => bytes.insert(rng.gen_range(0..=bytes.len()), byte),
                }
            }
            let line = String::from_utf8(bytes).expect("ASCII edits");
            match TraceRecord::parse_line(&line) {
                Some(parsed) => {
                    let written = line_of(&parsed);
                    let bare = line.strip_suffix('\n').unwrap_or(&line);
                    assert_eq!(written.strip_suffix('\n'), Some(bare), "{line:?}");
                    accepted += 1;
                }
                None => rejected += 1,
            }
        }
        // Digit-for-digit edits keep some mutants canonical; most are not.
        assert!(
            accepted > 1_000 && rejected > 30_000,
            "{accepted}/{rejected}"
        );
    }

    #[test]
    fn shared_tracer_orders_appends() {
        let tracer = JsonlTracer::new();
        let mut a = tracer.clone();
        let mut b = tracer.clone();
        a.record(&TraceRecord::Phase { p: 1 });
        b.record(&TraceRecord::Phase { p: 2 });
        let text = tracer.take_jsonl();
        assert_eq!(
            text,
            "{\"k\":\"phase\",\"p\":1}\n{\"k\":\"phase\",\"p\":2}\n"
        );
        assert!(tracer.take_jsonl().is_empty(), "take drains the buffer");
    }

    #[test]
    fn emit_is_a_noop_without_a_tracer() {
        let mut none: Option<Box<dyn Tracer>> = None;
        emit(&mut none, TraceRecord::Phase { p: 1 });
        let mut some: Option<Box<dyn Tracer>> = Some(Box::new(NoopTracer));
        emit(&mut some, TraceRecord::Phase { p: 1 });
    }
}
