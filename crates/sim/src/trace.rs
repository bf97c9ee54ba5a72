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

use std::fmt::Write as _;
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

impl TraceRecord {
    /// The record's kind tag — the `"k"` field of its JSONL form.
    pub fn kind(&self) -> &'static str {
        match self {
            TraceRecord::Round { .. } => "round",
            TraceRecord::Phase { .. } => "phase",
            TraceRecord::Send { .. } => "send",
            TraceRecord::Broadcast { .. } => "bcast",
            TraceRecord::Scheduled { .. } => "sched",
            TraceRecord::Dropped { .. } => "drop",
            TraceRecord::Duplicated { .. } => "dup",
            TraceRecord::Unroutable { .. } => "unroutable",
            TraceRecord::Delivered { .. } => "deliver",
            TraceRecord::TimerArmed { .. } => "timer_armed",
            TraceRecord::TimerFired { .. } => "timer_fired",
            TraceRecord::Retransmission { .. } => "retransmit",
            TraceRecord::BackoffReset { .. } => "backoff_reset",
            TraceRecord::NodeCrashed { .. } => "crash",
            TraceRecord::NodeRecovered { .. } => "recover",
            TraceRecord::PartitionStarted { .. } => "part",
            TraceRecord::PartitionHealed { .. } => "heal",
            TraceRecord::Coverage { .. } => "cov",
        }
    }

    /// Appends the record's JSONL line (including the trailing newline)
    /// to `out`. The serialization is canonical: fixed field order, no
    /// whitespace — two equal records always produce equal bytes.
    pub fn write_jsonl(&self, out: &mut String) {
        out.push_str("{\"k\":\"");
        out.push_str(self.kind());
        out.push('"');
        match *self {
            TraceRecord::Round {
                r,
                inserted,
                removed,
            } => {
                let _ = write!(out, ",\"r\":{r},\"ins\":{inserted},\"del\":{removed}");
            }
            TraceRecord::Phase { p } => {
                let _ = write!(out, ",\"p\":{p}");
            }
            TraceRecord::Send { t, from, to }
            | TraceRecord::Dropped { t, from, to }
            | TraceRecord::Unroutable { t, from, to }
            | TraceRecord::Delivered { t, from, to } => {
                let _ = write!(out, ",\"t\":{t},\"from\":{from},\"to\":{to}");
            }
            TraceRecord::Broadcast { t, from } => {
                let _ = write!(out, ",\"t\":{t},\"from\":{from}");
            }
            TraceRecord::Scheduled { t, from, to, at } => {
                let _ = write!(out, ",\"t\":{t},\"from\":{from},\"to\":{to},\"at\":{at}");
            }
            TraceRecord::Duplicated { t, from, to, extra } => {
                let _ = write!(
                    out,
                    ",\"t\":{t},\"from\":{from},\"to\":{to},\"extra\":{extra}"
                );
            }
            TraceRecord::TimerArmed { t, node, id, at } => {
                let _ = write!(out, ",\"t\":{t},\"node\":{node},\"id\":{id},\"at\":{at}");
            }
            TraceRecord::TimerFired { t, node, id } => {
                let _ = write!(out, ",\"t\":{t},\"node\":{node},\"id\":{id}");
            }
            TraceRecord::Retransmission { t, node }
            | TraceRecord::BackoffReset { t, node }
            | TraceRecord::NodeCrashed { t, node }
            | TraceRecord::NodeRecovered { t, node } => {
                let _ = write!(out, ",\"t\":{t},\"node\":{node}");
            }
            TraceRecord::PartitionStarted { t, episode }
            | TraceRecord::PartitionHealed { t, episode } => {
                let _ = write!(out, ",\"t\":{t},\"ep\":{episode}");
            }
            TraceRecord::Coverage {
                t,
                node,
                gained,
                known,
            } => {
                let _ = write!(
                    out,
                    ",\"t\":{t},\"node\":{node},\"gained\":{gained},\"known\":{known}"
                );
            }
        }
        out.push_str("}\n");
    }

    /// Parses one JSONL line produced by [`TraceRecord::write_jsonl`].
    ///
    /// Returns `None` for lines that are not well-formed trace records
    /// (unknown kind, missing field, non-numeric or out-of-range value).
    pub fn parse_line(line: &str) -> Option<TraceRecord> {
        let body = line.trim().strip_prefix('{')?.strip_suffix('}')?;
        let mut kind: Option<&str> = None;
        // Numeric fields, in a tiny fixed-capacity map (records have at
        // most 4 numeric fields).
        let mut fields: [(&str, u64); 4] = [("", 0); 4];
        let mut nfields = 0usize;
        for pair in body.split(',') {
            let (key, value) = pair.split_once(':')?;
            let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
            let value = value.trim();
            if key == "k" {
                kind = Some(value.strip_prefix('"')?.strip_suffix('"')?);
            } else {
                if nfields == fields.len() {
                    return None;
                }
                fields[nfields] = (key, value.parse().ok()?);
                nfields += 1;
            }
        }
        let get = |name: &str| -> Option<u64> {
            fields[..nfields]
                .iter()
                .find(|(k, _)| *k == name)
                .map(|&(_, v)| v)
        };
        // Node IDs, episodes and counts are 32-bit: a value that does not
        // fit is malformed, not some other node.
        let get32 = |name: &str| -> Option<u32> { u32::try_from(get(name)?).ok() };
        let rec = match kind? {
            "round" => TraceRecord::Round {
                r: get("r")?,
                inserted: get("ins")?,
                removed: get("del")?,
            },
            "phase" => TraceRecord::Phase { p: get32("p")? },
            "send" => TraceRecord::Send {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
            },
            "bcast" => TraceRecord::Broadcast {
                t: get("t")?,
                from: get32("from")?,
            },
            "sched" => TraceRecord::Scheduled {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
                at: get("at")?,
            },
            "drop" => TraceRecord::Dropped {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
            },
            "dup" => TraceRecord::Duplicated {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
                extra: get32("extra")?,
            },
            "unroutable" => TraceRecord::Unroutable {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
            },
            "deliver" => TraceRecord::Delivered {
                t: get("t")?,
                from: get32("from")?,
                to: get32("to")?,
            },
            "timer_armed" => TraceRecord::TimerArmed {
                t: get("t")?,
                node: get32("node")?,
                id: get("id")?,
                at: get("at")?,
            },
            "timer_fired" => TraceRecord::TimerFired {
                t: get("t")?,
                node: get32("node")?,
                id: get("id")?,
            },
            "retransmit" => TraceRecord::Retransmission {
                t: get("t")?,
                node: get32("node")?,
            },
            "backoff_reset" => TraceRecord::BackoffReset {
                t: get("t")?,
                node: get32("node")?,
            },
            "crash" => TraceRecord::NodeCrashed {
                t: get("t")?,
                node: get32("node")?,
            },
            "recover" => TraceRecord::NodeRecovered {
                t: get("t")?,
                node: get32("node")?,
            },
            "part" => TraceRecord::PartitionStarted {
                t: get("t")?,
                episode: get32("ep")?,
            },
            "heal" => TraceRecord::PartitionHealed {
                t: get("t")?,
                episode: get32("ep")?,
            },
            "cov" => TraceRecord::Coverage {
                t: get("t")?,
                node: get32("node")?,
                gained: get32("gained")?,
                known: get32("known")?,
            },
            _ => return None,
        };
        Some(rec)
    }
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
        for rec in samples() {
            let mut line = String::new();
            rec.write_jsonl(&mut line);
            assert!(line.ends_with('\n'));
            let parsed = TraceRecord::parse_line(&line).expect("parses");
            assert_eq!(parsed, rec, "round-trip of {line}");
        }
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
