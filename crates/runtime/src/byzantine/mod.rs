//! Byzantine misbehavior injection and provable-evidence accountability.
//!
//! Three layers, composable over any of the async protocol ports without
//! touching their honest handler code:
//!
//! 1. **Injection** ([`misbehave`]): a seeded [`MisbehaviorPlan`] marks
//!    nodes malicious with one [`MisbehaviorKind`] each, and the generic
//!    [`Misbehaving`] wrapper makes them equivocate on completeness,
//!    forge and replay ownership transfers, suppress acknowledgments, or
//!    mutate token payloads — by tampering with the honest node's staged
//!    sends, so the honest state machine underneath stays untouched.
//! 2. **Transcripts** ([`transcript`]): the engine appends every sent and
//!    consumed message to per-node chain-hashed logs — the deterministic
//!    offline stand-in for signed transcripts.
//! 3. **Audit** ([`evidence`]): the pure [`check_evidence`] auditor
//!    cross-examines the transcripts and pins each violation to its
//!    culprit with a minimal proof. It is *sound* (honest nodes are never
//!    indicted — the predicates only fire on behavior the honest code
//!    cannot produce) and deterministic (byte-identical verdicts under
//!    seeded replay).
//!
//! [`Scenario::byzantine`](crate::scenario::Scenario::byzantine) ties it
//! together for any async port: wrapped protocols, recorded transcripts,
//! post-run audit (both phases of the oblivious pipeline), and
//! Byzantine-resilience metrics — honest-node coverage, injected-action
//! count, and the Byzantine counters of the workspace
//! [`RunReport`](dynspread_sim::RunReport). The honest plan
//! ([`MisbehaviorPlan::honest`]) reproduces the plan-free run byte for
//! byte, so any degradation measured under a malicious plan is
//! attributable to the injected misbehavior alone.

pub mod evidence;
pub mod misbehave;
pub mod transcript;

pub use evidence::{check_evidence, AuditSetup, Evidence, Violation};
pub use misbehave::{Misbehaving, MisbehaviorKind, MisbehaviorPlan, Tamper};
pub use transcript::{AuditMsg, Direction, MsgKind, MsgSummary, Transcript, TranscriptEntry};
