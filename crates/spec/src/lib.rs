//! Specification checkers for the Transaction Certification Service.
//!
//! The paper specifies a TCS through histories (§2): a history is correct with
//! respect to a certification function `f` if the projection to committed
//! transactions has a *legal linearization* — a sequential arrangement,
//! consistent with real-time order, in which every decision equals `f` applied
//! to the payloads of the previously committed transactions. Appendix A
//! additionally introduces a lower-level specification, TCS-LL (Figure 6),
//! whose constraints talk about per-shard certification positions and votes.
//!
//! This crate provides executable versions of both:
//!
//! * [`correctness`] — black-box history checking against `f`
//!   ([`correctness::check_history`]), usable with the history recorded by any
//!   TCS implementation in the workspace (`ratc-core`, `ratc-rdma`,
//!   `ratc-baseline`);
//! * [`tcsll`] — the TCS-LL constraint checker over extracted per-shard
//!   certification data;
//! * [`serializability`] — an end-to-end conflict-serializability check over
//!   committed read/write payloads, used by the key-value store examples;
//! * [`indexed`] — differential testing of the incremental certification
//!   index against the paper's set-based certification functions;
//! * [`truncation`] — differential testing of checkpointed log truncation:
//!   a truncating log must agree vote-for-vote (and position-for-position)
//!   with an untruncated mirror on randomized schedules;
//! * [`batching`] — differential testing of the batched certification
//!   pipeline: a cluster at batch size N and one at size 1 replaying the same
//!   workload must produce identical histories, votes and certification
//!   orders, including runs interleaved with truncation and
//!   reconfiguration;
//! * [`chaos`] — safety and liveness verdicts for fault-injection (chaos
//!   nemesis) runs: the history must stay spec-conformant under crashes,
//!   restarts, message loss/duplication/reordering and partitions, and every
//!   submitted transaction must be decided once faults lift;
//! * [`conformance`] — the trait-conformance suite of the unified
//!   `ratc-harness::TcsCluster` facade: one generic driver instantiated for
//!   all three stacks, asserting identical observable semantics for
//!   submit/decide, coordinator handoff, crash/restart and reconfiguration
//!   on a fixed seeded workload.
//!
//! These are runtime checkers, not proofs: they are run over every simulated
//! execution produced by the test suites, the property-based tests and the
//! experiment harnesses, including executions with crashes and
//! reconfigurations.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod batching;
pub mod chaos;
pub mod conformance;
pub mod correctness;
pub mod indexed;
pub mod serializability;
pub mod tcsll;
pub mod truncation;

pub use batching::{differential_batching_check, BatchingReport, BatchingScenario};
pub use chaos::{check_chaos_run, check_liveness, ChaosVerdict};
pub use conformance::{check_conformance, ConformanceReport};
pub use correctness::{check_history, SpecViolation};
pub use indexed::{differential_vote_check, DifferentialReport};
pub use serializability::check_conflict_serializable;
pub use tcsll::{ShardCertificationData, TcsLlViolation};
pub use truncation::{differential_truncation_check, TruncationReport};
