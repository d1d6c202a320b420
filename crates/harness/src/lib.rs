//! Stack-agnostic cluster facade for the RATC workspace.
//!
//! The paper's central claim is that one Transaction Certification Service
//! abstraction admits several interchangeable implementations: the
//! message-passing protocol of §3 (`ratc-core`), the RDMA-based protocol of
//! §5 (`ratc-rdma`), and the vanilla 2PC-over-Paxos baseline of §1
//! (`ratc-baseline`, the design lineage of Gray & Lamport's *Consensus on
//! Transaction Commit*). This crate makes that interchangeability a
//! first-class API instead of a family of look-alike harnesses:
//!
//! * [`TcsCluster`] — the one trait every deployed cluster is driven
//!   through: submission (`submit` / `submit_via` / `resubmit` / `retry`),
//!   fault injection (`crash` / `restart`, link faults, partitions),
//!   reconfiguration, simulated-time control, and uniform observation
//!   (history, latencies, violations, the world's `metrics()`, and one
//!   [`ShardView`] snapshot per shard: epoch, members, leader, roster,
//!   spares, operational, prepared, ready). It is defined, with its single
//!   implementation `Deployment<S: Stack>`, in [`ratc_core::harness`] — the
//!   module doc there tabulates what the three `Stack`s do differently — and
//!   re-exported here;
//! * [`StackKind`] — the stack selector naming which paper protocol a
//!   cluster realises, and what it can do (`supports_reconfiguration`,
//!   `reconfiguration_is_global`, `replicas_coordinate`); re-exported
//!   likewise;
//! * [`ClusterSpec`] — one builder that constructs any stack: a
//!   [`StackKind`] and the one `ClusterConfig` every stack is built from.
//!   Its knobs: shards, failures tolerated, spares, certification policy,
//!   truncation (on/off, fold batch, compaction), batch size, the
//!   simulation's seed, observability and per-message service time, and the
//!   execution engine. Latencies are constants of the simulator (a LAN),
//!   batches flush after a fixed 1 ms, the admission window is 64 and
//!   retries always back off exponentially. Each stack deploys `f + 1` or
//!   `2f + 1` replicas per shard, by [`StackKind::group_size`].
//!
//! Consumers that need exactly one concrete stack (white-box invariant
//! checkers, log-differential suites) can still reach it through
//! [`ClusterSpec::build_core`] / [`ClusterSpec::build_rdma`] /
//! [`ClusterSpec::build_baseline`], sharing the spec with the generic path;
//! what they get is the same `Deployment`, with its `world` and `stack`
//! fields public.
//!
//! # Quick start
//!
//! ```
//! use ratc_harness::{ClusterSpec, StackKind};
//! use ratc_types::prelude::*;
//!
//! for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
//!     let mut cluster = ClusterSpec::new(stack).with_seed(7).build();
//!     let payload = Payload::builder()
//!         .read(Key::new("x"), Version::new(0))
//!         .write(Key::new("x"), Value::from("1"))
//!         .commit_version(Version::new(1))
//!         .build()?;
//!     cluster.submit(TxId::new(1), payload);
//!     cluster.run_to_quiescence();
//!     assert_eq!(cluster.history().decision(TxId::new(1)), Some(Decision::Commit));
//! }
//! # Ok::<(), PayloadError>(())
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod spec;

pub use ratc_core::client::DecisionLatency;
pub use ratc_core::harness::{ShardView, StackKind, TcsCluster};
pub use ratc_sim::ExecutionMode;
pub use spec::ClusterSpec;
