//! The vanilla baseline TCS: two-phase commit layered over Multi-Paxos
//! replicated shards with `2f + 1` replicas.
//!
//! §1 of the paper describes the "straightforward way" to implement a TCS:
//! run classical 2PC across shards and make each shard (and the transaction
//! manager) simulate a reliable process by replicating every action through a
//! black-box Paxos. This costs `2f + 1` replicas per shard and 7 message
//! delays for a client to learn a decision, and concentrates load on the Paxos
//! leaders. This crate implements exactly that design on the same simulation
//! substrate as `ratc-core`, so the two can be compared head-to-head in the
//! benchmark harness (experiments E1–E3, E6):
//!
//! * [`TransactionManager`] — the 2PC coordinator; its decisions are committed
//!   to its own Multi-Paxos log before being externalised;
//! * [`BaselineShardReplica`] — a shard replica: the leader certifies
//!   transactions with the same shard-local functions `f_s`/`g_s` as the RATC
//!   protocols, but every prepared vote is committed to the shard's
//!   Multi-Paxos log (2 extra message delays) before it is reported back to
//!   the transaction manager;
//! * [`PaxosMember`] — one process's membership in a Paxos group: every
//!   shard replica and every transaction-manager member holds one, so both
//!   groups share the acceptor, learner, proposer, recovery and retransmit
//!   code;
//! * [`BaselineStack`] — this protocol's side of the deployment harness
//!   (`ratc_core::harness::Deployment`); [`BaselineCluster`] is it deployed.
//!
//! Failure handling: with `2f + 1` replicas a single failure is *masked* (the
//! Paxos quorum still exists), which is the availability advantage the paper
//! concedes to this design (§6); leader fail-over itself is provided by the
//! underlying `ratc-paxos` ballots but is not needed for the experiments.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![cfg_attr(
    not(test),
    warn(
        clippy::disallowed_types,
        clippy::float_arithmetic,
        clippy::iter_over_hash_type,
        clippy::unwrap_used,
        clippy::wildcard_enum_match_arm
    )
)]

pub mod cluster;
pub mod group;
pub mod messages;
pub mod replica;
pub mod tm;

pub use cluster::{BaselineCluster, BaselineStack};
pub use group::PaxosMember;
pub use messages::{BaselineMsg, ShardCommand, TmCommand};
pub use replica::BaselineShardReplica;
pub use tm::TransactionManager;
