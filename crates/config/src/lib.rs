//! Configuration service for vertical reconfiguration.
//!
//! The paper's protocols rely on an external *configuration service* (CS) that
//! stores shard configurations and supports three operations (§3):
//! `compare_and_swap(s, e, ⟨e', M, pl⟩)`, `get_last(s)` and `get(s, e)`. The CS
//! is assumed reliable — "in practice, this service may be implemented using
//! Paxos-like replication over 2f+1 processes" — and additionally pushes
//! `CONFIG_CHANGE` notifications to the members of other shards.
//!
//! This crate provides the CS *state machines*:
//!
//! * [`ShardConfigRegistry`] — per-shard configuration sequences, used by the
//!   message-passing protocol of §3 (`ratc-core`);
//! * [`GlobalConfigRegistry`] — a single system-wide configuration sequence,
//!   used by the RDMA protocol of §5 (`ratc-rdma`), whose reconfiguration is
//!   global;
//! * [`membership`] — helpers for computing new memberships
//!   (`compute_membership` in the paper), including fresh-replica allocation.
//!
//! The protocol crates wrap these registries in simulation actors speaking
//! their own message types; the registries themselves are pure, synchronous
//! data structures, which also makes them directly usable by the Paxos-backed
//! replicated CS in `ratc-paxos`-based deployments.

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

pub mod global;
pub mod membership;
pub mod shard;

pub use global::{GlobalConfigRegistry, GlobalConfiguration};
pub use membership::MembershipPlanner;
pub use shard::{CasError, ShardConfigRegistry, ShardConfiguration};
