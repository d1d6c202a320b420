//! The configuration service's state machines, for vertical
//! reconfiguration.
//!
//! The paper's protocols rely on an external *configuration service* (CS)
//! that stores shard configurations and supports `compare_and_swap(s, e,
//! ⟨e', M, pl⟩)`, `get_last(s)` and `get(s, e)` (§3). The CS is assumed
//! reliable ("in practice, this service may be implemented using Paxos-like
//! replication over 2f+1 processes") and pushes `CONFIG_CHANGE`
//! notifications to the members of other shards.
//!
//! * [`ShardConfigRegistry`] — per-shard configuration sequences, used by the
//!   message-passing protocol of §3 (wrapped by
//!   [`ConfigServiceActor`](crate::config_service::ConfigServiceActor));
//! * [`GlobalConfigRegistry`] — a single system-wide configuration sequence,
//!   used by the RDMA protocol of §5 (`ratc-rdma`), whose reconfiguration is
//!   global;
//! * [`membership`] — computing new memberships (`compute_membership` in the
//!   paper), including fresh-replica allocation.
//!
//! The registries are pure, synchronous data structures; each protocol wraps
//! one in a simulation actor speaking its own message types.

pub mod global;
pub mod membership;
pub mod shard;

pub use global::{GlobalConfigRegistry, GlobalConfiguration};
pub use membership::MembershipPlanner;
pub use shard::{CasError, ShardConfigRegistry, ShardConfiguration};
