//! The RDMA-based reconfigurable atomic commit protocol (§5, Figures 7–8).
//!
//! This crate implements the paper's second protocol, which follows the design
//! of the FARM system: transaction votes and decisions are persisted at
//! followers by *RDMA writes* acknowledged by the receiver's NIC, without
//! involving the receiver's CPU, and followers therefore cannot reject them.
//! The price is that reconfiguration must involve the whole system:
//!
//! * processes maintain a single global epoch instead of a per-shard vector;
//! * probing closes all incoming RDMA connections (`close`), so stale
//!   coordinators can no longer land writes;
//! * the new configuration is disseminated with `CONFIG_PREPARE` /
//!   `CONFIG_PREPARE_ACK` to *every* member before any leader activates it;
//! * a new leader calls `flush` before taking over, so every write that was
//!   already acknowledged to a coordinator is reflected in the state it
//!   transfers.
//!
//! The crate also provides a deliberately **naive** mode
//! ([`ReconfigMode::NaivePerShard`]) that keeps the per-shard reconfiguration
//! of §3 while using RDMA for the data path. That mode is unsafe — the paper's
//! Figure 4a schedule makes it externalise contradictory decisions — and
//! exists to reproduce that counter-example (experiment E7) and to show that
//! the correct protocol excludes it.
//!
//! See `ratc-core` for the message-passing protocol; the two crates share the
//! simulation substrate, the certification policies and the history/spec
//! machinery.

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

pub mod config_service;
pub mod harness;
pub mod messages;
pub mod replica;

pub use config_service::GlobalConfigServiceActor;
pub use harness::{RdmaCluster, RdmaStack, ScriptedPeer};
pub use messages::RdmaMsg;
pub use replica::{RdmaReplica, ReconfigMode};
