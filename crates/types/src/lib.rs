//! Core vocabulary types for the Reconfigurable Atomic Transaction Commit (RATC) stack.
//!
//! This crate defines the domain described in §2 of Bravo & Gotsman,
//! *Reconfigurable Atomic Transaction Commit* (PODC 2019):
//!
//! * identifiers for transactions, shards, processes, epochs and log positions
//!   ([`ids`]),
//! * transaction payloads carrying read sets, write sets and commit versions
//!   ([`payload`]),
//! * commit/abort decisions and the `⊓` (meet) operator ([`decision`]),
//! * the mapping from transactions to the shards that must certify them
//!   ([`sharding`]),
//! * certification policies: the global certification function `f` and the
//!   shard-local functions `f_s` and `g_s`, parametric in the isolation level
//!   ([`certify`]),
//! * the seedless hasher of the commit path's internal tables ([`hash`]).
//!
//! Everything else in the workspace (the commit protocols, the baseline, the
//! specification checkers, the key-value store) is written against these types.
//!
//! # Example
//!
//! ```
//! use ratc_types::prelude::*;
//!
//! // A transaction that read x at version 3 and writes y, committing at version 7.
//! let payload = Payload::builder()
//!     .read(Key::new("x"), Version::new(3))
//!     .read(Key::new("y"), Version::new(2))
//!     .write(Key::new("y"), Value::from("new"))
//!     .commit_version(Version::new(7))
//!     .build()
//!     .expect("well-formed payload");
//!
//! let policy = Serializability::new();
//! // No previously committed transactions: the payload certifies to commit.
//! assert_eq!(policy.certify(&[], &payload), Decision::Commit);
//! ```

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

pub mod certify;
pub mod decision;
pub mod hash;
pub mod history;
pub mod ids;
pub mod payload;
pub mod sharding;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::certify::{
        CertificationPolicy, IndexedCertifier, IndexedSerializability, IndexedWriteConflict,
        Serializability, ShardCertifier, WriteConflict,
    };
    pub use crate::decision::{Decision, Vote};
    pub use crate::history::{HistoryAction, TcsHistory};
    pub use crate::ids::{Epoch, Key, Position, ProcessId, ShardId, TxId, Value, Version};
    pub use crate::payload::{Payload, PayloadBuilder, PayloadError, Placement};
    pub use crate::sharding::{ExplicitSharding, HashSharding, ShardMap};
}

pub use certify::{
    CertificationPolicy, IndexedCertifier, IndexedSerializability, IndexedWriteConflict,
    Serializability, ShardCertifier, WriteConflict,
};
pub use decision::{Decision, Vote};
pub use hash::{FxHashMap, FxHasher};
pub use history::{HistoryAction, TcsHistory};
pub use ids::{Epoch, Key, Position, ProcessId, ShardId, TxId, Value, Version};
pub use payload::{Payload, PayloadBuilder, PayloadError, Placement};
pub use sharding::{ExplicitSharding, HashSharding, ShardMap};
