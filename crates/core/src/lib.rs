//! The message-passing reconfigurable atomic transaction commit protocol
//! (Bravo & Gotsman, PODC 2019, §3, Figure 1).
//!
//! This crate is the paper's primary contribution: a Transaction Certification
//! Service that
//!
//! * replicates each shard over only `f + 1` replicas (instead of the `2f + 1`
//!   required by Paxos-based designs),
//! * weaves two-phase commit across shards together with Vertical-Paxos-style
//!   reconfiguration within each shard,
//! * delegates persisting votes at followers to transaction *coordinators*
//!   (any replica can coordinate any transaction), minimising the load on
//!   shard leaders,
//! * reaches a client-visible decision in 5 message delays (4 when the client
//!   is co-located with the coordinator), and
//! * recovers from replica failures by reconfiguring the affected shard
//!   through an external configuration service, probing previous
//!   configurations to find an initialised replica that becomes the new
//!   leader.
//!
//! The implementation follows the pseudocode of Figure 1 line by line; the
//! mapping is documented on the handlers in [`replica`], [`coord`] and [`recon`]. The protocol
//! runs on the deterministic simulation substrate of `ratc-sim` and is
//! parametric in the certification policy (`ratc-types::CertificationPolicy`).
//!
//! # Crate layout
//!
//! * [`messages`] — the protocol message vocabulary ([`Msg`]);
//! * [`batch`] — the transport of the single commit path: the `VoteBatcher`
//!   coalescing buffer, the size/delay knobs ([`BatchingConfig`]) and the
//!   per-slot item types carried by the `*_BATCH` message variants (a batch
//!   of one is the paper's exchange);
//! * [`log`] — the per-shard certification log (`txn`, `payload`, `vote`,
//!   `dec`, `phase` arrays of the paper);
//! * [`coord`] — the transaction coordinator, written once for this stack
//!   and `ratc-rdma`: admission, batching, the `PREPARE`/vote/acknowledgement
//!   exchange, completion, retry and hand-off, over a small `Replication`
//!   trait naming what differs between the stacks;
//! * [`recon`] — the reconfigurer, written once for this stack and
//!   `ratc-rdma`: `get_last`, probing with its grace period, the descent
//!   through earlier epochs, membership planning, the compare-and-swap and
//!   the retry tick, over a small `ReconHost` trait naming what differs
//!   between the stacks;
//! * [`replica`] — the replica state machine: shard member, and host of a
//!   coordinator and of a reconfigurer;
//! * [`config_service`] — the configuration-service actor (wrapping
//!   `ratc-config`'s registry);
//! * [`client`] — the one client actor of all three stacks, recording a TCS
//!   history and latency samples;
//! * [`harness`] — the one deployment harness of all three stacks:
//!   [`Deployment`] (world, client, engine) with the only `impl` of the
//!   [`TcsCluster`] facade, over a [`Stack`] naming what differs between
//!   the protocols; [`Cluster`] is this crate's stack deployed (shards,
//!   replicas, spares, configuration service), as used by tests, examples
//!   and benchmarks;
//! * [`invariants`] — white-box checkers for the paper's key invariants
//!   (Figure 3), evaluated over live replica state.
//!
//! # Quick start
//!
//! ```
//! use ratc_core::harness::{Cluster, ClusterConfig, CoreStack, TcsCluster};
//! use ratc_types::prelude::*;
//!
//! // 2 shards, f = 1 (two replicas each), serializability.
//! let mut cluster = Cluster::new(CoreStack, ClusterConfig::default());
//! let payload = Payload::builder()
//!     .read(Key::new("x"), Version::new(0))
//!     .write(Key::new("x"), Value::from("1"))
//!     .commit_version(Version::new(1))
//!     .build()?;
//! cluster.submit(TxId::new(1), payload);
//! cluster.run_to_quiescence();
//! assert_eq!(cluster.history().decision(TxId::new(1)), Some(Decision::Commit));
//! # Ok::<(), PayloadError>(())
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

pub mod batch;
pub mod client;
pub mod config_service;
pub mod coord;
pub mod flow;
pub mod harness;
pub mod invariants;
pub mod log;
pub mod messages;
pub mod recon;
pub mod replica;

pub use batch::{BatchingConfig, PrepareBatch, VoteBatcher};
pub use client::ClientActor;
pub use config_service::ConfigServiceActor;
pub use flow::{AdmissionQueue, FlowControlConfig};
pub use harness::{Cluster, ClusterConfig, Deployment, Stack, StackKind, TcsCluster};
pub use log::{CertificationLog, LogEntry, TxPhase};
pub use messages::Msg;
pub use replica::{Replica, Status};
