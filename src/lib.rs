//! RATC: Reconfigurable Atomic Transaction Commit.
//!
//! This facade crate re-exports the whole protocol stack of the workspace — a
//! from-scratch Rust reproduction of Bravo & Gotsman, *Reconfigurable Atomic
//! Transaction Commit* (PODC 2019):
//!
//! * [`types`] — payloads, decisions and certification policies;
//! * [`obs`] — commit-path observability: transaction lifecycle timelines
//!   and per-phase latency attribution;
//! * [`sim`] — the deterministic simulation substrate;
//! * [`config`] — the configuration service;
//! * [`paxos`] — the Multi-Paxos substrate used by the baseline;
//! * [`core`] — the message-passing RATC protocol (§3, Figure 1);
//! * [`rdma`] — the RDMA-based RATC protocol (§5, Figures 7–8);
//! * [`baseline`] — the vanilla 2PC-over-Paxos baseline;
//! * [`harness`] — the **unified cluster API**: the stack-agnostic
//!   [`TcsCluster`](harness::TcsCluster) trait and the
//!   [`ClusterSpec`](harness::ClusterSpec) builder that deploys any of the
//!   three stacks;
//! * [`spec`] — TCS specification checkers;
//! * [`workload`] — workload generators and experiment drivers;
//! * [`chaos`] — the chaos nemesis: randomized fault injection,
//!   crash-restart recovery and automatic schedule shrinking.
//!
//! See the runnable programs in `examples/` and the experiment binaries in
//! `crates/bench` for end-to-end usage, and DESIGN.md / EXPERIMENTS.md for the
//! reproduction methodology.
//!
//! # Quick start
//!
//! The unified facade runs the same code against any stack:
//!
//! ```
//! use ratc::harness::{ClusterSpec, StackKind};
//! use ratc::types::prelude::*;
//!
//! for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
//!     let mut cluster = ClusterSpec::new(stack).build();
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

pub use ratc_baseline as baseline;
pub use ratc_chaos as chaos;
pub use ratc_config as config;
pub use ratc_core as core;
pub use ratc_harness as harness;
pub use ratc_obs as obs;
pub use ratc_paxos as paxos;
pub use ratc_rdma as rdma;
pub use ratc_sim as sim;
pub use ratc_spec as spec;
pub use ratc_types as types;
pub use ratc_workload as workload;
