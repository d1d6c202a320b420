//! RATC: Reconfigurable Atomic Transaction Commit.
//!
//! This facade crate re-exports the whole protocol stack of the workspace — a
//! from-scratch Rust reproduction of Bravo & Gotsman, *Reconfigurable Atomic
//! Transaction Commit* (PODC 2019):
//!
//! * [`types`] — payloads, decisions and certification policies;
//! * [`sim`] — the deterministic simulation substrate, with commit-path and
//!   control-plane observability ([`sim::obs`], [`sim::ctrl`]);
//! * [`core`] — the message-passing RATC protocol (§3, Figure 1), with the
//!   configuration service's state machines ([`core::config`]);
//! * [`rdma`] — the RDMA-based RATC protocol (§5, Figures 7–8);
//! * [`baseline`] — the vanilla 2PC-over-Paxos baseline, over its own
//!   Multi-Paxos ([`baseline::paxos`]);
//! * [`harness`] — the **unified cluster API**: the stack-agnostic
//!   [`TcsCluster`](harness::TcsCluster) trait and the
//!   [`ClusterSpec`](harness::ClusterSpec) builder that deploys any of the
//!   three stacks;
//! * [`spec`] — TCS specification checkers;
//! * [`workload`] — workload generators and experiment drivers;
//! * [`chaos`] — the chaos nemesis: randomized fault injection,
//!   crash-restart recovery and automatic schedule shrinking.
//!
//! See the runnable programs in `examples/` for end-to-end usage. The
//! paper's evaluation claims are pinned as exact assertions: E1–E11 by the
//! tests of [`workload::experiments`] (`e1_latency_matches_the_paper` …),
//! Figure 4a by those of [`workload::counterexample`], and E9/E12 by
//! `crates/chaos/tests/blackout.rs`.
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
pub use ratc_core as core;
pub use ratc_harness as harness;
pub use ratc_rdma as rdma;
pub use ratc_sim as sim;
pub use ratc_spec as spec;
pub use ratc_types as types;
pub use ratc_workload as workload;
