//! Workload generators and experiment drivers.
//!
//! This crate turns the protocol crates into *experiments*: each function in
//! [`experiments`] runs one or more full simulated deployments, collects the
//! metrics the paper's claims are stated in (message delays, messages per
//! leader, replicas per shard, abort rates, recovery time, safety violations),
//! and returns a plain-data result that the module's tests pin exactly
//! (`e1_latency_matches_the_paper` … `e11_idle_phases_sum_to_the_end_to_end_latency`).
//! Experiments are generic over the stack: they take a [`StackKind`] and
//! deploy it through the unified `ratc-harness` facade, so the same driver
//! measures the message-passing protocol, the RDMA protocol and the
//! 2PC-over-Paxos baseline. [`generator`] produces the transaction workloads
//! (uniform and Zipfian key popularity, configurable read/write mixes);
//! [`counterexample`] reproduces the Figure 4a schedule, pinned by its own
//! tests. The E9 and E12 availability experiments run on the chaos soak
//! driver and live in `ratc-chaos`.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]
#![cfg_attr(not(test), warn(clippy::wildcard_enum_match_arm))]

pub mod counterexample;
pub mod experiments;
pub mod generator;

pub use counterexample::{run_counterexample, CounterexampleOutcome};
pub use experiments::{
    abort_rate_experiment, batching_experiment, invariants_experiment, latency_experiment,
    leader_load_experiment, overload_experiment, phase_experiment, reconfiguration_experiment,
    replication_cost_experiment, scaling_experiment, truncation_experiment, AbortRateResult,
    BatchingResult, InvariantsResult, LatencyResult, LeaderLoadResult, OverloadResult,
    ReconfigurationResult, ReplicationCostResult, ScalingResult, TruncationResult,
};
pub use generator::{KeyDistribution, WorkloadSpec};
pub use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
