//! [`ClusterSpec`]: one builder that deploys any of the three stacks.

use std::sync::Arc;

use ratc_baseline::{BaselineCluster, BaselineStack};
use ratc_core::batch::BatchingConfig;
use ratc_core::flow::FlowControlConfig;
use ratc_core::harness::{Cluster, ClusterConfig, CoreStack, StackKind, TcsCluster};
use ratc_core::replica::TruncationConfig;
use ratc_rdma::{RdmaCluster, RdmaStack, ReconfigMode};
use ratc_sim::{ExecutionMode, SimConfig};
use ratc_types::{CertificationPolicy, Serializability};

/// A stack-agnostic deployment specification.
///
/// One spec describes a TCS deployment in protocol-neutral terms — number of
/// shards, failures to tolerate per shard (`f`), spare replicas, the
/// certification policy, the truncation/batching knobs and the simulation
/// seed — and [`ClusterSpec::build`] turns it into any of the three stacks:
///
/// * [`StackKind::Core`] / [`StackKind::Rdma`] / [`StackKind::RdmaNaive`]
///   deploy `f + 1` replicas per shard (the paper's replication-cost
///   headline);
/// * [`StackKind::Baseline`] deploys `2f + 1` replicas per shard plus a
///   `2f + 1`-member transaction-manager group.
///
/// Knobs a stack does not have are ignored where they are meaningless: the
/// baseline has no spares (no reconfiguration) and prunes decided payloads
/// unconditionally instead of using [`TruncationConfig`].
#[derive(Clone)]
pub struct ClusterSpec {
    /// The stack to deploy.
    pub stack: StackKind,
    /// Number of shards.
    pub shards: u32,
    /// Failures tolerated per shard (`f`).
    pub failures: usize,
    /// Spare (fresh) replicas per shard available to reconfiguration.
    pub spares_per_shard: usize,
    /// The certification policy (isolation level).
    pub policy: Arc<dyn CertificationPolicy>,
    /// Checkpointed log truncation (RATC stacks; default enabled, batch 32).
    pub truncation: TruncationConfig,
    /// Batched certification pipeline (default disabled).
    pub batching: BatchingConfig,
    /// Flow control: the coordinator admission window (retries always back
    /// off exponentially).
    pub flow: FlowControlConfig,
    /// Simulation parameters (seed, observability, per-message service
    /// time).
    pub sim: SimConfig,
    /// Which engine drives the cluster's actors: the deterministic simulator
    /// (default) or a pool of worker threads over per-process mailboxes (see
    /// [`ExecutionMode`]).
    pub execution: ExecutionMode,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            stack: StackKind::Core,
            shards: 2,
            failures: 1,
            spares_per_shard: 2,
            policy: Arc::new(Serializability::new()),
            truncation: TruncationConfig::default(),
            batching: BatchingConfig::default(),
            flow: FlowControlConfig::default(),
            sim: SimConfig::default(),
            execution: ExecutionMode::default(),
        }
    }
}

impl std::fmt::Debug for ClusterSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterSpec")
            .field("stack", &self.stack)
            .field("shards", &self.shards)
            .field("failures", &self.failures)
            .field("spares_per_shard", &self.spares_per_shard)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl ClusterSpec {
    /// A default spec for the given stack.
    pub fn new(stack: StackKind) -> Self {
        ClusterSpec {
            stack,
            ..ClusterSpec::default()
        }
    }

    /// Returns a copy targeting a different stack (everything else kept).
    pub fn with_stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Returns a copy with the given number of shards.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy tolerating `f` failures per shard (`f + 1` replicas on
    /// the RATC stacks, `2f + 1` on the baseline).
    pub fn with_failures(mut self, f: usize) -> Self {
        self.failures = f;
        self
    }

    /// Returns a copy with the given number of spares per shard.
    pub fn with_spares_per_shard(mut self, spares: usize) -> Self {
        self.spares_per_shard = spares;
        self
    }

    /// Returns a copy with the given certification policy.
    pub fn with_policy(mut self, policy: Arc<dyn CertificationPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Returns a copy with the given checkpointed-truncation policy.
    pub fn with_truncation(mut self, truncation: TruncationConfig) -> Self {
        self.truncation = truncation;
        self
    }

    /// Returns a copy with the given batching-pipeline knobs.
    pub fn with_batching(mut self, batching: BatchingConfig) -> Self {
        self.batching = batching;
        self
    }

    /// Returns a copy with the given flow-control knobs.
    pub fn with_flow_control(mut self, flow: FlowControlConfig) -> Self {
        self.flow = flow;
        self
    }

    /// Returns a copy with the given simulation configuration.
    pub fn with_sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Returns a copy with the given random seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.sim.seed = seed;
        self
    }

    /// Returns a copy with commit-path observability enabled: the cluster
    /// records per-transaction lifecycle milestones and flow-control gauges
    /// (see [`TcsCluster::obs_events`]).
    /// Recording never perturbs a seeded schedule.
    pub fn with_observability(mut self) -> Self {
        self.sim.obs = true;
        self
    }

    /// Returns a copy with the given execution mode (simulated or threaded).
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }

    /// Replicas this spec deploys per shard on its stack.
    pub fn replicas_per_shard(&self) -> usize {
        match self.stack {
            StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => self.failures + 1,
            StackKind::Baseline => 2 * self.failures + 1,
        }
    }

    /// Builds the spec's stack behind the unified [`TcsCluster`] facade.
    pub fn build(&self) -> Box<dyn TcsCluster> {
        match self.stack {
            StackKind::Core => Box::new(self.build_core()),
            StackKind::Rdma | StackKind::RdmaNaive => Box::new(self.build_rdma()),
            StackKind::Baseline => Box::new(self.build_baseline()),
        }
    }

    /// The shared per-stack configuration this spec describes, at the given
    /// group size.
    fn config(&self, replicas_per_shard: usize) -> ClusterConfig {
        ClusterConfig {
            shards: self.shards,
            replicas_per_shard,
            spares_per_shard: self.spares_per_shard,
            policy: self.policy.clone(),
            truncation: self.truncation,
            batching: self.batching,
            flow: self.flow,
            sim: self.sim.clone(),
            execution: self.execution,
        }
    }

    /// Builds a concrete message-passing cluster from this spec (for
    /// white-box consumers such as the invariant checkers and the
    /// log-differential suites). Ignores [`ClusterSpec::stack`].
    pub fn build_core(&self) -> Cluster {
        Cluster::new(CoreStack, self.config(self.failures + 1))
    }

    /// Builds a concrete RDMA cluster from this spec, in naive per-shard
    /// mode when [`ClusterSpec::stack`] is [`StackKind::RdmaNaive`] and
    /// correct global mode otherwise.
    pub fn build_rdma(&self) -> RdmaCluster {
        let mode = if self.stack == StackKind::RdmaNaive {
            ReconfigMode::NaivePerShard
        } else {
            ReconfigMode::GlobalCorrect
        };
        RdmaCluster::new(RdmaStack::new(mode), self.config(self.failures + 1))
    }

    /// Builds a concrete baseline cluster from this spec. Ignores
    /// [`ClusterSpec::stack`], the spare pool and the truncation knob (the
    /// baseline prunes decided payloads unconditionally).
    pub fn build_baseline(&self) -> BaselineCluster {
        BaselineCluster::new(BaselineStack, self.config(2 * self.failures + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ShardView;
    use ratc_types::{Decision, Epoch, Key, Payload, ShardId, TxId, Value, Version};

    fn rw(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn one_spec_builds_all_stacks_and_they_all_commit() {
        for stack in [
            StackKind::Core,
            StackKind::Rdma,
            StackKind::RdmaNaive,
            StackKind::Baseline,
        ] {
            let mut cluster = ClusterSpec::new(stack).with_seed(3).build();
            assert_eq!(cluster.stack(), stack);
            let coordinator = cluster.submit(TxId::new(1), rw("x"));
            cluster.run_to_quiescence();
            assert_eq!(
                cluster.history().decision(TxId::new(1)),
                Some(Decision::Commit),
                "{stack}: transaction undecided or aborted"
            );
            let latency = cluster.latencies()[&TxId::new(1)];
            assert!(latency.hops > 0 && latency.micros > 0, "{stack}");
            assert!(cluster.client_violations().is_empty(), "{stack}");
            assert!(cluster.coordinator_pool().contains(&coordinator), "{stack}");
        }
    }

    #[test]
    fn replica_counts_follow_the_paper() {
        let ratc = ClusterSpec::new(StackKind::Core).with_failures(2);
        assert_eq!(ratc.replicas_per_shard(), 3);
        let baseline = ratc.clone().with_stack(StackKind::Baseline);
        assert_eq!(baseline.replicas_per_shard(), 5);
        let cluster = baseline.build();
        assert_eq!(cluster.shard_view(ShardId::new(0)).members.len(), 5);
    }

    #[test]
    fn introspection_is_consistent_across_stacks() {
        // (stack, supports_reconfiguration, reconfiguration_is_global,
        // replicas_coordinate)
        let capabilities = [
            (StackKind::Core, true, false, true),
            (StackKind::Rdma, true, true, true),
            (StackKind::RdmaNaive, true, true, true),
            (StackKind::Baseline, false, false, false),
        ];
        for (stack, reconfigures, global, replicas_coordinate) in capabilities {
            assert_eq!(stack.supports_reconfiguration(), reconfigures, "{stack}");
            assert_eq!(stack.reconfiguration_is_global(), global, "{stack}");
            assert_eq!(stack.replicas_coordinate(), replicas_coordinate, "{stack}");

            let mut cluster = ClusterSpec::new(stack).with_shards(3).with_seed(5).build();
            assert_eq!(cluster.stack(), stack);
            let views: Vec<ShardView> = cluster
                .shards()
                .into_iter()
                .map(|shard| cluster.shard_view(shard))
                .collect();
            assert_eq!(views.len(), 3, "{stack}");
            let mut processes = Vec::new();
            for view in &views {
                assert_eq!(view.epoch, Epoch::ZERO, "{stack}");
                assert_eq!(view.members, view.roster, "{stack}");
                assert_eq!(view.leader, view.roster.first().copied(), "{stack}");
                assert_eq!(view.spares.len(), if reconfigures { 2 } else { 0 });
                assert!(view.operational, "{stack}");
                assert!(view.prepared.is_empty(), "{stack}");
                // Spares are not initialised until a configuration takes them.
                assert_eq!(view.ready, view.roster, "{stack}");
                processes.extend(view.roster.iter().chain(&view.spares));
            }
            let all = cluster.all_processes();
            assert_eq!(all[..processes.len()], processes[..], "{stack}");
            let pool = cluster.coordinator_pool();
            if replicas_coordinate {
                assert_eq!(pool, all, "{stack}");
            } else {
                assert_eq!(pool, all[processes.len()..], "{stack}: the TM group");
            }

            // Crash a follower of shard 0 and reconfigure it away where the
            // stack can.
            let shard = ShardId::new(0);
            let before = views[0].clone();
            let (leader, follower) = (before.roster[0], before.roster[1]);
            cluster.crash(follower);
            cluster.start_reconfiguration(shard, leader, vec![follower]);
            cluster.run_to_quiescence();
            let view = cluster.shard_view(shard);
            if reconfigures {
                assert_eq!(view.epoch, Epoch::new(1), "{stack}");
                assert!(!view.members.contains(&follower), "{stack}");
                let leader = view.leader.expect("leader");
                assert!(view.members.contains(&leader), "{stack}");
                assert!(view.operational, "{stack}");
                assert!(view.ready.contains(&leader), "{stack}");
                assert!(!view.ready.contains(&follower), "{stack}");
                assert_eq!(
                    (view.roster, view.spares),
                    (before.roster, before.spares),
                    "{stack}"
                );
            } else {
                // Static groups: the crash only takes the follower out of
                // `ready`.
                let mut expected = before;
                expected.ready.retain(|p| *p != follower);
                assert_eq!(view, expected, "{stack}");
            }
        }
    }
}
