//! [`ClusterSpec`]: one builder that deploys any of the three stacks.

use ratc_baseline::{BaselineCluster, BaselineStack};
use ratc_core::batch::BatchingConfig;
use ratc_core::harness::{Cluster, ClusterConfig, CoreStack, StackKind, TcsCluster};
use ratc_core::replica::TruncationConfig;
use ratc_rdma::{RdmaCluster, RdmaStack, ReconfigMode};
use ratc_sim::{ExecutionMode, SimConfig};

/// A stack-agnostic deployment specification: a stack and the one
/// [`ClusterConfig`] every stack is built from.
///
/// The configuration describes the deployment in protocol-neutral terms —
/// shards, failures to tolerate per shard (`f`), spares, the certification
/// policy, the truncation/batching knobs and the simulation — and
/// [`ClusterSpec::build`] turns it into any of the three stacks, each sizing
/// its groups by [`StackKind::group_size`]:
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
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// The stack to deploy.
    pub stack: StackKind,
    /// The deployment (default: 2 shards, `f = 1`, 2 spares per shard).
    pub config: ClusterConfig,
}

/// Builder methods that set one value of [`ClusterSpec::config`].
macro_rules! config_setters {
    ($($(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty)?);)*) => {$(
        $(#[$doc])*
        pub fn $name(mut self $(, $arg: $ty)?) -> Self {
            self.config = self.config.$name($($arg)?);
            self
        }
    )*};
}

impl ClusterSpec {
    /// The default deployment of the given stack.
    pub fn new(stack: StackKind) -> Self {
        ClusterSpec {
            stack,
            config: ClusterConfig::default(),
        }
    }

    /// Returns a copy targeting a different stack (everything else kept).
    pub fn with_stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    config_setters! {
        /// See [`ClusterConfig::with_shards`].
        with_shards(shards: u32);
        /// See [`ClusterConfig::with_failures`].
        with_failures(f: usize);
        /// See [`ClusterConfig::with_spares_per_shard`].
        with_spares_per_shard(spares: usize);
        /// See [`ClusterConfig::with_truncation`].
        with_truncation(truncation: TruncationConfig);
        /// See [`ClusterConfig::with_batching`].
        with_batching(batching: BatchingConfig);
        /// See [`ClusterConfig::with_sim`].
        with_sim(sim: SimConfig);
        /// See [`ClusterConfig::with_seed`].
        with_seed(seed: u64);
        /// See [`ClusterConfig::with_observability`].
        with_observability();
        /// See [`ClusterConfig::with_execution`].
        with_execution(execution: ExecutionMode);
    }

    /// Builds the spec's stack behind the unified [`TcsCluster`] facade.
    pub fn build(&self) -> Box<dyn TcsCluster> {
        match self.stack {
            StackKind::Core => Box::new(self.build_core()),
            StackKind::Rdma | StackKind::RdmaNaive => Box::new(self.build_rdma()),
            StackKind::Baseline => Box::new(self.build_baseline()),
        }
    }

    /// Builds a concrete message-passing cluster from this spec (for
    /// white-box consumers such as the invariant checkers and the
    /// log-differential suites). Ignores [`ClusterSpec::stack`].
    pub fn build_core(&self) -> Cluster {
        Cluster::new(CoreStack, self.config.clone())
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
        RdmaCluster::new(RdmaStack::new(mode), self.config.clone())
    }

    /// Builds a concrete baseline cluster from this spec. Ignores
    /// [`ClusterSpec::stack`], the spare pool and the truncation knob (the
    /// baseline prunes decided payloads unconditionally).
    pub fn build_baseline(&self) -> BaselineCluster {
        BaselineCluster::new(BaselineStack, self.config.clone())
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
        for f in [1, 2] {
            for stack in [
                StackKind::Core,
                StackKind::Rdma,
                StackKind::RdmaNaive,
                StackKind::Baseline,
            ] {
                let group = match stack {
                    StackKind::Baseline => 2 * f + 1,
                    StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => f + 1,
                };
                let spec = ClusterSpec::new(stack).with_failures(f);
                // A concrete build sizes its groups by its own kind, not by
                // the spec's `stack`.
                let other = match stack {
                    StackKind::Baseline => StackKind::Core,
                    StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => StackKind::Baseline,
                };
                let foreign = spec.clone().with_stack(other);
                let concrete: Box<dyn TcsCluster> = match stack {
                    StackKind::Core => Box::new(foreign.build_core()),
                    StackKind::Rdma | StackKind::RdmaNaive => Box::new(foreign.build_rdma()),
                    StackKind::Baseline => Box::new(foreign.build_baseline()),
                };
                for cluster in [spec.build(), concrete] {
                    for shard in cluster.shards() {
                        let roster = cluster.shard_view(shard).roster;
                        assert_eq!(roster.len(), group, "{stack}, f = {f}");
                    }
                    if stack == StackKind::Baseline {
                        let tm_group = cluster.coordinator_pool();
                        assert_eq!(tm_group.len(), group, "{stack}, f = {f}");
                    }
                }
            }
        }
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
