//! The baseline's side of the deployment harness ([`BaselineStack`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_core::harness::{ClusterConfig, Deployment, ShardView, Stack, StackKind, Topology};
use ratc_sim::World;
use ratc_types::{HashSharding, ProcessId, ShardId, ShardMap, TxId};

use crate::messages::BaselineMsg;
use crate::replica::BaselineShardReplica;
use crate::tm::TransactionManager;

/// A deployment of the baseline 2PC-over-Paxos TCS.
pub type BaselineCluster = Deployment<BaselineStack>;

/// The baseline's side of a [`Deployment`]: a static Paxos group of
/// [`StackKind::group_size`] (`2f + 1`) replicas per shard and a
/// transaction-manager group of the same size. The first process of each
/// group leads it.
#[derive(Debug)]
pub struct BaselineStack;

impl Stack for BaselineStack {
    type Msg = BaselineMsg;

    fn build(
        &self,
        world: &mut World<BaselineMsg>,
        config: &ClusterConfig,
        sharding: &Arc<HashSharding>,
    ) -> Topology {
        let size = self.kind().group_size(config.failures);
        let mut topology = Topology::default();
        for shard in sharding.shards() {
            let group = (0..size)
                .map(|_| world.add_actor(BaselineShardReplica::new(shard, config.policy.as_ref())))
                .collect();
            topology.roster.insert(shard, group);
        }
        topology.tm_group = (0..size)
            .map(|_| {
                world.add_actor(TransactionManager::new(
                    sharding.clone() as Arc<dyn ShardMap + Send + Sync>
                ))
            })
            .collect();
        let tm_leader = topology.tm_group[0];

        let shard_leaders: BTreeMap<ShardId, ProcessId> = topology
            .roster
            .iter()
            .map(|(shard, group)| (*shard, group[0]))
            .collect();
        for group in topology.roster.values() {
            for pid in group {
                let replica = world
                    .actor_mut::<BaselineShardReplica>(*pid)
                    .expect("replica");
                replica.install(*pid, group.clone(), *pid == group[0], tm_leader);
                replica.set_batching(config.batching);
            }
        }
        for pid in &topology.tm_group {
            let tm = world
                .actor_mut::<TransactionManager>(*pid)
                .expect("tm member");
            tm.install(
                *pid,
                topology.tm_group.clone(),
                tm_leader,
                shard_leaders.clone(),
            );
            tm.set_batching(config.batching);
        }
        topology
    }

    fn kind(&self) -> StackKind {
        StackKind::Baseline
    }

    fn retry(&self, _tx: TxId) -> Option<BaselineMsg> {
        // The transaction manager re-drives in-flight 2PC through its own
        // retry timer; there is no per-replica recovery coordinator.
        None
    }

    fn start_reconfiguration(
        &self,
        _topology: &Topology,
        _shard: ShardId,
        _exclude: Vec<ProcessId>,
    ) -> Option<BaselineMsg> {
        // No reconfiguration machinery: `2f + 1` Paxos quorums mask
        // failures, and crashed processes recover only by restarting.
        None
    }

    fn shard_view(
        &self,
        _world: &World<BaselineMsg>,
        topology: &Topology,
        shard: ShardId,
    ) -> ShardView {
        // Static membership at epoch 0, and the TM decides votes. Minority
        // failures are masked by the Paxos quorum; anything worse is repaired
        // by restarting, not by reconfiguration.
        let group = topology.roster.get(&shard).cloned().unwrap_or_default();
        ShardView {
            leader: group.first().copied(),
            members: group,
            operational: true,
            ..ShardView::default()
        }
    }

    fn ready(&self, _world: &World<BaselineMsg>, _pid: ProcessId) -> bool {
        true
    }

    fn retained_log_slots(&self, world: &World<BaselineMsg>, pid: ProcessId) -> Option<usize> {
        world
            .actor::<BaselineShardReplica>(pid)
            .map(|r| r.retained_payloads())
    }

    fn logical_log_len(&self, world: &World<BaselineMsg>, pid: ProcessId) -> Option<u64> {
        world
            .actor::<BaselineShardReplica>(pid)
            .map(|r| r.chosen_slots() as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_core::batch::BatchingConfig;
    use ratc_core::harness::TcsCluster;
    use ratc_sim::{SimDuration, SimTime};
    use ratc_types::{Decision, Key, Payload, Value, Version};

    /// A baseline deployment tolerating `f` failures per group.
    fn deploy(f: usize, config: ClusterConfig) -> BaselineCluster {
        BaselineCluster::new(BaselineStack, config.with_failures(f))
    }

    fn replica(cluster: &BaselineCluster, pid: ProcessId) -> &BaselineShardReplica {
        cluster
            .world
            .actor::<BaselineShardReplica>(pid)
            .expect("shard replica")
    }

    fn rw(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn decided_payloads_are_pruned_from_shard_replicas() {
        let mut cluster = deploy(1, ClusterConfig::default().with_seed(17));
        let total = 60u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize);
        for shard in [ShardId::new(0), ShardId::new(1)] {
            let leader = cluster.shard_view(shard).leader.expect("leader");
            let replica = replica(&cluster, leader);
            // Every decided transaction's payload was dropped: only the
            // compact decision map grows with the history.
            assert_eq!(
                replica.retained_payloads(),
                0,
                "shard {shard} leader retains payloads after all decisions"
            );
            assert!(replica.decided_count() > 0);
        }
        // Conflict detection still works off the committed residue: a stale
        // re-writer of a pruned key must be aborted.
        cluster.submit(TxId::new(total + 1), rw("k0"));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(total + 1)),
            Some(Decision::Abort),
            "re-writing a pruned key at its stale version must abort"
        );
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn single_transaction_commits_in_seven_delays_at_steady_state() {
        let mut cluster = deploy(1, ClusterConfig::default());
        // First transaction pays Paxos phase-1 once; measure the second.
        cluster.submit(TxId::new(1), rw("warmup"));
        cluster.run_to_quiescence();
        cluster.submit(TxId::new(2), rw("x"));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.decision(TxId::new(2)), Some(Decision::Commit));
        let hops = cluster.latencies()[&TxId::new(2)].hops;
        assert_eq!(
            hops, 7,
            "baseline decision latency must be 7 message delays"
        );
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn conflicting_transactions_do_not_both_commit() {
        let mut cluster = deploy(1, ClusterConfig::default().with_seed(5));
        cluster.submit(TxId::new(1), rw("hot"));
        cluster.submit(TxId::new(2), rw("hot"));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1);
        assert_eq!(history.decide_count(), 2);
    }

    #[test]
    fn many_disjoint_transactions_commit() {
        let mut cluster = deploy(1, ClusterConfig::default().with_shards(3).with_seed(9));
        for i in 0..20 {
            cluster.submit(TxId::new(i), rw(&format!("k{i}")));
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 20);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn a_single_follower_failure_is_masked_without_reconfiguration() {
        let mut cluster = deploy(1, ClusterConfig::default().with_seed(3));
        let shard = ShardId::new(0);
        // Crash one non-leader replica of shard 0: the Paxos majority survives,
        // so transactions keep committing with no reconfiguration.
        let victim = cluster.shard_view(shard).roster[1];
        cluster.crash(victim);
        for i in 0..10 {
            cluster.submit(TxId::new(i), rw(&format!("k{i}")));
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 10);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn batched_log_appends_commit_and_occupy_fewer_paxos_slots() {
        let run = |batch: usize| {
            let mut cluster = deploy(
                1,
                ClusterConfig::default()
                    .with_shards(1)
                    .with_seed(23)
                    .with_batching(BatchingConfig::with_batch(batch)),
            );
            for i in 0..32u64 {
                cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
            }
            cluster.run_to_quiescence();
            assert_eq!(cluster.history().committed().count(), 32);
            assert!(cluster.client_violations().is_empty());
            let leader = cluster.shard_view(ShardId::new(0)).leader.expect("leader");
            let tm = cluster.coordinator_pool()[0];
            let tm = cluster.world.actor::<TransactionManager>(tm).expect("tm");
            (replica(&cluster, leader).chosen_slots(), tm.chosen_slots())
        };
        let (unbatched_slots, unbatched_tm_slots) = run(1);
        let (batched_slots, batched_tm_slots) = run(8);
        assert_eq!(unbatched_slots, 32, "one Paxos slot per transaction");
        assert!(
            batched_slots * 4 <= unbatched_slots,
            "batched appends must occupy far fewer slots ({batched_slots} vs {unbatched_slots})"
        );
        assert_eq!(unbatched_tm_slots, 32, "one TM slot per decision");
        assert!(
            batched_tm_slots <= 8,
            "batched decisions must occupy far fewer TM slots ({batched_tm_slots})"
        );
    }

    #[test]
    fn batched_baseline_preserves_conflict_decisions() {
        let mut cluster = deploy(
            1,
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(29)
                .with_batching(BatchingConfig::with_batch(4)),
        );
        cluster.submit(TxId::new(1), rw("hot"));
        cluster.submit(TxId::new(2), rw("hot"));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1);
        assert_eq!(history.decide_count(), 2);
        assert!(cluster.client_violations().is_empty());
    }

    /// Pinned regression: the TM's retry and retransmission timers are
    /// capped, so `run_to_quiescence` terminates even when a shard is
    /// permanently unrecoverable (a whole Paxos group crashed with no
    /// restart). Without the cap the retry tick re-arms forever and the
    /// event queue never drains.
    #[test]
    fn run_to_quiescence_terminates_with_a_shard_permanently_down() {
        let mut cluster = deploy(1, ClusterConfig::default().with_seed(7));
        for pid in cluster.shard_view(ShardId::new(0)).roster {
            cluster.crash(pid);
        }
        cluster.submit(TxId::new(1), rw("k-on-any-shard"));
        cluster.run_to_quiescence();
        // The transaction touching the dead shard may stay undecided — the
        // point is that the call returned.
        assert!(cluster.history().certify_count() == 1);
        assert!(cluster.client_violations().is_empty());
    }

    /// The congestive-collapse flood, entirely in virtual time. The
    /// simulator's default zero-cost handlers make retries free, so the
    /// world is given a per-message service time, making every process a
    /// single-server queue. Re-driving every pending transaction on every
    /// 20 ms tick would then cost the shard leader more work per tick than
    /// it can serve; under the admission window and retry backoff the same
    /// deep open-loop flood fully decides within the virtual-time budget.
    #[test]
    fn flow_control_fixes_the_simulated_congestive_collapse() {
        let mut config = ClusterConfig::default()
            .with_shards(1)
            .with_seed(41)
            .with_batching(BatchingConfig::disabled());
        config.sim = config.sim.with_service_micros(200);
        let mut cluster = deploy(1, config);
        // Supercritical: re-driving every pending transaction would cost the
        // shard leader `total * service` = 200 ms of work per 20 ms tick.
        let total = 1000u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw(&format!("k{i}")));
        }
        // Bounded virtual-time budget: ample for a healthy cluster.
        cluster.run_until(SimTime::ZERO + SimDuration::from_millis(5_000));
        assert!(cluster.client_violations().is_empty());
        assert_eq!(
            cluster.history().decide_count(),
            total as usize,
            "flow control must fully decide the flood"
        );
    }

    #[test]
    fn replica_count_is_2f_plus_1_per_group() {
        let cluster = deploy(2, ClusterConfig::default());
        // 2 shards * 5 replicas + 5 TM members.
        assert_eq!(cluster.all_processes().len(), 15);
        assert_eq!(cluster.shard_view(ShardId::new(0)).roster.len(), 5);
        let tm_group = cluster.coordinator_pool();
        assert_eq!(tm_group.len(), 5);
        assert!(cluster
            .world
            .actor::<TransactionManager>(tm_group[0])
            .expect("tm")
            .is_leader());
    }
}
