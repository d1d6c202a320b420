//! The RDMA protocol's side of the deployment harness ([`RdmaStack`]), plus
//! the scripted-schedule peer used by the Figure 4a counter-example.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_config::GlobalConfiguration;
use ratc_core::harness::{ClusterConfig, Deployment, Stack, StackKind};
use ratc_core::log::TxPhase;
use ratc_sim::rdma::RdmaToken;
use ratc_sim::{Actor, Context, World};
use ratc_types::{Epoch, HashSharding, ProcessId, ShardId, ShardMap, TxId};

use crate::config_service::GlobalConfigServiceActor;
use crate::messages::RdmaMsg;
use crate::replica::{RdmaReplica, RdmaStatus, ReconfigMode};

/// A test-controlled peer: records every message, RDMA delivery and RDMA
/// acknowledgement it receives, and never reacts. Used to play protocol roles
/// by hand in scripted schedules such as the Figure 4a counter-example.
#[derive(Debug, Default)]
pub struct ScriptedPeer {
    /// Messages received over the ordinary network.
    pub received: Vec<(ProcessId, RdmaMsg)>,
    /// Messages delivered out of local memory (RDMA).
    pub rdma_delivered: Vec<(ProcessId, RdmaMsg)>,
    /// Acknowledgement tokens received for our own RDMA writes.
    pub acks: Vec<RdmaToken>,
}

impl Actor<RdmaMsg> for ScriptedPeer {
    fn on_message(&mut self, from: ProcessId, msg: RdmaMsg, _ctx: &mut Context<'_, RdmaMsg>) {
        self.received.push((from, msg));
    }

    fn on_rdma_deliver(&mut self, from: ProcessId, msg: RdmaMsg, _ctx: &mut Context<'_, RdmaMsg>) {
        self.rdma_delivered.push((from, msg));
    }

    fn on_rdma_ack(&mut self, token: RdmaToken, _to: ProcessId, _ctx: &mut Context<'_, RdmaMsg>) {
        self.acks.push(token);
    }
}

/// A deployment of the RDMA protocol (§5).
pub type RdmaCluster = Deployment<RdmaStack>;

/// The RDMA protocol's side of a [`Deployment`]: `f + 1` [`RdmaReplica`]s and
/// a pool of spares per shard, the global configuration service, and RDMA
/// connections opened between all initial members.
#[derive(Debug)]
pub struct RdmaStack {
    mode: ReconfigMode,
    /// The configuration service (`None` until built).
    cs: Option<ProcessId>,
    members: BTreeMap<ShardId, Vec<ProcessId>>,
    spares: BTreeMap<ShardId, Vec<ProcessId>>,
    replicas_per_shard: usize,
}

impl RdmaStack {
    /// A stack that reconfigures in the given mode: the correct global
    /// protocol, or the naive per-shard one of the Figure 4a counter-example.
    pub fn new(mode: ReconfigMode) -> Self {
        RdmaStack {
            mode,
            cs: None,
            members: BTreeMap::new(),
            spares: BTreeMap::new(),
            replicas_per_shard: 0,
        }
    }

    /// The current configuration stored by the configuration service.
    pub fn current_config<'w>(&self, world: &'w World<RdmaMsg>) -> &'w GlobalConfiguration {
        self.cs
            .and_then(|cs| world.actor::<GlobalConfigServiceActor>(cs))
            .expect("configuration service")
            .registry()
            .get_last()
    }
}

impl Stack for RdmaStack {
    type Msg = RdmaMsg;

    fn build(
        &mut self,
        world: &mut World<RdmaMsg>,
        config: &ClusterConfig,
        sharding: &Arc<HashSharding>,
    ) {
        for shard in sharding.shards() {
            for (pool, count) in [
                (&mut self.members, config.replicas_per_shard),
                (&mut self.spares, config.spares_per_shard),
            ] {
                let pids = (0..count)
                    .map(|_| {
                        world.add_actor(RdmaReplica::new(
                            shard,
                            config.policy.as_ref(),
                            sharding.clone() as Arc<dyn ShardMap + Send + Sync>,
                            self.mode,
                        ))
                    })
                    .collect();
                pool.insert(shard, pids);
            }
        }
        self.replicas_per_shard = config.replicas_per_shard;

        // Initial configuration: the first replica of each shard leads.
        let initial = GlobalConfiguration::new(
            Epoch::ZERO,
            self.members.clone(),
            self.members
                .iter()
                .map(|(shard, shard_members)| (*shard, shard_members[0]))
                .collect(),
        );
        let notify = self.mode == ReconfigMode::NaivePerShard;
        let cs = world.add_actor(GlobalConfigServiceActor::new(initial.clone(), notify));
        self.cs = Some(cs);

        // Install views and open all-pairs RDMA connections among the initial
        // members.
        for (pool, is_member) in [(&self.members, true), (&self.spares, false)] {
            for pid in pool.values().flatten() {
                let replica = world.actor_mut::<RdmaReplica>(*pid).expect("replica");
                replica.install_initial_config(*pid, cs, &initial, is_member);
                replica.set_truncation(config.truncation);
                replica.set_batching(config.batching);
                replica.set_flow(config.flow);
            }
        }
        let all_members = initial.all_processes();
        for owner in &all_members {
            for peer in &all_members {
                if owner != peer {
                    world.rdma_open(*owner, *peer);
                }
            }
        }
    }

    fn kind(&self) -> StackKind {
        match self.mode {
            ReconfigMode::GlobalCorrect => StackKind::Rdma,
            ReconfigMode::NaivePerShard => StackKind::RdmaNaive,
        }
    }

    fn supports_reconfiguration(&self) -> bool {
        true
    }

    fn reconfiguration_is_global(&self) -> bool {
        // Both modes share the §5 entry point: one `StartReconfigure`
        // carries the spare pools of every shard and excludes crashed
        // members system-wide. What differs is the *activation*: the naive
        // mode then (incorrectly) installs configurations per shard — the
        // Figure 4a bug under study — while the correct mode probes the
        // whole system.
        true
    }

    fn replicas_coordinate(&self) -> bool {
        true
    }

    fn submit_pool(&self) -> Vec<ProcessId> {
        self.members.values().flatten().copied().collect()
    }

    fn resubmit_target(&self, world: &World<RdmaMsg>, shards: &[ShardId]) -> Option<ProcessId> {
        let leader = self.leader_of(world, *shards.first()?)?;
        (!world.is_crashed(leader)).then_some(leader)
    }

    fn retry(&self, tx: TxId) -> Option<RdmaMsg> {
        Some(RdmaMsg::Retry { tx })
    }

    fn start_reconfiguration(&self, shard: ShardId, exclude: Vec<ProcessId>) -> Option<RdmaMsg> {
        Some(RdmaMsg::StartReconfigure {
            suspected_shard: shard,
            spares: self.spares.clone(),
            target_size: self.replicas_per_shard,
            exclude,
        })
    }

    fn members_of(&self, world: &World<RdmaMsg>, shard: ShardId) -> Vec<ProcessId> {
        self.current_config(world).members_of(shard).to_vec()
    }

    fn leader_of(&self, world: &World<RdmaMsg>, shard: ShardId) -> Option<ProcessId> {
        self.current_config(world).leader_of(shard)
    }

    fn epoch_of(&self, world: &World<RdmaMsg>, _shard: ShardId) -> Epoch {
        // The §5 protocol maintains one global epoch for the whole system.
        self.current_config(world).epoch
    }

    fn roster_of(&self, shard: ShardId) -> Vec<ProcessId> {
        self.members.get(&shard).cloned().unwrap_or_default()
    }

    fn spares_of(&self, shard: ShardId) -> Vec<ProcessId> {
        self.spares.get(&shard).cloned().unwrap_or_default()
    }

    fn coordinator_pool(&self) -> Vec<ProcessId> {
        self.all_processes()
    }

    fn all_processes(&self) -> Vec<ProcessId> {
        let mut all = Vec::new();
        for (shard, members) in &self.members {
            all.extend(members);
            all.extend(&self.spares[shard]);
        }
        all
    }

    fn config_service_id(&self) -> Option<ProcessId> {
        self.cs
    }

    fn replica_ready(&self, world: &World<RdmaMsg>, pid: ProcessId) -> bool {
        world
            .actor::<RdmaReplica>(pid)
            .is_some_and(|r| r.is_initialized() && !r.reconfiguration_in_flight())
    }

    fn shard_operational(&self, world: &World<RdmaMsg>, shard: ShardId) -> bool {
        let config = self.current_config(world);
        let members = config.members_of(shard);
        !members.is_empty()
            && members.iter().all(|m| {
                if world.is_crashed(*m) {
                    return false;
                }
                let Some(replica) = world.actor::<RdmaReplica>(*m) else {
                    return false;
                };
                let expected = if Some(*m) == config.leader_of(shard) {
                    RdmaStatus::Leader
                } else {
                    RdmaStatus::Follower
                };
                replica.is_initialized()
                    && replica.epoch() == config.epoch
                    && replica.status() == expected
            })
    }

    fn prepared_transactions(&self, world: &World<RdmaMsg>, shard: ShardId) -> Vec<TxId> {
        let Some(leader) = self
            .leader_of(world, shard)
            .and_then(|leader| world.actor::<RdmaReplica>(leader))
        else {
            return Vec::new();
        };
        leader
            .log()
            .entries()
            .filter(|(_, e)| e.phase == TxPhase::Prepared)
            .map(|(_, e)| e.tx)
            .collect()
    }

    fn retained_log_slots(&self, world: &World<RdmaMsg>, pid: ProcessId) -> Option<usize> {
        world.actor::<RdmaReplica>(pid).map(|r| r.log().len())
    }

    fn logical_log_len(&self, world: &World<RdmaMsg>, pid: ProcessId) -> Option<u64> {
        world
            .actor::<RdmaReplica>(pid)
            .map(|r| r.log().next().as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_core::batch::BatchingConfig;
    use ratc_core::harness::TcsCluster;
    use ratc_types::{Decision, Key, Payload, Value, Version};

    fn deploy(config: ClusterConfig) -> RdmaCluster {
        RdmaCluster::new(RdmaStack::new(ReconfigMode::GlobalCorrect), config)
    }

    fn rw_payload(key: &str) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(0))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn failure_free_commit_over_rdma() {
        let mut cluster = deploy(ClusterConfig::default());
        cluster.submit(TxId::new(1), rw_payload("x"));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(1)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
        assert_eq!(cluster.world.rdma_rejected(), 0);
    }

    #[test]
    fn conflicting_transactions_do_not_both_commit_over_rdma() {
        let mut cluster = deploy(ClusterConfig::default().with_seed(7));
        cluster.submit(TxId::new(1), rw_payload("hot"));
        cluster.submit(TxId::new(2), rw_payload("hot"));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1);
        assert_eq!(history.decide_count(), 2);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn many_disjoint_transactions_commit_over_rdma() {
        let mut cluster = deploy(ClusterConfig::default().with_shards(3).with_seed(9));
        for i in 0..20 {
            cluster.submit(TxId::new(i), rw_payload(&format!("k{i}")));
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 20);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn batched_pipeline_commits_over_rdma() {
        let mut cluster = deploy(
            ClusterConfig::default()
                .with_shards(2)
                .with_seed(13)
                .with_batching(BatchingConfig::with_batch(8)),
        );
        let coordinator = cluster.roster_of(ShardId::new(0))[1];
        for i in 0..32u64 {
            cluster.submit_via(TxId::new(i + 1), rw_payload(&format!("k{i}")), coordinator);
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 32);
        assert!(cluster.client_violations().is_empty());
        assert_eq!(cluster.world.rdma_rejected(), 0);
        assert!(
            cluster.world.metrics().counter("prepare_batches_sent") > 0,
            "the batcher never coalesced anything"
        );
    }

    #[test]
    fn batched_pipeline_preserves_conflict_decisions_over_rdma() {
        let mut cluster = deploy(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(17)
                .with_batching(BatchingConfig::with_batch(4)),
        );
        let coordinator = cluster.roster_of(ShardId::new(0))[1];
        cluster.submit_via(TxId::new(1), rw_payload("hot"), coordinator);
        cluster.submit_via(TxId::new(2), rw_payload("hot"), coordinator);
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1);
        assert_eq!(history.decide_count(), 2);
        assert!(cluster.client_violations().is_empty());
    }

    /// Satellite regression: the member-to-member frontier exchange lets RDMA
    /// followers truncate at the true cluster minimum. With only the clamped
    /// leader hint (the PR 2 behaviour), the hint gossiped on the *last*
    /// decisions always lags the final frontier, so followers retained the
    /// tail of the history forever.
    #[test]
    fn frontier_exchange_truncates_followers_at_the_cluster_minimum() {
        use ratc_core::replica::TruncationConfig;
        let batch = 8u64;
        let mut cluster = deploy(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(19)
                .with_truncation(TruncationConfig::with_batch(batch)),
        );
        let total = 96u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}")));
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize);
        assert!(
            cluster.world.metrics().counter("frontier_exchanges") > 0,
            "members never exchanged frontiers"
        );
        let config = cluster.stack.current_config(&cluster.world);
        for pid in config.members_of(ShardId::new(0)).to_vec() {
            let log = cluster
                .world
                .actor::<RdmaReplica>(pid)
                .expect("replica")
                .log();
            let lag = log.decided_frontier().as_u64() - log.base().as_u64();
            assert!(
                lag < 2 * batch,
                "member {pid} truncated only to {} with frontier {} (lag {lag})",
                log.base(),
                log.decided_frontier()
            );
        }
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn global_reconfiguration_recovers_from_a_follower_crash() {
        let mut cluster = deploy(ClusterConfig::default().with_seed(11));
        cluster.submit(TxId::new(1), rw_payload("a"));
        cluster.run_to_quiescence();

        let shard = ShardId::new(0);
        let config = cluster.stack.current_config(&cluster.world);
        let leader = config.leader_of(shard).expect("leader");
        let follower = config.followers_of(shard)[0];
        cluster.crash(follower);
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();

        let new_config = cluster.stack.current_config(&cluster.world);
        assert_eq!(new_config.epoch, Epoch::new(1));
        assert!(!new_config.members_of(shard).contains(&follower));

        cluster.submit(TxId::new(2), rw_payload("b"));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
    }
}
