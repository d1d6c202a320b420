//! The RDMA protocol's side of the deployment harness ([`RdmaStack`]), plus
//! the scripted-schedule peer used by the Figure 4a counter-example.

use std::sync::Arc;

use ratc_core::config::GlobalConfiguration;
use ratc_core::harness::{ClusterConfig, Deployment, ShardView, Stack, StackKind, Topology};
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
}

impl RdmaStack {
    /// A stack that reconfigures in the given mode: the correct global
    /// protocol, or the naive per-shard one of the Figure 4a counter-example.
    pub fn new(mode: ReconfigMode) -> Self {
        RdmaStack { mode }
    }
}

/// The current configuration stored by the configuration service.
fn current_config<'w>(world: &'w World<RdmaMsg>, topology: &Topology) -> &'w GlobalConfiguration {
    topology
        .config_service
        .and_then(|cs| world.actor::<GlobalConfigServiceActor>(cs))
        .expect("configuration service")
        .registry()
        .get_last()
}

impl Stack for RdmaStack {
    type Msg = RdmaMsg;

    fn build(
        &self,
        world: &mut World<RdmaMsg>,
        config: &ClusterConfig,
        sharding: &Arc<HashSharding>,
    ) -> Topology {
        let shard_map = sharding.clone() as Arc<dyn ShardMap + Send + Sync>;
        let mut topology = Topology::replicas(world, self.kind(), config, sharding, |shard| {
            RdmaReplica::new(shard, config.policy.as_ref(), shard_map.clone(), self.mode)
        });

        // Initial configuration: the first replica of each shard leads.
        let initial = GlobalConfiguration::new(
            Epoch::ZERO,
            topology.roster.clone(),
            topology
                .roster
                .iter()
                .map(|(shard, members)| (*shard, members[0]))
                .collect(),
        );
        let notify = self.mode == ReconfigMode::NaivePerShard;
        let cs = world.add_actor(GlobalConfigServiceActor::new(initial.clone(), notify));
        topology.config_service = Some(cs);

        // Install views and open all-pairs RDMA connections among the initial
        // members.
        for (pool, is_member) in [(&topology.roster, true), (&topology.spares, false)] {
            for pid in pool.values().flatten() {
                let replica = world.actor_mut::<RdmaReplica>(*pid).expect("replica");
                replica.install_initial_config(*pid, cs, &initial, is_member);
                replica.set_truncation(config.truncation);
                replica.set_batching(config.batching);
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
        topology
    }

    fn kind(&self) -> StackKind {
        match self.mode {
            ReconfigMode::GlobalCorrect => StackKind::Rdma,
            ReconfigMode::NaivePerShard => StackKind::RdmaNaive,
        }
    }

    fn retry(&self, tx: TxId) -> Option<RdmaMsg> {
        Some(RdmaMsg::Retry { tx })
    }

    fn start_reconfiguration(
        &self,
        topology: &Topology,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<RdmaMsg> {
        Some(RdmaMsg::StartReconfigure {
            suspected_shard: shard,
            spares: topology.spares.clone(),
            target_size: topology.roster[&shard].len(),
            exclude,
        })
    }

    fn shard_view(&self, world: &World<RdmaMsg>, topology: &Topology, shard: ShardId) -> ShardView {
        // The §5 protocol maintains one global epoch for the whole system.
        let config = current_config(world, topology);
        let members = config.members_of(shard);
        let leader = config.leader_of(shard);
        let in_role = |m: &ProcessId| {
            let expected = if Some(*m) == leader {
                RdmaStatus::Leader
            } else {
                RdmaStatus::Follower
            };
            !world.is_crashed(*m)
                && world.actor::<RdmaReplica>(*m).is_some_and(|r| {
                    r.is_initialized() && r.epoch() == config.epoch && r.status() == expected
                })
        };
        ShardView {
            epoch: config.epoch,
            members: members.to_vec(),
            leader,
            operational: !members.is_empty() && members.iter().all(in_role),
            prepared: leader
                .and_then(|leader| world.actor::<RdmaReplica>(leader))
                .map_or_else(Vec::new, |leader| leader.log().prepared_txs()),
            ..ShardView::default()
        }
    }

    fn ready(&self, world: &World<RdmaMsg>, pid: ProcessId) -> bool {
        world
            .actor::<RdmaReplica>(pid)
            .is_some_and(|r| r.is_initialized() && !r.reconfiguration_in_flight())
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
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
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
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
        cluster.submit_via(TxId::new(1), rw_payload("hot"), coordinator);
        cluster.submit_via(TxId::new(2), rw_payload("hot"), coordinator);
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert!(history.committed().count() <= 1);
        assert_eq!(history.decide_count(), 2);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn global_reconfiguration_recovers_from_a_follower_crash() {
        let mut cluster = deploy(ClusterConfig::default().with_seed(11));
        cluster.submit(TxId::new(1), rw_payload("a"));
        cluster.run_to_quiescence();

        let shard = ShardId::new(0);
        let view = cluster.shard_view(shard);
        let leader = view.leader.expect("leader");
        let follower = view.members[1];
        assert_ne!(follower, leader);
        cluster.crash(follower);
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();

        let view = cluster.shard_view(shard);
        assert_eq!(view.epoch, Epoch::new(1));
        assert!(!view.members.contains(&follower));

        cluster.submit(TxId::new(2), rw_payload("b"));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
    }
}
