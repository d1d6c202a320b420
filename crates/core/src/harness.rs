//! Deployment harness: build and drive a full simulated RATC cluster.
//!
//! [`Cluster`] wires together everything a test, example or benchmark needs:
//! the replicas of every shard, per-shard spare (fresh) replicas available to
//! reconfiguration, the configuration service, a client, and the deterministic
//! simulation world. The harness mirrors what an operator would deploy around
//! the protocol; it contains no protocol logic of its own.

use std::collections::BTreeMap;
use std::sync::Arc;

use ratc_config::ShardConfiguration;
use ratc_sim::{ExecutionMode, SimConfig, SimDuration, SimTime, World};
use ratc_types::{
    CertificationPolicy, Epoch, HashSharding, Payload, ProcessId, Serializability, ShardId,
    ShardMap, TcsHistory, TxId,
};

use crate::batch::BatchingConfig;
use crate::client::{ClientActor, DecisionLatency};
use crate::config_service::ConfigServiceActor;
use crate::flow::FlowControlConfig;
use crate::messages::Msg;
use crate::replica::{Replica, TruncationConfig};

/// Configuration of a simulated RATC deployment.
#[derive(Clone)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: u32,
    /// Replicas per shard (`f + 1` to tolerate `f` failures between
    /// reconfigurations).
    pub replicas_per_shard: usize,
    /// Spare (fresh) replicas per shard available to reconfiguration.
    pub spares_per_shard: usize,
    /// The certification policy (isolation level).
    pub policy: Arc<dyn CertificationPolicy>,
    /// Checkpointed log truncation (default: enabled, batch 32), applied to
    /// every replica and spare.
    pub truncation: TruncationConfig,
    /// Batched certification pipeline (default: disabled), applied to every
    /// replica and spare.
    pub batching: BatchingConfig,
    /// Flow control (default: on): coordinator admission window and retry
    /// backoff, applied to every replica and spare.
    pub flow: FlowControlConfig,
    /// Simulation parameters (seed, latency model, tracing).
    pub sim: SimConfig,
    /// Which engine drives the actors: the deterministic simulator or one OS
    /// thread per process (see [`ExecutionMode`]).
    pub execution: ExecutionMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            replicas_per_shard: 2,
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

impl std::fmt::Debug for ClusterConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterConfig")
            .field("shards", &self.shards)
            .field("replicas_per_shard", &self.replicas_per_shard)
            .field("spares_per_shard", &self.spares_per_shard)
            .field("policy", &self.policy.name())
            .finish()
    }
}

impl ClusterConfig {
    /// Returns a copy with the given number of shards.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy with the given number of replicas per shard.
    pub fn with_replicas_per_shard(mut self, replicas: usize) -> Self {
        self.replicas_per_shard = replicas;
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
    pub fn with_flow(mut self, flow: FlowControlConfig) -> Self {
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

    /// Returns a copy with the given execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }
}

/// A fully wired simulated deployment of the message-passing protocol.
pub struct Cluster {
    /// The simulation world; exposed so tests can crash processes, inspect
    /// metrics and traces, or step the simulation manually.
    pub world: World<Msg>,
    sharding: Arc<HashSharding>,
    cs: ProcessId,
    client: ProcessId,
    members: BTreeMap<ShardId, Vec<ProcessId>>,
    spares: BTreeMap<ShardId, Vec<ProcessId>>,
    replicas_per_shard: usize,
    next_coordinator: usize,
    execution: ExecutionMode,
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("shards", &self.members.len())
            .field("cs", &self.cs)
            .field("client", &self.client)
            .finish()
    }
}

impl Cluster {
    /// Builds a cluster: replicas and spares per shard, the configuration
    /// service and one client.
    pub fn new(config: ClusterConfig) -> Self {
        let sharding = Arc::new(HashSharding::new(config.shards));
        let mut world: World<Msg> = World::new(config.sim.clone());

        // Create the replicas of every shard, then the spares.
        let mut members: BTreeMap<ShardId, Vec<ProcessId>> = BTreeMap::new();
        let mut spares: BTreeMap<ShardId, Vec<ProcessId>> = BTreeMap::new();
        for shard_idx in 0..config.shards {
            let shard = ShardId::new(shard_idx);
            let mut shard_members = Vec::new();
            for _ in 0..config.replicas_per_shard {
                let pid = world.add_actor(Replica::new(
                    shard,
                    config.policy.as_ref(),
                    sharding.clone() as Arc<dyn ShardMap + Send + Sync>,
                ));
                shard_members.push(pid);
            }
            members.insert(shard, shard_members);
            let mut shard_spares = Vec::new();
            for _ in 0..config.spares_per_shard {
                let pid = world.add_actor(Replica::new(
                    shard,
                    config.policy.as_ref(),
                    sharding.clone() as Arc<dyn ShardMap + Send + Sync>,
                ));
                shard_spares.push(pid);
            }
            spares.insert(shard, shard_spares);
        }

        // Initial configurations: the first replica of each shard leads.
        let initial: BTreeMap<ShardId, ShardConfiguration> = members
            .iter()
            .map(|(shard, shard_members)| {
                (
                    *shard,
                    ShardConfiguration::new(Epoch::ZERO, shard_members.clone(), shard_members[0]),
                )
            })
            .collect();

        let cs = world.add_actor(ConfigServiceActor::new(
            initial.iter().map(|(s, c)| (*s, c.clone())),
        ));
        let client = world.add_actor(ClientActor::new());
        if config.truncation.compaction {
            world
                .actor_mut::<ClientActor>(client)
                .expect("client")
                .set_ack_decisions(true);
        }

        // Install the initial view at every replica (members and spares).
        for (shard, shard_members) in &members {
            for pid in shard_members {
                let replica = world.actor_mut::<Replica>(*pid).expect("replica");
                replica.install_initial_config(*pid, cs, &initial, true);
                replica.set_truncation(config.truncation);
                replica.set_batching(config.batching);
                replica.set_flow(config.flow);
            }
            for pid in &spares[shard] {
                let replica = world.actor_mut::<Replica>(*pid).expect("spare replica");
                replica.install_initial_config(*pid, cs, &initial, false);
                replica.set_truncation(config.truncation);
                replica.set_batching(config.batching);
                replica.set_flow(config.flow);
            }
        }

        Cluster {
            world,
            sharding,
            cs,
            client,
            members,
            spares,
            replicas_per_shard: config.replicas_per_shard,
            next_coordinator: 0,
            execution: config.execution,
        }
    }

    /// The shard map used by this cluster.
    pub fn sharding(&self) -> &HashSharding {
        &self.sharding
    }

    /// The client process.
    pub fn client_id(&self) -> ProcessId {
        self.client
    }

    /// The configuration-service process.
    pub fn config_service_id(&self) -> ProcessId {
        self.cs
    }

    /// The initial members of `shard`.
    pub fn initial_members(&self, shard: ShardId) -> &[ProcessId] {
        self.members.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The spare replicas of `shard`.
    pub fn spares(&self, shard: ShardId) -> &[ProcessId] {
        self.spares.get(&shard).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All replicas that are currently members of some shard, according to the
    /// configuration service.
    pub fn current_members(&self, shard: ShardId) -> Vec<ProcessId> {
        self.cs_registry()
            .get_last(shard)
            .map(|c| c.members.clone())
            .unwrap_or_default()
    }

    /// The current leader of `shard` according to the configuration service.
    pub fn current_leader(&self, shard: ShardId) -> ProcessId {
        self.cs_registry()
            .get_last(shard)
            .map(|c| c.leader)
            .expect("shard exists")
    }

    /// The current epoch of `shard` according to the configuration service.
    pub fn current_epoch(&self, shard: ShardId) -> Epoch {
        self.cs_registry()
            .get_last(shard)
            .map(|c| c.epoch)
            .expect("shard exists")
    }

    fn cs_registry(&self) -> &ratc_config::ShardConfigRegistry {
        self.world
            .actor::<ConfigServiceActor>(self.cs)
            .expect("configuration service")
            .registry()
    }

    /// All shards of this cluster.
    pub fn shards(&self) -> Vec<ShardId> {
        self.members.keys().copied().collect()
    }

    /// Downcast access to a replica's state.
    pub fn replica(&self, pid: ProcessId) -> &Replica {
        self.world.actor::<Replica>(pid).expect("replica")
    }

    /// Submits a transaction for certification, using a round-robin choice of
    /// coordinator replica. Returns the chosen coordinator.
    pub fn submit(&mut self, tx: TxId, payload: Payload) -> ProcessId {
        let all: Vec<ProcessId> = self
            .members
            .values()
            .flat_map(|v| v.iter().copied())
            .filter(|p| !self.world.is_crashed(*p))
            .collect();
        let coordinator = all[self.next_coordinator % all.len()];
        self.next_coordinator += 1;
        self.submit_via(tx, payload, coordinator);
        coordinator
    }

    /// Submits a transaction through a specific coordinator replica.
    pub fn submit_via(&mut self, tx: TxId, payload: Payload, coordinator: ProcessId) {
        let now = self.world.now();
        self.world
            .actor_mut::<ClientActor>(self.client)
            .expect("client")
            .record_certify(tx, payload.clone(), now);
        self.world
            .obs_milestone(tx, ratc_sim::TxMilestone::Submitted, self.client);
        let client = self.client;
        self.world.send_external(
            coordinator,
            Msg::Certify {
                tx,
                payload,
                client,
            },
        );
    }

    /// Asks `initiator` to start reconfiguring `shard`, excluding `exclude`
    /// (e.g. crashed replicas) and drawing replacements from the shard's spare
    /// pool. The target size is the cluster's `replicas_per_shard`.
    pub fn start_reconfiguration(
        &mut self,
        shard: ShardId,
        initiator: ProcessId,
        exclude: Vec<ProcessId>,
    ) {
        let spares = self.spares.get(&shard).cloned().unwrap_or_default();
        let target_size = self.replicas_per_shard;
        self.world.send_external(
            initiator,
            Msg::StartReconfigure {
                shard,
                spares,
                target_size,
                exclude,
            },
        );
    }

    /// Asks `replica` to become a recovery coordinator for `tx` (the `retry`
    /// function of Figure 1).
    pub fn retry(&mut self, replica: ProcessId, tx: TxId) {
        self.world.send_external(replica, Msg::Retry { tx });
    }

    /// Re-submits a transaction to the current leader of its first shard
    /// without re-recording it in the client history: the client retry of
    /// the TCS model, used by recovery drivers.
    pub fn resubmit(&mut self, tx: TxId, payload: Payload) {
        let shards = payload.shards(self.sharding.as_ref());
        let Some(first) = shards.first().copied() else {
            return;
        };
        let target = self.current_leader(first);
        if self.world.is_crashed(target) {
            return;
        }
        let client = self.client;
        self.world.send_external(
            target,
            Msg::Certify {
                tx,
                payload,
                client,
            },
        );
    }

    /// Crashes a process immediately.
    pub fn crash(&mut self, pid: ProcessId) {
        self.world.crash(pid);
    }

    /// Restarts a crashed replica: it recovers from its certification log
    /// (checkpoint + suffix, the modelled stable storage) and rejoins with
    /// all volatile state lost. Returns `false` if `pid` was not crashed.
    pub fn restart(&mut self, pid: ProcessId) -> bool {
        self.world.restart(pid)
    }

    /// The execution engine driving this cluster's actors.
    pub fn execution(&self) -> ExecutionMode {
        self.execution
    }

    /// Runs the cluster until no events remain (on the configured
    /// [`ExecutionMode`]: simulated or threaded).
    pub fn run_to_quiescence(&mut self) {
        match self.execution {
            ExecutionMode::Sim => {
                self.world.run();
            }
            ExecutionMode::Threads => {
                self.world.run_threaded();
            }
        }
    }

    /// Runs the cluster for `duration` (simulated time on the simulator,
    /// wall-clock time on the threaded backend).
    pub fn run_for(&mut self, duration: SimDuration) {
        let until = self.world.now() + duration;
        self.run_until(until);
    }

    /// Runs the cluster until the given absolute time on the cluster's clock.
    pub fn run_until(&mut self, until: SimTime) {
        match self.execution {
            ExecutionMode::Sim => {
                self.world.run_until(until);
            }
            ExecutionMode::Threads => {
                self.world.run_threaded_until(until);
            }
        }
    }

    /// The client's recorded TCS history.
    pub fn history(&self) -> TcsHistory {
        self.world
            .actor::<ClientActor>(self.client)
            .expect("client")
            .history()
            .clone()
    }

    /// The client's recorded per-transaction latencies.
    pub fn latencies(&self) -> BTreeMap<TxId, DecisionLatency> {
        self.world
            .actor::<ClientActor>(self.client)
            .expect("client")
            .latencies()
            .clone()
    }

    /// Structural specification violations observed by the client (always
    /// empty in a correct run).
    pub fn client_violations(&self) -> Vec<String> {
        self.world
            .actor::<ClientActor>(self.client)
            .expect("client")
            .violations()
            .to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Items, PrepareBatch, PrepareItem};
    use ratc_types::{Decision, Key, Value, Version};

    fn rw_payload(key: &str, read_version: u64, commit_version: u64) -> Payload {
        Payload::builder()
            .read(Key::new(key), Version::new(read_version))
            .write(Key::new(key), Value::from("v"))
            .commit_version(Version::new(commit_version))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn single_transaction_commits_in_five_delays() {
        let mut cluster = Cluster::new(ClusterConfig::default());
        cluster.submit(TxId::new(1), rw_payload("x", 0, 1));
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.decision(TxId::new(1)), Some(Decision::Commit));
        assert!(cluster.client_violations().is_empty());
        let latency = cluster.latencies()[&TxId::new(1)];
        assert_eq!(
            latency.hops, 5,
            "decision must arrive after 5 message delays"
        );
    }

    #[test]
    fn conflicting_transactions_do_not_both_commit() {
        let mut cluster = Cluster::new(ClusterConfig::default().with_seed(3));
        // Both transactions read version 0 of the same key and write it: at
        // most one of them can commit under serializability.
        cluster.submit(TxId::new(1), rw_payload("hot", 0, 1));
        cluster.submit(TxId::new(2), rw_payload("hot", 0, 2));
        cluster.run_to_quiescence();
        let history = cluster.history();
        let committed = history.committed().count();
        assert!(committed <= 1, "conflicting transactions both committed");
        assert_eq!(
            history.decide_count(),
            2,
            "both transactions must be decided"
        );
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn disjoint_transactions_all_commit() {
        let mut cluster = Cluster::new(ClusterConfig::default().with_shards(3).with_seed(9));
        for i in 0..20 {
            cluster.submit(TxId::new(i), rw_payload(&format!("key-{i}"), 0, 1));
        }
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.committed().count(), 20);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn long_history_is_truncated_to_a_bounded_log() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(7)
                .with_truncation(TruncationConfig::with_batch(8)),
        );
        let total = 200u64;
        for i in 0..total {
            cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}"), 0, 1));
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize);
        assert!(cluster.client_violations().is_empty());
        let shard = ShardId::new(0);
        for pid in cluster.initial_members(shard).to_vec() {
            let log = cluster.replica(pid).log();
            assert!(
                log.base().as_u64() > 0,
                "member {pid} never truncated its log"
            );
            assert!(
                log.len() < 64,
                "member {pid} retains {} slots of a {total}-tx history",
                log.len()
            );
            // Logical positions and decisions survive the physical fold.
            assert_eq!(log.next().as_u64(), total);
            assert!(log.position_of(TxId::new(1)).is_some());
        }
        let violations = crate::invariants::check_cluster(&cluster);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn prepare_for_truncated_transaction_returns_the_decision() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(13)
                .with_truncation(TruncationConfig::with_batch(1)),
        );
        for i in 0..10u64 {
            cluster.submit(TxId::new(i + 1), rw_payload(&format!("k{i}"), 0, 1));
            cluster.run_to_quiescence();
        }
        let shard = ShardId::new(0);
        let leader = cluster.current_leader(shard);
        assert_eq!(
            cluster
                .replica(leader)
                .log()
                .truncated_decision(TxId::new(1)),
            Some(Decision::Commit),
            "t1 must be decided and truncated at the leader"
        );
        // A recovery coordinator re-prepares the truncated transaction with
        // the ⊥ payload: the leader answers with the recorded decision
        // instead of re-certifying it as new, and the coordinator forwards
        // the (benign duplicate) decision to the client.
        let other = *cluster
            .initial_members(shard)
            .iter()
            .find(|p| **p != leader)
            .expect("another member");
        let client = cluster.client_id();
        cluster.world.send_from(
            other,
            leader,
            Msg::PrepareBatch {
                batch: PrepareBatch {
                    items: Items::one(PrepareItem {
                        tx: TxId::new(1),
                        payload: None,
                        shards: vec![shard],
                        client,
                    }),
                },
            },
        );
        cluster.run_to_quiescence();
        assert!(cluster.client_violations().is_empty());
        assert_eq!(
            cluster.history().decision(TxId::new(1)),
            Some(Decision::Commit)
        );
    }

    /// A shard that missed a transaction's `DECISION` and still holds it as
    /// prepared must learn the decision when a recovery coordinator is
    /// answered with `TxDecided` by a shard that already truncated it —
    /// otherwise the slot (and its `L2` locks) stay stranded forever.
    #[test]
    fn tx_decided_recovery_unsticks_prepared_slots_at_other_shards() {
        use ratc_types::ShardMap;
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(2)
                .with_seed(19)
                .with_truncation(TruncationConfig::with_batch(1)),
        );
        let s0 = ShardId::new(0);
        let s1 = ShardId::new(1);
        let key_on = |shard: ShardId, cluster: &Cluster| {
            (0..10_000)
                .map(|i| Key::new(format!("k{i}")))
                .find(|k| cluster.sharding().shard_of(k) == shard)
                .expect("hash sharding covers every shard")
        };
        // Two shard-0 transactions: the second's decision floor truncates the
        // first out of every shard-0 log.
        let k0 = key_on(s0, &cluster);
        cluster.submit(TxId::new(1), rw_payload(k0.as_str(), 0, 1));
        cluster.run_to_quiescence();
        cluster.submit(TxId::new(2), rw_payload(&format!("{}x", k0.as_str()), 0, 1));
        cluster.run_to_quiescence();
        let l0 = cluster.current_leader(s0);
        assert_eq!(
            cluster.replica(l0).log().truncated_decision(TxId::new(1)),
            Some(Decision::Commit)
        );

        // Shard 1 "missed the decision": inject a prepare of t1 at shard 1,
        // coordinated by shard-1's follower, with no shard-0 progress — both
        // shard-1 members end up holding t1 as Prepared, undecided.
        let l1 = cluster.current_leader(s1);
        let f1 = *cluster
            .initial_members(s1)
            .iter()
            .find(|p| **p != l1)
            .expect("follower");
        let k1 = key_on(s1, &cluster);
        let client = cluster.client_id();
        cluster.world.send_from(
            f1,
            l1,
            Msg::PrepareBatch {
                batch: PrepareBatch {
                    items: Items::one(PrepareItem {
                        tx: TxId::new(1),
                        payload: Some(
                            Payload::builder()
                                .read(Key::new(k1.as_str()), ratc_types::Version::new(0))
                                .build()
                                .expect("well-formed"),
                        ),
                        shards: vec![s0, s1],
                        client,
                    }),
                },
            },
        );
        cluster.run_to_quiescence();
        let pos1 = cluster
            .replica(l1)
            .log()
            .position_of(TxId::new(1))
            .expect("t1 prepared at shard 1");
        assert_eq!(
            cluster.replica(l1).log().get(pos1).unwrap().phase,
            crate::log::TxPhase::Prepared,
            "precondition: t1 stranded as prepared at shard 1"
        );

        // Recovery: the follower re-coordinates t1. Shard 0 answers with
        // TxDecided (slot truncated); the decision must reach shard 1.
        cluster.retry(f1, TxId::new(1));
        cluster.run_to_quiescence();
        for pid in [l1, f1] {
            let entry = cluster
                .replica(pid)
                .log()
                .get(pos1)
                .expect("slot still present");
            assert_eq!(
                entry.dec,
                Some(Decision::Commit),
                "{pid} still holds t1 undecided after TxDecided recovery"
            );
        }
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn batched_pipeline_commits_disjoint_transactions() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(2)
                .with_seed(21)
                .with_batching(BatchingConfig::with_batch(8)),
        );
        // Fixed coordinator so certifies actually coalesce into batches.
        let coordinator = cluster.initial_members(ShardId::new(0))[1];
        for i in 0..32u64 {
            cluster.submit_via(
                TxId::new(i + 1),
                rw_payload(&format!("k{i}"), 0, 1),
                coordinator,
            );
        }
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.committed().count(), 32);
        assert!(cluster.client_violations().is_empty());
        assert!(
            cluster.world.metrics().counter("prepare_batches_sent") > 0,
            "the batcher never coalesced anything"
        );
        let violations = crate::invariants::check_cluster(&cluster);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn batched_pipeline_preserves_conflict_decisions() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(23)
                .with_batching(BatchingConfig::with_batch(4)),
        );
        let coordinator = cluster.initial_members(ShardId::new(0))[1];
        // Both read version 0 of the same key and write it: they land in the
        // same batch, and at most one may commit.
        cluster.submit_via(TxId::new(1), rw_payload("hot", 0, 1), coordinator);
        cluster.submit_via(TxId::new(2), rw_payload("hot", 0, 2), coordinator);
        cluster.submit_via(TxId::new(3), rw_payload("cold", 0, 3), coordinator);
        cluster.run_to_quiescence();
        let history = cluster.history();
        assert_eq!(history.decide_count(), 3);
        assert!(history.committed().count() <= 2);
        assert_eq!(history.decision(TxId::new(3)), Some(Decision::Commit));
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn partially_filled_batches_are_flushed_by_the_batch_timer() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(29)
                .with_batching(BatchingConfig::with_batch(64)),
        );
        let coordinator = cluster.initial_members(ShardId::new(0))[1];
        // Far fewer submissions than max_batch: only the delay timer can
        // flush them.
        for i in 0..5u64 {
            cluster.submit_via(
                TxId::new(i + 1),
                rw_payload(&format!("k{i}"), 0, 1),
                coordinator,
            );
        }
        cluster.run_to_quiescence();
        assert_eq!(cluster.history().committed().count(), 5);
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn batching_interoperates_with_truncation() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(31)
                .with_truncation(TruncationConfig::with_batch(8))
                .with_batching(BatchingConfig::with_batch(8)),
        );
        let coordinator = cluster.initial_members(ShardId::new(0))[1];
        let total = 128u64;
        for wave in 0..(total / 8) {
            for i in 0..8u64 {
                let n = wave * 8 + i;
                cluster.submit_via(
                    TxId::new(n + 1),
                    rw_payload(&format!("k{n}"), 0, 1),
                    coordinator,
                );
            }
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize);
        for pid in cluster.initial_members(ShardId::new(0)).to_vec() {
            let log = cluster.replica(pid).log();
            assert!(
                log.base().as_u64() > 0,
                "member {pid} never truncated under batching"
            );
            assert!(log.len() < 64, "member {pid} retains {} slots", log.len());
        }
        assert!(cluster.client_violations().is_empty());
    }

    /// Decision-map compaction regression: on a 10k-transaction history the
    /// checkpoint's per-position decision map must stay bounded (without
    /// compaction it grows linearly — one record per truncated transaction).
    #[test]
    fn compaction_bounds_the_checkpoint_on_a_10k_tx_history() {
        let mut cluster = Cluster::new(
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(37)
                .with_truncation(TruncationConfig::with_batch(8).with_compaction())
                .with_batching(BatchingConfig::with_batch(32)),
        );
        let coordinator = cluster.initial_members(ShardId::new(0))[1];
        let total = 10_000u64;
        let wave = 100u64;
        for w in 0..(total / wave) {
            for i in 0..wave {
                let n = w * wave + i;
                cluster.submit_via(
                    TxId::new(n + 1),
                    rw_payload(&format!("k{n}"), 0, 1),
                    coordinator,
                );
            }
            cluster.run_to_quiescence();
        }
        assert_eq!(cluster.history().decide_count(), total as usize);
        assert!(cluster.client_violations().is_empty());
        for pid in cluster.initial_members(ShardId::new(0)).to_vec() {
            let log = cluster.replica(pid).log();
            assert!(
                log.base().as_u64() > total - 256,
                "member {pid} truncated only to {}",
                log.base()
            );
            assert!(log.len() < 256, "member {pid} retains {} slots", log.len());
            // The point of the satellite: the decision map does not scale
            // with history length once every decision has been acked.
            assert!(
                log.checkpoint().decided_count() < 64,
                "member {pid} retains {} checkpoint records of a {total}-tx history",
                log.checkpoint().decided_count()
            );
            assert!(
                log.acked_pending() < 256,
                "member {pid} holds {} pending acks",
                log.acked_pending()
            );
        }
        // Every decision was acknowledged end to end exactly once, and the
        // coordinator dropped its per-transaction state on the way.
        assert_eq!(cluster.world.metrics().counter("decisions_acked"), total);
        assert_eq!(cluster.replica(coordinator).undecided_coordinated(), 0);
        let violations = crate::invariants::check_cluster(&cluster);
        assert!(violations.is_empty(), "violations: {violations:?}");
    }

    #[test]
    fn reconfiguration_replaces_a_crashed_follower() {
        let mut cluster = Cluster::new(ClusterConfig::default().with_seed(5));
        let shard = ShardId::new(0);
        let members = cluster.initial_members(shard).to_vec();
        let leader = cluster.current_leader(shard);
        let follower = *members.iter().find(|p| **p != leader).expect("follower");

        // Commit one transaction first so there is state to transfer.
        cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
        cluster.run_to_quiescence();

        // Crash the follower and reconfigure, initiated by the leader.
        cluster.crash(follower);
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();

        let new_config = cluster.current_members(shard);
        assert!(
            !new_config.contains(&follower),
            "crashed follower must be replaced"
        );
        assert_eq!(new_config.len(), 2);
        assert_eq!(cluster.current_epoch(shard), Epoch::new(1));

        // The shard keeps certifying transactions after reconfiguration.
        cluster.submit(TxId::new(2), rw_payload("b", 0, 1));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn leader_crash_is_recovered_by_promoting_the_follower() {
        let mut cluster = Cluster::new(ClusterConfig::default().with_seed(11));
        let shard = ShardId::new(0);
        let leader = cluster.current_leader(shard);
        let members = cluster.initial_members(shard).to_vec();
        let follower = *members.iter().find(|p| **p != leader).expect("follower");

        cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
        cluster.run_to_quiescence();

        cluster.crash(leader);
        // The surviving follower initiates reconfiguration.
        cluster.start_reconfiguration(shard, follower, vec![leader]);
        cluster.run_to_quiescence();

        assert_eq!(cluster.current_leader(shard), follower);
        assert!(!cluster.current_members(shard).contains(&leader));

        cluster.submit(TxId::new(2), rw_payload("c", 0, 1));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
    }
}
