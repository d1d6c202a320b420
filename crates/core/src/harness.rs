//! The deployment harness: one [`Deployment`] builds and drives a full
//! cluster of any of the three stacks, behind the one [`TcsCluster`] facade.
//!
//! The paper specifies the Transaction Certification Service once —
//! `certify(t, l)` in, `decide(t, d)` out, the client outside the protocol
//! proper — and realises it three times (§3 message passing, §5 RDMA, the
//! 2PC-over-Paxos it is compared with). The harness has that shape:
//!
//! * [`Deployment<S>`] owns what no protocol changes: the simulation
//!   [`World`], the shard map, the [`Topology`] the stack deployed, the one
//!   history-recording [`ClientActor`], the execution engine and the
//!   round-robin cursor of `submit`. Its `impl TcsCluster` — the only one in
//!   the workspace — writes every operation that does not depend on the
//!   protocol once, directly against `self.world` and the topology:
//!   submission (record `certify`, stamp `Submitted`, inject `Certify`),
//!   crash/restart, the fault plane, running either engine, the clock,
//!   history, latencies, violations, metrics, the observability streams and
//!   the static half of every [`ShardView`]. Where a stack has a
//!   transaction-manager group ([`Topology::tm_group`]) that group
//!   coordinates: `submit` and `resubmit` go to its leader, live or not, and
//!   it is the coordinator pool. Elsewhere replicas coordinate: `submit`
//!   round-robins over every initial member, `resubmit` goes to the live
//!   leader of the transaction's first shard, and every replica and spare is
//!   in the pool.
//! * [`Stack`] is the per-stack remainder, implemented by `CoreStack` here,
//!   `RdmaStack` in `ratc-rdma` and `BaselineStack` in `ratc-baseline`. Its
//!   method table is the paper's §3 / §5 / baseline comparison in code:
//!
//! | `Stack` method | ratc-mp (§3) | ratc-rdma (§5) | 2pc-paxos |
//! |---|---|---|---|
//! | `build` | `f + 1` replicas + spares per shard, per-shard configuration service | same processes, one global configuration, all-pairs RDMA connections among members | `2f + 1` replicas per shard + a `2f + 1` transaction-manager group, no spares, no configuration service |
//! | `kind` | `Core` | `Rdma` / `RdmaNaive`, by the stack's `ReconfigMode` | `Baseline` |
//! | `retry` | `Retry` | `Retry` | nothing: the TM's own timer re-drives 2PC |
//! | `start_reconfiguration` | `StartReconfigure` with the shard's spares | `StartReconfigure` with every shard's spares | nothing |
//! | `shard_view` | last stored configuration of the shard; its leader's prepared, undecided log slots; every member live, initialised, at the stored epoch, in its stored role | the global configuration, its one epoch for every shard; same | the static group, epoch 0; nothing prepared (the TM decides votes); always operational (recovery is by restart) |
//! | `ready` | initialised, no reconfiguration of its own in flight | same | always |
//! | `retained_log_slots` / `logical_log_len` | certification-log length / next position | same | undecided payloads / chosen Paxos slots |
//!
//! What a stack can do is a function of its [`StackKind`]:
//! [`StackKind::supports_reconfiguration`],
//! [`StackKind::reconfiguration_is_global`] and
//! [`StackKind::replicas_coordinate`].
//!
//! There is deliberately no trait over [`World`] between the two: a trait
//! implemented once for `World<M>` plus provided methods calling it would be
//! the same forwarding written twice. The generic impl needs neither, stays
//! object-safe (`Box<dyn TcsCluster>` is what `ratc-harness`'s `ClusterSpec`
//! hands out) and monomorphises to the code each stack ran before.
//!
//! The harness mirrors what an operator would deploy around the protocol; it
//! contains no protocol logic of its own. White-box consumers reach a
//! stack's actors through the public [`Deployment::world`]
//! (`cluster.world.actor::<Replica>(pid)`).

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use ratc_sim::faults::LinkFault;
use ratc_sim::{
    fold_timelines, Actor, Blackout, CtrlEvent, CtrlMilestone, ExecutionMode, LatencyUnit, Metrics,
    PhaseBreakdown, SimConfig, SimDuration, SimTime, TxMilestone, TxObsEvent, TxTimeline, World,
};
use ratc_types::{
    CertificationPolicy, Epoch, HashSharding, Payload, ProcessId, Serializability, ShardId,
    ShardMap, TcsHistory, TxId,
};

use crate::batch::BatchingConfig;
use crate::client::{ClientActor, ClientMsg, DecisionLatency};
use crate::config::{ShardConfigRegistry, ShardConfiguration};
use crate::config_service::ConfigServiceActor;
use crate::messages::Msg;
use crate::replica::{Replica, Status, TruncationConfig};

/// Configuration of a simulated deployment, shared by every [`Stack`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of shards.
    pub shards: u32,
    /// Failures tolerated per shard (`f`); each stack sizes its groups from
    /// it through [`StackKind::group_size`].
    pub failures: usize,
    /// Spare (fresh) replicas per shard available to reconfiguration (none
    /// are deployed on the baseline).
    pub spares_per_shard: usize,
    /// The certification policy (isolation level).
    pub policy: Arc<dyn CertificationPolicy>,
    /// Checkpointed log truncation (default: fold batch 32), applied to
    /// every replica and spare (the baseline prunes decided payloads
    /// unconditionally instead).
    pub truncation: TruncationConfig,
    /// Batched certification pipeline (default: disabled), applied to every
    /// replica and spare.
    pub batching: BatchingConfig,
    /// Simulation parameters (seed, observability, per-message service
    /// time).
    pub sim: SimConfig,
    /// Which engine drives the actors: the deterministic simulator or a pool
    /// of worker threads over per-process mailboxes (see [`ExecutionMode`]).
    pub execution: ExecutionMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            shards: 2,
            failures: 1,
            spares_per_shard: 2,
            policy: Arc::new(Serializability::new()),
            truncation: TruncationConfig::default(),
            batching: BatchingConfig::default(),
            sim: SimConfig::default(),
            execution: ExecutionMode::default(),
        }
    }
}

impl ClusterConfig {
    /// Returns a copy with the given number of shards.
    pub fn with_shards(mut self, shards: u32) -> Self {
        self.shards = shards;
        self
    }

    /// Returns a copy tolerating `f` failures per shard.
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
    /// (see [`TcsCluster::obs_events`]). Recording never perturbs a seeded
    /// schedule.
    pub fn with_observability(mut self) -> Self {
        self.sim = self.sim.with_observability();
        self
    }

    /// Returns a copy with the given execution mode.
    pub fn with_execution(mut self, execution: ExecutionMode) -> Self {
        self.execution = execution;
        self
    }
}

/// Which TCS implementation a cluster (or an experiment, or a chaos run)
/// uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StackKind {
    /// The message-passing RATC protocol (`ratc-core`, §3, Figure 1):
    /// `f + 1` replicas per shard, 5-message-delay decisions, per-shard
    /// Vertical-Paxos-style reconfiguration.
    Core,
    /// The RDMA-based RATC protocol (`ratc-rdma`, §5, Figures 7–8) with the
    /// correct whole-system reconfiguration: votes and decisions persisted
    /// by NIC-acknowledged RDMA writes, global epochs, probing closes stale
    /// coordinators' connections.
    Rdma,
    /// The RDMA data path combined with the **incorrect** naive per-shard
    /// reconfiguration of §3 — the Figure 4a counter-example's hunting
    /// ground. Unsafe by design; exists to reproduce the violation class.
    RdmaNaive,
    /// The vanilla 2PC-over-Paxos baseline (`ratc-baseline`, §1): `2f + 1`
    /// replicas per group, 7-message-delay decisions, failures masked by
    /// Paxos quorums instead of reconfiguration (the lineage of Gray &
    /// Lamport's *Consensus on Transaction Commit*).
    Baseline,
}

impl fmt::Display for StackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StackKind::Core => f.write_str("ratc-mp"),
            StackKind::Rdma => f.write_str("ratc-rdma"),
            StackKind::RdmaNaive => f.write_str("ratc-rdma-naive"),
            StackKind::Baseline => f.write_str("2pc-paxos"),
        }
    }
}

impl StackKind {
    /// Whether the stack recovers from failures by reconfiguring (`f + 1`
    /// RATC stacks) rather than masking them with a quorum (the `2f + 1`
    /// baseline).
    pub fn supports_reconfiguration(self) -> bool {
        match self {
            StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => true,
            StackKind::Baseline => false,
        }
    }

    /// Whether one reconfiguration involves the whole system instead of a
    /// single shard. Both RDMA modes share the §5 entry point: one
    /// `StartReconfigure` carries the spare pools of every shard and excludes
    /// crashed members system-wide. What differs is the *activation*: the
    /// naive mode then (incorrectly) installs configurations per shard — the
    /// Figure 4a bug under study — while the correct mode probes the whole
    /// system.
    pub fn reconfiguration_is_global(self) -> bool {
        match self {
            StackKind::Rdma | StackKind::RdmaNaive => true,
            StackKind::Core | StackKind::Baseline => false,
        }
    }

    /// Whether arbitrary replicas coordinate transactions (RATC) as opposed
    /// to a dedicated transaction-manager group (baseline).
    pub fn replicas_coordinate(self) -> bool {
        match self {
            StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => true,
            StackKind::Baseline => false,
        }
    }

    /// Processes in one group tolerating `failures` crashes: `f + 1`
    /// replicas per shard on the RATC stacks (reconfiguration replaces a
    /// failed member), `2f + 1` per shard and in the transaction-manager
    /// group on the baseline (a Paxos majority masks failures).
    pub fn group_size(self, failures: usize) -> usize {
        match self {
            StackKind::Core | StackKind::Rdma | StackKind::RdmaNaive => failures + 1,
            StackKind::Baseline => 2 * failures + 1,
        }
    }
}

/// What a [`Stack`] deployed, as [`Stack::build`] reports it: the processes
/// of every shard and who coordinates. Fixed for the deployment's lifetime.
#[derive(Debug, Default)]
pub struct Topology {
    /// The initial members of every shard, leader first.
    pub roster: BTreeMap<ShardId, Vec<ProcessId>>,
    /// The spare (fresh) replicas of every shard; none on the baseline.
    pub spares: BTreeMap<ShardId, Vec<ProcessId>>,
    /// The transaction-manager group, leader first, on a stack that
    /// coordinates through one (the baseline); empty where replicas
    /// coordinate.
    pub tm_group: Vec<ProcessId>,
    /// The configuration service, on stacks that have one.
    pub config_service: Option<ProcessId>,
}

impl Topology {
    /// The replicas of a RATC stack of `kind`: per shard, the
    /// [`StackKind::group_size`] members of its initial configuration, then
    /// [`ClusterConfig::spares_per_shard`] spares, each added to `world` as
    /// `replica(shard)`. The stack adds its configuration service.
    pub fn replicas<M, A>(
        world: &mut World<M>,
        kind: StackKind,
        config: &ClusterConfig,
        sharding: &HashSharding,
        replica: impl Fn(ShardId) -> A,
    ) -> Topology
    where
        M: Clone + fmt::Debug + 'static,
        A: Actor<M>,
    {
        let mut topology = Topology::default();
        for shard in sharding.shards() {
            for (pool, count) in [
                (&mut topology.roster, kind.group_size(config.failures)),
                (&mut topology.spares, config.spares_per_shard),
            ] {
                let pids = (0..count).map(|_| world.add_actor(replica(shard)));
                pool.insert(shard, pids.collect());
            }
        }
        topology
    }
}

/// One shard as the facade sees it at one instant (see
/// [`TcsCluster::shard_view`]). Not to be confused with
/// [`coord::ShardView`](crate::coord::ShardView), a replica's own view of a
/// shard that its coordinator reads.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardView {
    /// The current epoch: the one global epoch on ratc-rdma, always
    /// [`Epoch::ZERO`] on the baseline.
    pub epoch: Epoch,
    /// The current members, after any reconfigurations.
    pub members: Vec<ProcessId>,
    /// The current leader, if the shard has a configuration.
    pub leader: Option<ProcessId>,
    /// The initial members, as deployed.
    pub roster: Vec<ProcessId>,
    /// The spare (fresh) replicas available to reconfiguration; none on the
    /// baseline.
    pub spares: Vec<ProcessId>,
    /// Whether every current member is live, initialised, at the current
    /// epoch and in its expected leader or follower role. Always `true` on
    /// the baseline: its quorums mask failures and it recovers by restart.
    pub operational: bool,
    /// The transactions the current leader holds prepared but undecided;
    /// none on the baseline, whose transaction manager decides votes.
    pub prepared: Vec<TxId>,
    /// The live processes among `members`, `roster` and `spares`, in that
    /// order and without repeats, that are ready to initiate work:
    /// initialised in the current configuration with no reconfiguration of
    /// their own in flight (every live one, on the baseline).
    pub ready: Vec<ProcessId>,
}

/// One deployed TCS cluster, whatever the stack.
///
/// The trait captures the operator surface the workspace's consumers need:
/// experiments drive `submit`/`run_*`/`latencies`, the chaos nemesis adds
/// `crash`/`restart`/link faults/`start_reconfiguration`, and the spec
/// suites observe `history` and [`TcsCluster::shard_view`]. Its one
/// implementation is [`Deployment`], over [`Cluster`]'s `CoreStack` (§3
/// message passing), `ratc-rdma`'s `RdmaStack` (§5 RDMA) and
/// `ratc-baseline`'s `BaselineStack` (2PC over Paxos); construct them
/// uniformly with `ratc-harness`'s `ClusterSpec`.
pub trait TcsCluster {
    /// The stack this cluster implements; its capabilities are methods of
    /// [`StackKind`].
    fn stack(&self) -> StackKind;

    // --- submission -------------------------------------------------------

    /// Submits a transaction for certification, letting the harness choose a
    /// coordinator (round-robin over live replicas on the RATC stacks, the
    /// transaction-manager leader on the baseline). Returns the coordinator.
    /// With every candidate crashed the submission goes to a crashed one: the
    /// message is dropped, the transaction stays in the history undecided,
    /// and recovery ([`TcsCluster::resubmit`]) re-drives it.
    fn submit(&mut self, tx: TxId, payload: Payload) -> ProcessId;

    /// Submits a transaction through a specific coordinator — any replica on
    /// the RATC stacks, any transaction-manager group member on the baseline
    /// (non-leader members forward to the leader).
    fn submit_via(&mut self, tx: TxId, payload: Payload, coordinator: ProcessId);

    /// Re-drives an already-submitted transaction without re-recording it in
    /// the client history (the client retry of the TCS model).
    fn resubmit(&mut self, tx: TxId, payload: Payload);

    /// Asks `replica` to act as a recovery coordinator for `tx` (the `retry`
    /// function of Figure 1). No-op on the baseline, whose transaction
    /// manager re-drives 2PC through its own retry timer.
    fn retry(&mut self, replica: ProcessId, tx: TxId);

    // --- faults and membership change -------------------------------------

    /// Crashes a process immediately (volatile state lost).
    fn crash(&mut self, pid: ProcessId);

    /// Restarts a crashed process from its modelled stable storage. Returns
    /// `false` if `pid` was not crashed.
    fn restart(&mut self, pid: ProcessId) -> bool;

    /// Asks `initiator` to start reconfiguring `shard`, excluding `exclude`
    /// and drawing replacements from the spare pool. No-op on stacks without
    /// reconfiguration (see [`StackKind::supports_reconfiguration`]).
    fn start_reconfiguration(
        &mut self,
        shard: ShardId,
        initiator: ProcessId,
        exclude: Vec<ProcessId>,
    );

    // --- simulated time ----------------------------------------------------

    /// Runs the simulation until no events remain.
    fn run_to_quiescence(&mut self);

    /// Runs the simulation for `duration` of simulated time.
    fn run_for(&mut self, duration: SimDuration) {
        let until = self.now() + duration;
        self.run_until(until);
    }

    /// Runs the simulation until the given absolute simulated time.
    fn run_until(&mut self, until: SimTime);

    /// The current simulated time.
    fn now(&self) -> SimTime;

    /// Events executed so far — a determinism fingerprint.
    fn steps(&self) -> u64;

    // --- observation -------------------------------------------------------

    /// The client-observed TCS history.
    fn history(&self) -> TcsHistory;

    /// Latency (message delays, simulated microseconds, decision) of every
    /// decided transaction, as observed by the client.
    fn latencies(&self) -> BTreeMap<TxId, DecisionLatency>;

    /// Structural specification violations the client observed (duplicate
    /// certifies, contradictory decisions). Empty in a correct run.
    fn client_violations(&self) -> Vec<String>;

    /// The metrics sink of the underlying world: named counters, sample
    /// summaries, per-process and per-message-type counts, and the
    /// observability streams.
    fn metrics(&self) -> &Metrics;

    /// The unit of every latency and timestamp this cluster reports:
    /// [`LatencyUnit::VirtualMicros`] under
    /// [`ExecutionMode::Sim`], [`LatencyUnit::WallMicros`] under
    /// [`ExecutionMode::Threads`].
    fn latency_unit(&self) -> LatencyUnit;

    /// Raw transaction-lifecycle observability events, in recording order.
    /// Empty unless the cluster was built with observability enabled
    /// ([`SimConfig::with_observability`], `ClusterSpec::with_observability`).
    fn obs_events(&self) -> Vec<TxObsEvent> {
        self.metrics().obs_events().to_vec()
    }

    /// Per-transaction lifecycle timelines, folded from
    /// [`TcsCluster::obs_events`] and keyed by transaction.
    fn timelines(&self) -> BTreeMap<TxId, TxTimeline> {
        fold_timelines(&self.obs_events())
    }

    /// Per-phase latency attribution of every transaction whose timeline is
    /// complete (submission and client-learned decision both stamped). The
    /// phases of each breakdown sum exactly to its end-to-end latency, in
    /// the cluster's [`TcsCluster::latency_unit`].
    fn phase_breakdown(&self) -> BTreeMap<TxId, PhaseBreakdown> {
        self.timelines()
            .iter()
            .filter_map(|(tx, timeline)| {
                PhaseBreakdown::from_timeline(timeline).map(|breakdown| (*tx, breakdown))
            })
            .collect()
    }

    /// Raw control-plane observability events — reconfiguration milestones,
    /// crash/restart/recovery spans, leader and coordinator handoffs, and any
    /// harness-injected fault markers — in recording order. Empty unless the
    /// cluster was built with observability enabled
    /// ([`SimConfig::with_observability`], `ClusterSpec::with_observability`).
    fn ctrl_events(&self) -> Vec<CtrlEvent> {
        self.metrics().ctrl_events().to_vec()
    }

    /// Stamps a control-plane event into the cluster's event stream on behalf
    /// of an external harness. The chaos nemesis records
    /// [`CtrlMilestone::FaultInjected`] / [`CtrlMilestone::FaultHealed`] here
    /// so a single time-ordered forensic log merges protocol milestones with
    /// the faults that caused them. A no-op unless observability is enabled —
    /// it only appends to a metrics buffer and never touches the schedule.
    fn record_ctrl(
        &mut self,
        by: ProcessId,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        note: &str,
    );

    /// Per-shard availability windows derived from the control-plane stream:
    /// each window opens at the first degrading event
    /// ([`CtrlMilestone::degrades`]) touching a shard and closes at the first
    /// transaction decided on that shard strictly after the last degrading
    /// event. Substrate events recorded without a shard (crashes and restarts
    /// are stamped by process) are attributed to the crashed process's shard
    /// via the initial roster and spare pools before the windows are computed.
    fn blackouts(&self) -> Vec<Blackout> {
        let mut shard_of: BTreeMap<ProcessId, ShardId> = BTreeMap::new();
        for shard in self.shards() {
            let view = self.shard_view(shard);
            for pid in view.roster.into_iter().chain(view.spares) {
                shard_of.insert(pid, shard);
            }
        }
        let mut ctrl = self.ctrl_events();
        for event in &mut ctrl {
            if event.shard.is_none() {
                event.shard = shard_of.get(&event.by).copied();
            }
        }
        let decided = ratc_sim::decided_times_per_shard(&self.obs_events());
        ratc_sim::blackouts(&ctrl, &decided)
    }

    /// Messages handled (sent + received) by one process.
    fn process_handled(&self, pid: ProcessId) -> u64 {
        self.metrics().process(pid).handled()
    }

    // --- topology and protocol state ---------------------------------------

    /// All shards of this cluster.
    fn shards(&self) -> Vec<ShardId> {
        self.sharding().shards()
    }

    /// The shard map used by this cluster.
    fn sharding(&self) -> &HashSharding;

    /// The history-recording client process.
    fn client_id(&self) -> ProcessId;

    /// The configuration-service process, on stacks that have one.
    fn config_service_id(&self) -> Option<ProcessId>;

    /// The processes a harness may hand submissions to: every replica and
    /// spare on the RATC stacks, the transaction-manager group (leader
    /// first) on the baseline.
    fn coordinator_pool(&self) -> Vec<ProcessId>;

    /// Every faultable protocol process — per shard its roster then its
    /// spares, then the transaction-manager group on the baseline. Excludes
    /// the client and the configuration service.
    fn all_processes(&self) -> Vec<ProcessId>;

    /// Whether `pid` is currently crashed.
    fn is_crashed(&self, pid: ProcessId) -> bool;

    /// A snapshot of `shard`: its current configuration and protocol state,
    /// and the roster and spares it was deployed with.
    fn shard_view(&self, shard: ShardId) -> ShardView;

    /// Physical certification-log slots (or undecided payloads, on the
    /// baseline) retained by `pid`, if `pid` keeps a shard log.
    fn retained_log_slots(&self, pid: ProcessId) -> Option<usize>;

    /// Logical certification-log length at `pid` — what retention would be
    /// without truncation/pruning — if `pid` keeps a shard log.
    fn logical_log_len(&self, pid: ProcessId) -> Option<u64>;

    // --- fault plane --------------------------------------------------------

    /// Installs a probabilistic fault on the directed link `from → to`.
    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault);

    /// Installs (or clears) fabric-wide background noise.
    fn set_default_link_fault(&mut self, fault: Option<LinkFault>);

    /// Installs a named partition: traffic between different groups drops.
    fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>);

    /// Heals every per-link fault, cut and partition. Crashed processes stay
    /// crashed, and the fabric-wide noise of
    /// [`TcsCluster::set_default_link_fault`] stays on until that is called
    /// with `None`.
    fn heal_all_faults(&mut self);
}

/// The per-stack part of a [`Deployment`]: which processes a protocol
/// deploys, how (and whether) it recovers, and how its replicas' state is
/// read. Everything else is written once in [`Deployment`]'s `impl
/// TcsCluster`; the module documentation tabulates how the three
/// implementations differ, method by method.
///
/// Queries that read live actor state are handed the deployment's `world`
/// (and its [`Topology`], where they need it); the two triggers return the
/// message to inject, if the stack has one.
pub trait Stack: 'static {
    /// The stack's message vocabulary.
    type Msg: ClientMsg + Clone + fmt::Debug + Send + 'static;

    /// Adds the stack's processes to the (empty) `world`, installs their
    /// initial configuration and the knobs of `config`, and returns what it
    /// deployed. The deployment adds the client afterwards.
    fn build(
        &self,
        world: &mut World<Self::Msg>,
        config: &ClusterConfig,
        sharding: &Arc<HashSharding>,
    ) -> Topology;

    /// The protocol this stack realises.
    fn kind(&self) -> StackKind;

    /// The message asking a replica to become recovery coordinator of `tx`.
    fn retry(&self, tx: TxId) -> Option<Self::Msg>;

    /// The message asking a replica to reconfigure `shard` without `exclude`,
    /// back to its roster's size, drawing on the spares of `topology`.
    fn start_reconfiguration(
        &self,
        topology: &Topology,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<Self::Msg>;

    /// The protocol half of [`TcsCluster::shard_view`] — `epoch`, `members`,
    /// `leader`, `operational` and `prepared` — read once from the stack's
    /// configuration and replicas; the other fields stay empty.
    fn shard_view(
        &self,
        world: &World<Self::Msg>,
        topology: &Topology,
        shard: ShardId,
    ) -> ShardView;

    /// Whether `pid`, if live, is ready to initiate work; [`Deployment`]
    /// filters [`ShardView::ready`] with it.
    fn ready(&self, world: &World<Self::Msg>, pid: ProcessId) -> bool;

    /// See [`TcsCluster::retained_log_slots`].
    fn retained_log_slots(&self, world: &World<Self::Msg>, pid: ProcessId) -> Option<usize>;

    /// See [`TcsCluster::logical_log_len`].
    fn logical_log_len(&self, world: &World<Self::Msg>, pid: ProcessId) -> Option<u64>;
}

/// A fully wired deployment of stack `S`: its processes (see
/// [`Stack::build`]), one history-recording client, and the world that runs
/// them on either engine.
pub struct Deployment<S: Stack> {
    /// The simulation world; exposed so tests can inspect actors, metrics
    /// and traces, inject hand-made messages, or step the simulation
    /// manually.
    pub world: World<S::Msg>,
    /// The stack's protocol-specific operations.
    pub stack: S,
    topology: Topology,
    sharding: Arc<HashSharding>,
    client: ProcessId,
    execution: ExecutionMode,
    next_coordinator: usize,
}

impl<S: Stack> Deployment<S> {
    /// Deploys `stack` as `config` describes, then one client, exempt from
    /// fault injection: it is the measurement apparatus recording the
    /// history that safety and liveness are judged by, not a protocol
    /// participant.
    pub fn new(stack: S, config: ClusterConfig) -> Self {
        let sharding = Arc::new(HashSharding::new(config.shards));
        let mut world = World::new(config.sim.clone());
        let topology = stack.build(&mut world, &config, &sharding);
        let client = world.add_actor(ClientActor::<S::Msg>::default());
        world.mark_fault_exempt(client);
        Deployment {
            world,
            stack,
            topology,
            sharding,
            client,
            execution: config.execution,
            next_coordinator: 0,
        }
    }

    fn client(&self) -> &ClientActor<S::Msg> {
        self.world.actor(self.client).expect("client")
    }

    /// What `submit` round-robins over: the TM leader where a TM group
    /// coordinates, else every initial member.
    fn submit_pool(&self) -> impl Iterator<Item = ProcessId> + '_ {
        let tm_leader = self.topology.tm_group.first().copied();
        let members = match tm_leader {
            Some(_) => None,
            None => Some(self.topology.roster.values().flatten().copied()),
        };
        tm_leader.into_iter().chain(members.into_iter().flatten())
    }
}

impl<S: Stack> TcsCluster for Deployment<S> {
    fn stack(&self) -> StackKind {
        self.stack.kind()
    }

    fn submit(&mut self, tx: TxId, payload: Payload) -> ProcessId {
        // The `next_coordinator`-th live member of the pool, counted round
        // and round; or, when the cluster is down, of the whole pool (the
        // request goes to a crashed process).
        let live = |p: &ProcessId| !self.world.is_crashed(*p);
        let up = self.submit_pool().filter(live).count();
        let coordinator = if up > 0 {
            self.submit_pool()
                .filter(live)
                .nth(self.next_coordinator % up)
        } else {
            let all = self.submit_pool().count();
            self.submit_pool().nth(self.next_coordinator % all)
        };
        let coordinator = coordinator.expect("the pool has a member");
        self.next_coordinator += 1;
        self.submit_via(tx, payload, coordinator);
        coordinator
    }

    fn submit_via(&mut self, tx: TxId, payload: Payload, coordinator: ProcessId) {
        let now = self.world.now();
        self.world
            .actor_mut::<ClientActor<S::Msg>>(self.client)
            .expect("client")
            .record_certify(tx, payload.clone(), now);
        self.world
            .obs_milestone(tx, TxMilestone::Submitted, self.client);
        self.world
            .send_external(coordinator, S::Msg::certify(tx, payload, self.client));
    }

    fn resubmit(&mut self, tx: TxId, payload: Payload) {
        let target = match self.topology.tm_group.first() {
            Some(tm_leader) => Some(*tm_leader),
            None => payload
                .shards(self.sharding.as_ref())
                .first()
                .and_then(|shard| self.shard_view(*shard).leader)
                .filter(|leader| !self.world.is_crashed(*leader)),
        };
        if let Some(target) = target {
            self.world
                .send_external(target, S::Msg::certify(tx, payload, self.client));
        }
    }

    fn retry(&mut self, replica: ProcessId, tx: TxId) {
        if let Some(msg) = self.stack.retry(tx) {
            self.world.send_external(replica, msg);
        }
    }

    fn crash(&mut self, pid: ProcessId) {
        self.world.crash(pid);
    }

    fn restart(&mut self, pid: ProcessId) -> bool {
        self.world.restart(pid)
    }

    fn start_reconfiguration(
        &mut self,
        shard: ShardId,
        initiator: ProcessId,
        exclude: Vec<ProcessId>,
    ) {
        if let Some(msg) = self
            .stack
            .start_reconfiguration(&self.topology, shard, exclude)
        {
            self.world.send_external(initiator, msg);
        }
    }

    fn run_to_quiescence(&mut self) {
        match self.execution {
            ExecutionMode::Sim => self.world.run(),
            ExecutionMode::Threads => self.world.run_threaded(),
        };
    }

    fn run_until(&mut self, until: SimTime) {
        match self.execution {
            ExecutionMode::Sim => self.world.run_until(until),
            ExecutionMode::Threads => self.world.run_threaded_until(until),
        };
    }

    fn now(&self) -> SimTime {
        self.world.now()
    }

    fn steps(&self) -> u64 {
        self.world.steps()
    }

    fn history(&self) -> TcsHistory {
        self.client().history().clone()
    }

    fn latencies(&self) -> BTreeMap<TxId, DecisionLatency> {
        self.client().latencies().clone()
    }

    fn client_violations(&self) -> Vec<String> {
        self.client().violations().to_vec()
    }

    fn metrics(&self) -> &Metrics {
        self.world.metrics()
    }

    fn latency_unit(&self) -> LatencyUnit {
        match self.execution {
            ExecutionMode::Sim => LatencyUnit::VirtualMicros,
            ExecutionMode::Threads => LatencyUnit::WallMicros,
        }
    }

    fn record_ctrl(
        &mut self,
        by: ProcessId,
        milestone: CtrlMilestone,
        shard: Option<ShardId>,
        note: &str,
    ) {
        self.world.ctrl_milestone(by, milestone, shard, note);
    }

    fn sharding(&self) -> &HashSharding {
        &self.sharding
    }

    fn client_id(&self) -> ProcessId {
        self.client
    }

    fn config_service_id(&self) -> Option<ProcessId> {
        self.topology.config_service
    }

    fn coordinator_pool(&self) -> Vec<ProcessId> {
        if self.topology.tm_group.is_empty() {
            self.all_processes()
        } else {
            self.topology.tm_group.clone()
        }
    }

    fn all_processes(&self) -> Vec<ProcessId> {
        let Topology {
            roster,
            spares,
            tm_group,
            ..
        } = &self.topology;
        let replicas = roster.iter().flat_map(|(shard, members)| {
            members
                .iter()
                .chain(spares.get(shard).into_iter().flatten())
        });
        replicas.chain(tm_group).copied().collect()
    }

    fn is_crashed(&self, pid: ProcessId) -> bool {
        self.world.is_crashed(pid)
    }

    fn shard_view(&self, shard: ShardId) -> ShardView {
        let deployed = |pools: &BTreeMap<ShardId, Vec<ProcessId>>| {
            pools.get(&shard).cloned().unwrap_or_default()
        };
        let mut view = ShardView {
            roster: deployed(&self.topology.roster),
            spares: deployed(&self.topology.spares),
            ..self.stack.shard_view(&self.world, &self.topology, shard)
        };
        for pid in view.members.iter().chain(&view.roster).chain(&view.spares) {
            if !view.ready.contains(pid)
                && !self.world.is_crashed(*pid)
                && self.stack.ready(&self.world, *pid)
            {
                view.ready.push(*pid);
            }
        }
        view
    }

    fn retained_log_slots(&self, pid: ProcessId) -> Option<usize> {
        self.stack.retained_log_slots(&self.world, pid)
    }

    fn logical_log_len(&self, pid: ProcessId) -> Option<u64> {
        self.stack.logical_log_len(&self.world, pid)
    }

    fn set_link_fault(&mut self, from: ProcessId, to: ProcessId, fault: LinkFault) {
        self.world.set_link_fault(from, to, fault);
    }

    fn set_default_link_fault(&mut self, fault: Option<LinkFault>) {
        self.world.set_default_link_fault(fault);
    }

    fn install_partition(&mut self, name: &str, groups: Vec<Vec<ProcessId>>) {
        self.world.install_partition(name, groups);
    }

    fn heal_all_faults(&mut self) {
        self.world.heal_all_faults();
    }
}

/// A deployment of the message-passing protocol (§3).
pub type Cluster = Deployment<CoreStack>;

/// The message-passing protocol's side of a [`Deployment`]: `f + 1`
/// [`Replica`]s and a pool of spares per shard, and the per-shard
/// configuration service.
#[derive(Debug)]
pub struct CoreStack;

fn registry<'w>(world: &'w World<Msg>, topology: &Topology) -> &'w ShardConfigRegistry {
    topology
        .config_service
        .and_then(|cs| world.actor::<ConfigServiceActor>(cs))
        .expect("configuration service")
        .registry()
}

impl Stack for CoreStack {
    type Msg = Msg;

    fn build(
        &self,
        world: &mut World<Msg>,
        config: &ClusterConfig,
        sharding: &Arc<HashSharding>,
    ) -> Topology {
        let shard_map = sharding.clone() as Arc<dyn ShardMap + Send + Sync>;
        let mut topology = Topology::replicas(world, self.kind(), config, sharding, |shard| {
            Replica::new(shard, config.policy.as_ref(), shard_map.clone())
        });

        // Initial configurations: the first replica of each shard leads.
        let initial: BTreeMap<ShardId, ShardConfiguration> = topology
            .roster
            .iter()
            .map(|(shard, members)| {
                (
                    *shard,
                    ShardConfiguration::new(Epoch::ZERO, members.clone(), members[0]),
                )
            })
            .collect();
        let cs = world.add_actor(ConfigServiceActor::new(
            initial.iter().map(|(s, c)| (*s, c.clone())),
        ));
        topology.config_service = Some(cs);

        // Install the initial view at every replica (members and spares).
        for (pool, is_member) in [(&topology.roster, true), (&topology.spares, false)] {
            for pid in pool.values().flatten() {
                let replica = world.actor_mut::<Replica>(*pid).expect("replica");
                replica.install_initial_config(*pid, cs, &initial, is_member);
                replica.set_truncation(config.truncation);
                replica.set_batching(config.batching);
            }
        }
        topology
    }

    fn kind(&self) -> StackKind {
        StackKind::Core
    }

    fn retry(&self, tx: TxId) -> Option<Msg> {
        Some(Msg::Retry { tx })
    }

    fn start_reconfiguration(
        &self,
        topology: &Topology,
        shard: ShardId,
        exclude: Vec<ProcessId>,
    ) -> Option<Msg> {
        Some(Msg::StartReconfigure {
            shard,
            spares: topology.spares[&shard].clone(),
            target_size: topology.roster[&shard].len(),
            exclude,
        })
    }

    fn shard_view(&self, world: &World<Msg>, topology: &Topology, shard: ShardId) -> ShardView {
        let Some(config) = registry(world, topology).get_last(shard) else {
            return ShardView::default();
        };
        let in_role = |m: &ProcessId| {
            let expected = if *m == config.leader {
                Status::Leader
            } else {
                Status::Follower
            };
            !world.is_crashed(*m)
                && world.actor::<Replica>(*m).is_some_and(|r| {
                    r.is_initialized()
                        && r.epoch_of(shard) == config.epoch
                        && r.status() == expected
                })
        };
        ShardView {
            epoch: config.epoch,
            members: config.members.clone(),
            leader: Some(config.leader),
            operational: !config.members.is_empty() && config.members.iter().all(in_role),
            prepared: world
                .actor::<Replica>(config.leader)
                .map_or_else(Vec::new, |leader| leader.log().prepared_txs()),
            ..ShardView::default()
        }
    }

    fn ready(&self, world: &World<Msg>, pid: ProcessId) -> bool {
        world
            .actor::<Replica>(pid)
            .is_some_and(|r| r.is_initialized() && !r.reconfiguration_in_flight())
    }

    fn retained_log_slots(&self, world: &World<Msg>, pid: ProcessId) -> Option<usize> {
        world.actor::<Replica>(pid).map(|r| r.log().len())
    }

    fn logical_log_len(&self, world: &World<Msg>, pid: ProcessId) -> Option<u64> {
        world.actor::<Replica>(pid).map(|r| r.log().next().as_u64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{Items, PrepareBatch, PrepareItem};
    use ratc_types::{Decision, Key, Value, Version};

    fn replica(cluster: &Cluster, pid: ProcessId) -> &Replica {
        cluster.world.actor::<Replica>(pid).expect("replica")
    }

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
        let mut cluster = Cluster::new(CoreStack, ClusterConfig::default());
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
        let mut cluster = Cluster::new(CoreStack, ClusterConfig::default().with_seed(3));
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
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default().with_shards(3).with_seed(9),
        );
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
            CoreStack,
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
        for pid in cluster.shard_view(shard).roster {
            let log = replica(&cluster, pid).log();
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
            CoreStack,
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
        let leader = cluster.shard_view(shard).leader.expect("leader");
        assert_eq!(
            replica(&cluster, leader)
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
            .shard_view(shard)
            .roster
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
            CoreStack,
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
        // Two shard-0 transactions: at fold batch 1 every shard-0 member folds
        // each one out of its log as soon as it records its decision.
        let k0 = key_on(s0, &cluster);
        cluster.submit(TxId::new(1), rw_payload(k0.as_str(), 0, 1));
        cluster.run_to_quiescence();
        cluster.submit(TxId::new(2), rw_payload(&format!("{}x", k0.as_str()), 0, 1));
        cluster.run_to_quiescence();
        let l0 = cluster.shard_view(s0).leader.expect("leader");
        assert_eq!(
            replica(&cluster, l0).log().truncated_decision(TxId::new(1)),
            Some(Decision::Commit)
        );

        // Shard 1 "missed the decision": inject a prepare of t1 at shard 1,
        // coordinated by shard-1's follower, with no shard-0 progress — both
        // shard-1 members end up holding t1 as Prepared, undecided.
        let l1 = cluster.shard_view(s1).leader.expect("leader");
        let f1 = *cluster
            .shard_view(s1)
            .roster
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
        let pos1 = replica(&cluster, l1)
            .log()
            .position_of(TxId::new(1))
            .expect("t1 prepared at shard 1");
        assert_eq!(
            replica(&cluster, l1).log().get(pos1).unwrap().phase,
            crate::log::TxPhase::Prepared,
            "precondition: t1 stranded as prepared at shard 1"
        );

        // Recovery: the follower re-coordinates t1. Shard 0 answers with
        // TxDecided (slot truncated); the decision must reach shard 1, whose
        // members then fold t1 too (fold batch 1), so the slot is read
        // through its identity.
        cluster.retry(f1, TxId::new(1));
        cluster.run_to_quiescence();
        for pid in [l1, f1] {
            assert_eq!(
                replica(&cluster, pid).log().slot_identity(pos1),
                Some((TxId::new(1), Some(Decision::Commit))),
                "{pid} still holds t1 undecided after TxDecided recovery"
            );
        }
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn batched_pipeline_commits_disjoint_transactions() {
        let mut cluster = Cluster::new(
            CoreStack,
            ClusterConfig::default()
                .with_shards(2)
                .with_seed(21)
                .with_batching(BatchingConfig::with_batch(8)),
        );
        // Fixed coordinator so certifies actually coalesce into batches.
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
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
            CoreStack,
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(23)
                .with_batching(BatchingConfig::with_batch(4)),
        );
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
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
            CoreStack,
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(29)
                .with_batching(BatchingConfig::with_batch(64)),
        );
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
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
            CoreStack,
            ClusterConfig::default()
                .with_shards(1)
                .with_seed(31)
                .with_truncation(TruncationConfig::with_batch(8))
                .with_batching(BatchingConfig::with_batch(8)),
        );
        let coordinator = cluster.shard_view(ShardId::new(0)).roster[1];
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
        for pid in cluster.shard_view(ShardId::new(0)).roster {
            let log = replica(&cluster, pid).log();
            assert!(
                log.base().as_u64() > 0,
                "member {pid} never truncated under batching"
            );
            assert!(log.len() < 64, "member {pid} retains {} slots", log.len());
        }
        assert!(cluster.client_violations().is_empty());
    }

    #[test]
    fn reconfiguration_replaces_a_crashed_follower() {
        let mut cluster = Cluster::new(CoreStack, ClusterConfig::default().with_seed(5));
        let shard = ShardId::new(0);
        let view = cluster.shard_view(shard);
        let leader = view.leader.expect("leader");
        let follower = *view
            .roster
            .iter()
            .find(|p| **p != leader)
            .expect("follower");

        // Commit one transaction first so there is state to transfer.
        cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
        cluster.run_to_quiescence();

        // Crash the follower and reconfigure, initiated by the leader.
        cluster.crash(follower);
        cluster.start_reconfiguration(shard, leader, vec![follower]);
        cluster.run_to_quiescence();

        let view = cluster.shard_view(shard);
        assert!(
            !view.members.contains(&follower),
            "crashed follower must be replaced"
        );
        assert_eq!(view.members.len(), 2);
        assert_eq!(view.epoch, Epoch::new(1));

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
        let mut cluster = Cluster::new(CoreStack, ClusterConfig::default().with_seed(11));
        let shard = ShardId::new(0);
        let view = cluster.shard_view(shard);
        let leader = view.leader.expect("leader");
        let follower = *view
            .roster
            .iter()
            .find(|p| **p != leader)
            .expect("follower");

        cluster.submit(TxId::new(1), rw_payload("a", 0, 1));
        cluster.run_to_quiescence();

        cluster.crash(leader);
        // The surviving follower initiates reconfiguration.
        cluster.start_reconfiguration(shard, follower, vec![leader]);
        cluster.run_to_quiescence();

        let view = cluster.shard_view(shard);
        assert_eq!(view.leader, Some(follower));
        assert!(!view.members.contains(&leader));

        cluster.submit(TxId::new(2), rw_payload("c", 0, 1));
        cluster.run_to_quiescence();
        assert_eq!(
            cluster.history().decision(TxId::new(2)),
            Some(Decision::Commit)
        );
        assert!(cluster.client_violations().is_empty());
    }
}
