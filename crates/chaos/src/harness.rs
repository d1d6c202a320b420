//! The [`ChaosHarness`]: one stack-agnostic adapter between the soak driver
//! and a cluster under chaos.
//!
//! Before the unified [`TcsCluster`] facade existed this module carried three
//! near-identical per-stack adapters (~900 lines); the shared trait collapsed
//! them into this single struct. The harness resolves the role-addressed
//! targets of [`FaultEvent`]s (current leaders, roster indices) against the
//! cluster's [`TcsCluster::shard_view`] snapshots, paces submissions through
//! a fixed or round-robin coordinator, and drives post-fault recovery
//! ([`ChaosHarness::heal`] / [`ChaosHarness::stabilize`]). The real semantic
//! differences between the stacks are the capabilities of their
//! [`StackKind`]: the baseline ignores reconfiguration events, the §5 RDMA
//! protocol reconfigures globally, and only the RATC stacks let arbitrary
//! replicas coordinate.
//!
//! The deployment exempts its client from fault injection: it is the
//! measurement apparatus recording the history that safety and liveness are
//! judged by, not a protocol participant. Everything else — including the
//! configuration service — runs over faultable links.

use std::collections::BTreeMap;

use ratc_core::replica::TruncationConfig;
use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_sim::faults::{FaultScope, LinkFault};
use ratc_sim::{Blackout, CtrlEvent, CtrlMilestone, SimDuration};
use ratc_types::{Key, Payload, ProcessId, ShardId, TcsHistory, TxId, Value, Version};

use crate::plan::{FaultEvent, LinkNoise};

/// Cap on how many prepared transactions one `RetryPrepared` event re-drives.
const RETRY_CAP: usize = 64;

fn noise_fault(noise: &LinkNoise) -> LinkFault {
    LinkFault {
        drop: noise.drop,
        duplicate: noise.duplicate,
        delay: noise.delay,
        delay_micros: (0, noise.max_delay_micros),
        scope: FaultScope::All,
    }
}

/// A cluster under chaos: fault application, paced submission, time control,
/// healing/stabilisation and history observation for any [`TcsCluster`].
pub struct ChaosHarness {
    cluster: Box<dyn TcsCluster>,
    payloads: BTreeMap<TxId, Payload>,
    /// Initial roster per shard (fault events address replicas by roster
    /// index so plans replay against a freshly built cluster).
    roster: BTreeMap<ShardId, Vec<ProcessId>>,
    /// Every faultable protocol process (see [`TcsCluster::all_processes`]).
    processes: Vec<ProcessId>,
    /// The submission pool, captured once at construction (the cluster's
    /// coordinator pool is membership-stable).
    pool: Vec<ProcessId>,
    /// Fixed submission coordinator, if configured (and supported).
    coordinator: Option<ProcessId>,
    partition_seq: u64,
    next_coordinator: usize,
    /// Transactions injected by `OverloadBurst` events so far (bursts use a
    /// dedicated high TxId range that never collides with the workload's).
    burst_seq: u64,
}

impl ChaosHarness {
    /// Deploys `spec` and wraps it for chaos testing. `coordinator`
    /// optionally routes every submission through one fixed replica (shard,
    /// roster index); stacks with a dedicated transaction-manager group
    /// ignore it (their coordinator is the TM leader).
    pub fn new(spec: &ClusterSpec, coordinator: Option<(ShardId, usize)>) -> Self {
        let cluster = spec.build();
        Self::from_cluster(cluster, coordinator)
    }

    /// Wraps an already-built cluster for chaos testing.
    pub fn from_cluster(
        cluster: Box<dyn TcsCluster>,
        coordinator: Option<(ShardId, usize)>,
    ) -> Self {
        let roster: BTreeMap<ShardId, Vec<ProcessId>> = cluster
            .shards()
            .into_iter()
            .map(|shard| (shard, cluster.shard_view(shard).roster))
            .collect();
        let pool = cluster.coordinator_pool();
        let coordinator = if cluster.stack().replicas_coordinate() {
            coordinator.map(|(shard, index)| roster[&shard][index % roster[&shard].len()])
        } else {
            // A dedicated TM group coordinates: pin submissions to its leader
            // (the pool head) for plan-replay stability.
            Some(pool[0])
        };
        ChaosHarness {
            payloads: BTreeMap::new(),
            roster,
            processes: cluster.all_processes(),
            cluster,
            pool,
            coordinator,
            partition_seq: 0,
            next_coordinator: 0,
            burst_seq: 0,
        }
    }

    /// The wrapped cluster (read access for tests and debugging).
    pub fn cluster(&self) -> &dyn TcsCluster {
        self.cluster.as_ref()
    }

    /// The stack under test.
    pub fn stack(&self) -> StackKind {
        self.cluster.stack()
    }

    /// Submits a fresh transaction (recorded in the client history) through
    /// the fixed coordinator if configured, else round-robin over live
    /// coordinators. With everything crashed, the submission goes to a
    /// crashed process: the message is dropped (the cluster is down), the
    /// transaction stays in the history undecided, and recovery re-drives
    /// it.
    pub fn submit(&mut self, tx: TxId, payload: Payload) {
        self.payloads.insert(tx, payload.clone());
        let target = self.coordinator.unwrap_or_else(|| {
            let live: Vec<ProcessId> = self
                .pool
                .iter()
                .copied()
                .filter(|p| !self.cluster.is_crashed(*p))
                .collect();
            let pool = if live.is_empty() { &self.pool } else { &live };
            let target = pool[self.next_coordinator % pool.len()];
            self.next_coordinator += 1;
            target
        });
        self.cluster.submit_via(tx, payload, target);
    }

    /// Re-drives an already-submitted transaction without re-recording it.
    pub fn resubmit(&mut self, tx: TxId) {
        if let Some(payload) = self.payloads.get(&tx).cloned() {
            self.cluster.resubmit(tx, payload);
        }
    }

    fn member(&self, shard: ShardId, index: usize) -> ProcessId {
        let roster = &self.roster[&shard];
        roster[index % roster.len()]
    }

    fn reconfigure(&mut self, shard: ShardId) {
        let stack = self.cluster.stack();
        if !stack.supports_reconfiguration() {
            return;
        }
        let Some(initiator) = self.cluster.shard_view(shard).ready.first().copied() else {
            return;
        };
        // A global reconfiguration must exclude crashed members of *every*
        // shard (the probe touches the whole system); per-shard modes only
        // exclude within the suspected shard.
        let exclude_shards: Vec<ShardId> = if stack.reconfiguration_is_global() {
            self.cluster.shards()
        } else {
            vec![shard]
        };
        let exclude: Vec<ProcessId> = exclude_shards
            .into_iter()
            .flat_map(|s| self.cluster.shard_view(s).members)
            .filter(|p| self.cluster.is_crashed(*p))
            .collect();
        self.cluster
            .start_reconfiguration(shard, initiator, exclude);
    }

    /// Shard of `pid` in the initial roster/spare layout, if any.
    fn shard_of(&self, pid: ProcessId) -> Option<ShardId> {
        self.roster.keys().copied().find(|shard| {
            let view = self.cluster.shard_view(*shard);
            view.roster.contains(&pid) || view.spares.contains(&pid)
        })
    }

    /// Records the fault event in the cluster's control-plane stream, so one
    /// time-ordered forensic log merges injected faults with the protocol
    /// milestones they trigger. Degrading injections stamp
    /// [`CtrlMilestone::FaultInjected`]; healing events stamp
    /// [`CtrlMilestone::FaultHealed`]. Recovery-driving events
    /// (`Reconfigure`, `GlobalReconfigure`, `RetryPrepared`) are not stamped
    /// here — the protocol itself stamps `ReconfigInitiated` /
    /// `CoordinatorHandoff` into the same stream when they land. A no-op
    /// unless observability is enabled; never perturbs the schedule.
    fn stamp_fault(&mut self, event: &FaultEvent) {
        let stamp = match event {
            FaultEvent::CrashLeader { shard }
            | FaultEvent::CrashFollower { shard, .. }
            | FaultEvent::IsolateInbound { shard, .. }
            | FaultEvent::DelayRdmaOutbound { shard, .. }
            | FaultEvent::PartitionLeader { shard } => {
                Some((CtrlMilestone::FaultInjected, Some(*shard)))
            }
            FaultEvent::CrashCoordinator => {
                let target = self.coordinator.unwrap_or(self.pool[0]);
                Some((CtrlMilestone::FaultInjected, self.shard_of(target)))
            }
            FaultEvent::OverloadBurst { .. } => Some((CtrlMilestone::FaultInjected, None)),
            FaultEvent::HealFaults | FaultEvent::RestartCrashed => {
                Some((CtrlMilestone::FaultHealed, None))
            }
            FaultEvent::Reconfigure { .. }
            | FaultEvent::GlobalReconfigure
            | FaultEvent::RetryPrepared { .. } => None,
        };
        if let Some((milestone, shard)) = stamp {
            let by = self.cluster.client_id();
            let note = event.to_string();
            self.cluster.record_ctrl(by, milestone, shard, &note);
        }
    }

    /// Applies one fault event, resolving role targets against the cluster.
    pub fn apply(&mut self, event: &FaultEvent) {
        self.stamp_fault(event);
        match event {
            FaultEvent::CrashLeader { shard } => {
                if let Some(leader) = self.cluster.shard_view(*shard).leader {
                    self.cluster.crash(leader);
                }
            }
            FaultEvent::CrashFollower { shard, index } => {
                let view = self.cluster.shard_view(*shard);
                let followers: Vec<ProcessId> = view
                    .members
                    .into_iter()
                    .filter(|p| Some(*p) != view.leader)
                    .collect();
                if !followers.is_empty() {
                    self.cluster.crash(followers[index % followers.len()]);
                }
            }
            FaultEvent::CrashCoordinator => {
                let target = self.coordinator.unwrap_or(self.pool[0]);
                self.cluster.crash(target);
            }
            FaultEvent::RestartCrashed => {
                for pid in self.processes.clone() {
                    if self.cluster.is_crashed(pid) {
                        self.cluster.restart(pid);
                    }
                }
            }
            FaultEvent::IsolateInbound { shard, index } => {
                let victim = self.member(*shard, *index);
                let sources: Vec<ProcessId> = self
                    .processes
                    .iter()
                    .copied()
                    .chain(self.cluster.config_service_id())
                    .collect();
                for from in sources {
                    if from != victim {
                        self.cluster.set_link_fault(
                            from,
                            victim,
                            LinkFault::cut(FaultScope::MessagesOnly),
                        );
                    }
                }
            }
            FaultEvent::DelayRdmaOutbound {
                shard,
                index,
                delay_micros,
            } => {
                // Scoped to the RDMA fabric: on stacks without one the fault
                // is installed but never fires (and consumes no randomness).
                let victim = self.member(*shard, *index);
                for to in self.processes.clone() {
                    if to != victim {
                        self.cluster.set_link_fault(
                            victim,
                            to,
                            LinkFault::delay_all(*delay_micros, FaultScope::RdmaOnly),
                        );
                    }
                }
            }
            FaultEvent::PartitionLeader { shard } => {
                let Some(leader) = self.cluster.shard_view(*shard).leader else {
                    return;
                };
                let others: Vec<ProcessId> = self
                    .processes
                    .iter()
                    .copied()
                    .filter(|p| *p != leader)
                    .collect();
                self.partition_seq += 1;
                let name = format!("part-{}", self.partition_seq);
                self.cluster
                    .install_partition(&name, vec![vec![leader], others]);
            }
            FaultEvent::HealFaults => self.cluster.heal_all_faults(),
            FaultEvent::Reconfigure { shard } => self.reconfigure(*shard),
            FaultEvent::GlobalReconfigure => {
                if self.cluster.stack().reconfiguration_is_global() {
                    // One probe reconfigures the whole system.
                    let shard = *self.roster.keys().next().expect("shards");
                    self.reconfigure(shard);
                } else {
                    for shard in self.cluster.shards() {
                        self.reconfigure(shard);
                    }
                }
            }
            FaultEvent::RetryPrepared { shard } => {
                let view = self.cluster.shard_view(*shard);
                let Some(leader) = view.leader else {
                    return;
                };
                if self.cluster.is_crashed(leader) {
                    return;
                }
                for tx in view.prepared.into_iter().take(RETRY_CAP) {
                    self.cluster.retry(leader, tx);
                }
            }
            FaultEvent::OverloadBurst { depth } => {
                for _ in 0..*depth {
                    self.burst_seq += 1;
                    let seq = self.burst_seq;
                    let tx = TxId::new(1_000_000 + seq);
                    let payload = Payload::builder()
                        .read(Key::new(format!("burst-{seq}")), Version::ZERO)
                        .write(Key::new(format!("burst-{seq}")), Value::from("b"))
                        .commit_version(Version::new(1))
                        .build()
                        .expect("well-formed");
                    self.submit(tx, payload);
                }
            }
        }
    }

    /// Installs (or clears) fabric-wide background noise.
    pub fn set_noise(&mut self, noise: Option<LinkNoise>) {
        self.cluster
            .set_default_link_fault(noise.as_ref().map(noise_fault));
    }

    /// Advances simulated time by `d`.
    pub fn run_for(&mut self, d: SimDuration) {
        self.cluster.run_for(d);
    }

    /// Runs until no events remain.
    pub fn run_to_quiescence(&mut self) {
        self.cluster.run_to_quiescence();
    }

    /// Current simulated time in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.cluster.now().as_micros()
    }

    /// Events executed so far (a determinism fingerprint).
    pub fn steps(&self) -> u64 {
        self.cluster.steps()
    }

    /// Heals every per-link fault, cut and partition and restarts every
    /// crashed process. The background noise stays: lift it with
    /// [`ChaosHarness::set_noise`]`(None)`, as [`run_soak`](crate::run_soak)
    /// does before it heals.
    pub fn heal(&mut self) {
        self.cluster.heal_all_faults();
        self.apply(&FaultEvent::RestartCrashed);
    }

    /// Stamps a harness-level [`CtrlMilestone::Recovered`] marker: the
    /// recovery loop observed every shard operational with nothing left
    /// undecided. Closes the crash → heal → recovered span in the merged
    /// forensic log on every stack (the protocols themselves mark recovery
    /// with stack-specific milestones like `ShardOperational`).
    pub fn stamp_recovered(&mut self) {
        let by = self.cluster.client_id();
        self.cluster
            .record_ctrl(by, CtrlMilestone::Recovered, None, "soak-recovered");
    }

    /// Post-heal repair: re-drives reconfigurations until every shard is
    /// operational again. Returns `true` once the cluster looks operational.
    pub fn stabilize(&mut self) -> bool {
        if !self.cluster.stack().supports_reconfiguration() {
            return true;
        }
        let mut all_ok = true;
        for shard in self.cluster.shards() {
            if !self.cluster.shard_view(shard).operational {
                all_ok = false;
                self.reconfigure(shard);
            }
        }
        all_ok
    }

    /// The client-observed history.
    pub fn history(&self) -> TcsHistory {
        self.cluster.history()
    }

    /// Structural violations the client observed (contradictory decisions).
    pub fn client_violations(&self) -> Vec<String> {
        self.cluster.client_violations()
    }

    /// Per-transaction timeline forensics for `txs`: one rendered lifecycle
    /// timeline per transaction that has observability events (see
    /// [`TcsCluster::timelines`]). Soak drivers attach these to failing
    /// reports so a safety or liveness violation arrives with the full
    /// commit-path story of the transactions involved.
    pub fn timeline_forensics(&self, txs: &[TxId]) -> Vec<String> {
        let timelines = self.cluster.timelines();
        txs.iter()
            .map(|tx| match timelines.get(tx) {
                Some(timeline) => format!("tx {}: {timeline}", tx.as_u64()),
                None => format!("tx {}: no lifecycle events recorded", tx.as_u64()),
            })
            .collect()
    }

    /// The cluster's control-plane event stream (injected faults merged with
    /// protocol reconfiguration/recovery milestones, in time order).
    pub fn ctrl_events(&self) -> Vec<CtrlEvent> {
        self.cluster.ctrl_events()
    }

    /// Per-shard availability windows (see
    /// [`TcsCluster::blackouts`]).
    pub fn blackouts(&self) -> Vec<Blackout> {
        self.cluster.blackouts()
    }

    /// Control-plane forensics: the tail of the merged fault + protocol
    /// event log, one rendered line per event (at most the last `limit`),
    /// followed by one line per availability window. Soak drivers attach
    /// this to failing reports so a violation arrives with the control-plane
    /// story — which faults landed, what the protocol did about them, and
    /// how long each shard was dark.
    pub fn ctrl_forensics(&self, limit: usize) -> Vec<String> {
        let events = self.ctrl_events();
        let skipped = events.len().saturating_sub(limit);
        let mut lines = Vec::new();
        if skipped > 0 {
            lines.push(format!("ctrl: … {skipped} earlier events elided"));
        }
        lines.extend(events.iter().skip(skipped).map(|e| format!("ctrl: {e}")));
        lines.extend(self.blackouts().iter().map(|b| format!("blackout: {b}")));
        lines
    }
}

/// Builds the chaos harness for `stack`: checkpointed truncation with fold
/// batch 8 (so soaks exercise the truncation/fault interplay), default
/// batching, and an optional fixed submission coordinator.
pub fn build_harness(
    stack: StackKind,
    shards: u32,
    seed: u64,
    coordinator: Option<(ShardId, usize)>,
) -> ChaosHarness {
    let spec = ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .with_truncation(TruncationConfig::with_batch(8))
        // Observability is on for every soak: recording never perturbs the
        // seeded schedule, and a failing run dumps the violating/undecided
        // transactions' timelines as forensics.
        .with_observability();
    ChaosHarness::new(&spec, coordinator)
}
