//! Experiment drivers: one function per experiment of EXPERIMENTS.md.
//!
//! Every experiment is **generic over the stack**: it takes a
//! [`StackKind`], deploys it through the unified [`ClusterSpec`] builder and
//! drives it through the [`TcsCluster`] facade, so E1–E8 run on the
//! message-passing protocol, the RDMA protocol and the 2PC-over-Paxos
//! baseline from one code path. The few real per-protocol differences
//! (the baseline's Paxos phase-1 warm-up in E1, reconfiguration vs failure
//! masking in E6) are explicit branches on capability probes or the stack
//! selector — not separate implementations.

use std::fmt;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_core::flow::FlowControlConfig;
use ratc_core::invariants;
use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_sim::{ExecutionMode, LatencyUnit, Phase, SimDuration};
use ratc_spec::check_history;
use ratc_types::{Key, Payload, Serializability, ShardId, ShardMap, TxId, Value, Version};

use crate::generator::{KeyDistribution, WorkloadSpec};

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    values[values.len() / 2]
}

fn build(stack: StackKind, shards: u32, seed: u64) -> Box<dyn TcsCluster> {
    ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .build()
}

// ---------------------------------------------------------------------------
// E1: decision latency in message delays
// ---------------------------------------------------------------------------

/// Result of the latency experiment (E1).
#[derive(Debug, Clone)]
pub struct LatencyResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Number of shards in the deployment.
    pub shards: u32,
    /// Transactions measured.
    pub transactions: usize,
    /// Median client-visible decision latency in message delays.
    pub median_hops: f64,
    /// Median decision latency at the coordinator (the co-located-client
    /// number the paper quotes as 4). Both RATC stacks report it (their shared
    /// coordinator samples it); the baseline has no co-located coordinator
    /// and reports 0.
    pub median_coordinator_hops: f64,
    /// Mean client-visible decision latency in simulated microseconds.
    ///
    /// E1 always runs on the deterministic Sim backend, where
    /// `DecisionLatency::micros` is virtual time; for real wall-clock
    /// latencies use the E9 drivers, which run under
    /// [`ExecutionMode::Threads`](ratc_sim::ExecutionMode).
    pub mean_micros: f64,
}

impl fmt::Display for LatencyResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} shards={:<2} txns={:<4} median_delays={:<4} colocated={:<4} mean_us={:.0}",
            self.stack.to_string(),
            self.shards,
            self.transactions,
            self.median_hops,
            self.median_coordinator_hops,
            self.mean_micros
        )
    }
}

/// E1: measures client-visible decision latency in message delays for the
/// given stack on a disjoint (conflict-free) workload.
pub fn latency_experiment(
    stack: StackKind,
    shards: u32,
    tx_count: usize,
    seed: u64,
) -> LatencyResult {
    let payload = |i: usize| {
        Payload::builder()
            .read(Key::new(format!("k{i}")), Version::ZERO)
            .write(Key::new(format!("k{i}")), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    };
    let mut cluster = build(stack, shards, seed);
    if stack == StackKind::Baseline {
        // Warm-up: one transaction per shard pays that shard's Paxos phase 1
        // (and the transaction manager's) exactly once, so the measured
        // transactions see the steady-state 7-delay critical path.
        let mut warmups = 0u64;
        for shard_idx in 0..shards {
            let shard = ShardId::new(shard_idx);
            let key = (0..100_000)
                .map(|i| Key::new(format!("warm-{i}")))
                .find(|k| cluster.sharding().shard_of(k) == shard)
                .expect("hash sharding covers every shard");
            warmups += 1;
            let warm_payload = Payload::builder()
                .read(key.clone(), Version::ZERO)
                .write(key, Value::from("w"))
                .commit_version(Version::new(1))
                .build()
                .expect("well-formed");
            cluster.submit(TxId::new(u64::MAX - warmups), warm_payload);
            cluster.run_to_quiescence();
        }
    }
    for i in 0..tx_count {
        cluster.submit(TxId::new(i as u64 + 1), payload(i));
    }
    cluster.run_to_quiescence();
    let latencies = cluster.latencies();
    let measured: Vec<_> = latencies
        .iter()
        .filter(|(tx, _)| tx.as_u64() <= tx_count as u64)
        .collect();
    let hops: Vec<f64> = measured.iter().map(|(_, l)| f64::from(l.hops)).collect();
    let micros: Vec<f64> = measured.iter().map(|(_, l)| l.micros as f64).collect();
    LatencyResult {
        stack,
        shards,
        transactions: measured.len(),
        median_hops: median(hops),
        median_coordinator_hops: cluster
            .metrics()
            .summary("coordinator_decision_hops")
            .map_or(0.0, |s| s.mean()),
        mean_micros: micros.iter().sum::<f64>() / micros.len().max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// E2: leader load
// ---------------------------------------------------------------------------

/// Result of the leader-load experiment (E2).
#[derive(Debug, Clone)]
pub struct LeaderLoadResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Committed transactions.
    pub committed: usize,
    /// Mean messages handled (sent + received) per shard leader per decided
    /// transaction.
    pub leader_msgs_per_txn: f64,
    /// Mean messages handled per non-leader replica per decided transaction.
    pub follower_msgs_per_txn: f64,
}

impl fmt::Display for LeaderLoadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} committed={:<5} leader_msgs/txn={:<6.2} follower_msgs/txn={:<6.2}",
            self.stack.to_string(),
            self.committed,
            self.leader_msgs_per_txn,
            self.follower_msgs_per_txn
        )
    }
}

/// E2: messages handled by shard leaders vs followers per transaction.
pub fn leader_load_experiment(
    stack: StackKind,
    shards: u32,
    tx_count: usize,
    seed: u64,
) -> LeaderLoadResult {
    let spec = WorkloadSpec {
        key_count: 10_000,
        keys_per_tx: 2,
        write_fraction: 0.5,
        tx_count,
        distribution: KeyDistribution::Uniform,
    };
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let txs = spec.generate(&mut rng);
    let mut cluster = build(stack, shards, seed);
    for (tx, payload) in txs {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    let decided = cluster.history().decide_count().max(1);
    let mut leader_total = 0.0;
    let mut leader_count = 0usize;
    let mut follower_total = 0.0;
    let mut follower_count = 0usize;
    for shard in cluster.shards() {
        let view = cluster.shard_view(shard);
        for pid in view.members {
            let handled = cluster.process_handled(pid) as f64;
            if Some(pid) == view.leader {
                leader_total += handled;
                leader_count += 1;
            } else {
                follower_total += handled;
                follower_count += 1;
            }
        }
    }
    LeaderLoadResult {
        stack,
        committed: cluster.history().committed().count(),
        leader_msgs_per_txn: leader_total / leader_count.max(1) as f64 / decided as f64,
        follower_msgs_per_txn: follower_total / follower_count.max(1) as f64 / decided as f64,
    }
}

// ---------------------------------------------------------------------------
// E3: replication cost
// ---------------------------------------------------------------------------

/// Result of the replication-cost experiment (E3).
#[derive(Debug, Clone)]
pub struct ReplicationCostResult {
    /// Failures tolerated per shard.
    pub f: usize,
    /// Replicas per shard in RATC (`f + 1`).
    pub ratc_replicas: usize,
    /// Replicas per shard in the baseline (`2f + 1`).
    pub baseline_replicas: usize,
    /// Total processes in a 4-shard RATC deployment (excluding CS and client).
    pub ratc_total_processes: usize,
    /// Total processes in a 4-shard baseline deployment (including the TM
    /// group).
    pub baseline_total_processes: usize,
}

impl fmt::Display for ReplicationCostResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "f={:<2} ratc_replicas/shard={:<3} baseline_replicas/shard={:<3} ratc_total={:<4} baseline_total={:<4}",
            self.f,
            self.ratc_replicas,
            self.baseline_replicas,
            self.ratc_total_processes,
            self.baseline_total_processes
        )
    }
}

/// E3: replicas needed per shard (and for a fixed 4-shard deployment) as a
/// function of the number of tolerated failures, straight off the
/// [`ClusterSpec`] replica arithmetic.
pub fn replication_cost_experiment(f: usize) -> ReplicationCostResult {
    const SHARDS: usize = 4;
    let ratc = ClusterSpec::new(StackKind::Core).with_failures(f);
    let baseline = ClusterSpec::new(StackKind::Baseline).with_failures(f);
    let ratc_replicas = ratc.replicas_per_shard();
    let baseline_replicas = baseline.replicas_per_shard();
    ReplicationCostResult {
        f,
        ratc_replicas,
        baseline_replicas,
        ratc_total_processes: SHARDS * ratc_replicas,
        baseline_total_processes: SHARDS * baseline_replicas + baseline_replicas,
    }
}

// ---------------------------------------------------------------------------
// E4: scaling with shards per transaction and offered load
// ---------------------------------------------------------------------------

/// Result of the scaling experiment (E4).
#[derive(Debug, Clone)]
pub struct ScalingResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Number of shards in the deployment.
    pub shards: u32,
    /// Keys (and therefore roughly shards) touched per transaction.
    pub keys_per_tx: usize,
    /// Committed transactions.
    pub committed: usize,
    /// Total simulated time, in milliseconds.
    pub sim_millis: f64,
    /// Committed transactions per simulated millisecond.
    pub throughput_per_ms: f64,
    /// Mean client-visible latency in simulated microseconds.
    ///
    /// E4 always runs on the deterministic Sim backend; its throughput is
    /// virtual-time, not wall-clock (that is E9's
    /// [`wallclock_scaling_experiment`]).
    pub mean_latency_micros: f64,
}

impl fmt::Display for ScalingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} shards={:<3} keys/txn={:<2} committed={:<5} sim_ms={:<8.2} throughput/ms={:<7.2} mean_us={:.0}",
            self.stack.to_string(),
            self.shards,
            self.keys_per_tx,
            self.committed,
            self.sim_millis,
            self.throughput_per_ms,
            self.mean_latency_micros
        )
    }
}

/// E4: throughput and latency of the given stack as the number of shards
/// touched per transaction grows.
pub fn scaling_experiment(
    stack: StackKind,
    shards: u32,
    keys_per_tx: usize,
    tx_count: usize,
    seed: u64,
) -> ScalingResult {
    let spec = WorkloadSpec {
        key_count: 50_000,
        keys_per_tx,
        write_fraction: 0.5,
        tx_count,
        distribution: KeyDistribution::Uniform,
    };
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let txs = spec.generate(&mut rng);
    let mut cluster = build(stack, shards, seed);
    for (tx, payload) in txs {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    let committed = cluster.history().committed().count();
    let sim_millis = cluster.now().as_millis_f64().max(0.001);
    let latencies = cluster.latencies();
    let mean_latency_micros =
        latencies.values().map(|l| l.micros as f64).sum::<f64>() / latencies.len().max(1) as f64;
    ScalingResult {
        stack,
        shards,
        keys_per_tx,
        committed,
        sim_millis,
        throughput_per_ms: committed as f64 / sim_millis,
        mean_latency_micros,
    }
}

// ---------------------------------------------------------------------------
// E7: bounded-memory long histories via checkpointed truncation
// ---------------------------------------------------------------------------

/// Result of the log-truncation experiment (E7).
#[derive(Debug, Clone)]
pub struct TruncationResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Transactions submitted.
    pub tx_count: usize,
    /// Transactions decided.
    pub decided: usize,
    /// Whether checkpointed truncation was enabled (the baseline prunes
    /// decided payloads unconditionally instead).
    pub truncation_enabled: bool,
    /// Maximum retained (physical) log slots over all shard members at the
    /// end of the run.
    pub max_retained_slots: usize,
    /// Maximum logical log length over all shard members — what the retained
    /// count would be without truncation/pruning.
    pub max_log_next: u64,
    /// Total slots folded into checkpoints across the cluster (RATC stacks).
    pub slots_truncated: u64,
}

impl fmt::Display for TruncationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} truncation={:<5} txs={:<6} decided={:<6} retained_slots={:<6} logical_len={:<6} folded={}",
            self.stack.to_string(),
            self.truncation_enabled,
            self.tx_count,
            self.decided,
            self.max_retained_slots,
            self.max_log_next,
            self.slots_truncated
        )
    }
}

/// E7: drives a long paced history through the given stack and reports how
/// much certification-log memory the shard members actually retain. With
/// truncation enabled the retained slot count is bounded by the undecided
/// window plus the fold batch, regardless of `tx_count`; disabled, it equals
/// the whole history — which is what made 100k+-transaction E2/E4 runs
/// memory-bound before checkpointing. The baseline reports its unconditional
/// decided-payload pruning through the same probe.
pub fn truncation_experiment(
    stack: StackKind,
    shards: u32,
    tx_count: usize,
    truncation: Option<u64>,
    seed: u64,
) -> TruncationResult {
    use ratc_core::replica::TruncationConfig;
    let spec = WorkloadSpec {
        key_count: 10_000,
        keys_per_tx: 2,
        write_fraction: 0.5,
        tx_count,
        distribution: KeyDistribution::Uniform,
    };
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let txs = spec.generate(&mut rng);
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .with_truncation(match truncation {
            Some(batch) => TruncationConfig::with_batch(batch),
            None => TruncationConfig::disabled(),
        })
        .build();
    // Pace submissions in small waves so decisions (and the gossiped decided
    // frontiers) interleave with new transactions, as in a live system.
    for wave in txs.chunks(8) {
        for (tx, payload) in wave {
            cluster.submit(*tx, payload.clone());
        }
        cluster.run_to_quiescence();
    }
    let mut max_retained_slots = 0usize;
    let mut max_log_next = 0u64;
    for shard in cluster.shards() {
        for pid in cluster.shard_view(shard).members {
            if let Some(retained) = cluster.retained_log_slots(pid) {
                max_retained_slots = max_retained_slots.max(retained);
            }
            if let Some(next) = cluster.logical_log_len(pid) {
                max_log_next = max_log_next.max(next);
            }
        }
    }
    TruncationResult {
        stack,
        tx_count,
        decided: cluster.history().decide_count(),
        truncation_enabled: truncation.is_some(),
        max_retained_slots,
        max_log_next,
        slots_truncated: cluster.metrics().counter("log_slots_truncated"),
    }
}

// ---------------------------------------------------------------------------
// E5: abort rate vs contention
// ---------------------------------------------------------------------------

/// Result of the abort-rate experiment (E5).
#[derive(Debug, Clone)]
pub struct AbortRateResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Key distribution used.
    pub distribution: KeyDistribution,
    /// Committed transactions.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// Abort rate (aborted / decided).
    pub abort_rate: f64,
}

impl fmt::Display for AbortRateResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<24} committed={:<5} aborted={:<5} abort_rate={:.3}",
            self.stack.to_string(),
            format!("{:?}", self.distribution),
            self.committed,
            self.aborted,
            self.abort_rate
        )
    }
}

/// E5: abort rate under contention for the given stack.
pub fn abort_rate_experiment(
    stack: StackKind,
    distribution: KeyDistribution,
    tx_count: usize,
    seed: u64,
) -> AbortRateResult {
    let spec = WorkloadSpec {
        key_count: 200,
        keys_per_tx: 2,
        write_fraction: 1.0,
        tx_count,
        distribution,
    };
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let txs = spec.generate(&mut rng);
    let mut cluster = build(stack, 4, seed);
    for (tx, payload) in txs {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    let history = cluster.history();
    let (committed, aborted) = (history.committed().count(), history.aborted().count());
    let decided = (committed + aborted).max(1);
    AbortRateResult {
        stack,
        distribution,
        committed,
        aborted,
        abort_rate: aborted as f64 / decided as f64,
    }
}

// ---------------------------------------------------------------------------
// E6: reconfiguration / availability
// ---------------------------------------------------------------------------

/// Result of the reconfiguration experiment (E6).
#[derive(Debug, Clone)]
pub struct ReconfigurationResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Whether a replica failure required a reconfiguration (RATC) or was
    /// masked by the quorum (baseline).
    pub reconfiguration_required: bool,
    /// Transactions committed after the crash point.
    pub committed_after_crash: usize,
    /// Simulated microseconds between the crash and the first commit decided
    /// after it on the affected shard.
    pub recovery_micros: u64,
}

impl fmt::Display for ReconfigurationResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} reconfig_required={:<5} committed_after_crash={:<4} recovery_us={}",
            self.stack.to_string(),
            self.reconfiguration_required,
            self.committed_after_crash,
            self.recovery_micros
        )
    }
}

/// E6: availability after a single replica crash. The RATC stacks (`f + 1`)
/// must reconfigure before the affected shard certifies again; the baseline
/// (`2f + 1`) masks the failure — the capability
/// [`StackKind::supports_reconfiguration`] decides which recovery the
/// experiment exercises.
pub fn reconfiguration_experiment(stack: StackKind, seed: u64) -> ReconfigurationResult {
    // A payload pinned to one specific key so every transaction involves the
    // crashed replica's shard.
    let payload = |i: u64| {
        Payload::builder()
            .read(Key::new(format!("pinned-{i}")), Version::ZERO)
            .write(Key::new(format!("pinned-{i}")), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed")
    };
    let mut cluster = build(stack, 1, seed);
    let shard = ShardId::new(0);
    let reconfigures = cluster.stack().supports_reconfiguration();
    // Commit a few transactions, then crash a non-leader replica.
    for i in 0..5u64 {
        cluster.submit(TxId::new(i + 1), payload(i));
    }
    cluster.run_to_quiescence();
    let view = cluster.shard_view(shard);
    let leader = view.leader.expect("leader");
    let follower = view
        .members
        .into_iter()
        .find(|p| *p != leader)
        .expect("follower");
    cluster.crash(follower);
    // Submit transactions during the outage.
    for i in 5..15u64 {
        cluster.submit(TxId::new(i + 1), payload(i));
        cluster.run_for(SimDuration::from_millis(1));
    }
    if reconfigures {
        // Failure detection + reconfiguration; the baseline needs neither.
        cluster.start_reconfiguration(shard, leader, vec![follower]);
    }
    cluster.run_to_quiescence();
    // Submit more after recovery.
    for i in 15..20u64 {
        cluster.submit(TxId::new(i + 1), payload(i));
    }
    cluster.run_to_quiescence();
    let latencies = cluster.latencies();
    let committed_after = latencies
        .iter()
        .filter(|(tx, l)| tx.as_u64() > 5 && l.decision.is_commit())
        .count();
    // Recovery time: the earliest decision among transactions submitted
    // after the crash, measured from the crash (1 ms submission pacing).
    let recovery_micros = latencies
        .iter()
        .filter(|(tx, _)| tx.as_u64() > 5)
        .map(|(tx, l)| (tx.as_u64() - 6) * 1_000 + l.micros)
        .min()
        .unwrap_or(0);
    ReconfigurationResult {
        stack,
        reconfiguration_required: reconfigures,
        committed_after_crash: committed_after,
        recovery_micros,
    }
}

// ---------------------------------------------------------------------------
// E8: batched certification pipeline
// ---------------------------------------------------------------------------

/// Result of the batching experiment (E8) for one batch size.
#[derive(Debug, Clone)]
pub struct BatchingResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Batch size measured (1 = batching disabled, the paper's exchange).
    pub batch_size: usize,
    /// Transactions submitted.
    pub tx_count: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Messages handled (sent + received) by the measured shard leader per
    /// decided transaction — the E2 metric the batching pipeline amortises.
    pub leader_msgs_per_txn: f64,
    /// Committed transactions per simulation event step — a proxy for how
    /// much total cluster work one commit costs.
    pub commits_per_step: f64,
    /// `PREPARE_BATCH` messages actually sent (RATC stacks; the baseline
    /// batches inside its Paxos log appends instead).
    pub prepare_batches: u64,
}

impl fmt::Display for BatchingResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} batch={:<3} txns={:<5} committed={:<5} leader_msgs/txn={:<7.3} commits/step={:<7.4} batches={}",
            self.stack.to_string(),
            self.batch_size,
            self.tx_count,
            self.committed,
            self.leader_msgs_per_txn,
            self.commits_per_step,
            self.prepare_batches
        )
    }
}

/// E8: leader message load and per-commit work of the given stack as the
/// batch size grows.
///
/// The deployment pins every transaction to shard 0 and, on the RATC stacks,
/// coordinates through a shard-1 member, so the measured shard-0 leader
/// handles only leader-role traffic: without batching that is one `PREPARE`
/// in, one `PREPARE_ACK` out and one `DECISION` in per transaction; with
/// batch size `B` the same three messages serve `B` transactions. The
/// baseline submits through its transaction manager (the only coordinator it
/// has) and amortises by packing a vote batch into one Multi-Paxos slot.
pub fn batching_experiment(
    stack: StackKind,
    tx_count: usize,
    batch_size: usize,
    seed: u64,
) -> BatchingResult {
    let batching = ratc_core::batch::BatchingConfig::with_batch(batch_size);
    let batch_size = batching.max_batch;
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(seed)
        .with_batching(batching)
        .build();
    let measured_shard = ShardId::new(0);
    // Coordinate from a shard-1 *follower*: not a member of the measured
    // shard, and not shard 1's leader either. Stacks with a dedicated
    // coordinator group (the baseline TM) coordinate there instead.
    let coordinator = if cluster.stack().replicas_coordinate() {
        cluster.shard_view(ShardId::new(1)).roster[1]
    } else {
        cluster.coordinator_pool()[0]
    };
    let keys: Vec<Key> = (0..)
        .map(|i: u64| Key::new(format!("k{i}")))
        .filter(|k| cluster.sharding().shard_of(k) == measured_shard)
        .take(tx_count)
        .collect();
    for (i, key) in keys.iter().enumerate() {
        let payload = Payload::builder()
            .read(key.clone(), Version::ZERO)
            .write(key.clone(), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .expect("well-formed");
        cluster.submit_via(TxId::new(i as u64 + 1), payload, coordinator);
    }
    cluster.run_to_quiescence();
    let decided = cluster.history().decide_count().max(1);
    let leader = cluster.shard_view(measured_shard).leader.expect("leader");
    let handled = cluster.process_handled(leader) as f64;
    let committed = cluster.history().committed().count();
    BatchingResult {
        stack,
        batch_size: batch_size.max(1),
        tx_count,
        committed,
        leader_msgs_per_txn: handled / decided as f64,
        commits_per_step: committed as f64 / cluster.steps().max(1) as f64,
        prepare_batches: cluster.metrics().counter("prepare_batches_sent"),
    }
}

// ---------------------------------------------------------------------------
// E9: wall-clock throughput on the threaded backend
// ---------------------------------------------------------------------------

/// Result of one wall-clock throughput run (E9) on the threaded execution
/// backend ([`ExecutionMode::Threads`](ratc_sim::ExecutionMode)). Unlike every other experiment in
/// this module, these numbers come from real OS threads on a real clock:
/// they vary run to run and with the host, and the seed only fixes the
/// deployment layout, not the schedule.
#[derive(Debug, Clone)]
pub struct WallclockResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Number of shards in the deployment.
    pub shards: u32,
    /// Batch size of the certification pipeline (1 = batching disabled).
    pub batch: usize,
    /// Whether the run was closed-loop (waves of bounded outstanding
    /// transactions per shard) or open-loop (everything submitted up front).
    pub closed_loop: bool,
    /// Transactions submitted.
    pub transactions: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions aborted (0 on these conflict-free workloads unless the
    /// protocol aborts for non-certification reasons).
    pub aborted: usize,
    /// Transactions still undecided when the run was cut off — nonzero only
    /// when an open-loop run hits the threaded backend's hard quiescence
    /// timeout before draining, in which case `committed_per_sec` measures
    /// the truncated window, honestly including the collapse.
    pub undecided: usize,
    /// Wall-clock seconds of the measured window.
    pub wall_secs: f64,
    /// Committed transactions per wall-clock second.
    pub committed_per_sec: f64,
    /// Mean client-visible decision latency in wall-clock microseconds.
    pub mean_latency_micros: f64,
    /// Estimated 99th-percentile client-visible decision latency, from the
    /// streaming histogram (relative error ≤ ~9%).
    pub p99_latency_micros: f64,
    /// Unit of every latency in this result: wall-clock microseconds — E9
    /// always runs on the threaded backend.
    pub latency_unit: LatencyUnit,
}

impl fmt::Display for WallclockResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} shards={:<2} batch={:<3} {:<6} txns={:<6} committed={:<6} aborted={:<5} undecided={:<5} wall_s={:<7.3} tx/s={:<9.0} mean_us={:<7.0} p99_us={:.0} ({})",
            self.stack.to_string(),
            self.shards,
            self.batch,
            if self.closed_loop { "closed" } else { "open" },
            self.transactions,
            self.committed,
            self.aborted,
            self.undecided,
            self.wall_secs,
            self.committed_per_sec,
            self.mean_latency_micros,
            self.p99_latency_micros,
            self.latency_unit
        )
    }
}

/// Deploys `stack` on the threaded backend with the given batching knob.
fn wallclock_cluster(
    stack: StackKind,
    shards: u32,
    batch: usize,
    seed: u64,
) -> Box<dyn TcsCluster> {
    use ratc_core::batch::BatchingConfig;
    let mut spec = ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .with_execution(ratc_sim::ExecutionMode::Threads);
    if batch > 1 {
        spec = spec.with_batching(BatchingConfig::with_batch(batch));
    }
    spec.build()
}

/// A single-key read–write transaction on its own key: conflict-free, so
/// every submission must commit and throughput is not abort-limited.
fn disjoint_payload(i: u64) -> Payload {
    Payload::builder()
        .read(Key::new(format!("k{i}")), Version::ZERO)
        .write(Key::new(format!("k{i}")), Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

/// E9 (open loop): submits `tx_count` disjoint transactions up front on the
/// threaded backend and measures committed transactions per wall-clock
/// second over the decision window — run start to the last decision, which
/// excludes the trailing quiescence drain. This is the *capacity* number:
/// with work always queued the host's cores are saturated, so on a
/// single-core host it is CPU-bound and roughly flat in the shard count,
/// while on a multi-core host it parallelises across shards.
pub fn wallclock_experiment(
    stack: StackKind,
    shards: u32,
    batch: usize,
    tx_count: usize,
    seed: u64,
) -> WallclockResult {
    let mut cluster = wallclock_cluster(stack, shards, batch, seed);
    for i in 0..tx_count {
        cluster.submit(TxId::new(i as u64 + 1), disjoint_payload(i as u64 + 1));
    }
    cluster.run_to_quiescence();
    let latencies = cluster.latencies();
    let history = cluster.history();
    let committed = history.committed().count();
    let aborted = history.aborted().count();
    // Every transaction was submitted at run start, so the largest
    // client-visible latency is exactly the window from run start to the
    // last decision arriving at the client.
    let window_micros = latencies
        .values()
        .map(|l| l.micros)
        .max()
        .unwrap_or(0)
        .max(1);
    let wall_secs = window_micros as f64 / 1e6;
    let mean_latency_micros =
        latencies.values().map(|l| l.micros as f64).sum::<f64>() / latencies.len().max(1) as f64;
    WallclockResult {
        stack,
        shards,
        batch: batch.max(1),
        closed_loop: false,
        transactions: tx_count,
        committed,
        aborted,
        undecided: tx_count.saturating_sub(committed + aborted),
        wall_secs,
        committed_per_sec: committed as f64 / wall_secs,
        mean_latency_micros,
        p99_latency_micros: cluster
            .metrics()
            .summary("client_decision_micros")
            .map_or(0.0, |s| s.percentile(99.0)),
        latency_unit: cluster.latency_unit(),
    }
}

/// E9 (closed loop): `outstanding` logical clients per shard each keep one
/// transaction in flight — the driver submits `outstanding × shards`
/// disjoint transactions, waits for all of them to decide
/// (`run_to_quiescence`), and repeats for `waves` rounds.
///
/// In this regime per-shard throughput is bound by *round latency* —
/// message hand-offs plus the batcher's flush delay (`outstanding` is kept
/// below the batch size, so every round waits out the partial-batch flush
/// timer) — not by CPU. Shards wait out their flush timers concurrently
/// (sleeping needs no core), so aggregate committed-tx/s scales with the
/// shard count even on a single-core host. This is the number behind the
/// "aggregate throughput scales with shards" acceptance criterion; it is
/// how a group-commit system scales when latency-bound rather than
/// saturated.
pub fn wallclock_scaling_experiment(
    stack: StackKind,
    shards: u32,
    outstanding: usize,
    waves: usize,
    batch: usize,
    seed: u64,
) -> WallclockResult {
    let mut cluster = wallclock_cluster(stack, shards, batch, seed);
    let per_wave = outstanding * shards as usize;
    // analyze:allow(wall-clock): E9 measures real elapsed time by design —
    // wall-clock throughput of the threaded backend is the experiment's
    // entire point; the result is reported, never fed back into the run.
    let start = std::time::Instant::now();
    let mut next = 0u64;
    for _ in 0..waves {
        for _ in 0..per_wave {
            next += 1;
            cluster.submit(TxId::new(next), disjoint_payload(next));
        }
        cluster.run_to_quiescence();
    }
    let wall_secs = start.elapsed().as_secs_f64().max(1e-9);
    let latencies = cluster.latencies();
    let history = cluster.history();
    let committed = history.committed().count();
    let aborted = history.aborted().count();
    let transactions = per_wave * waves;
    let mean_latency_micros =
        latencies.values().map(|l| l.micros as f64).sum::<f64>() / latencies.len().max(1) as f64;
    WallclockResult {
        stack,
        shards,
        batch: batch.max(1),
        closed_loop: true,
        transactions,
        committed,
        aborted,
        undecided: transactions.saturating_sub(committed + aborted),
        wall_secs,
        committed_per_sec: committed as f64 / wall_secs,
        mean_latency_micros,
        p99_latency_micros: cluster
            .metrics()
            .summary("client_decision_micros")
            .map_or(0.0, |s| s.percentile(99.0)),
        latency_unit: cluster.latency_unit(),
    }
}

// ---------------------------------------------------------------------------
// E10 (overload): open-loop goodput under increasing offered load
// ---------------------------------------------------------------------------

/// Result of one point of the open-loop overload sweep (E10).
#[derive(Debug, Clone)]
pub struct OverloadResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Number of shards in the deployment.
    pub shards: u32,
    /// Whether flow control (admission window + retry backoff) was active.
    pub flow_enabled: bool,
    /// Open-loop depth: transactions submitted up front.
    pub depth: usize,
    /// Transactions committed before the run was cut off.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions still undecided at cut-off — the collapse signature.
    pub undecided: usize,
    /// Wall-clock seconds from run start to the last decision.
    pub wall_secs: f64,
    /// Committed transactions per wall-clock second (goodput).
    pub goodput_per_sec: f64,
    /// Estimated 99th-percentile client-visible decision latency, from the
    /// streaming histogram (relative error ≤ ~9%).
    pub p99_latency_micros: f64,
    /// Messages delivered per decided transaction, per message type
    /// (`(label, msgs/tx)`, sorted by label) — the protocol's per-message
    /// cost under this offered load. Empty when nothing decided.
    pub msgs_per_tx: Vec<(String, f64)>,
    /// Unit of every latency in this result: wall-clock microseconds — E10
    /// always runs on the threaded backend.
    pub latency_unit: LatencyUnit,
}

impl fmt::Display for OverloadResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} shards={:<2} flow={:<5} depth={:<6} committed={:<6} undecided={:<5} wall_s={:<7.3} goodput/s={:<8.0} p99_us={:.0} ({})",
            self.stack.to_string(),
            self.shards,
            self.flow_enabled,
            self.depth,
            self.committed,
            self.undecided,
            self.wall_secs,
            self.goodput_per_sec,
            self.p99_latency_micros,
            self.latency_unit
        )
    }
}

/// E10: one point of the overload sweep — `depth` disjoint transactions
/// submitted up front (open loop) on the threaded backend with batching
/// disabled, the configuration whose retry storm previously collapsed the
/// baseline. Goodput is committed transactions over the decision window.
///
/// `flow` selects the cluster-wide flow-control knobs:
/// [`FlowControlConfig::default`] (admission window + exponential backoff)
/// or [`FlowControlConfig::legacy`] (the pre-flow immediate-retry
/// behaviour, kept measurable for the before/after comparison).
pub fn overload_experiment(
    stack: StackKind,
    shards: u32,
    flow: FlowControlConfig,
    depth: usize,
    seed: u64,
) -> OverloadResult {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .with_flow_control(flow)
        .with_execution(ratc_sim::ExecutionMode::Threads)
        // Observability feeds the per-message-type counters reported in the
        // JSON rows; recording never perturbs the protocol's behaviour.
        .with_observability()
        .build();
    for i in 0..depth {
        cluster.submit(TxId::new(i as u64 + 1), disjoint_payload(i as u64 + 1));
    }
    cluster.run_to_quiescence();
    let latencies = cluster.latencies();
    let history = cluster.history();
    let committed = history.committed().count();
    let aborted = history.aborted().count();
    let decided = committed + aborted;
    let msgs_per_tx = if decided == 0 {
        Vec::new()
    } else {
        cluster
            .metrics()
            .msg_type_counters()
            .map(|(label, counters)| (label.to_owned(), counters.delivered as f64 / decided as f64))
            .collect()
    };
    let window_micros = latencies
        .values()
        .map(|l| l.micros)
        .max()
        .unwrap_or(0)
        .max(1);
    let wall_secs = window_micros as f64 / 1e6;
    OverloadResult {
        stack,
        shards,
        flow_enabled: flow.enabled,
        depth,
        committed,
        aborted,
        undecided: depth.saturating_sub(committed + aborted),
        wall_secs,
        goodput_per_sec: committed as f64 / wall_secs,
        p99_latency_micros: cluster
            .metrics()
            .summary("client_decision_micros")
            .map_or(0.0, |s| s.percentile(99.0)),
        msgs_per_tx,
        latency_unit: cluster.latency_unit(),
    }
}

/// E10: the full sweep — one [`overload_experiment`] run per offered-load
/// depth, same stack and knobs throughout. The acceptance criterion reads
/// the resulting goodput curve: with flow control on, goodput past
/// saturation must plateau (stay within a fraction of the peak) instead of
/// collapsing toward zero.
pub fn overload_sweep(
    stack: StackKind,
    shards: u32,
    flow: FlowControlConfig,
    depths: &[usize],
    seed: u64,
) -> Vec<OverloadResult> {
    depths
        .iter()
        .map(|&depth| overload_experiment(stack, shards, flow, depth, seed))
        .collect()
}

// ---------------------------------------------------------------------------
// E11 (phases): commit-path phase-latency attribution
// ---------------------------------------------------------------------------

/// Result of one E11 phase-attribution run: where the commit path spends its
/// time, averaged over every transaction with a complete lifecycle timeline.
///
/// Invariant (asserted by the driver): for every measured transaction the six
/// phase latencies sum *exactly* to its end-to-end latency, so the mean
/// phases sum to `mean_total_micros` up to floating-point rounding.
#[derive(Debug, Clone)]
pub struct PhaseResult {
    /// Stack measured.
    pub stack: StackKind,
    /// Execution engine the cluster ran on.
    pub execution: ExecutionMode,
    /// Number of shards in the deployment.
    pub shards: u32,
    /// Open-loop depth: transactions submitted up front.
    pub depth: usize,
    /// Transactions committed.
    pub committed: usize,
    /// Transactions with a complete timeline (submission through
    /// client-learned decision) — the population averaged below.
    pub measured: usize,
    /// Mean latency of each commit-path phase, in [`Phase::ALL`] order
    /// (admission, dispatch, certification, quorum, decide, relay).
    pub mean_phase_micros: [f64; 6],
    /// Mean end-to-end latency (submission to client-learned decision).
    pub mean_total_micros: f64,
    /// Mean retry/backoff re-drives per measured transaction.
    pub mean_retries: f64,
    /// Unit of every latency in this result: virtual microseconds under
    /// [`ExecutionMode::Sim`], wall-clock microseconds under
    /// [`ExecutionMode::Threads`].
    pub latency_unit: LatencyUnit,
}

impl fmt::Display for PhaseResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<10} {:<7} shards={:<2} depth={:<6} measured={:<6}",
            self.stack.to_string(),
            match self.execution {
                ExecutionMode::Sim => "sim",
                ExecutionMode::Threads => "threads",
            },
            self.shards,
            self.depth,
            self.measured,
        )?;
        for (phase, mean) in Phase::ALL.iter().zip(self.mean_phase_micros.iter()) {
            write!(f, " {phase}={mean:<7.1}")?;
        }
        write!(
            f,
            " total={:<8.1} retries={:<4.2} ({})",
            self.mean_total_micros, self.mean_retries, self.latency_unit
        )
    }
}

/// E11: one cell of the phase-attribution matrix — `depth` disjoint
/// transactions submitted up front with observability enabled, then every
/// complete transaction timeline folded into a per-phase latency breakdown
/// (see [`ratc_sim::PhaseBreakdown`] for the paper's message-delay mapping).
///
/// `depth` selects the regime: 1 ≈ idle (pure protocol path), around the
/// admission-window size ≈ saturated, far above it ≈ overload (admission
/// queueing and retries dominate).
pub fn phase_experiment(
    stack: StackKind,
    execution: ExecutionMode,
    shards: u32,
    depth: usize,
    seed: u64,
) -> PhaseResult {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(seed)
        .with_execution(execution)
        .with_observability()
        .build();
    for i in 0..depth {
        cluster.submit(TxId::new(i as u64 + 1), disjoint_payload(i as u64 + 1));
    }
    cluster.run_to_quiescence();
    let committed = cluster.history().committed().count();
    let breakdowns = cluster.phase_breakdown();
    let mut sums = [0.0f64; 6];
    let mut total = 0.0f64;
    let mut retries = 0.0f64;
    for breakdown in breakdowns.values() {
        // The attribution invariant the whole experiment rests on.
        assert_eq!(
            breakdown.phases().iter().sum::<u64>(),
            breakdown.total_micros(),
            "phase latencies must sum exactly to the end-to-end latency"
        );
        for (sum, micros) in sums.iter_mut().zip(breakdown.phases().iter()) {
            *sum += *micros as f64;
        }
        total += breakdown.total_micros() as f64;
        retries += breakdown.retries() as f64;
    }
    let measured = breakdowns.len();
    let n = measured.max(1) as f64;
    PhaseResult {
        stack,
        execution,
        shards,
        depth,
        committed,
        measured,
        mean_phase_micros: sums.map(|s| s / n),
        mean_total_micros: total / n,
        mean_retries: retries / n,
        latency_unit: cluster.latency_unit(),
    }
}

// ---------------------------------------------------------------------------
// E8 (invariants): randomized invariant checking
// ---------------------------------------------------------------------------

/// Result of the randomized invariant-checking experiment (E8).
#[derive(Debug, Clone, Default)]
pub struct InvariantsResult {
    /// Number of randomized runs executed.
    pub runs: usize,
    /// Total committed transactions across runs.
    pub committed: usize,
    /// Total aborted transactions across runs.
    pub aborted: usize,
    /// Runs in which a crash + reconfiguration was injected.
    pub runs_with_reconfiguration: usize,
    /// Invariant violations found (must be 0).
    pub invariant_violations: usize,
    /// History-level specification violations found (must be 0).
    pub spec_violations: usize,
}

impl fmt::Display for InvariantsResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "runs={:<4} committed={:<6} aborted={:<5} with_reconfig={:<4} invariant_violations={} spec_violations={}",
            self.runs,
            self.committed,
            self.aborted,
            self.runs_with_reconfiguration,
            self.invariant_violations,
            self.spec_violations
        )
    }
}

/// E8: runs `runs` randomized executions of the message-passing protocol with
/// random contention, random crashes and reconfigurations, checking the
/// white-box invariants and the black-box TCS specification on each. Stays
/// on the concrete core cluster ([`ClusterSpec::build_core`]) because the
/// Figure 3 invariant checkers inspect live replica state.
pub fn invariants_experiment(runs: usize, txs_per_run: usize, base_seed: u64) -> InvariantsResult {
    let mut result = InvariantsResult::default();
    for run in 0..runs {
        let seed = base_seed + run as u64;
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let spec = WorkloadSpec {
            key_count: 50,
            keys_per_tx: 2,
            write_fraction: 1.0,
            tx_count: txs_per_run,
            distribution: KeyDistribution::Uniform,
        };
        let txs = spec.generate(&mut rng);
        let mut cluster = ClusterSpec::new(StackKind::Core)
            .with_shards(2)
            .with_seed(seed)
            .build_core();
        let crash_at = rng.gen_range(0..txs.len().max(1));
        let inject_crash = rng.gen_bool(0.6);
        for (i, (tx, payload)) in txs.into_iter().enumerate() {
            cluster.submit(tx, payload);
            if inject_crash && i == crash_at {
                cluster.run_for(SimDuration::from_millis(1));
                let shard = ShardId::new(rng.gen_range(0..2));
                let view = cluster.shard_view(shard);
                let leader = view.leader.expect("leader");
                let follower = view.roster.into_iter().find(|p| *p != leader);
                if let Some(follower) = follower {
                    cluster.crash(follower);
                    cluster.start_reconfiguration(shard, leader, vec![follower]);
                    result.runs_with_reconfiguration += 1;
                }
            }
        }
        cluster.run_to_quiescence();
        let history = cluster.history();
        result.runs += 1;
        result.committed += history.committed().count();
        result.aborted += history.aborted().count();
        result.invariant_violations += invariants::check_cluster(&cluster).len();
        result.spec_violations += check_history(&history, &Serializability::new()).len()
            + cluster.client_violations().len();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_latency_shapes_match_the_paper() {
        let mp = latency_experiment(StackKind::Core, 2, 20, 1);
        let baseline = latency_experiment(StackKind::Baseline, 2, 20, 1);
        assert_eq!(mp.median_hops, 5.0, "RATC-MP decision latency");
        assert_eq!(baseline.median_hops, 7.0, "baseline decision latency");
        assert!(mp.median_coordinator_hops <= 4.5, "co-located latency ~4");
        let rdma = latency_experiment(StackKind::Rdma, 2, 20, 1);
        assert!(
            0.0 < rdma.median_coordinator_hops && rdma.median_coordinator_hops <= 4.5,
            "RDMA co-located latency ~4, got {}",
            rdma.median_coordinator_hops
        );
        assert!(
            rdma.median_hops <= mp.median_hops,
            "RDMA must not be slower than message passing ({} vs {})",
            rdma.median_hops,
            mp.median_hops
        );
    }

    #[test]
    fn e2_leader_load_is_lower_for_ratc() {
        let ratc = leader_load_experiment(StackKind::Core, 2, 100, 2);
        let baseline = leader_load_experiment(StackKind::Baseline, 2, 100, 2);
        assert!(
            ratc.leader_msgs_per_txn < baseline.leader_msgs_per_txn,
            "RATC leaders must handle fewer messages per transaction ({} vs {})",
            ratc.leader_msgs_per_txn,
            baseline.leader_msgs_per_txn
        );
    }

    #[test]
    fn e3_replication_cost() {
        let r = replication_cost_experiment(1);
        assert_eq!(r.ratc_replicas, 2);
        assert_eq!(r.baseline_replicas, 3);
        assert!(r.baseline_total_processes > r.ratc_total_processes);
    }

    #[test]
    fn e6_reconfiguration_blocks_ratc_but_not_baseline() {
        let ratc = reconfiguration_experiment(StackKind::Core, 3);
        let baseline = reconfiguration_experiment(StackKind::Baseline, 3);
        assert!(ratc.reconfiguration_required);
        assert!(!baseline.reconfiguration_required);
        assert!(ratc.committed_after_crash > 0, "RATC must recover");
        assert!(baseline.committed_after_crash > 0);
        assert!(
            baseline.recovery_micros < ratc.recovery_micros,
            "the 2f+1 baseline masks the failure while f+1 RATC must reconfigure first"
        );
    }

    #[test]
    fn e7_truncation_bounds_log_memory() {
        let on = truncation_experiment(StackKind::Core, 2, 300, Some(8), 7);
        let off = truncation_experiment(StackKind::Core, 2, 300, None, 7);
        assert_eq!(on.decided, 300);
        assert_eq!(off.decided, 300);
        assert!(on.slots_truncated > 0, "nothing was truncated: {on}");
        // Disabled: the members retain the whole per-shard history.
        assert_eq!(off.max_retained_slots as u64, off.max_log_next);
        // Enabled: retention is bounded by the undecided window + batch,
        // far below the logical history length.
        assert!(
            (on.max_retained_slots as u64) < on.max_log_next / 2,
            "retention not bounded: {on}"
        );
        assert!(on.max_retained_slots < 100, "retention not bounded: {on}");
    }

    /// The unified facade's acceptance criterion: the previously core-only
    /// E7 produces results on every stack through the one generic driver.
    #[test]
    fn e7_truncation_runs_on_all_three_stacks() {
        for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
            let result = truncation_experiment(stack, 2, 64, Some(8), 7);
            assert_eq!(result.decided, 64, "{stack}: lost decisions: {result}");
            assert!(
                result.max_retained_slots as u64 <= result.max_log_next.max(1),
                "{stack}: nonsensical retention: {result}"
            );
            // Every stack bounds its retained state: checkpointed truncation
            // on the RATC stacks, unconditional decided-payload pruning on
            // the baseline.
            assert!(
                (result.max_retained_slots as u64) < result.max_log_next,
                "{stack}: retention not bounded: {result}"
            );
        }
    }

    #[test]
    fn e8_randomized_runs_have_no_violations() {
        let result = invariants_experiment(5, 20, 42);
        assert_eq!(result.invariant_violations, 0);
        assert_eq!(result.spec_violations, 0);
        assert!(result.committed > 0);
    }

    /// Acceptance criterion of the batching pipeline: leader msgs/tx falls
    /// monotonically with the batch size, and batch 16 is at least 4x below
    /// batch 1.
    #[test]
    fn e8_batching_amortises_leader_messages() {
        let tx_count = 192;
        let results: Vec<BatchingResult> = [1usize, 2, 4, 8, 16]
            .iter()
            .map(|b| batching_experiment(StackKind::Core, tx_count, *b, 11))
            .collect();
        for result in &results {
            assert_eq!(
                result.committed, tx_count,
                "disjoint transactions must all commit: {result}"
            );
        }
        for pair in results.windows(2) {
            assert!(
                pair[1].leader_msgs_per_txn <= pair[0].leader_msgs_per_txn,
                "leader msgs/tx must fall monotonically with batch size: {} then {}",
                pair[0],
                pair[1]
            );
            assert!(
                pair[1].commits_per_step >= pair[0].commits_per_step,
                "commits/step must rise monotonically with batch size: {} then {}",
                pair[0],
                pair[1]
            );
        }
        let unbatched = &results[0];
        let batch16 = results.last().expect("non-empty");
        assert!(
            unbatched.leader_msgs_per_txn >= 4.0 * batch16.leader_msgs_per_txn,
            "batch 16 must cut leader msgs/tx at least 4x ({} vs {})",
            unbatched.leader_msgs_per_txn,
            batch16.leader_msgs_per_txn
        );
        assert_eq!(
            unbatched.prepare_batches, tx_count as u64,
            "batch 1 sends one PREPARE per transaction"
        );
        assert!(batch16.prepare_batches > 0 && batch16.prepare_batches <= tx_count as u64 / 8);
    }

    /// E9 smoke: a small closed-loop run on the threaded backend commits
    /// everything and reports a positive rate. Kept tiny — the real numbers
    /// come from `exp_wallclock` in release mode.
    #[test]
    fn e9_wallclock_closed_loop_commits_everything() {
        let result = wallclock_scaling_experiment(StackKind::Core, 1, 2, 3, 8, 99);
        assert_eq!(result.transactions, 6);
        assert_eq!(
            result.committed, 6,
            "disjoint transactions must commit: {result}"
        );
        assert!(result.committed_per_sec > 0.0, "{result}");
        assert!(result.mean_latency_micros > 0.0, "{result}");
    }

    /// E10 smoke: a small open-loop run with flow control on decides
    /// everything on every stack. Kept tiny — the real sweep comes from
    /// `exp_e10_overload` in release mode.
    #[test]
    fn e10_overload_smoke_decides_everything_on_all_stacks() {
        for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
            let result = overload_experiment(stack, 1, FlowControlConfig::default(), 48, 99);
            assert!(result.flow_enabled);
            assert_eq!(
                result.undecided, 0,
                "{stack}: flow control must drain the open-loop burst: {result}"
            );
            assert_eq!(result.committed, 48, "{stack}: {result}");
            assert!(result.goodput_per_sec > 0.0, "{stack}: {result}");
        }
    }

    /// The unified facade's acceptance criterion: the previously core-only
    /// E8 produces results on every stack, and batching reduces the measured
    /// leader's per-transaction message load on each of them.
    #[test]
    fn e8_batching_runs_on_all_three_stacks() {
        for stack in [StackKind::Core, StackKind::Rdma, StackKind::Baseline] {
            let unbatched = batching_experiment(stack, 64, 1, 11);
            let batched = batching_experiment(stack, 64, 8, 11);
            assert_eq!(unbatched.committed, 64, "{stack}: {unbatched}");
            assert_eq!(batched.committed, 64, "{stack}: {batched}");
            assert!(
                batched.leader_msgs_per_txn <= unbatched.leader_msgs_per_txn,
                "{stack}: batching must not increase leader load ({} vs {})",
                batched.leader_msgs_per_txn,
                unbatched.leader_msgs_per_txn
            );
        }
    }
}
