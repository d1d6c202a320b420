//! Experiment drivers: one function per claim of the paper's evaluation.
//!
//! Every experiment is **generic over the stack**: it takes a
//! [`StackKind`], deploys it through the unified [`ClusterSpec`] builder and
//! drives it through the [`TcsCluster`] facade, so the same driver measures
//! the message-passing protocol, the RDMA protocol and the 2PC-over-Paxos
//! baseline. The few real per-protocol differences (the baseline's Paxos
//! phase-1 warm-up in E1, reconfiguration vs failure masking in E6) are
//! explicit branches on capability probes or the stack selector — not
//! separate implementations.
//!
//! Every driver runs at fixed inputs (seed 42 unless it says otherwise) on
//! the deterministic simulator, except E10, which runs on the threaded
//! engine and reports only decision counts. This module's tests (`e1_…`
//! through `e11_…`) pin each result with an exact `assert_eq!`.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_core::invariants;
use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_sim::{ExecutionMode, PhaseBreakdown, SimDuration};
use ratc_spec::check_history;
use ratc_types::{Key, Payload, Serializability, ShardId, ShardMap, TxId, Value, Version};

use crate::generator::{KeyDistribution, WorkloadSpec};

/// The seed of every experiment but E6 (run per seed) and the randomized E8
/// runs (one seed each, from 1000 on).
const SEED: u64 = 42;

fn median(mut values: Vec<f64>) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    values[values.len() / 2]
}

fn build(stack: StackKind, shards: u32) -> Box<dyn TcsCluster> {
    ClusterSpec::new(stack)
        .with_shards(shards)
        .with_seed(SEED)
        .build()
}

/// A single-key read–write transaction on `key`.
fn rw_payload(key: Key) -> Payload {
    Payload::builder()
        .read(key.clone(), Version::ZERO)
        .write(key, Value::from("v"))
        .commit_version(Version::new(1))
        .build()
        .expect("well-formed")
}

/// A transaction on its own key `k{i}`: conflict-free, so every submission
/// must commit.
fn disjoint_payload(i: u64) -> Payload {
    rw_payload(Key::new(format!("k{i}")))
}

/// Deploys `stack` on `shards` shards, submits `spec`'s transactions
/// (generated from `SEED`) at once and runs to quiescence.
fn run_generated(stack: StackKind, shards: u32, spec: WorkloadSpec) -> Box<dyn TcsCluster> {
    let txs = spec.generate(&mut ChaCha12Rng::seed_from_u64(SEED));
    let mut cluster = build(stack, shards);
    for (tx, payload) in txs {
        cluster.submit(tx, payload);
    }
    cluster.run_to_quiescence();
    cluster
}

// ---------------------------------------------------------------------------
// E1: decision latency in message delays
// ---------------------------------------------------------------------------

/// Result of the latency experiment (E1).
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyResult {
    /// Median client-visible decision latency in message delays.
    pub median_hops: f64,
    /// Mean decision latency at the coordinator, in message delays (the
    /// co-located-client number the paper quotes as 4). Both RATC stacks
    /// report it (their shared coordinator samples it); the baseline has no
    /// co-located coordinator and reports 0.
    pub mean_coordinator_hops: f64,
    /// Mean client-visible decision latency in virtual microseconds.
    pub mean_micros: f64,
}

/// E1: client-visible decision latency in message delays of 50 disjoint
/// (conflict-free) transactions on `shards` shards.
pub fn latency_experiment(stack: StackKind, shards: u32) -> LatencyResult {
    const TXS: u64 = 50;
    let mut cluster = build(stack, shards);
    if stack == StackKind::Baseline {
        // Warm-up: one transaction per shard pays that shard's Paxos phase 1
        // (and the transaction manager's) exactly once, so the measured
        // transactions see the steady-state 7-delay critical path.
        for shard_idx in 0..shards {
            let shard = ShardId::new(shard_idx);
            let key = (0..100_000)
                .map(|i| Key::new(format!("warm-{i}")))
                .find(|k| cluster.sharding().shard_of(k) == shard)
                .expect("hash sharding covers every shard");
            cluster.submit(
                TxId::new(u64::MAX - 1 - u64::from(shard_idx)),
                rw_payload(key),
            );
            cluster.run_to_quiescence();
        }
    }
    for i in 0..TXS {
        cluster.submit(TxId::new(i + 1), disjoint_payload(i));
    }
    cluster.run_to_quiescence();
    let latencies = cluster.latencies();
    let measured: Vec<_> = latencies
        .iter()
        .filter(|(tx, _)| tx.as_u64() <= TXS)
        .collect();
    let hops: Vec<f64> = measured.iter().map(|(_, l)| f64::from(l.hops)).collect();
    let micros: f64 = measured.iter().map(|(_, l)| l.micros as f64).sum();
    LatencyResult {
        median_hops: median(hops),
        mean_coordinator_hops: cluster
            .metrics()
            .summary("coordinator_decision_hops")
            .map_or(0.0, |s| s.mean()),
        mean_micros: micros / measured.len().max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// E2: leader load
// ---------------------------------------------------------------------------

/// Result of the leader-load experiment (E2).
#[derive(Debug, Clone, PartialEq)]
pub struct LeaderLoadResult {
    /// Committed transactions.
    pub committed: usize,
    /// Mean messages handled (sent + received) per shard leader per decided
    /// transaction.
    pub leader_msgs_per_txn: f64,
    /// Mean messages handled per non-leader replica per decided transaction.
    pub follower_msgs_per_txn: f64,
}

/// E2: messages handled by shard leaders vs followers per transaction, for
/// 500 uniform 2-key transactions on 4 shards.
pub fn leader_load_experiment(stack: StackKind) -> LeaderLoadResult {
    let cluster = run_generated(
        stack,
        4,
        WorkloadSpec {
            key_count: 10_000,
            keys_per_tx: 2,
            write_fraction: 0.5,
            tx_count: 500,
            distribution: KeyDistribution::Uniform,
        },
    );
    let decided = cluster.history().decide_count().max(1) as f64;
    let (mut leader, mut follower) = ((0.0, 0usize), (0.0, 0usize));
    for shard in cluster.shards() {
        let view = cluster.shard_view(shard);
        for pid in view.members {
            let role = if Some(pid) == view.leader {
                &mut leader
            } else {
                &mut follower
            };
            role.0 += cluster.process_handled(pid) as f64;
            role.1 += 1;
        }
    }
    LeaderLoadResult {
        committed: cluster.history().committed().count(),
        leader_msgs_per_txn: leader.0 / leader.1.max(1) as f64 / decided,
        follower_msgs_per_txn: follower.0 / follower.1.max(1) as f64 / decided,
    }
}

// ---------------------------------------------------------------------------
// E3: replication cost
// ---------------------------------------------------------------------------

/// Result of the replication-cost experiment (E3).
#[derive(Debug, Clone, PartialEq)]
pub struct ReplicationCostResult {
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

/// E3: replicas needed per shard (and for a fixed 4-shard deployment) to
/// tolerate `f` failures, straight off [`StackKind::group_size`], the rule
/// every stack deploys by.
pub fn replication_cost_experiment(f: usize) -> ReplicationCostResult {
    const SHARDS: usize = 4;
    let ratc_replicas = StackKind::Core.group_size(f);
    let baseline_replicas = StackKind::Baseline.group_size(f);
    ReplicationCostResult {
        ratc_replicas,
        baseline_replicas,
        ratc_total_processes: SHARDS * ratc_replicas,
        baseline_total_processes: SHARDS * baseline_replicas + baseline_replicas,
    }
}

// ---------------------------------------------------------------------------
// E4: scaling with shards per transaction
// ---------------------------------------------------------------------------

/// Result of the scaling experiment (E4).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingResult {
    /// Committed transactions.
    pub committed: usize,
    /// Total simulated time, in milliseconds.
    pub sim_millis: f64,
    /// Mean client-visible latency in virtual microseconds.
    pub mean_latency_micros: f64,
}

/// E4: commits, simulated duration and latency of ratc-mp on `shards`
/// shards as the keys (and so the shards) touched per transaction grow, for
/// 300 uniform transactions.
pub fn scaling_experiment(shards: u32, keys_per_tx: usize) -> ScalingResult {
    let cluster = run_generated(
        StackKind::Core,
        shards,
        WorkloadSpec {
            key_count: 50_000,
            keys_per_tx,
            write_fraction: 0.5,
            tx_count: 300,
            distribution: KeyDistribution::Uniform,
        },
    );
    let latencies = cluster.latencies();
    ScalingResult {
        committed: cluster.history().committed().count(),
        sim_millis: cluster.now().as_millis_f64().max(0.001),
        mean_latency_micros: latencies.values().map(|l| l.micros as f64).sum::<f64>()
            / latencies.len().max(1) as f64,
    }
}

// ---------------------------------------------------------------------------
// E5: abort rate vs contention
// ---------------------------------------------------------------------------

/// Result of the abort-rate experiment (E5).
#[derive(Debug, Clone, PartialEq)]
pub struct AbortRateResult {
    /// Committed transactions.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
}

/// E5: commits and aborts of 300 write-only 2-key transactions over 200 keys
/// on 4 shards, submitted at once.
///
/// The ratc-mp and ratc-rdma results are equal on every distribution: every
/// shard leader certifies its last `PREPARE` before any member applies its
/// first decision, on both stacks, so `g_s` sees the same
/// prepared-but-undecided transactions and RDMA's faster decision never
/// shortens a window a vote can observe.
pub fn abort_rate_experiment(stack: StackKind, distribution: KeyDistribution) -> AbortRateResult {
    let cluster = run_generated(
        stack,
        4,
        WorkloadSpec {
            key_count: 200,
            keys_per_tx: 2,
            write_fraction: 1.0,
            tx_count: 300,
            distribution,
        },
    );
    let history = cluster.history();
    AbortRateResult {
        committed: history.committed().count(),
        aborted: history.aborted().count(),
    }
}

// ---------------------------------------------------------------------------
// E6: reconfiguration / availability
// ---------------------------------------------------------------------------

/// Result of the reconfiguration experiment (E6).
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigurationResult {
    /// Transactions committed after the crash point.
    pub committed_after_crash: usize,
    /// Simulated microseconds between the crash and the first decision among
    /// the transactions submitted during the outage (6–15, 1 ms apart).
    pub recovery_micros: u64,
}

/// E6: availability after a single replica crash. The RATC stacks (`f + 1`)
/// must reconfigure before the affected shard certifies again; the baseline
/// (`2f + 1`) masks the failure — the capability
/// [`StackKind::supports_reconfiguration`] decides which recovery the
/// experiment exercises. Recovery is the time from the crash to the first
/// decision among the ten transactions submitted during the outage; the
/// five submitted after it are counted as commits only.
pub fn reconfiguration_experiment(stack: StackKind, seed: u64) -> ReconfigurationResult {
    // Every transaction involves the crashed replica's (only) shard.
    let payload = |i: u64| rw_payload(Key::new(format!("pinned-{i}")));
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(1)
        .with_seed(seed)
        .build();
    let shard = ShardId::new(0);
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
    if cluster.stack().supports_reconfiguration() {
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
    let after_crash = || latencies.iter().filter(|(tx, _)| tx.as_u64() > 5);
    ReconfigurationResult {
        committed_after_crash: after_crash()
            .filter(|(_, l)| l.decision.is_commit())
            .count(),
        // Measured from the crash over the outage's transactions only: those
        // submitted after recovery would read their fault-free latency.
        recovery_micros: after_crash()
            .filter(|(tx, _)| tx.as_u64() <= 15)
            .map(|(tx, l)| (tx.as_u64() - 6) * 1_000 + l.micros)
            .min()
            .unwrap_or(0),
    }
}

// ---------------------------------------------------------------------------
// E7: bounded-memory long histories via checkpointed truncation
// ---------------------------------------------------------------------------

/// Result of the log-truncation experiment (E7).
#[derive(Debug, Clone, PartialEq)]
pub struct TruncationResult {
    /// Transactions decided.
    pub decided: usize,
    /// Maximum retained (physical) log slots over all shard members at the
    /// end of the run.
    pub max_retained_slots: usize,
    /// Maximum logical log length over all shard members — what the retained
    /// count would be without truncation/pruning.
    pub max_log_next: u64,
    /// Total slots folded into checkpoints across the cluster (RATC stacks).
    pub slots_truncated: u64,
}

/// E7: drives a paced history of 300 uniform 2-key transactions through the
/// given stack on 2 shards and reports how much certification-log memory
/// the shard members retain. At fold batch 8 the retained slot count is
/// bounded by the undecided window plus the fold batch; `max_log_next` is
/// what an untruncated member would retain, the whole history. The baseline
/// reports its unconditional decided-payload pruning through the same probe.
pub fn truncation_experiment(stack: StackKind) -> TruncationResult {
    use ratc_core::replica::TruncationConfig;
    let spec = WorkloadSpec {
        key_count: 10_000,
        keys_per_tx: 2,
        write_fraction: 0.5,
        tx_count: 300,
        distribution: KeyDistribution::Uniform,
    };
    let txs = spec.generate(&mut ChaCha12Rng::seed_from_u64(SEED));
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(SEED)
        .with_truncation(TruncationConfig::with_batch(8))
        .build();
    // Pace submissions in small waves so decisions (and each member's folds
    // of its decided prefix) interleave with new transactions, as in a live
    // system.
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
        decided: cluster.history().decide_count(),
        max_retained_slots,
        max_log_next,
        slots_truncated: cluster.metrics().counter("log_slots_truncated"),
    }
}

// ---------------------------------------------------------------------------
// E8: batched certification pipeline
// ---------------------------------------------------------------------------

/// Result of the batching experiment (E8) for one batch size.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchingResult {
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

/// E8: leader message load and per-commit work of the given stack at
/// `batch_size` (1 = the paper's unbatched exchange), for 512 disjoint
/// transactions.
///
/// The deployment pins every transaction to shard 0 and, on the RATC stacks,
/// coordinates through a shard-1 member, so the measured shard-0 leader
/// handles only leader-role traffic: without batching that is one `PREPARE`
/// in, one `PREPARE_ACK` out and one `DECISION` in per transaction; with
/// batch size `B` the same three messages serve `B` transactions. The
/// baseline submits through its transaction manager (the only coordinator it
/// has). Its leader amortises everything but the per-transaction 2PC
/// `PREPARE`: a vote batch occupies one Multi-Paxos slot and is reported in
/// one `VoteBatch`, and the transaction manager's batch of decisions arrives
/// as one `Decision`, relayed to the followers as one message each.
pub fn batching_experiment(stack: StackKind, batch_size: usize) -> BatchingResult {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(SEED)
        .with_batching(ratc_core::batch::BatchingConfig::with_batch(batch_size))
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
        .take(512)
        .collect();
    for (i, key) in keys.into_iter().enumerate() {
        cluster.submit_via(TxId::new(i as u64 + 1), rw_payload(key), coordinator);
    }
    cluster.run_to_quiescence();
    let decided = cluster.history().decide_count().max(1);
    let leader = cluster.shard_view(measured_shard).leader.expect("leader");
    let committed = cluster.history().committed().count();
    BatchingResult {
        committed,
        leader_msgs_per_txn: cluster.process_handled(leader) as f64 / decided as f64,
        commits_per_step: committed as f64 / cluster.steps().max(1) as f64,
        prepare_batches: cluster.metrics().counter("prepare_batches_sent"),
    }
}

// ---------------------------------------------------------------------------
// E10: an open-loop flood on the threaded engine
// ---------------------------------------------------------------------------

/// Decision counts of the open-loop flood (E10).
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadResult {
    /// Transactions committed before the run was cut off.
    pub committed: usize,
    /// Transactions aborted.
    pub aborted: usize,
    /// Transactions still undecided at cut-off — the collapse signature.
    pub undecided: usize,
}

/// E10: 48 disjoint transactions submitted up front (open loop) to one shard
/// on the threaded engine, with batching off and the default flow control —
/// the configuration whose retry storm once collapsed the baseline, before
/// its admission window and retry backoff (the Sim-mode flood of
/// `ratc-baseline`'s `flow_control_fixes_the_simulated_congestive_collapse`
/// pins the same fix deterministically).
pub fn overload_experiment(stack: StackKind) -> OverloadResult {
    const DEPTH: usize = 48;
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(1)
        .with_seed(SEED)
        .with_execution(ExecutionMode::Threads)
        .build();
    for i in 1..=DEPTH as u64 {
        cluster.submit(TxId::new(i), disjoint_payload(i));
    }
    cluster.run_to_quiescence();
    let history = cluster.history();
    let (committed, aborted) = (history.committed().count(), history.aborted().count());
    OverloadResult {
        committed,
        aborted,
        undecided: DEPTH.saturating_sub(committed + aborted),
    }
}

// ---------------------------------------------------------------------------
// E11: commit-path phase-latency attribution
// ---------------------------------------------------------------------------

/// E11: one idle transaction on 2 shards with observability on, its
/// lifecycle timeline folded into a per-phase latency breakdown in virtual
/// microseconds (see [`PhaseBreakdown`] for the paper's message-delay
/// mapping) — the pure protocol path, with no admission queueing or batching
/// wait.
pub fn phase_experiment(stack: StackKind) -> PhaseBreakdown {
    let mut cluster = ClusterSpec::new(stack)
        .with_shards(2)
        .with_seed(SEED)
        .with_observability()
        .build();
    cluster.submit(TxId::new(1), disjoint_payload(1));
    cluster.run_to_quiescence();
    cluster
        .phase_breakdown()
        .remove(&TxId::new(1))
        .expect("an idle transaction's timeline is complete")
}

// ---------------------------------------------------------------------------
// E8 (invariants): randomized invariant checking
// ---------------------------------------------------------------------------

/// Result of the randomized invariant-checking experiment (E8), summed over
/// its runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct InvariantsResult {
    /// Committed transactions.
    pub committed: usize,
    /// Aborted transactions.
    pub aborted: usize,
    /// Runs in which a crash + reconfiguration was injected.
    pub runs_with_reconfiguration: usize,
    /// Invariant violations found (must be 0).
    pub invariant_violations: usize,
    /// History-level specification violations found (must be 0).
    pub spec_violations: usize,
}

/// E8: 50 randomized executions of the message-passing protocol (30
/// contended transactions each, seeds 1000…1049) with a random crash and
/// reconfiguration in most, checking the white-box invariants and the
/// black-box TCS specification on each. Stays on the concrete core cluster
/// ([`ClusterSpec::build_core`]) because the Figure 3 invariant checkers
/// inspect live replica state.
pub fn invariants_experiment() -> InvariantsResult {
    let mut result = InvariantsResult::default();
    for seed in 1_000..1_050 {
        let mut rng = ChaCha12Rng::seed_from_u64(seed);
        let spec = WorkloadSpec {
            key_count: 50,
            keys_per_tx: 2,
            write_fraction: 1.0,
            tx_count: 30,
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

    const STACKS: [StackKind; 3] = [StackKind::Core, StackKind::Rdma, StackKind::Baseline];

    /// RATC decides in 5 message delays (4 with a co-located client), the
    /// 2PC-over-Paxos baseline in 7 (§1, §3).
    #[test]
    fn e1_latency_matches_the_paper() {
        // (shards, stack, median hops, mean co-located hops, mean µs)
        let expected = [
            (2, StackKind::Core, 5.0, 4.0, 267.92),
            (2, StackKind::Rdma, 5.0, 3.32, 187.24),
            (2, StackKind::Baseline, 7.0, 0.0, 413.42),
            (4, StackKind::Core, 5.0, 4.0, 255.58),
            (4, StackKind::Rdma, 5.0, 3.76, 184.98),
            (4, StackKind::Baseline, 7.0, 0.0, 400.84),
            (8, StackKind::Core, 5.0, 4.0, 251.74),
            (8, StackKind::Rdma, 5.0, 3.84, 182.4),
            (8, StackKind::Baseline, 7.0, 0.0, 398.12),
        ];
        for (shards, stack, median_hops, mean_coordinator_hops, mean_micros) in expected {
            let want = LatencyResult {
                median_hops,
                mean_coordinator_hops,
                mean_micros,
            };
            assert_eq!(
                latency_experiment(stack, shards),
                want,
                "{stack} on {shards}"
            );
        }
    }

    /// A RATC leader receives one PREPARE and one DECISION and sends one
    /// PREPARE_ACK per transaction; a baseline Paxos leader handles more (§3).
    #[test]
    fn e2_leader_load_is_lower_for_ratc() {
        let ratc = LeaderLoadResult {
            committed: 461,
            leader_msgs_per_txn: 2.8765,
            follower_msgs_per_txn: 2.8735,
        };
        let baseline = LeaderLoadResult {
            committed: 474,
            leader_msgs_per_txn: 6.5785,
            follower_msgs_per_txn: 1.754,
        };
        assert_eq!(leader_load_experiment(StackKind::Core), ratc);
        assert_eq!(leader_load_experiment(StackKind::Baseline), baseline);
    }

    /// RATC needs f+1 replicas per shard, Paxos-based designs 2f+1 (§1).
    #[test]
    fn e3_replication_cost() {
        // (f, replicas per shard: RATC, baseline; processes on 4 shards: RATC,
        // baseline with its transaction-manager group)
        let expected = [(1, 2, 3, 8, 15), (2, 3, 5, 12, 25), (3, 4, 7, 16, 35)];
        for (f, ratc_replicas, baseline_replicas, ratc_total, baseline_total) in expected {
            let want = ReplicationCostResult {
                ratc_replicas,
                baseline_replicas,
                ratc_total_processes: ratc_total,
                baseline_total_processes: baseline_total,
            };
            assert_eq!(replication_cost_experiment(f), want, "f = {f}");
        }
    }

    /// Figure 2a's failure-free flow involves every shard of a transaction:
    /// commits depend only on the keys per transaction, not on the shard
    /// count, and latency stays flat.
    #[test]
    fn e4_scaling_commits_the_same_at_every_shard_count() {
        // (shards, keys per tx, committed, mean µs)
        let expected = [
            (2, 1, 300, 335.3466666666667),
            (2, 2, 297, 342.3466666666667),
            (2, 4, 289, 354.5833333333333),
            (4, 1, 300, 282.44),
            (4, 2, 297, 295.5833333333333),
            (4, 4, 289, 302.2866666666667),
            (8, 1, 300, 263.0466666666667),
            (8, 2, 297, 276.02),
            (8, 4, 289, 284.3066666666667),
        ];
        for (shards, keys_per_tx, committed, mean_latency_micros) in expected {
            let want = ScalingResult {
                committed,
                sim_millis: 20.0,
                mean_latency_micros,
            };
            assert_eq!(
                scaling_experiment(shards, keys_per_tx),
                want,
                "{keys_per_tx} keys on {shards} shards"
            );
        }
    }

    /// `g_s` aborts transactions that conflict with prepared-but-undecided
    /// ones (§2, §5); ratc-mp and ratc-rdma abort exactly alike here (see
    /// [`abort_rate_experiment`]).
    #[test]
    fn e5_abort_rows_are_equal_on_both_ratc_stacks() {
        let expected = [
            (KeyDistribution::Uniform, 50, 250),
            (KeyDistribution::Zipfian { theta: 0.9 }, 28, 272),
            (KeyDistribution::Zipfian { theta: 1.2 }, 13, 287),
            (KeyDistribution::Hotspot { hot_keys: 4 }, 2, 298),
        ];
        for (distribution, committed, aborted) in expected {
            let mp = abort_rate_experiment(StackKind::Core, distribution);
            assert_eq!(
                mp,
                AbortRateResult { committed, aborted },
                "{distribution:?}"
            );
            assert_eq!(
                abort_rate_experiment(StackKind::Rdma, distribution),
                mp,
                "{distribution:?}"
            );
        }
    }

    /// With f+1 replicas a failure blocks the shard until reconfiguration
    /// completes; with 2f+1 the baseline masks it (§1, §6).
    #[test]
    fn e6_reconfiguration_blocks_ratc_but_not_baseline() {
        let expected = [
            (StackKind::Core, [11118, 11141, 11067]),
            (StackKind::Rdma, [11160, 11183, 11114]),
            (StackKind::Baseline, [346, 347, 371]),
        ];
        for (stack, recovery) in expected {
            for (seed, recovery_micros) in (1..).zip(recovery) {
                let want = ReconfigurationResult {
                    committed_after_crash: 15,
                    recovery_micros,
                };
                assert_eq!(
                    reconfiguration_experiment(stack, seed),
                    want,
                    "{stack} seed {seed}"
                );
            }
        }
    }

    /// Checkpointed truncation bounds the retained log far below the
    /// logical history (`max_log_next`, what an untruncated member retains)
    /// on every stack.
    #[test]
    fn e7_truncation_bounds_log_memory() {
        let expected = [
            (StackKind::Core, 6, 899),
            (StackKind::Rdma, 4, 898),
            (StackKind::Baseline, 0, 0),
        ];
        for (stack, max_retained_slots, slots_truncated) in expected {
            let want = TruncationResult {
                decided: 300,
                max_retained_slots,
                max_log_next: 227,
                slots_truncated,
            };
            assert_eq!(truncation_experiment(stack), want, "{stack}");
        }
    }

    /// Invariants 1-5 (Figure 3) and the TCS specification hold on every
    /// randomized execution, reconfigurations included (§3, §4).
    #[test]
    fn e8_randomized_runs_have_no_violations() {
        let want = InvariantsResult {
            committed: 665,
            aborted: 835,
            runs_with_reconfiguration: 39,
            invariant_violations: 0,
            spec_violations: 0,
        };
        assert_eq!(invariants_experiment(), want);
    }

    /// Batching divides the shard leader's per-transaction message load by
    /// the batch size on the RATC stacks (3 → 3/32 on both), while every
    /// transaction still commits. On the baseline everything but the 2PC
    /// `PREPARE` is batched (the shard's Paxos round, the `VoteBatch`, the
    /// TM's `Decision` and its relay), so its 15 messages per transaction
    /// fall towards that one unbatched `PREPARE` (1.45 at batch 32).
    #[test]
    fn e8_batching_amortises_leader_messages() {
        // (batch, stack, leader msgs/tx, commits/step, PREPARE_BATCHes)
        let expected = [
            (1, StackKind::Core, 3.0, 0.12496948987063705, 512),
            (1, StackKind::Rdma, 3.0, 0.07691152170647439, 512),
            (1, StackKind::Baseline, 15.015625, 0.04342663273960984, 0),
            (2, StackKind::Core, 1.5, 0.1997658993367148, 256),
            (2, StackKind::Rdma, 1.5, 0.13322924798334634, 256),
            (2, StackKind::Baseline, 8.015625, 0.07669263031755542, 0),
            (4, StackKind::Core, 0.75, 0.2852367688022284, 128),
            (4, StackKind::Rdma, 0.75, 0.21026694045174538, 128),
            (4, StackKind::Baseline, 4.515625, 0.12439261418853255, 0),
            (8, StackKind::Core, 0.375, 0.3628632175761871, 64),
            (8, StackKind::Rdma, 0.375, 0.29595375722543354, 64),
            (8, StackKind::Baseline, 2.765625, 0.18053596614950634, 0),
            (16, StackKind::Core, 0.1875, 0.4200164068908942, 32),
            (16, StackKind::Rdma, 0.1875, 0.37155297532656023, 32),
            (16, StackKind::Baseline, 1.890625, 0.2331511839708561, 0),
            (32, StackKind::Core, 0.09375, 0.45592163846838824, 16),
            (32, StackKind::Rdma, 0.09375, 0.4259567387687188, 16),
            (32, StackKind::Baseline, 1.453125, 0.27292110874200426, 0),
        ];
        for (batch, stack, leader_msgs_per_txn, commits_per_step, prepare_batches) in expected {
            let want = BatchingResult {
                committed: 512,
                leader_msgs_per_txn,
                commits_per_step,
                prepare_batches,
            };
            assert_eq!(
                batching_experiment(stack, batch),
                want,
                "{stack} batch {batch}"
            );
        }
    }

    /// Flow control drains an open-loop flood on the threaded engine: every
    /// transaction decides, on every stack.
    #[test]
    fn e10_overload_smoke_decides_everything_on_all_stacks() {
        let want = OverloadResult {
            committed: 48,
            aborted: 0,
            undecided: 0,
        };
        for stack in STACKS {
            assert_eq!(overload_experiment(stack), want, "{stack}");
        }
    }

    /// The idle commit path phase by phase: RATC certifies in 104 µs against
    /// the baseline's 293 (delays 2-3 against 2PC + Paxos rounds), and
    /// ratc-rdma's one-sided writes cut the quorum phase from 102 to 30 µs.
    #[test]
    fn e11_idle_phases_sum_to_the_end_to_end_latency() {
        // (stack, certification, quorum, total µs); admission, dispatch and
        // decide are 0 and the relay to the client 42 µs on every stack.
        let expected = [
            (StackKind::Core, 104, 102, 248),
            (StackKind::Rdma, 104, 30, 176),
            (StackKind::Baseline, 293, 212, 547),
        ];
        for (stack, certification, quorum, total) in expected {
            let breakdown = phase_experiment(stack);
            let phases = [0, 0, certification, quorum, 0, 42];
            assert_eq!(breakdown.phases(), phases, "{stack}");
            assert_eq!(breakdown.total_micros(), total, "{stack}");
            assert_eq!(breakdown.retries(), 0, "{stack}");
        }
    }
}
