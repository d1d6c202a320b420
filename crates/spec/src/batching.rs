//! Differential testing of the batched certification pipeline.
//!
//! Batching (`ratc_core::batch`) is pure transport-level coalescing: a batch
//! carries the same per-transaction payloads, votes and decisions as batches
//! of one (the paper's exchange) would, and a leader certifies a batch in
//! submission order. Replaying the *same* randomized workload through two
//! clusters — the reference at batch size 1 ("unbatched" below), the other
//! at a batch size N — must therefore produce, at quiescence:
//!
//! * the **same history**: every transaction gets the same commit/abort
//!   decision in both runs;
//! * the **same certification order**: every shard leader's log assigns the
//!   same position to the same transaction, with the same vote and payload
//!   (compared checkpoint-aware, so runs interleaved with truncation are
//!   covered);
//! * no specification violations in either run.
//!
//! The determinism argument: both runs submit through one fixed coordinator,
//! and the network is FIFO per channel, so each shard leader receives the
//! coordinator's prepares — batched or not — in submission order and
//! certifies them in that order. The walks randomize payload contention,
//! batch sizes and wave pacing, and optionally interleave checkpointed
//! truncation and a crash-plus-reconfiguration at a wave boundary. Every
//! failure is reproducible from its seed.

use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;
use ratc_core::batch::BatchingConfig;
use ratc_core::harness::Cluster;
use ratc_core::log::CertificationLog;
use ratc_core::replica::{Replica, TruncationConfig};
use ratc_harness::{ClusterSpec, StackKind, TcsCluster};
use ratc_types::{Payload, ShardId, TxId};

use crate::indexed::random_payload;

/// One randomized batching-equivalence scenario.
#[derive(Debug, Clone)]
pub struct BatchingScenario {
    /// RNG seed (drives payloads, pacing and the simulated network).
    pub seed: u64,
    /// Number of shards in both deployments.
    pub shards: u32,
    /// Transactions submitted.
    pub tx_count: usize,
    /// Batch size of the batched run (the reference run never batches).
    ///
    /// Votes are interleaving-sensitive: an abort decision releases the
    /// loser's writes from the certification index, so a certification
    /// delayed past a same-wave abort can legitimately flip commit. The
    /// differential is stated over runs with *identical* certification and
    /// decision interleaving, which submitting exactly one batch per wave
    /// guarantees.
    pub batch: usize,
    /// Checkpointed-truncation fold batch, or `None` to disable truncation.
    pub truncation_batch: Option<u64>,
    /// Whether to crash a shard-0 follower and reconfigure mid-run (at a
    /// quiescent wave boundary, so both runs reconfigure identically).
    pub reconfigure: bool,
}

/// Statistics of one batching differential walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BatchingReport {
    /// Transactions decided (in each run).
    pub decided: usize,
    /// `PREPARE_BATCH` messages the batched run actually sent.
    pub batches_sent: u64,
    /// Log slots compared position-for-position across the two runs.
    pub slots_compared: usize,
}

fn build_cluster(scenario: &BatchingScenario, batching: BatchingConfig) -> Cluster {
    let truncation = match scenario.truncation_batch {
        Some(batch) => TruncationConfig::with_batch(batch),
        None => TruncationConfig::disabled(),
    };
    // Built from the unified spec, but as the *concrete* core cluster: the
    // differential below compares per-slot log state, which is white-box.
    ClusterSpec::new(StackKind::Core)
        .with_shards(scenario.shards)
        .with_seed(scenario.seed)
        .with_truncation(truncation)
        .with_batching(batching)
        .build_core()
}

fn leader_log(cluster: &Cluster, shard: ShardId) -> &CertificationLog {
    let leader = cluster.shard_view(shard).leader.expect("leader");
    cluster
        .world
        .actor::<Replica>(leader)
        .expect("replica")
        .log()
}

/// Replays one scenario through an unbatched and a batched cluster and
/// checks history and per-shard log equivalence (see the module docs).
///
/// # Errors
///
/// Returns a description of the first divergence, or of an invalid scenario
/// (always including the seed); the walk's statistics on success.
pub fn differential_batching_check(scenario: &BatchingScenario) -> Result<BatchingReport, String> {
    let seed = scenario.seed;
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let txs: Vec<(TxId, Payload)> = (0..scenario.tx_count)
        .map(|i| (TxId::new(i as u64 + 1), random_payload(&mut rng, 12, 16)))
        .collect();
    let wave = scenario.batch.max(2);
    let reconfig_wave = txs.len() / wave / 2;
    // The fixed coordinator lives in the highest shard; the reconfigure
    // branch crashes a shard-0 follower. With a single shard those coincide
    // and the walk would crash its own coordinator — an artifact of the
    // harness, not a batching divergence.
    if scenario.reconfigure && scenario.shards < 2 {
        return Err(format!(
            "seed {seed}: invalid scenario — reconfigure needs >= 2 shards \
             (the coordinator must survive the crash)"
        ));
    }

    let mut unbatched = build_cluster(scenario, BatchingConfig::disabled());
    let mut batched = build_cluster(scenario, BatchingConfig::with_batch(scenario.batch));
    // One fixed coordinator (a shard-1 member when available, so it is never
    // a member of the reconfigured shard 0): certifies reach every leader in
    // submission order in both runs.
    let coordinator_shard = ShardId::new(scenario.shards.saturating_sub(1));
    if unbatched.shard_view(coordinator_shard).roster.len() < 2 {
        return Err(format!(
            "seed {seed}: invalid scenario — shard {coordinator_shard} needs a \
             non-leader member to coordinate from"
        ));
    }
    let coord_a = unbatched.shard_view(coordinator_shard).roster[1];
    let coord_b = batched.shard_view(coordinator_shard).roster[1];

    for (wave_idx, chunk) in txs.chunks(wave).enumerate() {
        for (tx, payload) in chunk {
            unbatched.submit_via(*tx, payload.clone(), coord_a);
            batched.submit_via(*tx, payload.clone(), coord_b);
        }
        unbatched.run_to_quiescence();
        batched.run_to_quiescence();
        if scenario.reconfigure && wave_idx == reconfig_wave {
            let shard = ShardId::new(0);
            for cluster in [&mut unbatched, &mut batched] {
                let view = cluster.shard_view(shard);
                let leader = view.leader.expect("leader");
                let follower = *view
                    .roster
                    .iter()
                    .find(|p| **p != leader)
                    .expect("follower");
                cluster.crash(follower);
                cluster.start_reconfiguration(shard, leader, vec![follower]);
                cluster.run_to_quiescence();
            }
        }
    }

    // History equivalence: identical decision for every transaction.
    let history_a = unbatched.history();
    let history_b = batched.history();
    let mut report = BatchingReport {
        decided: history_a.decide_count(),
        batches_sent: batched.world.metrics().counter("prepare_batches_sent"),
        slots_compared: 0,
    };
    if history_a.decide_count() != history_b.decide_count() {
        return Err(format!(
            "seed {seed}: decided counts diverged ({} unbatched vs {} batched)",
            history_a.decide_count(),
            history_b.decide_count()
        ));
    }
    for (tx, _) in &txs {
        let da = history_a.decision(*tx);
        let db = history_b.decision(*tx);
        if da != db {
            return Err(format!(
                "seed {seed}: decision of {tx} diverged ({da:?} unbatched vs {db:?} batched)"
            ));
        }
    }
    if !unbatched.client_violations().is_empty() || !batched.client_violations().is_empty() {
        return Err(format!(
            "seed {seed}: specification violations (unbatched {:?}, batched {:?})",
            unbatched.client_violations(),
            batched.client_violations()
        ));
    }

    // Certification-order equivalence at every shard leader, checkpoint-aware
    // (truncation frontiers may differ between the runs; identities and
    // decisions must not).
    for shard in unbatched.shards() {
        let log_a = leader_log(&unbatched, shard);
        let log_b = leader_log(&batched, shard);
        if log_a.next() != log_b.next() {
            return Err(format!(
                "seed {seed} shard {shard}: log lengths diverged ({} vs {})",
                log_a.next(),
                log_b.next()
            ));
        }
        for raw in 0..log_a.next().as_u64() {
            let pos = ratc_types::Position::new(raw);
            report.slots_compared += 1;
            let id_a = log_a.slot_identity(pos);
            let id_b = log_b.slot_identity(pos);
            if id_a != id_b {
                return Err(format!(
                    "seed {seed} shard {shard} slot {pos}: identity diverged ({id_a:?} vs {id_b:?})"
                ));
            }
            // Where both runs still retain the slot, votes and payloads must
            // match verbatim.
            if let (Some(entry_a), Some(entry_b)) = (log_a.get(pos), log_b.get(pos)) {
                if entry_a.vote != entry_b.vote || entry_a.payload != entry_b.payload {
                    return Err(format!(
                        "seed {seed} shard {shard} slot {pos}: vote/payload diverged \
                         ({:?} vs {:?})",
                        entry_a.vote, entry_b.vote
                    ));
                }
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn batched_runs_produce_identical_histories() {
        let mut batches = 0;
        for seed in 0..8u64 {
            let mut rng = ChaCha12Rng::seed_from_u64(seed.wrapping_mul(977));
            let scenario = BatchingScenario {
                seed,
                shards: 2,
                tx_count: 48,
                batch: rng.gen_range(2..=8),
                truncation_batch: None,
                reconfigure: false,
            };
            let report = differential_batching_check(&scenario).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(report.decided, 48);
            assert!(report.slots_compared > 0);
            batches += report.batches_sent;
        }
        assert!(batches > 0, "the batched runs never batched anything");
    }

    #[test]
    fn batches_interleaved_with_truncation_stay_equivalent() {
        for seed in 0..6u64 {
            let scenario = BatchingScenario {
                seed: seed + 100,
                shards: 2,
                tx_count: 64,
                batch: 8,
                truncation_batch: Some(8),
                reconfigure: false,
            };
            let report = differential_batching_check(&scenario).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(report.decided, 64);
        }
    }

    #[test]
    fn batches_interleaved_with_reconfiguration_stay_equivalent() {
        for seed in 0..4u64 {
            let scenario = BatchingScenario {
                seed: seed + 200,
                shards: 2,
                tx_count: 48,
                batch: 6,
                truncation_batch: Some(8),
                reconfigure: true,
            };
            let report = differential_batching_check(&scenario).unwrap_or_else(|e| panic!("{e}"));
            assert_eq!(report.decided, 48);
        }
    }
}
