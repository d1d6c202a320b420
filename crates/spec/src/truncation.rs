//! Differential testing of checkpointed log truncation.
//!
//! `ratc-core`'s `CertificationLog` can fold a fully-decided, hole-free
//! prefix into a `Checkpoint` and free the physical slots
//! (`CertificationLog::truncate_to`). Truncation must be *observationally
//! invisible* to certification: a truncating log and an untruncated mirror
//! replaying the same schedule must agree, at every step, on
//!
//! * the leader's vote for any candidate payload (`vote_at`),
//! * the position of every transaction ever logged (`position_of`),
//! * the identity and final decision visible at every position
//!   (`slot_identity`), and
//! * the decided frontier.
//!
//! The walk reuses the randomized schedule generator of [`crate::indexed`]
//! (appends, out-of-order stores creating holes, out-of-order commit/abort
//! decides) and additionally, on the truncating log only, truncates at its
//! decided frontier and restarts (`CertificationLog::restart`: the lock
//! table is rebuilt, the committed set kept) at random points. Every failure
//! is reproducible from its seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_core::log::{CertificationLog, LogEntry, TxPhase};
use ratc_types::{CertificationPolicy, Decision, Position, ProcessId, ShardId, TxId};

use crate::indexed::random_payload;

/// Statistics of one truncation differential walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TruncationReport {
    /// Schedule steps executed.
    pub steps: usize,
    /// Candidate votes compared (several per step).
    pub votes_checked: usize,
    /// `position_of` probes compared.
    pub positions_checked: usize,
    /// Truncations that actually freed slots.
    pub truncations: usize,
    /// Total physical slots freed.
    pub slots_freed: usize,
    /// Maximum retained slot count observed on the truncating log.
    pub max_retained: usize,
    /// Restarts of the truncating log.
    pub restarts: usize,
}

/// Replays a randomized certification schedule on a *truncating* log and an
/// *untruncated mirror*, checking after every step that votes, positions,
/// slot identities and frontiers agree (see the module docs).
///
/// # Errors
///
/// Returns a description of the first divergence (including the seed), or
/// the walk's statistics on success.
pub fn differential_truncation_check(
    policy: &dyn CertificationPolicy,
    seed: u64,
    steps: usize,
) -> Result<TruncationReport, String> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let shard = ShardId::new(0);
    let mut truncating = CertificationLog::with_certifier(policy.indexed_certifier(shard));
    let mut mirror = CertificationLog::with_certifier(policy.indexed_certifier(shard));
    let mut undecided: Vec<Position> = Vec::new();
    let mut all_txs: Vec<TxId> = Vec::new();
    let mut report = TruncationReport::default();
    let mut next_tx = 1u64;

    let make_entry = |rng: &mut ChaCha12Rng, tx: u64| LogEntry {
        tx: TxId::new(tx),
        payload: random_payload(rng, 8, 16),
        vote: if rng.gen_bool(0.8) {
            Decision::Commit
        } else {
            Decision::Abort
        },
        dec: None,
        phase: TxPhase::Prepared,
        shards: vec![shard],
        client: ProcessId::new(7),
    };

    for step in 0..steps {
        report.steps += 1;
        match rng.gen_range(0..13u32) {
            // Append a prepared entry to both logs.
            0..=4 => {
                let entry = make_entry(&mut rng, next_tx);
                all_txs.push(entry.tx);
                next_tx += 1;
                let pos = truncating.append(entry.clone());
                let mirror_pos = mirror.append(entry);
                if pos != mirror_pos {
                    return Err(format!(
                        "seed {seed} step {step}: append positions diverged ({pos} vs {mirror_pos})"
                    ));
                }
                undecided.push(pos);
            }
            // Store past the end, creating holes (follower behaviour).
            5 => {
                let skip = rng.gen_range(1..=2u64);
                let pos = Position::new(truncating.next().as_u64() + skip);
                let entry = make_entry(&mut rng, next_tx);
                let stored = truncating.store_at(pos, entry.clone());
                let mirrored = mirror.store_at(pos, entry.clone());
                if stored != mirrored {
                    return Err(format!(
                        "seed {seed} step {step}: store_at({pos}) diverged ({stored} vs {mirrored})"
                    ));
                }
                if stored {
                    all_txs.push(entry.tx);
                    next_tx += 1;
                    undecided.push(pos);
                }
            }
            // Decide a random undecided slot, out of order.
            6..=8 if !undecided.is_empty() => {
                let pick = rng.gen_range(0..undecided.len());
                let pos = undecided.swap_remove(pick);
                let decision = if rng.gen_bool(0.7) {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                truncating.decide(pos, decision);
                mirror.decide(pos, decision);
            }
            // Truncate at (or past) the decided frontier — the mirror never
            // truncates. Occasionally ask for a stale floor below the
            // frontier to exercise the partial fold.
            9..=10 => {
                let frontier = truncating.decided_frontier();
                let target = if rng.gen_bool(0.3) {
                    Position::new(rng.gen_range(0..=frontier.as_u64()))
                } else {
                    Position::new(frontier.as_u64() + rng.gen_range(0..3u64))
                };
                let freed = truncating.truncate_to(target);
                if freed > 0 {
                    report.truncations += 1;
                    report.slots_freed += freed;
                }
            }
            // Restart the truncating log: its lock table is rebuilt from
            // the retained slots, its committed set is stable.
            12 => {
                truncating.restart();
                report.restarts += 1;
            }
            // Decide a hole, an already-decided or a truncated slot: must be
            // a no-op on both logs.
            _ => {
                let pos = Position::new(rng.gen_range(0..(truncating.next().as_u64() + 2)));
                let decision = if rng.gen_bool(0.5) {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                if truncating.phase(pos) != TxPhase::Prepared {
                    truncating.decide(pos, decision);
                    mirror.decide(pos, decision);
                }
            }
        }
        report.max_retained = report.max_retained.max(truncating.len());

        // Structural agreement.
        if truncating.next() != mirror.next() {
            return Err(format!(
                "seed {seed} step {step}: next diverged ({} vs {})",
                truncating.next(),
                mirror.next()
            ));
        }
        if truncating.decided_frontier() != mirror.decided_frontier() {
            return Err(format!(
                "seed {seed} step {step}: decided frontier diverged ({} vs {})",
                truncating.decided_frontier(),
                mirror.decided_frontier()
            ));
        }

        // Vote agreement on random candidates.
        for _ in 0..3 {
            let candidate = random_payload(&mut rng, 8, 16);
            let lhs = truncating.vote_at(truncating.next(), &candidate);
            let rhs = mirror.vote_at(mirror.next(), &candidate);
            report.votes_checked += 1;
            if lhs != rhs {
                return Err(format!(
                    "policy {} diverged at seed {seed} step {step}: truncating {lhs:?} vs \
                     mirror {rhs:?} for candidate {candidate} (base {})",
                    policy.name(),
                    truncating.base()
                ));
            }
        }

        // position_of and slot-identity agreement over the whole history
        // (sampled: the newest few plus random older transactions).
        let probes = all_txs.len().min(4);
        for i in 0..probes {
            let tx = if i < 2 && all_txs.len() >= 2 {
                all_txs[all_txs.len() - 1 - i]
            } else {
                all_txs[rng.gen_range(0..all_txs.len())]
            };
            report.positions_checked += 1;
            let lhs = truncating.position_of(tx);
            let rhs = mirror.position_of(tx);
            if lhs != rhs {
                return Err(format!(
                    "seed {seed} step {step}: position_of({tx}) diverged ({lhs:?} vs {rhs:?})"
                ));
            }
            if let Some(pos) = lhs {
                let lhs_id = truncating.slot_identity(pos);
                let rhs_id = mirror.slot_identity(pos);
                if lhs_id != rhs_id {
                    return Err(format!(
                        "seed {seed} step {step}: slot_identity({pos}) diverged \
                         ({lhs_id:?} vs {rhs_id:?})"
                    ));
                }
            }
        }

        // The truncating log must remain a (checkpoint-aware) prefix of the
        // mirror and vice versa.
        if !truncating.is_prefix_with_holes_of(&mirror, mirror.next())
            || !mirror.is_prefix_with_holes_of(&truncating, truncating.next())
        {
            return Err(format!(
                "seed {seed} step {step}: prefix-with-holes relation broken at base {}",
                truncating.base()
            ));
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use ratc_types::{
        IndexedCertifier, Key, Payload, Serializability, ShardCertifier, Value, WriteConflict,
    };

    use crate::indexed::MirrorCertifier;

    /// A policy whose `f_s` reads committed values, not only versions: a
    /// transaction that reads a key some committed transaction wrote
    /// `"tombstone"` aborts. A per-key newest-writer summary cannot answer
    /// it; only an index that keeps the committed payloads can, so its index
    /// is the mirror.
    #[derive(Debug)]
    struct Tombstones;

    impl ShardCertifier for Tombstones {
        fn certify_committed(&self, committed: &[&Payload], payload: &Payload) -> Decision {
            let tombstone = Value::from("tombstone");
            let buried = |key: &Key| {
                committed
                    .iter()
                    .any(|c| c.writes().any(|(k, v)| k == key && *v == tombstone))
            };
            match payload.reads().any(|(key, _)| buried(key)) {
                true => Decision::Abort,
                false => Decision::Commit,
            }
        }

        fn certify_prepared(&self, prepared: &[&Payload], payload: &Payload) -> Decision {
            let locked = |key: &Key| prepared.iter().any(|p| p.writes_key(key));
            match payload.reads().any(|(key, _)| locked(key)) {
                true => Decision::Abort,
                false => Decision::Commit,
            }
        }
    }

    impl CertificationPolicy for Tombstones {
        fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
            ShardCertifier::certify_committed(self, committed, payload)
        }
        fn shard_certifier(&self, _shard: ShardId) -> Arc<dyn ShardCertifier> {
            Arc::new(Tombstones)
        }
        fn indexed_certifier(&self, shard: ShardId) -> Box<dyn IndexedCertifier> {
            Box::new(MirrorCertifier::new(self.shard_certifier(shard)))
        }
        fn name(&self) -> &'static str {
            "tombstones"
        }
    }

    /// Truncation and restarts keep `L1` whatever a policy's `f_s` reads of
    /// committed payloads: the truncating log restarts, and votes like the
    /// untruncated one, over the mirror of a value-reading policy.
    #[test]
    fn tombstones_truncating_log_agrees_with_mirror() {
        let mut totals = TruncationReport::default();
        for seed in 0..24 {
            let report = differential_truncation_check(&Tombstones, seed, 150)
                .unwrap_or_else(|e| panic!("{e}"));
            totals.truncations += report.truncations;
            totals.restarts += report.restarts;
        }
        assert!(totals.truncations > 0 && totals.restarts > 0, "{totals:?}");
    }

    #[test]
    fn serializability_truncating_log_agrees_with_mirror() {
        let mut totals = TruncationReport::default();
        for seed in 0..24 {
            let report = differential_truncation_check(&Serializability::new(), seed, 150)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(report.votes_checked >= 450);
            totals.truncations += report.truncations;
            totals.restarts += report.restarts;
        }
        assert!(totals.truncations > 0, "the walks never truncated anything");
        assert!(totals.restarts > 0, "{totals:?}");
    }

    #[test]
    fn write_conflict_truncating_log_agrees_with_mirror() {
        let mut totals = TruncationReport::default();
        for seed in 0..24 {
            let report = differential_truncation_check(&WriteConflict::new(), seed, 150)
                .unwrap_or_else(|e| panic!("{e}"));
            totals.truncations += report.truncations;
            totals.restarts += report.restarts;
        }
        assert!(totals.truncations > 0, "the walks never truncated anything");
        assert!(totals.restarts > 0, "{totals:?}");
    }

    /// Acceptance: a 100k-transaction history with periodic truncation keeps
    /// the retained slot count bounded by the undecided window (< 1k slots),
    /// while votes and positions keep agreeing with an untruncated mirror.
    #[test]
    fn hundred_thousand_transactions_with_bounded_retained_slots() {
        let policy = Serializability::new();
        let shard = ShardId::new(0);
        let mut truncating = CertificationLog::with_certifier(policy.indexed_certifier(shard));
        let mut mirror = CertificationLog::with_certifier(policy.indexed_certifier(shard));
        let mut rng = ChaCha12Rng::seed_from_u64(42);
        let total = 100_000u64;
        // Decisions trail appends by a jittered window, as in a live shard.
        let mut decide_upto = 0u64;
        let mut max_retained = 0usize;
        for i in 0..total {
            let entry = LogEntry {
                tx: TxId::new(i + 1),
                payload: random_payload(&mut rng, 64, 1 << 20),
                vote: Decision::Commit,
                dec: None,
                phase: TxPhase::Prepared,
                shards: vec![shard],
                client: ProcessId::new(7),
            };
            truncating.append(entry.clone());
            mirror.append(entry);
            // Decide everything up to a trailing point.
            let window = rng.gen_range(1..64u64);
            while decide_upto + window <= i + 1 {
                let decision = if rng.gen_bool(0.9) {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                truncating.decide(Position::new(decide_upto), decision);
                mirror.decide(Position::new(decide_upto), decision);
                decide_upto += 1;
            }
            // Truncate in batches of 256 decided slots.
            if truncating.decided_frontier().as_u64() >= truncating.base().as_u64() + 256 {
                truncating.truncate_to(truncating.decided_frontier());
            }
            max_retained = max_retained.max(truncating.len());
            // Sparse differential probes keep the test fast.
            if i % 5_000 == 0 {
                let candidate = random_payload(&mut rng, 64, 1 << 20);
                assert_eq!(
                    truncating.vote_at(truncating.next(), &candidate),
                    mirror.vote_at(mirror.next(), &candidate),
                    "vote diverged at tx {i}"
                );
                let probe = TxId::new(rng.gen_range(0..i + 1) + 1);
                assert_eq!(
                    truncating.position_of(probe),
                    mirror.position_of(probe),
                    "position diverged at tx {i}"
                );
            }
        }
        assert_eq!(truncating.next().as_u64(), total);
        assert!(
            max_retained < 1_000,
            "peak retained slots {max_retained} not bounded by the undecided window"
        );
        assert!(truncating.base().as_u64() > total - 1_000);
        // Every decision of the truncated history survives in the checkpoint.
        assert_eq!(
            truncating.checkpoint().decided_count() as u64,
            truncating.base().as_u64()
        );
        // Final full agreement on fresh candidates.
        for _ in 0..32 {
            let candidate = random_payload(&mut rng, 64, 1 << 20);
            assert_eq!(
                truncating.vote_at(truncating.next(), &candidate),
                mirror.vote_at(mirror.next(), &candidate)
            );
        }
    }
}
