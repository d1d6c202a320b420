//! Differential testing of the incremental certification index.
//!
//! `ratc-types` ships two formulations of every certification policy: the
//! paper's *set-based* functions (`f_s`/`g_s` over explicit payload slices)
//! and the *incremental* [`IndexedCertifier`](ratc_types::IndexedCertifier)
//! that `ratc-core`'s `CertificationLog` maintains at phase transitions. The
//! set-based functions are the specification; the index is an optimisation
//! whose soundness rests on distributivity (property (1) of the paper). This
//! module checks the two against each other *vote-for-vote* on randomized
//! certification schedules that exercise everything the protocols can throw
//! at a log:
//!
//! * appends of prepared entries with commit and abort votes,
//! * out-of-order stores that create holes (follower behaviour),
//! * commit and abort decides in random order, including decides of holes,
//! * adversarial decided-commit slots whose vote was abort.
//!
//! The walk is driven by the workspace's deterministic RNG, so every failure
//! is reproducible from its seed.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_core::log::{CertificationLog, LogEntry, TxPhase};
use ratc_types::{
    CertificationPolicy, Decision, Key, Payload, Position, ProcessId, ShardId, TxId, Value, Version,
};

/// Statistics of one differential walk, for test-output visibility.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DifferentialReport {
    /// Schedule steps executed.
    pub steps: usize,
    /// Candidate votes compared (several per step).
    pub votes_checked: usize,
    /// Decides applied (commit and abort).
    pub decides: usize,
    /// Holes created by out-of-order stores.
    pub holes_created: usize,
}

/// Draws a random payload over a small key universe (so conflicts actually
/// happen): 1–3 reads, 0–2 writes (each written key is also read), and a
/// commit version in `1..version_bound`.
pub fn random_payload(rng: &mut ChaCha12Rng, key_universe: u32, version_bound: u64) -> Payload {
    let mut builder = Payload::builder();
    let reads = rng.gen_range(1..=3usize);
    let mut read_keys = Vec::new();
    for _ in 0..reads {
        let key = Key::new(format!("k{}", rng.gen_range(0..key_universe)));
        builder = builder.read(key.clone(), Version::new(rng.gen_range(0..version_bound)));
        read_keys.push(key);
    }
    let writes = rng.gen_range(0..=2usize).min(read_keys.len());
    for key in read_keys.into_iter().take(writes) {
        builder = builder.write(key, Value::from("w"));
    }
    builder
        .commit_version(Version::new(rng.gen_range(1..version_bound)))
        .build_unchecked()
}

/// The set-based reference vote for a payload about to occupy `log.next()`:
/// the paper's `f_s(L1, l) ⊓ g_s(L2, l)` computed by scanning the log.
pub fn scan_vote(
    log: &CertificationLog,
    policy: &dyn CertificationPolicy,
    payload: &Payload,
) -> Decision {
    let next = log.next();
    let committed = log.committed_payloads_before(next);
    let prepared = log.prepared_payloads_before(next);
    policy
        .shard_certifier(ShardId::new(0))
        .vote(&committed, &prepared, payload)
}

/// Runs a randomized certification schedule against an indexed log and checks
/// the indexed vote against the set-based reference after every step.
///
/// # Errors
///
/// Returns a description of the first divergence (including the seed and the
/// offending candidate payload), or the walk's statistics on success.
pub fn differential_vote_check(
    policy: &dyn CertificationPolicy,
    seed: u64,
    steps: usize,
) -> Result<DifferentialReport, String> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let mut log = CertificationLog::with_certifier(policy.indexed_certifier(ShardId::new(0)));
    let mut undecided: Vec<Position> = Vec::new();
    let mut report = DifferentialReport::default();
    let mut next_tx = 1u64;

    for step in 0..steps {
        report.steps += 1;
        match rng.gen_range(0..10u32) {
            // Append a prepared entry (vote commit 4/5 of the time).
            0..=4 => {
                let payload = random_payload(&mut rng, 8, 16);
                let vote = if rng.gen_bool(0.8) {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                let pos = log.append(LogEntry {
                    tx: TxId::new(next_tx),
                    payload,
                    vote,
                    dec: None,
                    phase: TxPhase::Prepared,
                    shards: vec![ShardId::new(0)],
                    client: ProcessId::new(7),
                });
                next_tx += 1;
                undecided.push(pos);
            }
            // Store past the end, creating holes (follower behaviour).
            5 => {
                let skip = rng.gen_range(1..=2u64);
                let pos = Position::new(log.next().as_u64() + skip);
                let payload = random_payload(&mut rng, 8, 16);
                if log.store_at(
                    pos,
                    LogEntry {
                        tx: TxId::new(next_tx),
                        payload,
                        vote: Decision::Commit,
                        dec: None,
                        phase: TxPhase::Prepared,
                        shards: vec![ShardId::new(0)],
                        client: ProcessId::new(7),
                    },
                ) {
                    next_tx += 1;
                    undecided.push(pos);
                    report.holes_created += skip as usize;
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
                log.decide(pos, decision);
                report.decides += 1;
            }
            // Decide a hole or an already-decided slot: must be a no-op.
            _ => {
                let pos = Position::new(rng.gen_range(0..(log.len() as u64 + 2)));
                let decision = if rng.gen_bool(0.5) {
                    Decision::Commit
                } else {
                    Decision::Abort
                };
                if log.phase(pos) != TxPhase::Prepared {
                    log.decide(pos, decision);
                }
            }
        }

        // After every step, several random candidates must vote identically
        // under the index and under the set-based scans.
        for _ in 0..3 {
            let candidate = random_payload(&mut rng, 8, 16);
            let indexed = log.vote_at(log.next(), &candidate);
            let reference = scan_vote(&log, policy, &candidate);
            report.votes_checked += 1;
            if indexed != reference {
                return Err(format!(
                    "policy {} diverged at seed {seed} step {step}: indexed {indexed:?} \
                     vs reference {reference:?} for candidate {candidate}",
                    policy.name()
                ));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ratc_types::{Serializability, WriteConflict};

    #[test]
    fn serializability_index_agrees_with_reference() {
        for seed in 0..32 {
            let report = differential_vote_check(&Serializability::new(), seed, 120)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(report.votes_checked >= 360);
        }
    }

    #[test]
    fn write_conflict_index_agrees_with_reference() {
        for seed in 0..32 {
            let report = differential_vote_check(&WriteConflict::new(), seed, 120)
                .unwrap_or_else(|e| panic!("{e}"));
            assert!(report.votes_checked >= 360);
        }
    }

    #[test]
    fn mirror_fallback_agrees_with_reference() {
        use std::sync::Arc;
        /// A policy that does not override `indexed_certifier`, exercising the
        /// `MirrorCertifier` default through the same schedules.
        #[derive(Debug)]
        struct Plain;
        impl CertificationPolicy for Plain {
            fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
                Serializability::new().certify(committed, payload)
            }
            fn shard_certifier(&self, shard: ShardId) -> Arc<dyn ratc_types::ShardCertifier> {
                Serializability::new().shard_certifier(shard)
            }
            fn name(&self) -> &'static str {
                "plain-serializability"
            }
        }
        for seed in 0..8 {
            differential_vote_check(&Plain, seed, 80).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn random_payloads_stay_in_universe() {
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for _ in 0..100 {
            let p = random_payload(&mut rng, 4, 8);
            assert!(p.read_count() >= 1);
            for (key, _) in p.writes() {
                assert!(p.reads_key(key), "writes must be read");
            }
        }
    }
}
