//! Differential testing of the incremental certification index.
//!
//! `ratc-types` ships two formulations of every certification policy: the
//! paper's *set-based* functions (`f_s`/`g_s` over explicit payload slices)
//! and the *incremental* [`IndexedCertifier`] that every stack votes
//! through. The set-based functions are the specification; the index is an
//! optimisation whose soundness rests on distributivity (property (1) of the
//! paper). This module holds the oracle, [`MirrorCertifier`], which evaluates
//! the set-based functions verbatim behind the incremental interface, and two
//! walks that check an index against the specification *vote-for-vote*:
//!
//! * [`differential_vote_check`] drives a `CertificationLog` (the RATC
//!   stacks' owner of the index) and compares its votes with scans of the
//!   log: appends of prepared entries with commit and abort votes,
//!   out-of-order stores that create holes (follower behaviour), commit and
//!   abort decides in random order, including decides of holes, and
//!   adversarial decided-commit slots whose vote was abort;
//! * [`differential_transition_check`] drives an index and the mirror
//!   directly with the baseline's alphabet: `prepare`, `release` and
//!   `apply_committed` at sparse transaction-id positions, decisions out of
//!   order, duplicated `prepare`/`apply_committed` (a re-delivered Paxos
//!   `Chosen`), and `clear_prepared` followed by a replay of the chosen
//!   votes (a restart).
//!
//! Both walks are driven by the workspace's deterministic RNG, so every
//! failure is reproducible from its seed.

use std::collections::BTreeMap;
use std::sync::Arc;

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_core::log::{CertificationLog, LogEntry, TxPhase};
use ratc_types::{
    CertificationPolicy, Decision, IndexedCertifier, Key, Payload, Position, ProcessId,
    ShardCertifier, ShardId, TxId, Value, Version,
};

/// Set-based [`IndexedCertifier`]: it keeps the maintained sets as plain
/// payload collections and delegates every check to the policy's pure
/// [`ShardCertifier`].
///
/// This is the *reference implementation* of the incremental interface and
/// the oracle the differential walks compare the real indexes against: it
/// evaluates the paper's functions verbatim, so it is correct for any
/// policy, but it costs O(|log| · |payload|) per vote and keeps every
/// committed payload it is given. No stack votes through it; a policy whose
/// `f_s` admits no per-key summary (a test policy reading committed values,
/// say) returns it from `CertificationPolicy::indexed_certifier`. It keeps
/// `L1` across `clear_prepared`, so it stays verbatim when its owner
/// truncates the log or restarts.
#[derive(Debug, Clone)]
pub struct MirrorCertifier {
    certifier: Arc<dyn ShardCertifier>,
    committed: BTreeMap<u64, Payload>,
    prepared: BTreeMap<u64, Payload>,
}

impl MirrorCertifier {
    /// Creates an empty mirror delegating to `certifier`.
    pub fn new(certifier: Arc<dyn ShardCertifier>) -> Self {
        MirrorCertifier {
            certifier,
            committed: BTreeMap::new(),
            prepared: BTreeMap::new(),
        }
    }
}

impl IndexedCertifier for MirrorCertifier {
    fn apply_committed(&mut self, pos: Position, payload: &Payload) {
        self.committed
            .entry(pos.as_u64())
            .or_insert_with(|| payload.clone());
    }

    fn prepare(&mut self, pos: Position, payload: &Payload) {
        self.prepared
            .entry(pos.as_u64())
            .or_insert_with(|| payload.clone());
    }

    fn release(&mut self, pos: Position) {
        self.prepared.remove(&pos.as_u64());
    }

    fn certify_committed(&self, payload: &Payload) -> Decision {
        let refs: Vec<&Payload> = self.committed.values().collect();
        self.certifier.certify_committed(&refs, payload)
    }

    fn certify_prepared(&self, payload: &Payload) -> Decision {
        let refs: Vec<&Payload> = self.prepared.values().collect();
        self.certifier.certify_prepared(&refs, payload)
    }

    fn clear_prepared(&mut self) {
        self.prepared.clear();
    }

    fn clone_box(&self) -> Box<dyn IndexedCertifier> {
        Box::new(self.clone())
    }
}

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
/// commit version in `1..version_bound`. A payload whose commit version is a
/// multiple of 5 writes the value `"tombstone"`, any other `"w"`, so a policy
/// whose `f_s` reads committed values sees both.
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
    let commit_version = rng.gen_range(1..version_bound);
    let value = if commit_version % 5 == 0 {
        "tombstone"
    } else {
        "w"
    };
    for key in read_keys.into_iter().take(writes) {
        builder = builder.write(key, Value::from(value));
    }
    builder
        .commit_version(Version::new(commit_version))
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

/// Statistics of one [`differential_transition_check`] walk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TransitionReport {
    /// Schedule steps executed.
    pub steps: usize,
    /// Votes compared, each as its `f_s` and `g_s` halves.
    pub votes_checked: usize,
    /// Decisions applied, in random order.
    pub decides: usize,
    /// Chosen votes re-delivered (duplicated `prepare`/`apply_committed`).
    pub redeliveries: usize,
    /// Restarts: `clear_prepared` followed by a replay of the chosen votes.
    pub restarts: usize,
}

/// One chosen vote of the walk's durable log: the transaction, its payload,
/// its vote and, once decided, its decision.
struct Chosen {
    tx: TxId,
    payload: Payload,
    vote: Decision,
    decision: Option<Decision>,
}

/// Drives `policy`'s index and a [`MirrorCertifier`] over the same shard
/// certifier with the baseline replica's transitions, comparing `f_s` and
/// `g_s` on every certified payload and on random candidates after every
/// step.
///
/// A transaction's position is its id, and ids are sparse. A vote is chosen
/// and prepared when it commits; decisions arrive in random order and
/// release, then commit, their transaction; a re-delivered chosen vote
/// prepares an undecided commit vote again and applies a decided commit
/// again; a restart empties the prepared sets and replays every chosen vote
/// the same way, keeping the committed sets.
///
/// # Errors
///
/// Returns a description of the first divergence (including the seed), or
/// the walk's statistics on success.
pub fn differential_transition_check(
    policy: &dyn CertificationPolicy,
    seed: u64,
    steps: usize,
) -> Result<TransitionReport, String> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let shard = ShardId::new(0);
    let mut index = policy.indexed_certifier(shard);
    let mut mirror = MirrorCertifier::new(policy.shard_certifier(shard));
    let mut chosen: Vec<Chosen> = Vec::new();
    let mut undecided: Vec<usize> = Vec::new();
    let mut report = TransitionReport::default();
    let mut next_tx = 0u64;

    // The replica's `apply_chosen`: a decided commit is applied (again), an
    // undecided commit vote is prepared (again).
    let apply_chosen =
        |index: &mut dyn IndexedCertifier, mirror: &mut MirrorCertifier, c: &Chosen| {
            let pos = Position::new(c.tx.as_u64());
            match (c.decision, c.vote) {
                (Some(Decision::Commit), _) => {
                    index.apply_committed(pos, &c.payload);
                    mirror.apply_committed(pos, &c.payload);
                }
                (None, Decision::Commit) => {
                    index.prepare(pos, &c.payload);
                    mirror.prepare(pos, &c.payload);
                }
                (Some(Decision::Abort), _) | (None, Decision::Abort) => {}
            }
        };
    let compare = |index: &dyn IndexedCertifier,
                   mirror: &MirrorCertifier,
                   candidate: &Payload,
                   step: usize|
     -> Result<Decision, String> {
        let lhs = (
            index.certify_committed(candidate),
            index.certify_prepared(candidate),
        );
        let rhs = (
            mirror.certify_committed(candidate),
            mirror.certify_prepared(candidate),
        );
        if lhs != rhs {
            return Err(format!(
                "policy {} diverged at seed {seed} step {step}: index (f_s, g_s) {lhs:?} vs \
                 mirror {rhs:?} for candidate {candidate}",
                policy.name()
            ));
        }
        Ok(lhs.0.meet(lhs.1))
    };

    for step in 0..steps {
        report.steps += 1;
        match rng.gen_range(0..10u32) {
            // The leader certifies a transaction; its vote is chosen, and a
            // commit vote is prepared.
            0..=3 => {
                next_tx += rng.gen_range(1..=1_000u64);
                let payload = random_payload(&mut rng, 8, 16);
                let vote = compare(&*index, &mirror, &payload, step)?;
                report.votes_checked += 1;
                let c = Chosen {
                    tx: TxId::new(next_tx),
                    payload,
                    vote,
                    decision: None,
                };
                apply_chosen(&mut *index, &mut mirror, &c);
                undecided.push(chosen.len());
                chosen.push(c);
            }
            // A decision arrives, out of order: the transaction leaves the
            // prepared set, and a commit enters the committed set.
            4..=6 if !undecided.is_empty() => {
                let c = &mut chosen[undecided.swap_remove(rng.gen_range(0..undecided.len()))];
                let decision = match c.vote {
                    Decision::Commit if rng.gen_bool(0.7) => Decision::Commit,
                    Decision::Commit | Decision::Abort => Decision::Abort,
                };
                let pos = Position::new(c.tx.as_u64());
                index.release(pos);
                mirror.release(pos);
                if decision == Decision::Commit {
                    index.apply_committed(pos, &c.payload);
                    mirror.apply_committed(pos, &c.payload);
                }
                c.decision = Some(decision);
                report.decides += 1;
            }
            // A chosen vote is re-delivered (a `Chosen` after a ballot
            // change), or a decision is: both must be no-ops.
            7..=8 if !chosen.is_empty() => {
                let c = &chosen[rng.gen_range(0..chosen.len())];
                apply_chosen(&mut *index, &mut mirror, c);
                if c.decision.is_some() {
                    let pos = Position::new(c.tx.as_u64());
                    index.release(pos);
                    mirror.release(pos);
                }
                report.redeliveries += 1;
            }
            // A restart: the lock tables go, the committed sets stay, and
            // the durable log of chosen votes is replayed.
            _ => {
                index.clear_prepared();
                mirror.clear_prepared();
                for c in &chosen {
                    apply_chosen(&mut *index, &mut mirror, c);
                }
                report.restarts += 1;
            }
        }
        for _ in 0..3 {
            let candidate = random_payload(&mut rng, 8, 16);
            compare(&*index, &mirror, &candidate, step)?;
            report.votes_checked += 1;
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

    /// A policy whose index is the mirror over serializability's `f_s` and
    /// `g_s`, returned explicitly: no policy gets it by default.
    #[derive(Debug)]
    struct Mirrored;

    impl CertificationPolicy for Mirrored {
        fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
            Serializability::new().certify(committed, payload)
        }
        fn shard_certifier(&self, shard: ShardId) -> Arc<dyn ShardCertifier> {
            Serializability::new().shard_certifier(shard)
        }
        fn indexed_certifier(&self, shard: ShardId) -> Box<dyn IndexedCertifier> {
            Box::new(MirrorCertifier::new(self.shard_certifier(shard)))
        }
        fn name(&self) -> &'static str {
            "mirrored-serializability"
        }
    }

    /// The mirror, owned by a certification log, votes like the scans of
    /// that log through the same schedules as the built-in indexes.
    #[test]
    fn mirror_agrees_with_reference() {
        for seed in 0..8 {
            differential_vote_check(&Mirrored, seed, 80).unwrap_or_else(|e| panic!("{e}"));
        }
    }

    fn payload(reads: &[(&str, u64)], writes: &[&str], vc: u64) -> Payload {
        let mut b = Payload::builder();
        for (k, v) in reads {
            b = b.read(Key::new(*k), Version::new(*v));
        }
        for k in writes {
            b = b.write(Key::new(*k), Value::from("w"));
        }
        b.commit_version(Version::new(vc)).build_unchecked()
    }

    /// The mirror's sets are the slices the pure functions are handed, and a
    /// restart empties `L2` only.
    #[test]
    fn mirror_certifier_is_reference_equivalent() {
        let certifier = Serializability::new().shard_certifier(ShardId::new(0));
        let mut mirror = MirrorCertifier::new(Arc::clone(&certifier));
        let committed = payload(&[("x", 0)], &["x"], 5);
        let prepared = payload(&[("y", 0)], &["y"], 6);
        mirror.apply_committed(Position::new(0), &committed);
        mirror.prepare(Position::new(1), &prepared);
        let candidates = [
            payload(&[("x", 2)], &[], 0),
            payload(&[("x", 5)], &[], 0),
            payload(&[("y", 0)], &[], 0),
            payload(&[("z", 0)], &["z"], 9),
        ];
        for candidate in &candidates {
            assert_eq!(
                mirror.vote(candidate),
                certifier.vote(&[&committed], &[&prepared], candidate),
                "{candidate}"
            );
        }
        mirror.clear_prepared();
        for candidate in &candidates {
            assert_eq!(
                mirror.vote(candidate),
                certifier.vote(&[&committed], &[], candidate),
                "{candidate} after a restart"
            );
        }
    }

    #[test]
    fn both_indexes_agree_with_the_mirror_on_the_baselines_transitions() {
        for policy in [
            &Serializability::new() as &dyn CertificationPolicy,
            &WriteConflict::new(),
        ] {
            let mut totals = TransitionReport::default();
            for seed in 0..16 {
                let report = differential_transition_check(policy, seed, 200)
                    .unwrap_or_else(|e| panic!("{e}"));
                totals.votes_checked += report.votes_checked;
                totals.decides += report.decides;
                totals.redeliveries += report.redeliveries;
                totals.restarts += report.restarts;
            }
            let TransitionReport {
                votes_checked,
                decides,
                redeliveries,
                restarts,
                ..
            } = totals;
            assert!(votes_checked >= 16 * 600, "{totals:?}");
            assert!(
                decides > 0 && redeliveries > 0 && restarts > 0,
                "{totals:?}"
            );
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
