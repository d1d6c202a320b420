//! Certification functions: the concurrency-control policy of the TCS.
//!
//! A Transaction Certification Service is specified by a *certification
//! function* `f : 2^L × L → D` mapping the set of previously committed payloads
//! and a candidate payload to a commit/abort decision (§2). Sharded
//! implementations additionally use *shard-local* certification functions
//! `f_s` (against committed transactions) and `g_s` (against transactions
//! prepared to commit), which must *match* `f` and satisfy the distributivity
//! and commutation properties (1), (3), (4) and (5) of the paper.
//!
//! This module defines:
//!
//! * [`CertificationPolicy`] — the trait bundling `f`, `f_s` and `g_s`,
//!   parametric in the isolation level (the protocols in `ratc-core`,
//!   `ratc-rdma` and `ratc-baseline` are generic over it);
//! * [`Serializability`] — the paper's example policy (equation (2) and the
//!   shard-local functions of §2), providing classical optimistic
//!   serializability with read/write-lock style `g_s`;
//! * [`WriteConflict`] — a weaker, snapshot-isolation-flavoured policy that
//!   only detects write-write conflicts, used to exercise the parametricity of
//!   the protocols;
//! * [`properties`] — executable versions of the paper's required properties,
//!   used by the property-based test suites;
//! * [`IndexedCertifier`] and its implementations — *incremental* certifiers
//!   answering the per-transaction vote `f_s(L1, l) ⊓ g_s(L2, l)` in
//!   O(|payload|) instead of rescanning the whole certification log.
//!
//! # Incremental certification
//!
//! The pure functions above are *set-based*: they take the full sets `L1`
//! (committed payloads) and `L2` (prepared payloads) on every call, which
//! makes the per-transaction vote O(|log| · |payload|). The paper's
//! distributivity property (1) — `f_s(L ∪ L', l) = f_s(L, l) ⊓ f_s(L', l)` —
//! is exactly what makes an incremental formulation sound: a distributive
//! certification function is determined by its behaviour on singleton sets,
//! so a summary that can answer "does `l` conflict with *some* element of
//! `L`?" is equivalent to folding `⊓` over the whole set. [`IndexedCertifier`]
//! exploits this with per-key summaries:
//!
//! * `f_s` (against committed transactions) is answered by a map from key to
//!   the *newest committed writer version*; taking the maximum over writers is
//!   sound precisely because the singleton checks only compare against each
//!   writer's commit version, so only the newest writer can matter.
//! * `g_s` (against prepared-to-commit transactions) is answered by a
//!   read/write lock table with reference counts, mirroring the lock-based
//!   reading of `g_s` in §2; a reference count reaches zero exactly when no
//!   prepared transaction holds the corresponding lock, so membership in the
//!   table coincides with the existential over `L2`.
//!
//! Commutation (5) and "`g_s` no weaker than `f_s`" (4) are properties of the
//! per-payload checks themselves and are untouched by how the sets are
//! summarised; the differential test-suite in `ratc-spec` checks all of this
//! vote-for-vote against the set-based reference on randomized schedules.

use std::fmt;
use std::sync::Arc;

use crate::decision::Decision;
use crate::hash::FxHashMap;
use crate::ids::{Key, Position, ShardId, Version};
use crate::payload::Payload;
use crate::sharding::ShardMap;

/// A certifier for a single shard: the pair `(f_s, g_s)` of shard-local
/// certification functions.
///
/// All payloads passed to these methods are expected to be already restricted
/// to the shard (`l | s`); the shard leaders in the commit protocols only ever
/// store restricted payloads, so this is the natural calling convention.
pub trait ShardCertifier: fmt::Debug + Send + Sync {
    /// The shard-local function `f_s(L, l)`: certifies `payload` against the
    /// (shard-restricted) payloads of previously *committed* transactions.
    fn certify_committed(&self, committed: &[&Payload], payload: &Payload) -> Decision;

    /// The shard-local function `g_s(L, l)`: certifies `payload` against the
    /// (shard-restricted) payloads of transactions *prepared to commit* but not
    /// yet decided.
    fn certify_prepared(&self, prepared: &[&Payload], payload: &Payload) -> Decision;

    /// The leader's vote of line 12 of Figure 1:
    /// `f_s(L1, l) ⊓ g_s(L2, l)`.
    fn vote(&self, committed: &[&Payload], prepared: &[&Payload], payload: &Payload) -> Decision {
        self.certify_committed(committed, payload)
            .meet(self.certify_prepared(prepared, payload))
    }
}

/// A certification policy: the global function `f` together with a factory of
/// shard-local certifiers, encapsulating the concurrency-control policy for a
/// desired isolation level.
///
/// Implementations must satisfy the paper's properties (checked at runtime by
/// [`properties`] and by the property-based tests):
///
/// * distributivity (1) of `f`, `f_s` and `g_s`,
/// * matching (3) between `f` and the family `f_s`,
/// * `g_s` no weaker than `f_s` (4),
/// * commutation (5) between `g_s` and `f_s`,
/// * `f_s(L, ε) = commit` for the empty payload.
pub trait CertificationPolicy: fmt::Debug + Send + Sync {
    /// The global certification function `f(L, l)`.
    fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision;

    /// Returns the shard-local certifier `(f_s, g_s)` for `shard`.
    fn shard_certifier(&self, shard: ShardId) -> Arc<dyn ShardCertifier>;

    /// Returns an *incremental* certifier for `shard`, answering the leader's
    /// vote in O(|payload|) (see the module docs).
    ///
    /// The default implementation wraps [`CertificationPolicy::shard_certifier`]
    /// in a [`MirrorCertifier`], which is correct for any policy but keeps the
    /// set-based O(|log|) cost; policies whose certification functions admit a
    /// per-key summary (both built-in policies do) override this with a true
    /// index.
    fn indexed_certifier(&self, shard: ShardId) -> Box<dyn IndexedCertifier> {
        Box::new(MirrorCertifier::new(self.shard_certifier(shard)))
    }

    /// A short human-readable name for reports and benchmark output.
    fn name(&self) -> &'static str;
}

/// Convenience: a `CertificationPolicy` behind an `Arc` is itself usable as a
/// policy, so protocol components can cheaply share one.
impl CertificationPolicy for Arc<dyn CertificationPolicy> {
    fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
        (**self).certify(committed, payload)
    }

    fn shard_certifier(&self, shard: ShardId) -> Arc<dyn ShardCertifier> {
        (**self).shard_certifier(shard)
    }

    fn indexed_certifier(&self, shard: ShardId) -> Box<dyn IndexedCertifier> {
        (**self).indexed_certifier(shard)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

// ---------------------------------------------------------------------------
// Serializability (the paper's running example)
// ---------------------------------------------------------------------------

/// The classical optimistic-concurrency-control policy for serializability
/// (equation (2) of the paper and its shard-local counterparts).
///
/// * `f` / `f_s`: a transaction commits iff none of the versions it read has
///   been overwritten by a committed transaction (`V'_c ≤ v` for every
///   committed writer of a read object).
/// * `g_s`: a transaction aborts if it read an object written by a
///   prepared-to-commit transaction, or writes an object read by one —
///   mirroring read/write lock acquisition in typical implementations.
///
/// # Example
///
/// ```
/// use ratc_types::prelude::*;
/// let policy = Serializability::new();
/// let committed = Payload::builder()
///     .read(Key::new("x"), Version::new(0))
///     .write(Key::new("x"), Value::from("1"))
///     .commit_version(Version::new(1))
///     .build()?;
/// // A transaction that read x at version 0 conflicts with the committed writer.
/// let stale = Payload::builder().read(Key::new("x"), Version::new(0)).build()?;
/// assert_eq!(policy.certify(&[&committed], &stale), Decision::Abort);
/// // Reading the new version is fine.
/// let fresh = Payload::builder().read(Key::new("x"), Version::new(1)).build()?;
/// assert_eq!(policy.certify(&[&fresh.clone()], &fresh), Decision::Commit);
/// # Ok::<(), PayloadError>(())
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Serializability;

impl Serializability {
    /// Creates the serializability policy.
    pub fn new() -> Self {
        Serializability
    }

    /// Returns the policy as a shareable trait object.
    pub fn shared() -> Arc<dyn CertificationPolicy> {
        Arc::new(Serializability)
    }

    fn no_read_overwritten(committed: &[&Payload], payload: &Payload) -> Decision {
        for (key, read_version) in payload.reads() {
            for other in committed {
                if other.writes_key(key) && other.commit_version() > read_version {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }
}

impl CertificationPolicy for Serializability {
    fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
        Self::no_read_overwritten(committed, payload)
    }

    fn shard_certifier(&self, _shard: ShardId) -> Arc<dyn ShardCertifier> {
        Arc::new(SerializabilityShard)
    }

    fn indexed_certifier(&self, _shard: ShardId) -> Box<dyn IndexedCertifier> {
        Box::new(IndexedSerializability::default())
    }

    fn name(&self) -> &'static str {
        "serializability"
    }
}

/// Shard-local certifier of [`Serializability`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SerializabilityShard;

impl ShardCertifier for SerializabilityShard {
    fn certify_committed(&self, committed: &[&Payload], payload: &Payload) -> Decision {
        Serializability::no_read_overwritten(committed, payload)
    }

    fn certify_prepared(&self, prepared: &[&Payload], payload: &Payload) -> Decision {
        // g_s: abort if (i) payload read an object written by a prepared
        // transaction, or (ii) payload writes an object read by a prepared
        // transaction (the lock-based check of §2).
        for other in prepared {
            for (key, _) in payload.reads() {
                if other.writes_key(key) {
                    return Decision::Abort;
                }
            }
            for (key, _) in payload.writes() {
                if other.reads_key(key) {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }
}

// ---------------------------------------------------------------------------
// Write-conflict (snapshot-isolation flavoured) policy
// ---------------------------------------------------------------------------

/// A weaker policy that only detects write-write conflicts
/// ("first committer wins"), in the style of snapshot isolation.
///
/// * `f` / `f_s`: a transaction commits iff, for every object it *writes*, no
///   committed transaction has written that object after the version the
///   transaction read.
/// * `g_s`: a transaction aborts if a prepared-to-commit transaction writes any
///   object it also writes.
///
/// The policy exists to exercise the protocols' parametricity in the isolation
/// level: everything in `ratc-core`/`ratc-rdma`/`ratc-baseline` works
/// identically with either policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteConflict;

impl WriteConflict {
    /// Creates the write-conflict policy.
    pub fn new() -> Self {
        WriteConflict
    }

    /// Returns the policy as a shareable trait object.
    pub fn shared() -> Arc<dyn CertificationPolicy> {
        Arc::new(WriteConflict)
    }

    fn no_write_write_conflict(committed: &[&Payload], payload: &Payload) -> Decision {
        for (key, _) in payload.writes() {
            let read_version = payload
                .read_version(key)
                .unwrap_or(crate::ids::Version::ZERO);
            for other in committed {
                if other.writes_key(key) && other.commit_version() > read_version {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }
}

impl CertificationPolicy for WriteConflict {
    fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
        Self::no_write_write_conflict(committed, payload)
    }

    fn shard_certifier(&self, _shard: ShardId) -> Arc<dyn ShardCertifier> {
        Arc::new(WriteConflictShard)
    }

    fn indexed_certifier(&self, _shard: ShardId) -> Box<dyn IndexedCertifier> {
        Box::new(IndexedWriteConflict::default())
    }

    fn name(&self) -> &'static str {
        "write-conflict"
    }
}

/// Shard-local certifier of [`WriteConflict`].
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteConflictShard;

impl ShardCertifier for WriteConflictShard {
    fn certify_committed(&self, committed: &[&Payload], payload: &Payload) -> Decision {
        WriteConflict::no_write_write_conflict(committed, payload)
    }

    fn certify_prepared(&self, prepared: &[&Payload], payload: &Payload) -> Decision {
        for other in prepared {
            for (key, _) in payload.writes() {
                if other.writes_key(key) {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }
}

// ---------------------------------------------------------------------------
// Incremental indexed certification
// ---------------------------------------------------------------------------

/// A stateful, incremental shard certifier: the `(f_s, g_s)` pair evaluated
/// against *internally maintained* committed/prepared sets instead of slices
/// passed at every call.
///
/// The owner (normally `ratc-core`'s `CertificationLog`) reports state
/// transitions of the certification order:
///
/// * [`IndexedCertifier::prepare`] — a transaction was appended (or stored at
///   a follower) in the *prepared* phase with a commit vote; it enters `L2`.
/// * [`IndexedCertifier::release`] — the transaction at `pos` was decided (or
///   its slot was otherwise retired); it leaves `L2`.
/// * [`IndexedCertifier::apply_committed`] — the transaction at `pos` was
///   decided *commit*; its payload enters `L1`.
///
/// All three transitions are **idempotent per position**: reporting the same
/// transition twice for the same `pos` is a no-op. This matters because
/// decisions can be re-delivered by recovery coordinators and the baseline's
/// Paxos learners observe chosen commands through two code paths. Transitions
/// may also arrive out of order across positions (followers persist votes in
/// coordinator order, not log order); the certification functions are
/// set-based, so only membership — never arrival order — affects votes.
///
/// A restart of the owner calls [`IndexedCertifier::clear_prepared`]: `L2`
/// is volatile and is rebuilt by re-reporting every retained prepared slot,
/// while `L1` is stable state and survives. `L1` is the only place the
/// committed history lives once the owner truncates its log: nothing is
/// ever rebuilt from a summary of the folded prefix, so an index may keep
/// whatever its `f_s` needs of committed payloads (the built-in indexes keep
/// each key's newest committed writer).
///
/// Implementations must agree vote-for-vote with the set-based
/// [`ShardCertifier`] of the same policy; `ratc-spec`'s differential suite
/// enforces this on randomized schedules with out-of-order decides and holes.
pub trait IndexedCertifier: fmt::Debug + Send + Sync {
    /// Adds the payload of the transaction decided *commit* at `pos` to the
    /// committed set `L1`.
    fn apply_committed(&mut self, pos: Position, payload: &Payload);

    /// Adds the payload of the commit-voted transaction prepared at `pos` to
    /// the prepared set `L2`.
    fn prepare(&mut self, pos: Position, payload: &Payload);

    /// Removes the transaction prepared at `pos` from the prepared set `L2`
    /// (called when its final decision arrives, whatever it is).
    fn release(&mut self, pos: Position);

    /// The shard-local function `f_s(L1, l)` against the maintained committed
    /// set.
    fn certify_committed(&self, payload: &Payload) -> Decision;

    /// The shard-local function `g_s(L2, l)` against the maintained prepared
    /// set.
    fn certify_prepared(&self, payload: &Payload) -> Decision;

    /// The leader's vote of line 12 of Figure 1: `f_s(L1, l) ⊓ g_s(L2, l)`,
    /// in O(|payload|) for the built-in indexes.
    fn vote(&self, payload: &Payload) -> Decision {
        self.certify_committed(payload)
            .meet(self.certify_prepared(payload))
    }

    /// Empties the prepared set `L2` and keeps the committed set `L1` (a
    /// restart: the owner re-reports its retained prepared slots).
    fn clear_prepared(&mut self);

    /// Clones the certifier including its maintained state.
    fn clone_box(&self) -> Box<dyn IndexedCertifier>;
}

impl Clone for Box<dyn IndexedCertifier> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Per-key summary of the committed set `L1`: the newest committed writer
/// version of every key.
///
/// Sound for any certification check that compares a per-key version against
/// committed writers of that key with `>` (both built-in policies do): by
/// distributivity the set-based check is a conjunction of singleton checks,
/// and among writers of one key only the maximal commit version can decide
/// the comparison.
#[derive(Debug, Clone, Default)]
struct CommittedWriterIndex {
    // Probed, never iterated, like the two lock tables below: `crate::hash`'s
    // unseeded hasher, about twice as cheap to probe as `std`'s SipHash.
    newest_writer: FxHashMap<Key, Version>,
}

impl CommittedWriterIndex {
    /// Folds a committed payload into the per-key maxima. Idempotent by
    /// construction: re-applying the same payload re-folds the same
    /// `max(_, vc)`, so no per-position bookkeeping is needed.
    fn apply(&mut self, _pos: Position, payload: &Payload) {
        let vc = payload.commit_version();
        for (key, _) in payload.writes() {
            self.newest_writer
                .entry(key.clone())
                .and_modify(|v| *v = (*v).max(vc))
                .or_insert(vc);
        }
    }

    fn newest_writer(&self, key: &Key) -> Option<Version> {
        self.newest_writer.get(key).copied()
    }
}

/// Reference-counted read/write lock table summarising the prepared set `L2`.
///
/// A key is *read-locked* (resp. *write-locked*) while at least one prepared
/// transaction reads (resp. writes) it; counts make release exact when
/// several prepared transactions touch the same key. The per-position entry
/// keeps the prepared payload's shared handle (a reference count, no copy)
/// and whether its reads were locked, so `release(pos)` unlocks exactly what
/// `prepare` locked; it doubles as the idempotency guard.
#[derive(Debug, Clone, Default)]
struct PreparedLockTable {
    read_locks: FxHashMap<Key, u32>,
    write_locks: FxHashMap<Key, u32>,
    by_pos: FxHashMap<u64, (Payload, bool)>,
}

impl PreparedLockTable {
    /// Acquires locks for the payload prepared at `pos`. `track_reads`
    /// disables the read-lock half for policies whose `g_s` ignores reads.
    fn lock(&mut self, pos: Position, payload: &Payload, track_reads: bool) {
        if self.by_pos.contains_key(&pos.as_u64()) {
            return;
        }
        if track_reads {
            for (key, _) in payload.reads() {
                *self.read_locks.entry(key.clone()).or_insert(0) += 1;
            }
        }
        for (key, _) in payload.writes() {
            *self.write_locks.entry(key.clone()).or_insert(0) += 1;
        }
        self.by_pos
            .insert(pos.as_u64(), (payload.clone(), track_reads));
    }

    fn unlock(&mut self, pos: Position) {
        let Some((payload, track_reads)) = self.by_pos.remove(&pos.as_u64()) else {
            return;
        };
        if track_reads {
            for (key, _) in payload.reads() {
                Self::release_key(&mut self.read_locks, key);
            }
        }
        for (key, _) in payload.writes() {
            Self::release_key(&mut self.write_locks, key);
        }
    }

    /// Drops one reference to `key`'s lock, and the lock with the last one.
    fn release_key(locks: &mut FxHashMap<Key, u32>, key: &Key) {
        if let Some(count) = locks.get_mut(key) {
            *count -= 1;
            if *count == 0 {
                locks.remove(key);
            }
        }
    }

    fn read_locked(&self, key: &Key) -> bool {
        self.read_locks.contains_key(key)
    }

    fn write_locked(&self, key: &Key) -> bool {
        self.write_locks.contains_key(key)
    }

    fn clear(&mut self) {
        self.read_locks.clear();
        self.write_locks.clear();
        self.by_pos.clear();
    }
}

/// Incremental certifier for [`Serializability`]: O(|payload|) per vote.
///
/// * `f_s`: abort iff some read version has been overwritten — i.e. the
///   newest committed writer of a read key is above the version read.
/// * `g_s`: abort iff a read key is write-locked or a written key is
///   read-locked by a prepared-to-commit transaction.
#[derive(Debug, Clone, Default)]
pub struct IndexedSerializability {
    committed: CommittedWriterIndex,
    locks: PreparedLockTable,
}

impl IndexedSerializability {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IndexedCertifier for IndexedSerializability {
    fn apply_committed(&mut self, pos: Position, payload: &Payload) {
        self.committed.apply(pos, payload);
    }

    fn prepare(&mut self, pos: Position, payload: &Payload) {
        self.locks.lock(pos, payload, true);
    }

    fn release(&mut self, pos: Position) {
        self.locks.unlock(pos);
    }

    fn certify_committed(&self, payload: &Payload) -> Decision {
        for (key, read_version) in payload.reads() {
            if let Some(newest) = self.committed.newest_writer(key) {
                if newest > read_version {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }

    fn certify_prepared(&self, payload: &Payload) -> Decision {
        for (key, _) in payload.reads() {
            if self.locks.write_locked(key) {
                return Decision::Abort;
            }
        }
        for (key, _) in payload.writes() {
            if self.locks.read_locked(key) {
                return Decision::Abort;
            }
        }
        Decision::Commit
    }

    fn clear_prepared(&mut self) {
        self.locks.clear();
    }

    fn clone_box(&self) -> Box<dyn IndexedCertifier> {
        Box::new(self.clone())
    }
}

/// Incremental certifier for [`WriteConflict`]: O(|payload|) per vote.
///
/// * `f_s`: abort iff some *written* key has a newer committed writer than
///   the version this transaction read for it (first committer wins).
/// * `g_s`: abort iff a written key is write-locked by a prepared-to-commit
///   transaction.
#[derive(Debug, Clone, Default)]
pub struct IndexedWriteConflict {
    committed: CommittedWriterIndex,
    locks: PreparedLockTable,
}

impl IndexedWriteConflict {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }
}

impl IndexedCertifier for IndexedWriteConflict {
    fn apply_committed(&mut self, pos: Position, payload: &Payload) {
        self.committed.apply(pos, payload);
    }

    fn prepare(&mut self, pos: Position, payload: &Payload) {
        self.locks.lock(pos, payload, false);
    }

    fn release(&mut self, pos: Position) {
        self.locks.unlock(pos);
    }

    fn certify_committed(&self, payload: &Payload) -> Decision {
        for (key, _) in payload.writes() {
            let read_version = payload.read_version(key).unwrap_or(Version::ZERO);
            if let Some(newest) = self.committed.newest_writer(key) {
                if newest > read_version {
                    return Decision::Abort;
                }
            }
        }
        Decision::Commit
    }

    fn certify_prepared(&self, payload: &Payload) -> Decision {
        for (key, _) in payload.writes() {
            if self.locks.write_locked(key) {
                return Decision::Abort;
            }
        }
        Decision::Commit
    }

    fn clear_prepared(&mut self) {
        self.locks.clear();
    }

    fn clone_box(&self) -> Box<dyn IndexedCertifier> {
        Box::new(self.clone())
    }
}

/// Set-based [`IndexedCertifier`] that mirrors the maintained sets as plain
/// payload collections and delegates every check to the policy's pure
/// [`ShardCertifier`].
///
/// This is the *reference implementation* of the incremental interface: it is
/// trivially correct (it evaluates the paper's functions verbatim) but keeps
/// the O(|log| · |payload|) cost. It serves as
///
/// * the default [`CertificationPolicy::indexed_certifier`] for third-party
///   policies that do not provide a true index, and
/// * the oracle the differential tests compare the real indexes against.
///
/// It keeps every committed payload it is given, so it stays verbatim for
/// every policy when its owner truncates the log: `L1` lives here, not in the
/// log's checkpoint.
#[derive(Debug)]
pub struct MirrorCertifier {
    certifier: Arc<dyn ShardCertifier>,
    committed: std::collections::BTreeMap<u64, Payload>,
    prepared: std::collections::BTreeMap<u64, Payload>,
}

impl MirrorCertifier {
    /// Creates an empty mirror delegating to `certifier`.
    pub fn new(certifier: Arc<dyn ShardCertifier>) -> Self {
        MirrorCertifier {
            certifier,
            committed: std::collections::BTreeMap::new(),
            prepared: std::collections::BTreeMap::new(),
        }
    }
}

impl Clone for MirrorCertifier {
    fn clone(&self) -> Self {
        MirrorCertifier {
            certifier: Arc::clone(&self.certifier),
            committed: self.committed.clone(),
            prepared: self.prepared.clone(),
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

// ---------------------------------------------------------------------------
// Executable property checks
// ---------------------------------------------------------------------------

/// Executable versions of the paper's required properties of certification
/// functions, used by the property-based test suites and by the specification
/// checkers.
pub mod properties {
    use super::*;

    /// Distributivity (1): `f(L1 ∪ L2, l) = f(L1, l) ⊓ f(L2, l)` for the global
    /// function, checked on a concrete split of the committed set.
    pub fn distributive_global<P: CertificationPolicy + ?Sized>(
        policy: &P,
        left: &[&Payload],
        right: &[&Payload],
        payload: &Payload,
    ) -> bool {
        let mut union: Vec<&Payload> = Vec::with_capacity(left.len() + right.len());
        union.extend_from_slice(left);
        union.extend_from_slice(right);
        policy.certify(&union, payload)
            == policy
                .certify(left, payload)
                .meet(policy.certify(right, payload))
    }

    /// Distributivity (1) for the shard-local function `f_s`.
    pub fn distributive_shard_committed(
        certifier: &dyn ShardCertifier,
        left: &[&Payload],
        right: &[&Payload],
        payload: &Payload,
    ) -> bool {
        let mut union: Vec<&Payload> = Vec::with_capacity(left.len() + right.len());
        union.extend_from_slice(left);
        union.extend_from_slice(right);
        certifier.certify_committed(&union, payload)
            == certifier
                .certify_committed(left, payload)
                .meet(certifier.certify_committed(right, payload))
    }

    /// Distributivity (1) for the shard-local function `g_s`.
    pub fn distributive_shard_prepared(
        certifier: &dyn ShardCertifier,
        left: &[&Payload],
        right: &[&Payload],
        payload: &Payload,
    ) -> bool {
        let mut union: Vec<&Payload> = Vec::with_capacity(left.len() + right.len());
        union.extend_from_slice(left);
        union.extend_from_slice(right);
        certifier.certify_prepared(&union, payload)
            == certifier
                .certify_prepared(left, payload)
                .meet(certifier.certify_prepared(right, payload))
    }

    /// Matching (3): `f(L, l) = commit ⟺ ∀s. f_s(L|s, l|s) = commit`,
    /// checked on a concrete committed set and shard map.
    pub fn matching<P, M>(
        policy: &P,
        sharding: &M,
        committed: &[&Payload],
        payload: &Payload,
    ) -> bool
    where
        P: CertificationPolicy + ?Sized,
        M: ShardMap + ?Sized,
    {
        let global = policy.certify(committed, payload);
        let mut all_shards_commit = true;
        for shard in sharding.shards() {
            let certifier = policy.shard_certifier(shard);
            let restricted_committed: Vec<Payload> = committed
                .iter()
                .map(|p| p.restrict(shard, sharding))
                .collect();
            let restricted_refs: Vec<&Payload> = restricted_committed.iter().collect();
            let restricted_payload = payload.restrict(shard, sharding);
            if certifier
                .certify_committed(&restricted_refs, &restricted_payload)
                .is_abort()
            {
                all_shards_commit = false;
            }
        }
        global.is_commit() == all_shards_commit
    }

    /// Property (4): `g_s(L, l) = commit ⇒ f_s(L, l) = commit`.
    pub fn prepared_no_weaker(
        certifier: &dyn ShardCertifier,
        prepared: &[&Payload],
        payload: &Payload,
    ) -> bool {
        !certifier.certify_prepared(prepared, payload).is_commit()
            || certifier.certify_committed(prepared, payload).is_commit()
    }

    /// Property (5): `g_s({l}, l') = commit ⇒ f_s({l'}, l) = commit`.
    pub fn commutation(
        certifier: &dyn ShardCertifier,
        pending: &Payload,
        candidate: &Payload,
    ) -> bool {
        !certifier
            .certify_prepared(&[pending], candidate)
            .is_commit()
            || certifier
                .certify_committed(&[candidate], pending)
                .is_commit()
    }

    /// The empty payload `ε` always certifies to commit against any committed set.
    pub fn empty_payload_commits(certifier: &dyn ShardCertifier, committed: &[&Payload]) -> bool {
        certifier
            .certify_committed(committed, &Payload::empty())
            .is_commit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Key, Value, Version};
    use crate::sharding::HashSharding;

    fn payload(reads: &[(&str, u64)], writes: &[(&str, &str)], vc: u64) -> Payload {
        let mut b = Payload::builder();
        for (k, v) in reads {
            b = b.read(Key::new(*k), Version::new(*v));
        }
        for (k, v) in writes {
            b = b.write(Key::new(*k), Value::from(*v));
        }
        b.commit_version(Version::new(vc)).build_unchecked()
    }

    #[test]
    fn serializability_aborts_on_overwritten_read() {
        let policy = Serializability::new();
        let committed = payload(&[("x", 0)], &[("x", "1")], 5);
        let stale = payload(&[("x", 3)], &[], 0);
        assert_eq!(policy.certify(&[&committed], &stale), Decision::Abort);
        let fresh = payload(&[("x", 5)], &[], 0);
        assert_eq!(policy.certify(&[&committed], &fresh), Decision::Commit);
    }

    #[test]
    fn serializability_commit_on_disjoint_keys() {
        let policy = Serializability::new();
        let committed = payload(&[("a", 0)], &[("a", "1")], 2);
        let unrelated = payload(&[("b", 0)], &[("b", "2")], 3);
        assert_eq!(policy.certify(&[&committed], &unrelated), Decision::Commit);
    }

    #[test]
    fn serializability_gs_blocks_read_write_and_write_read() {
        let certifier = SerializabilityShard;
        let pending_writer = payload(&[("x", 0)], &[("x", "1")], 2);
        let reader = payload(&[("x", 0)], &[], 0);
        // Reader of an object written by a pending transaction is blocked.
        assert_eq!(
            certifier.certify_prepared(&[&pending_writer], &reader),
            Decision::Abort
        );
        // Writer of an object read by a pending transaction is blocked.
        let pending_reader = payload(&[("y", 0)], &[], 0);
        let writer = payload(&[("y", 0)], &[("y", "9")], 3);
        assert_eq!(
            certifier.certify_prepared(&[&pending_reader], &writer),
            Decision::Abort
        );
        // Disjoint transactions pass.
        let other = payload(&[("z", 0)], &[("z", "1")], 1);
        assert_eq!(
            certifier.certify_prepared(&[&pending_writer], &other),
            Decision::Commit
        );
    }

    #[test]
    fn write_conflict_ignores_read_write_conflicts() {
        let policy = WriteConflict::new();
        let committed = payload(&[("x", 0)], &[("x", "1")], 5);
        // A pure reader of a stale version still commits under write-conflict.
        let stale_reader = payload(&[("x", 3)], &[], 0);
        assert_eq!(
            policy.certify(&[&committed], &stale_reader),
            Decision::Commit
        );
        // A stale writer of the same key aborts.
        let stale_writer = payload(&[("x", 3)], &[("x", "2")], 4);
        assert_eq!(
            policy.certify(&[&committed], &stale_writer),
            Decision::Abort
        );
    }

    #[test]
    fn write_conflict_gs_blocks_only_write_write() {
        let certifier = WriteConflictShard;
        let pending = payload(&[("x", 0)], &[("x", "1")], 2);
        let reader = payload(&[("x", 0)], &[], 0);
        assert_eq!(
            certifier.certify_prepared(&[&pending], &reader),
            Decision::Commit
        );
        let writer = payload(&[("x", 0)], &[("x", "2")], 3);
        assert_eq!(
            certifier.certify_prepared(&[&pending], &writer),
            Decision::Abort
        );
    }

    #[test]
    fn vote_meets_both_functions() {
        let certifier = SerializabilityShard;
        let committed = payload(&[("x", 0)], &[("x", "1")], 5);
        let pending = payload(&[("y", 0)], &[("y", "1")], 6);
        // Transaction conflicting only with the committed set.
        let t1 = payload(&[("x", 2)], &[], 0);
        assert_eq!(certifier.vote(&[&committed], &[], &t1), Decision::Abort);
        // Transaction conflicting only with the prepared set.
        let t2 = payload(&[("y", 0)], &[], 0);
        assert_eq!(certifier.vote(&[], &[&pending], &t2), Decision::Abort);
        // Transaction conflicting with neither.
        let t3 = payload(&[("z", 0)], &[], 0);
        assert_eq!(
            certifier.vote(&[&committed], &[&pending], &t3),
            Decision::Commit
        );
    }

    #[test]
    fn empty_payload_always_commits() {
        let committed = payload(&[("x", 0)], &[("x", "1")], 5);
        assert!(properties::empty_payload_commits(
            &SerializabilityShard,
            &[&committed]
        ));
        assert!(properties::empty_payload_commits(
            &WriteConflictShard,
            &[&committed]
        ));
    }

    #[test]
    fn distributivity_on_examples() {
        let policy = Serializability::new();
        let c1 = payload(&[("x", 0)], &[("x", "1")], 2);
        let c2 = payload(&[("y", 0)], &[("y", "1")], 3);
        let t = payload(&[("x", 0), ("y", 3)], &[], 0);
        assert!(properties::distributive_global(&policy, &[&c1], &[&c2], &t));
        let certifier = policy.shard_certifier(ShardId::new(0));
        assert!(properties::distributive_shard_committed(
            &*certifier,
            &[&c1],
            &[&c2],
            &t
        ));
        assert!(properties::distributive_shard_prepared(
            &*certifier,
            &[&c1],
            &[&c2],
            &t
        ));
    }

    #[test]
    fn matching_on_examples() {
        let policy = Serializability::new();
        let sharding = HashSharding::new(3);
        let c1 = payload(&[("x", 0)], &[("x", "1")], 2);
        let c2 = payload(&[("y", 0)], &[("y", "1")], 3);
        let conflicting = payload(&[("x", 0)], &[], 0);
        let clean = payload(&[("x", 2), ("y", 3)], &[], 0);
        assert!(properties::matching(
            &policy,
            &sharding,
            &[&c1, &c2],
            &conflicting
        ));
        assert!(properties::matching(
            &policy,
            &sharding,
            &[&c1, &c2],
            &clean
        ));
    }

    #[test]
    fn gs_no_weaker_and_commutation_on_examples() {
        let certifier = SerializabilityShard;
        let pending = payload(&[("x", 0)], &[("x", "1")], 2);
        let candidate = payload(&[("y", 0)], &[("y", "2")], 3);
        assert!(properties::prepared_no_weaker(
            &certifier,
            &[&pending],
            &candidate
        ));
        assert!(properties::commutation(&certifier, &pending, &candidate));
    }

    /// Replays `(committed, prepared)` into an indexed certifier and checks
    /// its vote against the set-based reference for `candidate`.
    fn assert_indexed_matches_reference(
        policy: &dyn CertificationPolicy,
        committed: &[Payload],
        prepared: &[Payload],
        candidate: &Payload,
    ) {
        let certifier = policy.shard_certifier(ShardId::new(0));
        let mut indexed = policy.indexed_certifier(ShardId::new(0));
        let mut pos = 0u64;
        for p in committed {
            indexed.apply_committed(Position::new(pos), p);
            pos += 1;
        }
        for p in prepared {
            indexed.prepare(Position::new(pos), p);
            pos += 1;
        }
        let committed_refs: Vec<&Payload> = committed.iter().collect();
        let prepared_refs: Vec<&Payload> = prepared.iter().collect();
        assert_eq!(
            indexed.vote(candidate),
            certifier.vote(&committed_refs, &prepared_refs, candidate),
            "indexed vote diverged from reference for {candidate}"
        );
    }

    #[test]
    fn indexed_serializability_matches_reference_on_examples() {
        let committed = vec![
            payload(&[("x", 0)], &[("x", "1")], 5),
            payload(&[("y", 0)], &[("y", "1")], 3),
        ];
        let prepared = vec![payload(&[("z", 0)], &[("z", "2")], 7)];
        for candidate in [
            payload(&[("x", 3)], &[], 0),
            payload(&[("x", 5)], &[], 0),
            payload(&[("z", 0)], &[], 0),
            payload(&[("w", 0)], &[("w", "9")], 9),
            payload(&[("z", 0)], &[("z", "9")], 9),
            Payload::empty(),
        ] {
            assert_indexed_matches_reference(
                &Serializability::new(),
                &committed,
                &prepared,
                &candidate,
            );
            assert_indexed_matches_reference(
                &WriteConflict::new(),
                &committed,
                &prepared,
                &candidate,
            );
        }
    }

    #[test]
    fn indexed_release_drops_locks() {
        let mut indexed = Serializability::new().indexed_certifier(ShardId::new(0));
        let pending = payload(&[("x", 0)], &[("x", "1")], 2);
        indexed.prepare(Position::new(0), &pending);
        let reader = payload(&[("x", 0)], &[], 0);
        assert_eq!(indexed.vote(&reader), Decision::Abort);
        indexed.release(Position::new(0));
        assert_eq!(indexed.vote(&reader), Decision::Commit);
    }

    #[test]
    fn indexed_refcounts_survive_partial_release() {
        let mut indexed = Serializability::new().indexed_certifier(ShardId::new(0));
        let a = payload(&[("x", 0)], &[("x", "1")], 2);
        let b = payload(&[("x", 0)], &[("x", "2")], 3);
        indexed.prepare(Position::new(0), &a);
        indexed.prepare(Position::new(1), &b);
        indexed.release(Position::new(0));
        // b still write-locks x.
        let reader = payload(&[("x", 0)], &[], 0);
        assert_eq!(indexed.vote(&reader), Decision::Abort);
        indexed.release(Position::new(1));
        assert_eq!(indexed.vote(&reader), Decision::Commit);
    }

    #[test]
    fn indexed_transitions_are_idempotent() {
        let mut indexed = Serializability::new().indexed_certifier(ShardId::new(0));
        let pending = payload(&[("x", 0)], &[("x", "1")], 2);
        indexed.prepare(Position::new(0), &pending);
        indexed.prepare(Position::new(0), &pending);
        indexed.release(Position::new(0));
        let reader = payload(&[("x", 0)], &[], 0);
        // A single release suffices even after a duplicated prepare.
        assert_eq!(indexed.vote(&reader), Decision::Commit);
        let committed = payload(&[("y", 0)], &[("y", "1")], 4);
        indexed.apply_committed(Position::new(1), &committed);
        indexed.apply_committed(Position::new(1), &committed);
        let stale = payload(&[("y", 1)], &[], 0);
        assert_eq!(indexed.vote(&stale), Decision::Abort);
    }

    #[test]
    fn clear_prepared_releases_every_lock_and_keeps_the_committed_set() {
        let indexes = [
            Serializability::new().indexed_certifier(ShardId::new(0)),
            WriteConflict::new().indexed_certifier(ShardId::new(0)),
            Box::new(MirrorCertifier::new(
                Serializability::new().shard_certifier(ShardId::new(0)),
            )),
        ];
        for mut indexed in indexes {
            indexed.apply_committed(Position::new(0), &payload(&[("x", 0)], &[("x", "1")], 5));
            indexed.prepare(Position::new(1), &payload(&[("y", 0)], &[("y", "1")], 6));
            indexed.clear_prepared();
            // "y" is no longer locked, while "x" still has a newer writer.
            let fresh = payload(&[("y", 0)], &[("y", "2")], 9);
            assert_eq!(indexed.vote(&fresh), Decision::Commit, "{indexed:?}");
            let stale = payload(&[("x", 0)], &[("x", "2")], 9);
            assert_eq!(indexed.vote(&stale), Decision::Abort, "{indexed:?}");
        }
    }

    #[test]
    fn mirror_certifier_is_reference_equivalent() {
        #[derive(Debug)]
        struct Custom;
        impl CertificationPolicy for Custom {
            fn certify(&self, committed: &[&Payload], payload: &Payload) -> Decision {
                Serializability::new().certify(committed, payload)
            }
            fn shard_certifier(&self, _shard: ShardId) -> Arc<dyn ShardCertifier> {
                Arc::new(SerializabilityShard)
            }
            fn name(&self) -> &'static str {
                "custom"
            }
        }
        // A policy without an override gets the mirror, which must agree with
        // the pure functions.
        let committed = vec![payload(&[("x", 0)], &[("x", "1")], 5)];
        let prepared = vec![payload(&[("y", 0)], &[("y", "1")], 6)];
        for candidate in [payload(&[("x", 2)], &[], 0), payload(&[("y", 0)], &[], 0)] {
            assert_indexed_matches_reference(&Custom, &committed, &prepared, &candidate);
        }
    }

    #[test]
    fn indexed_clone_box_preserves_state() {
        let mut indexed = Serializability::new().indexed_certifier(ShardId::new(0));
        indexed.prepare(Position::new(0), &payload(&[("x", 0)], &[("x", "1")], 2));
        let cloned = indexed.clone_box();
        let reader = payload(&[("x", 0)], &[], 0);
        assert_eq!(cloned.vote(&reader), Decision::Abort);
    }

    #[test]
    fn policy_names() {
        assert_eq!(Serializability::new().name(), "serializability");
        assert_eq!(WriteConflict::new().name(), "write-conflict");
        let shared: Arc<dyn CertificationPolicy> = Serializability::shared();
        assert_eq!(shared.name(), "serializability");
    }
}
