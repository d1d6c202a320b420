//! Transaction payloads: the result of a transaction's optimistic execution.
//!
//! A payload is the triple `⟨R, W, Vc⟩` of §2 of the paper: the read set `R`
//! (objects with the versions that were read), the write set `W` (objects with
//! the values to be written) and the commit version `Vc` to be assigned to the
//! writes. Payloads are what clients submit to the Transaction Certification
//! Service and what shard leaders certify.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::ids::{Key, ShardId, Value, Version};
use crate::sharding::ShardMap;

/// Errors produced when validating a [`Payload`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PayloadError {
    /// An object appears in the write set but not in the read set.
    ///
    /// The paper requires that any object written has also been read
    /// (`∀(x, _) ∈ W. (x, _) ∈ R`).
    WriteWithoutRead {
        /// The offending key.
        key: Key,
    },
    /// The commit version is not strictly higher than some read version.
    ///
    /// The paper requires `∀(_, v) ∈ R. Vc > v`.
    CommitVersionTooLow {
        /// The key whose read version is not below the commit version.
        key: Key,
        /// The version that was read.
        read: Version,
        /// The declared commit version.
        commit: Version,
    },
    /// A non-empty write set was provided without a commit version.
    MissingCommitVersion,
}

impl fmt::Display for PayloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PayloadError::WriteWithoutRead { key } => {
                write!(f, "object {key} is written but was not read")
            }
            PayloadError::CommitVersionTooLow { key, read, commit } => write!(
                f,
                "commit version {commit} is not above version {read} read for object {key}"
            ),
            PayloadError::MissingCommitVersion => {
                f.write_str("payload has writes but no commit version")
            }
        }
    }
}

impl std::error::Error for PayloadError {}

/// The payload `⟨R, W, Vc⟩` of a transaction.
///
/// The distinguished *empty payload* `ε` (an empty read set and write set) is
/// produced by [`Payload::empty`]; the paper requires that every shard-local
/// certification function maps `ε` to `commit`, and the commit protocol uses
/// `ε` when a recovering coordinator finds a leader that never saw the
/// transaction's real payload.
///
/// Payloads are immutable shared values: a [`Payload::clone`] is a reference
/// count on the one stored triple, never a copy of the read and write sets
/// (nor a [`Key::ref_count`] bump), so a transaction's payload is stored once
/// however many messages, log slots and histories hold it. Equality and
/// hashing compare the contents. Only [`PayloadBuilder`] and a
/// [`Payload::restrict`] that drops a key allocate.
///
/// # Example
///
/// ```
/// use ratc_types::prelude::*;
///
/// let p = Payload::builder()
///     .read(Key::new("x"), Version::new(1))
///     .write(Key::new("x"), Value::from("10"))
///     .commit_version(Version::new(2))
///     .build()?;
/// assert!(!p.is_empty());
/// assert_eq!(p.reads().count(), 1);
/// # Ok::<(), PayloadError>(())
/// ```
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct Payload(Arc<Triple>);

/// The triple `⟨R, W, Vc⟩`: shared behind a [`Payload`], owned while a
/// [`PayloadBuilder`] fills it in.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
struct Triple {
    reads: BTreeMap<Key, Version>,
    writes: BTreeMap<Key, Value>,
    commit_version: Version,
}

impl Payload {
    /// Returns the distinguished empty payload `ε`.
    pub fn empty() -> Self {
        Payload::default()
    }

    /// Starts building a payload.
    pub fn builder() -> PayloadBuilder {
        PayloadBuilder::default()
    }

    /// Returns `true` if this payload is the empty payload `ε`
    /// (no reads and no writes).
    pub fn is_empty(&self) -> bool {
        self.0.reads.is_empty() && self.0.writes.is_empty()
    }

    /// Returns the version that this transaction's writes will carry.
    pub fn commit_version(&self) -> Version {
        self.0.commit_version
    }

    /// Iterates over the read set: `(key, version read)` pairs.
    pub fn reads(&self) -> impl Iterator<Item = (&Key, Version)> + '_ {
        self.0.reads.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates over the write set: `(key, value written)` pairs.
    pub fn writes(&self) -> impl Iterator<Item = (&Key, &Value)> + '_ {
        self.0.writes.iter()
    }

    /// Returns the version this payload read for `key`, if `key` is in the read set.
    pub fn read_version(&self, key: &Key) -> Option<Version> {
        self.0.reads.get(key).copied()
    }

    /// Returns `true` if `key` is in the read set.
    pub fn reads_key(&self, key: &Key) -> bool {
        self.0.reads.contains_key(key)
    }

    /// Returns `true` if `key` is in the write set.
    pub fn writes_key(&self, key: &Key) -> bool {
        self.0.writes.contains_key(key)
    }

    /// Returns the number of keys in the read set.
    pub fn read_count(&self) -> usize {
        self.0.reads.len()
    }

    /// Returns the number of keys in the write set.
    pub fn write_count(&self) -> usize {
        self.0.writes.len()
    }

    /// All keys touched (read or written) by this payload.
    pub fn keys(&self) -> impl Iterator<Item = &Key> + '_ {
        // Reads are a superset of writes in well-formed payloads, but restricted
        // payloads (l | s) may violate that, so take the union explicitly.
        self.0.reads.keys().chain(
            self.0
                .writes
                .keys()
                .filter(|k| !self.0.reads.contains_key(*k)),
        )
    }

    /// Validates the payload against the well-formedness conditions of §2:
    /// every written object was read, and the commit version is strictly above
    /// every read version (when there are writes).
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as a [`PayloadError`].
    pub fn validate(&self) -> Result<(), PayloadError> {
        for key in self.0.writes.keys() {
            if !self.0.reads.contains_key(key) {
                return Err(PayloadError::WriteWithoutRead { key: key.clone() });
            }
        }
        if !self.0.writes.is_empty() {
            if self.0.commit_version == Version::ZERO {
                return Err(PayloadError::MissingCommitVersion);
            }
            for (key, read) in &self.0.reads {
                if self.0.commit_version <= *read {
                    return Err(PayloadError::CommitVersionTooLow {
                        key: key.clone(),
                        read: *read,
                        commit: self.0.commit_version,
                    });
                }
            }
        }
        Ok(())
    }

    /// The restriction `l | s` of this payload to the objects managed by shard
    /// `s` under the given shard map.
    ///
    /// The commit version is preserved; read and write entries whose key is not
    /// managed by `s` are dropped. If the transaction touches no objects of
    /// `s`, the result is the empty payload `ε` (as required by the paper for
    /// shards outside `shards(t)`). A payload that lives on `s` entirely is
    /// its own restriction: the shared handle is returned and nothing is
    /// allocated, so a single-shard transaction is stored once end to end.
    pub fn restrict<M: ShardMap + ?Sized>(&self, shard: ShardId, sharding: &M) -> Payload {
        let mut keys = self.0.reads.keys().chain(self.0.writes.keys());
        if keys.all(|k| sharding.shard_of(k) == shard) {
            return self.clone();
        }
        let reads: BTreeMap<Key, Version> = self
            .0
            .reads
            .iter()
            .filter(|(k, _)| sharding.shard_of(k) == shard)
            .map(|(k, v)| (k.clone(), *v))
            .collect();
        let writes: BTreeMap<Key, Value> = self
            .0
            .writes
            .iter()
            .filter(|(k, _)| sharding.shard_of(k) == shard)
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        if reads.is_empty() && writes.is_empty() {
            Payload::empty()
        } else {
            Payload(Arc::new(Triple {
                reads,
                writes,
                commit_version: self.0.commit_version,
            }))
        }
    }

    /// The set of shards that must certify this payload under the given shard
    /// map (the function `shards(t)` of the paper).
    pub fn shards<M: ShardMap + ?Sized>(&self, sharding: &M) -> Vec<ShardId> {
        let mut shards: Vec<ShardId> = self.keys().map(|k| sharding.shard_of(k)).collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// Approximate size of this payload in bytes, used by benchmarks to account
    /// for replication traffic.
    pub fn size_bytes(&self) -> usize {
        let reads: usize = self
            .0
            .reads
            .keys()
            .map(|k| k.as_str().len() + std::mem::size_of::<Version>())
            .sum();
        let writes: usize = self
            .0
            .writes
            .iter()
            .map(|(k, v)| k.as_str().len() + v.len())
            .sum();
        reads + writes + std::mem::size_of::<Version>()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("reads", &self.0.reads)
            .field("writes", &self.0.writes)
            .field("commit_version", &self.0.commit_version)
            .finish()
    }
}

impl fmt::Display for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return f.write_str("ε");
        }
        write!(
            f,
            "⟨R:{} keys, W:{} keys, Vc:{}⟩",
            self.0.reads.len(),
            self.0.writes.len(),
            self.0.commit_version
        )
    }
}

/// Builder for [`Payload`] values.
///
/// The builder validates the payload on [`PayloadBuilder::build`]; use
/// [`PayloadBuilder::build_unchecked`] to construct deliberately malformed
/// payloads in tests.
#[derive(Debug, Clone, Default)]
pub struct PayloadBuilder(Triple);

impl PayloadBuilder {
    /// Records that the transaction read `key` at `version`.
    pub fn read(mut self, key: Key, version: Version) -> Self {
        self.0.reads.insert(key, version);
        self
    }

    /// Records that the transaction writes `value` to `key`.
    pub fn write(mut self, key: Key, value: Value) -> Self {
        self.0.writes.insert(key, value);
        self
    }

    /// Sets the commit version `Vc` of the transaction's writes.
    pub fn commit_version(mut self, version: Version) -> Self {
        self.0.commit_version = version;
        self
    }

    /// Builds the payload, validating the well-formedness conditions of §2.
    ///
    /// # Errors
    ///
    /// Returns a [`PayloadError`] if a written object was not read, or the
    /// commit version is not strictly above every read version.
    pub fn build(self) -> Result<Payload, PayloadError> {
        let payload = self.build_unchecked();
        payload.validate()?;
        Ok(payload)
    }

    /// Builds the payload without validation.
    ///
    /// Useful for constructing adversarial payloads in tests of the
    /// certification functions and specification checkers.
    pub fn build_unchecked(self) -> Payload {
        Payload(Arc::new(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::HashSharding;

    fn k(name: &str) -> Key {
        Key::new(name)
    }

    #[test]
    fn empty_payload_is_epsilon() {
        let e = Payload::empty();
        assert!(e.is_empty());
        assert_eq!(e.to_string(), "ε");
        assert_eq!(e.read_count(), 0);
        assert_eq!(e.write_count(), 0);
        assert!(e.validate().is_ok());
    }

    #[test]
    fn builder_produces_wellformed_payload() {
        let p = Payload::builder()
            .read(k("x"), Version::new(1))
            .read(k("y"), Version::new(5))
            .write(k("y"), Value::from("v"))
            .commit_version(Version::new(6))
            .build()
            .expect("well-formed");
        assert_eq!(p.read_count(), 2);
        assert_eq!(p.write_count(), 1);
        assert_eq!(p.read_version(&k("y")), Some(Version::new(5)));
        assert!(p.writes_key(&k("y")));
        assert!(!p.writes_key(&k("x")));
        assert!(p.reads_key(&k("x")));
        assert_eq!(p.commit_version(), Version::new(6));
    }

    #[test]
    fn write_without_read_is_rejected() {
        let err = Payload::builder()
            .write(k("z"), Value::from("v"))
            .commit_version(Version::new(1))
            .build()
            .unwrap_err();
        assert_eq!(err, PayloadError::WriteWithoutRead { key: k("z") });
    }

    #[test]
    fn low_commit_version_is_rejected() {
        let err = Payload::builder()
            .read(k("x"), Version::new(9))
            .write(k("x"), Value::from("v"))
            .commit_version(Version::new(9))
            .build()
            .unwrap_err();
        assert!(matches!(err, PayloadError::CommitVersionTooLow { .. }));
    }

    #[test]
    fn missing_commit_version_is_rejected() {
        let err = Payload::builder()
            .read(k("x"), Version::new(0))
            .write(k("x"), Value::from("v"))
            .build()
            .unwrap_err();
        assert_eq!(err, PayloadError::MissingCommitVersion);
    }

    #[test]
    fn read_only_payload_needs_no_commit_version() {
        let p = Payload::builder()
            .read(k("x"), Version::new(3))
            .build()
            .expect("read-only payloads are fine without Vc");
        assert_eq!(p.write_count(), 0);
    }

    #[test]
    fn restriction_drops_foreign_keys_and_preserves_version() {
        let sharding = HashSharding::new(2);
        let p = Payload::builder()
            .read(k("a"), Version::new(1))
            .read(k("b"), Version::new(2))
            .write(k("a"), Value::from("1"))
            .write(k("b"), Value::from("2"))
            .commit_version(Version::new(3))
            .build()
            .expect("well-formed");
        let shards = p.shards(&sharding);
        // With two shards and two keys hashing somewhere, every restricted
        // payload must contain only keys of its shard and the union must cover
        // the original key set.
        let mut seen = 0;
        for s in &shards {
            let r = p.restrict(*s, &sharding);
            for (key, _) in r.reads() {
                assert_eq!(sharding.shard_of(key), *s);
                seen += 1;
            }
            assert_eq!(r.commit_version(), Version::new(3));
        }
        assert_eq!(seen, 2);
    }

    #[test]
    fn restriction_to_untouched_shard_is_epsilon() {
        // Single key: at least one of the two shards is untouched.
        let sharding = HashSharding::new(2);
        let p = Payload::builder()
            .read(k("solo"), Version::new(1))
            .build()
            .expect("well-formed");
        let touched = sharding.shard_of(&k("solo"));
        let other = ShardId::new(1 - touched.as_u32());
        assert!(p.restrict(other, &sharding).is_empty());
        assert!(!p.restrict(touched, &sharding).is_empty());
    }

    #[test]
    fn clones_share_the_one_stored_triple() {
        let key = k("x");
        let p = Payload::builder()
            .read(key.clone(), Version::new(1))
            .write(key.clone(), Value::from("v"))
            .commit_version(Version::new(2))
            .build()
            .expect("well-formed");
        let held = key.ref_count();
        assert_eq!(held, 3, "this handle, the read set and the write set");
        let clones = vec![p.clone(); 10];
        assert_eq!(key.ref_count(), held, "a clone copies no key");
        assert!(clones.iter().all(|c| *c == p));
        drop((clones, p));
        assert_eq!(key.ref_count(), 1, "the last handle frees the triple");
    }

    #[test]
    fn equality_and_hash_compare_contents_not_handles() {
        use std::collections::HashSet;
        let build = |version| {
            Payload::builder()
                .read(k("x"), Version::new(version))
                .build()
                .expect("well-formed")
        };
        let (a, b, other) = (build(1), build(1), build(2));
        assert_eq!(a, b, "separately built, equal contents");
        assert_ne!(a, other);
        let set: HashSet<Payload> = [a.clone(), a, b, other].into();
        assert_eq!(set.len(), 2);
        assert_eq!(Payload::empty(), Payload::default());
    }

    #[test]
    fn restricting_a_shared_payload_leaves_the_original_untouched() {
        let sharding = HashSharding::new(2);
        let p = Payload::builder()
            .read(k("a"), Version::new(1))
            .read(k("b"), Version::new(2))
            .write(k("b"), Value::from("2"))
            .commit_version(Version::new(3))
            .build()
            .expect("well-formed");
        let (shared, before) = (p.clone(), format!("{p:?}"));
        for s in 0..2 {
            let r = p.restrict(ShardId::new(s), &sharding);
            assert!(r
                .keys()
                .all(|key| sharding.shard_of(key) == ShardId::new(s)));
        }
        assert_eq!(format!("{shared:?}"), before);
        assert_eq!((shared.read_count(), shared.write_count()), (2, 1));
    }

    #[test]
    fn a_restriction_that_drops_nothing_is_the_shared_handle() {
        use crate::sharding::ExplicitSharding;
        let (home, away, idle) = (ShardId::new(0), ShardId::new(1), ShardId::new(2));
        let sharding = ExplicitSharding::new(3, home).with(k("far"), away);
        let (x, y) = (k("x"), k("y"));
        let local = Payload::builder()
            .read(x.clone(), Version::new(1))
            .read(y.clone(), Version::new(1))
            .write(y.clone(), Value::from("v"))
            .commit_version(Version::new(2))
            .build()
            .expect("well-formed");
        let held = (x.ref_count(), y.ref_count());
        let restricted = local.restrict(home, &sharding);
        assert_eq!((x.ref_count(), y.ref_count()), held, "no key was copied");
        assert_eq!(restricted, local);
        assert!(local.restrict(away, &sharding).is_empty(), "ε elsewhere");

        // One foreign key and the restriction is a filtered build again.
        let spread = Payload::builder()
            .read(x.clone(), Version::new(1))
            .read(k("far"), Version::new(1))
            .write(k("far"), Value::from("v"))
            .commit_version(Version::new(2))
            .build()
            .expect("well-formed");
        let at_home = spread.restrict(home, &sharding);
        assert_eq!(x.ref_count(), held.0 + 2, "`spread` and its restriction");
        let filtered = Payload::builder().read(x.clone(), Version::new(1));
        let filtered = filtered.commit_version(Version::new(2)).build_unchecked();
        assert_eq!(at_home, filtered);
        let at_away = spread.restrict(away, &sharding);
        assert_eq!((at_away.read_count(), at_away.write_count()), (1, 1));
        assert!(!at_away.reads_key(&x));
        assert_eq!(spread.restrict(idle, &sharding), Payload::empty());
    }

    #[test]
    fn shards_are_sorted_and_deduplicated() {
        let sharding = HashSharding::new(4);
        let p = Payload::builder()
            .read(k("k1"), Version::new(1))
            .read(k("k2"), Version::new(1))
            .read(k("k3"), Version::new(1))
            .read(k("k4"), Version::new(1))
            .build()
            .expect("well-formed");
        let shards = p.shards(&sharding);
        let mut sorted = shards.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(shards, sorted);
    }

    #[test]
    fn size_bytes_is_positive_for_nonempty() {
        let p = Payload::builder()
            .read(k("x"), Version::new(1))
            .write(k("x"), Value::from("abc"))
            .commit_version(Version::new(2))
            .build()
            .expect("well-formed");
        assert!(p.size_bytes() > 0);
    }

    #[test]
    fn keys_union_of_reads_and_writes() {
        // Use build_unchecked to create a payload that writes a key it did not
        // read (as can happen for restrictions in adversarial tests).
        let p = Payload::builder()
            .read(k("r"), Version::new(1))
            .write(k("w"), Value::from("x"))
            .commit_version(Version::new(2))
            .build_unchecked();
        let keys: Vec<&Key> = p.keys().collect();
        assert_eq!(keys.len(), 2);
    }
}
