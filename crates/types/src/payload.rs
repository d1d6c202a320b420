//! Transaction payloads: the result of a transaction's optimistic execution.
//!
//! A payload is the triple `⟨R, W, Vc⟩` of §2 of the paper: the read set `R`
//! (objects with the versions that were read), the write set `W` (objects with
//! the values to be written) and the commit version `Vc` to be assigned to the
//! writes. Payloads are what clients submit to the Transaction Certification
//! Service and what shard leaders certify.

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
/// however many messages, log slots and histories hold it. The read and write
/// sets are two arrays sorted by key, one entry per key; equality and hashing
/// compare the contents, as for the maps they spell. Only [`PayloadBuilder`],
/// a [`Payload::restrict`] that drops a key and a [`Payload::place`] on
/// several shards allocate.
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

/// The triple `⟨R, W, Vc⟩` behind a [`Payload`]. Each set is sorted by key
/// and holds a key once, so the derived equality and hash are those of a
/// `BTreeMap` of the same entries (a map hashes its length, then its entries
/// in key order, exactly as a slice does).
#[derive(PartialEq, Eq, Hash, Default)]
struct Triple {
    reads: Box<[(Key, Version)]>,
    writes: Box<[(Key, Value)]>,
    commit_version: Version,
}

/// The entry of `key` in a set sorted by key.
fn lookup<'a, T>(set: &'a [(Key, T)], key: &Key) -> Option<&'a T> {
    let found = set.binary_search_by(|(held, _)| held.cmp(key));
    found.ok().map(|at| &set[at].1)
}

/// Formats a sorted set as the map it spells.
struct AsMap<'a, T>(&'a [(Key, T)]);

impl<T: fmt::Debug> fmt::Debug for AsMap<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.0.iter().map(|(key, value)| (key, value)))
            .finish()
    }
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

    /// Iterates over the read set in key order: `(key, version read)` pairs.
    pub fn reads(&self) -> impl Iterator<Item = (&Key, Version)> + '_ {
        self.0.reads.iter().map(|(k, v)| (k, *v))
    }

    /// Iterates over the write set in key order: `(key, value written)`
    /// pairs.
    pub fn writes(&self) -> impl Iterator<Item = (&Key, &Value)> + '_ {
        self.0.writes.iter().map(|(k, v)| (k, v))
    }

    /// Returns the version this payload read for `key`, if `key` is in the read set.
    pub fn read_version(&self, key: &Key) -> Option<Version> {
        lookup(&self.0.reads, key).copied()
    }

    /// Returns `true` if `key` is in the read set.
    pub fn reads_key(&self, key: &Key) -> bool {
        lookup(&self.0.reads, key).is_some()
    }

    /// Returns `true` if `key` is in the write set.
    pub fn writes_key(&self, key: &Key) -> bool {
        lookup(&self.0.writes, key).is_some()
    }

    /// Returns the number of keys in the read set.
    pub fn read_count(&self) -> usize {
        self.0.reads.len()
    }

    /// Returns the number of keys in the write set.
    pub fn write_count(&self) -> usize {
        self.0.writes.len()
    }

    /// All keys touched (read or written) by this payload, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> + '_ {
        // A well-formed payload reads every key it writes (W ⊆ R), and so
        // does each of its restrictions; only a `build_unchecked` payload
        // may write a key it did not read. Merging the two sorted sets
        // covers both.
        let mut reads = self.0.reads.iter().map(|(k, _)| k).peekable();
        let mut writes = self.0.writes.iter().map(|(k, _)| k).peekable();
        std::iter::from_fn(move || match (reads.peek(), writes.peek()) {
            (Some(read), Some(written)) if written < read => writes.next(),
            (Some(read), Some(written)) if written == read => {
                writes.next();
                reads.next()
            }
            (Some(_), _) => reads.next(),
            (None, _) => writes.next(),
        })
    }

    /// Validates the payload against the well-formedness conditions of §2:
    /// every written object was read, and the commit version is strictly above
    /// every read version (when there are writes).
    ///
    /// # Errors
    ///
    /// Returns the first violated condition as a [`PayloadError`].
    pub fn validate(&self) -> Result<(), PayloadError> {
        for (key, _) in self.0.writes.iter() {
            if !self.reads_key(key) {
                return Err(PayloadError::WriteWithoutRead { key: key.clone() });
            }
        }
        if !self.0.writes.is_empty() {
            if self.0.commit_version == Version::ZERO {
                return Err(PayloadError::MissingCommitVersion);
            }
            for (key, read) in self.0.reads.iter() {
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
    /// [`Payload::place`] computes every shard's restriction at once.
    pub fn restrict<M: ShardMap + ?Sized>(&self, shard: ShardId, sharding: &M) -> Payload {
        let on = |key: &Key| sharding.shard_of(key) == shard;
        if self.keys().all(on) {
            return self.clone();
        }
        fn kept<T: Clone>(set: &[(Key, T)], on: impl Fn(&Key) -> bool) -> Box<[(Key, T)]> {
            set.iter().filter(|(key, _)| on(key)).cloned().collect()
        }
        let (reads, writes) = (kept(&self.0.reads, on), kept(&self.0.writes, on));
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

    /// `shards(t)` and the restriction `l | s` to each of its shards, in one
    /// pass: one [`ShardMap::shard_of`] per key. Equal to
    /// [`Payload::shards`] with [`Payload::restrict`] to each shard, and what
    /// a coordinator computes once per transaction and reuses on every send.
    /// A payload on one shard is placed there as the shared handle and
    /// allocates nothing; `ε` is placed nowhere.
    pub fn place<M: ShardMap + ?Sized>(&self, sharding: &M) -> Placement {
        let Triple { reads, writes, .. } = &*self.0;
        // The shard of every entry, reads first: on the stack up to
        // `INLINE_KEYS` entries.
        let mut inline = [ShardId::default(); INLINE_KEYS];
        let mut spilled = Vec::new();
        let homes = match reads.len() + writes.len() {
            entries if entries <= INLINE_KEYS => &mut inline[..entries],
            entries => {
                spilled.resize(entries, ShardId::default());
                &mut spilled[..]
            }
        };
        let (read_homes, write_homes) = homes.split_at_mut(reads.len());
        for (home, (key, _)) in read_homes.iter_mut().zip(reads.iter()) {
            *home = sharding.shard_of(key);
        }
        // A written key was read too (unless built unchecked), and both sets
        // are sorted: one forward walk finds its read, and its shard.
        let mut at = 0;
        for (home, (key, _)) in write_homes.iter_mut().zip(writes.iter()) {
            at += reads[at..].partition_point(|(read, _)| read < key);
            *home = match reads.get(at) {
                Some((read, _)) if read == key => read_homes[at],
                _ => sharding.shard_of(key),
            };
        }
        let homes = &*homes;
        let Some(&home) = homes.first() else {
            return Placement::default();
        };
        if homes.iter().all(|shard| *shard == home) {
            return Placement(Parts::One([(home, Some(self.clone()))]));
        }
        let (read_homes, write_homes) = homes.split_at(reads.len());
        let above = |after: Option<ShardId>| {
            let above = homes.iter().filter(move |s| after.is_none_or(|a| **s > a));
            above.copied().min()
        };
        let ascending = || std::iter::successors(above(None), |shard| above(Some(*shard)));
        let mut parts = Vec::with_capacity(ascending().count());
        for shard in ascending() {
            let part = Triple {
                reads: pick(reads, read_homes, shard),
                writes: pick(writes, write_homes, shard),
                commit_version: self.0.commit_version,
            };
            parts.push((shard, Some(Payload(Arc::new(part)))));
        }
        Placement(Parts::Many(parts.into_boxed_slice()))
    }
}

/// Entries [`Payload::place`] finds the shards of without allocating.
const INLINE_KEYS: usize = 16;

/// The entries of `set` on `shard`, `homes` holding each entry's shard,
/// allocated once at their exact size.
fn pick<T: Clone>(set: &[(Key, T)], homes: &[ShardId], shard: ShardId) -> Box<[(Key, T)]> {
    let on = || {
        set.iter()
            .zip(homes)
            .filter(move |(_, home)| **home == shard)
    };
    let mut picked = Vec::with_capacity(on().count());
    picked.extend(on().map(|(entry, _)| entry.clone()));
    picked.into_boxed_slice()
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("reads", &AsMap(&self.0.reads))
            .field("writes", &AsMap(&self.0.writes))
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

/// Where a transaction is certified: `shards(t)` in ascending order, each
/// with the restriction `l | s` of the payload to it, or `None` where the
/// payload is unknown (the `⊥` of a recovery coordinator, which knows a
/// transaction's shards from a log but never saw its payload).
///
/// [`Payload::place`] computes it. The shards and their restrictions live
/// in one container, and a single shard inline: a single-shard placement
/// allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Placement(Parts);

/// A [`Placement`]'s shards and restrictions: one shard inline, or none
/// or several in one block.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Parts {
    One([(ShardId, Option<Payload>); 1]),
    Many(Box<[(ShardId, Option<Payload>)]>),
}

impl Default for Parts {
    fn default() -> Self {
        Parts::Many(Box::default())
    }
}

impl Placement {
    /// A placement on `shards` (ascending, distinct) whose restrictions are
    /// unknown.
    pub fn unknown(shards: &[ShardId]) -> Placement {
        match shards {
            [shard] => Placement(Parts::One([(*shard, None)])),
            _ => Placement(Parts::Many(shards.iter().map(|s| (*s, None)).collect())),
        }
    }

    /// Each shard with its restriction (`None`: unknown), in shard order.
    pub fn parts(&self) -> impl ExactSizeIterator<Item = (ShardId, Option<&Payload>)> + '_ {
        let parts: &[_] = match &self.0 {
            Parts::One(one) => one,
            Parts::Many(many) => many,
        };
        parts.iter().map(|(shard, part)| (*shard, part.as_ref()))
    }

    /// `shards(t)`, in ascending order.
    pub fn shards(&self) -> impl ExactSizeIterator<Item = ShardId> + '_ {
        self.parts().map(|(shard, _)| shard)
    }

    /// The number of shards.
    pub fn len(&self) -> usize {
        self.parts().len()
    }

    /// Whether the transaction touches no shard (its payload is `ε`).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The same shards with every restriction dropped: what is kept of a
    /// decided transaction, without holding its payload.
    pub fn shards_only(mut self) -> Placement {
        let parts = match &mut self.0 {
            Parts::One(one) => &mut one[..],
            Parts::Many(many) => &mut many[..],
        };
        for (_, part) in parts {
            *part = None;
        }
        self
    }
}

/// Builder for [`Payload`] values.
///
/// The builder collects the entries as given and sorts them once, on
/// [`PayloadBuilder::build`]; a key given twice keeps its last value, as a
/// map insert would. It validates the payload there too; use
/// [`PayloadBuilder::build_unchecked`] to construct deliberately malformed
/// payloads in tests.
#[derive(Debug, Clone, Default)]
pub struct PayloadBuilder {
    reads: Vec<(Key, Version)>,
    writes: Vec<(Key, Value)>,
    commit_version: Version,
}

impl PayloadBuilder {
    /// Records that the transaction read `key` at `version`.
    pub fn read(mut self, key: Key, version: Version) -> Self {
        self.reads.push((key, version));
        self
    }

    /// Records that the transaction writes `value` to `key`.
    pub fn write(mut self, key: Key, value: Value) -> Self {
        self.writes.push((key, value));
        self
    }

    /// Sets the commit version `Vc` of the transaction's writes.
    pub fn commit_version(mut self, version: Version) -> Self {
        self.commit_version = version;
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
        Payload(Arc::new(Triple {
            reads: sorted(self.reads),
            writes: sorted(self.writes),
            commit_version: self.commit_version,
        }))
    }
}

/// `set` sorted by key, a repeated key keeping the value given last and the
/// key given first (as `BTreeMap::insert` does).
fn sorted<T>(mut set: Vec<(Key, T)>) -> Box<[(Key, T)]> {
    // A stable sort keeps each key's entries in the order given.
    set.sort_by(|(a, _), (b, _)| a.cmp(b));
    set.dedup_by(|later, kept| {
        let repeated = later.0 == kept.0;
        if repeated {
            std::mem::swap(&mut later.1, &mut kept.1);
        }
        repeated
    });
    if set.len() == set.capacity() {
        return set.into_boxed_slice();
    }
    // Moved to a block of the exact size rather than shrunk in place: a
    // shrink leaves the rest of the block behind as a hole between stored
    // payloads, while the whole block freed here is the next builder's.
    let mut exact = Vec::with_capacity(set.len());
    exact.append(&mut set);
    exact.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sharding::{ExplicitSharding, HashSharding};

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
        let placed = local.place(&sharding);
        assert_eq!((x.ref_count(), y.ref_count()), held, "no key was copied");
        assert_eq!(restricted, local);
        assert!(local.restrict(away, &sharding).is_empty(), "ε elsewhere");
        let parts: Vec<_> = placed.parts().collect();
        assert_eq!(parts, [(home, Some(&local))], "placed home, as the handle");

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
        let before = x.ref_count();
        let placed = spread.place(&sharding);
        assert_eq!(x.ref_count(), before + 1, "the part placed home");
        let parts: Vec<_> = placed.parts().collect();
        assert_eq!(parts, [(home, Some(&at_home)), (away, Some(&at_away))]);
    }

    /// Payloads drawn from `seed`: up to six keys out of ten, each read,
    /// written or both (a write without a read makes the payload one only
    /// `build_unchecked` builds), in a scrambled order.
    fn drawn(seed: u64) -> Payload {
        let mut state = seed;
        let mut next = move || {
            // splitmix64
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut builder = Payload::builder().commit_version(Version::new(9));
        for _ in 0..next() % 7 {
            let key = k(&format!("key-{}", next() % 10));
            match next() % 4 {
                0 => builder = builder.write(key, Value::from("w")),
                1 => builder = builder.read(key, Version::new(next() % 9)),
                _ => {
                    builder = builder.read(key.clone(), Version::new(next() % 9));
                    builder = builder.write(key, Value::from("rw"));
                }
            }
        }
        builder.build_unchecked()
    }

    /// `place` is `shards` plus `restrict`, shard by shard: the restriction
    /// of each shard it names, and `ε` on every other.
    fn assert_placed_as_restricted<M: ShardMap>(payload: &Payload, sharding: &M) {
        let placed = payload.place(sharding);
        let shards: Vec<ShardId> = placed.shards().collect();
        assert_eq!(shards, payload.shards(sharding), "{payload:?}");
        assert_eq!(placed.len(), shards.len());
        for shard in sharding.shards() {
            let part = placed.parts().find(|(at, _)| *at == shard);
            let restricted = payload.restrict(shard, sharding);
            match part {
                Some((_, part)) => assert_eq!(part, Some(&restricted), "{payload:?} on {shard}"),
                None => assert!(restricted.is_empty(), "{payload:?} on {shard}"),
            }
        }
    }

    #[test]
    fn placement_equals_the_papers_shards_and_restrictions() {
        let fixed = [
            Payload::empty(),
            Payload::builder()
                .read(k("x"), Version::new(1))
                .read(k("y"), Version::new(2))
                .build()
                .expect("read-only"),
            Payload::builder()
                .read(k("r"), Version::new(1))
                .write(k("w"), Value::from("v"))
                .commit_version(Version::new(2))
                .build_unchecked(),
            // More entries than `place` keeps on the stack.
            (0..INLINE_KEYS)
                .map(|i| k(&format!("key-{i}")))
                .fold(Payload::builder(), |b, key| {
                    b.read(key.clone(), Version::new(1))
                        .write(key, Value::from("v"))
                })
                .commit_version(Version::new(2))
                .build()
                .expect("well-formed"),
        ];
        let explicit = ExplicitSharding::new(3, ShardId::new(0))
            .with(k("y"), ShardId::new(2))
            .with(k("w"), ShardId::new(1))
            .with(k("key-3"), ShardId::new(1))
            .with(k("key-7"), ShardId::new(2));
        let payloads = fixed.into_iter().chain((0..400).map(drawn));
        for payload in payloads {
            for n in 1..=8 {
                assert_placed_as_restricted(&payload, &HashSharding::new(n));
            }
            assert_placed_as_restricted(&payload, &explicit);
        }
        assert!(
            Payload::empty().place(&explicit).is_empty(),
            "ε is placed nowhere"
        );
        let unknown = Placement::unknown(&[ShardId::new(1), ShardId::new(2)]);
        let parts: Vec<_> = unknown.parts().collect();
        assert_eq!(parts, [(ShardId::new(1), None), (ShardId::new(2), None)]);
    }

    #[test]
    fn a_placement_without_its_restrictions_keeps_the_shards_and_no_key() {
        let sharding = ExplicitSharding::new(2, ShardId::new(0)).with(k("b"), ShardId::new(1));
        let (a, b) = (k("a"), k("b"));
        for keys in [vec![a.clone()], vec![a.clone(), b.clone()]] {
            let held = (a.ref_count(), b.ref_count());
            let payload = keys
                .iter()
                .fold(Payload::builder(), |p, key| {
                    p.read(key.clone(), Version::ZERO)
                })
                .build()
                .expect("well-formed");
            let placed = payload.place(&sharding);
            drop(payload);
            let shards: Vec<ShardId> = placed.shards().collect();
            let kept = placed.shards_only();
            assert_eq!(kept.shards().collect::<Vec<_>>(), shards);
            assert!(kept.parts().all(|(_, part)| part.is_none()));
            assert_eq!((a.ref_count(), b.ref_count()), held, "{shards:?}");
        }
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
    fn keys_union_of_reads_and_writes() {
        // Use build_unchecked to create a payload that writes a key it did not
        // read (only adversarial tests build one).
        let p = Payload::builder()
            .read(k("r"), Version::new(1))
            .write(k("w"), Value::from("x"))
            .commit_version(Version::new(2))
            .build_unchecked();
        let keys: Vec<&Key> = p.keys().collect();
        assert_eq!(keys.len(), 2);
    }

    /// Two keys given out of order, one read only, one read and written.
    fn two_keys(reversed: bool) -> Payload {
        let mut reads = vec![(k("y"), Version::new(5)), (k("x"), Version::new(1))];
        if reversed {
            reads.reverse();
        }
        let builder = Payload::builder().write(k("y"), Value::from("v"));
        let builder = reads
            .into_iter()
            .fold(builder, |b, (key, v)| b.read(key, v));
        builder
            .commit_version(Version::new(6))
            .build()
            .expect("well-formed")
    }

    #[test]
    fn debug_prints_each_set_as_the_map_it_spells() {
        assert_eq!(
            format!("{:?}", two_keys(false)),
            "Payload { reads: {Key(\"x\"): Version(1), Key(\"y\"): Version(5)}, \
             writes: {Key(\"y\"): Value([118])}, commit_version: Version(6) }"
        );
        assert_eq!(
            format!("{:?}", Payload::empty()),
            "Payload { reads: {}, writes: {}, commit_version: Version(0) }"
        );
    }

    #[test]
    fn a_repeated_key_keeps_the_last_value_given() {
        let p = Payload::builder()
            .read(k("x"), Version::new(1))
            .write(k("x"), Value::from("first"))
            .read(k("y"), Version::new(2))
            .read(k("x"), Version::new(3))
            .write(k("x"), Value::from("last"))
            .commit_version(Version::new(4))
            .build()
            .expect("well-formed");
        assert_eq!((p.read_count(), p.write_count()), (2, 1));
        assert_eq!(p.read_version(&k("x")), Some(Version::new(3)));
        let written: Vec<_> = p.writes().collect();
        assert_eq!(written, [(&k("x"), &Value::from("last"))]);
    }

    #[test]
    fn reads_writes_and_keys_iterate_in_key_order() {
        let p = Payload::builder()
            .read(k("d"), Version::new(1))
            .write(k("c"), Value::from("v"))
            .read(k("b"), Version::new(1))
            .write(k("d"), Value::from("v"))
            .write(k("a"), Value::from("v"))
            .commit_version(Version::new(2))
            .build_unchecked();
        let names = |keys: Vec<&Key>| keys.iter().map(|key| key.as_str()).collect::<String>();
        assert_eq!(names(p.reads().map(|(key, _)| key).collect()), "bd");
        assert_eq!(names(p.writes().map(|(key, _)| key).collect()), "acd");
        assert_eq!(names(p.keys().collect()), "abcd");
    }

    #[test]
    fn equality_and_hash_do_not_depend_on_insertion_order() {
        use std::hash::{BuildHasher, RandomState};
        let (given, reversed) = (two_keys(false), two_keys(true));
        assert_eq!(given, reversed);
        let state = RandomState::new();
        assert_eq!(state.hash_one(&given), state.hash_one(&reversed));
        assert_ne!(state.hash_one(&given), state.hash_one(Payload::empty()));
    }
}
