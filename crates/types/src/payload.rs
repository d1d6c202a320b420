//! Transaction payloads: the result of a transaction's optimistic execution.
//!
//! A payload is the triple `⟨R, W, Vc⟩` of §2 of the paper: the read set `R`
//! (objects with the versions that were read), the write set `W` (objects with
//! the values to be written) and the commit version `Vc` to be assigned to the
//! writes. Payloads are what clients submit to the Transaction Certification
//! Service and what shard leaders certify.
//!
//! A payload is stored once and shared by every holder. Its restriction
//! `l | s` to a shard is a view of that one triple: a restriction allocates
//! one node and copies nothing, and keeps its whole triple alive.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Range;
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
/// compare the contents, as for the maps they spell. A restriction `l | s`
/// is a view of that one triple: [`Payload::restrict`] and
/// [`Payload::place`] allocate one node per restriction, which names the
/// entries it keeps, and copy no entry, key or value. Only
/// [`PayloadBuilder`] copies entries. A view keeps its whole triple alive:
/// a holder of one shard's restriction also keeps, until it drops that
/// handle, the entries of every other shard.
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
#[derive(Clone, Default)]
pub struct Payload(Arc<Repr>);

/// What a [`Payload`] points at: a transaction's triple, or a part of one.
enum Repr {
    Whole(Triple),
    /// The entries of `of`, which is whole, whose bits are set in `keep`:
    /// read `i` is bit `i`, write `j` is bit `reads.len() + j`. Never
    /// empty and never all of `of`.
    Part {
        of: Payload,
        keep: Mask,
    },
}

impl Default for Repr {
    fn default() -> Self {
        Repr::Whole(Triple::default())
    }
}

/// The triple `⟨R, W, Vc⟩` behind a [`Payload`]. Each set is sorted by key
/// and holds a key once.
#[derive(Default)]
struct Triple {
    reads: Box<[(Key, Version)]>,
    writes: Box<[(Key, Value)]>,
    commit_version: Version,
}

impl Triple {
    /// The number of entries, reads and writes.
    fn entries(&self) -> usize {
        self.reads.len() + self.writes.len()
    }

    /// The key of entry `at`: read `at`, or write `at - reads.len()`.
    fn key(&self, at: usize) -> &Key {
        match self.reads.get(at) {
            Some((key, _)) => key,
            None => &self.writes[at - self.reads.len()].0,
        }
    }
}

/// The entries a part keeps, one bit per entry of its whole: one word up to
/// 64 entries, a bit set beyond.
enum Mask {
    Word(u64),
    Words(Box<[u64]>),
}

impl Mask {
    /// The mask over `entries` entries with the bits of `kept` set.
    fn of(entries: usize, kept: impl Iterator<Item = usize>) -> Mask {
        if entries <= 64 {
            return Mask::Word(kept.fold(0, |word, at| word | 1 << at));
        }
        let mut words = vec![0u64; entries.div_ceil(64)].into_boxed_slice();
        for at in kept {
            words[at / 64] |= 1 << (at % 64);
        }
        Mask::Words(words)
    }

    fn words(&self) -> &[u64] {
        match self {
            Mask::Word(word) => std::slice::from_ref(word),
            Mask::Words(words) => words,
        }
    }

    /// The number of entries kept.
    fn count(&self) -> usize {
        self.words()
            .iter()
            .map(|word| word.count_ones() as usize)
            .sum()
    }
}

/// Whether entry `at` is held under `keep` (`None`: every entry is).
fn holds(keep: Option<&[u64]>, at: usize) -> bool {
    keep.is_none_or(|words| {
        words
            .get(at / 64)
            .is_some_and(|word| word >> (at % 64) & 1 == 1)
    })
}

/// The entries in a range of indices that a payload holds, ascending: the
/// whole range, or the set bits of its mask in that range.
enum Held<'a> {
    All(Range<usize>),
    Kept {
        /// The bits not yet visited of the word at `base`, none at or
        /// past `end`.
        word: u64,
        base: usize,
        /// The words after `word`.
        rest: &'a [u64],
        end: usize,
    },
}

/// The bits of a word at `base` that lie below `end`.
fn below(end: usize, base: usize) -> u64 {
    match end.saturating_sub(base) {
        0 => 0,
        bits if bits >= 64 => u64::MAX,
        bits => u64::MAX >> (64 - bits),
    }
}

impl<'a> Held<'a> {
    fn new(keep: Option<&'a [u64]>, range: Range<usize>) -> Self {
        let Some(words) = keep else {
            return Held::All(range);
        };
        let (first, end) = (range.start / 64, range.end);
        let (word, rest) = match words.get(first..) {
            Some([word, rest @ ..]) => (word & (u64::MAX << (range.start % 64)), rest),
            _ => (0, &[][..]),
        };
        let base = first * 64;
        Held::Kept {
            word: word & below(end, base),
            base,
            rest,
            end,
        }
    }
}

impl Iterator for Held<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        match self {
            Held::All(range) => range.next(),
            Held::Kept {
                word,
                base,
                rest,
                end,
            } => loop {
                if *word != 0 {
                    let at = *base + word.trailing_zeros() as usize;
                    *word &= *word - 1;
                    return Some(at);
                }
                let (next, after) = rest.split_first()?;
                *base += 64;
                (*word, *rest) = (next & below(*end, *base), after);
            },
        }
    }
}

/// The entry of `key` in a set sorted by key, by index.
fn lookup<T>(set: &[(Key, T)], key: &Key) -> Option<usize> {
    set.binary_search_by(|(held, _)| held.cmp(key)).ok()
}

/// Formats the entries `F` yields as the map they spell.
struct AsMap<F>(F);

impl<F, I, K, V> fmt::Debug for AsMap<F>
where
    F: Fn() -> I,
    I: Iterator<Item = (K, V)>,
    K: fmt::Debug,
    V: fmt::Debug,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries((self.0)()).finish()
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

    /// The whole triple this payload reads, and the mask of the entries it
    /// keeps of it (`None`: it is the whole). A part's `of` is whole, so
    /// the walk takes one step at most.
    fn view(&self) -> (&Triple, Option<&[u64]>) {
        let (mut at, mut kept) = (self, None);
        loop {
            match &*at.0 {
                Repr::Whole(whole) => return (whole, kept),
                Repr::Part { of, keep } => (at, kept) = (of, kept.or(Some(keep.words()))),
            }
        }
    }

    /// The part of this payload's whole that keeps the entries of `keep`,
    /// which this payload holds: `ε` when it keeps none, this handle when
    /// it keeps all this payload holds.
    fn part(&self, keep: Mask, held: usize) -> Payload {
        match keep.count() {
            0 => Payload::empty(),
            kept if kept == held => self.clone(),
            _ => {
                let of = match &*self.0 {
                    Repr::Whole(_) => self.clone(),
                    Repr::Part { of, .. } => of.clone(),
                };
                Payload(Arc::new(Repr::Part { of, keep }))
            }
        }
    }

    /// Returns `true` if this payload is the empty payload `ε`
    /// (no reads and no writes).
    pub fn is_empty(&self) -> bool {
        let (whole, keep) = self.view();
        Held::new(keep, 0..whole.entries()).next().is_none()
    }

    /// Returns the version that this transaction's writes will carry.
    pub fn commit_version(&self) -> Version {
        self.view().0.commit_version
    }

    /// Iterates over the read set in key order: `(key, version read)` pairs.
    pub fn reads(&self) -> impl Iterator<Item = (&Key, Version)> + '_ {
        let (whole, keep) = self.view();
        Held::new(keep, 0..whole.reads.len()).map(|at| {
            let (key, version) = &whole.reads[at];
            (key, *version)
        })
    }

    /// Iterates over the write set in key order: `(key, value written)`
    /// pairs.
    pub fn writes(&self) -> impl Iterator<Item = (&Key, &Value)> + '_ {
        let (whole, keep) = self.view();
        let first = whole.reads.len();
        Held::new(keep, first..whole.entries()).map(move |at| {
            let (key, value) = &whole.writes[at - first];
            (key, value)
        })
    }

    /// Returns the version this payload read for `key`, if `key` is in the read set.
    pub fn read_version(&self, key: &Key) -> Option<Version> {
        let (whole, keep) = self.view();
        let at = lookup(&whole.reads, key).filter(|at| holds(keep, *at))?;
        Some(whole.reads[at].1)
    }

    /// Returns `true` if `key` is in the read set.
    pub fn reads_key(&self, key: &Key) -> bool {
        self.read_version(key).is_some()
    }

    /// Returns `true` if `key` is in the write set.
    pub fn writes_key(&self, key: &Key) -> bool {
        let (whole, keep) = self.view();
        lookup(&whole.writes, key).is_some_and(|at| holds(keep, whole.reads.len() + at))
    }

    /// Returns the number of keys in the read set.
    pub fn read_count(&self) -> usize {
        self.reads().count()
    }

    /// Returns the number of keys in the write set.
    pub fn write_count(&self) -> usize {
        self.writes().count()
    }

    /// All keys touched (read or written) by this payload, in key order.
    pub fn keys(&self) -> impl Iterator<Item = &Key> + '_ {
        // A well-formed payload reads every key it writes (W ⊆ R), and so
        // does each of its restrictions; only a `build_unchecked` payload
        // may write a key it did not read. Merging the two sorted sets
        // covers both.
        let mut reads = self.reads().map(|(k, _)| k).peekable();
        let mut writes = self.writes().map(|(k, _)| k).peekable();
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
        for (key, _) in self.writes() {
            if !self.reads_key(key) {
                return Err(PayloadError::WriteWithoutRead { key: key.clone() });
            }
        }
        if self.writes().next().is_some() {
            let commit = self.commit_version();
            if commit == Version::ZERO {
                return Err(PayloadError::MissingCommitVersion);
            }
            for (key, read) in self.reads() {
                if commit <= read {
                    return Err(PayloadError::CommitVersionTooLow {
                        key: key.clone(),
                        read,
                        commit,
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
    /// Any other restriction is one node viewing the whole triple.
    /// [`Payload::place`] computes every shard's restriction at once.
    pub fn restrict<M: ShardMap + ?Sized>(&self, shard: ShardId, sharding: &M) -> Payload {
        let (whole, keep) = self.view();
        let held = || Held::new(keep, 0..whole.entries());
        let on = |at: &usize| sharding.shard_of(whole.key(*at)) == shard;
        self.part(Mask::of(whole.entries(), held().filter(on)), held().count())
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
    /// allocates nothing; `ε` is placed nowhere. On several shards, each
    /// restriction is one node viewing the whole triple.
    pub fn place<M: ShardMap + ?Sized>(&self, sharding: &M) -> Placement {
        let (whole, keep) = self.view();
        let Triple { reads, writes, .. } = whole;
        // The shard of every entry of the whole, reads first: on the stack
        // up to `INLINE_KEYS` entries.
        let mut inline = [ShardId::default(); INLINE_KEYS];
        let mut spilled = Vec::new();
        let homes = match whole.entries() {
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
        let held = || Held::new(keep, 0..homes.len()).map(|at| (at, homes[at]));
        let Some((_, home)) = held().next() else {
            return Placement::default();
        };
        if held().all(|(_, shard)| shard == home) {
            return Placement(Parts::One([(home, Some(self.clone()))]));
        }
        let above = |after: Option<ShardId>| {
            let above = held().filter(move |(_, s)| after.is_none_or(|a| *s > a));
            above.map(|(_, shard)| shard).min()
        };
        let ascending = || std::iter::successors(above(None), |shard| above(Some(*shard)));
        let mut parts = Vec::with_capacity(ascending().count());
        let count = held().count();
        for shard in ascending() {
            let on = held().filter(|(_, home)| *home == shard);
            let keep = Mask::of(homes.len(), on.map(|(at, _)| at));
            parts.push((shard, Some(self.part(keep, count))));
        }
        Placement(Parts::Many(parts.into_boxed_slice()))
    }
}

/// Entries [`Payload::place`] finds the shards of without allocating.
const INLINE_KEYS: usize = 16;

/// Equal contents: a restriction equals the payload built from the entries
/// it keeps, however it is stored.
impl PartialEq for Payload {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.0, &other.0)
            || (self.commit_version() == other.commit_version()
                && self.reads().eq(other.reads())
                && self.writes().eq(other.writes()))
    }
}

impl Eq for Payload {}

/// Hashes the contents as a triple of two sorted slices would: each set's
/// length, then its entries in key order (a `BTreeMap` of the same entries
/// hashes alike), then the commit version.
impl Hash for Payload {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.read_count());
        for (key, version) in self.reads() {
            (key, version).hash(state);
        }
        state.write_usize(self.write_count());
        for entry in self.writes() {
            entry.hash(state);
        }
        self.commit_version().hash(state);
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Payload")
            .field("reads", &AsMap(|| self.reads()))
            .field("writes", &AsMap(|| self.writes()))
            .field("commit_version", &self.commit_version())
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
            self.read_count(),
            self.write_count(),
            self.commit_version()
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
        Payload(Arc::new(Repr::Whole(Triple {
            reads: sorted(self.reads),
            writes: sorted(self.writes),
            commit_version: self.commit_version,
        })))
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

        // One foreign key: each restriction views `spread` and copies no
        // key, and one kept alive by its own handle still reads the whole.
        let far = k("far");
        let spread = Payload::builder()
            .read(x.clone(), Version::new(1))
            .read(far.clone(), Version::new(1))
            .write(far.clone(), Value::from("v"))
            .commit_version(Version::new(2))
            .build()
            .expect("well-formed");
        let held = (x.ref_count(), far.ref_count());
        let at_home = spread.restrict(home, &sharding);
        let at_away = spread.restrict(away, &sharding);
        let placed = spread.place(&sharding);
        let again = at_away.restrict(away, &sharding);
        assert_eq!((x.ref_count(), far.ref_count()), held, "no key was copied");
        let filtered = Payload::builder().read(x.clone(), Version::new(1));
        let filtered = filtered.commit_version(Version::new(2)).build_unchecked();
        assert_eq!(at_home, filtered);
        assert_eq!((at_away.read_count(), at_away.write_count()), (1, 1));
        assert!(!at_away.reads_key(&x));
        assert_eq!(spread.restrict(idle, &sharding), Payload::empty());
        let parts: Vec<_> = placed.parts().collect();
        assert_eq!(parts, [(home, Some(&at_home)), (away, Some(&at_away))]);
        drop((spread, placed, at_away));
        assert_eq!(at_home, filtered, "a view keeps its whole alive");
        assert_eq!(again.writes().count(), 1);
        drop((at_home, again, filtered));
        assert_eq!((x.ref_count(), far.ref_count()), (held.0 - 1, 1));
    }

    /// Payloads drawn from `seed`: fewer than `picks` keys out of `keys`,
    /// each read, written or both (a write without a read makes the payload
    /// one only `build_unchecked` builds), in a scrambled order; a key
    /// drawn twice keeps the value given last.
    fn drawn(seed: u64, picks: u64, keys: u64) -> Payload {
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
        for _ in 0..next() % picks {
            let key = k(&format!("key-{}", next() % keys));
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
        let payloads = fixed
            .into_iter()
            .chain((0..400).map(|seed| drawn(seed, 7, 10)));
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

    /// `payload` with the entries whose key `on` holds, as the builder
    /// copies them: the oracle a view must be indistinguishable from.
    fn copied(payload: &Payload, on: impl Fn(&Key) -> bool) -> Payload {
        if !payload.keys().any(&on) {
            return Payload::empty();
        }
        let mut builder = Payload::builder().commit_version(payload.commit_version());
        for (key, version) in payload.reads().filter(|(key, _)| on(key)) {
            builder = builder.read(key.clone(), version);
        }
        for (key, value) in payload.writes().filter(|(key, _)| on(key)) {
            builder = builder.write(key.clone(), value.clone());
        }
        builder.build_unchecked()
    }

    /// `view` and `copy` are indistinguishable through every accessor,
    /// `==`, the hash, `Debug` and `Display`; `probes` are the keys asked
    /// about.
    fn assert_indistinguishable(view: &Payload, copy: &Payload, probes: &[Key]) {
        use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher};
        let why = format!("{view:?} viewed as {copy:?}");
        assert_eq!(view, copy, "view == copy");
        assert_eq!(copy, view, "copy == view");
        let hasher = BuildHasherDefault::<DefaultHasher>::default();
        assert_eq!(hasher.hash_one(view), hasher.hash_one(copy), "{why}");
        assert_eq!(format!("{view:?}"), format!("{copy:?}"));
        assert_eq!(view.to_string(), copy.to_string(), "{why}");
        assert!(view.reads().eq(copy.reads()), "{why}");
        assert!(view.writes().eq(copy.writes()), "{why}");
        assert!(view.keys().eq(copy.keys()), "{why}");
        let counts = |p: &Payload| (p.read_count(), p.write_count(), p.is_empty());
        assert_eq!(counts(view), counts(copy), "{why}");
        assert_eq!(view.commit_version(), copy.commit_version(), "{why}");
        assert_eq!(view.validate(), copy.validate(), "{why}");
        for key in probes {
            let asked = |p: &Payload| (p.read_version(key), p.reads_key(key), p.writes_key(key));
            assert_eq!(asked(view), asked(copy), "{why}: {key}");
        }
    }

    #[test]
    fn every_restriction_reads_as_the_copy_of_the_entries_it_keeps() {
        // Small payloads keep their part in one word; more than 64 entries
        // take a bit set of several words.
        let small = (0..300).map(|seed| drawn(seed, 9, 12));
        let large = (0..24).map(|seed| drawn(seed, 200, 150));
        let mut widest = 0;
        for payload in small.chain(large) {
            widest = widest.max(payload.read_count() + payload.write_count());
            let mut probes: Vec<Key> = payload.keys().cloned().collect();
            probes.push(k("key-absent"));
            for n in 1..=4 {
                let sharding = HashSharding::new(n);
                let placed = payload.place(&sharding);
                for shard in sharding.shards() {
                    let on = |key: &Key| sharding.shard_of(key) == shard;
                    let copy = copied(&payload, on);
                    let restricted = payload.restrict(shard, &sharding);
                    assert_indistinguishable(&restricted, &copy, &probes);
                    let part = placed.parts().find(|(at, _)| *at == shard);
                    if let Some((_, part)) = part {
                        let part = part.expect("placed with its restriction");
                        assert_indistinguishable(part, &copy, &probes);
                    }
                    // A restriction of a restriction, under another map.
                    let other = HashSharding::new(n + 1);
                    for inner in other.shards() {
                        let twice = restricted.restrict(inner, &other);
                        let on_both = |key: &Key| on(key) && other.shard_of(key) == inner;
                        assert_indistinguishable(&twice, &copied(&payload, on_both), &probes);
                    }
                }
            }
        }
        assert!(widest > 128, "the draw reaches a mask of three words");
    }

    #[test]
    fn a_part_is_one_pointer_to_a_node_no_larger_than_a_whole() {
        assert_eq!(std::mem::size_of::<Payload>(), std::mem::size_of::<usize>());
        #[cfg(target_pointer_width = "64")]
        assert_eq!(std::mem::size_of::<Repr>(), std::mem::size_of::<Triple>());
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
