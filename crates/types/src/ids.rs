//! Strongly-typed identifiers used throughout the RATC stack.
//!
//! Every identifier is a thin newtype ([C-NEWTYPE]) around an integer or string so
//! that, e.g., an [`Epoch`] can never be confused with a [`Position`] in the
//! certification order, and a [`ProcessId`] can never be confused with a
//! [`ShardId`].
//!
//! [C-NEWTYPE]: https://rust-lang.github.io/api-guidelines/type-safety.html

use std::fmt;
use std::sync::Arc;

/// Unique identifier of a transaction (the set `T` of the paper).
///
/// Transaction identifiers are allocated by clients (or by the workload
/// generator) and must be globally unique: the TCS specification requires that
/// every transaction appears at most once in a `certify` action.
///
/// # Example
///
/// ```
/// use ratc_types::TxId;
/// let t = TxId::new(42);
/// assert_eq!(t.as_u64(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TxId(u64);

impl TxId {
    /// Creates a transaction identifier from a raw number.
    pub const fn new(raw: u64) -> Self {
        TxId(raw)
    }

    /// Returns the raw numeric value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TxId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u64> for TxId {
    fn from(raw: u64) -> Self {
        TxId(raw)
    }
}

/// Identifier of a shard (the set `S` of the paper).
///
/// Each shard manages a disjoint subset of the database objects and is
/// replicated by a group of processes whose membership changes over time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ShardId(u32);

impl ShardId {
    /// Creates a shard identifier from a raw number.
    pub const fn new(raw: u32) -> Self {
        ShardId(raw)
    }

    /// Returns the raw numeric value of this identifier.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Returns the raw value as a `usize`, convenient for indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ShardId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<u32> for ShardId {
    fn from(raw: u32) -> Self {
        ShardId(raw)
    }
}

/// Identifier of a process (the set `P` of the paper).
///
/// Processes are replicas of shards, clients, coordinators, or the
/// configuration service; the simulation substrate addresses messages by
/// `ProcessId`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ProcessId(u64);

impl ProcessId {
    /// Creates a process identifier from a raw number.
    pub const fn new(raw: u64) -> Self {
        ProcessId(raw)
    }

    /// Returns the raw numeric value of this identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw value as a `usize`, convenient for indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl From<u64> for ProcessId {
    fn from(raw: u64) -> Self {
        ProcessId(raw)
    }
}

/// Configuration epoch of a shard (or of the whole system in the RDMA protocol).
///
/// Epochs are totally ordered; reconfiguration always moves to a strictly
/// higher epoch. Epoch `0` denotes the initial configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Epoch(u64);

impl Epoch {
    /// The initial epoch.
    pub const ZERO: Epoch = Epoch(0);

    /// Creates an epoch from a raw number.
    pub const fn new(raw: u64) -> Self {
        Epoch(raw)
    }

    /// Returns the raw numeric value of this epoch.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the epoch immediately following this one.
    pub const fn next(self) -> Epoch {
        Epoch(self.0 + 1)
    }

    /// Returns the epoch immediately preceding this one, or `None` for epoch 0.
    pub fn prev(self) -> Option<Epoch> {
        self.0.checked_sub(1).map(Epoch)
    }
}

impl fmt::Display for Epoch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for Epoch {
    fn from(raw: u64) -> Self {
        Epoch(raw)
    }
}

/// Position (slot index) in a shard's certification order (the array index `k`
/// of the paper's `txn`, `payload`, `vote`, `dec` and `phase` arrays).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Position(u64);

impl Position {
    /// The first position of a certification order.
    pub const ZERO: Position = Position(0);

    /// Creates a position from a raw index.
    pub const fn new(raw: u64) -> Self {
        Position(raw)
    }

    /// Returns the raw index.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw index as a `usize`, convenient for array indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }

    /// Returns the position immediately following this one.
    pub const fn next(self) -> Position {
        Position(self.0 + 1)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "k{}", self.0)
    }
}

impl From<u64> for Position {
    fn from(raw: u64) -> Self {
        Position(raw)
    }
}

/// A database object identifier (the set `Obj` of the paper).
///
/// Keys are interned behind an `Arc<str>`: a [`Key::clone`] is a reference
/// count bump, never a string copy. This matters on the vote hot path — the
/// certification index and its lock tables store one key per read/write of
/// every prepared payload, so with plain `String` keys every vote paid one
/// heap allocation per payload key. Equality, ordering and hashing compare
/// the string contents, exactly as before.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Arc<str>);

impl Key {
    /// Creates a key from anything convertible to a string.
    pub fn new(raw: impl Into<String>) -> Self {
        Key(Arc::from(raw.into()))
    }

    /// Returns the key as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Number of live clones of this key (1 = unshared). Exposed so tests can
    /// assert that indexes intern rather than copy.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.0)
    }
}

impl Default for Key {
    fn default() -> Self {
        Key(Arc::from(""))
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for Key {
    fn from(raw: &str) -> Self {
        Key(Arc::from(raw))
    }
}

impl From<String> for Key {
    fn from(raw: String) -> Self {
        Key(Arc::from(raw))
    }
}

/// A database object value (the set `Val` of the paper).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(Vec<u8>);

impl Value {
    /// Creates a value from raw bytes.
    pub fn new(raw: impl Into<Vec<u8>>) -> Self {
        Value(raw.into())
    }

    /// Returns the value's bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// Returns the number of bytes in the value.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns `true` if the value is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match std::str::from_utf8(&self.0) {
            Ok(s) => write!(f, "{s:?}"),
            Err(_) => write!(f, "{} bytes", self.0.len()),
        }
    }
}

impl From<&str> for Value {
    fn from(raw: &str) -> Self {
        Value(raw.as_bytes().to_vec())
    }
}

impl From<String> for Value {
    fn from(raw: String) -> Self {
        Value(raw.into_bytes())
    }
}

impl From<Vec<u8>> for Value {
    fn from(raw: Vec<u8>) -> Self {
        Value(raw)
    }
}

impl From<u64> for Value {
    fn from(raw: u64) -> Self {
        Value(raw.to_be_bytes().to_vec())
    }
}

/// A totally ordered object version (the set `Ver` of the paper).
///
/// Versions identify which committed transaction wrote the value a reader
/// observed; optimistic execution reads a version and certification verifies
/// that the version has not been overwritten.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(u64);

impl Version {
    /// The initial version of every object (before any transaction wrote it).
    pub const ZERO: Version = Version(0);

    /// Creates a version from a raw number.
    pub const fn new(raw: u64) -> Self {
        Version(raw)
    }

    /// Returns the raw numeric value of this version.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the version immediately following this one.
    pub const fn next(self) -> Version {
        Version(self.0 + 1)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Version {
    fn from(raw: u64) -> Self {
        Version(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_ordering_and_successor() {
        let e = Epoch::new(3);
        assert!(e < e.next());
        assert_eq!(e.next().as_u64(), 4);
        assert_eq!(e.prev(), Some(Epoch::new(2)));
        assert_eq!(Epoch::ZERO.prev(), None);
    }

    #[test]
    fn position_successor_and_indexing() {
        let k = Position::new(7);
        assert_eq!(k.next().as_u64(), 8);
        assert_eq!(k.as_usize(), 7);
        assert!(Position::ZERO < k);
    }

    #[test]
    fn display_formats_are_compact() {
        assert_eq!(TxId::new(1).to_string(), "t1");
        assert_eq!(ShardId::new(2).to_string(), "s2");
        assert_eq!(ProcessId::new(3).to_string(), "p3");
        assert_eq!(Epoch::new(4).to_string(), "e4");
        assert_eq!(Position::new(5).to_string(), "k5");
        assert_eq!(Version::new(6).to_string(), "v6");
    }

    #[test]
    fn key_and_value_conversions() {
        let k = Key::from("account-1");
        assert_eq!(k.as_str(), "account-1");
        let v = Value::from("100");
        assert_eq!(v.as_bytes(), b"100");
        assert!(!v.is_empty());
        assert_eq!(Value::default().len(), 0);
        let n = Value::from(7u64);
        assert_eq!(n.as_bytes().len(), 8);
    }

    #[test]
    fn ids_are_hashable_and_distinct() {
        use std::collections::HashSet;
        let set: HashSet<TxId> = (0..10).map(TxId::new).collect();
        assert_eq!(set.len(), 10);
    }

    #[test]
    fn key_clones_are_interned_not_copied() {
        let k = Key::new("hot-key");
        assert_eq!(k.ref_count(), 1);
        let clones: Vec<Key> = (0..10).map(|_| k.clone()).collect();
        assert_eq!(k.ref_count(), 11);
        drop(clones);
        assert_eq!(k.ref_count(), 1);
        // Contents, not pointers, drive equality/ordering/hashing.
        assert_eq!(k, Key::new("hot-key"));
        assert!(Key::new("a") < Key::new("b"));
        assert_eq!(Key::default().as_str(), "");
    }

    #[test]
    fn version_ordering_matches_raw_order() {
        assert!(Version::new(2) > Version::new(1));
        assert_eq!(Version::ZERO.next(), Version::new(1));
    }

    #[test]
    fn raw_value_round_trip() {
        let t = TxId::new(99);
        let back = TxId::new(t.as_u64());
        assert_eq!(t, back);
    }

    #[test]
    fn from_impls_work() {
        assert_eq!(TxId::from(5u64), TxId::new(5));
        assert_eq!(ShardId::from(5u32), ShardId::new(5));
        assert_eq!(ProcessId::from(5u64), ProcessId::new(5));
        assert_eq!(Epoch::from(5u64), Epoch::new(5));
        assert_eq!(Position::from(5u64), Position::new(5));
        assert_eq!(Version::from(5u64), Version::new(5));
        assert_eq!(Key::from(String::from("k")), Key::new("k"));
        assert_eq!(Value::from(vec![1u8, 2]), Value::new(vec![1u8, 2]));
    }
}
