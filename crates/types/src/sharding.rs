//! Mapping database objects to shards.
//!
//! The paper assumes a function `shards : T → 2^S` determining the shards that
//! must certify a transaction; in a data store this is derived from which shard
//! manages each object the transaction accesses. This module provides the
//! [`ShardMap`] trait together with a hash-based implementation
//! ([`HashSharding`]) and an explicit table ([`ExplicitSharding`]) used by
//! tests that need full control over object placement.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use crate::ids::{Key, ShardId};

/// Determines which shard manages each database object.
///
/// Implementations must be *stable*: the same key always maps to the same
/// shard for the lifetime of the map. (Data migration between shards is out of
/// scope of the paper and of this reproduction.)
pub trait ShardMap {
    /// Returns the shard that manages `key`.
    fn shard_of(&self, key: &Key) -> ShardId;

    /// Returns the total number of shards.
    fn shard_count(&self) -> usize;

    /// Returns all shard identifiers, in ascending order.
    fn shards(&self) -> Vec<ShardId> {
        (0..self.shard_count() as u32).map(ShardId::new).collect()
    }
}

/// Hash partitioning: a key is managed by `hash(key) mod n`.
///
/// # Example
///
/// ```
/// use ratc_types::prelude::*;
/// let m = HashSharding::new(4);
/// let s = m.shard_of(&Key::new("x"));
/// assert!(s.as_usize() < 4);
/// assert_eq!(m.shard_count(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashSharding {
    shard_count: u32,
}

impl HashSharding {
    /// Creates a hash-based shard map over `shard_count` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero.
    pub fn new(shard_count: u32) -> Self {
        assert!(shard_count > 0, "shard_count must be positive");
        HashSharding { shard_count }
    }
}

impl ShardMap for HashSharding {
    fn shard_of(&self, key: &Key) -> ShardId {
        let mut hasher = DefaultHasher::new();
        key.as_str().hash(&mut hasher);
        ShardId::new((hasher.finish() % u64::from(self.shard_count)) as u32)
    }

    fn shard_count(&self) -> usize {
        self.shard_count as usize
    }
}

/// An explicit key → shard table with a default shard for unknown keys.
///
/// Useful in tests and in the scripted counter-example reproduction, where a
/// specific placement of objects on shards is required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplicitSharding {
    table: BTreeMap<Key, ShardId>,
    default_shard: ShardId,
    shard_count: u32,
}

impl ExplicitSharding {
    /// Creates an explicit shard map over `shard_count` shards; keys not present
    /// in the table map to `default_shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_count` is zero or `default_shard` is out of range.
    pub fn new(shard_count: u32, default_shard: ShardId) -> Self {
        assert!(shard_count > 0, "shard_count must be positive");
        assert!(
            default_shard.as_u32() < shard_count,
            "default shard out of range"
        );
        ExplicitSharding {
            table: BTreeMap::new(),
            default_shard,
            shard_count,
        }
    }

    /// Assigns `key` to `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub fn assign(&mut self, key: Key, shard: ShardId) -> &mut Self {
        assert!(shard.as_u32() < self.shard_count, "shard out of range");
        self.table.insert(key, shard);
        self
    }

    /// Builder-style variant of [`ExplicitSharding::assign`].
    pub fn with(mut self, key: Key, shard: ShardId) -> Self {
        self.assign(key, shard);
        self
    }
}

impl ShardMap for ExplicitSharding {
    fn shard_of(&self, key: &Key) -> ShardId {
        self.table.get(key).copied().unwrap_or(self.default_shard)
    }

    fn shard_count(&self) -> usize {
        self.shard_count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_sharding_is_stable_and_in_range() {
        let m = HashSharding::new(8);
        for i in 0..100 {
            let key = Key::new(format!("key-{i}"));
            let s1 = m.shard_of(&key);
            let s2 = m.shard_of(&key);
            assert_eq!(s1, s2);
            assert!(s1.as_usize() < 8);
        }
    }

    #[test]
    fn hash_sharding_spreads_keys() {
        let m = HashSharding::new(4);
        let mut counts = [0usize; 4];
        for i in 0..400 {
            let key = Key::new(format!("key-{i}"));
            counts[m.shard_of(&key).as_usize()] += 1;
        }
        // Every shard should receive a non-trivial share of 400 uniform keys.
        for c in counts {
            assert!(c > 40, "unbalanced sharding: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shard_count must be positive")]
    fn zero_shards_is_rejected() {
        let _ = HashSharding::new(0);
    }

    #[test]
    fn explicit_sharding_uses_table_then_default() {
        let m = ExplicitSharding::new(3, ShardId::new(0))
            .with(Key::new("a"), ShardId::new(1))
            .with(Key::new("b"), ShardId::new(2));
        assert_eq!(m.shard_of(&Key::new("a")), ShardId::new(1));
        assert_eq!(m.shard_of(&Key::new("b")), ShardId::new(2));
        assert_eq!(m.shard_of(&Key::new("unknown")), ShardId::new(0));
        assert_eq!(m.shard_count(), 3);
        assert_eq!(m.shards().len(), 3);
    }

    #[test]
    #[should_panic(expected = "shard out of range")]
    fn explicit_sharding_rejects_out_of_range() {
        let mut m = ExplicitSharding::new(2, ShardId::new(0));
        m.assign(Key::new("x"), ShardId::new(5));
    }

    #[test]
    fn shards_lists_all_shards() {
        let m = HashSharding::new(3);
        assert_eq!(
            m.shards(),
            vec![ShardId::new(0), ShardId::new(1), ShardId::new(2)]
        );
    }
}
