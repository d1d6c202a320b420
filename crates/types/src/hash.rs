//! The hasher of the commit path's internal tables.
//!
//! The certification log, its checkpoint and the certification index key
//! tables by [`TxId`](crate::TxId), by [`Position`](crate::Position) and — the
//! checkpoint's newest-writer residue, the index's newest writers and its
//! read and write locks — by [`Key`](crate::Key), and probe them several
//! times per transaction. Those keys are produced inside the
//! process (by the workload generator and the leaders' position counters),
//! never by an adversary, so SipHash's collision resistance buys nothing
//! there and its per-process random seed makes the tables' iteration order
//! differ from one process to the next — unwelcome in a deterministic
//! simulator. [`FxHashMap`] is `std`'s hash map over [`FxHasher`], a
//! multiplicative hasher in the style of rustc's: one rotate, xor and
//! (folded) multiply per 8 bytes, no seed, so the iteration order is a
//! function of the run.
//!
//! Not for keys an outside party chooses, and not for placement:
//! [`HashSharding`](crate::HashSharding) keeps `std`'s `DefaultHasher`.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A hash map over [`FxHasher`] (see the module documentation).
pub type FxHashMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// A multiplicative hasher for small in-process keys (see the module
/// documentation).
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher(u64);

/// An odd constant with no short bit pattern (the 64-bit golden ratio).
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

impl FxHasher {
    /// One folded multiply: the halves of the 128-bit product, xored. A plain
    /// product's low bits depend only on its factors' low bits, and a
    /// generated key name (`key-123`) keeps its counter in the *last* bytes
    /// of a word; folding carries every bit of the word to both ends.
    fn add(&mut self, word: u64) {
        let product = u128::from(self.0.rotate_left(5) ^ word) * u128::from(MULTIPLIER);
        self.0 = (product as u64) ^ (product >> 64) as u64;
    }
}

impl Hasher for FxHasher {
    /// Whole words, then the last eight bytes once more (they overlap the
    /// word before unless the length is a multiple of eight); shorter
    /// strings as one word of their two halves. No variable-length copy and
    /// few branches: key names differ in length, and a mispredicted tail
    /// costs more than the hashing.
    fn write(&mut self, bytes: &[u8]) {
        let len = bytes.len();
        let word = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"));
        let half = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes"));
        if len >= 8 {
            for at in (0..len - 8).step_by(8) {
                self.add(word(at));
            }
            self.add(word(len - 8));
        } else if len >= 4 {
            self.add(u64::from(half(0)) | u64::from(half(len - 4)) << 32);
        } else if len > 0 {
            let (first, middle, last) = (bytes[0], bytes[len / 2], bytes[len - 1]);
            self.add(u64::from(first) | u64::from(middle) << 8 | u64::from(last) << 16);
        }
        self.add(len as u64);
    }

    fn write_u8(&mut self, value: u8) {
        self.add(u64::from(value));
    }

    fn write_u64(&mut self, value: u64) {
        self.add(value);
    }

    /// The table takes its bucket from the low bits and its 7-bit tag from
    /// the high ones. The middle of a product is where sequential inputs —
    /// identifiers, positions — land equidistributed, so turn it to the
    /// bottom.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

#[cfg(test)]
mod tests {
    use std::hash::{BuildHasher, Hash};

    use super::*;
    use crate::ids::{Key, Position, TxId};

    fn hash_of(value: &impl Hash) -> u64 {
        BuildHasherDefault::<FxHasher>::default().hash_one(value)
    }

    /// The fullest of 2^17 buckets (by the low bits, which is where the
    /// table looks) after hashing 100 000 keys. A uniform spread leaves
    /// about 0.76 per bucket and a maximum of 6 or 7.
    fn fullest_bucket<T: Hash>(keys: impl Iterator<Item = T>) -> u32 {
        let mut buckets = vec![0u32; 1 << 17];
        for key in keys {
            buckets[hash_of(&key) as usize & ((1 << 17) - 1)] += 1;
        }
        buckets.into_iter().max().expect("non-empty")
    }

    #[test]
    fn sequential_ids_and_generated_keys_spread_over_the_buckets() {
        assert!(fullest_bucket((0..100_000).map(TxId::new)) <= 8);
        assert!(fullest_bucket((0..100_000).map(Position::new)) <= 8);
        // Striped identifiers: a field in the high half, a counter below.
        let striped = (0..100_000u64).map(|n| TxId::new(((n % 8) << 32) | (n / 8)));
        assert!(fullest_bucket(striped) <= 8);
        // Generated key names: a counter after a constant first word or less.
        assert!(fullest_bucket((0..100_000).map(|n| Key::new(format!("key-{n}")))) <= 8);
        assert!(fullest_bucket((0..100_000).map(|n| Key::new(format!("d{n:08x}-{n}")))) <= 8);
        // The seven bits the table keeps per entry (the top ones) vary too.
        let tags: std::collections::BTreeSet<u64> =
            (0..1_000).map(|n| hash_of(&TxId::new(n)) >> 57).collect();
        assert!(tags.len() > 100, "{} distinct tags", tags.len());
    }

    #[test]
    fn equal_keys_hash_equal_across_maps_and_handles() {
        let filled = |order: &mut dyn Iterator<Item = u64>| -> FxHashMap<Key, u64> {
            order.map(|n| (Key::new(format!("k{n}")), n)).collect()
        };
        let (a, b) = (filled(&mut (0..1_000)), filled(&mut (0..1_000).rev()));
        assert_eq!(a, b, "separately built keys, opposite insertion order");
        assert_eq!(b.get(&Key::from("k7")), Some(&7));
        assert_eq!(hash_of(&Key::new("k7")), hash_of(&Key::from("k7")));
        assert_ne!(hash_of(&Key::new("k7")), hash_of(&Key::new("k8")));
        // No seed: two tables filled alike iterate alike.
        let order = |m: &FxHashMap<Key, u64>| m.values().copied().collect::<Vec<_>>();
        assert_eq!(order(&a), order(&filled(&mut (0..1_000))));
    }

    #[test]
    fn a_byte_string_is_hashed_whole() {
        // Every length class of `write`: 0, 1–3, 4–7, 8, 9–16 (two
        // overlapping words), 17 and more.
        let strings = [
            "",
            "a",
            "b",
            "ab",
            "ac",
            "abc",
            "abd",
            "abcd",
            "abce",
            "abcdefg",
            "abcdefh",
            "abcdefgh",
            "abcdefgi",
            "abcdefgh1",
            "abcdefgh2",
            "1bcdefghabcdefgh",
            "2bcdefghabcdefgh",
            "abcdefghabcdefghX",
            "abcdefghabcdefghY",
            "abcdefghXbcdefghab",
            // Only the length tells these apart once the words overlap.
            "aaaaaaaaa",
            "aaaaaaaaaa",
            "aaaaaaaaaaa",
        ];
        let hashes: std::collections::BTreeSet<u64> = strings.iter().map(hash_of).collect();
        assert_eq!(hashes.len(), strings.len());
    }
}
