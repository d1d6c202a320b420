//! The benchmark's own seeded payload generator.
//!
//! The program under test only ever sees the payloads produced here. Two
//! shapes exist:
//!
//! * [`disjoint`] — single-key read-write transactions, every one on a key
//!   of its own: nothing can conflict, so every transaction must commit.
//! * [`versioned`] — multi-key transactions over a Zipfian key space with
//!   *generator-tracked versions*: each transaction reads, for every key, the
//!   version the previous generated writer of that key will commit, and
//!   writes at a commit version above everything generated before it. A
//!   transaction therefore aborts only when it genuinely overlaps in flight
//!   with a conflicting one (prepared-set locks, or a later writer overtaking
//!   it), never because its reads were stale at generation time.

use rand::distributions::{Distribution, Uniform};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha12Rng;
use ratc_types::{Key, Payload, Value, Version};

/// Zipfian distribution over ranks `0..n` with exponent `theta`
/// (`theta == 0` is uniform). Sampling is a binary search over the exact
/// cumulative mass table.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the cumulative table for `n ≥ 1` ranks.
    pub fn new(n: usize, theta: f64) -> Self {
        assert!(n >= 1, "a key space needs at least one key");
        let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-theta)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Theoretical probability mass of `rank`.
    #[cfg(test)]
    fn mass(&self, rank: usize) -> f64 {
        let below = if rank == 0 { 0.0 } else { self.cdf[rank - 1] };
        self.cdf[rank] - below
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut ChaCha12Rng) -> usize {
        let u: f64 = Uniform::new(0.0, 1.0).sample(rng);
        self.cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// `count` conflict-free single-key read-write payloads. Key names carry
/// seeded random bits (so different seeds spread differently over shards) and
/// the index (so they are distinct by construction).
pub fn disjoint(seed: u64, count: usize) -> Vec<Payload> {
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let key = Key::new(format!("d{:08x}-{i}", rng.next_u32()));
            Payload::builder()
                .read(key.clone(), Version::ZERO)
                .write(key, Value::from("v"))
                .commit_version(Version::new(1))
                .build()
                .expect("a disjoint payload is well-formed")
        })
        .collect()
}

/// Shape of a [`versioned`] payload stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VersionedShape {
    /// Size of the key space.
    pub keys: usize,
    /// Zipfian exponent of key popularity (0 = uniform).
    pub theta: f64,
    /// Distinct keys each transaction reads.
    pub keys_per_tx: usize,
    /// How many of those keys it also writes.
    pub writes_per_tx: usize,
}

/// `count` payloads of the given shape with per-key monotone read/commit
/// versions (see the module docs). Transaction `i` (1-based) commits at
/// version `i`.
pub fn versioned(seed: u64, count: usize, shape: VersionedShape) -> Vec<Payload> {
    assert!(shape.writes_per_tx <= shape.keys_per_tx && shape.keys_per_tx <= shape.keys);
    let mut rng = ChaCha12Rng::seed_from_u64(seed);
    let zipf = Zipf::new(shape.keys, shape.theta);
    // Commit version of the last generated writer of each key.
    let mut latest = vec![0u64; shape.keys];
    let mut picked = Vec::with_capacity(shape.keys_per_tx);
    (1..=count as u64)
        .map(|i| {
            picked.clear();
            while picked.len() < shape.keys_per_tx {
                let rank = zipf.sample(&mut rng);
                if !picked.contains(&rank) {
                    picked.push(rank);
                }
            }
            let mut builder = Payload::builder().commit_version(Version::new(i));
            for (n, rank) in picked.iter().enumerate() {
                let key = Key::new(format!("key-{rank}"));
                builder = builder.read(key.clone(), Version::new(latest[*rank]));
                if n < shape.writes_per_tx {
                    builder = builder.write(key, Value::from("v"));
                    latest[*rank] = i;
                }
            }
            builder.build().expect("a versioned payload is well-formed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: VersionedShape = VersionedShape {
        keys: 1_000,
        theta: 0.9,
        keys_per_tx: 4,
        writes_per_tx: 2,
    };

    #[test]
    fn same_seed_gives_identical_payloads_and_another_seed_differs() {
        assert_eq!(versioned(7, 500, SHAPE), versioned(7, 500, SHAPE));
        assert_ne!(versioned(7, 500, SHAPE), versioned(8, 500, SHAPE));
        assert_eq!(disjoint(7, 500), disjoint(7, 500));
        assert_ne!(disjoint(7, 500), disjoint(8, 500));
    }

    #[test]
    fn disjoint_payloads_share_no_key() {
        let payloads = disjoint(3, 2_000);
        let mut keys: Vec<&Key> = payloads.iter().flat_map(Payload::keys).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), 2_000);
    }

    #[test]
    fn every_read_is_the_version_of_the_previous_generated_writer() {
        let payloads = versioned(11, 5_000, SHAPE);
        let mut latest: std::collections::HashMap<Key, Version> = Default::default();
        for (i, payload) in payloads.iter().enumerate() {
            assert_eq!(payload.commit_version(), Version::new(i as u64 + 1));
            assert_eq!(payload.read_count(), 4);
            assert_eq!(payload.write_count(), 2);
            for (key, read) in payload.reads() {
                assert_eq!(read, latest.get(key).copied().unwrap_or(Version::ZERO));
            }
            for (key, _) in payload.writes() {
                latest.insert(key.clone(), payload.commit_version());
            }
        }
    }

    #[test]
    fn zipfian_mass_of_the_top_key_is_within_one_percent_of_theory() {
        let zipf = Zipf::new(1_000, 0.9);
        let mut rng = ChaCha12Rng::seed_from_u64(5);
        let draws = 2_000_000;
        let top = (0..draws).filter(|_| zipf.sample(&mut rng) == 0).count();
        let observed = top as f64 / draws as f64;
        let theory = zipf.mass(0);
        assert!(
            (observed - theory).abs() / theory < 0.01,
            "top-key mass {observed} vs theory {theory}"
        );
        let total: f64 = (0..1_000).map(|rank| zipf.mass(rank)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_is_uniform() {
        let zipf = Zipf::new(10, 0.0);
        for rank in 0..10 {
            assert!((zipf.mass(rank) - 0.1).abs() < 1e-12);
        }
    }
}
