//! Transaction workload generation.

use rand::distributions::Distribution;
use rand::Rng;
use rand_chacha::ChaCha12Rng;
use ratc_sim::SimDuration;
use ratc_types::{Key, Payload, TxId, Value, Version};

/// Popularity distribution over keys.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KeyDistribution {
    /// Every key is equally likely.
    Uniform,
    /// Zipfian popularity with the given exponent `theta` (larger = more
    /// skewed; 0.99 is the YCSB default).
    Zipfian {
        /// The skew exponent.
        theta: f64,
    },
    /// All accesses go to the first `hot_keys` keys, uniformly.
    Hotspot {
        /// Number of hot keys.
        hot_keys: usize,
    },
}

/// Specification of a synthetic transactional workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Number of distinct keys.
    pub key_count: usize,
    /// Keys read (and possibly written) per transaction.
    pub keys_per_tx: usize,
    /// Fraction of accessed keys that are also written (0.0–1.0).
    pub write_fraction: f64,
    /// Number of transactions to generate.
    pub tx_count: usize,
    /// Key popularity distribution.
    pub distribution: KeyDistribution,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            key_count: 1_000,
            keys_per_tx: 3,
            write_fraction: 0.5,
            tx_count: 200,
            distribution: KeyDistribution::Uniform,
        }
    }
}

impl WorkloadSpec {
    /// Generates the payloads of the workload.
    ///
    /// The read versions are all 0 (the generator does not track the evolving
    /// store; the key-value examples do), which makes generated transactions
    /// conflict exactly when they touch a common key that someone writes — the
    /// property the abort-rate experiments need.
    pub fn generate(&self, rng: &mut ChaCha12Rng) -> Vec<(TxId, Payload)> {
        let sampler = KeySampler::new(self.key_count.max(1), self.distribution);
        let mut out = Vec::with_capacity(self.tx_count);
        for i in 0..self.tx_count {
            let tx = TxId::new(i as u64 + 1);
            let mut builder = Payload::builder();
            let mut chosen: Vec<usize> = Vec::new();
            while chosen.len() < self.keys_per_tx.min(self.key_count) {
                let key = sampler.sample(rng);
                if !chosen.contains(&key) {
                    chosen.push(key);
                }
            }
            for (rank, key_index) in chosen.iter().enumerate() {
                let key = Key::new(format!("key-{key_index}"));
                builder = builder.read(key.clone(), Version::ZERO);
                let write = (rank as f64 + 0.5) / self.keys_per_tx as f64 <= self.write_fraction;
                if write {
                    builder = builder.write(key, Value::from(format!("v{i}")));
                }
            }
            let payload = builder
                .commit_version(Version::new(i as u64 + 1))
                .build_unchecked();
            out.push((tx, payload));
        }
        out
    }

    /// Generates the workload as a *paced arrival schedule*: transaction `i`
    /// arrives at offset `i * interval` plus a uniform jitter of up to one
    /// interval. Used by soak drivers (e.g. the chaos nemesis) that submit
    /// traffic over simulated time while faults fire, instead of injecting
    /// everything at time zero.
    pub fn generate_paced(
        &self,
        rng: &mut ChaCha12Rng,
        interval: SimDuration,
    ) -> Vec<(SimDuration, TxId, Payload)> {
        let payloads = self.generate(rng);
        let step = interval.as_micros().max(1);
        payloads
            .into_iter()
            .enumerate()
            .map(|(i, (tx, payload))| {
                let jitter = rng.gen_range(0..step);
                (
                    SimDuration::from_micros(i as u64 * step + jitter),
                    tx,
                    payload,
                )
            })
            .collect()
    }
}

/// Samples key indices according to a [`KeyDistribution`].
#[derive(Debug, Clone)]
struct KeySampler {
    key_count: usize,
    distribution: KeyDistribution,
    /// Cumulative Zipfian weights (only for the Zipfian case).
    zipf_cdf: Vec<f64>,
}

impl KeySampler {
    fn new(key_count: usize, distribution: KeyDistribution) -> Self {
        let zipf_cdf = match distribution {
            KeyDistribution::Zipfian { theta } => {
                let mut weights: Vec<f64> = (1..=key_count)
                    .map(|rank| 1.0 / (rank as f64).powf(theta))
                    .collect();
                let total: f64 = weights.iter().sum();
                let mut acc = 0.0;
                for w in weights.iter_mut() {
                    acc += *w / total;
                    *w = acc;
                }
                weights
            }
            _ => Vec::new(),
        };
        KeySampler {
            key_count,
            distribution,
            zipf_cdf,
        }
    }

    fn sample(&self, rng: &mut ChaCha12Rng) -> usize {
        match self.distribution {
            KeyDistribution::Uniform => rng.gen_range(0..self.key_count),
            KeyDistribution::Hotspot { hot_keys } => {
                rng.gen_range(0..hot_keys.clamp(1, self.key_count))
            }
            KeyDistribution::Zipfian { .. } => {
                let u: f64 = rand::distributions::Uniform::new(0.0, 1.0).sample(rng);
                match self
                    .zipf_cdf
                    .binary_search_by(|w| w.partial_cmp(&u).expect("weights are not NaN"))
                {
                    Ok(i) | Err(i) => i.min(self.key_count - 1),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn generates_requested_number_of_transactions() {
        let spec = WorkloadSpec {
            tx_count: 50,
            ..WorkloadSpec::default()
        };
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let txs = spec.generate(&mut rng);
        assert_eq!(txs.len(), 50);
        for (_, payload) in &txs {
            assert_eq!(payload.read_count(), spec.keys_per_tx);
            assert!(payload.write_count() <= spec.keys_per_tx);
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = WorkloadSpec::default();
        let a = spec.generate(&mut ChaCha12Rng::seed_from_u64(7));
        let b = spec.generate(&mut ChaCha12Rng::seed_from_u64(7));
        assert_eq!(a, b);
        let c = spec.generate(&mut ChaCha12Rng::seed_from_u64(8));
        assert_ne!(a, c);
    }

    #[test]
    fn paced_arrivals_are_monotone_and_deterministic() {
        let spec = WorkloadSpec {
            tx_count: 20,
            ..WorkloadSpec::default()
        };
        let a = spec.generate_paced(
            &mut ChaCha12Rng::seed_from_u64(5),
            SimDuration::from_micros(200),
        );
        let b = spec.generate_paced(
            &mut ChaCha12Rng::seed_from_u64(5),
            SimDuration::from_micros(200),
        );
        assert_eq!(a, b);
        assert_eq!(a.len(), 20);
        for window in a.windows(2) {
            assert!(window[0].0 < window[1].0, "arrival offsets are monotone");
        }
        assert!(a[0].0 < SimDuration::from_micros(200));
    }

    #[test]
    fn zipfian_skews_towards_low_ranks() {
        let spec = WorkloadSpec {
            key_count: 100,
            keys_per_tx: 1,
            write_fraction: 1.0,
            tx_count: 2_000,
            distribution: KeyDistribution::Zipfian { theta: 1.2 },
        };
        let mut rng = ChaCha12Rng::seed_from_u64(2);
        let txs = spec.generate(&mut rng);
        let hot = txs
            .iter()
            .filter(|(_, p)| p.reads_key(&Key::new("key-0")))
            .count();
        assert!(
            hot > txs.len() / 10,
            "the most popular key should absorb a large share of accesses, got {hot}"
        );
    }

    #[test]
    fn hotspot_restricts_key_range() {
        let spec = WorkloadSpec {
            key_count: 100,
            keys_per_tx: 1,
            write_fraction: 1.0,
            tx_count: 100,
            distribution: KeyDistribution::Hotspot { hot_keys: 3 },
        };
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        for (_, payload) in spec.generate(&mut rng) {
            let key = payload.reads().next().expect("one key").0.clone();
            let index: usize = key
                .as_str()
                .trim_start_matches("key-")
                .parse()
                .expect("index");
            assert!(index < 3);
        }
    }
}
