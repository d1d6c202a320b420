//! Message latency models.
//!
//! The simulator draws a latency sample for every message (and every RDMA
//! write, acknowledgement and delivery poll). Latencies are deterministic
//! functions of the seeded random-number generator, so runs are reproducible.
//! The models themselves are constants of the world (see `world.rs`): the
//! LAN regime the paper targets (§1).

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::time::SimDuration;

/// A latency model for point-to-point messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum LatencyModel {
    /// Every message takes exactly this many microseconds.
    Constant(u64),
    /// Latency is drawn uniformly from `[min_micros, max_micros]`.
    Uniform {
        /// Minimum latency in microseconds.
        min_micros: u64,
        /// Maximum latency in microseconds (inclusive).
        max_micros: u64,
    },
}

impl LatencyModel {
    /// A uniform latency in `[min_micros, max_micros]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_micros > max_micros` (at compile time in a constant).
    pub(crate) const fn uniform(min_micros: u64, max_micros: u64) -> Self {
        assert!(min_micros <= max_micros, "min must not exceed max");
        LatencyModel::Uniform {
            min_micros,
            max_micros,
        }
    }

    /// Draws one latency sample.
    pub(crate) fn sample(&self, rng: &mut ChaCha12Rng) -> SimDuration {
        let micros = match *self {
            LatencyModel::Constant(micros) => micros,
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => {
                if min_micros == max_micros {
                    min_micros
                } else {
                    rng.gen_range(min_micros..=max_micros)
                }
            }
        };
        SimDuration::from_micros(micros)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_model_is_constant() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let m = LatencyModel::Constant(25);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_micros(), 25);
        }
    }

    #[test]
    fn uniform_model_is_in_range_and_deterministic() {
        let m = LatencyModel::uniform(10, 20);
        let mut rng1 = ChaCha12Rng::seed_from_u64(7);
        let mut rng2 = ChaCha12Rng::seed_from_u64(7);
        for _ in 0..100 {
            let a = m.sample(&mut rng1).as_micros();
            let b = m.sample(&mut rng2).as_micros();
            assert_eq!(a, b);
            assert!((10..=20).contains(&a));
        }
    }

    #[test]
    fn degenerate_uniform_range() {
        let m = LatencyModel::uniform(5, 5);
        let mut rng = ChaCha12Rng::seed_from_u64(3);
        assert_eq!(m.sample(&mut rng).as_micros(), 5);
    }

    #[test]
    #[should_panic(expected = "min must not exceed max")]
    fn invalid_uniform_range_panics() {
        let _ = LatencyModel::uniform(10, 5);
    }
}
