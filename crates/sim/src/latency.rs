//! Message latency models.
//!
//! The simulator draws a latency sample for every message (and every RDMA
//! write, acknowledgement and delivery poll). Latencies are deterministic
//! functions of the seeded random-number generator, so runs are reproducible.
// analyze:allow-file(float-state): latency parameters are f64 means; each
// sample is a single multiply of one seeded draw, immediately truncated to
// integer microseconds — bit-identical across platforms, no accumulation.

use rand::Rng;
use rand_chacha::ChaCha12Rng;

use crate::time::SimDuration;

/// A latency model for point-to-point messages.
///
/// The default model is [`LatencyModel::Uniform`] between 40 and 60
/// microseconds — a LAN-like regime matching the deployment environment the
/// paper targets ("particularly suitable for deployment in local-area
/// networks", §1). RDMA operations use [`LatencyModel::scaled`] fractions of
/// the base model to reflect their lower latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LatencyModel {
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
    /// A constant latency of `micros` microseconds.
    pub const fn constant(micros: u64) -> Self {
        LatencyModel::Constant(micros)
    }

    /// A uniform latency in `[min_micros, max_micros]`.
    ///
    /// # Panics
    ///
    /// Panics if `min_micros > max_micros`.
    pub fn uniform(min_micros: u64, max_micros: u64) -> Self {
        assert!(min_micros <= max_micros, "min must not exceed max");
        LatencyModel::Uniform {
            min_micros,
            max_micros,
        }
    }

    /// Draws one latency sample.
    pub fn sample(&self, rng: &mut ChaCha12Rng) -> SimDuration {
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

    /// Returns a copy of this model with all parameters scaled by
    /// `numerator / denominator` (used to derive RDMA latencies from the base
    /// network latency).
    pub fn scaled(&self, numerator: u64, denominator: u64) -> LatencyModel {
        assert!(denominator > 0, "denominator must be positive");
        let scale = |v: u64| (v * numerator / denominator).max(1);
        match *self {
            LatencyModel::Constant(micros) => LatencyModel::Constant(scale(micros)),
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => LatencyModel::Uniform {
                min_micros: scale(min_micros),
                max_micros: scale(max_micros),
            },
        }
    }

    /// The mean latency of this model, in microseconds.
    pub fn mean_micros(&self) -> f64 {
        match *self {
            LatencyModel::Constant(micros) => micros as f64,
            LatencyModel::Uniform {
                min_micros,
                max_micros,
            } => (min_micros + max_micros) as f64 / 2.0,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Uniform {
            min_micros: 40,
            max_micros: 60,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn constant_model_is_constant() {
        let mut rng = ChaCha12Rng::seed_from_u64(1);
        let m = LatencyModel::constant(25);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng).as_micros(), 25);
        }
        assert_eq!(m.mean_micros(), 25.0);
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
        assert_eq!(m.mean_micros(), 15.0);
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

    #[test]
    fn scaling() {
        let m = LatencyModel::uniform(40, 60).scaled(1, 4);
        assert_eq!(
            m,
            LatencyModel::Uniform {
                min_micros: 10,
                max_micros: 15
            }
        );
        // Scaling never produces a zero latency.
        let tiny = LatencyModel::constant(1).scaled(1, 10);
        assert_eq!(tiny, LatencyModel::Constant(1));
    }

    #[test]
    fn default_is_lan_like() {
        let m = LatencyModel::default();
        assert!(m.mean_micros() >= 40.0 && m.mean_micros() <= 60.0);
    }
}
