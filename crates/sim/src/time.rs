//! Simulated time.
//!
//! The simulator measures time in abstract microseconds. Nothing in the
//! protocol logic depends on the absolute scale; experiments report either
//! simulated durations or message-delay (hop) counts.
#![expect(
    clippy::disallowed_types,
    clippy::float_arithmetic,
    reason = "time is integer microseconds; the f64 is the one-way conversion for report output, which no protocol or scheduling decision reads back"
)]

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Returns the raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the time as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_micros(
            self.0
                .checked_sub(earlier.0)
                .expect("`earlier` must not be later than `self`"),
        )
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

/// A span of simulated time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000)
    }

    /// Returns the raw microsecond value.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Returns the duration as fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(1);
        let t2 = t + SimDuration::from_micros(500);
        assert_eq!(t2.as_micros(), 1_500);
        assert_eq!((t2 - t).as_micros(), 500);
        assert_eq!(t2.since(t), SimDuration::from_micros(500));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_micros(2_000).as_millis_f64(), 2.0);
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_micros(1_500).as_millis_f64(), 1.5);
    }

    #[test]
    #[should_panic(expected = "`earlier` must not be later")]
    fn negative_duration_panics() {
        let _ = SimTime::ZERO.since(SimTime::from_micros(1));
    }

    #[test]
    fn display() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7us");
        assert_eq!(SimDuration::from_micros(9).to_string(), "9us");
    }

    #[test]
    fn add_assign() {
        let mut t = SimTime::ZERO;
        t += SimDuration::from_micros(10);
        assert_eq!(t.as_micros(), 10);
        let mut d = SimDuration::ZERO;
        d += SimDuration::from_micros(5);
        assert_eq!(d + SimDuration::from_micros(1), SimDuration::from_micros(6));
    }
}
