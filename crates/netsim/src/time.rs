//! Simulated time.
//!
//! All simulator components measure time in microseconds since the start of
//! the simulation.  Using a newtype rather than `std::time::Instant` keeps
//! the simulation fully deterministic and independent of wall-clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time from microseconds.
    pub fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time from milliseconds.
    pub fn from_millis(millis: u64) -> Self {
        SimTime(millis * 1_000)
    }

    /// Creates a time from whole seconds.
    pub fn from_secs(secs: u64) -> Self {
        SimTime(secs * 1_000_000)
    }

    /// Creates a time from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(secs.is_finite() && secs >= 0.0, "time must be non-negative and finite");
        SimTime((secs * 1e6).round() as u64)
    }

    /// Microseconds since simulation start.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since simulation start (truncated).
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since simulation start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier` in microseconds.
    pub fn micros_since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl Add<u64> for SimTime {
    type Output = SimTime;

    /// Adds a number of microseconds.
    fn add(self, micros: u64) -> SimTime {
        SimTime(self.0 + micros)
    }
}

impl AddAssign<u64> for SimTime {
    fn add_assign(&mut self, micros: u64) {
        self.0 += micros;
    }
}

impl Sub for SimTime {
    type Output = u64;

    /// Difference in microseconds (saturating at zero).
    fn sub(self, rhs: SimTime) -> u64 {
        self.0.saturating_sub(rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimTime::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimTime::from_secs_f64(0.5).as_micros(), 500_000);
        assert!((SimTime::from_micros(1_500_000).as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_millis(1);
        assert_eq!((t + 500).as_micros(), 1_500);
        assert_eq!(SimTime::from_millis(2) - t, 1_000);
        assert_eq!(t - SimTime::from_millis(2), 0); // saturating
        assert_eq!(SimTime::from_millis(2).micros_since(t), 1_000);
    }

    #[test]
    fn display_formats_seconds() {
        assert_eq!(SimTime::from_millis(1500).to_string(), "1.500000s");
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_seconds_panic() {
        let _ = SimTime::from_secs_f64(-1.0);
    }
}
