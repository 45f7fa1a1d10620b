//! Simulated time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in microseconds since simulation start.
///
/// # Examples
///
/// ```
/// use paso_simnet::SimTime;
///
/// let t = SimTime::ZERO + SimTime::from_millis(2);
/// assert_eq!(t.as_micros(), 2_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The simulation epoch.
    pub const ZERO: SimTime = SimTime(0);

    /// The greatest representable time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from microseconds.
    pub fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Creates a time from seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// This time as microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// This time as (fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub fn saturating_since(self, earlier: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(earlier.0))
    }
}

impl Add for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub for SimTime {
    type Output = SimTime;

    /// # Panics
    ///
    /// Panics in debug builds if `rhs > self`.
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(SimTime::from_secs(1), SimTime::from_millis(1000));
        assert_eq!(SimTime::from_millis(1), SimTime::from_micros(1000));
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_micros(5);
        let b = SimTime::from_micros(3);
        assert_eq!(a + b, SimTime::from_micros(8));
        assert_eq!(a - b, SimTime::from_micros(2));
        assert_eq!(b.saturating_since(a), SimTime::ZERO);
        let mut c = a;
        c += b;
        assert_eq!(c, SimTime::from_micros(8));
    }

    #[test]
    fn saturation_at_max() {
        assert_eq!(SimTime::MAX + SimTime::from_secs(1), SimTime::MAX);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimTime::from_micros(7).to_string(), "7µs");
        assert_eq!(SimTime::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimTime::from_secs(2).to_string(), "2.000s");
    }
}
