//! Simulated time: a nanosecond-resolution clock and durations.
//!
//! All simulators in the workspace share a single time base so results from
//! different devices (HDD vs. SSD) can be compared directly.  Time is a
//! `u64` count of nanoseconds since the start of the simulation; durations
//! are also `u64` nanoseconds.  Both types are plain newtypes with saturating
//! construction helpers and checked arithmetic where overflow is plausible.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of nanoseconds in a microsecond.
pub(crate) const NANOS_PER_MICRO: u64 = 1_000;
/// Number of nanoseconds in a millisecond.
pub(crate) const NANOS_PER_MILLI: u64 = 1_000_000;
/// Number of nanoseconds in a second.
pub(crate) const NANOS_PER_SEC: u64 = 1_000_000_000;

/// A point in simulated time, measured in nanoseconds from simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The maximum representable simulation time.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a time from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Creates a time from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros * NANOS_PER_MICRO)
    }

    /// Creates a time from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis * NANOS_PER_MILLI)
    }

    /// Raw nanosecond count since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Time expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Time expressed in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Time expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Returns the later of two times.
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the earlier of two times.
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Adds a duration, saturating at the maximum representable time.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The maximum representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Creates a duration from raw nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * NANOS_PER_MICRO)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * NANOS_PER_MILLI)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// nanosecond and saturating for non-finite or negative input.
    pub fn from_secs_f64(secs: f64) -> Self {
        if secs.is_nan() || secs <= 0.0 {
            return SimDuration::ZERO;
        }
        if secs.is_infinite() {
            return SimDuration::MAX;
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(nanos.round() as u64)
        }
    }

    /// Creates a duration from fractional milliseconds.
    pub fn from_millis_f64(millis: f64) -> Self {
        Self::from_secs_f64(millis / 1e3)
    }

    /// Raw nanosecond count.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration expressed in (possibly fractional) microseconds.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MICRO as f64
    }

    /// Duration expressed in (possibly fractional) milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Duration expressed in (possibly fractional) seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// Whether this is the zero-length duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Adds another duration, saturating at the maximum.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts another duration, saturating at zero.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies the duration by an integer factor, saturating at the
    /// maximum representable duration.
    pub(crate) fn saturating_mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(factor))
    }

    /// Computes the time to move `bytes` at `bytes_per_sec`.
    ///
    /// Returns [`SimDuration::ZERO`] when the rate is zero (modelling an
    /// infinitely fast link), which keeps call-sites free of special cases.
    pub fn from_bytes_at_rate(bytes: u64, bytes_per_sec: u64) -> SimDuration {
        if bytes_per_sec == 0 || bytes == 0 {
            return SimDuration::ZERO;
        }
        let nanos = (bytes as u128 * NANOS_PER_SEC as u128) / bytes_per_sec as u128;
        if nanos > u64::MAX as u128 {
            SimDuration::MAX
        } else {
            SimDuration(nanos as u64)
        }
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
        SimDuration(self.0 - rhs.0)
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

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc.saturating_add(d))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", format_nanos(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_nanos(self.0))
    }
}

fn format_nanos(nanos: u64) -> String {
    if nanos >= NANOS_PER_SEC {
        format!("{:.3}s", nanos as f64 / NANOS_PER_SEC as f64)
    } else if nanos >= NANOS_PER_MILLI {
        format!("{:.3}ms", nanos as f64 / NANOS_PER_MILLI as f64)
    } else if nanos >= NANOS_PER_MICRO {
        format!("{:.3}us", nanos as f64 / NANOS_PER_MICRO as f64)
    } else {
        format!("{}ns", nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_are_consistent() {
        assert_eq!(SimTime::from_micros(1).as_nanos(), 1_000);
        assert_eq!(SimTime::from_millis(1).as_nanos(), 1_000_000);
        assert_eq!(SimDuration::from_micros(2).as_nanos(), 2_000);
        assert_eq!(SimDuration::from_millis(3).as_nanos(), 3_000_000);
    }

    #[test]
    fn time_add_duration() {
        let t = SimTime::from_micros(10) + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
    }

    #[test]
    fn time_difference_is_duration() {
        let a = SimTime::from_millis(3);
        let b = SimTime::from_millis(1);
        assert_eq!((a - b).as_millis_f64(), 2.0);
    }

    #[test]
    fn saturating_since_clamps_to_zero() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(3);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(2));
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1e-9).as_nanos(), 1);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn from_bytes_at_rate_matches_expected() {
        // 1 MiB at 100 MiB/s is ~10.486 ms (1 MiB / (100 MiB/s) = 10 ms in
        // binary units only when both use the same base; here both are raw
        // byte counts so the answer is exactly bytes/rate seconds).
        let d = SimDuration::from_bytes_at_rate(1_000_000, 100_000_000);
        assert_eq!(d.as_millis_f64(), 10.0);
        assert_eq!(SimDuration::from_bytes_at_rate(0, 100), SimDuration::ZERO);
        assert_eq!(SimDuration::from_bytes_at_rate(100, 0), SimDuration::ZERO);
    }

    #[test]
    fn ordering_and_min_max() {
        let a = SimTime::from_micros(1);
        let b = SimTime::from_micros(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_micros(1);
        let y = SimDuration::from_micros(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn display_uses_human_units() {
        assert_eq!(format!("{}", SimDuration::from_nanos(500)), "500ns");
        assert_eq!(format!("{}", SimDuration::from_micros(25)), "25.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", SimDuration::from_millis(3_000)), "3.000s");
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_micros).sum();
        assert_eq!(total, SimDuration::from_micros(10));
    }
}
