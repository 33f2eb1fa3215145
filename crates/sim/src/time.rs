//! Virtual simulation clock types.
//!
//! [`SimTime`] is an absolute instant, [`SimDuration`] a span between
//! instants. Both are backed by `u64` nanoseconds so event ordering is exact
//! (no floating-point comparison hazards) and 500-second runs — the paper's
//! simulation length — fit with ten orders of magnitude to spare.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant on the simulation clock, in nanoseconds since the
/// start of the run.
///
/// `SimTime` is totally ordered; the event queue uses it (plus a FIFO
/// sequence number) to order events.
///
/// ```
/// use rica_sim::{SimDuration, SimTime};
/// let t = SimTime::ZERO + SimDuration::from_millis(1500);
/// assert_eq!(t.as_secs_f64(), 1.5);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
///
/// ```
/// use rica_sim::SimDuration;
/// assert_eq!(SimDuration::from_millis(2) * 3, SimDuration::from_micros(6000));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as an "infinitely far" sentinel).
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole nanoseconds since the start of the run.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from fractional seconds since the start of the run.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or overflows the clock.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimTime(secs_to_nanos(secs))
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole milliseconds since the start of the run.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds since the start of the run, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span from `earlier` to `self`, or [`SimDuration::ZERO`] if
    /// `earlier` is actually later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// `self + dur`, saturating at [`SimTime::MAX`] instead of overflowing.
    pub fn saturating_add(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(dur.0))
    }
}

impl SimDuration {
    /// An empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);
    /// ~136 years of simulated time — "never" for any realistic trial.
    /// The saturating fallback that `rica-traffic`'s generators return
    /// instead of an `inf`/NaN gap when a rate is degenerate.
    pub const NEVER: SimDuration = SimDuration::from_secs(u32::MAX as u64);

    /// Builds a span from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a span from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a span from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a span from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a span from fractional seconds.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative, non-finite, or overflows.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(secs_to_nanos(secs))
    }

    /// Whole nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in the span.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// The span in seconds, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in milliseconds, as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// `self * factor` with a float factor, rounding to the nearest
    /// nanosecond.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative, non-finite, or the result overflows.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration(secs_to_nanos(self.as_secs_f64() * factor))
    }
}

/// The mean inter-arrival gap `1/rate_pps` of a packet rate, if the rate
/// is usable — `None` for every degenerate class a rate-driven generator
/// must reject: zero/negative/NaN rates, infinite rates (the gap
/// collapses to zero) and subnormal rates (the reciprocal overflows to
/// inf). Lives next to [`SimDuration::NEVER`] so every generator crate
/// shares one predicate instead of hand-copying the floating-point edge
/// cases.
pub fn usable_mean_gap(rate_pps: f64) -> Option<f64> {
    let mean_gap = 1.0 / rate_pps;
    (rate_pps > 0.0 && mean_gap.is_finite() && mean_gap > 0.0).then_some(mean_gap)
}

fn secs_to_nanos(secs: f64) -> u64 {
    assert!(
        secs.is_finite() && secs >= 0.0,
        "simulated seconds must be finite and non-negative, got {secs}"
    );
    let ns = secs * 1e9;
    assert!(ns <= u64::MAX as f64, "simulated time overflow: {secs} s");
    ns.round() as u64
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.checked_add(rhs.0).expect("simulation clock overflow"))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(
            self.0.checked_sub(rhs.0).expect("subtracting a later SimTime from an earlier one"),
        )
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime underflow: duration larger than elapsed time"),
        )
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_add(rhs.0).expect("SimDuration overflow"))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.checked_sub(rhs.0).expect("SimDuration underflow"))
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.checked_mul(rhs).expect("SimDuration overflow"))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // rica-lint: allow(float-fmt, "pinned human-readable rendering at µs precision; golden Debug hashes depend on these exact bytes, and artifacts carry integer nanos")
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // rica-lint: allow(float-fmt, "pinned human-readable rendering at µs precision; golden Debug hashes depend on these exact bytes, and artifacts carry integer nanos")
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // rica-lint: allow(float-fmt, "pinned human-readable rendering at µs precision; golden Debug hashes depend on these exact bytes, and artifacts carry integer nanos")
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // rica-lint: allow(float-fmt, "pinned human-readable rendering at µs precision; golden Debug hashes depend on these exact bytes, and artifacts carry integer nanos")
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_roundtrips() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert_eq!(t.as_millis(), 1250);
        assert_eq!(t.as_micros(), 1_250_000);
        let d = SimDuration::from_millis(250);
        assert_eq!((t + d).as_secs_f64(), 1.5);
        assert_eq!((t - d).as_secs_f64(), 1.0);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_secs(2), SimDuration::from_millis(2000));
        assert_eq!(SimDuration::from_millis(3), SimDuration::from_micros(3000));
        assert_eq!(SimDuration::from_micros(5), SimDuration::from_nanos(5000));
        assert_eq!(SimDuration::from_secs_f64(0.5), SimDuration::from_millis(500));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(SimTime::ZERO < SimTime::MAX);
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_nanos(10));
        assert_eq!(SimTime::MAX.saturating_add(SimDuration::from_secs(1)), SimTime::MAX);
    }

    #[test]
    fn mul_div() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
        assert_eq!(d.mul_f64(2.5), SimDuration::from_millis(25));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimDuration::from_nanos(2);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn negative_seconds_panic() {
        let _ = SimDuration::from_secs_f64(-0.1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_secs_f64(1.5).to_string(), "1.500000s");
        assert_eq!(format!("{:?}", SimTime::from_secs_f64(1.5)), "t=1.500000s");
        assert_eq!(SimDuration::from_millis(20).to_string(), "0.020000s");
    }
}
