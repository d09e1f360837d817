//! Nanosecond-resolution virtual time.
//!
//! The simulator advances a [`Time`] instant through a discrete-event queue;
//! the real-socket backend maps `std::time::Instant` onto the same type so
//! the protocol engines are oblivious to which world they run in.

/// An instant on a monotonic nanosecond timeline, starting at [`Time::ZERO`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(u64);

/// A span between two [`Time`] instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Time {
    /// The origin of the timeline.
    pub const ZERO: Time = Time(0);
    /// The far future; useful as an "infinite" timer deadline.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from raw nanoseconds since the origin.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds since the origin.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds since the origin.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Nanoseconds since the origin.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the origin as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked advance by `d`, `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Duration {
    /// The zero-length span.
    pub const ZERO: Duration = Duration(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Duration(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Duration(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000_000)
    }

    /// Construct from a float second count, saturating at the representable
    /// range; panics on negative or NaN input.
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        Duration((s * 1e9) as u64)
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating multiplication by an integer factor.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// The wall time to serialize `bytes` at `bits_per_sec` on a link.
    ///
    /// Rounds up to the next nanosecond so zero-cost transmission is
    /// impossible for a non-empty payload.
    pub fn transmission(bytes: usize, bits_per_sec: u64) -> Duration {
        assert!(bits_per_sec > 0, "link rate must be positive");
        let bits = bytes as u128 * 8;
        let ns = (bits * 1_000_000_000).div_ceil(bits_per_sec as u128);
        Duration(u64::try_from(ns).expect("transmission time overflow"))
    }
}

impl core::ops::Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<Time> for Time {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Time) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("time subtraction underflow"),
        )
    }
}

impl core::ops::Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl core::ops::Mul<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl core::ops::Div<u64> for Duration {
    type Output = Duration;
    #[inline]
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

impl core::fmt::Display for Time {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl core::fmt::Display for Duration {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Time::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Time::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(Duration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn arithmetic() {
        let t = Time::from_micros(10) + Duration::from_micros(5);
        assert_eq!(t.as_nanos(), 15_000);
        assert_eq!((t - Time::from_micros(10)).as_nanos(), 5_000);
        let mut d = Duration::from_micros(1);
        d += Duration::from_micros(2);
        assert_eq!(d, Duration::from_micros(3));
        assert_eq!(d * 2, Duration::from_micros(6));
        assert_eq!(d / 3, Duration::from_micros(1));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn time_sub_underflows() {
        let _ = Time::from_nanos(1) - Time::from_nanos(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let early = Time::from_nanos(5);
        let late = Time::from_nanos(9);
        assert_eq!(late.saturating_since(early).as_nanos(), 4);
        assert_eq!(early.saturating_since(late), Duration::ZERO);
    }

    #[test]
    fn transmission_time_100mbps() {
        // 1500 bytes at 100 Mbit/s = 120 us.
        let d = Duration::transmission(1500, 100_000_000);
        assert_eq!(d.as_nanos(), 120_000);
        // Rounds up: 1 byte at 1 Gbit/s = 8 ns exactly, 1 byte at 3 bit/s
        // rounds up.
        assert_eq!(Duration::transmission(1, 1_000_000_000).as_nanos(), 8);
        assert_eq!(
            Duration::transmission(1, 3).as_nanos(),
            (8u64 * 1_000_000_000).div_ceil(3)
        );
        assert_eq!(Duration::transmission(0, 100).as_nanos(), 0);
    }

    #[test]
    fn display_picks_units() {
        assert_eq!(format!("{}", Duration::from_nanos(17)), "17ns");
        assert_eq!(format!("{}", Duration::from_micros(17)), "17.000us");
        assert_eq!(format!("{}", Duration::from_millis(17)), "17.000ms");
        assert_eq!(format!("{}", Duration::from_secs(17)), "17.000s");
    }
}
