//! Cycle arithmetic.
//!
//! All simulated time in the workspace is expressed in processor clock cycles
//! using the [`Cycles`] newtype.  The paper's cost parameters (e.g. the
//! 500/1000/5000-cycle inter-sequencer `signal` cost studied in Figure 5) are
//! all plain cycle counts, so a single monotonic 64-bit counter is sufficient.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};
use serde::{Deserialize, Serialize};

/// An absolute point in simulated time, or a span of simulated time, measured
/// in clock cycles.
///
/// `Cycles` is deliberately a thin wrapper over `u64`: it exists to prevent
/// accidental mixing of cycle counts with other integer quantities (event
/// counts, page numbers, …), per the newtype guidance of the Rust API
/// guidelines.
///
/// # Examples
///
/// ```
/// use misp_types::Cycles;
///
/// let a = Cycles::new(100);
/// let b = Cycles::new(250);
/// assert_eq!((a + b).as_u64(), 350);
/// assert_eq!(b.saturating_sub(a), Cycles::new(150));
/// assert_eq!(a.saturating_sub(b), Cycles::ZERO);
/// ```
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
#[serde(transparent)]
pub struct Cycles(u64);

/// A span of simulated time.  Alias of [`Cycles`] kept for readability at call
/// sites that deal in durations rather than absolute timestamps.
pub type Duration = Cycles;

impl Cycles {
    /// The zero cycle count.
    pub const ZERO: Cycles = Cycles(0);
    /// The maximum representable cycle count.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Creates a cycle count from a raw `u64`.
    #[inline]
    #[must_use]
    pub const fn new(raw: u64) -> Self {
        Cycles(raw)
    }

    /// Returns the raw cycle count.
    #[inline]
    #[must_use]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the raw cycle count as an `f64`, for ratio computations in the
    /// experiment harnesses.
    #[inline]
    #[must_use]
    pub fn as_f64(self) -> f64 {
        self.0 as f64
    }

    /// Returns `true` when this is the zero cycle count.
    #[inline]
    #[must_use]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction: returns zero instead of wrapping when `rhs`
    /// exceeds `self`.
    #[inline]
    #[must_use]
    pub const fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Saturating addition: clamps at [`Cycles::MAX`].
    #[inline]
    #[must_use]
    pub const fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Multiplies the cycle count by an integer scale factor.
    #[inline]
    #[must_use]
    pub const fn scaled(self, factor: u64) -> Cycles {
        Cycles(self.0 * factor)
    }

    /// Returns the larger of two cycle counts.
    #[inline]
    #[must_use]
    pub const fn max(self, other: Cycles) -> Cycles {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two cycle counts.
    #[inline]
    #[must_use]
    pub const fn min(self, other: Cycles) -> Cycles {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cycles", self.0)
    }
}

impl From<u64> for Cycles {
    fn from(raw: u64) -> Self {
        Cycles(raw)
    }
}

impl From<Cycles> for u64 {
    fn from(c: Cycles) -> Self {
        c.0
    }
}

impl Add for Cycles {
    type Output = Cycles;
    #[inline]
    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    #[inline]
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;
    #[inline]
    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    #[inline]
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;
    #[inline]
    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl<'a> Sum<&'a Cycles> for Cycles {
    fn sum<I: Iterator<Item = &'a Cycles>>(iter: I) -> Cycles {
        iter.copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        let c = Cycles::new(42);
        assert_eq!(c.as_u64(), 42);
        assert!(!c.is_zero());
        assert!(Cycles::ZERO.is_zero());
        assert_eq!(Cycles::from(7u64), Cycles::new(7));
        assert_eq!(u64::from(Cycles::new(9)), 9);
    }

    #[test]
    fn arithmetic() {
        let a = Cycles::new(10);
        let b = Cycles::new(3);
        assert_eq!(a + b, Cycles::new(13));
        assert_eq!(a - b, Cycles::new(7));
        assert_eq!(a * 4, Cycles::new(40));
        assert_eq!(a / 2, Cycles::new(5));
        let mut c = a;
        c += b;
        assert_eq!(c, Cycles::new(13));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_ops() {
        assert_eq!(Cycles::new(3).saturating_sub(Cycles::new(10)), Cycles::ZERO);
        assert_eq!(
            Cycles::MAX.saturating_add(Cycles::new(1)),
            Cycles::MAX,
            "saturating add clamps at MAX"
        );
    }

    #[test]
    fn min_max_and_scaled() {
        let a = Cycles::new(5);
        let b = Cycles::new(8);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        assert_eq!(a.scaled(3), Cycles::new(15));
    }

    #[test]
    fn sum_iterator() {
        let total: Cycles = (1..=4u64).map(Cycles::new).sum();
        assert_eq!(total, Cycles::new(10));
        let v = [Cycles::new(2), Cycles::new(3)];
        let total: Cycles = v.iter().sum();
        assert_eq!(total, Cycles::new(5));
    }

    #[test]
    fn display_and_serde() {
        assert_eq!(Cycles::new(12).to_string(), "12 cycles");
        let json = serde_json::to_string(&Cycles::new(99)).unwrap();
        assert_eq!(json, "99");
        let back: Cycles = serde_json::from_str(&json).unwrap();
        assert_eq!(back, Cycles::new(99));
    }

    #[test]
    fn ordering() {
        assert!(Cycles::new(1) < Cycles::new(2));
        assert!(Cycles::new(2) <= Cycles::new(2));
    }
}
