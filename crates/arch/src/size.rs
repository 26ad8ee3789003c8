use crate::DataWidth;
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub};

/// A memory capacity or data volume in bytes.
///
/// All capacity constraints in the paper (Eq. 1 and Eq. 2) compare data
/// volumes against the GLB size; keeping the unit in the type avoids the
/// classic bytes-vs-elements mixups when the data width is not 8 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ByteSize(pub u64);

impl ByteSize {
    /// Zero bytes.
    pub const ZERO: ByteSize = ByteSize(0);

    /// Construct from kilobytes (1 kB = 1024 bytes, as in the paper's
    /// 64 kB … 1024 kB sweep).
    #[inline]
    pub const fn from_kb(kb: u64) -> Self {
        ByteSize(kb * 1024)
    }

    /// Construct from megabytes.
    #[inline]
    pub const fn from_mb(mb: u64) -> Self {
        ByteSize(mb * 1024 * 1024)
    }

    /// Construct from a number of elements at the given data width.
    #[inline]
    pub fn from_elements(elements: u64, width: DataWidth) -> Self {
        ByteSize(elements * width.bytes())
    }

    /// Raw byte count.
    #[inline]
    pub const fn bytes(self) -> u64 {
        self.0
    }

    /// Size in (fractional) kilobytes; handy for paper-style tables.
    #[inline]
    pub fn kb(self) -> f64 {
        self.0 as f64 / 1024.0
    }

    /// Size in (fractional) megabytes; Figure 5's y-axis unit.
    #[inline]
    pub fn mb(self) -> f64 {
        self.0 as f64 / (1024.0 * 1024.0)
    }

    /// How many elements of `width` fit in this capacity (floor).
    #[inline]
    pub fn elements(self, width: DataWidth) -> u64 {
        self.0 / width.bytes()
    }

    /// Saturating subtraction, for "space left over" computations.
    #[inline]
    pub fn saturating_sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0.saturating_sub(rhs.0))
    }

    /// Integer division of capacities, e.g. halving for double buffering.
    #[inline]
    pub const fn halved(self) -> ByteSize {
        ByteSize(self.0 / 2)
    }
}

impl Add for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn add(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 + rhs.0)
    }
}

impl AddAssign for ByteSize {
    #[inline]
    fn add_assign(&mut self, rhs: ByteSize) {
        self.0 += rhs.0;
    }
}

impl Sub for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn sub(self, rhs: ByteSize) -> ByteSize {
        ByteSize(self.0 - rhs.0)
    }
}

impl Mul<u64> for ByteSize {
    type Output = ByteSize;
    #[inline]
    fn mul(self, rhs: u64) -> ByteSize {
        ByteSize(self.0 * rhs)
    }
}

impl Sum for ByteSize {
    fn sum<I: Iterator<Item = ByteSize>>(iter: I) -> ByteSize {
        iter.fold(ByteSize::ZERO, Add::add)
    }
}

impl fmt::Display for ByteSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1024 * 1024 && self.0.is_multiple_of(1024 * 1024) {
            write!(f, "{}MB", self.0 / (1024 * 1024))
        } else if self.0 >= 1024 {
            write!(f, "{:.1}kB", self.kb())
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn kb_and_mb_constructors() {
        assert_eq!(ByteSize::from_kb(64).bytes(), 65536);
        assert_eq!(ByteSize::from_mb(1), ByteSize::from_kb(1024));
    }

    #[test]
    fn element_round_trip_8bit() {
        let s = ByteSize::from_elements(1000, DataWidth::W8);
        assert_eq!(s.bytes(), 1000);
        assert_eq!(s.elements(DataWidth::W8), 1000);
    }

    #[test]
    fn element_round_trip_32bit() {
        let s = ByteSize::from_elements(1000, DataWidth::W32);
        assert_eq!(s.bytes(), 4000);
        assert_eq!(s.elements(DataWidth::W32), 1000);
    }

    #[test]
    fn halved_is_double_buffer_partition() {
        assert_eq!(ByteSize::from_kb(64).halved(), ByteSize::from_kb(32));
    }

    #[test]
    fn display_picks_natural_unit() {
        assert_eq!(ByteSize(512).to_string(), "512B");
        assert_eq!(ByteSize::from_kb(64).to_string(), "64.0kB");
        assert_eq!(ByteSize::from_mb(2).to_string(), "2MB");
    }

    #[test]
    fn sum_of_tiles() {
        let total: ByteSize = [ByteSize(10), ByteSize(20), ByteSize(12)].into_iter().sum();
        assert_eq!(total, ByteSize(42));
    }

    proptest! {
        #[test]
        fn elements_bytes_inverse(n in 0u64..1_000_000, w in prop::sample::select(&DataWidth::ALL)) {
            let s = ByteSize::from_elements(n, w);
            prop_assert_eq!(s.elements(w), n);
        }

        #[test]
        fn saturating_sub_never_underflows(a in 0u64..1_000_000, b in 0u64..1_000_000) {
            let d = ByteSize(a).saturating_sub(ByteSize(b));
            prop_assert_eq!(d.bytes(), a.saturating_sub(b));
        }
    }
}
