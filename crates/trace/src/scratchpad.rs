use std::fmt;
use std::ops::Range;

/// A capacity-limited on-chip resident set with explicit fill/evict.
///
/// Scratchpads are software-managed: nothing is ever evicted implicitly.
/// A schedule `fill`s the element ranges it is about to use (`fill`
/// returns how many it fetched from DRAM), `allocate`s space for data
/// produced on-chip and `evict`s what it is done with. Traffic that
/// never becomes resident (streamed operands, write-backs) is the
/// caller's to count. Exceeding the capacity is a schedule bug and is
/// reported as an error rather than silently dropping data.
///
/// Residency is tracked in a word-packed bitmap grown on demand: layer
/// address spaces are dense and bounded, and replays touch millions of
/// elements, so a bitmap beats a hash set by more than an order of
/// magnitude in both time and space.
#[derive(Debug)]
pub struct Scratchpad {
    capacity: u64,
    resident: u64,
    bits: Vec<u64>,
}

/// Error returned when a fill would overflow the scratchpad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapacityExceeded {
    pub capacity: u64,
    pub requested: u64,
}

impl fmt::Display for CapacityExceeded {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "scratchpad overflow: {} resident+incoming elements > capacity {}",
            self.requested, self.capacity
        )
    }
}

impl std::error::Error for CapacityExceeded {}

impl Scratchpad {
    /// An empty scratchpad of `capacity` elements.
    pub fn new(capacity: u64) -> Self {
        Scratchpad {
            capacity,
            resident: 0,
            bits: Vec::new(),
        }
    }

    /// Elements currently resident.
    pub fn resident_count(&self) -> u64 {
        self.resident
    }

    /// Capacity in elements.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    #[inline]
    fn ensure_words(&mut self, addr_end: u64) {
        let words = (addr_end as usize).div_ceil(64);
        if self.bits.len() < words {
            self.bits.resize(words, 0);
        }
    }

    /// Count the addresses in `range` that are *not* resident.
    fn missing(&self, range: &Range<u64>) -> u64 {
        let mut missing = 0;
        let mut a = range.start;
        while a < range.end {
            let w = (a / 64) as usize;
            let bit_start = a % 64;
            let span = (64 - bit_start).min(range.end - a);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit_start
            };
            let word = self.bits.get(w).copied().unwrap_or(0);
            missing += span - (word & mask).count_ones() as u64;
            a += span;
        }
        missing
    }

    /// Set (or clear) all bits in `range`, returning how many changed.
    fn set_range(&mut self, range: &Range<u64>, value: bool) -> u64 {
        if range.is_empty() {
            return 0;
        }
        self.ensure_words(range.end);
        let mut changed = 0;
        let mut a = range.start;
        while a < range.end {
            let w = (a / 64) as usize;
            let bit_start = a % 64;
            let span = (64 - bit_start).min(range.end - a);
            let mask = if span == 64 {
                u64::MAX
            } else {
                ((1u64 << span) - 1) << bit_start
            };
            let word = &mut self.bits[w];
            if value {
                changed += (mask & !*word).count_ones() as u64;
                *word |= mask;
            } else {
                changed += (mask & *word).count_ones() as u64;
                *word &= !mask;
            }
            a += span;
        }
        changed
    }

    /// Whether the whole range is already resident.
    pub fn contains(&self, range: Range<u64>) -> bool {
        !range.is_empty() && self.missing(&range) == 0
    }

    /// Bring a range on-chip and return how many elements had to be
    /// read from DRAM: addresses already resident are free. Fails (with
    /// no side effects) if the post-fill footprint would exceed the
    /// capacity.
    pub fn fill(&mut self, range: Range<u64>) -> Result<u64, CapacityExceeded> {
        let missing = self.missing(&range);
        let requested = self.resident + missing;
        if requested > self.capacity {
            return Err(CapacityExceeded {
                capacity: self.capacity,
                requested,
            });
        }
        self.resident += self.set_range(&range, true);
        Ok(missing)
    }

    /// Allocate a range for data produced on-chip (no DRAM read). Fails
    /// like [`fill`](Self::fill) on overflow.
    pub fn allocate(&mut self, range: Range<u64>) -> Result<(), CapacityExceeded> {
        let missing = self.missing(&range);
        let requested = self.resident + missing;
        if requested > self.capacity {
            return Err(CapacityExceeded {
                capacity: self.capacity,
                requested,
            });
        }
        self.resident += self.set_range(&range, true);
        Ok(())
    }

    /// Drop a range from the resident set (idempotent).
    pub fn evict(&mut self, range: Range<u64>) {
        self.resident -= self.set_range(&range, false);
    }

    /// Drop everything.
    pub fn evict_all(&mut self) {
        self.bits.fill(0);
        self.resident = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn fill_charges_only_misses() {
        let mut sp = Scratchpad::new(100);
        assert_eq!(sp.fill(0..50), Ok(50));
        // Overlapping refill: only the 10 new elements are fetched.
        assert_eq!(sp.fill(40..60), Ok(10));
        assert_eq!(sp.resident_count(), 60);
    }

    #[test]
    fn overflow_is_an_error_with_no_side_effects() {
        let mut sp = Scratchpad::new(10);
        sp.fill(0..10).unwrap();
        let err = sp.fill(10..11).unwrap_err();
        assert_eq!(err.capacity, 10);
        assert_eq!(err.requested, 11);
        assert_eq!(sp.resident_count(), 10);
        assert_eq!(sp.fill(0..10), Ok(0), "failed fill left nothing behind");
    }

    #[test]
    fn evict_frees_space() {
        let mut sp = Scratchpad::new(10);
        sp.fill(0..10).unwrap();
        sp.evict(0..5);
        assert_eq!(sp.fill(20..25), Ok(5));
        assert_eq!(sp.resident_count(), 10);
    }

    #[test]
    fn refetch_after_evict_is_charged_again() {
        let mut sp = Scratchpad::new(10);
        sp.fill(0..10).unwrap();
        sp.evict_all();
        assert_eq!(sp.fill(0..10), Ok(10));
    }

    #[test]
    fn allocate_does_not_touch_dram() {
        let mut sp = Scratchpad::new(10);
        sp.allocate(0..8).unwrap();
        assert_eq!(sp.resident_count(), 8);
        assert_eq!(sp.fill(0..8), Ok(0), "allocated data needs no fetch");
    }

    #[test]
    fn contains_checks_whole_range() {
        let mut sp = Scratchpad::new(10);
        sp.fill(2..6).unwrap();
        assert!(sp.contains(3..5));
        assert!(!sp.contains(5..7));
    }

    #[test]
    fn word_boundary_ranges() {
        // Ranges crossing 64-bit word boundaries must count exactly.
        let mut sp = Scratchpad::new(1000);
        assert_eq!(sp.fill(60..70), Ok(10));
        assert_eq!(sp.resident_count(), 10);
        assert_eq!(sp.fill(126..130), Ok(4));
        assert_eq!(sp.resident_count(), 14);
        sp.evict(63..128);
        assert_eq!(sp.resident_count(), 10 - 7 + 4 - 2);
        assert_eq!(sp.fill(60..130), Ok(65));
    }

    proptest! {
        /// The bitmap behaves exactly like a reference hash-set model
        /// under arbitrary fill/evict/allocate sequences, and each fill
        /// reports exactly the addresses the model did not hold.
        #[test]
        fn matches_reference_model(ops in prop::collection::vec(
            (0u8..3, 0u64..300, 1u64..40), 1..40)
        ) {
            let mut sp = Scratchpad::new(10_000);
            let mut model: HashSet<u64> = HashSet::new();
            for (op, start, len) in ops {
                let range = start..start + len;
                match op {
                    0 => {
                        let misses = range.clone().filter(|a| !model.contains(a)).count() as u64;
                        model.extend(range.clone());
                        prop_assert_eq!(sp.fill(range), Ok(misses));
                    }
                    1 => {
                        for a in range.clone() { model.remove(&a); }
                        sp.evict(range);
                    }
                    _ => {
                        model.extend(range.clone());
                        sp.allocate(range).unwrap();
                    }
                }
                prop_assert_eq!(sp.resident_count(), model.len() as u64);
            }
        }
    }
}
