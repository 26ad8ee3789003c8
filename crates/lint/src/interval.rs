//! Sorted, disjoint, coalesced interval sets over flat element
//! addresses.
//!
//! The analyzer tracks residency, delivery, and store coverage as sets
//! of `Range<u64>`. Command streams touch ranges in near-sorted order
//! and coalesce heavily (a whole layer's residency is typically a
//! handful of runs), so a sorted `Vec` with binary search beats any
//! per-element structure by orders of magnitude.

use std::ops::Range;

/// A set of `u64` addresses stored as sorted, disjoint, non-empty,
/// maximally-coalesced ranges.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    runs: Vec<Range<u64>>,
    len: u64,
}

impl IntervalSet {
    /// The empty set.
    pub fn new() -> Self {
        IntervalSet::default()
    }

    /// Number of addresses in the set.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when no addresses are present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The maximal runs, in address order.
    pub fn runs(&self) -> &[Range<u64>] {
        &self.runs
    }

    /// Index of the first run whose end is after `addr` (the only run
    /// that could contain it, and the splice point for inserts).
    fn first_candidate(&self, addr: u64) -> usize {
        self.runs.partition_point(|r| r.end <= addr)
    }

    /// Add `range`; returns how many addresses were newly added (0 if
    /// the whole range was already present or the range is empty).
    pub fn insert(&mut self, range: &Range<u64>) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        // Unlike queries, inserts must also merge a run that *ends*
        // exactly at `range.start` (adjacency), so the candidate scan
        // starts one earlier.
        let lo = self.runs.partition_point(|r| r.end < range.start);
        let mut new_start = range.start;
        let mut new_end = range.end;
        let mut covered = 0u64;
        let mut hi = lo;
        // Merge every run overlapping or directly adjacent to `range`.
        while hi < self.runs.len() && self.runs[hi].start <= new_end {
            let r = &self.runs[hi];
            covered += r
                .end
                .min(range.end)
                .saturating_sub(r.start.max(range.start));
            new_start = new_start.min(r.start);
            new_end = new_end.max(r.end);
            hi += 1;
        }
        let added = (range.end - range.start) - covered;
        self.runs
            .splice(lo..hi, std::iter::once(new_start..new_end));
        self.len += added;
        added
    }

    /// Remove `range`; returns how many addresses were actually removed.
    pub fn remove(&mut self, range: &Range<u64>) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        let lo = self.first_candidate(range.start);
        let mut hi = lo;
        let mut removed = 0u64;
        let mut keep: Vec<Range<u64>> = Vec::new();
        while hi < self.runs.len() && self.runs[hi].start < range.end {
            let r = self.runs[hi].clone();
            removed += r.end.min(range.end) - r.start.max(range.start);
            if r.start < range.start {
                keep.push(r.start..range.start);
            }
            if r.end > range.end {
                keep.push(range.end..r.end);
            }
            hi += 1;
        }
        self.runs.splice(lo..hi, keep);
        self.len -= removed;
        removed
    }

    /// How many addresses of `range` are *not* in the set.
    pub fn missing(&self, range: &Range<u64>) -> u64 {
        (range.end.saturating_sub(range.start)) - self.intersect_len(range)
    }

    /// How many addresses of `range` are in the set.
    pub fn intersect_len(&self, range: &Range<u64>) -> u64 {
        if range.start >= range.end {
            return 0;
        }
        let mut i = self.first_candidate(range.start);
        let mut n = 0u64;
        while i < self.runs.len() && self.runs[i].start < range.end {
            let r = &self.runs[i];
            n += r.end.min(range.end) - r.start.max(range.start);
            i += 1;
        }
        n
    }

    /// True when every address of `range` is in the set (vacuously true
    /// for an empty range).
    pub fn covers(&self, range: &Range<u64>) -> bool {
        self.missing(range) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    #[test]
    fn insert_coalesces_and_counts_new_addresses() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(&(10..20)), 10);
        assert_eq!(s.insert(&(20..30)), 10, "adjacent runs coalesce");
        assert_eq!(s.runs().len(), 1);
        assert_eq!(s.insert(&(5..15)), 5, "overlap only charges the new part");
        assert_eq!(s.insert(&(5..30)), 0, "fully covered adds nothing");
        assert_eq!(s.len(), 25);
    }

    #[test]
    fn remove_splits_runs() {
        let mut s = IntervalSet::new();
        s.insert(&(0..100));
        assert_eq!(s.remove(&(40..60)), 20);
        assert_eq!(s.runs(), &[0..40, 60..100]);
        assert_eq!(s.remove(&(40..60)), 0, "idempotent");
        assert_eq!(s.len(), 80);
    }

    #[test]
    fn missing_and_covers() {
        let mut s = IntervalSet::new();
        s.insert(&(10..20));
        s.insert(&(30..40));
        assert_eq!(s.missing(&(0..50)), 30);
        assert_eq!(s.intersect_len(&(15..35)), 10);
        assert!(s.covers(&(12..18)));
        assert!(!s.covers(&(12..25)));
        assert!(s.covers(&(7..7)), "empty range vacuously covered");
    }

    #[test]
    fn empty_ranges_are_no_ops() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert(&(5..5)), 0);
        assert_eq!(s.remove(&(5..5)), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn u64_max_adjacent_ranges_do_not_overflow() {
        let mut s = IntervalSet::new();
        let hi = u64::MAX - 10..u64::MAX;
        assert_eq!(s.insert(&hi), 10);
        assert_eq!(s.missing(&(u64::MAX - 20..u64::MAX)), 10);
        assert!(s.covers(&hi));
        assert_eq!(s.remove(&(u64::MAX - 5..u64::MAX)), 5);
        assert_eq!(s.len(), 5);
    }

    /// Reference model: a plain address set over a tiny universe.
    fn model_ops() -> impl Strategy<Value = Vec<(bool, Range<u64>)>> {
        prop::collection::vec(
            (any::<bool>(), 0u64..64, 0u64..64).prop_map(|(ins, a, b)| {
                let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
                (ins, lo..hi)
            }),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn matches_a_hashset_reference_model(ops in model_ops()) {
            let mut s = IntervalSet::new();
            let mut model: HashSet<u64> = HashSet::new();
            for (ins, r) in ops {
                if ins {
                    let before = model.len();
                    model.extend(r.clone());
                    prop_assert_eq!(s.insert(&r), (model.len() - before) as u64);
                } else {
                    let before = model.len();
                    for a in r.clone() {
                        model.remove(&a);
                    }
                    prop_assert_eq!(s.remove(&r), (before - model.len()) as u64);
                }
                prop_assert_eq!(s.len(), model.len() as u64);
                // Invariants: sorted, disjoint, non-empty, coalesced.
                for w in s.runs().windows(2) {
                    prop_assert!(w[0].end < w[1].start);
                }
                for r in s.runs() {
                    prop_assert!(r.start < r.end);
                }
                // Spot-check queries against the model.
                let probe = 0..64u64;
                let want = probe.clone().filter(|a| model.contains(a)).count() as u64;
                prop_assert_eq!(s.intersect_len(&probe), want);
                prop_assert_eq!(s.missing(&probe), 64 - want);
            }
        }
    }
}
