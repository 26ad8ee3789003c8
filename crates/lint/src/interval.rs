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
///
/// Every update and query takes a strided block — `count` runs of
/// `first.end - first.start` addresses, run `k` starting `k * stride`
/// after `first` — and costs one binary search to the block's span, one
/// linear merge over the runs already in it and one splice. A single
/// range is the block with `count` 1 ([`insert`](Self::insert) and
/// friends).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IntervalSet {
    runs: Vec<Range<u64>>,
    len: u64,
    /// Merge output, reused so that no update allocates once it has
    /// grown; empty between calls.
    scratch: Vec<Range<u64>>,
}

/// A non-empty strided block with its span end checked.
struct Block {
    start: u64,
    len: u64,
    stride: u64,
    count: u64,
    end: u64,
}

impl Block {
    /// `None` for an empty block (empty run or zero runs).
    ///
    /// # Panics
    ///
    /// When the runs overlap (`count > 1` and `stride` below the run
    /// length) or the last run ends past `u64::MAX`.
    fn new(first: &Range<u64>, stride: u64, count: u64) -> Option<Block> {
        if first.start >= first.end || count == 0 {
            return None;
        }
        let len = first.end - first.start;
        assert!(
            count == 1 || stride >= len,
            "block runs overlap: stride {stride} < run length {len}"
        );
        let end = (count - 1)
            .checked_mul(stride)
            .and_then(|offset| offset.checked_add(first.end))
            .expect("block ends within u64");
        Some(Block {
            start: first.start,
            len,
            stride,
            count,
            end,
        })
    }

    /// Run `k` (`k < count`, so it cannot overflow).
    fn run(&self, k: u64) -> Range<u64> {
        let start = self.start + k * self.stride;
        start..start + self.len
    }
}

fn total(runs: &[Range<u64>]) -> u64 {
    runs.iter().map(|r| r.end - r.start).sum()
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

    /// Add `range`; returns how many addresses were newly added (0 if
    /// the whole range was already present or the range is empty).
    pub fn insert(&mut self, range: &Range<u64>) -> u64 {
        self.insert_block(range, 0, 1)
    }

    /// Add the strided block (see the type docs); returns how many
    /// addresses were newly added.
    ///
    /// # Panics
    ///
    /// When `count > 1` and `stride` is below the run length, or the
    /// block ends past `u64::MAX`.
    pub fn insert_block(&mut self, first: &Range<u64>, stride: u64, count: u64) -> u64 {
        let Some(b) = Block::new(first, stride, count) else {
            return 0;
        };
        // Runs overlapping the span or directly adjacent to it (ending
        // exactly at its start, starting exactly at its end) coalesce.
        let lo = self.runs.partition_point(|r| r.end < b.start);
        let hi = lo
            + self.runs[lo..]
                .iter()
                .take_while(|r| r.start <= b.end)
                .count();
        let old = &self.runs[lo..hi];
        let merged = &mut self.scratch;
        let (mut i, mut k) = (0, 0);
        loop {
            let next = if i < old.len() && (k == b.count || old[i].start <= b.run(k).start) {
                i += 1;
                old[i - 1].clone()
            } else if k < b.count {
                k += 1;
                b.run(k - 1)
            } else {
                break;
            };
            match merged.last_mut() {
                Some(last) if next.start <= last.end => last.end = last.end.max(next.end),
                _ => merged.push(next),
            }
        }
        let added = total(merged) - total(old);
        self.splice_scratch(lo, hi);
        self.len += added;
        added
    }

    /// Remove `range`; returns how many addresses were actually removed.
    pub fn remove(&mut self, range: &Range<u64>) -> u64 {
        self.remove_block(range, 0, 1)
    }

    /// Remove the strided block (see the type docs); returns how many
    /// addresses were actually removed.
    ///
    /// # Panics
    ///
    /// Like [`insert_block`](Self::insert_block).
    pub fn remove_block(&mut self, first: &Range<u64>, stride: u64, count: u64) -> u64 {
        let Some(b) = Block::new(first, stride, count) else {
            return 0;
        };
        let lo = self.runs.partition_point(|r| r.end <= b.start);
        let hi = lo
            + self.runs[lo..]
                .iter()
                .take_while(|r| r.start < b.end)
                .count();
        let old = &self.runs[lo..hi];
        let kept = &mut self.scratch;
        let mut k = 0;
        for r in old {
            let mut from = r.start;
            // Block runs ending by `from` cut nothing more from here on.
            while k < b.count && b.run(k).end <= from {
                k += 1;
            }
            while k < b.count {
                let cut = b.run(k);
                if cut.start >= r.end {
                    break;
                }
                if cut.start > from {
                    kept.push(from..cut.start);
                }
                if cut.end >= r.end {
                    // This cut may reach into the next run too.
                    from = r.end;
                    break;
                }
                from = cut.end;
                k += 1;
            }
            if from < r.end {
                kept.push(from..r.end);
            }
        }
        let removed = total(old) - total(kept);
        self.splice_scratch(lo, hi);
        self.len -= removed;
        removed
    }

    /// Replace `runs[lo..hi]` with the merge output in `scratch`, moving
    /// the runs above it at most once, and leave `scratch` empty.
    fn splice_scratch(&mut self, lo: usize, hi: usize) {
        let (runs, out) = (&mut self.runs, &mut self.scratch);
        let shared = (hi - lo).min(out.len());
        runs[lo..lo + shared].clone_from_slice(&out[..shared]);
        if out.len() > shared {
            runs.splice(hi..hi, out.drain(shared..));
        } else {
            runs.drain(lo + shared..hi);
        }
        out.clear();
    }

    /// How many addresses of `range` are *not* in the set.
    pub fn missing(&self, range: &Range<u64>) -> u64 {
        self.missing_block(range, 0, 1)
    }

    /// How many addresses of the strided block (see the type docs) are
    /// *not* in the set.
    ///
    /// # Panics
    ///
    /// Like [`insert_block`](Self::insert_block).
    pub fn missing_block(&self, first: &Range<u64>, stride: u64, count: u64) -> u64 {
        let Some(b) = Block::new(first, stride, count) else {
            return 0;
        };
        let runs = &self.runs[self.runs.partition_point(|r| r.end <= b.start)..];
        let mut present = 0u64;
        let mut i = 0;
        for k in 0..b.count {
            let cut = b.run(k);
            while i < runs.len() && runs[i].end <= cut.start {
                i += 1;
            }
            if i == runs.len() {
                break;
            }
            // A run reaching past `cut` stays at `i` for the next cut.
            for r in runs[i..].iter().take_while(|r| r.start < cut.end) {
                present += r.end.min(cut.end) - r.start.max(cut.start);
            }
        }
        b.len * b.count - present
    }

    /// How many addresses of `range` are in the set.
    pub fn intersect_len(&self, range: &Range<u64>) -> u64 {
        range.end.saturating_sub(range.start) - self.missing(range)
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

    #[test]
    fn blocks_are_strided_runs() {
        let mut s = IntervalSet::new();
        assert_eq!(s.insert_block(&(0..2), 5, 3), 6);
        assert_eq!(s.runs(), &[0..2, 5..7, 10..12]);
        assert_eq!(s.missing_block(&(1..3), 5, 3), 3);
        assert_eq!(s.insert_block(&(2..5), 5, 2), 6, "fills the gaps");
        assert_eq!(s.runs().to_vec(), vec![0..12]);
        assert_eq!(s.remove_block(&(1..2), 3, 4), 4);
        assert_eq!(s.runs(), &[0..1, 2..4, 5..7, 8..10, 11..12]);
        assert_eq!(s.insert_block(&(20..23), 3, 2), 6, "stride = run length");
        assert_eq!(s.runs().last(), Some(&(20..26)));
        assert_eq!(s.len(), 8 + 6);
    }

    #[test]
    fn a_block_ending_at_u64_max_does_not_overflow() {
        let mut s = IntervalSet::new();
        let first = u64::MAX - 10..u64::MAX - 8;
        assert_eq!(s.insert_block(&first, 4, 3), 6);
        assert_eq!(s.runs().last(), Some(&(u64::MAX - 2..u64::MAX)));
        assert_eq!(
            s.missing_block(&(u64::MAX - 12..u64::MAX - 6), 6, 2),
            12 - 6
        );
        assert_eq!(s.remove_block(&first, 4, 3), 6);
        assert!(s.is_empty());
    }

    #[test]
    #[should_panic(expected = "block runs overlap")]
    fn overlapping_block_runs_are_rejected() {
        IntervalSet::new().insert_block(&(0..4), 3, 2);
    }

    /// Reference-model operations over the universe `0..64`, as `(kind,
    /// first, stride, count)`: kind 0 inserts, 1 removes, 2 only
    /// queries. A single range may span the universe; block runs are
    /// short so that several fit. `stride` equals the run length (a
    /// contiguous block) or exceeds it; `pin` ends the block at the
    /// universe's top.
    fn model_ops() -> impl Strategy<Value = Vec<(u8, Range<u64>, u64, u64)>> {
        prop::collection::vec(
            (
                0u8..3,
                0u64..64,
                0u64..64,
                0u64..4,
                0u64..6,
                any::<bool>(),
                any::<bool>(),
            )
                .prop_map(|(kind, at, len, gap, count, tight, pin)| {
                    let len = if count > 1 { len % 6 } else { len };
                    let stride = if tight { len } else { len + gap };
                    let span = count.saturating_sub(1) * stride + len;
                    let start = if pin { 64 - span } else { at.min(64 - span) };
                    (kind, start..start + len, stride, count)
                }),
            0..40,
        )
    }

    proptest! {
        #[test]
        fn matches_a_hashset_reference_model(high in any::<bool>(), ops in model_ops()) {
            // The high universe's top is `u64::MAX`: pinned blocks end there.
            let base = if high { u64::MAX - 64 } else { 0 };
            let mut s = IntervalSet::new();
            let mut model: HashSet<u64> = HashSet::new();
            for (kind, first, stride, count) in ops {
                let first = base + first.start..base + first.end;
                let block: Vec<u64> = (0..count)
                    .flat_map(|k| first.start + k * stride..first.end + k * stride)
                    .collect();
                let absent = block.iter().filter(|a| !model.contains(*a)).count() as u64;
                // A single range also goes through the one-range forms.
                let single = count == 1;
                let missing = if single {
                    s.missing(&first)
                } else {
                    s.missing_block(&first, stride, count)
                };
                prop_assert_eq!(missing, absent);
                match kind {
                    0 => {
                        model.extend(&block);
                        let added = if single {
                            s.insert(&first)
                        } else {
                            s.insert_block(&first, stride, count)
                        };
                        prop_assert_eq!(added, absent);
                    }
                    1 => {
                        for a in &block {
                            model.remove(a);
                        }
                        let removed = if single {
                            s.remove(&first)
                        } else {
                            s.remove_block(&first, stride, count)
                        };
                        prop_assert_eq!(removed, block.len() as u64 - absent);
                    }
                    _ => {}
                }
                prop_assert_eq!(s.len(), model.len() as u64);
                // Invariants: sorted, disjoint, non-empty, coalesced, and
                // exactly the model's addresses.
                for w in s.runs().windows(2) {
                    prop_assert!(w[0].end < w[1].start);
                }
                for r in s.runs() {
                    prop_assert!(r.start < r.end);
                }
                let mut want: Vec<u64> = model.iter().copied().collect();
                want.sort_unstable();
                let got: Vec<u64> = s.runs().iter().flat_map(Clone::clone).collect();
                prop_assert_eq!(&got, &want);
                let universe = base..base + 64;
                prop_assert_eq!(s.intersect_len(&universe), want.len() as u64);
                prop_assert_eq!(s.missing(&universe), 64 - want.len() as u64);
            }
        }
    }
}
