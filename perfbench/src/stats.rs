//! Summary statistics over timing samples.

/// Width of the windows whose medians the end-to-end figures report.
pub const WINDOW_S: f64 = 1.0;

/// Significant bits a [`Histogram`] bucket keeps: values are recorded
/// to within 1/256 (0.4 %) of their size.
const SUB_BITS: u32 = 8;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of non-negative integers (nanoseconds here)
/// in fixed memory: values below 256 land in their own bucket, larger
/// ones in buckets 1/256 of their size wide. Memory does not grow with
/// the number of samples, so a faster run does not show a larger RSS.
#[derive(Debug, Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; ((64 - SUB_BITS as usize) + 1) * SUB as usize],
            total: 0,
        }
    }
}

fn bucket(v: u64) -> usize {
    if v < SUB {
        return v as usize;
    }
    let e = v.ilog2(); // >= SUB_BITS
    let m = (v >> (e - SUB_BITS)) & (SUB - 1);
    ((e - SUB_BITS + 1) as u64 * SUB + m) as usize
}

/// The midpoint of bucket `i` (exact below `SUB`).
fn value(i: usize) -> f64 {
    let i = i as u64;
    if i < SUB {
        return i as f64;
    }
    let shift = i / SUB - 1;
    let low = (SUB + i % SUB) << shift;
    low as f64 + ((1u64 << shift) - 1) as f64 / 2.0
}

impl Histogram {
    pub fn record(&mut self, v: u64) {
        self.counts[bucket(v)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// Nearest-rank percentile: the smallest recorded value (to bucket
    /// precision) with at least `p` percent of the samples at or below
    /// it.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!(self.total > 0, "percentile of an empty histogram");
        let rank = (((p / 100.0) * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return value(i);
            }
        }
        unreachable!("rank {rank} is within the {} samples", self.total)
    }
}

/// Median (0 for an empty sample).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        f64::midpoint(v[n / 2 - 1], v[n / 2])
    }
}

/// Peak resident set size of this process in MB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist(values: &[u64]) -> Histogram {
        let mut h = Histogram::default();
        for &v in values {
            h.record(v);
        }
        h
    }

    #[test]
    fn percentile_matches_the_nearest_rank_definition() {
        // Worked example: 15, 20, 35, 40, 50 (all recorded exactly).
        let h = hist(&[35, 20, 50, 15, 40]);
        assert_eq!(h.percentile(5.0), 15.0);
        assert_eq!(h.percentile(30.0), 20.0);
        assert_eq!(h.percentile(40.0), 20.0);
        assert_eq!(h.percentile(50.0), 35.0);
        assert_eq!(h.percentile(100.0), 50.0);
        let h = hist(&(1..=100).collect::<Vec<_>>());
        assert_eq!(h.percentile(99.0), 99.0);
        assert_eq!(h.percentile(50.0), 50.0);
    }

    #[test]
    fn large_values_keep_their_relative_precision() {
        for v in [256u64, 1000, 24_287, 1_903_827, 7_000_000_000] {
            let got = hist(&[v]).percentile(50.0);
            assert!((got - v as f64).abs() <= v as f64 / 256.0, "{v} -> {got}");
        }
        let mut a = hist(&[10, 20]);
        a.merge(&hist(&[30]));
        assert_eq!((a.count(), a.percentile(100.0)), (3, 30.0));
    }

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
