//! Aggregated profile report: counter totals, histogram summaries, and
//! per-span timing rows, with a plain-text `Display` rendering.

use crate::{pow2_bucket_bound, rank_bucket, Collector, Counter, Histogram, SpanStats};
use std::fmt;

/// One counter row in a [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct CounterRow {
    /// Which counter.
    pub counter: Counter,
    /// Its total.
    pub value: u64,
}

/// One histogram row in a [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct HistogramRow {
    /// Which histogram.
    pub histogram: Histogram,
    /// Number of observations.
    pub count: u64,
    /// Upper bound (exclusive, power of two) of the median bucket; 1
    /// means the median observation was 0, 2 that it was 1.
    pub p50_bound: u64,
    /// Upper bound of the bucket holding the largest observation.
    pub max_bound: u64,
}

/// One span row in a [`ProfileReport`].
#[derive(Debug, Clone)]
pub struct SpanRow {
    /// Span name.
    pub name: &'static str,
    /// Aggregated timings.
    pub stats: SpanStats,
}

/// Snapshot of everything the collector aggregated for one run.
///
/// Obtain via [`crate::report`]; render with `Display` (what
/// `smm-cli --profile` prints) or consume the fields directly.
#[derive(Debug, Clone)]
pub struct ProfileReport {
    /// Counters with non-zero totals, in registry order.
    pub counters: Vec<CounterRow>,
    /// Histograms with at least one observation, in registry order.
    pub histograms: Vec<HistogramRow>,
    /// Span aggregates, sorted by descending total time.
    pub spans: Vec<SpanRow>,
    /// Trace events dropped after the in-memory cap was hit.
    pub dropped_events: u64,
}

impl ProfileReport {
    /// Total for `counter` (0 if it never fired).
    pub fn counter(&self, counter: Counter) -> u64 {
        self.counters
            .iter()
            .find(|r| r.counter == counter)
            .map_or(0, |r| r.value)
    }

    /// True when nothing was recorded (collection likely disabled).
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.spans.is_empty()
    }
}

pub(crate) fn build(c: &Collector) -> ProfileReport {
    let counters = Counter::ALL
        .iter()
        .map(|&k| CounterRow {
            counter: k,
            value: c.counter_load(k.index()),
        })
        .filter(|r| r.value > 0)
        .collect();

    let histograms = Histogram::ALL
        .iter()
        .filter_map(|&k| {
            let buckets = c.histogram_load(k.index());
            let count: u64 = buckets.iter().sum();
            if count == 0 {
                return None;
            }
            let p50_bucket = rank_bucket(buckets, count.div_ceil(2)).unwrap_or(0);
            let max_bucket = buckets.iter().rposition(|&b| b > 0).unwrap_or(0);
            Some(HistogramRow {
                histogram: k,
                count,
                p50_bound: pow2_bucket_bound(p50_bucket),
                max_bound: pow2_bucket_bound(max_bucket),
            })
        })
        .collect();

    let mut spans: Vec<SpanRow> = c
        .span_snapshot()
        .into_iter()
        .map(|(name, stats)| SpanRow { name, stats })
        .collect();
    spans.sort_by_key(|r| std::cmp::Reverse(r.stats.total_ns));

    ProfileReport {
        counters,
        histograms,
        spans,
        dropped_events: c.dropped_events.load(std::sync::atomic::Ordering::Relaxed),
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl fmt::Display for ProfileReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "profile: no data collected (was --profile enabled?)");
        }
        writeln!(f, "== profile: spans ==")?;
        writeln!(
            f,
            "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
            "span", "count", "total", "mean", "min", "max"
        )?;
        for row in &self.spans {
            let s = &row.stats;
            let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
            writeln!(
                f,
                "{:<28} {:>8} {:>12} {:>12} {:>12} {:>12}",
                row.name,
                s.count,
                fmt_ns(s.total_ns),
                fmt_ns(mean),
                fmt_ns(s.min_ns),
                fmt_ns(s.max_ns)
            )?;
        }
        writeln!(f, "\n== profile: counters ==")?;
        for row in &self.counters {
            writeln!(f, "{:<32} {:>12}", row.counter.name(), row.value)?;
        }
        if !self.histograms.is_empty() {
            writeln!(f, "\n== profile: histograms (log2 buckets) ==")?;
            writeln!(
                f,
                "{:<32} {:>8} {:>10} {:>10}",
                "histogram", "count", "p50<", "max<"
            )?;
            for row in &self.histograms {
                writeln!(
                    f,
                    "{:<32} {:>8} {:>10} {:>10}",
                    row.histogram.name(),
                    row.count,
                    row.p50_bound,
                    row.max_bound
                )?;
            }
        }
        if self.dropped_events > 0 {
            writeln!(
                f,
                "\nwarning: {} trace events dropped (in-memory cap)",
                self.dropped_events
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_report_renders_hint() {
        let rep = ProfileReport {
            counters: vec![],
            histograms: vec![],
            spans: vec![],
            dropped_events: 0,
        };
        assert!(rep.is_empty());
        assert!(format!("{rep}").contains("no data"));
    }

    #[test]
    fn display_contains_rows() {
        let rep = ProfileReport {
            counters: vec![CounterRow {
                counter: Counter::PlannerCandidates,
                value: 42,
            }],
            histograms: vec![],
            spans: vec![SpanRow {
                name: "plan.layer",
                stats: SpanStats {
                    count: 3,
                    total_ns: 3_000_000,
                    min_ns: 900_000,
                    max_ns: 1_200_000,
                },
            }],
            dropped_events: 0,
        };
        let text = format!("{rep}");
        assert!(text.contains("plan.layer"));
        assert!(text.contains("planner.candidates"));
        assert!(text.contains("42"));
    }

    #[test]
    fn bucket_bounds() {
        assert_eq!(pow2_bucket_bound(0), 1);
        assert_eq!(pow2_bucket_bound(1), 2);
        assert_eq!(pow2_bucket_bound(10), 1024);
        // The median walk: the first bucket whose running count reaches
        // the rank.
        assert_eq!(rank_bucket([1, 0, 2, 1], 1), Some(0));
        assert_eq!(rank_bucket([1, 0, 2, 1], 2), Some(2));
        assert_eq!(rank_bucket([1, 0, 2, 1], 4), Some(3));
        assert_eq!(rank_bucket([1, 0, 2, 1], 5), None);
    }
}
