//! Watermark-driven tumbling and sliding windows.
//!
//! # Semantics
//!
//! Windows are intervals `[s, s + width)` in **event time** (the
//! microsecond timestamps carried by [`StreamEvent`]), with starts at
//! multiples of `slide_us`; `width_us` must be a multiple of
//! `slide_us`, so a window is a run of `width / slide` **panes** of
//! `slide_us` each. `slide == width` gives tumbling windows, `slide <
//! width` overlapping sliding windows. The engine opens at the first
//! event it sees: windows before that event's pane are never created.
//!
//! The **watermark** is the engine's claim that no event older than it
//! will still arrive: `watermark = max(observed event time, injected
//! processing time) - lateness_us`. A window closes — its aggregate is
//! emitted, exactly once, in start order — when the watermark passes
//! its end. Events older than the oldest open window are **late**:
//! counted and dropped, never retro-applied to an emitted window (the
//! aggregates a closed window reported are final).
//!
//! Out-of-order events *within* the allowed lateness land in the right
//! pane and are indistinguishable from in-order arrival, which is the
//! property the brute-force-replay proptest in `tests/` pins down.
//!
//! Aggregation is per **cell** (see [`crate::CellRegistry`]): arrival
//! counts, the hit/miss/shed/deadline/error outcome mix, and service
//! latency as sum/max plus a power-of-two histogram for quantiles.

use crate::event::{EventKind, StreamEvent};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;

/// Number of power-of-two latency buckets, bucketed by
/// [`smm_obs::pow2_bucket`]: bucket 0 holds `0`, bucket `i >= 1` holds
/// `[2^(i-1), 2^i)` microseconds, and the last bucket takes everything
/// from 2^24 µs (≈ 16.8 s) up.
pub const LAT_BUCKETS: usize = 26;

/// Window geometry and lateness tolerance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    /// Window width in microseconds.
    pub width_us: u64,
    /// Slide between window starts; `== width_us` for tumbling
    /// windows. Must divide `width_us`.
    pub slide_us: u64,
    /// Allowed lateness: the watermark trails the newest observed
    /// timestamp by this much, so out-of-order events up to this far
    /// behind still land in open windows.
    pub lateness_us: u64,
    /// Emit windows that contain no events (useful for gap-free
    /// charts; the serving layer leaves this off).
    pub emit_empty: bool,
}

impl WindowConfig {
    /// A tumbling-window config with the given width and lateness.
    pub fn tumbling(width_us: u64, lateness_us: u64) -> Self {
        WindowConfig {
            width_us,
            slide_us: width_us,
            lateness_us,
            emit_empty: false,
        }
    }

    /// A sliding-window config.
    pub fn sliding(width_us: u64, slide_us: u64, lateness_us: u64) -> Self {
        WindowConfig {
            width_us,
            slide_us,
            lateness_us,
            emit_empty: false,
        }
    }

    fn validate(&self) -> Result<(), String> {
        if self.slide_us == 0 || self.width_us == 0 {
            return Err("window width and slide must be positive".into());
        }
        if self.width_us % self.slide_us != 0 {
            return Err(format!(
                "window width {}us must be a multiple of the slide {}us",
                self.width_us, self.slide_us
            ));
        }
        Ok(())
    }
}

/// Per-cell aggregate over one window (or one pane, internally).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CellAgg {
    /// Total events (every outcome).
    pub events: u64,
    /// Cache hits answered inline on the reactor.
    pub hit_inline: u64,
    /// Cache hits discovered by a worker.
    pub hit_worker: u64,
    /// Planned-from-scratch misses.
    pub misses: u64,
    /// Sheds by the static queue bound.
    pub shed_static: u64,
    /// Sheds by the adaptive controller.
    pub shed_adaptive: u64,
    /// Sheds by predicted-miss-cost admission.
    pub shed_predicted: u64,
    /// Deadline expirations.
    pub deadline: u64,
    /// Errors (parse/resolve/plan/verify).
    pub errors: u64,
    /// Sum of observed service latencies (hits and misses only), µs.
    pub service_sum_us: u64,
    /// Largest observed service latency, µs.
    pub service_max_us: u64,
    /// Number of latency observations behind the sum/max/histogram.
    pub service_count: u64,
    /// Power-of-two latency histogram; see [`LAT_BUCKETS`].
    pub lat_buckets: [u32; LAT_BUCKETS],
}

impl CellAgg {
    /// Fold one event into the aggregate.
    pub fn observe(&mut self, ev: &StreamEvent) {
        self.events += 1;
        let served = match ev.kind {
            EventKind::HitInline => {
                self.hit_inline += 1;
                true
            }
            EventKind::HitWorker => {
                self.hit_worker += 1;
                true
            }
            EventKind::Miss => {
                self.misses += 1;
                true
            }
            EventKind::ShedStatic => {
                self.shed_static += 1;
                false
            }
            EventKind::ShedAdaptive => {
                self.shed_adaptive += 1;
                false
            }
            EventKind::ShedPredicted => {
                self.shed_predicted += 1;
                false
            }
            EventKind::Deadline => {
                self.deadline += 1;
                false
            }
            EventKind::Error => {
                self.errors += 1;
                false
            }
        };
        if served {
            self.service_sum_us += u64::from(ev.service_us);
            self.service_max_us = self.service_max_us.max(u64::from(ev.service_us));
            self.service_count += 1;
            self.lat_buckets[smm_obs::pow2_bucket(u64::from(ev.service_us), LAT_BUCKETS)] += 1;
        }
    }

    /// Merge another aggregate into this one (pane → window roll-up,
    /// fleet-level aggregation).
    pub fn merge(&mut self, other: &CellAgg) {
        self.events += other.events;
        self.hit_inline += other.hit_inline;
        self.hit_worker += other.hit_worker;
        self.misses += other.misses;
        self.shed_static += other.shed_static;
        self.shed_adaptive += other.shed_adaptive;
        self.shed_predicted += other.shed_predicted;
        self.deadline += other.deadline;
        self.errors += other.errors;
        self.service_sum_us += other.service_sum_us;
        self.service_max_us = self.service_max_us.max(other.service_max_us);
        self.service_count += other.service_count;
        for (a, b) in self.lat_buckets.iter_mut().zip(other.lat_buckets.iter()) {
            *a += b;
        }
    }

    /// Total cache hits (inline + worker).
    pub fn hits(&self) -> u64 {
        self.hit_inline + self.hit_worker
    }

    /// Total sheds (static + adaptive + predicted).
    pub fn shed(&self) -> u64 {
        self.shed_static + self.shed_adaptive + self.shed_predicted
    }

    /// Latency quantile estimate from the power-of-two histogram:
    /// the inclusive upper bound of the bucket containing the `q`-th
    /// observation (`q` in `[0, 1]`), or 0 with no observations.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.service_count == 0 {
            return 0;
        }
        let rank = ((q * self.service_count as f64).ceil() as u64).clamp(1, self.service_count);
        smm_obs::rank_bucket(self.lat_buckets.iter().map(|&n| u64::from(n)), rank)
            .map_or(self.service_max_us, |i| smm_obs::pow2_bucket_bound(i) - 1)
    }
}

/// One pane (`slide_us` of event time): the unit of storage windows are
/// assembled from.
#[derive(Default)]
struct Pane {
    cells: HashMap<u32, CellAgg>,
}

/// A closed window's final aggregate.
#[derive(Debug, Clone)]
pub struct WindowSnapshot {
    /// Inclusive start of the window, µs of event time.
    pub start_us: u64,
    /// Exclusive end of the window.
    pub end_us: u64,
    /// Aggregate over every cell.
    pub total: CellAgg,
    /// Per-cell aggregates, busiest first (ties by cell id).
    pub cells: Vec<(u32, CellAgg)>,
}

/// Engine counters, exposed through `stats stream`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EngineStats {
    /// Events accepted into panes.
    pub events: u64,
    /// Events dropped as too late.
    pub late_events: u64,
    /// Windows emitted.
    pub windows_closed: u64,
    /// Current watermark, µs of event time.
    pub watermark_us: u64,
    /// Panes currently buffered.
    pub open_panes: usize,
}

/// The windowing engine: feed it events (and processing-time ticks via
/// [`advance_to`](Self::advance_to)), take closed windows out with
/// [`take_closed`](Self::take_closed).
pub struct WindowEngine {
    cfg: WindowConfig,
    /// Pane start → pane; keys are multiples of `slide_us`, all
    /// `>= next_close`.
    panes: BTreeMap<u64, Pane>,
    /// Start of the next window to close; meaningful once `origin` is.
    next_close: u64,
    /// First pane the engine opened at; `None` before any event.
    origin: Option<u64>,
    watermark_us: u64,
    events: u64,
    late_events: u64,
    windows_closed: u64,
    closed: VecDeque<WindowSnapshot>,
}

/// Closed windows the caller has not collected are capped at this many;
/// beyond it the oldest are dropped (the store, not the engine, is the
/// intended retention layer).
const MAX_PENDING_CLOSED: usize = 4096;

impl WindowEngine {
    /// Build an engine, validating the config.
    pub fn new(cfg: WindowConfig) -> Result<Self, String> {
        cfg.validate()?;
        Ok(WindowEngine {
            cfg,
            panes: BTreeMap::new(),
            next_close: 0,
            origin: None,
            watermark_us: 0,
            events: 0,
            late_events: 0,
            windows_closed: 0,
            closed: VecDeque::new(),
        })
    }

    /// The engine's config.
    pub fn config(&self) -> WindowConfig {
        self.cfg
    }

    fn align(&self, ts: u64) -> u64 {
        ts - ts % self.cfg.slide_us
    }

    /// Feed one event. Late events (older than the oldest open window)
    /// are counted and dropped; everything else lands in its pane.
    /// Windows whose end the watermark has passed are closed.
    pub fn push(&mut self, ev: &StreamEvent) {
        let pane_start = self.align(ev.ts_us);
        if self.origin.is_none() {
            self.origin = Some(pane_start);
            self.next_close = pane_start;
        }
        if pane_start < self.next_close {
            self.late_events += 1;
        } else {
            self.events += 1;
            self.panes
                .entry(pane_start)
                .or_default()
                .cells
                .entry(ev.cell)
                .or_default()
                .observe(ev);
        }
        self.advance_watermark(ev.ts_us);
    }

    /// Inject processing time: lets windows close during quiet periods
    /// (the collector calls this with wall-clock-derived time, which
    /// coincides with event time for an in-process tap).
    pub fn advance_to(&mut self, now_us: u64) {
        self.advance_watermark(now_us);
    }

    fn advance_watermark(&mut self, observed_us: u64) {
        let candidate = observed_us.saturating_sub(self.cfg.lateness_us);
        if candidate > self.watermark_us {
            self.watermark_us = candidate;
        }
        self.close_due();
    }

    fn close_due(&mut self) {
        if self.origin.is_none() {
            return;
        }
        let (width, slide) = (self.cfg.width_us, self.cfg.slide_us);
        while self.next_close.saturating_add(width) <= self.watermark_us {
            let start = self.next_close;
            let end = start.saturating_add(width);
            // Skip-ahead for runs of empty windows (suppressed output):
            // jump straight to the first window that can contain the
            // oldest buffered pane, or past everything closable. Only
            // *closable* windows may be skipped — an empty-but-open
            // window can still receive events within the lateness
            // bound, so `next_close` must never pass the watermark's
            // close frontier.
            if !self.cfg.emit_empty {
                // First start that is NOT yet closable; `wm >= width`
                // is implied by the loop condition.
                let first_open = self.align(self.watermark_us - width).saturating_add(slide);
                let jump = match self.panes.keys().next() {
                    Some(&p0) if p0 >= end => (p0 + slide).saturating_sub(width).min(first_open),
                    Some(_) => start,
                    None => first_open,
                };
                if jump > start {
                    self.next_close = jump;
                    continue;
                }
            }
            let mut total = CellAgg::default();
            let mut cells: HashMap<u32, CellAgg> = HashMap::new();
            for (_, pane) in self.panes.range(start..end) {
                for (&cell, agg) in &pane.cells {
                    total.merge(agg);
                    cells.entry(cell).or_default().merge(agg);
                }
            }
            self.next_close = start + slide;
            // Panes older than every still-open window are done.
            while let Some(entry) = self.panes.first_entry() {
                if *entry.key() < self.next_close {
                    entry.remove();
                } else {
                    break;
                }
            }
            if total.events == 0 && !self.cfg.emit_empty {
                continue;
            }
            let mut cells: Vec<(u32, CellAgg)> = cells.into_iter().collect();
            cells.sort_by(|a, b| b.1.events.cmp(&a.1.events).then(a.0.cmp(&b.0)));
            self.windows_closed += 1;
            if self.closed.len() == MAX_PENDING_CLOSED {
                self.closed.pop_front();
            }
            self.closed.push_back(WindowSnapshot {
                start_us: start,
                end_us: end,
                total,
                cells,
            });
        }
    }

    /// Take every window closed since the last call, oldest first.
    pub fn take_closed(&mut self) -> Vec<WindowSnapshot> {
        self.closed.drain(..).collect()
    }

    /// Engine counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            events: self.events,
            late_events: self.late_events,
            windows_closed: self.windows_closed,
            watermark_us: self.watermark_us,
            open_panes: self.panes.len(),
        }
    }
}

/// Bounded retention of closed windows, shared between the collector
/// (producer) and the `stats stream` / pre-warming consumers.
pub struct WindowStore {
    cap: usize,
    inner: Mutex<VecDeque<Arc<WindowSnapshot>>>,
}

impl WindowStore {
    /// A store retaining at most `cap` windows (oldest evicted first).
    pub fn new(cap: usize) -> Self {
        WindowStore {
            cap: cap.max(1),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Append a closed window.
    pub fn push(&self, snap: WindowSnapshot) {
        let mut inner = self.inner.lock();
        if inner.len() == self.cap {
            inner.pop_front();
        }
        inner.push_back(Arc::new(snap));
    }

    /// The most recently closed window.
    pub fn latest(&self) -> Option<Arc<WindowSnapshot>> {
        self.inner.lock().back().cloned()
    }

    /// Up to `n` most recent windows, newest first.
    pub fn recent(&self, n: usize) -> Vec<Arc<WindowSnapshot>> {
        self.inner.lock().iter().rev().take(n).cloned().collect()
    }

    /// Number of windows retained.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether no window has closed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-cell event totals and the event-time span they cover, over
    /// the `horizon` most recent windows — the ranking input for the
    /// pre-warming controller. Overlapping (sliding) windows would
    /// double-count here, so this is meant for the tumbling store.
    pub fn cell_activity(&self, horizon: usize) -> (HashMap<u32, CellAgg>, u64) {
        let mut by_cell: HashMap<u32, CellAgg> = HashMap::new();
        let mut span_us = 0u64;
        for snap in self.recent(horizon) {
            span_us += snap.end_us - snap.start_us;
            for (cell, agg) in &snap.cells {
                by_cell.entry(*cell).or_default().merge(agg);
            }
        }
        (by_cell, span_us)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ts_us: u64, cell: u32, kind: EventKind, service_us: u32) -> StreamEvent {
        StreamEvent {
            ts_us,
            cell,
            kind,
            service_us,
        }
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        assert!(WindowEngine::new(WindowConfig::tumbling(0, 0)).is_err());
        assert!(WindowEngine::new(WindowConfig::sliding(1000, 0, 0)).is_err());
        assert!(WindowEngine::new(WindowConfig::sliding(1000, 300, 0)).is_err());
        assert!(WindowEngine::new(WindowConfig::sliding(1000, 250, 0)).is_ok());
    }

    #[test]
    fn latency_buckets_and_quantiles() {
        let mut agg = CellAgg::default();
        for us in [0u32, 1, 1, 2, 100, 1000, 10_000] {
            agg.observe(&ev(0, 0, EventKind::Miss, us));
        }
        assert_eq!(agg.service_count, 7);
        assert_eq!(agg.service_max_us, 10_000);
        assert_eq!(agg.quantile_us(0.0), 0);
        // p50 → 4th of 7 observations → value 2 → bucket [2,4) → 3.
        assert_eq!(agg.quantile_us(0.5), 3);
        // p99 → 7th observation → 10_000 → bucket [8192,16384).
        assert_eq!(agg.quantile_us(0.99), 16_383);
        assert_eq!(CellAgg::default().quantile_us(0.99), 0);
    }

    #[test]
    fn tumbling_boundary_is_half_open() {
        let mut eng = WindowEngine::new(WindowConfig::tumbling(1000, 0)).unwrap();
        // 999 is in [0,1000); 1000 starts the next window.
        eng.push(&ev(999, 1, EventKind::Miss, 10));
        eng.push(&ev(1000, 1, EventKind::HitInline, 1));
        eng.advance_to(2000);
        let wins = eng.take_closed();
        assert_eq!(wins.len(), 2);
        assert_eq!((wins[0].start_us, wins[0].end_us), (0, 1000));
        assert_eq!(wins[0].total.misses, 1);
        assert_eq!(wins[0].total.hits(), 0);
        assert_eq!((wins[1].start_us, wins[1].end_us), (1000, 2000));
        assert_eq!(wins[1].total.hit_inline, 1);
    }

    #[test]
    fn sliding_windows_overlap_and_each_sees_the_event() {
        let mut eng = WindowEngine::new(WindowConfig::sliding(1000, 250, 0)).unwrap();
        eng.push(&ev(0, 7, EventKind::Miss, 5));
        eng.push(&ev(900, 7, EventKind::Miss, 5));
        eng.advance_to(3000);
        let wins = eng.take_closed();
        // Windows [0,1000) [250,1250) [500,1500) [750,1750) contain at
        // least one of the events; later ones are empty and suppressed.
        assert_eq!(wins.len(), 4);
        assert_eq!(wins[0].total.events, 2);
        for w in &wins[1..] {
            assert_eq!(w.total.events, 1, "{}..{}", w.start_us, w.end_us);
            assert_eq!(w.cells[0].0, 7);
        }
    }

    #[test]
    fn watermark_holds_windows_open_for_allowed_lateness() {
        let mut eng = WindowEngine::new(WindowConfig::tumbling(1000, 500)).unwrap();
        eng.push(&ev(100, 1, EventKind::Miss, 1));
        // Watermark = 1400 - 500 = 900 < 1000: window still open.
        eng.push(&ev(1400, 1, EventKind::Miss, 1));
        assert!(eng.take_closed().is_empty());
        // An out-of-order event within lateness lands in the open window.
        eng.push(&ev(800, 1, EventKind::HitInline, 1));
        // Watermark = 1501 - 500 > 1000 closes [0,1000) with both events.
        eng.push(&ev(1501, 1, EventKind::Miss, 1));
        let wins = eng.take_closed();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].total.events, 2);
        assert_eq!(wins[0].total.hit_inline, 1);
        assert_eq!(eng.stats().late_events, 0);
    }

    #[test]
    fn events_behind_the_watermark_are_dropped_and_counted() {
        let mut eng = WindowEngine::new(WindowConfig::tumbling(1000, 0)).unwrap();
        eng.push(&ev(100, 1, EventKind::Miss, 1));
        eng.push(&ev(2500, 1, EventKind::Miss, 1));
        // [0,1000) closed; an event for it is late.
        eng.push(&ev(900, 1, EventKind::Miss, 1));
        let stats = eng.stats();
        assert_eq!(stats.late_events, 1);
        assert_eq!(stats.events, 2);
        let wins = eng.take_closed();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].total.events, 1, "late event must not reopen it");
    }

    #[test]
    fn empty_windows_suppressed_by_default_emitted_on_request() {
        let run = |emit_empty: bool| {
            let mut cfg = WindowConfig::tumbling(1000, 0);
            cfg.emit_empty = emit_empty;
            let mut eng = WindowEngine::new(cfg).unwrap();
            eng.push(&ev(500, 1, EventKind::Miss, 1));
            eng.push(&ev(3500, 1, EventKind::Miss, 1));
            eng.advance_to(4000);
            eng.take_closed()
        };
        let suppressed = run(false);
        assert_eq!(suppressed.len(), 2);
        assert_eq!(suppressed[0].start_us, 0);
        assert_eq!(suppressed[1].start_us, 3000);
        let emitted = run(true);
        assert_eq!(emitted.len(), 4, "gap windows [1000,2000) and [2000,3000)");
        assert_eq!(emitted[1].total.events, 0);
        assert_eq!(emitted[2].total.events, 0);
    }

    #[test]
    fn engine_opens_at_the_first_event_not_at_time_zero() {
        let mut eng = WindowEngine::new(WindowConfig::tumbling(1000, 0)).unwrap();
        let t0 = 1_000_000_000; // far from zero: no million empty closes
        eng.push(&ev(t0 + 123, 1, EventKind::Miss, 1));
        eng.advance_to(t0 + 5000);
        let wins = eng.take_closed();
        assert_eq!(wins.len(), 1);
        assert_eq!(wins[0].start_us, t0);
        // An event from before the origin is late by definition.
        eng.push(&ev(42, 1, EventKind::Miss, 1));
        assert_eq!(eng.stats().late_events, 1);
    }

    #[test]
    fn idle_gap_skip_ahead_matches_slide_alignment() {
        // After a long quiet period the engine jumps instead of
        // iterating; the windows around the gap must still be exact.
        let mut eng = WindowEngine::new(WindowConfig::sliding(1000, 250, 0)).unwrap();
        eng.push(&ev(100, 1, EventKind::Miss, 1));
        eng.push(&ev(10_000_250, 2, EventKind::Miss, 1));
        eng.advance_to(10_002_000);
        let wins = eng.take_closed();
        // The engine opened at pane 0, so exactly one window holds the
        // first event; four sliding windows cover the second; the ~40k
        // windows in the gap are skipped, not iterated.
        assert!(wins.iter().all(|w| w.total.events == 1));
        let firsts = wins.iter().filter(|w| w.cells[0].0 == 1).count();
        let seconds = wins.iter().filter(|w| w.cells[0].0 == 2).count();
        assert_eq!(firsts, 1);
        assert_eq!(seconds, 4);
        // The windows holding the second event start where expected.
        let w2 = wins.iter().find(|w| w.cells[0].0 == 2).unwrap();
        assert_eq!(w2.start_us, 9_999_500);
    }

    #[test]
    fn store_retains_bounded_history_and_ranks_activity() {
        let store = WindowStore::new(2);
        for i in 0..3u64 {
            let mut total = CellAgg::default();
            let mut cell = CellAgg::default();
            for _ in 0..=i {
                let e = ev(i * 1000, 9, EventKind::Miss, 1);
                total.observe(&e);
                cell.observe(&e);
            }
            store.push(WindowSnapshot {
                start_us: i * 1000,
                end_us: (i + 1) * 1000,
                total,
                cells: vec![(9, cell)],
            });
        }
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().unwrap().start_us, 2000);
        let (by_cell, span) = store.cell_activity(10);
        assert_eq!(span, 2000, "only two windows retained");
        assert_eq!(by_cell[&9].events, 2 + 3);
    }
}
