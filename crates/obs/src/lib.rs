//! Planner observability: counters, histograms, span timings, and a
//! Chrome trace-event exporter.
//!
//! Algorithm 1, the fallback tile search, the sweep matrix, and the
//! `smm-exec` replay are instrumented with this crate so a run can be
//! inspected instead of guessed at: how many candidates the planner
//! weighed per layer, where wall-clock time goes, which layers fell back
//! to the tile search, how many DMA commands a replay issued.
//!
//! # Design
//!
//! One process-global [`Collector`] sits behind an atomic `enabled`
//! flag. Instrumentation is compiled in unconditionally but is
//! **near-free when disabled**: every entry point checks one relaxed
//! atomic load and returns before any formatting, locking, or clock
//! read happens. Hot paths (the estimators, the benches) therefore pay
//! one predictable branch.
//!
//! - **Counters** — fixed registry ([`Counter`]), lock-free atomic adds.
//! - **Histograms** — power-of-two buckets ([`Histogram`]), atomic adds.
//! - **Spans** — scoped guards created by [`span!`]; on drop they fold
//!   the duration into per-name aggregates and, when trace events are
//!   on ([`set_trace_events`]), append one complete (`ph: "X"`) trace
//!   event. Trace events are off by default: only a run that exports a
//!   Chrome trace needs them, and a long-lived process (a planning
//!   server) would otherwise grow the event buffer without bound.
//! - **Export** — [`report`] renders the aggregate table,
//!   [`chrome_trace_json`] / [`write_chrome_trace`] emit Trace Event
//!   Format JSON that `chrome://tracing` and Perfetto open directly.
//!
//! # Example
//!
//! ```
//! smm_obs::reset();
//! smm_obs::set_enabled(true);
//! smm_obs::set_trace_events(true);
//! {
//!     let _g = smm_obs::span!("plan.layer", "conv{}", 1);
//!     smm_obs::add(smm_obs::Counter::PlannerCandidates, 12);
//! }
//! smm_obs::set_enabled(false);
//! smm_obs::set_trace_events(false);
//! let report = smm_obs::report();
//! assert_eq!(report.counter(smm_obs::Counter::PlannerCandidates), 12);
//! assert!(smm_obs::chrome_trace_json().contains("\"ph\":\"X\""));
//! ```

#![warn(missing_docs)]

pub mod json;
mod report;
mod trace;

pub use report::{CounterRow, HistogramRow, ProfileReport, SpanRow};
pub use trace::{chrome_trace_json, write_chrome_trace};

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// The fixed counter registry. Every counter has a stable dotted name
/// used in the profile report and the Chrome trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Counter {
    /// Candidate `(policy, prefetch)` estimates Algorithm 1 weighed.
    PlannerCandidates,
    /// Candidates rejected because the prefetch variant did not fit.
    PlannerPrefetchRejected,
    /// Layers planned (one per [`span!`]`("plan.layer")`).
    PlannerLayersPlanned,
    /// Calls into `smm_policy::estimate`.
    EstimatorCalls,
    /// Tile-search invocations of the Algorithm 1 fallback.
    FallbackSearches,
    /// Blockings evaluated across all fallback searches.
    FallbackIterations,
    /// Producer layers switched to a resident-ofmap policy by the
    /// inter-layer reuse pass.
    InterLayerSwitches,
    /// Transitions the inter-layer reuse pass enabled.
    InterLayerTransitions,
    /// Cells evaluated by `smm_core::sweep::plan_matrix`.
    SweepCells,
    /// DMA commands issued by the `smm-exec` replay engine.
    ReplayDmaCommands,
    /// Layers traced by the element-exact systolic baseline.
    BaselineLayersTraced,
    /// Plan-cache lookups that found a cached plan.
    PlanCacheHits,
    /// Plan-cache lookups that missed.
    PlanCacheMisses,
    /// Plans evicted from the cache to make room.
    PlanCacheEvictions,
    /// Planning requests accepted by the serving layer.
    ServeRequests,
    /// Requests shed because the work queue was full.
    ServeShed,
    /// Of the shed requests, those shed by the *adaptive* admission
    /// controller (EWMA-tightened cap or predicted deadline overrun)
    /// rather than by the static queue capacity.
    ServeShedAdaptive,
    /// High-water mark of the planning queue depth (recorded via
    /// [`record_max`], so the counter equals the peak, not a sum).
    ServeQueueDepthPeak,
    /// High-water mark of the EWMA service-latency estimate in
    /// microseconds (recorded via [`record_max`]).
    ServeEwmaLatencyUs,
    /// Plan requests answered inline on the reactor from the plan
    /// cache, without touching the worker queue.
    ServeInlineHits,
    /// Requests that missed their deadline.
    ServeDeadlineExceeded,
    /// Plans verified by `smm-check`.
    CheckRuns,
    /// Diagnostics emitted across all `smm-check` runs.
    CheckDiagnostics,
    /// Plans the serving layer rejected because verification failed.
    ServeVerifyFailed,
    /// Layer-selection lookups answered from the shape-keyed memo.
    LayerMemoHits,
    /// Layer-selection lookups that had to run Algorithm 1's inner loop.
    LayerMemoMisses,
    /// Discrete-event simulator events processed (one per DMA command).
    SimEvents,
    /// Simulated cycles the compute array spent stalled on DMA.
    SimStallCycles,
    /// Simulated DMA transfers that were dropped and re-issued.
    SimDmaRetries,
    /// Simulated cycles where GLB occupancy exceeded capacity.
    SimOccupancyViolations,
    /// DP transitions evaluated by the global inter-layer scheduler.
    GlobalDpTransitions,
    /// Global-scheduler runs that fell back to the greedy plan.
    GlobalFallbacks,
    /// Plan requests the fleet router forwarded to a backend.
    FleetRouted,
    /// Forward attempts retried on the next ring replica.
    FleetRetries,
    /// Requests the router shed because no healthy replica answered.
    FleetShed,
    /// Backends ejected after consecutive forward failures.
    FleetEjections,
    /// Ejected backends re-admitted by a successful health probe.
    FleetReadmissions,
    /// Cached plans migrated between nodes during membership changes.
    FleetMigratedPlans,
    /// Plan bytes moved by warm-cache handoff.
    FleetMigratedBytes,
    /// Command streams analyzed by the `smm-lint` static linter.
    LintPrograms,
    /// Diagnostics emitted across all `smm-lint` runs.
    LintDiagnostics,
    /// Redundant-transfer elements (refetches of resident bytes) the
    /// linter flagged as reclaimable traffic.
    LintRedundantElems,
    /// Classified-request events emitted into the serve stream taps.
    StreamEvents,
    /// Stream events dropped because a shard's tap ring was full.
    StreamDropped,
    /// Stream events that arrived later than the allowed lateness and
    /// were excluded from windowing.
    StreamLate,
    /// Windows closed by the stream collector's watermark.
    StreamWindowsClosed,
    /// Of the shed requests, those shed because the predicted miss cost
    /// could not meet the request's deadline.
    ServeShedPredicted,
    /// Pre-warm planning attempts started by the stream controller.
    ServePrewarmAttempts,
    /// Pre-warmed plans inserted into the cache before a request
    /// missed on them.
    ServePrewarmInserted,
    /// Pre-warm candidates skipped because the plan was already cached
    /// by the time the controller got to them.
    ServePrewarmSkipped,
}

impl Counter {
    /// Every counter, in report order.
    pub const ALL: [Counter; 50] = [
        Counter::PlannerCandidates,
        Counter::PlannerPrefetchRejected,
        Counter::PlannerLayersPlanned,
        Counter::EstimatorCalls,
        Counter::FallbackSearches,
        Counter::FallbackIterations,
        Counter::InterLayerSwitches,
        Counter::InterLayerTransitions,
        Counter::SweepCells,
        Counter::ReplayDmaCommands,
        Counter::BaselineLayersTraced,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::PlanCacheEvictions,
        Counter::ServeRequests,
        Counter::ServeShed,
        Counter::ServeShedAdaptive,
        Counter::ServeQueueDepthPeak,
        Counter::ServeEwmaLatencyUs,
        Counter::ServeInlineHits,
        Counter::ServeDeadlineExceeded,
        Counter::CheckRuns,
        Counter::CheckDiagnostics,
        Counter::ServeVerifyFailed,
        Counter::LayerMemoHits,
        Counter::LayerMemoMisses,
        Counter::SimEvents,
        Counter::SimStallCycles,
        Counter::SimDmaRetries,
        Counter::SimOccupancyViolations,
        Counter::GlobalDpTransitions,
        Counter::GlobalFallbacks,
        Counter::FleetRouted,
        Counter::FleetRetries,
        Counter::FleetShed,
        Counter::FleetEjections,
        Counter::FleetReadmissions,
        Counter::FleetMigratedPlans,
        Counter::FleetMigratedBytes,
        Counter::LintPrograms,
        Counter::LintDiagnostics,
        Counter::LintRedundantElems,
        Counter::StreamEvents,
        Counter::StreamDropped,
        Counter::StreamLate,
        Counter::StreamWindowsClosed,
        Counter::ServeShedPredicted,
        Counter::ServePrewarmAttempts,
        Counter::ServePrewarmInserted,
        Counter::ServePrewarmSkipped,
    ];

    /// Stable dotted name (report rows, Chrome counter events).
    pub fn name(&self) -> &'static str {
        match self {
            Counter::PlannerCandidates => "planner.candidates",
            Counter::PlannerPrefetchRejected => "planner.prefetch_rejected",
            Counter::PlannerLayersPlanned => "planner.layers_planned",
            Counter::EstimatorCalls => "estimator.calls",
            Counter::FallbackSearches => "fallback.searches",
            Counter::FallbackIterations => "fallback.iterations",
            Counter::InterLayerSwitches => "interlayer.switches",
            Counter::InterLayerTransitions => "interlayer.transitions",
            Counter::SweepCells => "sweep.cells",
            Counter::ReplayDmaCommands => "replay.dma_commands",
            Counter::BaselineLayersTraced => "baseline.layers_traced",
            Counter::PlanCacheHits => "plan_cache.hits",
            Counter::PlanCacheMisses => "plan_cache.misses",
            Counter::PlanCacheEvictions => "plan_cache.evictions",
            Counter::ServeRequests => "serve.requests",
            Counter::ServeShed => "serve.shed",
            Counter::ServeShedAdaptive => "serve.shed_adaptive",
            Counter::ServeQueueDepthPeak => "serve.queue_depth_peak",
            Counter::ServeEwmaLatencyUs => "serve.ewma_latency_us",
            Counter::ServeInlineHits => "serve.inline_hits",
            Counter::ServeDeadlineExceeded => "serve.deadline_exceeded",
            Counter::CheckRuns => "check.runs",
            Counter::CheckDiagnostics => "check.diagnostics",
            Counter::ServeVerifyFailed => "serve.verify_failed",
            Counter::LayerMemoHits => "planner.memo_hits",
            Counter::LayerMemoMisses => "planner.memo_misses",
            Counter::SimEvents => "sim.events",
            Counter::SimStallCycles => "sim.stall_cycles",
            Counter::SimDmaRetries => "sim.dma_retries",
            Counter::SimOccupancyViolations => "sim.occupancy_violations",
            Counter::GlobalDpTransitions => "global.dp_transitions",
            Counter::GlobalFallbacks => "global.fallbacks",
            Counter::FleetRouted => "fleet.routed",
            Counter::FleetRetries => "fleet.retries",
            Counter::FleetShed => "fleet.shed",
            Counter::FleetEjections => "fleet.ejections",
            Counter::FleetReadmissions => "fleet.readmissions",
            Counter::FleetMigratedPlans => "fleet.migrated_plans",
            Counter::FleetMigratedBytes => "fleet.migrated_bytes",
            Counter::LintPrograms => "lint.programs",
            Counter::LintDiagnostics => "lint.diagnostics",
            Counter::LintRedundantElems => "lint.redundant_elems",
            Counter::StreamEvents => "stream.events",
            Counter::StreamDropped => "stream.dropped",
            Counter::StreamLate => "stream.late",
            Counter::StreamWindowsClosed => "stream.windows_closed",
            Counter::ServeShedPredicted => "serve.shed_predicted",
            Counter::ServePrewarmAttempts => "serve.prewarm_attempts",
            Counter::ServePrewarmInserted => "serve.prewarm_inserted",
            Counter::ServePrewarmSkipped => "serve.prewarm_skipped",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The fixed histogram registry (power-of-two buckets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Histogram {
    /// Candidates weighed per planned layer.
    CandidatesPerLayer,
    /// Blockings evaluated per fallback search.
    FallbackIterationsPerSearch,
    /// DMA commands per replayed layer schedule.
    DmaCommandsPerReplay,
}

impl Histogram {
    /// Every histogram, in report order.
    pub const ALL: [Histogram; 3] = [
        Histogram::CandidatesPerLayer,
        Histogram::FallbackIterationsPerSearch,
        Histogram::DmaCommandsPerReplay,
    ];

    /// Stable dotted name.
    pub fn name(&self) -> &'static str {
        match self {
            Histogram::CandidatesPerLayer => "planner.candidates_per_layer",
            Histogram::FallbackIterationsPerSearch => "fallback.iterations_per_search",
            Histogram::DmaCommandsPerReplay => "replay.dma_commands_per_layer",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

const NUM_COUNTERS: usize = Counter::ALL.len();
const NUM_HISTOGRAMS: usize = Histogram::ALL.len();
/// log2 buckets: bucket `i` counts values in `[2^(i-1), 2^i)`, bucket 0
/// counts zeros and ones.
const HIST_BUCKETS: usize = 33;
/// Trace events are capped so a pathological run cannot exhaust memory;
/// the report notes how many were dropped.
const MAX_TRACE_EVENTS: usize = 1 << 20;

/// Aggregated timing for one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Completed spans under this name.
    pub count: u64,
    /// Total wall-clock nanoseconds.
    pub total_ns: u64,
    /// Shortest single span, ns.
    pub min_ns: u64,
    /// Longest single span, ns.
    pub max_ns: u64,
}

/// One finished span, as exported to the Chrome trace.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (`"plan.layer"`, …).
    pub name: &'static str,
    /// Optional human detail (layer name, cell label, …).
    pub detail: Option<String>,
    /// Small integer id of the emitting thread.
    pub tid: u64,
    /// Start, microseconds since [`reset`] (or first use).
    pub ts_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// The process-global collector. Use the free functions ([`add`],
/// [`span!`], [`report`], …) rather than constructing one.
pub struct Collector {
    counters: [AtomicU64; NUM_COUNTERS],
    histograms: [[AtomicU64; HIST_BUCKETS]; NUM_HISTOGRAMS],
    spans: Mutex<BTreeMap<&'static str, SpanStats>>,
    events: Mutex<Vec<TraceEvent>>,
    dropped_events: AtomicU64,
    epoch: Mutex<Instant>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_EVENTS: AtomicBool = AtomicBool::new(false);
static COLLECTOR: OnceLock<Collector> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

#[allow(clippy::declare_interior_mutable_const)]
const ZERO: AtomicU64 = AtomicU64::new(0);

fn collector() -> &'static Collector {
    COLLECTOR.get_or_init(|| Collector {
        counters: [ZERO; NUM_COUNTERS],
        histograms: std::array::from_fn(|_| [ZERO; HIST_BUCKETS]),
        spans: Mutex::new(BTreeMap::new()),
        events: Mutex::new(Vec::new()),
        dropped_events: AtomicU64::new(0),
        epoch: Mutex::new(Instant::now()),
    })
}

/// Is collection currently enabled? One relaxed load — this is the
/// fast-path check every instrumentation site performs first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turn collection on or off. Enabling does not clear prior data; call
/// [`reset`] for a fresh run.
pub fn set_enabled(on: bool) {
    if on {
        collector(); // materialize before the first hot-path hit
    }
    // Release (not SeqCst: nothing orders this flag against other
    // atomics) so a thread that observes `on == true` also observes the
    // materialized collector; the counters themselves are atomics, so
    // the Relaxed fast-path load in `enabled` costs nothing and at
    // worst misses a few events around the toggle instant.
    ENABLED.store(on, Ordering::Release);
}

/// Are finished spans recorded as trace events? Checked only when
/// collection is [`enabled`].
#[inline]
pub fn trace_events() -> bool {
    TRACE_EVENTS.load(Ordering::Relaxed)
}

/// Turn trace-event recording on or off (off by default). With it on,
/// every span finished while collection is [`enabled`] also keeps one
/// event, with its detail string, for [`chrome_trace_json`] /
/// [`write_chrome_trace`]; with it off spans still feed the aggregates
/// of [`report`], and detail strings are never built.
pub fn set_trace_events(on: bool) {
    TRACE_EVENTS.store(on, Ordering::Relaxed);
}

/// Clear all counters, histograms, span aggregates and trace events,
/// and restart the trace clock.
pub fn reset() {
    let c = collector();
    for a in &c.counters {
        a.store(0, Ordering::Relaxed);
    }
    for h in &c.histograms {
        for b in h {
            b.store(0, Ordering::Relaxed);
        }
    }
    c.spans.lock().clear();
    c.events.lock().clear();
    c.dropped_events.store(0, Ordering::Relaxed);
    *c.epoch.lock() = Instant::now();
}

/// Add `n` to a counter. No-op (one branch) when disabled.
#[inline]
pub fn add(counter: Counter, n: u64) {
    if !enabled() {
        return;
    }
    collector().counters[counter.index()].fetch_add(n, Ordering::Relaxed);
}

/// Raise a counter to `value` if it is currently lower (monotone
/// high-water mark). Gauge-style metrics (queue-depth peak, EWMA
/// estimate) use this so the counter reads as the peak rather than a
/// meaningless sum. No-op when disabled.
#[inline]
pub fn record_max(counter: Counter, value: u64) {
    if !enabled() {
        return;
    }
    collector().counters[counter.index()].fetch_max(value, Ordering::Relaxed);
}

/// Record one observation into a histogram. No-op when disabled.
#[inline]
pub fn observe(hist: Histogram, value: u64) {
    if !enabled() {
        return;
    }
    let bucket = (64 - value.leading_zeros()) as usize; // 0 → 0, 1 → 1, 2..3 → 2, …
    let bucket = bucket.min(HIST_BUCKETS - 1);
    collector().histograms[hist.index()][bucket].fetch_add(1, Ordering::Relaxed);
}

/// Current total of a counter (0 before first use).
pub fn counter_value(counter: Counter) -> u64 {
    match COLLECTOR.get() {
        Some(c) => c.counters[counter.index()].load(Ordering::Relaxed),
        None => 0,
    }
}

/// A point-in-time copy of every counter. Long-lived processes (the
/// planning server) scope per-request metrics by capturing a snapshot
/// before and after the work and reporting the [`delta`](Self::delta) —
/// the process-global totals keep growing, but the delta only contains
/// what happened in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    values: [u64; NUM_COUNTERS],
}

impl CounterSnapshot {
    /// Capture the current value of every counter.
    pub fn capture() -> Self {
        let mut values = [0u64; NUM_COUNTERS];
        if let Some(c) = COLLECTOR.get() {
            for (v, a) in values.iter_mut().zip(&c.counters) {
                *v = a.load(Ordering::Relaxed);
            }
        }
        CounterSnapshot { values }
    }

    /// Value of one counter at capture time.
    pub fn counter(&self, counter: Counter) -> u64 {
        self.values[counter.index()]
    }

    /// Per-counter difference `later - self` (saturating, so a [`reset`]
    /// between the two snapshots yields zeros rather than wrapping).
    pub fn delta(&self, later: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; NUM_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = later.values[i].saturating_sub(self.values[i]);
        }
        CounterSnapshot { values }
    }
}

/// Scoped timing guard; created by [`span()`] / [`span!`], records on
/// drop. Inactive guards (collection disabled at creation) do nothing.
pub struct SpanGuard {
    name: &'static str,
    detail: Option<String>,
    start: Option<Instant>,
}

impl SpanGuard {
    fn inactive(name: &'static str) -> Self {
        SpanGuard {
            name,
            detail: None,
            start: None,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let dur = start.elapsed();
        let c = collector();
        let dur_ns = dur.as_nanos().min(u64::MAX as u128) as u64;
        {
            let mut spans = c.spans.lock();
            let s = spans.entry(self.name).or_default();
            s.count += 1;
            s.total_ns = s.total_ns.saturating_add(dur_ns);
            s.min_ns = if s.count == 1 {
                dur_ns
            } else {
                s.min_ns.min(dur_ns)
            };
            s.max_ns = s.max_ns.max(dur_ns);
        }
        if !trace_events() {
            return;
        }
        let ts_us = {
            let epoch = *c.epoch.lock();
            start
                .saturating_duration_since(epoch)
                .as_micros()
                .min(u64::MAX as u128) as u64
        };
        let mut events = c.events.lock();
        if events.len() < MAX_TRACE_EVENTS {
            events.push(TraceEvent {
                name: self.name,
                detail: self.detail.take(),
                tid: TID.with(|t| *t),
                ts_us,
                dur_us: dur.as_micros().min(u64::MAX as u128) as u64,
            });
        } else {
            c.dropped_events.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Open a span with no detail string. Prefer the [`span!`] macro.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive(name);
    }
    SpanGuard {
        name,
        detail: None,
        start: Some(Instant::now()),
    }
}

/// Open a span whose detail string is built lazily — `detail` runs only
/// when collection and trace events are both on, since only a trace
/// event carries it. Prefer the [`span!`] macro.
#[inline]
pub fn span_detailed(name: &'static str, detail: impl FnOnce() -> String) -> SpanGuard {
    if !enabled() {
        return SpanGuard::inactive(name);
    }
    SpanGuard {
        name,
        detail: trace_events().then(detail),
        start: Some(Instant::now()),
    }
}

/// Open a scoped timing span. Bind the guard (`let _g = …`) so it drops
/// at scope end.
///
/// ```
/// let _g = smm_obs::span!("plan.layer");
/// let _h = smm_obs::span!("plan.layer", "{}@{}kB", "conv1", 64);
/// ```
///
/// The format arguments are evaluated only when collection and trace
/// events are both on.
#[macro_export]
macro_rules! span {
    ($name:literal) => {
        $crate::span($name)
    };
    ($name:literal, $($fmt:tt)+) => {
        $crate::span_detailed($name, || format!($($fmt)+))
    };
}

/// Snapshot all aggregates into a [`ProfileReport`].
pub fn report() -> ProfileReport {
    report::build(collector())
}

pub(crate) fn snapshot_events() -> (Vec<TraceEvent>, u64) {
    let c = collector();
    (
        c.events.lock().clone(),
        c.dropped_events.load(Ordering::Relaxed),
    )
}

impl Collector {
    pub(crate) fn counter_load(&self, i: usize) -> u64 {
        self.counters[i].load(Ordering::Relaxed)
    }

    pub(crate) fn histogram_load(&self, i: usize) -> [u64; HIST_BUCKETS] {
        let mut out = [0u64; HIST_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.histograms[i]) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    pub(crate) fn span_snapshot(&self) -> BTreeMap<&'static str, SpanStats> {
        self.spans.lock().clone()
    }
}

/// Serializes tests that mutate the process-global collector. Only
/// compiled for tests; shared with the `trace` module's tests.
#[cfg(test)]
pub(crate) fn test_lock() -> parking_lot::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock()
}

#[cfg(test)]
mod tests {
    use super::*;

    // The collector is process-global; each test takes `test_lock()` so
    // parallel test threads cannot interleave enable/reset cycles.

    #[test]
    fn disabled_is_a_no_op() {
        let _l = test_lock();
        reset();
        set_enabled(false);
        add(Counter::SweepCells, 5);
        let g = span!("test.disabled");
        drop(g);
        assert_eq!(counter_value(Counter::SweepCells), 0);
        assert!(!report().spans.iter().any(|s| s.name == "test.disabled"));
    }

    #[test]
    fn counters_and_spans_accumulate() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        add(Counter::BaselineLayersTraced, 2);
        add(Counter::BaselineLayersTraced, 3);
        {
            let _g = span!("test.span", "layer {}", 7);
        }
        set_enabled(false);
        assert_eq!(counter_value(Counter::BaselineLayersTraced), 5);
        let rep = report();
        let row = rep.spans.iter().find(|s| s.name == "test.span").unwrap();
        assert_eq!(row.stats.count, 1);
        assert!(row.stats.max_ns >= row.stats.min_ns);
        reset();
    }

    #[test]
    fn histogram_buckets_are_log2() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        for v in [0, 1, 2, 3, 4, 1000] {
            observe(Histogram::CandidatesPerLayer, v);
        }
        set_enabled(false);
        let h = collector().histogram_load(Histogram::CandidatesPerLayer.index());
        assert_eq!(h[0], 1); // 0
        assert_eq!(h[1], 1); // 1
        assert_eq!(h[2], 2); // 2, 3
        assert_eq!(h[3], 1); // 4
        assert_eq!(h[10], 1); // 1000 ∈ [512, 1024)
        assert_eq!(h.iter().sum::<u64>(), 6);
        reset();
    }

    #[test]
    fn lazy_detail_not_built_when_disabled() {
        let _l = test_lock();
        set_enabled(false);
        let _g = span_detailed("test.lazy", || panic!("must not run"));
    }

    /// Without trace events, spans still aggregate but keep no event
    /// and never build their detail string.
    #[test]
    fn spans_keep_no_events_unless_trace_events_are_on() {
        let _l = test_lock();
        reset();
        set_enabled(true);
        for _ in 0..3 {
            let _g = span_detailed("test.untraced", || panic!("detail must not be built"));
        }
        set_trace_events(true);
        {
            let _g = span!("test.traced", "detail {}", 1);
        }
        set_trace_events(false);
        set_enabled(false);
        let rep = report();
        let row = rep
            .spans
            .iter()
            .find(|s| s.name == "test.untraced")
            .unwrap();
        assert_eq!(row.stats.count, 3);
        let (events, dropped) = snapshot_events();
        assert_eq!(dropped, 0);
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].name, "test.traced");
        assert_eq!(events[0].detail.as_deref(), Some("detail 1"));
        reset();
    }

    /// Regression test for per-request metric scoping: a second
    /// "request"'s snapshot delta must not include the first request's
    /// counters, even though the global totals keep accumulating.
    #[test]
    fn snapshot_deltas_scope_requests() {
        let _l = test_lock();
        reset();
        set_enabled(true);

        // Request 1 plans 30 candidates.
        let before1 = CounterSnapshot::capture();
        add(Counter::PlannerCandidates, 30);
        add(Counter::PlanCacheMisses, 1);
        let after1 = CounterSnapshot::capture();

        // Request 2 plans 12.
        let before2 = CounterSnapshot::capture();
        add(Counter::PlannerCandidates, 12);
        add(Counter::PlanCacheHits, 1);
        let after2 = CounterSnapshot::capture();
        set_enabled(false);

        let d1 = before1.delta(&after1);
        let d2 = before2.delta(&after2);
        assert_eq!(d1.counter(Counter::PlannerCandidates), 30);
        assert_eq!(d2.counter(Counter::PlannerCandidates), 12);
        assert_eq!(d2.counter(Counter::PlanCacheMisses), 0);
        assert_eq!(d2.counter(Counter::PlanCacheHits), 1);
        // The global total still holds both requests.
        assert_eq!(counter_value(Counter::PlannerCandidates), 42);
        // A reset between snapshots saturates to zero instead of wrapping.
        let before3 = CounterSnapshot::capture();
        reset();
        let after3 = CounterSnapshot::capture();
        assert_eq!(
            before3.delta(&after3).counter(Counter::PlannerCandidates),
            0
        );
    }
}
