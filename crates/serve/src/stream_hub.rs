//! The stream hub: taps, collector state, and the controller's books.
//!
//! This module is the serve side of `smm-stream` (`docs/STREAMING.md`).
//! Every classified request — inline hit, worker hit, miss, shed,
//! deadline, error — becomes one [`StreamEvent`] pushed into a
//! per-thread lane: one lane per reactor shard, one per planning
//! worker. A lane is a fixed-capacity `Vec` behind a mutex that only
//! its thread and the collector ever take. A background **collector**
//! thread swaps each lane's events out every [`COLLECT_INTERVAL`] and
//! feeds them into two watermark-driven [`WindowEngine`]s
//! (tumbling for rates and the pre-warm ranking, sliding for smooth
//! `smm top` views) and retains closed windows in bounded
//! [`WindowStore`]s.
//!
//! On top of the windows the hub keeps the two books the closed-loop
//! decisions read:
//!
//! - **seeds** — the last plan request seen per cell, so the pre-warm
//!   controller can re-plan a hot key that was evicted without waiting
//!   for the next client miss;
//! - **costs** — per-cell predicted miss cost: the analytic Eq.-1
//!   latency ([`mod@smm_core::predict`]) and the *measured* planning time
//!   (including any simulated `delay_ms`) as an [`Estimate`], fed by
//!   client misses only — background pre-warm plans are not booked.
//!   Admission reads the measured cost aged to now (shed a miss whose
//!   predicted cost cannot meet its deadline); ranking and views read
//!   both, the measured one un-aged.
//!
//! The hot-path cost of the tap is one registry intern (read lock +
//! hash on the common path) and one push under the lane's lock, which
//! the collector holds only for a swap; a full lane drops the event
//! and bumps a counter, so the tap never waits for the collector to
//! drain it.

use crate::admission::Estimate;
use crate::protocol::Request;
use parking_lot::{Mutex, RwLock};
use smm_stream::{
    CellAgg, CellRegistry, EngineStats, EventKind, StreamEvent, WindowConfig, WindowEngine,
    WindowStore,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the collector drains the lanes and advances the watermark.
pub const COLLECT_INTERVAL: Duration = Duration::from_millis(10);

/// Allowed event-time lateness: events may arrive out of order across
/// lanes by up to the drain interval per side, plus scheduling noise.
const LATENESS_US: u64 = 100_000;

/// Per-lane capacity (events). At 4096 a lane absorbs a full
/// collector interval of >400k req/s before dropping.
const LANE_CAP: usize = 4096;

/// Closed windows retained per store.
const STORE_CAP: usize = 256;

/// Cells rendered per window in the `stream` response.
const VIEW_CELLS: usize = 32;

/// Default analytic cost (µs) for ranking a cell whose plan was never
/// built: high enough that unknown-but-hot cells still get warmed.
const DEFAULT_COST_US: u64 = 1_000;

/// Per-cell predicted costs; see the module docs.
#[derive(Debug, Default)]
pub struct CellCost {
    /// Eq.-1 analytic execution latency of the cell's plan, µs.
    pub analytic_us: u64,
    /// Measured wall-clock cost of planning a miss for this cell
    /// (including simulated `delay_ms`), µs.
    pub miss: Estimate,
}

/// One emitting thread's events awaiting the collector.
struct Lane {
    /// Allocated once at [`LANE_CAP`]; never grows past it.
    events: Vec<StreamEvent>,
    /// Events refused because `events` was full, since the hub started.
    dropped: u64,
}

/// Shared stream state; see the module docs.
pub struct StreamHub {
    epoch: Instant,
    registry: CellRegistry,
    /// One lane per emitting thread (shards, then workers). Each mutex
    /// is taken by its own thread per event and by the collector once
    /// per pass.
    lanes: Vec<Mutex<Lane>>,
    tumbling_store: WindowStore,
    sliding_store: WindowStore,
    /// Collector-refreshed copy of the tumbling engine's counters.
    stats: Mutex<EngineStats>,
    /// Windows closed across both engines (mirrors the obs counter).
    windows_closed: AtomicU64,
    /// Total lane drops, collector-refreshed.
    dropped: AtomicU64,
    /// Last plan request seen per cell (the pre-warm seed).
    seeds: Mutex<HashMap<u32, Request>>,
    /// Per-cell predicted costs.
    costs: RwLock<HashMap<u32, CellCost>>,
    window_us: u64,
    slide_us: u64,
}

impl StreamHub {
    /// Build a hub with `lanes` lanes, one per emitting thread.
    pub fn new(lanes: usize, window_ms: u64, slide_ms: u64) -> Arc<Self> {
        // The engine requires width % slide == 0. Clamp the slide into
        // (0, window], honor it exactly, and round the width *down* to
        // a whole number of slide panes (at most slide-1 µs narrower
        // than requested) — guessing at a nearby divisor instead could
        // hand the engine an invalid config and panic the collector.
        let slide_us = slide_ms
            .max(1)
            .saturating_mul(1000)
            .min(window_ms.max(1).saturating_mul(1000));
        let window_us = (window_ms.max(1).saturating_mul(1000) / slide_us) * slide_us;
        Arc::new(StreamHub {
            epoch: Instant::now(),
            registry: CellRegistry::default(),
            lanes: (0..lanes)
                .map(|_| {
                    Mutex::new(Lane {
                        events: Vec::with_capacity(LANE_CAP),
                        dropped: 0,
                    })
                })
                .collect(),
            tumbling_store: WindowStore::new(STORE_CAP),
            sliding_store: WindowStore::new(STORE_CAP),
            stats: Mutex::new(EngineStats::default()),
            windows_closed: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            seeds: Mutex::new(HashMap::new()),
            costs: RwLock::new(HashMap::new()),
            window_us,
            slide_us,
        })
    }

    /// Microseconds since the hub's epoch (the event-time clock).
    pub fn now_us(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX)
    }

    /// Intern the traffic cell a request accounts under.
    pub fn cell_of(&self, req: &Request) -> u32 {
        let model = req
            .model
            .as_deref()
            .or(req.name.as_deref())
            .unwrap_or("inline");
        let tenant = req.tenant.as_deref().unwrap_or("-");
        self.registry.intern(model, req.glb_kb, tenant)
    }

    /// Emit one classified request into lane `lane`. A full lane drops
    /// the event (the collector mirrors the drop count).
    pub fn emit(&self, lane: usize, cell: u32, kind: EventKind, service_us: u64) {
        let event = StreamEvent {
            ts_us: self.now_us(),
            cell,
            kind,
            service_us: u32::try_from(service_us).unwrap_or(u32::MAX),
        };
        if let Some(lane) = self.lanes.get(lane) {
            let mut lane = lane.lock();
            if lane.events.len() < LANE_CAP {
                lane.events.push(event);
            } else {
                lane.dropped += 1;
            }
        }
    }

    /// Remember the request shape behind a cell so the pre-warm
    /// controller can re-plan it later. First writer wins; the shape of
    /// a cell's plan (model, GLB, knobs) is stable by construction of
    /// the cell key, so refreshing buys nothing.
    pub fn record_seed(&self, cell: u32, req: &Request) {
        let mut seeds = self.seeds.lock();
        seeds.entry(cell).or_insert_with(|| Request {
            id: None,
            deadline_ms: None,
            ..req.clone()
        });
    }

    /// The pre-warm seed for a cell, if one was recorded.
    pub fn seed(&self, cell: u32) -> Option<Request> {
        self.seeds.lock().get(&cell).cloned()
    }

    /// Book one client miss of a cell: its plan's analytic latency and
    /// the measured planning time, observed at tick `now`.
    pub fn record_cost(&self, cell: u32, analytic_us: u64, miss_service_us: u64, now: u32) {
        let mut costs = self.costs.write();
        let entry = costs.entry(cell).or_default();
        entry.analytic_us = analytic_us;
        entry.miss.observe(miss_service_us, now);
    }

    /// The measured miss cost of a cell aged to tick `now`, if a miss
    /// of it was ever booked.
    pub fn predicted_miss_us(&self, cell: u32, now: u32) -> Option<u64> {
        self.costs.read().get(&cell).map(|c| c.miss.at(now))
    }

    /// Rank pre-warm candidates over the last `horizon` tumbling
    /// windows: score = windowed arrivals × predicted cost, i.e. the
    /// expected planning time saved per window by keeping the cell
    /// warm. Returns up to `max` cell ids, best first.
    pub fn prewarm_candidates(&self, horizon: usize, max: usize) -> Vec<u32> {
        let (activity, _span_us) = self.tumbling_store.cell_activity(horizon);
        let costs = self.costs.read();
        let mut scored: Vec<(u128, u32)> = activity
            .iter()
            .map(|(&cell, agg)| {
                let cost = costs
                    .get(&cell)
                    .map_or(DEFAULT_COST_US, |c| c.miss.last().max(c.analytic_us));
                (u128::from(agg.events) * u128::from(cost.max(1)), cell)
            })
            .collect();
        drop(costs);
        scored.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        scored.into_iter().take(max).map(|(_, c)| c).collect()
    }

    /// The collector loop: swap every lane's events out and feed them
    /// into the two engines, advance the watermark by wall clock,
    /// retain closed windows, and mirror the stream counters into
    /// `smm-obs`. Runs until `shutdown` (with one final pass so tests
    /// observe every emitted event).
    pub fn run_collector(&self, shutdown: &AtomicBool) {
        let mut tumbling = WindowEngine::new(WindowConfig::tumbling(self.window_us, LATENESS_US))
            .expect("tumbling config is valid by construction");
        let mut sliding = WindowEngine::new(WindowConfig::sliding(
            self.window_us,
            self.slide_us,
            LATENESS_US,
        ))
        .expect("sliding config is valid by construction");
        let mut seen = (0u64, 0u64, 0u64, 0u64); // events, late, closed, dropped

        // Swapped with each lane in turn, so the emitters always find a
        // lane with room for LANE_CAP events.
        let mut spare: Vec<StreamEvent> = Vec::with_capacity(LANE_CAP);
        loop {
            // Acquire pairs with the server's Release store; read
            // before collecting so the post-signal pass still collects.
            let stop = shutdown.load(Ordering::Acquire);
            let mut dropped = 0u64;
            for lane in &self.lanes {
                {
                    let mut lane = lane.lock();
                    std::mem::swap(&mut lane.events, &mut spare);
                    dropped += lane.dropped;
                }
                for e in spare.drain(..) {
                    tumbling.push(&e);
                    sliding.push(&e);
                }
            }
            let now = self.now_us();
            tumbling.advance_to(now);
            sliding.advance_to(now);
            let mut closed_now = 0u64;
            for w in tumbling.take_closed() {
                self.tumbling_store.push(w);
                closed_now += 1;
            }
            for w in sliding.take_closed() {
                self.sliding_store.push(w);
                closed_now += 1;
            }
            let st = tumbling.stats();
            let closed_total = self.windows_closed.load(Ordering::Relaxed) + closed_now;
            smm_obs::add(smm_obs::Counter::StreamEvents, st.events - seen.0);
            smm_obs::add(smm_obs::Counter::StreamLate, st.late_events - seen.1);
            smm_obs::add(smm_obs::Counter::StreamWindowsClosed, closed_total - seen.2);
            smm_obs::add(smm_obs::Counter::StreamDropped, dropped - seen.3);
            seen = (st.events, st.late_events, closed_total, dropped);
            *self.stats.lock() = st;
            self.windows_closed.store(closed_total, Ordering::Relaxed);
            self.dropped.store(dropped, Ordering::Relaxed);
            if stop {
                break;
            }
            std::thread::sleep(COLLECT_INTERVAL);
        }
    }

    /// Render the `stream` response body: engine counters plus the
    /// most recent `limit` closed windows (newest first), each with up
    /// to `VIEW_CELLS` (32) cells sorted by event count.
    pub fn view_body(&self, limit: usize, sliding: bool) -> String {
        let store = if sliding {
            &self.sliding_store
        } else {
            &self.tumbling_store
        };
        let st = *self.stats.lock();
        let mut out = String::with_capacity(4096);
        let _ = write!(
            out,
            "\"kind\":\"{}\",\"window_ms\":{},\"slide_ms\":{},\"watermark_us\":{},\
             \"events\":{},\"late_events\":{},\"dropped\":{},\"windows_closed\":{},\
             \"cells_seen\":{},\"windows\":[",
            if sliding { "sliding" } else { "tumbling" },
            self.window_us / 1000,
            self.slide_us / 1000,
            st.watermark_us,
            st.events,
            st.late_events,
            self.dropped.load(Ordering::Relaxed),
            self.windows_closed.load(Ordering::Relaxed),
            self.registry.len(),
        );
        let costs = self.costs.read();
        for (i, snap) in store.recent(limit).iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"start_us\":{},\"end_us\":{},\"events\":{},\"cells\":[",
                snap.start_us, snap.end_us, snap.total.events
            );
            for (j, (cell, agg)) in snap.cells.iter().take(VIEW_CELLS).enumerate() {
                if j > 0 {
                    out.push(',');
                }
                self.render_cell(&mut out, *cell, agg, costs.get(cell));
            }
            out.push_str("]}");
        }
        out.push(']');
        out
    }

    fn render_cell(&self, out: &mut String, cell: u32, agg: &CellAgg, cost: Option<&CellCost>) {
        let (key, model, glb_kb, tenant) = match self.registry.meta(cell) {
            Some(m) => (m.display_key(), m.model.clone(), m.glb_kb, m.tenant.clone()),
            None => (
                format!("cell-{cell}"),
                format!("cell-{cell}"),
                0,
                "-".into(),
            ),
        };
        let mean_us = agg
            .service_sum_us
            .checked_div(agg.service_count)
            .unwrap_or(0);
        let _ = write!(
            out,
            "{{\"key\":\"{}\",\"model\":\"{}\",\"glb_kb\":{},\"tenant\":\"{}\",\
             \"events\":{},\"hit_inline\":{},\"hit_worker\":{},\"miss\":{},\
             \"shed_static\":{},\"shed_adaptive\":{},\"shed_predicted\":{},\
             \"deadline\":{},\"error\":{},\"mean_us\":{},\"p50_us\":{},\"p99_us\":{},\
             \"predicted_us\":{},\"predicted_miss_us\":{}}}",
            crate::protocol::json_escape(&key),
            crate::protocol::json_escape(&model),
            glb_kb,
            crate::protocol::json_escape(&tenant),
            agg.events,
            agg.hit_inline,
            agg.hit_worker,
            agg.misses,
            agg.shed_static,
            agg.shed_adaptive,
            agg.shed_predicted,
            agg.deadline,
            agg.errors,
            mean_us,
            agg.quantile_us(0.50),
            agg.quantile_us(0.99),
            cost.map_or(0, |c| c.analytic_us),
            cost.map_or(0, |c| c.miss.last()),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan_req(model: &str, glb_kb: u64, tenant: Option<&str>) -> Request {
        Request {
            model: Some(model.into()),
            glb_kb,
            tenant: tenant.map(String::from),
            ..Request::default()
        }
    }

    #[test]
    fn events_flow_through_the_collector_into_windows() {
        let hub = StreamHub::new(2, 50, 50);
        let shutdown = AtomicBool::new(false);
        let cell = hub.cell_of(&plan_req("resnet18", 64, None));
        for i in 0..40 {
            hub.emit(i % 2, cell, EventKind::HitInline, 120);
        }
        // One manual collector pass after the windows can close.
        std::thread::sleep(Duration::from_millis(200));
        shutdown.store(true, Ordering::Release);
        hub.run_collector(&shutdown);
        assert!(
            !hub.tumbling_store.is_empty(),
            "a 50ms window must have closed"
        );
        let latest = hub.tumbling_store.latest().unwrap();
        assert_eq!(latest.total.events, 40);
        assert_eq!(latest.cells.len(), 1);
        assert_eq!(latest.cells[0].0, cell);
        let body = hub.view_body(4, false);
        assert!(body.contains("\"key\":\"resnet18@64\""), "{body}");
        assert!(body.contains("\"hit_inline\":40"), "{body}");
        smm_obs::json::parse(&format!("{{{body}}}"))
            .unwrap_or_else(|e| panic!("view body must be valid JSON: {e}\n{body}"));
    }

    #[test]
    fn full_lane_counts_drops_until_the_collector_swaps_it() {
        const EXTRA: u64 = 7;
        let hub = StreamHub::new(2, 50, 50);
        let cell = hub.cell_of(&plan_req("resnet18", 64, None));
        for _ in 0..LANE_CAP as u64 + EXTRA {
            hub.emit(1, cell, EventKind::HitInline, 10);
        }
        let shutdown = AtomicBool::new(true);
        hub.run_collector(&shutdown);
        assert_eq!(hub.stats.lock().events, LANE_CAP as u64);
        assert_eq!(hub.dropped.load(Ordering::Relaxed), EXTRA);
        let body = hub.view_body(1, false);
        assert!(body.contains(&format!("\"dropped\":{EXTRA},")), "{body}");
        // The swapped-in lane has room again and drops stay cumulative
        // (each `run_collector` call starts with fresh engines).
        hub.emit(1, cell, EventKind::HitInline, 10);
        hub.run_collector(&shutdown);
        assert_eq!(hub.stats.lock().events, 1);
        assert_eq!(hub.dropped.load(Ordering::Relaxed), EXTRA);
    }

    #[test]
    fn seeds_record_first_shape_and_strip_identity() {
        let hub = StreamHub::new(1, 100, 100);
        let mut req = plan_req("mobilenet", 96, Some("acme"));
        req.id = Some("r1".into());
        req.deadline_ms = Some(5);
        let cell = hub.cell_of(&req);
        hub.record_seed(cell, &req);
        let seed = hub.seed(cell).unwrap();
        assert_eq!(seed.model.as_deref(), Some("mobilenet"));
        assert_eq!(seed.id, None, "seed must not replay the client id");
        assert_eq!(seed.deadline_ms, None, "seed must not inherit deadlines");
        // First writer wins.
        let mut other = plan_req("mobilenet", 96, Some("acme"));
        other.delay_ms = Some(9);
        hub.record_seed(cell, &other);
        assert_eq!(hub.seed(cell).unwrap().delay_ms, None);
    }

    #[test]
    fn costs_blend_and_rank_candidates_by_rate_times_cost() {
        let hub = StreamHub::new(1, 20, 20);
        let shutdown = AtomicBool::new(false);
        let hot = hub.cell_of(&plan_req("resnet18", 64, None));
        let cold = hub.cell_of(&plan_req("gemm-bench", 256, None));
        hub.record_cost(hot, 500, 10_000, 0);
        assert_eq!(hub.predicted_miss_us(hot, 0), Some(10_000));
        hub.record_cost(hot, 500, 2_000, 0);
        assert_eq!(
            hub.predicted_miss_us(hot, 0),
            Some(8_000),
            "EWMA weights the old estimate 3/4"
        );
        assert_eq!(hub.predicted_miss_us(hot, 2), Some(6_000), "aged");
        hub.record_cost(cold, 400, 4_000, 0);
        // 9 hot arrivals vs 1 cold arrival with comparable costs.
        for _ in 0..9 {
            hub.emit(0, hot, EventKind::Miss, 2_000);
        }
        hub.emit(0, cold, EventKind::Miss, 4_000);
        std::thread::sleep(Duration::from_millis(150));
        shutdown.store(true, Ordering::Release);
        hub.run_collector(&shutdown);
        let ranked = hub.prewarm_candidates(8, 2);
        assert_eq!(ranked.first(), Some(&hot), "hot×cost outranks cold");
        assert_eq!(ranked.len(), 2);
    }

    #[test]
    fn awkward_slide_rounds_width_to_whole_panes() {
        // 100ms window, 30ms slide: 100_000 % 30_000 != 0, and no
        // nearby "clamped" slide divides the width either. The hub
        // must hand the engines a valid config (this used to panic the
        // collector thread at startup) by keeping the slide exact and
        // rounding the width down to 90ms.
        let hub = StreamHub::new(1, 100, 30);
        let shutdown = AtomicBool::new(true);
        hub.run_collector(&shutdown); // one pass; must not panic
        let body = hub.view_body(1, true);
        assert!(body.contains("\"window_ms\":90,\"slide_ms\":30"), "{body}");
    }
}
