//! The planning server.
//!
//! Thread architecture (see also `crate::reactor`):
//!
//! - an **acceptor** thread pins each accepted connection to one of N
//!   **reactor shards** — event-loop threads multiplexing all of their
//!   connections over epoll with per-connection reusable buffers. The
//!   read/parse/respond hot path never crosses a shard boundary;
//! - the shard answers `ping` / `stats` / `shutdown` / `migrate` /
//!   `dump` **inline**, and — the common case in steady state — plan
//!   requests whose rendered plan is already cached (*inline hits*,
//!   counted separately). Only cache *misses* are handed to the worker
//!   pool, through a [`ShardedQueue`] stripe matching the shard;
//! - **worker** threads pop jobs (home stripe first, stealing
//!   otherwise), enforce the per-request deadline (checked at dequeue,
//!   *before* the cache lookup, so an expired deadline always answers
//!   `deadline` even on a warm cache), consult the shared
//!   [`PlanCache`], and plan on a miss with a cooperative
//!   [`CancelToken`]. The response returns to the owning shard via a
//!   [`Completion`] and is written by the reactor;
//! - admission is one [`Admission::decide`] call per miss: the static
//!   `queue_cap` bound, an effective cap that keeps queue *time*, not
//!   queue *length*, bounded under slow-plan overload, and the cell's
//!   predicted miss cost against the request's deadline. Its estimates
//!   are fed by worker-observed service times and age lazily while
//!   idle, so no thread runs the controller.
//!
//! Shutdown (via [`ServerHandle::stop`] or a client `shutdown` op) is
//! graceful: the acceptor stops, each shard drains — deferred requests
//! get their replies written and flushed — the queue closes, and the
//! workers exit after draining it.
//!
//! # Memory-ordering audit
//!
//! Every atomic in this crate (and the primitives it leans on in
//! `smm-core` and `smm-obs`) was audited; the chosen orderings and the
//! reasoning are recorded at each use site. Summary:
//!
//! - `Shared::shutdown` is a pure stop *signal*: no data is published
//!   through it (all shared state lives behind the queue's mutex or the
//!   cache's mutex). Raising it uses `Release` and polling uses
//!   `Acquire` — the conventional flag pairing.
//! - [`BoundedQueue`](crate::BoundedQueue) and the reactor inboxes use
//!   no atomics at all: `Mutex` + `Condvar`, so every push/pop/close is
//!   totally ordered by the lock. Deferred responses travel through the
//!   shard inbox mutex, which is also what makes a worker's writes
//!   visible to the reactor thread that serializes them.
//! - The statistics mirrors (`shed`, `shed_adaptive`, `inline_hits`,
//!   `queue_depth_peak`, `verify_failed`) and the admission estimates
//!   are intentionally `Relaxed`: monotone statistics and admission
//!   heuristics, never used to publish data.

use crate::admission::{Admission, Decision, ShedReason};
use crate::protocol::{self, Op, Request};
use crate::queue::{PushError, ShardedQueue};
use crate::reactor::{Completion, LineHandler, Outcome, Reactor, ReactorConfig, DEFAULT_MAX_LINE};
use crate::stream_hub::StreamHub;
use smm_core::report::plan_json;
use smm_core::{
    CacheStats, CancelToken, KeyMemo, LayerMemo, PlanCache, PlanError, PlanKey, PlanSpec,
    PredictedCost,
};
use smm_model::Network;
use smm_obs::{Counter, CounterSnapshot};
use smm_stream::EventKind;
use std::collections::HashSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the pre-warm controller re-ranks candidates.
const PREWARM_INTERVAL: Duration = Duration::from_millis(50);

/// Trailing tumbling windows the pre-warm ranking looks at.
const PREWARM_HORIZON: usize = 30;

/// Plans one pre-warm thread builds per tick, bounding how much
/// background planning competes with foreground misses.
const PREWARM_PER_TICK: usize = 4;

/// Floor of the key memo's entry bound; see [`key_memo`].
const KEY_MEMO_MIN_ENTRIES: usize = 4096;

/// Maximal request lines' worth of bytes the key memo may hold; see
/// [`key_memo`].
const KEY_MEMO_LINES: usize = 16;

/// The spec → plan-key memo of a node caching `cache_cap` plans (a
/// router passes 0). Entries: twice the cache, so every cached plan
/// keeps a memoized spec even when clients spell it two ways, and at
/// least 4096 so small caches and routers still memoize a realistic key
/// set. Bytes: 16 request lines of the reactor's [`DEFAULT_MAX_LINE`],
/// so no inline topology a client can send is too large to memoize,
/// and none can grow the memo past 16 MiB of text and key encodings.
pub fn key_memo(cache_cap: usize) -> KeyMemo {
    KeyMemo::new(
        cache_cap.saturating_mul(2).max(KEY_MEMO_MIN_ENTRIES),
        KEY_MEMO_LINES * DEFAULT_MAX_LINE,
    )
}

/// Server construction parameters.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Number of planning worker threads.
    pub workers: usize,
    /// Number of reactor shards (event-loop threads); 0 picks one per
    /// available core, capped at `workers`.
    pub shards: usize,
    /// Bounded queue capacity; pushes beyond it are shed. This is the
    /// *static* ceiling — see `adaptive_shed`.
    pub queue_cap: usize,
    /// Plan-cache capacity in entries; 0 disables caching.
    pub cache_cap: usize,
    /// Enable the process-global observability collector on spawn, so
    /// cache and serve counters tick.
    pub obs: bool,
    /// Verify every freshly-planned result with `smm-check` before
    /// caching or responding; a plan with error-severity diagnostics is
    /// rejected (answered as an error, never cached).
    pub verify_plans: bool,
    /// Enable adaptive admission: the effective queue cap tightens
    /// under slow-plan load and deadline-hopeless misses are shed.
    /// `false` checks the static `queue_cap` only.
    pub adaptive_shed: bool,
    /// Target queue-wait budget for the adaptive controller, in
    /// milliseconds: the effective cap is the queue length whose
    /// predicted drain time stays within this budget.
    pub shed_target_ms: u64,
    /// Enable the traffic-stream tap: per-request events flow through
    /// lock-free rings into windowed per-cell analytics (the `stream`
    /// op, `smm top`) and feed the closed-loop controller. See
    /// `docs/STREAMING.md`.
    pub stream: bool,
    /// Enable the pre-warm controller: rank cells by windowed arrival
    /// rate × predicted cost and plan hot-but-uncached keys in the
    /// background. Requires `stream` and a nonzero `cache_cap`.
    pub prewarm: bool,
    /// Tumbling/sliding window width for the stream analytics, ms.
    pub window_ms: u64,
    /// Sliding-window slide for the stream analytics, ms (clamped into
    /// `(0, window_ms]`; the width is then rounded down to a whole
    /// number of slide panes).
    pub slide_ms: u64,
    /// Pre-warm planner threads.
    pub prewarm_workers: usize,
    /// Most cells the pre-warmer keeps warm; 0 picks `cache_cap / 2`
    /// so background warming can never churn the whole cache.
    pub prewarm_cap: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            shards: 0,
            queue_cap: 64,
            cache_cap: 128,
            obs: true,
            verify_plans: false,
            adaptive_shed: true,
            shed_target_ms: 50,
            stream: true,
            prewarm: true,
            window_ms: 1_000,
            slide_ms: 250,
            prewarm_workers: 1,
            prewarm_cap: 0,
        }
    }
}

/// One queued planning job: the parsed request, what the reactor
/// already derived from it (plan key, stream cell), and the completion
/// that routes the response back to the owning reactor shard.
struct Job {
    req: Request,
    key: PlanKey,
    cell: Option<u32>,
    deadline: Option<Instant>,
    completion: Completion,
}

/// Everything the reactor handler and worker threads share.
struct Shared {
    queue: ShardedQueue<Job>,
    /// Plan cache, keyed by [`smm_core::PlanKey`] and holding the
    /// *rendered* plan JSON: what a hit serves is the exact byte string
    /// a cold plan produced, and a plan migrated in from another fleet
    /// node (the `migrate` verb) is indistinguishable from a local one.
    cache: PlanCache<Arc<String>>,
    /// Spec → plan-key memo: a repeat request finds its cache key
    /// without resolving the network or encoding the key.
    keys: KeyMemo,
    /// Shape-keyed layer-decision memo, shared across all workers and
    /// requests: two concurrent requests for models with overlapping
    /// layer shapes (or the same model at the same GLB size missing the
    /// plan cache on different knobs) reuse each other's selection work.
    /// The memo key includes the accelerator and planner knobs, so mixed
    /// configurations coexist safely.
    memo: Arc<LayerMemo>,
    /// Shared with the reactor: raising it starts the graceful drain.
    shutdown: Arc<AtomicBool>,
    verify_plans: bool,
    /// Admission controller and the node's service-latency estimate.
    admission: Admission,
    /// Traffic-stream hub (taps, windows, controller books); `None`
    /// when the stream is disabled.
    hub: Option<Arc<StreamHub>>,
    /// First worker lane index in the hub (lanes `0..lane_base` belong
    /// to the reactor shards, `lane_base..` to the workers).
    lane_base: usize,
    // Local mirrors of the serve.* obs counters, so the `stats` op
    // reports them even when the process-global collector is disabled.
    // Relaxed: monotone statistics, never used to publish data.
    shed: AtomicU64,
    shed_adaptive: AtomicU64,
    shed_predicted: AtomicU64,
    inline_hits: AtomicU64,
    queue_depth_peak: AtomicU64,
    verify_failed: AtomicU64,
}

impl Shared {
    fn node_stats(&self) -> protocol::NodeStats {
        let memo = self.memo.stats();
        protocol::NodeStats {
            cache: self.cache.stats(),
            queued: self.queue.len(),
            shed: self.shed.load(Ordering::Relaxed),
            shed_adaptive: self.shed_adaptive.load(Ordering::Relaxed),
            shed_predicted: self.shed_predicted.load(Ordering::Relaxed),
            queue_depth_peak: self.queue_depth_peak.load(Ordering::Relaxed),
            ewma_latency_us: self.admission.service.at(self.admission.now()),
            inline_hits: self.inline_hits.load(Ordering::Relaxed),
            verify_failed: self.verify_failed.load(Ordering::Relaxed),
            memo_hits: memo.hits,
            memo_misses: memo.misses,
        }
    }

    /// Refuse one plan request: count it under its reason, tap it, and
    /// answer `shed`.
    // `&Option<String>` matches the protocol renderers' signatures.
    #[allow(clippy::ref_option)]
    fn shed(
        &self,
        reason: ShedReason,
        lane: usize,
        cell: Option<u32>,
        id: &Option<String>,
        reply: &mut String,
    ) -> Outcome {
        smm_obs::add(Counter::ServeShed, 1);
        self.shed.fetch_add(1, Ordering::Relaxed);
        let kind = match reason {
            ShedReason::Static => EventKind::ShedStatic,
            ShedReason::Adaptive => {
                smm_obs::add(Counter::ServeShedAdaptive, 1);
                self.shed_adaptive.fetch_add(1, Ordering::Relaxed);
                EventKind::ShedAdaptive
            }
            ShedReason::Predicted => {
                smm_obs::add(Counter::ServeShedPredicted, 1);
                self.shed_predicted.fetch_add(1, Ordering::Relaxed);
                EventKind::ShedPredicted
            }
        };
        self.tap(lane, cell, kind, 0);
        protocol::shed_response_into(reply, id);
        Outcome::Replied
    }

    /// Emit one classified-request event into the stream tap, if the
    /// stream is on. `cell` is pre-interned by the caller so sites that
    /// classify the same request twice never re-hash it.
    fn tap(&self, lane: usize, cell: Option<u32>, kind: EventKind, service_us: u64) {
        if let (Some(hub), Some(cell)) = (self.hub.as_deref(), cell) {
            hub.emit(lane, cell, kind, service_us);
        }
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`stop`](Self::stop) and/or [`join`](Self::join).
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    reactor: Option<Reactor>,
    workers: Vec<JoinHandle<()>>,
    collector: Option<JoinHandle<()>>,
    prewarmers: Vec<JoinHandle<()>>,
    stream_stop: Arc<AtomicBool>,
}

/// The planning server; see the module docs for the thread model.
pub struct Server;

impl Server {
    /// Bind and start accepting. Returns once the listener is live;
    /// planning happens on background threads.
    pub fn spawn(cfg: ServerConfig) -> std::io::Result<ServerHandle> {
        if cfg.obs {
            smm_obs::set_enabled(true);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let workers_n = cfg.workers.max(1);
        let shards_n = if cfg.shards == 0 {
            thread::available_parallelism()
                .map_or(1, std::num::NonZeroUsize::get)
                .min(workers_n)
        } else {
            cfg.shards
        };
        // Queue stripes never exceed the worker count, so every stripe
        // has at least one dedicated (home) worker draining it.
        let stripes = shards_n.min(workers_n);
        let shutdown = Arc::new(AtomicBool::new(false));
        // One tap lane per emitting thread: reactor shards first, then
        // planning workers, so each lane has a single producer.
        let (hub, consumers) = if cfg.stream {
            let (hub, consumers) =
                StreamHub::new(shards_n + workers_n, cfg.window_ms, cfg.slide_ms);
            (Some(hub), Some(consumers))
        } else {
            (None, None)
        };
        let shared = Arc::new(Shared {
            queue: ShardedQueue::new(stripes, cfg.queue_cap),
            cache: PlanCache::new(cfg.cache_cap),
            keys: key_memo(cfg.cache_cap),
            memo: Arc::new(LayerMemo::default()),
            shutdown: Arc::clone(&shutdown),
            verify_plans: cfg.verify_plans,
            admission: Admission::new(
                cfg.queue_cap,
                workers_n,
                cfg.shed_target_ms.saturating_mul(1000),
                cfg.adaptive_shed,
            ),
            hub,
            lane_base: shards_n,
            shed: AtomicU64::new(0),
            shed_adaptive: AtomicU64::new(0),
            shed_predicted: AtomicU64::new(0),
            inline_hits: AtomicU64::new(0),
            queue_depth_peak: AtomicU64::new(0),
            verify_failed: AtomicU64::new(0),
        });

        // The collector outlives the shutdown signal: it stops on its
        // own flag, raised by `join` after the workers drain, so the
        // final pass still captures their events.
        let stream_stop = Arc::new(AtomicBool::new(false));
        let collector = consumers.map(|consumers| {
            let shared = Arc::clone(&shared);
            let stop = Arc::clone(&stream_stop);
            thread::Builder::new()
                .name("smm-serve-stream".into())
                .spawn(move || {
                    if let Some(hub) = &shared.hub {
                        hub.run_collector(consumers, &stop);
                    }
                })
                .expect("spawn stream collector thread")
        });

        let prewarmers = if cfg.stream && cfg.prewarm && cfg.cache_cap > 0 {
            let cap = if cfg.prewarm_cap > 0 {
                cfg.prewarm_cap
            } else {
                (cfg.cache_cap / 2).max(1)
            };
            let inflight = Arc::new(parking_lot::Mutex::new(HashSet::new()));
            (0..cfg.prewarm_workers.max(1))
                .map(|i| {
                    let shared = Arc::clone(&shared);
                    let inflight = Arc::clone(&inflight);
                    thread::Builder::new()
                        .name(format!("smm-serve-prewarm-{i}"))
                        .spawn(move || prewarm_loop(&shared, cap, &inflight))
                        .expect("spawn prewarm thread")
                })
                .collect()
        } else {
            Vec::new()
        };

        let workers = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("smm-serve-worker-{i}"))
                    .spawn(move || worker_loop(i, &shared))
                    .expect("spawn worker thread")
            })
            .collect();

        let handler: Arc<dyn LineHandler> = Arc::new(ServeHandler {
            shared: Arc::clone(&shared),
        });
        let reactor = Reactor::spawn(
            listener,
            &ReactorConfig {
                shards: shards_n,
                ..ReactorConfig::default()
            },
            handler,
            shutdown,
        )?;

        Ok(ServerHandle {
            local_addr: reactor.local_addr(),
            shared,
            reactor: Some(reactor),
            workers,
            collector,
            prewarmers,
            stream_stop,
        })
    }
}

impl ServerHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signal shutdown. Non-blocking; pair with [`join`](Self::join).
    pub fn stop(&self) {
        // Release pairs with the Acquire polls in the reactor and the
        // pre-warm threads; the flag carries no data, it only has to
        // become visible.
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Whether shutdown has been signalled (by [`stop`](Self::stop) or
    /// a client `shutdown` op).
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::Acquire)
    }

    /// Plan-cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Block until shutdown is signalled, then drain gracefully: the
    /// reactor flushes every in-flight response and closes its
    /// connections, queued jobs drain through the workers, and every
    /// thread is joined.
    pub fn join(mut self) {
        // The reactor waits for the shutdown flag, then drains: a
        // connection with deferred jobs stays open until its workers
        // fulfill them (bounded by the reactor's drain timeout), so the
        // queue is naturally empty of *wanted* work when this returns.
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
        self.shared.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        for p in self.prewarmers.drain(..) {
            let _ = p.join();
        }
        // Stop the collector only after the workers drained, so its
        // final pass captures every emitted event.
        self.stream_stop.store(true, Ordering::Release);
        if let Some(c) = self.collector.take() {
            let _ = c.join();
        }
    }
}

/// The serve-protocol [`LineHandler`] plugged into the reactor.
struct ServeHandler {
    shared: Arc<Shared>,
}

impl LineHandler for ServeHandler {
    fn handle(&self, line: &str, reply: &mut String, completion: Completion) -> Outcome {
        let shared = &self.shared;
        let req = match protocol::parse_request(line) {
            Ok(req) => req,
            Err(msg) => {
                protocol::error_response_into(reply, &None, &msg);
                return Outcome::Replied;
            }
        };
        match req.op {
            Op::Ping => {
                protocol::pong_response_into(reply, &req.id);
                Outcome::Replied
            }
            Op::Stats => {
                protocol::stats_response_into(reply, &req.id, &shared.node_stats());
                Outcome::Replied
            }
            Op::Shutdown => {
                protocol::shutdown_response_into(reply, &req.id);
                // Release pairs with the reactor's Acquire poll.
                shared.shutdown.store(true, Ordering::Release);
                Outcome::RepliedClose
            }
            // Handoff verbs are answered inline like `stats`: they
            // touch only the cache, never the planning queue.
            Op::Migrate => {
                serve_migrate(&req, shared, reply);
                Outcome::Replied
            }
            Op::Dump => {
                let limit = req.limit.unwrap_or(protocol::DEFAULT_DUMP_LIMIT) as usize;
                let entries = shared.cache.hottest(limit);
                protocol::dump_response_into(reply, &req.id, &entries);
                Outcome::Replied
            }
            Op::Stream => {
                match &shared.hub {
                    Some(hub) => {
                        let limit = req.limit.unwrap_or(protocol::DEFAULT_STREAM_WINDOWS) as usize;
                        let body = hub.view_body(limit, req.sliding);
                        protocol::stream_response_into(reply, &req.id, &body);
                    }
                    None => protocol::error_response_into(
                        reply,
                        &req.id,
                        "stream analytics disabled on this node",
                    ),
                }
                Outcome::Replied
            }
            Op::Plan => handle_plan(shared, req, reply, completion),
        }
    }
}

/// The plan path on the reactor: deadline check, inline cache hit,
/// admission control, or hand-off to the worker pool.
fn handle_plan(
    shared: &Arc<Shared>,
    req: Request,
    reply: &mut String,
    completion: Completion,
) -> Outcome {
    let start = Instant::now();
    let before = CounterSnapshot::capture();
    // Tap identity up front: the lane is the shard (single producer by
    // thread ownership) and the cell is interned once per request.
    let lane = completion.shard_id();
    let cell = shared.hub.as_ref().map(|h| h.cell_of(&req));
    let deadline = req.deadline_ms.map(|ms| start + Duration::from_millis(ms));
    // Deadline check before the cache lookup: an already-expired
    // deadline answers `deadline` even on a warm cache.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        smm_obs::add(Counter::ServeRequests, 1);
        smm_obs::add(Counter::ServeDeadlineExceeded, 1);
        shared.tap(lane, cell, EventKind::Deadline, 0);
        protocol::deadline_response_into(reply, &req.id, 0);
        return Outcome::Replied;
    }
    let key = match shared.keys.key(&req.to_spec()) {
        Ok((key, _)) => key,
        Err(e) => {
            shared.tap(lane, cell, EventKind::Error, 0);
            protocol::error_response_into(reply, &req.id, &e.to_string());
            return Outcome::Replied;
        }
    };
    // A probe, not a get: a miss is counted once, by the worker that
    // goes on to plan.
    if let Some(plan) = shared.cache.probe(&key) {
        // Inline hit: answered on the reactor, no queue, no worker, no
        // cross-thread hop.
        smm_obs::add(Counter::ServeRequests, 1);
        smm_obs::add(Counter::ServeInlineHits, 1);
        shared.inline_hits.fetch_add(1, Ordering::Relaxed);
        let metrics = request_metrics(start, &before);
        shared.tap(lane, cell, EventKind::HitInline, metrics.elapsed_us);
        protocol::ok_plan_response_into(reply, &req.id, true, &metrics, &plan);
        return Outcome::Replied;
    }

    // Cache miss: seed the pre-warm controller (any cell that ever
    // missed can be re-planned without a client), then admission.
    let now = shared.admission.now();
    let cell_miss_us = match (shared.hub.as_deref(), cell) {
        (Some(hub), Some(cell)) => {
            hub.record_seed(cell, &req);
            hub.predicted_miss_us(cell, now)
        }
        _ => None,
    };
    let deadline_left_us = deadline.map(|d| {
        u64::try_from(d.saturating_duration_since(Instant::now()).as_micros()).unwrap_or(u64::MAX)
    });
    let decision = shared
        .admission
        .decide(shared.queue.len(), deadline_left_us, cell_miss_us, now);
    if let Decision::Shed(reason) = decision {
        return shared.shed(reason, lane, cell, &req.id, reply);
    }
    let id = req.id.clone();
    let stripe = completion.shard_id() % shared.queue.shards();
    let job = Job {
        req,
        key,
        cell,
        deadline,
        completion: completion.defer(),
    };
    match shared.queue.try_push_to(stripe, job) {
        Ok(()) => {
            smm_obs::add(Counter::ServeRequests, 1);
            let depth = shared.queue.len() as u64;
            shared.queue_depth_peak.fetch_max(depth, Ordering::Relaxed);
            smm_obs::record_max(Counter::ServeQueueDepthPeak, depth);
            Outcome::Deferred
        }
        Err(PushError::Full(job)) => {
            let Job { completion, .. } = job;
            completion.cancel();
            shared.shed(ShedReason::Static, lane, cell, &id, reply)
        }
        Err(PushError::Closed(job)) => {
            let Job { completion, .. } = job;
            completion.cancel();
            shared.tap(lane, cell, EventKind::Error, 0);
            protocol::error_response_into(reply, &id, "server is shutting down");
            Outcome::Replied
        }
    }
}

/// Install one migrated plan under its stable key. The plan was
/// planned (and, if the origin ran `--verify`, verified) by another
/// fleet node; this node only checks that the key decodes under the
/// current [`smm_core::KEY_HASH_VERSION`] and that the payload is a
/// JSON object, then caches the bytes verbatim.
fn serve_migrate(req: &Request, shared: &Arc<Shared>, reply: &mut String) {
    let (Some(key_hex), Some(plan_json)) = (&req.key, &req.plan_json) else {
        return protocol::error_response_into(
            reply,
            &req.id,
            "migrate needs \"key\" and \"plan_json\"",
        );
    };
    let key = match smm_core::PlanKey::from_stable_hex(key_hex) {
        Ok(key) => key,
        Err(e) => {
            return protocol::error_response_into(reply, &req.id, &format!("bad migrate key: {e}"))
        }
    };
    match smm_obs::json::parse(plan_json) {
        Ok(smm_obs::json::Value::Object(_)) => {}
        Ok(_) => {
            return protocol::error_response_into(
                reply,
                &req.id,
                "migrate plan_json must be a JSON object",
            )
        }
        Err(e) => {
            return protocol::error_response_into(
                reply,
                &req.id,
                &format!("bad migrate plan_json: {e}"),
            )
        }
    }
    shared.cache.insert(key, Arc::new(plan_json.clone()));
    protocol::migrate_response_into(reply, &req.id);
}

fn worker_loop(index: usize, shared: &Arc<Shared>) {
    let home = index % shared.queue.shards();
    // The worker's tap lane sits after the reactor shards' lanes.
    let lane = shared.lane_base + index;
    while let Some(job) = shared.queue.pop_from(home) {
        let start = Instant::now();
        let (response, observed, kind) = serve_plan(&job, shared);
        let elapsed_us = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
        if observed {
            // Feed the admission controller with the time this job
            // held the worker. Dequeue-expired jobs are excluded: their
            // near-zero cost says nothing about service latency and
            // would drag the estimate down exactly when load is high.
            let now = shared.admission.now();
            let est = shared.admission.service.observe(elapsed_us, now);
            smm_obs::record_max(Counter::ServeEwmaLatencyUs, est);
        }
        shared.tap(lane, job.cell, kind, elapsed_us);
        let Job { completion, .. } = job;
        completion.fulfill(response);
    }
}

/// Why [`plan_render_cache`] could not produce a cached plan.
enum PlanFailure {
    /// The cooperative deadline fired mid-plan.
    Cancelled {
        /// Layers planned before cancellation.
        layers_done: usize,
    },
    /// Planning or a verification gate failed; the message is the
    /// client-facing error.
    Failed(String),
}

/// Plan one spec, run the opt-in verification gates, render, and
/// cache. This is the **only** path that inserts freshly-planned bytes
/// into the cache — the worker miss path and the pre-warm controller
/// both go through it, so a pre-warmed plan is byte-identical to (and
/// exactly as verified as) a client-planned one. `delay_ms` is the
/// simulated planning cost of the request; background pre-warming pays
/// it too, keeping the savings it reports honest.
fn plan_render_cache(
    shared: &Shared,
    spec: &PlanSpec,
    net: &Network,
    key: PlanKey,
    delay_ms: Option<u64>,
    cancel: &CancelToken,
) -> Result<(Arc<String>, PredictedCost), PlanFailure> {
    if let Some(ms) = delay_ms {
        thread::sleep(Duration::from_millis(ms.min(protocol::MAX_DELAY_MS)));
    }
    let acc = spec.accelerator;
    let planner = spec.planner().with_memo(Arc::clone(&shared.memo));
    let plan = match planner.plan(net, spec.scheme, cancel) {
        Ok(plan) => plan,
        Err(PlanError::Cancelled { layers_done }) => {
            return Err(PlanFailure::Cancelled { layers_done })
        }
        Err(e) => return Err(PlanFailure::Failed(e.to_string())),
    };
    // Opt-in verification gate: an infeasible plan must never be
    // cached (it would be served to every later client) nor answered
    // as `ok`.
    if shared.verify_plans {
        let report = smm_check::check_plan(&plan, net, &acc);
        if report.error_count() > 0 {
            smm_obs::add(Counter::ServeVerifyFailed, 1);
            shared.verify_failed.fetch_add(1, Ordering::Relaxed);
            let codes: Vec<&str> = report.diagnostics.iter().map(|d| d.code.as_str()).collect();
            return Err(PlanFailure::Failed(format!(
                "plan failed verification ({} diagnostics: {})",
                report.diagnostics.len(),
                codes.join(", ")
            )));
        }
        // Second gate: lower the plan and lint the command streams
        // (SMM012–SMM018) before it enters the cache.
        match smm_lint::lint_plan(&plan, net) {
            Ok(lint) if lint.error_count() > 0 => {
                smm_obs::add(Counter::ServeVerifyFailed, 1);
                shared.verify_failed.fetch_add(1, Ordering::Relaxed);
                let codes: Vec<&str> = lint.diagnostics().map(|d| d.code.as_str()).collect();
                return Err(PlanFailure::Failed(format!(
                    "plan failed stream lint ({} diagnostics: {})",
                    codes.len(),
                    codes.join(", ")
                )));
            }
            Ok(_) => {}
            Err(e) => {
                smm_obs::add(Counter::ServeVerifyFailed, 1);
                shared.verify_failed.fetch_add(1, Ordering::Relaxed);
                return Err(PlanFailure::Failed(format!("plan failed stream lint: {e}")));
            }
        }
    }
    let cost = PredictedCost::from_totals(&plan.totals);
    // The rendered JSON — not the plan object — is what gets cached:
    // hits, cold plans, migrated plans, and pre-warmed plans all serve
    // the identical byte string.
    let json = Arc::new(plan_json(&plan, &acc));
    shared.cache.insert(key, Arc::clone(&json));
    Ok((json, cost))
}

/// Serve one dequeued plan job. The second return value is whether the
/// elapsed time is a valid service-latency observation (false only for
/// the deadline-expired-in-queue fast path); the third classifies the
/// outcome for the stream tap.
fn serve_plan(job: &Job, shared: &Arc<Shared>) -> (String, bool, EventKind) {
    let req = &job.req;
    // Deadline check at dequeue, before the cache lookup: a request
    // that waited out its deadline in the queue answers `deadline`
    // even if the plan is already cached.
    if job.deadline.is_some_and(|d| Instant::now() >= d) {
        smm_obs::add(Counter::ServeDeadlineExceeded, 1);
        return (
            protocol::deadline_response(&req.id, 0),
            false,
            EventKind::Deadline,
        );
    }
    let start = Instant::now();
    let before = CounterSnapshot::capture();
    // Re-check the cache: a concurrent request (or the pre-warm
    // controller) may have planned this key while the job sat queued.
    // This `get` is where the request's miss is counted.
    if let Some(plan) = shared.cache.get(&job.key) {
        let metrics = request_metrics(start, &before);
        return (
            protocol::ok_plan_response(&req.id, true, &metrics, &plan),
            true,
            EventKind::HitWorker,
        );
    }
    // The spec the reactor keyed is rebuilt to resolve the network and
    // configure the planner.
    let spec = req.to_spec();
    let net = match spec.resolve() {
        Ok(net) => net,
        Err(e) => {
            return (
                protocol::error_response(&req.id, &e.to_string()),
                true,
                EventKind::Error,
            )
        }
    };

    let cancel = match job.deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::none(),
    };
    match plan_render_cache(shared, &spec, &net, job.key.clone(), req.delay_ms, &cancel) {
        Ok((json, cost)) => {
            // Feed the controller's cost book: the analytic Eq.-1
            // latency and the measured planning time (including any
            // simulated delay) of a genuine miss.
            if let (Some(hub), Some(cell)) = (&shared.hub, job.cell) {
                let measured = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
                hub.record_cost(cell, cost.latency_us, measured, shared.admission.now());
            }
            let metrics = request_metrics(start, &before);
            (
                protocol::ok_plan_response(&req.id, false, &metrics, &json),
                true,
                EventKind::Miss,
            )
        }
        Err(PlanFailure::Cancelled { layers_done }) => {
            smm_obs::add(Counter::ServeDeadlineExceeded, 1);
            (
                protocol::deadline_response(&req.id, layers_done),
                true,
                EventKind::Deadline,
            )
        }
        Err(PlanFailure::Failed(msg)) => (
            protocol::error_response(&req.id, &msg),
            true,
            EventKind::Error,
        ),
    }
}

/// The pre-warm controller: every tick, rank cells by windowed arrival
/// rate × predicted cost and plan the hottest uncached ones in the
/// background, so the next request for them is a cache hit instead of
/// a miss. Warming goes through [`plan_render_cache`] — identical
/// verification gates, identical bytes — and pays the seed's simulated
/// `delay_ms`, so the hit-rate gain it buys is honest.
fn prewarm_loop(shared: &Arc<Shared>, cap: usize, inflight: &parking_lot::Mutex<HashSet<u32>>) {
    let Some(hub) = shared.hub.as_ref() else {
        return;
    };
    while !shared.shutdown.load(Ordering::Acquire) {
        thread::sleep(PREWARM_INTERVAL);
        let mut warmed = 0usize;
        for cell in hub.prewarm_candidates(PREWARM_HORIZON, cap) {
            if warmed >= PREWARM_PER_TICK || shared.shutdown.load(Ordering::Acquire) {
                break;
            }
            let Some(seed) = hub.seed(cell) else {
                continue;
            };
            let spec = seed.to_spec();
            let Ok((key, _)) = shared.keys.key(&spec) else {
                continue;
            };
            // Cheap non-promoting probe: a warm candidate costs nothing.
            if shared.cache.peek(&key) {
                continue;
            }
            // Claim the cell so concurrent pre-warm threads never plan
            // the same key twice.
            if !inflight.lock().insert(cell) {
                continue;
            }
            smm_obs::add(Counter::ServePrewarmAttempts, 1);
            // Re-probe under the claim: a worker may have planned the
            // key between the first probe and now.
            if shared.cache.peek(&key) {
                smm_obs::add(Counter::ServePrewarmSkipped, 1);
            } else if let Ok(net) = spec.resolve() {
                // The plan's cost is not booked: the book holds what
                // client misses cost, and the ranking reads it. Booking
                // background plans (cheaper, on a warm layer memo)
                // lowered each warmed cell's score in turn, so near-tied
                // cells took turns in the top `cap`, and warming each
                // newcomer evicted the least recently used plan — on an
                // idle server, sooner or later the hottest one.
                if plan_render_cache(
                    shared,
                    &spec,
                    &net,
                    key,
                    seed.delay_ms,
                    &CancelToken::none(),
                )
                .is_ok()
                {
                    smm_obs::add(Counter::ServePrewarmInserted, 1);
                }
                warmed += 1;
            }
            inflight.lock().remove(&cell);
        }
    }
}

fn request_metrics(start: Instant, before: &CounterSnapshot) -> protocol::RequestMetrics {
    let delta = before.delta(&CounterSnapshot::capture());
    protocol::RequestMetrics {
        elapsed_us: start.elapsed().as_micros() as u64,
        layers_planned: delta.counter(Counter::PlannerLayersPlanned),
        cache_hits: delta.counter(Counter::PlanCacheHits),
        cache_misses: delta.counter(Counter::PlanCacheMisses),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), stream)
    }

    fn round_trip(addr: SocketAddr, request: &str) -> String {
        let (mut reader, mut writer) = connect(addr);
        writeln!(writer, "{request}").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line.trim().to_string()
    }

    fn status_of(line: &str) -> String {
        let v = smm_obs::json::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        match v.get("status") {
            Some(smm_obs::json::Value::String(s)) => s.clone(),
            other => panic!("no status in {line}: {other:?}"),
        }
    }

    #[test]
    fn serves_a_plan_and_shuts_down() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();

        let line = round_trip(addr, r#"{"model":"resnet18","id":"a"}"#);
        assert_eq!(status_of(&line), "ok");
        assert!(line.contains("\"plan\":{"));
        assert!(line.contains("\"id\":\"a\""));

        assert_eq!(status_of(&round_trip(addr, r#"{"op":"ping"}"#)), "ok");
        assert_eq!(status_of(&round_trip(addr, r#"{"op":"stats"}"#)), "ok");
        assert_eq!(status_of(&round_trip(addr, r#"{"op":"shutdown"}"#)), "ok");
        handle.join();
    }

    #[test]
    fn verify_mode_serves_and_caches_clean_plans() {
        let handle = Server::spawn(ServerConfig {
            verify_plans: true,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = handle.local_addr();

        // A genuine planner output passes verification, is answered `ok`,
        // and lands in the cache (second identical request is a hit).
        let line = round_trip(addr, r#"{"model":"mobilenet","glb_kb":128,"id":"v1"}"#);
        assert_eq!(status_of(&line), "ok", "{line}");
        assert!(line.contains("\"cache_hit\":false"), "{line}");
        let line = round_trip(addr, r#"{"model":"mobilenet","glb_kb":128,"id":"v2"}"#);
        assert_eq!(status_of(&line), "ok", "{line}");
        assert!(line.contains("\"cache_hit\":true"), "{line}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn garbage_and_unknown_inputs_yield_errors() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        for bad in [
            "this is not json",
            r#"{"model":"no-such-model"}"#,
            r#"{"topology":"x, 1, 2,"}"#,
            r#"{"topology":"x, 4294967295, 4294967295, 3, 3, 4294967295, 8, 1,"}"#,
        ] {
            let line = round_trip(addr, bad);
            assert_eq!(status_of(&line), "error", "{bad} -> {line}");
        }
        // The offending topology line number is surfaced to the client.
        let line = round_trip(addr, r#"{"topology":"a, 8, 8, 3, 3, 4, 8, 1,\nb, 1, 2,"}"#);
        assert!(line.contains("line 2"), "{line}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn dump_and_migrate_hand_plans_between_nodes_byte_identically() {
        let origin = Server::spawn(ServerConfig::default()).unwrap();
        let target = Server::spawn(ServerConfig::default()).unwrap();

        // Plan on the origin node, then export its cache.
        let cold = round_trip(origin.local_addr(), r#"{"model":"resnet18","glb_kb":128}"#);
        assert_eq!(status_of(&cold), "ok");
        let dump = round_trip(origin.local_addr(), r#"{"op":"dump","limit":8}"#);
        let v = smm_obs::json::parse(&dump).unwrap();
        let Some(smm_obs::json::Value::Array(entries)) = v.get("entries") else {
            panic!("no entries in {dump}");
        };
        assert_eq!(entries.len(), 1);
        let (Some(smm_obs::json::Value::String(key)), Some(smm_obs::json::Value::String(plan))) =
            (entries[0].get("key"), entries[0].get("plan_json"))
        else {
            panic!("bad entry in {dump}");
        };

        // Push it into the target node; the next request is a warm hit
        // serving the exact bytes the origin planned.
        let migrate = format!(
            "{{\"op\":\"migrate\",\"key\":\"{key}\",\"plan_json\":\"{}\"}}",
            protocol::json_escape(plan)
        );
        let ack = round_trip(target.local_addr(), &migrate);
        assert_eq!(status_of(&ack), "ok", "{ack}");
        let warm = round_trip(target.local_addr(), r#"{"model":"resnet18","glb_kb":128}"#);
        assert_eq!(status_of(&warm), "ok");
        assert!(warm.contains("\"cache_hit\":true"), "{warm}");
        let suffix = |line: &str| {
            let idx = line.find("\"plan\":").unwrap();
            line[idx..].to_string()
        };
        assert_eq!(
            suffix(&cold),
            suffix(&warm),
            "migrated plan must be byte-identical"
        );

        // Garbage migrate payloads are rejected, never cached.
        for bad in [
            r#"{"op":"migrate","key":"zz","plan_json":"{}"}"#,
            r#"{"op":"migrate","key":"63000000","plan_json":"{}"}"#,
            r#"{"op":"migrate","key":"01000000","plan_json":"not json"}"#,
            r#"{"op":"migrate","key":"01000000","plan_json":"[1]"}"#,
        ] {
            let line = round_trip(target.local_addr(), bad);
            assert_eq!(status_of(&line), "error", "{bad} -> {line}");
        }

        for h in [origin, target] {
            h.stop();
            h.join();
        }
    }

    #[test]
    fn stats_reports_shed_verify_memo_and_reactor_counts() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        let _ = round_trip(addr, r#"{"model":"mobilenet"}"#);
        let stats = round_trip(addr, r#"{"op":"stats"}"#);
        let v = smm_obs::json::parse(&stats).unwrap_or_else(|e| panic!("{stats}: {e}"));
        for field in [
            "shed",
            "shed_adaptive",
            "queue_depth_peak",
            "ewma_latency_us",
            "inline_hits",
            "verify_failed",
            "queued",
        ] {
            assert!(
                matches!(v.get(field), Some(smm_obs::json::Value::Number(_))),
                "{stats} missing {field}"
            );
        }
        let Some(memo) = v.get("memo") else {
            panic!("{stats} missing memo");
        };
        let Some(smm_obs::json::Value::Number(misses)) = memo.get("misses") else {
            panic!("{stats} missing memo.misses");
        };
        assert!(*misses > 0.0, "planning must have missed the memo: {stats}");
        handle.stop();
        handle.join();
    }

    #[test]
    fn warm_requests_are_served_inline_on_the_reactor() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        let cold = round_trip(addr, r#"{"model":"mobilenet"}"#);
        assert_eq!(status_of(&cold), "ok");
        let warm = round_trip(addr, r#"{"model":"mobilenet"}"#);
        assert!(warm.contains("\"cache_hit\":true"), "{warm}");
        let stats = round_trip(addr, r#"{"op":"stats"}"#);
        let v = smm_obs::json::parse(&stats).unwrap();
        let Some(smm_obs::json::Value::Number(inline_hits)) = v.get("inline_hits") else {
            panic!("{stats} missing inline_hits");
        };
        assert!(
            *inline_hits >= 1.0,
            "warm request must be an inline hit: {stats}"
        );
        handle.stop();
        handle.join();
    }

    #[test]
    fn expired_deadline_beats_a_warm_cache() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let addr = handle.local_addr();
        // Warm the cache.
        let warm = round_trip(addr, r#"{"model":"mobilenet"}"#);
        assert_eq!(status_of(&warm), "ok");
        // A 0ms deadline must answer `deadline`, not serve the cached plan.
        let line = round_trip(addr, r#"{"model":"mobilenet","deadline_ms":0}"#);
        assert_eq!(status_of(&line), "deadline");
        handle.stop();
        handle.join();
    }

    #[test]
    fn pipelined_requests_on_one_connection_all_answer() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let (mut reader, mut writer) = connect(handle.local_addr());
        // Write several requests before reading anything back.
        let mut batch = String::new();
        for i in 0..8 {
            batch.push_str(&format!("{{\"op\":\"ping\",\"id\":\"p{i}\"}}\n"));
        }
        batch.push_str("{\"model\":\"mobilenet\",\"id\":\"plan\"}\n");
        writer.write_all(batch.as_bytes()).unwrap();
        for i in 0..8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(line.contains(&format!("\"id\":\"p{i}\"")), "{line}");
        }
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(status_of(line.trim()), "ok");
        assert!(line.contains("\"id\":\"plan\""), "{line}");
        handle.stop();
        handle.join();
    }
}
