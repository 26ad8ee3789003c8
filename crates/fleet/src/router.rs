//! The fleet router: a JSON-lines front-end that shards plan requests
//! across backend planning nodes by consistent hash.
//!
//! The router speaks the *same* protocol as a single `smm serve` node
//! on both sides: clients talk to it exactly as they would to one node,
//! and it forwards the original request line verbatim to the chosen
//! backend. Two admin verbs exist only at the router:
//!
//! - `{"op":"fleet_join","node":"host:port"}` — probe the new node,
//!   warm its cache by migrating the plans it is about to own (pulled
//!   with `dump` from current owners, pushed with `migrate`), then
//!   flip the ring. Clients never see a cold-miss spike.
//! - `{"op":"fleet_leave","node":"host:port"}` — drain the leaving
//!   node's hottest plans to their new owners, then flip the ring and
//!   drop the node.
//!
//! Routing is key-affine: a request's [`smm_core::PlanKey`] is hashed
//! with the versioned wire hash and the owner comes from the
//! [`HashRing`]. On forward failure the router retries on the next
//! distinct replica (bounded by [`RouterConfig::retries`]); a backend
//! that fails [`RouterConfig::eject_after`] times in a row is ejected
//! and probed back to health by a background thread.
//!
//! The client-facing front-end runs on the **same sharded epoll
//! reactor** as a serve node ([`smm_serve::Reactor`]): connections are
//! pinned to an event-loop shard at accept, framed through reusable
//! per-connection buffers, and `ping`/`shutdown` answer inline on the
//! reactor. Verbs that must talk to backends (`plan`, `migrate`,
//! `stats`, `stream`, the admin verbs) are handed to a bounded **forwarder
//! pool** — blocking backend I/O never runs on a reactor thread — and
//! their responses return via the reactor's completion path.

use crate::backend::Backend;
use crate::ring::HashRing;
use smm_core::report::json_escape;
use smm_core::{KeyMemo, PlanKey};
use smm_obs::json::Value;
use smm_obs::Counter;
use smm_serve::protocol::{self, Op};
use smm_serve::{
    BoundedQueue, Completion, LineHandler, Outcome, PushError, Reactor, ReactorConfig,
};
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Forwarder pool size: how many backend forwards can block
/// concurrently. Forwards are I/O-bound (the pool threads spend their
/// time parked in `connect`/`read`), so this is well above core count.
const FORWARDER_THREADS: usize = 32;

/// Bound on forwards waiting for a pool thread; beyond it plan
/// requests are shed and other verbs answer an overload error.
const FORWARD_QUEUE_CAP: usize = 1024;

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Initial backend node addresses (`host:port`). The address is
    /// also the node's ring identity.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring.
    pub vnodes: u32,
    /// Extra replicas tried after the owner fails (`2` → up to three
    /// distinct nodes see the request before it is shed).
    pub retries: u32,
    /// Consecutive forward failures before a backend is ejected.
    pub eject_after: u32,
    /// How often the probe thread pings ejected backends.
    pub probe_interval: Duration,
    /// Per-forward I/O timeout (connect, write, and read).
    pub forward_timeout: Duration,
    /// Max plans pulled per `dump` during membership handoff;
    /// `0` disables warm handoff entirely (cold joins/leaves).
    pub handoff_limit: u64,
    /// Enable the process-global observability collector on spawn.
    pub obs: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".into(),
            backends: Vec::new(),
            vnodes: crate::ring::DEFAULT_VNODES,
            retries: 2,
            eject_after: 3,
            probe_interval: Duration::from_millis(500),
            forward_timeout: Duration::from_secs(30),
            handoff_limit: 256,
            obs: true,
        }
    }
}

/// Router-level counters: local mirrors of the `fleet.*` obs counters
/// so the `stats` op reports them even with the collector disabled.
#[derive(Debug, Default)]
struct FleetCounters {
    routed: AtomicU64,
    retries: AtomicU64,
    shed: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
    migrated_plans: AtomicU64,
    migrated_bytes: AtomicU64,
}

/// Tick a local counter mirror and its `fleet.*` obs counter together.
fn bump(local: &AtomicU64, counter: Counter, n: u64) {
    local.fetch_add(n, Ordering::Relaxed);
    smm_obs::add(counter, n);
}

/// A point-in-time copy of the router's fleet counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetCountersSnapshot {
    /// Successful forwards.
    pub routed: u64,
    /// Forward attempts beyond the first replica.
    pub retries: u64,
    /// Requests shed because every replica was unavailable.
    pub shed: u64,
    /// Backends ejected by a failure streak.
    pub ejections: u64,
    /// Ejected backends re-admitted by the probe thread.
    pub readmissions: u64,
    /// Plans migrated during membership handoff.
    pub migrated_plans: u64,
    /// Bytes of rendered plan JSON migrated during handoff.
    pub migrated_bytes: u64,
}

/// One request waiting for a forwarder-pool thread: the raw line to
/// forward (backends receive these bytes), what the reactor parsed from
/// it, and the reactor completion that routes the response back.
struct ForwardJob {
    line: String,
    parsed: Parsed,
    completion: Completion,
}

/// A request line as parsed once on the reactor.
enum Parsed {
    /// A node-protocol request.
    Request(protocol::Request),
    /// A router-only membership verb (`fleet_join` / `fleet_leave`) and
    /// the JSON it came in.
    Admin(String, Value),
}

impl Parsed {
    fn id(&self) -> Option<String> {
        match self {
            Parsed::Request(req) => req.id.clone(),
            Parsed::Admin(_, v) => v.get("id").and_then(Value::as_str).map(String::from),
        }
    }
}

struct RouterShared {
    cfg: RouterConfig,
    ring: parking_lot::RwLock<HashRing>,
    backends: parking_lot::RwLock<HashMap<String, Arc<Backend>>>,
    /// Serializes membership changes so two concurrent joins cannot
    /// interleave their handoffs and ring flips.
    membership: parking_lot::Mutex<()>,
    /// Spec → plan-key memo, so repeat requests (zoo and inline CSV)
    /// skip network resolution and key encoding on the routing path.
    keys: KeyMemo,
    /// Hand-off from the reactor to the forwarder pool.
    queue: BoundedQueue<ForwardJob>,
    counters: FleetCounters,
    /// Shared with the reactor: raising it starts the graceful drain.
    shutdown: Arc<AtomicBool>,
}

/// A running router. Dropping the handle does **not** stop it; call
/// [`stop`](Self::stop) and/or [`join`](Self::join).
pub struct RouterHandle {
    local_addr: SocketAddr,
    shared: Arc<RouterShared>,
    reactor: Option<Reactor>,
    forwarders: Vec<JoinHandle<()>>,
    prober: Option<JoinHandle<()>>,
}

/// The fleet router; see the module docs for the protocol.
pub struct Router;

impl Router {
    /// Bind and start routing. Returns once the listener is live.
    pub fn spawn(cfg: RouterConfig) -> std::io::Result<RouterHandle> {
        if cfg.obs {
            smm_obs::set_enabled(true);
        }
        let listener = TcpListener::bind(&cfg.addr)?;
        let ring = HashRing::new(cfg.backends.iter().map(String::as_str), cfg.vnodes);
        let backends = cfg
            .backends
            .iter()
            .map(|a| (a.clone(), Arc::new(Backend::new(a.clone()))))
            .collect();
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(RouterShared {
            cfg,
            ring: parking_lot::RwLock::new(ring),
            backends: parking_lot::RwLock::new(backends),
            membership: parking_lot::Mutex::new(()),
            keys: smm_serve::key_memo(0),
            queue: BoundedQueue::new(FORWARD_QUEUE_CAP),
            counters: FleetCounters::default(),
            shutdown: Arc::clone(&shutdown),
        });

        let forwarders = (0..FORWARDER_THREADS)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("smm-fleet-fwd-{i}"))
                    .spawn(move || forward_loop(&shared))
                    .expect("spawn forwarder thread")
            })
            .collect();
        let prober = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("smm-fleet-prober".into())
                .spawn(move || prober_loop(&shared))
                .expect("spawn prober thread")
        };

        let handler: Arc<dyn LineHandler> = Arc::new(RouterLineHandler {
            shared: Arc::clone(&shared),
        });
        let reactor = Reactor::spawn(listener, &ReactorConfig::default(), handler, shutdown)?;

        Ok(RouterHandle {
            local_addr: reactor.local_addr(),
            shared,
            reactor: Some(reactor),
            forwarders,
            prober: Some(prober),
        })
    }
}

impl RouterHandle {
    /// The bound address (useful with ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Signal shutdown. Non-blocking; pair with [`join`](Self::join).
    pub fn stop(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
    }

    /// Block until shutdown is signalled, then drain gracefully: the
    /// reactor flushes in-flight responses (in-flight forwards finish
    /// through the pool first), then the pool and prober are joined.
    pub fn join(mut self) {
        if let Some(reactor) = self.reactor.take() {
            reactor.join();
        }
        self.shared.queue.close();
        for f in self.forwarders.drain(..) {
            let _ = f.join();
        }
        if let Some(prober) = self.prober.take() {
            let _ = prober.join();
        }
    }

    /// The ring's current member node addresses, sorted.
    pub fn nodes(&self) -> Vec<String> {
        self.shared.ring.read().nodes().to_vec()
    }

    /// Add `node` to the fleet with warm handoff (see module docs).
    ///
    /// # Errors
    ///
    /// If the node is already a member or does not answer a probe ping.
    pub fn join_node(&self, node: &str) -> Result<(u64, u64), String> {
        fleet_join(&self.shared, node)
    }

    /// Remove `node` from the fleet, draining its hottest plans to
    /// their new owners first.
    ///
    /// # Errors
    ///
    /// If the node is not a member.
    pub fn leave_node(&self, node: &str) -> Result<(u64, u64), String> {
        fleet_leave(&self.shared, node)
    }

    /// A snapshot of the router's fleet counters.
    pub fn fleet_counters(&self) -> FleetCountersSnapshot {
        let c = &self.shared.counters;
        FleetCountersSnapshot {
            routed: c.routed.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            shed: c.shed.load(Ordering::Relaxed),
            ejections: c.ejections.load(Ordering::Relaxed),
            readmissions: c.readmissions.load(Ordering::Relaxed),
            migrated_plans: c.migrated_plans.load(Ordering::Relaxed),
            migrated_bytes: c.migrated_bytes.load(Ordering::Relaxed),
        }
    }
}

fn prober_loop(shared: &Arc<RouterShared>) {
    while !shared.shutdown.load(Ordering::Acquire) {
        thread::sleep(shared.cfg.probe_interval.min(Duration::from_millis(250)));
        // Snapshot the ejected set outside the lock so probes (which
        // block on I/O) never hold it.
        let ejected: Vec<Arc<Backend>> = shared
            .backends
            .read()
            .values()
            .filter(|b| !b.is_healthy())
            .cloned()
            .collect();
        for backend in ejected {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            let resp = backend.forward("{\"op\":\"ping\"}", shared.cfg.forward_timeout);
            if resp.is_ok_and(|r| r.contains("\"status\":\"ok\"")) && backend.readmit() {
                bump(&shared.counters.readmissions, Counter::FleetReadmissions, 1);
            }
        }
    }
}

/// The router-protocol [`LineHandler`] plugged into the reactor.
/// Anything that needs backend I/O defers to the forwarder pool; the
/// rest answers inline on the reactor shard.
struct RouterLineHandler {
    shared: Arc<RouterShared>,
}

impl LineHandler for RouterLineHandler {
    fn handle(&self, line: &str, reply: &mut String, completion: Completion) -> Outcome {
        let shared = &self.shared;
        let v = match protocol::parse_json(line) {
            Ok(v) => v,
            Err(msg) => {
                protocol::error_response_into(reply, &None, &msg);
                return Outcome::Replied;
            }
        };
        // Admin verbs are router-only and unknown to the node protocol,
        // so they are recognized on the raw JSON before the strict
        // field walk. They talk to backends → forwarder pool.
        if let Some(op @ ("fleet_join" | "fleet_leave")) = v.get("op").and_then(Value::as_str) {
            let op = op.to_owned();
            return defer_to_pool(shared, line, Parsed::Admin(op, v), reply, completion);
        }
        let req = match protocol::request_from_value(&v) {
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
            Op::Shutdown => {
                protocol::shutdown_response_into(reply, &req.id);
                shared.shutdown.store(true, Ordering::Release);
                Outcome::RepliedClose
            }
            Op::Dump => {
                protocol::error_response_into(
                    reply,
                    &req.id,
                    "dump is a node-level op; send it to a backend directly",
                );
                Outcome::Replied
            }
            Op::Stats | Op::Stream | Op::Migrate | Op::Plan => {
                defer_to_pool(shared, line, Parsed::Request(req), reply, completion)
            }
        }
    }
}

/// Hand one line to the forwarder pool. A full queue sheds plan
/// requests (counted like an all-replicas-down shed) and answers other
/// verbs with an overload error — the reactor never blocks.
fn defer_to_pool(
    shared: &Arc<RouterShared>,
    line: &str,
    parsed: Parsed,
    reply: &mut String,
    completion: Completion,
) -> Outcome {
    let job = ForwardJob {
        line: line.to_string(),
        parsed,
        completion: completion.defer(),
    };
    let (job, full) = match shared.queue.try_push(job) {
        Ok(()) => return Outcome::Deferred,
        Err(PushError::Full(job)) => (job, true),
        Err(PushError::Closed(job)) => (job, false),
    };
    job.completion.cancel();
    let id = job.parsed.id();
    match job.parsed {
        _ if !full => protocol::error_response_into(reply, &id, "router is shutting down"),
        Parsed::Request(req) if req.op == Op::Plan => {
            bump(&shared.counters.shed, Counter::FleetShed, 1);
            protocol::shed_response_into(reply, &id);
        }
        _ => protocol::error_response_into(reply, &id, "router forwarder queue is full"),
    }
    Outcome::Replied
}

/// One forwarder-pool thread: pop, forward, fulfill.
fn forward_loop(shared: &Arc<RouterShared>) {
    while let Some(job) = shared.queue.pop() {
        let response = forward_line(&job.line, &job.parsed, shared);
        job.completion.fulfill(response);
    }
}

/// Dispatch one deferred request against the backends.
fn forward_line(line: &str, parsed: &Parsed, shared: &Arc<RouterShared>) -> String {
    let req = match parsed {
        Parsed::Admin(op, v) => return handle_admin(op, v, shared),
        Parsed::Request(req) => req,
    };
    match req.op {
        Op::Stats => fleet_stats(req.id.as_deref(), shared),
        Op::Stream => fleet_stream(line, req, shared),
        Op::Migrate => route_migrate(line, req, shared),
        Op::Plan => route_plan(line, req, shared),
        // Inline verbs never reach the pool.
        Op::Ping | Op::Shutdown | Op::Dump => {
            protocol::error_response(&req.id, "internal: op should be answered on the reactor")
        }
    }
}

/// Route a plan request to its owner, retrying on the next distinct
/// replicas; shed only when every attempt fails.
fn route_plan(line: &str, req: &protocol::Request, shared: &Arc<RouterShared>) -> String {
    let key_hash = match key_hash_for(req, shared) {
        Ok(h) => h,
        Err(msg) => return protocol::error_response(&req.id, &msg),
    };
    let replicas: Vec<String> = {
        let ring = shared.ring.read();
        ring.replicas(key_hash)
            .into_iter()
            .map(str::to_owned)
            .collect()
    };
    let max_attempts = shared.cfg.retries as usize + 1;
    let mut attempt = 0usize;
    for addr in replicas {
        if attempt >= max_attempts {
            break;
        }
        let Some(backend) = shared.backends.read().get(&addr).cloned() else {
            continue;
        };
        if !backend.is_healthy() {
            continue;
        }
        if attempt > 0 {
            bump(&shared.counters.retries, Counter::FleetRetries, 1);
        }
        attempt += 1;
        match backend.forward(line, shared.cfg.forward_timeout) {
            Ok(resp) => {
                backend.on_success();
                backend.tally(resp.contains("\"cache_hit\":true"));
                bump(&shared.counters.routed, Counter::FleetRouted, 1);
                return tag_node(&resp, backend.addr());
            }
            Err(_) => {
                if backend.on_failure(shared.cfg.eject_after) {
                    bump(&shared.counters.ejections, Counter::FleetEjections, 1);
                }
            }
        }
    }
    bump(&shared.counters.shed, Counter::FleetShed, 1);
    protocol::shed_response(&req.id)
}

/// Route a `migrate` to the key's owner (used by external tooling that
/// wants to seed a fleet through the router).
fn route_migrate(line: &str, req: &protocol::Request, shared: &Arc<RouterShared>) -> String {
    let key_hex = req.key.as_deref().unwrap_or_default();
    let key = match PlanKey::from_stable_hex(key_hex) {
        Ok(k) => k,
        Err(msg) => return protocol::error_response(&req.id, &msg),
    };
    let owner = {
        let ring = shared.ring.read();
        ring.owner(key.stable_hash64()).map(str::to_owned)
    };
    let Some(owner) = owner else {
        return protocol::error_response(&req.id, "fleet has no members");
    };
    let Some(backend) = shared.backends.read().get(&owner).cloned() else {
        return protocol::error_response(&req.id, "ring/backend map out of sync");
    };
    match backend.forward(line, shared.cfg.forward_timeout) {
        Ok(resp) => {
            backend.on_success();
            resp
        }
        Err(msg) => {
            if backend.on_failure(shared.cfg.eject_after) {
                bump(&shared.counters.ejections, Counter::FleetEjections, 1);
            }
            protocol::error_response(&req.id, &msg)
        }
    }
}

/// Inject `"node":"<addr>"` right after the opening brace so clients
/// can attribute the response. The plan stays last, so byte-identity
/// checks that slice the `"plan":` suffix still hold.
fn tag_node(resp: &str, addr: &str) -> String {
    match resp.strip_prefix('{') {
        Some(rest) => format!("{{\"node\":\"{}\",{rest}", json_escape(addr)),
        None => resp.to_owned(),
    }
}

/// The versioned wire hash of the request's plan key, memoized on the
/// request's spec so repeat requests skip network resolution.
fn key_hash_for(req: &protocol::Request, shared: &Arc<RouterShared>) -> Result<u64, String> {
    shared
        .keys
        .key(&req.to_spec())
        .map(|(_, hash)| hash)
        .map_err(|e| e.to_string())
}

/// Answer `stats` with the fleet aggregate in the node shape, plus
/// `fleet` and `per_node` sections.
fn fleet_stats(id: Option<&str>, shared: &Arc<RouterShared>) -> String {
    let backends: Vec<Arc<Backend>> = shared.backends.read().values().cloned().collect();
    let mut agg = protocol::NodeStats::default();
    let mut per_node = String::new();
    let mut healthy = 0usize;
    let mut sorted: Vec<&Arc<Backend>> = backends.iter().collect();
    sorted.sort_by_key(|b| b.addr().to_owned());
    for (i, backend) in sorted.iter().enumerate() {
        let mut node_ok = false;
        if backend.is_healthy() {
            if let Ok(resp) = backend.forward("{\"op\":\"stats\"}", shared.cfg.forward_timeout) {
                if let Some(stats) = parse_node_stats(&resp) {
                    accumulate(&mut agg, &stats);
                    node_ok = true;
                }
            }
        }
        if node_ok {
            healthy += 1;
        }
        if i > 0 {
            per_node.push(',');
        }
        per_node.push_str(&format!(
            "{{\"node\":\"{}\",\"healthy\":{},\"routed\":{},\"hits\":{}}}",
            json_escape(backend.addr()),
            node_ok,
            backend.routed_count(),
            backend.hit_count()
        ));
    }
    let c = &shared.counters;
    agg.shed += c.shed.load(Ordering::Relaxed);
    format!(
        "{{{}\"status\":\"ok\",\"op\":\"stats\",{},\"fleet\":{{\"nodes\":{},\"healthy\":{},\
         \"routed\":{},\"retries\":{},\"shed\":{},\"ejections\":{},\"readmissions\":{},\
         \"migrated_plans\":{},\"migrated_bytes\":{}}},\"per_node\":[{per_node}]}}",
        id_field(id),
        protocol::stats_body(&agg),
        backends.len(),
        healthy,
        c.routed.load(Ordering::Relaxed),
        c.retries.load(Ordering::Relaxed),
        c.shed.load(Ordering::Relaxed),
        c.ejections.load(Ordering::Relaxed),
        c.readmissions.load(Ordering::Relaxed),
        c.migrated_plans.load(Ordering::Relaxed),
        c.migrated_bytes.load(Ordering::Relaxed),
    )
}

/// One per-model×GLB×tenant cell merged across the fleet's newest
/// windows. Counts sum; latency quantiles take the worst node (a
/// fleet-level p99 cannot be reconstructed from per-node histograms,
/// so the max is the honest upper bound); the mean is events-weighted.
#[derive(Default)]
struct FleetCell {
    model: String,
    glb_kb: u64,
    tenant: String,
    events: u64,
    hit_inline: u64,
    hit_worker: u64,
    miss: u64,
    shed_static: u64,
    shed_adaptive: u64,
    shed_predicted: u64,
    deadline: u64,
    error: u64,
    mean_weighted: u64,
    p50_us: u64,
    p99_us: u64,
    predicted_us: u64,
    predicted_miss_us: u64,
}

/// Answer `stream` by fanning the request out to every healthy backend
/// and aggregating: per-node window-engine summaries, plus the cells
/// of each node's **newest closed window** merged by cell key into a
/// fleet-wide activity table (sorted by event count).
fn fleet_stream(line: &str, req: &protocol::Request, shared: &Arc<RouterShared>) -> String {
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let sval = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    let backends: Vec<Arc<Backend>> = shared.backends.read().values().cloned().collect();
    let mut sorted: Vec<&Arc<Backend>> = backends.iter().collect();
    sorted.sort_by_key(|b| b.addr().to_owned());

    let mut healthy = 0usize;
    let mut per_node = String::new();
    let mut fleet_events = 0u64;
    let mut fleet_late = 0u64;
    let mut fleet_dropped = 0u64;
    let mut fleet_closed = 0u64;
    let mut cells: HashMap<String, FleetCell> = HashMap::new();
    let mut kind = String::from("tumbling");
    let mut window_ms = 0u64;

    for (i, backend) in sorted.iter().enumerate() {
        let mut node_summary = None;
        if backend.is_healthy() {
            if let Ok(resp) = backend.forward(line, shared.cfg.forward_timeout) {
                if let Ok(v) = smm_obs::json::parse(&resp) {
                    if v.get("status").and_then(Value::as_str) == Some("ok") {
                        let events = num(&v, "events");
                        let late = num(&v, "late_events");
                        let dropped = num(&v, "dropped");
                        let closed = num(&v, "windows_closed");
                        let seen = num(&v, "cells_seen");
                        fleet_events += events;
                        fleet_late += late;
                        fleet_dropped += dropped;
                        fleet_closed += closed;
                        if !sval(&v, "kind").is_empty() {
                            kind = sval(&v, "kind");
                        }
                        window_ms = window_ms.max(num(&v, "window_ms"));
                        if let Some(Value::Array(windows)) = v.get("windows") {
                            if let Some(Value::Array(ws)) =
                                windows.first().and_then(|w| w.get("cells"))
                            {
                                for c in ws {
                                    let key = sval(c, "key");
                                    let entry = cells.entry(key).or_default();
                                    if entry.model.is_empty() {
                                        entry.model = sval(c, "model");
                                        entry.glb_kb = num(c, "glb_kb");
                                        entry.tenant = sval(c, "tenant");
                                    }
                                    let ev = num(c, "events");
                                    entry.events += ev;
                                    entry.hit_inline += num(c, "hit_inline");
                                    entry.hit_worker += num(c, "hit_worker");
                                    entry.miss += num(c, "miss");
                                    entry.shed_static += num(c, "shed_static");
                                    entry.shed_adaptive += num(c, "shed_adaptive");
                                    entry.shed_predicted += num(c, "shed_predicted");
                                    entry.deadline += num(c, "deadline");
                                    entry.error += num(c, "error");
                                    entry.mean_weighted += ev.saturating_mul(num(c, "mean_us"));
                                    entry.p50_us = entry.p50_us.max(num(c, "p50_us"));
                                    entry.p99_us = entry.p99_us.max(num(c, "p99_us"));
                                    entry.predicted_us =
                                        entry.predicted_us.max(num(c, "predicted_us"));
                                    entry.predicted_miss_us =
                                        entry.predicted_miss_us.max(num(c, "predicted_miss_us"));
                                }
                            }
                        }
                        node_summary = Some((events, late, dropped, closed, seen));
                    }
                }
            }
        }
        if node_summary.is_some() {
            healthy += 1;
        }
        if i > 0 {
            per_node.push(',');
        }
        let (events, late, dropped, closed, seen) = node_summary.unwrap_or_default();
        per_node.push_str(&format!(
            "{{\"node\":\"{}\",\"healthy\":{},\"events\":{events},\"late_events\":{late},\
             \"dropped\":{dropped},\"windows_closed\":{closed},\"cells_seen\":{seen}}}",
            json_escape(backend.addr()),
            node_summary.is_some(),
        ));
    }

    let mut merged: Vec<(String, FleetCell)> = cells.into_iter().collect();
    merged.sort_by(|a, b| b.1.events.cmp(&a.1.events).then_with(|| a.0.cmp(&b.0)));
    let mut cells_json = String::new();
    for (i, (key, c)) in merged.iter().enumerate() {
        if i > 0 {
            cells_json.push(',');
        }
        let mean_us = c.mean_weighted.checked_div(c.events).unwrap_or(0);
        cells_json.push_str(&format!(
            "{{\"key\":\"{}\",\"model\":\"{}\",\"glb_kb\":{},\"tenant\":\"{}\",\
             \"events\":{},\"hit_inline\":{},\"hit_worker\":{},\"miss\":{},\
             \"shed_static\":{},\"shed_adaptive\":{},\"shed_predicted\":{},\
             \"deadline\":{},\"error\":{},\"mean_us\":{mean_us},\"p50_us\":{},\"p99_us\":{},\
             \"predicted_us\":{},\"predicted_miss_us\":{}}}",
            json_escape(key),
            json_escape(&c.model),
            c.glb_kb,
            json_escape(&c.tenant),
            c.events,
            c.hit_inline,
            c.hit_worker,
            c.miss,
            c.shed_static,
            c.shed_adaptive,
            c.shed_predicted,
            c.deadline,
            c.error,
            c.p50_us,
            c.p99_us,
            c.predicted_us,
            c.predicted_miss_us,
        ));
    }

    format!(
        "{{{}\"status\":\"ok\",\"op\":\"stream\",\"kind\":\"{kind}\",\"window_ms\":{window_ms},\
         \"fleet\":{{\"nodes\":{},\"healthy\":{healthy},\"events\":{fleet_events},\
         \"late_events\":{fleet_late},\"dropped\":{fleet_dropped},\
         \"windows_closed\":{fleet_closed}}},\"cells\":[{cells_json}],\"per_node\":[{per_node}]}}",
        id_field(req.id.as_deref()),
        backends.len(),
    )
}

fn id_field(id: Option<&str>) -> String {
    match id {
        Some(id) => format!("\"id\":\"{}\",", json_escape(id)),
        None => String::new(),
    }
}

/// Parse a backend's `stats` response back into a [`protocol::NodeStats`].
fn parse_node_stats(resp: &str) -> Option<protocol::NodeStats> {
    let v = smm_obs::json::parse(resp).ok()?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let cache = v.get("cache")?;
    let memo = v.get("memo")?;
    Some(protocol::NodeStats {
        cache: smm_core::CacheStats {
            hits: num(cache, "hits"),
            misses: num(cache, "misses"),
            evictions: num(cache, "evictions"),
            len: num(cache, "len") as usize,
            capacity: num(cache, "capacity") as usize,
        },
        queued: num(&v, "queued") as usize,
        shed: num(&v, "shed"),
        shed_adaptive: num(&v, "shed_adaptive"),
        shed_predicted: num(&v, "shed_predicted"),
        queue_depth_peak: num(&v, "queue_depth_peak"),
        ewma_latency_us: num(&v, "ewma_latency_us"),
        inline_hits: num(&v, "inline_hits"),
        verify_failed: num(&v, "verify_failed"),
        memo_hits: num(memo, "hits"),
        memo_misses: num(memo, "misses"),
    })
}

fn accumulate(agg: &mut protocol::NodeStats, s: &protocol::NodeStats) {
    agg.cache.hits += s.cache.hits;
    agg.cache.misses += s.cache.misses;
    agg.cache.evictions += s.cache.evictions;
    agg.cache.len += s.cache.len;
    agg.cache.capacity += s.cache.capacity;
    agg.queued += s.queued;
    agg.shed += s.shed;
    agg.shed_adaptive += s.shed_adaptive;
    agg.shed_predicted += s.shed_predicted;
    agg.inline_hits += s.inline_hits;
    // Gauges, not counters: the fleet-wide peak/estimate is the worst
    // node's, not a sum.
    agg.queue_depth_peak = agg.queue_depth_peak.max(s.queue_depth_peak);
    agg.ewma_latency_us = agg.ewma_latency_us.max(s.ewma_latency_us);
    agg.verify_failed += s.verify_failed;
    agg.memo_hits += s.memo_hits;
    agg.memo_misses += s.memo_misses;
}

/// Handle a `fleet_join` / `fleet_leave` admin line.
fn handle_admin(op: &str, v: &Value, shared: &Arc<RouterShared>) -> String {
    let id = v.get("id").and_then(Value::as_str).map(String::from);
    let Some(node) = v.get("node").and_then(Value::as_str) else {
        return protocol::error_response(&id, &format!("{op} request needs \"node\""));
    };
    let result = if op == "fleet_join" {
        fleet_join(shared, node)
    } else {
        fleet_leave(shared, node)
    };
    match result {
        Ok((plans, bytes)) => format!(
            "{{{}\"status\":\"ok\",\"op\":\"{op}\",\"node\":\"{}\",\
             \"migrated_plans\":{plans},\"migrated_bytes\":{bytes}}}",
            id_field(id.as_deref()),
            json_escape(node)
        ),
        Err(msg) => protocol::error_response(&id, &msg),
    }
}

/// Warm-join: probe, migrate the joiner's future keyspace to it, then
/// flip the ring. Returns `(migrated_plans, migrated_bytes)`.
fn fleet_join(shared: &Arc<RouterShared>, node: &str) -> Result<(u64, u64), String> {
    let _guard = shared.membership.lock();
    if shared.ring.read().contains(node) {
        return Err(format!("node {node} is already a fleet member"));
    }
    let joiner = Arc::new(Backend::new(node.to_owned()));
    let pong = joiner
        .forward("{\"op\":\"ping\"}", shared.cfg.forward_timeout)
        .map_err(|e| format!("probe of joining node failed: {e}"))?;
    if !pong.contains("\"status\":\"ok\"") {
        return Err(format!("joining node answered probe with: {pong}"));
    }

    let new_ring = shared.ring.read().with_node(node);
    let mut migrated = (0u64, 0u64);
    if shared.cfg.handoff_limit > 0 {
        let donors: Vec<Arc<Backend>> = shared.backends.read().values().cloned().collect();
        for donor in donors.iter().filter(|b| b.is_healthy()) {
            let entries = dump_entries(donor, shared.cfg.handoff_limit, shared.cfg.forward_timeout);
            for (key, plan_json) in entries {
                if new_ring.owner(key.stable_hash64()) == Some(node)
                    && migrate_entry(&joiner, &key, &plan_json, shared.cfg.forward_timeout)
                {
                    migrated.0 += 1;
                    migrated.1 += plan_json.len() as u64;
                }
            }
        }
    }
    bump(
        &shared.counters.migrated_plans,
        Counter::FleetMigratedPlans,
        migrated.0,
    );
    bump(
        &shared.counters.migrated_bytes,
        Counter::FleetMigratedBytes,
        migrated.1,
    );

    shared
        .backends
        .write()
        .insert(node.to_owned(), Arc::clone(&joiner));
    *shared.ring.write() = new_ring;
    Ok(migrated)
}

/// Warm-leave: drain the leaver's hottest plans to their new owners,
/// then flip the ring and drop the node.
fn fleet_leave(shared: &Arc<RouterShared>, node: &str) -> Result<(u64, u64), String> {
    let _guard = shared.membership.lock();
    if !shared.ring.read().contains(node) {
        return Err(format!("node {node} is not a fleet member"));
    }
    let new_ring = shared.ring.read().without_node(node);
    let leaver = shared.backends.read().get(node).cloned();
    let mut migrated = (0u64, 0u64);
    if shared.cfg.handoff_limit > 0 {
        if let Some(leaver) = leaver.filter(|b| b.is_healthy()) {
            let entries = dump_entries(
                &leaver,
                shared.cfg.handoff_limit,
                shared.cfg.forward_timeout,
            );
            let backends = shared.backends.read().clone();
            for (key, plan_json) in entries {
                let Some(owner) = new_ring.owner(key.stable_hash64()) else {
                    break; // last node leaving: nowhere to drain to
                };
                if let Some(target) = backends.get(owner) {
                    if migrate_entry(target, &key, &plan_json, shared.cfg.forward_timeout) {
                        migrated.0 += 1;
                        migrated.1 += plan_json.len() as u64;
                    }
                }
            }
        }
    }
    bump(
        &shared.counters.migrated_plans,
        Counter::FleetMigratedPlans,
        migrated.0,
    );
    bump(
        &shared.counters.migrated_bytes,
        Counter::FleetMigratedBytes,
        migrated.1,
    );

    *shared.ring.write() = new_ring;
    shared.backends.write().remove(node);
    Ok(migrated)
}

/// Pull up to `limit` hottest `(key, plan_json)` entries from `donor`.
/// Failures degrade to an empty handoff rather than failing the
/// membership change.
fn dump_entries(donor: &Backend, limit: u64, timeout: Duration) -> Vec<(PlanKey, String)> {
    let line = format!("{{\"op\":\"dump\",\"limit\":{limit}}}");
    let Ok(resp) = donor.forward(&line, timeout) else {
        return Vec::new();
    };
    let Ok(v) = smm_obs::json::parse(&resp) else {
        return Vec::new();
    };
    let Some(Value::Array(entries)) = v.get("entries") else {
        return Vec::new();
    };
    entries
        .iter()
        .filter_map(|e| {
            let key_hex = e.get("key").and_then(Value::as_str)?;
            let plan = e.get("plan_json").and_then(Value::as_str)?;
            PlanKey::from_stable_hex(key_hex)
                .ok()
                .map(|k| (k, plan.to_owned()))
        })
        .collect()
}

/// Push one plan to `target` with `migrate`; `true` on an ok ack.
fn migrate_entry(target: &Backend, key: &PlanKey, plan_json: &str, timeout: Duration) -> bool {
    let line = format!(
        "{{\"op\":\"migrate\",\"key\":\"{}\",\"plan_json\":\"{}\"}}",
        key.stable_hex(),
        json_escape(plan_json)
    );
    target
        .forward(&line, timeout)
        .is_ok_and(|r| r.contains("\"status\":\"ok\""))
}
