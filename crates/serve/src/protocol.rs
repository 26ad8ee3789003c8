//! The JSON-lines wire protocol.
//!
//! One request per line, one response per line, both JSON objects.
//! Requests are parsed with the dependency-free parser from
//! [`smm_obs::json`]; responses are hand-written strings so equal plans
//! serialize byte-identically (see [`smm_core::report::plan_json`]).
//!
//! # Request
//!
//! ```json
//! {"op":"plan","model":"resnet18","glb_kb":64,"objective":"accesses",
//!  "scheme":"het","prefetch":true,"reuse":false,"deadline_ms":250,"id":"r1"}
//! ```
//!
//! - `op` — `"plan"` (default), `"ping"`, `"stats"`, `"shutdown"`,
//!   `"migrate"` (install a plan under its stable key: `key` +
//!   `plan_json` fields), `"dump"` (export the hottest cached plans,
//!   bounded by `limit`), or `"stream"` (windowed traffic analytics:
//!   the most recent closed windows, bounded by `limit`, sliding
//!   windows when `sliding` is true; see `docs/STREAMING.md`). The
//!   migrate/dump pair are the warm-cache handoff verbs the fleet
//!   router uses during membership changes (`docs/FLEET.md`).
//! - `model` — a zoo model name, **or** `topology` — an inline
//!   SCALE-Sim CSV (with optional `name`). Exactly one must be present
//!   for `plan` requests.
//! - `glb_kb` — GLB capacity in KiB (default 64).
//! - `objective` — `"accesses"` (default) or `"latency"`.
//! - `scheme` — `"het"` (default) or `"hom"` (best homogeneous).
//! - `prefetch` / `reuse` — planner flags (defaults `true` / `false`).
//! - `scheduler` — `"greedy"` (default) or `"global"` (the
//!   `GlobalSchedule` DP pass; see `docs/SCHEDULING.md`).
//! - `deadline_ms` — per-request deadline, enforced cooperatively.
//! - `delay_ms` — simulated planning cost: the worker sleeps this long
//!   before planning a cache *miss* (hits skip it). Makes
//!   load-shedding deterministic in tests and models an expensive
//!   planner in fleet benchmarks.
//! - `tenant` — accounting label for the traffic stream: requests are
//!   aggregated per (model, GLB, tenant) cell in the `stream` windows.
//!   Deliberately **not** part of the plan-cache key — two tenants
//!   asking for the same plan share the cached bytes.
//! - `id` — opaque string echoed back in the response.
//!
//! # Response
//!
//! Status is one of `ok`, `shed`, `deadline`, or `error`. Successful
//! plan responses carry `cache_hit`, per-request `metrics` (observability
//! counter deltas), and the full plan object **last**, so clients can
//! compare plans byte-for-byte by slicing the line after `"plan":`.

use smm_arch::{AcceleratorConfig, ByteSize};
use smm_core::{ManagerConfig, NetworkRef, Objective, PlanScheme, PlanSpec, SchedulerKind};

/// Maximum accepted `glb_kb` (1 GiB); guards the `ByteSize` arithmetic.
pub const MAX_GLB_KB: u64 = 1 << 20;

/// Maximum accepted `delay_ms`; keeps the testing aid from wedging a
/// worker for minutes.
pub const MAX_DELAY_MS: u64 = 10_000;

/// Default `dump` entry bound when the request names no `limit`.
pub const DEFAULT_DUMP_LIMIT: u64 = 64;

/// Default `stream` window bound when the request names no `limit`.
pub const DEFAULT_STREAM_WINDOWS: u64 = 8;

/// The operation a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Produce an execution plan (the default).
    Plan,
    /// Liveness probe.
    Ping,
    /// Server statistics snapshot.
    Stats,
    /// Graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
    /// Warm-cache handoff, push side: install one already-rendered plan
    /// under its stable key (`key` + `plan_json` fields). Sent by the
    /// fleet router during membership changes; see `docs/FLEET.md`.
    Migrate,
    /// Warm-cache handoff, pull side: export the hottest cached plans
    /// (bounded by `limit`) as `(key, plan_json)` entries.
    Dump,
    /// Windowed traffic analytics: the most recent closed windows with
    /// per-cell arrival/outcome/latency aggregates (`limit` bounds the
    /// window count, `sliding` selects the overlapping-window store).
    Stream,
}

/// A parsed request line.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed back in the response, if present.
    pub id: Option<String>,
    /// Requested operation.
    pub op: Op,
    /// Zoo model name (mutually exclusive with `topology`).
    pub model: Option<String>,
    /// Inline topology CSV (mutually exclusive with `model`).
    pub topology: Option<String>,
    /// Network name for inline topologies (default `"inline"`).
    pub name: Option<String>,
    /// GLB capacity in KiB.
    pub glb_kb: u64,
    /// Optimization objective.
    pub objective: Objective,
    /// Heterogeneous or best-homogeneous planning.
    pub scheme: PlanScheme,
    /// Allow the double-buffered `+p` policy variants.
    pub prefetch: bool,
    /// Enable the inter-layer reuse pass.
    pub reuse: bool,
    /// Which inter-layer scheduler assembles the plan.
    pub scheduler: SchedulerKind,
    /// Cooperative deadline for this request.
    pub deadline_ms: Option<u64>,
    /// Testing aid: artificial planning delay.
    pub delay_ms: Option<u64>,
    /// Stable key hex ([`smm_core::PlanKey::stable_hex`]) for `migrate`.
    pub key: Option<String>,
    /// Rendered plan JSON (as a string value) for `migrate`.
    pub plan_json: Option<String>,
    /// Entry bound for `dump` (default [`DEFAULT_DUMP_LIMIT`]) and
    /// window bound for `stream` (default [`DEFAULT_STREAM_WINDOWS`]).
    pub limit: Option<u64>,
    /// Accounting label for stream analytics; never part of the plan
    /// cache key.
    pub tenant: Option<String>,
    /// For `stream`: query the sliding-window store instead of the
    /// tumbling one.
    pub sliding: bool,
}

impl Default for Request {
    fn default() -> Self {
        Request {
            id: None,
            op: Op::Plan,
            model: None,
            topology: None,
            name: None,
            glb_kb: 64,
            objective: Objective::Accesses,
            scheme: PlanScheme::Heterogeneous,
            prefetch: true,
            reuse: false,
            scheduler: SchedulerKind::Greedy,
            deadline_ms: None,
            delay_ms: None,
            key: None,
            plan_json: None,
            limit: None,
            tenant: None,
            sliding: false,
        }
    }
}

impl Request {
    /// Derive the [`PlanSpec`] this plan request describes: the network
    /// reference, the paper-default accelerator at the requested GLB
    /// size, and the planner knobs. The worker plans from this spec and
    /// keys the plan cache with [`PlanSpec::cache_key`], so the wire
    /// protocol and the cache can never disagree about what a request
    /// means.
    pub fn to_spec(&self) -> PlanSpec {
        let network = match (&self.model, &self.topology) {
            (Some(model), _) => NetworkRef::Zoo(model.clone()),
            (None, topology) => NetworkRef::Inline {
                name: self.name.clone().unwrap_or_else(|| "inline".into()),
                topology: topology.clone().unwrap_or_default(),
            },
        };
        PlanSpec::new(
            network,
            AcceleratorConfig::paper_default(ByteSize::from_kb(self.glb_kb)),
            ManagerConfig::new(self.objective)
                .with_prefetch(self.prefetch)
                .with_inter_layer_reuse(self.reuse)
                .with_scheduler(self.scheduler),
            self.scheme,
        )
    }
}

fn as_str(v: &smm_obs::json::Value, field: &str) -> Result<String, String> {
    match v {
        smm_obs::json::Value::String(s) => Ok(s.clone()),
        other => Err(format!("field {field:?} must be a string, got {other:?}")),
    }
}

fn as_bool(v: &smm_obs::json::Value, field: &str) -> Result<bool, String> {
    match v {
        smm_obs::json::Value::Bool(b) => Ok(*b),
        other => Err(format!("field {field:?} must be a boolean, got {other:?}")),
    }
}

fn as_u64(v: &smm_obs::json::Value, field: &str) -> Result<u64, String> {
    match v {
        smm_obs::json::Value::Number(n)
            if *n >= 0.0 && n.fract() == 0.0 && *n <= u64::MAX as f64 =>
        {
            Ok(*n as u64)
        }
        other => Err(format!(
            "field {field:?} must be a non-negative integer, got {other:?}"
        )),
    }
}

/// Parse one request line. Errors are human-readable messages that name
/// the offending field; they never panic, whatever the input.
pub fn parse_request(line: &str) -> Result<Request, String> {
    request_from_value(&parse_json(line)?)
}

/// The JSON half of [`parse_request`], with the same error message, for
/// callers that inspect the JSON before the strict field walk.
pub fn parse_json(line: &str) -> Result<smm_obs::json::Value, String> {
    smm_obs::json::parse(line).map_err(|e| format!("bad request JSON: {e}"))
}

/// The field-walk half of [`parse_request`].
pub fn request_from_value(v: &smm_obs::json::Value) -> Result<Request, String> {
    let smm_obs::json::Value::Object(members) = v else {
        return Err("request must be a JSON object".into());
    };
    let mut req = Request::default();
    for (key, val) in members {
        match key.as_str() {
            "op" => {
                req.op = match as_str(val, "op")?.as_str() {
                    "plan" => Op::Plan,
                    "ping" => Op::Ping,
                    "stats" => Op::Stats,
                    "shutdown" => Op::Shutdown,
                    "migrate" => Op::Migrate,
                    "dump" => Op::Dump,
                    "stream" => Op::Stream,
                    other => return Err(format!("unknown op {other:?}")),
                }
            }
            "id" => req.id = Some(as_str(val, "id")?),
            "model" => req.model = Some(as_str(val, "model")?),
            "topology" => req.topology = Some(as_str(val, "topology")?),
            "name" => req.name = Some(as_str(val, "name")?),
            "glb_kb" => req.glb_kb = as_u64(val, "glb_kb")?,
            "objective" => {
                req.objective = match as_str(val, "objective")?.as_str() {
                    "accesses" => Objective::Accesses,
                    "latency" => Objective::Latency,
                    other => return Err(format!("unknown objective {other:?}")),
                }
            }
            "scheme" => {
                req.scheme = match as_str(val, "scheme")?.as_str() {
                    "het" => PlanScheme::Heterogeneous,
                    "hom" => PlanScheme::BestHomogeneous,
                    other => return Err(format!("unknown scheme {other:?}")),
                }
            }
            "prefetch" => req.prefetch = as_bool(val, "prefetch")?,
            "reuse" => req.reuse = as_bool(val, "reuse")?,
            "scheduler" => {
                let label = as_str(val, "scheduler")?;
                req.scheduler = SchedulerKind::from_label(&label)
                    .ok_or_else(|| format!("unknown scheduler {label:?}"))?;
            }
            "deadline_ms" => req.deadline_ms = Some(as_u64(val, "deadline_ms")?),
            "delay_ms" => req.delay_ms = Some(as_u64(val, "delay_ms")?),
            "key" => req.key = Some(as_str(val, "key")?),
            "plan_json" => req.plan_json = Some(as_str(val, "plan_json")?),
            "limit" => req.limit = Some(as_u64(val, "limit")?),
            "tenant" => req.tenant = Some(as_str(val, "tenant")?),
            "sliding" => req.sliding = as_bool(val, "sliding")?,
            other => return Err(format!("unknown field {other:?}")),
        }
    }
    if req.op == Op::Plan {
        match (&req.model, &req.topology) {
            (None, None) => return Err("plan request needs \"model\" or \"topology\"".into()),
            (Some(_), Some(_)) => {
                return Err("\"model\" and \"topology\" are mutually exclusive".into())
            }
            _ => {}
        }
        if req.glb_kb == 0 || req.glb_kb > MAX_GLB_KB {
            return Err(format!(
                "glb_kb must be in 1..={MAX_GLB_KB}, got {}",
                req.glb_kb
            ));
        }
        if req.delay_ms.is_some_and(|d| d > MAX_DELAY_MS) {
            return Err(format!("delay_ms must be at most {MAX_DELAY_MS}"));
        }
    }
    if req.op == Op::Migrate && (req.key.is_none() || req.plan_json.is_none()) {
        return Err("migrate request needs \"key\" and \"plan_json\"".into());
    }
    Ok(req)
}

/// Escape a string for embedding in a JSON string literal.
///
/// Re-exported from `smm_core::report` so the serving protocol, the
/// plan serializer, and the checker's reports share one escaping
/// routine (a divergence here would break the byte-identical-plan
/// cache guarantee).
pub use smm_core::report::json_escape;

/// Append the optional `"id":"...",` prefix field to `out`.
fn push_id(out: &mut String, id: Option<&str>) {
    if let Some(id) = id {
        out.push_str("\"id\":\"");
        out.push_str(&json_escape(id));
        out.push_str("\",");
    }
}

/// Per-request observability metrics, computed from counter-snapshot
/// deltas around the planning call. Under concurrent load the deltas
/// are approximate (counters are process-global), but in a quiet server
/// they attribute work to the request exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RequestMetrics {
    /// Wall-clock time the worker spent on the request, microseconds.
    pub elapsed_us: u64,
    /// Planner layers planned while serving this request.
    pub layers_planned: u64,
    /// Plan-cache hits while serving this request.
    pub cache_hits: u64,
    /// Plan-cache misses while serving this request.
    pub cache_misses: u64,
}

impl RequestMetrics {
    fn render_into(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "\"metrics\":{{\"elapsed_us\":{},\"layers_planned\":{},\
             \"cache_hits\":{},\"cache_misses\":{}}}",
            self.elapsed_us, self.layers_planned, self.cache_hits, self.cache_misses
        );
    }
}

/// [`ok_plan_response`] rendered into a reusable buffer — the
/// reactor's inline cache-hit path appends to the connection's
/// grow-once scratch `String` instead of allocating per request.
pub fn ok_plan_response_into(
    out: &mut String,
    id: &Option<String>,
    cache_hit: bool,
    metrics: &RequestMetrics,
    plan: &str,
) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"cache_hit\":");
    out.push_str(if cache_hit { "true" } else { "false" });
    out.push(',');
    metrics.render_into(out);
    out.push_str(",\"plan\":");
    out.push_str(plan);
    out.push('}');
}

/// A successful plan response. `plan` must be the output of
/// [`smm_core::report::plan_json`]; it is placed **last** so clients can
/// compare plans byte-for-byte.
pub fn ok_plan_response(
    id: &Option<String>,
    cache_hit: bool,
    metrics: &RequestMetrics,
    plan: &str,
) -> String {
    let mut out = String::new();
    ok_plan_response_into(&mut out, id, cache_hit, metrics, plan);
    out
}

/// [`shed_response`] rendered into a reusable buffer.
pub fn shed_response_into(out: &mut String, id: &Option<String>) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"shed\",\"message\":\"server overloaded, request shed\"}");
}

/// The response sent when admission refused the request (static queue
/// capacity or the adaptive controller).
pub fn shed_response(id: &Option<String>) -> String {
    let mut out = String::new();
    shed_response_into(&mut out, id);
    out
}

/// [`deadline_response`] rendered into a reusable buffer.
pub fn deadline_response_into(out: &mut String, id: &Option<String>, layers_done: usize) {
    use std::fmt::Write as _;
    out.push('{');
    push_id(out, id.as_deref());
    let _ = write!(
        out,
        "\"status\":\"deadline\",\"layers_done\":{layers_done},\
         \"message\":\"deadline exceeded\"}}"
    );
}

/// The response sent when a request's deadline fired.
pub fn deadline_response(id: &Option<String>, layers_done: usize) -> String {
    let mut out = String::new();
    deadline_response_into(&mut out, id, layers_done);
    out
}

/// [`error_response`] rendered into a reusable buffer.
pub fn error_response_into(out: &mut String, id: &Option<String>, message: &str) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"error\",\"message\":\"");
    out.push_str(&json_escape(message));
    out.push_str("\"}");
}

/// A failure response with a human-readable message.
pub fn error_response(id: &Option<String>, message: &str) -> String {
    let mut out = String::new();
    error_response_into(&mut out, id, message);
    out
}

/// [`pong_response`] rendered into a reusable buffer.
pub fn pong_response_into(out: &mut String, id: &Option<String>) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"op\":\"ping\"}");
}

/// The `ping` response.
pub fn pong_response(id: &Option<String>) -> String {
    let mut out = String::new();
    pong_response_into(&mut out, id);
    out
}

/// [`shutdown_response`] rendered into a reusable buffer.
pub fn shutdown_response_into(out: &mut String, id: &Option<String>) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"op\":\"shutdown\"}");
}

/// The `shutdown` acknowledgement.
pub fn shutdown_response(id: &Option<String>) -> String {
    let mut out = String::new();
    shutdown_response_into(&mut out, id);
    out
}

/// One node's full statistics snapshot, as carried by the `stats`
/// response: plan-cache counters, queue depth, shed and verify-failure
/// totals, and layer-memo hit/miss counts. The fleet router sums these
/// across backends and answers `stats` with the same shape, so clients
/// (including `smm loadgen`) read one node and a whole fleet
/// identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Plan-cache statistics.
    pub cache: smm_core::CacheStats,
    /// Requests currently queued.
    pub queued: usize,
    /// Requests shed because the queue (or, at the router, every
    /// replica) was unavailable.
    pub shed: u64,
    /// Of `shed`, requests refused by the *adaptive* controller
    /// (EWMA-tightened effective cap or predicted deadline overrun)
    /// rather than the static queue capacity.
    pub shed_adaptive: u64,
    /// Of `shed`, requests refused because the stream controller's
    /// per-cell predicted miss cost could not meet the deadline.
    pub shed_predicted: u64,
    /// High-water mark of the planning-queue depth (the fleet router
    /// aggregates this with `max`, not `sum`).
    pub queue_depth_peak: u64,
    /// Live EWMA estimate of per-request service latency in
    /// microseconds (router aggregation: `max`).
    pub ewma_latency_us: u64,
    /// Plan requests answered inline on the reactor from the plan
    /// cache, without touching the worker queue.
    pub inline_hits: u64,
    /// Fresh plans rejected by the `--verify` gate.
    pub verify_failed: u64,
    /// Layer-memo hits.
    pub memo_hits: u64,
    /// Layer-memo misses.
    pub memo_misses: u64,
}

/// Render the body fields shared by node and router `stats` responses
/// (everything between the opening metadata and the closing brace).
pub fn stats_body(s: &NodeStats) -> String {
    format!(
        "\"cache\":{{\"hits\":{},\"misses\":{},\
         \"evictions\":{},\"len\":{},\"capacity\":{},\"hit_rate\":{:.4}}},\"queued\":{},\
         \"shed\":{},\"shed_adaptive\":{},\"shed_predicted\":{},\"queue_depth_peak\":{},\
         \"ewma_latency_us\":{},\
         \"inline_hits\":{},\"verify_failed\":{},\"memo\":{{\"hits\":{},\"misses\":{}}}",
        s.cache.hits,
        s.cache.misses,
        s.cache.evictions,
        s.cache.len,
        s.cache.capacity,
        s.cache.hit_rate(),
        s.queued,
        s.shed,
        s.shed_adaptive,
        s.shed_predicted,
        s.queue_depth_peak,
        s.ewma_latency_us,
        s.inline_hits,
        s.verify_failed,
        s.memo_hits,
        s.memo_misses,
    )
}

/// [`stats_response`] rendered into a reusable buffer.
pub fn stats_response_into(out: &mut String, id: &Option<String>, stats: &NodeStats) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"op\":\"stats\",");
    out.push_str(&stats_body(stats));
    out.push('}');
}

/// The `stats` response: cache statistics, queue depth, shed /
/// verify-failure totals, serving-path gauges, and memo hit/miss
/// counts.
pub fn stats_response(id: &Option<String>, stats: &NodeStats) -> String {
    let mut out = String::new();
    stats_response_into(&mut out, id, stats);
    out
}

/// [`stream_response`] rendered into a reusable buffer. `body` is the
/// pre-rendered analytics payload (watermark, engine counters, and the
/// window array) produced by the server's stream hub.
pub fn stream_response_into(out: &mut String, id: &Option<String>, body: &str) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"op\":\"stream\",");
    out.push_str(body);
    out.push('}');
}

/// The `stream` response: windowed per-cell traffic analytics.
pub fn stream_response(id: &Option<String>, body: &str) -> String {
    let mut out = String::new();
    stream_response_into(&mut out, id, body);
    out
}

/// [`migrate_response`] rendered into a reusable buffer.
pub fn migrate_response_into(out: &mut String, id: &Option<String>) {
    out.push('{');
    push_id(out, id.as_deref());
    out.push_str("\"status\":\"ok\",\"op\":\"migrate\"}");
}

/// The `migrate` acknowledgement.
pub fn migrate_response(id: &Option<String>) -> String {
    let mut out = String::new();
    migrate_response_into(&mut out, id);
    out
}

/// The `dump` response: the hottest cached plans as `(key, plan_json)`
/// entries, hottest first. Plans travel as JSON *string* values (the
/// rendered plan escaped), so the receiving side recovers the exact
/// bytes the origin node would have served — the byte-identity
/// guarantee survives migration.
pub fn dump_response(
    id: &Option<String>,
    entries: &[(smm_core::PlanKey, std::sync::Arc<String>)],
) -> String {
    let mut out = String::new();
    dump_response_into(&mut out, id, entries);
    out
}

/// [`dump_response`] rendered into a reusable buffer.
pub fn dump_response_into(
    out: &mut String,
    id: &Option<String>,
    entries: &[(smm_core::PlanKey, std::sync::Arc<String>)],
) {
    use std::fmt::Write as _;
    out.push('{');
    push_id(out, id.as_deref());
    let _ = write!(
        out,
        "\"status\":\"ok\",\"op\":\"dump\",\"count\":{},\"entries\":[",
        entries.len()
    );
    for (i, (key, plan)) in entries.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"key\":\"{}\",\"plan_json\":\"{}\"}}",
            key.stable_hex(),
            json_escape(plan)
        );
    }
    out.push_str("]}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_plan_request_parses_with_defaults() {
        let r = parse_request(r#"{"model":"resnet18"}"#).unwrap();
        assert_eq!(r.op, Op::Plan);
        assert_eq!(r.model.as_deref(), Some("resnet18"));
        assert_eq!(r.glb_kb, 64);
        assert_eq!(r.objective, Objective::Accesses);
        assert_eq!(r.scheme, PlanScheme::Heterogeneous);
        assert!(r.prefetch);
        assert!(!r.reuse);
        assert_eq!(r.scheduler, SchedulerKind::Greedy);
    }

    #[test]
    fn full_request_round_trips_every_field() {
        let r = parse_request(
            r#"{"op":"plan","id":"x","model":"mobilenet","glb_kb":128,
                "objective":"latency","scheme":"hom","prefetch":false,
                "reuse":true,"scheduler":"global","deadline_ms":250,"delay_ms":5}"#,
        )
        .unwrap();
        assert_eq!(r.id.as_deref(), Some("x"));
        assert_eq!(r.glb_kb, 128);
        assert_eq!(r.objective, Objective::Latency);
        assert_eq!(r.scheme, PlanScheme::BestHomogeneous);
        assert!(!r.prefetch);
        assert!(r.reuse);
        assert_eq!(r.scheduler, SchedulerKind::Global);
        assert_eq!(r.deadline_ms, Some(250));
        assert_eq!(r.delay_ms, Some(5));
    }

    #[test]
    fn garbage_inputs_error_never_panic() {
        for bad in [
            "",
            "not json",
            "[1,2,3]",
            "42",
            r#"{"op":"fly"}"#,
            r#"{"model":42}"#,
            r#"{"model":"m","bogus":1}"#,
            r#"{"model":"m","glb_kb":-3}"#,
            r#"{"model":"m","glb_kb":0}"#,
            r#"{"model":"m","glb_kb":1.5}"#,
            r#"{"op":"plan"}"#,
            r#"{"model":"m","topology":"x"}"#,
            r#"{"model":"m","deadline_ms":"soon"}"#,
            r#"{"model":"m","delay_ms":999999999}"#,
            r#"{"model":"m","scheduler":"quantum"}"#,
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn request_derives_the_matching_spec() {
        let r = parse_request(
            r#"{"model":"mobilenet","glb_kb":128,"objective":"latency",
                "scheme":"hom","prefetch":false,"reuse":true,"scheduler":"global"}"#,
        )
        .unwrap();
        let spec = r.to_spec();
        assert_eq!(spec.network, NetworkRef::Zoo("mobilenet".into()));
        assert_eq!(spec.accelerator.glb, ByteSize::from_kb(128));
        assert_eq!(spec.config.objective, Objective::Latency);
        assert!(!spec.config.allow_prefetch);
        assert!(spec.config.inter_layer_reuse);
        assert_eq!(spec.config.scheduler, SchedulerKind::Global);
        assert_eq!(spec.scheme, PlanScheme::BestHomogeneous);
        assert_eq!(spec.batch, 1);

        let inline = parse_request(r#"{"topology":"a, 8, 8, 3, 3, 4, 8, 1,","name":"tiny"}"#)
            .unwrap()
            .to_spec();
        assert!(matches!(
            inline.network,
            NetworkRef::Inline { ref name, .. } if name == "tiny"
        ));
        assert!(inline.resolve().is_ok());
    }

    #[test]
    fn ops_without_model_are_valid() {
        assert_eq!(parse_request(r#"{"op":"ping"}"#).unwrap().op, Op::Ping);
        assert_eq!(parse_request(r#"{"op":"stats"}"#).unwrap().op, Op::Stats);
        assert_eq!(
            parse_request(r#"{"op":"shutdown"}"#).unwrap().op,
            Op::Shutdown
        );
    }

    #[test]
    fn stream_and_tenant_requests_parse() {
        let s = parse_request(r#"{"op":"stream","limit":3,"sliding":true}"#).unwrap();
        assert_eq!(s.op, Op::Stream);
        assert_eq!(s.limit, Some(3));
        assert!(s.sliding);
        let bare = parse_request(r#"{"op":"stream"}"#).unwrap();
        assert_eq!(bare.op, Op::Stream);
        assert!(!bare.sliding);
        assert_eq!(bare.limit, None);
        // Tenant is accounting-only metadata on plan requests.
        let t = parse_request(r#"{"model":"resnet18","tenant":"team-a"}"#).unwrap();
        assert_eq!(t.tenant.as_deref(), Some("team-a"));
        assert!(parse_request(r#"{"model":"m","tenant":7}"#).is_err());
    }

    #[test]
    fn migrate_and_dump_requests_parse() {
        let m = parse_request(r#"{"op":"migrate","key":"0100","plan_json":"{\"a\":1}","id":"m"}"#)
            .unwrap();
        assert_eq!(m.op, Op::Migrate);
        assert_eq!(m.key.as_deref(), Some("0100"));
        assert_eq!(m.plan_json.as_deref(), Some(r#"{"a":1}"#));
        let d = parse_request(r#"{"op":"dump","limit":5}"#).unwrap();
        assert_eq!(d.op, Op::Dump);
        assert_eq!(d.limit, Some(5));
        assert_eq!(parse_request(r#"{"op":"dump"}"#).unwrap().limit, None);
        // Migrate without both fields is rejected.
        assert!(parse_request(r#"{"op":"migrate","key":"01"}"#).is_err());
        assert!(parse_request(r#"{"op":"migrate","plan_json":"{}"}"#).is_err());
    }

    #[test]
    fn dump_entries_round_trip_byte_identically() {
        let spec = parse_request(r#"{"model":"resnet18"}"#).unwrap().to_spec();
        let net = spec.resolve().unwrap();
        let key = spec.cache_key(&net);
        // A plan payload exercising every escape class.
        let plan = "{\"network\":\"x\",\"note\":\"quote \\\" slash \\\\ tab \\t\"}".to_string();
        let line = dump_response(&None, &[(key.clone(), std::sync::Arc::new(plan.clone()))]);
        let v = smm_obs::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let Some(smm_obs::json::Value::Array(entries)) = v.get("entries") else {
            panic!("no entries in {line}");
        };
        assert_eq!(entries.len(), 1);
        let Some(smm_obs::json::Value::String(hex)) = entries[0].get("key") else {
            panic!("no key");
        };
        assert_eq!(smm_core::PlanKey::from_stable_hex(hex).unwrap(), key);
        let Some(smm_obs::json::Value::String(recovered)) = entries[0].get("plan_json") else {
            panic!("no plan_json");
        };
        assert_eq!(recovered, &plan, "escape/unescape must be exact");
    }

    #[test]
    fn responses_are_valid_json_with_plan_last() {
        let id = Some("req-1".to_string());
        let m = RequestMetrics {
            elapsed_us: 10,
            layers_planned: 21,
            cache_hits: 0,
            cache_misses: 1,
        };
        let ok = ok_plan_response(&id, false, &m, "{\"network\":\"n\"}");
        assert!(ok.ends_with(",\"plan\":{\"network\":\"n\"}}"));
        for line in [
            ok,
            shed_response(&id),
            deadline_response(&None, 3),
            error_response(&id, "line 2: bad \"thing\""),
            pong_response(&None),
            shutdown_response(&id),
            stats_response(
                &None,
                &NodeStats {
                    queued: 4,
                    shed: 2,
                    verify_failed: 1,
                    memo_hits: 10,
                    memo_misses: 3,
                    ..NodeStats::default()
                },
            ),
            migrate_response(&id),
            dump_response(&None, &[]),
            stream_response(&id, "\"kind\":\"tumbling\",\"windows\":[]"),
        ] {
            smm_obs::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        }
    }
}
