//! A closed-loop load generator for the planning server — and for a
//! whole fleet behind a router.
//!
//! One driver thread multiplexes every client connection over epoll
//! (the same [`crate::epoll`] + [`crate::frame`] core the server's
//! reactor uses), so ten thousand concurrent connections cost ten
//! thousand sockets — not ten thousand OS threads. Each connection
//! runs a closed loop: issue one plan request, wait for the response,
//! record its latency, issue the next. Requests are drawn from a
//! shared cursor, so a connection that fails to open (`EMFILE`, a
//! refused accept) is a **counted, non-fatal** event — its share of
//! the workload is simply picked up by the surviving connections and
//! reported as `conn_errors`.
//!
//! Requests cycle round-robin over a model list (optionally crossed
//! with a GLB-size set to widen the working set), or — with a
//! [`LoadgenConfig::mix`] — over a **weighted** model × GLB mix
//! interleaved by smooth weighted round-robin, the skewed arrival
//! pattern the server's streaming windows and pre-warm controller are
//! built to exploit. The report aggregates throughput, latency
//! percentiles (p50/p95/p99), the cache hit rate, shed and deadline
//! counts, an optional per-cell shed-vs-miss breakdown — and
//! cross-checks that every plan served for the same input is
//! **byte-identical** (cached plans must match cold ones exactly;
//! through a router, plans from *any* node must match).
//!
//! The hit rate is computed from per-response `cache_hit` metadata, not
//! from one server's `CacheStats` — so it is correct against a router
//! fanning out to many backends, where no single node's counters
//! describe the run. In fleet mode the generator additionally
//! attributes each response to the node that served it (the router's
//! `node` tag), reporting per-node hit rates and routing skew, and
//! fetches a `stats` snapshot after the run to surface shed,
//! verify-failure, and memo counters.

use crate::epoll::{Interest, Poller};
use crate::frame::{LineFramer, WriteBuf};
use smm_obs::json::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Upper bound on one response line from the server (plans are large).
const MAX_RESPONSE_LINE: usize = 16 * 1024 * 1024;

/// Give up on a run that makes no progress for this long (a hung or
/// silently-dropping server); outstanding requests become errors.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// One cell of a weighted workload mix: a model × GLB-size pair and
/// its relative request weight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixEntry {
    /// Model zoo name.
    pub model: String,
    /// GLB capacity in KiB for this cell's requests.
    pub glb_kb: u64,
    /// Relative weight; a weight-5 cell gets 5× the requests of a
    /// weight-1 cell.
    pub weight: u64,
}

/// Longest `--mix` cycle accepted: one full smooth-WRR schedule is
/// materialized in memory (one slot per unit of reduced weight), so
/// the GCD-reduced weight sum is bounded.
const MAX_MIX_CYCLE: u64 = 65_536;

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Parse a `--mix` spec: comma-separated `model:glb_kb=weight` entries
/// (`=weight` defaults to 1), e.g. `resnet18:64=5,mobilenet:256=1`.
/// Weights are relative and reduced by their GCD (`10:5` ≡ `2:1`).
///
/// # Errors
///
/// On empty input, malformed entries, zero GLB sizes, zero weights, or
/// weights whose GCD-reduced sum exceeds the supported cycle length
/// (65 536 — one schedule slot is allocated per unit of weight).
pub fn parse_mix(spec: &str) -> Result<Vec<MixEntry>, String> {
    let mut entries = Vec::new();
    for raw in spec.split(',') {
        let raw = raw.trim();
        if raw.is_empty() {
            continue;
        }
        let (cell, weight) = match raw.split_once('=') {
            Some((cell, w)) => (
                cell,
                w.parse::<u64>()
                    .map_err(|_| format!("bad mix weight in {raw:?}"))?,
            ),
            None => (raw, 1),
        };
        let (model, glb) = cell
            .split_once(':')
            .ok_or_else(|| format!("mix entry {raw:?} needs model:glb_kb"))?;
        let glb_kb = glb
            .parse::<u64>()
            .map_err(|_| format!("bad mix GLB size in {raw:?}"))?;
        if model.is_empty() || glb_kb == 0 || weight == 0 {
            return Err(format!(
                "mix entry {raw:?} needs a model, glb_kb > 0, weight > 0"
            ));
        }
        entries.push(MixEntry {
            model: model.to_string(),
            glb_kb,
            weight,
        });
    }
    if entries.is_empty() {
        return Err("empty --mix spec".into());
    }
    // The schedule allocates one slot per unit of weight; reduce by
    // the GCD and bound the reduced sum, so `a=4000000000,b=2000000000`
    // means 2:1 rather than a multi-gigabyte allocation.
    let g = entries.iter().fold(0, |g, e| gcd(g, e.weight));
    for e in &mut entries {
        e.weight /= g;
    }
    if entries
        .iter()
        .try_fold(0u64, |t, e| t.checked_add(e.weight))
        .is_none_or(|t| t > MAX_MIX_CYCLE)
    {
        return Err(format!(
            "mix weights sum to more than {MAX_MIX_CYCLE} after GCD reduction; \
             use smaller relative weights"
        ));
    }
    Ok(entries)
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7878`.
    pub addr: String,
    /// Total number of plan requests to send.
    pub requests: usize,
    /// Number of concurrent client connections (legacy name; see
    /// `connections`).
    pub concurrency: usize,
    /// Number of concurrent client connections; when non-zero this
    /// wins over `concurrency`. All connections are multiplexed on one
    /// epoll driver thread, so this scales to tens of thousands.
    pub connections: usize,
    /// Models to request, round-robin. Must be non-empty.
    pub models: Vec<String>,
    /// GLB capacity in KiB for every request (ignored when `glb_set`
    /// is non-empty).
    pub glb_kb: u64,
    /// GLB capacities cycled across requests; crossing the model list
    /// with several sizes widens the key working set, which is how the
    /// fleet demos exceed one node's cache capacity.
    pub glb_set: Vec<u64>,
    /// Weighted workload mix; when non-empty it **replaces** the
    /// `models` × `glb_set` cross product. Requests are interleaved by
    /// smooth weighted round-robin, so a 5:1 mix issues its heavy cell
    /// spread through the cycle rather than in bursts — the skewed
    /// arrival pattern the streaming windows and pre-warmer feed on.
    pub mix: Vec<MixEntry>,
    /// Optional per-request deadline.
    pub deadline_ms: Option<u64>,
    /// Simulated planning cost attached to every request (the server
    /// sleeps this long on cache misses only): benchmarks an expensive
    /// planner without needing one.
    pub plan_delay_ms: Option<u64>,
    /// Send a `shutdown` op after the run.
    pub shutdown: bool,
    /// Fleet mode: report per-node attribution and routing skew from
    /// the router's `node` response tags.
    pub fleet: bool,
    /// Append a shedding/admission section to the report: static vs
    /// adaptive shed split, EWMA latency estimate, queue depth peak,
    /// and inline hit counts from the server's `stats` snapshot.
    pub shed_report: bool,
    /// Append a per-cell (model × GLB size) breakdown to the report:
    /// hits vs misses vs shed vs deadline per cell. Implied by a
    /// non-empty `mix`.
    pub cell_report: bool,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7878".into(),
            requests: 64,
            concurrency: 8,
            connections: 0,
            models: vec![
                "efficientnetb0".into(),
                "googlenet".into(),
                "mnasnet".into(),
                "mobilenet".into(),
                "mobilenetv2".into(),
                "resnet18".into(),
            ],
            glb_kb: 64,
            glb_set: Vec::new(),
            mix: Vec::new(),
            deadline_ms: None,
            plan_delay_ms: None,
            shutdown: false,
            fleet: false,
            shed_report: false,
            cell_report: false,
        }
    }
}

/// What one workload cell (model × GLB size) saw during a run: the
/// client-side shed-vs-miss breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CellTally {
    /// Cell key, `model@glb_kb`.
    pub key: String,
    /// Requests issued for this cell.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// Of those, cache hits.
    pub cache_hits: u64,
    /// `shed` responses (static, adaptive, or predicted — the server
    /// does not distinguish them on the wire).
    pub shed: u64,
    /// `deadline` responses.
    pub deadline: u64,
    /// `error` responses plus transport failures attributed to the cell.
    pub errors: u64,
}

impl CellTally {
    /// `ok` responses that were cache misses (planned fresh).
    pub fn misses(&self) -> u64 {
        self.ok - self.cache_hits.min(self.ok)
    }
}

/// What one node (or the single server) did during a run, as seen from
/// the client side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeTally {
    /// Node address (from the router's `node` tag), or `"-"` when the
    /// server did not attribute responses.
    pub node: String,
    /// `ok` responses served by this node.
    pub ok: u64,
    /// Of those, cache hits.
    pub cache_hits: u64,
}

/// End-of-run server counters, fetched with one `stats` request. Works
/// against a single node and against a router (which answers in the
/// same shape with fleet-wide aggregates).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests shed server-side (static, adaptive, and predicted
    /// combined).
    pub shed: u64,
    /// Of those, shed by the adaptive (EWMA) controller.
    pub shed_adaptive: u64,
    /// Of those, shed by the predictive controller (predicted miss
    /// cost exceeded the request's remaining deadline).
    pub shed_predicted: u64,
    /// High-water mark of the planning queue depth.
    pub queue_depth_peak: u64,
    /// The server's EWMA service-latency estimate, microseconds.
    pub ewma_latency_us: u64,
    /// Warm requests answered inline on the reactor (no queue hop).
    pub inline_hits: u64,
    /// Fresh plans rejected by the verify gate.
    pub verify_failed: u64,
    /// Layer-memo hits.
    pub memo_hits: u64,
    /// Layer-memo misses.
    pub memo_misses: u64,
}

/// Aggregated results of one load-generation run.
#[derive(Debug, Clone, Default)]
pub struct LoadgenReport {
    /// Requests sent.
    pub sent: u64,
    /// `ok` responses.
    pub ok: u64,
    /// `ok` responses that were cache hits.
    pub cache_hits: u64,
    /// `shed` responses.
    pub shed: u64,
    /// `deadline` responses.
    pub deadline: u64,
    /// `error` responses plus transport failures.
    pub errors: u64,
    /// Connections that failed to open or establish (`EMFILE`,
    /// refused, reset during setup). Non-fatal: their workload share is
    /// redistributed to surviving connections.
    pub conn_errors: u64,
    /// Plans that differed from an earlier plan for the same input —
    /// must be 0 (cache hits are byte-identical to cold plans).
    pub plan_mismatches: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Median request latency, microseconds.
    pub p50_us: u64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: u64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: u64,
    /// Worst-case request latency, microseconds. A max far above p99
    /// flags a stall class the percentiles hide (retransmits, scheduler
    /// starvation of individual connections).
    pub max_us: u64,
    /// Fleet mode was requested (copied from the config so `render`
    /// can flag a fleet run whose target never attributed responses).
    pub fleet: bool,
    /// The shed/admission report section was requested.
    pub shed_report: bool,
    /// The per-cell breakdown section was requested.
    pub cell_report: bool,
    /// Per-node attribution (sorted by address); non-empty only when
    /// responses carried the router's `node` tag.
    pub per_node: Vec<NodeTally>,
    /// Per-cell shed-vs-miss breakdown, one entry per distinct
    /// model × GLB request pattern, in pattern order.
    pub cells: Vec<CellTally>,
    /// End-of-run server counters (`None` if the `stats` fetch failed).
    pub server: Option<ServerStats>,
}

impl LoadgenReport {
    /// Requests completed per second.
    pub fn throughput_rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.sent as f64 / secs
        }
    }

    /// Cache hit rate over `ok` responses (0.0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.ok as f64
        }
    }

    /// Routing skew: max/mean `ok` responses per node (1.0 = perfectly
    /// balanced; 0.0 when there is no per-node attribution).
    pub fn routing_skew(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        let max = self.per_node.iter().map(|n| n.ok).max().unwrap_or(0);
        let mean =
            self.per_node.iter().map(|n| n.ok).sum::<u64>() as f64 / self.per_node.len() as f64;
        if mean == 0.0 {
            0.0
        } else {
            max as f64 / mean
        }
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        let mut out = format!(
            "requests:   {} in {:.3}s ({:.1} req/s)\n\
             ok:         {} ({} cache hits, {:.1}% hit rate)\n\
             shed:       {}\n\
             deadline:   {}\n\
             errors:     {}\n\
             mismatches: {}\n\
             latency:    p50 {}us  p95 {}us  p99 {}us  max {}us",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.throughput_rps(),
            self.ok,
            self.cache_hits,
            self.hit_rate() * 100.0,
            self.shed,
            self.deadline,
            self.errors,
            self.plan_mismatches,
            self.p50_us,
            self.p95_us,
            self.p99_us,
            self.max_us,
        );
        if self.conn_errors > 0 {
            out.push_str(&format!(
                "\nconn_errors: {} (connections failed to open; load redistributed)",
                self.conn_errors
            ));
        }
        if let Some(s) = &self.server {
            out.push_str(&format!(
                "\nserver:     shed {}, verify_failed {}, memo {}/{} hits",
                s.shed,
                s.verify_failed,
                s.memo_hits,
                s.memo_hits + s.memo_misses,
            ));
            if self.shed_report {
                out.push_str(&format!(
                    "\nadmission:  shed {} static + {} adaptive + {} predicted, ewma {}us, queue peak {}, inline hits {}",
                    s.shed - (s.shed_adaptive + s.shed_predicted).min(s.shed),
                    s.shed_adaptive,
                    s.shed_predicted,
                    s.ewma_latency_us,
                    s.queue_depth_peak,
                    s.inline_hits,
                ));
            }
        } else if self.shed_report {
            out.push_str("\nadmission:  no stats snapshot (server unreachable after the run)");
        }
        if self.cell_report {
            for c in &self.cells {
                out.push_str(&format!(
                    "\ncell:       {} sent={} ok={} hits={} miss={} shed={} deadline={} errors={}",
                    c.key,
                    c.sent,
                    c.ok,
                    c.cache_hits,
                    c.misses(),
                    c.shed,
                    c.deadline,
                    c.errors,
                ));
            }
        }
        if !self.per_node.is_empty() {
            for n in &self.per_node {
                let rate = if n.ok == 0 {
                    0.0
                } else {
                    n.cache_hits as f64 / n.ok as f64
                };
                out.push_str(&format!(
                    "\nnode:       {} ok={} hits={} ({:.1}% hit rate)",
                    n.node,
                    n.ok,
                    n.cache_hits,
                    rate * 100.0
                ));
            }
            out.push_str(&format!(
                "\nskew:       {:.2} (max/mean requests per node)",
                self.routing_skew()
            ));
        } else if self.fleet {
            out.push_str("\nnode:       no per-node attribution (is the target a fleet router?)");
        }
        out
    }
}

/// Percentile from a sorted latency sample (nearest-rank).
fn percentile(sorted: &[u64], pct: usize) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (sorted.len() - 1) * pct / 100;
    sorted[idx]
}

/// Extract the `"plan":{...}` payload from an `ok` response line. The
/// protocol places the plan last, so this is a plain suffix slice.
fn plan_payload(line: &str) -> Option<&str> {
    let idx = line.find("\"plan\":")?;
    line.get(idx + "\"plan\":".len()..line.len() - 1)
}

#[derive(Default)]
struct Tally {
    ok: u64,
    cache_hits: u64,
    shed: u64,
    deadline: u64,
    errors: u64,
    mismatches: u64,
    latencies_us: Vec<u64>,
    /// node address → (ok, cache_hits), from the router's `node` tag.
    per_node: HashMap<String, (u64, u64)>,
    /// One breakdown per distinct request cell, indexed by pattern slot.
    per_cell: Vec<CellTally>,
}

/// The value of a `"name":"<value>"` string field inside a response
/// envelope (no escape handling — node addresses are plain host:port).
fn envelope_str_field<'a>(head: &'a str, needle: &str) -> Option<&'a str> {
    let at = head.find(needle)? + needle.len();
    let rest = &head[at..];
    rest.find('"').map(|end| &rest[..end])
}

fn classify(line: &str, reference_plan: &mut Option<String>, tally: &mut Tally, slot: usize) {
    // Fast path: ok plan responses dominate any run, and everything
    // classify needs from one lives in the envelope before `"plan":`.
    // Scanning that prefix instead of JSON-parsing the multi-kilobyte
    // plan payload is what lets one loadgen thread drive thousands of
    // connections without becoming the benchmark bottleneck itself.
    if let Some(plan_at) = line.find("\"plan\":") {
        let head = &line[..plan_at];
        if head.contains("\"status\":\"ok\"") {
            tally.ok += 1;
            let hit = head.contains("\"cache_hit\":true");
            if hit {
                tally.cache_hits += 1;
            }
            tally.per_cell[slot].ok += 1;
            tally.per_cell[slot].cache_hits += u64::from(hit);
            if let Some(node) = envelope_str_field(head, "\"node\":\"") {
                let entry = tally.per_node.entry(node.to_string()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += u64::from(hit);
            }
            match line.get(plan_at + "\"plan\":".len()..line.len() - 1) {
                Some(plan) => match reference_plan {
                    Some(reference) if reference != plan => tally.mismatches += 1,
                    Some(_) => {}
                    None => *reference_plan = Some(plan.to_string()),
                },
                None => tally.mismatches += 1,
            }
            return;
        }
    }
    let Ok(v) = smm_obs::json::parse(line) else {
        tally.errors += 1;
        tally.per_cell[slot].errors += 1;
        return;
    };
    let Some(status) = v.get("status").and_then(Value::as_str) else {
        tally.errors += 1;
        tally.per_cell[slot].errors += 1;
        return;
    };
    match status {
        "ok" => {
            tally.ok += 1;
            let hit = v.get("cache_hit").and_then(Value::as_bool) == Some(true);
            if hit {
                tally.cache_hits += 1;
            }
            tally.per_cell[slot].ok += 1;
            tally.per_cell[slot].cache_hits += u64::from(hit);
            // Aggregation of the router's attribution tag: this, not
            // any one server's CacheStats, is what the fleet-wide hit
            // rate and skew are computed from.
            if let Some(node) = v.get("node").and_then(Value::as_str) {
                let entry = tally.per_node.entry(node.to_string()).or_insert((0, 0));
                entry.0 += 1;
                entry.1 += u64::from(hit);
            }
            // Byte-identity: every plan for the same input (model ×
            // GLB size) must match the first one seen — cached, cold,
            // or served by a different fleet node after migration.
            if let Some(plan) = plan_payload(line) {
                match reference_plan {
                    Some(reference) if reference != plan => tally.mismatches += 1,
                    Some(_) => {}
                    None => *reference_plan = Some(plan.to_string()),
                }
            } else {
                tally.mismatches += 1;
            }
        }
        "shed" => {
            tally.shed += 1;
            tally.per_cell[slot].shed += 1;
        }
        "deadline" => {
            tally.deadline += 1;
            tally.per_cell[slot].deadline += 1;
        }
        _ => {
            tally.errors += 1;
            tally.per_cell[slot].errors += 1;
        }
    }
}

/// Fetch one `stats` snapshot and pull out the counters the report
/// surfaces. Best-effort: `None` on any transport or parse failure.
fn fetch_server_stats(addr: &str) -> Option<ServerStats> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().ok()?;
    writer.write_all(b"{\"op\":\"stats\"}\n").ok()?;
    writer.flush().ok()?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).ok()?;
    let v = smm_obs::json::parse(line.trim()).ok()?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_u64).unwrap_or(0);
    let memo = v.get("memo")?;
    Some(ServerStats {
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

/// The request cycle, pre-rendered. The request sequence is periodic
/// in `i`, so every distinct wire line (and its byte-identity reference
/// slot) is materialized once up front — the issue path then indexes
/// this table instead of formatting strings, which keeps the hot loop
/// allocation-free. Without a mix the schedule is the plain
/// `models × glb_set` cycle; with one it is the smooth-WRR
/// interleaving of the weighted cells.
struct RequestPatterns {
    /// One wire line per distinct cell.
    lines: Vec<String>,
    /// Cell key (`model@glb`) per distinct cell, for the report.
    keys: Vec<String>,
    /// `schedule[i % period]` is the cell request `i` targets.
    schedule: Vec<usize>,
    period: usize,
}

/// Deterministic smooth weighted round-robin over `weights`: one full
/// cycle of length `Σweights` where each index `i` appears `weights[i]`
/// times, spread as evenly as the weights allow (a 5:1 mix issues
/// `a a b a a a` rather than `a a a a a b`).
fn swrr_schedule(weights: &[u64]) -> Vec<usize> {
    // Reduce by the GCD so the cycle is minimal (4e9:2e9 ≡ 2:1);
    // `parse_mix` additionally bounds the reduced sum, and this keeps
    // programmatically-built configs from allocating huge cycles too.
    let g = weights.iter().fold(0, |g, &w| gcd(g, w)).max(1);
    let weights: Vec<u64> = weights.iter().map(|&w| w / g).collect();
    let total: u64 = weights.iter().sum();
    let mut current = vec![0i128; weights.len()];
    let mut out = Vec::with_capacity(usize::try_from(total).unwrap_or(0));
    for _ in 0..total {
        for (c, w) in current.iter_mut().zip(&weights) {
            *c += i128::from(*w);
        }
        let best = (0..weights.len())
            .max_by_key(|&i| (current[i], std::cmp::Reverse(i)))
            .unwrap_or(0);
        current[best] -= i128::from(total);
        out.push(best);
    }
    out
}

impl RequestPatterns {
    fn new(cfg: &LoadgenConfig) -> RequestPatterns {
        if cfg.mix.is_empty() {
            let period = cfg.models.len() * cfg.glb_set.len().max(1);
            let built: Vec<(String, String)> = (0..period).map(|i| build_request(cfg, i)).collect();
            return RequestPatterns {
                lines: built.iter().map(|(l, _)| l.clone()).collect(),
                keys: built.into_iter().map(|(_, k)| k).collect(),
                schedule: (0..period).collect(),
                period,
            };
        }
        let deadline = cfg
            .deadline_ms
            .map(|ms| format!(",\"deadline_ms\":{ms}"))
            .unwrap_or_default();
        let delay = cfg
            .plan_delay_ms
            .map(|ms| format!(",\"delay_ms\":{ms}"))
            .unwrap_or_default();
        let lines = cfg
            .mix
            .iter()
            .map(|e| {
                format!(
                    "{{\"model\":\"{}\",\"glb_kb\":{}{deadline}{delay}}}",
                    e.model, e.glb_kb
                )
            })
            .collect();
        let keys = cfg
            .mix
            .iter()
            .map(|e| format!("{}@{}", e.model, e.glb_kb))
            .collect();
        let weights: Vec<u64> = cfg.mix.iter().map(|e| e.weight).collect();
        let schedule = swrr_schedule(&weights);
        let period = schedule.len();
        RequestPatterns {
            lines,
            keys,
            schedule,
            period,
        }
    }

    /// The pattern slot (distinct-cell index) request number `i` maps to.
    fn slot(&self, i: usize) -> usize {
        self.schedule[i % self.period]
    }

    /// Number of distinct cells.
    fn cells(&self) -> usize {
        self.lines.len()
    }

    fn line(&self, slot: usize) -> &str {
        &self.lines[slot]
    }
}

/// Build request `i`'s wire line (no terminator) and its byte-identity
/// key.
fn build_request(cfg: &LoadgenConfig, i: usize) -> (String, String) {
    let model = &cfg.models[i % cfg.models.len()];
    // Crossing models with a GLB set widens the working set: distinct
    // sizes are distinct PlanKeys. Stride by the model count so the
    // cross product is covered.
    let glb = if cfg.glb_set.is_empty() {
        cfg.glb_kb
    } else {
        cfg.glb_set[(i / cfg.models.len()) % cfg.glb_set.len()]
    };
    let deadline = cfg
        .deadline_ms
        .map(|ms| format!(",\"deadline_ms\":{ms}"))
        .unwrap_or_default();
    let delay = cfg
        .plan_delay_ms
        .map(|ms| format!(",\"delay_ms\":{ms}"))
        .unwrap_or_default();
    (
        format!("{{\"model\":\"{model}\",\"glb_kb\":{glb}{deadline}{delay}}}"),
        format!("{model}@{glb}"),
    )
}

/// One client connection's state in the epoll driver.
struct Conn {
    stream: TcpStream,
    framer: LineFramer,
    wbuf: WriteBuf,
    /// The in-flight request: its pattern slot and send time.
    inflight: Option<(usize, Instant)>,
    /// Whether write interest is currently armed (tracked to avoid
    /// redundant `epoll_ctl` calls).
    want_write: bool,
    dead: bool,
}

/// Threads used to open the connection fleet. Connect handshakes are
/// cheap for the kernel but each accepted connection costs the server a
/// wakeup cascade; overlapping them through a small bounded pool keeps
/// the setup phase from serializing on that latency (sequential opens
/// cost ~10 ms each on a single-core host — minutes at fleet scale).
const CONNECT_THREADS: usize = 32;

/// Open `count` connections to `addr` through a bounded thread pool.
/// Failures are counted, not fatal.
fn connect_fleet(addr: &str, count: usize, conn_errors: &mut u64) -> Vec<TcpStream> {
    let threads = CONNECT_THREADS.min(count).max(1);
    let results: Vec<(Vec<TcpStream>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                // Distribute the remainder across the first threads.
                let share = count / threads + usize::from(t < count % threads);
                s.spawn(move || {
                    let mut streams = Vec::with_capacity(share);
                    let mut errors = 0u64;
                    for _ in 0..share {
                        match TcpStream::connect(addr) {
                            Ok(stream) => streams.push(stream),
                            Err(_) => errors += 1,
                        }
                    }
                    (streams, errors)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let mut streams = Vec::with_capacity(count);
    for (mut batch, errors) in results {
        streams.append(&mut batch);
        *conn_errors += errors;
    }
    streams
}

/// Run the load generator. Individual connection failures (including
/// `EMFILE` when the fd limit is hit) are counted in
/// [`LoadgenReport::conn_errors`] and their workload redistributed;
/// only failing to open *any* connection is an `Err`.
pub fn run(cfg: &LoadgenConfig) -> std::io::Result<LoadgenReport> {
    assert!(!cfg.models.is_empty(), "loadgen needs at least one model");
    let total = cfg.requests;
    let target_conns = if cfg.connections > 0 {
        cfg.connections
    } else {
        cfg.concurrency
    }
    .max(1)
    .min(total.max(1));

    let mut report = LoadgenReport {
        sent: total as u64,
        fleet: cfg.fleet,
        shed_report: cfg.shed_report,
        cell_report: cfg.cell_report || !cfg.mix.is_empty(),
        ..LoadgenReport::default()
    };
    let patterns = RequestPatterns::new(cfg);
    let mut tally = Tally {
        latencies_us: Vec::with_capacity(total),
        per_cell: patterns
            .keys
            .iter()
            .map(|k| CellTally {
                key: k.clone(),
                ..CellTally::default()
            })
            .collect(),
        ..Tally::default()
    };
    // `sent` per cell is deterministic: the shared cursor issues
    // exactly requests 0..total through the periodic schedule.
    for i in 0..total {
        tally.per_cell[patterns.slot(i)].sent += 1;
    }
    let mut reference_plans: Vec<Option<String>> = vec![None; patterns.cells()];
    let poller = Poller::new()?;
    let start = Instant::now();

    // Open the fleet of connections. Failures are counted, not fatal:
    // the request cursor is shared, so survivors absorb the load.
    let mut conns: Vec<Conn> = Vec::with_capacity(target_conns);
    for stream in connect_fleet(&cfg.addr, target_conns, &mut report.conn_errors) {
        // Without this, Nagle holds request lines back against
        // the server's delayed ACK — a ~40 ms stall per request.
        let _ = stream.set_nodelay(true);
        if stream.set_nonblocking(true).is_err() {
            report.conn_errors += 1;
            continue;
        }
        let token = conns.len() as u64;
        if poller
            .add(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            report.conn_errors += 1;
            continue;
        }
        conns.push(Conn {
            stream,
            framer: LineFramer::new(MAX_RESPONSE_LINE),
            wbuf: WriteBuf::new(),
            inflight: None,
            want_write: false,
            dead: false,
        });
    }
    if conns.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::ConnectionRefused,
            format!(
                "loadgen could not open any of {target_conns} connections to {}",
                cfg.addr
            ),
        ));
    }

    // The shared request cursor: the next request index to issue.
    let mut next = 0usize;
    // Requests with a final outcome (classified or errored).
    let mut done = 0usize;
    let mut live = conns.len();

    // Prime every connection with its first request.
    for idx in 0..conns.len() {
        issue_next(&poller, &mut conns[idx], idx, &patterns, &mut next, total);
        if conns[idx].dead {
            live -= 1;
            report.conn_errors += 1;
        }
    }

    let mut events = Vec::new();
    let mut last_progress = Instant::now();
    while done < total && live > 0 {
        poller.wait(&mut events, 100)?;
        if events.is_empty() && last_progress.elapsed() > STALL_TIMEOUT {
            break;
        }
        let mut progressed = false;
        for i in 0..events.len() {
            let ev = events[i];
            let idx = ev.token as usize;
            if conns[idx].dead {
                continue;
            }
            if ev.readable {
                drive_read(
                    &poller,
                    &mut conns[idx],
                    idx,
                    &patterns,
                    &mut next,
                    total,
                    &mut done,
                    &mut tally,
                    &mut reference_plans,
                );
                progressed = true;
            }
            if ev.writable && !conns[idx].dead {
                drive_write(&poller, &mut conns[idx], idx);
            }
            if conns[idx].dead {
                // A death with a request in flight is that request's
                // final outcome.
                if let Some((slot, _)) = conns[idx].inflight.take() {
                    tally.errors += 1;
                    tally.per_cell[slot].errors += 1;
                    done += 1;
                }
                live -= 1;
            }
        }
        if progressed {
            last_progress = Instant::now();
        }
    }
    // Whatever never got an answer (all connections died, or the server
    // stalled) counts as errors.
    tally.errors += (total - done) as u64;

    report.elapsed = start.elapsed();
    report.ok = tally.ok;
    report.cache_hits = tally.cache_hits;
    report.shed = tally.shed;
    report.deadline = tally.deadline;
    report.errors = tally.errors;
    report.plan_mismatches = tally.mismatches;
    tally.latencies_us.sort_unstable();
    report.p50_us = percentile(&tally.latencies_us, 50);
    report.p95_us = percentile(&tally.latencies_us, 95);
    report.p99_us = percentile(&tally.latencies_us, 99);
    report.max_us = tally.latencies_us.last().copied().unwrap_or(0);
    report.per_node = tally
        .per_node
        .into_iter()
        .map(|(node, (ok, cache_hits))| NodeTally {
            node,
            ok,
            cache_hits,
        })
        .collect();
    report.per_node.sort_by(|a, b| a.node.cmp(&b.node));
    report.cells = tally.per_cell;
    drop(conns);
    // One stats fetch covers single node and fleet alike (the router
    // answers in the node shape with fleet-wide aggregates).
    report.server = fetch_server_stats(&cfg.addr);

    if cfg.shutdown {
        if let Ok(mut stream) = TcpStream::connect(&cfg.addr) {
            let _ = writeln!(stream, "{{\"op\":\"shutdown\"}}");
            let mut reader = BufReader::new(&stream);
            let mut ack = String::new();
            let _ = reader.read_line(&mut ack);
        }
    }
    Ok(report)
}

/// Pull the next request off the shared cursor onto `c` (if any are
/// left) and start writing it. An idle connection with no request to
/// issue just keeps read interest (it is done for the run).
fn issue_next(
    poller: &Poller,
    c: &mut Conn,
    idx: usize,
    patterns: &RequestPatterns,
    next: &mut usize,
    total: usize,
) {
    if *next >= total || c.inflight.is_some() {
        return;
    }
    let i = *next;
    *next += 1;
    let slot = patterns.slot(i);
    c.inflight = Some((slot, Instant::now()));
    c.wbuf.push_line(patterns.line(slot));
    drive_write(poller, c, idx);
}

/// Flush the connection's write buffer and keep its epoll interest in
/// sync with whether bytes remain.
fn drive_write(poller: &Poller, c: &mut Conn, idx: usize) {
    match c.wbuf.flush_to(&mut c.stream) {
        Ok(drained) => {
            let want_write = !drained;
            if want_write != c.want_write {
                let interest = if want_write {
                    Interest::BOTH
                } else {
                    Interest::READ
                };
                if poller
                    .modify(c.stream.as_raw_fd(), idx as u64, interest)
                    .is_err()
                {
                    kill(c);
                    return;
                }
                c.want_write = want_write;
            }
        }
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        Err(_) => kill(c),
    }
}

/// One readable event: a single socket read, then classify every
/// complete response line and issue follow-up requests.
#[allow(clippy::too_many_arguments)]
fn drive_read(
    poller: &Poller,
    c: &mut Conn,
    idx: usize,
    patterns: &RequestPatterns,
    next: &mut usize,
    total: usize,
    done: &mut usize,
    tally: &mut Tally,
    reference_plans: &mut [Option<String>],
) {
    match c.framer.read_from(&mut c.stream) {
        Ok(0) => {
            kill(c);
            return;
        }
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
        Err(_) => {
            kill(c);
            return;
        }
    }
    let mut issued = false;
    loop {
        // The response line is classified in place (no copy); follow-up
        // requests go straight into the write buffer — its borrow is
        // disjoint from the framer's — and flush once after the loop.
        match c.framer.next_line() {
            Ok(Some(line)) => {
                let Some((slot, sent_at)) = c.inflight.take() else {
                    // A response with nothing in flight: protocol
                    // confusion.
                    kill(c);
                    return;
                };
                tally
                    .latencies_us
                    .push(u64::try_from(sent_at.elapsed().as_micros()).unwrap_or(u64::MAX));
                classify(line, &mut reference_plans[slot], tally, slot);
                *done += 1;
                if *next < total {
                    let follow_up = patterns.slot(*next);
                    *next += 1;
                    c.inflight = Some((follow_up, Instant::now()));
                    c.wbuf.push_line(patterns.line(follow_up));
                    issued = true;
                }
            }
            Ok(None) => break,
            Err(_) => {
                kill(c);
                return;
            }
        }
    }
    if issued {
        drive_write(poller, c, idx);
    }
}

/// Tear a connection down: it stops participating in the run.
fn kill(c: &mut Conn) {
    // Closing via shutdown is enough; dropping the stream at end of run
    // closes the fd, which removes it from the epoll set implicitly.
    let _ = c.stream.shutdown(Shutdown::Both);
    c.dead = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 95), 95);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&[], 50), 0);
        assert_eq!(percentile(&[7], 99), 7);
    }

    #[test]
    fn plan_payload_slices_the_trailing_object() {
        let line = r#"{"status":"ok","cache_hit":false,"plan":{"network":"x","layers":[]}}"#;
        assert_eq!(plan_payload(line), Some(r#"{"network":"x","layers":[]}"#));
        assert_eq!(plan_payload(r#"{"status":"shed"}"#), None);
    }

    #[test]
    fn report_rates_and_render() {
        let r = LoadgenReport {
            sent: 10,
            ok: 8,
            cache_hits: 4,
            shed: 1,
            deadline: 1,
            elapsed: Duration::from_secs(2),
            p50_us: 100,
            p95_us: 200,
            p99_us: 300,
            ..LoadgenReport::default()
        };
        assert_eq!(r.throughput_rps(), 5.0);
        assert_eq!(r.hit_rate(), 0.5);
        let text = r.render();
        assert!(text.contains("p50 100us"));
        assert!(text.contains("50.0% hit rate"));
        assert!(!text.contains("conn_errors"), "only shown when non-zero");
    }

    #[test]
    fn render_surfaces_conn_errors_and_admission_section() {
        let r = LoadgenReport {
            sent: 10,
            ok: 10,
            conn_errors: 3,
            shed_report: true,
            server: Some(ServerStats {
                shed: 7,
                shed_adaptive: 5,
                queue_depth_peak: 12,
                ewma_latency_us: 4200,
                inline_hits: 9,
                ..ServerStats::default()
            }),
            ..LoadgenReport::default()
        };
        let text = r.render();
        assert!(text.contains("conn_errors: 3"), "{text}");
        assert!(
            text.contains("admission:  shed 2 static + 5 adaptive"),
            "{text}"
        );
        assert!(text.contains("ewma 4200us"), "{text}");
        assert!(text.contains("queue peak 12"), "{text}");
        assert!(text.contains("inline hits 9"), "{text}");
    }

    #[test]
    fn build_request_crosses_models_with_glb_set() {
        let cfg = LoadgenConfig {
            models: vec!["a".into(), "b".into()],
            glb_set: vec![32, 64],
            ..LoadgenConfig::default()
        };
        let (line0, key0) = build_request(&cfg, 0);
        let (_, key1) = build_request(&cfg, 1);
        let (_, key2) = build_request(&cfg, 2);
        assert!(line0.contains("\"model\":\"a\""));
        assert_eq!(key0, "a@32");
        assert_eq!(key1, "b@32");
        assert_eq!(key2, "a@64");
    }

    #[test]
    fn mix_spec_parses_and_rejects_garbage() {
        let mix = parse_mix("resnet18:64=5, mobilenet:256").unwrap();
        assert_eq!(
            mix,
            vec![
                MixEntry {
                    model: "resnet18".into(),
                    glb_kb: 64,
                    weight: 5
                },
                MixEntry {
                    model: "mobilenet".into(),
                    glb_kb: 256,
                    weight: 1
                },
            ]
        );
        for bad in [
            "",
            "resnet18",
            "resnet18:0",
            "resnet18:64=0",
            ":64=1",
            "m:x=1",
            "m:64=x",
        ] {
            assert!(parse_mix(bad).is_err(), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn mix_weights_reduce_by_gcd_and_huge_cycles_are_rejected() {
        // Common factors collapse: 4e9:2e9 is the same mix as 2:1 and
        // must not materialize a multi-gigabyte schedule.
        let mix = parse_mix("a:64=4000000000,b:128=2000000000").unwrap();
        assert_eq!(mix[0].weight, 2);
        assert_eq!(mix[1].weight, 1);
        // Coprime weights whose sum exceeds the cycle bound are refused.
        let err = parse_mix("a:64=4000000001,b:128=3").unwrap_err();
        assert!(err.contains("GCD"), "{err}");
        // The boundary itself is accepted.
        assert!(parse_mix(&format!("a:64={},b:128=1", MAX_MIX_CYCLE - 1)).is_ok());
    }

    #[test]
    fn swrr_reduces_weights_to_a_minimal_cycle() {
        let sched = swrr_schedule(&[4_000_000_000, 2_000_000_000]);
        assert_eq!(sched.len(), 3, "4e9:2e9 reduces to one 2:1 cycle");
        assert_eq!(sched.iter().filter(|&&s| s == 0).count(), 2);
    }

    #[test]
    fn swrr_spreads_heavy_cells_through_the_cycle() {
        let sched = swrr_schedule(&[5, 1]);
        assert_eq!(sched.len(), 6);
        assert_eq!(sched.iter().filter(|&&s| s == 0).count(), 5);
        assert_eq!(sched.iter().filter(|&&s| s == 1).count(), 1);
        // Smoothness: the light cell sits inside the cycle, not at the
        // very start, and the heavy cell never yields twice to it.
        assert_eq!(sched[0], 0);
        let sched3 = swrr_schedule(&[2, 1, 1]);
        assert_eq!(sched3.len(), 4);
        // No cell appears more often than its weight allows.
        for (i, w) in [2usize, 1, 1].iter().enumerate() {
            assert_eq!(sched3.iter().filter(|&&s| s == i).count(), *w);
        }
    }

    #[test]
    fn mix_patterns_schedule_weighted_cells() {
        let cfg = LoadgenConfig {
            mix: parse_mix("a:64=3,b:128=1").unwrap(),
            plan_delay_ms: Some(7),
            ..LoadgenConfig::default()
        };
        let patterns = RequestPatterns::new(&cfg);
        assert_eq!(patterns.cells(), 2);
        assert_eq!(patterns.period, 4);
        assert_eq!(patterns.keys, vec!["a@64", "b@128"]);
        let a_count = (0..8).filter(|&i| patterns.slot(i) == 0).count();
        assert_eq!(a_count, 6, "weight 3:1 over two periods");
        assert!(patterns.line(0).contains("\"model\":\"a\""));
        assert!(patterns.line(0).contains("\"glb_kb\":64"));
        assert!(patterns.line(0).contains("\"delay_ms\":7"));
        assert!(patterns.line(1).contains("\"model\":\"b\""));
    }

    #[test]
    fn cell_breakdown_renders_shed_vs_miss() {
        let r = LoadgenReport {
            sent: 10,
            ok: 6,
            cell_report: true,
            cells: vec![
                CellTally {
                    key: "resnet18@64".into(),
                    sent: 8,
                    ok: 6,
                    cache_hits: 4,
                    shed: 2,
                    ..CellTally::default()
                },
                CellTally {
                    key: "mobilenet@256".into(),
                    sent: 2,
                    deadline: 2,
                    ..CellTally::default()
                },
            ],
            ..LoadgenReport::default()
        };
        let text = r.render();
        assert!(
            text.contains("cell:       resnet18@64 sent=8 ok=6 hits=4 miss=2 shed=2"),
            "{text}"
        );
        assert!(text.contains("mobilenet@256 sent=2"), "{text}");
        let quiet = LoadgenReport::default().render();
        assert!(!quiet.contains("cell:"), "section is opt-in");
    }

    #[test]
    fn request_patterns_match_build_request_for_all_indices() {
        let cfg = LoadgenConfig {
            models: vec!["a".into(), "b".into(), "c".into()],
            glb_set: vec![32, 64],
            deadline_ms: Some(10),
            ..LoadgenConfig::default()
        };
        let patterns = RequestPatterns::new(&cfg);
        assert_eq!(patterns.period, 6);
        // The pre-rendered table must reproduce build_request exactly,
        // including past the first period (the cycle is what makes the
        // table small).
        for i in 0..20 {
            assert_eq!(patterns.line(patterns.slot(i)), build_request(&cfg, i).0);
        }
    }
}
