//! `serve-hot` and `fleet-churn`: an in-process planning server (or a
//! router in front of three nodes) driven over TCP by the benchmark's
//! own closed-loop client: each client thread holds one connection and
//! sends its next request only after the previous response arrived.

use crate::metric;
use crate::report::{plan_quality, Ctx, Metric, Outcome, Tally};
use crate::rng::{SplitMix64, Zipf};
use crate::stats::{self, Histogram, WINDOW_S};
use crate::trace::Trace;
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_core::report::{json_escape, plan_json};
use smm_core::{
    CancelToken, ExecutionPlan, ManagerConfig, NetworkRef, Objective, PlanScheme, PlanSpec,
    SchedulerKind,
};
use smm_fleet::{Router, RouterConfig};
use smm_model::{topology, zoo};
use smm_obs::json::{self, Value};
use smm_serve::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `serve-hot` keys: the paper and transformer models at four GLB
/// sizes under both schedulers — 64 keys, half the default cache.
const HOT_MODELS: [&str; 8] = [
    "efficientnetb0",
    "googlenet",
    "mnasnet",
    "mobilenet",
    "mobilenetv2",
    "resnet18",
    "bert-tiny",
    "gemm-bench",
];
const HOT_GLB_KB: [u64; 4] = [64, 128, 256, 512];

/// `fleet-churn` zoo keys: every zoo model at four GLB sizes under both
/// schedulers (96 keys), plus inline-CSV keys; three nodes of
/// `CHURN_CACHE_CAP` entries hold half of them.
const CHURN_MODELS: [&str; 12] = [
    "efficientnetb0",
    "googlenet",
    "mnasnet",
    "mobilenet",
    "mobilenetv2",
    "resnet18",
    "alexnet",
    "resnet34",
    "squeezenet",
    "vgg16",
    "bert-tiny",
    "gemm-bench",
];
const CHURN_GLB_KB: [u64; 4] = [64, 128, 256, 512];
const CSV_MODELS: [&str; 4] = ["resnet18", "mobilenet", "mnasnet", "bert-tiny"];
const CSV_GLB_KB: [u64; 2] = [64, 256];
const CHURN_NODES: u16 = 3;
/// Fleet nodes listen on fixed loopback ports: a node's address is its
/// identity on the router's hash ring, so ephemeral ports would move
/// the hot keys between nodes from run to run.
const CHURN_BASE_PORT: u16 = 47_301;
const CHURN_CACHE_CAP: usize = 16;
/// Zipf exponent of the zoo-key popularity.
const ZIPF_S: f64 = 1.0;
/// Share of requests that carry an inline topology CSV.
const CSV_SHARE: f64 = 0.1;
/// Fixed popularity order of the zoo keys (independent of `--seed`, so
/// every seed has the same hot set and only the stream differs).
const RANK_SEED: u64 = 0x5EED_F00D;

/// Closed-loop client connections, one thread each. On two cores, two
/// clients plus the server's two reactor shards oversubscribe the CPU:
/// back-to-back runs of one seed ranged ±17 % in req/s with two
/// clients and ±6 % with one.
const CLIENTS: u64 = 1;
/// Requests a client sends between deadline checks: runs end on whole
/// rounds.
const ROUND: u64 = 64;
/// Nodes of the per-layer serving pass (see [`probe`]).
const PROBE_NODES: usize = 2;

/// The fleet-churn nodes' addresses: their identities on the ring.
pub fn churn_backends() -> Vec<String> {
    (0..CHURN_NODES)
        .map(|i| format!("127.0.0.1:{}", CHURN_BASE_PORT + i))
        .collect()
}

/// One distinct planning request and the plan it must be answered with.
struct Key {
    /// The request line after `{"id":"…",`, newline included.
    body: String,
    spec: PlanSpec,
    /// The benchmark's own fresh plan for `spec`, and its `plan_json`.
    plan: ExecutionPlan,
    expected: String,
}

/// The request line of `spec` after `{"id":"…",`, newline included.
/// Objective, prefetch, reuse and batch stay at the protocol's defaults.
pub fn request_body(spec: &PlanSpec) -> String {
    let network = match &spec.network {
        NetworkRef::Zoo(model) => format!("\"model\":\"{model}\""),
        NetworkRef::Inline { name, topology } => {
            format!(
                "\"topology\":\"{}\",\"name\":\"{name}\"",
                json_escape(topology)
            )
        }
    };
    let scheme = match spec.scheme {
        PlanScheme::Heterogeneous => "",
        PlanScheme::BestHomogeneous => ",\"scheme\":\"hom\"",
    };
    format!(
        "{network},\"glb_kb\":{},\"scheduler\":\"{}\"{scheme}}}\n",
        spec.accelerator.glb.bytes() / 1024,
        spec.config.scheduler
    )
}

fn key(network: NetworkRef, glb_kb: u64, scheduler: SchedulerKind) -> Result<Key, String> {
    let spec = PlanSpec::new(
        network,
        AcceleratorConfig::paper_default(ByteSize::from_kb(glb_kb)),
        ManagerConfig::new(Objective::Accesses).with_scheduler(scheduler),
        PlanScheme::Heterogeneous,
    );
    let plan = spec
        .run(&CancelToken::none())
        .map_err(|e| format!("{}: {e}", spec.network.name()))?;
    let expected = plan_json(&plan, &spec.accelerator);
    Ok(Key {
        body: request_body(&spec),
        spec,
        plan,
        expected,
    })
}

const SCHEDULERS: [SchedulerKind; 2] = [SchedulerKind::Greedy, SchedulerKind::Global];

fn zoo_keys(models: &[&str], glb: &[u64]) -> Result<Vec<Key>, String> {
    let mut out = Vec::new();
    for &model in models {
        for &glb_kb in glb {
            for scheduler in SCHEDULERS {
                out.push(key(NetworkRef::Zoo(model.into()), glb_kb, scheduler)?);
            }
        }
    }
    Ok(out)
}

fn csv_keys() -> Result<Vec<Key>, String> {
    let mut out = Vec::new();
    for model in CSV_MODELS {
        let net = zoo::by_name(model).ok_or_else(|| format!("unknown model {model}"))?;
        for glb_kb in CSV_GLB_KB {
            let network = NetworkRef::Inline {
                name: format!("{model}-csv"),
                topology: topology::write(&net),
            };
            out.push(key(network, glb_kb, SchedulerKind::Greedy)?);
        }
    }
    Ok(out)
}

/// Which key each request of a client thread asks for.
#[derive(Clone)]
enum Mix {
    /// Uniform over all keys.
    Uniform { keys: usize },
    /// Zipf over the zoo keys (`rank[r]` is the key at popularity rank
    /// `r`), and with probability `csv_share` a uniform pick among the
    /// CSV keys that follow them.
    Churn {
        zipf: Zipf,
        rank: Vec<usize>,
        csv: usize,
        csv_share: f64,
    },
}

impl Mix {
    fn churn(zoo: usize, csv: usize) -> Mix {
        let mut rank: Vec<usize> = (0..zoo).collect();
        SplitMix64::new(RANK_SEED).shuffle(&mut rank);
        Mix::Churn {
            zipf: Zipf::new(zoo, ZIPF_S),
            rank,
            csv,
            csv_share: CSV_SHARE,
        }
    }
}

/// The seeded request stream of one client thread.
struct Stream {
    mix: Mix,
    rng: SplitMix64,
}

impl Stream {
    fn new(mix: Mix, seed: u64, thread: u64) -> Self {
        Stream {
            mix,
            rng: SplitMix64::stream(seed, thread + 1),
        }
    }

    fn next_key(&mut self) -> usize {
        match &self.mix {
            Mix::Uniform { keys } => self.rng.below(*keys),
            Mix::Churn {
                zipf,
                rank,
                csv,
                csv_share,
            } => {
                if self.rng.unit() < *csv_share {
                    rank.len() + self.rng.below(*csv)
                } else {
                    rank[zipf.sample(&mut self.rng)]
                }
            }
        }
    }
}

/// Check one response line against its request: status `ok`, the
/// request's id, and a plan byte-equal to `expected`. Returns whether
/// the server reported a cache hit.
fn check_response(resp: &str, id: &str, expected: &str) -> Result<bool, String> {
    let short = || resp.chars().take(160).collect::<String>();
    let resp = resp
        .strip_suffix('\n')
        .ok_or_else(|| format!("unterminated response {}", short()))?;
    let plan_at = resp
        .find(",\"plan\":")
        .ok_or_else(|| format!("no plan in {}", short()))?;
    let envelope = &resp[..plan_at];
    if !envelope.contains("\"status\":\"ok\"") {
        return Err(format!("status not ok: {}", short()));
    }
    let id_field = format!("\"id\":\"{id}\",");
    if !envelope.contains(&id_field) {
        return Err(format!("response does not carry id {id}: {}", short()));
    }
    let plan = resp[plan_at + 8..]
        .strip_suffix('}')
        .ok_or_else(|| format!("truncated {}", short()))?;
    if plan != expected {
        return Err(format!(
            "plan for {id} differs from the benchmark's own plan_json"
        ));
    }
    match (
        envelope.contains("\"cache_hit\":true"),
        envelope.contains("\"cache_hit\":false"),
    ) {
        (true, false) => Ok(true),
        (false, true) => Ok(false),
        _ => Err(format!("no cache_hit verdict in {}", short())),
    }
}

/// What one client thread saw.
struct ClientOut {
    /// Latencies by the one-second window in which they completed.
    windows: Vec<Histogram>,
    hits: u64,
    ok: u64,
    tally: Tally,
    trace: Trace,
}

fn connect(addr: SocketAddr) -> std::io::Result<(TcpStream, BufReader<TcpStream>)> {
    let conn = TcpStream::connect(addr)?;
    conn.set_nodelay(true)?;
    conn.set_read_timeout(Some(Duration::from_secs(30)))?;
    let reader = BufReader::new(conn.try_clone()?);
    Ok((conn, reader))
}

/// Timing of one load segment, shared by its client threads.
#[derive(Clone, Copy)]
struct Clock {
    start: Instant,
    deadline: Instant,
    windows: usize,
}

impl Clock {
    fn new(seconds: f64) -> Clock {
        let start = Instant::now();
        Clock {
            start,
            deadline: start + Duration::from_secs_f64(seconds),
            // Whole windows before the deadline, plus one for the tail.
            windows: (seconds / WINDOW_S) as usize + 1,
        }
    }

    fn window(&self, at: Instant) -> usize {
        ((at.duration_since(self.start).as_secs_f64() / WINDOW_S) as usize).min(self.windows - 1)
    }
}

/// One closed-loop client: whole rounds of requests until the deadline.
fn client(
    addr: SocketAddr,
    keys: &[Key],
    mut stream: Stream,
    tid: u64,
    clock: Clock,
    trace: Trace,
) -> ClientOut {
    let mut out = ClientOut {
        windows: vec![Histogram::default(); clock.windows],
        hits: 0,
        ok: 0,
        tally: Tally::default(),
        trace,
    };
    let (mut conn, mut reader) = match connect(addr) {
        Ok(c) => c,
        Err(e) => {
            out.tally.op(Err(format!("client {tid}: connect: {e}")));
            return out;
        }
    };
    let mut line = String::new();
    let mut resp = String::new();
    let mut n = 0u64;
    'rounds: while Instant::now() < clock.deadline {
        for _ in 0..ROUND {
            let k = &keys[stream.next_key()];
            let id = format!("{tid}-{n}");
            n += 1;
            line.clear();
            line.push_str("{\"id\":\"");
            line.push_str(&id);
            line.push_str("\",");
            line.push_str(&k.body);
            resp.clear();
            out.trace.begin("serve.client.request", n);
            let t0 = Instant::now();
            let io = conn
                .write_all(line.as_bytes())
                .and_then(|()| reader.read_line(&mut resp));
            let t1 = Instant::now();
            out.trace.end();
            out.windows[clock.window(t1)].record(t1.duration_since(t0).as_nanos() as u64);
            if let Err(e) = io {
                out.tally
                    .op(Err(format!("client {tid}: request {id}: {e}")));
                break 'rounds;
            }
            let checked = check_response(&resp, &id, &k.expected).map(|hit| {
                out.ok += 1;
                out.hits += u64::from(hit);
            });
            out.tally.op(checked);
        }
    }
    out
}

/// All client threads' results, merged.
struct Load {
    /// Latencies by completion window, over all clients; the last
    /// window holds the tail past the deadline.
    windows: Vec<Histogram>,
    requests: u64,
    hits: u64,
    ok: u64,
    wall_s: f64,
    trace: Trace,
}

/// What the clients drive: a server or router, its keys and the mix.
struct Target<'k> {
    addr: SocketAddr,
    keys: &'k [Key],
    mix: Mix,
}

impl Target<'_> {
    /// Run `CLIENTS` closed-loop clients for `seconds`; each draws its
    /// own seeded stream (`segment` separates the streams of a traced
    /// run's segments).
    fn drive(
        &self,
        ctx: &Ctx,
        segment: u64,
        seconds: f64,
        traced: bool,
        tally: &mut Tally,
    ) -> Load {
        let clock = Clock::new(seconds);
        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..CLIENTS)
                .map(|t| {
                    let stream = Stream::new(self.mix.clone(), ctx.seed, segment * 16 + t);
                    let trace = Trace::new(traced, ctx.start, t + 2);
                    let (addr, keys) = (self.addr, self.keys);
                    s.spawn(move || client(addr, keys, stream, t, clock, trace))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let mut load = Load {
            windows: vec![Histogram::default(); clock.windows],
            requests: 0,
            hits: 0,
            ok: 0,
            wall_s: clock.start.elapsed().as_secs_f64(),
            trace: Trace::new(traced, ctx.start, 1),
        };
        for o in outs {
            for (w, h) in load.windows.iter_mut().zip(&o.windows) {
                w.merge(h);
            }
            load.hits += o.hits;
            load.ok += o.ok;
            tally.merge(o.tally);
            load.trace.merge(o.trace);
        }
        load.requests = load.windows.iter().map(Histogram::count).sum();
        load
    }

    /// The measured load; with the trace on, four segments alternate
    /// untraced and traced, and their rates give the tracing overhead.
    fn measure(&self, ctx: &Ctx, tally: &mut Tally) -> Phases {
        if !ctx.trace {
            let load = self.drive(ctx, 0, ctx.seconds, false, tally);
            return Phases {
                load,
                overhead_pct: 0.0,
            };
        }
        let mut segments =
            (0..4).map(|seg| self.drive(ctx, seg, ctx.seconds / 4.0, seg % 2 == 1, tally));
        let mut plain = segments.next().expect("four segments");
        let mut load = segments.next().expect("four segments");
        plain.absorb(segments.next().expect("four segments"));
        load.absorb(segments.next().expect("four segments"));
        let overhead_pct = (plain.rate() / load.rate() - 1.0) * 100.0;
        load.absorb(plain);
        Phases { load, overhead_pct }
    }
}

impl Load {
    fn rate(&self) -> f64 {
        self.requests as f64 / self.wall_s
    }

    /// Fold another segment's counts into this one (for traced runs,
    /// which report no per-window figures).
    fn absorb(&mut self, other: Load) {
        self.requests += other.requests;
        self.hits += other.hits;
        self.ok += other.ok;
        self.wall_s += other.wall_s;
        self.trace.merge(other.trace);
    }

    /// Medians over the whole one-second windows: a burst of outside
    /// load moves one window, not the result.
    fn end_to_end(&self) -> [Metric; 3] {
        let full = &self.windows[..self.windows.len() - 1];
        let busy: Vec<&Histogram> = full.iter().filter(|h| h.count() > 0).collect();
        let over = |f: &dyn Fn(&Histogram) -> f64| {
            stats::median(&busy.iter().map(|h| f(h)).collect::<Vec<_>>())
        };
        [
            metric(
                "ops_per_s",
                stats::median(
                    &full
                        .iter()
                        .map(|h| h.count() as f64 / WINDOW_S)
                        .collect::<Vec<_>>(),
                ),
            ),
            metric("op_p50_us", over(&|h| h.percentile(50.0) / 1e3)),
            metric("op_p90_us", over(&|h| h.percentile(90.0) / 1e3)),
        ]
    }
}

/// A `stats` snapshot, read over its own connection.
struct Stats(Value);

impl Stats {
    fn fetch(addr: SocketAddr) -> Result<Stats, String> {
        let (mut conn, mut reader) = connect(addr).map_err(|e| format!("stats connect: {e}"))?;
        conn.write_all(b"{\"op\":\"stats\"}\n")
            .map_err(|e| format!("stats write: {e}"))?;
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .map_err(|e| format!("stats read: {e}"))?;
        json::parse(&line)
            .map(Stats)
            .map_err(|e| format!("stats reply {line:?}: {e}"))
    }

    fn num(&self, path: &[&str]) -> Result<u64, String> {
        let mut v = &self.0;
        for p in path {
            v = v
                .get(p)
                .ok_or_else(|| format!("stats has no {}", path.join(".")))?;
        }
        match v {
            Value::Number(n) => Ok(*n as u64),
            other => Err(format!("stats {} is {other:?}", path.join("."))),
        }
    }

    /// Per-node `routed` counts of a router's `stats`, in node order.
    fn routed_per_node(&self) -> Result<Vec<u64>, String> {
        match self.0.get("per_node") {
            Some(Value::Array(nodes)) => nodes
                .iter()
                .map(|n| match n.get("routed") {
                    Some(Value::Number(x)) => Ok(*x as u64),
                    _ => Err("per_node entry without routed".to_string()),
                })
                .collect(),
            _ => Err("stats has no per_node array".into()),
        }
    }
}

/// Send every key once, in order, over one connection, checking each
/// answer. Returns how many came back as cache hits.
fn warm(addr: SocketAddr, keys: &[Key]) -> Result<u64, String> {
    let (mut conn, mut reader) = connect(addr).map_err(|e| format!("warm-up connect: {e}"))?;
    let mut hits = 0;
    let mut resp = String::new();
    for (i, k) in keys.iter().enumerate() {
        let id = format!("warm-{i}");
        conn.write_all(format!("{{\"id\":\"{id}\",{}", k.body).as_bytes())
            .map_err(|e| format!("warm-up write: {e}"))?;
        resp.clear();
        reader
            .read_line(&mut resp)
            .map_err(|e| format!("warm-up read: {e}"))?;
        hits += u64::from(check_response(&resp, &id, &k.expected)?);
    }
    Ok(hits)
}

/// The measured load, and the tracing overhead of a traced run.
struct Phases {
    load: Load,
    overhead_pct: f64,
}

/// `serve-hot` counts: every ok response was a hit, and the server's
/// `stats` counted each one as a cache hit answered inline.
fn hot_counts(ok: u64, client_hits: u64, server_hits: u64, inline_hits: u64) -> Result<(), String> {
    if client_hits == ok && server_hits == ok && inline_hits == ok {
        return Ok(());
    }
    Err(format!(
        "{ok} ok responses, {client_hits} client-seen hits, server hits +{server_hits}, inline hits +{inline_hits}"
    ))
}

/// `fleet-churn` counts: the nodes' hits equal the hits clients saw, and
/// the per-node ok counts and the router's forwards each sum to the
/// clients' ok count.
fn churn_counts(
    ok: u64,
    client_hits: u64,
    server_hits: u64,
    node_ok: u64,
    forwards: u64,
) -> Result<(), String> {
    if server_hits == client_hits && node_ok == ok && forwards == ok {
        return Ok(());
    }
    Err(format!(
        "clients: {ok} ok / {client_hits} hits; nodes: +{server_hits} hits, +{node_ok} routed; router: +{forwards} forwards"
    ))
}

/// The end-to-end metrics of an untraced run (with `offchip_mb` and
/// `plan_mcycles` over the key set), or the tracing overhead of a traced
/// one, together with the spans and the key set's specs.
fn outcome(ctx: &Ctx, setup_s: f64, keys: &[Key], phases: Phases) -> Outcome {
    let Phases { load, overhead_pct } = phases;
    let metrics = if ctx.trace {
        vec![metric("trace.overhead_pct", overhead_pct)]
    } else {
        let mut out = vec![metric("setup_s", setup_s)];
        out.extend(load.end_to_end());
        out.extend(plan_quality(
            keys.iter().map(|k| (&k.plan, k.spec.accelerator)),
        ));
        out
    };
    let specs: Vec<PlanSpec> = keys.iter().map(|k| k.spec.clone()).collect();
    // The greedy zoo plans at the largest GLB size are verified.
    let glb = specs.iter().map(|s| s.accelerator.glb).max();
    let verify = (0..specs.len())
        .filter(|&i| {
            let s = &specs[i];
            matches!(s.network, NetworkRef::Zoo(_))
                && Some(s.accelerator.glb) == glb
                && s.config.scheduler == SchedulerKind::Greedy
        })
        .collect();
    Outcome {
        metrics,
        trace: load.trace,
        specs,
        verify,
    }
}

pub fn run_serve_hot(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let keys = zoo_keys(&HOT_MODELS, &HOT_GLB_KB)?;
    let server =
        Server::spawn(ServerConfig::default()).map_err(|e| format!("spawn server: {e}"))?;
    let addr = server.local_addr();
    let result = (|| {
        let cold_hits = warm(addr, &keys)?;
        let warm_hits = warm(addr, &keys)?;
        if cold_hits != 0 || warm_hits != keys.len() as u64 {
            return Err(format!(
                "warm-up saw {cold_hits} cold and {warm_hits}/{} warm hits",
                keys.len()
            ));
        }
        let before = Stats::fetch(addr)?;
        let setup_s = ctx.start.elapsed().as_secs_f64();
        let target = Target {
            addr,
            keys: &keys,
            mix: Mix::Uniform { keys: keys.len() },
        };
        let phases = target.measure(ctx, tally);
        let after = Stats::fetch(addr)?;
        let delta = |path: &[&str]| Ok::<u64, String>(after.num(path)? - before.num(path)?);
        // Every request is a hit answered inline on the reactor.
        let hits = delta(&["cache", "hits"])?;
        let inline = delta(&["inline_hits"])?;
        let load = &phases.load;
        if let Err(e) = hot_counts(load.ok, load.hits, hits, inline) {
            tally.fail(e);
        }
        Ok(outcome(ctx, setup_s, &keys, phases))
    })();
    server.stop();
    server.join();
    result
}

pub fn run_fleet_churn(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let mut keys = zoo_keys(&CHURN_MODELS, &CHURN_GLB_KB)?;
    let zoo_n = keys.len();
    keys.extend(csv_keys()?);
    let mut nodes = Vec::new();
    for addr in churn_backends() {
        let cfg = ServerConfig {
            addr: addr.clone(),
            cache_cap: CHURN_CACHE_CAP,
            ..ServerConfig::default()
        };
        match Server::spawn(cfg) {
            Ok(node) => nodes.push(node),
            Err(e) => {
                stop_all(None, nodes);
                return Err(format!("spawn node on {addr}: {e}"));
            }
        }
    }
    let backends: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = match Router::spawn(RouterConfig {
        backends,
        ..RouterConfig::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            stop_all(None, nodes);
            return Err(format!("spawn router: {e}"));
        }
    };
    let addr = router.local_addr();
    let result = (|| {
        warm(addr, &keys)?;
        let before = Stats::fetch(addr)?;
        let setup_s = ctx.start.elapsed().as_secs_f64();
        let target = Target {
            addr,
            keys: &keys,
            mix: Mix::churn(zoo_n, keys.len() - zoo_n),
        };
        let phases = target.measure(ctx, tally);
        let after = Stats::fetch(addr)?;
        let delta = |path: &[&str]| Ok::<u64, String>(after.num(path)? - before.num(path)?);
        let hits = delta(&["cache", "hits"])?;
        let node_ok: u64 = after
            .routed_per_node()?
            .iter()
            .zip(before.routed_per_node()?)
            .map(|(a, b)| a - b)
            .sum();
        let forwards = delta(&["fleet", "routed"])?;
        let load = &phases.load;
        if let Err(e) = churn_counts(load.ok, load.hits, hits, node_ok, forwards) {
            tally.fail(e);
        }
        Ok(outcome(ctx, setup_s, &keys, phases))
    })();
    stop_all(Some(router), nodes);
    result
}

/// Per-layer serving pass: a router in front of `PROBE_NODES` fresh
/// nodes, each caching every spec, and each spec sent over one
/// connection twice — first a miss that plans on a node's worker, then
/// a hit answered from its cache. Each answer is checked against
/// `expected`. Returns the mean hit response size in kB.
pub fn probe(
    specs: &[PlanSpec],
    expected: &[Arc<String>],
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<f64, String> {
    let mut nodes = Vec::new();
    for _ in 0..PROBE_NODES {
        let cfg = ServerConfig {
            cache_cap: specs.len(),
            ..ServerConfig::default()
        };
        match Server::spawn(cfg) {
            Ok(node) => nodes.push(node),
            Err(e) => {
                stop_all(None, nodes);
                return Err(format!("spawn probe node: {e}"));
            }
        }
    }
    let router = match Router::spawn(RouterConfig {
        backends: nodes.iter().map(|n| n.local_addr().to_string()).collect(),
        ..RouterConfig::default()
    }) {
        Ok(r) => r,
        Err(e) => {
            stop_all(None, nodes);
            return Err(format!("spawn probe router: {e}"));
        }
    };
    let addr = router.local_addr();
    let result = (|| {
        let (mut conn, mut reader) = connect(addr).map_err(|e| format!("probe connect: {e}"))?;
        let mut resp = String::new();
        let mut hit_bytes = 0u64;
        for (hit, span) in [(false, "serve.client.miss"), (true, "serve.client.hit")] {
            for (i, spec) in specs.iter().enumerate() {
                let id = format!("probe-{}-{i}", u8::from(hit));
                let line = format!("{{\"id\":\"{id}\",{}", request_body(spec));
                resp.clear();
                trace
                    .span(span, i as u64, || {
                        conn.write_all(line.as_bytes())
                            .and_then(|()| reader.read_line(&mut resp))
                    })
                    .map_err(|e| format!("probe request {id}: {e}"))?;
                if hit {
                    hit_bytes += resp.len() as u64;
                }
                tally.op(
                    check_response(&resp, &id, &expected[i]).and_then(|was_hit| {
                        if was_hit == hit {
                            Ok(())
                        } else {
                            Err(format!("probe request {id}: cache_hit is {was_hit}"))
                        }
                    }),
                );
            }
        }
        Ok(hit_bytes as f64 / specs.len() as f64 / 1024.0)
    })();
    stop_all(Some(router), nodes);
    result
}

/// Stop the router, then the nodes, and wait for every thread.
fn stop_all(router: Option<smm_fleet::RouterHandle>, nodes: Vec<smm_serve::ServerHandle>) {
    if let Some(r) = router {
        r.stop();
        r.join();
    }
    for n in &nodes {
        n.stop();
    }
    for n in nodes {
        n.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_serve::protocol;

    fn draw(mix: &Mix, seed: u64, thread: u64) -> Vec<usize> {
        let mut s = Stream::new(mix.clone(), seed, thread);
        (0..500).map(|_| s.next_key()).collect()
    }

    #[test]
    fn request_streams_repeat_per_seed_and_differ_across_seeds() {
        for mix in [Mix::Uniform { keys: 64 }, Mix::churn(96, 8)] {
            assert_eq!(draw(&mix, 42, 0), draw(&mix, 42, 0));
            assert_ne!(draw(&mix, 42, 0), draw(&mix, 43, 0));
            assert_ne!(draw(&mix, 42, 0), draw(&mix, 42, 1));
            assert!(draw(&mix, 42, 0).iter().all(|&k| k < 104));
        }
    }

    #[test]
    fn churn_mix_sends_its_csv_share() {
        let csv = draw(&Mix::churn(96, 8), 5, 0)
            .iter()
            .filter(|&&k| k >= 96)
            .count();
        assert!((25..=80).contains(&csv), "{csv} CSV requests of 500");
    }

    #[test]
    fn response_checks_catch_corruption() {
        let plan = "{\"network\":\"x\"}";
        let good = format!("{{\"node\":\"n\",\"id\":\"0-1\",\"status\":\"ok\",\"cache_hit\":true,\"metrics\":{{}},\"plan\":{plan}}}\n");
        assert_eq!(check_response(&good, "0-1", plan), Ok(true));
        let miss = good.replace("\"cache_hit\":true", "\"cache_hit\":false");
        assert_eq!(check_response(&miss, "0-1", plan), Ok(false));
        assert!(check_response(&good, "0-2", plan).is_err(), "wrong id");
        assert!(
            check_response(&good, "0-1", "{\"network\":\"y\"}").is_err(),
            "corrupt plan"
        );
        assert!(
            check_response(&good.replace("\"ok\"", "\"shed\""), "0-1", plan).is_err(),
            "not ok"
        );
        assert!(
            check_response(good.trim_end(), "0-1", plan).is_err(),
            "unterminated"
        );
        assert!(
            check_response(&good.replace(",\"cache_hit\":true", ""), "0-1", plan).is_err(),
            "no verdict"
        );
    }

    #[test]
    fn count_checks_catch_mismatches() {
        assert!(hot_counts(10, 10, 10, 10).is_ok());
        assert!(hot_counts(10, 9, 10, 10).is_err(), "a client-seen miss");
        assert!(hot_counts(10, 10, 11, 10).is_err(), "an extra server hit");
        assert!(
            hot_counts(10, 10, 10, 9).is_err(),
            "a hit not answered inline"
        );
        assert!(churn_counts(10, 7, 7, 10, 10).is_ok());
        assert!(churn_counts(10, 7, 8, 10, 10).is_err(), "hits disagree");
        assert!(
            churn_counts(10, 7, 7, 9, 10).is_err(),
            "node ok counts disagree"
        );
        assert!(
            churn_counts(10, 7, 7, 10, 11).is_err(),
            "router forwards disagree"
        );
    }

    #[test]
    fn keys_render_requests_the_server_parses_to_the_same_spec() {
        let keys = [
            key(
                NetworkRef::Zoo("resnet18".into()),
                64,
                SchedulerKind::Global,
            )
            .unwrap(),
            csv_keys().unwrap().remove(0),
        ];
        let mut specs: Vec<PlanSpec> = keys.iter().map(|k| k.spec.clone()).collect();
        specs.push(PlanSpec {
            scheme: PlanScheme::BestHomogeneous,
            ..specs[0].clone()
        });
        for spec in &specs {
            let line = format!("{{\"id\":\"x\",{}", request_body(spec));
            assert_eq!(protocol::parse_request(&line).unwrap().to_spec(), *spec);
        }
    }
}
