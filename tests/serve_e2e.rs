//! End-to-end tests for the planning server: concurrency, caching,
//! deadlines, load shedding, and graceful shutdown — all over real TCP
//! connections against a server running in this process.

use scratchpad_mm::serve::{Server, ServerConfig};
use smm_obs::json::{parse, Value};
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread;

const MODELS: [&str; 6] = [
    "efficientnetb0",
    "googlenet",
    "mnasnet",
    "mobilenet",
    "mobilenetv2",
    "resnet18",
];

fn round_trip(addr: SocketAddr, request: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{request}").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    line.trim().to_string()
}

fn status_of(line: &str) -> String {
    let v = parse(line).unwrap_or_else(|e| panic!("unparseable response {line:?}: {e}"));
    match v.get("status") {
        Some(Value::String(s)) => s.clone(),
        other => panic!("response {line:?} has no status: {other:?}"),
    }
}

fn cache_hit_of(line: &str) -> bool {
    matches!(
        parse(line).unwrap().get("cache_hit"),
        Some(Value::Bool(true))
    )
}

/// The `"plan":{...}` payload; the protocol guarantees it is last.
fn plan_payload(line: &str) -> &str {
    let idx = line.find("\"plan\":").expect("ok responses carry a plan");
    &line[idx + "\"plan\":".len()..line.len() - 1]
}

/// Acceptance: ≥64 concurrent requests over the six built-in models,
/// every response parses, repeats report `cache_hit: true`, and cached
/// plans are byte-identical to cold ones.
#[test]
fn sixty_four_concurrent_requests_with_cache_hits() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();

    // Cold pass: one request per model, capturing the reference plans.
    let mut reference: HashMap<&str, String> = HashMap::new();
    for model in MODELS {
        let line = round_trip(addr, &format!("{{\"model\":\"{model}\"}}"));
        assert_eq!(status_of(&line), "ok", "{model}: {line}");
        reference.insert(model, plan_payload(&line).to_string());
    }

    // Hot pass: 64 concurrent requests round-robin over the models.
    let reference = Arc::new(reference);
    let results = Arc::new(Mutex::new(Vec::new()));
    let threads: Vec<_> = (0..64)
        .map(|i| {
            let results = Arc::clone(&results);
            let reference = Arc::clone(&reference);
            thread::spawn(move || {
                let model = MODELS[i % MODELS.len()];
                let line = round_trip(addr, &format!("{{\"model\":\"{model}\",\"id\":\"r{i}\"}}"));
                assert_eq!(status_of(&line), "ok", "{model}: {line}");
                assert!(
                    line.contains(&format!("\"id\":\"r{i}\"")),
                    "response must echo the request id: {line}"
                );
                // Cached plans must be byte-identical to the cold ones.
                assert_eq!(
                    plan_payload(&line),
                    reference[model],
                    "{model}: cached plan differs from cold plan"
                );
                results.lock().unwrap().push(cache_hit_of(&line));
            })
        })
        .collect();
    for t in threads {
        t.join().expect("client thread");
    }

    let hits = results.lock().unwrap();
    assert_eq!(hits.len(), 64);
    // Every model was already planned in the cold pass, so every one of
    // the 64 requests must be served from the cache.
    assert!(
        hits.iter().all(|&h| h),
        "expected 64/64 cache hits, got {}",
        hits.iter().filter(|&&h| h).count()
    );
    let stats = handle.cache_stats();
    assert!(
        stats.hits >= 64,
        "cache stats must record the hits: {stats:?}"
    );

    handle.stop();
    handle.join();
}

/// Acceptance: a request with a 0ms deadline returns a deadline error
/// rather than hanging — even when the plan is already cached.
#[test]
fn zero_deadline_errors_without_hanging() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();

    // Warm the cache so the deadline check must win over the cache hit.
    assert_eq!(
        status_of(&round_trip(addr, r#"{"model":"resnet18"}"#)),
        "ok"
    );
    let line = round_trip(addr, r#"{"model":"resnet18","deadline_ms":0}"#);
    assert_eq!(status_of(&line), "deadline", "{line}");
    let v = parse(&line).unwrap();
    assert!(
        matches!(v.get("layers_done"), Some(Value::Number(_))),
        "deadline responses report layers_done: {line}"
    );

    handle.stop();
    handle.join();
}

/// Acceptance: when the queue overflows, excess requests receive shed
/// responses instead of queuing without bound.
#[test]
fn queue_overflow_sheds_requests() {
    // One slow worker and a 2-slot queue: with every request carrying a
    // 300ms artificial delay, concurrent requests 4..N must overflow.
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        queue_cap: 2,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = handle.local_addr();

    let threads: Vec<_> = (0..8)
        .map(|i| {
            thread::spawn(move || {
                let model = MODELS[i % MODELS.len()];
                let line = round_trip(addr, &format!("{{\"model\":\"{model}\",\"delay_ms\":300}}"));
                status_of(&line)
            })
        })
        .collect();
    let statuses: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let shed = statuses.iter().filter(|s| *s == "shed").count();
    let ok = statuses.iter().filter(|s| *s == "ok").count();
    assert!(
        shed > 0,
        "8 slow requests on a 2-slot queue must shed some: {statuses:?}"
    );
    assert!(
        ok > 0,
        "accepted requests must still complete: {statuses:?}"
    );
    assert_eq!(
        shed + ok,
        8,
        "every request is either served or shed: {statuses:?}"
    );

    handle.stop();
    handle.join();
}

/// Graceful shutdown: a client `shutdown` op is acknowledged, the
/// server drains, and join() returns.
#[test]
fn client_shutdown_op_stops_the_server() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();
    assert_eq!(status_of(&round_trip(addr, r#"{"op":"ping"}"#)), "ok");
    let line = round_trip(addr, r#"{"op":"shutdown","id":"bye"}"#);
    assert_eq!(status_of(&line), "ok");
    assert!(line.contains("\"op\":\"shutdown\""));
    handle.join(); // must return, not hang
}

/// Per-request metrics (satellite: observability deltas) are present
/// and sane: a cold plan reports planned layers and a cache miss; a hot
/// one reports a cache hit.
#[test]
fn responses_carry_per_request_metrics() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();

    let cold = round_trip(addr, r#"{"model":"googlenet"}"#);
    let v = parse(&cold).unwrap();
    let metrics = v.get("metrics").expect("ok responses carry metrics");
    assert!(
        matches!(metrics.get("cache_misses"), Some(Value::Number(n)) if *n >= 1.0),
        "cold request must record a cache miss: {cold}"
    );
    assert!(
        matches!(metrics.get("layers_planned"), Some(Value::Number(n)) if *n >= 1.0),
        "cold request must record planned layers: {cold}"
    );

    let hot = round_trip(addr, r#"{"model":"googlenet"}"#);
    assert!(cache_hit_of(&hot), "{hot}");
    let v = parse(&hot).unwrap();
    assert!(
        matches!(
            v.get("metrics").and_then(|m| m.get("cache_hits")),
            Some(Value::Number(n)) if *n >= 1.0
        ),
        "hot request must record the cache hit: {hot}"
    );

    handle.stop();
    handle.join();
}

/// The server answers protocol garbage and topology errors per-request
/// without dropping the connection or the process.
#[test]
fn malformed_requests_error_cleanly() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();

    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut line = String::new();
    for bad in [
        "garbage that is not json",
        r#"{"op":"plan"}"#,
        r#"{"model":"no-such-net"}"#,
        r#"{"topology":"x, 1,"}"#,
    ] {
        writeln!(writer, "{bad}").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(status_of(line.trim()), "error", "{bad} -> {line}");
    }
    // The same connection still serves a valid request afterwards.
    writeln!(writer, r#"{{"model":"mnasnet"}}"#).unwrap();
    line.clear();
    reader.read_line(&mut line).unwrap();
    assert_eq!(status_of(line.trim()), "ok");

    handle.stop();
    handle.join();
}

/// The loadgen library reports consistent numbers against a live server.
#[test]
fn loadgen_round_trip_reports() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();
    let report = scratchpad_mm::serve::loadgen::run(&scratchpad_mm::serve::LoadgenConfig {
        addr: addr.to_string(),
        requests: 24,
        concurrency: 4,
        shutdown: true,
        ..scratchpad_mm::serve::LoadgenConfig::default()
    })
    .expect("loadgen");
    assert_eq!(report.sent, 24);
    assert_eq!(report.ok, 24, "{report:?}");
    assert_eq!(report.errors, 0, "{report:?}");
    assert_eq!(report.plan_mismatches, 0, "{report:?}");
    // 24 requests over 6 models would hit on all 18 repeats if the runs
    // were serial; concurrent cold requests for the same model may race
    // and both miss (both plan, last insert wins), so allow a few extra
    // misses — but the bulk must still come from the cache.
    assert!(report.cache_hits >= 12, "{report:?}");
    assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
    assert!(report.throughput_rps() > 0.0);
    let text = report.render();
    assert!(text.contains("hit rate"), "{text}");
    handle.join(); // loadgen sent the shutdown op
}

/// The `stats` cache counters match what clients saw: `hits` equals
/// the `cache_hit:true` responses (answered inline or on the worker's
/// re-check) and `misses` equals the requests that went on to plan, so
/// a request that misses both the reactor probe and the worker re-check
/// counts one miss, not two.
#[test]
fn stats_count_each_hit_and_miss_once() {
    // One worker and a simulated planning cost: pipelined copies of a
    // cold key all miss on the reactor and queue behind the first,
    // which plans; the rest then hit on the worker's re-check.
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        prewarm: false,
        ..ServerConfig::default()
    })
    .expect("spawn server");
    let addr = handle.local_addr();
    let stream = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut responses = Vec::new();
    for _round in 0..2 {
        let mut batch = String::new();
        for model in ["mobilenet", "resnet18"] {
            for _ in 0..4 {
                batch.push_str(&format!(
                    "{{\"model\":\"{model}\",\"glb_kb\":96,\"delay_ms\":100}}\n"
                ));
            }
        }
        writer.write_all(batch.as_bytes()).unwrap();
        for _ in 0..8 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(status_of(line.trim()), "ok", "{line}");
            responses.push(line);
        }
    }
    let client_hits = responses.iter().filter(|r| cache_hit_of(r)).count() as f64;
    let client_misses = responses.len() as f64 - client_hits;

    let stats = parse(&round_trip(addr, r#"{"op":"stats"}"#)).unwrap();
    let num = |v: Option<&Value>| match v {
        Some(Value::Number(n)) => *n,
        other => panic!("not a number: {other:?}"),
    };
    let cache = stats.get("cache").expect("stats has cache");
    let (hits, misses) = (num(cache.get("hits")), num(cache.get("misses")));
    let inline = num(stats.get("inline_hits"));
    assert_eq!(hits, client_hits, "stats hits vs cache_hit:true responses");
    assert_eq!(misses, client_misses, "stats misses vs planned requests");
    assert_eq!(misses, 2.0, "one plan per distinct key");
    // The first round's copies hit on the worker, the second round's
    // inline on the reactor.
    assert!(hits - inline >= 1.0, "no worker re-check hit: {stats:?}");
    assert!(inline >= 8.0, "second round must hit inline: {stats:?}");

    handle.stop();
    handle.join();
}

/// A zoo model's topology sent inline (under the model's own name)
/// reaches the zoo request's cache entry, and an unknown model answers
/// the same error every time.
#[test]
fn inline_csv_of_a_zoo_model_hits_the_zoo_entry() {
    use scratchpad_mm::model::{topology, zoo};
    use scratchpad_mm::serve::protocol::json_escape;

    let handle = Server::spawn(ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr();
    let cold = round_trip(addr, r#"{"model":"resnet18","glb_kb":128}"#);
    assert!(!cache_hit_of(&cold), "{cold}");

    let net = zoo::resnet18();
    let inline = format!(
        "{{\"topology\":\"{}\",\"name\":\"{}\",\"glb_kb\":128}}",
        json_escape(&topology::write(&net)),
        net.name
    );
    for _ in 0..2 {
        let warm = round_trip(addr, &inline);
        assert!(cache_hit_of(&warm), "{warm}");
        assert_eq!(plan_payload(&warm), plan_payload(&cold));
    }
    let upper = round_trip(addr, r#"{"model":"RESNET18","glb_kb":128}"#);
    assert!(cache_hit_of(&upper), "{upper}");

    for _ in 0..2 {
        assert_eq!(
            round_trip(addr, r#"{"model":"no-such-net","id":"u"}"#),
            r#"{"id":"u","status":"error","message":"unknown model \"no-such-net\""}"#
        );
    }

    handle.stop();
    handle.join();
}
