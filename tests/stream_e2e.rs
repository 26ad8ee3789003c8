//! End-to-end tests for the streaming analytics and the closed-loop
//! controller: the `stream` op's windowed per-cell view (tenant
//! attribution included), background cache pre-warming after
//! evictions, and predictive deadline-aware shedding.
//!
//! Determinism: windows are driven by wall-clock watermarks, so these
//! tests use short windows (100 ms) and sleep past window close +
//! collector tick rather than asserting exact window boundaries. All
//! planning costs come from `delay_ms` — the same simulated-cost hook
//! `smm loadgen --plan-delay-ms` uses.

use scratchpad_mm::serve::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

fn spawn(cfg: ServerConfig) -> ServerHandle {
    Server::spawn(cfg).expect("spawn server")
}

fn round_trip(addr: SocketAddr, request: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    writeln!(writer, "{request}").expect("write");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    line.trim().to_string()
}

/// The `stream` op exposes closed windows with per-cell aggregates,
/// including tenant attribution, in both tumbling and sliding kinds.
#[test]
fn stream_op_reports_windows_with_tenant_cells() {
    let handle = spawn(ServerConfig {
        workers: 2,
        cache_cap: 32,
        window_ms: 100,
        slide_ms: 50,
        prewarm: false,
        obs: false,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    for _ in 0..4 {
        let resp = round_trip(
            addr,
            r#"{"model":"mobilenet","glb_kb":64,"tenant":"team-a"}"#,
        );
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    }
    // Let the 100 ms window close and the 10 ms collector drain it.
    thread::sleep(Duration::from_millis(400));

    let view = round_trip(addr, r#"{"op":"stream","limit":8}"#);
    assert!(view.contains("\"status\":\"ok\""), "{view}");
    assert!(view.contains("\"op\":\"stream\""), "{view}");
    assert!(view.contains("\"kind\":\"tumbling\""), "{view}");
    assert!(view.contains("\"window_ms\":100"), "{view}");
    assert!(
        view.contains("\"key\":\"mobilenet@64/team-a\""),
        "tenant cell missing: {view}"
    );
    assert!(view.contains("\"tenant\":\"team-a\""), "{view}");
    // Four requests: one miss, three hits (split inline/worker by
    // timing), all attributed to the one cell.
    assert!(view.contains("\"miss\":1"), "{view}");

    let sliding = round_trip(addr, r#"{"op":"stream","limit":4,"sliding":true}"#);
    assert!(sliding.contains("\"kind\":\"sliding\""), "{sliding}");
    assert!(sliding.contains("\"slide_ms\":50"), "{sliding}");

    handle.stop();
    handle.join();
}

/// With `stream: false` the tap never exists and the `stream` op
/// answers an error instead of empty data.
#[test]
fn stream_op_errors_when_disabled() {
    let handle = spawn(ServerConfig {
        workers: 1,
        stream: false,
        obs: false,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();
    let resp = round_trip(addr, r#"{"op":"stream"}"#);
    assert!(resp.contains("\"status\":\"error\""), "{resp}");
    assert!(resp.contains("disabled"), "{resp}");
    handle.stop();
    handle.join();
}

/// The closed loop: a hot key evicted by a cold scan is re-planned in
/// the background by the pre-warm controller, so the next request for
/// it is a cache hit — without any client having paid the miss.
#[test]
fn prewarm_restores_evicted_hot_key() {
    let handle = spawn(ServerConfig {
        workers: 2,
        // Small cache: 12 cold keys evict everything.
        cache_cap: 4,
        window_ms: 100,
        slide_ms: 100,
        obs: false,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Phase A: make one cell clearly hot (many arrivals, 10 ms plan
    // cost recorded in the controller's book).
    let hot = r#"{"model":"resnet18","glb_kb":64,"delay_ms":10}"#;
    for _ in 0..12 {
        let resp = round_trip(addr, hot);
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    }
    // Let at least one window with the hot traffic close so the
    // pre-warm ranking sees it.
    thread::sleep(Duration::from_millis(300));

    // Phase B: cold-scan 12 distinct keys through the 4-entry cache,
    // evicting the hot plan.
    for glb in (100..340).step_by(20) {
        let cold = format!("{{\"model\":\"mnasnet\",\"glb_kb\":{glb},\"delay_ms\":1}}");
        let resp = round_trip(addr, &cold);
        assert!(resp.contains("\"status\":\"ok\""), "{resp}");
    }

    // Phase C: idle. The pre-warm controller (50 ms tick) ranks the
    // hot cell first and re-plans it in the background (~10 ms).
    thread::sleep(Duration::from_millis(900));

    // The hot key must be back in the cache without any client having
    // re-planned it: the very next request is a hit.
    let resp = round_trip(addr, hot);
    assert!(
        resp.contains("\"cache_hit\":true"),
        "hot key not pre-warmed after eviction: {resp}"
    );

    handle.stop();
    handle.join();
}

/// Predictive shedding: once the cost book knows a cell's miss costs
/// ~50 ms, a request with a 10 ms deadline is shed immediately instead
/// of wasting a worker on a plan that cannot make its deadline.
#[test]
fn predictive_shed_refuses_deadline_hopeless_misses() {
    let handle = spawn(ServerConfig {
        workers: 1,
        // No cache: every request would be a miss, so the predicted
        // miss cost always applies.
        cache_cap: 0,
        window_ms: 100,
        prewarm: false,
        obs: false,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    // Teach the book: one full-cost miss (~50 ms measured).
    let teach = r#"{"model":"mobilenet","glb_kb":64,"delay_ms":50}"#;
    let resp = round_trip(addr, teach);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    // A 10 ms deadline cannot absorb a ~50 ms predicted miss: shed at
    // admission, before the queue.
    let hopeless = r#"{"model":"mobilenet","glb_kb":64,"delay_ms":50,"deadline_ms":10}"#;
    let resp = round_trip(addr, hopeless);
    assert!(
        resp.contains("\"status\":\"shed\""),
        "deadline-hopeless miss was not shed: {resp}"
    );

    let stats = round_trip(addr, r#"{"op":"stats"}"#);
    assert!(
        stats.contains("\"shed_predicted\":1"),
        "predictive shed not counted: {stats}"
    );

    // A generous deadline sails through: prediction gates only
    // requests that cannot win.
    let feasible = r#"{"model":"mobilenet","glb_kb":64,"delay_ms":50,"deadline_ms":5000}"#;
    let resp = round_trip(addr, feasible);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    handle.stop();
    handle.join();
}

/// `--static-cap` means the static queue cap only: the same steps as
/// above admit the deadline-hopeless miss, which then answers
/// `deadline` from the worker, and nothing counts as a predictive shed.
#[test]
fn static_cap_never_sheds_predictively() {
    let handle = spawn(ServerConfig {
        workers: 1,
        cache_cap: 0,
        window_ms: 100,
        prewarm: false,
        adaptive_shed: false,
        obs: false,
        ..ServerConfig::default()
    });
    let addr = handle.local_addr();

    let teach = r#"{"model":"mobilenet","glb_kb":64,"delay_ms":50}"#;
    let resp = round_trip(addr, teach);
    assert!(resp.contains("\"status\":\"ok\""), "{resp}");

    let hopeless = r#"{"model":"mobilenet","glb_kb":64,"delay_ms":50,"deadline_ms":10}"#;
    let resp = round_trip(addr, hopeless);
    assert!(
        resp.contains("\"status\":\"deadline\""),
        "static cap must admit the hopeless miss: {resp}"
    );

    let stats = round_trip(addr, r#"{"op":"stats"}"#);
    assert!(stats.contains("\"shed\":0"), "{stats}");
    assert!(stats.contains("\"shed_predicted\":0"), "{stats}");

    handle.stop();
    handle.join();
}
