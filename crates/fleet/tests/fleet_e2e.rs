//! End-to-end fleet scenarios: a real router in front of real serve
//! nodes over loopback TCP.
//!
//! The suite follows the fault-injection discipline the simulator
//! established: every scenario is deterministic (fixed models, fixed
//! knobs, loopback sockets) and asserts observable outcomes — response
//! status accounting, byte-identical plans, and the router's fleet
//! counters — not timing.

use smm_fleet::{Router, RouterConfig};
use smm_serve::{LoadgenConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

fn spawn_node(cache_cap: usize) -> smm_serve::ServerHandle {
    Server::spawn(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_cap: 64,
        cache_cap,
        obs: false,
        verify_plans: false,
        ..ServerConfig::default()
    })
    .expect("spawn serve node")
}

fn spawn_router(backends: Vec<String>, cfg: RouterConfig) -> smm_fleet::RouterHandle {
    Router::spawn(RouterConfig {
        addr: "127.0.0.1:0".into(),
        backends,
        obs: false,
        ..cfg
    })
    .expect("spawn router")
}

/// One request/response exchange on a fresh connection.
fn request(addr: &str, line: &str) -> String {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writeln!(writer, "{line}").unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut resp = String::new();
    reader.read_line(&mut resp).expect("read response");
    resp.trim().to_string()
}

/// Slice the `"plan":{...}` payload (the protocol keeps it last).
fn plan_payload(line: &str) -> &str {
    let idx = line.find("\"plan\":").expect("response has a plan");
    &line[idx + "\"plan\":".len()..line.len() - 1]
}

#[test]
fn fleet_serves_byte_identical_plans_with_cross_node_hits() {
    let nodes: Vec<_> = (0..3).map(|_| spawn_node(64)).collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = spawn_router(addrs, RouterConfig::default());
    let raddr = router.local_addr().to_string();

    // A single standalone node is the golden reference: the fleet must
    // serve byte-identical plans to what one node produces.
    let solo = spawn_node(16);
    let solo_addr = solo.local_addr().to_string();

    for model in ["mobilenet", "resnet18", "mnasnet"] {
        let line = format!("{{\"model\":\"{model}\",\"glb_kb\":64}}");
        let via_fleet = request(&raddr, &line);
        let via_solo = request(&solo_addr, &line);
        assert!(
            via_fleet.contains("\"status\":\"ok\""),
            "fleet response not ok: {via_fleet}"
        );
        assert_eq!(
            plan_payload(&via_fleet),
            plan_payload(&via_solo),
            "fleet plan for {model} differs from the single-node golden plan"
        );
        assert!(
            via_fleet.contains("\"node\":\""),
            "router did not attribute the response: {via_fleet}"
        );

        // Second request for the same key: must be a cache hit on the
        // owning node, still byte-identical.
        let warm = request(&raddr, &line);
        assert!(
            warm.contains("\"cache_hit\":true"),
            "repeat request missed the owner's cache: {warm}"
        );
        assert_eq!(plan_payload(&warm), plan_payload(&via_solo));
    }

    let counters = router.fleet_counters();
    assert_eq!(counters.shed, 0);
    assert_eq!(counters.routed, 6);

    solo.stop();
    solo.join();
    router.stop();
    router.join();
    for n in nodes {
        n.stop();
        n.join();
    }
}

#[test]
fn node_kill_mid_run_loses_zero_requests() {
    let nodes: Vec<_> = (0..3).map(|_| spawn_node(64)).collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = spawn_router(
        addrs.clone(),
        RouterConfig {
            retries: 2,
            eject_after: 1,
            forward_timeout: Duration::from_secs(60),
            ..RouterConfig::default()
        },
    );
    let raddr = router.local_addr().to_string();

    // Warm every model once so the kill happens against a warm fleet,
    // and remember which node answered the first key: killing that one
    // guarantees the workload keeps hitting the dead node's shard (ring
    // ownership depends on the ephemeral ports, so a fixed index could
    // pick a node that owns none of the four keys).
    let models = ["mobilenet", "mobilenetv2", "mnasnet", "resnet18"];
    let mut owner_addr = String::new();
    for model in &models {
        let resp = request(&raddr, &format!("{{\"model\":\"{model}\",\"glb_kb\":64}}"));
        assert!(resp.contains("\"status\":\"ok\""), "warmup failed: {resp}");
        if owner_addr.is_empty() {
            let tag = "\"node\":\"";
            let start = resp.find(tag).expect("router attributes the node") + tag.len();
            let end = resp[start..].find('"').unwrap() + start;
            owner_addr = resp[start..end].to_string();
        }
    }

    // Kill the owner, then keep driving the fleet. Every request must
    // still be answered: the dead node's keys retry onto the next
    // replica, which replans them — none may error or go unanswered.
    let mut nodes = nodes;
    let victim_idx = nodes
        .iter()
        .position(|n| n.local_addr().to_string() == owner_addr)
        .expect("attributed node is one of ours");
    let victim = nodes.remove(victim_idx);
    victim.stop();
    victim.join();

    let report = smm_serve::loadgen::run(&LoadgenConfig {
        addr: raddr.clone(),
        requests: 24,
        concurrency: 4,
        models: models.iter().map(|m| (*m).to_string()).collect(),
        glb_kb: 64,
        fleet: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    assert_eq!(report.errors, 0, "requests were lost:\n{}", report.render());
    assert_eq!(report.plan_mismatches, 0, "plans diverged after the kill");
    assert_eq!(
        report.ok + report.shed + report.deadline,
        report.sent,
        "response accounting does not cover every request"
    );
    assert_eq!(report.shed, 0, "with 2 retries nothing should be shed");

    let counters = router.fleet_counters();
    assert!(
        counters.ejections >= 1,
        "the dead node was never ejected: {counters:?}"
    );

    router.stop();
    router.join();
    for n in nodes {
        n.stop();
        n.join();
    }
}

#[test]
fn dead_configured_backend_triggers_retries_not_errors() {
    // A router configured with a backend that was never alive: requests
    // owned by the dead node must transparently retry onto live ones.
    let live: Vec<_> = (0..2).map(|_| spawn_node(64)).collect();
    let mut addrs: Vec<String> = live.iter().map(|n| n.local_addr().to_string()).collect();
    // Port 1 on loopback: connect fails fast, deterministically.
    addrs.push("127.0.0.1:1".into());
    let router = spawn_router(
        addrs,
        RouterConfig {
            retries: 2,
            eject_after: 1,
            ..RouterConfig::default()
        },
    );
    let raddr = router.local_addr().to_string();

    let report = smm_serve::loadgen::run(&LoadgenConfig {
        addr: raddr.clone(),
        requests: 18,
        concurrency: 3,
        models: vec!["mobilenet".into(), "mnasnet".into(), "resnet18".into()],
        glb_kb: 64,
        fleet: true,
        ..LoadgenConfig::default()
    })
    .expect("loadgen run");

    assert_eq!(report.errors, 0, "retry storm leaked errors to clients");
    assert_eq!(report.shed, 0);
    assert_eq!(report.ok, report.sent);
    assert_eq!(report.plan_mismatches, 0);

    let counters = router.fleet_counters();
    // The dead backend owns ~1/3 of the keyspace, so with three models
    // and several GLB-free repeats at least one request must have
    // landed there first and retried (if not, the ring is suspicious —
    // but ownership is deterministic, so assert only when it fired).
    assert_eq!(counters.ejections, u64::from(counters.retries > 0));

    router.stop();
    router.join();
    for n in live {
        n.stop();
        n.join();
    }
}

#[test]
fn delayed_backend_is_ejected_then_readmitted() {
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(64)).collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = spawn_router(
        addrs,
        RouterConfig {
            retries: 1,
            eject_after: 1,
            forward_timeout: Duration::from_millis(250),
            probe_interval: Duration::from_millis(100),
            ..RouterConfig::default()
        },
    );
    let raddr = router.local_addr().to_string();

    // delay_ms makes every replica exceed the router's forward timeout:
    // both nodes get ejected and the request is shed, not hung.
    let slow = request(
        &raddr,
        "{\"model\":\"mobilenet\",\"glb_kb\":64,\"delay_ms\":2000}",
    );
    assert!(
        slow.contains("\"status\":\"shed\""),
        "expected shed after all replicas timed out, got: {slow}"
    );
    let counters = router.fleet_counters();
    assert!(counters.ejections >= 1, "slow backends never ejected");
    assert_eq!(counters.shed, 1);

    // The probe thread re-admits the (healthy, just slow that once)
    // nodes; afterwards normal requests flow again.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        let resp = request(&raddr, "{\"model\":\"mobilenet\",\"glb_kb\":64}");
        if resp.contains("\"status\":\"ok\"") {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "nodes were never re-admitted; last response: {resp}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    assert!(router.fleet_counters().readmissions >= 1);

    router.stop();
    router.join();
    for n in nodes {
        n.stop();
        n.join();
    }
}

#[test]
fn join_migrates_warm_plans_and_leave_drains_them() {
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(64)).collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = spawn_router(addrs, RouterConfig::default());
    let raddr = router.local_addr().to_string();

    // Warm the 2-node fleet and remember every plan.
    let models = ["mobilenet", "mobilenetv2", "mnasnet", "resnet18"];
    let mut golden = Vec::new();
    for model in &models {
        for glb_kb in [32, 64, 128, 256, 512, 1024] {
            let line = format!("{{\"model\":\"{model}\",\"glb_kb\":{glb_kb}}}");
            let resp = request(&raddr, &line);
            assert!(resp.contains("\"status\":\"ok\""), "warmup failed: {resp}");
            golden.push((line, plan_payload(&resp).to_string()));
        }
    }

    // Join a third node: the keys it now owns must arrive pre-warmed.
    let joiner = spawn_node(64);
    let joiner_addr = joiner.local_addr().to_string();
    let (plans, bytes) = router.join_node(&joiner_addr).expect("join");
    assert_eq!(router.nodes().len(), 3);

    // After the join every remembered key must still be a cache hit
    // somewhere — the handoff, not a replan, covers the moved keys.
    for (line, reference) in &golden {
        let resp = request(&raddr, line);
        assert!(
            resp.contains("\"cache_hit\":true"),
            "cold miss after warm join: {resp}"
        );
        assert_eq!(plan_payload(&resp), reference, "plan changed across join");
    }
    // The nodes listen on ephemeral ports, so ring ownership changes
    // from run to run. The joiner owns ~1/3 of the key space: with 24
    // keys it owns none with probability ~(2/3)^24 < 1e-4 (with 4
    // keys, ~20 %).
    assert!(
        plans > 0 && bytes > 0,
        "nothing migrated on join ({plans} plans, {bytes} bytes)"
    );

    // Leave: the joiner drains its plans back to the survivors.
    let (drained, _) = router.leave_node(&joiner_addr).expect("leave");
    assert_eq!(router.nodes().len(), 2);
    assert!(drained > 0, "leave migrated nothing");
    joiner.stop();
    joiner.join();

    for (line, reference) in &golden {
        let resp = request(&raddr, line);
        assert!(
            resp.contains("\"cache_hit\":true"),
            "cold miss after warm leave: {resp}"
        );
        assert_eq!(plan_payload(&resp), reference, "plan changed across leave");
    }

    router.stop();
    router.join();
    for n in nodes {
        n.stop();
        n.join();
    }
}

#[test]
fn router_stats_aggregates_the_fleet_in_node_shape() {
    let nodes: Vec<_> = (0..2).map(|_| spawn_node(64)).collect();
    let addrs: Vec<String> = nodes.iter().map(|n| n.local_addr().to_string()).collect();
    let router = spawn_router(addrs, RouterConfig::default());
    let raddr = router.local_addr().to_string();

    for _ in 0..2 {
        let resp = request(&raddr, "{\"model\":\"mobilenet\",\"glb_kb\":64}");
        assert!(resp.contains("\"status\":\"ok\""));
    }

    let stats = request(&raddr, "{\"op\":\"stats\",\"id\":\"s1\"}");
    let v = smm_obs::json::parse(&stats).expect("stats response is valid JSON");
    // Node-shaped fields (what loadgen reads)...
    for field in ["cache", "queued", "shed", "verify_failed", "memo"] {
        assert!(v.get(field).is_some(), "stats lacks {field:?}: {stats}");
    }
    // ...plus the fleet extras.
    let fleet = v.get("fleet").expect("stats has a fleet section");
    assert_eq!(
        fleet.get("nodes"),
        Some(&smm_obs::json::Value::Number(2.0)),
        "fleet section: {stats}"
    );
    let per_node = v.get("per_node").expect("stats has per_node");
    assert!(matches!(per_node, smm_obs::json::Value::Array(a) if a.len() == 2));
    // One model requested twice: exactly one cache hit fleet-wide.
    let cache = v.get("cache").unwrap();
    assert_eq!(cache.get("hits"), Some(&smm_obs::json::Value::Number(1.0)));

    router.stop();
    router.join();
    for n in nodes {
        n.stop();
        n.join();
    }
}
