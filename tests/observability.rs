//! End-to-end checks of the smm-obs instrumentation: plan a real network
//! with collection on, then validate the profile report and the exported
//! Chrome trace (the ISSUE's acceptance criterion: the JSON parses and
//! holds at least one complete event per planned layer).

use scratchpad_mm::arch::{AcceleratorConfig, ByteSize};
use scratchpad_mm::core::{Manager, ManagerConfig, Objective};
use scratchpad_mm::model::zoo;
use scratchpad_mm::obs::{self, json};

/// The whole file shares one process-global collector, so the scenarios
/// run under a single test, in sequence.
#[test]
fn profile_and_chrome_trace_cover_a_planned_network() {
    let net = zoo::resnet18();
    let acc = AcceleratorConfig::paper_default(ByteSize::from_kb(64));
    let manager = Manager::new(acc, ManagerConfig::new(Objective::Accesses));

    // -- disabled: planning records nothing --
    obs::reset();
    obs::set_enabled(false);
    manager.heterogeneous(&net).unwrap();
    assert_eq!(obs::counter_value(obs::Counter::PlannerCandidates), 0);
    assert!(obs::report().is_empty());

    // -- enabled, with the trace events a Chrome trace needs: plan
    //    once, inspect the aggregates --
    obs::reset();
    obs::set_enabled(true);
    obs::set_trace_events(true);
    let plan = manager.heterogeneous(&net).unwrap();
    obs::set_enabled(false);
    obs::set_trace_events(false);
    let layers = plan.decisions.len() as u64;

    let report = obs::report();
    assert_eq!(report.counter(obs::Counter::PlannerLayersPlanned), layers);
    // Each layer weighs several (policy, prefetch) candidates.
    assert!(report.counter(obs::Counter::PlannerCandidates) >= layers * 2);
    assert_eq!(
        report.counter(obs::Counter::EstimatorCalls),
        report.counter(obs::Counter::PlannerCandidates)
    );
    let rendered = report.to_string();
    assert!(rendered.contains("plan.layer"));
    assert!(rendered.contains("planner.candidates"));

    // -- the exported Chrome trace parses and has one complete event per
    //    planned layer --
    let text = obs::chrome_trace_json();
    let value = json::parse(&text).expect("exported trace must be valid JSON");
    let Some(json::Value::Array(events)) = value.get("traceEvents") else {
        panic!("traceEvents array missing");
    };
    let complete_layer_events = events
        .iter()
        .filter(|e| {
            matches!(e.get("ph"), Some(json::Value::String(ph)) if ph == "X")
                && matches!(e.get("name"), Some(json::Value::String(n)) if n == "plan.layer")
        })
        .count() as u64;
    assert!(
        complete_layer_events >= layers,
        "expected >= {layers} complete plan.layer events, got {complete_layer_events}"
    );
    for e in events {
        if matches!(e.get("ph"), Some(json::Value::String(ph)) if ph == "X") {
            assert!(matches!(e.get("ts"), Some(json::Value::Number(_))));
            assert!(matches!(e.get("dur"), Some(json::Value::Number(_))));
        }
    }

    // -- write_chrome_trace produces the same document on disk --
    let path = std::env::temp_dir().join("smm_obs_trace_test.json");
    obs::write_chrome_trace(&path).unwrap();
    let on_disk = std::fs::read_to_string(&path).unwrap();
    json::parse(&on_disk).expect("trace file must be valid JSON");
    let _ = std::fs::remove_file(&path);
    obs::reset();
}
