//! The per-layer pass of a traced run. After the workload's measured
//! loop, every layer's public functions are called on the workload's own
//! plan specs, each call inside a span, so every workload reports every
//! per-layer metric and each figure describes that workload's inputs.

use crate::metric;
use crate::report::{Metric, Tally};
use crate::serving;
use crate::trace::Trace;
use crate::verify_zoo::{self, Job};
use smm_core::report::plan_json;
use smm_core::{
    CancelToken, ExecutionPlan, LayerMemo, LayerPlanner, PlanCache, PlanScheme, PlanSpec, Planner,
    SchedulerKind,
};
use smm_fleet::{HashRing, DEFAULT_VNODES};
use smm_model::Network;
use smm_serve::protocol::{self, RequestMetrics};
use std::hint::black_box;
use std::sync::Arc;

/// Calls each sub-microsecond step makes at least, over repeated rounds
/// of the specs, so that its mean self time is not one timer tick.
const MICRO_CALLS: usize = 2048;

/// Run the pass over `specs`, verifying the plans of the specs at the
/// indices in `verify`. Check failures go to `tally`; an error means the
/// pass could not run at all.
pub fn run(
    specs: &[PlanSpec],
    verify: &[usize],
    trace: &mut Trace,
    tally: &mut Tally,
) -> Result<Vec<Metric>, String> {
    let none = CancelToken::none();
    let rounds = MICRO_CALLS.div_ceil(specs.len().max(1));
    let tag = |s: &PlanSpec| {
        format!(
            "{} @{}kB {:?}/{}",
            s.network.name(),
            s.accelerator.glb.bytes() / 1024,
            s.scheme,
            s.config.scheduler
        )
    };

    // model: resolve every spec's network.
    let mut nets: Vec<Network> = Vec::with_capacity(specs.len());
    for round in 0..rounds {
        for (i, s) in specs.iter().enumerate() {
            let net = trace
                .span("model.resolve", i as u64, || s.resolve())
                .map_err(|e| format!("{}: {e}", tag(s)))?;
            if round == 0 {
                nets.push(net);
            }
        }
    }

    // policy and Algorithm 1, once per distinct (network, GLB) layer;
    // then each such cell planned cold three ways.
    let mut cells: Vec<usize> = Vec::new();
    for (i, s) in specs.iter().enumerate() {
        let seen = cells
            .iter()
            .any(|&j| specs[j].network == s.network && specs[j].accelerator == s.accelerator);
        if !seen {
            cells.push(i);
        }
    }
    let (mut candidates, mut feasible, mut fallbacks) = (0u64, 0u64, 0u64);
    for &i in &cells {
        let (s, net) = (&specs[i], &nets[i]);
        let acc = s.accelerator;
        let layers = LayerPlanner::new(acc, s.config);
        for (l, layer) in net.layers.iter().enumerate() {
            let est = trace.span("policy.estimate_all", l as u64, || {
                smm_policy::estimate_all(&layer.shape, &acc)
            });
            candidates += est.len() as u64;
            feasible += est.iter().filter(|e| e.fits(&acc)).count() as u64;
            black_box(trace.span("core.select", l as u64, || layers.select(&layer.shape)));
        }
        let cold = |trace: &mut Trace, span, scheduler, scheme| {
            let planner = Planner::new(acc, s.config.with_scheduler(scheduler));
            trace
                .span(span, i as u64, || planner.plan(net, scheme, &none))
                .map_err(|e| format!("{}: {e}", tag(s)))
        };
        let het = PlanScheme::Heterogeneous;
        let greedy = cold(trace, "core.plan_greedy", SchedulerKind::Greedy, het)?;
        let global = cold(trace, "core.plan_global", SchedulerKind::Global, het)?;
        black_box(cold(
            trace,
            "core.plan_hom",
            s.config.scheduler,
            PlanScheme::BestHomogeneous,
        )?);
        // A global plan identical to the greedy one is a fallback.
        if plan_json(&greedy, &acc) == plan_json(&global, &acc) {
            fallbacks += 1;
        }
    }

    // core: every spec planned against a warm shared memo, then rendered.
    let memo = Arc::new(LayerMemo::default());
    let mut plans: Vec<ExecutionPlan> = Vec::with_capacity(specs.len());
    for (i, s) in specs.iter().enumerate() {
        let planner = s.planner().with_memo(Arc::clone(&memo));
        planner
            .plan(&nets[i], s.scheme, &none)
            .map_err(|e| format!("{}: {e}", tag(s)))?;
        let plan = trace
            .span("core.memo.warm_plan", i as u64, || {
                planner.plan(&nets[i], s.scheme, &none)
            })
            .map_err(|e| format!("{}: {e}", tag(s)))?;
        plans.push(plan);
    }
    let mut rendered: Vec<Arc<String>> = Vec::with_capacity(specs.len());
    for round in 0..rounds.min(8) {
        for (i, s) in specs.iter().enumerate() {
            let json = trace.span("core.report.plan_json", i as u64, || {
                plan_json(&plans[i], &s.accelerator)
            });
            if round == 0 {
                rendered.push(Arc::new(json));
            }
        }
    }
    let json_kb = rendered.iter().map(|j| j.len()).sum::<usize>() as f64
        / rendered.len().max(1) as f64
        / 1024.0;

    // The hit path a server takes for each spec's own request line:
    // parse, key hash, cache probe, response render, and the fleet ring
    // lookup in front of it.
    let cache: PlanCache<Arc<String>> = PlanCache::new(specs.len());
    for (i, s) in specs.iter().enumerate() {
        cache.insert(s.cache_key(&nets[i]), Arc::clone(&rendered[i]));
    }
    let ring = HashRing::new(serving::churn_backends(), DEFAULT_VNODES);
    let lines: Vec<String> = specs
        .iter()
        .enumerate()
        .map(|(i, s)| format!("{{\"id\":\"layer-{i}\",{}", serving::request_body(s)))
        .collect();
    // Each spec's hit path is checked once, in the first round.
    let mut reply = String::new();
    for round in 0..rounds {
        for (i, s) in specs.iter().enumerate() {
            let n = i as u64;
            let mut check = |result: Result<(), String>| {
                if round == 0 {
                    tally.op(result.map_err(|e| format!("{}: {e}", tag(s))));
                }
            };
            let parsed = trace.span("serve.protocol.parse_request", n, || {
                protocol::parse_request(&lines[i])
            });
            let req = match parsed {
                Ok(req) if req.to_spec() == *s => req,
                Ok(_) => {
                    check(Err("own request line parses to another spec".into()));
                    continue;
                }
                Err(e) => {
                    check(Err(format!("own request line rejected: {e}")));
                    continue;
                }
            };
            let key = trace.span("core.cache.key_hash", n, || {
                let key = s.cache_key(&nets[i]);
                black_box(key.stable_hash64());
                key
            });
            let Some(plan) = trace.span("core.cache.get", n, || cache.get(&key)) else {
                check(Err("own key missing from a cache holding every spec".into()));
                continue;
            };
            reply.clear();
            trace.span("serve.protocol.render", n, || {
                protocol::ok_plan_response_into(
                    &mut reply,
                    &req.id,
                    true,
                    &RequestMetrics::default(),
                    &plan,
                );
            });
            black_box(trace.span("fleet.ring.owner", n, || {
                ring.owner(key.stable_hash64()).map(str::len)
            }));
            check(Ok(()));
        }
    }

    // exec, check, lint, sim on the chosen plans.
    let mut commands = 0u64;
    for &i in verify {
        let job = Job {
            spec: specs[i].clone(),
            net: nets[i].clone(),
            plan: plans[i].clone(),
        };
        tally.op(verify_zoo::verify(&job, i as u64, trace).map(|v| commands += v.commands));
    }

    // serve and fleet: each spec through a router, as a miss, then a hit.
    let resp_kb = serving::probe(specs, &rendered, trace, tally)?;

    let us = |name| trace.agg(name).mean_self_us();
    let mcmds_per_s = |name| commands as f64 / (trace.agg(name).total_ns as f64 / 1e3);
    Ok(vec![
        metric("model.resolve_us", us("model.resolve")),
        metric("policy.estimate_all_us", us("policy.estimate_all")),
        metric("policy.candidates", candidates as f64),
        metric("policy.feasible_ratio", feasible as f64 / candidates as f64),
        metric("core.select_us", us("core.select")),
        metric("core.plan_greedy_ms", us("core.plan_greedy") / 1e3),
        metric("core.plan_global_ms", us("core.plan_global") / 1e3),
        metric("core.plan_hom_ms", us("core.plan_hom") / 1e3),
        metric("core.global.fallback_cells", fallbacks as f64),
        metric("core.report.plan_json_us", us("core.report.plan_json")),
        metric("core.report.plan_json_kb", json_kb),
        metric("core.memo.warm_plan_us", us("core.memo.warm_plan")),
        metric("core.cache.key_hash_us", us("core.cache.key_hash")),
        metric("core.cache.get_us", us("core.cache.get")),
        metric("exec.lower_ms", us("exec.lower") / 1e3),
        metric("exec.commands", commands as f64 / verify.len() as f64),
        metric("check.check_plan_ms", us("check.check_plan") / 1e3),
        metric("lint.lint_plan_ms", us("lint.lint_plan") / 1e3),
        metric("lint.mcmds_per_s", mcmds_per_s("lint.lint_plan")),
        metric("sim.simulate_plan_ms", us("sim.simulate_plan") / 1e3),
        metric("sim.mcmds_per_s", mcmds_per_s("sim.simulate_plan")),
        metric(
            "serve.protocol.parse_request_us",
            us("serve.protocol.parse_request"),
        ),
        metric("serve.protocol.render_us", us("serve.protocol.render")),
        metric("serve.client.miss_us", us("serve.client.miss")),
        metric("serve.client.hit_us", us("serve.client.hit")),
        metric("serve.client.resp_kb", resp_kb),
        metric("fleet.ring.owner_us", us("fleet.ring.owner")),
    ])
}
