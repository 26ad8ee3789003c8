//! The repository benchmark: one named workload per invocation.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <plan-cold|verify-zoo|serve-hot|fleet-churn> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of stdout is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`). See `perfbench/README.md`.

mod affinity;
mod layers;
mod plan_cold;
mod report;
mod rng;
mod serving;
mod stats;
mod trace;
mod verify_zoo;

use report::{Ctx, Metric, Outcome, Tally};
use std::process::ExitCode;
use std::time::Instant;
use trace::Trace;

pub const WORKLOADS: [&str; 4] = ["plan-cold", "verify-zoo", "serve-hot", "fleet-churn"];

/// End-to-end metrics, in `BENCHMARK.json` order, with their units.
/// Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "op/s"),
    ("op_p50_us", "us"),
    ("op_p90_us", "us"),
    ("offchip_mb", "MB"),
    ("plan_mcycles", "Mcycles"),
];

/// Per-layer metrics, in `BENCHMARK.json` order, with their units.
/// Every workload's traced run reports every one of them.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("model.resolve_us", "us"),
    ("policy.estimate_all_us", "us"),
    ("policy.candidates", "count"),
    ("policy.feasible_ratio", "ratio"),
    ("core.select_us", "us"),
    ("core.plan_greedy_ms", "ms"),
    ("core.plan_global_ms", "ms"),
    ("core.plan_hom_ms", "ms"),
    ("core.global.fallback_cells", "count"),
    ("core.report.plan_json_us", "us"),
    ("core.report.plan_json_kb", "kB"),
    ("core.memo.warm_plan_us", "us"),
    ("core.cache.key_hash_us", "us"),
    ("core.cache.get_us", "us"),
    ("exec.lower_ms", "ms"),
    ("exec.commands", "count"),
    ("check.check_plan_ms", "ms"),
    ("lint.lint_plan_ms", "ms"),
    ("lint.mcmds_per_s", "Mcmd/s"),
    ("sim.simulate_plan_ms", "ms"),
    ("sim.mcmds_per_s", "Mcmd/s"),
    ("serve.protocol.parse_request_us", "us"),
    ("serve.protocol.render_us", "us"),
    ("serve.client.miss_us", "us"),
    ("serve.client.hit_us", "us"),
    ("serve.client.resp_kb", "kB"),
    ("fleet.ring.owner_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
];

/// A metric by its declared name; the unit comes from the tables above,
/// so a workload cannot report an undeclared metric.
pub fn metric(name: &'static str, value: f64) -> Metric {
    let unit = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared"))
        .1;
    Metric { name, value, unit }
}

/// Write a traced run's spans to `perfbench/traces/`, under the
/// current directory. A write failure is reported, not fatal: the
/// metrics are already measured.
pub fn write_trace(ctx: &Ctx, trace: &trace::Trace) {
    let path = std::path::Path::new("perfbench/traces")
        .join(format!("{}-seed{}.jsonl", ctx.workload, ctx.seed));
    if let Err(e) = trace.write_jsonl(&path) {
        eprintln!("perfbench: cannot write {}: {e}", path.display());
    }
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn parse_args(start: Instant, args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(format!("unknown workload {value:?}")),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds {value:?}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("trace must be 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Ctx {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        start,
    })
}

/// Put `metrics` in the order of `declared`, or say which declared
/// metric is missing or reported twice.
fn in_order(metrics: Vec<Metric>, declared: &[(&str, &str)]) -> Result<Vec<Metric>, String> {
    let mut out = Vec::with_capacity(declared.len());
    for (name, _) in declared {
        let mut found = metrics.iter().filter(|m| m.name == *name);
        match (found.next(), found.next()) {
            (Some(m), None) => out.push(m.clone()),
            (None, _) => return Err(format!("metric {name} was not measured")),
            (Some(_), Some(_)) => return Err(format!("metric {name} was reported twice")),
        }
    }
    if metrics.len() != declared.len() {
        return Err("a reported metric is not declared".into());
    }
    Ok(out)
}

/// The workload, then, with the trace on, the per-layer pass on the
/// workload's own plan specs.
fn measure(ctx: &Ctx, tally: &mut Tally) -> Result<Vec<Metric>, String> {
    let outcome = match ctx.workload.as_str() {
        "plan-cold" => plan_cold::run(ctx, tally),
        "verify-zoo" => verify_zoo::run(ctx, tally),
        "serve-hot" => serving::run_serve_hot(ctx, tally),
        "fleet-churn" => serving::run_fleet_churn(ctx, tally),
        other => unreachable!("workload {other} passed argument parsing"),
    }?;
    let Outcome {
        mut metrics,
        mut trace,
        specs,
        verify,
    } = outcome;
    if !ctx.trace {
        let rss = stats::peak_rss_mb().ok_or("cannot read the peak RSS from /proc/self/status")?;
        metrics.push(metric("peak_rss_mb", rss));
        return in_order(metrics, &END_TO_END);
    }
    let mut layer_trace = Trace::new(true, ctx.start, 9);
    metrics.extend(layers::run(&specs, &verify, &mut layer_trace, tally)?);
    trace.merge(layer_trace);
    metrics.push(metric("trace.spans", trace.spans() as f64));
    write_trace(ctx, &trace);
    in_order(metrics, &PER_LAYER)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ctx = match parse_args(start, &args) {
        Ok(ctx) => ctx,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if let Err(e) = affinity::pin_to_first_cpu() {
        eprintln!("perfbench: cannot pin to one CPU, running unpinned: {e}");
    }
    let mut tally = Tally::default();
    let metrics = match measure(&ctx, &mut tally) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            return ExitCode::FAILURE;
        }
    };
    for msg in tally.messages() {
        eprintln!("perfbench: check failed: {msg}");
    }
    println!("{}", report::result_line(&tally, &metrics));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let ctx = parse_args(
            Instant::now(),
            &args("--workload serve-hot --seed 7 --seconds 10 --trace 1"),
        )
        .expect("valid arguments");
        assert_eq!(
            (ctx.workload.as_str(), ctx.seed, ctx.seconds, ctx.trace),
            ("serve-hot", 7, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1",
            "--workload plan-cold --seconds 1",
            "--workload plan-cold --seed 1 --seconds 0",
            "--workload plan-cold --seed 1 --seconds 1 --trace 2",
            "--workload plan-cold --seed 1 --seconds",
        ] {
            assert!(parse_args(Instant::now(), &args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn metrics_come_out_in_declared_order_and_complete() {
        let declared = [("a_s", "s"), ("b_us", "us")];
        let m = |name| Metric {
            name,
            value: 1.0,
            unit: "s",
        };
        let names = |ms: Vec<Metric>| ms.iter().map(|m| m.name).collect::<Vec<_>>();
        assert_eq!(
            in_order(vec![m("b_us"), m("a_s")], &declared).map(names),
            Ok(vec!["a_s", "b_us"])
        );
        assert!(in_order(vec![m("a_s")], &declared).is_err(), "missing");
        assert!(
            in_order(vec![m("a_s"), m("a_s"), m("b_us")], &declared).is_err(),
            "twice"
        );
        assert!(
            in_order(vec![m("a_s"), m("b_us"), m("c")], &declared).is_err(),
            "undeclared"
        );
    }
}
