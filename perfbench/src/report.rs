//! The result line and the per-run bookkeeping every workload shares.

use crate::metric;
use crate::trace::Trace;
use smm_arch::AcceleratorConfig;
use smm_core::{ExecutionPlan, PlanSpec};
use std::fmt::Write as _;
use std::time::Instant;

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    /// Measured time of one run, seconds.
    pub seconds: f64,
    pub trace: bool,
    /// First instant of `main`: set-up time counts from here.
    pub start: Instant,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload hands back: its own metrics (the end-to-end ones
/// when untraced, the tracing overhead when traced), the spans of its
/// measured loop, and the plan specs the per-layer pass runs on.
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub trace: Trace,
    pub specs: Vec<PlanSpec>,
    /// Indices into `specs` whose plans the per-layer pass verifies.
    pub verify: Vec<usize>,
}

/// `offchip_mb` and `plan_mcycles`: the DRAM traffic and the estimated
/// latency of one plan per distinct spec of a workload. They measure
/// the plans themselves and repeat exactly from run to run.
pub fn plan_quality<'a>(
    plans: impl IntoIterator<Item = (&'a ExecutionPlan, AcceleratorConfig)>,
) -> [Metric; 2] {
    let (mut bytes, mut cycles) = (0u64, 0u64);
    for (plan, acc) in plans {
        bytes += plan.totals.accesses_elems * acc.data_width.bytes();
        cycles += plan.totals.latency_cycles;
    }
    [
        metric("offchip_mb", bytes as f64 / (1024.0 * 1024.0)),
        metric("plan_mcycles", cycles as f64 / 1e6),
    ]
}

/// Operations attempted, operations failed, and the check failures
/// behind them. A failed check marks its operation failed and the run
/// incorrect; the first few messages go to stderr.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: bool,
    messages: Vec<String>,
}

impl Tally {
    /// Count one operation; `result` is its check verdict.
    pub fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(msg);
        }
    }

    /// Record a failed check on an operation already counted.
    pub fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.incorrect = true;
        if self.messages.len() < 10 {
            self.messages.push(msg);
        }
    }

    /// Fold another thread's tally into this one.
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.incorrect |= other.incorrect;
        let room = 10usize.saturating_sub(self.messages.len());
        self.messages.extend(other.messages.into_iter().take(room));
    }

    pub fn messages(&self) -> &[String] {
        &self.messages
    }
}

/// Run whole passes for about `seconds`: the run stops after the pass
/// that brings it within half a pass of the deadline, so every run
/// attempts whole rounds of the same operations. With the trace on,
/// passes alternate untraced and traced (at least one of each), so the
/// two rates give the tracing overhead; `pass` is told which it runs.
pub fn passes(seconds: f64, trace: &mut Trace, mut pass: impl FnMut(&mut Trace, bool)) {
    let alternate = trace.is_on();
    let start = Instant::now();
    for n in 0.. {
        let traced = alternate && n % 2 == 1;
        trace.set_on(traced);
        let pass_start = Instant::now();
        pass(trace, traced);
        let pass_s = pass_start.elapsed().as_secs_f64();
        if (!alternate || n >= 1) && start.elapsed().as_secs_f64() + pass_s / 2.0 >= seconds {
            break;
        }
    }
    trace.set_on(alternate);
}

/// Build the final JSON line. A non-finite value cannot be printed as a
/// JSON number; it makes the run incorrect instead.
pub fn result_line(tally: &Tally, metrics: &[Metric]) -> String {
    let mut correct = !tally.incorrect;
    let mut body = String::new();
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            body.push_str(", ");
        }
        let value = if m.value.is_finite() {
            m.value
        } else {
            correct = false;
            0.0
        };
        let _ = write!(
            body,
            "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted, tally.failed
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smm_obs::json::{self, Value};

    /// The metric names and units `BENCHMARK.json` declares under `key`.
    fn declared(key: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let Some(Value::Array(items)) = doc.get(key) else {
            panic!("BENCHMARK.json has no {key} array");
        };
        items
            .iter()
            .map(|m| match (m.get("name"), m.get("unit")) {
                (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                _ => panic!("metric without name/unit: {m:?}"),
            })
            .collect()
    }

    #[test]
    fn result_line_parses_back_into_the_declared_metrics() {
        for (key, names) in [
            ("end_to_end", crate::END_TO_END.to_vec()),
            ("per_layer", crate::PER_LAYER.to_vec()),
        ] {
            let decl = declared(key);
            let metrics: Vec<Metric> = names
                .iter()
                .map(|&(name, unit)| Metric {
                    name,
                    value: 1.25,
                    unit,
                })
                .collect();
            let mut tally = Tally::default();
            tally.op(Ok(()));
            let line = result_line(&tally, &metrics);
            let v = json::parse(&line).expect("result line is JSON");
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            assert_eq!(v.get("attempted"), Some(&Value::Number(1.0)));
            assert_eq!(v.get("failed"), Some(&Value::Number(0.0)));
            let Some(Value::Object(got)) = v.get("metrics") else {
                panic!("no metrics object in {line}");
            };
            let got: Vec<(String, String)> = got
                .iter()
                .map(|(n, m)| match m.get("unit") {
                    Some(Value::String(u)) => (n.clone(), u.clone()),
                    _ => panic!("metric {n} has no unit"),
                })
                .collect();
            assert_eq!(
                got, decl,
                "{key}: emitted metrics differ from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut tally = Tally::default();
        tally.op(Ok(()));
        tally.op(Err("corrupt".into()));
        let line = result_line(&tally, &[]);
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let line = result_line(
            &Tally::default(),
            &[Metric {
                name: "x",
                value: f64::NAN,
                unit: "s",
            }],
        );
        assert!(line.starts_with("{\"correct\": false"));
    }
}
