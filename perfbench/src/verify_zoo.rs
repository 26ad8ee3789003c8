//! `verify-zoo`: a fixed set of plans, made during set-up, each lowered
//! to its DMA command streams, checked, linted and simulated. `exec`,
//! `lint` and `sim` work through millions of commands and set the
//! memory peak; the planner does nothing in the measured loop.

use crate::metric;
use crate::report::{passes, plan_quality, Ctx, Outcome, Tally};
use crate::rng::SplitMix64;
use crate::stats::Histogram;
use crate::trace::Trace;
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_check::DEFAULT_SIM_TOLERANCE;
use smm_core::{
    CancelToken, ExecutionPlan, ManagerConfig, NetworkRef, Objective, PlanScheme, PlanSpec,
    SchedulerKind,
};
use smm_exec::Program;
use smm_model::{zoo, Network};
use smm_policy::AccessCounts;
use smm_sim::SimConfig;
use std::time::Instant;

/// The paper's six models and the transformer tier.
pub const MODELS: [&str; 8] = [
    "efficientnetb0",
    "googlenet",
    "mnasnet",
    "mobilenet",
    "mobilenetv2",
    "resnet18",
    "bert-tiny",
    "gemm-bench",
];

/// At 512 kB the large GEMM and early CNN layers are tiled into
/// millions of DMA commands; at 4096 kB every layer's working set fits.
pub const GLB_KB: [u64; 2] = [512, 4096];

/// One plan to verify, with everything it is verified against.
pub struct Job {
    pub spec: PlanSpec,
    pub net: Network,
    pub plan: ExecutionPlan,
}

impl Job {
    fn tag(&self) -> String {
        format!(
            "{} @{}kB {}",
            self.net.name,
            self.spec.accelerator.glb.bytes() / 1024,
            self.spec.config.scheduler
        )
    }
}

pub fn jobs() -> Result<Vec<Job>, String> {
    let mut out = Vec::new();
    for name in MODELS {
        let net = zoo::by_name(name).ok_or_else(|| format!("unknown model {name}"))?;
        for glb_kb in GLB_KB {
            for scheduler in [SchedulerKind::Greedy, SchedulerKind::Global] {
                let spec = PlanSpec::new(
                    NetworkRef::Zoo(name.into()),
                    AcceleratorConfig::paper_default(ByteSize::from_kb(glb_kb)),
                    ManagerConfig::new(Objective::Accesses).with_scheduler(scheduler),
                    PlanScheme::Heterogeneous,
                );
                let plan = spec
                    .planner()
                    .heterogeneous_with(&net, &CancelToken::none())
                    .map_err(|e| format!("{name} @{glb_kb}kB {scheduler}: {e}"))?;
                out.push(Job {
                    spec,
                    net: net.clone(),
                    plan,
                });
            }
        }
    }
    Ok(out)
}

/// Off-chip traffic in one shape all three verifiers can report:
/// (ifmap loads, filter loads, ofmap writes incl. spills, spill reloads).
type Traffic = (u64, u64, u64, u64);

fn traffic(a: &AccessCounts) -> Traffic {
    (
        a.ifmap_loads,
        a.filter_loads,
        a.ofmap_stores + a.psum_spill_stores,
        a.psum_spill_loads,
    )
}

/// What one verification of one plan yields.
pub struct Verified {
    pub commands: u64,
    pub sim_cycles: u64,
}

/// One operation: lower every layer, then check, lint and simulate the
/// plan, and cross-check the three verifiers' findings.
pub fn verify(job: &Job, req: u64, trace: &mut Trace) -> Result<Verified, String> {
    let (plan, net, acc) = (&job.plan, &job.net, &job.spec.accelerator);
    trace.begin("exec.lower", req);
    let mut commands = 0u64;
    for (d, layer) in plan.decisions.iter().zip(&net.layers) {
        match Program::lower(&layer.shape, &d.estimate) {
            Ok(p) => commands += p.commands.len() as u64,
            Err(e) => {
                trace.end();
                return Err(format!("{}: lowering {}: {e}", job.tag(), d.layer_name));
            }
        }
    }
    trace.end();
    let check = trace.span("check.check_plan", req, || {
        smm_check::check_plan(plan, net, acc)
    });
    if !check.is_clean() {
        return Err(format!(
            "{}: check reports {:?}",
            job.tag(),
            check.diagnostics.first()
        ));
    }
    let lint = trace
        .span("lint.lint_plan", req, || smm_lint::lint_plan(plan, net))
        .map_err(|e| format!("{}: lint: {e}", job.tag()))?;
    if !lint.is_clean() {
        return Err(format!(
            "{}: lint reports {:?}",
            job.tag(),
            lint.diagnostics().next()
        ));
    }
    if lint.commands() as u64 != commands {
        return Err(format!(
            "{}: lint saw {} commands, lowering made {commands}",
            job.tag(),
            lint.commands()
        ));
    }
    // Keep only lint's per-layer traffic: the report holds one
    // annotation per command, and the benchmark should not add it to
    // the simulator's own peak.
    let lint_traffic: Vec<Traffic> = lint
        .layers
        .iter()
        .map(|l| {
            (
                l.lint.ifmap_loads,
                l.lint.filter_loads,
                l.lint.ofmap_writes,
                l.lint.ofmap_reads,
            )
        })
        .collect();
    drop(lint);
    let sim = trace
        .span("sim.simulate_plan", req, || {
            smm_sim::simulate_plan(plan, net, acc, &SimConfig::default())
        })
        .map_err(|e| format!("{}: sim: {e}", job.tag()))?;
    if sim.totals.occupancy_violations != 0 {
        return Err(format!(
            "{}: {} simulated occupancy violations",
            job.tag(),
            sim.totals.occupancy_violations
        ));
    }
    let analytic = plan.totals.latency_cycles as f64;
    let divergence = (sim.totals.cycles as f64 - analytic).abs() / analytic.max(1.0);
    if divergence > DEFAULT_SIM_TOLERANCE {
        return Err(format!(
            "{}: simulated latency diverges by {:.2}%",
            job.tag(),
            divergence * 100.0
        ));
    }
    if lint_traffic.len() != plan.decisions.len() || sim.layers.len() != plan.decisions.len() {
        return Err(format!(
            "{}: verifier reports cover the wrong layer count",
            job.tag()
        ));
    }
    // Per layer, three independent paths agree on traffic: the plan's
    // estimate, the traffic lint derives from the command stream, and
    // the traffic the simulator moves. Lint reads the raw stream, so the
    // plan's inter-layer elisions are applied to its figure here.
    for ((d, &raw), s) in plan.decisions.iter().zip(&lint_traffic).zip(&sim.layers) {
        if raw != traffic(&d.estimate.accesses) {
            return Err(format!(
                "{}: layer {}: lint traffic {raw:?} != estimate {:?}",
                job.tag(),
                d.layer_name,
                traffic(&d.estimate.accesses)
            ));
        }
        let elided = (
            if d.ifmap_from_glb { 0 } else { raw.0 },
            raw.1,
            if d.ofmap_kept_on_chip { 0 } else { raw.2 },
            raw.3,
        );
        let planned = traffic(&d.effective_accesses());
        let simulated = traffic(&s.stats.traffic);
        if elided != planned || simulated != planned {
            return Err(format!(
                "{}: layer {}: traffic disagrees: plan {planned:?}, lint {elided:?}, sim {simulated:?}",
                job.tag(),
                d.layer_name
            ));
        }
    }
    Ok(Verified {
        commands,
        sim_cycles: sim.totals.cycles,
    })
}

/// Totals of the untraced or of the traced passes.
#[derive(Default)]
struct Phase {
    ops: u64,
    busy_ns: u64,
    hist: Histogram,
}

impl Phase {
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.busy_ns as f64 / 1e9)
    }
}

/// Whole passes over the jobs (see [`passes`]), each in the same cyclic
/// order from a seeded starting job. A plan's verification time depends
/// on what the previous plan left in the heap and caches (a shuffled
/// order moved single plans by up to 60 %), so the order stays fixed. Returns the
/// untraced and the traced totals; each job's simulated cycles must
/// repeat exactly from pass to pass.
fn measure(
    jobs: &[Job],
    rng: &mut SplitMix64,
    seconds: f64,
    trace: &mut Trace,
    tally: &mut Tally,
) -> (Phase, Phase) {
    let (mut plain, mut traced) = (Phase::default(), Phase::default());
    let mut cycles: Vec<Option<u64>> = vec![None; jobs.len()];
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.rotate_left(rng.below(jobs.len()));
    passes(seconds, trace, |trace, on| {
        let phase = if on { &mut traced } else { &mut plain };
        for &i in &order {
            trace.begin("verify.plan", i as u64);
            let t0 = Instant::now();
            let out = verify(&jobs[i], i as u64, trace);
            let dt = t0.elapsed().as_nanos() as u64;
            phase.busy_ns += dt;
            phase.hist.record(dt);
            trace.end();
            phase.ops += 1;
            tally.op(out.and_then(|v| match cycles[i] {
                Some(c) if c != v.sim_cycles => Err(format!(
                    "{}: simulated cycles changed between passes",
                    jobs[i].tag()
                )),
                _ => {
                    cycles[i] = Some(v.sim_cycles);
                    Ok(())
                }
            }));
        }
    });
    (plain, traced)
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let jobs = jobs()?;
    let setup_s = ctx.start.elapsed().as_secs_f64();
    let mut rng = SplitMix64::stream(ctx.seed, 0);
    let mut trace = Trace::new(ctx.trace, ctx.start, 1);
    let (plain, traced) = measure(&jobs, &mut rng, ctx.seconds, &mut trace, tally);
    let metrics = if ctx.trace {
        vec![metric(
            "trace.overhead_pct",
            (plain.rate() / traced.rate() - 1.0) * 100.0,
        )]
    } else {
        let mut out = vec![
            metric("setup_s", setup_s),
            metric("ops_per_s", plain.rate()),
            metric("op_p50_us", plain.hist.percentile(50.0) / 1e3),
            metric("op_p90_us", plain.hist.percentile(90.0) / 1e3),
        ];
        out.extend(plan_quality(
            jobs.iter().map(|j| (&j.plan, j.spec.accelerator)),
        ));
        out
    };
    Ok(Outcome {
        metrics,
        trace,
        verify: (0..jobs.len()).collect(),
        specs: jobs.into_iter().map(|j| j.spec).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job() -> Job {
        let net = zoo::by_name("resnet18").unwrap();
        let spec = PlanSpec::new(
            NetworkRef::Zoo("resnet18".into()),
            AcceleratorConfig::paper_default(ByteSize::from_kb(4096)),
            ManagerConfig::new(Objective::Accesses),
            PlanScheme::Heterogeneous,
        );
        let plan = spec
            .planner()
            .heterogeneous_with(&net, &CancelToken::none())
            .unwrap();
        Job { spec, net, plan }
    }

    #[test]
    fn clean_plans_verify_and_corrupted_plans_fail() {
        let mut off = Trace::new(false, Instant::now(), 0);
        assert!(verify(&job(), 0, &mut off).is_ok());

        let mut traffic = job();
        traffic.plan.decisions[2].estimate.accesses.filter_loads += 1;
        traffic.plan.refresh_totals(&traffic.spec.accelerator);
        assert!(verify(&traffic, 0, &mut off).is_err());

        let mut elided = job();
        elided.plan.decisions[4].ifmap_from_glb = true;
        elided.plan.refresh_totals(&elided.spec.accelerator);
        assert!(verify(&elided, 0, &mut off).is_err());

        let mut latency = job();
        latency.plan.totals.latency_cycles = latency.plan.totals.latency_cycles * 11 / 10;
        assert!(verify(&latency, 0, &mut off).is_err());
    }
}
