//! `plan-cold`: every zoo model × {het, best-hom} × {greedy, global} ×
//! GLB sizes from below to above the largest layers, each cell resolved,
//! planned by a fresh `Planner` without a memo, and rendered with
//! `plan_json`. `policy` and `core` do all the work: no I/O, no
//! verifier.

use crate::metric;
use crate::report::{passes, plan_quality, Ctx, Outcome, Tally};
use crate::rng::SplitMix64;
use crate::stats::{self, Histogram, WINDOW_S};
use crate::trace::Trace;
use smm_arch::{AcceleratorConfig, ByteSize};
use smm_core::report::plan_json;
use smm_core::{
    CancelToken, ExecutionPlan, ManagerConfig, NetworkRef, Objective, PlanScheme, PlanSpec,
    Planner, SchedulerKind,
};
use smm_model::{zoo, Network};
use smm_policy::PolicyKind;
use std::hint::black_box;
use std::time::Instant;

/// The paper, extended and transformer tiers of the zoo.
pub const MODELS: [&str; 12] = [
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

/// From below the smallest layer working sets to above the largest
/// convolutional ones (~2.3 MB); only VGG16's and AlexNet's FC filter
/// banks stay larger.
pub const GLB_KB: [u64; 5] = [16, 64, 256, 1024, 4096];

const OBJECTIVE: Objective = Objective::Accesses;

#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub model: usize,
    pub glb_kb: u64,
    pub scheme: PlanScheme,
    pub scheduler: SchedulerKind,
}

impl Cell {
    fn acc(&self) -> AcceleratorConfig {
        AcceleratorConfig::paper_default(ByteSize::from_kb(self.glb_kb))
    }

    fn cfg(&self) -> ManagerConfig {
        ManagerConfig::new(OBJECTIVE).with_scheduler(self.scheduler)
    }

    /// Span name of this cell's planning call.
    fn plan_span(&self) -> &'static str {
        match (self.scheme, self.scheduler) {
            (PlanScheme::BestHomogeneous, _) => "core.plan_hom",
            (PlanScheme::Heterogeneous, SchedulerKind::Greedy) => "core.plan_greedy",
            (PlanScheme::Heterogeneous, SchedulerKind::Global) => "core.plan_global",
        }
    }
}

/// The fixed cell list, in a canonical order (each pass shuffles it).
pub fn cells() -> Vec<Cell> {
    let mut out = Vec::new();
    for model in 0..MODELS.len() {
        for glb_kb in GLB_KB {
            for scheme in [PlanScheme::Heterogeneous, PlanScheme::BestHomogeneous] {
                for scheduler in [SchedulerKind::Greedy, SchedulerKind::Global] {
                    out.push(Cell {
                        model,
                        glb_kb,
                        scheme,
                        scheduler,
                    });
                }
            }
        }
    }
    out
}

/// One operation: resolve, plan cold, render.
fn plan_cell(cell: &Cell, trace: &mut Trace) -> Result<(ExecutionPlan, String), String> {
    let net = trace
        .span("model.resolve", 0, || zoo::by_name(MODELS[cell.model]))
        .ok_or_else(|| format!("unknown model {}", MODELS[cell.model]))?;
    let acc = cell.acc();
    let plan = trace
        .span(cell.plan_span(), 0, || {
            Planner::new(acc, cell.cfg()).plan(&net, cell.scheme, &CancelToken::none())
        })
        .map_err(|e| format!("{}: {e}", MODELS[cell.model]))?;
    let json = trace.span("core.report.plan_json", 0, || plan_json(&plan, &acc));
    Ok((plan, json))
}

/// Checks on one plan, re-derived from the network and the plan's own
/// choices rather than from the planner's verdicts.
fn check_plan(cell: &Cell, net: &Network, plan: &ExecutionPlan) -> Result<(), String> {
    let tag = || {
        format!(
            "{} @{}kB {:?}/{}",
            MODELS[cell.model], cell.glb_kb, cell.scheme, cell.scheduler
        )
    };
    let acc = cell.acc();
    if plan.decisions.len() != net.layers.len() {
        return Err(format!(
            "{}: {} decisions for {} layers",
            tag(),
            plan.decisions.len(),
            net.layers.len()
        ));
    }
    // Every layer's working set fits the GLB (double-buffered when
    // prefetching).
    let glb_bytes = cell.glb_kb * 1024;
    let width = acc.data_width.bytes();
    for d in &plan.decisions {
        let r = &d.estimate.resident;
        let copies = if d.estimate.prefetch { 2 } else { 1 };
        let bytes = (r.ifmap + r.filters + r.ofmap) * copies * width;
        if bytes > glb_bytes {
            return Err(format!(
                "{}: layer {} needs {bytes} B > GLB {glb_bytes} B",
                tag(),
                d.layer_name
            ));
        }
    }
    // Traffic is at least every filter once plus the network input once;
    // and the totals are the sum of the per-layer traffic.
    let floor: u64 = net
        .layers
        .iter()
        .map(|l| l.shape.filter_elems())
        .sum::<u64>()
        + net.layers[0].shape.ifmap_elems();
    let mut sum = 0u64;
    for d in &plan.decisions {
        let a = &d.estimate.accesses;
        let ifmap = if d.ifmap_from_glb { 0 } else { a.ifmap_loads };
        let ofmap = if d.ofmap_kept_on_chip {
            0
        } else {
            a.ofmap_stores
        };
        sum += ifmap + a.filter_loads + ofmap + a.psum_spill_stores + a.psum_spill_loads;
    }
    if plan.totals.accesses_elems != sum {
        return Err(format!(
            "{}: totals {} != per-layer sum {sum}",
            tag(),
            plan.totals.accesses_elems
        ));
    }
    if sum < floor {
        return Err(format!(
            "{}: traffic {sum} below the compulsory floor {floor}",
            tag()
        ));
    }
    Ok(())
}

fn key(plan: &ExecutionPlan) -> (u64, u64) {
    OBJECTIVE.key(plan.totals.accesses_elems, plan.totals.latency_cycles)
}

/// What set-up leaves behind: the resolved networks and one reference
/// pass (plans and their rendered bytes, in canonical cell order).
struct Reference {
    nets: Vec<Network>,
    plans: Vec<ExecutionPlan>,
    json: Vec<String>,
}

fn reference(cells: &[Cell]) -> Result<Reference, String> {
    let nets = MODELS
        .iter()
        .map(|m| zoo::by_name(m).ok_or_else(|| format!("unknown model {m}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut off = Trace::new(false, Instant::now(), 0);
    let mut plans = Vec::with_capacity(cells.len());
    let mut json = Vec::with_capacity(cells.len());
    for cell in cells {
        let (plan, text) = plan_cell(cell, &mut off)?;
        plans.push(plan);
        json.push(text);
    }
    Ok(Reference { nets, plans, json })
}

/// Operation times of the untraced passes of one window (whole passes
/// for about `WINDOW_S`). The reported figures are medians over
/// windows, so a burst of outside load moves one window, not the result.
#[derive(Default)]
struct Window {
    hist: Histogram,
    ops: u64,
    busy_ns: u64,
    wall_s: f64,
}

impl Window {
    fn rate(&self) -> f64 {
        self.ops as f64 / (self.busy_ns as f64 / 1e9)
    }
}

/// The untraced windows, and the totals of the traced passes.
#[derive(Default)]
struct Phase {
    windows: Vec<Window>,
    traced_ops: u64,
    traced_ns: u64,
}

impl Phase {
    /// Complete windows (the last one may be cut short by the deadline).
    fn full_windows(&self) -> &[Window] {
        match self.windows.split_last() {
            Some((last, rest)) if last.wall_s < WINDOW_S && !rest.is_empty() => rest,
            _ => &self.windows,
        }
    }

    fn median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        stats::median(&self.full_windows().iter().map(f).collect::<Vec<_>>())
    }

    /// Untraced over traced throughput, as a percentage overhead.
    fn overhead_pct(&self) -> f64 {
        let (ops, ns) = self
            .windows
            .iter()
            .fold((0, 0), |(o, n), w| (o + w.ops, n + w.busy_ns));
        let plain = ops as f64 / ns as f64;
        let traced = self.traced_ops as f64 / self.traced_ns as f64;
        (plain / traced - 1.0) * 100.0
    }
}

/// Whole shuffled passes over the cells (see [`passes`]).
fn measure(
    cells: &[Cell],
    reference: &Reference,
    rng: &mut SplitMix64,
    seconds: f64,
    trace: &mut Trace,
    tally: &mut Tally,
) -> Phase {
    let mut phase = Phase::default();
    let mut order: Vec<usize> = (0..cells.len()).collect();
    passes(seconds, trace, |trace, traced| {
        if !traced && phase.windows.last().is_none_or(|w| w.wall_s >= WINDOW_S) {
            phase.windows.push(Window::default());
        }
        let pass_start = Instant::now();
        rng.shuffle(&mut order);
        for &i in &order {
            let cell = &cells[i];
            trace.begin("plan.cell", i as u64);
            let t0 = Instant::now();
            let out = plan_cell(cell, trace);
            let dt = t0.elapsed().as_nanos() as u64;
            trace.end();
            if traced {
                phase.traced_ops += 1;
                phase.traced_ns += dt;
            } else {
                let w = phase.windows.last_mut().expect("a window is open");
                w.hist.record(dt);
                w.ops += 1;
                w.busy_ns += dt;
            }
            tally.op(out.and_then(|(plan, json)| {
                check_plan(cell, &reference.nets[cell.model], &plan)?;
                if black_box(json) != reference.json[i] {
                    return Err(format!(
                        "{} @{}kB: plan differs from the reference pass",
                        MODELS[cell.model], cell.glb_kb
                    ));
                }
                Ok(())
            }));
        }
        if !traced {
            phase.windows.last_mut().expect("a window is open").wall_s +=
                pass_start.elapsed().as_secs_f64();
        }
    });
    phase
}

/// Cross-cell checks on the reference pass: a global plan never loses
/// to greedy, and a greedy het plan never loses to any homogeneous plan
/// (each planned here, apart from the best-hom search).
fn cross_checks(cells: &[Cell], reference: &Reference, tally: &mut Tally) {
    let find = |c: &Cell, scheme, scheduler| {
        cells
            .iter()
            .position(|o| {
                o.model == c.model
                    && o.glb_kb == c.glb_kb
                    && o.scheme == scheme
                    && o.scheduler == scheduler
            })
            .expect("every cell has its counterparts")
    };
    for (i, c) in cells.iter().enumerate() {
        let name = MODELS[c.model];
        if c.scheduler == SchedulerKind::Global {
            let g = find(c, c.scheme, SchedulerKind::Greedy);
            if key(&reference.plans[i]) > key(&reference.plans[g]) {
                tally.fail(format!(
                    "{name} @{}kB {:?}: global loses to greedy",
                    c.glb_kb, c.scheme
                ));
            }
        }
        if c.scheme == PlanScheme::Heterogeneous && c.scheduler == SchedulerKind::Greedy {
            let planner = Planner::new(c.acc(), c.cfg());
            let net = &reference.nets[c.model];
            for kind in PolicyKind::NAMED {
                match planner.homogeneous_with(net, kind, &CancelToken::none()) {
                    Ok(hom) if key(&reference.plans[i]) > key(&hom) => tally.fail(format!(
                        "{name} @{}kB: het loses to homogeneous {}",
                        c.glb_kb,
                        kind.label()
                    )),
                    Ok(_) => {}
                    Err(e) => {
                        tally.fail(format!("{name} @{}kB hom {}: {e}", c.glb_kb, kind.label()));
                    }
                }
            }
        }
    }
}

pub fn run(ctx: &Ctx, tally: &mut Tally) -> Result<Outcome, String> {
    let cells = cells();
    let reference = reference(&cells)?;
    let setup_s = ctx.start.elapsed().as_secs_f64();
    let mut rng = SplitMix64::stream(ctx.seed, 0);
    let mut trace = Trace::new(ctx.trace, ctx.start, 1);
    let phase = measure(&cells, &reference, &mut rng, ctx.seconds, &mut trace, tally);
    cross_checks(&cells, &reference, tally);
    let metrics = if ctx.trace {
        vec![metric("trace.overhead_pct", phase.overhead_pct())]
    } else {
        let mut out = vec![
            metric("setup_s", setup_s),
            metric("ops_per_s", phase.median(Window::rate)),
            metric("op_p50_us", phase.median(|w| w.hist.percentile(50.0) / 1e3)),
            metric("op_p90_us", phase.median(|w| w.hist.percentile(90.0) / 1e3)),
        ];
        out.extend(plan_quality(
            cells
                .iter()
                .zip(&reference.plans)
                .map(|(c, p)| (p, c.acc())),
        ));
        out
    };
    let specs: Vec<PlanSpec> = cells
        .iter()
        .map(|c| {
            PlanSpec::new(
                NetworkRef::Zoo(MODELS[c.model].into()),
                c.acc(),
                c.cfg(),
                c.scheme,
            )
        })
        .collect();
    // The greedy het plans at the largest GLB size are verified.
    let largest = GLB_KB[GLB_KB.len() - 1];
    let verify = (0..cells.len())
        .filter(|&i| {
            let c = &cells[i];
            c.glb_kb == largest
                && c.scheme == PlanScheme::Heterogeneous
                && c.scheduler == SchedulerKind::Greedy
        })
        .collect();
    Ok(Outcome {
        metrics,
        trace,
        specs,
        verify,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_plans_fail_the_checks() {
        let cell = Cell {
            model: 5,
            glb_kb: 64,
            scheme: PlanScheme::Heterogeneous,
            scheduler: SchedulerKind::Greedy,
        };
        let net = zoo::by_name(MODELS[cell.model]).unwrap();
        let (plan, _) = plan_cell(&cell, &mut Trace::new(false, Instant::now(), 0)).unwrap();
        assert_eq!(check_plan(&cell, &net, &plan), Ok(()));

        let mut oversized = plan.clone();
        oversized.decisions[3].estimate.resident.ifmap += 64 * 1024;
        assert!(check_plan(&cell, &net, &oversized).is_err());

        let mut miscounted = plan.clone();
        miscounted.totals.accesses_elems += 1;
        assert!(check_plan(&cell, &net, &miscounted).is_err());

        let mut too_cheap = plan.clone();
        for d in &mut too_cheap.decisions {
            d.estimate.accesses.filter_loads = 0;
        }
        too_cheap.refresh_totals(&cell.acc());
        assert!(check_plan(&cell, &net, &too_cheap).is_err());

        let mut short = plan;
        short.decisions.pop();
        assert!(check_plan(&cell, &net, &short).is_err());
    }
}
