//! The `smm` subcommands.

use crate::args::Options;
use smm_arch::{AcceleratorConfig, ByteSize, GLB_SIZES_KB};
use smm_core::energy::{plan_energy, EnergyModel};
use smm_core::report::{plan_csv, plan_json, TextTable};
use smm_core::{
    batch, interlayer, tenancy, CancelToken, LayerPlanner, ManagerConfig, NetworkRef, PlanScheme,
    PlanSpec,
};
use smm_model::{topology, zoo, Network};
use smm_systolic::{simulate_network, BaselineConfig, BufferSplit};

/// Resolve a positional target into a network reference: a zoo model
/// name or a topology CSV path (read here; the parse happens when the
/// spec resolves).
fn network_ref(opts: &Options) -> Result<NetworkRef, String> {
    let Some(target) = &opts.target else {
        return Err("missing model name or topology file".into());
    };
    if zoo::by_name(target).is_some() {
        return Ok(NetworkRef::Zoo(target.clone()));
    }
    if std::path::Path::new(target).exists() {
        let text = std::fs::read_to_string(target).map_err(|e| format!("{target}: {e}"))?;
        let name = std::path::Path::new(target)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("topology")
            .to_string();
        return Ok(NetworkRef::Inline {
            name,
            topology: text,
        });
    }
    Err(format!(
        "{target:?} is neither a zoo model nor a topology file; try `smm list-models`"
    ))
}

/// Resolve a positional target into the network itself.
fn load_network(opts: &Options) -> Result<Network, String> {
    network_ref(opts)?.resolve().map_err(|e| e.to_string())
}

fn accelerator(opts: &Options) -> AcceleratorConfig {
    AcceleratorConfig::paper_default(ByteSize::from_kb(opts.glb_kb)).with_data_width(opts.width)
}

fn manager_config(opts: &Options) -> ManagerConfig {
    ManagerConfig::new(opts.objective)
        .with_prefetch(opts.prefetch)
        .with_inter_layer_reuse(opts.inter_layer)
        .with_scheduler(opts.scheduler)
}

/// The [`PlanSpec`] the parsed command line describes: every planning
/// subcommand derives its job (and any cache key) from this one value.
fn plan_spec(opts: &Options) -> Result<PlanSpec, String> {
    let scheme = if opts.heterogeneous {
        PlanScheme::Heterogeneous
    } else {
        PlanScheme::BestHomogeneous
    };
    Ok(PlanSpec::new(
        network_ref(opts)?,
        accelerator(opts),
        manager_config(opts),
        scheme,
    )
    .with_batch(opts.batch))
}

/// Run `body` with the observability collector enabled when `--profile`
/// or `--trace-out` asked for it, then print the profile report and/or
/// write the Chrome trace. The report and trace are still produced when
/// `body` fails, so a failing run can be inspected too.
pub fn with_observability(
    opts: &Options,
    body: impl FnOnce() -> Result<(), String>,
) -> Result<(), String> {
    let active = opts.profile || opts.trace_out.is_some();
    if active {
        smm_obs::reset();
        smm_obs::set_enabled(true);
        smm_obs::set_trace_events(opts.trace_out.is_some());
    }
    let result = body();
    if active {
        smm_obs::set_enabled(false);
        smm_obs::set_trace_events(false);
        if opts.profile {
            println!();
            print!("{}", smm_obs::report());
        }
        if let Some(path) = &opts.trace_out {
            smm_obs::write_chrome_trace(path).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("wrote Chrome trace to {path} (open in chrome://tracing or ui.perfetto.dev)");
        }
    }
    result
}

/// `smm list-models` — the full zoo (the paper's six, the extended
/// CNNs, and the transformer/GEMM nets), with per-model layer counts
/// and parameter/feature footprints at 8-bit data width.
pub fn list_models() -> Result<(), String> {
    let mut t = TextTable::new(&[
        "Network",
        "Layers",
        "Types",
        "MACs (M)",
        "Params kB",
        "Peak feat kB",
        "Max layer kB",
    ]);
    let groups = [
        zoo::all_networks(),
        zoo::extended_networks(),
        zoo::transformer_networks(),
    ];
    for net in groups.into_iter().flatten() {
        let s = net.stats(smm_arch::DataWidth::W8);
        let kinds: Vec<&str> = s.kinds.iter().map(|k| k.code()).collect();
        let footprints = net.footprints(smm_arch::DataWidth::W8);
        let params_bytes: u64 = footprints.iter().map(|f| f.filters.bytes()).sum();
        let peak_feat_bytes = footprints
            .iter()
            .map(|f| f.ifmap.bytes() + f.ofmap.bytes())
            .max()
            .unwrap_or(0);
        t.row(vec![
            net.name.clone(),
            s.layers.to_string(),
            kinds.join(", "),
            format!("{:.0}", s.total_macs as f64 / 1e6),
            format!("{:.1}", ByteSize(params_bytes).kb()),
            format!("{:.1}", ByteSize(peak_feat_bytes).kb()),
            format!("{:.1}", s.max_layer_footprint.kb()),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `smm analyze <model>`
pub fn analyze(opts: &Options) -> Result<(), String> {
    let spec = plan_spec(opts)?;
    let net = spec.resolve().map_err(|e| e.to_string())?;
    let plan = spec
        .planner()
        .plan(&net, spec.scheme, &CancelToken::none())
        .map_err(|e| e.to_string())?;

    if opts.json {
        println!("{}", plan_json(&plan, &spec.accelerator));
        return Ok(());
    }
    if opts.csv {
        print!("{}", plan_csv(&plan, &spec.accelerator));
        return Ok(());
    }

    println!(
        "{} @ {} GLB, {}, objective {:?}, scheme {}",
        net.name,
        spec.accelerator.glb,
        spec.accelerator.data_width,
        spec.config.objective,
        plan.scheme.label()
    );
    let mut t = TextTable::new(&[
        "Layer", "Policy", "+p", "ifmap", "filter", "ofmap", "req kB", "acc kB", "cycles",
    ]);
    let acc = &spec.accelerator;
    for d in &plan.decisions {
        let alloc = d.estimate.allocation();
        t.row(vec![
            d.layer_name.clone(),
            format!(
                "{}{}",
                d.estimate.kind.label(),
                d.estimate
                    .block_n
                    .map(|n| format!("(n={n})"))
                    .unwrap_or_default()
            ),
            if d.estimate.prefetch { "+p" } else { "" }.into(),
            alloc.ifmap.to_string(),
            alloc.filters.to_string(),
            alloc.ofmap.to_string(),
            format!("{:.1}", d.estimate.required_bytes(acc).kb()),
            format!(
                "{:.1}",
                ByteSize::from_elements(d.effective_accesses().total(), acc.data_width).kb()
            ),
            d.effective_latency(acc).cycles.to_string(),
        ]);
    }
    print!("{}", t.render());
    println!(
        "totals: {:.2} MB off-chip, {} cycles ({} compute / {} transfer)",
        plan.totals.accesses_bytes.mb(),
        plan.totals.latency_cycles,
        plan.totals.compute_cycles,
        plan.totals.transfer_cycles
    );
    println!(
        "prefetch coverage {:.0}%  inter-layer coverage {:.0}%",
        plan.prefetch_coverage() * 100.0,
        plan.inter_layer_coverage(interlayer::possible_transitions(&net)) * 100.0
    );
    let e = plan_energy(&EnergyModel::default(), &plan, &net);
    println!(
        "energy: {:.1} uJ ({:.0}% off-chip transfers)",
        e.total_uj(),
        e.dram_share() * 100.0
    );
    if opts.batch > 1 {
        let b = batch::batched_totals(&plan, &net, acc, opts.batch);
        println!(
            "batch {}: {:.2} MB off-chip ({:.2} MB/image), {} cycles",
            opts.batch,
            b.accesses_bytes.mb(),
            b.accesses_bytes.mb() / opts.batch as f64,
            b.latency_cycles
        );
    }
    Ok(())
}

/// `smm check <model|topology.csv|all>` — plan, then statically verify
/// the plan against the paper's GLB invariants with `smm-check`.
pub fn check(opts: &Options) -> Result<(), String> {
    if opts.target.as_deref() == Some("all") {
        return check_all(opts);
    }
    let spec = plan_spec(opts)?;
    let net = spec.resolve().map_err(|e| e.to_string())?;
    let plan = spec
        .planner()
        .plan(&net, spec.scheme, &CancelToken::none())
        .map_err(|e| e.to_string())?;
    let report = smm_check::check_plan(&plan, &net, &spec.accelerator);
    if opts.json {
        println!(
            "{}",
            smm_check::report_json(&report, &plan, &spec.accelerator)
        );
    } else {
        print!("{}", smm_check::render_text(&report, &plan));
    }
    if report.error_count() > 0 {
        return Err(format!(
            "plan verification failed: {} error(s)",
            report.error_count()
        ));
    }
    // `--lint` composes the command-stream analysis onto the plan-level
    // check: the plan passed SMM001–SMM011, now prove SMM012–SMM018.
    if opts.lint {
        let lrep = smm_lint::lint_plan(&plan, &net).map_err(|e| e.to_string())?;
        if opts.json {
            println!("{}", smm_lint::report_json(&lrep));
        } else {
            print!("{}", smm_lint::render_text(&lrep));
        }
        if lrep.error_count() > 0 {
            return Err(format!(
                "stream lint failed: {} error(s)",
                lrep.error_count()
            ));
        }
    }
    Ok(())
}

/// `smm lint <model|topology.csv|all>` — plan, lower every layer, and
/// statically analyze the DMA command streams: hazard proofs, occupancy
/// proofs, redundant-transfer detection (SMM012–SMM018).
pub fn lint(opts: &Options) -> Result<(), String> {
    if opts.target.as_deref() == Some("all") {
        return lint_all(opts);
    }
    let spec = plan_spec(opts)?;
    let net = spec.resolve().map_err(|e| e.to_string())?;
    let plan = spec
        .planner()
        .plan(&net, spec.scheme, &CancelToken::none())
        .map_err(|e| e.to_string())?;
    let report = smm_lint::lint_plan(&plan, &net).map_err(|e| e.to_string())?;
    if opts.json {
        println!("{}", smm_lint::report_json(&report));
    } else {
        print!("{}", smm_lint::render_text(&report));
    }
    if report.error_count() > 0 {
        return Err(format!(
            "stream lint failed: {} error(s)",
            report.error_count()
        ));
    }
    Ok(())
}

/// The lint acceptance matrix: every paper-zoo model plus the
/// transformer nets, under both objectives, at the requested GLB size
/// and scheme. One line (or JSON entry) per run.
fn lint_all(opts: &Options) -> Result<(), String> {
    use smm_core::{LayerMemo, Objective};
    use std::sync::Arc;
    let mut failures = 0usize;
    let mut entries = Vec::new();
    // One memo for the whole matrix: identical shapes recur both within
    // a model and across related models, so later runs replan less.
    let memo = Arc::new(LayerMemo::default());
    let nets = zoo::all_networks()
        .into_iter()
        .chain(zoo::transformer_networks());
    for net in nets {
        for objective in [Objective::Accesses, Objective::Latency] {
            let o = Options {
                objective,
                target: Some(net.name.clone()),
                ..opts.clone()
            };
            let spec = plan_spec(&o)?;
            let plan = spec
                .planner()
                .with_memo(Arc::clone(&memo))
                .plan(&net, spec.scheme, &CancelToken::none())
                .map_err(|e| format!("{} ({objective:?}): {e}", net.name))?;
            let report = smm_lint::lint_plan(&plan, &net)
                .map_err(|e| format!("{} ({objective:?}): {e}", net.name))?;
            let errors = report.error_count();
            failures += usize::from(errors > 0);
            if opts.json {
                entries.push(format!(
                    "{{\"network\":\"{}\",\"objective\":\"{objective:?}\",\"clean\":{},\
                     \"errors\":{errors},\"commands\":{},\"peak_occupancy_elems\":{},\
                     \"redundant_elems\":{}}}",
                    smm_core::report::json_escape(&net.name),
                    report.is_clean(),
                    report.commands(),
                    report.peak_occupancy(),
                    report.redundant_elems,
                ));
            } else {
                let verdict = if report.is_clean() { "ok  " } else { "FAIL" };
                println!(
                    "{verdict} {:<16} {objective:?}: {} commands, peak {} elements, \
                     {} redundant, {} diagnostics",
                    net.name,
                    report.commands(),
                    report.peak_occupancy(),
                    report.redundant_elems,
                    report.diagnostics().count(),
                );
                for d in report.diagnostics() {
                    println!("     {d}");
                }
            }
        }
    }
    if opts.json {
        println!("[{}]", entries.join(","));
    }
    if failures > 0 {
        return Err(format!("{failures} stream(s) failed lint"));
    }
    if !opts.json {
        println!("all streams hazard-free @ {}kB GLB", opts.glb_kb);
    }
    Ok(())
}

/// The acceptance matrix: every paper-zoo model plus the transformer
/// nets, under both objectives, at the requested GLB size and scheme.
/// One line (or JSON entry) per run.
fn check_all(opts: &Options) -> Result<(), String> {
    use smm_core::{LayerMemo, Objective};
    use std::sync::Arc;
    let mut failures = 0usize;
    let mut entries = Vec::new();
    // One memo for the whole matrix: identical shapes recur both within
    // a model and across related models, so later runs replan less.
    let memo = Arc::new(LayerMemo::default());
    let nets = zoo::all_networks()
        .into_iter()
        .chain(zoo::transformer_networks());
    for net in nets {
        for objective in [Objective::Accesses, Objective::Latency] {
            let o = Options {
                objective,
                target: Some(net.name.clone()),
                ..opts.clone()
            };
            let spec = plan_spec(&o)?;
            let plan = spec
                .planner()
                .with_memo(Arc::clone(&memo))
                .plan(&net, spec.scheme, &CancelToken::none())
                .map_err(|e| format!("{} ({objective:?}): {e}", net.name))?;
            let report = smm_check::check_plan(&plan, &net, &spec.accelerator);
            let mut errors = report.error_count();
            // `--lint` folds the stream analysis into the same matrix:
            // each cell must pass the plan check *and* lint clean.
            let lint_errors = if opts.lint {
                let lrep = smm_lint::lint_plan(&plan, &net)
                    .map_err(|e| format!("{} ({objective:?}): {e}", net.name))?;
                if !opts.json {
                    for d in lrep.diagnostics() {
                        println!("     {d}");
                    }
                }
                lrep.error_count()
            } else {
                0
            };
            errors += lint_errors;
            failures += usize::from(errors > 0);
            if opts.json {
                entries.push(format!(
                    "{{\"network\":\"{}\",\"objective\":\"{objective:?}\",\"clean\":{},\
                     \"errors\":{errors},\"warnings\":{},\"peak_occupancy_elems\":{},\
                     \"capacity_elems\":{}}}",
                    smm_core::report::json_escape(&net.name),
                    errors == 0 && report.is_clean(),
                    report.diagnostics.len() - report.error_count(),
                    report.peak_occupancy(),
                    report.capacity_elems,
                ));
            } else {
                let verdict = if report.is_clean() && lint_errors == 0 {
                    "ok  "
                } else {
                    "FAIL"
                };
                println!(
                    "{verdict} {:<16} {objective:?}: peak {}/{} elements, {} diagnostics",
                    net.name,
                    report.peak_occupancy(),
                    report.capacity_elems,
                    report.diagnostics.len() + lint_errors,
                );
                for d in &report.diagnostics {
                    println!("     {d}");
                }
            }
        }
    }
    if opts.json {
        println!("[{}]", entries.join(","));
    }
    if failures > 0 {
        return Err(format!("{failures} plan(s) failed verification"));
    }
    if !opts.json {
        println!("all plans clean @ {}kB GLB", opts.glb_kb);
    }
    Ok(())
}

/// `smm tenants <modelA> <modelB>` — partition one GLB between two
/// co-resident models.
pub fn tenants(opts: &Options) -> Result<(), String> {
    let net_a = load_network(opts)?;
    let net_b = {
        let mut o = opts.clone();
        o.target.clone_from(&opts.target2);
        o.target2 = None;
        load_network(&o)?
    };
    let t = tenancy::partition(accelerator(opts), manager_config(opts), &net_a, &net_b, 5)
        .map_err(|e| e.to_string())?;
    println!(
        "best static split of {}: {} for {}, {} for {}",
        accelerator(opts).glb,
        t.split_a,
        net_a.name,
        ByteSize(accelerator(opts).glb.bytes() - t.split_a.bytes()),
        net_b.name
    );
    println!(
        "  {}: {:.2} MB off-chip, {} cycles",
        net_a.name,
        t.plan_a.totals.accesses_bytes.mb(),
        t.plan_a.totals.latency_cycles
    );
    println!(
        "  {}: {:.2} MB off-chip, {} cycles",
        net_b.name,
        t.plan_b.totals.accesses_bytes.mb(),
        t.plan_b.totals.latency_cycles
    );
    Ok(())
}

/// `smm explain <model> <layer>` — Algorithm 1's view of one layer.
pub fn explain(opts: &Options) -> Result<(), String> {
    let net = load_network(opts)?;
    let Some(layer_name) = &opts.target2 else {
        return Err("explain needs a layer name; try `smm topology <model>` to list layers".into());
    };
    let layer = net
        .layer(layer_name)
        .ok_or_else(|| format!("{} has no layer {layer_name:?}", net.name))?;
    let acc = accelerator(opts);
    let lp = LayerPlanner::new(acc, manager_config(opts));
    println!(
        "{}/{} @ {} GLB ({:?} objective): candidates of Algorithm 1",
        net.name, layer.name, acc.glb, opts.objective
    );
    let mut t = TextTable::new(&[
        "policy",
        "+p",
        "n",
        "memory kB",
        "accesses",
        "cycles",
        "fits",
        "chosen",
    ]);
    for c in lp.explain(&layer.shape) {
        t.row(vec![
            c.estimate.kind.label().into(),
            if c.estimate.prefetch { "+p" } else { "" }.into(),
            c.estimate
                .block_n
                .map(|n| n.to_string())
                .unwrap_or_default(),
            format!("{:.1}", c.estimate.required_bytes(&acc).kb()),
            c.estimate.accesses.total().to_string(),
            c.estimate.latency.cycles.to_string(),
            if c.feasible { "yes" } else { "no" }.into(),
            if c.chosen { "<==" } else { "" }.into(),
        ]);
    }
    print!("{}", t.render());
    Ok(())
}

/// `smm lower <model> <layer>` — the DMA command stream of the chosen
/// policy for one layer (truncated listing).
pub fn lower(opts: &Options) -> Result<(), String> {
    const HEAD: usize = 40;
    let net = load_network(opts)?;
    let Some(layer_name) = &opts.target2 else {
        return Err("lower needs a layer name".into());
    };
    let layer = net
        .layer(layer_name)
        .ok_or_else(|| format!("{} has no layer {layer_name:?}", net.name))?;
    let acc = accelerator(opts);
    let lp = LayerPlanner::new(acc, manager_config(opts));
    let chosen = lp
        .explain(&layer.shape)
        .into_iter()
        .find(|c| c.chosen)
        .ok_or_else(|| format!("no policy fits {layer_name} in {}", acc.glb))?;
    let program =
        smm_exec::Program::lower(&layer.shape, &chosen.estimate).map_err(|e| e.to_string())?;
    if opts.json {
        println!(
            "{}",
            lower_json(&net.name, layer, &chosen.estimate, &program)
        );
        return Ok(());
    }
    println!(
        "{}/{}: {}{} lowered to {} DMA commands (replayed: {} elements moved, peak {} resident)",
        net.name,
        layer.name,
        chosen.estimate.kind.label(),
        if chosen.estimate.prefetch { "+p" } else { "" },
        program.commands.len(),
        program.replay.total(),
        program.replay.peak_resident,
    );
    let listing = program.listing();
    let lines: Vec<&str> = listing.lines().collect();
    for l in lines.iter().take(HEAD) {
        println!("{l}");
    }
    if lines.len() > HEAD {
        println!("  ... {} more commands", lines.len() - HEAD);
    }
    Ok(())
}

/// `smm lower --json`: the full command stream plus the per-command
/// annotations the static analyzer derives (claimed vs derived traffic
/// and residency, redundant elements).
fn lower_json(
    network: &str,
    layer: &smm_model::Layer,
    est: &smm_policy::PolicyEstimate,
    program: &smm_exec::Program,
) -> String {
    use smm_core::report::json_escape;
    use std::fmt::Write as _;
    let lint = smm_lint::lint_program(program, &layer.shape, est);
    let mut out = String::with_capacity(256 + 200 * program.commands.len());
    let _ = write!(
        out,
        "{{\"network\":\"{}\",\"layer\":\"{}\",\"policy\":\"{}\",\"prefetch\":{},\
         \"commands\":{},\"moved_elems\":{},\"peak_resident\":{},\"clean\":{},\
         \"redundant_elems\":{},",
        json_escape(network),
        json_escape(&layer.name),
        est.kind.label(),
        est.prefetch,
        program.commands.len(),
        program.replay.total(),
        program.replay.peak_resident,
        lint.is_clean(),
        lint.redundant_elems,
    );
    out.push_str("\"diagnostics\":[");
    for (i, d) in lint.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"code\":\"{}\",\"message\":\"{}\"}}",
            d.code,
            json_escape(&d.message)
        );
    }
    out.push_str("],\"stream\":[");
    for (i, a) in lint.annotations.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"index\":{},\"text\":\"{}\",\"action\":\"{}\",\"operand\":\"{}\",\
             \"start\":{},\"end\":{},\"stride\":{},\"count\":{},\
             \"claimed_dram\":{},\"derived_dram\":{},\
             \"claimed_resident_after\":{},\"derived_resident_after\":{},\
             \"redundant_elems\":{}}}",
            a.index,
            json_escape(&program.commands[a.index].to_string()),
            a.action.label(),
            a.operand.label(),
            a.range.start,
            a.range.end,
            a.stride,
            a.count,
            a.claimed_dram,
            a.derived_dram,
            a.claimed_resident_after,
            a.derived_resident_after,
            a.redundant_elems,
        );
    }
    out.push_str("]}");
    out
}

/// `smm simulate <model>` — plan, lower, and execute the plan in the
/// discrete-event simulator, cross-checking against the analytic
/// estimate (SMM011) when the scenario is clean.
pub fn simulate(opts: &Options) -> Result<(), String> {
    let spec = plan_spec(opts)?;
    let net = spec.resolve().map_err(|e| e.to_string())?;
    let plan = spec
        .planner()
        .plan(&net, spec.scheme, &CancelToken::none())
        .map_err(|e| e.to_string())?;
    let report = smm_sim::simulate_plan(&plan, &net, &spec.accelerator, &opts.sim)
        .map_err(|e| e.to_string())?;

    if opts.json {
        println!("{}", smm_sim::report_json(&report));
    } else {
        println!(
            "{} @ {} GLB, scheme {}, simulated under {:?}",
            net.name, spec.accelerator.glb, report.scheme, opts.sim
        );
        let mut t = TextTable::new(&[
            "Layer",
            "Policy",
            "+p",
            "analytic",
            "simulated",
            "stall",
            "dram busy",
            "peak elems",
        ]);
        for l in &report.layers {
            t.row(vec![
                l.layer_name.clone(),
                l.policy.label().into(),
                if l.prefetch { "+p" } else { "" }.into(),
                l.analytic_cycles.to_string(),
                l.stats.cycles.to_string(),
                l.stats.stall_cycles.to_string(),
                l.stats.dram_busy_cycles.to_string(),
                l.stats.peak_occupancy_elems.to_string(),
            ]);
        }
        print!("{}", t.render());
        let tot = &report.totals;
        println!(
            "totals: {} simulated cycles vs {} analytic ({:+.2}%), {:.2} MB off-chip",
            tot.cycles,
            tot.analytic_cycles,
            (tot.cycles as f64 / tot.analytic_cycles.max(1) as f64 - 1.0) * 100.0,
            report.traffic_bytes(&spec.accelerator).mb()
        );
        println!(
            "breakdown: {} compute-busy, {} dram-busy, {} stall; peak occupancy {}/{} elements",
            tot.compute_busy_cycles,
            tot.dram_busy_cycles,
            tot.stall_cycles,
            tot.peak_occupancy_elems,
            report.capacity_elems
        );
        if tot.retries > 0 {
            println!(
                "faults: {} transfers re-issued ({} elements re-transferred)",
                tot.retries, tot.retried_elems
            );
        }
    }

    if report.totals.occupancy_violations > 0 {
        return Err(format!(
            "{} command(s) exceeded GLB capacity during simulation",
            report.totals.occupancy_violations
        ));
    }
    // The analytic model claims nothing about degraded scenarios, so
    // only a clean simulation is held to SMM011.
    if opts.sim.is_clean() {
        if let Some(d) = smm_check::check_sim_divergence(
            &plan.network,
            report.totals.analytic_cycles,
            report.totals.cycles,
            smm_check::DEFAULT_SIM_TOLERANCE,
        ) {
            return Err(d.to_string());
        }
    }
    Ok(())
}

/// `smm baseline <model>`
pub fn baseline(opts: &Options) -> Result<(), String> {
    let net = load_network(opts)?;
    let cfg = BaselineConfig::paper(accelerator(opts), opts.split);
    let rep = simulate_network(&cfg, &net);
    println!(
        "{} baseline ({}) @ {} GLB",
        net.name,
        opts.split.label(),
        cfg.acc.glb
    );
    let mut t = TextTable::new(&["Layer", "ifmap", "filter", "ofmap", "total kB", "order"]);
    for (l, sim) in net.layers.iter().zip(&rep.layers) {
        t.row(vec![
            l.name.clone(),
            sim.ifmap_loads.to_string(),
            sim.filter_loads.to_string(),
            sim.ofmap_stores.to_string(),
            format!(
                "{:.1}",
                ByteSize::from_elements(sim.total_accesses(), cfg.acc.data_width).kb()
            ),
            format!("{:?}", sim.order),
        ]);
    }
    print!("{}", t.render());
    println!(
        "totals: {:.2} MB off-chip, {} stall-free cycles",
        rep.total_bytes.mb(),
        rep.latency_cycles
    );
    Ok(())
}

/// `smm sweep <model>` — Figure 5/8-style comparison for one model.
pub fn sweep(opts: &Options) -> Result<(), String> {
    let net = load_network(opts)?;
    let mut t = TextTable::new(&[
        "GLB", "sa_25_75", "sa_50_50", "sa_75_25", "Hom", "Het", "base cyc", "Het cyc",
    ]);
    for &kb in &GLB_SIZES_KB {
        let o = Options {
            glb_kb: kb,
            ..opts.clone()
        };
        let acc = accelerator(&o);
        let mb = |elems: u64| format!("{:.2}", ByteSize::from_elements(elems, acc.data_width).mb());
        let baselines: Vec<String> = BufferSplit::ALL
            .iter()
            .map(|&split| {
                let rep = simulate_network(&BaselineConfig::paper(acc, split), &net);
                mb(rep.total_accesses)
            })
            .collect();
        let planner = smm_core::Planner::new(acc, manager_config(&o));
        let open = CancelToken::none();
        let hom = planner
            .best_homogeneous_with(&net, &open)
            .map_err(|e| e.to_string())?;
        let het = planner
            .heterogeneous_with(&net, &open)
            .map_err(|e| e.to_string())?;
        let base_cycles =
            simulate_network(&BaselineConfig::paper(acc, BufferSplit::SA_50_50), &net)
                .latency_cycles;
        t.row(vec![
            format!("{kb}kB"),
            baselines[0].clone(),
            baselines[1].clone(),
            baselines[2].clone(),
            mb(hom.totals.accesses_elems),
            mb(het.totals.accesses_elems),
            base_cycles.to_string(),
            het.totals.latency_cycles.to_string(),
        ]);
    }
    println!("{} off-chip MB per scheme (and latency)", net.name);
    print!("{}", t.render());
    Ok(())
}

/// `smm topology <model>` — emit the extended topology CSV.
pub fn topology(opts: &Options) -> Result<(), String> {
    let net = load_network(opts)?;
    print!("{}", topology::write(&net));
    Ok(())
}

/// `smm serve` — run the concurrent planning server until a client
/// sends a `shutdown` op.
pub fn serve(opts: &crate::args::ServeOptions) -> Result<(), String> {
    let handle = smm_serve::Server::spawn(smm_serve::ServerConfig {
        addr: format!("127.0.0.1:{}", opts.port),
        workers: opts.workers,
        shards: opts.shards,
        queue_cap: opts.queue_cap,
        cache_cap: opts.cache_cap,
        obs: true,
        verify_plans: opts.verify,
        adaptive_shed: !opts.static_cap,
        shed_target_ms: opts.shed_target_ms,
        stream: opts.stream,
        prewarm: opts.prewarm,
        window_ms: opts.window_ms,
        slide_ms: opts.slide_ms,
        prewarm_workers: opts.prewarm_workers,
        ..smm_serve::ServerConfig::default()
    })
    .map_err(|e| format!("cannot bind port {}: {e}", opts.port))?;
    let addr = handle.local_addr();
    let shed = if opts.static_cap {
        "static cap".to_string()
    } else {
        format!("adaptive shed @{}ms", opts.shed_target_ms)
    };
    let stream = if !opts.stream {
        "stream off".to_string()
    } else if opts.prewarm {
        format!("stream {}ms/{}ms + prewarm", opts.window_ms, opts.slide_ms)
    } else {
        format!("stream {}ms/{}ms", opts.window_ms, opts.slide_ms)
    };
    println!(
        "smm serve listening on {addr} ({} workers, {} shards, queue {}, cache {}, {shed}, {stream})",
        opts.workers,
        if opts.shards == 0 {
            "auto".to_string()
        } else {
            opts.shards.to_string()
        },
        opts.queue_cap,
        opts.cache_cap,
    );
    if let Some(path) = &opts.port_file {
        std::fs::write(path, format!("{}\n", addr.port())).map_err(|e| format!("{path}: {e}"))?;
    }
    handle.join();
    println!("smm serve: shut down cleanly");
    Ok(())
}

/// `smm fleet <route|join|leave>` — run the consistent-hash router or
/// change a running router's membership.
pub fn fleet(opts: &crate::args::FleetOptions) -> Result<(), String> {
    use crate::args::FleetOptions;
    match opts {
        FleetOptions::Route { cfg, port_file } => {
            let backends = cfg.backends.clone();
            let handle = smm_fleet::Router::spawn(cfg.clone())
                .map_err(|e| format!("cannot bind {}: {e}", cfg.addr))?;
            let addr = handle.local_addr();
            println!(
                "smm fleet route listening on {addr} ({} backends, {} vnodes, {} retries)",
                backends.len(),
                cfg.vnodes,
                cfg.retries
            );
            for b in &backends {
                println!("  backend {b}");
            }
            if let Some(path) = port_file {
                std::fs::write(path, format!("{}\n", addr.port()))
                    .map_err(|e| format!("{path}: {e}"))?;
            }
            handle.join();
            println!("smm fleet route: shut down cleanly");
            Ok(())
        }
        FleetOptions::Join { addr, node } => fleet_admin(addr, "fleet_join", node),
        FleetOptions::Leave { addr, node } => fleet_admin(addr, "fleet_leave", node),
    }
}

/// Send one `fleet_join` / `fleet_leave` admin line to a router and
/// print its acknowledgement.
fn fleet_admin(addr: &str, op: &str, node: &str) -> Result<(), String> {
    use std::io::{BufRead, BufReader, Write};
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let msg = format!(
        "{{\"op\":\"{op}\",\"node\":\"{}\"}}\n",
        smm_core::report::json_escape(node)
    );
    writer
        .write_all(msg.as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let line = line.trim();
    println!("{line}");
    if line.contains("\"status\":\"ok\"") {
        Ok(())
    } else {
        Err(format!("router rejected {op}"))
    }
}

/// `smm top` — fetch one `stream` snapshot from a serve node (or a
/// fleet router, which aggregates per node) and print the windowed
/// per-cell traffic table.
pub fn top(opts: &crate::args::TopOptions) -> Result<(), String> {
    use smm_obs::json::Value;
    use std::io::{BufRead, BufReader, Write};
    let addr = &opts.addr;
    let stream = std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let _ = stream.set_nodelay(true);
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let sliding = if opts.sliding {
        ",\"sliding\":true"
    } else {
        ""
    };
    writeln!(
        writer,
        "{{\"op\":\"stream\",\"limit\":{}{sliding}}}",
        opts.limit
    )
    .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| e.to_string())?;
    let line = line.trim();
    if opts.json {
        println!("{line}");
        return if line.contains("\"status\":\"ok\"") {
            Ok(())
        } else {
            Err("stream request failed".into())
        };
    }
    let v = smm_obs::json::parse(line).map_err(|e| format!("bad stream response: {e}"))?;
    if v.get("status").and_then(Value::as_str) != Some("ok") {
        return Err(format!("stream request failed: {line}"));
    }
    let num = |obj: &Value, k: &str| obj.get(k).and_then(Value::as_u64).unwrap_or(0);
    let sval = |obj: &Value, k: &str| obj.get(k).and_then(Value::as_str).unwrap_or("").to_owned();
    println!(
        "stream:  {} windows of {}ms",
        sval(&v, "kind"),
        num(&v, "window_ms"),
    );
    // A router response carries a `fleet` section and a flat merged
    // `cells` table; a node response carries engine totals and
    // `windows`. Render whichever shape arrived.
    if let Some(fleet) = v.get("fleet") {
        println!(
            "fleet:   {}/{} nodes healthy, {} events ({} late, {} dropped), {} windows closed",
            num(fleet, "healthy"),
            num(fleet, "nodes"),
            num(fleet, "events"),
            num(fleet, "late_events"),
            num(fleet, "dropped"),
            num(fleet, "windows_closed"),
        );
        if let Some(smm_obs::json::Value::Array(nodes)) = v.get("per_node") {
            for n in nodes {
                println!(
                    "node:    {} healthy={} events={} cells={}",
                    sval(n, "node"),
                    matches!(n.get("healthy"), Some(smm_obs::json::Value::Bool(true))),
                    num(n, "events"),
                    num(n, "cells_seen"),
                );
            }
        }
        if let Some(smm_obs::json::Value::Array(cells)) = v.get("cells") {
            print_cell_table(cells, &num, &sval);
        }
        return Ok(());
    }
    println!(
        "engine:  {} events ({} late, {} dropped), {} windows closed, {} cells seen, watermark {}us",
        num(&v, "events"),
        num(&v, "late_events"),
        num(&v, "dropped"),
        num(&v, "windows_closed"),
        num(&v, "cells_seen"),
        num(&v, "watermark_us"),
    );
    let Some(smm_obs::json::Value::Array(windows)) = v.get("windows") else {
        return Ok(());
    };
    for w in windows {
        println!(
            "window:  [{}us, {}us) {} events",
            num(w, "start_us"),
            num(w, "end_us"),
            num(w, "events"),
        );
        if let Some(smm_obs::json::Value::Array(cells)) = w.get("cells") {
            print_cell_table(cells, &num, &sval);
        }
    }
    Ok(())
}

/// Shared cell-table renderer for `smm top` (node and fleet shapes
/// carry the same per-cell fields).
fn print_cell_table(
    cells: &[smm_obs::json::Value],
    num: &dyn Fn(&smm_obs::json::Value, &str) -> u64,
    sval: &dyn Fn(&smm_obs::json::Value, &str) -> String,
) {
    if cells.is_empty() {
        return;
    }
    println!(
        "  {:<32} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9}",
        "cell", "events", "hits", "miss", "shed", "dead", "p50us", "p99us", "pred-us"
    );
    for c in cells {
        let shed = num(c, "shed_static") + num(c, "shed_adaptive") + num(c, "shed_predicted");
        println!(
            "  {:<32} {:>7} {:>6} {:>6} {:>6} {:>6} {:>8} {:>8} {:>9}",
            sval(c, "key"),
            num(c, "events"),
            num(c, "hit_inline") + num(c, "hit_worker"),
            num(c, "miss"),
            shed,
            num(c, "deadline"),
            num(c, "p50_us"),
            num(c, "p99_us"),
            num(c, "predicted_miss_us").max(num(c, "predicted_us")),
        );
    }
}

/// `smm loadgen` — drive a running server and report throughput,
/// latency percentiles, cache hit rate, and shed counts.
pub fn loadgen(opts: &crate::args::LoadgenOptions) -> Result<(), String> {
    let report = smm_serve::loadgen::run(&opts.cfg).map_err(|e| e.to_string())?;
    println!("{}", report.render());
    if report.plan_mismatches > 0 {
        return Err(format!(
            "{} plans differed between cached and cold responses",
            report.plan_mismatches
        ));
    }
    if report.errors > 0 {
        return Err(format!("{} requests failed", report.errors));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts_for(target: &str) -> Options {
        Options {
            target: Some(target.to_string()),
            ..Options::default()
        }
    }

    /// Write `content` to a unique temp file and return its path.
    fn temp_topology(tag: &str, content: &str) -> std::path::PathBuf {
        let path =
            std::env::temp_dir().join(format!("smm-cli-test-{tag}-{}.csv", std::process::id()));
        std::fs::write(&path, content).unwrap();
        path
    }

    #[test]
    fn garbage_topology_files_error_with_the_offending_line() {
        // (tag, file content, substring the error must carry)
        let cases = [
            ("cols", "conv, 1, 2,\n", "line 1"),
            (
                "num",
                "ok, 8, 8, 3, 3, 4, 8, 1,\nbad, x, 8, 3, 3, 4, 8, 1,\n",
                "line 2",
            ),
            ("kind", "bad, 8, 8, 3, 3, 4, 8, 1, 0, ZZ,\n", "line 1"),
            (
                "huge",
                "huge, 4294967295, 4294967295, 3, 3, 4294967295, 8, 1,\n",
                "line 1",
            ),
            ("empty", "# only a comment\n", "no layer rows"),
            ("binary", "\u{0}\u{1}\u{2}garbage\u{3}\n", "line 1"),
        ];
        for (tag, content, needle) in cases {
            let path = temp_topology(tag, content);
            let opts = opts_for(path.to_str().unwrap());
            // Both the plain emit path and the full planning path must
            // surface the parse error, never panic.
            for result in [topology(&opts), analyze(&opts)] {
                let err = result.expect_err(tag);
                assert!(err.contains(needle), "{tag}: {err:?} missing {needle:?}");
            }
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn unknown_target_is_a_helpful_error() {
        let err = topology(&opts_for("not-a-model-or-file")).unwrap_err();
        assert!(
            err.contains("neither a zoo model nor a topology file"),
            "{err}"
        );
    }

    #[test]
    fn valid_topology_file_round_trips_through_the_cli() {
        let path = temp_topology("good", "conv1, 32, 32, 3, 3, 8, 16, 1,\n");
        let opts = opts_for(path.to_str().unwrap());
        assert!(topology(&opts).is_ok());
        assert!(analyze(&opts).is_ok());
        let _ = std::fs::remove_file(path);
    }
}
