//! Tiny flag parser for the `smm` CLI (no external dependency needed for
//! five flags).

use smm_arch::DataWidth;
use smm_core::{Objective, SchedulerKind};
use smm_systolic::BufferSplit;

/// Parsed command options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Positional model name or topology file path.
    pub target: Option<String>,
    pub glb_kb: u64,
    pub width: DataWidth,
    pub objective: Objective,
    pub heterogeneous: bool,
    pub split: BufferSplit,
    pub prefetch: bool,
    pub inter_layer: bool,
    /// Layer-decision scheduler: greedy per-layer (default) or the
    /// global inter-layer DP pass.
    pub scheduler: SchedulerKind,
    /// Emit machine-readable CSV instead of the text table.
    pub csv: bool,
    /// Also lint the lowered command streams (`smm check --lint`).
    pub lint: bool,
    /// Emit the analyze plan as one deterministic JSON object.
    pub json: bool,
    /// Batch size for batched-execution estimates.
    pub batch: u64,
    /// Second positional target (the second tenant for `tenants`).
    pub target2: Option<String>,
    /// Collect and print the observability profile report.
    pub profile: bool,
    /// Write a Chrome trace-event JSON file of the run.
    pub trace_out: Option<String>,
    /// Simulation scenario knobs (`smm simulate`).
    pub sim: smm_sim::SimConfig,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            target: None,
            glb_kb: 256,
            width: DataWidth::W8,
            objective: Objective::Accesses,
            heterogeneous: true,
            split: BufferSplit::SA_50_50,
            prefetch: true,
            inter_layer: false,
            scheduler: SchedulerKind::Greedy,
            csv: false,
            lint: false,
            json: false,
            batch: 1,
            target2: None,
            profile: false,
            trace_out: None,
            sim: smm_sim::SimConfig::default(),
        }
    }
}

/// Parse `argv` after the subcommand.
pub fn parse(argv: &[String]) -> Result<Options, String> {
    let mut opts = Options::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg.as_str() {
            "--glb" => {
                opts.glb_kb = value("--glb")?
                    .parse()
                    .map_err(|_| "--glb expects a size in kB".to_string())?;
            }
            "--width" => {
                let bits: u64 = value("--width")?
                    .parse()
                    .map_err(|_| "--width expects 8, 16 or 32".to_string())?;
                opts.width =
                    DataWidth::from_bits(bits).ok_or("--width expects 8, 16 or 32".to_string())?;
            }
            "--objective" => {
                opts.objective = match value("--objective")?.as_str() {
                    "accesses" | "a" => Objective::Accesses,
                    "latency" | "l" => Objective::Latency,
                    other => return Err(format!("unknown objective {other:?}")),
                };
            }
            "--scheme" => {
                opts.heterogeneous = match value("--scheme")?.as_str() {
                    "het" => true,
                    "hom" => false,
                    other => return Err(format!("unknown scheme {other:?}")),
                };
            }
            "--scheduler" => {
                let label = value("--scheduler")?;
                opts.scheduler = SchedulerKind::from_label(&label)
                    .ok_or(format!("unknown scheduler {label:?} (greedy | global)"))?;
            }
            "--split" => {
                opts.split = match value("--split")?.as_str() {
                    "25_75" => BufferSplit::SA_25_75,
                    "50_50" => BufferSplit::SA_50_50,
                    "75_25" => BufferSplit::SA_75_25,
                    other => return Err(format!("unknown split {other:?}")),
                };
            }
            "--queue-depth" => {
                opts.sim.queue_depth = value("--queue-depth")?
                    .parse()
                    .map_err(|_| "--queue-depth expects a positive integer".to_string())?;
                if opts.sim.queue_depth == 0 {
                    return Err("--queue-depth expects a positive integer".into());
                }
            }
            "--bw-derate" => {
                opts.sim.bw_derate = value("--bw-derate")?
                    .parse()
                    .map_err(|_| "--bw-derate expects a factor >= 1.0".to_string())?;
            }
            "--jitter" => {
                opts.sim.jitter_max_cycles = value("--jitter")?
                    .parse()
                    .map_err(|_| "--jitter expects a cycle count".to_string())?;
            }
            "--drop-rate" => {
                opts.sim.drop_rate = value("--drop-rate")?
                    .parse()
                    .map_err(|_| "--drop-rate expects a probability in [0, 1)".to_string())?;
            }
            "--seed" => {
                opts.sim.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--contenders" => {
                opts.sim.contenders = value("--contenders")?
                    .parse()
                    .map_err(|_| "--contenders expects a positive integer".to_string())?;
            }
            "--compute-folds" => opts.sim.compute = smm_sim::ComputeModel::SystolicFolds,
            "--no-prefetch" => opts.prefetch = false,
            "--inter-layer" => opts.inter_layer = true,
            "--csv" => opts.csv = true,
            "--lint" => opts.lint = true,
            "--json" => opts.json = true,
            "--profile" => opts.profile = true,
            "--trace-out" => opts.trace_out = Some(value("--trace-out")?),
            "--batch" => {
                opts.batch = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch expects a positive integer".to_string())?;
                if opts.batch == 0 {
                    return Err("--batch expects a positive integer".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag:?}")),
            positional => {
                if opts.target.is_none() {
                    opts.target = Some(positional.to_string());
                } else if opts.target2.is_none() {
                    opts.target2 = Some(positional.to_string());
                } else {
                    return Err(format!("unexpected extra argument {positional:?}"));
                }
            }
        }
    }
    Ok(opts)
}

/// Options for `smm serve`.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// TCP port to bind (0 = ephemeral).
    pub port: u16,
    /// Planning worker threads.
    pub workers: usize,
    /// Reactor shards (event-loop threads); 0 = one per core.
    pub shards: usize,
    /// Bounded request-queue capacity.
    pub queue_cap: usize,
    /// Plan-cache capacity in entries.
    pub cache_cap: usize,
    /// Target queue-wait budget for the adaptive shed controller, ms.
    pub shed_target_ms: u64,
    /// Disable adaptive shedding (static queue cap only).
    pub static_cap: bool,
    /// Write the bound port number to this file once listening (lets
    /// scripts using port 0 discover the ephemeral port).
    pub port_file: Option<String>,
    /// Verify every freshly-planned result with `smm-check` before
    /// caching or responding.
    pub verify: bool,
    /// Enable the stream analytics tap + windowing collector.
    pub stream: bool,
    /// Enable the cache pre-warm controller (needs `stream`).
    pub prewarm: bool,
    /// Tumbling-window width for the stream analytics, ms.
    pub window_ms: u64,
    /// Sliding-window slide for the stream analytics, ms.
    pub slide_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        let d = smm_serve::ServerConfig::default();
        ServeOptions {
            port: 7878,
            workers: d.workers,
            shards: d.shards,
            queue_cap: d.queue_cap,
            cache_cap: d.cache_cap,
            shed_target_ms: d.shed_target_ms,
            static_cap: !d.adaptive_shed,
            port_file: None,
            verify: d.verify_plans,
            stream: d.stream,
            prewarm: d.prewarm,
            window_ms: d.window_ms,
            slide_ms: d.slide_ms,
        }
    }
}

/// Parse `smm serve` flags.
pub fn parse_serve(argv: &[String]) -> Result<ServeOptions, String> {
    let mut opts = ServeOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let number = |flag: &str, s: String| -> Result<usize, String> {
            s.parse()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {s:?}"))
        };
        match arg.as_str() {
            "--port" => {
                let s = value("--port")?;
                opts.port = s
                    .parse()
                    .map_err(|_| format!("--port expects a port number, got {s:?}"))?;
            }
            "--workers" => {
                opts.workers = number("--workers", value("--workers")?)?.max(1);
            }
            "--shards" => {
                opts.shards = number("--shards", value("--shards")?)?;
            }
            "--queue-cap" => {
                opts.queue_cap = number("--queue-cap", value("--queue-cap")?)?.max(1);
            }
            "--cache-cap" => {
                opts.cache_cap = number("--cache-cap", value("--cache-cap")?)?;
            }
            "--shed-target-ms" => {
                opts.shed_target_ms =
                    number("--shed-target-ms", value("--shed-target-ms")?)?.max(1) as u64;
            }
            "--static-cap" => opts.static_cap = true,
            "--port-file" => opts.port_file = Some(value("--port-file")?),
            "--verify" => opts.verify = true,
            "--no-stream" => opts.stream = false,
            "--no-prewarm" => opts.prewarm = false,
            "--window-ms" => {
                opts.window_ms = number("--window-ms", value("--window-ms")?)?.max(1) as u64;
            }
            "--slide-ms" => {
                opts.slide_ms = number("--slide-ms", value("--slide-ms")?)?.max(1) as u64;
            }
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Options for `smm loadgen`.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// The `smm_serve` load-generator configuration.
    pub cfg: smm_serve::LoadgenConfig,
}

/// Parse `smm loadgen` flags.
pub fn parse_loadgen(argv: &[String]) -> Result<LoadgenOptions, String> {
    let mut cfg = smm_serve::LoadgenConfig::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => cfg.addr = value("--addr")?,
            "-n" | "--requests" => {
                let s = value("-n")?;
                cfg.requests = s
                    .parse()
                    .map_err(|_| format!("-n expects a request count, got {s:?}"))?;
            }
            "--concurrency" => {
                let s = value("--concurrency")?;
                cfg.concurrency = s
                    .parse::<usize>()
                    .map_err(|_| format!("--concurrency expects a connection count, got {s:?}"))?
                    .max(1);
            }
            "--connections" => {
                let s = value("--connections")?;
                cfg.connections = s
                    .parse::<usize>()
                    .map_err(|_| format!("--connections expects a connection count, got {s:?}"))?
                    .max(1);
            }
            "--models" => {
                cfg.models = value("--models")?
                    .split(',')
                    .map(|m| m.trim().to_string())
                    .filter(|m| !m.is_empty())
                    .collect();
                if cfg.models.is_empty() {
                    return Err("--models expects a comma-separated model list".into());
                }
            }
            "--glb" => {
                let s = value("--glb")?;
                cfg.glb_kb = s
                    .parse()
                    .map_err(|_| format!("--glb expects a size in kB, got {s:?}"))?;
            }
            "--deadline-ms" => {
                let s = value("--deadline-ms")?;
                cfg.deadline_ms = Some(
                    s.parse()
                        .map_err(|_| format!("--deadline-ms expects milliseconds, got {s:?}"))?,
                );
            }
            "--plan-delay-ms" => {
                let s = value("--plan-delay-ms")?;
                cfg.plan_delay_ms = Some(
                    s.parse()
                        .map_err(|_| format!("--plan-delay-ms expects milliseconds, got {s:?}"))?,
                );
            }
            "--glb-set" => {
                let s = value("--glb-set")?;
                cfg.glb_set = s
                    .split(',')
                    .map(|v| {
                        v.trim().parse().map_err(|_| {
                            format!("--glb-set expects comma-separated kB sizes, got {v:?}")
                        })
                    })
                    .collect::<Result<Vec<u64>, String>>()?;
                if cfg.glb_set.is_empty() {
                    return Err("--glb-set expects at least one size".into());
                }
            }
            "--mix" => {
                cfg.mix = smm_serve::parse_mix(&value("--mix")?)?;
            }
            "--fleet" => cfg.fleet = true,
            "--shed-report" => cfg.shed_report = true,
            "--cells" => cfg.cell_report = true,
            "--shutdown" => cfg.shutdown = true,
            other => return Err(format!("unknown loadgen flag {other:?}")),
        }
    }
    Ok(LoadgenOptions { cfg })
}

/// Options for `smm top` — the windowed traffic view of a serve node
/// or a fleet router.
#[derive(Debug, Clone)]
pub struct TopOptions {
    /// Node or router address.
    pub addr: String,
    /// How many recent windows to fetch.
    pub limit: usize,
    /// Read the sliding-window store instead of the tumbling one.
    pub sliding: bool,
    /// Print the raw JSON response instead of the text table.
    pub json: bool,
}

impl Default for TopOptions {
    fn default() -> Self {
        TopOptions {
            addr: "127.0.0.1:7878".into(),
            limit: 1,
            sliding: false,
            json: false,
        }
    }
}

/// Parse `smm top` flags.
pub fn parse_top(argv: &[String]) -> Result<TopOptions, String> {
    let mut opts = TopOptions::default();
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => opts.addr = value("--addr")?,
            "--limit" => {
                let s = value("--limit")?;
                opts.limit = s
                    .parse::<usize>()
                    .map_err(|_| format!("--limit expects a window count, got {s:?}"))?
                    .max(1);
            }
            "--sliding" => opts.sliding = true,
            "--json" => opts.json = true,
            other => return Err(format!("unknown top flag {other:?}")),
        }
    }
    Ok(opts)
}

/// Options for the `smm fleet` subcommands.
#[derive(Debug, Clone)]
pub enum FleetOptions {
    /// `smm fleet route` — run the consistent-hash router.
    Route {
        /// Router configuration (addr, backends, health knobs).
        cfg: smm_fleet::RouterConfig,
        /// Write the bound port number here once listening.
        port_file: Option<String>,
    },
    /// `smm fleet join` — add a node to a running router's fleet.
    Join {
        /// Router address.
        addr: String,
        /// Joining node address.
        node: String,
    },
    /// `smm fleet leave` — remove a node from a running router's fleet.
    Leave {
        /// Router address.
        addr: String,
        /// Leaving node address.
        node: String,
    },
}

/// Parse `smm fleet <route|join|leave>` flags.
pub fn parse_fleet(argv: &[String]) -> Result<FleetOptions, String> {
    let Some(sub) = argv.first() else {
        return Err("fleet needs a subcommand: route | join | leave".into());
    };
    let rest = &argv[1..];
    match sub.as_str() {
        "route" => parse_fleet_route(rest),
        "join" | "leave" => {
            let mut addr = "127.0.0.1:7879".to_string();
            let mut node = None;
            let mut it = rest.iter();
            while let Some(arg) = it.next() {
                let mut value = |flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| format!("flag {flag} needs a value"))
                };
                match arg.as_str() {
                    "--addr" => addr = value("--addr")?,
                    "--node" => node = Some(value("--node")?),
                    other => return Err(format!("unknown fleet {sub} flag {other:?}")),
                }
            }
            let node = node.ok_or_else(|| format!("fleet {sub} needs --node <HOST:PORT>"))?;
            Ok(if sub == "join" {
                FleetOptions::Join { addr, node }
            } else {
                FleetOptions::Leave { addr, node }
            })
        }
        other => Err(format!("unknown fleet subcommand {other:?}")),
    }
}

fn parse_fleet_route(argv: &[String]) -> Result<FleetOptions, String> {
    let mut cfg = smm_fleet::RouterConfig::default();
    let mut port: u16 = 7879;
    let mut port_file = None;
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        let number = |flag: &str, s: String| -> Result<u64, String> {
            s.parse()
                .map_err(|_| format!("{flag} expects a non-negative integer, got {s:?}"))
        };
        match arg.as_str() {
            "--port" => {
                let s = value("--port")?;
                port = s
                    .parse()
                    .map_err(|_| format!("--port expects a port number, got {s:?}"))?;
            }
            "--backends" => {
                cfg.backends = value("--backends")?
                    .split(',')
                    .map(|b| b.trim().to_string())
                    .filter(|b| !b.is_empty())
                    .collect();
            }
            "--vnodes" => cfg.vnodes = number("--vnodes", value("--vnodes")?)?.max(1) as u32,
            "--retries" => cfg.retries = number("--retries", value("--retries")?)? as u32,
            "--eject-after" => {
                cfg.eject_after = number("--eject-after", value("--eject-after")?)?.max(1) as u32;
            }
            "--probe-ms" => {
                cfg.probe_interval =
                    std::time::Duration::from_millis(number("--probe-ms", value("--probe-ms")?)?);
            }
            "--timeout-ms" => {
                cfg.forward_timeout = std::time::Duration::from_millis(
                    number("--timeout-ms", value("--timeout-ms")?)?.max(1),
                );
            }
            "--handoff-limit" => {
                cfg.handoff_limit = number("--handoff-limit", value("--handoff-limit")?)?;
            }
            "--port-file" => port_file = Some(value("--port-file")?),
            other => return Err(format!("unknown fleet route flag {other:?}")),
        }
    }
    cfg.addr = format!("127.0.0.1:{port}");
    Ok(FleetOptions::Route { cfg, port_file })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn defaults() {
        let o = parse(&argv("resnet18")).unwrap();
        assert_eq!(o.target.as_deref(), Some("resnet18"));
        assert_eq!(o.glb_kb, 256);
        assert_eq!(o.width, DataWidth::W8);
        assert!(o.prefetch);
        assert!(!o.inter_layer);
        assert_eq!(o.scheduler, SchedulerKind::Greedy);
    }

    #[test]
    fn all_flags() {
        let o = parse(&argv(
            "mobilenet --glb 64 --width 32 --objective latency --scheme hom \
             --split 25_75 --no-prefetch --inter-layer --scheduler global",
        ))
        .unwrap();
        assert_eq!(o.glb_kb, 64);
        assert_eq!(o.width, DataWidth::W32);
        assert_eq!(o.objective, Objective::Latency);
        assert!(!o.heterogeneous);
        assert_eq!(o.split, BufferSplit::SA_25_75);
        assert!(!o.prefetch);
        assert!(o.inter_layer);
        assert_eq!(o.scheduler, SchedulerKind::Global);
    }

    #[test]
    fn profile_and_trace_out() {
        let o = parse(&argv("resnet18 --profile --trace-out trace.json")).unwrap();
        assert!(o.profile);
        assert_eq!(o.trace_out.as_deref(), Some("trace.json"));
        assert!(parse(&argv("resnet18 --trace-out")).is_err());
        let off = parse(&argv("resnet18")).unwrap();
        assert!(!off.profile);
        assert!(off.trace_out.is_none());
    }

    #[test]
    fn csv_batch_and_second_target() {
        let o = parse(&argv("resnet18 mobilenet --csv --batch 4")).unwrap();
        assert_eq!(o.target.as_deref(), Some("resnet18"));
        assert_eq!(o.target2.as_deref(), Some("mobilenet"));
        assert!(o.csv);
        assert_eq!(o.batch, 4);
    }

    #[test]
    fn lint_flag() {
        assert!(parse(&argv("resnet18 --lint")).unwrap().lint);
        assert!(!parse(&argv("resnet18")).unwrap().lint);
    }

    #[test]
    fn simulate_flags() {
        let o = parse(&argv(
            "mobilenet --queue-depth 8 --bw-derate 2.5 --jitter 4 --drop-rate 0.01 \
             --seed 99 --contenders 3 --compute-folds",
        ))
        .unwrap();
        assert_eq!(o.sim.queue_depth, 8);
        assert!((o.sim.bw_derate - 2.5).abs() < 1e-12);
        assert_eq!(o.sim.jitter_max_cycles, 4);
        assert!((o.sim.drop_rate - 0.01).abs() < 1e-12);
        assert_eq!(o.sim.seed, 99);
        assert_eq!(o.sim.contenders, 3);
        assert_eq!(o.sim.compute, smm_sim::ComputeModel::SystolicFolds);
        let d = parse(&argv("mobilenet")).unwrap();
        assert_eq!(d.sim, smm_sim::SimConfig::default());
        assert!(d.sim.is_clean());
        assert!(parse(&argv("m --queue-depth 0")).is_err());
        assert!(parse(&argv("m --bw-derate fast")).is_err());
        assert!(parse(&argv("m --drop-rate lots")).is_err());
        assert!(parse(&argv("m --seed")).is_err());
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse(&argv("--glb abc")).is_err());
        assert!(parse(&argv("--width 12")).is_err());
        assert!(parse(&argv("--objective speed")).is_err());
        assert!(parse(&argv("--split 30_70")).is_err());
        assert!(parse(&argv("--bogus")).is_err());
        assert!(parse(&argv("a b c")).is_err());
        assert!(parse(&argv("--glb")).is_err());
        assert!(parse(&argv("--batch 0")).is_err());
        assert!(parse(&argv("--scheduler quantum")).is_err());
        assert!(parse(&argv("--scheduler")).is_err());
    }

    #[test]
    fn serve_flags() {
        let o = parse_serve(&argv(
            "--port 0 --workers 2 --shards 3 --queue-cap 8 --cache-cap 32 \
             --shed-target-ms 20 --static-cap --port-file /tmp/p --verify",
        ))
        .unwrap();
        assert_eq!(o.port, 0);
        assert_eq!(o.workers, 2);
        assert_eq!(o.shards, 3);
        assert_eq!(o.queue_cap, 8);
        assert_eq!(o.cache_cap, 32);
        assert_eq!(o.shed_target_ms, 20);
        assert!(o.static_cap);
        assert_eq!(o.port_file.as_deref(), Some("/tmp/p"));
        assert!(o.verify);
        let d = parse_serve(&[]).unwrap();
        assert_eq!(d.port, 7878);
        assert!(!d.verify);
        assert_eq!(d.shards, 0, "shards default to auto");
        assert!(!d.static_cap, "adaptive shedding is on by default");
        assert!(parse_serve(&argv("--port nope")).is_err());
        assert!(parse_serve(&argv("--port 99999")).is_err());
        assert!(parse_serve(&argv("--workers")).is_err());
        assert!(parse_serve(&argv("--shed-target-ms nope")).is_err());
        assert!(parse_serve(&argv("--bogus")).is_err());
        // Worker/queue floors: 0 is clamped to 1, not accepted.
        assert_eq!(parse_serve(&argv("--workers 0")).unwrap().workers, 1);
    }

    #[test]
    fn loadgen_flags() {
        let o = parse_loadgen(&argv(
            "--addr 127.0.0.1:9 -n 10 --concurrency 3 --models resnet18,mobilenet \
             --glb 128 --deadline-ms 50 --shutdown",
        ))
        .unwrap();
        assert_eq!(o.cfg.addr, "127.0.0.1:9");
        assert_eq!(o.cfg.requests, 10);
        assert_eq!(o.cfg.concurrency, 3);
        assert_eq!(o.cfg.connections, 0, "--connections wins only when set");
        assert_eq!(o.cfg.models, vec!["resnet18", "mobilenet"]);
        assert_eq!(o.cfg.glb_kb, 128);
        assert_eq!(o.cfg.deadline_ms, Some(50));
        assert!(o.cfg.shutdown);
        assert!(!o.cfg.shed_report);
        let o = parse_loadgen(&argv("--connections 2000 --shed-report")).unwrap();
        assert_eq!(o.cfg.connections, 2000);
        assert!(o.cfg.shed_report);
        assert!(parse_loadgen(&argv("-n lots")).is_err());
        assert!(parse_loadgen(&argv("--connections nope")).is_err());
        assert!(parse_loadgen(&argv("--models ,")).is_err());
        assert!(parse_loadgen(&argv("--bogus")).is_err());
        // Defaults cover the full zoo.
        assert_eq!(parse_loadgen(&[]).unwrap().cfg.models.len(), 6);
    }

    #[test]
    fn serve_stream_flags() {
        let d = parse_serve(&[]).unwrap();
        assert!(d.stream, "stream analytics default on");
        assert!(d.prewarm, "pre-warming defaults on");
        let o = parse_serve(&argv(
            "--no-stream --no-prewarm --window-ms 200 --slide-ms 50",
        ))
        .unwrap();
        assert!(!o.stream);
        assert!(!o.prewarm);
        assert_eq!(o.window_ms, 200);
        assert_eq!(o.slide_ms, 50);
        assert!(
            parse_serve(&argv("--prewarm-workers 2")).is_err(),
            "one pre-warm thread"
        );
        assert!(parse_serve(&argv("--window-ms nope")).is_err());
        assert_eq!(parse_serve(&argv("--window-ms 0")).unwrap().window_ms, 1);
    }

    #[test]
    fn loadgen_mix_and_cells_flags() {
        let o = parse_loadgen(&argv("--mix resnet18:64=5,mobilenet:256=1 --cells")).unwrap();
        assert_eq!(o.cfg.mix.len(), 2);
        assert_eq!(o.cfg.mix[0].model, "resnet18");
        assert_eq!(o.cfg.mix[0].weight, 5);
        assert!(o.cfg.cell_report);
        assert!(parse_loadgen(&argv("--mix resnet18")).is_err());
        assert!(parse_loadgen(&argv("--mix")).is_err());
        assert!(parse_loadgen(&[]).unwrap().cfg.mix.is_empty());
    }

    #[test]
    fn top_flags() {
        let d = parse_top(&[]).unwrap();
        assert_eq!(d.addr, "127.0.0.1:7878");
        assert_eq!(d.limit, 1);
        assert!(!d.sliding);
        assert!(!d.json);
        let o = parse_top(&argv("--addr 127.0.0.1:9 --limit 4 --sliding --json")).unwrap();
        assert_eq!(o.addr, "127.0.0.1:9");
        assert_eq!(o.limit, 4);
        assert!(o.sliding);
        assert!(o.json);
        assert!(parse_top(&argv("--limit nope")).is_err());
        assert!(parse_top(&argv("--bogus")).is_err());
        assert_eq!(parse_top(&argv("--limit 0")).unwrap().limit, 1);
    }
}
