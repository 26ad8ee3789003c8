//! `smm` — RAINBOW-like command-line driver for the scratchpad
//! memory-management flow (Figure 4 of the paper): model description and
//! accelerator specification in, per-layer execution plan and estimates
//! out.

mod args;
mod commands;

use std::process::ExitCode;

const USAGE: &str = "\
smm — scratchpad memory management for DL accelerators

USAGE:
    smm <COMMAND> [OPTIONS]

COMMANDS:
    list-models                       List the full model zoo (paper, extended, transformer)
    analyze  <model|topology.csv>     Produce a per-layer execution plan
    check    <model|topology.csv|all> Statically verify a plan's GLB invariants
    lint     <model|topology.csv|all> Statically analyze the lowered DMA command streams
    explain  <model> <layer>          Show Algorithm 1's candidates for one layer
    lower    <model> <layer>          Emit the chosen policy's DMA command stream
                                      (--json adds per-command lint annotations)
    baseline <model|topology.csv>     Run the SCALE-Sim-like baseline
    simulate <model|topology.csv>     Execute the plan in the discrete-event simulator
    sweep    <model|topology.csv>     Compare all schemes across buffer sizes
    tenants  <modelA> <modelB>        Partition one GLB between two models
    topology <model>                  Emit a model as a topology CSV
    serve                             Run the concurrent planning server
    loadgen                           Drive a running server or fleet, report latency/throughput
    top                               Show windowed traffic analytics from a node or router
    fleet route                       Run the consistent-hash fleet router
    fleet join|leave                  Add/remove a node on a running router (warm handoff)

OPTIONS (analyze / check / lint / baseline / sweep):
    --glb <KB>            GLB size in kB (default 256)
    --width <BITS>        Data width: 8, 16 or 32 (default 8)
    --objective <OBJ>     accesses | latency (default accesses)
    --scheme <S>          het | hom (default het)
    --scheduler <S>       greedy | global inter-layer DP (default greedy)
    --split <S>           Baseline split: 25_75 | 50_50 | 75_25 (default 50_50)
    --no-prefetch         Disable the double-buffered policy variants
    --inter-layer         Enable the inter-layer reuse pass
    --csv                 Emit the analyze plan as CSV
    --json                Emit the analyze plan (or check/lint report) as JSON
    --lint                After `smm check`, also lint the lowered command streams
    --batch <N>           Also report batched-execution totals

OPTIONS (analyze / sweep / lower):
    --profile             Print the observability report (counters, spans)
    --trace-out <FILE>    Write a Chrome trace-event JSON of the run

OPTIONS (simulate):
    --queue-depth <N>     DMA prefetch queue depth (default 4)
    --bw-derate <F>       Stretch per-element DRAM cost by F (default 1.0)
    --jitter <CYC>        Max per-transfer latency jitter in cycles (default 0)
    --drop-rate <P>       Per-transfer drop probability in [0, 1) (default 0)
    --seed <N>            PRNG seed for jitter/drops (default 0)
    --contenders <N>      Streams sharing the DRAM channel fairly (default 1)
    --compute-folds       Use the systolic fold compute model instead of ideal MACs

OPTIONS (serve):
    --port <P>            TCP port to bind; 0 picks an ephemeral port (default 7878)
    --workers <N>         Planning worker threads (default 4)
    --shards <N>          Reactor event-loop shards; 0 = one per core (default 0)
    --queue-cap <N>       Bounded queue capacity; overflow is shed (default 64)
    --cache-cap <N>       Plan-cache entries; 0 disables caching (default 128)
    --shed-target-ms <MS> Adaptive-shed queue-wait budget (default 50)
    --static-cap          Disable adaptive shedding; static queue cap only
    --port-file <FILE>    Write the bound port number to FILE once listening
    --verify              Verify each fresh plan with smm-check before caching
    --no-stream           Disable the stream analytics tap and collector
    --no-prewarm          Disable the cache pre-warm controller
    --window-ms <MS>      Stream tumbling-window width (default 1000)
    --slide-ms <MS>       Stream sliding-window slide (default 250)

OPTIONS (loadgen):
    --addr <HOST:PORT>    Server address (default 127.0.0.1:7878)
    -n <N>                Total requests to send (default 64)
    --connections <N>     Concurrent connections on one epoll driver thread
    --concurrency <N>     Legacy alias for --connections (default 8)
    --models <A,B,...>    Models to request round-robin (default: full zoo)
    --glb <KB>            GLB size in kB for every request (default 64)
    --glb-set <A,B,...>   Cycle these GLB sizes across requests (widens the key set)
    --deadline-ms <MS>    Per-request deadline
    --plan-delay-ms <MS>  Simulated planning cost (server sleeps on cache misses)
    --mix <SPEC>          Weighted cell mix, e.g. resnet18:64=5,mobilenet:256=1
                          (replaces --models/--glb-set; smooth-WRR interleaved)
    --fleet               Report per-node hit rates and routing skew (router targets)
    --shed-report         Append the admission/shedding section to the report
    --cells               Append the per-cell shed-vs-miss breakdown (implied by --mix)
    --shutdown            Send a shutdown op to the server after the run

OPTIONS (top):
    --addr <HOST:PORT>    Node or router address (default 127.0.0.1:7878)
    --limit <N>           Recent windows to fetch (default 1)
    --sliding             Read the sliding-window store instead of tumbling
    --json                Print the raw JSON stream response

OPTIONS (fleet route):
    --port <P>            TCP port to bind; 0 picks an ephemeral port (default 7879)
    --backends <A,B,...>  Initial backend node addresses (host:port)
    --vnodes <N>          Virtual nodes per backend on the hash ring (default 128)
    --retries <N>         Extra replicas tried after the owner fails (default 2)
    --eject-after <N>     Consecutive failures before ejection (default 3)
    --probe-ms <MS>       Probe interval for ejected backends (default 500)
    --timeout-ms <MS>     Per-forward I/O timeout (default 30000)
    --handoff-limit <N>   Max plans migrated per donor on join/leave; 0 = cold (default 256)
    --port-file <FILE>    Write the bound port number to FILE once listening

OPTIONS (fleet join / leave):
    --addr <HOST:PORT>    Router address (default 127.0.0.1:7879)
    --node <HOST:PORT>    Node to add or remove
";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match run(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(argv: &[String]) -> Result<(), String> {
    let Some(cmd) = argv.first() else {
        return Err("missing command".into());
    };
    let rest = &argv[1..];
    // Every command that takes the shared planning options honours
    // `--profile` and `--trace-out` the same way.
    let command: fn(&args::Options) -> Result<(), String> = match cmd.as_str() {
        "analyze" => commands::analyze,
        "check" => commands::check,
        "lint" => commands::lint,
        "explain" => commands::explain,
        "lower" => commands::lower,
        "baseline" => commands::baseline,
        "simulate" => commands::simulate,
        "sweep" => commands::sweep,
        "tenants" => commands::tenants,
        "topology" => commands::topology,
        "list-models" => return commands::list_models(),
        "serve" => return commands::serve(&args::parse_serve(rest)?),
        "loadgen" => return commands::loadgen(&args::parse_loadgen(rest)?),
        "top" => return commands::top(&args::parse_top(rest)?),
        "fleet" => return commands::fleet(&args::parse_fleet(rest)?),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            return Ok(());
        }
        other => return Err(format!("unknown command {other:?}")),
    };
    let opts = args::parse(rest)?;
    commands::with_observability(&opts, || command(&opts))
}

#[cfg(test)]
mod tests {
    use super::run;
    use smm_obs::Counter;

    #[test]
    fn profile_is_honoured_by_every_planning_command() {
        let argv: Vec<String> = ["explain", "resnet18", "fc", "--glb", "64", "--profile"]
            .iter()
            .map(ToString::to_string)
            .collect();
        run(&argv).unwrap();
        assert!(smm_obs::counter_value(Counter::PlannerCandidates) > 0);
        assert!(smm_obs::counter_value(Counter::EstimatorCalls) > 0);
        assert!(!smm_obs::enabled(), "the collector is switched off again");
    }
}
