//! Subcommand implementations for the `glaive` CLI.

use std::error::Error;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use glaive::telemetry::{Fanout, Observer, StderrProgress, TimingRecorder};
use glaive::{truth_key, ArtifactCache, Pipeline, PipelineConfig, QuorumPolicy};
use glaive_bench_suite::{suite, Benchmark};
use glaive_campaign::{run_worker_with, Coordinator, FabricConfig, FabricError, WorkerOptions};
use glaive_cdfg::{Cdfg, CdfgConfig};
use glaive_faultsim::{
    Campaign, CampaignConfig, CampaignError, CampaignProgress, CheckpointSink, GroundTruth,
    NoProgress, RunControl, VulnTuple,
};
use glaive_gnn::GraphSage;
use glaive_serve::{Client, ProgramSpec, ResilientClient, Server, ServerConfig};
use glaive_sim::run;
use glaive_wire::{ChaosConfig, ChaosPlan, RetryPolicy};

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
usage:
  glaive-cli list
  glaive-cli disasm   <benchmark>
  glaive-cli campaign <benchmark> [--seed N] [--stride N] [--instances N] [--top N]
                      [--deadline-secs N] [--resume] [--checkpoint-interval N]
                      [--out truth.bin]
  glaive-cli campaign coordinate <benchmark> [--workers-listen HOST:PORT]
                      [--chunk N] [--lease-ms N] [--checkpoint-interval N]
                      [--out truth.bin] [--seed N] [--stride N] [--instances N]
                      [--top N] [--deadline-secs N] [--resume]
  glaive-cli campaign worker --connect HOST:PORT [--name NAME]
                      [--patience SECS]
  glaive-cli graph    <benchmark> [--seed N] [--stride N] [--dot]
  glaive-cli train    <out.model> <bench1,bench2,...> [--seed N] [--stride N]
                      [--deadline-secs N] [--fail-fast] [--quick]
                      [--train-threads N]
  glaive-cli apply    <model> <benchmark> [--seed N] [--top N]
  glaive-cli serve    <model> [--addr HOST:PORT] [--workers N] [--stride N]
                      [--queue-bound N] [--cache-shards N]
  glaive-cli query    <addr> <benchmark> [--seed N] [--stride N] [--top N]
  glaive-cli query    <addr> (--stats | --ping | --shutdown)
  glaive-cli budget   <addr> <benchmark> [--seed N] [--stride N]
                      [--overhead-pct N]

global flags: --verbose (stage telemetry on stderr)
              --patience SECS (worker/query: keep retrying transient
                               network failures for up to SECS before
                               giving up)
              --no-cache (skip the on-disk artifact cache for train)
              --deadline-secs N (soft wall-clock limit; interrupted work
                                 stops at the next batch boundary)
              --resume (campaign: checkpoint progress into the artifact
                        cache and resume a previously interrupted run)
              --fail-fast (train: abort the whole suite on the first
                           benchmark failure instead of degrading)
              --train-threads N (train: data-parallel gradient workers;
                                 0 = all cores; any value trains a
                                 bit-identical model)

benchmarks: dijkstra astar streamcluster jmeint sobel inversek2j
            blackscholes swaptions fft radix ctaes lu";

type CliResult = Result<(), Box<dyn Error>>;

/// Simple flag parser: `--name value` pairs after the positional args.
struct Flags {
    seed: u64,
    stride: usize,
    instances: usize,
    top: usize,
    dot: bool,
    verbose: bool,
    no_cache: bool,
    deadline_secs: Option<u64>,
    resume: bool,
    fail_fast: bool,
    addr: String,
    workers: usize,
    queue_bound: usize,
    cache_shards: usize,
    stats: bool,
    ping: bool,
    shutdown: bool,
    quick: bool,
    workers_listen: String,
    connect: Option<String>,
    name: Option<String>,
    chunk: usize,
    lease_ms: u64,
    checkpoint_interval: usize,
    out: Option<String>,
    patience_secs: Option<u64>,
    train_threads: usize,
    overhead_pct: u32,
}

fn parse_flags(args: &[String]) -> Result<Flags, Box<dyn Error>> {
    let mut flags = Flags {
        seed: 7,
        stride: 8,
        instances: 2,
        top: 15,
        dot: false,
        verbose: false,
        no_cache: false,
        deadline_secs: None,
        resume: false,
        fail_fast: false,
        addr: "127.0.0.1:0".to_string(),
        workers: 8,
        queue_bound: ServerConfig::default().queue_bound,
        cache_shards: ServerConfig::default().cache_shards,
        stats: false,
        ping: false,
        shutdown: false,
        quick: false,
        workers_listen: "127.0.0.1:0".to_string(),
        connect: None,
        name: None,
        chunk: 64,
        lease_ms: 5000,
        checkpoint_interval: 4096,
        out: None,
        patience_secs: None,
        train_threads: 0,
        overhead_pct: 5,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>| -> Result<u64, Box<dyn Error>> {
            it.next()
                .ok_or_else(|| format!("flag {a} needs a value"))?
                .parse::<u64>()
                .map_err(|e| format!("bad value for {a}: {e}").into())
        };
        match a.as_str() {
            "--dot" => flags.dot = true,
            "--verbose" => flags.verbose = true,
            "--no-cache" => flags.no_cache = true,
            "--resume" => flags.resume = true,
            "--fail-fast" => flags.fail_fast = true,
            "--deadline-secs" => flags.deadline_secs = Some(value(&mut it)?),
            "--quick" => flags.quick = true,
            "--stats" => flags.stats = true,
            "--ping" => flags.ping = true,
            "--shutdown" => flags.shutdown = true,
            "--addr" => {
                flags.addr = it
                    .next()
                    .ok_or_else(|| format!("flag {a} needs a value"))?
                    .clone();
            }
            "--workers" => flags.workers = value(&mut it)? as usize,
            "--queue-bound" => flags.queue_bound = value(&mut it)? as usize,
            "--cache-shards" => flags.cache_shards = value(&mut it)? as usize,
            "--workers-listen" => {
                flags.workers_listen = it
                    .next()
                    .ok_or_else(|| format!("flag {a} needs a value"))?
                    .clone();
            }
            "--connect" => {
                flags.connect = Some(
                    it.next()
                        .ok_or_else(|| format!("flag {a} needs a value"))?
                        .clone(),
                );
            }
            "--name" => {
                flags.name = Some(
                    it.next()
                        .ok_or_else(|| format!("flag {a} needs a value"))?
                        .clone(),
                );
            }
            "--out" => {
                flags.out = Some(
                    it.next()
                        .ok_or_else(|| format!("flag {a} needs a value"))?
                        .clone(),
                );
            }
            "--patience" => flags.patience_secs = Some(value(&mut it)?),
            "--chunk" => flags.chunk = value(&mut it)? as usize,
            "--lease-ms" => flags.lease_ms = value(&mut it)?,
            "--checkpoint-interval" => flags.checkpoint_interval = value(&mut it)? as usize,
            "--seed" => flags.seed = value(&mut it)?,
            "--stride" => flags.stride = value(&mut it)? as usize,
            "--instances" => flags.instances = value(&mut it)? as usize,
            "--train-threads" => flags.train_threads = value(&mut it)? as usize,
            "--overhead-pct" => flags.overhead_pct = value(&mut it)? as u32,
            "--top" => flags.top = value(&mut it)? as usize,
            other => return Err(format!("unknown flag {other}").into()),
        }
    }
    Ok(flags)
}

fn find_benchmark(name: &str, seed: u64) -> Result<Benchmark, Box<dyn Error>> {
    suite(seed)
        .into_iter()
        .find(|b| b.name == name)
        .ok_or_else(|| format!("unknown benchmark `{name}` (try `glaive-cli list`)").into())
}

/// Dispatches a parsed command line.
pub fn dispatch(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("list") => cmd_list(),
        Some("disasm") => {
            let name = args.get(1).ok_or("disasm needs a benchmark name")?;
            cmd_disasm(name, &parse_flags(&args[2..])?)
        }
        Some("campaign") => match args.get(1).map(String::as_str) {
            Some("coordinate") => {
                let name = args
                    .get(2)
                    .ok_or("campaign coordinate needs a benchmark name")?;
                cmd_campaign_coordinate(name, &parse_flags(&args[3..])?)
            }
            Some("worker") => cmd_campaign_worker(&parse_flags(&args[2..])?),
            Some(name) => cmd_campaign(name, &parse_flags(&args[2..])?),
            None => Err("campaign needs a benchmark name".into()),
        },
        Some("graph") => {
            let name = args.get(1).ok_or("graph needs a benchmark name")?;
            cmd_graph(name, &parse_flags(&args[2..])?)
        }
        Some("train") => {
            let out = args.get(1).ok_or("train needs an output path")?;
            let names = args.get(2).ok_or("train needs a benchmark list")?;
            cmd_train(out, names, &parse_flags(&args[3..])?)
        }
        Some("apply") => {
            let model = args.get(1).ok_or("apply needs a model path")?;
            let name = args.get(2).ok_or("apply needs a benchmark name")?;
            cmd_apply(model, name, &parse_flags(&args[3..])?)
        }
        Some("serve") => {
            let model = args.get(1).ok_or("serve needs a model path")?;
            cmd_serve(model, &parse_flags(&args[2..])?)
        }
        Some("query") => {
            let addr = args.get(1).ok_or("query needs a server address")?;
            // The benchmark name is optional for --stats/--ping/--shutdown.
            let (name, rest) = match args.get(2) {
                Some(a) if !a.starts_with("--") => (Some(a.as_str()), &args[3..]),
                _ => (None, &args[2..]),
            };
            cmd_query(addr, name, &parse_flags(rest)?)
        }
        Some("budget") => {
            let addr = args.get(1).ok_or("budget needs a server address")?;
            let name = args.get(2).ok_or("budget needs a benchmark name")?;
            cmd_budget(addr, name, &parse_flags(&args[3..])?)
        }
        Some(other) => Err(format!("unknown command `{other}`").into()),
        None => Err("no command given".into()),
    }
}

fn cmd_list() -> CliResult {
    println!(
        "{:<14} {:<8} {:<6} {:>8} {:>10} {:>8}",
        "benchmark", "category", "split", "instrs", "dyn", "outputs"
    );
    for b in suite(7) {
        let r = run(b.program(), &b.init_mem, &b.exec_config());
        println!(
            "{:<14} {:<8} {:<6} {:>8} {:>10} {:>8}",
            b.name,
            match b.category {
                glaive_bench_suite::Category::Control => "control",
                glaive_bench_suite::Category::Data => "data",
            },
            match b.split {
                glaive_bench_suite::Split::TrainTest => "TT",
                glaive_bench_suite::Split::Validation => "V",
            },
            b.program().len(),
            r.dyn_instrs,
            r.output.len()
        );
    }
    Ok(())
}

fn cmd_disasm(name: &str, flags: &Flags) -> CliResult {
    let b = find_benchmark(name, flags.seed)?;
    print!("{}", b.program().disassemble());
    Ok(())
}

/// Prints campaign progress at ~10% increments when `--verbose` is set.
struct DecileProgress(std::sync::atomic::AtomicUsize);

impl CampaignProgress for DecileProgress {
    fn injections(&self, done: usize, total: usize) {
        let decile = done * 10 / total.max(1);
        if decile > self.0.swap(decile, std::sync::atomic::Ordering::Relaxed) {
            eprintln!("[campaign] {done}/{total} injections");
        }
    }
}

fn cmd_campaign(name: &str, flags: &Flags) -> CliResult {
    run_campaign_command(name, flags, |b, config, ctrl| {
        Ok(Campaign::try_new(b.program(), &b.init_mem, config)?.run_supervised(ctrl)?)
    })
}

/// The path `campaign` and `campaign coordinate` share: campaign
/// parameters from the flags, a checkpoint sink in the artifact cache
/// under `--resume` (the key the pipeline uses for this campaign's ground
/// truth, so an interrupted run picks up where it left off), progress,
/// deadline, the `--resume` hint on interruption, `--out`, and the
/// summary. `drive` runs the campaign itself.
fn run_campaign_command(
    name: &str,
    flags: &Flags,
    drive: impl FnOnce(
        &Benchmark,
        CampaignConfig,
        &RunControl<'_>,
    ) -> Result<GroundTruth, Box<dyn Error>>,
) -> CliResult {
    let b = find_benchmark(name, flags.seed)?;
    let config = CampaignConfig {
        bit_stride: flags.stride,
        instances_per_site: flags.instances,
        ..CampaignConfig::default()
    };
    let sink = flags
        .resume
        .then(|| ArtifactCache::at_default_location().checkpoint_sink(truth_key(&b, &config)));
    let decile = DecileProgress(std::sync::atomic::AtomicUsize::new(0));
    let ctrl = RunControl {
        progress: if flags.verbose { &decile } else { &NoProgress },
        cancel: None,
        deadline: flags
            .deadline_secs
            .map(|s| Instant::now() + Duration::from_secs(s)),
        checkpoint: sink.as_ref().map(|s| s as &dyn CheckpointSink),
        checkpoint_interval: flags.checkpoint_interval,
    };
    let truth = drive(&b, config, &ctrl).map_err(|e| {
        let interrupted = matches!(e.downcast_ref(), Some(CampaignError::Interrupted { .. }))
            || matches!(
                e.downcast_ref(),
                Some(FabricError::Campaign(CampaignError::Interrupted { .. }))
            );
        if !interrupted {
            return e;
        }
        let hint = if flags.resume {
            "rerun with --resume to continue from the checkpoint"
        } else {
            "rerun with --resume to checkpoint progress and make the run resumable"
        };
        format!("{e}; {hint}").into()
    })?;
    if let Some(sink) = &sink {
        sink.clear();
    }
    if let Some(out) = &flags.out {
        std::fs::write(out, truth.to_bytes())?;
        println!("wrote ground truth to {out}");
    }
    print_truth_summary(name, &b, &truth, flags.top)
}

/// Prints the campaign summary shared by `campaign` and
/// `campaign coordinate`. Uses the `try_*` aggregations throughout: a
/// degenerate truth (however it was produced) is a typed error here,
/// never a panic.
fn print_truth_summary(name: &str, b: &Benchmark, truth: &GroundTruth, top: usize) -> CliResult {
    println!(
        "{}: {} injections ({} statically predicted) over {} instructions",
        name,
        truth.total_injections(),
        truth.predicted_injections(),
        truth.instructions_covered()
    );
    let pv = truth.try_program_vulnerability()?;
    println!(
        "program vulnerability: crash={:.3} sdc={:.3} masked={:.3}\n",
        pv.crash, pv.sdc, pv.masked
    );
    let mut ivs = truth.try_instruction_vulnerability()?;
    ivs.sort_by(|a, b| b.tuple.ranking_key().total_cmp(&a.tuple.ranking_key()));
    println!("most vulnerable instructions:");
    println!(
        "{:<6} {:>6} {:>6} {:>7}  instruction",
        "pc", "crash", "sdc", "masked"
    );
    for iv in ivs.iter().take(top) {
        println!(
            "{:<6} {:>6.3} {:>6.3} {:>7.3}  {}",
            iv.pc,
            iv.tuple.crash,
            iv.tuple.sdc,
            iv.tuple.masked,
            b.program().instrs()[iv.pc]
        );
    }
    Ok(())
}

/// `campaign coordinate`: drives a distributed campaign over TCP workers
/// instead of the local thread pool, with the same checkpoint/resume,
/// deadline and summary behaviour as the serial `campaign` command — and,
/// by construction, the same bytes out.
fn cmd_campaign_coordinate(name: &str, flags: &Flags) -> CliResult {
    let fabric = FabricConfig {
        chunk_size: flags.chunk.max(1),
        lease: Duration::from_millis(flags.lease_ms.max(1)),
        ..FabricConfig::default()
    };
    run_campaign_command(name, flags, |b, config, ctrl| {
        let listener = std::net::TcpListener::bind(flags.workers_listen.as_str())?;
        // Supervising processes (and the smoke test) parse this line for
        // the OS-chosen port, so print it before blocking in the accept
        // loop.
        println!("coordinating on {}", listener.local_addr()?);
        std::io::Write::flush(&mut std::io::stdout())?;
        Ok(Coordinator::try_new(b.program(), &b.init_mem, config, fabric)?.run(listener, ctrl)?)
    })
}

/// Fault injection opted into via `GLAIVE_CHAOS_SEED` /
/// `GLAIVE_CHAOS_RATE`. The libraries never read the environment
/// themselves; the CLI is the one place the opt-in is wired through.
fn chaos_from_env() -> Option<ChaosPlan> {
    let plan = ChaosConfig::from_env().map(ChaosPlan::new);
    if let Some(p) = &plan {
        eprintln!(
            "chaos: seed {:#018x}, fault rate {} ppm",
            p.config().seed,
            p.config().fault_ppm
        );
    }
    plan
}

/// Retry policy for the network edges: default budget (~0.6 s of
/// backoff), or `--patience SECS` of persistent redialling for fleets
/// that must survive a coordinator/server restart.
fn retry_from_flags(flags: &Flags) -> RetryPolicy {
    match flags.patience_secs {
        Some(secs) => RetryPolicy::patient(Duration::from_secs(secs)),
        None => RetryPolicy::default(),
    }
}

fn print_chaos_report(plan: &ChaosPlan) {
    let r = plan.report();
    eprintln!(
        "chaos: injected {} delays, {} short ops, {} corruptions, {} disconnects",
        r.delays, r.short_ops, r.corruptions, r.disconnects
    );
}

/// `campaign worker`: joins a coordinator's fleet and computes leased
/// chunks until the campaign completes or the coordinator goes away.
fn cmd_campaign_worker(flags: &Flags) -> CliResult {
    let addr = flags
        .connect
        .as_deref()
        .ok_or("campaign worker needs --connect HOST:PORT")?;
    let default_name = format!("worker-{}", std::process::id());
    let name = flags.name.as_deref().unwrap_or(&default_name);
    let options = WorkerOptions {
        retry: retry_from_flags(flags),
        chaos: chaos_from_env(),
        // Disjoint per process, so co-located workers under the same
        // seed still draw distinct fault schedules.
        stream_base: u64::from(std::process::id()) << 32,
        ..WorkerOptions::default()
    };
    let chaos = options.chaos.clone();
    let report = run_worker_with(addr, name, None, options)?;
    println!(
        "{name}: {} chunks completed, {} injections simulated \
         ({} retries, {} reconnects)",
        report.chunks, report.simulated, report.retries, report.reconnects
    );
    if let Some(plan) = &chaos {
        print_chaos_report(plan);
    }
    Ok(())
}

fn cmd_graph(name: &str, flags: &Flags) -> CliResult {
    let b = find_benchmark(name, flags.seed)?;
    if flags.dot {
        print!("{}", glaive_cdfg::instruction_dot(b.program()));
        return Ok(());
    }
    let g = Cdfg::build(
        b.program(),
        &CdfgConfig {
            bit_stride: flags.stride,
        },
    );
    let stats = g.edge_stats();
    println!("{name}: bit-level CDFG at stride {}", flags.stride);
    println!("  nodes:          {}", g.node_count());
    println!("  edges (dedup):  {}", g.edge_count());
    println!("  intra-operand:  {}", stats.intra);
    println!("  data (D_D):     {}", stats.data);
    println!("  control (D_C):  {}", stats.control);
    println!("  memory (D_M):   {}", stats.memory);
    let max_in = (0..g.node_count() as u32)
        .map(|v| g.preds(v).len())
        .max()
        .unwrap_or(0);
    println!("  max in-degree:  {max_in}");
    println!("  isolated nodes: {}", isolated_nodes(&g));
    Ok(())
}

/// Nodes with no edge at all: an empty predecessor row, and absent from
/// every other node's row.
fn isolated_nodes(g: &Cdfg) -> usize {
    let mut is_pred = vec![false; g.node_count()];
    for &p in g.preds_csr().targets() {
        is_pred[p as usize] = true;
    }
    (0..g.node_count() as u32)
        .filter(|&v| g.preds(v).is_empty() && !is_pred[v as usize])
        .count()
}

fn pipeline_config(flags: &Flags) -> PipelineConfig {
    // --quick starts from the subsampled test configuration (small model,
    // few epochs) — campaign/graph knobs set by explicit flags still win.
    let base = if flags.quick {
        PipelineConfig::quick_test()
    } else {
        PipelineConfig::default()
    };
    PipelineConfig {
        bit_stride: flags.stride,
        instances_per_site: flags.instances,
        train_threads: flags.train_threads,
        suite_deadline: flags.deadline_secs.map(Duration::from_secs),
        // Training degrades gracefully by default: one surviving benchmark
        // is enough to fit a model; --fail-fast restores strictness.
        quorum: if flags.fail_fast {
            QuorumPolicy::FailFast
        } else {
            QuorumPolicy::MinBenchmarks(1)
        },
        ..base
    }
}

fn cmd_train(out: &str, names: &str, flags: &Flags) -> CliResult {
    let config = pipeline_config(flags);
    let recorder = Arc::new(TimingRecorder::new());
    let observer: Arc<dyn Observer> = if flags.verbose {
        Arc::new(Fanout(vec![Arc::new(StderrProgress), recorder.clone()]))
    } else {
        Arc::new(Fanout(vec![recorder.clone()]))
    };
    let mut builder = Pipeline::builder(config).observer(observer);
    if !flags.no_cache {
        builder = builder.default_cache();
    }
    let pipeline = builder.build()?;

    let mut benches = Vec::new();
    for name in names.split(',') {
        benches.push(find_benchmark(name.trim(), flags.seed)?);
    }
    eprintln!("preparing {} benchmarks (FI campaigns)...", benches.len());
    let mut report = pipeline.prepare_benchmarks_supervised(benches);
    if let Some(summary) = report.failure_summary() {
        eprint!("{summary}");
    }
    report.check_quorum(config.quorum)?;
    let train = report.take_prepared();
    let refs: Vec<&_> = train.iter().collect();
    eprintln!("training GLAIVE on {} benchmarks...", refs.len());
    let model = pipeline.train_glaive(&refs)?;
    let bytes = model.to_bytes();
    std::fs::write(out, &bytes)?;
    if flags.verbose {
        eprint!("{}", recorder.summary());
    }
    println!("saved GLAIVE model to {out} ({} bytes)", bytes.len());
    Ok(())
}

fn cmd_apply(model_path: &str, name: &str, flags: &Flags) -> CliResult {
    let bytes = std::fs::read(model_path)?;
    let model = GraphSage::from_bytes(&bytes)?;
    let b = find_benchmark(name, flags.seed)?;
    // Estimation needs only the graph — no fault injection.
    let g = Cdfg::build(
        b.program(),
        &CdfgConfig {
            bit_stride: flags.stride,
        },
    );
    let features = glaive_nn_matrix(&g);
    let probs = model.predict_proba(&features, g.preds_csr());

    // Aggregate the bit distribution per instruction (paper §III-D).
    let tuples = glaive::aggregate_bit_probs(&g, b.program().len(), &probs);
    let mut ranked: Vec<(usize, VulnTuple)> = tuples
        .iter()
        .enumerate()
        .filter_map(|(pc, t)| t.map(|t| (pc, t)))
        .collect();
    ranked.sort_by(|a, b| b.1.ranking_key().total_cmp(&a.1.ranking_key()));

    println!("{name}: estimated most vulnerable instructions (no FI run)");
    println!(
        "{:<6} {:>6} {:>6} {:>7}  instruction",
        "pc", "crash", "sdc", "masked"
    );
    let mut buf = String::new();
    for &(pc, t) in ranked.iter().take(flags.top) {
        writeln!(
            buf,
            "{:<6} {:>6.3} {:>6.3} {:>7.3}  {}",
            pc,
            t.crash,
            t.sdc,
            t.masked,
            b.program().instrs()[pc]
        )?;
    }
    print!("{buf}");
    Ok(())
}

fn cmd_serve(model_path: &str, flags: &Flags) -> CliResult {
    let bytes = std::fs::read(model_path)?;
    let model = GraphSage::from_bytes(&bytes)?;
    let recorder = Arc::new(TimingRecorder::new());
    let observer: Arc<dyn Observer> = if flags.verbose {
        Arc::new(Fanout(vec![Arc::new(StderrProgress), recorder.clone()]))
    } else {
        Arc::new(Fanout(vec![recorder.clone()]))
    };
    let server = Server::bind(
        model,
        flags.addr.as_str(),
        ServerConfig {
            workers: flags.workers,
            queue_bound: flags.queue_bound,
            cache_shards: flags.cache_shards,
            ..ServerConfig::default()
        },
    )?
    .with_observer(observer);
    // The smoke test (and any supervising process) parses this line for
    // the OS-chosen port, so print it before blocking in the run loop.
    println!("listening on {}", server.local_addr());
    use std::io::Write as _;
    std::io::stdout().flush()?;
    let stats = server.run()?;
    println!(
        "served {} requests: {} predictions in {} batches (peak batch {}), \
         cache {} hits / {} misses, {} errors, {} busy rejections, \
         {} stall evictions, peak queue {}",
        stats.requests,
        stats.predictions,
        stats.batches,
        stats.peak_batch,
        stats.cache_hits,
        stats.cache_misses,
        stats.errors,
        stats.busy_rejections,
        stats.stall_evictions,
        stats.queue_depth_max
    );
    if flags.verbose {
        eprint!("{}", recorder.summary());
    }
    Ok(())
}

fn cmd_query(addr: &str, name: Option<&str>, flags: &Flags) -> CliResult {
    if flags.shutdown {
        // Shutdown is deliberately *not* retried: a lost ack after the
        // server accepted it would make a blind re-send ambiguous.
        let mut client = Client::connect(addr)?;
        client.shutdown_server()?;
        println!("server draining");
        return Ok(());
    }
    let mut client = ResilientClient::new(addr, retry_from_flags(flags));
    let chaos = chaos_from_env();
    if let Some(plan) = &chaos {
        client = client.with_chaos(plan.clone(), u64::from(std::process::id()) << 32);
    }
    let outcome = cmd_query_resilient(&mut client, name, flags);
    let report = client.report();
    if report.retries > 0 {
        eprintln!(
            "query survived {} transient failures ({} reconnects, {} busy replies)",
            report.retries, report.reconnects, report.busy_responses
        );
    }
    if let Some(plan) = &chaos {
        print_chaos_report(plan);
    }
    outcome
}

fn cmd_query_resilient(
    client: &mut ResilientClient,
    name: Option<&str>,
    flags: &Flags,
) -> CliResult {
    if flags.ping {
        client.ping()?;
        println!("pong");
        return Ok(());
    }
    if flags.stats {
        let s = client.stats()?;
        println!("requests:     {}", s.requests);
        println!("predictions:  {}", s.predictions);
        println!("batches:      {}", s.batches);
        println!("peak batch:   {}", s.peak_batch);
        println!("cache hits:   {}", s.cache_hits);
        println!("cache misses: {}", s.cache_misses);
        println!("errors:       {}", s.errors);
        println!("busy:         {}", s.busy_rejections);
        println!("stalls cut:   {}", s.stall_evictions);
        println!("peak queue:   {}", s.queue_depth_max);
        return Ok(());
    }
    let name = name.ok_or("query needs a benchmark name (or --stats/--ping/--shutdown)")?;
    // Resolve locally too, so the reply's PCs render as instructions.
    let b = find_benchmark(name, flags.seed)?;
    let reply = client.predict(
        &ProgramSpec::Suite {
            name: name.to_string(),
            seed: flags.seed,
        },
        flags.stride as u32,
        flags.top as u32,
        false,
    )?;
    println!(
        "{name}: served estimate over {} bit nodes (batch of {})",
        reply.node_count, reply.batch_size
    );
    println!(
        "{:<6} {:>6} {:>6} {:>7}  instruction",
        "pc", "crash", "sdc", "masked"
    );
    for &pc in &reply.top_k {
        let [crash, sdc, masked] = reply.tuples[pc as usize].ok_or("ranked pc lacks a tuple")?;
        println!(
            "{:<6} {:>6.3} {:>6.3} {:>7.3}  {}",
            pc,
            crash,
            sdc,
            masked,
            b.program().instrs()[pc as usize]
        );
    }
    Ok(())
}

/// `budget`: asks a running server for a protection set under a cycle
/// budget (`--overhead-pct`% of the benchmark's golden-run cycles) and
/// renders the chosen instructions with their costs and scores.
fn cmd_budget(addr: &str, name: &str, flags: &Flags) -> CliResult {
    // Resolve locally too, so the reply's PCs render as instructions.
    let b = find_benchmark(name, flags.seed)?;
    let mut client = ResilientClient::new(addr, retry_from_flags(flags));
    let chaos = chaos_from_env();
    if let Some(plan) = &chaos {
        client = client.with_chaos(plan.clone(), u64::from(std::process::id()) << 32);
    }
    let reply = client.budget(
        &ProgramSpec::Suite {
            name: name.to_string(),
            seed: flags.seed,
        },
        flags.stride as u32,
        flags.overhead_pct,
    )?;
    let report = client.report();
    if report.retries > 0 {
        eprintln!(
            "budget survived {} transient failures ({} reconnects, {} busy replies)",
            report.retries, report.reconnects, report.busy_responses
        );
    }
    if let Some(plan) = &chaos {
        print_chaos_report(plan);
    }
    println!(
        "{name}: protect {} instructions within {}% overhead \
         ({} of {} budget cycles spent, golden run {} cycles)",
        reply.items.len(),
        flags.overhead_pct,
        reply.spent_cycles,
        reply.budget_cycles,
        reply.total_cycles
    );
    println!("{:<6} {:>8} {:>7}  instruction", "pc", "cycles", "score");
    for item in &reply.items {
        println!(
            "{:<6} {:>8} {:>7.3}  {}",
            item.pc,
            item.cycles,
            item.score,
            b.program().instrs()[item.pc as usize]
        );
    }
    println!("covered vulnerability: {:.3}", reply.covered);
    Ok(())
}

/// Builds the node feature matrix of a graph as an owned `Matrix`.
fn glaive_nn_matrix(g: &Cdfg) -> glaive_nn::Matrix {
    glaive_nn::Matrix::from_vec(g.node_count(), glaive_cdfg::FEATURE_DIM, g.feature_matrix())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(dispatch(&argv(&["frobnicate"])).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn missing_positional_args_are_errors() {
        assert!(dispatch(&argv(&["disasm"])).is_err());
        assert!(dispatch(&argv(&["campaign"])).is_err());
        assert!(dispatch(&argv(&["train", "out.model"])).is_err());
        assert!(dispatch(&argv(&["apply", "model.bin"])).is_err());
    }

    #[test]
    fn unknown_benchmark_is_an_error() {
        assert!(dispatch(&argv(&["disasm", "nonexistent"])).is_err());
    }

    #[test]
    fn flags_parse_and_reject_garbage() {
        let f =
            parse_flags(&argv(&["--seed", "3", "--stride", "32", "--top", "4"])).expect("parses");
        assert_eq!(f.seed, 3);
        assert_eq!(f.stride, 32);
        assert_eq!(f.top, 4);
        assert!(parse_flags(&argv(&["--bogus", "1"])).is_err());
        assert!(parse_flags(&argv(&["--seed"])).is_err());
        assert!(parse_flags(&argv(&["--seed", "abc"])).is_err());
    }

    #[test]
    fn supervision_flags_parse() {
        let f = parse_flags(&argv(&["--deadline-secs", "30", "--resume", "--fail-fast"]))
            .expect("parses");
        assert_eq!(f.deadline_secs, Some(30));
        assert!(f.resume);
        assert!(f.fail_fast);
        let defaults = parse_flags(&[]).expect("parses");
        assert_eq!(defaults.deadline_secs, None);
        assert!(!defaults.resume);
        assert!(!defaults.fail_fast);
        assert!(parse_flags(&argv(&["--deadline-secs"])).is_err());
    }

    #[test]
    fn fail_fast_flag_selects_the_quorum_policy() {
        let strict = parse_flags(&argv(&["--fail-fast"])).expect("parses");
        assert_eq!(pipeline_config(&strict).quorum, QuorumPolicy::FailFast);
        let lenient = parse_flags(&[]).expect("parses");
        assert_eq!(
            pipeline_config(&lenient).quorum,
            QuorumPolicy::MinBenchmarks(1)
        );
    }

    #[test]
    fn expired_campaign_deadline_suggests_resume() {
        let err = dispatch(&argv(&["campaign", "lu", "--deadline-secs", "0"]))
            .expect_err("an already-expired deadline interrupts the campaign");
        let msg = err.to_string();
        assert!(msg.contains("deadline exceeded"), "{msg}");
        assert!(msg.contains("--resume"), "{msg}");
    }

    #[test]
    fn inspection_commands_succeed() {
        dispatch(&argv(&["list"])).expect("list");
        dispatch(&argv(&["disasm", "lu"])).expect("disasm");
        dispatch(&argv(&["graph", "lu", "--stride", "32"])).expect("graph");
    }

    #[test]
    fn isolated_nodes_have_no_edge_in_either_direction() {
        use glaive_isa::{Asm, Reg};
        // `li r1` feeds `out r1`; `li r2` defines a value nothing reads.
        let mut asm = Asm::new("iso");
        asm.li(Reg(1), 3);
        asm.li(Reg(2), 4);
        asm.out(Reg(1));
        asm.halt();
        let p = asm.finish().expect("resolves");
        let g = Cdfg::build(&p, &CdfgConfig { bit_stride: 16 });
        // Only r2's four sampled def bits are isolated: r1's def bits
        // have no predecessor but are the out bits' predecessors.
        assert_eq!(isolated_nodes(&g), 4);
    }

    #[test]
    fn serve_and_query_argument_errors() {
        assert!(dispatch(&argv(&["serve"])).is_err(), "serve needs a model");
        assert!(
            dispatch(&argv(&["query"])).is_err(),
            "query needs an address"
        );
        // A predict query without a benchmark name and without a control
        // flag is rejected before any connection is attempted.
        let err = dispatch(&argv(&["query", "127.0.0.1:6", "--ping"]));
        assert!(err.is_err(), "nobody listens on a reserved port");
    }

    #[test]
    fn serve_flags_parse() {
        let f = parse_flags(&argv(&[
            "--addr",
            "127.0.0.1:9999",
            "--workers",
            "3",
            "--quick",
        ]))
        .expect("parses");
        assert_eq!(f.addr, "127.0.0.1:9999");
        assert_eq!(f.workers, 3);
        assert!(f.quick);
        assert!(parse_flags(&argv(&["--addr"])).is_err());
        let defaults = parse_flags(&[]).expect("parses");
        assert_eq!(defaults.workers, 8);
        assert!(!defaults.quick);
    }

    #[test]
    fn quick_flag_selects_the_subsampled_config() {
        let quick = parse_flags(&argv(&["--quick", "--stride", "16"])).expect("parses");
        let config = pipeline_config(&quick);
        assert_eq!(config.sage.epochs, PipelineConfig::quick_test().sage.epochs);
        assert_eq!(config.bit_stride, 16);
        let full = parse_flags(&[]).expect("parses");
        assert_eq!(
            pipeline_config(&full).sage.epochs,
            PipelineConfig::default().sage.epochs
        );
    }

    #[test]
    fn budget_argument_errors_and_flags() {
        assert!(
            dispatch(&argv(&["budget"])).is_err(),
            "budget needs an address"
        );
        assert!(
            dispatch(&argv(&["budget", "127.0.0.1:6"])).is_err(),
            "budget needs a benchmark"
        );
        // An unknown benchmark is rejected before any connection attempt.
        assert!(dispatch(&argv(&["budget", "127.0.0.1:6", "nonexistent"])).is_err());
        let f = parse_flags(&argv(&["--overhead-pct", "12"])).expect("parses");
        assert_eq!(f.overhead_pct, 12);
        let defaults = parse_flags(&[]).expect("parses");
        assert_eq!(defaults.overhead_pct, 5);
        assert!(parse_flags(&argv(&["--overhead-pct"])).is_err());
        assert!(parse_flags(&argv(&["--overhead-pct", "lots"])).is_err());
    }

    #[test]
    fn campaign_fabric_argument_errors() {
        assert!(
            dispatch(&argv(&["campaign", "coordinate"])).is_err(),
            "coordinate needs a benchmark"
        );
        assert!(
            dispatch(&argv(&["campaign", "coordinate", "nonexistent"])).is_err(),
            "unknown benchmark rejected before binding"
        );
        assert!(
            dispatch(&argv(&["campaign", "worker"])).is_err(),
            "worker needs --connect"
        );
        // A worker pointed at a dead address fails with a transport error,
        // not a hang or a panic.
        assert!(dispatch(&argv(&["campaign", "worker", "--connect", "127.0.0.1:6"])).is_err());
    }

    #[test]
    fn fabric_flags_parse() {
        let f = parse_flags(&argv(&[
            "--workers-listen",
            "127.0.0.1:7100",
            "--chunk",
            "16",
            "--lease-ms",
            "750",
            "--checkpoint-interval",
            "128",
            "--out",
            "truth.bin",
        ]))
        .expect("parses");
        assert_eq!(f.workers_listen, "127.0.0.1:7100");
        assert_eq!(f.chunk, 16);
        assert_eq!(f.lease_ms, 750);
        assert_eq!(f.checkpoint_interval, 128);
        assert_eq!(f.out.as_deref(), Some("truth.bin"));
        let defaults = parse_flags(&[]).expect("parses");
        assert_eq!(defaults.chunk, 64);
        assert_eq!(defaults.lease_ms, 5000);
        assert!(defaults.connect.is_none());
        assert!(parse_flags(&argv(&["--connect"])).is_err());
    }

    #[test]
    fn serve_rejects_bad_model_files() {
        let path = std::env::temp_dir().join("glaive-cli-bad-serve.model");
        std::fs::write(&path, b"not a model either").expect("write");
        assert!(dispatch(&argv(&["serve", path.to_str().expect("utf8")])).is_err());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn apply_rejects_bad_model_files() {
        let path = std::env::temp_dir().join("glaive-cli-bad.model");
        std::fs::write(&path, b"definitely not a model").expect("write");
        let err = dispatch(&argv(&["apply", path.to_str().expect("utf8"), "lu"]));
        assert!(err.is_err());
        let _ = std::fs::remove_file(&path);
    }
}
