//! `perf_ledger`: the repository's end-to-end benchmark and per-layer time
//! ledger. See `perf_ledger/README.md` for the workloads, the metrics and
//! how to run it.
//!
//! ```text
//! perf_ledger --workload {fi|train|serve-warm|serve-mixed|all} [--seed N]
//!             [--seconds S] [--trace 0|1] [--ledger PATH] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (the end-to-end metrics, or with
//! `--trace 1` the per-layer metrics). Any failed output check makes the
//! exit code non-zero.

mod fi;
mod gen;
mod probe;
mod serve;
mod stats;
mod trace;
mod train;

use std::process::ExitCode;
use std::time::Instant;

use stats::{median, LedgerRow};
use trace::{json_str, Span};

const WORKLOADS: [&str; 4] = ["fi", "train", "serve-warm", "serve-mixed"];
/// Measuring time of a run unless `--seconds` says otherwise (the
/// benchmark's `run_seconds`), and of a `--smoke` run.
const DEFAULT_SECONDS: f64 = 25.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Each run sets up this many times and reports the median set-up time.
const SETUP_REPEATS: usize = 3;

/// What a workload is run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub smoke: bool,
    pub trace: bool,
}

impl Ctx {
    /// Runs `setup` [`SETUP_REPEATS`] times; keeps the last state and
    /// every duration.
    pub fn setup<T>(&self, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        let mut state = None;
        for _ in 0..SETUP_REPEATS {
            // The previous state is dropped (its server shut down) before
            // the next set-up starts, so set-ups never overlap.
            drop(state.take());
            let t = Instant::now();
            state = Some(setup());
            times.push(t.elapsed().as_secs_f64());
        }
        (state.expect("at least one set-up"), times)
    }

    /// Repeats `job` for this run's measuring time: a next repetition
    /// starts only when the last one's duration predicts it ends in time.
    /// Always runs at least once.
    pub fn repeat<T>(&self, mut job: impl FnMut() -> T) -> Vec<(T, f64)> {
        let start = Instant::now();
        let mut out = Vec::new();
        loop {
            let t = Instant::now();
            let value = job();
            let secs = t.elapsed().as_secs_f64();
            out.push((value, secs));
            if start.elapsed().as_secs_f64() + secs > self.seconds {
                return out;
            }
        }
    }
}

/// Output checks of one run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `ops` operations as failed when `ok` is false.
    pub fn expect(&mut self, ok: bool, ops: u64, message: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops;
            if self.messages.len() < 20 {
                let m = message();
                eprintln!("check failed: {m}");
                self.messages.push(m);
            }
        }
    }
}

/// FNV-1a over the concatenation of `parts`.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut bytes = Vec::new();
    for p in parts {
        bytes.extend_from_slice(p);
    }
    glaive_serve::protocol::fnv1a(&bytes)
}

/// Compares `digest` with the value `oracle_digests.txt` stores for `key`
/// at seed 7; other seeds have no stored value and skip the check.
pub fn check_stored_digest(ctx: &Ctx, key: &str, digest: u64, ops: u64, checks: &mut Checks) {
    if ctx.seed != 7 {
        return;
    }
    let key = if ctx.smoke {
        format!("{key}-smoke")
    } else {
        key.to_string()
    };
    eprintln!("digest {key} {digest:#018x}");
    let stored = include_str!("../oracle_digests.txt")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.split_once(' '))
        .find(|(k, _)| *k == key)
        .and_then(|(_, v)| u64::from_str_radix(v.trim().trim_start_matches("0x"), 16).ok());
    match stored {
        Some(s) => checks.expect(s == digest, ops, || {
            format!("{key} digest {digest:#018x} differs from the stored {s:#018x}")
        }),
        None => checks.expect(false, 0, || format!("no stored digest for {key}")),
    }
}

/// A named measurement with its unit.
pub type Metric = (String, f64, &'static str);

/// The ledger of a traced run.
#[derive(Default)]
pub struct Ledger {
    pub rows: Vec<LedgerRow>,
    pub notes: Vec<Metric>,
    pub spans: Vec<Span>,
    pub per_layer: Vec<Metric>,
    /// (traced − untraced) ÷ untraced of the workload's root time.
    pub trace_overhead_share: f64,
}

/// Everything a workload run reports.
pub struct Outcome {
    pub setup_s: Vec<f64>,
    pub checks: Checks,
    pub work_per_s: f64,
    pub latency_ms: f64,
    /// The workload's own names for what it measured, printed with the
    /// end-to-end metrics.
    pub report: Vec<Metric>,
    pub ledger: Option<Ledger>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    ledger: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 7,
        seconds: 0.0,
        trace: false,
        smoke: false,
        ledger: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--ledger" => args.ledger = Some(value()?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.seconds == 0.0 {
        args.seconds = if args.smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        };
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metrics_json(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn print_ledger(workload: &str, ledger: &Ledger) {
    eprintln!("ledger for {workload}:");
    for row in &ledger.rows {
        eprintln!("  {} = {:.4} {}", row.parent.0, row.parent.1, row.unit);
        for (name, value) in &row.children {
            eprintln!("    {name:<28} {value:>12.4}");
        }
        let flag = if row.flagged() {
            "  UNATTRIBUTED (>15%)"
        } else {
            ""
        };
        eprintln!(
            "    {:<28} {:>12.4}  ({:.1}% of parent){flag}",
            row.residual_name,
            row.residual(),
            100.0 * row.residual_share()
        );
    }
    for (name, value, unit) in &ledger.notes {
        eprintln!("  {name:<30} {value:.4} {unit}");
    }
    eprintln!("  trace overhead share {:.4}", ledger.trace_overhead_share);
}

fn ledger_json(workload: &str, args: &Args, ledger: &Ledger) -> String {
    let rows: Vec<String> = ledger
        .rows
        .iter()
        .map(|row| {
            let children: Vec<String> = row
                .children
                .iter()
                .map(|(n, v)| format!("{}: {v}", json_str(n)))
                .collect();
            format!(
                "{{\"parent\": {}, \"value\": {}, \"unit\": {}, \"children\": {{{}}}, \
                 \"residual\": {{{}: {}}}, \"residual_share\": {}, \"unattributed\": {}}}",
                json_str(&row.parent.0),
                row.parent.1,
                json_str(row.unit),
                children.join(", "),
                json_str(&row.residual_name),
                row.residual(),
                row.residual_share(),
                row.flagged()
            )
        })
        .collect();
    format!(
        "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"rows\": [\n    {}\n  ],\n  \
         \"notes\": {},\n  \"per_layer\": {},\n  \"trace_overhead_share\": {},\n  \"spans\": {}\n}}\n",
        json_str(workload),
        args.seed,
        args.seconds,
        rows.join(",\n    "),
        metrics_json(&ledger.notes),
        metrics_json(&ledger.per_layer),
        ledger.trace_overhead_share,
        trace::spans_json(&ledger.spans)
    )
}

fn run_one(args: &Args) -> ExitCode {
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        trace: args.trace,
    };
    let outcome = match args.workload.as_str() {
        "fi" => fi::run(&ctx),
        "train" => train::run(&ctx),
        "serve-warm" => serve::run(&ctx, false),
        "serve-mixed" => serve::run(&ctx, true),
        other => unreachable!("workload {other} was validated"),
    };
    let mut checks = outcome.checks;
    let end_to_end: Vec<Metric> = vec![
        ("setup_s".into(), median(&outcome.setup_s), "s"),
        ("peak_rss_mb".into(), peak_rss_mb(), "MiB"),
        ("work_per_s".into(), outcome.work_per_s, "1/s"),
        ("latency_ms".into(), outcome.latency_ms, "ms"),
    ];
    eprintln!("{} (seed {}):", args.workload, args.seed);
    let error_share = checks.failed as f64 / checks.attempted.max(1) as f64;
    let shown = [("error_share".to_string(), error_share, "share")];
    for (name, value, unit) in end_to_end.iter().chain(&outcome.report).chain(&shown) {
        eprintln!("  {name:<24} {value:>14.4} {unit}");
    }
    let metrics = match &outcome.ledger {
        Some(ledger) => {
            print_ledger(&args.workload, ledger);
            if let Some(path) = &args.ledger {
                if let Err(e) = std::fs::write(path, ledger_json(&args.workload, args, ledger)) {
                    eprintln!("cannot write ledger {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            for row in &ledger.rows {
                checks.expect(row.balances(), 0, || {
                    format!("ledger row {} does not balance", row.parent.0)
                });
            }
            let mut m = ledger.per_layer.clone();
            let root = ledger.rows.first().map_or(0.0, LedgerRow::residual_share);
            m.push(("ledger.residual_share".into(), root, "share"));
            m.push((
                "bench.trace_overhead_share".into(),
                ledger.trace_overhead_share,
                "share",
            ));
            m
        }
        None => end_to_end,
    };
    for (name, value, _) in &metrics {
        checks.expect(value.is_finite(), 0, || format!("metric {name} is {value}"));
    }
    let correct = checks.failed == 0 && checks.messages.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.attempted.max(1),
        checks.failed,
        metrics_json(&metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `--workload all`: one fresh process per workload, one after another,
/// so set-up time and peak memory are per workload and no heap state
/// carries over. A ledger path gets one file per workload,
/// `PATH.<workload>`.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        eprintln!("== {workload}");
        let mut cmd = std::process::Command::new(&exe);
        cmd.args([
            "--workload",
            workload,
            "--trace",
            if args.trace { "1" } else { "0" },
        ])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        if let Some(path) = &args.ledger {
            cmd.arg("--ledger").arg(format!("{path}.{workload}"));
        }
        match cmd.status() {
            Ok(status) => ok &= status.success(),
            Err(e) => {
                eprintln!("cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf_ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    }
}
