//! `serve-warm` and `serve-mixed`: open-loop Poisson traffic against an
//! in-process model server (`Server::bind` with `ServerConfig::default()`)
//! over two client connections, then a closed loop with a fixed number of
//! requests outstanding to measure capacity.
//!
//! `serve-warm` sends only suite predicts, so after warm-up every request
//! is a graph-cache hit and the forward pass and batcher dominate.
//! `serve-mixed` adds cache-missing client programs, budget queries (a
//! golden timing run each) and rare huge programs beside the same suite
//! predicts: one large request can hold up many small ones.

use std::collections::BTreeMap;
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use glaive::PipelineConfig;
use glaive_bench_suite::{suite, Benchmark};
use glaive_cdfg::{CdfgConfig, FEATURE_DIM};
use glaive_gnn::GraphSage;
use glaive_serve::protocol::{read_frame, write_frame, Frame};
use glaive_serve::{
    BudgetReply, PreparedProgram, ProgramSpec, Request, Response, Server, ServerConfig,
    ServerHandle, StatsReply, WireTuple,
};

use crate::gen::{poisson_schedule, Class, GenRequest, Generator, SERVE_STRIDE, TOP_K};
use crate::probe::{self, reply_from_probs, Cost, ProbeProgram};
use crate::stats::{first_decile, highest_percentile, mean, percentile, LedgerRow};
use crate::trace::Recorder;
use crate::{Checks, Ctx, Ledger, Metric, Outcome};

/// Open-loop arrival rates, requests per second: on a 2-CPU host about a
/// third of the warm server's closed-loop capacity and half of the mixed
/// one's, so queues form in bursts but do not grow.
const WARM_RATE: f64 = 25.0;
const MIXED_RATE: f64 = 20.0;
/// Requests kept outstanding by the closed loop.
const WINDOW: usize = 32;
/// Share of the measuring time spent in the open loop; the rest is the
/// closed loop.
const OPEN_SHARE: f64 = 0.55;
/// The closed loop's first half second, while the window fills, is not
/// counted in its throughput.
const CLOSED_WARMUP: f64 = 0.5;
/// Request streams of one run: each has its own class draws and
/// generated programs, and all name suite programs by the run's seed.
const WARMUP_STREAM: u64 = 0;
const OPEN_STREAM: u64 = 1;
const CLOSED_STREAM: u64 = 2;
/// A request unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

type Expected = (Vec<Option<WireTuple>>, Vec<u32>);

/// The server under test and the two client connections to it. Dropping
/// it drains and joins the server.
struct Served {
    handle: Option<ServerHandle>,
    conns: Vec<TcpStream>,
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            handle.cancel();
            if let Err(e) = handle.join() {
                eprintln!("server exited with {e}");
            }
        }
    }
}

/// Sends one frame on `conn` and reads its reply (used only while no
/// other request is outstanding on that connection).
fn round_trip(conn: &TcpStream, request: &Request) -> Option<Response> {
    let mut w = conn;
    write_frame(&mut w, &request.to_frame()).ok()?;
    let mut r = conn;
    Response::from_frame(&read_frame(&mut r).ok()?).ok()
}

fn stats(conn: &TcpStream) -> StatsReply {
    match round_trip(conn, &Request::Stats) {
        Some(Response::Stats(s)) => s,
        other => {
            eprintln!("stats request answered with {other:?}");
            StatsReply::default()
        }
    }
}

struct Setup {
    served: Served,
    model: GraphSage,
    suite: Vec<Benchmark>,
    /// Serial-inference replies for each suite program.
    refs: Vec<Expected>,
    generator: Generator,
    schedule: Vec<f64>,
    closed_secs: f64,
    mixed: bool,
    warm_failures: Vec<String>,
}

fn serial_reply(model: &GraphSage, program: &glaive_isa::Program) -> Expected {
    let prepared = PreparedProgram::build(
        program.clone(),
        &CdfgConfig {
            bit_stride: SERVE_STRIDE as usize,
        },
    );
    let probs = model.predict_proba(&prepared.features, prepared.cdfg.preds_csr());
    reply_from_probs(&prepared, &probs, TOP_K)
}

fn setup(ctx: &Ctx, mixed: bool) -> Setup {
    let suite = suite(ctx.seed);
    // Untrained weights: the forward-pass cost equals a trained model's of
    // the same shape, and a change to the default shape shows up here.
    let model = GraphSage::try_new(FEATURE_DIM, &PipelineConfig::default().sage)
        .expect("default model shape");
    let handle = Server::bind(model.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("bind an ephemeral loopback port")
        .spawn();
    let conns: Vec<TcpStream> = (0..2)
        .map(|_| {
            let s = TcpStream::connect(handle.addr()).expect("connect to the server");
            s.set_nodelay(true).expect("nodelay");
            s.set_read_timeout(Some(REPLY_TIMEOUT))
                .expect("read timeout");
            s
        })
        .collect();
    let served = Served {
        handle: Some(handle),
        conns,
    };
    let refs: Vec<Expected> = suite
        .iter()
        .map(|b| serial_reply(&model, b.program()))
        .collect();

    let names: Vec<&'static str> = suite.iter().map(|b| b.name).collect();
    // One warm-up request per suite program, all sent before any reply is
    // read: set-up time is then the work of filling the cache, not twelve
    // round trips' worth of thread wake-ups, which vary with the host.
    let mut warm_failures = Vec::new();
    let warm = Generator::new(ctx.seed, WARMUP_STREAM, names.clone(), false).take(refs.len());
    let mut conn = &served.conns[0];
    let sent = warm
        .iter()
        .take_while(|r| write_frame(&mut conn, &r.request.to_frame()).is_ok())
        .count();
    for (i, expected) in refs.iter().enumerate() {
        let reply = (i < sent)
            .then(|| read_frame(&mut conn).ok())
            .flatten()
            .and_then(|f| Response::from_frame(&f).ok());
        match reply {
            Some(Response::Predict(r)) if same_reply(&r.tuples, &r.top_k, expected) => {}
            other => warm_failures.push(format!("warm-up reply {other:?}")),
        }
    }

    let rate = if mixed { MIXED_RATE } else { WARM_RATE };
    let open_secs = ctx.seconds * OPEN_SHARE;
    Setup {
        schedule: poisson_schedule(ctx.seed, rate, open_secs),
        closed_secs: ctx.seconds - open_secs,
        mixed,
        generator: Generator::new(ctx.seed, OPEN_STREAM, names, mixed),
        served,
        model,
        suite,
        refs,
        warm_failures,
    }
}

fn same_reply(tuples: &[Option<WireTuple>], top_k: &[u32], expected: &Expected) -> bool {
    let bits = |t: &Option<WireTuple>| t.map(|v| v.map(f32::to_bits));
    tuples.len() == expected.0.len()
        && tuples
            .iter()
            .zip(&expected.0)
            .all(|(a, b)| bits(a) == bits(b))
        && top_k == expected.1.as_slice()
}

/// One request of a phase: when it was due, sent and answered.
struct Done {
    index: usize,
    due: Instant,
    sent: Instant,
    replied: Option<Instant>,
    response: Option<Response>,
}

impl Done {
    fn latency_ms(&self) -> Option<f64> {
        self.replied.map(|r| (r - self.due).as_secs_f64() * 1e3)
    }
}

enum Pace<'a> {
    /// Send request `i` at `start + schedule[i]` seconds, whatever the
    /// replies do.
    Open { start: Instant, schedule: &'a [f64] },
    /// Keep `window` requests outstanding until `until`.
    Closed { until: Instant, window: usize },
}

/// Sends `frames` on the two connections at the given pace from this
/// thread (the one load-generating thread), while one reader thread per
/// connection collects the in-order replies.
fn drive(
    conns: &[TcpStream],
    requests: &[GenRequest],
    frames: &[Frame],
    mixed: bool,
    pace: Pace<'_>,
) -> Vec<Done> {
    let outstanding = Arc::new((Mutex::new(0usize), Condvar::new()));
    let mut senders = Vec::new();
    let mut readers = Vec::new();
    for conn in conns {
        let (tx, rx) = mpsc::channel::<(usize, Instant, Instant)>();
        senders.push(tx);
        let mut stream = conn.try_clone().expect("clone the connection");
        let outstanding = outstanding.clone();
        readers.push(std::thread::spawn(move || {
            let mut done = Vec::new();
            let mut broken = false;
            for (index, due, sent) in rx {
                let (replied, response) = if broken {
                    (None, None)
                } else {
                    match read_frame(&mut stream) {
                        Ok(payload) => (Some(Instant::now()), Response::from_frame(&payload).ok()),
                        Err(e) => {
                            eprintln!("reply to request {index}: {e}");
                            broken = true;
                            (None, None)
                        }
                    }
                };
                done.push(Done {
                    index,
                    due,
                    sent,
                    replied,
                    response,
                });
                let (count, cv) = &*outstanding;
                *count.lock().expect("outstanding lock") -= 1;
                cv.notify_one();
            }
            done
        }));
    }

    let mut writers: Vec<&TcpStream> = conns.iter().collect();
    for (i, (request, frame)) in requests.iter().zip(frames).enumerate() {
        let due = match pace {
            Pace::Open { start, schedule } => {
                let Some(&offset) = schedule.get(i) else {
                    break;
                };
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                due
            }
            Pace::Closed { until, window } => {
                let (count, cv) = &*outstanding;
                let mut n = count.lock().expect("outstanding lock");
                while *n >= window {
                    n = cv.wait(n).expect("outstanding wait");
                }
                drop(n);
                let now = Instant::now();
                if now >= until {
                    break;
                }
                now
            }
        };
        // The warm stream alternates between the connections; the mixed
        // stream keeps suite predicts apart from what can block them.
        let conn = if mixed {
            request.class.connection()
        } else {
            i % conns.len()
        };
        *outstanding.0.lock().expect("outstanding lock") += 1;
        let sent = Instant::now();
        senders[conn]
            .send((i, due, sent))
            .expect("reader alive while its sender lives");
        if let Err(e) = write_frame(&mut writers[conn], frame) {
            eprintln!("request {i}: {e}");
            break;
        }
    }
    drop(senders);
    let mut done: Vec<Done> = readers
        .into_iter()
        .flat_map(|r| r.join().expect("reader thread"))
        .collect();
    done.sort_by_key(|d| d.index);
    done
}

/// Checks every reply of a phase against serial inference (predicts) or
/// against the other replies to the same query (budgets).
fn check_replies(
    done: &[Done],
    requests: &[GenRequest],
    setup: &Setup,
    budgets: &mut BTreeMap<usize, BudgetReply>,
    checks: &mut Checks,
) {
    let mut raw = raw_references(&setup.model, done, requests);
    for d in done {
        let req = &requests[d.index];
        checks.attempted += 1;
        let name = req.class.name();
        match (&d.response, &req.request) {
            (Some(Response::Predict(r)), Request::Predict { spec, .. }) => {
                let expected = match spec {
                    ProgramSpec::Raw(_) => raw.remove(&d.index).expect("computed above"),
                    ProgramSpec::Suite { .. } => setup.refs[req.suite_index].clone(),
                };
                checks.expect(same_reply(&r.tuples, &r.top_k, &expected), 1, || {
                    format!("{name} request {} differs from serial inference", d.index)
                });
            }
            (Some(Response::Budget(b)), Request::Budget { .. }) => {
                let within = b.spent_cycles <= b.budget_cycles;
                let first = budgets.entry(req.suite_index).or_insert_with(|| b.clone());
                let same = BudgetReply {
                    batch_size: first.batch_size,
                    ..b.clone()
                } == *first;
                checks.expect(within && same, 1, || {
                    format!("budget request {} over budget or not repeatable", d.index)
                });
            }
            (other, _) => checks.expect(false, 1, || {
                format!("{name} request {} answered with {other:?}", d.index)
            }),
        }
    }
}

/// Serial-inference replies for a phase's client-shipped programs, by
/// request index, computed on two threads after the phase has ended.
fn raw_references(
    model: &GraphSage,
    done: &[Done],
    requests: &[GenRequest],
) -> BTreeMap<usize, Expected> {
    const THREADS: usize = 2;
    let raw: Vec<(usize, &glaive_isa::Program)> = done
        .iter()
        .filter_map(|d| match &requests[d.index].request {
            Request::Predict {
                spec: ProgramSpec::Raw(program),
                ..
            } => Some((d.index, program)),
            _ => None,
        })
        .collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let mine: Vec<_> = raw.iter().skip(t).step_by(THREADS).copied().collect();
                scope.spawn(move || {
                    mine.into_iter()
                        .map(|(i, program)| (i, serial_reply(model, program)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("reference thread"))
            .collect()
    })
}

fn encode(requests: &[GenRequest]) -> Vec<Frame> {
    requests.iter().map(|r| r.request.to_frame()).collect()
}

/// The latency of a suite predict: each suite program's first-decile
/// open-loop latency (see [`first_decile`]), averaged over the programs.
/// Program costs differ by an order of magnitude, so a pooled statistic
/// would sit in a gap between programs and jump between runs;
/// per-program ones do not. The tails are reported beside it.
fn program_latency_ms(done: &[Done], requests: &[GenRequest]) -> Option<f64> {
    let mut by_program: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for d in done {
        let req = &requests[d.index];
        if let (Class::Small, Some(l)) = (req.class, d.latency_ms()) {
            by_program.entry(req.suite_index).or_default().push(l);
        }
    }
    (!by_program.is_empty()).then(|| {
        mean(
            &by_program
                .values()
                .map(|v| first_decile(v))
                .collect::<Vec<_>>(),
        )
    })
}

/// An open-loop phase on fresh requests from the stream.
fn open_phase(setup: &mut Setup) -> (Vec<GenRequest>, Vec<Done>) {
    let requests = setup.generator.take(setup.schedule.len());
    let frames = encode(&requests);
    // A short lead keeps the first arrival from being late by set-up work.
    let start = Instant::now() + Duration::from_millis(20);
    let done = drive(
        &setup.served.conns,
        &requests,
        &frames,
        setup.mixed,
        Pace::Open {
            start,
            schedule: &setup.schedule,
        },
    );
    (requests, done)
}

pub fn run(ctx: &Ctx, mixed: bool) -> Outcome {
    let (mut setup, setup_s) = ctx.setup(|| setup(ctx, mixed));
    let mut checks = Checks::default();
    for f in std::mem::take(&mut setup.warm_failures) {
        checks.expect(false, 1, || f);
    }

    let (open_reqs, open_done) = open_phase(&mut setup);

    // A stream of its own, so the closed loop always starts at the same
    // suite program whatever the open loop's length; enough requests that
    // it runs dry only above 400 replies per second, four times the warm
    // server's capacity on a 2-CPU host.
    let names = setup.suite.iter().map(|b| b.name).collect();
    let closed_reqs = Generator::new(ctx.seed, CLOSED_STREAM, names, setup.mixed)
        .take((400.0 * setup.closed_secs) as usize + WINDOW);
    let closed_frames = encode(&closed_reqs);
    let closed_start = Instant::now();
    let counted_from =
        closed_start + Duration::from_secs_f64(CLOSED_WARMUP.min(setup.closed_secs / 2.0));
    let closed_end = closed_start + Duration::from_secs_f64(setup.closed_secs);
    let closed_done = drive(
        &setup.served.conns,
        &closed_reqs,
        &closed_frames,
        setup.mixed,
        Pace::Closed {
            until: closed_end,
            window: WINDOW,
        },
    );
    let counted: Vec<Instant> = closed_done
        .iter()
        .filter_map(|d| d.replied)
        .filter(|&t| t >= counted_from && t < closed_end)
        .collect();
    let capacity = counted.iter().max().map_or(0.0, |&last| {
        counted.len() as f64 / (last - counted_from).as_secs_f64()
    });
    // A smoke run's closed loop is too short to promise a reply.
    checks.expect(ctx.smoke || !counted.is_empty(), 1, || {
        "the closed loop completed nothing".into()
    });

    let check_start = Instant::now();
    let mut budgets = BTreeMap::new();
    check_replies(&open_done, &open_reqs, &setup, &mut budgets, &mut checks);
    check_replies(
        &closed_done,
        &closed_reqs,
        &setup,
        &mut budgets,
        &mut checks,
    );
    eprintln!(
        "open loop {} requests, closed loop {} requests, checks took {:.2} s",
        open_done.len(),
        closed_done.len(),
        check_start.elapsed().as_secs_f64()
    );

    let latency = program_latency_ms(&open_done, &open_reqs);
    checks.expect(latency.is_some(), 1, || {
        "no suite predict was answered".into()
    });
    let mut report = vec![
        ("capacity_rps".to_string(), capacity, "1/s"),
        ("closed_replies".to_string(), counted.len() as f64, "count"),
    ];
    report.extend(latency_report(&open_done, &open_reqs, setup.mixed));

    let ledger = ctx.trace.then(|| {
        trace(
            ctx,
            &mut setup,
            &open_done,
            &open_reqs,
            capacity,
            &mut checks,
        )
    });
    Outcome {
        setup_s,
        checks,
        work_per_s: capacity,
        latency_ms: latency.unwrap_or(0.0),
        report,
        ledger,
    }
}

/// How late the generator sent against its schedule, at worst.
fn late_max_ms(done: &[Done]) -> f64 {
    done.iter()
        .map(|d| (d.sent - d.due).as_secs_f64() * 1e3)
        .fold(0.0, f64::max)
}

/// The open-loop latency tails: the median and the highest percentile the
/// samples support (p99 needs 1000), over every request and, on the mixed
/// stream, over suite predicts (`.small`) and the other classes
/// (`.other`) apart; plus how late the generator ran.
fn latency_report(done: &[Done], requests: &[GenRequest], mixed: bool) -> Vec<Metric> {
    let answered = |keep: &dyn Fn(Class) -> bool| -> Vec<f64> {
        let mut v: Vec<f64> = done
            .iter()
            .filter(|d| keep(requests[d.index].class))
            .filter_map(Done::latency_ms)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    };
    let mut groups = vec![("", answered(&|_| true))];
    if mixed {
        groups.push((".small", answered(&|c| c == Class::Small)));
        groups.push((".other", answered(&|c| c != Class::Small)));
    }
    let mut out = vec![("bench.late_max_ms".to_string(), late_max_ms(done), "ms")];
    for (suffix, sorted) in groups {
        out.push((format!("samples{suffix}"), sorted.len() as f64, "count"));
        if let Some(p50) = percentile(&sorted, 50) {
            out.push((format!("p50_ms{suffix}"), p50, "ms"));
        }
        if let Some((p, v)) = highest_percentile(&sorted, &[99, 95, 90]) {
            out.push((format!("p{p}_ms{suffix}"), v, "ms"));
        }
    }
    out
}

/// Service time of one request on a single core, from the layer probes.
fn service_ms(
    req: &GenRequest,
    suite_costs: &[Cost],
    raw_cost: &BTreeMap<Class, Vec<Cost>>,
) -> f64 {
    let base = |c: &Cost| c.codec_us / 1e3 + c.serve_forward_ms + c.reply_us / 1e3;
    match req.class {
        Class::Small => {
            let c = &suite_costs[req.suite_index];
            base(c) + c.resolve_ms + c.lookup_us / 1e3
        }
        Class::Budget => {
            let c = &suite_costs[req.suite_index];
            base(c) + c.resolve_ms + c.lookup_us / 1e3 + c.profile_ms
        }
        class => mean(
            &raw_cost
                .get(&class)
                .map(|cs| cs.iter().map(|c| base(c) + c.prep_ms).collect::<Vec<_>>())
                .unwrap_or_default(),
        ),
    }
}

fn trace(
    ctx: &Ctx,
    setup: &mut Setup,
    untraced_done: &[Done],
    untraced_reqs: &[GenRequest],
    capacity: f64,
    checks: &mut Checks,
) -> Ledger {
    let origin = Instant::now();
    let recorder = Recorder::new(origin);
    let before = stats(&setup.served.conns[0]);
    let (reqs, done) = open_phase(setup);
    let after = stats(&setup.served.conns[0]);
    let mut budgets = BTreeMap::new();
    check_replies(&done, &reqs, setup, &mut budgets, checks);
    for d in &done {
        let end = d.replied.unwrap_or(d.sent);
        let span = recorder.record(
            reqs[d.index].class.name(),
            d.due,
            end,
            None,
            Some(d.index as u64),
        );
        recorder.record("send_late", d.due, d.sent, Some(span), Some(d.index as u64));
    }

    let traced_mean = mean(&done.iter().filter_map(Done::latency_ms).collect::<Vec<_>>());
    let overhead = match (
        program_latency_ms(&done, &reqs),
        program_latency_ms(untraced_done, untraced_reqs),
    ) {
        (Some(traced), Some(untraced)) => traced / untraced - 1.0,
        _ => 0.0,
    };

    // Probe the suite programs and, for the mixed stream, a sample of the
    // generated programs the untraced phase sent.
    let campaign = PipelineConfig::default().campaign();
    let suite_programs: Vec<ProbeProgram> = setup
        .suite
        .iter()
        .map(|b| ProbeProgram {
            program: b.program().clone(),
            init_mem: b.init_mem.clone(),
            suite_name: Some(b.name),
        })
        .collect();
    let suite_costs: Vec<Cost> = suite_programs
        .iter()
        .map(|p| probe::measure(p, ctx.seed, campaign, &setup.model))
        .collect();
    let mut raw_cost: BTreeMap<Class, Vec<Cost>> = BTreeMap::new();
    for (class, keep) in [(Class::Cold, 6), (Class::Huge, 2)] {
        let sample = untraced_reqs
            .iter()
            .filter(|r| r.class == class)
            .take(keep)
            .filter_map(|r| match &r.request {
                Request::Predict {
                    spec: ProgramSpec::Raw(program),
                    ..
                } => Some(ProbeProgram {
                    program: program.clone(),
                    init_mem: Vec::new(),
                    suite_name: None,
                }),
                _ => None,
            });
        let costs: Vec<Cost> = sample
            .map(|p| probe::measure(&p, ctx.seed, campaign, &setup.model))
            .collect();
        if !costs.is_empty() {
            raw_cost.insert(class, costs);
        }
    }
    let largest = (0..suite_costs.len())
        .max_by_key(|&i| suite_costs[i].specs)
        .unwrap_or(0);
    let (fabric_rate, fabric_same) = probe::fabric(&suite_programs[largest], campaign);
    checks.expect(fabric_same, 1, || {
        "distributed ground truth differs from local".into()
    });

    let mut rows = Vec::new();
    let answered: Vec<&Done> = done.iter().filter(|d| d.replied.is_some()).collect();
    let service: Vec<f64> = answered
        .iter()
        .map(|d| service_ms(&reqs[d.index], &suite_costs, &raw_cost))
        .collect();
    rows.push(
        LedgerRow::new("serve.mean_latency_ms", traced_mean, "ms", "serve.wait_ms")
            .child("serve.service_ms", mean(&service)),
    );
    for class in Class::ALL.into_iter().filter(|_| setup.mixed) {
        let idx: Vec<usize> = (0..answered.len())
            .filter(|&i| reqs[answered[i].index].class == class)
            .collect();
        if idx.is_empty() {
            continue;
        }
        let lat: Vec<f64> = idx
            .iter()
            .filter_map(|&i| answered[i].latency_ms())
            .collect();
        let svc: Vec<f64> = idx.iter().map(|&i| service[i]).collect();
        rows.push(
            LedgerRow::new(
                &format!("{}.mean_latency_ms", class.name()),
                mean(&lat),
                "ms",
                &format!("{}.wait_ms", class.name()),
            )
            .child(&format!("{}.service_ms", class.name()), mean(&svc)),
        );
    }

    let late_max = late_max_ms(&done);
    let batches = after.batches - before.batches;
    let lookups =
        (after.cache_hits - before.cache_hits) + (after.cache_misses - before.cache_misses);
    let mut notes = vec![
        ("capacity_rps".into(), capacity, "1/s"),
        ("serve.batches".into(), batches as f64, "count"),
        (
            "serve.mean_batch".into(),
            (after.predictions - before.predictions) as f64 / batches.max(1) as f64,
            "count",
        ),
        ("serve.peak_batch".into(), after.peak_batch as f64, "count"),
        (
            "serve.cache_hit_share".into(),
            (after.cache_hits - before.cache_hits) as f64 / lookups.max(1) as f64,
            "share",
        ),
        (
            "serve.queue_depth_max".into(),
            after.queue_depth_max as f64,
            "count",
        ),
        (
            "serve.busy_rejections".into(),
            (after.busy_rejections - before.busy_rejections) as f64,
            "count",
        ),
        (
            "serve.wait_share".into(),
            1.0 - mean(&service) / traced_mean,
            "share",
        ),
        (
            "bench.valid".into(),
            if late_max <= 10.0 { 1.0 } else { 0.0 },
            "bool",
        ),
    ];
    notes.extend(latency_report(&done, &reqs, setup.mixed));
    if late_max > 10.0 {
        eprintln!("generator ran {late_max:.1} ms late: this traced run's latencies are not valid");
    }
    let mut per_layer_costs = suite_costs;
    per_layer_costs.extend(raw_cost.into_values().flatten());
    Ledger {
        rows,
        notes,
        spans: recorder.take_spans(),
        per_layer: probe::per_layer(&per_layer_costs, fabric_rate),
        trace_overhead_share: overhead,
    }
}
