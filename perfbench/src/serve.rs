//! The `serve` workload: `nml_serve::serve` in-process on a Unix socket,
//! driven by an open-loop generator (one sender thread, the main thread
//! receiving, one connection) on a fixed seeded schedule.
//!
//! Requests are never restarted, re-seeded or resized: the long-lived
//! workers run into the VM's lifetime step limit part-way through the run
//! (see `NOTES.md`), and those failures are counted.

use crate::programs::SERVE_SRC;
use crate::{json_num, json_str, median, quantile, work_dir, Opts, Outcome, Tracer};
use nml_corpusgen::Rng;
use nml_opt::QuarantineSet;
use nml_runtime::{InterpConfig, RuntimeError, RuntimeStats, Value, Vm};
use nml_serve::json::{self, Json};
use nml_serve::{compile_program, serve, ServeConfig, ServerReport};
use nml_syntax::Symbol;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SEED_SALT: u64 = 0x7365_7276_655f_6f6c;

/// Offered rate of the open loop, requests per second. The interval
/// (16.7 ms) is about three times the largest request's time in the VM,
/// so requests do not queue behind each other even when the host runs
/// the VM at half speed, and the worker passes the step limit about 18 s
/// into the run.
const RATE_RPS: f64 = 60.0;

/// Server workers. One worker leaves the second of the reference host's
/// two CPUs to the generator, the receiver and the server's reader
/// thread, so the client side does not wait for a CPU and the latency is
/// the server's (see `NOTES.md`, *Noise*).
const WORKERS: usize = 1;

/// A correct reply slower than this (from its due time) does not count
/// towards the goodput recorded in the provenance.
const LATENCY_LIMIT_MS: f64 = 50.0;

/// One `healthz` probe per this many evals samples the admission queue.
const HEALTHZ_EVERY: usize = 20;

/// Ids at and above this are `healthz` probes.
const HEALTHZ_ID_BASE: i64 = 1 << 40;

/// `InterpConfig::default().step_limit`: the lifetime step budget of
/// one VM, which every long-lived serve worker eventually exhausts.
pub const STEP_LIMIT: u64 = 200_000_000;

/// The defect is present at this commit; a fix flips this, and the check
/// then requires that no request fails.
const STEP_LIMIT_DEFECT_PRESENT: bool = true;

/// Server set-ups per run; the median is `setup_s`. One takes about
/// 14 ms, so many are cheap, and their median is steadier.
const SETUPS: usize = 31;

/// One scheduled eval request.
#[derive(Debug, Clone)]
pub struct Request {
    /// The called function.
    pub call: &'static str,
    /// Integer argument (`work n`, or the factor of `scale k l`).
    pub n: i64,
    /// List argument (`rev l`, `scale k l`).
    pub list: Vec<i64>,
    /// The closed-form expected result, as the server renders it.
    pub expected: String,
}

impl Request {
    fn line(&self, id: usize) -> String {
        let list = || {
            let items: Vec<String> = self.list.iter().map(i64::to_string).collect();
            format!("[{}]", items.join(","))
        };
        let args = match self.call {
            "work" => format!("[{}]", self.n),
            "rev" => format!("[{}]", list()),
            _ => format!("[{},{}]", self.n, list()),
        };
        format!(
            "{{\"op\":\"eval\",\"id\":{id},\"call\":\"{}\",\"args\":{args}}}",
            self.call
        )
    }
}

fn render_list(xs: impl Iterator<Item = i64>) -> String {
    let items: Vec<String> = xs.map(|x| x.to_string()).collect();
    format!("[{}]", items.join(", "))
}

/// Sizes of the `work n` calls in one block of the mix.
pub const WORK_SIZES: [i64; 9] = [208, 216, 224, 232, 240, 248, 256, 264, 272];

/// Length of the list arguments of `rev` and `scale`.
pub const LIST_LEN: usize = 200;

/// The request sequence: blocks of 11 with a fixed composition, in a
/// seeded order, so the mean steps per request is the same for every
/// seed. Per block: one `work n` for each of [`WORK_SIZES`] (4.5–6 ms in
/// the VM), one `rev` and one `scale` of a [`LIST_LEN`]-element list;
/// list values and factors are seeded. The requests are of similar
/// size, so the median falls inside one size's replies rather than on
/// the edge between two kinds.
pub fn schedule(seed: u64, count: usize) -> Vec<Request> {
    let mut rng = Rng::new(seed ^ SEED_SALT);
    let mut out = Vec::with_capacity(count);
    while out.len() < count {
        let mut block: Vec<Request> = WORK_SIZES.iter().map(|&n| work(n)).collect();
        let list: Vec<i64> = (0..LIST_LEN)
            .map(|_| rng.below(2001) as i64 - 1000)
            .collect();
        block.push(Request {
            call: "rev",
            n: 0,
            expected: render_list(list.iter().rev().copied()),
            list,
        });
        let k = 2 + rng.below(8) as i64;
        let list: Vec<i64> = (0..LIST_LEN)
            .map(|_| rng.below(2001) as i64 - 1000)
            .collect();
        block.push(Request {
            call: "scale",
            n: k,
            expected: render_list(list.iter().map(|x| k * x)),
            list,
        });
        for i in (1..block.len()).rev() {
            block.swap(i, rng.below(i + 1));
        }
        out.extend(block);
    }
    out.truncate(count);
    out
}

fn work(n: i64) -> Request {
    Request {
        call: "work",
        n,
        list: Vec::new(),
        expected: (n * (n + 1) / 2).to_string(),
    }
}

/// A running server and the client connection to it.
struct Server {
    handle: JoinHandle<Result<ServerReport, nml_serve::ServeError>>,
    stream: UnixStream,
}

fn start(socket: &Path, cfg: &ServeConfig) -> Result<Server, String> {
    let handle = {
        let socket = socket.to_path_buf();
        let cfg = cfg.clone();
        std::thread::spawn(move || serve(SERVE_SRC, &socket, &cfg))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let stream = loop {
        match UnixStream::connect(socket) {
            Ok(s) => break s,
            Err(e) if Instant::now() >= deadline || handle.is_finished() => {
                return Err(format!("connect: {e}"))
            }
            Err(_) => std::thread::sleep(Duration::from_millis(1)),
        }
    };
    let mut server = Server { handle, stream };
    // One round trip: the acceptor has handed the connection to a reader.
    let reply = round_trip(&mut server.stream, "{\"op\":\"ping\",\"id\":0}")?;
    if !reply.contains("pong") {
        return Err(format!("ping: {reply}"));
    }
    Ok(server)
}

fn round_trip(stream: &mut UnixStream, line: &str) -> Result<String, String> {
    stream
        .write_all(format!("{line}\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut reply = String::new();
    reader.read_line(&mut reply).map_err(|e| e.to_string())?;
    Ok(reply)
}

fn stop(mut server: Server) -> Result<ServerReport, String> {
    let _ = round_trip(
        &mut server.stream,
        "{\"op\":\"shutdown\",\"id\":-1,\"mode\":\"drain\"}",
    );
    drop(server.stream);
    server
        .handle
        .join()
        .map_err(|_| "server thread panicked".to_owned())?
        .map_err(|e| e.to_string())
}

/// What came back for one eval.
#[derive(Debug, Clone, Default)]
struct Reply {
    /// `None` until a reply arrived.
    status: Option<String>,
    kind: String,
    message: String,
    result: String,
    steps: u64,
    latency_ms: f64,
}

/// What the open loop observed.
struct Observed {
    /// Replies by request id.
    replies: Vec<Reply>,
    /// How late the generator sent each request, in milliseconds.
    lag: Vec<f64>,
    /// `queued` readings of the `healthz` probes.
    queued: Vec<f64>,
}

/// The open loop: sends every request at its due time from a second
/// thread while this thread reads replies.
fn open_loop(
    stream: &UnixStream,
    reqs: &[Request],
    interval: Duration,
) -> Result<Observed, String> {
    let lines: Vec<String> = reqs.iter().enumerate().map(|(i, r)| r.line(i)).collect();
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let reader_stream = stream.try_clone().map_err(|e| e.to_string())?;
    reader_stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let probes = reqs.len().div_ceil(HEALTHZ_EVERY);
    let start = Instant::now() + Duration::from_millis(20);
    let mut replies = vec![Reply::default(); reqs.len()];
    let mut queued = Vec::with_capacity(probes);
    let lag = std::thread::scope(|s| {
        let sender = s.spawn(move || {
            let mut lag = Vec::with_capacity(lines.len());
            for (i, line) in lines.iter().enumerate() {
                let due = start + interval * i as u32;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                lag.push(due.elapsed().as_secs_f64() * 1e3);
                let mut frame = String::with_capacity(line.len() + 48);
                frame.push_str(line);
                frame.push('\n');
                if i % HEALTHZ_EVERY == 0 {
                    let id = HEALTHZ_ID_BASE + (i / HEALTHZ_EVERY) as i64;
                    let _ = writeln!(frame, "{{\"op\":\"healthz\",\"id\":{id}}}");
                }
                if writer.write_all(frame.as_bytes()).is_err() {
                    break;
                }
            }
            lag
        });
        let mut reader = BufReader::new(reader_stream);
        let mut pending = reqs.len() + probes;
        let mut line = String::new();
        while pending > 0 {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            let now = Instant::now();
            let Ok(v) = json::parse(line.trim_end()) else {
                continue;
            };
            let Some(id) = v.get("id").and_then(Json::as_int) else {
                continue;
            };
            pending -= 1;
            if id >= HEALTHZ_ID_BASE {
                let msg = v.get("result").and_then(Json::as_str).unwrap_or("");
                if let Some(q) = msg
                    .split_whitespace()
                    .find_map(|w| w.strip_prefix("queued="))
                    .and_then(|q| q.parse::<f64>().ok())
                {
                    queued.push(q);
                }
                continue;
            }
            let Some(r) = usize::try_from(id).ok().and_then(|i| replies.get_mut(i)) else {
                continue;
            };
            let due = start + interval * id as u32;
            let text = |k: &str| v.get(k).and_then(Json::as_str).unwrap_or("").to_owned();
            *r = Reply {
                status: Some(text("status")),
                kind: text("kind"),
                message: text("message"),
                result: text("result"),
                steps: v.get("steps").and_then(Json::as_int).unwrap_or(0) as u64,
                latency_ms: now.saturating_duration_since(due).as_secs_f64() * 1e3,
            };
        }
        sender
            .join()
            .map_err(|_| "sender thread panicked".to_owned())
    })?;
    Ok(Observed {
        replies,
        lag,
        queued,
    })
}

/// The direct baseline: the same request sequence on one long-lived
/// in-process `Vm` through `Vm::call`.
struct Direct {
    /// Per-call wall time of correct calls (call plus result read-back).
    ms: Vec<f64>,
    /// The same times by request index.
    ms_at: Vec<Option<f64>>,
    /// Steps of each call that returned (by request index).
    steps: Vec<Option<u64>>,
    /// Index of the first failed call and the VM's lifetime steps before it.
    first_failure: Option<(usize, u64, String)>,
    /// Every call failed after the first failure, with the same error.
    failures: usize,
    /// The VM's counters before its first failed call (or at the end).
    stats: RuntimeStats,
    mismatches: Vec<String>,
}

fn direct_replay(tr: &mut Tracer, reqs: &[Request]) -> Result<Direct, String> {
    let cfg = ServeConfig::default();
    let ir = compile_program(SERVE_SRC, &cfg, &QuarantineSet::default(), true)?;
    let mut vm = Vm::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    let mut d = Direct {
        ms: Vec::new(),
        ms_at: vec![None; reqs.len()],
        steps: vec![None; reqs.len()],
        first_failure: None,
        failures: 0,
        stats: RuntimeStats::default(),
        mismatches: Vec::new(),
    };
    let syms: HashMap<&str, Symbol> = ["work", "rev", "scale"]
        .iter()
        .map(|n| (*n, Symbol::intern(n)))
        .collect();
    for (i, r) in reqs.iter().enumerate() {
        tr.begin_op();
        let stats_before = vm.heap.stats;
        let before = stats_before.steps;
        let t0 = Instant::now();
        let got = tr.layer("runtime.vm_ms", || -> Result<String, RuntimeError> {
            let args = match r.call {
                "work" => vec![Value::Int(r.n)],
                "rev" => vec![vm.make_int_list(&r.list)],
                _ => vec![Value::Int(r.n), vm.make_int_list(&r.list)],
            };
            let v = vm.call(syms[r.call], args)?;
            Ok(match v {
                Value::Int(n) => n.to_string(),
                other => render_list(vm.read_int_list(other)?.into_iter()),
            })
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        match got {
            Ok(s) if s == r.expected => {
                d.ms.push(ms);
                d.ms_at[i] = Some(ms);
                d.steps[i] = Some(vm.heap.stats.steps - before);
            }
            Ok(s) => d.mismatches.push(format!(
                "direct {i}: {} gave {s}, expected {}",
                r.call, r.expected
            )),
            Err(e) => {
                if d.first_failure.is_none() {
                    d.first_failure = Some((i, before, e.to_string()));
                    d.stats = stats_before;
                }
                d.failures += 1;
            }
        }
    }
    if d.first_failure.is_none() {
        d.stats = vm.heap.stats;
    }
    Ok(d)
}

/// Runs the workload.
pub fn workload(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    let dir = match work_dir("serve") {
        Ok(d) => d,
        Err(e) => {
            out.mismatch(format!("work dir: {e}"));
            return out;
        }
    };
    let r = run_serve(opts, &dir, &mut out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = r {
        out.mismatch(e);
    }
    out
}

fn run_serve(opts: &Opts, dir: &Path, out: &mut Outcome) -> Result<(), String> {
    let workers = WORKERS;
    let cfg = ServeConfig {
        workers,
        ..ServeConfig::default()
    };
    let count = ((opts.seconds * RATE_RPS) as usize).max(WORK_SIZES.len() + 2);
    let interval = Duration::from_secs_f64(1.0 / RATE_RPS);
    let socket: PathBuf = dir.join("serve.sock");

    // Set-up: schedule, server start (compile, bind, accept) and the
    // first round trip; repeated, the last server is the one measured.
    let mut setup_secs = Vec::with_capacity(SETUPS);
    let mut live = None;
    let mut reqs = Vec::new();
    for i in 0..SETUPS {
        let t0 = Instant::now();
        reqs = schedule(opts.seed, count);
        let server = start(&socket, &cfg)?;
        setup_secs.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            stop(server)?;
        } else {
            live = Some(server);
        }
    }
    let server = live.expect("SETUPS > 0");

    let mut tr = Tracer::new(opts.trace);
    let started = Instant::now();
    let Observed {
        replies,
        lag,
        queued,
    } = open_loop(&server.stream, &reqs, interval)?;
    let wall = started.elapsed().as_secs_f64();
    let report = stop(server)?;

    // Accounting and output checks, all after the timed loop.
    let mut ok_ms = Vec::with_capacity(replies.len());
    let (mut ok, mut within, mut steps_sum, mut max_steps) = (0u64, 0u64, 0u64, 0u64);
    let mut failed_by_kind: HashMap<String, u64> = HashMap::new();
    let mut step_limit_failures = 0u64;
    for (i, (r, req)) in replies.iter().zip(&reqs).enumerate() {
        out.attempted += 1;
        match r.status.as_deref() {
            Some("ok") if r.result == req.expected => {
                ok += 1;
                ok_ms.push(r.latency_ms);
                if r.latency_ms <= LATENCY_LIMIT_MS {
                    within += 1;
                }
                steps_sum += r.steps;
                max_steps = max_steps.max(r.steps);
            }
            Some("ok") => out.mismatch(format!(
                "request {i}: {} replied {}, expected {}",
                req.call, r.result, req.expected
            )),
            Some(_) => {
                out.failed += 1;
                *failed_by_kind.entry(r.kind.clone()).or_default() += 1;
                if r.kind == "runtime_error" {
                    if r.message
                        .contains(&format!("step limit of {STEP_LIMIT} exceeded"))
                    {
                        step_limit_failures += 1;
                    } else {
                        out.mismatch(format!(
                            "request {i}: unexpected runtime error {}",
                            r.message
                        ));
                    }
                }
            }
            None => {
                out.failed += 1;
                *failed_by_kind.entry("no_reply".to_owned()).or_default() += 1;
            }
        }
    }
    let runtime_errors = failed_by_kind.get("runtime_error").copied().unwrap_or(0);
    check_step_limit(
        out,
        workers as u64,
        steps_sum,
        max_steps,
        step_limit_failures,
    );
    if report.served_ok != ok || report.epoch_leaks != 0 {
        out.mismatch(format!(
            "server report: served_ok {} vs {ok} correct replies, epoch_leaks {}",
            report.served_ok, report.epoch_leaks
        ));
    }

    let eval_p50 = median(&ok_ms);
    if opts.trace {
        let direct = direct_replay(&mut tr, &reqs)?;
        check_direct(out, &direct, &reqs, &replies);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let direct_mean = mean(&direct.ms);
        out.layer_value("runtime.vm_ms", direct_mean);
        out.layer_value("serve.overhead_ms", mean(&ok_ms) - direct_mean);
        out.layer_value("serve.queued.p99", quantile(&queued, 0.99));
        out.layer_value("serve.gen_lag_ms.p99", quantile(&lag, 0.99));
        tr.add_runtime(&direct.stats);
        tr.count("serve.replies_ok", ok);
        tr.count("serve.failed.runtime_error", runtime_errors);
        tr.count(
            "serve.failed.overloaded",
            failed_by_kind.get("overloaded").copied().unwrap_or(0),
        );
        let direct_p50 = median(&direct.ms);
        out.prov("direct_ms_p50", json_num(direct_p50));
        out.prov("direct_ms_p99", json_num(quantile(&direct.ms, 0.99)));
        out.prov("overhead_ms_p50", json_num(eval_p50 - direct_p50));
        // `work 256` alone, the request the committed serve bench timed:
        // the per-call median and mean of the direct baseline, and the
        // served median.
        let big: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].call == "work" && reqs[i].n == 256)
            .collect();
        let direct_big: Vec<f64> = big.iter().filter_map(|&i| direct.ms_at[i]).collect();
        let served_big: Vec<f64> = big
            .iter()
            .filter(|&&i| replies[i].status.as_deref() == Some("ok"))
            .map(|&i| replies[i].latency_ms)
            .collect();
        out.prov("work256_direct_ms_p50", json_num(median(&direct_big)));
        out.prov("work256_direct_ms_mean", json_num(mean(&direct_big)));
        out.prov("work256_served_ms_p50", json_num(median(&served_big)));
        if let Some((i, before, _)) = &direct.first_failure {
            out.prov("direct_first_failure_request", i.to_string());
            out.prov("direct_steps_before_failure", before.to_string());
        }
    } else {
        let setup_s = median(&setup_secs);
        out.end_to_end(setup_s, setup_secs.len(), ok_ms.len(), |q| {
            quantile(&ok_ms, q)
        });
    }
    out.prov("goodput_rps", json_num(within as f64 / wall));
    out.prov("steps_sum", steps_sum.to_string());

    let mean_steps = mean_steps_per_request(&reqs, &replies);
    out.prov("workers", workers.to_string());
    out.prov("rate_rps", RATE_RPS.to_string());
    out.prov("requests", count.to_string());
    out.prov("latency_limit_ms", LATENCY_LIMIT_MS.to_string());
    out.prov("mean_steps_per_request", format!("{mean_steps:.1}"));
    out.prov(
        "predicted_failure_onset_per_worker",
        format!("{:.1}", STEP_LIMIT as f64 / mean_steps.max(1.0)),
    );
    out.prov("replies_ok", ok.to_string());
    let mut kinds: Vec<_> = failed_by_kind.iter().collect();
    kinds.sort();
    let mut kinds_json = String::from("{");
    for (i, (k, n)) in kinds.iter().enumerate() {
        if i > 0 {
            kinds_json.push_str(", ");
        }
        let _ = write!(kinds_json, "{}: {n}", json_str(k));
    }
    kinds_json.push('}');
    out.prov("failed_by_kind", kinds_json);
    crate::finish(out, opts, "serve", &tr, wall);
    Ok(())
}

/// Mean steps per request of the mix, from the replies that succeeded
/// (the `steps` of one request kind and size never vary).
fn mean_steps_per_request(reqs: &[Request], replies: &[Reply]) -> f64 {
    let mut per_kind: HashMap<(&str, i64, usize), u64> = HashMap::new();
    for (req, r) in reqs.iter().zip(replies) {
        if r.status.as_deref() == Some("ok") {
            per_kind.insert(
                (
                    req.call,
                    if req.call == "work" { req.n } else { 0 },
                    req.list.len(),
                ),
                r.steps,
            );
        }
    }
    let known: Vec<u64> = reqs
        .iter()
        .filter_map(|req| {
            per_kind
                .get(&(
                    req.call,
                    if req.call == "work" { req.n } else { 0 },
                    req.list.len(),
                ))
                .copied()
        })
        .collect();
    known.iter().sum::<u64>() as f64 / known.len().max(1) as f64
}

/// The step-limit defect, checked from outside: every worker's correct
/// replies stop within one request of `STEP_LIMIT` lifetime steps, and
/// every runtime error is the step-limit error.
fn check_step_limit(
    out: &mut Outcome,
    workers: u64,
    steps_sum: u64,
    max_steps: u64,
    failures: u64,
) {
    if !STEP_LIMIT_DEFECT_PRESENT {
        if failures > 0 {
            out.mismatch(format!("{failures} step-limit failures, expected none"));
        }
        return;
    }
    if failures == 0 {
        out.mismatch(
            "no step-limit failures: the run is too short for every worker to pass the limit"
                .to_owned(),
        );
        return;
    }
    // A worker fails its first request whose steps would take it past
    // the limit; it fails every later one. So the correct replies account
    // for between `workers * (limit - max_steps)` and `workers * limit`
    // steps. (Worker set-up and ping run no guest steps.)
    let lo = workers * STEP_LIMIT.saturating_sub(max_steps);
    let hi = workers * STEP_LIMIT;
    if steps_sum < lo || steps_sum > hi {
        out.mismatch(format!(
            "correct replies ran {steps_sum} steps, outside [{lo}, {hi}] for {workers} workers"
        ));
    }
}

/// The direct replay runs the same steps per request as the served one
/// and fails at the same lifetime step count.
fn check_direct(out: &mut Outcome, d: &Direct, reqs: &[Request], replies: &[Reply]) {
    for m in &d.mismatches {
        out.mismatch(m.clone());
    }
    for (i, (s, r)) in d.steps.iter().zip(replies).enumerate() {
        if let (Some(s), Some("ok")) = (s, r.status.as_deref()) {
            if *s != r.steps {
                out.mismatch(format!(
                    "request {i}: direct call ran {s} steps, served {}",
                    r.steps
                ));
                return;
            }
        }
    }
    let Some((i, before, msg)) = &d.first_failure else {
        if STEP_LIMIT_DEFECT_PRESENT {
            out.mismatch("direct replay never hit the step limit".to_owned());
        }
        return;
    };
    if !msg.contains(&format!("step limit of {STEP_LIMIT} exceeded")) {
        out.mismatch(format!("direct replay failed with {msg}"));
        return;
    }
    // The failing call's own steps, from any correct reply of the same
    // request shape.
    let req = &reqs[*i];
    let own = reqs
        .iter()
        .zip(replies)
        .find(|(q, r)| {
            q.call == req.call
                && q.n == req.n
                && q.list.len() == req.list.len()
                && r.status.as_deref() == Some("ok")
        })
        .map(|(_, r)| r.steps);
    match own {
        Some(own) if *before <= STEP_LIMIT && before + own > STEP_LIMIT => {}
        Some(own) => out.mismatch(format!(
            "direct replay failed at request {i} after {before} steps (+{own}), not at the limit"
        )),
        None => out.mismatch(format!(
            "direct replay: no served reference for request {i}"
        )),
    }
    if d.failures != reqs.len() - i {
        out.mismatch(format!(
            "direct replay: {} failures after the first at request {i} of {}",
            d.failures,
            reqs.len()
        ));
    }
    // One worker runs the requests in the direct replay's order, so it
    // must fail first at the very same request.
    let served = replies.iter().position(|r| r.kind == "runtime_error");
    if WORKERS == 1 && served != Some(*i) {
        out.mismatch(format!(
            "the worker first failed at request {served:?}, the direct replay at {i}"
        ));
    }
}
