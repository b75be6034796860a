//! Serving-layer throughput and latency: the `nml-serve` NDJSON server
//! against a direct in-process `Vm::call` loop on the same compiled
//! program.
//!
//! Three measurements land in `BENCH_serve.json` at the workspace root:
//!
//! - **fault-free latency** — one client, sequential requests; p50/p99
//!   per-request wall time over the socket, versus the median of the
//!   same call made directly on a `Vm`. The run fails if the serve
//!   path's p50 exceeds the direct loop by more than 10%: the protocol,
//!   queue, and socket must stay in the noise next to real work.
//! - **throughput** — 4 clients against 4 workers, aggregate req/s.
//! - **degraded rate** — a checked-mode server whose compile was
//!   sabotaged at every cons site, so each request recovers through
//!   quarantine; the fraction of responses marked `degraded`.
//! - **reload** — request p99 while a reload storm swaps epochs under
//!   the traffic, versus the steady state on the same server, plus the
//!   time from sending a reload to the first response off the new
//!   epoch. The run fails if an eval admitted after a reload's ok
//!   response is answered by the old epoch: the swap must never stall
//!   the request path by more than one admission cycle.

use criterion::{criterion_group, criterion_main, Criterion};
use nml_serve::{compile_program, serve, Client, ServeConfig};
use nml_syntax::Symbol;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Naive-reverse churn: `work n` allocates O(n^2) cells, enough that a
/// single request costs milliseconds and socket overhead is measurable
/// against it rather than dominating it.
const SRC: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  work n = sum (rev (mklist n))
in rev (mklist 8)";

const WORK_N: i64 = 256;
/// sum(1..=WORK_N), the expected result of every request.
const EXPECT: i64 = WORK_N * (WORK_N + 1) / 2;

/// Revision `k` of `SRC` for the reload storm: only the `pad` constant
/// differs, so every revision answers the timed evals identically.
fn reload_src(k: usize) -> String {
    SRC.replace(
        "in rev (mklist 8)",
        &format!(";\n  pad n = n + {k}\nin rev (mklist 8)"),
    )
}

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nml-serve-bench-{}-{tag}.sock", std::process::id()))
}

fn eval_line(id: usize) -> String {
    format!("{{\"op\":\"eval\",\"id\":{id},\"call\":\"work\",\"args\":[{WORK_N}]}}")
}

fn assert_ok_result(resp: &nml_serve::json::Json, expect: &str) {
    use nml_serve::json::Json;
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp}"
    );
    assert_eq!(
        resp.get("result").and_then(Json::as_str),
        Some(expect),
        "{resp}"
    );
}

/// Starts a server for `SRC`, runs `body` with a connected client, then
/// drains and returns the server's final report.
fn with_server<F, R>(tag: &str, cfg: ServeConfig, body: F) -> (R, nml_serve::ServerReport)
where
    F: FnOnce(&PathBuf) -> R,
{
    let path = socket_path(tag);
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve(SRC, &path, &cfg))
    };
    let mut c = Client::connect_retry(&path, Duration::from_secs(10)).expect("connect");
    let out = body(&path);
    let resp = c
        .request("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
        .expect("shutdown");
    assert_eq!(
        resp.get("status").and_then(nml_serve::json::Json::as_str),
        Some("ok")
    );
    drop(c);
    let report = server.join().expect("server thread").expect("serve ok");
    (out, report)
}

/// Median per-call time of `work WORK_N` on a long-lived `Vm` — the
/// floor the serve path is held to.
fn direct_vm_median(ir: &nml_opt::IrProgram) -> Duration {
    use nml_runtime::{InterpConfig, Value, Vm};
    let mut vm = Vm::with_config(ir, InterpConfig::default()).expect("vm");
    let work = Symbol::intern("work");
    let call = |vm: &mut Vm| {
        let v = vm.call(work, vec![Value::Int(WORK_N)]).expect("call");
        assert!(matches!(v, Value::Int(n) if n == EXPECT), "{v:?}");
        black_box(v);
    };
    for _ in 0..3 {
        call(&mut vm);
    }
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..8 {
                call(&mut vm);
            }
            start.elapsed() / 8
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Sequential fault-free requests over the socket; returns the sorted
/// per-request latencies.
fn serve_latencies(path: &Path, requests: usize) -> Vec<Duration> {
    let mut c = Client::connect_retry(path, Duration::from_secs(10)).expect("connect");
    let expect = EXPECT.to_string();
    for id in 0..3 {
        assert_ok_result(&c.request(&eval_line(id)).expect("warmup"), &expect);
    }
    let mut samples: Vec<Duration> = (0..requests)
        .map(|id| {
            let start = Instant::now();
            let resp = c.request(&eval_line(100 + id)).expect("timed request");
            let dt = start.elapsed();
            assert_ok_result(&resp, &expect);
            dt
        })
        .collect();
    samples.sort();
    samples
}

/// `clients` threads each issue `per_client` sequential requests;
/// returns aggregate requests per second.
fn serve_throughput(path: &Path, clients: usize, per_client: usize) -> f64 {
    let expect = EXPECT.to_string();
    let start = Instant::now();
    std::thread::scope(|s| {
        for t in 0..clients {
            let path = path.to_path_buf();
            let expect = expect.clone();
            s.spawn(move || {
                let mut c = Client::connect_retry(&path, Duration::from_secs(10)).expect("connect");
                for i in 0..per_client {
                    let resp = c.request(&eval_line(t * 10000 + i)).expect("request");
                    assert_ok_result(&resp, &expect);
                }
            });
        }
    });
    (clients * per_client) as f64 / start.elapsed().as_secs_f64()
}

fn bench_serve(_c: &mut Criterion) {
    println!("group serve");
    let cfg = ServeConfig::default();
    let ir = compile_program(SRC, &cfg, &nml_opt::QuarantineSet::default(), true).expect("compile");
    let direct = direct_vm_median(&ir);

    // Fault-free latency distribution, single client.
    const LAT_REQS: usize = 72;
    let (lat, lat_report) = with_server("latency", ServeConfig::default(), |path| {
        serve_latencies(path, LAT_REQS)
    });
    assert_eq!(lat_report.panics, 0);
    assert_eq!(lat_report.degraded, 0);
    let p50 = lat[lat.len() / 2];
    let p99 = lat[lat.len() * 99 / 100];
    let overhead = p50.as_nanos() as f64 / direct.as_nanos().max(1) as f64;

    // Aggregate throughput, 4 clients on 4 workers.
    const CLIENTS: usize = 4;
    const PER_CLIENT: usize = 24;
    let (req_s, tp_report) = with_server("throughput", ServeConfig::default(), |path| {
        serve_throughput(path, CLIENTS, PER_CLIENT)
    });
    assert_eq!(tp_report.served_ok, (CLIENTS * PER_CLIENT) as u64);
    assert_eq!(tp_report.shed, 0, "sequential clients never overflow");

    // Degraded rate: checked mode with every cons site sabotaged. Body
    // evals return a list, so the sabotaged claims put stack-freed cells
    // in the result and every request must recover through quarantine.
    const DEGRADED_REQS: usize = 16;
    let checked_cfg = ServeConfig {
        workers: 2,
        checked: true,
        sabotage: nml_opt::SabotagePlan::stack((0..64).map(nml_opt::SiteId)),
        ..ServeConfig::default()
    };
    let ((), deg_report) = with_server("degraded", checked_cfg, |path| {
        let mut c = Client::connect_retry(path, Duration::from_secs(10)).expect("connect");
        for id in 0..DEGRADED_REQS {
            let resp = c
                .request(&format!("{{\"op\":\"eval\",\"id\":{id}}}"))
                .expect("checked request");
            assert_ok_result(&resp, "[1, 2, 3, 4, 5, 6, 7, 8]");
        }
    });
    let total = deg_report.served_ok + deg_report.guest_errors;
    let degraded_rate = deg_report.degraded as f64 / total.max(1) as f64;
    assert!(
        deg_report.quarantined_sites >= 1,
        "sabotage must trip checked mode: {deg_report:?}"
    );

    // Reload: the same eval traffic with and without an epoch-swap
    // storm underneath, plus time-to-first-new-epoch-response.
    const STORM_RELOADS: usize = 6;
    const STORM_REQS: usize = 48;
    let ((steady_p99, storm_p99, first_new), rl_report) =
        with_server("reload", ServeConfig::default(), |path| {
            let mut c = Client::connect_retry(path, Duration::from_secs(10)).expect("connect");
            let expect = EXPECT.to_string();
            let timed_evals = |c: &mut Client, n: usize, base: usize| -> Vec<Duration> {
                let mut v: Vec<Duration> = (0..n)
                    .map(|i| {
                        let start = Instant::now();
                        let resp = c.request(&eval_line(base + i)).expect("eval");
                        let dt = start.elapsed();
                        assert_ok_result(&resp, &expect);
                        dt
                    })
                    .collect();
                v.sort();
                v
            };
            let steady = timed_evals(&mut c, STORM_REQS, 0);

            // The storm: a second connection swaps revisions while the
            // timed evals run.
            let storm = std::thread::scope(|s| {
                s.spawn(|| {
                    let mut r =
                        Client::connect_retry(path, Duration::from_secs(10)).expect("reloader");
                    for k in 1..=STORM_RELOADS {
                        let req = nml_serve::json::Json::Obj(vec![
                            (
                                "op".to_owned(),
                                nml_serve::json::Json::Str("reload".to_owned()),
                            ),
                            ("id".to_owned(), nml_serve::json::Json::Int(9000 + k as i64)),
                            ("src".to_owned(), nml_serve::json::Json::Str(reload_src(k))),
                        ]);
                        let resp = r.request(&req.to_string()).expect("reload");
                        assert_eq!(
                            resp.get("status").and_then(nml_serve::json::Json::as_str),
                            Some("ok"),
                            "{resp}"
                        );
                        std::thread::sleep(Duration::from_millis(10));
                    }
                });
                timed_evals(&mut c, STORM_REQS, 1000)
            });

            // Time from sending one more reload to the first response
            // off the new epoch — which must be the very next eval.
            let req = nml_serve::json::Json::Obj(vec![
                (
                    "op".to_owned(),
                    nml_serve::json::Json::Str("reload".to_owned()),
                ),
                ("id".to_owned(), nml_serve::json::Json::Int(9999)),
                (
                    "src".to_owned(),
                    nml_serve::json::Json::Str(reload_src(STORM_RELOADS + 1)),
                ),
            ]);
            let t0 = Instant::now();
            let resp = c.request(&req.to_string()).expect("final reload");
            let desc = resp
                .get("result")
                .and_then(nml_serve::json::Json::as_str)
                .expect("reload desc");
            let new_epoch: i64 = desc
                .strip_prefix("epoch ")
                .and_then(|s| s.split(' ').next())
                .and_then(|s| s.parse().ok())
                .expect("epoch id in reload description");
            let resp = c.request(&eval_line(2000)).expect("first new-epoch eval");
            let first_new = t0.elapsed();
            assert_ok_result(&resp, &expect);
            assert_eq!(
                resp.get("epoch").and_then(nml_serve::json::Json::as_int),
                Some(new_epoch),
                "an eval admitted after the reload's ok response must land \
                 on the new epoch: {resp}"
            );
            (
                steady[steady.len() * 99 / 100],
                storm[storm.len() * 99 / 100],
                first_new,
            )
        });
    assert_eq!(rl_report.reloads_ok, STORM_RELOADS as u64 + 1);
    assert_eq!(rl_report.reloads_failed, 0);
    assert_eq!(rl_report.epoch_leaks, 0, "{rl_report:?}");

    println!("bench serve/direct_vm: {direct:?} per call");
    println!("bench serve/latency: p50 {p50:?} p99 {p99:?} overhead {overhead:.3}x");
    println!("bench serve/throughput: {req_s:.0} req/s ({CLIENTS} clients)");
    println!("bench serve/degraded_rate: {degraded_rate:.3}");
    println!(
        "bench serve/reload: steady p99 {steady_p99:?}, storm p99 {storm_p99:?} \
         ({STORM_RELOADS} reloads), first new-epoch response {first_new:?}"
    );

    let mut json = String::from("{\n  \"serve\": {\n");
    let _ = writeln!(json, "    \"work_n\": {WORK_N},");
    let _ = writeln!(json, "    \"direct_vm_ns\": {},", direct.as_nanos());
    let _ = writeln!(json, "    \"latency_p50_ns\": {},", p50.as_nanos());
    let _ = writeln!(json, "    \"latency_p99_ns\": {},", p99.as_nanos());
    let _ = writeln!(json, "    \"overhead_vs_direct\": {overhead:.3},");
    let _ = writeln!(json, "    \"throughput_req_s\": {req_s:.1},");
    let _ = writeln!(json, "    \"throughput_clients\": {CLIENTS},");
    let _ = writeln!(json, "    \"degraded_rate\": {degraded_rate:.3},");
    json.push_str("    \"reload\": {\n");
    let _ = writeln!(json, "      \"storm_reloads\": {STORM_RELOADS},");
    let _ = writeln!(json, "      \"steady_p99_ns\": {},", steady_p99.as_nanos());
    let _ = writeln!(json, "      \"storm_p99_ns\": {},", storm_p99.as_nanos());
    let _ = writeln!(
        json,
        "      \"time_to_first_new_epoch_ns\": {}",
        first_new.as_nanos()
    );
    json.push_str("    }\n  }\n}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: cannot write {out}: {e}");
    } else {
        println!("wrote {out}");
    }

    assert!(
        overhead <= 1.10,
        "fault-free serve path p50 ({p50:?}) exceeds the direct Vm loop \
         ({direct:?}) by more than 10%: {overhead:.3}x"
    );
}

criterion_group!(benches, bench_serve);
criterion_main!(benches);
