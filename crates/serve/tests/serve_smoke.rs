//! End-to-end smoke tests for the serve crate: one in-process server
//! per test, a blocking client, and the full protocol surface — ok
//! responses, the typed failure taxonomy, panic quarantine with worker
//! replacement, and a clean drain.

use nml_serve::json::Json;
use nml_serve::{serve, Client, ServeConfig};
use std::path::PathBuf;
use std::time::Duration;

const SRC: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
  sum l = if (null l) then 0 else car l + sum (cdr l);
  spin n = spin n;
  down n = if n = 0 then 0 else 1 + down (n - 1)
in rev [1, 2, 3]";

fn socket_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nml-serve-smoke-{}-{tag}.sock", std::process::id()))
}

/// Runs `body` against a freshly served `SRC`, then drains the server
/// and returns its final report.
fn with_server<F>(tag: &str, cfg: ServeConfig, body: F) -> nml_serve::ServerReport
where
    F: FnOnce(&mut Client),
{
    let path = socket_path(tag);
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve(SRC, &path, &cfg))
    };
    let mut client = Client::connect_retry(&path, Duration::from_secs(5)).expect("connect");
    body(&mut client);
    let resp = client
        .request("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
        .expect("shutdown");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    server
        .join()
        .expect("server thread")
        .expect("server ran cleanly")
}

fn assert_ok(resp: &Json, expect_result: &str) {
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("ok"),
        "{resp}"
    );
    assert_eq!(
        resp.get("result").and_then(Json::as_str),
        Some(expect_result),
        "{resp}"
    );
}

fn assert_error(resp: &Json, kind: &str) {
    assert_eq!(
        resp.get("status").and_then(Json::as_str),
        Some("error"),
        "{resp}"
    );
    assert_eq!(
        resp.get("kind").and_then(Json::as_str),
        Some(kind),
        "{resp}"
    );
}

#[test]
fn protocol_basics_end_to_end() {
    let report = with_server("basics", ServeConfig::default(), |c| {
        let resp = c.request("{\"op\":\"ping\",\"id\":1}").expect("ping");
        assert_ok(&resp, "pong");

        // The program body.
        let resp = c.request("{\"op\":\"eval\",\"id\":2}").expect("eval body");
        assert_ok(&resp, "[3, 2, 1]");
        assert!(resp.get("steps").and_then(Json::as_int).unwrap() > 0);
        assert_eq!(resp.get("id").and_then(Json::as_int), Some(2));

        // A call with a list argument.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":3,\"call\":\"sum\",\"args\":[[1,2,3,4]]}")
            .expect("call");
        assert_ok(&resp, "10");

        // Unknown function: a typed guest error, not a hang or crash.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":4,\"call\":\"nope\"}")
            .expect("unknown fn");
        assert_error(&resp, "runtime_error");

        // A malformed frame still gets a correlated response.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":5,\"fuel\":-3}")
            .expect("bad");
        assert_error(&resp, "bad_request");
        assert_eq!(resp.get("id").and_then(Json::as_int), Some(5));

        // Unparseable frames correlate as id:null.
        let resp = c.request("{nope").expect("junk");
        assert_error(&resp, "bad_request");
        assert_eq!(resp.get("id"), Some(&Json::Null));

        let resp = c.request("{\"op\":\"stats\",\"id\":6}").expect("stats");
        assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    });
    assert_eq!(report.served_ok, 2, "two evals succeeded");
    assert_eq!(report.guest_errors, 1, "one unknown-function error");
    assert_eq!(report.bad_frames, 2, "two malformed frames");
    assert_eq!(report.panics, 0);
}

#[test]
fn resource_limits_are_typed_per_request() {
    let cfg = ServeConfig {
        max_depth: Some(500),
        ..ServeConfig::default()
    };
    let report = with_server("limits", cfg, |c| {
        // An infinite tail loop, bounded by explicit fuel.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":1,\"call\":\"spin\",\"args\":[0],\"fuel\":20000}")
            .expect("spin");
        assert_error(&resp, "fuel_exhausted");

        // The same loop bounded by a deadline (mapped to fuel).
        let resp = c
            .request("{\"op\":\"eval\",\"id\":2,\"call\":\"spin\",\"args\":[0],\"timeout_ms\":1}")
            .expect("spin deadline");
        assert_error(&resp, "fuel_exhausted");

        // Non-tail recursion past the configured depth limit.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":3,\"call\":\"down\",\"args\":[100000]}")
            .expect("down");
        assert_error(&resp, "stack_overflow");

        // The worker that failed those requests still serves fine.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":4,\"call\":\"down\",\"args\":[100]}")
            .expect("down ok");
        assert_ok(&resp, "100");
    });
    assert_eq!(report.served_ok, 1);
    assert_eq!(report.guest_errors, 3);
}

#[test]
fn hostile_nesting_is_rejected_or_rendered_without_aborting() {
    let report = with_server("nesting", ServeConfig::default(), |c| {
        // Tens of KB of '[': the parser's depth limit must turn this
        // into a bad_request, not a reader-thread stack overflow (which
        // aborts the process — overflow does not unwind).
        let resp = c.request(&"[".repeat(100_000)).expect("deep frame");
        assert_error(&resp, "bad_request");
        assert_eq!(resp.get("id"), Some(&Json::Null));

        // Past-the-limit nesting inside an otherwise well-formed frame.
        let deep_args = format!(
            "{{\"op\":\"eval\",\"id\":1,\"call\":\"sum\",\"args\":[{}1{}]}}",
            "[".repeat(300),
            "]".repeat(300)
        );
        // The whole frame fails to parse, so the id cannot correlate.
        let resp = c.request(&deep_args).expect("deep args");
        assert_error(&resp, "bad_request");
        assert_eq!(resp.get("id"), Some(&Json::Null));

        // The reader thread that absorbed both hostile frames still
        // serves normal requests.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":2,\"call\":\"sum\",\"args\":[[1,2,3]]}")
            .expect("sum after hostile frames");
        assert_ok(&resp, "6");
    });
    assert_eq!(report.served_ok, 1);
    assert_eq!(report.bad_frames, 2);
    assert_eq!(report.panics, 0, "nesting must never reach a panic/abort");
}

#[test]
fn byte_level_frame_handling_survives_timeouts_and_bad_utf8() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let path = socket_path("bytes");
    let cfg = ServeConfig::default();
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve(SRC, &path, &cfg))
    };
    // Wait for the socket, then talk raw bytes.
    drop(Client::connect_retry(&path, Duration::from_secs(5)).expect("connect"));
    let stream = UnixStream::connect(&path).expect("raw connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut recv = || {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response");
        nml_serve::json::parse(line.trim()).expect("response json")
    };

    // An invalid-UTF-8 frame gets a typed bad_request, not a dropped
    // connection or a desynchronized stream.
    stream
        .try_clone()
        .unwrap()
        .write_all(b"{\"op\":\"ping\",\"id\":1,\xff\xfe}\n")
        .expect("write bad utf8");
    assert_error(&recv(), "bad_request");

    // A frame with a multi-byte character split across the server's
    // 50ms read-timeout boundary must survive intact: read_line would
    // discard the partial tail on the timeout (the split byte makes it
    // invalid UTF-8) and silently corrupt the frame.
    let frame = "{\"op\":\"eval\",\"id\":8,\"call\":\"é\"}\n".as_bytes();
    let split = frame.iter().position(|&b| b == 0xC3).unwrap() + 1;
    let mut w = stream.try_clone().unwrap();
    w.write_all(&frame[..split]).expect("first half");
    w.flush().unwrap();
    std::thread::sleep(Duration::from_millis(150));
    w.write_all(&frame[split..]).expect("second half");
    w.flush().unwrap();
    let resp = recv();
    // The é function doesn't exist, but the frame parsed intact: the
    // error is a correlated unbound-name runtime_error, not bad_request.
    assert_error(&resp, "runtime_error");
    assert_eq!(resp.get("id").and_then(Json::as_int), Some(8));

    // The same connection still serves normal requests.
    stream
        .try_clone()
        .unwrap()
        .write_all(b"{\"op\":\"ping\",\"id\":9}\n")
        .expect("ping");
    assert_ok(&recv(), "pong");

    let mut c = Client::connect_retry(&path, Duration::from_secs(5)).expect("connect 2");
    let resp = c
        .request("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
        .expect("shutdown");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    drop(c);
    drop(stream);
    let report = server.join().expect("thread").expect("serve");
    assert_eq!(report.bad_frames, 1);
    assert_eq!(report.guest_errors, 1);
}

#[test]
fn worker_panic_is_quarantined_and_the_worker_replaced() {
    // One worker: if the panic killed it without replacement, the next
    // request would hang forever.
    let cfg = ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    let report = with_server("panic", cfg, |c| {
        let resp = c
            .request(
                "{\"op\":\"eval\",\"id\":1,\"call\":\"rev\",\"args\":[[1,2,3]],\
                 \"fault\":{\"panic_at_alloc\":2}}",
            )
            .expect("panicking request");
        assert_error(&resp, "worker_panicked");

        // The replacement worker serves the identical request.
        let resp = c
            .request("{\"op\":\"eval\",\"id\":2,\"call\":\"rev\",\"args\":[[1,2,3]]}")
            .expect("after panic");
        assert_ok(&resp, "[3, 2, 1]");
    });
    assert_eq!(report.panics, 1);
    assert_eq!(report.served_ok, 1);
}

#[test]
fn checked_violation_recovers_within_the_request() {
    // Deliberately wrong stack claims on every cons site: the body's
    // result reaches stack-freed cells, so a checked run must hit a
    // soundness violation, quarantine the site, recompile, and retry —
    // all inside the request.
    let cfg = ServeConfig {
        workers: 2,
        checked: true,
        sabotage: nml_opt::SabotagePlan::stack((0..32).map(nml_opt::SiteId)),
        ..ServeConfig::default()
    };
    let report = with_server("checked", cfg, |c| {
        for id in 1..=3 {
            let resp = c
                .request(&format!("{{\"op\":\"eval\",\"id\":{id}}}"))
                .expect("checked eval");
            assert_ok(&resp, "[3, 2, 1]");
            assert_eq!(
                resp.get("degraded"),
                Some(&Json::Bool(true)),
                "recovery marks the response degraded: {resp}"
            );
        }
    });
    assert!(report.quarantined_sites >= 1, "{report:?}");
    assert_eq!(report.degraded, 3, "{report:?}");
    assert_eq!(report.served_ok, 3, "{report:?}");
    assert_eq!(report.panics, 0, "violations are not panics");
}

#[test]
fn two_requests_on_one_sabotaged_site_quarantine_it_once() {
    // One wrong stack claim on the body literal's outermost cell: every
    // eval of the served program reads that cell after its region pops.
    const LIT: &str = "letrec id l = l in [7, 8]";
    let plain = nml_serve::compile_program(
        LIT,
        &ServeConfig::default(),
        &nml_opt::QuarantineSet::new(),
        false,
    )
    .expect("compiles");
    let outer = nml_opt::body_cons_sites(&plain)[0];
    let cfg = ServeConfig {
        workers: 2,
        checked: true,
        sabotage: nml_opt::SabotagePlan::stack([outer]),
        ..ServeConfig::default()
    };
    let path = socket_path("same-site");
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve(LIT, &path, &cfg))
    };
    let evals: Vec<_> = (1..=2)
        .map(|id| {
            let path = path.clone();
            std::thread::spawn(move || {
                let mut c = Client::connect_retry(&path, Duration::from_secs(5)).expect("connect");
                c.request(&format!("{{\"op\":\"eval\",\"id\":{id}}}"))
                    .expect("checked eval")
            })
        })
        .collect();
    for eval in evals {
        let resp = eval.join().expect("client thread");
        assert_ok(&resp, "[7, 8]");
        assert_eq!(resp.get("degraded"), Some(&Json::Bool(true)), "{resp}");
    }
    let mut c = Client::connect_retry(&path, Duration::from_secs(5)).expect("connect");
    c.request("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
        .expect("shutdown");
    let report = server.join().expect("server thread").expect("server ran");
    assert_eq!(report.degraded, 2, "{report:?}");
    assert_eq!(report.quarantined_sites, 1, "{report:?}");
}

#[test]
fn eval_after_shutdown_is_shed_with_a_typed_response() {
    let path = socket_path("shed");
    let cfg = ServeConfig::default();
    let server = {
        let path = path.clone();
        std::thread::spawn(move || serve(SRC, &path, &cfg))
    };
    let mut c = Client::connect_retry(&path, Duration::from_secs(5)).expect("connect");
    let resp = c
        .request("{\"op\":\"shutdown\",\"mode\":\"drain\"}")
        .expect("shutdown");
    assert_eq!(resp.get("status").and_then(Json::as_str), Some("ok"));
    let resp = c.request("{\"op\":\"eval\",\"id\":9}").expect("late eval");
    assert_error(&resp, "shutting_down");
    drop(c);
    let report = server.join().expect("thread").expect("serve");
    assert_eq!(report.shed, 1);
}
