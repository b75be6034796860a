//! Deterministic in-process re-execution of crash bundles.
//!
//! [`replay`] rebuilds the exact program a crash bundle was captured
//! under — same source, same optimization/sabotage/quarantine
//! configuration — and runs the recorded request once on a fresh VM,
//! classifying the outcome against the bundle's recorded crash kind.
//! Everything that shaped the original execution is replayed from the
//! bundle (the raw request line carries the fault plan, seed, and
//! fuel); the one deliberate exception is the wall-clock analysis
//! deadline, which is *not* replayed — fuel is the deterministic
//! stand-in — so two consecutive replays of one bundle produce
//! byte-identical reports.
//!
//! [`minimize`] greedily shrinks the request's arguments (halving
//! lists, dropping elements, zeroing integers) while preserving the
//! crash kind and site attribution, with a shrink schedule drawn from
//! `nml-corpusgen`'s deterministic RNG. The fault plan is never touched:
//! it is usually the crash trigger itself.

use std::panic::{catch_unwind, AssertUnwindSafe};

use nml_corpusgen::Rng;
use nml_escape::Budget;
use nml_opt::{IrProgram, QuarantineSet, SabotagePlan, SiteId};
use nml_runtime::{RuntimeError, Vm};

use crate::bundle::{BundleConfig, CrashBundle};
use crate::json::Json;
use crate::proto::{parse_request, ErrorKind, Request};
use crate::server::{
    base_interp_config, compile_program, execute, panic_message, request_fuel, ReqError,
    ServeConfig,
};

/// The classified outcome of one replayed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayReport {
    /// Outcome kind: `"ok"`, a wire error kind, `"soundness_violation"`,
    /// or `"worker_panicked"`.
    pub kind: String,
    /// The rendered result (for `"ok"`) or failure message.
    pub message: String,
    /// Site attribution (soundness violations only), in the bundled
    /// program's site numbering.
    pub site: Option<u32>,
    /// Interpreter steps retired.
    pub steps: u64,
    /// Whether the outcome matches the bundle's recorded crash: same
    /// kind, and for soundness violations the same site.
    pub reproduced: bool,
}

/// The result of [`minimize`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Minimized {
    /// The smallest request line found that still reproduces the crash.
    pub request: String,
    /// Candidate executions spent.
    pub attempts: u32,
}

/// Reconstructs the serving configuration a bundle was captured under.
/// Topology fields (workers, queue) are irrelevant in-process; the
/// wall-clock budget deadline is intentionally dropped for determinism.
fn serve_config_of(b: &BundleConfig) -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_cap: 1,
        default_fuel: b.default_fuel,
        default_timeout_ms: b.default_timeout_ms,
        max_depth: b.max_depth,
        optimize: b.optimize,
        checked: b.checked,
        max_retries: b.max_retries,
        steps_per_ms: b.steps_per_ms,
        budget: Budget {
            max_passes: b
                .budget_passes
                .map_or(u32::MAX, |p| p.min(u32::MAX as u64) as u32),
            max_nodes: b.budget_nodes.unwrap_or(u64::MAX),
            deadline: None,
        },
        jobs: 1,
        summary_cache: None,
        gen_gc: b.gen_gc,
        nursery_kb: b.nursery_kb,
        sabotage: SabotagePlan::stack(b.sabotage.iter().map(|s| SiteId(*s))),
        source_path: None,
        watch: false,
        crash_dir: None,
        crash_ring_cap: 1,
        crash_escalate_after: u32::MAX,
    }
}

/// Rebuilds the configuration and program a bundle was captured under.
fn bundle_program(bundle: &CrashBundle) -> Result<(ServeConfig, IrProgram), String> {
    let cfg = serve_config_of(&bundle.config);
    let mut quarantine = QuarantineSet::new();
    for s in &bundle.config.quarantine {
        quarantine.insert(SiteId(*s));
    }
    let ir = compile_program(&bundle.src, &cfg, &quarantine, cfg.optimize)
        .map_err(|e| format!("bundled program does not compile: {e}"))?;
    Ok((cfg, ir))
}

struct Outcome {
    kind: String,
    message: String,
    site: Option<u32>,
    steps: u64,
}

/// Runs `line` once on a fresh VM over `ir` and classifies the result.
fn run_once(ir: &IrProgram, cfg: &ServeConfig, line: &str) -> Result<Outcome, String> {
    let req = match parse_request(line.trim()) {
        Ok(Request::Eval(r)) => r,
        Ok(_) => return Err("bundle request is not an eval".to_owned()),
        Err((_, m)) => return Err(format!("bundle request does not parse: {m}")),
    };
    let fuel = request_fuel(&req, cfg);
    let mut vm =
        Vm::with_config(ir, base_interp_config(cfg, cfg.checked)).map_err(|e| e.to_string())?;
    let run = catch_unwind(AssertUnwindSafe(|| execute(&mut vm, &req, fuel)));
    let steps = vm.heap.stats.steps;
    Ok(match run {
        Err(payload) => Outcome {
            kind: "worker_panicked".to_owned(),
            message: panic_message(payload.as_ref()),
            site: None,
            steps,
        },
        Ok(Ok((result, steps))) => Outcome {
            kind: "ok".to_owned(),
            message: result,
            site: None,
            steps,
        },
        Ok(Err(ReqError::Rt(RuntimeError::Soundness(v)))) => Outcome {
            kind: "soundness_violation".to_owned(),
            message: v.to_string(),
            site: v.site.map(|s| s.0),
            steps,
        },
        Ok(Err(ReqError::Rt(e))) => Outcome {
            kind: ErrorKind::of_runtime(&e).wire().to_owned(),
            message: e.to_string(),
            site: None,
            steps,
        },
        Ok(Err(ReqError::Bad(m))) => Outcome {
            kind: "bad_request".to_owned(),
            message: m,
            site: None,
            steps,
        },
        Ok(Err(ReqError::Recompile(m))) => Outcome {
            kind: ErrorKind::Runtime.wire().to_owned(),
            message: m,
            site: None,
            steps,
        },
    })
}

fn reproduced(bundle: &CrashBundle, o: &Outcome) -> bool {
    o.kind == bundle.kind && (bundle.kind != "soundness_violation" || o.site == bundle.site)
}

/// Re-executes a crash bundle deterministically in-process.
///
/// # Errors
///
/// When the bundled source no longer compiles or the recorded request
/// line is unusable — replay infrastructure failures, not crash
/// outcomes (a reproducing crash is a *successful* replay).
pub fn replay(bundle: &CrashBundle) -> Result<ReplayReport, String> {
    let (cfg, ir) = bundle_program(bundle)?;
    let o = run_once(&ir, &cfg, &bundle.request)?;
    let reproduced = reproduced(bundle, &o);
    Ok(ReplayReport {
        kind: o.kind,
        message: o.message,
        site: o.site,
        steps: o.steps,
        reproduced,
    })
}

/// Renders a replay report. Contains no timing or environment data, so
/// two replays of one bundle render byte-identically.
pub fn render_report(bundle: &CrashBundle, r: &ReplayReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "bundle: kind={} epoch={} program_hash={} signature={}\n",
        bundle.kind, bundle.epoch, bundle.program_hash, bundle.signature
    ));
    out.push_str(&format!("request: {}\n", bundle.request));
    out.push_str(&format!("outcome: kind={} steps={}\n", r.kind, r.steps));
    out.push_str(&format!("message: {}\n", r.message));
    match (r.site, bundle.site) {
        (Some(got), Some(want)) => {
            out.push_str(&format!("site: {got} (recorded {want})\n"));
        }
        (Some(got), None) => out.push_str(&format!("site: {got} (recorded none)\n")),
        (None, Some(want)) => out.push_str(&format!("site: none (recorded {want})\n")),
        (None, None) => out.push_str("site: none\n"),
    }
    out.push_str(&format!("reproduced: {}\n", r.reproduced));
    out
}

/// Shrinks the bundle's request while preserving the crash.
///
/// Greedy descent: compile the bundled program once, then repeatedly
/// try candidate shrinks of the request's `args` (drop array halves,
/// drop elements, zero or halve integers), accepting a candidate iff
/// its replay matches the original crash kind and site. The candidate
/// order within each round is shuffled by a corpusgen RNG seeded from
/// the program hash, so runs are deterministic per bundle.
///
/// # Errors
///
/// When the bundle does not reproduce in the first place (minimizing
/// against a non-crash would "shrink" to anything).
pub fn minimize(bundle: &CrashBundle) -> Result<Minimized, String> {
    const MAX_ATTEMPTS: u32 = 200;
    let (cfg, ir) = bundle_program(bundle)?;
    let base = run_once(&ir, &cfg, &bundle.request)?;
    if !reproduced(bundle, &base) {
        return Err(format!(
            "bundle does not reproduce (replay gives `{}`, bundle records `{}`); refusing to minimize",
            base.kind, bundle.kind
        ));
    }
    let mut best = crate::json::parse(bundle.request.trim())
        .map_err(|e| format!("bundle request is not JSON: {e}"))?;
    let seed = u64::from_str_radix(&bundle.program_hash, 16).unwrap_or(0);
    let mut rng = Rng::new(seed ^ 0x5eed);
    let mut attempts = 0u32;
    let mut improved = true;
    while improved && attempts < MAX_ATTEMPTS {
        improved = false;
        let mut cands = shrink_candidates(&best);
        shuffle(&mut cands, &mut rng);
        for cand in cands {
            if attempts >= MAX_ATTEMPTS {
                break;
            }
            attempts += 1;
            // Candidates are structurally smaller (fewer elements or a
            // smaller integer) even when the serialization ties in
            // length (`999` -> `499`), so only reject regressions.
            let line = cand.to_string();
            if line.len() > best.to_string().len() {
                continue;
            }
            if let Ok(o) = run_once(&ir, &cfg, &line) {
                if o.kind == base.kind && o.site == base.site {
                    best = cand;
                    improved = true;
                    break;
                }
            }
        }
    }
    Ok(Minimized {
        request: best.to_string(),
        attempts,
    })
}

fn shuffle(items: &mut [Json], rng: &mut Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.below(i + 1);
        items.swap(i, j);
    }
}

/// One round of candidate shrinks: every way of replacing one argument
/// with a structurally smaller value. The `fault`, `fuel`, and `call`
/// fields are never touched.
fn shrink_candidates(req: &Json) -> Vec<Json> {
    let mut out = Vec::new();
    let Json::Obj(fields) = req else {
        return out;
    };
    let Some(args_at) = fields.iter().position(|(k, _)| k == "args") else {
        return out;
    };
    let Json::Arr(args) = &fields[args_at].1 else {
        return out;
    };
    for (i, arg) in args.iter().enumerate() {
        for small in shrink_value(arg, 0) {
            let mut new_args = args.clone();
            new_args[i] = small;
            let mut new_fields = fields.clone();
            new_fields[args_at].1 = Json::Arr(new_args);
            out.push(Json::Obj(new_fields));
        }
    }
    out
}

/// Structurally smaller variants of one value. Depth-capped so hostile
/// nesting cannot blow the minimizer's stack.
fn shrink_value(v: &Json, depth: usize) -> Vec<Json> {
    const MAX_DEPTH: usize = 6;
    const MAX_ELEMENTWISE: usize = 16;
    if depth >= MAX_DEPTH {
        return Vec::new();
    }
    let mut out = Vec::new();
    match v {
        Json::Int(0) => {}
        Json::Int(n) => {
            out.push(Json::Int(0));
            if *n / 2 != 0 {
                out.push(Json::Int(n / 2));
            }
        }
        Json::Arr(items) if !items.is_empty() => {
            let mid = items.len() / 2;
            if mid > 0 {
                out.push(Json::Arr(items[mid..].to_vec()));
                out.push(Json::Arr(items[..mid].to_vec()));
            } else {
                out.push(Json::Arr(Vec::new()));
            }
            if items.len() <= MAX_ELEMENTWISE {
                for i in 0..items.len() {
                    let mut fewer = items.clone();
                    fewer.remove(i);
                    out.push(Json::Arr(fewer));
                }
                for (i, item) in items.iter().enumerate() {
                    for small in shrink_value(item, depth + 1) {
                        let mut replaced = items.clone();
                        replaced[i] = small;
                        out.push(Json::Arr(replaced));
                    }
                }
            }
        }
        _ => {}
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bundle::BundleConfig;
    use crate::watch::fnv64;

    const SRC: &str = "letrec mk n = if n = 0 then nil else cons n (mk (n - 1));\n\
                       sum l = if (null l) then 0 else (car l) + (sum (cdr l))\n\
                       in sum (mk 4)";

    fn bundle_for(request: &str, kind: &str, checked: bool) -> CrashBundle {
        let cfg = ServeConfig::default();
        CrashBundle {
            version: 1,
            kind: kind.to_owned(),
            signature: "test".to_owned(),
            epoch: 1,
            program_hash: format!("{:016x}", fnv64(SRC.as_bytes())),
            src: SRC.to_owned(),
            request: request.to_owned(),
            site: None,
            config: BundleConfig::capture(&ServeConfig { checked, ..cfg }, Vec::new()),
            steps: 0,
        }
    }

    #[test]
    fn replays_a_panic_deterministically() {
        let b = bundle_for(
            "{\"op\":\"eval\",\"id\":1,\"fault\":{\"panic_at_alloc\":2}}",
            "worker_panicked",
            false,
        );
        let r1 = replay(&b).expect("replay");
        let r2 = replay(&b).expect("replay again");
        assert!(r1.reproduced, "kind {} msg {}", r1.kind, r1.message);
        assert_eq!(r1, r2, "two replays must agree exactly");
        assert_eq!(render_report(&b, &r1), render_report(&b, &r2));
    }

    #[test]
    fn non_reproducing_bundle_is_flagged_not_errored() {
        // The request succeeds, but the bundle claims a panic: replay
        // runs fine and reports reproduced=false.
        let b = bundle_for("{\"op\":\"eval\",\"id\":1}", "worker_panicked", false);
        let r = replay(&b).expect("replay");
        assert_eq!(r.kind, "ok");
        assert!(!r.reproduced);
        assert_eq!(r.message, "10");
    }

    #[test]
    fn minimize_shrinks_while_preserving_the_crash() {
        // `mk n` allocates n cons cells, and panic_at_alloc=1 fires on
        // the second one, so every n >= 2 keeps crashing — the
        // minimizer should halve the argument down to a small value.
        let b = bundle_for(
            "{\"op\":\"eval\",\"id\":1,\"call\":\"mk\",\
             \"args\":[999],\"fault\":{\"panic_at_alloc\":1}}",
            "worker_panicked",
            false,
        );
        let m = minimize(&b).expect("minimize");
        assert!(
            m.request.len() < b.request.len(),
            "shrunk: {} -> {}",
            b.request,
            m.request
        );
        // The minimized request still reproduces.
        let mut b2 = b.clone();
        b2.request = m.request.clone();
        assert!(replay(&b2).expect("replay minimized").reproduced);
        // And minimization is deterministic.
        let m2 = minimize(&b).expect("minimize again");
        assert_eq!(m, m2);
    }

    /// Replay must rebuild exactly the program the crashing epoch served
    /// — here a reloaded epoch (incremental analysis) whose carried
    /// quarantine disarms one of two sabotaged claims.
    #[test]
    fn replay_builds_the_ir_its_epoch_served() {
        use crate::epoch::{CarryMap, Epoch};
        use crate::server::Stats;
        use nml_escape::Incremental;
        use std::sync::Arc;

        let edited = SRC.replace("in sum (mk 4)", "in sum (mk 5)");
        let cfg = ServeConfig {
            checked: true,
            sabotage: SabotagePlan::stack([SiteId(0), SiteId(1)]),
            ..ServeConfig::default()
        };
        let mut qmap = CarryMap::new();
        let boot = nml_escape::analyze_source(SRC).expect("analyzes");
        let ep1 =
            Epoch::build(1, &boot, SRC, &cfg, &qmap, Arc::new(Stats::default())).expect("builds");
        ep1.record_quarantine(SiteId(0), &mut qmap);

        let mut inc = Incremental::from_source(SRC).expect("seeds");
        let analysis = inc.update_source(&edited).expect("reloads");
        let ep2 = Epoch::build(
            2,
            analysis,
            &edited,
            &cfg,
            &qmap,
            Arc::new(Stats::default()),
        )
        .expect("builds");
        assert!(ep2.built_with.contains(SiteId(0)), "quarantine carried");

        let mut b = bundle_for("{\"op\":\"eval\",\"id\":1}", "soundness_violation", true);
        b.src = edited.clone();
        b.config = BundleConfig::capture(&cfg, ep2.built_with.iter().map(|s| s.0).collect());
        let (_, ir) = bundle_program(&b).expect("rebuilds");
        assert_eq!(ir.to_string(), ep2.program.to_string());
    }

    #[test]
    fn minimize_refuses_non_reproducing_bundles() {
        let b = bundle_for("{\"op\":\"eval\",\"id\":1}", "worker_panicked", false);
        let err = minimize(&b).unwrap_err();
        assert!(err.contains("does not reproduce"), "{err}");
    }
}
