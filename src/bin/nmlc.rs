//! `nmlc` — the nml driver: type checking, escape analysis, optimization
//! and instrumented execution from the command line.
//!
//! ```text
//! nmlc check <file>                  parse + infer, print signatures
//! nmlc analyze <file> [--mono]       escape analysis report
//! nmlc ir <file> [--stack-alloc]     print the lowered IR
//! nmlc run <file> [--stack-alloc] [--stats]
//! ```
//!
//! Every failure is a one-line (or rendered-span) diagnostic on stderr and
//! a non-zero exit code — never a panic or a backtrace. Analysis resource
//! budgets (`--max-passes=` etc.) degrade over-budget functions to the
//! sound worst-case summary `W^τ` and print a warning per degraded
//! function; `--strict` turns those warnings into errors.

use nml_escape_analysis::escape::{
    Analysis, AnalyzeError, Budget, EngineConfig, PolyMode, ScheduleOptions,
};
use nml_escape_analysis::opt::{SabotagePlan, SiteId};
use nml_escape_analysis::pipeline::{
    compile, render_value, run, run_checked, CheckedOptions, CompileOptions, Compiled, OptOptions,
    PipelineError, QuarantineSet,
};
use nml_escape_analysis::runtime::{Engine, FaultPlan, FaultRate, InterpConfig};
use nml_escape_analysis::serve::json::Json;
use nml_escape_analysis::serve::proto::ErrorKind;
use nml_escape_analysis::serve::{
    minimize, render_report, replay, Client, CrashBundle, FileWatch, RetryPolicy, ServeConfig,
    DEFAULT_STEPS_PER_MS,
};
use nml_escape_analysis::syntax::{parse_program, SourceMap};
use nml_escape_analysis::types::infer_program;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::time::Duration;

/// A command failure: a diagnostic for stderr plus the process exit
/// code. Most commands exit 1 on any failure; `call` and `replay` map
/// their outcomes onto distinct codes so scripts can branch on them.
struct Failure {
    code: u8,
    msg: String,
}

impl Failure {
    fn code(code: u8, msg: impl Into<String>) -> Failure {
        Failure {
            code,
            msg: msg.into(),
        }
    }
}

impl From<String> for Failure {
    fn from(msg: String) -> Failure {
        Failure { code: 1, msg }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match args.split_first() {
        Some((c, r)) => (c.as_str(), r),
        None => {
            eprintln!("{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result: Result<(), Failure> = match cmd {
        "check" => cmd_check(rest).map_err(Failure::from),
        "fmt" => cmd_fmt(rest).map_err(Failure::from),
        "analyze" => cmd_analyze(rest).map_err(Failure::from),
        "ir" => cmd_ir(rest).map_err(Failure::from),
        "run" => cmd_run(rest).map_err(Failure::from),
        "serve" => cmd_serve(rest).map_err(Failure::from),
        "call" => cmd_call(rest),
        "replay" => cmd_replay(rest),
        "gen-corpus" => cmd_gen_corpus(rest).map_err(Failure::from),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(Failure::from(format!("unknown command `{other}`\n{USAGE}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(f) => {
            if !f.msg.is_empty() {
                eprintln!("{}", f.msg);
            }
            ExitCode::from(f.code)
        }
    }
}

const USAGE: &str = "usage: nmlc <command> <file> [flags]

commands:
  check   <file>                 parse and type-check; print signatures
  fmt     <file>                 parse and pretty-print (canonical layout)
  analyze <file> [--mono] [--report]
                                 run the escape analysis; print G(f,i),
                                 retained spines, and sharing info
  ir      <file> [opt flags]     print the storage-annotated IR
  run     <file> [opt flags] [--stats]
                                 execute with the instrumented runtime
  serve   <file> [serve flags]   compile once (the full governed pipeline),
                                 then serve eval requests over newline-
                                 delimited JSON on a unix socket
  call    --socket=PATH [call flags]
                                 send one request to a running server
  replay  <bundle.json> [--minimize]
                                 re-execute a crash bundle from the serve
                                 flight recorder, in-process and
                                 deterministically; exit 0 iff the recorded
                                 outcome reproduces
  gen-corpus --seed=N --shape=S [--out=PATH]
                                 emit a deterministic well-typed synthetic
                                 program; shapes: chain | wide | scc[:RxS] |
                                 mixed[:N[/C]] | mega (2000 functions)

execution engine flags (run):
  --engine=vm          compile to bytecode and run on the slot-resolved
                       stack VM (the default)
  --engine=tree        run on the CEK tree-walking interpreter (the
                       differential oracle)

optimization flags (ir/run):
  -O, --optimize       the full pass manager: reuse -> block -> stack
  --stack-alloc        stack regions from the global escape test
  --local-stack-alloc  stack regions from the local test (monomorphizes first)
  --auto-reuse         DCONS variants + Theorem-2-guided call rewriting
  --sroa / --no-sroa   scalar replacement of cons cells the escape lattice
                       proves never-escaping and never-aliased: the bytecode
                       compiler re-verifies each site, puts head/tail in
                       frame slots, and elides the allocation (--stats shows
                       elided=N). Defaults on under --engine=vm, off under
                       --engine=tree (the tree-walking oracle never
                       scalarizes, so the mark is inert there)

analysis budget flags (analyze/ir/run; over-budget functions degrade to
the sound worst-case summary and a warning is printed):
  --max-passes=N       cap total fixpoint passes
  --max-nodes=N        cap total abstract-value nodes
  --deadline-ms=N      wall-clock deadline for the whole analysis
  --strict             treat any degradation as an error (non-zero exit)

analysis scheduling flags (analyze/ir/run):
  --jobs=N             solve independent call-graph SCCs on N worker
                       threads (0 = one per available core; default serial)
  --summary-cache=PATH reuse escape summaries across runs; only SCCs whose
                       code or dependencies changed are re-analyzed
  --watch              (analyze) keep running: re-read the file when it
                       changes and incrementally re-solve only the SCCs
                       whose transitive content hash moved

fault-injection flags (run; deterministic, seeded):
  --fault-seed=N           RNG seed for the probabilistic faults (default 0)
  --heap-capacity=N        fail program allocations beyond N live cells
  --fault-alloc-retreat=N/D  retreat optimized allocations to heap at rate N/D
  --fault-region-deny=N/D    refuse region pushes at rate N/D
  --fault-forced-gc=N/D      force a collection before allocations at rate N/D
  --fault-gc-at=i,j,...      force collections at exact allocation indices

checked-optimization flags (run):
  --checked                execute under the soundness sentinel: claim-freed
                           cells are tombstoned, a wrong claim is caught as a
                           violation, the offending site is quarantined, and
                           the program re-executes with that optimization off
  --max-retries=N          re-executions before degrading to the unoptimized
                           interpreter (default 8)
  --quarantine-file=PATH   persist the quarantine set across runs
  --fault-unsound-stack=i,j,...
                           deliberately inject wrong stack claims at the
                           given cons sites (sentinel demonstration)
  --fault-unsound-elide=i,j,...
                           deliberately force SROA elide marks at the given
                           cons sites; the bytecode compiler's re-check
                           refuses unsafe ones, so the run must stay silent
                           (license-not-obligation demonstration)

generational-heap flags (run/serve; the heap is always generational:
it allocates into a nursery, scans only young cells at a minor GC and
promotes survivors in place; escape-proven sites pretenure straight
into the old space):
  --nursery-kb=N       nursery size in KiB (default 256); a minor
                       collection runs when it fills

resource-limit flags (run; serve takes them as per-request defaults):
  --fuel=N             per-entry step budget; running out is a typed
                       fuel_exhausted error, not a hang
  --timeout-ms=N       wall-clock deadline, mapped to fuel by the
                       steps-per-millisecond calibration
  --max-depth=N        call-depth limit; deep non-tail recursion fails
                       with stack_overflow (tail calls are unaffected)

serve flags (serve also accepts -O/--no-optimize, --checked,
--max-retries, and the analysis budget/scheduling flags):
  --socket=PATH        unix socket path (default: <file>.sock)
  --workers=N          worker threads, one private heap each (default 4)
  --queue-cap=N        admission-queue bound; past it requests are shed
                       with a typed `overloaded` response (default 64)
  --steps-per-ms=N     deadline-to-fuel calibration (default 200000)
  --watch              poll the source file and hot-reload on change;
                       broken edits are rejected, the old epoch stays live
  --crash-dir=PATH|off crash-bundle ring directory (default:
                       <socket>.crashes; off disables the flight recorder)
  --crash-ring-cap=N   max bundles kept in the ring (default 16)
  --crash-escalate-after=N
                       repeats of one crash signature before the
                       implicated site is quarantined server-wide
                       (default 2)

call flags (one of):
  --call=f --args=JSON [--fuel=N] [--timeout-ms=N]   evaluate f(args)
  --eval               evaluate the program body
  --ping | --stats | --healthz | --shutdown[=drain|now]
  --reload             hot-reload the served file (server re-reads it)

call retry flags (any of these turns on self-healing retries —
deadline-aware, decorrelated-jitter backoff, retrying only transient
kinds like overloaded/worker_panicked):
  --retries=N          attempts beyond the first (default 3)
  --retry-budget=N     total retries this connection may spend
  --backoff-ms=N       base backoff sleep (default 5)
  --backoff-cap-ms=N   backoff ceiling (default 200)
  --call-deadline-ms=N overall per-call deadline across attempts

call exit codes: 0 ok, 1 transport/usage, then per error kind:
  2 bad_request, 3 overloaded, 4 shutting_down, 5 worker_panicked,
  6 fuel_exhausted, 7 stack_overflow, 8 cancelled, 9 runtime_error,
  10 compile_error

call fault flags (forwarded in the request, for crash-drill testing):
  --fault-panic-at-alloc=N  inject a worker panic at allocation #N

run also accepts --profile (hottest allocation/reuse sites) and --stats";

fn read_file(rest: &[String]) -> Result<(String, String), String> {
    let path = rest
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or_else(|| format!("missing <file> argument\n{USAGE}"))?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok((path.clone(), src))
}

fn has_flag(rest: &[String], flag: &str) -> bool {
    rest.iter().any(|a| a == flag)
}

/// The value of a `--flag=value` argument, if present. Only the `=` form
/// is accepted so that the positional `<file>` argument stays unambiguous.
fn flag_value<'a>(rest: &'a [String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .find_map(|a| a.strip_prefix(flag)?.strip_prefix('='))
}

fn parse_num_flag<T: FromStr>(rest: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(rest, flag) {
        None => Ok(None),
        Some(v) => v
            .parse::<T>()
            .map(Some)
            .map_err(|_| format!("{flag}: `{v}` is not a valid number")),
    }
}

/// Parses a comma-separated list of cons site ids for a sabotage flag.
fn parse_site_list(list: &str, flag: &str) -> Result<Vec<SiteId>, String> {
    list.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| {
            s.parse::<u32>()
                .map(SiteId)
                .map_err(|_| format!("{flag}: `{s}` is not a cons site id"))
        })
        .collect()
}

/// Parses `--engine=tree|vm`; absent means the default engine (the VM).
fn engine_from_flags(rest: &[String]) -> Result<Engine, String> {
    match flag_value(rest, "--engine") {
        None => Ok(Engine::default()),
        Some(v) => v
            .parse::<Engine>()
            .map_err(|_| format!("--engine: `{v}` is not an engine (expected tree or vm)")),
    }
}

/// Parses a `--flag=N/D` fault rate (`N` alone means `N/1`).
fn parse_rate_flag(rest: &[String], flag: &str) -> Result<Option<FaultRate>, String> {
    let Some(v) = flag_value(rest, flag) else {
        return Ok(None);
    };
    let bad = || format!("{flag}: `{v}` is not a rate (expected N/D with D > 0)");
    let (num, den) = match v.split_once('/') {
        Some((n, d)) => (
            n.parse::<u32>().map_err(|_| bad())?,
            d.parse::<u32>().map_err(|_| bad())?,
        ),
        None => (v.parse::<u32>().map_err(|_| bad())?, 1),
    };
    if den == 0 {
        return Err(bad());
    }
    Ok(Some(FaultRate::new(num, den)))
}

/// Parses the scheduling flags: `--jobs=N` (0 = one worker per available
/// core) and `--summary-cache=PATH`.
fn schedule_from_flags(rest: &[String]) -> Result<ScheduleOptions, String> {
    let mut opts = ScheduleOptions::default();
    if let Some(n) = parse_num_flag::<usize>(rest, "--jobs")? {
        opts.jobs = if n == 0 {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        } else {
            n
        };
    }
    if let Some(p) = flag_value(rest, "--summary-cache") {
        opts.summary_cache = Some(std::path::PathBuf::from(p));
    }
    Ok(opts)
}

/// Prints the schedule/cache diagnostics: a warning for any cache I/O
/// trouble, and — when scheduling flags were given — a one-line summary
/// of the SCC schedule and cache effectiveness.
fn report_schedule(analysis: &Analysis, rest: &[String]) {
    let s = &analysis.schedule;
    for err in &s.cache_errors {
        eprintln!("warning: summary cache: {err}");
    }
    if flag_value(rest, "--jobs").is_some() || flag_value(rest, "--summary-cache").is_some() {
        let mut line = format!(
            "schedule: {} SCCs in {} batches, {} solved, jobs={}",
            s.scc_count, s.batch_count, s.sccs_solved, s.jobs
        );
        if flag_value(rest, "--summary-cache").is_some() {
            line.push_str(&format!(
                ", cache {} hits / {} misses",
                s.cache_hits, s.cache_misses
            ));
        }
        eprintln!("{line}");
    }
}

fn budget_from_flags(rest: &[String]) -> Result<Budget, String> {
    let mut b = Budget::unlimited();
    if let Some(n) = parse_num_flag::<u32>(rest, "--max-passes")? {
        b.max_passes = n;
    }
    if let Some(n) = parse_num_flag::<u64>(rest, "--max-nodes")? {
        b.max_nodes = n;
    }
    if let Some(ms) = parse_num_flag::<u64>(rest, "--deadline-ms")? {
        b.deadline = Some(Duration::from_millis(ms));
    }
    Ok(b)
}

fn fault_from_flags(rest: &[String]) -> Result<FaultPlan, String> {
    let seed = parse_num_flag::<u64>(rest, "--fault-seed")?.unwrap_or(0);
    let mut plan = FaultPlan::new(seed);
    if let Some(cells) = parse_num_flag::<u64>(rest, "--heap-capacity")? {
        plan = plan.with_heap_capacity(cells);
    }
    if let Some(r) = parse_rate_flag(rest, "--fault-alloc-retreat")? {
        plan = plan.with_alloc_retreats(r);
    }
    if let Some(r) = parse_rate_flag(rest, "--fault-region-deny")? {
        plan = plan.with_region_denials(r);
    }
    if let Some(r) = parse_rate_flag(rest, "--fault-forced-gc")? {
        plan = plan.with_forced_gc(r);
    }
    if let Some(list) = flag_value(rest, "--fault-gc-at") {
        let indices: Vec<u64> = list
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| {
                s.parse::<u64>()
                    .map_err(|_| format!("--fault-gc-at: `{s}` is not an allocation index"))
            })
            .collect::<Result<_, _>>()?;
        plan = plan.with_forced_gc_at(indices);
    }
    Ok(plan)
}

/// Applies the resource-limit flags (`--fuel`, `--timeout-ms`,
/// `--max-depth`) and the nursery size (`--nursery-kb`) to an
/// interpreter configuration. An explicit fuel budget wins over a
/// deadline.
fn resource_flags_into(rest: &[String], config: &mut InterpConfig) -> Result<(), String> {
    if let Some(f) = parse_num_flag::<u64>(rest, "--fuel")? {
        config.fuel = Some(f);
    } else if let Some(ms) = parse_num_flag::<u64>(rest, "--timeout-ms")? {
        config.fuel = Some(ms.saturating_mul(DEFAULT_STEPS_PER_MS));
    }
    if let Some(d) = parse_num_flag::<usize>(rest, "--max-depth")? {
        config.max_depth = d;
    }
    if let Some(kb) = parse_num_flag::<usize>(rest, "--nursery-kb")? {
        config.heap.nursery_kb = kb;
    }
    Ok(())
}

/// Refuses the removed `--gen-gc=on|off` flag. Unknown flags are
/// otherwise ignored, so without this a script passing `--gen-gc=off`
/// would silently get the generational heap.
fn reject_removed_heap_flag(rest: &[String]) -> Result<(), String> {
    match flag_value(rest, "--gen-gc") {
        Some(_) => Err("--gen-gc: no longer accepted; the heap is always generational".into()),
        None => Ok(()),
    }
}

/// Prints a `warning:` line per degradation event, or — under `--strict` —
/// turns them into a single hard error.
fn report_degradations(analysis: &Analysis, strict: bool) -> Result<(), String> {
    if analysis.fully_precise() {
        return Ok(());
    }
    if strict {
        let mut msg = String::from("error: analysis degraded to worst-case summaries (--strict):");
        for d in &analysis.degradations {
            msg.push_str(&format!("\n  {d}"));
        }
        return Err(msg);
    }
    for d in &analysis.degradations {
        eprintln!("warning: {d}");
    }
    Ok(())
}

/// Renders a front-end failure: syntax and type errors get the full
/// span rendering; everything else gets its one-line `Display`.
fn render_analyze_err(e: AnalyzeError, src: &str) -> String {
    let map = SourceMap::new(src.to_owned());
    match e {
        AnalyzeError::Syntax(e) => e.render(&map),
        AnalyzeError::Type(e) => e.render(&map),
        other => other.to_string(),
    }
}

/// Renders a pipeline failure (see [`render_analyze_err`]).
fn render_pipeline_err(e: PipelineError, src: &str) -> String {
    match e {
        PipelineError::Analyze(e) => render_analyze_err(e, src),
        other => other.to_string(),
    }
}

fn cmd_check(rest: &[String]) -> Result<(), String> {
    let (_, src) = read_file(rest)?;
    let map = SourceMap::new(src.clone());
    let program = parse_program(&src).map_err(|e| e.render(&map))?;
    let info = infer_program(&program).map_err(|e| e.render(&map))?;
    for (name, scheme) in &info.top_schemes {
        println!("{name} : {scheme}");
    }
    println!("max spine depth d = {}", info.max_spines);
    Ok(())
}

fn cmd_fmt(rest: &[String]) -> Result<(), String> {
    let (_, src) = read_file(rest)?;
    let map = SourceMap::new(src.clone());
    let program = parse_program(&src).map_err(|e| e.render(&map))?;
    print!("{}", nml_escape_analysis::syntax::pretty_program(&program));
    Ok(())
}

fn cmd_analyze(rest: &[String]) -> Result<(), String> {
    let (path, src) = read_file(rest)?;
    if has_flag(rest, "--watch") {
        return cmd_analyze_watch(rest, &path, &src);
    }
    let mode = if has_flag(rest, "--mono") {
        PolyMode::Monomorphize
    } else {
        PolyMode::SimplestInstance
    };
    let budget = budget_from_flags(rest)?;
    let options = schedule_from_flags(rest)?;
    let analysis = nml_escape_analysis::escape::analyze_source_scheduled(
        &src,
        mode,
        EngineConfig::default(),
        budget,
        &options,
    )
    .map_err(|e| render_analyze_err(e, &src))?;
    report_analysis(&analysis, rest)?;
    if has_flag(rest, "--report") {
        let report = nml_escape_analysis::report::OptimizationReport::for_analysis(&analysis);
        println!("{report}");
        return Ok(());
    }
    print_summaries(&analysis);
    println!(
        "fixpoint: {} passes, {} memoized applications",
        analysis.stats.passes, analysis.stats.memo_entries
    );
    Ok(())
}

fn print_summaries(analysis: &Analysis) {
    for summary in analysis.summaries.values() {
        print!("{summary}");
        for p in &summary.params {
            if p.ty.is_list() {
                println!(
                    "    -> top {} of {} spines never escape",
                    p.retained_spines(),
                    p.spines
                );
            }
        }
        let unshared = nml_escape_analysis::escape::unshared_from_summary(summary);
        if summary.result_ty.is_list() {
            println!("    -> top {unshared} spine(s) of any call's result are unshared");
        }
    }
}

/// `analyze --watch`: analyze once, then poll the file and re-analyze
/// incrementally on every change — only the SCCs whose transitive content
/// hash moved are re-solved, everything else is reused in place.
fn cmd_analyze_watch(rest: &[String], path: &str, src: &str) -> Result<(), String> {
    use nml_escape_analysis::escape::{Incremental, UpdateError};
    if has_flag(rest, "--mono") {
        return Err(
            "--watch re-analyzes incrementally in the default poly mode; drop --mono".to_owned(),
        );
    }
    let budget = budget_from_flags(rest)?;
    let map = SourceMap::new(src.to_owned());
    let program = parse_program(src).map_err(|e| e.render(&map))?;
    let info = infer_program(&program).map_err(|e| e.render(&map))?;
    let start = std::time::Instant::now();
    let mut inc = Incremental::new(program, info, EngineConfig::default(), budget);
    eprintln!(
        "watching {path}: initial analysis of {} SCCs in {:.1?}",
        inc.analysis().schedule.scc_count,
        start.elapsed()
    );
    print_summaries(inc.analysis());
    // Content-hash change detection (FileWatch): an editor that writes
    // twice within one mtime tick must still trigger a re-analysis, so
    // the modification time is only ever a hint, never the decision.
    let mut watch = FileWatch::seeded(path, src);
    loop {
        std::thread::sleep(Duration::from_millis(100));
        let Some(new_src) = watch.poll() else {
            continue;
        };
        let t = std::time::Instant::now();
        match inc.update_source(&new_src) {
            Ok(analysis) => {
                let s = &analysis.schedule;
                eprintln!(
                    "re-analyzed in {:.1?}: {} solved, {} reused of {} SCCs",
                    t.elapsed(),
                    s.sccs_solved,
                    s.sccs_reused,
                    s.scc_count
                );
                for d in &analysis.degradations {
                    eprintln!("warning: {d}");
                }
            }
            Err(e) => {
                // The analysis rolled back to the last good source; keep
                // watching so the user can fix the file in place.
                let map = SourceMap::new(new_src.clone());
                match e {
                    UpdateError::Syntax(e) => eprintln!("{}", e.render(&map)),
                    UpdateError::Type(e) => eprintln!("{}", e.render(&map)),
                    other => eprintln!("error: {other}"),
                }
            }
        }
    }
}

fn cmd_gen_corpus(rest: &[String]) -> Result<(), String> {
    let seed = parse_num_flag::<u64>(rest, "--seed")?.unwrap_or(0);
    let spec = flag_value(rest, "--shape").unwrap_or("mega");
    let shape = nml_corpusgen::parse_shape(spec).map_err(|e| format!("--shape: {e}"))?;
    let corpus = nml_corpusgen::generate(seed, &shape);
    let src = corpus.source();
    match flag_value(rest, "--out") {
        Some(path) => {
            std::fs::write(path, &src).map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!(
                "wrote {path}: {} functions, {} bytes (seed {seed}, shape {spec})",
                corpus.bindings.len(),
                src.len()
            );
        }
        None => print!("{src}"),
    }
    Ok(())
}

/// Turns the optimization flags into the one [`CompileOptions`] shared
/// by `ir`, `run` and `run --checked`.
///
/// Pass set: `-O` runs the full pass manager, `--local-stack-alloc` the
/// §4.2 planner, `--stack-alloc` / `--auto-reuse` one pass each, and a
/// plain run none. SROA defaults on under the VM (the only engine that
/// scalarizes) and off under the tree-walking oracle. A `checked` run
/// (`run --checked`) checks the full pass manager, SROA included, unless
/// a single-pass flag narrows it to that one pass; only it reads the
/// `--fault-unsound-*` sabotage flags. `--sroa` / `--no-sroa` override.
/// The mark is only a license — the bytecode compiler independently
/// re-verifies each site — so forcing it on is always safe.
fn compile_options_from_flags(rest: &[String], checked: bool) -> Result<CompileOptions, String> {
    if checked && has_flag(rest, "--local-stack-alloc") {
        return Err(
            "--checked is not supported with --local-stack-alloc; use --stack-alloc".to_owned(),
        );
    }
    let full = has_flag(rest, "-O") || has_flag(rest, "--optimize");
    let local_stack = !full && has_flag(rest, "--local-stack-alloc");
    let budget = budget_from_flags(rest)?;
    // The local planner re-analyzes per call site with its own engine; it
    // does not take a budget. Refuse the combination instead of silently
    // ignoring the flags.
    if local_stack && budget != Budget::unlimited() {
        return Err(
            "budget flags are not supported with --local-stack-alloc; use --stack-alloc".to_owned(),
        );
    }
    let narrowed = if has_flag(rest, "--stack-alloc") {
        Some(OptOptions {
            stack: true,
            ..OptOptions::none()
        })
    } else if has_flag(rest, "--auto-reuse") {
        Some(OptOptions {
            reuse: true,
            ..OptOptions::none()
        })
    } else {
        None
    };
    let mut opt = if local_stack {
        OptOptions::none()
    } else if full && !checked {
        OptOptions::default()
    } else if let Some(one) = narrowed {
        one
    } else if full || checked {
        OptOptions::default()
    } else {
        OptOptions::none()
    };
    opt.sroa = if has_flag(rest, "--no-sroa") {
        false
    } else if has_flag(rest, "--sroa") {
        true
    } else if checked {
        opt.sroa
    } else {
        engine_from_flags(rest)? == Engine::Vm
    };
    let mut sabotage = SabotagePlan::default();
    if checked {
        if let Some(list) = flag_value(rest, "--fault-unsound-stack") {
            sabotage = SabotagePlan::stack(parse_site_list(list, "--fault-unsound-stack")?);
        }
        if let Some(list) = flag_value(rest, "--fault-unsound-elide") {
            sabotage.elide_sites = parse_site_list(list, "--fault-unsound-elide")?
                .into_iter()
                .collect();
        }
    }
    Ok(CompileOptions {
        budget,
        schedule: schedule_from_flags(rest)?,
        opt,
        local_stack,
        sabotage,
    })
}

/// Compiles `src` under the flags and applies the degradation policy.
fn compile_for(rest: &[String], src: &str) -> Result<Compiled, String> {
    let opts = compile_options_from_flags(rest, false)?;
    let compiled =
        compile(src, &opts, &QuarantineSet::new()).map_err(|e| render_analyze_err(e, src))?;
    report_analysis(&compiled.analysis, rest)?;
    Ok(compiled)
}

/// Prints the schedule line and the degradation warnings (or, under
/// `--strict`, fails on any degradation).
fn report_analysis(analysis: &Analysis, rest: &[String]) -> Result<(), String> {
    report_schedule(analysis, rest);
    report_degradations(analysis, has_flag(rest, "--strict"))
}

fn cmd_ir(rest: &[String]) -> Result<(), String> {
    let (_, src) = read_file(rest)?;
    let compiled = compile_for(rest, &src)?;
    print!("{}", compiled.ir);
    Ok(())
}

fn cmd_run(rest: &[String]) -> Result<(), String> {
    reject_removed_heap_flag(rest)?;
    let (_, src) = read_file(rest)?;
    if has_flag(rest, "--checked") {
        return cmd_run_checked(rest, &src);
    }
    let compiled = compile_for(rest, &src)?;
    let engine = engine_from_flags(rest)?;
    let mut config = InterpConfig {
        fault: fault_from_flags(rest)?,
        ..InterpConfig::default()
    };
    resource_flags_into(rest, &mut config)?;
    if has_flag(rest, "--profile") {
        return run_profiled(&compiled, config, engine, has_flag(rest, "--stats"));
    }
    let outcome = run(&compiled.ir, config, engine).map_err(|e| e.to_string())?;
    println!("{}", outcome.result);
    if has_flag(rest, "--stats") {
        println!("--- runtime statistics ---");
        println!("{}", outcome.stats);
    }
    Ok(())
}

/// `run --checked`: execute under the soundness sentinel with the
/// quarantine-and-retry loop, then print the final value and — when
/// anything was caught — the quarantine report (stderr), naming every
/// condemned site, the claim it made, and the access that disproved it.
fn cmd_run_checked(rest: &[String], src: &str) -> Result<(), String> {
    let opts = compile_options_from_flags(rest, true)?;
    let mut copts = CheckedOptions {
        engine: engine_from_flags(rest)?,
        ..CheckedOptions::default()
    };
    if let Some(n) = parse_num_flag::<u32>(rest, "--max-retries")? {
        copts.max_retries = n;
    }
    if let Some(p) = flag_value(rest, "--quarantine-file") {
        copts.quarantine_path = Some(PathBuf::from(p));
    }
    let mut config = InterpConfig {
        fault: fault_from_flags(rest)?,
        ..InterpConfig::default()
    };
    resource_flags_into(rest, &mut config)?;
    let (out, compiled) =
        run_checked(src, &opts, &copts, &config).map_err(|e| render_pipeline_err(e, src))?;
    report_analysis(&compiled.analysis, rest)?;
    println!("{}", out.result);
    if !out.quarantined.is_empty() || out.degraded_unoptimized {
        eprintln!(
            "--- checked-mode report: {} violation(s), {} attempt(s) ---",
            out.stats.violations, out.attempts
        );
        for rec in &out.quarantined {
            let owner = owner_label(&compiled, rec.site);
            eprintln!(
                "  quarantined site {:>4} {owner:<20} (attempt {}): {}",
                rec.site.0, rec.attempt, rec.violation
            );
        }
        if out.degraded_unoptimized {
            eprintln!("  degraded to the fully unoptimized interpreter");
        }
    }
    if has_flag(rest, "--stats") {
        println!("--- runtime statistics ---");
        println!("{}", out.stats);
    }
    Ok(())
}

/// `nmlc serve`: compile once, serve many. Blocks until a client sends
/// a shutdown request, then prints the final counters.
fn cmd_serve(rest: &[String]) -> Result<(), String> {
    reject_removed_heap_flag(rest)?;
    let (path, src) = read_file(rest)?;
    let socket = flag_value(rest, "--socket")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("{path}.sock")));
    let mut cfg = ServeConfig {
        budget: budget_from_flags(rest)?,
        ..ServeConfig::default()
    };
    let sched = schedule_from_flags(rest)?;
    cfg.jobs = sched.jobs;
    cfg.summary_cache = sched.summary_cache;
    if let Some(n) = parse_num_flag::<usize>(rest, "--workers")? {
        cfg.workers = n.max(1);
    }
    if let Some(n) = parse_num_flag::<usize>(rest, "--queue-cap")? {
        cfg.queue_cap = n.max(1);
    }
    cfg.default_fuel = parse_num_flag::<u64>(rest, "--fuel")?;
    cfg.default_timeout_ms = parse_num_flag::<u64>(rest, "--timeout-ms")?;
    cfg.max_depth = parse_num_flag::<usize>(rest, "--max-depth")?;
    if let Some(n) = parse_num_flag::<u64>(rest, "--steps-per-ms")? {
        cfg.steps_per_ms = n.max(1);
    }
    if let Some(kb) = parse_num_flag::<usize>(rest, "--nursery-kb")? {
        cfg.nursery_kb = kb;
    }
    if has_flag(rest, "--no-optimize") {
        cfg.optimize = false;
    }
    cfg.checked = has_flag(rest, "--checked");
    if let Some(n) = parse_num_flag::<u32>(rest, "--max-retries")? {
        cfg.max_retries = n;
    }
    cfg.source_path = Some(PathBuf::from(&path));
    cfg.watch = has_flag(rest, "--watch");
    // The flight recorder is on by default (bounded ring next to the
    // socket); `--crash-dir=off` disables it.
    cfg.crash_dir = match flag_value(rest, "--crash-dir") {
        Some("off") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from(format!("{}.crashes", socket.display()))),
    };
    if let Some(n) = parse_num_flag::<usize>(rest, "--crash-ring-cap")? {
        cfg.crash_ring_cap = n.max(1);
    }
    if let Some(n) = parse_num_flag::<u32>(rest, "--crash-escalate-after")? {
        cfg.crash_escalate_after = n.max(1);
    }
    eprintln!(
        "serving {path} on {} ({} workers, queue {}{}{}{})",
        socket.display(),
        cfg.workers,
        cfg.queue_cap,
        if cfg.optimize { ", optimized" } else { "" },
        if cfg.checked { ", checked" } else { "" },
        if cfg.watch { ", watching" } else { "" },
    );
    let report =
        nml_escape_analysis::serve::serve(&src, &socket, &cfg).map_err(|e| e.to_string())?;
    eprintln!(
        "server drained: ok={} guest_errors={} panics={} degraded={} shed={} bad_frames={} \
         quarantined={} reloads_ok={} reloads_failed={} epochs_retired={} epoch_leaks={} \
         crash_bundles={}",
        report.served_ok,
        report.guest_errors,
        report.panics,
        report.degraded,
        report.shed,
        report.bad_frames,
        report.quarantined_sites,
        report.reloads_ok,
        report.reloads_failed,
        report.epochs_retired,
        report.epoch_leaks,
        report.crash_bundles,
    );
    Ok(())
}

/// Builds a [`RetryPolicy`] from the `call` retry flags; `None` when no
/// flag was given (plain single-attempt request).
fn retry_policy_from_flags(rest: &[String]) -> Result<Option<RetryPolicy>, String> {
    let mut policy = RetryPolicy::default();
    let mut any = false;
    if let Some(n) = parse_num_flag::<u32>(rest, "--retries")? {
        policy.max_retries = n;
        any = true;
    }
    if let Some(n) = parse_num_flag::<u32>(rest, "--retry-budget")? {
        policy.retry_budget = n;
        any = true;
    }
    if let Some(ms) = parse_num_flag::<u64>(rest, "--backoff-ms")? {
        policy.base_backoff = Duration::from_millis(ms);
        any = true;
    }
    if let Some(ms) = parse_num_flag::<u64>(rest, "--backoff-cap-ms")? {
        policy.max_backoff = Duration::from_millis(ms);
        any = true;
    }
    if let Some(ms) = parse_num_flag::<u64>(rest, "--call-deadline-ms")? {
        policy.deadline = Some(Duration::from_millis(ms));
        any = true;
    }
    Ok(any.then_some(policy))
}

/// `nmlc call`: one request against a running server. Successful
/// responses go to stdout; error responses go to stderr with a distinct
/// exit code per error kind (see `ErrorKind::exit_code`), so scripts
/// can tell `fuel_exhausted` from `overloaded` without parsing JSON.
/// Retry flags (`--retries` etc.) turn on deadline-aware retries with
/// decorrelated-jitter backoff for retryable kinds only.
fn cmd_call(rest: &[String]) -> Result<(), Failure> {
    let socket = flag_value(rest, "--socket")
        .ok_or_else(|| Failure::from(format!("call requires --socket=PATH\n{USAGE}")))?;
    let line = if has_flag(rest, "--ping") {
        "{\"op\":\"ping\",\"id\":0}".to_owned()
    } else if has_flag(rest, "--stats") {
        "{\"op\":\"stats\",\"id\":0}".to_owned()
    } else if has_flag(rest, "--healthz") {
        "{\"op\":\"healthz\",\"id\":0}".to_owned()
    } else if has_flag(rest, "--reload") {
        "{\"op\":\"reload\",\"id\":0}".to_owned()
    } else if has_flag(rest, "--shutdown") || flag_value(rest, "--shutdown").is_some() {
        let mode = flag_value(rest, "--shutdown").unwrap_or("drain");
        if mode != "drain" && mode != "now" {
            return Err(Failure::from(format!(
                "--shutdown: `{mode}` is not a mode (drain or now)"
            )));
        }
        format!("{{\"op\":\"shutdown\",\"id\":0,\"mode\":\"{mode}\"}}")
    } else if has_flag(rest, "--eval") || flag_value(rest, "--call").is_some() {
        let mut obj = vec![
            ("op".to_owned(), Json::Str("eval".to_owned())),
            ("id".to_owned(), Json::Int(0)),
        ];
        if let Some(f) = flag_value(rest, "--call") {
            obj.push(("call".to_owned(), Json::Str(f.to_owned())));
        }
        if let Some(a) = flag_value(rest, "--args") {
            let v =
                nml_escape_analysis::serve::json::parse(a).map_err(|e| format!("--args: {e}"))?;
            if !matches!(v, Json::Arr(_)) {
                return Err(Failure::from(
                    "--args must be a JSON array (one element per parameter)".to_owned(),
                ));
            }
            obj.push(("args".to_owned(), v));
        }
        if let Some(f) = parse_num_flag::<i64>(rest, "--fuel")? {
            obj.push(("fuel".to_owned(), Json::Int(f)));
        }
        if let Some(t) = parse_num_flag::<i64>(rest, "--timeout-ms")? {
            obj.push(("timeout_ms".to_owned(), Json::Int(t)));
        }
        if let Some(n) = parse_num_flag::<i64>(rest, "--fault-panic-at-alloc")? {
            obj.push((
                "fault".to_owned(),
                Json::Obj(vec![("panic_at_alloc".to_owned(), Json::Int(n))]),
            ));
        }
        Json::Obj(obj).to_string()
    } else {
        return Err(Failure::from(format!(
            "call needs one of --call/--eval/--ping/--stats/--healthz/--reload/--shutdown\n{USAGE}"
        )));
    };
    let policy = retry_policy_from_flags(rest)?;
    let mut client = Client::connect(std::path::Path::new(socket))
        .map_err(|e| Failure::from(format!("connect {socket}: {e}")))?;
    let resp = match policy {
        Some(p) => {
            client.set_retry_policy(p);
            client.call_retry(&line)
        }
        None => client.request(&line),
    }
    .map_err(|e| Failure::from(format!("request failed: {e}")))?;
    if resp.get("status").and_then(Json::as_str) == Some("error") {
        let kind = resp.get("kind").and_then(Json::as_str).unwrap_or("error");
        let msg = resp.get("message").and_then(Json::as_str).unwrap_or("");
        let code = ErrorKind::from_wire(kind).map_or(1, ErrorKind::exit_code);
        return Err(Failure::code(
            code,
            format!("{resp}\nserver answered {kind}: {msg}"),
        ));
    }
    println!("{resp}");
    Ok(())
}

/// `nmlc replay`: deterministically re-execute a crash bundle captured
/// by the serve flight recorder, in-process (no server required).
/// Exits 0 iff the recorded outcome reproduces; `--minimize` then
/// shrinks the request while preserving the crash.
fn cmd_replay(rest: &[String]) -> Result<(), Failure> {
    let path = rest
        .iter()
        .find(|a| !a.starts_with('-'))
        .ok_or_else(|| Failure::from(format!("replay requires a bundle path\n{USAGE}")))?;
    let bundle = CrashBundle::load(std::path::Path::new(path))
        .map_err(|e| Failure::from(format!("{path}: {e}")))?;
    let report = replay(&bundle).map_err(|e| Failure::from(format!("{path}: {e}")))?;
    print!("{}", render_report(&bundle, &report));
    if has_flag(rest, "--minimize") {
        let m = minimize(&bundle).map_err(|e| Failure::from(format!("{path}: {e}")))?;
        println!("minimized ({} attempts): {}", m.attempts, m.request);
    }
    if report.reproduced {
        Ok(())
    } else {
        Err(Failure::code(1, String::new()))
    }
}

/// Runs with per-allocation-site attribution and prints the hottest
/// sites. Both engines attribute on the same `Heap`, so the report is
/// engine-independent.
fn run_profiled(
    compiled: &Compiled,
    config: InterpConfig,
    engine: Engine,
    stats: bool,
) -> Result<(), String> {
    use nml_escape_analysis::runtime::{Interp, Vm};
    match engine {
        Engine::Tree => {
            let mut interp =
                Interp::with_config(&compiled.ir, config).map_err(|e| e.to_string())?;
            let v = interp.run().map_err(|e| e.to_string())?;
            let rendered = render_value(&interp.heap, &v).map_err(|e| e.to_string())?;
            println!("{rendered}");
            report_hot_sites(&interp.heap, compiled, stats);
        }
        Engine::Vm => {
            let mut vm = Vm::with_config(&compiled.ir, config).map_err(|e| e.to_string())?;
            let v = vm.run().map_err(|e| e.to_string())?;
            let rendered = render_value(&vm.heap, &v).map_err(|e| e.to_string())?;
            println!("{rendered}");
            report_hot_sites(&vm.heap, compiled, stats);
        }
    }
    Ok(())
}

/// `in f` for a site owned by function `f`, `in <main>` for the body.
fn owner_label(compiled: &Compiled, site: SiteId) -> String {
    compiled
        .ir
        .site_owner(site)
        .map_or_else(|| "in <main>".to_owned(), |o| format!("in {o}"))
}

fn report_hot_sites(
    heap: &nml_escape_analysis::runtime::Heap<'_>,
    compiled: &Compiled,
    stats: bool,
) {
    println!("--- hottest allocation sites ---");
    for (site, n) in heap.hot_sites().into_iter().take(8) {
        let owner = owner_label(compiled, site);
        println!("  site {:>4} {owner:<20} {n:>8} cells", site.0);
    }
    let reuses = heap.hot_reuse_sites();
    if !reuses.is_empty() {
        println!("--- hottest DCONS reuse sites ---");
        for (site, n) in reuses.into_iter().take(8) {
            let owner = owner_label(compiled, site);
            println!("  site {:>4} {owner:<20} {n:>8} reuses", site.0);
        }
    }
    if stats {
        println!("--- runtime statistics ---");
        println!("{}", heap.stats);
    }
}
