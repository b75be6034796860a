//! The server: compile once, serve many — and recompile under load.
//!
//! One acceptor thread (inline in [`serve`]), one reader thread per
//! connection, and a fixed worker pool over a shared immutable program —
//! each worker owns its own `Vm` (and therefore its own heap), so
//! requests never share mutable runtime state.
//!
//! Robustness layers:
//!
//! - **admission** — a bounded MPMC queue; a full queue sheds the
//!   request with a typed `overloaded` response (never a silent drop),
//!   and a closed queue (shutdown) answers `shutting_down`.
//! - **worker** — every request runs under `catch_unwind`; a panic
//!   poisons only that worker's heap, which is dropped and rebuilt
//!   (crash-only recovery) while the request gets a structured
//!   `worker_panicked` response and the server keeps serving.
//! - **runtime** — per-request fuel (or a wall-clock deadline mapped to
//!   fuel), the engine's depth limit, and a shared cancellation flag
//!   for immediate shutdown; all surface as typed errors.
//! - **checked mode** — a soundness violation goes to the shared
//!   recovery loop (`nml_runtime::recovery`): the offending site is
//!   quarantined in the epoch's set, the source recompiled without its
//!   claim, and the request retried *within itself*; other workers are
//!   never interrupted, and the decision is carried to future epochs
//!   whose defining code is unchanged (see [`crate::epoch`]).
//! - **hot reload** — `{"op":"reload"}` (or `--watch` on the source
//!   file) re-analyzes the program through `core::incremental` off the
//!   worker threads; a broken edit answers `compile_error` and keeps
//!   the old epoch live, a good one atomically swaps the current
//!   `Arc<Epoch>`. In-flight requests finish on their admission epoch;
//!   the old epoch is reclaimed when its last request drains.
//! - **flight recorder** — worker panics and soundness violations are
//!   captured as replayable crash bundles in a bounded on-disk ring
//!   (see [`crate::bundle`] and [`crate::replay`]); repeated crash
//!   signatures escalate to a server-wide quarantine of the site.

use crate::bundle::{BundleConfig, BundleRing, CrashBundle};
use crate::epoch::{CarryMap, Epoch};
use crate::json::Json;
use crate::proto::{self, ErrorKind, EvalRequest, Request};
use nml_escape::{Budget, EngineConfig, Incremental, ScheduleOptions};
use nml_opt::{
    compile, AllocMode, CompileOptions, IrProgram, OptOptions, QuarantineSet, SabotagePlan, SiteId,
};
use nml_runtime::{
    recover, render_value, Claims, FaultPlan, Heap, HeapConfig, InterpConfig, Recovery,
    RuntimeError, SoundnessViolation, Value, Vm,
};
use nml_syntax::Symbol;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, ErrorKind as IoKind, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, RwLock};
use std::time::Duration;

/// Default deadline→fuel calibration: a conservative estimate of VM
/// steps per wall-clock millisecond (release builds run faster; the
/// mapping errs toward letting work finish).
pub const DEFAULT_STEPS_PER_MS: u64 = 200_000;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads (each owns one heap over the shared program).
    pub workers: usize,
    /// Admission-queue capacity; beyond it requests are shed.
    pub queue_cap: usize,
    /// Fuel for requests that specify none (`None` = unmetered).
    pub default_fuel: Option<u64>,
    /// Deadline for requests that specify none, mapped to fuel.
    pub default_timeout_ms: Option<u64>,
    /// Call-depth limit (`None` = the engine default).
    pub max_depth: Option<usize>,
    /// Run the full optimization pass manager on the compiled program.
    pub optimize: bool,
    /// Execute under the soundness sentinel with per-request
    /// quarantine→recompile→retry recovery.
    pub checked: bool,
    /// Violation retries per request before degrading to the
    /// unoptimized program.
    pub max_retries: u32,
    /// Deadline→fuel calibration.
    pub steps_per_ms: u64,
    /// Analysis resource budget (degrades, never fails).
    pub budget: Budget,
    /// Analysis worker threads.
    pub jobs: usize,
    /// Persistent escape-summary cache path.
    pub summary_cache: Option<PathBuf>,
    /// Generational collection in each worker's heap (see
    /// `HeapConfig::gen_gc`).
    pub gen_gc: bool,
    /// Worker nursery size in KiB (see `HeapConfig::nursery_kb`).
    pub nursery_kb: usize,
    /// Deliberate unsound stack claims (sentinel/chaos testing): forced
    /// on every compile, then neutralized site-by-site as checked-mode
    /// violations quarantine them — exactly how a genuine analysis bug
    /// would be worn down at runtime.
    pub sabotage: SabotagePlan,
    /// The source file the program was loaded from. Enables
    /// `{"op":"reload"}` without inline source and `--watch`.
    pub source_path: Option<PathBuf>,
    /// Poll `source_path` for edits and hot-reload on change.
    pub watch: bool,
    /// Directory for the crash-bundle ring (`None` disables the flight
    /// recorder).
    pub crash_dir: Option<PathBuf>,
    /// Maximum bundles kept in the crash ring.
    pub crash_ring_cap: usize,
    /// Crash-signature repeat count at which the implicated site is
    /// quarantined server-wide.
    pub crash_escalate_after: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            queue_cap: 64,
            default_fuel: None,
            default_timeout_ms: None,
            max_depth: None,
            optimize: true,
            checked: false,
            max_retries: 4,
            steps_per_ms: DEFAULT_STEPS_PER_MS,
            budget: Budget::unlimited(),
            jobs: 1,
            summary_cache: None,
            gen_gc: HeapConfig::default().gen_gc,
            nursery_kb: HeapConfig::default().nursery_kb,
            sabotage: SabotagePlan::default(),
            source_path: None,
            watch: false,
            crash_dir: None,
            crash_ring_cap: 16,
            crash_escalate_after: 2,
        }
    }
}

/// A server failure (the *server's* — guest failures are responses).
#[derive(Debug)]
pub enum ServeError {
    /// The program did not compile; the server never started.
    Compile(String),
    /// Socket setup failed.
    Io(std::io::Error),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Compile(m) => write!(f, "compile error: {m}"),
            ServeError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Final server counters, returned by [`serve`] after a clean drain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Requests answered `ok`.
    pub served_ok: u64,
    /// Requests answered with a typed guest failure.
    pub guest_errors: u64,
    /// Worker panics (each also replaced a worker).
    pub panics: u64,
    /// Requests that succeeded only after checked-mode degradation.
    pub degraded: u64,
    /// Requests shed at admission (`overloaded` + `shutting_down`).
    pub shed: u64,
    /// Malformed frames answered `bad_request`.
    pub bad_frames: u64,
    /// Sites quarantined by checked-mode violations.
    pub quarantined_sites: u64,
    /// Successful hot reloads (epoch swaps).
    pub reloads_ok: u64,
    /// Rejected reloads (broken edits; the old epoch stayed live).
    pub reloads_failed: u64,
    /// Replaced epochs fully drained and reclaimed.
    pub epochs_retired: u64,
    /// Epochs reclaimed while still carrying an in-flight count — a
    /// request vanished without a response. Must stay zero.
    pub epoch_leaks: u64,
    /// Crash bundles written to the flight-recorder ring.
    pub crash_bundles: u64,
}

#[derive(Default)]
pub(crate) struct Stats {
    served_ok: AtomicU64,
    guest_errors: AtomicU64,
    panics: AtomicU64,
    degraded: AtomicU64,
    shed: AtomicU64,
    bad_frames: AtomicU64,
    quarantined_sites: AtomicU64,
    reloads_ok: AtomicU64,
    reloads_failed: AtomicU64,
    pub(crate) epochs_retired: AtomicU64,
    pub(crate) epoch_leaks: AtomicU64,
    crash_bundles: AtomicU64,
}

impl Stats {
    fn report(&self) -> ServerReport {
        ServerReport {
            served_ok: self.served_ok.load(Ordering::Relaxed),
            guest_errors: self.guest_errors.load(Ordering::Relaxed),
            panics: self.panics.load(Ordering::Relaxed),
            degraded: self.degraded.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
            bad_frames: self.bad_frames.load(Ordering::Relaxed),
            quarantined_sites: self.quarantined_sites.load(Ordering::Relaxed),
            reloads_ok: self.reloads_ok.load(Ordering::Relaxed),
            reloads_failed: self.reloads_failed.load(Ordering::Relaxed),
            epochs_retired: self.epochs_retired.load(Ordering::Relaxed),
            epoch_leaks: self.epoch_leaks.load(Ordering::Relaxed),
            crash_bundles: self.crash_bundles.load(Ordering::Relaxed),
        }
    }

    fn render(&self) -> String {
        let r = self.report();
        format!(
            "ok={} guest_errors={} panics={} degraded={} shed={} bad_frames={} quarantined={} \
             reloads_ok={} reloads_failed={} epochs_retired={} epoch_leaks={} crash_bundles={}",
            r.served_ok,
            r.guest_errors,
            r.panics,
            r.degraded,
            r.shed,
            r.bad_frames,
            r.quarantined_sites,
            r.reloads_ok,
            r.reloads_failed,
            r.epochs_retired,
            r.epoch_leaks,
            r.crash_bundles
        )
    }
}

/// Locks a mutex, recovering from poisoning: the protected values
/// (queue, stats, client streams) stay structurally valid across a
/// worker panic, and crash-only recovery must keep serving.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

// ---------------------------------------------------------------------
// Bounded MPMC admission queue
// ---------------------------------------------------------------------

/// Why admission failed.
enum AdmitError {
    /// The queue is at capacity — shed with `overloaded`.
    Full,
    /// The server is draining — shed with `shutting_down`.
    Closed,
}

struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded multi-producer/multi-consumer queue (std's mpsc channel is
/// single-consumer, and the pool needs any-worker pickup).
struct BoundedQueue<T> {
    cap: usize,
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
}

impl<T> BoundedQueue<T> {
    fn new(cap: usize) -> Self {
        BoundedQueue {
            cap: cap.max(1),
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
        }
    }

    /// Admission: never blocks, never silently drops.
    fn try_push(&self, item: T) -> Result<(), (AdmitError, T)> {
        let mut g = lock(&self.inner);
        if g.closed {
            return Err((AdmitError::Closed, item));
        }
        if g.items.len() >= self.cap {
            return Err((AdmitError::Full, item));
        }
        g.items.push_back(item);
        drop(g);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed *and* drained — the
    /// worker-pool exit condition that guarantees every admitted
    /// request is answered.
    fn pop(&self) -> Option<T> {
        let mut g = lock(&self.inner);
        loop {
            if let Some(item) = g.items.pop_front() {
                return Some(item);
            }
            if g.closed {
                return None;
            }
            g = self
                .ready
                .wait(g)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Items currently queued (a point-in-time reading for `healthz`).
    fn len(&self) -> usize {
        lock(&self.inner).items.len()
    }

    fn close(&self) {
        lock(&self.inner).closed = true;
        self.ready.notify_all();
    }
}

// ---------------------------------------------------------------------
// Shared server state
// ---------------------------------------------------------------------

type SharedWriter = Arc<Mutex<UnixStream>>;

struct Job {
    req: EvalRequest,
    /// The raw request line, verbatim, for crash bundles.
    raw: String,
    out: SharedWriter,
    /// The epoch the request was admitted under; the worker executes it
    /// there even if a reload lands first.
    epoch: Arc<Epoch>,
}

/// The reload engine: a lazily seeded incremental re-analyzer. Seeded
/// from the live epoch's source on the first reload, then driven by
/// `update_source` — which rolls back wholesale on broken edits, so a
/// failed reload leaves both the engine and the epoch untouched. The
/// solver state *is* the cross-epoch summary carryover: unchanged SCCs
/// are reused, only dirtied ones re-solve.
struct ReloadState {
    inc: Option<Incremental>,
}

struct Shared {
    queue: BoundedQueue<Job>,
    /// Stop accepting connections (set by a shutdown request).
    stopping: AtomicBool,
    /// Hard-cancel flag shared with every worker's engine.
    cancel: Arc<AtomicBool>,
    /// All admitted work answered; readers may exit.
    done: AtomicBool,
    stats: Arc<Stats>,
    /// The current epoch; admission clones the `Arc`, reload swaps it.
    current: RwLock<Arc<Epoch>>,
    /// Next epoch id (the boot program is epoch 1).
    epoch_seq: AtomicU64,
    reload: Mutex<ReloadState>,
    /// Quarantine carryover across epochs, keyed by content hash.
    qmap: Mutex<CarryMap>,
    /// Flight recorder (`None` when disabled or its dir was unusable).
    recorder: Mutex<Option<BundleRing>>,
    /// Crash-signature occurrence counts, for auto-escalation.
    crash_counts: Mutex<HashMap<String, u32>>,
}

impl Shared {
    fn current_epoch(&self) -> Arc<Epoch> {
        self.current
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

fn respond(out: &SharedWriter, line: &str) {
    // A vanished client is not a server failure; the write result is
    // deliberately ignored.
    let mut g = lock(out);
    let _ = g.write_all(line.as_bytes());
    let _ = g.write_all(b"\n");
    let _ = g.flush();
}

/// Writes the job's response and releases its in-flight pin, in that
/// order — an epoch counts as drained only once every admitted request
/// has its answer on the wire.
fn finish(job: &Job, line: &str) {
    respond(&job.out, line);
    job.epoch.inflight.fetch_sub(1, Ordering::SeqCst);
}

// ---------------------------------------------------------------------
// Compilation
// ---------------------------------------------------------------------

/// The compile options a server configuration stands for: the governed,
/// SCC-scheduled analysis, the full pass manager when `optimize`, and
/// the configured sabotage.
pub(crate) fn compile_options(cfg: &ServeConfig, optimize: bool) -> CompileOptions {
    CompileOptions {
        budget: cfg.budget,
        schedule: ScheduleOptions {
            jobs: cfg.jobs,
            summary_cache: cfg.summary_cache.clone(),
        },
        opt: if optimize {
            OptOptions::default()
        } else {
            OptOptions::none()
        },
        local_stack: false,
        sabotage: cfg.sabotage.clone(),
    }
}

/// Compiles `src` as the server would, minus any quarantined sites.
///
/// # Errors
///
/// A rendered front-end diagnostic (syntax/type errors).
pub fn compile_program(
    src: &str,
    cfg: &ServeConfig,
    quarantine: &QuarantineSet,
    optimize: bool,
) -> Result<IrProgram, String> {
    compile(src, &compile_options(cfg, optimize), quarantine)
        .map(|c| c.ir)
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Request execution (worker side)
// ---------------------------------------------------------------------

/// Turns a JSON argument into a guest value (integers, booleans, and
/// arrays as lists, built innermost-first on the worker's heap).
///
/// Recursion is bounded by the same depth cap as the protocol parser
/// (`json::MAX_DEPTH`); the parser already enforces it on every frame,
/// this re-check keeps the worker's stack safe against any future
/// caller that builds a `Json` some other way.
fn build_arg<'p>(heap: &mut Heap<'p>, j: &Json, depth: usize) -> Result<Value<'p>, String> {
    if depth >= crate::json::MAX_DEPTH {
        return Err(format!(
            "argument nesting deeper than {}",
            crate::json::MAX_DEPTH
        ));
    }
    match j {
        Json::Int(n) => Ok(Value::Int(*n)),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Arr(items) => {
            let mut vs = Vec::with_capacity(items.len());
            for it in items {
                vs.push(build_arg(heap, it, depth + 1)?);
            }
            let mut acc = Value::Nil;
            for v in vs.into_iter().rev() {
                let cell = heap.alloc(v, acc, AllocMode::Heap);
                acc = Value::Pair(cell);
            }
            Ok(acc)
        }
        other => Err(format!(
            "unsupported argument {other} (int, bool, or array)"
        )),
    }
}

pub(crate) enum ReqError {
    /// The request itself was unusable (bad argument shape).
    Bad(String),
    /// The guest program failed.
    Rt(RuntimeError),
    /// Checked-mode recovery could not rebuild the program.
    Recompile(String),
}

impl From<RuntimeError> for ReqError {
    fn from(e: RuntimeError) -> Self {
        ReqError::Rt(e)
    }
}

/// The per-request fuel: explicit fuel, else the deadline mapping, else
/// the server defaults.
pub(crate) fn request_fuel(req: &EvalRequest, cfg: &ServeConfig) -> Option<u64> {
    req.fuel
        .or_else(|| req.timeout_ms.map(|ms| ms.saturating_mul(cfg.steps_per_ms)))
        .or(cfg.default_fuel)
        .or_else(|| {
            cfg.default_timeout_ms
                .map(|ms| ms.saturating_mul(cfg.steps_per_ms))
        })
}

/// Runs one request on `vm`, restoring the machine's inert fault plan
/// and unlimited fuel afterwards (also on the error paths — the next
/// request must not inherit this one's knobs).
pub(crate) fn execute<'p>(
    vm: &mut Vm<'p>,
    req: &EvalRequest,
    fuel: Option<u64>,
) -> Result<(String, u64), ReqError> {
    vm.set_fault_plan(req.fault.clone());
    vm.set_fuel(fuel);
    let before = vm.heap.stats.steps;
    let r = (|| -> Result<String, ReqError> {
        let v = match &req.call {
            Some(name) => {
                // Probe without interning: the interner is append-only
                // and process-wide, so interning every bogus
                // client-supplied name would leak for the life of the
                // server. Every name in the compiled program is already
                // interned, so a miss is always unbound.
                let sym = Symbol::lookup(name)
                    .ok_or_else(|| ReqError::Rt(RuntimeError::Unbound { name: name.clone() }))?;
                let mut args = Vec::with_capacity(req.args.len());
                for a in &req.args {
                    args.push(build_arg(&mut vm.heap, a, 0).map_err(ReqError::Bad)?);
                }
                vm.call(sym, args)?
            }
            None => vm.run()?,
        };
        Ok(render_value(&vm.heap, &v)?)
    })();
    let steps = vm.heap.stats.steps.saturating_sub(before);
    vm.set_fault_plan(FaultPlan::default());
    vm.set_fuel(None);
    r.map(|result| (result, steps))
}

/// The execution-shaping interpreter configuration (no cancel flag);
/// shared between workers and in-process replay.
pub(crate) fn base_interp_config(cfg: &ServeConfig, checked: bool) -> InterpConfig {
    let mut c = InterpConfig {
        heap: HeapConfig {
            checked,
            gen_gc: cfg.gen_gc,
            nursery_kb: cfg.nursery_kb,
            ..HeapConfig::default()
        },
        ..InterpConfig::default()
    };
    if let Some(d) = cfg.max_depth {
        c.max_depth = d;
    }
    c
}

fn worker_interp_config(cfg: &ServeConfig, sh: &Shared, checked: bool) -> InterpConfig {
    let mut c = base_interp_config(cfg, checked);
    c.cancel = Some(sh.cancel.clone());
    c
}

// ---------------------------------------------------------------------
// Crash forensics
// ---------------------------------------------------------------------

/// Extracts a printable message from a `catch_unwind` payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_owned()
    }
}

/// Records one crash: writes a bundle to the flight-recorder ring and
/// counts the signature; a signature seen `crash_escalate_after` times
/// escalates to quarantining the implicated site server-wide (in both
/// the admission epoch and the current one, plus the carry map so the
/// decision survives future reloads).
fn record_crash(
    sh: &Shared,
    cfg: &ServeConfig,
    job: &Job,
    kind: &str,
    signature: &str,
    site: Option<SiteId>,
    steps: u64,
) {
    // The bundle records the quarantine set the epoch's program was
    // built with — the program that crashed — not the live set, which
    // other requests (and the escalation below) keep growing: replay
    // must rebuild exactly that program, or it cannot reproduce it.
    let bundle = CrashBundle {
        version: 1,
        kind: kind.to_owned(),
        signature: signature.to_owned(),
        epoch: job.epoch.id,
        program_hash: format!("{:016x}", job.epoch.program_hash),
        src: job.epoch.src.clone(),
        request: job.raw.trim().to_owned(),
        site: site.map(|s| s.0),
        config: BundleConfig::capture(cfg, job.epoch.built_with.iter().map(|s| s.0).collect()),
        steps,
    };
    {
        let mut rec = lock(&sh.recorder);
        if let Some(ring) = rec.as_mut() {
            match ring.push(&bundle) {
                Ok(_) => {
                    sh.stats.crash_bundles.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => eprintln!("serve: crash bundle write failed: {e}"),
            }
        }
    }
    let repeats = {
        let mut g = lock(&sh.crash_counts);
        let c = g.entry(signature.to_owned()).or_insert(0);
        *c += 1;
        *c
    };
    if repeats >= cfg.crash_escalate_after {
        if let Some(site) = site {
            let mut qmap = lock(&sh.qmap);
            if job.epoch.record_quarantine(site, &mut qmap) {
                sh.stats.quarantined_sites.fetch_add(1, Ordering::Relaxed);
            }
            let cur = sh.current_epoch();
            if !Arc::ptr_eq(&cur, &job.epoch) && cur.record_quarantine(site, &mut qmap) {
                sh.stats.quarantined_sites.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Checked-mode recovery for one request: rebuilds recompile the
/// epoch's source, quarantines go into the epoch's shared set (and the
/// cross-epoch carry map), and every run happens on a fresh VM of this
/// worker. Other workers keep serving the original program.
struct Recompile<'a> {
    cfg: &'a ServeConfig,
    sh: &'a Shared,
    job: &'a Job,
    fuel: Option<u64>,
}

impl Recovery for Recompile<'_> {
    type Output = (String, u64);
    type Error = ReqError;

    fn attempt(&mut self, claims: Claims<'_>) -> Result<(String, u64), ReqError> {
        let opts = compile_options(self.cfg, self.cfg.optimize);
        let (built, checked) = match claims {
            Claims::Without(q) => (compile(&self.job.epoch.src, &opts, q), true),
            Claims::None => (
                compile(
                    &self.job.epoch.src,
                    &opts.claim_free(),
                    &QuarantineSet::new(),
                ),
                false,
            ),
        };
        let ir = built.map_err(|e| ReqError::Recompile(e.to_string()))?.ir;
        let mut vm = Vm::with_config(&ir, worker_interp_config(self.cfg, self.sh, checked))?;
        execute(&mut vm, &self.job.req, self.fuel)
    }

    fn violation(err: &ReqError) -> Option<&SoundnessViolation> {
        match err {
            ReqError::Rt(RuntimeError::Soundness(v)) => Some(v),
            _ => None,
        }
    }

    fn quarantine(&mut self, site: SiteId, _: &SoundnessViolation, _: u32) -> QuarantineSet {
        let epoch = &self.job.epoch;
        if epoch.record_quarantine(site, &mut lock(&self.sh.qmap)) {
            self.sh
                .stats
                .quarantined_sites
                .fetch_add(1, Ordering::Relaxed);
        }
        epoch.quarantine_snapshot()
    }
}

/// Checked-mode recovery, entirely within the failing request: records
/// the crash, then hands the violation to the recovery loop
/// ([`nml_runtime::recovery`]). Requests that hit the same site degrade
/// the same way, in isolation.
fn recover_violation(
    cfg: &ServeConfig,
    sh: &Shared,
    job: &Job,
    fuel: Option<u64>,
    first: ReqError,
) -> String {
    let epoch = &job.epoch;
    if let Some(v) = Recompile::violation(&first) {
        let site_label = match v.site {
            Some(s) => epoch.site_label(s),
            None => "<unattributed>".to_owned(),
        };
        record_crash(
            sh,
            cfg,
            job,
            "soundness_violation",
            &format!("soundness:{site_label}:{}", v.claim),
            v.site,
            0,
        );
    }
    let mut target = Recompile { cfg, sh, job, fuel };
    match recover(
        &mut target,
        epoch.built_with.clone(),
        Err(first),
        cfg.max_retries,
    ) {
        Ok(r) => {
            sh.stats.served_ok.fetch_add(1, Ordering::Relaxed);
            sh.stats.degraded.fetch_add(1, Ordering::Relaxed);
            let (result, steps) = r.output;
            proto::ok_response_at(job.req.id, &result, steps, true, Some(epoch.id))
        }
        Err(e) => guest_error_response(job.req.id, sh, e, Some(epoch.id)),
    }
}

fn guest_error_response(id: Option<i64>, sh: &Shared, e: ReqError, epoch: Option<u64>) -> String {
    match e {
        ReqError::Bad(m) => {
            sh.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
            proto::error_response_at(id, ErrorKind::BadRequest, &m, epoch)
        }
        ReqError::Rt(e) => {
            sh.stats.guest_errors.fetch_add(1, Ordering::Relaxed);
            proto::error_response_at(id, ErrorKind::of_runtime(&e), &e.to_string(), epoch)
        }
        ReqError::Recompile(m) => proto::error_response_at(
            id,
            ErrorKind::Runtime,
            &format!("recovery recompile failed: {m}"),
            epoch,
        ),
    }
}

/// One worker: owns a `Vm` (heap included) over its pinned epoch's
/// program, serves jobs until the queue closes and drains. A panic
/// during a request is caught, answered, recorded as a crash bundle,
/// and the machine rebuilt from scratch — crash-only recovery, nothing
/// from the poisoned heap survives. When a job from a *different* epoch
/// arrives (a reload landed), the worker re-pins and rebuilds once;
/// steady-state traffic still runs compile-once/run-many.
fn worker_loop(cfg: &ServeConfig, sh: &Shared) {
    // A job popped under an old pin, waiting for the machine rebuild.
    let mut carried: Option<Job> = None;
    'epoch: loop {
        let first = match carried.take().or_else(|| sh.queue.pop()) {
            Some(j) => j,
            None => return,
        };
        let epoch = first.epoch.clone();
        let build = || Vm::with_config(&epoch.program, worker_interp_config(cfg, sh, cfg.checked));
        let mut vm = build().ok();
        let mut next = Some(first);
        loop {
            let job = match next.take().or_else(|| sh.queue.pop()) {
                Some(j) => j,
                None => return,
            };
            if !Arc::ptr_eq(&job.epoch, &epoch) {
                // Reload landed: finish this pin, rebuild on the job's
                // epoch. `vm` (borrowing `epoch`) drops here, so the
                // old epoch can drain.
                carried = Some(job);
                continue 'epoch;
            }
            if vm.is_none() {
                vm = build().ok();
            }
            let Some(m) = vm.as_mut() else {
                sh.stats.guest_errors.fetch_add(1, Ordering::Relaxed);
                finish(
                    &job,
                    &proto::error_response_at(
                        job.req.id,
                        ErrorKind::Runtime,
                        "worker failed to initialize the program",
                        Some(epoch.id),
                    ),
                );
                continue;
            };
            let req = &job.req;
            let fuel = request_fuel(req, cfg);
            let run = catch_unwind(AssertUnwindSafe(|| match execute(m, req, fuel) {
                Ok((result, steps)) => {
                    sh.stats.served_ok.fetch_add(1, Ordering::Relaxed);
                    proto::ok_response_at(req.id, &result, steps, false, Some(epoch.id))
                }
                Err(e @ ReqError::Rt(RuntimeError::Soundness(_))) if cfg.checked => {
                    recover_violation(cfg, sh, &job, fuel, e)
                }
                Err(e) => guest_error_response(req.id, sh, e, Some(epoch.id)),
            }));
            match run {
                Ok(line) => finish(&job, &line),
                Err(payload) => {
                    let steps = vm.as_ref().map_or(0, |m| m.heap.stats.steps);
                    // Crash-only: the poisoned machine (heap and all) is
                    // dropped; the next job gets a fresh one.
                    vm = None;
                    sh.stats.panics.fetch_add(1, Ordering::Relaxed);
                    let msg = panic_message(payload.as_ref());
                    record_crash(
                        sh,
                        cfg,
                        &job,
                        "worker_panicked",
                        &format!("panic:{msg}"),
                        None,
                        steps,
                    );
                    finish(
                        &job,
                        &proto::error_response_at(
                            job.req.id,
                            ErrorKind::WorkerPanicked,
                            "worker panicked on this request and was replaced",
                            Some(epoch.id),
                        ),
                    );
                }
            }
        }
    }
}

// ---------------------------------------------------------------------
// Hot reload
// ---------------------------------------------------------------------

/// Validates and installs a new program epoch.
///
/// Compilation and re-analysis happen on the calling (reader or
/// watcher) thread while the workers keep serving the old epoch; the
/// current-slot write lock is held only for the pointer swap, so
/// admission stalls by at most one lock handoff. Any error — syntax,
/// type, analysis — leaves the live epoch and the reload engine
/// untouched (the incremental engine rolls back wholesale).
fn do_reload(sh: &Shared, cfg: &ServeConfig, new_src: &str) -> Result<String, String> {
    let mut eng = lock(&sh.reload);
    if eng.inc.is_none() {
        // First reload: seed the incremental engine from the live
        // epoch's source (which compiled at boot, so this cannot fail
        // on a healthy server; surface the error if it somehow does).
        let boot_src = sh.current_epoch().src.clone();
        let program =
            nml_syntax::parse_program(&boot_src).map_err(|e| format!("re-seed parse: {e}"))?;
        let info = nml_types::infer_program(&program).map_err(|e| format!("re-seed types: {e}"))?;
        eng.inc = Some(Incremental::new(
            program,
            info,
            EngineConfig::default(),
            cfg.budget,
        ));
    }
    let inc = eng.inc.as_mut().expect("seeded above");
    let analysis = inc.update_source(new_src).map_err(|e| e.to_string())?;
    let solved = analysis.schedule.sccs_solved;
    let reused = analysis.schedule.sccs_reused;
    let id = sh.epoch_seq.fetch_add(1, Ordering::SeqCst);
    let epoch = {
        let qmap = lock(&sh.qmap);
        Epoch::build(id, analysis, new_src, cfg, &qmap, sh.stats.clone())?
    };
    let carried = epoch.quarantine_len();
    let hash = epoch.program_hash;
    let fresh = Arc::new(epoch);
    {
        let mut cur = sh
            .current
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        cur.retire();
        *cur = fresh;
    }
    Ok(format!(
        "epoch {id} hash {hash:016x} sccs_solved {solved} sccs_reused {reused} carried_quarantine {carried}"
    ))
}

/// Resolves the reload source (inline from the request, else the
/// server's source file), runs [`do_reload`], and counts the outcome.
fn reload_from(sh: &Shared, cfg: &ServeConfig, explicit: Option<String>) -> Result<String, String> {
    let r = (|| {
        let src = match explicit {
            Some(s) => s,
            None => match &cfg.source_path {
                Some(p) => std::fs::read_to_string(p)
                    .map_err(|e| format!("cannot re-read {}: {e}", p.display()))?,
                None => {
                    return Err(
                        "reload needs inline \"src\" (server was not started from a file)"
                            .to_owned(),
                    )
                }
            },
        };
        do_reload(sh, cfg, &src)
    })();
    match &r {
        Ok(_) => sh.stats.reloads_ok.fetch_add(1, Ordering::Relaxed),
        Err(_) => sh.stats.reloads_failed.fetch_add(1, Ordering::Relaxed),
    };
    r
}

/// `--watch`: polls the source file (content-hash based, immune to the
/// mtime-tick miss) and hot-reloads on change; a broken edit is
/// reported and the old epoch stays live, exactly like `analyze
/// --watch`.
fn watch_loop(path: PathBuf, boot_src: &str, cfg: &ServeConfig, sh: &Shared) {
    let mut fw = crate::watch::FileWatch::seeded(&path, boot_src);
    loop {
        // 100ms poll period, sliced so shutdown is prompt.
        for _ in 0..10 {
            if sh.stopping.load(Ordering::SeqCst) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        if let Some(new_src) = fw.poll() {
            match reload_from(sh, cfg, Some(new_src)) {
                Ok(d) => eprintln!("watch: reloaded: {d}"),
                Err(m) => eprintln!("watch: reload rejected (old epoch stays live): {m}"),
            }
        }
    }
}

// ---------------------------------------------------------------------
// Connection readers + acceptor
// ---------------------------------------------------------------------

fn handle_line(line: &str, out: &SharedWriter, sh: &Shared, cfg: &ServeConfig) {
    let line = line.trim();
    if line.is_empty() {
        return;
    }
    match proto::parse_request(line) {
        Err((id, msg)) => {
            sh.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
            respond(out, &proto::error_response(id, ErrorKind::BadRequest, &msg));
        }
        Ok(Request::Ping { id }) => {
            respond(out, &proto::ok_response(id, "pong", 0, false));
        }
        Ok(Request::Stats { id }) => {
            let ep = sh.current_epoch();
            let msg = format!("{} epoch={}", sh.stats.render(), ep.id);
            respond(out, &proto::ok_response(id, &msg, 0, false));
        }
        Ok(Request::Healthz { id }) => {
            // Cheap and inline: answered by the reader thread, so it
            // stays responsive under a saturated worker pool — the
            // client's circuit breaker probes it to half-open.
            let ep = sh.current_epoch();
            let msg = format!(
                "ok epoch={} inflight={} queued={} quarantined={}",
                ep.id,
                ep.inflight.load(Ordering::SeqCst),
                sh.queue.len(),
                ep.quarantine_len()
            );
            respond(out, &proto::ok_response(id, &msg, 0, false));
        }
        Ok(Request::Reload { id, src }) => match reload_from(sh, cfg, src) {
            Ok(desc) => respond(out, &proto::ok_response(id, &desc, 0, false)),
            Err(m) => respond(out, &proto::error_response(id, ErrorKind::CompileError, &m)),
        },
        Ok(Request::Shutdown { id, now }) => {
            // Respond first (the reply must not race the drain), then
            // stop admissions; "now" also cancels in-flight work.
            respond(
                out,
                &proto::ok_response(id, if now { "stopping" } else { "draining" }, 0, false),
            );
            if now {
                sh.cancel.store(true, Ordering::SeqCst);
            }
            sh.stopping.store(true, Ordering::SeqCst);
            sh.queue.close();
        }
        Ok(Request::Eval(req)) => {
            // Admission pins the current epoch: the request runs there
            // even if a reload swaps the slot before a worker picks it
            // up. The pin is released by `finish` after the response.
            let epoch = sh.current_epoch();
            epoch.inflight.fetch_add(1, Ordering::SeqCst);
            let job = Job {
                req,
                raw: line.to_owned(),
                out: out.clone(),
                epoch,
            };
            match sh.queue.try_push(job) {
                Ok(()) => {}
                Err((AdmitError::Full, job)) => {
                    job.epoch.inflight.fetch_sub(1, Ordering::SeqCst);
                    sh.stats.shed.fetch_add(1, Ordering::Relaxed);
                    respond(
                        &job.out,
                        &proto::error_response(
                            job.req.id,
                            ErrorKind::Overloaded,
                            "request queue is full; retry later",
                        ),
                    );
                }
                Err((AdmitError::Closed, job)) => {
                    job.epoch.inflight.fetch_sub(1, Ordering::SeqCst);
                    sh.stats.shed.fetch_add(1, Ordering::Relaxed);
                    respond(
                        &job.out,
                        &proto::error_response(
                            job.req.id,
                            ErrorKind::ShuttingDown,
                            "server is shutting down",
                        ),
                    );
                }
            }
        }
    }
}

fn reader_loop(stream: UnixStream, sh: &Shared, cfg: &ServeConfig) {
    // The timeout doubles as the shutdown poll interval.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let Ok(writer) = stream.try_clone() else {
        return;
    };
    let out: SharedWriter = Arc::new(Mutex::new(writer));
    let mut reader = BufReader::new(stream);
    // Accumulate bytes, not a String: `read_line` discards its partial
    // tail when a read times out mid-frame and the tail is not valid
    // UTF-8 (a multi-byte character split across the timeout boundary
    // would silently corrupt the frame). `read_until` keeps every byte
    // consumed from the socket; UTF-8 is validated per complete line
    // and a bad line becomes a `bad_request` response.
    let mut buf = Vec::new();
    loop {
        if sh.done.load(Ordering::Relaxed) {
            return;
        }
        match reader.read_until(b'\n', &mut buf) {
            Ok(n) => {
                // `read_until` returns Ok only at the delimiter or at
                // EOF (n == 0 and nothing new once drained).
                let eof = n == 0;
                if !buf.is_empty() && (eof || buf.ends_with(b"\n")) {
                    match std::str::from_utf8(&buf) {
                        Ok(line) => handle_line(line, &out, sh, cfg),
                        Err(_) => {
                            sh.stats.bad_frames.fetch_add(1, Ordering::Relaxed);
                            respond(
                                &out,
                                &proto::error_response(
                                    None,
                                    ErrorKind::BadRequest,
                                    "frame is not valid UTF-8",
                                ),
                            );
                        }
                    }
                    buf.clear();
                }
                if eof {
                    return; // client closed
                }
            }
            // Timeout: `buf` keeps the partial frame; poll again.
            Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {}
            Err(e) if e.kind() == IoKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

// ---------------------------------------------------------------------
// The server entry
// ---------------------------------------------------------------------

/// Compiles `src` once and serves eval requests on a Unix socket at
/// `socket` until a `shutdown` request, hot-reloading the program on
/// `{"op":"reload"}` (and on source edits under `--watch`). Returns the
/// final counters after a clean drain (every admitted request answered,
/// all threads joined, socket file removed).
///
/// # Errors
///
/// [`ServeError::Compile`] if the program doesn't compile (the socket
/// is never created), [`ServeError::Io`] for socket setup failures.
pub fn serve(src: &str, socket: &Path, cfg: &ServeConfig) -> Result<ServerReport, ServeError> {
    let stats = Arc::new(Stats::default());
    let analysis = nml_opt::analyze(src, &compile_options(cfg, cfg.optimize))
        .map_err(|e| ServeError::Compile(e.to_string()))?;
    let qmap = CarryMap::new();
    let boot =
        Epoch::build(1, &analysis, src, cfg, &qmap, stats.clone()).map_err(ServeError::Compile)?;
    drop(analysis);
    let _ = std::fs::remove_file(socket);
    let listener = UnixListener::bind(socket).map_err(ServeError::Io)?;
    listener.set_nonblocking(true).map_err(ServeError::Io)?;
    let recorder = match &cfg.crash_dir {
        Some(dir) => match BundleRing::new(dir, cfg.crash_ring_cap) {
            Ok(r) => Some(r),
            Err(e) => {
                eprintln!("serve: flight recorder disabled ({}: {e})", dir.display());
                None
            }
        },
        None => None,
    };
    let shared = Shared {
        queue: BoundedQueue::new(cfg.queue_cap),
        stopping: AtomicBool::new(false),
        cancel: Arc::new(AtomicBool::new(false)),
        done: AtomicBool::new(false),
        stats: stats.clone(),
        current: RwLock::new(Arc::new(boot)),
        epoch_seq: AtomicU64::new(2),
        reload: Mutex::new(ReloadState { inc: None }),
        qmap: Mutex::new(qmap),
        recorder: Mutex::new(recorder),
        crash_counts: Mutex::new(HashMap::new()),
    };
    let sh = &shared;
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..cfg.workers.max(1))
            .map(|_| s.spawn(move || worker_loop(cfg, sh)))
            .collect();
        if cfg.watch {
            if let Some(path) = cfg.source_path.clone() {
                s.spawn(move || watch_loop(path, src, cfg, sh));
            }
        }
        while !sh.stopping.load(Ordering::SeqCst) {
            match listener.accept() {
                Ok((stream, _)) => {
                    s.spawn(move || reader_loop(stream, sh, cfg));
                }
                Err(e) if matches!(e.kind(), IoKind::WouldBlock | IoKind::TimedOut) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == IoKind::Interrupted => {}
                Err(_) => break,
            }
        }
        // Shutdown: no new admissions (idempotent if the handler
        // already closed the queue), drain the pool, then release the
        // readers.
        sh.queue.close();
        for w in workers {
            let _ = w.join();
        }
        sh.done.store(true, Ordering::SeqCst);
    });
    let _ = std::fs::remove_file(socket);
    // Drop the final epoch before reading the counters, so its leak
    // accounting (if any) lands in the report.
    drop(shared);
    Ok(stats.report())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `build_arg` is depth-limited in its own right, independent of
    /// the protocol parser's limit.
    #[test]
    fn build_arg_rejects_excessive_nesting() {
        let mut deep = Json::Int(1);
        for _ in 0..(crate::json::MAX_DEPTH + 1) {
            deep = Json::Arr(vec![deep]);
        }
        let mut heap = Heap::new(HeapConfig::default());
        let err = build_arg(&mut heap, &deep, 0).unwrap_err();
        assert!(err.contains("nesting"), "{err}");

        // At the boundary it still works.
        let mut ok = Json::Int(1);
        for _ in 0..(crate::json::MAX_DEPTH - 1) {
            ok = Json::Arr(vec![ok]);
        }
        assert!(build_arg(&mut heap, &ok, 0).is_ok());
    }
}
