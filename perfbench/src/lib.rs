//! The repository benchmark: four workloads (`compile`, `edit`, `run`,
//! `serve`) that drive the public API of the nml crates from one process
//! and time every call from outside.
//!
//! Every workload times one kind of operation and reports the same
//! metrics. An untraced run reports the end-to-end metrics
//! ([`END_TO_END`]): set-up time, peak memory and the operation's median
//! latency.
//! A traced run wraps each call into a layer (`nml-syntax`, `nml-types`,
//! `nml-escape`, `nml-opt`, `nml-runtime`, `nml-serve`) in a span and
//! reports the per-layer metrics ([`PER_LAYER`]); a layer the workload
//! never calls reports 0. Every output is checked outside the timed
//! regions against an independent expected value; a mismatch or an error
//! reply counts as a failed operation.

pub mod compile;
pub mod corpora;
pub mod edit;
pub mod pipeline;
pub mod programs;
pub mod run;
pub mod serve;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Where runs keep their working files (summary cache, socket),
/// relative to the checkout root the benchmark runs from. Relative on
/// purpose: a Unix socket path is limited to ~100 bytes.
pub const WORK_DIR: &str = ".bench_build/perfbench-work";

/// Where a traced run writes its spans, one file per workload and seed.
pub const SPANS_DIR: &str = ".bench_build/perfbench-spans";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["compile", "edit", "run", "serve"];

/// The end-to-end metrics every untraced run reports, with their units.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("latency_ms.p50", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units.
///
/// A `ms` metric named after a span is the mean time of one call into
/// that layer function; a `count` is an exact count over the workload's
/// counted operations (see `NOTES.md`). A workload that makes no such
/// call reports 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("syntax.parse_ms", "ms"),
    ("syntax.reparse_ms", "ms"),
    ("types.infer_ms", "ms"),
    ("core.analyze_ms", "ms"),
    ("core.cache_analyze_ms", "ms"),
    ("core.update_ms", "ms"),
    ("opt.lower_ms", "ms"),
    ("opt.optimize_ms", "ms"),
    ("runtime.bytecode_ms", "ms"),
    ("runtime.vm_ms", "ms"),
    ("serve.overhead_ms", "ms"),
    ("serve.gen_lag_ms.p99", "ms"),
    ("serve.queued.p99", "count"),
    ("core.sccs_solved", "count"),
    ("core.sccs_reused", "count"),
    ("core.engine_passes", "count"),
    ("core.cache_hits", "count"),
    ("core.cache_misses", "count"),
    ("opt.stack_calls", "count"),
    ("opt.block_calls", "count"),
    ("opt.elided_sites", "count"),
    ("opt.pretenured_sites", "count"),
    ("runtime.bytecode_ops", "count"),
    ("runtime.steps", "count"),
    ("runtime.heap_allocs", "count"),
    ("runtime.region_allocs", "count"),
    ("runtime.dcons_reuses", "count"),
    ("runtime.allocs_elided", "count"),
    ("runtime.minor_gcs", "count"),
    ("runtime.major_gcs", "count"),
    ("runtime.gc_marked", "count"),
    ("runtime.peak_live", "count"),
    ("serve.replies_ok", "count"),
    ("serve.failed.runtime_error", "count"),
    ("serve.failed.overloaded", "count"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
];

/// One run's settings, from the command line.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the measurement loop runs.
    pub seconds: f64,
    /// Record per-layer spans (and report per-layer metrics).
    pub trace: bool,
}

/// Collects timings and counts under metric names, and — when tracing —
/// a span per layer call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    op: u64,
    spans: Vec<Span>,
    samples: BTreeMap<String, Vec<f64>>,
    counts: BTreeMap<String, u64>,
}

/// One timed layer call: `op` is the operation (compile, edit, program
/// run, request) that caused it; spans of one operation share it.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer metric name, e.g. `types.infer_ms`.
    pub name: String,
    /// The operation this call belongs to.
    pub op: u64,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Tracer {
    /// A tracer; `enabled = false` makes [`Tracer::layer`] a plain call.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            op: 0,
            spans: Vec::new(),
            samples: BTreeMap::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Whether layer spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new operation; later spans are attributed to it.
    pub fn begin_op(&mut self) {
        self.op += 1;
    }

    /// Runs `f`, a call into one layer. When tracing, records a span and
    /// a sample (in milliseconds) under `name`.
    pub fn layer<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.enabled {
            return f();
        }
        let start = Instant::now();
        let r = f();
        let end = Instant::now();
        self.spans.push(Span {
            name: name.to_owned(),
            op: self.op,
            start_ns: (start - self.origin).as_nanos() as u64,
            end_ns: (end - self.origin).as_nanos() as u64,
        });
        self.sample(name, (end - start).as_secs_f64() * 1e3);
        r
    }

    /// Records one sample under `name`.
    pub fn sample(&mut self, name: &str, value: f64) {
        self.samples.entry(name.to_owned()).or_default().push(value);
    }

    /// Sets an exact count (the last value wins).
    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_owned(), value);
    }

    /// Adds to an exact count.
    pub fn add(&mut self, name: &str, value: u64) {
        *self.counts.entry(name.to_owned()).or_default() += value;
    }

    /// The samples recorded under `name` (empty if none).
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// An exact count (`0` if never recorded).
    pub fn get_count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Adds a VM's counters to the `runtime.*` counts.
    pub fn add_runtime(&mut self, s: &nml_runtime::RuntimeStats) {
        self.add("runtime.steps", s.steps);
        self.add("runtime.heap_allocs", s.heap_allocs);
        self.add("runtime.region_allocs", s.stack_allocs + s.block_allocs);
        self.add("runtime.dcons_reuses", s.dcons_reuses);
        self.add("runtime.allocs_elided", s.allocs_elided);
        self.add("runtime.minor_gcs", s.minor_gcs);
        self.add("runtime.major_gcs", s.major_gcs);
        self.add("runtime.gc_marked", s.gc_marked);
        self.add("runtime.peak_live", s.peak_live);
    }

    /// Adds what the pass manager did to the `opt.*` counts.
    pub fn add_opt(&mut self, o: &nml_opt::OptSummary) {
        self.add("opt.stack_calls", o.stack_calls as u64);
        self.add("opt.block_calls", o.block_calls as u64);
        self.add("opt.elided_sites", o.elided_sites as u64);
        self.add("opt.pretenured_sites", o.pretenured_sites as u64);
    }
}

/// Rotates the calling thread over the CPUs it may run on.
///
/// On shared hosts one vCPU can run 20–30% slower than another for
/// minutes at a time, and a single-threaded run otherwise stays on
/// whichever CPU it started on. The single-threaded workloads pin each
/// round to the next CPU in turn, so a run measures every CPU the same
/// amount instead of drawing one at random.
pub struct Cpus {
    original: [u64; CPU_SET_WORDS],
    allowed: Vec<usize>,
}

const CPU_SET_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

impl Cpus {
    /// The CPUs the calling thread may run on (one pseudo-CPU, never
    /// pinned, if the mask cannot be read).
    pub fn new() -> Cpus {
        let mut original = [0u64; CPU_SET_WORDS];
        // SAFETY: `original` is a writable buffer of exactly the size
        // passed; pid 0 names the calling thread.
        let rc = unsafe {
            sched_getaffinity(0, std::mem::size_of_val(&original), original.as_mut_ptr())
        };
        let allowed = if rc == 0 {
            (0..CPU_SET_WORDS * 64)
                .filter(|&c| original[c / 64] & (1 << (c % 64)) != 0)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { original, allowed }
    }

    /// How many CPUs a run rotates over (at least one).
    pub fn count(&self) -> usize {
        self.allowed.len().max(1)
    }

    /// Pins the calling thread to the `round`-th CPU, cyclically, and
    /// returns that CPU's index in `0..count()`.
    pub fn pin(&self, round: usize) -> usize {
        if self.allowed.len() < 2 {
            return 0;
        }
        let i = round % self.allowed.len();
        let cpu = self.allowed[i];
        let mut mask = [0u64; CPU_SET_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        self.set(&mask);
        i
    }

    fn set(&self, mask: &[u64; CPU_SET_WORDS]) {
        // SAFETY: `mask` is a readable buffer of exactly the size passed;
        // pid 0 names the calling thread. A failure leaves the thread
        // where it was, which only costs the rotation.
        let _ = unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) };
    }
}

impl Default for Cpus {
    fn default() -> Self {
        Cpus::new()
    }
}

impl Drop for Cpus {
    fn drop(&mut self) {
        if self.allowed.len() >= 2 {
            self.set(&self.original);
        }
    }
}

/// The mean of the groups' `q`-quantiles (the median for `q = 0.5`),
/// skipping empty groups: every group (a CPU, a corpus) weighs the same
/// however its samples split.
pub fn mean_of_quantiles(groups: &[Vec<f64>], q: f64) -> f64 {
    let qs: Vec<f64> = groups
        .iter()
        .filter(|g| !g.is_empty())
        .map(|g| quantile(g, q))
        .collect();
    qs.iter().sum::<f64>() / qs.len() as f64
}

/// The geometric mean of `xs`; `NaN` when empty.
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// The `q`-quantile (0..=1) of `xs` by nearest rank, or the [`median`]
/// for `q = 0.5`; `NaN` when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() || q == 0.5 {
        return median(xs);
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// The median of `xs` (the mean of the middle two for even counts).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Samples the value was computed from (`1` for a count).
    pub samples: usize,
}

/// What a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (compiles and edits, program runs, requests).
    pub attempted: u64,
    /// Operations that failed: error replies and output mismatches.
    pub failed: u64,
    /// Every output check passed (failures of an expected kind, such as
    /// the step-limit defect in `serve`, do not make a run incorrect).
    pub correct: bool,
    /// Human-readable descriptions of every failed check.
    pub problems: Vec<String>,
    /// Metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Provenance: `key -> JSON value` (already rendered).
    pub provenance: BTreeMap<String, String>,
    /// Per-layer values a workload computes itself rather than from its
    /// spans and counts (serve's overhead, queue and lag figures).
    pub layer_values: BTreeMap<String, f64>,
    /// Exact per-layer counts (for the determinism test).
    pub counts: BTreeMap<String, u64>,
    /// Rendered program outputs, in a stable order (for the determinism
    /// test's different-seed check).
    pub outputs: Vec<String>,
}

impl Outcome {
    /// A fresh, so-far-correct outcome.
    pub fn new() -> Outcome {
        Outcome {
            correct: true,
            ..Outcome::default()
        }
    }

    /// Records a failed output check.
    pub fn mismatch(&mut self, what: String) {
        self.failed += 1;
        self.correct = false;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    /// Adds a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
            samples,
        });
    }

    /// The end-to-end metrics of an untraced run: the median set-up time
    /// over `setups` set-ups and the median latency over `samples`
    /// operations, where `lat(q)` is the latency's `q`-quantile. The 75th,
    /// 90th and 99th percentiles go to the provenance only: on a shared
    /// host they follow its slow spells (see `NOTES.md`, *Noise*).
    pub fn end_to_end(
        &mut self,
        setup_s: f64,
        setups: usize,
        samples: usize,
        lat: impl Fn(f64) -> f64,
    ) {
        self.metric("setup_s", setup_s, "s", setups);
        self.metric("latency_ms.p50", lat(0.5), "ms", samples);
        self.prov(
            "latency_ms_tail",
            format!(
                "{{\"p75\": {}, \"p90\": {}, \"p99\": {}}}",
                json_num(lat(0.75)),
                json_num(lat(0.9)),
                json_num(lat(0.99))
            ),
        );
    }

    /// Sets a per-layer value the spans and counts do not give.
    pub fn layer_value(&mut self, name: &str, value: f64) {
        self.layer_values.insert(name.to_owned(), value);
    }

    /// Records a provenance field (value given as rendered JSON).
    pub fn prov(&mut self, key: &str, json: impl Into<String>) {
        self.provenance.insert(key.to_owned(), json.into());
    }

    /// The result line, the last of standard output: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn result_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct && self.metrics.iter().all(|m| m.value.is_finite()),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }

    /// The provenance line printed before the result line: every
    /// provenance field plus the sample count behind each metric.
    pub fn provenance_json(&self) -> String {
        let mut s = String::from("{\"provenance\": {");
        for (i, (k, v)) in self.provenance.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        if !self.provenance.is_empty() {
            s.push_str(", ");
        }
        s.push_str("\"samples\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\": {}", m.name, m.samples);
        }
        s.push_str("}, \"problems\": [");
        for (i, p) in self.problems.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&json_str(p));
        }
        s.push_str("]}}");
        s
    }
}

/// A JSON number; non-finite values become `null` (and make the run
/// incorrect, see [`Outcome::result_json`]).
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_owned()
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs `f` `times` times and returns the median wall time in seconds,
/// with the value of the last call.
pub fn setup_median<R>(times: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for _ in 0..times.max(1) {
        let t = Instant::now();
        let r = f();
        secs.push(t.elapsed().as_secs_f64());
        // Drop the previous set-up's state outside the timed region.
        drop(last.replace(r));
    }
    (median(&secs), last.expect("at least one set-up ran"))
}

/// The per-run working directory, created on demand.
///
/// # Errors
///
/// The directory cannot be created.
pub fn work_dir(tag: &str) -> std::io::Result<PathBuf> {
    let dir = Path::new(WORK_DIR).join(format!("{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes the recorded spans as JSON lines (one span per line).
///
/// # Errors
///
/// The file cannot be written.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut s = String::with_capacity(spans.len() * 64);
    for sp in spans {
        let _ = writeln!(
            s,
            "{{\"name\": \"{}\", \"op\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
            sp.name, sp.op, sp.start_ns, sp.end_ns
        );
    }
    std::fs::write(path, s)
}

/// The cost of recording one span, measured by recording `n` spans around
/// an empty call: the tracing overhead per layer call.
pub fn span_cost_ns(n: usize) -> f64 {
    let mut t = Tracer::new(true);
    let start = Instant::now();
    for _ in 0..n {
        t.layer("calibrate", || std::hint::black_box(0u64));
    }
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Adds the provenance every workload records and the rest of the
/// metrics: `peak_rss_mb` on an untraced run; on a traced run every
/// [`PER_LAYER`] metric, from the workload's layer values, its spans (mean
/// milliseconds per call) and its counts, in that order of preference.
pub fn finish(out: &mut Outcome, opts: &Opts, workload: &str, tracer: &Tracer, traced_wall_s: f64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.prov("workload", json_str(workload));
    out.prov("seed", opts.seed.to_string());
    out.prov("seconds", json_num(opts.seconds));
    out.prov("trace", opts.trace.to_string());
    out.prov("nproc", nproc.to_string());
    out.prov(
        "build_profile",
        json_str(if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }),
    );
    if !opts.trace {
        out.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
        return;
    }
    let per_span = span_cost_ns(100_000);
    let spans = tracer.spans().len() as u64;
    let overhead_ms = per_span * spans as f64 / 1e6;
    out.layer_value("trace.spans", spans as f64);
    out.layer_value(
        "trace.overhead_pct",
        100.0 * overhead_ms / (traced_wall_s * 1e3).max(1e-9),
    );
    out.prov("trace_span_cost_ns", json_num(per_span));
    out.prov("trace_overhead_ms", json_num(overhead_ms));
    for (name, unit) in PER_LAYER {
        let (value, samples) = if let Some(&v) = out.layer_values.get(name) {
            (v, 1)
        } else if unit == "ms" {
            let xs = tracer.samples(name);
            let mean = if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            };
            (mean, xs.len())
        } else {
            let c = tracer.get_count(name);
            out.counts.insert(name.to_owned(), c);
            (c as f64, 1)
        };
        out.metric(name, value, unit, samples);
    }
    let path = Path::new(SPANS_DIR).join(format!("{workload}-seed{}.jsonl", opts.seed));
    match write_spans(&path, tracer.spans()) {
        Ok(()) => out.prov("spans_file", json_str(&path.to_string_lossy())),
        Err(e) => out.prov("spans_file_error", json_str(&e.to_string())),
    }
}
