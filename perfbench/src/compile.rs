//! The `compile` workload: the two `mega` corpora compiled from source
//! text to bytecode under `-O`, alternately cold (no summary cache) and
//! with the summary cache their set-up populated.

use crate::corpora::{self, Setup, BASE_SEEDS};
use crate::pipeline::{self, bytecode, op_count, COLD, WARM};
use crate::{median, quantile, work_dir, Cpus, Opts, Outcome, Tracer};
use std::time::Instant;

/// Runs the workload.
pub fn workload(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    let dir = match work_dir("compile") {
        Ok(d) => d,
        Err(e) => {
            out.mismatch(format!("work dir: {e}"));
            return out;
        }
    };
    let Some((setup_secs, setups)) = corpora::prepare_all(opts, &dir, false, &mut out) else {
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    };
    let mut tr = Tracer::new(opts.trace);
    // Compile times, pooled: the two corpora, cold and warm, cost the
    // same within the noise of one compile (see `NOTES.md`).
    let mut times: Vec<f64> = Vec::new();
    let cpus = Cpus::new();
    let started = Instant::now();
    // A round visits every corpus once: a cold compile, then a warm one.
    // Each corpus moves to the next CPU every round. The run does whole
    // rounds only: by the first round's length, enough to fill
    // `--seconds`, rounded up to a multiple of the CPU count (a single
    // round if `--seconds` is shorter than one). So every corpus runs
    // equally often on each CPU.
    let mut rounds = 0usize;
    let mut target = 1usize;
    while rounds < target {
        for (j, s) in setups.iter().enumerate() {
            cpus.pin(rounds + j);
            let counted = rounds == 0;
            compile_once(&mut out, &mut tr, s, false, counted, &mut times);
            compile_once(&mut out, &mut tr, s, true, counted, &mut times);
        }
        rounds += 1;
        if rounds == 1 {
            let fit = opts.seconds / started.elapsed().as_secs_f64();
            let step = cpus.count();
            if fit > 1.0 {
                target = (fit / step as f64).ceil() as usize * step;
            }
        }
    }
    let wall = started.elapsed().as_secs_f64();
    drop(cpus);
    if !opts.trace {
        let setup_s = median(&setup_secs);
        out.end_to_end(setup_s, setup_secs.len(), times.len(), |q| {
            quantile(&times, q)
        });
    }
    out.outputs = corpora::outputs(&setups);
    out.prov("corpora", BASE_SEEDS.len().to_string());
    out.prov("compiles_per_corpus", (2 * rounds).to_string());
    out.prov("functions", setups[0].corpus.bindings.len().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    crate::finish(&mut out, opts, "compile", &tr, wall);
    out
}

/// One compile of `s` from source text to bytecode, cold or with the
/// set-up's summary cache. On the first round (`counted`) it adds to the
/// exact counts.
fn compile_once(
    out: &mut Outcome,
    tr: &mut Tracer,
    s: &Setup,
    warm: bool,
    counted: bool,
    times: &mut Vec<f64>,
) {
    let (names, what) = if warm {
        (&WARM, "warm compile")
    } else {
        (&COLD, "cold compile")
    };
    out.attempted += 1;
    tr.begin_op();
    let t0 = Instant::now();
    let r = pipeline::front(tr, names, &s.src, warm.then_some(s.cache.as_path())).map(|f| {
        let code = bytecode(tr, names, &f.ir);
        (f, code)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let (f, code) = match r {
        Ok(x) => x,
        Err(e) => {
            out.mismatch(format!("{what}: {e}"));
            return;
        }
    };
    let sched = &f.analysis.schedule;
    if warm && (sched.cache_misses != 0 || sched.sccs_solved != 0 || !sched.cache_errors.is_empty())
    {
        out.mismatch(format!(
            "warm compile was not fully warm: {} misses, {} solved, errors {:?}",
            sched.cache_misses, sched.sccs_solved, sched.cache_errors
        ));
        return;
    }
    times.push(ms);
    if counted {
        tr.add("core.sccs_solved", sched.sccs_solved as u64);
        tr.add("core.cache_hits", sched.cache_hits as u64);
        tr.add("core.cache_misses", sched.cache_misses as u64);
        tr.add("core.engine_passes", u64::from(f.analysis.stats.passes));
        tr.add_opt(&f.opt);
        tr.add("runtime.bytecode_ops", op_count(&code));
    }
    corpora::check(
        out,
        what,
        &f.analysis,
        &f.ir,
        Some(&s.summaries),
        &s.expected,
    );
}
