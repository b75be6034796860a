//! The `run` workload: six small programs from source text to printed
//! value in the `nmlc run -O` configuration (VM engine, full pass
//! manager), interleaved in a seeded order every round.

use crate::pipeline::{self, render, COLD};
use crate::programs::{RunProgram, RUN_PROGRAMS};
use crate::{geomean, json_num, mean_of_quantiles, setup_median, Cpus, Opts, Outcome, Tracer};
use nml_corpusgen::Rng;
use nml_opt::OptSummary;
use nml_runtime::{Interp, InterpConfig, RuntimeStats, Vm};
use std::fmt::Write as _;
use std::time::Instant;

const SEED_SALT: u64 = 0x7275_6e5f_7761_6c6b;

/// Set-ups per run; the median is `setup_s`.
const SETUPS: usize = 5;

/// One program with its seeded source and oracle value.
struct Case {
    prog: &'static RunProgram,
    src: String,
    /// The tree-walker's printed value on the unoptimized IR.
    expected: String,
}

/// The printed value of `src` on the tree-walking interpreter, without
/// any optimization: the independent oracle for the VM's result.
///
/// # Errors
///
/// Any front-end or runtime error.
pub fn oracle_value(src: &str) -> Result<String, String> {
    let program = nml_syntax::parse_program(src).map_err(|e| format!("syntax: {e}"))?;
    let info = nml_types::infer_program(&program).map_err(|e| format!("types: {e}"))?;
    let ir = nml_opt::lower_program(&program, &info);
    let mut interp =
        Interp::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    let v = interp.run().map_err(|e| e.to_string())?;
    render(&interp.heap, &v)
}

fn prepare(a: i64) -> Result<Vec<Case>, String> {
    RUN_PROGRAMS
        .iter()
        .map(|prog| {
            let src = (prog.source)(a, prog.n);
            let expected = oracle_value(&src).map_err(|e| format!("{}: oracle: {e}", prog.name))?;
            Ok(Case {
                prog,
                src,
                expected,
            })
        })
        .collect()
}

/// What one run of a program gave.
struct Ran {
    printed: String,
    stats: RuntimeStats,
    opt: OptSummary,
    front_ms: f64,
    total_ms: f64,
}

/// Source text to printed value.
fn run_once(tr: &mut Tracer, case: &Case) -> Result<Ran, String> {
    let t0 = Instant::now();
    tr.begin_op();
    let front = pipeline::front(tr, &COLD, &case.src, None)?;
    let front_ms = t0.elapsed().as_secs_f64() * 1e3;
    let ir = &front.ir;
    let (vm, value) = tr
        .layer("runtime.vm_ms", || {
            let mut vm = Vm::with_config(ir, InterpConfig::default())?;
            let v = vm.run();
            Ok::<_, nml_runtime::RuntimeError>((vm, v))
        })
        .map_err(|e| e.to_string())?;
    let value = value.map_err(|e| e.to_string())?;
    let printed = render(&vm.heap, &value)?;
    let total_ms = t0.elapsed().as_secs_f64() * 1e3;
    Ok(Ran {
        printed,
        stats: vm.heap.stats,
        opt: front.opt,
        front_ms,
        total_ms,
    })
}

/// Runs the workload.
pub fn workload(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    let mut rng = Rng::new(opts.seed ^ SEED_SALT);
    let a = 1 + rng.below(100_000) as i64;
    let (setup_s, cases) = setup_median(SETUPS, || prepare(a));
    let cases = match cases {
        Ok(c) => c,
        Err(e) => {
            out.mismatch(e);
            return out;
        }
    };
    let mut tr = Tracer::new(opts.trace);
    let cpus = Cpus::new();
    // Run times per program and CPU; front-end times per program.
    let mut times: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); cpus.count()]; cases.len()];
    let mut front: Vec<Vec<f64>> = vec![Vec::new(); cases.len()];
    let mut first_stats: Vec<Option<RuntimeStats>> = vec![None; cases.len()];
    let started = Instant::now();
    let mut rounds = 0;
    // At least five rounds, so even a very short run has a median.
    while rounds < 5 || started.elapsed().as_secs_f64() < opts.seconds {
        let cpu = cpus.pin(rounds);
        // A seeded order every round, so no program always runs first.
        let mut order: Vec<usize> = (0..cases.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i + 1));
        }
        for &i in &order {
            let case = &cases[i];
            out.attempted += 1;
            match run_once(&mut tr, case) {
                Ok(Ran {
                    printed,
                    stats,
                    opt,
                    front_ms,
                    total_ms,
                }) => {
                    if printed != case.expected {
                        out.mismatch(format!(
                            "{}: printed {printed}, tree-walker printed {}",
                            case.prog.name, case.expected
                        ));
                        continue;
                    }
                    times[i][cpu].push(total_ms);
                    front[i].push(front_ms);
                    match &first_stats[i] {
                        None => {
                            tr.add_runtime(&stats);
                            tr.add_opt(&opt);
                            first_stats[i] = Some(stats);
                        }
                        Some(s) if *s != stats => out.mismatch(format!(
                            "{}: runtime counters differ between identical runs",
                            case.prog.name
                        )),
                        Some(_) => {}
                    }
                }
                Err(e) => out.mismatch(format!("{}: {e}", case.prog.name)),
            }
        }
        rounds += 1;
    }
    let wall = started.elapsed().as_secs_f64();
    drop(cpus);
    // A program's quantile is its quantile per CPU, averaged over the
    // CPUs; the latency's is the geometric mean of the programs', so every
    // program weighs the same.
    let quantiles =
        |q: f64| -> Vec<f64> { times.iter().map(|t| mean_of_quantiles(t, q)).collect() };
    if !opts.trace {
        let n = times.iter().flatten().map(Vec::len).sum();
        out.end_to_end(setup_s, SETUPS, n, |q| geomean(&quantiles(q)));
    }
    let (p50, p90) = (quantiles(0.5), quantiles(0.9));
    let mut per_program = String::from("{");
    for (i, case) in cases.iter().enumerate() {
        if i > 0 {
            per_program.push_str(", ");
        }
        let front_ms = crate::median(&front[i]);
        let _ = write!(
            per_program,
            "\"{}\": {{\"run_ms.p50\": {}, \"run_ms.p90\": {}, \"front_ms.p50\": {}",
            case.prog.name,
            json_num(p50[i]),
            json_num(p90[i]),
            json_num(front_ms)
        );
        if let Some(s) = &first_stats[i] {
            let _ = write!(
                per_program,
                ", \"steps\": {}, \"heap_allocs\": {}, \"region_allocs\": {}, \"dcons_reuses\": {}, \"allocs_elided\": {}, \"minor_gcs\": {}, \"major_gcs\": {}, \"gc_marked\": {}, \"peak_live\": {}",
                s.steps,
                s.heap_allocs,
                s.stack_allocs + s.block_allocs,
                s.dcons_reuses,
                s.allocs_elided,
                s.minor_gcs,
                s.major_gcs,
                s.gc_marked,
                s.peak_live
            );
        }
        per_program.push('}');
    }
    per_program.push('}');
    out.prov("per_program", per_program);
    for case in &cases {
        out.outputs
            .push(format!("{}={}", case.prog.name, case.expected));
    }
    out.prov("rounds", rounds.to_string());
    out.prov("data_offset", a.to_string());
    crate::finish(&mut out, opts, "run", &tr, wall);
    out
}
