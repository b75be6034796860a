//! The `edit` workload: seeded single-binding edits of the two `mega`
//! corpora, each applied to the full text through
//! `Incremental::update_source` and followed by re-lowering,
//! re-optimizing and compiling to bytecode — the path `analyze --watch`
//! and serve `reload` take.

use crate::corpora::{self, Setup, BASE_SEEDS};
use crate::pipeline::{self, bytecode, lower_and_optimize, op_count, Names, COLD};
use crate::{median, quantile, work_dir, Cpus, Opts, Outcome, Tracer};
use std::time::Instant;

/// Edits whose exact counts are reported (a fixed prefix, so the counts
/// do not depend on how many edits fit into the run).
const COUNTED_EDITS: usize = 8;

/// Every how many edits the incremental summaries are compared with a
/// from-scratch analysis of the same text.
const EDIT_CHECK_EVERY: usize = 16;

/// The edit path: `update_source`, then re-lower, re-optimize and
/// compile to bytecode.
const EDIT: Names = Names {
    parse: "syntax.reparse_ms",
    infer: "types.infer_ms",
    analyze: "core.update_ms",
    lower: "opt.lower_ms",
    optimize: "opt.optimize_ms",
    bytecode: "runtime.bytecode_ms",
};

/// Runs the workload.
pub fn workload(opts: &Opts) -> Outcome {
    let mut out = Outcome::new();
    let dir = match work_dir("edit") {
        Ok(d) => d,
        Err(e) => {
            out.mismatch(format!("work dir: {e}"));
            return out;
        }
    };
    let Some((setup_secs, mut setups)) = corpora::prepare_all(opts, &dir, true, &mut out) else {
        let _ = std::fs::remove_dir_all(&dir);
        return out;
    };
    let mut tr = Tracer::new(opts.trace);
    let mut times = Vec::new();
    let cpus = Cpus::new();
    let started = Instant::now();
    // A round edits every corpus once, each on the next CPU in turn. At
    // least enough rounds for the counted prefix, so even a very short
    // run reports its counts and reaches a sampled check.
    let mut k = 0usize;
    let mut rounds = 0usize;
    while rounds < COUNTED_EDITS.div_ceil(BASE_SEEDS.len())
        || started.elapsed().as_secs_f64() < opts.seconds
    {
        for (j, s) in setups.iter_mut().enumerate() {
            cpus.pin(rounds + j);
            edit_once(&mut out, &mut tr, s, k, &mut times);
            k += 1;
        }
        rounds += 1;
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
    out.prov("edits", k.to_string());
    out.prov("functions", setups[0].corpus.bindings.len().to_string());
    let _ = std::fs::remove_dir_all(&dir);
    crate::finish(&mut out, opts, "edit", &tr, wall);
    out
}

/// One seeded single-binding edit, applied to the full text.
fn edit_once(out: &mut Outcome, tr: &mut Tracer, s: &mut Setup, k: usize, times: &mut Vec<f64>) {
    let m = s.corpus.mutate(s.rng.next_u64());
    s.corpus.bindings[m.index].rhs = m.rhs;
    let text = s.corpus.source();
    let inc = s.inc.as_mut().expect("edit set-ups are incremental");
    out.attempted += 1;
    tr.begin_op();
    if tr.enabled() {
        // `update_source` re-parses the whole text; time that parse on
        // its own so the re-parse share of an edit is visible.
        let _ = tr.layer(EDIT.parse, || nml_syntax::parse_program(&text));
    }
    let t0 = Instant::now();
    let r = tr
        .layer(EDIT.analyze, || inc.update_source(&text).map(|_| ()))
        .map(|()| {
            let (ir, opt) = lower_and_optimize(tr, &EDIT, inc.analysis());
            let code = bytecode(tr, &EDIT, &ir);
            (ir, opt, code)
        });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let (ir, opt, code) = match r {
        Ok(x) => x,
        Err(e) => {
            out.mismatch(format!("edit {k} ({}): {e}", m.name));
            return;
        }
    };
    times.push(ms);
    let analysis = inc.analysis();
    if k < COUNTED_EDITS {
        tr.add("core.sccs_solved", analysis.schedule.sccs_solved as u64);
        tr.add("core.sccs_reused", analysis.schedule.sccs_reused as u64);
        tr.add_opt(&opt);
        tr.add("runtime.bytecode_ops", op_count(&code));
    }
    // Sampled: the incremental summaries must equal a from-scratch
    // analysis of the same text, and the tree-walker's value comes from
    // that analysis's program, so it does not depend on `update_source`.
    // On the other edits it comes from the incremental program:
    // re-analyzing the 2000-function text costs more than the edit.
    let reference = if k.is_multiple_of(EDIT_CHECK_EVERY) {
        let mut quiet = Tracer::new(false);
        match pipeline::front(&mut quiet, &COLD, &text, None) {
            Ok(f) => Some(f.analysis),
            Err(e) => {
                out.mismatch(format!("edit {k}: from-scratch analysis: {e}"));
                return;
            }
        }
    } else {
        None
    };
    match corpora::tree_value(reference.as_ref().unwrap_or(analysis)) {
        Ok(expected) => corpora::check(
            out,
            &format!("edit {k}"),
            analysis,
            &ir,
            reference.as_ref().map(|a| &a.summaries),
            &expected,
        ),
        Err(e) => out.mismatch(format!("edit {k}: oracle: {e}")),
    }
}
