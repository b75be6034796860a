//! The `nmlc run -O` pipeline spelled out as public calls into each
//! layer, every call wrapped in a [`Tracer`] span; and the rendering of
//! result values for output checks.

use crate::Tracer;
use nml_escape::{analyze_program_scheduled, Analysis, Budget, EngineConfig, ScheduleOptions};
use nml_opt::{lower_program, optimize, IrProgram, OptOptions, OptSummary};
use nml_runtime::{BytecodeProgram, Heap, Value};
use std::path::Path;

/// Span names for one context the pipeline runs in.
pub struct Names {
    /// `nml_syntax::parse_program`.
    pub parse: &'static str,
    /// `nml_types::infer_program`.
    pub infer: &'static str,
    /// `nml_escape::analyze_program_scheduled`.
    pub analyze: &'static str,
    /// `nml_opt::lower_program`.
    pub lower: &'static str,
    /// `nml_opt::optimize`.
    pub optimize: &'static str,
    /// `nml_runtime::compile`.
    pub bytecode: &'static str,
}

/// A cold compile (no summary cache).
pub const COLD: Names = Names {
    parse: "syntax.parse_ms",
    infer: "types.infer_ms",
    analyze: "core.analyze_ms",
    lower: "opt.lower_ms",
    optimize: "opt.optimize_ms",
    bytecode: "runtime.bytecode_ms",
};

/// The same compile with a warm summary cache: only the analysis call
/// differs.
pub const WARM: Names = Names {
    analyze: "core.cache_analyze_ms",
    ..COLD
};

/// What the front end produced.
pub struct Front {
    /// The escape analysis (owns the program and its types).
    pub analysis: Analysis,
    /// The optimized IR.
    pub ir: IrProgram,
    /// What the pass manager did.
    pub opt: OptSummary,
}

/// Parses, infers, analyzes (serially, with the summary cache at `cache`
/// if given), lowers and optimizes `src` — `nmlc run -O` up to the VM.
///
/// # Errors
///
/// A rendered syntax, type or analysis error.
pub fn front(
    tr: &mut Tracer,
    names: &Names,
    src: &str,
    cache: Option<&Path>,
) -> Result<Front, String> {
    let program = tr
        .layer(names.parse, || nml_syntax::parse_program(src))
        .map_err(|e| format!("syntax: {e}"))?;
    let info = tr
        .layer(names.infer, || nml_types::infer_program(&program))
        .map_err(|e| format!("types: {e}"))?;
    let options = ScheduleOptions {
        jobs: 1,
        summary_cache: cache.map(Path::to_path_buf),
    };
    let analysis = tr
        .layer(names.analyze, || {
            analyze_program_scheduled(
                program,
                info,
                EngineConfig::default(),
                Budget::unlimited(),
                &options,
            )
        })
        .map_err(|e| format!("analysis: {e}"))?;
    let (ir, opt) = lower_and_optimize(tr, names, &analysis);
    Ok(Front { analysis, ir, opt })
}

/// Lowers `analysis`'s program to IR and runs the full pass manager.
pub fn lower_and_optimize(
    tr: &mut Tracer,
    names: &Names,
    analysis: &Analysis,
) -> (IrProgram, OptSummary) {
    let mut ir = tr.layer(names.lower, || {
        lower_program(&analysis.program, &analysis.info)
    });
    let opt = tr.layer(names.optimize, || {
        optimize(&mut ir, analysis, &OptOptions::default())
    });
    (ir, opt)
}

/// Compiles optimized IR to bytecode.
pub fn bytecode(tr: &mut Tracer, names: &Names, ir: &IrProgram) -> BytecodeProgram {
    tr.layer(names.bytecode, || nml_runtime::compile(ir))
}

/// Instructions in a bytecode program.
pub fn op_count(code: &BytecodeProgram) -> u64 {
    code.chunks.iter().map(|c| c.code.len() as u64).sum()
}

/// Renders a result value: integers, booleans, and (nested) lists and
/// tuples of them, in `nmlc run`'s surface syntax. Any other value
/// renders by kind.
///
/// # Errors
///
/// A heap access error (dangling cell).
pub fn render(heap: &Heap<'_>, v: &Value<'_>) -> Result<String, String> {
    let mut out = String::new();
    render_into(heap, v, &mut out).map_err(|e| e.to_string())?;
    Ok(out)
}

fn render_into(
    heap: &Heap<'_>,
    v: &Value<'_>,
    out: &mut String,
) -> Result<(), nml_runtime::RuntimeError> {
    match v {
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Nil => out.push_str("[]"),
        Value::Pair(_) => {
            out.push('[');
            let mut cur = v.clone();
            let mut first = true;
            while let Value::Pair(c) = cur {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                render_into(heap, &heap.car(c)?, out)?;
                cur = heap.cdr(c)?;
            }
            out.push(']');
        }
        Value::Tuple(c) => {
            out.push('(');
            render_into(heap, &heap.car(*c)?, out)?;
            out.push_str(", ");
            render_into(heap, &heap.cdr(*c)?, out)?;
            out.push(')');
        }
        other => out.push_str(&format!("<{}>", other.kind())),
    }
    Ok(())
}
