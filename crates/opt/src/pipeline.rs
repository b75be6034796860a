//! The optimization pass manager: composes the three storage
//! optimizations in a sound order.
//!
//! **Order matters.** In-place reuse must run *before* stack allocation:
//! a reuse variant's result aliases its argument's cells, so a call that
//! has already been rewritten to `f_r` must never have that argument
//! stack-allocated (the aliased cells would be freed at region exit while
//! the result lives on). Running reuse first is safe because the stack
//! annotator only touches calls of functions with escape summaries, and
//! generated variants have none. The reversed order is demonstrably
//! unsound — the region validator catches it (see the test suite).
//!
//! Block allocation is independent of both (it wraps producer/consumer
//! call pairs whose spines the analysis retains), and runs in between.

use crate::auto::{auto_reuse, AutoReuse};
use crate::block::block_call;
use crate::ir::{IrExpr, IrProgram};
use crate::pretenure::annotate_pretenure;
use crate::sroa::annotate_sroa;
use crate::stack::annotate_stack;
use nml_escape::Analysis;
use nml_syntax::Symbol;
use std::collections::BTreeSet;

/// Which passes to run.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Generate `DCONS` variants and rewrite unshared call sites (§6).
    pub reuse: bool,
    /// Wrap producer/consumer pairs in block regions (§A.3.3).
    pub block: bool,
    /// Stack-allocate non-escaping literal arguments (§A.3.1).
    pub stack: bool,
    /// Mark provably-escaping sites for old-space allocation (see
    /// [`crate::pretenure`]).
    pub pretenure: bool,
    /// Mark no-escape, unaliased sites for scalar replacement (see
    /// [`crate::sroa`]); only the bytecode engine acts on the mark.
    pub sroa: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            reuse: true,
            block: true,
            stack: true,
            pretenure: true,
            sroa: true,
        }
    }
}

impl OptOptions {
    /// No passes: every site stays a plain heap allocation.
    pub fn none() -> Self {
        OptOptions {
            reuse: false,
            block: false,
            stack: false,
            pretenure: false,
            sroa: false,
        }
    }
}

/// What the pass manager did.
#[derive(Debug, Clone, Default)]
pub struct OptSummary {
    /// The reuse driver's outcome, when enabled.
    pub reuse: Option<AutoReuse>,
    /// Producer/consumer pairs wrapped in block regions.
    pub block_calls: usize,
    /// Calls wrapped in stack regions.
    pub stack_calls: usize,
    /// Cons sites marked for old-space allocation.
    pub pretenured_sites: usize,
    /// Cons sites licensed for scalar replacement.
    pub elided_sites: usize,
}

/// Runs the enabled passes in the sound order: reuse → block → stack →
/// pretenure (last, so it only upgrades sites no stronger pass claimed).
///
/// Functions whose summaries are worst-case degradations (see
/// [`nml_escape::Degradation`]) are skipped by every pass: their
/// summaries license nothing, and each pass additionally refuses them
/// explicitly. An analysis that ran out of budget therefore costs
/// optimization opportunities, never correctness.
pub fn optimize(ir: &mut IrProgram, analysis: &Analysis, opts: &OptOptions) -> OptSummary {
    let mut summary = OptSummary::default();
    if opts.reuse {
        summary.reuse = Some(auto_reuse(ir, analysis));
    }
    if opts.block {
        summary.block_calls = auto_block(ir, analysis);
    }
    if opts.stack {
        summary.stack_calls = annotate_stack(ir, analysis);
    }
    if opts.pretenure {
        summary.pretenured_sites = annotate_pretenure(ir, analysis);
    }
    if opts.sroa {
        // Last: only plain heap sites qualify, so every site a stronger
        // pass claimed keeps its placement.
        summary.elided_sites = annotate_sroa(ir, analysis);
    }
    summary
}

/// Finds `f (g …)` producer/consumer pairs in the main body where `f`'s
/// parameter retains its top spine, and applies the block transformation
/// to each distinct pair. Returns the number of rewritten calls.
pub fn auto_block(ir: &mut IrProgram, analysis: &Analysis) -> usize {
    // Collect candidate (consumer, producer) pairs first; block_call
    // mutates the program.
    let mut pairs: BTreeSet<(Symbol, Symbol)> = BTreeSet::new();
    collect_pairs(&ir.body, analysis, &mut pairs);
    let mut count = 0;
    for (f, g) in pairs {
        if let Ok(n) = block_call(ir, analysis, f, g) {
            count += n;
        }
    }
    count
}

fn split(e: &IrExpr) -> (&IrExpr, Vec<&IrExpr>) {
    let mut args = Vec::new();
    let mut cur = e;
    while let IrExpr::App(f, a) = cur {
        args.push(a.as_ref());
        cur = f;
    }
    args.reverse();
    (cur, args)
}

fn collect_pairs(e: &IrExpr, analysis: &Analysis, out: &mut BTreeSet<(Symbol, Symbol)>) {
    if let IrExpr::App(..) = e {
        let (head, args) = split(e);
        if let IrExpr::Var(f) = head {
            if let Some(summary) = analysis.summaries.get(f) {
                if summary.arity() == args.len() {
                    for (j, a) in args.iter().enumerate() {
                        if summary.param(j).retained_spines() < 1 {
                            continue;
                        }
                        let (ah, aargs) = split(a);
                        if let IrExpr::Var(g) = ah {
                            if !aargs.is_empty()
                                && analysis.summaries.contains_key(g)
                                && analysis.summaries[g].result_ty.is_list()
                            {
                                out.insert((*f, *g));
                            }
                        }
                    }
                }
            }
        }
    }
    // Recurse.
    match e {
        IrExpr::Const(_) | IrExpr::Var(_) => {}
        IrExpr::App(a, b) => {
            collect_pairs(a, analysis, out);
            collect_pairs(b, analysis, out);
        }
        IrExpr::Lambda { body, .. } => collect_pairs(body, analysis, out),
        IrExpr::If(c, t, f) => {
            collect_pairs(c, analysis, out);
            collect_pairs(t, analysis, out);
            collect_pairs(f, analysis, out);
        }
        IrExpr::Letrec(bs, body) => {
            for (_, b) in bs {
                collect_pairs(b, analysis, out);
            }
            collect_pairs(body, analysis, out);
        }
        IrExpr::Cons { head, tail, .. } | IrExpr::Dcons { head, tail, .. } => {
            collect_pairs(head, analysis, out);
            collect_pairs(tail, analysis, out);
        }
        IrExpr::Prim1(_, a) => collect_pairs(a, analysis, out),
        IrExpr::Prim2(_, a, b) => {
            collect_pairs(a, analysis, out);
            collect_pairs(b, analysis, out);
        }
        IrExpr::Region { inner, .. } => collect_pairs(inner, analysis, out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower_program;
    use nml_escape::analyze_source;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn prep(src: &str) -> (IrProgram, Analysis) {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        let ir = lower_program(&p, &info);
        let analysis = analyze_source(src).expect("analysis");
        (ir, analysis)
    }

    const COMBINED: &str = "letrec
      sum l = if (null l) then 0 else car l + sum (cdr l);
      create_list n = if n = 0 then nil else cons n (create_list (n - 1));
      rev l a = if (null l) then a
                else rev (cdr l) (cons (car l) a)
    in sum (rev (create_list 10) nil) + sum [1, 2, 3]";

    #[test]
    fn all_passes_compose() {
        let (mut ir, analysis) = prep(COMBINED);
        let summary = optimize(&mut ir, &analysis, &OptOptions::default());
        let auto = summary.reuse.expect("reuse ran");
        assert!(auto.rewritten_calls >= 1, "rev (create_list ...) reuses");
        assert!(summary.stack_calls >= 1, "sum [1,2,3] stacks");
        let text = ir.body.to_string();
        assert!(text.contains("rev_r"), "{text}");
        assert!(text.contains("region[stack]"), "{text}");
    }

    #[test]
    fn auto_block_finds_producer_consumer_pairs() {
        let (mut ir, analysis) = prep(
            "letrec
               sum l = if (null l) then 0 else car l + sum (cdr l);
               create_list n = if n = 0 then nil else cons n (create_list (n - 1))
             in sum (create_list 20)",
        );
        let n = auto_block(&mut ir, &analysis);
        assert_eq!(n, 1);
        assert!(ir.body.to_string().contains("region[block]"), "{}", ir.body);
    }

    #[test]
    fn escaping_consumer_gets_no_block() {
        let (mut ir, analysis) = prep(
            "letrec
               idl l = cons (car l) (cdr l);
               create_list n = if n = 0 then nil else cons n (create_list (n - 1))
             in idl (create_list 5)",
        );
        assert_eq!(auto_block(&mut ir, &analysis), 0);
    }

    #[test]
    fn options_gate_each_pass() {
        let (mut ir, analysis) = prep(COMBINED);
        let summary = optimize(
            &mut ir,
            &analysis,
            &OptOptions {
                reuse: false,
                block: false,
                stack: true,
                pretenure: false,
                sroa: false,
            },
        );
        assert!(summary.reuse.is_none());
        assert_eq!(summary.block_calls, 0);
        assert!(summary.stack_calls >= 1);
        assert_eq!(summary.elided_sites, 0);
        assert!(!ir.body.to_string().contains("rev_r"));
    }

    #[test]
    fn sroa_gated_and_counted() {
        let (mut ir, analysis) = prep(
            "letrec f n = letrec p = cons n (cons 1 nil) in car p + car (cdr p)
             in f 3",
        );
        let summary = optimize(&mut ir, &analysis, &OptOptions::default());
        assert_eq!(summary.elided_sites, 1);
        let f = ir.func(nml_syntax::Symbol::intern("f")).unwrap();
        assert!(f.body.to_string().contains("cons[elided]"), "{}", f.body);
    }
}
