//! Escape-informed pretenuring: route provably-escaping allocation
//! sites straight to the old space.
//!
//! The paper's optimizations exploit *non*-escaping cells (stack
//! allocation, reuse, block reclamation). The same verdicts also
//! identify the opposite end: a `cons` in **result position** of a
//! list-returning function is part of the value the call hands back, so
//! the cell provably outlives the call that built it; likewise a
//! constructed argument whose parameter verdict says *every* spine
//! escapes flows wholesale into the callee's result. A generational
//! runtime wastes work allocating such cells in the nursery — they are
//! guaranteed survivors, each costing a minor-GC visit and a promotion.
//! This pass marks them [`AllocMode::Pretenured`] so the heap places
//! them in the old space directly.
//!
//! Pretenuring is purely a placement hint: a wrongly pretenured cell is
//! reclaimed by the next major collection instead of a minor one, which
//! costs time but never correctness. The pass is still conservative: it
//! only consults non-degraded summaries, and it never overrides a
//! stack/block annotation (those sites were *proven* local — the exact
//! opposite claim, licensed by the stronger test, and their region free
//! is cheaper than any GC).
//!
//! Runs **after** reuse/block/stack in the pipeline so every site those
//! passes claimed keeps its fast path; only plain heap sites are
//! upgraded.

use crate::ir::{AllocMode, Arena, ExprId, IrExpr, IrProgram};
use crate::pipeline::Summaries;
use nml_escape::Analysis;

/// Marks provably-escaping `cons` sites in `ir` as
/// [`AllocMode::Pretenured`]. Returns the number of sites marked.
pub fn annotate_pretenure(ir: &mut IrProgram, analysis: &Analysis) -> usize {
    pretenure_pass(ir, &Summaries::new(analysis))
}

/// [`annotate_pretenure`] over summaries the pass manager already indexed.
pub(crate) fn pretenure_pass(ir: &mut IrProgram, summaries: &Summaries) -> usize {
    let mut count = 0;
    for f in &mut ir.funcs {
        let escaping_result = f.is_function()
            && summaries
                .trusted(f.name)
                .is_some_and(|s| s.result_has_list_structure());
        let root = f.body.root();
        if escaping_result {
            mark_result(&mut f.body, root, summaries, &mut count);
        } else {
            // Result cells stay young, but fully-escaping call
            // arguments inside the body are still worth marking.
            mark_calls(&mut f.body, root, summaries, &mut count);
        }
    }
    // The program body's result is the program's final value — it
    // survives until exit by definition.
    let root = ir.body.root();
    mark_result(&mut ir.body, root, summaries, &mut count);
    count
}

/// Marks the constructed parts of a result-position expression: every
/// heap `cons` here is part of the escaping value.
fn mark_result(a: &mut Arena, id: ExprId, summaries: &Summaries, count: &mut usize) {
    match &mut a[id] {
        IrExpr::Cons {
            alloc, head, tail, ..
        } => {
            if *alloc == AllocMode::Heap {
                *count += 1;
                *alloc = AllocMode::Pretenured;
            }
            let (head, tail) = (*head, *tail);
            mark_result(a, head, summaries, count);
            mark_result(a, tail, summaries, count);
        }
        IrExpr::Dcons { head, tail, .. } => {
            let (head, tail) = (*head, *tail);
            mark_result(a, head, summaries, count);
            mark_result(a, tail, summaries, count);
        }
        IrExpr::If(c, t, f) => {
            let (c, t, f) = (*c, *t, *f);
            mark_calls(a, c, summaries, count);
            mark_result(a, t, summaries, count);
            mark_result(a, f, summaries, count);
        }
        IrExpr::Letrec(bs, body) => {
            let (bs, body) = (*bs, *body);
            for k in 0..a.binds(bs).len() {
                let e = a.binds(bs)[k].1;
                mark_calls(a, e, summaries, count);
            }
            mark_result(a, body, summaries, count);
        }
        IrExpr::Region { inner, .. } => {
            let inner = *inner;
            mark_result(a, inner, summaries, count);
        }
        _ => mark_calls(a, id, summaries, count),
    }
}

/// Walks a non-result expression, applying only the call-argument rule:
/// at a saturated call of a summarized function, a constructed argument
/// whose parameter verdict says the whole value escapes into the
/// callee's result is marked, because its cells outlive the frame
/// constructing them regardless of where the call sits. (Partially
/// escaping arguments are left alone — their retained top spines *do*
/// die with the frame, and marking site-granular spine prefixes is the
/// stack pass's job, not ours.)
fn mark_calls(a: &mut Arena, id: ExprId, summaries: &Summaries, count: &mut usize) {
    if !matches!(a[id], IrExpr::App(..)) {
        a.for_each_child_mut(id, |a, c| mark_calls(a, c, summaries, count));
        return;
    }
    let summary = a
        .called_var(id)
        .and_then(|(name, n)| summaries.trusted(name).filter(|s| s.arity() == n));
    let head = a.for_each_spine_arg(id, |a, j, arg| match summary {
        Some(s) if s.param(j).escapes_every_spine() && matches!(a[arg], IrExpr::Cons { .. }) => {
            mark_result(a, arg, summaries, count)
        }
        _ => mark_calls(a, arg, summaries, count),
    });
    mark_calls(a, head, summaries, count);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;
    use nml_syntax::Symbol;

    fn pretenured_sites(e: &Arena) -> usize {
        let mut n = 0;
        e.walk(|_, x| {
            if matches!(
                x,
                IrExpr::Cons {
                    alloc: AllocMode::Pretenured,
                    ..
                }
            ) {
                n += 1;
            }
        });
        n
    }

    #[test]
    fn list_builder_result_is_pretenured() {
        let (mut ir, analysis) = prep(
            "letrec make n = if n = 0 then nil else cons n (make (n - 1))
             in make 10",
        );
        let n = annotate_pretenure(&mut ir, &analysis);
        assert_eq!(n, 1);
        let make = ir.func(Symbol::intern("make")).unwrap();
        assert_eq!(pretenured_sites(&make.body), 1);
        assert!(make.body.to_string().contains("cons[pretenure]"));
    }

    #[test]
    fn consumed_list_is_not_pretenured() {
        let (mut ir, analysis) = prep(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in sum (cons 1 (cons 2 nil))",
        );
        let n = annotate_pretenure(&mut ir, &analysis);
        // sum's parameter is provably local and its result is an int:
        // nothing qualifies.
        assert_eq!(n, 0);
        assert_eq!(pretenured_sites(&ir.body), 0);
    }

    #[test]
    fn fully_escaping_call_argument_is_pretenured() {
        // append's second parameter escapes wholly: a literal passed
        // there flows into the (escaping) result.
        let (mut ir, analysis) = prep(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y)
             in append (cons 1 nil) (cons 2 nil)",
        );
        let n = annotate_pretenure(&mut ir, &analysis);
        assert!(n >= 2, "append body cons + y argument: {n}");
        let text = ir.body.to_string();
        assert!(text.contains("(cons[pretenure] 2"), "{text}");
        // x keeps its top spine, so its literal is not pretenured.
        assert!(!text.contains("(cons[pretenure] 1"), "{text}");
    }

    #[test]
    fn stack_annotations_are_never_overridden() {
        let (mut ir, analysis) = prep(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in sum (cons 1 (cons 2 nil))",
        );
        let stacked = crate::stack::annotate_stack(&mut ir, &analysis);
        assert_eq!(stacked, 1);
        annotate_pretenure(&mut ir, &analysis);
        let text = ir.body.to_string();
        assert!(text.contains("cons[stack]"), "{text}");
        assert!(!text.contains("cons[pretenure]"), "{text}");
    }
}
