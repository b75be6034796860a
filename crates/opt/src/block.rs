//! Block allocation / reclamation (paper §1, §A.3.3).
//!
//! For `PS (create_list i)`, the list built by `create_list` cannot live
//! in `PS`'s activation record — the record does not exist while the list
//! is being built. The paper's alternative: `create_list` allocates the
//! spine into a *block* of memory (Ruggieri & Murtagh's "local heap");
//! since the spine does not escape `PS`, the whole block goes back on the
//! free list when `PS` returns — without traversing the list.
//!
//! The transformation: given a call `f (g a₁ … aₘ)` where the global
//! escape test says `f`'s parameter's top spine does not escape, create a
//! variant `g_blk` whose **result-spine** `cons` sites allocate into the
//! current block, and rewrite the call to
//! `region[block] (f (g_blk a₁ … aₘ))`.

use crate::error::OptError;
use crate::ir::{
    variant_name, AllocMode, Arena, ExprId, IrExpr, IrFunc, IrProgram, RegionKind, SiteId,
    VariantKind,
};
use crate::pipeline::Summaries;
use crate::reuse::rename_calls;
use nml_escape::Analysis;
use nml_syntax::Symbol;

/// The preferred name of the block-allocating variant of `name`. A
/// program that already binds that name gets a fresh one instead; the
/// name actually used is the one [`block_producer_variant`] returns.
pub fn block_name(name: Symbol) -> Symbol {
    Symbol::intern(&format!("{name}_blk"))
}

/// Creates (or reuses) `g_blk`: a copy of `g` whose result-spine `cons`
/// sites are annotated [`AllocMode::Block`], with self-recursion
/// redirected to the variant.
///
/// # Errors
///
/// [`OptError::UnknownFunction`] if `g` is not a top-level function.
pub fn block_producer_variant(ir: &mut IrProgram, g: Symbol) -> Result<Symbol, OptError> {
    let func = ir
        .func(g)
        .filter(|f| f.is_function())
        .ok_or_else(|| OptError::UnknownFunction {
            name: g.to_string(),
        })?;
    if let Some(&variant) = ir.variants.get(&(g, VariantKind::Block)) {
        return Ok(variant);
    }
    let params = func.params.clone();
    let mut body = func.body.clone();
    let preferred = block_name(g);
    let new_name = variant_name(preferred, ir.func(preferred).is_some());
    let root = body.root();
    mark_result_spine(&mut body, root);
    rename_calls(&mut body, &[(g, new_name)]);
    ir.variants.insert((g, VariantKind::Block), new_name);
    ir.funcs.push(IrFunc {
        name: new_name,
        params,
        body,
    });
    Ok(new_name)
}

/// Annotates the `cons` cells that build the expression's result spine:
/// the expression itself, both `if` branches, `letrec` bodies, and the
/// *tails* of result conses (the spine chain). Elements are left on the
/// heap.
fn mark_result_spine(a: &mut Arena, id: ExprId) {
    match &mut a[id] {
        IrExpr::Cons { alloc, tail, .. } => {
            *alloc = AllocMode::Block;
            let tail = *tail;
            mark_result_spine(a, tail);
        }
        IrExpr::If(_, t, f) => {
            let (t, f) = (*t, *f);
            mark_result_spine(a, t);
            mark_result_spine(a, f);
        }
        IrExpr::Letrec(_, inner) | IrExpr::Region { inner, .. } => {
            let inner = *inner;
            mark_result_spine(a, inner);
        }
        _ => {}
    }
}

/// Rewrites every call `f (g …)` in the program — the main body and
/// every function body — to `region[block] (f (g_blk …))`, provided
/// `f`'s corresponding parameter retains its top spine. Returns the
/// number of rewritten calls.
///
/// # Errors
///
/// - [`OptError::UnknownFunction`] if `f` or `g` is unknown;
/// - [`OptError::NoMatchingCall`] if no such call exists or the escape
///   analysis forbids the rewrite everywhere.
pub fn block_call(
    ir: &mut IrProgram,
    analysis: &Analysis,
    f: Symbol,
    g: Symbol,
) -> Result<usize, OptError> {
    block_call_in(ir, &Summaries::new(analysis), f, g)
}

/// [`block_call`] over summaries the pass manager already indexed.
pub(crate) fn block_call_in(
    ir: &mut IrProgram,
    summaries: &Summaries,
    f: Symbol,
    g: Symbol,
) -> Result<usize, OptError> {
    if ir.func(f).is_none() {
        return Err(OptError::UnknownFunction {
            name: f.to_string(),
        });
    }
    // A degraded summary is already maximally pessimistic (nothing
    // retained), but refuse explicitly so callers get a typed reason
    // rather than a misleading "no matching call".
    for n in [f, g] {
        if summaries.is_degraded(n) {
            return Err(OptError::DegradedSummary {
                name: n.to_string(),
            });
        }
    }
    let g_blk = block_producer_variant(ir, g)?;
    let summary = summaries.get(f).ok_or_else(|| OptError::UnknownFunction {
        name: f.to_string(),
    })?;

    let mut pass = BlockRewrite {
        f,
        g,
        g_blk,
        summary,
        next_site: ir.next_site,
        count: 0,
    };
    for func in &mut ir.funcs {
        // The producer variant itself is left alone: rewriting inside
        // it could nest a region around its own recursion.
        if func.name != g_blk {
            let root = func.body.root();
            pass.rewrite(&mut func.body, root);
        }
    }
    let root = ir.body.root();
    pass.rewrite(&mut ir.body, root);
    ir.next_site = pass.next_site;
    if pass.count == 0 {
        return Err(OptError::NoMatchingCall {
            pattern: format!("{f} ({g} ...)"),
        });
    }
    Ok(pass.count)
}

/// One `f (g …)` → `region[block] (f (g_blk …))` rewrite over a program.
struct BlockRewrite<'a> {
    f: Symbol,
    g: Symbol,
    g_blk: Symbol,
    summary: &'a nml_escape::EscapeSummary,
    next_site: u32,
    count: usize,
}

impl BlockRewrite<'_> {
    fn rewrite(&mut self, a: &mut Arena, id: ExprId) {
        // Recurse first; new region sites are numbered in post-order.
        a.for_each_child_mut(id, |a, c| self.rewrite(a, c));
        // Match `f a1 .. an` with some `aj = g b1 .. bm`.
        if a.called_var(id) != Some((self.f, self.summary.arity())) {
            return;
        }
        let mut any = false;
        a.for_each_spine_arg(id, |a, j, arg| {
            if self.summary.param(j).retained_spines() >= 1
                && a.called_var(arg).is_some_and(|(h, _)| h == self.g)
            {
                any = true;
                let head = a.spine(arg).0;
                a[head] = IrExpr::Var(self.g_blk);
            }
        });
        if any {
            self.count += 1;
            a.wrap_in_region(id, RegionKind::Block, SiteId(self.next_site));
            self.next_site += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;

    const SRC: &str = "letrec sum l = if (null l) then 0 else car l + sum (cdr l);
                              create_list n = if n = 0 then nil
                                              else cons n (create_list (n - 1))
                       in sum (create_list 10)";

    #[test]
    fn producer_variant_marks_spine() {
        let (mut ir, _analysis) = prep(SRC);
        let name = block_producer_variant(&mut ir, Symbol::intern("create_list")).unwrap();
        assert_eq!(name.as_str(), "create_list_blk");
        let text = ir.func(name).unwrap().body.to_string();
        assert!(text.contains("cons[block] n"), "{text}");
        assert!(
            text.contains("create_list_blk (- n 1)"),
            "recursion redirected: {text}"
        );
    }

    #[test]
    fn call_site_wrapped_in_block_region() {
        let (mut ir, analysis) = prep(SRC);
        let n = block_call(
            &mut ir,
            &analysis,
            Symbol::intern("sum"),
            Symbol::intern("create_list"),
        )
        .unwrap();
        assert_eq!(n, 1);
        let text = ir.body.to_string();
        assert!(
            text.contains("(region[block] ((sum (create_list_blk 10))))")
                || text.contains("(region[block] (sum (create_list_blk 10)))"),
            "{text}"
        );
    }

    #[test]
    fn escaping_consumer_rejects_rewrite() {
        let src = "letrec idl l = cons (car l) (cdr l);
                          create_list n = if n = 0 then nil
                                          else cons n (create_list (n - 1))
                   in idl (create_list 5)";
        let (mut ir, analysis) = prep(src);
        let err = block_call(
            &mut ir,
            &analysis,
            Symbol::intern("idl"),
            Symbol::intern("create_list"),
        )
        .unwrap_err();
        assert!(matches!(err, OptError::NoMatchingCall { .. }), "{err:?}");
    }

    #[test]
    fn unknown_functions_rejected() {
        let (mut ir, analysis) = prep(SRC);
        assert!(matches!(
            block_call(
                &mut ir,
                &analysis,
                Symbol::intern("nope"),
                Symbol::intern("create_list")
            ),
            Err(OptError::UnknownFunction { .. })
        ));
        assert!(matches!(
            block_call(
                &mut ir,
                &analysis,
                Symbol::intern("sum"),
                Symbol::intern("nope")
            ),
            Err(OptError::UnknownFunction { .. })
        ));
    }

    #[test]
    fn producer_variant_is_idempotent() {
        let (mut ir, _a) = prep(SRC);
        let a = block_producer_variant(&mut ir, Symbol::intern("create_list")).unwrap();
        let n = ir.funcs.len();
        let b = block_producer_variant(&mut ir, Symbol::intern("create_list")).unwrap();
        assert_eq!(a, b);
        assert_eq!(n, ir.funcs.len());
    }
}
