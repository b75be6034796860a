//! The automatic in-place-reuse driver (paper §6, first transformation
//! rule):
//!
//! > If the bottom `esc_i` spines of the i-th parameter of `f` escape `f`
//! > globally then the expression can safely be transformed into
//! > `(f' e₁ … eₙ)` where `f'` … directly reuses cons cells of the i-th
//! > argument — *provided the argument's top spine is unshared*.
//!
//! [`reuse_variant`](crate::reuse_variant) builds the `f'`; this module decides **where calling
//! it is safe**, using the sharing analysis: an argument is known
//! unshared when it is a fresh direct construction (a literal `cons`
//! chain), or the result of a call whose own result is unshared by
//! Theorem 2 case 2 ([`unshared_from_summary`]). Only the program's main
//! body is rewritten — inside function bodies an argument's sharing
//! depends on the caller, which is exactly why the paper keeps the
//! obligation at the call site.

use crate::ir::{Arena, ExprId, IrExpr, IrProgram};
use crate::pipeline::Summaries;
use crate::reuse::{build_variant, reuse_param, FuncIndex, ReuseOptions};
use nml_escape::{unshared_from_summary, Analysis};
use nml_syntax::{IdMap, Symbol};
use std::collections::BTreeMap;

/// What the driver did.
#[derive(Debug, Clone, Default)]
pub struct AutoReuse {
    /// Generated variants: original name → (variant name, reuse parameter
    /// index).
    pub variants: BTreeMap<Symbol, (Symbol, usize)>,
    /// Number of main-body call sites redirected to a variant.
    pub rewritten_calls: usize,
}

/// The parameter [`reuse_variant`](crate::reuse_variant) would pick for `name` (the first list
/// parameter whose top spine is retained), if any.
pub fn default_reuse_param(analysis: &Analysis, name: Symbol) -> Option<usize> {
    analysis.summaries.get(&name).and_then(reuse_param)
}

/// Generates a reuse variant for every eligible top-level function and
/// redirects every main-body call whose reuse argument is provably
/// unshared.
pub fn auto_reuse(ir: &mut IrProgram, analysis: &Analysis) -> AutoReuse {
    reuse_pass(ir, &Summaries::new(analysis))
}

/// [`auto_reuse`] over summaries the pass manager already indexed.
pub(crate) fn reuse_pass(ir: &mut IrProgram, summaries: &Summaries) -> AutoReuse {
    let analysis = summaries.analysis;
    let mut result = AutoReuse::default();

    // 1. Build every variant that the analysis and the last-use/guard
    //    conditions license.
    let mut index = FuncIndex::new(ir);
    for (&name, summary) in &analysis.summaries {
        // Never build reuse variants from degraded (worst-case) summaries.
        if summaries.is_degraded(name) {
            continue;
        }
        let Some(param) = reuse_param(summary) else {
            continue;
        };
        if let Ok(variant) = build_variant(ir, summaries, name, &ReuseOptions::dcons(), &mut index)
        {
            result.variants.insert(name, (variant, param));
        }
    }
    if result.variants.is_empty() {
        return result;
    }

    // 2. Redirect safe main-body calls.
    let originals: IdMap<Symbol, Symbol> = result
        .variants
        .iter()
        .map(|(orig, (variant, _))| (*variant, *orig))
        .collect();
    let redirect = Redirect {
        summaries,
        variants: &result.variants,
        originals,
    };
    let root = ir.body.root();
    redirect.rewrite(&mut ir.body, root, &mut result.rewritten_calls);
    result
}

/// The main-body call redirection: which calls may enter a variant.
struct Redirect<'a> {
    summaries: &'a Summaries<'a>,
    /// Original name → (variant name, reuse parameter index).
    variants: &'a BTreeMap<Symbol, (Symbol, usize)>,
    /// Variant name → original name.
    originals: IdMap<Symbol, Symbol>,
}

impl Redirect<'_> {
    /// Is the value of `e` certainly unshared in its **whole top spine**?
    ///
    /// - `nil` has no cells;
    /// - a direct `cons` is fresh, but only the first cell — its *tail*
    ///   must be unshared too (a `cons 0 shared_list` has a shared spine
    ///   suffix, and the reuse variant walks the whole spine);
    /// - a *full* call of a top-level function `g` is unshared in its top
    ///   `unshared_from_summary(g)` spines (Theorem 2, case 2) — variants
    ///   inherit their original's summary.
    fn is_unshared(&self, a: &Arena, id: ExprId) -> bool {
        match a[id] {
            IrExpr::Const(nml_syntax::Const::Nil) => true,
            IrExpr::Cons { tail, .. } | IrExpr::Dcons { tail, .. } => self.is_unshared(a, tail),
            IrExpr::Region { inner, .. } => self.is_unshared(a, inner),
            IrExpr::App(..) => {
                let Some((g, n)) = a.called_var(id) else {
                    return false;
                };
                // A variant g_r behaves like g for sharing purposes.
                let orig = self.originals.get(&g).copied().unwrap_or(g);
                self.summaries
                    .trusted(orig)
                    .is_some_and(|s| s.arity() == n && unshared_from_summary(s) >= 1)
            }
            _ => false,
        }
    }

    fn rewrite(&self, a: &mut Arena, id: ExprId, count: &mut usize) {
        // Children first, so chains like rev (rev l) redirect inside-out
        // and the inner rewrite's unshared result licenses the outer one.
        a.for_each_child_mut(id, |a, c| self.rewrite(a, c, count));
        let Some((f, n)) = a.called_var(id) else {
            return;
        };
        let Some(&(variant, param)) = self.variants.get(&f) else {
            return;
        };
        let Some(summary) = self.summaries.get(f) else {
            return;
        };
        if summary.arity() != n || !self.is_unshared(a, nth_arg(a, id, param, n)) {
            return;
        }
        *count += 1;
        let head = a.spine(id).0;
        a[head] = IrExpr::Var(variant);
    }
}

/// Argument `j` (0 = leftmost) of the `n`-argument spine rooted at `id`.
fn nth_arg(a: &Arena, id: ExprId, j: usize, n: usize) -> ExprId {
    let mut cur = id;
    for _ in j + 1..n {
        let IrExpr::App(f, _) = a[cur] else {
            unreachable!("the spine has {n} arguments")
        };
        cur = f;
    }
    match a[cur] {
        IrExpr::App(_, arg) => arg,
        _ => unreachable!("the spine has {n} arguments"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;

    #[test]
    fn literal_argument_is_rewritten() {
        let (mut ir, analysis) = prep(
            "letrec rev l a = if (null l) then a
                              else rev (cdr l) (cons (car l) a)
             in rev [1, 2, 3] nil",
        );
        let auto = auto_reuse(&mut ir, &analysis);
        assert_eq!(auto.rewritten_calls, 1, "{}", ir.body);
        assert!(ir.body.to_string().contains("rev_r"), "{}", ir.body);
    }

    #[test]
    fn unshared_producer_chain_is_rewritten() {
        // take's result is unshared (Thm 2 case 2: esc = 0 spines from its
        // list parameter... take rebuilds its spine), so rev may reuse it.
        let (mut ir, analysis) = prep(
            "letrec take n l = if n = 0 then nil
                               else if (null l) then nil
                               else cons (car l) (take (n - 1) (cdr l));
                    rev l a = if (null l) then a
                              else rev (cdr l) (cons (car l) a)
             in rev (take 2 [1, 2, 3]) nil",
        );
        let auto = auto_reuse(&mut ir, &analysis);
        assert!(auto.rewritten_calls >= 1);
        let text = ir.body.to_string();
        assert!(text.contains("rev_r ((take_r 2)"), "{text}");
    }

    #[test]
    fn shared_suffix_producer_blocks_rewrite() {
        // drop returns a suffix of its argument — its result spine IS the
        // argument's spine, shared: unshared_from_summary(drop) = 0, so a
        // reuse variant must NOT be called on drop's result.
        let (mut ir, analysis) = prep(
            "letrec drop n l = if n = 0 then l
                               else if (null l) then nil
                               else drop (n - 1) (cdr l);
                    rev l a = if (null l) then a
                              else rev (cdr l) (cons (car l) a)
             in rev (drop 1 [1, 2, 3]) nil",
        );
        let auto = auto_reuse(&mut ir, &analysis);
        assert_eq!(auto.rewritten_calls, 0, "{}", ir.body);
        assert!(!ir.body.to_string().contains("rev_r ("), "{}", ir.body);
    }

    #[test]
    fn cons_onto_shared_tail_blocks_rewrite() {
        // `cons 0 k` has a fresh head cell but k's shared spine as its
        // tail; the reuse variant would destructively walk k. Must not
        // rewrite.
        let (mut ir, analysis) = prep(
            "letrec k = [1, 2, 3];
                    rev l a = if (null l) then a
                              else rev (cdr l) (cons (car l) a)
             in rev (cons 0 k) nil",
        );
        let auto = auto_reuse(&mut ir, &analysis);
        assert_eq!(auto.rewritten_calls, 0, "{}", ir.body);
        // A fully literal spine still rewrites.
        let (mut ir2, analysis2) = prep(
            "letrec rev l a = if (null l) then a
                              else rev (cdr l) (cons (car l) a)
             in rev (cons 0 (cons 1 nil)) nil",
        );
        let auto2 = auto_reuse(&mut ir2, &analysis2);
        assert_eq!(auto2.rewritten_calls, 1, "{}", ir2.body);
    }

    #[test]
    fn ineligible_functions_get_no_variant() {
        let (mut ir, analysis) = prep("letrec inc x = x + 1 in inc 1");
        let auto = auto_reuse(&mut ir, &analysis);
        assert!(auto.variants.is_empty());
        assert_eq!(auto.rewritten_calls, 0);
    }

    // Execution-level validation of auto_reuse lives in the workspace
    // integration suite (tests/optimizations.rs): this crate cannot
    // depend on nml-runtime.
}
