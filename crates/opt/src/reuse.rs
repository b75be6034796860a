//! The in-place reuse transformation (paper §6, §A.3.2).
//!
//! Given global escape information saying that the top spine of a list
//! parameter does not escape, and last-use information saying the
//! parameter is dead after a `cons`, the transformation produces a new
//! version `f_r` of `f` in which that `cons` destructively reuses the
//! parameter's first spine cell:
//!
//! ```text
//! APPEND' x y = if (null x) then y
//!               else DCONS x (car x) (APPEND' (cdr x) y)
//! ```
//!
//! Applying `f_r` is only safe when the actual argument's top spine is
//! **unshared** — which the sharing analysis (Theorem 2) establishes for
//! results of functions like `PS`; that obligation stays with the caller,
//! exactly as in the paper.

use crate::error::OptError;
use crate::ir::{variant_name, Arena, ExprId, IrExpr, IrFunc, IrProgram, SiteId, VariantKind};
use crate::lastuse::{eligible_sites, select_sites};
use crate::pipeline::Summaries;
use nml_escape::{Analysis, EscapeSummary};
use nml_syntax::{IdMap, Symbol};
use std::collections::BTreeSet;

/// Options controlling [`reuse_variant`].
#[derive(Debug, Clone, Default)]
pub struct ReuseOptions {
    /// Which parameter (0-based) to reuse. `None` picks the first
    /// eligible list parameter.
    pub param: Option<usize>,
    /// Additional call rewrites to apply inside the new body, e.g.
    /// `append -> append_r` when building the paper's `PS'` whose
    /// intermediate lists are known unshared. The self-recursion rewrite
    /// `f -> f_r` is always applied.
    pub extra_rewrites: Vec<(Symbol, Symbol)>,
    /// If `false`, no `DCONS` is introduced — only the rewrites are
    /// applied (the paper's `PS'`, which merely calls `APPEND'`).
    pub dcons: bool,
}

impl ReuseOptions {
    /// The default full transformation: auto-select a parameter and
    /// introduce `DCONS`.
    pub fn dcons() -> Self {
        ReuseOptions {
            dcons: true,
            ..ReuseOptions::default()
        }
    }
}

/// The preferred name for the reuse variant of `name` (the paper writes
/// `APPEND'`; apostrophes are not identifiers, so this is `append_r`). A
/// program that already binds that name gets a fresh one instead; the
/// name actually used is the one [`reuse_variant`] returns.
pub fn reuse_name(name: Symbol) -> Symbol {
    Symbol::intern(&format!("{name}_r"))
}

/// Creates the in-place-reuse variant of top-level function `name`,
/// appends it to `ir`, and returns its name.
///
/// # Errors
///
/// - [`OptError::UnknownFunction`] if `name` is not a top-level function;
/// - [`OptError::NoEligibleParam`] if no (selected) parameter is a list
///   whose top spine is retained per the analysis;
/// - [`OptError::NoEligibleSite`] if `dcons` was requested but no `cons`
///   satisfies the guardedness/last-use conditions;
/// - [`OptError::DegradedSummary`] if the function's summary is a
///   worst-case degradation stand-in.
pub fn reuse_variant(
    ir: &mut IrProgram,
    analysis: &Analysis,
    name: Symbol,
    options: &ReuseOptions,
) -> Result<Symbol, OptError> {
    let mut index = FuncIndex::new(ir);
    build_variant(ir, &Summaries::new(analysis), name, options, &mut index)
}

/// Top-level name → position of its first binding in `IrProgram::funcs`
/// (the binding [`IrProgram::func`] finds).
pub(crate) struct FuncIndex(IdMap<Symbol, usize>);

impl FuncIndex {
    pub(crate) fn new(ir: &IrProgram) -> Self {
        let mut first = IdMap::with_capacity_and_hasher(ir.funcs.len(), Default::default());
        for (i, f) in ir.funcs.iter().enumerate() {
            first.entry(f.name).or_insert(i);
        }
        FuncIndex(first)
    }
}

/// [`reuse_variant`] with the summaries and the function index built
/// once by the caller. Eligibility is decided on the borrowed body; only
/// a body that is actually rewritten is cloned (one copy of its arena).
pub(crate) fn build_variant(
    ir: &mut IrProgram,
    summaries: &Summaries,
    name: Symbol,
    options: &ReuseOptions,
    index: &mut FuncIndex,
) -> Result<Symbol, OptError> {
    let unknown = || OptError::UnknownFunction {
        name: name.to_string(),
    };
    let no_param = || OptError::NoEligibleParam {
        name: name.to_string(),
    };
    if summaries.is_degraded(name) {
        return Err(OptError::DegradedSummary {
            name: name.to_string(),
        });
    }
    let func = index
        .0
        .get(&name)
        .map(|&i| &ir.funcs[i])
        .filter(|f| f.is_function())
        .ok_or_else(unknown)?;
    if let Some(&variant) = ir.variants.get(&(name, VariantKind::Reuse)) {
        return Ok(variant); // already generated
    }

    let dcons = if options.dcons {
        let summary = summaries.get(name).ok_or_else(unknown)?;
        // Pick the reuse parameter.
        let param_idx = match options.param {
            Some(i) => {
                let p = summary.params.get(i).ok_or_else(no_param)?;
                if !(p.ty.is_list() && p.retained_spines() >= 1) {
                    return Err(no_param());
                }
                i
            }
            None => reuse_param(summary).ok_or_else(no_param)?,
        };
        let x = func.params[param_idx];
        let eligible = eligible_sites(&func.body, x);
        let chosen = select_sites(&func.body, &eligible);
        if chosen.is_empty() {
            return Err(OptError::NoEligibleSite {
                name: name.to_string(),
            });
        }
        Some((x, chosen))
    } else {
        None
    };

    let mut body = func.body.clone();
    let params = func.params.clone();
    if let Some((x, chosen)) = dcons {
        to_dcons(&mut body, x, &chosen);
    }
    let preferred = reuse_name(name);
    let new_name = variant_name(preferred, index.0.contains_key(&preferred));
    let mut rewrites = vec![(name, new_name)];
    rewrites.extend(options.extra_rewrites.iter().copied());
    rename_calls(&mut body, &rewrites);

    index.0.insert(new_name, ir.funcs.len());
    ir.variants.insert((name, VariantKind::Reuse), new_name);
    ir.funcs.push(IrFunc {
        name: new_name,
        params,
        body,
    });
    Ok(new_name)
}

/// The first list parameter whose top spine is retained: the one a
/// variant reuses unless told otherwise.
pub(crate) fn reuse_param(summary: &EscapeSummary) -> Option<usize> {
    summary
        .params
        .iter()
        .position(|p| p.ty.is_list() && p.retained_spines() >= 1)
}

/// Replaces the chosen `cons` sites by `DCONS x …`, each in its own
/// node slot (same children, same site).
fn to_dcons(body: &mut Arena, x: Symbol, chosen: &BTreeSet<SiteId>) {
    for e in body.nodes_mut() {
        if let IrExpr::Cons {
            head, tail, site, ..
        } = *e
        {
            if chosen.contains(&site) {
                *e = IrExpr::Dcons {
                    reused: x,
                    head,
                    tail,
                    site,
                };
            }
        }
    }
}

/// Renames free variable references per `rewrites` (used to redirect
/// recursive and helper calls into the optimized variants). Respects
/// shadowing by lambda parameters and `letrec` binders.
pub(crate) fn rename_calls(body: &mut Arena, rewrites: &[(Symbol, Symbol)]) {
    fn go(a: &mut Arena, id: ExprId, rw: &[(Symbol, Symbol)], bound: &mut Vec<Symbol>) {
        match a[id] {
            IrExpr::Var(x) => {
                if !bound.contains(&x) {
                    if let Some(&(_, to)) = rw.iter().find(|(from, _)| *from == x) {
                        a[id] = IrExpr::Var(to);
                    }
                }
            }
            IrExpr::Lambda { param, body, .. } => {
                bound.push(param);
                go(a, body, rw, bound);
                bound.pop();
            }
            IrExpr::Letrec(bs, _) => {
                let outer = bound.len();
                bound.extend(a.binds(bs).iter().map(|(n, _)| *n));
                a.for_each_child_mut(id, |a, c| go(a, c, rw, bound));
                bound.truncate(outer);
            }
            _ => a.for_each_child_mut(id, |a, c| go(a, c, rw, bound)),
        }
    }
    let root = body.root();
    go(body, root, rewrites, &mut Vec::new())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;

    const APPEND_SRC: &str = "letrec append x y = if (null x) then y
                                                  else cons (car x) (append (cdr x) y)
                              in append [1] [2]";

    #[test]
    fn append_prime_matches_paper() {
        let (mut ir, analysis) = prep(APPEND_SRC);
        let new = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("append"),
            &ReuseOptions::dcons(),
        )
        .expect("transform");
        assert_eq!(new.as_str(), "append_r");
        let f = ir.func(new).expect("variant exists");
        let text = f.body.to_string();
        // APPEND' x y = if (null x) then y else DCONS x (car x) (APPEND' (cdr x) y)
        assert!(
            text.contains("(DCONS x (car x) ((append_r (cdr x)) y))"),
            "{text}"
        );
    }

    #[test]
    fn rev_prime_matches_paper() {
        let src = "letrec append x y = if (null x) then y
                                       else cons (car x) (append (cdr x) y);
                          rev l = if (null l) then nil
                                  else append (rev (cdr l)) (cons (car l) nil)
                   in rev [1, 2]";
        let (mut ir, analysis) = prep(src);
        let append_r = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("append"),
            &ReuseOptions::dcons(),
        )
        .unwrap();
        let rev_r = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("rev"),
            &ReuseOptions {
                extra_rewrites: vec![(Symbol::intern("append"), append_r)],
                dcons: true,
                ..Default::default()
            },
        )
        .unwrap();
        let text = ir.func(rev_r).unwrap().body.to_string();
        // REV' l = if (null l) then nil
        //          else APPEND' (REV' (cdr l)) (DCONS l (car l) nil)
        assert!(
            text.contains("((append_r (rev_r (cdr l))) (DCONS l (car l) nil))"),
            "{text}"
        );
    }

    #[test]
    fn ps_prime_without_dcons_only_rewrites() {
        let src = "letrec append x y = if (null x) then y
                                       else cons (car x) (append (cdr x) y);
                          ps x = if (null x) then nil
                                 else append (ps (cdr x)) (cons (car x) nil)
                   in ps [2, 1]";
        let (mut ir, analysis) = prep(src);
        let append_r = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("append"),
            &ReuseOptions::dcons(),
        )
        .unwrap();
        let ps_r = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("ps"),
            &ReuseOptions {
                extra_rewrites: vec![(Symbol::intern("append"), append_r)],
                dcons: false,
                ..Default::default()
            },
        )
        .unwrap();
        let text = ir.func(ps_r).unwrap().body.to_string();
        assert!(text.contains("append_r"), "{text}");
        assert!(!text.contains("DCONS"), "PS' introduces no DCONS: {text}");
        assert!(
            text.contains("ps_r (cdr x)"),
            "recursion redirected: {text}"
        );
    }

    #[test]
    fn ineligible_parameter_is_rejected() {
        // sum's parameter does not escape but IS eligible (list, retained).
        // A non-list parameter must be rejected.
        let (mut ir, analysis) = prep("letrec inc x = x + 1 in inc 1");
        let err = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("inc"),
            &ReuseOptions::dcons(),
        )
        .unwrap_err();
        assert!(matches!(err, OptError::NoEligibleParam { .. }));
    }

    #[test]
    fn escaping_spine_is_rejected() {
        // id returns its whole argument: top spine escapes, no reuse.
        let (mut ir, analysis) = prep("letrec idl l = cons (car l) (cdr l) in idl [1]");
        let err = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("idl"),
            &ReuseOptions::dcons(),
        )
        .unwrap_err();
        // The whole spine of l escapes (cdr l is the result tail):
        // retained = 0.
        assert!(matches!(err, OptError::NoEligibleParam { .. }), "{err:?}");
    }

    #[test]
    fn unknown_function_is_rejected() {
        let (mut ir, analysis) = prep(APPEND_SRC);
        let err = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("nope"),
            &ReuseOptions::dcons(),
        )
        .unwrap_err();
        assert!(matches!(err, OptError::UnknownFunction { .. }));
    }

    #[test]
    fn idempotent_generation() {
        let (mut ir, analysis) = prep(APPEND_SRC);
        let a = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("append"),
            &ReuseOptions::dcons(),
        )
        .unwrap();
        let n = ir.funcs.len();
        let b = reuse_variant(
            &mut ir,
            &analysis,
            Symbol::intern("append"),
            &ReuseOptions::dcons(),
        )
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(ir.funcs.len(), n, "no duplicate variant");
    }
}
