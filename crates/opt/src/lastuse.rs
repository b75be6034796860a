//! Last-use analysis for `DCONS` legality.
//!
//! The paper's in-place-reuse rule (§6): in `f x₁ … xₙ = … (cons e₁ e₂) …`,
//! if there is **no further use of `x_i` after the evaluation of
//! `(cons e₁ e₂)`**, the cons may become `DCONS x_i e₁ e₂`. Uses of `x_i`
//! *inside* `e₁`/`e₂` are fine — `DCONS` evaluates both before
//! overwriting.
//!
//! This module computes, for a fixed strict left-to-right evaluation
//! order, which `cons` sites have no subsequent use of the variable, and
//! additionally which sites are *guarded*: dominated by the `else` branch
//! of an `if (null x) …`, so the cell to overwrite certainly exists.
//!
//! If the variable occurs free under any `lambda`, no site is eligible:
//! the closure may run (and read the variable's cells) at any later time.

use crate::ir::{Arena, ExprId, IrExpr, SiteId};
use nml_syntax::Symbol;
use std::collections::BTreeSet;

/// A `cons` site eligible for `DCONS` reuse of a given variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EligibleSite {
    /// The site id of the `cons`.
    pub site: SiteId,
}

/// Returns the `cons` sites of `body` that may be rewritten to
/// `DCONS x …`: guarded by a null test on `x` and with no use of `x`
/// after the cell is allocated.
pub fn eligible_sites(body: &Arena, x: Symbol) -> Vec<EligibleSite> {
    if occurs_under_lambda(body, x) {
        return Vec::new();
    }
    let mut out = Vec::new();
    collect(body, body.root(), x, false, false, &mut out);
    // `collect` visits in reverse evaluation order.
    out.reverse();
    out
}

/// Whether `x` occurs free under a `lambda` within `body` (which defers
/// uses to an unknown time).
pub fn occurs_under_lambda(body: &Arena, x: Symbol) -> bool {
    free(body, body.root(), x, false, true)
}

/// Whether `x` is used anywhere in the subtree at `id` (free occurrences
/// only).
pub fn uses(a: &Arena, id: ExprId, x: Symbol) -> bool {
    free(a, id, x, false, false)
}

/// Whether `x` occurs free in the subtree at `id`; with `lambda_only`
/// only occurrences under a `lambda` count (`under`: inside one here).
fn free(a: &Arena, id: ExprId, x: Symbol, under: bool, lambda_only: bool) -> bool {
    match a[id] {
        IrExpr::Var(y) => y == x && (under || !lambda_only),
        IrExpr::Lambda { param, body, .. } => param != x && free(a, body, x, true, lambda_only),
        IrExpr::Letrec(bs, _) if a.binds(bs).iter().any(|(n, _)| *n == x) => false,
        _ => a.children(id).any(|c| free(a, c, x, under, lambda_only)),
    }
}

/// Is node `c` the expression `null x`?
fn is_null_test(a: &Arena, c: ExprId, x: Symbol) -> bool {
    matches!(a[c], IrExpr::Prim1(nml_syntax::Prim::Null, v)
        if matches!(a[v], IrExpr::Var(y) if y == x))
}

/// Walks the subtree at `id` backwards, in reverse evaluation order, so
/// that whether `x` is used by later code is known on arrival. `after` =
/// "x is used by code that runs after this node finishes"; `guarded` =
/// "x is known non-nil here". Pushes eligible sites in reverse pre-order
/// and returns whether the node uses `x` (as [`uses`] does).
fn collect(
    a: &Arena,
    id: ExprId,
    x: Symbol,
    after: bool,
    guarded: bool,
    out: &mut Vec<EligibleSite>,
) -> bool {
    match a[id] {
        IrExpr::Const(_) => false,
        IrExpr::Var(y) => y == x,
        // Uses under lambda were excluded wholesale by `eligible_sites`;
        // conses inside a lambda body run at unknown times relative to
        // other uses, so they are never eligible.
        IrExpr::Lambda { .. } => uses(a, id, x),
        IrExpr::If(c, t, f) => {
            let else_guarded = guarded || is_null_test(a, c, x);
            let in_f = collect(a, f, x, after, else_guarded, out);
            let in_t = collect(a, t, x, after, guarded, out);
            collect(a, c, x, after || in_t || in_f, guarded, out) || in_t || in_f
        }
        IrExpr::Letrec(bs, body) => {
            if a.binds(bs).iter().any(|(n, _)| *n == x) {
                return false;
            }
            let mut later = collect(a, body, x, after, guarded, out);
            for &(_, be) in a.binds(bs).iter().rev() {
                later |= collect(a, be, x, after || later, guarded, out);
            }
            later
        }
        IrExpr::Cons {
            head, tail, site, ..
        } => {
            let used = later_then_earlier(a, head, tail, x, after, guarded, out);
            // The allocation is the last event of this node: eligible iff
            // nothing after the node uses x and the cell is guaranteed to
            // exist.
            if !after && guarded {
                out.push(EligibleSite { site });
            }
            used
        }
        IrExpr::App(p, q)
        | IrExpr::Prim2(_, p, q)
        | IrExpr::Dcons {
            head: p, tail: q, ..
        } => later_then_earlier(a, p, q, x, after, guarded, out),
        IrExpr::Prim1(_, p) | IrExpr::Region { inner: p, .. } => {
            collect(a, p, x, after, guarded, out)
        }
    }
}

/// [`collect`] over two operands evaluated `first` then `second`.
fn later_then_earlier(
    a: &Arena,
    first: ExprId,
    second: ExprId,
    x: Symbol,
    after: bool,
    guarded: bool,
    out: &mut Vec<EligibleSite>,
) -> bool {
    let in_second = collect(a, second, x, after, guarded, out);
    collect(a, first, x, after || in_second, guarded, out) || in_second
}

/// From the eligible sites, selects a non-conflicting subset: at most one
/// reuse may happen per execution of the function body (each execution
/// has only one first cell of `x` to overwrite). Sites in the two arms of
/// an `if` are mutually exclusive; everything else conflicts. The
/// *latest* site in evaluation order is preferred in each arm (it is the
/// one building the result).
pub fn select_sites(body: &Arena, eligible: &[EligibleSite]) -> BTreeSet<SiteId> {
    let set: BTreeSet<SiteId> = eligible.iter().map(|s| s.site).collect();
    let mut chosen = BTreeSet::new();
    choose(body, body.root(), &set, &mut chosen);
    chosen
}

/// Returns true if a site was chosen within the subtree at `id`.
fn choose(
    a: &Arena,
    id: ExprId,
    eligible: &BTreeSet<SiteId>,
    chosen: &mut BTreeSet<SiteId>,
) -> bool {
    match a[id] {
        IrExpr::Const(_) | IrExpr::Var(_) | IrExpr::Lambda { .. } => false,
        // Branches are exclusive: choose in each independently.
        IrExpr::If(_c, t, f) => {
            let x = choose(a, t, eligible, chosen);
            let y = choose(a, f, eligible, chosen);
            x || y
        }
        IrExpr::Cons {
            head, tail, site, ..
        } => {
            // Prefer the cons itself (the last event); otherwise try the
            // children, latest first.
            if eligible.contains(&site) {
                chosen.insert(site);
                return true;
            }
            choose(a, tail, eligible, chosen) || choose(a, head, eligible, chosen)
        }
        IrExpr::Dcons { head, tail, .. } => {
            choose(a, tail, eligible, chosen) || choose(a, head, eligible, chosen)
        }
        IrExpr::App(p, q) | IrExpr::Prim2(_, p, q) => {
            choose(a, q, eligible, chosen) || choose(a, p, eligible, chosen)
        }
        IrExpr::Prim1(_, p) | IrExpr::Letrec(_, p) | IrExpr::Region { inner: p, .. } => {
            choose(a, p, eligible, chosen)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lower;

    fn body_of(src: &str, f: &str) -> Arena {
        let ir = lower(src);
        ir.func(Symbol::intern(f)).expect("func").body.clone()
    }

    #[test]
    fn append_tail_cons_is_eligible() {
        let body = body_of(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y)
             in append [1] [2]",
            "append",
        );
        let sites = eligible_sites(&body, Symbol::intern("x"));
        assert_eq!(sites.len(), 1, "exactly the tail cons");
        let chosen = select_sites(&body, &sites);
        assert_eq!(chosen.len(), 1);
        // y has no eligible sites: the only cons is not guarded by null y.
        assert!(eligible_sites(&body, Symbol::intern("y")).is_empty());
    }

    #[test]
    fn rev_argument_cons_is_eligible() {
        // The paper's REV: cons (car l) nil appears in argument position
        // but l is dead afterwards.
        let body = body_of(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y);
                    rev l = if (null l) then nil
                            else append (rev (cdr l)) (cons (car l) nil)
             in rev [1]",
            "rev",
        );
        let sites = eligible_sites(&body, Symbol::intern("l"));
        assert_eq!(sites.len(), 1);
    }

    #[test]
    fn use_after_cons_blocks_eligibility() {
        // l is used (car l) *after* the cons (argument order), so the cons
        // may not overwrite l's cell.
        let body = body_of(
            "letrec f l = if (null l) then nil
                          else cons (car (cons 9 l)) (cons (car l) nil)
             in f [1]",
            "f",
        );
        let sites = eligible_sites(&body, Symbol::intern("l"));
        // The inner `cons 9 l` runs before `(cons (car l) nil)` reads l:
        // not eligible. The final cons has no later use: eligible. The
        // outer cons is the very last event: eligible too.
        for s in &sites {
            assert!(sites.iter().filter(|t| t.site == s.site).count() == 1);
        }
        // At minimum, the early cons must NOT be eligible; find it by
        // checking count is at most 2 (outer + last argument cons).
        assert!(sites.len() <= 2, "early cons leaked in: {sites:?}");
    }

    #[test]
    fn unguarded_cons_is_not_eligible() {
        let body = body_of("letrec f l = cons 1 l in f [1]", "f");
        assert!(eligible_sites(&body, Symbol::intern("l")).is_empty());
    }

    #[test]
    fn capture_under_lambda_disables_everything() {
        let body = body_of(
            "letrec f l = if (null l) then nil
                          else (lambda(z). cons (car l) nil) (cons 1 nil)
             in f [1]",
            "f",
        );
        assert!(eligible_sites(&body, Symbol::intern("l")).is_empty());
    }

    #[test]
    fn branches_select_independently() {
        let body = body_of(
            "letrec f l b = if (null l) then nil
                            else if b then cons (car l) nil
                                 else cons 9 nil
             in f [1] true",
            "f",
        );
        let sites = eligible_sites(&body, Symbol::intern("l"));
        assert_eq!(sites.len(), 2, "one per arm");
        let chosen = select_sites(&body, &sites);
        assert_eq!(chosen.len(), 2, "arms are exclusive paths");
    }

    #[test]
    fn uses_respects_shadowing() {
        let body = body_of("letrec f x = (lambda(x). x) 1 in f 2", "f");
        assert!(!uses(&body, body.root(), Symbol::intern("zzz")));
        // x under the lambda is the lambda's own x.
        assert!(!occurs_under_lambda(&body, Symbol::intern("x")));
    }
}
