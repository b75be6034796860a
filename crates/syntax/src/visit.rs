//! AST traversal utilities: free variables and expression walking.

use crate::ast::{Expr, ExprKind};
use crate::symbol::Symbol;
use std::collections::BTreeSet;

/// The set of free identifiers of `e`.
///
/// Primitive constants (`cons`, `car`, ...) and literals are not
/// identifiers, so they never appear. The result is a `BTreeSet` for
/// deterministic iteration order.
pub fn free_vars(e: &Expr) -> BTreeSet<Symbol> {
    let mut free = BTreeSet::new();
    let mut bound = Vec::new();
    go(e, &mut bound, &mut free);
    free
}

fn go(e: &Expr, bound: &mut Vec<Symbol>, free: &mut BTreeSet<Symbol>) {
    match &e.kind {
        ExprKind::Const(_) => {}
        ExprKind::Var(x) => {
            if !bound.contains(x) {
                free.insert(*x);
            }
        }
        ExprKind::App(f, a) => {
            go(f, bound, free);
            go(a, bound, free);
        }
        ExprKind::Lambda(x, body) => {
            bound.push(*x);
            go(body, bound, free);
            bound.pop();
        }
        ExprKind::If(c, t, f) => {
            go(c, bound, free);
            go(t, bound, free);
            go(f, bound, free);
        }
        ExprKind::Letrec(bs, body) => {
            let n = bs.len();
            for b in bs {
                bound.push(b.name);
            }
            for b in bs {
                go(&b.expr, bound, free);
            }
            go(body, bound, free);
            bound.truncate(bound.len() - n);
        }
        ExprKind::Annot(inner, _) => go(inner, bound, free),
    }
}

/// Calls `f` on every node of `e`, pre-order.
pub fn walk_exprs<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match &e.kind {
        ExprKind::Const(_) | ExprKind::Var(_) => {}
        ExprKind::App(fun, arg) => {
            walk_exprs(fun, f);
            walk_exprs(arg, f);
        }
        ExprKind::Lambda(_, body) => walk_exprs(body, f),
        ExprKind::If(c, t, el) => {
            walk_exprs(c, f);
            walk_exprs(t, f);
            walk_exprs(el, f);
        }
        ExprKind::Letrec(bs, body) => {
            for b in bs {
                walk_exprs(&b.expr, f);
            }
            walk_exprs(body, f);
        }
        ExprKind::Annot(inner, _) => walk_exprs(inner, f),
    }
}

/// Shifts every node id of `e` (pre-order, in place) by `offset` and
/// returns one past the largest resulting id.
///
/// Used when grafting a freshly parsed expression (whose ids start at 0)
/// into an existing [`Program`](crate::ast::Program): offsetting by the
/// program's `next_node_id` keeps all ids unique, and the return value is
/// the program's new `next_node_id`. Ids are never reused, so an entry
/// of a per-node side table keyed by an old subtree's id can never alias
/// a new node.
pub fn offset_node_ids(e: &mut Expr, offset: u32) -> u32 {
    let mut max_plus_one = 0;
    shift(e, offset, &mut max_plus_one);
    max_plus_one
}

fn shift(e: &mut Expr, offset: u32, max_plus_one: &mut u32) {
    e.id = crate::ast::NodeId(e.id.0 + offset);
    *max_plus_one = (*max_plus_one).max(e.id.0 + 1);
    match &mut e.kind {
        ExprKind::Const(_) | ExprKind::Var(_) => {}
        ExprKind::App(f, a) => {
            shift(f, offset, max_plus_one);
            shift(a, offset, max_plus_one);
        }
        ExprKind::Lambda(_, body) => shift(body, offset, max_plus_one),
        ExprKind::If(c, t, el) => {
            shift(c, offset, max_plus_one);
            shift(t, offset, max_plus_one);
            shift(el, offset, max_plus_one);
        }
        ExprKind::Letrec(bs, body) => {
            for b in bs {
                shift(&mut b.expr, offset, max_plus_one);
            }
            shift(body, offset, max_plus_one);
        }
        ExprKind::Annot(inner, _) => shift(inner, offset, max_plus_one),
    }
}

/// Whether `a` and `b` are the same expression apart from node ids and
/// spans. Unlike comparing printed forms, this tells a variable from the
/// primitive constant of the same name.
pub fn same_tree(a: &Expr, b: &Expr) -> bool {
    match (&a.kind, &b.kind) {
        (ExprKind::Const(x), ExprKind::Const(y)) => x == y,
        (ExprKind::Var(x), ExprKind::Var(y)) => x == y,
        (ExprKind::App(f, x), ExprKind::App(g, y)) => same_tree(f, g) && same_tree(x, y),
        (ExprKind::Lambda(x, p), ExprKind::Lambda(y, q)) => x == y && same_tree(p, q),
        (ExprKind::If(c, t, e), ExprKind::If(d, u, f)) => {
            same_tree(c, d) && same_tree(t, u) && same_tree(e, f)
        }
        (ExprKind::Letrec(bs, p), ExprKind::Letrec(cs, q)) => {
            bs.len() == cs.len()
                && bs
                    .iter()
                    .zip(cs)
                    .all(|(b, c)| b.name == c.name && same_tree(&b.expr, &c.expr))
                && same_tree(p, q)
        }
        (ExprKind::Annot(p, s), ExprKind::Annot(q, t)) => s == t && same_tree(p, q),
        _ => false,
    }
}

/// Moves every span in `e`, including those of nested binding names, by
/// `by` bytes (see [`Span::shifted`](crate::span::Span::shifted)).
pub fn shift_spans(e: &mut Expr, by: i64) {
    e.span = e.span.shifted(by);
    match &mut e.kind {
        ExprKind::Const(_) | ExprKind::Var(_) => {}
        ExprKind::App(f, a) => {
            shift_spans(f, by);
            shift_spans(a, by);
        }
        ExprKind::Lambda(_, body) => shift_spans(body, by),
        ExprKind::If(c, t, el) => {
            shift_spans(c, by);
            shift_spans(t, by);
            shift_spans(el, by);
        }
        ExprKind::Letrec(bs, body) => {
            for b in bs {
                b.span = b.span.shifted(by);
                shift_spans(&mut b.expr, by);
            }
            shift_spans(body, by);
        }
        ExprKind::Annot(inner, _) => shift_spans(inner, by),
    }
}

/// Gives every node of `to` the id of the corresponding node of `from`,
/// so a re-parse of unchanged code keeps the ids its side tables use.
///
/// # Panics
///
/// Panics unless [`same_tree`]`(to, from)`.
pub fn copy_node_ids(to: &mut Expr, from: &Expr) {
    to.id = from.id;
    match (&mut to.kind, &from.kind) {
        (ExprKind::Const(_), ExprKind::Const(_)) | (ExprKind::Var(_), ExprKind::Var(_)) => {}
        (ExprKind::App(f, a), ExprKind::App(g, b)) => {
            copy_node_ids(f, g);
            copy_node_ids(a, b);
        }
        (ExprKind::Lambda(_, p), ExprKind::Lambda(_, q)) => copy_node_ids(p, q),
        (ExprKind::If(c, t, e), ExprKind::If(d, u, f)) => {
            copy_node_ids(c, d);
            copy_node_ids(t, u);
            copy_node_ids(e, f);
        }
        (ExprKind::Letrec(bs, p), ExprKind::Letrec(cs, q)) => {
            for (b, c) in bs.iter_mut().zip(cs) {
                copy_node_ids(&mut b.expr, &c.expr);
            }
            copy_node_ids(p, q);
        }
        (ExprKind::Annot(p, _), ExprKind::Annot(q, _)) => copy_node_ids(p, q),
        _ => panic!("copy_node_ids: the trees differ in shape"),
    }
}

/// Counts the occurrences of the variable `x` in `e`, respecting shadowing.
pub fn count_occurrences(e: &Expr, x: Symbol) -> usize {
    match &e.kind {
        ExprKind::Const(_) => 0,
        ExprKind::Var(y) => usize::from(*y == x),
        ExprKind::App(f, a) => count_occurrences(f, x) + count_occurrences(a, x),
        ExprKind::Lambda(y, body) => {
            if *y == x {
                0
            } else {
                count_occurrences(body, x)
            }
        }
        ExprKind::If(c, t, f) => {
            count_occurrences(c, x) + count_occurrences(t, x) + count_occurrences(f, x)
        }
        ExprKind::Letrec(bs, body) => {
            if bs.iter().any(|b| b.name == x) {
                0
            } else {
                bs.iter()
                    .map(|b| count_occurrences(&b.expr, x))
                    .sum::<usize>()
                    + count_occurrences(body, x)
            }
        }
        ExprKind::Annot(inner, _) => count_occurrences(inner, x),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn fv(src: &str) -> Vec<String> {
        free_vars(&parse_expr(src).unwrap())
            .into_iter()
            .map(|s| s.to_string())
            .collect()
    }

    #[test]
    fn lambda_binds() {
        assert_eq!(fv("lambda(x). x y"), vec!["y"]);
    }

    #[test]
    fn letrec_binds_recursively() {
        assert_eq!(fv("letrec f = g; g = f in f"), vec!["g"; 0]);
        assert_eq!(fv("letrec f = h in f"), vec!["h"]);
    }

    #[test]
    fn primitives_are_not_free() {
        assert_eq!(fv("cons x nil"), vec!["x"]);
    }

    #[test]
    fn shadowing_respected() {
        assert_eq!(fv("lambda(x). letrec x = 1 in x"), Vec::<String>::new());
    }

    #[test]
    fn occurrence_counting() {
        let e = parse_expr("x + (lambda(x). x) 1 + x").unwrap();
        assert_eq!(count_occurrences(&e, crate::symbol::Symbol::intern("x")), 2);
    }

    #[test]
    fn same_tree_ignores_ids_and_spans_only() {
        let a = parse_expr("letrec g y = (y : int) in lambda(x). if x then g 1 else 2").unwrap();
        let mut b = parse_expr("  letrec g y =\n (y : int)\n in lambda(x). if (x) then g 1 else 2")
            .unwrap();
        crate::visit::offset_node_ids(&mut b, 100);
        assert!(same_tree(&a, &b));
        copy_node_ids(&mut b, &a);
        let mut ids = Vec::new();
        walk_exprs(&b, &mut |e| ids.push(e.id));
        let mut want = Vec::new();
        walk_exprs(&a, &mut |e| want.push(e.id));
        assert_eq!(ids, want);
        assert_ne!(a, b, "spans still differ");
        shift_spans(&mut b, -2);
        assert_eq!(b.span.start, 0);
        // A variable is not the constant it prints as.
        let var = crate::parser::parse_expr_in_scope("car", &[Symbol::intern("car")]).unwrap();
        assert!(!same_tree(&var, &parse_expr("car").unwrap()));
        assert!(!same_tree(
            &a,
            &parse_expr("letrec g y = y in lambda(x). x").unwrap()
        ));
    }

    #[test]
    fn walk_visits_all() {
        let e = parse_expr("if a then b else c").unwrap();
        let mut n = 0;
        walk_exprs(&e, &mut |_| n += 1);
        assert_eq!(n, 4);
    }
}
