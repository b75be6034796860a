//! Error diagnostics: type errors carry usable spans and render with
//! carets pointing at the offending source.

use nml_syntax::{parse_program, SourceMap};
use nml_types::{infer_program, TypeErrorKind};

fn error_render(src: &str) -> (TypeErrorKind, String) {
    let map = SourceMap::new(src);
    let p = parse_program(src).expect("parse");
    let err = infer_program(&p).expect_err("ill-typed");
    let rendered = err.render(&map);
    (err.kind, rendered)
}

#[test]
fn mismatch_points_at_the_bad_branch() {
    let (kind, rendered) = error_render("if true then 1 else false");
    assert!(matches!(kind, TypeErrorKind::Mismatch { .. }));
    assert_eq!(
        rendered,
        "error: type mismatch: expected `int`, found `bool`\n --> 1:1\n  |\n  \
         | if true then 1 else false\n  | ^^^^^^^^^^^^^^^^^^^^^^^^^"
    );
}

#[test]
fn unbound_identifier_names_it() {
    let (kind, rendered) = error_render("missing 1");
    assert!(matches!(kind, TypeErrorKind::Unbound { .. }));
    assert_eq!(
        rendered,
        "error: unbound identifier `missing`\n --> 1:1\n  |\n  | missing 1\n  | ^^^^^^^"
    );
}

#[test]
fn occurs_check_renders_infinite_type() {
    let (kind, rendered) = error_render("lambda(x). x x");
    assert!(matches!(kind, TypeErrorKind::Occurs { .. }));
    // The variable names pin the order fresh variables are handed out in.
    assert_eq!(
        rendered,
        "error: cannot construct the infinite type `'a = 'a -> 'b`\n --> 1:12\n  |\n  \
         | lambda(x). x x\n  |            ^^^"
    );
    let (_, rendered) = error_render("letrec g x = cons x x in g 1");
    assert_eq!(
        rendered,
        "error: cannot construct the infinite type `'b = 'b list`\n --> 1:14\n  |\n  \
         | letrec g x = cons x x in g 1\n  |              ^^^^^^^^"
    );
}

#[test]
fn condition_type_error_points_at_condition() {
    let src = "letrec f l = if l then 1 else 2 in f [1]";
    let map = SourceMap::new(src);
    let p = parse_program(src).expect("parse");
    let err = infer_program(&p).expect_err("ill-typed");
    let lc = map.line_col(err.span.start);
    // The condition `l` is in the first (only) line, after `if `.
    assert_eq!(lc.line, 1);
    assert!(lc.col >= 17, "span points into the condition: {lc}");
}

#[test]
fn error_spans_work_across_lines() {
    let src = "letrec f x =\n  x + true\nin f 1";
    let map = SourceMap::new(src);
    let p = parse_program(src).expect("parse");
    let err = infer_program(&p).expect_err("ill-typed");
    let lc = map.line_col(err.span.start);
    assert_eq!(lc.line, 2, "error on the second line");
    let rendered = err.render(&map);
    assert!(
        rendered.contains("x + true"),
        "snippet shows the line: {rendered}"
    );
}

#[test]
fn ascription_conflicts_render() {
    let (kind, rendered) = error_render("([1] : bool list)");
    assert!(matches!(kind, TypeErrorKind::Mismatch { .. }));
    assert_eq!(
        rendered,
        "error: type mismatch: expected `int`, found `bool`\n --> 1:1\n  |\n  \
         | ([1] : bool list)\n  | ^^^^^^^^^^^^^^^^^"
    );
}

#[test]
fn product_mismatch_mentions_product_type() {
    let (_, rendered) = error_render("fst [1]");
    assert_eq!(
        rendered,
        "error: type mismatch: expected `'a * 'b`, found `int list`\n --> 1:1\n  |\n  \
         | fst [1]\n  | ^^^^^^^"
    );
}

/// A mismatch under instantiation names the fresh variables each use of
/// a polymorphic binding received, in the order they were handed out.
#[test]
fn instantiated_mismatch_names_fresh_variables() {
    let (_, rendered) = error_render("letrec pair a b = (a, b) in fst (pair 1)");
    assert_eq!(
        rendered,
        "error: type mismatch: expected `'h * 'i`, found `'k -> int * 'k`\n --> 1:29\n  |\n  \
         | letrec pair a b = (a, b) in fst (pair 1)\n  |                             ^^^^^^^^^^^^"
    );
    let src = "letrec map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l)) \
               in map (lambda(p). fst p) [[1]]";
    let (_, rendered) = error_render(src);
    assert_eq!(
        rendered,
        format!(
            "error: type mismatch: expected `'v * 'u`, found `int list`\n --> 1:80\n  |\n  \
             | {src}\n  | {}{}",
            " ".repeat(79),
            "^".repeat(28)
        )
    );
}
