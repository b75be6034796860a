//! `reinfer_program` against the from-scratch oracle: after an edit,
//! re-inferring a random dirty set of bindings leaves a `TypeInfo` whose
//! live entries are those a fresh `infer_program` of the edited program
//! gives.
//!
//! Programs come from three places: seeded corpusgen programs edited by
//! `Corpus::mutate`, `programs/*.nml`, and polymorphic programs below
//! whose edits change schemes, so pinned polymorphic schemes get
//! instantiated and changed schemes force the body to be re-inferred.

use nml_syntax::visit::{free_vars, offset_node_ids, walk_exprs};
use nml_syntax::{parse_expr_in_scope, parse_program, Expr, NodeId, Program, Symbol};
use nml_types::{infer_program, reinfer_program, SpineTable, Ty, TypeInfo};
use proptest::prelude::*;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// Cases per sweep: `NML_CORPUS_CASES` when set (CI runs a bigger
/// sweep), else `default`.
fn corpus_cases(default: u32) -> u32 {
    std::env::var("NML_CORPUS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Polymorphic programs, each with replacement right-hand sides for some
/// of its bindings. Several replacements change the binding's scheme.
const POLY: &[(&str, &[(&str, &str)])] = &[
    (
        "letrec id x = x;
           wrap x = [x];
           use n = (car (wrap n), id n)
         in (use 1, (wrap [true], id nil))",
        &[
            ("wrap", "lambda(x). [(x, x)]"),
            ("id", "lambda(x). if true then x else x"),
            ("use", "lambda(n). (car (wrap [n]), id true)"),
        ],
    ),
    (
        "letrec append x y = if (null x) then y else cons (car x) (append (cdr x) y);
           map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));
           k a b = a;
           swap p = (snd p, fst p);
           len l = if (null l) then 0 else 1 + len (cdr l);
           rev l a = if (null l) then a else rev (cdr l) (cons (car l) a);
           twice f x = f (f x);
           flat ls = if (null ls) then nil else append (car ls) (flat (cdr ls));
           pairs l = map (lambda(x). (x, [x])) l;
           g x = letrec f y = cons x y; h z = (f z, k z 1) in h [x];
           use n = len (append [[1]] [[2, 3]]) + len (map (lambda(x). [x, x]) [true])
                   + fst (swap ([n], n)) + car (flat [[1], [2]]) + k 1 true
                   + len (rev (map len [[1], [2]]) nil) + twice (lambda(x). x + 1) 0
                   + len (pairs [nil, [1]]) + len (fst (g [n]))
         in (use 4, (map (lambda(p). snd p) (pairs [[1]]), (rev nil nil, (k nil 1 : int list list))))",
        &[
            ("pairs", "lambda(l). map (lambda(x). ([x], x)) l"),
            ("len", "lambda(l). if (null l) then 0 else len (cdr l) + 1"),
            ("k", "lambda(a). lambda(b). if true then a else a"),
            ("g", "lambda(x). ([x], [[x]])"),
            ("twice", "lambda(f). lambda(x). f x"),
        ],
    ),
];

/// The programs of `programs/`, sorted by name.
fn example_programs() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../programs");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("programs directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nml"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("program text"))
        .collect()
}

/// A base program and the edits on offer: a binding index and the text
/// of its new right-hand side, or `None` to re-graft the same tree.
fn pick(seed: u64) -> (String, Vec<(usize, Option<String>)>) {
    let examples = example_programs();
    match seed % 3 {
        0 => {
            let shape = nml_corpusgen::parse_shape("mixed:12/4").expect("shape");
            let corpus = nml_corpusgen::generate(seed, &shape);
            let edits = (0..3)
                .map(|k| {
                    let m = corpus.mutate(seed.wrapping_add(k));
                    (m.index, Some(m.rhs))
                })
                .collect();
            (corpus.source(), edits)
        }
        1 => {
            let src = &examples[(seed / 3) as usize % examples.len()];
            let n = parse_program(src).expect("parse").bindings.len();
            (src.clone(), (0..n).map(|i| (i, None)).collect())
        }
        _ => {
            let (src, alts) = POLY[(seed / 3) as usize % POLY.len()];
            let p = parse_program(src).expect("parse");
            let index = |name: &str| {
                p.bindings
                    .iter()
                    .position(|b| b.name.as_str() == name)
                    .expect("edited binding exists")
            };
            let mut edits: Vec<_> = (0..p.bindings.len()).map(|i| (i, None)).collect();
            edits.extend(
                alts.iter()
                    .map(|(n, rhs)| (index(n), Some(rhs.to_string()))),
            );
            (src.to_string(), edits)
        }
    }
}

fn collect_ids(e: &Expr, out: &mut HashSet<NodeId>) {
    walk_exprs(e, &mut |x: &Expr| {
        out.insert(x.id);
    });
}

/// Grafts `rhs` (or a copy of the current tree) over binding `i` under
/// new node ids, as an editor session does, and returns the retired ids.
fn graft(program: &mut Program, i: usize, rhs: Option<&str>) -> HashSet<NodeId> {
    let names: Vec<Symbol> = program.bindings.iter().map(|b| b.name).collect();
    let mut expr = match rhs {
        Some(text) => parse_expr_in_scope(text, &names).expect("replacement parses"),
        None => program.bindings[i].expr.clone(),
    };
    // Every id in use is below `next_node_id`, so adding it gives each
    // node of the graft an id no node had before.
    program.next_node_id = offset_node_ids(&mut expr, program.next_node_id);
    let old = std::mem::replace(&mut program.bindings[i].expr, expr);
    let mut retired = HashSet::new();
    collect_ids(&old, &mut retired);
    retired
}

/// Every binding of `program` that calls one in `dirty`, transitively,
/// added to `dirty`.
fn close_over_callers(program: &Program, dirty: &mut BTreeSet<Symbol>) {
    loop {
        let callers: Vec<Symbol> = program
            .bindings
            .iter()
            .filter(|b| !dirty.contains(&b.name))
            .filter(|b| free_vars(&b.expr).iter().any(|v| dirty.contains(v)))
            .map(|b| b.name)
            .collect();
        if callers.is_empty() {
            return;
        }
        dirty.extend(callers);
    }
}

/// Instantiation arguments at the simplest instance: the variable ids
/// differ between runs, the defaulted types do not.
fn defaulted_args(info: &TypeInfo) -> Vec<(NodeId, Symbol, Vec<Ty>)> {
    let mut out: Vec<_> = info
        .instantiations
        .iter()
        .map(|(id, (name, args))| (*id, *name, args.iter().map(Ty::default_vars).collect()))
        .collect();
    out.sort_by_key(|(id, _, _)| *id);
    out
}

/// The first node whose type is equal to, but not the same allocation
/// as, the type of an earlier node.
fn unshared_node(info: &TypeInfo) -> Option<NodeId> {
    let mut nodes: Vec<(&NodeId, &Arc<Ty>)> = info.node_ty.iter().collect();
    nodes.sort_by_key(|(id, _)| **id);
    let mut first: HashMap<&Ty, &Arc<Ty>> = HashMap::new();
    nodes.into_iter().find_map(|(id, t)| {
        let seen = first.entry(&**t).or_insert(t);
        (!Arc::ptr_eq(seen, t)).then_some(*id)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(corpus_cases(96)))]

    /// Re-inferring an edit's dirty set equals inferring the edited
    /// program from scratch, on every live node, once the retired nodes
    /// are forgotten.
    #[test]
    fn reinfer_matches_a_fresh_inference(seed in 0u64..4096) {
        let (src, edits) = pick(seed);
        let base = parse_program(&src).expect("parse");
        let mut info = infer_program(&base).expect("infer");
        let mut spines = SpineTable::build(&info, &base);
        let mut rng = nml_corpusgen::Rng::new(seed);

        let mut program = base.clone();
        let mut retired = HashSet::new();
        let mut dirty = BTreeSet::new();
        for (i, rhs) in &edits {
            if rng.chance(40) {
                retired.extend(graft(&mut program, *i, rhs.as_deref()));
                dirty.insert(program.bindings[*i].name);
            }
        }
        close_over_callers(&program, &mut dirty);
        for b in &program.bindings {
            if rng.chance(20) {
                dirty.insert(b.name);
            }
        }
        let reinfer_body = rng.chance(50);
        let label = format!("seed {seed}, dirty {dirty:?}, body {reinfer_body}");

        reinfer_program(&program, &mut info, &dirty, reinfer_body, &mut spines)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        info.forget(&retired);
        let fresh = infer_program(&program).expect("the edited program is well-typed");

        prop_assert_eq!(&info.node_ty, &fresh.node_ty, "{}: node types", label);
        prop_assert_eq!(&info.car_spines, &fresh.car_spines, "{}: car^s", label);
        prop_assert_eq!(&info.defaulted_nodes, &fresh.defaulted_nodes, "{}: defaulted", label);
        prop_assert_eq!(defaulted_args(&info), defaulted_args(&fresh), "{}: instantiations", label);
        prop_assert_eq!(&info.top_schemes, &fresh.top_schemes, "{}: schemes", label);
        prop_assert_eq!(&info.top_sigs, &fresh.top_sigs, "{}: signatures", label);
        prop_assert_eq!(info.max_spines, fresh.max_spines, "{}: domain bound", label);
        // Nodes of one type share one allocation, and re-inferred nodes
        // share the ones the rest of the program already had.
        prop_assert_eq!(unshared_node(&fresh), None, "{}: fresh shared types", label);
        prop_assert_eq!(unshared_node(&info), None, "{}: shared node types", label);
        for (name, vars) in &fresh.top_scheme_orig_vars {
            prop_assert_eq!(info.top_scheme_orig_vars[name].len(), vars.len(), "{}: {}", label, name);
        }
    }
}
