//! Well-formedness of the arena IR after every step that builds or
//! rewrites it.
//!
//! Each top-level binding (and the program body) owns one arena of nodes
//! whose children are indices. The arena must stay a tree: from the root
//! every node is reached exactly once, so no node is an orphan and none
//! has two parents (or sits on a cycle). Site ids must be below
//! `next_site` and unique within an arena; across arenas only a function
//! and the variants generated from it (`f_r`, `g_blk`, which are copies
//! of its body) share sites.
//!
//! The check runs after lowering and after each pass, on
//! `programs/*.nml`, `mega` corpora, a corpusgen sweep (`NML_CORPUS_CASES`
//! cases) and a loop of incremental edits.

use nml_escape_analysis::escape::{analyze_source, Analysis, Incremental};
use nml_escape_analysis::opt::{
    annotate_pretenure, annotate_sroa, annotate_stack, apply_quarantine, auto_block, auto_reuse,
    body_cons_sites, compile, lower_program, optimize, sabotage_stack, CompileOptions, IrExpr,
    IrProgram, OptOptions, QuarantineSet, SabotagePlan, SiteId,
};
use nml_escape_analysis::runtime::compile as compile_bytecode;
use nml_escape_analysis::syntax::Symbol;
use std::collections::{HashMap, HashSet};
use std::path::Path;

/// Cases per corpusgen sweep: `NML_CORPUS_CASES` when set, else
/// `default`.
fn corpus_cases(default: u64) -> u64 {
    std::env::var("NML_CORPUS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn site_of(e: &IrExpr) -> Option<SiteId> {
    match e {
        IrExpr::Lambda { site, .. }
        | IrExpr::Cons { site, .. }
        | IrExpr::Dcons { site, .. }
        | IrExpr::Region { site, .. } => Some(*site),
        _ => None,
    }
}

/// Panics unless every arena of `ir` is a tree and its site ids are
/// well formed (see the module docs).
fn check(ir: &IrProgram, when: &str) {
    let original: HashMap<Symbol, Symbol> =
        ir.variants.iter().map(|((f, _), v)| (*v, *f)).collect();
    // Site → the function family (or the program body, `None`) using it.
    let mut families: HashMap<SiteId, Option<Symbol>> = HashMap::new();
    for i in 0..=ir.funcs.len() {
        let a = ir.arena(i);
        let name = ir.funcs.get(i).map(|f| f.name);
        let family = name.map(|n| original.get(&n).copied().unwrap_or(n));
        let label = name.map_or_else(|| "main".to_owned(), |n| n.to_string());
        let mut seen = vec![false; a.len()];
        let mut sites = HashSet::new();
        let mut stack = vec![a.root()];
        while let Some(id) = stack.pop() {
            let i = id.0 as usize;
            assert!(i < a.len(), "{when}: {label}: node {i} is out of range");
            assert!(
                !seen[i],
                "{when}: {label}: node {i} is reached twice (two parents or a cycle)"
            );
            seen[i] = true;
            if let Some(site) = site_of(&a[id]) {
                assert!(
                    site.0 < ir.next_site,
                    "{when}: {label}: site {} is not below next_site {}",
                    site.0,
                    ir.next_site
                );
                assert!(
                    sites.insert(site),
                    "{when}: {label}: site {} occurs twice",
                    site.0
                );
                let owner = *families.entry(site).or_insert(family);
                assert_eq!(
                    owner, family,
                    "{when}: {label}: site {} is shared with an unrelated binding",
                    site.0
                );
            }
            stack.extend(a.children(id));
        }
        if let Some(orphan) = seen.iter().position(|s| !s) {
            panic!("{when}: {label}: node {orphan} is not reachable from the root");
        }
    }
}

/// Lowers and runs the pass manager's passes one at a time, checking
/// after each, then checks that the result is what `optimize` builds.
fn optimize_checked(analysis: &Analysis, label: &str) -> IrProgram {
    let mut ir = lower_program(&analysis.program, &analysis.info);
    check(&ir, &format!("{label}: lower"));
    auto_reuse(&mut ir, analysis);
    check(&ir, &format!("{label}: reuse"));
    auto_block(&mut ir, analysis);
    check(&ir, &format!("{label}: block"));
    annotate_stack(&mut ir, analysis);
    check(&ir, &format!("{label}: stack"));
    annotate_pretenure(&mut ir, analysis);
    check(&ir, &format!("{label}: pretenure"));
    annotate_sroa(&mut ir, analysis);
    check(&ir, &format!("{label}: sroa"));
    ir
}

/// The full check for one source text: every pass, then a stack
/// sabotage of the body literals and a quarantine of every site (which
/// unwraps every region and so compacts arenas), each followed by
/// bytecode emission.
fn check_source(src: &str, label: &str) {
    let analysis = analyze_source(src).unwrap_or_else(|e| panic!("{label}: {e}"));
    let mut ir = optimize_checked(&analysis, label);
    let mut whole = lower_program(&analysis.program, &analysis.info);
    optimize(&mut whole, &analysis, &OptOptions::default());
    assert_eq!(
        ir.dump(),
        whole.dump(),
        "{label}: the passes one by one differ from optimize"
    );
    compile_bytecode(&ir);
    let literals = body_cons_sites(&ir);
    sabotage_stack(&mut ir, &SabotagePlan::stack(literals));
    check(&ir, &format!("{label}: sabotage"));
    let mut all = QuarantineSet::new();
    for s in 0..ir.next_site {
        all.insert(SiteId(s));
    }
    apply_quarantine(&mut ir, &all);
    check(&ir, &format!("{label}: quarantine"));
    compile_bytecode(&ir);
}

#[test]
fn programs_keep_tree_shaped_arenas() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut n = 0;
    for entry in std::fs::read_dir(&dir).expect("programs/ exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|x| x != "nml") {
            continue;
        }
        let src = std::fs::read_to_string(&path).expect("readable");
        let label = path.display().to_string();
        check_source(&src, &label);
        // The local-stack plan wraps calls in regions during lowering.
        let opts = CompileOptions {
            local_stack: true,
            ..CompileOptions::default()
        };
        let c = compile(&src, &opts, &QuarantineSet::new()).expect("compiles");
        check(&c.ir, &format!("{label}: local-stack lowering"));
        n += 1;
    }
    assert!(n > 0, "no programs under {}", dir.display());
}

#[test]
fn mega_corpora_keep_tree_shaped_arenas() {
    for seed in 1..=4 {
        let src = nml_corpusgen::generate(seed, &nml_corpusgen::Shape::mega()).source();
        check_source(&src, &format!("mega seed {seed}"));
    }
}

#[test]
fn corpusgen_sweep_keeps_tree_shaped_arenas() {
    let shapes = ["chain:10", "wide:10", "scc:8x4", "mixed:12/4"];
    for seed in 0..corpus_cases(64) {
        let spec = shapes[(seed % shapes.len() as u64) as usize];
        let shape = nml_corpusgen::parse_shape(spec).expect("shape spec");
        let src = nml_corpusgen::generate(seed, &shape).source();
        check_source(&src, &format!("corpusgen {spec} seed {seed}"));
    }
}

#[test]
fn incremental_edits_keep_tree_shaped_arenas() {
    let shape = nml_corpusgen::parse_shape("mixed:200/8").expect("shape");
    let mut corpus = nml_corpusgen::generate(11, &shape);
    let mut inc = Incremental::from_source(&corpus.source()).expect("cold analysis");
    let mut rng = nml_corpusgen::Rng::new(0x5eed);
    for k in 0..64 {
        let m = corpus.mutate(rng.next_u64());
        corpus.bindings[m.index].rhs = m.rhs;
        let analysis = inc
            .update_source(&corpus.source())
            .unwrap_or_else(|e| panic!("edit {k}: {e}"));
        let ir = optimize_checked(analysis, &format!("edit {k}"));
        compile_bytecode(&ir);
    }
}

/// The checker itself: an orphan, a node with two parents and a shared
/// site are each caught.
#[test]
fn checker_rejects_malformed_arenas() {
    use nml_escape_analysis::opt::{Arena, IrFunc};
    use nml_escape_analysis::syntax::Const;
    fn program(body: Arena) -> IrProgram {
        IrProgram {
            funcs: Vec::<IrFunc>::new(),
            body,
            next_site: 2,
            variants: Default::default(),
        }
    }
    let fails = |ir: IrProgram| std::panic::catch_unwind(|| check(&ir, "malformed")).is_err();

    let mut orphan = Arena::new();
    orphan.push(IrExpr::Const(Const::Nil));
    let root = orphan.push(IrExpr::Const(Const::Int(1)));
    orphan.set_root(root);
    assert!(fails(program(orphan)), "orphan");

    let mut shared = Arena::new();
    let one = shared.push(IrExpr::Const(Const::Int(1)));
    let root = shared.push(IrExpr::Cons {
        alloc: Default::default(),
        head: one,
        tail: one,
        site: SiteId(0),
    });
    shared.set_root(root);
    assert!(fails(program(shared)), "two parents");

    let mut twice = Arena::new();
    let one = twice.push(IrExpr::Const(Const::Int(1)));
    let nil = twice.push(IrExpr::Const(Const::Nil));
    let inner = twice.push(IrExpr::Cons {
        alloc: Default::default(),
        head: one,
        tail: nil,
        site: SiteId(1),
    });
    let two = twice.push(IrExpr::Const(Const::Int(2)));
    let root = twice.push(IrExpr::Cons {
        alloc: Default::default(),
        head: two,
        tail: inner,
        site: SiteId(1),
    });
    twice.set_root(root);
    assert!(fails(program(twice)), "duplicate site");
}
