//! End-to-end correctness and effectiveness of the three storage
//! optimizations, including GC-stress and region-validation runs.
//!
//! Every optimized program must (a) compute the same answer as the
//! baseline, (b) show the predicted shift in the allocation/reclamation
//! statistics, and (c) survive `validate_regions` — a full reachability
//! proof at every region exit that no freed cell was still live.

use nml_escape_analysis::escape::{analyze_source, Analysis, Budget};
use nml_escape_analysis::opt::{
    analyze, annotate_stack, block_call, lower_program, optimize, reuse_variant, CompileOptions,
    IrProgram, OptOptions, ReuseOptions,
};
use nml_escape_analysis::runtime::{HeapConfig, Interp, InterpConfig, RuntimeStats, Value};
use nml_escape_analysis::syntax::Symbol;

const REV_SRC: &str = "letrec
  append x y = if (null x) then y
               else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil
          else append (rev (cdr l)) (cons (car l) nil)
in rev [1, 2, 3]";

fn rev_ir_with_variants() -> (IrProgram, Symbol, Symbol) {
    let analysis = analyze_source(REV_SRC).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);
    let append_r = reuse_variant(
        &mut ir,
        &analysis,
        Symbol::intern("append"),
        &ReuseOptions::dcons(),
    )
    .expect("append_r");
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
    .expect("rev_r");
    (ir, Symbol::intern("rev"), rev_r)
}

fn stress_config() -> InterpConfig {
    InterpConfig {
        heap: HeapConfig {
            gc_threshold: 48,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    }
}

fn run_rev(ir: &IrProgram, func: Symbol, n: i64, config: InterpConfig) -> (Vec<i64>, RuntimeStats) {
    let mut interp = Interp::with_config(ir, config).expect("interp");
    let input: Vec<i64> = (0..n).collect();
    let l = interp.make_int_list(&input);
    let result = interp.call(func, vec![l]).expect("call");
    let out = interp.read_int_list(result).expect("int list");
    (out, interp.heap.stats)
}

#[test]
fn reuse_preserves_results_and_eliminates_spine_allocs() {
    let (ir, rev, rev_r) = rev_ir_with_variants();
    let n = 60;
    let (base_out, base_stats) = run_rev(&ir, rev, n, InterpConfig::default());
    let (opt_out, opt_stats) = run_rev(&ir, rev_r, n, InterpConfig::default());
    assert_eq!(base_out, opt_out);
    let expect: Vec<i64> = (0..n).rev().collect();
    assert_eq!(base_out, expect);
    // Baseline: the input (n cells) plus O(n²) append churn.
    assert!(base_stats.heap_allocs > (n as u64) * (n as u64) / 2);
    // Reuse: only the n input cells; every spine cons became a DCONS.
    assert_eq!(
        opt_stats.heap_allocs, n as u64,
        "only the input is allocated"
    );
    assert!(opt_stats.dcons_reuses >= (n as u64) * (n as u64) / 2);
}

#[test]
fn reuse_survives_gc_stress() {
    // Regression: a GC during DCONS argument evaluation must treat the
    // reused cell as live even though no variable references it anymore.
    let (ir, rev, rev_r) = rev_ir_with_variants();
    let (base_out, _) = run_rev(&ir, rev, 80, stress_config());
    let (opt_out, opt_stats) = run_rev(&ir, rev_r, 80, stress_config());
    assert_eq!(base_out, opt_out);
    assert!(opt_stats.gc_runs > 0 || opt_stats.heap_allocs < 100);
}

#[test]
fn stack_allocation_moves_spine_out_of_heap() {
    let src = "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
               in sum [1, 2, 3, 4, 5]";
    let analysis = analyze_source(src).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);

    let mut base = Interp::new(&ir).expect("interp");
    let base_v = base.run().expect("run");
    assert!(matches!(base_v, Value::Int(15)));
    assert_eq!(base.heap.stats.heap_allocs, 5);

    let annotated = annotate_stack(&mut ir, &analysis);
    assert_eq!(annotated, 1);
    let mut opt = Interp::with_config(&ir, stress_config()).expect("interp");
    let opt_v = opt.run().expect("run");
    assert!(matches!(opt_v, Value::Int(15)));
    assert_eq!(opt.heap.stats.heap_allocs, 0);
    assert_eq!(opt.heap.stats.stack_allocs, 5);
    assert_eq!(opt.heap.stats.stack_freed, 5);
    assert_eq!(opt.heap.stats.reclamation_work(), 0, "no GC, no splices");
}

#[test]
fn stack_allocation_validated_under_region_checking() {
    // validate_regions proves at pop time that nothing in the region is
    // reachable — i.e. the escape analysis was right.
    let src = "letrec len l = if (null l) then 0 else 1 + len (cdr l)
               in len [[1, 2], [3], []]";
    let analysis = analyze_source(src).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);
    annotate_stack(&mut ir, &analysis);
    let mut interp = Interp::with_config(&ir, stress_config()).expect("interp");
    let v = interp.run().expect("validated run");
    assert!(matches!(v, Value::Int(3)));
}

#[test]
fn block_reclamation_replaces_gc_sweeps_of_producer_spine() {
    let src = "letrec
  sum l = if (null l) then 0 else car l + sum (cdr l);
  create_list n = if n = 0 then nil else cons n (create_list (n - 1))
in sum (create_list 100)";
    let analysis = analyze_source(src).expect("analysis");
    let base_ir = lower_program(&analysis.program, &analysis.info);

    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 32,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };

    let mut base = Interp::with_config(&base_ir, config.clone()).expect("interp");
    let base_v = base.run().expect("run");
    assert!(matches!(base_v, Value::Int(5050)));
    assert!(
        base.heap.stats.gc_runs > 0,
        "baseline must GC at this threshold"
    );

    let mut blk_ir = base_ir.clone();
    block_call(
        &mut blk_ir,
        &analysis,
        Symbol::intern("sum"),
        Symbol::intern("create_list"),
    )
    .expect("block transform");
    let mut blk = Interp::with_config(&blk_ir, config).expect("interp");
    let blk_v = blk.run().expect("run");
    assert!(matches!(blk_v, Value::Int(5050)));
    assert_eq!(blk.heap.stats.block_allocs, 100, "spine went to the block");
    assert_eq!(blk.heap.stats.block_freed, 100);
    assert_eq!(blk.heap.stats.block_frees, 1, "one splice frees everything");
    assert_eq!(
        blk.heap.stats.gc_swept, 0,
        "the GC never reclaims a single cell in block mode"
    );
}

#[test]
fn unsound_annotation_is_caught_by_validation() {
    // Hand-build an IR that stack-allocates a cell that escapes:
    // idl l = l, called on a stack-allocated literal. The validator must
    // reject the region pop.
    use nml_escape_analysis::opt::{AllocMode, Arena, IrExpr, RegionKind, SiteId};
    use nml_escape_analysis::syntax::Const;

    let src = "letrec idl l = l in idl [1]";
    let analysis = analyze_source(src).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);
    // Forcibly (and wrongly) wrap the body call in a stack region with a
    // stack-allocated argument.
    let mut body = Arena::new();
    let head = body.push(IrExpr::Const(Const::Int(1)));
    let tail = body.push(IrExpr::Const(Const::Nil));
    let bad_arg = body.push(IrExpr::Cons {
        alloc: AllocMode::Stack,
        head,
        tail,
        site: SiteId(9_000),
    });
    let idl = body.push(IrExpr::Var(Symbol::intern("idl")));
    let call = body.push(IrExpr::App(idl, bad_arg));
    let region = body.push(IrExpr::Region {
        kind: RegionKind::Stack,
        inner: call,
        site: SiteId(9_001),
    });
    body.set_root(region);
    ir.body = body;
    let mut interp = Interp::with_config(&ir, stress_config()).expect("interp");
    let err = interp
        .run()
        .expect_err("escaping region cell must be caught");
    assert!(matches!(
        err,
        nml_escape_analysis::runtime::RuntimeError::EscapedRegionCell { .. }
    ));
}

#[test]
fn auto_reuse_rewrites_and_preserves_results() {
    // The §6 driver end to end: variants generated, the unshared
    // producer chain rewritten, results identical, allocations reduced.
    let src = "letrec take n l = if n = 0 then nil
                                 else if (null l) then nil
                                 else cons (car l) (take (n - 1) (cdr l));
                      rev l a = if (null l) then a
                                else rev (cdr l) (cons (car l) a)
               in rev (take 3 [1, 2, 3, 4, 5]) nil";
    let analysis = analyze_source(src).expect("analysis");
    let ir0 = lower_program(&analysis.program, &analysis.info);
    let mut base = Interp::new(&ir0).expect("interp");
    let base_v = base.run().expect("run");
    let base_out = base.read_int_list(base_v).expect("ints");
    assert_eq!(base_out, vec![3, 2, 1]);

    let mut ir = ir0.clone();
    let auto = nml_escape_analysis::opt::auto_reuse(&mut ir, &analysis);
    assert!(auto.rewritten_calls >= 1, "{}", ir.body);
    assert!(auto.variants.len() >= 2, "take and rev both get variants");
    let mut opt = Interp::with_config(&ir, stress_config()).expect("interp");
    let opt_v = opt.run().expect("run");
    let opt_out = opt.read_int_list(opt_v).expect("ints");
    assert_eq!(base_out, opt_out);
    assert!(opt.heap.stats.dcons_reuses > 0);
    assert!(opt.heap.stats.heap_allocs < base.heap.stats.heap_allocs);
}

#[test]
fn auto_reuse_is_sound_on_shared_arguments() {
    // `second (cons 0 l) l` style sharing: the body uses l again after
    // passing it — the driver must not reuse a shared argument. Here the
    // *same list* feeds two calls; only fresh constructions or unshared
    // producer results are rewritten, so `use_twice` keeps both answers
    // correct.
    let src = "letrec rev l a = if (null l) then a
                                else rev (cdr l) (cons (car l) a);
                      sum l = if (null l) then 0 else car l + sum (cdr l);
                      use_twice l = sum (rev l nil) + sum l
               in use_twice [1, 2, 3]";
    let analysis = analyze_source(src).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);
    let base_out = {
        let mut i = Interp::new(&ir).expect("interp");
        let v = i.run().expect("run");
        matches!(v, Value::Int(12)).then_some(12).expect("6 + 6")
    };
    let auto = nml_escape_analysis::opt::auto_reuse(&mut ir, &analysis);
    // The call inside use_twice is in a function body (caller-dependent
    // sharing) — never rewritten; the literal at the main call is the
    // only candidate, and use_twice has no eligible variant param
    // licensed for reuse of a *shared-later* list... run and compare.
    let mut i = Interp::with_config(&ir, stress_config()).expect("interp");
    let v = i.run().expect("run");
    assert!(
        matches!(v, Value::Int(n) if n == base_out),
        "auto_reuse changed the result ({auto:?})"
    );
}

#[test]
fn full_pass_manager_is_sound_and_effective() {
    let src = "letrec
      sum l = if (null l) then 0 else car l + sum (cdr l);
      create_list n = if n = 0 then nil else cons n (create_list (n - 1));
      rev l a = if (null l) then a
                else rev (cdr l) (cons (car l) a)
    in sum (rev (create_list 40) nil) + sum [1, 2, 3]";
    let analysis = analyze_source(src).expect("analysis");
    let base_ir = lower_program(&analysis.program, &analysis.info);
    let mut base = Interp::new(&base_ir).expect("interp");
    let base_v = base.run().expect("run");

    let mut ir = base_ir.clone();
    let summary = nml_escape_analysis::opt::optimize(
        &mut ir,
        &analysis,
        &nml_escape_analysis::opt::OptOptions::default(),
    );
    assert!(summary.reuse.as_ref().unwrap().rewritten_calls >= 1);
    assert!(summary.stack_calls >= 1);
    let mut opt = Interp::with_config(&ir, stress_config()).expect("interp");
    let opt_v = opt.run().expect("validated optimized run");
    match (base_v, opt_v) {
        (Value::Int(a), Value::Int(b)) => assert_eq!(a, b),
        other => panic!("expected ints, got {other:?}"),
    }
    assert!(opt.heap.stats.dcons_reuses > 0);
    assert!(opt.heap.stats.stack_allocs > 0);
    assert!(
        opt.heap.stats.heap_allocs < base.heap.stats.heap_allocs,
        "optimizations reduce heap allocation"
    );
}

#[test]
fn reuse_after_stack_annotation_is_the_documented_hazard() {
    // The pass manager runs reuse BEFORE stack allocation. This test
    // demonstrates why: applying them in the reverse order rewrites a
    // call whose (stack-allocated) argument becomes the result — and the
    // region validator catches the escaping cells at pop time.
    let src = "letrec
      rev l a = if (null l) then a
                else rev (cdr l) (cons (car l) a);
      keepsum p = car p
    in keepsum (rev [1, 2, 3] nil)";
    let analysis = analyze_source(src).expect("analysis");
    let mut ir = lower_program(&analysis.program, &analysis.info);
    // WRONG ORDER on purpose: stack first, then reuse.
    let stacked = annotate_stack(&mut ir, &analysis);
    assert!(stacked >= 1, "the literal argument gets a region");
    let auto = nml_escape_analysis::opt::auto_reuse(&mut ir, &analysis);
    assert!(
        auto.rewritten_calls >= 1,
        "reuse (unsoundly) rewrites inside the region: {}",
        ir.body
    );
    let mut interp = Interp::with_config(&ir, stress_config()).expect("interp");
    let err = interp.run().expect_err("validator must catch the aliasing");
    assert!(
        matches!(
            err,
            nml_escape_analysis::runtime::RuntimeError::EscapedRegionCell { .. }
                | nml_escape_analysis::runtime::RuntimeError::UseAfterFree { .. }
        ),
        "got {err:?}"
    );
}

#[test]
fn optimized_variants_compose() {
    // Reuse + stack allocation on the same program: rev_r of a
    // stack-allocated literal is INVALID (rev_r destructively returns the
    // input cells — they escape). The analysis knows: rev's parameter has
    // retained top spine, but the *result of rev_r aliases the argument*,
    // so stack-allocating an argument to rev_r would be wrong. Our
    // annotate_stack never sees rev_r (it has no summary), so the
    // combination is safe by construction; this test pins that.
    let (mut ir, _rev, rev_r) = rev_ir_with_variants();
    let analysis = analyze_source(REV_SRC).expect("analysis");
    let annotated = annotate_stack(&mut ir, &analysis);
    // The literal [1,2,3] feeds `rev` in the body; rev does not let the
    // spine escape, so 1 call site annotates...
    assert_eq!(annotated, 1);
    // ...but rev_r call sites are never annotated (no summary for it).
    let mut interp = Interp::with_config(&ir, stress_config()).expect("interp");
    let input = interp.make_int_list(&[1, 2, 3]);
    let out = interp.call(rev_r, vec![input]).expect("rev_r runs");
    assert_eq!(interp.read_int_list(out).unwrap(), vec![3, 2, 1]);
}

/// A degraded summary licenses nothing: on a fully degraded generated
/// corpus, every pass does exactly what it does with no summaries at all,
/// so no reuse variant, region or summary-licensed mark comes from a
/// degraded function.
#[test]
fn degraded_summaries_license_nothing() {
    let src = nml_corpusgen::generate(3, &nml_corpusgen::Shape::mega()).source();
    let opts = CompileOptions {
        budget: Budget::tight(1, 1, None),
        ..CompileOptions::default()
    };
    let degraded = analyze(&src, &opts).expect("analysis");
    assert!(degraded.summaries.len() > 1000);
    assert_eq!(
        degraded.degradations.len(),
        degraded.summaries.len(),
        "every summary degrades"
    );
    let mut bare = analyze(&src, &opts).expect("analysis");
    bare.summaries.clear();
    bare.degradations.clear();
    let optimized = |a: &Analysis| {
        let mut ir = lower_program(&a.program, &a.info);
        let summary = optimize(&mut ir, a, &OptOptions::default());
        (ir.to_string(), summary)
    };
    let (with_degraded, summary) = optimized(&degraded);
    let (without, _) = optimized(&bare);
    assert!(summary.reuse.expect("reuse ran").variants.is_empty());
    assert_eq!((summary.block_calls, summary.stack_calls), (0, 0));
    assert!(
        with_degraded == without,
        "a degraded summary licensed a rewrite"
    );
}
