//! The differential soundness harness for checked-optimization mode and
//! for the bytecode VM against its tree-walking oracle.
//!
//! Two claims for checked mode, each checked on generated programs:
//!
//! 1. **Transparency.** Without injected faults, a fully optimized
//!    program executed under `--checked` (tombstoning heap, claim
//!    stamps, copy-then-retire `DCONS`) is observationally identical to
//!    the unoptimized interpreter, with zero violations, zero retries,
//!    and an empty quarantine — the sentinel never cries wolf on claims
//!    the analysis actually proved.
//!
//! 2. **Recovery.** With deliberately injected *wrong* claims (body cons
//!    sites forced onto the stack), the checked run detects each
//!    violation, quarantines exactly the offending site, re-executes,
//!    and still converges to the unoptimized interpreter's value —
//!    without ever degrading to the fully unoptimized fallback when
//!    retries suffice.
//!
//! Scheduling mode follows `NML_TEST_JOBS` like the equivalence suite,
//! so CI exercises the harness serially and with 4 workers.

use nml_escape_analysis::escape::{AnalyzeError, ScheduleOptions};
use nml_escape_analysis::opt::{body_cons_sites, IrProgram, SabotagePlan, VariantKind};
use nml_escape_analysis::pipeline::{
    compile, run, run_checked, CheckedOptions, CompileOptions, Compiled, OptOptions, PipelineError,
    QuarantineSet,
};
use nml_escape_analysis::runtime::{Engine, InterpConfig, RuntimeError};
use nml_escape_analysis::syntax::Symbol;
use proptest::prelude::*;

const PRELUDE: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  revon l a = if (null l) then a else revon (cdr l) (cons (car l) a);
  take n l = if n = 0 then nil
             else if (null l) then nil
             else cons (car l) (take (n - 1) (cdr l));
  copy l = if (null l) then nil else cons (car l) (copy (cdr l));
  incall l = if (null l) then nil else cons ((car l) + 1) (incall (cdr l));
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l)
in ";

fn leaf() -> BoxedStrategy<String> {
    prop_oneof![
        proptest::collection::vec(0i64..9, 0..5).prop_map(|xs| {
            let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(", "))
        }),
        (0u32..6).prop_map(|k| format!("(mklist {k})")),
    ]
    .boxed()
}

fn list_expr() -> BoxedStrategy<String> {
    leaf().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("(copy {e})")),
            inner.clone().prop_map(|e| format!("(incall {e})")),
            inner.clone().prop_map(|e| format!("(revon {e} nil)")),
            (0u32..4, inner.clone()).prop_map(|(k, e)| format!("(take {k} {e})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("(append {a} {b})")),
        ]
    })
}

fn program() -> BoxedStrategy<String> {
    prop_oneof![
        list_expr().prop_map(|e| format!("{PRELUDE}{e}")),
        list_expr().prop_map(|e| format!("{PRELUDE}(sum {e})")),
    ]
    .boxed()
}

/// Scheduling mode under test: serial unless `NML_TEST_JOBS` says
/// otherwise (CI runs the suite once per mode).
fn sched() -> ScheduleOptions {
    let jobs = std::env::var("NML_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ScheduleOptions {
        jobs,
        ..ScheduleOptions::default()
    }
}

/// Compile options under the scheduling mode, with the given pass set.
fn options(opt: OptOptions) -> CompileOptions {
    CompileOptions {
        schedule: sched(),
        opt,
        ..CompileOptions::default()
    }
}

/// The full pass manager with `sabotage` injected on top.
fn with_sabotage(sabotage: SabotagePlan) -> CompileOptions {
    CompileOptions {
        sabotage,
        ..options(OptOptions::default())
    }
}

/// Compiles with no passes.
fn compile_plain(src: &str) -> Result<Compiled, AnalyzeError> {
    compile(src, &options(OptOptions::none()), &QuarantineSet::new())
}

/// Compiles with the full pass manager.
fn compile_optimized(src: &str) -> Result<Compiled, AnalyzeError> {
    compile(src, &options(OptOptions::default()), &QuarantineSet::new())
}

/// The unoptimized, unchecked oracle.
fn oracle(src: &str) -> String {
    let c = compile_plain(src).expect("front end");
    run(&c.ir, InterpConfig::default(), Engine::Tree)
        .expect("oracle run")
        .result
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Transparency: checked execution of the fully optimized program is
    /// invisible — same value, no violations, no retries.
    #[test]
    fn checked_optimized_matches_unoptimized_cleanly(src in program()) {
        let want = oracle(&src);
        let (out, _) = run_checked(
            &src,
            &options(OptOptions::default()),
            &CheckedOptions::default(),
            &InterpConfig::default(),
        )
        .expect("checked run");
        prop_assert_eq!(&out.result, &want, "{}", src);
        prop_assert_eq!(out.stats.violations, 0, "{}", src);
        prop_assert_eq!(out.attempts, 1, "{}", src);
        prop_assert!(out.quarantined.is_empty(), "{}", src);
        prop_assert!(!out.degraded_unoptimized, "{}", src);
    }

    /// Recovery: force wrong stack claims onto a random subset of the
    /// body's cons sites; the checked run must converge to the oracle's
    /// value, quarantining exactly the sites whose claims actually broke.
    #[test]
    fn injected_wrong_claims_recover_to_oracle(src in program(), mask in any::<u64>()) {
        let want = oracle(&src);
        let compiled = compile_plain(&src)
        .expect("front end");
        let all_sites = body_cons_sites(&compiled.ir);
        let sabotaged: Vec<_> = all_sites
            .iter()
            .enumerate()
            .filter(|(i, _)| mask >> (i % 64) & 1 == 1)
            .map(|(_, s)| *s)
            .collect();
        let opts = CheckedOptions {
            max_retries: sabotaged.len() as u32 + 2,
            ..CheckedOptions::default()
        };
        let compile_opts = with_sabotage(SabotagePlan::stack(sabotaged.clone()));
        let (out, _) = run_checked(
            &src,
            &compile_opts,
            &opts,
            &InterpConfig::default(),
        )
        .expect("checked run recovers");
        prop_assert_eq!(&out.result, &want, "{}", src);
        prop_assert!(!out.degraded_unoptimized, "{}: retries were sufficient", src);
        // Every quarantined site is one we sabotaged (the analysis's own
        // claims must never be condemned), and each contributed exactly
        // one violation.
        for rec in &out.quarantined {
            prop_assert!(sabotaged.contains(&rec.site), "{}: site {:?}", src, rec.site);
        }
        prop_assert_eq!(out.stats.violations, out.quarantined.len() as u64, "{}", src);
        prop_assert_eq!(u64::from(out.attempts), out.stats.retries + 1, "{}", src);
    }
}

/// The acceptance scenario, pinned deterministically: all three cells of
/// a literal result are claimed stack-dead; the checked run catches one
/// violation per attempt (the renderer touches the outermost cell
/// first), quarantines all three, and converges on the oracle's value
/// without degrading.
#[test]
fn violation_quarantine_retry_converges() {
    let src = "[1, 2, 3]";
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    assert_eq!(sites.len(), 3);
    let opts = CheckedOptions {
        max_retries: 8,
        ..CheckedOptions::default()
    };
    let compile_opts = with_sabotage(SabotagePlan::stack(sites.clone()));
    let (out, _) =
        run_checked(src, &compile_opts, &opts, &InterpConfig::default()).expect("checked run");
    assert_eq!(out.result, "[1, 2, 3]");
    assert!(!out.degraded_unoptimized);
    assert_eq!(out.attempts, 4, "one retry per condemned site");
    assert_eq!(out.stats.violations, 3);
    assert_eq!(out.stats.quarantined_sites, 3);
    assert_eq!(out.stats.retries, 3);
    let mut condemned: Vec<_> = out.quarantined.iter().map(|r| r.site).collect();
    condemned.sort_unstable();
    assert_eq!(condemned, sites, "exactly the sabotaged sites");
    for (i, rec) in out.quarantined.iter().enumerate() {
        assert_eq!(rec.attempt, i as u32, "one detection per attempt");
    }
}

/// A source binding named like a generated variant (`rev_r`, `mk_blk`)
/// stays the program's own function: the optimizer gives its variant a
/// fresh name instead of taking the binding for the variant, and the
/// optimized program computes what the tree-walker computes on the plain
/// one, under both engines.
#[test]
fn bindings_named_like_variants_keep_their_meaning() {
    let cases = [
        (
            "letrec rev l a = if (null l) then a else rev (cdr l) (cons (car l) a); \
             rev_r l a = a in rev [1, 2, 3] nil",
            "[3, 2, 1]",
            "rev",
            VariantKind::Reuse,
        ),
        (
            "letrec mk n = if n = 0 then nil else cons n (mk (n - 1)); \
             len l = if (null l) then 0 else 1 + len (cdr l); \
             mk_blk n = nil in len (mk 3)",
            "3",
            "mk",
            VariantKind::Block,
        ),
    ];
    for (src, want, original, kind) in cases {
        assert_eq!(oracle(src), want, "{src}");
        let optimized = compile_optimized(src).expect("front end");
        let variant = optimized
            .ir
            .variants
            .get(&(Symbol::intern(original), kind))
            .copied()
            .unwrap_or_else(|| panic!("{src}: no {kind:?} variant of {original}"));
        let taken = format!(
            "{original}{}",
            if kind == VariantKind::Reuse {
                "_r"
            } else {
                "_blk"
            }
        );
        assert_ne!(
            variant.as_str(),
            taken,
            "{src}: the source binding was taken"
        );
        for engine in [Engine::Tree, Engine::Vm] {
            let got = run(&optimized.ir, InterpConfig::default(), engine)
                .expect("optimized run")
                .result;
            assert_eq!(got, want, "{src} under {engine:?}");
        }
    }
}

/// Corpusgen differential smoke: on seeded generated programs (deep
/// synthetic call graphs, dead allocation sites, higher-order plumbing),
/// the bytecode VM and the tree-walking oracle must agree — on the
/// rendered value, or on the exact resource error — under a bounded fuel
/// budget, both unoptimized and fully optimized.
#[test]
fn corpusgen_vm_matches_tree_walker() {
    let cases: u64 = std::env::var("NML_CORPUS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(48);
    let shape = nml_corpusgen::parse_shape("mixed:16/4").expect("shape");
    let fueled = InterpConfig {
        fuel: Some(500_000),
        ..InterpConfig::default()
    };
    for seed in 0..cases {
        let src = nml_corpusgen::generate(seed, &shape).source();
        for (label, compiled) in [
            ("plain", compile_plain(&src)),
            ("optimized", compile_optimized(&src)),
        ] {
            let compiled = compiled.unwrap_or_else(|e| panic!("seed {seed} {label}: {e}"));
            let tree = run(&compiled.ir, fueled.clone(), Engine::Tree);
            let vm = run(&compiled.ir, fueled.clone(), Engine::Vm);
            match (tree, vm) {
                (Ok(t), Ok(v)) => {
                    assert_eq!(t.result, v.result, "seed {seed} {label}: values differ")
                }
                (Err(t), Err(v)) => assert_eq!(
                    t.to_string(),
                    v.to_string(),
                    "seed {seed} {label}: errors differ"
                ),
                (t, v) => panic!(
                    "seed {seed} {label}: engines disagree on success: tree={:?} vm={:?}",
                    t.map(|o| o.result),
                    v.map(|o| o.result)
                ),
            }
        }
    }
}

/// Retry exhaustion: with `max_retries: 0` the first violation degrades
/// straight to the unoptimized interpreter — still the right value,
/// reported as a degradation.
#[test]
fn exhausted_retries_degrade_to_unoptimized() {
    let src = "[4, 5]";
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    let opts = CheckedOptions {
        max_retries: 0,
        ..CheckedOptions::default()
    };
    let compile_opts = with_sabotage(SabotagePlan::stack(sites));
    let (out, _) = run_checked(src, &compile_opts, &opts, &InterpConfig::default())
        .expect("degraded run still succeeds");
    assert_eq!(out.result, "[4, 5]");
    assert!(out.degraded_unoptimized);
    assert_eq!(out.stats.violations, 1);
}

/// The quarantine set persists: a second run against the same file
/// starts with every condemned site disabled and needs no retries.
#[test]
fn quarantine_file_warm_start_needs_no_retries() {
    let dir = std::env::temp_dir().join(format!("nml-diff-quar-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("quarantine.txt");
    let src = "[7, 8, 9]";
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    let opts = CheckedOptions {
        max_retries: 8,
        quarantine_path: Some(path.clone()),
        ..CheckedOptions::default()
    };
    let compile_opts = with_sabotage(SabotagePlan::stack(sites.clone()));
    let (cold, _) =
        run_checked(src, &compile_opts, &opts, &InterpConfig::default()).expect("cold run");
    assert_eq!(cold.result, "[7, 8, 9]");
    assert_eq!(cold.stats.retries, 3);
    let (warm, _) =
        run_checked(src, &compile_opts, &opts, &InterpConfig::default()).expect("warm run");
    assert_eq!(warm.result, "[7, 8, 9]");
    assert_eq!(warm.stats.retries, 0, "persisted quarantine pre-empts all");
    assert_eq!(warm.stats.violations, 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A wrong *reuse* claim (aliased `DCONS` target) is caught as a
/// structured reuse violation by the copy-then-retire discipline.
#[test]
fn aliased_dcons_reuse_claim_is_caught() {
    use nml_escape_analysis::opt::{Arena, IrExpr, IrProgram, SiteId};
    use nml_escape_analysis::runtime::{AccessKind, ClaimKind, HeapConfig, Interp, InterpConfig};
    use nml_escape_analysis::syntax::{Const, Prim, Symbol};

    let x = Symbol::intern("x");
    // letrec x = cons 1 nil in (car (DCONS x 2 nil)) + (car x)
    // The DCONS claims x's cell is dead; the trailing `car x` disproves it.
    let mut body = Arena::new();
    let one = body.push(IrExpr::Const(Const::Int(1)));
    let nil = body.push(IrExpr::Const(Const::Nil));
    let cell = body.push(IrExpr::Cons {
        alloc: nml_escape_analysis::opt::AllocMode::Heap,
        head: one,
        tail: nil,
        site: SiteId(0),
    });
    let two = body.push(IrExpr::Const(Const::Int(2)));
    let nil2 = body.push(IrExpr::Const(Const::Nil));
    let dcons = body.push(IrExpr::Dcons {
        reused: x,
        head: two,
        tail: nil2,
        site: SiteId(1),
    });
    let car_dcons = body.push(IrExpr::Prim1(Prim::Car, dcons));
    let var_x = body.push(IrExpr::Var(x));
    let car_x = body.push(IrExpr::Prim1(Prim::Car, var_x));
    let sum = body.push(IrExpr::Prim2(Prim::Add, car_dcons, car_x));
    let letrec = body.push_letrec([(x, cell)], sum);
    body.set_root(letrec);
    let ir = IrProgram {
        funcs: vec![],
        body,
        next_site: 2,
        variants: Default::default(),
    };

    // Unchecked: the aliased read silently sees the overwritten head.
    let mut plain = Interp::new(&ir).expect("init");
    let v = plain.run().expect("unchecked run completes");
    assert!(matches!(v, nml_escape_analysis::runtime::Value::Int(4)));

    // Checked: the same read is a reuse violation at the DCONS site.
    let config = InterpConfig {
        heap: HeapConfig {
            checked: true,
            ..HeapConfig::default()
        },
        ..InterpConfig::default()
    };
    let mut checked = Interp::with_config(&ir, config).expect("init");
    let err = checked.run().expect_err("aliased reuse must be caught");
    let RuntimeError::Soundness(v) = err else {
        panic!("expected soundness violation, got {err}");
    };
    assert_eq!(v.claim, ClaimKind::Reuse);
    assert_eq!(v.access, AccessKind::Car);
    assert_eq!(v.site, Some(SiteId(1)));
}

/// Checked mode composes with the PR 1 fault plans: injected retreats,
/// denials, and forced GCs are all claim-*preserving*, so a checked run
/// under active faults still reports zero violations and matches the
/// oracle.
#[test]
fn checked_mode_is_transparent_under_injected_faults() {
    use nml_escape_analysis::runtime::{FaultPlan, FaultRate, HeapConfig};
    let src = "letrec copy l = if (null l) then nil else cons (car l) (copy (cdr l));
               mklist n = if n = 0 then nil else cons n (mklist (n - 1))
               in copy (copy (mklist 12))";
    let want = oracle(src);
    for seed in 0..8u64 {
        let plan = FaultPlan::new(seed)
            .with_alloc_retreats(FaultRate::new(1, 3))
            .with_region_denials(FaultRate::new(1, 3))
            .with_forced_gc(FaultRate::new(1, 5));
        let config = InterpConfig {
            heap: HeapConfig {
                gc_threshold: 16,
                gc_enabled: true,
                checked: false,
                ..HeapConfig::default()
            },
            validate_regions: false,
            fault: plan,
            ..InterpConfig::default()
        };
        let (out, _) = run_checked(
            src,
            &options(OptOptions::default()),
            &CheckedOptions::default(),
            &config,
        )
        .expect("checked+faulted run");
        assert_eq!(out.result, want, "seed {seed}");
        assert_eq!(out.stats.violations, 0, "seed {seed}");
        assert!(!out.degraded_unoptimized, "seed {seed}");
    }
}

// --- Tree vs VM: the execution-engine differential ---------------------
//
// A third claim: the bytecode VM is observationally identical to the
// tree-walking interpreter on every program the front end accepts —
// same rendered value or same rendered error — before optimization,
// after the full pass manager, and under the checked-mode sentinel with
// deliberately wrong claims injected. Statistics and step counts are
// engine-specific and deliberately *not* compared; the contract is the
// observable outcome.

/// Runs `ir` on `engine` and collapses the outcome to a comparable
/// string: the rendered value on success, the rendered error otherwise.
fn observe(ir: &IrProgram, engine: Engine) -> String {
    match run(ir, InterpConfig::default(), engine) {
        Ok(out) => out.result,
        Err(e) => format!("error: {e}"),
    }
}

/// Asserts the two engines agree on `src`, both on the plain lowering
/// and after the full optimization pipeline.
fn assert_engines_agree(name: &str, src: &str) {
    let plain = compile_plain(src).unwrap_or_else(|e| panic!("{name}: front end: {e}"));
    assert_eq!(
        observe(&plain.ir, Engine::Tree),
        observe(&plain.ir, Engine::Vm),
        "{name}: engines diverge unoptimized"
    );
    let opt = compile_optimized(src).unwrap_or_else(|e| panic!("{name}: optimizer: {e}"));
    assert_eq!(
        observe(&opt.ir, Engine::Tree),
        observe(&opt.ir, Engine::Vm),
        "{name}: engines diverge optimized"
    );
}

/// The whole workload corpus — including the paper's Appendix A
/// partition sort — runs identically on both engines, optimized and
/// unoptimized.
#[test]
fn corpus_agrees_across_engines() {
    for w in nml_escape_analysis::corpus::ALL {
        assert_engines_agree(w.name, w.source);
    }
}

/// The shipped example programs (`programs/*.nml`) agree across engines.
#[test]
fn program_files_agree_across_engines() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut ran = 0;
    for entry in std::fs::read_dir(&dir).expect("programs/ directory") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "nml") {
            let src = std::fs::read_to_string(&path).expect("read program");
            assert_engines_agree(&path.display().to_string(), &src);
            ran += 1;
        }
    }
    assert!(
        ran >= 5,
        "expected the shipped corpus, found {ran} programs"
    );
}

/// Checked mode on the VM: inject wrong stack claims at every body cons
/// site; the VM-executed sentinel must catch them, quarantine exactly
/// the sabotaged sites, and converge to the tree-walker oracle's value.
#[test]
fn vm_checked_with_injected_unsound_claims_recovers() {
    let src = "letrec rev l a = if (null l) then a
                                else rev (cdr l) (cons (car l) a)
               in rev [1, 2, 3, 4] nil";
    let want = oracle(src);
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    assert!(!sites.is_empty());
    for engine in [Engine::Vm, Engine::Tree] {
        let opts = CheckedOptions {
            max_retries: sites.len() as u32 + 2,
            engine,
            ..CheckedOptions::default()
        };
        let compile_opts = with_sabotage(SabotagePlan::stack(sites.clone()));
        let (out, _) = run_checked(src, &compile_opts, &opts, &InterpConfig::default())
            .expect("checked run recovers");
        assert_eq!(out.result, want, "{engine}");
        assert!(!out.degraded_unoptimized, "{engine}");
        for rec in &out.quarantined {
            assert!(sites.contains(&rec.site), "{engine}: site {:?}", rec.site);
        }
        assert_eq!(
            out.stats.violations,
            out.quarantined.len() as u64,
            "{engine}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The 128-case generated sweep: tree and VM agree on random list
    /// programs, unoptimized and under the full pass manager.
    #[test]
    fn generated_programs_agree_across_engines(src in program()) {
        let plain = compile_plain(&src)
        .expect("front end");
        prop_assert_eq!(
            observe(&plain.ir, Engine::Tree),
            observe(&plain.ir, Engine::Vm),
            "unoptimized: {}",
            src
        );
        let opt = compile_optimized(&src)
        .expect("optimizer");
        prop_assert_eq!(
            observe(&opt.ir, Engine::Tree),
            observe(&opt.ir, Engine::Vm),
            "optimized: {}",
            src
        );
    }
}

// --- SROA: the scalar-replacement differential -------------------------
//
// PR 10's scalar replacement is VM-only: `AllocMode::Elided` is a
// *license* the bytecode compiler may act on after its own slot-level
// re-verification, while the tree-walker treats the mark exactly like a
// heap allocation and serves as the oracle. Three claims:
//
// 1. With SROA marks applied, both engines still agree on every program
//    — the elision is observationally invisible — and stripping the
//    marks changes nothing but the allocation counters.
// 2. The license is narrow: the pass only marks sites the lattice
//    proved `NoEscape` *and* unaliased, never Unknown, escaping, or
//    aliased sites.
// 3. A deliberately wrong `Elided` mark is a dud: the bytecode verifier
//    refuses to scalarize it, checked mode stays silent, and the value
//    matches the oracle.
//
// Fault-plan and heap-capacity differentials elsewhere in this suite
// stay SROA-off (`compile_scheduled` lowers all-heap): elision removes
// allocations, so a deterministic fault plan would fire at different
// events on the two engines.

use nml_escape_analysis::escape::EscapeState;
use nml_escape_analysis::opt::{
    analyze_sites, annotate_sroa, strip_sroa, AllocMode, IrExpr, SiteId,
};

/// Collects every cons site the SROA pass marked `Elided`.
fn elided_sites(ir: &IrProgram) -> Vec<SiteId> {
    let mut out = Vec::new();
    for a in ir.funcs.iter().map(|f| &f.body).chain([&ir.body]) {
        a.walk(|_, e| {
            if let IrExpr::Cons {
                alloc: AllocMode::Elided,
                site,
                ..
            } = e
            {
                out.push(*site);
            }
        });
    }
    out
}

/// SROA on/off over the whole workload corpus, on both engines: the
/// fully optimized IR (pass manager runs SROA by default) and the same
/// IR with the marks stripped produce the same value everywhere.
#[test]
fn corpus_agrees_across_engines_with_and_without_sroa() {
    for w in nml_escape_analysis::corpus::ALL {
        let compiled =
            compile_optimized(w.source).unwrap_or_else(|e| panic!("{}: optimizer: {e}", w.name));
        let on_vm = observe(&compiled.ir, Engine::Vm);
        assert_eq!(
            observe(&compiled.ir, Engine::Tree),
            on_vm,
            "{}: engines diverge with SROA",
            w.name
        );
        let mut off = compiled.ir.clone();
        strip_sroa(&mut off);
        let off_vm = observe(&off, Engine::Vm);
        assert_eq!(
            observe(&off, Engine::Tree),
            off_vm,
            "{}: engines diverge without SROA",
            w.name
        );
        assert_eq!(on_vm, off_vm, "{}: SROA changes the VM's value", w.name);
    }
}

/// A pinned SROA-friendly workload: the pass fires, the VM actually
/// elides allocations (fewer heap cells, nonzero `allocs_elided`), and
/// the tree-walker oracle — which never elides — still agrees.
#[test]
fn sroa_elision_fires_and_engines_agree() {
    let src = "letrec
       step i acc = letrec t = cons i (cons acc nil)
                    in (car t) * 2 + car (cdr t);
       loop n acc = if n = 0 then acc else loop (n - 1) (step n acc)
     in loop 50 0";
    let mut compiled = compile_plain(src).expect("front end");
    let marked = annotate_sroa(&mut compiled.ir, &compiled.analysis);
    assert!(marked > 0, "the workload must have elidable sites");
    let tree = run(&compiled.ir, InterpConfig::default(), Engine::Tree).expect("tree");
    let vm = run(&compiled.ir, InterpConfig::default(), Engine::Vm).expect("vm");
    assert_eq!(tree.result, vm.result);
    assert_eq!(tree.stats.allocs_elided, 0, "the oracle never elides");
    assert!(vm.stats.allocs_elided > 0, "the VM must actually elide");
    assert!(
        vm.stats.heap_allocs < tree.stats.heap_allocs,
        "elision must remove heap allocations: vm={} tree={}",
        vm.stats.heap_allocs,
        tree.stats.heap_allocs
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The 128-case SROA sweep: random list programs agree across both
    /// engines with SROA marks applied and with them stripped, and the
    /// two configurations agree with each other.
    #[test]
    fn generated_programs_agree_under_sroa_on_and_off(src in program()) {
        let mut on = compile_plain(&src)
        .expect("front end");
        annotate_sroa(&mut on.ir, &on.analysis);
        let mut off = on.ir.clone();
        strip_sroa(&mut off);
        let on_vm = observe(&on.ir, Engine::Vm);
        prop_assert_eq!(
            observe(&on.ir, Engine::Tree),
            on_vm.clone(),
            "sroa on: {}",
            src
        );
        let off_vm = observe(&off, Engine::Vm);
        prop_assert_eq!(
            observe(&off, Engine::Tree),
            off_vm.clone(),
            "sroa off: {}",
            src
        );
        prop_assert_eq!(on_vm, off_vm, "sroa changes the value: {}", src);
    }

    /// The license is narrow: every site the pass marks `Elided` carries
    /// a lattice fact proving `NoEscape` *and* unaliased. Sites with no
    /// fact (Unknown), escaping states, or alias-class company are never
    /// marked.
    #[test]
    fn sroa_never_marks_unproven_sites(src in program()) {
        let mut c = compile_plain(&src)
        .expect("front end");
        let facts = analyze_sites(&c.ir, &c.analysis);
        annotate_sroa(&mut c.ir, &c.analysis);
        for site in elided_sites(&c.ir) {
            let fact = facts.get(&site);
            prop_assert!(
                fact.is_some(),
                "elided site {:?} has no lattice fact (Unknown): {}",
                site,
                src
            );
            let fact = fact.unwrap();
            prop_assert_eq!(
                fact.state,
                EscapeState::NoEscape,
                "elided site {:?} escapes: {}",
                site,
                src
            );
            prop_assert!(!fact.aliased, "elided site {:?} is aliased: {}", site, src);
        }
    }
}

/// A wrong `Elided` mark is a dud: force the mark onto every body cons
/// site of a program whose cells all flow into the result. The bytecode
/// verifier must refuse to scalarize them, so checked mode stays silent
/// on both engines — no violations, no retries, no quarantine — and the
/// value matches the oracle. (Contrast with the stack sabotage above,
/// where wrong claims *do* fire the sentinel.)
#[test]
fn sabotaged_elide_marks_are_inert_on_both_engines() {
    let src = "letrec rev l a = if (null l) then a
                                else rev (cdr l) (cons (car l) a)
               in rev [1, 2, 3, 4] nil";
    let want = oracle(src);
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    assert!(!sites.is_empty());
    for engine in [Engine::Vm, Engine::Tree] {
        let opts = CheckedOptions {
            engine,
            ..CheckedOptions::default()
        };
        let compile_opts = with_sabotage(SabotagePlan::elide(sites.clone()));
        let (out, _) =
            run_checked(src, &compile_opts, &opts, &InterpConfig::default()).expect("checked run");
        assert_eq!(out.result, want, "{engine}");
        assert_eq!(
            out.stats.violations, 0,
            "{engine}: elide sabotage must be silent"
        );
        assert_eq!(out.attempts, 1, "{engine}");
        assert!(out.quarantined.is_empty(), "{engine}");
        assert!(!out.degraded_unoptimized, "{engine}");
    }
}

/// Non-claim runtime errors pass through the retry loop untouched.
#[test]
fn unrelated_runtime_errors_propagate() {
    let outcome = run_checked(
        "1 / 0",
        &options(OptOptions::default()),
        &CheckedOptions::default(),
        &InterpConfig::default(),
    );
    let Err(err) = outcome else {
        panic!("division by zero must not be recoverable");
    };
    assert!(matches!(
        err,
        PipelineError::Runtime(RuntimeError::DivisionByZero)
    ));
}
