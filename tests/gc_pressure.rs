//! GC-under-pressure differential suite for the generational heap.
//!
//! Every test here runs with a deliberately tiny nursery (1–4 KiB, a
//! few dozen cells) so that ordinary list workloads overflow it dozens
//! of times per run — a promotion storm. The claims:
//!
//! 1. **Engine agreement.** Tree-walker and bytecode VM produce the
//!    same value under nursery pressure, for plain, fully optimized,
//!    and checked programs. Collection policy is a pure function of
//!    heap state, so a wrong write barrier or a missed remembered-set
//!    root shows up as a value divergence or a reclaimed-live-cell
//!    crash here.
//! 2. **Promotion actually happens.** Each pressured run reports
//!    `minor_gcs > 0` and `promoted > 0` — the tiny nursery really
//!    fills, so the suite exercises minor collections and promotion,
//!    not only full collections.
//! 3. **Checked mode survives promotion.** Tombstone claims ride
//!    through minor collections: a sabotaged stack claim is detected
//!    and attributed to the *correct* site even when the cell was
//!    promoted to the old space before its frame popped.
//! 4. **Pretenuring routes escaping sites to the old space.** With the
//!    full pass manager on, provably-escaping builder sites allocate
//!    old directly (`stats.pretenured > 0`) and therefore never pay a
//!    nursery visit.
//! 5. **Objects are traced through promotion storms.** Closures and
//!    partial applications live in the heap's object table, outside the
//!    generations; a young list reachable only through one of them must
//!    survive every minor collection, whether the object hangs off an
//!    old cell (the remembered set) or off the stack.
//!
//! Scheduling follows `NML_TEST_JOBS` like the equivalence suite.

use nml_escape_analysis::escape::{AnalyzeError, ScheduleOptions};
use nml_escape_analysis::opt::{body_cons_sites, SabotagePlan};
use nml_escape_analysis::pipeline::{
    compile, run, run_checked, CheckedOptions, CompileOptions, Compiled, OptOptions, QuarantineSet,
};
use nml_escape_analysis::runtime::{Engine, HeapConfig, InterpConfig};

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

/// Allocation-heavy bodies: each churns hundreds of cells through a
/// nursery that holds a few dozen, with live data threaded across the
/// churn so minor collections always have survivors to promote.
const WORKLOADS: &[&str] = &[
    "(sum (revon (mklist 300) nil))",
    "(sum (append (mklist 120) (incall (mklist 120))))",
    "(sum (take 60 (copy (mklist 200))))",
    "(sum (append (revon (mklist 90) nil) (take 45 (mklist 90))))",
];

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

/// A pressured generational config: `nursery_kb` KiB of nursery and a
/// small major threshold so both collection kinds fire.
fn pressured(nursery_kb: usize) -> InterpConfig {
    InterpConfig {
        heap: HeapConfig {
            gc_threshold: 256,
            nursery_kb,
            ..HeapConfig::default()
        },
        ..InterpConfig::default()
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

/// Compiles with no passes.
fn compile_plain(src: &str) -> Result<Compiled, AnalyzeError> {
    compile(src, &options(OptOptions::none()), &QuarantineSet::new())
}

/// Compiles with the full pass manager.
fn compile_optimized(src: &str) -> Result<Compiled, AnalyzeError> {
    compile(src, &options(OptOptions::default()), &QuarantineSet::new())
}

/// The unpressured, unoptimized tree-walking oracle.
fn oracle(src: &str) -> String {
    let c = compile_plain(src).expect("front end");
    run(&c.ir, InterpConfig::default(), Engine::Tree)
        .expect("oracle run")
        .result
}

/// Plain (unoptimized) programs: both engines agree with the
/// unpressured oracle under 1, 2, and 4 KiB nurseries, and every
/// pressured run actually collects and promotes.
#[test]
fn engines_agree_under_tiny_nursery_plain() {
    for body in WORKLOADS {
        let src = format!("{PRELUDE}{body}");
        let want = oracle(&src);
        let c = compile_plain(&src).expect("front end");
        for nursery_kb in [1, 2, 4] {
            for engine in [Engine::Tree, Engine::Vm] {
                let out = run(&c.ir, pressured(nursery_kb), engine)
                    .unwrap_or_else(|e| panic!("{body} @ {nursery_kb}KiB {engine:?}: {e}"));
                assert_eq!(out.result, want, "{body} @ {nursery_kb}KiB {engine:?}");
                assert!(
                    out.stats.minor_gcs > 0,
                    "{body} @ {nursery_kb}KiB {engine:?}: no minor GCs — nursery never filled"
                );
                assert!(
                    out.stats.promoted > 0,
                    "{body} @ {nursery_kb}KiB {engine:?}: nothing promoted — no survivors?"
                );
            }
        }
    }
}

/// Fully optimized programs (reuse → block → stack → pretenure) under
/// the same promotion storms: regions, reuse cells, and pretenured
/// cells all interleave with minor collections.
#[test]
fn engines_agree_under_tiny_nursery_optimized() {
    for body in WORKLOADS {
        let src = format!("{PRELUDE}{body}");
        let want = oracle(&src);
        let c = compile_optimized(&src).expect("front end");
        for nursery_kb in [1, 4] {
            for engine in [Engine::Tree, Engine::Vm] {
                let out = run(&c.ir, pressured(nursery_kb), engine)
                    .unwrap_or_else(|e| panic!("{body} @ {nursery_kb}KiB {engine:?}: {e}"));
                assert_eq!(out.result, want, "{body} @ {nursery_kb}KiB {engine:?}");
            }
        }
    }
}

/// Checked mode (tombstoning heap, claim stamps) under nursery
/// pressure: transparent — same value, zero violations — on both
/// engines, even though stack retreats, region frees, and promotions
/// interleave.
#[test]
fn checked_mode_is_transparent_under_tiny_nursery() {
    for body in WORKLOADS {
        let src = format!("{PRELUDE}{body}");
        let want = oracle(&src);
        for engine in [Engine::Tree, Engine::Vm] {
            let opts = CheckedOptions {
                engine,
                ..CheckedOptions::default()
            };
            let (out, _) = run_checked(&src, &options(OptOptions::default()), &opts, &pressured(1))
                .expect("checked run");
            assert_eq!(out.result, want, "{body} {engine:?}");
            assert_eq!(out.stats.violations, 0, "{body} {engine:?}");
            assert_eq!(out.attempts, 1, "{body} {engine:?}");
            assert!(!out.degraded_unoptimized, "{body} {engine:?}");
        }
    }
}

/// The tombstone-claim-survives-promotion scenario, pinned end to end.
///
/// The literal `[7, 8, 9]` is evaluated *first* (left-to-right argument
/// order) and stays live while `mklist 400` churns ~400 cells through a
/// ~21-cell nursery — so its cells are promoted to the old space by a
/// minor collection long before the body's frame pops. Sabotaged stack
/// claims then tombstone those *old* cells at frame exit; the renderer
/// trips the claims, and each violation must still be attributed to the
/// exact sabotaged site. Promotion is a flag flip, not a move — the
/// claim stamp rides along, and this test fails if it ever doesn't.
#[test]
fn tombstoned_claim_survives_promotion_and_attributes_correctly() {
    let src = "letrec
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  keepfirst l burn = l
in keepfirst [7, 8, 9] (sum (mklist 400))";
    let want = oracle(src);
    assert_eq!(want, "[7, 8, 9]");
    let compiled = compile_plain(src).expect("front end");
    let sites = body_cons_sites(&compiled.ir);
    assert_eq!(sites.len(), 3, "the literal's three cons cells");
    for engine in [Engine::Tree, Engine::Vm] {
        // Locality passes off: the optimizer would (correctly) prove the
        // churn list region-local, and region cells never enter the
        // nursery — the storm must flow through young space for this
        // test to promote the literal before its frame pops.
        let opts = CheckedOptions {
            max_retries: 8,
            engine,
            ..CheckedOptions::default()
        };
        let sabotaged = CompileOptions {
            sabotage: SabotagePlan::stack(sites.clone()),
            // SROA would *remove* the storm's allocations outright (and
            // desynchronize the engines' allocation sequences under
            // pressure); keep every cell real.
            ..options(OptOptions::none())
        };
        let (out, _) =
            run_checked(src, &sabotaged, &opts, &pressured(1)).expect("checked run recovers");
        assert_eq!(out.result, want, "{engine:?}");
        assert!(!out.degraded_unoptimized, "{engine:?}");
        assert_eq!(out.stats.violations, 3, "{engine:?}");
        assert!(
            out.stats.minor_gcs > 0 && out.stats.promoted > 0,
            "{engine:?}: the storm must actually promote (minor={} promoted={})",
            out.stats.minor_gcs,
            out.stats.promoted
        );
        let mut condemned: Vec<_> = out.quarantined.iter().map(|r| r.site).collect();
        condemned.sort_unstable();
        assert_eq!(
            condemned, sites,
            "{engine:?}: exactly the sabotaged sites, attributed across promotion"
        );
    }
}

/// Escape-informed pretenuring is visible in runtime stats: a builder
/// whose result provably escapes allocates its spine old-first, so the
/// pressured run reports pretenured cells and correspondingly fewer
/// promotions than the unhinted plain build of the same program.
#[test]
fn pretenuring_routes_escaping_sites_to_old_space() {
    let src = "letrec mklist n = if n = 0 then nil else cons n (mklist (n - 1))
               in mklist 200";
    let plain = compile_plain(src).expect("front end");
    let opt = compile_optimized(src).expect("front end");
    for engine in [Engine::Tree, Engine::Vm] {
        let base = run(&plain.ir, pressured(1), engine).expect("plain run");
        let tuned = run(&opt.ir, pressured(1), engine).expect("optimized run");
        assert_eq!(base.result, tuned.result, "{engine:?}");
        assert_eq!(
            base.stats.pretenured, 0,
            "{engine:?}: plain build has no hints"
        );
        assert!(
            tuned.stats.pretenured >= 200,
            "{engine:?}: every spine cell routed old ({} pretenured)",
            tuned.stats.pretenured
        );
        assert!(
            tuned.stats.promoted < base.stats.promoted,
            "{engine:?}: pretenuring must cut promotion work ({} -> {})",
            base.stats.promoted,
            tuned.stats.promoted
        );
    }
}

/// A young list reachable only through a closure that `DCONS` stored
/// into an old cell, across a storm of minor collections. `adders`
/// makes each closure's list right before its reused cell is
/// overwritten, so the late writes put young lists behind cells that
/// earlier minors promoted; the write barrier must remember those cells
/// and the minors must trace through the closures.
const DCONS_CLOSURE: &str = "letrec
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  adders l = if (null l) then nil
             else letrec rest = adders (cdr l)
                  in letrec ys = mklist (car l)
                     in cons (lambda(x). x + sum ys) rest;
  applyall fs x = if (null fs) then x else applyall (cdr fs) ((car fs) x);
  keepfirst a burn = a
in applyall (keepfirst (adders (mklist 12)) (sum (mklist 400))) 0";

/// A partial application holding the only reference to a young list
/// while a storm of minor collections runs.
const PARTIAL_HOLDS_LIST: &str = "letrec
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  sumwith l x = x + sum l;
  twice f x = f (f x);
  keepfirst a burn = a
in twice (keepfirst (sumwith (mklist 30)) (sum (mklist 400))) 1";

/// The reuse pass alone: `DCONS` without pretenuring, so the reused
/// cells and the closures' lists start young.
fn reuse_only() -> OptOptions {
    OptOptions {
        reuse: true,
        ..OptOptions::none()
    }
}

#[test]
fn objects_keep_young_lists_alive_under_tiny_nursery() {
    for (src, want) in [(DCONS_CLOSURE, "364"), (PARTIAL_HOLDS_LIST, "931")] {
        assert_eq!(oracle(src), want);
        for opt in [OptOptions::none(), reuse_only(), OptOptions::default()] {
            let c = compile(src, &options(opt), &QuarantineSet::new()).expect("front end");
            for nursery_kb in [1, 4] {
                for engine in [Engine::Tree, Engine::Vm] {
                    let what = format!("{opt:?} @ {nursery_kb}KiB {engine:?}");
                    let out = run(&c.ir, pressured(nursery_kb), engine)
                        .unwrap_or_else(|e| panic!("{what}: {e}\n{src}"));
                    assert_eq!(out.result, want, "{what}\n{src}");
                    // The full pass manager pretenures or region-allocates
                    // the churn; the other builds must storm.
                    if !opt.pretenure {
                        assert!(out.stats.minor_gcs > 1, "{what}: no storm");
                    }
                    if src == DCONS_CLOSURE && opt.reuse && !opt.pretenure {
                        assert!(
                            out.stats.dcons_reuses > 0 && out.stats.promoted > 0,
                            "{what}: the closures must be stored into reused, promoted cells"
                        );
                    }
                }
            }
        }
        for engine in [Engine::Tree, Engine::Vm] {
            let opts = CheckedOptions {
                engine,
                ..CheckedOptions::default()
            };
            for opt in [reuse_only(), OptOptions::default()] {
                let (out, _) =
                    run_checked(src, &options(opt), &opts, &pressured(1)).expect("checked run");
                assert_eq!(out.result, want, "{engine:?}\n{src}");
                assert_eq!(out.stats.violations, 0, "{engine:?}\n{src}");
            }
        }
    }
}
