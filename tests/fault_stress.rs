//! The fault-tolerance acceptance harness: 256 generated nml programs are
//! pushed through the *full* pipeline under a randomly tight analysis
//! [`Budget`] and an active runtime [`FaultPlan`], asserting that
//!
//! 1. nothing panics — the front end is total (budget exhaustion degrades
//!    affected functions to the worst-case summary instead of failing);
//! 2. every (possibly degraded) verdict over-approximates the reference
//!    interpreter's exact escape tables (soundness of degradation);
//! 3. the optimized program executed under injected faults (forced GCs,
//!    allocation retreats, region denials) is observationally equal to
//!    the unoptimized program on a fault-free interpreter.

use nml_escape_analysis::escape::{reference_global, tabulate_program, Budget, ScheduleOptions};
use nml_escape_analysis::opt::IrProgram;
use nml_escape_analysis::pipeline::{
    compile, run, run_checked, CheckedOptions, CompileOptions, Compiled, OptOptions, PipelineError,
    QuarantineSet, RunOutcome,
};
use nml_escape_analysis::runtime::{Engine, FaultPlan, FaultRate, HeapConfig, InterpConfig};
use proptest::prelude::*;

/// Every generated program shares this first-order prelude; the strategy
/// below only varies the main expression. First-order keeps the reference
/// tabulation applicable, so soundness can be checked on every case.
const PRELUDE: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  revon l a = if (null l) then a else revon (cdr l) (cons (car l) a);
  take n l = if n = 0 then nil
             else if (null l) then nil
             else cons (car l) (take (n - 1) (cdr l));
  drop n l = if n = 0 then l
             else if (null l) then nil
             else drop (n - 1) (cdr l);
  copy l = if (null l) then nil else cons (car l) (copy (cdr l));
  incall l = if (null l) then nil else cons ((car l) + 1) (incall (cdr l));
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  len l = if (null l) then 0 else 1 + len (cdr l)
in ";

/// A literal int-list or a `mklist` call — the leaves of the expression
/// tree.
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

/// A random list-valued expression: literals and `mklist` calls wrapped
/// in up to three levels of list transformers.
fn list_expr() -> BoxedStrategy<String> {
    leaf().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("(copy {e})")),
            inner.clone().prop_map(|e| format!("(incall {e})")),
            inner.clone().prop_map(|e| format!("(revon {e} nil)")),
            (0u32..4, inner.clone()).prop_map(|(k, e)| format!("(take {k} {e})")),
            (0u32..4, inner.clone()).prop_map(|(k, e)| format!("(drop {k} {e})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("(append {a} {b})")),
        ]
    })
}

/// A whole program: the prelude plus a main expression that either
/// returns the list or folds it to a scalar.
fn program() -> BoxedStrategy<String> {
    prop_oneof![
        list_expr().prop_map(|e| format!("{PRELUDE}{e}")),
        list_expr().prop_map(|e| format!("{PRELUDE}(sum {e})")),
        list_expr().prop_map(|e| format!("{PRELUDE}(len {e})")),
    ]
    .boxed()
}

/// Unlimited, pass-starved, or node-starved — roughly two thirds of the
/// cases analyze under a budget tight enough to degrade something.
fn budget() -> BoxedStrategy<Budget> {
    prop_oneof![
        Just(Budget::unlimited()),
        (1u32..5).prop_map(|p| Budget::tight(p, u64::MAX, None)),
        (4u64..64).prop_map(|n| Budget::tight(u32::MAX, n, None)),
    ]
    .boxed()
}

/// An active, seeded fault plan. Heap-capacity exhaustion is exercised
/// separately (it makes the program fail, by design, so it cannot be part
/// of an observational-equality check).
fn fault_plan() -> BoxedStrategy<FaultPlan> {
    fn rate(i: u8) -> FaultRate {
        match i {
            0 => FaultRate::OFF,
            1 => FaultRate::new(1, 8),
            2 => FaultRate::new(1, 3),
            _ => FaultRate::new(1, 1),
        }
    }
    (any::<u64>(), 0u8..4, 0u8..4, 0u8..4)
        .prop_map(|(seed, retreat, deny, gc)| {
            FaultPlan::new(seed)
                .with_alloc_retreats(rate(retreat))
                .with_region_denials(rate(deny))
                .with_forced_gc(rate(gc))
                .with_forced_gc_at(vec![1, 5, 13])
        })
        .boxed()
}

/// Scheduling mode for checked runs: serial unless `NML_TEST_JOBS` asks
/// for workers (CI runs the suite once per mode).
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

/// Compiles under `budget` with the given pass set (serial scheduling).
fn compile_governed(src: &str, budget: Budget, opt: OptOptions) -> Compiled {
    let opts = CompileOptions {
        budget,
        opt,
        ..CompileOptions::default()
    };
    compile(src, &opts, &QuarantineSet::new()).expect("front end is total")
}

/// Runs on the tree-walking interpreter.
fn run_with(ir: &IrProgram, config: InterpConfig) -> Result<RunOutcome, PipelineError> {
    run(ir, config, Engine::Tree)
}

/// A fault-free oracle interpreter.
fn clean_config() -> InterpConfig {
    InterpConfig::default()
}

/// The faulted interpreter also runs with an aggressive GC threshold and
/// region validation, so injected faults land on a heap that is already
/// under pressure.
fn faulted_config(plan: FaultPlan) -> InterpConfig {
    InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        fault: plan,
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn pipeline_survives_budgets_and_faults(
        src in program(),
        budget in budget(),
        plan in fault_plan(),
    ) {
        // 1. Totality: the governed front end must never fail (the
        //    generated programs are well-typed) and never panic.
        let compiled = compile_governed(&src, budget, OptOptions::none());

        // 2. Soundness of every (possibly degraded) summary against the
        //    reference interpreter's exact tables.
        let tables = tabulate_program(&compiled.analysis.program, &compiled.analysis.info)
            .expect("prelude is first-order");
        for (name, summary) in &compiled.analysis.summaries {
            for (i, p) in summary.params.iter().enumerate() {
                let exact = reference_global(&tables, &compiled.analysis.info, *name, i)
                    .expect("reference G(f,i)");
                prop_assert!(
                    exact.le(p.verdict),
                    "{src}\n{name} param {i}: degraded {:?} under exact {exact:?}",
                    p.verdict
                );
            }
        }

        // 3. Observational equality: unoptimized/fault-free is the
        //    oracle; the optimized program must match it even while the
        //    fault plan is retreating allocations, denying regions, and
        //    forcing collections.
        let oracle = run_with(&compiled.ir, clean_config()).expect("clean run");
        let optimized = compile_governed(&src, budget, OptOptions::default());
        let faulted = run_with(&optimized.ir, faulted_config(plan))
            .expect("faults are recoverable: the run must still finish");
        prop_assert_eq!(&oracle.result, &faulted.result, "{}", src);
    }

    /// Checked mode under live faults: the soundness sentinel must stay
    /// silent while retreats, denials, and forced GCs batter the heap —
    /// those faults degrade claims, they never falsify one — and the
    /// checked run must still match the fault-free oracle.
    #[test]
    fn checked_mode_stays_silent_under_faults(
        src in program(),
        plan in fault_plan(),
    ) {
        let compiled = compile_governed(&src, Budget::unlimited(), OptOptions::none());
        let oracle = run_with(&compiled.ir, clean_config()).expect("clean run");
        let optimized = CompileOptions {
            schedule: sched(),
            opt: OptOptions::default(),
            ..CompileOptions::default()
        };
        let (out, _) = run_checked(
            &src,
            &optimized,
            &CheckedOptions::default(),
            &faulted_config(plan),
        )
        .expect("checked+faulted run finishes");
        prop_assert_eq!(&out.result, &oracle.result, "{}", src);
        prop_assert_eq!(out.stats.violations, 0, "{}: fault noise misread as unsoundness", src);
        prop_assert_eq!(out.attempts, 1, "{}", src);
        prop_assert!(!out.degraded_unoptimized, "{}", src);
    }

    /// Heap-capacity faults: the run either finishes with the oracle's
    /// result or fails with the *typed* out-of-memory error — never a
    /// panic, never a wrong answer.
    #[test]
    fn capacity_exhaustion_is_a_typed_error(
        src in program(),
        cap in 1u64..24,
        seed in any::<u64>(),
    ) {
        let compiled = compile_governed(&src, Budget::unlimited(), OptOptions::none());
        let oracle = run_with(&compiled.ir, clean_config()).expect("clean run");
        let plan = FaultPlan::new(seed).with_heap_capacity(cap);
        match run_with(&compiled.ir, faulted_config(plan)) {
            Ok(out) => prop_assert_eq!(&out.result, &oracle.result, "{}", src),
            Err(e) => {
                let shown = e.to_string();
                prop_assert!(shown.contains("out of memory"), "unexpected error: {}", shown);
            }
        }
    }
}
