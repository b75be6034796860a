//! Fuel determinism: interrupting a run is observationally a *prefix*
//! of the uninterrupted run, under both engines and under deterministic
//! fault plans.
//!
//! For a fixed program and plan:
//!
//! - an interrupted run at fuel `F` consumes exactly `F` steps;
//! - rerunning at the same `F` on a fresh machine reproduces the same
//!   outcome and the same counters bit-for-bit;
//! - counters at fuel `F1 <= F2` are monotone (a longer prefix can only
//!   have seen more allocations/collections);
//! - fuel at or past the program's natural step count changes nothing:
//!   same result, same counters as the unmetered run.
//!
//! These are the properties a serving layer leans on when it maps
//! deadlines to fuel: metering can only truncate an execution, never
//! perturb it.

use nml_opt::{lower_program, IrProgram};
use nml_runtime::{
    Engine, FaultPlan, FaultRate, Heap, Interp, InterpConfig, RuntimeError, Value, Vm,
};
use nml_syntax::parse_program;
use nml_types::infer_program;
use proptest::prelude::*;

fn compile(src: &str) -> IrProgram {
    let p = parse_program(src).expect("parse");
    let info = infer_program(&p).expect("infer");
    lower_program(&p, &info)
}

fn program_for(la: &[i64], lb: &[i64]) -> String {
    fn lit(l: &[i64]) -> String {
        let items: Vec<String> = l.iter().map(|n| n.to_string()).collect();
        format!("[{}]", items.join(", "))
    }
    // Enough cons churn that forced-GC plans have something to collect
    // and fuel cuts land mid-structure.
    format!(
        "letrec
           append x y = if (null x) then y
                        else cons (car x) (append (cdr x) y);
           rev l = if (null l) then nil
                   else append (rev (cdr l)) (cons (car l) nil);
           len l = if (null l) then 0 else 1 + len (cdr l)
         in len (append (rev {}) (append {} (rev {})))",
        lit(la),
        lit(lb),
        lit(la),
    )
}

fn digest(heap: &Heap<'_>, v: &Value<'_>) -> String {
    match v {
        Value::Int(n) => n.to_string(),
        Value::Bool(b) => b.to_string(),
        Value::Nil => "[]".to_string(),
        Value::Pair(c) | Value::Tuple(c) => {
            let h = heap.car(*c).expect("live");
            let t = heap.cdr(*c).expect("live");
            format!("({} . {})", digest(heap, &h), digest(heap, &t))
        }
        other => format!("<{}>", other.kind()),
    }
}

/// Counters that must evolve monotonically along a single execution.
type Counters = [u64; 4];

/// One fresh-machine run: `(outcome, steps consumed by the entry,
/// counters at exit)`.
fn measure(
    ir: &IrProgram,
    engine: Engine,
    fuel: Option<u64>,
    plan: &FaultPlan,
) -> (Result<String, RuntimeError>, u64, Counters) {
    let config = InterpConfig {
        fault: plan.clone(),
        fuel,
        ..InterpConfig::default()
    };
    let (outcome, entry_steps, stats) = match engine {
        Engine::Tree => {
            let mut m = Interp::with_config(ir, config).expect("startup");
            let s0 = m.heap.stats.steps;
            let r = m.run().map(|v| digest(&m.heap, &v));
            (r, m.heap.stats.steps - s0, m.heap.stats)
        }
        Engine::Vm => {
            let mut m = Vm::with_config(ir, config).expect("startup");
            let s0 = m.heap.stats.steps;
            let r = m.run().map(|v| digest(&m.heap, &v));
            (r, m.heap.stats.steps - s0, m.heap.stats)
        }
    };
    let counters = [
        stats.steps,
        stats.heap_allocs,
        stats.gc_runs,
        stats.forced_gcs,
    ];
    (outcome, entry_steps, counters)
}

fn plan_of(seed: u64, gc_num: u32) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    if gc_num > 0 {
        plan = plan.with_forced_gc(FaultRate::new(gc_num, 7));
    }
    plan
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interrupted_runs_are_deterministic_prefixes(
        la in proptest::collection::vec(0i64..50, 1..7),
        lb in proptest::collection::vec(0i64..50, 0..7),
        seed in 0u64..1000,
        gc_num in 0u32..3,
        frac in 1u64..130,
    ) {
        let src = program_for(&la, &lb);
        let ir = compile(&src);
        let plan = plan_of(seed, gc_num);
        for engine in [Engine::Tree, Engine::Vm] {
            // The unmetered baseline: natural step count S.
            let (full, s, full_counters) = measure(&ir, engine, None, &plan);
            let full = full.expect("baseline run succeeds");
            prop_assert!(s > 0);

            // A fuel budget somewhere in (0, 1.3 * S].
            let f = (s * frac).div_ceil(100);
            let (r1, used1, c1) = measure(&ir, engine, Some(f), &plan);
            // Bit-for-bit determinism on a fresh machine.
            let (r2, used2, c2) = measure(&ir, engine, Some(f), &plan);
            prop_assert_eq!(&r1, &r2, "same fuel, same outcome ({engine:?})");
            prop_assert_eq!(used1, used2);
            prop_assert_eq!(c1, c2);

            if f >= s {
                // Enough fuel: metering is invisible.
                prop_assert_eq!(r1.as_deref(), Ok(full.as_str()));
                prop_assert_eq!(used1, s);
                prop_assert_eq!(c1, full_counters);
            } else {
                // Interrupted: typed error after exactly `f` steps, and
                // every counter is a prefix of the full run's.
                prop_assert!(
                    matches!(r1, Err(RuntimeError::FuelExhausted { fuel }) if fuel == f),
                    "expected FuelExhausted({f}), got {r1:?} ({engine:?})"
                );
                prop_assert_eq!(used1, f);
                for (a, b) in c1.iter().zip(full_counters.iter()) {
                    prop_assert!(a <= b, "counter regressed: {c1:?} vs {full_counters:?}");
                }

                // Monotonicity between two interrupted prefixes.
                let f2 = f + (s - f) / 2;
                let (_, used3, c3) = measure(&ir, engine, Some(f2), &plan);
                prop_assert!(used3 >= used1);
                for (a, b) in c1.iter().zip(c3.iter()) {
                    prop_assert!(a <= b, "prefix not monotone: {c1:?} vs {c3:?}");
                }
            }
        }
    }
}
