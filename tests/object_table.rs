//! The heap's object table stays bounded when a program makes closures
//! and allocates no cells.
//!
//! Closures, partial applications and capture environments live in the
//! heap's object table and only a full mark frees them. A loop that
//! makes closures and no cells never reaches a cell trigger, so the
//! table has a trigger of its own (`heap::OBJ_GC_TRIGGER` objects made
//! since the last full mark), which runs an object collection. Each
//! test runs both engines and reads the most objects ever live at once
//! through `Heap::peak_objects`: it must stay under a fixed bound
//! although the run makes far more objects than that.

use nml_escape_analysis::opt::IrProgram;
use nml_escape_analysis::pipeline::{compile, CompileOptions, QuarantineSet};
use nml_escape_analysis::runtime::heap::OBJ_GC_TRIGGER;
use nml_escape_analysis::runtime::{Engine, Heap, Interp, Value, Vm};
use nml_escape_analysis::syntax::Symbol;

/// Compiles `src` as `nmlc run -O` does.
fn compile_o(src: &str) -> IrProgram {
    compile(src, &CompileOptions::default(), &QuarantineSet::new())
        .expect("compiles")
        .ir
}

/// The most objects these programs may hold at once: the trigger plus
/// the few objects live at any collection.
const BOUND: usize = OBJ_GC_TRIGGER + 64;

/// Asserts the table stayed under the bound. Object collections count
/// in no statistic, so their work shows only here.
fn assert_bounded(heap: &Heap<'_>, what: &str) {
    assert!(
        heap.peak_objects() <= BOUND,
        "{what}: {} objects live at once",
        heap.peak_objects()
    );
    assert!(heap.live_objects() <= BOUND, "{what}");
}

/// A long-lived machine answering 10 000 calls, each of which makes
/// closures (a capturing lambda per iteration of an inner loop), a
/// partial application of a global, and a local recursive group: at
/// least 80 000 objects in all.
#[test]
fn a_long_lived_machine_making_closures_per_call_holds_a_bounded_table() {
    let src = "letrec
  apply f x = f x;
  add x y = x + y;
  inner k acc = if k = 0 then acc else inner (k - 1) (apply (lambda(x). x + k) acc);
  work n =
    letrec ev k = if k = 0 then 0 else od (k - 1);
           od k = if k = 0 then 1 else ev (k - 1)
    in inner 6 (apply (add n) (ev 3))
in 0";
    let ir = compile_o(src);
    let work = Symbol::intern("work");
    // `ev 3` is 1, and `inner` adds 6 + 5 + … + 1.
    let want = |n: i64| n + 1 + 21;
    for engine in [Engine::Tree, Engine::Vm] {
        let what = format!("{engine:?}");
        let check = |n: i64, v: Value<'_>| match v {
            Value::Int(got) => assert_eq!(got, want(n), "{what}"),
            other => panic!("{what}: {other}"),
        };
        match engine {
            Engine::Tree => {
                let mut m = Interp::new(&ir).expect("startup");
                for n in 0..10_000 {
                    check(n, m.call(work, vec![Value::Int(n)]).expect("call"));
                }
                assert_bounded(&m.heap, &what);
            }
            Engine::Vm => {
                let mut m = Vm::new(&ir).expect("startup");
                for n in 0..10_000 {
                    check(n, m.call(work, vec![Value::Int(n)]).expect("call"));
                }
                assert_bounded(&m.heap, &what);
            }
        }
    }
}

/// One run of a closure-only loop of a million iterations: a closure
/// per iteration, and not one cell, so no cell collection ever runs.
#[test]
fn a_closure_only_loop_of_a_million_iterations_holds_a_bounded_table() {
    let src = "letrec
  apply f x = f x;
  loop n acc = if n = 0 then acc else loop (n - 1) (apply (lambda(x). x + n) acc)
in loop 1000000 0";
    let ir = compile_o(src);
    let want = 500_000_500_000;
    for engine in [Engine::Tree, Engine::Vm] {
        let what = format!("{engine:?}");
        let heap = match engine {
            Engine::Tree => {
                let mut m = Interp::new(&ir).expect("startup");
                assert!(matches!(m.run(), Ok(Value::Int(v)) if v == want), "{what}");
                m.heap
            }
            Engine::Vm => {
                let mut m = Vm::new(&ir).expect("startup");
                assert!(matches!(m.run(), Ok(Value::Int(v)) if v == want), "{what}");
                m.heap
            }
        };
        assert_eq!(
            (heap.stats.heap_allocs, heap.stats.gc_runs),
            (0, 0),
            "{what}: the loop allocates no cell"
        );
        assert_bounded(&heap, &what);
    }
}
