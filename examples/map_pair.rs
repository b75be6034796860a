//! The paper's introduction example: `map pair [[1,2],[3,4],[5,6]]`.
//!
//! Demonstrates the three properties the paper derives (§1):
//!
//! 1. the top spine of `pair`'s parameter does not escape `pair`;
//! 2. the top spine of `map`'s list parameter does not escape `map`
//!    (elements escape only to the extent the unknown `f` lets them);
//! 3. in this particular call, the top **two** spines of the literal do
//!    not escape (local escape test),
//!
//! and then performs the optimization the paper proposes: stack-allocating
//! the literal's spines so they vanish — without GC — when `map` returns.
//!
//! ```sh
//! cargo run --example map_pair
//! ```

use nml_escape_analysis::escape::{local_escape, Engine};
use nml_escape_analysis::pipeline::{compile, run, CompileOptions, QuarantineSet};
use nml_escape_analysis::runtime::{Engine as Machine, InterpConfig};
use nml_escape_analysis::syntax::parse_program;
use nml_escape_analysis::types::infer_and_monomorphize;

const SRC: &str = "letrec
  pair x = cons (car x) (cons (car (cdr x)) nil);
  map f l = if (null l) then nil
            else cons (f (car l)) (map f (cdr l))
in map pair [[1,2],[3,4],[5,6]]";

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The local test is call-site specific: run on the monomorphized
    // program so `map`'s car^s annotations match this call's types.
    let parsed = parse_program(SRC)?;
    let mono = infer_and_monomorphize(&parsed)?;
    let mut engine = Engine::new(&mono.program, &mono.info);

    // Global tests (properties 1 and 2).
    println!("=== global escape tests ===");
    for b in &mono.program.bindings {
        let summary = nml_escape_analysis::escape::global_escape(&mut engine, b.name)?;
        print!("{summary}");
    }

    // Local test on the actual call (property 3).
    println!("=== local escape test on (map pair [[1,2],[3,4],[5,6]]) ===");
    let local = local_escape(&mut engine, &mono.program.body)?;
    print!("{local}");
    println!(
        "argument 2: top {} of {} spines do not escape this call",
        local.retained_spines(1),
        local.spines[1]
    );
    assert_eq!(local.retained_spines(1), 2, "the paper's property 3");

    // The optimization: allocate the literal's spines on the stack. The
    // local-test-driven plan (on the monomorphized program) licenses
    // BOTH spines — all 9 literal cells vanish when the call returns.
    println!("\n=== stack allocation of the literal (local plan) ===");
    let none = QuarantineSet::new();
    let plain = compile(SRC, &CompileOptions::default(), &none)?;
    let baseline = run(&plain.ir, InterpConfig::default(), Machine::Tree)?;
    let local_stack = CompileOptions {
        local_stack: true,
        ..CompileOptions::default()
    };
    let compiled = compile(SRC, &local_stack, &none)?;
    println!("{}", compiled.ir.body);
    let optimized = run(&compiled.ir, InterpConfig::default(), Machine::Tree)?;

    assert_eq!(baseline.result, optimized.result);
    println!("result (both): {}", optimized.result);
    println!(
        "baseline : {} heap allocs, {} stack allocs",
        baseline.stats.heap_allocs, baseline.stats.stack_allocs
    );
    println!(
        "optimized: {} heap allocs, {} stack allocs ({} freed at call return)",
        optimized.stats.heap_allocs, optimized.stats.stack_allocs, optimized.stats.stack_freed
    );
    Ok(())
}
