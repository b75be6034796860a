//! Quickstart: analyze a program, read the verdicts, run it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use nml_escape_analysis::escape::analyze_source;
use nml_escape_analysis::pipeline::{compile, run, CompileOptions, QuarantineSet};
use nml_escape_analysis::runtime::{Engine, InterpConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let src = "letrec append x y = if (null x) then y
                                   else cons (car x) (append (cdr x) y)
               in append [1, 2] [3, 4]";

    // 1. Escape analysis: for each parameter of each function, how many
    //    spines may be returned by the function?
    let analysis = analyze_source(src)?;
    println!("escape analysis:\n{analysis}");

    let append = analysis.summary("append").expect("append analyzed");
    println!(
        "G(append, 1) = {}  ->  the top {} spine(s) of x never escape",
        append.param(0).verdict,
        append.param(0).retained_spines(),
    );
    println!(
        "G(append, 2) = {}  ->  y escapes entirely",
        append.param(1).verdict
    );

    // 2. Sharing analysis (Theorem 2): the non-escaping top spines make
    //    the result's top spine unshared.
    println!(
        "unshared top spines of any (append a b) result: {}",
        analysis
            .unshared_result_spines("append")
            .expect("append returns a list")
    );

    // 3. Run the program on the instrumented runtime.
    let compiled = compile(src, &CompileOptions::default(), &QuarantineSet::new())?;
    let outcome = run(&compiled.ir, InterpConfig::default(), Engine::Tree)?;
    println!("\nresult: {}", outcome.result);
    println!("--- runtime statistics ---\n{}", outcome.stats);
    Ok(())
}
