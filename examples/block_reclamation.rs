//! Block allocation/reclamation (§A.3.3): `PS (create_list i)`.
//!
//! The list built by `create_list` cannot live in `PS`'s activation
//! record — that record does not exist yet. But its spine does not escape
//! `PS`, so it can be built inside a *block* ("local heap") returned to
//! the free list in one splice when `PS` finishes — no mark–sweep
//! traversal of those cells, ever.
//!
//! ```sh
//! cargo run --example block_reclamation
//! ```

use nml_escape_analysis::escape::analyze_source;
use nml_escape_analysis::opt::{block_call, lower_program};
use nml_escape_analysis::pipeline::run;
use nml_escape_analysis::runtime::{Engine, HeapConfig, InterpConfig};
use nml_escape_analysis::syntax::Symbol;

fn program(n: u32) -> String {
    format!(
        "letrec
           append x y = if (null x) then y
                        else cons (car x) (append (cdr x) y);
           split p x l h =
             if (null x) then (cons l (cons h nil))
             else if (car x) < p
                  then split p (cdr x) (cons (car x) l) h
                  else split p (cdr x) l (cons (car x) h);
           ps x = if (null x) then nil
                  else append (ps (car (split (car x) (cdr x) nil nil)))
                              (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))));
           create_list n = if n = 0 then nil
                           else cons ((n * 7919) / 13) (create_list (n - 1))
         in ps (create_list {n})"
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A small GC threshold so collection work is visible at these sizes.
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 512,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        ..Default::default()
    };

    println!(
        "{:>6} {:>14} {:>14} {:>14} {:>14}",
        "n", "GC work (base)", "GC work (blk)", "blk cells", "splices"
    );
    for n in [200u32, 400, 800, 1600] {
        let src = program(n);
        let analysis = analyze_source(&src)?;
        let baseline_ir = lower_program(&analysis.program, &analysis.info);
        let base = run(&baseline_ir, config.clone(), Engine::Tree)?;

        let mut blk_ir = baseline_ir.clone();
        block_call(
            &mut blk_ir,
            &analysis,
            Symbol::intern("ps"),
            Symbol::intern("create_list"),
        )?;
        let blk = run(&blk_ir, config.clone(), Engine::Tree)?;

        assert_eq!(base.result, blk.result, "block mode preserves results");
        println!(
            "{n:>6} {:>14} {:>14} {:>14} {:>14}",
            base.stats.reclamation_work(),
            blk.stats.reclamation_work(),
            blk.stats.block_freed,
            blk.stats.block_frees,
        );
    }
    println!("\nThe input spine is reclaimed by block splices instead of being traced by GC.");
    Ok(())
}
