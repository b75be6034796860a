//! Shared machinery for the table generators and criterion benches:
//! program builders, optimized-variant construction, and measured runs.

use nml_escape_analysis::corpus;
use nml_opt::{
    annotate_stack, block_call, compile, reuse_variant, CompileOptions, Compiled, IrProgram,
    QuarantineSet, ReuseOptions,
};
use nml_runtime::{HeapConfig, Interp, InterpConfig, RuntimeStats};
use nml_syntax::Symbol;

/// A program together with its analysis and lowered IR (possibly
/// already extended with variants).
pub type Built = Compiled;

/// Compiles `src` under `opts`.
///
/// # Panics
///
/// Panics on any front-end failure — benchmark sources are fixed.
pub fn build_with(src: &str, opts: &CompileOptions) -> Built {
    compile(src, opts, &QuarantineSet::new()).expect("benchmark source compiles")
}

/// Analyzes and lowers `src` (all-heap, no passes).
///
/// # Panics
///
/// Panics on any front-end failure — benchmark sources are fixed.
pub fn build(src: &str) -> Built {
    build_with(src, &CompileOptions::default())
}

/// The naive-reverse program with `rev` and its reuse variant `rev_r`.
///
/// # Panics
///
/// Panics if the transformation is rejected (it is licensed by the
/// analysis for this program).
pub fn build_rev() -> (Built, Symbol, Symbol) {
    let mut b = build(corpus::REV_NAIVE.source);
    let append_r = reuse_variant(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("append"),
        &ReuseOptions::dcons(),
    )
    .expect("append_r");
    let rev_r = reuse_variant(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("rev"),
        &ReuseOptions {
            extra_rewrites: vec![(Symbol::intern("append"), append_r)],
            dcons: true,
            ..Default::default()
        },
    )
    .expect("rev_r");
    (b, Symbol::intern("rev"), rev_r)
}

/// The partition-sort program with `ps` and its reuse variant `ps_r`
/// (the paper's `PS''`).
///
/// # Panics
///
/// See [`build_rev`].
pub fn build_ps() -> (Built, Symbol, Symbol) {
    let mut b = build(corpus::PARTITION_SORT.source);
    let append_r = reuse_variant(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("append"),
        &ReuseOptions::dcons(),
    )
    .expect("append_r");
    let ps_r = reuse_variant(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("ps"),
        &ReuseOptions {
            extra_rewrites: vec![(Symbol::intern("append"), append_r)],
            dcons: true,
            ..Default::default()
        },
    )
    .expect("ps_r");
    (b, Symbol::intern("ps"), ps_r)
}

/// `sum` over a literal list of length `n`, as source text (the stack-
/// allocation workload: the literal is constructed at the call site).
pub fn sum_literal_source(n: usize) -> String {
    format!(
        "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
         in sum {}",
        corpus::int_list_literal(n)
    )
}

/// `sum (create_list n)` as source text (the block-allocation workload:
/// the list is produced inside a callee).
pub fn create_consume_source(n: usize) -> String {
    format!(
        "letrec
           sum l = if (null l) then 0 else car l + sum (cdr l);
           create_list n = if n = 0 then nil else cons n (create_list (n - 1))
         in sum (create_list {n})"
    )
}

/// `go k`: sums `k` freshly created lists of length `n` — repeated
/// allocation pressure, so dead inputs must actually be reclaimed (the
/// regime where stack/block reclamation pays; a single-shot run dies
/// before its garbage needs collecting).
pub fn repeated_consume_source(n: usize, k: usize) -> String {
    format!(
        "letrec
           sum l = if (null l) then 0 else car l + sum (cdr l);
           create_list n = if n = 0 then nil else cons n (create_list (n - 1));
           go k acc = if k = 0 then acc else go (k - 1) (acc + sum (create_list {n}))
         in go {k} 0"
    )
}

/// The literal-argument analogue of [`repeated_consume_source`] (for the
/// stack-allocation pass, which needs construction at the call site).
pub fn repeated_literal_source(n: usize, k: usize) -> String {
    format!(
        "letrec
           sum l = if (null l) then 0 else car l + sum (cdr l);
           go k acc = if k = 0 then acc else go (k - 1) (acc + sum {lit})
         in go {k} 0",
        lit = corpus::int_list_literal(n)
    )
}

/// Builds [`repeated_consume_source`] with the block transformation
/// applied.
///
/// # Panics
///
/// Panics if the transformation is rejected.
pub fn build_repeated_block_variant(n: usize, k: usize) -> Built {
    let mut b = build(&repeated_consume_source(n, k));
    block_call(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("sum"),
        Symbol::intern("create_list"),
    )
    .expect("block transform licensed");
    b
}

/// Builds [`repeated_literal_source`] with stack allocation applied.
pub fn build_repeated_stack_variant(n: usize, k: usize) -> Built {
    let mut b = build(&repeated_literal_source(n, k));
    annotate_stack(&mut b.ir, &b.analysis);
    b
}

/// Builds [`create_consume_source`] with the block transformation
/// applied.
///
/// # Panics
///
/// Panics if the transformation is rejected.
pub fn build_block_variant(n: usize) -> Built {
    let mut b = build(&create_consume_source(n));
    block_call(
        &mut b.ir,
        &b.analysis,
        Symbol::intern("sum"),
        Symbol::intern("create_list"),
    )
    .expect("block transform licensed");
    b
}

/// Builds [`sum_literal_source`] with stack allocation applied.
pub fn build_stack_variant(n: usize) -> Built {
    let mut b = build(&sum_literal_source(n));
    annotate_stack(&mut b.ir, &b.analysis);
    b
}

/// An interpreter configuration that keeps GC active at benchmark sizes.
pub fn pressured_config(threshold: usize) -> InterpConfig {
    InterpConfig {
        heap: HeapConfig {
            gc_threshold: threshold,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        ..Default::default()
    }
}

/// Calls `func` on a fresh interpreter with a `0..n` integer list input
/// and returns the call-only statistics (input construction subtracted
/// from heap allocation counts).
///
/// # Panics
///
/// Panics on runtime errors — benchmark programs are total on these
/// inputs.
pub fn call_stats(ir: &IrProgram, func: Symbol, n: usize, config: InterpConfig) -> RuntimeStats {
    let mut interp = Interp::with_config(ir, config).expect("interp");
    let input: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 65_536).collect();
    let l = interp.make_int_list(&input);
    let before = interp.heap.stats;
    let result = interp.call(func, vec![l]).expect("benchmark call");
    // Force the result to stay alive through the call (no accidental
    // collection of the output).
    std::hint::black_box(&result);
    let mut stats = interp.heap.stats;
    stats.heap_allocs -= before.heap_allocs;
    stats
}

/// Runs a whole program body and returns its statistics.
///
/// # Panics
///
/// Panics on runtime errors.
pub fn run_stats(ir: &IrProgram, config: InterpConfig) -> RuntimeStats {
    let mut interp = Interp::with_config(ir, config).expect("interp");
    let v = interp.run().expect("benchmark run");
    std::hint::black_box(&v);
    interp.heap.stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rev_variants_build_and_run() {
        let (b, rev, rev_r) = build_rev();
        let base = call_stats(&b.ir, rev, 40, InterpConfig::default());
        let opt = call_stats(&b.ir, rev_r, 40, InterpConfig::default());
        assert!(
            base.heap_allocs > 700,
            "quadratic baseline: {}",
            base.heap_allocs
        );
        assert_eq!(opt.heap_allocs, 0, "reuse allocates nothing");
        assert!(opt.dcons_reuses > 700);
    }

    #[test]
    fn ps_variants_build_and_run() {
        let (b, ps, ps_r) = build_ps();
        let base = call_stats(&b.ir, ps, 50, InterpConfig::default());
        let opt = call_stats(&b.ir, ps_r, 50, InterpConfig::default());
        assert!(opt.dcons_reuses > 0);
        assert!(opt.heap_allocs < base.heap_allocs);
    }

    #[test]
    fn stack_variant_eliminates_heap_allocs() {
        let b = build_stack_variant(32);
        let stats = run_stats(&b.ir, InterpConfig::default());
        assert_eq!(stats.heap_allocs, 0);
        assert_eq!(stats.stack_allocs, 32);
    }

    #[test]
    fn block_variant_splices_once() {
        let b = build_block_variant(64);
        let stats = run_stats(&b.ir, pressured_config(16));
        assert_eq!(stats.block_frees, 1);
        assert_eq!(stats.block_freed, 64);
        assert_eq!(stats.gc_swept, 0);
    }
}
