//! Regeneration of every table and figure in the paper's evaluation
//! (its Appendix A plus the introduction's claims), and of the runtime
//! tables our instrumented substrate adds on top. See DESIGN.md §4 for
//! the experiment index; EXPERIMENTS.md records a captured run.

use crate::runner::{
    build, build_ps, build_repeated_block_variant, build_repeated_stack_variant, build_rev,
    build_stack_variant, call_stats, pressured_config, repeated_consume_source, run_stats,
    sum_literal_source, Built,
};
use nml_escape::{analyze_source, global_escape, local_escape, transfer_verdict, Be, Engine};
use nml_escape_analysis::corpus;
use nml_runtime::{dynamic_escape, Interp, InterpConfig};
use nml_syntax::{parse_program, Symbol};
use nml_types::{infer_and_monomorphize, infer_program, Ty};
use std::fmt::Write;

/// T-A1: the global escape results of Appendix A.1, with the paper's
/// expected values alongside the computed ones.
pub fn table_a1() -> String {
    let expected: &[(&str, usize, Be)] = &[
        ("append", 1, Be::escaping(0)),
        ("append", 2, Be::escaping(1)),
        ("split", 1, Be::bottom()),
        ("split", 2, Be::escaping(0)),
        ("split", 3, Be::escaping(1)),
        ("split", 4, Be::escaping(1)),
        ("ps", 1, Be::escaping(0)),
    ];
    let a = analyze_source(corpus::PARTITION_SORT.source).expect("analysis");
    let mut out = String::new();
    let _ = writeln!(out, "T-A1: global escape test (paper Appendix A.1)");
    let _ = writeln!(
        out,
        "{:<10} {:>5} {:>4} {:>8} {:>8} {:>6}",
        "function", "param", "s_i", "paper", "ours", "match"
    );
    for (f, i, want) in expected {
        let p = &a.summary(f).expect("summary").params[*i - 1];
        let _ = writeln!(
            out,
            "{:<10} {:>5} {:>4} {:>8} {:>8} {:>6}",
            f,
            i,
            p.spines,
            want.to_string(),
            p.verdict.to_string(),
            if p.verdict == *want { "yes" } else { "NO" }
        );
    }
    out
}

/// F-A1: Kleene iteration effort per function (the appendix shows
/// `append⁽⁰⁾..append⁽²⁾` etc. — two growing steps then stability). Each
/// function is measured with a fresh engine running only its own
/// parameter-1 test, so the counts are per-query.
pub fn table_f1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "F-A1: fixpoint iteration effort (fresh engine per query)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>7} {:>14} {:>12}",
        "function", "passes", "cache updates", "memo entries"
    );
    let p = parse_program(corpus::PARTITION_SORT.source).expect("parse");
    let info = infer_program(&p).expect("infer");
    for f in corpus::PARTITION_SORT.functions {
        let name = Symbol::intern(f);
        let mut en = Engine::new(&p, &info);
        let _ = global_escape(&mut en, name).expect("test");
        let updates: u32 = en.stats.updates_per_binding.values().sum();
        let _ = writeln!(
            out,
            "{:<10} {:>7} {:>14} {:>12}",
            f, en.stats.passes, updates, en.stats.memo_entries
        );
    }

    // The appendix's Kleene traces, as the per-pass value of G(f, 1):
    // e.g. append starts at bottom and grows to its fixpoint.
    let _ = writeln!(out, "per-pass trace of G(f, 1) (recursive growth happens inside a pass\n via the memo bootstrap; the trace shows the per-pass query value):");
    for f in corpus::PARTITION_SORT.functions {
        let name = Symbol::intern(f);
        let mut en = Engine::new(&p, &info);
        let sig = info.sig(name).expect("sig").clone();
        let (params, _) = sig.uncurry();
        let args: Vec<nml_escape::AbsVal> = params
            .iter()
            .enumerate()
            .map(|(j, ty)| {
                let be = if j == 0 {
                    Be::escaping(ty.spines())
                } else {
                    Be::bottom()
                };
                nml_escape::worst_value(ty, be)
            })
            .collect();
        let (_, trace) = en
            .run_traced(|en| {
                let fv = en.top_value(name);
                en.apply_n(&fv, &args).be
            })
            .expect("trace");
        let rendered: Vec<String> = trace.iter().map(|b| b.to_string()).collect();
        let _ = writeln!(out, "  {f:<8} {}", rendered.join(" -> "));
    }
    out
}

/// T-A2: sharing conclusions of Appendix A.2.
pub fn table_a2() -> String {
    let a = analyze_source(corpus::PARTITION_SORT.source).expect("analysis");
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T-A2: sharing from escape information (Appendix A.2, Thm 2)"
    );
    let _ = writeln!(
        out,
        "{:<10} {:>9} {:>10} {:>16} {:>8}",
        "function", "d_result", "max esc_i", "unshared spines", "paper"
    );
    for (f, paper) in [("ps", 1u32), ("split", 1u32)] {
        let s = a.summary(f).expect("summary");
        let max_esc = s
            .params
            .iter()
            .map(|p| p.escaping_spines())
            .max()
            .unwrap_or(0);
        let unshared = nml_escape::unshared_from_summary(s);
        let _ = writeln!(
            out,
            "{:<10} {:>9} {:>10} {:>16} {:>8}",
            f,
            s.result_ty.spines(),
            max_esc,
            unshared,
            paper
        );
    }
    out
}

/// T-I1: the three properties of the introduction example
/// `map pair [[1,2],[3,4],[5,6]]`.
pub fn table_i1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T-I1: introduction example (map pair [[1,2],[3,4],[5,6]])"
    );
    let parsed = parse_program(corpus::MAP_PAIR.source).expect("parse");
    let mono = infer_and_monomorphize(&parsed).expect("mono");
    let mut en = Engine::new(&mono.program, &mono.info);

    // Property 1: pair's parameter top spine does not escape.
    let pair_name = mono
        .program
        .bindings
        .iter()
        .map(|b| b.name)
        .find(|n| n.as_str().starts_with("pair"))
        .expect("pair instance");
    let pair = global_escape(&mut en, pair_name).expect("pair");
    let _ = writeln!(
        out,
        "1. G(pair, 1) = {} -> top spine retained: {}  (paper: does not escape)",
        pair.param(0).verdict,
        pair.param(0).retained_spines() >= 1
    );

    // Property 2: map's list parameter top spine does not escape.
    let map_name = mono
        .program
        .bindings
        .iter()
        .map(|b| b.name)
        .find(|n| n.as_str().starts_with("map"))
        .expect("map instance");
    let map = global_escape(&mut en, map_name).expect("map");
    let _ = writeln!(
        out,
        "2. G(map, 2)  = {} -> top spine retained: {}  (paper: spine stays, elements via f)",
        map.param(1).verdict,
        map.param(1).retained_spines() >= 1
    );

    // Property 3: locally, the top two spines of the literal stay.
    let local = local_escape(&mut en, &mono.program.body).expect("local");
    let _ = writeln!(
        out,
        "3. L(arg 2)   = {} -> top {} of {} spines retained  (paper: top two)",
        local.verdicts[1],
        local.retained_spines(1),
        local.spines[1]
    );
    out
}

/// T-P1: polymorphic invariance — retained top spines across directly
/// analyzed monotype instances.
pub fn table_p1() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "T-P1: polymorphic invariance (Theorem 1)");
    let _ = writeln!(
        out,
        "{:<8} {:<12} {:>4} {:>8} {:>9} {:>14}",
        "function", "instance", "s_i", "G", "retained", "transfer match"
    );
    let append_def = "append x y = if (null x) then y
                                   else cons (car x) (append (cdr x) y)";
    let cases = [
        (
            "append",
            format!("letrec {append_def} in append [1] [2]"),
            "append__i",
        ),
        (
            "append",
            format!("letrec {append_def} in append [[1]] [[2]]"),
            "append__iL",
        ),
        (
            "append",
            format!("letrec {append_def} in append [[[1]]] [[[2]]]"),
            "append__iLL",
        ),
    ];
    let mut simplest: Option<(Be, u32)> = None;
    for (f, src, inst) in &cases {
        let p = parse_program(src).expect("parse");
        let m = infer_and_monomorphize(&p).expect("mono");
        let mut en = Engine::new(&m.program, &m.info);
        let s = global_escape(&mut en, Symbol::intern(inst)).expect("test");
        let p0 = s.param(0);
        let transfer_ok = match simplest {
            None => {
                simplest = Some((p0.verdict, p0.spines));
                true
            }
            Some((v0, s0)) => transfer_verdict(v0, s0, p0.spines) == p0.verdict,
        };
        let _ = writeln!(
            out,
            "{:<8} {:<12} {:>4} {:>8} {:>9} {:>14}",
            f,
            inst,
            p0.spines,
            p0.verdict.to_string(),
            p0.retained_spines(),
            if transfer_ok { "yes" } else { "NO" }
        );
    }
    out
}

/// T-R1: stack allocation — heap vs stack allocations and reclamation
/// work for `sum [0..n]`.
pub fn table_r1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T-R1: stack allocation of non-escaping literal arguments (sum [0..n])"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>12} {:>12} {:>12} {:>12} {:>14}",
        "n", "heap(base)", "heap(stack)", "stack allocs", "stack freed", "reclaim(base)"
    );
    for n in [64usize, 256, 1024, 4096] {
        let base = build(&sum_literal_source(n));
        let base_stats = run_stats(&base.ir, pressured_config(256));
        let opt = build_stack_variant(n);
        let opt_stats = run_stats(&opt.ir, pressured_config(256));
        let _ = writeln!(
            out,
            "{:>6} {:>12} {:>12} {:>12} {:>12} {:>14}",
            n,
            base_stats.heap_allocs,
            opt_stats.heap_allocs,
            opt_stats.stack_allocs,
            opt_stats.stack_freed,
            base_stats.reclamation_work()
        );
    }
    let _ = writeln!(
        out,
        "(stack-mode reclamation work is 0 by the paper's model: frame pops are free)"
    );
    out
}

/// T-R2: in-place reuse — allocations eliminated by `DCONS` for `rev`
/// (quadratic) and `ps`.
pub fn table_r2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T-R2: in-place reuse via DCONS (call-only allocation counts)"
    );
    let _ = writeln!(
        out,
        "{:<6} {:>6} {:>14} {:>14} {:>14}",
        "prog", "n", "allocs (base)", "allocs (reuse)", "dcons reuses"
    );
    let (rev_b, rev, rev_r) = build_rev();
    for n in [32usize, 128, 512] {
        let base = call_stats(&rev_b.ir, rev, n, InterpConfig::default());
        let opt = call_stats(&rev_b.ir, rev_r, n, InterpConfig::default());
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>14} {:>14} {:>14}",
            "rev", n, base.heap_allocs, opt.heap_allocs, opt.dcons_reuses
        );
    }
    let (ps_b, ps, ps_r) = build_ps();
    for n in [32usize, 128, 512] {
        let base = call_stats(&ps_b.ir, ps, n, InterpConfig::default());
        let opt = call_stats(&ps_b.ir, ps_r, n, InterpConfig::default());
        let _ = writeln!(
            out,
            "{:<6} {:>6} {:>14} {:>14} {:>14}",
            "ps", n, base.heap_allocs, opt.heap_allocs, opt.dcons_reuses
        );
    }
    out
}

/// T-R3: block allocation/reclamation for `go k = Σ sum (create_list n)`
/// — repeated allocation pressure, so dead input spines must really be
/// reclaimed: by GC sweeps in the baseline, by one splice per iteration
/// in block mode.
pub fn table_r3() -> String {
    let mut out = String::new();
    let k = 16usize;
    let _ = writeln!(
        out,
        "T-R3: block reclamation (sum (create_list n), {k} iterations, gc threshold 64)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "n", "swept(b)", "swept(blk)", "blk cells", "splices", "gc(b)", "gc(blk)"
    );
    for n in [128usize, 512, 2048] {
        let base = build(&repeated_consume_source(n, k));
        let base_stats = run_stats(&base.ir, pressured_config(64));
        let blk = build_repeated_block_variant(n, k);
        let blk_stats = run_stats(&blk.ir, pressured_config(64));
        let _ = writeln!(
            out,
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            n,
            base_stats.gc_swept,
            blk_stats.gc_swept,
            blk_stats.block_freed,
            blk_stats.block_frees,
            base_stats.gc_runs,
            blk_stats.gc_runs
        );
    }
    out
}

/// F-R1: series — reclamation work vs input size under repeated
/// pressure, baseline vs each optimization (the paper's qualitative
/// "reduction of run-time storage reclamation overhead").
pub fn table_fr1() -> String {
    let mut out = String::new();
    let k = 16usize;
    let _ = writeln!(
        out,
        "F-R1: reclamation work vs n ({k} iterations, gc threshold 64)"
    );
    let _ = writeln!(
        out,
        "{:>6} {:>16} {:>16} {:>16}",
        "n", "baseline", "stack-alloc", "block"
    );
    for n in [64usize, 256, 1024] {
        let base = run_stats(
            &build(&repeated_consume_source(n, k)).ir,
            pressured_config(64),
        );
        // Stack allocation applies to the literal-argument form of the
        // same workload.
        let stack = run_stats(&build_repeated_stack_variant(n, k).ir, pressured_config(64));
        let blk = run_stats(&build_repeated_block_variant(n, k).ir, pressured_config(64));
        let _ = writeln!(
            out,
            "{:>6} {:>16} {:>16} {:>16}",
            n,
            base.reclamation_work(),
            stack.reclamation_work(),
            blk.reclamation_work()
        );
    }
    let _ = writeln!(
        out,
        "(stack and block modes keep live size flat: few or no GCs; block pays 1 splice/iter)"
    );
    out
}

/// T-S1: soundness sweep — static verdict vs measured dynamic escape for
/// every first-order list parameter in the corpus.
pub fn table_s1() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "T-S1: dynamic (exact) vs abstract escape, whole corpus"
    );
    let _ = writeln!(
        out,
        "{:<16} {:<10} {:>5} {:>8} {:>8} {:>6}",
        "workload", "function", "param", "static", "dynamic", "sound"
    );
    let mut rows = 0;
    for w in corpus::ALL {
        let Built { analysis: a, ir } = build(w.source);
        for f in w.functions {
            let Some(s) = a.summary(f) else { continue };
            if s.param_tys.iter().any(|t| matches!(t, Ty::Fun(..))) {
                continue;
            }
            for (i, pty) in s.param_tys.iter().enumerate() {
                let spines = pty.spines();
                if spines == 0 {
                    continue;
                }
                let mut best_dynamic = 0u32;
                let mut measured = false;
                for seed in 1..4u64 {
                    let mut interp = Interp::new(&ir).expect("interp");
                    let mut args = Vec::new();
                    for (j, t) in s.param_tys.iter().enumerate() {
                        args.push(gen_value(&mut interp, t, seed * 131 + j as u64));
                    }
                    match dynamic_escape(&mut interp, Symbol::intern(f), args, i, spines) {
                        Ok(d) => {
                            measured = true;
                            best_dynamic = best_dynamic.max(d.escaping_spines());
                        }
                        Err(_) => continue, // partial function on this input
                    }
                }
                if !measured {
                    continue;
                }
                let static_k = s.param(i).escaping_spines();
                rows += 1;
                let _ = writeln!(
                    out,
                    "{:<16} {:<10} {:>5} {:>8} {:>8} {:>6}",
                    w.name,
                    f,
                    i + 1,
                    s.param(i).verdict.to_string(),
                    best_dynamic,
                    if best_dynamic <= static_k {
                        "yes"
                    } else {
                        "NO"
                    }
                );
            }
        }
    }
    let _ = writeln!(out, "({rows} parameter measurements, all must be sound)");
    out
}

fn gen_value<'p>(interp: &mut Interp<'p>, ty: &Ty, seed: u64) -> nml_runtime::Value<'p> {
    match ty {
        Ty::List(elem) => {
            let len = (seed % 4) as usize + 2;
            let items: Vec<nml_runtime::Value<'p>> = (0..len)
                .map(|i| gen_value(interp, elem, seed.wrapping_mul(29).wrapping_add(i as u64)))
                .collect();
            interp.make_list(items)
        }
        Ty::Bool => nml_runtime::Value::Bool(seed.is_multiple_of(2)),
        _ => nml_runtime::Value::Int((seed % 23) as i64 - 11),
    }
}

/// B-0: analysis cost summary (non-criterion quick view; criterion
/// benches give precise timings).
pub fn table_b0() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "B-0: analysis effort per corpus program");
    let _ = writeln!(
        out,
        "{:<16} {:>9} {:>7} {:>13} {:>10}",
        "workload", "functions", "passes", "memo entries", "widenings"
    );
    for w in corpus::ALL {
        let a = analyze_source(w.source).expect("analysis");
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>7} {:>13} {:>10}",
            w.name,
            a.summaries.len(),
            a.stats.passes,
            a.stats.memo_entries,
            a.stats.widenings
        );
    }
    out
}

/// AB-1: widening ablation. The engine's only deviation from the paper's
/// plain Kleene iteration is the depth-widening safeguard; this sweep
/// shows it is inert at realistic thresholds (no widenings, identical
/// verdicts) and what it costs when forced low.
pub fn table_ab1() -> String {
    use nml_escape::{analyze_source_with, EngineConfig, PolyMode};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "AB-1: widening-threshold ablation (higher_order corpus)"
    );
    let _ = writeln!(
        out,
        "{:>11} {:>7} {:>13} {:>10} {:>22}",
        "widen_depth", "passes", "memo entries", "widenings", "tail verdict (param 1)"
    );
    let src = corpus::HIGHER_ORDER.source;
    for depth in [1u32, 2, 4, 8, 24] {
        let a = analyze_source_with(
            src,
            PolyMode::SimplestInstance,
            EngineConfig {
                widen_depth: depth,
                ..Default::default()
            },
        )
        .expect("analysis");
        let tail = a.summary("tail").expect("tail").param(0).verdict;
        let _ = writeln!(
            out,
            "{:>11} {:>7} {:>13} {:>10} {:>22}",
            depth,
            a.stats.passes,
            a.stats.memo_entries,
            a.stats.widenings,
            tail.to_string()
        );
    }
    out
}

/// AB-2: polymorphism-handling ablation — the paper's route 1 (simplest
/// instance + Theorem 1 transfer) vs route 2 (full monomorphization):
/// analysis effort and function count.
pub fn table_ab2() -> String {
    use nml_escape::{analyze_source_with, EngineConfig, PolyMode};
    let mut out = String::new();
    let _ = writeln!(
        out,
        "AB-2: simplest-instance (route 1) vs monomorphization (route 2)"
    );
    let _ = writeln!(
        out,
        "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "workload", "fns(r1)", "fns(r2)", "passes(r1)", "passes(r2)", "memo(r1)", "memo(r2)"
    );
    for w in [
        corpus::PARTITION_SORT,
        corpus::MAP_PAIR,
        corpus::CONCAT,
        corpus::MERGE_SORT,
        corpus::HIGHER_ORDER,
    ] {
        let r1 = analyze_source_with(
            w.source,
            PolyMode::SimplestInstance,
            EngineConfig::default(),
        )
        .expect("route 1");
        let r2 = analyze_source_with(w.source, PolyMode::Monomorphize, EngineConfig::default())
            .expect("route 2");
        let _ = writeln!(
            out,
            "{:<16} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
            w.name,
            r1.summaries.len(),
            r2.summaries.len(),
            r1.stats.passes,
            r2.stats.passes,
            r1.stats.memo_entries,
            r2.stats.memo_entries
        );
    }
    let _ = writeln!(
        out,
        "(route 1 analyzes one copy per function; route 2 one per demanded instance —\n the paper's polymorphic-invariance theorem is what makes route 1 sufficient)"
    );
    out
}

/// Every table, concatenated (the `tables --all` output captured in
/// EXPERIMENTS.md).
pub fn all_tables() -> String {
    [
        table_a1(),
        table_f1(),
        table_a2(),
        table_i1(),
        table_p1(),
        table_r1(),
        table_r2(),
        table_r3(),
        table_fr1(),
        table_s1(),
        table_b0(),
        table_ab1(),
        table_ab2(),
    ]
    .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a1_table_all_match() {
        let t = table_a1();
        assert!(!t.contains(" NO"), "paper mismatch:\n{t}");
        assert_eq!(t.matches("yes").count(), 7);
    }

    #[test]
    fn a2_table_values() {
        let t = table_a2();
        assert!(t.contains("ps"), "{t}");
        assert!(!t.contains(" NO"), "{t}");
    }

    #[test]
    fn i1_table_properties_hold() {
        let t = table_i1();
        assert!(t.contains("top spine retained: true"), "{t}");
        assert!(t.contains("top 2 of 2 spines retained"), "{t}");
    }

    #[test]
    fn p1_table_transfer_matches() {
        let t = table_p1();
        assert!(!t.contains(" NO"), "{t}");
    }

    #[test]
    fn s1_table_is_sound() {
        let t = table_s1();
        assert!(!t.contains(" NO"), "unsound row:\n{t}");
        assert!(t.contains("all must be sound"));
    }

    #[test]
    fn r2_table_shows_zero_alloc_reuse_for_rev() {
        let t = table_r2();
        // rev's reuse rows must show 0 allocations.
        for line in t.lines().filter(|l| l.starts_with("rev ")) {
            let cols: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(cols[3], "0", "reuse allocations nonzero: {line}");
        }
    }
}
