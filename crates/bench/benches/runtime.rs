//! T-R2 as wall-clock: baseline vs DCONS-reuse interpretation of the
//! paper's transformed functions (`REV'`, `PS''`), and T-R1 as
//! wall-clock: heap vs stack allocation for literal arguments.
//!
//! Absolute times are ours, not the paper's (they had no implementation);
//! the *shape* — reuse wins, and wins more as n grows — is the claim
//! under test.
//!
//! B-7 (`bench_engine_comparison`): the bytecode VM against the
//! tree-walking interpreter on scaled-up corpus workloads. Medians land
//! in `BENCH_runtime.json` at the workspace root, and the run fails if
//! the VM's geometric-mean speedup drops below 3x — the engine's reason
//! to exist, enforced on every bench run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nml_bench::runner::{
    build, build_ps, build_rev, build_stack_variant, create_consume_source,
    repeated_consume_source, sum_literal_source,
};
use nml_runtime::{Interp, InterpConfig, RuntimeStats, Value, Vm};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_rev_vs_rev_r(c: &mut Criterion) {
    let (b, rev, rev_r) = build_rev();
    let mut g = c.benchmark_group("reverse");
    for n in [64usize, 256] {
        let input: Vec<i64> = (0..n as i64).collect();
        for (label, func) in [("baseline", rev), ("dcons", rev_r)] {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| {
                    let mut interp = Interp::new(&b.ir).expect("interp");
                    let l = interp.make_int_list(&input);
                    black_box(interp.call(func, vec![l]).expect("call"))
                })
            });
        }
    }
    g.finish();
}

fn bench_ps_vs_ps_r(c: &mut Criterion) {
    let (b, ps, ps_r) = build_ps();
    let mut g = c.benchmark_group("partition_sort");
    for n in [64usize, 256] {
        let input: Vec<i64> = (0..n as i64).map(|i| (i * 7919) % 1000).collect();
        for (label, func) in [("baseline", ps), ("dcons", ps_r)] {
            g.bench_with_input(BenchmarkId::new(label, n), &n, |bench, _| {
                bench.iter(|| {
                    let mut interp = Interp::new(&b.ir).expect("interp");
                    let l = interp.make_int_list(&input);
                    black_box(interp.call(func, vec![l]).expect("call"))
                })
            });
        }
    }
    g.finish();
}

fn bench_stack_alloc(c: &mut Criterion) {
    let mut g = c.benchmark_group("sum_literal");
    for n in [256usize, 1024] {
        let base = build(&sum_literal_source(n));
        let stacked = build_stack_variant(n);
        g.bench_with_input(BenchmarkId::new("heap", n), &n, |bench, _| {
            bench.iter(|| {
                let mut interp =
                    Interp::with_config(&base.ir, InterpConfig::default()).expect("interp");
                black_box(interp.run().expect("run"))
            })
        });
        g.bench_with_input(BenchmarkId::new("stack", n), &n, |bench, _| {
            bench.iter(|| {
                let mut interp =
                    Interp::with_config(&stacked.ir, InterpConfig::default()).expect("interp");
                black_box(interp.run().expect("run"))
            })
        });
    }
    g.finish();
}

/// The corpus workloads scaled to interpretation-dominated sizes. Every
/// main body reduces to an integer so the engines' results can be
/// compared directly, without heap traversal.
fn engine_workloads() -> Vec<(&'static str, String)> {
    vec![
        (
            "naive_reverse",
            "letrec
               append x y = if (null x) then y else cons (car x) (append (cdr x) y);
               rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
               mklist n = if n = 0 then nil else cons n (mklist (n - 1));
               sum l = if (null l) then 0 else (car l) + sum (cdr l)
             in sum (rev (mklist 120))"
                .to_owned(),
        ),
        (
            "partition_sort",
            "letrec
               append x y = if (null x) then y else cons (car x) (append (cdr x) y);
               split p x l h =
                 if (null x) then (cons l (cons h nil))
                 else if (car x) < p
                      then split p (cdr x) (cons (car x) l) h
                      else split p (cdr x) l (cons (car x) h);
               ps x = if (null x) then nil
                      else append (ps (car (split (car x) (cdr x) nil nil)))
                                  (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))));
               mklist n = if n = 0 then nil else cons n (mklist (n - 1));
               sum l = if (null l) then 0 else (car l) + sum (cdr l)
             in sum (ps (mklist 90))"
                .to_owned(),
        ),
        (
            "map_pair",
            "letrec
               pair x = cons (car x) (cons (car (cdr x)) nil);
               map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));
               mkpairs n = if n = 0 then nil
                           else cons (cons n (cons (n + 1) nil)) (mkpairs (n - 1));
               sumheads l = if (null l) then 0 else (car (car l)) + sumheads (cdr l)
             in sumheads (map pair (mkpairs 600))"
                .to_owned(),
        ),
        ("create_consume", create_consume_source(3000)),
        ("repeated_consume", repeated_consume_source(64, 250)),
        // SROA-friendly shapes: a short-lived tuple (spelled as cons
        // cells) built and immediately projected every iteration. The
        // outer cell of each tuple never escapes and is never aliased,
        // so the escape lattice licenses scalar replacement and the VM
        // runs the loop without allocating it.
        ("tuple_accumulate", tuple_accumulate_source(3000)),
        ("pair_product", pair_product_source(2500)),
    ]
}

/// A fold whose step builds a local `(i, acc)` tuple and tears it apart
/// in the same expression — the canonical scalar-replacement target.
fn tuple_accumulate_source(n: usize) -> String {
    format!(
        "letrec
           step i acc = letrec t = cons i (cons acc nil)
                        in (car t) * 2 + car (cdr t);
           loop n acc = if n = 0 then acc else loop (n - 1) (step n acc)
         in loop {n} 0"
    )
}

/// A product-of-pairs loop: each iteration's pair is projected twice and
/// dies immediately.
fn pair_product_source(n: usize) -> String {
    format!(
        "letrec
           dot n acc = if n = 0 then acc
                       else letrec p = cons (n * 3) (cons (n + 7) nil)
                            in dot (n - 1) (acc + (car p) * car (cdr p))
         in dot {n} 0"
    )
}

/// Renders the generational-GC counters of a finished run as a JSON
/// object body (no braces).
fn gc_counters(stats: &RuntimeStats) -> String {
    format!(
        "\"minor_gcs\": {}, \"major_gcs\": {}, \"promoted\": {}, \
         \"pretenured\": {}, \"nursery_fallbacks\": {}, \"allocs_elided\": {}",
        stats.minor_gcs,
        stats.major_gcs,
        stats.promoted,
        stats.pretenured,
        stats.nursery_fallbacks,
        stats.allocs_elided
    )
}

/// Minimum wall time per contestant over 9 *interleaved* sampling
/// rounds (3 warmups each first). Interleaving exposes every contestant
/// to the same load profile, so a transient spike cannot skew one side
/// of a ratio the way back-to-back phases can.
fn interleaved_mins(fs: &mut [&mut dyn FnMut()]) -> Vec<Duration> {
    for f in fs.iter_mut() {
        for _ in 0..3 {
            f();
        }
    }
    let mut mins = vec![Duration::MAX; fs.len()];
    for _ in 0..9 {
        for (i, f) in fs.iter_mut().enumerate() {
            let start = Instant::now();
            f();
            let d = start.elapsed();
            if d < mins[i] {
                mins[i] = d;
            }
        }
    }
    mins
}

/// Runs `ir` once on the VM under `config` and returns the run's stats.
fn vm_stats(ir: &nml_bench::runner::Built, config: &InterpConfig) -> RuntimeStats {
    let mut vm = Vm::with_config(&ir.ir, config.clone()).expect("vm");
    black_box(vm.run().expect("vm run"));
    vm.heap.stats
}

/// The generational-heap benchmark: a churn loop allocating short-lived
/// lists while a large list stays live across the whole run. Minor
/// collections never traverse the live list (it is old after one
/// promotion, and old cells are cut points), and the optimized build
/// pretenures it so it never even costs a promotion.
fn gen_heap_workload() -> String {
    // The big list is the program result, so `mklist`'s cells provably
    // escape (pretenure target); the temporaries are consed inline and
    // only null-tested by `keep`'s provably-local parameter, so they
    // stay nursery-allocated (and the stack pass may region them).
    "letrec
       mklist n = if n = 0 then nil else cons n (mklist (n - 1));
       keep t big = if (null t) then big else big;
       churn k big = if k = 0 then big
                     else churn (k - 1) (keep (cons k (cons k (cons k nil))) big)
     in churn 12000 (mklist 2000)"
        .to_owned()
}

/// Benchmarks the churn workload on the generational heap, plain and
/// with the full pass manager (escape-informed pretenuring), and
/// returns the `"gen_heap"` JSON section.
fn bench_gen_heap_section() -> String {
    let src = gen_heap_workload();
    let plain = build(&src);
    let optimized = nml_bench::runner::build_with(
        &src,
        &nml_opt::CompileOptions {
            opt: nml_opt::OptOptions::default(),
            ..nml_opt::CompileOptions::default()
        },
    );
    let cfg = InterpConfig::default();
    let mins = interleaved_mins(&mut [
        &mut || {
            let mut vm = Vm::with_config(&plain.ir, cfg.clone()).expect("vm");
            black_box(vm.run().expect("vm run"));
        },
        &mut || {
            let mut vm = Vm::with_config(&optimized.ir, cfg.clone()).expect("vm");
            black_box(vm.run().expect("vm run"));
        },
    ]);
    let (gen_t, pre_t) = (mins[0], mins[1]);
    let gen_s = vm_stats(&plain, &cfg);
    let pre_s = vm_stats(&optimized, &cfg);
    assert!(gen_s.minor_gcs > 0, "gen heap must exercise minor GCs");
    assert!(
        pre_s.pretenured > 0,
        "optimized build must route escaping sites old"
    );
    println!("bench gen_heap/churn_with_live_set: gen {gen_t:?} gen+pretenure {pre_t:?}");
    let mut s = String::from("  \"gen_heap\": {\n");
    let _ = writeln!(s, "    \"workload\": \"churn_with_live_set\",");
    let _ = writeln!(
        s,
        "    \"gen\": {{ \"ns\": {}, {} }},",
        gen_t.as_nanos(),
        gc_counters(&gen_s)
    );
    let _ = writeln!(
        s,
        "    \"gen_pretenured\": {{ \"ns\": {}, {} }}",
        pre_t.as_nanos(),
        gc_counters(&pre_s)
    );
    s.push_str("  },\n");
    s
}

/// The scalar-replacement section: the VM on the same workload with and
/// without SROA marks. The counters prove the allocations actually
/// vanished (not merely got cheaper), and the timings price the win.
fn bench_sroa_section() -> String {
    let workloads = [
        ("tuple_accumulate", tuple_accumulate_source(3000)),
        ("pair_product", pair_product_source(2500)),
    ];
    let mut s = String::from("  \"sroa\": {\n");
    for (wi, (name, src)) in workloads.iter().enumerate() {
        let plain = build(src);
        let mut elided = build(src);
        let marked = nml_opt::annotate_sroa(&mut elided.ir, &elided.analysis);
        assert!(marked > 0, "{name}: the lattice must license elision");
        let mins = interleaved_mins(&mut [
            &mut || {
                let mut vm = Vm::with_config(&plain.ir, InterpConfig::default()).expect("vm");
                black_box(vm.run().expect("vm run"));
            },
            &mut || {
                let mut vm = Vm::with_config(&elided.ir, InterpConfig::default()).expect("vm");
                black_box(vm.run().expect("vm run"));
            },
        ]);
        let (off_t, on_t) = (mins[0], mins[1]);
        let off_s = vm_stats(&plain, &InterpConfig::default());
        let on_s = vm_stats(&elided, &InterpConfig::default());
        assert_eq!(off_s.allocs_elided, 0, "{name}: unmarked IR never elides");
        assert!(on_s.allocs_elided > 0, "{name}: VM must elide marked sites");
        assert!(
            on_s.heap_allocs < off_s.heap_allocs,
            "{name}: elision must reduce real heap allocations"
        );
        let speedup = off_t.as_nanos() as f64 / on_t.as_nanos().max(1) as f64;
        println!(
            "bench sroa/{name}: off {off_t:?} on {on_t:?} ({speedup:.2}x, \
             {} cells elided)",
            on_s.allocs_elided
        );
        let _ = writeln!(s, "    \"{name}\": {{");
        let _ = writeln!(s, "      \"vm_ns\": {},", off_t.as_nanos());
        let _ = writeln!(s, "      \"vm_sroa_ns\": {},", on_t.as_nanos());
        let _ = writeln!(s, "      \"speedup\": {speedup:.3},");
        let _ = writeln!(s, "      \"gc\": {{ {} }}", gc_counters(&on_s));
        let _ = writeln!(
            s,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    s.push_str("  },\n");
    s
}

/// B-7: tree-walking interpreter vs bytecode VM on the scaled corpus.
/// Each engine runs the *same* lowered IR under the default
/// configuration; the medians, per-workload GC counters, the
/// generational-heap section, and the geometric-mean speedup are
/// written to `BENCH_runtime.json`, and the run fails below the 3x
/// floor.
fn bench_engine_comparison(_c: &mut Criterion) {
    let workloads = engine_workloads();
    let mut json = String::from("{\n  \"engine_comparison\": {\n");
    let mut log_speedups: Vec<f64> = Vec::new();
    println!("group engine_comparison");
    for (wi, (name, src)) in workloads.iter().enumerate() {
        let mut b = build(src);
        // Mirror the CLI default for the VM: SROA marks ride the shared
        // IR. The tree-walker treats a mark as plain heap (it stays the
        // oracle), only the VM scalarizes — the correctness guard below
        // therefore also exercises the elision.
        nml_opt::annotate_sroa(&mut b.ir, &b.analysis);
        // Correctness guard: both engines must produce the same integer
        // before their timings are comparable at all.
        let tree_val = Interp::with_config(&b.ir, InterpConfig::default())
            .expect("interp")
            .run()
            .expect("tree run");
        let vm_val = Vm::with_config(&b.ir, InterpConfig::default())
            .expect("vm")
            .run()
            .expect("vm run");
        match (&tree_val, &vm_val) {
            (Value::Int(a), Value::Int(b)) if a == b => {}
            _ => panic!("{name}: engines disagree: tree={tree_val:?} vm={vm_val:?}"),
        }
        let mins = interleaved_mins(&mut [
            &mut || {
                let mut interp =
                    Interp::with_config(&b.ir, InterpConfig::default()).expect("interp");
                black_box(interp.run().expect("tree run"));
            },
            &mut || {
                let mut vm = Vm::with_config(&b.ir, InterpConfig::default()).expect("vm");
                black_box(vm.run().expect("vm run"));
            },
        ]);
        let (tree, vm) = (mins[0], mins[1]);
        let gc = vm_stats(&b, &InterpConfig::default());
        let speedup = tree.as_nanos() as f64 / vm.as_nanos().max(1) as f64;
        log_speedups.push(speedup.ln());
        println!("bench engine_comparison/{name}: tree {tree:?} vm {vm:?} speedup {speedup:.2}x");
        let _ = writeln!(json, "    \"{name}\": {{");
        let _ = writeln!(json, "      \"tree_ns\": {},", tree.as_nanos());
        let _ = writeln!(json, "      \"vm_ns\": {},", vm.as_nanos());
        let _ = writeln!(json, "      \"speedup\": {speedup:.3},");
        let _ = writeln!(json, "      \"gc\": {{ {} }}", gc_counters(&gc));
        let _ = writeln!(
            json,
            "    }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    let geomean = (log_speedups.iter().sum::<f64>() / log_speedups.len() as f64).exp();
    json.push_str("  },\n");
    json.push_str(&bench_gen_heap_section());
    json.push_str(&bench_sroa_section());
    let _ = writeln!(json, "  \"geomean_speedup\": {geomean:.3}");
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_runtime.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: cannot write {out}: {e}");
    } else {
        println!("wrote {out}");
    }
    println!("bench engine_comparison/geomean: {geomean:.2}x");
    assert!(
        geomean >= 3.0,
        "VM speedup regressed: geometric mean {geomean:.2}x is below the 3x floor"
    );
}

criterion_group!(
    benches,
    bench_rev_vs_rev_r,
    bench_ps_vs_ps_r,
    bench_stack_alloc,
    bench_engine_comparison
);
criterion_main!(benches);
