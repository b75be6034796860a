//! B-1: cost of the escape analysis itself (the paper's §7 concern:
//! "the computational complexity of finding fixpoints of higher order
//! functions"). One criterion group per corpus program, measuring the
//! full parse → infer → fixpoint-analysis pipeline, plus a group for
//! analysis-only on a pre-parsed program.

use criterion::{criterion_group, criterion_main, Criterion};
use nml_escape::{
    analyze_program_whole_program, analyze_source, analyze_source_scheduled, global_escape, Budget,
    Engine, EngineConfig, PolyMode, ScheduleOptions,
};
use nml_escape_analysis::corpus;
use nml_syntax::{parse_program, Symbol};
use nml_types::infer_program;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_full_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("analyze_source");
    for w in corpus::ALL {
        g.bench_function(w.name, |b| {
            b.iter(|| black_box(analyze_source(black_box(w.source)).expect("analysis")))
        });
    }
    g.finish();
}

fn bench_fixpoint_only(c: &mut Criterion) {
    let mut g = c.benchmark_group("fixpoint_only");
    for w in [corpus::PARTITION_SORT, corpus::MAP_PAIR, corpus::MERGE_SORT] {
        let program = parse_program(w.source).expect("parse");
        let info = infer_program(&program).expect("infer");
        g.bench_function(w.name, |b| {
            b.iter(|| {
                let mut en = Engine::new(&program, &info);
                for f in w.functions {
                    black_box(global_escape(&mut en, Symbol::intern(f)).expect("test"));
                }
            })
        });
    }
    g.finish();
}

fn bench_front_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("front_end");
    let src = corpus::PARTITION_SORT.source;
    g.bench_function("parse", |b| {
        b.iter(|| black_box(parse_program(black_box(src)).expect("parse")))
    });
    let parsed = parse_program(src).expect("parse");
    g.bench_function("infer", |b| {
        b.iter(|| black_box(infer_program(black_box(&parsed)).expect("infer")))
    });
    g.finish();
}

/// A program of `n` mutually independent self-recursive functions — the
/// best case for parallel scheduling (no SCC waits on another).
fn wide_program(n: usize) -> String {
    let mut src = String::from("letrec\n");
    for i in 0..n {
        let _ = writeln!(
            src,
            "  f{i} l = if (null l) then nil else cons (car l) (f{i} (cdr l)){}",
            if i + 1 < n { ";" } else { "" }
        );
    }
    src.push_str("in f0 [1, 2, 3]");
    src
}

/// Medians a closure over 3 warm-up + 9 timed runs.
fn median_of<F: FnMut()>(mut f: F) -> Duration {
    for _ in 0..3 {
        f();
    }
    let mut samples: Vec<Duration> = (0..9)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed()
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// B-5: whole-program vs SCC-scheduled analysis (serial and `--jobs 4`,
/// cold and warm summary cache), on the corpus and on a wide synthetic
/// program. Besides the stdout lines, the medians are written to
/// `BENCH_analysis.json` at the workspace root so the perf trajectory of
/// the scheduler is diffable across commits.
fn bench_schedulers(_c: &mut Criterion) {
    let wide = wide_program(24);
    let workloads: Vec<(&str, &str)> = vec![
        ("partition_sort", corpus::PARTITION_SORT.source),
        ("merge_sort", corpus::MERGE_SORT.source),
        ("map_pair", corpus::MAP_PAIR.source),
        ("wide24", &wide),
    ];
    let cache_path = std::env::temp_dir().join(format!("nml-bench-cache-{}", std::process::id()));
    let scheduled = |src: &str, options: &ScheduleOptions| {
        black_box(
            analyze_source_scheduled(
                black_box(src),
                PolyMode::SimplestInstance,
                EngineConfig::default(),
                Budget::unlimited(),
                options,
            )
            .expect("analysis"),
        )
    };
    let mut json = String::from("{\n");
    println!("group schedulers");
    for (wi, (name, src)) in workloads.iter().enumerate() {
        let serial = ScheduleOptions::default();
        let jobs4 = ScheduleOptions {
            jobs: 4,
            ..ScheduleOptions::default()
        };
        let cached = ScheduleOptions {
            summary_cache: Some(cache_path.clone()),
            ..ScheduleOptions::default()
        };
        let whole = median_of(|| {
            let program = parse_program(src).expect("parse");
            let info = infer_program(&program).expect("infer");
            black_box(
                analyze_program_whole_program(
                    program,
                    info,
                    EngineConfig::default(),
                    Budget::unlimited(),
                )
                .expect("analysis"),
            );
        });
        let scc_serial = median_of(|| {
            scheduled(src, &serial);
        });
        let scc_jobs4 = median_of(|| {
            scheduled(src, &jobs4);
        });
        let cold_cache = median_of(|| {
            let _ = std::fs::remove_file(&cache_path);
            scheduled(src, &cached);
        });
        // One priming run, then every timed run is a pure hit.
        let _ = std::fs::remove_file(&cache_path);
        scheduled(src, &cached);
        let warm_cache = median_of(|| {
            let a = scheduled(src, &cached);
            assert_eq!(a.schedule.sccs_solved, 0, "{name}: warm run must hit");
        });
        let _ = std::fs::remove_file(&cache_path);
        let modes = [
            ("whole_program", whole),
            ("scc_serial", scc_serial),
            ("scc_jobs4", scc_jobs4),
            ("scc_cold_cache", cold_cache),
            ("scc_warm_cache", warm_cache),
        ];
        let _ = writeln!(json, "  \"{name}\": {{");
        for (mi, (mode, t)) in modes.iter().enumerate() {
            println!("bench schedulers/{name}/{mode}: median {t:?} over 9 samples");
            let _ = writeln!(
                json,
                "    \"{mode}_ns\": {}{}",
                t.as_nanos(),
                if mi + 1 < modes.len() { "," } else { "" }
            );
        }
        let _ = writeln!(
            json,
            "  }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: cannot write {out}: {e}");
    } else {
        println!("wrote {out}");
    }
}

/// B-7: scaling on the mega corpus — 2000 generated functions in mixed
/// clusters, the workload `--jobs` exists for. Measures analysis-only
/// (parse/infer hoisted out) serial vs 4 workers, plus the incremental
/// session: cold start, then a warm single-binding re-analysis, which
/// must re-solve only the edited cluster's dirty cone and come in under
/// a millisecond. Medians land in the `scaling` key of
/// `BENCH_analysis.json`, with the host core count recorded so the
/// parallel numbers are interpretable: on a single-core host jobs4 can
/// only tie (and the guard merely requires it not to lose badly); with
/// ≥ 2 cores it must win outright.
fn bench_scaling(_c: &mut Criterion) {
    use nml_corpusgen::{generate, parse_shape};
    use nml_escape::{analyze_program_scheduled, Incremental};

    let shape = parse_shape("mega").expect("shape");
    let corpus = generate(0, &shape);
    let src = corpus.source();
    let program = parse_program(&src).expect("parse");
    let info = infer_program(&program).expect("infer");
    let host_cores = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);

    let analyze = |jobs: usize| {
        let options = ScheduleOptions {
            jobs,
            ..ScheduleOptions::default()
        };
        black_box(
            analyze_program_scheduled(
                program.clone(),
                info.clone(),
                EngineConfig::default(),
                Budget::unlimited(),
                &options,
            )
            .expect("analysis"),
        )
    };
    println!(
        "group scaling ({} functions, {host_cores} cores)",
        shape.functions
    );
    let serial = median_of(|| {
        analyze(1);
    });
    let jobs4 = median_of(|| {
        analyze(4);
    });
    println!("bench scaling/mega2000/serial: median {serial:?} over 9 samples");
    println!("bench scaling/mega2000/jobs4: median {jobs4:?} over 9 samples");
    if host_cores >= 2 {
        assert!(
            jobs4 < serial,
            "with {host_cores} cores, jobs4 ({jobs4:?}) must beat serial ({serial:?})"
        );
    } else {
        assert!(
            jobs4 <= serial * 3 / 2,
            "on one core, jobs4 ({jobs4:?}) must not lose badly to serial ({serial:?})"
        );
    }

    // Incremental: cold session build, then warm single-binding updates.
    // Alternate between two RHS texts for one binding so every timed
    // update really dirties its cone (a repeat of the same text would
    // short-circuit on the content hash and re-solve nothing).
    let cold_start = Instant::now();
    let mut inc = Incremental::from_source(&src).expect("cold incremental");
    let cold = cold_start.elapsed();
    let m = corpus.mutate(0xbead);
    let original = corpus.bindings[m.index].rhs.clone();
    let mut flip = false;
    let warm = median_of(|| {
        flip = !flip;
        let rhs = if flip { &m.rhs } else { &original };
        let a = inc.update_binding(&m.name, rhs).expect("warm update");
        assert!(a.schedule.sccs_solved >= 1, "update must dirty its cone");
        black_box(a.schedule.sccs_solved);
    });
    let solved = inc.analysis().schedule.sccs_solved;
    let reused = inc.analysis().schedule.sccs_reused;
    println!("bench scaling/mega2000/incremental_cold: {cold:?}");
    println!(
        "bench scaling/mega2000/incremental_warm: median {warm:?} over 9 samples \
         ({solved} solved, {reused} reused)"
    );
    assert!(
        warm < Duration::from_millis(1),
        "warm single-binding re-analysis must stay under 1ms, got {warm:?}"
    );

    // Splice a `scaling` section into BENCH_analysis.json (written just
    // before by `bench_schedulers`), keeping one diffable file per group.
    let section = format!(
        "  \"scaling\": {{\n    \"host_cores\": {host_cores},\n    \"functions\": {},\n    \
         \"serial_ns\": {},\n    \"jobs4_ns\": {},\n    \"incremental_cold_ns\": {},\n    \
         \"incremental_warm_ns\": {},\n    \"warm_sccs_solved\": {solved},\n    \
         \"warm_sccs_reused\": {reused}\n  }}\n}}\n",
        shape.functions,
        serial.as_nanos(),
        jobs4.as_nanos(),
        cold.as_nanos(),
        warm.as_nanos()
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    match std::fs::read_to_string(out) {
        Ok(existing) => {
            // Drop any previous scaling section, then strip the closing
            // brace so the fresh section can take its place.
            let head = match existing.find("  \"scaling\":") {
                Some(pos) => &existing[..pos],
                None => existing.trim_end().strip_suffix('}').unwrap_or("{\n"),
            };
            let combined = format!("{},\n{section}", head.trim_end().trim_end_matches(','));
            if let Err(e) = std::fs::write(out, &combined) {
                eprintln!("warning: cannot write {out}: {e}");
            } else {
                println!("updated {out} with the scaling section");
            }
        }
        Err(e) => eprintln!("warning: cannot read {out}: {e}"),
    }
}

/// B-6: runtime overhead of checked-optimization mode — the optimized
/// program under a plain heap vs under the tombstoning sentinel heap.
/// Medians land in `BENCH_checked.json` next to `BENCH_analysis.json`,
/// together with the tombstone volume each workload generates, so the
/// cost of `--checked` is diffable across commits.
fn bench_checked_overhead(_c: &mut Criterion) {
    use nml_escape_analysis::pipeline::{run, CompileOptions, OptOptions};
    use nml_escape_analysis::runtime::{Engine, HeapConfig, InterpConfig};
    let workloads: Vec<(&str, &str)> = vec![
        ("partition_sort", corpus::PARTITION_SORT.source),
        ("merge_sort", corpus::MERGE_SORT.source),
        ("map_pair", corpus::MAP_PAIR.source),
    ];
    let checked_config = || InterpConfig {
        heap: HeapConfig {
            checked: true,
            ..HeapConfig::default()
        },
        ..InterpConfig::default()
    };
    let mut json = String::from("{\n");
    println!("group checked_overhead");
    for (wi, (name, src)) in workloads.iter().enumerate() {
        let compiled = nml_bench::runner::build_with(
            src,
            &CompileOptions {
                opt: OptOptions::default(),
                ..CompileOptions::default()
            },
        );
        let tree = |config| run(&compiled.ir, config, Engine::Tree);
        let plain = median_of(|| {
            black_box(tree(InterpConfig::default()).expect("plain run"));
        });
        let checked = median_of(|| {
            black_box(tree(checked_config()).expect("checked run"));
        });
        let probe = tree(checked_config()).expect("checked run");
        let tombstoned = probe.stats.tombstoned;
        let reuse_copies = probe.stats.reuse_copies;
        println!(
            "bench checked_overhead/{name}: plain {plain:?} checked {checked:?} \
             (tombstoned={tombstoned} reuse-copies={reuse_copies})"
        );
        let _ = writeln!(json, "  \"{name}\": {{");
        let _ = writeln!(json, "    \"optimized_ns\": {},", plain.as_nanos());
        let _ = writeln!(
            json,
            "    \"optimized_checked_ns\": {},",
            checked.as_nanos()
        );
        let _ = writeln!(json, "    \"tombstoned\": {tombstoned},");
        let _ = writeln!(json, "    \"reuse_copies\": {reuse_copies}");
        let _ = writeln!(
            json,
            "  }}{}",
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    json.push_str("}\n");
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_checked.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("warning: cannot write {out}: {e}");
    } else {
        println!("wrote {out}");
    }
}

criterion_group!(
    benches,
    bench_full_pipeline,
    bench_fixpoint_only,
    bench_front_end,
    bench_schedulers,
    bench_scaling,
    bench_checked_overhead
);
criterion_main!(benches);
