//! Whole-pipeline integration over the corpus: every workload parses,
//! pretty-print round-trips, type-checks, analyzes, monomorphizes,
//! lowers, and runs — and the monomorphized program computes the same
//! value as the original.

use nml_escape_analysis::corpus;
use nml_escape_analysis::escape::analyze_source;
use nml_escape_analysis::escape::AnalyzeError;
use nml_escape_analysis::opt::lower_program;
use nml_escape_analysis::opt::IrProgram;
use nml_escape_analysis::pipeline::{
    compile, render_value, run, CompileOptions, Compiled, OptOptions, PipelineError, QuarantineSet,
    RunOutcome,
};
use nml_escape_analysis::runtime::{Engine, HeapConfig, Interp, InterpConfig};
use nml_escape_analysis::syntax::{parse_program, pretty_program};
use nml_escape_analysis::types::{infer_and_monomorphize, infer_program};

/// Compiles `src` with the given pass set (no budget, serial).
fn compile_with(src: &str, opt: OptOptions) -> Result<Compiled, AnalyzeError> {
    let opts = CompileOptions {
        opt,
        ..CompileOptions::default()
    };
    compile(src, &opts, &QuarantineSet::new())
}

/// Runs on the tree-walking oracle.
fn tree(ir: &IrProgram, config: InterpConfig) -> Result<RunOutcome, PipelineError> {
    run(ir, config, Engine::Tree)
}

#[test]
fn corpus_parses_and_types() {
    for w in corpus::ALL {
        let p =
            parse_program(w.source).unwrap_or_else(|e| panic!("{} does not parse: {e}", w.name));
        let info = infer_program(&p).unwrap_or_else(|e| panic!("{} does not type: {e}", w.name));
        for f in w.functions {
            assert!(
                info.top_sigs
                    .contains_key(&nml_escape_analysis::syntax::Symbol::intern(f)),
                "{}: function {f} missing",
                w.name
            );
        }
    }
}

#[test]
fn corpus_pretty_print_roundtrips() {
    for w in corpus::ALL {
        let p1 = parse_program(w.source).expect("parse");
        let printed = pretty_program(&p1);
        let p2 = parse_program(&printed)
            .unwrap_or_else(|e| panic!("{}: reparse failed: {e}\n{printed}", w.name));
        assert_eq!(
            p1.bindings.len(),
            p2.bindings.len(),
            "{}: binding count changed",
            w.name
        );
        // The round-tripped program must type-check to the same
        // signatures.
        let i1 = infer_program(&p1).expect("infer 1");
        let i2 = infer_program(&p2).expect("infer 2");
        for (name, sig) in &i1.top_sigs {
            assert_eq!(
                Some(sig),
                i2.top_sigs.get(name),
                "{}: signature of {name} changed after round trip",
                w.name
            );
        }
    }
}

#[test]
fn corpus_analyzes_with_summaries_for_all_functions() {
    for w in corpus::ALL {
        let a =
            analyze_source(w.source).unwrap_or_else(|e| panic!("{} does not analyze: {e}", w.name));
        for f in w.functions {
            assert!(
                a.summary(f).is_some(),
                "{}: no escape summary for {f}",
                w.name
            );
        }
    }
}

#[test]
fn corpus_runs_to_a_value() {
    for w in corpus::ALL {
        let c = compile_with(w.source, OptOptions::none())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let out = tree(&c.ir, InterpConfig::default())
            .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name));
        assert!(!out.result.is_empty(), "{}: empty result", w.name);
    }
}

#[test]
fn monomorphized_corpus_computes_identical_results() {
    for w in corpus::ALL {
        let p = parse_program(w.source).expect("parse");
        let info = infer_program(&p).expect("infer");
        let base_ir = lower_program(&p, &info);
        let mut base = Interp::new(&base_ir).expect("interp");
        let base_v = base.run().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let base_text = render_value(&base.heap, &base_v).expect("render");

        let mono = infer_and_monomorphize(&p).expect("mono");
        let mono_ir = lower_program(&mono.program, &mono.info);
        let mut m = Interp::new(&mono_ir).expect("interp");
        let mono_v = m.run().unwrap_or_else(|e| panic!("{} (mono): {e}", w.name));
        let mono_text = render_value(&m.heap, &mono_v).expect("render");

        assert_eq!(
            base_text, mono_text,
            "{}: monomorphization changed the result",
            w.name
        );
    }
}

#[test]
fn corpus_runs_under_gc_pressure() {
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let c = compile_with(w.source, OptOptions::none())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let base =
            tree(&c.ir, InterpConfig::default()).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let stressed = tree(&c.ir, config.clone())
            .unwrap_or_else(|e| panic!("{} under GC pressure: {e}", w.name));
        assert_eq!(
            base.result, stressed.result,
            "{}: GC changed the program's result",
            w.name
        );
    }
}

#[test]
fn corpus_stack_allocation_never_changes_results() {
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let plain = compile_with(w.source, OptOptions::none()).unwrap();
        let base = tree(&plain.ir, InterpConfig::default()).unwrap();
        let stack_only = OptOptions {
            stack: true,
            ..OptOptions::none()
        };
        let stacked_ir = compile_with(w.source, stack_only).unwrap().ir;
        let stacked = tree(&stacked_ir, config.clone())
            .unwrap_or_else(|e| panic!("{} with stack allocation: {e}", w.name));
        assert_eq!(
            base.result, stacked.result,
            "{}: stack allocation changed the result",
            w.name
        );
    }
}

#[test]
fn corpus_full_optimization_never_changes_results() {
    // The whole pass manager (reuse → block → stack) over every workload,
    // under GC pressure with region validation: results must be
    // untouched.
    let config = InterpConfig {
        heap: HeapConfig {
            gc_threshold: 16,
            gc_enabled: true,
            checked: false,
            ..HeapConfig::default()
        },
        validate_regions: true,
        ..Default::default()
    };
    for w in corpus::ALL {
        let plain = compile_with(w.source, OptOptions::none()).unwrap();
        let base = tree(&plain.ir, InterpConfig::default()).unwrap();
        let optimized_ir = compile_with(w.source, OptOptions::default()).unwrap().ir;
        let optimized = tree(&optimized_ir, config.clone())
            .unwrap_or_else(|e| panic!("{} fully optimized: {e}", w.name));
        assert_eq!(
            base.result, optimized.result,
            "{}: the pass manager changed the result",
            w.name
        );
    }
}

#[test]
fn shipped_programs_run_under_every_nmlc_mode() {
    let exe = env!("CARGO_BIN_EXE_nmlc");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut count = 0;
    for entry in std::fs::read_dir(&dir).expect("programs dir exists") {
        let path = entry.expect("entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("nml") {
            continue;
        }
        count += 1;
        for mode in [
            vec!["check"],
            vec!["analyze"],
            vec!["analyze", "--report"],
            vec!["run"],
            vec!["run", "--stack-alloc"],
            vec!["run", "--auto-reuse"],
            vec!["run", "-O"],
        ] {
            let mut cmd = std::process::Command::new(exe);
            cmd.arg(mode[0]).arg(&path);
            for a in &mode[1..] {
                cmd.arg(a);
            }
            let out = cmd.output().expect("nmlc runs");
            assert!(
                out.status.success(),
                "nmlc {mode:?} {} failed:\n{}",
                path.display(),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    assert!(
        count >= 5,
        "expected the shipped .nml programs, found {count}"
    );
}

#[test]
fn nmlc_binary_smoke() {
    // Drive the driver end to end through a temp file.
    let dir = std::env::temp_dir();
    let path = dir.join("nmlc_smoke_test.nml");
    std::fs::write(
        &path,
        "letrec append x y = if (null x) then y
                             else cons (car x) (append (cdr x) y)
         in append [1] [2, 3]",
    )
    .expect("write temp file");
    let exe = env!("CARGO_BIN_EXE_nmlc");
    for (args, needle) in [
        (vec!["check"], "append : forall"),
        (vec!["fmt"], "append x y = if"),
        (vec!["analyze"], "G = <1,0>"),
        (vec!["analyze", "--report"], "optimization report"),
        (vec!["ir"], "(cons (car x)"),
        (vec!["run", "--stats"], "[1, 2, 3]"),
        (vec!["run", "--stack-alloc", "--stats"], "stack"),
        (vec!["run", "--auto-reuse", "--stats"], "dcons-reuse"),
        (vec!["run", "--profile"], "hottest allocation sites"),
    ] {
        let mut cmd = std::process::Command::new(exe);
        cmd.arg(args[0]).arg(&path);
        for a in &args[1..] {
            cmd.arg(a);
        }
        let out = cmd.output().expect("nmlc runs");
        assert!(out.status.success(), "nmlc {args:?} failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.contains(needle),
            "nmlc {args:?}: expected {needle:?} in output:\n{text}"
        );
    }
}

#[test]
fn nmlc_schedule_line_reports_a_warm_run_as_zero_batches() {
    // The schedule line (stderr) of a cold and then a fully warm
    // `--summary-cache` run: the warm run solves nothing, so it plans no
    // batches either, and `ir -O` prints the same bytes both times.
    let dir = std::env::temp_dir().join(format!("nmlc_schedule_line_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("p.nml");
    std::fs::write(
        &path,
        "letrec append x y = if (null x) then y else cons (car x) (append (cdr x) y);
                rev l = if (null l) then nil else append (rev (cdr l)) [car l]
         in rev [1, 2, 3]",
    )
    .expect("write temp file");
    let cache = format!("--summary-cache={}", dir.join("c.cache").display());
    let exe = env!("CARGO_BIN_EXE_nmlc");
    let nmlc = |args: &[&str]| {
        let out = std::process::Command::new(exe)
            .arg(args[0])
            .arg(&path)
            .args(&args[1..])
            .output()
            .expect("nmlc runs");
        assert!(out.status.success(), "nmlc {args:?} failed: {out:?}");
        out
    };
    let schedule = |out: &std::process::Output| {
        String::from_utf8_lossy(&out.stderr)
            .lines()
            .find(|l| l.starts_with("schedule: "))
            .expect("a schedule line")
            .to_string()
    };
    let plain_ir = nmlc(&["ir", "-O"]).stdout;
    let cold = nmlc(&["ir", "-O", &cache]);
    assert_eq!(cold.stdout, plain_ir, "cold cached ir -O");
    assert_eq!(
        schedule(&cold),
        "schedule: 2 SCCs in 2 batches, 2 solved, jobs=1, cache 0 hits / 2 misses"
    );
    let warm = nmlc(&["ir", "-O", &cache]);
    assert_eq!(warm.stdout, plain_ir, "warm cached ir -O");
    assert_eq!(
        schedule(&warm),
        "schedule: 2 SCCs in 0 batches, 0 solved, jobs=1, cache 2 hits / 0 misses"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nmlc_stats_count_pretenured_cells_only_with_generations() {
    // `mk`'s cons builds its result, so `-O` pretenures it. With
    // generations off every cell is old anyway: nothing is pretenured.
    let path = std::env::temp_dir().join("nmlc_pretenured_stats_test.nml");
    std::fs::write(
        &path,
        "letrec mk n = if n = 0 then nil else cons n (mk (n - 1)) in mk 5",
    )
    .expect("write temp file");
    let exe = env!("CARGO_BIN_EXE_nmlc");
    for (args, pretenured) in [
        (vec!["-O"], 5),
        (vec!["-O", "--gen-gc=on"], 5),
        (vec!["-O", "--gen-gc=off"], 0),
        (vec!["-O", "--gen-gc=off", "--engine=tree"], 0),
        (vec!["--gen-gc=on"], 0),
    ] {
        let out = std::process::Command::new(exe)
            .arg("run")
            .arg(&path)
            .args(&args)
            .arg("--stats")
            .output()
            .expect("nmlc runs");
        assert!(out.status.success(), "nmlc run {args:?} failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(
            text.starts_with("[5, 4, 3, 2, 1]\n"),
            "nmlc run {args:?}:\n{text}"
        );
        assert!(
            text.contains(&format!(" pretenured={pretenured} ")),
            "nmlc run {args:?}: expected pretenured={pretenured}:\n{text}"
        );
    }
}

#[test]
fn nmlc_sroa_pass_set_per_mode() {
    // `p` is a projected pair SROA elides under the VM. A checked run
    // narrowed by a single-pass flag checks only that pass; everything
    // else takes the VM's SROA default.
    let path = std::env::temp_dir().join("nmlc_sroa_pass_set_test.nml");
    std::fs::write(
        &path,
        "letrec f n = letrec p = cons n (cons 1 nil) in car p + car (cdr p)
         in f 3",
    )
    .expect("write temp file");
    let exe = env!("CARGO_BIN_EXE_nmlc");
    for (args, elided) in [
        (vec!["--stack-alloc"], 1),
        (vec!["--auto-reuse"], 1),
        (vec!["-O"], 1),
        (vec!["-O", "--engine=tree"], 0),
        (vec!["--checked"], 1),
        (vec!["--checked", "--stack-alloc"], 0),
        (vec!["--checked", "--auto-reuse"], 0),
        (vec!["--checked", "--stack-alloc", "--sroa"], 1),
        (vec!["--checked", "--no-sroa"], 0),
    ] {
        let out = std::process::Command::new(exe)
            .arg("run")
            .arg(&path)
            .args(&args)
            .arg("--stats")
            .output()
            .expect("nmlc runs");
        assert!(out.status.success(), "nmlc run {args:?} failed: {out:?}");
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("4\n"), "nmlc run {args:?}:\n{text}");
        assert!(
            text.contains(&format!(" elided={elided} ")),
            "nmlc run {args:?}: expected elided={elided}:\n{text}"
        );
    }
}
