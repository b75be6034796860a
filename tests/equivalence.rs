//! The SCC-modular scheduler must be *observationally identical* to the
//! legacy whole-program driver: same summaries, same sharing conclusions,
//! in serial and in parallel, cold and warm cache. The slot/memo
//! equations form a deterministic monotone system, so any engine that
//! materializes the keys a query reaches computes the same converged
//! values — these tests check that claim on the full corpus, on the
//! paper's Appendix A program, and on a generated-program sweep.

use nml_escape_analysis::corpus;
use nml_escape_analysis::escape::{
    analyze_program_whole_program, analyze_source_scheduled, unshared_from_summary, Analysis, Be,
    Budget, EngineConfig, EscapeSummary, PolyMode, ScheduleOptions,
};
use nml_escape_analysis::syntax::{parse_program, Symbol};
use nml_escape_analysis::types::infer_program;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// The legacy whole-program analysis (one engine, one global fixpoint).
fn whole_program(src: &str) -> Analysis {
    let program = parse_program(src).expect("parse");
    let info = infer_program(&program).expect("infer");
    analyze_program_whole_program(program, info, EngineConfig::default(), Budget::unlimited())
        .expect("whole-program analysis")
}

/// The SCC-modular analysis with explicit scheduling options.
fn scheduled(src: &str, options: &ScheduleOptions) -> Analysis {
    analyze_source_scheduled(
        src,
        PolyMode::SimplestInstance,
        EngineConfig::default(),
        Budget::unlimited(),
        options,
    )
    .expect("scheduled analysis")
}

/// The suite's default mode: serial, unless `NML_TEST_JOBS` asks for a
/// worker count (CI runs the whole suite once per mode).
fn serial() -> ScheduleOptions {
    let jobs = std::env::var("NML_TEST_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    ScheduleOptions {
        jobs,
        ..ScheduleOptions::default()
    }
}

fn jobs4() -> ScheduleOptions {
    ScheduleOptions {
        jobs: 4,
        ..ScheduleOptions::default()
    }
}

/// Asserts two analyses agree on every summary and every derived sharing
/// conclusion (Theorem 2's unshared-result-spine count).
fn assert_equivalent(label: &str, reference: &Analysis, candidate: &Analysis) {
    let r: &BTreeMap<Symbol, EscapeSummary> = &reference.summaries;
    let c: &BTreeMap<Symbol, EscapeSummary> = &candidate.summaries;
    assert_eq!(
        r.keys().collect::<Vec<_>>(),
        c.keys().collect::<Vec<_>>(),
        "{label}: summary key sets differ"
    );
    for (name, rs) in r {
        let cs = &c[name];
        assert_eq!(rs, cs, "{label}: summary of `{name}` differs");
        assert_eq!(
            unshared_from_summary(rs),
            unshared_from_summary(cs),
            "{label}: sharing conclusion for `{name}` differs"
        );
    }
}

/// Every corpus workload: whole-program ≡ SCC-serial ≡ SCC-parallel.
#[test]
fn corpus_scc_modular_matches_whole_program() {
    for w in corpus::ALL {
        let reference = whole_program(w.source);
        let ser = scheduled(w.source, &serial());
        let par = scheduled(w.source, &jobs4());
        assert_equivalent(&format!("{} (serial)", w.name), &reference, &ser);
        assert_equivalent(&format!("{} (jobs=4)", w.name), &reference, &par);
        assert!(
            ser.fully_precise() && par.fully_precise(),
            "{}: unlimited budget must not degrade",
            w.name
        );
        assert!(ser.schedule.scc_count >= 1, "{}", w.name);
        assert_eq!(par.schedule.jobs, 4, "{}", w.name);
    }
}

/// The paper's Appendix A.1 lattice values and A.2 sharing conclusions
/// hold under the modular scheduler, serial and parallel.
#[test]
fn appendix_a_holds_under_scheduling() {
    for options in [serial(), jobs4()] {
        let a = scheduled(corpus::PARTITION_SORT.source, &options);

        // A.1: G(APPEND, 1) = ⟨1,0⟩; G(APPEND, 2) = ⟨1,1⟩
        let append = a.summary("append").unwrap();
        assert_eq!(append.param(0).verdict, Be::escaping(0));
        assert_eq!(append.param(1).verdict, Be::escaping(1));

        // A.1: G(SPLIT, 1..4) = ⟨0,0⟩, ⟨1,0⟩, ⟨1,1⟩, ⟨1,1⟩
        let split = a.summary("split").unwrap();
        assert_eq!(split.param(0).verdict, Be::bottom());
        assert_eq!(split.param(1).verdict, Be::escaping(0));
        assert_eq!(split.param(2).verdict, Be::escaping(1));
        assert_eq!(split.param(3).verdict, Be::escaping(1));

        // A.1: G(PS, 1) = ⟨1,0⟩
        let ps = a.summary("ps").unwrap();
        assert_eq!(ps.param(0).verdict, Be::escaping(0));

        // A.2: the top result spine of PS and SPLIT is unshared.
        assert_eq!(unshared_from_summary(ps), 1);
        assert_eq!(unshared_from_summary(split), 1);

        // The schedule saw the real call-graph shape: one SCC each for
        // `append`, `split` and `ps`.
        assert_eq!(a.schedule.scc_count, 3);
        assert_eq!(a.schedule.sccs_solved, 3);
    }
}

/// A warm summary cache re-analyzes *zero* unchanged SCCs and reproduces
/// the cold run's summaries exactly.
#[test]
fn warm_cache_solves_nothing_and_agrees() {
    let dir = std::env::temp_dir().join(format!("nml-equiv-cache-{}", std::process::id()));
    for (i, w) in corpus::ALL.iter().enumerate() {
        let path = dir.join(format!("{i}.cache"));
        let with_cache = ScheduleOptions {
            summary_cache: Some(path.clone()),
            ..serial()
        };
        let cold = scheduled(w.source, &with_cache);
        assert!(cold.schedule.cache_errors.is_empty(), "{}", w.name);
        assert_eq!(
            cold.schedule.sccs_solved, cold.schedule.scc_count,
            "{}: cold run solves everything",
            w.name
        );
        let warm = scheduled(w.source, &with_cache);
        assert!(warm.schedule.cache_errors.is_empty(), "{}", w.name);
        assert_eq!(
            warm.schedule.sccs_solved, 0,
            "{}: warm run must re-analyze nothing",
            w.name
        );
        assert_eq!(
            warm.schedule.cache_hits, warm.schedule.scc_count,
            "{}: every SCC hits",
            w.name
        );
        assert_equivalent(&format!("{} (warm cache)", w.name), &cold, &warm);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A warm run must not rewrite the cache file: nothing was inserted, and
/// the serialize+rename costs more than the warm analysis itself (this
/// was the warm-slower-than-cold regression in the analysis bench).
#[test]
fn warm_cache_does_not_rewrite_the_file() {
    let path = std::env::temp_dir().join(format!("nml-equiv-rewrite-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = ScheduleOptions {
        summary_cache: Some(path.clone()),
        ..serial()
    };
    let src = corpus::ALL[0].source;
    let cold = scheduled(src, &options);
    assert!(cold.schedule.cache_errors.is_empty());
    let cold_meta = std::fs::metadata(&path).expect("cold run wrote the cache");
    let cold_mtime = cold_meta.modified().expect("mtime");
    let warm = scheduled(src, &options);
    assert_eq!(warm.schedule.sccs_solved, 0, "fully warm");
    let warm_meta = std::fs::metadata(&path).expect("cache still present");
    assert_eq!(
        warm_meta.modified().expect("mtime"),
        cold_mtime,
        "warm run rewrote the cache file"
    );
    let _ = std::fs::remove_file(&path);
}

/// Editing a callee invalidates its dependents too (the content hash is
/// transitive), while an untouched independent function stays cached.
#[test]
fn cache_invalidation_is_transitive() {
    let v1 = "letrec
      append x y = if (null x) then y else cons (car x) (append (cdr x) y);
      rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
      idl l = if (null l) then nil else cons (car l) (idl (cdr l))
    in rev (idl [1, 2, 3])";
    // Same program with `append`'s base case rewritten: `append` and its
    // dependent `rev` must re-analyze; `idl` must not.
    let v2 = "letrec
      append x y = if (null x) then (copy y) else cons (car x) (append (cdr x) y);
      copy l = if (null l) then nil else cons (car l) (copy (cdr l));
      rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
      idl l = if (null l) then nil else cons (car l) (idl (cdr l))
    in rev (idl [1, 2, 3])";
    let path = std::env::temp_dir().join(format!("nml-equiv-inval-{}.cache", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let options = ScheduleOptions {
        summary_cache: Some(path.clone()),
        ..serial()
    };
    let first = scheduled(v1, &options);
    assert_eq!(first.schedule.cache_misses, first.schedule.scc_count);
    let second = scheduled(v2, &options);
    // v2 has four SCCs: append+copy's SCCs and `rev` miss (changed or
    // downstream of a change); `idl` is byte-identical with no changed
    // dependencies and must hit.
    assert!(
        second.schedule.cache_hits >= 1,
        "unchanged `idl` SCC must hit: {:?}",
        second.schedule
    );
    assert!(
        second.schedule.cache_misses >= 3,
        "`append`, `copy`, and `rev` must miss: {:?}",
        second.schedule
    );
    let reference = whole_program(v2);
    assert_equivalent("edited program (partial cache)", &reference, &second);
    let _ = std::fs::remove_file(&path);
}

/// Generated-program sweep: the same prelude/strategy family as the
/// fault-tolerance harness, checked for whole ≡ serial ≡ parallel.
const PRELUDE: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  revon l a = if (null l) then a else revon (cdr l) (cons (car l) a);
  take n l = if n = 0 then nil
             else if (null l) then nil
             else cons (car l) (take (n - 1) (cdr l));
  drop n l = if n = 0 then l
             else if (null l) then nil
             else drop (n - 1) (cdr l);
  copy l = if (null l) then nil else cons (car l) (copy (cdr l));
  incall l = if (null l) then nil else cons ((car l) + 1) (incall (cdr l));
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  len l = if (null l) then 0 else 1 + len (cdr l)
in ";

fn leaf() -> BoxedStrategy<String> {
    prop_oneof![
        proptest::collection::vec(0i64..9, 0..5).prop_map(|xs| {
            let items: Vec<String> = xs.iter().map(|x| x.to_string()).collect();
            format!("[{}]", items.join(", "))
        }),
        (0u32..6).prop_map(|k| format!("(mklist {k})")),
    ]
    .boxed()
}

fn list_expr() -> BoxedStrategy<String> {
    leaf().prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            inner.clone().prop_map(|e| format!("(copy {e})")),
            inner.clone().prop_map(|e| format!("(incall {e})")),
            inner.clone().prop_map(|e| format!("(revon {e} nil)")),
            (0u32..4, inner.clone()).prop_map(|(k, e)| format!("(take {k} {e})")),
            (0u32..4, inner.clone()).prop_map(|(k, e)| format!("(drop {k} {e})")),
            (inner.clone(), inner).prop_map(|(a, b)| format!("(append {a} {b})")),
        ]
    })
}

fn program() -> BoxedStrategy<String> {
    prop_oneof![
        list_expr().prop_map(|e| format!("{PRELUDE}{e}")),
        list_expr().prop_map(|e| format!("{PRELUDE}(sum {e})")),
        list_expr().prop_map(|e| format!("{PRELUDE}(len {e})")),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn generated_programs_agree_across_schedulers(src in program()) {
        let reference = whole_program(&src);
        let ser = scheduled(&src, &serial());
        let par = scheduled(&src, &jobs4());
        assert_equivalent("generated (serial)", &reference, &ser);
        assert_equivalent("generated (jobs=4)", &reference, &par);
    }
}

/// Seeds the corpusgen sweeps cover. `NML_CORPUS_CASES` overrides (CI's
/// corpus-scaling job and quick local runs tune it).
fn corpus_cases(default: u64) -> u64 {
    std::env::var("NML_CORPUS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The corpusgen seed sweep: 256 seeded well-typed programs, rotating
/// through every generator topology, each checked for
/// whole-program ≡ SCC-serial ≡ SCC-jobs4. Unlike the proptest sweep
/// above, these programs have *deep synthetic call graphs* (chains,
/// rings, fan-in clusters), so the scheduler's batching and stealing
/// paths are exercised, not just leaf SCCs.
#[test]
fn corpusgen_seed_sweep_agrees_across_schedulers() {
    let shapes = ["chain:10", "wide:10", "scc:8x4", "mixed:12/4"];
    for seed in 0..corpus_cases(256) {
        let spec = shapes[(seed % shapes.len() as u64) as usize];
        let shape = nml_corpusgen::parse_shape(spec).expect("shape spec");
        let src = nml_corpusgen::generate(seed, &shape).source();
        let label = format!("corpusgen {spec} seed {seed}");
        let reference = whole_program(&src);
        let ser = scheduled(&src, &serial());
        let par = scheduled(&src, &jobs4());
        assert_equivalent(&format!("{label} (serial)"), &reference, &ser);
        assert_equivalent(&format!("{label} (jobs=4)"), &reference, &par);
        assert!(
            ser.fully_precise() && par.fully_precise(),
            "{label}: unlimited budget must not degrade"
        );
        assert_eq!(
            ser.schedule.sccs_solved, ser.schedule.scc_count,
            "{label}: cold run solves every SCC"
        );
    }
}
