//! Incremental re-analysis against the from-scratch oracle.
//!
//! Two claims, checked on seeded corpusgen programs under type-preserving
//! binding mutations:
//!
//! 1. **Equivalence.** After any sequence of updates, the incremental
//!    session's summaries are *identical* to a from-scratch analysis of
//!    the current source — the retained slot/summary state never leaks a
//!    stale value.
//!
//! 2. **Minimality.** An update re-solves exactly the *hash-dirty cone*:
//!    the edited binding's SCC plus every SCC that transitively depends
//!    on it (computed here independently from the call graph), and
//!    nothing else. An update whose pretty-printed form is unchanged
//!    re-solves nothing.

use nml_escape_analysis::escape::{
    analyze_source_scheduled, Analysis, Budget, EngineConfig, Incremental, PolyMode,
    ScheduleOptions,
};
use nml_escape_analysis::syntax::callgraph::CallGraph;
use nml_escape_analysis::syntax::{parse_program, pretty_program};
use proptest::prelude::*;

/// The from-scratch oracle: a cold SCC-scheduled analysis.
fn scratch(src: &str) -> Analysis {
    analyze_source_scheduled(
        src,
        PolyMode::SimplestInstance,
        EngineConfig::default(),
        Budget::unlimited(),
        &ScheduleOptions::default(),
    )
    .expect("scratch analysis")
}

fn assert_matches_scratch(label: &str, incremental: &Analysis, src: &str) {
    let oracle = scratch(src);
    assert_eq!(
        incremental.summaries.keys().collect::<Vec<_>>(),
        oracle.summaries.keys().collect::<Vec<_>>(),
        "{label}: summary key sets differ"
    );
    for (name, got) in &incremental.summaries {
        assert_eq!(
            got, &oracle.summaries[name],
            "{label}: summary of `{name}` differs from scratch"
        );
    }
}

/// The expected dirty cone of editing `name` in `src`: the size of the
/// set containing the binding's SCC and every transitive dependent SCC,
/// plus the total SCC count. Computed straight from the public call
/// graph, independently of the incremental engine's hashing.
fn dirty_cone(src: &str, name: &str) -> (usize, usize) {
    let program = parse_program(src).expect("parse");
    let graph = CallGraph::build(&program);
    let dag = graph.condense();
    let edited = graph
        .names
        .iter()
        .position(|n| n.as_str() == name)
        .expect("edited binding exists");
    let root = dag.scc_of[edited];
    // Tarjan ids are callees-first (deps always smaller), so one forward
    // sweep finds every SCC that can reach `root` through its deps.
    let mut dirty = vec![false; dag.len()];
    dirty[root] = true;
    for id in root + 1..dag.len() {
        if dag.sccs[id].deps.iter().any(|&d| dirty[d]) {
            dirty[id] = true;
        }
    }
    (dirty.iter().filter(|&&d| d).count(), dag.len())
}

/// Whether two sources parse to the same pretty-printed program — the
/// exact condition under which the incremental layer's content hashes
/// are unchanged and it may re-solve nothing.
fn pretty_equal(a: &str, b: &str) -> bool {
    pretty_program(&parse_program(a).expect("parse"))
        == pretty_program(&parse_program(b).expect("parse"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One mutation: incremental == scratch, and exactly the hash-dirty
    /// cone was re-solved (or nothing, when the mutation pretty-prints
    /// identically).
    #[test]
    fn mutation_matches_scratch_and_resolves_only_the_dirty_cone(
        seed in 0u64..4096,
        mutation_seed in any::<u64>(),
    ) {
        let shape = nml_corpusgen::parse_shape("mixed:12/4").expect("shape");
        let corpus = nml_corpusgen::generate(seed, &shape);
        let base = corpus.source();
        let mut inc = Incremental::from_source(&base).expect("cold analysis");

        let m = corpus.mutate(mutation_seed);
        let edited = corpus.source_replacing(m.index, &m.rhs);
        inc.update_binding(&m.name, &m.rhs).expect("update accepted");

        let s = &inc.analysis().schedule;
        let (cone, scc_count) = dirty_cone(&edited, &m.name);
        prop_assert_eq!(s.scc_count, scc_count, "seed {} SCC count", seed);
        prop_assert_eq!(
            s.sccs_solved + s.sccs_reused, s.scc_count,
            "seed {}: every SCC is either solved or reused", seed
        );
        if pretty_equal(&base, &edited) {
            prop_assert_eq!(
                s.sccs_solved, 0,
                "seed {}: unchanged content hash must re-solve nothing", seed
            );
        } else {
            prop_assert_eq!(
                s.sccs_solved, cone,
                "seed {}: must re-solve exactly the dirty cone of `{}`", seed, m.name
            );
        }
        assert_matches_scratch(&format!("seed {seed} mutation of {}", m.name), inc.analysis(), &edited);

        // Replaying the same text is a no-op: the content hash already
        // matches, so zero SCCs are solved and nothing changes.
        inc.update_binding(&m.name, &m.rhs).expect("replay accepted");
        prop_assert_eq!(inc.analysis().schedule.sccs_solved, 0, "seed {} replay", seed);
        assert_matches_scratch(&format!("seed {seed} replay"), inc.analysis(), &edited);
    }

    /// A chain of mutations through `update_binding` stays equivalent to
    /// scratch at every step — retained state composes across edits.
    #[test]
    fn mutation_chains_stay_equivalent(seed in 0u64..1024) {
        let shape = nml_corpusgen::parse_shape("mixed:16/4").expect("shape");
        let mut corpus = nml_corpusgen::generate(seed, &shape);
        let mut inc = Incremental::from_source(&corpus.source()).expect("cold analysis");
        for step in 0..4u64 {
            let m = corpus.mutate(seed.wrapping_mul(31).wrapping_add(step));
            inc.update_binding(&m.name, &m.rhs).expect("update accepted");
            // Fold the mutation into the corpus so `source()` tracks the
            // session's current program text.
            corpus.bindings[m.index].rhs = m.rhs;
            assert_matches_scratch(
                &format!("seed {seed} step {step} ({})", m.name),
                inc.analysis(),
                &corpus.source(),
            );
        }
    }
}

/// `update_source` on a generated corpus: a whole-file rewrite of one
/// binding re-solves only its cone; adding a fresh root re-solves just
/// the new SCC (plus the re-inferred body's — none).
#[test]
fn update_source_on_generated_corpus() {
    let shape = nml_corpusgen::parse_shape("mixed:24/6").expect("shape");
    let corpus = nml_corpusgen::generate(7, &shape);
    let base = corpus.source();
    let mut inc = Incremental::from_source(&base).expect("cold analysis");

    let m = corpus.mutate(42);
    let edited = corpus.source_replacing(m.index, &m.rhs);
    inc.update_source(&edited)
        .expect("whole-file update accepted");
    let s = &inc.analysis().schedule;
    let (cone, scc_count) = dirty_cone(&edited, &m.name);
    assert_eq!(s.scc_count, scc_count);
    if pretty_equal(&base, &edited) {
        assert_eq!(s.sccs_solved, 0);
    } else {
        assert_eq!(s.sccs_solved, cone, "whole-file edit of one binding");
        assert_eq!(s.sccs_reused, scc_count - cone);
    }
    assert_matches_scratch("update_source mutation", inc.analysis(), &edited);
}

/// A clean polymorphic binding in scope must not block generalization of
/// a dirty one. The pinned scheme of `len` is normalized to `'a`, the
/// same variable id the re-inference context hands out first; if `'a`
/// were resolved through that context it would alias `id`'s type and
/// keep `id` monomorphic, rejecting `(id 1)` beside `(id true)`.
#[test]
fn update_source_generalizes_beside_pinned_polymorphic_scheme() {
    let base = "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                       id x = x;
                       use y = (id 1) + (if (id true) then len [1] else 0)
                in use 0";
    let edited = "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                         id x = if true then x else x;
                         use y = (id 1) + (if (id true) then len [1] else 0)
                  in use 0";
    let mut inc = Incremental::from_source(base).expect("cold analysis");
    inc.update_source(edited)
        .expect("a well-typed edit is accepted");
    assert_matches_scratch("edit beside a pinned scheme", inc.analysis(), edited);
}
