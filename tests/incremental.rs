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
    ScheduleOptions, UpdateError,
};
use nml_escape_analysis::syntax::callgraph::CallGraph;
use nml_escape_analysis::syntax::visit::{copy_node_ids, same_tree};
use nml_escape_analysis::syntax::{parse_program, pretty_program, Program};
use nml_escape_analysis::types::infer_program;
use proptest::prelude::*;
use std::collections::HashSet;

/// Cases per generated sweep: `NML_CORPUS_CASES` when set (CI runs a
/// bigger sweep), else `default`.
fn corpus_cases(default: u32) -> u32 {
    std::env::var("NML_CORPUS_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

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
    #![proptest_config(ProptestConfig::with_cases(corpus_cases(64)))]

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

/// The incremental session's program is a fresh parse of `src` up to node
/// ids: same bindings, trees and spans. Its ids are unique and typed, and
/// its schemes are those of a fresh inference. Every live node has the
/// ground type and `car^s` a fresh inference gives the same node, and the
/// per-node type tables hold no entry for a node the edits retired.
fn assert_same_program(label: &str, got: &Analysis, src: &str) {
    let want = parse_program(src).expect("parse");
    let info = infer_program(&want).expect("infer");
    let names = |p: &Program| p.bindings.iter().map(|b| b.name).collect::<Vec<_>>();
    assert_eq!(names(&got.program), names(&want), "{label}: binding names");
    let mut ids = HashSet::new();
    for e in got.program.exprs() {
        assert!(ids.insert(e.id), "{label}: node id {} used twice", e.id);
        assert!(
            e.id.0 < got.program.next_node_id,
            "{label}: id {} past next",
            e.id
        );
        assert!(
            got.info.node_ty.contains_key(&e.id),
            "{label}: untyped node {}",
            e.id
        );
    }
    let tables = &got.info;
    let dead = tables
        .node_ty
        .keys()
        .chain(tables.car_spines.keys())
        .chain(tables.instantiations.keys())
        .chain(&tables.defaulted_nodes)
        .find(|id| !ids.contains(id));
    assert_eq!(dead, None, "{label}: a type table keeps a retired node");
    let mut moved = got.program.clone();
    for (g, w) in moved.bindings.iter_mut().zip(&want.bindings) {
        assert!(same_tree(&g.expr, &w.expr), "{label}: tree of `{}`", w.name);
        copy_node_ids(&mut g.expr, &w.expr);
        let n = w.name;
        assert_eq!(
            got.info.top_schemes.get(&n),
            info.top_schemes.get(&n),
            "{label}: `{n}`"
        );
        assert_eq!(got.info.sig(n), info.sig(n), "{label}: signature of `{n}`");
    }
    assert!(same_tree(&moved.body, &want.body), "{label}: body tree");
    copy_node_ids(&mut moved.body, &want.body);
    // `moved` visits its nodes in the order `got.program` does, now under
    // the fresh parse's ids.
    for (g, w) in got.program.exprs().zip(moved.exprs()) {
        assert_eq!(
            got.info.ty(g.id),
            info.ty(w.id),
            "{label}: type of node {}",
            g.id
        );
        assert_eq!(
            got.info.car_spines.get(&g.id),
            info.car_spines.get(&w.id),
            "{label}: car^s of node {}",
            g.id
        );
    }
    moved.next_node_id = want.next_node_id;
    assert_eq!(moved, want, "{label}: spans differ from a fresh parse");
    assert_eq!(
        got.info.max_spines, info.max_spines,
        "{label}: domain bound"
    );
}

/// A type error in a kept dependent is reported at its offsets in the
/// new text, not where it sat before the edit moved it.
#[test]
fn update_source_reports_errors_at_new_offsets() {
    let base = "letrec\n  f x = x + 1;\n  g y = f y\nin g 1";
    let edited = "letrec\n  f x = if x then 1 else 0;\n  g y = f y\nin g 1";
    let fresh = infer_program(&parse_program(edited).expect("parse")).unwrap_err();
    assert_eq!(fresh.span.to_string(), "50..53");
    for first in [true, false] {
        let mut inc = Incremental::from_source(base).expect("cold analysis");
        if !first {
            // Retained text: `g` is kept without being re-parsed.
            inc.update_source(base).expect("same text");
        }
        match inc.update_source(edited) {
            Err(UpdateError::Type(e)) => assert_eq!(e.span, fresh.span, "first update: {first}"),
            other => panic!("expected a type error, got {:?}", other.map(|_| ())),
        }
        assert_same_program("rolled back", inc.analysis(), base);
    }
}

/// `update_binding` changes a tree without changing the retained text,
/// so the next `update_source` must not keep that binding by its bytes.
#[test]
fn update_binding_invalidates_the_retained_chunk() {
    let a1 = "letrec f x = x + 1;\n  g y = f y in g 1";
    let a2 = "letrec f x = x + 2;\n  g y = f y in g 1";
    let mut inc = Incremental::from_source(a1).expect("cold analysis");
    inc.update_source(a2).expect("a2");
    inc.update_binding("f", "lambda(x). x + 100")
        .expect("binding");
    inc.update_source(a2).expect("a2 again");
    assert_same_program("a2 after update_binding", inc.analysis(), a2);
    assert_matches_scratch("a2 after update_binding", inc.analysis(), a2);
}

/// A rejected update puts back the retained text and chunk ranges along
/// with the program: the next update keeps bindings by the old bytes.
#[test]
fn rejected_update_source_restores_the_retained_text() {
    let good = "letrec f x = x + 1;\n  g y = f y;\n  h z = g z in h 1";
    // Shifts every later binding, removes `h`, and fails to typecheck.
    let bad = "letrec e = 1 + true;\n  f x = x + 1;\n  g y = f y in g 1";
    let next = "letrec f x = x + 1;\n  g y = f y;\n  h z = g (z + 1) in h 1";
    let mut inc = Incremental::from_source(good).expect("cold analysis");
    inc.update_source(good).expect("retain");
    assert!(matches!(inc.update_source(bad), Err(UpdateError::Type(_))));
    assert_same_program("after rejection", inc.analysis(), good);
    assert_matches_scratch("after rejection", inc.analysis(), good);
    inc.update_source(next).expect("next");
    assert_eq!(inc.analysis().schedule.sccs_solved, 1);
    assert_same_program("after recovery", inc.analysis(), next);
    assert_matches_scratch("after recovery", inc.analysis(), next);
}

/// Removing a binding that only the body uses is a type error, as it is
/// for a fresh analysis of the same text.
#[test]
fn update_source_rejects_a_body_reference_to_a_removed_binding() {
    let base = "letrec f x = x + 1;\n  g y = y in g (f 1)";
    let mut inc = Incremental::from_source(base).expect("cold analysis");
    let edited = "letrec g y = y in g (f 1)";
    assert!(infer_program(&parse_program(edited).expect("parse")).is_err());
    assert!(matches!(
        inc.update_source(edited),
        Err(UpdateError::Type(_))
    ));
    assert_same_program("rolled back", inc.analysis(), base);
    // The rejected edit removed `f`; its summary stays with the program.
    assert_matches_scratch("rolled back", inc.analysis(), base);
}

/// One session state of the differential test: a generated corpus plus
/// hand-written bindings after it and a suffix on its body.
#[derive(Clone)]
struct Session {
    corpus: nml_corpusgen::Corpus,
    extras: Vec<(String, String)>,
    body_suffix: String,
}

impl Session {
    fn render(&self) -> String {
        let mut out = self.corpus.source();
        let split = out.rfind("\nin ").expect("corpus text has a body");
        let body = out.split_off(split);
        for (name, rhs) in &self.extras {
            out.push_str(&format!(";\n  {name} = {rhs}"));
        }
        out + &body + &self.body_suffix
    }
}

/// A binding with a nested `let … in`, numbered `k`.
fn nested_let(k: u64) -> String {
    format!(
        "lambda(l). let a = {}; b = letrec c = {} in c + a in\n    a + b + (if (null l) then 0 else car l)",
        k % 7,
        k % 5
    )
}

/// Applies one edit of a kind drawn from `rng` to `s`, and maybe breaks
/// the rendered text. Returns the text and whether the edit only
/// re-formatted one binding.
fn edit(s: &mut Session, rng: &mut nml_corpusgen::Rng) -> (String, bool) {
    let k = rng.next_u64() % 1000;
    let mut reformat = false;
    match rng.below(9) {
        0 | 1 => {
            let m = s.corpus.mutate(rng.next_u64());
            s.corpus.bindings[m.index].rhs = m.rhs;
        }
        2 => {
            let i = rng.below(s.corpus.bindings.len());
            let rhs = &mut s.corpus.bindings[i].rhs;
            *rhs = rhs.replacen(' ', "\n      ", 2);
            reformat = true;
        }
        3 => {
            let rhs = match (s.extras.last(), rng.below(3)) {
                (Some((callee, _)), 0) => format!("lambda(l). {callee} l + {k}"),
                (_, 1) => nested_let(k),
                _ => format!("lambda(l). if (null l) then {k} else car l"),
            };
            s.extras.push((format!("x{k}"), rhs));
        }
        4 if !s.extras.is_empty() => {
            let j = rng.below(s.extras.len());
            if rng.chance(50) {
                s.extras.remove(j);
            } else {
                s.extras[j].0 = format!("y{k}");
            }
        }
        5 => {
            // A binding named like a constant flips `Var`/`Const`
            // everywhere else.
            let name = if rng.chance(50) { "car" } else { "nil" };
            match s.extras.iter().position(|(n, _)| n == name) {
                Some(j) => {
                    s.extras.remove(j);
                }
                None if name == "car" => s
                    .extras
                    .push((name.into(), "lambda(l). if (null l) then 0 else 1".into())),
                None => s.extras.push((name.into(), "[]".into())),
            }
        }
        6 => {
            s.body_suffix = match (s.extras.first(), rng.below(3)) {
                (Some((name, _)), 0) => format!(" + {name} [{k}]"),
                (_, 1) => String::new(),
                _ => format!(" + {k}"),
            };
        }
        _ => {
            if let Some(j) = s.extras.iter().position(|(_, r)| r.contains("let a")) {
                s.extras[j].1 = nested_let(k);
            } else {
                s.extras.push((format!("n{k}"), nested_let(k)));
            }
        }
    }
    let text = s.render();
    let text = match rng.below(12) {
        0 => text.replacen(";\n", "\n", 1),
        1 => format!("({text})"),
        2 => format!("{k} + 1"),
        _ => return (text, reformat),
    };
    (text, false)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(corpus_cases(48)))]

    /// `update_source` is a fresh parse plus a from-scratch analysis:
    /// after every edit the program equals a fresh parse up to node ids
    /// (spans included), summaries and schemes equal scratch, a syntax
    /// error is the whole-program parser's, and a rejected edit leaves
    /// the last accepted program in place.
    #[test]
    fn update_source_matches_a_fresh_parse_and_scratch(seed in 0u64..4096) {
        let shape = nml_corpusgen::parse_shape("mixed:12/4").expect("shape");
        let corpus = nml_corpusgen::generate(seed, &shape);
        let mut session = Session { corpus, extras: Vec::new(), body_suffix: String::new() };
        let mut accepted = session.render();
        let mut inc = Incremental::from_source(&accepted).expect("cold analysis");
        let mut rng = nml_corpusgen::Rng::new(seed);
        for step in 0..6 {
            let mut next = session.clone();
            let (text, reformat) = edit(&mut next, &mut rng);
            let label = format!("seed {seed} step {step}");
            let expected = parse_program(&text).map(|p| infer_program(&p).map(|_| ()));
            match (inc.update_source(&text), expected) {
                (Err(UpdateError::Syntax(got)), Err(want)) => {
                    prop_assert_eq!(got.to_string(), want.to_string(), "{}", label);
                    prop_assert_eq!(got, want, "{}", label);
                }
                (Err(UpdateError::Type(_)), Ok(Err(_))) => {}
                (Ok(analysis), Ok(Ok(()))) => {
                    // Today's rule: a whitespace-only edit re-solves
                    // nothing (unless the last text had no bindings).
                    if reformat && accepted.contains("letrec") {
                        prop_assert_eq!(analysis.schedule.sccs_solved, 0, "{}: reformat", label);
                    }
                    assert_same_program(&label, analysis, &text);
                    assert_matches_scratch(&label, analysis, &text);
                    accepted = text;
                    session = next;
                    continue;
                }
                (got, want) => panic!(
                    "{label}: update_source gave {:?}, a fresh parse {want:?}\n{text}",
                    got.map(|_| ())
                ),
            }
            let label = format!("{label} rolled back");
            assert_same_program(&label, inc.analysis(), &accepted);
            assert_matches_scratch(&label, inc.analysis(), &accepted);
        }
    }
}
