//! Exact-count determinism: with the same seed, two traced runs report
//! identical per-layer counts; a different seed changes the inputs, and
//! every output check still passes. (`serve` is not run here: it needs
//! over 12 s to reach the step limit its checks expect.)
//!
//! Runs the reported workloads at their reported sizes with a very short
//! `--seconds` (the minimum number of rounds):
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use nml_perfbench::{compile, edit, run, serve, Opts, Outcome, END_TO_END, PER_LAYER};
use std::collections::BTreeMap;

fn opts(seed: u64) -> Opts {
    Opts {
        seed,
        seconds: 0.01,
        trace: true,
    }
}

fn checked(o: Outcome) -> Outcome {
    assert!(o.correct, "output checks failed: {:?}", o.problems);
    assert_eq!(o.failed, 0, "{:?}", o.problems);
    o
}

/// The counts a run reports, minus the trace bookkeeping (whose span
/// count follows the number of timed loop iterations, not the inputs).
fn exact(o: &Outcome) -> BTreeMap<String, u64> {
    o.counts
        .iter()
        .filter(|(k, _)| !k.starts_with("trace."))
        .map(|(k, v)| (k.clone(), *v))
        .collect()
}

/// Asserts that every name in `names` has a non-zero count.
fn nonzero(counts: &BTreeMap<String, u64>, names: &[&str]) {
    for name in names {
        assert!(
            counts.get(*name).is_some_and(|&v| v > 0),
            "{name} missing or zero: {counts:?}"
        );
    }
}

#[test]
fn run_counts_repeat_exactly_for_a_seed() {
    let a = checked(run::workload(&opts(7)));
    let b = checked(run::workload(&opts(7)));
    let counts = exact(&a);
    nonzero(
        &counts,
        &[
            "runtime.steps",
            "runtime.heap_allocs",
            "runtime.dcons_reuses",
            "runtime.allocs_elided",
            "runtime.minor_gcs",
            "runtime.major_gcs",
            "runtime.gc_marked",
            "runtime.peak_live",
            "opt.elided_sites",
            "opt.pretenured_sites",
        ],
    );
    assert_eq!(counts, exact(&b));
    assert_eq!(a.outputs, b.outputs);
    assert_eq!(
        a.provenance["per_program"].matches("\"steps\"").count(),
        6,
        "every program reports its own counts"
    );

    let c = checked(run::workload(&opts(8)));
    assert_ne!(
        a.outputs, c.outputs,
        "a different seed must change the printed values"
    );
}

#[test]
fn compile_counts_repeat_exactly_for_a_seed() {
    let a = checked(compile::workload(&opts(11)));
    let b = checked(compile::workload(&opts(11)));
    let counts = exact(&a);
    nonzero(
        &counts,
        &[
            "core.sccs_solved",
            "core.engine_passes",
            "core.cache_hits",
            "opt.elided_sites",
            "opt.pretenured_sites",
            "runtime.bytecode_ops",
        ],
    );
    assert_eq!(counts, exact(&b));
    assert_eq!(a.outputs, b.outputs);

    let c = checked(compile::workload(&opts(12)));
    assert_ne!(
        a.outputs[0], c.outputs[0],
        "a different seed must edit the corpus differently"
    );
}

#[test]
fn edit_counts_repeat_exactly_for_a_seed() {
    let a = checked(edit::workload(&opts(13)));
    let b = checked(edit::workload(&opts(13)));
    let counts = exact(&a);
    nonzero(
        &counts,
        &[
            "core.sccs_solved",
            "core.sccs_reused",
            "opt.elided_sites",
            "opt.pretenured_sites",
            "runtime.bytecode_ops",
        ],
    );
    assert_eq!(counts, exact(&b));
    assert_eq!(a.outputs, b.outputs);

    let c = checked(edit::workload(&opts(14)));
    assert_ne!(
        a.outputs[0], c.outputs[0],
        "a different seed must edit the corpus differently"
    );
}

#[test]
fn runs_report_exactly_the_listed_metrics() {
    let names = |o: &Outcome| {
        let mut v: Vec<(String, &str)> =
            o.metrics.iter().map(|m| (m.name.clone(), m.unit)).collect();
        v.sort();
        v
    };
    let listed = |l: &[(&str, &'static str)]| {
        let mut v: Vec<(String, &str)> = l.iter().map(|(n, u)| ((*n).to_owned(), *u)).collect();
        v.sort();
        v
    };
    let traced = checked(run::workload(&opts(7)));
    assert_eq!(names(&traced), listed(&PER_LAYER));
    let untraced = checked(run::workload(&Opts {
        trace: false,
        ..opts(7)
    }));
    assert_eq!(names(&untraced), listed(&END_TO_END));
}

#[test]
fn serve_schedule_is_seeded_with_a_fixed_mix() {
    let a = serve::schedule(1, 11 * 40);
    let b = serve::schedule(1, 11 * 40);
    let c = serve::schedule(2, 11 * 40);
    let lines = |s: &[serve::Request]| s.iter().map(|r| format!("{r:?}")).collect::<Vec<_>>();
    assert_eq!(lines(&a), lines(&b));
    assert_ne!(
        lines(&a),
        lines(&c),
        "a different seed must change the requests"
    );
    // The composition (and so the mean steps per request, which sets
    // when a worker reaches the step limit) does not depend on the seed.
    let mix = |s: &[serve::Request]| {
        let mut m: BTreeMap<(String, i64, usize), usize> = BTreeMap::new();
        for r in s {
            let n = if r.call == "work" { r.n } else { 0 };
            *m.entry((r.call.to_owned(), n, r.list.len())).or_default() += 1;
        }
        m
    };
    assert_eq!(mix(&a), mix(&c));
    // Every expected value is the closed form of its request.
    for r in &a {
        match r.call {
            "work" => assert_eq!(r.expected, (r.n * (r.n + 1) / 2).to_string()),
            _ => assert!(r.expected.starts_with('[') && r.list.len() == serve::LIST_LEN),
        }
    }
}
