//! The optimization pass manager: composes the three storage
//! optimizations in a sound order.
//!
//! **Order matters.** In-place reuse must run *before* stack allocation:
//! a reuse variant's result aliases its argument's cells, so a call that
//! has already been rewritten to `f_r` must never have that argument
//! stack-allocated (the aliased cells would be freed at region exit while
//! the result lives on). Running reuse first is safe because the stack
//! annotator only touches calls of functions with escape summaries, and
//! generated variants have none. The reversed order is demonstrably
//! unsound — the region validator catches it (see the test suite).
//!
//! Block allocation is independent of both (it wraps producer/consumer
//! call pairs whose spines the analysis retains), and runs in between.

use crate::auto::{reuse_pass, AutoReuse};
use crate::block::block_call_in;
use crate::ir::{Arena, ExprId, IrExpr, IrProgram};
use crate::pretenure::pretenure_pass;
use crate::sroa::sroa_pass;
use crate::stack::stack_pass;
use nml_escape::{Analysis, EscapeSummary};
use nml_syntax::{BuildIdHasher, IdMap, Symbol};
use std::collections::{BTreeSet, HashSet};

/// Which passes to run.
#[derive(Debug, Clone, Copy)]
pub struct OptOptions {
    /// Generate `DCONS` variants and rewrite unshared call sites (§6).
    pub reuse: bool,
    /// Wrap producer/consumer pairs in block regions (§A.3.3).
    pub block: bool,
    /// Stack-allocate non-escaping literal arguments (§A.3.1).
    pub stack: bool,
    /// Mark provably-escaping sites for old-space allocation (see
    /// [`crate::pretenure`]).
    pub pretenure: bool,
    /// Mark no-escape, unaliased sites for scalar replacement (see
    /// [`crate::sroa`]); only the bytecode engine acts on the mark.
    pub sroa: bool,
}

impl Default for OptOptions {
    fn default() -> Self {
        OptOptions {
            reuse: true,
            block: true,
            stack: true,
            pretenure: true,
            sroa: true,
        }
    }
}

impl OptOptions {
    /// No passes: every site stays a plain heap allocation.
    pub fn none() -> Self {
        OptOptions {
            reuse: false,
            block: false,
            stack: false,
            pretenure: false,
            sroa: false,
        }
    }
}

/// What the pass manager did.
#[derive(Debug, Clone, Default)]
pub struct OptSummary {
    /// The reuse driver's outcome, when enabled.
    pub reuse: Option<AutoReuse>,
    /// Producer/consumer pairs wrapped in block regions.
    pub block_calls: usize,
    /// Calls wrapped in stack regions.
    pub stack_calls: usize,
    /// Cons sites marked for old-space allocation.
    pub pretenured_sites: usize,
    /// Cons sites licensed for scalar replacement.
    pub elided_sites: usize,
}

/// The analysis as every pass consults it: the summaries indexed by
/// name once (with the id hasher), and the names whose summaries are
/// worst-case degradations, so that no pass scans
/// [`Analysis::degradations`] or searches the summary map per call site.
pub(crate) struct Summaries<'a> {
    /// The analysis the passes were given.
    pub(crate) analysis: &'a Analysis,
    by_name: IdMap<Symbol, &'a EscapeSummary>,
    degraded: HashSet<Symbol, BuildIdHasher>,
}

impl<'a> Summaries<'a> {
    pub(crate) fn new(analysis: &'a Analysis) -> Self {
        Summaries {
            analysis,
            by_name: analysis.summaries.iter().map(|(n, s)| (*n, s)).collect(),
            degraded: analysis.degradations.iter().map(|d| d.function).collect(),
        }
    }

    /// Whether `name`'s summary is a worst-case fallback.
    pub(crate) fn is_degraded(&self, name: Symbol) -> bool {
        self.degraded.contains(&name)
    }

    /// `name`'s summary, degraded or not.
    pub(crate) fn get(&self, name: Symbol) -> Option<&'a EscapeSummary> {
        self.by_name.get(&name).copied()
    }

    /// `name`'s summary, unless it is degraded (a degraded summary
    /// licenses nothing).
    pub(crate) fn trusted(&self, name: Symbol) -> Option<&'a EscapeSummary> {
        if self.is_degraded(name) {
            return None;
        }
        self.get(name)
    }
}

/// Runs the enabled passes in the sound order: reuse → block → stack →
/// pretenure (last, so it only upgrades sites no stronger pass claimed).
/// Every pass rewrites `ir` in place.
///
/// Functions whose summaries are worst-case degradations (see
/// [`nml_escape::Degradation`]) are skipped by every pass: their
/// summaries license nothing, and each pass additionally refuses them
/// explicitly. An analysis that ran out of budget therefore costs
/// optimization opportunities, never correctness.
pub fn optimize(ir: &mut IrProgram, analysis: &Analysis, opts: &OptOptions) -> OptSummary {
    let summaries = Summaries::new(analysis);
    let mut summary = OptSummary::default();
    if opts.reuse {
        summary.reuse = Some(reuse_pass(ir, &summaries));
    }
    if opts.block {
        summary.block_calls = block_pass(ir, &summaries);
    }
    if opts.stack {
        summary.stack_calls = stack_pass(ir, &summaries);
    }
    if opts.pretenure {
        summary.pretenured_sites = pretenure_pass(ir, &summaries);
    }
    if opts.sroa {
        // Last: only plain heap sites qualify, so every site a stronger
        // pass claimed keeps its placement.
        summary.elided_sites = sroa_pass(ir, &summaries);
    }
    summary
}

/// Finds `f (g …)` producer/consumer pairs in the main body where `f`'s
/// parameter retains its top spine, and applies the block transformation
/// to each distinct pair. Returns the number of rewritten calls.
pub fn auto_block(ir: &mut IrProgram, analysis: &Analysis) -> usize {
    block_pass(ir, &Summaries::new(analysis))
}

fn block_pass(ir: &mut IrProgram, summaries: &Summaries) -> usize {
    // Collect candidate (consumer, producer) pairs first; block_call
    // mutates the program.
    let mut pairs: BTreeSet<(Symbol, Symbol)> = BTreeSet::new();
    ir.body.walk(|id, _| {
        collect_pair(&ir.body, id, summaries, &mut pairs);
    });
    let mut count = 0;
    for (f, g) in pairs {
        if let Ok(n) = block_call_in(ir, summaries, f, g) {
            count += n;
        }
    }
    count
}

/// Records `(f, g)` when node `id` is a full call `f … (g …) …` whose
/// argument position retains its top spine and `g` returns a list.
fn collect_pair(
    body: &Arena,
    id: ExprId,
    summaries: &Summaries,
    out: &mut BTreeSet<(Symbol, Symbol)>,
) {
    let Some((f, n)) = body.called_var(id) else {
        return;
    };
    let Some(summary) = summaries.get(f).filter(|s| s.arity() == n) else {
        return;
    };
    let mut cur = id;
    let mut j = n;
    while let IrExpr::App(head, a) = body[cur] {
        j -= 1;
        if summary.param(j).retained_spines() >= 1 {
            if let Some((g, _)) = body.called_var(a) {
                if summaries.get(g).is_some_and(|s| s.result_ty.is_list()) {
                    out.insert((f, g));
                }
            }
        }
        cur = head;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;

    const COMBINED: &str = "letrec
      sum l = if (null l) then 0 else car l + sum (cdr l);
      create_list n = if n = 0 then nil else cons n (create_list (n - 1));
      rev l a = if (null l) then a
                else rev (cdr l) (cons (car l) a)
    in sum (rev (create_list 10) nil) + sum [1, 2, 3]";

    #[test]
    fn all_passes_compose() {
        let (mut ir, analysis) = prep(COMBINED);
        let summary = optimize(&mut ir, &analysis, &OptOptions::default());
        let auto = summary.reuse.expect("reuse ran");
        assert!(auto.rewritten_calls >= 1, "rev (create_list ...) reuses");
        assert!(summary.stack_calls >= 1, "sum [1,2,3] stacks");
        let text = ir.body.to_string();
        assert!(text.contains("rev_r"), "{text}");
        assert!(text.contains("region[stack]"), "{text}");
    }

    #[test]
    fn auto_block_finds_producer_consumer_pairs() {
        let (mut ir, analysis) = prep(
            "letrec
               sum l = if (null l) then 0 else car l + sum (cdr l);
               create_list n = if n = 0 then nil else cons n (create_list (n - 1))
             in sum (create_list 20)",
        );
        let n = auto_block(&mut ir, &analysis);
        assert_eq!(n, 1);
        assert!(ir.body.to_string().contains("region[block]"), "{}", ir.body);
    }

    #[test]
    fn escaping_consumer_gets_no_block() {
        let (mut ir, analysis) = prep(
            "letrec
               idl l = cons (car l) (cdr l);
               create_list n = if n = 0 then nil else cons n (create_list (n - 1))
             in idl (create_list 5)",
        );
        assert_eq!(auto_block(&mut ir, &analysis), 0);
    }

    #[test]
    fn options_gate_each_pass() {
        let (mut ir, analysis) = prep(COMBINED);
        let summary = optimize(
            &mut ir,
            &analysis,
            &OptOptions {
                reuse: false,
                block: false,
                stack: true,
                pretenure: false,
                sroa: false,
            },
        );
        assert!(summary.reuse.is_none());
        assert_eq!(summary.block_calls, 0);
        assert!(summary.stack_calls >= 1);
        assert_eq!(summary.elided_sites, 0);
        assert!(!ir.body.to_string().contains("rev_r"));
    }

    #[test]
    fn sroa_gated_and_counted() {
        let (mut ir, analysis) = prep(
            "letrec f n = letrec p = cons n (cons 1 nil) in car p + car (cdr p)
             in f 3",
        );
        let summary = optimize(&mut ir, &analysis, &OptOptions::default());
        assert_eq!(summary.elided_sites, 1);
        let f = ir.func(nml_syntax::Symbol::intern("f")).unwrap();
        assert!(f.body.to_string().contains("cons[elided]"), "{}", f.body);
    }
}
