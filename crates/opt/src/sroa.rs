//! Scalar replacement of aggregates (SROA) for cons cells: the first
//! pass that *eliminates* allocations instead of relocating them.
//!
//! The paper's optimizations move a cell (stack region, block region,
//! old space) or reuse it in place; the cell still exists. When a cell
//! provably **never escapes** and is **never aliased**, nothing in the
//! program can observe its identity — every access is a syntactically
//! visible `car`/`cdr`/`null` of the one binding that names it — so the
//! cell need not exist at all: the bytecode compiler scalarizes its head
//! and tail into plain frame slots and the allocation disappears.
//!
//! The pass has two halves with an explicit soundness split:
//!
//! 1. **This module** computes a per-site [`SiteFact`] — the joined
//!    [`EscapeState`] of each `cons` site plus an aliasing bit from
//!    union-find over the bindings that may name the cell
//!    ([`nml_escape::AliasClasses`]) — and marks qualifying heap sites
//!    [`AllocMode::Elided`]. The walk is conservative: any flow it does
//!    not understand joins to [`EscapeState::GlobalEscape`].
//! 2. **The bytecode compiler** (`nml-runtime`) independently
//!    re-verifies, at slot level, that an `Elided` binding is used only
//!    under projections before scalarizing; anything else falls back to
//!    an ordinary heap `cons`. The mark is therefore a *license*, never
//!    an obligation — a wrong (or sabotaged) `Elided` mark degrades to a
//!    heap allocation, it cannot change program meaning. The tree-walker
//!    ignores the mark entirely and stays the differential oracle.
//!
//! Call arguments are escalated through the paper-level summaries: a
//! callee whose parameter verdict is `⟨0,0⟩` retains nothing, so the
//! argument joins only [`EscapeState::ArgEscape`] (the cell must still
//! exist for the call); any escaping verdict, an unknown callee, or a
//! degraded summary joins [`EscapeState::GlobalEscape`].

use crate::ir::{AllocMode, Arena, ExprId, IrExpr, IrProgram, SiteId};
use crate::pipeline::Summaries;
use crate::quarantine::remark;
use nml_escape::{state_of_param, AliasClasses, Analysis, EscapeState, EscapeSummary};
use nml_syntax::{Prim, Symbol};
use std::collections::BTreeMap;

/// What the lattice walk established about one `cons` site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteFact {
    /// The joined escape state over every path the cell's value takes.
    pub state: EscapeState,
    /// Whether any binding beyond the defining one may name the cell.
    pub aliased: bool,
}

impl SiteFact {
    /// Whether the site qualifies for scalar replacement.
    pub fn elidable(&self) -> bool {
        self.state.allows_elision() && !self.aliased
    }
}

/// Computes the escape lattice fact for every `cons` site in `ir`.
pub fn analyze_sites(ir: &IrProgram, analysis: &Analysis) -> BTreeMap<SiteId, SiteFact> {
    site_facts(ir, &Summaries::new(analysis))
        .into_iter()
        .enumerate()
        .filter_map(|(i, fact)| Some((SiteId(i as u32), fact?)))
        .collect()
}

/// The facts indexed by [`SiteId`]: `None` for an id that names no
/// `cons` site.
fn site_facts(ir: &IrProgram, summaries: &Summaries) -> Vec<Option<SiteFact>> {
    let n = ir.next_site as usize;
    let mut az = SiteAnalyzer {
        summaries,
        arena: &ir.body,
        states: vec![None; n],
        alias: AliasClasses::new(),
        alias_ids: vec![0; n],
        env: Vec::new(),
        env_sites: Vec::new(),
        scope: 0,
        out: Vec::new(),
    };
    for f in &ir.funcs {
        let base = az.env.len();
        for p in &f.params {
            az.bind(*p, az.out.len());
        }
        az.arena = &f.body;
        az.eval_escaping(f.body.root(), EscapeState::ReturnEscape);
        az.unbind(base);
    }
    // The program body's value survives to exit (it is printed/read).
    az.arena = &ir.body;
    az.eval_escaping(ir.body.root(), EscapeState::ReturnEscape);
    let SiteAnalyzer {
        states,
        mut alias,
        alias_ids,
        ..
    } = az;
    states
        .into_iter()
        .zip(alias_ids)
        .map(|(state, id)| {
            Some(SiteFact {
                state: state?,
                aliased: !alias.is_unaliased(id),
            })
        })
        .collect()
}

/// Marks every plain-heap `cons` site whose fact is no-escape and
/// unaliased as [`AllocMode::Elided`]. Returns the number of sites
/// marked. Stronger placement claims (stack/block/pretenure) are never
/// overridden, so this pass composes with the others in any order.
pub fn annotate_sroa(ir: &mut IrProgram, analysis: &Analysis) -> usize {
    sroa_pass(ir, &Summaries::new(analysis))
}

/// [`annotate_sroa`] over summaries the pass manager already indexed.
pub(crate) fn sroa_pass(ir: &mut IrProgram, summaries: &Summaries) -> usize {
    let facts = site_facts(ir, summaries);
    remark(ir, |alloc, site| {
        let elidable = facts
            .get(site.0 as usize)
            .is_some_and(|f| f.as_ref().is_some_and(SiteFact::elidable));
        (alloc == AllocMode::Heap && elidable).then_some(AllocMode::Elided)
    })
}

/// Resets every [`AllocMode::Elided`] mark back to plain heap allocation.
/// Used by `--no-sroa` to undo what an earlier pass-manager run licensed.
pub fn strip_sroa(ir: &mut IrProgram) -> usize {
    remark(ir, |alloc, _| {
        (alloc == AllocMode::Elided).then_some(AllocMode::Heap)
    })
}

/// The conservative abstract walk. Every expression's value is a set of
/// sites whose cell it may be: [`SiteAnalyzer::eval`] pushes that set
/// onto the `out` stack, and the caller consumes and pops it. `env`
/// maps in-scope bindings (innermost last) to the site set they may
/// name, stored as a range of `env_sites`; lookups see only the entries
/// from `scope` on (a lambda body starts a fresh scope).
struct SiteAnalyzer<'a> {
    summaries: &'a Summaries<'a>,
    /// The arena of the binding being walked.
    arena: &'a Arena,
    /// Joined state per site id; `None` until the site is evaluated.
    states: Vec<Option<EscapeState>>,
    alias: AliasClasses,
    /// The alias-class id of each site's latest evaluation.
    alias_ids: Vec<u32>,
    env: Vec<(Symbol, usize)>,
    /// The site sets of `env`: entry `i` owns `env_sites[env[i].1..end]`,
    /// where `end` is the next entry's start (or the length).
    env_sites: Vec<SiteId>,
    scope: usize,
    out: Vec<SiteId>,
}

impl SiteAnalyzer<'_> {
    /// Binds `x` to the sites `out[from..]`, which it takes off the stack.
    fn bind(&mut self, x: Symbol, from: usize) {
        self.env.push((x, self.env_sites.len()));
        self.env_sites.extend(self.out.drain(from..));
    }

    /// Drops every binding from `env[base]` on.
    fn unbind(&mut self, base: usize) {
        if let Some(&(_, start)) = self.env.get(base) {
            self.env_sites.truncate(start);
        }
        self.env.truncate(base);
    }

    fn is_bound(&self, x: Symbol) -> bool {
        self.env[self.scope..].iter().any(|(n, _)| *n == x)
    }

    /// Pushes the sites `x` may name.
    fn lookup(&mut self, x: Symbol) {
        let Some(i) = self.env[self.scope..].iter().rposition(|(n, _)| *n == x) else {
            return;
        };
        let i = self.scope + i;
        let start = self.env[i].1;
        let end = self.env.get(i + 1).map_or(self.env_sites.len(), |e| e.1);
        self.out.extend_from_slice(&self.env_sites[start..end]);
    }

    /// Joins `st` into the state of every site in `out[from..]`.
    fn escalate(&mut self, from: usize, st: EscapeState) {
        for i in from..self.out.len() {
            let e = &mut self.states[self.out[i].0 as usize];
            *e = Some(e.unwrap_or_default().join(st));
        }
    }

    /// Records a second name for each site in `out[from..]`: its alias
    /// class stops being a singleton.
    fn mark_aliased(&mut self, from: usize) {
        for i in from..self.out.len() {
            let id = self.alias_ids[self.out[i].0 as usize];
            let second = self.alias.fresh();
            self.alias.union(id, second);
        }
    }

    /// Evaluates `e` and joins `st` into every site of its value.
    fn eval_escaping(&mut self, e: ExprId, st: EscapeState) {
        let from = self.out.len();
        self.eval(e);
        self.escalate(from, st);
        self.out.truncate(from);
    }

    /// Evaluates `e` as a value stored where the cell escapes for good
    /// (a cons head or tail, a global argument): joins `GlobalEscape`
    /// and marks every site aliased.
    fn eval_stored(&mut self, e: ExprId) {
        let from = self.out.len();
        self.eval(e);
        self.escalate(from, EscapeState::GlobalEscape);
        self.mark_aliased(from);
        self.out.truncate(from);
    }

    /// Pushes the site set of `e`'s own value onto `out`.
    fn eval(&mut self, e: ExprId) {
        let arena = self.arena;
        match arena[e] {
            IrExpr::Const(_) => {}
            IrExpr::Var(x) => self.lookup(x),
            IrExpr::App(..) => self.eval_call(e),
            IrExpr::Lambda { body, param, .. } => {
                // Anything the closure can reach outlives this frame's
                // reasoning: escalate every outer binding the body
                // mentions (over-approximate — inner shadowing ignored).
                let from = self.out.len();
                arena.walk_from(body, &mut |_, n| {
                    if let IrExpr::Var(x) = n {
                        self.lookup(*x);
                    }
                });
                self.escalate(from, EscapeState::GlobalEscape);
                self.mark_aliased(from);
                self.out.truncate(from);
                // The body's own sites live per invocation of the
                // closure: analyze them in a fresh scope.
                let (base, outer) = (self.env.len(), self.scope);
                self.scope = base;
                self.bind(param, from);
                self.eval_escaping(body, EscapeState::ReturnEscape);
                self.unbind(base);
                self.scope = outer;
            }
            IrExpr::If(c, t, f) => {
                // A condition is a bool; a cell flowing *as* the
                // condition would be a type error, but stay conservative.
                self.eval_escaping(c, EscapeState::GlobalEscape);
                let from = self.out.len();
                self.eval(t);
                let mid = self.out.len();
                self.eval(f);
                // The union of both branches, without repeats.
                let mut kept = mid;
                for i in mid..self.out.len() {
                    let x = self.out[i];
                    if !self.out[from..kept].contains(&x) {
                        self.out[kept] = x;
                        kept += 1;
                    }
                }
                self.out.truncate(kept);
            }
            IrExpr::Letrec(bs, body) => {
                let base = self.env.len();
                for &(n, rhs) in arena.binds(bs) {
                    let from = self.out.len();
                    self.eval(rhs);
                    // The defining `n = cons …` is the cell's first
                    // name; any other binding shape that yields cells
                    // (a copy, an if-join, a dcons) is an extra name.
                    if !matches!(arena[rhs], IrExpr::Cons { .. }) {
                        self.mark_aliased(from);
                    }
                    self.bind(n, from);
                }
                self.eval(body);
                self.unbind(base);
            }
            IrExpr::Cons {
                head, tail, site, ..
            } => {
                let i = site.0 as usize;
                if i >= self.states.len() {
                    self.states.resize(i + 1, None);
                    self.alias_ids.resize(i + 1, 0);
                }
                self.states[i].get_or_insert_with(EscapeState::default);
                self.alias_ids[i] = self.alias.fresh();
                self.eval_stored(head);
                self.eval_stored(tail);
                self.out.push(site);
            }
            IrExpr::Dcons {
                reused, head, tail, ..
            } => {
                let from = self.out.len();
                self.lookup(reused);
                self.escalate(from, EscapeState::GlobalEscape);
                self.eval_stored(head);
                self.eval_stored(tail);
            }
            IrExpr::Prim1(p, a) => {
                let from = self.out.len();
                self.eval(a);
                match p {
                    // Projections and the null probe are exactly the
                    // accesses scalarization can serve: no escalation.
                    Prim::Car | Prim::Cdr | Prim::Null | Prim::Fst | Prim::Snd => {}
                    _ => self.escalate(from, EscapeState::GlobalEscape),
                }
                // `car p` yields an *element* of the cell, not the cell.
                self.out.truncate(from);
            }
            IrExpr::Prim2(_, a, b) => {
                // Arithmetic/comparison: a cell in operand position
                // would be a type error; join conservatively anyway.
                self.eval_escaping(a, EscapeState::ArgEscape);
                self.eval_escaping(b, EscapeState::ArgEscape);
            }
            IrExpr::Region { inner, .. } => self.eval(inner),
        }
    }

    /// A (possibly curried) application: escalate every argument's sites
    /// through the callee's summary; the result set is unknown (but any
    /// cell it could contain is already ≥ arg-escape, which blocks
    /// elision, so the empty set is sound *for this lattice's use*).
    fn eval_call(&mut self, e: ExprId) {
        let (head, n) = self.arena.spine(e);
        // Per-parameter states when the callee is a known, non-degraded,
        // non-shadowed global with matching arity.
        let summary = match self.arena[head] {
            IrExpr::Var(f) if !self.is_bound(f) => {
                self.summaries.trusted(f).filter(|s| s.arity() == n)
            }
            _ => None,
        };
        self.eval_args(e, summary);
    }

    /// Evaluates the head (when computed) and then each argument of the
    /// spine rooted at `e`, left to right; returns the number of
    /// arguments evaluated.
    fn eval_args(&mut self, e: ExprId, summary: Option<&EscapeSummary>) -> usize {
        let IrExpr::App(f, a) = self.arena[e] else {
            if !matches!(self.arena[e], IrExpr::Var(_) | IrExpr::Const(_)) {
                self.eval_escaping(e, EscapeState::GlobalEscape);
            }
            return 0;
        };
        let j = self.eval_args(f, summary);
        match summary {
            // The callee holds another name for the cell during the
            // call; with a no-escape verdict it drops that name, so the
            // defining binding stays the only one after the call.
            Some(sum) if state_of_param(sum.param(j)) == EscapeState::NoEscape => {
                self.eval_escaping(a, EscapeState::ArgEscape)
            }
            _ => self.eval_stored(a),
        }
        j + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::prep;

    fn elided_sites(ir: &IrProgram) -> usize {
        ir.funcs
            .iter()
            .map(|f| &f.body)
            .chain([&ir.body])
            .flat_map(|a| a.nodes())
            .filter(|e| {
                matches!(
                    e,
                    IrExpr::Cons {
                        alloc: AllocMode::Elided,
                        ..
                    }
                )
            })
            .count()
    }

    #[test]
    fn projected_pair_is_elided() {
        let (mut ir, analysis) = prep(
            "letrec f n = letrec p = cons n (cons 1 nil) in car p + car (cdr p)
             in f 3",
        );
        let n = annotate_sroa(&mut ir, &analysis);
        // Outer pair: projected only — elided. Inner `cons 1 nil` is
        // stored into the outer cell: global-escape, not elided.
        assert_eq!(n, 1);
        assert_eq!(elided_sites(&ir), 1);
        let f = ir.func(nml_syntax::Symbol::intern("f")).unwrap();
        assert!(f.body.to_string().contains("cons[elided]"), "{}", f.body);
    }

    #[test]
    fn returned_cons_is_return_escape() {
        let (ir, analysis) = prep("letrec mk n = cons n nil in car (mk 1)");
        let facts = analyze_sites(&ir, &analysis);
        assert_eq!(facts.len(), 1);
        let fact = facts.values().next().unwrap();
        assert_eq!(fact.state, EscapeState::ReturnEscape);
        assert!(!fact.elidable());
    }

    #[test]
    fn copied_binding_is_aliased() {
        let (mut ir, analysis) = prep(
            "letrec f n = letrec p = cons n nil; q = p in car q
             in f 1",
        );
        let facts = analyze_sites(&ir, &analysis);
        assert!(
            facts.values().any(|f| f.aliased),
            "copy must alias: {facts:?}"
        );
        assert_eq!(annotate_sroa(&mut ir, &analysis), 0);
    }

    #[test]
    fn call_argument_is_arg_escape() {
        let (mut ir, analysis) = prep(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in letrec p = cons 1 (cons 2 nil) in sum p",
        );
        let facts = analyze_sites(&ir, &analysis);
        // sum's parameter is ⟨0,0⟩: the argument cells are arg-escape
        // (must exist for the call) but nothing worse.
        assert!(facts
            .values()
            .all(|f| f.state >= EscapeState::ArgEscape || f.state == EscapeState::GlobalEscape));
        assert_eq!(annotate_sroa(&mut ir, &analysis), 0);
    }

    #[test]
    fn unknown_callee_is_global_escape() {
        let (ir, analysis) = prep(
            "letrec apply f x = f x in
             letrec p = cons 1 nil in apply (lambda(l). car l) p",
        );
        let facts = analyze_sites(&ir, &analysis);
        let p_fact = facts
            .values()
            .find(|f| f.state == EscapeState::GlobalEscape);
        assert!(p_fact.is_some(), "{facts:?}");
    }

    #[test]
    fn captured_binding_is_global_escape() {
        let (mut ir, analysis) = prep(
            "letrec call f = f 0 in
             letrec p = cons 1 nil in call (lambda(x). car p + x)",
        );
        let facts = analyze_sites(&ir, &analysis);
        assert!(
            facts
                .values()
                .any(|f| f.state == EscapeState::GlobalEscape && f.aliased),
            "{facts:?}"
        );
        assert_eq!(annotate_sroa(&mut ir, &analysis), 0);
    }

    #[test]
    fn null_probe_does_not_block_elision() {
        let (mut ir, analysis) = prep(
            "letrec f n = letrec p = cons n nil in if (null p) then 0 else car p
             in f 7",
        );
        assert_eq!(annotate_sroa(&mut ir, &analysis), 1);
    }

    #[test]
    fn stronger_claims_are_not_overridden() {
        let (mut ir, analysis) = prep(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in sum (cons 1 (cons 2 nil))",
        );
        let stacked = crate::stack::annotate_stack(&mut ir, &analysis);
        assert_eq!(stacked, 1);
        annotate_sroa(&mut ir, &analysis);
        let text = ir.body.to_string();
        assert!(text.contains("cons[stack]"), "{text}");
        assert!(!text.contains("cons[elided]"), "{text}");
    }

    #[test]
    fn lambda_local_pair_is_elided_per_invocation() {
        let (mut ir, analysis) = prep(
            "letrec call f = f 4 in
             call (lambda(n). letrec p = cons n (cons n nil) in car p + car (cdr p))",
        );
        assert_eq!(annotate_sroa(&mut ir, &analysis), 1);
    }

    #[test]
    fn facts_agree_with_param_escape() {
        // A let-bound cell passed to a summarized function is only lent
        // to the call (`ArgEscape`) exactly when the paper-level verdict
        // says no part of that parameter escapes; otherwise it escapes
        // for good.
        let (ir, analysis) = prep(
            "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                    id l = l;
                    f n = letrec p = cons n nil in len p;
                    g n = letrec q = cons n nil in car (id q)
             in f 1 + g 2",
        );
        let facts = analyze_sites(&ir, &analysis);
        for (caller, callee) in [("f", "len"), ("g", "id")] {
            let mut site = None;
            ir.func(Symbol::intern(caller)).unwrap().body.walk(|_, e| {
                if let IrExpr::Cons { site: s, .. } = e {
                    site.get_or_insert(*s);
                }
            });
            let site = site.expect("caller allocates");
            let param = analysis.summary(callee).expect("summary").param(0);
            let lent = if param.escapes() {
                EscapeState::GlobalEscape
            } else {
                EscapeState::ArgEscape
            };
            assert_eq!(
                facts[&site].state, lent,
                "{callee}: verdict {}",
                param.verdict
            );
        }
    }
}
