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

use crate::ir::{AllocMode, IrExpr, IrProgram, SiteId};
use crate::quarantine::walk_ir_mut;
use nml_escape::{state_of_param, AliasClasses, Analysis, EscapeState};
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
    let mut az = SiteAnalyzer {
        analysis,
        states: BTreeMap::new(),
        alias: AliasClasses::new(),
        alias_ids: BTreeMap::new(),
        env: Vec::new(),
    };
    for f in &ir.funcs {
        let base = az.env.len();
        for p in &f.params {
            az.env.push((*p, Vec::new()));
        }
        let result = az.eval(&f.body);
        az.escalate(&result, EscapeState::ReturnEscape);
        az.env.truncate(base);
    }
    let result = az.eval(&ir.body);
    // The program body's value survives to exit (it is printed/read).
    az.escalate(&result, EscapeState::ReturnEscape);
    let mut out = BTreeMap::new();
    for (site, state) in az.states {
        let id = az.alias_ids[&site];
        out.insert(
            site,
            SiteFact {
                state,
                aliased: !az.alias.is_unaliased(id),
            },
        );
    }
    out
}

/// Marks every plain-heap `cons` site whose fact is no-escape and
/// unaliased as [`AllocMode::Elided`]. Returns the number of sites
/// marked. Stronger placement claims (stack/block/pretenure) are never
/// overridden, so this pass composes with the others in any order.
pub fn annotate_sroa(ir: &mut IrProgram, analysis: &Analysis) -> usize {
    let facts = analyze_sites(ir, analysis);
    let mut count = 0;
    let mut mark = |e: &mut IrExpr| {
        if let IrExpr::Cons { alloc, site, .. } = e {
            if *alloc == AllocMode::Heap && facts.get(site).is_some_and(SiteFact::elidable) {
                *alloc = AllocMode::Elided;
                count += 1;
            }
        }
    };
    let mut funcs = std::mem::take(&mut ir.funcs);
    for f in &mut funcs {
        walk_ir_mut(&mut f.body, &mut mark);
    }
    ir.funcs = funcs;
    walk_ir_mut(&mut ir.body, &mut mark);
    count
}

/// Resets every [`AllocMode::Elided`] mark back to plain heap allocation.
/// Used by `--no-sroa` to undo what an earlier pass-manager run licensed.
pub fn strip_sroa(ir: &mut IrProgram) -> usize {
    let mut count = 0;
    let mut strip = |e: &mut IrExpr| {
        if let IrExpr::Cons { alloc, .. } = e {
            if *alloc == AllocMode::Elided {
                *alloc = AllocMode::Heap;
                count += 1;
            }
        }
    };
    let mut funcs = std::mem::take(&mut ir.funcs);
    for f in &mut funcs {
        walk_ir_mut(&mut f.body, &mut strip);
    }
    ir.funcs = funcs;
    walk_ir_mut(&mut ir.body, &mut strip);
    count
}

/// The conservative abstract walk. `env` maps in-scope bindings to the
/// set of sites whose cell the binding may name (innermost last);
/// [`SiteAnalyzer::eval`] returns the site set of an expression's own
/// value.
struct SiteAnalyzer<'a> {
    analysis: &'a Analysis,
    states: BTreeMap<SiteId, EscapeState>,
    alias: AliasClasses,
    alias_ids: BTreeMap<SiteId, u32>,
    env: Vec<(Symbol, Vec<SiteId>)>,
}

impl SiteAnalyzer<'_> {
    fn lookup(&self, x: Symbol) -> Vec<SiteId> {
        self.env
            .iter()
            .rev()
            .find(|(n, _)| *n == x)
            .map(|(_, s)| s.clone())
            .unwrap_or_default()
    }

    fn escalate(&mut self, sites: &[SiteId], st: EscapeState) {
        for s in sites {
            let e = self.states.entry(*s).or_default();
            *e = e.join(st);
        }
    }

    /// Records a second name for each site: its alias class stops being
    /// a singleton.
    fn mark_aliased(&mut self, sites: &[SiteId]) {
        for s in sites {
            let id = self.alias_ids[s];
            let second = self.alias.fresh();
            self.alias.union(id, second);
        }
    }

    fn eval(&mut self, e: &IrExpr) -> Vec<SiteId> {
        match e {
            IrExpr::Const(_) => Vec::new(),
            IrExpr::Var(x) => self.lookup(*x),
            IrExpr::App(..) => self.eval_call(e),
            IrExpr::Lambda { body, param, .. } => {
                // Anything the closure can reach outlives this frame's
                // reasoning: escalate every outer binding the body
                // mentions (over-approximate — inner shadowing ignored).
                let mut freed: Vec<SiteId> = Vec::new();
                crate::ir::walk_ir(body, &mut |n| {
                    if let IrExpr::Var(x) = n {
                        freed.extend(self.lookup(*x));
                    }
                });
                self.escalate(&freed, EscapeState::GlobalEscape);
                self.mark_aliased(&freed);
                // The body's own sites live per invocation of the
                // closure: analyze them in a fresh scope.
                let saved = std::mem::take(&mut self.env);
                self.env.push((*param, Vec::new()));
                let result = self.eval(body);
                self.escalate(&result, EscapeState::ReturnEscape);
                self.env = saved;
                Vec::new()
            }
            IrExpr::If(c, t, f) => {
                let cs = self.eval(c);
                // A condition is a bool; a cell flowing *as* the
                // condition would be a type error, but stay conservative.
                self.escalate(&cs, EscapeState::GlobalEscape);
                let mut s = self.eval(t);
                let fs = self.eval(f);
                for x in fs {
                    if !s.contains(&x) {
                        s.push(x);
                    }
                }
                s
            }
            IrExpr::Letrec(bs, body) => {
                let base = self.env.len();
                for (n, rhs) in bs {
                    let sites = self.eval(rhs);
                    // The defining `n = cons …` is the cell's first
                    // name; any other binding shape that yields cells
                    // (a copy, an if-join, a dcons) is an extra name.
                    let defining = matches!(rhs, IrExpr::Cons { .. });
                    if !defining {
                        self.mark_aliased(&sites);
                    }
                    self.env.push((*n, sites));
                }
                let result = self.eval(body);
                self.env.truncate(base);
                result
            }
            IrExpr::Cons {
                head, tail, site, ..
            } => {
                self.states.entry(*site).or_default();
                let id = self.alias.fresh();
                self.alias_ids.insert(*site, id);
                let hs = self.eval(head);
                self.escalate(&hs, EscapeState::GlobalEscape);
                self.mark_aliased(&hs);
                let ts = self.eval(tail);
                self.escalate(&ts, EscapeState::GlobalEscape);
                self.mark_aliased(&ts);
                vec![*site]
            }
            IrExpr::Dcons {
                reused, head, tail, ..
            } => {
                let rs = self.lookup(*reused);
                self.escalate(&rs, EscapeState::GlobalEscape);
                let hs = self.eval(head);
                self.escalate(&hs, EscapeState::GlobalEscape);
                self.mark_aliased(&hs);
                let ts = self.eval(tail);
                self.escalate(&ts, EscapeState::GlobalEscape);
                self.mark_aliased(&ts);
                rs
            }
            IrExpr::Prim1(p, a) => {
                let s = self.eval(a);
                match p {
                    // Projections and the null probe are exactly the
                    // accesses scalarization can serve: no escalation.
                    Prim::Car | Prim::Cdr | Prim::Null | Prim::Fst | Prim::Snd => {}
                    _ => self.escalate(&s, EscapeState::GlobalEscape),
                }
                // `car p` yields an *element* of the cell, not the cell.
                Vec::new()
            }
            IrExpr::Prim2(_, a, b) => {
                // Arithmetic/comparison: a cell in operand position
                // would be a type error; join conservatively anyway.
                let sa = self.eval(a);
                self.escalate(&sa, EscapeState::ArgEscape);
                let sb = self.eval(b);
                self.escalate(&sb, EscapeState::ArgEscape);
                Vec::new()
            }
            IrExpr::Region { inner, .. } => self.eval(inner),
        }
    }

    /// A (possibly curried) application: escalate every argument's sites
    /// through the callee's summary; the result set is unknown (but any
    /// cell it could contain is already ≥ arg-escape, which blocks
    /// elision, so the empty set is sound *for this lattice's use*).
    fn eval_call(&mut self, e: &IrExpr) -> Vec<SiteId> {
        let mut args: Vec<&IrExpr> = Vec::new();
        let mut cur = e;
        while let IrExpr::App(f, a) = cur {
            args.push(a);
            cur = f;
        }
        args.reverse();
        let head = cur;
        // Per-parameter states when the callee is a known, non-degraded,
        // non-shadowed global with matching arity.
        let summary = match head {
            IrExpr::Var(f)
                if !self.env.iter().any(|(n, _)| n == f) && !self.analysis.is_degraded_sym(*f) =>
            {
                self.analysis
                    .summaries
                    .get(f)
                    .filter(|s| s.arity() == args.len())
            }
            _ => None,
        };
        if !matches!(head, IrExpr::Var(_) | IrExpr::Const(_)) {
            let hs = self.eval(head);
            self.escalate(&hs, EscapeState::GlobalEscape);
        }
        for (j, a) in args.iter().enumerate() {
            let s = self.eval(a);
            let st = match summary {
                Some(sum) if state_of_param(sum.param(j)) == EscapeState::NoEscape => {
                    EscapeState::ArgEscape
                }
                _ => EscapeState::GlobalEscape,
            };
            self.escalate(&s, st);
            // The callee holds another name for the cell during the
            // call; with a no-escape verdict it drops that name, so the
            // defining binding stays the only one after the call.
            if st == EscapeState::GlobalEscape {
                self.mark_aliased(&s);
            }
        }
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{lower_program, walk_ir};
    use nml_escape::analyze_source;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn prep(src: &str) -> (IrProgram, Analysis) {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        let ir = lower_program(&p, &info);
        let analysis = analyze_source(src).expect("analysis");
        (ir, analysis)
    }

    fn elided_sites(ir: &IrProgram) -> usize {
        let mut n = 0;
        let mut count = |e: &IrExpr| {
            if matches!(
                e,
                IrExpr::Cons {
                    alloc: AllocMode::Elided,
                    ..
                }
            ) {
                n += 1;
            }
        };
        for f in &ir.funcs {
            walk_ir(&f.body, &mut count);
        }
        walk_ir(&ir.body, &mut count);
        n
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
            walk_ir(&ir.func(Symbol::intern(caller)).unwrap().body, &mut |e| {
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
