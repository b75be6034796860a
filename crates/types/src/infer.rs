//! Hindley–Milner type inference for nml, with `letrec` SCC decomposition
//! and `car^s` spine annotation.
//!
//! The paper assumes type inference "has already been performed" (§3.1) and
//! that each `car` is annotated as `car^s`, where `s` is the number of
//! spines of its list argument — statically determined by the types. This
//! module performs exactly that: Algorithm W with let-polymorphism, where a
//! `letrec` group is split into strongly connected components so that
//! non-mutually-recursive bindings generalize before their users (the
//! standard ML treatment; without it, a single top-level `letrec` would
//! force every function to be monomorphic).
//!
//! After constraint solving, every node type is *defaulted*: residual type
//! variables are replaced by `int`, producing the **simplest monotype
//! instance** of each polymorphic function. By the paper's polymorphic
//! invariance theorem (§5, Theorem 1) analyzing that instance suffices.

use crate::error::{TypeError, TypeErrorKind};
use crate::ty::{Scheme, Ty, TyVar};
use crate::unify::InferCtx;
use nml_syntax::ast::{Binding, Const, Expr, ExprKind, NodeId, Prim, Program, TyExpr};
use nml_syntax::visit::free_vars;
use nml_syntax::{Span, Symbol};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

/// The result of type inference over a program.
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// Ground (defaulted) type of every expression node.
    pub node_ty: HashMap<NodeId, Ty>,
    /// For every `car` constant node, the spine count `s` of its list
    /// argument type: the node is `car^s`.
    pub car_spines: HashMap<NodeId, u32>,
    /// Schemes of top-level bindings, before defaulting.
    pub top_schemes: BTreeMap<Symbol, Scheme>,
    /// Ground simplest-instance signatures of top-level bindings.
    pub top_sigs: BTreeMap<Symbol, Ty>,
    /// `d`: the maximum spine count of any type in the program (the bound
    /// of the basic escape domain `B_e`).
    pub max_spines: u32,
    /// Nodes whose type contained residual variables and was defaulted.
    pub defaulted_nodes: Vec<NodeId>,
    /// For each variable node that instantiated a polymorphic binding, the
    /// binding's name and the types chosen for its scheme variables, in
    /// scheme-variable order. The types are resolved but **not** defaulted:
    /// when the use site sits inside another polymorphic binding `g`, they
    /// may mention `g`'s scheme variables (see
    /// [`top_scheme_orig_vars`](Self::top_scheme_orig_vars)), which is what
    /// lets the monomorphizer chain instantiations. Drives the
    /// monomorphizer.
    pub instantiations: HashMap<NodeId, (Symbol, Vec<Ty>)>,
    /// For each top-level binding, the *original* inference variable ids of
    /// its scheme, positionally matching `top_schemes[name].vars` (which
    /// are normalized to `'a, 'b, ...`). Instantiation argument vectors are
    /// expressed over these original ids.
    pub top_scheme_orig_vars: BTreeMap<Symbol, Vec<TyVar>>,
}

impl TypeInfo {
    /// The ground type of a node.
    ///
    /// # Panics
    ///
    /// Panics if the node was not part of the inferred program.
    pub fn ty(&self, id: NodeId) -> &Ty {
        self.node_ty
            .get(&id)
            .unwrap_or_else(|| panic!("no type recorded for node {id}"))
    }

    /// The `s` annotation of a `car` node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a `car` constant node.
    pub fn car_spine(&self, id: NodeId) -> u32 {
        *self
            .car_spines
            .get(&id)
            .unwrap_or_else(|| panic!("node {id} is not an annotated car"))
    }

    /// Ground signature of a top-level binding.
    pub fn sig(&self, name: Symbol) -> Option<&Ty> {
        self.top_sigs.get(&name)
    }
}

/// Infers types for a whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered (unbound identifier,
/// unification failure, or occurs-check violation).
pub fn infer_program(program: &Program) -> Result<TypeInfo, TypeError> {
    let mut inf = Inferencer::new();
    let mut env = Env::new();
    let top = inf.letrec_group(&program.bindings, &mut env, program.span)?;
    let body_ty = inf.infer(&program.body, &mut env)?;
    inf.finish(program, top, body_ty)
}

/// Re-infers only the `dirty` top-level bindings of `program`, updating
/// `info` in place. The schemes of every clean binding are *pinned*: they
/// are installed in the environment verbatim from the previous inference,
/// so the dirty subset is checked against exactly the types the rest of
/// the program was checked against. This is sound because top-level
/// schemes are closed (their bodies mention no type variables outside
/// `vars`), so pinning cannot leak inference state across runs.
///
/// The program body is re-inferred when `reinfer_body` is set (the caller
/// edited it) or when any dirty binding's scheme changed — either way its
/// node types are refreshed in place (body node ids are stable across
/// binding edits).
///
/// On success, `info` is updated for the dirty bindings and (possibly) the
/// body: `node_ty`, `car_spines`, `instantiations`, `defaulted_nodes`,
/// `top_schemes`, `top_sigs`, `top_scheme_orig_vars`, and `max_spines`.
/// The domain bound stays *exact* — it can decrease when an edit removes
/// the deepest list type — but only the re-inferred expressions are
/// re-walked: `spines` caches every other binding's deepest spine count,
/// so restoring the bound costs a scan of one `u32` per binding instead
/// of a whole-program walk. `spines` must be positionally in sync with
/// `program.bindings` (kept bindings keep their entries; entries of
/// re-inferred bindings are overwritten here). Entries for node ids that
/// no longer occur in the program are left behind as harmless garbage —
/// node ids are never reused by the grafting caller, so stale entries are
/// never looked up. Returns whether any dirty binding's scheme changed.
///
/// On error, `info` and `spines` are untouched: all inference happens
/// before any merge.
///
/// # Errors
///
/// Returns the first [`TypeError`] in the dirty subset or re-inferred body.
pub fn reinfer_program(
    program: &Program,
    info: &mut TypeInfo,
    dirty: &BTreeSet<Symbol>,
    reinfer_body: bool,
    spines: &mut SpineTable,
) -> Result<bool, TypeError> {
    debug_assert_eq!(spines.bindings.len(), program.bindings.len());
    let mut inf = Inferencer::new();
    let mut env = Env::new();
    // Clean schemes are closed, so they contribute no free type variables
    // to generalization — only the ones the re-inferred expressions
    // actually mention need to be in scope (keeping the environment
    // proportional to the edit, not the program).
    let mut needed: HashSet<Symbol> = HashSet::new();
    for b in &program.bindings {
        if dirty.contains(&b.name) {
            needed.extend(nml_syntax::visit::free_vars(&b.expr));
        }
    }
    let pinned = |name: Symbol| {
        info.top_schemes
            .get(&name)
            .cloned()
            .unwrap_or_else(|| panic!("reinfer: clean binding {name} has no pinned scheme"))
    };
    // Pinned schemes are normalized to `'a, 'b, ...` = `TyVar(0..k)`, the
    // same ids this fresh context hands out first. That they are closed is
    // what keeps the two apart: a closed entry is never resolved through
    // this context's substitution, and instantiation replaces every one of
    // its variables before any unification sees them.
    for b in &program.bindings {
        if !dirty.contains(&b.name) && needed.contains(&b.name) {
            env.push(b.name, pinned(b.name));
        }
    }
    let dirty_bindings: Vec<Binding> = program
        .bindings
        .iter()
        .filter(|b| dirty.contains(&b.name))
        .cloned()
        .collect();
    inf.letrec_group(&dirty_bindings, &mut env, program.span)?;

    // Normalize the fresh schemes exactly as `finish` does, so they are
    // comparable with (and can replace) the pinned ones.
    let mut fresh: Vec<(Symbol, Scheme, Ty, Vec<TyVar>)> = Vec::new();
    let mut schemes_changed = false;
    for b in &dirty_bindings {
        let body_ty = inf.cx.resolve(&inf.node_ty[&b.expr.id]);
        let vars = body_ty.vars();
        let renaming: HashMap<TyVar, Ty> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, Ty::Var(TyVar(i as u32))))
            .collect();
        let scheme = Scheme {
            vars: (0..vars.len() as u32).map(TyVar).collect(),
            ty: body_ty.apply(&renaming),
        };
        if info.top_schemes.get(&b.name) != Some(&scheme) {
            schemes_changed = true;
        }
        fresh.push((b.name, scheme, body_ty.default_vars(), vars));
    }

    let body_reinferred = reinfer_body || schemes_changed;
    if body_reinferred {
        let body_needs = nml_syntax::visit::free_vars(&program.body);
        for b in &program.bindings {
            if !dirty.contains(&b.name) && !needed.contains(&b.name) && body_needs.contains(&b.name)
            {
                env.push(b.name, pinned(b.name));
            }
        }
        inf.infer(&program.body, &mut env)?;
    }

    // All inference succeeded — merge into `info`.
    let cx = &inf.cx;
    let mut defaulted_any = false;
    for (&id, ty) in &inf.node_ty {
        let resolved = cx.resolve(ty);
        let ground = if resolved.has_vars() {
            info.defaulted_nodes.push(id);
            defaulted_any = true;
            resolved.default_vars()
        } else {
            resolved
        };
        info.node_ty.insert(id, ground);
    }
    if defaulted_any {
        info.defaulted_nodes.sort();
        info.defaulted_nodes.dedup();
    }
    for id in &inf.car_nodes {
        match &info.node_ty[id] {
            Ty::Fun(dom, _) => {
                info.car_spines.insert(*id, dom.spines());
            }
            other => unreachable!("car node {id} has non-function type {other}"),
        }
    }
    for (id, (name, args)) in inf.inst {
        let resolved: Vec<Ty> = args.iter().map(|a| cx.resolve(a)).collect();
        info.instantiations.insert(id, (name, resolved));
    }
    for (name, scheme, sig, orig_vars) in fresh {
        info.top_schemes.insert(name, scheme);
        info.top_sigs.insert(name, sig);
        info.top_scheme_orig_vars.insert(name, orig_vars);
    }
    for (i, b) in program.bindings.iter().enumerate() {
        if dirty.contains(&b.name) {
            spines.bindings[i] = expr_max_spines(info, &b.expr);
        }
    }
    if body_reinferred {
        spines.body = expr_max_spines(info, &program.body);
    }
    info.max_spines = spines.max();
    Ok(schemes_changed)
}

/// Maximum spine count over every *live* node of `program` — the exact
/// domain bound `d`, immune to stale `node_ty` entries left behind by
/// [`reinfer_program`].
pub fn program_max_spines(info: &TypeInfo, program: &Program) -> u32 {
    SpineTable::build(info, program).max()
}

/// Maximum spine count over the live nodes of one expression.
pub fn expr_max_spines(info: &TypeInfo, expr: &Expr) -> u32 {
    let mut d = 0;
    nml_syntax::visit::walk_exprs(expr, &mut |e: &Expr| {
        if let Some(t) = info.node_ty.get(&e.id) {
            d = d.max(deep_max_spines(t));
        }
    });
    d
}

/// Per-binding cache of the deepest spine count, letting
/// [`reinfer_program`] restore the exact domain bound `d` after an edit
/// without walking the whole program: only the re-inferred expressions
/// are re-walked, and the global bound is a scan of one `u32` per
/// binding. The caller keeps the table positionally in sync with
/// `Program::bindings` across graft/remove/reorder edits.
#[derive(Debug, Clone)]
pub struct SpineTable {
    /// Deepest spine count per binding, by position in `Program::bindings`.
    pub bindings: Vec<u32>,
    /// Deepest spine count over the program body.
    pub body: u32,
}

impl SpineTable {
    /// Builds the table with one full program walk (cold start).
    pub fn build(info: &TypeInfo, program: &Program) -> SpineTable {
        SpineTable {
            bindings: program
                .bindings
                .iter()
                .map(|b| expr_max_spines(info, &b.expr))
                .collect(),
            body: expr_max_spines(info, &program.body),
        }
    }

    /// The exact domain bound `d` for the current program.
    pub fn max(&self) -> u32 {
        self.bindings.iter().copied().fold(self.body, u32::max)
    }
}

/// A lexical type environment.
///
/// Each entry is either *open* or *closed*; `push` tells them apart from
/// the scheme itself. A closed scheme quantifies every variable of its
/// type, so it has no free type variables now and never will. A
/// quantified variable is reachable only through instantiation, which
/// replaces it with fresh variables before anything is unified; when the
/// scheme was generalized in this context the variable is also unbound in
/// the substitution, and no later unification can bind it. Resolving a
/// closed scheme again would always find the same fully quantified type.
/// Generalization therefore only has to look at the open entries —
/// lambda parameters, the monomorphic placeholders of the SCC being
/// inferred, and schemes that kept a variable free in an enclosing scope.
/// `open` lists their indices into `scopes`, in push order, so one
/// generalization costs O(open entries) instead of O(environment). Every
/// finished top-level scheme is closed (nothing encloses it), as is every
/// pinned scheme of [`reinfer_program`].
#[derive(Debug, Clone, Default)]
struct Env {
    scopes: Vec<(Symbol, Scheme)>,
    open: Vec<usize>,
}

impl Env {
    fn new() -> Self {
        Env::default()
    }

    fn push(&mut self, name: Symbol, scheme: Scheme) {
        let closed = scheme.ty.vars().iter().all(|v| scheme.vars.contains(v));
        if !closed {
            self.open.push(self.scopes.len());
        }
        self.scopes.push((name, scheme));
    }

    fn pop_n(&mut self, n: usize) {
        let len = self.scopes.len() - n;
        self.scopes.truncate(len);
        while self.open.last().is_some_and(|&i| i >= len) {
            self.open.pop();
        }
    }

    fn lookup(&self, name: Symbol) -> Option<&Scheme> {
        self.scopes
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|(_, s)| s)
    }

    /// Type variables free in the environment (after resolution), used to
    /// decide what may be generalized. Only open entries can contribute.
    fn free_ty_vars(&self, cx: &InferCtx) -> HashSet<TyVar> {
        let mut out = HashSet::new();
        for &i in &self.open {
            let scheme = &self.scopes[i].1;
            let resolved = cx.resolve(&scheme.ty);
            for v in resolved.vars() {
                if !scheme.vars.contains(&v) {
                    out.insert(v);
                }
            }
        }
        out
    }
}

struct Inferencer {
    cx: InferCtx,
    node_ty: HashMap<NodeId, Ty>, // pre-resolution types
    /// Var node -> (binding name, fresh vars standing for scheme vars).
    inst: HashMap<NodeId, (Symbol, Vec<Ty>)>,
    car_nodes: Vec<NodeId>,
}

impl Inferencer {
    fn new() -> Self {
        Inferencer {
            cx: InferCtx::new(),
            node_ty: HashMap::new(),
            inst: HashMap::new(),
            car_nodes: Vec::new(),
        }
    }

    fn record(&mut self, id: NodeId, ty: Ty) -> Ty {
        self.node_ty.insert(id, ty.clone());
        ty
    }

    fn prim_scheme(&mut self, p: Prim) -> Ty {
        use Prim::*;
        match p {
            Add | Sub | Mul | Div => Ty::fun_n([Ty::Int, Ty::Int], Ty::Int),
            Eq | Ne | Lt | Le | Gt | Ge => Ty::fun_n([Ty::Int, Ty::Int], Ty::Bool),
            Cons => {
                let a = self.cx.fresh();
                Ty::fun_n([a.clone(), Ty::list(a.clone())], Ty::list(a))
            }
            Car => {
                let a = self.cx.fresh();
                Ty::fun(Ty::list(a.clone()), a)
            }
            Cdr => {
                let a = self.cx.fresh();
                Ty::fun(Ty::list(a.clone()), Ty::list(a))
            }
            Null => {
                let a = self.cx.fresh();
                Ty::fun(Ty::list(a), Ty::Bool)
            }
            MkPair => {
                let a = self.cx.fresh();
                let b = self.cx.fresh();
                Ty::fun_n([a.clone(), b.clone()], Ty::prod(a, b))
            }
            Fst => {
                let a = self.cx.fresh();
                let b = self.cx.fresh();
                Ty::fun(Ty::prod(a.clone(), b), a)
            }
            Snd => {
                let a = self.cx.fresh();
                let b = self.cx.fresh();
                Ty::fun(Ty::prod(a, b.clone()), b)
            }
        }
    }

    fn infer(&mut self, e: &Expr, env: &mut Env) -> Result<Ty, TypeError> {
        let ty = match &e.kind {
            ExprKind::Const(c) => match c {
                Const::Int(_) => Ty::Int,
                Const::Bool(_) => Ty::Bool,
                Const::Nil => Ty::list(self.cx.fresh()),
                Const::Prim(p) => {
                    if *p == Prim::Car {
                        self.car_nodes.push(e.id);
                    }
                    self.prim_scheme(*p)
                }
            },
            ExprKind::Var(x) => {
                let scheme = env
                    .lookup(*x)
                    .ok_or_else(|| {
                        TypeError::new(
                            TypeErrorKind::Unbound {
                                name: x.to_string(),
                            },
                            e.span,
                        )
                    })?
                    .clone();
                if scheme.is_poly() {
                    let args: Vec<Ty> = scheme.vars.iter().map(|_| self.cx.fresh()).collect();
                    self.inst.insert(e.id, (*x, args.clone()));
                    scheme.instantiate_with(&args)
                } else {
                    scheme.ty
                }
            }
            ExprKind::App(f, a) => {
                let fty = self.infer(f, env)?;
                let aty = self.infer(a, env)?;
                let res = self.cx.fresh();
                self.cx.unify(&fty, &Ty::fun(aty, res.clone()), e.span)?;
                res
            }
            ExprKind::Lambda(x, body) => {
                let pty = self.cx.fresh();
                env.push(*x, Scheme::mono(pty.clone()));
                let bty = self.infer(body, env)?;
                env.pop_n(1);
                Ty::fun(pty, bty)
            }
            ExprKind::If(c, t, f) => {
                let cty = self.infer(c, env)?;
                self.cx.unify(&cty, &Ty::Bool, c.span)?;
                let tty = self.infer(t, env)?;
                let fty = self.infer(f, env)?;
                self.cx.unify(&tty, &fty, e.span)?;
                tty
            }
            ExprKind::Letrec(bindings, body) => {
                let n = self.letrec_group(bindings, env, e.span)?;
                let bty = self.infer(body, env)?;
                env.pop_n(n);
                bty
            }
            ExprKind::Annot(inner, surface) => {
                let ity = self.infer(inner, env)?;
                let mut var_map = HashMap::new();
                let want = self.surface_ty(surface, &mut var_map);
                self.cx.unify(&ity, &want, e.span)?;
                ity
            }
        };
        Ok(self.record(e.id, ty))
    }

    fn surface_ty(&mut self, t: &TyExpr, vars: &mut HashMap<Symbol, Ty>) -> Ty {
        match t {
            TyExpr::Int => Ty::Int,
            TyExpr::Bool => Ty::Bool,
            TyExpr::Var(s) => vars.entry(*s).or_insert_with(|| self.cx.fresh()).clone(),
            TyExpr::List(e) => Ty::list(self.surface_ty(e, vars)),
            TyExpr::Prod(a, b) => {
                let a = self.surface_ty(a, vars);
                let b = self.surface_ty(b, vars);
                Ty::prod(a, b)
            }
            TyExpr::Fun(a, b) => {
                let a = self.surface_ty(a, vars);
                let b = self.surface_ty(b, vars);
                Ty::fun(a, b)
            }
        }
    }

    /// Infers a `letrec` group: splits the bindings into strongly connected
    /// components, infers each SCC monomorphically, then generalizes.
    /// Pushes one scheme per binding onto `env` and returns how many.
    fn letrec_group(
        &mut self,
        bindings: &[Binding],
        env: &mut Env,
        _span: Span,
    ) -> Result<usize, TypeError> {
        let sccs = scc_order(bindings);
        for component in &sccs {
            // Monomorphic placeholders for the whole component.
            let placeholders: Vec<Ty> = component.iter().map(|_| self.cx.fresh()).collect();
            for (&idx, ph) in component.iter().zip(&placeholders) {
                env.push(bindings[idx].name, Scheme::mono(ph.clone()));
            }
            for (&idx, ph) in component.iter().zip(&placeholders) {
                let t = self.infer(&bindings[idx].expr, env)?;
                self.cx.unify(ph, &t, bindings[idx].expr.span)?;
            }
            // Replace the monomorphic entries with generalized schemes.
            env.pop_n(component.len());
            let env_vars = env.free_ty_vars(&self.cx);
            for (&idx, ph) in component.iter().zip(&placeholders) {
                let resolved = self.cx.resolve(ph);
                let gen_vars: Vec<TyVar> = resolved
                    .vars()
                    .into_iter()
                    .filter(|v| !env_vars.contains(v))
                    .collect();
                env.push(
                    bindings[idx].name,
                    Scheme {
                        vars: gen_vars,
                        ty: resolved,
                    },
                );
            }
        }
        Ok(bindings.len())
    }

    fn finish(
        self,
        program: &Program,
        _top_count: usize,
        _body_ty: Ty,
    ) -> Result<TypeInfo, TypeError> {
        let cx = &self.cx;
        let mut node_ty = HashMap::with_capacity(self.node_ty.len());
        let mut defaulted_nodes = Vec::new();
        let mut max_spines = 0;
        for (&id, ty) in &self.node_ty {
            let resolved = cx.resolve(ty);
            let ground = if resolved.has_vars() {
                defaulted_nodes.push(id);
                resolved.default_vars()
            } else {
                resolved
            };
            max_spines = max_spines.max(deep_max_spines(&ground));
            node_ty.insert(id, ground);
        }
        defaulted_nodes.sort();

        let mut car_spines = HashMap::new();
        for id in &self.car_nodes {
            let ty = &node_ty[id];
            match ty {
                Ty::Fun(dom, _) => {
                    car_spines.insert(*id, dom.spines());
                }
                other => {
                    unreachable!("car node {id} has non-function type {other}")
                }
            }
        }

        let mut instantiations = HashMap::new();
        for (id, (name, args)) in self.inst {
            let resolved: Vec<Ty> = args.iter().map(|a| cx.resolve(a)).collect();
            instantiations.insert(id, (name, resolved));
        }

        // Top-level schemes and ground signatures. The binding expression's
        // recorded type is the scheme body (pre-instantiation).
        let mut top_schemes = BTreeMap::new();
        let mut top_sigs = BTreeMap::new();
        let mut top_scheme_orig_vars = BTreeMap::new();
        for b in &program.bindings {
            let body_ty = cx.resolve(&self.node_ty[&b.expr.id]);
            // Normalize scheme variables to 'a, 'b, ... in occurrence order.
            // This is purely a renaming: positions are preserved, so the
            // per-use `instantiations` argument vectors still line up.
            let vars = body_ty.vars();
            let renaming: HashMap<TyVar, Ty> = vars
                .iter()
                .enumerate()
                .map(|(i, v)| (*v, Ty::Var(TyVar(i as u32))))
                .collect();
            let scheme = Scheme {
                vars: (0..vars.len() as u32).map(TyVar).collect(),
                ty: body_ty.apply(&renaming),
            };
            top_sigs.insert(b.name, body_ty.default_vars());
            top_schemes.insert(b.name, scheme);
            top_scheme_orig_vars.insert(b.name, vars);
        }

        Ok(TypeInfo {
            node_ty,
            car_spines,
            top_schemes,
            top_sigs,
            max_spines,
            defaulted_nodes,
            instantiations,
            top_scheme_orig_vars,
        })
    }
}

/// Maximum spine count of any sub-type of `t` (parameter and result types
/// of functions contribute: the analysis manipulates values of those types
/// too).
fn deep_max_spines(t: &Ty) -> u32 {
    match t {
        Ty::Int | Ty::Bool | Ty::Var(_) => 0,
        Ty::List(e) => t.spines().max(deep_max_spines(e)),
        Ty::Prod(a, b) | Ty::Fun(a, b) => deep_max_spines(a).max(deep_max_spines(b)),
    }
}

/// Orders the bindings of a `letrec` into strongly connected components,
/// dependencies first (Tarjan's algorithm). Each element of the result is a
/// set of indices into `bindings` forming one mutually recursive group.
pub fn scc_order(bindings: &[Binding]) -> Vec<Vec<usize>> {
    let name_to_idx: HashMap<Symbol, usize> = bindings
        .iter()
        .enumerate()
        .map(|(i, b)| (b.name, i))
        .collect();
    let deps: Vec<Vec<usize>> = bindings
        .iter()
        .map(|b| {
            free_vars(&b.expr)
                .into_iter()
                .filter_map(|v| name_to_idx.get(&v).copied())
                .collect()
        })
        .collect();

    // Iterative Tarjan.
    struct State {
        index: Vec<Option<u32>>,
        low: Vec<u32>,
        on_stack: Vec<bool>,
        stack: Vec<usize>,
        next: u32,
        out: Vec<Vec<usize>>,
    }
    let n = bindings.len();
    let mut st = State {
        index: vec![None; n],
        low: vec![0; n],
        on_stack: vec![false; n],
        stack: Vec::new(),
        next: 0,
        out: Vec::new(),
    };

    fn strongconnect(v: usize, deps: &[Vec<usize>], st: &mut State) {
        // Explicit work stack to avoid Rust-stack recursion on deep graphs.
        enum Frame {
            Enter(usize),
            Resume(usize, usize),
        }
        let mut work = vec![Frame::Enter(v)];
        while let Some(frame) = work.pop() {
            match frame {
                Frame::Enter(v) => {
                    if st.index[v].is_some() {
                        continue;
                    }
                    st.index[v] = Some(st.next);
                    st.low[v] = st.next;
                    st.next += 1;
                    st.stack.push(v);
                    st.on_stack[v] = true;
                    work.push(Frame::Resume(v, 0));
                }
                Frame::Resume(v, mut i) => {
                    let mut descended = false;
                    while i < deps[v].len() {
                        let w = deps[v][i];
                        i += 1;
                        match st.index[w] {
                            None => {
                                work.push(Frame::Resume(v, i));
                                work.push(Frame::Enter(w));
                                descended = true;
                                break;
                            }
                            Some(widx) => {
                                if st.on_stack[w] {
                                    st.low[v] = st.low[v].min(widx);
                                }
                            }
                        }
                    }
                    if descended {
                        continue;
                    }
                    // All successors visited: fold lowlinks of tree children.
                    for &w in &deps[v] {
                        if st.on_stack[w] {
                            st.low[v] = st.low[v].min(st.low[w]);
                        }
                    }
                    if Some(st.low[v]) == st.index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = st.stack.pop().expect("tarjan stack underflow");
                            st.on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        comp.sort_unstable();
                        st.out.push(comp);
                    }
                }
            }
        }
    }

    for v in 0..n {
        if st.index[v].is_none() {
            strongconnect(v, &deps, &mut st);
        }
    }
    st.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_syntax::parse_program;

    fn infer(src: &str) -> TypeInfo {
        let p = parse_program(src).expect("parse");
        infer_program(&p).expect("infer")
    }

    fn sig(info: &TypeInfo, name: &str) -> String {
        info.top_sigs[&Symbol::intern(name)].to_string()
    }

    fn scheme(info: &TypeInfo, name: &str) -> String {
        info.top_schemes[&Symbol::intern(name)].to_string()
    }

    #[test]
    fn monomorphic_function() {
        let info = infer("letrec inc x = x + 1 in inc 2");
        assert_eq!(sig(&info, "inc"), "int -> int");
    }

    #[test]
    fn polymorphic_identity_generalizes() {
        let info = infer("letrec id x = x in id 1");
        assert_eq!(scheme(&info, "id"), "forall 'a. 'a -> 'a");
        assert_eq!(sig(&info, "id"), "int -> int");
    }

    #[test]
    fn append_has_list_scheme() {
        let info = infer(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y)
             in append [1] [2]",
        );
        let s = scheme(&info, "append");
        assert!(s.contains("list ->"), "got {s}");
        assert_eq!(sig(&info, "append"), "int list -> int list -> int list");
    }

    #[test]
    fn scc_allows_polymorphic_use_across_bindings() {
        // `len` must generalize before `use` sees it, even in one letrec.
        let info = infer(
            "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                    use x = len [1] + len [[2]]
             in use 0",
        );
        assert_eq!(scheme(&info, "len"), "forall 'a. 'a list -> int");
    }

    #[test]
    fn mutual_recursion_in_one_scc() {
        let info = infer(
            "letrec even n = if n = 0 then true else odd (n - 1);
                    odd n = if n = 0 then false else even (n - 1)
             in even 4",
        );
        assert_eq!(sig(&info, "even"), "int -> bool");
        assert_eq!(sig(&info, "odd"), "int -> bool");
    }

    #[test]
    fn car_spines_recorded() {
        let p = parse_program("car [[1, 2], [3]]").unwrap();
        let info = infer_program(&p).unwrap();
        // Exactly one car node, annotated car^2 (argument is int list list).
        assert_eq!(info.car_spines.len(), 1);
        assert_eq!(*info.car_spines.values().next().unwrap(), 2);
    }

    #[test]
    fn car_spines_default_to_simplest_instance() {
        // In `first l = car l` at its simplest instance, l : int list, so car^1.
        let info = infer("letrec first l = car l in first [1]");
        assert_eq!(info.car_spines.len(), 1);
        assert_eq!(*info.car_spines.values().next().unwrap(), 1);
    }

    #[test]
    fn max_spines_is_domain_bound() {
        let info = infer("car [[1, 2], [3]]");
        assert_eq!(info.max_spines, 2);
        let info1 = infer("cons 1 nil");
        assert_eq!(info1.max_spines, 1);
        let info0 = infer("1 + 2");
        assert_eq!(info0.max_spines, 0);
    }

    #[test]
    fn unbound_variable_errors() {
        let p = parse_program("foo 1").unwrap();
        let err = infer_program(&p).unwrap_err();
        assert!(matches!(err.kind, TypeErrorKind::Unbound { .. }));
    }

    #[test]
    fn branch_type_mismatch_errors() {
        let p = parse_program("if true then 1 else false").unwrap();
        assert!(infer_program(&p).is_err());
    }

    #[test]
    fn condition_must_be_bool() {
        let p = parse_program("if 1 then 2 else 3").unwrap();
        assert!(infer_program(&p).is_err());
    }

    #[test]
    fn occurs_check_self_application() {
        let p = parse_program("lambda(x). x x").unwrap();
        let err = infer_program(&p).unwrap_err();
        assert!(matches!(err.kind, TypeErrorKind::Occurs { .. }));
    }

    #[test]
    fn ascription_constrains() {
        let info = infer("(nil : int list list)");
        assert_eq!(info.max_spines, 2);
        let p = parse_program("(1 : bool)").unwrap();
        assert!(infer_program(&p).is_err());
    }

    #[test]
    fn instantiations_recorded_for_poly_uses() {
        let src = "letrec id x = x in id [1]";
        let p = parse_program(src).unwrap();
        let info = infer_program(&p).unwrap();
        let insts: Vec<_> = info.instantiations.values().collect();
        assert_eq!(insts.len(), 1);
        let (name, args) = insts[0];
        assert_eq!(name.as_str(), "id");
        assert_eq!(args, &vec![Ty::list(Ty::Int)]);
    }

    #[test]
    fn paper_partition_sort_types() {
        let info = infer(
            r#"
            letrec
              append x y = if (null x) then y
                           else cons (car x) (append (cdr x) y);
              split p x l h =
                if (null x) then (cons l (cons h nil))
                else if (car x) < p
                     then split p (cdr x) (cons (car x) l) h
                     else split p (cdr x) l (cons (car x) h);
              ps x = if (null x) then nil
                     else append (ps (car (split (car x) (cdr x) nil nil)))
                                 (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))))
            in ps [5, 2, 7, 1, 3, 4]
            "#,
        );
        // PS : int list -> int list (paper appendix A)
        assert_eq!(sig(&info, "ps"), "int list -> int list");
        // SPLIT : int -> int list -> int list -> int list -> int list list
        assert_eq!(
            sig(&info, "split"),
            "int -> int list -> int list -> int list -> int list list"
        );
        assert_eq!(info.max_spines, 2);
    }

    #[test]
    fn scc_order_dependencies_first() {
        let p = parse_program("letrec f x = g x; g x = x; h x = f (g x) in h 1").unwrap();
        let order = scc_order(&p.bindings);
        // g (idx 1) must come before f (idx 0); h (idx 2) last.
        let pos = |i: usize| order.iter().position(|c| c.contains(&i)).unwrap();
        assert!(pos(1) < pos(0));
        assert!(pos(0) < pos(2));
        assert_eq!(order.len(), 3);
    }

    #[test]
    fn scc_order_mutual_group() {
        let p = parse_program("letrec even n = odd n; odd n = even n; main x = even x in main 1")
            .unwrap();
        let order = scc_order(&p.bindings);
        assert_eq!(order.len(), 2);
        assert_eq!(order[0], vec![0, 1]);
        assert_eq!(order[1], vec![2]);
    }

    #[test]
    fn tuple_primitives_infer() {
        let info = infer("letrec swap p = (snd p, fst p) in swap (1, [2])");
        assert_eq!(scheme(&info, "swap"), "forall 'a 'b. 'a * 'b -> 'b * 'a");
        assert_eq!(sig(&info, "swap"), "int * int -> int * int");
    }

    #[test]
    fn tuples_of_lists_have_zero_spines_but_components_count() {
        // A pair is not a spine; but its components' spines bound d.
        let info = infer("(fst ([1], [[2]]))");
        assert_eq!(info.max_spines, 2);
    }

    #[test]
    fn tuple_type_mismatch_errors() {
        let p = parse_program("fst [1]").unwrap();
        assert!(infer_program(&p).is_err(), "fst of a list is ill-typed");
    }

    #[test]
    fn higher_order_map_scheme() {
        let info = infer(
            "letrec map f l = if (null l) then nil
                              else cons (f (car l)) (map f (cdr l))
             in map (lambda(x). x + 1) [1, 2]",
        );
        let s = scheme(&info, "map");
        assert_eq!(s, "forall 'a 'b. ('a -> 'b) -> 'a list -> 'b list");
    }

    #[test]
    fn nested_letrec_keeps_lambda_parameter_monomorphic() {
        // `x`'s variable is free in the environment when `f` generalizes,
        // so `f` must not quantify it: using `f` at two element types is
        // a type error.
        let p = parse_program("lambda(x). letrec f y = cons x y in (f [1], f [true])").unwrap();
        assert!(
            infer_program(&p).is_err(),
            "f quantified the parameter of x"
        );
        // Once the lambda's scope is left, the next top-level binding
        // generalizes fully.
        let info = infer(
            "letrec g x = letrec f y = cons x y in f [x];
                    id z = z
             in (g 1, (id 1, id true))",
        );
        assert_eq!(scheme(&info, "g"), "forall 'a. 'a -> 'a list");
        assert_eq!(scheme(&info, "id"), "forall 'a. 'a -> 'a");
    }

    #[test]
    fn env_forgets_open_entries_on_pop() {
        let mut cx = InferCtx::new();
        let mut env = Env::new();
        let closed = Scheme {
            vars: vec![TyVar(0)],
            ty: Ty::Var(TyVar(0)),
        };
        env.push(Symbol::intern("c"), closed);
        let a = cx.fresh();
        env.push(Symbol::intern("x"), Scheme::mono(a.clone()));
        let b = cx.fresh();
        // Bind the open entry's variable: its resolution is what counts.
        cx.unify(&a, &Ty::list(b), Span::DUMMY).unwrap();
        assert_eq!(env.free_ty_vars(&cx), HashSet::from([TyVar(1)]));
        env.pop_n(1);
        assert!(env.open.is_empty());
        // The closed entry's `'a` aliases this context's first variable
        // but is never resolved through it.
        assert!(env.free_ty_vars(&cx).is_empty());
    }

    #[test]
    fn reinfer_generalizes_beside_pinned_polymorphic_scheme() {
        // `len` stays clean and is pinned as `forall 'a. 'a list -> int`;
        // `'a` is `TyVar(0)`, which the fresh context also hands out first
        // (to `id`'s placeholder). `id` must still generalize, or `use`'s
        // two instantiations clash.
        let p = parse_program(
            "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                    id x = if true then x else x;
                    use y = (id 1) + (if (id true) then len [1] else 0)
             in use 0",
        )
        .unwrap();
        let cold = infer_program(&p).expect("infer");
        let mut info = cold.clone();
        let mut spines = SpineTable::build(&info, &p);
        let dirty: BTreeSet<Symbol> = ["id", "use"].into_iter().map(Symbol::intern).collect();
        let changed = reinfer_program(&p, &mut info, &dirty, false, &mut spines)
            .expect("a clean scheme in scope must not block generalization");
        assert!(!changed);
        assert_eq!(info.top_schemes, cold.top_schemes);
        assert_eq!(info.top_sigs, cold.top_sigs);
    }
}
