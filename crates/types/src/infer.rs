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
use crate::unify::{GroundTypes, Grounder, InferCtx, Node, TyRef};
use nml_syntax::ast::{Binding, Const, Expr, ExprKind, NodeId, Prim, Program, TyExpr};
use nml_syntax::visit::free_vars;
use nml_syntax::{IdMap, Symbol};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

/// The result of type inference over a program.
#[derive(Debug, Clone)]
pub struct TypeInfo {
    /// Ground (defaulted) type of every expression node. Nodes of equal
    /// type share one allocation.
    pub node_ty: IdMap<NodeId, Arc<Ty>>,
    /// For every `car` constant node, the spine count `s` of its list
    /// argument type: the node is `car^s`.
    pub car_spines: IdMap<NodeId, u32>,
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
    /// Every distinct ground type the tables above hold, hash-consed.
    types: GroundTypes,
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

    /// The deepest spine count of any sub-type of node type `t`
    /// (parameter and result types of functions count: the analysis
    /// manipulates values of those types too), read off the shared type
    /// table.
    fn deep_spines(&self, t: &Arc<Ty>) -> u32 {
        self.types
            .deep_of(t)
            .expect("every node type is an entry of the shared type table")
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

    /// Drops every entry of the nodes in `ids`: their types, `car`
    /// annotations, instantiations and defaulting marks. An edit that
    /// replaces or removes a subtree calls this for the subtree's ids once
    /// the edit is committed, so the tables stay the size of the live
    /// program.
    pub fn forget(&mut self, ids: &HashSet<NodeId>) {
        if ids.is_empty() {
            return;
        }
        for id in ids {
            self.node_ty.remove(id);
            self.car_spines.remove(id);
            self.instantiations.remove(id);
        }
        self.defaulted_nodes.retain(|id| !ids.contains(id));
    }
}

/// Infers types for a whole program.
///
/// # Errors
///
/// Returns the first [`TypeError`] encountered (unbound identifier,
/// unification failure, or occurs-check violation).
pub fn infer_program(program: &Program) -> Result<TypeInfo, TypeError> {
    let mut inf = Inferencer::new(program.next_node_id as usize);
    let mut env = Env::new();
    let top = inf.letrec_group(&program.bindings, &mut env)?;
    inf.infer(&program.body, &mut env)?;
    Ok(inf.finish(program, &top))
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
/// Every re-inferred node's entries are replaced, including its
/// instantiation and defaulting marks, which an edit elsewhere can remove.
/// The domain bound stays *exact* — it can decrease when an edit removes
/// the deepest list type — but only the re-inferred expressions are
/// re-walked: `spines` caches every other binding's deepest spine count,
/// so restoring the bound costs a scan of one `u32` per binding instead
/// of a whole-program walk. `spines` must be positionally in sync with
/// `program.bindings` (kept bindings keep their entries; entries of
/// re-inferred bindings are overwritten here). Entries of node ids that
/// no longer occur in the program are the caller's to drop, with
/// [`TypeInfo::forget`], once it commits the edit. Returns whether any
/// dirty binding's scheme changed.
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
    // The dirty bindings' size is not known up front; the table grows.
    let mut inf = Inferencer::new(0);
    let mut env = Env::new();
    // Clean schemes are closed, so they contribute no free type variables
    // to generalization — only the ones the re-inferred expressions
    // actually mention need to be in scope (keeping the environment
    // proportional to the edit, not the program).
    let mut needed: HashSet<Symbol> = HashSet::new();
    for b in &program.bindings {
        if dirty.contains(&b.name) {
            needed.extend(free_vars(&b.expr));
        }
    }
    let pin = |name: Symbol, env: &mut Env, cx: &mut InferCtx| {
        let scheme = info
            .top_schemes
            .get(&name)
            .unwrap_or_else(|| panic!("reinfer: clean binding {name} has no pinned scheme"));
        env.push_pinned(name, scheme, cx);
    };
    for b in &program.bindings {
        if !dirty.contains(&b.name) && needed.contains(&b.name) {
            pin(b.name, &mut env, &mut inf.cx);
        }
    }
    let dirty_bindings: Vec<Binding> = program
        .bindings
        .iter()
        .filter(|b| dirty.contains(&b.name))
        .cloned()
        .collect();
    let tys = inf.letrec_group(&dirty_bindings, &mut env)?;

    // Normalize the fresh schemes exactly as `finish` does, so they are
    // comparable with (and can replace) the pinned ones.
    let mut fresh: Vec<(Symbol, Scheme, Ty, Vec<TyVar>)> = Vec::new();
    let mut schemes_changed = false;
    for (b, &t) in dirty_bindings.iter().zip(&tys) {
        let body_ty = inf.cx.to_ty(t);
        let (scheme, vars) = normalize(&body_ty);
        if info.top_schemes.get(&b.name) != Some(&scheme) {
            schemes_changed = true;
        }
        fresh.push((b.name, scheme, body_ty.default_vars(), vars));
    }

    let body_reinferred = reinfer_body || schemes_changed;
    if body_reinferred {
        let body_needs = free_vars(&program.body);
        for b in &program.bindings {
            if !dirty.contains(&b.name) && !needed.contains(&b.name) && body_needs.contains(&b.name)
            {
                pin(b.name, &mut env, &mut inf.cx);
            }
        }
        inf.infer(&program.body, &mut env)?;
    }

    // All inference succeeded — merge into `info`. A re-inferred node
    // keeps no instantiation or defaulting mark from before. Its type is
    // grounded into the table the rest of the program's types share.
    let cx = &inf.cx;
    let redone: HashSet<NodeId> = inf.node_ty.iter().map(|&(id, _)| id).collect();
    for id in &redone {
        info.instantiations.remove(id);
    }
    info.defaulted_nodes.retain(|id| !redone.contains(id));
    let mut grounder = Grounder::new(cx);
    for &(id, t) in &inf.node_ty {
        let (ty, defaulted) = grounder.ground(t, &mut info.types);
        info.node_ty.insert(id, info.types.ty(ty));
        if defaulted {
            info.defaulted_nodes.push(id);
        }
    }
    info.defaulted_nodes.sort_unstable();
    for &(id, t) in &inf.car_nodes {
        info.car_spines.insert(id, car_spine(cx, id, t));
    }
    for (id, name, args) in &inf.inst {
        let resolved: Vec<Ty> = args.iter().map(|&a| cx.to_ty(a)).collect();
        info.instantiations.insert(*id, (*name, resolved));
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

/// A top-level scheme with its variables renamed to `'a, 'b, ...` in
/// occurrence order, and the original variables in the same order. The
/// renaming preserves positions, so the per-use `instantiations` argument
/// vectors still line up.
fn normalize(body_ty: &Ty) -> (Scheme, Vec<TyVar>) {
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
    (scheme, vars)
}

/// The `s` of a `car` node whose type is `t`: the spine count of its
/// argument type at the simplest instance.
fn car_spine(cx: &InferCtx, id: NodeId, t: TyRef) -> u32 {
    match cx.head(t) {
        Node::Fun(dom, _) => cx.spines(dom),
        _ => unreachable!("car node {id} has non-function type {}", cx.to_ty(t)),
    }
}

/// Maximum spine count over every *live* node of `program` — the exact
/// domain bound `d`, immune to `node_ty` entries of nodes an edit retired
/// and [`TypeInfo::forget`] has not dropped yet.
pub fn program_max_spines(info: &TypeInfo, program: &Program) -> u32 {
    SpineTable::build(info, program).max()
}

/// Maximum spine count over the live nodes of one expression.
pub fn expr_max_spines(info: &TypeInfo, expr: &Expr) -> u32 {
    let mut d = 0;
    nml_syntax::visit::walk_exprs(expr, &mut |e: &Expr| {
        if let Some(t) = info.node_ty.get(&e.id) {
            d = d.max(info.deep_spines(t));
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
/// An entry is a type in the inference context plus the variables its
/// scheme quantifies. Each entry is either *open* or *closed*; `push` is
/// told which. A closed scheme quantifies every variable of its type, so
/// it has no free type variables now and never will. A quantified
/// variable is reachable only through instantiation, which replaces it
/// with fresh variables before anything is unified; it is unbound in the
/// context, and no later unification can bind it. Resolving a closed
/// scheme again would always find the same fully quantified type.
/// Generalization therefore only has to look at the open entries —
/// lambda parameters, the monomorphic placeholders of the SCC being
/// inferred, and schemes that kept a variable free in an enclosing scope.
/// `open` lists their indices into `scopes`, in push order, so one
/// generalization costs O(open entries) instead of O(environment). Every
/// finished top-level scheme is closed (nothing encloses it), as is every
/// pinned scheme of [`reinfer_program`].
#[derive(Debug, Default)]
struct Env {
    scopes: Vec<Entry>,
    open: Vec<usize>,
}

#[derive(Debug)]
struct Entry {
    name: Symbol,
    ty: TyRef,
    /// The quantified variables; empty for a monomorphic entry.
    vars: Vec<TyVar>,
}

impl Env {
    fn new() -> Self {
        Env::default()
    }

    fn push(&mut self, name: Symbol, ty: TyRef, vars: Vec<TyVar>, closed: bool) {
        if !closed {
            self.open.push(self.scopes.len());
        }
        self.scopes.push(Entry { name, ty, vars });
    }

    /// Pushes a monomorphic entry for a variable type: always open.
    fn push_mono(&mut self, name: Symbol, ty: TyRef) {
        self.push(name, ty, Vec::new(), false);
    }

    /// Pushes a closed scheme from a previous inference. Its quantified
    /// variables become new variables of `cx`, so they alias none of the
    /// variables `cx` hands out for the expressions being inferred.
    fn push_pinned(&mut self, name: Symbol, scheme: &Scheme, cx: &mut InferCtx) {
        let map: Vec<(TyVar, TyRef)> = scheme.vars.iter().map(|&v| (v, cx.fresh())).collect();
        let ty = cx.intern(&scheme.ty, &map);
        let vars = map
            .iter()
            .map(|&(_, r)| match cx.head(r) {
                Node::Var(v) => v,
                _ => unreachable!("a fresh variable is unbound"),
            })
            .collect();
        self.push(name, ty, vars, true);
    }

    fn pop_n(&mut self, n: usize) {
        let len = self.scopes.len() - n;
        self.scopes.truncate(len);
        while self.open.last().is_some_and(|&i| i >= len) {
            self.open.pop();
        }
    }

    fn lookup(&self, name: Symbol) -> Option<&Entry> {
        self.scopes.iter().rev().find(|e| e.name == name)
    }

    /// Type variables free in the environment (after resolution), used to
    /// decide what may be generalized. Only open entries can contribute.
    fn free_ty_vars(&self, cx: &InferCtx) -> HashSet<TyVar> {
        let mut out = HashSet::new();
        let mut vars = Vec::new();
        for &i in &self.open {
            let entry = &self.scopes[i];
            vars.clear();
            cx.vars(entry.ty, &mut vars);
            out.extend(vars.iter().filter(|v| !entry.vars.contains(v)));
        }
        out
    }
}

struct Inferencer {
    cx: InferCtx,
    /// Every visited node with its type, in visit order.
    node_ty: Vec<(NodeId, TyRef)>,
    /// Var node, binding name, fresh vars standing for the scheme vars.
    inst: Vec<(NodeId, Symbol, Vec<TyRef>)>,
    /// Every `car` node with its type.
    car_nodes: Vec<(NodeId, TyRef)>,
    /// `int -> int -> int`, shared by the arithmetic primitives.
    arith: TyRef,
    /// `int -> int -> bool`, shared by the comparisons.
    compare: TyRef,
}

impl Inferencer {
    /// An inferencer with room for `ast_nodes` expression nodes.
    fn new(ast_nodes: usize) -> Self {
        let mut cx = InferCtx::new(ast_nodes);
        let int_to_int = cx.fun(InferCtx::INT, InferCtx::INT);
        let arith = cx.fun(InferCtx::INT, int_to_int);
        let int_to_bool = cx.fun(InferCtx::INT, InferCtx::BOOL);
        let compare = cx.fun(InferCtx::INT, int_to_bool);
        Inferencer {
            cx,
            node_ty: Vec::with_capacity(ast_nodes),
            inst: Vec::new(),
            car_nodes: Vec::new(),
            arith,
            compare,
        }
    }

    fn prim_scheme(&mut self, p: Prim) -> TyRef {
        use Prim::*;
        let cx = &mut self.cx;
        match p {
            Add | Sub | Mul | Div => self.arith,
            Eq | Ne | Lt | Le | Gt | Ge => self.compare,
            Cons => {
                let a = cx.fresh();
                let la = cx.list(a);
                let rest = cx.fun(la, la);
                cx.fun(a, rest)
            }
            Car => {
                let a = cx.fresh();
                let la = cx.list(a);
                cx.fun(la, a)
            }
            Cdr => {
                let a = cx.fresh();
                let la = cx.list(a);
                cx.fun(la, la)
            }
            Null => {
                let a = cx.fresh();
                let la = cx.list(a);
                cx.fun(la, InferCtx::BOOL)
            }
            MkPair => {
                let a = cx.fresh();
                let b = cx.fresh();
                let ab = cx.prod(a, b);
                let rest = cx.fun(b, ab);
                cx.fun(a, rest)
            }
            Fst => {
                let a = cx.fresh();
                let b = cx.fresh();
                let ab = cx.prod(a, b);
                cx.fun(ab, a)
            }
            Snd => {
                let a = cx.fresh();
                let b = cx.fresh();
                let ab = cx.prod(a, b);
                cx.fun(ab, b)
            }
        }
    }

    fn infer(&mut self, e: &Expr, env: &mut Env) -> Result<TyRef, TypeError> {
        let ty = match &e.kind {
            ExprKind::Const(c) => match c {
                Const::Int(_) => InferCtx::INT,
                Const::Bool(_) => InferCtx::BOOL,
                Const::Nil => {
                    let a = self.cx.fresh();
                    self.cx.list(a)
                }
                Const::Prim(p) => {
                    let t = self.prim_scheme(*p);
                    if *p == Prim::Car {
                        self.car_nodes.push((e.id, t));
                    }
                    t
                }
            },
            ExprKind::Var(x) => {
                let entry = env.lookup(*x).ok_or_else(|| {
                    TypeError::new(
                        TypeErrorKind::Unbound {
                            name: x.to_string(),
                        },
                        e.span,
                    )
                })?;
                if entry.vars.is_empty() {
                    entry.ty
                } else {
                    let args: Vec<TyRef> = entry.vars.iter().map(|_| self.cx.fresh()).collect();
                    let t = self.cx.instantiate(entry.ty, &entry.vars, &args);
                    self.inst.push((e.id, *x, args));
                    t
                }
            }
            ExprKind::App(f, a) => {
                let fty = self.infer(f, env)?;
                let aty = self.infer(a, env)?;
                let res = self.cx.fresh();
                let want = self.cx.fun(aty, res);
                self.cx.unify(fty, want, e.span)?;
                res
            }
            ExprKind::Lambda(x, body) => {
                let pty = self.cx.fresh();
                env.push_mono(*x, pty);
                let bty = self.infer(body, env)?;
                env.pop_n(1);
                self.cx.fun(pty, bty)
            }
            ExprKind::If(c, t, f) => {
                let cty = self.infer(c, env)?;
                self.cx.unify(cty, InferCtx::BOOL, c.span)?;
                let tty = self.infer(t, env)?;
                let fty = self.infer(f, env)?;
                self.cx.unify(tty, fty, e.span)?;
                tty
            }
            ExprKind::Letrec(bindings, body) => {
                let n = self.letrec_group(bindings, env)?.len();
                let bty = self.infer(body, env)?;
                env.pop_n(n);
                bty
            }
            ExprKind::Annot(inner, surface) => {
                let ity = self.infer(inner, env)?;
                let want = self.surface_ty(surface, &mut Vec::new());
                self.cx.unify(ity, want, e.span)?;
                ity
            }
        };
        self.node_ty.push((e.id, ty));
        Ok(ty)
    }

    /// The type a surface annotation names, with one fresh variable per
    /// distinct type-variable name, handed out left to right.
    fn surface_ty(&mut self, t: &TyExpr, vars: &mut Vec<(Symbol, TyRef)>) -> TyRef {
        match t {
            TyExpr::Int => InferCtx::INT,
            TyExpr::Bool => InferCtx::BOOL,
            TyExpr::Var(s) => match vars.iter().find(|(n, _)| n == s) {
                Some(&(_, r)) => r,
                None => {
                    let r = self.cx.fresh();
                    vars.push((*s, r));
                    r
                }
            },
            TyExpr::List(e) => {
                let e = self.surface_ty(e, vars);
                self.cx.list(e)
            }
            TyExpr::Prod(a, b) => {
                let a = self.surface_ty(a, vars);
                let b = self.surface_ty(b, vars);
                self.cx.prod(a, b)
            }
            TyExpr::Fun(a, b) => {
                let a = self.surface_ty(a, vars);
                let b = self.surface_ty(b, vars);
                self.cx.fun(a, b)
            }
        }
    }

    /// Infers a `letrec` group: splits the bindings into strongly connected
    /// components, infers each SCC monomorphically, then generalizes.
    /// Pushes one scheme per binding onto `env` and returns each binding's
    /// type, by position in `bindings`.
    fn letrec_group(
        &mut self,
        bindings: &[Binding],
        env: &mut Env,
    ) -> Result<Vec<TyRef>, TypeError> {
        let mut tys = vec![InferCtx::INT; bindings.len()];
        for component in &scc_order(bindings) {
            // Monomorphic placeholders for the whole component.
            let placeholders: Vec<TyRef> = component.iter().map(|_| self.cx.fresh()).collect();
            for (&idx, &ph) in component.iter().zip(&placeholders) {
                env.push_mono(bindings[idx].name, ph);
            }
            for (&idx, &ph) in component.iter().zip(&placeholders) {
                let t = self.infer(&bindings[idx].expr, env)?;
                self.cx.unify(ph, t, bindings[idx].expr.span)?;
                tys[idx] = t;
            }
            // Replace the monomorphic entries with generalized schemes.
            env.pop_n(component.len());
            let env_vars = env.free_ty_vars(&self.cx);
            for (&idx, &ph) in component.iter().zip(&placeholders) {
                let mut vars = Vec::new();
                self.cx.vars(ph, &mut vars);
                let all = vars.len();
                vars.retain(|v| !env_vars.contains(v));
                let closed = vars.len() == all;
                env.push(bindings[idx].name, ph, vars, closed);
            }
        }
        Ok(tys)
    }

    /// Builds the [`TypeInfo`]. Node types are grounded once per
    /// distinct table handle into one shared [`Ty`] per distinct type, so
    /// defaulting and the spine bound are computed once per type, not per
    /// node. Top-level binding `i` has type `top[i]`.
    fn finish(self, program: &Program, top: &[TyRef]) -> TypeInfo {
        let cx = &self.cx;
        let mut types = GroundTypes::new();
        let mut grounder = Grounder::new(cx);
        let mut node_ty = IdMap::with_capacity_and_hasher(self.node_ty.len(), Default::default());
        let mut defaulted_nodes = Vec::new();
        let mut max_spines = 0;
        for &(id, t) in &self.node_ty {
            let (ty, defaulted) = grounder.ground(t, &mut types);
            if defaulted {
                defaulted_nodes.push(id);
            }
            max_spines = max_spines.max(types.deep(ty));
            node_ty.insert(id, types.ty(ty));
        }
        defaulted_nodes.sort_unstable();

        let car_spines = self
            .car_nodes
            .iter()
            .map(|&(id, t)| (id, car_spine(cx, id, t)))
            .collect();

        let instantiations = self
            .inst
            .iter()
            .map(|(id, name, args)| (*id, (*name, args.iter().map(|&a| cx.to_ty(a)).collect())))
            .collect();

        // Top-level schemes and ground signatures. The binding expression's
        // type is the scheme body (pre-instantiation).
        let mut top_schemes = BTreeMap::new();
        let mut top_sigs = BTreeMap::new();
        let mut top_scheme_orig_vars = BTreeMap::new();
        for (b, &t) in program.bindings.iter().zip(top) {
            let body_ty = cx.to_ty(t);
            let (scheme, vars) = normalize(&body_ty);
            top_sigs.insert(b.name, body_ty.default_vars());
            top_schemes.insert(b.name, scheme);
            top_scheme_orig_vars.insert(b.name, vars);
        }

        TypeInfo {
            node_ty,
            car_spines,
            top_schemes,
            top_sigs,
            max_spines,
            defaulted_nodes,
            instantiations,
            top_scheme_orig_vars,
            types,
        }
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
    use nml_syntax::{parse_program, Span};

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
        let mut cx = InferCtx::new(0);
        let mut env = Env::new();
        let closed = Scheme {
            vars: vec![TyVar(0)],
            ty: Ty::list(Ty::Var(TyVar(0))),
        };
        env.push_pinned(Symbol::intern("c"), &closed, &mut cx);
        let a = cx.fresh();
        env.push_mono(Symbol::intern("x"), a);
        let b = cx.fresh();
        // Bind the open entry's variable: its resolution is what counts.
        let lb = cx.list(b);
        cx.unify(a, lb, Span::DUMMY).unwrap();
        assert_eq!(env.free_ty_vars(&cx), HashSet::from([TyVar(2)]));
        env.pop_n(1);
        assert!(env.open.is_empty());
        // The pinned entry's `'a` became a variable of its own, which
        // the closed entry quantifies.
        let c = env.lookup(Symbol::intern("c")).unwrap();
        assert_eq!(c.vars, vec![TyVar(0)]);
        assert_eq!(cx.to_ty(c.ty), Ty::list(Ty::Var(TyVar(0))));
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
