//! The unification engine: a flat table of type nodes, with one binding
//! slot per type variable.
//!
//! A type under inference is a [`TyRef`], a handle into the table. Its
//! node is `int`, `bool`, a variable, or a constructor over further
//! handles. Building a constructor is one push onto the table, and
//! reading a node is one copy. Binding a variable writes its slot. No
//! `Arc` tree is built until inference is over and a caller asks for a
//! [`Ty`] ([`InferCtx::to_ty`], or a [`Grounder`], which builds one shared
//! `Ty` per distinct ground type into a [`GroundTypes`] table).
//!
//! Two choices keep every observable result equal to a substitution over
//! [`Ty`] trees. [`InferCtx::fresh`] numbers variables in allocation
//! order. [`InferCtx::unify`] binds the *left* variable to the right term
//! when both sides are variables. So which variable ends up as a root,
//! and hence every variable id, normalized scheme and error message, is
//! fixed by the order of the calls alone. There is no union by rank,
//! which would pick roots by size instead.

use crate::error::{TypeError, TypeErrorKind};
use crate::ty::{Ty, TyVar};
use nml_syntax::{IdMap, Span};
use std::sync::Arc;

/// A handle to a node of an [`InferCtx`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct TyRef(u32);

/// One node of the table. Children are handles, so a node is `Copy`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Node {
    Int,
    Bool,
    Var(TyVar),
    List(TyRef),
    Prod(TyRef, TyRef),
    Fun(TyRef, TyRef),
}

/// An inference context: the node table plus a binding slot per variable.
#[derive(Debug)]
pub(crate) struct InferCtx {
    nodes: Vec<Node>,
    /// What each variable is bound to, indexed by [`TyVar`] id.
    binding: Vec<Option<TyRef>>,
}

impl InferCtx {
    /// The shared `int` node.
    pub(crate) const INT: TyRef = TyRef(0);
    /// The shared `bool` node.
    pub(crate) const BOOL: TyRef = TyRef(1);

    /// Creates a context holding only the `int` and `bool` nodes, with
    /// room for inferring `ast_nodes` expression nodes. Inference makes
    /// about two table nodes and one variable per expression node;
    /// reserving them up front spares the table its chain of copies as
    /// it grows, and the heap the holes they leave.
    pub(crate) fn new(ast_nodes: usize) -> Self {
        let mut nodes = Vec::with_capacity(2 * ast_nodes + 2);
        nodes.extend([Node::Int, Node::Bool]);
        InferCtx {
            nodes,
            binding: Vec::with_capacity(ast_nodes),
        }
    }

    fn push(&mut self, node: Node) -> TyRef {
        let r = TyRef(self.nodes.len() as u32);
        self.nodes.push(node);
        r
    }

    /// Allocates a fresh, unbound type variable.
    pub(crate) fn fresh(&mut self) -> TyRef {
        let v = TyVar(self.binding.len() as u32);
        self.binding.push(None);
        self.push(Node::Var(v))
    }

    /// Builds `elem list`.
    pub(crate) fn list(&mut self, elem: TyRef) -> TyRef {
        self.push(Node::List(elem))
    }

    /// Builds `a * b`.
    pub(crate) fn prod(&mut self, a: TyRef, b: TyRef) -> TyRef {
        self.push(Node::Prod(a, b))
    }

    /// Builds `dom -> cod`.
    pub(crate) fn fun(&mut self, dom: TyRef, cod: TyRef) -> TyRef {
        self.push(Node::Fun(dom, cod))
    }

    /// Follows variable bindings to the first node that is not a bound
    /// variable.
    fn shallow(&self, mut t: TyRef) -> TyRef {
        while let Node::Var(v) = self.nodes[t.0 as usize] {
            match self.binding[v.0 as usize] {
                Some(bound) => t = bound,
                None => break,
            }
        }
        t
    }

    /// The node `t` resolves to at its head.
    pub(crate) fn head(&self, t: TyRef) -> Node {
        self.nodes[self.shallow(t).0 as usize]
    }

    /// Adds `t` to the table with its variables renamed by `map`; a
    /// variable `map` leaves out is an error in the caller.
    pub(crate) fn intern(&mut self, t: &Ty, map: &[(TyVar, TyRef)]) -> TyRef {
        match t {
            Ty::Int => Self::INT,
            Ty::Bool => Self::BOOL,
            Ty::Var(v) => {
                map.iter()
                    .find(|(w, _)| w == v)
                    .unwrap_or_else(|| panic!("intern: variable {v} is not mapped"))
                    .1
            }
            Ty::List(e) => {
                let e = self.intern(e, map);
                self.list(e)
            }
            Ty::Prod(a, b) => {
                let a = self.intern(a, map);
                let b = self.intern(b, map);
                self.prod(a, b)
            }
            Ty::Fun(a, b) => {
                let a = self.intern(a, map);
                let b = self.intern(b, map);
                self.fun(a, b)
            }
        }
    }

    /// Copies `t` with each unbound variable of `vars` replaced by the
    /// handle at the same position of `args`. Sub-terms that mention none
    /// of `vars` are shared, not copied.
    pub(crate) fn instantiate(&mut self, t: TyRef, vars: &[TyVar], args: &[TyRef]) -> TyRef {
        let t = self.shallow(t);
        match self.nodes[t.0 as usize] {
            Node::Int | Node::Bool => t,
            Node::Var(v) => vars.iter().position(|w| *w == v).map_or(t, |i| args[i]),
            Node::List(e) => {
                let e2 = self.instantiate(e, vars, args);
                if e2 == e {
                    t
                } else {
                    self.list(e2)
                }
            }
            Node::Prod(a, b) => {
                let (a2, b2) = (
                    self.instantiate(a, vars, args),
                    self.instantiate(b, vars, args),
                );
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.prod(a2, b2)
                }
            }
            Node::Fun(a, b) => {
                let (a2, b2) = (
                    self.instantiate(a, vars, args),
                    self.instantiate(b, vars, args),
                );
                if (a2, b2) == (a, b) {
                    t
                } else {
                    self.fun(a2, b2)
                }
            }
        }
    }

    /// Builds the fully resolved [`Ty`] of `t`; unbound variables stay.
    pub(crate) fn to_ty(&self, t: TyRef) -> Ty {
        match self.head(t) {
            Node::Int => Ty::Int,
            Node::Bool => Ty::Bool,
            Node::Var(v) => Ty::Var(v),
            Node::List(e) => Ty::list(self.to_ty(e)),
            Node::Prod(a, b) => Ty::prod(self.to_ty(a), self.to_ty(b)),
            Node::Fun(a, b) => Ty::fun(self.to_ty(a), self.to_ty(b)),
        }
    }

    /// The spine count of `t` once defaulted (Definition 1).
    pub(crate) fn spines(&self, t: TyRef) -> u32 {
        match self.head(t) {
            Node::List(e) => 1 + self.spines(e),
            _ => 0,
        }
    }

    /// Appends the unbound variables of `t` to `out` in order of first
    /// occurrence, as [`Ty::vars`] lists them on the resolved type.
    pub(crate) fn vars(&self, t: TyRef, out: &mut Vec<TyVar>) {
        match self.head(t) {
            Node::Int | Node::Bool => {}
            Node::Var(v) => {
                if !out.contains(&v) {
                    out.push(v);
                }
            }
            Node::List(e) => self.vars(e, out),
            Node::Prod(a, b) | Node::Fun(a, b) => {
                self.vars(a, out);
                self.vars(b, out);
            }
        }
    }

    fn occurs(&self, v: TyVar, t: TyRef) -> bool {
        match self.head(t) {
            Node::Int | Node::Bool => false,
            Node::Var(w) => v == w,
            Node::List(e) => self.occurs(v, e),
            Node::Prod(a, b) | Node::Fun(a, b) => self.occurs(v, a) || self.occurs(v, b),
        }
    }

    /// Unifies `a` with `b`. Where one side is an unbound variable it is
    /// bound to the other side, the left one if both are.
    ///
    /// # Errors
    ///
    /// Returns a [`TypeError`] at `span` on constructor mismatch or a
    /// failed occurs check.
    pub(crate) fn unify(&mut self, a: TyRef, b: TyRef, span: Span) -> Result<(), TypeError> {
        let a = self.shallow(a);
        let b = self.shallow(b);
        match (self.nodes[a.0 as usize], self.nodes[b.0 as usize]) {
            (Node::Int, Node::Int) | (Node::Bool, Node::Bool) => Ok(()),
            (Node::Var(v), Node::Var(w)) if v == w => Ok(()),
            (Node::Var(v), _) => self.bind(v, b, span),
            (_, Node::Var(w)) => self.bind(w, a, span),
            (Node::List(x), Node::List(y)) => self.unify(x, y, span),
            (Node::Prod(a1, b1), Node::Prod(a2, b2)) | (Node::Fun(a1, b1), Node::Fun(a2, b2)) => {
                self.unify(a1, a2, span)?;
                self.unify(b1, b2, span)
            }
            _ => Err(TypeError::new(
                TypeErrorKind::Mismatch {
                    expected: self.to_ty(a),
                    found: self.to_ty(b),
                },
                span,
            )),
        }
    }

    fn bind(&mut self, v: TyVar, t: TyRef, span: Span) -> Result<(), TypeError> {
        if self.occurs(v, t) {
            return Err(TypeError::new(
                TypeErrorKind::Occurs {
                    var: v,
                    ty: self.to_ty(t),
                },
                span,
            ));
        }
        self.binding[v.0 as usize] = Some(t);
        Ok(())
    }
}

/// Hash-consed ground types: one shared [`Ty`] per distinct type, with
/// its spine counts computed once. A type's id indexes every vector; its
/// children are built first, so ids are in dependency order.
#[derive(Debug, Clone)]
pub(crate) struct GroundTypes {
    tys: Vec<Arc<Ty>>,
    /// Spine count of each type (Definition 1).
    spines: Vec<u32>,
    /// Deepest spine count of any sub-type of each type.
    deep: Vec<u32>,
    ids: IdMap<Shape, u32>,
    /// Allocation address of each type to its id, for callers that hold
    /// the shared `Arc` of a node.
    by_addr: IdMap<usize, u32>,
}

/// One ground type over the ids of its children.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Shape {
    Int,
    Bool,
    List(u32),
    Prod(u32, u32),
    Fun(u32, u32),
}

impl GroundTypes {
    const INT: u32 = 0;
    const BOOL: u32 = 1;

    pub(crate) fn new() -> Self {
        let mut t = GroundTypes {
            tys: Vec::new(),
            spines: Vec::new(),
            deep: Vec::new(),
            ids: IdMap::default(),
            by_addr: IdMap::default(),
        };
        t.intern(Shape::Int);
        t.intern(Shape::Bool);
        t
    }

    /// The shared type of `id`.
    pub(crate) fn ty(&self, id: u32) -> Arc<Ty> {
        Arc::clone(&self.tys[id as usize])
    }

    /// The deepest spine count of any sub-type of type `id`.
    pub(crate) fn deep(&self, id: u32) -> u32 {
        self.deep[id as usize]
    }

    /// [`GroundTypes::deep`] of a type this table built, found by its
    /// allocation; `None` for any other `Arc`.
    pub(crate) fn deep_of(&self, t: &Arc<Ty>) -> Option<u32> {
        self.by_addr
            .get(&(Arc::as_ptr(t) as usize))
            .map(|&id| self.deep(id))
    }

    fn intern(&mut self, shape: Shape) -> u32 {
        if let Some(&id) = self.ids.get(&shape) {
            return id;
        }
        let ty = |id: u32| Arc::clone(&self.tys[id as usize]);
        let (t, spines, deep) = match shape {
            Shape::Int => (Ty::Int, 0, 0),
            Shape::Bool => (Ty::Bool, 0, 0),
            Shape::List(e) => {
                let s = 1 + self.spines[e as usize];
                (Ty::List(ty(e)), s, s.max(self.deep[e as usize]))
            }
            Shape::Prod(a, b) => (
                Ty::Prod(ty(a), ty(b)),
                0,
                self.deep[a as usize].max(self.deep[b as usize]),
            ),
            Shape::Fun(a, b) => (
                Ty::Fun(ty(a), ty(b)),
                0,
                self.deep[a as usize].max(self.deep[b as usize]),
            ),
        };
        let id = self.tys.len() as u32;
        let t = Arc::new(t);
        self.by_addr.insert(Arc::as_ptr(&t) as usize, id);
        self.tys.push(t);
        self.spines.push(spines);
        self.deep.push(deep);
        self.ids.insert(shape, id);
        id
    }
}

/// Grounds the types of one inference context into [`GroundTypes`],
/// memoized per resolved table handle: each handle is walked once, however
/// many nodes share it.
pub(crate) struct Grounder<'c> {
    cx: &'c InferCtx,
    /// Per handle: `0` when not yet grounded, else `(id + 1) << 1` with
    /// the low bit set when the type had a variable to default.
    memo: Vec<u32>,
}

impl<'c> Grounder<'c> {
    pub(crate) fn new(cx: &'c InferCtx) -> Self {
        Grounder {
            cx,
            memo: vec![0; cx.nodes.len()],
        }
    }

    /// The id of `t`'s ground type (residual variables defaulted to
    /// `int`), and whether it had a variable to default.
    pub(crate) fn ground(&mut self, t: TyRef, types: &mut GroundTypes) -> (u32, bool) {
        let r = self.cx.shallow(t);
        let m = self.memo[r.0 as usize];
        if m != 0 {
            return ((m >> 1) - 1, m & 1 == 1);
        }
        let (id, defaulted) = match self.cx.head(r) {
            Node::Int => (GroundTypes::INT, false),
            Node::Bool => (GroundTypes::BOOL, false),
            Node::Var(_) => (GroundTypes::INT, true),
            Node::List(e) => {
                let (e, d) = self.ground(e, types);
                (types.intern(Shape::List(e)), d)
            }
            Node::Prod(a, b) => {
                let (a, da) = self.ground(a, types);
                let (b, db) = self.ground(b, types);
                (types.intern(Shape::Prod(a, b)), da || db)
            }
            Node::Fun(a, b) => {
                let (a, da) = self.ground(a, types);
                let (b, db) = self.ground(b, types);
                (types.intern(Shape::Fun(a, b)), da || db)
            }
        };
        self.memo[r.0 as usize] = ((id + 1) << 1) | u32::from(defaulted);
        (id, defaulted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp() -> Span {
        Span::DUMMY
    }

    #[test]
    fn unify_identical_bases() {
        let mut cx = InferCtx::new(0);
        assert!(cx.unify(InferCtx::INT, InferCtx::INT, sp()).is_ok());
        assert!(cx.unify(InferCtx::INT, InferCtx::BOOL, sp()).is_err());
    }

    #[test]
    fn unify_var_binds() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let l = cx.list(InferCtx::INT);
        cx.unify(a, l, sp()).unwrap();
        assert_eq!(cx.to_ty(a), Ty::list(Ty::Int));
    }

    #[test]
    fn unify_through_chains() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let b = cx.fresh();
        cx.unify(a, b, sp()).unwrap();
        cx.unify(b, InferCtx::BOOL, sp()).unwrap();
        assert_eq!(cx.to_ty(a), Ty::Bool);
    }

    #[test]
    fn left_variable_is_bound_to_the_right() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let b = cx.fresh();
        cx.unify(a, b, sp()).unwrap();
        assert_eq!(cx.to_ty(a), Ty::Var(TyVar(1)));
        cx.unify(b, a, sp()).unwrap();
        assert_eq!(cx.to_ty(b), Ty::Var(TyVar(1)));
    }

    #[test]
    fn occurs_check_fires() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let l = cx.list(a);
        let err = cx.unify(a, l, sp()).unwrap_err();
        assert_eq!(
            err.kind,
            TypeErrorKind::Occurs {
                var: TyVar(0),
                ty: Ty::list(Ty::Var(TyVar(0)))
            }
        );
    }

    #[test]
    fn unify_functions_componentwise() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let b = cx.fresh();
        let f1 = cx.fun(a, b);
        let lb = cx.list(InferCtx::BOOL);
        let f2 = cx.fun(InferCtx::INT, lb);
        cx.unify(f1, f2, sp()).unwrap();
        assert_eq!(cx.to_ty(a), Ty::Int);
        assert_eq!(cx.to_ty(b), Ty::list(Ty::Bool));
    }

    #[test]
    fn mismatch_reports_resolved_types() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        cx.unify(a, InferCtx::INT, sp()).unwrap();
        let err = cx.unify(a, InferCtx::BOOL, sp()).unwrap_err();
        match err.kind {
            TypeErrorKind::Mismatch { expected, found } => {
                assert_eq!(expected, Ty::Int);
                assert_eq!(found, Ty::Bool);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn instantiate_renames_only_the_quantified_variables() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let b = cx.fresh();
        let la = cx.list(a);
        let t = cx.fun(la, b);
        let c = cx.fresh();
        let i = cx.instantiate(t, &[TyVar(0)], &[c]);
        assert_eq!(
            cx.to_ty(i),
            Ty::fun(Ty::list(Ty::Var(TyVar(2))), Ty::Var(TyVar(1)))
        );
        // A term without quantified variables is shared as it is.
        assert_eq!(cx.instantiate(b, &[TyVar(0)], &[c]), b);
    }

    #[test]
    fn ground_defaults_and_reports_variables() {
        let mut cx = InferCtx::new(0);
        let a = cx.fresh();
        let la = cx.list(a);
        let mut types = GroundTypes::new();
        let (id, defaulted) = Grounder::new(&cx).ground(la, &mut types);
        assert_eq!(*types.ty(id), Ty::list(Ty::Int));
        assert!(defaulted);
        cx.unify(a, InferCtx::BOOL, sp()).unwrap();
        let lb = cx.list(InferCtx::BOOL);
        let mut grounder = Grounder::new(&cx);
        let (id, defaulted) = grounder.ground(la, &mut types);
        assert_eq!(*types.ty(id), Ty::list(Ty::Bool));
        assert!(!defaulted);
        // Equal types from distinct handles share one allocation.
        let (again, _) = grounder.ground(lb, &mut types);
        assert!(Arc::ptr_eq(&types.ty(id), &types.ty(again)));
        assert_eq!(types.deep(id), 1);
        assert_eq!(cx.spines(la), 1);
    }
}
