//! The storage-annotated intermediate representation.
//!
//! The escape analysis itself runs on the AST; its *optimizations* need a
//! lower-level program form in which allocation is explicit:
//!
//! - every saturated `cons` becomes a [`IrExpr::Cons`] node carrying an
//!   [`AllocMode`] (heap / stack region / block);
//! - the destructive [`IrExpr::Dcons`] (`DCONS x e1 e2`, paper §6)
//!   overwrites an existing cell instead of allocating;
//! - [`IrExpr::Region`] introduces a dynamic extent whose cells are freed
//!   wholesale when it exits — the "activation record" of stack
//!   allocation and the "local heap" block of block reclamation
//!   (paper §A.3.1, §A.3.3).
//!
//! Lowering from the AST saturates primitive applications (a bare `car`
//! passed as a function value stays a [`IrExpr::Const`] of the primitive)
//! and flattens the top-level `letrec` into named functions.
//!
//! **Storage.** Each top-level binding, and the program body, owns one
//! [`Arena`]: a `Vec` of `Copy` nodes whose children are [`ExprId`]
//! indices into the same arena, plus one list that holds the bindings of
//! every nested `letrec`. Lowering, the passes, the tree-walker and the
//! bytecode emitter all work by index; there is no box per node. The
//! arena is a tree: every node is reachable from the root exactly once.
//! A rewrite that adds a node pushes it and re-points one index
//! ([`Arena::wrap_in_region`] moves the wrapped node to a new slot and
//! puts the region where it was); a rewrite that drops a node compacts
//! the arena afterwards. Walks that number or hash nodes go from the
//! root in pre-order source order, never in arena order.

use nml_syntax::ast::{Const, Expr, ExprKind, Prim, Program};
use nml_syntax::Symbol;
use nml_types::TypeInfo;
use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Index, IndexMut, Range};

/// Where a `cons` cell is allocated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AllocMode {
    /// Ordinary heap allocation, reclaimed by the garbage collector.
    #[default]
    Heap,
    /// Allocation into the innermost active stack [`Region`](IrExpr::Region):
    /// freed, without GC, when the region exits.
    Stack,
    /// Allocation into the innermost active block region: freed to the
    /// free list in one splice when the region exits.
    Block,
    /// Heap allocation at a site the analysis proves escaping: the cell
    /// will outlive its creation scope, so the generational runtime
    /// allocates it directly in the old space (pretenuring) instead of
    /// wasting a nursery slot and a promotion copy on it. Semantically
    /// identical to [`AllocMode::Heap`]; a pure placement hint.
    Pretenured,
    /// A site the escape lattice proves no-escape *and* unaliased
    /// ([`crate::sroa`]): the bytecode compiler may scalarize the cell
    /// into frame slots and elide the allocation entirely. The
    /// tree-walker and the heap treat it exactly like [`AllocMode::Heap`]
    /// (it is the differential oracle for the elision), and the bytecode
    /// compiler independently re-verifies slot-level eligibility before
    /// scalarizing — an `Elided` mark alone never changes semantics.
    Elided,
}

impl fmt::Display for AllocMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocMode::Heap => f.write_str("heap"),
            AllocMode::Stack => f.write_str("stack"),
            AllocMode::Block => f.write_str("block"),
            AllocMode::Pretenured => f.write_str("pretenure"),
            AllocMode::Elided => f.write_str("elided"),
        }
    }
}

/// The kind of a [`IrExpr::Region`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A stack region: models allocation in an activation record.
    Stack,
    /// A block region: models the contiguous "local heap" block.
    Block,
}

impl fmt::Display for RegionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegionKind::Stack => f.write_str("stack"),
            RegionKind::Block => f.write_str("block"),
        }
    }
}

/// A unique allocation/expression site within one [`IrProgram`], used by
/// the runtime to attribute statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

/// The index of a node in its binding's [`Arena`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub u32);

/// The bindings of one `letrec`: a range of its arena's binding list
/// ([`Arena::binds`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Binds {
    start: u32,
    len: u32,
}

/// One IR node. Its children are [`ExprId`]s into the same [`Arena`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum IrExpr {
    /// A constant (integers, booleans, `nil`, or an *unsaturated*
    /// primitive used as a first-class function).
    Const(Const),
    /// Variable reference.
    Var(Symbol),
    /// General application (callee is a computed function value).
    App(ExprId, ExprId),
    /// `lambda(x). e`
    Lambda {
        /// Parameter.
        param: Symbol,
        /// Body.
        body: ExprId,
        /// Site id (for closure-allocation stats).
        site: SiteId,
    },
    /// `if c then t else f`
    If(ExprId, ExprId, ExprId),
    /// Nested `letrec`.
    Letrec(Binds, ExprId),
    /// Saturated `cons` with an allocation mode.
    Cons {
        /// Where the cell is allocated.
        alloc: AllocMode,
        /// Head expression.
        head: ExprId,
        /// Tail expression.
        tail: ExprId,
        /// Allocation site.
        site: SiteId,
    },
    /// `DCONS x e1 e2`: evaluate `e1`, `e2`, then overwrite the cell bound
    /// to `x` in place and return it (paper §6). `x` must be bound to a
    /// non-nil list cell.
    Dcons {
        /// Variable bound to the cell being reused.
        reused: Symbol,
        /// New head.
        head: ExprId,
        /// New tail.
        tail: ExprId,
        /// Site id (for reuse stats).
        site: SiteId,
    },
    /// A saturated unary primitive (`car`, `cdr`, `null`).
    Prim1(Prim, ExprId),
    /// A saturated binary primitive (arithmetic / comparison; `cons`
    /// lowers to [`IrExpr::Cons`] instead).
    Prim2(Prim, ExprId, ExprId),
    /// Dynamic extent for stack/block reclamation: cells allocated into
    /// the region while `inner` evaluates are freed when it finishes.
    Region {
        /// Stack or block semantics (identical lifetimes, different
        /// bookkeeping costs — see `nml-runtime`).
        kind: RegionKind,
        /// The wrapped expression (typically a call).
        inner: ExprId,
        /// Site id.
        site: SiteId,
    },
}

/// The nodes of one top-level binding (or of the program body).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Arena {
    nodes: Vec<IrExpr>,
    /// The bindings of every `letrec` in the arena, each a contiguous
    /// [`Binds`] range.
    binds: Vec<(Symbol, ExprId)>,
    root: ExprId,
}

impl Index<ExprId> for Arena {
    type Output = IrExpr;

    #[inline]
    fn index(&self, id: ExprId) -> &IrExpr {
        &self.nodes[id.0 as usize]
    }
}

impl IndexMut<ExprId> for Arena {
    #[inline]
    fn index_mut(&mut self, id: ExprId) -> &mut IrExpr {
        &mut self.nodes[id.0 as usize]
    }
}

impl Arena {
    /// An empty arena. Push nodes, then [`Arena::set_root`].
    pub fn new() -> Self {
        Arena::default()
    }

    /// The root node: the binding's body.
    #[inline]
    pub fn root(&self) -> ExprId {
        self.root
    }

    /// Makes `root` the arena's root.
    pub fn set_root(&mut self, root: ExprId) {
        self.root = root;
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the arena holds no node.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Every node, in arena (push) order. Every node of a well-formed
    /// arena is reachable from the root, so a rewrite that treats each
    /// node on its own may scan this instead of walking the tree.
    pub fn nodes(&self) -> &[IrExpr] {
        &self.nodes
    }

    /// Every node, mutably, in arena (push) order (see [`Arena::nodes`]).
    pub fn nodes_mut(&mut self) -> &mut [IrExpr] {
        &mut self.nodes
    }

    /// Appends a node; its children must already be in the arena.
    pub fn push(&mut self, e: IrExpr) -> ExprId {
        let id = ExprId(self.nodes.len() as u32);
        self.nodes.push(e);
        id
    }

    /// Appends a `letrec` node with the given bindings and body.
    pub fn push_letrec(
        &mut self,
        binds: impl IntoIterator<Item = (Symbol, ExprId)>,
        body: ExprId,
    ) -> ExprId {
        let start = self.binds.len() as u32;
        self.binds.extend(binds);
        let len = self.binds.len() as u32 - start;
        self.push(IrExpr::Letrec(Binds { start, len }, body))
    }

    /// The bindings of a `letrec`, in source order.
    #[inline]
    pub fn binds(&self, b: Binds) -> &[(Symbol, ExprId)] {
        &self.binds[b.start as usize..(b.start + b.len) as usize]
    }

    /// The children of `id`, in evaluation order (a `letrec`'s bindings,
    /// then its body).
    pub fn children(&self, id: ExprId) -> impl Iterator<Item = ExprId> + '_ {
        let (binds, fixed, n) = self.child_parts(id);
        let binds = self.binds[binds].iter().map(|b| b.1);
        binds.chain(fixed.into_iter().take(n))
    }

    /// Calls `f` on each child of `id`, in evaluation order, with the
    /// arena. Every pass that rewrites the IR in place recurses through
    /// this one visitor. `f` may rewrite the subtrees it is given, not
    /// node `id` itself.
    pub(crate) fn for_each_child_mut(&mut self, id: ExprId, mut f: impl FnMut(&mut Arena, ExprId)) {
        let (binds, fixed, n) = self.child_parts(id);
        for k in binds {
            let e = self.binds[k].1;
            f(self, e);
        }
        for c in fixed.into_iter().take(n) {
            f(self, c);
        }
    }

    /// The children of `id`: a range of the binding list (a `letrec`'s
    /// bindings), then `n` more children.
    fn child_parts(&self, id: ExprId) -> (Range<usize>, [ExprId; 3], usize) {
        let no = ExprId(0);
        match self[id] {
            IrExpr::Const(_) | IrExpr::Var(_) => (0..0, [no; 3], 0),
            IrExpr::App(a, b)
            | IrExpr::Prim2(_, a, b)
            | IrExpr::Cons {
                head: a, tail: b, ..
            }
            | IrExpr::Dcons {
                head: a, tail: b, ..
            } => (0..0, [a, b, no], 2),
            IrExpr::Lambda { body: a, .. }
            | IrExpr::Prim1(_, a)
            | IrExpr::Region { inner: a, .. } => (0..0, [a, no, no], 1),
            IrExpr::If(c, t, f) => (0..0, [c, t, f], 3),
            IrExpr::Letrec(bs, body) => {
                let start = bs.start as usize;
                (start..start + bs.len as usize, [body, no, no], 1)
            }
        }
    }

    /// Walks every node from the root, pre-order.
    pub fn walk(&self, mut f: impl FnMut(ExprId, &IrExpr)) {
        self.walk_from(self.root, &mut f);
    }

    /// Walks every node of the subtree at `id`, pre-order.
    pub fn walk_from(&self, id: ExprId, f: &mut impl FnMut(ExprId, &IrExpr)) {
        f(id, &self[id]);
        for c in self.children(id) {
            self.walk_from(c, f);
        }
    }

    /// The head of the application spine rooted at `id` and its number
    /// of arguments: `f a1 .. an` gives `(f, n)`; a non-application gives
    /// `(id, 0)`.
    pub(crate) fn spine(&self, id: ExprId) -> (ExprId, usize) {
        let mut n = 0;
        let mut cur = id;
        while let IrExpr::App(f, _) = self[cur] {
            n += 1;
            cur = f;
        }
        (cur, n)
    }

    /// The callee name of a full application `g a1 .. an` with `n >= 1`.
    pub(crate) fn called_var(&self, id: ExprId) -> Option<(Symbol, usize)> {
        match self.spine(id) {
            (head, n) if n > 0 => match self[head] {
                IrExpr::Var(g) => Some((g, n)),
                _ => None,
            },
            _ => None,
        }
    }

    /// Calls `f(arena, j, aj)` on each argument of the application spine
    /// rooted at `id`, last argument first (`j` counts from 0 at the
    /// leftmost), and returns the spine's head.
    pub(crate) fn for_each_spine_arg(
        &mut self,
        id: ExprId,
        mut f: impl FnMut(&mut Arena, usize, ExprId),
    ) -> ExprId {
        let mut j = self.spine(id).1;
        let mut cur = id;
        while let IrExpr::App(head, arg) = self[cur] {
            j -= 1;
            f(self, j, arg);
            cur = head;
        }
        cur
    }

    /// Wraps node `id` in a region with the given kind and site: the
    /// wrapped node moves to a new slot and the region takes its place,
    /// so whatever pointed at `id` now points at the region.
    pub(crate) fn wrap_in_region(&mut self, id: ExprId, kind: RegionKind, site: SiteId) {
        let moved = self[id];
        let inner = self.push(moved);
        self[id] = IrExpr::Region { kind, inner, site };
    }

    /// Drops every node the root no longer reaches (a rewrite that
    /// unlinked a node calls this), keeping the others in order.
    pub(crate) fn compact(&mut self) {
        let mut keep = vec![false; self.nodes.len()];
        self.walk(|id, _| keep[id.0 as usize] = true);
        let mut remap = Vec::with_capacity(keep.len());
        let mut next = 0;
        for &k in &keep {
            remap.push(ExprId(next));
            next += u32::from(k);
        }
        let mut i = 0;
        self.nodes.retain(|_| {
            i += 1;
            keep[i - 1]
        });
        let at = |id: ExprId| remap[id.0 as usize];
        for c in self
            .nodes
            .iter_mut()
            .flat_map(IrExpr::child_slots)
            .flatten()
        {
            *c = at(*c);
        }
        // Bindings of dropped `letrec`s map to junk; nothing reads them.
        for b in &mut self.binds {
            b.1 = at(b.1);
        }
        self.root = at(self.root);
    }
}

impl IrExpr {
    /// The node's child indices in evaluation order, other than a
    /// `letrec`'s bindings (which live in the arena's binding list).
    fn child_slots(&mut self) -> [Option<&mut ExprId>; 3] {
        match self {
            IrExpr::Const(_) | IrExpr::Var(_) => [None, None, None],
            IrExpr::App(a, b)
            | IrExpr::Prim2(_, a, b)
            | IrExpr::Cons {
                head: a, tail: b, ..
            }
            | IrExpr::Dcons {
                head: a, tail: b, ..
            } => [Some(a), Some(b), None],
            IrExpr::Lambda { body: a, .. }
            | IrExpr::Prim1(_, a)
            | IrExpr::Region { inner: a, .. }
            | IrExpr::Letrec(_, a) => [Some(a), None, None],
            IrExpr::If(c, t, e) => [Some(c), Some(t), Some(e)],
        }
    }
}

/// A top-level function (a flattened `letrec` binding).
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    /// Name.
    pub name: Symbol,
    /// Curried parameters, outermost first. Empty for value bindings.
    pub params: Vec<Symbol>,
    /// The body (after stripping `params` lambdas).
    pub body: Arena,
}

impl IrFunc {
    /// Whether the binding is a function (has parameters).
    pub fn is_function(&self) -> bool {
        !self.params.is_empty()
    }
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Top-level bindings in their original order (plus any optimizer-
    /// generated variants appended).
    pub funcs: Vec<IrFunc>,
    /// The program body.
    pub body: Arena,
    /// One past the largest [`SiteId`] in use.
    pub next_site: u32,
    /// The functions the optimizer generated: `(original, kind)` to the
    /// variant's name. A source binding that happens to be named like a
    /// variant (`f_r`, `g_blk`) is never mistaken for one.
    pub variants: BTreeMap<(Symbol, VariantKind), Symbol>,
}

/// What a generated function is a variant of its original for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VariantKind {
    /// In-place reuse (`f_r`, [`crate::reuse_variant`]).
    Reuse,
    /// Block allocation of the result spine (`g_blk`,
    /// [`crate::block_producer_variant`]).
    Block,
}

impl IrProgram {
    /// Looks up a function by name.
    pub fn func(&self, name: Symbol) -> Option<&IrFunc> {
        self.funcs.iter().find(|f| f.name == name)
    }

    /// Arena `i`: binding `i`'s body, or the program body for
    /// `i == funcs.len()`.
    pub fn arena(&self, i: usize) -> &Arena {
        self.funcs.get(i).map_or(&self.body, |f| &f.body)
    }

    /// Every arena, mutably: each binding's, then the program body's.
    pub fn arenas_mut(&mut self) -> impl Iterator<Item = &mut Arena> {
        let funcs = self.funcs.iter_mut().map(|f| &mut f.body);
        funcs.chain([&mut self.body])
    }

    /// Allocates a fresh site id.
    pub fn fresh_site(&mut self) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        s
    }

    /// The top-level function whose body contains `site` (`None` for
    /// sites in the program body). Used to attribute allocation profiles.
    pub fn site_owner(&self, site: SiteId) -> Option<Symbol> {
        let contains = |a: &Arena| {
            a.nodes().iter().any(|n| match n {
                IrExpr::Cons { site: s, .. }
                | IrExpr::Dcons { site: s, .. }
                | IrExpr::Lambda { site: s, .. }
                | IrExpr::Region { site: s, .. } => *s == site,
                _ => false,
            })
        };
        self.funcs
            .iter()
            .find(|f| contains(&f.body))
            .map(|f| f.name)
    }
}

/// Storage directives computed on the AST (by node id) and honoured by
/// lowering. Produced by the local-escape-test-driven planner
/// ([`crate::stack::plan_stack_allocation`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LowerPlan {
    /// Node ids of `cons` applications to allocate on the stack.
    pub stack_cons: std::collections::BTreeSet<nml_syntax::NodeId>,
    /// Node ids of call expressions to wrap in a stack region.
    pub stack_calls: std::collections::BTreeSet<nml_syntax::NodeId>,
}

impl LowerPlan {
    /// An empty plan (all-heap allocation).
    pub fn none() -> Self {
        LowerPlan::default()
    }

    /// Whether the plan directs anything.
    pub fn is_empty(&self) -> bool {
        self.stack_cons.is_empty() && self.stack_calls.is_empty()
    }
}

/// Lowers a parsed and typed program into IR with all-heap allocation.
///
/// `_info` is currently only a witness that the program type-checked
/// (ill-typed programs have no meaningful IR); annotations that depend on
/// types are added by the optimizer passes.
pub fn lower_program(program: &Program, _info: &TypeInfo) -> IrProgram {
    lower_program_with(program, _info, &LowerPlan::none())
}

/// Lowers a program, honouring the storage directives in `plan`.
pub fn lower_program_with(program: &Program, _info: &TypeInfo, plan: &LowerPlan) -> IrProgram {
    let mut l = Lower {
        next_site: 0,
        plan,
        arena: Arena::new(),
        scratch: Vec::new(),
    };
    // Every binding is lowered into the same buffers, which then grow
    // only to the largest binding; each binding keeps an exact copy.
    let mut funcs = Vec::with_capacity(program.bindings.len());
    for b in &program.bindings {
        let mut params = Vec::new();
        let mut cur = &b.expr;
        while let ExprKind::Lambda(p, inner) = &cur.kind {
            params.push(*p);
            cur = inner;
        }
        funcs.push(IrFunc {
            name: b.name,
            params,
            body: l.binding(cur),
        });
    }
    let body = l.binding(&program.body);
    IrProgram {
        funcs,
        body,
        next_site: l.next_site,
        variants: BTreeMap::new(),
    }
}

/// The name for a new variant whose preferred name is `preferred`:
/// `preferred` itself unless a function of that name exists (`taken`),
/// else a fresh symbol derived from it.
pub(crate) fn variant_name(preferred: Symbol, taken: bool) -> Symbol {
    if taken {
        Symbol::fresh(preferred.as_str())
    } else {
        preferred
    }
}

/// Lowering state: site numbering runs across the whole program, nodes
/// go into the current binding's arena.
struct Lower<'a> {
    next_site: u32,
    plan: &'a LowerPlan,
    arena: Arena,
    /// Bindings of the `letrec`s being lowered, innermost last.
    scratch: Vec<(Symbol, ExprId)>,
}

impl Lower<'_> {
    /// Lowers one binding's body into an arena of its own.
    fn binding(&mut self, e: &Expr) -> Arena {
        let root = self.expr(e);
        let arena = Arena {
            nodes: self.arena.nodes.as_slice().into(),
            binds: self.arena.binds.as_slice().into(),
            root,
        };
        self.arena.nodes.clear();
        self.arena.binds.clear();
        arena
    }

    fn fresh(&mut self) -> SiteId {
        let s = SiteId(self.next_site);
        self.next_site += 1;
        s
    }

    fn push(&mut self, e: IrExpr) -> ExprId {
        self.arena.push(e)
    }

    fn expr(&mut self, e: &Expr) -> ExprId {
        let lowered = match &e.kind {
            ExprKind::Const(c) => self.push(IrExpr::Const(*c)),
            ExprKind::Var(x) => self.push(IrExpr::Var(*x)),
            ExprKind::Lambda(p, body) => {
                let body = self.expr(body);
                let site = self.fresh();
                self.push(IrExpr::Lambda {
                    param: *p,
                    body,
                    site,
                })
            }
            ExprKind::If(c, t, f) => {
                let c = self.expr(c);
                let t = self.expr(t);
                let f = self.expr(f);
                self.push(IrExpr::If(c, t, f))
            }
            ExprKind::Letrec(bs, body) => {
                let mark = self.scratch.len();
                for b in bs {
                    let id = self.expr(&b.expr);
                    self.scratch.push((b.name, id));
                }
                let body = self.expr(body);
                self.arena.push_letrec(self.scratch.drain(mark..), body)
            }
            ExprKind::Annot(inner, _) => self.expr(inner),
            ExprKind::App(..) => {
                let (head, n) = ast_spine(e);
                if let ExprKind::Const(Const::Prim(p)) = head.kind {
                    if n == p.arity() {
                        let alloc = if p == Prim::Cons && self.plan.stack_cons.contains(&e.id) {
                            AllocMode::Stack
                        } else {
                            AllocMode::Heap
                        };
                        let prim = self.prim(p, alloc, e);
                        return self.wrap_region(e, prim);
                    }
                }
                self.spine(e)
            }
        };
        self.wrap_region(e, lowered)
    }

    /// Lowers an unsaturated or non-primitive application spine: the head
    /// first, then the arguments left to right, one `App` per argument.
    fn spine(&mut self, e: &Expr) -> ExprId {
        match &e.kind {
            ExprKind::App(f, a) => {
                let f = self.spine(f);
                let a = self.expr(a);
                self.push(IrExpr::App(f, a))
            }
            _ => self.expr(e),
        }
    }

    /// Wraps `lowered` in a stack region when the plan marks this call node.
    fn wrap_region(&mut self, e: &Expr, lowered: ExprId) -> ExprId {
        if self.plan.stack_calls.contains(&e.id)
            && !matches!(self.arena[lowered], IrExpr::Region { .. })
        {
            let site = self.fresh();
            self.push(IrExpr::Region {
                kind: RegionKind::Stack,
                inner: lowered,
                site,
            })
        } else {
            lowered
        }
    }

    /// Lowers the saturated primitive application `call` (`p a0` or
    /// `p a0 a1`).
    fn prim(&mut self, p: Prim, alloc: AllocMode, call: &Expr) -> ExprId {
        let ExprKind::App(f, last) = &call.kind else {
            unreachable!("a saturated primitive is an application");
        };
        if p.arity() == 1 {
            let a = self.expr(last);
            return self.push(IrExpr::Prim1(p, a));
        }
        let ExprKind::App(_, first) = &f.kind else {
            unreachable!("a binary primitive has two arguments");
        };
        let a = self.expr(first);
        let b = self.expr(last);
        match p {
            Prim::Cons => {
                let site = self.fresh();
                self.push(IrExpr::Cons {
                    alloc,
                    head: a,
                    tail: b,
                    site,
                })
            }
            _ => self.push(IrExpr::Prim2(p, a, b)),
        }
    }
}

/// The head of the AST application spine rooted at `e`, and its number
/// of arguments.
fn ast_spine(e: &Expr) -> (&Expr, usize) {
    let mut n = 0;
    let mut cur = e;
    while let ExprKind::App(f, _) = &cur.kind {
        n += 1;
        cur = f;
    }
    (cur, n)
}

// ---- pretty-printing (for tests, goldens, and the driver) ---------------

impl IrProgram {
    /// A pre-order dump of every binding, one node per line indented by
    /// depth: each node's kind, its symbols, every [`SiteId`], each
    /// [`AllocMode`] and [`RegionKind`], then `next_site`. Unlike the
    /// text form it shows every site id; unlike `Debug` it does not
    /// depend on how the IR is stored. The back-end pin digests it.
    pub fn dump(&self) -> String {
        use fmt::Write as _;
        fn node(a: &Arena, id: ExprId, depth: usize, out: &mut String) {
            let _ = write!(out, "{:1$}", "", 2 * depth);
            let _ = match a[id] {
                IrExpr::Const(c) => writeln!(out, "const {c}"),
                IrExpr::Var(x) => writeln!(out, "var {x}"),
                IrExpr::App(..) => writeln!(out, "app"),
                IrExpr::Lambda { param, site, .. } => writeln!(out, "lambda {param} @{}", site.0),
                IrExpr::If(..) => writeln!(out, "if"),
                IrExpr::Letrec(bs, _) => {
                    let _ = write!(out, "letrec");
                    for (n, _) in a.binds(bs) {
                        let _ = write!(out, " {n}");
                    }
                    writeln!(out)
                }
                IrExpr::Cons { alloc, site, .. } => writeln!(out, "cons {alloc} @{}", site.0),
                IrExpr::Dcons { reused, site, .. } => writeln!(out, "dcons {reused} @{}", site.0),
                IrExpr::Prim1(p, _) => writeln!(out, "prim1 {p}"),
                IrExpr::Prim2(p, _, _) => writeln!(out, "prim2 {p}"),
                IrExpr::Region { kind, site, .. } => writeln!(out, "region {kind} @{}", site.0),
            };
            for c in a.children(id) {
                node(a, c, depth + 1, out);
            }
        }
        let mut out = String::new();
        for f in &self.funcs {
            let _ = write!(out, "binding {}", f.name);
            for p in &f.params {
                let _ = write!(out, " {p}");
            }
            out.push('\n');
            node(&f.body, f.body.root(), 1, &mut out);
        }
        out.push_str("main\n");
        node(&self.body, self.body.root(), 1, &mut out);
        let _ = writeln!(out, "next_site {}", self.next_site);
        out
    }
}

impl fmt::Display for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for func in &self.funcs {
            write!(f, "{}", func.name)?;
            for p in &func.params {
                write!(f, " {p}")?;
            }
            writeln!(f, " =")?;
            writeln!(f, "  {}", func.body)?;
        }
        writeln!(f, "main = {}", self.body)
    }
}

/// The text form of the arena's root expression.
impl fmt::Display for Arena {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        Shown {
            arena: self,
            id: self.root,
        }
        .fmt(f)
    }
}

/// A subtree in the IR's text form.
struct Shown<'a> {
    arena: &'a Arena,
    id: ExprId,
}

impl fmt::Display for Shown<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let a = self.arena;
        let s = |id| Shown { arena: a, id };
        match a[self.id] {
            IrExpr::Const(c) => write!(f, "{c}"),
            IrExpr::Var(x) => write!(f, "{x}"),
            IrExpr::App(x, y) => write!(f, "({} {})", s(x), s(y)),
            IrExpr::Lambda { param, body, .. } => write!(f, "(lambda({param}). {})", s(body)),
            IrExpr::If(c, t, e) => write!(f, "(if {} then {} else {})", s(c), s(t), s(e)),
            IrExpr::Letrec(bs, body) => {
                f.write_str("(letrec ")?;
                for (i, &(n, e)) in a.binds(bs).iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{n} = {}", s(e))?;
                }
                write!(f, " in {})", s(body))
            }
            IrExpr::Cons {
                alloc, head, tail, ..
            } => match alloc {
                AllocMode::Heap => write!(f, "(cons {} {})", s(head), s(tail)),
                other => write!(f, "(cons[{other}] {} {})", s(head), s(tail)),
            },
            IrExpr::Dcons {
                reused, head, tail, ..
            } => write!(f, "(DCONS {reused} {} {})", s(head), s(tail)),
            IrExpr::Prim1(p, x) => write!(f, "({p} {})", s(x)),
            IrExpr::Prim2(p, x, y) => write!(f, "({p} {} {})", s(x), s(y)),
            IrExpr::Region { kind, inner, .. } => write!(f, "(region[{kind}] {})", s(inner)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lower;

    fn root(a: &Arena) -> IrExpr {
        a[a.root()]
    }

    #[test]
    fn saturated_cons_becomes_cons_node() {
        let ir = lower("cons 1 nil");
        assert!(matches!(
            root(&ir.body),
            IrExpr::Cons {
                alloc: AllocMode::Heap,
                ..
            }
        ));
    }

    #[test]
    fn unsaturated_prim_stays_const() {
        let ir = lower("letrec app2 f x = f x in app2 (cons 1) nil");
        // `cons 1` is a partial application: App(Const(cons), 1).
        let mut found_partial = false;
        ir.body.walk(|_, e| {
            if let IrExpr::App(head, _) = *e {
                if matches!(ir.body[head], IrExpr::Const(Const::Prim(Prim::Cons))) {
                    found_partial = true;
                }
            }
        });
        assert!(found_partial, "partial cons kept generic:\n{ir}");
    }

    #[test]
    fn arithmetic_saturates_to_prim2() {
        let ir = lower("1 + 2");
        assert!(matches!(root(&ir.body), IrExpr::Prim2(Prim::Add, _, _)));
    }

    #[test]
    fn car_saturates_to_prim1() {
        let ir = lower("car [1]");
        assert!(matches!(root(&ir.body), IrExpr::Prim1(Prim::Car, _)));
    }

    #[test]
    fn functions_flatten_params() {
        let ir = lower("letrec add x y = x + y in add 1 2");
        let add = ir.func(Symbol::intern("add")).expect("add exists");
        assert_eq!(add.params.len(), 2);
        assert!(add.is_function());
        assert!(matches!(root(&add.body), IrExpr::Prim2(Prim::Add, _, _)));
    }

    #[test]
    fn value_bindings_have_no_params() {
        let ir = lower("letrec k = 42 in k");
        let k = ir.func(Symbol::intern("k")).expect("k exists");
        assert!(!k.is_function());
    }

    #[test]
    fn sites_are_unique() {
        let ir = lower("cons 1 (cons 2 nil)");
        let mut sites = Vec::new();
        ir.body.walk(|_, e| {
            if let IrExpr::Cons { site, .. } = e {
                sites.push(*site);
            }
        });
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
    }

    #[test]
    fn display_roundtrips_shapes() {
        let ir = lower("letrec f x = if (null x) then nil else cons (car x) (f (cdr x)) in f [1]");
        let text = ir.to_string();
        assert!(text.contains("(cons (car x) (f (cdr x)))"), "{text}");
        assert!(text.contains("(if (null x) then nil else"), "{text}");
    }

    #[test]
    fn wrap_and_compact_keep_the_tree() {
        let mut ir = lower("letrec f x = (letrec y = x + 1 in y) * 2 in f 3");
        let before = ir.to_string();
        let f = &mut ir.funcs[0].body;
        let root = f.root();
        f.wrap_in_region(root, RegionKind::Stack, SiteId(99));
        assert_eq!(
            f.to_string(),
            format!("(region[stack] {})", before.lines().nth(1).unwrap().trim())
        );
        // Unlink the region again by hand: the moved node is the new root
        // and the old slot is an orphan that compaction drops.
        let IrExpr::Region { inner, .. } = f[root] else {
            panic!("root is the region");
        };
        f.set_root(inner);
        let n = f.len();
        f.compact();
        assert_eq!(f.len(), n - 1);
        assert_eq!(ir.to_string(), before);
    }
}
