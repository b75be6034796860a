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

use nml_syntax::ast::{Const, Expr, ExprKind, Prim, Program};
use nml_syntax::Symbol;
use nml_types::TypeInfo;
use std::collections::BTreeMap;
use std::fmt;

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

/// An IR expression.
#[derive(Debug, Clone, PartialEq)]
pub enum IrExpr {
    /// A constant (integers, booleans, `nil`, or an *unsaturated*
    /// primitive used as a first-class function).
    Const(Const),
    /// Variable reference.
    Var(Symbol),
    /// General application (callee is a computed function value).
    App(Box<IrExpr>, Box<IrExpr>),
    /// `lambda(x). e`
    Lambda {
        /// Parameter.
        param: Symbol,
        /// Body.
        body: Box<IrExpr>,
        /// Site id (for closure-allocation stats).
        site: SiteId,
    },
    /// `if c then t else f`
    If(Box<IrExpr>, Box<IrExpr>, Box<IrExpr>),
    /// Nested `letrec`.
    Letrec(Vec<(Symbol, IrExpr)>, Box<IrExpr>),
    /// Saturated `cons` with an allocation mode.
    Cons {
        /// Where the cell is allocated.
        alloc: AllocMode,
        /// Head expression.
        head: Box<IrExpr>,
        /// Tail expression.
        tail: Box<IrExpr>,
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
        head: Box<IrExpr>,
        /// New tail.
        tail: Box<IrExpr>,
        /// Site id (for reuse stats).
        site: SiteId,
    },
    /// A saturated unary primitive (`car`, `cdr`, `null`).
    Prim1(Prim, Box<IrExpr>),
    /// A saturated binary primitive (arithmetic / comparison; `cons`
    /// lowers to [`IrExpr::Cons`] instead).
    Prim2(Prim, Box<IrExpr>, Box<IrExpr>),
    /// Dynamic extent for stack/block reclamation: cells allocated into
    /// the region while `inner` evaluates are freed when it finishes.
    Region {
        /// Stack or block semantics (identical lifetimes, different
        /// bookkeeping costs — see `nml-runtime`).
        kind: RegionKind,
        /// The wrapped expression (typically a call).
        inner: Box<IrExpr>,
        /// Site id.
        site: SiteId,
    },
}

/// A top-level function (a flattened `letrec` binding).
#[derive(Debug, Clone, PartialEq)]
pub struct IrFunc {
    /// Name.
    pub name: Symbol,
    /// Curried parameters, outermost first. Empty for value bindings.
    pub params: Vec<Symbol>,
    /// The body (after stripping `params` lambdas).
    pub body: IrExpr,
}

impl IrFunc {
    /// Whether the binding is a function (has parameters).
    pub fn is_function(&self) -> bool {
        !self.params.is_empty()
    }
}

/// A whole lowered program.
#[derive(Clone, PartialEq)]
pub struct IrProgram {
    /// Top-level bindings in their original order (plus any optimizer-
    /// generated variants appended).
    pub funcs: Vec<IrFunc>,
    /// The program body.
    pub body: IrExpr,
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

/// The variant registry is bookkeeping, not program: the `Debug` form
/// shows the program alone, as it did before the registry existed.
impl fmt::Debug for IrProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IrProgram")
            .field("funcs", &self.funcs)
            .field("body", &self.body)
            .field("next_site", &self.next_site)
            .finish()
    }
}

impl IrProgram {
    /// Looks up a function by name.
    pub fn func(&self, name: Symbol) -> Option<&IrFunc> {
        self.funcs.iter().find(|f| f.name == name)
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
        fn contains(e: &IrExpr, site: SiteId) -> bool {
            let mut found = false;
            walk_ir(e, &mut |n| {
                let s = match n {
                    IrExpr::Cons { site, .. }
                    | IrExpr::Dcons { site, .. }
                    | IrExpr::Lambda { site, .. }
                    | IrExpr::Region { site, .. } => Some(*site),
                    _ => None,
                };
                if s == Some(site) {
                    found = true;
                }
            });
            found
        }
        self.funcs
            .iter()
            .find(|f| contains(&f.body, site))
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
    let mut next_site = 0u32;
    let mut funcs = Vec::with_capacity(program.bindings.len());
    for b in &program.bindings {
        let mut params = Vec::new();
        let mut cur = &b.expr;
        while let ExprKind::Lambda(p, inner) = &cur.kind {
            params.push(*p);
            cur = inner;
        }
        let body = lower_expr(cur, &mut next_site, plan);
        funcs.push(IrFunc {
            name: b.name,
            params,
            body,
        });
    }
    let body = lower_expr(&program.body, &mut next_site, plan);
    IrProgram {
        funcs,
        body,
        next_site,
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

fn fresh(next: &mut u32) -> SiteId {
    let s = SiteId(*next);
    *next += 1;
    s
}

fn lower_expr(e: &Expr, next: &mut u32, plan: &LowerPlan) -> IrExpr {
    let lowered = match &e.kind {
        ExprKind::Const(c) => IrExpr::Const(*c),
        ExprKind::Var(x) => IrExpr::Var(*x),
        ExprKind::Lambda(p, body) => IrExpr::Lambda {
            param: *p,
            body: Box::new(lower_expr(body, next, plan)),
            site: fresh(next),
        },
        ExprKind::If(c, t, f) => IrExpr::If(
            Box::new(lower_expr(c, next, plan)),
            Box::new(lower_expr(t, next, plan)),
            Box::new(lower_expr(f, next, plan)),
        ),
        ExprKind::Letrec(bs, body) => IrExpr::Letrec(
            bs.iter()
                .map(|b| (b.name, lower_expr(&b.expr, next, plan)))
                .collect(),
            Box::new(lower_expr(body, next, plan)),
        ),
        ExprKind::Annot(inner, _) => lower_expr(inner, next, plan),
        ExprKind::App(..) => {
            let (head, n) = ast_spine(e);
            if let ExprKind::Const(Const::Prim(p)) = head.kind {
                if n == p.arity() {
                    let alloc = if p == Prim::Cons && plan.stack_cons.contains(&e.id) {
                        AllocMode::Stack
                    } else {
                        AllocMode::Heap
                    };
                    return wrap_region(e, lower_prim(p, alloc, e, next, plan), next, plan);
                }
            }
            lower_spine(e, next, plan)
        }
    };
    wrap_region(e, lowered, next, plan)
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

/// Lowers an unsaturated or non-primitive application spine: the head
/// first, then the arguments left to right, one `App` per argument.
fn lower_spine(e: &Expr, next: &mut u32, plan: &LowerPlan) -> IrExpr {
    match &e.kind {
        ExprKind::App(f, a) => {
            let f = lower_spine(f, next, plan);
            IrExpr::App(Box::new(f), Box::new(lower_expr(a, next, plan)))
        }
        _ => lower_expr(e, next, plan),
    }
}

/// Wraps `lowered` in a stack region when the plan marks this call node.
fn wrap_region(e: &Expr, lowered: IrExpr, next: &mut u32, plan: &LowerPlan) -> IrExpr {
    if plan.stack_calls.contains(&e.id) && !matches!(lowered, IrExpr::Region { .. }) {
        IrExpr::Region {
            kind: RegionKind::Stack,
            inner: Box::new(lowered),
            site: fresh(next),
        }
    } else {
        lowered
    }
}

/// Lowers the saturated primitive application `call` (`p a0` or
/// `p a0 a1`).
fn lower_prim(p: Prim, alloc: AllocMode, call: &Expr, next: &mut u32, plan: &LowerPlan) -> IrExpr {
    let ExprKind::App(f, last) = &call.kind else {
        unreachable!("a saturated primitive is an application");
    };
    if p.arity() == 1 {
        return IrExpr::Prim1(p, Box::new(lower_expr(last, next, plan)));
    }
    let ExprKind::App(_, first) = &f.kind else {
        unreachable!("a binary primitive has two arguments");
    };
    let a = Box::new(lower_expr(first, next, plan));
    let b = Box::new(lower_expr(last, next, plan));
    match p {
        Prim::Cons => IrExpr::Cons {
            alloc,
            head: a,
            tail: b,
            site: fresh(next),
        },
        _ => IrExpr::Prim2(p, a, b),
    }
}

// ---- pretty-printing (for tests, goldens, and the driver) ---------------

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

impl fmt::Display for IrExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IrExpr::Const(c) => write!(f, "{c}"),
            IrExpr::Var(x) => write!(f, "{x}"),
            IrExpr::App(a, b) => write!(f, "({a} {b})"),
            IrExpr::Lambda { param, body, .. } => write!(f, "(lambda({param}). {body})"),
            IrExpr::If(c, t, e) => write!(f, "(if {c} then {t} else {e})"),
            IrExpr::Letrec(bs, body) => {
                f.write_str("(letrec ")?;
                for (i, (n, e)) in bs.iter().enumerate() {
                    if i > 0 {
                        f.write_str("; ")?;
                    }
                    write!(f, "{n} = {e}")?;
                }
                write!(f, " in {body})")
            }
            IrExpr::Cons {
                alloc, head, tail, ..
            } => match alloc {
                AllocMode::Heap => write!(f, "(cons {head} {tail})"),
                other => write!(f, "(cons[{other}] {head} {tail})"),
            },
            IrExpr::Dcons {
                reused, head, tail, ..
            } => write!(f, "(DCONS {reused} {head} {tail})"),
            IrExpr::Prim1(p, a) => write!(f, "({p} {a})"),
            IrExpr::Prim2(p, a, b) => write!(f, "({p} {a} {b})"),
            IrExpr::Region { kind, inner, .. } => write!(f, "(region[{kind}] {inner})"),
        }
    }
}

/// Walks every sub-expression of `e`, pre-order.
pub fn walk_ir<'a>(e: &'a IrExpr, f: &mut impl FnMut(&'a IrExpr)) {
    f(e);
    match e {
        IrExpr::Const(_) | IrExpr::Var(_) => {}
        IrExpr::App(a, b) => {
            walk_ir(a, f);
            walk_ir(b, f);
        }
        IrExpr::Lambda { body, .. } => walk_ir(body, f),
        IrExpr::If(c, t, e2) => {
            walk_ir(c, f);
            walk_ir(t, f);
            walk_ir(e2, f);
        }
        IrExpr::Letrec(bs, body) => {
            for (_, b) in bs {
                walk_ir(b, f);
            }
            walk_ir(body, f);
        }
        IrExpr::Cons { head, tail, .. } | IrExpr::Dcons { head, tail, .. } => {
            walk_ir(head, f);
            walk_ir(tail, f);
        }
        IrExpr::Prim1(_, a) => walk_ir(a, f),
        IrExpr::Prim2(_, a, b) => {
            walk_ir(a, f);
            walk_ir(b, f);
        }
        IrExpr::Region { inner, .. } => walk_ir(inner, f),
    }
}

impl IrExpr {
    /// Calls `f` on each direct child, in evaluation order. Every pass
    /// that rewrites the IR in place recurses through this one visitor.
    pub(crate) fn for_each_child_mut(&mut self, mut f: impl FnMut(&mut IrExpr)) {
        match self {
            IrExpr::Const(_) | IrExpr::Var(_) => {}
            IrExpr::App(a, b) | IrExpr::Prim2(_, a, b) => {
                f(a);
                f(b);
            }
            IrExpr::Lambda { body, .. } => f(body),
            IrExpr::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            IrExpr::Letrec(bs, body) => {
                for (_, b) in bs {
                    f(b);
                }
                f(body);
            }
            IrExpr::Cons { head, tail, .. } | IrExpr::Dcons { head, tail, .. } => {
                f(head);
                f(tail);
            }
            IrExpr::Prim1(_, a) | IrExpr::Region { inner: a, .. } => f(a),
        }
    }

    /// The head of the application spine rooted here and its number of
    /// arguments: `f a1 .. an` gives `(f, n)`; a non-application gives
    /// `(self, 0)`.
    pub(crate) fn spine(&self) -> (&IrExpr, usize) {
        let mut n = 0;
        let mut cur = self;
        while let IrExpr::App(f, _) = cur {
            n += 1;
            cur = f;
        }
        (cur, n)
    }

    /// The callee name of a full application `g a1 .. an` with `n >= 1`.
    pub(crate) fn called_var(&self) -> Option<(Symbol, usize)> {
        match self.spine() {
            (IrExpr::Var(g), n) if n > 0 => Some((*g, n)),
            _ => None,
        }
    }

    /// Calls `f(j, aj)` on each argument of the application spine rooted
    /// here, last argument first (`j` counts from 0 at the leftmost), and
    /// returns the spine's head.
    pub(crate) fn spine_args_mut(&mut self, mut f: impl FnMut(usize, &mut IrExpr)) -> &mut IrExpr {
        let mut j = self.spine().1;
        let mut cur = self;
        loop {
            match cur {
                IrExpr::App(head, arg) => {
                    j -= 1;
                    f(j, arg);
                    cur = head;
                }
                head => return head,
            }
        }
    }

    /// The head of the application spine rooted here.
    pub(crate) fn spine_head_mut(&mut self) -> &mut IrExpr {
        self.spine_args_mut(|_, _| {})
    }

    /// Wraps this expression in a region with the given kind and site.
    pub(crate) fn wrap_in_region(&mut self, kind: RegionKind, site: SiteId) {
        let inner = std::mem::replace(self, IrExpr::Const(Const::Nil));
        *self = IrExpr::Region {
            kind,
            inner: Box::new(inner),
            site,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn lower(src: &str) -> IrProgram {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        lower_program(&p, &info)
    }

    #[test]
    fn saturated_cons_becomes_cons_node() {
        let ir = lower("cons 1 nil");
        assert!(matches!(
            ir.body,
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
        walk_ir(&ir.body, &mut |e| {
            if let IrExpr::App(head, _) = e {
                if matches!(**head, IrExpr::Const(Const::Prim(Prim::Cons))) {
                    found_partial = true;
                }
            }
        });
        assert!(found_partial, "partial cons kept generic:\n{ir}");
    }

    #[test]
    fn arithmetic_saturates_to_prim2() {
        let ir = lower("1 + 2");
        assert!(matches!(ir.body, IrExpr::Prim2(Prim::Add, _, _)));
    }

    #[test]
    fn car_saturates_to_prim1() {
        let ir = lower("car [1]");
        assert!(matches!(ir.body, IrExpr::Prim1(Prim::Car, _)));
    }

    #[test]
    fn functions_flatten_params() {
        let ir = lower("letrec add x y = x + y in add 1 2");
        let add = ir.func(Symbol::intern("add")).expect("add exists");
        assert_eq!(add.params.len(), 2);
        assert!(add.is_function());
        assert!(matches!(add.body, IrExpr::Prim2(Prim::Add, _, _)));
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
        walk_ir(&ir.body, &mut |e| {
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
}
