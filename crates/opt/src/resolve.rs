//! Compile-time slot resolution for the bytecode engine.
//!
//! The tree-walking interpreter resolves every variable occurrence at
//! runtime by walking a linked `Env` chain of `Symbol` bindings. This
//! pass does that walk once, at compile time: each occurrence becomes a
//! [`SlotRef`] — a frame-local slot index, a closure-capture index, a
//! recursive-group member, or a direct global reference. It builds no
//! second tree: it splits the program into code units ([`CodeUnit`]: a
//! binding body, the program body, or a lambda, each a root node in its
//! binding's arena) and writes what it found into side tables keyed by
//! node index ([`Resolved`]) — the slot of each `Var` and `DCONS`
//! target, the unit and captures of each `lambda` ([`ClosureSite`]),
//! the recursive group and value slots of each `letrec`
//! ([`LetrecInfo`]). The bytecode compiler in `nml-runtime` reads the IR
//! and these tables; the VM never searches for a `Symbol` on the hot
//! path.
//!
//! Resolution mirrors the interpreter's environment semantics exactly
//! (same shadowing, same `letrec` corner cases):
//!
//! - the lambda bindings of a `letrec` form one mutually recursive group
//!   whose members see each other ([`SlotRef::Rec`]) and the scope
//!   *outside* the `letrec` — not their value-binding siblings (the
//!   interpreter's `Rec` env node sits below the value binds);
//! - value bindings evaluate in order and see the lambda group plus
//!   earlier value bindings; a forward reference is the interpreter's
//!   runtime `Unbound`, which compiles to [`SlotRef::Unbound`];
//! - duplicate names inside one group resolve to the *first* member
//!   (the interpreter's `Rec` lookup is first-match);
//! - a global name prefers the latest *visible* top-level value binding
//!   (the interpreter's globals map, filled in binding order, is
//!   last-insert-wins), then the textually first top-level binding if it
//!   is a function. During startup, binding `j` sees only value bindings
//!   `0..j`; whether a value global is initialized yet is re-checked by
//!   the VM at load time, so a function called *during* startup that
//!   touches a not-yet-evaluated value global still fails `Unbound`
//!   exactly like the tree-walker.

use crate::ir::{Arena, Binds, ExprId, IrExpr, IrProgram};
use nml_syntax::{IdMap, Symbol};
use std::ops::Range;

/// Compile-time address of a variable occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotRef {
    /// A slot in the current frame's locals.
    Local(u16),
    /// An index into the current closure's capture array.
    Capture(u16),
    /// Member `j` of the current closure's recursive group (the closure
    /// for the sibling is materialized on demand, sharing the captures).
    Rec(u16),
    /// Top-level function binding `i` (always initialized).
    GlobalFunc(u32),
    /// Top-level value binding `i` (checked for initialization at load
    /// time: startup evaluates bindings in order).
    GlobalVal(u32),
    /// Statically unbound: evaluating the occurrence raises `Unbound`.
    Unbound,
}

/// Where a closure capture is copied from, relative to the frame that
/// *creates* the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSrc {
    /// A local slot of the creating frame.
    Local(u16),
    /// A capture of the creating frame's own closure.
    Capture(u16),
    /// Member `j` of the creating frame's own recursive group.
    Rec(u16),
}

/// A `letrec` lambda group: its members share one capture environment,
/// and each materialized member closure lands in a frame slot. The
/// bytecode's `MakeRec` builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecSite {
    /// Code units (chunks) of the members, in binding order.
    pub chunks: Vec<u32>,
    /// The shared captures, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
    /// Frame slots the member closures are stored into.
    pub slots: Vec<u16>,
}

/// What resolution recorded at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Resolved {
    /// Nothing: the node needs no resolution.
    #[default]
    None,
    /// A `Var`, or the reused variable of a `DCONS`: its address.
    Slot(SlotRef),
    /// A `lambda`: its entry in [`ResolvedProgram::closures`].
    Closure(u32),
    /// A `letrec`: its entry in [`ResolvedProgram::letrecs`].
    Letrec(u32),
}

/// A closure creation site (a `lambda` node): which code unit (chunk)
/// the closure runs and where its captures are copied from in the
/// creating frame. The bytecode's `MakeClosure` builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureSite {
    /// The code unit of the lambda body.
    pub chunk: u32,
    /// Capture sources, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
}

/// A nested `letrec`: an optional recursive lambda group plus the frame
/// slots of its value bindings.
#[derive(Debug, Clone, PartialEq)]
pub struct LetrecInfo {
    /// The mutually recursive lambda members, if any.
    pub group: Option<RecSite>,
    /// The slots of the value (non-lambda) bindings, in evaluation order.
    pub values: Vec<u16>,
}

/// One compiled code unit: a top-level binding body, the program body,
/// or a lambda.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodeUnit {
    /// Name, when the unit is a named binding (for diagnostics).
    pub name: Option<Symbol>,
    /// Number of parameters (slots `0..n_params` on entry).
    pub n_params: u16,
    /// Total frame slots (parameters plus `letrec` bindings).
    pub n_slots: u16,
    /// The arena holding the body ([`IrProgram::arena`]).
    pub arena: u32,
    /// The body's root node.
    pub root: ExprId,
}

/// A resolved top-level binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalDef {
    /// A function: its code unit (chunk, entered directly by a
    /// saturated call) and curried arity.
    Func {
        /// Code unit index.
        chunk: u32,
        /// Number of curried parameters.
        arity: u16,
    },
    /// A value binding, evaluated once at startup.
    Value {
        /// Code unit index.
        chunk: u32,
    },
}

/// A whole slot-resolved program: its code units and the side tables.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedProgram {
    /// All code units (top-level bodies and lambdas), each after the
    /// units nested in it.
    pub units: Vec<CodeUnit>,
    /// Top-level bindings, parallel to `IrProgram::funcs`.
    pub globals: Vec<GlobalDef>,
    /// Unit index of the program body.
    pub main: u32,
    /// Per arena, per node: what resolution recorded there.
    pub nodes: Vec<Vec<Resolved>>,
    /// The `lambda` nodes' closures, indexed by [`Resolved::Closure`].
    pub closures: Vec<ClosureSite>,
    /// The `letrec` nodes' groups and slots, indexed by
    /// [`Resolved::Letrec`].
    pub letrecs: Vec<LetrecInfo>,
}

impl ResolvedProgram {
    /// What resolution recorded at node `id` of arena `arena`.
    pub fn at(&self, arena: u32, id: ExprId) -> Resolved {
        self.nodes[arena as usize][id.0 as usize]
    }
}

/// Resolves every variable occurrence of `p` to a [`SlotRef`].
pub fn resolve_program(p: &IrProgram) -> ResolvedProgram {
    let mut first_binding: IdMap<Symbol, usize> = IdMap::default();
    let mut value_bindings: IdMap<Symbol, Vec<usize>> = IdMap::default();
    for (i, f) in p.funcs.iter().enumerate() {
        first_binding.entry(f.name).or_insert(i);
        if !f.is_function() {
            value_bindings.entry(f.name).or_default().push(i);
        }
    }
    let n = p.funcs.len();
    let mut r = Resolver {
        program: p,
        first_binding,
        value_bindings,
        visible_vals: 0,
        arena: &p.body,
        arena_ix: 0,
        table: Vec::new(),
        units: Vec::new(),
        closures: Vec::new(),
        letrecs: Vec::new(),
        frames: Vec::new(),
        scope: Vec::new(),
        rec_names: Vec::new(),
        caps: Vec::new(),
    };
    let mut globals = Vec::with_capacity(n);
    let mut nodes = Vec::with_capacity(n + 1);
    for (i, f) in p.funcs.iter().enumerate() {
        // A function body runs only when called, so it sees every value
        // binding (readiness is checked at load time); a startup value
        // binding sees only the bindings evaluated before it.
        r.visible_vals = if f.is_function() { n } else { i };
        r.enter_arena(i, &f.body);
        let unit = r.unit(Some(f.name), &f.params, 0..0, NO_CAPS, f.body.root());
        nodes.push(std::mem::take(&mut r.table));
        globals.push(if f.is_function() {
            GlobalDef::Func {
                chunk: unit,
                arity: f.params.len() as u16,
            }
        } else {
            GlobalDef::Value { chunk: unit }
        });
    }
    r.visible_vals = n;
    r.enter_arena(n, &p.body);
    let main = r.unit(None, &[], 0..0, NO_CAPS, p.body.root());
    nodes.push(std::mem::take(&mut r.table));
    ResolvedProgram {
        units: r.units,
        globals,
        main,
        nodes,
        closures: r.closures,
        letrecs: r.letrecs,
    }
}

/// The capture list of a top-level frame, which never captures.
const NO_CAPS: usize = usize::MAX;

/// One lexical frame while resolving. Its let-style binds are
/// `Resolver::scope[scope_base..]` up to the next frame's base
/// (innermost last); `rec` is the frame's own recursive group in
/// `Resolver::rec_names`, searched *after* the binds (the interpreter's
/// binds sit above the `Rec` env node); `caps` indexes its capture list
/// in `Resolver::caps`, which the members of one group share.
struct Frame {
    scope_base: usize,
    rec: Range<usize>,
    next_slot: u16,
    caps: usize,
}

struct Resolver<'ir> {
    program: &'ir IrProgram,
    /// Top-level name → position of its textually first binding.
    first_binding: IdMap<Symbol, usize>,
    /// Top-level name → positions of its value bindings, ascending.
    value_bindings: IdMap<Symbol, Vec<usize>>,
    /// Upper bound (exclusive) on visible top-level value bindings.
    visible_vals: usize,
    /// The arena being resolved, its index, and its side table.
    arena: &'ir Arena,
    arena_ix: u32,
    table: Vec<Resolved>,
    units: Vec<CodeUnit>,
    closures: Vec<ClosureSite>,
    letrecs: Vec<LetrecInfo>,
    frames: Vec<Frame>,
    /// The let-style binds of every active frame, outermost first.
    scope: Vec<(Symbol, u16)>,
    /// The member names of every active recursive group.
    rec_names: Vec<Symbol>,
    /// The capture lists of the active lambdas and groups.
    caps: Vec<Vec<(Symbol, CaptureSrc)>>,
}

impl<'ir> Resolver<'ir> {
    fn enter_arena(&mut self, i: usize, arena: &'ir Arena) {
        self.arena = arena;
        self.arena_ix = i as u32;
        self.table = vec![Resolved::None; arena.len()];
    }

    fn unit(
        &mut self,
        name: Option<Symbol>,
        params: &[Symbol],
        rec: Range<usize>,
        caps: usize,
        root: ExprId,
    ) -> u32 {
        let scope_base = self.scope.len();
        self.scope
            .extend(params.iter().enumerate().map(|(i, p)| (*p, i as u16)));
        self.frames.push(Frame {
            scope_base,
            rec,
            next_slot: params.len() as u16,
            caps,
        });
        self.resolve_expr(root);
        let frame = self.frames.pop().expect("frame balance");
        self.scope.truncate(scope_base);
        let id = self.units.len() as u32;
        self.units.push(CodeUnit {
            name,
            n_params: params.len() as u16,
            n_slots: frame.next_slot,
            arena: self.arena_ix,
            root,
        });
        id
    }

    fn alloc_slot(&mut self) -> u16 {
        let f = self.frames.last_mut().expect("active frame");
        let s = f.next_slot;
        f.next_slot += 1;
        s
    }

    fn resolve_var(&mut self, x: Symbol) -> SlotRef {
        self.resolve_in(self.frames.len() - 1, x)
    }

    /// Resolves `x` as seen from frame `k`, adding captures to
    /// intervening frames as needed.
    fn resolve_in(&mut self, k: usize, x: Symbol) -> SlotRef {
        let f = &self.frames[k];
        let scope_end = self
            .frames
            .get(k + 1)
            .map_or(self.scope.len(), |g| g.scope_base);
        if let Some(&(_, slot)) = self.scope[f.scope_base..scope_end]
            .iter()
            .rev()
            .find(|(n, _)| *n == x)
        {
            return SlotRef::Local(slot);
        }
        if let Some(j) = self.rec_names[f.rec.clone()].iter().position(|n| *n == x) {
            return SlotRef::Rec(j as u16);
        }
        if k == 0 {
            return self.resolve_global(x);
        }
        let caps = f.caps;
        if let Some(i) = self.caps[caps].iter().position(|(n, _)| *n == x) {
            return SlotRef::Capture(i as u16);
        }
        let src = match self.resolve_in(k - 1, x) {
            SlotRef::Local(s) => CaptureSrc::Local(s),
            SlotRef::Capture(i) => CaptureSrc::Capture(i),
            SlotRef::Rec(j) => CaptureSrc::Rec(j),
            global => return global,
        };
        let caps = &mut self.caps[caps];
        caps.push((x, src));
        SlotRef::Capture((caps.len() - 1) as u16)
    }

    fn resolve_global(&self, x: Symbol) -> SlotRef {
        // Latest visible value binding wins (globals map insert order),
        // then the textually first binding if it is a function (the
        // interpreter's `program.func(..).filter(is_function)` fallback).
        if let Some(vals) = self.value_bindings.get(&x) {
            let visible = vals.partition_point(|&i| i < self.visible_vals);
            if visible > 0 {
                return SlotRef::GlobalVal(vals[visible - 1] as u32);
            }
        }
        match self.first_binding.get(&x) {
            Some(&i) if self.program.funcs[i].is_function() => SlotRef::GlobalFunc(i as u32),
            _ => SlotRef::Unbound,
        }
    }

    /// Opens a capture list for a lambda or a recursive group.
    fn open_caps(&mut self) -> usize {
        self.caps.push(Vec::new());
        self.caps.len() - 1
    }

    /// Closes the innermost capture list, keeping only the sources.
    fn close_caps(&mut self) -> Vec<CaptureSrc> {
        let caps = self.caps.pop().expect("capture balance");
        caps.into_iter().map(|(_, s)| s).collect()
    }

    fn resolve_expr(&mut self, id: ExprId) {
        match self.arena[id] {
            IrExpr::Const(_) => {}
            IrExpr::Var(x) => {
                let slot = self.resolve_var(x);
                self.table[id.0 as usize] = Resolved::Slot(slot);
            }
            IrExpr::Lambda { param, body, .. } => {
                let caps = self.open_caps();
                let unit = self.unit(None, &[param], 0..0, caps, body);
                let captures = self.close_caps();
                self.table[id.0 as usize] = Resolved::Closure(self.closures.len() as u32);
                self.closures.push(ClosureSite {
                    chunk: unit,
                    captures,
                });
            }
            IrExpr::Letrec(bs, body) => self.resolve_letrec(id, bs, body),
            IrExpr::Dcons {
                reused, head, tail, ..
            } => {
                // The target resolves before head and tail (captures are
                // numbered in the order they are found).
                let slot = self.resolve_var(reused);
                self.table[id.0 as usize] = Resolved::Slot(slot);
                self.resolve_expr(head);
                self.resolve_expr(tail);
            }
            _ => {
                let arena = self.arena;
                for c in arena.children(id) {
                    self.resolve_expr(c);
                }
            }
        }
    }

    fn resolve_letrec(&mut self, id: ExprId, bs: Binds, body: ExprId) {
        let arena = self.arena;
        let binds = arena.binds(bs);
        let member = |e: ExprId| match arena[e] {
            IrExpr::Lambda { param, body, .. } => Some((param, body)),
            _ => None,
        };
        let saved_scope = self.scope.len();
        let rec_start = self.rec_names.len();
        self.rec_names.extend(
            binds
                .iter()
                .filter(|(_, e)| member(*e).is_some())
                .map(|(n, _)| *n),
        );
        let rec = rec_start..self.rec_names.len();
        let group = if rec.is_empty() {
            None
        } else {
            // Member bodies resolve against the scope *outside* this
            // letrec (the interpreter's `Rec` node closes over the env at
            // letrec entry), so resolve them before pushing any entries.
            let caps = self.open_caps();
            let mut chunks = Vec::with_capacity(rec.len());
            for &(name, e) in binds {
                if let Some((param, mbody)) = member(e) {
                    chunks.push(self.unit(Some(name), &[param], rec.clone(), caps, mbody));
                }
            }
            let captures = self.close_caps();
            let mut slots = Vec::with_capacity(rec.len());
            for i in rec.clone() {
                let name = self.rec_names[i];
                let slot = self.alloc_slot();
                slots.push(slot);
                // First member with a given name wins (Rec lookup is
                // first-match), so don't let a duplicate shadow it.
                if !self.rec_names[rec_start..i].contains(&name) {
                    self.scope.push((name, slot));
                }
            }
            Some(RecSite {
                chunks,
                captures,
                slots,
            })
        };
        self.rec_names.truncate(rec_start);
        let mut values = Vec::new();
        for &(name, e) in binds {
            if member(e).is_some() {
                continue;
            }
            // The binding's own name is not in scope for its expression.
            self.resolve_expr(e);
            let slot = self.alloc_slot();
            self.scope.push((name, slot));
            values.push(slot);
        }
        self.resolve_expr(body);
        self.scope.truncate(saved_scope);
        self.table[id.0 as usize] = Resolved::Letrec(self.letrecs.len() as u32);
        self.letrecs.push(LetrecInfo { group, values });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::IrFunc;
    use crate::test_util::lower;
    use nml_syntax::ast::Const;

    fn resolve(src: &str) -> (IrProgram, ResolvedProgram) {
        let ir = lower(src);
        let r = resolve_program(&ir);
        (ir, r)
    }

    fn unit(r: &ResolvedProgram, name: &str) -> CodeUnit {
        let n = Symbol::intern(name);
        *r.units
            .iter()
            .find(|u| u.name == Some(n))
            .expect("named unit")
    }

    /// Visits the nodes of the subtree at `id` that belong to the unit
    /// holding it: lambda bodies and the members of recursive groups are
    /// units of their own and are skipped.
    fn walk(ir: &IrProgram, u: &CodeUnit, id: ExprId, f: &mut impl FnMut(ExprId, &IrExpr)) {
        let a = ir.arena(u.arena as usize);
        f(id, &a[id]);
        match a[id] {
            IrExpr::Lambda { .. } => {}
            IrExpr::Letrec(bs, body) => {
                for &(_, e) in a.binds(bs) {
                    if !matches!(a[e], IrExpr::Lambda { .. }) {
                        walk(ir, u, e, f);
                    }
                }
                walk(ir, u, body, f);
            }
            _ => {
                for c in a.children(id) {
                    walk(ir, u, c, f);
                }
            }
        }
    }

    /// The slot of the first occurrence of `name` under `id` in unit `u`.
    fn find_var_at(
        ir: &IrProgram,
        r: &ResolvedProgram,
        u: &CodeUnit,
        id: ExprId,
        name: &str,
    ) -> Option<SlotRef> {
        let name = Symbol::intern(name);
        let mut found = None;
        walk(ir, u, id, &mut |n, e| {
            if let (IrExpr::Var(x), Resolved::Slot(s)) = (e, r.at(u.arena, n)) {
                if *x == name && found.is_none() {
                    found = Some(s);
                }
            }
        });
        found
    }

    fn find_var(ir: &IrProgram, r: &ResolvedProgram, u: &CodeUnit, name: &str) -> Option<SlotRef> {
        find_var_at(ir, r, u, u.root, name)
    }

    /// The closures created in unit `u`, in pre-order.
    fn closures<'r>(ir: &IrProgram, r: &'r ResolvedProgram, u: &CodeUnit) -> Vec<&'r ClosureSite> {
        let mut out = Vec::new();
        walk(ir, u, u.root, &mut |n, _| {
            if let Resolved::Closure(c) = r.at(u.arena, n) {
                out.push(&r.closures[c as usize]);
            }
        });
        out
    }

    /// The `letrec` at unit `u`'s root.
    fn root_letrec<'r>(
        ir: &IrProgram,
        r: &'r ResolvedProgram,
        u: &CodeUnit,
    ) -> (&'r LetrecInfo, Vec<ExprId>, ExprId) {
        let a = ir.arena(u.arena as usize);
        let IrExpr::Letrec(bs, body) = a[u.root] else {
            panic!("expected letrec body");
        };
        let Resolved::Letrec(l) = r.at(u.arena, u.root) else {
            panic!("letrec resolved");
        };
        let values = a
            .binds(bs)
            .iter()
            .filter(|(_, e)| !matches!(a[*e], IrExpr::Lambda { .. }))
            .map(|(_, e)| *e)
            .collect();
        (&r.letrecs[l as usize], values, body)
    }

    #[test]
    fn params_resolve_to_local_slots() {
        let (ir, r) = resolve("letrec add x y = x + y in add 1 2");
        let u = unit(&r, "add");
        assert_eq!(u.n_params, 2);
        assert_eq!(find_var(&ir, &r, &u, "x"), Some(SlotRef::Local(0)));
        assert_eq!(find_var(&ir, &r, &u, "y"), Some(SlotRef::Local(1)));
    }

    #[test]
    fn global_function_reference_is_direct() {
        let (ir, r) = resolve("letrec f x = f x in f 1");
        let main = r.units[r.main as usize];
        assert!(matches!(
            find_var(&ir, &r, &main, "f"),
            Some(SlotRef::GlobalFunc(0))
        ));
        // Self-recursion in a top-level function is also a global ref.
        let f = unit(&r, "f");
        assert!(matches!(
            find_var(&ir, &r, &f, "f"),
            Some(SlotRef::GlobalFunc(0))
        ));
    }

    #[test]
    fn nested_lambda_captures_outer_local() {
        // k is a local of `make`; the inner lambda must capture it. (The
        // lambda sits in argument position so lowering can't flatten it
        // into a curried parameter.)
        let (ir, r) = resolve("letrec pass f = f; make k = pass (lambda(x). x + k) in (make 3) 4");
        let make = unit(&r, "make");
        let mk = closures(&ir, &r, &make);
        let c = mk.last().expect("lambda stays a closure");
        assert_eq!(c.captures, vec![CaptureSrc::Local(0)]);
        let lam = r.units[c.chunk as usize];
        assert_eq!(find_var(&ir, &r, &lam, "k"), Some(SlotRef::Capture(0)));
        assert_eq!(find_var(&ir, &r, &lam, "x"), Some(SlotRef::Local(0)));
    }

    #[test]
    fn nested_letrec_siblings_resolve_to_rec() {
        let (ir, r) = resolve(
            "letrec go n =
               letrec ev x = if x = 0 then true else od (x - 1);
                      od x = if x = 0 then false else ev (x - 1)
               in ev n
             in go 4",
        );
        let ev = unit(&r, "ev");
        assert_eq!(find_var(&ir, &r, &ev, "od"), Some(SlotRef::Rec(1)));
        let od = unit(&r, "od");
        assert_eq!(find_var(&ir, &r, &od, "ev"), Some(SlotRef::Rec(0)));
        // The letrec body refers to the materialized closure slot.
        let go = unit(&r, "go");
        let (info, _, body) = root_letrec(&ir, &r, &go);
        let g = info.group.as_ref().expect("rec group");
        assert_eq!(g.chunks.len(), 2);
        assert_eq!(
            find_var_at(&ir, &r, &go, body, "ev"),
            Some(SlotRef::Local(g.slots[0]))
        );
    }

    #[test]
    fn value_bindings_get_frame_slots_in_order() {
        let (ir, r) = resolve("letrec f n = letrec a = n + 1; b = a + 1 in a + b in f 1");
        let f = unit(&r, "f");
        let (info, values, _) = root_letrec(&ir, &r, &f);
        assert!(info.group.is_none());
        assert_eq!(info.values.len(), 2);
        // `b`'s expression sees `a`'s slot.
        assert_eq!(
            find_var_at(&ir, &r, &f, values[1], "a"),
            Some(SlotRef::Local(info.values[0]))
        );
    }

    #[test]
    fn letrec_scope_is_restored_after_body() {
        // The second letrec's body must not see the first's binding.
        let (ir, r) = resolve("letrec f n = (letrec a = 1 in a) + (letrec b = 2 in b) in f 0");
        let f = unit(&r, "f");
        // Both letrec bodies resolve to locals, and slots are distinct.
        let mut slots = Vec::new();
        walk(&ir, &f, f.root, &mut |n, _| {
            if let Resolved::Slot(SlotRef::Local(s)) = r.at(f.arena, n) {
                if s != 0 {
                    slots.push(s);
                }
            }
        });
        assert_eq!(slots.len(), 2);
        assert_ne!(slots[0], slots[1]);
    }

    #[test]
    fn lambda_in_rec_member_captures_sibling_via_rec() {
        // Inside member `f`, a nested lambda referencing sibling `g`
        // captures it from f's rec group.
        let (ir, r) = resolve(
            "letrec run h = h 0 in
             letrec f x = run (lambda(y). g y + x);
                    g x = x * 2
             in f 5",
        );
        let f = unit(&r, "f");
        let cap = &closures(&ir, &r, &f)
            .last()
            .expect("nested lambda")
            .captures;
        assert!(cap.contains(&CaptureSrc::Rec(1)), "captures: {cap:?}");
        assert!(cap.contains(&CaptureSrc::Local(0)), "captures: {cap:?}");
    }

    /// An arena holding the single node `e`.
    fn leaf(e: IrExpr) -> Arena {
        let mut a = Arena::new();
        let id = a.push(e);
        a.set_root(id);
        a
    }

    fn func(name: &str, params: &[&str], body: Arena) -> IrFunc {
        IrFunc {
            name: Symbol::intern(name),
            params: params.iter().map(|p| Symbol::intern(p)).collect(),
            body,
        }
    }

    fn var(name: &str) -> Arena {
        leaf(IrExpr::Var(Symbol::intern(name)))
    }

    fn root_slot(r: &ResolvedProgram, unit: u32) -> Resolved {
        let u = r.units[unit as usize];
        r.at(u.arena, u.root)
    }

    #[test]
    fn unknown_name_resolves_to_unbound() {
        // The typechecker would reject a truly free variable, so build
        // the IR directly: a bare `Var` in the program body, with and
        // without other globals around.
        for funcs in [
            vec![],
            vec![func("f", &["x"], var("x")), func("k", &[], var("f"))],
        ] {
            let ir = IrProgram {
                funcs,
                body: var("ghost"),
                next_site: 0,
                variants: Default::default(),
            };
            let r = resolve_program(&ir);
            assert_eq!(root_slot(&r, r.main), Resolved::Slot(SlotRef::Unbound));
        }
    }

    #[test]
    fn function_referenced_before_its_definition_is_direct() {
        let (ir, r) = resolve("letrec g x = h x; h x = x + 1; k = g 1 in k");
        let g = unit(&r, "g");
        assert_eq!(find_var(&ir, &r, &g, "h"), Some(SlotRef::GlobalFunc(1)));
        let k = unit(&r, "k");
        assert_eq!(find_var(&ir, &r, &k, "g"), Some(SlotRef::GlobalFunc(0)));
    }

    #[test]
    fn startup_value_binding_sees_only_earlier_values() {
        // `b` references `a` (earlier: visible) — `a` referencing `c`
        // (later) must resolve Unbound, matching the interpreter. `a` is
        // bound twice; the second binding's own body, and `b`, see only
        // the first, while `d` and the body see the second. `x` runs
        // before the value binding of `g`, so it falls back to `g`'s first
        // binding, a function.
        let mut body = Arena::new();
        let a = body.push(IrExpr::Var(Symbol::intern("a")));
        let g = body.push(IrExpr::Var(Symbol::intern("g")));
        let app = body.push(IrExpr::App(a, g));
        body.set_root(app);
        let ir = IrProgram {
            funcs: vec![
                func("a", &[], var("c")),
                func("b", &[], var("a")),
                func("c", &[], leaf(IrExpr::Const(Const::Int(1)))),
                func("a", &[], var("a")),
                func("d", &[], var("a")),
                func("g", &["y"], var("y")),
                func("x", &[], var("g")),
                func("g", &[], leaf(IrExpr::Const(Const::Int(3)))),
                func("h", &["y"], var("a")),
            ],
            body,
            next_site: 0,
            variants: Default::default(),
        };
        let r = resolve_program(&ir);
        let at = |name: &str| {
            let u = unit(&r, name);
            r.at(u.arena, u.root)
        };
        assert_eq!(at("a"), Resolved::Slot(SlotRef::Unbound));
        assert_eq!(at("b"), Resolved::Slot(SlotRef::GlobalVal(0)));
        let GlobalDef::Value { chunk: a2 } = r.globals[3] else {
            panic!("second `a` is a value binding");
        };
        assert_eq!(root_slot(&r, a2), Resolved::Slot(SlotRef::GlobalVal(0)));
        assert_eq!(at("d"), Resolved::Slot(SlotRef::GlobalVal(3)));
        assert_eq!(at("x"), Resolved::Slot(SlotRef::GlobalFunc(5)));
        // A function body runs after startup and sees every value binding.
        let h = unit(&r, "h");
        assert_eq!(find_var(&ir, &r, &h, "a"), Some(SlotRef::GlobalVal(3)));
        let main = r.units[r.main as usize];
        assert_eq!(find_var(&ir, &r, &main, "a"), Some(SlotRef::GlobalVal(3)));
        assert_eq!(find_var(&ir, &r, &main, "g"), Some(SlotRef::GlobalVal(7)));
    }
}
