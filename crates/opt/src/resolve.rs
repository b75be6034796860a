//! Compile-time slot resolution for the bytecode engine.
//!
//! The tree-walking interpreter resolves every variable occurrence at
//! runtime by walking a linked `Env` chain of `Symbol` bindings. This
//! pass does that walk once, at compile time: each occurrence becomes a
//! [`SlotRef`] — a frame-local slot index, a closure-capture index, a
//! recursive-group member, or a direct global reference. The bytecode
//! compiler in `nml-runtime` consumes the resolved tree ([`RExpr`])
//! directly; the VM never searches for a `Symbol` on the hot path.
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

use crate::ir::{AllocMode, IrExpr, IrProgram, RegionKind, SiteId};
use nml_syntax::ast::{Const, Prim};
use nml_syntax::Symbol;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

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

/// The lambda members of one `letrec`, sharing a single capture array.
#[derive(Debug, Clone, PartialEq)]
pub struct RecGroup {
    /// Code units of the members, in binding order.
    pub units: Vec<u32>,
    /// The shared captures, resolved in the defining frame.
    pub captures: Vec<CaptureSrc>,
    /// Frame slots the materialized member closures are stored into.
    pub slots: Vec<u16>,
}

/// A slot-resolved expression.
#[derive(Debug, Clone, PartialEq)]
pub enum RExpr {
    /// A constant.
    Const(Const),
    /// A variable occurrence. The [`Symbol`] is kept only for `Unbound`
    /// error text; the VM reads the [`SlotRef`].
    Var(Symbol, SlotRef),
    /// General application.
    App(Box<RExpr>, Box<RExpr>),
    /// Closure creation: code unit plus where to copy its captures from.
    MakeClosure {
        /// Code unit of the lambda body.
        unit: u32,
        /// Capture sources in the creating frame.
        captures: Vec<CaptureSrc>,
    },
    /// `if c then t else f`
    If(Box<RExpr>, Box<RExpr>, Box<RExpr>),
    /// Nested `letrec`: an optional recursive lambda group plus value
    /// bindings stored into frame slots in evaluation order.
    Letrec {
        /// The mutually recursive lambda members, if any (boxed: most
        /// `letrec`s have none, and every tree node pays for the
        /// largest variant).
        group: Option<Box<RecGroup>>,
        /// `(slot, expr)` value bindings, in evaluation order.
        values: Vec<(u16, RExpr)>,
        /// The body.
        body: Box<RExpr>,
    },
    /// Saturated `cons` with an allocation mode.
    Cons {
        /// Where the cell is allocated.
        alloc: AllocMode,
        /// Head expression.
        head: Box<RExpr>,
        /// Tail expression.
        tail: Box<RExpr>,
        /// Allocation site.
        site: SiteId,
    },
    /// `DCONS x e1 e2`: destructive reuse of the cell bound to `x`.
    Dcons {
        /// Name of the reused variable (for error text).
        reused: Symbol,
        /// Resolved address of the reused variable.
        target: SlotRef,
        /// New head.
        head: Box<RExpr>,
        /// New tail.
        tail: Box<RExpr>,
        /// Site id (for reuse stats).
        site: SiteId,
    },
    /// A saturated unary primitive.
    Prim1(Prim, Box<RExpr>),
    /// A saturated binary primitive.
    Prim2(Prim, Box<RExpr>, Box<RExpr>),
    /// Dynamic extent for stack/block reclamation.
    Region {
        /// Stack or block semantics.
        kind: RegionKind,
        /// The wrapped expression.
        inner: Box<RExpr>,
    },
}

/// One compiled code unit: a top-level binding body, the program body,
/// or a lambda.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedUnit {
    /// Name, when the unit is a named binding (for diagnostics).
    pub name: Option<Symbol>,
    /// Number of parameters (slots `0..n_params` on entry).
    pub n_params: u16,
    /// Total frame slots (parameters plus `letrec` bindings).
    pub n_slots: u16,
    /// The resolved body.
    pub body: RExpr,
}

/// A resolved top-level binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolvedGlobal {
    /// A function binding: its code unit and curried arity.
    Func {
        /// Code unit index.
        unit: u32,
        /// Number of curried parameters.
        arity: u16,
    },
    /// A value binding, evaluated once at startup.
    Value {
        /// Code unit index.
        unit: u32,
    },
}

/// A whole slot-resolved program.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedProgram {
    /// All code units (top-level bodies and lambdas).
    pub units: Vec<ResolvedUnit>,
    /// Top-level bindings, parallel to `IrProgram::funcs`.
    pub globals: Vec<ResolvedGlobal>,
    /// Unit index of the program body.
    pub main: u32,
}

/// Resolves every variable occurrence of `p` to a [`SlotRef`].
pub fn resolve_program(p: &IrProgram) -> ResolvedProgram {
    let mut first_binding: HashMap<Symbol, usize> = HashMap::new();
    let mut value_bindings: HashMap<Symbol, Vec<usize>> = HashMap::new();
    for (i, f) in p.funcs.iter().enumerate() {
        first_binding.entry(f.name).or_insert(i);
        if !f.is_function() {
            value_bindings.entry(f.name).or_default().push(i);
        }
    }
    let mut r = Resolver {
        program: p,
        first_binding,
        value_bindings,
        units: Vec::new(),
        frames: Vec::new(),
        visible_vals: 0,
    };
    let mut globals = Vec::with_capacity(p.funcs.len());
    for (i, f) in p.funcs.iter().enumerate() {
        // A function body runs only when called, so it sees every value
        // binding (readiness is checked at load time); a startup value
        // binding sees only the bindings evaluated before it.
        r.visible_vals = if f.is_function() { p.funcs.len() } else { i };
        let unit = r.resolve_unit(Some(f.name), &f.params, Vec::new(), fresh_caps(), &f.body);
        globals.push(if f.is_function() {
            ResolvedGlobal::Func {
                unit,
                arity: f.params.len() as u16,
            }
        } else {
            ResolvedGlobal::Value { unit }
        });
    }
    r.visible_vals = p.funcs.len();
    let main = r.resolve_unit(None, &[], Vec::new(), fresh_caps(), &p.body);
    ResolvedProgram {
        units: r.units,
        globals,
        main,
    }
}

type SharedCaps = Rc<RefCell<Vec<(Symbol, CaptureSrc)>>>;

fn fresh_caps() -> SharedCaps {
    Rc::new(RefCell::new(Vec::new()))
}

/// One lexical frame while resolving. `scope` holds let-style binds
/// (innermost last); `rec_names` is the frame's own recursive group,
/// searched *after* `scope` (the interpreter's binds sit above the `Rec`
/// env node).
struct Frame {
    scope: Vec<(Symbol, u16)>,
    rec_names: Vec<Symbol>,
    next_slot: u16,
    captures: SharedCaps,
}

struct Resolver<'ir> {
    program: &'ir IrProgram,
    /// Top-level name → position of its textually first binding.
    first_binding: HashMap<Symbol, usize>,
    /// Top-level name → positions of its value bindings, ascending.
    value_bindings: HashMap<Symbol, Vec<usize>>,
    units: Vec<ResolvedUnit>,
    frames: Vec<Frame>,
    /// Upper bound (exclusive) on visible top-level value bindings.
    visible_vals: usize,
}

impl Resolver<'_> {
    fn resolve_unit(
        &mut self,
        name: Option<Symbol>,
        params: &[Symbol],
        rec_names: Vec<Symbol>,
        captures: SharedCaps,
        body: &IrExpr,
    ) -> u32 {
        self.frames.push(Frame {
            scope: params
                .iter()
                .enumerate()
                .map(|(i, p)| (*p, i as u16))
                .collect(),
            rec_names,
            next_slot: params.len() as u16,
            captures,
        });
        let body = self.resolve_expr(body);
        let frame = self.frames.pop().expect("frame balance");
        let id = self.units.len() as u32;
        self.units.push(ResolvedUnit {
            name,
            n_params: params.len() as u16,
            n_slots: frame.next_slot,
            body,
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
        if let Some(&(_, slot)) = self.frames[k].scope.iter().rev().find(|(n, _)| *n == x) {
            return SlotRef::Local(slot);
        }
        if let Some(j) = self.frames[k].rec_names.iter().position(|n| *n == x) {
            return SlotRef::Rec(j as u16);
        }
        if k == 0 {
            return self.resolve_global(x);
        }
        if let Some(i) = self.frames[k]
            .captures
            .borrow()
            .iter()
            .position(|(n, _)| *n == x)
        {
            return SlotRef::Capture(i as u16);
        }
        let src = match self.resolve_in(k - 1, x) {
            SlotRef::Local(s) => CaptureSrc::Local(s),
            SlotRef::Capture(i) => CaptureSrc::Capture(i),
            SlotRef::Rec(j) => CaptureSrc::Rec(j),
            global => return global,
        };
        let mut caps = self.frames[k].captures.borrow_mut();
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

    fn resolve_expr(&mut self, e: &IrExpr) -> RExpr {
        match e {
            IrExpr::Const(c) => RExpr::Const(*c),
            IrExpr::Var(x) => RExpr::Var(*x, self.resolve_var(*x)),
            IrExpr::App(a, b) => RExpr::App(
                Box::new(self.resolve_expr(a)),
                Box::new(self.resolve_expr(b)),
            ),
            IrExpr::Lambda { param, body, .. } => {
                let caps = fresh_caps();
                let unit = self.resolve_unit(None, &[*param], Vec::new(), caps.clone(), body);
                let captures = caps.borrow().iter().map(|(_, s)| *s).collect();
                RExpr::MakeClosure { unit, captures }
            }
            IrExpr::If(c, t, f) => RExpr::If(
                Box::new(self.resolve_expr(c)),
                Box::new(self.resolve_expr(t)),
                Box::new(self.resolve_expr(f)),
            ),
            IrExpr::Letrec(bs, body) => self.resolve_letrec(bs, body),
            IrExpr::Cons {
                alloc,
                head,
                tail,
                site,
            } => RExpr::Cons {
                alloc: *alloc,
                head: Box::new(self.resolve_expr(head)),
                tail: Box::new(self.resolve_expr(tail)),
                site: *site,
            },
            IrExpr::Dcons {
                reused,
                head,
                tail,
                site,
            } => RExpr::Dcons {
                reused: *reused,
                target: self.resolve_var(*reused),
                head: Box::new(self.resolve_expr(head)),
                tail: Box::new(self.resolve_expr(tail)),
                site: *site,
            },
            IrExpr::Prim1(p, a) => RExpr::Prim1(*p, Box::new(self.resolve_expr(a))),
            IrExpr::Prim2(p, a, b) => RExpr::Prim2(
                *p,
                Box::new(self.resolve_expr(a)),
                Box::new(self.resolve_expr(b)),
            ),
            IrExpr::Region { kind, inner, .. } => RExpr::Region {
                kind: *kind,
                inner: Box::new(self.resolve_expr(inner)),
            },
        }
    }

    fn resolve_letrec(&mut self, bs: &[(Symbol, IrExpr)], body: &IrExpr) -> RExpr {
        let mut members: Vec<(Symbol, Symbol, &IrExpr)> = Vec::new();
        let mut value_bs: Vec<(Symbol, &IrExpr)> = Vec::new();
        for (n, e) in bs {
            if let IrExpr::Lambda { param, body, .. } = e {
                members.push((*n, *param, body));
            } else {
                value_bs.push((*n, e));
            }
        }
        let saved_scope = self.frames.last().expect("active frame").scope.len();
        let group = if members.is_empty() {
            None
        } else {
            // Member bodies resolve against the scope *outside* this
            // letrec (the interpreter's `Rec` node closes over the env at
            // letrec entry), so resolve them before pushing any entries.
            let shared = fresh_caps();
            let rec_names: Vec<Symbol> = members.iter().map(|m| m.0).collect();
            let mut units = Vec::new();
            for (name, param, mbody) in &members {
                units.push(self.resolve_unit(
                    Some(*name),
                    &[*param],
                    rec_names.clone(),
                    shared.clone(),
                    mbody,
                ));
            }
            let captures: Vec<CaptureSrc> = shared.borrow().iter().map(|(_, s)| *s).collect();
            let mut slots = Vec::new();
            for (i, (name, _, _)) in members.iter().enumerate() {
                let slot = self.alloc_slot();
                slots.push(slot);
                // First member with a given name wins (Rec lookup is
                // first-match), so don't let a duplicate shadow it.
                if !members[..i].iter().any(|(n, _, _)| n == name) {
                    let f = self.frames.last_mut().expect("active frame");
                    f.scope.push((*name, slot));
                }
            }
            Some(Box::new(RecGroup {
                units,
                captures,
                slots,
            }))
        };
        let mut values = Vec::new();
        for (name, e) in value_bs {
            // The binding's own name is not in scope for its expression.
            let re = self.resolve_expr(e);
            let slot = self.alloc_slot();
            self.frames
                .last_mut()
                .expect("active frame")
                .scope
                .push((name, slot));
            values.push((slot, re));
        }
        let rbody = self.resolve_expr(body);
        self.frames
            .last_mut()
            .expect("active frame")
            .scope
            .truncate(saved_scope);
        RExpr::Letrec {
            group,
            values,
            body: Box::new(rbody),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::lower_program;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn resolve(src: &str) -> ResolvedProgram {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        resolve_program(&lower_program(&p, &info))
    }

    fn unit<'a>(r: &'a ResolvedProgram, name: &str) -> &'a ResolvedUnit {
        let n = Symbol::intern(name);
        r.units
            .iter()
            .find(|u| u.name == Some(n))
            .expect("named unit")
    }

    fn find_var(e: &RExpr, name: Symbol) -> Option<SlotRef> {
        let mut found = None;
        walk(e, &mut |n| {
            if let RExpr::Var(x, s) = n {
                if *x == name && found.is_none() {
                    found = Some(*s);
                }
            }
        });
        found
    }

    fn walk<'a>(e: &'a RExpr, f: &mut impl FnMut(&'a RExpr)) {
        f(e);
        match e {
            RExpr::Const(_) | RExpr::Var(..) | RExpr::MakeClosure { .. } => {}
            RExpr::App(a, b) | RExpr::Prim2(_, a, b) => {
                walk(a, f);
                walk(b, f);
            }
            RExpr::If(a, b, c) => {
                walk(a, f);
                walk(b, f);
                walk(c, f);
            }
            RExpr::Letrec { values, body, .. } => {
                for (_, v) in values {
                    walk(v, f);
                }
                walk(body, f);
            }
            RExpr::Cons { head, tail, .. } | RExpr::Dcons { head, tail, .. } => {
                walk(head, f);
                walk(tail, f);
            }
            RExpr::Prim1(_, a) => walk(a, f),
            RExpr::Region { inner, .. } => walk(inner, f),
        }
    }

    #[test]
    fn params_resolve_to_local_slots() {
        let r = resolve("letrec add x y = x + y in add 1 2");
        let u = unit(&r, "add");
        assert_eq!(u.n_params, 2);
        assert_eq!(
            find_var(&u.body, Symbol::intern("x")),
            Some(SlotRef::Local(0))
        );
        assert_eq!(
            find_var(&u.body, Symbol::intern("y")),
            Some(SlotRef::Local(1))
        );
    }

    #[test]
    fn global_function_reference_is_direct() {
        let r = resolve("letrec f x = f x in f 1");
        let main = &r.units[r.main as usize];
        assert!(matches!(
            find_var(&main.body, Symbol::intern("f")),
            Some(SlotRef::GlobalFunc(0))
        ));
        // Self-recursion in a top-level function is also a global ref.
        let f = unit(&r, "f");
        assert!(matches!(
            find_var(&f.body, Symbol::intern("f")),
            Some(SlotRef::GlobalFunc(0))
        ));
    }

    #[test]
    fn nested_lambda_captures_outer_local() {
        // k is a local of `make`; the inner lambda must capture it. (The
        // lambda sits in argument position so lowering can't flatten it
        // into a curried parameter.)
        let r = resolve("letrec pass f = f; make k = pass (lambda(x). x + k) in (make 3) 4");
        let make = unit(&r, "make");
        let mut mk: Option<(u32, Vec<CaptureSrc>)> = None;
        walk(&make.body, &mut |e| {
            if let RExpr::MakeClosure { unit, captures } = e {
                mk = Some((*unit, captures.clone()));
            }
        });
        let (u, captures) = mk.expect("lambda stays a closure");
        let (u, captures) = (&u, &captures);
        assert_eq!(captures, &vec![CaptureSrc::Local(0)]);
        let lam = &r.units[*u as usize];
        assert_eq!(
            find_var(&lam.body, Symbol::intern("k")),
            Some(SlotRef::Capture(0))
        );
        assert_eq!(
            find_var(&lam.body, Symbol::intern("x")),
            Some(SlotRef::Local(0))
        );
    }

    #[test]
    fn nested_letrec_siblings_resolve_to_rec() {
        let r = resolve(
            "letrec go n =
               letrec ev x = if x = 0 then true else od (x - 1);
                      od x = if x = 0 then false else ev (x - 1)
               in ev n
             in go 4",
        );
        let ev = unit(&r, "ev");
        assert_eq!(
            find_var(&ev.body, Symbol::intern("od")),
            Some(SlotRef::Rec(1))
        );
        let od = unit(&r, "od");
        assert_eq!(
            find_var(&od.body, Symbol::intern("ev")),
            Some(SlotRef::Rec(0))
        );
        // The letrec body refers to the materialized closure slot.
        let go = unit(&r, "go");
        let RExpr::Letrec { group, body, .. } = &go.body else {
            panic!("expected letrec body");
        };
        let g = group.as_ref().expect("rec group");
        assert_eq!(g.units.len(), 2);
        assert_eq!(
            find_var(body, Symbol::intern("ev")),
            Some(SlotRef::Local(g.slots[0]))
        );
    }

    #[test]
    fn value_bindings_get_frame_slots_in_order() {
        let r = resolve("letrec f n = letrec a = n + 1; b = a + 1 in a + b in f 1");
        let f = unit(&r, "f");
        let RExpr::Letrec { group, values, .. } = &f.body else {
            panic!("expected letrec");
        };
        assert!(group.is_none());
        assert_eq!(values.len(), 2);
        // `b`'s expression sees `a`'s slot.
        assert_eq!(
            find_var(&values[1].1, Symbol::intern("a")),
            Some(SlotRef::Local(values[0].0))
        );
    }

    #[test]
    fn letrec_scope_is_restored_after_body() {
        // The second letrec's body must not see the first's binding.
        let r = resolve("letrec f n = (letrec a = 1 in a) + (letrec b = 2 in b) in f 0");
        let f = unit(&r, "f");
        // Both letrec bodies resolve to locals, and slots are distinct.
        let mut slots = Vec::new();
        walk(&f.body, &mut |e| {
            if let RExpr::Var(_, SlotRef::Local(s)) = e {
                if *s != 0 {
                    slots.push(*s);
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
        let r = resolve(
            "letrec run h = h 0 in
             letrec f x = run (lambda(y). g y + x);
                    g x = x * 2
             in f 5",
        );
        let f = unit(&r, "f");
        let mut cap: Option<Vec<CaptureSrc>> = None;
        walk(&f.body, &mut |e| {
            if let RExpr::MakeClosure { captures, .. } = e {
                cap = Some(captures.clone());
            }
        });
        let cap = cap.expect("nested lambda");
        assert!(cap.contains(&CaptureSrc::Rec(1)), "captures: {cap:?}");
        assert!(cap.contains(&CaptureSrc::Local(0)), "captures: {cap:?}");
    }

    fn func(name: &str, params: &[&str], body: IrExpr) -> crate::ir::IrFunc {
        crate::ir::IrFunc {
            name: Symbol::intern(name),
            params: params.iter().map(|p| Symbol::intern(p)).collect(),
            body,
        }
    }

    fn var(name: &str) -> IrExpr {
        IrExpr::Var(Symbol::intern(name))
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
            let main = &r.units[r.main as usize];
            assert!(matches!(main.body, RExpr::Var(_, SlotRef::Unbound)));
        }
    }

    #[test]
    fn function_referenced_before_its_definition_is_direct() {
        let r = resolve("letrec g x = h x; h x = x + 1; k = g 1 in k");
        let g = unit(&r, "g");
        assert_eq!(
            find_var(&g.body, Symbol::intern("h")),
            Some(SlotRef::GlobalFunc(1))
        );
        let k = unit(&r, "k");
        assert_eq!(
            find_var(&k.body, Symbol::intern("g")),
            Some(SlotRef::GlobalFunc(0))
        );
    }

    #[test]
    fn startup_value_binding_sees_only_earlier_values() {
        // `b` references `a` (earlier: visible) — `a` referencing `c`
        // (later) must resolve Unbound, matching the interpreter. `a` is
        // bound twice; the second binding's own body, and `b`, see only
        // the first, while `d` and the body see the second. `x` runs
        // before the value binding of `g`, so it falls back to `g`'s first
        // binding, a function.
        let ir = IrProgram {
            funcs: vec![
                func("a", &[], var("c")),
                func("b", &[], var("a")),
                func("c", &[], IrExpr::Const(Const::Int(1))),
                func("a", &[], var("a")),
                func("d", &[], var("a")),
                func("g", &["y"], var("y")),
                func("x", &[], var("g")),
                func("g", &[], IrExpr::Const(Const::Int(3))),
                func("h", &["y"], var("a")),
            ],
            body: IrExpr::App(Box::new(var("a")), Box::new(var("g"))),
            next_site: 0,
            variants: Default::default(),
        };
        let r = resolve_program(&ir);
        let a = unit(&r, "a");
        assert!(matches!(a.body, RExpr::Var(_, SlotRef::Unbound)));
        let b = unit(&r, "b");
        assert!(matches!(b.body, RExpr::Var(_, SlotRef::GlobalVal(0))));
        let ResolvedGlobal::Value { unit: a2 } = r.globals[3] else {
            panic!("second `a` is a value binding");
        };
        assert!(matches!(
            r.units[a2 as usize].body,
            RExpr::Var(_, SlotRef::GlobalVal(0))
        ));
        let d = unit(&r, "d");
        assert!(matches!(d.body, RExpr::Var(_, SlotRef::GlobalVal(3))));
        let x = unit(&r, "x");
        assert!(matches!(x.body, RExpr::Var(_, SlotRef::GlobalFunc(5))));
        // A function body runs after startup and sees every value binding.
        let h = unit(&r, "h");
        assert_eq!(
            find_var(&h.body, Symbol::intern("a")),
            Some(SlotRef::GlobalVal(3))
        );
        let main = &r.units[r.main as usize];
        assert_eq!(
            find_var(&main.body, Symbol::intern("a")),
            Some(SlotRef::GlobalVal(3))
        );
        assert_eq!(
            find_var(&main.body, Symbol::intern("g")),
            Some(SlotRef::GlobalVal(7))
        );
    }
}
