//! Flat bytecode for the register/stack VM ([`crate::vm`]).
//!
//! The compiler consumes the slot-resolved tree produced by
//! [`nml_opt::resolve_program`] and flattens it into compact instruction
//! sequences with explicit jump offsets. Each [`nml_opt::ResolvedUnit`]
//! becomes one [`Chunk`] (same index), so a resolved `GlobalFunc`
//! reference is directly a chunk to enter.
//!
//! Design points:
//!
//! - **Tail calls are resolved statically.** The emitter threads a
//!   tail-position flag; an application in tail position compiles to
//!   [`Op::TailCall`]/[`Op::TailCallGlobal`], which replace the current
//!   frame in place, and every other tail expression ends in
//!   [`Op::Return`]. Compiled code never falls off the end of a chunk.
//! - **Saturated global calls skip closure creation.** An application
//!   spine whose head resolves to a top-level function with enough
//!   arguments compiles to a single [`Op::CallGlobal`]: the arguments
//!   are moved from the operand stack straight into the callee's frame
//!   slots, with no intermediate partial-application values.
//! - **`DCONS` keeps the interpreter's error ordering.** The reuse
//!   target is loaded and checked ([`Op::CheckPair`]) *before* the head
//!   and tail evaluate, exactly like the tree-walker.
//! - **`letrec` slots are cleared on scope exit** ([`Op::ClearLocal`]),
//!   so a dead binding in a frame slot does not outlive its scope — the
//!   VM's root set stays as tight as the tree-walker's environment
//!   chains (this matters for region validation, which proves
//!   *unreachability*).

use nml_opt::{
    resolve_program, AllocMode, CaptureSrc, IrProgram, RExpr, RegionKind, ResolvedGlobal, SiteId,
    SlotRef,
};
use nml_syntax::ast::Const;
use nml_syntax::{Prim, Symbol};

/// One VM instruction. `Copy` so the dispatch loop can fetch by value
/// and keep no borrow of the code while it mutates the machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Push an integer constant.
    PushInt(i64),
    /// Push a boolean constant.
    PushBool(bool),
    /// Push the empty list.
    PushNil,
    /// Push a primitive as a first-class function value.
    PushPrim(Prim),
    /// Push frame slot `i`.
    LoadLocal(u16),
    /// Push capture `i` of the current closure.
    LoadCapture(u16),
    /// Materialize member `j` of the current recursive group (shares the
    /// current capture environment).
    LoadRec(u16),
    /// Push top-level function `i` (a partial-application seed).
    LoadGlobalFunc(u32),
    /// Push top-level value binding `i`; raises `Unbound` when startup
    /// has not initialized it yet.
    LoadGlobalVal(u32),
    /// A statically unbound name: raises `Unbound` with this name.
    Unbound(Symbol),
    /// Pop into frame slot `i`.
    StoreLocal(u16),
    /// Overwrite frame slot `i` with nil (scope exit).
    ClearLocal(u16),
    /// Build a closure from closure-site `i`, copying its captures out
    /// of the current frame.
    MakeClosure(u32),
    /// Build a mutually recursive closure group from rec-site `i`: one
    /// shared capture environment, one materialized closure per member,
    /// stored into the site's frame slots.
    MakeRec(u32),
    /// Unconditional jump to an absolute offset in the current chunk.
    Jump(u32),
    /// Pop a bool; jump to the offset when it is `false`.
    JumpIfFalse(u32),
    /// Pop argument then callee; apply one argument.
    Call,
    /// Like [`Op::Call`] but replaces the current frame (tail position).
    TailCall,
    /// Enter chunk `c` directly; its `n_params` arguments move from the
    /// operand stack into the new frame's slots.
    CallGlobal(u32),
    /// Like [`Op::CallGlobal`] but replaces the current frame.
    TailCallGlobal(u32),
    /// Pop the result and return to the calling frame.
    Return,
    /// Pop tail then head; allocate a cons cell with the given mode.
    Cons {
        /// Storage decision from the escape analysis.
        mode: AllocMode,
        /// Allocation site (for statistics and checked-mode claims).
        site: SiteId,
    },
    /// Assert the top of stack is a pair (the `DCONS` target check,
    /// *before* head/tail evaluate).
    CheckPair,
    /// Pop tail, head, and target cell; reuse the target in place (or
    /// copy-and-retire in checked mode).
    Dcons(SiteId),
    /// A scalar-replaced (SROA'd) cons site: head and tail were just
    /// stored into frame slots and **no cell exists**. Only bumps the
    /// `allocs_elided` statistic — no stack effect, and no GC poll is
    /// needed because nothing allocates (the scalar slots are rooted by
    /// the frame scan like any other local).
    ElideCons(SiteId),
    /// Pop one value, apply a unary primitive, push the result.
    Prim1(Prim),
    /// Pop two values, apply a binary primitive, push the result.
    Prim2(Prim),
    /// Fused `LoadLocal(i); Prim1(p)`: apply the primitive straight to
    /// frame slot `i` (peephole superinstruction — no operand-stack
    /// round trip).
    Prim1Local(Prim, u16),
    /// Fused `Prim1Local(p1, i); Prim1(p2)`: apply `p1` to frame slot
    /// `i`, then `p2` to the result — the chained pair projection
    /// (`car (cdr x)`, `car (car l)`) that dominates tuple-shaped
    /// workloads like `map_pair`. Unary primitives never allocate, so
    /// the GC-poll instruction set is unaffected, and both applications
    /// replay the generic path's type errors verbatim.
    Proj2Local(Prim, Prim, u16),
    /// Fused `LoadLocal(i); Prim2(p)`: pop the left operand, take the
    /// *right* operand from frame slot `i`. Never emitted for
    /// allocating primitives (keeps the GC-poll sites exact).
    Prim2Local(Prim, u16),
    /// Fused `PushInt(n); Prim2(p)`: pop the left operand, use `n` as
    /// the right. Never emitted for allocating primitives.
    Prim2Imm(Prim, i64),
    /// Fused `Prim1Local(Null, i); JumpIfFalse(t)` — the ubiquitous
    /// `if (null l)` loop header: jump when frame slot `i` holds a cons
    /// cell, fall through when nil.
    JumpIfPairLocal(u16, u32),
    /// Open a dynamic extent (stack region or block).
    EnterRegion(RegionKind),
    /// Close the innermost extent opened by this chunk.
    ExitRegion,
}

/// One compiled code unit (a top-level binding body, a lambda, or the
/// program body). Chunk indices coincide with resolved-unit indices.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Name, when the chunk is a named binding (diagnostics only).
    pub name: Option<Symbol>,
    /// Number of parameters, occupying slots `0..n_params` on entry.
    pub n_params: u16,
    /// Total frame slots (parameters plus `letrec` bindings).
    pub n_slots: u16,
    /// The instructions.
    pub code: Vec<Op>,
}

/// A closure creation site: which chunk the closure runs and where its
/// captures are copied from in the *creating* frame.
#[derive(Debug, Clone)]
pub struct ClosureSite {
    /// The code unit the closure executes.
    pub chunk: u32,
    /// Capture sources, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
}

/// A `letrec` lambda-group creation site. All members share one capture
/// environment; each materialized member closure lands in a frame slot.
#[derive(Debug, Clone)]
pub struct RecSite {
    /// Member chunks, in binding order.
    pub chunks: Vec<u32>,
    /// The shared captures, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
    /// Frame slots the member closures are stored into.
    pub slots: Vec<u16>,
}

/// A compiled top-level binding.
#[derive(Debug, Clone, Copy)]
pub enum GlobalDef {
    /// A function: entered directly via [`Op::CallGlobal`].
    Func {
        /// The chunk holding its body.
        chunk: u32,
        /// Curried arity.
        arity: u16,
    },
    /// A value binding, evaluated once at startup.
    Value {
        /// The chunk holding its initializer.
        chunk: u32,
    },
}

/// A whole compiled program.
#[derive(Debug, Clone)]
pub struct BytecodeProgram {
    /// All code units.
    pub chunks: Vec<Chunk>,
    /// Closure creation sites referenced by [`Op::MakeClosure`].
    pub closures: Vec<ClosureSite>,
    /// Recursive-group sites referenced by [`Op::MakeRec`].
    pub recs: Vec<RecSite>,
    /// Top-level bindings, parallel to `IrProgram::funcs`.
    pub globals: Vec<GlobalDef>,
    /// The program body's chunk.
    pub main: u32,
}

/// Compiles an IR program to bytecode (slot resolution plus flattening).
pub fn compile(p: &IrProgram) -> BytecodeProgram {
    let r = resolve_program(p);
    let globals: Vec<GlobalDef> = r
        .globals
        .iter()
        .map(|g| match *g {
            ResolvedGlobal::Func { unit, arity } => GlobalDef::Func { chunk: unit, arity },
            ResolvedGlobal::Value { unit } => GlobalDef::Value { chunk: unit },
        })
        .collect();
    let mut e = Emitter {
        code: Vec::new(),
        closures: Vec::new(),
        recs: Vec::new(),
        globals: &globals,
        next_slot: 0,
    };
    let mut fuse = Peephole::default();
    let chunks = r
        .units
        .into_iter()
        .map(|mut u| {
            e.code.clear();
            e.next_slot = u.n_slots;
            // The emitter owns the resolved tree: SROA rewrites it in
            // place as it goes.
            e.emit(&mut u.body, true);
            Chunk {
                name: u.name,
                n_params: u.n_params,
                // Includes any scalar slots minted for SROA'd cons cells.
                n_slots: e.next_slot,
                code: fuse.run(&e.code),
            }
        })
        .collect();
    BytecodeProgram {
        chunks,
        closures: e.closures,
        recs: e.recs,
        globals,
        main: r.main,
    }
}

/// The peephole pass: fuses adjacent load/apply pairs into
/// superinstructions, then remaps jump targets over the shortened code.
/// A pair is only fused when its second instruction is not a jump
/// target, and never for allocating primitives (the VM polls the GC at
/// allocation instructions while the operands are still rooted, so the
/// set of allocation instructions must survive fusion unchanged).
///
/// A fused `Prim1Local` fuses once more, in the same pass, with a
/// following `JumpIfFalse` (the `if (null l)` loop header) or `Prim1`
/// (a chained projection such as `car (cdr x)`).
///
/// The scratch tables are kept from one chunk to the next.
#[derive(Default)]
struct Peephole {
    /// Whether each pc is a jump target.
    is_target: Vec<bool>,
    /// Old pc → new pc, for jump remapping (only read at jump targets,
    /// which never disappear into the second half of a fused pair).
    map: Vec<u32>,
}

impl Peephole {
    fn run(&mut self, code: &[Op]) -> Vec<Op> {
        let is_target = &mut self.is_target;
        is_target.clear();
        is_target.resize(code.len() + 1, false);
        for op in code {
            if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfPairLocal(_, t) = op {
                is_target[*t as usize] = true;
            }
        }
        let map = &mut self.map;
        map.clear();
        map.resize(code.len() + 1, 0);
        let mut out: Vec<Op> = Vec::with_capacity(code.len());
        let mut i = 0;
        while i < code.len() {
            map[i] = out.len() as u32;
            let next = code.get(i + 1).filter(|_| !is_target[i + 1]);
            let pair = match (code[i], next) {
                (Op::LoadLocal(s), Some(&Op::Prim1(p))) => Some(Op::Prim1Local(p, s)),
                (Op::LoadLocal(s), Some(&Op::Prim2(p))) if !p.allocates() => {
                    Some(Op::Prim2Local(p, s))
                }
                (Op::PushInt(n), Some(&Op::Prim2(p))) if !p.allocates() => Some(Op::Prim2Imm(p, n)),
                _ => None,
            };
            if let Some(op) = pair {
                out.push(op);
                i += 2;
                continue;
            }
            let op = code[i];
            i += 1;
            // The jump target is an *old* pc here; the remap below fixes
            // it. Unary primitives never allocate, so GC-poll sites
            // survive.
            let second_round = match (out.last(), op) {
                (Some(&Op::Prim1Local(Prim::Null, s)), Op::JumpIfFalse(t)) if !is_target[i - 1] => {
                    Some(Op::JumpIfPairLocal(s, t))
                }
                (Some(&Op::Prim1Local(p1, s)), Op::Prim1(p2)) if !is_target[i - 1] => {
                    Some(Op::Proj2Local(p1, p2, s))
                }
                _ => None,
            };
            match second_round {
                Some(fused) => *out.last_mut().expect("fused onto the last op") = fused,
                None => out.push(op),
            }
        }
        map[code.len()] = out.len() as u32;
        for op in &mut out {
            if let Op::Jump(t) | Op::JumpIfFalse(t) | Op::JumpIfPairLocal(_, t) = op {
                *t = map[*t as usize];
            }
        }
        out
    }
}

struct Emitter<'a> {
    /// The current chunk's code, before peephole fusion (the buffer is
    /// reused from chunk to chunk).
    code: Vec<Op>,
    closures: Vec<ClosureSite>,
    recs: Vec<RecSite>,
    globals: &'a [GlobalDef],
    /// Next free frame slot; starts at the resolver's `n_slots` and
    /// grows when SROA mints scalar slots for an elided cons cell.
    next_slot: u16,
}

impl Emitter<'_> {
    /// Emits `e`; when `tail` is set the emitted code is guaranteed to
    /// end the chunk (via `Return` or a tail call) — control never falls
    /// through past a tail expression.
    fn emit(&mut self, e: &mut RExpr, tail: bool) {
        match e {
            RExpr::Const(c) => {
                self.code.push(match c {
                    Const::Int(n) => Op::PushInt(*n),
                    Const::Bool(b) => Op::PushBool(*b),
                    Const::Nil => Op::PushNil,
                    Const::Prim(p) => Op::PushPrim(*p),
                });
                self.ret_if(tail);
            }
            RExpr::Var(x, slot) => {
                self.emit_load(*x, *slot);
                self.ret_if(tail);
            }
            RExpr::App(..) => self.emit_app(e, tail),
            RExpr::MakeClosure { unit, captures } => {
                let idx = self.closures.len() as u32;
                self.closures.push(ClosureSite {
                    chunk: *unit,
                    captures: captures.clone(),
                });
                self.code.push(Op::MakeClosure(idx));
                self.ret_if(tail);
            }
            RExpr::If(c, t, f) => {
                self.emit(c, false);
                let jf = self.jump_placeholder(Op::JumpIfFalse(0));
                self.emit(t, tail);
                if tail {
                    // Both branches end the chunk; no join point needed.
                    self.patch(jf);
                    self.emit(f, true);
                } else {
                    let jend = self.jump_placeholder(Op::Jump(0));
                    self.patch(jf);
                    self.emit(f, false);
                    self.patch(jend);
                }
            }
            RExpr::Letrec {
                group,
                values,
                body,
            } => {
                let mut bound: Vec<u16> = Vec::new();
                if let Some(g) = group {
                    let idx = self.recs.len() as u32;
                    self.recs.push(RecSite {
                        chunks: g.units.clone(),
                        captures: g.captures.clone(),
                        slots: g.slots.clone(),
                    });
                    self.code.push(Op::MakeRec(idx));
                    bound.extend(&g.slots);
                }
                let any_elided = values.iter().any(|(_, v)| {
                    matches!(
                        v,
                        RExpr::Cons {
                            alloc: AllocMode::Elided,
                            ..
                        }
                    )
                });
                if !any_elided {
                    for (slot, v) in values.iter_mut() {
                        self.emit(v, false);
                        self.code.push(Op::StoreLocal(*slot));
                        bound.push(*slot);
                    }
                    self.emit(body, tail);
                } else {
                    let group_caps = group.as_ref().map_or(&[][..], |g| &g.captures);
                    self.emit_letrec_scalarized(group_caps, values, body, tail, &mut bound);
                }
                if !tail {
                    // Scope exit: drop the bindings so the frame keeps
                    // nothing alive past its lexical extent. (In tail
                    // position the whole frame unwinds instead.)
                    for s in bound {
                        self.code.push(Op::ClearLocal(s));
                    }
                }
            }
            RExpr::Cons {
                alloc,
                head,
                tail: t,
                site,
            } => {
                self.emit(head, false);
                self.emit(t, false);
                self.code.push(Op::Cons {
                    mode: *alloc,
                    site: *site,
                });
                self.ret_if(tail);
            }
            RExpr::Dcons {
                reused,
                target,
                head,
                tail: t,
                site,
            } => {
                self.emit_load(*reused, *target);
                self.code.push(Op::CheckPair);
                self.emit(head, false);
                self.emit(t, false);
                self.code.push(Op::Dcons(*site));
                self.ret_if(tail);
            }
            RExpr::Prim1(p, a) => {
                self.emit(a, false);
                self.code.push(Op::Prim1(*p));
                self.ret_if(tail);
            }
            RExpr::Prim2(p, a, b) => {
                self.emit(a, false);
                self.emit(b, false);
                self.code.push(Op::Prim2(*p));
                self.ret_if(tail);
            }
            RExpr::Region { kind, inner } => {
                self.code.push(Op::EnterRegion(*kind));
                self.emit(inner, false);
                self.code.push(Op::ExitRegion);
                self.ret_if(tail);
            }
        }
    }

    /// Flattens an application spine. A head resolving to a top-level
    /// function with enough arguments becomes a direct chunk call;
    /// everything else goes through one-argument `Call`s, mirroring the
    /// interpreter's currying (same evaluation order, same errors).
    fn emit_app(&mut self, e: &mut RExpr, tail: bool) {
        let mut n = 0;
        let mut head = &*e;
        while let RExpr::App(f, _) = head {
            n += 1;
            head = f;
        }
        let direct = match head {
            RExpr::Var(_, SlotRef::GlobalFunc(i)) => {
                let GlobalDef::Func { chunk, arity } = self.globals[*i as usize] else {
                    unreachable!("GlobalFunc resolves to a function binding");
                };
                (arity as usize <= n).then_some((chunk, arity as usize))
            }
            _ => None,
        };
        self.emit_spine(e, n, direct, tail);
    }

    /// Emits the spine node `e`, the application of its head to
    /// arguments `1..=k` of `n`: the head, then each argument followed by
    /// its call. With `direct = (chunk, arity)` the head is not loaded;
    /// the first `arity` arguments feed one [`Op::CallGlobal`] (an
    /// over-application applies the leftovers one by one).
    fn emit_spine(
        &mut self,
        e: &mut RExpr,
        n: usize,
        direct: Option<(u32, usize)>,
        tail: bool,
    ) -> usize {
        let RExpr::App(f, a) = e else {
            if direct.is_none() {
                self.emit(e, false);
            }
            return 0;
        };
        let k = self.emit_spine(f, n, direct, tail) + 1;
        self.emit(a, false);
        let last = k == n && tail;
        match direct {
            Some((_, arity)) if k < arity => {}
            Some((chunk, arity)) if k == arity => self.code.push(if last {
                Op::TailCallGlobal(chunk)
            } else {
                Op::CallGlobal(chunk)
            }),
            _ => self.code.push(if last { Op::TailCall } else { Op::Call }),
        }
        k
    }

    /// The `letrec` path taken when at least one binding carries an
    /// [`AllocMode::Elided`] license. Each licensed `cons` binding is
    /// **re-verified syntactically** against everything that can see its
    /// slot (the same letrec's rec-group captures, later sibling values,
    /// and the body): every reference must be directly under `car`,
    /// `cdr`, or `null`. Only then is the cell scalar-replaced — head
    /// and tail land in two fresh frame slots, projections become plain
    /// slot loads, `null` folds to `false`, and [`Op::ElideCons`] records
    /// the vanished allocation. A binding that fails the re-check (a
    /// wrong or sabotaged mark, a bare use, a capture, a dcons target,
    /// slot exhaustion) is emitted unchanged and its `Elided` mode
    /// allocates on the heap — the mark is a license, never an
    /// obligation, so it can never change program meaning.
    fn emit_letrec_scalarized(
        &mut self,
        group_caps: &[CaptureSrc],
        values: &mut [(u16, RExpr)],
        body: &mut RExpr,
        tail: bool,
        bound: &mut Vec<u16>,
    ) {
        for i in 0..values.len() {
            let (current, later) = values.split_at_mut(i + 1);
            let (slot, v) = &mut current[i];
            let slot = *slot;
            let scalarized = match v {
                RExpr::Cons {
                    alloc: AllocMode::Elided,
                    head,
                    tail: t,
                    site,
                } if self.scalarize_ok(slot, head, t, group_caps, later, body) => {
                    let h = self.next_slot;
                    let ts = self.next_slot + 1;
                    self.next_slot += 2;
                    // Same evaluation order as the cons it replaces:
                    // head first, then tail. The head is rooted in its
                    // slot before the tail can allocate.
                    self.emit(head, false);
                    self.code.push(Op::StoreLocal(h));
                    self.emit(t, false);
                    self.code.push(Op::StoreLocal(ts));
                    self.code.push(Op::ElideCons(*site));
                    for (_, r) in later.iter_mut() {
                        subst_scalar(r, slot, h, ts);
                    }
                    subst_scalar(body, slot, h, ts);
                    bound.push(h);
                    bound.push(ts);
                    true
                }
                _ => false,
            };
            if !scalarized {
                self.emit(v, false);
                self.code.push(Op::StoreLocal(slot));
                bound.push(slot);
            }
        }
        self.emit(body, tail);
    }

    /// The authoritative SROA safety check: slot budget, no
    /// self-reference from the cell's own head/tail, no capture by the
    /// letrec's own rec group, and projection-only use everywhere the
    /// slot is visible.
    fn scalarize_ok(
        &self,
        slot: u16,
        head: &RExpr,
        tail: &RExpr,
        group_caps: &[CaptureSrc],
        later: &[(u16, RExpr)],
        body: &RExpr,
    ) -> bool {
        self.next_slot as u32 + 2 <= u16::MAX as u32
            && !group_caps.contains(&CaptureSrc::Local(slot))
            && !uses_slot(head, slot)
            && !uses_slot(tail, slot)
            && later.iter().all(|(_, r)| scalar_safe(r, slot))
            && scalar_safe(body, slot)
    }

    fn emit_load(&mut self, name: Symbol, slot: SlotRef) {
        self.code.push(match slot {
            SlotRef::Local(i) => Op::LoadLocal(i),
            SlotRef::Capture(i) => Op::LoadCapture(i),
            SlotRef::Rec(j) => Op::LoadRec(j),
            SlotRef::GlobalFunc(i) => Op::LoadGlobalFunc(i),
            SlotRef::GlobalVal(i) => Op::LoadGlobalVal(i),
            SlotRef::Unbound => Op::Unbound(name),
        });
    }

    fn ret_if(&mut self, tail: bool) {
        if tail {
            self.code.push(Op::Return);
        }
    }

    fn jump_placeholder(&mut self, op: Op) -> usize {
        let at = self.code.len();
        self.code.push(op);
        at
    }

    /// Points the placeholder at `at` to the current end of code.
    fn patch(&mut self, at: usize) {
        let target = self.code.len() as u32;
        match &mut self.code[at] {
            Op::Jump(t) | Op::JumpIfFalse(t) => *t = target,
            other => unreachable!("patching a non-jump {other:?}"),
        }
    }
}

/// Does `e` reference frame slot `slot` in any way — bare load,
/// projection operand, `dcons` target, or closure capture? (Slots are
/// allocated monotonically per unit, so a slot index is never reused by
/// shadowing; a plain scan is exact.)
fn uses_slot(e: &RExpr, slot: u16) -> bool {
    match e {
        RExpr::Const(_) => false,
        RExpr::Var(_, s) => *s == SlotRef::Local(slot),
        RExpr::App(f, a) => uses_slot(f, slot) || uses_slot(a, slot),
        RExpr::MakeClosure { captures, .. } => captures.contains(&CaptureSrc::Local(slot)),
        RExpr::If(c, t, f) => uses_slot(c, slot) || uses_slot(t, slot) || uses_slot(f, slot),
        RExpr::Letrec {
            group,
            values,
            body,
        } => {
            group
                .as_ref()
                .is_some_and(|g| g.captures.contains(&CaptureSrc::Local(slot)))
                || values.iter().any(|(_, v)| uses_slot(v, slot))
                || uses_slot(body, slot)
        }
        RExpr::Cons { head, tail, .. } => uses_slot(head, slot) || uses_slot(tail, slot),
        RExpr::Dcons {
            target, head, tail, ..
        } => *target == SlotRef::Local(slot) || uses_slot(head, slot) || uses_slot(tail, slot),
        RExpr::Prim1(_, a) => uses_slot(a, slot),
        RExpr::Prim2(_, a, b) => uses_slot(a, slot) || uses_slot(b, slot),
        RExpr::Region { inner, .. } => uses_slot(inner, slot),
    }
}

/// Is every reference to `slot` in `e` directly under `car`, `cdr`, or
/// `null`? Those are the only shapes [`subst_scalar`] can rewrite; any
/// other use (a bare load, a capture, a `dcons` target, `fst`/`snd`)
/// makes the cell observable as a value and vetoes scalarization.
fn scalar_safe(e: &RExpr, slot: u16) -> bool {
    match e {
        RExpr::Const(_) => true,
        RExpr::Var(_, s) => *s != SlotRef::Local(slot),
        RExpr::App(f, a) => scalar_safe(f, slot) && scalar_safe(a, slot),
        RExpr::MakeClosure { captures, .. } => !captures.contains(&CaptureSrc::Local(slot)),
        RExpr::If(c, t, f) => scalar_safe(c, slot) && scalar_safe(t, slot) && scalar_safe(f, slot),
        RExpr::Letrec {
            group,
            values,
            body,
        } => {
            !group
                .as_ref()
                .is_some_and(|g| g.captures.contains(&CaptureSrc::Local(slot)))
                && values.iter().all(|(_, v)| scalar_safe(v, slot))
                && scalar_safe(body, slot)
        }
        RExpr::Cons { head, tail, .. } => scalar_safe(head, slot) && scalar_safe(tail, slot),
        RExpr::Dcons {
            target, head, tail, ..
        } => *target != SlotRef::Local(slot) && scalar_safe(head, slot) && scalar_safe(tail, slot),
        RExpr::Prim1(p, a) => {
            if let RExpr::Var(_, SlotRef::Local(s)) = **a {
                if s == slot {
                    return matches!(p, Prim::Car | Prim::Cdr | Prim::Null);
                }
            }
            scalar_safe(a, slot)
        }
        RExpr::Prim2(_, a, b) => scalar_safe(a, slot) && scalar_safe(b, slot),
        RExpr::Region { inner, .. } => scalar_safe(inner, slot),
    }
}

/// Rewrites every projection of `slot` to its scalar form: `car` →
/// load of `h`, `cdr` → load of `t`, `null` → `false` (the cell is a
/// cons by construction). Callers must have established
/// [`scalar_safe`]; no other reference shape can remain.
fn subst_scalar(e: &mut RExpr, slot: u16, h: u16, t: u16) {
    if let RExpr::Prim1(p, a) = e {
        if let RExpr::Var(x, SlotRef::Local(s)) = **a {
            if s == slot {
                *e = match p {
                    Prim::Car => RExpr::Var(x, SlotRef::Local(h)),
                    Prim::Cdr => RExpr::Var(x, SlotRef::Local(t)),
                    Prim::Null => RExpr::Const(Const::Bool(false)),
                    other => unreachable!("scalar_safe admits only car/cdr/null, got {other:?}"),
                };
                return;
            }
        }
    }
    match e {
        RExpr::Const(_) | RExpr::Var(..) | RExpr::MakeClosure { .. } => {}
        RExpr::App(f, a) => {
            subst_scalar(f, slot, h, t);
            subst_scalar(a, slot, h, t);
        }
        RExpr::If(c, th, el) => {
            subst_scalar(c, slot, h, t);
            subst_scalar(th, slot, h, t);
            subst_scalar(el, slot, h, t);
        }
        RExpr::Letrec { values, body, .. } => {
            for (_, v) in values.iter_mut() {
                subst_scalar(v, slot, h, t);
            }
            subst_scalar(body, slot, h, t);
        }
        RExpr::Cons { head, tail, .. } | RExpr::Dcons { head, tail, .. } => {
            subst_scalar(head, slot, h, t);
            subst_scalar(tail, slot, h, t);
        }
        RExpr::Prim1(_, a) => subst_scalar(a, slot, h, t),
        RExpr::Prim2(_, a, b) => {
            subst_scalar(a, slot, h, t);
            subst_scalar(b, slot, h, t);
        }
        RExpr::Region { inner, .. } => subst_scalar(inner, slot, h, t),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_opt::lower_program;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn compile_src(src: &str) -> BytecodeProgram {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        compile(&lower_program(&p, &info))
    }

    fn chunk<'a>(b: &'a BytecodeProgram, name: &str) -> &'a Chunk {
        let n = Symbol::intern(name);
        b.chunks
            .iter()
            .find(|c| c.name == Some(n))
            .expect("named chunk")
    }

    #[test]
    fn every_chunk_ends_with_terminal_control() {
        let b = compile_src(
            "letrec rev l = if null l then nil else app (rev (cdr l)) (cons (car l) nil);
                    app a b = if null a then b else cons (car a) (app (cdr a) b)
             in rev [1, 2, 3]",
        );
        for c in &b.chunks {
            assert!(
                matches!(
                    c.code.last(),
                    Some(Op::Return | Op::TailCall | Op::TailCallGlobal(_))
                ),
                "chunk {:?} ends in {:?} (would fall through)",
                c.name,
                c.code.last()
            );
        }
    }

    #[test]
    fn self_recursive_tail_call_compiles_to_tail_call_global() {
        let b = compile_src("letrec loop n = if n = 0 then 0 else loop (n - 1) in loop 10");
        let c = chunk(&b, "loop");
        assert!(
            c.code.iter().any(|o| matches!(o, Op::TailCallGlobal(_))),
            "{:?}",
            c.code
        );
        assert!(
            !c.code
                .iter()
                .any(|o| matches!(o, Op::Call | Op::CallGlobal(_))),
            "no general dispatch on the recursion: {:?}",
            c.code
        );
    }

    #[test]
    fn non_tail_recursion_uses_call_global() {
        let b = compile_src("letrec sum l = if null l then 0 else car l + sum (cdr l) in sum [1]");
        let c = chunk(&b, "sum");
        assert!(c.code.iter().any(|o| matches!(o, Op::CallGlobal(_))));
        assert!(!c.code.iter().any(|o| matches!(o, Op::TailCallGlobal(_))));
    }

    #[test]
    fn if_branch_offsets_are_patched() {
        let b = compile_src("letrec f x = if x = 0 then 1 else 2 in f 3");
        let c = chunk(&b, "f");
        for (i, op) in c.code.iter().enumerate() {
            if let Op::Jump(t) | Op::JumpIfFalse(t) = op {
                assert!(
                    (*t as usize) <= c.code.len() && (*t as usize) > i,
                    "jump at {i} targets {t} (len {})",
                    c.code.len()
                );
            }
        }
    }

    #[test]
    fn chained_projection_fuses_into_proj2local() {
        // `car (cdr x)` — map_pair's hot pair-projection sequence — must
        // collapse to a single superinstruction in the second peephole
        // round: LoadLocal;Cdr;Car → Prim1Local(Cdr);Car → Proj2Local.
        let b = compile_src("letrec second x = car (cdr x) in second [1, 2]");
        let c = chunk(&b, "second");
        assert!(
            c.code
                .iter()
                .any(|o| matches!(o, Op::Proj2Local(Prim::Cdr, Prim::Car, 0))),
            "{:?}",
            c.code
        );
        assert_eq!(
            count_op(c, |o| matches!(o, Op::Prim1(_) | Op::Prim1Local(..))),
            0,
            "{:?}",
            c.code
        );
    }

    #[test]
    fn fusion_never_swallows_a_jump_target() {
        // The join point of each inner `if` is the instruction after the
        // else branch's `Prim1Local`: fusing them would skip it on the
        // then path.
        let b = compile_src(
            "letrec f c x y = car (if c then x else cdr y);
                    g c x y = if (if c then null x else null y) then 0 else 1
             in f true [1] [2] + g false [1] [2]",
        );
        let f = &chunk(&b, "f").code;
        assert!(f.contains(&Op::Prim1(Prim::Car)), "{f:?}");
        assert!(!f.iter().any(|o| matches!(o, Op::Proj2Local(..))), "{f:?}");
        let g = &chunk(&b, "g").code;
        assert!(g.iter().any(|o| matches!(o, Op::JumpIfFalse(_))), "{g:?}");
        assert!(
            !g.iter().any(|o| matches!(o, Op::JumpIfPairLocal(..))),
            "{g:?}"
        );
    }

    #[test]
    fn letrec_bindings_clear_on_scope_exit_in_non_tail_position() {
        // The letrec is an operand of `+`, so its body is non-tail and
        // its slot must be cleared afterwards.
        let b = compile_src("letrec f n = (letrec a = cons n nil in car a) + 1 in f 4");
        let c = chunk(&b, "f");
        assert!(
            c.code.iter().any(|o| matches!(o, Op::ClearLocal(_))),
            "{:?}",
            c.code
        );
    }

    #[test]
    fn dcons_checks_target_before_head() {
        // DCONS is introduced by the reuse transformation, not parsed;
        // build the IR directly.
        use nml_opt::{IrExpr, IrFunc};
        let l = Symbol::intern("l");
        let ir = nml_opt::IrProgram {
            funcs: vec![IrFunc {
                name: Symbol::intern("f"),
                params: vec![l],
                body: IrExpr::Dcons {
                    reused: l,
                    head: Box::new(IrExpr::Const(Const::Int(9))),
                    tail: Box::new(IrExpr::Const(Const::Nil)),
                    site: SiteId(0),
                },
            }],
            body: IrExpr::Const(Const::Nil),
            next_site: 1,
            variants: Default::default(),
        };
        let b = compile(&ir);
        let c = chunk(&b, "f");
        let check = c.code.iter().position(|o| matches!(o, Op::CheckPair));
        let head = c.code.iter().position(|o| matches!(o, Op::PushInt(9)));
        let (check, head) = (check.expect("CheckPair"), head.expect("head push"));
        assert!(check < head, "target checked before head evaluates");
    }

    /// Forces the SROA license onto every cons site, then compiles. The
    /// emitter's syntactic re-check must sort the safe sites from the
    /// unsafe ones on its own — exactly the sabotage scenario.
    fn compile_all_elided(src: &str) -> BytecodeProgram {
        let p = parse_program(src).expect("parse");
        let info = infer_program(&p).expect("infer");
        let mut ir = lower_program(&p, &info);
        let mut mark = |e: &mut nml_opt::IrExpr| {
            if let nml_opt::IrExpr::Cons { alloc, .. } = e {
                *alloc = AllocMode::Elided;
            }
        };
        let mut funcs = std::mem::take(&mut ir.funcs);
        for f in &mut funcs {
            nml_opt::walk_ir_mut(&mut f.body, &mut mark);
        }
        ir.funcs = funcs;
        nml_opt::walk_ir_mut(&mut ir.body, &mut mark);
        compile(&ir)
    }

    fn count_op(c: &Chunk, pred: impl Fn(&Op) -> bool) -> usize {
        c.code.iter().filter(|o| pred(o)).count()
    }

    #[test]
    fn projected_binding_scalarizes() {
        let b = compile_all_elided("letrec f n = letrec p = cons n nil in car p + 1 in f 3");
        let c = chunk(&b, "f");
        assert_eq!(
            count_op(c, |o| matches!(o, Op::ElideCons(_))),
            1,
            "{:?}",
            c.code
        );
        assert_eq!(
            count_op(c, |o| matches!(o, Op::Cons { .. })),
            0,
            "{:?}",
            c.code
        );
    }

    #[test]
    fn bare_use_defuses_the_license() {
        // `p` is returned as a value: the cell is observable, so the
        // forced mark must fall back to a plain heap allocation.
        let b = compile_all_elided("letrec f n = letrec p = cons n nil in p in f 3");
        let c = chunk(&b, "f");
        assert_eq!(
            count_op(c, |o| matches!(o, Op::ElideCons(_))),
            0,
            "{:?}",
            c.code
        );
        assert_eq!(
            count_op(c, |o| matches!(
                o,
                Op::Cons {
                    mode: AllocMode::Elided,
                    ..
                }
            )),
            1,
            "{:?}",
            c.code
        );
    }

    #[test]
    fn null_projection_folds_to_false() {
        let b = compile_all_elided(
            "letrec f n = letrec p = cons n nil in if null p then 0 else car p in f 7",
        );
        let c = chunk(&b, "f");
        assert_eq!(
            count_op(c, |o| matches!(o, Op::ElideCons(_))),
            1,
            "{:?}",
            c.code
        );
        assert!(
            c.code.iter().any(|o| matches!(o, Op::PushBool(false))),
            "null of a scalarized cons folds to false: {:?}",
            c.code
        );
    }

    #[test]
    fn closure_capture_defuses_the_license() {
        // The nested letrec's rec group captures `p`'s slot (rec-group
        // members see the scope *outside* their own letrec), so the cell
        // must stay materialized.
        let b = compile_all_elided(
            "letrec f n = letrec p = cons n nil in
                          letrec g x = x + car p in g 1
             in f 5",
        );
        let c = chunk(&b, "f");
        assert_eq!(
            count_op(c, |o| matches!(o, Op::ElideCons(_))),
            0,
            "{:?}",
            c.code
        );
        assert_eq!(
            count_op(c, |o| matches!(
                o,
                Op::Cons {
                    mode: AllocMode::Elided,
                    ..
                }
            )),
            1,
            "{:?}",
            c.code
        );
    }

    #[test]
    fn sibling_projections_scalarize_in_chain() {
        // `p` feeds `q` through a projection and `q` is itself only
        // projected: both cells vanish.
        let b = compile_all_elided(
            "letrec f n = letrec p = cons n nil; q = cons (car p) nil in car q in f 2",
        );
        let c = chunk(&b, "f");
        assert_eq!(
            count_op(c, |o| matches!(o, Op::ElideCons(_))),
            2,
            "{:?}",
            c.code
        );
        assert_eq!(
            count_op(c, |o| matches!(o, Op::Cons { .. })),
            0,
            "{:?}",
            c.code
        );
    }

    #[test]
    fn scalar_slots_extend_the_frame() {
        let src = "letrec f n = letrec p = cons n nil in car p + 1 in f 3";
        let plain = compile_src(src);
        let elided = compile_all_elided(src);
        assert_eq!(
            chunk(&elided, "f").n_slots,
            chunk(&plain, "f").n_slots + 2,
            "one scalarized cell mints exactly two scalar slots"
        );
    }

    #[test]
    fn under_application_goes_through_generic_call() {
        let b = compile_src(
            "letrec add x y = x + y;
                    use f = f 1
             in use (add 5)",
        );
        let main = &b.chunks[b.main as usize];
        // `add 5` under-applies a 2-ary global: generic Call path.
        assert!(
            main.code.iter().any(|o| matches!(o, Op::LoadGlobalFunc(_))),
            "{:?}",
            main.code
        );
        assert!(main
            .code
            .iter()
            .any(|o| matches!(o, Op::Call | Op::TailCall)));
    }
}
