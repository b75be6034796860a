//! Flat bytecode for the register/stack VM ([`crate::vm`]).
//!
//! The compiler walks each code unit of the IR, reading the side tables
//! that [`nml_opt::resolve_program`] keyed by node index (slots, closure
//! captures, recursive groups), and flattens it into compact instruction
//! sequences with explicit jump offsets. No second tree is built. Each
//! [`nml_opt::CodeUnit`] becomes one [`Chunk`] (same index), so a
//! resolved `GlobalFunc` reference is directly a chunk to enter.
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

use crate::interp::is_lambda;
use nml_opt::{
    resolve_program, AllocMode, Arena, CaptureSrc, ExprId, IrExpr, IrProgram, LetrecInfo,
    RegionKind, Resolved, ResolvedProgram, SiteId, SlotRef,
};
pub use nml_opt::{ClosureSite, GlobalDef, RecSite};
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
/// program body). Chunk indices coincide with code-unit indices.
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
    let ResolvedProgram {
        units,
        globals,
        main,
        nodes,
        mut closures,
        mut letrecs,
    } = resolve_program(p);
    let mut e = Emitter {
        code: Vec::new(),
        closures: Vec::new(),
        recs: Vec::new(),
        globals: &globals,
        next_slot: 0,
        arena: &p.body,
        table: &[],
        closure_info: &mut closures,
        letrec_info: &mut letrecs,
        scalar: Vec::new(),
    };
    let mut fuse = Peephole::default();
    let chunks = units
        .iter()
        .map(|u| {
            e.code.clear();
            e.scalar.clear();
            e.next_slot = u.n_slots;
            e.arena = p.arena(u.arena as usize);
            e.table = &nodes[u.arena as usize];
            e.emit(u.root, true);
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
        main,
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
    /// The current unit's arena and its resolution table.
    arena: &'a Arena,
    table: &'a [Resolved],
    /// The resolver's closure and `letrec` records; each is moved into
    /// the bytecode tables when its node is emitted (every node belongs
    /// to exactly one unit, so exactly once).
    closure_info: &'a mut [ClosureSite],
    letrec_info: &'a mut [LetrecInfo],
    /// The current unit's scalarized cells: `(slot, head, tail)`. A
    /// projection of `slot` emits a load of the scalar slot instead.
    scalar: Vec<(u16, u16, u16)>,
}

impl Emitter<'_> {
    /// The resolved address of the `Var` or `DCONS` node `id`.
    fn slot(&self, id: ExprId) -> SlotRef {
        match self.table[id.0 as usize] {
            Resolved::Slot(s) => s,
            other => unreachable!("node {id:?} resolved to {other:?}, not a slot"),
        }
    }

    /// The captures of the `lambda` node `id`.
    fn closure_captures(&self, id: ExprId) -> &[CaptureSrc] {
        match self.table[id.0 as usize] {
            Resolved::Closure(c) => &self.closure_info[c as usize].captures,
            other => unreachable!("node {id:?} resolved to {other:?}, not a closure"),
        }
    }

    /// The resolution of the `letrec` node `id`.
    fn letrec(&self, id: ExprId) -> &LetrecInfo {
        match self.table[id.0 as usize] {
            Resolved::Letrec(l) => &self.letrec_info[l as usize],
            other => unreachable!("node {id:?} resolved to {other:?}, not a letrec"),
        }
    }

    /// The value (non-lambda) bindings of a `letrec`, with their slots.
    fn letrec_values(&self, id: ExprId) -> Vec<(u16, ExprId)> {
        let IrExpr::Letrec(bs, _) = self.arena[id] else {
            unreachable!("not a letrec");
        };
        let arena = self.arena;
        arena
            .binds(bs)
            .iter()
            .filter(|(_, e)| !is_lambda(arena, *e))
            .map(|(_, e)| *e)
            .zip(&self.letrec(id).values)
            .map(|(e, s)| (*s, e))
            .collect()
    }

    /// The scalar replacement of `p a`, when `a` names a scalarized cell:
    /// `car` loads the head slot, `cdr` the tail slot, and `null` is
    /// `false` (the cell is a cons by construction).
    fn scalar_projection(&self, p: Prim, a: ExprId) -> Option<Op> {
        if self.scalar.is_empty() || !matches!(self.arena[a], IrExpr::Var(_)) {
            return None;
        }
        let SlotRef::Local(s) = self.slot(a) else {
            return None;
        };
        let &(_, h, t) = self.scalar.iter().find(|(slot, _, _)| *slot == s)?;
        Some(match p {
            Prim::Car => Op::LoadLocal(h),
            Prim::Cdr => Op::LoadLocal(t),
            Prim::Null => Op::PushBool(false),
            other => unreachable!("slot_use admits only car/cdr/null, got {other:?}"),
        })
    }

    /// Emits node `id`; when `tail` is set the emitted code is guaranteed
    /// to end the chunk (via `Return` or a tail call) — control never
    /// falls through past a tail expression.
    fn emit(&mut self, id: ExprId, tail: bool) {
        match self.arena[id] {
            IrExpr::Const(c) => {
                self.code.push(match c {
                    Const::Int(n) => Op::PushInt(n),
                    Const::Bool(b) => Op::PushBool(b),
                    Const::Nil => Op::PushNil,
                    Const::Prim(p) => Op::PushPrim(p),
                });
                self.ret_if(tail);
            }
            IrExpr::Var(x) => {
                self.emit_load(x, self.slot(id));
                self.ret_if(tail);
            }
            IrExpr::App(..) => self.emit_app(id, tail),
            IrExpr::Lambda { .. } => {
                let Resolved::Closure(c) = self.table[id.0 as usize] else {
                    unreachable!("a lambda resolves to a closure");
                };
                let site = &mut self.closure_info[c as usize];
                let idx = self.closures.len() as u32;
                self.closures.push(ClosureSite {
                    chunk: site.chunk,
                    captures: std::mem::take(&mut site.captures),
                });
                self.code.push(Op::MakeClosure(idx));
                self.ret_if(tail);
            }
            IrExpr::If(c, t, f) => {
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
            IrExpr::Letrec(_, body) => {
                let values = self.letrec_values(id);
                let any_elided = values.iter().any(|&(_, v)| {
                    matches!(
                        self.arena[v],
                        IrExpr::Cons {
                            alloc: AllocMode::Elided,
                            ..
                        }
                    )
                });
                let Resolved::Letrec(l) = self.table[id.0 as usize] else {
                    unreachable!("a letrec resolves to a letrec record");
                };
                let group = self.letrec_info[l as usize].group.take();
                let mut bound: Vec<u16> = Vec::new();
                let mut group_caps = Vec::new();
                if let Some(g) = group {
                    let idx = self.recs.len() as u32;
                    bound.extend(&g.slots);
                    if any_elided {
                        group_caps.clone_from(&g.captures);
                    }
                    self.recs.push(g);
                    self.code.push(Op::MakeRec(idx));
                }
                if !any_elided {
                    for &(slot, v) in &values {
                        self.emit(v, false);
                        self.code.push(Op::StoreLocal(slot));
                        bound.push(slot);
                    }
                    self.emit(body, tail);
                } else {
                    self.emit_letrec_scalarized(&group_caps, &values, body, tail, &mut bound);
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
            IrExpr::Cons {
                alloc,
                head,
                tail: t,
                site,
            } => {
                self.emit(head, false);
                self.emit(t, false);
                self.code.push(Op::Cons { mode: alloc, site });
                self.ret_if(tail);
            }
            IrExpr::Dcons {
                reused,
                head,
                tail: t,
                site,
            } => {
                self.emit_load(reused, self.slot(id));
                self.code.push(Op::CheckPair);
                self.emit(head, false);
                self.emit(t, false);
                self.code.push(Op::Dcons(site));
                self.ret_if(tail);
            }
            IrExpr::Prim1(p, a) => {
                match self.scalar_projection(p, a) {
                    Some(op) => self.code.push(op),
                    None => {
                        self.emit(a, false);
                        self.code.push(Op::Prim1(p));
                    }
                }
                self.ret_if(tail);
            }
            IrExpr::Prim2(p, a, b) => {
                self.emit(a, false);
                self.emit(b, false);
                self.code.push(Op::Prim2(p));
                self.ret_if(tail);
            }
            IrExpr::Region { kind, inner, .. } => {
                self.code.push(Op::EnterRegion(kind));
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
    fn emit_app(&mut self, id: ExprId, tail: bool) {
        let mut n = 0;
        let mut head = id;
        while let IrExpr::App(f, _) = self.arena[head] {
            n += 1;
            head = f;
        }
        let direct = match (self.arena[head], self.table[head.0 as usize]) {
            (IrExpr::Var(_), Resolved::Slot(SlotRef::GlobalFunc(i))) => {
                let GlobalDef::Func { chunk, arity } = self.globals[i as usize] else {
                    unreachable!("GlobalFunc resolves to a function binding");
                };
                (arity as usize <= n).then_some((chunk, arity as usize))
            }
            _ => None,
        };
        self.emit_spine(id, n, direct, tail);
    }

    /// Emits the spine node `id`, the application of its head to
    /// arguments `1..=k` of `n`: the head, then each argument followed by
    /// its call. With `direct = (chunk, arity)` the head is not loaded;
    /// the first `arity` arguments feed one [`Op::CallGlobal`] (an
    /// over-application applies the leftovers one by one).
    fn emit_spine(
        &mut self,
        id: ExprId,
        n: usize,
        direct: Option<(u32, usize)>,
        tail: bool,
    ) -> usize {
        let IrExpr::App(f, a) = self.arena[id] else {
            if direct.is_none() {
                self.emit(id, false);
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
        values: &[(u16, ExprId)],
        body: ExprId,
        tail: bool,
        bound: &mut Vec<u16>,
    ) {
        for (i, &(slot, v)) in values.iter().enumerate() {
            let later = &values[i + 1..];
            let scalarized = match self.arena[v] {
                IrExpr::Cons {
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
                    self.code.push(Op::ElideCons(site));
                    // Later siblings and the body see only projections
                    // of `slot` (checked above): they now read the
                    // scalar slots.
                    self.scalar.push((slot, h, ts));
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
        head: ExprId,
        tail: ExprId,
        group_caps: &[CaptureSrc],
        later: &[(u16, ExprId)],
        body: ExprId,
    ) -> bool {
        self.next_slot as u32 + 2 <= u16::MAX as u32
            && !group_caps.contains(&CaptureSrc::Local(slot))
            && self.slot_use(head, slot) == SlotUse::None
            && self.slot_use(tail, slot) == SlotUse::None
            && later
                .iter()
                .all(|&(_, r)| self.slot_use(r, slot) < SlotUse::Observed)
            && self.slot_use(body, slot) < SlotUse::Observed
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

    /// How the subtree at `id` refers to frame slot `slot`. (Slots are
    /// allocated monotonically per unit, so a slot index is never reused
    /// by shadowing; a plain scan is exact.) Lambda bodies and
    /// recursive-group members are other units: only their captures
    /// count.
    fn slot_use(&self, id: ExprId, slot: u16) -> SlotUse {
        let a = self.arena;
        let local = |s: SlotRef| s == SlotRef::Local(slot);
        let captured = |c: &[CaptureSrc]| c.contains(&CaptureSrc::Local(slot));
        let observed = match a[id] {
            IrExpr::Var(_) | IrExpr::Dcons { .. } => local(self.slot(id)),
            IrExpr::Lambda { .. } => captured(self.closure_captures(id)),
            IrExpr::Letrec(..) => self
                .letrec(id)
                .group
                .as_ref()
                .is_some_and(|g| captured(&g.captures)),
            IrExpr::Prim1(p, x) if matches!(a[x], IrExpr::Var(_)) && local(self.slot(x)) => {
                return match p {
                    Prim::Car | Prim::Cdr | Prim::Null => SlotUse::Projected,
                    _ => SlotUse::Observed,
                };
            }
            _ => false,
        };
        if observed {
            return SlotUse::Observed;
        }
        let mut used = SlotUse::None;
        let visit = |c: ExprId| {
            used = used.max(self.slot_use(c, slot));
            used == SlotUse::Observed
        };
        // A `letrec`'s lambda bindings are its group's units: only their
        // captures count (checked above).
        let _ = match a[id] {
            IrExpr::Lambda { .. } => false,
            IrExpr::Letrec(bs, body) => {
                let values = a
                    .binds(bs)
                    .iter()
                    .map(|b| b.1)
                    .filter(|&v| !is_lambda(a, v));
                values.chain([body]).any(visit)
            }
            _ => a.children(id).any(visit),
        };
        used
    }
}

/// How a subtree refers to a frame slot ([`Emitter::slot_use`]), in
/// increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SlotUse {
    /// Not at all.
    None,
    /// Only directly under `car`, `cdr` or `null`: the only shapes
    /// [`Emitter::scalar_projection`] can rewrite.
    Projected,
    /// Any other way (a bare load, a capture, a `dcons` target,
    /// `fst`/`snd`): the cell is observable as a value.
    Observed,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lower;

    fn compile_src(src: &str) -> BytecodeProgram {
        compile(&lower(src))
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
        use nml_opt::IrFunc;
        let l = Symbol::intern("l");
        let mut f = Arena::new();
        let head = f.push(IrExpr::Const(Const::Int(9)));
        let tail = f.push(IrExpr::Const(Const::Nil));
        let dcons = f.push(IrExpr::Dcons {
            reused: l,
            head,
            tail,
            site: SiteId(0),
        });
        f.set_root(dcons);
        let mut body = Arena::new();
        let nil = body.push(IrExpr::Const(Const::Nil));
        body.set_root(nil);
        let ir = nml_opt::IrProgram {
            funcs: vec![IrFunc {
                name: Symbol::intern("f"),
                params: vec![l],
                body: f,
            }],
            body,
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
        let mut ir = lower(src);
        for e in ir.arenas_mut().flat_map(|a| a.nodes_mut()) {
            if let IrExpr::Cons { alloc, .. } = e {
                *alloc = AllocMode::Elided;
            }
        }
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
