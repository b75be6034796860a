//! Flat bytecode for the register/stack VM ([`crate::vm`]).
//!
//! [`compile`] turns the IR into one [`Chunk`] per code unit: a
//! top-level binding body, the program body, or a lambda, each a root
//! node in its binding's arena. It compiles one unit at a time. First a
//! resolution walk does what the tree-walking interpreter does at
//! runtime by walking a linked `Env` chain of `Symbol` bindings: each
//! variable occurrence becomes a frame-local slot, a closure-capture
//! index, a recursive-group member, or a direct global reference. The
//! walk writes what it finds into side tables keyed by node index (the
//! slot of each `Var` and `DCONS` target, the chunk and captures of
//! each `lambda`, the recursive group and value slots of each
//! `letrec`). Then the unit's chunk is emitted from the IR and those
//! tables, and flattened into compact instructions with explicit jump
//! offsets. No second tree is built, and the VM never searches for a
//! `Symbol` on the hot path. A unit nested in another (a lambda, or a
//! member of a `letrec` group) is compiled when the walk reaches it, so
//! its chunk comes before the chunk of the unit that holds it.
//!
//! Resolution mirrors the interpreter's environment semantics exactly
//! (same shadowing, same `letrec` corner cases):
//!
//! - the lambda bindings of a `letrec` form one mutually recursive group
//!   whose members see each other (`SlotRef::Rec`) and the scope
//!   *outside* the `letrec` — not their value-binding siblings (the
//!   interpreter's `Rec` env node sits below the value binds);
//! - value bindings evaluate in order and see the lambda group plus
//!   earlier value bindings; a forward reference is the interpreter's
//!   runtime `Unbound`, which compiles to `SlotRef::Unbound`;
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
//!   slots, with no intermediate partial-application values. A callee's
//!   chunk is known only once its binding is compiled, so the call names
//!   the callee's binding until the whole program is compiled, and is
//!   then patched to the chunk.
//! - **`DCONS` keeps the interpreter's error ordering.** The reuse
//!   target is loaded and checked ([`Op::CheckPair`]) *before* the head
//!   and tail evaluate, exactly like the tree-walker.
//! - **`letrec` slots are cleared on scope exit** ([`Op::ClearLocal`]),
//!   so a dead binding in a frame slot does not outlive its scope — the
//!   VM's root set stays as tight as the tree-walker's environment
//!   chains (this matters for region validation, which proves
//!   *unreachability*).

use crate::interp::is_lambda;
use nml_opt::{AllocMode, Arena, Binds, ExprId, IrExpr, IrProgram, RegionKind, SiteId};
use nml_syntax::ast::Const;
use nml_syntax::{IdMap, Prim, Symbol};
use std::ops::Range;

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
    LoadLocal(u32),
    /// Push capture `i` of the current closure.
    LoadCapture(u32),
    /// Materialize member `j` of the current recursive group (shares the
    /// current capture environment).
    LoadRec(u32),
    /// Push top-level function `i` (a partial-application seed).
    LoadGlobalFunc(u32),
    /// Push top-level value binding `i`; raises `Unbound` when startup
    /// has not initialized it yet.
    LoadGlobalVal(u32),
    /// A statically unbound name: raises `Unbound` with this name.
    Unbound(Symbol),
    /// Pop into frame slot `i`.
    StoreLocal(u32),
    /// Overwrite frame slot `i` with nil (scope exit).
    ClearLocal(u32),
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
    Prim1Local(Prim, u32),
    /// Fused `Prim1Local(p1, i); Prim1(p2)`: apply `p1` to frame slot
    /// `i`, then `p2` to the result — the chained pair projection
    /// (`car (cdr x)`, `car (car l)`) that dominates tuple-shaped
    /// workloads like `map_pair`. Unary primitives never allocate, so
    /// the GC-poll instruction set is unaffected, and both applications
    /// replay the generic path's type errors verbatim.
    Proj2Local(Prim, Prim, u32),
    /// Fused `LoadLocal(i); Prim2(p)`: pop the left operand, take the
    /// *right* operand from frame slot `i`. Never emitted for
    /// allocating primitives (keeps the GC-poll sites exact).
    Prim2Local(Prim, u32),
    /// Fused `PushInt(n); Prim2(p)`: pop the left operand, use `n` as
    /// the right. Never emitted for allocating primitives.
    Prim2Imm(Prim, i64),
    /// Fused `Prim1Local(Null, i); JumpIfFalse(t)` — the ubiquitous
    /// `if (null l)` loop header: jump when frame slot `i` holds a cons
    /// cell, fall through when nil.
    JumpIfPairLocal(u32, u32),
    /// Open a dynamic extent (stack region or block).
    EnterRegion(RegionKind),
    /// Close the innermost extent opened by this chunk.
    ExitRegion,
}

// The dispatch loop fetches ops by value, so an op stays 16 bytes.
const _: () = assert!(std::mem::size_of::<Op>() == 16);

/// One compiled code unit (a top-level binding body, a lambda, or the
/// program body). A unit's chunk follows the chunks of the units nested
/// in it.
#[derive(Debug, Clone)]
pub struct Chunk {
    /// Name, when the chunk is a named binding (diagnostics only).
    pub name: Option<Symbol>,
    /// Number of parameters, occupying slots `0..n_params` on entry.
    pub n_params: u32,
    /// Total frame slots (parameters, `letrec` bindings and SROA's
    /// scalar slots).
    pub n_slots: u32,
    /// The instructions.
    pub code: Vec<Op>,
}

/// Where a closure capture is copied from, relative to the frame that
/// *creates* the closure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureSrc {
    /// A local slot of the creating frame.
    Local(u32),
    /// A capture of the creating frame's own closure.
    Capture(u32),
    /// Member `j` of the creating frame's own recursive group.
    Rec(u32),
}

/// A closure creation site (a `lambda` node): which chunk the closure
/// runs and where its captures are copied from in the creating frame.
/// [`Op::MakeClosure`] builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosureSite {
    /// The chunk of the lambda body.
    pub chunk: u32,
    /// Capture sources, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
}

/// A `letrec` lambda group: its members share one capture environment,
/// and each materialized member closure lands in a frame slot.
/// [`Op::MakeRec`] builds it.
#[derive(Debug, Clone, PartialEq)]
pub struct RecSite {
    /// Chunks of the members, in binding order.
    pub chunks: Vec<u32>,
    /// The shared captures, resolved against the creating frame.
    pub captures: Vec<CaptureSrc>,
    /// Frame slots the member closures are stored into.
    pub slots: Vec<u32>,
}

/// A compiled top-level binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GlobalDef {
    /// A function: its chunk (entered directly by a saturated call) and
    /// curried arity.
    Func {
        /// Chunk index.
        chunk: u32,
        /// Number of curried parameters.
        arity: u32,
    },
    /// A value binding, evaluated once at startup.
    Value {
        /// Chunk index.
        chunk: u32,
    },
}

/// A whole compiled program.
#[derive(Debug, Clone, Default)]
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
    let mut first_binding: IdMap<Symbol, usize> = IdMap::default();
    let mut value_bindings: IdMap<Symbol, Vec<usize>> = IdMap::default();
    for (i, f) in p.funcs.iter().enumerate() {
        first_binding.entry(f.name).or_insert(i);
        if !f.is_function() {
            value_bindings.entry(f.name).or_default().push(i);
        }
    }
    let n = p.funcs.len();
    let mut c = Compiler {
        program: p,
        first_binding,
        value_bindings,
        visible_vals: 0,
        arena: &p.body,
        table: Vec::new(),
        sites: Vec::new(),
        letrecs: Vec::new(),
        frames: Vec::new(),
        scope: Vec::new(),
        rec_names: Vec::new(),
        caps: Vec::new(),
        code: Vec::new(),
        next_slot: 0,
        scalar: Vec::new(),
        fuse: Peephole::default(),
        out: BytecodeProgram::default(),
    };
    for (i, f) in p.funcs.iter().enumerate() {
        // A function body runs only when called, so it sees every value
        // binding (readiness is checked at load time); a startup value
        // binding sees only the bindings evaluated before it.
        c.visible_vals = if f.is_function() { n } else { i };
        let chunk = c.top_level(Some(f.name), &f.params, &f.body);
        c.out.globals.push(if f.is_function() {
            GlobalDef::Func {
                chunk,
                arity: f.params.len() as u32,
            }
        } else {
            GlobalDef::Value { chunk }
        });
    }
    c.visible_vals = n;
    c.out.main = c.top_level(None, &[], &p.body);
    let mut out = c.out;
    // Direct calls were emitted naming the callee's binding; every
    // binding's chunk is known now.
    for op in out.chunks.iter_mut().flat_map(|ch| &mut ch.code) {
        if let Op::CallGlobal(f) | Op::TailCallGlobal(f) = op {
            let GlobalDef::Func { chunk, .. } = out.globals[*f as usize] else {
                unreachable!("a direct call enters a function binding");
            };
            *f = chunk;
        }
    }
    out
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

/// Compile-time address of a variable occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SlotRef {
    /// A slot in the current frame's locals.
    Local(u32),
    /// An index into the current closure's capture array.
    Capture(u32),
    /// Member `j` of the current closure's recursive group (the closure
    /// for the sibling is materialized on demand, sharing the captures).
    Rec(u32),
    /// Top-level function binding `i` (always initialized).
    GlobalFunc(u32),
    /// Top-level value binding `i` (checked for initialization at load
    /// time: startup evaluates bindings in order).
    GlobalVal(u32),
    /// Statically unbound: evaluating the occurrence raises `Unbound`.
    Unbound,
}

/// What resolution recorded at one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Resolved {
    /// Nothing: the node needs no resolution.
    None,
    /// A `Var`, or the reused variable of a `DCONS`: its address.
    Slot(SlotRef),
    /// A `lambda`: its entry in `Compiler::sites`.
    Closure(u32),
    /// A `letrec`: its entry in `Compiler::letrecs`.
    Letrec(u32),
}

/// A nested `letrec`: an optional recursive lambda group plus its value
/// bindings.
#[derive(Default)]
struct LetrecInfo {
    /// The mutually recursive lambda members, if any.
    group: Option<RecSite>,
    /// The value (non-lambda) bindings' frame slots and expressions, in
    /// evaluation order.
    values: Vec<(u32, ExprId)>,
}

/// The capture list of a top-level frame, which never captures.
const NO_CAPS: usize = usize::MAX;

/// One lexical frame while resolving. Its let-style binds are
/// `Compiler::scope[scope_base..]` up to the next frame's base
/// (innermost last); `rec` is the frame's own recursive group in
/// `Compiler::rec_names`, searched *after* the binds (the interpreter's
/// binds sit above the `Rec` env node); `caps` indexes its capture list
/// in `Compiler::caps`, which the members of one group share.
struct Frame {
    scope_base: usize,
    rec: Range<usize>,
    next_slot: u32,
    caps: usize,
}

/// Resolves and emits one code unit after another ([`compile`]).
struct Compiler<'ir> {
    program: &'ir IrProgram,
    /// Top-level name → position of its textually first binding.
    first_binding: IdMap<Symbol, usize>,
    /// Top-level name → positions of its value bindings, ascending.
    value_bindings: IdMap<Symbol, Vec<usize>>,
    /// Upper bound (exclusive) on visible top-level value bindings.
    visible_vals: usize,
    /// The arena being compiled, and what resolution recorded per node.
    arena: &'ir Arena,
    table: Vec<Resolved>,
    /// The arena's resolved `lambda` and `letrec` nodes. Each record is
    /// moved into the bytecode tables when its node is emitted (every
    /// node belongs to exactly one unit, so exactly once).
    sites: Vec<ClosureSite>,
    letrecs: Vec<LetrecInfo>,
    /// The frames of the units being resolved, innermost last.
    frames: Vec<Frame>,
    /// The let-style binds of every active frame, outermost first.
    scope: Vec<(Symbol, u32)>,
    /// The member names of every active recursive group.
    rec_names: Vec<Symbol>,
    /// The capture lists of the active lambdas and groups.
    caps: Vec<Vec<(Symbol, CaptureSrc)>>,
    /// The unit being emitted: its code before peephole fusion (the
    /// buffer is reused from unit to unit), its next free frame slot
    /// (past resolution's slots; SROA mints scalar slots there), and its
    /// scalarized cells `(slot, head, tail)`: a projection of `slot`
    /// loads the scalar slot instead.
    code: Vec<Op>,
    next_slot: u32,
    scalar: Vec<(u32, u32, u32)>,
    fuse: Peephole,
    out: BytecodeProgram,
}

impl<'ir> Compiler<'ir> {
    /// Compiles a top-level binding body or the program body, and every
    /// unit nested in it; returns its chunk.
    fn top_level(&mut self, name: Option<Symbol>, params: &[Symbol], arena: &'ir Arena) -> u32 {
        self.arena = arena;
        self.table.clear();
        self.table.resize(arena.len(), Resolved::None);
        self.sites.clear();
        self.letrecs.clear();
        self.unit(name, params, 0..0, NO_CAPS, arena.root())
    }

    /// Compiles the unit at `root`: resolves it (compiling the units
    /// nested in it as they are reached), then emits its chunk.
    fn unit(
        &mut self,
        name: Option<Symbol>,
        params: &[Symbol],
        rec: Range<usize>,
        caps: usize,
        root: ExprId,
    ) -> u32 {
        let n_params = params.len() as u32;
        let scope_base = self.scope.len();
        self.scope.extend(params.iter().copied().zip(0..));
        self.frames.push(Frame {
            scope_base,
            rec,
            next_slot: n_params,
            caps,
        });
        self.resolve_expr(root);
        let frame = self.frames.pop().expect("frame balance");
        self.scope.truncate(scope_base);
        self.code.clear();
        self.scalar.clear();
        self.next_slot = frame.next_slot;
        self.emit(root, true);
        let code = self.fuse.run(&self.code);
        self.out.chunks.push(Chunk {
            name,
            n_params,
            n_slots: self.next_slot,
            code,
        });
        self.out.chunks.len() as u32 - 1
    }

    fn alloc_slot(&mut self) -> u32 {
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
            return SlotRef::Rec(j as u32);
        }
        if k == 0 {
            return self.resolve_global(x);
        }
        let caps = f.caps;
        if let Some(i) = self.caps[caps].iter().position(|(n, _)| *n == x) {
            return SlotRef::Capture(i as u32);
        }
        let src = match self.resolve_in(k - 1, x) {
            SlotRef::Local(s) => CaptureSrc::Local(s),
            SlotRef::Capture(i) => CaptureSrc::Capture(i),
            SlotRef::Rec(j) => CaptureSrc::Rec(j),
            global => return global,
        };
        let caps = &mut self.caps[caps];
        caps.push((x, src));
        SlotRef::Capture((caps.len() - 1) as u32)
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
                let chunk = self.unit(None, &[param], 0..0, caps, body);
                let captures = self.close_caps();
                self.table[id.0 as usize] = Resolved::Closure(self.sites.len() as u32);
                self.sites.push(ClosureSite { chunk, captures });
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
            // letrec entry), so compile them before pushing any entries.
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
            values.push((slot, e));
        }
        self.resolve_expr(body);
        self.scope.truncate(saved_scope);
        self.table[id.0 as usize] = Resolved::Letrec(self.letrecs.len() as u32);
        self.letrecs.push(LetrecInfo { group, values });
    }

    /// The resolved address of the `Var` or `DCONS` node `id`.
    fn slot(&self, id: ExprId) -> SlotRef {
        match self.table[id.0 as usize] {
            Resolved::Slot(s) => s,
            other => unreachable!("node {id:?} resolved to {other:?}, not a slot"),
        }
    }

    /// The index of the `lambda` node `id`'s record in `sites`, or of
    /// the `letrec` node `id`'s in `letrecs`.
    fn record(&self, id: ExprId) -> usize {
        match self.table[id.0 as usize] {
            Resolved::Closure(i) | Resolved::Letrec(i) => i as usize,
            other => unreachable!("node {id:?} resolved to {other:?}, not a lambda or letrec"),
        }
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
                let ix = self.record(id);
                let site = &mut self.sites[ix];
                let site = ClosureSite {
                    chunk: site.chunk,
                    captures: std::mem::take(&mut site.captures),
                };
                let c = self.out.closures.len() as u32;
                self.out.closures.push(site);
                self.code.push(Op::MakeClosure(c));
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
                let ix = self.record(id);
                let LetrecInfo { group, values } = std::mem::take(&mut self.letrecs[ix]);
                let any_elided = values.iter().any(|&(_, v)| {
                    matches!(
                        self.arena[v],
                        IrExpr::Cons {
                            alloc: AllocMode::Elided,
                            ..
                        }
                    )
                });
                let mut bound: Vec<u32> = Vec::new();
                let mut group_caps = Vec::new();
                if let Some(g) = group {
                    bound.extend(&g.slots);
                    if any_elided {
                        group_caps.clone_from(&g.captures);
                    }
                    self.code.push(Op::MakeRec(self.out.recs.len() as u32));
                    self.out.recs.push(g);
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
                let arity = self.program.funcs[i as usize].params.len();
                (arity <= n).then_some((i, arity))
            }
            _ => None,
        };
        self.emit_spine(id, n, direct, tail);
    }

    /// Emits the spine node `id`, the application of its head to
    /// arguments `1..=k` of `n`: the head, then each argument followed by
    /// its call. With `direct = (binding, arity)` the head is not loaded;
    /// the first `arity` arguments feed one [`Op::CallGlobal`] naming the
    /// binding, which [`compile`] patches to its chunk (an
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
            Some((binding, arity)) if k == arity => self.code.push(if last {
                Op::TailCallGlobal(binding)
            } else {
                Op::CallGlobal(binding)
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
        values: &[(u32, ExprId)],
        body: ExprId,
        tail: bool,
        bound: &mut Vec<u32>,
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
        slot: u32,
        head: ExprId,
        tail: ExprId,
        group_caps: &[CaptureSrc],
        later: &[(u32, ExprId)],
        body: ExprId,
    ) -> bool {
        self.next_slot.checked_add(2).is_some()
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
    fn slot_use(&self, id: ExprId, slot: u32) -> SlotUse {
        let a = self.arena;
        let local = |s: SlotRef| s == SlotRef::Local(slot);
        let captured = |c: &[CaptureSrc]| c.contains(&CaptureSrc::Local(slot));
        let observed = match a[id] {
            IrExpr::Var(_) | IrExpr::Dcons { .. } => local(self.slot(id)),
            IrExpr::Lambda { .. } => captured(&self.sites[self.record(id)].captures),
            IrExpr::Letrec(..) => self.letrecs[self.record(id)]
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

/// How a subtree refers to a frame slot ([`Compiler::slot_use`]), in
/// increasing order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum SlotUse {
    /// Not at all.
    None,
    /// Only directly under `car`, `cdr` or `null`: the only shapes
    /// [`Compiler::scalar_projection`] can rewrite.
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

    /// The variable loads of chunk `c`, in code order: a fused `*Local`
    /// op counts as its slot load, and a direct call as a load of its
    /// callee's binding.
    fn loads(b: &BytecodeProgram, c: &Chunk) -> Vec<SlotRef> {
        let binding = |ch: u32| {
            let callee = b.globals.iter().position(|g| match *g {
                GlobalDef::Func { chunk, .. } => chunk == ch,
                GlobalDef::Value { .. } => false,
            });
            SlotRef::GlobalFunc(callee.expect("a direct call enters a function") as u32)
        };
        let load = |op: &Op| {
            Some(match *op {
                Op::LoadLocal(i)
                | Op::Prim1Local(_, i)
                | Op::Proj2Local(_, _, i)
                | Op::Prim2Local(_, i)
                | Op::JumpIfPairLocal(i, _) => SlotRef::Local(i),
                Op::LoadCapture(i) => SlotRef::Capture(i),
                Op::LoadRec(j) => SlotRef::Rec(j),
                Op::LoadGlobalFunc(i) => SlotRef::GlobalFunc(i),
                Op::LoadGlobalVal(i) => SlotRef::GlobalVal(i),
                Op::Unbound(_) => SlotRef::Unbound,
                Op::CallGlobal(ch) | Op::TailCallGlobal(ch) => binding(ch),
                _ => return None,
            })
        };
        c.code.iter().filter_map(load).collect()
    }

    /// The closures chunk `c` creates, in code order.
    fn made_closures<'b>(b: &'b BytecodeProgram, c: &Chunk) -> Vec<&'b ClosureSite> {
        let made = c.code.iter().filter_map(|op| match *op {
            Op::MakeClosure(i) => Some(&b.closures[i as usize]),
            _ => None,
        });
        made.collect()
    }

    /// The chunk of top-level binding `i`.
    fn global_chunk(b: &BytecodeProgram, i: usize) -> &Chunk {
        let (GlobalDef::Func { chunk, .. } | GlobalDef::Value { chunk }) = b.globals[i];
        &b.chunks[chunk as usize]
    }

    fn main_chunk(b: &BytecodeProgram) -> &Chunk {
        &b.chunks[b.main as usize]
    }

    #[test]
    fn params_resolve_to_local_slots() {
        let b = compile_src("letrec add x y = x + y in add 1 2");
        let add = chunk(&b, "add");
        assert_eq!(add.n_params, 2);
        assert_eq!(loads(&b, add), [SlotRef::Local(0), SlotRef::Local(1)]);
    }

    #[test]
    fn global_function_reference_is_direct() {
        let b = compile_src("letrec f x = f x in f 1");
        assert_eq!(loads(&b, main_chunk(&b)), [SlotRef::GlobalFunc(0)]);
        // Self-recursion in a top-level function is also a global ref.
        assert_eq!(
            loads(&b, chunk(&b, "f")),
            [SlotRef::Local(0), SlotRef::GlobalFunc(0)]
        );
    }

    #[test]
    fn nested_lambda_captures_outer_local() {
        // k is a local of `make`; the inner lambda must capture it once
        // and load that capture at both uses. (The lambda sits in
        // argument position so lowering can't flatten it into a curried
        // parameter.)
        let b =
            compile_src("letrec pass f = f; make k = pass (lambda(x). x + k + k) in (make 3) 4");
        let mk = made_closures(&b, chunk(&b, "make"));
        let c = mk.last().expect("lambda stays a closure");
        assert_eq!(c.captures, [CaptureSrc::Local(0)]);
        assert_eq!(
            loads(&b, &b.chunks[c.chunk as usize]),
            [SlotRef::Local(0), SlotRef::Capture(0), SlotRef::Capture(0)]
        );
    }

    #[test]
    fn nested_letrec_siblings_resolve_to_rec() {
        let b = compile_src(
            "letrec go n =
               letrec ev x = if x = 0 then true else od (x - 1);
                      od x = if x = 0 then false else ev (x - 1)
               in ev n
             in go 4",
        );
        assert!(loads(&b, chunk(&b, "ev")).contains(&SlotRef::Rec(1)));
        assert!(loads(&b, chunk(&b, "od")).contains(&SlotRef::Rec(0)));
        // The letrec body refers to the materialized closure slot.
        let go = chunk(&b, "go");
        let [Op::MakeRec(g), ..] = go.code[..] else {
            panic!("go opens with its rec group: {:?}", go.code);
        };
        let g = &b.recs[g as usize];
        assert_eq!(g.chunks.len(), 2);
        assert_eq!(
            loads(&b, go),
            [SlotRef::Local(g.slots[0]), SlotRef::Local(0)]
        );
    }

    #[test]
    fn value_bindings_get_frame_slots_in_order() {
        let b = compile_src("letrec f n = letrec a = n + 1; b = a + 1 in a + b in f 1");
        let f = chunk(&b, "f");
        assert_eq!(count_op(f, |o| matches!(o, Op::MakeRec(_))), 0);
        let stores: Vec<&Op> = f
            .code
            .iter()
            .filter(|o| matches!(o, Op::StoreLocal(_)))
            .collect();
        assert_eq!(stores, [&Op::StoreLocal(1), &Op::StoreLocal(2)]);
        // `b`'s expression sees `a`'s slot.
        let l = SlotRef::Local;
        assert_eq!(loads(&b, f), [l(0), l(1), l(1), l(2)]);
    }

    #[test]
    fn letrec_scope_is_restored_after_body() {
        // The second letrec's body must not see the first's binding.
        let b = compile_src("letrec f n = (letrec a = 1 in a) + (letrec b = 2 in b) in f 0");
        // Both letrec bodies load locals, and slots are distinct.
        let slots: Vec<SlotRef> = loads(&b, chunk(&b, "f"))
            .into_iter()
            .filter(|s| *s != SlotRef::Local(0))
            .collect();
        assert_eq!(slots.len(), 2);
        assert_ne!(slots[0], slots[1]);
    }

    #[test]
    fn lambda_in_rec_member_captures_sibling_via_rec() {
        // Inside member `f`, a nested lambda referencing sibling `g`
        // captures it from f's rec group.
        let b = compile_src(
            "letrec run h = h 0 in
             letrec f x = run (lambda(y). g y + x);
                    g x = x * 2
             in f 5",
        );
        let f = made_closures(&b, chunk(&b, "f"));
        let cap = &f.last().expect("nested lambda").captures;
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

    fn func(name: &str, params: &[&str], body: Arena) -> nml_opt::IrFunc {
        nml_opt::IrFunc {
            name: Symbol::intern(name),
            params: params.iter().map(|p| Symbol::intern(p)).collect(),
            body,
        }
    }

    fn var(name: &str) -> Arena {
        leaf(IrExpr::Var(Symbol::intern(name)))
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
            let b = compile(&ir);
            assert_eq!(loads(&b, main_chunk(&b)), [SlotRef::Unbound]);
        }
    }

    #[test]
    fn function_referenced_before_its_definition_is_direct() {
        let b = compile_src("letrec g x = h x; h x = x + 1; k = g 1 in k");
        assert!(loads(&b, chunk(&b, "g")).contains(&SlotRef::GlobalFunc(1)));
        assert!(loads(&b, chunk(&b, "k")).contains(&SlotRef::GlobalFunc(0)));
    }

    #[test]
    fn direct_calls_enter_the_callees_chunk() {
        // The lambda in `g` gets a chunk of its own, so `h`'s binding
        // index (2) is not its chunk.
        let b =
            compile_src("letrec pass f = f; g x = h ((pass (lambda(y). y)) x); h x = x + 1 in g 1");
        let h = b
            .chunks
            .iter()
            .position(|c| c.name == Some(Symbol::intern("h")));
        let h = h.expect("chunk of h") as u32;
        assert_ne!(h, 2);
        assert_eq!(b.globals[2], GlobalDef::Func { chunk: h, arity: 1 });
        let g = &chunk(&b, "g").code;
        assert!(g.contains(&Op::TailCallGlobal(h)), "{g:?}");
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
        let b = compile(&ir);
        let at = |i: usize| loads(&b, global_chunk(&b, i));
        assert_eq!(at(0), [SlotRef::Unbound]);
        assert_eq!(at(1), [SlotRef::GlobalVal(0)]);
        assert_eq!(at(3), [SlotRef::GlobalVal(0)]);
        assert_eq!(at(4), [SlotRef::GlobalVal(3)]);
        assert_eq!(at(6), [SlotRef::GlobalFunc(5)]);
        // A function body runs after startup and sees every value binding.
        assert_eq!(at(8), [SlotRef::GlobalVal(3)]);
        assert_eq!(
            loads(&b, main_chunk(&b)),
            [SlotRef::GlobalVal(3), SlotRef::GlobalVal(7)]
        );
    }
}
