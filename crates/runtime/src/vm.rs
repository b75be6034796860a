//! The bytecode execution engine.
//!
//! Where the tree-walker ([`crate::interp`]) re-resolves every variable
//! against a linked `Env` chain and allocates an `Rc` node per binding,
//! the VM executes the flat [`crate::bytecode`] form:
//!
//! - **one value stack** holding every frame: a frame's `n_slots`
//!   slots start at its locals base `lb`, and its operands sit above
//!   them, up to the next frame's slots;
//! - **calls that move nothing**: a caller pushes the arguments as
//!   operands, and a call makes the top `n_params` of them the callee's
//!   first slots where they lie (`lb = len - n_params`, then the stack
//!   grows to `lb + n_slots`). A tail call moves its arguments down
//!   onto the current frame's `lb` and drops the rest of that frame; a
//!   return truncates the stack to the callee's `lb` and pushes the
//!   result. Closure and partial applications push the arguments too and
//!   enter the same way;
//! - **values that own nothing**: a [`Value`] is a `Copy` 16-byte word
//!   pair, so `LoadLocal`/`StoreLocal`, returns and tail calls move
//!   plain bits with no reference counts or drop glue. A closure is the
//!   inline pair `VmClosure { chunk, env }`, where `env` names a flat
//!   [`CaptureEnv`] in the heap's object table holding the values the
//!   closure captured; the members of a recursive `letrec` group share
//!   one environment, so `LoadRec` builds a sibling without allocating.
//!   The ops that create objects (`MakeClosure`, `MakeRec`, and calls,
//!   which may build a partial or primitive application) poll the heap's
//!   object trigger;
//! - **statically resolved tail calls** that replace the current frame
//!   in place, so tail-recursive loops run in constant frame depth and
//!   constant stack height;
//! - **inline integer and list-probe paths**: the integer ops try
//!   `int_prim2`, the integer arm of the shared `prim2`, before the full
//!   call, and `car`/`cdr`/`null` read their operand in place; errors
//!   still come from `prim2` and `prim1`;
//! - **inline allocation fast paths**: when the fault plan is inert,
//!   `CONS` and `DCONS` skip the fault bookkeeping of
//!   [`Heap::alloc_at`] and go straight to the allocator (which still
//!   honors [`nml_opt::AllocMode`] region routing, site counters, and
//!   checked-mode tombstone semantics).
//!
//! The engine is observationally equivalent to the tree-walker: same
//! results, same errors, and — absent SROA — the same allocation
//! sequence (so deterministic fault plans fire identically under both).
//! [`nml_opt::AllocMode::Elided`] marks break the sequence match on
//! purpose: the VM scalarizes those cons cells into frame slots and
//! never allocates them, so fault-plan differentials must strip the
//! marks first. The differential suite in `tests/differential.rs` holds
//! the two engines against each other over generated programs; the
//! tree-walker stays as the oracle.

use crate::bytecode::{compile, BytecodeProgram, GlobalDef, Op};
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::gc::{self, Marker};
use crate::heap::{Heap, ObjRef, RegionId};
use crate::interp::{int_prim2, prim1, prim2, InterpConfig, CANCEL_POLL_MASK};
use crate::value::{CaptureEnv, Obj, PartialApp, PrimApp, Value};
use nml_opt::{AllocMode, CaptureSrc, IrFunc, IrProgram};
use nml_syntax::{Prim, Symbol};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Which execution engine runs a program. Both produce identical
/// observable behavior; the VM is the default, the tree-walker remains
/// as the differential oracle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The CEK-style tree-walking interpreter ([`crate::Interp`]).
    Tree,
    /// The bytecode VM ([`Vm`]).
    #[default]
    Vm,
}

impl std::str::FromStr for Engine {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tree" => Ok(Engine::Tree),
            "vm" => Ok(Engine::Vm),
            other => Err(format!("unknown engine '{other}' (expected tree|vm)")),
        }
    }
}

impl std::fmt::Display for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Engine::Tree => "tree",
            Engine::Vm => "vm",
        })
    }
}

/// The bytecode VM for one IR program.
pub struct Vm<'p> {
    program: &'p IrProgram,
    code: BytecodeProgram,
    /// The instrumented heap (public for inspection in tests/benches).
    pub heap: Heap<'p>,
    /// Top-level binding values, parallel to `IrProgram::funcs`.
    globals: Vec<Value<'p>>,
    /// Startup watermark: value bindings `0..init_done` are initialized.
    init_done: usize,
    /// First-occurrence function chunks, for [`Vm::call`]. (A function
    /// value carries its binding's index and reads its chunk from the
    /// compiled program's global table instead.)
    func_index: HashMap<Symbol, u32>,
    config: InterpConfig,
    /// No fault can ever fire: allocation ops may use the straight-line
    /// [`Heap::alloc_fast`] path.
    fault_inert: bool,
    /// The value stack's greatest height over every entry so far.
    #[cfg(test)]
    stack_high_water: usize,
}

impl<'p> Vm<'p> {
    /// Compiles `program` and evaluates its top-level *value* bindings
    /// in order, exactly like [`crate::Interp::new`].
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised while evaluating a value binding.
    pub fn new(program: &'p IrProgram) -> Result<Self, RuntimeError> {
        Vm::with_config(program, InterpConfig::default())
    }

    /// Creates a VM with explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`Vm::new`].
    pub fn with_config(program: &'p IrProgram, config: InterpConfig) -> Result<Self, RuntimeError> {
        let code = compile(program);
        let mut heap = Heap::new(config.heap.clone());
        heap.set_fault_plan(config.fault.clone());
        let mut func_index = HashMap::new();
        let mut globals = Vec::with_capacity(code.globals.len());
        for (i, def) in code.globals.iter().enumerate() {
            match def {
                GlobalDef::Func { chunk, .. } => {
                    func_index.entry(program.funcs[i].name).or_insert(*chunk);
                    globals.push(Value::Func {
                        func: &program.funcs[i],
                        index: i as u32,
                    });
                }
                // Placeholder until startup evaluates the binding; loads
                // check `init_done` first, so it is never observed.
                GlobalDef::Value { .. } => globals.push(Value::Nil),
            }
        }
        let fault_inert = !config.fault.is_active();
        let mut vm = Vm {
            program,
            code,
            heap,
            globals,
            init_done: 0,
            func_index,
            config,
            fault_inert,
            #[cfg(test)]
            stack_high_water: 0,
        };
        for i in 0..vm.code.globals.len() {
            if let GlobalDef::Value { chunk } = vm.code.globals[i] {
                vm.init_done = i;
                let v = vm.exec(chunk, Vec::new())?;
                vm.globals[i] = v;
            }
        }
        vm.init_done = vm.code.globals.len();
        Ok(vm)
    }

    /// Runs the program body to a value.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised during execution.
    pub fn run(&mut self) -> Result<Value<'p>, RuntimeError> {
        self.exec(self.code.main, Vec::new())
    }

    /// Replaces the per-entry fuel budget (`None` = unlimited). A server
    /// worker calls this before each request; every `run`/`call` entry
    /// meters from its own start.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.config.fuel = fuel;
    }

    /// Installs (or clears) the shared cooperative-cancellation flag.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.config.cancel = cancel;
    }

    /// Replaces the fault plan for subsequent entries (a server worker
    /// installs each request's plan, then resets to the inert default).
    /// Re-derives the allocation fast-path flag, which is keyed on plan
    /// inertness at construction time.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_inert = !plan.is_active();
        self.heap.set_fault_plan(plan);
    }

    /// Calls top-level function `name` with exactly its arity in `args`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unbound`] for unknown names, a
    /// [`RuntimeError::TypeMismatch`] for arity mismatch, and any error
    /// raised by the body.
    pub fn call(&mut self, name: Symbol, args: Vec<Value<'p>>) -> Result<Value<'p>, RuntimeError> {
        // `func_index` holds the first function binding of each name.
        let chunk = *self
            .func_index
            .get(&name)
            .ok_or_else(|| RuntimeError::Unbound {
                name: name.to_string(),
            })?;
        if self.code.chunks[chunk as usize].n_params as usize != args.len() {
            return Err(RuntimeError::TypeMismatch {
                expected: "full application",
                found: "wrong arity",
                op: "call",
            });
        }
        self.exec(chunk, args)
    }

    fn exec(&mut self, chunk: u32, args: Vec<Value<'p>>) -> Result<Value<'p>, RuntimeError> {
        let code = &self.code;
        let heap = &mut self.heap;
        let mut m = Machine {
            // The arguments are the entry frame's first slots.
            stack: args,
            frames: vec![Activation {
                ret_chunk: 0,
                ret_pc: 0,
                locals_base: 0,
                env: None,
            }],
            regions: Vec::new(),
            ops: code.chunks[chunk as usize].code.as_slice(),
            lb: 0,
            ci: chunk as usize,
            pc: 0,
            steps: heap.stats.steps,
            step_limit: self.config.step_limit,
            // Fuel is metered from this entry, not machine birth, so
            // every `run`/`call` gets the full budget.
            fuel_limit: self
                .config
                .fuel
                .map_or(u64::MAX, |f| heap.stats.steps.saturating_add(f)),
            code,
            heap,
            globals: &self.globals,
            program: self.program,
            init_done: self.init_done,
            config: &self.config,
            fault_inert: self.fault_inert,
            #[cfg(test)]
            high_water: 0,
        };
        let n_slots = code.chunks[chunk as usize].n_slots as usize;
        m.stack.resize(n_slots, Value::Nil);
        let r = m.run();
        #[cfg(test)]
        {
            self.stack_high_water = self.stack_high_water.max(m.high_water);
        }
        r
    }

    /// Builds a proper list from `items` (testing/benchmark helper).
    pub fn make_list(&mut self, items: impl IntoIterator<Item = Value<'p>>) -> Value<'p> {
        self.heap.make_list(items)
    }

    /// Builds a list of integers.
    pub fn make_int_list(&mut self, items: &[i64]) -> Value<'p> {
        self.heap.make_list(items.iter().map(|&n| Value::Int(n)))
    }

    /// Reads a list of integers back out of the heap (see
    /// [`Heap::read_int_list`]).
    ///
    /// # Errors
    ///
    /// Type mismatches if the value is not a proper `int list`, or
    /// [`RuntimeError::UseAfterFree`] for dangling cells.
    pub fn read_int_list(&self, v: Value<'p>) -> Result<Vec<i64>, RuntimeError> {
        self.heap.read_int_list(v)
    }
}

/// One call frame. Its slots and operands live in the machine's value
/// stack; the activation records where the slots start and where to
/// return to.
struct Activation {
    ret_chunk: u32,
    ret_pc: u32,
    /// Index of the frame's slot 0 in the value stack.
    locals_base: usize,
    /// The running closure's capture environment.
    env: Option<ObjRef>,
}

/// The running machine. Holds the [`Vm`]'s parts as *split* borrows so
/// the dispatch loop can keep a direct reference to the current chunk's
/// instructions (`ops`) alongside the mutable heap — one bounds check
/// per fetch instead of a double indirection through the `Vm`.
struct Machine<'v, 'p> {
    /// The value stack: each frame's `n_slots` slots, then its operands,
    /// then the next frame's slots. A call's arguments, pushed as
    /// operands, become the callee's first slots where they lie.
    stack: Vec<Value<'p>>,
    frames: Vec<Activation>,
    /// Open dynamic extents; `None` marks a fault-denied push (the
    /// matching `ExitRegion` then pops nothing from the heap).
    regions: Vec<Option<RegionId>>,
    /// The current chunk's instructions (cache of `code.chunks[ci].code`;
    /// refreshed on every frame switch).
    ops: &'v [Op],
    /// The current frame's locals base (cache of
    /// `frames.last().locals_base`; refreshed on every frame switch).
    lb: usize,
    ci: usize,
    pc: usize,
    /// Running step counter (flushed to `heap.stats.steps` on exit).
    steps: u64,
    step_limit: u64,
    /// Absolute step count at which this entry's fuel runs out
    /// (`u64::MAX` when unmetered).
    fuel_limit: u64,
    code: &'v BytecodeProgram,
    heap: &'v mut Heap<'p>,
    globals: &'v [Value<'p>],
    program: &'p IrProgram,
    init_done: usize,
    config: &'v InterpConfig,
    fault_inert: bool,
    /// The value stack's greatest height at any step of this entry.
    #[cfg(test)]
    high_water: usize,
}

/// Applies a unary primitive to a value in place. The list probes
/// (`car`/`cdr` of a pair, `null` of a list) read without moving the
/// value; everything else, the errors included, goes through [`prim1`].
#[inline(always)]
fn list_probe<'p>(heap: &Heap<'p>, p: Prim, v: &Value<'p>) -> Result<Value<'p>, RuntimeError> {
    match (p, v) {
        (Prim::Car, Value::Pair(c)) => heap.car(*c),
        (Prim::Cdr, Value::Pair(c)) => heap.cdr(*c),
        (Prim::Null, Value::Nil) => Ok(Value::Bool(true)),
        (Prim::Null, Value::Pair(_)) => Ok(Value::Bool(false)),
        _ => prim1(heap, p, *v),
    }
}

/// Replaces the top operand `a` with `p a b`. Two ints take the inline
/// [`int_prim2`] path; everything else, the errors included, goes
/// through [`prim2`].
#[inline(always)]
fn prim2_onto<'p>(
    heap: &mut Heap<'p>,
    stack: &mut [Value<'p>],
    p: Prim,
    b: Value<'p>,
) -> Result<(), RuntimeError> {
    let a = stack.last_mut().or_internal("missing prim lhs")?;
    *a = match int_prim2(p, a, &b) {
        Some(r) => r,
        None => prim2(heap, p, *a, b)?,
    };
    Ok(())
}

/// `Option::ok_or` for the VM's internal-invariant errors, building the
/// error only on `None`: an eagerly built error would be constructed and
/// dropped on every success path.
trait OrInternal<T> {
    fn or_internal(self, what: &'static str) -> Result<T, RuntimeError>;
}

impl<T> OrInternal<T> for Option<T> {
    #[inline(always)]
    fn or_internal(self, what: &'static str) -> Result<T, RuntimeError> {
        match self {
            Some(v) => Ok(v),
            None => Err(RuntimeError::Internal { what }),
        }
    }
}

/// Resolves closure-capture sources against the creating frame, whose
/// capture environment is `env`.
fn resolve_captures<'p>(
    heap: &Heap<'p>,
    srcs: &[CaptureSrc],
    locals: &[Value<'p>],
    env: Option<ObjRef>,
) -> Result<Vec<Value<'p>>, RuntimeError> {
    let caps = env.map(|e| heap.captures(e)).transpose()?;
    srcs.iter()
        .map(|s| {
            Ok(match *s {
                CaptureSrc::Local(i) => locals[i as usize],
                CaptureSrc::Capture(i) => {
                    let c = caps.or_internal("capturing frame has no capture env")?;
                    c.values[i as usize]
                }
                CaptureSrc::Rec(j) => {
                    let (env, c) = env
                        .zip(caps)
                        .or_internal("capturing frame has no rec group")?;
                    Value::VmClosure {
                        chunk: c.rec[j as usize],
                        env,
                    }
                }
            })
        })
        .collect()
}

impl<'p> Machine<'_, 'p> {
    fn run(&mut self) -> Result<Value<'p>, RuntimeError> {
        let r = self.run_loop();
        self.heap.stats.steps = self.steps;
        if r.is_err() {
            // Close the dynamic extents the aborted computation left
            // open (innermost first), so the heap is consistent for the
            // next `run`/`call` entry on the same `Vm`. No live value
            // can reference these cells: the computation that owned
            // them produced no result.
            for id in self.regions.drain(..).rev().flatten() {
                let _ = self.heap.pop_region(id);
            }
        }
        r
    }

    /// Pops an operand; a miss is a bytecode invariant violation
    /// surfaced as a typed error (never a worker-killing panic).
    #[inline]
    fn pop(&mut self, what: &'static str) -> Result<Value<'p>, RuntimeError> {
        self.stack.pop().or_internal(what)
    }

    /// GC poll. With an inert fault plan this is only called from the
    /// allocation ops (the heap cannot need collecting anywhere else,
    /// and forced-GC requests cannot exist); with an active plan the
    /// dispatch loop polls every step, like the tree-walker.
    #[inline(always)]
    fn maybe_collect(&mut self) {
        let forced = self.heap.take_forced_gc();
        if forced || self.heap.should_collect() {
            self.collect(forced);
        }
    }

    /// The object-creating ops' poll: runs the object collection the
    /// object trigger asks for, and nothing else, so cell collections
    /// happen where they would without objects.
    #[inline]
    fn poll_objects(&mut self) {
        if self.heap.objects_due() {
            self.collect_objects();
        }
    }

    /// The running closure's capture environment.
    #[inline]
    fn frame_env(&self, what: &'static str) -> Result<ObjRef, RuntimeError> {
        self.frames.last().and_then(|f| f.env).or_internal(what)
    }

    fn run_loop(&mut self) -> Result<Value<'p>, RuntimeError> {
        loop {
            // Checked *before* the increment with `>=`, so exactly
            // `fuel` steps of the uninterrupted execution have run when
            // this trips (the prefix-determinism property the fuel
            // proptest pins down).
            if self.steps >= self.fuel_limit {
                return Err(RuntimeError::FuelExhausted {
                    fuel: self.config.fuel.unwrap_or(0),
                });
            }
            self.steps += 1;
            if self.steps > self.step_limit {
                return Err(RuntimeError::StepLimitExceeded {
                    limit: self.step_limit,
                });
            }
            if self.steps & CANCEL_POLL_MASK == 0 {
                if let Some(c) = &self.config.cancel {
                    if c.load(Ordering::Relaxed) {
                        return Err(RuntimeError::Cancelled);
                    }
                }
            }
            if !self.fault_inert {
                self.maybe_collect();
            }
            #[cfg(test)]
            {
                self.high_water = self.high_water.max(self.stack.len());
            }
            let op = self.ops[self.pc];
            self.pc += 1;
            match op {
                Op::PushInt(n) => self.stack.push(Value::Int(n)),
                Op::PushBool(b) => self.stack.push(Value::Bool(b)),
                Op::PushNil => self.stack.push(Value::Nil),
                Op::PushPrim(p) => self.stack.push(Value::Prim(p)),
                Op::LoadLocal(i) => {
                    let v = self.stack[self.lb + i as usize];
                    self.stack.push(v);
                }
                Op::LoadCapture(i) => {
                    let env = self.frame_env("chunk with captures ran without a closure env")?;
                    let v = self.heap.captures(env)?.values[i as usize];
                    self.stack.push(v);
                }
                Op::LoadRec(j) => {
                    let env = self.frame_env("chunk with rec refs ran without a closure env")?;
                    let chunk = self.heap.captures(env)?.rec[j as usize];
                    self.stack.push(Value::VmClosure { chunk, env });
                }
                Op::LoadGlobalFunc(i) => self.stack.push(self.globals[i as usize]),
                Op::LoadGlobalVal(i) => {
                    if (i as usize) < self.init_done {
                        self.stack.push(self.globals[i as usize]);
                    } else {
                        return Err(RuntimeError::Unbound {
                            name: self.program.funcs[i as usize].name.to_string(),
                        });
                    }
                }
                Op::Unbound(x) => {
                    return Err(RuntimeError::Unbound {
                        name: x.to_string(),
                    })
                }
                Op::StoreLocal(i) => {
                    let v = self.pop("operand stack underflow on store")?;
                    self.stack[self.lb + i as usize] = v;
                }
                Op::ClearLocal(i) => {
                    self.stack[self.lb + i as usize] = Value::Nil;
                }
                Op::MakeClosure(i) => {
                    self.poll_objects();
                    let fr = self
                        .frames
                        .last()
                        .or_internal("no active frame at MakeClosure")?;
                    let site = &self.code.closures[i as usize];
                    let values = resolve_captures(
                        self.heap,
                        &site.captures,
                        &self.stack[self.lb..],
                        fr.env,
                    )?;
                    let env = self.heap.alloc_obj(Obj::Captures(CaptureEnv {
                        values,
                        rec: Vec::new(),
                    }));
                    self.stack.push(Value::VmClosure {
                        chunk: site.chunk,
                        env,
                    });
                }
                Op::MakeRec(i) => {
                    self.poll_objects();
                    let fr = self
                        .frames
                        .last()
                        .or_internal("no active frame at MakeRec")?;
                    let base = self.lb;
                    let site = &self.code.recs[i as usize];
                    let values =
                        resolve_captures(self.heap, &site.captures, &self.stack[base..], fr.env)?;
                    let env = self.heap.alloc_obj(Obj::Captures(CaptureEnv {
                        values,
                        rec: site.chunks.clone(),
                    }));
                    for (&chunk, &slot) in site.chunks.iter().zip(&site.slots) {
                        self.stack[base + slot as usize] = Value::VmClosure { chunk, env };
                    }
                }
                Op::Jump(t) => self.pc = t as usize,
                Op::JumpIfFalse(t) => match self.pop("operand stack underflow on branch")? {
                    Value::Bool(true) => {}
                    Value::Bool(false) => self.pc = t as usize,
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "bool",
                            found: other.kind(),
                            op: "if",
                        })
                    }
                },
                Op::Call | Op::TailCall => {
                    // The application may build a partial or primitive
                    // application: poll while callee and argument are
                    // still rooted on the stack.
                    self.poll_objects();
                    let arg = self.pop("missing call argument")?;
                    let fun = self.pop("missing callee")?;
                    if let Some(v) = self.apply(fun, arg, matches!(op, Op::TailCall))? {
                        return Ok(v);
                    }
                }
                Op::CallGlobal(c) => self.enter(c, None, false)?,
                Op::TailCallGlobal(c) => self.enter(c, None, true)?,
                Op::Return => {
                    let v = self.pop("missing return value")?;
                    if let Some(v) = self.do_return(v)? {
                        return Ok(v);
                    }
                }
                Op::Cons { mode, site } => {
                    // The GC poll happens while head and tail are still
                    // on the operand stack, so both are rooted.
                    let cell = if self.fault_inert {
                        self.maybe_collect();
                        let tail = self.pop("missing cons tail")?;
                        let head = self.pop("missing cons head")?;
                        self.heap.alloc_fast(head, tail, mode, site)
                    } else {
                        let tail = self.pop("missing cons tail")?;
                        let head = self.pop("missing cons head")?;
                        self.heap.alloc_at(head, tail, mode, Some(site))?
                    };
                    self.stack.push(Value::Pair(cell));
                }
                Op::CheckPair => {
                    let v = self.stack.last().or_internal("missing dcons target")?;
                    if !matches!(v, Value::Pair(_)) {
                        return Err(RuntimeError::DconsOnNonPair { found: v.kind() });
                    }
                }
                Op::Dcons(site) => {
                    if self.fault_inert {
                        // Poll before the operands leave the stack.
                        self.maybe_collect();
                    }
                    let tail = self.pop("missing dcons tail")?;
                    let head = self.pop("missing dcons head")?;
                    let Some(Value::Pair(cell)) = self.stack.pop() else {
                        // CheckPair runs before Dcons in well-formed
                        // bytecode; anything else is a compiler bug.
                        return Err(RuntimeError::Internal {
                            what: "dcons target is not a pair",
                        });
                    };
                    // Same three-way split as the tree-walker's Dcons2
                    // frame: fault retreat, checked copy-and-retire, or
                    // true in-place reuse.
                    if !self.fault_inert && self.heap.fault_dcons_retreat() {
                        let fresh = self
                            .heap
                            .alloc_at(head, tail, AllocMode::Heap, Some(site))?;
                        self.stack.push(Value::Pair(fresh));
                    } else if self.config.heap.checked {
                        let fresh = if self.fault_inert {
                            self.heap.alloc_fast(head, tail, AllocMode::Heap, site)
                        } else {
                            self.heap
                                .alloc_at(head, tail, AllocMode::Heap, Some(site))?
                        };
                        self.heap.retire_reused(cell, Some(site))?;
                        self.heap.stats.reuse_copies += 1;
                        self.heap.record_reuse(site);
                        self.stack.push(Value::Pair(fresh));
                    } else {
                        self.heap.set(cell, head, tail)?;
                        self.heap.stats.dcons_reuses += 1;
                        self.heap.record_reuse(site);
                        self.stack.push(Value::Pair(cell));
                    }
                }
                Op::ElideCons(_) => {
                    // Scalar-replaced cons: head and tail already sit in
                    // frame slots, no cell exists. Just count it.
                    self.heap.stats.allocs_elided += 1;
                }
                Op::Prim1(p) => {
                    let v = self.stack.last_mut().or_internal("missing prim operand")?;
                    *v = list_probe(self.heap, p, v)?;
                }
                Op::Prim2(p) => {
                    if self.fault_inert && p.allocates() {
                        // First-class cons/pair construction allocates;
                        // poll while the operands are still rooted.
                        self.maybe_collect();
                    }
                    let b = self.pop("missing prim rhs")?;
                    prim2_onto(self.heap, &mut self.stack, p, b)?;
                }
                Op::JumpIfPairLocal(i, t) => match &self.stack[self.lb + i as usize] {
                    Value::Nil => {}
                    Value::Pair(_) => self.pc = t as usize,
                    other => {
                        return Err(RuntimeError::TypeMismatch {
                            expected: "list",
                            found: other.kind(),
                            op: "null",
                        })
                    }
                },
                Op::Prim1Local(p, i) => {
                    let r = list_probe(self.heap, p, &self.stack[self.lb + i as usize])?;
                    self.stack.push(r);
                }
                Op::Proj2Local(p1, p2, i) => {
                    // The chained pair projection: `p1` straight off the
                    // frame slot, `p2` on its result, no operand-stack
                    // round trips, and the unfused type errors.
                    let mid = list_probe(self.heap, p1, &self.stack[self.lb + i as usize])?;
                    let r = list_probe(self.heap, p2, &mid)?;
                    self.stack.push(r);
                }
                Op::Prim2Local(p, i) => {
                    let b = self.stack[self.lb + i as usize];
                    prim2_onto(self.heap, &mut self.stack, p, b)?;
                }
                Op::Prim2Imm(p, n) => prim2_onto(self.heap, &mut self.stack, p, Value::Int(n))?,
                Op::EnterRegion(kind) => {
                    if self.heap.fault_deny_region() {
                        self.regions.push(None);
                    } else {
                        self.regions.push(Some(self.heap.push_region(kind)));
                    }
                }
                Op::ExitRegion => {
                    let slot = self
                        .regions
                        .pop()
                        .or_internal("region exit with no region entered")?;
                    if let Some(id) = slot {
                        if self.config.validate_regions {
                            let roots = roots(self.globals, &self.stack, &self.frames);
                            gc::check_region(self.heap, roots)?;
                        }
                        self.heap.pop_region(id)?;
                    }
                }
            }
        }
    }

    /// Applies `fun` to one argument. Returns the machine's final value
    /// when a tail-position result pops the last frame.
    fn apply(
        &mut self,
        fun: Value<'p>,
        arg: Value<'p>,
        tail: bool,
    ) -> Result<Option<Value<'p>>, RuntimeError> {
        match fun {
            Value::VmClosure { chunk, env } => {
                self.stack.push(arg);
                self.enter(chunk, Some(env), tail)?;
                Ok(None)
            }
            Value::Func { func, index } => self.apply_func(func, index, None, arg, tail),
            Value::PartialFunc(p) => {
                let app = self.heap.partial(p)?;
                let (func, index) = (app.func, app.index);
                self.apply_func(func, index, Some(p), arg, tail)
            }
            Value::Prim(prim) => {
                if prim.arity() == 1 {
                    let v = prim1(self.heap, prim, arg)?;
                    self.ret_or_push(v, tail)
                } else {
                    let app = self
                        .heap
                        .alloc_obj(Obj::PrimApp(PrimApp { prim, first: arg }));
                    self.ret_or_push(Value::PrimApp(app), tail)
                }
            }
            Value::PrimApp(p) => {
                let &PrimApp { prim, first } = self.heap.prim_app(p)?;
                let v = prim2(self.heap, prim, first, arg)?;
                self.ret_or_push(v, tail)
            }
            other => Err(RuntimeError::TypeMismatch {
                expected: "function",
                found: other.kind(),
                op: "application",
            }),
        }
    }

    /// Applies top-level function `index` carrying the earlier arguments
    /// of the partial application `partial` (none if `None`) to one more,
    /// saturating into a frame entry when the arity is met.
    fn apply_func(
        &mut self,
        func: &'p IrFunc,
        index: u32,
        partial: Option<ObjRef>,
        arg: Value<'p>,
        tail: bool,
    ) -> Result<Option<Value<'p>>, RuntimeError> {
        let applied: &[Value<'p>] = match partial {
            Some(p) => &self.heap.partial(p)?.applied,
            None => &[],
        };
        if applied.len() + 1 == func.params.len() {
            // Saturating application: push the arguments as the
            // callee's slots, with no intermediate `applied` vector.
            let GlobalDef::Func { chunk, .. } = self.code.globals[index as usize] else {
                return Err(RuntimeError::Unbound {
                    name: func.name.to_string(),
                });
            };
            self.stack.extend_from_slice(applied);
            self.stack.push(arg);
            self.enter(chunk, None, tail)?;
            Ok(None)
        } else {
            let mut args = Vec::with_capacity(applied.len() + 1);
            args.extend_from_slice(applied);
            args.push(arg);
            let app = self.heap.alloc_obj(Obj::Partial(PartialApp {
                func,
                index,
                applied: args,
            }));
            self.ret_or_push(Value::PartialFunc(app), tail)
        }
    }

    /// Enters `chunk`, whose `n_params` arguments are the top operands.
    /// A normal entry leaves them where they are: they become the new
    /// frame's first slots, subject to the configured depth limit. A tail
    /// entry replaces the current frame (constant-depth recursion, so it
    /// can never overflow): the arguments move down onto its slot 0 and
    /// its slots and leftover operands go.
    #[inline(always)]
    fn enter(&mut self, chunk: u32, env: Option<ObjRef>, tail: bool) -> Result<(), RuntimeError> {
        let callee = &self.code.chunks[chunk as usize];
        let n_params = callee.n_params as usize;
        let args = self
            .stack
            .len()
            .checked_sub(n_params)
            .filter(|&args| args >= self.lb)
            .or_internal("operand stack underflow on call")?;
        if tail {
            let fr = self
                .frames
                .last_mut()
                .or_internal("tail call with no active frame")?;
            fr.env = env;
            self.stack.copy_within(args.., self.lb);
            self.stack.truncate(self.lb + n_params);
        } else {
            if self.frames.len() >= self.config.max_depth {
                return Err(RuntimeError::StackOverflow {
                    limit: self.config.max_depth,
                });
            }
            self.frames.push(Activation {
                ret_chunk: self.ci as u32,
                ret_pc: self.pc as u32,
                locals_base: args,
                env,
            });
            self.lb = args;
        }
        let len = self.lb + callee.n_slots as usize;
        if self.stack.len() != len {
            self.stack.resize(len, Value::Nil);
        }
        self.ci = chunk as usize;
        self.pc = 0;
        self.ops = callee.code.as_slice();
        Ok(())
    }

    /// Returns `v` from the current frame; yields the machine's final
    /// value when this was the bottom frame.
    fn do_return(&mut self, v: Value<'p>) -> Result<Option<Value<'p>>, RuntimeError> {
        let fr = self
            .frames
            .pop()
            .or_internal("return with no active frame")?;
        let Some(caller) = self.frames.last() else {
            return Ok(Some(v));
        };
        self.lb = caller.locals_base;
        self.stack.truncate(fr.locals_base);
        self.stack.push(v);
        self.ci = fr.ret_chunk as usize;
        self.pc = fr.ret_pc as usize;
        self.ops = self.code.chunks[self.ci].code.as_slice();
        Ok(None)
    }

    /// An immediate result in tail position behaves like `Return`;
    /// otherwise the value just lands on the operand stack.
    fn ret_or_push(&mut self, v: Value<'p>, tail: bool) -> Result<Option<Value<'p>>, RuntimeError> {
        if tail {
            self.do_return(v)
        } else {
            self.stack.push(v);
            Ok(None)
        }
    }

    /// The GC poll's collection (see [`gc::collect`]).
    #[cold]
    fn collect(&mut self, force_major: bool) {
        gc::collect(
            self.heap,
            force_major,
            roots(self.globals, &self.stack, &self.frames),
        );
    }

    /// An object collection (see [`gc::collect_objects`]).
    fn collect_objects(&mut self) {
        gc::collect_objects(self.heap, roots(self.globals, &self.stack, &self.frames));
    }
}

/// The machine's exact root set: globals, the value stack (every live
/// frame's slots and operands), and closure capture arrays. A region's
/// result is on the operand stack when the region is checked.
fn roots<'a, 'p>(
    globals: &'a [Value<'p>],
    stack: &'a [Value<'p>],
    frames: &'a [Activation],
) -> impl Fn(&mut Marker) + 'a {
    move |m| {
        for v in globals.iter().chain(stack) {
            m.root_value(v);
        }
        for env in frames.iter().filter_map(|fr| fr.env) {
            m.root_obj(env);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interp;
    use crate::test_util::{lower, tree_int};

    fn vm_ints(src: &str) -> Vec<i64> {
        let ir = lower(src);
        let mut vm = Vm::new(&ir).expect("startup");
        let v = vm.run().expect("run");
        vm.read_int_list(v).expect("int list")
    }

    fn vm_int(src: &str) -> i64 {
        let ir = lower(src);
        let mut vm = Vm::new(&ir).expect("startup");
        match vm.run().expect("run") {
            Value::Int(n) => n,
            other => panic!("expected int, got {other}"),
        }
    }

    /// Runs both engines and asserts the rendered int result agrees.
    fn both_int(src: &str) -> i64 {
        let tree = tree_int(src);
        let got = vm_int(src);
        assert_eq!(got, tree, "engines disagree on {src}");
        got
    }

    #[test]
    fn arithmetic_and_calls() {
        assert_eq!(both_int("letrec add x y = x + y in add 2 (add 3 4)"), 9);
    }

    #[test]
    fn list_reversal_matches_tree() {
        let src = "letrec rev l = if null l then nil
                       else app (rev (cdr l)) (cons (car l) nil);
                   app a b = if null a then b else cons (car a) (app (cdr a) b)
               in rev [1, 2, 3, 4, 5]";
        assert_eq!(vm_ints(src), vec![5, 4, 3, 2, 1]);
    }

    #[test]
    fn closures_capture_locals() {
        assert_eq!(
            both_int(
                "letrec pass f = f 10;
                        make k = pass (lambda(x). x + k)
                 in make 32"
            ),
            42
        );
    }

    #[test]
    fn nested_letrec_mutual_recursion() {
        assert_eq!(
            both_int(
                "letrec go n =
                   letrec ev x = if x = 0 then 1 else od (x - 1);
                          od x = if x = 0 then 0 else ev (x - 1)
                   in ev n
                 in go 10"
            ),
            1
        );
    }

    #[test]
    fn tail_recursion_runs_in_constant_frame_depth() {
        // Deep enough that per-call frame growth would exhaust memory;
        // TailCallGlobal keeps the frame vector at depth 1.
        assert_eq!(
            vm_int("letrec loop n acc = if n = 0 then acc else loop (n - 1) (acc + 1) in loop 200000 0"),
            200_000
        );
    }

    #[test]
    fn value_bindings_and_sequencing() {
        assert_eq!(both_int("letrec k = 2 + 3; f x = x * k in f 4"), 20);
    }

    /// Lowers `src` and runs the real escape lattice + SROA annotator
    /// over it, then executes both engines on the *same* annotated IR.
    /// Returns (result, tree stats, vm stats).
    fn both_with_sroa(src: &str) -> (i64, crate::RuntimeStats, crate::RuntimeStats) {
        let mut ir = lower(src);
        let analysis = nml_escape::analyze_source(src).expect("analysis");
        nml_opt::annotate_sroa(&mut ir, &analysis);
        let mut interp = Interp::new(&ir).expect("tree startup");
        let tree = match interp.run().expect("tree run") {
            Value::Int(n) => n,
            other => panic!("tree returned {other}"),
        };
        let tree_stats = interp.heap.stats;
        let mut vm = Vm::new(&ir).expect("vm startup");
        let got = match vm.run().expect("vm run") {
            Value::Int(n) => n,
            other => panic!("vm returned {other}"),
        };
        assert_eq!(got, tree, "engines disagree on {src}");
        (got, tree_stats, vm.heap.stats)
    }

    #[test]
    fn sroa_elides_allocation_and_matches_tree() {
        let (v, tree, vm) = both_with_sroa(
            "letrec f n = letrec p = cons n (cons 1 nil) in car p + car (cdr p) in f 20",
        );
        assert_eq!(v, 21);
        // Tree-walker treats the mark as plain heap; only the VM elides.
        assert_eq!(tree.allocs_elided, 0);
        assert_eq!(tree.heap_allocs, 2);
        assert_eq!(vm.allocs_elided, 1, "outer pair scalarized");
        assert_eq!(vm.heap_allocs, 1, "inner cell still materialized");
    }

    #[test]
    fn sroa_in_a_loop_elides_per_iteration() {
        let src = "letrec loop n acc =
                     if n = 0 then acc
                     else letrec p = cons n (cons acc nil)
                          in loop (n - 1) (car p + car (cdr p))
                   in loop 100 0";
        let (v, tree, vm) = both_with_sroa(src);
        assert_eq!(v, both_int(src), "same value as the unannotated IR");
        assert_eq!(vm.allocs_elided, 100, "one elision per iteration");
        assert_eq!(tree.heap_allocs, vm.heap_allocs + 100);
        assert_eq!(v, tree_int(src));
    }

    #[test]
    fn partial_application_of_globals() {
        assert_eq!(
            both_int(
                "letrec add x y = x + y;
                        twice f z = f (f z)
                 in twice (add 3) 1"
            ),
            7
        );
    }

    #[test]
    fn prims_as_first_class_values() {
        // `car` passed as a function value.
        assert_eq!(
            vm_ints("letrec map f l = if null l then nil else cons (f (car l)) (map f (cdr l)) in map car [[8]]"),
            vec![8]
        );
        // A binary prim applied once is a partial application.
        assert_eq!(
            vm_ints("letrec apply f x = f x in apply (cons 7) nil"),
            vec![7]
        );
    }

    /// Picks out the op a test case must compile to.
    type OpTest = fn(&Op) -> bool;

    /// Every op of every chunk `ir` compiles to.
    fn ops(ir: &IrProgram) -> Vec<Op> {
        compile(ir)
            .chunks
            .iter()
            .flat_map(|c| c.code.iter().copied())
            .collect()
    }

    /// Runs both engines, which must fail with the same message.
    fn engines_fail_alike(ir: &IrProgram) -> RuntimeError {
        let tree = Interp::new(ir).and_then(|mut i| i.run()).unwrap_err();
        let vm = Vm::new(ir).and_then(|mut v| v.run()).unwrap_err();
        assert_eq!(format!("{vm}"), format!("{tree}"));
        vm
    }

    #[test]
    fn runtime_errors_match_tree() {
        // Each source with the op that raises its error: division by
        // zero must come out of `prim2` whichever integer op meets it.
        let cases: [(&str, OpTest); 4] = [
            ("letrec f x = car x in f nil", |op| {
                matches!(op, Op::Prim1Local(Prim::Car, _))
            }),
            ("letrec f x = x / 0 in f 1", |op| {
                matches!(op, Op::Prim2Imm(Prim::Div, 0))
            }),
            ("letrec f x y = x / y in f 1 0", |op| {
                matches!(op, Op::Prim2Local(Prim::Div, _))
            }),
            ("letrec f x y = x / (y + 0) in f 1 0", |op| {
                matches!(op, Op::Prim2(Prim::Div))
            }),
        ];
        for (src, raises) in cases {
            let ir = lower(src);
            assert!(ops(&ir).iter().any(raises), "{src}: op under test");
            let err = engines_fail_alike(&ir);
            let want = if src.contains('/') {
                "division by zero"
            } else {
                "empty list"
            };
            assert!(format!("{err}").contains(want), "{src}: {err}");
        }
    }

    #[test]
    fn comparison_on_a_non_int_fails_alike_through_every_integer_op() {
        // The type checker rejects `nil < 1`, so the nil is put into the
        // lowered IR in place of the literal 1 (the left operand) or 2
        // (the right one).
        let cases: [(&str, i64, OpTest); 4] = [
            ("letrec f x y = x < y in f 1 2", 1, |op| {
                matches!(op, Op::Prim2Local(Prim::Lt, _))
            }),
            ("letrec f x y = x < y in f 1 2", 2, |op| {
                matches!(op, Op::Prim2Local(Prim::Lt, _))
            }),
            ("letrec f x = x < 5 in f 1", 1, |op| {
                matches!(op, Op::Prim2Imm(Prim::Lt, 5))
            }),
            ("letrec f x y = x < (y + 0) in f 1 2", 1, |op| {
                matches!(op, Op::Prim2(Prim::Lt))
            }),
        ];
        for (src, nil_for, raises) in cases {
            let mut ir = lower(src);
            for e in ir.body.nodes_mut() {
                if matches!(e, nml_opt::IrExpr::Const(nml_syntax::Const::Int(n)) if *n == nil_for) {
                    *e = nml_opt::IrExpr::Const(nml_syntax::Const::Nil);
                }
            }
            assert!(ops(&ir).iter().any(raises), "{src}: op under test");
            match engines_fail_alike(&ir) {
                RuntimeError::TypeMismatch {
                    expected: "int",
                    found,
                    op: "<",
                } => assert_eq!(found, Value::Nil.kind(), "{src}"),
                other => panic!("{src}: {other:?}"),
            }
        }
    }

    #[test]
    fn integer_ops_wrap_like_prim2_on_both_engines() {
        // There is no literal for i64::MIN; `0 - MAX - 1` builds it.
        const MIN: &str = "(0 - 9223372036854775807 - 1)";
        let cases: [(String, i64, OpTest); 7] = [
            (
                "letrec f x = x + 1 in f 9223372036854775807".to_owned(),
                i64::MAX.wrapping_add(1),
                |op| matches!(op, Op::Prim2Imm(Prim::Add, 1)),
            ),
            (
                format!("letrec f x = x - 1 in f {MIN}"),
                i64::MIN.wrapping_sub(1),
                |op| matches!(op, Op::Prim2Imm(Prim::Sub, 1)),
            ),
            (
                "letrec f x = x * 3 in f 9223372036854775807".to_owned(),
                i64::MAX.wrapping_mul(3),
                |op| matches!(op, Op::Prim2Imm(Prim::Mul, 3)),
            ),
            (
                "letrec f x y = x + y in f 9223372036854775807 9223372036854775807".to_owned(),
                i64::MAX.wrapping_add(i64::MAX),
                |op| matches!(op, Op::Prim2Local(Prim::Add, _)),
            ),
            (
                format!("letrec f x y = x * y in f {MIN} {MIN}"),
                i64::MIN.wrapping_mul(i64::MIN),
                |op| matches!(op, Op::Prim2Local(Prim::Mul, _)),
            ),
            (
                format!("letrec f x y = x / y in f {MIN} (0 - 1)"),
                i64::MIN.wrapping_div(-1),
                |op| matches!(op, Op::Prim2Local(Prim::Div, _)),
            ),
            (
                format!("letrec f x y = x - (y + 0) in f {MIN} 1"),
                i64::MIN.wrapping_sub(1),
                |op| matches!(op, Op::Prim2(Prim::Sub)),
            ),
        ];
        for (src, want, op) in cases {
            assert!(ops(&lower(&src)).iter().any(op), "{src}: op under test");
            assert_eq!(both_int(&src), want, "{src}");
        }
    }

    /// The value stack's high-water mark over one `run` of `src`.
    fn stack_high_water(src: &str) -> (i64, usize) {
        let ir = lower(src);
        let mut vm = Vm::new(&ir).expect("startup");
        let Value::Int(n) = vm.run().expect("run") else {
            panic!("{src}: expected an int");
        };
        (n, vm.stack_high_water)
    }

    #[test]
    fn tail_calls_keep_the_value_stack_at_a_constant_height() {
        // One loop per tail-call entry path, each compiled to the op it
        // exercises: a global call, a closure, and a partial
        // application that the tail call saturates.
        let loops: [(&str, OpTest); 3] = [
            (
                "letrec loop n acc = if n = 0 then acc else loop (n - 1) (acc + 1) in loop N 0",
                |op| matches!(op, Op::TailCallGlobal(_)),
            ),
            (
                "letrec go n = letrec f x = if x = n then x else f (x + 1) in f 0 in go N",
                |op| matches!(op, Op::TailCall),
            ),
            (
                "letrec app f x = f x;
                        loop n acc = if n = 0 then acc else app (loop (n - 1)) (acc + 1)
                 in loop N 0",
                |op| matches!(op, Op::TailCall),
            ),
        ];
        for (src, op) in loops {
            let short = src.replace('N', "1000");
            let long = src.replace('N', "200000");
            assert!(ops(&lower(&long)).iter().any(op), "{src}: op under test");
            let (a, short_hw) = stack_high_water(&short);
            let (b, long_hw) = stack_high_water(&long);
            assert_eq!((a, b), (1000, 200_000), "{src}");
            assert_eq!(long_hw, short_hw, "{src}: the stack grew with the loop");
            assert!(long_hw < 16, "{src}: high-water mark {long_hw}");
        }
    }

    /// The value and step count of `call(name, [Int(arg)])`.
    fn call_steps(vm: &mut Vm<'_>, name: &str, arg: i64) -> (Result<i64, RuntimeError>, u64) {
        let before = vm.heap.stats.steps;
        let r = vm
            .call(Symbol::intern(name), vec![Value::Int(arg)])
            .map(|v| match v {
                Value::Int(n) => n,
                other => panic!("{name}: {other}"),
            });
        (r, vm.heap.stats.steps - before)
    }

    #[test]
    fn a_vm_recovers_after_an_error_mid_call() {
        let src = "letrec deep n = if n = 0 then 0 else 1 + deep (n - 1);
                          crash n = if n = 0 then 1 / n else 1 + crash (n - 1);
                          work n = deep n + deep (n + 1)
                   in 0";
        let ir = lower(src);
        let config = InterpConfig {
            max_depth: 64,
            ..InterpConfig::default()
        };
        let mut fresh = Vm::with_config(&ir, config.clone()).expect("startup");
        let want = call_steps(&mut fresh, "work", 20);
        assert_eq!(want.0.as_ref().ok(), Some(&41));
        let mut vm = Vm::with_config(&ir, config).expect("startup");
        // A stack overflow many frames deep, then a division by zero
        // inside nested frames: each leaves the machine mid-call.
        let (overflow, _) = call_steps(&mut vm, "deep", 1000);
        assert!(matches!(
            overflow,
            Err(RuntimeError::StackOverflow { limit: 64 })
        ));
        assert_eq!(call_steps(&mut vm, "work", 20), want, "after the overflow");
        let (crash, _) = call_steps(&mut vm, "crash", 30);
        assert!(matches!(crash, Err(RuntimeError::DivisionByZero)));
        assert_eq!(
            call_steps(&mut vm, "work", 20),
            want,
            "after the division by zero"
        );
    }

    #[test]
    fn gc_collects_dead_cells_mid_run() {
        use crate::heap::HeapConfig;
        let src = "letrec churn n = if n = 0 then 0
                       else churn (n - 1) + car (cons n nil)
               in churn 500";
        let ir = lower(src);
        let config = InterpConfig {
            heap: HeapConfig {
                gc_threshold: 64,
                ..HeapConfig::default()
            },
            ..InterpConfig::default()
        };
        let mut vm = Vm::with_config(&ir, config).expect("startup");
        let v = vm.run().expect("run");
        // churn n = churn (n-1) + n, so the result is 1 + 2 + … + 500.
        assert!(matches!(v, Value::Int(125_250)));
        assert!(vm.heap.stats.gc_runs > 0, "GC ran under pressure");
        assert!(vm.heap.live() < 500, "dead churn cells were reclaimed");
    }

    #[test]
    fn call_entry_point_matches_interp() {
        let src = "letrec sum l = if null l then 0 else car l + sum (cdr l) in sum nil";
        let ir = lower(src);
        let mut vm = Vm::new(&ir).expect("startup");
        let l = vm.make_int_list(&[1, 2, 3, 4]);
        let v = vm.call(Symbol::intern("sum"), vec![l]).expect("call");
        assert!(matches!(v, Value::Int(10)));
        let missing = vm.call(Symbol::intern("nope"), vec![]);
        assert!(matches!(missing, Err(RuntimeError::Unbound { .. })));
        let arity = vm.call(Symbol::intern("sum"), vec![Value::Nil, Value::Nil]);
        assert!(matches!(
            arity,
            Err(RuntimeError::TypeMismatch {
                found: "wrong arity",
                ..
            })
        ));
    }

    #[test]
    fn call_takes_the_first_function_binding_of_a_name() {
        // Source cannot bind one top-level name twice; rename lowered
        // bindings so a value binding and two functions share `f`.
        let mut ir = lower("letrec k = 3; f x = x + 1; h x = x * 100 in 0");
        let f = Symbol::intern("f");
        for func in &mut ir.funcs {
            func.name = f;
        }
        let mut vm = Vm::new(&ir).expect("startup");
        let v = vm.call(f, vec![Value::Int(4)]).expect("call");
        assert!(matches!(v, Value::Int(5)), "{v}");
    }
}
