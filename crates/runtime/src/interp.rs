//! The nml abstract machine: an explicit-stack (CEK-style) interpreter
//! over the storage-annotated IR.
//!
//! Keeping control, environment, and continuation in explicit structures
//! gives the garbage collector an exact root set and makes region
//! validation possible: before a region pops, a full mark from the
//! machine state can prove no region cell is still reachable — turning
//! the paper's safety argument into an executable check.

use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::gc::{self, Marker};
use crate::heap::{CellRef, Heap, HeapConfig, RegionId};
use crate::value::{Closure, Env, ExprRef, Obj, PartialApp, PrimApp, Value};
use nml_opt::{AllocMode, Arena, Binds, ExprId, IrExpr, IrFunc, IrProgram, SiteId};
use nml_syntax::{Const, IdMap, Prim, Symbol};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// How often (in machine steps) the engines poll the cooperative
/// [`InterpConfig::cancel`] flag. A power of two so the poll is a mask.
pub(crate) const CANCEL_POLL_MASK: u64 = 1023;

/// Interpreter configuration.
#[derive(Debug, Clone)]
pub struct InterpConfig {
    /// Heap/GC settings.
    pub heap: HeapConfig,
    /// Abort after this many machine steps (runaway-recursion guard).
    pub step_limit: u64,
    /// Before each region pop, prove (by a full mark) that no region cell
    /// is still reachable; error out otherwise. Slow — for tests.
    pub validate_regions: bool,
    /// Fault-injection schedule (inert by default); see
    /// [`crate::fault::FaultPlan`].
    pub fault: FaultPlan,
    /// Per-entry fuel budget: each `run`/`call` may execute at most this
    /// many machine steps before failing with
    /// [`RuntimeError::FuelExhausted`]. Unlike `step_limit` (a
    /// whole-machine guard counted across the interpreter's lifetime),
    /// fuel restarts at every entry, so a persistent server can meter
    /// requests individually. `None` = unlimited.
    pub fuel: Option<u64>,
    /// Depth limit for the call stack: live VM call frames, or live
    /// continuation frames in the tree-walker. Deep *non-tail* recursion
    /// fails with [`RuntimeError::StackOverflow`] instead of growing
    /// memory without bound; tail calls run in constant depth and are
    /// unaffected.
    pub max_depth: usize,
    /// Cooperative cancellation flag, polled every
    /// [`CANCEL_POLL_MASK`]+1 steps. When set, execution stops with
    /// [`RuntimeError::Cancelled`]. Shared (`Arc`) so a server can cancel
    /// an in-flight request from another thread.
    pub cancel: Option<Arc<AtomicBool>>,
}

impl Default for InterpConfig {
    fn default() -> Self {
        InterpConfig {
            heap: HeapConfig::default(),
            step_limit: 200_000_000,
            validate_regions: false,
            fault: FaultPlan::default(),
            fuel: None,
            max_depth: 1_000_000,
            cancel: None,
        }
    }
}

/// Continuation frames.
enum Frame<'p> {
    /// Have the callee expression's value next; then evaluate `arg`.
    App1 {
        arg: ExprRef<'p>,
        env: Env<'p>,
    },
    /// Have the argument's value next; then apply `fun`.
    App2 {
        fun: Value<'p>,
    },
    If {
        arena: &'p Arena,
        then_e: ExprId,
        else_e: ExprId,
        env: Env<'p>,
    },
    Cons1 {
        tail: ExprRef<'p>,
        env: Env<'p>,
        alloc: AllocMode,
        site: SiteId,
    },
    Cons2 {
        head: Value<'p>,
        alloc: AllocMode,
        site: SiteId,
    },
    Dcons1 {
        tail: ExprRef<'p>,
        env: Env<'p>,
        cell: CellRef,
        site: SiteId,
    },
    Dcons2 {
        head: Value<'p>,
        cell: CellRef,
        site: SiteId,
    },
    Prim1 {
        prim: Prim,
    },
    Prim2a {
        prim: Prim,
        rhs: ExprRef<'p>,
        env: Env<'p>,
    },
    Prim2b {
        prim: Prim,
        lhs: Value<'p>,
    },
    /// Sequential evaluation of a `letrec`'s non-lambda bindings:
    /// binding `idx` of `binds` is the one evaluating.
    Letrec {
        arena: &'p Arena,
        binds: Binds,
        idx: usize,
        body: ExprId,
        env: Env<'p>,
    },
    PopRegion {
        id: RegionId,
    },
}

enum Ctrl<'p> {
    Eval(ExprRef<'p>, Env<'p>),
    Ret(Value<'p>),
}

/// The instrumented interpreter for one IR program.
pub struct Interp<'p> {
    program: &'p IrProgram,
    /// The instrumented heap (public for inspection in tests/benches).
    pub heap: Heap<'p>,
    globals: IdMap<Symbol, Value<'p>>,
    config: InterpConfig,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter and evaluates the program's top-level
    /// *value* bindings (non-function `letrec` bindings), in order.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised while evaluating a value binding.
    pub fn new(program: &'p IrProgram) -> Result<Self, RuntimeError> {
        Interp::with_config(program, InterpConfig::default())
    }

    /// Creates an interpreter with explicit configuration.
    ///
    /// # Errors
    ///
    /// See [`Interp::new`].
    pub fn with_config(program: &'p IrProgram, config: InterpConfig) -> Result<Self, RuntimeError> {
        let mut heap = Heap::new(config.heap.clone());
        heap.set_fault_plan(config.fault.clone());
        let mut interp = Interp {
            program,
            heap,
            globals: IdMap::default(),
            config,
        };
        // Prebuild the global map so lookup is a single probe instead of
        // an O(globals) scan per miss. A name resolves to the textually
        // first binding, and only if that binding is a function; value
        // bindings overwrite their entry as startup evaluates them (the
        // map insert below), preserving the original precedence.
        let mut seen: std::collections::HashSet<Symbol> = std::collections::HashSet::new();
        for (index, func) in program.funcs.iter().enumerate() {
            if seen.insert(func.name) && func.is_function() {
                let index = index as u32;
                interp
                    .globals
                    .insert(func.name, Value::Func { func, index });
            }
        }
        for f in &program.funcs {
            if !f.is_function() {
                let v = interp.eval(ExprRef::root(&f.body), Env::empty())?;
                interp.globals.insert(f.name, v);
            }
        }
        Ok(interp)
    }

    /// Runs the program body to a value.
    ///
    /// # Errors
    ///
    /// Any [`RuntimeError`] raised during evaluation.
    pub fn run(&mut self) -> Result<Value<'p>, RuntimeError> {
        self.eval(ExprRef::root(&self.program.body), Env::empty())
    }

    /// Calls top-level function `name` with exactly its arity in `args`.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Unbound`] for unknown names, a
    /// [`RuntimeError::TypeMismatch`] for arity mismatch, and any error
    /// raised by the body.
    pub fn call(&mut self, name: Symbol, args: Vec<Value<'p>>) -> Result<Value<'p>, RuntimeError> {
        let func = self
            .program
            .func(name)
            .filter(|f| f.is_function())
            .ok_or_else(|| RuntimeError::Unbound {
                name: name.to_string(),
            })?;
        if func.params.len() != args.len() {
            return Err(RuntimeError::TypeMismatch {
                expected: "full application",
                found: "wrong arity",
                op: "call",
            });
        }
        let mut env = Env::empty();
        for (p, a) in func.params.iter().zip(args) {
            env = env.bind(*p, a);
        }
        self.eval(ExprRef::root(&func.body), env)
    }

    /// Looks up a variable: lexical environment, then one probe of the
    /// prebuilt global map (which already holds `Func` values for every
    /// reachable top-level function).
    fn lookup(&mut self, name: Symbol, env: &Env<'p>) -> Result<Value<'p>, RuntimeError> {
        if let Some(v) = env.lookup(name, &mut self.heap) {
            return Ok(v);
        }
        if let Some(&v) = self.globals.get(&name) {
            return Ok(v);
        }
        Err(RuntimeError::Unbound {
            name: name.to_string(),
        })
    }

    /// The machine entry: runs the loop, and on *any* error closes the
    /// dynamic extents the aborted computation left open, so the heap is
    /// consistent for the next entry (a persistent server re-enters the
    /// same interpreter after failed requests).
    fn eval(&mut self, expr: ExprRef<'p>, env: Env<'p>) -> Result<Value<'p>, RuntimeError> {
        let mut stack: Vec<Frame<'p>> = Vec::new();
        let r = self.eval_loop(expr, env, &mut stack);
        if r.is_err() {
            // Innermost extents first (reverse frame order is LIFO). No
            // live value can reference these cells: the computation that
            // owned them produced no result.
            for f in stack.iter().rev() {
                if let Frame::PopRegion { id } = f {
                    let _ = self.heap.pop_region(*id);
                }
            }
        }
        r
    }

    /// The machine loop.
    fn eval_loop(
        &mut self,
        expr: ExprRef<'p>,
        env: Env<'p>,
        stack: &mut Vec<Frame<'p>>,
    ) -> Result<Value<'p>, RuntimeError> {
        let mut ctrl = Ctrl::Eval(expr, env);
        // Fuel is metered from this entry, not machine birth, so every
        // `run`/`call` gets the full budget.
        let fuel_limit = self
            .config
            .fuel
            .map(|f| self.heap.stats.steps.saturating_add(f));
        loop {
            if let Some(limit) = fuel_limit {
                if self.heap.stats.steps >= limit {
                    return Err(RuntimeError::FuelExhausted {
                        fuel: self.config.fuel.unwrap_or(0),
                    });
                }
            }
            self.heap.stats.steps += 1;
            if self.heap.stats.steps > self.config.step_limit {
                return Err(RuntimeError::StepLimitExceeded {
                    limit: self.config.step_limit,
                });
            }
            if self.heap.stats.steps & CANCEL_POLL_MASK == 0 {
                if let Some(c) = &self.config.cancel {
                    if c.load(Ordering::Relaxed) {
                        return Err(RuntimeError::Cancelled);
                    }
                }
            }
            if stack.len() > self.config.max_depth {
                return Err(RuntimeError::StackOverflow {
                    limit: self.config.max_depth,
                });
            }
            let forced = self.heap.take_forced_gc();
            if forced || self.heap.should_collect() {
                self.collect(&ctrl, stack, forced);
            }
            ctrl = match ctrl {
                Ctrl::Eval(e, env) => self.step_eval(e, env, stack)?,
                Ctrl::Ret(v) => match stack.pop() {
                    None => return Ok(v),
                    Some(frame) => self.step_ret(v, frame, stack)?,
                },
            };
        }
    }

    /// Replaces the per-entry fuel budget (`None` = unlimited). A server
    /// worker calls this before each request.
    pub fn set_fuel(&mut self, fuel: Option<u64>) {
        self.config.fuel = fuel;
    }

    /// Installs (or clears) the shared cooperative-cancellation flag.
    pub fn set_cancel(&mut self, cancel: Option<Arc<AtomicBool>>) {
        self.config.cancel = cancel;
    }

    fn step_eval(
        &mut self,
        e: ExprRef<'p>,
        env: Env<'p>,
        stack: &mut Vec<Frame<'p>>,
    ) -> Result<Ctrl<'p>, RuntimeError> {
        let arena = e.arena;
        let at = |id| ExprRef { arena, id };
        Ok(match arena[e.id] {
            IrExpr::Const(c) => Ctrl::Ret(match c {
                Const::Int(n) => Value::Int(n),
                Const::Bool(b) => Value::Bool(b),
                Const::Nil => Value::Nil,
                Const::Prim(p) => Value::Prim(p),
            }),
            IrExpr::Var(x) => Ctrl::Ret(self.lookup(x, &env)?),
            IrExpr::App(f, a) => {
                stack.push(Frame::App1 {
                    arg: at(a),
                    env: env.clone(),
                });
                Ctrl::Eval(at(f), env)
            }
            IrExpr::Lambda { param, body, .. } => {
                Ctrl::Ret(Value::Closure(self.heap.alloc_obj(Obj::Closure(Closure {
                    param,
                    body: at(body),
                    env,
                }))))
            }
            IrExpr::If(c, t, f) => {
                stack.push(Frame::If {
                    arena,
                    then_e: t,
                    else_e: f,
                    env: env.clone(),
                });
                Ctrl::Eval(at(c), env)
            }
            IrExpr::Letrec(binds, body) => {
                let bs = arena.binds(binds);
                let env2 = if bs.iter().any(|&(_, b)| is_lambda(arena, b)) {
                    env.bind_rec(arena, binds)
                } else {
                    env
                };
                letrec_next(arena, binds, 0, body, env2, stack)
            }
            IrExpr::Cons {
                alloc,
                head,
                tail,
                site,
            } => {
                stack.push(Frame::Cons1 {
                    tail: at(tail),
                    env: env.clone(),
                    alloc,
                    site,
                });
                Ctrl::Eval(at(head), env)
            }
            IrExpr::Dcons {
                reused,
                head,
                tail,
                site,
            } => {
                let target = self.lookup(reused, &env)?;
                let cell = match target {
                    Value::Pair(c) => c,
                    other => {
                        return Err(RuntimeError::DconsOnNonPair {
                            found: other.kind(),
                        })
                    }
                };
                stack.push(Frame::Dcons1 {
                    tail: at(tail),
                    env: env.clone(),
                    cell,
                    site,
                });
                Ctrl::Eval(at(head), env)
            }
            IrExpr::Prim1(p, a) => {
                stack.push(Frame::Prim1 { prim: p });
                Ctrl::Eval(at(a), env)
            }
            IrExpr::Prim2(p, a, b) => {
                stack.push(Frame::Prim2a {
                    prim: p,
                    rhs: at(b),
                    env: env.clone(),
                });
                Ctrl::Eval(at(a), env)
            }
            IrExpr::Region { kind, inner, .. } => {
                // A denied push means the dynamic extent never opens: the
                // region's allocations fall back to an enclosing region
                // of the same kind or to the GC'd heap. Reclamation is
                // only ever *delayed*, never hastened, so results are
                // unchanged.
                if self.heap.fault_deny_region() {
                    Ctrl::Eval(at(inner), env)
                } else {
                    let id = self.heap.push_region(kind);
                    stack.push(Frame::PopRegion { id });
                    Ctrl::Eval(at(inner), env)
                }
            }
        })
    }

    fn step_ret(
        &mut self,
        v: Value<'p>,
        frame: Frame<'p>,
        stack: &mut Vec<Frame<'p>>,
    ) -> Result<Ctrl<'p>, RuntimeError> {
        Ok(match frame {
            Frame::App1 { arg, env } => {
                stack.push(Frame::App2 { fun: v });
                Ctrl::Eval(arg, env)
            }
            Frame::App2 { fun } => self.apply(fun, v)?,
            Frame::If {
                arena,
                then_e,
                else_e,
                env,
            } => match v {
                Value::Bool(true) => Ctrl::Eval(ExprRef { arena, id: then_e }, env),
                Value::Bool(false) => Ctrl::Eval(ExprRef { arena, id: else_e }, env),
                other => {
                    return Err(RuntimeError::TypeMismatch {
                        expected: "bool",
                        found: other.kind(),
                        op: "if",
                    })
                }
            },
            Frame::Cons1 {
                tail,
                env,
                alloc,
                site,
            } => {
                stack.push(Frame::Cons2 {
                    head: v,
                    alloc,
                    site,
                });
                Ctrl::Eval(tail, env)
            }
            Frame::Cons2 { head, alloc, site } => {
                let cell = self.heap.alloc_at(head, v, alloc, Some(site))?;
                Ctrl::Ret(Value::Pair(cell))
            }
            Frame::Dcons1 {
                tail,
                env,
                cell,
                site,
            } => {
                stack.push(Frame::Dcons2 {
                    head: v,
                    cell,
                    site,
                });
                Ctrl::Eval(tail, env)
            }
            Frame::Dcons2 { head, cell, site } => {
                // Under a fault, the reuse retreats to a fresh heap cell.
                // Sound: `DCONS` is only licensed when the target cell is
                // dead, so writing the fresh cell instead leaves every
                // reachable structure identical (the target just stays
                // garbage until the GC finds it).
                if self.heap.fault_dcons_retreat() {
                    let fresh = self.heap.alloc_at(head, v, AllocMode::Heap, Some(site))?;
                    Ctrl::Ret(Value::Pair(fresh))
                } else if self.config.heap.checked {
                    // Checked mode runs the reuse as copy-then-retire:
                    // the result goes to a fresh cell and the
                    // claimed-dead target is tombstoned, so any later
                    // access to the target disproves the reuse claim
                    // instead of silently reading the overwrite.
                    let fresh = self.heap.alloc_at(head, v, AllocMode::Heap, Some(site))?;
                    self.heap.retire_reused(cell, Some(site))?;
                    self.heap.stats.reuse_copies += 1;
                    self.heap.record_reuse(site);
                    Ctrl::Ret(Value::Pair(fresh))
                } else {
                    self.heap.set(cell, head, v)?;
                    self.heap.stats.dcons_reuses += 1;
                    self.heap.record_reuse(site);
                    Ctrl::Ret(Value::Pair(cell))
                }
            }
            Frame::Prim1 { prim } => Ctrl::Ret(self.prim1(prim, v)?),
            Frame::Prim2a { prim, rhs, env } => {
                stack.push(Frame::Prim2b { prim, lhs: v });
                Ctrl::Eval(rhs, env)
            }
            Frame::Prim2b { prim, lhs } => Ctrl::Ret(self.prim2(prim, lhs, v)?),
            Frame::Letrec {
                arena,
                binds,
                idx,
                body,
                env,
            } => {
                let env2 = env.bind(arena.binds(binds)[idx].0, v);
                letrec_next(arena, binds, idx + 1, body, env2, stack)
            }
            Frame::PopRegion { id } => {
                if self.config.validate_regions {
                    let globals = &self.globals;
                    gc::check_region(&mut self.heap, |m| {
                        m.root_value(&v);
                        mark_roots(m, globals, stack);
                    })?;
                }
                self.heap.pop_region(id)?;
                Ctrl::Ret(v)
            }
        })
    }

    /// Applies `fun` to one argument.
    fn apply(&mut self, fun: Value<'p>, arg: Value<'p>) -> Result<Ctrl<'p>, RuntimeError> {
        match fun {
            Value::Closure(clo) => {
                let clo = self.heap.closure(clo)?;
                let env = clo.env.bind(clo.param, arg);
                Ok(Ctrl::Eval(clo.body, env))
            }
            Value::Func { func, index } => self.apply_func(func, index, Vec::new(), arg),
            Value::PartialFunc(p) => {
                let p = self.heap.partial(p)?;
                let (func, index, applied) = (p.func, p.index, p.applied.clone());
                self.apply_func(func, index, applied, arg)
            }
            Value::Prim(prim) => {
                if prim.arity() == 1 {
                    Ok(Ctrl::Ret(self.prim1(prim, arg)?))
                } else {
                    let app = self
                        .heap
                        .alloc_obj(Obj::PrimApp(PrimApp { prim, first: arg }));
                    Ok(Ctrl::Ret(Value::PrimApp(app)))
                }
            }
            Value::PrimApp(p) => {
                let &PrimApp { prim, first } = self.heap.prim_app(p)?;
                Ok(Ctrl::Ret(self.prim2(prim, first, arg)?))
            }
            other => Err(RuntimeError::TypeMismatch {
                expected: "function",
                found: other.kind(),
                op: "application",
            }),
        }
    }

    /// Applies a top-level function to one more argument, entering the
    /// body when saturated.
    fn apply_func(
        &mut self,
        func: &'p IrFunc,
        index: u32,
        mut args: Vec<Value<'p>>,
        arg: Value<'p>,
    ) -> Result<Ctrl<'p>, RuntimeError> {
        args.push(arg);
        if args.len() == func.params.len() {
            let mut env = Env::empty();
            for (p, a) in func.params.iter().zip(args) {
                env = env.bind(*p, a);
            }
            Ok(Ctrl::Eval(ExprRef::root(&func.body), env))
        } else {
            let app = self.heap.alloc_obj(Obj::Partial(PartialApp {
                func,
                index,
                applied: args,
            }));
            Ok(Ctrl::Ret(Value::PartialFunc(app)))
        }
    }

    fn prim1(&mut self, p: Prim, v: Value<'p>) -> Result<Value<'p>, RuntimeError> {
        prim1(&self.heap, p, v)
    }

    fn prim2(&mut self, p: Prim, a: Value<'p>, b: Value<'p>) -> Result<Value<'p>, RuntimeError> {
        prim2(&mut self.heap, p, a, b)
    }

    /// Runs the collection a GC poll asks for, rooted at the control and
    /// the machine state (see [`gc::collect`]).
    fn collect(&mut self, ctrl: &Ctrl<'p>, stack: &[Frame<'p>], force_major: bool) {
        let globals = &self.globals;
        gc::collect(&mut self.heap, force_major, |m| {
            match ctrl {
                Ctrl::Eval(_, env) => m.root_env(env),
                Ctrl::Ret(v) => m.root_value(v),
            }
            mark_roots(m, globals, stack);
        });
    }

    /// Builds a proper list from `items` (testing/benchmark helper).
    pub fn make_list(&mut self, items: impl IntoIterator<Item = Value<'p>>) -> Value<'p> {
        self.heap.make_list(items)
    }

    /// Builds a list of integers.
    pub fn make_int_list(&mut self, items: &[i64]) -> Value<'p> {
        self.heap.make_list(items.iter().map(|&n| Value::Int(n)))
    }

    /// Builds a tuple value.
    pub fn make_tuple(&mut self, a: Value<'p>, b: Value<'p>) -> Value<'p> {
        let cell = self.heap.alloc(a, b, AllocMode::Heap);
        Value::Tuple(cell)
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

/// Registers the exact root set — globals and the continuation stack
/// — with the marker, by reference (the control value is rooted by the
/// caller). Nothing is cloned here.
fn mark_roots<'p>(m: &mut Marker, globals: &IdMap<Symbol, Value<'p>>, stack: &[Frame<'p>]) {
    for v in globals.values() {
        m.root_value(v);
    }
    for f in stack {
        match f {
            Frame::App1 { env, .. }
            | Frame::If { env, .. }
            | Frame::Cons1 { env, .. }
            | Frame::Prim2a { env, .. }
            | Frame::Letrec { env, .. } => m.root_env(env),
            Frame::App2 { fun } => m.root_value(fun),
            Frame::Cons2 { head, .. } => m.root_value(head),
            // The DCONS target cell is live even when no variable
            // still references it: it becomes the result.
            Frame::Dcons1 { env, cell, .. } => {
                m.root_env(env);
                m.root_cell(*cell);
            }
            Frame::Dcons2 { head, cell, .. } => {
                m.root_value(head);
                m.root_cell(*cell);
            }
            Frame::Prim2b { lhs, .. } => m.root_value(lhs),
            Frame::Prim1 { .. } | Frame::PopRegion { .. } => {}
        }
    }
}

/// Whether node `e` is a `lambda` (a member of its `letrec`'s
/// recursive group rather than a value binding).
pub(crate) fn is_lambda(arena: &Arena, e: ExprId) -> bool {
    matches!(arena[e], IrExpr::Lambda { .. })
}

/// Evaluates the first value (non-lambda) binding of `binds` at or
/// after `from`, under a frame that binds it and moves on; with none
/// left, evaluates the `letrec`'s body.
fn letrec_next<'p>(
    arena: &'p Arena,
    binds: Binds,
    from: usize,
    body: ExprId,
    env: Env<'p>,
    stack: &mut Vec<Frame<'p>>,
) -> Ctrl<'p> {
    let bs = arena.binds(binds);
    let Some(idx) = (from..bs.len()).find(|&i| !is_lambda(arena, bs[i].1)) else {
        return Ctrl::Eval(ExprRef { arena, id: body }, env);
    };
    stack.push(Frame::Letrec {
        arena,
        binds,
        idx,
        body,
        env: env.clone(),
    });
    Ctrl::Eval(
        ExprRef {
            arena,
            id: bs[idx].1,
        },
        env,
    )
}

/// Applies a saturated unary primitive. Shared by the tree-walker and
/// the bytecode VM so the two engines cannot drift.
#[inline]
pub(crate) fn prim1<'p>(heap: &Heap<'p>, p: Prim, v: Value<'p>) -> Result<Value<'p>, RuntimeError> {
    match p {
        Prim::Car => match v {
            Value::Pair(c) => heap.car(c),
            Value::Nil => Err(RuntimeError::EmptyList { op: "car" }),
            other => Err(RuntimeError::TypeMismatch {
                expected: "list",
                found: other.kind(),
                op: "car",
            }),
        },
        Prim::Cdr => match v {
            Value::Pair(c) => heap.cdr(c),
            Value::Nil => Err(RuntimeError::EmptyList { op: "cdr" }),
            other => Err(RuntimeError::TypeMismatch {
                expected: "list",
                found: other.kind(),
                op: "cdr",
            }),
        },
        Prim::Null => match v {
            Value::Nil => Ok(Value::Bool(true)),
            Value::Pair(_) => Ok(Value::Bool(false)),
            other => Err(RuntimeError::TypeMismatch {
                expected: "list",
                found: other.kind(),
                op: "null",
            }),
        },
        Prim::Fst => match v {
            Value::Tuple(c) => heap.car(c),
            other => Err(RuntimeError::TypeMismatch {
                expected: "tuple",
                found: other.kind(),
                op: "fst",
            }),
        },
        Prim::Snd => match v {
            Value::Tuple(c) => heap.cdr(c),
            other => Err(RuntimeError::TypeMismatch {
                expected: "tuple",
                found: other.kind(),
                op: "snd",
            }),
        },
        other => Err(RuntimeError::TypeMismatch {
            expected: "unary primitive",
            found: "binary primitive",
            op: other.name(),
        }),
    }
}

/// The integer arm of [`prim2`]: arithmetic and comparison on two ints.
/// `None` leaves the call to [`prim2`]: allocation, type errors and
/// division by zero. The VM calls this first on its integer ops, so
/// the hot path inlines while the arithmetic keeps one definition.
#[inline(always)]
pub(crate) fn int_prim2<'p>(p: Prim, a: &Value<'p>, b: &Value<'p>) -> Option<Value<'p>> {
    let (&Value::Int(x), &Value::Int(y)) = (a, b) else {
        return None;
    };
    Some(match p {
        Prim::Add => Value::Int(x.wrapping_add(y)),
        Prim::Sub => Value::Int(x.wrapping_sub(y)),
        Prim::Mul => Value::Int(x.wrapping_mul(y)),
        Prim::Div if y != 0 => Value::Int(x.wrapping_div(y)),
        Prim::Eq => Value::Bool(x == y),
        Prim::Ne => Value::Bool(x != y),
        Prim::Lt => Value::Bool(x < y),
        Prim::Le => Value::Bool(x <= y),
        Prim::Gt => Value::Bool(x > y),
        Prim::Ge => Value::Bool(x >= y),
        _ => return None,
    })
}

/// Applies a saturated binary primitive (shared by both engines).
#[inline]
pub(crate) fn prim2<'p>(
    heap: &mut Heap<'p>,
    p: Prim,
    a: Value<'p>,
    b: Value<'p>,
) -> Result<Value<'p>, RuntimeError> {
    if let Some(v) = int_prim2(p, &a, &b) {
        return Ok(v);
    }
    if p == Prim::Cons {
        let cell = heap.alloc_at(a, b, AllocMode::Heap, None)?;
        return Ok(Value::Pair(cell));
    }
    if p == Prim::MkPair {
        let cell = heap.alloc_at(a, b, AllocMode::Heap, None)?;
        return Ok(Value::Tuple(cell));
    }
    if !matches!((&a, &b), (Value::Int(_), Value::Int(_))) {
        return Err(RuntimeError::TypeMismatch {
            expected: "int",
            found: if matches!(a, Value::Int(_)) {
                b.kind()
            } else {
                a.kind()
            },
            op: p.name(),
        });
    }
    match p {
        // Two ints that `int_prim2` declined: the divisor is zero.
        Prim::Div => Err(RuntimeError::DivisionByZero),
        _ => unreachable!("prim2 applied to the unary primitive {}", p.name()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{lower, tree_int};

    fn run_src(src: &str) -> (Vec<i64>, crate::stats::RuntimeStats) {
        let ir = lower(src);
        let mut interp = Interp::new(&ir).expect("init");
        let v = interp.run().expect("run");
        let ints = interp.read_int_list(v).expect("int list result");
        (ints, interp.heap.stats)
    }

    #[test]
    fn arithmetic() {
        assert_eq!(tree_int("1 + 2 * 3"), 7);
        assert_eq!(tree_int("(10 - 4) / 2"), 3);
        assert_eq!(tree_int("if 2 < 3 then 1 else 0"), 1);
    }

    #[test]
    fn list_construction_and_car() {
        assert_eq!(tree_int("car [42, 1]"), 42);
        assert_eq!(tree_int("car (cdr [1, 2, 3])"), 2);
    }

    #[test]
    fn append_computes_correctly() {
        let (v, stats) = run_src(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y)
             in append [1, 2] [3, 4]",
        );
        assert_eq!(v, vec![1, 2, 3, 4]);
        // 4 literal cells + 2 result spine cells.
        assert_eq!(stats.heap_allocs, 6);
    }

    #[test]
    fn partition_sort_sorts() {
        let (v, _) = run_src(
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
        assert_eq!(v, vec![1, 2, 3, 4, 5, 7]);
    }

    #[test]
    fn higher_order_map() {
        let (v, _) = run_src(
            "letrec map f l = if (null l) then nil
                              else cons (f (car l)) (map f (cdr l))
             in map (lambda(x). x * x) [1, 2, 3]",
        );
        assert_eq!(v, vec![1, 4, 9]);
    }

    #[test]
    fn closures_capture_environment() {
        assert_eq!(
            tree_int("letrec make x = lambda(y). x + y in (make 10) 5"),
            15
        );
    }

    #[test]
    fn inner_letrec_recursion() {
        assert_eq!(
            tree_int(
                "letrec go n = letrec fact k = if k = 0 then 1 else k * fact (k - 1)
                               in fact n
                 in go 5"
            ),
            120
        );
    }

    #[test]
    fn inner_letrec_value_bindings() {
        assert_eq!(
            tree_int("letrec f x = letrec a = x + 1; b = a * 2 in b in f 3"),
            8
        );
    }

    #[test]
    fn partial_application_of_top_level() {
        assert_eq!(
            tree_int("letrec add x y = x + y; apply f = f 10 in apply (add 5)"),
            15
        );
    }

    #[test]
    fn primitive_as_value() {
        // map (cons 9) over [[1],[2]] = [[9,1],[9,2]].
        assert_eq!(
            tree_int(
                "letrec map f l = if (null l) then nil
                                  else cons (f (car l)) (map f (cdr l))
                 in car (car (map (cons 9) [[1], [2]]))"
            ),
            9
        );
    }

    #[test]
    fn division_by_zero_errors() {
        let ir = lower("1 / 0");
        let mut i = Interp::new(&ir).unwrap();
        assert_eq!(i.run().unwrap_err(), RuntimeError::DivisionByZero);
    }

    #[test]
    fn car_of_nil_errors() {
        let ir = lower("car nil");
        let mut i = Interp::new(&ir).unwrap();
        assert!(matches!(
            i.run().unwrap_err(),
            RuntimeError::EmptyList { .. }
        ));
    }

    #[test]
    fn step_limit_catches_divergence() {
        let ir = lower("letrec loop x = loop x in loop 1");
        let mut i = Interp::with_config(
            &ir,
            InterpConfig {
                step_limit: 10_000,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(matches!(
            i.run().unwrap_err(),
            RuntimeError::StepLimitExceeded { .. }
        ));
    }

    #[test]
    fn gc_reclaims_garbage() {
        // Build and drop many short-lived lists; with a small threshold
        // the GC must run and the footprint stay bounded.
        let src = "letrec len l = if (null l) then 0 else 1 + len (cdr l);
                          go n acc = if n = 0 then acc
                                     else go (n - 1) (acc + len [1, 2, 3, 4, 5])
                   in go 200 0";
        let ir = lower(src);
        let mut i = Interp::with_config(
            &ir,
            InterpConfig {
                heap: HeapConfig {
                    gc_threshold: 64,
                    gc_enabled: true,
                    checked: false,
                    ..HeapConfig::default()
                },
                ..Default::default()
            },
        )
        .unwrap();
        let v = i.run().unwrap();
        assert!(matches!(v, Value::Int(1000)));
        assert!(i.heap.stats.gc_runs > 0, "GC must have run");
        assert!(
            i.heap.stats.gc_swept > 0,
            "garbage must have been reclaimed"
        );
        assert!(
            i.heap.footprint() < 1100,
            "footprint bounded by reuse, got {}",
            i.heap.footprint()
        );
    }

    #[test]
    fn call_api_invokes_functions() {
        let src = "letrec double x = x * 2 in double 1";
        let ir = lower(src);
        let mut i = Interp::new(&ir).unwrap();
        let r = i
            .call(Symbol::intern("double"), vec![Value::Int(21)])
            .unwrap();
        assert!(matches!(r, Value::Int(42)));
    }

    #[test]
    fn make_and_read_lists() {
        let src = "0";
        let ir = lower(src);
        let mut i = Interp::new(&ir).unwrap();
        let l = i.make_int_list(&[1, 2, 3]);
        assert_eq!(i.read_int_list(l).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn allocation_sites_are_profiled() {
        let src = "letrec rep n = if n = 0 then nil else cons n (rep (n - 1))
                   in cons 0 (rep 9)";
        let ir = lower(src);
        let mut i = Interp::new(&ir).unwrap();
        i.run().unwrap();
        let hot = i.heap.hot_sites();
        assert_eq!(hot.len(), 2, "two cons sites: {hot:?}");
        // The site inside `rep` allocated 9 cells; the body site 1.
        assert_eq!(hot[0].1, 9);
        assert_eq!(hot[1].1, 1);
        assert_eq!(
            ir.site_owner(hot[0].0).map(|s| s.to_string()),
            Some("rep".to_owned())
        );
        assert_eq!(ir.site_owner(hot[1].0), None, "body site has no owner");
    }

    #[test]
    fn tuples_construct_and_project() {
        assert_eq!(tree_int("fst (41 + 1, 0)"), 42);
        assert_eq!(tree_int("snd (0, 7) * 6"), 42);
        // Tuples of lists round-trip through projections.
        let (v, stats) = run_src("letrec swap p = (snd p, fst p) in fst (swap ([9], [1, 2]))");
        assert_eq!(v, vec![1, 2]);
        // Tuple cells are counted as allocations.
        assert!(stats.heap_allocs >= 2);
    }

    #[test]
    fn fst_of_list_is_a_runtime_type_error() {
        // (Untyped IR path: the type checker rejects this, but the
        // interpreter must fail cleanly, not crash.)
        let ir = lower("0");
        let mut i = Interp::new(&ir).unwrap();
        let l = i.make_int_list(&[1]);
        let err = i.prim1(Prim::Fst, l).unwrap_err();
        assert!(matches!(err, RuntimeError::TypeMismatch { op: "fst", .. }));
    }

    #[test]
    fn top_level_value_bindings_evaluate_once() {
        assert_eq!(tree_int("letrec k = 2 + 3; f x = x * k in f 4"), 20);
    }

    #[test]
    fn root_count_is_exact_for_machine_state() {
        // Two value globals + one function global = 3 global roots; the
        // control value, an App2 function, and a Dcons2 frame (value +
        // cell) add 4 more. The root set is exact — no duplicates, no
        // misses — so the count is fully predictable.
        let src = "letrec k = 1; j = 2; f x = x in 0";
        let ir = lower(src);
        let mut i = Interp::new(&ir).unwrap();
        let stack = vec![
            Frame::App2 { fun: Value::Int(1) },
            Frame::Prim1 { prim: Prim::Car },
            Frame::Dcons2 {
                head: Value::Int(2),
                cell: CellRef(0),
                site: SiteId(0),
            },
        ];
        let mut m = Marker::new(&mut i.heap);
        let ctrl_value = Value::Int(0);
        m.root_value(&ctrl_value);
        mark_roots(&mut m, &i.globals, &stack);
        assert_eq!(m.roots_seen(), 3 + 1 + 1 + 2);
    }
}

#[cfg(test)]
mod letrec_edge_tests {
    use super::*;
    use crate::test_util::lower;

    fn try_run(src: &str) -> Result<String, RuntimeError> {
        let ir = lower(src);
        let mut i = Interp::new(&ir)?;
        i.run().map(|v| v.to_string())
    }

    #[test]
    fn cyclic_value_binding_is_a_clean_unbound_error() {
        // `letrec x = x + 1` cannot be evaluated strictly: the reference
        // to x is an error, not a hang or a panic.
        let err = try_run("letrec f n = letrec x = x + 1 in x in f 0").unwrap_err();
        assert!(matches!(err, RuntimeError::Unbound { .. }), "{err:?}");
    }

    #[test]
    fn forward_reference_between_value_bindings_errors() {
        // y is evaluated before z exists (strict, sequential).
        let err = try_run("letrec f n = letrec y = z + 1; z = 2 in y in f 0").unwrap_err();
        assert!(matches!(err, RuntimeError::Unbound { .. }), "{err:?}");
    }

    #[test]
    fn backward_reference_between_value_bindings_works() {
        let out = try_run("letrec f n = letrec z = 2; y = z + 1 in y in f 0").unwrap();
        assert_eq!(out, "3");
    }

    #[test]
    fn value_bindings_may_call_lambda_siblings() {
        // Lambda siblings are in scope (via the recursive group) even for
        // value bindings that precede them textually.
        let out = try_run("letrec f n = letrec v = g 20; g x = x * 2 in v + g 1 in f 0").unwrap();
        assert_eq!(out, "42");
    }
}
