//! The abstract escape interpreter and its fixpoint engine (paper §3.4,
//! §3.5).
//!
//! The engine evaluates nml expressions in the abstract domain
//! [`AbsVal`]. Conditionals take both branches and join; `letrec` bindings
//! live in *slots* that grow monotonically toward the fixpoint; closure
//! applications are memoized per `(lambda, environment, argument)` and
//! re-evaluated pass by pass until no cached result and no slot changes —
//! the naive Kleene iteration whose per-function trace is exactly the
//! `append⁽⁰⁾, append⁽¹⁾, append⁽²⁾` sequence of the paper's appendix.
//!
//! Termination (paper §3.5) rests on the finiteness of the abstract
//! domain. Our symbolic function representation can in principle nest
//! closure environments without bound on adversarial higher-order
//! programs, so the engine applies a *widening* safeguard: any value whose
//! structural depth exceeds a threshold is replaced by the worst-case
//! function `W` with the same basic part, which is always an
//! over-approximation (Definition 2 is the top of the behaviour order used
//! by the escape tests).

use crate::absval::{AbsEnv, AbsVal, EnvEntry, FunVal, RecKey};
use crate::be::Be;
use crate::budget::{Budget, Governor, Resource};
use crate::error::EscapeError;
use nml_syntax::ast::{Const, Expr, ExprKind, Prim, Program};
use nml_syntax::visit::free_vars;
use nml_syntax::{IdMap, NodeId, Symbol};
use nml_types::{Ty, TypeInfo};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Tuning knobs for the fixpoint engine.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum number of outer fixpoint passes before giving up.
    pub max_passes: u32,
    /// Structural depth beyond which values are widened to `W`.
    pub widen_depth: u32,
    /// `remaining` arity given to widened worst-case functions. Any value
    /// at least the maximal curried arity in the program is sound; larger
    /// is also sound (extra applications keep joining).
    pub widen_arity: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            max_passes: 10_000,
            widen_depth: 24,
            widen_arity: 64,
        }
    }
}

/// Counters describing one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Outer fixpoint passes executed.
    pub passes: u32,
    /// Number of distinct memoized applications.
    pub memo_entries: usize,
    /// Per top-level binding: how many times a memoized application result
    /// belonging to it changed. `changes + 1` is the Kleene iteration
    /// count of the appendix (`+1` for the final confirming pass).
    pub updates_per_binding: BTreeMap<Symbol, u32>,
    /// How many values were widened.
    pub widenings: u32,
}

#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct MemoKey {
    lambda: NodeId,
    env: AbsEnv,
    arg: AbsVal,
}

#[derive(Debug, Clone)]
struct MemoEntry {
    value: AbsVal,
    epoch: u32,
    in_progress: bool,
}

/// Lambda tables shared by every engine over one program: node id to
/// (parameter, body), cached free-variable sets, and owning top-level
/// binding. Building this once per analysis — instead of once per
/// SCC-scoped engine — is what keeps modular scheduling O(program)
/// instead of O(program · sccs).
pub struct ProgramIndex<'a> {
    /// lambda node -> (parameter, body pointer).
    lambdas: IdMap<NodeId, (Symbol, &'a Expr)>,
    /// lambda node -> cached free identifiers.
    lambda_free: IdMap<NodeId, BTreeSet<Symbol>>,
    /// lambda node -> top-level binding it belongs to (for stats).
    lambda_owner: IdMap<NodeId, Symbol>,
    /// binding name -> position in `program.bindings` (always complete,
    /// even for subset indexes — it is cheap and lets scoped engines
    /// refresh only their members).
    binding_pos: HashMap<Symbol, usize>,
}

impl<'a> ProgramIndex<'a> {
    /// Indexes every binding and the program body.
    pub fn build(program: &'a Program) -> Self {
        Self::build_subset(program, None)
    }

    /// Indexes only the bindings whose position is in `members` (plus the
    /// program body when `members` is `None`). The incremental scheduler
    /// uses this to index a dirty cone instead of the whole program.
    pub fn build_subset(program: &'a Program, members: Option<&[usize]>) -> Self {
        let mut idx = ProgramIndex {
            lambdas: IdMap::default(),
            lambda_free: IdMap::default(),
            lambda_owner: IdMap::default(),
            binding_pos: program
                .bindings
                .iter()
                .enumerate()
                .map(|(i, b)| (b.name, i))
                .collect(),
        };
        match members {
            Some(members) => {
                for &i in members {
                    if let Some(b) = program.bindings.get(i) {
                        idx.index_expr(&b.expr, Some(b.name));
                    }
                }
            }
            None => {
                for b in &program.bindings {
                    idx.index_expr(&b.expr, Some(b.name));
                }
                idx.index_expr(&program.body, None);
            }
        }
        idx
    }

    /// Indexes every lambda of `e` and returns `e`'s free identifiers.
    /// One bottom-up pass: a node's free set is built from its
    /// children's, so each lambda's set costs a set difference, not a
    /// walk of its whole body.
    fn index_expr(&mut self, e: &'a Expr, owner: Option<Symbol>) -> BTreeSet<Symbol> {
        match &e.kind {
            ExprKind::Const(_) => BTreeSet::new(),
            ExprKind::Var(x) => BTreeSet::from([*x]),
            ExprKind::App(f, a) => {
                let f = self.index_expr(f, owner);
                union(f, self.index_expr(a, owner))
            }
            ExprKind::Lambda(param, body) => {
                let mut free = self.index_expr(body, owner);
                free.remove(param);
                self.lambdas.insert(e.id, (*param, body.as_ref()));
                self.lambda_free.insert(e.id, free.clone());
                if let Some(o) = owner {
                    self.lambda_owner.insert(e.id, o);
                }
                free
            }
            ExprKind::If(c, t, f) => {
                let c = self.index_expr(c, owner);
                let t = union(c, self.index_expr(t, owner));
                union(t, self.index_expr(f, owner))
            }
            ExprKind::Letrec(bs, body) => {
                let mut free = self.index_expr(body, owner);
                for b in bs {
                    free = union(free, self.index_expr(&b.expr, owner));
                }
                for b in bs {
                    free.remove(&b.name);
                }
                free
            }
            ExprKind::Annot(inner, _) => self.index_expr(inner, owner),
        }
    }
}

/// `a ∪ b`, moving the smaller set into the larger.
fn union(mut a: BTreeSet<Symbol>, mut b: BTreeSet<Symbol>) -> BTreeSet<Symbol> {
    if a.len() < b.len() {
        std::mem::swap(&mut a, &mut b);
    }
    a.extend(b);
    a
}

/// `letrec` slot values by key.
pub type Slots = IdMap<RecKey, AbsVal>;

/// Converged slot values shared across engines: consulted lazily on a
/// local miss instead of being cloned wholesale into every engine.
pub type SharedSlots = Arc<std::sync::RwLock<Slots>>;

/// The abstract escape interpreter over one (monomorphically typed)
/// program.
pub struct Engine<'a> {
    program: &'a Program,
    info: &'a TypeInfo,
    config: EngineConfig,
    /// Shared lambda tables (possibly shared with sibling engines).
    index: Arc<ProgramIndex<'a>>,
    /// `letrec` binding slots, grown monotonically.
    rec_slots: Slots,
    /// Fallback slot values consulted (and materialized locally) when a
    /// key misses `rec_slots` — the converged exports of already-solved
    /// SCCs. Reading through instead of eagerly seeding keeps per-SCC
    /// setup proportional to what the SCC actually touches.
    base_slots: Option<SharedSlots>,
    /// The top-level environment, built once per engine (or injected and
    /// shared across sibling engines — it only depends on the program).
    top_env_cache: std::cell::OnceCell<AbsEnv>,
    /// When set, only these top-level bindings are refreshed each pass;
    /// the rest are treated as already-converged (their slots come from
    /// [`Engine::seed_slots`]). This is what makes the engine *modular*:
    /// an SCC's engine scopes to the SCC's members and pins every callee.
    scope: Option<BTreeSet<Symbol>>,
    memo: IdMap<MemoKey, MemoEntry>,
    dirty: bool,
    pass: u32,
    /// Meters cumulative resource usage across every query on this engine.
    governor: Governor,
    /// First internal inconsistency observed during evaluation; surfaced
    /// as a typed error by [`Engine::run`] instead of a panic.
    pending_error: Option<EscapeError>,
    /// Statistics for the current/most recent run.
    pub stats: EngineStats,
}

impl<'a> Engine<'a> {
    /// Creates an engine over `program` with type information `info`
    /// (which must come from inference over this exact program).
    pub fn new(program: &'a Program, info: &'a TypeInfo) -> Self {
        Engine::with_config(program, info, EngineConfig::default())
    }

    /// Creates an engine with explicit configuration, building a private
    /// [`ProgramIndex`].
    pub fn with_config(program: &'a Program, info: &'a TypeInfo, config: EngineConfig) -> Self {
        Engine::with_index(
            program,
            info,
            config,
            Arc::new(ProgramIndex::build(program)),
        )
    }

    /// Creates an engine over pre-built (shared) lambda tables. The index
    /// must cover every lambda this engine will apply; lambdas outside it
    /// degrade soundly to the worst-case function.
    pub fn with_index(
        program: &'a Program,
        info: &'a TypeInfo,
        config: EngineConfig,
        index: Arc<ProgramIndex<'a>>,
    ) -> Self {
        Engine {
            program,
            info,
            config,
            index,
            rec_slots: Slots::default(),
            base_slots: None,
            top_env_cache: std::cell::OnceCell::new(),
            scope: None,
            memo: IdMap::default(),
            dirty: false,
            pass: 0,
            governor: Governor::default(),
            pending_error: None,
            stats: EngineStats::default(),
        }
    }

    /// Starts metering this engine against `budget` (from now).
    pub fn set_budget(&mut self, budget: Budget) {
        self.governor = Governor::new(budget);
    }

    /// The governor metering this engine.
    pub fn governor(&self) -> &Governor {
        &self.governor
    }

    /// Replaces the governor, keeping its accumulated usage. Used by the
    /// driver to carry one budget across engine rebuilds (e.g. after a
    /// quarantined panic).
    pub fn set_governor(&mut self, governor: Governor) {
        self.governor = governor;
    }

    /// Restricts the per-pass refresh to the given top-level bindings
    /// (`None` restores whole-program refresh). Bindings outside the scope
    /// keep whatever slot values were seeded — the modular scheduler seeds
    /// them with the *converged* values of already-solved callee SCCs, so
    /// pinning them is exact, not an approximation.
    pub fn set_scope(&mut self, scope: Option<BTreeSet<Symbol>>) {
        self.scope = scope;
    }

    /// Installs a shared fallback slot map. Keys missing from this
    /// engine's local slots are read (and cached) from here; the values
    /// must be *converged* exports of already-finalized components, so
    /// reading through is exact.
    pub fn set_base_slots(&mut self, base: Option<SharedSlots>) {
        self.base_slots = base;
    }

    /// Local slot value for `k`, falling back to (and materializing from)
    /// the shared base map, then `⊥`.
    fn slot_value(&mut self, k: &RecKey) -> AbsVal {
        if let Some(v) = self.rec_slots.get(k) {
            return v.clone();
        }
        if let Some(base) = &self.base_slots {
            let hit = base
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(k)
                .cloned();
            if let Some(v) = hit {
                self.rec_slots.insert(k.clone(), v.clone());
                return v;
            }
        }
        AbsVal::bottom()
    }

    /// Pulls `k`'s base value into the local slots (without reading it),
    /// so a following join starts from the converged value instead of `⊥`.
    fn materialize_base(&mut self, k: &RecKey) {
        if self.base_slots.is_some() && !self.rec_slots.contains_key(k) {
            let _ = self.slot_value(k);
        }
    }

    /// A snapshot of every `letrec` slot (top-level *and* inner). The full
    /// map matters: a converged top-level value can embed references to
    /// inner-`letrec` slots inside captured closure environments, and a
    /// dependent engine resolving such a reference against an empty slot
    /// would silently read `⊥` — an under-approximation. Exporting the
    /// whole map keeps every reachable reference meaningful.
    pub fn export_slots(&self) -> Slots {
        self.rec_slots.clone()
    }

    /// Joins previously exported slot values into this engine. Used by the
    /// modular scheduler to seed an SCC's engine with the finalized values
    /// of every callee SCC before its local fixpoint starts.
    pub fn seed_slots(&mut self, slots: &Slots) {
        for (k, v) in slots {
            let entry = self.rec_slots.entry(k.clone()).or_default();
            let joined = entry.join(v);
            if joined != *entry {
                *entry = joined;
            }
        }
    }

    /// The program under analysis.
    pub fn program(&self) -> &'a Program {
        self.program
    }

    /// The type information in use.
    pub fn info(&self) -> &'a TypeInfo {
        self.info
    }

    /// The environment of the program's top-level `letrec`: every binding
    /// is a stable slot reference.
    pub fn top_env(&self) -> AbsEnv {
        self.top_env_cache
            .get_or_init(|| build_top_env(self.program))
            .clone()
    }

    /// Injects a pre-built top-level environment (see [`build_top_env`]);
    /// the modular scheduler shares one across every SCC engine instead
    /// of rebuilding an `O(bindings)` map per engine per pass.
    pub fn set_top_env(&mut self, env: AbsEnv) {
        let _ = self.top_env_cache.set(env);
    }

    /// Runs `query` to a fixpoint: repeatedly refreshes the top-level
    /// bindings and re-executes the query until neither the memo tables
    /// nor the query result change.
    ///
    /// # Errors
    ///
    /// - [`EscapeError::FixpointDiverged`] if `max_passes` is exceeded
    ///   (indicating a widening threshold too high for the program);
    /// - [`EscapeError::BudgetExhausted`] if the engine's [`Budget`] ran
    ///   out (callers may soundly fall back to the worst-case summary);
    /// - [`EscapeError::MissingSpineAnnotation`] /
    ///   [`EscapeError::UnknownLambda`] if evaluation met an inconsistent
    ///   AST (the returned value side stays sound; the error reports it).
    pub fn run<T: Eq + Clone>(
        &mut self,
        mut query: impl FnMut(&mut Self) -> T,
    ) -> Result<T, EscapeError> {
        let mut last: Option<T> = None;
        loop {
            if let Some(r) = self.governor.charge_pass() {
                return Err(self.budget_error(r));
            }
            self.pass += 1;
            if self.pass > self.config.max_passes {
                return Err(EscapeError::FixpointDiverged {
                    passes: self.pass - 1,
                });
            }
            self.stats.passes = self.pass;
            self.dirty = false;
            self.refresh_top_bindings();
            let r = query(self);
            self.stats.memo_entries = self.memo.len();
            if let Some(e) = self.pending_error.take() {
                return Err(e);
            }
            if let Some(res) = self.governor.exhausted() {
                return Err(self.budget_error(res));
            }
            if !self.dirty && last.as_ref() == Some(&r) {
                return Ok(r);
            }
            last = Some(r);
        }
    }

    fn budget_error(&self, r: Resource) -> EscapeError {
        EscapeError::BudgetExhausted {
            resource: r,
            used: self.governor.used_of(r),
            limit: self.governor.limit_of(r),
        }
    }

    /// Records the first internal inconsistency; evaluation continues with
    /// a sound over-approximation and [`Engine::run`] reports the error.
    fn note_error(&mut self, e: EscapeError) {
        if self.pending_error.is_none() {
            self.pending_error = Some(e);
        }
    }

    /// Like [`Engine::run`], but also returns the query's value at every
    /// pass — the Kleene iteration trace the paper's appendix writes as
    /// `append⁽⁰⁾, append⁽¹⁾, append⁽²⁾`. The final element equals the
    /// converged result (the confirming pass).
    ///
    /// # Errors
    ///
    /// See [`Engine::run`].
    pub fn run_traced<T: Eq + Clone>(
        &mut self,
        mut query: impl FnMut(&mut Self) -> T,
    ) -> Result<(T, Vec<T>), EscapeError> {
        let mut trace = Vec::new();
        let result = self.run(|en| {
            let v = query(en);
            trace.push(v.clone());
            v
        })?;
        Ok((result, trace))
    }

    /// Re-evaluates every top-level binding into its slot (only the
    /// scoped members when a scope is set — in program order, exactly as
    /// the unscoped sweep would visit them).
    fn refresh_top_bindings(&mut self) {
        let program = self.program;
        let env = self.top_env();
        let empty: AbsEnv = Arc::new(BTreeMap::new());
        let positions: Vec<usize> = match &self.scope {
            Some(scope) => {
                let mut ids: Vec<usize> = scope
                    .iter()
                    .filter_map(|n| self.index.binding_pos.get(n).copied())
                    .collect();
                ids.sort_unstable();
                ids
            }
            None => (0..program.bindings.len()).collect(),
        };
        for i in positions {
            let b = &program.bindings[i];
            let key = RecKey {
                letrec: program.body.id,
                name: b.name,
                outer: empty.clone(),
            };
            let v = self.eval(&b.expr, &env);
            self.update_slot(key, v);
        }
    }

    /// Current abstract value of a top-level binding. Call inside
    /// [`Engine::run`] for a converged answer.
    pub fn top_value(&mut self, name: Symbol) -> AbsVal {
        let env = self.top_env();
        match env.get(&name) {
            Some(EnvEntry::Rec(k)) => {
                let k = k.clone();
                self.slot_value(&k)
            }
            _ => AbsVal::bottom(),
        }
    }

    fn update_slot(&mut self, key: RecKey, v: AbsVal) {
        let v = self.maybe_widen(v);
        // Join must start from the converged base value (if any), not ⊥:
        // a locally-absent key may still have a finalized value from an
        // earlier component, and losing it would under-approximate.
        self.materialize_base(&key);
        let entry = self.rec_slots.entry(key).or_default();
        let joined = entry.join(&v);
        if joined != *entry {
            *entry = joined;
            self.dirty = true;
        }
    }

    fn maybe_widen(&mut self, v: AbsVal) -> AbsVal {
        let depth = v.depth();
        self.governor.charge_nodes(u64::from(depth));
        // Once the budget is gone, collapse aggressively: every structured
        // value becomes `W` (sound — Definition 2 tops the behaviour
        // order), which keeps the in-flight pass cheap while `run`
        // surfaces the exhaustion as a typed error.
        let threshold = if self.governor.exhausted().is_some() {
            1
        } else {
            self.config.widen_depth
        };
        if depth > threshold {
            self.stats.widenings += 1;
            v.widen(self.config.widen_arity)
        } else {
            v
        }
    }

    /// Abstract evaluation `E⟦e⟧env` (paper §3.4).
    ///
    /// `e` should consist of nodes of the engine's program (same node
    /// ids): lambda bodies are resolved through tables built at
    /// construction. Unknown `lambda` or `car` nodes do not panic — they
    /// evaluate to sound over-approximations (worst-case function,
    /// identity `car`) and [`Engine::run`] reports a typed error.
    pub fn eval(&mut self, e: &Expr, env: &AbsEnv) -> AbsVal {
        match &e.kind {
            ExprKind::Const(c) => self.const_val(e.id, *c),
            ExprKind::Var(x) => match env.get(x) {
                Some(EnvEntry::Val(v)) => v.clone(),
                Some(EnvEntry::Rec(k)) => {
                    let k = k.clone();
                    self.slot_value(&k)
                }
                // nullenv_e maps unknowns to the least element.
                None => AbsVal::bottom(),
            },
            ExprKind::App(f, a) => {
                let fv = self.eval(f, env);
                let av = self.eval(a, env);
                self.apply(&fv, &av)
            }
            ExprKind::Lambda(_, _) => self.make_closure(e, env),
            // Both branches may be taken at compile time; the condition's
            // value cannot reach the result (it is a bool), so it is not
            // evaluated.
            ExprKind::If(_c, t, f) => {
                let tv = self.eval(t, env);
                let fv = self.eval(f, env);
                tv.join(&fv)
            }
            ExprKind::Letrec(bs, body) => {
                let mut inner = (**env).clone();
                let keys: Vec<RecKey> = bs
                    .iter()
                    .map(|b| RecKey {
                        letrec: e.id,
                        name: b.name,
                        outer: env.clone(),
                    })
                    .collect();
                for (b, k) in bs.iter().zip(&keys) {
                    inner.insert(b.name, EnvEntry::Rec(k.clone()));
                }
                let inner: AbsEnv = Arc::new(inner);
                for (b, k) in bs.iter().zip(&keys) {
                    let v = self.eval(&b.expr, &inner);
                    self.update_slot(k.clone(), v);
                }
                self.eval(body, &inner)
            }
            ExprKind::Annot(innr, _) => self.eval(innr, env),
        }
    }

    /// `E⟦lambda(x).e⟧env = ⟨V, λy.E⟦e⟧env[x ↦ y]⟩` with
    /// `V = ⟨0,0⟩ ⊔ ⊔_{z ∈ F} (env⟦z⟧)₍₁₎` over all free identifiers `F`.
    fn make_closure(&mut self, lam: &Expr, env: &AbsEnv) -> AbsVal {
        // Lambdas outside the indexed program (foreign ASTs spliced in by
        // scaffolding) have no cached free-variable set; computing it on
        // the fly keeps the capture analysis exact. Their *application*
        // still degrades to worst-case in `apply_closure`, because the
        // body pointer cannot be stored.
        let index = Arc::clone(&self.index);
        let computed;
        let free = match index.lambda_free.get(&lam.id) {
            Some(f) => f,
            None => {
                computed = free_vars(lam);
                &computed
            }
        };
        let mut captured = BTreeMap::new();
        let mut v = Be::bottom();
        for z in free {
            if let Some(entry) = env.get(z) {
                let be = match entry {
                    EnvEntry::Val(val) => val.be,
                    EnvEntry::Rec(k) => {
                        let k = k.clone();
                        self.slot_value(&k).be
                    }
                };
                v = v.join(be);
                captured.insert(*z, entry.clone());
            }
        }
        self.maybe_widen(AbsVal {
            be: v,
            fun: FunVal::Closure {
                lambda: lam.id,
                env: Arc::new(captured),
            },
        })
    }

    /// The abstract constant semantics `C⟦c⟧` (paper §3.4).
    fn const_val(&mut self, node: NodeId, c: Const) -> AbsVal {
        match c {
            Const::Int(_) | Const::Bool(_) | Const::Nil => AbsVal::bottom(),
            Const::Prim(p) => {
                let fun = match p {
                    Prim::Cons => FunVal::Cons0,
                    Prim::Car => FunVal::Car {
                        s: self.car_spine_of(node),
                    },
                    Prim::Cdr => FunVal::Cdr,
                    Prim::Null => FunVal::Null,
                    // The tuple extension (paper §1): the abstract domain
                    // collapses D^{τ1×τ2} to the join of the components,
                    // exactly as D^{τ list} collapses to D^τ. `pair` then
                    // behaves like `cons` (capture, then join), and the
                    // projections are the identity (sound: the pair's
                    // value dominates each component).
                    Prim::MkPair => FunVal::Cons0,
                    Prim::Fst | Prim::Snd => FunVal::Cdr,
                    Prim::Add
                    | Prim::Sub
                    | Prim::Mul
                    | Prim::Div
                    | Prim::Eq
                    | Prim::Ne
                    | Prim::Lt
                    | Prim::Le
                    | Prim::Gt
                    | Prim::Ge => FunVal::Arith0,
                };
                AbsVal {
                    be: Be::bottom(),
                    fun,
                }
            }
        }
    }

    fn car_spine_of(&mut self, node: NodeId) -> u32 {
        if let Some(&s) = self.info.car_spines.get(&node) {
            return s;
        }
        // Synthetic car nodes (from escape-test scaffolding) fall back to
        // the node's type if present.
        if let Some(Ty::Fun(dom, _)) = self.info.node_ty.get(&node).map(|t| &**t) {
            return dom.spines();
        }
        // No annotation at all: treat the car as `sub^0`. `sub^s` is
        // reductive for every `s` (a.sub(s) ⊑ a), so passing the argument
        // through unreduced over-approximates any true spine count — the
        // result stays sound while the typed error reports the broken AST.
        self.note_error(EscapeError::MissingSpineAnnotation { node });
        0
    }

    /// Abstract application: dispatches on the function component.
    pub fn apply(&mut self, f: &AbsVal, arg: &AbsVal) -> AbsVal {
        let result = match &f.fun {
            // err can never be applied in a well-typed program; ⊥ is the
            // robust answer for ill-typed scaffolding.
            FunVal::Err => AbsVal::bottom(),
            FunVal::Worst { remaining, acc } => {
                let acc2 = acc.join(arg.be);
                if *remaining <= 1 {
                    AbsVal::base(acc2)
                } else {
                    AbsVal {
                        be: acc2,
                        fun: FunVal::Worst {
                            remaining: remaining - 1,
                            acc: acc2,
                        },
                    }
                }
            }
            // C⟦cons⟧ = ⟨⟨0,0⟩, λx.⟨x₍₁₎, λy. x ⊔ y⟩⟩
            FunVal::Cons0 => AbsVal {
                be: arg.be,
                fun: FunVal::Cons1(Arc::new(arg.clone())),
            },
            FunVal::Cons1(x) => x.join(arg),
            // C⟦car^s⟧ = ⟨⟨0,0⟩, λx. sub^s(x)⟩
            FunVal::Car { s } => arg.sub(*s),
            // Abstract cdr is the identity: D^{τ list} = D^τ.
            FunVal::Cdr => arg.clone(),
            FunVal::Null => AbsVal::bottom(),
            // C⟦+⟧ = ⟨⟨0,0⟩, λx.⟨x₍₁₎, λy.⟨⟨0,0⟩, err⟩⟩⟩
            FunVal::Arith0 => AbsVal {
                be: arg.be,
                fun: FunVal::Arith1,
            },
            FunVal::Arith1 => AbsVal::bottom(),
            FunVal::Closure { lambda, env } => {
                let (lambda, env) = (*lambda, env.clone());
                self.apply_closure(lambda, env, arg.clone())
            }
            FunVal::Join(parts) => {
                let parts = parts.clone();
                let mut acc = AbsVal::bottom();
                for p in parts.iter() {
                    let pf = AbsVal {
                        be: f.be,
                        fun: p.clone(),
                    };
                    let r = self.apply(&pf, arg);
                    acc = acc.join(&r);
                }
                acc
            }
        };
        self.maybe_widen(result)
    }

    fn apply_closure(&mut self, lambda: NodeId, env: AbsEnv, arg: AbsVal) -> AbsVal {
        let Some(&(param, body)) = self.index.lambdas.get(&lambda) else {
            // A closure over a lambda the engine never indexed: its body
            // is unknown, so answer with the worst-case function — it
            // dominates every possible behaviour (Definition 2) — and
            // report the inconsistency as a typed error.
            self.note_error(EscapeError::UnknownLambda { node: lambda });
            return AbsVal {
                be: arg.be,
                fun: FunVal::Worst {
                    remaining: self.config.widen_arity,
                    acc: arg.be,
                },
            };
        };
        let key = MemoKey {
            lambda,
            env: env.clone(),
            arg: arg.clone(),
        };
        if let Some(entry) = self.memo.get_mut(&key) {
            if entry.in_progress || entry.epoch == self.pass {
                return entry.value.clone();
            }
            entry.in_progress = true;
            entry.epoch = self.pass;
        } else {
            self.memo.insert(
                key.clone(),
                MemoEntry {
                    value: AbsVal::bottom(),
                    epoch: self.pass,
                    in_progress: true,
                },
            );
        }

        let mut inner = (*env).clone();
        inner.insert(param, EnvEntry::Val(arg));
        let result = self.eval(body, &Arc::new(inner));
        let result = self.maybe_widen(result);

        let owner = self.index.lambda_owner.get(&lambda).copied();
        // The entry was inserted above and eval never removes entries, but
        // re-inserting on a (impossible) miss is cheaper than a panic path.
        let pass = self.pass;
        let entry = self.memo.entry(key).or_insert_with(|| MemoEntry {
            value: AbsVal::bottom(),
            epoch: pass,
            in_progress: false,
        });
        let joined = entry.value.join(&result);
        if joined != entry.value {
            entry.value = joined;
            self.dirty = true;
            if let Some(owner) = owner {
                *self.stats.updates_per_binding.entry(owner).or_default() += 1;
            }
        }
        entry.in_progress = false;
        entry.value.clone()
    }

    /// Applies `f` to `args` left to right.
    pub fn apply_n(&mut self, f: &AbsVal, args: &[AbsVal]) -> AbsVal {
        let mut cur = f.clone();
        for a in args {
            cur = self.apply(&cur, a);
        }
        cur
    }
}

/// The top-level environment of `program`: every binding as a stable
/// slot reference. Engines build this lazily themselves; the modular
/// scheduler builds it once and injects it into every SCC engine via
/// [`Engine::set_top_env`].
pub fn build_top_env(program: &Program) -> AbsEnv {
    let empty: AbsEnv = Arc::new(BTreeMap::new());
    let mut map = BTreeMap::new();
    for b in &program.bindings {
        map.insert(
            b.name,
            EnvEntry::Rec(RecKey {
                letrec: program.body.id,
                name: b.name,
                outer: empty.clone(),
            }),
        );
    }
    Arc::new(map)
}

/// Builds the worst-case abstract value for a parameter of type `ty` with
/// basic part `be`: `⟨be, W^τ⟩` (paper Definition 2). `W^τ` is `err` when
/// the type accepts no arguments.
pub fn worst_value(ty: &Ty, be: Be) -> AbsVal {
    let arity = ty.worst_case_arity() as u32;
    let fun = if arity == 0 {
        FunVal::Err
    } else {
        FunVal::Worst {
            remaining: arity,
            acc: Be::bottom(),
        }
    };
    AbsVal { be, fun }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn with_engine<T: Eq + Clone>(src: &str, f: impl FnMut(&mut Engine<'_>) -> T) -> T {
        let program = parse_program(src).expect("parse");
        let info = infer_program(&program).expect("infer");
        let mut engine = Engine::new(&program, &info);
        engine.run(f).expect("fixpoint")
    }

    /// Evaluates the program body to its abstract value.
    fn eval_body(src: &str) -> AbsVal {
        let program = parse_program(src).expect("parse");
        let info = infer_program(&program).expect("infer");
        let mut engine = Engine::new(&program, &info);
        engine
            .run(|en| {
                let env = en.top_env();
                en.eval(&en.program().body, &env)
            })
            .expect("fixpoint")
    }

    #[test]
    fn constants_are_bottom() {
        assert_eq!(eval_body("42"), AbsVal::bottom());
        assert_eq!(eval_body("true"), AbsVal::bottom());
        assert_eq!(eval_body("nil"), AbsVal::bottom());
        assert_eq!(eval_body("[1, 2, 3]"), AbsVal::bottom());
    }

    #[test]
    fn arithmetic_result_contains_nothing() {
        assert_eq!(eval_body("1 + 2 * 3"), AbsVal::bottom());
    }

    #[test]
    fn identity_returns_its_argument_value() {
        // Apply id to an interesting base value.
        let v = with_engine("letrec id x = x in id 0", |en| {
            let id = en.top_value(Symbol::intern("id"));
            en.apply(&id, &AbsVal::base(Be::escaping(0)))
        });
        assert_eq!(v.be, Be::escaping(0));
    }

    #[test]
    fn constant_function_drops_its_argument() {
        let v = with_engine("letrec k x = 7 in k 0", |en| {
            let k = en.top_value(Symbol::intern("k"));
            en.apply(&k, &AbsVal::base(Be::escaping(0)))
        });
        assert_eq!(v, AbsVal::bottom());
    }

    #[test]
    fn cons_joins_element_and_tail() {
        // cons captures the head; the full application joins head & tail.
        let v = with_engine("letrec f x y = cons x y in 0", |en| {
            let f = en.top_value(Symbol::intern("f"));
            let head = AbsVal::base(Be::escaping(0));
            let tail = AbsVal::base(Be::escaping(1));
            en.apply_n(&f, &[head, tail])
        });
        assert_eq!(v.be, Be::escaping(1));
    }

    #[test]
    fn car_strips_one_spine_at_matching_depth() {
        // first l = car l with l : int list (car^1)
        let v = with_engine("letrec first l = car l in first [1]", |en| {
            let f = en.top_value(Symbol::intern("first"));
            en.apply(&f, &AbsVal::base(Be::escaping(1)))
        });
        assert_eq!(v.be, Be::escaping(0));
    }

    #[test]
    fn cdr_preserves_escape_value() {
        let v = with_engine("letrec rest l = cdr l in rest [1]", |en| {
            let f = en.top_value(Symbol::intern("rest"));
            en.apply(&f, &AbsVal::base(Be::escaping(1)))
        });
        assert_eq!(v.be, Be::escaping(1));
    }

    #[test]
    fn both_if_branches_join() {
        let v = with_engine("letrec pick b x y = if b then x else y in 0", |en| {
            let f = en.top_value(Symbol::intern("pick"));
            en.apply_n(
                &f,
                &[
                    AbsVal::bottom(),
                    AbsVal::base(Be::escaping(0)),
                    AbsVal::bottom(),
                ],
            )
        });
        assert_eq!(v.be, Be::escaping(0));
    }

    #[test]
    fn recursive_append_converges() {
        // The paper's APPEND: append x y returns y ⊔ sub¹(x).
        let src = "letrec append x y = if (null x) then y
                                       else cons (car x) (append (cdr x) y)
                   in append [1] [2]";
        let (vx, vy) = with_engine(src, |en| {
            let f = en.top_value(Symbol::intern("append"));
            let x_interesting = en.apply_n(&f, &[AbsVal::base(Be::escaping(1)), AbsVal::bottom()]);
            let y_interesting = en.apply_n(&f, &[AbsVal::bottom(), AbsVal::base(Be::escaping(1))]);
            (x_interesting.be, y_interesting.be)
        });
        // All but the top spine of x escapes: sub¹⟨1,1⟩ = ⟨1,0⟩.
        assert_eq!(vx, Be::escaping(0));
        // All of y escapes.
        assert_eq!(vy, Be::escaping(1));
    }

    #[test]
    fn worst_value_construction() {
        // int -> int -> int: W of arity 2.
        let t = Ty::fun_n([Ty::Int, Ty::Int], Ty::Int);
        let w = worst_value(&t, Be::bottom());
        assert!(matches!(w.fun, FunVal::Worst { remaining: 2, .. }));
        // int list: W^{τ list} = W^τ = err for m = 0.
        let l = Ty::list(Ty::Int);
        assert_eq!(worst_value(&l, Be::escaping(1)).fun, FunVal::Err);
    }

    #[test]
    fn worst_function_escapes_all_arguments() {
        let t = Ty::fun_n([Ty::Int, Ty::Int], Ty::Int);
        let program = parse_program("0").unwrap();
        let info = infer_program(&program).unwrap();
        let mut en = Engine::new(&program, &info);
        let w = worst_value(&t, Be::bottom());
        let r = en.apply_n(&w, &[AbsVal::base(Be::escaping(0)), AbsVal::bottom()]);
        assert_eq!(r.be, Be::escaping(0));
        assert_eq!(r.fun, FunVal::Err);
    }

    #[test]
    fn higher_order_map_propagates_through_unknown_function() {
        // map f l where f is worst-case: elements of l escape through f.
        let src = "letrec map f l = if (null l) then nil
                                    else cons (f (car l)) (map f (cdr l))
                   in 0";
        let be = with_engine(src, |en| {
            let m = en.top_value(Symbol::intern("map"));
            let f_worst = worst_value(&Ty::fun(Ty::Int, Ty::Int), Be::bottom());
            let l = AbsVal::base(Be::escaping(1));
            en.apply_n(&m, &[f_worst, l]).be
        });
        // Elements (⟨1,0⟩ after car^1) escape through f into the result,
        // but the spine does not: ⟨1,0⟩.
        assert_eq!(be, Be::escaping(0));
    }

    #[test]
    fn map_with_identity_function_does_not_leak_spine() {
        let src = "letrec map f l = if (null l) then nil
                                    else cons (f (car l)) (map f (cdr l));
                          id x = x
                   in 0";
        let be = with_engine(src, |en| {
            let m = en.top_value(Symbol::intern("map"));
            let id = en.top_value(Symbol::intern("id"));
            let l = AbsVal::base(Be::escaping(1));
            en.apply_n(&m, &[id, l]).be
        });
        assert_eq!(be, Be::escaping(0));
    }

    #[test]
    fn closure_capture_contributes_to_v() {
        // The closure returned by (make x) contains x, so its be is x's.
        let src = "letrec make x = lambda(y). x in 0";
        let v = with_engine(src, |en| {
            let f = en.top_value(Symbol::intern("make"));
            en.apply(&f, &AbsVal::base(Be::escaping(0)))
        });
        assert_eq!(
            v.be,
            Be::escaping(0),
            "captured interesting value shows in V"
        );
    }

    #[test]
    fn inner_letrec_evaluates() {
        let src = "letrec f x = letrec g y = cons y nil in g x in 0";
        let v = with_engine(src, |en| {
            let f = en.top_value(Symbol::intern("f"));
            en.apply(&f, &AbsVal::base(Be::escaping(0)))
        });
        assert_eq!(v.be, Be::escaping(0));
    }

    #[test]
    fn stats_track_iterations() {
        let src = "letrec append x y = if (null x) then y
                                       else cons (car x) (append (cdr x) y)
                   in append [1] [2]";
        let program = parse_program(src).unwrap();
        let info = infer_program(&program).unwrap();
        let mut en = Engine::new(&program, &info);
        en.run(|en| {
            let f = en.top_value(Symbol::intern("append"));
            en.apply_n(&f, &[AbsVal::base(Be::escaping(1)), AbsVal::bottom()])
        })
        .unwrap();
        assert!(en.stats.passes >= 2, "needs at least a confirming pass");
        let updates = en.stats.updates_per_binding[&Symbol::intern("append")];
        assert!(updates >= 1, "append's cache must have grown at least once");
    }

    #[test]
    fn tuple_extension_escape_semantics() {
        // The §1 tuple extension: a pair joins its components; fst/snd
        // are sound identities.
        let src = "letrec
          wrap x y = (x, y);
          first p = fst p;
          through l = fst (l, 0)
        in 0";
        let (wrap_be, first_be, through_be) = with_engine(src, |en| {
            let wrap = en.top_value(Symbol::intern("wrap"));
            let w = en.apply_n(&wrap, &[AbsVal::base(Be::escaping(1)), AbsVal::bottom()]);
            let first = en.top_value(Symbol::intern("first"));
            let f = en.apply(&first, &AbsVal::base(Be::escaping(1)));
            let through = en.top_value(Symbol::intern("through"));
            let t = en.apply(&through, &AbsVal::base(Be::escaping(1)));
            (w.be, f.be, t.be)
        });
        // The pair contains the escaping list.
        assert_eq!(wrap_be, Be::escaping(1));
        // fst of an (abstract) pair value passes the contents through.
        assert_eq!(first_be, Be::escaping(1));
        // Putting l in a pair and projecting: l escapes through the pair.
        assert_eq!(through_be, Be::escaping(1));
    }

    #[test]
    fn split_returning_a_tuple_matches_list_encoding() {
        // The appendix's SPLIT returns (cons l (cons h nil)); with tuples
        // it returns (l, h). The escape verdicts must agree: p does not
        // escape, x loses its top spine, l and h escape fully.
        let src = "letrec
          split2 p x l h =
            if (null x) then (l, h)
            else if (car x) < p
                 then split2 p (cdr x) (cons (car x) l) h
                 else split2 p (cdr x) l (cons (car x) h)
        in split2 3 [1, 2] nil nil";
        let program = parse_program(src).unwrap();
        let info = infer_program(&program).unwrap();
        let mut en = Engine::new(&program, &info);
        let name = Symbol::intern("split2");
        let summary = crate::global::global_escape(&mut en, name).expect("global test");
        assert_eq!(summary.param(0).verdict, Be::bottom(), "p");
        assert_eq!(summary.param(1).verdict, Be::escaping(0), "x");
        assert_eq!(summary.param(2).verdict, Be::escaping(1), "l");
        assert_eq!(summary.param(3).verdict, Be::escaping(1), "h");
    }

    #[test]
    fn run_traced_records_per_pass_values_ending_converged() {
        let src = "letrec append x y = if (null x) then y
                                       else cons (car x) (append (cdr x) y)
                   in append [1] [2]";
        let program = parse_program(src).unwrap();
        let info = infer_program(&program).unwrap();
        let mut en = Engine::new(&program, &info);
        let (result, trace) = en
            .run_traced(|en| {
                let f = en.top_value(Symbol::intern("append"));
                en.apply_n(&f, &[AbsVal::base(Be::escaping(1)), AbsVal::bottom()])
                    .be
            })
            .unwrap();
        assert!(!trace.is_empty());
        assert_eq!(*trace.last().unwrap(), result);
        // Monotone across passes.
        for w in trace.windows(2) {
            assert!(w[0].le(w[1]), "trace not monotone: {trace:?}");
        }
    }

    #[test]
    fn deep_widening_terminates_adversarial_nesting() {
        // Build ever-deeper closures: selfapp-style chains would otherwise
        // nest environments. The engine must terminate (by widening).
        let src = "letrec twice f x = f (f x);
                          wrap x = lambda(y). x
                   in 0";
        let program = parse_program(src).unwrap();
        let info = infer_program(&program).unwrap();
        let mut en = Engine::with_config(
            &program,
            &info,
            EngineConfig {
                max_passes: 1000,
                widen_depth: 3,
                widen_arity: 8,
            },
        );
        let r = en.run(|en| {
            let twice = en.top_value(Symbol::intern("twice"));
            let wrap = en.top_value(Symbol::intern("wrap"));
            en.apply_n(&twice, &[wrap, AbsVal::base(Be::escaping(0))])
        });
        assert!(r.is_ok());
    }
}
