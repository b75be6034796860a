//! The SCC-modular summary scheduler.
//!
//! Instead of one whole-program Kleene iteration, the program's top-level
//! bindings are condensed into a call-graph SCC DAG
//! ([`nml_syntax::callgraph`]) and solved one component at a time, in
//! callees-first topological order. Each SCC gets its own [`Engine`]
//! scoped to the component's members and *seeded* with the converged slot
//! values of every callee SCC, so its fixpoint is small and local. Solving
//! in dependency order against finalized callee values computes exactly
//! the same least fixpoint as the global iteration (the slot/memo
//! equations form a deterministic monotone system; pinning an equation at
//! its own least solution changes nothing), which the equivalence test
//! suite checks program-by-program.
//!
//! The modular structure buys three things the monolithic engine could
//! not offer:
//!
//! - **fault isolation**: the [`Budget`] is apportioned per SCC, so one
//!   adversarial component degrades to `W^τ` alone instead of starving
//!   the whole pass — dependents keep their computed summaries and are
//!   merely flagged transitively degraded;
//! - **parallelism**: the SCCs are grouped into interval batches that
//!   worker threads (`jobs > 1`) take from work-stealing deques as soon
//!   as the batches they depend on are solved, with a deterministic
//!   ascending-id merge;
//! - **incrementality**: a persistent [`SummaryCache`] keyed by each
//!   SCC's content hash (source + signatures + transitive dependency
//!   hashes) lets repeated runs skip unchanged components entirely.

use crate::absval::{AbsEnv, AbsVal, RecKey};
use crate::analysis::{merge_stats, panic_message, Analysis, Degradation, DegradeReason};
use crate::be::Be;
use crate::budget::{Budget, Governor};
use crate::cache::{cached_fn_of, CachedScc, ContentHash, SummaryCache};
use crate::engine::{
    build_top_env, worst_value, Engine, EngineConfig, EngineStats, ProgramIndex, SharedSlots, Slots,
};
use crate::error::AnalyzeError;
use crate::global::{global_escape, worst_case_summary, EscapeSummary};
use nml_syntax::callgraph::{CallGraph, SccDag};
use nml_syntax::visit::walk_exprs;
use nml_syntax::{Binding, Const, Expr, ExprKind, Program, Symbol, TyExpr};
use nml_types::{Ty, TypeInfo};
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::Instant;

/// How the modular scheduler should run.
#[derive(Debug, Clone, Default)]
pub struct ScheduleOptions {
    /// Worker threads. `0` and `1` both mean serial; the merge
    /// order (and therefore every result) is identical for any value.
    pub jobs: usize,
    /// Path of the persistent summary cache, if any.
    pub summary_cache: Option<PathBuf>,
}

/// What the scheduler did, for diagnostics and tests.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScheduleReport {
    /// Number of SCCs in the condensed call graph.
    pub scc_count: usize,
    /// SCCs actually solved this run (cache misses plus the dependencies
    /// their slots required). A fully warm cache makes this `0`.
    pub sccs_solved: usize,
    /// SCCs whose summaries were served from the cache.
    pub cache_hits: usize,
    /// SCCs the cache did not cover (always `0` without a cache path).
    pub cache_misses: usize,
    /// Worker threads used (`1` = serial).
    pub jobs: usize,
    /// Cache load/save problems, in the order they occurred (the
    /// analysis itself always completes; cache trouble only costs
    /// reuse). A salvaging load and a failed save each contribute one
    /// entry, so neither can shadow the other.
    pub cache_errors: Vec<String>,
    /// Ready-queue batches the SCCs were grouped into (small neighboring
    /// components share a batch so they don't serialize on scheduling).
    pub batch_count: usize,
    /// Batches a worker took from another worker's deque (`0` when
    /// serial).
    pub steals: usize,
    /// SCCs served from retained in-process state by the incremental
    /// re-solver (always `0` for a cold scheduled run).
    pub sccs_reused: usize,
}

/// Everything one solved SCC hands back to the merge step.
pub(crate) struct SccOutcome {
    pub(crate) id: usize,
    pub(crate) slots: Slots,
    pub(crate) summaries: Vec<EscapeSummary>,
    pub(crate) degradations: Vec<Degradation>,
    pub(crate) stats: EngineStats,
    /// `Some(origin)` when the exported slots are *not* exact (the slot
    /// fixpoint failed or the engine unwound): dependents consuming them
    /// must be flagged transitively degraded.
    pub(crate) taint: Option<Symbol>,
}

/// Analyzes an already-typed program with the SCC-modular scheduler.
///
/// This is the modular counterpart of
/// [`analyze_program_whole_program`](crate::analysis::analyze_program_whole_program):
/// identical summaries (the equivalence suite checks this), but with
/// per-SCC budget apportionment, optional batch parallelism, and an
/// optional persistent summary cache.
///
/// # Errors
///
/// None in practice; the `Result` is kept for signature stability with
/// the syntax/type phases.
pub fn analyze_program_scheduled(
    program: Program,
    info: TypeInfo,
    config: EngineConfig,
    budget: Budget,
    options: &ScheduleOptions,
) -> Result<Analysis, AnalyzeError> {
    let graph = CallGraph::build(&program);
    let dag = graph.condense();
    let n = dag.len();
    let members: Vec<Vec<Symbol>> = (0..n).map(|id| dag.member_names(&graph, id)).collect();

    let mut report = ScheduleReport {
        scc_count: n,
        jobs: options.jobs.max(1),
        ..ScheduleReport::default()
    };

    // Cache lookup: compute content hashes and reconstruct summaries for
    // every SCC the cache covers.
    let (mut cache, hashes, cached_summaries) = match &options.summary_cache {
        Some(path) => {
            let (cache, err) = SummaryCache::load(path);
            report.cache_errors.extend(err);
            let hashes = scc_hashes(&program, &info, &config, &dag);
            let cached: Vec<Option<Vec<EscapeSummary>>> = (0..n)
                .map(|id| cache_lookup(&cache, hashes[id], &members[id], &info))
                .collect();
            (Some(cache), hashes, cached)
        }
        None => (None, Vec::new(), vec![None; n]),
    };
    let hit: Vec<bool> = cached_summaries.iter().map(Option::is_some).collect();
    if cache.is_some() {
        report.cache_hits = hit.iter().filter(|h| **h).count();
        report.cache_misses = n - report.cache_hits;
    }

    // The solve set: every miss, plus (transitively) everything a miss
    // needs slot values from. Pure hits outside this set are skipped
    // entirely — that is what makes a warm run re-analyze nothing.
    let mut need: Vec<bool> = hit.iter().map(|h| !h).collect();
    for id in (0..n).rev() {
        if need[id] {
            for &d in &dag.sccs[id].deps {
                need[d] = true;
            }
        }
    }
    report.sccs_solved = need.iter().filter(|n| **n).count();

    // One governor per solved SCC, all sharing the analysis start instant
    // so the wall-clock deadline stays analysis-relative, each metering an
    // equal share of the budget. Degradation is thereby confined: an SCC
    // that burns its share trips only its own governor.
    let started = Instant::now();
    let share = budget.apportion(report.sccs_solved.max(1));
    let governors: Vec<Option<Governor>> = (0..n)
        .map(|id| need[id].then(|| Governor::with_start(share, started)))
        .collect();

    // One lambda index for every engine this run creates, and one shared
    // slot map that engines read through lazily — per-SCC setup is then
    // proportional to the component, not the program. A fully warm run
    // solves nothing and builds none of it.
    let mut solved: BTreeMap<usize, SccOutcome> = BTreeMap::new();
    if report.sccs_solved > 0 {
        let index = Arc::new(ProgramIndex::build(&program));
        let shared: SharedSlots = Arc::new(RwLock::new(Slots::default()));
        let top_env = build_top_env(&program);

        let batches = plan_batches(&program, &dag, options.jobs.max(1));
        report.batch_count = batches.len();
        let runner = BatchRunner {
            program: &program,
            info: &info,
            config: &config,
            index: &index,
            top_env: &top_env,
            shared: &shared,
            governors: &governors,
            members: &members,
            need: &need,
            hit: &hit,
        };
        let (outcomes, steals) = runner.run(&batches, options.jobs.max(1));
        report.steals = steals;
        for o in outcomes {
            solved.insert(o.id, o);
        }
    }

    let mut summaries = BTreeMap::new();
    let mut degradations: Vec<Degradation> = Vec::new();
    let mut stats = EngineStats::default();
    let mut taint: Vec<Option<Symbol>> = vec![None; n];
    let mut precise: Vec<bool> = vec![false; n];

    // Deterministic merge: ascending SCC id, whatever the worker
    // interleaving was. Dependencies have strictly smaller ids, so their
    // taint state is final when a component is visited.
    for id in 0..n {
        let inherited = dag.sccs[id].deps.iter().find_map(|&d| taint[d]);
        if !need[id] {
            // Pure cache hit, never touched this run: its cached
            // summaries were computed from exact inputs in an earlier
            // run, so it is precise regardless of this run's faults.
            for s in cached_summaries[id].clone().unwrap_or_default() {
                summaries.insert(s.name, s);
            }
            precise[id] = true;
            continue;
        }
        let Some(o) = solved.remove(&id) else {
            continue;
        };
        merge_stats(&mut stats, &o.stats);
        taint[id] = o.taint.or(inherited);
        if let Some(cached) = &cached_summaries[id] {
            // Solved only for its slot values; the summaries come from
            // the cache and are exact, so no degradation records even
            // if this run's slot solve was cut short (the taint flag
            // still protects dependents).
            for s in cached.clone() {
                summaries.insert(s.name, s);
            }
            precise[id] = true;
            continue;
        }
        precise[id] = o.taint.is_none() && inherited.is_none() && o.degradations.is_empty();
        let own: BTreeSet<Symbol> = o.degradations.iter().map(|d| d.function).collect();
        for s in &o.summaries {
            summaries.insert(s.name, s.clone());
        }
        degradations.extend(o.degradations);
        if o.taint.is_none() {
            if let Some(origin) = inherited {
                // The summaries above were computed against a degraded
                // callee's worst-case slots: sound, kept as computed,
                // but flagged so `is_degraded` tells the truth.
                for s in &o.summaries {
                    if !own.contains(&s.name) {
                        degradations.push(Degradation {
                            function: s.name,
                            reason: DegradeReason::Transitive { origin },
                        });
                    }
                }
            }
        }
    }

    // Persist: store every precisely solved miss alongside what was
    // already cached. A fully warm run inserts nothing and must not
    // rewrite the file: the serialize+rename costs more than the whole
    // analysis on warm paths, and made warm runs *slower* than cold.
    if let (Some(cache), Some(path)) = (cache.as_mut(), options.summary_cache.as_ref()) {
        let mut dirty = false;
        for id in 0..n {
            if need[id] && !hit[id] && precise[id] {
                let fns = members[id]
                    .iter()
                    .filter_map(|m| summaries.get(m).map(cached_fn_of))
                    .collect();
                cache.insert(hashes[id], CachedScc { fns });
                dirty = true;
            }
        }
        if dirty {
            if let Err(e) = cache.save(path) {
                report.cache_errors.push(e);
            }
        }
    }

    Ok(Analysis {
        program,
        info,
        summaries,
        stats,
        degradations,
        schedule: report,
    })
}

/// One scheduling batch: a *consecutive* interval of SCC ids. Tarjan
/// numbers every dependency below its dependent, so interval batches
/// always condense to an acyclic quotient graph — a batch may depend
/// only on strictly earlier batches, never on a later one.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    /// SCC ids in ascending order (a contiguous range).
    pub ids: std::ops::Range<usize>,
    /// Indices of earlier batches this batch reads slot values from.
    pub deps: Vec<usize>,
}

/// Estimated solve cost of one binding: its AST node count.
fn binding_cost(b: &Binding) -> usize {
    let mut nodes = 0usize;
    walk_exprs(&b.expr, &mut |_| nodes += 1);
    nodes
}

/// Groups the condensation into interval batches of roughly even cost so
/// that tiny SCCs — the overwhelmingly common case — don't pay one
/// scheduling round-trip each. Aims for ~16 batches per worker.
pub(crate) fn plan_batches(program: &Program, dag: &SccDag, jobs: usize) -> Vec<Batch> {
    let n = dag.len();
    if n == 0 {
        return Vec::new();
    }
    let costs: Vec<usize> = (0..n)
        .map(|id| {
            dag.sccs[id]
                .members
                .iter()
                .map(|&m| binding_cost(&program.bindings[m]) + 8)
                .sum()
        })
        .collect();
    let total: usize = costs.iter().sum();
    let cap = (total / (jobs.max(1) * 16).max(1)).max(32);

    let mut batches: Vec<Batch> = Vec::new();
    let mut batch_of = vec![0usize; n];
    let mut start = 0usize;
    let mut acc = 0usize;
    for (id, &cost) in costs.iter().enumerate() {
        if acc > 0 && acc + cost > cap {
            batch_of[start..id].fill(batches.len());
            batches.push(Batch {
                ids: start..id,
                deps: Vec::new(),
            });
            start = id;
            acc = 0;
        }
        acc += cost;
    }
    batch_of[start..n].fill(batches.len());
    batches.push(Batch {
        ids: start..n,
        deps: Vec::new(),
    });

    for (bi, batch) in batches.iter_mut().enumerate() {
        let mut deps: Vec<usize> = batch
            .ids
            .clone()
            .flat_map(|id| dag.sccs[id].deps.iter().map(|&d| batch_of[d]))
            .filter(|&d| d != bi)
            .collect();
        deps.sort_unstable();
        deps.dedup();
        batch.deps = deps;
    }
    batches
}

/// Joins one engine's exported slots into the shared map. Values are
/// converged (or worst-case, under taint) and the lattice join is
/// commutative and idempotent, so merge order cannot change the result.
pub(crate) fn merge_into_shared(shared: &SharedSlots, slots: Slots) {
    let mut w = shared.write().unwrap_or_else(|e| e.into_inner());
    for (k, v) in slots {
        match w.entry(k) {
            Entry::Occupied(mut o) => {
                let joined = o.get().join(&v);
                if joined != *o.get() {
                    *o.get_mut() = joined;
                }
            }
            Entry::Vacant(vac) => {
                vac.insert(v);
            }
        }
    }
}

/// Everything the batch workers need, borrowed from the driver.
pub(crate) struct BatchRunner<'s, 'a> {
    pub program: &'a Program,
    pub info: &'a TypeInfo,
    pub config: &'s EngineConfig,
    pub index: &'s Arc<ProgramIndex<'a>>,
    pub top_env: &'s AbsEnv,
    pub shared: &'s SharedSlots,
    pub governors: &'s [Option<Governor>],
    pub members: &'s [Vec<Symbol>],
    pub need: &'s [bool],
    pub hit: &'s [bool],
}

impl<'s, 'a: 's> BatchRunner<'s, 'a> {
    /// Solves every needed SCC of one batch in ascending id order,
    /// merging each component's slots into the shared map as it lands
    /// (later SCCs of the same batch may read them).
    fn run_batch(&self, batch: &Batch, out: &mut Vec<SccOutcome>) {
        for id in batch.ids.clone() {
            if !self.need[id] {
                continue;
            }
            let governor = self.governors[id]
                .clone()
                .expect("solve set entry has a governor");
            // A cache-hit SCC inside the solve set only contributes slot
            // values; its summaries come from the cache, so the expensive
            // per-parameter queries are skipped.
            let mut o = solve_scc(
                id,
                self.program,
                self.info,
                self.config,
                Arc::clone(self.index),
                self.top_env.clone(),
                governor,
                &self.members[id],
                self.shared,
                !self.hit[id],
            );
            merge_into_shared(self.shared, std::mem::take(&mut o.slots));
            out.push(o);
        }
    }

    /// Runs all batches: in id order when serial, otherwise on `jobs`
    /// work-stealing workers over a dependency-counted ready queue.
    /// Returns the outcomes (arbitrary order) and the steal count.
    pub(crate) fn run(&self, batches: &[Batch], jobs: usize) -> (Vec<SccOutcome>, usize) {
        let mut outcomes = Vec::new();
        if jobs <= 1 || batches.len() <= 1 {
            for batch in batches {
                self.run_batch(batch, &mut outcomes);
            }
            return (outcomes, 0);
        }

        let nb = batches.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); nb];
        let mut indegree_init = vec![0usize; nb];
        for (bi, b) in batches.iter().enumerate() {
            indegree_init[bi] = b.deps.len();
            for &d in &b.deps {
                dependents[d].push(bi);
            }
        }
        let indegree: Vec<AtomicUsize> =
            indegree_init.iter().map(|&d| AtomicUsize::new(d)).collect();
        let workers = jobs.min(nb).max(1);
        let deques: Vec<Mutex<VecDeque<usize>>> =
            (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
        // Seed ready batches round-robin across the workers.
        let mut seed = 0usize;
        for (bi, &d) in indegree_init.iter().enumerate() {
            if d == 0 {
                deques[seed % workers].lock().unwrap().push_back(bi);
                seed += 1;
            }
        }
        let pending = AtomicUsize::new(nb);
        let steals = AtomicUsize::new(0);
        let sink: Mutex<Vec<SccOutcome>> = Mutex::new(Vec::new());
        let idle = (Mutex::new(()), Condvar::new());

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let deques = &deques;
                    let dependents = &dependents;
                    let indegree = &indegree;
                    let pending = &pending;
                    let steals = &steals;
                    let sink = &sink;
                    let idle = &idle;
                    s.spawn(move || {
                        let mut local: Vec<SccOutcome> = Vec::new();
                        loop {
                            // Own deque first (LIFO: freshly unlocked work
                            // is cache-warm), then steal FIFO from others.
                            let mut task = deques[w].lock().unwrap().pop_back();
                            if task.is_none() {
                                for (v, victim) in deques.iter().enumerate() {
                                    if v == w {
                                        continue;
                                    }
                                    task = victim.lock().unwrap().pop_front();
                                    if task.is_some() {
                                        steals.fetch_add(1, Ordering::Relaxed);
                                        break;
                                    }
                                }
                            }
                            let Some(bi) = task else {
                                if pending.load(Ordering::Acquire) == 0 {
                                    break;
                                }
                                // Nothing runnable yet: naps are bounded so
                                // a missed notification can only cost a
                                // millisecond, not a deadlock.
                                let guard = idle.0.lock().unwrap();
                                let _ = idle
                                    .1
                                    .wait_timeout(guard, std::time::Duration::from_millis(1))
                                    .unwrap();
                                continue;
                            };
                            self.run_batch(&batches[bi], &mut local);
                            for &dep in &dependents[bi] {
                                if indegree[dep].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    deques[w].lock().unwrap().push_back(dep);
                                }
                            }
                            pending.fetch_sub(1, Ordering::AcqRel);
                            idle.1.notify_all();
                        }
                        sink.lock().unwrap().append(&mut local);
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("SCC worker thread panicked");
            }
        });
        outcomes = sink.into_inner().unwrap();
        (outcomes, steals.into_inner())
    }
}

/// Solves one SCC: a local slot fixpoint over its members against the
/// shared slot map (read through lazily), then (unless served by the
/// cache) the global escape test for each function member. Engine faults
/// follow the same quarantine discipline as the whole-program driver,
/// but confined to this component.
#[allow(clippy::too_many_arguments)]
pub(crate) fn solve_scc<'a>(
    id: usize,
    program: &'a Program,
    info: &'a TypeInfo,
    config: &EngineConfig,
    index: Arc<ProgramIndex<'a>>,
    top_env: AbsEnv,
    governor: Governor,
    members: &[Symbol],
    base: &SharedSlots,
    run_queries: bool,
) -> SccOutcome {
    let scope: BTreeSet<Symbol> = members.iter().copied().collect();
    let build = |gov: Governor| {
        let mut e = Engine::with_index(program, info, config.clone(), Arc::clone(&index));
        e.set_governor(gov);
        e.set_scope(Some(scope.clone()));
        e.set_base_slots(Some(Arc::clone(base)));
        e.set_top_env(top_env.clone());
        e
    };
    let mut engine = build(governor.clone());
    let mut out = SccOutcome {
        id,
        slots: Slots::default(),
        summaries: Vec::new(),
        degradations: Vec::new(),
        stats: EngineStats::default(),
        taint: None,
    };

    // Phase 1: converge every member slot.
    let phase1 = catch_unwind(AssertUnwindSafe(|| {
        engine.run(|en| {
            members
                .iter()
                .map(|m| en.top_value(*m))
                .collect::<Vec<AbsVal>>()
        })
    }));
    let slot_fault = match phase1 {
        Ok(Ok(_)) => None,
        Ok(Err(e)) => Some(DegradeReason::Engine(e)),
        Err(payload) => Some(DegradeReason::Panic(panic_message(payload))),
    };
    if let Some(reason) = slot_fault {
        // The member slots never converged: nothing this SCC exports can
        // be trusted as exact. Every function member degrades to `W^τ`,
        // the exported slots become the domain's top for their types
        // (sound for any true value), and the component is marked as a
        // degradation origin for its dependents.
        merge_stats(&mut out.stats, &engine.stats);
        let empty: AbsEnv = Arc::new(BTreeMap::new());
        for m in members {
            let Some(sig) = info.sig(*m) else { continue };
            let key = RecKey {
                letrec: program.body.id,
                name: *m,
                outer: empty.clone(),
            };
            out.slots
                .insert(key, worst_value(sig, Be::escaping(info.max_spines)));
            if !sig.uncurry().0.is_empty() {
                out.summaries.push(worst_case_summary(*m, sig));
                out.degradations.push(Degradation {
                    function: *m,
                    reason: reason.clone(),
                });
            }
        }
        out.taint = members.first().copied();
        return out;
    }

    // Phase 2: per-member global escape tests, panic-quarantined exactly
    // like the whole-program driver (rebuild on unwind, shared governor
    // keeps the SCC's budget cumulative across rebuilds). A query fault
    // degrades that member only: the converged slots stay exact, so no
    // taint is raised for dependents.
    if run_queries {
        for m in members {
            let Some(sig) = info.sig(*m).cloned() else {
                continue;
            };
            if sig.uncurry().0.is_empty() {
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| global_escape(&mut engine, *m)));
            match outcome {
                Ok(Ok(summary)) => out.summaries.push(summary),
                Ok(Err(e)) => {
                    out.summaries.push(worst_case_summary(*m, &sig));
                    out.degradations.push(Degradation {
                        function: *m,
                        reason: DegradeReason::Engine(e),
                    });
                }
                Err(payload) => {
                    out.summaries.push(worst_case_summary(*m, &sig));
                    out.degradations.push(Degradation {
                        function: *m,
                        reason: DegradeReason::Panic(panic_message(payload)),
                    });
                    merge_stats(&mut out.stats, &engine.stats);
                    engine = build(governor.clone());
                }
            }
        }
    }
    merge_stats(&mut out.stats, &engine.stats);
    out.slots = engine.export_slots();
    out
}

const CACHE_SALT: &str = "nml-scc-v4";

/// The configuration part of every content hash. `max_spines` matters:
/// it bounds the `B_e` domain, so summaries computed under a different
/// spine depth are not interchangeable.
pub(crate) fn config_salt(info: &TypeInfo, config: &EngineConfig) -> String {
    format!(
        "{} {} {} {}",
        config.max_passes, config.widen_depth, config.widen_arity, info.max_spines
    )
}

/// Content hash of one binding: its name, the structure of its
/// right-hand side, and its signature, in one walk. Spans and node ids
/// are left out, so reformatting and comment edits keep the hash.
pub(crate) fn binding_hash(b: &Binding, info: &TypeInfo) -> u64 {
    let mut h = ContentHash::new();
    h.write_str(b.name.as_str());
    hash_expr(&mut h, &b.expr);
    match info.sig(b.name) {
        Some(sig) => {
            h.write(b"S");
            hash_ty(&mut h, sig);
        }
        None => h.write(b"?"),
    }
    h.finish()
}

/// Folds the structure of `e` into `h`: a tag byte per node, then its
/// payload. Names are folded as text (symbol ids differ between
/// processes), each closed by [`ContentHash::write_str`]'s separator, so
/// the encoding is prefix-free and two trees hash alike only if they are
/// equal up to spans and node ids.
fn hash_expr(h: &mut ContentHash, e: &Expr) {
    match &e.kind {
        ExprKind::Const(c) => match c {
            Const::Int(n) => {
                h.write(b"i");
                h.write(&n.to_le_bytes());
            }
            Const::Bool(b) => h.write(&[b'b', u8::from(*b)]),
            Const::Nil => h.write(b"n"),
            Const::Prim(p) => {
                h.write(b"p");
                h.write_str(p.name());
            }
        },
        ExprKind::Var(x) => {
            h.write(b"v");
            h.write_str(x.as_str());
        }
        ExprKind::App(f, a) => {
            h.write(b"a");
            hash_expr(h, f);
            hash_expr(h, a);
        }
        ExprKind::Lambda(x, body) => {
            h.write(b"l");
            h.write_str(x.as_str());
            hash_expr(h, body);
        }
        ExprKind::If(c, t, f) => {
            h.write(b"?");
            hash_expr(h, c);
            hash_expr(h, t);
            hash_expr(h, f);
        }
        ExprKind::Letrec(bs, body) => {
            h.write(b"r");
            h.write(&(bs.len() as u64).to_le_bytes());
            for b in bs {
                h.write_str(b.name.as_str());
                hash_expr(h, &b.expr);
            }
            hash_expr(h, body);
        }
        ExprKind::Annot(inner, ty) => {
            h.write(b":");
            hash_expr(h, inner);
            hash_ty_expr(h, ty);
        }
    }
}

/// Folds a surface type annotation into `h`.
fn hash_ty_expr(h: &mut ContentHash, t: &TyExpr) {
    match t {
        TyExpr::Int => h.write(b"I"),
        TyExpr::Bool => h.write(b"B"),
        TyExpr::Var(v) => {
            h.write(b"V");
            h.write_str(v.as_str());
        }
        TyExpr::List(e) => {
            h.write(b"L");
            hash_ty_expr(h, e);
        }
        TyExpr::Prod(a, b) => {
            h.write(b"P");
            hash_ty_expr(h, a);
            hash_ty_expr(h, b);
        }
        TyExpr::Fun(a, b) => {
            h.write(b"F");
            hash_ty_expr(h, a);
            hash_ty_expr(h, b);
        }
    }
}

/// Folds an inferred type into `h`.
fn hash_ty(h: &mut ContentHash, t: &Ty) {
    match t {
        Ty::Int => h.write(b"I"),
        Ty::Bool => h.write(b"B"),
        Ty::Var(v) => {
            h.write(b"V");
            h.write(&v.0.to_le_bytes());
        }
        Ty::List(e) => {
            h.write(b"L");
            hash_ty(h, e);
        }
        Ty::Prod(a, b) => {
            h.write(b"P");
            hash_ty(h, a);
            hash_ty(h, b);
        }
        Ty::Fun(a, b) => {
            h.write(b"F");
            hash_ty(h, a);
            hash_ty(h, b);
        }
    }
}

/// Combines per-binding hashes into transitive per-SCC hashes, in id
/// order. Dependencies always have smaller ids (Tarjan emits callees
/// first), so one forward sweep settles the transitive keys. Shared by
/// the disk cache and the in-process incremental re-solver, which is
/// what makes "dirty" mean the same thing in both.
pub(crate) fn combine_scc_hashes(salt: &str, dag: &SccDag, binding_hashes: &[u64]) -> Vec<u64> {
    let mut hashes = vec![0u64; dag.len()];
    for id in 0..dag.len() {
        hashes[id] = scc_hash_one(salt, dag, id, binding_hashes, &hashes);
    }
    hashes
}

/// Recomputes in place only the transitive hashes of the SCCs flagged in
/// `changed`, leaving the rest untouched. Sound because `changed` is
/// closed under dependents (a flag implies every dependent is flagged
/// too) and dependencies have smaller ids, so each recomputation reads
/// already-settled values.
pub(crate) fn update_scc_hashes(
    salt: &str,
    dag: &SccDag,
    binding_hashes: &[u64],
    hashes: &mut [u64],
    changed: &[bool],
) {
    for id in 0..dag.len() {
        if changed[id] {
            let h = scc_hash_one(salt, dag, id, binding_hashes, hashes);
            hashes[id] = h;
        }
    }
}

/// The transitive content hash of one SCC, given settled hashes for every
/// smaller id. This is the single definition of the hash layout; both the
/// full and the partial sweep go through it.
fn scc_hash_one(
    salt: &str,
    dag: &SccDag,
    id: usize,
    binding_hashes: &[u64],
    hashes: &[u64],
) -> u64 {
    let mut h = ContentHash::new();
    h.write_str(CACHE_SALT);
    h.write_str(salt);
    let members = &dag.sccs[id].members;
    h.write(&(members.len() as u64).to_le_bytes());
    for &m in members {
        h.write(&binding_hashes[m].to_le_bytes());
    }
    let mut dep_hashes: Vec<u64> = dag.sccs[id].deps.iter().map(|&d| hashes[d]).collect();
    dep_hashes.sort_unstable();
    for dh in dep_hashes {
        h.write(&dh.to_le_bytes());
    }
    h.finish()
}

/// Content hashes for every SCC, in id order.
pub(crate) fn scc_hashes(
    program: &Program,
    info: &TypeInfo,
    config: &EngineConfig,
    dag: &SccDag,
) -> Vec<u64> {
    let per_binding: Vec<u64> = program
        .bindings
        .iter()
        .map(|b| binding_hash(b, info))
        .collect();
    combine_scc_hashes(&config_salt(info, config), dag, &per_binding)
}

/// A cache hit for one SCC: the entry exists and reconstructs a summary
/// for every function member. Anything less is a miss.
fn cache_lookup(
    cache: &SummaryCache,
    hash: u64,
    members: &[Symbol],
    info: &TypeInfo,
) -> Option<Vec<EscapeSummary>> {
    let entry = cache.get(hash)?;
    let mut out = Vec::new();
    for m in members {
        let Some(sig) = info.sig(*m) else { continue };
        if sig.uncurry().0.is_empty() {
            continue;
        }
        out.push(entry.summary_for(*m, sig)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    /// The hash of binding `name` in `src`.
    fn hash_of(src: &str, name: &str) -> u64 {
        let program = parse_program(src).expect("parse");
        let info = infer_program(&program).expect("infer");
        let b = program
            .binding(Symbol::intern(name))
            .unwrap_or_else(|| panic!("no binding {name} in {src}"));
        binding_hash(b, &info)
    }

    /// Pairs of programs whose binding `f` differs by one near miss:
    /// equal or nearly equal text, same signature, different trees.
    const NEAR_MISSES: &[(&str, &str, &str)] = &[
        (
            "application grouping",
            "letrec f a b c = a (b c) in f (lambda(x). x) (lambda(x). x) 1",
            "letrec f a b c = (a b) c in f (lambda(x). lambda(y). y) (lambda(x). x) 1",
        ),
        (
            "let vs letrec",
            "letrec f x = let a = 1 in let b = 2 in a + b + x in f 1",
            "letrec f x = letrec a = 1; b = 2 in a + b + x in f 1",
        ),
        (
            "an ascription",
            "letrec f l = car l in f [1]",
            "letrec f l = car (l : int list) in f [1]",
        ),
        (
            "a literal vs a name",
            "letrec one = 1; f x = x + 1 in f one",
            "letrec one = 1; f x = x + one in f one",
        ),
        (
            "a shadowed car (same text, same signature)",
            "letrec f l = car l in f [1]",
            "letrec car l = if (null l) then 0 else 0; f l = car l in f [1]",
        ),
        (
            "a car parameter",
            "letrec f g l = car l in f 0 [1]",
            "letrec f car l = car l in f (lambda(l). 0) [1]",
        ),
        (
            "a renamed parameter",
            "letrec f x = x in f 1",
            "letrec f y = y in f 1",
        ),
        (
            "an integer literal",
            "letrec f x = x + 12 in f 1",
            "letrec f x = x + 21 in f 1",
        ),
    ];

    #[test]
    fn near_miss_bindings_hash_apart() {
        for (what, a, b) in NEAR_MISSES {
            assert_ne!(hash_of(a, "f"), hash_of(b, "f"), "{what}: {a} / {b}");
        }
    }

    #[test]
    fn layout_and_comments_keep_the_hash() {
        let plain = "letrec f x = if x = 0 then nil else cons x (f (x - 1)) in f 3";
        let edited = "letrec -- a comment\n  f x =\n    if x = 0 (* nested (* block *) *)\n    then nil\n    else cons x ((f) (x - 1))\nin f 3";
        assert_eq!(hash_of(plain, "f"), hash_of(edited, "f"));
    }
}
