//! In-process incremental re-analysis.
//!
//! [`Incremental`] owns a fully analyzed program and supports *editing* it
//! — replacing one binding's right-hand side ([`update_binding`]) or
//! swapping in a whole new source text ([`update_source`]) — while
//! re-solving only the strongly connected components whose **transitive
//! content hash** changed. The hash is the same one the on-disk
//! [`SummaryCache`](crate::cache::SummaryCache) keys on (binding source +
//! signature + transitive dependency hashes, see
//! [`modular`](crate::modular)), so "dirty" means exactly the same thing
//! in both layers; the difference is that the incremental layer also
//! retains every clean component's *converged slot values* in memory, so
//! dirty components re-solve against finalized callee values without
//! re-solving the callees.
//!
//! [`update_binding`]: Incremental::update_binding
//! [`update_source`]: Incremental::update_source
//!
//! ## How an update runs
//!
//! 1. **Graft.** The replacement expression is parsed, its node ids are
//!    offset past `Program::next_node_id` (ids are never reused, so a
//!    per-node entry can never alias a new node), and the old subtree is
//!    swapped out; its type entries are dropped once the update commits.
//!    The program body's root id is pinned across body swaps: it names
//!    every top-level `RecKey`, and keeping it stable is what lets
//!    retained slot values survive. `update_source` grafts
//!    only the top-level chunks of the new text that are neither
//!    byte-identical to the retained text nor the same tree as before.
//! 2. **Re-infer.** Only the edited bindings and their transitive callers
//!    are re-typechecked ([`nml_types::reinfer_program`]), with every
//!    clean binding's scheme pinned from the previous inference.
//! 3. **Re-hash.** Per-binding hashes are recomputed for edited bindings
//!    (and any whose signature moved), then one forward sweep settles the
//!    transitive SCC hashes — recomputing only inside the dirty cone when
//!    the call-graph topology is unchanged.
//! 4. **Re-solve.** Components whose hash still maps to retained state are
//!    reused outright ([`ScheduleReport::sccs_reused`]); the rest re-solve
//!    against the retained shared slot map, exactly like a scheduled run
//!    ([`ScheduleReport::sccs_solved`]).
//!
//! Retired and imprecise slot contributions are reference-counted out of
//! the shared map before solving: a component degraded last round (or
//! merely *transitively* flagged) is never retained, so worst-case slot
//! values can never leak into a later precise solve.

use crate::absval::{AbsEnv, RecKey};
use crate::analysis::Analysis;
use crate::budget::{Budget, Governor};
use crate::engine::{build_top_env, EngineConfig, ProgramIndex, SharedSlots, Slots};
use crate::error::AnalyzeError;
use crate::modular::{
    binding_hash, combine_scc_hashes, config_salt, merge_into_shared, solve_scc, update_scc_hashes,
    Merged, ScheduleReport,
};
use nml_syntax::callgraph::{CallGraph, SccDag};
use nml_syntax::visit::{
    copy_node_ids, free_vars, offset_node_ids, same_tree, shift_spans, walk_exprs,
};
use nml_syntax::{
    parse_expr_in_scope, parse_program, Binding, Chunks, Expr, IdMap, NodeId, Program, Span,
    Symbol, SyntaxError,
};
use nml_types::{infer_program, reinfer_program, SpineTable, TypeError, TypeInfo};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::{Arc, RwLock};
use std::time::Instant;

/// Why an incremental update was rejected. The analysis state is rolled
/// back to the pre-update program on every error, so a failed update can
/// simply be retried with fixed input.
#[derive(Debug)]
pub enum UpdateError {
    /// `update_binding` named a binding the program does not have.
    UnknownBinding(String),
    /// The replacement source failed to lex or parse.
    Syntax(SyntaxError),
    /// The edited program failed to re-typecheck.
    Type(TypeError),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::UnknownBinding(name) => {
                write!(f, "no top-level binding named `{name}`")
            }
            UpdateError::Syntax(e) => write!(f, "{e}"),
            UpdateError::Type(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for UpdateError {}

impl From<SyntaxError> for UpdateError {
    fn from(e: SyntaxError) -> Self {
        UpdateError::Syntax(e)
    }
}

impl From<TypeError> for UpdateError {
    fn from(e: TypeError) -> Self {
        UpdateError::Type(e)
    }
}

/// Bookkeeping for one solved SCC, keyed by its transitive content hash.
/// Its summaries stay in `Analysis::summaries` (dirty members always
/// overwrite theirs, so clean entries are always current); slot values
/// live in the shared map, with `keys` recording which entries this
/// component contributed so they can be reference-counted out when it is
/// invalidated.
struct Retained {
    keys: Vec<RecKey>,
    /// Imprecise entries exist only so their contributions can be purged;
    /// they are re-solved unconditionally on the next update.
    precise: bool,
}

/// The text the current program was last read from, with the byte range
/// of each top-level chunk as [`Chunks`] cut it.
struct SourceText {
    text: String,
    /// Per binding, by position in `Program::bindings`; `None` once
    /// `update_binding` replaced the binding, whose tree then no longer
    /// comes from `text`.
    bindings: Vec<Option<Range<usize>>>,
    body: Range<usize>,
    /// The constant-named top-level binders the chunks resolved under.
    shadows: Vec<Symbol>,
}

impl SourceText {
    /// The text `src`, cut as `chunks`.
    fn new(src: &str, chunks: &Chunks) -> SourceText {
        SourceText {
            text: src.to_owned(),
            bindings: (0..chunks.names().len())
                .map(|i| Some(chunks.binding_bytes(i)))
                .collect(),
            body: chunks.body_bytes(),
            shadows: chunks.shadows().to_vec(),
        }
    }
}

/// The text an `update_source` reads: cut into chunks, or, when it does
/// not cut cleanly, parsed whole; a binding or body taken from the whole
/// parse gets its node ids moved past `base`.
enum NewText {
    Chunks(Chunks),
    Whole { program: Program, base: u32 },
}

impl NewText {
    fn chunks(&self) -> Option<&Chunks> {
        match self {
            NewText::Chunks(c) => Some(c),
            NewText::Whole { .. } => None,
        }
    }

    fn names(&self) -> Vec<Symbol> {
        match self {
            NewText::Chunks(c) => c.names().to_vec(),
            NewText::Whole { program, .. } => program.bindings.iter().map(|b| b.name).collect(),
        }
    }

    /// Binding `i` with node ids at or past `*next`, which it advances.
    fn binding(&self, i: usize, next: &mut u32) -> Option<Binding> {
        match self {
            NewText::Chunks(c) => c.parse_binding(i, next),
            NewText::Whole { program, base } => {
                let mut b = program.bindings[i].clone();
                *next = (*next).max(offset_node_ids(&mut b.expr, *base));
                Some(b)
            }
        }
    }

    /// The body with node ids at or past `*next`, which it advances.
    fn body(&self, next: &mut u32) -> Option<Expr> {
        match self {
            NewText::Chunks(c) => c.parse_body(next),
            NewText::Whole { program, base } => {
                let mut b = program.body.clone();
                *next = (*next).max(offset_node_ids(&mut b, *base));
                Some(b)
            }
        }
    }

    /// The program's span, given its body's.
    fn span(&self, body: Span) -> Span {
        match self {
            NewText::Chunks(c) => c.program_span(body),
            NewText::Whole { program, .. } => program.span,
        }
    }
}

/// What becomes of one binding, or of the body, in an `update_source`.
enum Plan<T> {
    /// Unchanged bytes: the old tree stays, its spans moved by this many
    /// bytes.
    Keep(i64),
    /// Re-parsed to the same tree: the new spans with the old node ids.
    Same(T),
    /// A new tree, grafted.
    New(T),
}

/// An `update_source` planned against the current program.
struct Merge {
    /// Per new binding, in order: its keepable old position, and its plan.
    bindings: Vec<(Option<usize>, Plan<Binding>)>,
    body: Plan<Expr>,
    span: Span,
    next_node_id: u32,
    names: Vec<Symbol>,
    /// New position by name.
    index: HashMap<Symbol, usize>,
    /// New position of each old binding; `None` if the edit removed it.
    old_to_new: Vec<Option<usize>>,
    source: Option<SourceText>,
}

/// What an `update_source` displaced, so a rejected edit is put back
/// without a snapshot of the whole program.
struct Undo {
    /// The old bindings by old position; a kept one is moved into the new
    /// program and listed in `moved`.
    bindings: Vec<Option<Binding>>,
    /// `(new position, old position, span shift)` of each kept binding.
    moved: Vec<(usize, usize, i64)>,
    /// The old body, if the edit replaced it.
    body: Option<Expr>,
    /// How far the spans of a kept body moved.
    body_shift: i64,
    span: Span,
    next_node_id: u32,
    binding_hashes: Vec<u64>,
    spines: Vec<u32>,
    /// The call graph, condensation and members, if they were rebuilt.
    topology: Option<(CallGraph, SccDag, Vec<Vec<Symbol>>)>,
    top_env: AbsEnv,
}

/// Moves a binding's name and tree spans by `by` bytes.
fn shift_binding(b: &mut Binding, by: i64) {
    if by != 0 {
        b.span = b.span.shifted(by);
        shift_spans(&mut b.expr, by);
    }
}

/// Adds the node ids of `e`'s subtree to `out`.
fn collect_ids(e: &Expr, out: &mut HashSet<NodeId>) {
    walk_exprs(e, &mut |x: &Expr| {
        out.insert(x.id);
    });
}

/// An analyzed program that accepts edits and re-solves only what the
/// edit's transitive content hash actually dirtied.
///
/// ```
/// use nml_escape::Incremental;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut inc = Incremental::from_source(
///     "letrec len = lambda(l). if (null l) then 0 else 1 + len (cdr l);
///             use = lambda(l). len l
///      in use [1, 2]",
/// )?;
/// inc.update_binding("use", "lambda(l). len (cdr l)")?;
/// // Only `use`'s component re-solved; `len` was reused.
/// assert_eq!(inc.analysis().schedule.sccs_solved, 1);
/// assert_eq!(inc.analysis().schedule.sccs_reused, 1);
/// # Ok(())
/// # }
/// ```
pub struct Incremental {
    analysis: Analysis,
    config: EngineConfig,
    budget: Budget,
    graph: CallGraph,
    dag: SccDag,
    /// Member names per SCC id.
    members: Vec<Vec<Symbol>>,
    /// Content hash per binding index (name + source + signature).
    binding_hashes: Vec<u64>,
    /// Transitive content hash per SCC id.
    scc_hashes: Vec<u64>,
    /// Engine-configuration part of the hashes; a change (e.g. the domain
    /// bound `d` moving after an edit) dirties every component.
    salt: String,
    retained: HashMap<u64, Retained>,
    /// How many live retained components contributed each shared slot
    /// entry. Contributions are duplicated when a dependent materializes a
    /// callee's slot; all live contributions of one key carry the same
    /// converged value, so the entry is dropped only at refcount zero.
    refcnt: IdMap<RecKey, usize>,
    shared: SharedSlots,
    top_env: AbsEnv,
    /// Per-binding spine maxima, so re-inference restores the exact domain
    /// bound `d` without a whole-program walk.
    spines: SpineTable,
    /// The text the program was last read from by `update_source`; `None`
    /// before the first such update and after text that did not cut into
    /// chunks.
    source: Option<SourceText>,
}

impl Incremental {
    /// Analyzes `program` from scratch and retains everything needed for
    /// incremental updates.
    pub fn new(program: Program, info: TypeInfo, config: EngineConfig, budget: Budget) -> Self {
        let graph = CallGraph::build(&program);
        let dag = graph.condense();
        let n = dag.len();
        let members: Vec<Vec<Symbol>> = (0..n).map(|id| dag.member_names(&graph, id)).collect();
        let binding_hashes: Vec<u64> = program
            .bindings
            .iter()
            .map(|b| binding_hash(b, &info))
            .collect();
        let salt = config_salt(&info, &config);
        let scc_hashes = combine_scc_hashes(&salt, &dag, &binding_hashes);
        let top_env = build_top_env(&program);
        let spines = SpineTable::build(&info, &program);
        let mut inc = Incremental {
            analysis: Analysis {
                program,
                info,
                summaries: BTreeMap::new(),
                stats: Default::default(),
                degradations: Vec::new(),
                schedule: ScheduleReport::default(),
            },
            config,
            budget,
            graph,
            dag,
            members,
            binding_hashes,
            scc_hashes,
            salt,
            retained: HashMap::new(),
            refcnt: IdMap::default(),
            shared: Arc::new(RwLock::new(Slots::default())),
            top_env,
            spines,
            source: None,
        };
        let dirty = vec![true; n];
        inc.solve(&dirty);
        inc
    }

    /// Parses, infers, and analyzes `src` with default configuration and
    /// an unlimited budget.
    ///
    /// # Errors
    ///
    /// Propagates syntax and type errors.
    pub fn from_source(src: &str) -> Result<Self, AnalyzeError> {
        let program = parse_program(src)?;
        let info = infer_program(&program)?;
        Ok(Incremental::new(
            program,
            info,
            EngineConfig::default(),
            Budget::unlimited(),
        ))
    }

    /// The current analysis: summaries for every top-level function of the
    /// program as last updated, with [`Analysis::schedule`] describing
    /// what the most recent update actually solved.
    pub fn analysis(&self) -> &Analysis {
        &self.analysis
    }

    /// Consumes the re-solver, handing back the final analysis.
    pub fn into_analysis(self) -> Analysis {
        self.analysis
    }

    /// Replaces the right-hand side of top-level binding `name` with the
    /// parse of `rhs_src` and re-solves the dirtied components.
    ///
    /// # Errors
    ///
    /// [`UpdateError::UnknownBinding`] if no such binding,
    /// [`UpdateError::Syntax`]/[`UpdateError::Type`] if the replacement
    /// does not parse or typecheck. The program is rolled back on error.
    pub fn update_binding(&mut self, name: &str, rhs_src: &str) -> Result<&Analysis, UpdateError> {
        let sym = Symbol::intern(name);
        let Some(idx) = self
            .analysis
            .program
            .bindings
            .iter()
            .position(|b| b.name == sym)
        else {
            return Err(UpdateError::UnknownBinding(name.to_string()));
        };
        let names: Vec<Symbol> = self.graph.names.clone();
        let mut expr = parse_expr_in_scope(rhs_src, &names)?;
        let off = self.analysis.program.next_node_id;
        self.analysis.program.next_node_id = offset_node_ids(&mut expr, off);

        let old_expr = std::mem::replace(&mut self.analysis.program.bindings[idx].expr, expr);

        // Refresh this binding's call-graph row; a changed row (the edit
        // calls different functions) forces a re-condensation.
        let new_row = CallGraph::row(
            &self.analysis.program.bindings[idx].expr,
            &CallGraph::index(&names),
        );
        let row_changed = new_row != self.graph.deps[idx];
        let topo_backup = row_changed.then(|| {
            let row = std::mem::replace(&mut self.graph.deps[idx], new_row);
            let (dag, members) = self.recondense();
            (row, dag, members)
        });

        match self.refresh(&[idx], false, row_changed) {
            Ok(()) => {
                // The binding no longer comes from the retained text.
                if let Some(source) = &mut self.source {
                    source.bindings[idx] = None;
                }
                let mut retired = HashSet::new();
                collect_ids(&old_expr, &mut retired);
                self.analysis.info.forget(&retired);
                Ok(&self.analysis)
            }
            Err(e) => {
                self.analysis.program.bindings[idx].expr = old_expr;
                if let Some((row, dag, members)) = topo_backup {
                    self.graph.deps[idx] = row;
                    self.dag = dag;
                    self.members = members;
                }
                Err(UpdateError::Type(e))
            }
        }
    }

    /// Replaces the whole program with the parse of `src`, reusing the old
    /// AST (and therefore node ids, hashes, and retained state) for every
    /// binding whose text is unchanged. This is the file-watch entry
    /// point: the watcher re-reads the file and hands the full text here.
    ///
    /// The text is cut into top-level chunks ([`Chunks`]). A chunk whose
    /// bytes equal the retained chunk of the same name keeps its binding
    /// without being parsed; any other chunk is parsed, and keeps the old
    /// node ids when it is the same tree ([`same_tree`]). Either way a
    /// kept binding takes its spans from the new text. So an edit costs
    /// what it changed, apart from lexing the text once.
    ///
    /// # Errors
    ///
    /// [`UpdateError::Syntax`]/[`UpdateError::Type`] as for
    /// [`update_binding`](Incremental::update_binding); rolled back on
    /// error.
    pub fn update_source(&mut self, src: &str) -> Result<&Analysis, UpdateError> {
        let merge = match Chunks::split(src).and_then(|c| self.plan(src, NewText::Chunks(c))) {
            Some(m) => m,
            // Text that does not cut or chunk-parse cleanly: the whole
            // parse is the only source of syntax errors.
            None => {
                let whole = NewText::Whole {
                    program: parse_program(src)?,
                    base: self.analysis.program.next_node_id,
                };
                self.plan(src, whole)
                    .expect("a parsed program always plans")
            }
        };
        let Merge {
            bindings: plans,
            body,
            span,
            next_node_id,
            names,
            index,
            old_to_new,
            source,
        } = merge;

        let program = &mut self.analysis.program;
        let mut undo = Undo {
            bindings: std::mem::take(&mut program.bindings)
                .into_iter()
                .map(Some)
                .collect(),
            moved: Vec::new(),
            body: None,
            body_shift: 0,
            span: std::mem::replace(&mut program.span, span),
            next_node_id: std::mem::replace(&mut program.next_node_id, next_node_id),
            binding_hashes: Vec::new(),
            spines: Vec::new(),
            topology: None,
            top_env: self.top_env.clone(),
        };
        let mut grafted: Vec<usize> = Vec::new();
        // Old bindings whose node ids live on in the new program.
        let mut reused = vec![false; undo.bindings.len()];
        let mut hashes: Vec<u64> = Vec::with_capacity(plans.len());
        let mut spine_maxima: Vec<u32> = Vec::with_capacity(plans.len());
        for (i, (old, plan)) in plans.into_iter().enumerate() {
            let (b, kept) = match plan {
                Plan::Keep(shift) => {
                    let j = old.expect("only a binding with an old version is kept");
                    let mut b = undo.bindings[j].take().expect("kept once");
                    shift_binding(&mut b, shift);
                    undo.moved.push((i, j, shift));
                    reused[j] = true;
                    (b, old)
                }
                Plan::Same(b) => {
                    reused[old.expect("only a binding with an old version is the same")] = true;
                    (b, old)
                }
                Plan::New(b) => {
                    grafted.push(i);
                    (b, None)
                }
            };
            // A grafted binding's hash and spine maximum are settled by
            // `refresh` after re-inference.
            let (h, spine) = kept.map_or((0, 0), |j| {
                (self.binding_hashes[j], self.spines.bindings[j])
            });
            hashes.push(h);
            spine_maxima.push(spine);
            program.bindings.push(b);
        }
        let body_changed = matches!(body, Plan::New(_));
        let body_root = program.body.id;
        match body {
            Plan::Keep(shift) => {
                if shift != 0 {
                    shift_spans(&mut program.body, shift);
                }
                undo.body_shift = shift;
            }
            Plan::Same(b) | Plan::New(b) => {
                undo.body = Some(std::mem::replace(&mut program.body, b));
            }
        }
        undo.binding_hashes = std::mem::replace(&mut self.binding_hashes, hashes);
        undo.spines = std::mem::replace(&mut self.spines.bindings, spine_maxima);

        // Only grafted bindings can have new rows; a kept one's row is its
        // old row under the new numbering.
        let names_changed = names != self.graph.names;
        let rows: Vec<(usize, Vec<usize>)> = grafted
            .iter()
            .map(|&i| (i, CallGraph::row(&program.bindings[i].expr, &index)))
            .collect();
        let topology_changed =
            names_changed || rows.iter().any(|(i, row)| *row != self.graph.deps[*i]);
        if topology_changed {
            let mut deps: Vec<Vec<usize>> = vec![Vec::new(); names.len()];
            for (j, to) in old_to_new.iter().enumerate() {
                if let Some(i) = *to {
                    let mut row: Vec<usize> = self.graph.deps[j]
                        .iter()
                        .filter_map(|&d| old_to_new[d])
                        .collect();
                    row.sort_unstable();
                    deps[i] = row;
                }
            }
            for (i, row) in rows {
                deps[i] = row;
            }
            let graph = std::mem::replace(&mut self.graph, CallGraph { names, deps });
            let (dag, members) = self.recondense();
            undo.topology = Some((graph, dag, members));
            if names_changed {
                self.top_env = build_top_env(&self.analysis.program);
            }
        }

        match self.refresh(&grafted, body_changed, topology_changed) {
            Ok(()) => {
                for (j, b) in undo.bindings.iter().enumerate() {
                    if old_to_new[j].is_none() {
                        let name = b.as_ref().expect("removed bindings stay behind").name;
                        self.analysis.summaries.remove(&name);
                    }
                }
                // Drop the types of every subtree the edit retired: old
                // bindings nothing reused, and a replaced body apart from
                // its pinned root id.
                let mut retired = HashSet::new();
                for (b, &reused) in undo.bindings.iter().zip(&reused) {
                    if let (Some(b), false) = (b, reused) {
                        collect_ids(&b.expr, &mut retired);
                    }
                }
                if body_changed {
                    let old_body = undo.body.as_ref().expect("a new body displaced the old");
                    collect_ids(old_body, &mut retired);
                    retired.remove(&body_root);
                }
                self.analysis.info.forget(&retired);
                self.source = source;
                Ok(&self.analysis)
            }
            Err(e) => {
                self.roll_back(undo);
                Err(UpdateError::Type(e))
            }
        }
    }

    /// Decides, without touching `self`, what becomes of each binding and
    /// of the body. `None` when a chunk does not parse on its own.
    fn plan(&self, src: &str, text: NewText) -> Option<Merge> {
        let program = &self.analysis.program;
        let names = text.names();
        let chunks = text.chunks();
        let index = CallGraph::index(&names);
        let old_to_new: Vec<Option<usize>> = self
            .graph
            .names
            .iter()
            .map(|n| index.get(n).copied())
            .collect();
        // A binding that referred to a binding the edit removed is never
        // kept, so its re-inference reports the dangling reference. The
        // same holds for the body.
        let mut new_to_old: Vec<Option<usize>> = vec![None; names.len()];
        for (j, to) in old_to_new.iter().enumerate() {
            let refers_to_removed = self.graph.deps[j].iter().any(|&d| old_to_new[d].is_none());
            if let Some(i) = to.filter(|_| !refers_to_removed) {
                new_to_old[i] = Some(j);
            }
        }
        let body_keepable = old_to_new.iter().all(Option::is_some) || {
            let fv = free_vars(&program.body);
            self.graph
                .names
                .iter()
                .zip(&old_to_new)
                .all(|(n, to)| to.is_some() || !fv.contains(n))
        };
        // Equal bytes mean an equal tree only under the same constant
        // shadowing.
        let retained = self
            .source
            .as_ref()
            .filter(|s| chunks.is_some_and(|c| c.shadows() == s.shadows));
        let unchanged = |was: Option<&Range<usize>>, now: Option<Range<usize>>| {
            let (was, now) = (was?, now?);
            let old = &retained?.text;
            (old[was.clone()] == src[now.clone()]).then(|| now.start as i64 - was.start as i64)
        };

        let mut next = program.next_node_id;
        let mut bindings = Vec::with_capacity(names.len());
        for (i, &old) in new_to_old.iter().enumerate() {
            let was = old.and_then(|j| retained?.bindings[j].as_ref());
            let plan = match unchanged(was, chunks.map(|c| c.binding_bytes(i))) {
                Some(shift) => Plan::Keep(shift),
                None => {
                    let before = next;
                    let mut b = text.binding(i, &mut next)?;
                    match old.map(|j| &program.bindings[j].expr) {
                        Some(e) if same_tree(e, &b.expr) => {
                            copy_node_ids(&mut b.expr, e);
                            next = before;
                            Plan::Same(b)
                        }
                        _ => Plan::New(b),
                    }
                }
            };
            bindings.push((old, plan));
        }
        let was = retained.filter(|_| body_keepable).map(|s| &s.body);
        let body = match unchanged(was, chunks.map(Chunks::body_bytes)) {
            Some(shift) => Plan::Keep(shift),
            None => {
                let before = next;
                let mut b = text.body(&mut next)?;
                if body_keepable && same_tree(&program.body, &b) {
                    copy_node_ids(&mut b, &program.body);
                    next = before;
                    Plan::Same(b)
                } else {
                    // The body's root id names every top-level RecKey;
                    // pinning it keeps retained slot values and the top
                    // environment valid.
                    b.id = program.body.id;
                    Plan::New(b)
                }
            }
        };
        let span = text.span(match &body {
            Plan::Keep(shift) => program.body.span.shifted(*shift),
            Plan::Same(b) | Plan::New(b) => b.span,
        });
        let source = chunks.map(|c| SourceText::new(src, c));
        Some(Merge {
            bindings,
            body,
            span,
            next_node_id: next,
            names,
            index,
            old_to_new,
            source,
        })
    }

    /// Puts back what a rejected `update_source` displaced.
    fn roll_back(&mut self, undo: Undo) {
        let Undo {
            mut bindings,
            moved,
            body,
            body_shift,
            span,
            next_node_id,
            binding_hashes,
            spines,
            topology,
            top_env,
        } = undo;
        let program = &mut self.analysis.program;
        let mut new: Vec<Option<Binding>> = std::mem::take(&mut program.bindings)
            .into_iter()
            .map(Some)
            .collect();
        for (i, j, shift) in moved {
            let mut b = new[i].take().expect("moved once");
            shift_binding(&mut b, -shift);
            bindings[j] = Some(b);
        }
        program.bindings = bindings
            .into_iter()
            .map(|b| b.expect("every old binding is back"))
            .collect();
        match body {
            Some(old) => program.body = old,
            None if body_shift != 0 => shift_spans(&mut program.body, -body_shift),
            None => {}
        }
        program.span = span;
        program.next_node_id = next_node_id;
        self.binding_hashes = binding_hashes;
        self.spines.bindings = spines;
        if let Some((graph, dag, members)) = topology {
            self.graph = graph;
            self.dag = dag;
            self.members = members;
        }
        self.top_env = top_env;
    }

    /// Rebuilds the condensation and per-SCC member names from `graph`,
    /// handing back the ones it replaces.
    fn recondense(&mut self) -> (SccDag, Vec<Vec<Symbol>>) {
        let dag = self.graph.condense();
        let members = (0..dag.len())
            .map(|id| dag.member_names(&self.graph, id))
            .collect();
        (
            std::mem::replace(&mut self.dag, dag),
            std::mem::replace(&mut self.members, members),
        )
    }

    /// The fallible tail of every update: re-infer the dirty cone, settle
    /// hashes, purge invalidated contributions, and re-solve. Fails (and
    /// mutates neither `info` nor any solver state) only at re-inference;
    /// AST and topology rollback is the caller's job.
    fn refresh(
        &mut self,
        grafted: &[usize],
        reinfer_body: bool,
        topology_changed: bool,
    ) -> Result<(), TypeError> {
        let n = self.dag.len();

        // Dirty cone at SCC granularity: edited components plus every
        // transitive dependent. Dependencies have smaller ids, so one
        // forward sweep closes the set.
        let mut changed = vec![false; n];
        for &g in grafted {
            changed[self.dag.scc_of[g]] = true;
        }
        for id in 0..n {
            if !changed[id] && self.dag.sccs[id].deps.iter().any(|&d| changed[d]) {
                changed[id] = true;
            }
        }

        let mut dirty_names: BTreeSet<Symbol> = BTreeSet::new();
        for (members, &is_dirty) in self.members.iter().zip(&changed) {
            if is_dirty {
                dirty_names.extend(members.iter().copied());
            }
        }
        let old_sigs: BTreeMap<Symbol, Option<String>> = dirty_names
            .iter()
            .map(|name| (*name, self.analysis.info.sig(*name).map(|t| t.to_string())))
            .collect();
        if !dirty_names.is_empty() || reinfer_body {
            reinfer_program(
                &self.analysis.program,
                &mut self.analysis.info,
                &dirty_names,
                reinfer_body,
                &mut self.spines,
            )?;
        }

        // Per-binding hashes: every grafted binding, plus any re-inferred
        // binding whose signature moved (the signature is part of the
        // hash).
        let grafted_set: HashSet<usize> = grafted.iter().copied().collect();
        for (i, b) in self.analysis.program.bindings.iter().enumerate() {
            if !dirty_names.contains(&b.name) {
                continue;
            }
            let sig_moved = old_sigs.get(&b.name).is_some_and(|old| {
                old.as_deref()
                    != self
                        .analysis
                        .info
                        .sig(b.name)
                        .map(|t| t.to_string())
                        .as_deref()
            });
            if grafted_set.contains(&i) || sig_moved {
                self.binding_hashes[i] = binding_hash(b, &self.analysis.info);
            }
        }

        // Transitive SCC hashes. A salt change (the domain bound `d`
        // moved) or a topology change invalidates the whole vector;
        // otherwise only the cone is recomputed.
        let salt = config_salt(&self.analysis.info, &self.config);
        if salt != self.salt || topology_changed {
            self.salt = salt;
            self.scc_hashes = combine_scc_hashes(&self.salt, &self.dag, &self.binding_hashes);
        } else {
            update_scc_hashes(
                &self.salt,
                &self.dag,
                &self.binding_hashes,
                &mut self.scc_hashes,
                &changed,
            );
        }

        // Re-solve everything whose hash has no precise retained entry:
        // the dirty cone, every component degraded last round, and (after
        // a salt change) everything.
        let dirty: Vec<bool> = (0..n)
            .map(|id| {
                !self
                    .retained
                    .get(&self.scc_hashes[id])
                    .is_some_and(|r| r.precise)
            })
            .collect();

        // Purge retained entries that no clean component claims: old
        // versions of edited components, everything imprecise, and
        // contributions orphaned by binding removal. Slot entries drop at
        // refcount zero; duplicated contributions (a dependent
        // materialized a callee's slot) keep theirs alive exactly as long
        // as a live contributor remains.
        let live: HashSet<u64> = (0..n)
            .filter(|&id| !dirty[id])
            .map(|id| self.scc_hashes[id])
            .collect();
        let stale: Vec<u64> = self
            .retained
            .keys()
            .filter(|h| !live.contains(h))
            .copied()
            .collect();
        if !stale.is_empty() {
            let mut slots = self.shared.write().unwrap_or_else(|e| e.into_inner());
            for h in stale {
                let r = self.retained.remove(&h).expect("stale key just listed");
                for k in r.keys {
                    match self.refcnt.get_mut(&k) {
                        Some(c) if *c > 1 => *c -= 1,
                        Some(_) => {
                            self.refcnt.remove(&k);
                            slots.remove(&k);
                        }
                        None => unreachable!("contributed key has no refcount"),
                    }
                }
            }
        }

        self.solve(&dirty);
        Ok(())
    }

    /// Solves every flagged SCC in ascending id order against the shared
    /// slot map, merging summaries/degradations/taint exactly like the
    /// scheduled driver's deterministic merge, and retains each outcome
    /// under its content hash.
    fn solve(&mut self, dirty: &[bool]) {
        let n = self.dag.len();
        let solved_count = dirty.iter().filter(|d| **d).count();

        // The engine index only needs the components being solved plus
        // everything they can reach (closures of transitive callees flow
        // into a solve through slot values); indexing that cone instead of
        // the program keeps tiny updates proportional to the edit.
        let mut need = dirty.to_vec();
        for id in (0..n).rev() {
            if need[id] {
                for &d in &self.dag.sccs[id].deps {
                    need[d] = true;
                }
            }
        }
        let mut positions: Vec<usize> = (0..n)
            .filter(|&id| need[id])
            .flat_map(|id| self.dag.sccs[id].members.iter().copied())
            .collect();
        positions.sort_unstable();

        let Analysis {
            program,
            info,
            summaries,
            stats,
            degradations,
            schedule,
        } = &mut self.analysis;
        let program: &Program = program;
        let info: &TypeInfo = info;
        degradations.clear();

        let index = Arc::new(ProgramIndex::build_subset(program, Some(&positions)));
        let started = Instant::now();
        let share = self.budget.apportion(solved_count.max(1));
        let mut merged = Merged::new(n, summaries, degradations, stats);
        for id in (0..n).filter(|&id| dirty[id]) {
            let governor = Governor::with_start(share, started);
            let mut o = solve_scc(
                id,
                program,
                info,
                &self.config,
                Arc::clone(&index),
                self.top_env.clone(),
                governor,
                &self.members[id],
                &self.shared,
                true,
            );
            let keys: Vec<RecKey> = o.slots.keys().cloned().collect();
            merge_into_shared(&self.shared, std::mem::take(&mut o.slots));
            for k in &keys {
                *self.refcnt.entry(k.clone()).or_insert(0) += 1;
            }

            let precise = merged.merge(o, &self.dag.sccs[id].deps, None);
            self.retained
                .insert(self.scc_hashes[id], Retained { keys, precise });
        }

        *schedule = ScheduleReport {
            scc_count: n,
            sccs_solved: solved_count,
            sccs_reused: n - solved_count,
            jobs: 1,
            ..ScheduleReport::default()
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{analyze_source_scheduled, PolyMode};
    use crate::modular::ScheduleOptions;

    const BASE: &str = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car (append l l)
     in use [1, 2] + car (rot [3])";

    fn scratch(src: &str) -> Analysis {
        analyze_source_scheduled(
            src,
            PolyMode::SimplestInstance,
            EngineConfig::default(),
            Budget::unlimited(),
            &ScheduleOptions::default(),
        )
        .expect("scratch")
    }

    fn assert_matches_scratch(inc: &Incremental, src: &str) {
        let fresh = scratch(src);
        assert_eq!(
            inc.analysis().summaries,
            fresh.summaries,
            "incremental and scratch summaries diverge"
        );
        assert!(fresh.degradations.is_empty());
        assert!(inc.analysis().degradations.is_empty());
    }

    #[test]
    fn cold_start_matches_scheduled() {
        let inc = Incremental::from_source(BASE).unwrap();
        assert_matches_scratch(&inc, BASE);
        let n = inc.analysis().schedule.scc_count;
        assert_eq!(inc.analysis().schedule.sccs_solved, n);
        assert_eq!(inc.analysis().schedule.sccs_reused, 0);
    }

    #[test]
    fn update_binding_resolves_only_the_dirty_cone() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        // `use` is a leaf of the dependent order: editing it dirties only
        // its own component.
        inc.update_binding("use", "lambda(l). car (append (cdr l) l)")
            .unwrap();
        assert_eq!(inc.analysis().schedule.sccs_solved, 1);
        assert_eq!(inc.analysis().schedule.sccs_reused, 2);
        let edited = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car (append (cdr l) l)
     in use [1, 2] + car (rot [3])";
        assert_matches_scratch(&inc, edited);
    }

    #[test]
    fn textually_identical_edit_is_a_no_op() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        inc.update_binding(
            "append",
            "lambda(x, y). if (null x) then y else cons (car x) (append (cdr x) y)",
        )
        .unwrap();
        // Same text, same hash: nothing to re-solve.
        assert_eq!(inc.analysis().schedule.sccs_solved, 0);
        assert_eq!(inc.analysis().schedule.sccs_reused, 3);
        assert_matches_scratch(&inc, BASE);
    }

    #[test]
    fn editing_a_dependency_dirties_dependents() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        // `append` is a dependency of both `rot` and `use`; a genuinely
        // new text dirties all three components.
        inc.update_binding(
            "append",
            "lambda(x, y). if (null x) then append nil y
             else cons (car x) (append (cdr x) y)",
        )
        .unwrap();
        assert_eq!(inc.analysis().schedule.sccs_solved, 3);
        assert_eq!(inc.analysis().schedule.sccs_reused, 0);
        let edited = "letrec
        append = lambda(x, y). if (null x) then append nil y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car (append l l)
     in use [1, 2] + car (rot [3])";
        assert_matches_scratch(&inc, edited);
    }

    #[test]
    fn update_changing_topology_recondenses() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        // `use` stops calling `append` entirely.
        inc.update_binding("use", "lambda(l). car l").unwrap();
        let edited = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car l
     in use [1, 2] + car (rot [3])";
        assert_matches_scratch(&inc, edited);
        assert_eq!(inc.analysis().schedule.sccs_solved, 1);
    }

    #[test]
    fn type_error_rolls_back() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        let before = inc.analysis().summaries.clone();
        let err = inc
            .update_binding("use", "lambda(l). car (append l 1)")
            .unwrap_err();
        assert!(matches!(err, UpdateError::Type(_)));
        assert_eq!(inc.analysis().summaries, before);
        // The rolled-back state still updates cleanly.
        inc.update_binding("use", "lambda(l). car (append l l)")
            .unwrap();
        assert_matches_scratch(&inc, BASE);
    }

    #[test]
    fn unknown_binding_is_reported() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        assert!(matches!(
            inc.update_binding("nope", "lambda(x). x"),
            Err(UpdateError::UnknownBinding(_))
        ));
    }

    #[test]
    fn update_source_keeps_unchanged_bindings() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        let edited = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car (append l (cons 7 l))
     in use [1, 2] + car (rot [3])";
        inc.update_source(edited).unwrap();
        assert_eq!(inc.analysis().schedule.sccs_solved, 1);
        assert_eq!(inc.analysis().schedule.sccs_reused, 2);
        assert_matches_scratch(&inc, edited);
    }

    #[test]
    fn update_source_adds_and_removes_bindings() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        let edited = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        twice = lambda(l). append l l
     in car (twice [1, 2])";
        inc.update_source(edited).unwrap();
        assert_matches_scratch(&inc, edited);
        assert!(inc
            .analysis()
            .summaries
            .contains_key(&Symbol::intern("twice")));
        assert!(!inc
            .analysis()
            .summaries
            .contains_key(&Symbol::intern("rot")));
        // `append` untouched: reused.
        assert_eq!(inc.analysis().schedule.sccs_reused, 1);
    }

    #[test]
    fn repeated_updates_stay_consistent() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        for k in 0..4 {
            let rhs = format!("lambda(l). car (append l (cons {k} l))");
            inc.update_binding("use", &rhs).unwrap();
            assert_eq!(inc.analysis().schedule.sccs_solved, 1);
        }
        let last = "letrec
        append = lambda(x, y). if (null x) then y
                 else cons (car x) (append (cdr x) y);
        rot = lambda(l). if (null l) then nil
              else append (rot (cdr l)) (cons (car l) nil);
        use = lambda(l). car (append l (cons 3 l))
     in use [1, 2] + car (rot [3])";
        assert_matches_scratch(&inc, last);
    }

    #[test]
    fn body_only_update_resolves_nothing() {
        let mut inc = Incremental::from_source(BASE).unwrap();
        let edited = BASE.replace("use [1, 2] + car (rot [3])", "use [9] + car (rot [8, 7])");
        inc.update_source(&edited).unwrap();
        assert_eq!(inc.analysis().schedule.sccs_solved, 0);
        assert_eq!(inc.analysis().schedule.sccs_reused, 3);
        assert_matches_scratch(&inc, &edited);
    }
}
