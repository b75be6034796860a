//! Mark phase of the mark–sweep collector.
//!
//! The interpreter and the bytecode VM keep their entire state in
//! explicit structures (control value, frame stack, environments,
//! globals), so the root set is exact — no conservative stack scanning.
//! Marking traverses cells through pairs, and objects (closures, partial
//! applications, primitive applications, capture environments — see
//! [`crate::heap`], *Objects*) through the values they hold, including
//! the tree-walker's environment chains.
//!
//! Roots are registered *by reference* through a [`Marker`]; values are
//! `Copy` and own nothing, so the traversal's worklists hold bare
//! [`CellRef`] and [`ObjRef`] indices. Marks go into the heap's reusable
//! [`Marks`] stamps, one per cell and one per object, and the marked
//! cells are counted as they are set: starting a collection costs
//! nothing proportional to the heap, so a minor collection costs what it
//! reaches, and its sweep what the nursery holds.

use crate::error::RuntimeError;
use crate::heap::{CellRef, GcKind, Heap, Marks, ObjRef};
use crate::value::{Env, Obj, Value};
use std::collections::HashSet;

/// An in-progress mark phase. Register every root with the `root_*`
/// methods, then call [`Marker::finish`] (or [`Marker::finish_minor`])
/// to run the traversal and obtain the marks for [`Heap::sweep`] (or
/// [`Heap::sweep_minor`]).
pub struct Marker {
    marks: Marks,
    seen_envs: HashSet<*const ()>,
    /// Cells whose car/cdr still need scanning.
    cells: Vec<CellRef>,
    /// Marked objects whose contents still need scanning.
    objs: Vec<ObjRef>,
    roots: usize,
}

/// Queues the cell or object `v` refers to.
#[inline]
fn note(marks: &mut Marks, cells: &mut Vec<CellRef>, objs: &mut Vec<ObjRef>, v: &Value<'_>) {
    match *v {
        Value::Pair(c) | Value::Tuple(c) => cells.push(c),
        Value::Closure(o)
        | Value::PartialFunc(o)
        | Value::PrimApp(o)
        | Value::VmClosure { env: o, .. } => {
            if marks.mark_obj(o) {
                objs.push(o);
            }
        }
        Value::Int(_) | Value::Bool(_) | Value::Nil | Value::Prim(_) | Value::Func { .. } => {}
    }
}

impl Marker {
    /// Starts a mark phase over `heap`, taking its mark stamps.
    pub fn new(heap: &mut Heap<'_>) -> Self {
        Marker {
            marks: heap.begin_marks(),
            seen_envs: HashSet::new(),
            cells: Vec::new(),
            objs: Vec::new(),
            roots: 0,
        }
    }

    /// Registers a root value.
    pub fn root_value(&mut self, v: &Value<'_>) {
        self.roots += 1;
        note(&mut self.marks, &mut self.cells, &mut self.objs, v);
    }

    /// Registers a whole environment chain as a root.
    pub fn root_env(&mut self, env: &Env<'_>) {
        self.roots += 1;
        let Marker {
            marks,
            seen_envs,
            cells,
            objs,
            ..
        } = self;
        env.for_each_value(seen_envs, &mut |v| note(marks, cells, objs, v));
    }

    /// Registers a bare cell as a root (e.g. a `DCONS` target held by a
    /// continuation frame).
    pub fn root_cell(&mut self, c: CellRef) {
        self.roots += 1;
        self.cells.push(c);
    }

    /// Registers an object as a root (e.g. a VM frame's capture
    /// environment).
    pub fn root_obj(&mut self, o: ObjRef) {
        self.roots += 1;
        if self.marks.mark_obj(o) {
            self.objs.push(o);
        }
    }

    /// Seeds a **minor** mark phase with the heap's remembered set: the
    /// *referents* of each remembered old cell are roots (the old cell
    /// itself is outside a minor collection's jurisdiction). Dead or
    /// stale entries are skipped.
    pub fn root_remset(&mut self, heap: &Heap<'_>) {
        for &idx in heap.remset_cells() {
            let Some((car, cdr)) = heap.peek(CellRef(idx)) else {
                continue;
            };
            self.roots += 1;
            note(&mut self.marks, &mut self.cells, &mut self.objs, car);
            note(&mut self.marks, &mut self.cells, &mut self.objs, cdr);
        }
    }

    /// Number of roots registered so far (assertable in tests: the root
    /// set is exact, so its size is predictable).
    pub fn roots_seen(&self) -> usize {
        self.roots
    }

    /// Runs the full traversal and returns the marks (for
    /// [`Heap::sweep`]).
    pub fn finish(self, heap: &Heap<'_>) -> Marks {
        self.run(heap, false)
    }

    /// Runs a **minor** traversal: old cells are cut points — they are
    /// neither marked nor traversed into, because a minor collection
    /// cannot free them and every live old→young edge is covered by the
    /// remembered set (seed it with [`Marker::root_remset`]). Region
    /// cells are traversed like young ones: the region, not this
    /// collection, frees them, and they may guard young referents.
    /// Objects are traversed too (a minor frees none, but a young cell
    /// may hang off one). The cell marks are only meaningful for
    /// nursery cells; pass them to [`Heap::sweep_minor`].
    pub fn finish_minor(self, heap: &Heap<'_>) -> Marks {
        self.run(heap, true)
    }

    fn run(mut self, heap: &Heap<'_>, minor: bool) -> Marks {
        let Marker {
            marks,
            seen_envs,
            cells,
            objs,
            ..
        } = &mut self;
        loop {
            while let Some(c) = cells.pop() {
                if marks.cell_done(c.0) {
                    continue;
                }
                if minor && heap.is_old_cell(c.0) {
                    continue; // old generation: a minor never frees it
                }
                let Some((car, cdr)) = heap.peek(c) else {
                    continue; // dead cell: not marked, not traversed
                };
                marks.mark_cell(c.0);
                note(marks, cells, objs, car);
                note(marks, cells, objs, cdr);
            }
            let Some(o) = objs.pop() else {
                break;
            };
            // A dangling reference has nothing to trace; the engine that
            // holds it fails with a typed error when it uses it.
            match heap.obj(o) {
                Ok(Obj::Closure(clo)) => clo
                    .env
                    .for_each_value(seen_envs, &mut |x| note(marks, cells, objs, x)),
                Ok(Obj::Partial(p)) => {
                    for a in &p.applied {
                        note(marks, cells, objs, a);
                    }
                }
                Ok(Obj::PrimApp(p)) => note(marks, cells, objs, &p.first),
                Ok(Obj::Captures(c)) => {
                    for v in &c.values {
                        note(marks, cells, objs, v);
                    }
                }
                Err(_) => {}
            }
        }
        self.marks
    }
}

/// Computes the marks for the given (borrowed) roots. Environments
/// reachable from closures are deduplicated by node address, so shared
/// environment suffixes are traversed once.
pub fn mark<'a, 'p: 'a>(
    heap: &mut Heap<'p>,
    root_values: impl IntoIterator<Item = &'a Value<'p>>,
    root_envs: impl IntoIterator<Item = &'a Env<'p>>,
) -> Marks {
    let mut m = Marker::new(heap);
    for v in root_values {
        m.root_value(v);
    }
    for env in root_envs {
        m.root_env(env);
    }
    m.finish(heap)
}

/// A full mark phase over the roots `roots` registers.
fn full_marks(heap: &mut Heap<'_>, roots: &impl Fn(&mut Marker)) -> Marks {
    let mut m = Marker::new(heap);
    roots(&mut m);
    m.finish(heap)
}

/// Runs the collection a GC poll asks for; `roots` registers the
/// engine's exact root set. Both engines collect through here, so they
/// collect at identical points with identical scopes (the differential
/// suite depends on it). A fault-forced GC is always a full collection
/// (the fault models external memory pressure); otherwise the heap
/// picks minor or major, and a minor that fails to relieve the pressure
/// escalates to a major in the same poll. An object collection follows
/// if the object trigger still asks.
pub(crate) fn collect(heap: &mut Heap<'_>, force_major: bool, roots: impl Fn(&mut Marker)) {
    if force_major || heap.cells_due() {
        if !force_major && heap.collect_kind() == GcKind::Minor {
            let mut m = Marker::new(heap);
            roots(&mut m);
            m.root_remset(heap);
            let marks = m.finish_minor(heap);
            heap.sweep_minor(marks);
        }
        if force_major || heap.cells_due() {
            let marks = full_marks(heap, &roots);
            heap.sweep(marks);
        }
    }
    if heap.objects_due() {
        collect_objects(heap, roots);
    }
}

/// An object collection: a full mark that frees only objects (see
/// [`crate::heap`], *Objects*).
pub(crate) fn collect_objects(heap: &mut Heap<'_>, roots: impl Fn(&mut Marker)) {
    let marks = full_marks(heap, &roots);
    heap.sweep_objects(marks);
}

/// Proves that no cell of the innermost region is reachable from the
/// roots `roots` registers (the engines call it just before the region
/// pops).
///
/// # Errors
///
/// [`RuntimeError::EscapedRegionCell`] naming the first reachable cell.
pub(crate) fn check_region(
    heap: &mut Heap<'_>,
    roots: impl Fn(&mut Marker),
) -> Result<(), RuntimeError> {
    let marks = full_marks(heap, &roots);
    let escaped = heap
        .innermost_region_cells()
        .iter()
        .find(|&&idx| marks.is_marked(CellRef(idx)))
        .copied();
    heap.recycle_marks(marks);
    match escaped {
        Some(cell) => Err(RuntimeError::EscapedRegionCell { cell }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use crate::value::{CaptureEnv, Env, PrimApp};
    use nml_opt::AllocMode;
    use nml_syntax::Symbol;

    const NO_VALUES: [&Value<'static>; 0] = [];
    const NO_ENVS: [&Env<'static>; 0] = [];

    #[test]
    fn unreachable_cells_are_unmarked() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let b = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(a);
        let marks = mark(&mut h, [&root], NO_ENVS);
        assert!(marks.is_marked(a));
        assert!(!marks.is_marked(b));
        assert_eq!(marks.cells_marked(), 1);
    }

    #[test]
    fn marking_follows_spines_and_elements() {
        let mut h = Heap::new(HeapConfig::default());
        let inner = h.alloc(Value::Int(9), Value::Nil, AllocMode::Heap);
        let outer = h.alloc(Value::Pair(inner), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(outer);
        let marks = mark(&mut h, [&root], NO_ENVS);
        assert!(marks.is_marked(inner));
        assert!(marks.is_marked(outer));
    }

    #[test]
    fn env_roots_are_traversed() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let env = Env::empty().bind(Symbol::intern("x"), Value::Pair(c));
        let marks = mark(&mut h, NO_VALUES, [&env]);
        assert!(marks.is_marked(c));
    }

    #[test]
    fn partial_application_roots() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let v = Value::PrimApp(h.alloc_obj(Obj::PrimApp(PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Pair(c),
        })));
        let marks = mark(&mut h, [&v], NO_ENVS);
        assert!(marks.is_marked(c));
    }

    #[test]
    fn cyclic_structures_terminate() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        // Tie a cycle through DCONS-style mutation.
        h.set(a, Value::Int(1), Value::Pair(a)).unwrap();
        let root = Value::Pair(a);
        let marks = mark(&mut h, [&root], NO_ENVS);
        assert!(marks.is_marked(a));
    }

    #[test]
    fn vm_capture_env_roots_are_traversed_once() {
        let mut h = Heap::new(HeapConfig::default());
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let env = h.alloc_obj(Obj::Captures(CaptureEnv {
            values: vec![Value::Pair(c), Value::Int(5)],
            rec: vec![0, 1],
        }));
        let mut m = Marker::new(&mut h);
        // Two closures sharing one capture env: traced once.
        m.root_value(&Value::VmClosure { chunk: 0, env });
        m.root_value(&Value::VmClosure { chunk: 1, env });
        assert_eq!(m.roots_seen(), 2);
        assert_eq!(m.objs.len(), 1, "the shared env is queued once");
        let marks = m.finish(&h);
        assert!(marks.is_marked(c));
    }

    #[test]
    fn major_sweep_frees_unreachable_objects_and_minor_keeps_them() {
        let mut h = Heap::new(HeapConfig::default());
        let young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let kept = h.alloc_obj(Obj::PrimApp(PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Pair(young),
        }));
        let dropped = h.alloc_obj(Obj::PrimApp(PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Int(2),
        }));
        assert_eq!(h.live_objects(), 2);
        // A minor traces the rooted object into the young cell and frees
        // no object.
        let mut m = Marker::new(&mut h);
        m.root_value(&Value::PrimApp(kept));
        let marks = m.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(h.is_live(young), "young cell reached through an object");
        assert_eq!(h.live_objects(), 2, "a minor frees no object");
        let mut m = Marker::new(&mut h);
        m.root_value(&Value::PrimApp(kept));
        let marks = m.finish(&h);
        h.sweep(marks);
        assert_eq!(h.live_objects(), 1);
        assert!(h.prim_app(kept).is_ok());
        assert!(h.obj(dropped).is_err(), "the unreachable object is freed");
    }

    #[test]
    fn an_object_collection_frees_objects_and_touches_no_cell() {
        let mut h = Heap::new(HeapConfig::default());
        let garbage = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let kept = h.alloc_obj(Obj::PrimApp(PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Int(1),
        }));
        let dropped = h.alloc_obj(Obj::PrimApp(PrimApp {
            prim: nml_syntax::Prim::Cons,
            first: Value::Int(2),
        }));
        let mut m = Marker::new(&mut h);
        m.root_value(&Value::PrimApp(kept));
        let marks = m.finish(&h);
        h.sweep_objects(marks);
        assert!(h.prim_app(kept).is_ok());
        assert!(h.obj(dropped).is_err(), "the unreachable object is freed");
        assert!(h.is_live(garbage), "no cell is swept");
        assert_eq!(h.young_len(), 1, "the nursery is untouched");
        assert_eq!(
            (h.stats.gc_runs, h.stats.gc_marked),
            (0, 0),
            "no counter moves"
        );
    }

    #[test]
    fn minor_mark_stops_at_old_cells() {
        let mut h = Heap::new(HeapConfig::default());
        // young ← old ← young chain, rooted at the top young cell.
        let deep_young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let old = h.alloc(Value::Pair(deep_young), Value::Nil, AllocMode::Pretenured);
        let top_young = h.alloc(Value::Pair(old), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(top_young);
        let mut m = Marker::new(&mut h);
        m.root_value(&root);
        let marks = m.finish_minor(&h);
        assert!(marks.is_marked(top_young), "young root marked");
        assert!(!marks.is_marked(old), "old cell is a cut point");
        assert!(
            !marks.is_marked(deep_young),
            "not traversed through the old cell — the remset covers it"
        );
        h.recycle_marks(marks);
        // The alloc-time barrier did record the old→young edge, so the
        // full minor protocol (roots + remset) keeps deep_young alive.
        let mut m = Marker::new(&mut h);
        m.root_value(&root);
        m.root_remset(&h);
        let marks = m.finish_minor(&h);
        assert!(marks.is_marked(deep_young));
    }

    #[test]
    fn minor_mark_traverses_region_cells() {
        let mut h = Heap::new(HeapConfig::default());
        let young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let _r = h.push_region(nml_opt::RegionKind::Stack);
        let region_cell = h.alloc(Value::Pair(young), Value::Nil, AllocMode::Stack);
        let root = Value::Pair(region_cell);
        let mut m = Marker::new(&mut h);
        m.root_value(&root);
        let marks = m.finish_minor(&h);
        assert!(
            marks.is_marked(young),
            "young cell reached through a region cell"
        );
    }

    #[test]
    fn marks_are_fresh_for_every_collection() {
        let mut h = Heap::new(HeapConfig::default());
        let a = h.alloc(Value::Int(1), Value::Nil, AllocMode::Pretenured);
        let root = Value::Pair(a);
        // More collections than the epoch has values: a wrap must not
        // leave a stale mark behind.
        for _ in 0..300 {
            let marks = mark(&mut h, [&root], NO_ENVS);
            assert!(marks.is_marked(a));
            h.recycle_marks(marks);
            let marks = mark(&mut h, NO_VALUES, NO_ENVS);
            assert!(!marks.is_marked(a));
            assert_eq!(marks.cells_marked(), 0);
            h.recycle_marks(marks);
        }
    }

    #[test]
    fn root_count_is_exact() {
        let mut h = Heap::new(HeapConfig::default());
        let mut m = Marker::new(&mut h);
        let v = Value::Int(1);
        let env = Env::empty();
        m.root_value(&v);
        m.root_env(&env);
        m.root_cell(CellRef(0));
        assert_eq!(m.roots_seen(), 3);
    }
}
