//! The instrumented cons heap: generational free-list allocator,
//! stack/block regions, and provenance tags.
//!
//! This is the storage substrate the paper's optimizations act on. Every
//! cell records which (if any) region it was allocated into; regions are
//! a stack of dynamic extents pushed/popped by the interpreter. The
//! garbage collector ([`crate::gc`]) reclaims unmarked heap cells;
//! region cells are reclaimed wholesale at region exit instead.
//!
//! # Generations
//!
//! The heap is always generational: it is split into a **nursery**
//! (young cells) and an **old space**. Because a [`CellRef`] is a
//! stable index — copied freely into values, objects and environments
//! that no collector rewrites — generations are *logical*, not physical: a cell's generation is a
//! flag, promotion flips it, and a cell never moves (a "sticky"
//! generation scheme). The young generation is the `young` index list:
//! every non-region, non-pretenured allocation appends itself, and when
//! the list reaches the configured nursery size a **minor collection**
//! runs:
//!
//! - marking starts from the machine roots *plus the remembered set* and
//!   never traverses into an old cell (old cells are the cut points;
//!   region cells are traversed like young ones, since the region — not
//!   the GC — frees them);
//! - a surviving young cell is **aged** on its first survival and
//!   **promoted** (flag flip, no copy) on its second — one round of
//!   aging, so a working set that happens to be live at one nursery
//!   snapshot but dies soon after is not flooded into the old space;
//! - dead young cells go back to the free list having been visited by
//!   nothing but the young list itself — a minor sweep is O(nursery),
//!   not O(heap). Aged survivors stay on the young list, and remembered-
//!   set entries that still reference young cells are retained.
//!
//! The **remembered set** records cells a minor mark phase would not
//! otherwise traverse — old cells and region cells — that may reference
//! young ones. Three barriers keep it complete: an allocation-time
//! check (a pretenured cell born holding young references), the write
//! barrier in the one mutation door ([`Heap::set`], the `DCONS` write,
//! firing for old *and* region targets), and a promotion-time check in
//! [`Heap::sweep_minor`] (a promoted cell may still hold a young cell a
//! `DCONS` installed while both were young). After each minor, entries
//! that still guard a possibly-young referent are retained; the rest
//! are dropped.
//!
//! **Pretenuring**: sites the escape analysis proves escaping allocate
//! with [`AllocMode::Pretenured`] and are placed directly in the old
//! space — they are guaranteed minor-GC survivors, so the nursery slot
//! and the promotion visit would be pure waste.
//!
//! A **major collection** is a full mark–sweep (triggered by the live
//! threshold, fault-plan capacity pressure, or a forced-GC fault): it
//! frees unmarked cells of either generation and unmarked objects, and
//! rebuilds the young list and remembered set.
//!
//! # Objects
//!
//! Closure-shaped data — tree-walker closures, partial applications,
//! primitive applications and the VM's capture environments
//! ([`crate::value::Obj`]) — lives in a side table of the heap, named by
//! a stable [`ObjRef`] index, so a [`Value`] owns nothing and is `Copy`.
//! The mark phase traces objects alongside cells, and only a full mark
//! frees them:
//!
//! - objects are not cons cells: they do not count as allocations, live
//!   cells or peak live cells, do not feed the cell threshold, and never
//!   consult the fault plan, so no program's cell and collection
//!   sequence depends on them;
//! - a minor collection traces through every reachable object (a young
//!   cell may hang off one) but frees none of them. An object has no
//!   generation, so an old cell holding an object reference stays in the
//!   remembered set, like one holding a young cell;
//! - a major collection sweeps the object table after the cells;
//! - a loop that makes closures and no cells would never reach a cell
//!   trigger, so objects have a trigger of their own: once
//!   [`OBJ_GC_TRIGGER`] objects have been made since the last full
//!   mark, the next poll runs an **object collection** — a major's full
//!   mark followed by `Heap::sweep_objects` alone. It frees no cell
//!   and counts in no statistic, so the cell and collection sequence
//!   of every program, and every counter, is what it would be without
//!   objects. That matters because the tree-walker makes an object for
//!   every application short of a function's arity (each curried call
//!   passes through one) where the VM makes none. Like the cell
//!   threshold, the trigger grows with the objects the last full mark
//!   left live, so a program that keeps many closures live is not
//!   re-marked every few thousand new ones. It does not grow with live
//!   cells: garbage objects would then pile up in proportion to the
//!   cell heap (on the perfbench `run` oracle that cost 5.7 MB of peak
//!   RSS), so a tree-walker run with a large live heap re-marks it once
//!   every [`OBJ_GC_TRIGGER`] curried calls instead. The engines poll
//!   for it where they create objects.

use crate::checked::{AccessKind, ClaimKind, RegionNote, Tombstone};
use crate::error::RuntimeError;
use crate::fault::FaultPlan;
use crate::stats::RuntimeStats;
use crate::value::{CaptureEnv, Closure, Obj, PartialApp, PrimApp, Value};
use nml_opt::{AllocMode, RegionKind, SiteId};
use std::collections::HashMap;
use std::fmt;

/// A reference to a cell in the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CellRef(pub u32);

impl fmt::Display for CellRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cell#{}", self.0)
    }
}

/// A reference to an object in the heap's object table (see the module
/// docs, *Objects*).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ObjRef(pub u32);

/// Objects made since the last full mark at which the next poll runs an
/// object collection (more, if that mark left more objects live than
/// this): the default cell threshold. A closure-only loop therefore
/// holds at most about this many objects; every garbage object waits
/// in memory for the next full mark, so a larger count costs peak
/// memory in curried tree-walker runs.
pub const OBJ_GC_TRIGGER: usize = 1 << 12;

/// The marks of one collection: an epoch stamp per cell and per object
/// (marked ⇔ stamp equals the current epoch), and the number of cells
/// marked, counted as the marks are set. The heap keeps one `Marks`
/// between collections and reuses it, so starting a collection neither
/// allocates nor clears a heap-sized buffer: it bumps the epoch (and
/// zeroes the stamps once every 255 collections, when the epoch wraps).
#[derive(Debug, Default)]
pub struct Marks {
    cells: Vec<u8>,
    objs: Vec<u8>,
    epoch: u8,
    cells_marked: u64,
}

impl Marks {
    /// Starts a new collection over `cells` cells and `objs` objects.
    fn begin(&mut self, cells: usize, objs: usize) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.cells.fill(0);
            self.objs.fill(0);
            self.epoch = 1;
        }
        if self.cells.len() < cells {
            self.cells.resize(cells, 0);
        }
        if self.objs.len() < objs {
            self.objs.resize(objs, 0);
        }
        self.cells_marked = 0;
    }

    /// Whether the cell is marked.
    #[inline]
    pub fn is_marked(&self, c: CellRef) -> bool {
        self.cells.get(c.0 as usize) == Some(&self.epoch)
    }

    /// Number of cells marked.
    pub fn cells_marked(&self) -> u64 {
        self.cells_marked
    }

    /// Marks cell `idx`, which must be in range and not yet marked
    /// ([`Marks::cell_done`] is false).
    #[inline]
    pub(crate) fn mark_cell(&mut self, idx: u32) {
        self.cells[idx as usize] = self.epoch;
        self.cells_marked += 1;
    }

    /// Whether cell `idx` is marked or out of range (nothing to do).
    #[inline]
    pub(crate) fn cell_done(&self, idx: u32) -> bool {
        self.cells
            .get(idx as usize)
            .is_none_or(|&m| m == self.epoch)
    }

    /// Marks object `r`; false if it was already marked or is out of range.
    #[inline]
    pub(crate) fn mark_obj(&mut self, r: ObjRef) -> bool {
        match self.objs.get_mut(r.0 as usize) {
            Some(m) if *m != self.epoch => {
                *m = self.epoch;
                true
            }
            _ => false,
        }
    }

    #[inline]
    fn obj_marked(&self, i: usize) -> bool {
        self.objs.get(i) == Some(&self.epoch)
    }
}

/// Provenance tag for the dynamic (exact) escape semantics: which
/// interesting argument the cell belongs to and which spine (counted from
/// the bottom, as in the paper's `⟨1,i⟩`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProvTag {
    /// 0-based argument index.
    pub arg: u8,
    /// Spine level, counted from the bottom (top spine of an `s`-spine
    /// list has level `s`).
    pub level: u8,
}

/// An identifier of an active region (index in the region stack plus a
/// generation to catch mismatched pops).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionId(pub u64);

/// Which collection to run (see [`Heap::collect_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GcKind {
    /// Scan the nursery only, promote survivors.
    Minor,
    /// Full mark–sweep over both generations.
    Major,
}

/// Cell flag: the cell is allocated (not on the free list / tombstoned).
const F_LIVE: u8 = 1;
/// Cell flag: the cell belongs to the old generation.
const F_OLD: u8 = 1 << 1;
/// Cell flag: the cell is already in the remembered set.
const F_REMSET: u8 = 1 << 2;
/// Cell flag: the cell has survived one minor collection. A second
/// survival promotes it — one round of aging keeps a medium-lived
/// working set (live at a nursery snapshot, dead shortly after) from
/// flooding the old generation with cells only a major can reclaim.
const F_AGE: u8 = 1 << 3;

/// Sentinel for "no region" in [`Cell::region`].
const NO_REGION: u64 = u64::MAX;
/// Sentinel for "no claim site" in [`Cell::claim_site`].
const NO_SITE: u32 = u32::MAX;

/// One cons cell, packed to 48 bytes (pinned by test): two 16-byte
/// compact [`Value`]s plus sentinel-encoded region/claim words and a
/// flag byte — `Option` wrappers on the metadata would push the struct
/// past the next alignment step and fatten every heap by a third.
#[derive(Debug)]
struct Cell<'p> {
    car: Value<'p>,
    cdr: Value<'p>,
    /// Generation id of the region the cell was allocated into
    /// ([`NO_REGION`] for ordinary heap cells).
    region: u64,
    /// Checked mode: the site whose escape claim licensed this cell's
    /// optimized placement ([`NO_SITE`] for plain heap cells or
    /// unchecked runs).
    claim_site: u32,
    tag: Option<ProvTag>,
    flags: u8,
}

impl Cell<'_> {
    #[inline]
    fn live(&self) -> bool {
        self.flags & F_LIVE != 0
    }

    #[inline]
    fn old(&self) -> bool {
        self.flags & F_OLD != 0
    }
}

#[derive(Debug)]
struct Region {
    id: u64,
    kind: RegionKind,
    cells: Vec<u32>,
}

/// Heap configuration.
#[derive(Debug, Clone)]
pub struct HeapConfig {
    /// Run the garbage collector when live heap cells exceed this count
    /// (the threshold grows if the heap stays mostly live).
    pub gc_threshold: usize,
    /// Disable GC entirely (pure allocation counting).
    pub gc_enabled: bool,
    /// Checked-optimization mode: claim-driven frees (region pops,
    /// `DCONS` retirement) tombstone their cells instead of recycling
    /// them, and any access to a tombstone is a structured
    /// [`RuntimeError::Soundness`] naming the site that made the claim.
    pub checked: bool,
    /// Nursery size in KiB (converted to a cell count). The heap is
    /// always generational: allocations go into the nursery and a minor
    /// collection, which scans only young cells, runs when it fills.
    pub nursery_kb: usize,
}

impl Default for HeapConfig {
    fn default() -> Self {
        HeapConfig {
            gc_threshold: 4096,
            gc_enabled: true,
            checked: false,
            nursery_kb: 256,
        }
    }
}

impl HeapConfig {
    /// The nursery size in cells implied by [`HeapConfig::nursery_kb`]
    /// (at least 8, so pathological configurations still make progress).
    pub fn nursery_cells(&self) -> usize {
        (self.nursery_kb * 1024 / std::mem::size_of::<Cell<'_>>()).max(8)
    }
}

/// The instrumented cons heap.
#[derive(Debug)]
pub struct Heap<'p> {
    cells: Vec<Cell<'p>>,
    free: Vec<u32>,
    regions: Vec<Region>,
    next_region_id: u64,
    live: u64,
    threshold: usize,
    config: HeapConfig,
    /// Instrumentation counters (shared with the interpreter).
    pub stats: RuntimeStats,
    /// Per-allocation-site counters (cells allocated by each `cons`
    /// site), for hot-site profiling. Site ids are dense, so these are
    /// flat arrays indexed by [`SiteId`] rather than hash maps — site
    /// attribution sits on the allocation fast path.
    site_allocs: Vec<u64>,
    /// Per-site `DCONS` reuse counters.
    site_reuses: Vec<u64>,
    /// Active fault-injection schedule (inert by default).
    fault: FaultPlan,
    /// Checked mode: quarantined remains of claim-freed cells, keyed by
    /// cell index. Tombstoned indices never return to the free list, so
    /// a key here stays valid for the life of the heap.
    tombstones: HashMap<u32, Tombstone>,
    /// Indices of nursery cells, in allocation order. Emptied by every
    /// collection (minor: promote-or-free; major: rebuilt from
    /// survivors).
    young: Vec<u32>,
    /// Old cells that may hold a reference to a young cell (see the
    /// module docs). May contain stale indices of since-freed cells;
    /// consumers skip dead entries.
    remset: Vec<u32>,
    /// Nursery capacity in cells (derived from the config).
    nursery_cells: usize,
    /// Live old-generation cells (pretenured + promoted), for
    /// observability and tests.
    old_live: u64,
    /// The object table; `None` marks a free slot.
    objs: Vec<Option<Obj<'p>>>,
    /// Free object slots.
    obj_free: Vec<u32>,
    /// Live objects.
    obj_live: usize,
    /// The most objects ever live at once.
    obj_peak: usize,
    /// Live objects at which the next poll runs an object collection.
    obj_limit: usize,
    /// The mark stamps, kept between collections (see [`Marks`]).
    marks: Marks,
}

impl<'p> Heap<'p> {
    /// Creates an empty heap.
    pub fn new(config: HeapConfig) -> Self {
        let threshold = config.gc_threshold;
        let nursery_cells = config.nursery_cells();
        Heap {
            cells: Vec::new(),
            free: Vec::new(),
            regions: Vec::new(),
            next_region_id: 0,
            live: 0,
            threshold,
            config,
            stats: RuntimeStats::default(),
            site_allocs: Vec::new(),
            site_reuses: Vec::new(),
            fault: FaultPlan::default(),
            tombstones: HashMap::new(),
            // Pre-size the nursery index list (bounded for pathological
            // configurations) so steady-state allocation never grows it.
            young: Vec::with_capacity(nursery_cells.min(1 << 16)),
            remset: Vec::new(),
            nursery_cells,
            old_live: 0,
            objs: Vec::new(),
            obj_free: Vec::new(),
            obj_live: 0,
            obj_peak: 0,
            obj_limit: OBJ_GC_TRIGGER,
            marks: Marks::default(),
        }
    }

    /// Number of cells currently in the nursery.
    pub fn young_len(&self) -> usize {
        self.young.len()
    }

    /// Number of live old-generation cells (pretenured + promoted).
    pub fn old_live(&self) -> u64 {
        self.old_live
    }

    /// Size of the remembered set (old cells registered as possibly
    /// referencing young ones).
    pub fn remset_len(&self) -> usize {
        self.remset.len()
    }

    /// Installs a fault-injection schedule.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = plan;
    }

    /// Number of live cells.
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Total cells ever created (heap footprint).
    pub fn footprint(&self) -> usize {
        self.cells.len()
    }

    /// Number of live objects (closures, partial and primitive
    /// applications, capture environments).
    pub fn live_objects(&self) -> usize {
        self.obj_live
    }

    /// The most objects ever live at once.
    pub fn peak_objects(&self) -> usize {
        self.obj_peak
    }

    /// Whether enough objects have been made since the last full mark
    /// that the next poll must run an object collection (see the module
    /// docs, *Objects*).
    #[inline]
    pub(crate) fn objects_due(&self) -> bool {
        self.config.gc_enabled && self.obj_live >= self.obj_limit
    }

    /// Whether the engines should run a GC at this poll: a cell
    /// collection (`cells_due`) or an object collection (`objects_due`).
    #[inline]
    pub fn should_collect(&self) -> bool {
        self.cells_due() || self.objects_due()
    }

    /// Whether the engines should run a cell collection before the next
    /// heap allocation — because the nursery filled, the live threshold
    /// was crossed, or the fault plan's heap capacity is under pressure
    /// (capacity pressure ignores the free list: free cells do not
    /// reduce the live count).
    #[inline]
    pub(crate) fn cells_due(&self) -> bool {
        if !self.config.gc_enabled {
            return false;
        }
        if self.young.len() >= self.nursery_cells {
            return true;
        }
        if self.live as usize >= self.threshold && self.free.is_empty() {
            return true;
        }
        self.fault
            .heap_capacity()
            .is_some_and(|cap| self.live >= cap)
    }

    /// Which collection the next GC should be. Minor collections only
    /// help when there are young cells to scan, so an empty nursery
    /// demands a full collection, as does fault-plan
    /// capacity pressure (capacity ignores the free list, which is all
    /// a minor can refill). Ordinary threshold pressure stays minor:
    /// most young cells are usually dead, and the engines escalate to a
    /// major in the same poll when a minor fails to relieve pressure —
    /// so a mostly-live nursery (e.g. one big list under construction)
    /// still reaches the threshold-doubling major instead of thrashing.
    pub fn collect_kind(&self) -> GcKind {
        if self.young.is_empty() {
            return GcKind::Major;
        }
        if self
            .fault
            .heap_capacity()
            .is_some_and(|cap| self.live >= cap)
        {
            return GcKind::Major;
        }
        GcKind::Minor
    }

    /// Consumes a fault-forced GC request, if one is pending.
    pub fn take_forced_gc(&mut self) -> bool {
        if self.fault.take_gc_request() {
            self.stats.forced_gcs += 1;
            true
        } else {
            false
        }
    }

    /// Whether the fault plan turns this `DCONS` reuse into a fresh heap
    /// allocation.
    pub fn fault_dcons_retreat(&mut self) -> bool {
        if self.fault.retreat_alloc() {
            self.stats.fault_dcons_retreats += 1;
            true
        } else {
            false
        }
    }

    /// Whether the fault plan denies this region push.
    pub fn fault_deny_region(&mut self) -> bool {
        if self.fault.deny_region() {
            self.stats.fault_region_denials += 1;
            true
        } else {
            false
        }
    }

    /// Allocates a cell outside the fault plan's jurisdiction (harness
    /// helpers, test fixtures). Stack/block modes allocate into the
    /// innermost region of the matching kind, falling back to the heap
    /// (with a statistic) when no such region is active.
    pub fn alloc(&mut self, car: Value<'p>, cdr: Value<'p>, mode: AllocMode) -> CellRef {
        self.alloc_raw(car, cdr, mode, None)
    }

    /// Builds a proper list of `items` from plain heap cells (harness
    /// helper: no site, no fault plan).
    pub fn make_list(&mut self, items: impl IntoIterator<Item = Value<'p>>) -> Value<'p> {
        let items: Vec<Value<'p>> = items.into_iter().collect();
        let mut acc = Value::Nil;
        for v in items.into_iter().rev() {
            acc = Value::Pair(self.alloc(v, acc, AllocMode::Heap));
        }
        acc
    }

    /// Reads a list of integers back out of the heap.
    ///
    /// # Errors
    ///
    /// Type mismatches if the value is not a proper `int list`, or
    /// [`RuntimeError::UseAfterFree`] for dangling cells.
    pub fn read_int_list(&self, mut v: Value<'p>) -> Result<Vec<i64>, RuntimeError> {
        let mismatch = |expected, found: Value<'_>| RuntimeError::TypeMismatch {
            expected,
            found: found.kind(),
            op: "read_int_list",
        };
        let mut out = Vec::new();
        loop {
            let c = match v {
                Value::Nil => return Ok(out),
                Value::Pair(c) => c,
                other => return Err(mismatch("list", other)),
            };
            match self.car(c)? {
                Value::Int(n) => out.push(n),
                other => return Err(mismatch("int", other)),
            }
            v = self.cdr(c)?;
        }
    }

    /// A *program* allocation, with site attribution and fault injection:
    /// optimized modes may retreat to plain heap `CONS`, and a bounded
    /// heap may refuse the allocation outright.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::OutOfMemory`] when the fault plan bounds the heap
    /// and the bound is reached (the interpreter runs a rescue GC before
    /// every step, so by this point collection has already been tried).
    pub fn alloc_at(
        &mut self,
        car: Value<'p>,
        cdr: Value<'p>,
        mode: AllocMode,
        site: Option<SiteId>,
    ) -> Result<CellRef, RuntimeError> {
        self.fault.note_alloc();
        // Only region modes retreat: a retreat models a *region* refusing
        // an allocation, and pretenuring is a placement hint with no
        // region to refuse.
        let mode =
            if matches!(mode, AllocMode::Stack | AllocMode::Block) && self.fault.retreat_alloc() {
                self.stats.fault_alloc_retreats += 1;
                AllocMode::Heap
            } else {
                mode
            };
        if let Some(cap) = self.fault.heap_capacity() {
            if self.live >= cap {
                return Err(RuntimeError::OutOfMemory {
                    live: self.live,
                    capacity: cap,
                });
            }
        }
        Ok(self.alloc_raw(car, cdr, mode, site))
    }

    /// The bytecode engine's inline allocation path: skips the fault-plan
    /// bookkeeping of [`Heap::alloc_at`] entirely. **Callers must have
    /// checked that the fault plan is inert**
    /// ([`FaultPlan::is_active`] is false) — with no plan there are no
    /// allocation ticks to record, no retreats to roll, and no capacity
    /// bound to enforce, so this is observationally identical to
    /// `alloc_at` while staying a straight-line allocation.
    #[inline]
    pub fn alloc_fast(
        &mut self,
        car: Value<'p>,
        cdr: Value<'p>,
        mode: AllocMode,
        site: SiteId,
    ) -> CellRef {
        self.alloc_raw(car, cdr, mode, Some(site))
    }

    fn alloc_raw(
        &mut self,
        car: Value<'p>,
        cdr: Value<'p>,
        mode: AllocMode,
        site: Option<SiteId>,
    ) -> CellRef {
        if let Some(site) = site {
            bump_site(&mut self.site_allocs, site);
        }
        let wanted = match mode {
            // An `Elided` mark reaching the allocator means the engine
            // chose not to scalarize the site (tree-walker, or a VM
            // fallback): it is a plain heap cons.
            AllocMode::Heap | AllocMode::Pretenured | AllocMode::Elided => None,
            AllocMode::Stack => Some(RegionKind::Stack),
            AllocMode::Block => Some(RegionKind::Block),
        };
        let region_idx = wanted.and_then(|k| {
            let idx = self.regions.iter().rposition(|r| r.kind == k);
            if idx.is_none() {
                self.stats.region_fallbacks += 1;
            }
            idx
        });
        match (mode, region_idx.is_some()) {
            (AllocMode::Heap | AllocMode::Elided | AllocMode::Pretenured, _) => {
                self.stats.heap_allocs += 1
            }
            (AllocMode::Stack, true) => self.stats.stack_allocs += 1,
            (AllocMode::Block, true) => self.stats.block_allocs += 1,
            (_, false) => self.stats.heap_allocs += 1,
        }
        let region_gen = region_idx.map(|i| self.regions[i].id);
        // In checked mode, region-placed cells carry the site whose
        // escape claim put them there; heap cells carry no claim.
        let claim_site = if self.config.checked && region_gen.is_some() {
            site
        } else {
            None
        };
        // Generation routing. Region cells are *neither* generation —
        // the region, not the GC, frees them. Everything else is old
        // when the site is pretenured, or when the nursery is full and
        // no collection has run (GC disabled, or harness allocations
        // between polls).
        let old = if region_gen.is_some() {
            false
        } else if mode == AllocMode::Pretenured {
            self.stats.pretenured += 1;
            true
        } else if self.young.len() >= self.nursery_cells {
            self.stats.nursery_fallbacks += 1;
            true
        } else {
            false
        };
        let mut flags = F_LIVE;
        if old {
            flags |= F_OLD;
        }
        let cell = Cell {
            car,
            cdr,
            tag: None,
            region: region_gen.unwrap_or(NO_REGION),
            claim_site: claim_site.map_or(NO_SITE, |s| s.0),
            flags,
        };
        let idx = if let Some(i) = self.free.pop() {
            self.stats.freelist_reuses += 1;
            self.cells[i as usize] = cell;
            i
        } else {
            self.cells.push(cell);
            (self.cells.len() - 1) as u32
        };
        if let Some(r) = region_idx {
            self.regions[r].cells.push(idx);
        }
        if old {
            self.old_live += 1;
            // Allocation-time barrier: an old cell born holding a young
            // reference is an old→young edge the next minor must know
            // about.
            if self.may_ref_young(&car) || self.may_ref_young(&cdr) {
                self.remember(idx);
            }
        } else if region_gen.is_none() {
            self.young.push(idx);
        }
        self.live += 1;
        self.stats.peak_live = self.stats.peak_live.max(self.live);
        CellRef(idx)
    }

    /// Conservative test: can `v` lead to a non-old cell? Direct cell
    /// references check the target's generation; closure-shaped values
    /// drag whole environments, and scanning those at every write would
    /// cost more than a (harmless) remembered-set entry.
    fn may_ref_young(&self, v: &Value<'p>) -> bool {
        match v {
            Value::Int(_) | Value::Bool(_) | Value::Nil | Value::Prim(_) | Value::Func { .. } => {
                false
            }
            Value::Pair(c) | Value::Tuple(c) => {
                self.cells.get(c.0 as usize).is_some_and(|cell| !cell.old())
            }
            Value::Closure(_)
            | Value::PartialFunc(_)
            | Value::PrimApp(_)
            | Value::VmClosure { .. } => true,
        }
    }

    /// Adds an old cell to the remembered set (idempotent via the
    /// [`F_REMSET`] flag).
    fn remember(&mut self, idx: u32) {
        let cell = &mut self.cells[idx as usize];
        if cell.flags & F_REMSET == 0 {
            cell.flags |= F_REMSET;
            self.remset.push(idx);
        }
    }

    #[inline(always)]
    fn cell_at(&self, r: CellRef, access: AccessKind) -> Result<&Cell<'p>, RuntimeError> {
        // The tombstone map is only ever populated in checked mode; skip
        // the hash probe on the (hot) unchecked access path.
        if !self.tombstones.is_empty() {
            self.check_tombstone(r, access)?;
        }
        match self.cells.get(r.0 as usize) {
            Some(c) if c.live() => Ok(c),
            _ => Err(RuntimeError::UseAfterFree { cell: r.0 }),
        }
    }

    /// The checked-mode half of [`Heap::cell_at`], kept out of line.
    #[cold]
    fn check_tombstone(&self, r: CellRef, access: AccessKind) -> Result<(), RuntimeError> {
        match self.tombstones.get(&r.0) {
            Some(t) => Err(RuntimeError::Soundness(Box::new(t.violation(r.0, access)))),
            None => Ok(()),
        }
    }

    /// Records a `DCONS` reuse at `site`.
    pub fn record_reuse(&mut self, site: SiteId) {
        bump_site(&mut self.site_reuses, site);
    }

    /// The allocation sites ranked by cell count, hottest first.
    pub fn hot_sites(&self) -> Vec<(SiteId, u64)> {
        rank_sites(&self.site_allocs)
    }

    /// Per-site `DCONS` reuse counts, hottest first.
    pub fn hot_reuse_sites(&self) -> Vec<(SiteId, u64)> {
        rank_sites(&self.site_reuses)
    }

    /// The head of a cell.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::UseAfterFree`] if the cell has been reclaimed —
    /// which can only happen if an *unsound* storage annotation freed a
    /// cell that was still reachable.
    #[inline(always)]
    pub fn car(&self, r: CellRef) -> Result<Value<'p>, RuntimeError> {
        Ok(self.cell_at(r, AccessKind::Car)?.car)
    }

    /// The tail of a cell (same errors as [`Heap::car`]).
    #[inline(always)]
    pub fn cdr(&self, r: CellRef) -> Result<Value<'p>, RuntimeError> {
        Ok(self.cell_at(r, AccessKind::Cdr)?.cdr)
    }

    /// Overwrites a cell in place (`DCONS`). This is the heap's only
    /// mutation door, so it carries the generational **write barrier**:
    /// storing a possibly-young reference into an old cell records the
    /// cell in the remembered set.
    pub fn set(&mut self, r: CellRef, car: Value<'p>, cdr: Value<'p>) -> Result<(), RuntimeError> {
        self.cell_at(r, AccessKind::Set)?; // liveness check

        // The barrier fires for any cell a minor mark phase will not
        // traverse unconditionally: old cells (cut points) *and* region
        // cells (only reached through whatever references them — which
        // may be an old cut point). Without the region case, an
        // old→region→young chain built by DCONS would hide the young
        // cell from the next minor.
        let c = &self.cells[r.0 as usize];
        let barrier = (c.old() || c.region != NO_REGION)
            && c.flags & F_REMSET == 0
            && (self.may_ref_young(&car) || self.may_ref_young(&cdr));
        let c = &mut self.cells[r.0 as usize];
        c.car = car;
        c.cdr = cdr;
        if barrier {
            self.remember(r.0);
        }
        Ok(())
    }

    /// The provenance tag of a cell, if any.
    pub fn tag(&self, r: CellRef) -> Result<Option<ProvTag>, RuntimeError> {
        Ok(self.cell_at(r, AccessKind::Tag)?.tag)
    }

    /// Sets the provenance tag of a cell.
    pub fn set_tag(&mut self, r: CellRef, tag: ProvTag) -> Result<(), RuntimeError> {
        self.cell_at(r, AccessKind::Tag)?;
        self.cells[r.0 as usize].tag = Some(tag);
        Ok(())
    }

    /// Pushes a new region of the given kind.
    pub fn push_region(&mut self, kind: RegionKind) -> RegionId {
        let id = self.next_region_id;
        self.next_region_id += 1;
        self.regions.push(Region {
            id,
            kind,
            cells: Vec::new(),
        });
        RegionId(id)
    }

    /// Pops the innermost region, freeing all its cells. In checked mode
    /// the cells are tombstoned instead of recycled: the pop records a
    /// per-cell [`Tombstone`] (claim site, region backtrace) and the
    /// indices never return to the free list, so any later access is a
    /// [`RuntimeError::Soundness`] rather than silent reuse.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::RegionMismatch`] if `id` is not the innermost
    /// region (regions are strictly nested) or no region is active. The
    /// region stack is left untouched in that case.
    pub fn pop_region(&mut self, id: RegionId) -> Result<(), RuntimeError> {
        let expected = self.regions.last().map(|r| r.id);
        if expected != Some(id.0) {
            return Err(RuntimeError::RegionMismatch {
                expected,
                got: id.0,
            });
        }
        let Some(region) = self.regions.pop() else {
            return Err(RuntimeError::RegionMismatch {
                expected: None,
                got: id.0,
            });
        };
        let n = region.cells.len() as u64;
        let freed_by = Some(RegionNote {
            id: region.id,
            kind: region.kind,
        });
        // Regions still active after the pop — the backtrace every
        // tombstone from this pop shares.
        let backtrace: Vec<RegionNote> = if self.config.checked {
            self.regions
                .iter()
                .map(|r| RegionNote {
                    id: r.id,
                    kind: r.kind,
                })
                .collect()
        } else {
            Vec::new()
        };
        for idx in region.cells {
            let cell = &mut self.cells[idx as usize];
            if !cell.live() {
                continue;
            }
            cell.flags &= !F_LIVE;
            cell.region = NO_REGION;
            self.live -= 1;
            if self.config.checked {
                // Quarantine: remember the claim.
                let site = (cell.claim_site != NO_SITE).then_some(SiteId(cell.claim_site));
                cell.claim_site = NO_SITE;
                self.tombstones.insert(
                    idx,
                    Tombstone {
                        site,
                        claim: ClaimKind::from(region.kind),
                        freed_by,
                        regions: backtrace.clone(),
                    },
                );
                self.stats.tombstoned += 1;
            } else {
                self.free.push(idx);
            }
        }
        match region.kind {
            RegionKind::Stack => self.stats.stack_freed += n,
            RegionKind::Block => {
                self.stats.block_freed += n;
                self.stats.block_frees += 1;
            }
        }
        Ok(())
    }

    /// Checked-mode `DCONS` retirement: the reuse claim says `r` is
    /// unshared and dead, so quarantine it. The interpreter allocates a
    /// fresh cell for the new payload first, then retires the old one
    /// through this — any later access to `r` proves the claim wrong.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Soundness`] if `r` is already tombstoned (a
    /// double-retirement is itself a wrong claim);
    /// [`RuntimeError::UseAfterFree`] if it was GC-reclaimed.
    pub fn retire_reused(&mut self, r: CellRef, site: Option<SiteId>) -> Result<(), RuntimeError> {
        self.cell_at(r, AccessKind::Set)?;
        let backtrace: Vec<RegionNote> = self
            .regions
            .iter()
            .map(|reg| RegionNote {
                id: reg.id,
                kind: reg.kind,
            })
            .collect();
        let cell = &mut self.cells[r.0 as usize];
        let was_old = cell.old();
        cell.flags &= !F_LIVE;
        cell.region = NO_REGION;
        cell.claim_site = NO_SITE;
        self.live -= 1;
        if was_old {
            self.old_live -= 1;
        }
        self.tombstones.insert(
            r.0,
            Tombstone {
                site,
                claim: ClaimKind::Reuse,
                freed_by: None,
                regions: backtrace,
            },
        );
        self.stats.tombstoned += 1;
        Ok(())
    }

    /// Number of tombstoned cells (checked-mode quarantine footprint).
    pub fn tombstone_count(&self) -> usize {
        self.tombstones.len()
    }

    /// Whether checked mode has tombstoned this cell.
    pub fn is_tombstoned(&self, r: CellRef) -> bool {
        self.tombstones.contains_key(&r.0)
    }

    /// The cells currently belonging to the innermost region (for
    /// validation before popping).
    pub fn innermost_region_cells(&self) -> &[u32] {
        self.regions
            .last()
            .map(|r| r.cells.as_slice())
            .unwrap_or(&[])
    }

    /// Whether any region is active.
    pub fn in_region(&self) -> bool {
        !self.regions.is_empty()
    }

    /// Major collection sweep: frees every unmarked, region-free cell of
    /// either generation and every unmarked object. `marks` must be the
    /// result of a full mark phase over all roots. Region cells are
    /// skipped: they are reclaimed at region exit. Surviving young cells
    /// are promoted — they lived through a full collection — leaving the
    /// nursery empty and the remembered set clearable wholesale.
    pub fn sweep(&mut self, marks: Marks) {
        self.stats.gc_runs += 1;
        self.stats.major_gcs += 1;
        self.stats.gc_marked += marks.cells_marked;
        self.stats.gc_sweep_visits += self.cells.len() as u64;
        for (i, cell) in self.cells.iter_mut().enumerate() {
            if cell.live() && cell.region == NO_REGION && !marks.is_marked(CellRef(i as u32)) {
                if cell.old() {
                    self.old_live -= 1;
                }
                cell.flags &= !F_LIVE;
                self.free.push(i as u32);
                self.live -= 1;
                self.stats.gc_swept += 1;
            }
        }
        let young = std::mem::take(&mut self.young);
        for idx in young {
            let cell = &mut self.cells[idx as usize];
            if cell.live() && !cell.old() {
                cell.flags = (cell.flags & !F_AGE) | F_OLD;
                self.old_live += 1;
                self.stats.promoted += 1;
            }
        }
        self.clear_remset();
        // If the heap is still mostly live, raise the threshold so we do
        // not thrash.
        if self.live as usize * 2 > self.threshold {
            self.threshold *= 2;
        }
        self.sweep_objects(marks);
    }

    /// Object sweep: frees every unmarked object, and sets the object
    /// trigger for the next collection. `marks` must come from a full
    /// mark phase over all roots. On its own — an object collection,
    /// when [`Heap::objects_due`] — it leaves every cell and every
    /// counter as it is; [`Heap::sweep`] ends with it.
    pub(crate) fn sweep_objects(&mut self, marks: Marks) {
        for (i, slot) in self.objs.iter_mut().enumerate() {
            if slot.is_some() && !marks.obj_marked(i) {
                *slot = None;
                self.obj_free.push(i as u32);
                self.obj_live -= 1;
            }
        }
        self.obj_limit = self.obj_live + OBJ_GC_TRIGGER.max(self.obj_live);
        self.marks = marks;
    }

    /// Minor collection sweep: visits *only* the nursery. `marked` must
    /// come from a minor mark phase (roots + remembered set, old cells
    /// as cut points). A marked young cell is aged in place on its first
    /// survival and promoted — a flag flip, cells never move — on its
    /// second. Because aged survivors stay young, old→young edges can
    /// outlive the collection: the remembered set is filtered, not
    /// cleared, and freshly promoted cells that still hold young
    /// references (a DCONS can install a *newer* cell into an older one)
    /// are added to it. Objects are left alone: only a full mark frees
    /// them.
    pub fn sweep_minor(&mut self, marks: Marks) {
        self.stats.gc_runs += 1;
        self.stats.minor_gcs += 1;
        self.stats.gc_marked += marks.cells_marked;
        self.stats.gc_sweep_visits += self.young.len() as u64;
        // In-place survivor compaction: the young list keeps its
        // capacity across minors (a fresh Vec per collection would
        // reallocate up to nursery size every cycle).
        let mut promoted: Vec<u32> = Vec::new();
        let mut w = 0;
        for r in 0..self.young.len() {
            let idx = self.young[r];
            let cell = &mut self.cells[idx as usize];
            if !cell.live() {
                // Tombstoned (checked-mode retirement) under us:
                // quarantined indices never rejoin the free list.
                continue;
            }
            if marks.is_marked(CellRef(idx)) {
                if cell.flags & F_AGE != 0 {
                    cell.flags = (cell.flags & !F_AGE) | F_OLD;
                    self.old_live += 1;
                    self.stats.promoted += 1;
                    promoted.push(idx);
                } else {
                    cell.flags |= F_AGE;
                    self.young[w] = idx;
                    w += 1;
                }
            } else {
                cell.flags &= !F_LIVE;
                self.free.push(idx);
                self.live -= 1;
                self.stats.gc_swept += 1;
            }
        }
        self.young.truncate(w);
        self.marks = marks;
        // Promotion-time barrier: a cell crossing into the old
        // generation may still reference young (aged) cells — an edge
        // that was young→young when written and is old→young now. The
        // check runs after the whole pass so every referent's final
        // generation is settled.
        for idx in promoted {
            let refs_young = {
                let cell = &self.cells[idx as usize];
                self.may_ref_young(&cell.car) || self.may_ref_young(&cell.cdr)
            };
            if refs_young {
                self.remember(idx);
            }
        }
        // Aged survivors are still young, so an old→young edge can
        // outlive the collection: retain exactly the remembered cells
        // that still reference young ones (same in-place compaction).
        let mut w = 0;
        for r in 0..self.remset.len() {
            let idx = self.remset[r];
            let keep = {
                let cell = &self.cells[idx as usize];
                cell.live() && (self.may_ref_young(&cell.car) || self.may_ref_young(&cell.cdr))
            };
            if keep {
                self.remset[w] = idx;
                w += 1;
            } else {
                self.cells[idx as usize].flags &= !F_REMSET;
            }
        }
        self.remset.truncate(w);
    }

    /// Drops every remembered-set entry and its flag. Sound only when
    /// the nursery is empty — a major sweep guarantees it on exit by
    /// promoting every young survivor.
    fn clear_remset(&mut self) {
        let remset = std::mem::take(&mut self.remset);
        for idx in remset {
            if let Some(cell) = self.cells.get_mut(idx as usize) {
                cell.flags &= !F_REMSET;
            }
        }
    }

    /// Hands the reusable mark stamps to a new mark phase, sized to the
    /// heap and advanced to a fresh epoch. [`Heap::sweep`],
    /// [`Heap::sweep_minor`] or [`Heap::recycle_marks`] gives them back.
    pub(crate) fn begin_marks(&mut self) -> Marks {
        let mut marks = std::mem::take(&mut self.marks);
        marks.begin(self.cells.len(), self.objs.len());
        marks
    }

    /// Takes back mark stamps that were only read (region validation).
    pub(crate) fn recycle_marks(&mut self, marks: Marks) {
        self.marks = marks;
    }

    /// Adds an object to the table. Objects are not cells: no counter,
    /// threshold or fault decision sees them.
    pub(crate) fn alloc_obj(&mut self, obj: Obj<'p>) -> ObjRef {
        self.obj_live += 1;
        self.obj_peak = self.obj_peak.max(self.obj_live);
        if let Some(i) = self.obj_free.pop() {
            self.objs[i as usize] = Some(obj);
            ObjRef(i)
        } else {
            self.objs.push(Some(obj));
            ObjRef((self.objs.len() - 1) as u32)
        }
    }

    /// A live object.
    ///
    /// # Errors
    ///
    /// [`RuntimeError::Internal`] for a freed or out-of-range reference
    /// (a value the mark phase failed to see).
    #[inline]
    pub fn obj(&self, r: ObjRef) -> Result<&Obj<'p>, RuntimeError> {
        match self.objs.get(r.0 as usize).and_then(Option::as_ref) {
            Some(o) => Ok(o),
            None => Err(RuntimeError::Internal {
                what: "dangling object reference",
            }),
        }
    }

    /// A VM capture environment (errors as [`Heap::obj`], or for another
    /// kind of object).
    #[inline]
    pub(crate) fn captures(&self, r: ObjRef) -> Result<&CaptureEnv<'p>, RuntimeError> {
        match self.obj(r)? {
            Obj::Captures(c) => Ok(c),
            _ => Err(wrong_obj()),
        }
    }

    /// A tree-walker closure (errors as [`Heap::captures`]).
    pub(crate) fn closure(&self, r: ObjRef) -> Result<&Closure<'p>, RuntimeError> {
        match self.obj(r)? {
            Obj::Closure(c) => Ok(c),
            _ => Err(wrong_obj()),
        }
    }

    /// A partial application (errors as [`Heap::captures`]).
    pub(crate) fn partial(&self, r: ObjRef) -> Result<&PartialApp<'p>, RuntimeError> {
        match self.obj(r)? {
            Obj::Partial(p) => Ok(p),
            _ => Err(wrong_obj()),
        }
    }

    /// A primitive application (errors as [`Heap::captures`]).
    pub(crate) fn prim_app(&self, r: ObjRef) -> Result<&PrimApp<'p>, RuntimeError> {
        match self.obj(r)? {
            Obj::PrimApp(p) => Ok(p),
            _ => Err(wrong_obj()),
        }
    }

    /// Whether the cell is live (test/validation helper).
    pub fn is_live(&self, r: CellRef) -> bool {
        self.cells
            .get(r.0 as usize)
            .map(|c| c.live())
            .unwrap_or(false)
    }

    /// Whether the cell belongs to the old generation (pretenured or
    /// promoted). Region cells and nursery cells are not old.
    pub fn is_old(&self, r: CellRef) -> bool {
        self.cells
            .get(r.0 as usize)
            .map(|c| c.live() && c.old())
            .unwrap_or(false)
    }

    /// Borrows a live cell's fields for the GC mark phase, with none of
    /// the access bookkeeping of [`Heap::car`]/[`Heap::cdr`] (marking is
    /// not a program access). Returns `None` for dead or out-of-range
    /// cells.
    pub(crate) fn peek(&self, r: CellRef) -> Option<(&Value<'p>, &Value<'p>)> {
        let c = self.cells.get(r.0 as usize)?;
        if !c.live() {
            return None;
        }
        Some((&c.car, &c.cdr))
    }

    /// The remembered set, for seeding a minor mark phase. May contain
    /// indices of since-freed cells; [`Heap::peek`] skips those.
    pub(crate) fn remset_cells(&self) -> &[u32] {
        &self.remset
    }

    /// Whether the index names a live old-generation cell (minor-mark
    /// cut-point test).
    pub(crate) fn is_old_cell(&self, idx: u32) -> bool {
        self.cells
            .get(idx as usize)
            .is_some_and(|c| c.live() && c.old())
    }
}

#[cold]
fn wrong_obj() -> RuntimeError {
    RuntimeError::Internal {
        what: "object of the wrong kind",
    }
}

/// Increments a dense per-site counter, growing the array on first sight
/// of a site.
fn bump_site(counts: &mut Vec<u64>, site: SiteId) {
    let i = site.0 as usize;
    if i >= counts.len() {
        counts.resize(i + 1, 0);
    }
    counts[i] += 1;
}

fn rank_sites(counts: &[u64]) -> Vec<(SiteId, u64)> {
    let mut v: Vec<(SiteId, u64)> = counts
        .iter()
        .enumerate()
        .filter(|&(_, &n)| n > 0)
        .map(|(i, &n)| (SiteId(i as u32), n))
        .collect();
    v.sort_by_key(|&(s, n)| (std::cmp::Reverse(n), s));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn heap<'p>() -> Heap<'p> {
        Heap::new(HeapConfig::default())
    }

    /// The marks of a full mark phase rooted at `roots`.
    fn marks_from(h: &mut Heap<'_>, roots: &[CellRef]) -> Marks {
        let mut m = crate::gc::Marker::new(h);
        for &c in roots {
            m.root_cell(c);
        }
        m.finish(h)
    }

    /// The marks of a minor mark phase rooted at `roots`.
    fn minor_marks_from(h: &mut Heap<'_>, roots: &[CellRef]) -> Marks {
        let mut m = crate::gc::Marker::new(h);
        for &c in roots {
            m.root_cell(c);
        }
        m.finish_minor(h)
    }

    #[test]
    fn alloc_and_read() {
        let mut h = heap();
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        assert!(matches!(h.car(c), Ok(Value::Int(1))));
        assert!(matches!(h.cdr(c), Ok(Value::Nil)));
        assert_eq!(h.stats.heap_allocs, 1);
        assert_eq!(h.live(), 1);
    }

    #[test]
    fn dcons_set_overwrites() {
        let mut h = heap();
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        h.set(c, Value::Int(9), Value::Pair(c)).unwrap();
        assert!(matches!(h.car(c), Ok(Value::Int(9))));
    }

    #[test]
    fn stack_region_frees_on_pop() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Stack);
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        assert_eq!(h.stats.stack_allocs, 1);
        h.pop_region(r).unwrap();
        assert_eq!(h.stats.stack_freed, 1);
        assert_eq!(h.live(), 0);
        assert!(matches!(h.car(c), Err(RuntimeError::UseAfterFree { .. })));
    }

    #[test]
    fn block_region_counts_splices() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Block);
        h.alloc(Value::Int(1), Value::Nil, AllocMode::Block);
        h.alloc(Value::Int(2), Value::Nil, AllocMode::Block);
        h.pop_region(r).unwrap();
        assert_eq!(h.stats.block_freed, 2);
        assert_eq!(h.stats.block_frees, 1);
    }

    #[test]
    fn stack_alloc_without_region_falls_back() {
        let mut h = heap();
        h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        assert_eq!(h.stats.region_fallbacks, 1);
        assert_eq!(h.stats.heap_allocs, 1);
        assert_eq!(h.stats.stack_allocs, 0);
    }

    #[test]
    fn nested_regions_pop_in_order() {
        let mut h = heap();
        let outer = h.push_region(RegionKind::Stack);
        let inner = h.push_region(RegionKind::Block);
        assert_eq!(
            h.pop_region(outer),
            Err(RuntimeError::RegionMismatch {
                expected: Some(inner.0),
                got: outer.0,
            })
        );
        h.pop_region(inner).unwrap();
        h.pop_region(outer).unwrap();
    }

    #[test]
    fn pop_with_no_region_is_a_typed_error() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Stack);
        h.pop_region(r).unwrap();
        assert_eq!(
            h.pop_region(r),
            Err(RuntimeError::RegionMismatch {
                expected: None,
                got: r.0,
            })
        );
        // The mismatch must not disturb the (empty) region stack.
        assert!(!h.in_region());
    }

    #[test]
    fn out_of_order_pop_leaves_regions_intact() {
        let mut h = heap();
        let outer = h.push_region(RegionKind::Stack);
        let inner = h.push_region(RegionKind::Stack);
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        assert!(h.pop_region(outer).is_err());
        assert!(h.is_live(c), "failed pop must not free anything");
        h.pop_region(inner).unwrap();
        h.pop_region(outer).unwrap();
    }

    fn checked_heap<'p>() -> Heap<'p> {
        Heap::new(HeapConfig {
            checked: true,
            ..HeapConfig::default()
        })
    }

    #[test]
    fn checked_pop_tombstones_with_claim() {
        let mut h = checked_heap();
        let outer = h.push_region(RegionKind::Block);
        let r = h.push_region(RegionKind::Stack);
        let c = h
            .alloc_at(Value::Int(1), Value::Nil, AllocMode::Stack, Some(SiteId(7)))
            .unwrap();
        h.pop_region(r).unwrap();
        assert!(h.is_tombstoned(c));
        assert_eq!(h.tombstone_count(), 1);
        assert_eq!(h.stats.tombstoned, 1);
        let err = h.car(c).unwrap_err();
        let RuntimeError::Soundness(v) = err else {
            panic!("expected soundness violation, got {err:?}");
        };
        assert_eq!(v.site, Some(SiteId(7)));
        assert_eq!(v.claim, ClaimKind::Stack);
        assert_eq!(v.access, AccessKind::Car);
        assert_eq!(v.freed_by.map(|r| r.kind), Some(RegionKind::Stack));
        assert_eq!(v.regions.len(), 1, "outer block region in backtrace");
        h.pop_region(outer).unwrap();
    }

    #[test]
    fn checked_tombstones_never_reenter_free_list() {
        let mut h = checked_heap();
        let r = h.push_region(RegionKind::Stack);
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        h.pop_region(r).unwrap();
        let fresh = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_ne!(c, fresh, "tombstoned index must not be recycled");
        assert_eq!(h.stats.freelist_reuses, 0);
    }

    #[test]
    fn checked_retire_reused_quarantines_cell() {
        let mut h = checked_heap();
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        h.retire_reused(c, Some(SiteId(3))).unwrap();
        let err = h.set(c, Value::Int(2), Value::Nil).unwrap_err();
        let RuntimeError::Soundness(v) = err else {
            panic!("expected soundness violation, got {err:?}");
        };
        assert_eq!(v.site, Some(SiteId(3)));
        assert_eq!(v.claim, ClaimKind::Reuse);
        assert_eq!(v.access, AccessKind::Set);
        assert_eq!(v.freed_by, None);
        // Double retirement is itself a violation, not a panic.
        assert!(matches!(
            h.retire_reused(c, Some(SiteId(3))),
            Err(RuntimeError::Soundness(_))
        ));
    }

    #[test]
    fn unchecked_pop_recycles_as_before() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Stack);
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        h.pop_region(r).unwrap();
        assert!(!h.is_tombstoned(c));
        assert!(matches!(h.car(c), Err(RuntimeError::UseAfterFree { .. })));
        h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_eq!(h.stats.freelist_reuses, 1);
    }

    #[test]
    fn freelist_reuse_after_sweep() {
        let mut h = heap();
        h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let marks = marks_from(&mut h, &[]);
        h.sweep(marks);
        assert_eq!(h.stats.gc_swept, 1);
        h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_eq!(h.stats.freelist_reuses, 1);
        assert_eq!(h.footprint(), 1, "cell was reused, not grown");
    }

    #[test]
    fn sweep_skips_region_cells() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Stack);
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        let marks = marks_from(&mut h, &[]);
        h.sweep(marks);
        assert!(h.is_live(c), "region cells are not GC-swept");
        h.pop_region(r).unwrap();
        assert!(!h.is_live(c));
    }

    #[test]
    fn provenance_tags_roundtrip() {
        let mut h = heap();
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        assert_eq!(h.tag(c).unwrap(), None);
        h.set_tag(c, ProvTag { arg: 0, level: 1 }).unwrap();
        assert_eq!(h.tag(c).unwrap(), Some(ProvTag { arg: 0, level: 1 }));
    }

    #[test]
    fn cell_stays_packed() {
        // Two compact Values + metadata. Growing this fattens every heap
        // in every benchmark — treat a failure as a design regression.
        assert!(
            std::mem::size_of::<Cell<'_>>() <= 48,
            "Cell grew to {} bytes",
            std::mem::size_of::<Cell<'_>>()
        );
    }

    #[test]
    fn pretenured_alloc_goes_straight_to_old_space() {
        let mut h = heap();
        let c = h.alloc(Value::Int(1), Value::Nil, AllocMode::Pretenured);
        assert!(h.is_old(c));
        assert_eq!(h.young_len(), 0);
        assert_eq!(h.old_live(), 1);
        assert_eq!(h.stats.pretenured, 1);
        assert_eq!(h.stats.heap_allocs, 1, "pretenured is still a heap alloc");
    }

    #[test]
    fn plain_heap_alloc_is_young_until_promoted() {
        let mut h = heap();
        let keep = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let drop_ = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_eq!(h.young_len(), 2);
        assert!(!h.is_old(keep));
        let marks = minor_marks_from(&mut h, &[keep]);
        h.sweep_minor(marks);
        assert_eq!(h.young_len(), 1, "first survival ages, stays young");
        assert!(!h.is_old(keep), "one survival is not enough to promote");
        assert!(!h.is_live(drop_), "unmarked young cell freed");
        assert_eq!(h.stats.minor_gcs, 1);
        assert_eq!(h.stats.gc_swept, 1);
        assert_eq!(h.stats.gc_marked, 1);
        let marks = minor_marks_from(&mut h, &[keep]);
        h.sweep_minor(marks);
        assert_eq!(h.young_len(), 0, "nursery empty after the second minor");
        assert!(h.is_old(keep), "second survival promotes");
        assert_eq!(h.stats.promoted, 1);
        assert_eq!(h.old_live(), 1);
    }

    #[test]
    fn full_nursery_falls_back_to_old_space() {
        // nursery_kb: 0 clamps to the 8-cell minimum; with GC disabled
        // no minor ever drains it, so the 9th allocation must go old.
        let mut h: Heap<'_> = Heap::new(HeapConfig {
            gc_enabled: false,
            nursery_kb: 0,
            ..HeapConfig::default()
        });
        for i in 0..9 {
            h.alloc(Value::Int(i), Value::Nil, AllocMode::Heap);
        }
        assert_eq!(h.young_len(), 8);
        assert_eq!(h.stats.nursery_fallbacks, 1);
        assert_eq!(h.old_live(), 1);
    }

    #[test]
    fn dcons_write_barrier_remembers_old_to_young_edge() {
        let mut h = heap();
        let old = h.alloc(Value::Int(1), Value::Nil, AllocMode::Pretenured);
        let young = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_eq!(h.remset_len(), 0);
        h.set(old, Value::Pair(young), Value::Nil).unwrap();
        assert_eq!(h.remset_len(), 1);
        // Idempotent: a second young store adds no duplicate entry.
        h.set(old, Value::Pair(young), Value::Pair(young)).unwrap();
        assert_eq!(h.remset_len(), 1);
        // Old→old stores never enter the remset.
        let old2 = h.alloc(Value::Int(3), Value::Nil, AllocMode::Pretenured);
        h.set(old2, Value::Pair(old), Value::Nil).unwrap();
        assert_eq!(h.remset_len(), 1);
    }

    #[test]
    fn alloc_time_barrier_covers_pretenured_payloads() {
        let mut h = heap();
        let young = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        h.alloc(Value::Pair(young), Value::Nil, AllocMode::Pretenured);
        assert_eq!(h.remset_len(), 1, "old cell born pointing at nursery");
    }

    #[test]
    fn remset_keeps_young_referent_alive_then_clears() {
        let mut h = heap();
        let young = h.alloc(Value::Int(7), Value::Nil, AllocMode::Heap);
        let old = h.alloc(Value::Pair(young), Value::Nil, AllocMode::Pretenured);
        // Minor with *no* machine roots: the remset alone must save the
        // young cell (it is reachable from the old one).
        let mut marker = crate::gc::Marker::new(&mut h);
        marker.root_remset(&h);
        let marks = marker.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(h.is_live(young), "remset-protected cell survived");
        assert!(!h.is_old(young), "aged, not yet promoted");
        assert!(h.is_live(old));
        assert_eq!(
            h.remset_len(),
            1,
            "old→young edge outlives the minor, so the entry is retained"
        );
        // Second minor: the referent promotes, the edge becomes
        // old→old, and the remembered set finally drains.
        let mut marker = crate::gc::Marker::new(&mut h);
        marker.root_remset(&h);
        let marks = marker.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(h.is_old(young), "second survival promotes");
        assert_eq!(h.remset_len(), 0, "remset cleared once the edge is old→old");
    }

    /// Regression: a DCONS can store a *newer* young cell into an older
    /// one; when the older cell promotes (second survival), the edge
    /// silently becomes old→young. Promotion must register it in the
    /// remembered set, or the next minor frees the referent while live.
    #[test]
    fn promotion_remembers_surviving_young_referents() {
        let mut h = heap();
        let elder = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        let root = Value::Pair(elder);
        // First minor: elder survives and ages.
        let mut m = crate::gc::Marker::new(&mut h);
        m.root_value(&root);
        let marks = m.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(!h.is_old(elder));
        // The aged cell is mutated to hold a brand-new young cell —
        // young→young, so no write barrier fires.
        let newborn = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        h.set(elder, Value::Pair(newborn), Value::Nil).unwrap();
        assert_eq!(h.remset_len(), 0);
        // Second minor: elder promotes while newborn merely ages. The
        // promotion-time barrier must record the now old→young edge.
        let mut m = crate::gc::Marker::new(&mut h);
        m.root_value(&root);
        let marks = m.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(h.is_old(elder), "second survival promotes");
        assert!(!h.is_old(newborn), "first survival only ages");
        assert_eq!(h.remset_len(), 1, "promotion registered the edge");
        // Third minor with no machine roots: the remset alone keeps the
        // newborn alive (reachable only through the promoted cut point).
        let mut m = crate::gc::Marker::new(&mut h);
        m.root_remset(&h);
        let marks = m.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(h.is_live(newborn), "referent survived behind the cut point");
        assert!(h.is_old(newborn), "and promoted on its second survival");
        assert_eq!(h.remset_len(), 0, "edge is old→old now; entry dropped");
    }

    /// Regression: storing a young reference into a *region* cell must
    /// also fire the barrier — minors never traverse past old cut
    /// points, so an old→region→young chain is only visible if the
    /// region cell enters the remembered set.
    #[test]
    fn dcons_write_barrier_covers_region_cells() {
        let mut h = heap();
        let rid = h.push_region(RegionKind::Stack);
        let in_region = h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        let young = h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        assert_eq!(h.remset_len(), 0);
        h.set(in_region, Value::Pair(young), Value::Nil).unwrap();
        assert_eq!(h.remset_len(), 1, "region cell remembered");
        // A minor rooted only in the remset must keep the young cell.
        let mut m = crate::gc::Marker::new(&mut h);
        m.root_remset(&h);
        let marks = m.finish_minor(&h);
        h.sweep_minor(marks);
        assert!(
            h.is_live(young),
            "young cell reached through the region cell"
        );
        h.pop_region(rid).unwrap();
    }

    #[test]
    fn major_sweep_promotes_survivors_and_rebuilds() {
        let mut h = heap();
        let keep = h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        h.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        let marks = marks_from(&mut h, &[keep]);
        h.sweep(marks);
        assert_eq!(h.stats.major_gcs, 1);
        assert_eq!(h.stats.gc_marked, 1);
        assert_eq!(h.young_len(), 0);
        assert!(h.is_old(keep), "young survivor of a major is promoted");
        assert_eq!(h.old_live(), 1);
        assert_eq!(h.live(), 1);
    }

    #[test]
    fn collect_kind_prefers_minor_with_young_cells() {
        let mut h = heap();
        assert_eq!(h.collect_kind(), GcKind::Major, "empty nursery → major");
        h.alloc(Value::Int(1), Value::Nil, AllocMode::Heap);
        assert_eq!(h.collect_kind(), GcKind::Minor);
    }

    #[test]
    fn claim_site_survives_promotion() {
        // Checked mode: a cell's claim metadata must be unaffected by the
        // generation flip (promotion moves nothing).
        let mut h = checked_heap();
        let r = h.push_region(RegionKind::Stack);
        let c = h
            .alloc_at(Value::Int(1), Value::Nil, AllocMode::Stack, Some(SiteId(5)))
            .unwrap();
        // Region cells are neither young nor old; promotion machinery
        // must leave them for the region to free.
        let marks = marks_from(&mut h, &[]);
        h.sweep(marks);
        assert!(h.is_live(c), "region cell untouched by major");
        h.pop_region(r).unwrap();
        let err = h.car(c).unwrap_err();
        let RuntimeError::Soundness(v) = err else {
            panic!("expected soundness violation, got {err:?}");
        };
        assert_eq!(v.site, Some(SiteId(5)), "claim survived the collection");
    }

    #[test]
    fn peak_live_tracks_maximum() {
        let mut h = heap();
        let r = h.push_region(RegionKind::Stack);
        h.alloc(Value::Int(1), Value::Nil, AllocMode::Stack);
        h.alloc(Value::Int(2), Value::Nil, AllocMode::Stack);
        h.pop_region(r).unwrap();
        h.alloc(Value::Int(3), Value::Nil, AllocMode::Heap);
        assert_eq!(h.stats.peak_live, 2);
    }
}
