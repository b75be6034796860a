//! Runtime instrumentation counters.
//!
//! These counters are the "measurements" of our synthetic testbed: the
//! paper predicts that escape-based optimizations reduce allocation and
//! reclamation work, and every prediction maps onto one of these fields.

use std::fmt;

/// Counters collected during one program run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Cons cells allocated on the GC'd heap.
    pub heap_allocs: u64,
    /// Cons cells allocated into stack regions.
    pub stack_allocs: u64,
    /// Cons cells allocated into block regions.
    pub block_allocs: u64,
    /// `DCONS` in-place reuses (allocations avoided entirely).
    pub dcons_reuses: u64,
    /// Cons cells scalar-replaced (SROA) by the bytecode compiler: the
    /// cell never existed, its head/tail lived in frame slots. Like
    /// `dcons_reuses`, these are allocations *avoided*, not performed,
    /// so they do not count toward [`RuntimeStats::total_allocs`].
    pub allocs_elided: u64,
    /// Heap allocations served from the free list (vs. fresh growth).
    pub freelist_reuses: u64,
    /// Stack/block allocations that found no active region and fell back
    /// to the heap (an annotated function called outside a region).
    pub region_fallbacks: u64,
    /// Garbage collections run.
    pub gc_runs: u64,
    /// Minor (nursery-only) collections.
    pub minor_gcs: u64,
    /// Major (full mark–sweep) collections.
    pub major_gcs: u64,
    /// Young cells promoted to the old generation (minor-GC survivors).
    pub promoted: u64,
    /// Cells allocated directly into the old generation because the
    /// escape analysis proved the site escaping (`AllocMode::Pretenured`
    /// in `nml-opt` terms). Zero with generations off, where every cell
    /// is old whatever its mark.
    pub pretenured: u64,
    /// Plain heap allocations that went old because the nursery was full
    /// and no minor collection had run (GC disabled, or allocations
    /// between collection polls).
    pub nursery_fallbacks: u64,
    /// Total cells marked (traversal work) across all GCs.
    pub gc_marked: u64,
    /// Total cells reclaimed by sweeps.
    pub gc_swept: u64,
    /// Total cells visited by sweeps (sweep work: the whole heap each GC).
    pub gc_sweep_visits: u64,
    /// Cells freed by stack-region exits (zero-cost frame pops).
    pub stack_freed: u64,
    /// Cells freed by block-region exits.
    pub block_freed: u64,
    /// Block-region exits (each is a single free-list splice).
    pub block_frees: u64,
    /// Maximum number of live (allocated, unreclaimed) cells.
    pub peak_live: u64,
    /// Machine steps executed.
    pub steps: u64,
    /// Optimized (stack/block) allocations that an injected fault forced
    /// back to plain heap `CONS`.
    pub fault_alloc_retreats: u64,
    /// `DCONS` reuses that an injected fault turned into fresh heap
    /// allocations.
    pub fault_dcons_retreats: u64,
    /// Region pushes denied by an injected fault.
    pub fault_region_denials: u64,
    /// Garbage collections forced by an injected fault.
    pub forced_gcs: u64,
    /// Checked mode: cells quarantined by claim-driven frees (region
    /// pops and `DCONS` retirements) instead of recycled.
    pub tombstoned: u64,
    /// Checked mode: `DCONS` reuses executed as copy-then-retire (the
    /// allocation the unchecked runtime would have avoided).
    pub reuse_copies: u64,
    /// Checked mode: soundness violations detected (tombstone accesses).
    pub violations: u64,
    /// Checked mode: sites quarantined by the re-execution loop.
    pub quarantined_sites: u64,
    /// Checked mode: re-executions performed after violations.
    pub retries: u64,
}

impl RuntimeStats {
    /// Total cons-cell allocations, by any mechanism (excluding `DCONS`
    /// reuses, which allocate nothing).
    pub fn total_allocs(&self) -> u64 {
        self.heap_allocs + self.stack_allocs + self.block_allocs
    }

    /// Total *reclamation work*: cells traversed by GC plus cells swept
    /// plus one unit per block splice. Stack frees are counted as zero,
    /// following the paper's model (the activation record pop is free).
    pub fn reclamation_work(&self) -> u64 {
        self.gc_marked + self.gc_sweep_visits + self.block_frees
    }
}

impl fmt::Display for RuntimeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "allocs: heap={} stack={} block={} dcons-reuse={} elided={} (freelist {})",
            self.heap_allocs,
            self.stack_allocs,
            self.block_allocs,
            self.dcons_reuses,
            self.allocs_elided,
            self.freelist_reuses
        )?;
        writeln!(
            f,
            "gc: runs={} marked={} swept={} sweep-visits={}",
            self.gc_runs, self.gc_marked, self.gc_swept, self.gc_sweep_visits
        )?;
        writeln!(
            f,
            "gen: minor={} major={} promoted={} pretenured={} nursery-fallbacks={}",
            self.minor_gcs, self.major_gcs, self.promoted, self.pretenured, self.nursery_fallbacks
        )?;
        writeln!(
            f,
            "regions: stack-freed={} block-freed={} (splices {}) fallbacks={}",
            self.stack_freed, self.block_freed, self.block_frees, self.region_fallbacks
        )?;
        write!(f, "peak live: {}; steps: {}", self.peak_live, self.steps)?;
        let faults = self.fault_alloc_retreats
            + self.fault_dcons_retreats
            + self.fault_region_denials
            + self.forced_gcs;
        if faults > 0 {
            write!(
                f,
                "\nfaults: alloc-retreats={} dcons-retreats={} region-denials={} forced-gcs={}",
                self.fault_alloc_retreats,
                self.fault_dcons_retreats,
                self.fault_region_denials,
                self.forced_gcs
            )?;
        }
        let checked = self.tombstoned
            + self.reuse_copies
            + self.violations
            + self.quarantined_sites
            + self.retries;
        if checked > 0 {
            write!(
                f,
                "\nchecked: tombstoned={} reuse-copies={} violations={} quarantined={} retries={}",
                self.tombstoned,
                self.reuse_copies,
                self.violations,
                self.quarantined_sites,
                self.retries
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_add_up() {
        let s = RuntimeStats {
            heap_allocs: 3,
            stack_allocs: 2,
            block_allocs: 1,
            ..Default::default()
        };
        assert_eq!(s.total_allocs(), 6);
    }

    #[test]
    fn reclamation_counts_gc_and_splices() {
        let s = RuntimeStats {
            gc_marked: 10,
            gc_sweep_visits: 20,
            block_frees: 2,
            stack_freed: 100, // free
            ..Default::default()
        };
        assert_eq!(s.reclamation_work(), 32);
    }

    #[test]
    fn display_is_nonempty() {
        let s = RuntimeStats::default();
        assert!(s.to_string().contains("allocs"));
    }
}
