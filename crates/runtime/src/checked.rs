//! Checked-optimization support: claims, tombstones, and structured
//! soundness violations.
//!
//! Every storage optimization in this workspace rests on an escape
//! *claim*: "this cell is dead when its region pops" (stack/block
//! allocation) or "this cell is unshared, overwrite it" (`DCONS` reuse).
//! The paper proves those claims for the analysis it describes — but an
//! injected fault, a stale summary-cache entry, or a plain bug can ship a
//! wrong claim, and in the default runtime a wrong claim silently
//! recycles live storage.
//!
//! Checked mode (ASAN-style, after the sanitizer practice in PAPERS.md)
//! makes every claim *self-verifying*:
//!
//! - optimized allocations are stamped with their [`SiteId`] and
//!   [`ClaimKind`];
//! - claim-driven frees (region pops, `DCONS` retirement) **tombstone**
//!   the cell instead of recycling it — the index is quarantined forever,
//!   its payload dropped;
//! - any later access to a tombstoned cell is a structured
//!   [`SoundnessViolation`] naming the site that made the claim, the kind
//!   of claim, the access that disproved it, and the region backtrace at
//!   free time — exactly the evidence the [`crate::recovery`] loop
//!   needs to disable that one site and re-execute.
//!
//! GC frees are *not* tombstoned: the collector only reclaims provably
//! unreachable cells, so no claim is involved and recycling is safe.

use nml_opt::{RegionKind, SiteId};
use std::fmt;

/// The kind of escape claim behind an optimized allocation or free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClaimKind {
    /// Stack allocation: the cell dies no later than its stack region.
    Stack,
    /// Block allocation: the cell dies no later than its block region.
    Block,
    /// `DCONS` in-place reuse: the target cell is unshared and dead.
    Reuse,
}

impl fmt::Display for ClaimKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClaimKind::Stack => f.write_str("stack"),
            ClaimKind::Block => f.write_str("block"),
            ClaimKind::Reuse => f.write_str("reuse"),
        }
    }
}

impl From<RegionKind> for ClaimKind {
    fn from(kind: RegionKind) -> Self {
        match kind {
            RegionKind::Stack => ClaimKind::Stack,
            RegionKind::Block => ClaimKind::Block,
        }
    }
}

/// The heap access that disproved a claim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// Reading the head of the cell.
    Car,
    /// Reading the tail of the cell.
    Cdr,
    /// Overwriting the cell (`DCONS` or `set`).
    Set,
    /// Reading or writing the provenance tag.
    Tag,
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Car => f.write_str("car"),
            AccessKind::Cdr => f.write_str("cdr"),
            AccessKind::Set => f.write_str("set"),
            AccessKind::Tag => f.write_str("tag"),
        }
    }
}

/// One entry of a region backtrace: a region that was active (or the one
/// that performed the free) when a cell was tombstoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionNote {
    /// The region's generation id.
    pub id: u64,
    /// Stack or block.
    pub kind: RegionKind,
}

impl fmt::Display for RegionNote {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.kind, self.id)
    }
}

/// A detected escape-claim violation: a tombstoned cell was accessed, so
/// the claim that licensed its reclamation was wrong.
///
/// This is the structured report the [`crate::recovery`] loop consumes:
/// `site` (when known) is the allocation/reuse site whose optimization
/// must be disabled before re-execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoundnessViolation {
    /// The tombstoned cell that was accessed.
    pub cell: u32,
    /// The site whose claim freed the cell (`None` for harness-built
    /// cells with no site attribution — unquarantinable).
    pub site: Option<SiteId>,
    /// The kind of claim that was violated.
    pub claim: ClaimKind,
    /// The access that hit the tombstone.
    pub access: AccessKind,
    /// The region whose pop freed the cell (`None` for `DCONS`
    /// retirement, which frees without a region).
    pub freed_by: Option<RegionNote>,
    /// The regions still active at free time, innermost last — the
    /// dynamic-extent backtrace of the free.
    pub regions: Vec<RegionNote>,
}

impl fmt::Display for SoundnessViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "soundness violation: {} of cell #{} freed by a {} claim",
            self.access, self.cell, self.claim
        )?;
        match self.site {
            Some(s) => write!(f, " at site {}", s.0)?,
            None => f.write_str(" at an unattributed site")?,
        }
        if let Some(r) = self.freed_by {
            write!(f, " (freed by region {r}")?;
            if !self.regions.is_empty() {
                f.write_str(", active:")?;
                for r in &self.regions {
                    write!(f, " {r}")?;
                }
            }
            f.write_str(")")?;
        }
        Ok(())
    }
}

/// The quarantined remains of a claim-freed cell: enough context to turn
/// any later access into a full [`SoundnessViolation`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tombstone {
    /// The site whose claim freed the cell.
    pub site: Option<SiteId>,
    /// The claim kind.
    pub claim: ClaimKind,
    /// The region whose pop freed the cell, if any.
    pub freed_by: Option<RegionNote>,
    /// Regions active at free time.
    pub regions: Vec<RegionNote>,
}

impl Tombstone {
    /// Builds the violation report for an access to this tombstone.
    pub fn violation(&self, cell: u32, access: AccessKind) -> SoundnessViolation {
        SoundnessViolation {
            cell,
            site: self.site,
            claim: self.claim,
            access,
            freed_by: self.freed_by,
            regions: self.regions.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_site_claim_and_access() {
        let v = SoundnessViolation {
            cell: 7,
            site: Some(SiteId(3)),
            claim: ClaimKind::Stack,
            access: AccessKind::Car,
            freed_by: Some(RegionNote {
                id: 1,
                kind: RegionKind::Stack,
            }),
            regions: vec![RegionNote {
                id: 0,
                kind: RegionKind::Block,
            }],
        };
        let s = v.to_string();
        assert!(s.contains("car of cell #7"), "{s}");
        assert!(s.contains("stack claim"), "{s}");
        assert!(s.contains("site 3"), "{s}");
        assert!(s.contains("stack#1"), "{s}");
        assert!(s.contains("block#0"), "{s}");
    }

    #[test]
    fn reuse_violation_renders_without_region() {
        let t = Tombstone {
            site: None,
            claim: ClaimKind::Reuse,
            freed_by: None,
            regions: vec![],
        };
        let s = t.violation(2, AccessKind::Set).to_string();
        assert!(s.contains("set of cell #2"), "{s}");
        assert!(s.contains("unattributed"), "{s}");
        assert!(!s.contains("freed by region"), "{s}");
    }
}
