//! Site quarantine: persistently disabling the optimization at sites
//! whose escape claims checked execution has disproved.
//!
//! When a `--checked` run hits a [`SoundnessViolation`] the pipeline
//! records the offending [`SiteId`] here and re-plans. Quarantined sites
//! fall back to the unoptimized discipline — plain heap `CONS`, no
//! region, no `DCONS` — exactly the retreat the fault-injection layer
//! already uses, so a wrong claim costs one optimization at one site
//! instead of the whole plan.
//!
//! The set persists across runs in a tiny line-oriented text file
//! (`nml-quarantine v1`), written atomically, so a site disproved once
//! stays disabled on the next compile.
//!
//! This module also hosts the *sabotage* plan: the deliberate injection
//! of wrong stack claims that the differential harness and
//! `--fault-unsound-stack` use to prove the sentinel actually fires.
//!
//! [`SoundnessViolation`]: ../nml_runtime/checked/struct.SoundnessViolation.html

use crate::ir::{AllocMode, Arena, ExprId, IrExpr, IrProgram, RegionKind, SiteId};
use std::collections::BTreeSet;
use std::fmt;
use std::path::Path;

/// File-format header for persisted quarantine sets.
const HEADER: &str = "nml-quarantine v1";

/// The set of sites whose optimizations are disabled.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QuarantineSet {
    sites: BTreeSet<SiteId>,
}

impl QuarantineSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a site; returns `true` if it was newly quarantined.
    pub fn insert(&mut self, site: SiteId) -> bool {
        self.sites.insert(site)
    }

    /// Whether `site` is quarantined.
    pub fn contains(&self, site: SiteId) -> bool {
        self.sites.contains(&site)
    }

    /// Quarantined sites in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = SiteId> + '_ {
        self.sites.iter().copied()
    }

    /// Number of quarantined sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether no site is quarantined.
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// Loads a persisted set. Like the summary cache, corruption is never
    /// fatal: unparsable lines are dropped and reported in the warning
    /// string, and a missing file is an empty set.
    pub fn load(path: &Path) -> (Self, Option<String>) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (Self::new(), None);
            }
            Err(e) => return (Self::new(), Some(format!("unreadable: {e}"))),
        };
        let mut lines = text.lines();
        if lines.next() != Some(HEADER) {
            return (
                Self::new(),
                Some("unrecognized header; starting empty".into()),
            );
        }
        let mut set = Self::new();
        let mut dropped = 0usize;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            match line
                .strip_prefix("site ")
                .and_then(|n| n.parse::<u32>().ok())
            {
                Some(n) => {
                    set.insert(SiteId(n));
                }
                None => dropped += 1,
            }
        }
        let warn = (dropped > 0).then(|| format!("dropped {dropped} unparsable line(s)"));
        (set, warn)
    }

    /// Persists the set atomically (write to a sibling temp file, then
    /// rename over `path`).
    ///
    /// # Errors
    ///
    /// A human-readable message on any I/O failure.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from(HEADER);
        out.push('\n');
        for s in &self.sites {
            out.push_str(&format!("site {}\n", s.0));
        }
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, &out).map_err(|e| format!("write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("rename to {}: {e}", path.display())
        })
    }
}

impl fmt::Display for QuarantineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for s in &self.sites {
            if !first {
                f.write_str(", ")?;
            }
            first = false;
            write!(f, "{}", s.0)?;
        }
        Ok(())
    }
}

/// Disables the optimization at every quarantined site in `ir`:
/// stack/block `Cons` falls back to the heap, `DCONS` becomes a plain
/// heap `Cons` (same site, so the fallback stays attributable), and
/// quarantined `Region` wrappers are unwrapped. Returns the number of
/// rewrites applied.
pub fn apply_quarantine(ir: &mut IrProgram, set: &QuarantineSet) -> usize {
    if set.is_empty() {
        return 0;
    }
    let mut n = 0;
    for a in ir.arenas_mut() {
        let mut unlinked = false;
        let root = a.root();
        rewrite(a, root, set, &mut n, &mut unlinked);
        if unlinked {
            a.compact();
        }
    }
    n
}

fn rewrite(a: &mut Arena, id: ExprId, set: &QuarantineSet, n: &mut usize, unlinked: &mut bool) {
    // Replace the node itself first (repeatedly: unwrapping a region can
    // expose another quarantined node), then recurse into the children of
    // whatever it became. An unwrapped region takes its inner node's
    // place, which leaves the inner node's old slot unlinked.
    loop {
        match a[id] {
            IrExpr::Region { site, inner, .. } if set.contains(site) => {
                a[id] = a[inner];
                *unlinked = true;
                *n += 1;
            }
            IrExpr::Dcons {
                head, tail, site, ..
            } if set.contains(site) => {
                a[id] = IrExpr::Cons {
                    alloc: AllocMode::Heap,
                    head,
                    tail,
                    site,
                };
                *n += 1;
            }
            _ => break,
        }
    }
    if let IrExpr::Cons { alloc, site, .. } = &mut a[id] {
        if *alloc != AllocMode::Heap && set.contains(*site) {
            *alloc = AllocMode::Heap;
            *n += 1;
        }
    }
    a.for_each_child_mut(id, |a, c| rewrite(a, c, set, n, unlinked));
}

/// A deliberate *unsound* claim injection for exercising the checked-mode
/// sentinel: every listed `Cons` site is forced to stack allocation
/// (regardless of what the analysis licensed) and the program body is
/// wrapped in one stack region so the forced cells actually die at its
/// exit. If the program's result reaches any such cell, a checked run
/// must report a violation at exactly that site.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SabotagePlan {
    /// The `Cons` sites to force onto the stack.
    pub stack_sites: BTreeSet<SiteId>,
    /// The `Cons` sites to force to [`AllocMode::Elided`] regardless of
    /// what the lattice proved. Unlike a stack sabotage, a forced elide
    /// mark cannot corrupt a run: the bytecode compiler re-verifies
    /// slot-level eligibility and an escaping or aliased binding always
    /// fails that check, so the site quietly allocates on the heap. The
    /// sabotage exists to *prove* that refusal (checked mode must stay
    /// silent and results must not change).
    pub elide_sites: BTreeSet<SiteId>,
}

impl SabotagePlan {
    /// A plan forcing the given sites onto the stack.
    pub fn stack(sites: impl IntoIterator<Item = SiteId>) -> Self {
        SabotagePlan {
            stack_sites: sites.into_iter().collect(),
            elide_sites: BTreeSet::new(),
        }
    }

    /// A plan forcing elide marks onto the given sites.
    pub fn elide(sites: impl IntoIterator<Item = SiteId>) -> Self {
        SabotagePlan {
            stack_sites: BTreeSet::new(),
            elide_sites: sites.into_iter().collect(),
        }
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.stack_sites.is_empty() && self.elide_sites.is_empty()
    }
}

/// Applies `plan` to `ir`; returns the number of sites actually forced.
/// Skips sites already on the stack (no claim would change) and wraps the
/// body in a fresh stack region only when at least one site was forced.
pub fn sabotage_stack(ir: &mut IrProgram, plan: &SabotagePlan) -> usize {
    if plan.is_empty() {
        return 0;
    }
    let forced = remark(ir, |alloc, site| {
        (plan.stack_sites.contains(&site) && alloc != AllocMode::Stack).then_some(AllocMode::Stack)
    });
    if forced > 0 {
        let site = ir.fresh_site();
        let root = ir.body.root();
        ir.body.wrap_in_region(root, RegionKind::Stack, site);
    }
    forced
}

/// Forces [`AllocMode::Elided`] onto every listed heap `Cons` site,
/// bypassing the lattice. Returns the number of sites forced. No region
/// wrapping is needed: a bogus elide mark is defused by the bytecode
/// compiler's independent slot-level check, so the sabotage is (and must
/// be proven) harmless by construction.
pub fn sabotage_elide(ir: &mut IrProgram, plan: &SabotagePlan) -> usize {
    if plan.elide_sites.is_empty() {
        return 0;
    }
    remark(ir, |alloc, site| {
        (plan.elide_sites.contains(&site) && alloc == AllocMode::Heap).then_some(AllocMode::Elided)
    })
}

/// Sets the allocation mode of every `Cons` node of `ir` for which
/// `new(mode, site)` gives one; returns how many it set. Each node is
/// treated on its own, so the nodes are scanned in arena order.
pub(crate) fn remark(
    ir: &mut IrProgram,
    mut new: impl FnMut(AllocMode, SiteId) -> Option<AllocMode>,
) -> usize {
    let mut n = 0;
    for e in ir.arenas_mut().flat_map(|a| a.nodes_mut()) {
        if let IrExpr::Cons { alloc, site, .. } = e {
            if let Some(mode) = new(*alloc, *site) {
                *alloc = mode;
                n += 1;
            }
        }
    }
    n
}

/// The literal `Cons` sites of a program's *body* (not its functions),
/// in site order — the natural sabotage targets, since body literals
/// that flow into the result are reachable after any wrapping region
/// pops.
pub fn body_cons_sites(ir: &IrProgram) -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = ir
        .body
        .nodes()
        .iter()
        .filter_map(|e| match e {
            IrExpr::Cons { site, .. } => Some(*site),
            _ => None,
        })
        .collect();
    sites.sort_unstable();
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lower;

    #[test]
    fn quarantine_set_roundtrips() {
        let dir = std::env::temp_dir().join(format!("nml-quar-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.txt");
        let mut q = QuarantineSet::new();
        assert!(q.insert(SiteId(5)));
        assert!(q.insert(SiteId(2)));
        assert!(!q.insert(SiteId(5)), "duplicate insert reports false");
        q.save(&path).unwrap();
        let (back, warn) = QuarantineSet::load(&path);
        assert_eq!(back, q);
        assert!(warn.is_none());
        assert_eq!(back.to_string(), "2, 5");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_is_empty_without_warning() {
        let (q, warn) = QuarantineSet::load(Path::new("/nonexistent/nml-quarantine"));
        assert!(q.is_empty());
        assert!(warn.is_none());
    }

    #[test]
    fn corrupt_lines_drop_with_warning() {
        let dir = std::env::temp_dir().join(format!("nml-quar-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("q.txt");
        std::fs::write(&path, format!("{HEADER}\nsite 3\ngarbage\nsite x\n")).unwrap();
        let (q, warn) = QuarantineSet::load(&path);
        assert!(q.contains(SiteId(3)));
        assert_eq!(q.len(), 1);
        assert!(warn.unwrap().contains("2 unparsable"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn count(a: &Arena, pred: impl Fn(&IrExpr) -> bool) -> usize {
        let mut n = 0;
        a.walk(|_, e| n += usize::from(pred(e)));
        n
    }

    #[test]
    fn sabotage_forces_sites_and_wraps_body() {
        let mut ir = lower("[1, 2]");
        let sites = body_cons_sites(&ir);
        assert_eq!(sites.len(), 2);
        let forced = sabotage_stack(&mut ir, &SabotagePlan::stack(sites.clone()));
        assert_eq!(forced, 2);
        assert!(matches!(
            ir.body[ir.body.root()],
            IrExpr::Region {
                kind: RegionKind::Stack,
                ..
            }
        ));
        let stacked = count(&ir.body, |e| {
            matches!(
                e,
                IrExpr::Cons {
                    alloc: AllocMode::Stack,
                    ..
                }
            )
        });
        assert_eq!(stacked, 2);
    }

    #[test]
    fn quarantine_undoes_sabotage() {
        let mut ir = lower("[1, 2]");
        let sites = body_cons_sites(&ir);
        sabotage_stack(&mut ir, &SabotagePlan::stack(sites.clone()));
        let mut q = QuarantineSet::new();
        for s in &sites {
            q.insert(*s);
        }
        let n = apply_quarantine(&mut ir, &q);
        assert_eq!(n, 2, "both cons sites fall back to the heap");
        ir.body.walk(|_, e| {
            if let IrExpr::Cons { alloc, .. } = e {
                assert_eq!(*alloc, AllocMode::Heap);
            }
        });
    }

    #[test]
    fn quarantined_dcons_becomes_heap_cons() {
        // DCONS is IR-only (the §6 transformation emits it), so turn f's
        // cons into a reuse of its parameter by hand.
        let mut ir = lower("letrec f l = cons 1 nil in f [9]");
        let mut site = SiteId(u32::MAX);
        {
            let f = &mut ir.funcs[0];
            let param = f.params[0];
            for e in f.body.nodes_mut() {
                if let IrExpr::Cons {
                    head,
                    tail,
                    site: s,
                    ..
                } = *e
                {
                    site = s;
                    *e = IrExpr::Dcons {
                        reused: param,
                        head,
                        tail,
                        site,
                    };
                }
            }
        }
        assert_ne!(site, SiteId(u32::MAX), "f has a cons site");
        let mut q = QuarantineSet::new();
        q.insert(site);
        let n = apply_quarantine(&mut ir, &q);
        assert_eq!(n, 1);
        let found = ir.funcs.iter().any(|f| {
            count(
                &f.body,
                |e| matches!(e, IrExpr::Cons { alloc: AllocMode::Heap, site: s, .. } if *s == site),
            ) > 0
        });
        assert!(found, "DCONS replaced by a heap Cons at the same site");
    }

    #[test]
    fn quarantined_region_unwraps() {
        let mut ir = lower("1 + 1");
        let before = ir.body.clone();
        let site = ir.fresh_site();
        let root = ir.body.root();
        ir.body.wrap_in_region(root, RegionKind::Stack, site);
        let mut q = QuarantineSet::new();
        q.insert(site);
        assert_eq!(apply_quarantine(&mut ir, &q), 1);
        assert!(!matches!(ir.body[ir.body.root()], IrExpr::Region { .. }));
        // The unlinked node is gone: the arena is the one lowering built.
        assert_eq!(ir.body.len(), before.len());
        assert_eq!(ir.body.to_string(), before.to_string());
    }
}
