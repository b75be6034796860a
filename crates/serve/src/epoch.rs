//! Versioned program epochs for hot reload.
//!
//! A running server holds one *current* [`Epoch`] — an immutable compiled
//! program plus its bookkeeping — behind an `RwLock<Arc<Epoch>>`. Each
//! admitted request pins the `Arc` of the epoch it was admitted under, so
//! a reload swaps the current slot without disturbing in-flight work:
//! old requests finish on their admission epoch, new admissions land on
//! the new one, and a retired epoch is reclaimed exactly when its last
//! pinned `Arc` drops (its drain point).
//!
//! ## Quarantine carryover
//!
//! Checked-mode quarantine decisions must survive reloads — but only for
//! sites whose defining code is unchanged. Raw [`SiteId`]s cannot be the
//! carry key: lowering numbers sites as one global sequence, so editing
//! an early binding shifts every later binding's ids. Instead each site
//! is keyed by `(owner, ordinal, owner_hash)`:
//!
//! - `owner` — the top-level binding name owning the site (`""` for the
//!   program body);
//! - `ordinal` — the site's index in a deterministic pre-order walk of
//!   that owner's body;
//! - `owner_hash` — an FNV-1a fingerprint of the owner's IR (node tags,
//!   names, constants, allocation modes, with sites replaced by their
//!   per-owner ordinals).
//!
//! Fingerprints are computed after optimization and sabotage but *before*
//! quarantine is applied, so quarantining a site does not change the
//! fingerprint that re-identifies it in the next epoch. A carried entry
//! projects onto a new epoch's concrete `SiteId` only when the owner
//! fingerprint still matches — a changed binding drops its carried
//! quarantines and gets re-tried, exactly as the paper's soundness story
//! requires for re-analyzed code.

use std::collections::{BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use nml_escape::Analysis;
use nml_opt::{build, AllocMode, Arena, IrExpr, IrProgram, QuarantineSet, RegionKind, SiteId};

use crate::server::{compile_options, lock, ServeConfig, Stats};
use crate::watch::fnv64;

/// Carryable quarantine state, independent of any epoch's site numbering.
///
/// Entries are `(owner, ordinal, owner_hash)` triples (see the module
/// docs). The map only grows during a server's lifetime; stale entries
/// (owners whose hash never matches again) are harmless.
#[derive(Debug, Default, Clone)]
pub(crate) struct CarryMap {
    entries: BTreeSet<(String, u32, u64)>,
}

impl CarryMap {
    pub(crate) fn new() -> CarryMap {
        CarryMap::default()
    }

    /// Records a quarantined site by its stable key. Returns `true` if new.
    pub(crate) fn insert(&mut self, owner: &str, ordinal: u32, owner_hash: u64) -> bool {
        self.entries.insert((owner.to_owned(), ordinal, owner_hash))
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    fn iter(&self) -> impl Iterator<Item = &(String, u32, u64)> {
        self.entries.iter()
    }
}

/// One immutable compiled program version.
///
/// Built off the worker threads, then installed by an atomic `Arc` swap.
pub(crate) struct Epoch {
    /// Monotone epoch number (the boot program is epoch 1).
    pub(crate) id: u64,
    /// The compiled program this epoch serves.
    pub(crate) program: IrProgram,
    /// The source text the program was compiled from.
    pub(crate) src: String,
    /// FNV-1a hash of `src`; identifies the program in crash bundles.
    pub(crate) program_hash: u64,
    /// The quarantine set `program` was built with (the carried entries).
    pub(crate) built_with: QuarantineSet,
    /// Sites quarantined *in this epoch* (checked-mode recovery may add
    /// to it after the epoch is built; recompiles snapshot it).
    quarantine: Mutex<QuarantineSet>,
    /// Concrete site → stable carry key.
    site_keys: HashMap<SiteId, (String, u32)>,
    /// Per-owner IR fingerprints (pre-quarantine).
    owner_hashes: HashMap<String, u64>,
    /// Requests admitted under this epoch and not yet responded to.
    pub(crate) inflight: AtomicU64,
    /// Set when a newer epoch replaced this one.
    retired: AtomicBool,
    /// Server stats, so `Drop` can record retirement/leak accounting.
    stats: Arc<Stats>,
}

impl Epoch {
    /// Compiles `analysis` into a new epoch.
    ///
    /// Carried quarantine entries in `qmap` whose owner fingerprint still
    /// matches are projected onto this epoch's concrete sites, and the
    /// program is rebuilt without their claims before the epoch goes
    /// live.
    ///
    /// # Errors
    ///
    /// A rendered build failure.
    pub(crate) fn build(
        id: u64,
        analysis: &Analysis,
        src: &str,
        cfg: &ServeConfig,
        qmap: &CarryMap,
        stats: Arc<Stats>,
    ) -> Result<Epoch, String> {
        let opts = compile_options(cfg, cfg.optimize);
        let rebuild = |q: &QuarantineSet| build(analysis, &opts, q).map_err(|e| e.to_string());
        let mut ir = rebuild(&QuarantineSet::new())?;

        // Fingerprint the pre-quarantine IR: quarantining a site must not
        // change the key under which it is carried forward.
        let mut site_keys = HashMap::new();
        let mut site_at = HashMap::new();
        let mut owner_hashes = HashMap::new();
        index_owner(
            "",
            &[],
            &ir.body,
            &mut site_keys,
            &mut site_at,
            &mut owner_hashes,
        );
        for f in &ir.funcs {
            let params: Vec<&str> = f.params.iter().map(|p| p.as_str()).collect();
            index_owner(
                f.name.as_str(),
                &params,
                &f.body,
                &mut site_keys,
                &mut site_at,
                &mut owner_hashes,
            );
        }

        let mut qset = QuarantineSet::new();
        for (owner, ordinal, hash) in qmap.iter() {
            if owner_hashes.get(owner) == Some(hash) {
                if let Some(site) = site_at.get(&(owner.clone(), *ordinal)) {
                    qset.insert(*site);
                }
            }
        }
        if !qset.is_empty() {
            ir = rebuild(&qset)?;
        }

        Ok(Epoch {
            id,
            program: ir,
            src: src.to_owned(),
            program_hash: fnv64(src.as_bytes()),
            built_with: qset.clone(),
            quarantine: Mutex::new(qset),
            site_keys,
            owner_hashes,
            inflight: AtomicU64::new(0),
            retired: AtomicBool::new(false),
            stats,
        })
    }

    /// Snapshot of this epoch's quarantine set (for recompiles).
    pub(crate) fn quarantine_snapshot(&self) -> QuarantineSet {
        lock(&self.quarantine).clone()
    }

    /// Number of sites quarantined in this epoch.
    pub(crate) fn quarantine_len(&self) -> usize {
        lock(&self.quarantine).len()
    }

    /// Quarantines `site` in this epoch and records its stable key in the
    /// carry map so the decision survives reloads of unchanged code.
    /// Returns `true` if the site was not already quarantined here.
    pub(crate) fn record_quarantine(&self, site: SiteId, qmap: &mut CarryMap) -> bool {
        let fresh = lock(&self.quarantine).insert(site);
        if let Some((owner, ordinal)) = self.site_keys.get(&site) {
            if let Some(hash) = self.owner_hashes.get(owner) {
                qmap.insert(owner, *ordinal, *hash);
            }
        }
        fresh
    }

    /// Stable human-readable label for a site (`owner#ordinal`), used in
    /// crash signatures so the same defect in consecutive epochs counts
    /// as one signature even though its raw id moved.
    pub(crate) fn site_label(&self, site: SiteId) -> String {
        match self.site_keys.get(&site) {
            Some((owner, ordinal)) if owner.is_empty() => format!("<body>#{ordinal}"),
            Some((owner, ordinal)) => format!("{owner}#{ordinal}"),
            None => format!("site{}", site.0),
        }
    }

    /// Marks the epoch as replaced by a newer one. Accounting only; the
    /// epoch keeps serving its pinned in-flight requests until drained.
    pub(crate) fn retire(&self) {
        self.retired.store(true, Ordering::SeqCst);
    }
}

impl Drop for Epoch {
    fn drop(&mut self) {
        // The last Arc dropped *is* the drain point: every pinned request
        // holds a clone, so reaching Drop means no in-flight work remains.
        if self.retired.load(Ordering::SeqCst) {
            self.stats.epochs_retired.fetch_add(1, Ordering::Relaxed);
        }
        // `inflight` is decremented after each response is written; a
        // nonzero count here means a request vanished without responding.
        if self.inflight.load(Ordering::SeqCst) != 0 {
            self.stats.epoch_leaks.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Walks one owner's body, assigning pre-order ordinals to its sites and
/// folding an FNV-1a fingerprint over the structure.
fn index_owner(
    owner: &str,
    params: &[&str],
    body: &Arena,
    site_keys: &mut HashMap<SiteId, (String, u32)>,
    site_at: &mut HashMap<(String, u32), SiteId>,
    owner_hashes: &mut HashMap<String, u64>,
) {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mix = |bytes: &[u8], h: &mut u64| {
        for &b in bytes {
            *h ^= b as u64;
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        *h ^= 0xff; // separator so "ab","c" != "a","bc"
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for p in params {
        mix(p.as_bytes(), &mut h);
    }
    let mut ordinal: u32 = 0;
    let mut claim = |site: SiteId, ordinal: &mut u32| {
        site_keys.insert(site, (owner.to_owned(), *ordinal));
        site_at.insert((owner.to_owned(), *ordinal), site);
        let o = *ordinal;
        *ordinal += 1;
        o
    };
    body.walk(|_, e| match e {
        IrExpr::Const(c) => mix(format!("C{c:?}").as_bytes(), &mut h),
        IrExpr::Var(v) => mix(format!("V{}", v.as_str()).as_bytes(), &mut h),
        IrExpr::App(_, _) => mix(b"A", &mut h),
        IrExpr::Lambda { param, site, .. } => {
            let o = claim(*site, &mut ordinal);
            mix(format!("L{}@{o}", param.as_str()).as_bytes(), &mut h);
        }
        IrExpr::If(_, _, _) => mix(b"I", &mut h),
        IrExpr::Letrec(binds, _) => {
            let names: Vec<&str> = body.binds(*binds).iter().map(|(n, _)| n.as_str()).collect();
            mix(format!("R{}", names.join(",")).as_bytes(), &mut h);
        }
        IrExpr::Cons { alloc, site, .. } => {
            let o = claim(*site, &mut ordinal);
            mix(format!("K{}@{o}", mode_tag(*alloc)).as_bytes(), &mut h);
        }
        IrExpr::Dcons { reused, site, .. } => {
            let o = claim(*site, &mut ordinal);
            mix(format!("D{}@{o}", reused.as_str()).as_bytes(), &mut h);
        }
        IrExpr::Prim1(p, _) => mix(format!("1{p:?}").as_bytes(), &mut h),
        IrExpr::Prim2(p, _, _) => mix(format!("2{p:?}").as_bytes(), &mut h),
        IrExpr::Region { kind, site, .. } => {
            let o = claim(*site, &mut ordinal);
            let k = match kind {
                RegionKind::Stack => "s",
                RegionKind::Block => "b",
            };
            mix(format!("G{k}@{o}").as_bytes(), &mut h);
        }
    });
    owner_hashes.insert(owner.to_owned(), h);
}

fn mode_tag(mode: AllocMode) -> &'static str {
    match mode {
        AllocMode::Heap => "h",
        AllocMode::Stack => "s",
        AllocMode::Block => "b",
        AllocMode::Pretenured => "p",
        AllocMode::Elided => "e",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_escape::analyze_source;

    const SRC_A: &str = "letrec mk n = if n = 0 then nil else cons n (mk (n - 1));\n\
                         pad n = n + 0\n\
                         in mk 3";
    // Same `mk`, edited `pad`.
    const SRC_B: &str = "letrec mk n = if n = 0 then nil else cons n (mk (n - 1));\n\
                         pad n = n + 7\n\
                         in mk 3";
    // Edited `mk` (extra arithmetic), same `pad`.
    const SRC_C: &str = "letrec mk n = if n = 0 then nil else cons (n + 1) (mk (n - 1));\n\
                         pad n = n + 0\n\
                         in mk 3";

    fn build(src: &str, qmap: &CarryMap) -> Epoch {
        let analysis = analyze_source(src).expect("analyzes");
        let cfg = ServeConfig {
            optimize: false,
            ..ServeConfig::default()
        };
        Epoch::build(1, &analysis, src, &cfg, qmap, Arc::new(Stats::default())).expect("builds")
    }

    fn cons_site_of(ep: &Epoch, owner: &str) -> SiteId {
        let f = ep
            .program
            .funcs
            .iter()
            .find(|f| f.name.as_str() == owner)
            .expect("owner exists");
        let mut found = None;
        f.body.walk(|_, e| {
            if let IrExpr::Cons { site, .. } = e {
                found.get_or_insert(*site);
            }
        });
        found.expect("owner has a cons site")
    }

    #[test]
    fn quarantine_carries_over_unchanged_owner() {
        let mut qmap = CarryMap::new();
        let ep1 = build(SRC_A, &qmap);
        let site = cons_site_of(&ep1, "mk");
        assert!(ep1.record_quarantine(site, &mut qmap));
        assert_eq!(qmap.len(), 1);

        // `pad` changed, `mk` did not: the quarantine must survive.
        let ep2 = build(SRC_B, &qmap);
        let site2 = cons_site_of(&ep2, "mk");
        assert!(
            ep2.quarantine_snapshot().contains(site2),
            "carried across epochs"
        );

        // `mk` itself changed: the site is re-tried (not quarantined).
        let ep3 = build(SRC_C, &qmap);
        assert_eq!(ep3.quarantine_len(), 0, "changed owner is re-tried");
    }

    #[test]
    fn drop_accounting_counts_retirement_and_leaks() {
        let stats = Arc::new(Stats::default());
        let analysis = analyze_source(SRC_A).expect("analyzes");
        let cfg = ServeConfig {
            optimize: false,
            ..ServeConfig::default()
        };
        let ep = Epoch::build(1, &analysis, SRC_A, &cfg, &CarryMap::new(), stats.clone())
            .expect("builds");
        ep.retire();
        ep.inflight.store(1, Ordering::SeqCst); // simulate a vanished request
        drop(ep);
        assert_eq!(stats.epochs_retired.load(Ordering::Relaxed), 1);
        assert_eq!(stats.epoch_leaks.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn site_labels_are_stable_across_epochs() {
        let qmap = CarryMap::new();
        let ep1 = build(SRC_A, &qmap);
        let ep2 = build(SRC_B, &qmap);
        let s1 = cons_site_of(&ep1, "mk");
        let s2 = cons_site_of(&ep2, "mk");
        assert_eq!(ep1.site_label(s1), ep2.site_label(s2));
    }
}
