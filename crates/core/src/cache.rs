//! Persistent on-disk summary cache for the SCC-modular scheduler.
//!
//! Each SCC of the call graph gets a 64-bit FNV-1a content hash over
//!
//! 1. a format/salt line covering the cache version and the
//!    [`EngineConfig`](crate::engine::EngineConfig) knobs that can change
//!    verdicts (widening depth/arity, pass cap);
//! 2. every member binding: its name, the structure of its right-hand
//!    side (one walk folding a tag byte per node and its names and
//!    literals; spans and node ids are left out), and its inferred
//!    signature, folded the same way;
//! 3. the hashes of every dependency SCC, sorted.
//!
//! Point 3 makes the key *transitive*: editing any function invalidates
//! exactly the SCCs that can observe the edit, and nothing else. The cache
//! stores only the per-parameter escape verdicts — the cheap, stable part
//! of an [`EscapeSummary`]; parameter types are reconstructed from the
//! live [`TypeInfo`](nml_types::TypeInfo) at load, which is safe because a
//! hash hit implies the member signatures are unchanged.
//!
//! Degraded (worst-case fallback) summaries are **never** stored: they are
//! budget-dependent accidents, not facts about the program, and caching
//! one would freeze an avoidable imprecision across runs.
//!
//! ## Hardened format (v2), lattice verdicts (v3), structural keys (v4)
//!
//! The file is line-oriented UTF-8, and since v2 it does not trust the
//! bytes it finds on disk:
//!
//! - the header carries a **format version** (`nml-summary-cache v4`);
//!   any other version — including a well-formed v2 or v3 file — starts
//!   cold rather than misparse. v4 changed no record, only the keys: they
//!   hash the syntax tree where v3 hashed its pretty-printed text, so a v3
//!   key could never match and a v3 file must not be read at all;
//! - since v3 every per-parameter verdict carries its escape-lattice
//!   code letter ([`EscapeState::code`]): `esc:spines:letter`, e.g.
//!   `1:0:R`. The letter is redundant with the escape bit today (cached
//!   verdicts only distinguish no-escape from return-escape) and is
//!   **verified on parse** — a mismatch drops the entry like any other
//!   corruption, and the letter reserves room for finer-grained states
//!   without another format break;
//! - every entry's `end` record carries a **per-entry FNV checksum** over
//!   the entry's canonical text, so a bit flip inside one entry drops
//!   exactly that entry;
//! - the final `file` record carries a **whole-file FNV checksum** over
//!   everything above it, catching truncation and splices;
//! - recovery **salvages**: corrupt or unverifiable entries are dropped
//!   and counted, intact entries load normally, and the damage is
//!   reported as a warning through the schedule report — never a failed
//!   analysis, never a discarded-whole cache for one bad entry;
//! - [`SummaryCache::save`] writes to a sibling temp file and renames it
//!   into place, so a crash mid-save leaves the previous cache intact.
//!
//! ## Concurrent writers (v2 + locking)
//!
//! A persistent server (or several `nmlc` processes pointed at the same
//! `--summary-cache`) can save concurrently. `save` therefore:
//!
//! 1. takes an **advisory exclusive lock** on a sibling `<path>.lock`
//!    file (the lock file, not the cache file, because the atomic rename
//!    replaces the cache's inode and would strand a lock held on it);
//! 2. **merges on save**: re-reads the on-disk cache under the lock and
//!    overlays this process's entries, so writers with disjoint entries
//!    lose nothing — last-writer-wins applies per entry, not per file.
//!    Stale entries are harmless: keys are content hashes, so an
//!    outdated entry can never be *hit* incorrectly, only ignored;
//! 3. falls back to the plain atomic rename (still torn-file-safe, just
//!    last-writer-wins per file) on filesystems without lock support.

use crate::be::Be;
use crate::escape_lattice::EscapeState;
use crate::global::{EscapeSummary, ParamEscape};
use nml_syntax::Symbol;
use nml_types::Ty;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// FNV-1a, 64-bit. Hand-rolled so the key format is fully pinned by this
/// crate (no dependency on the std hasher's unspecified algorithm).
#[derive(Debug, Clone)]
pub struct ContentHash(u64);

impl ContentHash {
    /// The FNV-1a offset basis.
    pub fn new() -> ContentHash {
        ContentHash(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` into the hash.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string and a separator (so adjacent fields cannot collide
    /// by concatenation).
    pub fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        self.write(&[0xff]);
    }

    /// The final 64-bit digest.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for ContentHash {
    fn default() -> Self {
        ContentHash::new()
    }
}

/// The cached escape verdicts of one function: `(escapes, spines)` per
/// parameter, in parameter order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CachedFn {
    /// The function's name.
    pub name: String,
    /// Per-parameter verdicts as `(escapes, spines)` pairs.
    pub verdicts: Vec<(bool, u32)>,
}

/// The cached entry for one SCC: the verdicts of its function members.
/// SCCs whose members are all non-functions store an empty list — the
/// entry still short-circuits re-analysis.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CachedScc {
    /// Function members, in member order.
    pub fns: Vec<CachedFn>,
}

impl CachedScc {
    /// Rebuilds the summary of `name` from the cached verdicts and the
    /// live signature. Returns `None` when the entry does not cover the
    /// function or its arity changed (treated as a miss by the caller).
    pub fn summary_for(&self, name: Symbol, sig: &Ty) -> Option<EscapeSummary> {
        let name_text = name.as_str();
        let cached = self.fns.iter().find(|f| f.name == name_text)?;
        let (param_tys, result_ty) = sig.uncurry();
        if cached.verdicts.len() != param_tys.len() {
            return None;
        }
        let params = param_tys
            .iter()
            .zip(&cached.verdicts)
            .enumerate()
            .map(|(i, (ty, &(escapes, spines)))| ParamEscape {
                index: i,
                ty: ty.clone(),
                spines: ty.spines(),
                verdict: if escapes {
                    Be::escaping(spines)
                } else {
                    Be::bottom()
                },
            })
            .collect();
        Some(EscapeSummary {
            name,
            param_tys,
            result_ty,
            params,
        })
    }
}

/// An in-memory view of one on-disk summary cache file.
#[derive(Debug, Clone, Default)]
pub struct SummaryCache {
    entries: BTreeMap<u64, CachedScc>,
}

const HEADER: &str = "nml-summary-cache v4";

/// The lattice code letter a cached `(escapes, _)` verdict must carry:
/// an escaping parameter reaches its caller's result (`R`), a
/// non-escaping one stays at the lattice bottom (`N`).
fn verdict_code(escapes: bool) -> char {
    if escapes {
        EscapeState::ReturnEscape.code()
    } else {
        EscapeState::NoEscape.code()
    }
}

/// What a salvaging parse recovered from an on-disk cache file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Salvage {
    /// Entries that parsed and passed their checksums.
    pub kept: usize,
    /// Entries dropped as corrupt, truncated, or checksum-failing.
    pub dropped: usize,
    /// Whether the whole-file checksum trailer was present and matched.
    pub file_ok: bool,
}

/// An advisory exclusive lock guarding the cache write path, held on a
/// sibling `<path>.lock` file and released on drop. Acquisition is
/// best-effort: `None` means the filesystem refused, and the caller
/// degrades to an unmerged (but still atomic) save.
struct CacheLock {
    file: std::fs::File,
}

impl CacheLock {
    fn lock_path(cache_path: &Path) -> std::path::PathBuf {
        let mut os = cache_path.as_os_str().to_owned();
        os.push(".lock");
        std::path::PathBuf::from(os)
    }

    fn acquire(cache_path: &Path) -> Option<CacheLock> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .write(true)
            .open(Self::lock_path(cache_path))
            .ok()?;
        // Blocks until the current writer finishes; cache saves are
        // small, so contention is momentary.
        file.lock().ok()?;
        Some(CacheLock { file })
    }
}

impl Drop for CacheLock {
    fn drop(&mut self) {
        // Best-effort: the OS also releases the lock when the
        // descriptor closes.
        let _ = self.file.unlock();
    }
}

/// FNV-1a digest of a string (the cache's entry and file checksums).
fn checksum(s: &str) -> u64 {
    let mut h = ContentHash::new();
    h.write(s.as_bytes());
    h.finish()
}

/// The canonical text of one entry (everything its `end` checksum
/// covers): the `scc` line plus its `fn` lines.
fn entry_body(hash: u64, scc: &CachedScc) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "scc {hash:016x}");
    for f in &scc.fns {
        let _ = write!(out, "fn {} {}", f.name, f.verdicts.len());
        for (escapes, spines) in &f.verdicts {
            let _ = write!(
                out,
                " {}:{}:{}",
                u8::from(*escapes),
                spines,
                verdict_code(*escapes)
            );
        }
        out.push('\n');
    }
    out
}

fn parse_fn_line<'a>(mut parts: impl Iterator<Item = &'a str>) -> Result<CachedFn, String> {
    let name = parts.next().ok_or("fn missing name")?.to_string();
    let arity: usize = parts
        .next()
        .ok_or("fn missing arity")?
        .parse()
        .map_err(|e| format!("bad arity: {e}"))?;
    let mut verdicts = Vec::with_capacity(arity.min(64));
    for _ in 0..arity {
        let v = parts.next().ok_or("fn missing verdict")?;
        let mut fields = v.split(':');
        let esc = fields.next().ok_or("bad verdict")?;
        let spines = fields.next().ok_or("bad verdict")?;
        let code = fields.next().ok_or("verdict missing lattice code")?;
        if fields.next().is_some() {
            return Err("bad verdict".to_string());
        }
        let escapes = match esc {
            "1" => true,
            "0" => false,
            _ => return Err("bad escape flag".to_string()),
        };
        let spines: u32 = spines.parse().map_err(|e| format!("bad spines: {e}"))?;
        // The lattice letter must agree with the escape bit and name a
        // real state; anything else is corruption (or a future format
        // this version does not understand).
        let state = code
            .chars()
            .next()
            .filter(|_| code.chars().count() == 1)
            .and_then(EscapeState::from_code)
            .ok_or("bad lattice code")?;
        if state.code() != verdict_code(escapes) {
            return Err(format!(
                "lattice code `{code}` contradicts escape bit `{esc}`"
            ));
        }
        verdicts.push((escapes, spines));
    }
    Ok(CachedFn { name, verdicts })
}

impl SummaryCache {
    /// Loads the cache at `path`. A missing file is an empty cache; a
    /// damaged one salvages every intact entry and reports the damage as
    /// a warning string (the analysis itself must never fail on cache
    /// trouble, and one flipped bit must never discard the whole cache).
    pub fn load(path: &Path) -> (SummaryCache, Option<String>) {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return (SummaryCache::default(), None);
            }
            Err(e) => {
                return (
                    SummaryCache::default(),
                    Some(format!("cannot read {}: {e}", path.display())),
                );
            }
        };
        match Self::parse(&text) {
            Ok((cache, s)) if s.dropped == 0 && s.file_ok => (cache, None),
            Ok((cache, s)) => {
                let mut msg = format!(
                    "cache {}: salvaged {} of {} entries",
                    path.display(),
                    s.kept,
                    s.kept + s.dropped
                );
                if !s.file_ok {
                    msg.push_str(" (file checksum mismatch or truncation)");
                }
                (cache, Some(msg))
            }
            Err(msg) => (
                SummaryCache::default(),
                Some(format!("ignoring cache {}: {msg}", path.display())),
            ),
        }
    }

    /// Salvaging parse: entries that fail to parse or fail their `end`
    /// checksum are dropped individually; intact entries load.
    ///
    /// # Errors
    ///
    /// Only a missing or mismatched header (wrong format version) — then
    /// nothing in the file can be trusted to follow this format.
    fn parse(text: &str) -> Result<(SummaryCache, Salvage), String> {
        // Split off and verify the whole-file checksum trailer. The
        // trailer covers every byte above it, header included.
        let (body, file_ok) = match text.rfind("\nfile ") {
            Some(pos) => {
                let prefix = &text[..pos + 1];
                let ok = text[pos + 1..]
                    .trim_end()
                    .strip_prefix("file ")
                    .and_then(|hex| u64::from_str_radix(hex.trim(), 16).ok())
                    .is_some_and(|want| want == checksum(prefix));
                (prefix, ok)
            }
            None => (text, false),
        };
        let mut lines = body.lines();
        match lines.next() {
            Some(h) if h == HEADER => {}
            Some(h) if h.starts_with("nml-summary-cache ") => {
                return Err(format!(
                    "format version mismatch (`{h}`, expected `{HEADER}`)"
                ));
            }
            _ => return Err("bad header".to_string()),
        }
        let mut entries = BTreeMap::new();
        let mut salvage = Salvage {
            file_ok,
            ..Salvage::default()
        };
        // The entry being accumulated; `None` + `skipping` means we are
        // discarding lines until the next `scc` record.
        let mut current: Option<(u64, CachedScc)> = None;
        let mut skipping = false;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("scc") => {
                    if current.take().is_some() {
                        // Previous entry never reached its `end`.
                        salvage.dropped += 1;
                    }
                    skipping = false;
                    match parts
                        .next()
                        .ok_or(())
                        .and_then(|hex| u64::from_str_radix(hex, 16).map_err(|_| ()))
                    {
                        Ok(hash) => current = Some((hash, CachedScc::default())),
                        Err(()) => {
                            salvage.dropped += 1;
                            skipping = true;
                        }
                    }
                }
                Some("fn") if skipping => {}
                Some("fn") => match (current.as_mut(), parse_fn_line(parts)) {
                    (Some((_, scc)), Ok(f)) => scc.fns.push(f),
                    (got, _) => {
                        if got.is_some() {
                            current = None;
                            salvage.dropped += 1;
                        }
                        skipping = true;
                    }
                },
                Some("end") => {
                    if skipping {
                        skipping = false;
                        continue;
                    }
                    match current.take() {
                        Some((hash, scc)) => {
                            let want = parts.next().and_then(|h| u64::from_str_radix(h, 16).ok());
                            if want == Some(checksum(&entry_body(hash, &scc))) {
                                entries.insert(hash, scc);
                                salvage.kept += 1;
                            } else {
                                salvage.dropped += 1;
                            }
                        }
                        None => salvage.dropped += 1,
                    }
                }
                Some(_) => {
                    if current.take().is_some() {
                        salvage.dropped += 1;
                    }
                    skipping = true;
                }
                None => {}
            }
        }
        if current.is_some() {
            salvage.dropped += 1;
        }
        Ok((SummaryCache { entries }, salvage))
    }

    /// Looks up the entry for one SCC hash.
    pub fn get(&self, hash: u64) -> Option<&CachedScc> {
        self.entries.get(&hash)
    }

    /// Inserts or replaces the entry for one SCC hash.
    pub fn insert(&mut self, hash: u64, entry: CachedScc) {
        self.entries.insert(hash, entry);
    }

    /// Number of cached SCC entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Serializes the cache to its checksummed text format: each entry's
    /// `end` record carries the entry checksum, and a trailing `file`
    /// record covers the whole text above it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(HEADER);
        out.push('\n');
        for (hash, scc) in &self.entries {
            let body = entry_body(*hash, scc);
            let sum = checksum(&body);
            out.push_str(&body);
            let _ = writeln!(out, "end {sum:016x}");
        }
        let file_sum = checksum(&out);
        let _ = writeln!(out, "file {file_sum:016x}");
        out
    }

    /// Writes the cache to `path`, creating parent directories as needed.
    ///
    /// The write is concurrency-safe on two levels. It is **atomic**:
    /// the text goes to a sibling temp file first and is renamed into
    /// place, so a crash mid-save leaves the previous cache intact and
    /// concurrent readers never see a torn file. And it is **merging**:
    /// under an advisory exclusive lock on `<path>.lock`, the on-disk
    /// entries are re-read and this cache's entries overlaid, so
    /// concurrent writers interleave per entry instead of clobbering
    /// each other's files wholesale. When the lock cannot be taken
    /// (e.g. an exotic filesystem), the save degrades to the plain
    /// atomic rename rather than failing.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on any I/O failure (the caller
    /// reports it and moves on; a failed save never fails the analysis).
    pub fn save(&self, path: &Path) -> Result<(), String> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)
                    .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
            }
        }
        let lock = CacheLock::acquire(path);
        let text = if lock.is_some() {
            // Exclusive: nobody else is between their read and rename,
            // so read-merge-rename is a consistent update.
            let (disk, _) = SummaryCache::load(path);
            let mut merged = disk;
            for (hash, scc) in &self.entries {
                merged.entries.insert(*hash, scc.clone());
            }
            merged.render()
        } else {
            self.render()
        };
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        std::fs::write(&tmp, text).map_err(|e| format!("cannot write {}: {e}", tmp.display()))?;
        std::fs::rename(&tmp, path).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            format!("cannot rename {} into place: {e}", tmp.display())
        })
        // `lock` drops here, releasing the advisory lock after the
        // rename is visible.
    }
}

/// Converts an [`EscapeSummary`] into its cacheable verdict form.
pub fn cached_fn_of(summary: &EscapeSummary) -> CachedFn {
    CachedFn {
        name: summary.name.as_str().to_string(),
        verdicts: summary
            .params
            .iter()
            .map(|p| (p.verdict.escapes(), p.verdict.spines()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_cache() -> SummaryCache {
        let mut cache = SummaryCache::default();
        cache.insert(
            0xdead_beef,
            CachedScc {
                fns: vec![CachedFn {
                    name: "append".to_string(),
                    verdicts: vec![(true, 0), (true, 1)],
                }],
            },
        );
        cache.insert(0x42, CachedScc { fns: vec![] });
        cache
    }

    #[test]
    fn round_trips_through_text() {
        let cache = sample_cache();
        let text = cache.render();
        let (parsed, s) = SummaryCache::parse(&text).expect("parse");
        assert_eq!(parsed.get(0xdead_beef), cache.get(0xdead_beef));
        assert_eq!(parsed.get(0x42), cache.get(0x42));
        assert_eq!(parsed.len(), 2);
        assert_eq!(
            s,
            Salvage {
                kept: 2,
                dropped: 0,
                file_ok: true
            }
        );
    }

    #[test]
    fn wrong_format_version_starts_cold() {
        assert!(SummaryCache::parse("garbage").is_err());
        let v1 = "nml-summary-cache v1\nscc 002a\nend\n";
        let err = SummaryCache::parse(v1).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
    }

    #[test]
    fn well_formed_v2_file_is_rejected_cleanly() {
        // A byte-exact v2 cache (two-field verdicts, v2 header, correct
        // v2 checksums). The reader must refuse it at the header — a
        // version mismatch, not a parse error or a partial salvage.
        let entry = "scc 00000000deadbeef\nfn append 2 1:0 1:1\n";
        let entry_sum = checksum(entry);
        let mut v2 = format!("nml-summary-cache v2\n{entry}end {entry_sum:016x}\n");
        let file_sum = checksum(&v2);
        let _ = writeln!(v2, "file {file_sum:016x}");
        let err = SummaryCache::parse(&v2).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(err.contains("v2"), "{err}");
    }

    #[test]
    fn well_formed_v3_file_is_rejected_cleanly() {
        // A v3 file is byte-for-byte a v4 file under another header: only
        // the keys' meaning changed. It must be refused at the header.
        let entry = "scc 00000000deadbeef\nfn append 2 1:0:R 1:1:R\n";
        let entry_sum = checksum(entry);
        let mut v3 = format!("nml-summary-cache v3\n{entry}end {entry_sum:016x}\n");
        let file_sum = checksum(&v3);
        let _ = writeln!(v3, "file {file_sum:016x}");
        let err = SummaryCache::parse(&v3).unwrap_err();
        assert!(err.contains("version mismatch"), "{err}");
        assert!(err.contains("v3"), "{err}");
        let v4 = v3.replace("nml-summary-cache v3", HEADER);
        let (cache, s) = SummaryCache::parse(&v4).expect("same records under v4");
        assert!(cache.get(0xdead_beef).is_some());
        assert_eq!(s.dropped, 0);
    }

    #[test]
    fn contradictory_lattice_code_drops_the_entry() {
        let cache = sample_cache();
        // `1:0:N` claims escaping with the no-escape lattice letter.
        let text = cache.render().replace("1:0:R", "1:0:N");
        let (parsed, s) = SummaryCache::parse(&text).unwrap();
        assert!(parsed.get(0xdead_beef).is_none(), "lying entry dropped");
        assert!(parsed.get(0x42).is_some(), "honest entry salvaged");
        assert_eq!(s.dropped, 1);
        // An unknown letter is equally fatal for the entry.
        let text = cache.render().replace("1:0:R", "1:0:Z");
        let (parsed, _) = SummaryCache::parse(&text).unwrap();
        assert!(parsed.get(0xdead_beef).is_none());
    }

    #[test]
    fn corrupt_entries_are_dropped_individually() {
        // No trailer at all: nothing verifiable, but nothing to drop.
        let (cache, s) = SummaryCache::parse(HEADER).unwrap();
        assert!(cache.is_empty());
        assert!(!s.file_ok);

        // A bad scc hash poisons only that entry.
        let mut good = SummaryCache::default();
        good.insert(
            0x1f,
            CachedScc {
                fns: vec![CachedFn {
                    name: "f".to_string(),
                    verdicts: vec![(false, 2)],
                }],
            },
        );
        let good_text = good.render();
        let good_entry: String = good_text
            .lines()
            .filter(|l| !l.starts_with("file ") && *l != HEADER)
            .map(|l| format!("{l}\n"))
            .collect();
        let text = format!("{HEADER}\nscc zz\nfn g 1 1:0:R\nend\n{good_entry}");
        let (cache, s) = SummaryCache::parse(&text).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(cache.get(0x1f).is_some());
        assert_eq!(s.kept, 1);
        assert_eq!(s.dropped, 1);

        // An entry with no checksum on its `end` fails verification.
        let text = format!("{HEADER}\nscc 000000000000001f\nfn f 1 0:2:N\nend\n");
        let (cache, s) = SummaryCache::parse(&text).unwrap();
        assert!(cache.is_empty());
        assert_eq!(s.dropped, 1);

        // Truncation mid-entry drops the tail entry only.
        let truncated: String = good_text
            .lines()
            .take_while(|l| !l.starts_with("end"))
            .map(|l| format!("{l}\n"))
            .collect();
        let (cache, s) = SummaryCache::parse(&truncated).unwrap();
        assert!(cache.is_empty());
        assert_eq!(s.dropped, 1);
        assert!(!s.file_ok);
    }

    #[test]
    fn bit_flip_in_one_entry_salvages_the_rest() {
        let cache = sample_cache();
        let text = cache.render();
        // Flip the verdict inside the 0xdeadbeef entry: "1:0" -> "1:9".
        let corrupted = text.replace("fn append 2 1:0:R 1:1:R", "fn append 2 1:9:R 1:1:R");
        assert_ne!(text, corrupted, "fixture must actually corrupt a line");
        let (parsed, s) = SummaryCache::parse(&corrupted).unwrap();
        assert!(parsed.get(0xdead_beef).is_none(), "corrupt entry dropped");
        assert!(parsed.get(0x42).is_some(), "intact entry salvaged");
        assert_eq!(s.kept, 1);
        assert_eq!(s.dropped, 1);
        assert!(!s.file_ok, "file checksum notices the flip");
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = ContentHash::new();
        h.write_str("append");
        let a = h.finish();
        let mut h2 = ContentHash::new();
        h2.write_str("append");
        assert_eq!(a, h2.finish());
        let mut h3 = ContentHash::new();
        h3.write_str("appenc");
        assert_ne!(a, h3.finish());
    }

    #[test]
    fn missing_file_is_empty_cache() {
        let (cache, err) = SummaryCache::load(Path::new("/nonexistent/dir/cache.txt"));
        assert!(cache.is_empty());
        assert!(err.is_none());
    }
}
