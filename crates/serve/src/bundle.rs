//! Crash-bundle flight recorder.
//!
//! When a worker panics or checked mode reports a soundness violation,
//! the server captures everything needed to re-execute the failing
//! request deterministically in-process: the program source and its
//! hash, the admission epoch, the raw request line (which embeds the
//! fault plan, seed, and fuel knobs), and a snapshot of the server
//! configuration that shaped execution. Bundles are written to a bounded
//! on-disk ring (`crash-NNNNNN.json`, oldest pruned first) with
//! write-to-temp-then-rename so a crash mid-write never leaves a torn
//! bundle. `nmlc replay BUNDLE` re-executes one (see [`crate::replay()`]).
//!
//! This is **bundle format v1**: a single JSON object with a `version`
//! field; readers reject other versions rather than guessing. Readers
//! ignore keys they do not know, so a bundle written before the heap
//! became always generational (its config carries a boolean for the
//! removed single-space mode) still loads.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::server::ServeConfig;

/// Snapshot of the [`ServeConfig`] fields that affect execution of one
/// request, embedded in a bundle so replay reconstructs the same engine.
///
/// Deliberately excluded: socket/queue/worker topology (replay is
/// in-process and single-threaded) and the wall-clock deadline (replay
/// must be deterministic; fuel is the deterministic stand-in).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BundleConfig {
    /// Checked (soundness-verifying) heap mode.
    pub checked: bool,
    /// Whether the escape-directed optimizer ran.
    pub optimize: bool,
    /// Quarantine-recompile retry limit.
    pub max_retries: u32,
    /// Interpreter depth limit override.
    pub max_depth: Option<usize>,
    /// Deadline→fuel conversion rate.
    pub steps_per_ms: u64,
    /// Server-default fuel for requests that specify none.
    pub default_fuel: Option<u64>,
    /// Server-default deadline for requests that specify none.
    pub default_timeout_ms: Option<u64>,
    /// Nursery size (KiB) of the worker's generational heap.
    pub nursery_kb: usize,
    /// Sites force-stacked by the sabotage plan (test harness knob).
    pub sabotage: Vec<u32>,
    /// The quarantine set the admission epoch's program was built with
    /// (the program that crashed).
    pub quarantine: Vec<u32>,
    /// Analysis budget: max Kleene passes (`None` = unlimited).
    pub budget_passes: Option<u64>,
    /// Analysis budget: max nodes visited (`None` = unlimited).
    pub budget_nodes: Option<u64>,
}

/// A replayable crash capture. See the module docs for the format story.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashBundle {
    /// Format version; always 1.
    pub version: u32,
    /// `"worker_panicked"` or `"soundness_violation"`.
    pub kind: String,
    /// Stable crash signature (panic message, or `owner#ordinal` + claim
    /// for soundness violations). Repeats of one signature escalate to a
    /// server-wide quarantine of the site.
    pub signature: String,
    /// Admission epoch of the crashing request.
    pub epoch: u64,
    /// FNV-1a hash of `src`, as 16 hex digits (u64 can overflow JSON's
    /// integer range, so it travels as a string).
    pub program_hash: String,
    /// Full program source of the admission epoch.
    pub src: String,
    /// The raw request line, verbatim — it embeds the fault plan, seed,
    /// fuel, and deadline, so replay needs no private runtime state.
    pub request: String,
    /// Crash site as a raw id in the admission epoch's numbering, when
    /// attributable (soundness violations carry one; panics may not).
    pub site: Option<u32>,
    /// Execution-shaping configuration snapshot.
    pub config: BundleConfig,
    /// Interpreter steps retired by the worker before the crash, if known.
    pub steps: u64,
}

impl BundleConfig {
    /// Captures the execution-relevant slice of a live config.
    pub fn capture(cfg: &ServeConfig, quarantine: Vec<u32>) -> BundleConfig {
        BundleConfig {
            checked: cfg.checked,
            optimize: cfg.optimize,
            max_retries: cfg.max_retries,
            max_depth: cfg.max_depth,
            steps_per_ms: cfg.steps_per_ms,
            default_fuel: cfg.default_fuel,
            default_timeout_ms: cfg.default_timeout_ms,
            nursery_kb: cfg.nursery_kb,
            sabotage: cfg.sabotage.stack_sites.iter().map(|s| s.0).collect(),
            quarantine,
            budget_passes: budget_opt(cfg.budget.max_passes as u64, u32::MAX as u64),
            budget_nodes: budget_opt(cfg.budget.max_nodes, u64::MAX),
        }
    }
}

fn budget_opt(v: u64, unlimited: u64) -> Option<u64> {
    if v == unlimited {
        None
    } else {
        Some(v)
    }
}

fn int(v: u64) -> Json {
    Json::Int(v as i64)
}

fn opt_int(v: Option<u64>) -> Json {
    match v {
        Some(v) => int(v),
        None => Json::Null,
    }
}

fn sites(v: &[u32]) -> Json {
    Json::Arr(v.iter().map(|s| Json::Int(*s as i64)).collect())
}

impl CrashBundle {
    /// Serializes the bundle as its on-disk JSON object.
    pub fn to_json(&self) -> Json {
        let c = &self.config;
        let config = Json::Obj(vec![
            ("checked".into(), Json::Bool(c.checked)),
            ("optimize".into(), Json::Bool(c.optimize)),
            ("max_retries".into(), int(c.max_retries as u64)),
            ("max_depth".into(), opt_int(c.max_depth.map(|d| d as u64))),
            ("steps_per_ms".into(), int(c.steps_per_ms)),
            ("default_fuel".into(), opt_int(c.default_fuel)),
            ("default_timeout_ms".into(), opt_int(c.default_timeout_ms)),
            ("nursery_kb".into(), int(c.nursery_kb as u64)),
            ("sabotage".into(), sites(&c.sabotage)),
            ("quarantine".into(), sites(&c.quarantine)),
            ("budget_passes".into(), opt_int(c.budget_passes)),
            ("budget_nodes".into(), opt_int(c.budget_nodes)),
        ]);
        Json::Obj(vec![
            ("version".into(), int(self.version as u64)),
            ("kind".into(), Json::Str(self.kind.clone())),
            ("signature".into(), Json::Str(self.signature.clone())),
            ("epoch".into(), int(self.epoch)),
            ("program_hash".into(), Json::Str(self.program_hash.clone())),
            ("src".into(), Json::Str(self.src.clone())),
            ("request".into(), Json::Str(self.request.clone())),
            ("site".into(), opt_int(self.site.map(|s| s as u64))),
            ("config".into(), config),
            ("steps".into(), int(self.steps)),
        ])
    }

    /// Parses a bundle from its JSON form, rejecting unknown versions.
    pub fn from_json(j: &Json) -> Result<CrashBundle, String> {
        let version = field_u64(j, "version")? as u32;
        if version != 1 {
            return Err(format!("unsupported bundle version {version} (expected 1)"));
        }
        let c = j.get("config").ok_or("bundle missing 'config'")?;
        let config = BundleConfig {
            checked: field_bool(c, "checked")?,
            optimize: field_bool(c, "optimize")?,
            max_retries: field_u64(c, "max_retries")? as u32,
            max_depth: opt_field_u64(c, "max_depth")?.map(|d| d as usize),
            steps_per_ms: field_u64(c, "steps_per_ms")?,
            default_fuel: opt_field_u64(c, "default_fuel")?,
            default_timeout_ms: opt_field_u64(c, "default_timeout_ms")?,
            nursery_kb: field_u64(c, "nursery_kb")? as usize,
            sabotage: field_sites(c, "sabotage")?,
            quarantine: field_sites(c, "quarantine")?,
            budget_passes: opt_field_u64(c, "budget_passes")?,
            budget_nodes: opt_field_u64(c, "budget_nodes")?,
        };
        Ok(CrashBundle {
            version,
            kind: field_str(j, "kind")?,
            signature: field_str(j, "signature")?,
            epoch: field_u64(j, "epoch")?,
            program_hash: field_str(j, "program_hash")?,
            src: field_str(j, "src")?,
            request: field_str(j, "request")?,
            site: opt_field_u64(j, "site")?.map(|s| s as u32),
            config,
            steps: field_u64(j, "steps")?,
        })
    }

    /// Reads and parses a bundle file.
    pub fn load(path: &Path) -> Result<CrashBundle, String> {
        let text =
            fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let j = crate::json::parse(&text)
            .map_err(|e| format!("{} is not valid JSON: {e}", path.display()))?;
        CrashBundle::from_json(&j)
    }
}

fn field_str(j: &Json, key: &str) -> Result<String, String> {
    j.get(key)
        .and_then(|v| v.as_str())
        .map(str::to_owned)
        .ok_or_else(|| format!("bundle missing string '{key}'"))
}

fn field_u64(j: &Json, key: &str) -> Result<u64, String> {
    j.get(key)
        .and_then(|v| v.as_int())
        .filter(|v| *v >= 0)
        .map(|v| v as u64)
        .ok_or_else(|| format!("bundle missing integer '{key}'"))
}

fn opt_field_u64(j: &Json, key: &str) -> Result<Option<u64>, String> {
    match j.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_int()
            .filter(|v| *v >= 0)
            .map(|v| Some(v as u64))
            .ok_or_else(|| format!("bundle field '{key}' is not an integer")),
    }
}

fn field_bool(j: &Json, key: &str) -> Result<bool, String> {
    match j.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("bundle missing boolean '{key}'")),
    }
}

fn field_sites(j: &Json, key: &str) -> Result<Vec<u32>, String> {
    let arr = j
        .get(key)
        .and_then(|v| v.as_arr())
        .ok_or_else(|| format!("bundle missing array '{key}'"))?;
    arr.iter()
        .map(|v| {
            v.as_int()
                .filter(|v| *v >= 0 && *v <= u32::MAX as i64)
                .map(|v| v as u32)
                .ok_or_else(|| format!("bundle array '{key}' holds a non-site value"))
        })
        .collect()
}

/// Bounded on-disk ring of crash bundles.
///
/// Files are named `crash-NNNNNN.json` with a monotonically increasing
/// sequence number; when the ring exceeds its capacity the lowest
/// numbers are pruned. A fresh ring resumes numbering after any bundles
/// already present in the directory.
#[derive(Debug)]
pub struct BundleRing {
    dir: PathBuf,
    cap: usize,
    next_seq: u64,
}

impl BundleRing {
    /// Opens (creating if needed) a ring in `dir` holding at most `cap`
    /// bundles. `cap` is clamped to at least 1.
    pub fn new(dir: impl Into<PathBuf>, cap: usize) -> io::Result<BundleRing> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let next_seq = existing_seqs(&dir).last().map_or(0, |s| s + 1);
        Ok(BundleRing {
            dir,
            cap: cap.max(1),
            next_seq,
        })
    }

    /// The ring directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Writes a bundle atomically (temp file + rename) and prunes the
    /// oldest entries past capacity. Returns the bundle's path.
    pub fn push(&mut self, bundle: &CrashBundle) -> io::Result<PathBuf> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let name = format!("crash-{seq:06}.json");
        let tmp = self.dir.join(format!(".{name}.tmp"));
        let path = self.dir.join(&name);
        fs::write(&tmp, format!("{}\n", bundle.to_json()))?;
        fs::rename(&tmp, &path)?;
        let seqs = existing_seqs(&self.dir);
        if seqs.len() > self.cap {
            for old in &seqs[..seqs.len() - self.cap] {
                let _ = fs::remove_file(self.dir.join(format!("crash-{old:06}.json")));
            }
        }
        Ok(path)
    }
}

/// Sorted sequence numbers of the bundles currently in `dir`.
fn existing_seqs(dir: &Path) -> Vec<u64> {
    let mut seqs = Vec::new();
    if let Ok(entries) = fs::read_dir(dir) {
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name
                .strip_prefix("crash-")
                .and_then(|n| n.strip_suffix(".json"))
            {
                if let Ok(seq) = num.parse::<u64>() {
                    seqs.push(seq);
                }
            }
        }
    }
    seqs.sort_unstable();
    seqs
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CrashBundle {
        CrashBundle {
            version: 1,
            kind: "worker_panicked".into(),
            signature: "fault: injected panic".into(),
            epoch: 3,
            program_hash: format!("{:016x}", u64::MAX - 1),
            src: "letrec id x = x in id 1".into(),
            request: "{\"op\":\"eval\",\"id\":7,\"fault\":{\"panic_at_alloc\":2}}".into(),
            site: Some(4),
            config: BundleConfig {
                checked: true,
                optimize: true,
                max_retries: 4,
                max_depth: None,
                steps_per_ms: 200_000,
                default_fuel: Some(1_000_000),
                default_timeout_ms: None,
                nursery_kb: 256,
                sabotage: vec![0, 1, 2],
                quarantine: vec![5],
                budget_passes: None,
                budget_nodes: Some(1 << 20),
            },
            steps: 42,
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let b = sample();
        let j = b.to_json();
        let back = CrashBundle::from_json(&j).expect("parses");
        assert_eq!(b, back);
        // And through the textual form (hash exceeding i64 survives as a
        // string; this is why program_hash is not a JSON integer).
        let text = j.to_string();
        let reparsed = crate::json::parse(&text).expect("valid JSON");
        assert_eq!(CrashBundle::from_json(&reparsed).expect("parses"), b);
    }

    #[test]
    fn parent_format_bundle_still_parses_and_roundtrips() {
        // The parent format wrote the removed heap-mode switch just
        // before `nursery_kb`.
        let b = sample();
        let text =
            b.to_json()
                .to_string()
                .replacen("\"nursery_kb\"", "\"gen_gc\":true,\"nursery_kb\"", 1);
        assert!(text.contains("\"gen_gc\":true,"), "got: {text}");
        let old = crate::json::parse(&text).expect("valid JSON");
        let parsed = CrashBundle::from_json(&old).expect("the unknown key is ignored");
        assert_eq!(parsed, b);
        assert_eq!(
            CrashBundle::from_json(&parsed.to_json()).expect("parses"),
            b
        );
    }

    #[test]
    fn rejects_unknown_versions() {
        let mut b = sample();
        b.version = 2;
        let err = CrashBundle::from_json(&b.to_json()).unwrap_err();
        assert!(err.contains("version 2"), "got: {err}");
    }

    #[test]
    fn ring_prunes_oldest_and_resumes_numbering() {
        let dir = std::env::temp_dir().join(format!("nml-ring-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let b = sample();
        {
            let mut ring = BundleRing::new(&dir, 2).expect("ring");
            for _ in 0..3 {
                ring.push(&b).expect("push");
            }
        }
        let seqs = existing_seqs(&dir);
        assert_eq!(seqs, vec![1, 2], "oldest pruned");
        // A reopened ring continues after the surviving bundles.
        let mut ring = BundleRing::new(&dir, 2).expect("reopen");
        let p = ring.push(&b).expect("push");
        assert!(p.ends_with("crash-000003.json"), "got {}", p.display());
        assert_eq!(existing_seqs(&dir), vec![2, 3]);
        let loaded = CrashBundle::load(&p).expect("load");
        assert_eq!(loaded, b);
        let _ = fs::remove_dir_all(&dir);
    }
}
