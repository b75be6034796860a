//! On-disk summary-cache robustness: a corrupted cache file — truncated,
//! bit-flipped, or outright garbage — must never panic, never poison an
//! analysis, and must salvage every entry whose own checksum still
//! verifies. The cache is an accelerator, not a source of truth: the
//! worst corruption can do is cost a re-analysis.

use nml_escape_analysis::escape::cache::{ContentHash, SummaryCache};
use nml_escape_analysis::escape::{
    analyze_source_scheduled, Analysis, Budget, EngineConfig, PolyMode, ScheduleOptions,
};
use std::path::{Path, PathBuf};

const SRC: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
  idl l = if (null l) then nil else cons (car l) (idl (cdr l))
in rev (idl [1, 2, 3])";

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nml-cacherob-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn scheduled(src: &str, cache: &Path) -> Analysis {
    let options = ScheduleOptions {
        summary_cache: Some(cache.to_path_buf()),
        ..ScheduleOptions::default()
    };
    analyze_source_scheduled(
        src,
        PolyMode::SimplestInstance,
        EngineConfig::default(),
        Budget::unlimited(),
        &options,
    )
    .expect("scheduled analysis")
}

fn assert_same_summaries(label: &str, a: &Analysis, b: &Analysis) {
    assert_eq!(
        a.summaries, b.summaries,
        "{label}: summaries diverge after cache corruption"
    );
}

/// A bit-flipped byte in the middle of the file drops at most the entry
/// it lands in; the warm run still completes, reports the salvage on
/// `cache_errors`, and reproduces the cold run's summaries exactly.
#[test]
fn bit_flip_salvages_and_agrees() {
    let dir = tmp_dir("flip");
    let path = dir.join("summaries.cache");
    let cold = scheduled(SRC, &path);
    assert!(cold.schedule.cache_errors.is_empty());
    assert!(cold.schedule.scc_count >= 3, "{:?}", cold.schedule);

    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let warm = scheduled(SRC, &path);
    assert!(
        !warm.schedule.cache_errors.is_empty(),
        "corruption must be reported: {:?}",
        warm.schedule
    );
    assert!(
        warm.schedule
            .cache_errors
            .iter()
            .any(|e| e.contains("salvaged")),
        "warning names the salvage: {:?}",
        warm.schedule.cache_errors
    );
    // The undamaged entries still hit; only the corrupted one re-analyzes.
    assert!(
        warm.schedule.cache_hits >= 1,
        "uncorrupted entries must survive: {:?}",
        warm.schedule
    );
    assert!(
        warm.schedule.sccs_solved < warm.schedule.scc_count,
        "salvage must not force a full cold start: {:?}",
        warm.schedule
    );
    assert_same_summaries("bit flip", &cold, &warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A truncated file (lost tail, no trailer) salvages the complete
/// entries, flags the file checksum failure, and completes the analysis.
#[test]
fn truncation_salvages_prefix_and_agrees() {
    let dir = tmp_dir("trunc");
    let path = dir.join("summaries.cache");
    let cold = scheduled(SRC, &path);

    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

    let warm = scheduled(SRC, &path);
    assert!(
        !warm.schedule.cache_errors.is_empty(),
        "truncation must be reported: {:?}",
        warm.schedule
    );
    assert_same_summaries("truncation", &cold, &warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A file that isn't a summary cache at all (or is a future format
/// version) is ignored with a warning — cold start, no panic — and the
/// save path then replaces it with a valid cache.
#[test]
fn garbage_file_starts_cold_then_heals() {
    let dir = tmp_dir("garbage");
    let path = dir.join("summaries.cache");
    std::fs::write(&path, "nml-summary-cache v999\nscc feedbeef\n").unwrap();

    let first = scheduled(SRC, &path);
    assert!(
        first
            .schedule
            .cache_errors
            .iter()
            .any(|e| e.contains("ignoring cache")),
        "version mismatch must be surfaced: {:?}",
        first.schedule.cache_errors
    );
    assert_eq!(
        first.schedule.sccs_solved, first.schedule.scc_count,
        "garbage cache forces a clean cold start"
    );

    // The run rewrote the file; a second run is fully warm and clean.
    let second = scheduled(SRC, &path);
    assert!(
        second.schedule.cache_errors.is_empty(),
        "{:?}",
        second.schedule
    );
    assert_eq!(second.schedule.sccs_solved, 0);
    assert_same_summaries("healed cache", &first, &second);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Saving is atomic (write-to-temp + rename): after a run, the cache
/// directory holds exactly the cache file and its persistent advisory
/// `.lock` sibling — no orphaned temporaries.
#[test]
fn atomic_save_leaves_no_temp_files() {
    let dir = tmp_dir("atomic");
    let path = dir.join("summaries.cache");
    let _ = scheduled(SRC, &path);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(
        names,
        vec!["summaries.cache", "summaries.cache.lock"],
        "stray files: {names:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Exhaustive single-bit-flip sweep over the raw format: for every byte
/// of a real cache file, flipping one bit must load without panicking,
/// and whatever entries survive must be ones whose checksums verify.
#[test]
fn every_single_bit_flip_loads_without_panic() {
    let dir = tmp_dir("sweep");
    let path = dir.join("summaries.cache");
    let _ = scheduled(SRC, &path);
    let pristine = std::fs::read(&path).unwrap();
    let (reference, warning) = SummaryCache::load(&path);
    assert!(warning.is_none());
    let total = reference.len();
    assert!(total >= 3);

    let flipped = dir.join("flipped.cache");
    for i in 0..pristine.len() {
        let mut bytes = pristine.clone();
        bytes[i] ^= 0x01;
        std::fs::write(&flipped, &bytes).unwrap();
        let (cache, warning) = SummaryCache::load(&flipped);
        assert!(
            cache.len() <= total,
            "offset {i}: corruption cannot invent entries"
        );
        if cache.len() < total || warning.is_some() {
            assert!(
                warning.is_some(),
                "offset {i}: dropped entries must be reported"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cache is written in the v4 format, whose keys hash the syntax
/// tree: re-laying out the source and adding comments keeps every key,
/// so the next run is fully warm.
#[test]
fn v4_keys_survive_layout_and_comment_edits() {
    let dir = tmp_dir("v4layout");
    let path = dir.join("summaries.cache");
    let cold = scheduled(SRC, &path);
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.starts_with("nml-summary-cache v4\n"), "{text}");

    let relaid = "-- the same program, laid out again
letrec
  append x y =
    if (null x) then y (* base case *)
    else cons (car x) (append (cdr x) y);
  rev l =
    if (null l) then nil
    else append (rev (cdr l)) (cons (car l) nil);
  idl l = if (null l) then nil else cons (car l) (idl (cdr l))
in rev (idl [1, 2, 3])";
    let warm = scheduled(relaid, &path);
    assert!(warm.schedule.cache_errors.is_empty(), "{:?}", warm.schedule);
    assert_eq!(warm.schedule.sccs_solved, 0, "{:?}", warm.schedule);
    assert_eq!(
        warm.schedule.batch_count, 0,
        "nothing solved, nothing planned"
    );
    assert_eq!(warm.schedule.cache_hits, warm.schedule.scc_count);
    assert_same_summaries("relaid", &cold, &warm);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A well-formed v3 file — valid checksums, entries under the current
/// keys — is refused at its header: the run starts cold with the version
/// warning and takes no entry from it, then rewrites the file as v4.
#[test]
fn v3_file_starts_cold_and_is_never_hit() {
    let dir = tmp_dir("v3");
    let path = dir.join("summaries.cache");
    let cold = scheduled(SRC, &path);
    let v4 = std::fs::read_to_string(&path).unwrap();
    let body = v4[..v4.rfind("file ").expect("file trailer")].replacen(
        "nml-summary-cache v4",
        "nml-summary-cache v3",
        1,
    );
    let mut sum = ContentHash::new();
    sum.write(body.as_bytes());
    std::fs::write(&path, format!("{body}file {:016x}\n", sum.finish())).unwrap();

    let first = scheduled(SRC, &path);
    assert!(
        first
            .schedule
            .cache_errors
            .iter()
            .any(|e| e.contains("ignoring cache") && e.contains("version mismatch")),
        "the version warning is reported: {:?}",
        first.schedule.cache_errors
    );
    assert_eq!(first.schedule.cache_hits, 0, "no v3 entry is hit");
    assert_eq!(first.schedule.sccs_solved, first.schedule.scc_count);
    assert_same_summaries("v3 cold start", &cold, &first);
    let healed = std::fs::read_to_string(&path).unwrap();
    assert!(healed.starts_with("nml-summary-cache v4\n"), "{healed}");
    let _ = std::fs::remove_dir_all(&dir);
}
