//! Pins what `nmlc run --stats` prints: the value and every counter
//! line, for `programs/*.nml`, a few closure-shaped programs kept in this
//! file, and two generated `mega` corpora.
//!
//! The differential suite holds the two engines against each other; this
//! file holds each engine against its own earlier output, so a change to
//! the VM's calling convention, its dispatch fast paths or its GC root set
//! that shifts a step, an allocation or a marked cell shows up here even
//! when both engines still agree on the value. Expected output lives in
//! `tests/golden/run/<name>.stats`, one `$ nmlc run <flags>` section per
//! mode.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The flag sets every shipped program runs under.
const PROGRAM_MODES: &[&[&str]] = &[
    &["-O"],
    &[],
    &["-O", "--engine=tree"],
    // A forced major collection at every third poll, with frames and
    // operands live: pins the VM's root set through `gc: marked=`.
    &["-O", "--fault-seed=7", "--fault-forced-gc=1/3"],
];

/// Higher-order programs, run under [`PROGRAM_MODES`]: the shipped
/// programs are first order, so without these the pin could not see a
/// change in how closures, partial applications and primitive
/// applications are represented, rooted or collected. Kept here rather
/// than in `programs/`, which other suites also read.
const CLOSURE_PROGRAMS: &[(&str, &str)] = &[
    // A capturing lambda passed to a fold, once over ints and once
    // building a list through its accumulator.
    (
        "closure_fold",
        "letrec
  foldl f a l = if (null l) then a else foldl f (f a (car l)) (cdr l);
  mk n = if n = 0 then nil else cons n (mk (n - 1));
  scale k l = foldl (lambda(a). lambda(x). a + k * x) 0 l;
  keep k l = foldl (lambda(acc). lambda(x). if x < k then cons x acc else acc) nil l
in cons (scale 3 (mk 60)) (keep 8 (mk 60))",
    ),
    // Partial applications of a global and of `cons`, stored in a list
    // and applied later.
    (
        "closure_partial",
        "letrec
  push x l = cons x (cons x l);
  applyall fs l = if (null fs) then l else applyall (cdr fs) ((car fs) l);
  mk n = if n = 0 then nil else cons (push n) (cons (cons n) (mk (n - 1)))
in applyall (mk 12) [0]",
    ),
    // A local `letrec` group whose members call each other and capture
    // a parameter of the enclosing function.
    (
        "closure_localrec",
        "letrec
  mk n = if n = 0 then nil else cons n (mk (n - 1));
  go m l =
    letrec ev k xs = if (null xs) then k else od (k + m * car xs) (cdr xs);
           od k xs = if (null xs) then k else ev (k * 2) (cdr xs)
    in ev 0 l;
  many n acc = if n = 0 then acc else many (n - 1) (acc + go n (mk n))
in many 40 0",
    ),
    // A loop that makes a closure on every iteration and allocates no
    // cell.
    (
        "closure_loop",
        "letrec
  apply f x = f x;
  loop n acc = if n = 0 then acc else loop (n - 1) (apply (lambda(x). x + n) acc)
in loop 3000 0",
    ),
];

/// The flag sets the generated corpora run under.
const MEGA_MODES: &[&[&str]] = &[&["-O"], &["-O", "--engine=tree"]];

fn manifest_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Every mode's `nmlc run --stats` stdout, each under a `$` header line.
fn render(path: &Path, modes: &[&[&str]]) -> String {
    let mut out = String::new();
    for flags in modes {
        let run = Command::new(env!("CARGO_BIN_EXE_nmlc"))
            .arg("run")
            .arg(path)
            .arg("--stats")
            .args(*flags)
            .output()
            .expect("nmlc runs");
        assert!(
            run.status.success(),
            "nmlc run {} {flags:?} failed:\n{}",
            path.display(),
            String::from_utf8_lossy(&run.stderr)
        );
        out.push_str(&format!("$ nmlc run --stats {}\n", flags.join(" ")));
        out.push_str(&String::from_utf8(run.stdout).expect("utf-8 output"));
    }
    out
}

fn golden(name: &str) -> String {
    let path = manifest_dir().join("tests/golden/run").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn programs_print_their_golden_stats() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(manifest_dir().join("programs"))
        .expect("programs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nml"))
        .collect();
    paths.sort();
    assert!(paths.len() >= 5, "expected the shipped programs");
    for path in paths {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        assert_eq!(
            render(&path, PROGRAM_MODES),
            golden(&format!("{stem}.stats")),
            "{stem}"
        );
    }
}

#[test]
fn closure_programs_print_their_golden_stats() {
    let dir = std::env::temp_dir().join(format!("nml-run-stats-closures-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for (name, src) in CLOSURE_PROGRAMS {
        let path = dir.join(format!("{name}.nml"));
        std::fs::write(&path, src).expect("write program");
        assert_eq!(
            render(&path, PROGRAM_MODES),
            golden(&format!("{name}.stats")),
            "{name}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mega_corpora_print_their_golden_stats() {
    let dir = std::env::temp_dir().join(format!("nml-run-stats-pin-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    for seed in [1, 2] {
        let corpus = nml_corpusgen::generate(seed, &nml_corpusgen::Shape::mega());
        let path = dir.join(format!("mega-{seed}.nml"));
        std::fs::write(&path, corpus.source()).expect("write corpus");
        let got = render(&path, MEGA_MODES);
        assert_eq!(
            got,
            golden(&format!("mega-{seed}.stats")),
            "mega seed {seed}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
