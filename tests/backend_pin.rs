//! Pins the back end's output: lowering, the optimizer passes and
//! bytecode emission must keep producing the same bytes.
//!
//! For every `programs/*.nml` the `nmlc ir -O` text and every chunk's
//! `Op` sequence are compared with `tests/golden/backend/<name>.{ir,ops}`.
//! The IR's pre-order dump ([`IrProgram::dump`]) carries what the text
//! leaves out: every node's kind, every site id (regions and lambdas
//! included), each allocation mode and region kind, and `next_site`. It
//! does not depend on how the IR is stored, and it is pinned by an
//! FNV-1a digest. Larger inputs (generated `mega` corpora, a fully
//! degraded analysis, the single-pass and local-stack pass sets) are
//! pinned by digests of all three renderings.

use nml_escape_analysis::escape::Budget;
use nml_escape_analysis::opt::{compile, CompileOptions, IrProgram, OptOptions, QuarantineSet};
use nml_escape_analysis::runtime::{compile as compile_bytecode, BytecodeProgram};
use nml_escape_analysis::serve::fnv64;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Every chunk's header and `Op` sequence, then the closure, rec-group
/// and global tables.
fn render_bytecode(b: &BytecodeProgram) -> String {
    let mut out = String::new();
    for (i, c) in b.chunks.iter().enumerate() {
        let name = c.name.map_or_else(|| "-".to_owned(), |n| n.to_string());
        writeln!(
            out,
            "chunk {i} {name} params={} slots={}",
            c.n_params, c.n_slots
        )
        .unwrap();
        for op in &c.code {
            writeln!(out, "  {op:?}").unwrap();
        }
    }
    for (i, c) in b.closures.iter().enumerate() {
        writeln!(out, "closure {i} {c:?}").unwrap();
    }
    for (i, r) in b.recs.iter().enumerate() {
        writeln!(out, "rec {i} {r:?}").unwrap();
    }
    for (i, g) in b.globals.iter().enumerate() {
        writeln!(out, "global {i} {g:?}").unwrap();
    }
    writeln!(out, "main {}", b.main).unwrap();
    out
}

/// The optimized IR text, the rendered bytecode and the IR's pre-order
/// dump (with every site id) of `src`.
fn back_end(src: &str, opts: &CompileOptions) -> (String, String, String) {
    let compiled = compile(src, opts, &QuarantineSet::new()).expect("compiles");
    let ir: &IrProgram = &compiled.ir;
    (
        ir.to_string(),
        render_bytecode(&compile_bytecode(ir)),
        ir.dump(),
    )
}

fn digest(text: &str) -> String {
    format!("{:016x}", fnv64(text.as_bytes()))
}

/// `nmlc ir -O`: the full pass manager, SROA on.
fn full() -> CompileOptions {
    CompileOptions {
        opt: OptOptions::default(),
        ..CompileOptions::default()
    }
}

fn programs() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("programs/ exists")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "nml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no programs under {}", dir.display());
    paths
}

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/backend")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

#[test]
fn programs_match_their_golden_ir_and_bytecode() {
    let mut sites = String::new();
    for path in programs() {
        let stem = path.file_stem().unwrap().to_str().unwrap().to_owned();
        let src = std::fs::read_to_string(&path).unwrap();
        let (ir, ops, dump) = back_end(&src, &full());
        assert_eq!(ir, golden(&format!("{stem}.ir")), "{stem}: optimized IR");
        assert_eq!(ops, golden(&format!("{stem}.ops")), "{stem}: bytecode");
        sites.push_str(&dump);
    }
    assert_eq!(
        digest(&sites),
        "6ca7b1f1c018ae4c",
        "site ids of the optimized IR"
    );
}

#[test]
fn programs_under_narrower_pass_sets_match_their_digest() {
    let sets = [
        OptOptions {
            stack: true,
            ..OptOptions::none()
        },
        OptOptions {
            reuse: true,
            ..OptOptions::none()
        },
        OptOptions {
            block: true,
            ..OptOptions::none()
        },
        OptOptions {
            sroa: false,
            ..OptOptions::default()
        },
    ];
    let mut all = String::new();
    for path in programs() {
        let src = std::fs::read_to_string(&path).unwrap();
        for opt in sets {
            let (ir, ops, dump) = back_end(
                &src,
                &CompileOptions {
                    opt,
                    ..CompileOptions::default()
                },
            );
            all.push_str(&ir);
            all.push_str(&ops);
            all.push_str(&dump);
        }
        let (ir, ops, dump) = back_end(
            &src,
            &CompileOptions {
                local_stack: true,
                ..CompileOptions::default()
            },
        );
        all.push_str(&ir);
        all.push_str(&ops);
        all.push_str(&dump);
    }
    assert_eq!(digest(&all), "f94bd69f96fd84e4");
}

/// `[ir, bytecode, sites]` digests of `gen-corpus --shape=mega` under
/// `-O`.
fn mega_digests(seed: u64, budget: Budget) -> [String; 3] {
    let corpus = nml_corpusgen::generate(seed, &nml_corpusgen::Shape::mega());
    let (ir, ops, dump) = back_end(&corpus.source(), &CompileOptions { budget, ..full() });
    [digest(&ir), digest(&ops), digest(&dump)]
}

#[test]
fn mega_corpora_match_their_digests() {
    let cases = [
        (
            1,
            Budget::unlimited(),
            ["7675201a3e8c52f6", "edbf234560be6d45", "7e820962ae2564c7"],
        ),
        (
            2,
            Budget::unlimited(),
            ["482e489e2a4c7419", "ce09a1224c5789e7", "c3a55e15ee1cc24c"],
        ),
        // Every summary degraded to its worst case.
        (
            1,
            Budget::tight(1, 1, None),
            ["41916792890e82e5", "d227a0f877374512", "b2c64c41c3c04423"],
        ),
    ];
    for (seed, budget, want) in cases {
        let got = mega_digests(seed, budget);
        assert_eq!(got, want, "mega seed {seed}, {budget:?}");
    }
}
