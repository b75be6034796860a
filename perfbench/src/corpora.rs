//! The inputs of the `compile` and `edit` workloads: two 2000-function
//! `mega` corpora, each a fixed generated base with seeded single-binding
//! edits applied, and the checks both workloads make on what they
//! compile.
//!
//! The bases are fixed because the front end's cost depends on the corpus
//! far more than on a few bindings: over ten generator seeds, `nmlc check`
//! took 650–850 ms (type inference rescans every earlier top-level scheme
//! per component, so a few large types weigh heavily). A run's seed
//! rewrites [`SETUP_EDITS`] bindings of each base, so every seed compiles
//! different text at nearly the same cost.

use crate::pipeline::{self, render, COLD};
use crate::{Opts, Outcome, Tracer};
use nml_corpusgen::{generate, Corpus, Rng, Shape};
use nml_escape::{Analysis, Budget, EngineConfig, EscapeSummary, Incremental};
use nml_runtime::{Interp, InterpConfig, Vm};
use nml_syntax::Symbol;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Generator seeds of the fixed bases, one per corpus.
pub const BASE_SEEDS: [u64; 2] = [1, 2];

/// Seeded single-binding edits applied to each base at set-up.
pub const SETUP_EDITS: usize = 16;

const SEED_SALT: u64 = 0x636f_6d70_696c_6521;

/// One corpus, ready to compile or edit.
pub struct Setup {
    /// The corpus as edited so far.
    pub corpus: Corpus,
    /// Its source text at set-up.
    pub src: String,
    /// The summary cache the set-up's compile populated.
    pub cache: PathBuf,
    /// Summaries of the set-up's compile, which every later compile of
    /// `src` must reproduce.
    pub summaries: BTreeMap<Symbol, EscapeSummary>,
    /// The program body's printed value on the tree-walker.
    pub expected: String,
    /// Seeded from the set-up's compile (`edit` only), as serve's first
    /// reload seeds from its boot epoch.
    pub inc: Option<Incremental>,
    /// Draws the corpus's edits.
    pub rng: Rng,
}

/// Builds corpus `j` for the run's seed: the base, its seeded edits, a
/// compile that populates the summary cache under `dir`, the
/// tree-walker's value and, if `incremental`, an [`Incremental`] state.
///
/// # Errors
///
/// A front-end or runtime error, or a cache that reported errors.
pub fn prepare(opts: &Opts, dir: &Path, j: usize, incremental: bool) -> Result<Setup, String> {
    let mut corpus = generate(BASE_SEEDS[j], &Shape::mega());
    let mut rng = Rng::new(opts.seed ^ SEED_SALT ^ (j as u64).rotate_left(32));
    for _ in 0..SETUP_EDITS {
        let m = corpus.mutate(rng.next_u64());
        corpus.bindings[m.index].rhs = m.rhs;
    }
    let src = corpus.source();
    let cache = dir.join(format!("summaries-{j}.cache"));
    let _ = std::fs::remove_file(&cache);
    let mut quiet = Tracer::new(false);
    let populated = pipeline::front(&mut quiet, &COLD, &src, Some(&cache))?;
    if !populated.analysis.schedule.cache_errors.is_empty() {
        return Err(format!(
            "summary cache: {:?}",
            populated.analysis.schedule.cache_errors
        ));
    }
    let expected = tree_value(&populated.analysis)?;
    let inc = incremental.then(|| {
        Incremental::new(
            populated.analysis.program.clone(),
            populated.analysis.info.clone(),
            EngineConfig::default(),
            Budget::unlimited(),
        )
    });
    Ok(Setup {
        corpus,
        src,
        cache,
        summaries: populated.analysis.summaries,
        expected,
        inc,
        rng,
    })
}

/// The body's printed value on the tree-walker over the unoptimized IR of
/// `analysis`'s program.
///
/// # Errors
///
/// A runtime error.
pub fn tree_value(analysis: &Analysis) -> Result<String, String> {
    let ir = nml_opt::lower_program(&analysis.program, &analysis.info);
    let mut interp =
        Interp::with_config(&ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    let v = interp.run().map_err(|e| e.to_string())?;
    render(&interp.heap, &v)
}

/// The optimized program's body value on the VM.
fn vm_value(ir: &nml_opt::IrProgram) -> Result<String, String> {
    let mut vm = Vm::with_config(ir, InterpConfig::default()).map_err(|e| e.to_string())?;
    let v = vm.run().map_err(|e| e.to_string())?;
    render(&vm.heap, &v)
}

/// Checks a compiled program outside the timed region: its summaries
/// against `summaries` (when given) and its body value on the VM against
/// the tree-walker's `expected`.
pub fn check(
    out: &mut Outcome,
    what: &str,
    analysis: &Analysis,
    ir: &nml_opt::IrProgram,
    summaries: Option<&BTreeMap<Symbol, EscapeSummary>>,
    expected: &str,
) {
    if let Some(s) = summaries {
        if &analysis.summaries != s {
            out.mismatch(format!(
                "{what}: summaries differ from the reference analysis"
            ));
            return;
        }
    }
    match vm_value(ir) {
        Ok(v) if v == expected => {}
        Ok(v) => out.mismatch(format!(
            "{what}: VM printed {v}, tree-walker printed {expected}"
        )),
        Err(e) => out.mismatch(format!("{what}: {e}")),
    }
}

/// Sets up every corpus, timing each set-up; on an error records it and
/// returns `None`.
pub fn prepare_all(
    opts: &Opts,
    dir: &Path,
    incremental: bool,
    out: &mut Outcome,
) -> Option<(Vec<f64>, Vec<Setup>)> {
    let mut secs = Vec::with_capacity(BASE_SEEDS.len());
    let mut setups = Vec::with_capacity(BASE_SEEDS.len());
    for j in 0..BASE_SEEDS.len() {
        let t0 = std::time::Instant::now();
        let s = prepare(opts, dir, j, incremental);
        secs.push(t0.elapsed().as_secs_f64());
        match s {
            Ok(s) => setups.push(s),
            Err(e) => {
                out.mismatch(format!("corpus {j}: {e}"));
                return None;
            }
        }
    }
    Some((secs, setups))
}

/// Source-text fingerprints and body values of the corpora, for the
/// determinism test's different-seed check.
pub fn outputs(setups: &[Setup]) -> Vec<String> {
    setups
        .iter()
        .flat_map(|s| {
            [
                format!("{:016x}", nml_serve::fnv64(s.src.as_bytes())),
                s.expected.clone(),
            ]
        })
        .collect()
}
