//! Source → result: the one compile entry point (re-exported from
//! `nml-opt`), running its IR on either engine, and the checked run
//! that recovers from disproved escape claims.
//!
//! ```
//! use nml_escape_analysis::pipeline::{compile, run, CompileOptions, OptOptions, QuarantineSet};
//! use nml_escape_analysis::runtime::{Engine, InterpConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let opts = CompileOptions { opt: OptOptions::default(), ..CompileOptions::default() };
//! let compiled = compile("letrec rev l a = if (null l) then a
//!                                          else rev (cdr l) (cons (car l) a)
//!                         in rev [1, 2, 3] nil", &opts, &QuarantineSet::new())?;
//! let out = run(&compiled.ir, InterpConfig::default(), Engine::Vm)?;
//! assert_eq!(out.result, "[3, 2, 1]");
//! # Ok(())
//! # }
//! ```

pub use nml_opt::{analyze, build, compile, CompileOptions, Compiled, OptOptions, QuarantineSet};
pub use nml_runtime::render_value;

use nml_escape::{Analysis, AnalyzeError};
use nml_opt::{IrProgram, SiteId};
use nml_runtime::{
    recover, Claims, Engine, Interp, InterpConfig, Recovery, RuntimeError, RuntimeStats,
    SoundnessViolation, Vm,
};
use std::fmt;
use std::path::PathBuf;

/// Any pipeline failure.
#[derive(Debug)]
pub enum PipelineError {
    /// Front-end failure (syntax, types, analysis).
    Analyze(AnalyzeError),
    /// Execution failure.
    Runtime(RuntimeError),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Analyze(e) => write!(f, "{e}"),
            PipelineError::Runtime(e) => write!(f, "runtime error: {e}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<AnalyzeError> for PipelineError {
    fn from(e: AnalyzeError) -> Self {
        PipelineError::Analyze(e)
    }
}

impl From<RuntimeError> for PipelineError {
    fn from(e: RuntimeError) -> Self {
        PipelineError::Runtime(e)
    }
}

/// The outcome of running a program: a printable result digest plus the
/// runtime statistics.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Human-readable rendering of the result value.
    pub result: String,
    /// Instrumentation counters.
    pub stats: RuntimeStats,
}

/// Runs the IR's body on the selected engine and renders the result.
/// Both engines produce identical results and errors; the VM is the
/// production path, the tree-walker the oracle. Allocation statistics
/// agree too, unless the IR carries [`nml_opt::AllocMode::Elided`] marks
/// — the VM scalarizes those sites away (`allocs_elided`) while the
/// tree-walker, by design, still allocates them.
///
/// # Errors
///
/// Returns [`PipelineError::Runtime`] for any execution failure.
pub fn run(
    ir: &IrProgram,
    config: InterpConfig,
    engine: Engine,
) -> Result<RunOutcome, PipelineError> {
    let (result, stats) = match engine {
        Engine::Tree => {
            let mut interp = Interp::with_config(ir, config)?;
            let v = interp.run()?;
            (render_value(&interp.heap, &v)?, interp.heap.stats)
        }
        Engine::Vm => {
            let mut vm = Vm::with_config(ir, config)?;
            let v = vm.run()?;
            (render_value(&vm.heap, &v)?, vm.heap.stats)
        }
    };
    Ok(RunOutcome { result, stats })
}

/// Configuration for a checked run ([`run_checked`]).
#[derive(Debug, Clone)]
pub struct CheckedOptions {
    /// Re-executions allowed after violations before degrading to the
    /// claim-free build.
    pub max_retries: u32,
    /// Where to load/persist the quarantine set (`None` = in-memory
    /// only, starting empty).
    pub quarantine_path: Option<PathBuf>,
    /// Execution engine for every attempt, including the degraded
    /// claim-free fallback run.
    pub engine: Engine,
}

impl Default for CheckedOptions {
    fn default() -> Self {
        CheckedOptions {
            max_retries: 8,
            quarantine_path: None,
            engine: Engine::default(),
        }
    }
}

/// One quarantined site and the evidence that condemned it.
#[derive(Debug, Clone)]
pub struct QuarantineRecord {
    /// The site whose optimization was disabled.
    pub site: SiteId,
    /// The violation that disproved the site's claim.
    pub violation: SoundnessViolation,
    /// Which attempt (0-based) detected it.
    pub attempt: u32,
}

/// The outcome of a checked run: the (verified) result plus the full
/// recovery history.
#[derive(Debug, Clone)]
pub struct CheckedOutcome {
    /// Rendering of the final result value.
    pub result: String,
    /// Stats of the successful attempt, with the recovery counters
    /// (`violations`, `quarantined_sites`, `retries`) aggregated across
    /// all attempts.
    pub stats: RuntimeStats,
    /// Every site quarantined during this run, in detection order.
    pub quarantined: Vec<QuarantineRecord>,
    /// Total attempts executed (1 = clean first run).
    pub attempts: u32,
    /// Whether the run had to fall back to the claim-free build.
    pub degraded_unoptimized: bool,
}

/// The pipeline's side of the recovery loop: every retry rebuilds
/// from the one analysis, so the front end runs once per checked run.
struct Rebuild<'a> {
    analysis: &'a Analysis,
    opts: &'a CompileOptions,
    config: &'a InterpConfig,
    engine: Engine,
    quarantine: QuarantineSet,
    records: Vec<QuarantineRecord>,
}

impl Recovery for Rebuild<'_> {
    type Output = RunOutcome;
    type Error = PipelineError;

    fn attempt(&mut self, claims: Claims<'_>) -> Result<RunOutcome, PipelineError> {
        let (ir, checked) = match claims {
            Claims::Without(q) => (build(self.analysis, self.opts, q)?, true),
            Claims::None => (
                build(
                    self.analysis,
                    &self.opts.claim_free(),
                    &QuarantineSet::new(),
                )?,
                false,
            ),
        };
        let mut config = self.config.clone();
        config.heap.checked = checked;
        run(&ir, config, self.engine)
    }

    fn violation(err: &PipelineError) -> Option<&SoundnessViolation> {
        match err {
            PipelineError::Runtime(RuntimeError::Soundness(v)) => Some(v),
            _ => None,
        }
    }

    fn quarantine(
        &mut self,
        site: SiteId,
        violation: &SoundnessViolation,
        attempt: u32,
    ) -> QuarantineSet {
        self.quarantine.insert(site);
        self.records.push(QuarantineRecord {
            site,
            violation: violation.clone(),
            attempt,
        });
        self.quarantine.clone()
    }
}

/// Compiles `src` under `opts` and runs it checked: execute under the
/// tombstoning heap and, on a [`SoundnessViolation`], quarantine the
/// offending site, rebuild without its claim and re-execute (the policy
/// is [`nml_runtime::recovery`]'s). Returns the outcome and the first
/// attempt's compile.
///
/// The quarantine set persists across calls through
/// `copts.quarantine_path`, so a site disproved once stays disabled.
///
/// # Errors
///
/// [`PipelineError::Analyze`] for front-end failures;
/// [`PipelineError::Runtime`] only for *non-claim* runtime errors
/// (division by zero, step limits, fault-injected OOM) — claim
/// violations are consumed by the recovery loop, never returned.
pub fn run_checked(
    src: &str,
    opts: &CompileOptions,
    copts: &CheckedOptions,
    base_config: &InterpConfig,
) -> Result<(CheckedOutcome, Compiled), PipelineError> {
    let (quarantine, warning) = match &copts.quarantine_path {
        Some(p) => QuarantineSet::load(p),
        None => (QuarantineSet::new(), None),
    };
    if let Some(w) = warning {
        eprintln!("warning: quarantine file: {w}");
    }
    let compiled = compile(src, opts, &quarantine)?;
    let mut target = Rebuild {
        analysis: &compiled.analysis,
        opts,
        config: base_config,
        engine: copts.engine,
        quarantine: quarantine.clone(),
        records: Vec::new(),
    };
    let mut config = base_config.clone();
    config.heap.checked = true;
    let first = run(&compiled.ir, config, copts.engine);
    let recovered = recover(&mut target, quarantine, first, copts.max_retries)?;
    if let Some(p) = &copts.quarantine_path {
        if let Err(e) = target.quarantine.save(p) {
            eprintln!("warning: quarantine file: {e}");
        }
    }
    let mut stats = recovered.output.stats;
    stats.violations = recovered.violations;
    stats.quarantined_sites = target.records.len() as u64;
    stats.retries = recovered.attempts.saturating_sub(1).into();
    let outcome = CheckedOutcome {
        result: recovered.output.result,
        stats,
        quarantined: target.records,
        attempts: recovered.attempts,
        degraded_unoptimized: recovered.degraded,
    };
    Ok((outcome, compiled))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(src: &str) -> Compiled {
        compile(src, &CompileOptions::default(), &QuarantineSet::new()).unwrap()
    }

    fn tree(ir: &IrProgram) -> Result<RunOutcome, PipelineError> {
        run(ir, InterpConfig::default(), Engine::Tree)
    }

    #[test]
    fn compile_and_run_quick() {
        let c = plain("letrec inc x = x + 1 in inc 41");
        let out = tree(&c.ir).unwrap();
        assert_eq!(out.result, "42");
    }

    #[test]
    fn run_renders_nested_lists() {
        let c = plain("[[1, 2], [3]]");
        let out = tree(&c.ir).unwrap();
        assert_eq!(out.result, "[[1, 2], [3]]");
    }

    #[test]
    fn stack_alloc_pipeline_reduces_heap_allocs() {
        let src = "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
                   in sum [1, 2, 3, 4]";
        let stack_only = CompileOptions {
            opt: OptOptions {
                stack: true,
                ..OptOptions::none()
            },
            ..CompileOptions::default()
        };
        let plain = tree(&plain(src).ir).unwrap();
        let stacked_ir = compile(src, &stack_only, &QuarantineSet::new()).unwrap().ir;
        let stacked = tree(&stacked_ir).unwrap();
        assert_eq!(plain.result, stacked.result);
        assert_eq!(plain.stats.heap_allocs, 4);
        assert_eq!(stacked.stats.heap_allocs, 0);
        assert_eq!(stacked.stats.stack_allocs, 4);
        assert_eq!(stacked.stats.stack_freed, 4);
    }

    #[test]
    fn local_stack_alloc_pipeline_stacks_nested_spines() {
        let src = "letrec
          pair x = cons (car x) (cons (car (cdr x)) nil);
          map f l = if (null l) then nil
                    else cons (f (car l)) (map f (cdr l))
        in map pair [[1,2],[3,4],[5,6]]";
        let local_stack = CompileOptions {
            local_stack: true,
            ..CompileOptions::default()
        };
        let base = tree(&plain(src).ir).unwrap();
        let local_ir = compile(src, &local_stack, &QuarantineSet::new())
            .unwrap()
            .ir;
        let local = tree(&local_ir).unwrap();
        assert_eq!(base.result, local.result);
        // 9 literal cells (3 top spine + 6 inner spines) go to the stack;
        // only pair's fresh result cells stay on the heap.
        assert_eq!(local.stats.stack_allocs, 9);
        assert_eq!(local.stats.stack_freed, 9);
        assert_eq!(base.stats.heap_allocs - local.stats.heap_allocs, 9);
    }

    #[test]
    fn errors_propagate() {
        assert!(compile("1 +", &CompileOptions::default(), &QuarantineSet::new()).is_err());
        let c = plain("1 / 0");
        assert!(matches!(tree(&c.ir), Err(PipelineError::Runtime(_))));
    }

    #[test]
    fn fallback_carries_no_sabotage() {
        let sites = nml_opt::body_cons_sites(&plain("[4, 5]").ir);
        let opts = CompileOptions {
            sabotage: nml_opt::SabotagePlan::stack(sites),
            ..CompileOptions::default()
        };
        let copts = CheckedOptions {
            max_retries: 0,
            ..CheckedOptions::default()
        };
        let (out, _) = run_checked("[4, 5]", &opts, &copts, &InterpConfig::default()).unwrap();
        assert!(out.degraded_unoptimized);
        assert_eq!(out.result, "[4, 5]");
        assert_eq!(out.stats.stack_allocs, 0, "the fallback ran claim-free");
    }
}
