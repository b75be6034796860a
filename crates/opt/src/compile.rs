//! The one source → IR entry point.
//!
//! Every consumer — `nmlc`, the server's boot, reload and recovery
//! paths, crash replay, and the benches — compiles through
//! [`compile`] (or, holding an [`Analysis`] already, its back half
//! [`build`]). Both run the same fixed sequence: analyze → lower →
//! optimize → sabotage → quarantine, configured by one
//! [`CompileOptions`] value.

use crate::ir::{lower_program, lower_program_with, IrProgram};
use crate::pipeline::{optimize, OptOptions};
use crate::quarantine::{
    apply_quarantine, sabotage_elide, sabotage_stack, QuarantineSet, SabotagePlan,
};
use crate::stack::plan_stack_allocation;
use nml_escape::{
    analyze_source_scheduled, Analysis, AnalyzeError, Budget, EngineConfig, PolyMode,
    ScheduleOptions,
};

/// Everything that shapes a compile. The default is the plain pipeline:
/// no budget, serial scheduling, all-heap lowering and no passes.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Analysis resource budget (over-budget functions degrade to sound
    /// worst-case summaries).
    pub budget: Budget,
    /// SCC scheduling: worker threads and the persistent summary cache.
    pub schedule: ScheduleOptions,
    /// The optimization passes run after lowering.
    pub opt: OptOptions,
    /// Lower with the paper's §4.2 local-escape stack plan instead of
    /// all-heap. The front end then monomorphizes, which gives the plan
    /// per-call precision; otherwise it types each binding by its
    /// simplest instance.
    pub local_stack: bool,
    /// Deliberate wrong-claim injection, applied after the passes.
    pub sabotage: SabotagePlan,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            budget: Budget::unlimited(),
            schedule: ScheduleOptions::default(),
            opt: OptOptions::none(),
            local_stack: false,
            sabotage: SabotagePlan::default(),
        }
    }
}

impl CompileOptions {
    /// The same front end with every claim removed: no passes, no
    /// local-stack plan, no sabotage. A program built this way makes no
    /// escape claims, so it cannot violate one.
    pub fn claim_free(&self) -> CompileOptions {
        CompileOptions {
            opt: OptOptions::none(),
            local_stack: false,
            sabotage: SabotagePlan::default(),
            ..self.clone()
        }
    }
}

/// A compiled program: the analysis and the IR built from it.
pub struct Compiled {
    /// The escape analysis (owns the program and type info).
    pub analysis: Analysis,
    /// The storage-annotated IR.
    pub ir: IrProgram,
}

/// Parses, type-checks and analyzes `src` under `opts` (the front half
/// of [`compile`]).
///
/// # Errors
///
/// Syntax and type errors; the analysis phase itself is total.
pub fn analyze(src: &str, opts: &CompileOptions) -> Result<Analysis, AnalyzeError> {
    let mode = if opts.local_stack {
        PolyMode::Monomorphize
    } else {
        PolyMode::SimplestInstance
    };
    analyze_source_scheduled(
        src,
        mode,
        EngineConfig::default(),
        opts.budget,
        &opts.schedule,
    )
}

/// Compiles `src`: analyze → lower → optimize → sabotage → quarantine.
///
/// # Errors
///
/// Any front-end failure, or divergence of the local-stack planner.
pub fn compile(
    src: &str,
    opts: &CompileOptions,
    quarantine: &QuarantineSet,
) -> Result<Compiled, AnalyzeError> {
    let analysis = analyze(src, opts)?;
    let ir = build(&analysis, opts, quarantine)?;
    Ok(Compiled { analysis, ir })
}

/// The back half of [`compile`]: lowers an existing analysis, runs the
/// passes, injects the sabotage plan and disables every quarantined
/// site. Incremental reloads and checked-mode retries rebuild through
/// here without re-running the front end.
///
/// # Errors
///
/// Divergence of the local-stack planner (the only fallible step).
pub fn build(
    analysis: &Analysis,
    opts: &CompileOptions,
    quarantine: &QuarantineSet,
) -> Result<IrProgram, AnalyzeError> {
    let mut ir = if opts.local_stack {
        let plan = plan_stack_allocation(&analysis.program, &analysis.info)
            .map_err(AnalyzeError::Escape)?;
        lower_program_with(&analysis.program, &analysis.info, &plan)
    } else {
        lower_program(&analysis.program, &analysis.info)
    };
    optimize(&mut ir, analysis, &opts.opt);
    sabotage_stack(&mut ir, &opts.sabotage);
    sabotage_elide(&mut ir, &opts.sabotage);
    apply_quarantine(&mut ir, quarantine);
    Ok(ir)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{AllocMode, IrExpr};
    use crate::quarantine::body_cons_sites;

    #[test]
    fn default_options_lower_all_heap() {
        let c = compile("[1, 2]", &CompileOptions::default(), &QuarantineSet::new()).unwrap();
        c.ir.body.walk(|_, e| {
            if let IrExpr::Cons { alloc, .. } = e {
                assert_eq!(*alloc, AllocMode::Heap);
            }
        });
    }

    #[test]
    fn rebuild_with_quarantine_undoes_sabotage() {
        let plain = compile("[1, 2]", &CompileOptions::default(), &QuarantineSet::new()).unwrap();
        let sites = body_cons_sites(&plain.ir);
        let opts = CompileOptions {
            sabotage: SabotagePlan::stack(sites.clone()),
            ..CompileOptions::default()
        };
        let sabotaged = build(&plain.analysis, &opts, &QuarantineSet::new()).unwrap();
        assert!(sabotaged.body.to_string().contains("region[stack]"));
        let mut q = QuarantineSet::new();
        for s in sites {
            q.insert(s);
        }
        let healed = build(&plain.analysis, &opts, &q).unwrap();
        assert!(!healed.body.to_string().contains("cons[stack]"));
        let clean = build(&plain.analysis, &opts.claim_free(), &QuarantineSet::new()).unwrap();
        assert_eq!(clean.to_string(), plain.ir.to_string());
    }

    #[test]
    fn front_end_errors_surface() {
        assert!(compile("1 +", &CompileOptions::default(), &QuarantineSet::new()).is_err());
    }
}
