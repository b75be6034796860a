//! Whole-program optimization reports: everything the escape analysis
//! licenses, in one compiler-style summary.
//!
//! For each top-level function the report collects the global verdicts
//! (§4.1), the sharing conclusion for its results (Theorem 2), whether a
//! `DCONS` reuse variant exists (§6), and the stack/block opportunities
//! at its call sites — the practical payoff the paper's introduction
//! promises.

use crate::pipeline::PipelineError;
use nml_escape::{analyze_source, unshared_from_summary, Analysis};
use nml_opt::{
    build, default_reuse_param, eligible_sites, plan_stack_allocation, select_sites,
    CompileOptions, QuarantineSet,
};
use nml_syntax::Symbol;
use std::fmt;

/// Per-function findings.
#[derive(Debug, Clone)]
pub struct FunctionReport {
    /// The function.
    pub name: Symbol,
    /// Rendered signature.
    pub signature: String,
    /// Per-parameter: `(G verdict, spines, retained top spines)`.
    pub params: Vec<(String, u32, u32)>,
    /// Unshared top spines of any call's result (Theorem 2 case 2);
    /// `None` for non-list results.
    pub unshared_result_spines: Option<u32>,
    /// The parameter a `DCONS` variant would reuse, with the number of
    /// eligible-and-selected cons sites; `None` when reuse is not
    /// licensed.
    pub reuse: Option<(usize, usize)>,
    /// Why this function's summary is not exact, when it is not: the
    /// rendered [`nml_escape::DegradeReason`], including the originating
    /// function for transitive degradations.
    pub degraded: Option<String>,
}

/// The whole-program report.
#[derive(Debug, Clone)]
pub struct OptimizationReport {
    /// One entry per analyzed function, in name order.
    pub functions: Vec<FunctionReport>,
    /// Number of call sites the local-test stack plan would wrap (on the
    /// simplest-instance program; monomorphize for per-instance counts).
    pub stack_call_sites: usize,
    /// Number of cons sites the stack plan moves to regions.
    pub stack_cons_sites: usize,
    /// `d`, the spine-depth bound of the escape domain.
    pub max_spines: u32,
}

impl OptimizationReport {
    /// Analyzes `src` and assembles the report.
    ///
    /// # Errors
    ///
    /// Any front-end or analysis failure ([`PipelineError::Analyze`]).
    pub fn for_source(src: &str) -> Result<Self, PipelineError> {
        let analysis = analyze_source(src)?;
        Ok(Self::for_analysis(&analysis))
    }

    /// Assembles the report from an existing analysis.
    pub fn for_analysis(analysis: &Analysis) -> Self {
        let ir = build(analysis, &CompileOptions::default(), &QuarantineSet::new())
            .expect("all-heap lowering cannot fail");
        let mut functions = Vec::new();
        for (name, summary) in &analysis.summaries {
            let params = summary
                .params
                .iter()
                .map(|p| (p.verdict.to_string(), p.spines, p.retained_spines()))
                .collect();
            let unshared_result_spines = summary
                .result_ty
                .is_list()
                .then(|| unshared_from_summary(summary));
            let reuse = default_reuse_param(analysis, *name).and_then(|idx| {
                let func = ir.func(*name)?;
                let x = *func.params.get(idx)?;
                let sites = eligible_sites(&func.body, x);
                let chosen = select_sites(&func.body, &sites);
                (!chosen.is_empty()).then_some((idx, chosen.len()))
            });
            let degraded = analysis
                .degradations
                .iter()
                .find(|d| d.function == *name)
                .map(|d| d.reason.to_string());
            functions.push(FunctionReport {
                name: *name,
                signature: analysis
                    .info
                    .sig(*name)
                    .map(|t| t.to_string())
                    .unwrap_or_default(),
                params,
                unshared_result_spines,
                reuse,
                degraded,
            });
        }
        let plan = plan_stack_allocation(&analysis.program, &analysis.info).unwrap_or_default();
        OptimizationReport {
            functions,
            stack_call_sites: plan.stack_calls.len(),
            stack_cons_sites: plan.stack_cons.len(),
            max_spines: analysis.info.max_spines,
        }
    }

    /// Total number of functions with at least one exploitable property.
    pub fn exploitable_functions(&self) -> usize {
        self.functions
            .iter()
            .filter(|f| {
                f.reuse.is_some()
                    || f.params.iter().any(|(_, s, r)| *s > 0 && *r > 0)
                    || f.unshared_result_spines.unwrap_or(0) > 0
            })
            .count()
    }
}

impl fmt::Display for OptimizationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "escape-analysis optimization report (d = {})",
            self.max_spines
        )?;
        writeln!(f, "{}", "=".repeat(64))?;
        for func in &self.functions {
            writeln!(f, "{} : {}", func.name, func.signature)?;
            if let Some(reason) = &func.degraded {
                writeln!(f, "  degraded: {reason}")?;
            }
            for (i, (verdict, spines, retained)) in func.params.iter().enumerate() {
                write!(f, "  param {}: G = {verdict}", i + 1)?;
                if *spines > 0 {
                    write!(f, "  [top {retained}/{spines} spines never escape]")?;
                }
                writeln!(f)?;
            }
            if let Some(u) = func.unshared_result_spines {
                writeln!(f, "  sharing: top {u} spine(s) of every result unshared")?;
            }
            match func.reuse {
                Some((idx, sites)) => writeln!(
                    f,
                    "  reuse: DCONS variant available on param {} ({sites} site(s))",
                    idx + 1
                )?,
                None => writeln!(f, "  reuse: not licensed")?,
            }
        }
        writeln!(f, "{}", "-".repeat(64))?;
        writeln!(
            f,
            "stack plan: {} call site(s), {} cons site(s) move to regions",
            self.stack_call_sites, self.stack_cons_sites
        )?;
        write!(
            f,
            "{} of {} functions have exploitable escape properties",
            self.exploitable_functions(),
            self.functions.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn report_for_partition_sort() {
        let r = OptimizationReport::for_source(corpus::PARTITION_SORT.source).unwrap();
        assert_eq!(r.functions.len(), 3);
        assert_eq!(r.max_spines, 2);
        let text = r.to_string();
        assert!(
            text.contains("append : int list -> int list -> int list"),
            "{text}"
        );
        assert!(text.contains("DCONS variant available"), "{text}");
        assert!(
            text.contains("top 1 spine(s) of every result unshared"),
            "{text}"
        );
        assert!(r.exploitable_functions() >= 2);
    }

    #[test]
    fn report_renders_for_whole_corpus() {
        for w in corpus::ALL {
            let r = OptimizationReport::for_source(w.source)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            let text = r.to_string();
            assert!(text.contains("optimization report"), "{}", w.name);
        }
    }

    #[test]
    fn transitive_degradation_names_its_origin() {
        use nml_escape::{
            analyze_source_scheduled, Budget, DegradeReason, EngineConfig, PolyMode,
            ScheduleOptions,
        };
        // `len` depends on a six-function cycle. The apportioned node
        // budget is enough for `len`'s whole solve but not for the
        // cycle's slot fixpoint, so the cycle degrades to worst-case
        // slots and `len` — analyzed against them — must report the
        // provenance.
        let src = "letrec
          p1 l = if (null l) then nil else cons (car l) (p2 (cdr l));
          p2 l = if (null l) then nil else cons (car l) (p3 (cdr l));
          p3 l = if (null l) then nil else cons (car l) (p4 (cdr l));
          p4 l = if (null l) then nil else cons (car l) (p5 (cdr l));
          p5 l = if (null l) then nil else cons (car l) (p6 (cdr l));
          p6 l = if (null l) then nil else cons (car l) (p1 (cdr l));
          len l = if (null (p1 l)) then 0 else 1
        in len [1, 2]";
        let budget = Budget {
            max_nodes: 40,
            ..Budget::unlimited()
        };
        let analysis = analyze_source_scheduled(
            src,
            PolyMode::SimplestInstance,
            EngineConfig::default(),
            budget,
            &ScheduleOptions::default(),
        )
        .unwrap();
        assert!(analysis.is_degraded("p1"));
        assert!(analysis.is_degraded("len"));
        let transitive = analysis
            .degradations
            .iter()
            .find(|d| d.function.as_str() == "len")
            .expect("len has a degradation record");
        assert!(
            matches!(&transitive.reason, DegradeReason::Transitive { .. }),
            "{transitive}"
        );
        let text = OptimizationReport::for_analysis(&analysis).to_string();
        assert!(text.contains("transitively degraded via `p1`"), "{text}");
    }

    #[test]
    fn consumer_has_no_reuse_but_full_retention() {
        let r = OptimizationReport::for_source(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l) in sum [1]",
        )
        .unwrap();
        let sum = &r.functions[0];
        assert_eq!(sum.params[0].2, 1, "whole spine retained");
        assert!(sum.reuse.is_none(), "no cons under the null guard");
        assert!(sum.unshared_result_spines.is_none(), "int result");
    }
}
