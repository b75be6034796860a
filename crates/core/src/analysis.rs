//! High-level front-to-back analysis pipeline:
//! parse → infer → (optionally monomorphize) → global escape tests.
//!
//! The pipeline is **total over well-typed programs**: once parsing and
//! type inference succeed, analysis cannot fail. Any engine fault — a
//! diverging fixpoint, an exhausted [`Budget`], an inconsistent AST, even
//! a panic inside the abstract interpreter — is confined to the one
//! function being tested: that function's summary degrades to the sound
//! worst-case `W^τ` (every parameter reported fully escaping) and a
//! [`Degradation`] event records what happened. Consumers that want
//! hard failures instead can inspect [`Analysis::degradations`].

use crate::budget::{Budget, Governor};
use crate::engine::{Engine, EngineConfig, EngineStats};
use crate::error::{AnalyzeError, EscapeError};
use crate::global::{global_escape, worst_case_summary, EscapeSummary};
use crate::modular::{analyze_program_scheduled, ScheduleOptions, ScheduleReport};
use crate::sharing::unshared_from_summary;
use nml_syntax::{parse_program, Program, Symbol};
use nml_types::{infer_and_monomorphize, infer_program, TypeInfo};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// How polymorphic programs are handled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PolyMode {
    /// Analyze the simplest monotype instance of each polymorphic function
    /// (residual type variables default to `int`); results transfer to
    /// other instances by polymorphic invariance (paper §5). The cheap
    /// route the paper recommends.
    #[default]
    SimplestInstance,
    /// Specialize every demanded instance first
    /// ([`nml_types::monomorphize`]) and analyze each copy exactly.
    Monomorphize,
}

/// Why one function's summary was degraded to the worst case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DegradeReason {
    /// The engine reported a typed failure (budget exhaustion, fixpoint
    /// divergence, inconsistent AST).
    Engine(EscapeError),
    /// The abstract interpreter panicked; the panic was quarantined and
    /// the engine rebuilt.
    Panic(String),
    /// This function's own analysis succeeded, but it consumed the
    /// worst-case values of a callee SCC that degraded (`origin` names a
    /// function of that SCC). The summary is kept as computed — it is a
    /// sound over-approximation — but it may be less precise than a clean
    /// run would produce.
    Transitive {
        /// A function of the SCC where the degradation originated.
        origin: Symbol,
    },
}

impl fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeReason::Engine(e) => write!(f, "{e}"),
            DegradeReason::Panic(msg) => write!(f, "quarantined panic: {msg}"),
            DegradeReason::Transitive { origin } => {
                write!(f, "transitively degraded via `{origin}`")
            }
        }
    }
}

/// One function whose summary fell back to the sound worst case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degradation {
    /// The affected top-level function.
    pub function: Symbol,
    /// What forced the fallback.
    pub reason: DegradeReason,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.reason {
            // A transitively degraded summary is kept as computed (it is
            // sound), so "worst-case" would overstate what happened.
            DegradeReason::Transitive { .. } => {
                write!(f, "`{}` {}", self.function, self.reason)
            }
            _ => write!(
                f,
                "`{}` degraded to worst-case: {}",
                self.function, self.reason
            ),
        }
    }
}

/// The complete result of analyzing one program.
#[derive(Debug)]
pub struct Analysis {
    /// The analyzed program (specialized if [`PolyMode::Monomorphize`]).
    pub program: Program,
    /// Its type information.
    pub info: TypeInfo,
    /// Global escape summaries of every top-level function, by name.
    /// Degraded functions are present with worst-case summaries.
    pub summaries: BTreeMap<Symbol, EscapeSummary>,
    /// Engine statistics accumulated over all tests.
    pub stats: EngineStats,
    /// Functions whose summaries are worst-case fallbacks (or, for
    /// [`DegradeReason::Transitive`], computed from a degraded callee's
    /// worst-case values), with reasons. Empty when the analysis ran to
    /// completion everywhere.
    pub degradations: Vec<Degradation>,
    /// What the SCC-modular scheduler did (all zeros for the legacy
    /// whole-program driver).
    pub schedule: ScheduleReport,
}

impl Analysis {
    /// The summary for `name`.
    pub fn summary(&self, name: &str) -> Option<&EscapeSummary> {
        self.summaries.get(&Symbol::intern(name))
    }

    /// Theorem 2 case 2 for `name`: unshared top spines of any call's
    /// result.
    pub fn unshared_result_spines(&self, name: &str) -> Option<u32> {
        self.summary(name).map(unshared_from_summary)
    }

    /// Whether `name`'s summary is a worst-case fallback rather than the
    /// exact global test result.
    pub fn is_degraded(&self, name: &str) -> bool {
        self.is_degraded_sym(Symbol::intern(name))
    }

    /// [`Analysis::is_degraded`] for an already-interned symbol.
    pub fn is_degraded_sym(&self, name: Symbol) -> bool {
        self.degradations.iter().any(|d| d.function == name)
    }

    /// Whether every summary is exact (no degradations anywhere).
    pub fn fully_precise(&self) -> bool {
        self.degradations.is_empty()
    }
}

impl fmt::Display for Analysis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for s in self.summaries.values() {
            write!(f, "{s}")?;
        }
        for d in &self.degradations {
            writeln!(f, "warning: {d}")?;
        }
        Ok(())
    }
}

/// Analyzes nml source end to end with default settings.
///
/// # Errors
///
/// Returns an [`AnalyzeError`] wrapping the first syntax, type, or
/// analysis failure.
///
/// # Examples
///
/// ```
/// use nml_escape::analyze_source;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let analysis = analyze_source(
///     "letrec append x y = if (null x) then y
///                          else cons (car x) (append (cdr x) y)
///      in append [1] [2]",
/// )?;
/// let append = analysis.summary("append").expect("analyzed");
/// // G(APPEND, 1) = ⟨1,0⟩: all but the top spine of x escapes.
/// assert_eq!(append.param(0).verdict.to_string(), "<1,0>");
/// // G(APPEND, 2) = ⟨1,1⟩: all of y escapes.
/// assert_eq!(append.param(1).verdict.to_string(), "<1,1>");
/// # Ok(())
/// # }
/// ```
pub fn analyze_source(src: &str) -> Result<Analysis, AnalyzeError> {
    analyze_source_with(src, PolyMode::default(), EngineConfig::default())
}

/// Analyzes nml source with explicit polymorphism handling and engine
/// configuration.
///
/// # Errors
///
/// See [`analyze_source`].
pub fn analyze_source_with(
    src: &str,
    mode: PolyMode,
    config: EngineConfig,
) -> Result<Analysis, AnalyzeError> {
    analyze_source_governed(src, mode, config, Budget::unlimited())
}

/// Analyzes nml source under a resource [`Budget`]. On exhaustion the
/// remaining functions degrade to worst-case summaries instead of failing.
///
/// # Errors
///
/// Only syntax and type errors; the analysis phase itself is total.
pub fn analyze_source_governed(
    src: &str,
    mode: PolyMode,
    config: EngineConfig,
    budget: Budget,
) -> Result<Analysis, AnalyzeError> {
    analyze_source_scheduled(src, mode, config, budget, &ScheduleOptions::default())
}

/// [`analyze_source_governed`] with explicit [`ScheduleOptions`]: worker
/// threads and an optional persistent summary cache.
///
/// # Errors
///
/// Only syntax and type errors; the analysis phase itself is total.
pub fn analyze_source_scheduled(
    src: &str,
    mode: PolyMode,
    config: EngineConfig,
    budget: Budget,
    options: &crate::modular::ScheduleOptions,
) -> Result<Analysis, AnalyzeError> {
    let parsed = parse_program(src)?;
    let (program, info) = match mode {
        PolyMode::SimplestInstance => {
            let info = infer_program(&parsed)?;
            (parsed, info)
        }
        PolyMode::Monomorphize => {
            let mono = infer_and_monomorphize(&parsed)?;
            (mono.program, mono.info)
        }
    };
    crate::modular::analyze_program_scheduled(program, info, config, budget, options)
}

/// Analyzes an already-typed program.
///
/// # Errors
///
/// None in practice: engine faults degrade per function (see
/// [`analyze_program_governed`]); the `Result` is kept for signature
/// stability.
pub fn analyze_program(
    program: Program,
    info: TypeInfo,
    config: EngineConfig,
) -> Result<Analysis, AnalyzeError> {
    analyze_program_governed(program, info, config, Budget::unlimited())
}

pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

pub(crate) fn merge_stats(acc: &mut EngineStats, s: &EngineStats) {
    acc.passes += s.passes;
    acc.memo_entries = acc.memo_entries.max(s.memo_entries);
    acc.widenings += s.widenings;
    for (k, v) in &s.updates_per_binding {
        *acc.updates_per_binding.entry(*k).or_default() += v;
    }
}

/// Analyzes an already-typed program under a resource [`Budget`].
///
/// Since the SCC-modular refactor this is a thin wrapper over
/// [`analyze_program_scheduled`](crate::modular::analyze_program_scheduled)
/// in serial mode with no cache: the call graph is condensed into SCCs,
/// each component gets an equal share of the budget, and any fault —
/// typed engine error, quarantined panic, or budget exhaustion — degrades
/// that component alone (dependents keep their computed summaries and
/// are flagged [`DegradeReason::Transitive`]).
///
/// # Errors
///
/// None in practice; the `Result` is kept for signature stability with
/// the syntax/type phases.
pub fn analyze_program_governed(
    program: Program,
    info: TypeInfo,
    config: EngineConfig,
    budget: Budget,
) -> Result<Analysis, AnalyzeError> {
    analyze_program_scheduled(program, info, config, budget, &ScheduleOptions::default())
}

/// The legacy whole-program driver: one engine, one global fixpoint,
/// per-*function* fault isolation.
///
/// Kept as the executable reference the SCC-modular scheduler is tested
/// against (the equivalence suite asserts identical summaries), and for
/// callers that want the paper's monolithic iteration verbatim.
///
/// Each top-level function's global escape test runs inside a panic
/// quarantine. Three classes of fault all lead to the same sound outcome —
/// the function's summary becomes `W^τ` (every parameter fully escaping)
/// and a [`Degradation`] is recorded:
///
/// - typed engine errors (budget exhaustion, fixpoint divergence,
///   inconsistent AST nodes);
/// - panics inside the abstract interpreter (the engine is rebuilt, the
///   governor's accumulated usage carries over);
/// - budget exhaustion part-way through the function list (remaining
///   functions degrade immediately — the governor stays tripped).
///
/// # Errors
///
/// None in practice; the `Result` is kept for signature stability with
/// the syntax/type phases.
pub fn analyze_program_whole_program(
    program: Program,
    info: TypeInfo,
    config: EngineConfig,
    budget: Budget,
) -> Result<Analysis, AnalyzeError> {
    let names: Vec<Symbol> = program.bindings.iter().map(|b| b.name).collect();
    let mut summaries = BTreeMap::new();
    let mut degradations = Vec::new();
    let mut stats = EngineStats::default();
    {
        let mut engine = Engine::with_config(&program, &info, config.clone());
        engine.set_governor(Governor::new(budget));
        for name in names {
            // Only functions (arity >= 1) have escape tests.
            let Some(sig) = info.sig(name).cloned() else {
                continue;
            };
            if sig.uncurry().0.is_empty() {
                continue;
            }
            let outcome = catch_unwind(AssertUnwindSafe(|| global_escape(&mut engine, name)));
            match outcome {
                Ok(Ok(summary)) => {
                    summaries.insert(name, summary);
                }
                Ok(Err(e)) => {
                    summaries.insert(name, worst_case_summary(name, &sig));
                    degradations.push(Degradation {
                        function: name,
                        reason: DegradeReason::Engine(e),
                    });
                }
                Err(payload) => {
                    summaries.insert(name, worst_case_summary(name, &sig));
                    degradations.push(Degradation {
                        function: name,
                        reason: DegradeReason::Panic(panic_message(payload)),
                    });
                    // The unwound engine may hold inconsistent memo/slot
                    // state: rebuild it. The governor (with its usage)
                    // carries over so the budget stays analysis-wide.
                    let governor = engine.governor().clone();
                    merge_stats(&mut stats, &engine.stats);
                    engine = Engine::with_config(&program, &info, config.clone());
                    engine.set_governor(governor);
                }
            }
        }
        merge_stats(&mut stats, &engine.stats);
    }
    Ok(Analysis {
        program,
        info,
        summaries,
        stats,
        degradations,
        schedule: ScheduleReport::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::be::Be;

    const PS: &str = r#"
        letrec
          append x y = if (null x) then y
                       else cons (car x) (append (cdr x) y);
          split p x l h =
            if (null x) then (cons l (cons h nil))
            else if (car x) < p
                 then split p (cdr x) (cons (car x) l) h
                 else split p (cdr x) l (cons (car x) h);
          ps x = if (null x) then nil
                 else append (ps (car (split (car x) (cdr x) nil nil)))
                             (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))))
        in ps [5, 2, 7, 1, 3, 4]
    "#;

    /// The complete Appendix A.1 result table.
    #[test]
    fn paper_appendix_a1_all_results() {
        let a = analyze_source(PS).expect("analysis");
        let append = a.summary("append").unwrap();
        assert_eq!(append.param(0).verdict, Be::escaping(0), "G(APPEND,1)");
        assert_eq!(append.param(1).verdict, Be::escaping(1), "G(APPEND,2)");
        let split = a.summary("split").unwrap();
        assert_eq!(split.param(0).verdict, Be::bottom(), "G(SPLIT,1)");
        assert_eq!(split.param(1).verdict, Be::escaping(0), "G(SPLIT,2)");
        assert_eq!(split.param(2).verdict, Be::escaping(1), "G(SPLIT,3)");
        assert_eq!(split.param(3).verdict, Be::escaping(1), "G(SPLIT,4)");
        let ps = a.summary("ps").unwrap();
        assert_eq!(ps.param(0).verdict, Be::escaping(0), "G(PS,1)");
    }

    #[test]
    fn appendix_a2_sharing() {
        let a = analyze_source(PS).expect("analysis");
        assert_eq!(a.unshared_result_spines("ps"), Some(1));
        assert_eq!(a.unshared_result_spines("split"), Some(1));
    }

    #[test]
    fn syntax_error_propagates() {
        assert!(matches!(
            analyze_source("letrec in 1"),
            Err(AnalyzeError::Syntax(_))
        ));
    }

    #[test]
    fn type_error_propagates() {
        assert!(matches!(
            analyze_source("1 + true"),
            Err(AnalyzeError::Type(_))
        ));
    }

    #[test]
    fn non_function_bindings_are_skipped() {
        let a = analyze_source("letrec k = 42; inc x = x + k in inc 1").unwrap();
        assert!(a.summary("k").is_none());
        assert!(a.summary("inc").is_some());
    }

    #[test]
    fn monomorphize_mode_analyzes_instances() {
        let a = analyze_source_with(
            "letrec len l = if (null l) then 0 else 1 + len (cdr l)
             in len [1] + len [[2]]",
            PolyMode::Monomorphize,
            EngineConfig::default(),
        )
        .unwrap();
        assert!(
            a.summary("len__i").is_some(),
            "summaries: {:?}",
            a.summaries.keys()
        );
        assert!(a.summary("len__iL").is_some());
        // Neither instance lets its argument escape.
        assert_eq!(a.summary("len__i").unwrap().param(0).verdict, Be::bottom());
        assert_eq!(a.summary("len__iL").unwrap().param(0).verdict, Be::bottom());
    }

    #[test]
    fn display_renders_all_summaries() {
        let a = analyze_source("letrec id x = x in id 1").unwrap();
        let text = a.to_string();
        assert!(text.contains("id"), "{text}");
        assert!(text.contains("G = <1,0>"), "{text}");
    }
}
