//! # nml-escape
//!
//! A faithful implementation of **“Escape Analysis on Lists”** (Young Gil
//! Park and Benjamin Goldberg, PLDI 1992): a compile-time analysis that
//! determines, for each parameter of each function in a higher-order
//! functional program, *how many spines* of that parameter may be returned
//! by (escape from) the function.
//!
//! The analysis is an abstract interpretation over a two-component domain:
//! each abstract value pairs an element of the finite basic escape domain
//! `B_e = {⟨0,0⟩ ⊑ ⟨1,0⟩ ⊑ … ⊑ ⟨1,d⟩}` (*what is contained in the
//! value*) with a function over abstract values (*its behaviour when
//! applied*). Fixpoints of recursive functions are found by Kleene
//! iteration ([`engine`]).
//!
//! On top of the interpreter sit the paper's four applications:
//!
//! - the **global escape test** `G(f, i, env)` ([`global`]) — what can
//!   escape in *any* application of `f`;
//! - the **local escape test** `L(f, i, e₁…eₙ, env)` ([`local`]) — what
//!   escapes one particular call;
//! - **sharing analysis** (Theorem 2, [`sharing`]) — how many top spines
//!   of a call's result are unshared, the precondition for in-place reuse;
//! - **polymorphic invariance** (Theorem 1, [`poly`]) — transferring the
//!   analysis of the simplest monotype instance to every other instance.
//!
//! ## Quick start
//!
//! ```
//! use nml_escape::analyze_source;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let analysis = analyze_source(
//!     "letrec rev l = if (null l) then nil
//!                     else letrec snoc xs y = if (null xs) then cons y nil
//!                                             else cons (car xs) (snoc (cdr xs) y)
//!                          in snoc (rev (cdr l)) (car l)
//!      in rev [1, 2, 3]",
//! )?;
//! let rev = analysis.summary("rev").expect("rev analyzed");
//! // All but the top spine of rev's argument escapes: the top spine can
//! // be stack-allocated or destructively reused.
//! assert_eq!(rev.param(0).retained_spines(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod absval;
pub mod analysis;
pub mod be;
pub mod budget;
pub mod cache;
pub mod engine;
pub mod error;
pub mod escape_lattice;
pub mod global;
pub mod incremental;
pub mod local;
pub mod modular;
pub mod poly;
pub mod reference;
pub mod sharing;

pub use absval::{AbsEnv, AbsVal, EnvEntry, FunVal, RecKey};
pub use analysis::{
    analyze_program, analyze_program_governed, analyze_program_whole_program, analyze_source,
    analyze_source_governed, analyze_source_scheduled, analyze_source_with, Analysis, Degradation,
    DegradeReason, PolyMode,
};
pub use be::Be;
pub use budget::{Budget, Governor, Resource};
pub use cache::SummaryCache;
pub use engine::{worst_value, Engine, EngineConfig, EngineStats};
pub use error::{AnalyzeError, EscapeError};
pub use escape_lattice::{state_of_param, AliasClasses, EscapeState};
pub use global::{
    global_escape, global_escape_param, worst_case_summary, EscapeSummary, ParamEscape,
};
pub use incremental::{Incremental, UpdateError};
pub use local::{local_escape, LocalEscape};
pub use modular::{analyze_program_scheduled, ScheduleOptions, ScheduleReport};
pub use poly::{invariance_holds, transfer_param, transfer_verdict};
pub use reference::{
    reference_global, tabulate_program, tabulate_program_governed, BeTable, NotFirstOrder,
    TabulateError,
};
pub use sharing::{
    unshared_from_summary, unshared_result_spines, unshared_result_spines_any_args, ArgSharing,
};
