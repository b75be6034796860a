//! # nml-opt
//!
//! The storage optimizations that *Escape Analysis on Lists* (Park &
//! Goldberg, PLDI 1992) derives from escape information (§1, §6, §A.3):
//!
//! - **In-place reuse** ([`reuse`]): rewrite a `cons` into the destructive
//!   `DCONS` when the analysis shows a list parameter's top spine neither
//!   escapes nor is used afterwards — the paper's `APPEND'`, `REV'`,
//!   `PS''`.
//! - **Stack allocation** ([`stack`]): allocate freshly constructed,
//!   non-escaping list arguments into a region freed when the call
//!   returns — no garbage collection.
//! - **Block allocation/reclamation** ([`block`]): route a producer's
//!   result spine into a memory block freed wholesale when the consumer
//!   returns — the paper's `PS (create_list i)` example.
//!
//! All three operate on the storage-annotated [`ir`] (one node arena per
//! top-level binding), which the `nml-runtime` crate executes with full
//! allocation/GC instrumentation.
//! [`compile()`] is the one source → IR entry point that strings the
//! analysis, lowering, the pass manager, sabotage and quarantine together.
//!
//! ## Example
//!
//! ```
//! use nml_escape::analyze_source;
//! use nml_opt::{lower_program, reuse_variant, ReuseOptions};
//! use nml_syntax::{parse_program, Symbol};
//! use nml_types::infer_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let src = "letrec append x y = if (null x) then y
//!                                else cons (car x) (append (cdr x) y)
//!            in append [1] [2]";
//! let program = parse_program(src)?;
//! let info = infer_program(&program)?;
//! let mut ir = lower_program(&program, &info);
//! let analysis = analyze_source(src)?;
//! let name = reuse_variant(
//!     &mut ir,
//!     &analysis,
//!     Symbol::intern("append"),
//!     &ReuseOptions::dcons(),
//! )?;
//! assert_eq!(name.as_str(), "append_r");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod auto;
pub mod block;
pub mod compile;
pub mod error;
pub mod ir;
pub mod lastuse;
pub mod pipeline;
pub mod pretenure;
pub mod quarantine;
pub mod resolve;
pub mod reuse;
pub mod sroa;
pub mod stack;

pub use auto::{auto_reuse, default_reuse_param, AutoReuse};
pub use block::{block_call, block_name, block_producer_variant};
pub use compile::{analyze, build, compile, CompileOptions, Compiled};
pub use error::OptError;
pub use ir::{
    lower_program, lower_program_with, AllocMode, Arena, Binds, ExprId, IrExpr, IrFunc, IrProgram,
    LowerPlan, RegionKind, SiteId, VariantKind,
};
pub use lastuse::{eligible_sites, occurs_under_lambda, select_sites, EligibleSite};
pub use pipeline::{auto_block, optimize, OptOptions, OptSummary};
pub use pretenure::annotate_pretenure;
pub use quarantine::{
    apply_quarantine, body_cons_sites, sabotage_elide, sabotage_stack, QuarantineSet, SabotagePlan,
};
pub use resolve::{
    resolve_program, CaptureSrc, ClosureSite, CodeUnit, GlobalDef, LetrecInfo, RecSite, Resolved,
    ResolvedProgram, SlotRef,
};
pub use reuse::{reuse_name, reuse_variant, ReuseOptions};
pub use sroa::{analyze_sites, annotate_sroa, strip_sroa, SiteFact};
pub use stack::{annotate_stack, plan_stack_allocation};

/// Helpers shared by the modules' unit tests.
#[cfg(test)]
mod test_util {
    use crate::ir::{lower_program, IrProgram};
    use nml_escape::{analyze_source, Analysis};

    /// `src` parsed, type-checked and lowered with all-heap allocation.
    pub(crate) fn lower(src: &str) -> IrProgram {
        let p = nml_syntax::parse_program(src).expect("parse");
        let info = nml_types::infer_program(&p).expect("infer");
        lower_program(&p, &info)
    }

    /// `src` lowered with all-heap allocation, and its escape analysis.
    pub(crate) fn prep(src: &str) -> (IrProgram, Analysis) {
        let ir = lower(src);
        let analysis = analyze_source(src).expect("analysis");
        (ir, analysis)
    }
}
