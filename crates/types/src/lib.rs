//! # nml-types
//!
//! Type inference and monomorphization for nml, supporting *Escape
//! Analysis on Lists* (Park & Goldberg, PLDI 1992).
//!
//! The paper assumes programs are monomorphically typed and every `car` is
//! annotated `car^s` with the spine count of its argument (§3.4). This
//! crate provides:
//!
//! - Hindley–Milner inference with let-polymorphism over `letrec` strongly
//!   connected components ([`infer::infer_program`]);
//! - spine counting on types ([`ty::Ty::spines`], Definition 1);
//! - `car^s` annotation ([`infer::TypeInfo::car_spines`]);
//! - the basic-escape-domain bound `d` ([`infer::TypeInfo::max_spines`]);
//! - the *simplest monotype instance* of polymorphic functions (defaulting
//!   residual variables to `int`), which the polymorphic-invariance theorem
//!   (§5) makes sufficient for the analysis;
//! - full monomorphization by specialization ([`mono::monomorphize`]) for
//!   exact per-instance results.
//!
//! ## Example
//!
//! ```
//! use nml_syntax::parse_program;
//! use nml_types::infer_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program("car [[1, 2], [3]]")?;
//! let info = infer_program(&program)?;
//! // The single `car` is annotated car^2: its argument has two spines.
//! assert_eq!(info.car_spines.values().copied().collect::<Vec<_>>(), vec![2]);
//! assert_eq!(info.max_spines, 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod infer;
pub mod mono;
pub mod ty;
mod unify;

pub use error::{TypeError, TypeErrorKind};
pub use infer::{
    expr_max_spines, infer_program, program_max_spines, reinfer_program, scc_order, SpineTable,
    TypeInfo,
};
pub use mono::{infer_and_monomorphize, monomorphize, MonoProgram};
pub use ty::{Scheme, Ty, TyVar};
