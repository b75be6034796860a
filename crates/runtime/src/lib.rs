//! # nml-runtime
//!
//! The instrumented execution substrate for *Escape Analysis on Lists*
//! (Park & Goldberg, PLDI 1992). The 1992 paper had no implementation;
//! this runtime is the synthetic testbed on which the paper's predicted
//! storage optimizations become measurable:
//!
//! - an explicit cons [`heap`] with a free list and full allocation
//!   accounting;
//! - a mark–sweep garbage collector ([`gc`]) with exact roots;
//! - **stack regions** and **blocks** (dynamic extents freed wholesale,
//!   §A.3.1/§A.3.3), with optional per-pop validation that no region cell
//!   is still reachable — the analysis's safety claim as a runtime check;
//! - the destructive **`DCONS`** of the in-place-reuse transformation
//!   (§6);
//! - **provenance tracking** ([`provenance`]): the paper's *exact* escape
//!   semantics (§3.2) realized dynamically, used by the soundness tests
//!   (`dynamic ⊑ abstract`);
//! - **checked-optimization mode** ([`checked`]): claim-driven frees
//!   tombstone their cells instead of recycling them, so a wrong escape
//!   claim surfaces as a structured [`SoundnessViolation`] (naming the
//!   offending site) instead of silent heap corruption; the
//!   [`recovery`] loop turns those violations into quarantine →
//!   rebuild → re-run.
//!
//! ## Example
//!
//! ```
//! use nml_opt::lower_program;
//! use nml_runtime::Interp;
//! use nml_syntax::parse_program;
//! use nml_types::infer_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "letrec rev l = if (null l) then nil
//!                     else letrec put xs y = if (null xs) then cons y nil
//!                                            else cons (car xs) (put (cdr xs) y)
//!                          in put (rev (cdr l)) (car l)
//!      in rev [1, 2, 3]",
//! )?;
//! let info = infer_program(&program)?;
//! let ir = lower_program(&program, &info);
//! let mut interp = Interp::new(&ir)?;
//! let result = interp.run()?;
//! assert_eq!(interp.read_int_list(result)?, vec![3, 2, 1]);
//! println!("{}", interp.heap.stats);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bytecode;
pub mod checked;
pub mod error;
pub mod fault;
pub mod gc;
pub mod heap;
pub mod interp;
pub mod provenance;
pub mod recovery;
pub mod render;
pub mod stats;
pub mod value;
pub mod vm;

pub use bytecode::{compile, BytecodeProgram, Chunk, Op};
pub use checked::{AccessKind, ClaimKind, RegionNote, SoundnessViolation, Tombstone};
pub use error::RuntimeError;
pub use fault::{FaultPlan, FaultRate};
pub use gc::mark;
pub use heap::{CellRef, Heap, HeapConfig, Marks, ObjRef, ProvTag, RegionId};
pub use interp::{Interp, InterpConfig};
pub use provenance::{dynamic_escape, max_escaping_level, tag_spines, DynamicEscape};
pub use recovery::{recover, Claims, Recovered, Recovery};
pub use render::render_value;
pub use stats::RuntimeStats;
pub use value::{CaptureEnv, Closure, Env, ExprRef, Obj, Value};
pub use vm::{Engine, Vm};

/// Helpers shared by the modules' unit tests.
#[cfg(test)]
mod test_util {
    /// `src` parsed, type-checked and lowered with all-heap allocation.
    pub(crate) fn lower(src: &str) -> nml_opt::IrProgram {
        let p = nml_syntax::parse_program(src).expect("parse");
        let info = nml_types::infer_program(&p).expect("infer");
        nml_opt::lower_program(&p, &info)
    }

    /// The integer `src` evaluates to on the tree-walker.
    pub(crate) fn tree_int(src: &str) -> i64 {
        let ir = lower(src);
        let mut interp = crate::Interp::new(&ir).expect("tree startup");
        match interp.run().expect("tree run") {
            crate::Value::Int(n) => n,
            other => panic!("expected int, got {other}"),
        }
    }
}
