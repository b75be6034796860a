//! # nml-syntax
//!
//! The front end of the **nml** language from *Escape Analysis on Lists*
//! (Park & Goldberg, PLDI 1992, §3.1): lexer, recursive-descent parser,
//! abstract syntax, pretty-printer, free-variable analysis, and span-based
//! diagnostics.
//!
//! nml is a simple, strict, higher-order functional language:
//!
//! ```text
//! e  ::= c | x | e1 e2 | lambda(x).e
//!      | if e1 then e2 else e3
//!      | letrec x1 = e1; ...; xn = en in e
//! ```
//!
//! with constants `..., -1, 0, 1, ..., true, false, +, -, =, nil, cons,
//! car, cdr` (plus `null` and a few more comparison/arithmetic primitives
//! used by the paper's examples).
//!
//! ## Example
//!
//! ```
//! use nml_syntax::parse_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = parse_program(
//!     "letrec append x y = if (null x) then y
//!                          else cons (car x) (append (cdr x) y)
//!      in append [1, 2] [3]",
//! )?;
//! assert_eq!(program.bindings.len(), 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod callgraph;
pub mod error;
pub mod idhash;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod span;
pub mod symbol;
pub mod token;
pub mod visit;

pub use ast::{Binding, Const, Expr, ExprKind, NodeId, Prim, Program, TyExpr};
pub use callgraph::{CallGraph, Scc, SccDag};
pub use error::{SyntaxError, SyntaxErrorKind};
pub use idhash::{BuildIdHasher, IdHasher, IdMap};
pub use parser::{parse_expr, parse_expr_in_scope, parse_program, Chunks};
pub use pretty::{pretty_expr, pretty_program};
pub use span::{LineCol, SourceMap, Span};
pub use symbol::Symbol;
