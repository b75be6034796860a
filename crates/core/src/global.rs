//! The global escape test `G(f, i, env_e)` (paper §4.1).
//!
//! Global escape analysis characterizes a function over *every possible
//! application*: the interesting parameter is set to `⟨⟨1, s_i⟩, W^{τ_i}⟩`
//! (its whole value, behaving as badly as possible), every other parameter
//! to `⟨⟨0,0⟩, W^{τ_j}⟩`, and the abstract value of `f x₁ … xₙ` is read
//! off. The basic part of the answer is interpreted as:
//!
//! - `⟨0,0⟩` — no part of the i-th argument ever escapes `f`;
//! - `⟨1,k⟩` — the bottom `k` spines could escape; the **top `s_i − k`
//!   spines never do** (and those are what stack allocation / reuse / block
//!   reclamation can exploit).

use crate::absval::AbsVal;
use crate::be::Be;
use crate::engine::{worst_value, Engine};
use crate::error::EscapeError;
use nml_syntax::Symbol;
use nml_types::Ty;
use std::fmt;

/// The escape behaviour of one parameter, as established by the global
/// test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParamEscape {
    /// 0-based parameter position.
    pub index: usize,
    /// The parameter's type.
    pub ty: Ty,
    /// `s_i`: number of spines of the parameter type.
    pub spines: u32,
    /// The raw result `G(f, i, env_e) ∈ B_e`.
    pub verdict: Be,
}

impl ParamEscape {
    /// Whether any part of the parameter may escape.
    pub fn escapes(&self) -> bool {
        self.verdict.escapes()
    }

    /// `esc_i`: the number of *spines* of the parameter that may escape
    /// (0 for `⟨0,0⟩` and for `⟨1,0⟩`, where only elements escape).
    pub fn escaping_spines(&self) -> u32 {
        if self.verdict.escapes() {
            self.verdict.spines()
        } else {
            0
        }
    }

    /// The number of **top** spines guaranteed not to escape — the spines
    /// eligible for stack allocation, in-place reuse, or block
    /// reclamation.
    pub fn retained_spines(&self) -> u32 {
        self.spines - self.escaping_spines().min(self.spines)
    }

    /// Whether a list argument escapes on every spine: its cells flow
    /// wholesale into the callee's result.
    pub fn escapes_every_spine(&self) -> bool {
        self.spines > 0 && self.escaping_spines() >= self.spines
    }
}

impl fmt::Display for ParamEscape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "param {}: {} (s={}): G = {}",
            self.index + 1,
            self.ty,
            self.spines,
            self.verdict
        )
    }
}

/// Global escape information for one function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EscapeSummary {
    /// The function's name.
    pub name: Symbol,
    /// Its (ground, simplest-instance) parameter types.
    pub param_tys: Vec<Ty>,
    /// Its result type.
    pub result_ty: Ty,
    /// Per-parameter verdicts.
    pub params: Vec<ParamEscape>,
}

impl EscapeSummary {
    /// The verdict for the (0-based) i-th parameter.
    pub fn param(&self, i: usize) -> &ParamEscape {
        &self.params[i]
    }

    /// The function's arity.
    pub fn arity(&self) -> usize {
        self.params.len()
    }

    /// Whether the result type has list structure, so a cons in result
    /// position is part of the returned value.
    pub fn result_has_list_structure(&self) -> bool {
        self.result_ty.spines() >= 1
    }
}

impl fmt::Display for EscapeSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}:", self.name)?;
        for p in &self.params {
            writeln!(f, "  {p}")?;
        }
        Ok(())
    }
}

/// Runs the global escape test for parameter `i` (0-based) of top-level
/// function `name`.
///
/// # Errors
///
/// - [`EscapeError::UnknownFunction`] if `name` is not a top-level binding;
/// - [`EscapeError::BadParameterIndex`] if `i` is out of range;
/// - [`EscapeError::FixpointDiverged`] if the engine's pass budget is
///   exhausted.
pub fn global_escape_param(
    engine: &mut Engine<'_>,
    name: Symbol,
    i: usize,
) -> Result<ParamEscape, EscapeError> {
    let sig = engine
        .info()
        .sig(name)
        .ok_or_else(|| EscapeError::UnknownFunction {
            name: name.to_string(),
        })?
        .clone();
    let (params, _ret) = sig.uncurry();
    if i >= params.len() {
        return Err(EscapeError::BadParameterIndex {
            index: i,
            arity: params.len(),
        });
    }
    let args: Vec<AbsVal> = params
        .iter()
        .enumerate()
        .map(|(j, ty)| {
            let be = if i == j {
                Be::escaping(ty.spines())
            } else {
                Be::bottom()
            };
            worst_value(ty, be)
        })
        .collect();
    let verdict = engine.run(|en| {
        let f = en.top_value(name);
        en.apply_n(&f, &args).be
    })?;
    Ok(ParamEscape {
        index: i,
        ty: params[i].clone(),
        spines: params[i].spines(),
        verdict,
    })
}

/// The worst-case summary for a function of signature `sig`: every
/// parameter is reported fully escaping (`⟨1, s_i⟩`). This is the sound
/// degradation target when the real test cannot run (budget exhausted,
/// engine fault): for any parameter, the true verdict is `⊑ ⟨1, s_i⟩` by
/// construction of the chain, so every consumer of the summary
/// (stack allocation, reuse, block reclamation) simply finds nothing to
/// optimize — never an unsound optimization.
pub fn worst_case_summary(name: Symbol, sig: &Ty) -> EscapeSummary {
    let (param_tys, result_ty) = sig.uncurry();
    let params = param_tys
        .iter()
        .enumerate()
        .map(|(i, ty)| ParamEscape {
            index: i,
            ty: ty.clone(),
            spines: ty.spines(),
            verdict: Be::escaping(ty.spines()),
        })
        .collect();
    EscapeSummary {
        name,
        param_tys,
        result_ty,
        params,
    }
}

/// Runs the global escape test for every parameter of `name`.
///
/// # Errors
///
/// See [`global_escape_param`].
pub fn global_escape(engine: &mut Engine<'_>, name: Symbol) -> Result<EscapeSummary, EscapeError> {
    let sig = engine
        .info()
        .sig(name)
        .ok_or_else(|| EscapeError::UnknownFunction {
            name: name.to_string(),
        })?
        .clone();
    let (param_tys, result_ty) = sig.uncurry();
    let mut params = Vec::with_capacity(param_tys.len());
    for i in 0..param_tys.len() {
        params.push(global_escape_param(engine, name, i)?);
    }
    Ok(EscapeSummary {
        name,
        param_tys,
        result_ty,
        params,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use nml_syntax::parse_program;
    use nml_types::infer_program;

    fn summary(src: &str, f: &str) -> EscapeSummary {
        let program = parse_program(src).expect("parse");
        let info = infer_program(&program).expect("infer");
        let mut engine = Engine::new(&program, &info);
        global_escape(&mut engine, Symbol::intern(f)).expect("analysis")
    }

    const APPEND: &str = "letrec append x y = if (null x) then y
                                              else cons (car x) (append (cdr x) y)
                          in append [1] [2]";

    #[test]
    fn paper_append_param1() {
        // G(APPEND, 1) = ⟨1,0⟩: all but the top spine of x escapes.
        let s = summary(APPEND, "append");
        assert_eq!(s.param(0).verdict, Be::escaping(0));
        assert_eq!(s.param(0).spines, 1);
        assert_eq!(s.param(0).escaping_spines(), 0);
        assert_eq!(s.param(0).retained_spines(), 1);
    }

    #[test]
    fn paper_append_param2() {
        // G(APPEND, 2) = ⟨1,1⟩: all of y escapes.
        let s = summary(APPEND, "append");
        assert_eq!(s.param(1).verdict, Be::escaping(1));
        assert_eq!(s.param(1).retained_spines(), 0);
    }

    #[test]
    fn append_spine_and_result_queries() {
        let s = summary(APPEND, "append");
        // x: elements escape, top spine retained — not every spine.
        assert!(s.param(0).escapes() && !s.param(0).escapes_every_spine());
        // y: the whole argument flows into the result.
        assert!(s.param(1).escapes_every_spine());
        // append returns a list: result-position cells escape.
        assert!(s.result_has_list_structure());
    }

    #[test]
    fn consumed_parameter_queries() {
        let s = summary(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in sum [1, 2]",
            "sum",
        );
        assert!(!s.param(0).escapes() && !s.param(0).escapes_every_spine());
        // sum returns an int: no list structure in the result.
        assert!(!s.result_has_list_structure());
    }

    #[test]
    fn unknown_function_is_an_error() {
        let program = parse_program(APPEND).unwrap();
        let info = infer_program(&program).unwrap();
        let mut engine = Engine::new(&program, &info);
        let err = global_escape(&mut engine, Symbol::intern("missing")).unwrap_err();
        assert!(matches!(err, EscapeError::UnknownFunction { .. }));
    }

    #[test]
    fn bad_parameter_index_is_an_error() {
        let program = parse_program(APPEND).unwrap();
        let info = infer_program(&program).unwrap();
        let mut engine = Engine::new(&program, &info);
        let err = global_escape_param(&mut engine, Symbol::intern("append"), 2).unwrap_err();
        assert!(matches!(
            err,
            EscapeError::BadParameterIndex { index: 2, arity: 2 }
        ));
    }

    #[test]
    fn nonescaping_parameter() {
        // sum consumes its list without returning any part of it.
        let s = summary(
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
             in sum [1, 2]",
            "sum",
        );
        assert_eq!(s.param(0).verdict, Be::bottom());
        assert_eq!(s.param(0).retained_spines(), 1);
    }

    #[test]
    fn fully_escaping_parameter() {
        let s = summary("letrec id l = l in id [1]", "id");
        // Simplest instance: 'a = int, so id : int -> int; whole argument
        // escapes: ⟨1,0⟩ at spines 0.
        assert_eq!(s.param(0).verdict, Be::escaping(0));
        assert_eq!(s.param(0).spines, 0);
    }

    #[test]
    fn rev_all_but_top_spine_escapes() {
        let s = summary(
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y);
                    rev l = if (null l) then nil
                            else append (rev (cdr l)) (cons (car l) nil)
             in rev [1, 2, 3]",
            "rev",
        );
        assert_eq!(s.param(0).verdict, Be::escaping(0));
        assert_eq!(s.param(0).retained_spines(), 1);
    }

    #[test]
    fn higher_order_parameter_uses_worst_case() {
        // apply f x = f x: with f unknown (worst), x escapes through it.
        let s = summary("letrec apply f x = f x in apply (lambda(y). y) 1", "apply");
        // x (param 2, base type at simplest instance): ⟨1,0⟩ — it escapes
        // through the unknown function, which W models by joining the
        // basic parts of everything applied to it.
        assert_eq!(s.param(1).verdict, Be::escaping(0));
        // f itself does not escape: `apply` returns f's *result*, never
        // the closure f. (A function cannot return itself in nml's type
        // system — that would need a recursive type — so W soundly omits
        // its own basic part from its results.)
        assert_eq!(s.param(0).verdict, Be::bottom());
    }
}
