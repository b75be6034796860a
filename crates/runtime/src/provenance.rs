//! The dynamic (exact) escape semantics, via provenance tracking.
//!
//! The paper's *exact* escape semantics (§3.2) needs an oracle to resolve
//! conditionals; at run time the oracle is free — the program takes the
//! branch it takes. This module implements that semantics operationally:
//! before a call, every spine cell of the interesting argument is tagged
//! with its spine level (counted from the bottom, matching `⟨1,i⟩`);
//! after the call, the result is scanned for tagged cells. The maximum
//! level found is the *dynamic* escape count, and the abstract analysis
//! is safe iff `dynamic ⊑ static` on every run — which the soundness
//! test-suite checks over the whole corpus and on random programs.

use crate::error::RuntimeError;
use crate::heap::{Heap, ProvTag};
use crate::interp::Interp;
use crate::value::{Obj, Value};
use nml_syntax::Symbol;
use std::collections::HashSet;

/// Tags every spine cell of `v` (a list with `spines` spines) with the
/// argument index and its bottom-up spine level: the top spine gets
/// `spines`, elements' top spines get `spines - 1`, and so on.
///
/// # Errors
///
/// Propagates heap access failures (dangling cells).
pub fn tag_spines<'p>(
    heap: &mut Heap<'p>,
    v: &Value<'p>,
    arg: u8,
    spines: u32,
) -> Result<(), RuntimeError> {
    let mut seen = HashSet::new();
    go_tag(heap, v, arg, spines, &mut seen)
}

fn go_tag<'p>(
    heap: &mut Heap<'p>,
    v: &Value<'p>,
    arg: u8,
    spines: u32,
    seen: &mut HashSet<u32>,
) -> Result<(), RuntimeError> {
    if spines == 0 {
        return Ok(());
    }
    let mut cur = *v;
    while let Value::Pair(c) = cur {
        if !seen.insert(c.0) {
            return Ok(());
        }
        heap.set_tag(
            c,
            ProvTag {
                arg,
                level: spines.min(u8::MAX as u32) as u8,
            },
        )?;
        let head = heap.car(c)?;
        go_tag(heap, &head, arg, spines - 1, seen)?;
        cur = heap.cdr(c)?;
    }
    Ok(())
}

/// Scans everything reachable from `v` and returns the highest spine
/// level among cells tagged for `arg` — the dynamic escape count. `None`
/// means no tagged cell is reachable (`⟨0,0⟩` over spines).
///
/// # Errors
///
/// Propagates heap access failures.
pub fn max_escaping_level<'p>(
    heap: &Heap<'p>,
    v: &Value<'p>,
    arg: u8,
) -> Result<Option<u8>, RuntimeError> {
    let mut best: Option<u8> = None;
    let mut seen_cells = HashSet::new();
    let mut seen_objs = HashSet::new();
    let mut seen_envs = HashSet::new();
    let mut work = vec![*v];
    while let Some(v) = work.pop() {
        match v {
            Value::Int(_) | Value::Bool(_) | Value::Nil => {}
            Value::Pair(c) | Value::Tuple(c) => {
                if !seen_cells.insert(c.0) {
                    continue;
                }
                if let Some(tag) = heap.tag(c)? {
                    if tag.arg == arg {
                        best = Some(best.map_or(tag.level, |b| b.max(tag.level)));
                    }
                }
                work.push(heap.car(c)?);
                work.push(heap.cdr(c)?);
            }
            Value::Func { .. } | Value::Prim(_) => {}
            Value::Closure(o)
            | Value::PartialFunc(o)
            | Value::PrimApp(o)
            | Value::VmClosure { env: o, .. } => {
                if !seen_objs.insert(o) {
                    continue;
                }
                match heap.obj(o)? {
                    Obj::Closure(clo) => {
                        clo.env
                            .for_each_value(&mut seen_envs, &mut |x| work.push(*x));
                    }
                    Obj::Partial(p) => work.extend_from_slice(&p.applied),
                    Obj::PrimApp(p) => work.push(p.first),
                    Obj::Captures(c) => work.extend_from_slice(&c.values),
                }
            }
        }
    }
    Ok(best)
}

/// The outcome of one dynamic escape measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynamicEscape {
    /// Spine count of the interesting argument.
    pub spines: u32,
    /// Highest escaping spine level observed (`None`: no spine cell of
    /// the argument reached the result).
    pub escaped_level: Option<u8>,
}

impl DynamicEscape {
    /// The number of bottom spines that escaped (`k` in `⟨1,k⟩`); zero if
    /// no spine escaped.
    pub fn escaping_spines(&self) -> u32 {
        self.escaped_level.map_or(0, u32::from)
    }
}

/// Runs `f args` with argument `interesting` tagged, and measures the
/// dynamic escape of that argument's spines into the result.
///
/// # Errors
///
/// Any [`RuntimeError`] from tagging, the call, or the scan.
///
/// ```
/// use nml_opt::lower_program;
/// use nml_runtime::{dynamic_escape, Interp};
/// use nml_syntax::{parse_program, Symbol};
/// use nml_types::infer_program;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let program = parse_program(
///     "letrec sum l = if (null l) then 0 else car l + sum (cdr l)
///      in sum [1]",
/// )?;
/// let info = infer_program(&program)?;
/// let ir = lower_program(&program, &info);
/// let mut interp = Interp::new(&ir)?;
/// let input = interp.make_int_list(&[1, 2, 3]);
/// let d = dynamic_escape(&mut interp, Symbol::intern("sum"), vec![input], 0, 1)?;
/// // sum consumes its list: no spine cell reaches the result.
/// assert_eq!(d.escaped_level, None);
/// # Ok(())
/// # }
/// ```
pub fn dynamic_escape<'p>(
    interp: &mut Interp<'p>,
    f: Symbol,
    args: Vec<Value<'p>>,
    interesting: usize,
    spines: u32,
) -> Result<DynamicEscape, RuntimeError> {
    let tagged = args[interesting];
    tag_spines(&mut interp.heap, &tagged, interesting as u8, spines)?;
    let result = interp.call(f, args)?;
    let escaped_level = max_escaping_level(&interp.heap, &result, interesting as u8)?;
    Ok(DynamicEscape {
        spines,
        escaped_level,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::lower;

    fn with_interp<R>(src: &str, f: impl FnOnce(&mut Interp<'_>) -> R) -> R {
        let ir = lower(src);
        let mut interp = Interp::new(&ir).expect("init");
        f(&mut interp)
    }

    const APPEND: &str = "letrec append x y = if (null x) then y
                                              else cons (car x) (append (cdr x) y)
                          in append [1] [2]";

    #[test]
    fn append_first_argument_spine_does_not_escape() {
        with_interp(APPEND, |i| {
            let x = i.make_int_list(&[1, 2, 3]);
            let y = i.make_int_list(&[4]);
            let d = dynamic_escape(i, Symbol::intern("append"), vec![x, y], 0, 1).unwrap();
            // Static says ⟨1,0⟩ (elements only); dynamically no spine cell
            // of x reaches the result either.
            assert_eq!(d.escaped_level, None);
            assert_eq!(d.escaping_spines(), 0);
        });
    }

    #[test]
    fn append_second_argument_escapes_fully() {
        with_interp(APPEND, |i| {
            let x = i.make_int_list(&[1, 2, 3]);
            let y = i.make_int_list(&[4, 5]);
            let d = dynamic_escape(i, Symbol::intern("append"), vec![x, y], 1, 1).unwrap();
            assert_eq!(d.escaped_level, Some(1));
            assert_eq!(d.escaping_spines(), 1);
        });
    }

    #[test]
    fn sum_consumes_without_escape() {
        let src = "letrec sum l = if (null l) then 0 else car l + sum (cdr l) in sum [1]";
        with_interp(src, |i| {
            let l = i.make_int_list(&[1, 2, 3]);
            let d = dynamic_escape(i, Symbol::intern("sum"), vec![l], 0, 1).unwrap();
            assert_eq!(d.escaped_level, None);
        });
    }

    #[test]
    fn identity_escapes_whole_list() {
        let src = "letrec idl l = cons (car l) (cdr l) in idl [9]";
        with_interp(src, |i| {
            let l = i.make_int_list(&[1, 2]);
            let d = dynamic_escape(i, Symbol::intern("idl"), vec![l], 0, 1).unwrap();
            // The tail cells (part of the top spine) are in the result.
            assert_eq!(d.escaped_level, Some(1));
        });
    }

    #[test]
    fn nested_list_levels() {
        // first returns the first element: the element's spine (level 1)
        // escapes, the top spine (level 2) does not.
        let src = "letrec first l = car l in first [[1]]";
        with_interp(src, |i| {
            let inner1 = i.make_int_list(&[1, 2]);
            let inner2 = i.make_int_list(&[3]);
            let l = i.make_list([inner1, inner2]);
            let d = dynamic_escape(i, Symbol::intern("first"), vec![l], 0, 2).unwrap();
            assert_eq!(d.escaped_level, Some(1));
            assert_eq!(d.escaping_spines(), 1);
        });
    }

    #[test]
    fn tagging_handles_cycles() {
        with_interp("0", |i| {
            let a = i
                .heap
                .alloc(Value::Int(1), Value::Nil, nml_opt::AllocMode::Heap);
            i.heap.set(a, Value::Int(1), Value::Pair(a)).unwrap();
            tag_spines(&mut i.heap, &Value::Pair(a), 0, 1).unwrap();
            let lvl = max_escaping_level(&i.heap, &Value::Pair(a), 0).unwrap();
            assert_eq!(lvl, Some(1));
        });
    }

    #[test]
    fn escape_through_closure_capture_is_seen() {
        // keep returns a closure (of a *nested* lambda, so it is not
        // flattened into parameters) capturing l.
        let src = "letrec keep l = (lambda(z). lambda(y). car l) 0 in keep [1]";
        with_interp(src, |i| {
            let l = i.make_int_list(&[1, 2]);
            let d = dynamic_escape(i, Symbol::intern("keep"), vec![l], 0, 1).unwrap();
            assert_eq!(d.escaped_level, Some(1), "spine reachable via closure env");
        });
    }
}
