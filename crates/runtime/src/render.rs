//! Rendering result values in the surface syntax (`[1, 2]`, `(1, true)`).

use crate::error::RuntimeError;
use crate::heap::Heap;
use crate::value::Value;

/// Renders a value, chasing list and tuple structure through the heap.
/// Works for either engine — only the heap is consulted. Scalars render
/// fully, functions by kind (`<closure>`).
///
/// Iterative with an explicit worklist: rendering depth tracks the
/// value's cons-in-car/tuple nesting, which is data-shaped, and a native
/// stack overflow aborts the process instead of unwinding — straight
/// past a server worker's `catch_unwind`.
///
/// # Errors
///
/// Propagates heap access failures (dangling or tombstoned cells).
pub fn render_value(heap: &Heap<'_>, v: &Value<'_>) -> Result<String, RuntimeError> {
    enum Task<'p> {
        /// Render one value.
        Val(Value<'p>),
        /// Continue a list whose remaining tail is this value.
        Tail(Value<'p>),
        /// Emit a literal (closers and separators).
        Lit(&'static str),
    }
    let mut out = String::new();
    let mut work = vec![Task::Val(*v)];
    while let Some(task) = work.pop() {
        match task {
            Task::Lit(s) => out.push_str(s),
            Task::Val(v) => match v {
                Value::Int(n) => out.push_str(&n.to_string()),
                Value::Bool(b) => out.push_str(if b { "true" } else { "false" }),
                Value::Nil => out.push_str("[]"),
                Value::Tuple(c) => {
                    let h = heap.car(c)?;
                    let t = heap.cdr(c)?;
                    out.push('(');
                    work.push(Task::Lit(")"));
                    work.push(Task::Val(t));
                    work.push(Task::Lit(", "));
                    work.push(Task::Val(h));
                }
                Value::Pair(c) => {
                    let h = heap.car(c)?;
                    let t = heap.cdr(c)?;
                    out.push('[');
                    work.push(Task::Tail(t));
                    work.push(Task::Val(h));
                }
                other => {
                    out.push('<');
                    out.push_str(other.kind());
                    out.push('>');
                }
            },
            Task::Tail(v) => match v {
                Value::Pair(c) => {
                    let h = heap.car(c)?;
                    let t = heap.cdr(c)?;
                    out.push_str(", ");
                    work.push(Task::Tail(t));
                    work.push(Task::Val(h));
                }
                // Nil or an improper tail ends the list.
                _ => out.push(']'),
            },
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::heap::HeapConfig;
    use nml_opt::AllocMode;

    /// 100k levels of cons-in-car nesting, built directly on a heap
    /// (the guest type system bounds nesting per program, but the
    /// renderer must not bank on that): recursive rendering would
    /// overflow the native stack and abort the process.
    #[test]
    fn render_value_handles_deep_nesting_iteratively() {
        let mut heap = Heap::new(HeapConfig::default());
        let mut acc = Value::Nil;
        for _ in 0..100_000 {
            let cell = heap.alloc(acc, Value::Nil, AllocMode::Heap);
            acc = Value::Pair(cell);
        }
        let s = render_value(&heap, &acc).expect("render");
        assert_eq!(s.len(), 2 * 100_000 + 2, "100k nested singleton lists");
        assert!(s.starts_with("[[[") && s.ends_with("]]]"));

        // Deep tuple-in-tuple nesting exercises the other recursive arm.
        let mut acc = Value::Int(1);
        for _ in 0..100_000 {
            let cell = heap.alloc(acc, Value::Int(0), AllocMode::Heap);
            acc = Value::Tuple(cell);
        }
        let s = render_value(&heap, &acc).expect("render tuples");
        assert!(
            s.starts_with("(((") && s.ends_with("0), 0)"),
            "{}",
            &s[s.len() - 16..]
        );
    }

    #[test]
    fn render_value_list_shapes() {
        let mut heap = Heap::new(HeapConfig::default());
        let inner = heap.alloc(Value::Int(2), Value::Nil, AllocMode::Heap);
        let outer = heap.alloc(Value::Int(1), Value::Pair(inner), AllocMode::Heap);
        let s = render_value(&heap, &Value::Pair(outer)).expect("render");
        assert_eq!(s, "[1, 2]");
        let t = heap.alloc(Value::Int(1), Value::Bool(true), AllocMode::Heap);
        assert_eq!(render_value(&heap, &Value::Tuple(t)).unwrap(), "(1, true)");
        assert_eq!(render_value(&heap, &Value::Nil).unwrap(), "[]");
        let nested = heap.alloc(Value::Pair(outer), Value::Nil, AllocMode::Heap);
        assert_eq!(
            render_value(&heap, &Value::Pair(nested)).unwrap(),
            "[[1, 2]]"
        );
    }
}
