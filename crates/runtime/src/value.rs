//! Runtime values and environments.
//!
//! A [`Value`] owns nothing: it is `Copy`, 16 bytes, and every variant
//! that needs more than a word of state names an object of the heap's
//! object table by an [`ObjRef`] index, the way [`Value::Pair`] names a
//! cell by a [`CellRef`]. Copying, overwriting or dropping a value is a
//! plain 16-byte move — no reference count, no drop glue. The objects —
//! tree-walker closures, partial applications, primitive applications
//! and the VM's capture environments ([`Obj`]) — are traced by the same
//! mark phase as cells and freed after a full mark: a major collection,
//! or an object collection when a closure-heavy run trips the object
//! trigger ([`crate::heap`], *Objects*). The tree-walker's [`Env`] chain
//! stays an immutable `Rc` list, held inside its closure objects.

use crate::heap::{CellRef, Heap, ObjRef};
use nml_opt::{Arena, Binds, ExprId, IrExpr, IrFunc};
use nml_syntax::{Prim, Symbol};
use std::fmt;
use std::rc::Rc;

/// A runtime value. `'p` is the lifetime of the executed [`nml_opt::IrProgram`].
///
/// Every variant's payload fits in one word, so the whole enum is 16
/// bytes and `Copy` (both pinned by `value_fits_two_words` below).
/// Partial applications, primitive applications and closures — which
/// need more than a word of state — live in the heap's object table; the
/// common zero-applied cases ([`Value::Func`], [`Value::Prim`]) stay
/// inline and allocation-free.
#[derive(Debug, Clone, Copy)]
pub enum Value<'p> {
    /// Integer.
    Int(i64),
    /// Boolean.
    Bool(bool),
    /// The empty list.
    Nil,
    /// A cons cell in the instrumented heap.
    Pair(CellRef),
    /// A tuple cell in the instrumented heap (`pair`/`fst`/`snd` — the
    /// paper's §1 tuple extension). Stored like a cons cell but distinct
    /// at the value level so lists and tuples never confuse each other.
    Tuple(CellRef),
    /// A tree-walker closure ([`Obj::Closure`]).
    Closure(ObjRef),
    /// A top-level function with no arguments applied yet (the hot case:
    /// loading a global for a saturated call allocates nothing).
    Func {
        /// The function.
        func: &'p IrFunc,
        /// Its position in `IrProgram::funcs`: the VM enters the chunk
        /// the compiled program lists at this index.
        index: u32,
    },
    /// A partially applied top-level function ([`Obj::Partial`]).
    PartialFunc(ObjRef),
    /// A primitive constant used as a first-class function, with no
    /// argument applied yet.
    Prim(Prim),
    /// A binary primitive applied to its first argument ([`Obj::PrimApp`]).
    PrimApp(ObjRef),
    /// A closure of the bytecode engine: a code unit plus its flat
    /// capture environment ([`Obj::Captures`]; no `Env` chain — see
    /// [`crate::vm`]). A member of a recursive group is the group's
    /// shared environment with the member's own chunk, so loading a
    /// sibling allocates nothing.
    VmClosure {
        /// Index of the compiled chunk.
        chunk: u32,
        /// The captured values.
        env: ObjRef,
    },
}

/// A closure-shaped object of the heap's object table.
#[derive(Debug)]
pub enum Obj<'p> {
    /// A tree-walker closure.
    Closure(Closure<'p>),
    /// A partially applied top-level function.
    Partial(PartialApp<'p>),
    /// A binary primitive holding its first argument.
    PrimApp(PrimApp<'p>),
    /// A VM closure's (or recursive group's) capture environment.
    Captures(CaptureEnv<'p>),
}

/// A partially applied top-level function: the function plus the
/// arguments received so far (always fewer than `func.params.len()`).
#[derive(Debug)]
pub struct PartialApp<'p> {
    /// The function.
    pub func: &'p IrFunc,
    /// Its position in `IrProgram::funcs` (see [`Value::Func`]).
    pub index: u32,
    /// Arguments received so far.
    pub applied: Vec<Value<'p>>,
}

/// A binary primitive holding its first argument.
#[derive(Debug)]
pub struct PrimApp<'p> {
    /// Which primitive.
    pub prim: Prim,
    /// The first argument.
    pub first: Value<'p>,
}

/// The flat capture environment of a [`Value::VmClosure`]: the values a
/// closure (or a whole mutually recursive `letrec` group) closed over,
/// copied out of the creating frame. Members of a recursive group share
/// one `CaptureEnv` and reach each other through `rec` (the sibling's
/// chunk index): a sibling is the value `VmClosure { chunk: rec[j], env }`
/// over this same object.
#[derive(Debug)]
pub struct CaptureEnv<'p> {
    /// Captured values, indexed by the compiler's capture slots.
    pub values: Vec<Value<'p>>,
    /// Chunk indices of the recursive group's members (empty for a plain
    /// lambda).
    pub rec: Vec<u32>,
}

/// A node of the executing program: its binding's arena and its index
/// there. The tree-walker's control and continuation frames hold these.
#[derive(Debug, Clone, Copy)]
pub struct ExprRef<'p> {
    /// The arena holding the node.
    pub arena: &'p Arena,
    /// The node.
    pub id: ExprId,
}

impl<'p> ExprRef<'p> {
    /// The root of `arena`: a binding's whole body.
    pub fn root(arena: &'p Arena) -> Self {
        ExprRef {
            arena,
            id: arena.root(),
        }
    }
}

/// A user closure: parameter, body, captured environment.
#[derive(Debug)]
pub struct Closure<'p> {
    /// The parameter.
    pub param: Symbol,
    /// The body expression.
    pub body: ExprRef<'p>,
    /// The captured environment.
    pub env: Env<'p>,
}

impl<'p> Value<'p> {
    /// A short name of the value's kind, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            Value::Int(_) => "int",
            Value::Bool(_) => "bool",
            Value::Nil => "nil",
            Value::Pair(_) => "pair",
            Value::Tuple(_) => "tuple",
            Value::Closure(_) => "closure",
            Value::Func { .. } | Value::PartialFunc(_) => "function",
            Value::Prim(_) | Value::PrimApp(_) => "primitive",
            Value::VmClosure { .. } => "closure",
        }
    }

    /// Whether this is a list value (`nil` or a pair).
    pub fn is_list(&self) -> bool {
        matches!(self, Value::Nil | Value::Pair(_))
    }
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Nil => f.write_str("[]"),
            Value::Pair(c) => write!(f, "<cell {}>", c.0),
            Value::Tuple(c) => write!(f, "<tuple {}>", c.0),
            Value::Closure(_) | Value::VmClosure { .. } => f.write_str("<closure>"),
            Value::Func { func, .. } => write!(f, "<{}/{}>", func.name, func.params.len()),
            Value::PartialFunc(_) => f.write_str("<function>"),
            Value::Prim(prim) => write!(f, "<prim {prim}>"),
            Value::PrimApp(_) => f.write_str("<primitive>"),
        }
    }
}

/// A persistent environment: an immutable linked list of bindings plus
/// recursive `letrec` nodes resolved lazily (so recursive closures need
/// not contain themselves).
#[derive(Debug, Clone, Default)]
pub struct Env<'p> {
    node: Option<Rc<EnvNode<'p>>>,
}

#[derive(Debug)]
enum EnvNode<'p> {
    /// An ordinary binding.
    Bind {
        name: Symbol,
        value: Value<'p>,
        next: Env<'p>,
    },
    /// A group of mutually recursive lambda bindings from a nested
    /// `letrec`. Looking up a name builds the closure on demand with an
    /// environment that *includes this node*, tying the knot without
    /// mutation.
    Rec {
        /// The `letrec`'s arena and bindings; its lambda bindings are
        /// the group.
        arena: &'p Arena,
        binds: Binds,
        next: Env<'p>,
    },
}

impl<'p> Env<'p> {
    /// The empty environment.
    pub fn empty() -> Self {
        Env { node: None }
    }

    /// Extends with one binding.
    #[must_use]
    pub fn bind(&self, name: Symbol, value: Value<'p>) -> Env<'p> {
        Env {
            node: Some(Rc::new(EnvNode::Bind {
                name,
                value,
                next: self.clone(),
            })),
        }
    }

    /// Extends with a recursive lambda group: the lambda bindings of the
    /// `letrec` whose bindings are `binds` in `arena`.
    #[must_use]
    pub fn bind_rec(&self, arena: &'p Arena, binds: Binds) -> Env<'p> {
        Env {
            node: Some(Rc::new(EnvNode::Rec {
                arena,
                binds,
                next: self.clone(),
            })),
        }
    }

    /// Looks up `name`, constructing recursive closures on demand (each
    /// in a new object of `heap`).
    pub fn lookup(&self, name: Symbol, heap: &mut Heap<'p>) -> Option<Value<'p>> {
        let mut cur = self;
        loop {
            match cur.node.as_deref()? {
                EnvNode::Bind {
                    name: n,
                    value,
                    next,
                } => {
                    if *n == name {
                        return Some(*value);
                    }
                    cur = next;
                }
                EnvNode::Rec { arena, binds, next } => {
                    let member = arena
                        .binds(*binds)
                        .iter()
                        .find_map(|&(n, e)| match arena[e] {
                            IrExpr::Lambda { param, body, .. } if n == name => Some((param, body)),
                            _ => None,
                        });
                    if let Some((param, body)) = member {
                        return Some(Value::Closure(heap.alloc_obj(Obj::Closure(Closure {
                            param,
                            body: ExprRef { arena, id: body },
                            env: cur.clone(),
                        }))));
                    }
                    cur = next;
                }
            }
        }
    }

    /// Visits every value bound in the environment (for GC marking).
    /// `seen` deduplicates shared nodes by address.
    pub(crate) fn for_each_value(
        &self,
        seen: &mut std::collections::HashSet<*const ()>,
        f: &mut impl FnMut(&Value<'p>),
    ) {
        let mut cur = self;
        while let Some(rc) = &cur.node {
            if !seen.insert(Rc::as_ptr(rc) as *const ()) {
                return; // shared suffix already visited
            }
            match &**rc {
                EnvNode::Bind { value, next, .. } => {
                    f(value);
                    cur = next;
                }
                EnvNode::Rec { next, .. } => cur = next,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::heap::HeapConfig;

    #[test]
    fn bind_and_lookup() {
        let mut heap = Heap::new(HeapConfig::default());
        let env = Env::empty()
            .bind(Symbol::intern("x"), Value::Int(1))
            .bind(Symbol::intern("y"), Value::Int(2));
        assert!(matches!(
            env.lookup(Symbol::intern("x"), &mut heap),
            Some(Value::Int(1))
        ));
        assert!(matches!(
            env.lookup(Symbol::intern("y"), &mut heap),
            Some(Value::Int(2))
        ));
        assert!(env.lookup(Symbol::intern("z"), &mut heap).is_none());
    }

    #[test]
    fn shadowing_finds_innermost() {
        let mut heap = Heap::new(HeapConfig::default());
        let env = Env::empty()
            .bind(Symbol::intern("x"), Value::Int(1))
            .bind(Symbol::intern("x"), Value::Int(2));
        assert!(matches!(
            env.lookup(Symbol::intern("x"), &mut heap),
            Some(Value::Int(2))
        ));
    }

    #[test]
    fn value_kinds() {
        assert_eq!(Value::Int(1).kind(), "int");
        assert_eq!(Value::Nil.kind(), "nil");
        assert!(Value::Nil.is_list());
        assert!(!Value::Bool(true).is_list());
    }

    /// The compact representation is load-bearing for VM locals, frame
    /// slots, and heap cells — a variant growing past one word would
    /// silently fatten all three, and a variant that owns something
    /// would bring back drop glue on every slot overwrite. Pin both.
    #[test]
    fn value_fits_two_words() {
        fn copy<T: Copy>() {}
        copy::<Value<'_>>();
        assert!(
            std::mem::size_of::<Value<'_>>() <= 16,
            "Value grew past 16 bytes: {}",
            std::mem::size_of::<Value<'_>>()
        );
        assert!(std::mem::size_of::<Option<Value<'_>>>() <= 24);
    }
}
