//! Binding-level call graph and its SCC condensation.
//!
//! The analysis engine no longer solves one whole-program fixpoint.
//! Instead, the top-level `letrec` bindings of a [`Program`] are arranged
//! into a *call graph*: binding `f` depends on binding `g` when `g` occurs
//! free in the right-hand side of `f`. Because nml is higher-order, a free
//! occurrence is exactly a (possible) call or capture — either way `f`'s
//! abstract value cannot be finalized before `g`'s, which is the only fact
//! scheduling needs. The graph is condensed with Tarjan's algorithm into
//! strongly connected components and topologically ordered so that every
//! SCC is solved *after* all of its callees, by a small local fixpoint
//! against their already-finalized summaries.

use crate::ast::{Expr, Program};
use crate::symbol::Symbol;
use crate::visit::free_vars;
use std::collections::{BTreeSet, HashMap};

/// The dependency graph over the top-level bindings of one program.
///
/// Node indices are positions in `Program::bindings`; edges point from a
/// binding to the bindings it references (callee direction).
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Binding names, in program order (`names[i]` is node `i`).
    pub names: Vec<Symbol>,
    /// `deps[i]` is the sorted set of node indices that binding `i`
    /// references free in its right-hand side (including `i` itself for a
    /// directly self-recursive binding).
    pub deps: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of the top-level `letrec` bindings.
    ///
    /// An edge `f → g` is recorded when top-level `g` is free in the body
    /// of `f`. This deliberately includes non-call captures (e.g. passing
    /// `g` as an argument or storing it in a list): any free occurrence can
    /// flow `g`'s abstract value into `f`'s, so it is a scheduling
    /// dependency regardless of whether a syntactic application is visible.
    pub fn build(program: &Program) -> CallGraph {
        let names: Vec<Symbol> = program.bindings.iter().map(|b| b.name).collect();
        let index = CallGraph::index(&names);
        let deps = program
            .bindings
            .iter()
            .map(|b| CallGraph::row(&b.expr, &index))
            .collect();
        CallGraph { names, deps }
    }

    /// Node index by binding name, for [`CallGraph::row`].
    pub fn index(names: &[Symbol]) -> HashMap<Symbol, usize> {
        names.iter().enumerate().map(|(i, n)| (*n, i)).collect()
    }

    /// The row of a binding whose right-hand side is `expr`: the sorted
    /// indices of the `index`ed names free in it.
    pub fn row(expr: &Expr, index: &HashMap<Symbol, usize>) -> Vec<usize> {
        let mut out: Vec<usize> = free_vars(expr)
            .iter()
            .filter_map(|v| index.get(v).copied())
            .collect();
        out.sort_unstable();
        out
    }

    /// Number of bindings (nodes).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when the program has no top-level bindings.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// Condenses the graph into SCCs scheduled callees-first.
    pub fn condense(&self) -> SccDag {
        SccDag::build(self)
    }
}

/// One strongly connected component of the call graph.
#[derive(Debug, Clone)]
pub struct Scc {
    /// Member binding indices, in program order.
    pub members: Vec<usize>,
    /// SCC ids this component depends on (callees), deduplicated, sorted.
    pub deps: Vec<usize>,
    /// True when the component needs a fixpoint: it has more than one
    /// member, or its single member references itself.
    pub recursive: bool,
}

/// The condensation of a [`CallGraph`]: SCCs in *reverse topological*
/// (callees-first) order, ready for modular scheduling.
#[derive(Debug, Clone)]
pub struct SccDag {
    /// Components, indexed by SCC id. Ids are already a valid
    /// callees-first topological order: every dependency of `sccs[i]` has
    /// an id `< i` (a guarantee Tarjan's algorithm provides for free).
    pub sccs: Vec<Scc>,
    /// `scc_of[node] = id` of the SCC containing that binding.
    pub scc_of: Vec<usize>,
}

impl SccDag {
    fn build(graph: &CallGraph) -> SccDag {
        let mut t = Tarjan {
            graph,
            index: vec![usize::MAX; graph.len()],
            lowlink: vec![0; graph.len()],
            on_stack: vec![false; graph.len()],
            stack: Vec::new(),
            next_index: 0,
            scc_of: vec![usize::MAX; graph.len()],
            sccs: Vec::new(),
        };
        for v in 0..graph.len() {
            if t.index[v] == usize::MAX {
                t.strongconnect(v);
            }
        }
        let Tarjan {
            scc_of, mut sccs, ..
        } = t;
        // Attach inter-SCC dependency edges. Tarjan emits components
        // callees-first, so every dependency id is smaller.
        for (id, scc) in sccs.iter_mut().enumerate() {
            let mut deps = BTreeSet::new();
            for &m in &scc.members {
                for &d in &graph.deps[m] {
                    let target = scc_of[d];
                    if target != id {
                        deps.insert(target);
                    }
                }
            }
            scc.deps = deps.into_iter().collect();
            scc.members.sort_unstable();
        }
        SccDag { sccs, scc_of }
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.sccs.len()
    }

    /// True when the DAG has no components.
    pub fn is_empty(&self) -> bool {
        self.sccs.is_empty()
    }

    /// The member names of one SCC, resolved through `graph`.
    pub fn member_names(&self, graph: &CallGraph, id: usize) -> Vec<Symbol> {
        self.sccs[id]
            .members
            .iter()
            .map(|&m| graph.names[m])
            .collect()
    }
}

/// Iterative Tarjan state. The recursion is converted to an explicit stack
/// so adversarially deep dependency chains cannot overflow the call stack
/// (the engine itself is panic-quarantined, but the scheduler must not be).
struct Tarjan<'g> {
    graph: &'g CallGraph,
    index: Vec<usize>,
    lowlink: Vec<usize>,
    on_stack: Vec<bool>,
    stack: Vec<usize>,
    next_index: usize,
    scc_of: Vec<usize>,
    sccs: Vec<Scc>,
}

impl Tarjan<'_> {
    fn strongconnect(&mut self, root: usize) {
        // Each frame is (node, next dependency position to examine).
        let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
        self.index[root] = self.next_index;
        self.lowlink[root] = self.next_index;
        self.next_index += 1;
        self.stack.push(root);
        self.on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = frames.last_mut() {
            if let Some(&w) = self.graph.deps[v].get(*pos) {
                *pos += 1;
                if self.index[w] == usize::MAX {
                    self.index[w] = self.next_index;
                    self.lowlink[w] = self.next_index;
                    self.next_index += 1;
                    self.stack.push(w);
                    self.on_stack[w] = true;
                    frames.push((w, 0));
                } else if self.on_stack[w] {
                    self.lowlink[v] = self.lowlink[v].min(self.index[w]);
                }
            } else {
                frames.pop();
                if let Some(&mut (parent, _)) = frames.last_mut() {
                    self.lowlink[parent] = self.lowlink[parent].min(self.lowlink[v]);
                }
                if self.lowlink[v] == self.index[v] {
                    let mut members = Vec::new();
                    loop {
                        let w = self.stack.pop().expect("tarjan stack underflow");
                        self.on_stack[w] = false;
                        self.scc_of[w] = self.sccs.len();
                        members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    let recursive = members.len() > 1 || self.graph.deps[v].contains(&v);
                    self.sccs.push(Scc {
                        members,
                        deps: Vec::new(),
                        recursive,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use crate::symbol::Symbol;

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn names_of(graph: &CallGraph, dag: &SccDag) -> Vec<Vec<String>> {
        (0..dag.len())
            .map(|id| {
                dag.member_names(graph, id)
                    .iter()
                    .map(|s| s.as_str().to_string())
                    .collect()
            })
            .collect()
    }

    /// The partition-sort pipeline from the paper's appendix: `ps` calls
    /// `append` and `split`, which are each self-recursive.
    #[test]
    fn partition_sort_decomposition_and_order() {
        let src = "letrec
            append = lambda(x). lambda(y).
              if (null x) then y else cons (car x) (append (cdr x) y);
            split = lambda(l).
              if (null l) then nil else split (cdr l);
            ps = lambda(l). append (split l) l
          in ps nil";
        let program = parse_program(src).unwrap();
        let graph = CallGraph::build(&program);
        let dag = graph.condense();

        // Three singleton SCCs; ps last (it depends on both others).
        let names = names_of(&graph, &dag);
        assert_eq!(names.len(), 3);
        assert_eq!(*names.last().unwrap(), vec!["ps".to_string()]);
        assert!(names[..2].contains(&vec!["append".to_string()]));
        assert!(names[..2].contains(&vec!["split".to_string()]));

        // append and split are self-loops; ps is not recursive.
        let append_id = dag.scc_of[0];
        let split_id = dag.scc_of[1];
        let ps_id = dag.scc_of[2];
        assert!(dag.sccs[append_id].recursive);
        assert!(dag.sccs[split_id].recursive);
        assert!(!dag.sccs[ps_id].recursive);

        // ps depends on both leaves; the leaves depend on nothing.
        assert_eq!(dag.sccs[ps_id].deps, {
            let mut d = vec![append_id, split_id];
            d.sort_unstable();
            d
        });
        assert!(dag.sccs[append_id].deps.is_empty());
        assert!(dag.sccs[split_id].deps.is_empty());
    }

    /// A mutually recursive pair must collapse into one two-member SCC
    /// scheduled before its caller.
    #[test]
    fn mutual_recursion_is_one_scc() {
        let src = "letrec
            even = lambda(n). if n = 0 then true else odd (n - 1);
            odd = lambda(n). if n = 0 then false else even (n - 1);
            main = lambda(n). even n
          in main 4";
        let program = parse_program(src).unwrap();
        let graph = CallGraph::build(&program);
        let dag = graph.condense();

        assert_eq!(dag.len(), 2);
        let pair = &dag.sccs[0];
        assert_eq!(
            dag.member_names(&graph, 0)
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>(),
            vec!["even", "odd"]
        );
        assert!(pair.recursive);
        assert!(pair.deps.is_empty());
        let main = &dag.sccs[1];
        assert_eq!(main.deps, vec![0]);
        assert!(!main.recursive);
    }

    /// A non-recursive binding that merely *captures* another binding as a
    /// free variable (no syntactic application) still gets an edge: the
    /// captured value flows into the capturer's abstract value.
    #[test]
    fn free_variable_capture_creates_edge() {
        let src = "letrec
            id = lambda(x). x;
            wrap = lambda(y). cons 1 (cons 2 nil);
            pick = lambda(b). if b then id else wrap
          in pick true";
        let program = parse_program(src).unwrap();
        let graph = CallGraph::build(&program);
        let pick = graph.names.iter().position(|n| *n == sym("pick")).unwrap();
        let id = graph.names.iter().position(|n| *n == sym("id")).unwrap();
        let wrap = graph.names.iter().position(|n| *n == sym("wrap")).unwrap();
        assert_eq!(graph.deps[pick], {
            let mut d = vec![id, wrap];
            d.sort_unstable();
            d
        });

        let dag = graph.condense();
        let pick_scc = dag.scc_of[pick];
        assert!(!dag.sccs[pick_scc].recursive);
        assert_eq!(dag.sccs[pick_scc].deps.len(), 2);
    }

    /// Self-loop detection: a singleton SCC is `recursive` exactly when
    /// the binding mentions itself.
    #[test]
    fn self_loop_flag() {
        let src = "letrec
            loop = lambda(x). loop x;
            once = lambda(x). x
          in once 1";
        let program = parse_program(src).unwrap();
        let graph = CallGraph::build(&program);
        let dag = graph.condense();
        let loop_scc = dag.scc_of[0];
        let once_scc = dag.scc_of[1];
        assert!(dag.sccs[loop_scc].recursive);
        assert!(!dag.sccs[once_scc].recursive);
        assert_eq!(dag.sccs[loop_scc].members.len(), 1);
    }

    /// Shadowing: a lambda parameter or inner letrec with the same name as
    /// a top-level binding must NOT create a call edge.
    #[test]
    fn shadowed_names_do_not_create_edges() {
        let src = "letrec
            f = lambda(x). x;
            g = lambda(f). f 1;
            h = lambda(x). letrec f = lambda(y). y in f x
          in g h";
        let program = parse_program(src).unwrap();
        let graph = CallGraph::build(&program);
        let g = graph.names.iter().position(|n| *n == sym("g")).unwrap();
        let h = graph.names.iter().position(|n| *n == sym("h")).unwrap();
        assert!(graph.deps[g].is_empty());
        assert!(graph.deps[h].is_empty());
    }
}
