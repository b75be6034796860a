//! The per-site escape lattice and alias tracking.
//!
//! The paper's `B_e` domain answers *how many spines of a value may
//! escape*; that count licenses **relocation** — stack regions, block
//! reclamation, pretenuring. Allocation **elimination** (scalar replacement) needs a
//! finer question, the one Julia's `EscapeAnalysis.jl` asks per site:
//! *along which path* does the value escape, and *can anything else name
//! it*? This module supplies both halves:
//!
//! - [`EscapeState`] — the four-point escape lattice
//!   `NoEscape ⊑ ReturnEscape ⊑ ArgEscape ⊑ GlobalEscape`, joined
//!   pointwise as information flows through the program;
//! - [`AliasClasses`] — union-find over the bindings that can name a
//!   cell, so a site is only "unaliased" when every binding that could
//!   alias it is in a singleton class.
//!
//! A site is eligible for scalar replacement exactly when its joined
//! state is [`EscapeState::NoEscape`] **and** its alias class is a
//! singleton: nothing observes the cell's identity, so the cell need
//! never exist. The bridge function at the bottom connects the lattice
//! to the paper-level [`ParamEscape`] verdicts, keeping the reference
//! tabulator as a differential oracle.

use crate::global::ParamEscape;
use std::fmt;

/// How (if at all) a value escapes the scope that created it. The
/// variants form a chain — each is strictly more escaped than the one
/// before — so the derived `Ord` is the lattice order and [`max`](Ord::max)
/// is the join.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum EscapeState {
    /// The value never leaves its creation scope: no return, no argument
    /// position, no store into a longer-lived structure.
    #[default]
    NoEscape,
    /// The value escapes only as (part of) the creating scope's result.
    /// The caller sees it, but the creating frame can still reason about
    /// every access that happens *before* the return.
    ReturnEscape,
    /// The value is passed to a callee whose treatment of it is known
    /// only through a summary: it may be retained, returned, or stored
    /// by the callee.
    ArgEscape,
    /// The value reaches a global, is captured by a closure that
    /// outlives the scope, is stored into another heap cell, or flows
    /// somewhere the analysis cannot bound. Nothing is known.
    GlobalEscape,
}

impl EscapeState {
    /// The lattice join (least upper bound): the more-escaped of the two.
    #[must_use]
    pub fn join(self, other: EscapeState) -> EscapeState {
        self.max(other)
    }

    /// Whether this state permits eliminating the allocation outright
    /// (assuming the site is also unaliased).
    pub fn allows_elision(self) -> bool {
        self == EscapeState::NoEscape
    }

    /// A one-letter code, stable across releases — used by the v3
    /// summary-cache encoding.
    pub fn code(self) -> char {
        match self {
            EscapeState::NoEscape => 'N',
            EscapeState::ReturnEscape => 'R',
            EscapeState::ArgEscape => 'A',
            EscapeState::GlobalEscape => 'G',
        }
    }

    /// Parses a [`EscapeState::code`] letter.
    pub fn from_code(c: char) -> Option<EscapeState> {
        match c {
            'N' => Some(EscapeState::NoEscape),
            'R' => Some(EscapeState::ReturnEscape),
            'A' => Some(EscapeState::ArgEscape),
            'G' => Some(EscapeState::GlobalEscape),
            _ => None,
        }
    }
}

impl fmt::Display for EscapeState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EscapeState::NoEscape => "no-escape",
            EscapeState::ReturnEscape => "return-escape",
            EscapeState::ArgEscape => "arg-escape",
            EscapeState::GlobalEscape => "global-escape",
        })
    }
}

/// Union-find over the bindings (alias "names") that may refer to an
/// allocated cell.
///
/// Every binding that can hold a cell gets an id from
/// [`AliasClasses::fresh`]; whenever the program copies one binding into
/// another (`let y = x`, passing a variable straight through an `if`
/// join, rebinding in a letrec), the two ids are merged by
/// [`AliasClasses::union`]. A cell is **unaliased** iff the class of its
/// defining binding is a singleton: no other name was ever merged in, so
/// every access is syntactically visible at the one binding.
///
/// Path-halving find + union by size: effectively O(α(n)).
#[derive(Debug, Clone, Default)]
pub struct AliasClasses {
    parent: Vec<u32>,
    size: Vec<u32>,
}

impl AliasClasses {
    /// An empty set of classes.
    pub fn new() -> Self {
        AliasClasses::default()
    }

    /// Creates a new singleton class and returns its id.
    pub fn fresh(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.size.push(1);
        id
    }

    /// The class representative of `x`, with path halving.
    pub fn find(&mut self, x: u32) -> u32 {
        let mut x = x as usize;
        while self.parent[x] as usize != x {
            self.parent[x] = self.parent[self.parent[x] as usize];
            x = self.parent[x] as usize;
        }
        x as u32
    }

    /// Merges the classes of `a` and `b`. Returns `true` when they were
    /// previously distinct (a new alias relationship was recorded).
    pub fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        true
    }

    /// Whether `a` and `b` may alias (are in the same class).
    pub fn may_alias(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }

    /// Whether `x`'s class is a singleton — no other binding was ever
    /// merged with it, so `x` is the cell's only possible name.
    pub fn is_unaliased(&mut self, x: u32) -> bool {
        let r = self.find(x);
        self.size[r as usize] == 1
    }

    /// Number of ids issued so far.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no ids have been issued.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Folds a paper-level parameter verdict into the site lattice: what
/// does passing a value *in this parameter position* do to its escape
/// state?
///
/// The global test `G(f, i)` measures escape **through `f`'s result**,
/// so any escaping verdict maps to [`EscapeState::ReturnEscape`] *from
/// the callee's frame* — which, seen from the caller that passed the
/// argument, joins in at the call site as the caller's own obligation.
/// A `⟨0,0⟩` verdict proves the callee retains nothing.
pub fn state_of_param(p: &ParamEscape) -> EscapeState {
    if p.escapes() {
        EscapeState::ReturnEscape
    } else {
        EscapeState::NoEscape
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::analyze_source;

    #[test]
    fn lattice_order_and_join() {
        use EscapeState::*;
        let chain = [NoEscape, ReturnEscape, ArgEscape, GlobalEscape];
        for (i, &a) in chain.iter().enumerate() {
            for (j, &b) in chain.iter().enumerate() {
                assert_eq!(a.join(b), chain[i.max(j)]);
                assert_eq!(a.join(b), b.join(a), "join commutes");
            }
            assert_eq!(a.join(a), a, "join idempotent");
        }
        assert!(NoEscape < ReturnEscape && ReturnEscape < ArgEscape && ArgEscape < GlobalEscape);
    }

    #[test]
    fn only_bottom_allows_elision() {
        assert!(EscapeState::NoEscape.allows_elision());
        assert!(!EscapeState::ReturnEscape.allows_elision());
        assert!(!EscapeState::ArgEscape.allows_elision());
        assert!(!EscapeState::GlobalEscape.allows_elision());
    }

    #[test]
    fn codes_roundtrip() {
        for s in [
            EscapeState::NoEscape,
            EscapeState::ReturnEscape,
            EscapeState::ArgEscape,
            EscapeState::GlobalEscape,
        ] {
            assert_eq!(EscapeState::from_code(s.code()), Some(s));
        }
        assert_eq!(EscapeState::from_code('x'), None);
    }

    #[test]
    fn union_find_singletons_and_merges() {
        let mut ac = AliasClasses::new();
        let a = ac.fresh();
        let b = ac.fresh();
        let c = ac.fresh();
        assert!(ac.is_unaliased(a) && ac.is_unaliased(b) && ac.is_unaliased(c));
        assert!(ac.union(a, b));
        assert!(!ac.union(b, a), "second union is a no-op");
        assert!(!ac.is_unaliased(a) && !ac.is_unaliased(b));
        assert!(ac.is_unaliased(c), "untouched class stays a singleton");
        assert!(ac.may_alias(a, b));
        assert!(!ac.may_alias(a, c));
        // Transitivity through a chain of unions.
        let d = ac.fresh();
        ac.union(c, d);
        ac.union(b, c);
        assert!(ac.may_alias(a, d));
        assert!(!ac.is_unaliased(d));
    }

    /// The lattice bridge must agree with the paper-level verdict in the
    /// direction the verdict is exact: a parameter's lattice state is
    /// `NoEscape` iff no part of it escapes.
    #[test]
    fn bridge_agrees_with_param_escape_on_local() {
        let srcs = [
            "letrec sum l = if (null l) then 0 else car l + sum (cdr l) in sum [1, 2]",
            "letrec append x y = if (null x) then y
                                 else cons (car x) (append (cdr x) y)
             in append [1] [2]",
            "letrec len l = if (null l) then 0 else 1 + len (cdr l) in len [1,2,3]",
            "letrec id l = l in id [1]",
        ];
        for src in srcs {
            let a = analyze_source(src).expect("analysis");
            for s in a.summaries.values() {
                for p in &s.params {
                    let st = state_of_param(p);
                    assert_eq!(
                        st == EscapeState::NoEscape,
                        !p.escapes(),
                        "{}: param {} lattice {st} vs verdict {}",
                        s.name,
                        p.index,
                        p.verdict
                    );
                }
            }
        }
    }
}
