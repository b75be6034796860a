//! Interned identifiers.
//!
//! Identifiers are interned in a process-wide table so that [`Symbol`] is a
//! cheap, `Copy`, hashable handle usable as a map key throughout the
//! pipeline (type environments, abstract environments, runtime frames).
//!
//! The table is append-only, which lets a hit go without the lock. Names
//! live in segments that are allocated once and never move, so
//! [`Symbol::as_str`] is two indexed reads. The name-to-id index is an
//! open-addressing table of ids: [`Symbol::intern`] probes it without
//! locking, and only a miss takes the lock, probes again and appends.
//! Growing the index builds a bigger one beside it and publishes that; a
//! reader still probing the old one can only miss, and a miss is always
//! confirmed under the lock. Ids are handed out under the lock in the
//! order of the interning calls, as before.

use std::fmt;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// An interned identifier.
///
/// Two symbols are equal iff the identifiers they intern are equal. The
/// ordering is by intern index (creation order), which is deterministic for
/// a fixed sequence of interning calls but is *not* lexicographic.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

/// Names per segment is `FIRST_SEGMENT << k` for segment `k`, so 32
/// segments cover every `u32` id.
const FIRST_SEGMENT: usize = 1024;
const SEGMENTS: usize = 32;

/// Generations of the name-to-id index; generation `g` has
/// `FIRST_INDEX << g` slots.
const FIRST_INDEX: usize = 2048;

type Segment = Box<[OnceLock<&'static str>]>;

/// The identifiers that denote constants when no binder shadows them.
/// The parser maps them by position ([`Symbol::constant_index`]).
pub(crate) const CONSTANT_NAMES: [&str; 8] =
    ["nil", "cons", "car", "cdr", "null", "pair", "fst", "snd"];

struct Interner {
    /// The names, by id.
    names: [OnceLock<Segment>; SEGMENTS],
    /// Every generation of the index ever built; each slot holds
    /// `id + 1`, or `0` when empty. Only the newest is written; older
    /// ones stay allocated because a reader may still be probing one
    /// (together they are under twice the newest's size).
    index: [OnceLock<Box<[AtomicU32]>>; SEGMENTS],
    /// The newest generation of `index`.
    current: AtomicUsize,
    /// Seeded string hashing: identifiers come from outside the program.
    hasher: std::collections::hash_map::RandomState,
    /// Serializes appends; holds the number of interned names.
    append: Mutex<u32>,
    /// `id + 1` of each of [`CONSTANT_NAMES`] once interned, else `0`.
    /// Recorded as the names are appended, so no name is interned early
    /// (that would shift every later id).
    constants: [AtomicU32; CONSTANT_NAMES.len()],
}

fn interner() -> &'static Interner {
    static INTERNER: OnceLock<Interner> = OnceLock::new();
    INTERNER.get_or_init(|| {
        let index: [OnceLock<Box<[AtomicU32]>>; SEGMENTS] = std::array::from_fn(|g| match g {
            0 => OnceLock::from(index_slots(0)),
            _ => OnceLock::new(),
        });
        Interner {
            names: std::array::from_fn(|_| OnceLock::new()),
            index,
            current: AtomicUsize::new(0),
            hasher: std::collections::hash_map::RandomState::new(),
            append: Mutex::new(0),
            constants: std::array::from_fn(|_| AtomicU32::new(0)),
        }
    })
}

/// The segment holding `id`, and the position inside it.
fn locate(id: u32) -> (usize, usize) {
    let n = id as usize / FIRST_SEGMENT + 1;
    let k = (usize::BITS - 1 - n.leading_zeros()) as usize;
    (k, id as usize - FIRST_SEGMENT * ((1 << k) - 1))
}

fn index_slots(generation: usize) -> Box<[AtomicU32]> {
    (0..FIRST_INDEX << generation)
        .map(|_| AtomicU32::new(0))
        .collect()
}

impl Interner {
    fn name(&self, id: u32) -> &'static str {
        let (k, i) = locate(id);
        self.names[k]
            .get()
            .and_then(|seg| seg[i].get())
            .copied()
            .expect("a symbol's name is stored before the symbol is handed out")
    }

    /// The newest index generation.
    fn index(&self) -> &[AtomicU32] {
        let g = self.current.load(Ordering::Acquire);
        self.index[g].get().expect("a published index generation")
    }

    /// Probes `index` for `name`. The name of any id found is already
    /// stored: a slot written into a live generation is read with this
    /// `Acquire` load, which pairs with its `Release` store in
    /// [`Interner::append`]; a slot filled while building a generation was
    /// published with the generation, whose `Acquire` load in
    /// [`Interner::index`] pairs with the `Release` store of `current`.
    fn probe(&self, index: &[AtomicU32], name: &str, hash: u64) -> Result<u32, usize> {
        let mask = index.len() - 1;
        let mut i = hash as usize & mask;
        loop {
            match index[i].load(Ordering::Acquire) {
                0 => return Err(i),
                v if self.name(v - 1) == name => return Ok(v - 1),
                _ => i = (i + 1) & mask,
            }
        }
    }

    fn find(&self, name: &str) -> Option<u32> {
        let hash = self.hasher.hash_one(name);
        self.probe(self.index(), name, hash).ok()
    }

    /// Interns `name` under the append lock: probes again (another
    /// thread may have appended it, or grown the index, since the
    /// caller's lock-free probe), and appends it on a miss.
    fn intern_locked(&self, name: &str) -> u32 {
        let mut count = self.append.lock().expect("symbol interner poisoned");
        self.find(name)
            .unwrap_or_else(|| self.append(&mut count, name))
    }

    /// Appends a name known to be absent. Callers hold the append lock.
    fn append(&self, count: &mut u32, name: &str) -> u32 {
        let id = *count;
        let (k, i) = locate(id);
        let segment = self.names[k]
            .get_or_init(|| (0..FIRST_SEGMENT << k).map(|_| OnceLock::new()).collect());
        // Leaking is intentional: the interner lives for the whole process
        // and makes `as_str` possible without a lock-guarded lifetime.
        let stat: &'static str = Box::leak(name.to_owned().into_boxed_str());
        segment[i]
            .set(stat)
            .expect("each id is appended once, under the lock");
        if let Some(c) = CONSTANT_NAMES.iter().position(|&c| c == name) {
            // Published before the id is: pairs with the `Acquire` load
            // in `Symbol::constant_index`.
            self.constants[c].store(id + 1, Ordering::Release);
        }
        *count += 1;
        let mut g = self.current.load(Ordering::Acquire);
        if 2 * *count as usize > FIRST_INDEX << g {
            // Keep the load at most one half: build the next generation
            // from every name so far and publish it.
            g += 1;
            let bigger = index_slots(g);
            for old in 0..*count {
                let hash = self.hasher.hash_one(self.name(old));
                let slot = self
                    .probe(&bigger, self.name(old), hash)
                    .expect_err("names are distinct");
                // Not yet visible to readers: `current` publishes it.
                bigger[slot].store(old + 1, Ordering::Relaxed);
            }
            assert!(
                self.index[g].set(bigger).is_ok(),
                "one build per generation"
            );
            self.current.store(g, Ordering::Release);
        } else {
            let index = self.index();
            let slot = self
                .probe(index, name, self.hasher.hash_one(name))
                .expect_err("the name was absent under the lock");
            index[slot].store(id + 1, Ordering::Release);
        }
        id
    }
}

impl Symbol {
    /// Interns `name`, returning its symbol. A name already interned is
    /// found without taking the interner's lock.
    pub fn intern(name: &str) -> Symbol {
        let i = interner();
        Symbol(i.find(name).unwrap_or_else(|| i.intern_locked(name)))
    }

    /// The symbol for `name` if it has already been interned, without
    /// interning on a miss. The table is append-only and process-wide,
    /// so a long-running server probing client-supplied names must use
    /// this instead of [`Symbol::intern`] to avoid unbounded growth.
    pub fn lookup(name: &str) -> Option<Symbol> {
        let i = interner();
        i.find(name)
            .or_else(|| {
                // A lock-free miss may have probed an index generation
                // that a concurrent append just replaced; confirm it.
                let _count = i.append.lock().expect("symbol interner poisoned");
                i.find(name)
            })
            .map(Symbol)
    }

    /// The position of this symbol in [`CONSTANT_NAMES`], if it is one
    /// of them: an id comparison, no string is read.
    pub(crate) fn constant_index(self) -> Option<usize> {
        interner()
            .constants
            .iter()
            .position(|c| c.load(Ordering::Acquire) == self.0 + 1)
    }

    /// The interned string.
    pub fn as_str(self) -> &'static str {
        interner().name(self.0)
    }

    /// A fresh symbol guaranteed distinct from any previously interned
    /// identifier, derived from `base` (used by monomorphization and the
    /// optimizer to mangle names).
    pub fn fresh(base: &str) -> Symbol {
        let i = interner();
        let mut count = i.append.lock().expect("symbol interner poisoned");
        let mut n = 0u32;
        loop {
            let candidate = format!("{base}%{n}");
            if i.find(&candidate).is_none() {
                return Symbol(i.append(&mut count, &candidate));
            }
            n += 1;
        }
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Symbol({:?})", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::intern(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = Symbol::intern("append");
        let b = Symbol::intern("append");
        assert_eq!(a, b);
        assert_eq!(a.as_str(), "append");
    }

    #[test]
    fn lookup_never_interns() {
        assert_eq!(
            Symbol::lookup("lookup-miss-stays-a-miss%nope"),
            None,
            "a miss must not intern"
        );
        assert_eq!(
            Symbol::lookup("lookup-miss-stays-a-miss%nope"),
            None,
            "still a miss on the second probe"
        );
        let s = Symbol::intern("lookup-hit");
        assert_eq!(Symbol::lookup("lookup-hit"), Some(s));
    }

    #[test]
    fn distinct_names_distinct_symbols() {
        assert_ne!(Symbol::intern("x"), Symbol::intern("y"));
    }

    #[test]
    fn fresh_never_collides() {
        let a = Symbol::intern("f%0");
        let b = Symbol::fresh("f");
        assert_ne!(a, b);
        let c = Symbol::fresh("f");
        assert_ne!(b, c);
        assert!(b.as_str().starts_with("f%"));
    }

    #[test]
    fn constants_are_recognized_by_id() {
        for (i, name) in CONSTANT_NAMES.iter().enumerate() {
            assert_eq!(Symbol::intern(name).constant_index(), Some(i));
        }
        assert_eq!(Symbol::intern("carr").constant_index(), None);
    }

    #[test]
    fn segments_and_index_generations_keep_every_name() {
        // Enough names to cross a segment boundary and grow the index.
        let names: Vec<String> = (0..5000).map(|i| format!("seg-test-{i}")).collect();
        let syms: Vec<Symbol> = names.iter().map(|n| Symbol::intern(n)).collect();
        for (n, s) in names.iter().zip(&syms) {
            assert_eq!(s.as_str(), n);
            assert_eq!(Symbol::intern(n), *s);
            assert_eq!(Symbol::lookup(n), Some(*s));
        }
        assert!(
            syms.windows(2).all(|w| w[0] < w[1]),
            "ids follow interning order"
        );
    }

    #[test]
    fn concurrent_interning_agrees() {
        let names: Vec<String> = (0..3000).map(|i| format!("par-test-{i}")).collect();
        let start = std::sync::Barrier::new(2);
        let per_thread: Vec<Vec<Symbol>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|t| {
                    let names = &names;
                    let start = &start;
                    s.spawn(move || {
                        start.wait();
                        let mut out: Vec<Symbol> = Vec::new();
                        for k in 0..names.len() {
                            // The two threads walk the names in opposite
                            // orders, so they race on every insert.
                            let n = if t == 0 { k } else { names.len() - 1 - k };
                            out.push(Symbol::intern(&names[n]));
                        }
                        if t == 1 {
                            out.reverse();
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("interning thread"))
                .collect()
        });
        assert_eq!(per_thread[0], per_thread[1]);
        for (n, s) in names.iter().zip(&per_thread[0]) {
            assert_eq!(s.as_str(), n);
        }
    }

    #[test]
    fn locate_covers_ids_without_gaps() {
        assert_eq!(locate(0), (0, 0));
        assert_eq!(locate(FIRST_SEGMENT as u32 - 1), (0, FIRST_SEGMENT - 1));
        assert_eq!(locate(FIRST_SEGMENT as u32), (1, 0));
        assert_eq!(
            locate(3 * FIRST_SEGMENT as u32 - 1),
            (1, 2 * FIRST_SEGMENT - 1)
        );
        assert_eq!(locate(3 * FIRST_SEGMENT as u32), (2, 0));
        assert!(locate(u32::MAX).0 < SEGMENTS);
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(Symbol::intern("cons").to_string(), "cons");
    }
}
