//! Program texts of the `run` and `serve` workloads.
//!
//! The `run` programs are the corpus and runtime-bench programs, scaled
//! so the VM does nearly all of a run's work. The seed only shifts the
//! data values (`a`), never a size or an ordering, so every seed runs the
//! same number of VM steps and a timing differs between seeds only by
//! noise, while the printed value still differs.

/// One `run` program.
pub struct RunProgram {
    /// Metric suffix, e.g. `naive_reverse`.
    pub name: &'static str,
    /// Source text for data offset `a` and scale `n`.
    pub source: fn(a: i64, n: usize) -> String,
    /// Scale: sized so the VM takes 25–40 ms against a front end of
    /// about a millisecond.
    pub n: usize,
}

/// The six `run` programs, in report order.
pub const RUN_PROGRAMS: [RunProgram; 6] = [
    RunProgram {
        name: "naive_reverse",
        source: naive_reverse,
        n: 600,
    },
    RunProgram {
        name: "partition_sort",
        source: partition_sort,
        n: 3_000,
    },
    RunProgram {
        name: "map_pair",
        source: map_pair,
        n: 25_000,
    },
    RunProgram {
        name: "repeated_consume",
        source: repeated_consume,
        n: 1_500,
    },
    RunProgram {
        name: "tuple_accumulate",
        source: tuple_accumulate,
        n: 100_000,
    },
    RunProgram {
        name: "churn_live",
        source: churn_live,
        n: 60_000,
    },
];

/// Naive reverse of `n` cells, where `-O` reuses `append`'s argument cells
/// in place (DCONS). The printed value is a position-weighted sum, so any
/// reordering shows.
fn naive_reverse(a: i64, n: usize) -> String {
    format!(
        "letrec
           append x y = if (null x) then y else cons (car x) (append (cdr x) y);
           rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
           mkfrom a n = if n = 0 then nil else cons a (mkfrom (a + 1) (n - 1));
           wsum i l = if (null l) then 0 else i * (car l) + wsum (i + 1) (cdr l)
         in wsum 1 (rev (mkfrom {a} {n}))"
    )
}

/// Partition sort of `n` pseudo-random values (a fixed sequence shifted
/// by `a`, so the comparisons are the same for every seed). `-O` reuses
/// cells in place here too; none of its block or stack sites fires.
fn partition_sort(a: i64, n: usize) -> String {
    format!(
        "letrec
           append x y = if (null x) then y else cons (car x) (append (cdr x) y);
           split p x l h =
             if (null x) then (cons l (cons h nil))
             else if (car x) < p
                  then split p (cdr x) (cons (car x) l) h
                  else split p (cdr x) l (cons (car x) h);
           ps x = if (null x) then nil
                  else append (ps (car (split (car x) (cdr x) nil nil)))
                              (cons (car x) (ps (car (cdr (split (car x) (cdr x) nil nil)))));
           next s = (s * 1103 + 12345) - ((s * 1103 + 12345) / 32768) * 32768;
           mkrand a n s = if n = 0 then nil
                          else cons (a + s - (s / 1000) * 1000) (mkrand a (n - 1) (next s));
           wsum i l = if (null l) then 0 else i * (car l) + wsum (i + 1) (cdr l)
         in wsum 1 (ps (mkrand {a} {n} 4711))"
    )
}

/// `map pair` over `n` two-element lists: every cell escapes into the
/// result, so no allocation can be elided.
fn map_pair(a: i64, n: usize) -> String {
    format!(
        "letrec
           pair x = cons (car x) (cons (car (cdr x)) nil);
           map f l = if (null l) then nil else cons (f (car l)) (map f (cdr l));
           mkpairs a n = if n = 0 then nil
                         else cons (cons (a + n) (cons (a + n + 1) nil)) (mkpairs a (n - 1));
           sumheads l = if (null l) then 0 else (car (car l)) + sumheads (cdr l)
         in sumheads (map pair (mkpairs {a} {n}))"
    )
}

/// Sums `n` freshly created 64-cell lists: dead inputs must be reclaimed.
fn repeated_consume(a: i64, n: usize) -> String {
    format!(
        "letrec
           sum l = if (null l) then 0 else car l + sum (cdr l);
           create_list a n = if n = 0 then nil else cons (a + n) (create_list a (n - 1));
           go k acc = if k = 0 then acc else go (k - 1) (acc + sum (create_list {a} 64))
         in go {n} 0"
    )
}

/// A fold whose step builds a local `(i, acc)` tuple and projects it at
/// once: the canonical scalar-replacement target.
fn tuple_accumulate(a: i64, n: usize) -> String {
    format!(
        "letrec
           step i acc = letrec t = cons i (cons acc nil)
                        in (car t) * 2 + car (cdr t);
           loop n acc = if n = 0 then acc else loop (n - 1) (step n acc)
         in loop {n} {a}"
    )
}

/// Short-lived three-cell lists churned `n` times while a 2000-cell list
/// stays live and is the printed result. The runtime bench conses the
/// temporaries inline at the call, where `-O` stack-allocates them and
/// no collection ever runs; here a producer returns them, so they are
/// nursery cells and the generational collector does the reclaiming.
fn churn_live(a: i64, n: usize) -> String {
    format!(
        "letrec
           mklist a n = if n = 0 then nil else cons (a + n) (mklist a (n - 1));
           mk3 k = cons k (cons k (cons k nil));
           keep t big = if (null t) then big else big;
           churn k big = if k = 0 then big else churn (k - 1) (keep (mk3 k) big)
         in churn {n} (mklist {a} 2000)"
    )
}

/// The served program: naive-reverse `work n` (O(n^2) steps), plus list
/// functions whose arguments and results cross the protocol as JSON.
pub const SERVE_SRC: &str = "letrec
  append x y = if (null x) then y else cons (car x) (append (cdr x) y);
  rev l = if (null l) then nil else append (rev (cdr l)) (cons (car l) nil);
  mklist n = if n = 0 then nil else cons n (mklist (n - 1));
  sum l = if (null l) then 0 else (car l) + sum (cdr l);
  work n = sum (rev (mklist n));
  scale k l = if (null l) then nil else cons (k * car l) (scale k (cdr l))
in work 8";
