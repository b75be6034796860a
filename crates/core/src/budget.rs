//! The resource governor: hard bounds on what one analysis may consume.
//!
//! A production analyzer must be *total*: no input — however adversarial —
//! may make it loop, blow up memory, or miss a deadline. The paper already
//! supplies the escape hatch that makes this free of soundness risk: any
//! function can be summarized by the worst-case function `W^τ`
//! (Definition 2), the top of the behaviour order, so when a resource
//! bound is hit the analysis can stop refining and report `W^τ` instead of
//! an error. A [`Budget`] names the bounds; a [`Governor`] meters usage
//! against them and reports the first bound crossed.
//!
//! The governor is deliberately *cumulative across engine rebuilds*: when
//! the driver quarantines a panicking function and constructs a fresh
//! engine, it clones the old governor into the new one, so one analysis
//! request can never exceed its budget by failing repeatedly.

use std::fmt;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Resource ceilings for one whole analysis (all functions, all fixpoint
/// queries). `Default` is effectively unlimited.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Budget {
    /// Maximum total fixpoint passes across every query.
    pub max_passes: u32,
    /// Maximum total abstract-value nodes constructed (measured as the
    /// structural depth of every value the engine materializes).
    pub max_nodes: u64,
    /// Wall-clock deadline measured from governor creation.
    pub deadline: Option<Duration>,
}

impl Budget {
    /// No effective limits (the engine's own `max_passes` still applies
    /// per query).
    pub fn unlimited() -> Budget {
        Budget {
            max_passes: u32::MAX,
            max_nodes: u64::MAX,
            deadline: None,
        }
    }

    /// A small budget suitable for interactive or adversarial inputs:
    /// `passes` fixpoint passes, `nodes` abstract nodes, and an optional
    /// deadline.
    pub fn tight(passes: u32, nodes: u64, deadline: Option<Duration>) -> Budget {
        Budget {
            max_passes: passes,
            max_nodes: nodes,
            deadline,
        }
    }

    /// Splits this budget into `n` equal shares, one per independently
    /// governed unit of work (e.g. one per SCC of the call graph). The
    /// `u32::MAX` / `u64::MAX` sentinels of [`Budget::unlimited`] are
    /// preserved rather than divided, so an unlimited budget stays
    /// unlimited; every share keeps the full wall-clock deadline because
    /// the deadline is a point in time, not a divisible quantity.
    pub fn apportion(&self, n: usize) -> Budget {
        let n32 = u32::try_from(n.max(1)).unwrap_or(u32::MAX);
        let n64 = n.max(1) as u64;
        Budget {
            max_passes: if self.max_passes == u32::MAX {
                u32::MAX
            } else {
                (self.max_passes / n32).max(1)
            },
            max_nodes: if self.max_nodes == u64::MAX {
                u64::MAX
            } else {
                (self.max_nodes / n64).max(1)
            },
            deadline: self.deadline,
        }
    }
}

impl Default for Budget {
    fn default() -> Self {
        Budget::unlimited()
    }
}

/// Which resource ran out first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// The cumulative fixpoint pass bound.
    Passes,
    /// The abstract-value node bound.
    Nodes,
    /// The wall-clock deadline.
    WallClock,
}

impl fmt::Display for Resource {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Resource::Passes => f.write_str("fixpoint passes"),
            Resource::Nodes => f.write_str("abstract-value nodes"),
            Resource::WallClock => f.write_str("wall clock"),
        }
    }
}

/// Shared, atomically updated metering state. See [`Governor`].
#[derive(Debug)]
struct GovernorInner {
    budget: Budget,
    started: Instant,
    passes: AtomicU32,
    nodes: AtomicU64,
    checks: AtomicU32,
    /// 0 = not tripped; otherwise `Resource` discriminant + 1.
    tripped: AtomicU8,
}

const TRIP_NONE: u8 = 0;
const TRIP_PASSES: u8 = 1;
const TRIP_NODES: u8 = 2;
const TRIP_WALL_CLOCK: u8 = 3;

fn decode_trip(raw: u8) -> Option<Resource> {
    match raw {
        TRIP_PASSES => Some(Resource::Passes),
        TRIP_NODES => Some(Resource::Nodes),
        TRIP_WALL_CLOCK => Some(Resource::WallClock),
        _ => None,
    }
}

impl GovernorInner {
    fn trip(&self, code: u8) {
        // First trip wins; later trips of a different resource are ignored
        // so diagnostics always name the bound that was crossed first.
        let _ = self
            .tripped
            .compare_exchange(TRIP_NONE, code, Ordering::AcqRel, Ordering::Acquire);
    }

    fn tripped(&self) -> Option<Resource> {
        decode_trip(self.tripped.load(Ordering::Acquire))
    }
}

/// Meters resource usage against a [`Budget`]. Once a bound is crossed the
/// governor stays *tripped*: every subsequent check reports exhaustion, so
/// later queries on the same (or a rebuilt) engine degrade immediately
/// instead of spending resources that are already gone.
///
/// The meter itself lives behind an [`Arc`] of atomics, so `Clone` produces
/// a handle onto the *same* usage counters. That is what makes the governor
/// cumulative across engine rebuilds, and it is also what lets several
/// worker threads charge one shared budget without locks when SCC batches
/// run in parallel.
#[derive(Debug, Clone)]
pub struct Governor {
    inner: Arc<GovernorInner>,
}

impl Governor {
    /// Starts metering now.
    pub fn new(budget: Budget) -> Governor {
        Governor::with_start(budget, Instant::now())
    }

    /// Starts metering against a clock that began at `started`. Per-SCC
    /// governors use this so every share of an apportioned budget measures
    /// its wall-clock deadline from the start of the whole analysis.
    pub fn with_start(budget: Budget, started: Instant) -> Governor {
        Governor {
            inner: Arc::new(GovernorInner {
                budget,
                started,
                passes: AtomicU32::new(0),
                nodes: AtomicU64::new(0),
                checks: AtomicU32::new(0),
                tripped: AtomicU8::new(TRIP_NONE),
            }),
        }
    }

    /// The instant this governor's clock started.
    pub fn started(&self) -> Instant {
        self.inner.started
    }

    /// The budget being enforced.
    pub fn budget(&self) -> Budget {
        self.inner.budget
    }

    /// Total passes charged so far.
    pub fn passes_used(&self) -> u32 {
        self.inner.passes.load(Ordering::Acquire)
    }

    /// Total nodes charged so far.
    pub fn nodes_used(&self) -> u64 {
        self.inner.nodes.load(Ordering::Acquire)
    }

    /// The resource that ran out, if any.
    pub fn exhausted(&self) -> Option<Resource> {
        self.inner.tripped()
    }

    /// Charges one fixpoint pass and re-checks every bound.
    pub fn charge_pass(&self) -> Option<Resource> {
        let passes = self
            .inner
            .passes
            .fetch_add(1, Ordering::AcqRel)
            .saturating_add(1);
        if passes > self.inner.budget.max_passes {
            self.inner.trip(TRIP_PASSES);
        }
        self.check_deadline();
        self.inner.tripped()
    }

    /// Charges `n` abstract-value nodes. The deadline is polled only every
    /// 1024 charges to keep the hot path cheap.
    pub fn charge_nodes(&self, n: u64) -> Option<Resource> {
        let nodes = self
            .inner
            .nodes
            .fetch_add(n, Ordering::AcqRel)
            .saturating_add(n);
        if nodes > self.inner.budget.max_nodes {
            self.inner.trip(TRIP_NODES);
        }
        let checks = self.inner.checks.fetch_add(1, Ordering::AcqRel);
        if checks.wrapping_add(1).is_multiple_of(1024) {
            self.check_deadline();
        }
        self.inner.tripped()
    }

    /// Checks the wall-clock deadline immediately.
    pub fn check_deadline(&self) -> Option<Resource> {
        if let Some(d) = self.inner.budget.deadline {
            if self.inner.started.elapsed() >= d {
                self.inner.trip(TRIP_WALL_CLOCK);
            }
        }
        self.inner.tripped()
    }

    /// The limit of the given resource, as a number (milliseconds for the
    /// deadline), for diagnostics.
    pub fn limit_of(&self, r: Resource) -> u64 {
        match r {
            Resource::Passes => u64::from(self.inner.budget.max_passes),
            Resource::Nodes => self.inner.budget.max_nodes,
            Resource::WallClock => self
                .inner
                .budget
                .deadline
                .map_or(u64::MAX, |d| d.as_millis() as u64),
        }
    }

    /// Usage of the given resource, in the same unit as [`Governor::limit_of`].
    pub fn used_of(&self, r: Resource) -> u64 {
        match r {
            Resource::Passes => u64::from(self.passes_used()),
            Resource::Nodes => self.nodes_used(),
            Resource::WallClock => self.inner.started.elapsed().as_millis() as u64,
        }
    }
}

impl Default for Governor {
    fn default() -> Self {
        Governor::new(Budget::unlimited())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let g = Governor::default();
        for _ in 0..10_000 {
            assert_eq!(g.charge_pass(), None);
            assert_eq!(g.charge_nodes(1_000_000), None);
        }
    }

    #[test]
    fn pass_budget_trips_and_stays_tripped() {
        let g = Governor::new(Budget::tight(3, u64::MAX, None));
        assert_eq!(g.charge_pass(), None);
        assert_eq!(g.charge_pass(), None);
        assert_eq!(g.charge_pass(), None);
        assert_eq!(g.charge_pass(), Some(Resource::Passes));
        // Sticky: any later charge still reports exhaustion.
        assert_eq!(g.charge_nodes(1), Some(Resource::Passes));
        assert_eq!(g.exhausted(), Some(Resource::Passes));
    }

    #[test]
    fn node_budget_trips() {
        let g = Governor::new(Budget::tight(u32::MAX, 10, None));
        assert_eq!(g.charge_nodes(5), None);
        assert_eq!(g.charge_nodes(6), Some(Resource::Nodes));
    }

    #[test]
    fn zero_deadline_trips_immediately() {
        let g = Governor::new(Budget::tight(u32::MAX, u64::MAX, Some(Duration::ZERO)));
        assert_eq!(g.check_deadline(), Some(Resource::WallClock));
    }

    #[test]
    fn cloned_governor_keeps_usage() {
        let g = Governor::new(Budget::tight(2, u64::MAX, None));
        g.charge_pass();
        let g2 = g.clone();
        g2.charge_pass();
        assert_eq!(g2.charge_pass(), Some(Resource::Passes));
    }
}
