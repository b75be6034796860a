//! The checked-mode recovery loop: quarantine → rebuild → re-run.
//!
//! A checked run executes the optimized program under the tombstoning
//! heap. When an access disproves an escape claim, the run fails with a
//! [`SoundnessViolation`] naming the site that made the claim; [`recover`]
//! disables that site, rebuilds the program without its claim,
//! and runs again. One policy decides every violation:
//!
//! | violation                                   | action                 |
//! |---------------------------------------------|------------------------|
//! | at a site *not* in the attempt's build set  | quarantine, retry      |
//! | at a site already in the attempt's build set | degrade               |
//! | without a site (unattributed)               | degrade                |
//! | after `max_retries` retries                 | degrade                |
//!
//! *Degrade* means one last run of a claim-free build (no passes, no
//! SROA, no sabotage) without the checked heap: a program that makes no
//! claims cannot violate one.
//!
//! The "already quarantined" test uses the set the failing attempt was
//! *built* with, never a live shared set: in the server, a concurrent
//! request may quarantine the same site first, and that must not turn
//! this request's first sighting into a repeat offence.
//!
//! What "build", "run" and "record a quarantine" mean is the caller's
//! business ([`Recovery`]): the `nmlc` pipeline rebuilds from one
//! analysis and persists a quarantine file, the server recompiles its
//! epoch's source and updates the epoch's shared set.

use crate::checked::SoundnessViolation;
use nml_opt::{QuarantineSet, SiteId};

/// Which claims an attempt's program carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Claims<'q> {
    /// Every optimization claim except those at these sites; runs on the
    /// checked heap.
    Without(&'q QuarantineSet),
    /// No claims at all; runs unchecked.
    None,
}

/// How one caller builds, runs and records for [`recover`].
pub trait Recovery {
    /// A successful run's result.
    type Output;
    /// A failed build or run.
    type Error;

    /// Builds the program for one attempt and runs it: on the checked
    /// heap for [`Claims::Without`], unchecked for [`Claims::None`].
    ///
    /// # Errors
    ///
    /// Any build or run failure; [`recover`] inspects it with
    /// [`Self::violation`] and ends on a failed build.
    fn attempt(&mut self, claims: Claims<'_>) -> Result<Self::Output, Self::Error>;

    /// The soundness violation behind a failure, if it is one.
    fn violation(err: &Self::Error) -> Option<&SoundnessViolation>;

    /// Records that `site` is quarantined (its claim was disproved by
    /// `violation` on attempt `attempt`, 0-based) and returns the set the
    /// next attempt is built with.
    fn quarantine(
        &mut self,
        site: SiteId,
        violation: &SoundnessViolation,
        attempt: u32,
    ) -> QuarantineSet;
}

/// A run [`recover`] brought to a result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered<T> {
    /// The final run's result.
    pub output: T,
    /// Runs executed, the first included (1 = clean first run).
    pub attempts: u32,
    /// Soundness violations seen across all runs.
    pub violations: u64,
    /// Whether the result came from the claim-free fallback.
    pub degraded: bool,
}

/// Drives a checked run to a result.
///
/// `first` is the outcome of attempt 0, which the caller ran on a
/// program built with `built_with` (so a caller with a warm machine can
/// try it without this loop). Retries go through [`Recovery::attempt`];
/// see the module docs for the policy.
///
/// # Errors
///
/// The first failure that is not a soundness violation, and any build
/// failure.
pub fn recover<R: Recovery>(
    target: &mut R,
    built_with: QuarantineSet,
    first: Result<R::Output, R::Error>,
    max_retries: u32,
) -> Result<Recovered<R::Output>, R::Error> {
    let mut snapshot = built_with;
    let mut outcome = first;
    let mut attempt = 0u32;
    let mut violations = 0u64;
    loop {
        let err = match outcome {
            Ok(output) => {
                return Ok(Recovered {
                    output,
                    attempts: attempt + 1,
                    violations,
                    degraded: false,
                })
            }
            Err(err) => err,
        };
        let Some(v) = R::violation(&err) else {
            return Err(err);
        };
        violations += 1;
        let fresh = v
            .site
            .filter(|s| attempt < max_retries && !snapshot.contains(*s));
        let Some(site) = fresh else {
            let output = target.attempt(Claims::None)?;
            return Ok(Recovered {
                output,
                attempts: attempt + 2,
                violations,
                degraded: true,
            });
        };
        snapshot = target.quarantine(site, v, attempt);
        attempt += 1;
        outcome = target.attempt(Claims::Without(&snapshot));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checked::{AccessKind, ClaimKind};

    /// A scripted target: each checked attempt logs the set it was
    /// built without and pops the next scripted outcome, the claim-free
    /// attempt logs `None` and succeeds, and a shared set stands in for
    /// the server's epoch set.
    #[derive(Default)]
    struct Script {
        outcomes: Vec<Result<&'static str, Option<u32>>>,
        shared: QuarantineSet,
        builds: Vec<Option<QuarantineSet>>,
        recorded: Vec<(u32, u32)>,
    }

    fn violation(site: Option<u32>) -> SoundnessViolation {
        SoundnessViolation {
            cell: 0,
            site: site.map(SiteId),
            claim: ClaimKind::Stack,
            access: AccessKind::Car,
            freed_by: None,
            regions: Vec::new(),
        }
    }

    enum Fail {
        Violation(SoundnessViolation),
        Other,
    }

    impl Recovery for Script {
        type Output = &'static str;
        type Error = Fail;

        fn attempt(&mut self, claims: Claims<'_>) -> Result<&'static str, Fail> {
            let built = match claims {
                Claims::Without(q) => Some(q.clone()),
                Claims::None => None,
            };
            self.builds.push(built.clone());
            if built.is_none() {
                return Ok("fallback");
            }
            match self.outcomes.remove(0) {
                Ok(v) => Ok(v),
                Err(Some(u32::MAX)) => Err(Fail::Other),
                Err(site) => Err(Fail::Violation(violation(site))),
            }
        }

        fn violation(err: &Fail) -> Option<&SoundnessViolation> {
            match err {
                Fail::Violation(v) => Some(v),
                Fail::Other => None,
            }
        }

        fn quarantine(
            &mut self,
            site: SiteId,
            _: &SoundnessViolation,
            attempt: u32,
        ) -> QuarantineSet {
            self.recorded.push((site.0, attempt));
            self.shared.insert(site);
            self.shared.clone()
        }
    }

    fn set(sites: &[u32]) -> QuarantineSet {
        let mut q = QuarantineSet::new();
        for s in sites {
            q.insert(SiteId(*s));
        }
        q
    }

    fn drive(
        script: &mut Script,
        built_with: &[u32],
        first: Option<u32>,
        max_retries: u32,
    ) -> Result<Recovered<&'static str>, Fail> {
        let first = Err(Fail::Violation(violation(first)));
        recover(script, set(built_with), first, max_retries)
    }

    #[test]
    fn clean_first_run_needs_no_recovery_work() {
        let mut s = Script::default();
        let r = recover(&mut s, set(&[]), Ok("v"), 4).ok().unwrap();
        assert_eq!(
            (r.output, r.attempts, r.violations, r.degraded),
            ("v", 1, 0, false)
        );
        assert!(s.builds.is_empty());
    }

    #[test]
    fn new_site_is_quarantined_and_retried() {
        let mut s = Script {
            outcomes: vec![Err(Some(8)), Ok("v")],
            ..Script::default()
        };
        let r = drive(&mut s, &[], Some(7), 4).ok().unwrap();
        assert_eq!(
            (r.output, r.attempts, r.violations, r.degraded),
            ("v", 3, 2, false)
        );
        assert_eq!(s.recorded, vec![(7, 0), (8, 1)]);
        assert_eq!(s.builds, vec![Some(set(&[7])), Some(set(&[7, 8]))]);
    }

    #[test]
    fn repeat_site_degrades() {
        // Attempt 1 was built without site 7, yet 7 violated again: the
        // fallback rewrite itself is wrong, so stop trusting claims.
        let mut s = Script {
            outcomes: vec![Err(Some(7))],
            ..Script::default()
        };
        let r = drive(&mut s, &[], Some(7), 4).ok().unwrap();
        assert_eq!(
            (r.output, r.attempts, r.violations, r.degraded),
            ("fallback", 3, 2, true)
        );
        assert_eq!(s.recorded, vec![(7, 0)]);
        assert_eq!(s.builds.last(), Some(&None));
    }

    #[test]
    fn repeat_is_judged_against_the_build_snapshot() {
        // Another request already put site 7 in the shared set, but this
        // attempt was built before that: 7 is new *to this attempt*.
        let mut s = Script {
            outcomes: vec![Ok("v")],
            shared: set(&[7]),
            ..Script::default()
        };
        let r = drive(&mut s, &[], Some(7), 4).ok().unwrap();
        assert_eq!((r.output, r.degraded), ("v", false));
        assert_eq!(s.recorded, vec![(7, 0)]);
    }

    #[test]
    fn unattributed_violation_degrades() {
        let mut s = Script::default();
        let r = drive(&mut s, &[], None, 4).ok().unwrap();
        assert_eq!(
            (r.output, r.attempts, r.violations, r.degraded),
            ("fallback", 2, 1, true)
        );
        assert!(s.recorded.is_empty());
        assert_eq!(s.builds, vec![None]);
    }

    #[test]
    fn exhausted_retries_degrade() {
        let mut s = Script {
            outcomes: vec![Err(Some(8))],
            ..Script::default()
        };
        let r = drive(&mut s, &[], Some(7), 1).ok().unwrap();
        assert_eq!(
            (r.output, r.attempts, r.violations, r.degraded),
            ("fallback", 3, 2, true)
        );
        assert_eq!(
            s.recorded,
            vec![(7, 0)],
            "site 8 arrived after the last retry"
        );
        let mut s = Script::default();
        let r = drive(&mut s, &[], Some(7), 0).ok().unwrap();
        assert!(r.degraded && s.recorded.is_empty());
    }

    #[test]
    fn other_failures_end_the_recovery() {
        let mut s = Script {
            outcomes: vec![Err(Some(u32::MAX))],
            ..Script::default()
        };
        assert!(matches!(drive(&mut s, &[], Some(7), 4), Err(Fail::Other)));
        let mut s = Script::default();
        assert!(matches!(
            recover(&mut s, set(&[]), Err(Fail::Other), 4),
            Err(Fail::Other)
        ));
    }
}
