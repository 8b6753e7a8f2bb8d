//! Deterministic fault injection for solver tests.
//!
//! A [`FaultPlan`] names *call sites* (string identifiers like
//! `"dc.newton.plain"` or `"band.point"`) and, per site, the *keys* at
//! which a fault fires. Keys are data-derived by the instrumented code —
//! the Newton iteration number, the frequency's bit pattern, a band
//! grid-point or yield-unit index — never a global invocation counter,
//! so an armed plan triggers at the same logical place at any thread
//! count and the repo's bit-identical determinism contract survives
//! fault testing.
//!
//! The runtime half (arming, firing, bookkeeping) only exists under the
//! `rfkit-faults` feature; without it [`inject`] is an `#[inline(always)]`
//! `None` and every hook compiles out of the solvers.
//!
//! ## Usage (tests)
//!
//! ```ignore
//! let _guard = faults::scoped(
//!     FaultPlan::new().fail_all("dc.newton.plain", FaultKind::SingularLu),
//! );
//! // ... plain Newton now reports a singular system; the guard disarms
//! // on drop and serializes fault tests against each other.
//! ```

/// What an injected fault forces at its call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The linear solve reports a singular matrix.
    SingularLu,
    /// The Newton iteration stalls (step collapses away from a root).
    Stagnate,
    /// The residual evaluates to NaN.
    NanResidual,
    /// A sweep point (band frequency, yield unit) fails to evaluate.
    PointFailure,
}

/// One rule of a plan: a site, the fault to force, and the key set at
/// which it fires (`None` = every key).
#[derive(Debug, Clone, PartialEq)]
struct FaultRule {
    site: String,
    kind: FaultKind,
    keys: Option<std::collections::BTreeSet<u64>>,
}

/// A set of fault rules to arm. Construction is pure and available with
/// or without the `rfkit-faults` feature; arming requires the feature.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Fires `kind` at `site` for every key.
    pub fn fail_all(mut self, site: &str, kind: FaultKind) -> Self {
        self.rules.push(FaultRule {
            site: site.to_string(),
            kind,
            keys: None,
        });
        self
    }

    /// Fires `kind` at `site` for exactly the listed keys.
    pub fn fail_keys(mut self, site: &str, kind: FaultKind, keys: &[u64]) -> Self {
        self.rules.push(FaultRule {
            site: site.to_string(),
            kind,
            keys: Some(keys.iter().copied().collect()),
        });
        self
    }

    /// Fires `kind` at `site` for a seeded random subset of `count` keys
    /// drawn (without replacement) from `domain`. The subset is a pure
    /// function of `seed`, so property tests replay exactly.
    pub fn fail_seeded(
        self,
        site: &str,
        kind: FaultKind,
        seed: u64,
        domain: &[u64],
        count: usize,
    ) -> Self {
        let mut rng = rfkit_num::rng::Rng64::new(seed);
        let want = count.min(domain.len());
        let mut picked = std::collections::BTreeSet::new();
        while picked.len() < want {
            picked.insert(domain[rng.index(domain.len())]);
        }
        let keys: Vec<u64> = picked.into_iter().collect();
        self.fail_keys(site, kind, &keys)
    }

    /// The fault (if any) this plan forces at `(site, key)`. First
    /// matching rule wins.
    // Without `rfkit-faults` the armed runtime is compiled out and only
    // unit tests call this; the plan type itself stays available so test
    // code can build plans unconditionally.
    #[cfg_attr(not(feature = "rfkit-faults"), allow(dead_code))]
    fn lookup(&self, site: &str, key: u64) -> Option<FaultKind> {
        self.rules
            .iter()
            .find(|r| r.site == site && r.keys.as_ref().is_none_or(|k| k.contains(&key)))
            .map(|r| r.kind)
    }
}

/// Queries the armed fault plan at a call site. This is the hook the
/// solvers call; with `rfkit-faults` disabled it is a constant `None`
/// and disappears from codegen.
#[cfg(not(feature = "rfkit-faults"))]
#[inline(always)]
pub fn inject(_site: &str, _key: u64) -> Option<FaultKind> {
    None
}

/// Queries the armed fault plan at a call site, recording a firing.
#[cfg(feature = "rfkit-faults")]
pub fn inject(site: &str, key: u64) -> Option<FaultKind> {
    armed::inject(site, key)
}

#[cfg(feature = "rfkit-faults")]
pub use armed::{arm, disarm, fired, scoped, ScopedFaults};

#[cfg(feature = "rfkit-faults")]
mod armed {
    use super::{FaultKind, FaultPlan};
    use std::collections::BTreeMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Mutex, MutexGuard, PoisonError};

    static OBS_FAULTS_INJECTED: rfkit_obs::Counter = rfkit_obs::Counter::new("faults.injected");

    /// Fast gate: hooks bail before taking any lock when nothing is armed.
    static ARMED: AtomicBool = AtomicBool::new(false);
    /// The active plan.
    static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
    /// Firing counts per site, for tests asserting hooks actually ran.
    static FIRED: Mutex<BTreeMap<String, u64>> = Mutex::new(BTreeMap::new());
    /// Serializes fault-using tests: process-global state must not be
    /// armed by two tests at once.
    static SCOPE: Mutex<()> = Mutex::new(());

    /// Arms `plan` process-wide. Prefer [`scoped`] in tests.
    pub fn arm(plan: FaultPlan) {
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = Some(plan);
        FIRED.lock().unwrap_or_else(PoisonError::into_inner).clear();
        ARMED.store(true, Ordering::SeqCst);
    }

    /// Disarms fault injection and clears firing counts.
    pub fn disarm() {
        ARMED.store(false, Ordering::SeqCst);
        *PLAN.lock().unwrap_or_else(PoisonError::into_inner) = None;
        FIRED.lock().unwrap_or_else(PoisonError::into_inner).clear();
    }

    /// Times the armed plan fired at `site` since arming.
    pub fn fired(site: &str) -> u64 {
        FIRED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(site)
            .copied()
            .unwrap_or(0)
    }

    /// RAII guard from [`scoped`]: disarms on drop and holds the global
    /// test lock so concurrent fault tests serialize instead of
    /// trampling each other's plans.
    pub struct ScopedFaults {
        _lock: MutexGuard<'static, ()>,
    }

    impl Drop for ScopedFaults {
        fn drop(&mut self) {
            disarm();
        }
    }

    /// Arms `plan` for the lifetime of the returned guard.
    pub fn scoped(plan: FaultPlan) -> ScopedFaults {
        let lock = SCOPE.lock().unwrap_or_else(PoisonError::into_inner);
        arm(plan);
        ScopedFaults { _lock: lock }
    }

    pub(super) fn inject(site: &str, key: u64) -> Option<FaultKind> {
        if !ARMED.load(Ordering::Relaxed) {
            return None;
        }
        let kind = PLAN
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .as_ref()
            .and_then(|p| p.lookup(site, key))?;
        *FIRED
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entry(site.to_string())
            .or_insert(0) += 1;
        OBS_FAULTS_INJECTED.add(1);
        Some(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_lookup_matches_sites_and_keys() {
        let plan = FaultPlan::new()
            .fail_all("a", FaultKind::SingularLu)
            .fail_keys("b", FaultKind::NanResidual, &[3, 5]);
        assert_eq!(plan.lookup("a", 0), Some(FaultKind::SingularLu));
        assert_eq!(plan.lookup("a", 99), Some(FaultKind::SingularLu));
        assert_eq!(plan.lookup("b", 3), Some(FaultKind::NanResidual));
        assert_eq!(plan.lookup("b", 4), None);
        assert_eq!(plan.lookup("c", 3), None);
    }

    #[test]
    fn seeded_subsets_replay_exactly() {
        let domain: Vec<u64> = (0..100).collect();
        let a = FaultPlan::new().fail_seeded("s", FaultKind::PointFailure, 7, &domain, 5);
        let b = FaultPlan::new().fail_seeded("s", FaultKind::PointFailure, 7, &domain, 5);
        assert_eq!(a, b, "same seed, same subset");
        let c = FaultPlan::new().fail_seeded("s", FaultKind::PointFailure, 8, &domain, 5);
        assert_ne!(a, c, "different seed, different subset");
        // Exactly 5 distinct keys fire.
        let fired: Vec<u64> = domain
            .iter()
            .filter(|&&k| a.lookup("s", k).is_some())
            .copied()
            .collect();
        assert_eq!(fired.len(), 5);
    }

    #[test]
    fn seeded_count_clamps_to_domain() {
        let domain = [1u64, 2, 3];
        let p = FaultPlan::new().fail_seeded("s", FaultKind::Stagnate, 1, &domain, 10);
        let fired = domain
            .iter()
            .filter(|&&k| p.lookup("s", k).is_some())
            .count();
        assert_eq!(fired, 3);
    }

    #[cfg(not(feature = "rfkit-faults"))]
    #[test]
    fn inject_is_inert_without_the_feature() {
        assert_eq!(inject("anything", 0), None);
    }

    #[cfg(feature = "rfkit-faults")]
    #[test]
    fn armed_plan_fires_and_scoped_guard_disarms() {
        {
            let _g = scoped(FaultPlan::new().fail_keys("x", FaultKind::SingularLu, &[7]));
            assert_eq!(inject("x", 7), Some(FaultKind::SingularLu));
            assert_eq!(inject("x", 8), None);
            assert_eq!(inject("y", 7), None);
            assert_eq!(fired("x"), 1);
            assert_eq!(fired("y"), 0);
        }
        // Guard dropped: everything is inert again.
        assert_eq!(inject("x", 7), None);
        assert_eq!(fired("x"), 0);
    }
}
