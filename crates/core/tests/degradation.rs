//! Graceful-degradation blitz: injected point faults must isolate — a
//! band sweep with k bad points returns a flagged partial with exactly k
//! diagnostics, the memo cache never stores a degraded result, and the
//! yield Monte-Carlo excludes killed units without corrupting the
//! grading. Every armed section runs under `faults::scoped`, which
//! serializes fault tests and disarms on drop, so the post-guard
//! assertions are genuine recovery checks. Each test also holds
//! [`SERIAL`] for its whole body: the unguarded baseline and recovery
//! calls must not run while another test's plan is armed.
//!
//! Compiled only with `--features rfkit-faults`.
#![cfg(feature = "rfkit-faults")]

use lna::{
    yield_analysis, yield_analysis_robust, Amplifier, BandMetrics, BandOutcome, BandSpec,
    DegradePolicy, DesignCache, DesignVariables, YieldSpec,
};
use rfkit_device::Phemt;
use rfkit_robust::faults::{self, FaultKind, FaultPlan};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nominal() -> DesignVariables {
    DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    }
}

/// Kills the band-point site at `indices` of the combined (in-band then
/// stability) grid — the keys the evaluation uses.
fn band_fault(indices: &[usize]) -> FaultPlan {
    let keys: Vec<u64> = indices.iter().map(|&i| i as u64).collect();
    FaultPlan::new().fail_keys("band.point", FaultKind::PointFailure, &keys)
}

#[test]
fn k_injected_points_degrade_with_exactly_k_diagnostics_at_any_thread_count() {
    let _serial = serial();
    // Thread-count flipping lives in this one test because RFKIT_THREADS
    // is process state; the scoped guard already serializes armed runs.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let policy = DegradePolicy::lenient(0.5);
    let bad = [1usize, 9]; // one in-band point, one stability point
    let run = || {
        let _g = faults::scoped(band_fault(&bad));
        BandMetrics::evaluate_robust(&amp, &band, &policy)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let out_1 = run();
    std::env::set_var("RFKIT_THREADS", "4");
    let out_4 = run();
    std::env::remove_var("RFKIT_THREADS");

    assert_eq!(
        out_1, out_4,
        "degraded outcome differs across thread counts"
    );
    let BandOutcome::Degraded {
        metrics,
        diagnostics,
    } = out_1
    else {
        panic!("expected Degraded, got {out_1:?}");
    };
    assert_eq!(diagnostics.len(), bad.len(), "exactly k diagnostics");
    for (d, &i) in diagnostics.iter().zip(&bad) {
        assert_eq!(d.index, i);
        assert_eq!(d.at, band.combined_grid()[i]);
    }
    // The partial reduces over the surviving points: dropping a worst-case
    // candidate can only flatter the metrics, never invent a worse case.
    let full = BandMetrics::evaluate(&amp, &band).expect("healthy design");
    assert!(metrics.worst_nf_db <= full.worst_nf_db);
    assert!(metrics.min_gain_db >= full.min_gain_db);
    assert!(metrics.min_mu >= full.min_mu);
    // Recovery: with the guard dropped the sweep completes bit-identically.
    assert_eq!(
        BandMetrics::evaluate_robust(&amp, &band, &policy),
        BandOutcome::Complete(full)
    );
}

#[test]
fn wide_band_degraded_sweep_is_bit_identical_at_1_and_4_threads() {
    let _serial = serial();
    // The GNSS band's combined grid (15 points) sits under the pool's
    // serial threshold of 16, so the test above never leaves the caller
    // thread. 41 in-band points plus the 8 stability points do fan out.
    let device = Phemt::atf54143_like();
    let band = BandSpec::new(1.1e9, 1.7e9, 41);
    assert!(band.combined_grid().len() > 16, "sweep must fan out");
    let amp = Amplifier::new(&device, nominal());
    let policy = DegradePolicy::lenient(0.5);
    // Points in different worker chunks: both band edges, one mid-band,
    // and two stability points.
    let bad = [0usize, 17, 40, 43, 48];
    let run = || {
        let _g = faults::scoped(band_fault(&bad));
        BandMetrics::evaluate_robust(&amp, &band, &policy)
    };
    let bits = |m: &BandMetrics| {
        [
            m.worst_nf_db,
            m.min_gain_db,
            m.worst_s11_db,
            m.worst_s22_db,
            m.min_mu,
            m.min_k,
        ]
        .map(f64::to_bits)
    };

    std::env::set_var("RFKIT_THREADS", "1");
    let out_1 = run();
    std::env::set_var("RFKIT_THREADS", "4");
    let out_4 = run();
    std::env::remove_var("RFKIT_THREADS");

    let (
        BandOutcome::Degraded {
            metrics: m_1,
            diagnostics: d_1,
        },
        BandOutcome::Degraded {
            metrics: m_4,
            diagnostics: d_4,
        },
    ) = (&out_1, &out_4)
    else {
        panic!("expected Degraded at both thread counts, got {out_1:?} and {out_4:?}");
    };
    assert_eq!(d_1, d_4, "diagnostics differ across thread counts");
    let indices: Vec<usize> = d_1.iter().map(|d| d.index).collect();
    assert_eq!(indices, bad, "exactly the injected points, in grid order");
    assert_eq!(
        bits(m_1),
        bits(m_4),
        "metric bits differ across thread counts"
    );
    assert_eq!(out_1, out_4);
}

#[test]
fn shared_frequency_faults_only_the_injected_grid_point() {
    let _serial = serial();
    // 1.4 GHz sits at in-band index 3 of the GNSS grid and again in the
    // stability grid (combined index 10). Faults key on grid identity, so
    // killing index 3 fails that point alone.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let combined = band.combined_grid();
    assert_eq!(combined[3], 1.4e9);
    assert_eq!(combined[10], 1.4e9);
    let _g = faults::scoped(band_fault(&[3]));
    let outcome = BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::lenient(0.5));
    let diagnostics = outcome.diagnostics();
    assert_eq!(diagnostics.len(), 1, "one key, one point: {diagnostics:?}");
    assert_eq!(diagnostics[0].index, 3);
    assert_eq!(diagnostics[0].at, 1.4e9);
}

#[test]
fn strict_policy_fails_a_partial_instead_of_degrading() {
    let _serial = serial();
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let _g = faults::scoped(band_fault(&[0]));
    // Strict: one bad point voids the sweep (Failed, not Infeasible — the
    // bias is fine, this is transient trouble, and the diagnostics say so).
    match BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::strict()) {
        BandOutcome::Failed { diagnostics } => {
            assert_eq!(diagnostics.len(), 1);
            assert_eq!(diagnostics[0].index, 0);
        }
        other => panic!("expected Failed, got {other:?}"),
    }
    // The strict Option view agrees.
    assert_eq!(BandMetrics::evaluate(&amp, &band), None);
}

#[test]
fn all_points_killed_is_failed_not_infeasible() {
    let _serial = serial();
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let amp = Amplifier::new(&device, nominal());
    let _g = faults::scoped(FaultPlan::new().fail_all("band.point", FaultKind::PointFailure));
    // Every point dies, but the operating point is reachable: this is
    // transient, so even the most lenient policy reports Failed (no
    // surviving points to reduce), never Infeasible.
    match BandMetrics::evaluate_robust(&amp, &band, &DegradePolicy::lenient(1.0)) {
        BandOutcome::Failed { diagnostics } => {
            assert_eq!(diagnostics.len(), band.combined_grid().len());
        }
        other => panic!("expected Failed, got {other:?}"),
    }
}

#[test]
fn cache_never_stores_a_transiently_faulted_result() {
    let _serial = serial();
    // The satellite regression: a transient fault during a cached
    // evaluation must leave NO entry behind — neither the degraded
    // partial nor a stale None — so the first query after the fault
    // clears computes and caches the correct value.
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let cache = DesignCache::new(16);
    let policy = DegradePolicy::lenient(0.5);
    {
        let _g = faults::scoped(band_fault(&[1, 9]));
        let first = cache.evaluate_with(&device, nominal(), &band, &policy);
        assert!(matches!(first, BandOutcome::Degraded { .. }));
        assert_eq!(cache.len(), 0, "degraded result must not be cached");
        assert_eq!(cache.uncacheable(), 1);
        // A second query under the fault recomputes (miss, not hit).
        let second = cache.evaluate_with(&device, nominal(), &band, &policy);
        assert_eq!(first, second, "faulted recomputation is deterministic");
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.uncacheable(), 2);
        // The strict Option view under the fault: Failed → None, also
        // uncached.
        assert_eq!(cache.evaluate(&device, nominal(), &band), None);
        assert_eq!(cache.len(), 0, "no stale None from a transient fault");
    }
    // Fault cleared: the correct value computes, caches, and serves hits.
    let amp = Amplifier::new(&device, nominal());
    let fresh = BandMetrics::evaluate(&amp, &band).expect("feasible");
    assert_eq!(cache.evaluate(&device, nominal(), &band), Some(fresh));
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.evaluate(&device, nominal(), &band), Some(fresh));
    assert_eq!(cache.hits(), 1, "post-recovery entry serves hits");
}

#[test]
fn yield_run_excludes_killed_units_and_flags_partials() {
    let _serial = serial();
    let device = Phemt::atf54143_like();
    let band = BandSpec::gnss();
    let spec = YieldSpec {
        max_nf_db: 2.0,
        min_gain_db: 5.0,
        max_s11_db: 0.0,
        require_stability: false,
    };
    let build = Default::default();
    let units = 12usize;
    let baseline = yield_analysis(&device, &nominal(), &spec, &band, units, &build, 3);
    assert_eq!(baseline.passing, units, "loose spec passes everything");

    let killed = [2u64, 5, 7];
    {
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "yield.unit",
            FaultKind::PointFailure,
            &killed,
        ));
        // A tolerant policy: 3/12 = 25 % failures allowed.
        let out = yield_analysis_robust(
            &device,
            &nominal(),
            &spec,
            &band,
            units,
            &build,
            3,
            &DegradePolicy::lenient(0.25),
        );
        assert_eq!(out.diagnostics.len(), killed.len());
        for (d, &u) in out.diagnostics.iter().zip(&killed) {
            assert_eq!(d.index, u as usize);
        }
        assert!(!out.degraded, "within the policy threshold");
        // Killed units vanish from the denominator and the grading:
        // everything that was graded still passes.
        assert_eq!(out.report.units, units - killed.len());
        assert_eq!(out.report.passing, units - killed.len());
        assert_eq!(out.report.yield_fraction(), 1.0);
        assert_eq!(
            out.report.failures, [0; 5],
            "killed units are not dead boards"
        );
        // A stricter policy flags the same run as degraded.
        let strict = yield_analysis_robust(
            &device,
            &nominal(),
            &spec,
            &band,
            units,
            &build,
            3,
            &DegradePolicy::lenient(0.1),
        );
        assert!(strict.degraded, "3/12 failures exceed a 10 % threshold");
        assert_eq!(strict.report, out.report, "grading is policy-independent");
    }
    // Recovery: the legacy entry point returns the bit-identical baseline.
    assert_eq!(
        yield_analysis(&device, &nominal(), &spec, &band, units, &build, 3),
        baseline
    );
}
