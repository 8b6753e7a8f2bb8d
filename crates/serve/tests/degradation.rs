//! Degradation through the wire: with `rfkit-faults` armed at the
//! `band.point` site, a served sweep must come back `degraded` with
//! grid-ordered per-point diagnostics — and the flagged partial must be
//! excluded from the shared design cache, so a later request outside the
//! fault window gets clean metrics instead of a poisoned memo.
//!
//! Each test holds [`SERIAL`] for its whole body: fault keys are grid
//! indices, which every band shares, so one test's armed plan would fail
//! the other's requests outside its own fault window.
//!
//! Compiled only with `--features rfkit-faults`.
#![cfg(feature = "rfkit-faults")]

use lna::{snap_to_catalog, BandSpec, DesignVariables};
use rfkit_robust::faults::{self, FaultKind, FaultPlan};
use rfkit_serve::{client, Client, ServeConfig, Server};
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn nominal() -> DesignVariables {
    snap_to_catalog(DesignVariables {
        vds: 3.0,
        ids: 0.050,
        l1: 6.8e-9,
        ls_deg: 0.4e-9,
        l2: 10e-9,
        c2: 2.2e-12,
        r_bias: 30.0,
    })
}

#[test]
fn served_sweep_degrades_with_grid_ordered_diagnostics_and_no_cache_poison() {
    let _serial = serial();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 16,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let mut c = Client::connect(server.local_addr()).unwrap();

    // Kill two in-band points of the requested band by their combined-grid
    // index — the same grid-identity keys the evaluation uses. Index 4 is
    // exactly 1.4 GHz, which the out-of-band stability grid repeats; only
    // the in-band point may fail.
    let band = (1.15e9, 1.65e9, 9usize);
    let spec = BandSpec::new(band.0, band.1, band.2);
    let bad = [2usize, 4];
    assert_eq!(spec.grid()[4], 1.4e9);
    let keys: Vec<u64> = bad.iter().map(|&i| i as u64).collect();
    let vars = nominal();

    let degraded_raw = {
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "band.point",
            FaultKind::PointFailure,
            &keys,
        ));
        // Twice under faults: the first result must NOT be memoized, so
        // the second is degraded again rather than a cache hit of a
        // partial.
        let first = c
            .call(&client::sweep_json(1, &vars, Some(band), Some(0.5)))
            .unwrap();
        let second = c
            .call(&client::sweep_json(2, &vars, Some(band), Some(0.5)))
            .unwrap();
        assert_eq!(first.status, "degraded");
        assert_eq!(second.status, "degraded");

        // Grid-ordered diagnostics: exactly the injected points, with
        // ascending indices and the band's own frequencies.
        for resp in [&first, &second] {
            assert_eq!(resp.diagnostics.len(), bad.len());
            for (diag, &idx) in resp.diagnostics.iter().zip(&bad) {
                assert_eq!(diag.index, idx);
                assert_eq!(diag.at, spec.grid()[idx]);
                assert!(!diag.detail.is_empty());
            }
        }
        // Metrics still present: a flagged partial, not an opaque 500.
        assert!(first.result.get("worst_nf_db").is_some());
        first.raw
    };

    // Outside the fault window: the same request now completes — proof
    // the degraded result was never cached. Then repeat: the clean
    // result IS memoized.
    let clean = c
        .call(&client::sweep_json(3, &vars, Some(band), Some(0.5)))
        .unwrap();
    assert_eq!(clean.status, "ok", "degraded result must not be memoized");
    assert_ne!(clean.raw, degraded_raw);
    let again = c
        .call(&client::sweep_json(4, &vars, Some(band), Some(0.5)))
        .unwrap();
    assert_eq!(again.status, "ok");

    let stats = server.shutdown();
    assert_eq!(
        stats.design_cache_uncacheable, 2,
        "both degraded evaluations refused memoization"
    );
    assert!(
        stats.design_cache_hits >= 1,
        "the clean evaluation was memoized and re-served"
    );
    assert_eq!(stats.degraded, 2);
    assert_eq!(stats.protocol_errors, 0);
}

#[test]
fn strict_policy_maps_to_failed_with_diagnostics() {
    let _serial = serial();
    let server = Server::start(ServeConfig::default()).unwrap();
    let mut c = Client::connect(server.local_addr()).unwrap();
    let band = (1.2e9, 1.6e9, 7usize);
    let spec = BandSpec::new(band.0, band.1, band.2);
    // Index 3 is exactly 1.4 GHz, which the out-of-band stability grid
    // repeats; the index key fails the in-band point alone.
    assert_eq!(spec.grid()[3], 1.4e9);
    let keys = [3];
    let vars = nominal();
    {
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "band.point",
            FaultKind::PointFailure,
            &keys,
        ));
        // Default policy is strict: one injected failure exceeds it.
        let r = c
            .call(&client::sweep_json(1, &vars, Some(band), None))
            .unwrap();
        assert_eq!(r.status, "failed");
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].index, 3);
    }
    let r = c
        .call(&client::sweep_json(2, &vars, Some(band), None))
        .unwrap();
    assert_eq!(r.status, "ok", "failed result must not be memoized either");
    server.shutdown();
}
