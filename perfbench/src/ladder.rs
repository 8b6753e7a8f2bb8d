//! The layer ladder: per-call cost of each layer under the design flow,
//! at one thread, through public calls over seeded candidates drawn
//! uniformly from `DesignVariables::bounds()`. Each figure is the median
//! over repeated batches of the per-call time within a batch.
//!
//! The ladder also runs one design at one thread and at `cores` threads:
//! the ratio is `par.design_speedup`, and the two designs must agree bit
//! for bit.

use std::hint::black_box;
use std::time::Instant;

use lna::band::GPS_L1_HZ;
use lna::{
    cached_sweep, reference_netlist, yield_analysis, Amplifier, BandMetrics, BandSpec, BuildConfig,
    DesignCache, DesignVariables, YieldSpec,
};
use rfkit_circuit::AcWorkspace;
use rfkit_device::Phemt;
use rfkit_num::rng::Rng64;
use rfkit_num::stats::median;

use crate::flows::{design_bits, timed_design};

/// Ladder results.
pub struct Ladder {
    /// `(metric name, per-call µs)`, bottom layer first.
    pub per_call_us: Vec<(&'static str, f64)>,
    /// One-thread over `cores`-thread wall time of the same design.
    pub design_speedup: f64,
    /// The two designs behind `design_speedup` agree bit for bit.
    pub threads_identical: bool,
}

/// Candidate draws per ladder.
const CANDIDATES: usize = 256;
/// Timed batches per rung.
const REPS: usize = 15;

/// Median over [`REPS`] batches of the per-call µs of `batch`, which
/// makes `calls` calls. One untimed batch first warms caches and plans.
fn per_call_us(calls: usize, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_secs_f64() * 1e6 / calls as f64
        })
        .collect();
    median(&samples)
}

fn candidates(seed: u64) -> Vec<DesignVariables> {
    let bounds = DesignVariables::bounds();
    let mut rng = Rng64::new(seed);
    (0..CANDIDATES)
        .map(|_| {
            let x: Vec<f64> = bounds
                .lo()
                .iter()
                .zip(bounds.hi())
                .map(|(&lo, &hi)| rng.uniform(lo, hi))
                .collect();
            DesignVariables::from_vec(&x)
        })
        .collect()
}

/// Runs the ladder. `cores` is the thread count the rest of the
/// benchmark runs at; `design_seed` picks the design behind the speedup.
pub fn run(device: &Phemt, seed: u64, cores: usize, design_seed: u64) -> Ladder {
    std::env::set_var("RFKIT_THREADS", "1");
    let band = BandSpec::gnss();
    let all = candidates(seed);
    let biased: Vec<DesignVariables> = all
        .iter()
        .copied()
        .filter(|v| device.bias_for_current(v.vds, v.ids).is_some())
        .collect();
    let feasible: Vec<DesignVariables> = biased
        .iter()
        .copied()
        .filter(|v| BandMetrics::evaluate(&Amplifier::new(device, *v), &band).is_some())
        .take(48)
        .collect();
    assert!(
        !feasible.is_empty(),
        "no feasible ladder candidate for seed {seed}"
    );

    let bias = per_call_us(all.len(), || {
        for v in &all {
            black_box(device.bias_for_current(v.vds, v.ids));
        }
    });
    let point = per_call_us(biased.len(), || {
        for v in &biased {
            black_box(Amplifier::new(device, *v).metrics(GPS_L1_HZ));
        }
    });
    let band_eval = per_call_us(feasible.len(), || {
        for v in &feasible {
            black_box(BandMetrics::evaluate(&Amplifier::new(device, *v), &band));
        }
    });
    let cache = DesignCache::with_default_capacity();
    const HIT_LOOPS: usize = 20;
    let cache_hit = per_call_us(HIT_LOOPS * feasible.len(), || {
        for _ in 0..HIT_LOOPS {
            for v in &feasible {
                black_box(cache.evaluate(device, *v, &band));
            }
        }
    });
    let netlists: Vec<_> = feasible.iter().map(reference_netlist).collect();
    let mut ws = AcWorkspace::new();
    let verify = per_call_us(netlists.len(), || {
        for c in &netlists {
            black_box(cached_sweep(c, band.grid(), &mut ws).ok());
        }
    });
    const YIELD_DESIGNS: usize = 4;
    const UNITS: usize = 16;
    let yield_unit = per_call_us(YIELD_DESIGNS * UNITS, || {
        for (i, v) in feasible.iter().take(YIELD_DESIGNS).enumerate() {
            black_box(yield_analysis(
                device,
                v,
                &YieldSpec::default(),
                &band,
                UNITS,
                &BuildConfig::default(),
                i as u64,
            ));
        }
    });

    let (t1, serial) = timed_design(device, design_seed);
    std::env::set_var("RFKIT_THREADS", cores.to_string());
    let (tn, parallel) = timed_design(device, design_seed);

    Ladder {
        per_call_us: vec![
            ("ladder.bias_solve_us", bias),
            ("ladder.point_eval_us", point),
            ("ladder.band_eval_us", band_eval),
            ("ladder.cache_hit_us", cache_hit),
            ("ladder.verify_sweep_us", verify),
            ("ladder.yield_unit_us", yield_unit),
        ],
        design_speedup: t1 / tn,
        threads_identical: design_bits(&serial) == design_bits(&parallel),
    }
}
