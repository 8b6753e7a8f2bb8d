//! The design-flow and Pareto-study workloads: one timed library call
//! each, plus the output checks that re-derive every result the call
//! returned from an uncached evaluation.

use lna::{
    design_lna, nf_gain_objectives, pareto_front_study, Amplifier, BandMetrics, BandSpec,
    DesignCache, DesignConfig, DesignGoals, DesignVariables, LnaDesign, ParetoStudy,
    ParetoStudyConfig,
};
use rfkit_device::Phemt;

use crate::clock::Stopwatch;

/// The `design_gnss_lna` example's goals: NF 0.7 dB, gain 13 dB.
pub fn design_goals() -> DesignGoals {
    DesignGoals {
        nf_db: 0.7,
        gain_db: 13.0,
        ..Default::default()
    }
}

/// The `design_gnss_lna` example's configuration at optimizer seed `seed`.
pub fn design_config(seed: u64) -> DesignConfig {
    DesignConfig {
        max_evals: 10_000,
        seed,
        ..Default::default()
    }
}

/// One timed `design_lna` call: `(seconds net of steal, design)`.
pub fn timed_design(device: &Phemt, seed: u64) -> (f64, LnaDesign) {
    let _span = rfkit_obs::span("bench.design_lna");
    let t = Stopwatch::start();
    let design = design_lna(device, &design_goals(), &design_config(seed));
    (t.seconds(), design)
}

/// Bit patterns of band metrics, so comparisons are exact (no `==`
/// leniency for signed zeros, no NaN surprises).
pub fn metric_bits(m: &BandMetrics) -> [u64; 6] {
    [
        m.worst_nf_db.to_bits(),
        m.min_gain_db.to_bits(),
        m.worst_s11_db.to_bits(),
        m.worst_s22_db.to_bits(),
        m.min_mu.to_bits(),
        m.min_k.to_bits(),
    ]
}

fn vars_bits(v: &DesignVariables) -> [u64; 7] {
    [
        v.vds.to_bits(),
        v.ids.to_bits(),
        v.l1.to_bits(),
        v.ls_deg.to_bits(),
        v.l2.to_bits(),
        v.c2.to_bits(),
        v.r_bias.to_bits(),
    ]
}

/// Every number a design run returns, as bit patterns.
pub fn design_bits(d: &LnaDesign) -> Vec<u64> {
    let mut bits = Vec::with_capacity(28);
    bits.extend(vars_bits(&d.continuous));
    bits.extend(vars_bits(&d.snapped));
    bits.extend(metric_bits(&d.continuous_metrics));
    bits.extend(metric_bits(&d.snapped_metrics));
    bits.push(d.attainment.to_bits());
    bits.push(d.evaluations as u64);
    bits
}

/// Output check of one design: the snapped design, re-evaluated without
/// the design cache, reproduces `snapped_metrics` bit for bit and is
/// unconditionally stable.
pub fn design_ok(device: &Phemt, d: &LnaDesign) -> bool {
    let amp = Amplifier::new(device, d.snapped);
    match BandMetrics::evaluate(&amp, &BandSpec::gnss()) {
        Some(m) => metric_bits(&m) == metric_bits(&d.snapped_metrics) && m.min_mu > 1.0,
        None => false,
    }
}

/// A warmed study cache: the plain NSGA-II warm-up's cache and front.
pub struct Warm {
    cache: DesignCache,
    front: Vec<Vec<f64>>,
    /// Hypervolume of the warm-up's front.
    pub hypervolume: f64,
}

/// The untimed warm-up of one study: a plain (unscreened) NSGA-II run at
/// twice the measured generations fills a fresh design cache. Its seed
/// is decorrelated from the measured study's, as in `bench_surrogate`.
pub fn warm_up(device: &Phemt, band: &BandSpec, seed: u64) -> Warm {
    let _span = rfkit_obs::span("bench.study_warmup");
    let measured = ParetoStudyConfig::default();
    let config = ParetoStudyConfig {
        generations: 2 * measured.generations,
        seed: seed ^ 0x9e37,
        surrogate: None,
        ..measured
    };
    let cache = DesignCache::with_default_capacity();
    let warm = pareto_front_study(device, band, &config, &cache);
    Warm {
        cache,
        front: warm.front.iter().map(|i| i.x.clone()).collect(),
        hypervolume: warm.hypervolume,
    }
}

/// One timed study on the library's default (screened) configuration,
/// warm-started from `warm`'s front on `warm`'s cache: `(seconds net of
/// steal, study)`.
pub fn timed_study(device: &Phemt, band: &BandSpec, seed: u64, warm: &Warm) -> (f64, ParetoStudy) {
    let config = ParetoStudyConfig {
        seed,
        initial: warm.front.clone(),
        ..Default::default()
    };
    let _span = rfkit_obs::span("bench.pareto_study");
    let t = Stopwatch::start();
    let study = pareto_front_study(device, band, &config, &warm.cache);
    (t.seconds(), study)
}

/// Output check of one study: every front point's objectives equal a
/// re-evaluation through a fresh (hence uncached) design cache, bit for
/// bit, and the front is not empty.
pub fn study_ok(device: &Phemt, band: &BandSpec, study: &ParetoStudy) -> bool {
    let fresh = DesignCache::with_default_capacity();
    let objectives = nf_gain_objectives(device, band, &fresh);
    !study.front.is_empty()
        && study.front.iter().all(|ind| {
            let again = objectives(&ind.x);
            again.len() == ind.objectives.len()
                && again
                    .iter()
                    .zip(&ind.objectives)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
}
