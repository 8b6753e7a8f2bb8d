//! Large-signal DC drain-current models for pHEMTs.
//!
//! The paper's first step extracts model parameters "including comparisons
//! among several models"; this module implements the five classic FET DC
//! models the comparison needs. Each model is a stateless equation object
//! ([`DcModel`], object safe) that evaluates `I_ds(p, V_gs, V_ds)` for a
//! parameter vector `p` — the extraction machinery in `rfkit-extract`
//! optimizes `p` directly.
//!
//! Conventions: N-channel depletion-mode device, `V_ds ≥ 0` (forward
//! active), currents in amperes, voltages in volts.

use rfkit_opt::Bounds;

/// A DC drain-current equation with named, bounded parameters.
pub trait DcModel: Send + Sync {
    /// Model name for tables and reports.
    fn name(&self) -> &'static str;

    /// Parameter names, in the order `ids` expects them.
    fn param_names(&self) -> &'static [&'static str];

    /// A physically sensible default parameter vector (used to seed
    /// extraction and tests).
    fn default_params(&self) -> Vec<f64>;

    /// Box bounds for extraction.
    fn param_bounds(&self) -> Bounds;

    /// Drain current (A) at the given gate-source / drain-source voltages.
    ///
    /// # Panics
    ///
    /// Implementations panic when `params.len()` differs from
    /// `param_names().len()`.
    fn ids(&self, params: &[f64], vgs: f64, vds: f64) -> f64;
}

/// Transconductance `∂I_ds/∂V_gs` by central difference.
pub fn gm(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    let h = 1e-5;
    (model.ids(params, vgs + h, vds) - model.ids(params, vgs - h, vds)) / (2.0 * h)
}

/// Output conductance `∂I_ds/∂V_ds` by central difference.
pub fn gds(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    let h = 1e-5;
    (model.ids(params, vgs, vds + h) - model.ids(params, vgs, vds - h)) / (2.0 * h)
}

/// Second-order transconductance `∂²I_ds/∂V_gs²` (drives second-order
/// intermodulation).
pub fn gm2(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    let h = 2e-4;
    (model.ids(params, vgs + h, vds) - 2.0 * model.ids(params, vgs, vds)
        + model.ids(params, vgs - h, vds))
        / (h * h)
}

/// Third-order transconductance `∂³I_ds/∂V_gs³` (drives IM3).
pub fn gm3(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    let h = 1e-3;
    (model.ids(params, vgs + 2.0 * h, vds) - 2.0 * model.ids(params, vgs + h, vds)
        + 2.0 * model.ids(params, vgs - h, vds)
        - model.ids(params, vgs - 2.0 * h, vds))
        / (2.0 * h * h * h)
}

/// Solves `V_gs` such that `I_ds(V_gs, V_ds) = target` by bisection over
/// `[v_lo, v_hi]`. Returns `None` when the target is not bracketed
/// (current is monotone in `V_gs` for all five models) or when the model
/// returns a non-finite current at a bracket end or a midpoint.
pub fn vgs_for_current(
    model: &dyn DcModel,
    params: &[f64],
    vds: f64,
    target: f64,
    v_lo: f64,
    v_hi: f64,
) -> Option<f64> {
    let f_lo = model.ids(params, v_lo, vds) - target;
    let f_hi = model.ids(params, v_hi, vds) - target;
    if !f_lo.is_finite() || !f_hi.is_finite() || f_lo * f_hi > 0.0 {
        return None;
    }
    let (mut lo, mut hi) = (v_lo, v_hi);
    let mut f_lo = f_lo;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let f_mid = model.ids(params, mid, vds) - target;
        if !f_mid.is_finite() {
            return None;
        }
        if f_mid.abs() < 1e-12 {
            return Some(mid);
        }
        if f_lo * f_mid <= 0.0 {
            hi = mid;
        } else {
            lo = mid;
            f_lo = f_mid;
        }
    }
    Some(0.5 * (lo + hi))
}

fn check_len(params: &[f64], expect: usize, model: &str) {
    assert_eq!(
        params.len(),
        expect,
        "{model} expects {expect} parameters, got {}",
        params.len()
    );
}

/// Curtice quadratic model (1980):
/// `I_ds = β(V_gs − V_t)²·(1 + λV_ds)·tanh(αV_ds)` for `V_gs > V_t`.
///
/// Parameters: `[beta, vt, lambda, alpha]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CurticeQuadratic;

impl DcModel for CurticeQuadratic {
    fn name(&self) -> &'static str {
        "Curtice quadratic"
    }
    fn param_names(&self) -> &'static [&'static str] {
        &["beta", "vt", "lambda", "alpha"]
    }
    fn default_params(&self) -> Vec<f64> {
        vec![0.12, -0.55, 0.05, 2.5]
    }
    fn param_bounds(&self) -> Bounds {
        Bounds::new(vec![1e-3, -2.0, 0.0, 0.2], vec![2.0, 0.5, 0.5, 10.0]).expect("valid")
    }
    fn ids(&self, p: &[f64], vgs: f64, vds: f64) -> f64 {
        check_len(p, 4, self.name());
        let (beta, vt, lambda, alpha) = (p[0], p[1], p[2], p[3]);
        let vov = vgs - vt;
        if vov <= 0.0 {
            return 0.0;
        }
        beta * vov * vov * (1.0 + lambda * vds) * (alpha * vds).tanh()
    }
}

/// Curtice cubic model (1985):
/// `I_ds = (A₀ + A₁V₁ + A₂V₁² + A₃V₁³)·tanh(γV_ds)` with
/// `V₁ = V_gs·(1 + β(V_ds0 − V_ds))`, clamped at zero.
///
/// Parameters: `[a0, a1, a2, a3, gamma, beta, vds0]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CurticeCubic;

impl DcModel for CurticeCubic {
    fn name(&self) -> &'static str {
        "Curtice cubic"
    }
    fn param_names(&self) -> &'static [&'static str] {
        &["a0", "a1", "a2", "a3", "gamma", "beta", "vds0"]
    }
    fn default_params(&self) -> Vec<f64> {
        vec![0.045, 0.16, 0.12, -0.04, 2.0, 0.02, 2.0]
    }
    fn param_bounds(&self) -> Bounds {
        Bounds::new(
            vec![-0.2, 0.0, -1.0, -1.0, 0.2, -0.2, 0.5],
            vec![0.5, 1.5, 1.5, 1.0, 10.0, 0.2, 5.0],
        )
        .expect("valid")
    }
    fn ids(&self, p: &[f64], vgs: f64, vds: f64) -> f64 {
        check_len(p, 7, self.name());
        let (a0, a1, a2, a3, gamma, beta, vds0) = (p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
        let mut v1 = vgs * (1.0 + beta * (vds0 - vds));
        // The fitted cubic is only physical on its monotone-increasing
        // interval; clamp V1 to the stationary points so the current
        // saturates below pinch-off and above forward drive instead of
        // turning over (Curtice–Ettenberg restrict the fit range the same
        // way).
        if a3 < 0.0 {
            let disc = a2 * a2 - 3.0 * a3 * a1;
            if disc >= 0.0 {
                let root = disc.sqrt();
                // poly' = a1 + 2a2 v + 3a3 v²; with a3 < 0 it is positive
                // between the two stationary points.
                let r1 = (-a2 + root) / (3.0 * a3);
                let r2 = (-a2 - root) / (3.0 * a3);
                let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
                v1 = v1.clamp(lo, hi);
            }
        }
        let poly = a0 + a1 * v1 + a2 * v1 * v1 + a3 * v1 * v1 * v1;
        (poly.max(0.0)) * (gamma * vds).tanh()
    }
}

/// Statz (Raytheon) model (1987):
/// `I_ds = β(V_gs − V_t)²/(1 + b(V_gs − V_t))·(1 + λV_ds)·K(V_ds)` with the
/// polynomial knee `K = 1 − (1 − αV_ds/3)³` for `V_ds < 3/α`, else 1.
///
/// Parameters: `[beta, vt, b, lambda, alpha]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Statz;

impl DcModel for Statz {
    fn name(&self) -> &'static str {
        "Statz"
    }
    fn param_names(&self) -> &'static [&'static str] {
        &["beta", "vt", "b", "lambda", "alpha"]
    }
    fn default_params(&self) -> Vec<f64> {
        vec![0.15, -0.55, 0.9, 0.05, 2.5]
    }
    fn param_bounds(&self) -> Bounds {
        Bounds::new(
            vec![1e-3, -2.0, 0.0, 0.0, 0.2],
            vec![2.0, 0.5, 10.0, 0.5, 10.0],
        )
        .expect("valid")
    }
    fn ids(&self, p: &[f64], vgs: f64, vds: f64) -> f64 {
        check_len(p, 5, self.name());
        let (beta, vt, b, lambda, alpha) = (p[0], p[1], p[2], p[3], p[4]);
        let vov = vgs - vt;
        if vov <= 0.0 {
            return 0.0;
        }
        let knee = if vds < 3.0 / alpha {
            let t = 1.0 - alpha * vds / 3.0;
            1.0 - t * t * t
        } else {
            1.0
        };
        beta * vov * vov / (1.0 + b * vov) * (1.0 + lambda * vds) * knee
    }
}

/// TriQuint TOM model (1990):
/// `I_ds = I₀/(1 + δ·V_ds·I₀)` with
/// `I₀ = β(V_gs − V_t + γV_ds)^Q·tanh(αV_ds)`.
///
/// Parameters: `[beta, vt, gamma, q, alpha, delta]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Tom;

impl DcModel for Tom {
    fn name(&self) -> &'static str {
        "TOM"
    }
    fn param_names(&self) -> &'static [&'static str] {
        &["beta", "vt", "gamma", "q", "alpha", "delta"]
    }
    fn default_params(&self) -> Vec<f64> {
        vec![0.12, -0.6, 0.02, 2.0, 2.5, 0.2]
    }
    fn param_bounds(&self) -> Bounds {
        Bounds::new(
            vec![1e-3, -2.0, -0.2, 1.0, 0.2, 0.0],
            vec![2.0, 0.5, 0.2, 3.5, 10.0, 5.0],
        )
        .expect("valid")
    }
    fn ids(&self, p: &[f64], vgs: f64, vds: f64) -> f64 {
        check_len(p, 6, self.name());
        let (beta, vt, gamma, q, alpha, delta) = (p[0], p[1], p[2], p[3], p[4], p[5]);
        let vov = vgs - vt + gamma * vds;
        if vov <= 0.0 {
            return 0.0;
        }
        let i0 = beta * vov.powf(q) * (alpha * vds).tanh();
        i0 / (1.0 + delta * vds * i0)
    }
}

/// Angelov (Chalmers) model (1992):
/// `I_ds = I_pk·(1 + tanh(ψ))·(1 + λV_ds)·tanh(αV_ds)` with
/// `ψ = P₁(V_gs − V_pk) + P₂(V_gs − V_pk)² + P₃(V_gs − V_pk)³`.
///
/// The hyperbolic-tangent gm bell makes this the preferred pHEMT model —
/// and the golden reference device in this reproduction is an Angelov
/// instance.
///
/// Parameters: `[ipk, vpk, p1, p2, p3, lambda, alpha]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Angelov;

impl DcModel for Angelov {
    fn name(&self) -> &'static str {
        "Angelov"
    }
    fn param_names(&self) -> &'static [&'static str] {
        &["ipk", "vpk", "p1", "p2", "p3", "lambda", "alpha"]
    }
    fn default_params(&self) -> Vec<f64> {
        vec![0.10, -0.18, 2.2, 0.25, -0.15, 0.04, 3.0]
    }
    fn param_bounds(&self) -> Bounds {
        Bounds::new(
            vec![5e-3, -1.5, 0.3, -3.0, -5.0, 0.0, 0.2],
            vec![1.0, 0.8, 8.0, 3.0, 5.0, 0.5, 10.0],
        )
        .expect("valid")
    }
    fn ids(&self, p: &[f64], vgs: f64, vds: f64) -> f64 {
        check_len(p, 7, self.name());
        let (ipk, vpk, p1, p2, p3, lambda, alpha) = (p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
        let mut dv = vgs - vpk;
        // Like the Curtice cubic, the cubic ψ is only physical on its
        // monotone-increasing interval: clamp ΔV at the stationary points
        // so a compressive P3 cannot resurrect current below pinch-off.
        if p3 < 0.0 {
            let disc = p2 * p2 - 3.0 * p3 * p1;
            if disc >= 0.0 {
                let root = disc.sqrt();
                let r1 = (-p2 + root) / (3.0 * p3);
                let r2 = (-p2 - root) / (3.0 * p3);
                let (lo, hi) = if r1 <= r2 { (r1, r2) } else { (r2, r1) };
                dv = dv.clamp(lo, hi);
            }
        }
        let psi = p1 * dv + p2 * dv * dv + p3 * dv * dv * dv;
        ipk * (1.0 + psi.tanh()) * (1.0 + lambda * vds) * (alpha * vds).tanh()
    }
}

/// All five models as trait objects, for comparison sweeps.
pub fn all_models() -> Vec<Box<dyn DcModel>> {
    vec![
        Box::new(CurticeQuadratic),
        Box::new(CurticeCubic),
        Box::new(Statz),
        Box::new(Tom),
        Box::new(Angelov),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn models() -> Vec<Box<dyn DcModel>> {
        all_models()
    }

    #[test]
    fn zero_vds_gives_zero_current() {
        for m in models() {
            let p = m.default_params();
            let i = m.ids(&p, 0.0, 0.0);
            assert!(i.abs() < 1e-12, "{}: Ids(Vds=0) = {i}", m.name());
        }
    }

    #[test]
    fn deep_pinchoff_gives_zero_or_tiny_current() {
        for m in models() {
            let p = m.default_params();
            let i = m.ids(&p, -3.0, 2.0);
            let i_on = m.ids(&p, 0.3, 2.0);
            assert!(
                i < 0.02 * i_on,
                "{}: pinch-off current {i} vs on-current {i_on}",
                m.name()
            );
        }
    }

    #[test]
    fn current_increases_with_vgs() {
        for m in models() {
            let p = m.default_params();
            let mut last = -1.0;
            for k in 0..10 {
                let vgs = -0.8 + 0.12 * k as f64;
                let i = m.ids(&p, vgs, 2.0);
                assert!(
                    i >= last - 1e-9,
                    "{}: Ids not monotone at Vgs = {vgs}",
                    m.name()
                );
                last = i;
            }
        }
    }

    #[test]
    fn current_saturates_with_vds() {
        for m in models() {
            let p = m.default_params();
            let i1 = m.ids(&p, 0.2, 1.5);
            let i2 = m.ids(&p, 0.2, 3.0);
            // Saturation: doubling Vds changes Ids by < 40 %.
            assert!(
                (i2 - i1).abs() / i1 < 0.4,
                "{}: not saturated, {i1} → {i2}",
                m.name()
            );
            // Triode: far below the knee the current is much smaller.
            let i_lin = m.ids(&p, 0.2, 0.1);
            assert!(i_lin < 0.6 * i1, "{}: no knee, {i_lin} vs {i1}", m.name());
        }
    }

    #[test]
    fn gm_positive_in_active_region() {
        for m in models() {
            let p = m.default_params();
            let g = gm(m.as_ref(), &p, 0.0, 2.0);
            assert!(g > 1e-3, "{}: gm = {g}", m.name());
        }
    }

    #[test]
    fn gds_positive_and_small_in_saturation() {
        for m in models() {
            let p = m.default_params();
            let g = gds(m.as_ref(), &p, 0.0, 2.0);
            let gm_v = gm(m.as_ref(), &p, 0.0, 2.0);
            assert!(g >= 0.0, "{}: gds = {g}", m.name());
            assert!(
                g < gm_v,
                "{}: gds {g} should be well below gm {gm_v}",
                m.name()
            );
        }
    }

    #[test]
    fn angelov_gm_peaks_at_vpk() {
        let m = Angelov;
        let p = m.default_params();
        let vpk = p[1];
        let g_peak = gm(&m, &p, vpk, 2.0);
        // With the cubic ψ the exact peak shifts slightly; sample around it.
        for dv in [-0.3, 0.3] {
            let g = gm(&m, &p, vpk + dv, 2.0);
            assert!(g < g_peak * 1.05, "gm({dv:+}) = {g} vs peak {g_peak}");
        }
    }

    #[test]
    fn angelov_realistic_bias_point() {
        // The golden parameter set should put ~40-80 mA at Vgs=0.55 V... we
        // use Vgs near Vpk: Ids(Vpk) = Ipk·(1+λVds)·tanh(αVds) ≈ Ipk.
        let m = Angelov;
        let p = m.default_params();
        let i = m.ids(&p, p[1], 3.0);
        assert!((i - 0.10).abs() < 0.03, "Ids(Vpk) = {i}");
    }

    #[test]
    fn gm3_changes_sign_through_the_bell() {
        // Third derivative of the Angelov tanh characteristic is positive
        // well below Vpk and negative near/above it — the classic IM3
        // sweet-spot structure.
        let m = Angelov;
        let p = m.default_params();
        let low = gm3(&m, &p, p[1] - 0.5, 2.0);
        let high = gm3(&m, &p, p[1], 2.0);
        assert!(low > 0.0, "gm3 below pinch = {low}");
        assert!(high < 0.0, "gm3 at peak = {high}");
    }

    #[test]
    fn vgs_for_current_inverts_ids() {
        for m in models() {
            let p = m.default_params();
            let target = 0.5 * m.ids(&p, 0.3, 2.0);
            let vgs = vgs_for_current(m.as_ref(), &p, 2.0, target, -2.0, 0.8).expect("bracketed");
            let i = m.ids(&p, vgs, 2.0);
            assert!(
                (i - target).abs() / target < 1e-6,
                "{}: {i} vs {target}",
                m.name()
            );
        }
    }

    #[test]
    fn vgs_for_current_unbracketed_returns_none() {
        let m = Angelov;
        let p = m.default_params();
        assert!(vgs_for_current(&m, &p, 2.0, 10.0, -2.0, 0.8).is_none());
    }

    /// Linear `I_ds = V_gs` except NaN inside `[nan_lo, nan_hi]`.
    struct NanWindow {
        nan_lo: f64,
        nan_hi: f64,
    }

    impl DcModel for NanWindow {
        fn name(&self) -> &'static str {
            "NaN window stub"
        }
        fn param_names(&self) -> &'static [&'static str] {
            &["unused"]
        }
        fn default_params(&self) -> Vec<f64> {
            vec![0.0]
        }
        fn param_bounds(&self) -> Bounds {
            Bounds::uniform(1, 0.0, 1.0)
        }
        fn ids(&self, _params: &[f64], vgs: f64, _vds: f64) -> f64 {
            if (self.nan_lo..=self.nan_hi).contains(&vgs) {
                f64::NAN
            } else {
                vgs
            }
        }
    }

    #[test]
    fn vgs_for_current_rejects_non_finite_currents() {
        // NaN at the lower bracket end: `NaN * f_hi > 0.0` is false, so a
        // sign test alone would go on to bisect garbage.
        let m = NanWindow {
            nan_lo: -1.0,
            nan_hi: -1.0,
        };
        assert_eq!(vgs_for_current(&m, &[0.0], 2.0, 0.25, -1.0, 1.0), None);
        // NaN at the upper bracket end.
        assert_eq!(vgs_for_current(&m, &[0.0], 2.0, -0.5, -2.0, -1.0), None);
        // Finite ends, NaN only at the first midpoint (0.0).
        let m = NanWindow {
            nan_lo: -0.1,
            nan_hi: 0.1,
        };
        assert_eq!(vgs_for_current(&m, &[0.0], 2.0, 0.25, -1.0, 1.0), None);
        // Away from the NaN window the stub still solves normally.
        let v = vgs_for_current(&m, &[0.0], 2.0, 0.5, 0.2, 1.0).expect("bracketed");
        assert!((v - 0.5).abs() < 1e-9, "{v}");
    }

    #[test]
    fn default_params_inside_bounds() {
        for m in models() {
            let b = m.param_bounds();
            assert!(
                b.contains(&m.default_params()),
                "{}: defaults outside bounds",
                m.name()
            );
            assert_eq!(b.dim(), m.param_names().len(), "{}", m.name());
        }
    }

    #[test]
    #[should_panic(expected = "parameters")]
    fn wrong_param_count_panics() {
        Angelov.ids(&[0.1, 0.2], 0.0, 1.0);
    }
}
