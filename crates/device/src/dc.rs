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

    /// The current at fixed `vds` with its `V_gs`-independent factors
    /// computed once, for models that have such a curve (Angelov). It
    /// returns the same bits as [`DcModel::ids`]; the bias solve and the
    /// gate-direction derivatives use it. `None` (the default) makes them
    /// call [`DcModel::ids`].
    fn gate_curve(&self, params: &[f64], vds: f64) -> Option<GateCurve> {
        let _ = (params, vds);
        None
    }
}

/// Transconductance `∂I_ds/∂V_gs` by central difference.
pub fn gm(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    gm_of(|v| model.ids(params, v, vds), vgs)
}

/// Output conductance `∂I_ds/∂V_ds` by central difference.
pub fn gds(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    let h = 1e-5;
    (model.ids(params, vgs, vds + h) - model.ids(params, vgs, vds - h)) / (2.0 * h)
}

/// Second-order transconductance `∂²I_ds/∂V_gs²` (drives second-order
/// intermodulation).
pub fn gm2(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    gm2_of(|v| model.ids(params, v, vds), vgs)
}

/// Third-order transconductance `∂³I_ds/∂V_gs³` (drives IM3).
pub fn gm3(model: &dyn DcModel, params: &[f64], vgs: f64, vds: f64) -> f64 {
    gm3_of(|v| model.ids(params, v, vds), vgs)
}

// The V_gs-direction stencils, over the current at one fixed V_ds: the
// model entry points above and the prepared [`GateCurve`] share them.

fn gm_of(ids: impl Fn(f64) -> f64, vgs: f64) -> f64 {
    let h = 1e-5;
    (ids(vgs + h) - ids(vgs - h)) / (2.0 * h)
}

fn gm2_of(ids: impl Fn(f64) -> f64, vgs: f64) -> f64 {
    let h = 2e-4;
    (ids(vgs + h) - 2.0 * ids(vgs) + ids(vgs - h)) / (h * h)
}

fn gm3_of(ids: impl Fn(f64) -> f64, vgs: f64) -> f64 {
    let h = 1e-3;
    (ids(vgs + 2.0 * h) - 2.0 * ids(vgs + h) + 2.0 * ids(vgs - h) - ids(vgs - 2.0 * h))
        / (2.0 * h * h * h)
}

/// `(I_ds, g_m, g_m2, g_m3)` at `vgs`: the gate-direction terms of an
/// operating point, from the model's prepared curve when it has one.
pub(crate) fn gate_terms(
    model: &dyn DcModel,
    params: &[f64],
    vgs: f64,
    vds: f64,
) -> (f64, f64, f64, f64) {
    fn terms(ids: impl Fn(f64) -> f64, vgs: f64) -> (f64, f64, f64, f64) {
        (
            ids(vgs),
            gm_of(&ids, vgs),
            gm2_of(&ids, vgs),
            gm3_of(&ids, vgs),
        )
    }
    match model.gate_curve(params, vds) {
        Some(curve) => terms(|v| curve.ids(v), vgs),
        None => terms(|v| model.ids(params, v, vds), vgs),
    }
}

/// Solves `V_gs` such that `I_ds(V_gs, V_ds) = target` by bisection over
/// `[v_lo, v_hi]`. Returns `None` when the target is not bracketed by the
/// currents at the interval ends, or when the model returns a non-finite
/// current at a bracket end or a midpoint.
///
/// Bisection finds *a* crossing, not the only one: the current need not be
/// monotone in `V_gs`. Angelov with an expansive `P3 > 0` and
/// `P2² > 3·P1·P3` has a ψ that turns over, inside its own parameter bounds.
///
/// The result is the same bits whichever way it is computed. For a model
/// with a prepared [`GateCurve`] that is provably nondecreasing, a
/// safeguarded Newton solve first certifies a bracket `[a, b]` around the
/// root, and the bisection answers its midpoints outside `[a, b]` from the
/// certificate instead of evaluating them (see [`GateCurve`]).
pub fn vgs_for_current(
    model: &dyn DcModel,
    params: &[f64],
    vds: f64,
    target: f64,
    v_lo: f64,
    v_hi: f64,
) -> Option<f64> {
    match model.gate_curve(params, vds) {
        Some(curve) => bisect(
            |v| curve.ids(v),
            target,
            v_lo,
            v_hi,
            |f_lo| curve.certificate(target, v_lo, v_hi, f_lo),
        ),
        None => bisect(|v| model.ids(params, v, vds), target, v_lo, v_hi, |_| None),
    }
}

/// Exit tolerance of the bisection on `|I_ds − target|` (A).
const BISECT_TOL: f64 = 1e-12;

/// A certified bracket: every `V_gs < a` evaluates to `I_ds − target`
/// below `−BISECT_TOL`, and every `V_gs > b` to above `+BISECT_TOL`.
/// `f_a` and `f_b` stand in for those values; the bisection reads only
/// their signs and that they miss the exit tolerance.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Certificate {
    a: f64,
    b: f64,
    f_a: f64,
    f_b: f64,
}

/// The bisection loop. `certify` sees `f(v_lo) − target` once the ends
/// bracket the target; a certificate it returns answers the midpoints
/// outside its bracket. Without one this is the plain bisection.
fn bisect(
    ids: impl Fn(f64) -> f64,
    target: f64,
    v_lo: f64,
    v_hi: f64,
    certify: impl FnOnce(f64) -> Option<Certificate>,
) -> Option<f64> {
    let f_lo = ids(v_lo) - target;
    let f_hi = ids(v_hi) - target;
    if !f_lo.is_finite() || !f_hi.is_finite() || f_lo * f_hi > 0.0 {
        return None;
    }
    let cert = certify(f_lo);
    let (mut lo, mut hi) = (v_lo, v_hi);
    let mut f_lo = f_lo;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        let f_mid = match cert {
            Some(c) if mid < c.a => c.f_a,
            Some(c) if mid > c.b => c.f_b,
            _ => ids(mid) - target,
        };
        if !f_mid.is_finite() {
            return None;
        }
        if f_mid.abs() < BISECT_TOL {
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
        GateCurve::angelov(p, vds).ids(vgs)
    }
    fn gate_curve(&self, p: &[f64], vds: f64) -> Option<GateCurve> {
        Some(GateCurve::angelov(p, vds))
    }
}

/// The Angelov current at one fixed `V_ds`, with every factor that does
/// not depend on `V_gs` computed once: `1 + λV_ds`, `tanh(αV_ds)` and the
/// clamp at the stationary points of ψ. [`Angelov::ids`] evaluates through
/// it, so there is one formula and a prepared curve returns the same bits.
///
/// # The bias-solve certificate
///
/// [`vgs_for_current`] replays the plain bisection exactly, but answers
/// the midpoints outside a certified bracket `[a, b]` without evaluating
/// them. The bracket is taken only when all of these hold, and otherwise
/// the plain loop runs:
///
/// - **Monotone.** `I_pk`, `P1`, `1 + λV_ds` and `tanh(αV_ds)` are
///   positive, and either `P3 < 0` with real stationary points (ψ is
///   clamped to the interval between them, where ψ' ≥ 0) or `P3 > 0`
///   with none (ψ' > 0 everywhere). Each case also needs a margin of
///   1e-6 relative on the quantity that decides it — `3|P3|P1` against
///   `P2²`, and the discriminant — so the rounded clamp roots cannot
///   leave the interval where ψ' ≥ 0.
/// - **Finite.** `I_pk`, `V_pk`, `P1..P3`, `1 + λV_ds`, `tanh(αV_ds)`, the
///   target and the interval ends lie within ±1e6, so no evaluation over
///   the interval overflows.
/// - **Rounding.** A bound on the rounding error of one evaluation over
///   the interval, `8ε·(I_pk(1 + λV_ds)tanh(αV_ds)·(2 + Ψ) + |target|)`
///   with `Ψ = P1·D + |P2|·D² + |P3|·D³` and `D` the largest `|V_gs − V_pk|`
///   on the interval, is at most a quarter of the bisection tolerance.
/// - **Bracket.** `f = I_ds − target` has `f(v_lo) < −2e-12`,
///   `f(a) < −2e-12` and `f(b) > +2e-12`.
///
/// Then for any midpoint `m < a` the exact curve gives `F(m) ≤ F(a)`,
/// and the evaluated `f(m) ≤ f(a) + 2·bound < −1e-12`: the bisection
/// would neither exit there nor read any sign but negative, and the
/// same holds above `b`. The loop decides on signs only, and every
/// product it forms has magnitude at least 1e-24, so the stand-in values
/// give the same decisions and the same result bits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateCurve {
    ipk: f64,
    vpk: f64,
    p1: f64,
    p2: f64,
    p3: f64,
    /// `ΔV` clamp at the stationary points of ψ (compressive `P3` only).
    clamp: Option<(f64, f64)>,
    /// `1 + λV_ds`.
    drive: f64,
    /// `tanh(αV_ds)`.
    knee: f64,
}

/// Bracket margin of the certificate on `|I_ds − target|` (A): twice the
/// bisection tolerance, so rounding can spend the difference.
const CERT_MARGIN: f64 = 2.0 * BISECT_TOL;

/// Relative margin on the quantities that decide ψ's monotonicity.
const MONOTONE_MARGIN: f64 = 1e-6;

/// Largest magnitude of any input the certificate accepts.
const CERT_RANGE: f64 = 1e6;

impl GateCurve {
    /// The prepared Angelov curve at `vds`.
    ///
    /// # Panics
    ///
    /// Panics when `p` does not hold the seven Angelov parameters.
    pub(crate) fn angelov(p: &[f64], vds: f64) -> GateCurve {
        check_len(p, 7, Angelov.name());
        let (ipk, vpk, p1, p2, p3, lambda, alpha) = (p[0], p[1], p[2], p[3], p[4], p[5], p[6]);
        // Like the Curtice cubic, the cubic ψ is only physical on its
        // monotone-increasing interval: clamp ΔV at the stationary points
        // so a compressive P3 cannot resurrect current below pinch-off.
        let mut clamp = None;
        if p3 < 0.0 {
            let disc = p2 * p2 - 3.0 * p3 * p1;
            if disc >= 0.0 {
                let root = disc.sqrt();
                let r1 = (-p2 + root) / (3.0 * p3);
                let r2 = (-p2 - root) / (3.0 * p3);
                clamp = Some(if r1 <= r2 { (r1, r2) } else { (r2, r1) });
            }
        }
        GateCurve {
            ipk,
            vpk,
            p1,
            p2,
            p3,
            clamp,
            drive: 1.0 + lambda * vds,
            knee: (alpha * vds).tanh(),
        }
    }

    /// Drain current (A) at `vgs`.
    #[inline]
    pub fn ids(&self, vgs: f64) -> f64 {
        let psi = self.psi(self.delta(vgs));
        self.ipk * (1.0 + psi.tanh()) * self.drive * self.knee
    }

    fn delta(&self, vgs: f64) -> f64 {
        let dv = vgs - self.vpk;
        match self.clamp {
            Some((lo, hi)) => dv.clamp(lo, hi),
            None => dv,
        }
    }

    fn psi(&self, dv: f64) -> f64 {
        self.p1 * dv + self.p2 * dv * dv + self.p3 * dv * dv * dv
    }

    /// Current and its analytic `V_gs` slope, for the Newton iterate only:
    /// the slope steers the search and never reaches a result.
    fn ids_and_slope(&self, vgs: f64) -> (f64, f64) {
        let dv = vgs - self.vpk;
        let t = self.psi(self.delta(vgs)).tanh();
        let dpsi = match self.clamp {
            Some((lo, hi)) if dv < lo || dv > hi => 0.0,
            _ => self.p1 + 2.0 * self.p2 * dv + 3.0 * self.p3 * dv * dv,
        };
        let scale = self.ipk * self.drive * self.knee;
        (scale * (1.0 + t), scale * (1.0 - t) * (1.0 + t) * dpsi)
    }

    /// Whether the curve and the interval pass the monotone, finite and
    /// rounding conditions of the certificate (see the type docs).
    fn certifiable(&self, target: f64, v_lo: f64, v_hi: f64) -> bool {
        let (p1, p2, p3) = (self.p1, self.p2, self.p3);
        let in_range = [
            self.ipk, self.vpk, p1, p2, p3, self.drive, self.knee, target, v_lo, v_hi,
        ]
        .iter()
        .all(|x| x.abs() <= CERT_RANGE);
        let shape = if p3 < 0.0 {
            self.clamp.is_some() && 3.0 * -p3 * p1 >= MONOTONE_MARGIN * p2 * p2
        } else if p3 > 0.0 {
            3.0 * p3 * p1 - p2 * p2 >= MONOTONE_MARGIN * (p2 * p2 + 3.0 * p3 * p1)
        } else {
            false
        };
        if !(in_range
            && shape
            && v_lo < v_hi
            && self.ipk > 0.0
            && p1 > 0.0
            && self.drive > 0.0
            && self.knee > 0.0)
        {
            return false;
        }
        let d = (v_lo - self.vpk).abs().max((v_hi - self.vpk).abs());
        let psi_scale = p1 * d + p2.abs() * d * d + p3.abs() * d * d * d;
        let scale = self.ipk * self.drive * self.knee;
        let bound = 8.0 * f64::EPSILON * (scale * (2.0 + psi_scale) + target.abs());
        bound <= 0.25 * BISECT_TOL
    }

    /// The bias solve's certified bracket for `target` on `[v_lo, v_hi]`,
    /// given `f_lo = ids(v_lo) − target`; `None` sends the solve down the
    /// plain bisection.
    pub(crate) fn certificate(
        &self,
        target: f64,
        v_lo: f64,
        v_hi: f64,
        f_lo: f64,
    ) -> Option<Certificate> {
        // `f_lo` is finite: the bisection checked it before asking.
        if f_lo >= -CERT_MARGIN || !self.certifiable(target, v_lo, v_hi) {
            return None;
        }
        let (root, slope) = self.newton(target, v_lo, v_hi);
        // A half-width that moves f by four margins at the root's slope;
        // widened if curvature or a flat curve defeats it.
        let mut half = 4.0 * CERT_MARGIN / slope;
        for _ in 0..3 {
            if half.is_nan() || half <= 0.0 {
                return None;
            }
            let (a, b) = ((root - half).max(v_lo), (root + half).min(v_hi));
            let (f_a, f_b) = (self.ids(a) - target, self.ids(b) - target);
            if f_a < -CERT_MARGIN && f_b > CERT_MARGIN {
                return Some(Certificate { a, b, f_a, f_b });
            }
            half *= 16.0;
        }
        None
    }

    /// Safeguarded Newton for `ids(v) = target` on `[lo, hi]`, where the
    /// current is below the target at `lo`: a Newton step that leaves the
    /// shrinking bracket is replaced by its midpoint. Returns the last
    /// iterate and the slope there.
    fn newton(&self, target: f64, mut lo: f64, mut hi: f64) -> (f64, f64) {
        // Start from the tanh inversion with ψ taken as linear in ΔV.
        let t = target / (self.ipk * self.drive * self.knee) - 1.0;
        let guess = self.vpk + t.atanh() / self.p1;
        let mut x = if guess > lo && guess < hi {
            guess
        } else {
            0.5 * (lo + hi)
        };
        let mut slope = 0.0;
        for _ in 0..60 {
            let (i, g) = self.ids_and_slope(x);
            slope = g;
            let f = i - target;
            if f < 0.0 {
                lo = x;
            } else {
                hi = x;
            }
            let step = f / g;
            if g > 0.0 && step.abs() <= 1e-13 {
                break;
            }
            let next = x - step;
            x = if g > 0.0 && next > lo && next < hi {
                next
            } else {
                0.5 * (lo + hi)
            };
        }
        (x, slope)
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

    use rfkit_num::rng::Rng64;

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

    /// In-bounds Angelov parameters whose ψ turns over: `P3 > 0` with
    /// `P2² > 3·P1·P3`.
    const TURNING: [f64; 7] = [0.7449, -0.4354, 0.5075, 1.0964, 0.5645, 0.2956, 2.4142];

    #[test]
    fn angelov_current_can_turn_over_inside_its_bounds() {
        let p = TURNING;
        assert!(Angelov.param_bounds().contains(&p));
        assert!(p[4] > 0.0 && p[3] * p[3] > 3.0 * p[2] * p[4]);
        let curve = GateCurve::angelov(&p, 3.0);
        let i: Vec<f64> = (0..=300)
            .map(|k| curve.ids(-2.0 + 0.01 * k as f64))
            .collect();
        let drop = i.windows(2).map(|w| w[0] - w[1]).fold(0.0, f64::max);
        assert!(
            drop > 1e-3,
            "current never falls with V_gs: largest drop {drop}"
        );
        // The solve still matches the plain bisection on the turning range,
        // without a certificate.
        let target = i[80];
        assert!(!certified(&curve, target, -2.0, 1.0));
        let got = vgs_for_current(&Angelov, &p, 3.0, target, -2.0, 1.0);
        let want = bisection_oracle(&Angelov, &p, 3.0, target, -2.0, 1.0);
        assert!(same_bits(got, want), "{got:?} vs {want:?}");
    }

    /// The bisection as it stood before the certified replay, verbatim:
    /// the oracle [`vgs_for_current`] must match bit for bit.
    fn bisection_oracle(
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

    fn same_bits(a: Option<f64>, b: Option<f64>) -> bool {
        a.map(f64::to_bits) == b.map(f64::to_bits)
    }

    /// Whether the bias solve takes its certificate for this target.
    fn certified(curve: &GateCurve, target: f64, v_lo: f64, v_hi: f64) -> bool {
        let f_lo = curve.ids(v_lo) - target;
        curve.certificate(target, v_lo, v_hi, f_lo).is_some()
    }

    #[test]
    fn bias_solve_matches_plain_bisection_bit_for_bit() {
        let mut rng = Rng64::new(0x5eed_b1a5);
        let bounds = Angelov.param_bounds();
        let mut params = vec![Angelov.default_params(), TURNING.to_vec()];
        params.extend((0..400).map(|_| bounds.sample(&mut rng)));
        let (mut cases, mut taken, mut solved) = (0usize, 0usize, 0usize);
        for p in &params {
            for k in 0..12 {
                let vds = 5.0 - rng.uniform(0.0, 5.0); // (0, 5]
                let (v_lo, v_hi) = if k % 3 == 0 {
                    (rng.uniform(-2.5, -0.5), rng.uniform(-0.4, 1.5))
                } else {
                    (-2.0, 1.0)
                };
                let curve = GateCurve::angelov(p, vds);
                let (i_lo, i_hi) = (curve.ids(v_lo), curve.ids(v_hi));
                let mut between = || i_lo + rng.next_f64() * (i_hi - i_lo);
                let targets = [
                    between(),
                    between(),
                    rng.uniform(-0.1, 0.1 + 1.5 * i_hi),
                    i_lo,
                    i_hi,
                    i_hi + 1e-3,
                    i_lo - 1e-3,
                ];
                for target in targets {
                    let got = vgs_for_current(&Angelov, p, vds, target, v_lo, v_hi);
                    let want = bisection_oracle(&Angelov, p, vds, target, v_lo, v_hi);
                    assert!(
                        same_bits(got, want),
                        "{p:?} vds {vds} target {target} on [{v_lo}, {v_hi}]: {got:?} vs {want:?}"
                    );
                    cases += 1;
                    solved += usize::from(want.is_some());
                    taken += usize::from(want.is_some() && certified(&curve, target, v_lo, v_hi));
                }
            }
        }
        // Not vacuous: most solves replay under a certificate, and some
        // fall back.
        assert!(taken > solved / 2, "{taken} certified of {solved} solved");
        assert!(taken < solved, "every solve certified: fallback untested");
        assert!(solved < cases, "no unbracketed target");

        // Models without a prepared curve run the plain loop.
        for m in models() {
            let p = m.default_params();
            for k in 0..40 {
                let vds = 0.125 * (k + 1) as f64;
                let target = rng.uniform(-0.01, 1.2 * m.ids(&p, 1.0, vds));
                let got = vgs_for_current(m.as_ref(), &p, vds, target, -2.0, 1.0);
                let want = bisection_oracle(m.as_ref(), &p, vds, target, -2.0, 1.0);
                assert!(same_bits(got, want), "{}: {got:?} vs {want:?}", m.name());
            }
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
        // And every outcome is the plain bisection's.
        for (target, lo, hi) in [(0.25, -1.0, 1.0), (0.5, 0.2, 1.0), (-0.5, -2.0, -1.0)] {
            let got = vgs_for_current(&m, &[0.0], 2.0, target, lo, hi);
            assert!(same_bits(
                got,
                bisection_oracle(&m, &[0.0], 2.0, target, lo, hi)
            ));
        }
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
