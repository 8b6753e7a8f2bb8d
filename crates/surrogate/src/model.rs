//! Gaussian radial-basis response surface fitted from true-evaluated
//! design points.
//!
//! One kernel center per training point, a data-scaled shape parameter
//! and a ridge-damped diagonal. All objectives share one kernel matrix:
//! the factorization is computed once and reused per objective column,
//! mirroring how the AC engine reuses pivots across right-hand sides.
//!
//! Inputs are mapped through [`Normalizer`] onto `[-1, 1]^d` before any
//! distance is taken — the volts-next-to-farads conditioning fix pinned
//! by the regression tests in `rfkit_num::lstsq`.

use rfkit_num::lstsq::Normalizer;
use rfkit_num::RMatrix;

/// A fitted multi-objective RBF response surface.
///
/// Produced by [`ResponseSurface::fit`]; immutable afterwards. Predicts
/// all objectives of a raw (unnormalized) design point, and exposes the
/// per-objective robust training spread the screening layer scales its
/// improvement margin by.
#[derive(Debug, Clone)]
pub struct ResponseSurface {
    norm: Normalizer,
    n_obj: usize,
    /// Per-objective kernel weights.
    weights: Vec<Vec<f64>>,
    /// Normalized training points: the kernel centers.
    centers: Vec<Vec<f64>>,
    /// Per-objective training mean the surface relaxes to far from the
    /// data (kernel weights are fitted on mean-centered values).
    offsets: Vec<f64>,
    gamma: f64,
    robust_spread: Vec<f64>,
}

impl ResponseSurface {
    /// Minimum number of training points for a meaningful fit over `d`
    /// input dimensions.
    pub fn min_train_points(d: usize) -> usize {
        (3 * d).max(10)
    }

    /// Fits a surface to true-evaluated samples: `xs[i]` is a raw design
    /// point, `fs[i]` its objective vector.
    ///
    /// Returns `None` when the fit is unusable: the ridge-damped kernel
    /// system cannot be factored (e.g. all training points coincide), or
    /// the in-sample residuals are not finite.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty, rows have inconsistent lengths,
    /// or `ridge` is negative.
    pub fn fit(xs: &[Vec<f64>], fs: &[Vec<f64>], ridge: f64) -> Option<ResponseSurface> {
        assert_eq!(xs.len(), fs.len(), "need one objective row per point");
        assert!(!xs.is_empty(), "need at least one training point");
        assert!(ridge >= 0.0, "ridge must be non-negative");
        let n_obj = fs[0].len();
        assert!(n_obj > 0, "need at least one objective");
        let norm = Normalizer::from_samples(xs);
        let us: Vec<Vec<f64>> = xs.iter().map(|x| norm.normalize(x)).collect();
        let ys: Vec<Vec<f64>> = (0..n_obj)
            .map(|j| fs.iter().map(|f| f[j]).collect())
            .collect();
        let n = us.len();
        // Shape parameter from the mean pairwise squared distance so the
        // kernel width tracks the data cloud.
        let mut sum_d2 = 0.0;
        let mut pairs = 0u64;
        for i in 0..n {
            for j in (i + 1)..n {
                sum_d2 += sq_dist(&us[i], &us[j]);
                pairs += 1;
            }
        }
        let mean_d2 = if pairs == 0 {
            0.0
        } else {
            sum_d2 / pairs as f64
        };
        if !mean_d2.is_finite() || mean_d2 <= 0.0 {
            return None;
        }
        let gamma = 1.0 / mean_d2;
        let mut k = RMatrix::from_fn(n, n, |i, j| (-gamma * sq_dist(&us[i], &us[j])).exp());
        // Kernel diagonal is exactly 1, so `ridge` is already a
        // dimensionless damping of the interpolation system.
        for i in 0..n {
            k[(i, i)] += ridge;
        }
        let lu = k.lu().ok()?;
        // Fit kernel weights on mean-centered objectives: a bare Gaussian
        // expansion decays to zero away from the data, and "zero" is an
        // arbitrary (often flattering) value in objective units. Centering
        // makes the far-field prediction the training mean instead — the
        // honest no-information answer.
        let offsets: Vec<f64> = ys
            .iter()
            .map(|y| y.iter().sum::<f64>() / y.len() as f64)
            .collect();
        let weights: Vec<Vec<f64>> = ys
            .iter()
            .zip(&offsets)
            .map(|(y, m)| {
                let centered: Vec<f64> = y.iter().map(|v| v - m).collect();
                lu.solve(&centered)
            })
            .collect();
        // Robust spread: half the interquartile range. When a minority of
        // training rows sit on a penalty plateau far from the regular
        // values (infeasible-design encodings), the full spread explodes
        // while the IQR keeps tracking the scale on which real candidates
        // are compared.
        let robust_spread = ys
            .iter()
            .map(|y| {
                let mut sorted = y.clone();
                sorted.sort_by(rfkit_num::total_cmp_f64);
                0.5 * (sorted[(3 * sorted.len()) / 4] - sorted[sorted.len() / 4])
            })
            .collect();
        let surface = ResponseSurface {
            norm,
            n_obj,
            weights,
            centers: us,
            offsets,
            gamma,
            robust_spread,
        };
        // A fit whose in-sample residuals overflow or go NaN predicts
        // nothing usable: reject it like a singular system.
        let mut pred = vec![0.0; n_obj];
        let mut sq_sum = vec![0.0; n_obj];
        for (x, f) in xs.iter().zip(fs) {
            surface.predict_into(x, &mut pred);
            for ((s, p), v) in sq_sum.iter_mut().zip(&pred).zip(f) {
                *s += (p - v) * (p - v);
            }
        }
        sq_sum.iter().all(|s| s.is_finite()).then_some(surface)
    }

    /// Input dimension.
    pub fn dim(&self) -> usize {
        self.norm.dim()
    }

    /// Number of objectives predicted per point.
    pub fn n_obj(&self) -> usize {
        self.n_obj
    }

    /// Per-objective robust spread (half the interquartile range) of the
    /// training objectives. It ignores minority outliers — penalty
    /// plateaus in particular — so it measures the scale on which
    /// ordinary candidates differ.
    pub fn robust_spread(&self) -> &[f64] {
        &self.robust_spread
    }

    /// Predicts all objectives of a raw design point (allocating).
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_obj];
        self.predict_into(x, &mut out);
        out
    }

    /// Predicts all objectives of a raw design point into `out`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()` or `out.len() != self.n_obj()`.
    pub fn predict_into(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(out.len(), self.n_obj, "objective count mismatch");
        let u = self.norm.normalize(x);
        for ((o, w), m) in out.iter_mut().zip(&self.weights).zip(&self.offsets) {
            *o = m + self
                .centers
                .iter()
                .zip(w)
                .map(|(c, wi)| (-self.gamma * sq_dist(&u, c)).exp() * wi)
                .sum::<f64>();
        }
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn truth(x: &[f64]) -> Vec<f64> {
        // Two objectives with curvature and an interaction term, on
        // volts-vs-farads scales.
        let v = x[0];
        let c = x[1] / 1e-12;
        vec![
            1.5 + 0.4 * (v - 2.5) * (v - 2.5) + 0.1 * c - 0.05 * v * c,
            -10.0 + 0.8 * v + 0.3 * (c - 5.0) * (c - 5.0),
        ]
    }

    fn training_grid() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut xs = Vec::new();
        for i in 0..9 {
            for j in 0..9 {
                xs.push(vec![1.5 + 0.3 * i as f64, (0.5 + 1.4 * j as f64) * 1e-12]);
            }
        }
        let fs = xs.iter().map(|x| truth(x)).collect();
        (xs, fs)
    }

    #[test]
    fn rbf_interpolates_training_points() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(&xs, &fs, 1e-8).unwrap();
        assert_eq!(m.n_obj(), 2);
        assert_eq!(m.dim(), 2);
        let p = m.predict(&xs[40]);
        assert!((p[0] - fs[40][0]).abs() < 1e-3, "{} vs {}", p[0], fs[40][0]);
        assert!((p[1] - fs[40][1]).abs() < 1e-3, "{} vs {}", p[1], fs[40][1]);
        assert!(m.robust_spread()[0] > 0.0);
    }

    #[test]
    fn rbf_far_field_relaxes_to_training_mean() {
        let (xs, fs) = training_grid();
        let m = ResponseSurface::fit(&xs, &fs, 1e-8).unwrap();
        let mean: Vec<f64> = (0..2)
            .map(|j| fs.iter().map(|f| f[j]).sum::<f64>() / fs.len() as f64)
            .collect();
        // A probe far outside the training cloud must not collapse to
        // zero (an arbitrary value in objective units) but to the mean.
        let p = m.predict(&[1e3, 1e-9]);
        assert!((p[0] - mean[0]).abs() < 1e-6, "{} vs {}", p[0], mean[0]);
        assert!((p[1] - mean[1]).abs() < 1e-6, "{} vs {}", p[1], mean[1]);
    }

    #[test]
    fn coincident_points_are_rejected_not_panic() {
        let xs = vec![vec![1.0, 2.0]; 12];
        let fs = vec![vec![3.0]; 12];
        assert!(ResponseSurface::fit(&xs, &fs, 0.0).is_none());
    }

    #[test]
    fn non_finite_residuals_are_rejected() {
        // Finite training values whose mean overflows: the kernel system
        // factors, but the weights and every prediction come out NaN.
        let (xs, _) = training_grid();
        let fs = vec![vec![1e308]; xs.len()];
        assert!(ResponseSurface::fit(&xs, &fs, 1e-8).is_none());
    }

    #[test]
    fn min_train_points_scales_with_dimension() {
        assert_eq!(ResponseSurface::min_train_points(7), 21);
        assert_eq!(ResponseSurface::min_train_points(2), 10);
    }
}
