//! Prediction screening of expensive candidate evaluations.
//!
//! [`SurrogateScreen`] sits between an optimizer's candidate generation
//! and its batch of true evaluations. For each candidate it predicts
//! every objective with the current [`ResponseSurface`], credits the
//! prediction with an improvement margin (a fixed fraction of each
//! objective's robust training spread), and prunes the candidate when
//! that optimistic vector is still Pareto-dominated by the caller's
//! reference set: a true evaluation would most likely only buy a point
//! the optimizer discards.
//!
//! ## What a verdict means — the prune-never-propagate contract
//!
//! The screen returns only booleans: `true` = spend a true evaluation,
//! `false` = skip this candidate entirely. Predicted values never leave
//! this module; no Pareto front, report, or cache entry can ever hold a
//! surrogate number. The `surrogate-leak` lint in `rfkit-analyze`
//! enforces this structurally across the workspace.
//!
//! ## Determinism
//!
//! All decisions — including the ε-greedy exploration draws from the
//! screen's private seeded [`Rng64`] — are made serially by the caller's
//! generation loop before any parallel evaluation starts, so a fixed
//! seed produces bit-identical decision sequences at any
//! `RFKIT_THREADS`. The screen never reads clocks or ambient state.
//!
//! ## Safety valves
//!
//! * With no model yet (cold start, too few points, failed or
//!   non-finite fit) every candidate passes (`surrogate.fallback`).
//! * A non-finite prediction passes the candidate.
//! * A batch keep floor (an eighth of the batch, never below one
//!   candidate) flips the most promising rejected candidates back in,
//!   so generation loops can never starve.
//! * An ε-greedy schedule (0.15, halving every 512 decisions, floored at
//!   0.05) keeps spending occasional true evaluations on model-rejected
//!   candidates, which both bounds the cost of a wrong model and keeps
//!   feeding it training points off the incumbent path.

use crate::model::ResponseSurface;
use rfkit_num::rng::Rng64;

/// Most-recent training window used per fit (older points age out).
const MAX_TRAIN: usize = 256;
/// Refit after this many new observations.
const RETRAIN_EVERY: usize = 32;
/// Dimensionless ridge weight on the kernel diagonal.
const RIDGE: f64 = 1e-6;
/// Initial ε-greedy exploration probability.
const EXPLORE: f64 = 0.15;
/// Exploration probability floor.
const EXPLORE_MIN: f64 = 0.05;
/// Screening decisions per halving of the exploration probability.
const EXPLORE_HALF_LIFE: f64 = 512.0;
/// Improvement margin as a fraction of the per-objective robust training
/// spread: a candidate is only worth a true evaluation if its prediction
/// beats the reference set by this much.
const MIN_IMPROVEMENT: f64 = 0.3;
/// Minimum fraction of each batch that survives screening (rounded up,
/// never below one candidate).
const MIN_KEEP_FRAC: f64 = 0.125;

/// Caller-owned settings of a [`SurrogateScreen`]; the screening rule
/// itself is fixed.
#[derive(Debug, Clone)]
pub struct SurrogateConfig {
    /// Observations with any `|f_j|` above this cap are excluded from
    /// training, so a caller's penalty encoding can be kept out of (or,
    /// with a cap above it, admitted to) the fit.
    pub outlier_cap: f64,
    /// Seed for the private exploration RNG.
    pub seed: u64,
}

impl Default for SurrogateConfig {
    fn default() -> Self {
        SurrogateConfig {
            outlier_cap: f64::INFINITY,
            seed: 0x5eed5,
        }
    }
}

/// Counters describing what a [`SurrogateScreen`] has done so far.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScreenStats {
    /// Successful model fits.
    pub fits: u64,
    /// Candidates kept because their shifted prediction was not
    /// dominated (including keep-floor flips).
    pub accepted: u64,
    /// Candidates pruned (no true evaluation spent).
    pub rejected: u64,
    /// Candidates kept by the ε-greedy exploration draw.
    pub explored: u64,
    /// Candidates kept because no usable model/prediction existed.
    pub fallbacks: u64,
    /// Batch-level interventions that forced the best rejected
    /// candidate back in so a generation can never starve.
    pub forced: u64,
}

impl ScreenStats {
    /// Total candidates the screen let through to true evaluation.
    pub fn true_evals(&self) -> u64 {
        self.accepted + self.explored + self.fallbacks
    }
}

static OBS_FIT_COUNT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.fit");
static OBS_ACCEPT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.accept");
static OBS_REJECT: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.reject");
static OBS_TRUE_EVALS: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.true_evals");
static OBS_FALLBACK: rfkit_obs::Counter = rfkit_obs::Counter::new("surrogate.fallback");

/// Online surrogate screen: observes true evaluations, refits on a
/// cadence, and vetoes candidates whose predicted outlook is already
/// beaten. See the module docs for the contract.
#[derive(Debug)]
pub struct SurrogateScreen {
    dim: usize,
    n_obj: usize,
    cfg: SurrogateConfig,
    train_x: Vec<Vec<f64>>,
    train_f: Vec<Vec<f64>>,
    model: Option<ResponseSurface>,
    rng: Rng64,
    decisions: u64,
    since_fit: usize,
    stats: ScreenStats,
}

impl SurrogateScreen {
    /// Creates an empty screen for `dim` design variables and `n_obj`
    /// objectives (all minimized).
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `n_obj` is zero.
    pub fn new(dim: usize, n_obj: usize, cfg: SurrogateConfig) -> Self {
        assert!(
            dim > 0 && n_obj > 0,
            "need at least one variable and objective"
        );
        let rng = Rng64::new(cfg.seed);
        SurrogateScreen {
            dim,
            n_obj,
            cfg,
            train_x: Vec::new(),
            train_f: Vec::new(),
            model: None,
            rng,
            decisions: 0,
            since_fit: 0,
            stats: ScreenStats::default(),
        }
    }

    /// Records a completed true evaluation as training data.
    ///
    /// Non-finite objective vectors and rows beyond
    /// [`SurrogateConfig::outlier_cap`] are ignored.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn observe(&mut self, x: &[f64], f: &[f64]) {
        assert_eq!(x.len(), self.dim, "design-point dimension mismatch");
        assert_eq!(f.len(), self.n_obj, "objective-count mismatch");
        let usable = x.iter().all(|v| v.is_finite())
            && f.iter()
                .all(|v| v.is_finite() && v.abs() <= self.cfg.outlier_cap);
        if !usable {
            return;
        }
        self.train_x.push(x.to_vec());
        self.train_f.push(f.to_vec());
        self.since_fit += 1;
        // Age out old points in deterministic blocks so memory stays
        // bounded on long runs while fits always see the newest window.
        if self.train_x.len() >= 2 * MAX_TRAIN {
            let cut = self.train_x.len() - MAX_TRAIN;
            self.train_x.drain(..cut);
            self.train_f.drain(..cut);
        }
    }

    /// Seeds the training set from already-evaluated `(x, f)` pairs —
    /// e.g. a `DesignCache` snapshot.
    pub fn seed_training(&mut self, pts: &[(Vec<f64>, Vec<f64>)]) {
        for (x, f) in pts {
            self.observe(x, f);
        }
    }

    /// Screens a batch of candidates.
    ///
    /// A candidate is pruned when its predicted objective vector, shifted
    /// down by the improvement margin in every objective at once, is
    /// still Pareto-dominated by some row of `reference` (typically the
    /// parent population's objective vectors). Returns one verdict per
    /// candidate; at least one is `true`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches or if `reference` rows disagree
    /// with the screen's objective count.
    pub fn screen_multi(&mut self, candidates: &[Vec<f64>], reference: &[Vec<f64>]) -> Vec<bool> {
        for r in reference {
            assert_eq!(r.len(), self.n_obj, "reference objective-count mismatch");
        }
        self.ensure_fitted();
        let eps: Vec<f64> = match &self.model {
            Some(m) => m
                .robust_spread()
                .iter()
                .map(|s| MIN_IMPROVEMENT * s)
                .collect(),
            None => vec![0.0; self.n_obj],
        };
        let mut keep = Vec::with_capacity(candidates.len());
        // Rejected candidates ranked for the keep-floor flips: fewest
        // dominating reference rows first, then lowest shifted-prediction
        // sum, then lowest index (all deterministic tie-breaks).
        let mut rejected: Vec<(usize, usize, f64)> = Vec::new();
        let mut pred = vec![0.0; self.n_obj];
        for (i, x) in candidates.iter().enumerate() {
            let verdict = match self.predict_into(x, &mut pred) {
                None => Verdict::Fallback,
                Some(()) => {
                    // The ε-shifted prediction must still be undominated:
                    // the candidate has to *promise* an improvement, not
                    // merely a lateral move along the front.
                    for (p, e) in pred.iter_mut().zip(&eps) {
                        *p += e;
                    }
                    let dominated_by = reference.iter().filter(|r| dominates(r, &pred)).count();
                    if self.draw_explore() {
                        Verdict::Explored
                    } else if dominated_by == 0 {
                        Verdict::Accepted
                    } else {
                        let sum: f64 = pred.iter().sum();
                        rejected.push((i, dominated_by, sum));
                        Verdict::Rejected
                    }
                }
            };
            keep.push(verdict);
        }
        rejected.sort_by(|a, b| {
            a.1.cmp(&b.1)
                .then(rfkit_num::total_cmp_f64(&a.2, &b.2))
                .then(a.0.cmp(&b.0))
        });
        let ranked: Vec<usize> = rejected.into_iter().map(|(i, ..)| i).collect();
        self.finalize(&mut keep, &ranked)
    }

    /// Decision counters accumulated so far.
    pub fn stats(&self) -> ScreenStats {
        self.stats
    }

    /// Whether a fitted model is currently armed.
    pub fn has_model(&self) -> bool {
        self.model.is_some()
    }

    /// Training points currently held.
    pub fn training_len(&self) -> usize {
        self.train_x.len()
    }

    /// Refits lazily at screen entry: first fit once enough training
    /// points exist, then on the retrain cadence.
    fn ensure_fitted(&mut self) {
        let enough = self.train_x.len() >= ResponseSurface::min_train_points(self.dim);
        let due = self.model.is_none() || self.since_fit >= RETRAIN_EVERY;
        if !(enough && due) {
            return;
        }
        let start = self.train_x.len().saturating_sub(MAX_TRAIN);
        let _span = rfkit_obs::span("surrogate.fit");
        // A degenerate window (e.g. coincident points) or a non-finite
        // fit drops the model: true evaluation until the data improves.
        self.model = ResponseSurface::fit(&self.train_x[start..], &self.train_f[start..], RIDGE);
        if self.model.is_some() {
            self.stats.fits += 1;
            OBS_FIT_COUNT.add(1);
        }
        self.since_fit = 0;
    }

    /// The model prediction for `x`, or `None` when no usable model
    /// exists or the prediction is not finite.
    fn predict_into(&self, x: &[f64], out: &mut [f64]) -> Option<()> {
        let model = self.model.as_ref()?;
        model.predict_into(x, out);
        out.iter().all(|o| o.is_finite()).then_some(())
    }

    /// One ε-greedy draw per modeled candidate, with deterministic
    /// exponential decay of the exploration probability.
    fn draw_explore(&mut self) -> bool {
        let t = self.decisions as f64 / EXPLORE_HALF_LIFE;
        let eps = (EXPLORE * 0.5_f64.powf(t)).max(EXPLORE_MIN);
        self.decisions += 1;
        self.rng.chance(eps)
    }

    /// Applies the batch keep floor (flipping ranked rejected
    /// candidates back in, best first), emits telemetry, and converts
    /// verdicts to booleans.
    fn finalize(&mut self, verdicts: &mut [Verdict], ranked_rejected: &[usize]) -> Vec<bool> {
        let min_keep = ((MIN_KEEP_FRAC * verdicts.len() as f64).ceil() as usize).max(1);
        let kept_n = verdicts.iter().filter(|v| **v != Verdict::Rejected).count();
        for &i in ranked_rejected.iter().take(min_keep.saturating_sub(kept_n)) {
            verdicts[i] = Verdict::Forced;
            self.stats.forced += 1;
        }
        let mut kept = 0u64;
        for v in verdicts.iter() {
            match v {
                Verdict::Accepted | Verdict::Forced => {
                    self.stats.accepted += 1;
                    OBS_ACCEPT.add(1);
                }
                Verdict::Explored => {
                    self.stats.explored += 1;
                    OBS_ACCEPT.add(1);
                }
                Verdict::Fallback => {
                    self.stats.fallbacks += 1;
                    OBS_FALLBACK.add(1);
                }
                Verdict::Rejected => {
                    self.stats.rejected += 1;
                    OBS_REJECT.add(1);
                }
            }
            if *v != Verdict::Rejected {
                kept += 1;
            }
        }
        OBS_TRUE_EVALS.add(kept);
        verdicts.iter().map(|v| *v != Verdict::Rejected).collect()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Accepted,
    Explored,
    Fallback,
    Rejected,
    Forced,
}

/// `a` Pareto-dominates `b` under minimization: no worse everywhere,
/// strictly better somewhere.
fn dominates(a: &[f64], b: &[f64]) -> bool {
    let mut strictly = false;
    for (ai, bi) in a.iter().zip(b) {
        if ai > bi {
            return false;
        }
        if ai < bi {
            strictly = true;
        }
    }
    strictly
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic 2-D sample cloud scored on two conflicting
    /// objectives: `f1` wants `x` near (1, 1), `f2` near (−1, −1).
    fn training(n: usize, seed: u64) -> Vec<(Vec<f64>, Vec<f64>)> {
        let mut rng = Rng64::new(seed);
        (0..n)
            .map(|_| {
                let x = vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)];
                let f = objectives(&x);
                (x, f)
            })
            .collect()
    }

    fn objectives(x: &[f64]) -> Vec<f64> {
        vec![
            (x[0] - 1.0).powi(2) + (x[1] - 1.0).powi(2),
            (x[0] + 1.0).powi(2) + (x[1] + 1.0).powi(2),
        ]
    }

    fn trained_screen(n: usize) -> SurrogateScreen {
        let mut s = SurrogateScreen::new(2, 2, SurrogateConfig::default());
        s.seed_training(&training(n, 7));
        s
    }

    /// Reference row that dominates every achievable objective vector
    /// (`f1 + f2 ≥ 4` on the whole plane).
    const UNBEATABLE: [f64; 2] = [-100.0, -100.0];

    #[test]
    fn cold_start_passes_everything_as_fallback() {
        let mut s = SurrogateScreen::new(2, 2, SurrogateConfig::default());
        let cands = vec![vec![0.1, 0.2], vec![0.5, -0.4]];
        let keep = s.screen_multi(&cands, &[UNBEATABLE.to_vec()]);
        assert_eq!(keep, vec![true, true]);
        assert_eq!(s.stats().fallbacks, 2);
        assert_eq!(s.stats().rejected, 0);
        assert!(!s.has_model());
    }

    #[test]
    fn dominated_prediction_is_pruned() {
        let mut s = trained_screen(80);
        // (0, 0) scores (2, 2): dominated by the reference (1, 1) even
        // before the improvement margin. (1, 1) scores (0, 8): a
        // trade-off no reference row dominates.
        let reference = vec![vec![1.0, 1.0]];
        let cands = vec![vec![0.0, 0.0], vec![1.0, 1.0]];
        let mut hopeless_kept = 0u64;
        for _ in 0..20 {
            let keep = s.screen_multi(&cands, &reference);
            assert!(keep[1], "trade-off candidate must survive");
            hopeless_kept += u64::from(keep[0]);
        }
        assert!(s.has_model());
        let st = s.stats();
        assert_eq!(st.forced, 0, "an accepted candidate meets the floor");
        assert!(st.rejected >= 10, "dominated candidate rarely pruned");
        // The dominated candidate survives only by exploration.
        assert!(hopeless_kept <= st.explored);
        assert_eq!(hopeless_kept + st.rejected, 20);
    }

    #[test]
    fn at_least_one_candidate_always_survives() {
        let mut s = trained_screen(60);
        for _ in 0..20 {
            let keep = s.screen_multi(&[vec![0.9, -0.9]], &[UNBEATABLE.to_vec()]);
            assert_eq!(keep, vec![true]);
        }
        let st = s.stats();
        assert_eq!(st.rejected, 0);
        assert_eq!(st.forced + st.explored, 20);
        assert!(st.forced > 0);
    }

    #[test]
    fn keep_floor_flips_an_eighth_of_the_batch_back_in() {
        let mut s = trained_screen(60);
        let mut rng = Rng64::new(3);
        for _ in 0..10 {
            let before = s.stats();
            let cands: Vec<Vec<f64>> = (0..16)
                .map(|_| vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
                .collect();
            let keep = s.screen_multi(&cands, &[UNBEATABLE.to_vec()]);
            let after = s.stats();
            let explored = after.explored - before.explored;
            let forced = after.forced - before.forced;
            // ceil(16 / 8) = 2 survivors, whatever exploration kept.
            assert_eq!(forced, 2u64.saturating_sub(explored));
            assert_eq!(
                keep.iter().filter(|k| **k).count() as u64,
                explored + forced
            );
        }
        assert!(s.stats().forced > 0);
    }

    #[test]
    fn decisions_are_seed_deterministic() {
        let run = |seed: u64| {
            let mut s = SurrogateScreen::new(
                2,
                2,
                SurrogateConfig {
                    seed,
                    ..SurrogateConfig::default()
                },
            );
            s.seed_training(&training(80, 11));
            let mut rng = Rng64::new(5);
            let reference = vec![vec![1.0, 3.0], vec![3.0, 1.0]];
            let verdicts: Vec<Vec<bool>> = (0..10)
                .map(|_| {
                    let cands: Vec<Vec<f64>> = (0..8)
                        .map(|_| vec![rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0)])
                        .collect();
                    s.screen_multi(&cands, &reference)
                })
                .collect();
            (verdicts, s.stats())
        };
        let (v1, s1) = run(99);
        let (v2, s2) = run(99);
        assert_eq!(v1, v2);
        assert_eq!(s1, s2);
        assert!(s1.explored > 0 && s1.rejected > 0, "screen idle: {s1:?}");
        let (_, s3) = run(100);
        assert_ne!(s1, s3, "exploration draws ignore the seed");
    }

    #[test]
    fn outlier_cap_excludes_penalty_rows() {
        let mut s = SurrogateScreen::new(
            2,
            1,
            SurrogateConfig {
                outlier_cap: 100.0,
                ..SurrogateConfig::default()
            },
        );
        s.observe(&[0.0, 0.0], &[1e3]); // penalty encoding: ignored
        s.observe(&[0.1, 0.1], &[2.0]);
        s.observe(&[0.2, 0.1], &[f64::NAN]); // non-finite: ignored
        assert_eq!(s.training_len(), 1);
    }

    #[test]
    fn retrain_cadence_refits_every_32_observations() {
        let mut s = trained_screen(60);
        let cands = vec![vec![0.0, 0.0]];
        let reference = vec![vec![10.0, 10.0]];
        s.screen_multi(&cands, &reference);
        assert_eq!(s.stats().fits, 1);
        let fresh = training(32, 8);
        for (x, f) in &fresh[..31] {
            s.observe(x, f);
        }
        s.screen_multi(&cands, &reference);
        assert_eq!(s.stats().fits, 1, "refit before the cadence was due");
        s.observe(&fresh[31].0, &fresh[31].1);
        s.screen_multi(&cands, &reference);
        assert_eq!(s.stats().fits, 2, "cadence-due refit did not happen");
    }

    #[test]
    fn training_window_stays_bounded() {
        let s = trained_screen(2 * MAX_TRAIN + 7);
        assert!(s.training_len() < 2 * MAX_TRAIN);
        assert!(s.training_len() >= MAX_TRAIN);
    }

    #[test]
    fn dominates_is_strict() {
        assert!(dominates(&[1.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[2.0, 2.0], &[2.0, 2.0]));
        assert!(!dominates(&[1.0, 3.0], &[2.0, 2.0]));
    }
}
