//! A complete packaged pHEMT: DC model, bias-dependent capacitances,
//! extrinsic shell and bias-dependent noise, tied together so the design
//! flow can ask "give me the noisy two-port at (V_ds, I_ds)".

use crate::dc::{self, DcModel};
use crate::smallsignal::{Extrinsic, Intrinsic, NoiseTemperatures, SmallSignalDevice};
use rfkit_net::NoisyAbcd;

/// Bias-dependent capacitance law (simplified Angelov form): Cgs grows as
/// the channel opens, Cgd shrinks with drain voltage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacitanceModel {
    /// Cgs at full channel opening (F).
    pub cgs_max: f64,
    /// Cgs floor deep in pinch-off (F).
    pub cgs_min: f64,
    /// Gate voltage where Cgs is halfway (V).
    pub cgs_vm: f64,
    /// Transition steepness (1/V).
    pub cgs_slope: f64,
    /// Zero-bias gate-drain capacitance (F).
    pub cgd0: f64,
    /// Drain-voltage scale of the Cgd roll-off (V).
    pub cgd_vb: f64,
    /// Drain-source capacitance (F), bias independent.
    pub cds: f64,
}

impl CapacitanceModel {
    /// Gate-source capacitance at `vgs`.
    pub fn cgs(&self, vgs: f64) -> f64 {
        self.cgs_min
            + (self.cgs_max - self.cgs_min)
                * 0.5
                * (1.0 + ((vgs - self.cgs_vm) * self.cgs_slope).tanh())
    }

    /// Gate-drain capacitance at `vds`.
    pub fn cgd(&self, vds: f64) -> f64 {
        self.cgd0 / (1.0 + vds / self.cgd_vb)
    }
}

/// Bias-dependent Pospieszalski drain temperature: `Td` scales linearly
/// with drain current (hot electrons), floored at ambient.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseModel {
    /// Gate temperature (K), near ambient.
    pub tg: f64,
    /// Drain temperature (K) at the reference current.
    pub td0: f64,
    /// Reference drain current (A) for `td0`.
    pub ids_ref: f64,
    /// Ambient temperature (K).
    pub ambient: f64,
}

impl NoiseModel {
    /// Noise temperatures at drain current `ids`.
    pub fn temperatures(&self, ids: f64) -> NoiseTemperatures {
        NoiseTemperatures {
            tg: self.tg,
            td: (self.td0 * ids / self.ids_ref).max(self.ambient),
            ambient: self.ambient,
        }
    }
}

/// The DC operating point and the small-signal/nonlinear quantities
/// derived from it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// Gate-source voltage (V).
    pub vgs: f64,
    /// Drain-source voltage (V).
    pub vds: f64,
    /// Drain current (A).
    pub ids: f64,
    /// Transconductance (S).
    pub gm: f64,
    /// Output conductance (S).
    pub gds: f64,
    /// Second-order transconductance (A/V²).
    pub gm2: f64,
    /// Third-order transconductance (A/V³).
    pub gm3: f64,
}

/// The gate-voltage interval (V) [`Phemt::bias_for_current`] searches.
const BIAS_WINDOW: (f64, f64) = (-2.0, 1.0);

/// A complete packaged pHEMT.
pub struct Phemt {
    /// The DC drain-current equation.
    pub dc_model: Box<dyn DcModel>,
    /// Its parameter vector.
    pub dc_params: Vec<f64>,
    /// Bias-dependent capacitances.
    pub cap: CapacitanceModel,
    /// Intrinsic channel resistance (Ω).
    pub ri: f64,
    /// Transconductance delay (s).
    pub tau: f64,
    /// Extrinsic parasitic shell.
    pub extrinsic: Extrinsic,
    /// Noise-temperature model.
    pub noise: NoiseModel,
}

impl std::fmt::Debug for Phemt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Phemt")
            .field("dc_model", &self.dc_model.name())
            .field("dc_params", &self.dc_params)
            .field("cap", &self.cap)
            .field("ri", &self.ri)
            .field("tau", &self.tau)
            .field("extrinsic", &self.extrinsic)
            .field("noise", &self.noise)
            .finish()
    }
}

impl Phemt {
    /// An ATF-54143-class low-noise enhancement... depletion pHEMT, the
    /// golden reference device of this reproduction (Angelov DC model).
    pub fn atf54143_like() -> Phemt {
        Phemt {
            dc_model: Box::new(dc::Angelov),
            dc_params: dc::Angelov.default_params(),
            cap: CapacitanceModel {
                cgs_max: 2.0e-12,
                cgs_min: 0.9e-12,
                cgs_vm: -0.45,
                cgs_slope: 4.0,
                cgd0: 0.28e-12,
                cgd_vb: 2.2,
                cds: 0.28e-12,
            },
            ri: 1.4,
            tau: 2.0e-12,
            extrinsic: Extrinsic {
                rg: 1.0,
                rd: 2.0,
                rs: 0.55,
                lg: 0.45e-9,
                ld: 0.45e-9,
                ls: 0.22e-9,
                cpg: 0.25e-12,
                cpd: 0.25e-12,
            },
            noise: NoiseModel {
                tg: 300.0,
                td0: 3200.0,
                ids_ref: 0.06,
                ambient: 296.5,
            },
        }
    }

    /// Evaluates the operating point at `(vgs, vds)`.
    pub fn operating_point(&self, vgs: f64, vds: f64) -> OperatingPoint {
        let m = self.dc_model.as_ref();
        let (ids, gm, gm2, gm3) = dc::gate_terms(m, &self.dc_params, vgs, vds);
        OperatingPoint {
            vgs,
            vds,
            ids,
            gm,
            gds: dc::gds(m, &self.dc_params, vgs, vds),
            gm2,
            gm3,
        }
    }

    /// Finds the gate voltage that sets drain current `ids` at `vds`.
    /// Returns `None` when the current is outside the device's range.
    pub fn bias_for_current(&self, vds: f64, ids: f64) -> Option<f64> {
        let (v_lo, v_hi) = BIAS_WINDOW;
        dc::vgs_for_current(
            self.dc_model.as_ref(),
            &self.dc_params,
            vds,
            ids,
            v_lo,
            v_hi,
        )
    }

    /// The small-signal equivalent circuit at the operating point.
    pub fn small_signal(&self, op: &OperatingPoint) -> SmallSignalDevice {
        SmallSignalDevice {
            intrinsic: Intrinsic {
                gm: op.gm,
                gds: op.gds.max(1e-6),
                cgs: self.cap.cgs(op.vgs),
                cgd: self.cap.cgd(op.vds),
                cds: self.cap.cds,
                ri: self.ri,
                tau: self.tau,
            },
            extrinsic: self.extrinsic,
        }
    }

    /// The noisy linear two-port at frequency `freq_hz` and the given
    /// operating point.
    pub fn noisy_two_port(&self, freq_hz: f64, op: &OperatingPoint) -> NoisyAbcd {
        self.small_signal(op)
            .noisy_two_port(freq_hz, &self.noise.temperatures(op.ids))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rfkit_num::units::db_from_power_ratio;
    use rfkit_num::Complex;

    #[test]
    fn bias_inversion_roundtrip() {
        let d = Phemt::atf54143_like();
        let vgs = d.bias_for_current(3.0, 0.060).expect("60 mA reachable");
        let op = d.operating_point(vgs, 3.0);
        assert!((op.ids - 0.060).abs() < 1e-6, "Ids = {}", op.ids);
    }

    #[test]
    fn bias_solve_is_certified_across_the_design_box() {
        // The design box of `lna::DesignVariables::bounds()`: Vds 1.5–4 V,
        // Ids 10–80 mA. A silent fall-back to the plain bisection would
        // keep every result and only run slower, so pin the fast path.
        let d = Phemt::atf54143_like();
        let (v_lo, v_hi) = BIAS_WINDOW;
        for i in 0..=50 {
            for j in 0..=70 {
                let vds = 1.5 + 2.5 * f64::from(i) / 50.0;
                let ids = 0.010 + 0.070 * f64::from(j) / 70.0;
                let curve = d
                    .dc_model
                    .gate_curve(&d.dc_params, vds)
                    .expect("Angelov has a prepared curve");
                let f_lo = curve.ids(v_lo) - ids;
                assert!(
                    curve.certificate(ids, v_lo, v_hi, f_lo).is_some(),
                    "no certificate at Vds {vds} V, Ids {ids} A"
                );
            }
        }
    }

    #[test]
    fn gm_grows_with_bias_current() {
        let d = Phemt::atf54143_like();
        let op20 = d.operating_point(d.bias_for_current(3.0, 0.020).unwrap(), 3.0);
        let op60 = d.operating_point(d.bias_for_current(3.0, 0.060).unwrap(), 3.0);
        assert!(op60.gm > op20.gm, "{} vs {}", op60.gm, op20.gm);
        // And gm is in the right ballpark at 60 mA.
        assert!(op60.gm > 0.1 && op60.gm < 0.5, "gm = {}", op60.gm);
    }

    #[test]
    fn capacitances_follow_bias() {
        let d = Phemt::atf54143_like();
        assert!(d.cap.cgs(0.2) > d.cap.cgs(-0.8), "Cgs grows with Vgs");
        assert!(d.cap.cgd(1.0) > d.cap.cgd(4.0), "Cgd shrinks with Vds");
        assert!(d.cap.cgs(-3.0) >= d.cap.cgs_min * 0.99);
        assert!(d.cap.cgs(1.0) <= d.cap.cgs_max * 1.01);
    }

    #[test]
    fn noise_temperature_scales_with_current() {
        let d = Phemt::atf54143_like();
        let t20 = d.noise.temperatures(0.020);
        let t80 = d.noise.temperatures(0.080);
        assert!(t80.td > t20.td);
        assert!((t80.td / t20.td - 4.0).abs() < 1e-9);
        // Floor at ambient for tiny currents.
        assert_eq!(d.noise.temperatures(1e-6).td, d.noise.ambient);
    }

    #[test]
    fn gain_and_noise_tradeoff_across_bias() {
        // Classic LNA physics: more current → more gain but (past the NF
        // optimum) more noise.
        let d = Phemt::atf54143_like();
        let f = 1.5e9;
        let mut last_gain = 0.0;
        let results: Vec<(f64, f64)> = [0.015, 0.040, 0.080]
            .iter()
            .map(|&ids| {
                let op = d.operating_point(d.bias_for_current(3.0, ids).unwrap(), 3.0);
                let tp = d.noisy_two_port(f, &op);
                let s = tp.abcd.to_s(50.0).unwrap();
                let gain = db_from_power_ratio(s.s21().norm_sqr());
                let nf = tp.noise_params(50.0).unwrap().nf_min_db();
                (gain, nf)
            })
            .collect();
        for (gain, _) in &results {
            assert!(*gain > last_gain, "gain should grow with bias current");
            last_gain = *gain;
        }
        // Noise rises from 40 mA to 80 mA (hot channel dominates).
        assert!(results[2].1 > results[1].1, "NF(80 mA) > NF(40 mA)");
    }

    #[test]
    fn nfmin_at_gnss_band_is_sub_decibel() {
        let d = Phemt::atf54143_like();
        let op = d.operating_point(d.bias_for_current(3.0, 0.040).unwrap(), 3.0);
        let np = d.noisy_two_port(1.575e9, &op).noise_params(50.0).unwrap();
        let nf = np.nf_min_db();
        assert!(nf > 0.15 && nf < 1.0, "NFmin = {nf} dB");
    }

    #[test]
    fn two_port_is_active_at_gnss() {
        let d = Phemt::atf54143_like();
        let op = d.operating_point(d.bias_for_current(3.0, 0.060).unwrap(), 3.0);
        let s = d.noisy_two_port(1.575e9, &op).abcd.to_s(50.0).unwrap();
        assert!(!s.is_passive(1e-9));
        assert!(s.s21().abs() > 3.0);
        let _ = Complex::ZERO;
    }

    #[test]
    fn gm3_negative_near_peak_gm_bias() {
        // At typical LNA bias the device sits below peak gm where gm3 > 0 —
        // or above it where gm3 < 0; the sweet spot between them is what
        // two-tone sweeps exploit. Just pin the signs at the extremes.
        let d = Phemt::atf54143_like();
        let low = d.operating_point(-0.7, 3.0);
        let high = d.operating_point(-0.1, 3.0);
        assert!(low.gm3 > 0.0, "gm3 at low bias = {}", low.gm3);
        assert!(high.gm3 < 0.0, "gm3 at high bias = {}", high.gm3);
    }

    #[test]
    fn debug_impl_names_the_model() {
        let d = Phemt::atf54143_like();
        let s = format!("{d:?}");
        assert!(s.contains("Angelov"));
    }
}
