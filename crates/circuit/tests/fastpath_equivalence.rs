//! Equivalence suite for the AC sweep engine, [`StampPlan::sweep_batch`],
//! against the dense reference [`s_matrix`] / [`two_port_s`]. On the
//! dense path a 1-point batch must return **bit-identical** results —
//! same S-parameters, same errors — across the reference design
//! topology, the linearized-pHEMT stamp case and seeded random RLC
//! netlists; `assert_eq!` on `SParams` and S entries compares exact
//! floating bits, not tolerances. The banded and bordered paths stay
//! within [`SWEEP_TOL`] with point-for-point `Err` and fault parity.
//!
//! Every test holds [`SERIAL`] for its whole body: with `rfkit-faults`
//! on, the fault-parity test arms a process-wide plan that would fail
//! the unguarded tests' grid points if they ran concurrently.

use rfkit_circuit::{
    s_matrix, two_port_s, AcError, AcStamps, AcWorkspace, Circuit, StampPlan, SWEEP_TOL,
};
use rfkit_device::smallsignal::NoiseTemperatures;
use rfkit_device::Phemt;
use rfkit_num::linspace;
use rfkit_num::rng::Rng64;
use std::sync::{Mutex, MutexGuard, PoisonError};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The reference-design schematic as a netlist: input match, linearized
/// device position (stamped separately where used), bias feed and output
/// match — the same element mix `design_lna` candidates get built from.
fn reference_design_circuit() -> Circuit {
    let mut c = Circuit::new();
    c.inductor("in", "gate", 6.8e-9)
        .resistor("gate", "gnd", 10_000.0)
        .resistor("drain", "nb", 30.0)
        .inductor("nb", "gnd", 10e-9)
        .vsource("vdd", "gnd", 3.0)
        .resistor("vdd", "nb", 15.0)
        .capacitor("drain", "out", 2.2e-12)
        .inductor("out", "gnd", 10e-9)
        .capacitor("out", "gnd", 1.0e-12)
        .port("in", 50.0)
        .port("out", 50.0);
    c
}

#[test]
fn reference_design_sweep_is_bit_identical() {
    let _serial = serial();
    let c = reference_design_circuit();
    let plan = StampPlan::compile(&c).unwrap();
    let mut ws = AcWorkspace::new();
    for &f in linspace(1.1e9, 1.7e9, 31).iter() {
        let legacy = two_port_s(&c, f, &AcStamps::none()).unwrap();
        let batch = plan.sweep_batch(&[f], &AcStamps::none(), &mut ws);
        assert_eq!(batch.stats().path, "dense");
        assert_eq!(legacy, batch.two_port(0).unwrap(), "bit mismatch at {f} Hz");
    }
    // One topology, one warm-up: the remaining 30 points reused buffers,
    // i.e. the batches performed no per-frequency matrix allocations.
    assert_eq!(ws.warmup_count(), 1);
    assert_eq!(ws.reuse_count(), 30);
}

#[test]
fn phemt_stamp_case_is_bit_identical() {
    let _serial = serial();
    let d = Phemt::atf54143_like();
    let op = d.operating_point(d.bias_for_current(3.0, 0.06).unwrap(), 3.0);
    let ss = d.small_signal(&op);
    let y_of = move |f: f64| {
        ss.noisy_two_port(f, &NoiseTemperatures::default())
            .abcd
            .to_y()
            .expect("device Y form")
    };
    let mut c = Circuit::new();
    c.inductor("in", "gate", 5.6e-9)
        .capacitor("drain", "out", 2.2e-12)
        .inductor("out", "gnd", 10e-9)
        .port("in", 50.0)
        .port("out", 50.0);
    let (g, dn) = (c.node("gate"), c.node("drain"));
    let stamps = AcStamps::none().two_port(g, dn, &y_of);
    let plan = StampPlan::compile(&c).unwrap();
    let mut ws = AcWorkspace::new();
    for &f in linspace(0.9e9, 2.1e9, 13).iter() {
        let legacy = two_port_s(&c, f, &stamps).unwrap();
        let batch = plan.sweep_batch(&[f], &stamps, &mut ws);
        assert_eq!(batch.stats().path, "dense");
        assert_eq!(legacy, batch.two_port(0).unwrap(), "bit mismatch at {f} Hz");
    }
}

/// Builds a random RLC netlist over up to 6 named nodes (plus ground),
/// two ports, from a seeded deterministic RNG.
fn random_rlc(rng: &mut Rng64) -> Circuit {
    let names = ["n0", "n1", "n2", "n3", "n4", "n5"];
    let n_nodes = 3 + rng.index(4); // 3..=6 non-ground nodes in play
    let n_elements = 4 + rng.index(8);
    let mut c = Circuit::new();
    for _ in 0..n_elements {
        // One extra slot beyond the live nodes selects ground.
        let ka = rng.index(n_nodes + 1);
        let kb = rng.index(n_nodes + 1);
        let a = if ka == n_nodes { "gnd" } else { names[ka] };
        let mut b = if kb == n_nodes { "gnd" } else { names[kb] };
        if a == b {
            b = "gnd";
        }
        if a == b {
            continue;
        }
        match rng.index(3) {
            0 => {
                c.resistor(a, b, rng.uniform(5.0, 5_000.0));
            }
            1 => {
                c.capacitor(a, b, rng.uniform(0.2e-12, 20e-12));
            }
            _ => {
                c.inductor(a, b, rng.uniform(0.5e-9, 50e-9));
            }
        }
    }
    // Ports on the first two nodes; tie each to the network so the port
    // rows are never all-zero (an all-zero row is a legitimate Singular
    // case, also checked for parity below, but rarer is better here).
    c.resistor("n0", "n1", rng.uniform(10.0, 1_000.0));
    c.port("n0", 50.0).port("n1", 50.0);
    c
}

#[test]
fn random_rlc_netlists_are_bit_identical_including_errors() {
    let _serial = serial();
    let mut rng = Rng64::new(0xfa57_9a7b);
    let mut solved = 0u32;
    for case in 0..120 {
        let c = random_rlc(&mut rng);
        let plan = StampPlan::compile(&c).unwrap();
        let mut ws = AcWorkspace::new();
        for &f in &[0.35e9, 1.3e9, 2.8e9] {
            let batch = plan.sweep_batch(&[f], &AcStamps::none(), &mut ws);
            assert_eq!(batch.stats().path, "dense", "case {case}");
            match s_matrix(&c, f, &AcStamps::none()) {
                Ok(l) => {
                    assert!(batch.is_ok(0), "case {case}: spurious failure at {f} Hz");
                    assert_eq!(batch.n_ports(), l.n_ports());
                    for i in 0..l.n_ports() {
                        for j in 0..l.n_ports() {
                            assert_eq!(
                                l.s(i, j).unwrap(),
                                batch.s(0, i, j),
                                "case {case}: bit mismatch in S{i}{j} at {f} Hz"
                            );
                        }
                    }
                    solved += 1;
                }
                Err(e) => assert_eq!(
                    batch.failures(),
                    [(0, e)],
                    "case {case}: error parity at {f} Hz"
                ),
            }
        }
    }
    assert!(
        solved > 200,
        "suite degenerated: only {solved} solvable cases"
    );
}

#[test]
fn singular_and_degenerate_inputs_match_legacy() {
    let _serial = serial();
    // A floating internal node makes the Schur block singular.
    let mut c = Circuit::new();
    c.resistor("in", "out", 75.0)
        .capacitor("float_a", "float_b", 1e-12)
        .port("in", 50.0)
        .port("out", 50.0);
    let plan = StampPlan::compile(&c).unwrap();
    let mut ws = AcWorkspace::new();
    let f = 1.575e9;
    let legacy = s_matrix(&c, f, &AcStamps::none()).unwrap_err();
    assert_eq!(legacy, AcError::Singular(f));
    let batch = plan.sweep_batch(&[f], &AcStamps::none(), &mut ws);
    assert_eq!(batch.failures(), [(0, legacy)]);

    // Non-positive frequency: the engine reports the same error the
    // reference does (regression for the old assert!-panic).
    let good = reference_design_circuit();
    let good_plan = StampPlan::compile(&good).unwrap();
    for bad_f in [0.0, -2.4e9] {
        assert_eq!(
            good_plan
                .sweep_batch(&[bad_f], &AcStamps::none(), &mut ws)
                .failures(),
            [(0, AcError::NonPositiveFrequency(bad_f))]
        );
        assert_eq!(
            two_port_s(&good, bad_f, &AcStamps::none()).unwrap_err(),
            AcError::NonPositiveFrequency(bad_f)
        );
    }
}

/// Seeded random structured netlist: a chain of `sections` series/shunt
/// RLC cells between the two ports (long tridiagonal internal block →
/// the banded path), optionally tied into a shared supply rail through
/// `hub_taps` resistors (one high-degree hub → the bordered path).
/// Every chain node keeps a resistive shunt so pivots stay away from
/// pure-LC resonance zeros.
fn random_structured(rng: &mut Rng64, sections: usize, hub_taps: usize) -> Circuit {
    assert!(sections >= 10, "need a chain long enough to classify");
    let mut c = Circuit::new();
    let name = |i: usize| format!("c{i}");
    for i in 0..sections {
        let (a, b) = (name(i), name(i + 1));
        if rng.index(2) == 0 {
            c.inductor(&a, &b, rng.uniform(1e-9, 8e-9));
        } else {
            c.resistor(&a, &b, rng.uniform(5.0, 80.0));
        }
        c.capacitor(&b, "gnd", rng.uniform(0.3e-12, 3e-12));
        c.resistor(&b, "gnd", rng.uniform(500.0, 5_000.0));
    }
    if hub_taps > 0 {
        // Taps spread evenly across the chain: clustered taps would let
        // RCM absorb the rail into a small bandwidth (still correct, but
        // classified banded); spread taps make the rail a genuine hub
        // that only the bordered path handles efficiently.
        c.vsource("rail", "gnd", 1.0);
        for t in 0..hub_taps {
            let k = 1 + t * (sections - 1) / hub_taps;
            c.resistor(&name(k), "rail", rng.uniform(50.0, 500.0));
        }
    }
    c.port("c0", 50.0).port(&name(sections), 50.0);
    c
}

#[test]
fn random_structured_netlists_match_dense_within_tol() {
    let _serial = serial();
    // Cross-check the three solve paths on seeded random netlists: the
    // legacy dense solve is the oracle; the classifier must pick the
    // banded kernel for plain ladders and the bordered kernel for
    // rail-tied ladders; every grid point must stay inside the
    // documented `SWEEP_TOL` envelope with point-for-point Ok parity.
    let mut rng = Rng64::new(0x5eed_0b0b);
    let freqs = linspace(0.8e9, 2.2e9, 9);
    for case in 0..12 {
        let sections = 10 + rng.index(8);
        let hub_taps = if case % 2 == 1 { 4 + rng.index(3) } else { 0 };
        let expected = if hub_taps == 0 { "banded" } else { "bordered" };
        let c = random_structured(&mut rng, sections, hub_taps);
        let plan = StampPlan::compile(&c).unwrap();
        assert_eq!(plan.solve_path_name(), expected, "case {case}");
        let mut ws = AcWorkspace::new();
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        assert_eq!(batch.stats().path, expected, "case {case}");
        for (p, &f) in freqs.iter().enumerate() {
            match s_matrix(&c, f, &AcStamps::none()) {
                Ok(l) => {
                    assert!(batch.is_ok(p), "case {case}: spurious failure at {f} Hz");
                    for i in 0..2 {
                        for j in 0..2 {
                            let d = (batch.s(p, i, j) - l.s(i, j).unwrap()).abs();
                            assert!(d <= SWEEP_TOL, "case {case}: |ΔS{i}{j}| = {d:e} at {f} Hz");
                        }
                    }
                }
                Err(e) => {
                    assert!(!batch.is_ok(p), "case {case}: missed failure at {f} Hz");
                    assert!(
                        batch.failures().iter().any(|(q, be)| *q == p && *be == e),
                        "case {case}: error parity at {f} Hz"
                    );
                }
            }
        }
    }
}

#[test]
fn structured_paths_report_errors_point_for_point() {
    let _serial = serial();
    // A floating capacitor pair makes the Schur block singular at every
    // frequency. The banded kernel hits a zero pivot, falls back to the
    // dense solve, and must surface the *same* error the legacy path
    // reports — while healthy points of a mixed grid still solve.
    let mut rng = Rng64::new(0xe44_0f0f);
    let mut c = random_structured(&mut rng, 12, 0);
    c.capacitor("float_a", "float_b", 1e-12);
    let plan = StampPlan::compile(&c).unwrap();
    let freqs = [1.1e9, 1.5e9];
    let mut ws = AcWorkspace::new();
    let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
    assert_eq!(batch.failures().len(), freqs.len());
    for (p, &f) in freqs.iter().enumerate() {
        let legacy = s_matrix(&c, f, &AcStamps::none()).unwrap_err();
        assert_eq!(legacy, AcError::Singular(f));
        assert!(batch
            .failures()
            .iter()
            .any(|(q, e)| *q == p && *e == legacy));
    }
}

#[cfg(feature = "rfkit-faults")]
#[test]
fn fault_injection_parity_across_solve_paths() {
    let _serial = serial();
    // One injection site per solve path: dense, banded and bordered
    // sweeps share the `ac.solve` site and frequency-bits key with the
    // legacy path, so a targeted fault fails the same grid point on both
    // sides while neighbours sail through.
    use rfkit_robust::faults::{self, FaultKind, FaultPlan};
    let mut rng = Rng64::new(0xfa017);
    let cases = [
        (reference_design_circuit(), "dense"),
        (random_structured(&mut rng, 12, 0), "banded"),
        (random_structured(&mut rng, 12, 4), "bordered"),
    ];
    let freqs = [1.1e9, 1.4e9, 1.7e9];
    let f_bad: f64 = freqs[1];
    for (c, path) in &cases {
        let plan = StampPlan::compile(c).unwrap();
        assert_eq!(plan.solve_path_name(), *path);
        let mut ws = AcWorkspace::new();
        let _g = faults::scoped(FaultPlan::new().fail_keys(
            "ac.solve",
            FaultKind::SingularLu,
            &[f_bad.to_bits()],
        ));
        let batch = plan.sweep_batch(&freqs, &AcStamps::none(), &mut ws);
        for (p, &f) in freqs.iter().enumerate() {
            let legacy = s_matrix(c, f, &AcStamps::none());
            if f == f_bad {
                assert_eq!(legacy.unwrap_err(), AcError::Singular(f), "{path}");
                assert!(
                    batch
                        .failures()
                        .iter()
                        .any(|(q, e)| *q == p && *e == AcError::Singular(f)),
                    "{path}: batch missed the injected fault"
                );
            } else {
                assert!(legacy.is_ok(), "{path}: healthy legacy point failed");
                assert!(batch.is_ok(p), "{path}: healthy batch point failed");
            }
        }
    }
}

#[test]
fn workspace_survives_topology_changes() {
    let _serial = serial();
    // Sharing one workspace across plans of different sizes re-warms but
    // stays bit-identical (1-point batches on the dense path).
    let small = {
        let mut c = Circuit::new();
        c.resistor("in", "out", 50.0)
            .port("in", 50.0)
            .port("out", 50.0);
        c
    };
    let big = reference_design_circuit();
    let plan_small = StampPlan::compile(&small).unwrap();
    let plan_big = StampPlan::compile(&big).unwrap();
    let mut ws = AcWorkspace::new();
    for _ in 0..3 {
        // Two points per plan before switching topology.
        for (plan, c) in [(&plan_small, &small), (&plan_big, &big)] {
            for f in [1.2e9, 1.5e9] {
                let batch = plan.sweep_batch(&[f], &AcStamps::none(), &mut ws);
                assert_eq!(
                    batch.two_port(0).unwrap(),
                    two_port_s(c, f, &AcStamps::none()).unwrap()
                );
            }
        }
    }
    // Each small->big or big->small switch re-warms; the second point on
    // every plan reuses.
    assert_eq!(ws.warmup_count() + ws.reuse_count(), 12);
    assert_eq!(ws.warmup_count(), 6);
}
