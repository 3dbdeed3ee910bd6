#![cfg(feature = "fuzz")]

//! Property-based tests on the simulator's core invariants.

use analog::{Circuit, SourceFn, TranConfig};
use analog::linalg::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A resistive divider always obeys the divider formula, for any
    /// positive resistances and any source voltage.
    #[test]
    fn divider_formula(
        r1 in 1.0f64..1.0e6,
        r2 in 1.0f64..1.0e6,
        v in -100.0f64..100.0,
    ) {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(v));
        ckt.resistor("R1", vin, out, r1);
        ckt.resistor("R2", out, Circuit::GND, r2);
        let op = ckt.compile().unwrap().dc_op().unwrap();
        let expect = v * r2 / (r1 + r2);
        prop_assert!((op.voltage("out").unwrap() - expect).abs() < 1e-6 + 1e-6 * expect.abs());
    }

    /// Superposition: the response to two DC sources equals the sum of the
    /// responses to each alone (linear circuit).
    #[test]
    fn superposition_holds(
        v1 in -10.0f64..10.0,
        v2 in -10.0f64..10.0,
        r in 10.0f64..1.0e5,
    ) {
        let solve = |va: f64, vb: f64| -> f64 {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            let b = ckt.node("b");
            let out = ckt.node("out");
            ckt.voltage_source("VA", a, Circuit::GND, SourceFn::dc(va));
            ckt.voltage_source("VB", b, Circuit::GND, SourceFn::dc(vb));
            ckt.resistor("R1", a, out, r);
            ckt.resistor("R2", b, out, 2.0 * r);
            ckt.resistor("R3", out, Circuit::GND, 3.0 * r);
            ckt.compile().unwrap().dc_op().unwrap().voltage("out").unwrap()
        };
        let both = solve(v1, v2);
        let sum = solve(v1, 0.0) + solve(0.0, v2);
        prop_assert!((both - sum).abs() < 1e-6 + 1e-6 * both.abs());
    }

    /// RC charging reaches 63.2 % of the source at one time constant for
    /// arbitrary R and C spanning six decades.
    #[test]
    fn rc_tau_accuracy(
        r_exp in 1.0f64..6.0,
        c_exp in -9.0f64..-4.0,
    ) {
        let r = 10.0f64.powf(r_exp);
        let c = 10.0f64.powf(c_exp);
        let tau = r * c;
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(1.0));
        ckt.resistor("R1", vin, out, r);
        ckt.capacitor_with_ic("C1", out, Circuit::GND, c, 0.0);
        let res = ckt
            .compile().unwrap().tran(&TranConfig::builder(2.0 * tau).max_step(tau / 50.0).build())
            .unwrap();
        let v_tau = res.trace("out").unwrap().value_at(tau);
        let expect = 1.0 - (-1.0f64).exp();
        prop_assert!((v_tau - expect).abs() < 0.01, "v(τ) = {}", v_tau);
    }

    /// LU solve leaves a tiny residual on random diagonally dominant
    /// systems of any size up to 24.
    #[test]
    fn lu_residual_small(
        n in 1usize..24,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
        };
        let mut m: Matrix<f64> = Matrix::zeros(n);
        for r in 0..n {
            for c in 0..n {
                m.set(r, c, next());
            }
            m.add(r, r, n as f64 + 1.0);
        }
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let x = m.solve(&b).unwrap();
        let res = m.residual(&x, &b);
        prop_assert!(res.iter().all(|v| v.abs() < 1e-9));
    }

    /// Power balance in a resistive network: source power equals the sum
    /// of resistor dissipation.
    #[test]
    fn power_balance(
        v in 0.1f64..50.0,
        r1 in 10.0f64..1e5,
        r2 in 10.0f64..1e5,
        r3 in 10.0f64..1e5,
    ) {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(v));
        ckt.resistor("R1", a, b, r1);
        ckt.resistor("R2", b, Circuit::GND, r2);
        ckt.resistor("R3", b, Circuit::GND, r3);
        let op = ckt.compile().unwrap().dc_op().unwrap();
        let vb = op.voltage("b").unwrap();
        let i_src = op.current("V1").unwrap();
        let p_src = -v * i_src; // source delivers −v·i(p→n)
        let p_r = (v - vb).powi(2) / r1 + vb * vb / r2 + vb * vb / r3;
        prop_assert!((p_src - p_r).abs() < 1e-9 + 1e-6 * p_r);
    }

    /// The trapezoidal and backward-Euler integrators agree on a smooth
    /// RC waveform within tolerance.
    #[test]
    fn integrators_agree(r_exp in 2.0f64..4.0) {
        use analog::analysis::Integration;
        let r = 10.0f64.powf(r_exp);
        let c = 1.0e-6;
        let tau = r * c;
        let build = || {
            let mut ckt = Circuit::new();
            let vin = ckt.node("in");
            let out = ckt.node("out");
            ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(2.0));
            ckt.resistor("R1", vin, out, r);
            ckt.capacitor_with_ic("C1", out, Circuit::GND, c, 0.0);
            ckt
        };
        let cfg_tr = TranConfig::builder(2.0 * tau).max_step(tau / 100.0).build();
        let cfg_be = TranConfig { method: Integration::BackwardEuler, ..cfg_tr.clone() };
        let w_tr = build().compile().unwrap().tran(&cfg_tr).unwrap().trace("out").unwrap();
        let w_be = build().compile().unwrap().tran(&cfg_be).unwrap().trace("out").unwrap();
        for k in [0.5, 1.0, 1.5] {
            prop_assert!((w_tr.value_at(k * tau) - w_be.value_at(k * tau)).abs() < 0.02);
        }
    }
}
