#![cfg(feature = "fuzz")]

//! Property-based equivalence of the compiled sparse engine against the
//! dense reference engine: random RLC+diode netlists must produce the
//! same DC operating points and the same transient trajectories (both
//! engines run identical Newton/LTE control flow, so trajectories agree
//! to solver tolerance, not just physics tolerance).

use analog::{Circuit, DiodeModel, SourceFn, TranConfig};
use proptest::prelude::*;

/// One ladder section: series resistance, shunt capacitance, and flags
/// for an optional diode clamp and an optional shunt inductor.
type Section = (f64, f64, bool, bool);

/// A randomly parameterized ladder: source → N sections of series R
/// with shunt C (plus optional diode/inductor). Every node has a DC
/// path to ground through the series resistors, so the netlist is
/// always well-posed.
fn ladder_strategy() -> impl Strategy<Value = (f64, f64, Vec<Section>)> {
    (
        0.5f64..5.0,
        1.0e4f64..1.0e6,
        proptest::collection::vec(
            (10.0f64..10.0e3, 10.0e-12f64..10.0e-9, any::<bool>(), any::<bool>()),
            2..5,
        ),
    )
}

fn build(v_amp: f64, freq: f64, sections: &[Section]) -> Circuit {
    let mut ckt = Circuit::new();
    let mut prev = ckt.node("n0");
    ckt.voltage_source("V1", prev, Circuit::GND, SourceFn::sine(v_amp, freq));
    for (i, &(r, c, diode, ind)) in sections.iter().enumerate() {
        let node = ckt.node(&format!("n{}", i + 1));
        ckt.resistor(&format!("R{i}"), prev, node, r);
        ckt.capacitor(&format!("C{i}"), node, Circuit::GND, c);
        if diode {
            ckt.diode(&format!("D{i}"), node, Circuit::GND, DiodeModel::silicon());
        }
        if ind {
            ckt.inductor(&format!("L{i}"), node, Circuit::GND, 100.0e-6);
        }
        prev = node;
    }
    ckt
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// DC operating points agree to solver tolerance on random ladders.
    #[test]
    fn compiled_dc_matches_reference((v_amp, freq, sections) in ladder_strategy()) {
        let ckt = build(v_amp, freq, &sections);
        let compiled = ckt.compile().unwrap().dc_op().unwrap();
        let reference = ckt.dc_op_reference().unwrap();
        for (node, vc) in compiled.voltages() {
            let vr = reference.voltage(node).unwrap();
            prop_assert!(
                (vc - vr).abs() <= 1e-9 * vc.abs().max(vr.abs()) + 1e-9,
                "node {}: compiled {} vs reference {}", node, vc, vr
            );
        }
        for (dev, ic) in compiled.currents() {
            let ir = reference.current(dev).unwrap();
            prop_assert!(
                (ic - ir).abs() <= 1e-9 * ic.abs().max(ir.abs()) + 1e-9,
                "branch {}: compiled {} vs reference {}", dev, ic, ir
            );
        }
    }

    /// Transient trajectories agree at sampled times on random ladders.
    #[test]
    fn compiled_transient_matches_reference((v_amp, freq, sections) in ladder_strategy()) {
        let ckt = build(v_amp, freq, &sections);
        let t_stop = 4.0 / freq;
        let max_step = t_stop / 400.0;
        let reference = ckt
            .transient_reference(&TranConfig::builder(t_stop).max_step(max_step).build())
            .unwrap();
        let compiled = ckt
            .compile()
            .unwrap()
            .tran(&TranConfig::builder(t_stop).max_step(max_step).build())
            .unwrap();
        let last = format!("n{}", sections.len());
        let wr = reference.trace(&last).unwrap();
        let wc = compiled.trace(&last).unwrap();
        let span = wr.values().iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-9);
        for k in 0..=40 {
            let t = t_stop * k as f64 / 40.0;
            let dv = (wr.value_at(t) - wc.value_at(t)).abs();
            prop_assert!(
                dv <= 1e-5 * span,
                "{} at t={:.3e}: reference {} vs compiled {} (span {})",
                last, t, wr.value_at(t), wc.value_at(t), span
            );
        }
    }
}
