//! End-to-end validation of the simulator against closed-form circuit
//! theory: if these hold, the engine is trustworthy for the paper's
//! rectifier/demodulator circuits.

use analog::{
    AcSpec, Circuit, DiodeModel, MosModel, SourceFn, SwitchModel, TranConfig,
};
use analog::analysis::Integration;
use analog::waveform::Edge;

const TAU: f64 = std::f64::consts::TAU;

#[test]
fn voltage_divider_dc() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(10.0));
    ckt.resistor("R1", vin, out, 3.0e3);
    ckt.resistor("R2", out, Circuit::GND, 7.0e3);
    let op = ckt.compile().unwrap().dc_op().unwrap();
    assert!((op.voltage("out").unwrap() - 7.0).abs() < 1e-6);
    // Source current: 10 V / 10 kΩ = 1 mA flowing out of the + terminal,
    // i.e. −1 mA in the p→n internal convention.
    assert!((op.current("V1").unwrap() + 1.0e-3).abs() < 1e-9);
}

#[test]
fn current_source_polarity() {
    // current_source(p, n) injects into p: 1 mA into 1 kΩ gives +1 V.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.current_source("I1", a, Circuit::GND, SourceFn::dc(1.0e-3));
    ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    let op = ckt.compile().unwrap().dc_op().unwrap();
    assert!((op.voltage("a").unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn rc_step_response_trapezoidal() {
    let (r, c, v0) = (10.0e3, 100.0e-9, 5.0);
    let tau = r * c; // 1 ms
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(v0));
    ckt.resistor("R1", vin, out, r);
    ckt.capacitor_with_ic("C1", out, Circuit::GND, c, 0.0);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(5.0 * tau).max_step(tau / 100.0).build())
        .unwrap();
    let w = res.trace("out").unwrap();
    for k in [0.5f64, 1.0, 2.0, 3.0] {
        let expect = v0 * (1.0 - (-k).exp());
        let got = w.value_at(k * tau);
        assert!((got - expect).abs() < 0.01, "at {k}τ: {got} vs {expect}");
    }
}

#[test]
fn rc_step_response_backward_euler() {
    let (r, c, v0) = (1.0e3, 1.0e-6, 3.0);
    let tau = r * c;
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(v0));
    ckt.resistor("R1", vin, out, r);
    ckt.capacitor_with_ic("C1", out, Circuit::GND, c, 0.0);
    let cfg = TranConfig::builder(5.0 * tau)
        .max_step(tau / 200.0)
        .method(Integration::BackwardEuler)
        .build();
    let res = ckt.compile().unwrap().tran(&cfg).unwrap();
    let w = res.trace("out").unwrap();
    let expect = v0 * (1.0 - (-1.0f64).exp());
    assert!((w.value_at(tau) - expect).abs() < 0.02);
}

#[test]
fn capacitor_initial_condition_discharge() {
    let (r, c) = (1.0e3, 1.0e-6);
    let tau = r * c;
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.capacitor_with_ic("C1", a, Circuit::GND, c, 2.0);
    ckt.resistor("R1", a, Circuit::GND, r);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(3.0 * tau).max_step(tau / 100.0).build())
        .unwrap();
    let w = res.trace("a").unwrap();
    assert!((w.value_at(0.0) - 2.0).abs() < 0.02);
    assert!((w.value_at(tau) - 2.0 * (-1.0f64).exp()).abs() < 0.01);
}

#[test]
fn rl_current_rise() {
    let (r, l, v0) = (100.0, 10.0e-3, 1.0);
    let tau = l / r; // 100 µs
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let mid = ckt.node("mid");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(v0));
    ckt.resistor("R1", vin, mid, r);
    ckt.inductor_with_ic("L1", mid, Circuit::GND, l, 0.0);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(5.0 * tau).max_step(tau / 100.0).build())
        .unwrap();
    let i = res.current_trace("L1").unwrap();
    let expect = v0 / r * (1.0 - (-1.0f64).exp());
    assert!((i.value_at(tau) - expect).abs() < 2e-4, "i(τ) = {}", i.value_at(tau));
    assert!((i.final_value() - v0 / r).abs() < 2e-4);
}

#[test]
fn series_rlc_ringing_frequency() {
    // Underdamped series RLC: f_d = sqrt(1/LC − (R/2L)²)/2π.
    let (r, l, c): (f64, f64, f64) = (10.0, 1.0e-3, 1.0e-6);
    let w0sq = 1.0 / (l * c);
    let alpha = r / (2.0 * l);
    let fd = (w0sq - alpha * alpha).sqrt() / TAU;
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let a = ckt.node("a");
    let out = ckt.node("out");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(1.0));
    ckt.resistor("R1", vin, a, r);
    ckt.inductor("L1", a, out, l);
    ckt.capacitor_with_ic("C1", out, Circuit::GND, c, 0.0);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(20.0 / fd).max_step(1.0 / (fd * 200.0)).build())
        .unwrap();
    let w = res.trace("out").unwrap();
    // Measure ringing period from successive rising crossings of the final value.
    let crossings = w.crossings(1.0, Edge::Rising);
    assert!(crossings.len() >= 3, "expected ringing, got {} crossings", crossings.len());
    let period = crossings[2] - crossings[1];
    let f_meas = 1.0 / period;
    assert!(
        (f_meas - fd).abs() / fd < 0.02,
        "measured {f_meas:.1} Hz vs damped resonance {fd:.1} Hz"
    );
}

#[test]
fn diode_forward_drop() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let a = ckt.node("a");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(5.0));
    ckt.resistor("R1", vin, a, 4.3e3); // ≈ 1 mA
    ckt.diode("D1", a, Circuit::GND, DiodeModel::silicon());
    let op = ckt.compile().unwrap().dc_op().unwrap();
    let vd = op.voltage("a").unwrap();
    assert!((0.5..0.8).contains(&vd), "vd = {vd}");
    // Shockley consistency: i = is·exp(vd/vt)
    let i = (5.0 - vd) / 4.3e3;
    let i_shockley = 1.0e-15 * ((vd / 0.025852).exp() - 1.0);
    assert!((i - i_shockley).abs() / i < 0.02);
}

#[test]
fn diode_iv_sweep_monotonic() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(0.0));
    ckt.diode("D1", vin, Circuit::GND, DiodeModel::silicon());
    let values: Vec<f64> = (0..30).map(|i| i as f64 * 0.025).collect();
    let sweep = ckt.compile().unwrap().dc_sweep("V1", &values).unwrap();
    let i = sweep.current_series("V1").unwrap();
    // Source current is −i_diode; magnitude must grow monotonically.
    for w in i.windows(2) {
        assert!(w[1] <= w[0] + 1e-15, "diode current not monotone: {w:?}");
    }
    assert!(i.last().unwrap().abs() > 1e-6);
}

#[test]
fn half_wave_rectifier_with_smoothing() {
    // 10 Vpk 1 kHz sine → diode → 10 µF ‖ 10 kΩ: output near peak, small ripple.
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let out = ckt.node("out");
    ckt.voltage_source("V1", src, Circuit::GND, SourceFn::sine(10.0, 1.0e3));
    ckt.diode("D1", src, out, DiodeModel::silicon());
    ckt.capacitor("C1", out, Circuit::GND, 10.0e-6);
    ckt.resistor("RL", out, Circuit::GND, 10.0e3);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(10.0e-3).max_step(2.0e-6).build())
        .unwrap();
    let w = res.trace("out").unwrap();
    let v_settled = w.average_in(5.0e-3, 10.0e-3);
    assert!((8.8..10.0).contains(&v_settled), "v_out = {v_settled}");
    // Ripple below 0.5 V at this load.
    let ripple = w.max_in(5e-3, 10e-3) - w.min_in(5e-3, 10e-3);
    assert!(ripple < 0.5, "ripple = {ripple}");
}

#[test]
fn nmos_diode_connected_current() {
    // Diode-connected NMOS from 1.8 V through a resistor: square law holds.
    let m = MosModel::n018(10.0e-6, 1.0e-6).without_junctions();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let d = ckt.node("d");
    ckt.voltage_source("V1", vdd, Circuit::GND, SourceFn::dc(1.8));
    ckt.resistor("R1", vdd, d, 10.0e3);
    ckt.mosfet("M1", d, d, Circuit::GND, Circuit::GND, m);
    let op = ckt.compile().unwrap().dc_op().unwrap();
    let vgs = op.voltage("d").unwrap();
    let i_r = (1.8 - vgs) / 10.0e3;
    // Saturation square law (diode-connected is always saturated).
    let beta = m.beta();
    let i_sq = 0.5 * beta * (vgs - m.vto).powi(2) * (1.0 + m.lambda * vgs);
    assert!(
        (i_r - i_sq).abs() / i_r < 1e-3,
        "resistor current {i_r} vs square law {i_sq}"
    );
}

#[test]
fn cmos_inverter_transfer() {
    let nm = MosModel::n018(2.0e-6, 0.18e-6).without_junctions();
    let pm = MosModel::p018(5.0e-6, 0.18e-6).without_junctions();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source("VDD", vdd, Circuit::GND, SourceFn::dc(1.8));
    ckt.voltage_source("VIN", vin, Circuit::GND, SourceFn::dc(0.0));
    ckt.mosfet("MN", out, vin, Circuit::GND, Circuit::GND, nm);
    ckt.mosfet("MP", out, vin, vdd, vdd, pm);
    let values: Vec<f64> = (0..=18).map(|i| i as f64 * 0.1).collect();
    let sweep = ckt.compile().unwrap().dc_sweep("VIN", &values).unwrap();
    let vout = sweep.voltage_series("out").unwrap();
    // Rails at the ends, monotone falling in between.
    assert!(vout[0] > 1.75, "low input gives high output: {}", vout[0]);
    assert!(vout[18] < 0.05, "high input gives low output: {}", vout[18]);
    for w in vout.windows(2) {
        assert!(w[1] <= w[0] + 5e-3, "inverter transfer must be monotone");
    }
}

#[test]
fn switch_discharges_capacitor() {
    // Cap charged to 5 V; at t = 1 ms a control pulse closes the switch.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let ctl = ckt.node("ctl");
    ckt.capacitor_with_ic("C1", a, Circuit::GND, 1.0e-6, 5.0);
    ckt.switch("S1", a, Circuit::GND, ctl, Circuit::GND, SwitchModel { von: 1.5, voff: 0.5, ron: 10.0, roff: 1.0e9 });
    ckt.voltage_source(
        "VC",
        ctl,
        Circuit::GND,
        SourceFn::Pulse { v1: 0.0, v2: 3.0, delay: 1.0e-3, rise: 1e-7, fall: 1e-7, width: 5.0e-3, period: 0.0 },
    );
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(2.0e-3).max_step(5.0e-6).build())
        .unwrap();
    let w = res.trace("a").unwrap();
    assert!(w.value_at(0.9e-3) > 4.99, "holds before the pulse");
    // τ = 10 Ω · 1 µF = 10 µs; by 1.1 ms it is fully discharged.
    assert!(w.value_at(1.1e-3).abs() < 0.05, "discharged after pulse");
}

#[test]
fn coupled_inductors_transformer_ratio() {
    // 1:4 turns (L ∝ n²): L2/L1 = 16, ideal voltage gain ≈ k·√16 = 4·k.
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let prim = ckt.node("prim");
    let sec = ckt.node("sec");
    ckt.voltage_source("V1", src, Circuit::GND, SourceFn::sine(1.0, 10.0e3));
    ckt.resistor("RS", src, prim, 1.0);
    let l1 = ckt.inductor("L1", prim, Circuit::GND, 1.0e-3);
    let l2 = ckt.inductor("L2", sec, Circuit::GND, 16.0e-3);
    ckt.couple(l1, l2, 0.999);
    ckt.resistor("RL", sec, Circuit::GND, 100.0e3);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(1.0e-3).max_step(2.0e-7).build())
        .unwrap();
    let sec_w = res.trace("sec").unwrap();
    // Measure the secondary amplitude after start-up.
    let (amp, _) = sec_w.tone(10.0e3, 0.5e-3, 1.0e-3);
    let expect = 4.0 * 0.999;
    assert!(
        (amp - expect).abs() / expect < 0.1,
        "secondary amplitude {amp} vs {expect}"
    );
}

#[test]
fn vcvs_and_vccs_gains() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    let c = ckt.node("c");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(0.5));
    ckt.vcvs("E1", b, Circuit::GND, a, Circuit::GND, 10.0);
    ckt.resistor("RB", b, Circuit::GND, 1.0e3);
    // VCCS draws gm·v from c into ground; with gm negative it sources.
    ckt.vccs("G1", Circuit::GND, c, a, Circuit::GND, 2.0e-3);
    ckt.resistor("RC", c, Circuit::GND, 1.0e3);
    let op = ckt.compile().unwrap().dc_op().unwrap();
    assert!((op.voltage("b").unwrap() - 5.0).abs() < 1e-6);
    // G1: i(gnd→c) = gm·0.5 = 1 mA into node c → +1 V across RC.
    assert!((op.voltage("c").unwrap() - 1.0).abs() < 1e-6);
}

#[test]
fn ac_rc_lowpass_corner() {
    let (r, c) = (1.0e3, 159.15e-9); // corner ≈ 1 kHz
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let out = ckt.node("out");
    ckt.voltage_source_ac("V1", vin, Circuit::GND, SourceFn::dc(0.0), 1.0, 0.0);
    ckt.resistor("R1", vin, out, r);
    ckt.capacitor("C1", out, Circuit::GND, c);
    let res = ckt.compile().unwrap().ac(&AcSpec::log_sweep(10.0, 100.0e3, 40)).unwrap();
    let f3 = res.corner_frequency("out").unwrap();
    let expect = 1.0 / (TAU * r * c);
    assert!((f3 - expect).abs() / expect < 0.03, "corner {f3} vs {expect}");
    // Phase approaches −90°.
    let ph = res.phase_degrees("out").unwrap();
    assert!(ph.last().unwrap() < &-85.0);
}

#[test]
fn ac_series_resonance() {
    // Series RLC driven by 1 V: current peaks at f0 = 1/(2π√LC) with |I| = 1/R.
    let (r, l, c): (f64, f64, f64) = (10.0, 100.0e-6, 101.32e-12);
    let f0 = 1.0 / (TAU * (l * c).sqrt());
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source_ac("V1", vin, Circuit::GND, SourceFn::dc(0.0), 1.0, 0.0);
    ckt.resistor("R1", vin, a, r);
    ckt.inductor("L1", a, b, l);
    ckt.capacitor("C1", b, Circuit::GND, c);
    let res = ckt.compile().unwrap().ac(&AcSpec::linear_sweep(0.8 * f0, 1.2 * f0, 201)).unwrap();
    let i = res.phasors("I(V1)").unwrap();
    let (k_max, _) = i
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.abs().partial_cmp(&y.abs()).unwrap())
        .unwrap();
    let f_peak = res.frequencies()[k_max];
    assert!((f_peak - f0).abs() / f0 < 0.01, "peak {f_peak} vs {f0}");
    assert!((i[k_max].abs() - 0.1).abs() < 0.002, "peak current {}", i[k_max].abs());
}

#[test]
fn am_source_envelope_detection() {
    // ASK-style test: AM carrier at 1 MHz with a 2-level envelope through a
    // rectifier into an RC — the detected envelope follows the modulation.
    let envelope = analog::source::Pwl::new(vec![
        (0.0, 3.0),
        (50.0e-6, 3.0),
        (51.0e-6, 1.2),
        (100.0e-6, 1.2),
        (101.0e-6, 3.0),
        (150.0e-6, 3.0),
    ]);
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let det = ckt.node("det");
    ckt.voltage_source("V1", src, Circuit::GND, SourceFn::am(envelope, 1.0e6));
    ckt.diode("D1", src, det, DiodeModel::schottky());
    ckt.capacitor("C1", det, Circuit::GND, 2.0e-9);
    ckt.resistor("R1", det, Circuit::GND, 20.0e3);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(150.0e-6).max_step(5.0e-8).build())
        .unwrap();
    let w = res.trace("det").unwrap();
    let hi1 = w.average_in(30e-6, 50e-6);
    let lo = w.average_in(80e-6, 100e-6);
    let hi2 = w.average_in(130e-6, 150e-6);
    assert!(hi1 > 2.2, "hi1 = {hi1}");
    assert!(lo < 1.3, "lo = {lo}");
    assert!(hi2 > 2.0, "hi2 = {hi2}");
    assert!(hi1 - lo > 1.0, "detected modulation depth");
}

#[test]
fn transient_stats_are_recorded() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::sine(1.0, 1.0e3));
    ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    let res = ckt.compile().unwrap().tran(&TranConfig::builder(1.0e-3).build()).unwrap();
    let (accepted, _) = res.step_counts();
    assert!(accepted > 10);
    assert!(res.newton_iterations() >= accepted);
    assert_eq!(res.time().len(), res.len());
}

#[test]
fn floating_node_is_pinned_not_fatal() {
    // A node connected only through a capacitor would classically make the
    // DC matrix singular; the gshunt keeps it solvable at 0 V.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let f = ckt.node("floating");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(1.0));
    ckt.capacitor("C1", a, f, 1.0e-9);
    ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    let op = ckt.compile().unwrap().dc_op().unwrap();
    assert!(op.voltage("floating").unwrap().abs() < 1e-3);
}

#[test]
fn power_traces_balance() {
    // Source delivery equals total resistor dissipation in steady state.
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::sine(2.0, 1.0e3));
    ckt.resistor("R1", a, b, 1.0e3);
    ckt.resistor("R2", b, Circuit::GND, 2.0e3);
    let res = ckt
        .compile().unwrap().tran(&TranConfig::builder(2.0e-3).max_step(2.0e-6).build())
        .unwrap();
    let p_src = ckt.power_trace(&res, "V1").unwrap();
    let p_r1 = ckt.power_trace(&res, "R1").unwrap();
    let p_r2 = ckt.power_trace(&res, "R2").unwrap();
    let (t0, t1) = (1.0e-3, 2.0e-3);
    // Source absorbs negative power (it delivers).
    let delivered = -p_src.average_in(t0, t1);
    let dissipated = p_r1.average_in(t0, t1) + p_r2.average_in(t0, t1);
    assert!(delivered > 0.0);
    assert!(
        (delivered - dissipated).abs() / dissipated < 1e-3,
        "balance: {delivered} vs {dissipated}"
    );
    // Average sine power in R: (A²/2)·R/(R1+R2)² ratios — check R2 share.
    let expect_r2 = 0.5 * 4.0 * 2.0e3 / (3.0e3f64).powi(2);
    assert!((p_r2.average_in(t0, t1) - expect_r2).abs() / expect_r2 < 1e-2);
}

#[test]
fn power_trace_error_paths() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(1.0));
    ckt.diode("D1", a, Circuit::GND, DiodeModel::silicon());
    let res = ckt.compile().unwrap().tran(&TranConfig::builder(1.0e-6).build()).unwrap();
    assert!(matches!(
        ckt.power_trace(&res, "nope"),
        Err(analog::SimError::NotFound(_))
    ));
    assert!(matches!(
        ckt.power_trace(&res, "D1"),
        Err(analog::SimError::InvalidParameter { .. })
    ));
}

#[test]
fn empty_circuit_is_invalid() {
    let ckt = Circuit::new();
    assert!(matches!(
        ckt.compile().and_then(|sim| sim.dc_op()),
        Err(analog::SimError::InvalidCircuit(_))
    ));
}

#[test]
fn ac_small_signal_of_biased_diode() {
    // A diode biased at I has small-signal resistance vt/I; with a series
    // R the AC division follows rd/(R + rd).
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source_ac("V1", a, Circuit::GND, SourceFn::dc(5.0), 1.0, 0.0);
    ckt.resistor("R1", a, b, 4.3e3);
    ckt.diode("D1", b, Circuit::GND, DiodeModel::silicon());
    let op = ckt.compile().unwrap().dc_op().unwrap();
    let i_bias = (5.0 - op.voltage("b").unwrap()) / 4.3e3;
    let rd = 0.025852 / i_bias;
    let res = ckt.compile().unwrap().ac(&AcSpec::single(1.0e3)).unwrap();
    let gain = res.phasors("b").unwrap()[0].abs();
    let expect = rd / (4.3e3 + rd);
    assert!(
        (gain - expect).abs() / expect < 0.02,
        "ac division {gain} vs rd model {expect}"
    );
}

#[test]
fn ac_common_source_amplifier_gain() {
    // Classic check: |gain| = gm·Rd at the operating point.
    let m = MosModel::n018(2.0e-6, 1.0e-6).without_junctions();
    let mut ckt = Circuit::new();
    let vdd = ckt.node("vdd");
    let g = ckt.node("g");
    let d = ckt.node("d");
    ckt.voltage_source("VDD", vdd, Circuit::GND, SourceFn::dc(1.8));
    ckt.voltage_source_ac("VIN", g, Circuit::GND, SourceFn::dc(0.9), 1.0e-3, 0.0);
    ckt.resistor("RD", vdd, d, 10.0e3);
    ckt.mosfet("M1", d, g, Circuit::GND, Circuit::GND, m);
    // Expected gm from the square law at the bias point.
    let op = ckt.compile().unwrap().dc_op().unwrap();
    let vd = op.voltage("d").unwrap();
    assert!(vd > 0.2 && vd < 1.6, "bias in the active region: {vd}");
    let (_, gm, gds, _) = m.eval_normalized(0.9, vd, 0.0);
    let expect = gm * (1.0 / (1.0 / 10.0e3 + gds));
    let res = ckt.compile().unwrap().ac(&AcSpec::single(1.0e3)).unwrap();
    let gain = res.phasors("d").unwrap()[0].abs() / 1.0e-3;
    assert!(
        (gain - expect).abs() / expect < 0.05,
        "CS gain {gain} vs gm·Rout {expect}"
    );
}

#[test]
fn csv_export_round_trips_columns() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(1.0));
    ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    let res = ckt.compile().unwrap().tran(&TranConfig::builder(1.0e-6).build()).unwrap();
    let mut buf = Vec::new();
    res.write_csv(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    let mut lines = text.lines();
    let header = lines.next().unwrap();
    assert!(header.starts_with("time,"));
    assert!(header.contains("a") && header.contains("I(V1)"));
    // One data row per sample, comma counts consistent.
    let cols = header.split(',').count();
    for line in lines {
        assert_eq!(line.split(',').count(), cols);
    }
    // Waveform-level export too.
    let w = res.trace("a").unwrap();
    let mut buf2 = Vec::new();
    w.write_csv(&mut buf2).unwrap();
    assert!(String::from_utf8(buf2).unwrap().lines().count() == w.len() + 1);
}
