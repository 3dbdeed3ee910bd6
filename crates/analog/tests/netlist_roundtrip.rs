//! Round-trip tests: builder → netlist text → parser → same behaviour.

use analog::parse::parse_netlist;
use analog::{Circuit, DiodeModel, MosModel, SourceFn, SwitchModel, TranConfig};

#[test]
fn divider_round_trip() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(9.0));
    ckt.resistor("R1", a, b, 6.0e3);
    ckt.resistor("R2", b, Circuit::GND, 3.0e3);
    let text = ckt.to_netlist();
    let back = parse_netlist(&text).expect("round-trips");
    let (op1, op2) = (ckt.compile().unwrap().dc_op().unwrap(), back.compile().unwrap().dc_op().unwrap());
    assert!((op1.voltage("b").unwrap() - op2.voltage("b").unwrap()).abs() < 1e-12);
    assert!((op2.voltage("b").unwrap() - 3.0).abs() < 1e-6);
}

#[test]
fn nonlinear_circuit_round_trip() {
    let mut ckt = Circuit::new();
    let vin = ckt.node("in");
    let d = ckt.node("d");
    let sw = ckt.node("sw");
    let ctl = ckt.node("ctl");
    ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::dc(1.8));
    ckt.voltage_source("VC", ctl, Circuit::GND, SourceFn::dc(3.0));
    ckt.resistor("R1", vin, d, 10.0e3);
    ckt.mosfet("M1", d, d, Circuit::GND, Circuit::GND, MosModel::n018(10.0e-6, 1.0e-6));
    ckt.diode("D1", vin, sw, DiodeModel::schottky());
    ckt.switch("S1", sw, Circuit::GND, ctl, Circuit::GND, SwitchModel::logic());
    let text = ckt.to_netlist();
    let back = parse_netlist(&text).expect("round-trips");
    let (op1, op2) = (ckt.compile().unwrap().dc_op().unwrap(), back.compile().unwrap().dc_op().unwrap());
    for node in ["d", "sw"] {
        let (v1, v2) = (op1.voltage(node).unwrap(), op2.voltage(node).unwrap());
        assert!((v1 - v2).abs() < 1e-9, "{node}: {v1} vs {v2}");
    }
}

#[test]
fn dynamic_circuit_round_trip_transient() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source(
        "V1",
        a,
        Circuit::GND,
        SourceFn::Sine { offset: 0.0, amplitude: 2.0, frequency: 10.0e3, delay: 0.0, phase: 0.0 },
    );
    ckt.resistor("R1", a, b, 1.0e3);
    ckt.capacitor_with_ic("C1", b, Circuit::GND, 15.9e-9, 0.0);
    let back = parse_netlist(&ckt.to_netlist()).expect("round-trips");
    let cfg = TranConfig::builder(200.0e-6).max_step(0.5e-6).build();
    let w1 = ckt.compile().unwrap().tran(&cfg).unwrap().trace("b").unwrap();
    let w2 = back.compile().unwrap().tran(&cfg).unwrap().trace("b").unwrap();
    for k in 1..10 {
        let t = k as f64 * 20.0e-6;
        assert!((w1.value_at(t) - w2.value_at(t)).abs() < 1e-6, "t = {t}");
    }
}

#[test]
fn coupled_inductors_round_trip() {
    let mut ckt = Circuit::new();
    let p = ckt.node("p");
    let s = ckt.node("s");
    ckt.voltage_source("V1", p, Circuit::GND, SourceFn::sine(1.0, 100.0e3));
    let l1 = ckt.inductor("L1", p, Circuit::GND, 10.0e-6);
    let l2 = ckt.inductor("L2", s, Circuit::GND, 40.0e-6);
    ckt.couple(l1, l2, 0.9);
    ckt.resistor("RL", s, Circuit::GND, 1.0e3);
    let text = ckt.to_netlist();
    assert!(text.contains("K1 L1 L2 0.9"), "{text}");
    let back = parse_netlist(&text).expect("round-trips");
    assert_eq!(back.device_count(), ckt.device_count());
}

#[test]
fn pulse_and_pwl_round_trip() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    let b = ckt.node("b");
    ckt.voltage_source("V1", a, Circuit::GND, SourceFn::square(0.0, 1.8, 1.0e6));
    ckt.voltage_source("V2", b, Circuit::GND, SourceFn::pwl(vec![(0.0, 0.0), (1e-3, 2.0)]));
    ckt.resistor("R1", a, Circuit::GND, 1.0e3);
    ckt.resistor("R2", b, Circuit::GND, 1.0e3);
    let back = parse_netlist(&ckt.to_netlist()).expect("round-trips");
    assert_eq!(back.device_count(), 4);
}

#[test]
fn generated_text_is_commented_and_terminated() {
    let mut ckt = Circuit::new();
    let a = ckt.node("a");
    ckt.resistor("R1", a, Circuit::GND, 1.0);
    let text = ckt.to_netlist();
    assert!(text.starts_with("* generated"));
    assert!(text.trim_end().ends_with(".end"));
}
