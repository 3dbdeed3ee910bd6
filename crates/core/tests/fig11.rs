//! Integration test of the Fig. 11 scenario (shortened variant — the
//! full 700 µs run lives in the bench harness, `fig11_transient`).

use comms::bits::BitStream;
use implant_core::scenario::Fig11Scenario;

#[test]
fn shortened_fig11_reproduces_all_claims() {
    let scenario = Fig11Scenario::shortened();
    let out = scenario.run().expect("scenario simulates");

    // Claim 1: the storage capacitor charges to the 2.75 V operating
    // point before the downlink burst.
    let t_charged = out.t_charged.expect("Co reaches 2.75 V");
    assert!(
        t_charged < scenario.downlink_start,
        "charged at {t_charged} before the burst at {}",
        scenario.downlink_start
    );

    // Claim 2: every downlink bit is detected at the ϕ1 edges.
    assert_eq!(
        out.downlink_detected, out.downlink_sent,
        "downlink bits: sent {} got {}",
        out.downlink_sent, out.downlink_detected
    );
    assert!(out.all_downlink_bits_detected());
    assert_eq!(out.downlink_errors(), 0);

    // Claim 3: Vo never drops below 2.1 V once operating — through both
    // the downlink (reduced carrier) and the uplink (shorted input).
    assert!(
        out.vo_compliant(),
        "worst Vo {:.3} must stay above 2.1 V",
        out.vo_worst()
    );
    assert!(out.vo_worst() > 2.1 && out.vo_worst() < 3.0);

    // Claim 4: the LSK modulation is clearly visible on the carrier.
    assert!(out.uplink_visible(), "uplink contrast {:.2}", out.uplink_contrast);
    assert!(out.uplink_contrast > 3.0);

    // The clamp bounds the output at 3 V.
    assert!(out.vo.max() <= 3.05, "clamped: {:.3}", out.vo.max());
}

#[test]
fn fig11_with_inverted_bits_still_decodes() {
    // The detector must not depend on the particular pattern.
    let mut scenario = Fig11Scenario::shortened();
    scenario.downlink_bits = BitStream::from_str("0110");
    let out = scenario.run().expect("scenario simulates");
    assert_eq!(out.downlink_detected, scenario.downlink_bits);
}

#[test]
fn fig11_low_drive_fails_compliance() {
    // Sanity of the checks themselves: starving the link must violate
    // the 2.1 V criterion (the checks can fail, so passing means something).
    let mut scenario = Fig11Scenario::shortened();
    scenario.idle_amplitude = 2.0;
    let out = scenario.run().expect("scenario simulates");
    assert!(
        !out.vo_compliant(),
        "2.0 V drive cannot hold 2.1 V: worst {:.3}",
        out.vo_worst()
    );
}

#[test]
fn full_chain_regulates_at_10mm() {
    // The complete transistor-level path (class-E → coils → match →
    // rectifier) self-starts and holds the LDO floor. Shortened run.
    let mut s = implant_core::fullchain::FullChainScenario::ironic();
    s.cycles = 120;
    let o = s.run().expect("chain simulates");
    assert!(o.supply_compliant(), "Vo steady = {}", o.vo_steady());
    assert!(o.vo_steady() > 2.5 && o.vo_steady() < 3.2);
    assert!(o.p_load > 1.0e-3, "mW-scale delivery: {}", o.p_load);
    assert!(o.efficiency() > 0.001 && o.efficiency() < 1.0);
    // The developed carrier is volts-scale at the matched node.
    assert!(o.vi_amplitude() > 3.0);
}

#[test]
fn fig11_survives_high_power_sensor() {
    // §IV-C: "a worst scenario is assumed to check the capability of the
    // power module to operate with more power-demanding sensors" — the
    // 1.3 mA high-power mode. Equivalent DC load ≈ 2.75 V / 1.66 mA.
    let mut scenario = Fig11Scenario::shortened();
    scenario.r_load = 1.66e3;
    // The heavier sink needs the stronger link and the full-size storage
    // capacitor the paper's worst-case simulation assumes: with the
    // shortened variant's 30 nF, a single low ASK symbol would droop Co
    // by ≈ 0.5 V at 1.7 mA.
    scenario.r_source = 20.0;
    scenario.rectifier.c_out = 150.0e-9;
    let out = scenario.run().expect("scenario simulates");
    assert!(out.all_downlink_bits_detected());
    assert!(
        out.vo_compliant(),
        "high-power load still holds 2.1 V: worst {:.3}",
        out.vo_worst()
    );
}

#[test]
fn full_chain_uplink_detected_on_pa_supply() {
    // The paper's uplink mechanism end to end, transistor-level: the
    // implant shorts its rectifier input (LSK) and the patch recovers
    // the bits from its own class-E supply current (the R9 sense).
    use comms::bits::BitStream;
    let bits = BitStream::from_str("10110");
    let scenario = implant_core::fullchain::FullChainScenario::ironic()
        .with_uplink(bits.clone(), 30.0e-6);
    let out = scenario.run().expect("chain simulates");
    assert_eq!(
        out.uplink_detected.as_ref().expect("uplink configured"),
        &bits,
        "patch recovers the implant's bits from its supply current"
    );
    // And Co rides through the shorted bits.
    assert!(out.vo.min_in(30.0e-6, out.t_window.1) > 2.1);
}

#[test]
fn a_horizon_that_cuts_the_timeline_is_an_error_not_a_panic() {
    use implant_core::cosim::{CalibrationCache, CosimError};
    use implant_core::TimelineCut;

    // The paper preset's uplink burst ends at 620 µs.
    let scenario = Fig11Scenario { t_stop: 165.0e-6, ..Fig11Scenario::default() };
    let cut = scenario.check_timeline().unwrap_err();
    assert_eq!(cut, TimelineCut { t_stop: 165.0e-6, timeline_end: 620.0e-6 });
    match scenario.run() {
        Err(analog::SimError::InvalidParameter { name, reason }) => {
            assert_eq!(name, "t_stop");
            assert_eq!(reason, cut.to_string());
        }
        other => panic!("expected InvalidParameter, got {:?}", other.map(|o| o.t_charged)),
    }
    let tables = CalibrationCache::new();
    match scenario.run_cosim_with(&runtime::Pool::new(1), &tables) {
        Err(CosimError::InvalidPlan(why)) => assert_eq!(why, cut.to_string()),
        other => panic!("expected InvalidPlan, got {:?}", other.map(|(o, _)| o.t_charged)),
    }
    assert!(tables.is_empty(), "nothing was calibrated for a refused run");
    // A horizon that ends exactly with the burst still runs.
    assert!(Fig11Scenario { t_stop: 150.0e-6, ..Fig11Scenario::shortened() }
        .check_timeline()
        .is_ok());
}
