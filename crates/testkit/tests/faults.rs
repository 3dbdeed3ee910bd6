//! Fault-family conformance: every family of the acceptance contract
//! (link dropout, load transient, bit corruption, battery sag) is
//! exercised by at least two invariant tests, plus the campaign
//! determinism sweep across worker counts.

use testkit::fault::{spec, FaultKind, FaultPlan};
use testkit::{
    run_campaign, workers_from_env, DownlinkSim, FaultInjector, InvariantChecker, PowerChainSim,
};

fn checked(plan: &FaultPlan) -> (InvariantChecker, FaultInjector) {
    let sim = PowerChainSim::ironic();
    let inj = FaultInjector::ironic(plan);
    let mut checker = InvariantChecker::new();
    sim.check(&inj, &mut checker);
    (checker, inj)
}

// ---- link dropout ----

#[test]
fn steady_shallow_dropout_keeps_the_floor() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::LinkDropout { depth: spec::DROPOUT_DEPTH_STEADY },
        0.1e-3,
        1.1e-3,
    );
    let (checker, _) = checked(&plan);
    checker.assert_clean();
}

#[test]
fn deep_dropout_past_the_holdup_budget_breaches_and_names_itself() {
    let sim = PowerChainSim::ironic();
    // In-spec depth for a burst, but held 3x longer than the holdup
    // allowance: the declared spec calls this out-of-spec, so it earns
    // grace — tighten it to in-spec length and the floor must hold.
    let long = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::LinkDropout { depth: spec::DROPOUT_DEPTH_BURST },
        0.3e-3,
        0.3e-3 + 3.0 * spec::BURST_MAX_S,
    );
    let inj = FaultInjector::ironic(&long);
    assert!(!inj.faults()[0].in_spec, "long deep burst is out of spec");

    // The same depth within the holdup budget survives.
    let burst = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::LinkDropout { depth: spec::DROPOUT_DEPTH_BURST },
        0.3e-3,
        0.3e-3 + spec::BURST_MAX_S,
    );
    let (checker, inj) = checked(&burst);
    assert!(inj.faults()[0].in_spec);
    checker.assert_clean();

    // Forcing the checker to look at the long burst *without* grace
    // (an unfaulted checker on the faulted trace) shows the breach the
    // grace was hiding — and the real injector attributes it.
    let vo = PowerChainSim::ironic().run(&FaultInjector::ironic(&long));
    let mut strict = InvariantChecker::new();
    strict.check_power_trace(&vo, 0.0, &FaultInjector::ironic(&FaultPlan::new(sim.t_stop)));
    assert!(!strict.is_clean(), "ungraced, the long dropout breaches the floor");
    assert!(strict.violations().iter().any(|v| v.invariant == "vo_floor"));
}

#[test]
fn misalignment_within_coupling_spec_keeps_the_floor() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop)
        .with_event(FaultKind::MisalignmentStep { lateral: 2.0e-3 }, 0.2e-3, 1.0e-3);
    let (checker, inj) = checked(&plan);
    assert!(inj.faults()[0].in_spec, "2 mm lateral stays above the coupling floor");
    checker.assert_clean();
}

// ---- load transient ----

#[test]
fn max_in_spec_load_transient_keeps_the_floor() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::LoadTransient { i_extra: spec::LOAD_EXTRA_MAX_A },
        0.4e-3,
        0.8e-3,
    );
    let (checker, inj) = checked(&plan);
    assert!(inj.faults()[0].in_spec);
    checker.assert_clean();
}

#[test]
fn overbudget_fault_composition_is_graced_but_the_clamp_still_holds() {
    // Compound stress: max extra load during a max steady dropout. Each
    // fault is individually in-spec, but their combined static budget
    // (3 V × 0.85 − 0.35 V − 75 Ω × 2.5 mA ≈ 2.01 V) sits below the
    // floor — the link margin is allocated per stressor, not for the
    // worst-case stack, so the *composition window* earns grace on the
    // floor. The 3 V clamp still holds unconditionally.
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop)
        .with_event(
            FaultKind::LinkDropout { depth: spec::DROPOUT_DEPTH_STEADY },
            0.3e-3,
            0.9e-3,
        )
        .with_event(
            FaultKind::LoadTransient { i_extra: spec::LOAD_EXTRA_MAX_A },
            0.5e-3,
            0.6e-3,
        );
    let (checker, inj) = checked(&plan);
    assert!(inj.faults().iter().all(|f| f.in_spec), "each fault alone is in spec");
    assert!(inj.graced_at(0.55e-3), "the overlap window is graced");
    assert!(!inj.graced_at(0.35e-3), "the dropout alone is not");
    checker.assert_clean();

    // The dip really happens — grace is covering a real breach, and the
    // dynamics never undershoot the combined static budget.
    let vo = sim.run(&inj);
    assert!(vo.min() < 2.1, "the stack does dip below the floor: {}", vo.min());
    assert!(vo.min() > 1.95, "but never below the combined static level: {}", vo.min());
}

#[test]
fn rectifier_short_within_holdup_rides_the_storage_cap() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::RectifierShort,
        0.5e-3,
        0.5e-3 + spec::BURST_MAX_S,
    );
    let (checker, inj) = checked(&plan);
    assert!(inj.faults()[0].in_spec, "an LSK-length short is in spec");
    checker.assert_clean();
}

// ---- bit corruption ----

#[test]
fn corrupted_frame_is_detected_by_the_crc() {
    let link = DownlinkSim::ironic();
    let plan = FaultPlan::new(1.0e-3).with_event(FaultKind::BitCorruption { bit: 12 }, 0.0, 1e-6);
    let inj = FaultInjector::ironic(&plan);
    let (_, detected) = link.transmit_framed(&[0xA5, 0x3C], &inj);
    assert!(detected, "a flipped payload bit must trip the CRC");
}

#[test]
fn detected_corruption_satisfies_the_bits_invariant_but_silence_does_not() {
    use comms::bits::BitStream;
    use comms::frame::Frame;

    let link = DownlinkSim::ironic();
    let plan = FaultPlan::new(1.0e-3).with_event(FaultKind::BitCorruption { bit: 9 }, 0.0, 1e-6);
    let inj = FaultInjector::ironic(&plan);
    let payload = [0x42, 0x17];
    let sent = Frame::new(&payload).expect("fits").encode();
    let (decoded, detected) = link.transmit_framed(&payload, &inj);

    let mut checker = InvariantChecker::new();
    checker.check_bits("bits_exact", &sent, &decoded, detected, link.bit_period(), 0.0, Some(&inj));
    checker.assert_clean();

    // The same wrong bits *without* the detection flag are violations —
    // and each names the corrupting fault.
    let mut silent = InvariantChecker::new();
    silent.check_bits("bits_exact", &sent, &decoded, false, link.bit_period(), 0.0, Some(&inj));
    assert!(!silent.is_clean());
    assert!(silent.violations().iter().all(|v| v.signal.starts_with("bit[")));

    // Sanity: the unfaulted link still round-trips this payload.
    let clean = FaultInjector::ironic(&FaultPlan::new(1.0e-3));
    assert_eq!(link.transmit(&sent, &clean), BitStream::from_iter(sent.iter()));
}

#[test]
fn in_spec_clock_jitter_decodes_exactly() {
    let link = DownlinkSim::ironic();
    let horizon = 30.0 * link.bit_period();
    let plan = FaultPlan::new(horizon).with_event(
        FaultKind::ClockJitter { offset: spec::JITTER_MAX_S },
        0.0,
        horizon,
    );
    let inj = FaultInjector::ironic(&plan);
    let (_, detected) = link.transmit_framed(&[0xF0, 0x0F], &inj);
    assert!(!detected, "2 us of jitter stays inside the settled symbol");
}

// ---- battery sag ----

#[test]
fn minimum_in_spec_soc_keeps_the_floor() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop).with_event(
        FaultKind::BatterySag { soc: spec::BATTERY_SOC_MIN },
        0.0,
        sim.t_stop,
    );
    let (checker, inj) = checked(&plan);
    assert!(inj.faults()[0].in_spec);
    checker.assert_clean();
}

#[test]
fn dead_battery_breaches_the_floor_when_ungraced() {
    let sim = PowerChainSim::ironic();
    let plan = FaultPlan::new(sim.t_stop)
        .with_event(FaultKind::BatterySag { soc: 0.0 }, 0.0, sim.t_stop);
    let inj = FaultInjector::ironic(&plan);
    assert!(!inj.faults()[0].in_spec, "soc 0 is out of spec");
    // Graced run: clean (that is what out-of-spec grace is for).
    let (checker, _) = checked(&plan);
    checker.assert_clean();
    // Ungraced view of the same trace: the sag shows as a floor breach.
    let vo = sim.run(&inj);
    let mut strict = InvariantChecker::new();
    strict.check_power_trace(&vo, 0.0, &FaultInjector::ironic(&FaultPlan::new(sim.t_stop)));
    assert!(strict.violations().iter().any(|v| v.invariant == "vo_floor"));
}

#[test]
fn battery_sag_composes_with_a_dropout_into_a_deeper_dip() {
    let sim = PowerChainSim::ironic();
    let sag_only = FaultPlan::new(sim.t_stop)
        .with_event(FaultKind::BatterySag { soc: 0.1 }, 0.0, sim.t_stop);
    let both = FaultPlan::new(sim.t_stop)
        .with_event(FaultKind::BatterySag { soc: 0.1 }, 0.0, sim.t_stop)
        .with_event(
            FaultKind::LinkDropout { depth: spec::DROPOUT_DEPTH_STEADY },
            0.4e-3,
            0.9e-3,
        );
    let vo_sag = sim.run(&FaultInjector::ironic(&sag_only)).min();
    let vo_both = sim.run(&FaultInjector::ironic(&both)).min();
    assert!(vo_both < vo_sag, "factors multiply: {vo_both} vs {vo_sag}");
}

// ---- campaign determinism ----

#[test]
fn campaign_reports_are_identical_across_worker_counts() {
    let reference = run_campaign(0xC0FFEE, 12, 1);
    assert_eq!(reference.len(), 12);
    for workers in 2..=8 {
        let run = run_campaign(0xC0FFEE, 12, workers);
        assert_eq!(run, reference, "worker count {workers} changed the reports");
    }
}

#[test]
fn campaign_honors_the_env_worker_count() {
    // Whatever IMPLANT_WORKERS asks for must reproduce the 1-worker run.
    let workers = workers_from_env();
    assert_eq!(run_campaign(77, 6, workers), run_campaign(77, 6, 1));
}

#[test]
fn in_spec_campaign_scenarios_report_no_violations() {
    for report in run_campaign(2013, 10, workers_from_env()) {
        assert!(report.is_empty(), "in-spec faults broke the envelope: {report}");
    }
}

#[test]
fn engine_failures_map_to_simulation_failed_with_their_diagnostic() {
    use analog::SimError;
    use implant_core::CosimError;
    use server::proto::{ErrorCode, WireError};

    // The shape of the full-chain staircase underflow: a domain's
    // transient gives up at a named time and step.
    let underflow = WireError::from(CosimError::Domain {
        domain: "link",
        source: SimError::TimestepTooSmall { time: 1.0068e-5, step: 2.8e-19 },
    });
    assert_eq!(underflow.code, ErrorCode::SimulationFailed);
    for part in ["link", "t = 1.006800e-5", "dt = 2.800e-19"] {
        assert!(underflow.message.contains(part), "{part:?} missing: {}", underflow.message);
    }

    let diverged = WireError::from(CosimError::Diverged {
        t: 2.5e-6,
        residual: 3.0,
        tolerance: 1e-3,
        iterations: 40,
    });
    assert_eq!(diverged.code.as_str(), "simulation_failed");
    assert!(diverged.message.contains("t = 2.500e-6"), "{}", diverged.message);

    // The monolithic engines' own errors take the same code.
    let newton = WireError::simulation_failed(SimError::NoConvergence {
        analysis: "transient",
        time: Some(3.0e-6),
        iterations: 50,
    });
    assert_eq!(newton.code, ErrorCode::SimulationFailed);
    assert!(newton.message.starts_with("simulation failed: "), "{}", newton.message);

    // A caught panic is a server fault, not a property of the request.
    let panicked = WireError::from(CosimError::Panicked {
        domain: "comms".to_string(),
        message: "boom".to_string(),
    });
    assert_eq!(panicked.code, ErrorCode::Internal);
}
