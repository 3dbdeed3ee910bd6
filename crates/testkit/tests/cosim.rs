//! Conformance campaigns for the partitioned multi-rate co-simulation.
//!
//! The golden suite pins the monolithic figures; these tests pin the
//! *engine split*: the co-simulated Fig. 11 and full-chain runs must
//! land inside the documented bands of their monolithic counterparts,
//! stay inside the paper-envelope invariants, and be bit-identical at
//! any worker count.
//!
//! Bands: the continuous Fig. 11 metrics share the golden tolerance
//! (1 %); `t_charged` gets its own 2 % band because the threshold
//! crossing compares a carrier-ripple peak (monolithic) against an
//! envelope mean (cosim) — see `DESIGN.md` §16.
//!
//! The calibration-cache tests pin table reuse: a warm run is the cold
//! run bit for bit, and the cache identity is exactly the inputs the
//! calibration probes read.

use coils::mutual::CoilPair;
use coils::spiral::SpiralCoil;
use comms::bits::BitStream;
use implant_core::cosim::{CalibrationCache, CosimError, FullChainCosimOutcome};
use implant_core::fullchain::FullChainScenario;
use implant_core::scenario::{Fig11Outcome, Fig11Scenario};
use runtime::Pool;
use testkit::fault::{FaultInjector, FaultPlan};
use testkit::golden::TOLERANCES;
use testkit::invariant::InvariantChecker;

fn rel(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(1e-12)
}

/// The looser band for the charge-time crossing (ripple-peak vs
/// envelope-mean semantics).
const T_CHARGED_BAND: f64 = 0.02;

#[test]
fn cosim_fig11_matches_monolithic_within_golden_band() {
    let scenario = Fig11Scenario::shortened();
    let mono = scenario.run().expect("monolithic fig11 runs");
    let co = scenario.run_cosim(&Pool::auto()).expect("cosim fig11 runs");

    let tol = TOLERANCES.fig11;
    assert!(
        rel(co.vo_worst(), mono.vo_worst()) <= tol,
        "vo_worst: cosim {} vs monolithic {}",
        co.vo_worst(),
        mono.vo_worst()
    );
    assert!(
        rel(co.uplink_contrast, mono.uplink_contrast) <= 10.0 * tol,
        "uplink_contrast: cosim {} vs monolithic {}",
        co.uplink_contrast,
        mono.uplink_contrast
    );
    // Discrete outcomes must agree exactly: every decoded downlink bit,
    // compliance, uplink visibility.
    assert_eq!(co.downlink_detected, mono.downlink_detected, "decoded downlink bits differ");
    assert_eq!(co.downlink_errors(), 0, "cosim drops downlink bits");
    assert_eq!(co.vo_compliant(), mono.vo_compliant());
    assert_eq!(co.uplink_visible(), mono.uplink_visible());
    match (co.t_charged, mono.t_charged) {
        (Some(tc), Some(tm)) => assert!(
            rel(tc, tm) <= T_CHARGED_BAND,
            "t_charged: cosim {tc} vs monolithic {tm}"
        ),
        (c, m) => assert_eq!(c.is_some(), m.is_some(), "t_charged presence differs"),
    }

    // The envelope trace must satisfy the same paper-envelope
    // invariants the monolithic trace is held to.
    assert!(co.vo.max() <= pmu::V_CLAMP + 1.0e-9, "cosim vo exceeds the clamp stack");
    let clean = FaultInjector::ironic(&FaultPlan::new(scenario.t_stop));
    let mut checker = InvariantChecker::new();
    checker.check_power_trace(&co.vo, co.compliance_from, &clean);
    checker.assert_clean();
}

#[test]
fn cosim_fig11_is_bit_identical_at_any_worker_count() {
    let scenario = Fig11Scenario::shortened();
    let base = scenario.run_cosim(&Pool::new(1)).expect("cosim runs");
    for workers in [2usize, 8] {
        let other = scenario.run_cosim(&Pool::new(workers)).expect("cosim runs");
        for (name, a, b) in [
            ("vo", &base.vo, &other.vo),
            ("vi", &base.vi, &other.vi),
            ("vdem", &base.vdem, &other.vdem),
        ] {
            assert_eq!(a.time().len(), b.time().len(), "{name} grids differ at {workers} workers");
            for (va, vb) in a.values().iter().zip(b.values()) {
                assert!(
                    va.to_bits() == vb.to_bits(),
                    "{name}: {va:?} vs {vb:?} differ at {workers} workers"
                );
            }
        }
        assert_eq!(base.downlink_detected, other.downlink_detected);
    }
    // And run-to-run on the same pool.
    let again = scenario.run_cosim(&Pool::new(1)).expect("cosim runs");
    assert_eq!(base.vo.values(), again.vo.values(), "cosim is not run-to-run deterministic");
}

/// Gauss–Seidel sweeps with the linear window opener settle the
/// shortened Fig. 11 in at most four sweeps per macro-step (Jacobi
/// sweeps with a constant opener took 6.2), on one worker or eight,
/// with the same outcome bit for bit.
#[test]
fn cosim_fig11_relaxes_in_at_most_four_sweeps_per_step() {
    let scenario = Fig11Scenario::shortened();
    let run = |workers: usize| {
        scenario
            .run_cosim_with(&Pool::new(workers), &CalibrationCache::new())
            .expect("cosim runs")
    };
    let (one, one_report) = run(1);
    let (eight, eight_report) = run(8);
    let stats = one_report.stats;
    assert!(
        stats.iterations <= 4 * stats.macro_steps,
        "{} sweeps over {} macro-steps",
        stats.iterations,
        stats.macro_steps
    );
    assert_eq!(one_report.stats, eight_report.stats, "scheduler counters differ");
    assert_same_fig11(&one, &eight);
}

/// The paper's full 1.5 ms timeline through the cosim engine must meet
/// the paper's own claims (the monolithic comparison happens on the
/// shortened timeline; at the paper's operating point `t_charged` is
/// ill-conditioned — the output creeps asymptotically into the 2.75 V
/// threshold — so it is checked against the paper's envelope instead).
#[test]
fn cosim_fig11_paper_meets_the_paper_claims() {
    let outcome = Fig11Scenario::paper().run_cosim(&Pool::auto()).expect("cosim paper runs");
    assert!(outcome.vo_compliant(), "vo dips below 2.1 V after charge-up");
    assert_eq!(outcome.downlink_errors(), 0, "downlink bits lost");
    assert_eq!(outcome.downlink_sent.len(), 18, "paper burst is 18 bits");
    assert!(outcome.uplink_visible(), "LSK uplink invisible in vi");
    let t_charged = outcome.t_charged.expect("storage capacitor charges") * 1e6;
    assert!(
        (150.0..=400.0).contains(&t_charged),
        "t_charged {t_charged} µs outside the paper's charge-up envelope"
    );
}

#[test]
fn cosim_fullchain_matches_monolithic() {
    let pool = Pool::auto();
    let scenario = FullChainScenario::ironic();
    let mono = scenario.run().expect("monolithic fullchain runs");
    let co = scenario.run_cosim(&pool).expect("cosim fullchain runs");
    // The monolithic average rides carrier ripple peaks slightly above
    // the clamp; the envelope model cannot, so the band is 2 %.
    assert!(
        rel(co.vo_steady(), mono.vo_steady()) <= 0.02,
        "vo_steady: cosim {} vs monolithic {}",
        co.vo_steady(),
        mono.vo_steady()
    );
    assert!(
        rel(co.efficiency(), mono.efficiency()) <= 0.05,
        "efficiency: cosim {} vs monolithic {}",
        co.efficiency(),
        mono.efficiency()
    );
    assert!(
        rel(co.p_supply, mono.p_supply) <= 0.02,
        "p_supply: cosim {} vs monolithic {}",
        co.p_supply,
        mono.p_supply
    );
    assert_eq!(co.supply_compliant(), mono.supply_compliant());

    // With an uplink burst the patch must recover the same bits from
    // the reconstructed supply-power sense as from the transistor-level
    // supply current.
    let bits = BitStream::from_str("10110010");
    let scenario = FullChainScenario::ironic().with_uplink(bits, 60.0e-6);
    let mono = scenario.run().expect("monolithic uplink runs");
    let co = scenario.run_cosim(&pool).expect("cosim uplink runs");
    assert_eq!(co.uplink_detected, mono.uplink_detected, "recovered uplink bits differ");
    assert!(rel(co.vo_steady(), mono.vo_steady()) <= 0.02);
}

/// Cold full-chain runs across 7.4–8.4 mm, where the shorted staircase
/// probe once stalled Newton on its capacitor-free `vrect` node until
/// the step underflowed, plus a served request (`distance_mm`
/// 8.157300000000001, 111 cycles) that failed that way. Every run must
/// calibrate and relax.
#[test]
fn cosim_fullchain_calibrates_at_every_distance_near_8_mm() {
    let pool = Pool::auto();
    let mut requests: Vec<(f64, usize)> =
        (0..40).map(|i| (7.4 + f64::from(i) / 39.0, 60)).collect();
    requests.push((8.157300000000001, 111));
    let failed: Vec<String> = requests
        .iter()
        .filter_map(|&(mm, cycles)| {
            let scenario = FullChainScenario {
                distance: mm * 1e-3,
                cycles,
                ..FullChainScenario::ironic()
            };
            let err = scenario.run_cosim(&pool).err()?;
            Some(format!("{mm} mm, {cycles} cycles: {err}"))
        })
        .collect();
    assert!(
        failed.is_empty(),
        "{} of {} runs failed:\n{}",
        failed.len(),
        requests.len(),
        failed.join("\n")
    );
}

// ---- calibration reuse --------------------------------------------------

/// The next representable value above a positive `x`.
fn ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

fn assert_bits(name: &str, a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len(), "{name}: grids differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.to_bits(), y.to_bits(), "{name}: {x:?} vs {y:?}");
    }
}

fn assert_same_fig11(a: &Fig11Outcome, b: &Fig11Outcome) {
    assert_bits("vo", a.vo.values(), b.vo.values());
    assert_bits("vi", a.vi.values(), b.vi.values());
    assert_bits("vdem", a.vdem.values(), b.vdem.values());
    assert_eq!(a.downlink_detected, b.downlink_detected);
    assert_eq!(a.vo_worst().to_bits(), b.vo_worst().to_bits());
    assert_eq!(a.t_charged.map(f64::to_bits), b.t_charged.map(f64::to_bits));
    assert_eq!(a.uplink_contrast.to_bits(), b.uplink_contrast.to_bits());
}

fn assert_same_fullchain(a: &FullChainCosimOutcome, b: &FullChainCosimOutcome) {
    assert_bits("vo", a.vo.values(), b.vo.values());
    assert_bits("vi_env", a.vi_env.values(), b.vi_env.values());
    assert_eq!(a.p_load.to_bits(), b.p_load.to_bits());
    assert_eq!(a.p_supply.to_bits(), b.p_supply.to_bits());
    assert_eq!(a.uplink_detected, b.uplink_detected);
    assert_eq!(a.stats, b.stats, "scheduler counters differ");
}

fn short_fullchain() -> FullChainScenario {
    FullChainScenario {
        cycles: 60,
        ..FullChainScenario::ironic()
    }
}

#[test]
fn warm_cosim_runs_are_bit_identical_to_cold_runs() {
    let pool = Pool::auto();
    let tables = CalibrationCache::new();
    let scenario = Fig11Scenario::shortened();
    let (cold, cold_report) = scenario.run_cosim_with(&pool, &tables).expect("cold fig11");
    let (warm, warm_report) = scenario.run_cosim_with(&pool, &tables).expect("warm fig11");
    assert!(cold_report.probes > 0, "a cold run calibrates");
    assert_eq!(warm_report.probes, 0, "a warm run reuses the table");
    assert_eq!(
        warm_report.stats, cold_report.stats,
        "scheduler counters differ"
    );
    assert_same_fig11(&warm, &cold);
    // The uncached entry point is the same path with a fresh cache.
    assert_same_fig11(&scenario.run_cosim(&pool).expect("fig11"), &cold);

    for scenario in [
        short_fullchain(),
        FullChainScenario::ironic().with_uplink(BitStream::from_str("10110010"), 60.0e-6),
    ] {
        let cold = scenario.run_cosim(&pool).expect("cold fullchain");
        let primed = scenario
            .run_cosim_with(&pool, &tables)
            .expect("priming fullchain");
        let warm = scenario
            .run_cosim_with(&pool, &tables)
            .expect("warm fullchain");
        assert_eq!(cold.probes, 2);
        assert_eq!(warm.probes, 0, "a warm run reuses the table");
        assert_same_fullchain(&primed, &cold);
        assert_same_fullchain(&warm, &cold);
    }
}

/// Runs `scenario` against `tables` and reports whether the table came
/// from the cache.
fn fig11_hit(scenario: &Fig11Scenario, tables: &CalibrationCache) -> bool {
    let (_, report) = scenario
        .run_cosim_with(&Pool::auto(), tables)
        .expect("fig11 cosim");
    report.probes == 0
}

fn fullchain_hit(scenario: &FullChainScenario, tables: &CalibrationCache) -> bool {
    scenario
        .run_cosim_with(&Pool::auto(), tables)
        .expect("fullchain cosim")
        .probes
        == 0
}

#[test]
fn fig11_calibration_identity_is_exactly_what_the_probes_read() {
    let base = Fig11Scenario::shortened();
    let tables = CalibrationCache::new();
    assert!(!fig11_hit(&base, &tables), "first sight must calibrate");
    let same: [(&str, Fig11Scenario); 4] = [
        (
            "r_load",
            Fig11Scenario {
                r_load: 6.8e3,
                ..base.clone()
            },
        ),
        (
            "t_stop",
            Fig11Scenario {
                t_stop: 170.0e-6,
                ..base.clone()
            },
        ),
        (
            "downlink_bits",
            Fig11Scenario {
                downlink_bits: BitStream::from_str("1011"),
                ..base.clone()
            },
        ),
        (
            "uplink_bits",
            Fig11Scenario {
                uplink_bits: BitStream::from_str("0110"),
                ..base.clone()
            },
        ),
    ];
    for (name, scenario) in &same {
        assert!(
            fig11_hit(scenario, &tables),
            "changing {name} must reuse the table"
        );
    }
    assert_eq!(tables.len(), 1);
    let mut c_out = base.clone();
    c_out.rectifier.c_out = ulp_up(c_out.rectifier.c_out);
    let mut diode = base.clone();
    diode.rectifier.diode.is = ulp_up(diode.rectifier.diode.is);
    let keyed: [(&str, Fig11Scenario); 5] = [
        (
            "idle_amplitude",
            Fig11Scenario {
                idle_amplitude: ulp_up(base.idle_amplitude),
                ..base.clone()
            },
        ),
        (
            "r_source",
            Fig11Scenario {
                r_source: ulp_up(base.r_source),
                ..base.clone()
            },
        ),
        (
            "max_step",
            Fig11Scenario {
                max_step: ulp_up(base.max_step),
                ..base.clone()
            },
        ),
        ("rectifier.c_out", c_out),
        ("rectifier.diode", diode),
    ];
    for (name, scenario) in &keyed {
        assert!(
            !fig11_hit(scenario, &tables),
            "a one-ulp change of {name} must miss"
        );
    }
    assert_eq!(tables.len(), 1 + keyed.len());
}

#[test]
fn fullchain_calibration_identity_is_exactly_what_the_probes_read() {
    let base = short_fullchain();
    let tables = CalibrationCache::new();
    assert!(!fullchain_hit(&base, &tables), "first sight must calibrate");
    let same: [(&str, FullChainScenario); 3] = [
        (
            "r_load",
            FullChainScenario {
                r_load: 1.6e3,
                ..base.clone()
            },
        ),
        (
            "cycles",
            FullChainScenario {
                cycles: 80,
                ..base.clone()
            },
        ),
        (
            "uplink",
            base.clone()
                .with_uplink(BitStream::from_str("1001"), 60.0e-6),
        ),
    ];
    for (name, scenario) in &same {
        assert!(
            fullchain_hit(scenario, &tables),
            "changing {name} must reuse the table"
        );
    }
    let mut vdd = base.clone();
    vdd.design.vdd = ulp_up(vdd.design.vdd);
    let mut c_out = base.clone();
    c_out.rectifier.c_out = ulp_up(c_out.rectifier.c_out);
    let tx = SpiralCoil {
        trace_width: ulp_up(base.pair.tx().trace_width),
        ..*base.pair.tx()
    };
    let keyed: [(&str, FullChainScenario); 4] = [
        (
            "distance",
            FullChainScenario {
                distance: ulp_up(base.distance),
                ..base.clone()
            },
        ),
        ("design.vdd", vdd),
        (
            "pair",
            FullChainScenario {
                pair: CoilPair::new(tx, *base.pair.rx()),
                ..base.clone()
            },
        ),
        ("rectifier.c_out", c_out),
    ];
    for (name, scenario) in &keyed {
        assert!(
            !fullchain_hit(scenario, &tables),
            "a one-ulp change of {name} must miss"
        );
    }
    assert_eq!(tables.len(), 1 + keyed.len());
}

#[test]
fn failed_calibrations_are_not_cached() {
    let pool = Pool::auto();
    let tables = CalibrationCache::new();
    // A non-positive probe step is rejected by every probe transient.
    let broken = Fig11Scenario {
        max_step: -1.0e-9,
        ..Fig11Scenario::shortened()
    };
    for _ in 0..2 {
        let err = broken
            .run_cosim_with(&pool, &tables)
            .expect_err("probe step is invalid");
        assert!(
            matches!(err, CosimError::Domain { domain: "link", .. }),
            "{err:?}"
        );
        assert!(tables.is_empty(), "a failed calibration was cached");
    }
}

#[cfg(feature = "fuzz")]
mod fuzz {
    use super::*;
    use runtime::{Rng, SplitMix64};

    fn bits(rng: &mut SplitMix64, n: usize) -> BitStream {
        (0..n).map(|_| rng.next_f64() < 0.5).collect()
    }

    /// Over random loads, horizons, cycle counts and bit patterns on
    /// fixed calibration identities, a run served from a warm table is
    /// the cold run bit for bit.
    #[test]
    fn warm_runs_match_cold_runs_on_random_requests() {
        let mut rng = SplitMix64::new(0xCA1_7AB1E);
        let pool = Pool::auto();
        let tables = CalibrationCache::new();
        for trial in 0..4 {
            let mut scenario = Fig11Scenario::shortened();
            scenario.r_load = 6.5e3 + 3.0e3 * rng.next_f64();
            scenario.t_stop = (160.0 + 20.0 * rng.next_f64()) * 1e-6;
            scenario.downlink_bits = bits(&mut rng, 4);
            scenario.uplink_bits = bits(&mut rng, 4);
            let cold = scenario.run_cosim(&pool).expect("cold fig11");
            let (warm, report) = scenario.run_cosim_with(&pool, &tables).expect("warm fig11");
            assert!(
                trial == 0 || report.probes == 0,
                "trial {trial}: the identity missed"
            );
            assert_same_fig11(&warm, &cold);
        }
        for trial in 0..6 {
            let mut scenario = FullChainScenario::ironic();
            scenario.r_load = 1.2e3 + 0.6e3 * rng.next_f64();
            scenario.cycles = 40 + (rng.next_f64() * 120.0) as usize;
            if rng.next_f64() < 0.5 {
                let start = (30.0 + 30.0 * rng.next_f64()) * 1e-6;
                scenario = scenario.with_uplink(bits(&mut rng, 6), start);
            }
            let cold = scenario.run_cosim(&pool).expect("cold fullchain");
            let warm = scenario
                .run_cosim_with(&pool, &tables)
                .expect("warm fullchain");
            assert!(
                trial == 0 || warm.probes == 0,
                "trial {trial}: the identity missed"
            );
            assert_same_fullchain(&warm, &cold);
        }
    }
}
