//! S2 — kernel latency benchmark.
//!
//! Times the simulation kernels the server's data plane is built
//! from — the Fig. 11 transient (short preset), the full
//! PA→coils→rectifier chain, one Monte Carlo yield study, a
//! received-power distance sweep, one misaligned coil-pair solve, a
//! 1 h sensing patient day, one full seeded patient day and a serial
//! cohort of virtual patients — without any socket or queue in the way.
//! Together with perfbench's served workloads this separates *model
//! cost* from *serving cost*: a perfbench latency regression that
//! `BENCH_kernels.json` does not show lies in the serving layer.
//!
//! Each kernel runs `--repeats` times into its `<kernel>.*` latency
//! metrics; the per-phase breakdown (`fig11.build` / `fig11.transient`
//! / … from the [`obs`] registry) lands in the artifact's `stages`.
//!
//! The `fig11` kernel runs on the compiled sparse engine, `fig11_interp`
//! re-times it on the dense reference engine and `fig11_cosim` through
//! the partitioned co-simulation engine. `fig11_cosim` and
//! `fullchain_cosim` calibrate from scratch on every repeat (cold); the
//! `*_cosim_warm` kernels reuse one calibration table the way a server
//! serving a repeated identity does. The `compiled.*` metrics carry the
//! engine's own per-phase accounting (lowering time,
//! assemble/factorize/solve time, refactor-skip rate) and three
//! best-run speedups, each a gate that fails the run:
//! `fig11_speedup` (interpreter over compiled) ≥ 5,
//! `cosim_speedup` (compiled over cosim) ≥ 3 and
//! `fullchain_warm_speedup` (monolithic over warm cosim) > 1.
//!
//! ```text
//! cargo run --release --bin bench_kernels -- --json BENCH_kernels.json
//! cargo run --release --bin bench_kernels -- --smoke --json BENCH_kernels.json
//! ```

use bench::{banner, duration_us, profile_table, stage_rows, Gate, Op, Record};
use coils::CoilPair;
use implant_core::cosim::CalibrationCache;
use implant_core::fullchain::FullChainScenario;
use implant_core::montecarlo::MonteCarloStudy;
use implant_core::scenario::Fig11Scenario;
use link::budget::PowerBudget;
use runtime::{LatencyHistogram, Pool};
use scenario::{Cohort, DayProfile, PatientDay};
use std::time::{Duration, Instant};

/// The cohort kernel's patients and simulated hours, under `--smoke`
/// and in a full run.
const COHORT_SMOKE: (u64, f64) = (10, 6.0);
const COHORT_FULL: (u64, f64) = (50, 12.0);

struct Args {
    repeats: usize,
    mc_trials: usize,
    smoke: bool,
    profile: bool,
    json_path: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            repeats: 5,
            mc_trials: 200,
            smoke: false,
            profile: false,
            json_path: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--repeats" => {
                    args.repeats = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--repeats needs a numeric value");
                }
                "--mc-trials" => {
                    args.mc_trials = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .expect("--mc-trials needs a numeric value");
                }
                "--smoke" => args.smoke = true,
                "--profile" => args.profile = true,
                "--json" => args.json_path = Some(it.next().expect("--json needs a path")),
                other => panic!(
                    "unknown flag {other:?} (known: --repeats --mc-trials --smoke --profile --json)"
                ),
            }
        }
        if args.smoke {
            args.repeats = args.repeats.min(2);
            args.mc_trials = args.mc_trials.min(50);
        }
        args.repeats = args.repeats.max(1);
        args.mc_trials = args.mc_trials.max(1);
        args
    }
}

/// Runs `f` `repeats` times into `record`'s `{name}.*` latency row. The
/// result is folded into a checksum so the optimizer cannot elide the
/// kernel, and must come out finite. The best raw duration is returned
/// for ratio math: bucket quantization would put up to ±41% of noise on
/// a speedup computed from two (√2-bucketed) p50s.
fn time_kernel(
    record: &mut Record,
    name: &str,
    repeats: usize,
    mut f: impl FnMut() -> f64,
) -> Duration {
    let mut hist = LatencyHistogram::new();
    let mut checksum = 0.0;
    let mut best = Duration::MAX;
    for _ in 0..repeats {
        let started = Instant::now();
        checksum += f();
        let took = started.elapsed();
        best = best.min(took);
        hist.record(took);
    }
    println!(
        "  {name:<20} {repeats} runs · best {best:.3?} · p50 {:?} · p95 {:?} · p99 {:?}",
        hist.p50(),
        hist.p95(),
        hist.p99(),
    );
    assert!(checksum.is_finite(), "{name} produced a non-finite result");
    record.latency(name, &hist);
    best
}

/// `numerator / denominator` of two best runs.
fn speedup(numerator: Duration, denominator: Duration) -> f64 {
    duration_us(numerator) / duration_us(denominator).max(1e-9)
}

/// What the kernel run is gated on.
struct Measured {
    fig11_speedup: f64,
    cosim_speedup: f64,
    fullchain_warm_speedup: f64,
    refactor_skip_rate: f64,
}

fn gates(m: &Measured) -> Vec<Gate> {
    vec![
        // The compile win: best dense-reference fig11 run over best
        // compiled run.
        Gate::new("compiled.fig11_speedup", m.fig11_speedup, Op::Ge, 5.0),
        // The multi-rate win: best compiled fig11 run over best cold
        // cosim run.
        Gate::new("compiled.cosim_speedup", m.cosim_speedup, Op::Ge, 3.0),
        // Calibration reuse: best monolithic full-chain run over best
        // warm-table cosim run.
        Gate::new("compiled.fullchain_warm_speedup", m.fullchain_warm_speedup, Op::Gt, 1.0),
        Gate::new("compiled.refactor_skip_rate", m.refactor_skip_rate, Op::Ge, 0.0),
        Gate::new("compiled.refactor_skip_rate", m.refactor_skip_rate, Op::Le, 1.0),
    ]
}

fn main() {
    let args = Args::parse();
    banner("S2", "simulation-kernel latency (no serving layer)");
    let fullchain_cycles = if args.smoke { 15 } else { 30 };
    let (cohort_patients, cohort_hours) = if args.smoke { COHORT_SMOKE } else { COHORT_FULL };
    println!(
        "config: {} repeats per kernel, {} MC trials, {} patients × {} h cohort{}",
        args.repeats,
        args.mc_trials,
        cohort_patients,
        cohort_hours,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!();

    obs::reset();
    let repeats = args.repeats;
    let mut record = Record::new(
        "bench_kernels",
        vec![
            ("repeats", repeats as f64),
            ("mc_trials", args.mc_trials as f64),
            ("fullchain_cycles", fullchain_cycles as f64),
            ("cohort_patients", cohort_patients as f64),
            ("cohort_hours", cohort_hours),
            ("smoke", if args.smoke { 1.0 } else { 0.0 }),
        ],
    );
    let r = &mut record;

    let fig11_compiled_best = time_kernel(r, "fig11", repeats, || {
        Fig11Scenario::shortened().run().expect("fig11 runs").vo_worst()
    });

    // The same scenario on the dense reference engine: the denominator
    // of the compile-win claim. One rep is enough — it is the slow side.
    let fig11_interp_best = time_kernel(r, "fig11_interp", repeats.min(2), || {
        Fig11Scenario::shortened().run_reference().expect("fig11 reference runs").vo_worst()
    });
    let fig11_speedup = speedup(fig11_interp_best, fig11_compiled_best);

    // The same scenario again, through the partitioned multi-rate
    // engine: the numerator stays the compiled monolithic transient, so
    // the ratio isolates what the domain split buys on top of the
    // compiled engine. `run_cosim` calibrates from scratch each repeat.
    let pool = Pool::auto();
    let fig11_cosim_best = time_kernel(r, "fig11_cosim", repeats, || {
        Fig11Scenario::shortened().run_cosim(&pool).expect("fig11 cosim runs").vo_worst()
    });

    // Warm: one table, calibrated before the clock starts, serves every
    // repeat — the repeated-identity path of a running server.
    let tables = CalibrationCache::new();
    let warm_fig11 = || {
        let (outcome, _) = Fig11Scenario::shortened()
            .run_cosim_with(&pool, &tables)
            .expect("fig11 cosim runs");
        outcome.vo_worst()
    };
    warm_fig11();
    time_kernel(r, "fig11_cosim_warm", repeats, warm_fig11);

    let cosim_speedup = speedup(fig11_compiled_best, fig11_cosim_best);

    // One profiled compiled run for the engine's own phase accounting.
    let (_, stats, compile_ns) =
        Fig11Scenario::shortened().run_profiled().expect("profiled fig11 runs");

    let fullchain = FullChainScenario {
        cycles: fullchain_cycles,
        ..FullChainScenario::ironic()
    };
    let fullchain_best = time_kernel(r, "fullchain", repeats, || {
        fullchain.run().expect("fullchain runs").vo_steady()
    });
    time_kernel(r, "fullchain_cosim", repeats, || {
        fullchain.run_cosim(&pool).expect("fullchain cosim runs").vo_steady()
    });
    let warm_fullchain = || {
        fullchain
            .run_cosim_with(&pool, &tables)
            .expect("fullchain cosim runs")
            .vo_steady()
    };
    warm_fullchain();
    let fullchain_warm_best = time_kernel(r, "fullchain_cosim_warm", repeats, warm_fullchain);
    let fullchain_warm_speedup = speedup(fullchain_best, fullchain_warm_best);

    let mc_trials = args.mc_trials;
    time_kernel(r, "montecarlo", repeats, || {
        MonteCarloStudy::ironic().run_serial(mc_trials).yield_fraction()
    });
    time_kernel(r, "sweep", repeats, || {
        let budget = PowerBudget::ironic_air();
        (0..16).map(|i| budget.received_power((2.0 + i as f64 * 2.0) * 1e-3)).sum()
    });
    let pair = CoilPair::ironic();
    time_kernel(r, "mutual_misaligned", repeats, || pair.mutual_misaligned(6.0e-3, 1.0e-3));
    time_kernel(r, "patientday_sensing", repeats, || {
        let mut day = PatientDay::ironic(7);
        day.profile = DayProfile::Sensing;
        day.hours = 1.0;
        day.run().summary().soc_end
    });

    // The scenario composer: one full seeded patient day, and a serial
    // cohort of virtual patients.
    let mut day_seed = 2013u64;
    time_kernel(r, "patientday", repeats, || {
        day_seed += 1;
        PatientDay::ironic(day_seed).run().summary().soc_end
    });
    let mut cohort_seed = 7u64;
    time_kernel(r, "cohort", repeats, || {
        cohort_seed += 1;
        let mut cohort = Cohort::ironic(cohort_seed, cohort_patients);
        cohort.hours = cohort_hours;
        cohort.run_serial().mean_life_h()
    });

    let rows = stage_rows();
    if args.profile {
        println!();
        println!("per-phase breakdown:");
        print!("{}", profile_table(&rows));
    }

    let lu = &stats.lu;
    for (name, value) in [
        ("compile_us", compile_ns as f64 / 1e3),
        ("unknowns", stats.unknowns as f64),
        ("nonzeros", stats.nonzeros as f64),
        ("newton_iterations", stats.newton_iterations as f64),
        ("assemble_ms", stats.assemble_ns as f64 / 1e6),
        ("factor_ms", stats.factor_ns as f64 / 1e6),
        ("solve_ms", stats.solve_ns as f64 / 1e6),
        ("pivoted_factorizations", lu.pivoted_factorizations as f64),
        ("refactorizations", lu.refactorizations as f64),
        (
            "rows_recomputed_per_refactor",
            lu.rows_recomputed as f64 / (lu.refactorizations as f64).max(1.0),
        ),
        ("refactor_skips", lu.refactor_skips as f64),
        ("refactor_skip_rate", stats.refactor_skip_rate()),
        ("fig11_speedup", fig11_speedup),
        ("cosim_speedup", cosim_speedup),
        ("fullchain_warm_speedup", fullchain_warm_speedup),
    ] {
        record.metric(format!("compiled.{name}"), value);
    }
    let gates = gates(&Measured {
        fig11_speedup,
        cosim_speedup,
        fullchain_warm_speedup,
        refactor_skip_rate: stats.refactor_skip_rate(),
    });
    record.finish(&rows, &gates, args.json_path.as_deref());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kernel_floor_keeps_its_bound() {
        let m = Measured {
            fig11_speedup: 7.0,
            cosim_speedup: 12.0,
            fullchain_warm_speedup: 200.0,
            refactor_skip_rate: 0.6,
        };
        let specs: Vec<(String, Op, f64)> =
            gates(&m).into_iter().map(|g| (g.name, g.op, g.bound)).collect();
        let want = [
            ("compiled.fig11_speedup", Op::Ge, 5.0),
            ("compiled.cosim_speedup", Op::Ge, 3.0),
            ("compiled.fullchain_warm_speedup", Op::Gt, 1.0),
            ("compiled.refactor_skip_rate", Op::Ge, 0.0),
            ("compiled.refactor_skip_rate", Op::Le, 1.0),
        ];
        let want: Vec<(String, Op, f64)> =
            want.iter().map(|&(n, op, b)| (n.to_string(), op, b)).collect();
        assert_eq!(specs, want);
        assert!(gates(&m).iter().all(Gate::holds));
    }

    #[test]
    fn a_slow_engine_or_a_bogus_skip_rate_fails_its_gate() {
        let good = Measured {
            fig11_speedup: 7.0,
            cosim_speedup: 12.0,
            fullchain_warm_speedup: 200.0,
            refactor_skip_rate: 0.6,
        };
        let failing = |m: Measured| -> Vec<String> {
            gates(&m).into_iter().filter(|g| !g.holds()).map(|g| g.name).collect()
        };
        assert_eq!(failing(Measured { fig11_speedup: 4.9, ..good }), ["compiled.fig11_speedup"]);
        assert_eq!(failing(Measured { cosim_speedup: 2.2, ..good }), ["compiled.cosim_speedup"]);
        assert_eq!(
            failing(Measured { fullchain_warm_speedup: 1.0, ..good }),
            ["compiled.fullchain_warm_speedup"]
        );
        assert_eq!(
            failing(Measured { refactor_skip_rate: 1.4, ..good }),
            ["compiled.refactor_skip_rate"]
        );
    }
}
