//! S2 — kernel latency benchmark.
//!
//! Times the simulation kernels the server's data plane is built
//! from — the Fig. 11 transient (short preset), the full
//! PA→coils→rectifier chain, one Monte Carlo yield study, a
//! received-power distance sweep, one misaligned coil-pair solve and a
//! 1 h sensing patient day — without any socket or queue in the way.
//! Together with `bench_serve` this separates *model cost* from
//! *serving cost*: if `BENCH_serve.json` shows p95 regressions that
//! `BENCH_kernels.json` doesn't, the serving layer is to blame.
//!
//! Each kernel runs `--repeats` times into a latency histogram; the
//! per-phase breakdown (`fig11.build` / `fig11.transient` / … from the
//! [`obs`] registry) lands in the JSON's `stages` object.
//!
//! Since the compile→simulate split, the `fig11` kernel runs on the
//! compiled sparse engine and a `fig11_interp` kernel re-times the same
//! scenario on the dense reference engine. The `compiled` object in the
//! JSON carries the engine's own per-phase accounting (lowering time,
//! assemble/factorize/solve nanoseconds, refactor-skip rate) plus the
//! interpreter-vs-compiled p50 speedup that `bench_validate` gates on.
//!
//! Since the multi-rate split, a `fig11_cosim` kernel re-times the same
//! scenario through the partitioned co-simulation engine and the
//! `compiled` object gains `cosim_speedup` — compiled-monolithic over
//! cosim — which `bench_validate` holds to a 3x floor. That kernel and
//! `fullchain_cosim` calibrate from scratch on every repeat (cold); the
//! `*_cosim_warm` kernels reuse one calibration table the way a server
//! serving a repeated identity does, and `fullchain_warm_speedup` —
//! monolithic full chain over warm full-chain cosim — must exceed 1.
//!
//! ```text
//! cargo run --release --bin bench_kernels -- --json BENCH_kernels.json
//! cargo run --release --bin bench_kernels -- --smoke --json BENCH_kernels.json
//! ```

use bench::{banner, duration_us, profile_table, stage_rows, stages_json};
use coils::CoilPair;
use implant_core::cosim::CalibrationCache;
use implant_core::fullchain::FullChainScenario;
use implant_core::montecarlo::MonteCarloStudy;
use implant_core::scenario::Fig11Scenario;
use link::budget::PowerBudget;
use runtime::{Json, LatencyHistogram, Pool};
use scenario::{DayProfile, PatientDay};
use std::time::Instant;

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

/// Runs `f` `repeats` times and reports its latency distribution. The
/// result is folded into a checksum so the optimizer cannot elide the
/// kernel. Alongside the (√2-bucketed) histogram, the best raw
/// duration is returned for ratio math — bucket quantization would put
/// up to ±41% of noise on a speedup computed from two p50s.
fn time_kernel(
    name: &str,
    repeats: usize,
    mut f: impl FnMut() -> f64,
) -> (LatencyHistogram, f64, std::time::Duration) {
    let mut hist = LatencyHistogram::new();
    let mut checksum = 0.0;
    let mut best = std::time::Duration::MAX;
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
    (hist, checksum, best)
}

fn main() {
    let args = Args::parse();
    banner("S2", "simulation-kernel latency (no serving layer)");
    println!(
        "config: {} repeats per kernel, {} MC trials{}",
        args.repeats,
        args.mc_trials,
        if args.smoke { " (smoke)" } else { "" }
    );
    println!();

    obs::reset();
    let repeats = args.repeats;
    let mut kernels: Vec<(&str, LatencyHistogram)> = Vec::new();

    let fullchain_cycles = if args.smoke { 15 } else { 30 };
    let (hist, vo, fig11_compiled_best) = time_kernel("fig11", repeats, || {
        Fig11Scenario::shortened().run().expect("fig11 runs").vo_worst()
    });
    assert!(vo.is_finite(), "fig11 produced a non-finite Vo");
    kernels.push(("fig11", hist));

    // The same scenario on the dense reference engine: the denominator
    // of the compile-win claim. One rep is enough — it is the slow side.
    let interp_repeats = repeats.min(2);
    let (hist, vo, fig11_interp_best) = time_kernel("fig11_interp", interp_repeats, || {
        Fig11Scenario::shortened().run_reference().expect("fig11 reference runs").vo_worst()
    });
    assert!(vo.is_finite(), "fig11_interp produced a non-finite Vo");
    kernels.push(("fig11_interp", hist));

    let fig11_speedup =
        duration_us(fig11_interp_best) / duration_us(fig11_compiled_best).max(1e-9);
    println!("  fig11 speedup: {fig11_speedup:.2}x (best interp run / best compiled run)");

    // The same scenario again, through the partitioned multi-rate
    // engine: the numerator stays the compiled monolithic transient, so
    // the ratio isolates what the domain split buys on top of the
    // compiled engine. `run_cosim` calibrates from scratch each repeat.
    let pool = Pool::auto();
    let (hist, vo, fig11_cosim_best) = time_kernel("fig11_cosim", repeats, || {
        Fig11Scenario::shortened().run_cosim(&pool).expect("fig11 cosim runs").vo_worst()
    });
    assert!(vo.is_finite(), "fig11_cosim produced a non-finite Vo");
    kernels.push(("fig11_cosim", hist));

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
    let (hist, vo, _) = time_kernel("fig11_cosim_warm", repeats, warm_fig11);
    assert!(vo.is_finite(), "fig11_cosim_warm produced a non-finite Vo");
    kernels.push(("fig11_cosim_warm", hist));

    let cosim_speedup =
        duration_us(fig11_compiled_best) / duration_us(fig11_cosim_best).max(1e-9);
    println!("  cosim speedup: {cosim_speedup:.2}x (best compiled run / best cosim run)");

    // One profiled compiled run for the engine's own phase accounting.
    let (_, stats, compile_ns) =
        Fig11Scenario::shortened().run_profiled().expect("profiled fig11 runs");

    let fullchain = FullChainScenario {
        cycles: fullchain_cycles,
        ..FullChainScenario::ironic()
    };
    let (hist, vo, fullchain_best) = time_kernel("fullchain", repeats, || {
        fullchain.run().expect("fullchain runs").vo_steady()
    });
    assert!(vo.is_finite(), "fullchain produced a non-finite Vo");
    kernels.push(("fullchain", hist));

    let (hist, vo, _) = time_kernel("fullchain_cosim", repeats, || {
        fullchain
            .run_cosim(&pool)
            .expect("fullchain cosim runs")
            .vo_steady()
    });
    assert!(vo.is_finite(), "fullchain_cosim produced a non-finite Vo");
    kernels.push(("fullchain_cosim", hist));

    let warm_fullchain = || {
        fullchain
            .run_cosim_with(&pool, &tables)
            .expect("fullchain cosim runs")
            .vo_steady()
    };
    warm_fullchain();
    let (hist, vo, fullchain_warm_best) =
        time_kernel("fullchain_cosim_warm", repeats, warm_fullchain);
    assert!(
        vo.is_finite(),
        "fullchain_cosim_warm produced a non-finite Vo"
    );
    kernels.push(("fullchain_cosim_warm", hist));

    let fullchain_warm_speedup =
        duration_us(fullchain_best) / duration_us(fullchain_warm_best).max(1e-9);
    println!(
        "  warm full-chain cosim speedup: {fullchain_warm_speedup:.2}x \
         (best monolithic run / best warm cosim run)"
    );

    let mc_trials = args.mc_trials;
    let (hist, yield_sum, _) = time_kernel("montecarlo", repeats, || {
        MonteCarloStudy::ironic().run_serial(mc_trials).yield_fraction()
    });
    assert!(yield_sum.is_finite(), "montecarlo produced a non-finite yield");
    kernels.push(("montecarlo", hist));

    let (hist, power_sum, _) = time_kernel("sweep", repeats, || {
        let budget = PowerBudget::ironic_air();
        (0..16).map(|i| budget.received_power((2.0 + i as f64 * 2.0) * 1e-3)).sum()
    });
    assert!(power_sum.is_finite(), "sweep produced a non-finite power");
    kernels.push(("sweep", hist));

    let pair = CoilPair::ironic();
    let (hist, mutual_sum, _) = time_kernel("mutual_misaligned", repeats, || {
        pair.mutual_misaligned(6.0e-3, 1.0e-3)
    });
    assert!(mutual_sum.is_finite(), "mutual_misaligned produced a non-finite coupling");
    kernels.push(("mutual_misaligned", hist));

    let (hist, soc_sum, _) = time_kernel("patientday_sensing", repeats, || {
        let mut day = PatientDay::ironic(7);
        day.profile = DayProfile::Sensing;
        day.hours = 1.0;
        day.run().summary().soc_end
    });
    assert!(soc_sum.is_finite(), "patientday_sensing produced a non-finite charge");
    kernels.push(("patientday_sensing", hist));

    let rows = stage_rows();
    if args.profile {
        println!();
        println!("per-phase breakdown:");
        print!("{}", profile_table(&rows));
    }

    if let Some(path) = &args.json_path {
        let kernels_json = Json::Obj(
            kernels
                .iter()
                .map(|(name, hist)| {
                    (
                        (*name).to_string(),
                        Json::obj(vec![
                            ("runs", Json::Num(hist.count() as f64)),
                            ("p50_us", Json::Num(duration_us(hist.p50()))),
                            ("p95_us", Json::Num(duration_us(hist.p95()))),
                            ("p99_us", Json::Num(duration_us(hist.p99()))),
                        ]),
                    )
                })
                .collect(),
        );
        let compiled_json = Json::obj(vec![
            ("compile_us", Json::Num(compile_ns as f64 / 1e3)),
            ("unknowns", Json::Num(stats.unknowns as f64)),
            ("nonzeros", Json::Num(stats.nonzeros as f64)),
            ("newton_iterations", Json::Num(stats.newton_iterations as f64)),
            ("assemble_ms", Json::Num(stats.assemble_ns as f64 / 1e6)),
            ("factor_ms", Json::Num(stats.factor_ns as f64 / 1e6)),
            ("solve_ms", Json::Num(stats.solve_ns as f64 / 1e6)),
            ("pivoted_factorizations", Json::Num(stats.lu.pivoted_factorizations as f64)),
            ("refactorizations", Json::Num(stats.lu.refactorizations as f64)),
            (
                "rows_recomputed_per_refactor",
                Json::Num(
                    stats.lu.rows_recomputed as f64 / (stats.lu.refactorizations as f64).max(1.0),
                ),
            ),
            ("refactor_skips", Json::Num(stats.lu.refactor_skips as f64)),
            ("refactor_skip_rate", Json::Num(stats.refactor_skip_rate())),
            ("fig11_speedup", Json::Num(fig11_speedup)),
            ("cosim_speedup", Json::Num(cosim_speedup)),
            ("fullchain_warm_speedup", Json::Num(fullchain_warm_speedup)),
        ]);
        let doc = Json::obj(vec![
            ("schema", Json::Str("implant-bench-kernels/4".to_string())),
            (
                "config",
                Json::obj(vec![
                    ("repeats", Json::Num(args.repeats as f64)),
                    ("mc_trials", Json::Num(args.mc_trials as f64)),
                    ("fullchain_cycles", Json::Num(fullchain_cycles as f64)),
                    ("smoke", Json::Bool(args.smoke)),
                ]),
            ),
            ("kernels", kernels_json),
            ("compiled", compiled_json),
            ("stages", stages_json(&rows)),
        ]);
        bench::write_bench_json(path, &doc);
    }

    println!();
    println!("bench_kernels done ({} kernels)", kernels.len());
}
