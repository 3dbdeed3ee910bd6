//! Extension — Monte Carlo parametric yield of the Fig. 11 criteria.
//!
//! The paper's stated future work is silicon characterization; the
//! simulated analogue is a process-variation yield study: perturb diode
//! drops, logic thresholds, passives and link gain with 0.18 µm-class
//! corner widths and count how often the design still satisfies all
//! three Fig. 11 pass criteria (charges in time, 18/18 bits, Vo ≥ 2.1 V).
//!
//! Each corner width is one job in an `implant-runtime` batch: the six
//! studies run in parallel on the worker pool, with yield reports keyed
//! by their parameter point in the result cache (set `IMPLANT_CACHE_DIR`
//! to persist them across runs). The batch summary line reports
//! per-job wall-time percentiles (p50/p95/p99) from the runtime's
//! latency histogram rather than a single min/mean/max triple.

use bench::{banner, verdict};
use implant_core::montecarlo::{MonteCarloStudy, VariationModel};
use implant_core::report::Table;
use runtime::{Batch, ParamPoint, Pool};

fn main() {
    banner("MC", "parametric yield of the Fig. 11 criteria (extension)");
    const TRIALS: usize = 5000;
    const SCALES: [f64; 6] = [0.0, 0.5, 1.0, 2.0, 4.0, 8.0];

    let mut builder = Batch::builder("montecarlo-yield").seed(MonteCarloStudy::ironic().seed);
    for scale in SCALES {
        builder =
            builder.point(ParamPoint::new().with("scale", scale).with("trials", TRIALS as u64));
    }
    let batch = builder.build();
    let cache = bench::harness_cache();
    let run = Pool::auto().run_cached(&batch, &cache, |ctx| {
        let mut study = MonteCarloStudy::ironic();
        study.variation = VariationModel::typical_018um().scaled(ctx.point.f64("scale"));
        // Each job is one full study; its trials draw from the study's
        // own seed-derived streams, so the report is independent of how
        // the batch lands on workers.
        study.run_serial(ctx.point.u64("trials") as usize)
    });

    let mut table = Table::new(
        "yield vs variation scale (5000 trials each)",
        &["corner width", "yield", "charge ok", "downlink ok", "Vo ok", "worst Vo"],
    );
    let mut yields = Vec::new();
    for (i, &scale) in SCALES.iter().enumerate() {
        let r = run.value(i).expect("yield study must not panic");
        yields.push((scale, r.yield_fraction()));
        table.row_owned(vec![
            format!("{scale:.1}× typical"),
            format!("{:.1} %", r.yield_fraction() * 100.0),
            format!("{:.1} %", r.charge_ok as f64 / r.trials as f64 * 100.0),
            format!("{:.1} %", r.downlink_ok as f64 / r.trials as f64 * 100.0),
            format!("{:.1} %", r.vo_ok as f64 / r.trials as f64 * 100.0),
            format!("{:.2} V", r.vo_min_worst),
        ]);
    }
    println!("{table}");
    println!("{}", run.metrics);

    let nominal_full = yields.first().map(|&(_, y)| y >= 1.0).unwrap_or(false);
    let typical = yields.iter().find(|&&(s, _)| s == 1.0).map(|&(_, y)| y).unwrap_or(0.0);
    let monotone = yields.windows(2).all(|w| w[1].1 <= w[0].1 + 0.01);
    println!("nominal design passes everywhere:        {}", verdict(nominal_full));
    println!("yield at typical corners ≥ 95 %:          {}", verdict(typical >= 0.95));
    println!("yield degrades monotonically with width:  {}", verdict(monotone));
    println!();
    println!("dominant failure mode at wide corners: the demodulator's");
    println!("level-shift vs inverter-threshold margin (diode/VTO spread) —");
    println!("the same margin a silicon characterization would measure first.");
}
