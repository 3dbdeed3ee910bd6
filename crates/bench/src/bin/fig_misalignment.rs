//! E9 — Fig. 5 context: the wearability envelope.
//!
//! Fig. 5 shows the patch placed on concave/convex body parts over the
//! implantation zone; the engineering question underneath is how much
//! lateral misalignment and extra depth the link tolerates. This
//! harness sweeps both and reports where the implant's minimum supply
//! power (the 5 mW operating point of §IV-C, and the worst-case 2.3 mW
//! sensor demand) is still met.
//!
//! Both sweeps are `implant-runtime` grid batches over (depth, offset)
//! points, evaluated on the worker pool with per-point result caching.

use bench::{banner, verdict};
use implant_core::report::{eng, Table};
use link::budget::PowerBudget;
use runtime::{Batch, Grid, Pool};

const DEPTHS_MM: [f64; 4] = [4.0, 6.0, 10.0, 14.0];
const OFFSETS_MM: [f64; 4] = [0.0, 5.0, 10.0, 15.0];
const ENVELOPE_OFFSETS_MM: [f64; 8] = [0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 15.0];

fn main() {
    banner("E9", "Fig. 5 context: misalignment/depth tolerance of the link");
    let budget = PowerBudget::ironic_air();
    let p_operating = 5.0e-3; // §IV-C simulation operating point
    let p_survival = 2.3e-6 * 1000.0; // 2.3 mW worst-case sensor demand

    let pool = Pool::auto();
    let cache = bench::harness_cache();
    let power_job = |ctx: &mut runtime::JobCtx| {
        budget.received_power_misaligned(
            ctx.point.f64("depth_mm") * 1e-3,
            ctx.point.f64("offset_mm") * 1e-3,
        )
    };

    // Sweep 1: depth × offset map (offset is the fast axis, row-major).
    let grid = Grid::builder().axis("depth_mm", DEPTHS_MM).axis("offset_mm", OFFSETS_MM).build();
    let map = pool.run_cached(
        &Batch::builder("misalignment-map").grid(&grid).build(),
        &cache,
        power_job,
    );

    let mut table = Table::new(
        "received power vs depth × lateral offset",
        &["depth \\ offset", "0 mm", "5 mm", "10 mm", "15 mm"],
    );
    for (di, &depth_mm) in DEPTHS_MM.iter().enumerate() {
        let mut row = vec![format!("{depth_mm:>4.0} mm")];
        for oi in 0..OFFSETS_MM.len() {
            let p = map.value(di * OFFSETS_MM.len() + oi).expect("map job ok");
            row.push(eng(*p, "W"));
        }
        table.row_owned(row);
    }
    println!("{table}");
    println!("{}", map.metrics);

    // Sweep 2: operating envelope at the nominal 6 mm depth.
    let grid =
        Grid::builder().axis("depth_mm", [6.0]).axis("offset_mm", ENVELOPE_OFFSETS_MM).build();
    let env = pool.run_cached(
        &Batch::builder("misalignment-envelope").grid(&grid).build(),
        &cache,
        power_job,
    );

    let mut envelope = Table::new(
        "operating margin at 6 mm depth",
        &["offset", "P_rx", "≥ 5 mW op point", "≥ 2.3 mW survival"],
    );
    let mut max_offset_op = 0.0f64;
    for (oi, &off_mm) in ENVELOPE_OFFSETS_MM.iter().enumerate() {
        let p = *env.value(oi).expect("envelope job ok");
        if p >= p_operating {
            max_offset_op = off_mm;
        }
        envelope.row_owned(vec![
            format!("{off_mm:>4.0} mm"),
            eng(p, "W"),
            if p >= p_operating { "yes".into() } else { "no".to_string() },
            if p >= p_survival { "yes".into() } else { "no".to_string() },
        ]);
    }
    println!("{envelope}");
    println!(
        "the patch tolerates ≈ {max_offset_op:.0} mm of lateral slip at full operation"
    );
    println!(
        "centred power decreases monotonically with offset: {}",
        verdict({
            let mut prev = f64::INFINITY;
            let mut ok = true;
            for off_mm in [0.0, 4.0, 8.0, 12.0, 16.0] {
                let p = budget.received_power_misaligned(6.0e-3, off_mm * 1e-3);
                ok &= p <= prev;
                prev = p;
            }
            ok
        })
    );
}
