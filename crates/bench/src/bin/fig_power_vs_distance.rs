//! E3 — §III-B: received power versus distance, and tissue ≈ air.
//!
//! Paper anchors: **15 mW at 6 mm** in air (maximum transmitted power);
//! **1.17 mW at 17 mm**, with a 17 mm slice of beef sirloin between the
//! coils giving "a value similar to that obtained in air". The model is
//! calibrated once at the 6 mm anchor; everything else is prediction.
//!
//! The distance × medium sweep is an `implant-runtime` grid batch: each
//! (distance, medium) point is one pool job, cached under the
//! `power-vs-distance` namespace (set `IMPLANT_CACHE_DIR` to persist).

use bench::{banner, verdict};
use coils::tissue::TissueStack;
use implant_core::report::{eng, Table};
use link::budget::PowerBudget;
use runtime::{Batch, Grid, Pool};

const DISTANCES_MM: [f64; 11] = [2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 17.0, 20.0, 25.0, 30.0];

fn main() {
    banner("E3", "§III-B received power vs distance (15 mW @ 6 mm anchor)");
    let air = PowerBudget::ironic_air();
    let sirloin = PowerBudget::ironic_air().with_tissue(TissueStack::sirloin_17mm());

    // Row-major grid, medium fastest: index = 2 * distance_index + medium.
    let grid = Grid::builder()
        .axis("distance_mm", DISTANCES_MM)
        .axis("medium", ["air", "sirloin"])
        .build();
    let batch = Batch::builder("power-vs-distance").grid(&grid).build();
    let cache = bench::harness_cache();
    let run = Pool::auto().run_cached(&batch, &cache, |ctx| {
        let d = ctx.point.f64("distance_mm") * 1e-3;
        match ctx.point.str("medium") {
            "air" => air.received_power(d),
            _ => sirloin.received_power(d),
        }
    });
    let p_rx = |i: usize, medium: usize| *run.value(2 * i + medium).expect("budget job ok");

    let mut table = Table::new(
        "received power vs coaxial distance",
        &["distance", "P_rx air", "P_rx sirloin", "k(d)"],
    );
    for (i, &mm) in DISTANCES_MM.iter().enumerate() {
        table.row_owned(vec![
            format!("{mm:>4.0} mm"),
            eng(p_rx(i, 0), "W"),
            eng(p_rx(i, 1), "W"),
            format!("{:.4}", air.pair().coupling_at(mm * 1e-3)),
        ]);
    }
    println!("{table}");
    println!("{}", run.metrics);

    let p6 = air.received_power(6.0e-3);
    let p17 = air.received_power(17.0e-3);
    let p17_meat = sirloin.received_power(17.0e-3);
    println!("paper: P(6 mm)  = 15 mW    model: {}", eng(p6, "W"));
    println!("paper: P(17 mm) = 1.17 mW  model: {}", eng(p17, "W"));
    println!(
        "paper: sirloin ≈ air at 17 mm; model ratio = {:.3}",
        p17_meat / p17
    );
    println!();
    println!("anchor reproduced exactly:            {}", verdict((p6 - 15.0e-3).abs() < 1e-6));
    println!(
        "17 mm power within 3× of the paper:   {}",
        verdict(p17 > 1.17e-3 / 3.0 && p17 < 1.17e-3 * 3.0)
    );
    println!("tissue within 15 % of air:            {}", verdict(p17_meat / p17 > 0.85));
    println!(
        "monotone steep falloff (P6/P17 > 4):  {}",
        verdict(p6 / p17 > 4.0)
    );
}
