#![cfg(feature = "fuzz")]

//! Property-based tests of the magnetics invariants.

use coils::elliptic::{ellip_e, ellip_k};
use coils::mutual::{
    coupling_coefficient, mutual_coaxial_loops, mutual_offset_loops, mutual_tilted_loops,
};
use coils::spiral::{SpiralCoil, SpiralShape};
use coils::tissue::{TissueLayer, TissueStack};
use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

/// The discretised Neumann double integral with `n` midpoint segments
/// per loop (loop 2 offset along x, tilted about y) — an independent
/// reference for the vector-potential line integral.
fn neumann(r1: f64, r2: f64, z: f64, offset: f64, tilt: f64, n: usize) -> f64 {
    let dphi = TAU / n as f64;
    let (st, ct) = tilt.sin_cos();
    let angles: Vec<(f64, f64)> = (0..n).map(|i| ((i as f64 + 0.5) * dphi).sin_cos()).collect();
    let mut sum = 0.0;
    for &(s1, c1) in &angles {
        for &(s2, c2) in &angles {
            let dx = r1 * c1 - (offset + r2 * c2 * ct);
            let dy = r1 * s1 - r2 * s2;
            let dz = z + r2 * c2 * st;
            sum += (s1 * s2 * ct + c1 * c2) / (dx * dx + dy * dy + dz * dz).sqrt();
        }
    }
    coils::MU_0 / (4.0 * PI) * r1 * r2 * dphi * dphi * sum
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Legendre's relation holds across the whole parameter range.
    #[test]
    fn legendre_relation(m in 0.001f64..0.999) {
        let lhs = ellip_k(m) * ellip_e(1.0 - m) + ellip_e(m) * ellip_k(1.0 - m)
            - ellip_k(m) * ellip_k(1.0 - m);
        prop_assert!((lhs - std::f64::consts::FRAC_PI_2).abs() < 1e-10);
    }

    /// Mutual inductance is symmetric, positive for coaxial loops, and
    /// decreasing in separation.
    #[test]
    fn coaxial_mutual_properties(
        r1 in 1.0e-3f64..30.0e-3,
        r2 in 1.0e-3f64..30.0e-3,
        z in 1.0e-3f64..50.0e-3,
    ) {
        let m = mutual_coaxial_loops(r1, r2, z);
        prop_assert!(m > 0.0);
        let m_swap = mutual_coaxial_loops(r2, r1, z);
        prop_assert!((m - m_swap).abs() <= 1e-12 * m);
        let m_far = mutual_coaxial_loops(r1, r2, z * 1.5);
        prop_assert!(m_far < m);
    }

    /// The coupling coefficient of any physical loop pair stays in (0, 1):
    /// M ≤ √(L1·L2) with L for a single loop ≈ µ0·r·(ln(8r/a) − 2).
    #[test]
    fn filament_k_below_unity(
        r1 in 2.0e-3f64..20.0e-3,
        r2 in 2.0e-3f64..20.0e-3,
        z in 0.5e-3f64..30.0e-3,
    ) {
        let wire = 0.1e-3; // wire radius for the loop self-inductance
        let l_self = |r: f64| coils::MU_0 * r * ((8.0 * r / wire).ln() - 2.0);
        let m = mutual_coaxial_loops(r1, r2, z);
        let k = coupling_coefficient(m, l_self(r1), l_self(r2));
        prop_assert!(k > 0.0 && k < 1.0, "k = {k}");
    }

    /// The line integral reduces to Maxwell's closed form when aligned.
    #[test]
    fn line_integral_matches_maxwell(
        r1 in 3.0e-3f64..15.0e-3,
        r2 in 3.0e-3f64..15.0e-3,
        z in 3.0e-3f64..20.0e-3,
    ) {
        let exact = mutual_coaxial_loops(r1, r2, z);
        let line = mutual_offset_loops(r1, r2, z, 0.0);
        prop_assert!((line - exact).abs() <= 1e-12 * exact, "{line} vs {exact}");
    }

    /// Offset and tilted loops agree with a 512-segment Neumann sum. The
    /// bound is absolute, scaled by the aligned coupling, so a placement
    /// near the sign-reversal null cannot fail it on a tiny denominator.
    /// Loop 2 is the smaller, implant-sized loop and keeps ≥ 1 mm from
    /// loop 1's plane at every tilt.
    #[test]
    fn line_integral_matches_neumann(
        r1 in 5.0e-3f64..20.0e-3,
        r2 in 1.0e-3f64..5.0e-3,
        gap in 1.0e-3f64..30.0e-3,
        offset in 0.0f64..15.0e-3,
        tilt_deg in -60.0f64..60.0,
    ) {
        let tilt = tilt_deg.to_radians();
        let z = gap + r2 * tilt.sin().abs();
        let line = mutual_tilted_loops(r1, r2, z, offset, tilt);
        let reference = neumann(r1, r2, z, offset, tilt, 512);
        let scale = mutual_coaxial_loops(r1, r2, z);
        prop_assert!(
            (line - reference).abs() <= 1e-9 * scale,
            "line {line} vs neumann {reference} (scale {scale})"
        );
    }

    /// Current-sheet inductance scales as n² and grows with diameter.
    #[test]
    fn inductance_scaling(
        n in 2u32..20,
        dout_mm in 6.0f64..50.0,
    ) {
        let dout = dout_mm * 1e-3;
        let din = dout * 0.5;
        let coil = SpiralCoil::planar(SpiralShape::Circular, n, dout, din, 0.2e-3, 35e-6);
        let double = SpiralCoil::planar(SpiralShape::Circular, 2 * n, dout, din, 0.2e-3, 35e-6);
        let ratio = double.layer_inductance() / coil.layer_inductance();
        prop_assert!((ratio - 4.0).abs() < 1e-9);
        let bigger =
            SpiralCoil::planar(SpiralShape::Circular, n, dout * 1.3, din * 1.3, 0.2e-3, 35e-6);
        prop_assert!(bigger.layer_inductance() > coil.layer_inductance());
    }

    /// Q is positive and the AC resistance never drops below DC.
    #[test]
    fn resistance_and_q(
        n in 2u32..15,
        f_mhz in 0.5f64..30.0,
    ) {
        let coil = SpiralCoil::planar(SpiralShape::Circular, n, 30.0e-3, 12.0e-3, 0.5e-3, 35e-6);
        let f = f_mhz * 1e6;
        prop_assert!(coil.ac_resistance(f) >= coil.dc_resistance() * 0.999);
        prop_assert!(coil.quality_factor(f) > 0.0);
    }

    /// Tissue attenuation lies in (0, 1] and composes multiplicatively.
    #[test]
    fn tissue_attenuation_composes(
        t1_mm in 1.0f64..20.0,
        t2_mm in 1.0f64..20.0,
        f_mhz in 1.0f64..100.0,
    ) {
        let f = f_mhz * 1e6;
        let a = TissueStack::from_layers(vec![TissueLayer::muscle(t1_mm * 1e-3)]);
        let b = TissueStack::from_layers(vec![TissueLayer::fat(t2_mm * 1e-3)]);
        let both = TissueStack::from_layers(vec![
            TissueLayer::muscle(t1_mm * 1e-3),
            TissueLayer::fat(t2_mm * 1e-3),
        ]);
        let (fa, fb, fab) =
            (a.attenuation_factor(f), b.attenuation_factor(f), both.attenuation_factor(f));
        prop_assert!(fa > 0.0 && fa <= 1.0);
        prop_assert!((fab - fa * fb).abs() < 1e-12);
    }
}
