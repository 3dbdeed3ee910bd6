//! Mutual inductance and coupling coefficient of coil pairs.
//!
//! Coaxial circular filaments use Maxwell's closed form in terms of
//! complete elliptic integrals. Laterally offset or tilted loops use one
//! line integral: loop 1's closed-form vector potential A_φ (elliptic K
//! and E again) integrated along loop 2 (Grover, *Inductance
//! Calculations*, 1946; Babič et al., IEEE Trans. Magn. 46(9), 2010).
//! Whole spirals are decomposed into filament loops
//! ([`crate::SpiralCoil::filaments`]) and summed pairwise — the same
//! filament method a coil designer would use in place of a VNA
//! measurement.

use crate::elliptic::ellip_ke;
use crate::spiral::SpiralCoil;
use crate::MU_0;
use std::f64::consts::PI;

/// Midpoint nodes of the misaligned-loop line integral on φ ∈ [0, π]
/// (the integrand is even in φ). The integrand is smooth and periodic,
/// so the rule converges geometrically; it is slowest where loop 2 passes
/// closest to loop 1's wire. Over the IronIC filaments at 1–30 mm depth
/// and up to 10 mm offset, 40 nodes stay within 7e-12 of a 1 024-node
/// reference (24 nodes reach 1.7e-8 at 1 mm / 9.8 mm, 32 nodes 6e-10).
const LINE_NODES: usize = 40;

/// Mutual inductance of two coaxial circular filament loops of radii
/// `r1`, `r2` separated axially by `z` (Maxwell's formula).
///
/// # Panics
///
/// Panics if either radius is non-positive or all of `z` ≈ 0 with
/// `r1` ≈ `r2` (coincident loops have no finite mutual inductance).
///
/// ```
/// use coils::mutual::mutual_coaxial_loops;
/// let near = mutual_coaxial_loops(10e-3, 10e-3, 2e-3);
/// let far = mutual_coaxial_loops(10e-3, 10e-3, 20e-3);
/// assert!(near > far);
/// ```
pub fn mutual_coaxial_loops(r1: f64, r2: f64, z: f64) -> f64 {
    assert!(r1 > 0.0 && r2 > 0.0, "loop radii must be positive");
    let z = z.abs();
    let denom = (r1 + r2) * (r1 + r2) + z * z;
    let m = 4.0 * r1 * r2 / denom; // elliptic parameter m = k²
    assert!(
        m < 1.0 - 1e-12,
        "coincident filaments (r1 = r2, z = 0) have no finite mutual inductance"
    );
    let k = m.sqrt();
    let (k_m, e_m) = ellip_ke(m);
    MU_0 * (r1 * r2).sqrt() * ((2.0 / k - k) * k_m - (2.0 / k) * e_m)
}

/// Mutual inductance of two circular loops with axial separation `z` and
/// lateral centre offset `offset` — the patch sliding on the skin.
///
/// At `offset = 0` this agrees with [`mutual_coaxial_loops`] to rounding.
///
/// # Panics
///
/// Panics if radii are non-positive or loop 2 touches loop 1's wire.
pub fn mutual_offset_loops(r1: f64, r2: f64, z: f64, offset: f64) -> f64 {
    mutual_tilted_loops(r1, r2, z, offset, 0.0)
}

/// Mutual inductance of two circular loops with the second loop tilted
/// by `tilt` radians about an axis through its centre (plus axial
/// separation `z` and lateral offset `offset`) — the patch resting on a
/// curved body part (the paper's Fig. 5) tilts the transmitting coil
/// relative to the implant.
///
/// # Panics
///
/// Panics if radii are non-positive, |tilt| ≥ π/2, or loop 2 touches
/// loop 1's wire.
///
/// ```
/// use coils::mutual::{mutual_coaxial_loops, mutual_tilted_loops};
/// let flat = mutual_coaxial_loops(10e-3, 4e-3, 6e-3);
/// let line = mutual_tilted_loops(10e-3, 4e-3, 6e-3, 0.0, 0.0);
/// assert!((line - flat).abs() < 1e-12 * flat);
/// ```
pub fn mutual_tilted_loops(r1: f64, r2: f64, z: f64, offset: f64, tilt: f64) -> f64 {
    assert!(r1 > 0.0 && r2 > 0.0, "loop radii must be positive");
    assert!(tilt.abs() < std::f64::consts::FRAC_PI_2, "tilt must stay below 90°");
    line_integral(r1, r2, z, offset, tilt.sin_cos(), &line_nodes(LINE_NODES))
}

/// `(sin φ, cos φ)` at the `n` midpoints of [0, π].
fn line_nodes(n: usize) -> Vec<(f64, f64)> {
    let h = PI / n as f64;
    (0..n).map(|i| ((i as f64 + 0.5) * h).sin_cos()).collect()
}

/// ∮ A₁ · dl₂ over loop 2 by the midpoint rule on `nodes`.
///
/// Loop 1 (radius `r1`) lies in z = 0 about the z axis. Loop 2 (radius
/// `r2`) is centred at (`offset`, 0, `z`) and tilted about the y axis by
/// the angle whose `(sin, cos)` is `tilt`, so its point at φ is
/// x = d + r2·cosφ·cosτ, y = r2·sinφ, z(φ) = z + r2·cosφ·sinτ. Loop 1's
/// azimuthal vector potential at cylindrical radius ρ and height z(φ) is
/// A_φ = µ0/(π√m)·√(r1/ρ)·((1 − m/2)K − E), m = 4·r1·ρ/((r1 + ρ)² +
/// z(φ)²), and its projection on dl₂ is A_φ·r2·(r2·cosτ + d·cosφ)/ρ dφ.
/// The integrand is even in φ, so [0, π] is integrated and doubled.
fn line_integral(
    r1: f64,
    r2: f64,
    z: f64,
    offset: f64,
    (st, ct): (f64, f64),
    nodes: &[(f64, f64)],
) -> f64 {
    let mut sum = 0.0;
    for &(s, c) in nodes {
        let x = offset + r2 * c * ct;
        let y = r2 * s;
        let rho = (x * x + y * y).sqrt();
        let zp = z + r2 * c * st;
        let m = 4.0 * r1 * rho / ((r1 + rho) * (r1 + rho) + zp * zp);
        let (k, e) = ellip_ke(m);
        let a_phi = (r1 / rho).sqrt() * ((1.0 - 0.5 * m) * k - e) / m.sqrt();
        sum += a_phi * (r2 * ct + offset * c) / rho;
    }
    2.0 * MU_0 / PI * r2 * (PI / nodes.len() as f64) * sum
}

/// Coupling coefficient `k = M / √(L1·L2)`.
///
/// # Panics
///
/// Panics if either inductance is non-positive.
pub fn coupling_coefficient(m: f64, l1: f64, l2: f64) -> f64 {
    assert!(l1 > 0.0 && l2 > 0.0, "inductances must be positive");
    m / (l1 * l2).sqrt()
}

/// A transmitter/receiver coil pair with precomputed self-inductances.
///
/// ```
/// use coils::CoilPair;
/// let pair = CoilPair::ironic();
/// let k6 = pair.coupling_at(6.0e-3);
/// let k17 = pair.coupling_at(17.0e-3);
/// assert!(k6 > k17 && k17 > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CoilPair {
    tx: SpiralCoil,
    rx: SpiralCoil,
    l_tx: f64,
    l_rx: f64,
}

impl CoilPair {
    /// Builds a pair from two coils, caching their self-inductances.
    pub fn new(tx: SpiralCoil, rx: SpiralCoil) -> Self {
        let l_tx = tx.inductance();
        let l_rx = rx.inductance();
        CoilPair { tx, rx, l_tx, l_rx }
    }

    /// The paper's coil pair: patch transmitter + implanted receiver.
    pub fn ironic() -> Self {
        CoilPair::new(SpiralCoil::ironic_transmitter(), SpiralCoil::ironic_receiver())
    }

    /// The transmitting coil.
    pub fn tx(&self) -> &SpiralCoil {
        &self.tx
    }

    /// The receiving coil.
    pub fn rx(&self) -> &SpiralCoil {
        &self.rx
    }

    /// Transmitter self-inductance (cached).
    pub fn l_tx(&self) -> f64 {
        self.l_tx
    }

    /// Receiver self-inductance (cached).
    pub fn l_rx(&self) -> f64 {
        self.l_rx
    }

    /// Mutual inductance at coaxial separation `distance` (filament sum).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive.
    pub fn mutual_at(&self, distance: f64) -> f64 {
        assert!(distance > 0.0, "coil distance must be positive");
        let f_tx = self.tx.filaments();
        let f_rx = self.rx.filaments();
        let mut m = 0.0;
        for &(r1, z1) in &f_tx {
            for &(r2, z2) in &f_rx {
                m += mutual_coaxial_loops(r1, r2, distance + z2 - z1);
            }
        }
        m
    }

    /// Mutual inductance at separation `distance` with lateral offset
    /// `lateral` between the coil axes (the vector-potential line
    /// integral over every filament pair; Maxwell's form when aligned).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive or `lateral` is negative.
    pub fn mutual_misaligned(&self, distance: f64, lateral: f64) -> f64 {
        assert!(distance > 0.0, "coil distance must be positive");
        assert!(lateral >= 0.0, "lateral offset cannot be negative");
        if lateral == 0.0 {
            return self.mutual_at(distance);
        }
        self.mutual_line(distance, lateral, 0.0, &line_nodes(LINE_NODES))
    }

    /// The line-integral mutual inductance summed over all filament
    /// pairs, the receiver filaments being loop 2 (the smaller loop, so
    /// the rule integrates along the shorter path).
    fn mutual_line(&self, distance: f64, lateral: f64, tilt: f64, nodes: &[(f64, f64)]) -> f64 {
        let tilt = tilt.sin_cos();
        let f_rx = self.rx.filaments();
        let mut m = 0.0;
        for &(r1, z1) in &self.tx.filaments() {
            for &(r2, z2) in &f_rx {
                m += line_integral(r1, r2, distance + z2 - z1, lateral, tilt, nodes);
            }
        }
        m
    }

    /// Coupling coefficient `k(d)` at coaxial separation `distance`.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive.
    pub fn coupling_at(&self, distance: f64) -> f64 {
        coupling_coefficient(self.mutual_at(distance), self.l_tx, self.l_rx)
    }

    /// Coupling coefficient with lateral misalignment.
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive or `lateral` is negative.
    pub fn coupling_misaligned(&self, distance: f64, lateral: f64) -> f64 {
        coupling_coefficient(self.mutual_misaligned(distance, lateral), self.l_tx, self.l_rx)
    }

    /// Coupling coefficient with the patch tilted by `tilt` radians on a
    /// curved placement (the line integral over all filament pairs).
    ///
    /// # Panics
    ///
    /// Panics if `distance` is not positive, `lateral` negative, or
    /// |tilt| ≥ π/2.
    pub fn coupling_tilted(&self, distance: f64, lateral: f64, tilt: f64) -> f64 {
        assert!(distance > 0.0, "coil distance must be positive");
        assert!(lateral >= 0.0, "lateral offset cannot be negative");
        assert!(tilt.abs() < std::f64::consts::FRAC_PI_2, "tilt must stay below 90°");
        let m = self.mutual_line(distance, lateral, tilt, &line_nodes(LINE_NODES));
        coupling_coefficient(m, self.l_tx, self.l_rx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The discretised Neumann double integral with `n` midpoint
    /// segments per loop — the independent reference for the line
    /// integral (same geometry: loop 2 offset along x, tilted about y).
    fn neumann(r1: f64, r2: f64, z: f64, offset: f64, tilt: f64, n: usize) -> f64 {
        let dphi = std::f64::consts::TAU / n as f64;
        let (st, ct) = tilt.sin_cos();
        let angles: Vec<(f64, f64)> =
            (0..n).map(|i| ((i as f64 + 0.5) * dphi).sin_cos()).collect();
        let mut sum = 0.0;
        for &(s1, c1) in &angles {
            let p1 = (r1 * c1, r1 * s1);
            for &(s2, c2) in &angles {
                let dx = p1.0 - (offset + r2 * c2 * ct);
                let dy = p1.1 - r2 * s2;
                let dz = z + r2 * c2 * st;
                let dot = s1 * s2 * ct + c1 * c2;
                sum += dot / (dx * dx + dy * dy + dz * dz).sqrt();
            }
        }
        MU_0 / (4.0 * PI) * r1 * r2 * dphi * dphi * sum
    }

    /// The IronIC pair's filament sum at `nodes` line-integral nodes.
    fn ironic_line(distance: f64, lateral: f64, tilt: f64, nodes: usize) -> f64 {
        CoilPair::ironic().mutual_line(distance, lateral, tilt, &line_nodes(nodes))
    }

    #[test]
    fn maxwell_matches_dipole_far_field() {
        // Far apart, M → µ0·π·r1²·r2²/(2·z³) (magnetic dipole limit).
        let (r1, r2, z) = (5.0e-3, 4.0e-3, 200.0e-3);
        let m = mutual_coaxial_loops(r1, r2, z);
        let dipole = MU_0 * std::f64::consts::PI * r1 * r1 * r2 * r2 / (2.0 * z * z * z);
        assert!((m - dipole).abs() / dipole < 0.01, "m = {m}, dipole = {dipole}");
    }

    #[test]
    fn line_integral_matches_maxwell_at_zero_offset() {
        // Aligned, the integrand is constant in φ: the rule is exact.
        for (r1, r2, z) in [(10.0e-3, 6.0e-3, 8.0e-3), (20.0e-3, 4.9e-3, 1.0e-3)] {
            let maxwell = mutual_coaxial_loops(r1, r2, z);
            let line = mutual_offset_loops(r1, r2, z, 0.0);
            assert!((line - maxwell).abs() <= 1e-13 * maxwell, "line {line} vs maxwell {maxwell}");
        }
    }

    #[test]
    fn line_integral_matches_neumann_per_filament() {
        // Offset and tilted loops against a 512-segment Neumann sum.
        for (r1, r2, z, offset, tilt_deg) in [
            (10.0e-3, 4.9e-3, 1.0e-3, 10.0e-3, 0.0),
            (20.0e-3, 3.9e-3, 2.0e-3, 5.0e-3, 0.0),
            (15.0e-3, 4.5e-3, 6.0e-3, 3.0e-3, 20.0),
            (10.0e-3, 4.0e-3, 12.0e-3, 0.0, -40.0),
        ] {
            let tilt = f64::to_radians(tilt_deg);
            let line = mutual_tilted_loops(r1, r2, z, offset, tilt);
            let reference = neumann(r1, r2, z, offset, tilt, 512);
            let scale = mutual_coaxial_loops(r1, r2, z);
            assert!(
                (line - reference).abs() <= 1e-9 * scale,
                "({r1}, {r2}, {z}, {offset}, {tilt_deg}°): line {line} vs neumann {reference}"
            );
        }
    }

    #[test]
    fn ironic_envelope_is_converged_at_the_node_count() {
        // Every served patch placement: depth 1–30 mm, lateral 0–10 mm.
        let pair = CoilPair::ironic();
        for depth_mm in [1.0, 1.5, 2.0, 4.0, 6.0, 10.0, 17.0, 30.0] {
            for lateral_mm in [0.0, 0.25, 1.0, 3.0, 5.0, 7.5, 10.0] {
                let (d, l) = (depth_mm * 1e-3, lateral_mm * 1e-3);
                let served = pair.mutual_misaligned(d, l);
                let reference = ironic_line(d, l, 0.0, 1024);
                assert!(
                    (served - reference).abs() <= 1e-9 * reference.abs(),
                    "{depth_mm} mm / {lateral_mm} mm: {served} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn converged_reference_agrees_with_neumann() {
        // The 1 024-node reference itself, against an independent
        // 512-segment Neumann sum over every filament pair.
        let pair = CoilPair::ironic();
        for (depth_mm, lateral_mm) in [(1.0, 10.0), (6.0, 1.0), (30.0, 5.0)] {
            let (d, l) = (depth_mm * 1e-3, lateral_mm * 1e-3);
            let reference = ironic_line(d, l, 0.0, 1024);
            let mut neumann_sum = 0.0;
            for &(r1, z1) in &pair.tx().filaments() {
                for &(r2, z2) in &pair.rx().filaments() {
                    neumann_sum += neumann(r1, r2, d + z2 - z1, l, 0.0, 512);
                }
            }
            assert!(
                (reference - neumann_sum).abs() <= 1e-8 * reference.abs(),
                "{depth_mm} mm / {lateral_mm} mm: {reference} vs {neumann_sum}"
            );
        }
    }

    #[test]
    fn mutual_decreases_with_distance() {
        let mut prev = f64::INFINITY;
        for mm in 1..30 {
            let m = mutual_coaxial_loops(10.0e-3, 5.0e-3, mm as f64 * 1.0e-3);
            assert!(m < prev && m > 0.0);
            prev = m;
        }
    }

    #[test]
    fn mutual_decreases_with_lateral_offset_then_reverses() {
        // Sliding one loop sideways reduces coupling; far enough out the
        // flux linkage reverses sign (the classic null).
        let (r1, r2, z) = (10.0e-3, 10.0e-3, 5.0e-3);
        let m0 = mutual_offset_loops(r1, r2, z, 0.0);
        let m_half = mutual_offset_loops(r1, r2, z, 8.0e-3);
        let m_past = mutual_offset_loops(r1, r2, z, 25.0e-3);
        assert!(m0 > m_half, "m0 {m0} vs offset {m_half}");
        assert!(m_past < 0.1 * m0, "far offset keeps little coupling: {m_past}");
    }

    #[test]
    fn symmetry_in_radii() {
        let a = mutual_coaxial_loops(7.0e-3, 3.0e-3, 4.0e-3);
        let b = mutual_coaxial_loops(3.0e-3, 7.0e-3, 4.0e-3);
        assert!((a - b).abs() / a < 1e-12);
    }

    #[test]
    fn ironic_pair_coupling_magnitudes() {
        let pair = CoilPair::ironic();
        let k6 = pair.coupling_at(6.0e-3);
        let k17 = pair.coupling_at(17.0e-3);
        // Loosely coupled biomedical links live around k = 0.01…0.3.
        assert!((0.01..0.5).contains(&k6), "k(6mm) = {k6}");
        assert!(k17 < k6 / 2.0, "k drops steeply: {k17} vs {k6}");
        assert!(k17 > 0.0);
    }

    #[test]
    fn misalignment_reduces_ironic_coupling() {
        let pair = CoilPair::ironic();
        let k_centered = pair.coupling_misaligned(6.0e-3, 0.0);
        let k_off = pair.coupling_misaligned(6.0e-3, 10.0e-3);
        assert!(k_off < k_centered);
    }

    #[test]
    fn coupling_coefficient_bounds() {
        // k of physically coupled coils must be below 1.
        let pair = CoilPair::ironic();
        for mm in [2.0e-3, 6.0e-3, 10.0e-3, 17.0e-3] {
            let k = pair.coupling_at(mm);
            assert!(k > 0.0 && k < 1.0, "k({mm}) = {k}");
        }
    }

    #[test]
    #[should_panic(expected = "coincident filaments")]
    fn coincident_loops_rejected() {
        let _ = mutual_coaxial_loops(5.0e-3, 5.0e-3, 0.0);
    }

    #[test]
    fn tilted_matches_flat_at_zero_tilt() {
        let (r1, r2, z) = (10.0e-3, 6.0e-3, 8.0e-3);
        let flat = mutual_offset_loops(r1, r2, z, 3.0e-3);
        let tilted = mutual_tilted_loops(r1, r2, z, 3.0e-3, 0.0);
        assert_eq!(flat.to_bits(), tilted.to_bits());
    }

    #[test]
    fn tilt_follows_cosine_to_first_order() {
        // Small-coil limit: M(θ) ≈ M(0)·cosθ.
        let (r1, r2, z) = (10.0e-3, 3.0e-3, 12.0e-3);
        let m0 = mutual_tilted_loops(r1, r2, z, 0.0, 0.0);
        let m30 = mutual_tilted_loops(r1, r2, z, 0.0, 30.0f64.to_radians());
        let ratio = m30 / m0;
        let cos30 = 30.0f64.to_radians().cos();
        assert!(
            (ratio - cos30).abs() < 0.06,
            "M(30°)/M(0°) = {ratio} vs cos30° = {cos30}"
        );
    }

    #[test]
    fn tilt_reduces_coupling_monotonically() {
        let (r1, r2, z) = (10.0e-3, 5.0e-3, 6.0e-3);
        let mut prev = f64::INFINITY;
        for deg in [0.0f64, 15.0, 30.0, 45.0, 60.0] {
            let m = mutual_tilted_loops(r1, r2, z, 0.0, deg.to_radians());
            assert!(m < prev, "tilt {deg}°: {m}");
            prev = m;
        }
    }

    #[test]
    #[should_panic(expected = "below 90")]
    fn edge_on_tilt_rejected() {
        let _ = mutual_tilted_loops(5.0e-3, 5.0e-3, 5.0e-3, 0.0, 1.6);
    }
}

#[cfg(test)]
mod pair_tilt_tests {
    use super::*;

    #[test]
    fn pair_tilt_reduces_coupling() {
        let pair = CoilPair::ironic();
        let flat = pair.coupling_tilted(8.0e-3, 0.0, 0.0);
        let tilted = pair.coupling_tilted(8.0e-3, 0.0, 30.0f64.to_radians());
        assert!(tilted < flat, "{tilted} vs {flat}");
        assert!(tilted > 0.5 * flat, "30° keeps most of the coupling");
    }

    #[test]
    fn pair_tilt_consistent_with_misaligned_at_zero() {
        // One routine serves both: at zero tilt they are the same sum.
        let pair = CoilPair::ironic();
        let a = pair.coupling_tilted(8.0e-3, 4.0e-3, 0.0);
        let b = pair.coupling_misaligned(8.0e-3, 4.0e-3);
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
