//! Complete elliptic integrals via the arithmetic–geometric mean.
//!
//! Maxwell's mutual-inductance formula for coaxial circular loops needs
//! K(m) and E(m); no offline crate provides them, so they are implemented
//! here with the classic AGM iteration (quadratic convergence, ~5
//! iterations to machine precision). [`ellip_ke`] runs one AGM sequence
//! for both, which is what the mutual-inductance kernels call.

/// Complete elliptic integral of the first kind, K(m), with parameter
/// `m = k²` (not the modulus `k`).
///
/// # Panics
///
/// Panics unless `0 ≤ m < 1`.
///
/// ```
/// use coils::elliptic::ellip_k;
/// // K(0) = π/2
/// assert!((ellip_k(0.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
/// ```
pub fn ellip_k(m: f64) -> f64 {
    ellip_ke(m).0
}

/// Complete elliptic integral of the second kind, E(m), with parameter
/// `m = k²`.
///
/// # Panics
///
/// Panics unless `0 ≤ m ≤ 1`.
///
/// ```
/// use coils::elliptic::ellip_e;
/// // E(1) = 1
/// assert!((ellip_e(1.0) - 1.0).abs() < 1e-15);
/// ```
pub fn ellip_e(m: f64) -> f64 {
    assert!((0.0..=1.0).contains(&m), "E(m) requires 0 <= m <= 1, got {m}");
    if m == 1.0 {
        return 1.0;
    }
    ellip_ke(m).1
}

/// Both complete elliptic integrals, `(K(m), E(m))`, from one AGM
/// sequence — what Maxwell's formula and the vector potential of a loop
/// need at every evaluation.
///
/// K stops once `|a − b| ≤ 1e-15·a`; E carries the sum of squared
/// differences (Abramowitz & Stegun 17.6) until `|c| ≤ 1e-15·a`. Each
/// rule is captured where it fires (at most 40 steps each), so both
/// values are bit-identical to running the two iterations separately.
///
/// # Panics
///
/// Panics unless `0 ≤ m < 1`.
///
/// ```
/// use coils::elliptic::ellip_ke;
/// let (k, e) = ellip_ke(0.0);
/// assert_eq!(k, e); // both π/2 at m = 0
/// ```
pub fn ellip_ke(m: f64) -> (f64, f64) {
    assert!((0.0..1.0).contains(&m), "K(m) requires 0 <= m < 1, got {m}");
    const MAX_STEPS: usize = 40;
    let mut a = 1.0f64;
    let mut b = (1.0 - m).sqrt();
    let mut c = m.sqrt();
    let mut sum = c * c / 2.0;
    let mut pow2 = 1.0f64;
    let mut k_agm = None;
    let mut e_sum = None;
    // Quadratic convergence: 40 steps is far beyond f64 precision; the
    // relative thresholds avoid stalling at machine epsilon.
    for step in 0..=MAX_STEPS {
        if k_agm.is_none() && (step == MAX_STEPS || (a - b).abs() <= 1e-15 * a) {
            k_agm = Some(a);
        }
        if e_sum.is_none() && (step == MAX_STEPS || c.abs() <= 1e-15 * a) {
            e_sum = Some(sum);
        }
        if let (Some(a_k), Some(sum_e)) = (k_agm, e_sum) {
            let k = std::f64::consts::FRAC_PI_2 / a_k;
            return (k, k * (1.0 - sum_e));
        }
        let an = 0.5 * (a + b);
        let bn = (a * b).sqrt();
        c = 0.5 * (a - b);
        pow2 *= 2.0;
        sum += pow2 * c * c / 2.0;
        a = an;
        b = bn;
    }
    unreachable!("both stop rules fire by step {MAX_STEPS}")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct numerical quadrature of the defining integrals, as an
    /// independent reference.
    fn k_quadrature(m: f64) -> f64 {
        let n = 200_000;
        let h = std::f64::consts::FRAC_PI_2 / n as f64;
        (0..n)
            .map(|i| {
                let theta = (i as f64 + 0.5) * h;
                h / (1.0 - m * theta.sin().powi(2)).sqrt()
            })
            .sum()
    }

    fn e_quadrature(m: f64) -> f64 {
        let n = 200_000;
        let h = std::f64::consts::FRAC_PI_2 / n as f64;
        (0..n)
            .map(|i| {
                let theta = (i as f64 + 0.5) * h;
                h * (1.0 - m * theta.sin().powi(2)).sqrt()
            })
            .sum()
    }

    #[test]
    fn agm_matches_quadrature() {
        for m in [0.05, 0.3, 0.5, 0.8, 0.95] {
            assert!((ellip_k(m) - k_quadrature(m)).abs() < 1e-8, "K({m})");
            assert!((ellip_e(m) - e_quadrature(m)).abs() < 1e-8, "E({m})");
        }
        // K(0.5) from Abramowitz & Stegun: 1.85407467730137...
        assert!((ellip_k(0.5) - 1.854_074_677_301_37).abs() < 1e-12);
        assert!((ellip_e(0.0) - std::f64::consts::FRAC_PI_2).abs() < 1e-15);
    }

    #[test]
    fn legendre_relation() {
        // K(m)·E(1−m) + E(m)·K(1−m) − K(m)·K(1−m) = π/2 for all m.
        for m in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let lhs = ellip_k(m) * ellip_e(1.0 - m) + ellip_e(m) * ellip_k(1.0 - m)
                - ellip_k(m) * ellip_k(1.0 - m);
            assert!(
                (lhs - std::f64::consts::FRAC_PI_2).abs() < 1e-12,
                "legendre relation fails at m = {m}: {lhs}"
            );
        }
    }

    /// The separate K and E iterations `ellip_ke` replaced, kept
    /// verbatim as the bit-exact reference.
    fn k_two_loop(m: f64) -> f64 {
        let mut a = 1.0f64;
        let mut b = (1.0 - m).sqrt();
        for _ in 0..40 {
            if (a - b).abs() <= 1e-15 * a {
                break;
            }
            let an = 0.5 * (a + b);
            let bn = (a * b).sqrt();
            a = an;
            b = bn;
        }
        std::f64::consts::FRAC_PI_2 / a
    }

    fn e_two_loop(m: f64) -> f64 {
        if m == 1.0 {
            return 1.0;
        }
        let mut a = 1.0f64;
        let mut b = (1.0 - m).sqrt();
        let mut c = m.sqrt();
        let mut sum = c * c / 2.0;
        let mut pow2 = 1.0f64;
        for _ in 0..40 {
            if c.abs() <= 1e-15 * a {
                break;
            }
            let an = 0.5 * (a + b);
            let bn = (a * b).sqrt();
            c = 0.5 * (a - b);
            pow2 *= 2.0;
            sum += pow2 * c * c / 2.0;
            a = an;
            b = bn;
        }
        k_two_loop(m) * (1.0 - sum)
    }

    #[test]
    fn one_agm_is_bit_identical_to_two_loops() {
        let mut grid = vec![0.0, 1e-300, 1e-16, 1e-12, 1e-9, 1e-6, 1e-3];
        grid.extend((1..20_000).map(|i| i as f64 / 20_000.0));
        grid.extend((3..=12).map(|p| 1.0 - 10f64.powi(-p)));
        for m in grid {
            let (k, e) = ellip_ke(m);
            assert_eq!(k.to_bits(), k_two_loop(m).to_bits(), "K({m})");
            assert_eq!(e.to_bits(), e_two_loop(m).to_bits(), "E({m})");
            assert_eq!(ellip_k(m).to_bits(), k.to_bits(), "ellip_k({m})");
            assert_eq!(ellip_e(m).to_bits(), e.to_bits(), "ellip_e({m})");
        }
        assert_eq!(ellip_e(1.0).to_bits(), e_two_loop(1.0).to_bits());
    }

    #[test]
    fn k_diverges_near_one() {
        assert!(ellip_k(0.999999) > 7.0);
    }

    #[test]
    fn monotonicity() {
        let mut prev_k = ellip_k(0.0);
        let mut prev_e = ellip_e(0.0);
        for i in 1..100 {
            let m = i as f64 / 100.0;
            let k = ellip_k(m);
            let e = ellip_e(m);
            assert!(k > prev_k, "K must increase with m");
            assert!(e < prev_e, "E must decrease with m");
            prev_k = k;
            prev_e = e;
        }
    }

    #[test]
    #[should_panic(expected = "requires 0 <= m < 1")]
    fn k_rejects_m_of_one() {
        let _ = ellip_k(1.0);
    }
}
