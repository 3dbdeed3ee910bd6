//! Structured co-simulation failures.

use analog::SimError;

/// Why a co-simulation could not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum CosimError {
    /// The waveform-relaxation loop hit its iteration guard with the
    /// boundary residual still above tolerance.
    Diverged {
        /// Start of the offending macro-step, seconds.
        t: f64,
        /// Residual after the final iteration (tolerance-scaled).
        residual: f64,
        /// The tolerance the loop was converging toward.
        tolerance: f64,
        /// Iterations spent before giving up.
        iterations: usize,
    },
    /// A domain's internal solver failed (typically a carrier-rate
    /// calibration probe).
    Domain {
        /// Which domain failed.
        domain: &'static str,
        /// The underlying simulator error.
        source: SimError,
    },
    /// A domain read or wrote a port nobody seeded.
    MissingPort(String),
    /// The rate plan is unusable (non-positive steps, zero iterations).
    InvalidPlan(String),
    /// A domain (or a calibration probe) panicked; the payload is
    /// preserved.
    Panicked {
        /// Which domain panicked.
        domain: String,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for CosimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CosimError::Diverged { t, residual, tolerance, iterations } => write!(
                f,
                "waveform relaxation diverged at t = {t:.3e} s: residual {residual:.3e} > \
                 tolerance {tolerance:.3e} after {iterations} iterations"
            ),
            CosimError::Domain { domain, source } => {
                write!(f, "domain `{domain}` failed: {source}")
            }
            CosimError::MissingPort(name) => write!(f, "exchange port `{name}` is not seeded"),
            CosimError::InvalidPlan(why) => write!(f, "invalid rate plan: {why}"),
            CosimError::Panicked { domain, message } => {
                write!(f, "domain `{domain}` panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CosimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_their_context() {
        let e = CosimError::Diverged { t: 2.0e-6, residual: 0.5, tolerance: 1.0e-6, iterations: 16 };
        let s = e.to_string();
        assert!(s.contains("diverged") && s.contains("16 iterations"), "{s}");
        assert!(CosimError::MissingPort("vo".into()).to_string().contains("`vo`"));
        assert!(CosimError::Panicked { domain: "pmu".into(), message: "boom".into() }
            .to_string()
            .contains("boom"));
    }
}
