//! The domain abstraction: one rate-partitioned piece of the power
//! chain, coupled to its neighbours only through exchange ports.

use crate::error::CosimError;
use crate::exchange::{Exchange, Port};

/// One co-simulated domain.
///
/// The scheduler runs a Gauss–Seidel waveform relaxation: every sweep,
/// the domains [`advance`](Domain::advance) over the same macro-step in
/// their fixed order, each reading the bus as the sweep has left it —
/// this sweep's proposals from the domains before it, the previous
/// sweep's from the domains after it, and on a window's first sweep the
/// linear extrapolation of a port's committed history. That fixed
/// order, on one thread, is what makes the proposals independent of
/// the worker count. Once a whole sweep moves no port by more than the
/// tolerance, the scheduler commits the window to the bus and calls
/// [`commit`](Domain::commit) so the domain can roll its internal state
/// forward from the converged inputs.
///
/// `advance` must therefore be a pure function of the committed state
/// and the bus it is handed — same inputs, bit-identical proposals —
/// and must not mutate anything observable before `commit`.
pub trait Domain: Sync {
    /// Stable domain name (used in errors and stats).
    fn name(&self) -> &'static str;

    /// Proposes boundary outputs over `[t0, t1]` from the committed
    /// state, reading coupled inputs from `bus`.
    ///
    /// # Errors
    ///
    /// Domain-internal solver failures and bus wiring errors.
    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError>;

    /// Rolls internal state forward over the converged window. `bus`
    /// already contains the committed `[t0, t1]` segment of every port.
    ///
    /// # Errors
    ///
    /// Bus wiring errors.
    fn commit(&mut self, t0: f64, t1: f64, bus: &Exchange) -> Result<(), CosimError>;
}
