//! Spiral-inductor and inductive-coupling models for the IronIC link.
//!
//! The paper's link uses an external transmitting inductor in a skin patch
//! and an implanted 8-layer, 14-turn receiving inductor
//! (38 × 2 × 0.544 mm³, [Olivo et al., TBioCAS]); power-vs-distance
//! behaviour is set by the coils' self-inductances, quality factors and
//! the coupling coefficient *k(d)*. The authors measured these on
//! fabricated coils; this crate replaces the measurements with the
//! standard analytic machinery:
//!
//! * [`spiral`] — planar/multi-layer spiral geometry with self-inductance
//!   (modified Wheeler and current-sheet expressions), series resistance
//!   with skin effect, quality factor and a self-resonance estimate;
//! * [`mutual`] — mutual inductance of coaxial circular filaments via
//!   complete elliptic integrals (Maxwell's formula), one line integral
//!   of the closed-form vector potential for laterally offset or tilted
//!   loops, and filament decomposition of whole spirals; coupling
//!   coefficient versus distance and misalignment;
//! * [`elliptic`] — complete elliptic integrals K(m), E(m) computed with
//!   the arithmetic–geometric mean (both from one sequence), implemented
//!   in-crate;
//! * [`tissue`] — a layered-tissue (skin/fat/muscle) eddy-loss model that
//!   reproduces the paper's observation that a 17 mm slice of beef
//!   behaves like 17 mm of air at 5 MHz.
//!
//! # Example
//!
//! Coupling of two coaxial 30 mm loops at 6 mm spacing:
//!
//! ```
//! use coils::mutual::mutual_coaxial_loops;
//! let m = mutual_coaxial_loops(15.0e-3, 15.0e-3, 6.0e-3);
//! assert!(m > 0.0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod elliptic;
pub mod mutual;
pub mod spiral;
pub mod tissue;

pub use mutual::{coupling_coefficient, CoilPair};
pub use spiral::{SpiralCoil, SpiralShape};
pub use tissue::{TissueLayer, TissueStack};

/// Permeability of free space, H/m.
pub const MU_0: f64 = 4.0e-7 * std::f64::consts::PI;

/// Resistivity of copper at room temperature, Ω·m.
pub const RHO_COPPER: f64 = 1.68e-8;
