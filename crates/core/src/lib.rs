//! End-to-end co-simulation of the DATE 2013 electronic-implant system.
//!
//! This crate composes the workspace into the two artifacts the paper
//! actually evaluates:
//!
//! * [`scenario`] — the **Fig. 11 experiment** as a first-class object: a
//!   transistor-level transient of the power-management module on the
//!   [`analog`] engine. The storage capacitor charges from the 5 MHz
//!   carrier, an 18-bit ASK downlink burst at 100 kbps arrives at
//!   300 µs, an LSK uplink burst short-circuits the rectifier input at
//!   520 µs, and the compliance checks of the paper are evaluated
//!   (every downlink bit detected on Vdem at a ϕ1 rising edge; the
//!   rectifier output never below 2.1 V).
//! * [`system`] — a fast envelope-level model of the **whole system**
//!   (patch battery → class-E → link → matching → rectifier → LDO →
//!   sensor → ADC → LSK uplink) for session studies and the examples.
//! * [`report`] — plain-text table rendering used by the experiment
//!   harness binaries in `crates/bench`.
//!
//! # Example
//!
//! ```no_run
//! use implant_core::scenario::Fig11Scenario;
//! # fn main() -> Result<(), analog::SimError> {
//! let outcome = Fig11Scenario::paper().run()?;
//! assert!(outcome.all_downlink_bits_detected());
//! assert!(outcome.vo_compliant());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod cosim;
pub mod fullchain;
pub mod montecarlo;
pub mod report;
pub mod scenario;
pub mod system;

pub use cosim::{CalibrationCache, CosimError, CosimReport, FullChainCosimOutcome, RatePlan};
pub use fullchain::{FullChainOutcome, FullChainScenario};
pub use montecarlo::{MonteCarloStudy, VariationModel, YieldReport};
pub use scenario::{Fig11Outcome, Fig11Scenario, TimelineCut};
pub use system::{ImplantSystem, SessionOutcome, SystemConfig};
