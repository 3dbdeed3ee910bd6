//! Partitioned multi-rate co-simulation of the implant power chain.
//!
//! The monolithic Fig. 11 transient integrates everything — PA/link,
//! rectifier, PMU and comms — on the carrier grid (10 ns steps at
//! 5 MHz), even though only the link front-end has carrier-rate
//! dynamics. This crate splits the chain into coupled [`Domain`]s that
//! each run at their natural rate:
//!
//! * **link** — the PA + inductive link + rectifier front-end, reduced
//!   to an envelope-rate surrogate calibrated by short carrier-rate
//!   probes of the real transistor netlist (see [`fig11::RectifierTable`]);
//! * **pmu** — the storage capacitor and load, an envelope-rate ODE;
//! * **comms** — bit-rate demodulation decisions and the uplink LSK
//!   shorting schedule.
//!
//! Domains exchange boundary waveforms (carrier envelope and charging
//! current out of the link, storage voltage back from the PMU,
//! demodulator output and LSK state from comms) over an [`Exchange`]
//! bus, reconciled by a bounded Gauss–Seidel waveform-relaxation loop
//! per macro-step (see [`Cosim`]): each domain reads the proposals the
//! domains before it made in the same sweep, and a window opens on the
//! linear extrapolation of the committed history. Relaxation runs
//! inline on the calling thread in a fixed domain order, so results
//! are bit-identical at any `IMPLANT_WORKERS`. Only the
//! carrier-rate calibration probes run concurrently on
//! [`runtime::Pool`], and their tables are reusable across runs that
//! share a front-end (see [`calibration`]).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod calibration;
pub mod domain;
pub mod error;
pub mod exchange;
pub mod fig11;
pub mod schedule;
pub mod scheduler;

pub use domain::Domain;
pub use error::CosimError;
pub use exchange::{Exchange, ExchangeBuffer, Port};
pub use fig11::{run_fig11, run_fig11_cached, Fig11CosimRun, Fig11CosimSpec, RectifierTable};
pub use schedule::SchedulePort;
pub use scheduler::{Cosim, CosimStats, RatePlan};
