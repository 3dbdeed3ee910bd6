//! The macro-step scheduler: bounded Gauss–Seidel waveform relaxation,
//! evaluated inline on the calling thread.
//!
//! # Relaxation
//!
//! Each sweep advances the domains over the window in their fixed
//! order (the order they were added). A domain's proposals are scored
//! against the bus and then replace that port's tentative samples at
//! once, so every later domain of the same sweep reads them
//! (Gauss–Seidel, after Lelarasmee, Ruehli & Sangiovanni-Vincentelli,
//! IEEE TCAD 1982). On a one-way-dominant chain — the link drives the
//! PMU, the PMU feeds back weakly — this converges in fewer sweeps than
//! evaluating every domain against the previous sweep's bus. A port not
//! yet proposed for the window reads the linear extrapolation of its
//! last committed segment (see [`ExchangeBuffer::sample`]). The window
//! converges once a whole sweep moves no port by more than the
//! tolerance.
//!
//! # Determinism
//!
//! The sweep runs on one thread in the fixed domain order, so what
//! each domain reads is fixed by that order alone: a co-simulation is
//! bit-identical at any `IMPLANT_WORKERS` — the worker count never
//! enters the relaxation at all.
//!
//! # Cost
//!
//! A domain advance over one window takes microseconds, far less than
//! handing it to a thread, so the loop stays on the caller's thread.
//! Proposals are appended to the bus tentatively and replace only their
//! own port's previous proposal (see [`Exchange`]), so a sweep costs
//! O(window) however long the committed history grows.
//!
//! [`ExchangeBuffer::sample`]: crate::exchange::ExchangeBuffer::sample

use crate::domain::Domain;
use crate::error::CosimError;
use crate::exchange::Exchange;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Rates and relaxation bounds of a co-simulation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatePlan {
    /// Macro-step (exchange window), seconds. Keep it near the chain's
    /// fastest coupling time constant: relaxation over a window `H`
    /// contracts like `(H/τ)^k / k!`, so windows much longer than τ pay
    /// for themselves in extra iterations.
    pub macro_step: f64,
    /// Envelope-rate sampling step used by the continuous domains,
    /// seconds.
    pub envelope_dt: f64,
    /// Convergence tolerance on the scaled boundary residual
    /// (volt-equivalent).
    pub tolerance: f64,
    /// Iteration guard per macro-step; hitting it raises
    /// [`CosimError::Diverged`].
    pub max_iterations: usize,
}

impl RatePlan {
    /// The Fig. 11 default: 1 µs exchange windows (just under the
    /// rectifier's fastest `R_src·Co`, so relaxation contracts in a few
    /// iterations even while charging), 0.2 µs envelope sampling, 2 µV
    /// residual, 24 iterations.
    pub fn fig11() -> Self {
        RatePlan {
            macro_step: 1.0e-6,
            envelope_dt: 0.05e-6,
            tolerance: 2.0e-6,
            max_iterations: 24,
        }
    }

    /// Checks the plan is usable.
    ///
    /// # Errors
    ///
    /// [`CosimError::InvalidPlan`] with the offending field named.
    pub fn validate(&self) -> Result<(), CosimError> {
        let bad = |why: &str| Err(CosimError::InvalidPlan(why.to_string()));
        if !(self.macro_step > 0.0 && self.macro_step.is_finite()) {
            return bad("macro_step must be positive and finite");
        }
        if !(self.envelope_dt > 0.0 && self.envelope_dt.is_finite()) {
            return bad("envelope_dt must be positive and finite");
        }
        if self.envelope_dt > self.macro_step {
            return bad("envelope_dt must not exceed macro_step");
        }
        if !(self.tolerance > 0.0 && self.tolerance.is_finite()) {
            return bad("tolerance must be positive and finite");
        }
        if self.max_iterations == 0 {
            return bad("max_iterations must be at least 1");
        }
        Ok(())
    }
}

impl Default for RatePlan {
    fn default() -> Self {
        RatePlan::fig11()
    }
}

/// What a finished co-simulation cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CosimStats {
    /// Macro-steps taken.
    pub macro_steps: u64,
    /// Total relaxation sweeps across all macro-steps.
    pub iterations: u64,
    /// Largest sweep count any single macro-step needed.
    pub worst_step_iterations: u64,
    /// Largest converged residual any macro-step settled at.
    pub worst_residual: f64,
}

/// A configured co-simulation: domains, bus and rate plan.
pub struct Cosim {
    plan: RatePlan,
    domains: Vec<Box<dyn Domain>>,
    bus: Exchange,
}

impl Cosim {
    /// A co-simulation with no domains yet.
    pub fn new(plan: RatePlan) -> Self {
        Cosim {
            plan,
            domains: Vec::new(),
            bus: Exchange::new(),
        }
    }

    /// Adds a domain. Order fixes the relaxation sweep order (a domain
    /// reads the proposals of the domains added before it from the same
    /// sweep) and the commit order.
    pub fn add_domain(&mut self, domain: Box<dyn Domain>) {
        self.domains.push(domain);
    }

    /// Seeds a boundary port's initial value (see [`Exchange::seed`]).
    pub fn seed_port(&mut self, name: impl Into<String>, t0: f64, value: f64, tol_scale: f64) {
        self.bus.seed(name, t0, value, tol_scale);
    }

    /// The exchange bus (read the committed boundary waveforms here).
    pub fn bus(&self) -> &Exchange {
        &self.bus
    }

    /// Runs the co-simulation from `t0` to `t_stop`. A failed run
    /// leaves the bus holding the windows committed before the failure.
    ///
    /// # Errors
    ///
    /// [`CosimError::InvalidPlan`] for a bad plan,
    /// [`CosimError::Diverged`] when a macro-step exhausts its
    /// iteration guard, [`CosimError::Panicked`] when a domain panics,
    /// plus any domain failure.
    pub fn run(&mut self, t0: f64, t_stop: f64) -> Result<CosimStats, CosimError> {
        let _span = obs::span!("cosim.run");
        self.plan.validate()?;
        if t_stop.partial_cmp(&t0) != Some(std::cmp::Ordering::Greater) {
            return Err(CosimError::InvalidPlan("t_stop must exceed t0".to_string()));
        }
        let mut stats = CosimStats::default();
        let mut t = t0;
        // Absolute tolerance on the end time: the last window may be
        // fractional, and accumulating `t += macro_step` must not leave
        // a vanishing sliver behind.
        let eps = 1.0e-12 * t_stop.abs().max(1.0);
        while t < t_stop - eps {
            let t1 = (t + self.plan.macro_step).min(t_stop);
            if let Err(e) = self.relax_window(t, t1, &mut stats) {
                self.bus.rollback();
                return Err(e);
            }
            self.bus.accept();
            for domain in &mut self.domains {
                domain.commit(t, t1, &self.bus)?;
            }
            stats.macro_steps += 1;
            t = t1;
        }
        Ok(stats)
    }

    /// Relaxes one macro-step to convergence, leaving the accepted
    /// sweep on the bus as tentative samples for the caller to accept
    /// (or, on failure, roll back).
    fn relax_window(&mut self, t0: f64, t1: f64, stats: &mut CosimStats) -> Result<(), CosimError> {
        let _span = obs::span!("cosim.window");
        let mut step_iterations = 0u64;
        let mut residual = f64::INFINITY;
        for _ in 0..self.plan.max_iterations {
            step_iterations += 1;
            residual = 0.0;
            for domain in &self.domains {
                let proposals =
                    catch_unwind(AssertUnwindSafe(|| domain.advance(t0, t1, &self.bus)))
                        .map_err(|payload| CosimError::Panicked {
                            domain: domain.name().to_string(),
                            message: runtime::panic_message(payload.as_ref()),
                        })??;
                for port in &proposals {
                    residual = residual.max(self.bus.residual(port)?);
                }
                for port in &proposals {
                    self.bus.propose(port)?;
                }
            }
            obs::count!("cosim.iteration");
            if residual.is_finite() && residual <= self.plan.tolerance {
                stats.iterations += step_iterations;
                stats.worst_step_iterations = stats.worst_step_iterations.max(step_iterations);
                stats.worst_residual = stats.worst_residual.max(residual);
                return Ok(());
            }
            if !residual.is_finite() {
                break;
            }
        }
        stats.iterations += step_iterations;
        Err(CosimError::Diverged {
            t: t0,
            residual,
            tolerance: self.plan.tolerance,
            iterations: step_iterations as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exchange::Port;
    use std::sync::{Arc, Mutex};

    /// Proposes 1.0 on `a` whatever the bus holds.
    struct Source;

    impl Domain for Source {
        fn name(&self) -> &'static str {
            "source"
        }

        fn advance(&self, _t0: f64, t1: f64, _bus: &Exchange) -> Result<Vec<Port>, CosimError> {
            let mut port = Port::new("a");
            port.push(t1, 1.0);
            Ok(vec![port])
        }

        fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
            Ok(())
        }
    }

    /// Copies `a` onto `b`, logging every value it read.
    struct Follower {
        reads: Arc<Mutex<Vec<f64>>>,
    }

    impl Domain for Follower {
        fn name(&self) -> &'static str {
            "follower"
        }

        fn advance(&self, _t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
            let a = bus.reader("a")?.sample(t1);
            self.reads.lock().unwrap().push(a);
            let mut port = Port::new("b");
            port.push(t1, a);
            Ok(vec![port])
        }

        fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
            Ok(())
        }
    }

    /// Relaxes one window of the source → follower chain with the
    /// domains added in the given order; returns the sweep count and
    /// what the follower read in each sweep.
    fn one_way_chain(source_first: bool) -> (u64, Vec<f64>) {
        let plan = RatePlan { macro_step: 1.0, envelope_dt: 1.0, tolerance: 1e-9, max_iterations: 8 };
        let mut sim = Cosim::new(plan);
        sim.seed_port("a", 0.0, 0.0, 1.0);
        sim.seed_port("b", 0.0, 0.0, 1.0);
        let reads = Arc::new(Mutex::new(Vec::new()));
        let follower = Box::new(Follower { reads: Arc::clone(&reads) });
        if source_first {
            sim.add_domain(Box::new(Source));
            sim.add_domain(follower);
        } else {
            sim.add_domain(follower);
            sim.add_domain(Box::new(Source));
        }
        let stats = sim.run(0.0, 1.0).expect("the chain converges");
        assert_eq!(stats.macro_steps, 1);
        assert_eq!(sim.bus().reader("b").unwrap().sample(1.0), 1.0, "b settles on a");
        let reads = reads.lock().unwrap().clone();
        (stats.iterations, reads)
    }

    #[test]
    fn later_domains_read_this_sweeps_proposals() {
        let (sweeps, reads) = one_way_chain(true);
        assert_eq!(
            reads,
            vec![1.0, 1.0],
            "the follower reads the source's proposal from its own first sweep"
        );
        assert_eq!(sweeps, 2, "one sweep to propagate, one to confirm");
        // Added the other way round, the follower only ever sees the
        // previous sweep's `a` — what a Jacobi sweep shows every domain
        // — and the window takes one sweep more.
        let (jacobi_sweeps, jacobi_reads) = one_way_chain(false);
        assert_eq!(jacobi_reads, vec![0.0, 1.0, 1.0], "the first sweep reads the seed");
        assert_eq!(jacobi_sweeps, 3);
        assert!(sweeps < jacobi_sweeps);
    }

    #[test]
    fn rate_plans_reject_nonsense() {
        assert!(RatePlan::fig11().validate().is_ok());
        let bad = |f: fn(&mut RatePlan)| {
            let mut p = RatePlan::fig11();
            f(&mut p);
            p.validate().unwrap_err()
        };
        assert!(matches!(bad(|p| p.macro_step = 0.0), CosimError::InvalidPlan(_)));
        assert!(matches!(bad(|p| p.envelope_dt = -1.0), CosimError::InvalidPlan(_)));
        assert!(matches!(bad(|p| p.envelope_dt = 1.0), CosimError::InvalidPlan(_)));
        assert!(matches!(bad(|p| p.tolerance = f64::NAN), CosimError::InvalidPlan(_)));
        assert!(matches!(bad(|p| p.max_iterations = 0), CosimError::InvalidPlan(_)));
    }
}
