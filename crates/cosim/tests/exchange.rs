//! Exchange and relaxation conformance on an analytically solvable
//! chain: a resistive source domain coupled to an RC storage domain
//! whose load resistance steps down mid-run (the stiff "rectifier load
//! step"). The coupled ODE
//!
//! ```text
//! C dv/dt = (VS - v)/RS - v/R(t)
//! ```
//!
//! has a closed-form piecewise-exponential solution, so every numerical
//! layer (buffer interpolation, RK2 integration, waveform relaxation)
//! can be checked against exact values rather than against itself.

use cosim::{Cosim, CosimError, Domain, Exchange, ExchangeBuffer, Port, RatePlan};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

// ---- toy chain ---------------------------------------------------------

/// `i = (VS - v)/RS`, sampled at envelope rate — the "link".
struct SourceDomain {
    vs: f64,
    rs: f64,
    dt: f64,
}

impl Domain for SourceDomain {
    fn name(&self) -> &'static str {
        "source"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let v = bus.reader("v")?;
        let n = (((t1 - t0) / self.dt) - 1e-9).ceil().max(1.0) as usize;
        let h = (t1 - t0) / n as f64;
        let mut port = Port::new("i");
        for k in 1..=n {
            let t = if k == n { t1 } else { t0 + k as f64 * h };
            port.push(t, (self.vs - v.sample(t)) / self.rs);
        }
        Ok(vec![port])
    }

    fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
        Ok(())
    }
}

/// `C dv/dt = i - v/R(t)` with `R` stepping at `t_step` — the "PMU".
struct StorageDomain {
    c: f64,
    r_before: f64,
    r_after: f64,
    t_step: f64,
    dt: f64,
    v: f64,
}

impl StorageDomain {
    fn r_at(&self, t: f64) -> f64 {
        if t < self.t_step {
            self.r_before
        } else {
            self.r_after
        }
    }
}

impl Domain for StorageDomain {
    fn name(&self) -> &'static str {
        "storage"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let ib = bus.reader("i")?;
        let n = (((t1 - t0) / self.dt) - 1e-9).ceil().max(1.0) as usize;
        let h = (t1 - t0) / n as f64;
        let mut v = self.v;
        let mut port = Port::new("v");
        for k in 1..=n {
            let ta = if k == 1 { t0 } else { t0 + (k - 1) as f64 * h };
            let t = if k == n { t1 } else { t0 + k as f64 * h };
            let hh = t - ta;
            let s1 = (ib.sample(ta) - v / self.r_at(ta)) / self.c;
            let vm = v + 0.5 * hh * s1;
            let tm = ta + 0.5 * hh;
            let s2 = (ib.sample(tm) - vm / self.r_at(tm)) / self.c;
            v += hh * s2;
            port.push(t, v);
        }
        Ok(vec![port])
    }

    fn commit(&mut self, _t0: f64, t1: f64, bus: &Exchange) -> Result<(), CosimError> {
        self.v = bus.reader("v")?.sample(t1);
        Ok(())
    }
}

/// Exact solution of the toy chain (piecewise exponential).
struct Analytic {
    vs: f64,
    rs: f64,
    c: f64,
    r_before: f64,
    r_after: f64,
    t_step: f64,
}

impl Analytic {
    fn segment(&self, r: f64) -> (f64, f64) {
        let v_inf = self.vs * r / (r + self.rs);
        let tau = self.c * self.rs * r / (self.rs + r);
        (v_inf, tau)
    }

    fn v(&self, t: f64) -> f64 {
        let (v1, tau1) = self.segment(self.r_before);
        if t <= self.t_step {
            return v1 * (1.0 - f64::exp(-t / tau1));
        }
        let v_at_step = v1 * (1.0 - f64::exp(-self.t_step / tau1));
        let (v2, tau2) = self.segment(self.r_after);
        v2 + (v_at_step - v2) * f64::exp(-(t - self.t_step) / tau2)
    }
}

struct Toy {
    vs: f64,
    rs: f64,
    c: f64,
    r_before: f64,
    r_after: f64,
    t_step: f64,
    t_stop: f64,
}

fn toy_cosim(toy: &Toy, plan: RatePlan) -> Cosim {
    let mut sim = Cosim::new(plan);
    sim.seed_port("v", 0.0, 0.0, 1.0);
    sim.seed_port("i", 0.0, toy.vs / toy.rs, 1.0 / toy.rs);
    sim.add_domain(Box::new(SourceDomain { vs: toy.vs, rs: toy.rs, dt: plan.envelope_dt }));
    sim.add_domain(Box::new(StorageDomain {
        c: toy.c,
        r_before: toy.r_before,
        r_after: toy.r_after,
        t_step: toy.t_step,
        dt: plan.envelope_dt,
        v: 0.0,
    }));
    sim
}

fn run_toy(toy: &Toy, plan: RatePlan) -> Result<(Cosim, f64), CosimError> {
    let mut sim = toy_cosim(toy, plan);
    let stats = sim.run(0.0, toy.t_stop)?;
    Ok((sim, stats.worst_step_iterations as f64))
}

// ---- interpolation accuracy --------------------------------------------

/// A consumer sampling a buffer much faster than the producer filled it
/// sees linear-interpolation error, which for a smooth waveform is
/// second order in the producer step: exact on the producer grid
/// (ratio 1), and bounded by `(ω·dt)²·A/8` at ratios 10 and 1000.
#[test]
fn interpolation_error_is_second_order_across_rate_ratios() {
    let omega = std::f64::consts::TAU * 1.0e5;
    let amp = 2.5;
    let dt_producer = 1.0e-6;
    let t_end = 40.0e-6;
    let mut buf = ExchangeBuffer::seeded(0.0, amp * f64::sin(0.0), 1.0);
    let mut port = Port::new("sine");
    let n = (t_end / dt_producer) as usize;
    for k in 1..=n {
        let t = k as f64 * dt_producer;
        port.push(t, amp * f64::sin(omega * t));
    }
    buf.append(&port);

    let bound = amp * (omega * dt_producer).powi(2) / 8.0;
    for ratio in [1u32, 10, 1000] {
        let dt_consumer = dt_producer / f64::from(ratio);
        let mut worst: f64 = 0.0;
        let m = (t_end / dt_consumer) as usize;
        for k in 0..=m {
            let t = (k as f64 * dt_consumer).min(t_end);
            worst = worst.max((buf.sample(t) - amp * f64::sin(omega * t)).abs());
        }
        if ratio == 1 {
            // On the producer grid the samples are exact.
            assert!(worst < 1e-12, "on-grid sampling should be exact, got {worst}");
        } else {
            assert!(
                worst <= bound * 1.01,
                "ratio {ratio}: interpolation error {worst} exceeds the second-order bound {bound}"
            );
            // And the error is genuinely there — the bound is tight
            // within a small factor, not vacuous.
            assert!(worst >= bound * 0.5, "ratio {ratio}: error {worst} suspiciously small");
        }
    }
}

// ---- relaxation on the stiff load step ---------------------------------

/// The relaxation loop must converge through a 10× load step landing
/// mid-window and still match the closed-form solution.
#[test]
fn relaxation_converges_on_a_stiff_load_step() {
    let toy = Toy {
        vs: 5.0,
        rs: 150.0,
        c: 10.0e-9,
        r_before: 15.0e3,
        // 10× load step, falling mid-macro-step (not on a boundary).
        r_after: 1.5e3,
        t_step: 10.5e-6,
        t_stop: 20.0e-6,
    };
    let plan = RatePlan { macro_step: 1.0e-6, envelope_dt: 0.05e-6, ..RatePlan::fig11() };
    let (sim, worst_iters) = run_toy(&toy, plan).expect("stiff step converges");
    // Relaxation genuinely iterated (the domains are coupled) but never
    // hit the guard.
    assert!(worst_iters >= 2.0, "no relaxation happened");
    assert!(worst_iters < plan.max_iterations as f64, "guard was the only stop");

    let exact = Analytic {
        vs: toy.vs,
        rs: toy.rs,
        c: toy.c,
        r_before: toy.r_before,
        r_after: toy.r_after,
        t_step: toy.t_step,
    };
    let v = sim.bus().waveform("v").expect("v committed");
    for &t in &[2.0e-6, 10.0e-6, 11.0e-6, 15.0e-6, 20.0e-6] {
        let got = v.value_at(t);
        let want = exact.v(t);
        assert!(
            (got - want).abs() <= 5.0e-3 * toy.vs,
            "v({t}) = {got} vs analytic {want}"
        );
    }
}

/// Exhausting the iteration guard is a structured, diagnosable error —
/// not a panic, not a silently wrong waveform.
#[test]
fn exhausting_the_iteration_guard_is_a_structured_divergence() {
    let toy = Toy {
        vs: 5.0,
        rs: 150.0,
        c: 10.0e-9,
        r_before: 15.0e3,
        r_after: 1.5e3,
        t_step: 10.5e-6,
        t_stop: 20.0e-6,
    };
    // One iteration cannot reconcile a coupled window to 1 µV.
    let plan = RatePlan {
        macro_step: 1.0e-6,
        envelope_dt: 0.05e-6,
        tolerance: 1.0e-6,
        max_iterations: 1,
    };
    let err = match run_toy(&toy, plan) {
        Err(e) => e,
        Ok(_) => panic!("one iteration should not converge to 1 µV"),
    };
    match err {
        CosimError::Diverged { t, residual, tolerance, iterations } => {
            assert_eq!(t, 0.0, "the first (hard-charging) window should trip first");
            assert!(residual > tolerance);
            assert_eq!(iterations, 1);
        }
        other => panic!("expected Diverged, got {other:?}"),
    }
}

// ---- failure paths ------------------------------------------------------

/// The stiff-step toy, shared by the failure-path tests.
fn stiff_toy() -> Toy {
    Toy {
        vs: 5.0,
        rs: 150.0,
        c: 10.0e-9,
        r_before: 15.0e3,
        r_after: 1.5e3,
        t_step: 10.5e-6,
        t_stop: 20.0e-6,
    }
}

fn stiff_plan() -> RatePlan {
    RatePlan {
        macro_step: 1.0e-6,
        envelope_dt: 0.05e-6,
        ..RatePlan::fig11()
    }
}

/// A third domain that behaves (proposes nothing) until the window
/// starting at `from`, then fails there on its `fail_on`-th advance —
/// late enough that the other domains' proposals already sit on the
/// bus as tentative samples.
struct FaultyDomain {
    from: f64,
    fail_on: usize,
    calls: AtomicUsize,
    fault: Fault,
}

#[derive(Clone, Copy)]
enum Fault {
    /// Panics inside `advance`.
    Panic,
    /// Proposes a port that never settles (each iterate one volt above
    /// the last), so relaxation exhausts its guard.
    Oscillate,
}

impl Domain for FaultyDomain {
    fn name(&self) -> &'static str {
        "faulty"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let mut port = Port::new("x");
        if t0 < self.from - 1e-12 {
            port.push(t1, 0.0);
            return Ok(vec![port]);
        }
        let call = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        match self.fault {
            Fault::Panic if call >= self.fail_on => panic!("faulty domain gave up at {t0:e}"),
            Fault::Panic => port.push(t1, 0.0),
            Fault::Oscillate => port.push(t1, bus.reader("x")?.sample(t1) + 1.0),
        }
        Ok(vec![port])
    }

    fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
        Ok(())
    }
}

/// Runs the toy plus a faulty domain; returns the error and the bus.
fn run_faulty(fault: Fault) -> (CosimError, Cosim) {
    let toy = stiff_toy();
    let mut sim = toy_cosim(&toy, stiff_plan());
    sim.seed_port("x", 0.0, 0.0, 1.0);
    sim.add_domain(Box::new(FaultyDomain {
        from: 6.0e-6,
        fail_on: 2,
        calls: AtomicUsize::new(0),
        fault,
    }));
    let err = sim
        .run(0.0, toy.t_stop)
        .expect_err("the faulty domain must fail the run");
    (err, sim)
}

/// After a failure the bus holds exactly the committed windows: every
/// port ends where the failing window began, and the committed history
/// is bit-identical to a clean run over the same span.
fn assert_only_committed_windows(sim: &Cosim, failed_at: f64) {
    for port in ["v", "i", "x"] {
        let end = sim.bus().reader(port).expect("seeded").end_time();
        assert_eq!(
            end, failed_at,
            "port `{port}` holds samples past the last committed window"
        );
    }
    let mut clean = toy_cosim(&stiff_toy(), stiff_plan());
    clean
        .run(0.0, failed_at)
        .expect("the clean prefix converges");
    for port in ["v", "i"] {
        let (got, want) = (
            sim.bus().waveform(port).unwrap(),
            clean.bus().waveform(port).unwrap(),
        );
        assert_eq!(got.time(), want.time(), "port `{port}` grid");
        assert_eq!(got.values(), want.values(), "port `{port}` values");
    }
}

#[test]
fn a_panicking_domain_is_a_structured_error_naming_it() {
    let (err, sim) = run_faulty(Fault::Panic);
    match &err {
        CosimError::Panicked { domain, message } => {
            assert_eq!(domain, "faulty");
            assert!(message.contains("gave up"), "panic payload lost: {message}");
        }
        other => panic!("expected Panicked, got {other:?}"),
    }
    // The panic fired in the window opening at 6 µs.
    let failed_at = sim.bus().reader("v").unwrap().end_time();
    assert!(
        (failed_at - 6.0e-6).abs() < 1e-12,
        "failed at {failed_at:e}"
    );
    assert_only_committed_windows(&sim, failed_at);
}

#[test]
fn divergence_rolls_the_bus_back_to_the_committed_windows() {
    let (err, sim) = run_faulty(Fault::Oscillate);
    let CosimError::Diverged { t, iterations, .. } = err else {
        panic!("expected Diverged, got {err:?}");
    };
    assert_eq!(iterations, stiff_plan().max_iterations);
    assert!((t - 6.0e-6).abs() < 1e-12, "diverged at {t:e}");
    assert_only_committed_windows(&sim, t);
}

/// Relaxation never copies the committed history, so a window late in a
/// long run costs what an early one does. The run is driven in
/// consecutive segments of equal length; the cheapest late segment must
/// stay within a small factor of the cheapest early one (copying the
/// history once per iterate made the late segments ~80× dearer).
#[test]
fn per_window_cost_does_not_grow_with_the_committed_history() {
    const SEGMENTS: usize = 20;
    const WINDOWS: usize = 200;
    const SAMPLE: usize = 5;
    let plan = stiff_plan();
    let toy = Toy {
        t_step: f64::INFINITY,
        t_stop: 0.0,
        ..stiff_toy()
    };
    let mut sim = toy_cosim(&toy, plan);
    let span = WINDOWS as f64 * plan.macro_step;
    let mut costs = Vec::with_capacity(SEGMENTS);
    for k in 0..SEGMENTS {
        let started = Instant::now();
        sim.run(k as f64 * span, (k + 1) as f64 * span)
            .expect("segment converges");
        costs.push(started.elapsed());
    }
    let samples = sim.bus().reader("v").unwrap().len();
    assert!(
        samples > SEGMENTS * WINDOWS * 10,
        "history too short to show growth: {samples}"
    );
    let early = costs[..SAMPLE].iter().min().unwrap();
    let late = costs[SEGMENTS - SAMPLE..].iter().min().unwrap();
    assert!(
        late.as_secs_f64() < 3.0 * early.as_secs_f64(),
        "late segments cost {late:?} vs {early:?} early: per-window cost grows with history"
    );
}

// ---- fuzz: random rate plans against the closed form -------------------

#[cfg(feature = "fuzz")]
mod fuzz {
    use super::*;
    use runtime::{Rng, SplitMix64};

    /// Any *valid* rate plan (windows inside the contraction region,
    /// envelope step resolving the fastest time constant) must
    /// reproduce the closed-form solution within tolerance — the answer
    /// must not depend on how the work was windowed.
    #[test]
    fn random_rate_plans_agree_with_the_closed_form() {
        let mut rng = SplitMix64::new(0xC051_F022);
        for trial in 0..24 {
            let macro_step = 0.2e-6 * f64::powf(20.0, rng.next_f64());
            let envelope_dt = macro_step / (10.0 + 40.0 * rng.next_f64());
            let plan = RatePlan {
                macro_step,
                envelope_dt,
                tolerance: 1.0e-6,
                max_iterations: 48,
            };
            // Source time constant comfortably above the window keeps
            // the relaxation loop gain below one; the load step keeps
            // the problem stiff.
            let c = 10.0e-9;
            let tau_s = macro_step * (1.3 + 6.7 * rng.next_f64());
            let rs = tau_s / c;
            let r_before = rs * (5.0 + 15.0 * rng.next_f64());
            let toy = Toy {
                vs: 3.0 + 4.0 * rng.next_f64(),
                rs,
                c,
                r_before,
                r_after: r_before / 5.0,
                t_step: macro_step * (8.0 + 4.0 * rng.next_f64()),
                t_stop: macro_step * 20.0,
            };
            let (sim, _) = run_toy(&toy, plan)
                .unwrap_or_else(|e| panic!("trial {trial}: plan {plan:?} failed: {e}"));
            let exact = Analytic {
                vs: toy.vs,
                rs: toy.rs,
                c: toy.c,
                r_before: toy.r_before,
                r_after: toy.r_after,
                t_step: toy.t_step,
            };
            let v = sim.bus().waveform("v").expect("v committed");
            for frac in [0.25, 0.5, 0.75, 1.0] {
                let t = frac * toy.t_stop;
                let got = v.value_at(t);
                let want = exact.v(t);
                assert!(
                    (got - want).abs() <= 0.01 * toy.vs,
                    "trial {trial}: v({t}) = {got} vs analytic {want} under plan {plan:?}"
                );
            }
        }
    }
}
