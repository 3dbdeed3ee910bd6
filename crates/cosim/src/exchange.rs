//! Boundary-waveform exchange: the sampled signals domains trade at
//! their coupling ports.
//!
//! An [`ExchangeBuffer`] is a strictly-ordered sampled waveform with
//! linear interpolation — deliberately the same semantics as
//! [`analog::Waveform`] inside its span, but growable, so a buffer
//! accumulates one committed macro-step at a time. The [`Exchange`] is
//! the bus: a name → buffer map every domain reads its inputs from and
//! the scheduler writes converged outputs into. Buffers are seeded with
//! an explicit initial sample, so the first relaxation sweep of the
//! first macro-step starts from a defined value rather than an empty
//! read. Past its last sample a buffer extrapolates its last segment
//! linearly (a seed-only buffer holds its seed): that is the opener a
//! port reads at the start of every later macro-step, before its
//! producer has proposed anything for the window.
//!
//! Relaxation iterates live on the bus itself: each sweep, the
//! scheduler replaces a port's tentative samples with its producer's
//! new proposal (`Exchange::propose`), so domains later in the sweep
//! read it at once. It then either accepts the converged window
//! (`Exchange::accept`) or drops every tentative sample on failure
//! (`Exchange::rollback`). No sweep ever copies the history, so a
//! sweep costs O(window), not O(run).

use crate::error::CosimError;
use analog::Waveform;
use std::collections::BTreeMap;

/// One domain's proposed output segment for a macro-step: a named batch
/// of `(time, value)` samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Port {
    /// Port name on the exchange bus.
    pub name: String,
    /// Sample times, strictly increasing, all inside the macro-step.
    pub times: Vec<f64>,
    /// Sample values, one per time.
    pub values: Vec<f64>,
}

impl Port {
    /// An empty port proposal.
    pub fn new(name: impl Into<String>) -> Self {
        Port { name: name.into(), times: Vec::new(), values: Vec::new() }
    }

    /// Appends a sample; times must arrive strictly increasing.
    pub fn push(&mut self, t: f64, v: f64) {
        if let Some(&last) = self.times.last() {
            assert!(t > last, "port `{}` samples must be strictly increasing", self.name);
        }
        self.times.push(t);
        self.values.push(v);
    }
}

/// A growable sampled waveform with linear interpolation, clamped
/// before its first sample and linearly extrapolated past its last.
/// Samples past the committed length are tentative: the current
/// relaxation iterate, replaced by the next proposal or dropped by a
/// rollback.
#[derive(Debug, Clone, PartialEq)]
pub struct ExchangeBuffer {
    times: Vec<f64>,
    values: Vec<f64>,
    tol_scale: f64,
    committed: usize,
}

impl ExchangeBuffer {
    /// A buffer seeded with one sample at `t0`.
    pub fn seeded(t0: f64, value: f64, tol_scale: f64) -> Self {
        assert!(tol_scale > 0.0 && tol_scale.is_finite(), "tol_scale must be positive");
        ExchangeBuffer {
            times: vec![t0],
            values: vec![value],
            tol_scale,
            committed: 1,
        }
    }

    /// Linear interpolation at `t`, clamped to the first sample before
    /// the covered span. Past the last sample the last segment is
    /// extended linearly, which is how a window opens: a port its
    /// producer has not yet proposed for reads the previous macro-step's
    /// trend. A seed-only buffer has no segment and holds its seed.
    pub fn sample(&self, t: f64) -> f64 {
        let n = self.times.len();
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= self.times[n - 1] {
            let (t1, v1) = (self.times[n - 1], self.values[n - 1]);
            if n == 1 {
                return v1;
            }
            let (t0, v0) = (self.times[n - 2], self.values[n - 2]);
            return v1 + (v1 - v0) * (t - t1) / (t1 - t0);
        }
        // partition_point: first index with time > t, so `hi ∈ [1, n-1]`.
        let hi = self.times.partition_point(|&x| x <= t);
        let (t0, t1) = (self.times[hi - 1], self.times[hi]);
        let (v0, v1) = (self.values[hi - 1], self.values[hi]);
        v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    }

    /// Appends a committed segment (samples must continue past the
    /// buffer's end).
    pub fn append(&mut self, port: &Port) {
        self.extend(port);
        self.committed = self.times.len();
    }

    /// Appends a tentative segment, dropped again by the next rollback.
    fn extend(&mut self, port: &Port) {
        let mut last = *self.times.last().expect("buffer is never empty");
        for (&t, &v) in port.times.iter().zip(&port.values) {
            assert!(t > last, "port `{}` rewinds the exchange buffer", port.name);
            self.times.push(t);
            self.values.push(v);
            last = t;
        }
    }

    /// Drops every tentative sample.
    fn rollback(&mut self) {
        self.times.truncate(self.committed);
        self.values.truncate(self.committed);
    }

    /// Time of the last committed sample.
    pub fn end_time(&self) -> f64 {
        *self.times.last().expect("buffer is never empty")
    }

    /// The residual scale this port converges under.
    pub fn tol_scale(&self) -> f64 {
        self.tol_scale
    }

    /// Number of stored samples.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the buffer holds no samples (never true after seeding).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The buffer as an immutable [`Waveform`].
    pub fn waveform(&self) -> Waveform {
        Waveform::new(self.times.clone(), self.values.clone())
    }
}

/// The exchange bus: every boundary port's committed history plus,
/// while a macro-step relaxes, each port's latest tentative proposal.
#[derive(Debug, Clone, Default)]
pub struct Exchange {
    ports: BTreeMap<String, ExchangeBuffer>,
}

impl Exchange {
    /// An empty bus.
    pub fn new() -> Self {
        Exchange { ports: BTreeMap::new() }
    }

    /// Seeds a port with its initial value at `t0`; every port must be
    /// seeded before the scheduler runs.
    pub fn seed(&mut self, name: impl Into<String>, t0: f64, value: f64, tol_scale: f64) {
        let name = name.into();
        assert!(
            self.ports
                .insert(name.clone(), ExchangeBuffer::seeded(t0, value, tol_scale))
                .is_none(),
            "port `{name}` seeded twice"
        );
    }

    /// The buffer behind `name`, or a structured wiring error.
    ///
    /// # Errors
    ///
    /// [`CosimError::MissingPort`] when no such port exists.
    pub fn reader(&self, name: &str) -> Result<&ExchangeBuffer, CosimError> {
        self.ports.get(name).ok_or_else(|| CosimError::MissingPort(name.to_string()))
    }

    /// Port names on the bus, in sorted order.
    pub fn port_names(&self) -> impl Iterator<Item = &str> {
        self.ports.keys().map(String::as_str)
    }

    /// The full committed history of a port as a [`Waveform`].
    pub fn waveform(&self, name: &str) -> Option<Waveform> {
        self.ports.get(name).map(ExchangeBuffer::waveform)
    }

    /// Replaces the port's tentative samples with a new proposal:
    /// readers see it until the next proposal for the same port, a
    /// [`rollback`](Exchange::rollback) or an
    /// [`accept`](Exchange::accept). Other ports are untouched.
    ///
    /// # Errors
    ///
    /// [`CosimError::MissingPort`] when the proposal names an unseeded
    /// port.
    pub(crate) fn propose(&mut self, port: &Port) -> Result<(), CosimError> {
        let buffer = self.writer(&port.name)?;
        buffer.rollback();
        buffer.extend(port);
        Ok(())
    }

    /// Drops every tentative sample, back to the committed history (a
    /// failed window leaves the bus as it was before the window).
    pub(crate) fn rollback(&mut self) {
        for buffer in self.ports.values_mut() {
            buffer.rollback();
        }
    }

    /// Commits every tentative sample.
    pub(crate) fn accept(&mut self) {
        for buffer in self.ports.values_mut() {
            buffer.committed = buffer.times.len();
        }
    }

    fn writer(&mut self, name: &str) -> Result<&mut ExchangeBuffer, CosimError> {
        self.ports
            .get_mut(name)
            .ok_or_else(|| CosimError::MissingPort(name.to_string()))
    }

    /// Scaled residual between a proposal and this bus: the maximum over
    /// the proposal's samples of `|proposed − current| / tol_scale`.
    pub fn residual(&self, port: &Port) -> Result<f64, CosimError> {
        let buffer = self.reader(&port.name)?;
        let mut worst = 0.0f64;
        for (&t, &v) in port.times.iter().zip(&port.values) {
            worst = worst.max((v - buffer.sample(t)).abs() / buffer.tol_scale());
        }
        Ok(worst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampling_interpolates_and_clamps() {
        let mut buf = ExchangeBuffer::seeded(0.0, 1.0, 1.0);
        let mut port = Port::new("x");
        port.push(1.0, 3.0);
        port.push(2.0, 3.0);
        buf.append(&port);
        assert_eq!(buf.sample(-1.0), 1.0, "clamps before the seed");
        assert_eq!(buf.sample(0.5), 2.0, "linear between samples");
        assert_eq!(buf.sample(9.0), 3.0, "a flat last segment stays flat past the end");
        assert_eq!(buf.len(), 3);
        assert!(!buf.is_empty());
    }

    #[test]
    #[should_panic(expected = "rewinds")]
    fn appending_into_the_past_panics() {
        let mut buf = ExchangeBuffer::seeded(1.0, 0.0, 1.0);
        let mut port = Port::new("x");
        port.push(0.5, 1.0);
        buf.append(&port);
    }

    #[test]
    fn residual_is_scaled_per_port() {
        let mut bus = Exchange::new();
        bus.seed("i", 0.0, 0.0, 0.025);
        let mut port = Port::new("i");
        port.push(1.0, 1.0e-3);
        let r = bus.residual(&port).unwrap();
        assert!((r - 0.04).abs() < 1e-12, "1 mA / 25 mS = 40 mV-equivalent, got {r}");
        assert!(matches!(
            bus.residual(&Port::new("missing")),
            Err(CosimError::MissingPort(_))
        ));
    }

    #[test]
    fn sampling_extrapolates_past_committed_end() {
        let seed_only = ExchangeBuffer::seeded(0.0, 1.5, 1.0);
        assert_eq!(seed_only.sample(3.0), 1.5, "a seed-only buffer holds its seed");
        let mut buf = ExchangeBuffer::seeded(0.0, 0.0, 1.0);
        let mut port = Port::new("x");
        port.push(1.0, 1.0);
        port.push(2.0, 3.0);
        buf.append(&port);
        assert_eq!(buf.sample(2.0), 3.0, "exact at the last sample");
        assert_eq!(buf.sample(2.5), 4.0, "the last segment's slope carries on");
        assert_eq!(buf.sample(-1.0), 0.0, "still clamps before the seed");
    }

    #[test]
    fn rollback_drops_only_tentative_samples() {
        let mut bus = Exchange::new();
        bus.seed("v", 0.0, 1.0, 1.0);
        let mut first = Port::new("v");
        first.push(1.0, 2.0);
        bus.propose(&first).unwrap();
        bus.accept();
        let mut iterate = Port::new("v");
        iterate.push(1.5, 4.0);
        iterate.push(2.0, 5.0);
        bus.propose(&iterate).unwrap();
        assert_eq!(
            bus.reader("v").unwrap().sample(2.0),
            5.0,
            "readers see the iterate"
        );
        bus.rollback();
        let v = bus.reader("v").unwrap();
        assert_eq!((v.len(), v.end_time()), (2, 1.0), "every tentative sample is gone");
        assert_eq!(
            v.sample(2.0),
            3.0,
            "a read past the committed end extrapolates the last committed segment"
        );
        bus.propose(&iterate).unwrap();
        bus.accept();
        bus.rollback();
        assert_eq!(
            bus.reader("v").unwrap().len(),
            4,
            "accepted samples survive a rollback"
        );
        assert!(matches!(
            bus.propose(&Port::new("missing")),
            Err(CosimError::MissingPort(_))
        ));
    }

    #[test]
    fn a_proposal_replaces_only_its_own_ports_tentative_samples() {
        let mut bus = Exchange::new();
        bus.seed("a", 0.0, 0.0, 1.0);
        bus.seed("b", 0.0, 0.0, 1.0);
        let segment = |name: &str, v: f64| {
            let mut port = Port::new(name);
            port.push(0.5, v);
            port.push(1.0, v);
            port
        };
        bus.propose(&segment("a", 1.0)).unwrap();
        bus.propose(&segment("b", 7.0)).unwrap();
        bus.propose(&segment("a", 2.0)).unwrap();
        let a = bus.reader("a").unwrap();
        assert_eq!((a.len(), a.sample(1.0)), (3, 2.0), "the newer proposal replaced the older");
        let b = bus.reader("b").unwrap();
        assert_eq!((b.len(), b.sample(1.0)), (3, 7.0), "the other port keeps its proposal");
    }

    #[test]
    fn accepted_proposals_extend_the_waveform_view() {
        let mut bus = Exchange::new();
        bus.seed("v", 0.0, 2.0, 1.0);
        let mut port = Port::new("v");
        port.push(1.0e-6, 2.5);
        bus.propose(&port).unwrap();
        bus.accept();
        let w = bus.waveform("v").unwrap();
        assert_eq!(w.value_at(0.5e-6), 2.25);
        assert_eq!(bus.reader("v").unwrap().end_time(), 1.0e-6);
        assert_eq!(bus.port_names().collect::<Vec<_>>(), vec!["v"]);
    }
}
