//! Boundary-waveform exchange: the sampled signals domains trade at
//! their coupling ports.
//!
//! An [`ExchangeBuffer`] is a strictly-ordered sampled waveform with
//! linear interpolation — deliberately the same semantics as
//! [`analog::Waveform`], but growable, so a buffer accumulates one
//! committed macro-step at a time. The [`Exchange`] is the bus: a name →
//! buffer map every domain reads its inputs from and the scheduler
//! writes converged outputs into. Buffers are seeded with an explicit
//! initial sample, so the first relaxation iterate of the first
//! macro-step starts from a defined value rather than an empty read —
//! end-clamped sampling then doubles as the constant extrapolation that
//! opens every subsequent macro-step.
//!
//! Relaxation iterates live on the bus itself: the scheduler appends a
//! window's proposals *tentatively* ([`Exchange::propose`]) and rolls
//! back to the committed length of every port before the next iterate
//! ([`Exchange::rollback`]), then either accepts the converged iterate
//! ([`Exchange::accept`]) or rolls back on failure. No iterate ever
//! copies the history, so an iteration costs O(window), not O(run).

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

/// A growable sampled waveform with linear interpolation and
/// end-clamping. Samples past the committed length are tentative: the
/// current relaxation iterate, dropped again by a rollback.
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

    /// Linear interpolation at `t`, clamped to the first/last sample
    /// outside the covered span. Reading past the end is how the
    /// scheduler extrapolates the previous macro-step into the next.
    pub fn sample(&self, t: f64) -> f64 {
        let n = self.times.len();
        if t <= self.times[0] {
            return self.values[0];
        }
        if t >= self.times[n - 1] {
            return self.values[n - 1];
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
/// while a macro-step relaxes, the previous iterate's tentative
/// proposals.
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

    /// Appends an iterate's segment tentatively: readers see it until
    /// the next [`rollback`](Exchange::rollback) or
    /// [`accept`](Exchange::accept).
    ///
    /// # Errors
    ///
    /// [`CosimError::MissingPort`] when the proposal names an unseeded
    /// port.
    pub(crate) fn propose(&mut self, port: &Port) -> Result<(), CosimError> {
        self.writer(&port.name)?.extend(port);
        Ok(())
    }

    /// Drops every tentative sample, back to the committed history.
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
        assert_eq!(buf.sample(9.0), 3.0, "clamps past the end");
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
    fn rollback_drops_only_tentative_samples() {
        let mut bus = Exchange::new();
        bus.seed("v", 0.0, 1.0, 1.0);
        let mut first = Port::new("v");
        first.push(1.0, 2.0);
        bus.propose(&first).unwrap();
        bus.accept();
        let mut iterate = Port::new("v");
        iterate.push(2.0, 5.0);
        bus.propose(&iterate).unwrap();
        assert_eq!(
            bus.reader("v").unwrap().sample(2.0),
            5.0,
            "readers see the iterate"
        );
        bus.rollback();
        let v = bus.reader("v").unwrap();
        assert_eq!((v.len(), v.end_time(), v.sample(2.0)), (2, 1.0, 2.0));
        bus.propose(&iterate).unwrap();
        bus.accept();
        bus.rollback();
        assert_eq!(
            bus.reader("v").unwrap().len(),
            3,
            "accepted samples survive a rollback"
        );
        assert!(matches!(
            bus.propose(&Port::new("missing")),
            Err(CosimError::MissingPort(_))
        ));
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
