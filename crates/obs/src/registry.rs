//! The global stage registry: every stage that ever recorded, by name,
//! process-wide.
//!
//! Registration interns the stage (`Box::leak` → `&'static Stage`) under
//! a mutex; the [`span!`](crate::span!) macro caches the result per
//! callsite, so steady-state recording never touches the mutex again.
//! [`snapshot`] reads the atomics into plain values for rendering.

use crate::hist::LatencyHistogram;
use crate::span::Stage;
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

fn stages() -> &'static Mutex<Vec<&'static Stage>> {
    static REGISTRY: OnceLock<Mutex<Vec<&'static Stage>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

/// Resolves (registering on first use) the stage called `name`.
pub(crate) fn stage(name: &'static str) -> &'static Stage {
    let mut reg = stages().lock().expect("obs registry poisoned");
    if let Some(existing) = reg.iter().find(|s| s.name() == name) {
        return existing;
    }
    let interned: &'static Stage = Box::leak(Box::new(Stage::new(name, reg.len())));
    reg.push(interned);
    interned
}

/// One stage's counters, read at a point in time.
///
/// Reads are relaxed and per-counter, so a snapshot taken while spans
/// are completing on other threads can be transiently off by the
/// in-flight samples; quiesce first when exact totals matter (tests
/// do).
#[derive(Debug, Clone)]
pub struct StageSnapshot {
    /// Stage name (`"server.execute"`, `"pool.job"`, …).
    pub name: &'static str,
    /// Completed spans plus counter increments.
    pub count: u64,
    /// Total recorded duration (zero for pure counters).
    pub total: Duration,
    /// The stage's latency histogram (empty for pure counters).
    pub hist: LatencyHistogram,
}

impl StageSnapshot {
    /// Mean recorded duration ([`Duration::ZERO`] when nothing was
    /// recorded).
    pub fn mean(&self) -> Duration {
        let samples = self.hist.count();
        if samples == 0 {
            Duration::ZERO
        } else {
            self.total / u32::try_from(samples).unwrap_or(u32::MAX)
        }
    }
}

/// Snapshots every registered stage, sorted by name (stable output for
/// rendering and diffing).
pub fn snapshot() -> Vec<StageSnapshot> {
    snapshot_of(Some)
}

/// Snapshots, under each registered stage's name, the counters `read`
/// maps it to (the stage itself, or a scope's stage of the same index),
/// skipping stages it maps to `None`; sorted by name.
pub(crate) fn snapshot_of<'a>(
    read: impl Fn(&'static Stage) -> Option<&'a Stage>,
) -> Vec<StageSnapshot> {
    let reg = stages().lock().expect("obs registry poisoned");
    let mut out: Vec<StageSnapshot> = reg
        .iter()
        .filter_map(|&stage| {
            let cells = read(stage)?;
            Some(StageSnapshot {
                name: stage.name(),
                count: cells.count(),
                total: Duration::from_nanos(cells.total_ns()),
                hist: cells.histogram(),
            })
        })
        .collect();
    out.sort_by_key(|s| s.name);
    out
}

/// Zeroes every registered stage (benches isolating phases; stages stay
/// registered). Scopes keep their counts.
pub fn reset() {
    let reg = stages().lock().expect("obs registry poisoned");
    for stage in reg.iter() {
        stage.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_interns_by_name() {
        let a = stage("test.registry.intern");
        let b = stage("test.registry.intern");
        assert!(std::ptr::eq(a, b), "same name must resolve to the same stage");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        stage("test.registry.zz");
        stage("test.registry.aa");
        let snap = snapshot();
        let names: Vec<&str> = snap.iter().map(|s| s.name).collect();
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted);
    }

    #[test]
    fn snapshot_mean_divides_total_by_samples() {
        let s = stage("test.registry.mean");
        s.record_duration(Duration::from_micros(100));
        s.record_duration(Duration::from_micros(300));
        let snap = snapshot();
        let got = snap.iter().find(|x| x.name == "test.registry.mean").unwrap();
        assert_eq!(got.mean(), Duration::from_micros(200));
    }
}
