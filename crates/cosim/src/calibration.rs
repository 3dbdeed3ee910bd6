//! Content-addressed reuse of calibration tables.
//!
//! A calibration table depends only on what its carrier-rate probes
//! read — the netlist and the front-end drive — never on the load, the
//! bit patterns or the run length. Each table kind therefore has a
//! probe-input struct that the probe itself takes, and the cache key is
//! derived from that struct alone (the FNV [`runtime::cache_key`] of
//! its fields at full `f64` precision), so a probe cannot read an input
//! its key lacks. Requests that share an identity then share one
//! calibration.

use crate::error::CosimError;
use runtime::{Artifact, ParamPoint, ResultCache};

/// How many tables of one kind a long-lived cache holds before evicting
/// the oldest. A table is a few hundred floats, so this bounds a cache
/// at well under a megabyte.
pub const TABLE_CACHE_CAPACITY: usize = 256;

/// The table `calibrate` would build for `point`, served from `cache`
/// when it already holds one. Returns the table and whether it was a
/// hit; only successful calibrations are cached. Two concurrent misses
/// on one identity both calibrate (the tables are identical, and the
/// second store overwrites the first).
///
/// Hits and misses count into the `cosim.calibration.hit` and
/// `cosim.calibration.miss` obs counters.
///
/// # Errors
///
/// Whatever `calibrate` returns.
pub fn calibrate_cached<T: Artifact + Clone>(
    cache: &ResultCache<T>,
    namespace: &str,
    point: &ParamPoint,
    calibrate: impl FnOnce() -> Result<T, CosimError>,
) -> Result<(T, bool), CosimError> {
    if let Some(table) = cache.get(namespace, point) {
        obs::count!("cosim.calibration.hit");
        return Ok((table, true));
    }
    obs::count!("cosim.calibration.miss");
    let table = calibrate()?;
    cache.put(namespace, point, &table);
    Ok((table, false))
}

/// A probe-input field that has no scalar form (a circuit or coil
/// description), keyed by its `Debug` rendering, which covers every
/// field and prints each `f64` in its shortest round-trip form.
pub fn debug_key(value: &impl std::fmt::Debug) -> String {
    format!("{value:?}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_successes_are_cached() {
        let cache: ResultCache<f64> = ResultCache::bounded(TABLE_CACHE_CAPACITY);
        let point = ParamPoint::new().with("x", 1.0);
        let failed = calibrate_cached(&cache, "t", &point, || {
            Err(CosimError::InvalidPlan("probe failed".into()))
        });
        assert!(failed.is_err());
        assert!(cache.is_empty(), "a failure must not be cached");
        assert_eq!(
            calibrate_cached(&cache, "t", &point, || Ok(2.0)).unwrap(),
            (2.0, false)
        );
        let hit = calibrate_cached(&cache, "t", &point, || panic!("a hit must not calibrate"));
        assert_eq!(hit.unwrap(), (2.0, true));
    }

    #[test]
    fn debug_keys_separate_one_ulp() {
        let a = (1.0f64, "x");
        let b = (f64::from_bits(1.0f64.to_bits() + 1), "x");
        assert_ne!(debug_key(&a), debug_key(&b));
    }
}
