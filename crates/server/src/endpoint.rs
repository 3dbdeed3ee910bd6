//! The cached endpoints — `montecarlo`, `sweep`, `patientday` and
//! `cohort` — each written once, as a [`CachedEndpoint`] impl on its
//! parameter struct: cache identity, value type, compute and rendering.
//!
//! Everything else is shared. [`crate::proto::RequestBody::route_point`]
//! returns the identity defined here, so the cluster places a request on
//! the replica whose cache holds it. The router's one generic path (a
//! one-point pool run against the endpoint's own bounded cache, hit/miss
//! accounting, rendering) serves requests, pre-warming and hedged reads
//! alike.

use crate::proto::{
    CohortParams, MontecarloParams, PatientdayParams, RequestBody, SweepMedium, SweepParams,
};
use coils::tissue::TissueStack;
use implant_core::montecarlo::{MonteCarloStudy, VariationModel, YieldReport};
use link::budget::PowerBudget;
use runtime::{Artifact, Json, ParamPoint, ResultCache};
use scenario::{CohortReport, DaySummary};
use std::sync::Arc;
use store::Store;

/// One cached endpoint's decisions. The value is a pure function of the
/// parameters: every result draws only from its own seed-derived
/// streams, never the pool's per-job RNG.
pub(crate) trait CachedEndpoint: Sync {
    /// Cache namespace (`server-<endpoint>`).
    const NAMESPACE: &'static str;
    /// What a panicked compute is reported as (`"<JOB> panicked: …"`).
    const JOB: &'static str;
    /// The cached, stored and pre-warmed result.
    type Value: Artifact + Clone + Send;
    /// This endpoint's parameters, when `body` is this endpoint.
    fn of(body: &RequestBody) -> Option<&Self>;
    /// The canonical identity point, every default applied. Pair
    /// insertion order is part of the cache key.
    fn point(&self) -> ParamPoint;
    /// Computes the result.
    fn compute(&self) -> Self::Value;
    /// The served `result` document.
    fn render(&self, value: &Self::Value, cached: bool) -> Json;
    /// This endpoint's own cache.
    fn cache(caches: &Caches) -> &ResultCache<Self::Value>;

    /// The routing and cache identity: namespace plus point.
    fn identity(&self) -> (&'static str, ParamPoint) {
        (Self::NAMESPACE, self.point())
    }
}

/// One bounded FIFO cache per endpoint, so fresh Monte Carlo points
/// cannot evict another endpoint's entries.
pub(crate) struct Caches {
    montecarlo: ResultCache<YieldReport>,
    sweep: ResultCache<Vec<f64>>,
    patientday: ResultCache<DaySummary>,
    cohort: ResultCache<CohortReport>,
}

impl Caches {
    /// Caches of `capacity` entries each, written through to `store`
    /// when one is attached.
    pub(crate) fn new(capacity: usize, store: Option<&Arc<Store>>) -> Self {
        fn tiered<V: Artifact + Clone>(
            capacity: usize,
            store: Option<&Arc<Store>>,
        ) -> ResultCache<V> {
            let cache = ResultCache::bounded(capacity);
            match store {
                Some(s) => cache.with_tier(s.clone()),
                None => cache,
            }
        }
        Caches {
            montecarlo: tiered(capacity, store),
            sweep: tiered(capacity, store),
            patientday: tiered(capacity, store),
            cohort: tiered(capacity, store),
        }
    }
}

impl MontecarloParams {
    fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| MonteCarloStudy::ironic().seed)
    }
}

/// `montecarlo`: parametric yield at a requested mismatch level.
impl CachedEndpoint for MontecarloParams {
    const NAMESPACE: &'static str = "server-montecarlo";
    const JOB: &'static str = "study";
    type Value = YieldReport;

    fn of(body: &RequestBody) -> Option<&Self> {
        match body {
            RequestBody::Montecarlo(p) => Some(p),
            _ => None,
        }
    }

    fn point(&self) -> ParamPoint {
        ParamPoint::new()
            .with("scale", self.scale)
            .with("trials", self.trials)
            .with("seed", self.resolved_seed())
    }

    fn compute(&self) -> YieldReport {
        let mut study = MonteCarloStudy::ironic();
        study.seed = self.resolved_seed();
        study.variation = VariationModel::typical_018um().scaled(self.scale);
        study.run_serial(self.trials as usize)
    }

    fn render(&self, report: &YieldReport, cached: bool) -> Json {
        Json::obj(vec![
            ("scale", Json::Num(self.scale)),
            ("trials", Json::Num(report.trials as f64)),
            ("seed", Json::Num(self.resolved_seed() as f64)),
            ("passing", Json::Num(report.passing as f64)),
            ("yield", Json::Num(report.yield_fraction())),
            ("charge_ok", Json::Num(report.charge_ok as f64)),
            ("downlink_ok", Json::Num(report.downlink_ok as f64)),
            ("vo_ok", Json::Num(report.vo_ok as f64)),
            ("vo_min_mean", Json::Num(report.vo_min_mean)),
            ("vo_min_worst", Json::Num(report.vo_min_worst)),
            ("cached", Json::Bool(cached)),
        ])
    }

    fn cache(caches: &Caches) -> &ResultCache<YieldReport> {
        &caches.montecarlo
    }
}

impl SweepParams {
    /// The distance grid, millimetres (derived, not cached).
    fn distances(&self) -> Vec<f64> {
        let steps = self.steps as usize;
        let span = self.d_max_mm - self.d_min_mm;
        (0..steps).map(|i| self.d_min_mm + span * i as f64 / (steps - 1) as f64).collect()
    }
}

/// `sweep`: received power over a distance grid in air or through the
/// sirloin stack. The whole grid is one cache entry.
impl CachedEndpoint for SweepParams {
    const NAMESPACE: &'static str = "server-sweep";
    const JOB: &'static str = "sweep";
    type Value = Vec<f64>;

    fn of(body: &RequestBody) -> Option<&Self> {
        match body {
            RequestBody::Sweep(p) => Some(p),
            _ => None,
        }
    }

    fn point(&self) -> ParamPoint {
        ParamPoint::new()
            .with("medium", self.medium.as_str())
            .with("d_min_mm", self.d_min_mm)
            .with("d_max_mm", self.d_max_mm)
            .with("steps", self.steps)
    }

    fn compute(&self) -> Vec<f64> {
        let budget = match self.medium {
            SweepMedium::Air => PowerBudget::ironic_air(),
            SweepMedium::Sirloin => {
                PowerBudget::ironic_air().with_tissue(TissueStack::sirloin_17mm())
            }
        };
        self.distances().iter().map(|&d| budget.received_power(d * 1e-3)).collect()
    }

    fn render(&self, powers: &Vec<f64>, cached: bool) -> Json {
        Json::obj(vec![
            ("medium", Json::Str(self.medium.as_str().to_string())),
            ("distances_mm", Json::Arr(self.distances().into_iter().map(Json::Num).collect())),
            ("p_rx_mw", Json::Arr(powers.iter().map(|&w| Json::Num(w * 1e3)).collect())),
            ("cached", Json::Bool(cached)),
        ])
    }

    fn cache(caches: &Caches) -> &ResultCache<Vec<f64>> {
        &caches.sweep
    }
}

/// `patientday`: one seeded day on the patch, served as its
/// [`DaySummary`]. The day seeds its own xoshiro stream.
impl CachedEndpoint for PatientdayParams {
    const NAMESPACE: &'static str = "server-patientday";
    const JOB: &'static str = "day";
    type Value = DaySummary;

    fn of(body: &RequestBody) -> Option<&Self> {
        match body {
            RequestBody::Patientday(p) => Some(p),
            _ => None,
        }
    }

    fn point(&self) -> ParamPoint {
        ParamPoint::new()
            .with("seed", self.seed)
            .with("hours", self.hours)
            .with("profile", self.profile.as_str())
            .with("battery_mah", self.battery_mah)
            .with("depth_mm", self.depth_mm)
            .with("drift_mm", self.drift_mm)
            .with("lateral_mm", self.lateral_mm)
            .with("tissue", self.tissue.as_str())
    }

    fn compute(&self) -> DaySummary {
        self.to_day().run().summary()
    }

    fn render(&self, summary: &DaySummary, cached: bool) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("profile", Json::Str(self.profile.as_str().to_string())),
            ("hours", Json::Num(self.hours)),
            ("summary", summary.to_json()),
            ("cached", Json::Bool(cached)),
        ])
    }

    fn cache(caches: &Caches) -> &ResultCache<DaySummary> {
        &caches.patientday
    }
}

/// `cohort`: one shard of a virtual-patient campaign, folded in patient
/// order to its exactly-mergeable [`CohortReport`]. Patient streams
/// derive from `(seed, offset + i)`.
impl CachedEndpoint for CohortParams {
    const NAMESPACE: &'static str = "server-cohort";
    const JOB: &'static str = "shard";
    type Value = CohortReport;

    fn of(body: &RequestBody) -> Option<&Self> {
        match body {
            RequestBody::Cohort(p) => Some(p),
            _ => None,
        }
    }

    fn point(&self) -> ParamPoint {
        let point = ParamPoint::new()
            .with("seed", self.seed)
            .with("patients", self.patients)
            .with("offset", self.offset)
            .with("hours", self.hours)
            .with("enzyme", self.enzyme.as_str());
        // Only a non-nominal prescription enters the identity, so every
        // pre-duty cache key stays stable.
        if self.duty == (1.0, 1.0) {
            point
        } else {
            point.with("duty_min", self.duty.0).with("duty_max", self.duty.1)
        }
    }

    fn compute(&self) -> CohortReport {
        self.to_cohort().run_serial()
    }

    fn render(&self, report: &CohortReport, cached: bool) -> Json {
        Json::obj(vec![
            ("seed", Json::Num(self.seed as f64)),
            ("offset", Json::Num(self.offset as f64)),
            ("enzyme", Json::Str(self.enzyme.as_str().to_string())),
            ("mean_life_h", Json::Num(report.mean_life_h())),
            ("mean_p_rx_mw", Json::Num(report.mean_p_rx_mw())),
            ("digest", Json::Str(format!("{:016x}", report.digest()))),
            ("report", report.to_json()),
            ("cached", Json::Bool(cached)),
        ])
    }

    fn cache(caches: &Caches) -> &ResultCache<CohortReport> {
        &caches.cohort
    }
}
