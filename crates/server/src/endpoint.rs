//! The six data endpoints, each written once as a [`DataEndpoint`] impl
//! on its parameter struct: its wire name (the suffix of its namespace),
//! its decode, its identity and its execution.
//!
//! Everything else is one lookup. [`ENDPOINTS`] maps a wire name to its
//! decoder; [`crate::proto::RequestBody::data`] projects a decoded body
//! onto its impl, which names the body, gives its route point and runs
//! it. The four cached endpoints — `montecarlo`, `sweep`, `patientday`
//! and `cohort` — add a [`CachedEndpoint`] impl (value type, compute,
//! rendering, cache) and execute through the router's one generic path
//! (a one-point pool run against the endpoint's own bounded cache,
//! hit/miss accounting, rendering), which also serves pre-warming and
//! hedged reads. `fig11` and `fullchain` run their transient directly,
//! uncached.

use crate::proto::{
    CohortParams, DecodeLimits, Fig11Params, Fig11Preset, FullchainParams, MontecarloParams,
    PatientdayParams, RequestBody, SweepMedium, SweepParams, WireError,
};
use crate::router::{Routed, Router};
use coils::tissue::TissueStack;
use implant_core::fullchain::FullChainScenario;
use implant_core::montecarlo::{MonteCarloStudy, VariationModel, YieldReport};
use implant_core::scenario::Fig11Scenario;
use link::budget::PowerBudget;
use runtime::{Artifact, Json, ParamPoint, ResultCache};
use scenario::{CohortReport, DaySummary};
use std::sync::Arc;
use store::Store;

/// One data endpoint, written once on its parameter struct.
pub(crate) trait DataEndpoint: Sized {
    /// Route and cache namespace, `server-<name>`.
    const NAMESPACE: &'static str;
    /// The wire name: the namespace without its `server-` prefix.
    const NAME: &'static str = Self::NAMESPACE.split_at("server-".len()).1;
    /// The body variant these parameters travel in.
    const BODY: fn(Self) -> RequestBody;
    /// Decodes and validates from a raw `params` object.
    fn decode(params: &Json, limits: &DecodeLimits) -> Result<Self, WireError>;
    /// The canonical identity point, every default applied. Pair
    /// insertion order is part of the route key.
    fn point(&self) -> ParamPoint;
    /// Answers the request.
    fn execute(&self, router: &Router) -> Result<Routed, WireError>;
    /// The endpoint's cache reads, for the cached endpoints.
    fn cached(&self) -> Option<&dyn Stored> {
        None
    }
}

/// A decoded body's view of its [`DataEndpoint`]: object-safe, so the
/// one projection in [`RequestBody::data`] can hand any of them out.
pub(crate) trait Data {
    /// The wire name.
    fn name(&self) -> &'static str;
    /// The routing identity: namespace plus canonical point.
    fn identity(&self) -> (&'static str, ParamPoint);
    /// Answers the request.
    fn execute(&self, router: &Router) -> Result<Routed, WireError>;
    /// The endpoint's cache reads, for the cached endpoints.
    fn cached(&self) -> Option<&dyn Stored>;
}

impl<E: DataEndpoint> Data for E {
    fn name(&self) -> &'static str {
        E::NAME
    }

    fn identity(&self) -> (&'static str, ParamPoint) {
        (E::NAMESPACE, self.point())
    }

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        DataEndpoint::execute(self, router)
    }

    fn cached(&self) -> Option<&dyn Stored> {
        DataEndpoint::cached(self)
    }
}

/// One data endpoint's entry points, type-erased so that all six sit in
/// one table.
pub(crate) struct Row {
    /// The wire name.
    pub(crate) name: &'static str,
    namespace: &'static str,
    /// Decodes `params` into this endpoint's body.
    pub(crate) decode: fn(&Json, &DecodeLimits) -> Result<RequestBody, WireError>,
    /// Admits a stored artifact into the endpoint's cache; `false` when
    /// it does not decode or the endpoint has no cache.
    admit: fn(&Caches, u64, &Json) -> bool,
}

impl Row {
    const fn of<E: DataEndpoint>() -> Self {
        Row {
            name: E::NAME,
            namespace: E::NAMESPACE,
            decode: |params, limits| E::decode(params, limits).map(E::BODY),
            admit: |_, _, _| false,
        }
    }

    const fn cached<E: CachedEndpoint>() -> Self {
        Row {
            admit: |caches, key, value| {
                E::Value::from_json(value).map(|v| E::cache(caches).admit(key, v)).is_some()
            },
            ..Row::of::<E>()
        }
    }
}

/// The data endpoints, in the order `unknown_endpoint` lists them. A new
/// one is a [`DataEndpoint`] impl, a [`RequestBody`] variant and a row
/// here.
pub(crate) const ENDPOINTS: [Row; 6] = [
    Row::of::<Fig11Params>(),
    Row::of::<FullchainParams>(),
    Row::cached::<MontecarloParams>(),
    Row::cached::<SweepParams>(),
    Row::cached::<PatientdayParams>(),
    Row::cached::<CohortParams>(),
];

/// A cached endpoint's decisions. The value is a pure function of the
/// parameters: every result draws only from its own seed-derived
/// streams, never the pool's per-job RNG.
pub(crate) trait CachedEndpoint: DataEndpoint + Sync {
    /// What a panicked compute is reported as (`"<JOB> panicked: …"`).
    const JOB: &'static str;
    /// The cached, stored and pre-warmed result.
    type Value: Artifact + Clone + Send;
    /// Computes the result.
    fn compute(&self) -> Self::Value;
    /// The served `result` document.
    fn render(&self, value: &Self::Value, cached: bool) -> Json;
    /// This endpoint's own cache.
    fn cache(caches: &Caches) -> &ResultCache<Self::Value>;
}

/// A cached endpoint's reads of its cache for one request: object-safe,
/// so a body can reach them through [`Data::cached`].
pub(crate) trait Stored {
    /// The `result` a memory-resident entry under `key` answers with,
    /// rendered `cached: true`; `None` on a memory miss.
    fn resident(&self, caches: &Caches, key: u64) -> Option<Json>;
    /// The `result` the stored artifact `value` renders to, `cached:
    /// true`; `None` when it does not decode as the endpoint's value.
    fn render_stored(&self, value: &Json) -> Option<Json>;
}

impl<E: CachedEndpoint> Stored for E {
    fn resident(&self, caches: &Caches, key: u64) -> Option<Json> {
        Some(self.render(&E::cache(caches).get_resident(key)?, true))
    }

    fn render_stored(&self, value: &Json) -> Option<Json> {
        Some(self.render(&E::Value::from_json(value)?, true))
    }
}

/// One bounded FIFO cache per cached endpoint, so fresh Monte Carlo
/// points cannot evict another endpoint's entries.
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

    /// Admits a stored artifact of namespace `ns` into its endpoint's
    /// cache; `false` when no cached endpoint owns `ns` or the value
    /// does not decode.
    pub(crate) fn admit(&self, ns: &str, key: u64, value: &Json) -> bool {
        let row = ENDPOINTS.iter().find(|row| row.namespace == ns);
        row.is_some_and(|row| (row.admit)(self, key, value))
    }

    /// Total `(hits, misses)` across the caches.
    pub(crate) fn stats(&self) -> (u64, u64) {
        [self.montecarlo.stats(), self.sweep.stats(), self.patientday.stats(), self.cohort.stats()]
            .into_iter()
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }
}

/// `fig11`: one transistor-level Fig. 11 transient with caller
/// overrides, reporting the paper's compliance checks. Uncached.
impl DataEndpoint for Fig11Params {
    const NAMESPACE: &'static str = "server-fig11";
    const BODY: fn(Self) -> RequestBody = RequestBody::Fig11;

    fn decode(params: &Json, _: &DecodeLimits) -> Result<Self, WireError> {
        let name = opt_str(params, "preset")?.unwrap_or(Fig11Preset::default().as_str());
        let preset = [Fig11Preset::Short, Fig11Preset::Paper]
            .into_iter()
            .find(|preset| preset.as_str() == name)
            .ok_or_else(|| WireError::bad("preset", format!("unknown preset {name:?}")))?;
        Ok(Fig11Params {
            preset,
            idle_amplitude: opt_f64(params, "idle_amplitude", 0.5, 20.0)?,
            r_source: opt_f64(params, "r_source", 1.0, 10.0e3)?,
            r_load: opt_f64(params, "r_load", 10.0, 1.0e6)?,
            t_stop_us: opt_f64(params, "t_stop_us", 1.0, 2000.0)?,
            max_step_ns: opt_f64(params, "max_step_ns", 1.0, 1000.0)?,
            cosim: opt_bool(params, "cosim")?.unwrap_or(false),
        })
    }

    fn point(&self) -> ParamPoint {
        let mut point = ParamPoint::new().with("preset", self.preset.as_str());
        for (key, value) in [
            ("idle_amplitude", self.idle_amplitude),
            ("r_source", self.r_source),
            ("r_load", self.r_load),
            ("t_stop_us", self.t_stop_us),
            ("max_step_ns", self.max_step_ns),
        ] {
            if let Some(v) = value {
                point = point.with(key, v);
            }
        }
        // The engine enters the identity only when it deviates from the
        // default, so every monolithic key stays stable.
        if self.cosim {
            point = point.with("cosim", 1u64);
        }
        point
    }

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        let mut scenario = match self.preset {
            Fig11Preset::Short => Fig11Scenario::shortened(),
            Fig11Preset::Paper => Fig11Scenario::paper(),
        };
        if let Some(v) = self.idle_amplitude {
            scenario.idle_amplitude = v;
        }
        if let Some(v) = self.r_source {
            scenario.r_source = v;
        }
        if let Some(v) = self.r_load {
            scenario.r_load = v;
        }
        if let Some(v) = self.t_stop_us {
            scenario.t_stop = v * 1e-6;
        }
        if let Some(v) = self.max_step_ns {
            scenario.max_step = v * 1e-9;
        }
        // A horizon that cuts into the preset's timeline is a client
        // error, not a failed simulation: answer it as a bad field.
        // `max_step_ns` is the knob for cheap runs, not truncation. The
        // check needs the preset's timeline, so it runs here rather
        // than in decode.
        if let Err(cut) = scenario.check_timeline() {
            return Err(WireError::bad(
                "t_stop_us",
                format!(
                    "\"t_stop_us\" = {:.0} cuts the preset's timeline (needs ≥ {:.0} µs)",
                    cut.t_stop * 1e6,
                    cut.timeline_end * 1e6,
                ),
            ));
        }
        let outcome = if self.cosim {
            scenario.run_cosim_with(&router.pool, &router.calibrations)?.0
        } else {
            scenario.run().map_err(WireError::simulation_failed)?
        };
        Ok(Routed::plain(Json::obj(vec![
            ("vo_worst", Json::Num(outcome.vo_worst())),
            ("vo_compliant", Json::Bool(outcome.vo_compliant())),
            ("downlink_errors", Json::Num(outcome.downlink_errors() as f64)),
            ("downlink_bits", Json::Num(outcome.downlink_sent.len() as f64)),
            (
                "t_charged_us",
                outcome.t_charged.map_or(Json::Null, |t| Json::Num(t * 1e6)),
            ),
            ("uplink_contrast", Json::Num(outcome.uplink_contrast)),
            ("cosim", Json::Bool(self.cosim)),
        ])))
    }
}

/// `fullchain`: steady-state Vo, efficiency and compliance of the
/// PA→coils→matching→rectifier netlist at a caller-chosen distance.
/// Uncached.
impl DataEndpoint for FullchainParams {
    const NAMESPACE: &'static str = "server-fullchain";
    const BODY: fn(Self) -> RequestBody = RequestBody::Fullchain;

    fn decode(params: &Json, _: &DecodeLimits) -> Result<Self, WireError> {
        Ok(FullchainParams {
            distance_mm: opt_f64(params, "distance_mm", 1.0, 50.0)?.unwrap_or(10.0),
            r_load: opt_f64(params, "r_load", 10.0, 1.0e6)?,
            cycles: opt_u64(params, "cycles", 10, 2000)?.unwrap_or(120),
            cosim: opt_bool(params, "cosim")?.unwrap_or(false),
        })
    }

    fn point(&self) -> ParamPoint {
        let mut point =
            ParamPoint::new().with("distance_mm", self.distance_mm).with("cycles", self.cycles);
        if let Some(v) = self.r_load {
            point = point.with("r_load", v);
        }
        if self.cosim {
            point = point.with("cosim", 1u64);
        }
        point
    }

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        let mut scenario = FullChainScenario::ironic();
        scenario.distance = self.distance_mm * 1e-3;
        if let Some(v) = self.r_load {
            scenario.r_load = v;
        }
        scenario.cycles = self.cycles as usize;
        // Both engines report the same scalar summary, so the response
        // shape is engine-independent (plus the `cosim` marker).
        let (vo_steady, supply_compliant, efficiency, p_load, p_supply) = if self.cosim {
            let o = scenario.run_cosim_with(&router.pool, &router.calibrations)?;
            (o.vo_steady(), o.supply_compliant(), o.efficiency(), o.p_load, o.p_supply)
        } else {
            let o = scenario.run().map_err(WireError::simulation_failed)?;
            (o.vo_steady(), o.supply_compliant(), o.efficiency(), o.p_load, o.p_supply)
        };
        Ok(Routed::plain(Json::obj(vec![
            ("distance_mm", Json::Num(self.distance_mm)),
            ("cycles", Json::Num(scenario.cycles as f64)),
            ("vo_steady", Json::Num(vo_steady)),
            ("supply_compliant", Json::Bool(supply_compliant)),
            ("efficiency", Json::Num(efficiency)),
            ("p_load_mw", Json::Num(p_load * 1e3)),
            ("p_supply_mw", Json::Num(p_supply * 1e3)),
            ("cosim", Json::Bool(self.cosim)),
        ])))
    }
}

impl MontecarloParams {
    fn resolved_seed(&self) -> u64 {
        self.seed.unwrap_or_else(|| MonteCarloStudy::ironic().seed)
    }
}

/// `montecarlo`: parametric yield at a requested mismatch level.
impl DataEndpoint for MontecarloParams {
    const NAMESPACE: &'static str = "server-montecarlo";
    const BODY: fn(Self) -> RequestBody = RequestBody::Montecarlo;

    fn decode(params: &Json, limits: &DecodeLimits) -> Result<Self, WireError> {
        // The typical model's passives draw `1 ± tol·scale` (uniform), so
        // from `1 / tol` on a trial can draw a non-positive R or C.
        let typical = VariationModel::typical_018um();
        let limit = 1.0 / typical.capacitor_tolerance.max(typical.resistance_tolerance);
        let scale = opt_f64(params, "scale", 0.0, limit)?.unwrap_or(1.0);
        if scale >= limit {
            return Err(WireError::bad(
                "scale",
                format!("\"scale\" = {scale} must stay below {limit} (non-positive R or C draws)"),
            ));
        }
        Ok(MontecarloParams {
            scale,
            trials: opt_u64(params, "trials", 1, limits.mc_trial_cap)?.unwrap_or(1000),
            seed: opt_u64(params, "seed", 0, u64::MAX)?,
        })
    }

    fn point(&self) -> ParamPoint {
        ParamPoint::new()
            .with("scale", self.scale)
            .with("trials", self.trials)
            .with("seed", self.resolved_seed())
    }

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        router.serve(self)
    }

    fn cached(&self) -> Option<&dyn Stored> {
        Some(self)
    }
}

impl CachedEndpoint for MontecarloParams {
    const JOB: &'static str = "study";
    type Value = YieldReport;

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
impl DataEndpoint for SweepParams {
    const NAMESPACE: &'static str = "server-sweep";
    const BODY: fn(Self) -> RequestBody = RequestBody::Sweep;

    fn decode(params: &Json, _: &DecodeLimits) -> Result<Self, WireError> {
        let d_min_mm = opt_f64(params, "d_min_mm", 0.5, 100.0)?.unwrap_or(2.0);
        let d_max_mm = opt_f64(params, "d_max_mm", 0.5, 100.0)?.unwrap_or(30.0);
        if d_max_mm < d_min_mm {
            return Err(WireError::bad(
                "d_max_mm",
                format!("d_max_mm {d_max_mm} < d_min_mm {d_min_mm}"),
            ));
        }
        let medium = match opt_str(params, "medium")?.unwrap_or("air") {
            "air" => SweepMedium::Air,
            "sirloin" => SweepMedium::Sirloin,
            other => {
                return Err(WireError::bad(
                    "medium",
                    format!("unknown medium {other:?} (air | sirloin)"),
                ))
            }
        };
        Ok(SweepParams {
            d_min_mm,
            d_max_mm,
            steps: opt_u64(params, "steps", 2, 64)?.unwrap_or(8),
            medium,
        })
    }

    fn point(&self) -> ParamPoint {
        ParamPoint::new()
            .with("medium", self.medium.as_str())
            .with("d_min_mm", self.d_min_mm)
            .with("d_max_mm", self.d_max_mm)
            .with("steps", self.steps)
    }

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        router.serve(self)
    }

    fn cached(&self) -> Option<&dyn Stored> {
        Some(self)
    }
}

impl CachedEndpoint for SweepParams {
    const JOB: &'static str = "sweep";
    type Value = Vec<f64>;

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
impl DataEndpoint for PatientdayParams {
    const NAMESPACE: &'static str = "server-patientday";
    const BODY: fn(Self) -> RequestBody = RequestBody::Patientday;

    fn decode(params: &Json, _: &DecodeLimits) -> Result<Self, WireError> {
        let tissue = match opt_str(params, "tissue")?.unwrap_or("subcutaneous") {
            "air" => scenario::Tissue::Air,
            "sirloin" => scenario::Tissue::Sirloin,
            "subcutaneous" => scenario::Tissue::Subcutaneous,
            other => {
                return Err(WireError::bad(
                    "tissue",
                    format!("unknown tissue {other:?} (air | sirloin | subcutaneous)"),
                ))
            }
        };
        let profile = match opt_str(params, "profile")?.unwrap_or("routine") {
            "routine" => scenario::DayProfile::Routine,
            "sensing" => scenario::DayProfile::Sensing,
            "idle" => scenario::DayProfile::Idle,
            other => {
                return Err(WireError::bad(
                    "profile",
                    format!("unknown profile {other:?} (routine | sensing | idle)"),
                ))
            }
        };
        Ok(PatientdayParams {
            seed: opt_u64(params, "seed", 0, u64::MAX)?.unwrap_or(scenario::DEFAULT_SEED),
            hours: opt_f64(params, "hours", 0.5, 48.0)?.unwrap_or(24.0),
            battery_mah: opt_f64(params, "battery_mah", 10.0, 500.0)?.unwrap_or(120.0),
            depth_mm: opt_f64(params, "depth_mm", 1.0, 30.0)?.unwrap_or(6.0),
            drift_mm: opt_f64(params, "drift_mm", 0.0, 5.0)?.unwrap_or(2.0),
            lateral_mm: opt_f64(params, "lateral_mm", 0.0, 10.0)?.unwrap_or(1.0),
            tissue,
            profile,
        })
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

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        router.serve(self)
    }

    fn cached(&self) -> Option<&dyn Stored> {
        Some(self)
    }
}

impl CachedEndpoint for PatientdayParams {
    const JOB: &'static str = "day";
    type Value = DaySummary;

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
impl DataEndpoint for CohortParams {
    const NAMESPACE: &'static str = "server-cohort";
    const BODY: fn(Self) -> RequestBody = RequestBody::Cohort;

    fn decode(params: &Json, limits: &DecodeLimits) -> Result<Self, WireError> {
        let enzyme_str = opt_str(params, "enzyme")?.unwrap_or("mixed");
        let enzyme = scenario::EnzymeChoice::parse(enzyme_str).ok_or_else(|| {
            WireError::bad(
                "enzyme",
                format!("unknown enzyme {enzyme_str:?} (clodx | wtlodx | mixed)"),
            )
        })?;
        let patients =
            opt_u64(params, "patients", 1, limits.cohort_patient_cap)?.unwrap_or(100);
        let hours = opt_f64(params, "hours", 0.5, 48.0)?.unwrap_or(24.0);
        let cost = patients as f64 * hours;
        if cost > limits.cohort_patient_hours_cap {
            return Err(WireError::bad(
                "patients",
                format!(
                    "patients × hours = {cost:.0} patient-hours exceeds the cap of {:.0}",
                    limits.cohort_patient_hours_cap
                ),
            ));
        }
        let duty_min = opt_f64(params, "duty_min", 0.01, 1.0)?.unwrap_or(1.0);
        let duty_max = opt_f64(params, "duty_max", 0.01, 1.0)?.unwrap_or(1.0);
        if duty_max < duty_min {
            return Err(WireError::bad(
                "duty_max",
                format!("duty_max {duty_max} < duty_min {duty_min}"),
            ));
        }
        Ok(CohortParams {
            seed: opt_u64(params, "seed", 0, u64::MAX)?.unwrap_or(scenario::DEFAULT_SEED),
            patients,
            offset: opt_u64(params, "offset", 0, 1_000_000_000)?.unwrap_or(0),
            hours,
            enzyme,
            duty: (duty_min, duty_max),
        })
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

    fn execute(&self, router: &Router) -> Result<Routed, WireError> {
        router.serve(self)
    }

    fn cached(&self) -> Option<&dyn Stored> {
        Some(self)
    }
}

impl CachedEndpoint for CohortParams {
    const JOB: &'static str = "shard";
    type Value = CohortReport;

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

// ---- shared field validators ------------------------------------------

/// Optional parameter read by `read`, which fails as `{key} must be {kind}`.
fn opt<'a, T>(
    params: &'a Json,
    key: &str,
    read: fn(&'a Json) -> Option<T>,
    kind: &str,
) -> Result<Option<T>, WireError> {
    match params.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            read(v).map(Some).ok_or_else(|| WireError::bad(key, format!("{key:?} must be {kind}")))
        }
    }
}

/// Optional float parameter with an inclusive validity range.
fn opt_f64(params: &Json, key: &str, min: f64, max: f64) -> Result<Option<f64>, WireError> {
    match opt(params, key, Json::as_f64, "a number")? {
        Some(v) if !v.is_finite() || v < min || v > max => {
            Err(WireError::bad(key, format!("{key:?} = {v} outside [{min}, {max}]")))
        }
        v => Ok(v),
    }
}

/// Optional unsigned-integer parameter with an inclusive validity range.
fn opt_u64(params: &Json, key: &str, min: u64, max: u64) -> Result<Option<u64>, WireError> {
    match opt(params, key, Json::as_u64, "a non-negative integer")? {
        Some(v) if v < min || v > max => {
            Err(WireError::bad(key, format!("{key:?} = {v} outside [{min}, {max}]")))
        }
        v => Ok(v),
    }
}

/// Optional boolean parameter.
fn opt_bool(params: &Json, key: &str) -> Result<Option<bool>, WireError> {
    opt(params, key, Json::as_bool, "a boolean")
}

/// Optional string parameter.
fn opt_str<'a>(params: &'a Json, key: &str) -> Result<Option<&'a str>, WireError> {
    opt(params, key, Json::as_str, "a string")
}
