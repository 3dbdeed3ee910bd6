//! Endpoint routing: maps a typed request body onto the workspace
//! models and renders the result as JSON.
//!
//! Validation lives one layer down, in [`crate::proto`]: by the time a
//! [`RequestBody`] reaches [`Router::handle_typed`], every parameter
//! has been checked (type, finiteness, range) — the decode step is the
//! trust boundary between socket bytes and the models. Simulation cost
//! is bounded the same way: trial counts, cycle counts and transient
//! horizons all have hard caps, so a single request cannot occupy a
//! worker indefinitely (deadlines handle queueing time; the caps handle
//! service time).
//!
//! [`Router::handle_typed`] is the router's one entry point: one body,
//! one execution.
//!
//! The four cached endpoints are written once each, as `CachedEndpoint`
//! impls, and reached through one table (`ENDPOINTS`).

use crate::endpoint::{CachedEndpoint, Caches};
use crate::proto::{
    CohortParams, DecodeError, DecodeLimits, ErrorCode, Fig11Params, Fig11Preset,
    FullchainParams, MontecarloParams, PatientdayParams, RequestBody, SweepParams,
};
use implant_core::cosim::{CalibrationCache, CosimError};
use implant_core::fullchain::FullChainScenario;
use implant_core::scenario::Fig11Scenario;
use runtime::{Artifact, Batch, JobOutcome, Json, Pool};
use std::sync::Arc;
use store::{CatchupBudget, Store};

pub use crate::proto::DATA_ENDPOINTS;

/// A routed failure: the wire code plus a human-readable message and,
/// when one request field is to blame, its name.
#[derive(Debug, Clone)]
pub struct RouteError {
    /// Error class for the response's `error.code`.
    pub code: ErrorCode,
    /// Offending parameter for the response's `error.field`, when
    /// identifiable.
    pub field: Option<String>,
    /// Diagnostic for `error.message`.
    pub message: String,
}

impl RouteError {
    fn bad_field(field: &str, message: impl Into<String>) -> Self {
        RouteError {
            code: ErrorCode::BadRequest,
            field: Some(field.to_string()),
            message: message.into(),
        }
    }

    fn internal(message: impl Into<String>) -> Self {
        RouteError { code: ErrorCode::Internal, field: None, message: message.into() }
    }

    /// A numerical failure of the model for the request's parameters
    /// (`simulation_failed`); the message keeps the engine's own
    /// diagnostic — the failing domain, `t` and `dt`.
    pub fn simulation_failed(e: impl std::fmt::Display) -> Self {
        RouteError {
            code: ErrorCode::SimulationFailed,
            field: None,
            message: format!("simulation failed: {e}"),
        }
    }
}

/// A co-simulation failure is `simulation_failed`, except a caught
/// domain panic, which stays `internal` like every other panic.
impl From<CosimError> for RouteError {
    fn from(e: CosimError) -> Self {
        match e {
            CosimError::Panicked { .. } => RouteError::internal(format!("simulation failed: {e}")),
            e => RouteError::simulation_failed(e),
        }
    }
}

impl From<DecodeError> for RouteError {
    fn from(e: DecodeError) -> Self {
        RouteError { code: e.code, field: e.field, message: e.message }
    }
}

/// A successful route: the response payload plus the result-cache
/// activity it caused (for the per-endpoint metrics).
#[derive(Debug, Clone)]
pub struct Routed {
    /// The `result` object of the response.
    pub result: Json,
    /// Cache hits this request contributed.
    pub cache_hits: u64,
    /// Cache misses this request contributed.
    pub cache_misses: u64,
}

impl Routed {
    fn plain(result: Json) -> Self {
        Routed { result, cache_hits: 0, cache_misses: 0 }
    }
}

/// What a [`Router::prewarm`] pass accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PrewarmReport {
    /// Keys the catch-up plan selected within budget.
    pub planned: u64,
    /// Planned keys admitted into an endpoint's cache.
    pub admitted: u64,
    /// Assigned keys the budget excluded.
    pub budget_skipped: u64,
    /// Planned keys whose object was missing, corrupt, or of a
    /// namespace this router holds no cache for.
    pub unreadable: u64,
}

/// Shared routing state: the worker pool cached-endpoint computes run
/// on, one bounded result cache per cached endpoint, and the
/// co-simulation calibration tables (fixed capacity, memory only, fresh
/// at every start).
pub struct Router {
    pool: Pool,
    calibrations: CalibrationCache,
    caches: Caches,
    store: Option<Arc<Store>>,
    mc_trial_cap: u64,
}

impl Router {
    /// A router whose caches hold at most `cache_capacity` entries each
    /// and whose simulation pool has `pool_workers` threads.
    pub fn new(pool_workers: usize, cache_capacity: usize, mc_trial_cap: u64) -> Self {
        Self::build(pool_workers, cache_capacity, mc_trial_cap, None)
    }

    /// A router whose caches are backed by the shared artifact tier:
    /// every put writes through to `store`, and a memory miss falls
    /// back to it before recomputing.
    pub fn with_store(
        pool_workers: usize,
        cache_capacity: usize,
        mc_trial_cap: u64,
        store: Arc<Store>,
    ) -> Self {
        Self::build(pool_workers, cache_capacity, mc_trial_cap, Some(store))
    }

    fn build(
        pool_workers: usize,
        cache_capacity: usize,
        mc_trial_cap: u64,
        store: Option<Arc<Store>>,
    ) -> Self {
        Router {
            pool: Pool::new(pool_workers),
            calibrations: CalibrationCache::new(),
            caches: Caches::new(cache_capacity, store.as_ref()),
            store,
            mc_trial_cap,
        }
    }

    /// The shared artifact tier, when one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Total `(hits, misses)` across the result caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        ENDPOINTS
            .iter()
            .map(|e| (e.stats)(&self.caches))
            .fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }

    /// Pre-warms the result caches from the shared tier: plans a
    /// catch-up over the store's manifests for the keys `assign` says
    /// this replica owns (seeded, budget-bounded — see
    /// [`store::catchup`]), loads each planned object, and admits it
    /// into the cache of its namespace. A router without a store
    /// pre-warms nothing.
    pub fn prewarm(
        &self,
        assign: impl Fn(u64) -> bool,
        budget: &CatchupBudget,
        seed: u64,
    ) -> PrewarmReport {
        let Some(shared) = &self.store else { return PrewarmReport::default() };
        let plan = store::plan(shared.as_ref(), assign, seed, budget);
        let mut report = PrewarmReport {
            planned: plan.keys.len() as u64,
            budget_skipped: plan.skipped_keys,
            ..PrewarmReport::default()
        };
        for planned in &plan.keys {
            let Some((ns, _params, value)) = shared.get_object(planned.key) else {
                report.unreadable += 1;
                continue;
            };
            let admitted = ENDPOINTS
                .iter()
                .find(|e| e.namespace == ns)
                .is_some_and(|e| (e.admit)(&self.caches, planned.key, &value));
            if admitted {
                report.admitted += 1;
            } else {
                report.unreadable += 1;
            }
        }
        report
    }

    /// The `result` document a memory-resident cache entry answers
    /// `body` with — rendered `cached: true`, byte-identical to a queued
    /// hit — counting the hit. `key` is the body's route key
    /// ([`RequestBody::route_point`] under [`runtime::cache_key`]).
    /// `None` on a memory miss (the store tier is not consulted) and for
    /// endpoints without a result cache.
    pub fn resident(&self, body: &RequestBody, key: u64) -> Option<Json> {
        ENDPOINTS.iter().find_map(|e| (e.resident)(&self.caches, body, key))
    }

    /// The caps this router imposes at decode time.
    pub fn limits(&self) -> DecodeLimits {
        DecodeLimits { mc_trial_cap: self.mc_trial_cap, ..DecodeLimits::default() }
    }

    /// Dispatches one decoded data-plane body.
    ///
    /// # Errors
    ///
    /// `bad_request` for the few cross-field checks that need model
    /// state (e.g. a `t_stop_us` that cuts the preset's timeline),
    /// `simulation_failed` when the model fails numerically, `internal`
    /// when it panics, `unknown_endpoint` if a
    /// control-plane body is routed here (the connection answers those
    /// inline).
    pub fn handle_typed(&self, body: &RequestBody) -> Result<Routed, RouteError> {
        match body {
            RequestBody::Fig11(p) => self.fig11(p),
            RequestBody::Fullchain(p) => self.fullchain(p),
            _ => ENDPOINTS.iter().find_map(|e| (e.serve)(self, body)).unwrap_or_else(|| {
                Err(RouteError {
                    code: ErrorCode::UnknownEndpoint,
                    field: Some("endpoint".to_string()),
                    message: format!(
                        "control endpoint {:?} is answered inline, not routed to the data plane",
                        body.endpoint()
                    ),
                })
            }),
        }
    }

    /// `fig11`: one transistor-level Fig. 11 transient with caller
    /// overrides, reporting the paper's compliance checks.
    fn fig11(&self, p: &Fig11Params) -> Result<Routed, RouteError> {
        let mut scenario = match p.preset {
            Fig11Preset::Short => Fig11Scenario::shortened(),
            Fig11Preset::Paper => Fig11Scenario::paper(),
        };
        if let Some(v) = p.idle_amplitude {
            scenario.idle_amplitude = v;
        }
        if let Some(v) = p.r_source {
            scenario.r_source = v;
        }
        if let Some(v) = p.r_load {
            scenario.r_load = v;
        }
        if let Some(v) = p.t_stop_us {
            scenario.t_stop = v * 1e-6;
        }
        if let Some(v) = p.max_step_ns {
            scenario.max_step = v * 1e-9;
        }
        // A horizon that cuts into the preset's timeline is a client
        // error, not a failed simulation: answer it as a bad field.
        // `max_step_ns` is the knob for cheap runs, not truncation. The
        // check needs the preset's timeline, so it runs here rather
        // than in decode.
        if let Err(cut) = scenario.check_timeline() {
            return Err(RouteError::bad_field(
                "t_stop_us",
                format!(
                    "\"t_stop_us\" = {:.0} cuts the preset's timeline (needs ≥ {:.0} µs)",
                    cut.t_stop * 1e6,
                    cut.timeline_end * 1e6,
                ),
            ));
        }
        let outcome = if p.cosim {
            scenario.run_cosim_with(&self.pool, &self.calibrations)?.0
        } else {
            scenario.run().map_err(RouteError::simulation_failed)?
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
            ("cosim", Json::Bool(p.cosim)),
        ])))
    }

    /// `fullchain`: steady-state Vo, efficiency and compliance of the
    /// PA→coils→matching→rectifier netlist at a caller-chosen distance.
    fn fullchain(&self, p: &FullchainParams) -> Result<Routed, RouteError> {
        let mut scenario = FullChainScenario::ironic();
        scenario.distance = p.distance_mm * 1e-3;
        if let Some(v) = p.r_load {
            scenario.r_load = v;
        }
        scenario.cycles = p.cycles as usize;
        // Both engines report the same scalar summary, so the response
        // shape is engine-independent (plus the `cosim` marker).
        let (vo_steady, supply_compliant, efficiency, p_load, p_supply) = if p.cosim {
            let o = scenario.run_cosim_with(&self.pool, &self.calibrations)?;
            (o.vo_steady(), o.supply_compliant(), o.efficiency(), o.p_load, o.p_supply)
        } else {
            let o = scenario.run().map_err(RouteError::simulation_failed)?;
            (o.vo_steady(), o.supply_compliant(), o.efficiency(), o.p_load, o.p_supply)
        };
        Ok(Routed::plain(Json::obj(vec![
            ("distance_mm", Json::Num(p.distance_mm)),
            ("cycles", Json::Num(scenario.cycles as f64)),
            ("vo_steady", Json::Num(vo_steady)),
            ("supply_compliant", Json::Bool(supply_compliant)),
            ("efficiency", Json::Num(efficiency)),
            ("p_load_mw", Json::Num(p_load * 1e3)),
            ("p_supply_mw", Json::Num(p_supply * 1e3)),
            ("cosim", Json::Bool(p.cosim)),
        ])))
    }

    /// The one cached-endpoint path: a one-point pool run against `E`'s
    /// own cache (lookup, compute on a miss, write-through), rendered
    /// with its cache outcome.
    fn serve<E: CachedEndpoint>(&self, p: &E) -> Result<Routed, RouteError> {
        let batch = Batch { name: E::NAMESPACE.to_string(), seed: 0, points: vec![p.point()] };
        let run = self.pool.run_cached(&batch, E::cache(&self.caches), |_| p.compute());
        let job = run.results.into_iter().next().expect("one result per point");
        match job.outcome {
            JobOutcome::Ok(value) => Ok(Routed {
                result: p.render(&value, job.from_cache),
                cache_hits: u64::from(job.from_cache),
                cache_misses: u64::from(!job.from_cache),
            }),
            // Formatted as the failure list of a one-point batch.
            JobOutcome::Panicked(msg) => Err(RouteError::internal(format!(
                "{} panicked: {:?}",
                E::JOB,
                [(0, msg)]
            ))),
        }
    }
}

/// One cached endpoint's entry points, type-erased so that all of them
/// sit in one table.
struct Endpoint {
    namespace: &'static str,
    serve: fn(&Router, &RequestBody) -> Option<Result<Routed, RouteError>>,
    render: fn(&RequestBody, &Json) -> Option<Json>,
    resident: fn(&Caches, &RequestBody, u64) -> Option<Json>,
    admit: fn(&Caches, u64, &Json) -> bool,
    stats: fn(&Caches) -> (u64, u64),
}

impl Endpoint {
    const fn of<E: CachedEndpoint>() -> Self {
        Endpoint {
            namespace: E::NAMESPACE,
            serve: |router, body| Some(router.serve(E::of(body)?)),
            render: |body, value| Some(E::of(body)?.render(&E::Value::from_json(value)?, true)),
            resident: |caches, body, key| {
                let p = E::of(body)?;
                Some(p.render(&E::cache(caches).get_resident(key)?, true))
            },
            admit: |caches, key, value| {
                E::Value::from_json(value).map(|v| E::cache(caches).admit(key, v)).is_some()
            },
            stats: |caches| E::cache(caches).stats(),
        }
    }
}

/// The cached endpoints. A new one is a [`CachedEndpoint`] impl plus a
/// row here.
const ENDPOINTS: [Endpoint; 4] = [
    Endpoint::of::<MontecarloParams>(),
    Endpoint::of::<SweepParams>(),
    Endpoint::of::<PatientdayParams>(),
    Endpoint::of::<CohortParams>(),
];

/// Renders the full result document a server would serve for `body`
/// from the raw artifact `value` the shared tier holds under the
/// body's route key — marked `cached: true`, byte-identical to a warm
/// replica's response. `None` when the endpoint has no server-side
/// cache (fig11, fullchain, control plane) or the artifact does not
/// decode as the endpoint's value type.
///
/// This is the read half of hedged reads: a client that knows a
/// request's cache identity can answer it straight from the store
/// without any replica involved.
pub fn render_cached_body(body: &RequestBody, value: &Json) -> Option<Json> {
    ENDPOINTS.iter().find_map(|e| (e.render)(body, value))
}

#[cfg(test)]
mod tests {
    use super::*;
    
    fn router() -> Router {
        Router::new(2, 64, 100_000)
    }

    fn params(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    /// Decodes `p` as an `endpoint` body under `r`'s caps and routes it.
    fn route(r: &Router, endpoint: &str, p: &Json) -> Result<Routed, RouteError> {
        r.handle_typed(&RequestBody::decode(endpoint, p, &r.limits())?)
    }

    #[test]
    fn unknown_endpoint_is_typed() {
        let err = route(&router(), "nope", &params(vec![])).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownEndpoint);
        assert_eq!(err.field.as_deref(), Some("endpoint"));
    }

    #[test]
    fn control_endpoints_do_not_route_through_the_data_plane() {
        let r = router();
        for name in crate::proto::CONTROL_ENDPOINTS {
            let err = route(&r, name, &params(vec![])).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownEndpoint, "{name}");
        }
    }

    #[test]
    fn fig11_and_fullchain_serve_the_cosim_engine() {
        let r = router();
        let mono = route(&r, "fullchain", &params(vec![])).unwrap();
        let co = route(&r, "fullchain", &params(vec![("cosim", Json::Bool(true))])).unwrap();
        assert_eq!(mono.result.get("cosim"), Some(&Json::Bool(false)));
        assert_eq!(co.result.get("cosim"), Some(&Json::Bool(true)));
        let vo = |routed: &Routed| {
            routed.result.get("vo_steady").and_then(Json::as_f64).expect("vo_steady")
        };
        let (m, c) = (vo(&mono), vo(&co));
        assert!((m - c).abs() / m < 0.05, "vo_steady mono {m} vs cosim {c}");
        assert_eq!(
            co.result.get("supply_compliant"),
            mono.result.get("supply_compliant")
        );

        let co = route(&r, "fig11", &params(vec![("cosim", Json::Bool(true))])).unwrap();
        assert_eq!(co.result.get("cosim"), Some(&Json::Bool(true)));
        assert_eq!(co.result.get("downlink_errors"), Some(&Json::Num(0.0)));
        assert_eq!(co.result.get("vo_compliant"), Some(&Json::Bool(true)));
    }

    #[test]
    fn repeated_cosim_identities_reuse_their_calibration() {
        let counter = |name: &str| {
            obs::snapshot()
                .iter()
                .find(|s| s.name == name)
                .map_or(0, |s| s.count)
        };
        let request = |r_load: f64| {
            params(vec![
                ("cosim", Json::Bool(true)),
                ("cycles", Json::Num(60.0)),
                ("r_load", Json::Num(r_load)),
            ])
        };
        let r = router();
        let cold = route(&r, "fullchain", &request(1.5e3)).unwrap();
        let hits = counter("cosim.calibration.hit");
        // Same front-end, different load: the table is reused.
        let warm = route(&r, "fullchain", &request(1.6e3)).unwrap();
        assert!(
            counter("cosim.calibration.hit") > hits,
            "repeat identity missed the cache"
        );
        assert_ne!(
            warm.result, cold.result,
            "the load still changes the answer"
        );
        // A warm answer is the cold answer.
        assert_eq!(
            route(&r, "fullchain", &request(1.5e3)).unwrap().result,
            cold.result
        );
        assert_eq!(
            route(&router(), "fullchain", &request(1.6e3))
                .unwrap()
                .result,
            warm.result
        );
        assert!(obs::prometheus_text().contains("stage=\"cosim.calibration.hit\""));
    }

    #[test]
    fn montecarlo_is_deterministic_and_caches() {
        let r = router();
        let p = params(vec![
            ("scale", Json::Num(1.0)),
            ("trials", Json::Num(300.0)),
            ("seed", Json::Num(42.0)),
        ]);
        let first = route(&r, "montecarlo", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        assert_eq!(first.result.get("cached"), Some(&Json::Bool(false)));
        let second = route(&r, "montecarlo", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("cached"), Some(&Json::Bool(true)));
        // Identical payloads apart from the cache marker.
        assert_eq!(
            first.result.get("vo_min_worst"),
            second.result.get("vo_min_worst")
        );
        assert_eq!(first.result.get("passing"), second.result.get("passing"));
        // A fresh router at the same seed reproduces bit-for-bit.
        let other = route(&router(), "montecarlo", &p).unwrap();
        assert_eq!(
            first.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
            other.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
        );
    }

    #[test]
    fn decoded_and_constructed_bodies_agree() {
        let r = router();
        let raw = params(vec![
            ("scale", Json::Num(1.0)),
            ("trials", Json::Num(200.0)),
            ("seed", Json::Num(7.0)),
        ]);
        let via_decode = route(&r, "montecarlo", &raw).unwrap();
        let body = RequestBody::Montecarlo(MontecarloParams {
            scale: 1.0,
            trials: 200,
            seed: Some(7),
        });
        let via_typed = r.handle_typed(&body).unwrap();
        assert_eq!(
            via_decode.result.get("vo_min_mean"),
            via_typed.result.get("vo_min_mean")
        );
        assert_eq!(via_decode.result.get("passing"), via_typed.result.get("passing"));
    }

    #[test]
    fn montecarlo_trial_cap_is_enforced() {
        let r = Router::new(1, 8, 1000);
        let err =
            route(&r, "montecarlo", &params(vec![("trials", Json::Num(5000.0))])).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("trials"), "{}", err.message);
    }

    #[test]
    fn sweep_decreases_with_distance_and_caches_whole_requests() {
        let r = router();
        let p = params(vec![
            ("d_min_mm", Json::Num(2.0)),
            ("d_max_mm", Json::Num(20.0)),
            ("steps", Json::Num(4.0)),
        ]);
        let routed = route(&r, "sweep", &p).unwrap();
        // The whole grid is one cache entry under the route_point
        // identity (so HRW re-homing keeps sweeps warm).
        assert_eq!(routed.cache_misses, 1);
        assert_eq!(routed.result.get("cached"), Some(&Json::Bool(false)));
        let powers = routed.result.get("p_rx_mw").and_then(Json::as_arr).unwrap();
        let vals: Vec<f64> = powers.iter().map(|p| p.as_f64().unwrap()).collect();
        assert_eq!(vals.len(), 4);
        assert!(vals.windows(2).all(|w| w[1] < w[0]), "monotone falloff: {vals:?}");
        // Second identical request is served fully from cache.
        let again = route(&r, "sweep", &p).unwrap();
        assert_eq!(again.cache_hits, 1);
        assert_eq!(again.cache_misses, 0);
        assert_eq!(again.result.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(again.result.get("p_rx_mw"), routed.result.get("p_rx_mw"));
    }

    #[test]
    fn patientday_is_deterministic_and_caches() {
        let r = router();
        let p = params(vec![
            ("seed", Json::Num(42.0)),
            ("hours", Json::Num(6.0)),
            ("profile", Json::Str("sensing".into())),
        ]);
        let first = route(&r, "patientday", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        assert_eq!(first.result.get("cached"), Some(&Json::Bool(false)));
        let summary = first.result.get("summary").unwrap();
        assert!(summary.get("end_h").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(summary.get("thermal_ok"), Some(&Json::Bool(true)));
        let second = route(&r, "patientday", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(second.result.get("summary"), first.result.get("summary"));
        // A fresh router reproduces bit-for-bit.
        let other = route(&router(), "patientday", &p).unwrap();
        assert_eq!(other.result.get("summary"), first.result.get("summary"));
    }

    #[test]
    fn patientday_reproduces_the_battery_life_ordering() {
        // The data plane serves managed days, so lives show up as the
        // hour low-power management engages: idle > sensing.
        let r = router();
        let day = |profile: &str| {
            let p = params(vec![
                ("seed", Json::Num(1.0)),
                ("battery_mah", Json::Num(30.0)),
                ("profile", Json::Str(profile.into())),
            ]);
            route(&r, "patientday", &p).unwrap().result
        };
        let idle = day("idle");
        let sensing = day("sensing");
        let lp = |r: &Json| {
            r.get("summary").and_then(|s| s.get("low_power_h")).and_then(Json::as_f64)
        };
        let sensing_lp = lp(&sensing).expect("30 mAh sensing day hits low power");
        if let Some(idle_lp) = lp(&idle) {
            assert!(idle_lp > sensing_lp, "idle {idle_lp} h vs sensing {sensing_lp} h");
        }
    }

    #[test]
    fn cohort_is_deterministic_and_caches() {
        let r = router();
        let p = params(vec![
            ("seed", Json::Num(2013.0)),
            ("patients", Json::Num(8.0)),
            ("hours", Json::Num(4.0)),
        ]);
        let first = route(&r, "cohort", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        let report = first.result.get("report").unwrap();
        assert_eq!(report.get("patients").and_then(Json::as_u64), Some(8));
        let second = route(&r, "cohort", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("digest"), first.result.get("digest"));
        // The served report round-trips into the scenario type and its
        // digest matches a local run — the cluster-campaign contract.
        let parsed = scenario::CohortReport::from_json(report).expect("report parses");
        let local = scenario::Cohort {
            seed: 2013,
            patients: 8,
            offset: 0,
            hours: 4.0,
            enzyme: scenario::EnzymeChoice::Mixed,
            duty: (1.0, 1.0),
        }
        .run_serial();
        assert_eq!(parsed, local);
        assert_eq!(
            first.result.get("digest").and_then(Json::as_str),
            Some(format!("{:016x}", local.digest()).as_str())
        );
    }

    #[test]
    fn cohort_patient_hours_cap_is_joint() {
        let r = router();
        // 5000 patients alone is legal, 48 h alone is legal; together
        // they exceed the patient-hours budget.
        let err = route(
            &r,
            "cohort",
            &params(vec![("patients", Json::Num(5000.0)), ("hours", Json::Num(48.0))]),
        )
        .unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert_eq!(err.field.as_deref(), Some("patients"));
        assert!(err.message.contains("patient-hours"), "{}", err.message);
    }

    fn store_scratch(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("server-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn stored_router(dir: &std::path::Path, replica: &str) -> Router {
        Router::with_store(2, 64, 100_000, Arc::new(Store::open(dir, replica).unwrap()))
    }

    #[test]
    fn routers_share_warm_results_through_the_store() {
        let dir = store_scratch("share");
        let p = params(vec![
            ("scale", Json::Num(1.0)),
            ("trials", Json::Num(200.0)),
            ("seed", Json::Num(17.0)),
        ]);
        let warm = route(&stored_router(&dir, "r0"), "montecarlo", &p).unwrap();
        assert_eq!(warm.result.get("cached"), Some(&Json::Bool(false)));
        // A different router (cold memory, same store) serves the same
        // request as a cache hit — zero recompute.
        let cold = route(&stored_router(&dir, "r1"), "montecarlo", &p).unwrap();
        assert_eq!(cold.cache_hits, 1, "the tier must satisfy the lookup");
        assert_eq!(cold.cache_misses, 0);
        assert_eq!(cold.result.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(cold.result.get("vo_min_mean"), warm.result.get("vo_min_mean"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_cached_body_reproduces_the_served_document() {
        let dir = store_scratch("render");
        let r = stored_router(&dir, "r0");
        for (endpoint, p) in [
            (
                "montecarlo",
                params(vec![("trials", Json::Num(150.0)), ("seed", Json::Num(3.0))]),
            ),
            ("sweep", params(vec![("steps", Json::Num(3.0))])),
            ("patientday", params(vec![("seed", Json::Num(5.0)), ("hours", Json::Num(4.0))])),
            ("cohort", params(vec![("patients", Json::Num(4.0)), ("hours", Json::Num(3.0))])),
        ] {
            let _ = route(&r, endpoint, &p).unwrap();
            let served = route(&r, endpoint, &p).unwrap(); // warm → cached: true
            assert_eq!(served.result.get("cached"), Some(&Json::Bool(true)), "{endpoint}");
            let body = RequestBody::decode(endpoint, &p, &r.limits()).unwrap();
            let (ns, point) = body.route_point().unwrap();
            let key = runtime::cache_key(ns, &point);
            let value = r.store().unwrap().get(key).expect("artifact must be in the store");
            let rendered = render_cached_body(&body, &value).expect("endpoint renders");
            assert_eq!(rendered, served.result, "{endpoint}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn render_cached_body_rejects_uncached_endpoints_and_bad_values() {
        let limits = DecodeLimits::default();
        let fig11 = RequestBody::decode("fig11", &params(vec![]), &limits).unwrap();
        assert_eq!(render_cached_body(&fig11, &Json::Num(1.0)), None);
        let mc = RequestBody::decode("montecarlo", &params(vec![]), &limits).unwrap();
        assert_eq!(render_cached_body(&mc, &Json::Str("not a report".into())), None);
    }

    #[test]
    fn prewarm_admits_assigned_keys_and_serves_them_without_recompute() {
        let dir = store_scratch("prewarm");
        let mc = params(vec![("trials", Json::Num(120.0)), ("seed", Json::Num(8.0))]);
        let sweep = params(vec![("steps", Json::Num(4.0))]);
        let day = params(vec![("seed", Json::Num(6.0)), ("hours", Json::Num(2.0))]);
        let shard = params(vec![("patients", Json::Num(3.0)), ("hours", Json::Num(2.0))]);
        let requests =
            [("montecarlo", &mc), ("sweep", &sweep), ("patientday", &day), ("cohort", &shard)];
        {
            let writer = stored_router(&dir, "r0");
            for (endpoint, p) in requests {
                route(&writer, endpoint, p).unwrap();
            }
        }
        let joiner = stored_router(&dir, "r1");
        let report = joiner.prewarm(|_| true, &CatchupBudget::default(), 42);
        assert_eq!(report.planned, 4);
        assert_eq!(report.admitted, 4);
        assert_eq!(report.unreadable, 0);
        assert_eq!(report.budget_skipped, 0);
        // Every endpoint now serves as a pure cache hit.
        for (endpoint, p) in requests {
            let routed = route(&joiner, endpoint, p).unwrap();
            assert_eq!(routed.cache_hits, 1, "{endpoint} must hit the pre-warmed cache");
            assert_eq!(routed.cache_misses, 0, "{endpoint}");
            assert_eq!(routed.result.get("cached"), Some(&Json::Bool(true)), "{endpoint}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prewarm_respects_assignment_and_budget() {
        let dir = store_scratch("prewarm-budget");
        {
            let writer = stored_router(&dir, "r0");
            for seed in 0..4 {
                route(
                    &writer,
                    "montecarlo",
                    &params(vec![("trials", Json::Num(60.0)), ("seed", Json::Num(seed as f64))]),
                )
                .unwrap();
            }
        }
        let joiner = stored_router(&dir, "r1");
        let none = joiner.prewarm(|_| false, &CatchupBudget::default(), 1);
        assert_eq!(none.planned, 0, "nothing assigned, nothing planned");
        let budget = CatchupBudget { max_keys: 2, ..CatchupBudget::default() };
        let some = joiner.prewarm(|_| true, &budget, 1);
        assert_eq!(some.planned, 2);
        assert_eq!(some.admitted, 2);
        assert_eq!(some.budget_skipped, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn prewarm_without_a_store_is_a_no_op() {
        let report = router().prewarm(|_| true, &CatchupBudget::default(), 0);
        assert_eq!(report, PrewarmReport::default());
        assert!(router().store().is_none());
    }

    #[test]
    fn a_cut_timeline_is_refused_with_its_wire_message() {
        for cosim in [false, true] {
            let p = params(vec![("t_stop_us", Json::Num(40.0)), ("cosim", Json::Bool(cosim))]);
            let err = route(&router(), "fig11", &p).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert_eq!(err.field.as_deref(), Some("t_stop_us"));
            assert_eq!(
                err.message,
                "\"t_stop_us\" = 40 cuts the preset's timeline (needs ≥ 150 µs)"
            );
        }
    }

    #[test]
    fn bad_parameters_name_the_offender() {
        let r = router();
        for (endpoint, p, needle) in [
            ("sweep", params(vec![("medium", Json::Num(1.0))]), "medium"),
            ("sweep", params(vec![("steps", Json::Num(1.0))]), "steps"),
            (
                "sweep",
                params(vec![("d_min_mm", Json::Num(20.0)), ("d_max_mm", Json::Num(2.0))]),
                "d_max_mm",
            ),
            ("montecarlo", params(vec![("scale", Json::Str("x".into()))]), "scale"),
            ("fig11", params(vec![("preset", Json::Str("weird".into()))]), "preset"),
            ("fig11", params(vec![("t_stop_us", Json::Num(1e9))]), "t_stop_us"),
            ("fig11", params(vec![("t_stop_us", Json::Num(40.0))]), "t_stop_us"),
            ("fullchain", params(vec![("cycles", Json::Num(5e6))]), "cycles"),
            ("fullchain", params(vec![("distance_mm", Json::Num(f64::NAN))]), "distance_mm"),
            ("patientday", params(vec![("profile", Json::Str("pure".into()))]), "profile"),
            ("patientday", params(vec![("tissue", Json::Str("bone".into()))]), "tissue"),
            ("patientday", params(vec![("hours", Json::Num(100.0))]), "hours"),
            ("cohort", params(vec![("enzyme", Json::Str("lox".into()))]), "enzyme"),
            ("cohort", params(vec![("patients", Json::Num(0.0))]), "patients"),
        ] {
            let err = route(&r, endpoint, &p).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{endpoint}: {}", err.message);
            assert!(err.message.contains(needle), "{endpoint}: {}", err.message);
            assert_eq!(err.field.as_deref(), Some(needle), "{endpoint}: {}", err.message);
        }
    }
}
