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
//! one lookup of its endpoint impl, one execution. The six data
//! endpoints are written once each, as `DataEndpoint` impls
//! (`endpoint.rs`); the four cached ones run through [`Router`]'s one
//! generic cached path.

use crate::endpoint::{CachedEndpoint, Caches};
use crate::proto::{DecodeLimits, ErrorCode, RequestBody, WireError};
use implant_core::cosim::CalibrationCache;
use runtime::{Batch, JobOutcome, Json, Pool};
use std::sync::Arc;
use store::{CatchupBudget, Store};

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
    /// An uncached result.
    pub(crate) fn plain(result: Json) -> Self {
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
    pub(crate) pool: Pool,
    pub(crate) calibrations: CalibrationCache,
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
        self.caches.stats()
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
            if self.caches.admit(&ns, planned.key, &value) {
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
        body.data()?.cached()?.resident(&self.caches, key)
    }

    /// The caps this router imposes at decode time.
    pub fn limits(&self) -> DecodeLimits {
        DecodeLimits { mc_trial_cap: self.mc_trial_cap, ..DecodeLimits::default() }
    }

    /// Dispatches one decoded data-plane body to its endpoint impl.
    ///
    /// # Errors
    ///
    /// `bad_request` for the few cross-field checks that need model
    /// state (e.g. a `t_stop_us` that cuts the preset's timeline),
    /// `simulation_failed` when the model fails numerically, `internal`
    /// when it panics, `unknown_endpoint` if a
    /// control-plane body is routed here (the connection answers those
    /// inline).
    pub fn handle_typed(&self, body: &RequestBody) -> Result<Routed, WireError> {
        match body.data() {
            Some(data) => data.execute(self),
            None => Err(WireError {
                code: ErrorCode::UnknownEndpoint,
                field: Some("endpoint".to_string()),
                message: format!(
                    "control endpoint {:?} is answered inline, not routed to the data plane",
                    body.endpoint()
                ),
            }),
        }
    }

    /// The one cached-endpoint path: a one-point pool run against `E`'s
    /// own cache (lookup, compute on a miss, write-through), rendered
    /// with its cache outcome.
    pub(crate) fn serve<E: CachedEndpoint>(&self, p: &E) -> Result<Routed, WireError> {
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
            JobOutcome::Panicked(msg) => Err(WireError::new(
                ErrorCode::Internal,
                format!("{} panicked: {:?}", E::JOB, [(0, msg)]),
            )),
        }
    }
}

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
    body.data()?.cached()?.render_stored(value)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::MontecarloParams;
    use runtime::Artifact;

    fn router() -> Router {
        Router::new(2, 64, 100_000)
    }

    fn params(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    /// Decodes `p` as an `endpoint` body under `r`'s caps and routes it.
    fn route(r: &Router, endpoint: &str, p: &Json) -> Result<Routed, WireError> {
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
        for name in ["health", "metrics", "metrics_v2", "shutdown"] {
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
