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
//! [`Router::handle`] remains as the v1 adapter — the original
//! stringly-typed entry point, now a thin decode-then-dispatch shim —
//! so pre-v2 callers and tests keep their exact behaviour.

use crate::proto::{
    CohortParams, DecodeError, DecodeLimits, ErrorCode, Fig11Params, Fig11Preset,
    FullchainParams, MontecarloParams, PatientdayParams, RequestBody, SweepParams,
};
use coils::tissue::TissueStack;
use implant_core::cosim::CalibrationCache;
use implant_core::fullchain::FullChainScenario;
use implant_core::montecarlo::{MonteCarloStudy, VariationModel, YieldReport};
use implant_core::scenario::Fig11Scenario;
use link::budget::PowerBudget;
use runtime::{Artifact, Batch, BatchRun, Json, ParamPoint, Pool, ResultCache};
use scenario::{CohortReport, DaySummary};
use std::collections::HashMap;
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
    /// Planned keys admitted into a typed cache.
    pub admitted: u64,
    /// Assigned keys the budget excluded.
    pub budget_skipped: u64,
    /// Planned keys whose object was missing, corrupt, or of a
    /// namespace this router holds no cache for.
    pub unreadable: u64,
}

/// Shared routing state: the worker pool the Monte Carlo batches run
/// on, the bounded result caches, and the co-simulation calibration
/// tables (fixed capacity, memory only, fresh at every start).
pub struct Router {
    pool: Pool,
    calibrations: CalibrationCache,
    mc_cache: ResultCache<YieldReport>,
    sweep_cache: ResultCache<Vec<f64>>,
    day_cache: ResultCache<DaySummary>,
    cohort_cache: ResultCache<CohortReport>,
    store: Option<Arc<Store>>,
    mc_trial_cap: u64,
}

impl Router {
    /// A router whose caches hold at most `cache_capacity` entries each
    /// and whose Monte Carlo batches run on `pool_workers` threads.
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
        fn tiered<V: Artifact + Clone>(
            capacity: usize,
            store: &Option<Arc<Store>>,
        ) -> ResultCache<V> {
            let cache = ResultCache::bounded(capacity);
            match store {
                Some(s) => cache.with_tier(s.clone()),
                None => cache,
            }
        }
        Router {
            pool: Pool::new(pool_workers),
            calibrations: CalibrationCache::new(),
            mc_cache: tiered(cache_capacity, &store),
            sweep_cache: tiered(cache_capacity, &store),
            day_cache: tiered(cache_capacity, &store),
            cohort_cache: tiered(cache_capacity, &store),
            store,
            mc_trial_cap,
        }
    }

    /// The shared artifact tier, when one is attached.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// Total `(hits, misses)` across the typed result caches.
    pub fn cache_stats(&self) -> (u64, u64) {
        let sums = [
            self.mc_cache.stats(),
            self.sweep_cache.stats(),
            self.day_cache.stats(),
            self.cohort_cache.stats(),
        ];
        sums.iter().fold((0, 0), |(h, m), (sh, sm)| (h + sh, m + sm))
    }

    /// Pre-warms the typed caches from the shared tier: plans a
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
            let admitted = match ns.as_str() {
                "server-montecarlo" => YieldReport::from_json(&value)
                    .map(|v| self.mc_cache.admit(planned.key, v))
                    .is_some(),
                "server-sweep" => Vec::<f64>::from_json(&value)
                    .map(|v| self.sweep_cache.admit(planned.key, v))
                    .is_some(),
                "server-patientday" => DaySummary::from_json(&value)
                    .map(|v| self.day_cache.admit(planned.key, v))
                    .is_some(),
                "server-cohort" => CohortReport::from_json(&value)
                    .map(|v| self.cohort_cache.admit(planned.key, v))
                    .is_some(),
                _ => false,
            };
            if admitted {
                report.admitted += 1;
            } else {
                report.unreadable += 1;
            }
        }
        report
    }

    /// The caps this router imposes at decode time.
    pub fn limits(&self) -> DecodeLimits {
        DecodeLimits { mc_trial_cap: self.mc_trial_cap, ..DecodeLimits::default() }
    }

    /// Dispatches one data-plane request from its raw `params` — the v1
    /// adapter: decodes into a typed body, then routes it.
    ///
    /// # Errors
    ///
    /// `bad_request` on invalid parameters, `unknown_endpoint` on an
    /// unrouted (or control-plane) name, `internal` when the model
    /// itself fails.
    pub fn handle(&self, endpoint: &str, params: &Json) -> Result<Routed, RouteError> {
        let body = RequestBody::decode(endpoint, params, &self.limits())?;
        if body.is_control() {
            return Err(RouteError {
                code: ErrorCode::UnknownEndpoint,
                field: Some("endpoint".to_string()),
                message: format!(
                    "no endpoint {endpoint:?} (data endpoints: {DATA_ENDPOINTS:?}; control endpoints are answered inline)"
                ),
            });
        }
        self.handle_typed(&body)
    }

    /// Dispatches one decoded data-plane body.
    ///
    /// # Errors
    ///
    /// `bad_request` for the few cross-field checks that need model
    /// state (e.g. a `t_stop_us` that cuts the preset's timeline),
    /// `internal` when the model fails, `unknown_endpoint` if a
    /// control-plane body is routed here (the connection answers those
    /// inline).
    pub fn handle_typed(&self, body: &RequestBody) -> Result<Routed, RouteError> {
        match body {
            RequestBody::Fig11(p) => self.fig11(p),
            RequestBody::Fullchain(p) => self.fullchain(p),
            RequestBody::Montecarlo(p) => self.montecarlo(p),
            RequestBody::Sweep(p) => self.sweep(p),
            RequestBody::Patientday(p) => self.patientday(p),
            RequestBody::Cohort(p) => self.cohort(p),
            control => Err(RouteError {
                code: ErrorCode::UnknownEndpoint,
                field: Some("endpoint".to_string()),
                message: format!(
                    "control endpoint {:?} is answered inline, not routed to the data plane",
                    control.endpoint()
                ),
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
        // The outcome evaluates waveform windows up to the end of the
        // uplink burst; a horizon that cuts into the timeline would
        // leave them empty (a panic, not a result). `max_step_ns` is
        // the knob for cheap runs, not truncation. This check needs the
        // preset's timeline, so it lives here rather than in decode.
        let timeline_end =
            scenario.uplink_start + scenario.uplink_bits.len() as f64 / scenario.uplink_rate;
        // 1 ns slack: the µs→s conversions are not exact in binary.
        if scenario.t_stop + 1e-9 < timeline_end {
            return Err(RouteError::bad_field(
                "t_stop_us",
                format!(
                    "\"t_stop_us\" = {:.0} cuts the preset's timeline (needs ≥ {:.0} µs)",
                    scenario.t_stop * 1e6,
                    timeline_end * 1e6,
                ),
            ));
        }
        let outcome = if p.cosim {
            scenario
                .run_cosim_with(&self.pool, &self.calibrations)
                .map_err(|e| RouteError::internal(format!("simulation failed: {e}")))?
                .0
        } else {
            scenario.run().map_err(|e| RouteError::internal(format!("simulation failed: {e}")))?
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
            let o = scenario
                .run_cosim_with(&self.pool, &self.calibrations)
                .map_err(|e| RouteError::internal(format!("simulation failed: {e}")))?;
            (o.vo_steady(), o.supply_compliant(), o.efficiency(), o.p_load, o.p_supply)
        } else {
            let o = scenario
                .run()
                .map_err(|e| RouteError::internal(format!("simulation failed: {e}")))?;
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

    /// `montecarlo`: parametric yield at a requested mismatch level,
    /// served from the bounded result cache when the same
    /// (scale, trials, seed) point was already computed.
    fn montecarlo(&self, p: &MontecarloParams) -> Result<Routed, RouteError> {
        // One request is a merged batch of one; see `montecarlo_many`
        // for the study construction and determinism argument.
        self.montecarlo_many(&[p]).pop().expect("one result per request")
    }

    /// Cross-request batched `montecarlo`: many requests' studies run
    /// as one shared pool batch, deduplicated by cache key, with
    /// results bit-identical to calling [`Router::handle_typed`] once
    /// per request in order. Each study draws only from its own
    /// seed-derived streams (never the pool's per-job RNG), so the
    /// merge changes scheduling, not arithmetic.
    ///
    /// Result documents map back occurrence-wise: the first request of
    /// a duplicate group reports the actual cache outcome; later
    /// occurrences observe the value as a hit, exactly as they would
    /// have running sequentially.
    pub fn montecarlo_many(
        &self,
        ps: &[&MontecarloParams],
    ) -> Vec<Result<Routed, RouteError>> {
        struct Slot {
            study: MonteCarloStudy,
            trials: u64,
        }
        if ps.is_empty() {
            return Vec::new();
        }
        let mut slots: Vec<Slot> = Vec::new();
        let mut points: Vec<ParamPoint> = Vec::new();
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        // (slot, is_first_occurrence) per request, in input order.
        let mut mapping: Vec<(usize, bool)> = Vec::with_capacity(ps.len());
        for p in ps {
            let mut study = MonteCarloStudy::ironic();
            if let Some(seed) = p.seed {
                study.seed = seed;
            }
            study.variation = VariationModel::typical_018um().scaled(p.scale);
            let point = ParamPoint::new()
                .with("scale", p.scale)
                .with("trials", p.trials)
                .with("seed", study.seed);
            let key = runtime::cache_key("server-montecarlo", &point);
            match by_key.get(&key) {
                Some(&slot) => mapping.push((slot, false)),
                None => {
                    let slot = slots.len();
                    by_key.insert(key, slot);
                    mapping.push((slot, true));
                    slots.push(Slot { study, trials: p.trials });
                    points.push(point);
                }
            }
        }
        let mut builder =
            Batch::builder("server-montecarlo").seed(slots[0].study.seed);
        for point in points {
            builder = builder.point(point);
        }
        let batch = builder.build();
        let run = self.pool.run_cached(&batch, &self.mc_cache, |ctx| {
            let slot = &slots[ctx.index];
            slot.study.run_serial(slot.trials as usize)
        });
        ps.iter()
            .zip(mapping)
            .map(|(p, (slot, first))| {
                let report = run.value(slot).ok_or_else(|| {
                    let msg = panic_message(&run, slot);
                    RouteError::internal(format!("study panicked: {:?}", vec![(0usize, msg)]))
                })?;
                let (hits, misses, cached) = occurrence_cache_counts(&run, slot, first);
                Ok(Routed {
                    result: mc_result(p.scale, slots[slot].study.seed, report, cached),
                    cache_hits: hits,
                    cache_misses: misses,
                })
            })
            .collect()
    }

    /// Cross-request batched `sweep` — same merge contract as
    /// [`Router::montecarlo_many`]: deduplicated by the requests'
    /// [`RequestBody::route_point`] identity, bit-identical to
    /// per-request execution, occurrence-wise cache accounting.
    pub fn sweep_many(&self, ps: &[&SweepParams]) -> Vec<Result<Routed, RouteError>> {
        struct Slot {
            budget: PowerBudget,
            distances: Vec<f64>,
        }
        if ps.is_empty() {
            return Vec::new();
        }
        let mut slots: Vec<Slot> = Vec::new();
        let mut points: Vec<ParamPoint> = Vec::new();
        let mut by_key: HashMap<u64, usize> = HashMap::new();
        let mut mapping: Vec<(usize, bool)> = Vec::with_capacity(ps.len());
        let mut ns = "server-sweep";
        for p in ps {
            let budget = match p.medium {
                crate::proto::SweepMedium::Air => PowerBudget::ironic_air(),
                crate::proto::SweepMedium::Sirloin => {
                    PowerBudget::ironic_air().with_tissue(TissueStack::sirloin_17mm())
                }
            };
            let distances = sweep_distances(p);
            let (point_ns, point) =
                RequestBody::Sweep((*p).clone()).route_point().expect("sweep is data-plane");
            ns = point_ns;
            let key = runtime::cache_key(point_ns, &point);
            match by_key.get(&key) {
                Some(&slot) => mapping.push((slot, false)),
                None => {
                    let slot = slots.len();
                    by_key.insert(key, slot);
                    mapping.push((slot, true));
                    slots.push(Slot { budget, distances });
                    points.push(point);
                }
            }
        }
        let mut builder = Batch::builder(ns);
        for point in points {
            builder = builder.point(point);
        }
        let batch = builder.build();
        let run = self.pool.run_cached(&batch, &self.sweep_cache, |ctx| {
            let slot = &slots[ctx.index];
            slot.distances
                .iter()
                .map(|&d| slot.budget.received_power(d * 1e-3))
                .collect::<Vec<f64>>()
        });
        ps.iter()
            .zip(mapping)
            .map(|(p, (slot, first))| {
                let powers = run.value(slot).ok_or_else(|| {
                    let msg = panic_message(&run, slot);
                    RouteError::internal(format!("sweep panicked: {:?}", vec![(0usize, msg)]))
                })?;
                let (hits, misses, cached) = occurrence_cache_counts(&run, slot, first);
                Ok(Routed {
                    result: sweep_result(p, powers, cached),
                    cache_hits: hits,
                    cache_misses: misses,
                })
            })
            .collect()
    }

    /// `sweep`: received power over a distance grid in air or through
    /// the sirloin tissue stack. The whole request is one cache entry
    /// whose point is exactly [`RequestBody::route_point`] — the same
    /// identity the cluster hashes for placement — so a re-homed sweep
    /// lands on a replica that already holds the grid.
    fn sweep(&self, p: &SweepParams) -> Result<Routed, RouteError> {
        // One request is a merged batch of one; see `sweep_many` for
        // the merge contract.
        self.sweep_many(&[p]).pop().expect("one result per request")
    }

    /// `patientday`: one seeded day on the patch, served as its
    /// [`DaySummary`]. Cached under the request's own
    /// [`RequestBody::route_point`] identity.
    fn patientday(&self, p: &PatientdayParams) -> Result<Routed, RouteError> {
        let (ns, point) =
            RequestBody::Patientday(p.clone()).route_point().expect("patientday is data-plane");
        let day = p.to_day();
        let batch = Batch::builder(ns).seed(p.seed).point(point).build();
        let run = self.pool.run_cached(&batch, &self.day_cache, |_ctx| {
            // One job = one whole trace; the day seeds its own xoshiro
            // stream, so the summary is identical however the request
            // lands on workers.
            day.run().summary()
        });
        let summary = run
            .value(0)
            .ok_or_else(|| RouteError::internal(format!("day panicked: {:?}", run.failures())))?;
        Ok(Routed {
            result: day_result(p, summary, run.metrics.cache_hits > 0),
            cache_hits: run.metrics.cache_hits as u64,
            cache_misses: run.metrics.cache_misses as u64,
        })
    }

    /// `cohort`: one shard of a virtual-patient campaign, folded to its
    /// exactly-mergeable [`CohortReport`]. Cached under the request's
    /// own [`RequestBody::route_point`] identity, so shard repeats and
    /// cluster re-homes hit warm.
    fn cohort(&self, p: &CohortParams) -> Result<Routed, RouteError> {
        let (ns, point) =
            RequestBody::Cohort(p.clone()).route_point().expect("cohort is data-plane");
        let cohort = p.to_cohort();
        let batch = Batch::builder(ns).seed(p.seed).point(point).build();
        let run = self.pool.run_cached(&batch, &self.cohort_cache, |_ctx| {
            // One job = one whole shard, folded in patient order.
            // Patient streams derive from (seed, offset + i), so the
            // report is bit-identical to any other execution plan.
            cohort.run_serial()
        });
        let report = run
            .value(0)
            .ok_or_else(|| RouteError::internal(format!("shard panicked: {:?}", run.failures())))?;
        Ok(Routed {
            result: cohort_result(p, report, run.metrics.cache_hits > 0),
            cache_hits: run.metrics.cache_hits as u64,
            cache_misses: run.metrics.cache_misses as u64,
        })
    }
}

/// The panic report of one slot in a merged batch, formatted so the
/// resulting `internal` message is byte-identical to what the same
/// request would have produced as a single-point batch (`[(0, "…")]`).
fn panic_message<R>(run: &BatchRun<R>, slot: usize) -> String {
    run.failures()
        .iter()
        .find(|(i, _)| *i == slot)
        .map(|(_, msg)| (*msg).to_string())
        .unwrap_or_default()
}

/// Occurrence-wise `(cache_hits, cache_misses, cached)` for one request
/// of a merged batch: the first occurrence of a point reports the pool
/// run's actual cache outcome; later occurrences observe the value the
/// first one computed — a hit, exactly as sequential execution would
/// report.
fn occurrence_cache_counts<R>(run: &BatchRun<R>, slot: usize, first: bool) -> (u64, u64, bool) {
    if first && !run.results[slot].from_cache {
        (0, 1, false)
    } else {
        (1, 0, true)
    }
}

/// `montecarlo` result document from its cached value type.
fn mc_result(scale: f64, seed: u64, report: &YieldReport, cached: bool) -> Json {
    Json::obj(vec![
        ("scale", Json::Num(scale)),
        ("trials", Json::Num(report.trials as f64)),
        ("seed", Json::Num(seed as f64)),
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

/// The distance grid a sweep request describes (derived, not cached —
/// it is a pure function of the parameters).
fn sweep_distances(p: &SweepParams) -> Vec<f64> {
    let steps = p.steps as usize;
    let span = p.d_max_mm - p.d_min_mm;
    (0..steps).map(|i| p.d_min_mm + span * i as f64 / (steps - 1) as f64).collect()
}

/// `sweep` result document from its cached value type.
fn sweep_result(p: &SweepParams, powers: &[f64], cached: bool) -> Json {
    let distances = sweep_distances(p);
    Json::obj(vec![
        ("medium", Json::Str(p.medium.as_str().to_string())),
        ("distances_mm", Json::Arr(distances.iter().copied().map(Json::Num).collect())),
        ("p_rx_mw", Json::Arr(powers.iter().map(|&w| Json::Num(w * 1e3)).collect())),
        ("cached", Json::Bool(cached)),
    ])
}

/// `patientday` result document from its cached value type.
fn day_result(p: &PatientdayParams, summary: &DaySummary, cached: bool) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(p.seed as f64)),
        ("profile", Json::Str(p.profile.as_str().to_string())),
        ("hours", Json::Num(p.hours)),
        ("summary", summary.to_json()),
        ("cached", Json::Bool(cached)),
    ])
}

/// `cohort` result document from its cached value type.
fn cohort_result(p: &CohortParams, report: &CohortReport, cached: bool) -> Json {
    Json::obj(vec![
        ("seed", Json::Num(p.seed as f64)),
        ("offset", Json::Num(p.offset as f64)),
        ("enzyme", Json::Str(p.enzyme.as_str().to_string())),
        ("mean_life_h", Json::Num(report.mean_life_h())),
        ("mean_p_rx_mw", Json::Num(report.mean_p_rx_mw())),
        ("digest", Json::Str(format!("{:016x}", report.digest()))),
        ("report", report.to_json()),
        ("cached", Json::Bool(cached)),
    ])
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
    match body {
        RequestBody::Montecarlo(p) => {
            let report = YieldReport::from_json(value)?;
            let seed = p.seed.unwrap_or(MonteCarloStudy::ironic().seed);
            Some(mc_result(p.scale, seed, &report, true))
        }
        RequestBody::Sweep(p) => Some(sweep_result(p, &Vec::<f64>::from_json(value)?, true)),
        RequestBody::Patientday(p) => Some(day_result(p, &DaySummary::from_json(value)?, true)),
        RequestBody::Cohort(p) => Some(cohort_result(p, &CohortReport::from_json(value)?, true)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::SweepMedium;

    fn router() -> Router {
        Router::new(2, 64, 100_000)
    }

    fn params(pairs: Vec<(&str, Json)>) -> Json {
        Json::obj(pairs)
    }

    #[test]
    fn unknown_endpoint_is_typed() {
        let err = router().handle("nope", &params(vec![])).unwrap_err();
        assert_eq!(err.code, ErrorCode::UnknownEndpoint);
        assert_eq!(err.field.as_deref(), Some("endpoint"));
    }

    #[test]
    fn control_endpoints_do_not_route_through_the_data_plane() {
        let r = router();
        for name in crate::proto::CONTROL_ENDPOINTS {
            let err = r.handle(name, &params(vec![])).unwrap_err();
            assert_eq!(err.code, ErrorCode::UnknownEndpoint, "{name}");
        }
    }

    #[test]
    fn fig11_and_fullchain_serve_the_cosim_engine() {
        let r = router();
        let mono = r.handle("fullchain", &params(vec![])).unwrap();
        let co = r.handle("fullchain", &params(vec![("cosim", Json::Bool(true))])).unwrap();
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

        let co = r.handle("fig11", &params(vec![("cosim", Json::Bool(true))])).unwrap();
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
        let cold = r.handle("fullchain", &request(1.5e3)).unwrap();
        let hits = counter("cosim.calibration.hit");
        // Same front-end, different load: the table is reused.
        let warm = r.handle("fullchain", &request(1.6e3)).unwrap();
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
            r.handle("fullchain", &request(1.5e3)).unwrap().result,
            cold.result
        );
        assert_eq!(
            router()
                .handle("fullchain", &request(1.6e3))
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
        let first = r.handle("montecarlo", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        assert_eq!(first.result.get("cached"), Some(&Json::Bool(false)));
        let second = r.handle("montecarlo", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("cached"), Some(&Json::Bool(true)));
        // Identical payloads apart from the cache marker.
        assert_eq!(
            first.result.get("vo_min_worst"),
            second.result.get("vo_min_worst")
        );
        assert_eq!(first.result.get("passing"), second.result.get("passing"));
        // A fresh router at the same seed reproduces bit-for-bit.
        let other = router().handle("montecarlo", &p).unwrap();
        assert_eq!(
            first.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
            other.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
        );
    }

    #[test]
    fn typed_and_stringly_entry_points_agree() {
        let r = router();
        let raw = params(vec![
            ("scale", Json::Num(1.0)),
            ("trials", Json::Num(200.0)),
            ("seed", Json::Num(7.0)),
        ]);
        let via_adapter = r.handle("montecarlo", &raw).unwrap();
        let body = RequestBody::Montecarlo(MontecarloParams {
            scale: 1.0,
            trials: 200,
            seed: Some(7),
        });
        let via_typed = r.handle_typed(&body).unwrap();
        assert_eq!(
            via_adapter.result.get("vo_min_mean"),
            via_typed.result.get("vo_min_mean")
        );
        assert_eq!(via_adapter.result.get("passing"), via_typed.result.get("passing"));
    }

    #[test]
    fn montecarlo_trial_cap_is_enforced() {
        let r = Router::new(1, 8, 1000);
        let err = r
            .handle("montecarlo", &params(vec![("trials", Json::Num(5000.0))]))
            .unwrap_err();
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
        let routed = r.handle("sweep", &p).unwrap();
        // The whole grid is one cache entry under the route_point
        // identity (so HRW re-homing keeps sweeps warm).
        assert_eq!(routed.cache_misses, 1);
        assert_eq!(routed.result.get("cached"), Some(&Json::Bool(false)));
        let powers = routed.result.get("p_rx_mw").and_then(Json::as_arr).unwrap();
        let vals: Vec<f64> = powers.iter().map(|p| p.as_f64().unwrap()).collect();
        assert_eq!(vals.len(), 4);
        assert!(vals.windows(2).all(|w| w[1] < w[0]), "monotone falloff: {vals:?}");
        // Second identical request is served fully from cache.
        let again = r.handle("sweep", &p).unwrap();
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
        let first = r.handle("patientday", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        assert_eq!(first.result.get("cached"), Some(&Json::Bool(false)));
        let summary = first.result.get("summary").unwrap();
        assert!(summary.get("end_h").and_then(Json::as_f64).unwrap() > 0.0);
        assert_eq!(summary.get("thermal_ok"), Some(&Json::Bool(true)));
        let second = r.handle("patientday", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(second.result.get("summary"), first.result.get("summary"));
        // A fresh router reproduces bit-for-bit.
        let other = router().handle("patientday", &p).unwrap();
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
            r.handle("patientday", &p).unwrap().result
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
        let first = r.handle("cohort", &p).unwrap();
        assert_eq!(first.cache_misses, 1);
        let report = first.result.get("report").unwrap();
        assert_eq!(report.get("patients").and_then(Json::as_u64), Some(8));
        let second = r.handle("cohort", &p).unwrap();
        assert_eq!(second.cache_hits, 1);
        assert_eq!(second.result.get("digest"), first.result.get("digest"));
        // The served report round-trips into the scenario type and its
        // digest matches a local run — the cluster-campaign contract.
        let parsed = CohortReport::from_json(report).expect("report parses");
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
        let err = r
            .handle(
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
        let warm = stored_router(&dir, "r0").handle("montecarlo", &p).unwrap();
        assert_eq!(warm.result.get("cached"), Some(&Json::Bool(false)));
        // A different router (cold memory, same store) serves the same
        // request as a cache hit — zero recompute.
        let cold = stored_router(&dir, "r1").handle("montecarlo", &p).unwrap();
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
            let _ = r.handle(endpoint, &p).unwrap();
            let served = r.handle(endpoint, &p).unwrap(); // warm → cached: true
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
        {
            let writer = stored_router(&dir, "r0");
            writer.handle("montecarlo", &mc).unwrap();
            writer.handle("sweep", &sweep).unwrap();
        }
        let joiner = stored_router(&dir, "r1");
        let report = joiner.prewarm(|_| true, &CatchupBudget::default(), 42);
        assert_eq!(report.planned, 2);
        assert_eq!(report.admitted, 2);
        assert_eq!(report.unreadable, 0);
        assert_eq!(report.budget_skipped, 0);
        // Both endpoints now serve as pure cache hits.
        for (endpoint, p) in [("montecarlo", &mc), ("sweep", &sweep)] {
            let routed = joiner.handle(endpoint, p).unwrap();
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
                writer
                    .handle(
                        "montecarlo",
                        &params(vec![
                            ("trials", Json::Num(60.0)),
                            ("seed", Json::Num(seed as f64)),
                        ]),
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
            let err = r.handle(endpoint, &p).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{endpoint}: {}", err.message);
            assert!(err.message.contains(needle), "{endpoint}: {}", err.message);
            assert_eq!(err.field.as_deref(), Some(needle), "{endpoint}: {}", err.message);
        }
    }

    fn mc(scale: f64, trials: u64, seed: u64) -> MontecarloParams {
        MontecarloParams { scale, trials, seed: Some(seed) }
    }

    #[test]
    fn montecarlo_many_dedupes_duplicates_into_one_execution() {
        let r = router();
        let (a, b) = (mc(1.0, 150, 5), mc(1.0, 150, 6));
        let out = r.montecarlo_many(&[&a, &a, &b]);
        let [first, dup, distinct]: [&Routed; 3] =
            [&out[0], &out[1], &out[2]].map(|res| res.as_ref().expect("mc ok"));

        // One miss for the leader occurrence, a hit for its duplicate.
        assert_eq!((first.cache_hits, first.cache_misses), (0, 1));
        assert_eq!(first.result.get("cached"), Some(&Json::Bool(false)));
        assert_eq!((dup.cache_hits, dup.cache_misses), (1, 0));
        assert_eq!(dup.result.get("cached"), Some(&Json::Bool(true)));
        assert_eq!((distinct.cache_hits, distinct.cache_misses), (0, 1));

        // The duplicate's payload is the leader's, bit for bit.
        assert_eq!(
            first.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
            dup.result.get("vo_min_mean").and_then(Json::as_f64).map(f64::to_bits),
        );
        assert_ne!(
            first.result.get("seed"),
            distinct.result.get("seed"),
            "distinct points stay distinct"
        );
    }

    #[test]
    fn montecarlo_many_is_bit_identical_to_the_serial_loop() {
        let (batched, serial) = (router(), router());
        let ps = [mc(1.0, 120, 9), mc(1.2, 80, 9), mc(1.0, 120, 9)];
        let refs: Vec<&MontecarloParams> = ps.iter().collect();
        let many = batched.montecarlo_many(&refs);
        for (p, out) in ps.iter().zip(&many) {
            let one = serial.montecarlo(p).expect("serial mc ok");
            let out = out.as_ref().expect("batched mc ok");
            // Same cache trajectory (the third request replays the
            // first), so the whole document matches byte for byte.
            assert_eq!(out.result.to_string(), one.result.to_string());
            assert_eq!(
                (out.cache_hits, out.cache_misses),
                (one.cache_hits, one.cache_misses)
            );
        }
    }

    #[test]
    fn sweep_many_is_bit_identical_to_the_serial_loop() {
        let (batched, serial) = (router(), router());
        let air = SweepParams {
            d_min_mm: 2.0,
            d_max_mm: 12.0,
            steps: 4,
            medium: SweepMedium::Air,
        };
        let tissue = SweepParams { medium: SweepMedium::Sirloin, ..air.clone() };
        let ps = [air.clone(), tissue, air];
        let refs: Vec<&SweepParams> = ps.iter().collect();
        let many = batched.sweep_many(&refs);
        for (p, out) in ps.iter().zip(&many) {
            let one = serial.sweep(p).expect("serial sweep ok");
            let out = out.as_ref().expect("batched sweep ok");
            assert_eq!(out.result.to_string(), one.result.to_string());
            assert_eq!(
                (out.cache_hits, out.cache_misses),
                (one.cache_hits, one.cache_misses)
            );
        }
    }

    #[test]
    fn many_against_a_warm_cache_reports_every_occurrence_as_a_hit() {
        let r = router();
        let p = mc(1.0, 140, 3);
        assert_eq!(r.montecarlo(&p).expect("warmup").cache_misses, 1);
        for out in r.montecarlo_many(&[&p, &p]) {
            let out = out.expect("warm mc ok");
            assert_eq!((out.cache_hits, out.cache_misses), (1, 0));
            assert_eq!(out.result.get("cached"), Some(&Json::Bool(true)));
        }
    }

    #[test]
    fn empty_batches_are_a_no_op() {
        let r = router();
        assert!(r.montecarlo_many(&[]).is_empty());
        assert!(r.sweep_many(&[]).is_empty());
    }

    #[test]
    fn single_element_batch_matches_the_direct_call() {
        let r = router();
        let p = mc(1.0, 110, 5);
        let batched = r.montecarlo_many(&[&p]);
        assert_eq!(batched.len(), 1);
        let batched = batched[0].as_ref().expect("batch of one ok");
        assert_eq!((batched.cache_hits, batched.cache_misses), (0, 1));
        let direct = Router::new(1, 16, 100_000).montecarlo(&p).expect("direct ok");
        assert_eq!(batched.result.get("vo_min_mean"), direct.result.get("vo_min_mean"));
    }
}
