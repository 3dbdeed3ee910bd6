//! The traced replay: the run's requests again, in-process, with spans
//! around the public calls of each layer.
//!
//! Per request the replay times the calls the serving path makes —
//! `proto` decode, `Router::handle_typed`, `proto` encode — under one
//! root span. When the router computed the answer (a cache miss, or an
//! uncached `fig11`/`fullchain`), the replay then repeats the router's
//! inner work through the public functions of the layers below it
//! (`core`, `scenario`, `analog`, `cosim`, `store`), each in its own
//! span whose parent is the router span. Those leaf spans are what the
//! per-layer metrics report; the part of the router span they do not
//! explain is the unattributed time.

use crate::workload::Req;
use analog::{EngineStats, TranConfig};
use implant_core::fullchain::FullChainScenario;
use implant_core::montecarlo::{MonteCarloStudy, VariationModel};
use implant_core::scenario::Fig11Scenario;
use runtime::{Json, Pool};
use server::proto::{self, Fig11Params, Fig11Preset, FullchainParams, RequestBody, TypedRequest};
use server::router::Router;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::Store;

/// Layers outside timing cannot split; printed with every traced run.
pub const UNSPLIT: [&str; 2] = [
    "cosim.fullchain_ms: full-chain calibration runs inside the private ChainTable, so calibration and relaxation are one number",
    "server.transport_ms: the poller's read wait and backoff, the socket and the codec are one number (RTT - queue_us - service_us)",
];

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    request: u64,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
}

/// A request the replay gets: the wire request, its answer and the
/// server's reported service time.
pub struct Replayed<'a> {
    /// Sequence index (also the correlation id minus one).
    pub index: u64,
    /// The request.
    pub req: &'a Req,
    /// The wire answer's fingerprint.
    pub fingerprint: u64,
    /// The server's `service_us` for it.
    pub service_us: u64,
}

/// Sums of the engine counters over the replayed transients (phase times
/// from their profiled repeats).
#[derive(Debug, Default)]
struct EngineSums {
    runs: u64,
    profiled_runs: u64,
    tran_ns: u64,
    newton: u64,
    assemble_ns: u64,
    factor_ns: u64,
    solve_ns: u64,
    rows_recomputed: u64,
    refactorizations: u64,
    skips: u64,
    pivoted: u64,
    repivots: u64,
}

impl EngineSums {
    fn add(&mut self, tran_ns: u64, s: &EngineStats) {
        self.runs += 1;
        self.tran_ns += tran_ns;
        self.newton += s.newton_iterations;
        self.rows_recomputed += s.lu.rows_recomputed;
        self.refactorizations += s.lu.refactorizations;
        self.skips += s.lu.refactor_skips;
        self.pivoted += s.lu.pivoted_factorizations;
        self.repivots += s.lu.repivots;
    }

    fn add_phases(&mut self, s: &EngineStats) {
        self.profiled_runs += 1;
        self.assemble_ns += s.assemble_ns;
        self.factor_ns += s.factor_ns;
        self.solve_ns += s.solve_ns;
    }
}

/// Sums of the cosim counters.
#[derive(Debug, Default)]
struct CosimSums {
    runs: u64,
    probes: u64,
    iterations: u64,
    macro_steps: u64,
    worst_residual: f64,
    relax_ns: u64,
    fig11_runs: u64,
}

/// The traced replay's state and results.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    router: Router,
    pool: Pool,
    store: Option<Arc<Store>>,
    engine: EngineSums,
    cosim: CosimSums,
    /// Requests replayed.
    pub replayed: u64,
    /// Replayed answers that differ from the wire answer.
    pub mismatches: Vec<String>,
    root_ns: u64,
    unattributed_ns: i64,
    handle_ns: u64,
    service_ns: u64,
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The request line the client puts on the wire for `req` as id `id`.
fn wire_line(id: u64, req: &Req) -> String {
    Json::obj(vec![
        ("v", Json::Num(proto::VERSION as f64)),
        ("id", Json::Num(id as f64)),
        ("endpoint", Json::Str(req.endpoint.to_string())),
        ("params", req.params.clone()),
    ])
    .to_string()
}

fn handle_span(endpoint: &str) -> &'static str {
    match endpoint {
        "fig11" => "router.handle.fig11",
        "fullchain" => "router.handle.fullchain",
        "montecarlo" => "router.handle.montecarlo",
        "sweep" => "router.handle.sweep",
        "patientday" => "router.handle.patientday",
        _ => "router.handle.other",
    }
}

/// The scenario the router builds for a `fig11` request.
fn fig11_scenario(p: &Fig11Params) -> Fig11Scenario {
    let mut s = match p.preset {
        Fig11Preset::Short => Fig11Scenario::shortened(),
        Fig11Preset::Paper => Fig11Scenario::paper(),
    };
    if let Some(v) = p.idle_amplitude {
        s.idle_amplitude = v;
    }
    if let Some(v) = p.r_source {
        s.r_source = v;
    }
    if let Some(v) = p.r_load {
        s.r_load = v;
    }
    if let Some(v) = p.t_stop_us {
        s.t_stop = v * 1e-6;
    }
    if let Some(v) = p.max_step_ns {
        s.max_step = v * 1e-9;
    }
    s
}

/// The scenario the router builds for a `fullchain` request.
fn fullchain_scenario(p: &FullchainParams) -> FullChainScenario {
    let mut s = FullChainScenario::ironic();
    s.distance = p.distance_mm * 1e-3;
    if let Some(v) = p.r_load {
        s.r_load = v;
    }
    s.cycles = p.cycles as usize;
    s
}

impl Tracer {
    /// A tracer whose router is built like the server of `config` (same
    /// pool width, cache capacity and trial cap; a store of its own under
    /// `scratch` when the server writes through to one).
    ///
    /// # Errors
    ///
    /// When the store directory cannot be created.
    pub fn new(config: &server::ServerConfig, scratch: &Path) -> std::io::Result<Tracer> {
        let store = match config.store_dir {
            Some(_) => Some(Arc::new(Store::open(scratch.join("trace-store"), "trace")?)),
            None => None,
        };
        let router = match &store {
            Some(s) => Router::with_store(
                config.pool_workers,
                config.cache_capacity,
                config.mc_trial_cap,
                Arc::clone(s),
            ),
            None => Router::new(
                config.pool_workers,
                config.cache_capacity,
                config.mc_trial_cap,
            ),
        };
        Ok(Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            router,
            pool: Pool::new(config.pool_workers),
            store,
            engine: EngineSums::default(),
            cosim: CosimSums::default(),
            replayed: 0,
            mismatches: Vec::new(),
            root_ns: 0,
            unattributed_ns: 0,
            handle_ns: 0,
            service_ns: 0,
        })
    }

    /// Runs `f` inside a span and returns its value and duration.
    fn span<R>(
        &mut self,
        request: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce(&mut Self) -> R,
    ) -> (R, usize, u64) {
        let id = self.spans.len();
        let start = Instant::now();
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start_ns: ns(start - self.origin),
            end_ns: 0,
        });
        let value = f(self);
        let end = Instant::now();
        self.spans[id].end_ns = ns(end - self.origin);
        (value, id, ns(end - start))
    }

    /// Replays `requests` in order until `budget` has passed.
    pub fn replay<'a>(
        &mut self,
        requests: impl IntoIterator<Item = Replayed<'a>>,
        budget: Duration,
    ) {
        let started = Instant::now();
        let limits = self.router.limits();
        for r in requests {
            if started.elapsed() >= budget {
                break;
            }
            let id = r.index + 1;
            let line = wire_line(id, r.req);
            let ((routed, typed), root, root_ns) = self.span(id, None, "request", |t| {
                let (typed, _, _) = t.span(id, Some(root_id(t)), "proto.decode", |_| {
                    TypedRequest::decode_line(&line, &limits)
                });
                let Ok(typed) = typed else {
                    return (None, None);
                };
                let (routed, hid, handle_ns) =
                    t.span(id, Some(root_id(t)), handle_span(r.req.endpoint), |t| {
                        t.router.handle_typed(&typed.body)
                    });
                let Ok(routed) = routed else {
                    return (None, Some(typed));
                };
                let service_us = handle_ns / 1_000;
                t.span(id, Some(root_id(t)), "proto.encode", |_| {
                    proto::ok_response_checked(id, routed.result.clone(), 0, service_us)
                });
                (Some((routed, hid, handle_ns)), Some(typed))
            });
            self.replayed += 1;
            let (Some((routed, hid, handle_ns)), Some(typed)) = (routed, typed) else {
                self.mismatches
                    .push(format!("request {id} failed in the replay"));
                continue;
            };
            if crate::check::fingerprint(&routed.result) != r.fingerprint {
                self.mismatches.push(format!(
                    "request {id} ({}) answers differently",
                    r.req.endpoint
                ));
            }
            let children: u64 = self.spans[root + 1..]
                .iter()
                .filter(|s| s.parent == Some(root))
                .map(|s| s.end_ns - s.start_ns)
                .sum();
            // A sweep is computed inside the router itself: no layer below.
            let computed = match typed.body {
                RequestBody::Fig11(_) | RequestBody::Fullchain(_) => true,
                RequestBody::Sweep(_) => false,
                _ => routed.cache_misses > 0,
            };
            let leaves = if computed {
                self.decompose(id, hid, &typed.body)
            } else {
                handle_ns
            };
            self.root_ns += root_ns;
            self.unattributed_ns += (root_ns - children) as i64 + handle_ns as i64 - leaves as i64;
            self.handle_ns += handle_ns;
            self.service_ns += r.service_us * 1_000;
        }
    }

    /// Repeats the router's inner work for `body` through the public
    /// functions of the layers below it; returns the leaf time.
    fn decompose(&mut self, id: u64, parent: usize, body: &RequestBody) -> u64 {
        let p = Some(parent);
        match body {
            RequestBody::Montecarlo(m) => {
                let (_, _, t) = self.span(id, p, "core.montecarlo", |_| {
                    let mut study = MonteCarloStudy::ironic();
                    if let Some(seed) = m.seed {
                        study.seed = seed;
                    }
                    study.variation = VariationModel::typical_018um().scaled(m.scale);
                    std::hint::black_box(study.run_serial(m.trials as usize))
                });
                t + self.store_round_trip(id, p, body)
            }
            RequestBody::Patientday(d) => {
                let (_, _, t) = self.span(id, p, "scenario.patientday", |_| {
                    std::hint::black_box(d.to_day().run().summary())
                });
                t + self.store_round_trip(id, p, body)
            }
            RequestBody::Fig11(f) if f.cosim => self.fig11_cosim(id, p, f),
            RequestBody::Fig11(f) => {
                let s = fig11_scenario(f);
                let cfg = TranConfig::builder(s.t_stop).max_step(s.max_step).build();
                self.transient(id, p, || s.build(), &cfg)
            }
            RequestBody::Fullchain(f) if f.cosim => {
                let s = fullchain_scenario(f);
                let (out, _, t) = self.span(id, p, "cosim.fullchain", |t| s.run_cosim(&t.pool));
                if let Ok(o) = out {
                    self.cosim.runs += 1;
                    self.cosim.probes += o.probes;
                    self.cosim.iterations += o.stats.iterations;
                    self.cosim.macro_steps += o.stats.macro_steps;
                    self.cosim.worst_residual =
                        self.cosim.worst_residual.max(o.stats.worst_residual);
                }
                t
            }
            RequestBody::Fullchain(f) => {
                let s = fullchain_scenario(f);
                let period = 1.0 / s.design.frequency;
                let cfg = TranConfig::builder(s.cycles as f64 * period)
                    .max_step(period / 40.0)
                    .build();
                self.transient(id, p, || s.build(), &cfg)
            }
            _ => 0,
        }
    }

    /// build → compile → transient (the router's configuration), one
    /// span each; then the transient once more with per-phase profiling,
    /// which slows it, so it is kept out of the leaf time.
    fn transient(
        &mut self,
        id: u64,
        p: Option<usize>,
        build: impl FnOnce() -> analog::Circuit,
        cfg: &TranConfig,
    ) -> u64 {
        let (ckt, _, t_build) = self.span(id, p, "core.build", |_| build());
        let (sim, _, t_compile) = self.span(id, p, "analog.compile", |_| ckt.compile());
        let Ok(sim) = sim else {
            return t_build + t_compile;
        };
        let (run, _, t_tran) = self.span(id, p, "analog.tran", |_| sim.tran_with_stats(cfg));
        if let Ok((_, stats)) = run {
            self.engine.add(t_tran, &stats);
        }
        let profiled = TranConfig {
            profile: true,
            ..cfg.clone()
        };
        let (run, _, _) = self.span(id, p, "analog.tran_profiled", |_| {
            sim.tran_with_stats(&profiled)
        });
        if let Ok((_, stats)) = run {
            self.engine.add_phases(&stats);
        }
        t_build + t_compile + t_tran
    }

    /// Calibration alone, then the whole cosim run (which calibrates
    /// again); relaxation is the difference.
    fn fig11_cosim(&mut self, id: u64, p: Option<usize>, f: &Fig11Params) -> u64 {
        let s = fig11_scenario(f);
        let spec = cosim::Fig11CosimSpec {
            rectifier: s.rectifier.clone(),
            demodulator: pmu::demodulator::ClockedDemodulator::ironic(),
            idle_amplitude: s.idle_amplitude,
            r_source: s.r_source,
            r_load: s.r_load,
            downlink_bits: s.downlink_bits.clone(),
            downlink_start: s.downlink_start,
            uplink_bits: s.uplink_bits.clone(),
            uplink_start: s.uplink_start,
            uplink_rate: s.uplink_rate,
            t_stop: s.t_stop,
            max_step: s.max_step,
        };
        let (_, _, t_cal) = self.span(id, p, "cosim.calibrate", |t| {
            cosim::RectifierTable::calibrate(&spec, &t.pool)
        });
        let (run, _, t_run) = self.span(id, p, "cosim.run_fig11", |t| {
            cosim::run_fig11(&spec, &cosim::RatePlan::fig11(), &t.pool)
        });
        if let Ok(r) = run {
            self.cosim.runs += 1;
            self.cosim.fig11_runs += 1;
            self.cosim.probes += r.probes;
            self.cosim.iterations += r.stats.iterations;
            self.cosim.macro_steps += r.stats.macro_steps;
            self.cosim.worst_residual = self.cosim.worst_residual.max(r.stats.worst_residual);
            self.cosim.relax_ns += t_run.saturating_sub(t_cal);
        }
        // The run contains its own calibration: it alone is the leaf.
        t_run
    }

    /// Reads back and rewrites the object the router wrote through for
    /// `body`; returns the time of both.
    fn store_round_trip(&mut self, id: u64, p: Option<usize>, body: &RequestBody) -> u64 {
        let Some(store) = self.store.clone() else {
            return 0;
        };
        let Some((ns_name, point)) = body.route_point() else {
            return 0;
        };
        let key = runtime::cache_key(ns_name, &point);
        let (object, _, t_get) = self.span(id, p, "store.get", |_| store.get_object(key));
        let Some((namespace, params, value)) = object else {
            return t_get;
        };
        let (_, _, t_put) = self.span(id, p, "store.put", |_| {
            store.put(key, &namespace, &params, &value)
        });
        t_get + t_put
    }

    fn totals(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for s in &self.spans {
            let e = totals.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end_ns - s.start_ns;
        }
        totals
    }

    /// The per-layer metrics (name, value, unit) of the replay. Layers a
    /// workload never reaches report 0.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let totals = self.totals();
        let mean = |name: &str, scale: f64| {
            totals
                .get(name)
                .map_or(0.0, |&(n, t)| t as f64 / n as f64 / scale)
        };
        let (hits, misses) = self.router.cache_stats();
        let e = &self.engine;
        let per_run = |v: u64| {
            if e.runs == 0 {
                0.0
            } else {
                v as f64 / e.runs as f64
            }
        };
        let per_profiled = |v: u64| {
            if e.profiled_runs == 0 {
                0.0
            } else {
                v as f64 / e.profiled_runs as f64
            }
        };
        let c = &self.cosim;
        let objects = self.store.as_ref().map_or(0, |s| s.object_keys().len());
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        vec![
            ("proto.decode_us", mean("proto.decode", 1e3), "us"),
            ("proto.encode_us", mean("proto.encode", 1e3), "us"),
            (
                "router.handle_ms.fig11",
                mean("router.handle.fig11", 1e6),
                "ms",
            ),
            (
                "router.handle_ms.fullchain",
                mean("router.handle.fullchain", 1e6),
                "ms",
            ),
            (
                "router.handle_ms.montecarlo",
                mean("router.handle.montecarlo", 1e6),
                "ms",
            ),
            (
                "router.handle_ms.sweep",
                mean("router.handle.sweep", 1e6),
                "ms",
            ),
            (
                "router.handle_ms.patientday",
                mean("router.handle.patientday", 1e6),
                "ms",
            ),
            (
                "router.cache_hit_ratio",
                ratio(hits as f64, (hits + misses) as f64),
                "ratio",
            ),
            ("store.put_us", mean("store.put", 1e3), "us"),
            ("store.get_us", mean("store.get", 1e3), "us"),
            ("store.objects_written", objects as f64, "count"),
            ("core.montecarlo_ms", mean("core.montecarlo", 1e6), "ms"),
            (
                "scenario.patientday_ms",
                mean("scenario.patientday", 1e6),
                "ms",
            ),
            ("core.build_us", mean("core.build", 1e3), "us"),
            ("analog.compile_us", mean("analog.compile", 1e3), "us"),
            ("analog.tran_ms", per_run(e.tran_ns) / 1e6, "ms"),
            (
                "analog.ns_per_newton",
                ratio(e.tran_ns as f64, e.newton as f64),
                "ns",
            ),
            ("analog.newton_iterations", per_run(e.newton), "count"),
            (
                "analog.assemble_ms",
                per_profiled(e.assemble_ns) / 1e6,
                "ms",
            ),
            ("analog.factor_ms", per_profiled(e.factor_ns) / 1e6, "ms"),
            ("analog.solve_ms", per_profiled(e.solve_ns) / 1e6, "ms"),
            (
                "analog.rows_per_refactor",
                ratio(e.rows_recomputed as f64, e.refactorizations as f64),
                "count",
            ),
            (
                "analog.refactor_skip_rate",
                ratio(
                    e.skips as f64,
                    (e.pivoted + e.refactorizations + e.skips) as f64,
                ),
                "ratio",
            ),
            ("analog.repivots", per_run(e.repivots), "count"),
            ("cosim.calibrate_ms", mean("cosim.calibrate", 1e6), "ms"),
            (
                "cosim.probes",
                ratio(c.probes as f64, c.runs as f64),
                "count",
            ),
            (
                "cosim.relax_ms",
                ratio(c.relax_ns as f64, c.fig11_runs as f64) / 1e6,
                "ms",
            ),
            (
                "cosim.iterations_per_step",
                ratio(c.iterations as f64, c.macro_steps as f64),
                "count",
            ),
            ("cosim.worst_residual", c.worst_residual, "ratio"),
            ("cosim.fullchain_ms", mean("cosim.fullchain", 1e6), "ms"),
            (
                "trace.unattributed_pct",
                100.0 * ratio(self.unattributed_ns as f64, self.root_ns as f64),
                "%",
            ),
            (
                "trace.overhead_pct",
                100.0 * (ratio(self.handle_ns as f64, self.service_ns as f64) - 1.0),
                "%",
            ),
        ]
    }

    /// Writes every span as one JSON line.
    ///
    /// # Errors
    ///
    /// Propagates file errors.
    pub fn write_spans(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let doc = Json::obj(vec![
                ("request", Json::Num(s.request as f64)),
                ("id", Json::Num(s.id as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
            ]);
            writeln!(out, "{doc}")?;
        }
        out.flush()
    }
}

/// The id of the innermost open root span (the request being replayed).
fn root_id(t: &Tracer) -> usize {
    t.spans
        .iter()
        .rposition(|s| s.parent.is_none())
        .expect("a root span is open")
}
