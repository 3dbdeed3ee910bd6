//! Experiment harness for the DATE 2013 reproduction.
//!
//! Each binary in `src/bin` regenerates one figure or table of the paper
//! (see DESIGN.md's experiment index and EXPERIMENTS.md for the
//! paper-vs-measured record):
//!
//! | binary | paper artifact |
//! |---|---|
//! | `fig4_lactate` | Fig. 4 — lactate calibration curves |
//! | `tab_ei_power` | §II-B — electronic-interface consumption and ADC resolution |
//! | `fig_power_vs_distance` | §III-B — 15 mW @ 6 mm, 1.17 mW @ 17 mm, sirloin ≈ air |
//! | `tab_battery_life` | §III-B — 10 h / 3.5 h / 1.5 h battery lives |
//! | `tab_matching` | §IV-C — ≈ 150 Ω rectifier impedance and CA/CB selection |
//! | `fig11_transient` | Fig. 11 — the full power-management transient |
//! | `fig6_class_e` | Fig. 6 / §III-A — class-E ZVS and efficiency |
//! | `tab_datalink` | §III-A — 100 kbps ASK down, 66.6 kbps LSK up |
//! | `fig_misalignment` | Fig. 5 context — power vs lateral patch offset |
//! | `tab_ablations` | design-rule ablations (A1–A5 in DESIGN.md) |
//!
//! The `bench_*` binaries measure the system rather than the paper: each
//! writes one [`Record`] (schema [`SCHEMA`]) whose [`Gate`]s decide both
//! its own exit code and `bench_validate`'s verdict on the artifact.

use runtime::{Artifact, Json, LatencyHistogram, ResultCache};
use std::sync::Arc;
use std::time::Duration;

/// The harnesses' result cache. It lives in memory and, when
/// `IMPLANT_CACHE_DIR` is set, persists through an [`store::Store`]
/// rooted there (replica `bench`), so a re-run recomputes only changed
/// points. A directory the store cannot open leaves the cache in memory.
pub fn harness_cache<V: Artifact + Clone>() -> ResultCache<V> {
    let cache = ResultCache::in_memory();
    let dir = std::env::var_os("IMPLANT_CACHE_DIR").filter(|d| !d.is_empty());
    match dir.map(|d| store::Store::open(d, "bench")) {
        Some(Ok(shared)) => cache.with_tier(Arc::new(shared)),
        _ => cache,
    }
}

/// Prints the standard harness banner for experiment `id` reproducing
/// `artifact`.
pub fn banner(id: &str, artifact: &str) {
    println!("================================================================");
    println!("{id}: reproducing {artifact}");
    println!("  (Olivo et al., \"Electronic Implants: Power Delivery and");
    println!("   Management\", DATE 2013)");
    println!("================================================================");
}

/// Formats a pass/fail marker.
pub fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// A duration in microseconds, as the bench JSON reports them.
pub fn duration_us(d: Duration) -> f64 {
    d.as_secs_f64() * 1.0e6
}

/// One row of the per-stage latency breakdown, derived from the global
/// [`obs`] registry.
#[derive(Debug, Clone)]
pub struct StageRow {
    /// Stage name (`server.execute`, `pool.job`, …).
    pub name: &'static str,
    /// Times the stage ran (or, for counters, fired).
    pub count: u64,
    /// Total time spent in the stage, microseconds.
    pub total_us: f64,
    /// Fraction of all *accounted* stage time. `server.read` is
    /// excluded from the denominator (and reports share 0): it blocks
    /// on the socket, so its total is mostly idle time, and including
    /// it would dwarf every stage that does real work.
    pub share: f64,
    /// Median stage latency, microseconds (0 for counters).
    pub p50_us: f64,
    /// 95th-percentile stage latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile stage latency, microseconds.
    pub p99_us: f64,
}

/// Snapshots the [`obs`] registry into breakdown rows, sorted by stage
/// name.
pub fn stage_rows() -> Vec<StageRow> {
    let snaps = obs::snapshot();
    let accounted: f64 = snaps
        .iter()
        .filter(|s| s.name != "server.read")
        .map(|s| s.total.as_secs_f64())
        .sum();
    snaps
        .iter()
        .map(|s| {
            let total = s.total.as_secs_f64();
            StageRow {
                name: s.name,
                count: s.count,
                total_us: total * 1.0e6,
                share: if s.name == "server.read" || accounted <= 0.0 {
                    0.0
                } else {
                    total / accounted
                },
                p50_us: duration_us(s.hist.p50()),
                p95_us: duration_us(s.hist.p95()),
                p99_us: duration_us(s.hist.p99()),
            }
        })
        .collect()
}

/// Renders stage rows as the `stages` object of a `BENCH_*.json`.
fn stages_json(rows: &[StageRow]) -> Json {
    Json::Obj(
        rows.iter()
            .map(|r| {
                (
                    r.name.to_string(),
                    Json::obj(vec![
                        ("count", Json::Num(r.count as f64)),
                        ("total_us", Json::Num(r.total_us)),
                        ("share", Json::Num(r.share)),
                        ("p50_us", Json::Num(r.p50_us)),
                        ("p95_us", Json::Num(r.p95_us)),
                        ("p99_us", Json::Num(r.p99_us)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Renders the human-readable per-stage breakdown table printed by
/// `--profile`.
pub fn profile_table(rows: &[StageRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "  {:<22} {:>10} {:>12} {:>7} {:>10} {:>10} {:>10}\n",
        "stage", "count", "total ms", "share", "p50 µs", "p95 µs", "p99 µs"
    ));
    for r in rows {
        let share = if r.name == "server.read" {
            "  idle".to_string()
        } else {
            format!("{:5.1}%", r.share * 100.0)
        };
        out.push_str(&format!(
            "  {:<22} {:>10} {:>12.3} {:>7} {:>10.1} {:>10.1} {:>10.1}\n",
            r.name,
            r.count,
            r.total_us / 1.0e3,
            share,
            r.p50_us,
            r.p95_us,
            r.p99_us,
        ));
    }
    out
}

/// The schema every bench artifact (`BENCH_*.json`) declares.
pub const SCHEMA: &str = "implant-bench/1";

/// How a [`Gate`] compares its value with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `>=`
    Ge,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `<`
    Lt,
    /// `==`
    Eq,
}

impl Op {
    /// Every comparison an artifact may name.
    pub const ALL: [Op; 5] = [Op::Ge, Op::Gt, Op::Le, Op::Lt, Op::Eq];

    /// The artifact spelling.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Ge => ">=",
            Op::Gt => ">",
            Op::Le => "<=",
            Op::Lt => "<",
            Op::Eq => "==",
        }
    }

    /// Reads the artifact spelling back.
    pub fn parse(symbol: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.symbol() == symbol)
    }
}

/// One pass/fail contract of a bench run: `value op bound`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gate {
    /// What is checked, in the metrics' dotted naming.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// The comparison.
    pub op: Op,
    /// The value it is compared with.
    pub bound: f64,
}

impl Gate {
    /// A gate `value op bound`.
    pub fn new(name: impl Into<String>, value: f64, op: Op, bound: f64) -> Gate {
        Gate { name: name.into(), value, op, bound }
    }

    /// Whether `value op bound` holds; a non-finite operand never does.
    /// A bench binary's exit code and `bench_validate` both decide with
    /// this, so a gate is written once.
    pub fn holds(&self) -> bool {
        let (v, b) = (self.value, self.bound);
        v.is_finite()
            && b.is_finite()
            && match self.op {
                Op::Ge => v >= b,
                Op::Gt => v > b,
                Op::Le => v <= b,
                Op::Lt => v < b,
                Op::Eq => v == b,
            }
    }

    /// The artifact form, `{name, value, op, bound}`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("name", Json::Str(self.name.clone())),
            ("value", Json::Num(self.value)),
            ("op", Json::Str(self.op.symbol().to_string())),
            ("bound", Json::Num(self.bound)),
        ])
    }

    /// Reads a gate back from its artifact form.
    ///
    /// # Errors
    ///
    /// Names the first missing or ill-typed field.
    pub fn from_json(json: &Json) -> Result<Gate, String> {
        let name = json.get("name").and_then(Json::as_str).ok_or("gate without a name")?;
        let num = |key: &str| {
            json.get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("gate {name:?} has no numeric {key}"))
        };
        let op = json
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("gate {name:?} has no op"))?;
        let op = Op::parse(op).ok_or_else(|| format!("gate {name:?} has unknown op {op:?}"))?;
        Ok(Gate::new(name, num("value")?, op, num("bound")?))
    }
}

impl std::fmt::Display for Gate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} = {} (want {} {})", self.name, self.value, self.op.symbol(), self.bound)
    }
}

/// One bench run's artifact: the binary's name, its config, a flat map
/// of finite metrics, the stage table and the gates.
pub struct Record {
    bench: &'static str,
    config: Vec<(&'static str, f64)>,
    metrics: Vec<(String, f64)>,
}

impl Record {
    /// An empty record of binary `bench` run with `config`.
    pub fn new(bench: &'static str, config: Vec<(&'static str, f64)>) -> Record {
        Record { bench, config, metrics: Vec::new() }
    }

    /// Adds one metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.push((name.into(), value));
    }

    /// Adds `{prefix}.count` and the histogram's p50/p95/p99 in
    /// microseconds (`{prefix}.p50_us`, …).
    pub fn latency(&mut self, prefix: &str, hist: &LatencyHistogram) {
        self.metric(format!("{prefix}.count"), hist.count() as f64);
        for (q, d) in [("p50_us", hist.p50()), ("p95_us", hist.p95()), ("p99_us", hist.p99())] {
            self.metric(format!("{prefix}.{q}"), duration_us(d));
        }
    }

    /// The `implant-bench/1` document.
    pub fn to_json(&self, stages: &[StageRow], gates: &[Gate]) -> Json {
        let config = self.config.iter().map(|(k, v)| (k.to_string(), Json::Num(*v)));
        let metrics = self.metrics.iter().map(|(k, v)| (k.clone(), Json::Num(*v)));
        Json::obj(vec![
            ("schema", Json::Str(SCHEMA.to_string())),
            ("bench", Json::Str(self.bench.to_string())),
            ("config", Json::Obj(config.collect())),
            ("metrics", Json::Obj(metrics.collect())),
            ("stages", stages_json(stages)),
            ("gates", Json::Arr(gates.iter().map(Gate::to_json).collect())),
        ])
    }

    /// Ends a bench run: prints every gate with its verdict, writes the
    /// artifact to `json_path` when given, and exits 1 when any gate
    /// fails.
    ///
    /// # Panics
    ///
    /// Panics if the artifact holds a non-finite number (the validator
    /// would reject it; failing here names the culprit) or cannot be
    /// written.
    pub fn finish(&self, stages: &[StageRow], gates: &[Gate], json_path: Option<&str>) {
        println!();
        println!("gates:");
        for gate in gates {
            println!("  {gate} … {}", verdict(gate.holds()));
        }
        if let Some(path) = json_path {
            let doc = self.to_json(stages, gates);
            if let Some(bad) = doc.non_finite_path() {
                panic!("refusing to write {path}: non-finite number at {bad}");
            }
            std::fs::write(path, format!("{doc}\n"))
                .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
            println!("wrote {path}");
        }
        let pass = gates.iter().all(Gate::holds);
        println!("{} verdict: {}", self.bench, verdict(pass));
        if !pass {
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_rows_share_excludes_idle_read_and_sums_to_one() {
        obs::reset();
        {
            let _a = obs::span!("bench.test.work");
            std::thread::sleep(Duration::from_millis(2));
        }
        {
            let _b = obs::span!("server.read");
            std::thread::sleep(Duration::from_millis(2));
        }
        let rows = stage_rows();
        let read = rows.iter().find(|r| r.name == "server.read").unwrap();
        assert_eq!(read.share, 0.0, "idle-inclusive read must not claim share");
        let total_share: f64 =
            rows.iter().filter(|r| r.name != "server.read").map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-9, "shares sum to 1, got {total_share}");
        let table = profile_table(&rows);
        assert!(table.contains("bench.test.work"), "{table}");
        assert!(table.contains("idle"), "{table}");
        let json = stages_json(&rows);
        assert!(json.get("bench.test.work").and_then(|s| s.get("count")).is_some());
        assert_eq!(json.non_finite_path(), None);
        obs::reset();
    }

    #[test]
    fn record_flattens_latency_and_round_trips_its_gates() {
        let mut hist = LatencyHistogram::new();
        hist.record(Duration::from_micros(100));
        hist.record(Duration::from_micros(400));
        let mut record = Record::new("bench_test", vec![("repeats", 2.0)]);
        record.latency("fig11", &hist);
        let gates =
            [Gate::new("fig11.count", 2.0, Op::Ge, 1.0), Gate::new("kill.lost", 3.0, Op::Eq, 0.0)];
        let doc = record.to_json(&[], &gates);
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(metrics.get("fig11.count").and_then(Json::as_f64), Some(2.0));
        for key in ["fig11.p50_us", "fig11.p95_us", "fig11.p99_us"] {
            let v = metrics.get(key).and_then(Json::as_f64).expect(key);
            assert!(v.is_finite() && v > 0.0, "{key} = {v}");
        }
        let back: Vec<Gate> = doc
            .get("gates")
            .and_then(Json::as_arr)
            .expect("gates")
            .iter()
            .map(|g| Gate::from_json(g).expect("well formed"))
            .collect();
        assert_eq!(back, gates);
        assert!(back[0].holds() && !back[1].holds());
    }

    #[test]
    fn a_non_finite_operand_never_holds() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.symbol()), Some(op));
            assert!(!Gate::new("g", f64::NAN, op, 1.0).holds(), "{op:?}");
            assert!(!Gate::new("g", 1.0, op, f64::INFINITY).holds(), "{op:?}");
        }
    }
}
