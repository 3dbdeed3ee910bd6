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
//! The Criterion benches in `benches/` measure the computational cost of
//! the substrate (transient steps, conversions, filament sums) rather
//! than reproducing paper numbers.

use runtime::{Artifact, Json, ResultCache};
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
pub fn stages_json(rows: &[StageRow]) -> Json {
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

/// Renders a latency histogram as `{p50_us, p95_us, p99_us}`.
pub fn latency_json(hist: &runtime::LatencyHistogram) -> Json {
    Json::obj(vec![
        ("p50_us", Json::Num(duration_us(hist.p50()))),
        ("p95_us", Json::Num(duration_us(hist.p95()))),
        ("p99_us", Json::Num(duration_us(hist.p99()))),
    ])
}

/// Writes a bench artifact, refusing to emit non-finite numbers (the
/// validator would reject the file anyway; failing at the source names
/// the culprit).
///
/// # Panics
///
/// Panics if `doc` contains a non-finite number or the file cannot be
/// written.
pub fn write_bench_json(path: &str, doc: &Json) {
    if let Some(bad) = doc.non_finite_path() {
        panic!("refusing to write {path}: non-finite number at {bad}");
    }
    std::fs::write(path, format!("{doc}\n"))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    println!("wrote {path}");
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
    fn latency_json_carries_finite_percentiles() {
        let mut hist = runtime::LatencyHistogram::new();
        hist.record(Duration::from_micros(100));
        hist.record(Duration::from_micros(400));
        let json = latency_json(&hist);
        for key in ["p50_us", "p95_us", "p99_us"] {
            let v = json.get(key).and_then(Json::as_f64).expect(key);
            assert!(v.is_finite() && v > 0.0, "{key} = {v}");
        }
        assert_eq!(json.non_finite_path(), None);
    }
}
