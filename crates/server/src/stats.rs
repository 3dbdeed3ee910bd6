//! Per-endpoint serving metrics: request/error counters, cache
//! hit/miss counts and a latency histogram, reported by the `metrics`
//! endpoint.

use crate::proto::ErrorCode;
use runtime::{Json, LatencyHistogram};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Counters for one endpoint.
#[derive(Debug, Clone, Default)]
pub struct EndpointStats {
    /// Requests routed to the endpoint (any outcome).
    pub requests: u64,
    /// Successful responses.
    pub ok: u64,
    /// Errors other than shedding/expiry (bad request, internal, …).
    pub errors: u64,
    /// Requests shed with `overloaded` (queue full).
    pub shed: u64,
    /// Requests expired before service (`deadline_exceeded`).
    pub expired: u64,
    /// Result-cache hits contributed by this endpoint's requests.
    pub cache_hits: u64,
    /// Result-cache misses contributed by this endpoint's requests.
    pub cache_misses: u64,
    /// Requests answered by attaching to another request's in-flight
    /// computation (single-flight followers). A collapsed request is
    /// also counted under `ok`/`errors` like any other — this counter
    /// reports how much duplicate work the collapse avoided.
    pub collapsed: u64,
    /// Service-time histogram of successful requests (queueing
    /// excluded; the response's `queue_us` reports that separately).
    pub latency: LatencyHistogram,
}

impl EndpointStats {
    fn to_json(&self) -> Json {
        let us = |d: Duration| Json::Num((d.as_nanos() as f64) / 1e3);
        Json::obj(vec![
            ("requests", Json::Num(self.requests as f64)),
            ("ok", Json::Num(self.ok as f64)),
            ("errors", Json::Num(self.errors as f64)),
            ("shed", Json::Num(self.shed as f64)),
            ("expired", Json::Num(self.expired as f64)),
            ("cache_hits", Json::Num(self.cache_hits as f64)),
            ("cache_misses", Json::Num(self.cache_misses as f64)),
            ("collapsed", Json::Num(self.collapsed as f64)),
            ("p50_us", us(self.latency.p50())),
            ("p95_us", us(self.latency.p95())),
            ("p99_us", us(self.latency.p99())),
        ])
    }
}

/// Thread-safe metrics registry, one [`EndpointStats`] per endpoint in
/// first-seen order (stable `metrics` payloads).
pub struct ServerMetrics {
    started: Instant,
    endpoints: Mutex<Vec<(String, EndpointStats)>>,
}

impl ServerMetrics {
    /// An empty registry; `started` anchors the reported uptime.
    pub fn new() -> Self {
        ServerMetrics { started: Instant::now(), endpoints: Mutex::new(Vec::new()) }
    }

    fn with_entry(&self, endpoint: &str, f: impl FnOnce(&mut EndpointStats)) {
        let mut endpoints = self.endpoints.lock().expect("metrics lock");
        let idx = match endpoints.iter().position(|(name, _)| name == endpoint) {
            Some(i) => i,
            None => {
                endpoints.push((endpoint.to_string(), EndpointStats::default()));
                endpoints.len() - 1
            }
        };
        f(&mut endpoints[idx].1);
    }

    /// Records a success with its service latency and the cache counts
    /// its request contributed.
    pub fn record_ok(&self, endpoint: &str, latency: Duration, hits: u64, misses: u64) {
        self.with_entry(endpoint, |s| {
            s.requests += 1;
            s.ok += 1;
            s.cache_hits += hits;
            s.cache_misses += misses;
            s.latency.record(latency);
        });
    }

    /// Records a success delivered by single-flight attachment: the
    /// follower observed the leader's artifact, so it counts a cache
    /// hit and a `collapsed` on top of the usual success accounting.
    pub fn record_collapsed_ok(&self, endpoint: &str, latency: Duration) {
        self.with_entry(endpoint, |s| {
            s.requests += 1;
            s.ok += 1;
            s.cache_hits += 1;
            s.collapsed += 1;
            s.latency.record(latency);
        });
    }

    /// Records a failure under its error class.
    pub fn record_error(&self, endpoint: &str, code: ErrorCode) {
        self.with_entry(endpoint, |s| {
            s.requests += 1;
            match code {
                ErrorCode::Overloaded => s.shed += 1,
                ErrorCode::DeadlineExceeded => s.expired += 1,
                _ => s.errors += 1,
            }
        });
    }

    /// All endpoints' latency histograms merged into one — the
    /// server-wide percentile view.
    pub fn merged_latency(&self) -> LatencyHistogram {
        let endpoints = self.endpoints.lock().expect("metrics lock");
        let mut merged = LatencyHistogram::new();
        for (_, stats) in endpoints.iter() {
            merged.merge(&stats.latency);
        }
        merged
    }

    /// The `metrics` endpoint payload.
    pub fn to_json(&self, queue_depth: usize) -> Json {
        let endpoints = self.endpoints.lock().expect("metrics lock");
        let per_endpoint: Vec<(String, Json)> =
            endpoints.iter().map(|(name, stats)| (name.clone(), stats.to_json())).collect();
        drop(endpoints);
        let overall = self.merged_latency();
        let us = |d: Duration| Json::Num((d.as_nanos() as f64) / 1e3);
        Json::obj(vec![
            ("uptime_ms", Json::Num(self.started.elapsed().as_secs_f64() * 1e3)),
            ("queue_depth", Json::Num(queue_depth as f64)),
            ("overall_p50_us", us(overall.p50())),
            ("overall_p95_us", us(overall.p95())),
            ("overall_p99_us", us(overall.p99())),
            ("samples", Json::Num(overall.count() as f64)),
            ("endpoints", Json::Obj(per_endpoint)),
        ])
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_split_by_outcome_class() {
        let m = ServerMetrics::new();
        m.record_ok("sweep", Duration::from_micros(80), 3, 5);
        m.record_ok("sweep", Duration::from_micros(120), 8, 0);
        m.record_error("sweep", ErrorCode::Overloaded);
        m.record_error("sweep", ErrorCode::DeadlineExceeded);
        m.record_error("sweep", ErrorCode::Internal);
        let doc = m.to_json(2);
        let sweep = doc.get("endpoints").and_then(|e| e.get("sweep")).expect("entry");
        let n = |k: &str| sweep.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(n("requests"), 5);
        assert_eq!(n("ok"), 2);
        assert_eq!(n("shed"), 1);
        assert_eq!(n("expired"), 1);
        assert_eq!(n("errors"), 1);
        assert_eq!(n("cache_hits"), 11);
        assert_eq!(n("cache_misses"), 5);
        assert_eq!(doc.get("queue_depth").and_then(Json::as_u64), Some(2));
        assert_eq!(doc.get("samples").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn collapsed_requests_count_ok_and_cache_hit_once() {
        let m = ServerMetrics::new();
        m.record_ok("montecarlo", Duration::from_micros(500), 0, 1);
        m.record_collapsed_ok("montecarlo", Duration::from_micros(40));
        m.record_collapsed_ok("montecarlo", Duration::from_micros(60));
        let doc = m.to_json(0);
        let mc = doc.get("endpoints").and_then(|e| e.get("montecarlo")).expect("entry");
        let n = |k: &str| mc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(n("requests"), 3);
        assert_eq!(n("ok"), 3);
        assert_eq!(n("collapsed"), 2);
        assert_eq!(n("cache_hits"), 2, "each follower observes the artifact once");
        assert_eq!(n("cache_misses"), 1, "only the leader computed");
    }

    #[test]
    fn merged_latency_spans_endpoints() {
        let m = ServerMetrics::new();
        m.record_ok("a", Duration::from_micros(10), 0, 1);
        m.record_ok("b", Duration::from_millis(10), 0, 1);
        let merged = m.merged_latency();
        assert_eq!(merged.count(), 2);
        assert!(merged.p99() >= Duration::from_millis(10));
    }
}
