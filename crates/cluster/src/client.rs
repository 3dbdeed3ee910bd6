//! The resilient cluster client: rendezvous routing, bounded retries
//! with deterministic decorrelated-jitter backoff, reconnect, and
//! failover.
//!
//! One [`ClusterClient`] holds one lazily built connection per replica
//! and routes every data request by its [`server::proto::RequestBody::
//! route_point`] key: the rendezvous ranking of that key is both the
//! placement (first routable member) and the failover order (the rest).
//! Identical requests therefore land on the replica whose result cache
//! is already warm, and a replica death moves only that replica's keys.
//!
//! Failures split into two classes. *Retryable* — transport errors,
//! `overloaded`, `shutting_down`, `deadline_exceeded`, `idle_timeout` —
//! consume attempts and back off with decorrelated jitter
//! ([`Backoff`]), failing over along the rendezvous order. *Final* —
//! `bad_request`, `unknown_endpoint`, `internal` — are returned as the
//! structured responses they are: retrying a deterministic rejection
//! would only burn budget.
//!
//! Backoff delays are seeded from the runtime's xoshiro streams
//! ([`runtime::derive_seed`] of the policy seed and a per-request
//! stream index), so a test that replays the same request sequence
//! observes the same delays — retry schedules are reproducible, never
//! wall-clock folklore.
//!
//! With a [`HedgeConfig`] the client additionally *hedges* slow
//! cache-identity reads: the first attempt's read is capped at the
//! hedge threshold (plus seeded jitter — deterministic, replayable),
//! and when the rendezvous owner blows through it the client abandons
//! that socket (the loser is cancelled by dropping the pooled
//! connection) and immediately races the alternatives — the shared
//! artifact store first when one is attached ([`ClusterClient::
//! with_store`]), then the next member in rendezvous order with no
//! backoff pause. First response wins.

use crate::member::{HealthState, ReplicaSet};
use crate::rendezvous;
use server::client::{Client, ClientError, Response};
use server::proto::{DecodeLimits, RequestBody, WireError};
use server::router::render_cached_body;
use runtime::rng::Rng as _;
use runtime::{cache_key, derive_seed, Json, Xoshiro256PlusPlus};
use store::Store;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Retry budget and backoff shape.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Attempts per request (first try included).
    pub max_attempts: u32,
    /// Smallest backoff pause.
    pub base_backoff: Duration,
    /// Largest backoff pause.
    pub max_backoff: Duration,
    /// Root seed of the jitter streams (request `i` uses
    /// `derive_seed(seed, i)`).
    pub seed: u64,
    /// Bound on each TCP connect.
    pub connect_timeout: Duration,
    /// Deadline budget when the caller passes none.
    pub default_budget: Duration,
    /// Hedge slow cache-identity reads (`None` = never hedge).
    pub hedge: Option<HedgeConfig>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_millis(2),
            max_backoff: Duration::from_millis(50),
            seed: 0x1201_2013,
            connect_timeout: Duration::from_millis(250),
            default_budget: Duration::from_secs(10),
            hedge: None,
        }
    }
}

/// When and how to hedge a slow read.
///
/// Request `i` waits `threshold + uniform(0, jitter)` on the rendezvous
/// owner before hedging; the jitter is drawn from stream `i` of `seed`
/// ([`runtime::derive_seed`]), so hedge timing — like the backoff
/// schedule — replays bit-identically under a fixed seed.
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Patience with the primary before racing an alternative.
    pub threshold: Duration,
    /// Upper bound of the seeded jitter added to `threshold` (spreads
    /// concurrent hedgers; zero = fixed threshold).
    pub jitter: Duration,
    /// Root seed of the per-request jitter streams.
    pub seed: u64,
}

impl HedgeConfig {
    /// The primary's patience for request stream `stream`: `threshold +
    /// uniform(0, jitter)` on the stream's own xoshiro state. Pure —
    /// replaying a request sequence replays its hedge schedule.
    pub fn wait(&self, stream: u64) -> Duration {
        let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(self.seed, stream));
        let jitter = (rng.next_f64() * self.jitter.as_nanos() as f64) as u64;
        self.threshold + Duration::from_nanos(jitter)
    }
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            threshold: Duration::from_millis(150),
            jitter: Duration::from_millis(25),
            seed: 0x0b1e_c7ed,
        }
    }
}

/// Decorrelated-jitter backoff (`next = min(cap, uniform(base, 3·prev))`)
/// on a deterministic xoshiro stream.
pub struct Backoff {
    rng: Xoshiro256PlusPlus,
    base: Duration,
    cap: Duration,
    prev: Duration,
}

impl Backoff {
    /// Stream `stream` of `policy`'s jitter seed.
    pub fn new(policy: &RetryPolicy, stream: u64) -> Backoff {
        Backoff {
            rng: Xoshiro256PlusPlus::seed_from_u64(derive_seed(policy.seed, stream)),
            base: policy.base_backoff,
            cap: policy.max_backoff,
            prev: policy.base_backoff,
        }
    }

    /// The next pause. Grows roughly exponentially but decorrelated —
    /// concurrent clients spread out instead of thundering in lockstep.
    pub fn next_delay(&mut self) -> Duration {
        let base = self.base.as_nanos() as f64;
        let hi = (self.prev.as_nanos() as f64 * 3.0).max(base + 1.0);
        let drawn = base + self.rng.next_f64() * (hi - base);
        let delay = Duration::from_nanos(drawn as u64).min(self.cap);
        self.prev = delay;
        delay
    }
}

/// Per-client counters, deliberately *not* global observability: tests
/// read them without racing other clients' traffic. (The same events
/// also bump the global `cluster.retry` / `cluster.failover` stages.)
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClusterStats {
    /// Requests routed (one per `request*` call that reached the wire).
    pub routed: u64,
    /// Attempts beyond each request's first.
    pub retries: u64,
    /// Retries that moved to a different replica.
    pub failovers: u64,
    /// Connections (re)established.
    pub connects: u64,
    /// Primary reads abandoned past the hedge threshold.
    pub hedges: u64,
    /// Hedged reads answered from the shared artifact store.
    pub store_hits: u64,
}

/// A routed success: the response plus where and how it was won.
#[derive(Debug, Clone)]
pub struct RoutedResponse {
    /// The replica's response (possibly a structured final error).
    pub response: Response,
    /// Name of the replica that answered.
    pub replica: String,
    /// Attempts consumed (1 = first try).
    pub attempts: u32,
}

/// Why a routed request gave up.
#[derive(Debug)]
pub enum ClusterError {
    /// The membership is empty.
    NoMembers,
    /// The request itself is invalid (client-side decode).
    Decode(WireError),
    /// Retry budget or deadline budget ran out; carries the last
    /// failure seen.
    Exhausted {
        /// Attempts consumed.
        attempts: u32,
        /// Human-readable last failure.
        last: String,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoMembers => write!(f, "no replicas in the set"),
            ClusterError::Decode(e) => write!(f, "request rejected client-side: {}", e.message),
            ClusterError::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts: {last}")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Error codes worth another attempt (transient by contract).
fn retryable(code: &str) -> bool {
    matches!(
        code,
        "overloaded" | "shutting_down" | "deadline_exceeded" | "idle_timeout"
    )
}

/// A routing client over one [`ReplicaSet`].
pub struct ClusterClient {
    set: Arc<ReplicaSet>,
    policy: RetryPolicy,
    limits: DecodeLimits,
    conns: HashMap<String, Client>,
    stream: u64,
    stats: ClusterStats,
    store: Option<Arc<Store>>,
}

impl ClusterClient {
    /// A client over `set` with `policy`.
    pub fn new(set: Arc<ReplicaSet>, policy: RetryPolicy) -> ClusterClient {
        ClusterClient {
            set,
            policy,
            limits: DecodeLimits::default(),
            conns: HashMap::new(),
            stream: 0,
            stats: ClusterStats::default(),
            store: None,
        }
    }

    /// Attaches the shared artifact store: hedged cache-identity reads
    /// check it before failing over to another member, answering with
    /// replica name `"store"` on a hit.
    #[must_use]
    pub fn with_store(mut self, store: Arc<Store>) -> ClusterClient {
        self.store = Some(store);
        self
    }

    /// Counters so far.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// The set this client routes over.
    pub fn set(&self) -> &Arc<ReplicaSet> {
        &self.set
    }

    /// Routes one request with the default deadline budget.
    ///
    /// # Errors
    ///
    /// See [`ClusterClient::request_routed`].
    pub fn request(&mut self, endpoint: &str, params: Json) -> Result<Response, ClusterError> {
        self.request_routed(endpoint, params, None).map(|r| r.response)
    }

    /// Routes one request, retrying and failing over inside `budget`
    /// (`None` = the policy default). The returned [`RoutedResponse`]
    /// names the answering replica — campaign tests assert locality and
    /// failover with it.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Decode`] before any wire traffic if the request
    /// is invalid, [`ClusterError::NoMembers`] on an empty set, and
    /// [`ClusterError::Exhausted`] when the attempt or deadline budget
    /// runs out with only transient failures to show.
    pub fn request_routed(
        &mut self,
        endpoint: &str,
        params: Json,
        budget: Option<Duration>,
    ) -> Result<RoutedResponse, ClusterError> {
        let (body, key, order) = {
            let _route = obs::span!("cluster.route");
            let body = RequestBody::decode(endpoint, &params, &self.limits)
                .map_err(ClusterError::Decode)?;
            let key = body.route_point().map(|(ns, point)| cache_key(ns, &point));
            let order = self.candidate_order(key);
            (body, key, order)
        };
        if order.is_empty() {
            return Err(ClusterError::NoMembers);
        }
        self.stats.routed += 1;
        self.stream += 1;
        let mut backoff = Backoff::new(&self.policy, self.stream);
        let deadline = Instant::now() + budget.unwrap_or(self.policy.default_budget);
        // Only cache-identity requests hedge: anything else has no
        // store fallback and no locality to lose by just retrying.
        let hedge_wait = match (&self.policy.hedge, key) {
            (Some(h), Some(_)) => Some(h.wait(self.stream)),
            _ => None,
        };

        let mut attempts = 0u32;
        let mut last = "never attempted".to_string();
        let mut previous_member: Option<String> = None;
        let mut hedged = false;
        while attempts < self.policy.max_attempts {
            let slot = attempts as usize % order.len();
            let (name, addr) = &order[slot];
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            if attempts > 0 {
                self.stats.retries += 1;
                obs::count!("cluster.retry");
                if previous_member.as_deref() != Some(name) {
                    self.stats.failovers += 1;
                    obs::count!("cluster.failover");
                }
                // A hedge already waited out its threshold — race the
                // alternative now, don't add a backoff pause on top.
                if hedged && attempts == 1 {
                    backoff.next_delay(); // keep the stream in lockstep
                } else {
                    let pause = backoff.next_delay().min(remaining);
                    std::thread::sleep(pause);
                }
            }
            attempts += 1;
            previous_member = Some(name.clone());

            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                break;
            }
            // The primary attempt of a hedgeable request only gets the
            // hedge window; everyone after runs on the full budget.
            let hedge_bound = attempts == 1 && !hedged && hedge_wait.is_some();
            let attempt_budget = match (hedge_bound, hedge_wait) {
                (true, Some(wait)) => remaining.min(wait),
                _ => remaining,
            };
            match self.attempt(name, *addr, endpoint, params.clone(), attempt_budget) {
                Ok(response) => {
                    if response.is_ok() {
                        return Ok(RoutedResponse { response, replica: name.clone(), attempts });
                    }
                    match response.error_code() {
                        Some(code) if retryable(code) => {
                            last = format!("{name}: {code}");
                        }
                        // A final, structured verdict — the caller's to
                        // inspect, not ours to retry.
                        _ => {
                            return Ok(RoutedResponse {
                                response,
                                replica: name.clone(),
                                attempts,
                            })
                        }
                    }
                }
                Err(e) => {
                    // The connection is poisoned (dead socket, torn
                    // frame) or hedge-abandoned mid-read; drop it so
                    // the next attempt reconnects — the slow primary's
                    // in-flight read is cancelled with the socket.
                    self.conns.remove(name.as_str());
                    last = format!("{name}: {e}");
                    if hedge_bound {
                        hedged = true;
                        self.stats.hedges += 1;
                        obs::count!("cluster.hedge");
                        if let Some(won) = self.read_from_store(&body, key) {
                            self.stats.store_hits += 1;
                            return Ok(RoutedResponse {
                                response: won,
                                replica: "store".to_string(),
                                attempts,
                            });
                        }
                    }
                }
            }
        }
        Err(ClusterError::Exhausted { attempts, last })
    }

    /// The hedge's fastest alternative: a direct read of the shared
    /// artifact store, rendered into the same response document the
    /// owning replica would have served (marked `cached`, zero queue
    /// and service time — nothing ran).
    fn read_from_store(&self, body: &RequestBody, key: Option<u64>) -> Option<Response> {
        let value = self.store.as_ref()?.get(key?)?;
        let result = render_cached_body(body, &value)?;
        Some(Response::from_json(Json::obj(vec![
            ("v", Json::Num(2.0)),
            ("id", Json::Num(0.0)),
            ("ok", Json::Bool(true)),
            ("result", result),
            ("queue_us", Json::Num(0.0)),
            ("service_us", Json::Num(0.0)),
        ])))
    }

    /// Candidate `(name, addr)` order for one routing key: rendezvous
    /// ranking, routable members first, down members kept as a last
    /// resort (they may have recovered since the last probe).
    fn candidate_order(&self, key: Option<u64>) -> Vec<(String, std::net::SocketAddr)> {
        let members = self.set.members();
        let names: Vec<&str> = members.iter().map(|m| m.name()).collect();
        // Control bodies have no placement; any replica answers.
        let key = key.unwrap_or(0);
        let ranked = rendezvous::rank(&names, key);
        let by_name = |name: &str| {
            members
                .iter()
                .find(|m| m.name() == name)
                .map(|m| (m.name().to_string(), m.addr()))
        };
        let mut order: Vec<(String, std::net::SocketAddr)> = ranked
            .iter()
            .filter(|name| {
                members
                    .iter()
                    .any(|m| m.name() == **name && m.state() != HealthState::Down)
            })
            .filter_map(|name| by_name(name))
            .collect();
        for name in &ranked {
            if !order.iter().any(|(n, _)| n == name) {
                if let Some(pair) = by_name(name) {
                    order.push(pair);
                }
            }
        }
        order
    }

    /// One attempt on one replica: get-or-build the pooled connection,
    /// bound its read to the remaining budget, forward the deadline.
    fn attempt(
        &mut self,
        name: &str,
        addr: std::net::SocketAddr,
        endpoint: &str,
        params: Json,
        remaining: Duration,
    ) -> Result<Response, ClientError> {
        if !self.conns.contains_key(name) {
            let client = Client::builder()
                .connect_timeout(self.policy.connect_timeout.min(remaining))
                .connect(addr)?;
            self.conns.insert(name.to_string(), client);
            self.stats.connects += 1;
        }
        let client = self.conns.get_mut(name).expect("just inserted");
        client.set_read_timeout(Some(remaining))?;
        let deadline_ms = remaining.as_millis().max(1) as u64;
        client.request_with_deadline(endpoint, params, deadline_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_per_stream_and_bounded() {
        let policy = RetryPolicy::default();
        let delays = |stream: u64| -> Vec<Duration> {
            let mut b = Backoff::new(&policy, stream);
            (0..16).map(|_| b.next_delay()).collect()
        };
        assert_eq!(delays(1), delays(1), "same stream, same schedule");
        assert_ne!(delays(1), delays(2), "streams decorrelate");
        for d in delays(3) {
            assert!(d >= policy.base_backoff && d <= policy.max_backoff, "{d:?}");
        }
    }

    #[test]
    fn backoff_grows_from_the_base() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(1),
            ..RetryPolicy::default()
        };
        let mut b = Backoff::new(&policy, 0);
        let first = b.next_delay();
        let later: Duration = (0..8).map(|_| b.next_delay()).max().unwrap();
        assert!(first < Duration::from_millis(4), "{first:?} within 3x base");
        assert!(later > first, "jitter walks upward: {later:?} vs {first:?}");
    }

    #[test]
    fn hedge_schedule_is_deterministic_and_bounded() {
        let hedge = HedgeConfig {
            threshold: Duration::from_millis(10),
            jitter: Duration::from_millis(5),
            seed: 42,
        };
        let waits: Vec<Duration> = (1..=32).map(|s| hedge.wait(s)).collect();
        let again: Vec<Duration> = (1..=32).map(|s| hedge.wait(s)).collect();
        assert_eq!(waits, again, "same seed, same schedule");
        for w in &waits {
            assert!(
                *w >= hedge.threshold && *w <= hedge.threshold + hedge.jitter,
                "{w:?} outside [threshold, threshold + jitter]"
            );
        }
        let distinct: std::collections::BTreeSet<Duration> = waits.iter().copied().collect();
        assert!(distinct.len() > 16, "streams decorrelate: {distinct:?}");
        let other = HedgeConfig { seed: 43, ..hedge.clone() };
        assert_ne!(
            (1..=32).map(|s| other.wait(s)).collect::<Vec<_>>(),
            waits,
            "the root seed moves the whole schedule"
        );
    }

    #[test]
    fn zero_jitter_pins_the_hedge_wait_to_the_threshold() {
        let hedge = HedgeConfig {
            threshold: Duration::from_millis(25),
            jitter: Duration::ZERO,
            seed: 7,
        };
        for stream in 0..8 {
            assert_eq!(hedge.wait(stream), Duration::from_millis(25));
        }
    }

    #[test]
    fn retryable_codes_are_the_transient_ones() {
        for code in ["overloaded", "shutting_down", "deadline_exceeded", "idle_timeout"] {
            assert!(retryable(code), "{code}");
        }
        for code in ["bad_request", "unknown_endpoint", "simulation_failed", "internal"] {
            assert!(!retryable(code), "{code}");
        }
    }
}
