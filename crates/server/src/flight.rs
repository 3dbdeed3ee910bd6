//! Single-flight collapse: concurrent identical requests attach to one
//! in-flight computation and all observe its result.
//!
//! The connection layer keys each data request by its
//! [`route_point`](crate::proto::RequestBody::route_point) /
//! [`cache_key`](runtime::cache_key) identity. The first request for a
//! key becomes the **leader** — it is enqueued and executed like any
//! other job. Requests arriving while the leader is still in flight
//! become **followers**: they never enter the queue; their reply
//! channel is parked in a [`runtime::Inflight`] table until the worker
//! finishes the leader and calls [`publish`].
//!
//! [`publish`] is the single point where a flight resolves. It drains
//! every parked waiter exactly once — whatever the outcome — so a
//! panicking or expiring leader can never poison the key: the entry is
//! removed unconditionally and the next request for the key leads a
//! fresh flight. Every waiter's line, like the leader's own, is rendered
//! by [`Outcome::answer`] from the one outcome the leader resolved to.

use crate::proto::{err_response, ok_response_checked, ErrorCode, WireError};
use crate::router::Routed;
use crate::stats::ServerMetrics;
use runtime::Inflight;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// A follower parked on an in-flight computation: everything needed to
/// render and deliver its response once the leader resolves.
#[derive(Debug)]
pub struct Waiter {
    /// The follower's request id, echoed in its response.
    pub id: u64,
    /// When the follower arrived (its `queue_us` clock).
    pub enqueued: Instant,
    /// The follower's own deadline; expiry is judged per waiter.
    pub deadline: Instant,
    /// Channel back to the connection that issued the request.
    pub reply: mpsc::Sender<String>,
}

/// How a data request resolved: what its leader's line and every
/// follower's line are rendered from, by [`Outcome::answer`].
#[derive(Debug)]
pub enum Outcome {
    /// The router's answer — a result or a structured error — or the
    /// refusal that kept the leader out of the queue. Followers observe
    /// the same document or error (ids and timings differ per waiter).
    Answer(Result<Routed, WireError>),
    /// The leader's handler panicked. Every line is a structured
    /// `internal` error and the key is left clean for a retry.
    Panicked,
    /// The leader expired in the queue before service. Each request is
    /// judged against its *own* deadline: expired ones count `expired`
    /// exactly once; still-live followers are shed with `overloaded` so
    /// a retry can lead a fresh flight.
    Expired,
}

impl Outcome {
    /// Renders the line one request receives and records its metrics:
    /// the leader (`follower` `None`) or a follower, given its own
    /// deadline. `queue_us` is the request's own wait; `service` the
    /// leader's execution time.
    pub fn answer(
        &self,
        metrics: &ServerMetrics,
        endpoint: &str,
        id: u64,
        queue_us: u64,
        service: Duration,
        follower: Option<Instant>,
    ) -> String {
        let err = match self {
            Outcome::Answer(Ok(routed)) => {
                match follower {
                    None => metrics.record_ok(
                        endpoint,
                        service,
                        routed.cache_hits,
                        routed.cache_misses,
                    ),
                    Some(_) => metrics.record_collapsed_ok(endpoint, service),
                }
                let service_us = service.as_micros() as u64;
                return ok_response_checked(id, routed.result.clone(), queue_us, service_us);
            }
            Outcome::Answer(Err(e)) => e.clone(),
            Outcome::Panicked => WireError::new(
                ErrorCode::Internal,
                match follower {
                    None => "handler panicked; request isolated",
                    Some(_) => "single-flight leader panicked; retry",
                },
            ),
            Outcome::Expired if follower.is_some_and(|deadline| Instant::now() < deadline) => {
                WireError::new(
                    ErrorCode::Overloaded,
                    "single-flight leader expired in queue; retry",
                )
            }
            Outcome::Expired => WireError::new(
                ErrorCode::DeadlineExceeded,
                format!("deadline expired after {queue_us} µs in queue"),
            ),
        };
        metrics.record_error(endpoint, err.code);
        err_response(id, &err)
    }
}

/// Resolves the flight for `key`: drains all parked waiters and answers
/// each with its line from `outcome`.
///
/// The entry is removed unconditionally, so this never leaves a
/// poisoned key behind — even when the outcome is
/// [`Outcome::Panicked`]. Waiters whose connection has already gone
/// away are skipped silently (the send simply fails).
pub fn publish(
    flight: &Inflight<Waiter>,
    metrics: &ServerMetrics,
    endpoint: &str,
    key: u64,
    outcome: &Outcome,
    service: Duration,
) {
    for w in flight.complete(key) {
        let queue_us = w.enqueued.elapsed().as_micros() as u64;
        let line = outcome.answer(metrics, endpoint, w.id, queue_us, service, Some(w.deadline));
        let _ = w.reply.send(line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::{Flight, Json};

    fn park(
        flight: &Inflight<Waiter>,
        key: u64,
        id: u64,
        deadline: Instant,
    ) -> mpsc::Receiver<String> {
        let (tx, rx) = mpsc::channel();
        let joined = flight.join(
            key,
            Waiter { id, enqueued: Instant::now(), deadline, reply: tx },
        );
        assert_eq!(joined, Flight::Attached, "test leader must join first");
        rx
    }

    fn counters(metrics: &ServerMetrics, endpoint: &str) -> Json {
        metrics.to_json(0).get("endpoints").and_then(|e| e.get(endpoint)).cloned().expect("entry")
    }

    #[test]
    fn ok_outcome_delivers_identical_results_with_collapsed_accounting() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(7, dummy_waiter(0)), Flight::Leader);
        // Leader's own waiter slot is dropped by join(); park two followers.
        let rx1 = park(&flight, 7, 11, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 7, 12, Instant::now() + Duration::from_secs(5));
        let routed = Routed {
            result: Json::obj(vec![("answer", Json::Num(42.0))]),
            cache_hits: 0,
            cache_misses: 1,
        };
        publish(
            &flight,
            &metrics,
            "montecarlo",
            7,
            &Outcome::Answer(Ok(routed)),
            Duration::from_micros(900),
        );
        let l1 = rx1.recv().expect("follower 1 answered");
        let l2 = rx2.recv().expect("follower 2 answered");
        assert!(l1.contains("\"id\":11") && l2.contains("\"id\":12"));
        // The result document is the line's tail; it must be bit-identical.
        let body = |l: &str| l.split("\"result\":").nth(1).unwrap().to_string();
        assert!(l1.contains("\"answer\":42"));
        assert_eq!(body(&l1), body(&l2), "followers observe one result document");
        let mc = counters(&metrics, "montecarlo");
        let n = |k: &str| mc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!((n("ok"), n("collapsed"), n("cache_hits")), (2, 2, 2));
        assert!(flight.is_empty(), "flight entry removed");
    }

    #[test]
    fn route_error_propagates_code_and_field_to_every_follower() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(3, dummy_waiter(0)), Flight::Leader);
        let rx = park(&flight, 3, 9, Instant::now() + Duration::from_secs(5));
        let err = WireError::bad("trials", "trials must be positive");
        let outcome = Outcome::Answer(Err(err));
        publish(&flight, &metrics, "montecarlo", 3, &outcome, Duration::ZERO);
        let line = rx.recv().expect("answered");
        assert!(line.contains("\"code\":\"bad_request\""));
        assert!(line.contains("\"field\":\"trials\""));
        let mc = counters(&metrics, "montecarlo");
        assert_eq!(mc.get("errors").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn panicked_leader_frees_the_key_and_errs_followers_without_hanging() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        let rx1 = park(&flight, 5, 21, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 5, 22, Instant::now() + Duration::from_secs(5));
        publish(&flight, &metrics, "sweep", 5, &Outcome::Panicked, Duration::ZERO);
        for rx in [rx1, rx2] {
            let line = rx.recv().expect("follower answered, not hung");
            assert!(line.contains("\"code\":\"internal\""));
            assert!(line.contains("single-flight leader panicked"));
        }
        assert!(flight.is_empty(), "no poisoned entry");
        // The very next request for the key leads a fresh flight.
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        let sw = counters(&metrics, "sweep");
        assert_eq!(sw.get("errors").and_then(Json::as_u64), Some(2));
    }

    #[test]
    fn expired_leader_counts_each_expired_follower_once_and_sheds_live_ones() {
        let flight = Inflight::new();
        let metrics = ServerMetrics::new();
        assert_eq!(flight.join(8, dummy_waiter(0)), Flight::Leader);
        // One follower already past its own deadline, one still live.
        let rx_dead = park(&flight, 8, 31, Instant::now() - Duration::from_millis(5));
        let rx_live = park(&flight, 8, 32, Instant::now() + Duration::from_secs(30));
        publish(&flight, &metrics, "montecarlo", 8, &Outcome::Expired, Duration::ZERO);
        let dead = rx_dead.recv().expect("expired follower answered");
        assert!(dead.contains("\"code\":\"deadline_exceeded\""));
        let live = rx_live.recv().expect("live follower answered");
        assert!(live.contains("\"code\":\"overloaded\""));
        assert!(live.contains("leader expired in queue; retry"));
        let mc = counters(&metrics, "montecarlo");
        let n = |k: &str| mc.get(k).and_then(Json::as_u64).unwrap();
        assert_eq!(n("expired"), 1, "each expired follower counts expired exactly once");
        assert_eq!(n("shed"), 1, "live followers are shed, not expired");
        assert!(flight.is_empty());
    }

    #[test]
    fn publish_on_an_empty_key_is_a_quiet_no_op() {
        let flight: Inflight<Waiter> = Inflight::new();
        let metrics = ServerMetrics::new();
        publish(&flight, &metrics, "sweep", 99, &Outcome::Panicked, Duration::ZERO);
        let doc = metrics.to_json(0);
        let endpoints = doc.get("endpoints").expect("endpoints");
        assert!(endpoints.get("sweep").is_none(), "no metrics recorded");
    }

    fn dummy_waiter(id: u64) -> Waiter {
        let (tx, _rx) = mpsc::channel();
        Waiter {
            id,
            enqueued: Instant::now(),
            deadline: Instant::now() + Duration::from_secs(5),
            reply: tx,
        }
    }
}
