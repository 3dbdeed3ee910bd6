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
//! and counted by [`Outcome::answer`] from the one outcome the leader
//! resolved to.

use crate::proto::{err_response, ok_line, ErrorCode, WireError};
use crate::router::Routed;
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
    /// judged against its *own* deadline: expired ones count
    /// `deadline_exceeded` exactly once; still-live followers are shed
    /// with `overloaded` so a retry can lead a fresh flight.
    Expired,
}

/// Counts one answered data request or rejected line: `server.ok`, or
/// `server.error.<code>` for the error class it was answered with.
pub(crate) fn count_answer(error: Option<ErrorCode>) {
    match error {
        None => obs::count!("server.ok"),
        Some(ErrorCode::BadRequest) => obs::count!("server.error.bad_request"),
        Some(ErrorCode::UnknownEndpoint) => obs::count!("server.error.unknown_endpoint"),
        Some(ErrorCode::Overloaded) => obs::count!("server.error.overloaded"),
        Some(ErrorCode::DeadlineExceeded) => obs::count!("server.error.deadline_exceeded"),
        Some(ErrorCode::ShuttingDown) => obs::count!("server.error.shutting_down"),
        Some(ErrorCode::IdleTimeout) => obs::count!("server.error.idle_timeout"),
        Some(ErrorCode::SimulationFailed) => obs::count!("server.error.simulation_failed"),
        Some(ErrorCode::Internal) => obs::count!("server.error.internal"),
    }
}

impl Outcome {
    /// Renders and counts ([`count_answer`]) the line one request
    /// receives: the leader (`follower` `None`) or a follower, given its
    /// own deadline. A follower answered ok also counts
    /// `server.singleflight.follower`, its one cache hit. `queue_us` is
    /// the request's own wait; `service` the leader's execution time. A
    /// success line is encoded from the borrowed result, so the leader
    /// and its followers share one copy.
    pub fn answer(
        &self,
        id: u64,
        queue_us: u64,
        service: Duration,
        follower: Option<Instant>,
    ) -> String {
        let err = match self {
            Outcome::Answer(Ok(routed)) => {
                count_answer(None);
                if follower.is_some() {
                    obs::count!("server.singleflight.follower");
                }
                return ok_line(id, &routed.result, queue_us, service.as_micros() as u64);
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
        count_answer(Some(err.code));
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
pub fn publish(flight: &Inflight<Waiter>, key: u64, outcome: &Outcome, service: Duration) {
    for w in flight.complete(key) {
        let queue_us = w.enqueued.elapsed().as_micros() as u64;
        let line = outcome.answer(w.id, queue_us, service, Some(w.deadline));
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

    /// A fresh obs scope this thread records into while the guard lives.
    fn scoped() -> (obs::Scope, obs::Entered) {
        let scope = obs::Scope::default();
        let entered = scope.enter();
        (scope, entered)
    }

    fn count(scope: &obs::Scope, stage: &str) -> u64 {
        scope.snapshot().iter().find(|s| s.name == stage).map_or(0, |s| s.count)
    }

    #[test]
    fn ok_outcome_delivers_identical_results_and_counts_each_follower_ok() {
        let flight = Inflight::new();
        let (scope, _in) = scoped();
        assert_eq!(flight.join(7, dummy_waiter(0)), Flight::Leader);
        // Leader's own waiter slot is dropped by join(); park two followers.
        let rx1 = park(&flight, 7, 11, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 7, 12, Instant::now() + Duration::from_secs(5));
        let routed = Routed {
            result: Json::obj(vec![("answer", Json::Num(42.0))]),
            cache_hits: 0,
            cache_misses: 1,
        };
        publish(&flight, 7, &Outcome::Answer(Ok(routed)), Duration::from_micros(900));
        let l1 = rx1.recv().expect("follower 1 answered");
        let l2 = rx2.recv().expect("follower 2 answered");
        assert!(l1.contains("\"id\":11") && l2.contains("\"id\":12"));
        // The result document is the line's tail; it must be bit-identical.
        let body = |l: &str| l.split("\"result\":").nth(1).unwrap().to_string();
        assert!(l1.contains("\"answer\":42"));
        assert_eq!(body(&l1), body(&l2), "followers observe one result document");
        assert_eq!(count(&scope, "server.ok"), 2);
        assert_eq!(count(&scope, "server.singleflight.follower"), 2, "one hit per follower");
        assert!(flight.is_empty(), "flight entry removed");
    }

    #[test]
    fn route_error_propagates_code_and_field_to_every_follower() {
        let flight = Inflight::new();
        let (scope, _in) = scoped();
        assert_eq!(flight.join(3, dummy_waiter(0)), Flight::Leader);
        let rx = park(&flight, 3, 9, Instant::now() + Duration::from_secs(5));
        let err = WireError::bad("trials", "trials must be positive");
        let outcome = Outcome::Answer(Err(err));
        publish(&flight, 3, &outcome, Duration::ZERO);
        let line = rx.recv().expect("answered");
        assert!(line.contains("\"code\":\"bad_request\""));
        assert!(line.contains("\"field\":\"trials\""));
        assert_eq!(count(&scope, "server.error.bad_request"), 1);
    }

    #[test]
    fn panicked_leader_frees_the_key_and_errs_followers_without_hanging() {
        let flight = Inflight::new();
        let (scope, _in) = scoped();
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        let rx1 = park(&flight, 5, 21, Instant::now() + Duration::from_secs(5));
        let rx2 = park(&flight, 5, 22, Instant::now() + Duration::from_secs(5));
        publish(&flight, 5, &Outcome::Panicked, Duration::ZERO);
        for rx in [rx1, rx2] {
            let line = rx.recv().expect("follower answered, not hung");
            assert!(line.contains("\"code\":\"internal\""));
            assert!(line.contains("single-flight leader panicked"));
        }
        assert!(flight.is_empty(), "no poisoned entry");
        // The very next request for the key leads a fresh flight.
        assert_eq!(flight.join(5, dummy_waiter(0)), Flight::Leader);
        assert_eq!(count(&scope, "server.error.internal"), 2);
        assert_eq!(count(&scope, "server.singleflight.follower"), 0, "no hit on a panic");
    }

    #[test]
    fn expired_leader_counts_each_expired_follower_once_and_sheds_live_ones() {
        let flight = Inflight::new();
        let (scope, _in) = scoped();
        assert_eq!(flight.join(8, dummy_waiter(0)), Flight::Leader);
        // One follower already past its own deadline, one still live.
        let rx_dead = park(&flight, 8, 31, Instant::now() - Duration::from_millis(5));
        let rx_live = park(&flight, 8, 32, Instant::now() + Duration::from_secs(30));
        publish(&flight, 8, &Outcome::Expired, Duration::ZERO);
        let dead = rx_dead.recv().expect("expired follower answered");
        assert!(dead.contains("\"code\":\"deadline_exceeded\""));
        let live = rx_live.recv().expect("live follower answered");
        assert!(live.contains("\"code\":\"overloaded\""));
        assert!(live.contains("leader expired in queue; retry"));
        let n = |stage| count(&scope, stage);
        assert_eq!(n("server.error.deadline_exceeded"), 1, "each expired follower counts once");
        assert_eq!(n("server.error.overloaded"), 1, "live followers are shed, not expired");
        assert_eq!(n("server.singleflight.follower"), 0, "an expired flight serves no hit");
        assert!(flight.is_empty());
    }

    #[test]
    fn publish_on_an_empty_key_is_a_quiet_no_op() {
        let flight: Inflight<Waiter> = Inflight::new();
        let (scope, _in) = scoped();
        publish(&flight, 99, &Outcome::Panicked, Duration::ZERO);
        assert!(scope.snapshot().is_empty(), "nothing counted");
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
