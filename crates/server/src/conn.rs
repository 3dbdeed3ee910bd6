//! The server's line protocol, as a [`LineService`] the poller
//! front-end drives.
//!
//! Control-plane endpoints (`health`, `metrics_v2`, `shutdown`) and
//! every rejection (malformed line, unknown endpoint, invalid
//! parameters, shed or closed queue) are answered inline from the
//! poller thread; only fully decoded data-plane requests enter the
//! bounded queue. That keeps the observability plane responsive even
//! when the data plane is saturated — a full queue still answers
//! `metrics_v2` instantly — and means workers never see invalid input.
//!
//! A data request whose answer is resident in the router's memory
//! cache is answered inline as well: `queue_us` 0, the lookup and
//! render as `service_us`, the same result bytes as a queued hit, and
//! counted `server.ok` plus `server.hit.inline` (the hit a queued
//! request counts as `pool.cache_hit`). Memory misses, store-tier hits
//! (no disk I/O on a poller), the uncached `fig11`/`fullchain` and
//! everything during a drain still go through the queue.
//!
//! Data requests with a [`RequestBody::route_point`] identity then join
//! the single-flight table: if an identical request is already in
//! flight, this one parks as a follower and is answered when the leader
//! publishes (counting `server.singleflight.follower`, its cache hit,
//! if answered ok) — it never occupies a queue slot or recomputes the
//! artifact. A leader the queue refuses
//! resolves its flight at once with the refusal.
//!
//! Each protocol stage records into the [`obs`] registry and the
//! server's scope: `server.read` (data-bearing socket reads),
//! `server.decode` (envelope + typed body), `server.queue_wait`,
//! `server.execute` and `server.encode` (worker side, see `worker_loop`
//! in `lib.rs`) and `server.write`. Every answered data request and
//! every rejected line counts once, as `server.ok` or as
//! `server.error.<code>`.

use crate::flight::{count_answer, Outcome, Waiter};
use crate::poller::{LineAction, LineService};
use crate::proto::{err_response, ok_line, ok_response, ErrorCode, Request, RequestBody, WireError};
use crate::queue::PushError;
use crate::{Job, Shared};
use runtime::{Flight, Json};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on one request line, bytes (newline excluded).
pub const MAX_LINE: usize = 64 * 1024;

/// The server's protocol as a poller-driven service: one [`Shared`]
/// behind every connection, no per-connection thread or state beyond
/// what the poller keeps.
pub(crate) struct ServerService {
    shared: Arc<Shared>,
}

impl ServerService {
    pub(crate) fn new(shared: Arc<Shared>) -> Self {
        ServerService { shared }
    }
}

impl LineService for ServerService {
    fn handle_line(&self, line: &[u8]) -> LineAction {
        if line.iter().all(u8::is_ascii_whitespace) {
            return LineAction::Skip; // blank keep-alive lines are free
        }
        let envelope = {
            let _decode = obs::span!("server.decode");
            match std::str::from_utf8(line) {
                Err(_) => Err(WireError::new(ErrorCode::BadRequest, "request line is not UTF-8")),
                Ok(text) => Request::decode_line(text),
            }
        };
        match envelope {
            Err(rejection) => {
                count_answer(Some(rejection.code));
                LineAction::Inline(err_response(0, &rejection))
            }
            Ok(request) => dispatch(request, &self.shared),
        }
    }

    fn oversized_line(&self) -> String {
        count_answer(Some(ErrorCode::BadRequest));
        let message = format!("request line exceeds {MAX_LINE} bytes");
        err_response(0, &WireError::new(ErrorCode::BadRequest, message))
    }

    fn idle_timeout(&self) -> Option<Duration> {
        self.shared.idle_timeout
    }

    fn idle_line(&self) -> String {
        count_answer(Some(ErrorCode::IdleTimeout));
        let timeout = self.shared.idle_timeout.unwrap_or_default();
        let message = format!("connection idle for {} ms; closing", timeout.as_millis());
        err_response(0, &WireError::new(ErrorCode::IdleTimeout, message))
    }

    fn lost_line(&self) -> String {
        // A worker dropped the reply channel without sending — only
        // possible if the worker thread itself died.
        err_response(0, &WireError::new(ErrorCode::Internal, "worker lost"))
    }
}

/// Routes one parsed envelope: control plane inline, data plane decoded
/// to a typed body and queued.
fn dispatch(request: Request, shared: &Arc<Shared>) -> LineAction {
    let body = {
        let _decode = obs::span!("server.decode");
        RequestBody::decode(&request.endpoint, &request.params, &shared.router.limits())
    };
    let body = match body {
        Ok(body) => body,
        Err(err) => {
            count_answer(Some(err.code));
            return LineAction::Inline(err_response(request.id, &err));
        }
    };
    let response = match body {
        RequestBody::Health => {
            let body = Json::obj(vec![
                ("status", Json::Str("ok".to_string())),
                ("proto_version", Json::Num(crate::proto::VERSION as f64)),
                ("min_proto_version", Json::Num(crate::proto::MIN_VERSION as f64)),
                ("draining", Json::Bool(shared.is_draining())),
                ("queue_depth", Json::Num(shared.queue.len() as f64)),
                ("queue_capacity", Json::Num(shared.queue.capacity() as f64)),
            ]);
            ok_response(request.id, &body, 0, 0)
        }
        RequestBody::MetricsV2 => {
            // This server's stage exposition, wrapped in JSON so the
            // one-line-per-response framing holds (the codec escapes the
            // newlines).
            let text = obs::render_prometheus(&shared.obs.snapshot());
            let body = Json::obj(vec![
                ("format", Json::Str("prometheus-text".to_string())),
                ("text", Json::Str(text)),
            ]);
            ok_response(request.id, &body, 0, 0)
        }
        RequestBody::Shutdown => {
            // Answer first, then start the drain: the client always gets
            // its acknowledgement even though the listener is about to go.
            let body = Json::obj(vec![("draining", Json::Bool(true))]);
            let response = ok_response(request.id, &body, 0, 0);
            shared.begin_shutdown();
            response
        }
        data => return submit(request.id, request.deadline_ms, data, shared),
    };
    LineAction::Inline(response)
}

/// Submits a decoded data-plane body: answer a memory-resident hit
/// inline, else join the single-flight table, then (as leader) the
/// bounded queue. All refusal paths produce structured errors — the
/// client is never hung up on or left waiting.
fn submit(
    id: u64,
    deadline_ms: Option<u64>,
    body: RequestBody,
    shared: &Arc<Shared>,
) -> LineAction {
    let now = Instant::now();
    let deadline_ms = deadline_ms.unwrap_or(shared.default_deadline_ms);
    let deadline = now + Duration::from_millis(deadline_ms);
    let (reply, inbox) = mpsc::channel();

    // Identical request already in flight? Attach to it — the leader's
    // publish answers us; no queue slot, no recomputation.
    let flight_key = body.route_point().map(|(ns, point)| runtime::cache_key(ns, &point));
    if let Some(key) = flight_key {
        // Already in memory? Answer here: no queue, no worker, no reply
        // channel. A draining server queues nothing new, hits included.
        if !shared.is_draining() {
            if let Some(line) = answer_resident(id, &body, key, shared) {
                return LineAction::Inline(line);
            }
        }
        let waiter = Waiter { id, enqueued: now, deadline, reply: reply.clone() };
        match shared.flight.join(key, waiter) {
            Flight::Attached => return LineAction::Pending(inbox),
            Flight::Leader => obs::count!("server.singleflight.leader"),
        }
    }

    let job = Job { id, body, enqueued: now, deadline, reply, flight_key };
    let (job, refusal) = match shared.queue.try_push(job) {
        Ok(()) => return LineAction::Pending(inbox),
        Err(PushError::Full(job)) => {
            let capacity = shared.queue.capacity();
            let message = format!("queue full (capacity {capacity}); retry with backoff");
            (job, WireError::new(ErrorCode::Overloaded, message))
        }
        Err(PushError::Closed(job)) => {
            (job, WireError::new(ErrorCode::ShuttingDown, "server is draining; no new work"))
        }
    };
    // A leader that failed admission resolves its flight at once:
    // followers that raced in between `join` and the failed push get the
    // same structured refusal, and the key is left clean.
    let outcome = Outcome::Answer(Err(refusal));
    if let Some(key) = job.flight_key {
        crate::flight::publish(&shared.flight, key, &outcome, Duration::ZERO);
        shared.wake_pollers();
    }
    LineAction::Inline(outcome.answer(job.id, 0, Duration::ZERO, None))
}

/// Answers a request whose result the router holds in memory, on the
/// calling poller: `queue_us` 0, the lookup and render as `service_us`,
/// counted `server.ok` and `server.hit.inline` (its one cache hit).
/// `None` sends the request down the queued path — memory misses,
/// store-tier hits (no disk I/O on a poller) and the uncached endpoints.
fn answer_resident(id: u64, body: &RequestBody, key: u64, shared: &Shared) -> Option<String> {
    let started = Instant::now();
    let result = shared.router.resident(body, key)?;
    let service = started.elapsed();
    obs::count!("server.hit.inline");
    count_answer(None);
    let _encode = obs::span!("server.encode");
    Some(ok_line(id, &result, 0, service.as_micros() as u64))
}
