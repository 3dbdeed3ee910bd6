//! `implant-server`: a std-only TCP simulation service over the
//! workspace models.
//!
//! The repository's scenarios — the Fig. 11 transient, the full
//! PA→coils→rectifier chain, the Monte Carlo yield study, the
//! power-vs-distance link budget — are batch programs. This crate turns
//! them into a long-lived service speaking newline-delimited JSON (the
//! runtime's own [`runtime::Json`] codec; no external dependency, still
//! offline-buildable), with the load-management shape a real service
//! needs:
//!
//! * **Bounded queue, explicit shedding** — admission happens at one
//!   place, [`queue::BoundedQueue::try_push`]; a full queue answers a
//!   structured `overloaded` error immediately instead of buffering
//!   without bound ([`queue`]).
//! * **Per-request deadlines** — every data request carries a deadline
//!   (its own `deadline_ms` or the server default); work that expires
//!   while queued is skipped, not executed into a void.
//! * **Per-endpoint metrics** — request/error/shed/expired counters,
//!   cache hits and a log-bucketed latency histogram with p50/p95/p99,
//!   served by the `metrics` endpoint ([`stats`]).
//! * **Graceful shutdown** — a `shutdown` request closes the queue,
//!   drains what was admitted, joins the workers and stops the
//!   listener; clients racing the drain get `shutting_down`, never a
//!   silent disconnect.
//! * **Panic isolation** — a handler panic is caught per request and
//!   returned as an `internal` error; the worker survives.
//! * **Typed, versioned protocol** — requests decode into per-endpoint
//!   parameter structs ([`proto::RequestBody`]) before they enter the
//!   queue; `health` advertises [`proto::VERSION`] /
//!   [`proto::MIN_VERSION`] and the v1 wire shape stays accepted.
//! * **One endpoint table, one wire error** — each data endpoint's name,
//!   decode, identity and execution are one impl on its parameter
//!   struct, reached by one lookup from a name or a body; every failure
//!   is one [`proto::WireError`] with one encoder, and a leader and its
//!   single-flight followers get their lines from one
//!   [`flight::Outcome::answer`].
//! * **Poller front-end** — accepted sockets are multiplexed onto a
//!   small nonblocking [`poller`] pool, so thread count is
//!   `pollers + workers + 1` regardless of open connections (DESIGN.md
//!   §14; the wire semantics are byte-identical to the old
//!   thread-per-connection loop).
//! * **Inline cache hits** — a cached-endpoint request whose answer is
//!   resident in memory is answered on the poller thread that read it,
//!   with the same bytes and accounting as a queued hit ([`conn`]).
//! * **Single-flight collapse** — concurrent identical data requests
//!   (same [`proto::RequestBody::route_point`] identity) attach to one
//!   in-flight computation ([`flight`]); followers cost no queue slot
//!   and no recomputation.
//! * **Stage observability** — connection and worker stages
//!   (`server.read` … `server.write`, plus
//!   `server.singleflight.{leader,follower}` and `server.hit.inline`)
//!   record into the [`obs`] registry; the `metrics_v2` endpoint serves
//!   the Prometheus-style exposition.
//!
//! Protocol and endpoint reference live in [`proto`], the endpoint
//! impls (`endpoint.rs`) and [`router`];
//! [`client`] is the matching typed client. `DESIGN.md` §8 documents
//! the semantics.
//!
//! # Example
//!
//! ```
//! use server::{Server, ServerConfig};
//! use std::io::{BufRead, BufReader, Write};
//!
//! let handle = Server::spawn(ServerConfig::default()).unwrap();
//! let mut conn = std::net::TcpStream::connect(handle.addr()).unwrap();
//! conn.write_all(b"{\"id\":1,\"endpoint\":\"health\"}\n").unwrap();
//! let mut line = String::new();
//! BufReader::new(conn.try_clone().unwrap()).read_line(&mut line).unwrap();
//! assert!(line.contains("\"ok\":true"));
//! handle.shutdown();
//! handle.join();
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod conn;
mod endpoint;
pub mod flight;
pub mod poller;
pub mod proto;
pub mod queue;
pub mod router;
pub mod stats;

use crate::flight::Outcome;
use crate::poller::PollerPool;
use crate::proto::RequestBody;
use crate::queue::BoundedQueue;
use crate::router::Router;
use crate::stats::ServerMetrics;
use runtime::Inflight;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tunables. The defaults serve the test/bench workloads. A test
/// forces a failure mode through a knob (queue capacity 0 → everything
/// sheds) or per request (a tiny `deadline_ms` → that request expires).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Request-queue capacity — the only buffer in the data plane.
    pub queue_capacity: usize,
    /// Worker threads consuming the queue.
    pub workers: usize,
    /// Poller threads multiplexing every accepted socket. Thread count
    /// is `pollers + workers + 1` however many connections are open.
    pub pollers: usize,
    /// Threads of the simulation [`runtime::Pool`] the router's computes
    /// and co-simulation calibrations run on.
    pub pool_workers: usize,
    /// Entry cap of each bounded result cache.
    pub cache_capacity: usize,
    /// Deadline applied when a request carries no `deadline_ms`. Only
    /// `Default` sets it; the benchmark reads it back into its report.
    pub default_deadline_ms: u64,
    /// Upper bound accepted for the `montecarlo` endpoint's `trials`.
    /// Only `Default` sets it; the benchmark reads it back.
    pub mc_trial_cap: u64,
    /// Close a connection after this long with no request on it,
    /// milliseconds; `0` (the default) disables the timeout. A timed-out
    /// peer gets a final structured `idle_timeout` error line before the
    /// close, so it can tell housekeeping from a network failure.
    pub idle_timeout_ms: u64,
    /// Root of the shared artifact tier (`implant-store`); `None` (the
    /// default) keeps every result cache private to this process.
    pub store_dir: Option<std::path::PathBuf>,
    /// The replica name this server writes its store manifest as
    /// (meaningful only with `store_dir`). Cluster members use their
    /// member name; a standalone server defaults to `"solo"`.
    pub store_replica: String,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            queue_capacity: 64,
            workers: 2,
            pollers: 2,
            pool_workers: 2,
            cache_capacity: 256,
            default_deadline_ms: 30_000,
            mc_trial_cap: 100_000,
            idle_timeout_ms: 0,
            store_dir: None,
            store_replica: "solo".to_string(),
        }
    }
}

/// One admitted data-plane request, waiting in the queue. The body is
/// already decoded and validated — workers never touch socket bytes.
pub struct Job {
    /// Client correlation id.
    pub id: u64,
    /// Typed, validated request body (always a data-plane variant).
    pub body: RequestBody,
    /// When the connection admitted the job (queueing time anchor).
    pub enqueued: Instant,
    /// Absolute deadline; expired jobs are skipped at dequeue.
    pub deadline: Instant,
    /// Channel the worker sends the finished response line on.
    pub reply: mpsc::Sender<String>,
    /// Single-flight key ([`runtime::cache_key`] over the request's
    /// `route_point`) when this job leads a flight; the worker resolves
    /// the flight when the job finishes.
    pub flight_key: Option<u64>,
}

/// State shared by the listener, every connection thread and every
/// worker.
pub struct Shared {
    /// The bounded request queue.
    pub queue: BoundedQueue<Job>,
    /// Endpoint dispatch + result caches.
    pub router: Router,
    /// Serving metrics.
    pub metrics: ServerMetrics,
    /// Default deadline for requests that specify none.
    pub default_deadline_ms: u64,
    /// Idle-connection timeout; `None` = never time out.
    pub idle_timeout: Option<std::time::Duration>,
    /// Single-flight table: route-point key → followers parked on the
    /// in-flight leader.
    pub flight: Inflight<flight::Waiter>,
    draining: AtomicBool,
    local_addr: SocketAddr,
    waker: OnceLock<poller::Waker>,
}

impl Shared {
    /// Nudges every poller thread (a reply or flight resolution is
    /// ready to flush). A no-op before the poller pool is wired up.
    pub fn wake_pollers(&self) {
        if let Some(waker) = self.waker.get() {
            waker.wake_all();
        }
    }

    /// True once shutdown has begun.
    pub fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Starts the drain exactly once: closes the queue (pending jobs
    /// still drain, new pushes fail `shutting_down`) and pokes the
    /// listener awake with a loopback connection so its blocking
    /// `accept` observes the flag.
    pub fn begin_shutdown(&self) {
        if self.draining.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Pollers re-check the drain flag and start closing flushed
        // connections right away.
        self.wake_pollers();
        let _ = TcpStream::connect(self.local_addr);
    }
}

/// The server: bound listener plus its worker fleet.
pub struct Server;

impl Server {
    /// Binds, spawns the accept loop and `config.workers` workers, and
    /// returns immediately.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind `config.addr`, or if a
    /// configured `store_dir` cannot be created.
    pub fn spawn(config: ServerConfig) -> io::Result<ServerHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let router = match &config.store_dir {
            Some(dir) => Router::with_store(
                config.pool_workers,
                config.cache_capacity,
                config.mc_trial_cap,
                Arc::new(store::Store::open(dir, &config.store_replica)?),
            ),
            None => Router::new(config.pool_workers, config.cache_capacity, config.mc_trial_cap),
        };
        let shared = Arc::new(Shared {
            queue: BoundedQueue::new(config.queue_capacity),
            router,
            metrics: ServerMetrics::new(),
            default_deadline_ms: config.default_deadline_ms,
            idle_timeout: (config.idle_timeout_ms > 0)
                .then(|| std::time::Duration::from_millis(config.idle_timeout_ms)),
            flight: Inflight::new(),
            draining: AtomicBool::new(false),
            local_addr,
            waker: OnceLock::new(),
        });

        let service = Arc::new(conn::ServerService::new(Arc::clone(&shared)));
        let pollers = PollerPool::spawn(config.pollers.max(1), service, "implant-server");
        shared.waker.set(pollers.waker()).ok().expect("waker set once");

        let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("implant-server-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let registrar = pollers.registrar();
            std::thread::Builder::new()
                .name("implant-server-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &registrar))
                .expect("spawn acceptor")
        };

        Ok(ServerHandle { shared, accept, workers, pollers })
    }
}

/// Accepts connections until the drain flag is up, registering each
/// socket with the poller pool — no per-connection thread. Once the
/// queue is closed a registered socket can only be answered control
/// requests and `shutting_down` errors, so the pollers drain and drop
/// them at join.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>, registrar: &poller::Registrar) {
    for stream in listener.incoming() {
        if shared.is_draining() {
            break;
        }
        let Ok(stream) = stream else { continue };
        registrar.register(stream);
    }
}

/// The worker loop: pop one job, expire-or-execute it, answer it and
/// its flight's followers from the one [`Outcome`]. Exits when the
/// queue is closed and drained.
fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let endpoint = job.body.endpoint();
        let queued = job.enqueued.elapsed();
        obs::observe!("server.queue_wait", queued);
        let started = Instant::now();
        // The deadline burned out while the job sat in the queue:
        // executing it now would waste a worker on an answer nobody is
        // waiting for. A handler panic is isolated here: this worker
        // thread survives and moves on.
        let (outcome, service) = if started >= job.deadline {
            (Outcome::Expired, Duration::ZERO)
        } else {
            let outcome = {
                let _execute = obs::span!("server.execute");
                let run = || shared.router.handle_typed(&job.body);
                std::panic::catch_unwind(AssertUnwindSafe(run))
                    .map_or(Outcome::Panicked, Outcome::Answer)
            };
            (outcome, started.elapsed())
        };
        let line = {
            let _encode = obs::span!("server.encode");
            let queue_us = queued.as_micros() as u64;
            outcome.answer(&shared.metrics, endpoint, job.id, queue_us, service, None)
        };
        let _ = job.reply.send(line);
        if let Some(key) = job.flight_key {
            flight::publish(&shared.flight, &shared.metrics, endpoint, key, &outcome, service);
        }
        shared.wake_pollers();
    }
}

/// Handle to a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    pollers: PollerPool,
}

impl ServerHandle {
    /// The bound address (resolves port 0 to the actual port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The shared state (for tests and in-process clients that want to
    /// inspect metrics without a socket round-trip).
    pub fn shared(&self) -> &Arc<Shared> {
        &self.shared
    }

    /// How many of the threads this server spawned — the acceptor, the
    /// pollers and the workers — are still running. Fixed by the
    /// config, whatever the number of open connections; unlike the
    /// process-wide thread count, other threads in the process do not
    /// move it.
    pub fn threads(&self) -> usize {
        let live = |t: &JoinHandle<()>| usize::from(!t.is_finished());
        live(&self.accept) + self.workers.iter().map(live).sum::<usize>() + self.pollers.threads()
    }

    /// Starts the drain, exactly like a `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain to complete: admitted jobs finish, workers
    /// and the listener exit. Returns the final server-wide latency
    /// histogram (merged over all endpoints) so callers can report it
    /// after the sockets are gone.
    ///
    /// Call [`ServerHandle::shutdown`] (or send a `shutdown` request)
    /// first; joining a live server blocks until someone does.
    ///
    /// # Panics
    ///
    /// Panics if a worker or the listener itself panicked, which would
    /// mean the isolation layers failed — a bug, not an operational
    /// condition.
    pub fn join(self) -> runtime::LatencyHistogram {
        for worker in self.workers {
            worker.join().expect("worker panicked");
        }
        self.accept.join().expect("acceptor panicked");
        // Workers are gone, so every pending reply has been sent; the
        // pollers flush what remains and drop their sockets.
        self.pollers.stop_and_join();
        self.shared.metrics.merged_latency()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use runtime::Json;
    use std::io::{BufRead, BufReader, Write};

    fn request(conn: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> Json {
        conn.write_all(line.as_bytes()).unwrap();
        conn.write_all(b"\n").unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        Json::parse(response.trim_end()).expect("response must be valid JSON")
    }

    fn connect(handle: &ServerHandle) -> (TcpStream, BufReader<TcpStream>) {
        let conn = TcpStream::connect(handle.addr()).unwrap();
        let reader = BufReader::new(conn.try_clone().unwrap());
        (conn, reader)
    }

    #[test]
    fn health_metrics_and_shutdown_round_trip() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let (mut conn, mut reader) = connect(&handle);

        let health = request(&mut conn, &mut reader, r#"{"id":1,"endpoint":"health"}"#);
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        let result = health.get("result").unwrap();
        assert_eq!(result.get("status").and_then(Json::as_str), Some("ok"));
        assert_eq!(result.get("draining"), Some(&Json::Bool(false)));
        assert_eq!(
            result.get("proto_version").and_then(Json::as_u64),
            Some(proto::VERSION),
            "health advertises the protocol version"
        );
        assert_eq!(
            result.get("min_proto_version").and_then(Json::as_u64),
            Some(proto::MIN_VERSION),
        );

        let sweep = request(
            &mut conn,
            &mut reader,
            r#"{"id":2,"endpoint":"sweep","params":{"steps":3}}"#,
        );
        assert_eq!(sweep.get("ok"), Some(&Json::Bool(true)));

        let metrics = request(&mut conn, &mut reader, r#"{"id":3,"endpoint":"metrics"}"#);
        let sweep_stats = metrics
            .get("result")
            .and_then(|r| r.get("endpoints"))
            .and_then(|e| e.get("sweep"))
            .expect("sweep must appear in metrics");
        assert_eq!(sweep_stats.get("ok").and_then(Json::as_u64), Some(1));

        let bye = request(&mut conn, &mut reader, r#"{"id":4,"endpoint":"shutdown"}"#);
        assert_eq!(bye.get("ok"), Some(&Json::Bool(true)));
        drop(conn);
        let overall = handle.join();
        assert_eq!(overall.count(), 1, "one data request was served");
    }

    #[test]
    fn zero_capacity_queue_sheds_with_structured_error() {
        let config = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
        let handle = Server::spawn(config).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        let doc = request(
            &mut conn,
            &mut reader,
            r#"{"id":9,"endpoint":"sweep","params":{"steps":2}}"#,
        );
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("overloaded"));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(9));
        // Control plane still answers on the same connection.
        let health = request(&mut conn, &mut reader, r#"{"id":10,"endpoint":"health"}"#);
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        drop(conn);
        handle.join();
    }

    #[test]
    fn expired_deadline_is_skipped_not_executed() {
        // One worker, and a first request that holds it long enough for
        // the second's 1 ms deadline to expire in the queue.
        let config = ServerConfig { workers: 1, ..ServerConfig::default() };
        let handle = Server::spawn(config).unwrap();
        let (mut slow_conn, mut slow_reader) = connect(&handle);
        let (mut fast_conn, mut fast_reader) = connect(&handle);

        slow_conn
            .write_all(
                b"{\"id\":1,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":4000}}\n",
            )
            .unwrap();
        // Give the worker a moment to claim the slow job before the
        // doomed one enters the queue.
        std::thread::sleep(std::time::Duration::from_millis(30));
        let doomed = request(
            &mut fast_conn,
            &mut fast_reader,
            r#"{"id":2,"endpoint":"sweep","deadline_ms":1,"params":{"steps":2}}"#,
        );
        assert_eq!(doomed.get("ok"), Some(&Json::Bool(false)));
        let code = doomed.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("deadline_exceeded"));

        let mut slow_response = String::new();
        slow_reader.read_line(&mut slow_response).unwrap();
        let slow = Json::parse(slow_response.trim_end()).unwrap();
        assert_eq!(slow.get("ok"), Some(&Json::Bool(true)), "{slow_response}");
        drop(slow_conn);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn post_shutdown_requests_get_shutting_down() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        request(&mut conn, &mut reader, r#"{"id":1,"endpoint":"shutdown"}"#);
        // The connection that asked for shutdown is still served its
        // control plane, but the data plane refuses new work.
        let doc = request(
            &mut conn,
            &mut reader,
            r#"{"id":2,"endpoint":"sweep","params":{"steps":2}}"#,
        );
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("shutting_down"));
        drop(conn);
        handle.join();
    }

    #[test]
    fn idle_connections_are_closed_with_a_structured_error() {
        let config = ServerConfig { idle_timeout_ms: 60, ..ServerConfig::default() };
        let handle = Server::spawn(config).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        // Activity resets the clock: a request inside the window works.
        let health = request(&mut conn, &mut reader, r#"{"id":1,"endpoint":"health"}"#);
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        // Then go quiet past the timeout: one unsolicited error line…
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let doc = Json::parse(line.trim_end()).expect("the close is announced in-protocol");
        assert_eq!(doc.get("ok"), Some(&Json::Bool(false)));
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("idle_timeout"));
        // …then EOF.
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection is closed");
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn idle_timeout_defaults_off() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        assert!(handle.shared().idle_timeout.is_none());
        let (mut conn, mut reader) = connect(&handle);
        // Well past the other test's window, the connection still serves.
        std::thread::sleep(std::time::Duration::from_millis(120));
        let health = request(&mut conn, &mut reader, r#"{"id":1,"endpoint":"health"}"#);
        assert_eq!(health.get("ok"), Some(&Json::Bool(true)));
        handle.shutdown();
        drop(conn);
        handle.join();
    }

    #[test]
    fn unknown_endpoints_share_one_metrics_bucket() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        let names: Vec<String> = (0..50).map(|i| format!("probe_{i}")).collect();
        for (id, name) in names.iter().enumerate() {
            let line = format!(r#"{{"id":{id},"endpoint":"{name}"}}"#);
            let doc = request(&mut conn, &mut reader, &line);
            let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
            assert_eq!(code, Some("unknown_endpoint"));
        }
        let metrics = request(&mut conn, &mut reader, r#"{"id":99,"endpoint":"metrics"}"#);
        let endpoints = metrics.get("result").and_then(|r| r.get("endpoints")).expect("endpoints");
        let Json::Obj(entries) = endpoints else { panic!("endpoints is an object: {endpoints}") };
        let unknown: Vec<&Json> =
            entries.iter().filter(|(name, _)| name == conn::UNKNOWN).map(|(_, s)| s).collect();
        assert_eq!(unknown.len(), 1, "one bucket: {endpoints}");
        assert_eq!(unknown[0].get("errors").and_then(Json::as_u64), Some(50));
        assert!(entries.iter().all(|(name, _)| !names.contains(name)), "{endpoints}");
        handle.shutdown();
        drop(conn);
        handle.join();
    }

    #[test]
    fn unknown_endpoint_and_malformed_lines_answer_inline() {
        let handle = Server::spawn(ServerConfig::default()).unwrap();
        let (mut conn, mut reader) = connect(&handle);
        let doc = request(&mut conn, &mut reader, r#"{"id":5,"endpoint":"frobnicate"}"#);
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("unknown_endpoint"));

        let doc = request(&mut conn, &mut reader, "this is not json");
        let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str);
        assert_eq!(code, Some("bad_request"));
        handle.shutdown();
        drop(conn);
        handle.join();
    }
}
