//! The cluster front proxy: one port, the same v2 wire protocol,
//! fan-out behind it.
//!
//! A client that speaks to one `implant-server` speaks to a
//! [`ClusterProxy`] unchanged: newline-delimited JSON requests in, one
//! response line per request, in order. The proxy rides the same
//! poller front-end as the server ([`server::poller`]): accepted
//! sockets are multiplexed onto a small poller pool, decoded requests
//! enter a bounded queue, and a fixed worker fleet — each worker with
//! its own routing [`ClusterClient`] (rendezvous placement, retries,
//! failover) — answers them. Thread count is
//! `pollers + workers + 1` regardless of how many clients connect.
//! Only the `id` is rewritten on the way back (plus the `replica`
//! stamp), so the payload bytes are whatever the replica produced.
//!
//! The control plane is answered *about the cluster*:
//!
//! * `health` — proxy status plus a per-replica membership table
//!   (name, address, up/down/unknown, probe count) and the up count;
//! * `metrics_v2` — the per-replica Prometheus expositions merged by
//!   [`obs::merge_prometheus`], every sample tagged `replica="<name>"`
//!   (byte-stable under replica count: a replica's lines are identical
//!   whether it is scraped alone or with peers);
//! * `metrics` — each reachable replica's serving metrics under its
//!   name;
//! * `shutdown` — acknowledges, then drains the whole set and stops
//!   the proxy.

use crate::client::{ClusterClient, ClusterError, RetryPolicy};
use crate::member::{HealthState, ReplicaSet};
use runtime::Json;
use server::client::Client;
use server::conn::MAX_LINE;
use server::poller::{LineAction, LineService, PollerPool};
use server::proto::{
    err_response, ok_response, ErrorCode, Request, WireError, VERSION,
};
use server::queue::{BoundedQueue, PushError};
use store::Store;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

/// Front-proxy tunables.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Routing policy handed to every worker's [`ClusterClient`].
    pub policy: RetryPolicy,
    /// Bound on each control-plane fetch from a replica (`metrics`,
    /// `metrics_v2`).
    pub control_timeout: Duration,
    /// Root of the shared artifact store: every worker's routing
    /// client gets it for hedged store reads (`None` = no store).
    pub store_dir: Option<PathBuf>,
    /// Proxy worker threads, each owning one routing client.
    pub workers: usize,
    /// Poller threads multiplexing the client sockets.
    pub pollers: usize,
    /// Bound of the proxy's request queue.
    pub queue_capacity: usize,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            addr: "127.0.0.1:0".to_string(),
            policy: RetryPolicy::default(),
            control_timeout: Duration::from_millis(1000),
            store_dir: None,
            workers: 4,
            pollers: 2,
            queue_capacity: 256,
        }
    }
}

/// The front proxy; [`ClusterProxy::spawn`] is the only entry point.
pub struct ClusterProxy;

/// One decoded request awaiting a proxy worker.
struct ProxyJob {
    request: Request,
    reply: mpsc::Sender<String>,
}

struct ProxyShared {
    set: Arc<ReplicaSet>,
    config: ProxyConfig,
    jobs: BoundedQueue<ProxyJob>,
    stop: AtomicBool,
    local_addr: SocketAddr,
    store: Option<Arc<Store>>,
    waker: OnceLock<server::poller::Waker>,
}

impl ProxyShared {
    fn begin_shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        self.jobs.close();
        self.set.shutdown();
        self.wake_pollers();
        // Poke the blocking accept so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    fn wake_pollers(&self) {
        if let Some(waker) = self.waker.get() {
            waker.wake_all();
        }
    }
}

/// The proxy's line protocol as a poller-driven [`LineService`]:
/// malformed lines and refusals are answered inline from the poller
/// thread; everything else — control plane included, since `metrics`
/// fans out over the network — is queued to the worker fleet.
struct ProxyService {
    shared: Arc<ProxyShared>,
}

impl LineService for ProxyService {
    fn handle_line(&self, line: &[u8]) -> LineAction {
        if line.iter().all(u8::is_ascii_whitespace) {
            return LineAction::Skip;
        }
        let request = match std::str::from_utf8(line) {
            Err(_) => {
                let err = WireError::new(ErrorCode::BadRequest, "request line is not UTF-8");
                return LineAction::Inline(err_response(0, &err));
            }
            Ok(text) => match Request::decode_line(text) {
                Err(e) => return LineAction::Inline(err_response(0, &e)),
                Ok(request) => request,
            },
        };
        if request.endpoint == "shutdown" {
            // Answer first, then drain: the poller flushes the ack
            // before the handle is joined, so it always reaches the
            // client.
            let body = Json::obj(vec![("draining", Json::Bool(true))]);
            let ack = ok_response(request.id, body, 0, 0);
            self.shared.begin_shutdown();
            return LineAction::Inline(ack);
        }
        let (reply, inbox) = mpsc::channel();
        match self.shared.jobs.try_push(ProxyJob { request, reply }) {
            Ok(()) => LineAction::Pending(inbox),
            Err(PushError::Full(job)) => {
                let capacity = self.shared.jobs.capacity();
                let message = format!("proxy queue full (capacity {capacity}); retry with backoff");
                let err = WireError::new(ErrorCode::Overloaded, message);
                LineAction::Inline(err_response(job.request.id, &err))
            }
            Err(PushError::Closed(job)) => {
                let err = WireError::new(ErrorCode::ShuttingDown, "proxy is draining; no new work");
                LineAction::Inline(err_response(job.request.id, &err))
            }
        }
    }

    fn oversized_line(&self) -> String {
        let message = format!("request line exceeds {MAX_LINE} bytes");
        err_response(0, &WireError::new(ErrorCode::BadRequest, message))
    }

    fn lost_line(&self) -> String {
        err_response(0, &WireError::new(ErrorCode::Internal, "proxy worker lost"))
    }
}

impl ClusterProxy {
    /// Binds the proxy port and starts the pollers, workers and accept
    /// loop.
    ///
    /// # Errors
    ///
    /// Fails if the listener cannot bind `config.addr` or the shared
    /// store directory cannot be opened.
    pub fn spawn(set: Arc<ReplicaSet>, config: ProxyConfig) -> io::Result<ProxyHandle> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let store = match &config.store_dir {
            Some(dir) => Some(Arc::new(Store::open(dir, "proxy")?)),
            None => None,
        };
        let jobs = BoundedQueue::new(config.queue_capacity);
        let workers_n = config.workers.max(1);
        let pollers_n = config.pollers.max(1);
        let shared = Arc::new(ProxyShared {
            set,
            config,
            jobs,
            stop: AtomicBool::new(false),
            local_addr,
            store,
            waker: OnceLock::new(),
        });

        let service = Arc::new(ProxyService { shared: Arc::clone(&shared) });
        let pollers = PollerPool::spawn(pollers_n, service, "implant-cluster");
        shared.waker.set(pollers.waker()).ok().expect("waker set once");

        let workers: Vec<JoinHandle<()>> = (0..workers_n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("implant-cluster-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn proxy worker")
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            let registrar = pollers.registrar();
            std::thread::Builder::new()
                .name("implant-cluster-accept".to_string())
                .spawn(move || accept_loop(&listener, &shared, &registrar))
                .expect("spawn proxy acceptor")
        };
        Ok(ProxyHandle { shared, accept, workers, pollers })
    }
}

/// Handle to a running proxy.
pub struct ProxyHandle {
    shared: Arc<ProxyShared>,
    accept: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
    pollers: PollerPool,
}

impl ProxyHandle {
    /// The proxy's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// The replica set behind the proxy.
    pub fn set(&self) -> &Arc<ReplicaSet> {
        &self.shared.set
    }

    /// Drains the replicas and stops accepting, exactly like a
    /// `shutdown` request would.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Waits for the drain: the accept loop exits, the workers finish
    /// what was admitted, the pollers flush and drop every socket.
    /// (Call [`ProxyHandle::shutdown`] first, or send a `shutdown`
    /// request.)
    pub fn join(self) {
        self.accept.join().expect("proxy acceptor panicked");
        for worker in self.workers {
            worker.join().expect("proxy worker panicked");
        }
        self.pollers.stop_and_join();
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<ProxyShared>,
    registrar: &server::poller::Registrar,
) {
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        registrar.register(stream);
    }
}

/// One proxy worker: its own routing client (and so its own connection
/// pool and jitter streams), jobs in, response lines out. Exits when
/// the queue is closed and drained.
fn worker_loop(shared: &Arc<ProxyShared>) {
    let mut router = ClusterClient::new(Arc::clone(&shared.set), shared.config.policy.clone());
    if let Some(store) = &shared.store {
        router = router.with_store(Arc::clone(store));
    }
    while let Some(job) = shared.jobs.pop() {
        let line = dispatch(job.request, shared, &mut router);
        let _ = job.reply.send(line);
        shared.wake_pollers();
    }
}

/// Answers one queued request (`shutdown` never gets here — the
/// service acks it inline so the ack cannot queue behind data work).
fn dispatch(request: Request, shared: &Arc<ProxyShared>, router: &mut ClusterClient) -> String {
    match request.endpoint.as_str() {
        "health" => cluster_health(request.id, shared),
        "metrics_v2" => merged_metrics_v2(request.id, shared),
        "metrics" => per_replica_metrics(request.id, shared),
        _ => {
            let budget = request.deadline_ms.map(Duration::from_millis);
            match router.request_routed(&request.endpoint, request.params, budget) {
                Ok(routed) => {
                    let doc = with_id(routed.response.into_json(), request.id);
                    with_replica(doc, &routed.replica).to_string()
                }
                Err(ClusterError::Decode(e)) => err_response(request.id, &e),
                Err(ClusterError::NoMembers) => err_response(
                    request.id,
                    &WireError::new(ErrorCode::Internal, "no replicas in the set"),
                ),
                Err(e @ ClusterError::Exhausted { .. }) => {
                    // Transient failures all the way down: tell the
                    // client to back off, exactly like one overloaded
                    // replica would.
                    err_response(request.id, &WireError::new(ErrorCode::Overloaded, e.to_string()))
                }
            }
        }
    }
}

/// Rewrites the response's `id` to the proxy client's correlation id
/// (the routed request carried the internal pool client's id).
fn with_id(json: Json, id: u64) -> Json {
    match json {
        Json::Obj(mut pairs) => {
            let mut found = false;
            for (key, value) in &mut pairs {
                if key == "id" {
                    *value = Json::Num(id as f64);
                    found = true;
                }
            }
            if !found {
                pairs.insert(0, ("id".to_string(), Json::Num(id as f64)));
            }
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// Stamps the answering replica's name on a proxied data response —
/// campaign clients read it to account locality, failover, and store
/// hits (`"store"`) without a side channel.
fn with_replica(json: Json, replica: &str) -> Json {
    match json {
        Json::Obj(mut pairs) => {
            if let Some((_, value)) = pairs.iter_mut().find(|(key, _)| key == "replica") {
                *value = Json::Str(replica.to_string());
            } else {
                pairs.push(("replica".to_string(), Json::Str(replica.to_string())));
            }
            Json::Obj(pairs)
        }
        other => other,
    }
}

/// `health` answered about the cluster: membership table + up count.
fn cluster_health(id: u64, shared: &Arc<ProxyShared>) -> String {
    let views = shared.set.snapshot();
    let up = views.iter().filter(|v| v.state == HealthState::Up).count();
    let replicas: Vec<Json> = views
        .iter()
        .map(|v| {
            Json::obj(vec![
                ("name", Json::Str(v.name.clone())),
                ("addr", Json::Str(v.addr.to_string())),
                (
                    "state",
                    Json::Str(
                        match v.state {
                            HealthState::Unknown => "unknown",
                            HealthState::Up => "up",
                            HealthState::Down => "down",
                        }
                        .to_string(),
                    ),
                ),
                ("probes", Json::Num(v.probes as f64)),
            ])
        })
        .collect();
    let body = Json::obj(vec![
        ("status", Json::Str(if up > 0 { "ok" } else { "degraded" }.to_string())),
        ("role", Json::Str("cluster-proxy".to_string())),
        ("proto_version", Json::Num(VERSION as f64)),
        ("min_proto_version", Json::Num(server::proto::MIN_VERSION as f64)),
        ("replicas", Json::Arr(replicas)),
        ("up", Json::Num(up as f64)),
    ]);
    ok_response(id, body, 0, 0)
}

/// One bounded control-plane client to a replica.
fn control_client(addr: SocketAddr, timeout: Duration) -> io::Result<Client> {
    Client::builder().connect_timeout(timeout).read_timeout(timeout).connect(addr)
}

/// `metrics_v2` merged over every reachable replica, labeled by name.
fn merged_metrics_v2(id: u64, shared: &Arc<ProxyShared>) -> String {
    let mut parts: Vec<(String, String)> = Vec::new();
    for member in shared.set.members() {
        if member.state() == HealthState::Down {
            continue;
        }
        let Ok(mut client) = control_client(member.addr(), shared.config.control_timeout) else {
            continue;
        };
        if let Ok(text) = client.metrics_v2_text() {
            parts.push((member.name().to_string(), text));
        }
    }
    let borrowed: Vec<(&str, &str)> =
        parts.iter().map(|(n, t)| (n.as_str(), t.as_str())).collect();
    let body = Json::obj(vec![
        ("format", Json::Str("prometheus-text".to_string())),
        ("text", Json::Str(obs::merge_prometheus(&borrowed))),
    ]);
    ok_response(id, body, 0, 0)
}

/// `metrics` forwarded per replica, keyed by member name.
fn per_replica_metrics(id: u64, shared: &Arc<ProxyShared>) -> String {
    let mut pairs: Vec<(String, Json)> = Vec::new();
    for member in shared.set.members() {
        if member.state() == HealthState::Down {
            continue;
        }
        let Ok(mut client) = control_client(member.addr(), shared.config.control_timeout) else {
            continue;
        };
        if let Ok(resp) = client.request("metrics", Json::Obj(Vec::new())) {
            if let Some(result) = resp.result() {
                pairs.push((member.name().to_string(), result.clone()));
            }
        }
    }
    let body = Json::Obj(vec![(
        "replicas".to_string(),
        Json::Obj(pairs),
    )]);
    ok_response(id, body, 0, 0)
}
