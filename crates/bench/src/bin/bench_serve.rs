//! S1 — load generator for `implant-server`.
//!
//! Spawns the server in-process on an ephemeral port, drives it from N
//! concurrent connections of the shared [`server::client::Client`] with
//! a deterministic mixed workload (sweeps, Monte Carlo studies,
//! full-chain runs, health probes), and reports sustained req/s plus
//! p50/p95/p99 client-side latency — overall and per endpoint.
//!
//! Beyond throughput, the run asserts the server's three load-management
//! contracts and exits non-zero if any fails:
//!
//! 1. every request gets a response — no hangs, no silent disconnects;
//! 2. a saturated queue sheds with a structured `overloaded` error
//!    (demonstrated against a capacity-0 server);
//! 3. `shutdown` drains gracefully: admitted work completes, the
//!    process-internal threads join, and post-drain requests get
//!    `shutting_down`.
//!
//! `--profile` prints the per-stage latency breakdown from the [`obs`]
//! registry (the server runs in-process, so its stages are visible
//! here); `--json PATH` writes the `implant-bench/1` artifact
//! `BENCH_serve.json`, whose gates are these three contracts.
//!
//! ```text
//! cargo run --release --bin bench_serve -- --connections 8 --requests 40 \
//!     --profile --json BENCH_serve.json
//! ```

use bench::{banner, profile_table, stage_rows, verdict, Gate, Op, Record};
use runtime::{Json, LatencyHistogram};
use server::client::Client;
use server::{Server, ServerConfig};
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::Instant;

/// Command-line knobs (std-only parsing: `--flag value` pairs).
struct Args {
    connections: usize,
    requests: usize,
    queue_capacity: usize,
    workers: usize,
    mc_trials: u64,
    profile: bool,
    json_path: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            connections: 4,
            requests: 40,
            queue_capacity: 64,
            workers: 2,
            mc_trials: 200,
            profile: false,
            json_path: None,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut take = |name: &str| -> usize {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("{name} needs a numeric value"))
            };
            match flag.as_str() {
                "--connections" => args.connections = take("--connections").max(1),
                "--requests" => args.requests = take("--requests").max(1),
                "--queue-capacity" => args.queue_capacity = take("--queue-capacity"),
                "--workers" => args.workers = take("--workers").max(1),
                "--mc-trials" => args.mc_trials = take("--mc-trials").max(1) as u64,
                "--profile" => args.profile = true,
                "--json" => {
                    args.json_path = Some(it.next().unwrap_or_else(|| {
                        panic!("--json needs a path")
                    }));
                }
                other => panic!(
                    "unknown flag {other:?} (known: --connections --requests --queue-capacity --workers --mc-trials --profile --json)"
                ),
            }
        }
        args
    }
}

/// What one client saw.
#[derive(Default)]
struct ClientReport {
    ok: u64,
    overloaded: u64,
    other_errors: u64,
    /// Responses that never arrived or could not be parsed — must stay 0.
    broken: u64,
    latency: LatencyHistogram,
    /// Client-observed latency per endpoint.
    by_endpoint: BTreeMap<&'static str, LatencyHistogram>,
}

/// One request/response round trip through the shared client; records
/// client-observed latency under `endpoint`.
fn rpc(client: &mut Client, endpoint: &'static str, params: Json, report: &mut ClientReport) {
    let started = Instant::now();
    let response = match client.request(endpoint, params) {
        Ok(r) => r,
        Err(_) => {
            report.broken += 1;
            return;
        }
    };
    let elapsed = started.elapsed();
    report.latency.record(elapsed);
    report.by_endpoint.entry(endpoint).or_default().record(elapsed);
    if response.is_ok() {
        report.ok += 1;
    } else {
        match response.error_code() {
            Some("overloaded") => report.overloaded += 1,
            Some(_) => report.other_errors += 1,
            None => report.broken += 1,
        }
    }
}

/// The deterministic mixed workload: request `i` of client `c`. Sweeps
/// and Monte Carlo points repeat across clients, so the run exercises
/// both cache misses (first touch) and hits (every repeat).
fn workload(client: usize, i: usize, mc_trials: u64) -> (&'static str, Json) {
    match (client * 31 + i * 7) % 10 {
        0..=3 => {
            let steps = 4 + (i % 3) * 2; // 4, 6, 8
            let d_max = 10 + (client % 3) * 10; // 10, 20, 30 mm
            (
                "sweep",
                Json::obj(vec![
                    ("steps", Json::Num(steps as f64)),
                    ("d_max_mm", Json::Num(d_max as f64)),
                ]),
            )
        }
        4..=6 => {
            let scale = [0.5, 1.0, 2.0][i % 3];
            (
                "montecarlo",
                Json::obj(vec![
                    ("trials", Json::Num(mc_trials as f64)),
                    ("scale", Json::Num(scale)),
                ]),
            )
        }
        7 => (
            "fullchain",
            Json::obj(vec![
                ("cycles", Json::Num(15.0)),
                ("distance_mm", Json::Num((6 + (i % 3) * 4) as f64)),
            ]),
        ),
        _ => ("health", Json::Obj(Vec::new())),
    }
}

/// Drives one client connection through its share of the workload.
fn drive(addr: SocketAddr, index: usize, requests: usize, mc_trials: u64) -> ClientReport {
    let mut report = ClientReport::default();
    let Ok(mut client) = Client::connect(addr) else {
        report.broken += requests as u64;
        return report;
    };
    for i in 0..requests {
        let (endpoint, params) = workload(index, i, mc_trials);
        rpc(&mut client, endpoint, params, &mut report);
    }
    report
}

/// Phase 2: a capacity-0 server must shed with `overloaded`, keep its
/// control plane answering, and still shut down cleanly.
fn overload_probe(workers: usize) -> bool {
    let config = ServerConfig {
        queue_capacity: 0,
        workers,
        ..ServerConfig::default()
    };
    let handle = match Server::spawn(config) {
        Ok(h) => h,
        Err(e) => {
            println!("  overload probe: spawn failed: {e}");
            return false;
        }
    };
    let mut report = ClientReport::default();
    let Ok(mut client) = Client::connect(handle.addr()) else {
        println!("  overload probe: connect failed");
        return false;
    };
    rpc(
        &mut client,
        "sweep",
        Json::obj(vec![("steps", Json::Num(2.0))]),
        &mut report,
    );
    rpc(&mut client, "health", Json::Obj(Vec::new()), &mut report);
    rpc(&mut client, "shutdown", Json::Obj(Vec::new()), &mut report);
    drop(client);
    handle.join();
    let ok = report.overloaded == 1 && report.ok == 2 && report.broken == 0;
    println!(
        "  full queue ⇒ structured overloaded … {} (shed {}, ok {}, broken {})",
        verdict(ok),
        report.overloaded,
        report.ok,
        report.broken
    );
    ok
}

fn main() {
    let args = Args::parse();
    banner("S1", "implant-server under concurrent load");
    println!(
        "config: {} connections × {} requests, queue capacity {}, {} workers, {} MC trials",
        args.connections, args.requests, args.queue_capacity, args.workers, args.mc_trials
    );

    obs::reset();
    let config = ServerConfig {
        queue_capacity: args.queue_capacity,
        workers: args.workers,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config).expect("bind ephemeral port");
    let addr = handle.addr();
    println!("server: {addr}");

    // Phase 1: the mixed workload from N concurrent connections.
    let started = Instant::now();
    let clients: Vec<std::thread::JoinHandle<ClientReport>> = (0..args.connections)
        .map(|index| {
            let (requests, mc_trials) = (args.requests, args.mc_trials);
            std::thread::spawn(move || drive(addr, index, requests, mc_trials))
        })
        .collect();
    let reports: Vec<ClientReport> =
        clients.into_iter().map(|c| c.join().expect("client thread")).collect();
    let wall = started.elapsed();

    let mut latency = LatencyHistogram::new();
    let mut by_endpoint: BTreeMap<&'static str, LatencyHistogram> = BTreeMap::new();
    let (mut ok, mut overloaded, mut other, mut broken) = (0u64, 0u64, 0u64, 0u64);
    for r in &reports {
        latency.merge(&r.latency);
        for (endpoint, hist) in &r.by_endpoint {
            by_endpoint.entry(endpoint).or_default().merge(hist);
        }
        ok += r.ok;
        overloaded += r.overloaded;
        other += r.other_errors;
        broken += r.broken;
    }
    let total = (args.connections * args.requests) as u64;
    let answered = ok + overloaded + other;
    let rps = answered as f64 / wall.as_secs_f64();

    println!();
    println!("sustained: {rps:.1} req/s over {:.2} s", wall.as_secs_f64());
    println!(
        "latency:   p50 {:?} · p95 {:?} · p99 {:?} ({} samples)",
        latency.p50(),
        latency.p95(),
        latency.p99(),
        latency.count()
    );
    for (endpoint, hist) in &by_endpoint {
        println!(
            "  {endpoint:<11} {:>5} reqs · p50 {:?} · p95 {:?} · p99 {:?}",
            hist.count(),
            hist.p50(),
            hist.p95(),
            hist.p99(),
        );
    }
    println!("outcomes:  {ok} ok · {overloaded} overloaded · {other} other errors · {broken} broken");

    // Snapshot the stage registry before the contract probes add noise.
    let rows = stage_rows();
    if args.profile {
        println!();
        println!("per-stage latency breakdown (share excludes idle-inclusive server.read):");
        print!("{}", profile_table(&rows));
    }

    let shed_ok = overload_probe(args.workers);

    // Phase 3: graceful shutdown of the loaded server.
    let drained = {
        let mut report = ClientReport::default();
        if let Ok(mut client) = Client::connect(addr) {
            rpc(&mut client, "shutdown", Json::Obj(Vec::new()), &mut report);
        }
        let overall = handle.join();
        println!("graceful shutdown: {} server-side samples", overall.count());
        report.ok == 1 && report.broken == 0
    };

    let mut record = Record::new(
        "bench_serve",
        vec![
            ("connections", args.connections as f64),
            ("requests", args.requests as f64),
            ("queue_capacity", args.queue_capacity as f64),
            ("workers", args.workers as f64),
            ("mc_trials", args.mc_trials as f64),
        ],
    );
    record.metric("wall_s", wall.as_secs_f64());
    record.metric("requests_total", total as f64);
    record.metric("throughput_rps", rps);
    let outcomes =
        [("ok", ok), ("overloaded", overloaded), ("other_errors", other), ("broken", broken)];
    for (name, n) in outcomes {
        record.metric(format!("outcomes.{name}"), n as f64);
    }
    record.latency("latency", &latency);
    for (endpoint, hist) in &by_endpoint {
        record.latency(&format!("endpoint.{endpoint}"), hist);
    }
    let gates = gates(&Measured { broken, answered, total, shed_ok, drained });
    record.finish(&rows, &gates, args.json_path.as_deref());
}

/// What the serving run is gated on.
struct Measured {
    broken: u64,
    answered: u64,
    total: u64,
    shed_ok: bool,
    drained: bool,
}

/// The three load-management contracts: every request answered, a full
/// queue sheds with a structured `overloaded`, and shutdown drains.
fn gates(m: &Measured) -> Vec<Gate> {
    vec![
        Gate::new("outcomes.broken", m.broken as f64, Op::Eq, 0.0),
        Gate::new("outcomes.answered", m.answered as f64, Op::Eq, m.total as f64),
        Gate::flag("overload_probe.sheds", m.shed_ok),
        Gate::flag("shutdown.drained", m.drained),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answered_shed_and_drained_are_gated() {
        let m = Measured { broken: 0, answered: 48, total: 48, shed_ok: true, drained: true };
        let specs: Vec<(String, Op, f64)> =
            gates(&m).into_iter().map(|g| (g.name, g.op, g.bound)).collect();
        let want = [
            ("outcomes.broken", Op::Eq, 0.0),
            ("outcomes.answered", Op::Eq, 48.0),
            ("overload_probe.sheds", Op::Eq, 1.0),
            ("shutdown.drained", Op::Eq, 1.0),
        ];
        let want: Vec<(String, Op, f64)> =
            want.iter().map(|&(n, op, b)| (n.to_string(), op, b)).collect();
        assert_eq!(specs, want);
        assert!(gates(&m).iter().all(Gate::holds));
        let failing = |m: Measured| gates(&m).into_iter().filter(|g| !g.holds()).count();
        assert_eq!(failing(Measured { broken: 1, answered: 47, ..m }), 2);
        assert_eq!(failing(Measured { shed_ok: false, ..m }), 1);
        assert_eq!(failing(Measured { drained: false, ..m }), 1);
    }
}
