//! S2 — fan-in load generator for `implant-server`.
//!
//! The poller front-end's claim is that threads track in-flight *work*
//! while sockets are nearly free, and that the single-flight layer
//! turns a duplicate-heavy fan-in into a trickle of real executions.
//! This harness measures both at scale:
//!
//! 1. parks an fd-budget-capped crowd of idle connections (~10k where
//!    the limit allows) on the server and asserts the process thread
//!    count does not move;
//! 2. drives a deterministic 90%-duplicate Monte Carlo workload from N
//!    concurrent driver connections *through* that crowd and reports
//!    sustained req/s plus p50/p95/p99 client-side latency;
//! 3. checks the collapse ledger against the schedule: the server must
//!    report exactly one `cache_miss` per distinct point — every
//!    duplicate is a hit (collapsed onto a live flight or replayed from
//!    cache), nothing is shed, nothing expires, nothing breaks.
//!
//! Each contract is a gate; the run exits non-zero if any fails.
//! `--profile` prints the per-stage breakdown from the [`obs`] registry;
//! `--json PATH` writes the `implant-bench/1` artifact `BENCH_fanin.json`.
//!
//! ```text
//! cargo run --release --bin bench_fanin -- --connections 10000 \
//!     --drivers 32 --requests 40 --profile --json BENCH_fanin.json
//! ```

use bench::{banner, profile_table, stage_rows, Gate, Op, Record};
use runtime::{Json, LatencyHistogram};
use server::client::Client;
use server::{Server, ServerConfig};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::time::Instant;
use testkit::adversary::{capped_connections, idle_soak, process_threads};

/// Command-line knobs (std-only parsing: `--flag value` pairs).
struct Args {
    connections: usize,
    drivers: usize,
    requests: usize,
    duplicate_pct: usize,
    hot_set: usize,
    mc_trials: u64,
    workers: usize,
    pollers: usize,
    profile: bool,
    json_path: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            connections: 10_000,
            drivers: 32,
            requests: 40,
            duplicate_pct: 90,
            hot_set: 4,
            mc_trials: 120,
            workers: 2,
            pollers: 2,
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
                "--connections" => args.connections = take("--connections"),
                "--drivers" => args.drivers = take("--drivers").max(1),
                "--requests" => args.requests = take("--requests").max(1),
                "--duplicate-pct" => args.duplicate_pct = take("--duplicate-pct").min(100),
                "--hot-set" => args.hot_set = take("--hot-set").max(1),
                "--mc-trials" => args.mc_trials = take("--mc-trials").max(1) as u64,
                "--workers" => args.workers = take("--workers").max(1),
                "--pollers" => args.pollers = take("--pollers").max(1),
                "--profile" => args.profile = true,
                "--json" => {
                    args.json_path =
                        Some(it.next().unwrap_or_else(|| panic!("--json needs a path")));
                }
                other => panic!(
                    "unknown flag {other:?} (known: --connections --drivers --requests \
                     --duplicate-pct --hot-set --mc-trials --workers --pollers --profile --json)"
                ),
            }
        }
        args
    }
}

/// The Monte Carlo seed request `i` of driver `d` asks for. The hot set
/// repeats across every driver (those are the duplicates the collapse
/// layer must merge); the rest are unique to their `(d, i)` slot.
fn point_seed(args: &Args, d: usize, i: usize) -> u64 {
    if (d * 31 + i * 7) % 100 < args.duplicate_pct {
        1_000 + ((d + i) % args.hot_set) as u64
    } else {
        1_000_000 + (d as u64) * 1_000_000 + i as u64
    }
}

/// The full deterministic schedule plus its distinct-key count —
/// computed up front so the collapse contract is exact, not estimated.
fn schedule(args: &Args) -> (Vec<Vec<u64>>, usize) {
    let plans: Vec<Vec<u64>> = (0..args.drivers)
        .map(|d| (0..args.requests).map(|i| point_seed(args, d, i)).collect())
        .collect();
    let unique: BTreeSet<u64> = plans.iter().flatten().copied().collect();
    (plans, unique.len())
}

/// What one driver saw.
#[derive(Default)]
struct DriverReport {
    ok: u64,
    overloaded: u64,
    other_errors: u64,
    /// Responses that never arrived or could not be parsed — must stay 0.
    broken: u64,
    latency: LatencyHistogram,
}

/// Drives one connection through its schedule of Monte Carlo points.
fn drive(addr: SocketAddr, plan: Vec<u64>, mc_trials: u64) -> DriverReport {
    let mut report = DriverReport::default();
    let Ok(mut client) = Client::connect(addr) else {
        report.broken += plan.len() as u64;
        return report;
    };
    for seed in plan {
        let params = Json::obj(vec![
            ("trials", Json::Num(mc_trials as f64)),
            ("seed", Json::Num(seed as f64)),
            ("scale", Json::Num(1.0)),
        ]);
        let started = Instant::now();
        let response = match client.request("montecarlo", params) {
            Ok(r) => r,
            Err(_) => {
                report.broken += 1;
                continue;
            }
        };
        report.latency.record(started.elapsed());
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
    report
}

/// Reads one numeric counter from `metrics.endpoints.montecarlo`.
fn mc_counter(client: &mut Client, key: &str) -> u64 {
    let metrics = client
        .request("metrics", Json::Obj(Vec::new()))
        .expect("metrics answers");
    metrics
        .result()
        .and_then(|r| r.get("endpoints"))
        .and_then(|e| e.get("montecarlo"))
        .and_then(|s| s.get(key))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("metrics missing endpoints.montecarlo.{key}"))
}

fn main() {
    let args = Args::parse();
    banner("S2", "high-fan-in serving: poller front-end + single-flight collapse");
    println!(
        "config: {} soak conns (pre-cap) · {} drivers × {} requests · {}% duplicates over a hot set of {} · {} MC trials · {} workers · {} pollers",
        args.connections,
        args.drivers,
        args.requests,
        args.duplicate_pct,
        args.hot_set,
        args.mc_trials,
        args.workers,
        args.pollers
    );

    let (plans, unique_keys) = schedule(&args);
    let total = (args.drivers * args.requests) as u64;
    let duplicates = total - unique_keys as u64;
    println!("schedule: {total} requests over {unique_keys} distinct points ({duplicates} duplicates)");

    obs::reset();
    let config = ServerConfig {
        workers: args.workers,
        pollers: args.pollers,
        // Headroom so the duplicate-collapse ledger is exact: no point
        // may be shed at the queue or recomputed after an LRU eviction.
        queue_capacity: (args.drivers * 2).max(64),
        cache_capacity: 1024,
        ..ServerConfig::default()
    };
    let handle = Server::spawn(config).expect("bind ephemeral port");
    let addr = handle.addr();
    println!("server: {addr}");

    // Phase 1: the idle crowd. Threads must not track sockets.
    let threads_before = process_threads();
    let soak_target = capped_connections(args.connections);
    let soak = idle_soak(addr, soak_target);
    let threads_during = process_threads();
    println!(
        "soak: {} idle connections parked · threads {threads_before} -> {threads_during}",
        soak.len()
    );

    // Phase 2: the duplicate-heavy workload through the crowd.
    let started = Instant::now();
    let drivers: Vec<std::thread::JoinHandle<DriverReport>> = plans
        .into_iter()
        .map(|plan| {
            let mc_trials = args.mc_trials;
            std::thread::spawn(move || drive(addr, plan, mc_trials))
        })
        .collect();
    let reports: Vec<DriverReport> =
        drivers.into_iter().map(|d| d.join().expect("driver thread")).collect();
    let wall = started.elapsed();

    let mut latency = LatencyHistogram::new();
    let (mut ok, mut overloaded, mut other, mut broken) = (0u64, 0u64, 0u64, 0u64);
    for r in &reports {
        latency.merge(&r.latency);
        ok += r.ok;
        overloaded += r.overloaded;
        other += r.other_errors;
        broken += r.broken;
    }
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
    println!("outcomes:  {ok} ok · {overloaded} overloaded · {other} other errors · {broken} broken");

    // Phase 3: the collapse ledger, read from the server's own metrics.
    let mut metrics_client = Client::connect(addr).expect("metrics connection");
    let mc_requests = mc_counter(&mut metrics_client, "requests");
    let misses = mc_counter(&mut metrics_client, "cache_misses");
    let hits = mc_counter(&mut metrics_client, "cache_hits");
    let collapsed = mc_counter(&mut metrics_client, "collapsed");
    let shed = mc_counter(&mut metrics_client, "shed");
    let expired = mc_counter(&mut metrics_client, "expired");
    println!(
        "collapse:  {misses} executions for {unique_keys} distinct points · {hits} hits ({collapsed} collapsed onto live flights) · {shed} shed · {expired} expired"
    );

    // Snapshot the stage registry before shutdown adds teardown noise.
    let rows = stage_rows();
    if args.profile {
        println!();
        println!("per-stage latency breakdown (share excludes idle-inclusive server.read):");
        print!("{}", profile_table(&rows));
    }

    // Phase 4: the loaded server still drains cleanly under the crowd.
    drop(soak);
    let drained = metrics_client
        .request("shutdown", Json::Obj(Vec::new()))
        .map(|r| r.is_ok())
        .unwrap_or(false);
    let overall = handle.join();
    println!("graceful shutdown: {} server-side samples", overall.count());

    let mut record = Record::new(
        "bench_fanin",
        vec![
            ("connections", args.connections as f64),
            ("drivers", args.drivers as f64),
            ("requests", args.requests as f64),
            ("duplicate_pct", args.duplicate_pct as f64),
            ("hot_set", args.hot_set as f64),
            ("mc_trials", args.mc_trials as f64),
            ("workers", args.workers as f64),
            ("pollers", args.pollers as f64),
        ],
    );
    record.metric("soak.connections", soak_target as f64);
    record.metric("wall_s", wall.as_secs_f64());
    record.metric("requests_total", total as f64);
    record.metric("throughput_rps", rps);
    let outcomes =
        [("ok", ok), ("overloaded", overloaded), ("other_errors", other), ("broken", broken)];
    for (name, n) in outcomes {
        record.metric(format!("outcomes.{name}"), n as f64);
    }
    record.latency("latency", &latency);
    record.metric("collapse.collapsed", collapsed as f64);
    let m = Measured {
        total,
        answered,
        broken,
        mc_requests,
        threads_before,
        threads_during,
        unique_keys: unique_keys as u64,
        duplicates,
        misses,
        hits,
        shed,
        expired,
        drained,
    };
    record.finish(&rows, &gates(&m), args.json_path.as_deref());
}

/// What the fan-in run is gated on.
struct Measured {
    total: u64,
    answered: u64,
    broken: u64,
    /// `montecarlo` requests the server's own metrics counted.
    mc_requests: u64,
    threads_before: usize,
    threads_during: usize,
    unique_keys: u64,
    duplicates: u64,
    misses: u64,
    hits: u64,
    shed: u64,
    expired: u64,
    drained: bool,
}

/// Every request answered; threads track work, not sockets; one
/// execution per distinct point with every duplicate a hit; a clean
/// drain under the crowd.
fn gates(m: &Measured) -> Vec<Gate> {
    let n = |v: u64| v as f64;
    vec![
        Gate::new("outcomes.broken", n(m.broken), Op::Eq, 0.0),
        Gate::new("outcomes.answered", n(m.answered), Op::Eq, n(m.total)),
        Gate::new("server.montecarlo_requests", n(m.mc_requests), Op::Eq, n(m.total)),
        Gate::new(
            "soak.threads_during",
            m.threads_during as f64,
            Op::Le,
            m.threads_before as f64 + 2.0,
        ),
        Gate::new("collapse.cache_misses", n(m.misses), Op::Eq, n(m.unique_keys)),
        Gate::new("collapse.cache_hits", n(m.hits), Op::Eq, n(m.duplicates)),
        Gate::new("collapse.shed", n(m.shed), Op::Eq, 0.0),
        Gate::new("collapse.expired", n(m.expired), Op::Eq, 0.0),
        Gate::flag("shutdown.drained", m.drained),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args() -> Args {
        Args {
            connections: 0,
            drivers: 8,
            requests: 25,
            duplicate_pct: 90,
            hot_set: 4,
            mc_trials: 50,
            workers: 2,
            pollers: 2,
            profile: false,
            json_path: None,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_counts_its_distinct_points() {
        let a = args();
        let (plans, unique) = schedule(&a);
        let (again, unique_again) = schedule(&a);
        assert_eq!(plans, again, "the schedule must be a pure function of the config");
        assert_eq!(unique, unique_again);
        assert_eq!(plans.len(), a.drivers);
        assert!(plans.iter().all(|p| p.len() == a.requests));
        // Distinct points are a small fraction of the request volume —
        // that is the whole premise of the duplicate-collapse bench.
        let total = a.drivers * a.requests;
        assert!(unique <= a.hot_set + total * (100 - a.duplicate_pct) / 100 + 1);
        assert!(unique >= a.hot_set, "the hot set itself is always touched");
    }

    #[test]
    fn hot_points_repeat_across_drivers_and_unique_points_never_do() {
        let a = args();
        let hot_range = 1_000..1_000 + a.hot_set as u64;
        let (plans, _) = schedule(&a);
        let mut seen_unique = BTreeSet::new();
        for plan in &plans {
            for &seed in plan {
                if !hot_range.contains(&seed) {
                    assert!(seen_unique.insert(seed), "unique point {seed} repeated");
                }
            }
        }
        // Every driver hits the shared hot set at a 90% duplicate rate.
        for (d, plan) in plans.iter().enumerate() {
            let hot = plan.iter().filter(|s| hot_range.contains(s)).count();
            assert!(hot * 10 >= plan.len() * 8, "driver {d} barely touched the hot set: {hot}");
        }
    }

    #[test]
    fn duplicate_pct_zero_makes_every_point_unique() {
        let a = Args { duplicate_pct: 0, ..args() };
        let (_, unique) = schedule(&a);
        assert_eq!(unique, a.drivers * a.requests);
    }

    #[test]
    fn duplicate_pct_hundred_collapses_the_schedule_to_the_hot_set() {
        let a = Args { duplicate_pct: 100, ..args() };
        let (_, unique) = schedule(&a);
        assert_eq!(unique, a.hot_set);
    }

    #[test]
    fn answered_threads_and_collapse_are_gated_with_their_bounds() {
        let m = Measured {
            total: 200,
            answered: 200,
            broken: 0,
            mc_requests: 200,
            threads_before: 6,
            threads_during: 8,
            unique_keys: 24,
            duplicates: 176,
            misses: 24,
            hits: 176,
            shed: 0,
            expired: 0,
            drained: true,
        };
        let specs: Vec<(String, Op, f64)> =
            gates(&m).into_iter().map(|g| (g.name, g.op, g.bound)).collect();
        let want = [
            ("outcomes.broken", Op::Eq, 0.0),
            ("outcomes.answered", Op::Eq, 200.0),
            ("server.montecarlo_requests", Op::Eq, 200.0),
            ("soak.threads_during", Op::Le, 8.0),
            ("collapse.cache_misses", Op::Eq, 24.0),
            ("collapse.cache_hits", Op::Eq, 176.0),
            ("collapse.shed", Op::Eq, 0.0),
            ("collapse.expired", Op::Eq, 0.0),
            ("shutdown.drained", Op::Eq, 1.0),
        ];
        let want: Vec<(String, Op, f64)> =
            want.iter().map(|&(n, op, b)| (n.to_string(), op, b)).collect();
        assert_eq!(specs, want);
        assert!(gates(&m).iter().all(Gate::holds));
        let failing = |m: Measured| -> Vec<String> {
            gates(&m).into_iter().filter(|g| !g.holds()).map(|g| g.name).collect()
        };
        assert_eq!(failing(Measured { threads_during: 9, ..m }), ["soak.threads_during"]);
        assert_eq!(failing(Measured { misses: 35, ..m }), ["collapse.cache_misses"]);
        assert_eq!(failing(Measured { broken: 3, ..m }), ["outcomes.broken"]);
    }

    /// Pinned seeds: the workload is part of the bench's contract — a
    /// silent change here would make runs incomparable across commits.
    #[test]
    fn point_seeds_are_pinned() {
        let a = args();
        assert_eq!(point_seed(&a, 0, 0), 1_000, "first point is hot slot 0");
        assert_eq!(point_seed(&a, 1, 2), 1_003, "hot slot cycles with d + i");
        assert_eq!(point_seed(&a, 0, 14), 1_000_014, "slot (0, 14) is unique");
        assert_eq!(point_seed(&a, 2, 4), 3_000_004, "slot (2, 4) is unique");
    }
}
