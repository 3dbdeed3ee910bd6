//! S2 — replica-scaling and failover benchmark for `implant-cluster`.
//!
//! Two phases:
//!
//! 1. **Scaling** — spawns a replica set at N = 1, 2, 4 (1 and 2 under
//!    `--smoke`), each replica deliberately narrow (1 worker, 1 pool
//!    worker), and drives a pure cache-miss Monte Carlo workload
//!    (every request a unique seed) from concurrent routing clients.
//!    Reports sustained req/s and p50/p99 per N. With a hardware
//!    thread per replica plus one for the load generator (three at
//!    N = 2) the run *asserts* ≥ 1.7× req/s at N = 2 vs N = 1; on a
//!    smaller host the replicas and the drivers share cores, so the
//!    speedup is reported but not enforced. The sharder is checked on
//!    every host instead: each replica must answer at least half its
//!    fair share of the distinct keys (every key is a miss, so
//!    answering is executing). The keys are fixed, so the split is
//!    deterministic.
//!
//! 2. **Kill** — a 3-replica set under steady load loses one replica
//!    mid-run. Latency is reported for the windows before the kill,
//!    during the failover storm (prober not yet converged: every
//!    orphaned key pays connect-refused + retry), and after the member
//!    is marked down. The contract — asserted always — is zero lost
//!    in-deadline requests.
//!
//! 3. **Warm** (`--warm`) — the post-kill *repeat-read* comparison the
//!    shared artifact store exists for. The same workload runs twice:
//!    once bare (a kill orphans every victim-homed key, and re-reading
//!    it recomputes on the new owner) and once over a shared store with
//!    hedged reads (the orphaned keys are answered from the tier, and
//!    the victim rejoins via catch-up). Reports the post-kill p99 of
//!    both variants — the store run must shrink it — plus catch-up and
//!    hedge counters.
//!
//! Every contract is a gate and the run exits non-zero if any fails.
//! `--json PATH` writes the `implant-bench/1` artifact
//! `BENCH_cluster.json`; `--warm` adds the `warm.*` metrics
//! (`post_kill_p99_ms`, `catchup_keys`, `hedged_reads`) and gates.
//!
//! ```text
//! cargo run --release --bin bench_cluster -- --smoke --warm --json BENCH_cluster.json
//! ```

use bench::{banner, stage_rows, Gate, Op, Record};
use cluster::{ClusterClient, HealthState, HedgeConfig, ProbeConfig, ReplicaSet, RetryPolicy};
use runtime::{Json, LatencyHistogram};
use server::ServerConfig;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{CatchupBudget, Store};

struct Args {
    connections: usize,
    requests: usize,
    mc_trials: u64,
    smoke: bool,
    warm: bool,
    json_path: Option<String>,
}

impl Args {
    fn parse() -> Args {
        let mut args = Args {
            connections: 4,
            requests: 30,
            mc_trials: 150,
            smoke: false,
            warm: false,
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
                "--mc-trials" => args.mc_trials = take("--mc-trials").max(1) as u64,
                "--smoke" => args.smoke = true,
                "--warm" => args.warm = true,
                "--json" => {
                    args.json_path =
                        Some(it.next().unwrap_or_else(|| panic!("--json needs a path")));
                }
                other => panic!(
                    "unknown flag {other:?} (known: --connections --requests --mc-trials --smoke --warm --json)"
                ),
            }
        }
        if args.smoke {
            args.requests = args.requests.min(10);
            args.mc_trials = args.mc_trials.min(40);
            args.connections = args.connections.min(2);
        }
        args
    }
}

/// Narrow replicas: scaling must come from replica count, not from
/// spare per-replica parallelism.
fn replica_config() -> ServerConfig {
    ServerConfig { workers: 1, pool_workers: 1, queue_capacity: 256, ..ServerConfig::default() }
}

fn probe() -> ProbeConfig {
    ProbeConfig { interval: Duration::from_millis(5), ..ProbeConfig::default() }
}

fn mc_params(seed: u64, trials: u64) -> Json {
    Json::obj(vec![
        ("trials", Json::Num(trials as f64)),
        ("seed", Json::Num(seed as f64)),
    ])
}

/// One scaling point's outcome.
struct ScalePoint {
    replicas: usize,
    wall: Duration,
    latency: LatencyHistogram,
    ok: u64,
    broken: u64,
    /// Distinct keys each replica answered, by replica name.
    answered: BTreeMap<String, u64>,
}

impl ScalePoint {
    fn rps(&self) -> f64 {
        self.ok as f64 / self.wall.as_secs_f64()
    }
}

/// Drives `connections × requests` unique-seed Monte Carlo requests at
/// a fresh N-replica set; every request is a cache miss on its home.
fn scale_point(n: usize, args: &Args) -> ScalePoint {
    let set = ReplicaSet::spawn_local(n, &replica_config(), probe()).expect("spawn replicas");
    assert!(set.await_converged(Duration::from_secs(10)), "probes converge");
    let started = Instant::now();
    type Driven = (LatencyHistogram, u64, u64, BTreeMap<String, u64>);
    let drivers: Vec<std::thread::JoinHandle<Driven>> = (0..args.connections)
        .map(|c| {
            let set = Arc::clone(&set);
            let (requests, trials) = (args.requests, args.mc_trials);
            std::thread::spawn(move || {
                let mut client = ClusterClient::new(set, RetryPolicy::default());
                let mut latency = LatencyHistogram::new();
                let (mut ok, mut broken) = (0u64, 0u64);
                let mut answered = BTreeMap::new();
                for i in 0..requests {
                    // Unique per (N, connection, request): never a hit.
                    let seed = (n as u64) << 40 | (c as u64) << 20 | i as u64;
                    let at = Instant::now();
                    match client.request_routed("montecarlo", mc_params(seed, trials), None) {
                        Ok(routed) if routed.response.is_ok() => {
                            latency.record(at.elapsed());
                            ok += 1;
                            *answered.entry(routed.replica).or_default() += 1;
                        }
                        _ => broken += 1,
                    }
                }
                (latency, ok, broken, answered)
            })
        })
        .collect();
    let mut latency = LatencyHistogram::new();
    let (mut ok, mut broken) = (0u64, 0u64);
    let mut answered = BTreeMap::new();
    for driver in drivers {
        let (hist, o, b, by_replica) = driver.join().expect("driver thread");
        latency.merge(&hist);
        ok += o;
        broken += b;
        for (replica, keys) in by_replica {
            *answered.entry(replica).or_default() += keys;
        }
    }
    let wall = started.elapsed();
    set.shutdown();
    ScalePoint { replicas: n, wall, latency, ok, broken, answered }
}

/// One kill-phase window: sequential requests with recorded latency.
fn drive_window(
    client: &mut ClusterClient,
    seeds: std::ops::Range<u64>,
    trials: u64,
) -> (LatencyHistogram, u64) {
    let mut latency = LatencyHistogram::new();
    let mut lost = 0u64;
    for seed in seeds {
        let at = Instant::now();
        match client.request_routed(
            "montecarlo",
            mc_params(seed, trials),
            Some(Duration::from_secs(30)),
        ) {
            Ok(routed) if routed.response.is_ok() => latency.record(at.elapsed()),
            _ => lost += 1,
        }
    }
    (latency, lost)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One `--warm` variant: post-kill repeat-read latency plus counters.
struct WarmVariant {
    post_kill: LatencyHistogram,
    lost: u64,
    hedges: u64,
    store_hits: u64,
    catchup_keys: u64,
}

/// Computes `requests` unique seeds on a 3-replica set, kills the
/// member owning the most of them, then re-reads every seed *without
/// waiting for the prober* — the repeat-read window the shared store
/// targets. With `store_dir` the replicas write through to the tier,
/// the re-reader hedges into it, and the victim rejoins via catch-up;
/// without, the orphaned keys recompute on their new owners.
fn warm_variant(args: &Args, store_dir: Option<&std::path::Path>) -> WarmVariant {
    let config = ServerConfig {
        store_dir: store_dir.map(std::path::Path::to_path_buf),
        ..replica_config()
    };
    let set = ReplicaSet::spawn_local(3, &config, probe()).expect("spawn replicas");
    assert!(set.await_converged(Duration::from_secs(10)));
    let budget = Some(Duration::from_secs(30));

    // Warm pass: every seed computed once, homes learned.
    let mut owned = std::collections::BTreeMap::<String, u64>::new();
    let mut warm = ClusterClient::new(set.clone(), RetryPolicy::default());
    for seed in 0..args.requests as u64 {
        let routed = warm
            .request_routed("montecarlo", mc_params(seed, args.mc_trials), budget)
            .expect("warm pass answered");
        assert!(routed.response.is_ok());
        *owned.entry(routed.replica).or_default() += 1;
    }
    let victim = owned
        .iter()
        .max_by_key(|(_, n)| **n)
        .map(|(name, _)| name.clone())
        .expect("at least one home");
    assert!(set.kill(&victim), "victim is killable");

    // Re-read pass, immediately: the prober has not necessarily caught
    // up, so victim-homed keys hit a dead socket first.
    let policy = RetryPolicy {
        hedge: store_dir.map(|_| HedgeConfig {
            threshold: Duration::from_millis(25),
            jitter: Duration::from_millis(5),
            seed: 0x1201_2013,
        }),
        ..RetryPolicy::default()
    };
    let mut reader = ClusterClient::new(set.clone(), policy);
    if let Some(dir) = store_dir {
        reader = reader.with_store(Arc::new(Store::open(dir, "bench-reader").expect("open store")));
    }
    let mut post_kill = LatencyHistogram::new();
    let mut lost = 0u64;
    for seed in 0..args.requests as u64 {
        let at = Instant::now();
        match reader.request_routed("montecarlo", mc_params(seed, args.mc_trials), budget) {
            Ok(routed) if routed.response.is_ok() => post_kill.record(at.elapsed()),
            _ => lost += 1,
        }
    }
    let stats = reader.stats();

    // With a store the victim rejoins warm before the set drains.
    let catchup_keys = if store_dir.is_some() {
        assert!(set.await_state(&victim, HealthState::Down, Duration::from_secs(10)));
        let report = set
            .rejoin_with_catchup(&victim, &CatchupBudget::default(), 0x2013)
            .expect("rejoin with catch-up");
        report.admitted
    } else {
        0
    };
    set.shutdown();
    WarmVariant { post_kill, lost, hedges: stats.hedges, store_hits: stats.store_hits, catchup_keys }
}

fn main() {
    let args = Args::parse();
    banner("S2", "implant-cluster replica scaling and failover");
    obs::reset();
    let replica_counts: &[usize] = if args.smoke { &[1, 2] } else { &[1, 2, 4] };
    let cores = std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1);
    println!(
        "config: {} connections × {} requests per point, {} MC trials, N ∈ {:?}, {} hardware threads",
        args.connections, args.requests, args.mc_trials, replica_counts, cores
    );

    // Phase 1: scaling table.
    println!();
    println!("replica scaling (pure cache-miss Monte Carlo):");
    println!("  {:>2}  {:>9}  {:>9}  {:>9}  {:>4}", "N", "req/s", "p50", "p99", "lost");
    let points: Vec<ScalePoint> = replica_counts.iter().map(|&n| scale_point(n, &args)).collect();
    for p in &points {
        println!(
            "  {:>2}  {:>9.1}  {:>9?}  {:>9?}  {:>4}",
            p.replicas,
            p.rps(),
            p.latency.p50(),
            p.latency.p99(),
            p.broken
        );
    }
    let speedup2 = points
        .iter()
        .find(|p| p.replicas == 2)
        .map(|p2| p2.rps() / points[0].rps().max(f64::MIN_POSITIVE));
    // One hardware thread per narrow replica, plus one for the drivers
    // and pollers: below that the N = 2 point cannot scale.
    let enforce_n2 = cores > 2;
    if let (Some(s), false) = (speedup2, enforce_n2) {
        println!(
            "  N=2 speedup {s:.2}× — {cores} hardware thread(s), fewer than two replicas \
             plus the load generator need; scaling check reported, not enforced"
        );
    }
    for p in points.iter().filter(|p| p.replicas > 1) {
        let shares: Vec<String> =
            p.answered.iter().map(|(name, keys)| format!("{name} {keys}")).collect();
        println!("  N={} keys per replica [{}] of {}", p.replicas, shares.join(", "), p.ok);
    }

    // Phase 2: kill a replica under load.
    println!();
    println!("replica kill under load (3 replicas, victim killed mid-run):");
    let set = ReplicaSet::spawn_local(3, &replica_config(), probe()).expect("spawn replicas");
    assert!(set.await_converged(Duration::from_secs(10)));
    let mut client = ClusterClient::new(set.clone(), RetryPolicy::default());
    let w = args.requests as u64;

    let (before, lost_before) = drive_window(&mut client, 0..w, args.mc_trials);
    let victim = set.members()[0].name().to_string();
    assert!(set.kill(&victim), "victim is killable");
    let (during, lost_during) = drive_window(&mut client, w..2 * w, args.mc_trials);
    assert!(
        set.await_state(&victim, HealthState::Down, Duration::from_secs(10)),
        "prober marks the victim down"
    );
    let (after, lost_after) = drive_window(&mut client, 2 * w..3 * w, args.mc_trials);
    let stats = client.stats();
    set.shutdown();

    let kill_lost = lost_before + lost_during + lost_after;
    println!("  {:>7}  {:>9}  {:>9}", "window", "p50", "p99");
    for (name, hist) in [("before", &before), ("during", &during), ("after", &after)] {
        println!("  {:>7}  {:>9?}  {:>9?}", name, hist.p50(), hist.p99());
    }
    println!(
        "  failovers {} · retries {} · reconnects {} · {} of {} answered",
        stats.failovers,
        stats.retries,
        stats.connects,
        3 * w - kill_lost,
        3 * w
    );

    // Phase 3: post-kill repeat reads, bare vs shared store.
    let warm = args.warm.then(|| {
        println!();
        println!("post-kill repeat reads (no store vs shared store + hedged reads):");
        let store_dir = std::env::temp_dir()
            .join(format!("implant-bench-cluster-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&store_dir);
        let baseline = warm_variant(&args, None);
        let stored = warm_variant(&args, Some(&store_dir));
        let _ = std::fs::remove_dir_all(&store_dir);
        println!("  {:>8}  {:>10}  {:>10}  {:>4}", "variant", "p50", "p99", "lost");
        for (name, v) in [("baseline", &baseline), ("store", &stored)] {
            println!(
                "  {:>8}  {:>10?}  {:>10?}  {:>4}",
                name,
                v.post_kill.p50(),
                v.post_kill.p99(),
                v.lost
            );
        }
        println!(
            "  catch-up pre-warmed {} keys · {} hedged reads · {} store hits",
            stored.catchup_keys, stored.hedges, stored.store_hits
        );
        (baseline, stored)
    });
    let rows = stage_rows();

    let mut record = Record::new(
        "bench_cluster",
        vec![
            ("connections", args.connections as f64),
            ("requests", args.requests as f64),
            ("mc_trials", args.mc_trials as f64),
            ("hardware_threads", cores as f64),
        ],
    );
    for p in &points {
        let at = format!("scaling.n{}", p.replicas);
        record.metric(format!("{at}.wall_s"), p.wall.as_secs_f64());
        record.metric(format!("{at}.throughput_rps"), p.rps());
        record.metric(format!("{at}.ok"), p.ok as f64);
        record.metric(format!("{at}.broken"), p.broken as f64);
        record.latency(&format!("{at}.latency"), &p.latency);
        for (name, &keys) in &p.answered {
            record.metric(format!("{at}.answered.{name}"), keys as f64);
        }
    }
    if let Some(s) = speedup2 {
        record.metric("speedup_n2", s);
    }
    for (name, hist) in [("before", &before), ("during", &during), ("after", &after)] {
        record.latency(&format!("kill.{name}"), hist);
    }
    record.metric("kill.lost", kill_lost as f64);
    record.metric("kill.failovers", stats.failovers as f64);
    record.metric("kill.retries", stats.retries as f64);
    if let Some((baseline, stored)) = &warm {
        for (name, v) in [("baseline", baseline), ("store", stored)] {
            record.metric(format!("warm.{name}.requests"), v.post_kill.count() as f64);
            record.metric(format!("warm.{name}.post_kill_p50_ms"), ms(v.post_kill.p50()));
            record.metric(format!("warm.{name}.post_kill_p99_ms"), ms(v.post_kill.p99()));
            record.metric(format!("warm.{name}.lost"), v.lost as f64);
        }
        record.metric("warm.catchup_keys", stored.catchup_keys as f64);
        record.metric("warm.hedged_reads", stored.hedges as f64);
        record.metric("warm.store_hits", stored.store_hits as f64);
    }
    let gates = gates(&points, speedup2.filter(|_| enforce_n2), kill_lost, warm.as_ref());
    record.finish(&rows, &gates, args.json_path.as_deref());
}

/// The cluster contracts: no scaling point loses a request; the N = 2
/// point scales when `enforced_n2` carries its speedup; every replica
/// answers at least half its fair share of the keys (what a sharder
/// that funnels keys onto a subset of the set fails); a kill loses no
/// in-deadline request; and with `--warm`, neither variant loses one
/// and the store shrinks the post-kill p99.
fn gates(
    points: &[ScalePoint],
    enforced_n2: Option<f64>,
    kill_lost: u64,
    warm: Option<&(WarmVariant, WarmVariant)>,
) -> Vec<Gate> {
    let mut gates = Vec::new();
    for p in points {
        let at = format!("scaling.n{}", p.replicas);
        let fewest = p.answered.values().copied().min().unwrap_or(0);
        gates.push(Gate::new(format!("{at}.broken"), p.broken as f64, Op::Eq, 0.0));
        gates.push(Gate::new(
            format!("{at}.replicas_answering"),
            p.answered.len() as f64,
            Op::Eq,
            p.replicas as f64,
        ));
        gates.push(Gate::new(
            format!("{at}.fewest_keys"),
            fewest as f64,
            Op::Ge,
            p.ok as f64 / (2 * p.replicas) as f64,
        ));
    }
    if let Some(s) = enforced_n2 {
        gates.push(Gate::new("speedup_n2", s, Op::Ge, 1.7));
    }
    gates.push(Gate::new("kill.lost", kill_lost as f64, Op::Eq, 0.0));
    if let Some((baseline, stored)) = warm {
        gates.push(Gate::new("warm.baseline.lost", baseline.lost as f64, Op::Eq, 0.0));
        gates.push(Gate::new("warm.store.lost", stored.lost as f64, Op::Eq, 0.0));
        gates.push(Gate::new(
            "warm.store.post_kill_p99_ms",
            ms(stored.post_kill.p99()),
            Op::Lt,
            ms(baseline.post_kill.p99()),
        ));
    }
    gates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(replicas: usize, answered: &[u64]) -> ScalePoint {
        ScalePoint {
            replicas,
            wall: Duration::from_secs(1),
            latency: LatencyHistogram::new(),
            ok: answered.iter().sum(),
            broken: 0,
            answered: answered.iter().enumerate().map(|(i, &n)| (format!("r{i}"), n)).collect(),
        }
    }

    fn warm(post_kill_ms: u64, lost: u64) -> WarmVariant {
        let mut post_kill = LatencyHistogram::new();
        post_kill.record(Duration::from_millis(post_kill_ms));
        WarmVariant { post_kill, lost, hedges: 0, store_hits: 0, catchup_keys: 0 }
    }

    #[test]
    fn every_cluster_contract_is_gated_with_its_bound() {
        let points = [point(1, &[20]), point(2, &[11, 9])];
        let variants = (warm(200, 0), warm(20, 0));
        let gates = gates(&points, Some(1.9), 0, Some(&variants));
        let specs: Vec<(String, Op, f64)> =
            gates.iter().map(|g| (g.name.clone(), g.op, g.bound)).collect();
        let want = [
            ("scaling.n1.broken", Op::Eq, 0.0),
            ("scaling.n1.replicas_answering", Op::Eq, 1.0),
            ("scaling.n1.fewest_keys", Op::Ge, 10.0),
            ("scaling.n2.broken", Op::Eq, 0.0),
            ("scaling.n2.replicas_answering", Op::Eq, 2.0),
            ("scaling.n2.fewest_keys", Op::Ge, 5.0),
            ("speedup_n2", Op::Ge, 1.7),
            ("kill.lost", Op::Eq, 0.0),
            ("warm.baseline.lost", Op::Eq, 0.0),
            ("warm.store.lost", Op::Eq, 0.0),
            ("warm.store.post_kill_p99_ms", Op::Lt, ms(variants.0.post_kill.p99())),
        ];
        let want: Vec<(String, Op, f64)> =
            want.iter().map(|&(n, op, b)| (n.to_string(), op, b)).collect();
        assert_eq!(specs, want);
        assert!(gates.iter().all(Gate::holds));
    }

    #[test]
    fn unenforced_scaling_and_a_cold_run_add_no_gates() {
        let gates = gates(&[point(1, &[20]), point(2, &[10, 10])], None, 0, None);
        assert!(gates.iter().all(|g| g.name != "speedup_n2" && !g.name.starts_with("warm.")));
    }

    #[test]
    fn funnelled_keys_lost_requests_and_a_slow_store_fail() {
        let failing = |gates: Vec<Gate>| -> Vec<String> {
            gates.into_iter().filter(|g| !g.holds()).map(|g| g.name).collect()
        };
        let skewed = [point(1, &[20]), point(2, &[18, 2])];
        assert_eq!(failing(gates(&skewed, None, 0, None)), ["scaling.n2.fewest_keys"]);
        let one_replica = [point(1, &[20]), point(2, &[20])];
        assert_eq!(failing(gates(&one_replica, None, 0, None)), ["scaling.n2.replicas_answering"]);
        let points = [point(1, &[20]), point(2, &[10, 10])];
        assert_eq!(failing(gates(&points, Some(1.2), 1, None)), ["speedup_n2", "kill.lost"]);
        let slow_store = (warm(20, 0), warm(200, 1));
        assert_eq!(
            failing(gates(&points, None, 0, Some(&slow_store))),
            ["warm.store.lost", "warm.store.post_kill_p99_ms"]
        );
    }
}
