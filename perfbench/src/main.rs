//! One benchmark for the implant simulation service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload interactive|transient|cosim --seed N --seconds S --trace 0|1
//! ```
//!
//! The benchmark spawns `Server::spawn(ServerConfig::default())`
//! in-process (plus a store directory for `interactive`), sets it up
//! several times to time set-up, then drives it through
//! `server::client::Client` from one or two closed-loop connections for
//! `--seconds` seconds. Every answer is checked after the window. With
//! `--trace 1` the same requests are then replayed in-process with spans
//! around the public calls of each layer (see `trace.rs`).
//!
//! The last line of standard output is the result object; the lines
//! before it print every metric by name with its unit, the host and
//! configuration facts, and the measured traffic. A wrong answer makes
//! the result `"correct": false` and the exit code 1. `README.md` in
//! this directory lists the metrics and workloads.

mod check;
mod stats;
mod trace;
mod workload;

use check::Checker;
use runtime::Json;
use server::client::{Client, ClientError, Response};
use server::{Server, ServerConfig, ServerHandle};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};
use workload::{Req, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Pinned environment: `IMPLANT_OBS` at its shipped default (on) and the
/// worker count at the host's two cores.
const PINNED_ENV: [(&str, &str); 2] = [("IMPLANT_OBS", "1"), ("IMPLANT_WORKERS", "2")];

/// Error codes that mean the server refused the request (load shedding,
/// drain, deadline) rather than failed it.
const REFUSALS: [&str; 3] = ["overloaded", "shutting_down", "deadline_exceeded"];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {s} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What came back for one request. Only `fig11`/`fullchain` answers are
/// kept whole (for the verdict and golden checks); the others keep a
/// fingerprint, so the records' memory does not grow with throughput.
#[derive(Clone)]
enum Outcome {
    Ok {
        fingerprint: u64,
        kept: Option<Box<Json>>,
        cached: Option<bool>,
        queue_us: u64,
        service_us: u64,
    },
    Refused(Box<str>),
    Failed(Box<str>),
}

/// One request of the window. The request itself is regenerated from
/// `(seed, index)` after the window.
#[derive(Clone)]
struct Record {
    index: u64,
    latency_ns: u64,
    outcome: Outcome,
}

impl Record {
    const UNUSED: Record = Record {
        index: u64::MAX,
        latency_ns: 0,
        outcome: Outcome::Ok {
            fingerprint: 0,
            kept: None,
            cached: None,
            queue_us: 0,
            service_us: 0,
        },
    };
}

fn outcome(endpoint: &str, resp: Result<Response, ClientError>) -> Outcome {
    match resp {
        Err(e) => Outcome::Failed(e.to_string().into()),
        Ok(r) if r.is_ok() => match (r.result(), r.queue_us(), r.service_us()) {
            (Some(result), Some(queue_us), Some(service_us)) => Outcome::Ok {
                fingerprint: check::fingerprint(result),
                kept: matches!(endpoint, "fig11" | "fullchain").then(|| Box::new(result.clone())),
                cached: result.get("cached").and_then(Json::as_bool),
                queue_us,
                service_us,
            },
            _ => Outcome::Failed(format!("incomplete answer {}", r.json()).into()),
        },
        Ok(r) => {
            let code = r.error_code().unwrap_or("unknown");
            if REFUSALS.contains(&code) {
                Outcome::Refused(code.into())
            } else {
                Outcome::Failed(format!("{code}: {}", r.error_message().unwrap_or("")).into())
            }
        }
    }
}

fn server_config(workload: Workload, scratch: &Path, setup: usize) -> ServerConfig {
    ServerConfig {
        store_dir: workload
            .uses_store()
            .then(|| scratch.join(format!("store-{setup}"))),
        ..ServerConfig::default()
    }
}

/// Starts a server, connects the workload's clients, waits for `health`
/// and sends the warm-up requests.
fn setup(
    workload: Workload,
    config: ServerConfig,
) -> Result<(ServerHandle, Vec<Client>, Duration), String> {
    let started = Instant::now();
    let handle = Server::spawn(config).map_err(|e| format!("server spawn: {e}"))?;
    let mut clients = Vec::new();
    for _ in 0..workload.connections() {
        let mut client = Client::connect(handle.addr()).map_err(|e| format!("connect: {e}"))?;
        if !client.health_ok() {
            return Err("server does not answer health".into());
        }
        clients.push(client);
    }
    for req in workload.warmup() {
        let resp = clients[0]
            .request(req.endpoint, req.params.clone())
            .map_err(|e| format!("warm-up {}: {e}", req.endpoint))?;
        if !resp.is_ok() {
            return Err(format!("warm-up {} failed: {}", req.endpoint, resp.json()));
        }
    }
    Ok((handle, clients, started.elapsed()))
}

fn stop(handle: ServerHandle, clients: Vec<Client>) {
    handle.shutdown();
    drop(clients);
    handle.join();
}

/// Drives the closed loop: each client takes the next index of the
/// shared sequence, sends it, waits for the answer, and repeats until
/// the window has passed. Returns the records in sequence order, the
/// clients, and the window from first send to last answer.
fn drive(
    workload: Workload,
    seed: u64,
    seconds: f64,
    clients: Vec<Client>,
) -> (Vec<Record>, Vec<Client>, Duration) {
    let next = AtomicU64::new(0);
    let window = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let per_client: Vec<(Vec<Record>, Client)> = std::thread::scope(|s| {
        let workers: Vec<_> = clients
            .into_iter()
            .map(|mut client| {
                let next = &next;
                s.spawn(move || {
                    // Written before the window, so the peak RSS does not
                    // depend on how many requests fit in it.
                    let mut records = vec![Record::UNUSED; workload.record_capacity()];
                    let mut n = 0;
                    while start.elapsed() < window {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let req = workload.request(seed, index);
                        let sent = Instant::now();
                        let resp = client.request(req.endpoint, req.params);
                        let latency = sent.elapsed();
                        let record = Record {
                            index,
                            latency_ns: u64::try_from(latency.as_nanos()).unwrap_or(u64::MAX),
                            outcome: outcome(req.endpoint, resp),
                        };
                        match records.get_mut(n) {
                            Some(slot) => *slot = record,
                            None => records.push(record),
                        }
                        n += 1;
                    }
                    records.truncate(n);
                    (records, client)
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut records = Vec::new();
    let mut clients = Vec::new();
    for (r, c) in per_client {
        records.extend(r);
        clients.push(c);
    }
    records.sort_by_key(|r| r.index);
    (records, clients, elapsed)
}

/// Stage counts from a `metrics_v2` exposition.
fn stage_counts(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter_map(|line| {
            let rest = line.strip_prefix("implant_obs_stage_count{stage=\"")?;
            let (name, value) = rest.split_once("\"} ")?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| format!("{e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// First line of a command's output, or `unknown` (waited for either way).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts(args: &Args, config: &ServerConfig) -> Json {
    let env = |k: &str| Json::Str(std::env::var(k).unwrap_or_else(|_| "unset".into()));
    Json::obj(vec![
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("IMPLANT_OBS", env("IMPLANT_OBS")),
        ("IMPLANT_WORKERS", env("IMPLANT_WORKERS")),
        ("seed", Json::Num(args.seed as f64)),
        ("workload", Json::Str(args.workload.name().into())),
        ("connections", Json::Num(args.workload.connections() as f64)),
        (
            "server_config",
            Json::obj(vec![
                ("queue_capacity", Json::Num(config.queue_capacity as f64)),
                ("workers", Json::Num(config.workers as f64)),
                ("pollers", Json::Num(config.pollers as f64)),
                ("pool_workers", Json::Num(config.pool_workers as f64)),
                ("cache_capacity", Json::Num(config.cache_capacity as f64)),
                (
                    "default_deadline_ms",
                    Json::Num(config.default_deadline_ms as f64),
                ),
                ("mc_trial_cap", Json::Num(config.mc_trial_cap as f64)),
                ("idle_timeout_ms", Json::Num(config.idle_timeout_ms as f64)),
                ("store", Json::Bool(config.store_dir.is_some())),
            ]),
        ),
    ])
}

/// A calibration identity of a cosim request: the inputs its tables read.
fn calibration_identity(req: &Req) -> String {
    let field = |k: &str| {
        req.params
            .get(k)
            .map_or("default".to_string(), Json::to_string)
    };
    match req.endpoint {
        "fig11" => format!("fig11:{}:{}", field("idle_amplitude"), field("r_source")),
        _ => format!("fullchain:{}:{}", field("distance_mm"), field("r_load")),
    }
}

/// The measured traffic: endpoint counts, cache hit share, calibration
/// identities.
fn traffic(records: &[Record], reqs: &[Req]) -> Json {
    let mut endpoints: BTreeMap<&str, u64> = BTreeMap::new();
    let mut classes: BTreeMap<String, u64> = BTreeMap::new();
    let (mut cache_hits, mut cacheable) = (0u64, 0u64);
    let mut identities: HashMap<String, u64> = HashMap::new();
    let mut fresh_identities = 0u64;
    for (r, req) in records.iter().zip(reqs) {
        *endpoints.entry(req.endpoint).or_default() += 1;
        *classes.entry(format!("{:?}", req.class)).or_default() += 1;
        if let Outcome::Ok {
            cached: Some(hit), ..
        } = &r.outcome
        {
            cacheable += 1;
            cache_hits += u64::from(*hit);
        }
        if req.params.get("cosim") == Some(&Json::Bool(true)) {
            let seen = identities.entry(calibration_identity(req)).or_default();
            if *seen == 0 {
                fresh_identities += 1;
            }
            *seen += 1;
        }
    }
    let cosim_requests: u64 = identities.values().sum();
    let to_obj = |m: BTreeMap<String, u64>| {
        Json::Obj(
            m.into_iter()
                .map(|(k, v)| (k, Json::Num(v as f64)))
                .collect(),
        )
    };
    Json::obj(vec![
        ("requests", Json::Num(records.len() as f64)),
        (
            "endpoints",
            to_obj(
                endpoints
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            ),
        ),
        ("classes", to_obj(classes)),
        ("cacheable", Json::Num(cacheable as f64)),
        (
            "cache_hit_share",
            Json::Num(if cacheable == 0 {
                0.0
            } else {
                cache_hits as f64 / cacheable as f64
            }),
        ),
        (
            "calibration_identities_fresh",
            Json::Num(fresh_identities as f64),
        ),
        (
            "calibration_identities_repeated",
            Json::Num(cosim_requests.saturating_sub(fresh_identities) as f64),
        ),
    ])
}

/// Direct-call answers for every distinct bit-equal request, computed on
/// two threads.
fn expected_answers(records: &[Record], reqs: &[Req]) -> HashMap<String, Json> {
    let mut distinct: Vec<&Req> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for (r, req) in records.iter().zip(reqs) {
        if matches!(r.outcome, Outcome::Ok { .. })
            && matches!(req.endpoint, "montecarlo" | "sweep" | "patientday")
            && seen.insert(check::identity(req))
        {
            distinct.push(req);
        }
    }
    let half = distinct.len().div_ceil(2);
    std::thread::scope(|s| {
        let parts: Vec<_> = distinct
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    chunk
                        .iter()
                        .filter_map(|req| check::expected(req).map(|e| (check::identity(req), e)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        parts
            .into_iter()
            .flat_map(|p| p.join().expect("check thread panicked"))
            .collect()
    })
}

/// Groups `items` by `key` (each group keeps its order) and interleaves
/// the groups, so a replay cut off by its time budget still reaches every
/// endpoint of the mix.
fn interleave<T>(items: Vec<T>, key: impl Fn(&T) -> &'static str) -> Vec<T> {
    let mut groups: Vec<(&'static str, VecDeque<T>)> = Vec::new();
    for item in items {
        let k = key(&item);
        match groups.iter_mut().find(|(g, _)| *g == k) {
            Some((_, group)) => group.push_back(item),
            None => groups.push((k, VecDeque::from([item]))),
        }
    }
    let mut out = Vec::new();
    while groups.iter().any(|(_, group)| !group.is_empty()) {
        out.extend(groups.iter_mut().filter_map(|(_, group)| group.pop_front()));
    }
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let out_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out"));
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("create {}: {e}", scratch.display()))?;
    let result = run_in(args, &scratch, &out_dir);
    let _ = std::fs::remove_dir_all(&scratch);
    result
}

fn run_in(args: &Args, scratch: &Path, out_dir: &Path) -> Result<bool, String> {
    let w = args.workload;
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    // Set-up, repeated; the last server stays up for the window.
    let mut setup_times = Vec::new();
    let mut live = None;
    for k in 0..SETUPS {
        let (handle, clients, took) = setup(w, server_config(w, scratch, k))?;
        setup_times.push(took.as_secs_f64());
        if k + 1 < SETUPS {
            stop(handle, clients);
        } else {
            live = Some((handle, clients));
        }
    }
    let (handle, mut clients) = live.expect("at least one set-up");
    let config = server_config(w, scratch, SETUPS - 1);

    let before = stage_counts(&clients[0].metrics_v2_text().map_err(|e| e.to_string())?);
    let (records, window);
    (records, clients, window) = drive(w, args.seed, args.seconds, clients);
    let rss = peak_rss_mb()?;
    let after = stage_counts(&clients[0].metrics_v2_text().map_err(|e| e.to_string())?);
    stop(handle, clients);

    // Checks, outside the window.
    let checker = Checker::default();
    let reqs: Vec<Req> = records
        .iter()
        .map(|r| w.request(args.seed, r.index))
        .collect();
    let expected = expected_answers(&records, &reqs);
    let (mut refused, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let mut golden_dev = 0.0f64;
    let mut golden_checked = 0u64;
    let mut latencies_ok = Vec::new();
    let mut problems: Vec<String> = Vec::new();
    for (r, req) in records.iter().zip(&reqs) {
        match &r.outcome {
            Outcome::Refused(code) => {
                refused += 1;
                problems.push(format!("request {} refused: {code}", r.index));
            }
            Outcome::Failed(why) => {
                failed += 1;
                problems.push(format!("request {} failed: {why}", r.index));
            }
            Outcome::Ok {
                fingerprint, kept, ..
            } => {
                let want = expected.get(&check::identity(req));
                match checker.check(req, kept.as_deref(), *fingerprint, want) {
                    Ok(dev) => {
                        if let Some(d) = dev {
                            golden_checked += 1;
                            golden_dev = golden_dev.max(d);
                        }
                        latencies_ok.push(r.latency_ns as f64 / 1e6);
                    }
                    Err(why) => {
                        wrong += 1;
                        problems.push(format!(
                            "request {} ({}) wrong: {why}",
                            r.index, req.endpoint
                        ));
                    }
                }
            }
        }
    }
    for p in problems.iter().take(20) {
        println!("problem: {p}");
    }
    let attempted = records.len() as u64;
    let bad = refused + failed + wrong;
    let mut correct = attempted > 0 && bad == 0;

    let lat = stats::sorted(latencies_ok.iter().copied());
    let p50 = stats::median(&lat).unwrap_or(0.0);
    let (tail, tail_pct, tail_beyond) = stats::tail(&lat).unwrap_or((0.0, 0.0, 0));
    let throughput = lat.len() as f64 / window.as_secs_f64();
    let setup_s = stats::median(&stats::sorted(setup_times.iter().copied())).unwrap_or(0.0);

    println!("host: {}", host_facts(args, &config));
    println!("traffic: {}", traffic(&records, &reqs));
    println!(
        "window: {:.3} s, {attempted} attempted, {} correct, {refused} refused, {failed} failed, {wrong} wrong",
        window.as_secs_f64(),
        lat.len()
    );
    println!(
        "latency: {} samples, p50 {p50:.4} ms, tail p{tail_pct:.2} {tail:.4} ms with {tail_beyond} samples beyond",
        lat.len()
    );
    println!("setup: {:?} s per set-up", setup_times);
    println!(
        "golden: {golden_checked} answers at golden points, worst deviation {:.6} %",
        100.0 * golden_dev
    );

    let error_rate = if attempted == 0 {
        1.0
    } else {
        bad as f64 / attempted as f64
    };
    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        metrics.extend([
            ("setup_s", setup_s, "s"),
            ("throughput_rps", throughput, "req/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_tail_ms", tail, "ms"),
            ("peak_rss_mb", rss, "MiB"),
        ]);
    } else {
        // (record, request, fingerprint, queue_us, service_us) per answer.
        let ok: Vec<(&Record, &Req, u64, u64, u64)> = records
            .iter()
            .zip(&reqs)
            .filter_map(|(r, req)| match &r.outcome {
                Outcome::Ok {
                    fingerprint,
                    queue_us,
                    service_us,
                    ..
                } => Some((r, req, *fingerprint, *queue_us, *service_us)),
                _ => None,
            })
            .collect();
        let n = ok.len().max(1) as f64;
        let transport_ms = ok
            .iter()
            .map(|(r, _, _, q, s)| r.latency_ns as f64 / 1e6 - (q + s) as f64 / 1e3)
            .sum::<f64>()
            / n;
        let queue_ms = ok
            .iter()
            .map(|(_, _, _, q, _)| *q as f64 / 1e3)
            .sum::<f64>()
            / n;
        let service_ms = ok
            .iter()
            .map(|(_, _, _, _, s)| *s as f64 / 1e3)
            .sum::<f64>()
            / n;
        let delta = |k: &str| {
            after
                .get(k)
                .copied()
                .unwrap_or(0)
                .saturating_sub(before.get(k).copied().unwrap_or(0)) as f64
        };
        let batchable = reqs
            .iter()
            .filter(|r| matches!(r.endpoint, "montecarlo" | "sweep"))
            .count() as f64;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        metrics.extend([
            ("server.transport_ms", transport_ms, "ms"),
            ("server.queue_ms", queue_ms, "ms"),
            ("server.service_ms", service_ms, "ms"),
            (
                "server.collapsed_ratio",
                ratio(delta("server.singleflight.follower"), attempted as f64),
                "ratio",
            ),
            (
                "server.batch_merged_ratio",
                ratio(delta("server.batch.merged"), batchable),
                "ratio",
            ),
        ]);

        let mut tracer =
            trace::Tracer::new(&config, scratch).map_err(|e| format!("trace store: {e}"))?;
        let traced_started = Instant::now();
        tracer.replay(
            interleave(ok.clone(), |(_, req, ..)| req.endpoint)
                .into_iter()
                .map(|(r, req, fingerprint, _, service_us)| trace::Replayed {
                    index: r.index,
                    req,
                    fingerprint,
                    service_us,
                }),
            Duration::from_secs_f64(args.seconds),
        );
        println!(
            "trace: replayed {} of {} answered requests in {:.3} s",
            tracer.replayed,
            ok.len(),
            traced_started.elapsed().as_secs_f64()
        );
        for m in tracer.mismatches.iter().take(20) {
            println!("problem: {m}");
        }
        correct &= tracer.mismatches.is_empty();
        for note in trace::UNSPLIT {
            println!("unsplit: {note}");
        }
        metrics.extend(tracer.metrics());
        metrics.extend([
            ("check.error_rate", error_rate, "ratio"),
            ("check.golden_err_pct", 100.0 * golden_dev, "%"),
        ]);
        let spans = out_dir.join(format!("trace-{}.jsonl", w.name()));
        tracer
            .write_spans(&spans)
            .map_err(|e| format!("write {}: {e}", spans.display()))?;
        println!("spans: {}", spans.display());
    }
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj(vec![
                        ("value", Json::Num(*value)),
                        ("unit", Json::Str(unit.to_string())),
                    ]),
                )
            })
            .collect(),
    );
    // Counts are written as integers, which the codec's f64 numbers are not.
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{bad},\"metrics\":{metrics_json}}}"
    );
    Ok(correct)
}

fn main() {
    // Pinned before any thread starts, so every reader sees these values.
    for (key, value) in PINNED_ENV {
        std::env::set_var(key, value);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload interactive|transient|cosim --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
