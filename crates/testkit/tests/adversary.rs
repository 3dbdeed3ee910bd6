//! The adversarial client against a live in-process server: hostile
//! input must only ever produce structured errors, never take the
//! server down, and shutdown must drain in-flight work.

use runtime::Json;
use server::client::Client;
use server::{Server, ServerConfig};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;
use testkit::adversary::{capped_connections, disconnect_storm, idle_soak, slowloris_storm};
use testkit::AdversarialClient;

#[test]
fn full_assault_leaves_the_server_healthy() {
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let client = AdversarialClient::new(handle.addr());
    let report = client.assault();
    report.assert_contract();

    // And the data plane still works after all of it.
    let doc = client
        .rpc(r#"{"id":1,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("a real request still answers");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    handle.shutdown();
    handle.join();
}

#[test]
fn abandoned_requests_do_not_poison_later_clients() {
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let client = AdversarialClient::new(handle.addr());
    // A burst of clients that all walk away mid-transaction.
    for _ in 0..8 {
        client.disconnect_before_response();
        client.disconnect_mid_line();
    }
    // The workers absorbed every dead reply channel.
    assert!(client.health_ok(), "server must shrug off abandoned requests");
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_with_inflight_requests_drains_them() {
    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let addr = handle.addr();

    // Park a slow-ish request in flight on its own socket.
    let mut busy = TcpStream::connect(addr).expect("connect");
    busy.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    busy.write_all(b"{\"id\":5,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":400}}\n")
        .expect("write");
    busy.flush().unwrap();
    // Let the poller admit the request — the contract under test is
    // drain-after-admission, not an admission/shutdown photo finish.
    std::thread::sleep(Duration::from_millis(50));

    // Ask for shutdown from a second connection while it runs.
    let client = AdversarialClient::new(addr);
    let ack = client.rpc(r#"{"id":6,"endpoint":"shutdown"}"#).expect("shutdown acks");
    assert_eq!(ack.get("ok"), Some(&runtime::Json::Bool(true)));

    // The in-flight request must still complete with a real response
    // (drained, not dropped).
    let mut reader = BufReader::new(busy.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("in-flight response arrives");
    let doc = runtime::Json::parse(line.trim_end()).expect("valid JSON");
    assert_eq!(doc.get("id").and_then(runtime::Json::as_u64), Some(5));
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)), "{line}");
    // Connection lifetime is client-controlled: close our end rather
    // than waiting for a server EOF that the contract never promises.
    drop(reader);
    drop(busy);

    handle.join();
}

/// The fan-in claim, measured: ~10k sockets parked on the server while
/// the thread count stays exactly where it was — pollers multiplex,
/// nothing spawns per connection — and the data plane still answers.
#[test]
fn ten_thousand_idle_connections_do_not_grow_the_thread_count() {
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = handle.threads();
    assert_eq!(before, 5, "acceptor + 2 pollers + 2 workers");

    let conns = idle_soak(addr, capped_connections(10_000));
    assert!(conns.len() >= 1_000, "fd budget too small to prove anything: {}", conns.len());

    // Give the pollers a couple of sweeps over the full set.
    std::thread::sleep(Duration::from_millis(300));
    let during = handle.threads();
    assert_eq!(
        during,
        before,
        "server threads moved with connections: {before} -> {during} across {} conns",
        conns.len()
    );

    // A real request threads through the crowd unharmed.
    let client = AdversarialClient::new(addr);
    let doc = client
        .rpc(r#"{"id":1,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("data plane answers under soak");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    drop(conns);
    handle.shutdown();
    handle.join();
}

/// Slowloris at scale: hundreds of peers parked mid-frame consume
/// buffer space, not threads, and cannot starve a well-behaved client.
#[test]
fn slowloris_at_scale_cannot_starve_the_data_plane() {
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = handle.threads();

    let stalled = slowloris_storm(addr, capped_connections(400));
    assert!(stalled.len() >= 100, "fd budget too small: {}", stalled.len());
    let during = handle.threads();
    assert_eq!(during, before, "server threads moved with stalled peers: {before} -> {during}");

    // The crowd holds half-frames; a complete request still answers
    // promptly on a fresh socket.
    let client = AdversarialClient::new(addr);
    let doc = client
        .rpc(r#"{"id":2,"endpoint":"montecarlo","params":{"trials":50}}"#)
        .expect("data plane answers through the stall");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    // One stalled peer completes its frame and still gets its answer —
    // parked is parked, not abandoned.
    let mut finisher = stalled.into_iter().next().expect("at least one stalled conn");
    finisher.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    finisher.write_all(b"77}\n").expect("finish the frame");
    let mut line = String::new();
    BufReader::new(finisher.try_clone().unwrap()).read_line(&mut line).expect("late answer");
    assert!(line.contains("\"ok\":true"), "finished slowloris gets served: {line}");
    drop(finisher);

    handle.shutdown();
    handle.join();
}

/// A storm of peers that vanish mid-poll — half of them mid-frame, half
/// with a full request they never read the answer to — must leave the
/// server healthy, its threads flat, and its shed/drain contract
/// intact.
#[test]
fn mid_poll_disconnect_storm_leaves_the_server_healthy() {
    let handle = Server::spawn(ServerConfig { workers: 2, pollers: 2, ..ServerConfig::default() })
        .expect("ephemeral bind");
    let addr = handle.addr();
    let before = handle.threads();

    disconnect_storm(addr, capped_connections(300));

    // Workers absorb every dead reply channel; pollers reap every
    // corpse without panicking.
    std::thread::sleep(Duration::from_millis(300));
    let during = handle.threads();
    assert_eq!(during, before, "server threads moved after the storm: {before} -> {during}");

    let client = AdversarialClient::new(addr);
    assert!(client.health_ok(), "health must survive the storm");
    let doc = client
        .rpc(r#"{"id":3,"endpoint":"sweep","params":{"steps":3}}"#)
        .expect("data plane answers after the storm");
    assert_eq!(doc.get("ok"), Some(&runtime::Json::Bool(true)));

    // Shutdown still drains cleanly afterwards.
    let ack = client.rpc(r#"{"id":4,"endpoint":"shutdown"}"#).expect("shutdown acks");
    assert_eq!(ack.get("ok"), Some(&runtime::Json::Bool(true)));
    handle.join();
}

/// Monte Carlo seed of request `i` from driver `d` in the fan-in
/// schedule: 90 % of the slots ask for one of 4 hot points shared by
/// every driver, the rest for a point unique to the slot.
fn fan_in_seed(d: usize, i: usize) -> u64 {
    if (d * 31 + i * 7) % 100 < 90 {
        1_000 + ((d + i) % 4) as u64
    } else {
        1_000_000 + (d as u64) * 1_000_000 + i as u64
    }
}

/// The single-flight collapse ledger under fan-in: 8 drivers push a
/// 90 %-duplicate Monte Carlo schedule through 500 parked idle
/// connections, and the server's own per-endpoint metrics must show
/// one execution per distinct point, every duplicate a hit (collapsed
/// onto a live flight or replayed from cache), nothing shed, nothing
/// expired — then a clean drain with the crowd still parked. The ledger
/// belongs to this server, so tests running beside it cannot move it.
#[test]
fn a_duplicate_heavy_fan_in_through_an_idle_crowd_executes_each_point_once() {
    const DRIVERS: usize = 8;
    const REQUESTS: usize = 15;
    const TRIALS: f64 = 40.0;
    let plans: Vec<Vec<u64>> = (0..DRIVERS)
        .map(|d| (0..REQUESTS).map(|i| fan_in_seed(d, i)).collect())
        .collect();
    let total = (DRIVERS * REQUESTS) as u64;
    let unique = plans.iter().flatten().collect::<BTreeSet<_>>().len() as u64;
    assert!(unique < total / 2, "the schedule must be duplicate-heavy: {unique} of {total}");

    // Headroom so the ledger is exact: no point may be shed at the
    // queue or recomputed after a cache eviction.
    let handle = Server::spawn(ServerConfig {
        workers: 2,
        pollers: 2,
        queue_capacity: (DRIVERS * 2).max(64),
        cache_capacity: 1024,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind");
    let addr = handle.addr();
    let crowd = idle_soak(addr, capped_connections(500));

    let drivers: Vec<_> = plans
        .into_iter()
        .map(|plan| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("driver connects");
                plan.into_iter()
                    .filter(|&seed| {
                        let params = Json::obj(vec![
                            ("trials", Json::Num(TRIALS)),
                            ("seed", Json::Num(seed as f64)),
                            ("scale", Json::Num(1.0)),
                        ]);
                        client.request("montecarlo", params).expect("answered").is_ok()
                    })
                    .count() as u64
            })
        })
        .collect();
    let ok: u64 = drivers.into_iter().map(|d| d.join().expect("driver thread")).sum();
    assert_eq!(ok, total, "every request is answered ok");

    let mut client = Client::connect(addr).expect("metrics connection");
    let metrics = client.request("metrics", Json::Obj(Vec::new())).expect("metrics answers");
    let counter = |key: &str| {
        metrics
            .result()
            .and_then(|r| r.get("endpoints"))
            .and_then(|e| e.get("montecarlo"))
            .and_then(|m| m.get(key))
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("metrics missing endpoints.montecarlo.{key}"))
    };
    assert_eq!(counter("requests"), total);
    assert_eq!(counter("cache_misses"), unique, "one execution per distinct point");
    assert_eq!(counter("cache_hits"), total - unique, "every duplicate is a hit");
    assert_eq!(counter("shed"), 0);
    assert_eq!(counter("expired"), 0);

    let ack = client.shutdown().expect("shutdown acks");
    assert!(ack.is_ok(), "the loaded server drains under the crowd");
    handle.join();
    drop(crowd);
}
