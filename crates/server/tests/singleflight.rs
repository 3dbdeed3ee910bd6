//! The single-flight race battery: concurrent identical requests on a
//! live server must collapse onto one execution — one `pool.cache_miss`,
//! every follower answered ok a `server.singleflight.follower` hit,
//! every response body bit-identical — and an expired or unlucky leader
//! must fail its followers with structured errors, never a hang or a
//! poisoned key.
//!
//! Every test runs `workers: 1` with a long blocker request parked on
//! the lone worker, so the racing duplicates demonstrably all arrive
//! *before* the leader executes.

use server::client::Client;
use server::{Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// A server whose data plane is one worker deep: a single in-flight
/// blocker serializes everything behind it.
fn one_worker_server() -> server::ServerHandle {
    Server::spawn(ServerConfig {
        workers: 1,
        pollers: 2,
        pool_workers: 1,
        ..ServerConfig::default()
    })
    .expect("ephemeral bind")
}

/// Writes one request line on a fresh socket and returns the response
/// line (trailing newline stripped).
fn roundtrip(addr: SocketAddr, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    stream.write_all(line.as_bytes()).expect("write");
    stream.write_all(b"\n").expect("write newline");
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response).expect("response arrives");
    response.trim_end().to_string()
}

/// Parks a slow montecarlo on the worker from its own socket and
/// returns the socket so the caller can later collect the response.
/// Sleeps long enough for the poller to admit it into the queue.
fn park_blocker(addr: SocketAddr) -> BufReader<TcpStream> {
    let mut stream = TcpStream::connect(addr).expect("connect blocker");
    stream.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    stream
        .write_all(b"{\"id\":1,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":6000,\"seed\":991}}\n")
        .expect("write blocker");
    std::thread::sleep(Duration::from_millis(120));
    BufReader::new(stream)
}

fn reap_blocker(mut blocker: BufReader<TcpStream>) {
    let mut line = String::new();
    blocker.read_line(&mut line).expect("blocker completes");
    assert!(line.contains("\"ok\":true"), "blocker must succeed: {line}");
}

/// The response body proper: everything from `"result":` to the end of
/// the line. `id` and `queue_us` legitimately differ per waiter; the
/// result document must not differ by a single byte.
fn result_tail(line: &str) -> &str {
    let (_, tail) = line.split_once("\"result\":").unwrap_or_else(|| {
        panic!("response carries no result: {line}");
    });
    tail
}

/// A stage count from the server's `metrics_v2` exposition.
fn stage_count(addr: SocketAddr, stage: &str) -> u64 {
    let mut client = Client::connect(addr).expect("connect metrics");
    let text = client.metrics_v2_text().expect("metrics_v2 answers");
    obs::stage_count(&text, None, stage)
}

/// Cache hits as the server counts them: pool hits, inline hits and
/// single-flight followers.
fn cache_hits(addr: SocketAddr) -> u64 {
    ["pool.cache_hit", "server.hit.inline", "server.singleflight.follower"]
        .map(|stage| stage_count(addr, stage))
        .iter()
        .sum()
}

#[test]
fn identical_concurrent_requests_collapse_to_one_execution() {
    const N: usize = 8;
    let handle = one_worker_server();
    let addr = handle.addr();
    let blocker = park_blocker(addr);

    // N racers through one barrier, all asking the identical question.
    let barrier = Arc::new(Barrier::new(N));
    let racers: Vec<_> = (0..N)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                roundtrip(
                    addr,
                    r#"{"id":7,"endpoint":"montecarlo","params":{"trials":900,"seed":17}}"#,
                )
            })
        })
        .collect();
    let lines: Vec<String> = racers.into_iter().map(|t| t.join().expect("racer")).collect();
    reap_blocker(blocker);

    // Bit-identical bodies: one execution produced every response.
    for line in &lines {
        assert!(line.contains("\"ok\":true"), "racer must succeed: {line}");
        assert_eq!(
            result_tail(line),
            result_tail(&lines[0]),
            "collapsed responses must be bit-identical"
        );
    }

    // Accounting: blocker + leader each missed once; every follower is
    // a collapsed hit; nobody computed twice.
    assert_eq!(stage_count(addr, "server.ok"), (N + 1) as u64);
    assert_eq!(stage_count(addr, "pool.cache_miss"), 2, "blocker + leader");
    assert_eq!(stage_count(addr, "server.singleflight.follower"), (N - 1) as u64);
    assert_eq!(cache_hits(addr), (N - 1) as u64);

    handle.shutdown();
    handle.join();
}

#[test]
fn distinct_concurrent_requests_do_not_collapse() {
    const N: usize = 4;
    let handle = one_worker_server();
    let addr = handle.addr();
    let blocker = park_blocker(addr);

    let barrier = Arc::new(Barrier::new(N));
    let racers: Vec<_> = (0..N)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let line = format!(
                    "{{\"id\":7,\"endpoint\":\"montecarlo\",\"params\":{{\"trials\":900,\"seed\":{}}}}}",
                    100 + i
                );
                roundtrip(addr, &line)
            })
        })
        .collect();
    for racer in racers {
        let line = racer.join().expect("racer");
        assert!(line.contains("\"ok\":true"), "{line}");
    }
    reap_blocker(blocker);

    assert_eq!(stage_count(addr, "pool.cache_miss"), (N + 1) as u64);
    assert_eq!(stage_count(addr, "server.singleflight.follower"), 0);

    handle.shutdown();
    handle.join();
}

#[test]
fn expired_leader_fails_all_expired_followers_without_poisoning_the_key() {
    const N: usize = 4;
    let handle = one_worker_server();
    let addr = handle.addr();
    let blocker = park_blocker(addr);

    // Every racer carries a deadline that expires while the blocker
    // still owns the worker, so the leader is reaped at dequeue and
    // must take its whole flight down with it — structured errors for
    // everyone, no hang.
    let barrier = Arc::new(Barrier::new(N));
    let racers: Vec<_> = (0..N)
        .map(|_| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                roundtrip(
                    addr,
                    r#"{"id":9,"endpoint":"montecarlo","params":{"trials":900,"seed":23},"deadline_ms":1}"#,
                )
            })
        })
        .collect();
    for racer in racers {
        let line = racer.join().expect("no racer may hang");
        assert!(line.contains("\"ok\":false"), "{line}");
        assert!(line.contains("\"code\":\"deadline_exceeded\""), "{line}");
    }
    reap_blocker(blocker);

    // Leader and every follower expired exactly once each; no follower
    // was served, so none counts a hit.
    assert_eq!(stage_count(addr, "server.error.deadline_exceeded"), N as u64);
    assert_eq!(stage_count(addr, "server.singleflight.follower"), 0);
    assert_eq!(cache_hits(addr), 0);

    // The key is not poisoned: the identical question with a sane
    // deadline computes fresh and succeeds.
    let retry = roundtrip(
        addr,
        r#"{"id":10,"endpoint":"montecarlo","params":{"trials":900,"seed":23}}"#,
    );
    assert!(retry.contains("\"ok\":true"), "retry after expiry must succeed: {retry}");

    handle.shutdown();
    handle.join();
}

#[test]
fn follower_with_a_live_deadline_is_shed_when_its_leader_expires() {
    let handle = one_worker_server();
    let addr = handle.addr();
    let blocker = park_blocker(addr);

    // The leader's deadline dies in the queue; the follower's does not.
    let mut leader = TcpStream::connect(addr).expect("connect leader");
    leader.set_read_timeout(Some(Duration::from_secs(60))).expect("timeout");
    leader
        .write_all(b"{\"id\":11,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":900,\"seed\":31},\"deadline_ms\":1}\n")
        .expect("write leader");
    std::thread::sleep(Duration::from_millis(120));
    let follower_line = std::thread::spawn(move || {
        roundtrip(
            addr,
            r#"{"id":12,"endpoint":"montecarlo","params":{"trials":900,"seed":31},"deadline_ms":30000}"#,
        )
    });

    let mut reader = BufReader::new(leader);
    let mut leader_line = String::new();
    reader.read_line(&mut leader_line).expect("leader answered");
    assert!(leader_line.contains("\"code\":\"deadline_exceeded\""), "{leader_line}");

    // The follower had time left, so it is shed with a retry hint —
    // blaming its deadline would be a lie.
    let follower_line = follower_line.join().expect("follower answered");
    assert!(follower_line.contains("\"code\":\"overloaded\""), "{follower_line}");
    assert!(follower_line.contains("leader expired"), "{follower_line}");
    reap_blocker(blocker);

    let n = |stage| stage_count(addr, stage);
    assert_eq!(n("server.error.deadline_exceeded"), 1, "only the leader expired");
    assert_eq!(n("server.error.overloaded"), 1, "the follower was shed");
    assert_eq!(n("server.singleflight.follower"), 0, "a shed follower is no hit");

    handle.shutdown();
    handle.join();
}

#[test]
fn sequential_duplicates_hit_the_cache_not_the_flight() {
    let handle = one_worker_server();
    let addr = handle.addr();

    let first = roundtrip(
        addr,
        r#"{"id":20,"endpoint":"montecarlo","params":{"trials":400,"seed":44}}"#,
    );
    let second = roundtrip(
        addr,
        r#"{"id":20,"endpoint":"montecarlo","params":{"trials":400,"seed":44}}"#,
    );
    assert!(first.contains("\"ok\":true") && second.contains("\"ok\":true"));
    assert_eq!(
        result_tail(&first).replace("\"cached\":false", "\"cached\":true"),
        result_tail(second.as_str()),
        "a later duplicate replays the cached artifact"
    );

    // No flight existed to attach to: the second request was a plain
    // cache hit, not a collapsed follower.
    assert_eq!(stage_count(addr, "server.singleflight.follower"), 0);
    assert_eq!(cache_hits(addr), 1);
    assert_eq!(stage_count(addr, "pool.cache_miss"), 1);

    handle.shutdown();
    handle.join();
}
