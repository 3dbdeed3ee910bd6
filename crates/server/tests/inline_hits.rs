//! Memory-resident cache hits are answered on the poller thread: no
//! queue slot, no worker, no reply channel. These tests pin what that
//! path must keep from the queued one — the same bytes, the same
//! accounting, the drain rule — and what it must leave to the queue
//! (store-tier hits). Each server's `metrics_v2` counts only its own
//! work, so the tests run in parallel.

use runtime::Json;
use server::proto::{DecodeLimits, RequestBody};
use server::router::Router;
use server::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One connection with a line reader.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(handle: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(handle.addr()).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(120))).expect("timeout");
        let reader = BufReader::new(stream.try_clone().expect("clone"));
        Conn { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        Json::parse(line.trim_end()).unwrap_or_else(|| panic!("bad response {line:?}"))
    }

    fn request(&mut self, line: &str) -> Json {
        self.send(line);
        self.recv()
    }
}

fn ok_result(doc: &Json) -> &Json {
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc:?}");
    doc.get("result").expect("result")
}

fn cached(doc: &Json) -> bool {
    ok_result(doc).get("cached").and_then(Json::as_bool).expect("cached marker")
}

fn queue_us(doc: &Json) -> u64 {
    doc.get("queue_us").and_then(Json::as_u64).expect("queue_us")
}

fn error_code(doc: &Json) -> Option<&str> {
    doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str)
}

/// A stage count from the server's live `metrics_v2` exposition (0
/// when absent).
fn stage_count(conn: &mut Conn, stage: &str) -> u64 {
    let doc = conn.request(r#"{"id":900,"endpoint":"metrics_v2"}"#);
    let text = ok_result(&doc).get("text").and_then(Json::as_str).expect("text");
    obs::stage_count(text, None, stage)
}

const WARM_SWEEP: &str = r#"{"id":7,"endpoint":"sweep","params":{"steps":6,"d_min_mm":2}}"#;

#[test]
fn warm_sweep_is_answered_while_every_worker_is_busy() {
    let handle = Server::spawn(ServerConfig {
        workers: 1,
        pool_workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut client = Conn::open(&handle);
    assert!(!cached(&client.request(WARM_SWEEP)), "first sweep computes");

    // Two distinct slow transients: one occupies the lone worker, the
    // other waits in the queue behind it.
    let mut busy = Conn::open(&handle);
    busy.send(r#"{"id":1,"endpoint":"fig11","params":{"r_load":1900}}"#);
    let mut queued = Conn::open(&handle);
    queued.send(r#"{"id":2,"endpoint":"fig11","params":{"r_load":2100}}"#);
    let mut probe = Conn::open(&handle);
    let depth = |probe: &mut Conn| {
        let health = probe.request(r#"{"id":3,"endpoint":"health"}"#);
        ok_result(&health).get("queue_depth").and_then(Json::as_u64).expect("queue_depth")
    };
    let mut waited = 0;
    while depth(&mut probe) == 0 {
        assert!(waited < 2_000, "the second transient never queued");
        std::thread::sleep(Duration::from_millis(1));
        waited += 1;
    }

    let warm = client.request(WARM_SWEEP);
    assert!(cached(&warm), "a resident sweep answers cached: {warm:?}");
    assert_eq!(queue_us(&warm), 0, "an inline hit never queues");
    assert_eq!(depth(&mut probe), 1, "the worker was still busy when the hit was answered");

    for conn in [&mut busy, &mut queued] {
        let doc = conn.recv();
        ok_result(&doc);
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn inline_hits_account_exactly_like_queued_hits() {
    let lines = [
        r#"{"id":1,"endpoint":"sweep","params":{"steps":4,"d_min_mm":3}}"#,
        r#"{"id":2,"endpoint":"montecarlo","params":{"trials":60,"seed":5}}"#,
        r#"{"id":3,"endpoint":"sweep","params":{"steps":4,"d_min_mm":3}}"#,
        r#"{"id":4,"endpoint":"patientday","params":{"seed":3,"hours":0.5,"profile":"sensing"}}"#,
        r#"{"id":5,"endpoint":"montecarlo","params":{"trials":60,"seed":5}}"#,
        r#"{"id":6,"endpoint":"patientday","params":{"seed":3,"hours":0.5,"profile":"sensing"}}"#,
        r#"{"id":7,"endpoint":"sweep","params":{"steps":4,"d_min_mm":3}}"#,
        r#"{"id":8,"endpoint":"sweep","params":{"medium":"sirloin","steps":3}}"#,
    ];

    // The queued path's accounting: the router serving each request in
    // turn, exactly as a worker does.
    let reference = Router::new(1, 256, 100_000);
    let limits = DecodeLimits::default();
    let expected: Vec<_> = lines
        .iter()
        .map(|line| {
            let doc = Json::parse(line).expect("request json");
            let endpoint = doc.get("endpoint").and_then(Json::as_str).expect("endpoint");
            let body = RequestBody::decode(endpoint, doc.get("params").expect("params"), &limits)
                .expect("valid body");
            reference.handle_typed(&body).expect("routes")
        })
        .collect();
    let (ref_hits, ref_misses) = reference.cache_stats();
    assert_eq!((ref_hits, ref_misses), (4, 4), "the sequence mixes hits and misses");

    let handle = Server::spawn(ServerConfig::default()).expect("bind");
    let mut conn = Conn::open(&handle);
    let counts = |conn: &mut Conn| {
        ["server.hit.inline", "pool.cache_hit", "pool.cache_miss"].map(|s| stage_count(conn, s))
    };
    let start = counts(&mut conn);
    for (line, routed) in lines.iter().zip(&expected) {
        let doc = conn.request(line);
        assert_eq!(
            ok_result(&doc).to_string(),
            routed.result.to_string(),
            "byte-identical result whichever path served {line}"
        );
    }
    let end = counts(&mut conn);
    let delta = |i: usize| end[i] - start[i];
    assert_eq!(delta(0), ref_hits, "every hit was answered inline");
    assert_eq!(delta(0) + delta(1), ref_hits, "metrics_v2 hits");
    assert_eq!(delta(2), ref_misses, "metrics_v2 misses");
    assert_eq!(handle.shared().router.cache_stats(), (ref_hits, ref_misses));
    assert_eq!(stage_count(&mut conn, "server.ok"), lines.len() as u64, "every answer counts ok");
    handle.shutdown();
    handle.join();
}

#[test]
fn draining_server_refuses_warm_requests() {
    let handle = Server::spawn(ServerConfig::default()).expect("bind");
    let mut conn = Conn::open(&handle);
    assert!(!cached(&conn.request(WARM_SWEEP)));
    assert!(cached(&conn.request(WARM_SWEEP)), "resident before the drain");
    conn.request(r#"{"id":2,"endpoint":"shutdown"}"#);
    let refused = conn.request(WARM_SWEEP);
    assert_eq!(error_code(&refused), Some("shutting_down"), "{refused:?}");
    drop(conn);
    handle.join();
}

#[test]
fn key_evicted_from_memory_is_served_from_the_store_through_the_queue() {
    let dir = std::env::temp_dir()
        .join(format!("implant-server-inline-hits-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::spawn(ServerConfig {
        cache_capacity: 1,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let mut conn = Conn::open(&handle);
    let first = conn.request(WARM_SWEEP);
    assert!(!cached(&first));
    // A second sweep takes the only memory slot; the first key now
    // lives only in the store.
    assert!(!cached(&conn.request(r#"{"id":8,"endpoint":"sweep","params":{"steps":3}}"#)));

    let inline_before = stage_count(&mut conn, "server.hit.inline");
    let pool_hits_before = stage_count(&mut conn, "pool.cache_hit");
    let again = conn.request(WARM_SWEEP);
    assert!(cached(&again), "the store serves the evicted key: {again:?}");
    assert_eq!(
        ok_result(&again).to_string(),
        ok_result(&first).to_string().replace("\"cached\":false", "\"cached\":true")
    );
    assert_eq!(stage_count(&mut conn, "server.hit.inline"), inline_before, "not inline");
    assert_eq!(stage_count(&mut conn, "pool.cache_hit"), pool_hits_before + 1, "queued hit");

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}
