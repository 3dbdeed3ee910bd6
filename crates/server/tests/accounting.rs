//! The server's answer accounting, pinned as literals.
//!
//! One fixed script per server, on one connection each: distinct and
//! repeated cheap `sweep`s (the repeats are memory-resident hits), a bad
//! field, an unknown endpoint, a non-UTF-8 line and an oversized line
//! on a default server; one `sweep` on a zero-capacity server
//! (`overloaded`); one `sweep` after a `shutdown` (`shutting_down`).
//! Each server's totals — answers ok, errors by class, cache hits and
//! misses — must come out exactly as pinned. A change to how answers
//! are counted must leave these numbers where they are.

use runtime::Json;
use server::{Server, ServerConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// One server's answer totals.
#[derive(Debug, Default, PartialEq, Eq)]
struct Totals {
    ok: u64,
    /// Errors other than `overloaded` and `deadline_exceeded`.
    errors: u64,
    /// `overloaded` answers.
    shed: u64,
    /// `deadline_exceeded` answers.
    expired: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// The default server's script: three distinct sweeps, three repeats,
/// a bad field, an unknown endpoint.
const SCRIPT: [&str; 8] = [
    r#"{"id":1,"endpoint":"sweep","params":{"steps":3}}"#,
    r#"{"id":2,"endpoint":"sweep","params":{"steps":4}}"#,
    r#"{"id":3,"endpoint":"sweep","params":{"steps":5}}"#,
    r#"{"id":4,"endpoint":"sweep","params":{"steps":3}}"#,
    r#"{"id":5,"endpoint":"sweep","params":{"steps":4}}"#,
    r#"{"id":6,"endpoint":"sweep","params":{"steps":3}}"#,
    r#"{"id":7,"endpoint":"sweep","params":{"steps":1}}"#,
    r#"{"id":8,"endpoint":"frobnicate"}"#,
];

const DEFAULT_TOTALS: Totals =
    Totals { ok: 6, errors: 4, shed: 0, expired: 0, cache_hits: 3, cache_misses: 3 };
const SHED_TOTALS: Totals =
    Totals { ok: 0, errors: 0, shed: 1, expired: 0, cache_hits: 0, cache_misses: 0 };
const DRAINED_TOTALS: Totals =
    Totals { ok: 0, errors: 1, shed: 0, expired: 0, cache_hits: 0, cache_misses: 0 };

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

    /// Sends `bytes` as one line and returns the parsed response.
    fn exchange(&mut self, bytes: &[u8]) -> Json {
        self.stream.write_all(bytes).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        Json::parse(line.trim_end()).unwrap_or_else(|| panic!("bad response {line:?}"))
    }
}

fn code(doc: &Json) -> Option<&str> {
    doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_str)
}

/// The server's totals, read from this server's `metrics_v2` counters.
fn totals(conn: &mut Conn) -> Totals {
    let doc = conn.exchange(br#"{"id":99,"endpoint":"metrics_v2"}"#);
    let text = doc.get("result").and_then(|r| r.get("text")).and_then(Json::as_str).expect("text");
    let n = |stage: &str| obs::stage_count(text, None, stage);
    let all_errors: u64 = text
        .lines()
        .filter_map(|line| line.strip_prefix("implant_obs_stage_count{stage=\"server.error."))
        .map(|rest| rest.rsplit_once(' ').and_then(|(_, v)| v.parse::<u64>().ok()).expect("count"))
        .sum();
    let (shed, expired) = (n("server.error.overloaded"), n("server.error.deadline_exceeded"));
    Totals {
        ok: n("server.ok"),
        errors: all_errors - shed - expired,
        shed,
        expired,
        cache_hits: n("pool.cache_hit")
            + n("server.hit.inline")
            + n("server.singleflight.follower"),
        cache_misses: n("pool.cache_miss"),
    }
}

#[test]
fn one_connection_script_pins_the_server_totals() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = Conn::open(&handle);
    for (i, request) in SCRIPT.iter().enumerate() {
        let doc = conn.exchange(request.as_bytes());
        let want_ok = i < 6;
        assert_eq!(doc.get("ok"), Some(&Json::Bool(want_ok)), "{request}: {doc}");
    }
    let doc = conn.exchange(b"{\"id\":9,\"endpoint\":\"sweep\xff\"}");
    assert_eq!(code(&doc), Some("bad_request"), "non-UTF-8: {doc}");
    let doc = conn.exchange(&vec![b'x'; server::conn::MAX_LINE + 1]);
    assert_eq!(code(&doc), Some("bad_request"), "oversized: {doc}");
    assert_eq!(totals(&mut conn), DEFAULT_TOTALS);

    let shed = Server::spawn(ServerConfig { queue_capacity: 0, ..ServerConfig::default() })
        .expect("spawn");
    let mut conn_s = Conn::open(&shed);
    let doc = conn_s.exchange(SCRIPT[0].as_bytes());
    assert_eq!(code(&doc), Some("overloaded"), "{doc}");
    assert_eq!(totals(&mut conn_s), SHED_TOTALS);
    shed.shutdown();
    drop(conn_s);
    shed.join();

    let drained = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn_d = Conn::open(&drained);
    conn_d.exchange(br#"{"id":0,"endpoint":"shutdown"}"#);
    let doc = conn_d.exchange(SCRIPT[0].as_bytes());
    assert_eq!(code(&doc), Some("shutting_down"), "{doc}");
    assert_eq!(totals(&mut conn_d), DRAINED_TOTALS);
    drop(conn_d);
    drained.join();

    handle.shutdown();
    drop(conn);
    handle.join();
}
