//! The wire bytes and route keys, pinned as literals.
//!
//! Every other server test compares runs with each other; this one
//! compares them with fixed bytes. For one request per data endpoint
//! (plus a non-default identity for `fig11` and `cohort`) it pins the
//! route key — `runtime::cache_key` over the body's `route_point`, the
//! key the cluster places by and the caches and store file under — and
//! the response line with its `queue_us` / `service_us` timings removed.
//! It also pins the exact line of every error class one connection can
//! reach deterministically. A refactor of decoding, routing or encoding
//! must leave all of them byte-identical.

use server::proto::{DecodeLimits, TypedRequest};
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

    /// Sends `bytes` as one line and returns the response line without
    /// its newline.
    fn exchange(&mut self, bytes: &[u8]) -> String {
        self.stream.write_all(bytes).expect("write");
        self.stream.write_all(b"\n").expect("write newline");
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("response arrives");
        line.trim_end().to_string()
    }
}

/// `line` with its `"queue_us":…,"service_us":…,` pair cut out: the only
/// bytes of a success line that depend on timing.
fn untimed(line: &str) -> String {
    let Some(start) = line.find(",\"queue_us\":") else { return line.to_string() };
    let rest = &line[start..];
    let end = rest.find(",\"result\":").expect("timings precede the result");
    format!("{}{}", &line[..start], &rest[end..])
}

/// The route key of a request line, as 16 hex digits.
fn route_key(line: &str) -> String {
    let typed = TypedRequest::decode_line(line, &DecodeLimits::default()).expect("decodes");
    let (ns, point) = typed.body.route_point().expect("data requests have a route point");
    format!("{:016x}", runtime::cache_key(ns, &point))
}

/// Data requests: (request line, route key, untimed response line).
const DATA: [(&str, &str, &str); 8] = [
    (
        r#"{"id":1,"endpoint":"fig11","params":{"t_stop_us":150,"max_step_ns":50}}"#,
        "d48611daa5762572",
        r#"{"id":1.0,"ok":true,"result":{"vo_worst":2.4067398608449864,"vo_compliant":true,"downlink_errors":0.0,"downlink_bits":4.0,"t_charged_us":12.665980804881473,"uplink_contrast":31.83231460284443,"cosim":false}}"#,
    ),
    (
        r#"{"id":2,"endpoint":"fig11","params":{"t_stop_us":150,"max_step_ns":50,"cosim":true}}"#,
        "49e21a611669e49e",
        r#"{"id":2.0,"ok":true,"result":{"vo_worst":2.415091039215659,"vo_compliant":true,"downlink_errors":0.0,"downlink_bits":4.0,"t_charged_us":12.8587943831579,"uplink_contrast":31.81973784156406,"cosim":true}}"#,
    ),
    (
        r#"{"id":3,"endpoint":"fullchain","params":{"cycles":30}}"#,
        "a4edc6c3bb707ada",
        r#"{"id":3.0,"ok":true,"result":{"distance_mm":10.0,"cycles":30.0,"vo_steady":2.671948629851815,"supply_compliant":true,"efficiency":0.016733491075997024,"p_load_mw":4.788318455722827,"p_supply_mw":286.15179187511694,"cosim":false}}"#,
    ),
    (
        r#"{"id":4,"endpoint":"montecarlo","params":{"trials":40,"seed":11}}"#,
        "60dc927e63d47f46",
        r#"{"id":4.0,"ok":true,"result":{"scale":1.0,"trials":40.0,"seed":11.0,"passing":40.0,"yield":1.0,"charge_ok":40.0,"downlink_ok":40.0,"vo_ok":40.0,"vo_min_mean":2.582870457906197,"vo_min_worst":2.3546215718070522,"cached":false}}"#,
    ),
    (
        r#"{"id":5,"endpoint":"sweep","params":{"steps":3,"medium":"sirloin"}}"#,
        "5da5bc9da8f2a9ed",
        r#"{"id":5.0,"ok":true,"result":{"medium":"sirloin","distances_mm":[2.0,16.0,30.0],"p_rx_mw":[23.706622752216262,1.8483294285414746,0.15818226642019764],"cached":false}}"#,
    ),
    (
        r#"{"id":6,"endpoint":"patientday","params":{"hours":2,"seed":3}}"#,
        "af2a3349feec9548",
        r#"{"id":6.0,"ok":true,"result":{"seed":3.0,"profile":"routine","hours":2.0,"summary":{"end_h":2.0,"depleted":false,"soc_end":0.7999999999999924,"v_min":3.8929791666666627,"max_patch_celsius":33.4536,"max_implant_rise_k":0.0,"low_power_h":null,"segments":4.0,"idle_h":1.9999999999999953,"sync_h":0.0,"sense_h":0.0,"link_dropouts":0.0,"mean_p_rx_mw":0.0,"thermal_ok":true},"cached":false}}"#,
    ),
    (
        r#"{"id":7,"endpoint":"cohort","params":{"patients":3,"hours":2}}"#,
        "cf6483a62bf3255c",
        r#"{"id":7.0,"ok":true,"result":{"seed":3665698835.0,"offset":0.0,"enzyme":"mixed","mean_life_h":2.0,"mean_p_rx_mw":9.269333333333334,"digest":"10c5ab088afdca3d","report":{"patients":3.0,"depleted":0.0,"low_power":0.0,"thermal_violations":0.0,"link_dropouts":0.0,"powered_ok":1.0,"sensor_ok":2.0,"sum_life_ms":21600000.0,"min_life_ms":7200000.0,"sum_p_rx_uw":27808.0,"sum_duty_ppm":3000000.0,"max_patch_celsius":35.372663128860545},"cached":false}}"#,
    ),
    (
        r#"{"id":8,"endpoint":"cohort","params":{"patients":3,"hours":2,"duty_min":0.5}}"#,
        "ae6ae31155d1e30a",
        r#"{"id":8.0,"ok":true,"result":{"seed":3665698835.0,"offset":0.0,"enzyme":"mixed","mean_life_h":2.0,"mean_p_rx_mw":9.269333333333334,"digest":"2153a2625907a1a3","report":{"patients":3.0,"depleted":0.0,"low_power":0.0,"thermal_violations":0.0,"link_dropouts":0.0,"powered_ok":1.0,"sensor_ok":2.0,"sum_life_ms":21600000.0,"min_life_ms":7200000.0,"sum_p_rx_uw":27808.0,"sum_duty_ppm":1871984.0,"max_patch_celsius":34.58793646997143},"cached":false}}"#,
    ),
];

/// Error requests on a default server: (request bytes, response line).
const ERRORS: [(&[u8], &str); 5] = [
    (
        b"{\"id\":1,\"endpoint\":\"sweep\xff\"}",
        r#"{"id":0.0,"ok":false,"error":{"code":"bad_request","message":"request line is not UTF-8"}}"#,
    ),
    (
        b"{\"id\":2,\"endpoint\":",
        r#"{"id":0.0,"ok":false,"error":{"code":"bad_request","message":"invalid JSON (or trailing garbage)"}}"#,
    ),
    (
        br#"{"id":3,"endpoint":"frobnicate"}"#,
        r#"{"id":3.0,"ok":false,"error":{"code":"unknown_endpoint","field":"endpoint","message":"no endpoint \"frobnicate\" (data: [\"fig11\", \"fullchain\", \"montecarlo\", \"sweep\", \"patientday\", \"cohort\"]; control: [\"health\", \"metrics_v2\", \"shutdown\"])"}}"#,
    ),
    (
        br#"{"id":4,"endpoint":"sweep","params":{"steps":1}}"#,
        r#"{"id":4.0,"ok":false,"error":{"code":"bad_request","field":"steps","message":"\"steps\" = 1 outside [2, 64]"}}"#,
    ),
    (
        br#"{"id":5,"endpoint":"fig11","params":{"t_stop_us":40}}"#,
        r#"{"id":5.0,"ok":false,"error":{"code":"bad_request","field":"t_stop_us","message":"\"t_stop_us\" = 40 cuts the preset's timeline (needs ≥ 150 µs)"}}"#,
    ),
];

/// A data request refused by a zero-capacity queue, and its line.
const OVERLOADED: (&str, &str) = (
    r#"{"id":6,"endpoint":"sweep","params":{"steps":2}}"#,
    r#"{"id":6.0,"ok":false,"error":{"code":"overloaded","message":"queue full (capacity 0); retry with backoff"}}"#,
);

/// A data request after a `shutdown`, and its line.
const SHUTTING_DOWN: (&str, &str) = (
    r#"{"id":7,"endpoint":"sweep","params":{"steps":2}}"#,
    r#"{"id":7.0,"ok":false,"error":{"code":"shutting_down","message":"server is draining; no new work"}}"#,
);

/// Compares `got` with `want` pair by pair; on any difference, panics
/// with every actual value so the whole table can be read at once.
fn assert_pinned(what: &str, want: &[&str], got: &[String]) {
    if want.iter().zip(got).all(|(w, g)| w == g) {
        return;
    }
    let mut report = format!("{what} moved; actual values:\n");
    for (w, g) in want.iter().zip(got) {
        let mark = if w == g { "  " } else { "≠ " };
        report.push_str(&format!("{mark}{g}\n"));
    }
    panic!("{report}");
}

#[test]
fn data_endpoints_keep_their_route_keys_and_response_bytes() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = Conn::open(&handle);
    let mut keys = Vec::new();
    let mut lines = Vec::new();
    for (request, _, _) in DATA {
        keys.push(route_key(request));
        lines.push(untimed(&conn.exchange(request.as_bytes())));
    }
    assert_pinned("route keys", &DATA.map(|(_, key, _)| key), &keys);
    assert_pinned("response lines", &DATA.map(|(_, _, line)| line), &lines);
    handle.shutdown();
    drop(conn);
    handle.join();
}

#[test]
fn error_lines_keep_their_bytes() {
    let handle = Server::spawn(ServerConfig::default()).expect("spawn");
    let mut conn = Conn::open(&handle);
    let got: Vec<String> = ERRORS.iter().map(|(request, _)| conn.exchange(request)).collect();
    assert_pinned("error lines", &ERRORS.map(|(_, line)| line), &got);

    let shed = Server::spawn(ServerConfig { queue_capacity: 0, ..ServerConfig::default() })
        .expect("spawn");
    let overloaded = Conn::open(&shed).exchange(OVERLOADED.0.as_bytes());
    assert_pinned("overloaded line", &[OVERLOADED.1], &[overloaded]);
    shed.shutdown();
    shed.join();

    conn.exchange(br#"{"id":0,"endpoint":"shutdown"}"#);
    let draining = conn.exchange(SHUTTING_DOWN.0.as_bytes());
    assert_pinned("shutting_down line", &[SHUTTING_DOWN.1], &[draining]);
    drop(conn);
    handle.join();
}
