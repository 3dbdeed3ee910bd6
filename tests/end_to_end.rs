//! Workspace-spanning integration tests: each exercises at least three
//! crates together through the facade.

use electronic_implants::biosensor::Enzyme;
use electronic_implants::comms::{BitStream, Frame};
use electronic_implants::implant_core::system::{ImplantSystem, SystemConfig};
use electronic_implants::link::budget::PowerBudget;
use electronic_implants::patch::Patch;
use electronic_implants::pmu::regulator::Ldo;
use electronic_implants::pmu::storage::StorageCap;

#[test]
fn full_measurement_session_round_trips_concentration() {
    // cell → potentiostat → ADC → frame → uplink → decode → inversion.
    let mut sys = ImplantSystem::ironic();
    for truth in [0.3, 0.8, 1.5, 3.0] {
        let out = sys.measurement_session(truth);
        assert!(out.compliant, "Vo floor held at {truth} mM: {}", out.vo_min);
        let rel = (out.concentration_estimate - truth).abs() / truth;
        assert!(rel < 0.05, "round trip at {truth} mM: got {}", out.concentration_estimate);
    }
}

#[test]
fn wtlodx_reads_lower_codes_than_clodx() {
    // Enzyme choice propagates through the whole chain to the ADC code.
    let read = |enzyme: Enzyme| {
        let mut cfg = SystemConfig::ironic();
        cfg.enzyme = enzyme;
        ImplantSystem::new(cfg).measurement_session(1.0).reading.code.value()
    };
    let c = read(Enzyme::clodx());
    let w = read(Enzyme::wtlodx());
    assert!(c > w, "cLODx code {c} must exceed wtLODx {w}");
}

#[test]
fn frames_survive_both_links_at_paper_rates() {
    // Frame → ASK envelope → demodulate → decode, then frame → LSK
    // reflected current → detect → decode.
    use electronic_implants::comms::ask::{AskDemodulator, AskModulator};
    use electronic_implants::comms::lsk::{reflected_current, LskDetector};

    let frame = Frame::new(&[0xDE, 0xAD, 0xBE, 0xEF]).expect("fits");
    let bits = frame.encode();

    // Downlink path.
    let tx = AskModulator::ironic_downlink().scaled(3.9);
    let rx = AskDemodulator::ironic_downlink();
    let env = tx.envelope(&bits, 5.0e-6);
    let t_end = 5.0e-6 + bits.len() as f64 * tx.bit_period() + 5.0e-6;
    let w = electronic_implants::analog::Waveform::from_fn(0.0, t_end, 100_000, |t| env.eval(t));
    let down = rx.demodulate_waveform(&w, 5.0e-6, bits.len());
    assert_eq!(Frame::decode(&down).expect("crc holds"), frame);

    // Uplink path.
    let det = LskDetector::ironic_uplink();
    let t_start = 10.0e-6;
    let t_stop = t_start + (bits.len() + 2) as f64 * det.bit_period();
    let shunt = reflected_current(
        &bits, det.bit_rate, t_start, t_stop, 20.0e-3, 8.0e-3, 1.0e-6, 400_000,
    );
    let up = det.detect(&shunt, t_start, bits.len());
    assert_eq!(Frame::decode(&up).expect("crc holds"), frame);
}

#[test]
fn link_budget_supports_the_implant_demand() {
    // The calibrated link must deliver more than the worst-case implant
    // demand (1.3 mA high-power sensor behind the LDO) at 6 mm, with
    // margin vanishing far out.
    let budget = PowerBudget::ironic_air();
    let ldo = Ldo::ironic();
    let demand = ldo.min_input() * ldo.input_current(1.3e-3); // ≈ 2.7 mW
    assert!(budget.received_power(6.0e-3) > 4.0 * demand);
    assert!(budget.received_power(30.0e-3) < demand);
}

#[test]
fn storage_cap_bridges_one_uplink_frame() {
    // During LSK zeros no power arrives; Co recharges during the ones,
    // so the binding constraint is the longest run of zeros in the
    // frame encoding — Co must bridge it without violating 2.1 V.
    let frame = Frame::new(&[0x55, 0xAA]).expect("fits");
    let bits: BitStream = frame.encode();
    let mut longest_zero_run = 0usize;
    let mut run = 0usize;
    for b in bits.iter() {
        run = if b { 0 } else { run + 1 };
        longest_zero_run = longest_zero_run.max(run);
    }
    let t_dark = longest_zero_run as f64 / 66.6e3;
    let co = StorageCap::new(150.0e-9, 2.75);
    let holdup = co.holdup_time(355.0e-6, 2.1);
    assert!(
        holdup > t_dark,
        "Co bridges {t_dark:.1e} s of shorted bits (holdup {holdup:.1e} s)"
    );
}

#[test]
fn patch_battery_survives_a_clinic_day_of_sessions() {
    // 8 hours of hourly measurements must not deplete the battery.
    let mut patch = Patch::new();
    let cmd = Frame::new(&[0x01]).expect("fits");
    for _ in 0..8 {
        assert!(
            patch.measurement_cycle(&cmd, 1.0, 0.05, 32).is_some(),
            "cycle failed at {:.1} h",
            patch.time() / 3600.0
        );
        assert!(patch.advance(3600.0 - 2.0), "idle hour");
    }
    assert!(!patch.battery().is_depleted());
    assert!(patch.battery().state_of_charge() > 0.05);
}

#[test]
fn facade_reexports_are_usable() {
    // Each re-exported crate is reachable through the facade.
    let _ = electronic_implants::analog::Circuit::new();
    let _ = electronic_implants::coils::SpiralCoil::ironic_receiver();
    let _ = electronic_implants::link::classe::ClassEDesign::ironic();
    let _ = electronic_implants::comms::BitStream::fig11_pattern();
    let _ = electronic_implants::pmu::storage::SensorLoad::LowPower;
    let _ = electronic_implants::biosensor::Enzyme::clodx();
    let _ = electronic_implants::patch::Battery::ironic_patch();
}

#[test]
fn whitened_frame_through_the_pmu_demodulator() {
    // Security-extension path across four crates: Frame (comms) →
    // whitening (comms::coding) → ASK envelope → the PMU's clocked
    // demodulator (pmu) samples at the ϕ1 edges → dewhiten → CRC check.
    use electronic_implants::comms::ask::AskModulator;
    use electronic_implants::comms::coding::whiten;
    use electronic_implants::pmu::demodulator::{ClockedDemodulator, TwoPhaseClock};

    let frame = Frame::new(&[0x13, 0x37, 0x42]).expect("fits");
    let clear = frame.encode();
    let white = whiten(&clear, 0x0B5);

    let tx = AskModulator::ironic_downlink().scaled(3.9);
    let env = tx.envelope(&white, 0.0);
    let demod = ClockedDemodulator {
        clock: TwoPhaseClock::ironic().delayed(4.0e-6),
        // Levels scaled by 3.9: shift sits between low (1.74) and high (3.02).
        diode_shift: 1.65,
        inverter_threshold: 0.85,
        ..ClockedDemodulator::ironic()
    };
    let (received, _) = demod.run(|t| env.eval(t), white.len());
    assert_eq!(received, white, "air bits recovered");

    let declear = whiten(&received, 0x0B5);
    let decoded = Frame::decode(&declear).expect("crc holds after dewhitening");
    assert_eq!(decoded, frame);

    // Wrong key: the CRC (or sync search) must reject it.
    let wrong = whiten(&received, 0x0B6);
    assert!(Frame::decode(&wrong).is_err(), "wrong key cannot yield a valid frame");
}

#[test]
fn server_round_trips_every_endpoint_deterministically() {
    // server + runtime + core + link across a real socket: spawn on an
    // ephemeral port, hit every endpoint once through the typed client,
    // and check that fixed seeds give fixed payloads and that repeats
    // come from the cache.
    use electronic_implants::runtime::Json;
    use electronic_implants::server::client::{Client, Response};
    use electronic_implants::server::{Server, ServerConfig};

    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let mut client = Client::connect(handle.addr()).expect("connect");
    let result = |resp: Response| -> Json {
        assert!(resp.is_ok(), "{}", resp.json());
        resp.result().expect("result present").clone()
    };

    // health: control plane, served inline; advertises the typed
    // protocol version the client negotiated with.
    assert!(client.health_ok(), "version negotiation");
    let health = result(client.health().expect("health answers"));
    assert_eq!(health.get("status").and_then(Json::as_str), Some("ok"));
    assert_eq!(health.get("proto_version").and_then(Json::as_u64), Some(2));

    // fig11: a cheapened transient via overrides (horizon trimmed to the
    // end of the uplink burst, 5× coarser step), still physically sane.
    let fig11 = result(
        client
            .request("fig11", Json::parse(r#"{"t_stop_us":150,"max_step_ns":50}"#).unwrap())
            .expect("fig11 answers"),
    );
    let vo_worst = fig11.get("vo_worst").and_then(Json::as_f64).unwrap();
    assert!((0.0..6.0).contains(&vo_worst), "vo_worst {vo_worst}");

    // fullchain: short steady-state run at 10 mm.
    let chain = result(
        client
            .request("fullchain", Json::parse(r#"{"cycles":30,"distance_mm":10}"#).unwrap())
            .expect("fullchain answers"),
    );
    assert!(chain.get("vo_steady").and_then(Json::as_f64).unwrap() > 0.0);
    let eff = chain.get("efficiency").and_then(Json::as_f64).unwrap();
    assert!((0.0..=1.0).contains(&eff), "efficiency {eff}");

    // montecarlo: fixed seed ⇒ fixed payload; repeat ⇒ cache hit.
    let mc_params = r#"{"trials":300,"seed":7,"scale":1.0}"#;
    let first = result(
        client.request("montecarlo", Json::parse(mc_params).unwrap()).expect("mc answers"),
    );
    assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
    let second = result(
        client.request("montecarlo", Json::parse(mc_params).unwrap()).expect("mc answers"),
    );
    assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(first.get("passing"), second.get("passing"));
    assert_eq!(
        first.get("vo_min_worst").and_then(Json::as_f64).map(f64::to_bits),
        second.get("vo_min_worst").and_then(Json::as_f64).map(f64::to_bits),
    );
    let trials = first.get("trials").and_then(Json::as_u64).unwrap();
    let passing = first.get("passing").and_then(Json::as_u64).unwrap();
    assert_eq!(trials, 300);
    assert!(passing <= trials);

    // sweep: power falls off monotonically with distance.
    let sweep = result(
        client
            .request("sweep", Json::parse(r#"{"d_min_mm":4,"d_max_mm":24,"steps":5}"#).unwrap())
            .expect("sweep answers"),
    );
    let powers: Vec<f64> = sweep
        .get("p_rx_mw")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|p| p.as_f64().unwrap())
        .collect();
    assert_eq!(powers.len(), 5);
    assert!(powers.windows(2).all(|w| w[1] < w[0]), "monotone: {powers:?}");

    // Graceful shutdown drains and joins.
    assert!(client.shutdown().expect("shutdown acks").is_ok());
    drop(client);
    handle.join();
}

#[test]
fn server_sheds_load_with_a_structured_error_when_saturated() {
    // A queue capacity of zero forces the overload path: the data plane
    // sheds every request with `overloaded` (never a hang or a dropped
    // connection) while the control plane keeps answering.
    use electronic_implants::runtime::Json;
    use electronic_implants::server::client::Client;
    use electronic_implants::server::{Server, ServerConfig};

    let config = ServerConfig { queue_capacity: 0, ..ServerConfig::default() };
    let handle = Server::spawn(config).expect("ephemeral bind");
    let mut client = Client::connect(handle.addr()).expect("connect");

    for expect_id in 1..=3 {
        let resp = client
            .request("sweep", Json::parse(r#"{"steps":2}"#).unwrap())
            .expect("shed response arrives");
        assert!(!resp.is_ok());
        assert_eq!(resp.error_code(), Some("overloaded"));
        assert_eq!(resp.id(), Some(expect_id));
    }
    let text = client.metrics_v2_text().expect("metrics_v2 answers");
    let shed = electronic_implants::obs::stage_count(&text, None, "server.error.overloaded");
    assert_eq!(shed, 3, "all three sheds accounted");

    handle.shutdown();
    drop(client);
    handle.join();
}

#[test]
fn server_survives_the_adversarial_client() {
    // server + runtime + testkit: hostile input — malformed JSON, a
    // >64 KiB line, binary garbage, a slowloris writer, and clients
    // that vanish mid-line or before their response — must each yield
    // a structured error (or a clean disconnect), never wedge the
    // server, and the data plane must still answer afterwards.
    use electronic_implants::runtime::Json;
    use electronic_implants::server::{Server, ServerConfig};
    use testkit::adversary::ProbeOutcome;
    use testkit::AdversarialClient;

    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let client = AdversarialClient::new(handle.addr());

    let report = client.assault();
    report.assert_contract();
    assert!(report.healthy_after, "health endpoint must answer after the assault");

    // Spot-check the probes the issue calls out by name.
    let outcome = |name: &str| {
        report
            .probes
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, o)| o.clone())
            .unwrap_or_else(|| panic!("probe {name} missing from {report:?}"))
    };
    assert_eq!(outcome("malformed_json"), ProbeOutcome::ErrorCode("bad_request".into()));
    assert_eq!(outcome("oversized_line"), ProbeOutcome::ErrorCode("bad_request".into()));
    assert_eq!(outcome("disconnect_before_response"), ProbeOutcome::Disconnected);

    // The data plane still computes real physics after all of it.
    let doc = client
        .rpc(r#"{"id":1,"endpoint":"fullchain","params":{"cycles":30,"distance_mm":10}}"#)
        .expect("server still answers");
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{doc}");

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_with_inflight_work_still_drains() {
    // A request parked in the queue when shutdown arrives must complete
    // with a real response — PR 2's drain contract, driven end to end
    // by the adversarial client.
    use electronic_implants::runtime::Json;
    use electronic_implants::server::{Server, ServerConfig};
    use std::io::{BufRead, BufReader, Write};
    use testkit::AdversarialClient;

    let handle = Server::spawn(ServerConfig::default()).expect("ephemeral bind");
    let mut busy = std::net::TcpStream::connect(handle.addr()).expect("connect");
    busy.set_read_timeout(Some(std::time::Duration::from_secs(30))).unwrap();
    busy.write_all(b"{\"id\":11,\"endpoint\":\"montecarlo\",\"params\":{\"trials\":400}}\n")
        .expect("write");
    busy.flush().unwrap();
    // Let the poller admit the request before racing shutdown against
    // it — the contract under test is drain-after-admission.
    std::thread::sleep(std::time::Duration::from_millis(50));

    let client = AdversarialClient::new(handle.addr());
    let ack = client.rpc(r#"{"id":12,"endpoint":"shutdown"}"#).expect("shutdown acks");
    assert_eq!(ack.get("ok"), Some(&Json::Bool(true)));

    let mut reader = BufReader::new(busy.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).expect("in-flight response arrives");
    let doc = Json::parse(line.trim_end()).expect("valid JSON");
    assert_eq!(doc.get("id").and_then(Json::as_u64), Some(11));
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)), "{line}");
    // Connection lifetime is client-controlled: close our end rather
    // than waiting for a server EOF that the contract never promises.
    drop(reader);
    drop(busy);
    handle.join();
}

#[test]
fn thermal_safety_at_the_operating_point() {
    // patch (thermal) + link (budget): the delivered power at 6 mm stays
    // within the ISO implant-heating limit with margin.
    use electronic_implants::patch::thermal::{evaluate, ThermalPath, IMPLANT_RISE_LIMIT_K};
    use electronic_implants::patch::power_states::PatchState;

    let budget = PowerBudget::ironic_air();
    let p_rx = budget.received_power(6.0e-3);
    let p_batt = PatchState::powering().power(3.7);
    let report = evaluate(p_batt, p_rx);
    assert!(report.safe, "operating point is thermally safe: {report:?}");
    let implant = ThermalPath::subcutaneous_implant();
    assert!(implant.rise(p_rx) < IMPLANT_RISE_LIMIT_K);
}
