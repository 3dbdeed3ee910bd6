//! Integration tests: membership probing, routed requests, retries,
//! failover, and the front proxy, all over real sockets on loopback.

use cluster::{
    ClusterClient, ClusterError, ClusterProxy, HealthState, ProbeConfig, ProxyConfig, ReplicaSet,
    RetryPolicy,
};
use server::client::Client;
use server::ServerConfig;
use runtime::Json;
use std::time::{Duration, Instant};

/// Fast probing for tests: 5 ms cadence, 2-fall/1-rise hysteresis.
fn probe() -> ProbeConfig {
    ProbeConfig {
        interval: Duration::from_millis(5),
        fall_threshold: 2,
        rise_threshold: 1,
        probe_timeout: Duration::from_millis(250),
    }
}

fn small_server() -> ServerConfig {
    ServerConfig { workers: 1, pool_workers: 1, ..ServerConfig::default() }
}

const CONVERGE: Duration = Duration::from_secs(10);

#[test]
fn membership_converges_then_walks_a_killed_replica_down() {
    let set = ReplicaSet::spawn_local(2, &small_server(), probe()).unwrap();
    assert!(set.await_converged(CONVERGE), "first probe verdicts land");
    assert!(set.await_state("r0", HealthState::Up, CONVERGE));
    assert!(set.await_state("r1", HealthState::Up, CONVERGE));
    assert_eq!(set.up_count(), 2);

    assert!(set.kill("r1"), "in-process replicas are killable");
    assert!(!set.kill("r1"), "second kill is a no-op");
    assert!(set.await_state("r1", HealthState::Down, CONVERGE), "prober notices the death");
    assert_eq!(set.up_count(), 1);
    let r1 = set.snapshot().into_iter().find(|v| v.name == "r1").unwrap();
    assert!(r1.transitions >= 2, "up then down: {r1:?}");
    set.shutdown();
}

#[test]
fn identical_requests_route_to_the_same_replica_and_hit_its_cache() {
    let set = ReplicaSet::spawn_local(2, &small_server(), probe()).unwrap();
    assert!(set.await_converged(CONVERGE));
    let mut client = ClusterClient::new(set.clone(), RetryPolicy::default());

    let params = || Json::parse(r#"{"trials": 60, "seed": 11}"#).unwrap();
    let first = client.request_routed("montecarlo", params(), None).unwrap();
    assert!(first.response.is_ok());
    assert_eq!(
        first.response.result().and_then(|r| r.get("cached")),
        Some(&Json::Bool(false)),
        "first sight computes"
    );
    let second = client.request_routed("montecarlo", params(), None).unwrap();
    assert_eq!(second.replica, first.replica, "placement is sticky");
    assert_eq!(
        second.response.result().and_then(|r| r.get("cached")),
        Some(&Json::Bool(true)),
        "the warm replica serves from its result cache"
    );

    // A fresh client (fresh connections, fresh jitter streams) places
    // the same request on the same replica: placement is a function of
    // the request, not of client state.
    let mut other = ClusterClient::new(set.clone(), RetryPolicy::default());
    let third = other.request_routed("montecarlo", params(), None).unwrap();
    assert_eq!(third.replica, first.replica);

    // Distinct seeds spread over the membership.
    let mut homes = std::collections::BTreeSet::new();
    for seed in 0..16 {
        let p = Json::parse(&format!(r#"{{"trials": 30, "seed": {seed}}}"#)).unwrap();
        homes.insert(client.request_routed("montecarlo", p, None).unwrap().replica);
    }
    assert_eq!(homes.len(), 2, "16 keys land on both replicas: {homes:?}");
    set.shutdown();
}

#[test]
fn failover_answers_every_in_deadline_request_after_a_kill() {
    let set = ReplicaSet::spawn_local(3, &small_server(), probe()).unwrap();
    assert!(set.await_converged(CONVERGE));
    let mut client = ClusterClient::new(set.clone(), RetryPolicy::default());

    // Seed every replica with some traffic, remembering each key's home.
    let mut homes = Vec::new();
    for seed in 0..12 {
        let p = Json::parse(&format!(r#"{{"trials": 30, "seed": {seed}}}"#)).unwrap();
        let routed = client.request_routed("montecarlo", p, None).unwrap();
        assert!(routed.response.is_ok());
        homes.push((seed, routed.replica));
    }
    let victim = homes[0].1.clone();
    assert!(set.kill(&victim));

    // Immediately re-issue everything — including keys homed on the
    // corpse, before the prober necessarily caught up. Every request
    // must still be answered inside its budget.
    for (seed, _) in &homes {
        let p = Json::parse(&format!(r#"{{"trials": 30, "seed": {seed}}}"#)).unwrap();
        let routed = client
            .request_routed("montecarlo", p, Some(Duration::from_secs(10)))
            .unwrap();
        assert!(routed.response.is_ok(), "seed {seed} lost after kill");
        assert_ne!(routed.replica, victim, "the corpse answered?");
    }
    let stats = client.stats();
    assert!(stats.failovers >= 1, "keys homed on the victim failed over: {stats:?}");
    assert_eq!(stats.routed, 24);

    // Once the prober marks it down, placement skips it outright and
    // requests stop paying the connect-refused retry.
    assert!(set.await_state(&victim, HealthState::Down, CONVERGE));
    let p = Json::parse(&format!(r#"{{"trials": 30, "seed": {}}}"#, homes[0].0)).unwrap();
    let routed = client.request_routed("montecarlo", p, None).unwrap();
    assert!(routed.response.is_ok());
    set.shutdown();
}

#[test]
fn retries_are_bounded_and_final_errors_pass_through() {
    // Capacity-zero replicas shed everything: the client must spend its
    // whole attempt budget, then report exhaustion.
    let config = ServerConfig { queue_capacity: 0, workers: 1, ..ServerConfig::default() };
    let set = ReplicaSet::spawn_local(2, &config, probe()).unwrap();
    assert!(set.await_converged(CONVERGE));
    let policy = RetryPolicy {
        max_attempts: 3,
        base_backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let mut client = ClusterClient::new(set.clone(), policy);
    let err = client
        .request("sweep", Json::parse(r#"{"steps": 3}"#).unwrap())
        .unwrap_err();
    match err {
        ClusterError::Exhausted { attempts, ref last } => {
            assert_eq!(attempts, 3);
            assert!(last.contains("overloaded"), "{last}");
        }
        other => panic!("expected exhaustion, got {other}"),
    }
    assert_eq!(client.stats().retries, 2);

    // A final (deterministic) rejection is returned, not retried: the
    // attempt counter shows a single try.
    let routed = client
        .request_routed("sweep", Json::parse(r#"{"steps": 1}"#).unwrap(), None)
        .unwrap_err();
    match routed {
        ClusterError::Decode(e) => assert_eq!(e.field.as_deref(), Some("steps")),
        other => panic!("client-side decode catches it first: {other}"),
    }
    set.shutdown();
}

#[test]
fn deadline_budget_bounds_time_against_a_dead_set() {
    // Two reserved-then-released ports: nobody listens, every connect
    // is refused. The budget, not the retry count, should end the wait.
    let dead: Vec<(String, std::net::SocketAddr)> = (0..2)
        .map(|i| {
            let sock = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            (format!("d{i}"), sock.local_addr().unwrap())
        })
        .collect();
    let set = ReplicaSet::from_addrs(dead, probe());
    let policy = RetryPolicy {
        max_attempts: 100,
        base_backoff: Duration::from_millis(20),
        max_backoff: Duration::from_millis(40),
        ..RetryPolicy::default()
    };
    let mut client = ClusterClient::new(set.clone(), policy);
    let started = Instant::now();
    let err = client
        .request_routed(
            "sweep",
            Json::parse(r#"{"steps": 3}"#).unwrap(),
            Some(Duration::from_millis(200)),
        )
        .unwrap_err();
    let elapsed = started.elapsed();
    assert!(matches!(err, ClusterError::Exhausted { .. }), "{err}");
    assert!(
        elapsed < Duration::from_secs(3),
        "budget of 200 ms must not stretch to {elapsed:?}"
    );
    set.shutdown();
}

#[test]
fn proxy_serves_the_v2_protocol_with_cluster_control_plane() {
    let set = ReplicaSet::spawn_local(2, &small_server(), probe()).unwrap();
    assert!(set.await_converged(CONVERGE));
    let proxy = ClusterProxy::spawn(set.clone(), ProxyConfig::default()).unwrap();
    let mut client = Client::connect(proxy.addr()).unwrap();

    // health: the membership table, not a single server's view.
    let health = client.health().unwrap();
    assert!(health.is_ok());
    let result = health.result().unwrap();
    assert_eq!(result.get("role").and_then(Json::as_str), Some("cluster-proxy"));
    assert_eq!(result.get("up").and_then(Json::as_u64), Some(2));
    let replicas = result.get("replicas").and_then(Json::as_arr).unwrap();
    assert_eq!(replicas.len(), 2);
    assert_eq!(replicas[0].get("state").and_then(Json::as_str), Some("up"));

    // Data plane: routed, answered, id echoed from *this* connection.
    let sweep = client.request("sweep", Json::parse(r#"{"steps": 3}"#).unwrap()).unwrap();
    assert!(sweep.is_ok(), "{:?}", sweep.json());
    assert_eq!(sweep.id(), Some(2), "proxy rewrites ids to the caller's");
    let powers = sweep.result().and_then(|r| r.get("p_rx_mw")).and_then(Json::as_arr);
    assert_eq!(powers.map(<[Json]>::len), Some(3));

    // Structured rejections survive the hop, field and all.
    let bad = client.request("sweep", Json::parse(r#"{"steps": 1}"#).unwrap()).unwrap();
    assert_eq!(bad.error_code(), Some("bad_request"));
    assert_eq!(bad.error_field(), Some("steps"));

    // metrics_v2: merged exposition with per-replica labels.
    let text = client.metrics_v2_text().unwrap();
    assert!(text.contains("replica=\"r0\""), "{text}");
    assert!(text.contains("replica=\"r1\""), "{text}");
    assert_eq!(
        text.matches("# TYPE implant_obs_stage_count counter").count(),
        1,
        "families must merge, not repeat"
    );

    // ...and one part for the cluster's own stages.
    assert!(obs::stage_count(&text, Some("cluster"), "cluster.probe") > 0, "{text}");
    assert!(obs::stage_count(&text, Some("cluster"), "cluster.route") >= 1, "{text}");

    // The v1 `metrics` endpoint is gone.
    let metrics = client.request("metrics", Json::Obj(Vec::new())).unwrap();
    assert_eq!(metrics.error_code(), Some("unknown_endpoint"));

    // shutdown: acknowledged, then the whole set drains.
    let bye = client.shutdown().unwrap();
    assert!(bye.is_ok());
    drop(client);
    proxy.join();
    assert_eq!(set.up_count(), 0, "replicas drained with the proxy");
}

#[test]
fn each_replica_reports_exactly_the_requests_it_served() {
    let set = ReplicaSet::spawn_local(3, &small_server(), probe()).unwrap();
    assert!(set.await_converged(CONVERGE));
    let proxy = ClusterProxy::spawn(set.clone(), ProxyConfig::default()).unwrap();
    let names = ["r0", "r1", "r2"];
    let mut served = [0u64; 3];

    // Uneven direct traffic: 1, 2 and 4 distinct sweeps...
    let mut steps = 2;
    for (i, member) in set.members().iter().enumerate() {
        let mut client = Client::connect(member.addr()).unwrap();
        for _ in 0..(1 << i) {
            let params = Json::parse(&format!(r#"{{"steps": {steps}}}"#)).unwrap();
            assert!(client.request("sweep", params).unwrap().is_ok());
            steps += 1;
            served[i] += 1;
        }
    }
    // ...then distinct points through the proxy, counted by the stamp
    // of the replica that answered.
    let mut client = Client::connect(proxy.addr()).unwrap();
    for seed in 0..9 {
        let params = Json::parse(&format!(r#"{{"trials": 20, "seed": {seed}}}"#)).unwrap();
        let response = client.request("montecarlo", params).unwrap();
        assert!(response.is_ok(), "{:?}", response.json());
        let replica = response.json().get("replica").and_then(Json::as_str).unwrap();
        served[names.iter().position(|n| *n == replica).unwrap()] += 1;
    }

    // Each replica's own scrape, and its part of the proxy's merge,
    // count exactly what it executed; the cluster's part none of it.
    let merged = client.metrics_v2_text().unwrap();
    for (i, member) in set.members().iter().enumerate() {
        let own = Client::connect(member.addr()).unwrap().metrics_v2_text().unwrap();
        assert_eq!(obs::stage_count(&own, None, "server.execute"), served[i], "{}: {own}", names[i]);
        let part = obs::stage_count(&merged, Some(names[i]), "server.execute");
        assert_eq!(part, served[i], "{} in the merge: {merged}", names[i]);
    }
    assert_eq!(obs::stage_count(&merged, Some("cluster"), "server.execute"), 0, "{merged}");
    assert!(obs::stage_count(&merged, Some("cluster"), "cluster.route") >= 9, "{merged}");

    assert!(client.shutdown().unwrap().is_ok());
    drop(client);
    proxy.join();
}
