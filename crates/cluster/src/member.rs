//! Replica-set membership: spawning, health probing, and the up/down
//! state machine.
//!
//! A [`ReplicaSet`] holds N replicas of the implant service — spawned
//! in-process ([`ReplicaSet::spawn_local`], what tests and the
//! `cluster_serve` binary use) or adopted from externally managed
//! addresses ([`ReplicaSet::from_addrs`], deployments). A background
//! prober drives each member's [`HealthState`] from `health` round
//! trips with hysteresis: `fall_threshold` consecutive failures mark a
//! member [`HealthState::Down`], `rise_threshold` consecutive successes
//! mark it [`HealthState::Up`] — one flaky probe never flaps routing.
//!
//! Every probe bumps the `cluster.probe` stage; transitions bump
//! `cluster.up` / `cluster.down`. The prober records into the set's own
//! [`obs::Scope`], which the front proxy's threads share, so a scrape
//! of the merged `metrics_v2` shows membership churn next to request
//! latencies.
//!
//! The state machine itself ([`ProbeCounters::step`]) is a pure
//! function — unit-tested without sockets; the prober thread is just a
//! loop applying it to real probe outcomes.

use crate::rendezvous;
use server::client::Client;
use server::router::PrewarmReport;
use server::{Server, ServerConfig, ServerHandle};
use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use store::CatchupBudget;

/// Probe cadence and hysteresis thresholds.
#[derive(Debug, Clone)]
pub struct ProbeConfig {
    /// Pause between probe rounds.
    pub interval: Duration,
    /// Consecutive failed probes before a member goes down.
    pub fall_threshold: u32,
    /// Consecutive successful probes before a member comes (back) up.
    pub rise_threshold: u32,
    /// Bound on each probe's connect and read.
    pub probe_timeout: Duration,
}

impl Default for ProbeConfig {
    fn default() -> Self {
        ProbeConfig {
            interval: Duration::from_millis(25),
            fall_threshold: 2,
            rise_threshold: 1,
            probe_timeout: Duration::from_millis(250),
        }
    }
}

/// A member's routing state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Not probed yet (treated as routable — better a try than a stall
    /// while the first probe round is still in flight).
    Unknown,
    /// Answering `health` with a compatible protocol range.
    Up,
    /// Failed [`ProbeConfig::fall_threshold`] consecutive probes.
    Down,
}

/// The per-member probe bookkeeping the state machine runs on.
#[derive(Debug, Clone)]
pub struct ProbeCounters {
    /// Current routing state.
    pub state: HealthState,
    /// Consecutive failed probes (reset by any success).
    pub failures: u32,
    /// Consecutive successful probes (reset by any failure).
    pub successes: u32,
    /// Probes ever run against this member.
    pub probes: u64,
    /// State transitions ever taken.
    pub transitions: u64,
}

impl Default for ProbeCounters {
    fn default() -> Self {
        ProbeCounters {
            state: HealthState::Unknown,
            failures: 0,
            successes: 0,
            probes: 0,
            transitions: 0,
        }
    }
}

impl ProbeCounters {
    /// Applies one probe outcome; returns the new state when this
    /// outcome caused a transition.
    pub fn step(&mut self, healthy: bool, config: &ProbeConfig) -> Option<HealthState> {
        self.probes += 1;
        if healthy {
            self.failures = 0;
            self.successes = self.successes.saturating_add(1);
            if self.state != HealthState::Up && self.successes >= config.rise_threshold {
                self.state = HealthState::Up;
                self.transitions += 1;
                return Some(HealthState::Up);
            }
        } else {
            self.successes = 0;
            self.failures = self.failures.saturating_add(1);
            if self.state != HealthState::Down && self.failures >= config.fall_threshold {
                self.state = HealthState::Down;
                self.transitions += 1;
                return Some(HealthState::Down);
            }
        }
        None
    }
}

/// One replica: identity, address, probe state, and — for in-process
/// replicas — the server handle itself.
pub struct Member {
    name: String,
    /// Behind a mutex because a rejoined replica binds a fresh
    /// ephemeral port; routing layers re-read it every request.
    addr: Mutex<SocketAddr>,
    counters: Mutex<ProbeCounters>,
    handle: Mutex<Option<ServerHandle>>,
    /// True while the member is catching up from the shared store:
    /// probes may already succeed, but the effective routing state
    /// stays [`HealthState::Down`] until the pre-warm completes.
    warming: AtomicBool,
}

impl Member {
    fn new(name: String, addr: SocketAddr, handle: Option<ServerHandle>) -> Member {
        Member {
            name,
            addr: Mutex::new(addr),
            counters: Mutex::new(ProbeCounters::default()),
            handle: Mutex::new(handle),
            warming: AtomicBool::new(false),
        }
    }

    /// Stable member name (`r0`, `r1`, … for local spawns).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The replica's current socket address (a rejoin re-binds it).
    pub fn addr(&self) -> SocketAddr {
        *self.addr.lock().expect("member lock")
    }

    /// Current *effective* routing state: the probe verdict, except
    /// that a member still warming from the store reports
    /// [`HealthState::Down`] — it must not take traffic before its
    /// catch-up finishes.
    pub fn state(&self) -> HealthState {
        if self.warming.load(Ordering::SeqCst) {
            return HealthState::Down;
        }
        self.counters.lock().expect("member lock").state
    }

    /// True while the member is pre-warming from the shared store.
    pub fn is_warming(&self) -> bool {
        self.warming.load(Ordering::SeqCst)
    }
}

/// A point-in-time membership snapshot row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberView {
    /// Member name.
    pub name: String,
    /// Member address.
    pub addr: SocketAddr,
    /// Routing state at snapshot time.
    pub state: HealthState,
    /// Probes run so far.
    pub probes: u64,
    /// Transitions taken so far.
    pub transitions: u64,
}

/// N replicas plus their prober thread. Share it as `Arc<ReplicaSet>`;
/// everything is interior-mutable and `shutdown` is idempotent.
pub struct ReplicaSet {
    members: Vec<Arc<Member>>,
    config: ProbeConfig,
    stop: Arc<AtomicBool>,
    prober: Mutex<Option<JoinHandle<()>>>,
    /// The config local replicas were spawned from — kept so a killed
    /// member can be respawned for rejoin. `None` for adopted sets.
    template: Option<ServerConfig>,
    /// The cluster's own stage table (`cluster.*`): the prober records
    /// into it, and so do the front proxy's threads.
    pub(crate) scope: obs::Scope,
}

impl ReplicaSet {
    /// Spawns `n` in-process replicas of the implant server (each from
    /// a clone of `template` on its own ephemeral port; `template.addr`
    /// is used as-is, so leave it `127.0.0.1:0`) and starts the prober.
    ///
    /// # Errors
    ///
    /// The bind error of the first replica that fails to spawn (the
    /// already-spawned ones are shut down).
    pub fn spawn_local(
        n: usize,
        template: &ServerConfig,
        probe: ProbeConfig,
    ) -> io::Result<Arc<ReplicaSet>> {
        let mut members = Vec::with_capacity(n);
        for i in 0..n.max(1) {
            let name = format!("r{i}");
            // Each replica writes its own store manifest (meaningful
            // only when the template carries a store_dir).
            let mut config = template.clone();
            config.store_replica = name.clone();
            match Server::spawn(config) {
                Ok(handle) => {
                    let addr = handle.addr();
                    members.push(Arc::new(Member::new(name, addr, Some(handle))));
                }
                Err(e) => {
                    for member in &members {
                        if let Some(h) = member.handle.lock().expect("member lock").take() {
                            h.shutdown();
                            h.join();
                        }
                    }
                    return Err(e);
                }
            }
        }
        Ok(ReplicaSet::start(members, probe, Some(template.clone())))
    }

    /// Adopts externally managed replicas by `(name, addr)`; the set
    /// probes them but cannot kill or drain them.
    pub fn from_addrs(
        addrs: impl IntoIterator<Item = (String, SocketAddr)>,
        probe: ProbeConfig,
    ) -> Arc<ReplicaSet> {
        let members = addrs
            .into_iter()
            .map(|(name, addr)| Arc::new(Member::new(name, addr, None)))
            .collect();
        ReplicaSet::start(members, probe, None)
    }

    fn start(
        members: Vec<Arc<Member>>,
        config: ProbeConfig,
        template: Option<ServerConfig>,
    ) -> Arc<ReplicaSet> {
        let set = Arc::new(ReplicaSet {
            members,
            config,
            stop: Arc::new(AtomicBool::new(false)),
            prober: Mutex::new(None),
            template,
            scope: obs::Scope::default(),
        });
        let prober = {
            let set = Arc::clone(&set);
            std::thread::Builder::new()
                .name("implant-cluster-prober".to_string())
                .spawn(move || set.scope.run(|| set.probe_loop()))
                .expect("spawn prober")
        };
        *set.prober.lock().expect("prober lock") = Some(prober);
        set
    }

    /// One probe round per member, then sleep, until shutdown.
    fn probe_loop(&self) {
        while !self.stop.load(Ordering::SeqCst) {
            for member in &self.members {
                if self.stop.load(Ordering::SeqCst) {
                    return;
                }
                let healthy = probe_once(member.addr(), self.config.probe_timeout);
                obs::count!("cluster.probe");
                let transition = member
                    .counters
                    .lock()
                    .expect("member lock")
                    .step(healthy, &self.config);
                match transition {
                    Some(HealthState::Up) => obs::count!("cluster.up"),
                    Some(HealthState::Down) => obs::count!("cluster.down"),
                    _ => {}
                }
            }
            // Interruptible pause: a shutdown must never wait out a
            // long probe interval.
            let deadline = Instant::now() + self.config.interval;
            while !self.stop.load(Ordering::SeqCst) {
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_millis(5)));
            }
        }
    }

    /// The membership, in spawn order (the order rendezvous ranking
    /// deduplicates against — stable for the life of the set).
    pub fn members(&self) -> &[Arc<Member>] {
        &self.members
    }

    /// Point-in-time snapshot of every member.
    pub fn snapshot(&self) -> Vec<MemberView> {
        self.members
            .iter()
            .map(|m| {
                // Read the effective state first — `Member::state`
                // takes the counters lock itself.
                let state = m.state();
                let c = m.counters.lock().expect("member lock");
                MemberView {
                    name: m.name.clone(),
                    addr: m.addr(),
                    state,
                    probes: c.probes,
                    transitions: c.transitions,
                }
            })
            .collect()
    }

    /// Members currently routable (up or not yet probed).
    pub fn routable(&self) -> Vec<Arc<Member>> {
        self.members
            .iter()
            .filter(|m| m.state() != HealthState::Down)
            .cloned()
            .collect()
    }

    /// Count of members currently [`HealthState::Up`].
    pub fn up_count(&self) -> usize {
        self.members.iter().filter(|m| m.state() == HealthState::Up).count()
    }

    /// Blocks until every member has left [`HealthState::Unknown`] (the
    /// first probe verdict landed everywhere) or `timeout` passes.
    /// Returns whether convergence happened.
    pub fn await_converged(&self, timeout: Duration) -> bool {
        self.await_where(timeout, |views| {
            views.iter().all(|v| v.state != HealthState::Unknown)
        })
    }

    /// Blocks until `name` reaches `state` or `timeout` passes.
    pub fn await_state(&self, name: &str, state: HealthState, timeout: Duration) -> bool {
        self.await_where(timeout, |views| {
            views.iter().any(|v| v.name == name && v.state == state)
        })
    }

    fn await_where(&self, timeout: Duration, pred: impl Fn(&[MemberView]) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if pred(&self.snapshot()) {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Kills one in-process replica: drains its server and closes its
    /// listener, so new connections are refused — the prober then walks
    /// it down like any crashed peer. Returns false for unknown names
    /// and members this set does not own (adopted addresses).
    pub fn kill(&self, name: &str) -> bool {
        let Some(member) = self.members.iter().find(|m| m.name == name) else {
            return false;
        };
        let Some(handle) = member.handle.lock().expect("member lock").take() else {
            return false;
        };
        handle.shutdown();
        handle.join();
        true
    }

    /// Respawns a killed in-process replica and catches it up from the
    /// shared artifact store before it takes traffic:
    ///
    /// 1. the member enters the *warming* state — its effective health
    ///    is [`HealthState::Down`] whatever the probes say;
    /// 2. a fresh server is spawned from the set's template (same
    ///    store directory, the member's own manifest name) on a new
    ///    ephemeral port;
    /// 3. the server's router pre-warms every store key HRW assigns to
    ///    this member under the full membership, within `budget`, in
    ///    the seeded order of `seed` (see [`store::catchup`]);
    /// 4. only then does the warming flag clear, letting the prober
    ///    walk the member back [`HealthState::Up`].
    ///
    /// Without a store in the template this still respawns the member —
    /// the pre-warm is simply empty (a cold rejoin).
    ///
    /// # Errors
    ///
    /// `NotFound` for unknown names or sets without a spawn template
    /// (adopted addresses), `AlreadyExists` if the member is still
    /// running, or the spawn error itself.
    pub fn rejoin_with_catchup(
        &self,
        name: &str,
        budget: &CatchupBudget,
        seed: u64,
    ) -> io::Result<PrewarmReport> {
        let Some(member) = self.members.iter().find(|m| m.name == name) else {
            return Err(io::Error::new(io::ErrorKind::NotFound, format!("no member {name:?}")));
        };
        let Some(template) = &self.template else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                "set has no spawn template (adopted membership)",
            ));
        };
        {
            let handle = member.handle.lock().expect("member lock");
            if handle.is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    format!("member {name:?} is still running; kill it first"),
                ));
            }
        }
        member.warming.store(true, Ordering::SeqCst);
        let mut config = template.clone();
        config.store_replica = name.to_string();
        let handle = match Server::spawn(config) {
            Ok(handle) => handle,
            Err(e) => {
                member.warming.store(false, Ordering::SeqCst);
                return Err(e);
            }
        };
        // Pre-warm the keys this member owns under the full membership
        // — exactly the keys rendezvous routing will send it once up.
        let names: Vec<String> = self.members.iter().map(|m| m.name.clone()).collect();
        let report = {
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            handle.shared().router.prewarm(
                |key| rendezvous::pick(&name_refs, key) == Some(name),
                budget,
                seed,
            )
        };
        *member.addr.lock().expect("member lock") = handle.addr();
        *member.handle.lock().expect("member lock") = Some(handle);
        member.warming.store(false, Ordering::SeqCst);
        Ok(report)
    }

    /// Stops the prober and drains every replica this set owns.
    /// Idempotent.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.lock().expect("prober lock").take() {
            let _ = prober.join();
        }
        for member in &self.members {
            if let Some(handle) = member.handle.lock().expect("member lock").take() {
                handle.shutdown();
                handle.join();
                // The prober is gone; record the drain ourselves so
                // snapshots taken after shutdown read down, not a stale
                // up from the last probe round.
                let mut counters = member.counters.lock().expect("member lock");
                if counters.state != HealthState::Down {
                    counters.state = HealthState::Down;
                    counters.transitions += 1;
                }
            }
        }
    }
}

impl Drop for ReplicaSet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// One bounded health round trip: connect, `health`, protocol check.
fn probe_once(addr: SocketAddr, timeout: Duration) -> bool {
    match Client::builder()
        .connect_timeout(timeout)
        .read_timeout(timeout)
        .connect(addr)
    {
        Ok(mut client) => client.health_ok(),
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(fall: u32, rise: u32) -> ProbeConfig {
        ProbeConfig { fall_threshold: fall, rise_threshold: rise, ..ProbeConfig::default() }
    }

    #[test]
    fn fall_threshold_filters_single_blips() {
        let cfg = config(2, 1);
        let mut c = ProbeCounters::default();
        assert_eq!(c.step(true, &cfg), Some(HealthState::Up));
        // One failed probe: still up, no transition.
        assert_eq!(c.step(false, &cfg), None);
        assert_eq!(c.state, HealthState::Up);
        // A success in between resets the streak.
        assert_eq!(c.step(true, &cfg), None);
        assert_eq!(c.step(false, &cfg), None);
        // Only the second *consecutive* failure walks it down.
        assert_eq!(c.step(false, &cfg), Some(HealthState::Down));
        assert_eq!(c.transitions, 2);
    }

    #[test]
    fn rise_threshold_requires_a_streak_to_recover() {
        let cfg = config(1, 3);
        let mut c = ProbeCounters::default();
        assert_eq!(c.step(false, &cfg), Some(HealthState::Down));
        assert_eq!(c.step(true, &cfg), None);
        assert_eq!(c.step(true, &cfg), None);
        assert_eq!(c.step(false, &cfg), None, "already down; no re-transition");
        assert_eq!(c.step(true, &cfg), None);
        assert_eq!(c.step(true, &cfg), None);
        assert_eq!(c.step(true, &cfg), Some(HealthState::Up));
        assert_eq!(c.probes, 7);
    }

    #[test]
    fn unknown_members_count_as_routable() {
        let set = ReplicaSet::from_addrs(
            [("ghost".to_string(), "127.0.0.1:1".parse().unwrap())],
            ProbeConfig { interval: Duration::from_secs(3600), ..ProbeConfig::default() },
        );
        // Freshly adopted, never probed: routable, not up.
        assert_eq!(set.members()[0].state(), HealthState::Unknown);
        assert_eq!(set.up_count(), 0);
        assert_eq!(set.routable().len(), 1);
        set.shutdown();
    }
}
