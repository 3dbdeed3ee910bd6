//! Seeded request sequences for the three workloads.
//!
//! Every request is a pure function of `(workload, seed, index)`, so the
//! same seed always yields the same sequence and the server sees only the
//! generated requests. Each workload follows a fixed pattern of slots;
//! the seed picks the parameters inside each slot. The endpoint mix and the
//! cost classes are therefore the same for every seed, which keeps the
//! measured figures steady while the inputs change.

use runtime::{derive_seed, Json, Rng, SplitMix64};

/// One of the benchmark's traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Cheap sweep / small Monte Carlo / short patient-day requests from
    /// two connections: the serving layers carry the time.
    Interactive,
    /// Monolithic analog transients (`fig11`, `fullchain`, `cosim:false`)
    /// from one connection: the compiled engine carries the time.
    Transient,
    /// Co-simulated `fig11` and `fullchain` from one connection: the
    /// calibration probes and waveform relaxation carry the time.
    Cosim,
}

/// What kind of traffic a request is, for the run's traffic record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// A sweep point from a small identity grid (hit after its first use).
    Sweep,
    /// A Monte Carlo point of the hot set, warmed during set-up.
    Hot,
    /// A fresh Monte Carlo point; sent twice back to back, so the second
    /// copy collapses onto the first or hits the cache.
    FreshPair,
    /// A fresh patient day (a miss that writes through to the store).
    Day,
    /// A request at a point the repository's goldens pin.
    Golden,
    /// A transient request with parameters no other request shares.
    Unique,
    /// A cosim request reusing one of a few calibration identities.
    RepeatIdentity,
    /// A cosim request bringing a calibration identity of its own.
    FreshIdentity,
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// Endpoint name.
    pub endpoint: &'static str,
    /// The `params` object sent on the wire.
    pub params: Json,
    /// Traffic class.
    pub class: Class,
}

impl Req {
    fn new(endpoint: &'static str, class: Class, params: Vec<(&str, Json)>) -> Req {
        Req {
            endpoint,
            params: Json::obj(params),
            class,
        }
    }
}

/// Interactive slot pattern (16 requests per cycle).
const INTERACTIVE_PATTERN: [Class; 16] = [
    Class::Sweep,
    Class::Hot,
    Class::Sweep,
    Class::FreshPair,
    Class::FreshPair,
    Class::Sweep,
    Class::Hot,
    Class::Sweep,
    Class::Day,
    Class::Sweep,
    Class::Hot,
    Class::Sweep,
    Class::Hot,
    Class::Sweep,
    Class::Sweep,
    Class::Hot,
];

/// Monte Carlo hot set: (scale, seed), all at [`HOT_TRIALS`].
const HOT_SET: [(f64, u64); 8] = [
    (0.5, 11),
    (1.0, 11),
    (1.5, 11),
    (2.0, 11),
    (0.5, 12),
    (1.0, 12),
    (1.5, 12),
    (2.0, 12),
];
const HOT_TRIALS: u64 = 40;
const FRESH_TRIALS: u64 = 10;

/// Full-chain cycle counts, visited in a seeded rotation. An odd count
/// puts the median inside the middle group, not on a step between two.
const TRANSIENT_CYCLES: [u64; 5] = [60, 80, 100, 120, 140];

/// Cosim slot pattern (8 requests per cycle): 0–3 fig11 on a repeated
/// identity, 4–6 fullchain on a repeated identity, 7 a fresh identity.
const COSIM_CYCLE: u64 = 8;
/// Repeated Fig. 11 calibration identities: (idle_amplitude, r_source).
const COSIM_FIG11_IDENTITIES: [(f64, f64); 2] = [(3.9, 40.0), (4.1, 35.0)];
/// Repeated full-chain calibration identities: distance_mm.
const COSIM_FULLCHAIN_IDENTITIES: [f64; 2] = [10.0, 11.0];

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "interactive" => Some(Workload::Interactive),
            "transient" => Some(Workload::Transient),
            "cosim" => Some(Workload::Cosim),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Interactive => "interactive",
            Workload::Transient => "transient",
            Workload::Cosim => "cosim",
        }
    }

    /// Closed-loop client connections (never more than the host's 2 cores).
    pub fn connections(self) -> usize {
        match self {
            Workload::Interactive => 2,
            Workload::Transient | Workload::Cosim => 1,
        }
    }

    /// Request records each client allocates before the window: more
    /// than the host answers in a 60 s window.
    pub fn record_capacity(self) -> usize {
        match self {
            Workload::Interactive => 60_000,
            Workload::Transient | Workload::Cosim => 4_000,
        }
    }

    /// Whether the server gets a store directory for write-through.
    pub fn uses_store(self) -> bool {
        self == Workload::Interactive
    }

    /// The `index`-th request of the sequence for `seed`.
    pub fn request(self, seed: u64, index: u64) -> Req {
        let mut rng = SplitMix64::new(derive_seed(seed, index));
        match self {
            Workload::Interactive => interactive(seed, index, &mut rng),
            Workload::Transient => transient(seed, index, &mut rng),
            Workload::Cosim => cosim(index, &mut rng),
        }
    }

    /// Requests sent once during set-up, after `health`: the interactive
    /// hot set (so it is warm, as in a long-running service) and requests
    /// on points the measured sequence never uses, so lazy initialisation
    /// is paid before the window opens.
    pub fn warmup(self) -> Vec<Req> {
        match self {
            Workload::Interactive => {
                let mut reqs: Vec<Req> = HOT_SET.iter().map(|&(s, seed)| hot(s, seed)).collect();
                reqs.push(Req::new(
                    "sweep",
                    Class::Sweep,
                    vec![("steps", Json::Num(5.0)), ("d_min_mm", Json::Num(3.0))],
                ));
                reqs.push(Req::new(
                    "patientday",
                    Class::Day,
                    vec![("seed", Json::Num(1.0)), ("hours", Json::Num(0.5))],
                ));
                reqs
            }
            // No Fig. 11 here: its run time differs by up to 1.8x from one
            // process to the next, which would swamp the set-up time.
            Workload::Transient => vec![Req::new(
                "fullchain",
                Class::Unique,
                vec![("distance_mm", Json::Num(9.0)), ("cycles", Json::Num(60.0))],
            )],
            Workload::Cosim => vec![
                Req::new(
                    "fig11",
                    Class::FreshIdentity,
                    vec![
                        ("cosim", Json::Bool(true)),
                        ("idle_amplitude", Json::Num(3.7)),
                        ("r_source", Json::Num(45.0)),
                    ],
                ),
                Req::new(
                    "fullchain",
                    Class::FreshIdentity,
                    vec![
                        ("cosim", Json::Bool(true)),
                        ("distance_mm", Json::Num(9.0)),
                        ("cycles", Json::Num(60.0)),
                    ],
                ),
            ],
        }
    }
}

/// Rounds to a grid of `step` so the wire text stays short and exact.
fn quantize(v: f64, step: f64) -> f64 {
    (v / step).round() * step
}

fn hot(scale: f64, seed: u64) -> Req {
    Req::new(
        "montecarlo",
        Class::Hot,
        vec![
            ("scale", Json::Num(scale)),
            ("trials", Json::Num(HOT_TRIALS as f64)),
            ("seed", Json::Num(seed as f64)),
        ],
    )
}

/// Seeds below 2^53 survive the wire's f64 numbers exactly.
fn wire_seed(raw: u64) -> f64 {
    (raw >> 11) as f64
}

fn interactive(seed: u64, index: u64, rng: &mut SplitMix64) -> Req {
    let cycle = index / INTERACTIVE_PATTERN.len() as u64;
    match INTERACTIVE_PATTERN[(index % INTERACTIVE_PATTERN.len() as u64) as usize] {
        Class::Hot => {
            let (scale, s) = HOT_SET[rng.index(HOT_SET.len())];
            hot(scale, s)
        }
        Class::FreshPair => {
            // Both slots of the pair derive from the cycle, not the index,
            // so the two copies are identical.
            let mut pair = SplitMix64::new(derive_seed(seed ^ 0xF2E5_4A11, cycle));
            let scale = [0.5, 1.0, 1.5, 2.0][pair.index(4)];
            Req::new(
                "montecarlo",
                Class::FreshPair,
                vec![
                    ("scale", Json::Num(scale)),
                    ("trials", Json::Num(FRESH_TRIALS as f64)),
                    ("seed", Json::Num(wire_seed(pair.next_u64()))),
                ],
            )
        }
        Class::Day => {
            // One sensing day in eight; the rest are cheap routine and
            // idle days. Stratified by cycle so every seed has the same mix.
            let profile = match cycle % 8 {
                0 => "sensing",
                1 | 3 | 5 => "idle",
                _ => "routine",
            };
            let tissue = ["air", "sirloin", "subcutaneous"][rng.index(3)];
            Req::new(
                "patientday",
                Class::Day,
                vec![
                    ("seed", Json::Num(wire_seed(rng.next_u64()))),
                    (
                        "hours",
                        Json::Num(if cycle.is_multiple_of(2) { 0.5 } else { 1.0 }),
                    ),
                    ("profile", Json::Str(profile.to_string())),
                    ("tissue", Json::Str(tissue.to_string())),
                    (
                        "depth_mm",
                        Json::Num(quantize(rng.range_f64(4.0, 8.0), 0.25)),
                    ),
                ],
            )
        }
        _ => {
            let medium = ["air", "sirloin"][rng.index(2)];
            let steps = [8.0, 16.0, 32.0][rng.index(3)];
            let d_min = [1.0, 2.0, 4.0][rng.index(3)];
            let d_max = [20.0, 30.0, 40.0][rng.index(3)];
            Req::new(
                "sweep",
                Class::Sweep,
                vec![
                    ("medium", Json::Str(medium.to_string())),
                    ("steps", Json::Num(steps)),
                    ("d_min_mm", Json::Num(d_min)),
                    ("d_max_mm", Json::Num(d_max)),
                ],
            )
        }
    }
}

/// The golden points first — the default shortened Fig. 11 and the full
/// chain at 10 mm and 60 cycles — then unique full-chain runs. A Fig. 11
/// answer takes 1–2 s, and how long varies by up to 1.8x between
/// processes; more of them would swing throughput by that much and, at
/// eleven or more per window, move the tail onto them. So Fig. 11 runs
/// once per window, and the median and the tail are full-chain latencies.
fn transient(seed: u64, index: u64, rng: &mut SplitMix64) -> Req {
    match index {
        0 => return Req::new("fig11", Class::Golden, vec![]),
        1 => {
            return Req::new(
                "fullchain",
                Class::Golden,
                vec![
                    ("distance_mm", Json::Num(10.0)),
                    ("cycles", Json::Num(60.0)),
                ],
            )
        }
        _ => {}
    }
    // Cycle counts walk a seeded rotation of a fixed grid, so every five
    // consecutive full-chain runs cost the same.
    let ordinal = index - 2;
    let n = TRANSIENT_CYCLES.len() as u64;
    let mut group = SplitMix64::new(derive_seed(seed ^ 0x00C1_C1E5, ordinal / n));
    let cycles = TRANSIENT_CYCLES[((ordinal + group.index(n as usize) as u64) % n) as usize];
    Req::new(
        "fullchain",
        Class::Unique,
        vec![
            (
                "distance_mm",
                Json::Num(quantize(rng.range_f64(8.0, 12.0), 0.001)),
            ),
            (
                "r_load",
                Json::Num(quantize(rng.range_f64(1.2e3, 1.8e3), 0.01)),
            ),
            ("cycles", Json::Num(cycles as f64)),
        ],
    )
}

fn cosim(index: u64, rng: &mut SplitMix64) -> Req {
    let cosim = ("cosim", Json::Bool(true));
    match index {
        0 => return Req::new("fig11", Class::Golden, vec![cosim]),
        1 => {
            return Req::new(
                "fullchain",
                Class::Golden,
                vec![
                    cosim,
                    ("distance_mm", Json::Num(10.0)),
                    ("cycles", Json::Num(60.0)),
                ],
            )
        }
        _ => {}
    }
    let slot = index % COSIM_CYCLE;
    let cycle = index / COSIM_CYCLE;
    match slot {
        0..=3 => {
            // Only inputs the calibration never reads vary.
            let (amp, r_source) = COSIM_FIG11_IDENTITIES[rng.index(COSIM_FIG11_IDENTITIES.len())];
            Req::new(
                "fig11",
                Class::RepeatIdentity,
                vec![
                    cosim,
                    ("idle_amplitude", Json::Num(amp)),
                    ("r_source", Json::Num(r_source)),
                    (
                        "r_load",
                        Json::Num(quantize(rng.range_f64(6.5e3, 9.5e3), 1.0)),
                    ),
                    (
                        "t_stop_us",
                        Json::Num(quantize(rng.range_f64(155.0, 175.0), 0.5)),
                    ),
                ],
            )
        }
        4..=6 => {
            let distance = COSIM_FULLCHAIN_IDENTITIES[rng.index(COSIM_FULLCHAIN_IDENTITIES.len())];
            Req::new(
                "fullchain",
                Class::RepeatIdentity,
                vec![
                    cosim,
                    ("distance_mm", Json::Num(distance)),
                    ("cycles", Json::Num((60 + rng.index(100)) as f64)),
                ],
            )
        }
        _ if cycle.is_multiple_of(2) => Req::new(
            "fig11",
            Class::FreshIdentity,
            vec![
                cosim,
                (
                    "idle_amplitude",
                    Json::Num(quantize(rng.range_f64(3.6, 4.3), 0.0001)),
                ),
                (
                    "r_source",
                    Json::Num(quantize(rng.range_f64(30.0, 50.0), 0.001)),
                ),
            ],
        ),
        _ => Req::new(
            "fullchain",
            Class::FreshIdentity,
            vec![
                cosim,
                (
                    "distance_mm",
                    Json::Num(quantize(rng.range_f64(8.0, 12.0), 0.0001)),
                ),
                ("cycles", Json::Num((60 + rng.index(100)) as f64)),
            ],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_sequence_and_other_seeds_differ() {
        for w in [Workload::Interactive, Workload::Transient, Workload::Cosim] {
            let a: Vec<Req> = (0..200).map(|i| w.request(7, i)).collect();
            let b: Vec<Req> = (0..200).map(|i| w.request(7, i)).collect();
            let c: Vec<Req> = (0..200).map(|i| w.request(8, i)).collect();
            assert_eq!(a, b, "{} is not a pure function of the seed", w.name());
            assert_ne!(a, c, "{} ignores the seed", w.name());
            // The endpoint mix is fixed by the slot pattern, not the seed.
            let mix = |v: &[Req]| v.iter().map(|r| r.endpoint).collect::<Vec<_>>();
            assert_eq!(mix(&a), mix(&c), "{} mix depends on the seed", w.name());
        }
    }

    #[test]
    fn every_generated_request_decodes() {
        let limits = server::proto::DecodeLimits::default();
        for w in [Workload::Interactive, Workload::Transient, Workload::Cosim] {
            for req in (0..400).map(|i| w.request(3, i)).chain(w.warmup()) {
                server::proto::RequestBody::decode(req.endpoint, &req.params, &limits)
                    .unwrap_or_else(|e| panic!("{}: {req:?}: {}", w.name(), e.message));
            }
        }
    }

    #[test]
    fn fresh_pairs_repeat_and_transient_requests_do_not() {
        let w = Workload::Interactive;
        assert_eq!(w.request(5, 3), w.request(5, 4));
        assert_ne!(w.request(5, 3), w.request(5, 19));
        let t: Vec<Req> = (0..400)
            .map(|i| Workload::Transient.request(5, i))
            .collect();
        for (i, a) in t.iter().enumerate() {
            for b in &t[i + 1..] {
                assert_ne!(a, b, "transient requests repeat");
            }
        }
    }
}
