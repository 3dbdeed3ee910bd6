//! Multi-rate co-simulation front-ends for the core scenarios.
//!
//! [`Fig11Scenario::run_cosim`] produces the same [`Fig11Outcome`] as
//! the monolithic [`Fig11Scenario::run`], but through the partitioned
//! engine in [`cosim`]: short carrier-rate probes calibrate an
//! envelope-rate link surrogate, and the storage/load dynamics and
//! comms decisions then integrate at envelope and bit rate under
//! waveform relaxation. The outcome is bit-identical at any worker
//! count and typically several times faster than the monolithic
//! transient, at envelope-model accuracy (see `DESIGN.md` §16).
//!
//! [`FullChainScenario::run_cosim`] applies the same split to the
//! complete patch-to-implant chain. Because the class-E stage needs
//! tens of carrier cycles to ring up, per-point probes would dominate;
//! instead one *staircase* probe per gate state rings the chain up once
//! and then walks the pinned storage voltage through the calibration
//! grid, measuring charging current, input amplitude and supply power
//! per plateau.
//!
//! Both calibrations depend only on the link front-end, not on the
//! load, bit patterns or run length, so the `run_cosim_with` variants
//! take a [`CalibrationCache`] and reuse a table across requests that
//! share its identity; `run_cosim` is the same path with a fresh cache.

use crate::fullchain::{ChainFrontEnd, FullChainScenario};
use crate::scenario::{Fig11Outcome, Fig11Scenario};
use analog::source::Pwl;
use analog::{Circuit, SimError, SourceFn, TranConfig, Waveform};
use comms::bits::BitStream;
use comms::lsk::LskDetector;
use cosim::calibration::{calibrate_cached, debug_key, TABLE_CACHE_CAPACITY};
use cosim::fig11::{
    Fig11CosimSpec, PmuDomain, RectifierTable, PORT_I_CHG, PORT_LSK, PORT_VI_ENV, PORT_VO,
};
use cosim::{Cosim, Domain, Exchange, Port, SchedulePort};
pub use cosim::{CosimError, CosimStats, RatePlan};
use pmu::demodulator::ClockedDemodulator;
use pmu::V_O_MIN;
use runtime::{Artifact, Batch, Json, ParamPoint, Pool, ResultCache};

/// Calibration tables reused across co-simulated runs, keyed by the
/// inputs their probes read. Bounded at [`TABLE_CACHE_CAPACITY`] tables
/// of each kind, oldest evicted first.
pub struct CalibrationCache {
    rectifier: ResultCache<RectifierTable>,
    chain: ResultCache<ChainTable>,
}

impl CalibrationCache {
    /// An empty cache.
    pub fn new() -> Self {
        CalibrationCache {
            rectifier: ResultCache::bounded(TABLE_CACHE_CAPACITY),
            chain: ResultCache::bounded(TABLE_CACHE_CAPACITY),
        }
    }

    /// Tables currently held, both kinds together.
    pub fn len(&self) -> usize {
        self.rectifier.len() + self.chain.len()
    }

    /// True when no table is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for CalibrationCache {
    fn default() -> Self {
        CalibrationCache::new()
    }
}

/// What a co-simulated run cost, alongside its outcome.
#[derive(Debug, Clone, Copy)]
pub struct CosimReport {
    /// Scheduler counters: macro-steps, relaxation iterations, worst
    /// residual.
    pub stats: CosimStats,
    /// Carrier-rate calibration probes spent (0 when the table was
    /// reused).
    pub probes: u64,
}

impl Fig11Scenario {
    /// The co-simulation spec equivalent to this scenario.
    fn cosim_spec(&self) -> Fig11CosimSpec {
        Fig11CosimSpec {
            rectifier: self.rectifier.clone(),
            demodulator: ClockedDemodulator::ironic(),
            idle_amplitude: self.idle_amplitude,
            r_source: self.r_source,
            r_load: self.r_load,
            downlink_bits: self.downlink_bits.clone(),
            downlink_start: self.downlink_start,
            uplink_bits: self.uplink_bits.clone(),
            uplink_start: self.uplink_start,
            uplink_rate: self.uplink_rate,
            t_stop: self.t_stop,
            max_step: self.max_step,
        }
    }

    /// Runs the scenario through the partitioned multi-rate engine.
    ///
    /// # Errors
    ///
    /// As [`run_cosim_with`](Fig11Scenario::run_cosim_with).
    pub fn run_cosim(&self, pool: &Pool) -> Result<Fig11Outcome, CosimError> {
        self.run_cosim_with(pool, &CalibrationCache::new())
            .map(|(outcome, _)| outcome)
    }

    /// Like [`run_cosim`](Fig11Scenario::run_cosim), reusing the link
    /// table from `tables` when it holds one for this scenario's
    /// front-end, and also returning the cost counters.
    ///
    /// # Errors
    ///
    /// [`CosimError::InvalidPlan`] when `t_stop` cuts the timeline (see
    /// [`Fig11Scenario::check_timeline`]), calibration failures and
    /// relaxation divergence, all as [`CosimError`].
    pub fn run_cosim_with(
        &self,
        pool: &Pool,
        tables: &CalibrationCache,
    ) -> Result<(Fig11Outcome, CosimReport), CosimError> {
        let _span = obs::span!("fig11.cosim");
        self.check_timeline()
            .map_err(|cut| CosimError::InvalidPlan(cut.to_string()))?;
        let spec = self.cosim_spec();
        let run = cosim::run_fig11_cached(&spec, &RatePlan::fig11(), pool, &tables.rectifier)?;
        let outcome = self.evaluate_traces(run.vo, run.vi_env, run.vdem);
        Ok((outcome, CosimReport { stats: run.stats, probes: run.probes }))
    }
}

// ------------------------------------------------------------ full chain

/// Carrier cycles the staircase probe spends ringing the class-E chain
/// up before the first plateau is trusted.
const RING_CYCLES: f64 = 50.0;
/// Carrier cycles ramping the pinned storage voltage between plateaus.
const RAMP_CYCLES: f64 = 1.0;
/// Carrier cycles holding each plateau after the ramp.
const HOLD_CYCLES: f64 = 8.0;
/// Trailing carrier cycles of each plateau that are averaged.
const MEASURE_CYCLES: f64 = 4.0;
/// The rectifier-input resistance the CA/CB match is designed against;
/// scales current residuals to volt-equivalents.
const MATCH_R_OHMS: f64 = 150.0;
/// Gate-drive edge time of the LSK load modulator, seconds.
const LSK_EDGE: f64 = 50.0e-9;
/// Capacitance the shorted staircase probe adds from `vrect` to ground,
/// farads. With M1 on and M2 open, `vrect` otherwise touches only the
/// reverse-biased rectifying diode, the sub-threshold clamp stack and
/// M2's 500 MΩ off-resistance — no capacitor — and Newton stalls there
/// at some distances until the step underflows (7.4–8.4 mm). 0.1 pF
/// (318 kΩ at 5 MHz) gives the node a state. It is a fixture of the
/// probe, not of the rectifier, so the monolithic netlist keeps none;
/// the connected probe ties `vrect` to the pinned storage node through
/// M2's 5 Ω and needs none (there it would only cost steps).
const PROBE_VRECT_CAP: f64 = 0.1e-12;

/// Per-plateau measurements of one gate state of the chain: charging
/// current into the pinned storage node, peak rectifier-input voltage
/// and PA supply power, each as a function of the storage voltage.
#[derive(Debug, Clone)]
struct ChainRow {
    vo: Vec<f64>,
    i: Vec<f64>,
    vi: Vec<f64>,
    p: Vec<f64>,
}

impl ChainRow {
    fn at(&self, vo: f64) -> (f64, f64, f64) {
        (
            interp1(&self.vo, &self.i, vo),
            interp1(&self.vo, &self.vi, vo),
            interp1(&self.vo, &self.p, vo),
        )
    }
}

impl Artifact for ChainRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("vo", self.vo.to_json()),
            ("i", self.i.to_json()),
            ("vi", self.vi.to_json()),
            ("p", self.p.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(ChainRow {
            vo: Artifact::from_json(json.get("vo")?)?,
            i: Artifact::from_json(json.get("i")?)?,
            vi: Artifact::from_json(json.get("vi")?)?,
            p: Artifact::from_json(json.get("p")?)?,
        })
    }
}

/// The full chain reduced to two [`ChainRow`]s — rectifier connected
/// and LSK-shorted — calibrated by one staircase probe each.
#[derive(Debug, Clone)]
struct ChainTable {
    connected: ChainRow,
    shorted: ChainRow,
    probes: u64,
}

impl Artifact for ChainTable {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("connected", self.connected.to_json()),
            ("shorted", self.shorted.to_json()),
            ("probes", self.probes.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(ChainTable {
            connected: Artifact::from_json(json.get("connected")?)?,
            shorted: Artifact::from_json(json.get("shorted")?)?,
            probes: json.get("probes")?.as_u64()?,
        })
    }
}

/// Cache namespace of full-chain tables.
const CHAIN_TABLE_NAMESPACE: &str = "cosim-chain-table";

/// The cache identity of a chain table: every field of the front-end
/// its probes build, at full precision.
fn chain_cache_point(front_end: &ChainFrontEnd) -> ParamPoint {
    let ChainFrontEnd {
        design,
        pair,
        distance,
        rectifier,
    } = front_end;
    ParamPoint::new()
        .with("design", debug_key(design))
        .with("pair", debug_key(pair))
        .with("distance", *distance)
        .with("rectifier", debug_key(rectifier))
}

impl ChainTable {
    /// Runs the two staircase probes (concurrently when the pool has
    /// workers to spare) and assembles the table.
    fn calibrate(front_end: &ChainFrontEnd, pool: &Pool) -> Result<Self, CosimError> {
        let _span = obs::span!("cosim.chain_calibrate");
        // Dense above 2 V for the same reason as the Fig. 11 table: the
        // clamp-stack leakage is exponential there and linear
        // interpolation over a coarse grid would smear it.
        let grid_connected =
            vec![0.0, 0.5, 1.0, 1.5, 2.0, 2.3, 2.5, 2.65, 2.8, 2.9, 3.0];
        let grid_shorted = vec![0.0, 1.5, 3.0];
        let jobs: Vec<(Vec<f64>, bool)> =
            vec![(grid_connected, false), (grid_shorted, true)];
        let batch = Batch::builder("cosim-chain-calibrate").seed(0).trials(jobs.len()).build();
        let run = pool.run(&batch, |ctx| {
            let (grid, shorted) = &jobs[ctx.index];
            chain_probe(front_end, grid, *shorted)
        });
        obs::count!("cosim.calibration.probes", jobs.len() as u64);
        let mut rows: Vec<ChainRow> = Vec::with_capacity(jobs.len());
        for result in run.results {
            match result.outcome {
                runtime::JobOutcome::Ok(Ok(row)) => rows.push(row),
                runtime::JobOutcome::Ok(Err(e)) => {
                    return Err(CosimError::Domain { domain: "link", source: e })
                }
                runtime::JobOutcome::Panicked(message) => {
                    return Err(CosimError::Panicked { domain: "link".to_string(), message })
                }
            }
        }
        let shorted = rows.pop().expect("two probe rows");
        let connected = rows.pop().expect("two probe rows");
        Ok(ChainTable { connected, shorted, probes: jobs.len() as u64 })
    }

    fn at(&self, vo: f64, shorted: bool) -> (f64, f64, f64) {
        if shorted {
            self.shorted.at(vo)
        } else {
            self.connected.at(vo)
        }
    }
}

/// One staircase probe: the full chain with fixed gate drives, the
/// storage node pinned by a PWL staircase, measured over the trailing
/// cycles of each plateau.
fn chain_probe(
    front_end: &ChainFrontEnd,
    grid: &[f64],
    shorted: bool,
) -> Result<ChainRow, SimError> {
    let period = 1.0 / front_end.design.frequency;
    let mut points: Vec<(f64, f64)> = vec![(0.0, grid[0])];
    let mut plateau_ends: Vec<f64> = Vec::with_capacity(grid.len());
    let mut t = RING_CYCLES * period;
    points.push((t, grid[0]));
    plateau_ends.push(t);
    for &v in &grid[1..] {
        let ramped = t + RAMP_CYCLES * period;
        points.push((ramped, v));
        let end = ramped + HOLD_CYCLES * period;
        points.push((end, v));
        plateau_ends.push(end);
        t = end;
    }
    let (m1, m2) = if shorted {
        (SourceFn::dc(1.8), SourceFn::dc(0.0))
    } else {
        (SourceFn::dc(0.0), SourceFn::dc(1.8))
    };
    let (mut ckt, nodes) = front_end.build(m1, m2);
    ckt.voltage_source("Vpin", nodes.vo, Circuit::GND, SourceFn::pwl(points));
    if shorted {
        ckt.capacitor("Cprobe", nodes.vrect, Circuit::GND, PROBE_VRECT_CAP);
    }
    let sim = ckt.compile()?;
    let cfg = TranConfig::builder(t).max_step(period / 40.0).build();
    let res = sim.tran(&cfg)?;
    let i_pin = res.current_trace("Vpin").expect("pin current traced");
    let i_vdd = res.current_trace("VDD").expect("supply current traced");
    let v_in = res.trace("vi").expect("vi traced");
    let mut row = ChainRow {
        vo: grid.to_vec(),
        i: Vec::with_capacity(grid.len()),
        vi: Vec::with_capacity(grid.len()),
        p: Vec::with_capacity(grid.len()),
    };
    for &end in &plateau_ends {
        let w0 = end - MEASURE_CYCLES * period;
        // Same convention as the Fig. 11 probes: a source absorbing
        // power records positive current, so charging reads positive.
        row.i.push(i_pin.average_in(w0, end));
        row.vi.push(v_in.max_in(w0, end));
        row.p
            .push(front_end.design.vdd * i_vdd.map(|i| -i).average_in(w0, end));
    }
    Ok(row)
}

fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    if x <= xs[0] {
        return ys[0];
    }
    if let Some(&last) = xs.last() {
        if x >= last {
            return ys[ys.len() - 1];
        }
    }
    let j = xs.partition_point(|&v| v < x).clamp(1, xs.len() - 1);
    let w = (x - xs[j - 1]) / (xs[j] - xs[j - 1]);
    ys[j - 1] + w * (ys[j] - ys[j - 1])
}

/// The patch + link + rectifier front-end of the full chain as an
/// envelope-rate table domain: reads the storage voltage and the LSK
/// state, emits charging current and input envelope.
struct ChainLinkDomain {
    table: ChainTable,
    dt: f64,
}

impl Domain for ChainLinkDomain {
    fn name(&self) -> &'static str {
        "link"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let vo_buf = bus.reader(PORT_VO)?;
        let lsk_buf = bus.reader(PORT_LSK)?;
        let n = (((t1 - t0) / self.dt) - 1.0e-9).ceil().max(1.0) as usize;
        let h = (t1 - t0) / n as f64;
        let mut p_vi = Port::new(PORT_VI_ENV);
        let mut p_i = Port::new(PORT_I_CHG);
        for k in 1..=n {
            let t = if k == n { t1 } else { t0 + k as f64 * h };
            let vo = vo_buf.sample(t);
            let (i, vi, _) = self.table.at(vo, lsk_buf.sample(t) >= 0.5);
            p_i.push(t, i);
            p_vi.push(t, vi);
        }
        Ok(vec![p_vi, p_i])
    }

    fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
        Ok(())
    }
}

/// The LSK shorting schedule as a PWL waveform: the implant shorts its
/// rectifier input for every 0 uplink bit, with the load modulator's
/// edge time.
fn lsk_schedule(bits: &BitStream, start: f64, rate: f64) -> Pwl {
    let tb = 1.0 / rate;
    let mut points: Vec<(f64, f64)> = vec![(0.0, 0.0)];
    let mut level = 0.0;
    for (k, bit) in bits.iter().enumerate() {
        let want = if bit { 0.0 } else { 1.0 };
        if want != level {
            let t = start + k as f64 * tb;
            points.push((t, level));
            points.push((t + LSK_EDGE, want));
            level = want;
        }
    }
    if level != 0.0 {
        let t = start + bits.len() as f64 * tb;
        points.push((t, level));
        points.push((t + LSK_EDGE, 0.0));
    }
    Pwl::new(points)
}

/// Measurements from a co-simulated full-chain run. Mirrors
/// [`crate::fullchain::FullChainOutcome`] at envelope rate, plus the
/// scheduler cost counters.
#[derive(Debug, Clone)]
pub struct FullChainCosimOutcome {
    /// Rectifier output voltage (envelope rate).
    pub vo: Waveform,
    /// Carrier-envelope peak at the rectifier input.
    pub vi_env: Waveform,
    /// Average power delivered to the DC load, watts.
    pub p_load: f64,
    /// Average power drawn from the PA supply, watts.
    pub p_supply: f64,
    /// Bits the patch recovered from its supply-current sense, when an
    /// uplink burst was configured.
    pub uplink_detected: Option<BitStream>,
    /// Steady-state measurement window.
    pub t_window: (f64, f64),
    /// Scheduler counters.
    pub stats: CosimStats,
    /// Carrier-rate staircase probes spent (one per gate state; 0 when
    /// the table was reused).
    pub probes: u64,
}

impl FullChainCosimOutcome {
    /// Steady-state rectifier output (average over the window).
    pub fn vo_steady(&self) -> f64 {
        self.vo.average_in(self.t_window.0, self.t_window.1)
    }

    /// End-to-end efficiency, battery to implant DC rail.
    pub fn efficiency(&self) -> f64 {
        self.p_load / self.p_supply
    }

    /// The LDO-compliance check on the steady output.
    pub fn supply_compliant(&self) -> bool {
        self.vo.min_in(self.t_window.0, self.t_window.1) >= V_O_MIN
    }

    /// Peak carrier amplitude at the rectifier input in the window.
    pub fn vi_amplitude(&self) -> f64 {
        self.vi_env.max_in(self.t_window.0, self.t_window.1)
    }
}

impl FullChainScenario {
    /// Runs the chain through the partitioned multi-rate engine.
    ///
    /// Two staircase probes calibrate the front-end (connected and
    /// LSK-shorted), then the storage dynamics integrate at envelope
    /// rate under waveform relaxation. Supply power is reconstructed
    /// from the committed storage/LSK waveforms through the same table,
    /// and patch-side uplink detection runs on that reconstruction just
    /// as the monolithic run slices its supply-current sense.
    ///
    /// # Errors
    ///
    /// Calibration failures and relaxation divergence as
    /// [`CosimError`].
    pub fn run_cosim(&self, pool: &Pool) -> Result<FullChainCosimOutcome, CosimError> {
        self.run_cosim_with(pool, &CalibrationCache::new())
    }

    /// Like [`run_cosim`](FullChainScenario::run_cosim), reusing the
    /// staircase table from `tables` when it holds one for this chain's
    /// front-end (design, coils, distance, rectifier). The outcome is
    /// bit-identical either way.
    ///
    /// # Errors
    ///
    /// Calibration failures and relaxation divergence as
    /// [`CosimError`].
    pub fn run_cosim_with(
        &self,
        pool: &Pool,
        tables: &CalibrationCache,
    ) -> Result<FullChainCosimOutcome, CosimError> {
        let _span = obs::span!("fullchain.cosim");
        // The chain charges hardest in the very first windows (vo ≈ 0,
        // small effective source resistance), where relaxation contracts
        // slowest — give it more headroom than the Fig. 11 default.
        let mut plan = RatePlan::fig11();
        plan.max_iterations = 32;
        let period = 1.0 / self.design.frequency;
        let t_stop = self.cycles as f64 * period;
        let front_end = self.front_end();
        let (table, hit) = calibrate_cached(
            &tables.chain,
            CHAIN_TABLE_NAMESPACE,
            &chain_cache_point(&front_end),
            || ChainTable::calibrate(&front_end, pool),
        )?;
        let probes = if hit { 0 } else { table.probes };
        let schedule = self.uplink.as_ref().map(|(bits, start, rate)| {
            lsk_schedule(bits, *start, *rate)
        });

        let mut sim = Cosim::new(plan);
        sim.seed_port(PORT_VI_ENV, 0.0, 0.0, 1.0);
        sim.seed_port(PORT_I_CHG, 0.0, 0.0, 1.0 / MATCH_R_OHMS);
        sim.seed_port(PORT_VO, 0.0, 0.0, 1.0);
        sim.seed_port(PORT_LSK, 0.0, 0.0, 1.0);
        sim.add_domain(Box::new(ChainLinkDomain {
            table: table.clone(),
            dt: plan.envelope_dt,
        }));
        sim.add_domain(Box::new(PmuDomain::new(
            self.rectifier.c_out,
            self.r_load,
            0.0,
            &plan,
        )));
        if let Some(wave) = schedule.clone() {
            sim.add_domain(Box::new(SchedulePort::new(PORT_LSK, wave, plan.envelope_dt)));
        }
        let stats = sim.run(0.0, t_stop)?;

        let vo = sim.bus().waveform(PORT_VO).expect("vo committed");
        let vi_env = sim.bus().waveform(PORT_VI_ENV).expect("vi committed");
        // Supply power is a pure function of the converged boundary
        // waveforms; reconstruct it on the storage grid.
        let lsk_at = |t: f64| schedule.as_ref().map_or(0.0, |s| s.eval(t));
        let p_values: Vec<f64> = vo
            .time()
            .iter()
            .zip(vo.values())
            .map(|(&t, &v)| table.at(v, lsk_at(t) >= 0.5).2)
            .collect();
        let p_wave = Waveform::new(vo.time().to_vec(), p_values);
        let (t0, t1) = (0.8 * t_stop, t_stop);
        let p_load = vo.map(|v| v * v / self.r_load).average_in(t0, t1);
        let p_supply = p_wave.average_in(t0, t1);
        let uplink_detected = self.uplink.as_ref().map(|(bits, start, rate)| {
            let sense = p_wave.map(|p| p / self.design.vdd);
            let det = LskDetector {
                bit_rate: *rate,
                processing_time: 1e-9,
                sample_phase: 0.6,
                invert: true,
            };
            det.detect_averaging(&sense, *start, bits.len())
        });
        Ok(FullChainCosimOutcome {
            vo,
            vi_env,
            p_load,
            p_supply,
            uplink_detected,
            t_window: (t0, t1),
            stats,
            probes,
        })
    }
}
