//! The Fig. 11 power chain as co-simulated domains: calibrated link
//! surrogate, envelope-rate PMU ODE and bit-rate comms.
//!
//! # Link calibration
//!
//! The envelope-rate surrogate of the rectifier front-end is a pair of
//! maps `(A, Vo) → (i_chg, v̂i)` — average charging current delivered
//! into the storage node and the resulting input-carrier peak — built by
//! probing the *real* transistor netlist: for each grid point the
//! rectifier is rebuilt with Vo pinned by a voltage source, driven by a
//! plain sine of amplitude `A` through the matched source resistance,
//! and run for a handful of carrier periods; the trailing periods give
//! the cycle-averaged pin current and input peak. A second, smaller
//! family of probes characterises the LSK-shorted state (M1 on, M2
//! off). The probes run concurrently on the pool and are the only
//! carrier-rate work in a co-simulation — everything after is
//! envelope-rate, which is where the speedup comes from.
//!
//! The table depends only on the rectifier, idle amplitude, source
//! resistance and probe step (`RectifierProbeSpec`), so
//! [`run_fig11_cached`] reuses it across requests that differ only in
//! load, bit patterns or duration (see [`crate::calibration`]).

use crate::calibration::{calibrate_cached, debug_key};
use crate::domain::Domain;
use crate::error::CosimError;
use crate::exchange::{Exchange, Port};
use crate::scheduler::{Cosim, CosimStats, RatePlan};
use analog::source::Pwl;
use analog::{Circuit, SourceFn, TranConfig, Waveform};
use comms::ask::AskModulator;
use comms::bits::BitStream;
use pmu::demodulator::{ClockedDemodulator, TwoPhaseClock};
use pmu::rectifier::RectifierCircuit;
use pmu::V_CLAMP;
use runtime::{Artifact, Batch, Json, ParamPoint, Pool, ResultCache};

/// Bus port: carrier-envelope peak at the rectifier input, volts.
pub const PORT_VI_ENV: &str = "vi_env";
/// Bus port: average charging current into the storage node, amperes.
pub const PORT_I_CHG: &str = "i_chg";
/// Bus port: storage-capacitor voltage, volts.
pub const PORT_VO: &str = "vo";
/// Bus port: LSK shorting state (1 while M1 shorts the input).
pub const PORT_LSK: &str = "lsk";
/// Bus port: demodulator output, volts.
pub const PORT_VDEM: &str = "vdem";

/// Carrier periods each calibration probe simulates.
const PROBE_PERIODS: f64 = 5.0;
/// Trailing periods averaged for the measurement (the rest settle).
const PROBE_MEASURE_PERIODS: f64 = 2.0;
/// Half-width of the instantaneous edges step-like ports emit, seconds.
const STEP_EPS: f64 = 1.0e-9;
/// Demodulator clock alignment after the burst start (mirrors the
/// monolithic scenario), seconds.
const CLOCK_ALIGN: f64 = 4.0e-6;

/// What the Fig. 11 co-simulation needs to know — the same knobs as the
/// monolithic scenario, minus the circuit-level demodulator (the comms
/// domain uses the behavioural [`ClockedDemodulator`]).
#[derive(Debug, Clone)]
pub struct Fig11CosimSpec {
    /// Rectifier/storage configuration.
    pub rectifier: RectifierCircuit,
    /// Behavioural demodulator thresholds (its clock is re-aligned to
    /// the downlink burst internally).
    pub demodulator: ClockedDemodulator,
    /// Idle carrier amplitude at the rectifier input, volts.
    pub idle_amplitude: f64,
    /// Effective source resistance of the matched link, ohms.
    pub r_source: f64,
    /// Equivalent sensor load on Vo, ohms.
    pub r_load: f64,
    /// Downlink bits.
    pub downlink_bits: BitStream,
    /// Downlink burst start, seconds.
    pub downlink_start: f64,
    /// Uplink bits.
    pub uplink_bits: BitStream,
    /// Uplink burst start, seconds.
    pub uplink_start: f64,
    /// Uplink bit rate, bits per second.
    pub uplink_rate: f64,
    /// Simulation end, seconds.
    pub t_stop: f64,
    /// Carrier-probe transient step ceiling, seconds.
    pub max_step: f64,
}

impl Fig11CosimSpec {
    /// The ASK modulator implied by the idle amplitude (same level
    /// structure as the monolithic scenario).
    pub fn ask(&self) -> AskModulator {
        AskModulator::ironic_downlink().scaled(self.idle_amplitude)
    }

    /// The inputs the link calibration reads.
    fn probe_spec(&self) -> RectifierProbeSpec {
        RectifierProbeSpec {
            rectifier: self.rectifier.clone(),
            idle_amplitude: self.idle_amplitude,
            r_source: self.r_source,
            max_step: self.max_step,
        }
    }
}

/// Everything the Fig. 11 calibration probes read, and so the identity a
/// [`RectifierTable`] is cached under.
#[derive(Debug, Clone)]
struct RectifierProbeSpec {
    rectifier: RectifierCircuit,
    idle_amplitude: f64,
    r_source: f64,
    max_step: f64,
}

impl RectifierProbeSpec {
    /// Cache namespace of rectifier tables.
    const NAMESPACE: &'static str = "cosim-rectifier-table";

    /// The ASK levels the probe grid is laid on.
    fn ask(&self) -> AskModulator {
        AskModulator::ironic_downlink().scaled(self.idle_amplitude)
    }

    /// The cache identity: every field, at full precision.
    fn cache_point(&self) -> ParamPoint {
        let RectifierProbeSpec {
            rectifier,
            idle_amplitude,
            r_source,
            max_step,
        } = self;
        ParamPoint::new()
            .with("rectifier", debug_key(rectifier))
            .with("idle_amplitude", *idle_amplitude)
            .with("r_source", *r_source)
            .with("max_step", *max_step)
    }
}

/// One envelope-amplitude row of the calibration table.
#[derive(Debug, Clone)]
struct AmpRow {
    amp: f64,
    vo: Vec<f64>,
    i: Vec<f64>,
    vi: Vec<f64>,
}

/// The calibrated envelope-rate surrogate of the rectifier front-end.
#[derive(Debug, Clone)]
pub struct RectifierTable {
    /// Rows in ascending amplitude order.
    rows: Vec<AmpRow>,
    /// Shorted-state (M1 on) pin-current grid over Vo.
    short_vo: Vec<f64>,
    short_i: Vec<f64>,
    /// Shorted-state input peak per volt of drive amplitude.
    vi_short_ratio: f64,
    /// Carrier-rate probes spent building the table.
    pub probes: u64,
}

/// Clamped linear interpolation on a sorted grid.
fn interp1(xs: &[f64], ys: &[f64], x: f64) -> f64 {
    let n = xs.len();
    if x <= xs[0] {
        return ys[0];
    }
    if x >= xs[n - 1] {
        return ys[n - 1];
    }
    let hi = xs.partition_point(|&g| g <= x);
    let w = (x - xs[hi - 1]) / (xs[hi] - xs[hi - 1]);
    ys[hi - 1] + w * (ys[hi] - ys[hi - 1])
}

impl RectifierTable {
    /// Interpolated `(i_chg, v̂i)` for the connected rectifier at drive
    /// amplitude `amp` and storage voltage `vo`. Clamped to the probed
    /// ranges at the edges.
    pub fn lookup(&self, amp: f64, vo: f64) -> (f64, f64) {
        let rows = &self.rows;
        let n = rows.len();
        let row_eval =
            |r: &AmpRow| (interp1(&r.vo, &r.i, vo), interp1(&r.vo, &r.vi, vo));
        if amp <= rows[0].amp {
            return row_eval(&rows[0]);
        }
        if amp >= rows[n - 1].amp {
            return row_eval(&rows[n - 1]);
        }
        let hi = rows.partition_point(|r| r.amp <= amp);
        let (lo_row, hi_row) = (&rows[hi - 1], &rows[hi]);
        let w = (amp - lo_row.amp) / (hi_row.amp - lo_row.amp);
        let (i0, v0) = row_eval(lo_row);
        let (i1, v1) = row_eval(hi_row);
        (i0 + w * (i1 - i0), v0 + w * (v1 - v0))
    }

    /// Interpolated `(i_chg, v̂i)` for the LSK-shorted rectifier (M1 on,
    /// M2 off): the pin sees only switch leakage and the input collapses
    /// proportionally to the drive.
    pub fn shorted(&self, amp: f64, vo: f64) -> (f64, f64) {
        (interp1(&self.short_vo, &self.short_i, vo), self.vi_short_ratio * amp)
    }

    /// Calibrates the surrogate by probing the transistor netlist on the
    /// pool (see the module docs).
    ///
    /// # Errors
    ///
    /// [`CosimError::Domain`] when a probe transient fails,
    /// [`CosimError::Panicked`] when one panics.
    pub fn calibrate(spec: &Fig11CosimSpec, pool: &Pool) -> Result<Self, CosimError> {
        Self::calibrate_probe(&spec.probe_spec(), pool)
    }

    fn calibrate_probe(spec: &RectifierProbeSpec, pool: &Pool) -> Result<Self, CosimError> {
        let _span = obs::span!("cosim.calibrate");
        let ask = spec.ask();
        // Per-amplitude Vo grids. Every row must resolve 2–3 V finely:
        // the clamp-stack leakage grows exponentially there, and a
        // coarse linear interpolation would smear it over the whole
        // interval and fake a discharge during the decay phases. The
        // idle row additionally resolves the charge path and the clamp
        // knee, where the carrier parks between bursts.
        let grid_idle =
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.3, 2.5, 2.65, 2.75, 2.8, 2.85, 2.9, 2.95, 3.0, 3.05];
        let grid_high = [0.0, 1.0, 1.5, 2.0, 2.3, 2.5, 2.65, 2.8, 2.9, 3.0];
        let grid_low = [0.0, 0.75, 1.5, 2.0, 2.3, 2.5, 2.65, 2.8, 2.9, 3.0];
        let grid_short = [0.0, 1.5, 3.0];
        let mut points: Vec<(f64, f64, bool)> = Vec::new();
        for &vo in &grid_low {
            points.push((ask.amplitude_low, vo, false));
        }
        for &vo in &grid_high {
            points.push((ask.amplitude_high, vo, false));
        }
        for &vo in &grid_idle {
            points.push((ask.amplitude_idle, vo, false));
        }
        for &vo in &grid_short {
            points.push((ask.amplitude_idle, vo, true));
        }
        let batch =
            Batch::builder("cosim-calibrate").seed(0).trials(points.len()).build();
        let run = pool.run(&batch, |ctx| {
            let (amp, vo, short) = points[ctx.index];
            probe(spec, ask.carrier_hz, amp, vo, short)
        });
        obs::count!("cosim.calibration.probes", points.len() as u64);
        let mut measured: Vec<(f64, f64)> = Vec::with_capacity(points.len());
        for result in run.results {
            match result.outcome {
                runtime::JobOutcome::Ok(Ok(m)) => measured.push(m),
                runtime::JobOutcome::Ok(Err(e)) => {
                    return Err(CosimError::Domain { domain: "link", source: e })
                }
                runtime::JobOutcome::Panicked(message) => {
                    return Err(CosimError::Panicked { domain: "link".to_string(), message })
                }
            }
        }
        let take = |grid: &[f64], offset: usize| AmpRow {
            amp: points[offset].0,
            vo: grid.to_vec(),
            i: measured[offset..offset + grid.len()].iter().map(|m| m.0).collect(),
            vi: measured[offset..offset + grid.len()].iter().map(|m| m.1).collect(),
        };
        let row_low = take(&grid_low, 0);
        let row_high = take(&grid_high, grid_low.len());
        let row_idle = take(&grid_idle, grid_low.len() + grid_high.len());
        let short_off = grid_low.len() + grid_high.len() + grid_idle.len();
        let short_i: Vec<f64> =
            measured[short_off..].iter().map(|m| m.0).collect();
        let vi_short_ratio = measured[short_off..]
            .iter()
            .map(|m| m.1)
            .fold(0.0f64, f64::max)
            / ask.amplitude_idle;
        Ok(RectifierTable {
            rows: vec![row_low, row_high, row_idle],
            short_vo: grid_short.to_vec(),
            short_i,
            vi_short_ratio,
            probes: points.len() as u64,
        })
    }
}

impl Artifact for AmpRow {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("amp", self.amp.to_json()),
            ("vo", self.vo.to_json()),
            ("i", self.i.to_json()),
            ("vi", self.vi.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(AmpRow {
            amp: json.get("amp")?.as_f64()?,
            vo: Artifact::from_json(json.get("vo")?)?,
            i: Artifact::from_json(json.get("i")?)?,
            vi: Artifact::from_json(json.get("vi")?)?,
        })
    }
}

impl Artifact for RectifierTable {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("rows", self.rows.to_json()),
            ("short_vo", self.short_vo.to_json()),
            ("short_i", self.short_i.to_json()),
            ("vi_short_ratio", self.vi_short_ratio.to_json()),
            ("probes", self.probes.to_json()),
        ])
    }

    fn from_json(json: &Json) -> Option<Self> {
        Some(RectifierTable {
            rows: Artifact::from_json(json.get("rows")?)?,
            short_vo: Artifact::from_json(json.get("short_vo")?)?,
            short_i: Artifact::from_json(json.get("short_i")?)?,
            vi_short_ratio: json.get("vi_short_ratio")?.as_f64()?,
            probes: json.get("probes")?.as_u64()?,
        })
    }
}

/// One carrier-rate calibration probe: the rectifier with Vo pinned,
/// driven by a plain sine; returns the cycle-averaged pin current and
/// the input peak over the trailing periods.
fn probe(
    spec: &RectifierProbeSpec,
    carrier_hz: f64,
    amp: f64,
    vo: f64,
    shorted: bool,
) -> Result<(f64, f64), analog::SimError> {
    let mut ckt = Circuit::new();
    let src = ckt.node("src");
    let vi = ckt.node("vi");
    ckt.voltage_source("Vsrc", src, Circuit::GND, SourceFn::sine(amp, carrier_hz));
    ckt.resistor("Rsrc", src, vi, spec.r_source);
    let (m1, m2) = if shorted {
        (SourceFn::dc(1.8), SourceFn::dc(0.0))
    } else {
        (SourceFn::dc(0.0), SourceFn::dc(1.8))
    };
    let rect = spec.rectifier.clone().with_initial_voltage(vo);
    let nodes = rect.build(&mut ckt, vi, m1, m2);
    ckt.voltage_source("Vpin", nodes.vo, Circuit::GND, SourceFn::dc(vo));
    let period = 1.0 / carrier_hz;
    let t_stop = PROBE_PERIODS * period;
    let sim = ckt.compile()?;
    let cfg = TranConfig::builder(t_stop).max_step(spec.max_step).build();
    let res = sim.tran(&cfg)?;
    let t0 = t_stop - PROBE_MEASURE_PERIODS * period;
    let i_pin = res.current_trace("Vpin").expect("pin current traced");
    let v_in = res.trace("vi").expect("vi traced");
    // Branch-current convention: a source absorbing power records a
    // positive current, so charging the pinned storage node reads
    // positive here.
    Ok((i_pin.average_in(t0, t_stop), v_in.max_in(t0, t_stop)))
}

/// A uniform sub-grid of `[t0, t1]` no coarser than `dt`: the count and
/// the exact step. Pure in its arguments, so every domain lands on the
/// same times.
fn grid(t0: f64, t1: f64, dt: f64) -> (usize, f64) {
    let n = ((t1 - t0) / dt - 1.0e-9).ceil().max(1.0) as usize;
    (n, (t1 - t0) / n as f64)
}

/// The `k`-th grid time, with the last pinned exactly to `t1`.
fn grid_time(t0: f64, t1: f64, h: f64, k: usize, n: usize) -> f64 {
    if k == n {
        t1
    } else {
        t0 + k as f64 * h
    }
}

/// The PA + link + rectifier front-end as an envelope-rate surrogate.
pub struct LinkDomain {
    envelope: Pwl,
    table: RectifierTable,
    dt: f64,
}

impl LinkDomain {
    /// A link domain playing `envelope` through the calibrated table.
    pub fn new(envelope: Pwl, table: RectifierTable, plan: &RatePlan) -> Self {
        LinkDomain { envelope, table, dt: plan.envelope_dt }
    }
}

impl Domain for LinkDomain {
    fn name(&self) -> &'static str {
        "link"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let vo_buf = bus.reader(PORT_VO)?;
        let lsk_buf = bus.reader(PORT_LSK)?;
        let (n, h) = grid(t0, t1, self.dt);
        let mut p_vi = Port::new(PORT_VI_ENV);
        let mut p_i = Port::new(PORT_I_CHG);
        for k in 1..=n {
            let t = grid_time(t0, t1, h, k, n);
            let amp = self.envelope.eval(t);
            let vo = vo_buf.sample(t);
            let (i, vi) = if lsk_buf.sample(t) >= 0.5 {
                self.table.shorted(amp, vo)
            } else {
                self.table.lookup(amp, vo)
            };
            p_i.push(t, i);
            p_vi.push(t, vi);
        }
        Ok(vec![p_vi, p_i])
    }

    fn commit(&mut self, _t0: f64, _t1: f64, _bus: &Exchange) -> Result<(), CosimError> {
        Ok(())
    }
}

/// The storage capacitor + load as an envelope-rate ODE (explicit
/// midpoint), hard-clamped to the four-diode stack voltage.
pub struct PmuDomain {
    c_out: f64,
    r_load: f64,
    dt: f64,
    v: f64,
}

impl PmuDomain {
    /// A PMU domain starting from `v0` on the storage capacitor.
    pub fn new(c_out: f64, r_load: f64, v0: f64, plan: &RatePlan) -> Self {
        PmuDomain { c_out, r_load, dt: plan.envelope_dt, v: v0.clamp(0.0, V_CLAMP) }
    }
}

impl Domain for PmuDomain {
    fn name(&self) -> &'static str {
        "pmu"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let ib = bus.reader(PORT_I_CHG)?;
        let (n, h) = grid(t0, t1, self.dt);
        let mut v = self.v;
        let mut port = Port::new(PORT_VO);
        for k in 1..=n {
            let ta = grid_time(t0, t1, h, k - 1, n);
            let t = grid_time(t0, t1, h, k, n);
            let hh = t - ta;
            let s1 = (ib.sample(ta) - v / self.r_load) / self.c_out;
            let vm = v + 0.5 * hh * s1;
            let s2 = (ib.sample(ta + 0.5 * hh) - vm / self.r_load) / self.c_out;
            v = (v + hh * s2).clamp(0.0, V_CLAMP);
            port.push(t, v);
        }
        Ok(vec![port])
    }

    fn commit(&mut self, _t0: f64, t1: f64, bus: &Exchange) -> Result<(), CosimError> {
        // Adopt the *committed* waveform as internal state so the next
        // window continues exactly where the bus ends.
        self.v = bus.reader(PORT_VO)?.sample(t1);
        Ok(())
    }
}

/// Bit-rate comms: demodulation decisions at the ϕ1 clock edges and the
/// LSK shorting schedule.
pub struct CommsDomain {
    demod: ClockedDemodulator,
    /// ϕ1 decision edges, one per downlink bit.
    edges: Vec<f64>,
    /// The uplink shorting waveform (0/1).
    lsk: Pwl,
    dt: f64,
    /// Demodulator output level after the last committed window.
    vdem_level: f64,
    /// Edges decided by committed windows.
    decided: usize,
    /// Decisions, in edge order.
    decoded: BitStream,
}

impl CommsDomain {
    /// A comms domain for the spec's downlink/uplink schedule.
    pub fn new(spec: &Fig11CosimSpec, plan: &RatePlan) -> Self {
        let mut demod = spec.demodulator;
        demod.clock = TwoPhaseClock::ironic().delayed(spec.downlink_start + CLOCK_ALIGN);
        let edges: Vec<f64> = demod
            .clock
            .phi1_rising_edges(spec.t_stop)
            .into_iter()
            .take(spec.downlink_bits.len())
            .collect();
        // LSK schedule: M1 shorts the input for every 0 uplink bit.
        let tb = 1.0 / spec.uplink_rate;
        let mut pts: Vec<(f64, f64)> = vec![(0.0, 0.0)];
        let mut level = 0.0;
        for (k, bit) in spec.uplink_bits.iter().enumerate() {
            let want = if bit { 0.0 } else { 1.0 };
            if want != level {
                let t = spec.uplink_start + k as f64 * tb;
                pts.push((t - STEP_EPS, level));
                pts.push((t, want));
                level = want;
            }
        }
        if level != 0.0 {
            let t = spec.uplink_start + spec.uplink_bits.len() as f64 * tb;
            pts.push((t - STEP_EPS, level));
            pts.push((t, 0.0));
        }
        CommsDomain {
            demod,
            edges,
            lsk: Pwl::new(pts),
            dt: plan.envelope_dt,
            vdem_level: 0.0,
            decided: 0,
            decoded: BitStream::new(),
        }
    }

    /// The downlink bits decided so far (complete once the run ends).
    pub fn decoded(&self) -> &BitStream {
        &self.decoded
    }

    /// Decisions falling inside `(t0, t1]`: `(decision_time, level)`
    /// per newly decided edge, from the bus envelope.
    fn decisions(
        &self,
        t0: f64,
        t1: f64,
        bus: &Exchange,
    ) -> Result<Vec<(f64, f64)>, CosimError> {
        let env = bus.reader(PORT_VI_ENV)?;
        let mut out = Vec::new();
        for &e in self.edges.iter().skip(self.decided) {
            let d = e + self.demod.aperture;
            if d > t1 {
                break;
            }
            if d <= t0 {
                continue;
            }
            let vc2 = (env.sample(d) - self.demod.diode_shift).max(0.0);
            let bit = vc2 > self.demod.inverter_threshold;
            out.push((d, if bit { 1.8 } else { 0.0 }));
        }
        Ok(out)
    }

    /// The LSK and Vdem step waveforms over `(t0, t1]`.
    fn render(
        &self,
        t0: f64,
        t1: f64,
        decisions: &[(f64, f64)],
    ) -> (Port, Port) {
        // LSK: envelope-rate samples plus the exact corner times, so
        // consumers see crisp transitions wherever they sample.
        let (n, h) = grid(t0, t1, self.dt);
        let mut times: Vec<f64> = (1..=n).map(|k| grid_time(t0, t1, h, k, n)).collect();
        times.extend(self.lsk.corner_times().filter(|&t| t > t0 && t < t1));
        times.sort_by(f64::total_cmp);
        times.dedup();
        let mut p_lsk = Port::new(PORT_LSK);
        for &t in &times {
            p_lsk.push(t, self.lsk.eval(t));
        }
        // Vdem: steps at the decision times, held in between.
        let mut p_vdem = Port::new(PORT_VDEM);
        let mut level = self.vdem_level;
        for &(d, value) in decisions {
            if value != level {
                // The pre-sample keeping the step crisp may fall just
                // outside the window when the decision time lands on
                // its boundary; the committed history already holds the
                // old level there, so it can be dropped.
                let pre = d - STEP_EPS;
                if pre > t0 && p_vdem.times.last().is_none_or(|&x| x < pre) {
                    p_vdem.push(pre, level);
                }
                p_vdem.push(d, value);
                level = value;
            }
        }
        if p_vdem.times.last().is_none_or(|&t| t < t1) {
            p_vdem.push(t1, level);
        }
        (p_lsk, p_vdem)
    }
}

impl Domain for CommsDomain {
    fn name(&self) -> &'static str {
        "comms"
    }

    fn advance(&self, t0: f64, t1: f64, bus: &Exchange) -> Result<Vec<Port>, CosimError> {
        let decisions = self.decisions(t0, t1, bus)?;
        let (p_lsk, p_vdem) = self.render(t0, t1, &decisions);
        Ok(vec![p_lsk, p_vdem])
    }

    fn commit(&mut self, t0: f64, t1: f64, bus: &Exchange) -> Result<(), CosimError> {
        let decisions = self.decisions(t0, t1, bus)?;
        for &(_, value) in &decisions {
            self.decoded.push(value > 0.9);
            self.vdem_level = value;
        }
        self.decided += decisions.len();
        Ok(())
    }
}

/// Everything a finished Fig. 11 co-simulation produced.
#[derive(Debug, Clone)]
pub struct Fig11CosimRun {
    /// Storage-capacitor voltage (envelope rate).
    pub vo: Waveform,
    /// Carrier-envelope peak at the rectifier input.
    pub vi_env: Waveform,
    /// Demodulator output (bit-rate steps).
    pub vdem: Waveform,
    /// Decoded downlink bits.
    pub decoded: BitStream,
    /// Scheduler cost counters.
    pub stats: CosimStats,
    /// Carrier-rate probes spent on calibration.
    pub probes: u64,
}

/// Runs the partitioned Fig. 11 co-simulation, calibrating on `pool`
/// from scratch.
///
/// # Errors
///
/// Calibration failures, relaxation divergence and plan errors, all as
/// [`CosimError`].
pub fn run_fig11(
    spec: &Fig11CosimSpec,
    plan: &RatePlan,
    pool: &Pool,
) -> Result<Fig11CosimRun, CosimError> {
    run_fig11_cached(spec, plan, pool, &ResultCache::bounded(0))
}

/// Runs the partitioned Fig. 11 co-simulation, taking the link table
/// from `tables` when it holds one for the spec's rectifier, idle
/// amplitude, source resistance and probe step, and calibrating on
/// `pool` (then caching the table) otherwise. A cached table reports `probes == 0`; the outcome
/// is bit-identical either way.
///
/// # Errors
///
/// Calibration failures, relaxation divergence and plan errors, all as
/// [`CosimError`].
pub fn run_fig11_cached(
    spec: &Fig11CosimSpec,
    plan: &RatePlan,
    pool: &Pool,
    tables: &ResultCache<RectifierTable>,
) -> Result<Fig11CosimRun, CosimError> {
    let _span = obs::span!("cosim.fig11");
    plan.validate()?;
    let probe = spec.probe_spec();
    let (table, hit) = calibrate_cached(
        tables,
        RectifierProbeSpec::NAMESPACE,
        &probe.cache_point(),
        || RectifierTable::calibrate_probe(&probe, pool),
    )?;
    let probes = if hit { 0 } else { table.probes };
    let envelope = spec.ask().envelope(&spec.downlink_bits, spec.downlink_start);
    let v0 = spec.rectifier.co_initial.clamp(0.0, V_CLAMP);

    let mut cosim = Cosim::new(*plan);
    cosim.seed_port(PORT_VI_ENV, 0.0, 0.0, 1.0);
    // A converged ampere error should mean the same voltage error
    // everywhere: scale the current port by the source conductance.
    cosim.seed_port(PORT_I_CHG, 0.0, 0.0, 1.0 / spec.r_source);
    cosim.seed_port(PORT_VO, 0.0, v0, 1.0);
    cosim.seed_port(PORT_LSK, 0.0, 0.0, 1.0);
    cosim.seed_port(PORT_VDEM, 0.0, 0.0, 1.0);
    cosim.add_domain(Box::new(LinkDomain::new(envelope, table, plan)));
    cosim.add_domain(Box::new(PmuDomain::new(
        spec.rectifier.c_out,
        spec.r_load,
        v0,
        plan,
    )));
    cosim.add_domain(Box::new(CommsDomain::new(spec, plan)));

    let stats = cosim.run(0.0, spec.t_stop)?;
    let bus = cosim.bus();
    let vo = bus.waveform(PORT_VO).expect("vo port seeded");
    let vi_env = bus.waveform(PORT_VI_ENV).expect("vi_env port seeded");
    let vdem = bus.waveform(PORT_VDEM).expect("vdem port seeded");
    // Decode the way the monolithic evaluation does: sample Vdem shortly
    // after each ϕ1 rising edge.
    let clock = TwoPhaseClock::ironic().delayed(spec.downlink_start + CLOCK_ALIGN);
    let decoded: BitStream = clock
        .phi1_rising_edges(spec.t_stop)
        .iter()
        .take(spec.downlink_bits.len())
        .map(|&e| vdem.value_at(e + 1.5e-6) > 0.9)
        .collect();
    Ok(Fig11CosimRun { vo, vi_env, vdem, decoded, stats, probes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_table() -> RectifierTable {
        RectifierTable {
            rows: vec![
                AmpRow {
                    amp: 1.0,
                    vo: vec![0.0, 1.0],
                    i: vec![1.0e-3, 0.0],
                    vi: vec![0.9, 1.0],
                },
                AmpRow {
                    amp: 3.0,
                    vo: vec![0.0, 2.0, 3.0],
                    i: vec![3.0e-3, 1.0e-3, -1.0e-3],
                    vi: vec![2.7, 2.9, 3.0],
                },
            ],
            short_vo: vec![0.0, 3.0],
            short_i: vec![0.0, -1.0e-8],
            vi_short_ratio: 0.05,
            probes: 0,
        }
    }

    #[test]
    fn table_lookup_is_bilinear_and_clamped() {
        let t = toy_table();
        // On a row, on a grid point.
        assert_eq!(t.lookup(1.0, 0.0), (1.0e-3, 0.9));
        // Between rows at vo = 0: halfway between 1 mA and 3 mA.
        let (i, vi) = t.lookup(2.0, 0.0);
        assert!((i - 2.0e-3).abs() < 1e-12 && (vi - 1.8).abs() < 1e-12);
        // Clamped below and above the amp range.
        assert_eq!(t.lookup(0.5, 0.0), t.lookup(1.0, 0.0));
        assert_eq!(t.lookup(9.0, 3.0), (-1.0e-3, 3.0));
        // Clamped past the row's vo grid.
        assert_eq!(t.lookup(1.0, 5.0), (0.0, 1.0));
        // Shorted state scales vi with the drive.
        let (i_s, vi_s) = t.shorted(2.0, 1.5);
        assert!(i_s < 0.0 && (vi_s - 0.1).abs() < 1e-12);
    }

    #[test]
    fn tables_round_trip_through_json_bit_exactly() {
        let t = toy_table();
        let back = RectifierTable::from_json(&t.to_json()).expect("table decodes");
        assert_eq!(back.to_json(), t.to_json());
        assert_eq!(back.lookup(2.0, 1.3), t.lookup(2.0, 1.3));
        assert!(RectifierTable::from_json(&Json::Null).is_none());
    }

    #[test]
    fn grid_lands_exactly_on_the_window_end() {
        let (n, h) = grid(0.0, 2.0e-6, 0.3e-6);
        assert_eq!(n, 7);
        assert_eq!(grid_time(0.0, 2.0e-6, h, n, n), 2.0e-6);
        // An exact multiple keeps the natural count.
        let (n, _) = grid(0.0, 2.0e-6, 0.2e-6);
        assert_eq!(n, 10);
    }

    #[test]
    fn pmu_decays_through_the_load_when_unpowered() {
        let plan = RatePlan::fig11();
        let pmu = PmuDomain::new(30.0e-9, 7.8e3, 2.75, &plan);
        let mut bus = Exchange::new();
        bus.seed(PORT_I_CHG, 0.0, 0.0, 1.0);
        let ports = pmu.advance(0.0, 20.0e-6, &bus).unwrap();
        let v_end = *ports[0].values.last().unwrap();
        let expect = 2.75 * f64::exp(-20.0e-6 / (7.8e3 * 30.0e-9));
        assert!(
            (v_end - expect).abs() < 2.0e-3,
            "RC decay: got {v_end}, want ≈ {expect}"
        );
    }

    #[test]
    fn comms_renders_lsk_schedule_and_defers_partial_edges() {
        let spec = Fig11CosimSpec {
            rectifier: RectifierCircuit::ironic(),
            demodulator: ClockedDemodulator::ironic(),
            idle_amplitude: 3.9,
            r_source: 40.0,
            r_load: 7.8e3,
            downlink_bits: BitStream::from_str("11"),
            downlink_start: 10.0e-6,
            uplink_bits: BitStream::from_str("10"),
            uplink_start: 60.0e-6,
            uplink_rate: 100.0e3,
            t_stop: 100.0e-6,
            max_step: 10.0e-9,
        };
        let plan = RatePlan::fig11();
        let comms = CommsDomain::new(&spec, &plan);
        let mut bus = Exchange::new();
        bus.seed(PORT_VI_ENV, 0.0, 3.9, 1.0);
        // The 0 bit shorts [70 µs, 80 µs): sample inside and outside.
        let ports = comms.advance(68.0e-6, 72.0e-6, &bus).unwrap();
        let lsk = &ports[0];
        let at = |t: f64| {
            let i = lsk.times.iter().position(|&x| (x - t).abs() < 1e-12).unwrap();
            lsk.values[i]
        };
        assert!(at(69.0e-6) < 0.5, "connected before the zero bit");
        assert!(at(70.0e-6) > 0.5, "shorted at the bit edge");
        assert!(at(71.0e-6) > 0.5, "shorted inside the zero bit");
        // First ϕ1 edge is at 14 µs + 1 µs aperture: a window ending at
        // 14.5 µs must not decide it, the next one must.
        let early = comms.decisions(14.0e-6, 14.5e-6, &bus).unwrap();
        assert!(early.is_empty(), "decision before the aperture closes");
        let late = comms.decisions(14.5e-6, 16.0e-6, &bus).unwrap();
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].1, 1.8, "idle envelope decodes high");
    }
}
