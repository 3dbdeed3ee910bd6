//! The complete power path in one transistor-level netlist: class-E PA →
//! coupled coils (k from the filament model at a physical distance) →
//! CA/CB matching → rectifier with clamps → storage capacitor → load.
//!
//! Where [`crate::scenario`] drives the PMU from an idealized carrier
//! source, this scenario generates the carrier the way the patch does —
//! a switching class-E stage — and delivers it across the actual
//! magnetics, closing the loop on Sections III *and* IV simultaneously:
//! if the rectifier output regulates above 2.1 V here, every link of the
//! paper's chain works together, not just in isolation.

use analog::{Circuit, SimError, SourceFn, SwitchModel, TranConfig, Waveform};
use coils::mutual::CoilPair;
use comms::bits::BitStream;
use comms::lsk::{LskDetector, LskModulator};
use link::classe::ClassEDesign;
use link::matching::CapacitiveMatch;
use pmu::modulator::LoadModulator;
use pmu::rectifier::RectifierCircuit;
use pmu::V_O_MIN;

/// Configuration of the full-chain run.
#[derive(Debug, Clone)]
pub struct FullChainScenario {
    /// Class-E design point (sets VDD, frequency, output network).
    pub design: ClassEDesign,
    /// Coil pair providing L1/L2 and k(d).
    pub pair: CoilPair,
    /// Coil separation, metres.
    pub distance: f64,
    /// Rectifier configuration.
    pub rectifier: RectifierCircuit,
    /// DC load on the rectifier output, ohms.
    pub r_load: f64,
    /// Carrier cycles to simulate.
    pub cycles: usize,
    /// Optional LSK uplink burst: `(bits, start_time, bit_rate)`. The
    /// implant shorts its rectifier input per bit and the patch detects
    /// the reflected change on its supply-current sense (the paper's R9).
    pub uplink: Option<(BitStream, f64, f64)>,
}

impl FullChainScenario {
    /// The paper's operating point: the IronIC coils at 10 mm, the 5 MHz
    /// class-E stage, the Fig. 8 rectifier into the low-power load.
    pub fn ironic() -> Self {
        FullChainScenario {
            design: ClassEDesign::ironic(),
            pair: CoilPair::ironic(),
            distance: 10.0e-3,
            rectifier: RectifierCircuit { c_out: 10.0e-9, ..RectifierCircuit::ironic() },
            // ≈ 5 mW at the clamped output — the §IV-C operating point.
            r_load: 1.5e3,
            cycles: 250,
            uplink: None,
        }
    }

    /// Adds an LSK uplink burst at 100 kbps after the chain has settled,
    /// extending the run to cover it. Communication happens in the
    /// sensor's low-power mode (paper §IV-C), so the DC load is set to
    /// the ≈ 350 µA equivalent — the 10 nF settling capacitor then rides
    /// through each shorted bit.
    #[must_use]
    pub fn with_uplink(mut self, bits: BitStream, start: f64) -> Self {
        let rate = 100.0e3;
        let t_end = start + (bits.len() as f64 + 1.0) / rate;
        let period = 1.0 / self.design.frequency;
        self.cycles = self.cycles.max((t_end / period).ceil() as usize);
        self.r_load = 7.8e3;
        self.uplink = Some((bits, start, rate));
        self
    }

    /// Builds the complete netlist. The class-E series inductor *is* the
    /// transmitting coil L1, magnetically coupled to the implanted L2.
    pub fn build(&self) -> Circuit {
        let (m1, m2) = match &self.uplink {
            Some((bits, start, rate)) => {
                let lsk = LoadModulator::with_timing(LskModulator {
                    bit_rate: *rate,
                    logic_high: 1.8,
                    edge_time: 50.0e-9,
                });
                lsk.gates(bits, *start)
            }
            None => (SourceFn::dc(0.0), SourceFn::dc(1.8)),
        };
        let (mut ckt, nodes) = self.front_end().build(m1, m2);
        ckt.resistor("Rload", nodes.vo, Circuit::GND, self.r_load);
        ckt
    }

    /// The load-independent part of the chain.
    pub(crate) fn front_end(&self) -> ChainFrontEnd {
        ChainFrontEnd {
            design: self.design,
            pair: self.pair,
            distance: self.distance,
            rectifier: self.rectifier.clone(),
        }
    }

    /// Runs the chain and measures the end-to-end power flow.
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn run(&self) -> Result<FullChainOutcome, SimError> {
        let f = self.design.frequency;
        let period = 1.0 / f;
        let t_stop = self.cycles as f64 * period;
        let ckt = {
            let _build = obs::span!("fullchain.build");
            self.build()
        };
        let sim = {
            let _compile = obs::span!("fullchain.compile");
            ckt.compile()?
        };
        let cfg = TranConfig::builder(t_stop).max_step(period / 40.0).build();
        let res = {
            let _transient = obs::span!("fullchain.transient");
            sim.tran(&cfg)?
        };
        let _measure = obs::span!("fullchain.measure");
        let vo = res.trace("vo").expect("vo traced");
        let vi = res.trace("vi").expect("vi traced");
        let drain = res.trace("drain").expect("drain traced");
        let i_vdd = res.current_trace("VDD").expect("supply current");
        let (t0, t1) = (0.8 * t_stop, t_stop);
        let p_load = vo.map(|v| v * v / self.r_load).average_in(t0, t1);
        let p_supply = self.design.vdd * i_vdd.map(|i| -i).average_in(t0, t1);
        // Patch-side uplink detection on the supply current (the R9
        // sense): low-pass the magnitude over a few carrier cycles and
        // slice at the bit rate.
        let uplink_detected = self.uplink.as_ref().map(|(bits, start, rate)| {
            let sense = i_vdd.map(f64::abs).envelope(4.0 * period);
            // Inverted polarity: shorting *after* the tapped-C match
            // detunes the secondary, lowering the reflected resistance —
            // so a shorted (0) bit RAISES the PA supply current here.
            // (See `LskDetector::invert` for the two conventions.)
            let det = LskDetector {
                bit_rate: *rate,
                processing_time: 1e-9,
                sample_phase: 0.6,
                invert: true,
            };
            det.detect_averaging(&sense, *start, bits.len())
        });
        Ok(FullChainOutcome {
            vo,
            vi,
            drain,
            p_load,
            p_supply,
            uplink_detected,
            t_window: (t0, t1),
        })
    }
}

/// The chain up to (and including) the rectifier: everything a
/// full-chain netlist holds except the DC load and the gate schedule.
/// The co-simulation calibrates against exactly this (see
/// [`crate::cosim`]), so it is also the identity its table is cached
/// under.
#[derive(Debug, Clone)]
pub(crate) struct ChainFrontEnd {
    pub(crate) design: ClassEDesign,
    pub(crate) pair: CoilPair,
    pub(crate) distance: f64,
    pub(crate) rectifier: RectifierCircuit,
}

impl ChainFrontEnd {
    /// Builds the front-end with explicit gate drives and *no* output
    /// load — the co-simulation probes pin `vo` with a staircase source
    /// instead.
    pub(crate) fn build(
        &self,
        m1: SourceFn,
        m2: SourceFn,
    ) -> (Circuit, pmu::rectifier::RectifierNodes) {
        let amp = self.design.synthesize();
        let f = self.design.frequency;
        let omega = std::f64::consts::TAU * f;
        let mut ckt = Circuit::new();

        // ---- primary: class-E stage ----
        let vdd = ckt.node("vdd");
        let drain = ckt.node("drain");
        let series = ckt.node("series");
        let tx_hot = ckt.node("tx");
        let gate = ckt.node("gate");
        ckt.voltage_source("VDD", vdd, Circuit::GND, SourceFn::dc(self.design.vdd));
        ckt.voltage_source("VGATE", gate, Circuit::GND, SourceFn::square(0.0, 3.0, f));
        ckt.inductor("Lchoke", vdd, drain, amp.l_choke);
        ckt.switch(
            "M2pa",
            drain,
            Circuit::GND,
            gate,
            Circuit::GND,
            SwitchModel { von: 2.0, voff: 1.0, ron: 0.3, roff: 1.0e7 },
        );
        ckt.capacitor("C3", drain, Circuit::GND, amp.c_shunt);
        ckt.capacitor("C4", drain, series, amp.c_series);

        // Secondary parameters first: the reflected resistance sets how
        // much ballast completes the class-E design load.
        let k = self.pair.coupling_at(self.distance);
        let l_tx = self.pair.l_tx();
        let l_rx = self.pair.l_rx();
        let r1 = self.pair.tx().ac_resistance(f);
        let r2 = self.pair.rx().ac_resistance(f);
        // CA/CB match designed against the paper's 150 Ω rectifier input;
        // through it the secondary loop carries ≈ r2 (conjugate match).
        let m = CapacitiveMatch::design(l_rx, r2, f, 150.0);
        let r_secondary = r2 + m.series_equivalent();
        let reflected = (omega * k * (l_tx * l_rx).sqrt()).powi(2) / r_secondary;

        // Series loop: drain → C4 → ballast → tuning L → coil ESR → L1 → gnd.
        // The ballast absorbs the part of the design load the reflected
        // secondary does not supply (a real patch burns that margin in
        // driver and coil losses).
        let ballast = (amp.r_load - r1 - reflected).max(0.1);
        let n_bal = ckt.node("after_ballast");
        ckt.resistor("Rballast", series, n_bal, ballast);
        let l_tune = (amp.l_series - l_tx).max(1.0e-9);
        let n_tune = ckt.node("after_tune");
        ckt.inductor("Ltune", n_bal, n_tune, l_tune);
        ckt.resistor("R1esr", n_tune, tx_hot, r1);
        let l1 = ckt.inductor("L1", tx_hot, Circuit::GND, l_tx);

        // ---- secondary: implant ----
        let rx_hot = ckt.node("rx");
        let vi = ckt.node("vi");
        let coil_tap = ckt.node("rx_tap");
        let l2 = ckt.inductor("L2", rx_hot, Circuit::GND, l_rx);
        ckt.couple(l1, l2, k);
        ckt.resistor("R2esr", rx_hot, coil_tap, r2);
        ckt.capacitor("CA", coil_tap, vi, m.ca);
        ckt.capacitor("CB", vi, Circuit::GND, m.cb);
        let nodes = self.rectifier.build(&mut ckt, vi, m1, m2);
        (ckt, nodes)
    }
}

impl Default for FullChainScenario {
    fn default() -> Self {
        FullChainScenario::ironic()
    }
}

/// Measurements from a full-chain run.
#[derive(Debug, Clone)]
pub struct FullChainOutcome {
    /// Rectifier output voltage.
    pub vo: Waveform,
    /// Rectifier input (matched node) voltage.
    pub vi: Waveform,
    /// PA drain voltage.
    pub drain: Waveform,
    /// Average power delivered to the DC load, watts.
    pub p_load: f64,
    /// Average power drawn from the PA supply, watts.
    pub p_supply: f64,
    /// Bits the patch recovered from its supply-current sense, when an
    /// uplink burst was configured.
    pub uplink_detected: Option<BitStream>,
    /// Steady-state measurement window.
    pub t_window: (f64, f64),
}

impl FullChainOutcome {
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
        self.vi.max_in(self.t_window.0, self.t_window.1)
    }
}
