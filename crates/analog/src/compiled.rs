//! The compiled analog engine: netlists lowered once into sparse stamp
//! programs.
//!
//! [`crate::Circuit::compile`] walks the netlist a single time and
//! produces a [`CompiledCircuit`]:
//!
//! - every linear, time-invariant stamp (resistors, source incidences,
//!   controlled-source gains) is folded into per-mode value templates
//!   laid out on a fixed CSR sparsity pattern;
//! - reactive stamps (capacitor companion conductances, inductance
//!   rows) are stored as a separate template scaled by the integration
//!   factor `(trap ? 2 : 1)/dt`, so a timestep change is a fused
//!   multiply-add over the nonzeros rather than a netlist walk;
//! - nonlinear devices (diodes, MOSFETs, switches) become a flat
//!   instruction stream with every matrix slot and RHS row resolved to
//!   an index at compile time — ground terminals point at a trash slot
//!   so the hot loop is branch-free;
//! - the LU factorization pins its pivot order and fill pattern after
//!   the first pivoted pass ([`crate::sparse::SparseLu`]), refactors
//!   without pivot search while the order stays numerically healthy,
//!   and skips factorization entirely when the matrix values did not
//!   change (linear circuits, source-only RHS updates).
//!
//! The numerics — companion models, Newton limiting, LTE step control,
//! breakpoint handling — mirror the reference interpreter in
//! `crate::engine` line for line; only assembly and linear algebra
//! differ. Results agree within solver rounding (the pinned pivot
//! order departs from the reference's per-solve pivot search), which
//! the equivalence suite bounds tightly.

use std::collections::HashMap;
use std::time::Instant;

use crate::analysis::{
    AcResult, AcSpec, DcSweepResult, Integration, OpPoint, TranConfig, TransientResult,
};
use crate::device::{fetlim, limvds, pnjlim, DiodeModel, MosModel, MosPolarity, SwitchModel};
use crate::error::SimError;
use crate::netlist::{Circuit, DeviceKind, NodeId};
use crate::source::SourceFn;
use crate::sparse::{CsrPattern, LuStats, PatternBuilder, RefactorHint, SparseLu};

/// Thermal voltage at the SPICE nominal 27 °C (used as fallback).
const VT_NOMINAL: f64 = 0.025852;
/// Junction parallel conductance.
const GMIN: f64 = 1.0e-12;
/// Default shunt conductance from every node to ground.
const GSHUNT_DEFAULT: f64 = 1.0e-12;
/// Conductance used to force capacitor initial conditions.
const G_FORCE_IC: f64 = 1.0e2;
/// Safety factor on the LTE step estimate.
const LTE_TRTOL: f64 = 7.0;
/// Sentinel node index meaning "ground" for voltage reads.
const GND_IDX: usize = usize::MAX;

/// Resolved matrix slots of a symmetric conductance stamp between two
/// terminals; ground terminals resolve to the trash slot.
#[derive(Debug, Clone, Copy)]
struct GSlots {
    aa: usize,
    bb: usize,
    ab: usize,
    ba: usize,
}

/// RHS placement of an independent source.
#[derive(Debug, Clone)]
enum SrcKind {
    /// Voltage source: value lands on its branch row.
    V { br: usize },
    /// Current source: injection into `p`, draw from `n` (rows are
    /// pre-resolved; ground is the trash row).
    I { p: usize, n: usize },
}

/// One independent source in the program.
#[derive(Debug, Clone)]
struct SrcInstr {
    /// Device index in the circuit (dc_sweep override lookup).
    di: usize,
    wave: SourceFn,
    kind: SrcKind,
}

/// Capacitor companion-model instruction.
#[derive(Debug, Clone, Copy)]
struct CapInstr {
    di: usize,
    farads: f64,
    ic: Option<f64>,
    /// Voltage-read indices (`GND_IDX` = ground).
    a: usize,
    b: usize,
}

/// Capacitor initial-condition RHS stamp (force-IC DC mode only).
#[derive(Debug, Clone, Copy)]
struct CapIcInstr {
    /// Pre-resolved RHS rows (trash row for ground).
    ra: usize,
    rb: usize,
    /// `G_FORCE_IC · ic`.
    g_ic: f64,
}

/// Inductor companion-model instruction.
#[derive(Debug, Clone)]
struct IndInstr {
    di: usize,
    /// Branch unknown index.
    br: usize,
    ic: Option<f64>,
    a: usize,
    b: usize,
    /// Inductance row: `(column, inductance, owner device index)`;
    /// self first, then couplings in declaration order.
    row: Vec<(usize, f64, usize)>,
}

/// Diode instruction: precomputed limiting constants and stamp slots.
#[derive(Debug, Clone, Copy)]
struct DiodeInstr {
    di: usize,
    model: DiodeModel,
    vcrit: f64,
    a: usize,
    k: usize,
    g4: GSlots,
}

/// Bulk-junction sub-instruction of a MOSFET.
#[derive(Debug, Clone, Copy)]
struct JunctionInstr {
    /// Limiting-state slot in the device's `nl_state` entry (2 or 3).
    nl_slot: usize,
    an: usize,
    ca: usize,
    jm: DiodeModel,
    vcrit: f64,
    g4: GSlots,
}

/// MOSFET instruction: channel stamp slots for both source/drain
/// orientations plus optional bulk junctions.
#[derive(Debug, Clone)]
struct MosInstr {
    di: usize,
    model: MosModel,
    nd: usize,
    ng: usize,
    ns: usize,
    nb: usize,
    /// `ch_slots[0]` = drain row, `ch_slots[1]` = source row; columns
    /// in `[gate, drain, bulk, source]` order.
    ch_slots: [[usize; 4]; 2],
    junctions: Vec<JunctionInstr>,
}

/// Voltage-controlled switch instruction.
#[derive(Debug, Clone, Copy)]
struct SwitchInstr {
    model: SwitchModel,
    cp: usize,
    cn: usize,
    g4: GSlots,
}

/// Per-device dynamic state for transient companion models.
/// Capacitor: `(v_prev, i_prev)`. Inductor: `(i_prev, v_prev)`.
#[derive(Debug, Clone, Copy, Default)]
struct DynState {
    a: f64,
    b: f64,
}

#[derive(Debug, Clone, Copy)]
enum Mode {
    Dc { time: f64, force_ic: bool, source_scale: f64 },
    Tran { time: f64, dt: f64, trap: bool },
}

impl Mode {
    fn time(&self) -> f64 {
        match self {
            Mode::Dc { time, .. } | Mode::Tran { time, .. } => *time,
        }
    }

    fn source_scale(&self) -> f64 {
        match self {
            Mode::Dc { source_scale, .. } => *source_scale,
            Mode::Tran { .. } => 1.0,
        }
    }
}

/// The lowered stamp program: sparsity pattern, value templates, and
/// per-device instruction streams.
#[derive(Debug, Clone)]
struct Program {
    nv: usize,
    n: usize,
    vt: f64,
    pattern: CsrPattern,
    /// Diagonal slot of every node row (for the g-shunt).
    diag_slots: Vec<usize>,
    /// Static linear values in transient mode (incidences, resistors,
    /// controlled-source gains).
    base_tran: Vec<f64>,
    /// Reactive template: assembled value adds `factor · react`.
    react: Vec<f64>,
    /// Static linear values at DC (inductors shorted, capacitors open).
    base_dc: Vec<f64>,
    /// Static linear values at DC with initial conditions forced.
    base_dc_ic: Vec<f64>,
    sources: Vec<SrcInstr>,
    caps: Vec<CapInstr>,
    cap_ics: Vec<CapIcInstr>,
    inductors: Vec<IndInstr>,
    ind_ics: Vec<(usize, f64)>,
    diodes: Vec<DiodeInstr>,
    mosfets: Vec<MosInstr>,
    switches: Vec<SwitchInstr>,
    /// Sorted, deduplicated matrix slots the nonlinear stamps rewrite
    /// per Newton iteration — the [`RefactorHint`] slot set for warm
    /// transient iterations.
    tran_dynamic_slots: Vec<u32>,
    /// Number of devices (sizes the per-run state arrays).
    device_count: usize,
}

impl Program {
    /// Proves every index the nonlinear instruction streams replay is
    /// in range, so the per-iteration stamp loops can use unchecked
    /// indexing: matrix slots against `vals` (length `nnz + 1`, the
    /// trash slot included), node-read indices against an `x` of length
    /// `n`, and RHS rows against a buffer of length `n + 1`.
    /// Instruction streams are immutable after lowering, so this holds
    /// for the lifetime of the program.
    ///
    /// # Panics
    ///
    /// Panics when lowering produced an out-of-range index (an internal
    /// bug, never a user input error).
    fn validate_streams(&self) {
        let nnz = self.pattern.nnz();
        let read_ok = |idx: usize| idx == GND_IDX || idx < self.n;
        let g4_ok = |s: GSlots| s.aa <= nnz && s.bb <= nnz && s.ab <= nnz && s.ba <= nnz;
        for d in &self.diodes {
            assert!(read_ok(d.a) && read_ok(d.k) && g4_ok(d.g4));
            assert!(d.di < self.device_count);
        }
        for sw in &self.switches {
            assert!(read_ok(sw.cp) && read_ok(sw.cn) && g4_ok(sw.g4));
        }
        // Companion-state updates read these through `volt` too.
        for c in &self.caps {
            assert!(read_ok(c.a) && read_ok(c.b));
        }
        for l in &self.inductors {
            assert!(read_ok(l.a) && read_ok(l.b));
        }
        for m in &self.mosfets {
            assert!(read_ok(m.nd) && read_ok(m.ng) && read_ok(m.ns) && read_ok(m.nb));
            assert!(m.di < self.device_count);
            for row in &m.ch_slots {
                for &s in row {
                    assert!(s <= nnz);
                }
            }
            for j in &m.junctions {
                assert!(read_ok(j.an) && read_ok(j.ca) && g4_ok(j.g4));
                assert!(j.nl_slot < 4);
            }
        }
    }
}

/// Mutable per-run state: assembly buffers, the LU factor, and the
/// device limiting/companion state.
struct ExecState {
    /// Matrix values; one extra trash slot at the end.
    vals: Vec<f64>,
    /// RHS; one extra trash row at the end.
    rhs: Vec<f64>,
    /// Source + companion RHS, fixed across the Newton iterations of
    /// one solve.
    rhs_static: Vec<f64>,
    lu: SparseLu,
    /// Newton solve buffer, reused across iterations.
    x_next: Vec<f64>,
    /// Cached linear-part assembly (templates + g-shunt) keyed on the
    /// transient mode's `(dt, trap, gshunt)` — it only changes when the
    /// step size does, not per Newton iteration.
    tran_cache_key: Option<(u64, bool, u64)>,
    tran_cache: Vec<f64>,
    /// Precompiled dirty-row closure of `Program::tran_dynamic_slots`.
    hint: RefactorHint,
    /// Slots outside the hint set may have changed since the last
    /// factorization (template switch or cache rebuild); the next
    /// factorization must take the full diff path.
    static_rebuilt: bool,
    nl_state: Vec<[f64; 4]>,
    dyn_state: Vec<DynState>,
    gshunt: f64,
    limiting_active: bool,
    /// dc_sweep override: `(source instruction index, DC value)`.
    source_override: Option<(usize, f64)>,
    newton_iterations: u64,
    profile: bool,
    assemble_ns: u64,
    factor_ns: u64,
    solve_ns: u64,
}

impl ExecState {
    fn new(p: &Program, profile: bool) -> Self {
        ExecState {
            vals: vec![0.0; p.pattern.nnz() + 1],
            rhs: vec![0.0; p.n + 1],
            rhs_static: vec![0.0; p.n + 1],
            lu: SparseLu::new(p.n),
            x_next: Vec::new(),
            tran_cache_key: None,
            tran_cache: Vec::new(),
            hint: RefactorHint::new(p.tran_dynamic_slots.clone()),
            static_rebuilt: true,
            nl_state: vec![[0.0; 4]; p.device_count],
            dyn_state: vec![DynState::default(); p.device_count],
            gshunt: GSHUNT_DEFAULT,
            limiting_active: false,
            source_override: None,
            newton_iterations: 0,
            profile,
            assemble_ns: 0,
            factor_ns: 0,
            solve_ns: 0,
        }
    }
}

/// Activity report of one compiled run, for the bench layer's
/// per-phase breakdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineStats {
    /// MNA unknowns.
    pub unknowns: usize,
    /// Structural nonzeros of the assembled matrix.
    pub nonzeros: usize,
    /// LU activity counters (factorizations, refactor skips, solves).
    pub lu: LuStats,
    /// Total Newton iterations across the run.
    pub newton_iterations: u64,
    /// Nanoseconds spent assembling stamps (0 unless profiled).
    pub assemble_ns: u64,
    /// Nanoseconds spent factorizing (0 unless profiled).
    pub factor_ns: u64,
    /// Nanoseconds spent in triangular solves (0 unless profiled).
    pub solve_ns: u64,
}

impl EngineStats {
    /// Fraction of factor requests answered without numeric work
    /// because the matrix values were unchanged.
    pub fn refactor_skip_rate(&self) -> f64 {
        let total = self.lu.pivoted_factorizations
            + self.lu.refactorizations
            + self.lu.refactor_skips;
        if total == 0 {
            0.0
        } else {
            self.lu.refactor_skips as f64 / total as f64
        }
    }
}

/// A netlist lowered into a sparse stamp program, ready to simulate.
///
/// Produced by [`Circuit::compile`]; immutable and reusable — every
/// analysis call owns its run state, so one compiled circuit can be
/// simulated repeatedly (or from several threads) without recompiling.
///
/// ```
/// use analog::{Circuit, SourceFn, TranConfig};
/// # fn main() -> Result<(), analog::SimError> {
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(3.0));
/// ckt.resistor("R1", a, Circuit::GND, 1.0e3);
/// let sim = ckt.compile()?;
/// let op = sim.dc_op()?;
/// assert!((op.voltage("a")? - 3.0).abs() < 1e-9);
/// let trace = sim.tran(&TranConfig::builder(1.0e-3).build())?;
/// assert!(trace.len() > 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    ckt: Circuit,
    program: Program,
    compile_ns: u64,
}

/// Convergence settings for one Newton solve.
struct NewtonTols {
    max_iter: usize,
    reltol: f64,
    vabstol: f64,
    iabstol: f64,
}

impl NewtonTols {
    /// The reference engine's fixed DC settings.
    const DC: NewtonTols =
        NewtonTols { max_iter: 200, reltol: 1e-3, vabstol: 1e-6, iabstol: 1e-9 };
}

impl CompiledCircuit {
    /// Lowers `ckt` (already temperature-adjusted) into a program.
    pub(crate) fn build(ckt: Circuit) -> Result<Self, SimError> {
        let t0 = Instant::now();
        diagnose(&ckt)?;
        let program = lower(&ckt)?;
        Ok(CompiledCircuit { ckt, program, compile_ns: t0.elapsed().as_nanos() as u64 })
    }

    /// The circuit this program was compiled from (temperature-adjusted).
    pub fn circuit(&self) -> &Circuit {
        &self.ckt
    }

    /// Number of MNA unknowns.
    pub fn unknown_count(&self) -> usize {
        self.program.n
    }

    /// Structural nonzeros of the sparse MNA matrix.
    pub fn nonzeros(&self) -> usize {
        self.program.pattern.nnz()
    }

    /// Wall-clock nanoseconds spent compiling.
    pub fn compile_ns(&self) -> u64 {
        self.compile_ns
    }

    /// Computes the DC operating point (capacitors open, inductors
    /// short).
    ///
    /// # Errors
    ///
    /// [`SimError::SingularMatrix`] for ill-formed topologies and
    /// [`SimError::NoConvergence`] when Newton, g-shunt stepping and
    /// source stepping all fail.
    pub fn dc_op(&self) -> Result<OpPoint, SimError> {
        let mut st = ExecState::new(&self.program, false);
        let x = self.dc_solve(&mut st, false, 0.0)?;
        Ok(self.op_point_from(&x))
    }

    /// Runs a transient analysis.
    ///
    /// # Errors
    ///
    /// Propagates DC-op errors for the initial point and returns
    /// [`SimError::TimestepTooSmall`] if the adaptive step underflows.
    pub fn tran(&self, cfg: &TranConfig) -> Result<TransientResult, SimError> {
        self.tran_with_stats(cfg).map(|(r, _)| r)
    }

    /// Runs a transient analysis and reports the engine activity
    /// (factorization counts, refactor-skip rate, per-phase times when
    /// `cfg.profile` is set).
    ///
    /// # Errors
    ///
    /// As [`CompiledCircuit::tran`].
    pub fn tran_with_stats(
        &self,
        cfg: &TranConfig,
    ) -> Result<(TransientResult, EngineStats), SimError> {
        let mut st = ExecState::new(&self.program, cfg.profile);
        let result = self.transient(&mut st, cfg)?;
        let stats = EngineStats {
            unknowns: self.program.n,
            nonzeros: self.program.pattern.nnz(),
            lu: st.lu.stats,
            newton_iterations: st.newton_iterations,
            assemble_ns: st.assemble_ns,
            factor_ns: st.factor_ns,
            solve_ns: st.solve_ns,
        };
        Ok((result, stats))
    }

    /// Runs a small-signal AC analysis about the DC operating point.
    ///
    /// AC is a cold path (one complex solve per frequency point), so it
    /// reuses the reference assembly rather than a compiled program.
    ///
    /// # Errors
    ///
    /// Propagates DC-op errors; [`SimError::SingularMatrix`] if the
    /// complex MNA system is singular at some frequency.
    pub fn ac(&self, spec: &AcSpec) -> Result<AcResult, SimError> {
        crate::engine::Engine::new(&self.ckt)?.ac(spec)
    }

    /// Sweeps the DC value of the named independent source.
    ///
    /// # Errors
    ///
    /// [`SimError::NotFound`] if the source does not exist,
    /// [`SimError::InvalidCircuit`] if the device is not an independent
    /// source, plus any DC-op error at a sweep point.
    pub fn dc_sweep(&self, source: &str, values: &[f64]) -> Result<DcSweepResult, SimError> {
        let id = self
            .ckt
            .find_device(source)
            .ok_or_else(|| SimError::NotFound(format!("source `{source}`")))?;
        let si = self
            .program
            .sources
            .iter()
            .position(|s| s.di == id.0)
            .ok_or_else(|| {
                SimError::InvalidCircuit(format!("device `{source}` is not an independent source"))
            })?;
        let mut sweep = DcSweepResult::new(values.to_vec());
        for &v in values {
            let mut st = ExecState::new(&self.program, false);
            st.source_override = Some((si, v));
            let x = self.dc_solve(&mut st, false, 0.0)?;
            sweep.push(self.op_point_from(&x));
        }
        Ok(sweep)
    }

    fn op_point_from(&self, x: &[f64]) -> OpPoint {
        let nv = self.program.nv;
        let mut volts = HashMap::new();
        for (i, name) in self.ckt.node_names().enumerate() {
            volts.insert(name.to_string(), x[i]);
        }
        let mut currents = HashMap::new();
        for dev in &self.ckt.devices {
            if let Some(br) = dev.branch {
                currents.insert(dev.name.clone(), x[nv + br]);
            }
        }
        OpPoint::new(volts, currents)
    }

    /// Source + companion RHS shared by all Newton iterations of one
    /// solve (sources depend on time only; companion currents on the
    /// accepted state only).
    fn rhs_static(&self, st: &mut ExecState, mode: &Mode) {
        let p = &self.program;
        st.rhs_static.fill(0.0);
        let time = mode.time();
        let scale = mode.source_scale();
        for (si, src) in p.sources.iter().enumerate() {
            let v = match st.source_override {
                Some((oi, ov)) if oi == si => ov,
                _ => src.wave.eval(time),
            } * scale;
            match &src.kind {
                SrcKind::V { br } => st.rhs_static[*br] += v,
                SrcKind::I { p: rp, n: rn } => {
                    st.rhs_static[*rp] += v;
                    st.rhs_static[*rn] -= v;
                }
            }
        }
        match mode {
            Mode::Dc { force_ic, .. } => {
                if *force_ic {
                    for c in &p.cap_ics {
                        st.rhs_static[c.ra] += c.g_ic;
                        st.rhs_static[c.rb] -= c.g_ic;
                    }
                    for &(br, ic) in &p.ind_ics {
                        st.rhs_static[br] += ic;
                    }
                }
            }
            Mode::Tran { dt, trap, .. } => {
                for c in &p.caps {
                    let d = st.dyn_state[c.di];
                    let ieq = if *trap {
                        let g = 2.0 * c.farads / dt;
                        g * d.a + d.b
                    } else {
                        c.farads / dt * d.a
                    };
                    st.rhs_static[rrow(c.a, p.n)] += ieq;
                    st.rhs_static[rrow(c.b, p.n)] -= ieq;
                }
                let factor = if *trap { 2.0 / dt } else { 1.0 / dt };
                for l in &p.inductors {
                    let d = st.dyn_state[l.di];
                    let mut v = if *trap { -d.b } else { 0.0 };
                    for &(_, lval, owner) in &l.row {
                        v -= factor * lval * st.dyn_state[owner].a;
                    }
                    st.rhs_static[l.br] += v;
                }
            }
        }
        st.rhs_static[p.n] = 0.0;
    }

    /// One full assembly at iterate `x`: templates, g-shunt, then the
    /// nonlinear instruction stream.
    fn assemble(&self, st: &mut ExecState, x: &[f64], mode: &Mode) {
        let p = &self.program;
        let nnz = p.pattern.nnz();
        // Anchor the unchecked stamp helpers (`volt`, `stamp_g`,
        // `rhs_add`): validate_streams proved the instruction indices
        // against exactly these lengths.
        assert_eq!(x.len(), p.n);
        assert_eq!(st.vals.len(), nnz + 1);
        assert_eq!(st.rhs.len(), p.n + 1);
        match mode {
            Mode::Dc { force_ic, .. } => {
                let base = if *force_ic { &p.base_dc_ic } else { &p.base_dc };
                st.vals[..nnz].copy_from_slice(base);
                st.vals[nnz] = 0.0;
                for &d in &p.diag_slots {
                    st.vals[d] += st.gshunt;
                }
                st.static_rebuilt = true;
            }
            Mode::Tran { dt, trap, .. } => {
                let key = (dt.to_bits(), *trap, st.gshunt.to_bits());
                if st.tran_cache_key == Some(key) {
                    st.vals[..nnz].copy_from_slice(&st.tran_cache);
                    st.vals[nnz] = 0.0;
                } else {
                    let f = if *trap { 2.0 / dt } else { 1.0 / dt };
                    for (s, (b, r)) in p.base_tran.iter().zip(&p.react).enumerate() {
                        st.vals[s] = b + f * r;
                    }
                    st.vals[nnz] = 0.0;
                    for &d in &p.diag_slots {
                        st.vals[d] += st.gshunt;
                    }
                    st.tran_cache.clear();
                    st.tran_cache.extend_from_slice(&st.vals[..nnz]);
                    st.tran_cache_key = Some(key);
                    st.static_rebuilt = true;
                }
            }
        }
        st.rhs.copy_from_slice(&st.rhs_static);
        st.rhs[p.n] = 0.0;
        st.limiting_active = false;
        let vt = p.vt;
        for d in &p.diodes {
            let vd_cand = volt(x, d.a) - volt(x, d.k);
            let vd_old = st.nl_state[d.di][0];
            let vd = pnjlim(vd_cand, vd_old, d.model.n * vt, d.vcrit);
            if (vd - vd_cand).abs() > 1.0e-6 + 1.0e-3 * vd_cand.abs() {
                st.limiting_active = true;
            }
            st.nl_state[d.di][0] = vd;
            let (id, gd) = d.model.eval(vd, vt);
            let g = gd + GMIN;
            let ieq = id - g * vd;
            stamp_g(&mut st.vals, d.g4, g);
            // Current `ieq` flows a → k.
            rhs_add(&mut st.rhs, d.a, p.n, -ieq);
            rhs_add(&mut st.rhs, d.k, p.n, ieq);
            st.rhs[p.n] = 0.0;
        }
        for m in &p.mosfets {
            self.stamp_mosfet(st, x, m);
        }
        for sw in &p.switches {
            let vc = volt(x, sw.cp) - volt(x, sw.cn);
            let (g, _) = sw.model.conductance(vc);
            stamp_g(&mut st.vals, sw.g4, g);
        }
        st.vals[nnz] = 0.0;
    }

    fn stamp_mosfet(&self, st: &mut ExecState, x: &[f64], m: &MosInstr) {
        let p = &self.program;
        let vt = p.vt;
        let model = &m.model;
        let sp = model.sign();
        let (vd, vg, vs, vb) = (
            sp * volt(x, m.nd),
            sp * volt(x, m.ng),
            sp * volt(x, m.ns),
            sp * volt(x, m.nb),
        );
        let reversed = vd < vs;
        let (ed, es) = if reversed { (m.ns, m.nd) } else { (m.nd, m.ns) };
        let (ved, ves) = if reversed { (vs, vd) } else { (vd, vs) };
        let vgs_cand = vg - ves;
        let vds_cand = ved - ves;
        let vbs_cand = vb - ves;
        let vto_n = model.vto * sp;
        let nls = &mut st.nl_state[m.di];
        let vgs = fetlim(vgs_cand, nls[0], vto_n);
        let vds = limvds(vds_cand, nls[1]).max(0.0);
        let vbs = vbs_cand.min(0.3);
        let mut limited = (vgs - vgs_cand).abs() > 1.0e-6 + 1.0e-3 * vgs_cand.abs()
            || (vds - vds_cand).abs() > 1.0e-6 + 1.0e-3 * vds_cand.abs();
        nls[0] = vgs;
        nls[1] = vds;
        let (id, gm, gds0, gmbs) = model.eval_normalized(vgs, vds, vbs);
        let gds = gds0 + GMIN;
        let ieq = sp * (id - gm * vgs - gds * vds - gmbs * vbs);
        // Channel stamps: effective-drain row +, effective-source row −;
        // columns are [gate, drain, bulk, source] with drain/source
        // column positions swapped when the channel is reversed.
        let (rd, rs) = if reversed { (1usize, 0usize) } else { (0usize, 1usize) };
        let (cd, cs) = if reversed { (3usize, 1usize) } else { (1usize, 3usize) };
        for (ri, sign) in [(rd, 1.0f64), (rs, -1.0f64)] {
            let slots = &m.ch_slots[ri];
            // SAFETY: channel slots are `<= nnz < vals.len()`
            // (validate_streams; `assemble` asserted the length), and
            // `cd`/`cs` are drawn from {1, 3}.
            #[allow(unsafe_code)]
            unsafe {
                *st.vals.get_unchecked_mut(slots[0]) += sign * gm;
                *st.vals.get_unchecked_mut(*slots.get_unchecked(cd)) += sign * gds;
                *st.vals.get_unchecked_mut(slots[2]) += sign * gmbs;
                *st.vals.get_unchecked_mut(*slots.get_unchecked(cs)) -=
                    sign * (gm + gds + gmbs);
            }
        }
        rhs_add(&mut st.rhs, ed, p.n, -ieq);
        rhs_add(&mut st.rhs, es, p.n, ieq);
        st.rhs[p.n] = 0.0;
        for j in &m.junctions {
            let vj_cand = volt(x, j.an) - volt(x, j.ca);
            let vj = pnjlim(vj_cand, st.nl_state[m.di][j.nl_slot], vt, j.vcrit);
            if (vj - vj_cand).abs() > 1.0e-6 + 1.0e-3 * vj_cand.abs() {
                limited = true;
            }
            st.nl_state[m.di][j.nl_slot] = vj;
            let (ij, gj) = j.jm.eval(vj, vt);
            let g = gj + GMIN;
            let ieq_j = ij - g * vj;
            stamp_g(&mut st.vals, j.g4, g);
            rhs_add(&mut st.rhs, j.an, p.n, -ieq_j);
            rhs_add(&mut st.rhs, j.ca, p.n, ieq_j);
            st.rhs[p.n] = 0.0;
        }
        if limited {
            st.limiting_active = true;
        }
    }

    /// Factorizes the freshly assembled matrix: warm transient
    /// iterations — where only the nonlinear stamp slots can differ
    /// from the last factorization — take the hinted refactor path
    /// (precompiled dirty-row closure, no value diff); any iteration
    /// that (re)loaded a static template takes the diff-driven path.
    #[inline]
    fn factor_current(st: &mut ExecState, p: &Program, mode: &Mode) -> Result<(), SimError> {
        let nnz = p.pattern.nnz();
        if matches!(mode, Mode::Tran { .. }) && !st.static_rebuilt {
            let ExecState { lu, vals, hint, .. } = st;
            lu.factor_hinted(&p.pattern, &vals[..nnz], hint)?;
        } else {
            st.lu.factor(&p.pattern, &st.vals[..nnz])?;
            st.static_rebuilt = false;
        }
        Ok(())
    }

    /// Newton–Raphson at a fixed mode; mirrors the reference engine.
    fn newton(
        &self,
        st: &mut ExecState,
        x0: &[f64],
        mode: &Mode,
        tols: &NewtonTols,
    ) -> Result<(Vec<f64>, usize), SimError> {
        let NewtonTols { max_iter, reltol, vabstol, iabstol } = *tols;
        let p = &self.program;
        self.rhs_static(st, mode);
        let mut x = x0.to_vec();
        for iter in 1..=max_iter {
            st.newton_iterations += 1;
            if st.profile {
                let t0 = Instant::now();
                self.assemble(st, &x, mode);
                st.assemble_ns += t0.elapsed().as_nanos() as u64;
                let t1 = Instant::now();
                Self::factor_current(st, p, mode)?;
                st.factor_ns += t1.elapsed().as_nanos() as u64;
            } else {
                self.assemble(st, &x, mode);
                Self::factor_current(st, p, mode)?;
            }
            let t2 = st.profile.then(Instant::now);
            let ExecState { lu, rhs, x_next, .. } = st;
            lu.solve_into(&rhs[..p.n], x_next);
            if let Some(t2) = t2 {
                st.solve_ns += t2.elapsed().as_nanos() as u64;
            }
            let mut converged = iter > 1 && !st.limiting_active;
            if converged {
                for (i, (&xn, &xo)) in st.x_next.iter().zip(x.iter()).enumerate() {
                    let abstol = if i < p.nv { vabstol } else { iabstol };
                    let tol = reltol * xn.abs().max(xo.abs()) + abstol;
                    if (xn - xo).abs() > tol {
                        converged = false;
                        break;
                    }
                }
            }
            std::mem::swap(&mut x, &mut st.x_next);
            if converged {
                return Ok((x, iter));
            }
        }
        Err(SimError::NoConvergence {
            analysis: match mode {
                Mode::Dc { .. } => "dc",
                Mode::Tran { .. } => "transient",
            },
            time: match mode {
                Mode::Tran { time, .. } => Some(*time),
                Mode::Dc { .. } => None,
            },
            iterations: max_iter,
        })
    }

    /// DC solve with g-shunt stepping and source stepping as fallbacks.
    fn dc_solve(&self, st: &mut ExecState, force_ic: bool, time: f64) -> Result<Vec<f64>, SimError> {
        let n = self.program.n;
        let x0 = vec![0.0; n];
        let mode = Mode::Dc { time, force_ic, source_scale: 1.0 };
        st.nl_state.fill([0.0; 4]);
        match self.newton(st, &x0, &mode, &NewtonTols::DC) {
            Ok((x, _)) => return Ok(x),
            Err(SimError::SingularMatrix { unknown }) => {
                return Err(SimError::SingularMatrix { unknown })
            }
            Err(_) => {}
        }
        // g-shunt stepping: start heavily damped, relax.
        let mut x = vec![0.0; n];
        st.nl_state.fill([0.0; 4]);
        let mut ok = true;
        for g in [1e-2, 1e-4, 1e-6, 1e-8, 1e-10, GSHUNT_DEFAULT] {
            st.gshunt = g;
            match self.newton(st, &x, &mode, &NewtonTols::DC) {
                Ok((xn, _)) => x = xn,
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        st.gshunt = GSHUNT_DEFAULT;
        if ok {
            return Ok(x);
        }
        // Source stepping.
        let mut x = vec![0.0; n];
        st.nl_state.fill([0.0; 4]);
        let steps = 20;
        for s in 1..=steps {
            let scale = s as f64 / steps as f64;
            let mode = Mode::Dc { time, force_ic, source_scale: scale };
            let (xn, _) = self.newton(st, &x, &mode, &NewtonTols::DC)?;
            x = xn;
        }
        Ok(x)
    }

    /// Updates companion states after an accepted step.
    fn update_dyn_state(&self, st: &mut ExecState, x: &[f64], dt: f64, trap: bool) {
        for c in &self.program.caps {
            let v = volt(x, c.a) - volt(x, c.b);
            let d = st.dyn_state[c.di];
            let i = if trap {
                let g = 2.0 * c.farads / dt;
                g * (v - d.a) - d.b
            } else {
                c.farads / dt * (v - d.a)
            };
            st.dyn_state[c.di] = DynState { a: v, b: i };
        }
        for l in &self.program.inductors {
            let v = volt(x, l.a) - volt(x, l.b);
            st.dyn_state[l.di] = DynState { a: x[l.br], b: v };
        }
    }

    /// Initializes companion states from the DC starting point.
    fn init_dyn_state(&self, st: &mut ExecState, x: &[f64]) {
        for c in &self.program.caps {
            let v = c.ic.unwrap_or(volt(x, c.a) - volt(x, c.b));
            st.dyn_state[c.di] = DynState { a: v, b: 0.0 };
        }
        for l in &self.program.inductors {
            let i = l.ic.unwrap_or(x[l.br]);
            st.dyn_state[l.di] = DynState { a: i, b: 0.0 };
        }
    }

    fn collect_breakpoints(&self, t_stop: f64) -> Vec<f64> {
        let mut bps: Vec<f64> = Vec::new();
        for src in &self.program.sources {
            bps.extend(src.wave.breakpoints(t_stop));
        }
        bps.push(t_stop);
        bps.sort_by(|a, b| a.partial_cmp(b).expect("finite breakpoints"));
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        bps
    }

    fn transient(&self, st: &mut ExecState, cfg: &TranConfig) -> Result<TransientResult, SimError> {
        let p = &self.program;
        let t_stop = cfg.t_stop;
        let max_step = cfg.max_step.unwrap_or(t_stop / 50.0);
        if max_step <= 0.0 {
            return Err(SimError::InvalidParameter {
                name: "max_step",
                reason: "must be positive".into(),
            });
        }
        let trap = cfg.method == Integration::Trapezoidal;

        let mut names: Vec<String> = self.ckt.node_names().map(str::to_string).collect();
        if cfg.record_currents {
            for dev in &self.ckt.devices {
                if dev.branch.is_some() {
                    names.push(format!("I({})", dev.name));
                }
            }
        }
        let mut result = TransientResult::new(names);
        let mut current_row: Vec<f64> = Vec::new();
        let mut record = |result: &mut TransientResult, t: f64, x: &[f64]| {
            if cfg.record_currents {
                current_row.clear();
                current_row.extend_from_slice(&x[..p.nv]);
                for dev in &self.ckt.devices {
                    if let Some(br) = dev.branch {
                        current_row.push(x[p.nv + br]);
                    }
                }
                result.push_sample(t, &current_row);
            } else {
                result.push_sample(t, &x[..p.nv]);
            }
        };

        // Initial point: DC at t = 0 with initial conditions enforced.
        let mut x = self.dc_solve(st, true, 0.0)?;
        self.init_dyn_state(st, &x);
        record(&mut result, 0.0, &x);

        let bps = self.collect_breakpoints(t_stop);
        let mut bp_iter = bps.iter().copied().peekable();

        let mut t = 0.0f64;
        let mut dt = (max_step / 10.0).min(t_stop / 1000.0).max(cfg.min_step * 10.0);
        let mut accepted = 0usize;
        let mut rejected = 0usize;
        let mut newton_total = 0usize;
        let mut history: Vec<(f64, Vec<f64>)> = vec![(0.0, x.clone())];
        let mut x_guess: Vec<f64> = Vec::with_capacity(p.n);
        let mut first_steps_be = 2usize; // start on backward Euler

        loop {
            let remaining = t_stop - t;
            if remaining <= t_stop * 1.0e-12 {
                break;
            }
            while let Some(&bp) = bp_iter.peek() {
                if bp <= t + 1e-15 * t_stop.max(1.0) {
                    bp_iter.next();
                } else {
                    break;
                }
            }
            let mut dt_try = dt.min(max_step).min(remaining);
            let mut hit_bp = false;
            if let Some(&bp) = bp_iter.peek() {
                if t + dt_try >= bp - 1e-15 {
                    dt_try = bp - t;
                    hit_bp = true;
                }
            }
            if dt_try < cfg.min_step {
                if remaining < cfg.min_step.max(t_stop * 1.0e-12) * 100.0 {
                    break;
                }
                return Err(SimError::TimestepTooSmall { time: t, step: dt_try });
            }
            let use_trap = trap && first_steps_be == 0;
            let mode = Mode::Tran { time: t + dt_try, dt: dt_try, trap: use_trap };

            if history.len() >= 2 {
                let (t1, x1) = &history[history.len() - 1];
                let (t0, x0) = &history[history.len() - 2];
                let alpha = dt_try / (t1 - t0);
                x_guess.clear();
                x_guess.extend(x1.iter().zip(x0).map(|(a, b)| a + alpha * (a - b)));
            } else {
                x_guess.clear();
                x_guess.extend_from_slice(&x);
            }

            match self.newton(
                st,
                &x_guess,
                &mode,
                &NewtonTols {
                    max_iter: cfg.max_newton,
                    reltol: cfg.reltol,
                    vabstol: cfg.vabstol,
                    iabstol: cfg.iabstol,
                },
            )
            {
                Err(SimError::SingularMatrix { unknown }) => {
                    return Err(SimError::SingularMatrix { unknown });
                }
                Err(_) => {
                    rejected += 1;
                    newton_total += cfg.max_newton;
                    dt = dt_try * 0.25;
                    if dt < cfg.min_step {
                        return Err(SimError::TimestepTooSmall { time: t, step: dt });
                    }
                    continue;
                }
                Ok((x_new, iters)) => {
                    newton_total += iters;
                    if cfg.lte_control && history.len() >= 3 && !hit_bp {
                        let err_ratio = self.lte_ratio(&history, t + dt_try, &x_new, cfg);
                        if err_ratio > LTE_TRTOL * 4.0 && dt_try > cfg.min_step * 16.0 {
                            rejected += 1;
                            dt = dt_try * 0.5;
                            continue;
                        }
                        let grow = (LTE_TRTOL / err_ratio.max(1e-6)).cbrt().clamp(0.3, 2.0);
                        dt = dt_try * grow;
                    } else {
                        dt = if iters <= 10 {
                            dt_try * 1.5
                        } else if iters > 30 {
                            dt_try * 0.5
                        } else {
                            dt_try
                        };
                    }
                    t += dt_try;
                    self.update_dyn_state(st, &x_new, dt_try, use_trap);
                    x = x_new;
                    record(&mut result, t, &x);
                    if history.len() >= 4 {
                        // Recycle the oldest history buffer.
                        let (_, mut buf) = history.remove(0);
                        buf.copy_from_slice(&x);
                        history.push((t, buf));
                    } else {
                        history.push((t, x.clone()));
                    }
                    accepted += 1;
                    first_steps_be = first_steps_be.saturating_sub(1);
                    if hit_bp {
                        first_steps_be = first_steps_be.max(1);
                        dt = dt.min(max_step / 10.0).max(cfg.min_step * 10.0);
                        history.clear();
                        history.push((t, x.clone()));
                    }
                }
            }
        }
        result.record_stats(accepted, rejected, newton_total);
        Ok(result)
    }

    /// Local truncation error relative to tolerance, from third divided
    /// differences.
    fn lte_ratio(
        &self,
        history: &[(f64, Vec<f64>)],
        t_new: f64,
        x_new: &[f64],
        cfg: &TranConfig,
    ) -> f64 {
        let p = &self.program;
        let n = history.len();
        let (t0, x0) = &history[n - 3];
        let (t1, x1) = &history[n - 2];
        let (t2, x2) = &history[n - 1];
        let dt = t_new - t2;
        let mut worst: f64 = 0.0;
        for i in 0..p.n {
            let dd1a = (x_new[i] - x2[i]) / (t_new - t2);
            let dd1b = (x2[i] - x1[i]) / (t2 - t1);
            let dd1c = (x1[i] - x0[i]) / (t1 - t0);
            let dd2a = (dd1a - dd1b) / (t_new - t1);
            let dd2b = (dd1b - dd1c) / (t2 - t0);
            let dd3 = (dd2a - dd2b) / (t_new - t0);
            let lte = 0.5 * dt.powi(3) * dd3.abs();
            let abstol = if i < p.nv { cfg.vabstol } else { cfg.iabstol };
            let tol = cfg.reltol * x_new[i].abs() + abstol;
            worst = worst.max(lte / tol);
        }
        worst
    }
}

/// Voltage of unknown `idx` (`GND_IDX` reads 0).
///
/// Callers in the per-iteration stamp loops pass indices proven in
/// range by [`Program::validate_streams`] against an `x` whose length
/// [`CompiledCircuit::assemble`] asserts, so the bounds check is
/// compiled out.
#[allow(unsafe_code)]
#[inline]
fn volt(x: &[f64], idx: usize) -> f64 {
    if idx == GND_IDX {
        0.0
    } else {
        // SAFETY: `idx < n == x.len()` (validate_streams + caller's
        // length assert).
        unsafe { *x.get_unchecked(idx) }
    }
}

/// Adds `v` onto RHS row `idx` (`GND_IDX` lands on the trash row `n`).
///
/// Same validation contract as [`volt`]: `idx < n` or `GND_IDX`, and
/// the caller asserts `rhs.len() == n + 1`.
#[allow(unsafe_code)]
#[inline]
fn rhs_add(rhs: &mut [f64], idx: usize, n: usize, v: f64) {
    // SAFETY: `rrow(idx, n) <= n < rhs.len()`.
    unsafe {
        *rhs.get_unchecked_mut(rrow(idx, n)) += v;
    }
}

/// RHS row of node-read index `idx` (`GND_IDX` maps to the trash row).
#[inline]
fn rrow(idx: usize, n: usize) -> usize {
    if idx == GND_IDX {
        n
    } else {
        idx
    }
}

/// Applies a symmetric conductance through pre-resolved slots.
///
/// Same validation contract as [`volt`]: all four slots are `<= nnz`
/// (validate_streams) and the caller asserts `vals.len() == nnz + 1`.
#[allow(unsafe_code)]
#[inline]
fn stamp_g(vals: &mut [f64], s: GSlots, g: f64) {
    // SAFETY: every slot is `<= nnz < vals.len()`.
    unsafe {
        *vals.get_unchecked_mut(s.aa) += g;
        *vals.get_unchecked_mut(s.bb) += g;
        *vals.get_unchecked_mut(s.ab) -= g;
        *vals.get_unchecked_mut(s.ba) -= g;
    }
}

/// Compile-time structural diagnostics; every rejection names the
/// offending node/device so callers can fix the netlist, mirroring the
/// server's field-level decode errors.
///
/// Three classes are rejected:
/// - [`SimError::UnsupportedDevice`]: a source with a
///   [`SourceFn::Custom`] closure, which cannot be lowered into the
///   compiled source table;
/// - [`SimError::SingularAtDc`]: a loop of ideal voltage sources — the
///   loop currents are underdetermined, the one topology the g-shunt
///   cannot regularize, so the run would only fail later inside LU;
/// - [`SimError::DanglingNode`]: a node created with `Circuit::node`
///   but never attached to any device terminal (it would silently
///   solve to 0 V).
///
/// Floating-at-DC nodes (e.g. behind a capacitor) are *not* errors:
/// the reference engine pins them through the g-shunt and the compiled
/// engine reproduces that behavior.
fn diagnose(ckt: &Circuit) -> Result<(), SimError> {
    let nodes = ckt.node_count();
    let mut touched = vec![false; nodes];
    touched[0] = true;
    // Union-find over ideal voltage-source edges: adding an edge between
    // two already-connected terminals closes a source loop.
    let mut parent: Vec<usize> = (0..nodes).collect();
    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    for dev in &ckt.devices {
        for node in &dev.nodes {
            touched[node.0] = true;
        }
        if let DeviceKind::VSource { wave, .. } | DeviceKind::ISource { wave, .. } = &dev.kind {
            if matches!(wave, SourceFn::Custom(_)) {
                return Err(SimError::UnsupportedDevice {
                    device: dev.name.clone(),
                    reason: "`SourceFn::Custom` closures cannot be lowered into the \
                             compiled source table; use Pwl or another analytic waveform"
                        .into(),
                });
            }
        }
        if matches!(dev.kind, DeviceKind::VSource { .. }) {
            let (a, b) = (dev.nodes[0].0, dev.nodes[1].0);
            let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
            if ra == rb {
                return Err(SimError::SingularAtDc {
                    node: ckt.node_name(dev.nodes[0]).to_string(),
                    device: dev.name.clone(),
                });
            }
            parent[ra] = rb;
        }
    }
    for (id, connected) in touched.iter().enumerate().skip(1) {
        if !connected {
            return Err(SimError::DanglingNode { node: ckt.node_name(NodeId(id)).to_string() });
        }
    }
    Ok(())
}

/// Lowers the circuit into the stamp program.
fn lower(ckt: &Circuit) -> Result<Program, SimError> {
    let nv = ckt.node_count() - 1;
    let n = nv + ckt.num_branches;
    if n == 0 {
        return Err(SimError::InvalidCircuit("circuit has no unknowns".into()));
    }
    let ni = |node: NodeId| -> usize {
        if node.is_ground() {
            GND_IDX
        } else {
            node.0 - 1
        }
    };
    // Inductance rows including mutual terms (self entry first), as
    // `(column, inductance, owner device index)`.
    let mut ind_rows: HashMap<usize, Vec<(usize, f64, usize)>> = HashMap::new();
    let mut branch_owner = vec![usize::MAX; ckt.num_branches];
    for (di, dev) in ckt.devices.iter().enumerate() {
        if let Some(br) = dev.branch {
            branch_owner[br] = di;
        }
        if let DeviceKind::Inductor { henries, .. } = dev.kind {
            let br = nv + dev.branch.expect("inductor has a branch");
            ind_rows.insert(di, vec![(br, henries, di)]);
        }
    }
    for cpl in &ckt.couplings {
        let l_of = |i: usize| -> f64 {
            match ckt.devices[i].kind {
                DeviceKind::Inductor { henries, .. } => henries,
                _ => unreachable!("couple() validated inductors"),
            }
        };
        let m = cpl.k * (l_of(cpl.l1.0) * l_of(cpl.l2.0)).sqrt();
        let br1 = nv + ckt.devices[cpl.l1.0].branch.expect("inductor branch");
        let br2 = nv + ckt.devices[cpl.l2.0].branch.expect("inductor branch");
        ind_rows.get_mut(&cpl.l1.0).expect("inductor row").push((br2, m, cpl.l2.0));
        ind_rows.get_mut(&cpl.l2.0).expect("inductor row").push((br1, m, cpl.l1.0));
    }

    // Pass 1: the union sparsity pattern over all modes.
    let mut pb = PatternBuilder::new(n);
    for i in 0..nv {
        pb.add(i, i);
    }
    let mark_g = |pb: &mut PatternBuilder, a: usize, b: usize| {
        if a != GND_IDX {
            pb.add(a, a);
        }
        if b != GND_IDX {
            pb.add(b, b);
        }
        if a != GND_IDX && b != GND_IDX {
            pb.add(a, b);
            pb.add(b, a);
        }
    };
    for (di, dev) in ckt.devices.iter().enumerate() {
        let nd: Vec<usize> = dev.nodes.iter().map(|&id| ni(id)).collect();
        match &dev.kind {
            DeviceKind::Resistor { .. }
            | DeviceKind::Capacitor { .. }
            | DeviceKind::Diode { .. } => mark_g(&mut pb, nd[0], nd[1]),
            DeviceKind::Switch { .. } => mark_g(&mut pb, nd[0], nd[1]),
            DeviceKind::Inductor { .. } => {
                let br = nv + dev.branch.expect("inductor branch");
                for &t in &[nd[0], nd[1]] {
                    if t != GND_IDX {
                        pb.add(t, br);
                        pb.add(br, t);
                    }
                }
                pb.add(br, br);
                for &(col, _, _) in ind_rows.get(&di).expect("inductor row") {
                    pb.add(br, col);
                }
            }
            DeviceKind::VSource { .. } => {
                let br = nv + dev.branch.expect("vsource branch");
                for &t in &[nd[0], nd[1]] {
                    if t != GND_IDX {
                        pb.add(t, br);
                        pb.add(br, t);
                    }
                }
                // force-IC mode keeps the same rows; nothing extra.
            }
            DeviceKind::ISource { .. } => {}
            DeviceKind::Vcvs { .. } => {
                let br = nv + dev.branch.expect("vcvs branch");
                for &t in &[nd[0], nd[1]] {
                    if t != GND_IDX {
                        pb.add(t, br);
                        pb.add(br, t);
                    }
                }
                for &c in &[nd[2], nd[3]] {
                    if c != GND_IDX {
                        pb.add(br, c);
                    }
                }
            }
            DeviceKind::Vccs { .. } => {
                for &r in &[nd[0], nd[1]] {
                    if r == GND_IDX {
                        continue;
                    }
                    for &c in &[nd[2], nd[3]] {
                        if c != GND_IDX {
                            pb.add(r, c);
                        }
                    }
                }
            }
            DeviceKind::Mosfet { model } => {
                for &r in &[nd[0], nd[2]] {
                    if r == GND_IDX {
                        continue;
                    }
                    for &c in &[nd[1], nd[0], nd[3], nd[2]] {
                        if c != GND_IDX {
                            pb.add(r, c);
                        }
                    }
                }
                if model.junction_is > 0.0 {
                    mark_g(&mut pb, nd[3], nd[0]);
                    mark_g(&mut pb, nd[3], nd[2]);
                }
            }
        }
    }
    let pattern = pb.build();
    let nnz = pattern.nnz();
    let trash = nnz;
    let slot = |r: usize, c: usize| -> usize {
        if r == GND_IDX || c == GND_IDX {
            return trash;
        }
        pattern.slot(r, c).expect("pattern covers every stamp")
    };
    let g_slots = |a: usize, b: usize| -> GSlots {
        GSlots { aa: slot(a, a), bb: slot(b, b), ab: slot(a, b), ba: slot(b, a) }
    };

    // Pass 2: fold static values into templates and build the
    // instruction streams.
    let vt = VT_NOMINAL / 300.15 * (ckt.temperature + 273.15);
    let mut base_tran = vec![0.0; nnz];
    let mut react = vec![0.0; nnz];
    let mut base_dc = vec![0.0; nnz];
    let mut base_dc_ic = vec![0.0; nnz];
    let mut diag_slots = Vec::with_capacity(nv);
    for i in 0..nv {
        diag_slots.push(slot(i, i));
    }
    let mut sources = Vec::new();
    let mut caps = Vec::new();
    let mut cap_ics = Vec::new();
    let mut inductors = Vec::new();
    let mut ind_ics = Vec::new();
    let mut diodes = Vec::new();
    let mut mosfets = Vec::new();
    let mut switches = Vec::new();

    // Folds a conductance into a template (skipping the trash slot so
    // templates stay exact).
    fn fold_g(tmpl: &mut [f64], s: GSlots, g: f64, trash: usize) {
        for (idx, v) in [(s.aa, g), (s.bb, g), (s.ab, -g), (s.ba, -g)] {
            if idx != trash {
                tmpl[idx] += v;
            }
        }
    }
    let fold = |tmpl: &mut [f64], idx: usize, v: f64| {
        if idx != trash {
            tmpl[idx] += v;
        }
    };

    for (di, dev) in ckt.devices.iter().enumerate() {
        let nd: Vec<usize> = dev.nodes.iter().map(|&id| ni(id)).collect();
        match &dev.kind {
            DeviceKind::Resistor { ohms } => {
                let s = g_slots(nd[0], nd[1]);
                let g = 1.0 / ohms;
                fold_g(&mut base_tran, s, g, trash);
                fold_g(&mut base_dc, s, g, trash);
                fold_g(&mut base_dc_ic, s, g, trash);
            }
            DeviceKind::Capacitor { farads, ic } => {
                let s = g_slots(nd[0], nd[1]);
                fold_g(&mut react, s, *farads, trash);
                if let Some(ic) = ic {
                    fold_g(&mut base_dc_ic, s, G_FORCE_IC, trash);
                    cap_ics.push(CapIcInstr {
                        ra: rrow(nd[0], n),
                        rb: rrow(nd[1], n),
                        g_ic: G_FORCE_IC * ic,
                    });
                }
                caps.push(CapInstr { di, farads: *farads, ic: *ic, a: nd[0], b: nd[1] });
            }
            DeviceKind::Inductor { ic, .. } => {
                let br = nv + dev.branch.expect("inductor branch");
                for (t, sign) in [(nd[0], 1.0), (nd[1], -1.0)] {
                    fold(&mut base_tran, slot(t, br), sign);
                    fold(&mut base_dc, slot(t, br), sign);
                    fold(&mut base_dc_ic, slot(t, br), sign);
                    fold(&mut base_tran, slot(br, t), sign);
                    fold(&mut base_dc, slot(br, t), sign);
                }
                fold(&mut base_dc, slot(br, br), -1.0e-9);
                if let Some(ic) = ic {
                    fold(&mut base_dc_ic, slot(br, br), 1.0);
                    ind_ics.push((br, *ic));
                } else {
                    for (t, sign) in [(nd[0], 1.0), (nd[1], -1.0)] {
                        fold(&mut base_dc_ic, slot(br, t), sign);
                    }
                    fold(&mut base_dc_ic, slot(br, br), -1.0e-9);
                }
                let row = ind_rows.get(&di).expect("inductor row").clone();
                for &(col, l, _) in &row {
                    fold(&mut react, slot(br, col), -l);
                }
                inductors.push(IndInstr { di, br, ic: *ic, a: nd[0], b: nd[1], row });
            }
            DeviceKind::VSource { wave, .. } => {
                let br = nv + dev.branch.expect("vsource branch");
                for (t, sign) in [(nd[0], 1.0), (nd[1], -1.0)] {
                    for tmpl in [&mut base_tran, &mut base_dc, &mut base_dc_ic] {
                        fold(tmpl, slot(t, br), sign);
                        fold(tmpl, slot(br, t), sign);
                    }
                }
                sources.push(SrcInstr { di, wave: wave.clone(), kind: SrcKind::V { br } });
            }
            DeviceKind::ISource { wave, .. } => {
                sources.push(SrcInstr {
                    di,
                    wave: wave.clone(),
                    kind: SrcKind::I { p: rrow(nd[0], n), n: rrow(nd[1], n) },
                });
            }
            DeviceKind::Vcvs { gain } => {
                let br = nv + dev.branch.expect("vcvs branch");
                for tmpl in [&mut base_tran, &mut base_dc, &mut base_dc_ic] {
                    for (t, sign) in [(nd[0], 1.0), (nd[1], -1.0)] {
                        fold(tmpl, slot(t, br), sign);
                        fold(tmpl, slot(br, t), sign);
                    }
                    fold(tmpl, slot(br, nd[2]), -gain);
                    fold(tmpl, slot(br, nd[3]), *gain);
                }
            }
            DeviceKind::Vccs { gm } => {
                for tmpl in [&mut base_tran, &mut base_dc, &mut base_dc_ic] {
                    for (r, sign) in [(nd[0], 1.0), (nd[1], -1.0)] {
                        fold(tmpl, slot(r, nd[2]), gm * sign);
                        fold(tmpl, slot(r, nd[3]), -gm * sign);
                    }
                }
            }
            DeviceKind::Diode { model } => {
                diodes.push(DiodeInstr {
                    di,
                    model: *model,
                    vcrit: model.vcrit(vt),
                    a: nd[0],
                    k: nd[1],
                    g4: g_slots(nd[0], nd[1]),
                });
            }
            DeviceKind::Mosfet { model } => {
                let ch_slots = [
                    [slot(nd[0], nd[1]), slot(nd[0], nd[0]), slot(nd[0], nd[3]), slot(nd[0], nd[2])],
                    [slot(nd[2], nd[1]), slot(nd[2], nd[0]), slot(nd[2], nd[3]), slot(nd[2], nd[2])],
                ];
                let mut junctions = Vec::new();
                if model.junction_is > 0.0 {
                    let jm = DiodeModel { is: model.junction_is, n: 1.0 };
                    let vcrit = jm.vcrit(vt);
                    for (nl_slot, other) in [(2usize, nd[0]), (3usize, nd[2])] {
                        let (an, ca) = match model.polarity {
                            MosPolarity::Nmos => (nd[3], other),
                            MosPolarity::Pmos => (other, nd[3]),
                        };
                        junctions.push(JunctionInstr {
                            nl_slot,
                            an,
                            ca,
                            jm,
                            vcrit,
                            g4: g_slots(an, ca),
                        });
                    }
                }
                mosfets.push(MosInstr {
                    di,
                    model: *model,
                    nd: nd[0],
                    ng: nd[1],
                    ns: nd[2],
                    nb: nd[3],
                    ch_slots,
                    junctions,
                });
            }
            DeviceKind::Switch { model } => {
                switches.push(SwitchInstr {
                    model: *model,
                    cp: nd[2],
                    cn: nd[3],
                    g4: g_slots(nd[0], nd[1]),
                });
            }
        }
    }

    // The matrix slots the per-iteration nonlinear stamps can rewrite
    // — everything else comes from the cached static template, which
    // lets warm transient iterations use the hinted refactor path.
    // Grounded-node stamps land on the trash slot (`nnz`), which never
    // reaches the factorization.
    let nnz = pattern.nnz();
    let mut tran_dynamic_slots: Vec<u32> = Vec::new();
    {
        let mut push_g4 = |s: GSlots| {
            for idx in [s.aa, s.bb, s.ab, s.ba] {
                if idx < nnz {
                    tran_dynamic_slots.push(idx as u32);
                }
            }
        };
        for d in &diodes {
            push_g4(d.g4);
        }
        for sw in &switches {
            push_g4(sw.g4);
        }
        for m in &mosfets {
            for j in &m.junctions {
                push_g4(j.g4);
            }
        }
    }
    for m in &mosfets {
        for row in &m.ch_slots {
            for &idx in row {
                if idx < nnz {
                    tran_dynamic_slots.push(idx as u32);
                }
            }
        }
    }
    tran_dynamic_slots.sort_unstable();
    tran_dynamic_slots.dedup();

    let program = Program {
        nv,
        n,
        vt,
        pattern,
        diag_slots,
        base_tran,
        react,
        base_dc,
        base_dc_ic,
        sources,
        caps,
        cap_ics,
        inductors,
        ind_ics,
        diodes,
        mosfets,
        switches,
        tran_dynamic_slots,
        device_count: ckt.devices.len(),
    };
    program.validate_streams();
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{DiodeModel, MosModel, SwitchModel};

    fn rc_lowpass() -> Circuit {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("V1", vin, Circuit::GND, SourceFn::sine(1.0, 10.0e3));
        ckt.resistor("R1", vin, out, 1.0e3);
        ckt.capacitor("C1", out, Circuit::GND, 10.0e-9);
        ckt
    }

    fn rectifier() -> Circuit {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let out = ckt.node("out");
        ckt.voltage_source("V1", src, Circuit::GND, SourceFn::sine(3.0, 50.0e3));
        ckt.diode("D1", src, out, DiodeModel::silicon());
        ckt.capacitor("C1", out, Circuit::GND, 100.0e-9);
        ckt.resistor("RL", out, Circuit::GND, 10.0e3);
        ckt
    }

    fn rlc_with_coupling() -> Circuit {
        let mut ckt = Circuit::new();
        let src = ckt.node("src");
        let prim = ckt.node("prim");
        let sec = ckt.node("sec");
        ckt.voltage_source("V1", src, Circuit::GND, SourceFn::sine(1.0, 100.0e3));
        ckt.resistor("RS", src, prim, 10.0);
        let l1 = ckt.inductor("L1", prim, Circuit::GND, 10.0e-6);
        let l2 = ckt.inductor("L2", sec, Circuit::GND, 10.0e-6);
        ckt.couple(l1, l2, 0.4);
        ckt.resistor("RL", sec, Circuit::GND, 50.0);
        ckt.capacitor("CL", sec, Circuit::GND, 1.0e-9);
        ckt
    }

    fn nmos_inverter() -> Circuit {
        let mut ckt = Circuit::new();
        let vdd = ckt.node("vdd");
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source("VDD", vdd, Circuit::GND, SourceFn::dc(1.8));
        ckt.voltage_source("VIN", vin, Circuit::GND, SourceFn::dc(0.9));
        ckt.resistor("RD", vdd, out, 10.0e3);
        ckt.mosfet("M1", out, vin, Circuit::GND, Circuit::GND, MosModel::n018(10.0e-6, 0.18e-6));
        ckt
    }

    fn assert_op_close(a: &OpPoint, b: &OpPoint, tol: f64) {
        for (node, va) in a.voltages() {
            let vb = b.voltage(node).expect("node in both");
            assert!(
                (va - vb).abs() <= tol * va.abs().max(vb.abs()) + tol,
                "node {node}: compiled {va} vs reference {vb}"
            );
        }
        for (dev, ia) in a.currents() {
            let ib = b.current(dev).expect("branch in both");
            assert!(
                (ia - ib).abs() <= tol * ia.abs().max(ib.abs()) + tol,
                "branch {dev}: compiled {ia} vs reference {ib}"
            );
        }
    }

    fn assert_tran_close(ckt: &Circuit, t_stop: f64, max_step: f64, signal: &str, tol: f64) {
        let reference = ckt
            .transient_reference(&TranConfig::builder(t_stop).max_step(max_step).build())
            .expect("reference transient");
        let compiled = ckt
            .compile()
            .expect("compile")
            .tran(&TranConfig::builder(t_stop).max_step(max_step).build())
            .expect("compiled transient");
        let wr = reference.trace(signal).expect("reference trace");
        let wc = compiled.trace(signal).expect("compiled trace");
        let span = wr.values().iter().fold(0.0f64, |m, v| m.max(v.abs())).max(1e-12);
        for k in 0..=100 {
            let t = t_stop * k as f64 / 100.0;
            let dv = (wr.value_at(t) - wc.value_at(t)).abs();
            assert!(
                dv <= tol * span,
                "{signal} at t={t:.3e}: reference {} vs compiled {} (span {span})",
                wr.value_at(t),
                wc.value_at(t)
            );
        }
    }

    #[test]
    fn dangling_node_is_a_compile_error() {
        let mut ckt = rc_lowpass();
        ckt.node("orphan");
        match ckt.compile() {
            Err(SimError::DanglingNode { node }) => assert_eq!(node, "orphan"),
            other => panic!("expected DanglingNode, got {other:?}"),
        }
    }

    #[test]
    fn voltage_source_loop_is_singular_at_dc() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(1.0));
        ckt.voltage_source("V2", b, Circuit::GND, SourceFn::dc(2.0));
        ckt.resistor("R1", a, b, 1.0e3);
        ckt.voltage_source("V3", a, b, SourceFn::dc(-1.0));
        match ckt.compile() {
            Err(SimError::SingularAtDc { device, .. }) => assert_eq!(device, "V3"),
            other => panic!("expected SingularAtDc, got {other:?}"),
        }
    }

    #[test]
    fn custom_source_is_unsupported() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.voltage_source("VX", a, Circuit::GND, SourceFn::custom(|t| t));
        ckt.resistor("R1", a, Circuit::GND, 1.0e3);
        match ckt.compile() {
            Err(SimError::UnsupportedDevice { device, reason }) => {
                assert_eq!(device, "VX");
                assert!(reason.contains("Custom"));
            }
            other => panic!("expected UnsupportedDevice, got {other:?}"),
        }
    }

    #[test]
    fn empty_circuit_still_reports_invalid() {
        let ckt = Circuit::new();
        assert!(matches!(ckt.compile(), Err(SimError::InvalidCircuit(_))));
    }

    #[test]
    fn dc_matches_reference_on_linear_divider() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(5.0));
        ckt.resistor("R1", a, b, 1.0e3);
        ckt.resistor("R2", b, Circuit::GND, 4.0e3);
        let compiled = ckt.compile().unwrap().dc_op().unwrap();
        let reference = ckt.dc_op_reference().unwrap();
        assert_op_close(&compiled, &reference, 1e-12);
        // gshunt (1e-12 S) shifts the ideal 4.0 V by ~3e-9 V; the compiled
        // and reference engines agree to 1e-12, so only the analytic check
        // needs the looser band.
        assert!((compiled.voltage("b").unwrap() - 4.0).abs() < 1e-6);
    }

    #[test]
    fn dc_matches_reference_on_nmos_inverter() {
        let ckt = nmos_inverter();
        let compiled = ckt.compile().unwrap().dc_op().unwrap();
        let reference = ckt.dc_op_reference().unwrap();
        assert_op_close(&compiled, &reference, 1e-9);
    }

    #[test]
    fn dc_matches_reference_on_rectifier() {
        let ckt = rectifier();
        let compiled = ckt.compile().unwrap().dc_op().unwrap();
        let reference = ckt.dc_op_reference().unwrap();
        assert_op_close(&compiled, &reference, 1e-9);
    }

    #[test]
    fn tran_matches_reference_on_rc() {
        assert_tran_close(&rc_lowpass(), 200.0e-6, 0.5e-6, "out", 1e-6);
    }

    #[test]
    fn tran_matches_reference_on_rectifier() {
        assert_tran_close(&rectifier(), 100.0e-6, 0.2e-6, "out", 1e-5);
    }

    #[test]
    fn tran_matches_reference_on_coupled_rlc() {
        assert_tran_close(&rlc_with_coupling(), 50.0e-6, 0.05e-6, "sec", 1e-5);
    }

    #[test]
    fn tran_matches_reference_with_switch_and_vcvs() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let ctl = ckt.node("ctl");
        let b = ckt.node("b");
        let c = ckt.node("c");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(2.0));
        ckt.voltage_source("VC", ctl, Circuit::GND, SourceFn::square(0.0, 3.0, 10.0e3));
        ckt.switch("S1", a, b, ctl, Circuit::GND, SwitchModel::logic());
        ckt.resistor("RB", b, Circuit::GND, 1.0e3);
        ckt.vcvs("E1", c, Circuit::GND, b, Circuit::GND, 2.0);
        ckt.resistor("RC", c, Circuit::GND, 2.0e3);
        ckt.capacitor("CB", b, Circuit::GND, 10.0e-9);
        assert_tran_close(&ckt, 300.0e-6, 1.0e-6, "c", 1e-5);
    }

    #[test]
    fn dc_sweep_matches_reference() {
        let ckt = nmos_inverter();
        let values: Vec<f64> = (0..=18).map(|i| i as f64 * 0.1).collect();
        let compiled = ckt.compile().unwrap().dc_sweep("VIN", &values).unwrap();
        // Reference: clone and re-run dc per point like the legacy path.
        for (i, &v) in values.iter().enumerate() {
            let mut ref_ckt = ckt.clone();
            if let Some(id) = ref_ckt.find_device("VIN") {
                if let DeviceKind::VSource { wave, .. } = &mut ref_ckt.devices[id.0].kind {
                    *wave = SourceFn::dc(v);
                }
            }
            let reference = ref_ckt.dc_op_reference().unwrap();
            assert_op_close(&compiled.points()[i], &reference, 1e-9);
        }
    }

    #[test]
    fn dc_sweep_rejects_unknown_and_non_source() {
        let sim = nmos_inverter().compile().unwrap();
        assert!(matches!(sim.dc_sweep("nope", &[0.0]), Err(SimError::NotFound(_))));
        assert!(matches!(sim.dc_sweep("RD", &[0.0]), Err(SimError::InvalidCircuit(_))));
    }

    #[test]
    fn stats_show_refactor_skips_on_linear_circuit() {
        // A linear circuit's Jacobian is identical across the Newton
        // iterations of one timestep, so at least the second iteration of
        // every accepted step must skip factorization.
        let sim = rc_lowpass().compile().unwrap();
        let (res, stats) =
            sim.tran_with_stats(&TranConfig::builder(100.0e-6).max_step(1.0e-6).build()).unwrap();
        assert!(res.len() > 10);
        assert!(stats.lu.refactor_skips > 0, "stats: {stats:?}");
        assert!(stats.refactor_skip_rate() > 0.2, "rate: {}", stats.refactor_skip_rate());
        assert!(stats.lu.pivoted_factorizations >= 1);
        assert!(stats.lu.solves as usize >= res.len());
        assert_eq!(stats.unknowns, sim.unknown_count());
        assert_eq!(stats.nonzeros, sim.nonzeros());
        // Not profiled: no phase times recorded.
        assert_eq!(stats.factor_ns, 0);
    }

    #[test]
    fn profile_records_phase_times() {
        let sim = rc_lowpass().compile().unwrap();
        let (_, stats) = sim
            .tran_with_stats(
                &TranConfig::builder(20.0e-6).max_step(1.0e-6).profile(true).build(),
            )
            .unwrap();
        assert!(stats.assemble_ns > 0);
        assert!(stats.factor_ns > 0);
        assert!(stats.solve_ns > 0);
        assert!(stats.newton_iterations > 0);
    }

    #[test]
    fn compiled_circuit_is_reusable_and_deterministic() {
        let sim = rectifier().compile().unwrap();
        let cfg = TranConfig::builder(50.0e-6).max_step(0.2e-6).build();
        let a = sim.tran(&cfg).unwrap();
        let b = sim.tran(&cfg).unwrap();
        assert_eq!(a.time(), b.time());
        assert_eq!(a.samples("out"), b.samples("out"));
        assert!(sim.compile_ns() > 0);
    }

    #[test]
    fn ac_delegates_to_reference() {
        let mut ckt = Circuit::new();
        let vin = ckt.node("in");
        let out = ckt.node("out");
        ckt.voltage_source_ac("V1", vin, Circuit::GND, SourceFn::dc(0.0), 1.0, 0.0);
        ckt.resistor("R1", vin, out, 1.0e3);
        ckt.capacitor("C1", out, Circuit::GND, 10.0e-9);
        let sim = ckt.compile().unwrap();
        let res = sim.ac(&AcSpec::log_sweep(100.0, 1.0e6, 20)).unwrap();
        let f3 = res.corner_frequency("out").expect("corner");
        let expect = 1.0 / (2.0 * std::f64::consts::PI * 1.0e3 * 10.0e-9);
        assert!((f3 - expect).abs() / expect < 0.05, "f3 {f3} vs {expect}");
    }

    #[test]
    fn force_ic_initial_point_matches_reference() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.voltage_source("V1", a, Circuit::GND, SourceFn::dc(5.0));
        ckt.resistor("R1", a, b, 1.0e3);
        ckt.capacitor_with_ic("C1", b, Circuit::GND, 1.0e-6, 2.5);
        let lr = ckt.inductor_with_ic("L1", b, Circuit::GND, 1.0e-3, 1.0e-3);
        let _ = lr;
        let reference = ckt
            .transient_reference(&TranConfig::builder(1.0e-6).max_step(0.1e-6).build())
            .unwrap();
        let compiled = ckt
            .compile()
            .unwrap()
            .tran(&TranConfig::builder(1.0e-6).max_step(0.1e-6).build())
            .unwrap();
        let vr = reference.trace("b").unwrap().values()[0];
        let vc = compiled.trace("b").unwrap().values()[0];
        assert!((vr - 2.5).abs() < 1e-3, "reference ic {vr}");
        assert!((vc - vr).abs() < 1e-9, "compiled ic {vc} vs {vr}");
        let ir = reference.current_trace("L1").unwrap().values()[0];
        let ic = compiled.current_trace("L1").unwrap().values()[0];
        assert!((ir - 1.0e-3).abs() < 1e-6);
        assert!((ic - ir).abs() < 1e-12);
    }
}
